//! Wire-format primitives: a bounds-checked reader/writer pair, the common
//! OpenSpace frame header, and the frame checksum.
//!
//! Style follows smoltcp: parsing never allocates, every read is
//! length-checked up front, and malformed input surfaces as a typed
//! [`WireError`] — never a panic.
//!
//! All multi-byte fields are big-endian (network order).

/// Errors surfaced while parsing or emitting frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field did.
    Truncated {
        /// Bytes needed to finish the read/write.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Frame does not start with the OpenSpace magic.
    BadMagic(u16),
    /// Protocol version not understood.
    UnsupportedVersion(u8),
    /// Checksum mismatch.
    BadChecksum {
        /// Checksum carried in the frame.
        stated: u32,
        /// Checksum computed over the frame.
        computed: u32,
    },
    /// Unknown message type code.
    UnknownMessageType(u8),
    /// The header's length field disagrees with the payload present.
    BadLength {
        /// Length stated in the header.
        stated: usize,
        /// Length actually present.
        actual: usize,
    },
    /// A field held a value outside its legal domain.
    IllegalField {
        /// Field name (static, for diagnostics).
        field: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            Self::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            Self::BadChecksum { stated, computed } => {
                write!(
                    f,
                    "checksum mismatch: stated {stated:#010x}, computed {computed:#010x}"
                )
            }
            Self::UnknownMessageType(t) => write!(f, "unknown message type {t:#04x}"),
            Self::BadLength { stated, actual } => {
                write!(f, "bad length: header says {stated}, payload has {actual}")
            }
            Self::IllegalField { field } => write!(f, "illegal value in field `{field}`"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked big-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an IEEE-754 f64 (big-endian bit pattern).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read exactly `N` raw bytes into an array.
    pub fn bytes<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }
}

/// Append-only big-endian writer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start with an empty buffer of the given capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finish, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write an f64 (big-endian bit pattern).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Fletcher-32 checksum over a byte slice (padded with a trailing zero when
/// the length is odd). Fast, order-sensitive, and adequate for simulation
/// framing — this is link-layer integrity, not cryptography.
pub fn fletcher32(data: &[u8]) -> u32 {
    let mut a: u32 = 0;
    let mut b: u32 = 0;
    let mut iter = data.chunks_exact(2);
    for ch in &mut iter {
        let w = u16::from_be_bytes([ch[0], ch[1]]) as u32;
        a = (a + w) % 65_535;
        b = (b + a) % 65_535;
    }
    if let [last] = iter.remainder() {
        let w = u16::from_be_bytes([*last, 0]) as u32;
        a = (a + w) % 65_535;
        b = (b + a) % 65_535;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = Writer::default();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.f64(-1234.5678);
        w.bytes(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), -1234.5678);
        assert_eq!(r.bytes::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_read_reports_sizes() {
        let mut r = Reader::new(&[1, 2]);
        match r.u32() {
            Err(WireError::Truncated { needed, available }) => {
                assert_eq!(needed, 4);
                assert_eq!(available, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Failed read must not consume.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn reads_are_big_endian() {
        let mut r = Reader::new(&[0x12, 0x34]);
        assert_eq!(r.u16().unwrap(), 0x1234);
    }

    #[test]
    fn fletcher_known_values() {
        // Classic test vectors: "abcde" -> 0xF04FC729, "abcdef" -> 0x56502D2A
        // (16-bit blocks big-endian per our definition differ from the
        // little-endian reference, so check self-consistency instead.)
        assert_eq!(fletcher32(b""), 0);
        assert_ne!(fletcher32(b"abcde"), fletcher32(b"abcdf"));
        assert_ne!(fletcher32(b"ab"), fletcher32(b"ba"), "order sensitive");
    }

    #[test]
    fn fletcher_detects_single_bit_flip() {
        let data = b"openspace beacon frame".to_vec();
        let base = fletcher32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(fletcher32(&corrupted), base, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::with_capacity(16);
        w.u32(5);
        assert_eq!(w.into_bytes(), [0, 0, 0, 5]);
    }
}
