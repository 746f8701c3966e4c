//! Two-Line Element (TLE) parsing and generation.
//!
//! §2.2's routing argument rests on public ephemerides: "the
//! radar-tracked orbital paths of satellites are well-known and readily
//! available on public websites [N2YO, AstriaGraph]. This means that all
//! firms that contribute satellites to OpenSpace have a full public view
//! of the topology of the entire network." TLEs are the format those
//! sites serve, so the stack can ingest real catalog data and export its
//! own constellations in the same form.
//!
//! Scope: the classical two-line format (line 1 + line 2, 69 columns,
//! modulo-10 checksums). We map TLEs to [`OrbitalElements`] for the
//! crate's own propagator; SGP4-specific fields (drag, ballistic
//! coefficient) are parsed and carried but not used by the Keplerian/J2
//! propagator (documented substitution — see DESIGN.md).

use crate::constants::EARTH_MU_M3_PER_S2;
use crate::kepler::OrbitalElements;

/// A parsed TLE record.
#[derive(Debug, Clone, PartialEq)]
pub struct Tle {
    /// Satellite catalog number.
    pub catalog_number: u32,
    /// International designator (e.g. "98067A"), trimmed.
    pub intl_designator: String,
    /// Epoch year (full, e.g. 2024).
    pub epoch_year: u32,
    /// Epoch day of year with fraction.
    pub epoch_day: f64,
    /// First derivative of mean motion (rev/day²) — carried, unused.
    pub mean_motion_dot: f64,
    /// B* drag term (1/earth radii) — carried, unused.
    pub bstar: f64,
    /// Inclination (degrees).
    pub inclination_deg: f64,
    /// RAAN (degrees).
    pub raan_deg: f64,
    /// Eccentricity (dimensionless).
    pub eccentricity: f64,
    /// Argument of perigee (degrees).
    pub arg_perigee_deg: f64,
    /// Mean anomaly (degrees).
    pub mean_anomaly_deg: f64,
    /// Mean motion (rev/day).
    pub mean_motion_rev_per_day: f64,
}

/// TLE parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TleError {
    /// A line was shorter than the 69-column format requires.
    LineTooShort {
        /// Which line (1 or 2).
        line: u8,
        /// Its length.
        len: usize,
    },
    /// A line held a non-ASCII character, so its fixed columns cannot be
    /// sliced by byte offset.
    NonAscii {
        /// Which line (1 or 2).
        line: u8,
    },
    /// Line did not start with the expected line number.
    BadLineNumber {
        /// Which line was expected.
        expected: u8,
    },
    /// The modulo-10 checksum failed.
    BadChecksum {
        /// Which line (1 or 2).
        line: u8,
        /// Stated checksum digit.
        stated: u8,
        /// Computed checksum digit.
        computed: u8,
    },
    /// A numeric field failed to parse.
    BadField {
        /// Field name.
        field: &'static str,
    },
    /// Catalog numbers of line 1 and line 2 disagree.
    CatalogMismatch,
}

impl std::fmt::Display for TleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LineTooShort { line, len } => {
                write!(f, "line {line} too short: {len} chars (need 69)")
            }
            Self::NonAscii { line } => write!(f, "line {line} is not ASCII"),
            Self::BadLineNumber { expected } => write!(f, "expected line {expected}"),
            Self::BadChecksum {
                line,
                stated,
                computed,
            } => write!(f, "line {line} checksum {stated} != computed {computed}"),
            Self::BadField { field } => write!(f, "unparsable field `{field}`"),
            Self::CatalogMismatch => write!(f, "line 1 and 2 catalog numbers differ"),
        }
    }
}

impl std::error::Error for TleError {}

/// Modulo-10 checksum of the first 68 columns: digits count as value,
/// '-' counts as 1, everything else as 0.
pub fn tle_checksum(line: &str) -> u8 {
    line.chars()
        .take(68)
        .map(|c| match c {
            '0'..='9' => c as u32 - '0' as u32,
            '-' => 1,
            _ => 0,
        })
        .sum::<u32>() as u8
        % 10
}

fn field<T: std::str::FromStr>(s: &str, name: &'static str) -> Result<T, TleError> {
    s.trim()
        .parse::<T>()
        .map_err(|_| TleError::BadField { field: name })
}

/// Parse the TLE "implied decimal" exponent format, e.g. " 34123-4" =
/// 0.34123e-4, used for B*.
fn implied_decimal(s: &str) -> Result<f64, TleError> {
    let t = s.trim();
    if t.is_empty() || t == "00000-0" || t == "00000+0" {
        return Ok(0.0);
    }
    let (mantissa_str, exp_str) = t.split_at(t.len().saturating_sub(2));
    let sign = if mantissa_str.starts_with('-') {
        -1.0
    } else {
        1.0
    };
    let digits: String = mantissa_str
        .chars()
        .filter(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return Err(TleError::BadField {
            field: "implied_decimal",
        });
    }
    let mantissa: f64 = format!("0.{digits}")
        .parse()
        .map_err(|_| TleError::BadField {
            field: "implied_decimal",
        })?;
    let exp: i32 = exp_str.trim().parse().map_err(|_| TleError::BadField {
        field: "implied_decimal_exp",
    })?;
    Ok(sign * mantissa * 10f64.powi(exp))
}

fn check_line(line: &str, which: u8) -> Result<(), TleError> {
    if line.len() < 69 {
        return Err(TleError::LineTooShort {
            line: which,
            len: line.len(),
        });
    }
    if !line.is_ascii() {
        return Err(TleError::NonAscii { line: which });
    }
    if !line.starts_with(&which.to_string()) {
        return Err(TleError::BadLineNumber { expected: which });
    }
    let stated = line.as_bytes()[68].wrapping_sub(b'0');
    let computed = tle_checksum(line);
    if stated != computed {
        return Err(TleError::BadChecksum {
            line: which,
            stated,
            computed,
        });
    }
    Ok(())
}

/// Parse a TLE from its two lines (name line optional and not needed).
pub fn parse_tle(line1: &str, line2: &str) -> Result<Tle, TleError> {
    check_line(line1, 1)?;
    check_line(line2, 2)?;

    let cat1: u32 = field(&line1[2..7], "catalog_number")?;
    let cat2: u32 = field(&line2[2..7], "catalog_number")?;
    if cat1 != cat2 {
        return Err(TleError::CatalogMismatch);
    }

    let epoch_yy: u32 = field(&line1[18..20], "epoch_year")?;
    let epoch_year = if epoch_yy < 57 {
        2000 + epoch_yy
    } else {
        1900 + epoch_yy
    };

    // Eccentricity has an implied leading decimal point.
    let ecc_digits = line2[26..33].trim();
    let eccentricity: f64 = format!("0.{ecc_digits}")
        .parse()
        .map_err(|_| TleError::BadField {
            field: "eccentricity",
        })?;

    Ok(Tle {
        catalog_number: cat1,
        intl_designator: line1[9..17].trim().to_string(),
        epoch_year,
        epoch_day: field(&line1[20..32], "epoch_day")?,
        mean_motion_dot: field(&line1[33..43], "mean_motion_dot")?,
        bstar: implied_decimal(&line1[53..61])?,
        inclination_deg: field(&line2[8..16], "inclination")?,
        raan_deg: field(&line2[17..25], "raan")?,
        eccentricity,
        arg_perigee_deg: field(&line2[34..42], "arg_perigee")?,
        mean_anomaly_deg: field(&line2[43..51], "mean_anomaly")?,
        mean_motion_rev_per_day: field(&line2[52..63], "mean_motion")?,
    })
}

impl Tle {
    /// Semi-major axis (m) from the mean motion via Kepler's third law.
    pub fn semi_major_axis_m(&self) -> f64 {
        let n_rad_per_s = self.mean_motion_rev_per_day * std::f64::consts::TAU / 86_400.0;
        (EARTH_MU_M3_PER_S2 / (n_rad_per_s * n_rad_per_s)).cbrt()
    }

    /// Convert to this crate's [`OrbitalElements`].
    pub fn to_elements(&self) -> Result<OrbitalElements, crate::kepler::ElementsError> {
        OrbitalElements::new(
            self.semi_major_axis_m(),
            self.eccentricity,
            self.inclination_deg.to_radians(),
            self.raan_deg.to_radians(),
            self.arg_perigee_deg.to_radians(),
            self.mean_anomaly_deg.to_radians(),
        )
    }
}

/// Render orbital elements as a TLE pair — how an OpenSpace operator
/// publishes its constellation to the public catalog.
pub fn elements_to_tle(
    catalog_number: u32,
    intl_designator: &str,
    epoch_year: u32,
    epoch_day: f64,
    el: &OrbitalElements,
) -> (String, String) {
    assert!(catalog_number <= 99_999, "catalog number exceeds 5 digits");
    assert!(intl_designator.len() <= 8, "designator exceeds 8 chars");
    let yy = epoch_year % 100;
    let mut line1 = format!(
        "1 {:05}U {:<8} {:02}{:012.8}  .00000000  00000-0  00000-0 0  999",
        catalog_number, intl_designator, yy, epoch_day
    );
    let n_rev_per_day = 86_400.0 / el.period_s();
    let ecc_digits = format!("{:.7}", el.eccentricity);
    let mut line2 = format!(
        "2 {:05} {:8.4} {:8.4} {} {:8.4} {:8.4} {:11.8}00000",
        catalog_number,
        el.inclination_rad.to_degrees(),
        el.raan_rad.to_degrees(),
        &ecc_digits[2..9],
        el.arg_perigee_rad.to_degrees(),
        el.mean_anomaly_rad.to_degrees(),
        n_rev_per_day
    );
    line1.truncate(68);
    line2.truncate(68);
    line1.push((b'0' + tle_checksum(&line1)) as char);
    line2.push((b'0' + tle_checksum(&line2)) as char);
    (line1, line2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;

    // The canonical ISS TLE example (valid checksums).
    const ISS_L1: &str = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
    const ISS_L2: &str = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

    #[test]
    fn parses_the_iss_tle() {
        let t = parse_tle(ISS_L1, ISS_L2).unwrap();
        assert_eq!(t.catalog_number, 25544);
        assert_eq!(t.intl_designator, "98067A");
        assert_eq!(t.epoch_year, 2008);
        assert!((t.epoch_day - 264.51782528).abs() < 1e-8);
        assert!((t.inclination_deg - 51.6416).abs() < 1e-4);
        assert!((t.eccentricity - 0.0006703).abs() < 1e-7);
        assert!((t.mean_motion_rev_per_day - 15.72125391).abs() < 1e-6);
        assert!((t.bstar - (-0.11606e-4)).abs() < 1e-9);
    }

    #[test]
    fn iss_semi_major_axis_is_leo() {
        let t = parse_tle(ISS_L1, ISS_L2).unwrap();
        let alt_km = (t.semi_major_axis_m() - crate::constants::EARTH_RADIUS_M) / 1000.0;
        assert!((330.0..370.0).contains(&alt_km), "ISS altitude {alt_km} km");
    }

    #[test]
    fn iss_converts_to_valid_elements() {
        let t = parse_tle(ISS_L1, ISS_L2).unwrap();
        let el = t.to_elements().unwrap();
        assert!((el.inclination_rad.to_degrees() - 51.6416).abs() < 1e-4);
        // Period ~91.6 minutes.
        assert!((el.period_s() / 60.0 - 91.6).abs() < 0.5);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut bad = ISS_L1.to_string();
        bad.replace_range(20..21, "9");
        assert!(matches!(
            parse_tle(&bad, ISS_L2),
            Err(TleError::BadChecksum { line: 1, .. })
        ));
    }

    #[test]
    fn short_line_rejected() {
        assert!(matches!(
            parse_tle("1 25544U", ISS_L2),
            Err(TleError::LineTooShort { line: 1, .. })
        ));
    }

    #[test]
    fn non_ascii_line_rejected() {
        // 69 bytes with a valid checksum, but the two-byte 'é' shifts every
        // later field off its fixed byte column.
        let l1 = "1 25544U\u{e9}98067A  08264.51782528 -.00002182  00000-0 -11606-4 0  2957";
        assert_eq!(l1.len(), 69);
        assert!(matches!(
            parse_tle(l1, ISS_L2),
            Err(TleError::NonAscii { line: 1 })
        ));
    }

    #[test]
    fn swapped_lines_rejected() {
        assert!(matches!(
            parse_tle(ISS_L2, ISS_L1),
            Err(TleError::BadLineNumber { expected: 1 })
        ));
    }

    #[test]
    fn catalog_mismatch_rejected() {
        // A valid line 2 for a different satellite (recompute checksum).
        let mut other = ISS_L2.to_string();
        other.replace_range(2..7, "25545");
        other.truncate(68);
        other.push((b'0' + tle_checksum(&other)) as char);
        assert_eq!(parse_tle(ISS_L1, &other), Err(TleError::CatalogMismatch));
    }

    #[test]
    fn round_trip_through_generated_tle() {
        let el = OrbitalElements::circular(km_to_m(780.0), 86.4, 123.4, 251.7).unwrap();
        let (l1, l2) = elements_to_tle(10_001, "26001A", 2026, 185.5, &el);
        let parsed = parse_tle(&l1, &l2).unwrap();
        let back = parsed.to_elements().unwrap();
        assert!((back.semi_major_axis_m - el.semi_major_axis_m).abs() < 500.0);
        assert!((back.inclination_rad - el.inclination_rad).abs() < 1e-4);
        assert!((back.raan_rad - el.raan_rad).abs() < 1e-4);
        assert!((back.mean_anomaly_rad - el.mean_anomaly_rad).abs() < 1e-4);
    }

    #[test]
    fn generated_lines_have_valid_structure() {
        let el = OrbitalElements::circular(km_to_m(550.0), 53.0, 10.0, 20.0).unwrap();
        let (l1, l2) = elements_to_tle(1, "24001AA", 2024, 1.0, &el);
        assert_eq!(l1.len(), 69);
        assert_eq!(l2.len(), 69);
        assert_eq!(tle_checksum(&l1), l1.as_bytes()[68] - b'0');
        assert_eq!(tle_checksum(&l2), l2.as_bytes()[68] - b'0');
    }

    #[test]
    fn implied_decimal_cases() {
        assert!((implied_decimal(" 34123-4").unwrap() - 0.34123e-4).abs() < 1e-12);
        assert!((implied_decimal("-11606-4").unwrap() + 0.11606e-4).abs() < 1e-12);
        assert_eq!(implied_decimal(" 00000-0").unwrap(), 0.0);
        assert_eq!(implied_decimal(" 00000+0").unwrap(), 0.0);
    }

    #[test]
    fn whole_constellation_publishes_and_reparses() {
        let els = crate::walker::walker_star(&crate::walker::iridium_params()).unwrap();
        for (i, el) in els.iter().enumerate() {
            let (l1, l2) = elements_to_tle(20_000 + i as u32, "26002A", 2026, 100.0, el);
            let t = parse_tle(&l1, &l2).unwrap();
            assert_eq!(t.catalog_number, 20_000 + i as u32);
            let back = t.to_elements().unwrap();
            assert!((back.inclination_rad - el.inclination_rad).abs() < 1e-4);
        }
    }
}
