//! # openspace-protocol
//!
//! The OpenSpace wire protocol: the "collection of interfaces and
//! standards" the paper's abstract promises, made concrete.
//!
//! * [`wire`] — smoltcp-style bounds-checked readers/writers, typed
//!   errors, Fletcher-32 framing checksum. Parsing never panics on
//!   attacker-controlled bytes.
//! * [`frame`] — the common message envelope and dispatch.
//! * [`types`] — satellite/operator/user identifiers and the capability
//!   bitmap (§2.1's "RF at a minimum, optionally laser").
//! * [`beacon`] — periodic presence beacons carrying orbital elements.
//! * [`pairing`] — the ISL pair request/response handshake plus the
//!   initiator state machine (`Idle → AwaitingResponse → Orienting →
//!   Established`).
//! * [`crypto`] — keyed 128-bit tags (a documented stand-in for HMAC).
//! * [`certificate`] — home-ISP-issued roaming certificates (§2.2).
//! * [`auth`] — RADIUS-like challenge flow: Access-Request over ISLs to
//!   the home AAA, Access-Accept carrying the certificate.
//! * [`handover`] — successor-prediction handover signaling that skips
//!   re-authentication (§2.2).
//! * [`accounting`] — signed, cross-verifiable traffic records (§3).
//!
//! ## Example: a beacon over the wire
//!
//! ```
//! use openspace_protocol::prelude::*;
//!
//! let beacon = Beacon {
//!     satellite: SatelliteId(7),
//!     operator: OperatorId(1),
//!     capabilities: Capabilities::rf_and_optical(),
//!     timestamp_ms: 0,
//!     semi_major_axis_m: 7.158e6,
//!     eccentricity: 0.0,
//!     inclination_rad: 1.508,
//!     raan_rad: 0.0,
//!     arg_perigee_rad: 0.0,
//!     mean_anomaly_rad: 0.0,
//! };
//! let frame = Frame { sender: 7, message: Message::Beacon(beacon) };
//! let bytes = frame.encode();
//! let decoded = Frame::decode(&bytes).unwrap();
//! assert_eq!(decoded, frame);
//! ```

pub mod accounting;
pub mod auth;
pub mod beacon;
pub mod certificate;
pub mod crypto;
pub mod frame;
pub mod handover;
pub mod pairing;
pub mod types;
pub mod wire;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::accounting::AccountingRecord;
    pub use crate::auth::{
        make_access_request, AccessAccept, AccessReject, AccessRequest, AuthFailure, AuthService,
    };
    pub use crate::beacon::Beacon;
    pub use crate::certificate::Certificate;
    pub use crate::crypto::{compute_tag, verify_tag, SharedSecret, Tag};
    pub use crate::frame::{Frame, Message};
    pub use crate::handover::{
        derive_session_token, validate_commit, HandoverCommit, HandoverPrepare,
    };
    pub use crate::pairing::{
        decide_pair, PairFailure, PairRequest, PairResponse, PairVerdict, PairingMachine,
        PairingState, RejectReason,
    };
    pub use crate::types::{
        Capabilities, GroundStationId, LinkTechnology, OperatorId, SatelliteId, UserId,
    };
    pub use crate::wire::{Reader, WireError, Writer};
}
