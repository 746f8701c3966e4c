//! RADIUS-like federated authentication.
//!
//! §2.2: "Upon initial association, the user device identifies its home
//! ISP and proceeds to authenticate with it through a standardized
//! protocol such as RADIUS. This means that an association request from a
//! user has to be authenticated by their home satellite provider, and
//! this can be done through ISLs."
//!
//! Flow (challenge-response, one round trip to the home AAA over ISLs):
//!
//! ```text
//! user → serving sat : AccessRequest { user, home, nonce,
//!                                      proof = tag(user_secret, nonce) }
//!        serving sat relays over ISLs to the home operator's AAA
//! home AAA             : verifies proof, issues Certificate
//! user ← serving sat : AccessAccept { certificate }   (or AccessReject)
//! ```
//!
//! The home AAA side is [`AuthService`]; the user side is
//! [`make_access_request`]. Visited operators verify the resulting
//! certificate offline via the issuer's federation secret.

use crate::certificate::Certificate;
use crate::crypto::{compute_tag, verify_tag, SharedSecret, Tag};
use crate::types::{OperatorId, UserId};
use crate::wire::{Reader, WireError, Writer};

/// Access-Request: the user's authentication claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessRequest {
    /// The requesting user.
    pub user: UserId,
    /// The user's home operator (who can check the proof).
    pub home_operator: OperatorId,
    /// Client nonce (replay protection).
    pub nonce: u64,
    /// `tag(user_secret, user ‖ home ‖ nonce)`.
    pub proof: Tag,
}

impl AccessRequest {
    fn proof_bytes(user: UserId, home: OperatorId, nonce: u64) -> [u8; 20] {
        let mut b = [0u8; 20];
        b[..8].copy_from_slice(&user.0.to_be_bytes());
        b[8..12].copy_from_slice(&home.0.to_be_bytes());
        b[12..20].copy_from_slice(&nonce.to_be_bytes());
        b
    }

    /// Serialize the payload fields.
    pub fn encode_payload(&self, w: &mut Writer) {
        w.u64(self.user.0);
        w.u32(self.home_operator.0);
        w.u64(self.nonce);
        w.bytes(&self.proof.0);
    }

    /// Parse the payload fields.
    pub fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            user: UserId(r.u64()?),
            home_operator: OperatorId(r.u32()?),
            nonce: r.u64()?,
            proof: Tag(r.bytes::<16>()?),
        })
    }
}

/// Build a valid Access-Request on the user side.
pub fn make_access_request(
    user: UserId,
    home_operator: OperatorId,
    nonce: u64,
    user_secret: &SharedSecret,
) -> AccessRequest {
    let proof = compute_tag(
        user_secret,
        &AccessRequest::proof_bytes(user, home_operator, nonce),
    );
    AccessRequest {
        user,
        home_operator,
        nonce,
        proof,
    }
}

/// Access-Accept: carries the roaming certificate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessAccept {
    /// Echoed nonce.
    pub nonce: u64,
    /// The issued certificate.
    pub certificate: Certificate,
}

impl AccessAccept {
    /// Serialize the payload fields.
    pub fn encode_payload(&self, w: &mut Writer) {
        w.u64(self.nonce);
        self.certificate.encode(w);
    }

    /// Parse the payload fields.
    pub fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            nonce: r.u64()?,
            certificate: Certificate::decode(r)?,
        })
    }
}

/// Why access was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthFailure {
    /// Proof did not verify under the user's registered secret.
    BadCredentials,
    /// The user is not registered with this home operator.
    UnknownUser,
    /// The nonce was already used (replay).
    ReplayedNonce,
}

impl AuthFailure {
    fn to_code(self) -> u8 {
        match self {
            Self::BadCredentials => 1,
            Self::UnknownUser => 2,
            Self::ReplayedNonce => 3,
        }
    }

    fn from_code(c: u8) -> Result<Self, WireError> {
        Ok(match c {
            1 => Self::BadCredentials,
            2 => Self::UnknownUser,
            3 => Self::ReplayedNonce,
            _ => {
                return Err(WireError::IllegalField {
                    field: "auth_failure",
                })
            }
        })
    }
}

/// Access-Reject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessReject {
    /// Echoed nonce.
    pub nonce: u64,
    /// Denial reason.
    pub reason: AuthFailure,
}

impl AccessReject {
    /// Serialize the payload fields.
    pub fn encode_payload(&self, w: &mut Writer) {
        w.u64(self.nonce);
        w.u8(self.reason.to_code());
    }

    /// Parse the payload fields.
    pub fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            nonce: r.u64()?,
            reason: AuthFailure::from_code(r.u8()?)?,
        })
    }
}

/// A home operator's AAA service: registered user secrets, replay cache,
/// and certificate issuance.
#[derive(Debug)]
pub struct AuthService {
    operator: OperatorId,
    federation_secret: SharedSecret,
    users: std::collections::HashMap<UserId, SharedSecret>,
    seen_nonces: std::collections::HashMap<UserId, std::collections::HashSet<u64>>,
    /// Certificate lifetime (ms).
    pub certificate_lifetime_ms: u64,
}

impl AuthService {
    /// Create the AAA service for `operator`, signing certificates under
    /// `federation_secret`.
    pub fn new(operator: OperatorId, federation_secret: SharedSecret) -> Self {
        Self {
            operator,
            federation_secret,
            users: Default::default(),
            seen_nonces: Default::default(),
            certificate_lifetime_ms: 24 * 3600 * 1000,
        }
    }

    /// The operator this service authenticates for.
    pub fn operator(&self) -> OperatorId {
        self.operator
    }

    /// Register a subscriber and their shared secret.
    pub fn register_user(&mut self, user: UserId, secret: SharedSecret) {
        self.users.insert(user, secret);
    }

    /// Process an Access-Request at `now_ms`; returns the certificate on
    /// success.
    pub fn handle_request(
        &mut self,
        req: &AccessRequest,
        now_ms: u64,
    ) -> Result<AccessAccept, AccessReject> {
        let reject = |reason| AccessReject {
            nonce: req.nonce,
            reason,
        };
        if req.home_operator != self.operator {
            return Err(reject(AuthFailure::UnknownUser));
        }
        let Some(secret) = self.users.get(&req.user) else {
            return Err(reject(AuthFailure::UnknownUser));
        };
        let bytes = AccessRequest::proof_bytes(req.user, req.home_operator, req.nonce);
        if !verify_tag(secret, &bytes, &req.proof) {
            return Err(reject(AuthFailure::BadCredentials));
        }
        let nonces = self.seen_nonces.entry(req.user).or_default();
        if !nonces.insert(req.nonce) {
            return Err(reject(AuthFailure::ReplayedNonce));
        }
        let certificate = Certificate::issue(
            req.user,
            self.operator,
            now_ms,
            now_ms + self.certificate_lifetime_ms,
            &self.federation_secret,
        );
        Ok(AccessAccept {
            nonce: req.nonce,
            certificate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AuthService, UserId, SharedSecret) {
        let fed = SharedSecret::derive(3, "federation");
        let mut svc = AuthService::new(OperatorId(3), fed);
        let user = UserId(100);
        let user_secret = SharedSecret::derive(100, "subscriber");
        svc.register_user(user, user_secret);
        (svc, user, user_secret)
    }

    #[test]
    fn valid_request_yields_verifiable_certificate() {
        let (mut svc, user, secret) = setup();
        let req = make_access_request(user, OperatorId(3), 1, &secret);
        let accept = svc.handle_request(&req, 10_000).unwrap();
        assert_eq!(accept.nonce, 1);
        let fed = SharedSecret::derive(3, "federation");
        assert!(accept.certificate.verify(&fed, 10_001));
        assert_eq!(accept.certificate.user, user);
    }

    #[test]
    fn wrong_secret_rejected() {
        let (mut svc, user, _) = setup();
        let bad = SharedSecret::derive(999, "subscriber");
        let req = make_access_request(user, OperatorId(3), 1, &bad);
        let rej = svc.handle_request(&req, 0).unwrap_err();
        assert_eq!(rej.reason, AuthFailure::BadCredentials);
    }

    #[test]
    fn unknown_user_rejected() {
        let (mut svc, _, secret) = setup();
        let req = make_access_request(UserId(555), OperatorId(3), 1, &secret);
        let rej = svc.handle_request(&req, 0).unwrap_err();
        assert_eq!(rej.reason, AuthFailure::UnknownUser);
    }

    #[test]
    fn wrong_home_operator_rejected() {
        let (mut svc, user, secret) = setup();
        let req = make_access_request(user, OperatorId(4), 1, &secret);
        let rej = svc.handle_request(&req, 0).unwrap_err();
        assert_eq!(rej.reason, AuthFailure::UnknownUser);
    }

    #[test]
    fn replayed_nonce_rejected() {
        let (mut svc, user, secret) = setup();
        let req = make_access_request(user, OperatorId(3), 7, &secret);
        svc.handle_request(&req, 0).unwrap();
        let rej = svc.handle_request(&req, 1).unwrap_err();
        assert_eq!(rej.reason, AuthFailure::ReplayedNonce);
    }

    #[test]
    fn distinct_nonces_accepted() {
        let (mut svc, user, secret) = setup();
        for nonce in 1..=5 {
            let req = make_access_request(user, OperatorId(3), nonce, &secret);
            assert!(svc.handle_request(&req, 0).is_ok(), "nonce {nonce}");
        }
    }

    #[test]
    fn request_wire_round_trip() {
        let secret = SharedSecret::derive(1, "subscriber");
        let req = make_access_request(UserId(1), OperatorId(2), 42, &secret);
        let mut w = Writer::default();
        req.encode_payload(&mut w);
        let b = w.into_bytes();
        assert_eq!(
            AccessRequest::decode_payload(&mut Reader::new(&b)).unwrap(),
            req
        );
    }

    #[test]
    fn accept_and_reject_wire_round_trips() {
        let (mut svc, user, secret) = setup();
        let req = make_access_request(user, OperatorId(3), 1, &secret);
        let accept = svc.handle_request(&req, 500).unwrap();
        let mut w = Writer::default();
        accept.encode_payload(&mut w);
        let b = w.into_bytes();
        assert_eq!(
            AccessAccept::decode_payload(&mut Reader::new(&b)).unwrap(),
            accept
        );

        let rej = AccessReject {
            nonce: 9,
            reason: AuthFailure::ReplayedNonce,
        };
        let mut w = Writer::default();
        rej.encode_payload(&mut w);
        let b = w.into_bytes();
        assert_eq!(
            AccessReject::decode_payload(&mut Reader::new(&b)).unwrap(),
            rej
        );
    }

    #[test]
    fn certificate_lifetime_configurable() {
        let (mut svc, user, secret) = setup();
        svc.certificate_lifetime_ms = 1_000;
        let req = make_access_request(user, OperatorId(3), 1, &secret);
        let accept = svc.handle_request(&req, 0).unwrap();
        assert_eq!(accept.certificate.expires_at_ms, 1_000);
    }
}
