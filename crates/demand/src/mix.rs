//! Application mix: traffic classes, per-user rates and arrival kinds.
//!
//! Each [`ClassSpec`] describes one application class — what fraction
//! of users subscribe to it, how many bits per second an *active* user
//! offers on average, the packet size, which arrival process models it
//! and which [`DiurnalProfile`] gates its activity. An [`AppMix`] is
//! the validated list of classes a [`crate::model::DemandModel`]
//! aggregates over. The arrival process is the simulator's own
//! [`TrafficKind`] (CBR / Poisson / on-off bursts), so emitted flows
//! reach the packet simulator unchanged.

use crate::diurnal::DiurnalProfile;
use openspace_sim::config::{require_positive, ConfigError};
use openspace_sim::traffic::TrafficKind;

/// The four modeled application classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AppClass {
    /// Video streaming: high rate, big packets, evening peak, bursty.
    Streaming,
    /// Interactive web / enterprise: medium rate, business hours.
    Web,
    /// Voice calls: low constant rate, small packets, waking hours.
    Voice,
    /// IoT telemetry: tiny rate, tiny packets, near-flat profile.
    Iot,
}

impl AppClass {
    /// All classes in canonical order.
    pub const ALL: [AppClass; 4] = [
        AppClass::Streaming,
        AppClass::Web,
        AppClass::Voice,
        AppClass::Iot,
    ];

    /// Stable lowercase name (used in manifests and telemetry keys).
    pub fn as_str(&self) -> &'static str {
        match self {
            AppClass::Streaming => "streaming",
            AppClass::Web => "web",
            AppClass::Voice => "voice",
            AppClass::Iot => "iot",
        }
    }
}

/// One application class in the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Which class this is.
    pub class: AppClass,
    /// Fraction of the cell's users subscribed to this class. Shares
    /// need not sum to 1 (users run several apps).
    pub share: f64,
    /// Mean offered bits/s per *active* user of this class.
    pub per_user_bps: f64,
    /// Packet size in bytes for the emitted flow.
    pub packet_bytes: u32,
    /// Arrival process modeling the class.
    pub process: TrafficKind,
    /// Activity curve gating the class in local solar time.
    pub diurnal: DiurnalProfile,
}

impl ClassSpec {
    fn validate(&self) -> Result<(), ConfigError> {
        require_positive("share", self.share)?;
        if self.share > 1.0 {
            return Err(ConfigError::OutOfRange {
                field: "share",
                value: self.share,
                min: 0.0,
                max: 1.0,
            });
        }
        require_positive("per_user_bps", self.per_user_bps)?;
        if self.packet_bytes == 0 {
            return Err(ConfigError::NonPositive {
                field: "packet_bytes",
                value: 0.0,
            });
        }
        if let TrafficKind::OnOff {
            mean_on_s,
            mean_off_s,
        } = self.process
        {
            require_positive("mean_on_s", mean_on_s)?;
            require_positive("mean_off_s", mean_off_s)?;
        }
        Ok(())
    }

    /// Peak-rate multiplier for the class's arrival process: 1 for
    /// CBR/Poisson, `(on+off)/on` for on-off bursts (so the burst peak
    /// preserves the configured long-run mean).
    pub fn peak_factor(&self) -> f64 {
        match self.process {
            TrafficKind::Cbr | TrafficKind::Poisson => 1.0,
            TrafficKind::OnOff {
                mean_on_s,
                mean_off_s,
            } => (mean_on_s + mean_off_s) / mean_on_s,
        }
    }
}

/// A validated, ordered list of application classes.
#[derive(Debug, Clone, PartialEq)]
pub struct AppMix {
    classes: Vec<ClassSpec>,
}

impl AppMix {
    /// Build a mix from class specs (order is preserved and load
    /// summation follows it, so the aggregate is deterministic).
    pub fn new(classes: Vec<ClassSpec>) -> Result<Self, ConfigError> {
        if classes.is_empty() {
            return Err(ConfigError::Empty { field: "classes" });
        }
        for c in &classes {
            c.validate()?;
        }
        Ok(Self { classes })
    }

    /// A default broadband direct-to-device mix: streaming dominates
    /// the bits, IoT dominates the flat floor.
    pub fn broadband() -> Self {
        Self::new(vec![
            ClassSpec {
                class: AppClass::Streaming,
                share: 0.35,
                per_user_bps: 2_400.0,
                packet_bytes: 1200,
                process: TrafficKind::OnOff {
                    mean_on_s: 120.0,
                    mean_off_s: 240.0,
                },
                diurnal: DiurnalProfile::streaming_evening(),
            },
            ClassSpec {
                class: AppClass::Web,
                share: 0.60,
                per_user_bps: 600.0,
                packet_bytes: 800,
                process: TrafficKind::Poisson,
                diurnal: DiurnalProfile::business_hours(),
            },
            ClassSpec {
                class: AppClass::Voice,
                share: 0.40,
                per_user_bps: 240.0,
                packet_bytes: 160,
                process: TrafficKind::Cbr,
                diurnal: DiurnalProfile::voice_daytime(),
            },
            ClassSpec {
                class: AppClass::Iot,
                share: 0.25,
                per_user_bps: 40.0,
                packet_bytes: 96,
                process: TrafficKind::Poisson,
                diurnal: DiurnalProfile::iot_flat(),
            },
        ])
        .expect("broadband preset is valid")
    }

    /// The classes, in aggregation order.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadband_mix_is_valid_and_ordered() {
        let mix = AppMix::broadband();
        assert_eq!(mix.classes().len(), 4);
        assert_eq!(mix.classes()[0].class, AppClass::Streaming);
    }

    #[test]
    fn peak_factor_preserves_mean() {
        let mix = AppMix::broadband();
        let spec = &mix.classes()[0];
        match spec.process {
            TrafficKind::OnOff {
                mean_on_s,
                mean_off_s,
            } => {
                let duty = mean_on_s / (mean_on_s + mean_off_s);
                assert!((spec.peak_factor() * duty - 1.0).abs() < 1e-12);
            }
            _ => panic!("streaming should be on-off"),
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut bad = AppMix::broadband().classes()[1].clone();
        bad.share = 0.0;
        assert!(AppMix::new(vec![bad]).is_err());
        let mut bad = AppMix::broadband().classes()[1].clone();
        bad.packet_bytes = 0;
        assert!(AppMix::new(vec![bad]).is_err());
        let mut bad = AppMix::broadband().classes()[0].clone();
        bad.process = TrafficKind::OnOff {
            mean_on_s: 0.0,
            mean_off_s: 1.0,
        };
        assert!(AppMix::new(vec![bad]).is_err());
        assert!(AppMix::new(vec![]).is_err());
    }

    #[test]
    fn class_names_are_stable() {
        let names: Vec<&str> = AppClass::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(names, ["streaming", "web", "voice", "iot"]);
    }
}
