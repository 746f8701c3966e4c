//! Shared configuration-validation error type.
//!
//! Every builder and validating constructor in the stack (`FaultPlan`'s
//! `build()`, `NetSimConfig::validate`, `ScenarioRunner::new`, …) reports
//! problems through this one enum, so callers handle a single error type no
//! matter which layer's configuration was malformed. Each variant names
//! the offending field so the message is actionable without a backtrace.

use std::fmt;

/// A configuration value that fails validation at `build()` time.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A value that must be strictly positive was zero or negative.
    NonPositive {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A value that must be non-negative was negative.
    Negative {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A value fell outside its allowed closed range.
    OutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Smallest allowed value.
        min: f64,
        /// Largest allowed value.
        max: f64,
    },
    /// An index referred past the end of the entity array it indexes.
    IndexOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected index.
        index: usize,
        /// Number of valid entities (`index` must be `< len`).
        len: usize,
    },
    /// A collection that must be non-empty was empty.
    Empty {
        /// Name of the offending field.
        field: &'static str,
    },
    /// An interval whose end precedes its start.
    InvertedInterval {
        /// Name of the offending field.
        field: &'static str,
        /// Interval start.
        start: f64,
        /// Interval end.
        end: f64,
    },
    /// A value that must be finite was NaN or infinite.
    NotFinite {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A value equal to one it must differ from.
    NotDistinct {
        /// Name of the offending field.
        field: &'static str,
        /// Name of the field it must differ from.
        other: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be positive (got {value})")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative (got {value})")
            }
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} must be in [{min}, {max}] (got {value})"),
            ConfigError::IndexOutOfRange { field, index, len } => {
                write!(f, "{field} index {index} out of range (len {len})")
            }
            ConfigError::Empty { field } => write!(f, "{field} must not be empty"),
            ConfigError::InvertedInterval { field, start, end } => {
                write!(f, "{field} interval inverted ({start} > {end})")
            }
            ConfigError::NotFinite { field } => write!(f, "{field} must be finite"),
            ConfigError::NotDistinct { field, other } => {
                write!(f, "{field} must differ from {other}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validate that `value` is finite and strictly positive.
pub fn require_positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if !value.is_finite() {
        return Err(ConfigError::NotFinite { field });
    }
    if value <= 0.0 {
        return Err(ConfigError::NonPositive { field, value });
    }
    Ok(())
}

/// Validate that `value` is finite and non-negative.
pub fn require_non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if !value.is_finite() {
        return Err(ConfigError::NotFinite { field });
    }
    if value < 0.0 {
        return Err(ConfigError::Negative { field, value });
    }
    Ok(())
}

/// Validate that `index < len`.
pub fn require_index(field: &'static str, index: usize, len: usize) -> Result<(), ConfigError> {
    if index >= len {
        return Err(ConfigError::IndexOutOfRange { field, index, len });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_accept_valid_values() {
        assert!(require_positive("x", 1.0).is_ok());
        assert!(require_non_negative("x", 0.0).is_ok());
        assert!(require_index("i", 2, 3).is_ok());
    }

    #[test]
    fn helpers_reject_invalid_values() {
        assert_eq!(
            require_positive("rate", 0.0),
            Err(ConfigError::NonPositive {
                field: "rate",
                value: 0.0
            })
        );
        assert_eq!(
            require_non_negative("t", -1.0),
            Err(ConfigError::Negative {
                field: "t",
                value: -1.0
            })
        );
        assert_eq!(
            require_positive("d", f64::NAN),
            Err(ConfigError::NotFinite { field: "d" })
        );
        assert_eq!(
            require_index("sat", 5, 5),
            Err(ConfigError::IndexOutOfRange {
                field: "sat",
                index: 5,
                len: 5
            })
        );
    }

    #[test]
    fn messages_name_the_field() {
        let e = ConfigError::NonPositive {
            field: "duration_s",
            value: -2.0,
        };
        assert_eq!(e.to_string(), "duration_s must be positive (got -2)");
        let e = ConfigError::InvertedInterval {
            field: "window",
            start: 5.0,
            end: 1.0,
        };
        assert!(e.to_string().contains("window"));
    }
}
