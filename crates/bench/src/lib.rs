//! Shared utilities for the experiment binaries (`src/bin/exp_*`) and
//! Criterion benches.
//!
//! Every table and figure in the paper's evaluation, plus its headline
//! quantitative claims, has one regeneration binary; see DESIGN.md §3 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured results.
//!
//! The [`scenario`] module is the shared setup harness those binaries
//! call into instead of repeating federation/user/route boilerplate.
//! The [`run`] module is the telemetry side of the same idea: one
//! [`ExpRun`] per binary handles the shared `--json` flag
//! and emits an [`openspace_telemetry::RunManifest`] on request.

pub mod run;
pub mod scenario;

pub use run::ExpRun;
pub use scenario::{
    access_satellite, ground_user, iridium_elements, nairobi_user, random_sat_nodes,
    standard_federation, study_runner, timed, walker_propagators, FIG2B_SIZES, FIG2C_SIZES,
};

/// Print a table header row followed by a separator sized to it.
pub fn print_header(title: &str, columns: &str) {
    println!("\n== {title} ==");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().min(100)));
}

/// Format an `Option<f64>` with the given precision, or a dash.
pub fn fmt_opt(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) => format!("{x:.precision$}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_opt_formats_and_dashes() {
        assert_eq!(fmt_opt(Some(1.23456), 2), "1.23");
        assert_eq!(fmt_opt(None, 2), "-");
    }
}
