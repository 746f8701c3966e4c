//! Handover successor prediction.
//!
//! §2.2: "the satellite uses advance knowledge of orbital trajectories to
//! pick a successor, i.e., the satellite that it will hand over its
//! connection to the ground user to, once the satellite is out of the
//! ground user's line-of-sight."
//!
//! [`service_schedule`] turns a contact plan into the sequence of serving
//! satellites a user experiences; experiment E4 measures its handover
//! cadence against constellation density (the Starlink-every-15-s claim).
//! It also consumes satellite outage windows from a fault plan: a user
//! whose access satellite dies mid-pass is *forcibly* re-associated to
//! the best surviving satellite, and the schedule counts those unplanned
//! handovers separately.

use crate::contact::ContactWindow;
use openspace_sim::config::ConfigError;
use openspace_sim::ids::SatId;
use openspace_telemetry::Recorder;

/// One serving interval in a user's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceInterval {
    /// Serving satellite index.
    pub sat_index: SatId,
    /// Service start (s).
    pub start_s: f64,
    /// Service end (s) — a handover or an outage boundary.
    pub end_s: f64,
}

/// A user's serving schedule plus outage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSchedule {
    /// Serving intervals in time order (gaps between them are outages).
    pub intervals: Vec<ServiceInterval>,
    /// Number of satellite-to-satellite handovers (transitions without an
    /// intervening outage).
    pub handovers: usize,
    /// Of those, handovers forced by the serving satellite failing
    /// mid-pass rather than setting on schedule. Zero without faults.
    pub forced_reassociations: usize,
    /// Total time with no serving satellite (s).
    pub outage_s: f64,
}

impl ServiceSchedule {
    /// Mean time between handovers (s); `None` with fewer than one
    /// handover.
    pub fn mean_time_between_handovers_s(&self) -> Option<f64> {
        if self.handovers == 0 {
            return None;
        }
        let served: f64 = self.intervals.iter().map(|i| i.end_s - i.start_s).sum();
        Some(served / self.handovers as f64)
    }
}

/// A time span during which one satellite is failed (from a compiled
/// fault plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatOutageWindow {
    /// The failed satellite.
    pub sat: SatId,
    /// Outage start (s).
    pub start_s: f64,
    /// Outage end (s); `f64::INFINITY` for a permanent failure.
    pub end_s: f64,
}

impl SatOutageWindow {
    fn covers(&self, sat: SatId, t_s: f64) -> bool {
        self.sat == sat && (self.start_s..self.end_s).contains(&t_s)
    }
}

/// Build the serving schedule over `[t_start, t_end)` from a contact
/// plan, using the paper's policy: stay on the current satellite until it
/// sets, then switch to the predicted successor — the visible satellite
/// whose window extends furthest (maximizing time to the next handover,
/// which the serving satellite can compute from public orbits).
///
/// Under satellite `outages` (pass `&[]` for none) a satellite is only
/// eligible to serve while alive, and the serving interval of a user
/// whose satellite fails mid-pass is cut short — the user re-associates
/// immediately to the best surviving visible satellite (a *forced*
/// re-association), or falls into outage when none exists.
///
/// On success, records the schedule (`handover.schedules`), its
/// successor switches (`handover.switches`), the subset forced by
/// mid-pass failures (`handover.forced_reassociations`), and the
/// accumulated dead air (a `handover.outage_s` histogram sample, so
/// multi-user experiments get a distribution) on `rec`.
///
/// Errs on an inverted interval.
pub fn service_schedule(
    windows: &[ContactWindow],
    outages: &[SatOutageWindow],
    t_start_s: f64,
    t_end_s: f64,
    rec: &mut dyn Recorder,
) -> Result<ServiceSchedule, ConfigError> {
    if t_end_s < t_start_s {
        return Err(ConfigError::InvertedInterval {
            field: "service_schedule.interval",
            start: t_start_s,
            end: t_end_s,
        });
    }
    let alive = |sat: SatId, t: f64| !outages.iter().any(|o| o.covers(sat, t));
    // The satellite serving at `t` keeps serving until its window ends —
    // or until its next outage begins, whichever is first.
    let serve_end = |w: &ContactWindow, t: f64| {
        let death = outages
            .iter()
            .filter(|o| o.sat == w.sat_index && o.start_s > t)
            .map(|o| o.start_s)
            .fold(f64::INFINITY, f64::min);
        w.end_s.min(death)
    };

    let mut intervals: Vec<ServiceInterval> = Vec::new();
    let mut handovers = 0usize;
    let mut forced = 0usize;
    let mut outage = 0.0f64;
    let mut t = t_start_s;
    // Whether the previous interval ended because its satellite failed.
    let mut last_end_was_fault = false;

    while t < t_end_s {
        // Visible, alive windows at t; pick the one whose *contact
        // window* lasts longest. Orbits are public, faults are not: the
        // predictor ranks successors by visibility alone, and an outage
        // merely cuts the chosen interval short when it strikes.
        let best = windows
            .iter()
            .filter(|w| w.contains(t) && alive(w.sat_index, t))
            .max_by(|a, b| {
                a.end_s
                    .total_cmp(&b.end_s)
                    .then(b.sat_index.cmp(&a.sat_index))
            });
        match best {
            Some(w) => {
                let natural_end = serve_end(w, t);
                let end = natural_end.min(t_end_s);
                let came_from_service = intervals
                    .last()
                    .is_some_and(|last: &ServiceInterval| last.end_s == t);
                if came_from_service {
                    handovers += 1;
                    if last_end_was_fault {
                        forced += 1;
                    }
                }
                last_end_was_fault = natural_end < w.end_s.min(t_end_s);
                intervals.push(ServiceInterval {
                    sat_index: w.sat_index,
                    start_s: t,
                    end_s: end,
                });
                t = end;
            }
            None => {
                // Outage until a window opens or a failed satellite that
                // is inside a current window recovers.
                let next_window = windows
                    .iter()
                    .map(|w| w.start_s)
                    .filter(|&s| s > t)
                    .fold(f64::INFINITY, f64::min);
                let next_recovery = outages
                    .iter()
                    .filter(|o| o.end_s > t && o.end_s < f64::INFINITY)
                    .filter(|o| {
                        windows
                            .iter()
                            .any(|w| w.sat_index == o.sat && w.contains(o.end_s))
                    })
                    .map(|o| o.end_s)
                    .fold(f64::INFINITY, f64::min);
                let until = next_window.min(next_recovery).min(t_end_s);
                outage += until - t;
                t = until;
                last_end_was_fault = false;
            }
        }
    }

    rec.add("handover.schedules", 1);
    rec.add("handover.switches", handovers as u64);
    rec.add("handover.forced_reassociations", forced as u64);
    rec.observe("handover.outage_s", outage);
    Ok(ServiceSchedule {
        intervals,
        handovers,
        forced_reassociations: forced,
        outage_s: outage,
    })
}

/// Interruption time per handover under two protocols:
///
/// * **OpenSpace successor prediction**: the user receives the successor
///   in advance and commits with a session token — one round trip to the
///   successor, no re-authentication.
/// * **Re-authentication baseline**: association + RADIUS round trip to
///   the home AAA over ISLs.
///
/// Both are expressed in terms of the constituent delays so experiments
/// can parameterize them.
#[derive(Debug, Clone, Copy)]
pub struct HandoverCost {
    /// One-way user↔satellite propagation + processing (s).
    pub access_rtt_s: f64,
    /// Round-trip to the home AAA over ISLs (s) — only paid on re-auth.
    pub home_auth_rtt_s: f64,
}

impl HandoverCost {
    /// Interruption with successor prediction: one access round trip.
    pub fn predicted_interruption_s(&self) -> f64 {
        self.access_rtt_s
    }

    /// Interruption with full re-authentication: association plus the
    /// home-AAA round trip.
    pub fn reauth_interruption_s(&self) -> f64 {
        2.0 * self.access_rtt_s + self.home_auth_rtt_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_telemetry::{JsonValue, NullRecorder};

    fn w(sat: usize, start: f64, end: f64) -> ContactWindow {
        ContactWindow {
            sat_index: SatId(sat),
            start_s: start,
            end_s: end,
        }
    }

    fn dead(sat: usize, start: f64, end: f64) -> SatOutageWindow {
        SatOutageWindow {
            sat: SatId(sat),
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn seamless_two_sat_schedule() {
        // Sat 0 visible [0,100), sat 1 visible [80,200): one handover at 100.
        let windows = [w(0, 0.0, 100.0), w(1, 80.0, 200.0)];
        let s = service_schedule(&windows, &[], 0.0, 200.0, &mut NullRecorder).unwrap();
        assert_eq!(s.intervals.len(), 2);
        assert_eq!(s.intervals[0].sat_index, SatId(0));
        assert_eq!(s.intervals[1].sat_index, SatId(1));
        assert_eq!(s.intervals[1].start_s, 100.0);
        assert_eq!(s.handovers, 1);
        assert_eq!(s.forced_reassociations, 0);
        assert_eq!(s.outage_s, 0.0);
    }

    #[test]
    fn gap_counts_as_outage_not_handover() {
        let windows = [w(0, 0.0, 50.0), w(1, 80.0, 150.0)];
        let s = service_schedule(&windows, &[], 0.0, 150.0, &mut NullRecorder).unwrap();
        assert_eq!(s.handovers, 0, "outage breaks the handover chain");
        assert_eq!(s.outage_s, 30.0);
        assert_eq!(s.intervals.len(), 2);
    }

    #[test]
    fn picks_longest_lasting_visible_sat() {
        // At t=0 both are visible; sat 1 lasts longer and must be chosen.
        let windows = [w(0, 0.0, 50.0), w(1, 0.0, 300.0)];
        let s = service_schedule(&windows, &[], 0.0, 300.0, &mut NullRecorder).unwrap();
        assert_eq!(s.intervals.len(), 1);
        assert_eq!(s.intervals[0].sat_index, SatId(1));
        assert_eq!(s.handovers, 0);
    }

    #[test]
    fn dense_windows_mean_frequent_handovers() {
        // Staggered 30-s windows with 15-s overlap. The longest-lasting
        // successor policy rides each chosen satellite for its full 30 s
        // window (skipping every other candidate), so the cadence is the
        // window length — still Starlink-order tens of seconds.
        let mut windows = Vec::new();
        for k in 0..20 {
            let start = 15.0 * k as f64;
            windows.push(w(k, start, start + 30.0));
        }
        let s = service_schedule(&windows, &[], 0.0, 250.0, &mut NullRecorder).unwrap();
        assert!(s.handovers >= 7, "handovers {}", s.handovers);
        assert_eq!(s.outage_s, 0.0);
        let mtbh = s.mean_time_between_handovers_s().unwrap();
        assert!(
            (mtbh - 30.0).abs() < 5.0,
            "mean time between handovers {mtbh}"
        );
    }

    #[test]
    fn no_windows_is_all_outage() {
        let s = service_schedule(&[], &[], 0.0, 100.0, &mut NullRecorder).unwrap();
        assert!(s.intervals.is_empty());
        assert_eq!(s.outage_s, 100.0);
        assert_eq!(s.mean_time_between_handovers_s(), None);
    }

    #[test]
    fn horizon_clamps_final_interval() {
        let windows = [w(0, 0.0, 1_000.0)];
        let s = service_schedule(&windows, &[], 0.0, 100.0, &mut NullRecorder).unwrap();
        assert_eq!(s.intervals[0].end_s, 100.0);
    }

    #[test]
    fn inverted_interval_is_an_error_not_a_panic() {
        assert!(matches!(
            service_schedule(&[], &[], 100.0, 0.0, &mut NullRecorder),
            Err(ConfigError::InvertedInterval { .. })
        ));
    }

    #[test]
    fn predicted_handover_is_cheaper() {
        let c = HandoverCost {
            access_rtt_s: 0.01,
            home_auth_rtt_s: 0.08,
        };
        assert!(c.predicted_interruption_s() < c.reauth_interruption_s() / 5.0);
    }

    #[test]
    fn schedule_is_deterministic() {
        let windows = [w(0, 0.0, 60.0), w(1, 30.0, 90.0), w(2, 60.0, 120.0)];
        let a = service_schedule(&windows, &[], 0.0, 120.0, &mut NullRecorder).unwrap();
        let b = service_schedule(&windows, &[], 0.0, 120.0, &mut NullRecorder).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dying_access_sat_forces_reassociation() {
        // Both sats visible the whole time; sat 1 (longer window) serves
        // first, dies at t=50, and the user must jump to sat 0.
        let windows = [w(0, 0.0, 200.0), w(1, 0.0, 300.0)];
        let outages = [dead(1, 50.0, f64::INFINITY)];
        let s = service_schedule(&windows, &outages, 0.0, 200.0, &mut NullRecorder).unwrap();
        assert_eq!(s.intervals.len(), 2);
        assert_eq!(s.intervals[0].sat_index, SatId(1));
        assert_eq!(s.intervals[0].end_s, 50.0);
        assert_eq!(s.intervals[1].sat_index, SatId(0));
        assert_eq!(s.handovers, 1);
        assert_eq!(s.forced_reassociations, 1);
        assert_eq!(s.outage_s, 0.0);
    }

    #[test]
    fn failure_with_no_survivor_is_an_outage() {
        let windows = [w(0, 0.0, 100.0)];
        let outages = [dead(0, 40.0, 60.0)];
        let s = service_schedule(&windows, &outages, 0.0, 100.0, &mut NullRecorder).unwrap();
        // Serve [0,40), outage [40,60) while the sat is down, resume at 60.
        assert_eq!(s.intervals.len(), 2);
        assert_eq!(s.outage_s, 20.0);
        assert_eq!(s.forced_reassociations, 0, "no survivor to re-associate to");
        assert_eq!(s.intervals[1].start_s, 60.0);
    }

    #[test]
    fn dead_sat_is_never_selected() {
        // Sat 1's window is longer but it is dead the whole time.
        let windows = [w(0, 0.0, 100.0), w(1, 0.0, 300.0)];
        let outages = [dead(1, 0.0, f64::INFINITY)];
        let s = service_schedule(&windows, &outages, 0.0, 100.0, &mut NullRecorder).unwrap();
        assert_eq!(s.intervals.len(), 1);
        assert_eq!(s.intervals[0].sat_index, SatId(0));
    }

    #[test]
    fn recorded_schedule_reports_switches_and_outage() {
        use openspace_telemetry::MemoryRecorder;
        let windows = [w(0, 0.0, 200.0), w(1, 0.0, 300.0)];
        let outages = [dead(1, 50.0, f64::INFINITY)];
        let mut rec = MemoryRecorder::new();
        let recorded = service_schedule(&windows, &outages, 0.0, 200.0, &mut rec).unwrap();
        let plain = service_schedule(&windows, &outages, 0.0, 200.0, &mut NullRecorder).unwrap();
        assert_eq!(recorded, plain, "telemetry must not perturb the schedule");
        assert_eq!(rec.counter("handover.schedules"), 1);
        assert_eq!(rec.counter("handover.switches"), 1);
        assert_eq!(rec.counter("handover.forced_reassociations"), 1);
        let dump = rec.deterministic_json();
        let outage = dump
            .get("histograms")
            .and_then(|h| h.get("handover.outage_s"));
        assert_eq!(
            outage.and_then(|s| s.get("mean")),
            Some(&JsonValue::Num(0.0))
        );
    }

    #[test]
    fn empty_outage_list_matches_plain_schedule() {
        let windows = [w(0, 0.0, 60.0), w(1, 30.0, 90.0), w(2, 60.0, 120.0)];
        let plain = service_schedule(&windows, &[], 0.0, 120.0, &mut NullRecorder).unwrap();
        let faulted = service_schedule(&windows, &[], 0.0, 120.0, &mut NullRecorder).unwrap();
        assert_eq!(plain, faulted);
    }
}
