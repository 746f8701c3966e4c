//! Randomized property tests over state machines and the newer
//! subsystems: the pairing machine never panics or regresses under
//! arbitrary event sequences, DTN routing respects causality, MAC
//! simulations conserve work, and the Shapley division is always
//! efficient.
//!
//! Cases are drawn from a seeded [`SimRng`] stream — deterministic,
//! dependency-free property testing.

use openspace_economics::incentives::shapley_shares;
use openspace_mac::prelude::*;
use openspace_net::dtn::{earliest_arrival, Contact, RetryPolicy};
use openspace_protocol::prelude::*;
use openspace_sim::rng::SimRng;
use openspace_telemetry::NullRecorder;

const CASES: u64 = 256;

fn for_cases(seed: u64, mut f: impl FnMut(&mut SimRng)) {
    for case in 0..CASES {
        let mut rng = SimRng::substream(seed, case);
        f(&mut rng);
    }
}

#[derive(Debug, Clone)]
enum MachineEvent {
    RequestSent {
        timeout_s: f64,
    },
    Response {
        accept: bool,
        optical: bool,
        orient_s: f64,
    },
    Tick {
        dt_s: f64,
    },
}

fn arb_event(rng: &mut SimRng) -> MachineEvent {
    match rng.index(3) {
        0 => MachineEvent::RequestSent {
            timeout_s: rng.uniform_range(0.1, 10.0),
        },
        1 => MachineEvent::Response {
            accept: rng.chance(0.5),
            optical: rng.chance(0.5),
            orient_s: rng.uniform_range(0.0, 60.0),
        },
        _ => MachineEvent::Tick {
            dt_s: rng.uniform_range(0.0, 20.0),
        },
    }
}

#[test]
fn pairing_machine_is_panic_free_and_terminal_states_latch() {
    for_cases(0xC1, |rng| {
        let n_events = 1 + rng.index(39);
        let events: Vec<MachineEvent> = (0..n_events).map(|_| arb_event(rng)).collect();
        let mut m = PairingMachine::new();
        let mut now = 0.0f64;
        let mut established = false;
        for ev in events {
            match ev {
                MachineEvent::RequestSent { timeout_s } => {
                    // Only legal from Idle/Failed; skip otherwise (the
                    // machine asserts on misuse by design).
                    if matches!(m.state(), PairingState::Idle | PairingState::Failed(_)) {
                        m.request_sent(now, timeout_s);
                    }
                }
                MachineEvent::Response {
                    accept,
                    optical,
                    orient_s,
                } => {
                    let verdict = if accept {
                        PairVerdict::Accept {
                            technology: if optical {
                                LinkTechnology::Optical
                            } else {
                                LinkTechnology::Rf
                            },
                            orient_time_s: orient_s,
                        }
                    } else {
                        PairVerdict::Reject(RejectReason::NoBandwidth)
                    };
                    let resp = PairResponse {
                        responder: SatelliteId(2),
                        requester: SatelliteId(1),
                        verdict,
                    };
                    m.response_received(&resp, now);
                }
                MachineEvent::Tick { dt_s } => {
                    now += dt_s;
                    m.tick(now);
                }
            }
            if matches!(m.state(), PairingState::Established { .. }) {
                established = true;
            }
            // Established is terminal: once set, it never becomes Failed.
            if established {
                assert!(
                    matches!(m.state(), PairingState::Established { .. }),
                    "established link regressed to {:?}",
                    m.state()
                );
            }
        }
    });
}

#[test]
fn dtn_routing_respects_causality() {
    for_cases(0xC2, |rng| {
        let n_contacts = 1 + rng.index(29);
        let contacts: Vec<Contact> = (0..n_contacts)
            .map(|_| {
                (
                    rng.index(6),
                    rng.index(6),
                    rng.uniform_range(0.0, 500.0),
                    rng.uniform_range(1.0, 300.0),
                    rng.uniform_range(1e3, 1e7),
                )
            })
            .filter(|&(f, t, ..)| f != t)
            .map(|(from, to, start, dur, rate)| Contact {
                from: from.into(),
                to: to.into(),
                start_s: start,
                end_s: start + dur,
                latency_s: 0.01,
                rate_bps: rate,
            })
            .collect();
        let t_start = rng.uniform_range(0.0, 400.0);
        let bundle = rng.uniform_range(1e3, 1e6);
        if contacts.is_empty() {
            return;
        }
        let arrive = |t| {
            let retry = RetryPolicy::default();
            earliest_arrival(&contacts, 6, 0, 5, t, bundle, &[], retry, &mut NullRecorder)
        };
        if let Ok(r) = arrive(t_start) {
            // Arrival can never precede departure readiness.
            assert!(r.arrival_s >= t_start);
            // The route starts at the source and ends at the target.
            assert_eq!(r.nodes[0], 0);
            assert_eq!(*r.nodes.last().unwrap(), 5);
            // Starting later can never yield an earlier arrival.
            if let Ok(later) = arrive(t_start + 50.0) {
                assert!(later.arrival_s + 1e-9 >= r.arrival_s);
            }
        }
    });
}

#[test]
fn csma_report_is_internally_consistent() {
    for_cases(0xC3, |rng| {
        let n = 1 + rng.index(23);
        let seed = rng.next_u64();
        let r = simulate_csma_ca(&MacParams::s_band_isl(), n, 5.0, seed);
        assert!(r.channel_efficiency >= 0.0 && r.channel_efficiency <= 1.0);
        assert!(r.collision_rate >= 0.0 && r.collision_rate <= 1.0);
        if n == 1 {
            assert_eq!(r.collision_rate, 0.0);
            assert_eq!(r.dropped, 0);
        }
        assert!(r.delivered > 0, "5 s of saturation must deliver");
    });
}

#[test]
fn dama_never_delivers_more_than_offered_or_capacity() {
    for_cases(0xC4, |rng| {
        let n = 1 + rng.index(15);
        let load = rng.uniform_range(1e4, 2e6);
        let seed = rng.next_u64();
        let p = DamaParams::s_band_isl();
        let duration = 20.0;
        let r = simulate_dama(&p, n, load, duration, seed);
        // Carried ≤ offered (with slack for arrival bunching at the
        // horizon) and ≤ channel peak.
        let offered = load * n as f64;
        assert!(
            r.goodput_bps <= offered * 1.1 + 1e4,
            "carried {} offered {}",
            r.goodput_bps,
            offered
        );
        assert!(r.goodput_bps <= p.peak_goodput_bps() * 1.02);
    });
}

#[test]
fn shapley_is_always_efficient_for_monotone_games() {
    for_cases(0xC5, |rng| {
        let n = 1 + rng.index(6);
        let weights: Vec<f64> = (0..7).map(|_| rng.uniform_range(0.0, 10.0)).collect();
        let members: Vec<OperatorId> = (1..=n as u32).map(OperatorId).collect();
        // A weighted additive-with-synergy game: monotone by construction.
        let value = |mask: u32| {
            let base: f64 = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| weights[i])
                .sum();
            base + 0.1 * (mask.count_ones() as f64).powi(2)
        };
        let shares = shapley_shares(&members, value);
        let grand = value((1u32 << n) - 1);
        let total: f64 = shares.iter().map(|s| s.shapley_value).sum();
        assert!((total - grand).abs() < 1e-9, "sum {total} vs grand {grand}");
    });
}
