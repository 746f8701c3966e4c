//! A fixed reference kernel, timed between the benchmark's runs, that
//! measures how fast the host is running right now.
//!
//! A shared host swings this benchmark's wall times by a third over
//! minutes, the same for every run in that stretch. The kernel does the
//! kinds of work the workloads do — propagation and pairwise range
//! tests, an event queue over a slab, heap-based shortest paths — in
//! code of the benchmark's own, which never changes with the stack. A
//! run's time over the kernel's time around it therefore cancels the
//! host's speed but keeps every change in the stack, and the benchmark
//! reports it scaled by [`NOMINAL_S`] so that it still reads as seconds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host: one core of a 2.1 GHz Xeon
/// shared with other tenants, at a typical moment. Normalised times are
/// wall times multiplied by `NOMINAL_S` over the kernel's time around
/// them, so on that host they read as seconds.
pub const NOMINAL_S: f64 = 0.05;

const SATS: usize = 576;
const PLANES: usize = 24;
const STEPS: usize = 16;
const EVENTS: usize = 300_000;
const SLAB: usize = 1 << 14;
const SIDE: usize = 48;
const SOURCES: usize = 16;

/// The kernel's buffers, allocated once, and the last measurement, which
/// is shared by the intervals on either side of it.
pub struct Reference {
    pts: Vec<[f64; 3]>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    slab: Vec<u64>,
    weights: Vec<u64>,
    dist: Vec<u64>,
    last: Option<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        Reference {
            pts: vec![[0.0; 3]; SATS],
            queue: BinaryHeap::new(),
            slab: vec![0; SLAB],
            weights: (0..SIDE * SIDE * 4)
                .map(|_| 1 + xorshift(&mut x) % 97)
                .collect(),
            dist: vec![0; SIDE * SIDE],
            last: None,
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Runs `f` and returns its output, its wall seconds, and the
    /// kernel's mean time just before and just after it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = match self.last {
            Some(s) => s,
            None => self.measure(),
        };
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_secs_f64();
        let after = self.measure();
        self.last = Some(after);
        (out, wall, (before + after) / 2.0)
    }

    /// Wall seconds of one pass of the kernel.
    fn measure(&mut self) -> f64 {
        let started = Instant::now();
        let links = self.orbit_pairs();
        let events = self.event_queue();
        let paths = self.shortest_paths();
        black_box((links, events, paths));
        started.elapsed().as_secs_f64()
    }

    /// Propagates a Walker-like shell and range-tests every pair.
    fn orbit_pairs(&mut self) -> u64 {
        const RADIUS: f64 = 6.9e6;
        const RANGE: f64 = 5.0e6;
        let (si, ci) = 53f64.to_radians().sin_cos();
        let mut links = 0;
        for step in 0..STEPS {
            let t = black_box(step as f64 * 3.0);
            for (i, p) in self.pts.iter_mut().enumerate() {
                let raan = (i % PLANES) as f64 * std::f64::consts::TAU / PLANES as f64;
                let u = (i / PLANES) as f64 * 0.2618 + t * 1.1e-3;
                let (su, cu) = u.sin_cos();
                let (so, co) = raan.sin_cos();
                *p = [
                    RADIUS * (cu * co - su * so * ci),
                    RADIUS * (cu * so + su * co * ci),
                    RADIUS * su * si,
                ];
            }
            for (i, p) in self.pts.iter().enumerate() {
                for q in &self.pts[i + 1..] {
                    let d = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
                    let range = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    // Closest approach of the chord to the Earth's centre.
                    let along = -(p[0] * d[0] + p[1] * d[1] + p[2] * d[2]) / (range * range);
                    let c = along.clamp(0.0, 1.0);
                    let m = [p[0] + c * d[0], p[1] + c * d[1], p[2] + c * d[2]];
                    let clear = (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]).sqrt() > 6.45e6;
                    if range < RANGE && clear {
                        links += 1;
                    }
                }
            }
        }
        links
    }

    /// Schedules and retires events through a binary heap, each touching
    /// a slot of a slab.
    fn event_queue(&mut self) -> u64 {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        let mut now = 0u64;
        let mut acc = 0u64;
        self.queue.clear();
        for i in 0..EVENTS as u32 {
            let r = xorshift(&mut x);
            self.queue.push(Reverse((now + (r >> 48), i)));
            if self.queue.len() > 4096 || r & 3 == 0 {
                if let Some(Reverse((t, id))) = self.queue.pop() {
                    now = t;
                    let slot = (id as usize).wrapping_mul(2_654_435_761) % SLAB;
                    self.slab[slot] = self.slab[slot].wrapping_add(t);
                    acc ^= self.slab[(self.slab[slot] as usize) % SLAB];
                }
            }
        }
        acc
    }

    /// Dijkstra from a few sources over a weighted torus grid.
    fn shortest_paths(&mut self) -> u64 {
        let n = SIDE * SIDE;
        let mut total = 0u64;
        for s in 0..SOURCES {
            self.dist.fill(u64::MAX);
            let src = black_box(s * n / SOURCES);
            self.dist[src] = 0;
            self.queue.clear();
            self.queue.push(Reverse((0, src as u32)));
            while let Some(Reverse((d, v))) = self.queue.pop() {
                let v = v as usize;
                if d > self.dist[v] {
                    continue;
                }
                let (r, c) = (v / SIDE, v % SIDE);
                let next = [
                    ((r + 1) % SIDE) * SIDE + c,
                    ((r + SIDE - 1) % SIDE) * SIDE + c,
                    r * SIDE + (c + 1) % SIDE,
                    r * SIDE + (c + SIDE - 1) % SIDE,
                ];
                for (k, &u) in next.iter().enumerate() {
                    let nd = d + self.weights[v * 4 + k];
                    if nd < self.dist[u] {
                        self.dist[u] = nd;
                        self.queue.push(Reverse((nd, u as u32)));
                    }
                }
            }
            total += self.dist.iter().sum::<u64>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_pass() {
        let mut a = Reference::default();
        let mut b = Reference::default();
        let first = (a.orbit_pairs(), a.event_queue(), a.shortest_paths());
        assert!(first.0 > 0 && first.2 > 0);
        assert_eq!(first.0, b.orbit_pairs());
        assert_eq!(first.2, b.shortest_paths());
        assert_eq!(a.orbit_pairs(), first.0);
        assert_eq!(a.shortest_paths(), first.2);
    }

    #[test]
    fn around_shares_the_measurement_between_intervals() {
        let mut r = Reference::default();
        let (v, wall, first) = r.around(|| 7);
        assert_eq!(v, 7);
        assert!(wall >= 0.0 && first > 0.0);
        let after = r.last.expect("measured after the interval");
        let (_, _, second) = r.around(|| ());
        assert!(second > 0.0 && r.last.is_some());
        assert!((second - (after + r.last.unwrap()) / 2.0).abs() < 1e-12);
    }
}
