//! The host-speed probe: what makes a time measured on a shared host
//! comparable with the same time measured ten minutes later.
//!
//! The reference host is a few vCPUs of a shared machine. Its speed for
//! this kind of code — hashing and table lookups that miss the caches —
//! wanders by a factor of 1.5 over minutes as neighbours come and go,
//! with CPU time inflating exactly as wall time does (nothing is
//! descheduled; the memory system is contended). No run length a
//! benchmark can afford averages that out.
//!
//! So the driver runs a small fixed kernel of the same character between
//! child processes — `LOOKUPS` read-modify-writes at random keys of a
//! hash map that does not fit the caches — and notes how long it took.
//! A child's **host speed** is the reference kernel time over the mean
//! kernel time within `SMOOTH_S` seconds of the child's life: 1.0 on
//! the reference host on an ordinary day, 0.7 in a slow spell. Times are
//! reported in *reference-host seconds*, measured seconds × host speed.
//!
//! The kernel shares no code with the product, so a product change
//! cannot move it; it cancels only what the host does to both. Measured
//! on the reference host over 15 minutes of alternating `flows` and
//! `darknet` runs: 60-second block means of raw run time spread (q3 − q1
//! over the median) 21% and 16%; divided by the kernel's, 4.5% and 5.0%.
//! One kernel run next to one child is no use — second-to-second noise
//! is independent between the two — hence the smoothing window.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Entries inserted when the probe's map is built.
const INSERTS: usize = 1_000_000;
/// Keys are drawn from `0..KEY_SPACE`, so about half the lookups hit.
const KEY_SPACE: u64 = 2_000_000;
/// Lookups per kernel run (about 0.1 s on the reference host).
const LOOKUPS: usize = 1_500_000;
/// Seconds one kernel run takes on the reference host on an ordinary
/// day. Only fixes the scale: host speed 1.0 means this.
const REFERENCE_KERNEL_S: f64 = 0.105;
/// Kernel runs within this many seconds of a child's start or end count
/// towards its host speed.
const SMOOTH_S: f64 = 10.0;

/// Fixed-key SipHash: the same table layout in every process.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The probe: its table, and every kernel run made so far.
#[derive(Debug)]
pub struct Probe {
    table: Table,
    rng: u64,
    epoch: Instant,
    /// (seconds since `epoch` at the middle of the run, seconds it took).
    readings: Vec<(f64, f64)>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Build the table and take a first reading.
    pub fn new() -> Probe {
        let mut rng = 88_172_645_463_325_252;
        let mut table = Table::default();
        for _ in 0..INSERTS {
            let k = xorshift(&mut rng);
            table.insert(k % KEY_SPACE, k);
        }
        let mut probe = Probe { table, rng, epoch: Instant::now(), readings: Vec::new() };
        probe.sample();
        probe
    }

    /// Seconds since the probe was built: the clock its readings and
    /// [`Probe::speed`] share.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run the kernel once and record how long it took.
    pub fn sample(&mut self) {
        let from = self.now();
        let mut hits = 0_u64;
        for _ in 0..LOOKUPS {
            let k = xorshift(&mut self.rng) % KEY_SPACE;
            if let Some(v) = self.table.get_mut(&k) {
                *v = v.wrapping_add(1);
                hits += 1;
            }
        }
        black_box(hits);
        let took = self.now() - from;
        self.readings.push((from + took / 2.0, took));
    }

    /// Host speed over the interval `from..to` (seconds on
    /// [`Probe::now`]'s clock), widened by `SMOOTH_S` either side:
    /// the reference kernel time over the mean of the readings inside.
    /// With no reading inside (the caller did not sample around the
    /// interval), the nearest reading stands in.
    pub fn speed(&self, from: f64, to: f64) -> f64 {
        let inside: Vec<f64> = self
            .readings
            .iter()
            .filter(|(at, _)| (from - SMOOTH_S..=to + SMOOTH_S).contains(at))
            .map(|(_, took)| *took)
            .collect();
        let mean = if inside.is_empty() {
            let mid = (from + to) / 2.0;
            self.readings
                .iter()
                .min_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()))
                .map_or(REFERENCE_KERNEL_S, |(_, took)| *took)
        } else {
            inside.iter().sum::<f64>() / inside.len() as f64
        };
        REFERENCE_KERNEL_S / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(readings: &[(f64, f64)]) -> Probe {
        Probe {
            table: Table::default(),
            rng: 1,
            epoch: Instant::now(),
            readings: readings.to_vec(),
        }
    }

    #[test]
    fn speed_is_reference_over_mean_kernel_time_near_the_interval() {
        let k = REFERENCE_KERNEL_S;
        let p = probe_with(&[(0.0, k), (12.0, 2.0 * k), (14.0, 4.0 * k), (40.0, 100.0 * k)]);
        // 20..22 widened to 10..32 holds the readings at 12 and 14.
        assert_eq!(p.speed(20.0, 22.0), 1.0 / 3.0);
        // 0..1 widened to -10..11 holds only the first.
        assert_eq!(p.speed(0.0, 1.0), 1.0);
        // Nothing within 10 s of 60..61: the nearest reading stands in.
        assert_eq!(p.speed(60.0, 61.0), 0.01);
    }

    #[test]
    fn a_sample_is_recorded_with_its_time_and_a_positive_duration() {
        let mut p = probe_with(&[]);
        p.table.insert(1, 1);
        p.sample();
        p.sample();
        assert_eq!(p.readings.len(), 2);
        assert!(p.readings.iter().all(|(at, took)| *at >= 0.0 && *took > 0.0));
        assert!(p.readings[1].0 > p.readings[0].0);
        assert!(p.speed(0.0, p.now()) > 0.0);
    }
}
