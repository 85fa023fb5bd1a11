//! Event idle-timeout derivation.
//!
//! The paper (footnote 1) derives its ~10-minute event expiration from the
//! "flow timeout problem" of Moore et al.'s network-telescopes report: a
//! slow *long scan* must not be split into many short events just because
//! the gaps between its darknet hits exceed the timeout.
//!
//! Model: a scanner probing the IPv4 space uniformly at random at rate
//! `r` pps hits a darknet of `n` addresses as a Poisson process with mean
//! inter-arrival `Δ = 2³² / (r·n)` seconds. Over a scan of duration `D`
//! there are about `D/Δ` gaps; requiring the probability that *any* gap
//! exceeds the timeout `T` to stay below `ε` (union bound over
//! exponential gaps) gives
//!
//! ```text
//! T = Δ · ln( D / (Δ·ε) )
//! ```
//!
//! With the paper's parameters (n ≈ 475k dark IPs, r = 100 pps, D = 2
//! days) this lands in the several-hundred-seconds range — "around 10
//! minutes" — which is also the crate-wide default. The derivation lives
//! in this module's tests (`TimeoutModel`); the engine only ever uses
//! [`paper_default`].

use ah_net::time::Dur;

/// The paper's operational choice: "around 10 minutes".
pub fn paper_default() -> Dur {
    Dur::from_mins(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of the IPv4 address space.
    const IPV4_SPACE: f64 = 4_294_967_296.0;

    /// Parameters of the timeout derivation.
    #[derive(Debug, Clone, Copy)]
    struct TimeoutModel {
        /// Number of dark addresses monitored.
        dark_size: u64,
        /// Assumed scanning rate of the slowest "long scan" to preserve (pps).
        scan_rate_pps: f64,
        /// Assumed duration of the long scan (seconds).
        scan_duration_secs: f64,
        /// Acceptable probability of splitting such a scan.
        split_probability: f64,
    }

    impl TimeoutModel {
        /// The paper's assumptions: ORION-sized darknet, 100 pps, 2 days.
        fn paper() -> TimeoutModel {
            TimeoutModel {
                dark_size: 475_000,
                scan_rate_pps: 100.0,
                scan_duration_secs: 2.0 * 86_400.0,
                split_probability: 0.05,
            }
        }

        /// Expected inter-arrival of the scanner's packets at the darknet.
        fn expected_gap_secs(&self) -> f64 {
            IPV4_SPACE / (self.scan_rate_pps * self.dark_size as f64)
        }

        /// The derived timeout in seconds.
        fn timeout_secs(&self) -> f64 {
            let delta = self.expected_gap_secs();
            let gaps = (self.scan_duration_secs / delta).max(1.0);
            delta * (gaps / self.split_probability).ln().max(1.0)
        }
    }

    #[test]
    fn paper_parameters_land_near_ten_minutes() {
        let m = TimeoutModel::paper();
        let t = m.timeout_secs();
        // The derivation lands in the hundreds of seconds; the paper
        // rounds this to "around 10 minutes".
        assert!((300.0..1800.0).contains(&t), "timeout {t} out of plausible range");
    }

    #[test]
    fn expected_gap_scales_inversely_with_darknet_size() {
        let small = TimeoutModel { dark_size: 1000, ..TimeoutModel::paper() };
        let big = TimeoutModel { dark_size: 1_000_000, ..TimeoutModel::paper() };
        assert!(small.expected_gap_secs() > big.expected_gap_secs() * 900.0);
    }

    #[test]
    fn slower_scans_need_longer_timeouts() {
        let fast = TimeoutModel { scan_rate_pps: 10_000.0, ..TimeoutModel::paper() };
        let slow = TimeoutModel { scan_rate_pps: 10.0, ..TimeoutModel::paper() };
        assert!(slow.timeout_secs() > fast.timeout_secs());
    }

    #[test]
    fn stricter_split_probability_lengthens_timeout() {
        let lax = TimeoutModel { split_probability: 0.5, ..TimeoutModel::paper() };
        let strict = TimeoutModel { split_probability: 0.001, ..TimeoutModel::paper() };
        assert!(strict.timeout_secs() > lax.timeout_secs());
    }

    #[test]
    fn default_is_ten_minutes() {
        assert_eq!(paper_default().secs(), 600);
    }
}
