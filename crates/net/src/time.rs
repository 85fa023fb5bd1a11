//! Simulation/packet timestamps.
//!
//! All components in this workspace share a single monotonic clock:
//! microseconds since the epoch of the experiment (not wall-clock UNIX
//! time — experiments map "day 0" onto a paper date when rendering).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds in one second.
pub(crate) const MICROS_PER_SEC: u64 = 1_000_000;
/// Seconds in one day.
pub(crate) const SECS_PER_DAY: u64 = 86_400;
/// Microseconds in one day.
pub const MICROS_PER_DAY: u64 = SECS_PER_DAY * MICROS_PER_SEC;

/// A timestamp with microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ts(pub u64);

impl Ts {
    /// The experiment epoch.
    pub const ZERO: Ts = Ts(0);

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Ts {
        Ts(s * MICROS_PER_SEC)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Ts {
        Ts(ms * 1_000)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Ts {
        Ts(us)
    }

    /// From whole days since the epoch.
    pub const fn from_days(d: u64) -> Ts {
        Ts(d * MICROS_PER_DAY)
    }

    /// Microseconds since the epoch.
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Fractional-second remainder in microseconds.
    pub(crate) const fn subsec_micros(self) -> u32 {
        (self.0 % MICROS_PER_SEC) as u32
    }

    /// Index of the day this timestamp falls in (day 0 starts at the epoch).
    pub const fn day(self) -> u64 {
        self.0 / MICROS_PER_DAY
    }

    /// Seconds elapsed within the current day.
    pub const fn second_of_day(self) -> u64 {
        (self.0 % MICROS_PER_DAY) / MICROS_PER_SEC
    }

    /// Saturating difference `self - earlier` as a [`Dur`].
    pub fn since(self, earlier: Ts) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}+{:05}.{:06}s", self.day(), self.second_of_day(), self.subsec_micros())
    }
}

/// A span of time with microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * MICROS_PER_SEC)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000)
    }

    /// From microseconds (the native unit).
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Dur {
        Dur(m * 60 * MICROS_PER_SEC)
    }

    /// The duration in microseconds.
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// The duration in whole seconds, truncating.
    pub const fn secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }
}

impl Add<Dur> for Ts {
    type Output = Ts;
    fn add(self, rhs: Dur) -> Ts {
        Ts(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Ts {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Ts> for Ts {
    type Output = Dur;
    fn sub(self, rhs: Ts) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_arithmetic() {
        let t = Ts::from_days(3) + Dur::from_secs(7);
        assert_eq!(t.day(), 3);
        assert_eq!(t.second_of_day(), 7);
    }

    #[test]
    fn subtraction_saturates() {
        let a = Ts::from_secs(5);
        let b = Ts::from_secs(9);
        assert_eq!(b - a, Dur::from_secs(4));
        assert_eq!(a - b, Dur::ZERO);
    }

    #[test]
    fn display_format() {
        let t = Ts::from_days(1) + Dur::from_micros(1_500_000);
        assert_eq!(t.to_string(), "d1+00001.500000s");
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Ts::from_secs(10).secs(), 10);
        assert_eq!(Dur::from_mins(10).secs(), 600);
        assert_eq!(Ts::from_millis(1500).subsec_micros(), 500_000);
    }
}
