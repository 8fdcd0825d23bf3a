//! Virtual time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
pub use hlock_core::Duration;

/// A point in virtual time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// This time expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Raw microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        let t2 = t + Duration::from_millis(5);
        assert_eq!(t2, SimTime(15_000));
        assert_eq!(t2 - t, Duration(5_000));
        assert_eq!(t - t2, Duration::ZERO, "saturating");
        let mut t3 = t;
        t3 += Duration(1);
        assert_eq!(t3.as_micros(), 10_001);
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(Duration::from_millis_f64(-3.0), Duration::ZERO);
        assert!((SimTime(2_500).as_millis_f64() - 2.5).abs() < 1e-9);
        assert_eq!(Duration::from_millis(2) + Duration(500), Duration(2_500));
    }
}
