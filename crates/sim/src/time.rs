//! Virtual time: microsecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scale by an integer factor.
    pub const fn times(self, k: u64) -> Self {
        SimDuration(self.0 * k)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

/// An instant of virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference between two instants.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:?}", SimDuration(self.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::millis(2);
        assert_eq!(t.as_micros(), 2_000);
        let t2 = t + SimDuration::micros(500);
        assert_eq!(t2 - t, SimDuration::micros(500));
        assert_eq!(t - t2, SimDuration::ZERO, "saturating");
        assert_eq!(SimDuration::secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn conversions_and_format() {
        assert_eq!(SimDuration::millis(1).as_millis_f64(), 1.0);
        assert_eq!(format!("{:?}", SimDuration::micros(10)), "10us");
        assert_eq!(format!("{:?}", SimDuration::millis(50)), "50.000ms");
        assert_eq!(format!("{:?}", SimDuration::secs(2)), "2.000s");
        assert_eq!(SimDuration::micros(150).times(4), SimDuration::micros(600));
    }

    #[test]
    fn max_and_ordering() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(a.max(b), b);
        assert!(a < b);
    }
}
