//! Virtual time used by the protocols and the discrete-event simulator.
//!
//! DataFlasks protocols are driven by periodic timers (peer-sampling shuffle,
//! slicing gossip, anti-entropy) and never read a wall clock directly: the
//! environment — simulator or worker-pool runtime — passes the current time into
//! every event handler. This keeps protocol code deterministic and makes the
//! simulated experiments reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in milliseconds.
///
/// # Example
///
/// ```
/// use dataflasks_types::Duration;
///
/// let period = Duration::from_secs(2);
/// assert_eq!(period.as_millis(), 2_000);
/// assert_eq!(period * 3, Duration::from_millis(6_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Self = Self(0);

    /// Creates a duration from a number of milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis)
    }

    /// Creates a duration from a number of seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000)
    }

    /// Returns the duration in milliseconds.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the duration in (truncated) whole seconds.
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating subtraction of two durations.
    #[must_use]
    pub const fn saturating_sub(self, other: Self) -> Self {
        Self(self.0.saturating_sub(other.0))
    }
}

impl Add for Duration {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl std::ops::Mul<u64> for Duration {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl std::ops::Div<u64> for Duration {
    type Output = Self;
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A point in virtual time, measured in milliseconds since the start of the
/// experiment.
///
/// # Example
///
/// ```
/// use dataflasks_types::{Duration, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + Duration::from_secs(1);
/// assert!(later > start);
/// assert_eq!(later - start, Duration::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: Self = Self(0);

    /// Creates a time point from milliseconds since the origin.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis)
    }

    /// Milliseconds elapsed since the origin.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the time elapsed since `earlier`, or [`Duration::ZERO`] if
    /// `earlier` is in the future.
    #[must_use]
    pub const fn saturating_since(self, earlier: Self) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = Self;
    fn add(self, rhs: Duration) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, rhs: Self) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(3), Duration::from_millis(3_000));
        assert_eq!(Duration::from_secs(3).as_secs(), 3);
        assert_eq!(Duration::ZERO.as_millis(), 0);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(100) + Duration::from_millis(50);
        assert_eq!(d.as_millis(), 150);
        assert_eq!((d * 2).as_millis(), 300);
        assert_eq!((d / 3).as_millis(), 50);
        assert_eq!(
            Duration::from_millis(10).saturating_sub(Duration::from_millis(20)),
            Duration::ZERO
        );
    }

    #[test]
    fn sim_time_advances_and_subtracts() {
        let mut t = SimTime::ZERO;
        t += Duration::from_millis(250);
        assert_eq!(t.as_millis(), 250);
        let later = t + Duration::from_millis(750);
        assert_eq!(later - t, Duration::from_millis(750));
        assert_eq!(t.saturating_since(later), Duration::ZERO);
        assert_eq!(later.saturating_since(t), Duration::from_millis(750));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::from_millis(42).to_string(), "42ms");
        assert_eq!(SimTime::from_millis(42).to_string(), "t=42ms");
    }

    #[test]
    fn ordering_follows_the_timeline() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
    }
}
