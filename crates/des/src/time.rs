//! Simulation time.
//!
//! Time is kept as `f64` seconds wrapped in newtypes so that wall-clock and
//! simulated durations cannot be confused, and so that ordering is total
//! (NaN is rejected at construction).
//!
//! The leaves the event heap and the model handlers call on every event
//! carry `#[inline]`: their NaN `assert`/`expect` keeps rustc from
//! inlining them across crates on its own, and nothing here builds with
//! LTO, so without the attribute every heap sift step is a call.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulation clock, in seconds since the start of the run.
///
/// `SimTime` is totally ordered; constructing a NaN time panics, which keeps
/// the event queue's ordering invariant sound.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Always finite; may be zero.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than any reachable event; useful as a horizon sentinel.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Builds a time from seconds. Panics on NaN (negative times are allowed
    /// so that warm-up offsets can be expressed, but are unusual).
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime must not be NaN");
        SimTime(secs)
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            self.0 >= earlier.0,
            "since() called with a later time: {} < {}",
            self.0,
            earlier.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Builds a duration from seconds. Panics on NaN or negative input.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0, "SimDuration must be non-negative, got {secs}");
        SimDuration(secs)
    }

    /// Builds a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Builds a duration from days.
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * 86_400.0)
    }

    /// Builds a duration from years (365 days).
    pub fn from_years(years: f64) -> Self {
        Self::from_secs(years * 365.0 * 86_400.0)
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Length in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Length in days.
    pub fn as_days(self) -> f64 {
        self.0 / 86_400.0
    }

    /// True if the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Sound because NaN is rejected at construction.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Eq for SimDuration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
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

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 86_400.0 {
            write!(f, "{:.3}d", self.as_days())
        } else if self.0 >= 3600.0 {
            write!(f, "{:.3}h", self.as_hours())
        } else {
            write!(f, "{:.6}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.since(a), SimDuration::from_secs(1.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_hours(1.0).as_secs(), 3600.0);
        assert_eq!(SimDuration::from_days(2.0).as_hours(), 48.0);
        assert_eq!(SimDuration::from_years(1.0).as_days(), 365.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(5.0);
        assert_eq!(t.as_secs(), 5.0);
        let d = SimDuration::from_secs(10.0) * 0.5;
        assert_eq!(d.as_secs(), 5.0);
        assert_eq!(
            SimDuration::from_secs(10.0) / SimDuration::from_secs(4.0),
            2.5
        );
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_secs(3.0);
        assert_eq!(t2.as_secs(), 3.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(10.0)), "10.000000s");
        assert_eq!(format!("{}", SimDuration::from_hours(2.0)), "2.000h");
        assert_eq!(format!("{}", SimDuration::from_days(3.0)), "3.000d");
    }
}
