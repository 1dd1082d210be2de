//! Exact integer virtual time.
//!
//! All performance accounting in `predpkt` uses integer picoseconds. The paper's
//! channel constants (12.2 µs startup, 49.95 / 75.73 ns per word) and clock rates
//! (100 kcycles/s … 10 Mcycles/s) are all exactly representable, so every derived
//! figure in the evaluation is reproducible bit-for-bit across hosts — no
//! floating-point accumulation order effects.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, stored as integer picoseconds.
///
/// `VirtualTime` is an additive quantity: it supports `+`, `-`, scaling by an
/// integer count, and summation over iterators. Use [`VirtualTime::as_secs_f64`]
/// only at the reporting boundary.
///
/// # Example
///
/// ```
/// use predpkt_sim::VirtualTime;
/// let startup = VirtualTime::from_nanos(12_200); // 12.2 us
/// let word = VirtualTime::from_picos(49_950);    // 49.95 ns
/// let access = startup + word * 64;
/// assert_eq!(access.as_picos(), 12_200_000 + 64 * 49_950);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

impl VirtualTime {
    /// The zero span.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Creates a span from integer picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        VirtualTime(ps)
    }

    /// Creates a span from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VirtualTime(ns * 1_000)
    }

    /// Creates a span from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        VirtualTime(us * 1_000_000)
    }

    /// Creates a span from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VirtualTime(ms * 1_000_000_000)
    }

    /// Creates a span from seconds, rounding to the nearest picosecond.
    ///
    /// Intended for configuration input (e.g. "0.03 ns per variable"), not for
    /// accumulation.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "negative or non-finite time"
        );
        VirtualTime((secs * 1e12).round() as u64)
    }

    /// The span in integer picoseconds.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// The span in seconds as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow (≈ 213 days of virtual time).
    pub fn checked_add(self, rhs: VirtualTime) -> Option<VirtualTime> {
        self.0.checked_add(rhs.0).map(VirtualTime)
    }
}

// One word: the picoseconds.
crate::declare_state! { impl VirtualTime { 0 } }

impl Add for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;
    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 - rhs.0)
    }
}

impl SubAssign for VirtualTime {
    fn sub_assign(&mut self, rhs: VirtualTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for VirtualTime {
    type Output = VirtualTime;
    fn mul(self, rhs: u64) -> VirtualTime {
        VirtualTime(self.0 * rhs)
    }
}

impl Div<u64> for VirtualTime {
    type Output = VirtualTime;
    fn div(self, rhs: u64) -> VirtualTime {
        VirtualTime(self.0 / rhs)
    }
}

impl Sum for VirtualTime {
    fn sum<I: Iterator<Item = VirtualTime>>(iter: I) -> VirtualTime {
        iter.fold(VirtualTime::ZERO, Add::add)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

/// A count of clock cycles in one clock domain.
pub type CycleCount = u64;

/// A clock rate, stored as integer cycles per second.
///
/// The paper quotes simulator speeds in kcycles/s and accelerator speeds in
/// Mcycles/s; both constructors are provided. [`Frequency::cycle_time`] returns
/// the per-cycle [`VirtualTime`], rounding to the nearest picosecond (exact for
/// every rate used in the evaluation).
///
/// # Example
///
/// ```
/// use predpkt_sim::Frequency;
/// let acc = Frequency::from_mcycles_per_sec(10);
/// assert_eq!(acc.cycle_time().as_picos(), 100_000); // 100 ns
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    cycles_per_sec: u64,
}

impl Frequency {
    /// Creates a rate from cycles per second.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_sec` is zero.
    pub fn from_cycles_per_sec(cycles_per_sec: u64) -> Self {
        assert!(cycles_per_sec > 0, "frequency must be non-zero");
        Frequency { cycles_per_sec }
    }

    /// Creates a rate from kilocycles per second (the paper's simulator unit).
    pub fn from_kcycles_per_sec(kcycles: u64) -> Self {
        Self::from_cycles_per_sec(kcycles * 1_000)
    }

    /// Creates a rate from megacycles per second (the paper's accelerator unit).
    pub fn from_mcycles_per_sec(mcycles: u64) -> Self {
        Self::from_cycles_per_sec(mcycles * 1_000_000)
    }

    /// The rate in cycles per second.
    pub const fn cycles_per_sec(self) -> u64 {
        self.cycles_per_sec
    }

    /// The virtual time one cycle takes, rounded to the nearest picosecond.
    pub fn cycle_time(self) -> VirtualTime {
        // 1e12 ps / (cycles/s), rounded half-up.
        VirtualTime::from_picos((1_000_000_000_000 + self.cycles_per_sec / 2) / self.cycles_per_sec)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.cycles_per_sec;
        if c % 1_000_000 == 0 {
            write!(f, "{}Mcycles/s", c / 1_000_000)
        } else if c % 1_000 == 0 {
            write!(f, "{}kcycles/s", c / 1_000)
        } else {
            write!(f, "{c}cycles/s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(VirtualTime::from_nanos(1), VirtualTime::from_picos(1_000));
        assert_eq!(VirtualTime::from_micros(1), VirtualTime::from_nanos(1_000));
        assert_eq!(VirtualTime::from_millis(1), VirtualTime::from_micros(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = VirtualTime::from_nanos(10);
        let b = VirtualTime::from_nanos(3);
        assert_eq!((a + b).as_picos(), 13_000);
        assert_eq!((a - b).as_picos(), 7_000);
        assert_eq!((a * 4).as_picos(), 40_000);
        assert_eq!((a / 2).as_picos(), 5_000);
        let mut c = a;
        c += b;
        assert_eq!(c.as_picos(), 13_000);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = VirtualTime::from_nanos(1);
        let b = VirtualTime::from_nanos(2);
        assert_eq!(a.saturating_sub(b), VirtualTime::ZERO);
        assert_eq!(b.saturating_sub(a), VirtualTime::from_nanos(1));
    }

    #[test]
    fn sum_over_iterator() {
        let total: VirtualTime = (1..=4).map(VirtualTime::from_nanos).sum();
        assert_eq!(total, VirtualTime::from_nanos(10));
    }

    #[test]
    fn from_secs_f64_rounds() {
        // 0.03 ns = 30 ps: the accelerator per-variable snapshot cost.
        assert_eq!(VirtualTime::from_secs_f64(0.03e-9).as_picos(), 30);
        assert_eq!(VirtualTime::from_secs_f64(0.0), VirtualTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "negative or non-finite")]
    fn from_secs_f64_rejects_negative() {
        let _ = VirtualTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(VirtualTime::ZERO.to_string(), "0s");
        assert_eq!(VirtualTime::from_picos(5).to_string(), "5ps");
        assert_eq!(VirtualTime::from_nanos(12).to_string(), "12.000ns");
        assert_eq!(VirtualTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(VirtualTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(VirtualTime::from_millis(3_000).to_string(), "3.000s");
    }

    #[test]
    fn paper_channel_constants_are_exact() {
        // 12.2 us startup, 49.95 ns and 75.73 ns per word.
        assert_eq!(VirtualTime::from_nanos(12_200).as_picos(), 12_200_000);
        assert_eq!(VirtualTime::from_picos(49_950).as_secs_f64(), 49.95e-9);
        assert_eq!(VirtualTime::from_picos(75_730).as_secs_f64(), 75.73e-9);
    }

    #[test]
    fn paper_frequencies_are_exact() {
        assert_eq!(
            Frequency::from_kcycles_per_sec(100).cycle_time(),
            VirtualTime::from_micros(10)
        );
        assert_eq!(
            Frequency::from_kcycles_per_sec(1_000).cycle_time(),
            VirtualTime::from_micros(1)
        );
        assert_eq!(
            Frequency::from_mcycles_per_sec(10).cycle_time(),
            VirtualTime::from_nanos(100)
        );
    }

    #[test]
    fn frequency_display() {
        assert_eq!(
            Frequency::from_mcycles_per_sec(10).to_string(),
            "10Mcycles/s"
        );
        assert_eq!(
            Frequency::from_kcycles_per_sec(100).to_string(),
            "100kcycles/s"
        );
        assert_eq!(Frequency::from_cycles_per_sec(7).to_string(), "7cycles/s");
    }

    #[test]
    fn cycle_time_rounds_to_nearest() {
        // 3 cycles/s -> 333,333,333,333.33 ps, rounds to ...333 ps.
        assert_eq!(
            Frequency::from_cycles_per_sec(3).cycle_time().as_picos(),
            333_333_333_333
        );
        // 7 cycles/s -> 142,857,142,857.14 -> rounds down.
        assert_eq!(
            Frequency::from_cycles_per_sec(7).cycle_time().as_picos(),
            142_857_142_857
        );
    }

    #[test]
    #[should_panic(expected = "frequency must be non-zero")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_cycles_per_sec(0);
    }
}
