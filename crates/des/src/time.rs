//! Simulated time.
//!
//! All simulation arithmetic happens on [`SimTime`] (an absolute instant) and
//! [`SimDur`] (a span), both integer nanosecond counts. Using integers keeps
//! the simulation deterministic across platforms and immune to floating-point
//! accumulation drift over the millions of events a long run produces; model
//! code converts to `f64` seconds only at the cost-model boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    /// Negative inputs clamp to zero (model costs are never negative).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_ns(s))
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The instant as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Span since an earlier instant; saturates at zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDur {
    /// A zero-length span.
    pub const ZERO: SimDur = SimDur(0);

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDur(secs_to_ns(s))
    }

    /// Construct from fractional microseconds.
    pub fn from_micros_f64(us: f64) -> Self {
        SimDur(secs_to_ns(us / 1e6))
    }

    /// Construct from whole nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }
}

/// Nanoseconds in `s` seconds, rounded to the nearest; non-positive and
/// non-finite inputs clamp to zero.
fn secs_to_ns(s: f64) -> u64 {
    if s <= 0.0 || !s.is_finite() {
        0
    } else {
        round_ns(s * 1e9)
    }
}

/// 2^52: below it an `f64`'s fractional part is representable and every
/// integer converts to `f64` exactly.
const EXACT_SPLIT_BELOW: f64 = 4_503_599_627_370_496.0;

/// `x.round() as u64` for `x >= 0`: half away from zero, saturating at
/// `u64::MAX`. Model costs are tiny fractions of a second, so `x` sits far
/// below 2^52 and splits exactly: `t = x as i64` converts back to `f64`
/// without error, and `x - t` is the exact fraction. That keeps
/// `f64::round`, a software routine on the baseline x86-64 target, off the
/// simulator's per-event path; larger `x` still take it.
fn round_ns(x: f64) -> u64 {
    if x < EXACT_SPLIT_BELOW {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        self.since(rhs)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        SimDur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimDur::from_secs_f64(-1.0), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NAN), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NEG_INFINITY), SimDur::ZERO);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.since(b), SimDur::ZERO);
        assert_eq!(b.since(a), SimDur::from_secs_f64(1.0));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDur::from_micros_f64(2.0);
        assert_eq!(t.0, 1_000_002_000);
        let d = t - SimTime::from_secs(1);
        assert_eq!(d.as_micros_f64(), 2.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDur(500)), "500ns");
        assert_eq!(format!("{}", SimDur(2_500)), "2.50us");
        assert_eq!(format!("{}", SimDur(3_000_000)), "3.000ms");
        assert_eq!(format!("{}", SimDur(4_000_000_000)), "4.000s");
    }

    /// `secs_to_ns` as it was with `f64::round`: the reference the exact
    /// split must match on every input.
    fn round_reference(s: f64) -> u64 {
        if s <= 0.0 || !s.is_finite() {
            0
        } else {
            (s * 1e9).round() as u64
        }
    }

    /// `x` and the `n` doubles on either side of it, for `x >= 0`.
    fn neighbours(x: f64, n: u64) -> impl Iterator<Item = f64> {
        let b = x.to_bits();
        (b.saturating_sub(n)..=b + n).map(f64::from_bits)
    }

    #[test]
    fn exact_split_rounds_half_nanoseconds_like_round() {
        let two51 = (1u64 << 51) as f64;
        let two52 = EXACT_SPLIT_BELOW;
        let halves = (0..10_000u32)
            .map(|k| f64::from(k) + 0.5)
            .chain((0..1_000u32).flat_map(|k| {
                let k = f64::from(k);
                [two51 - k - 0.5, two51 + k + 0.5, two52 - k - 0.5]
            }));
        for h in halves {
            assert_eq!(h.fract(), 0.5, "{h} is not a half nanosecond");
            for x in neighbours(h, 1) {
                assert_eq!(round_ns(x), x.round() as u64, "x = {x:?}");
            }
            // The same instants reached through seconds, whose product
            // lands on or beside the half.
            for s in neighbours(h / 1e9, 2) {
                assert_eq!(secs_to_ns(s), round_reference(s), "s = {s:e}");
            }
        }
    }

    #[test]
    fn exact_split_matches_round_at_its_bound_and_beyond() {
        let two = |e: i32| 2f64.powi(e);
        let mut xs: Vec<f64> = [two(52), two(53), two(63), two(64)]
            .into_iter()
            .flat_map(|x| neighbours(x, 64))
            .collect();
        xs.extend([two(65), 1e30, f64::MAX]);
        for x in xs {
            assert_eq!(round_ns(x), x.round() as u64, "x = {x:?}");
            for s in [x, x / 1e9] {
                assert_eq!(secs_to_ns(s), round_reference(s), "s = {s:e}");
            }
        }
        assert_eq!(round_ns(two(64)), u64::MAX);
        assert_eq!(secs_to_ns(f64::MAX), u64::MAX);
    }

    #[test]
    fn exact_split_matches_round_on_special_and_random_seconds() {
        let sub = f64::from_bits(1);
        for s in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.0,
            0.0,
            sub,
            -sub,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(secs_to_ns(s), round_reference(s), "s = {s:e}");
        }
        let mut rng = crate::rng::DetRng::new(0xD35_0005, 0);
        for _ in 0..1_000_000 {
            let s = rng.uniform() * 1e7;
            assert_eq!(secs_to_ns(s), round_reference(s), "s = {s:e}");
        }
    }
}
