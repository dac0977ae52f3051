//! Linear power quantity.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::{DBm, Energy, Seconds};

/// A power quantity, stored internally in watts.
///
/// `Power` is the linear-domain counterpart of [`DBm`]. It supports the
/// dimensional arithmetic used throughout the energy model:
/// `Power × Seconds = Energy` and scalar scaling.
///
/// # Examples
///
/// ```
/// use wsn_units::{Power, Seconds};
///
/// let idle = Power::from_microwatts(712.0);
/// let energy = idle * Seconds::from_millis(1.0);
/// assert!((energy.nanojoules() - 712.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    #[inline]
    pub const fn from_watts(watts: f64) -> Self {
        Power(watts)
    }

    /// Creates a power from milliwatts.
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    #[inline]
    pub fn from_microwatts(uw: f64) -> Self {
        Power(uw * 1e-6)
    }

    /// Creates a power from nanowatts.
    #[inline]
    pub fn from_nanowatts(nw: f64) -> Self {
        Power(nw * 1e-9)
    }

    /// Returns the value in watts.
    #[inline]
    pub const fn watts(self) -> f64 {
        self.0
    }

    /// Returns the value in milliwatts.
    #[inline]
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microwatts.
    #[inline]
    pub fn microwatts(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in nanowatts.
    #[inline]
    pub fn nanowatts(self) -> f64 {
        self.0 * 1e9
    }

    /// Converts to the logarithmic domain.
    ///
    /// # Panics
    ///
    /// Panics if the power is not strictly positive (the logarithm of a
    /// non-positive power is undefined).
    #[inline]
    pub fn to_dbm(self) -> DBm {
        assert!(
            self.0 > 0.0,
            "cannot express non-positive power {} W in dBm",
            self.0
        );
        DBm::new(10.0 * (self.0 * 1e3).log10())
    }

    /// Returns `true` if the value is finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the smaller of two powers.
    #[inline]
    pub fn min(self, other: Power) -> Power {
        Power(self.0.min(other.0))
    }

    /// Returns the larger of two powers.
    #[inline]
    pub fn max(self, other: Power) -> Power {
        Power(self.0.max(other.0))
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0.abs();
        if w >= 1.0 {
            write!(f, "{:.4} W", self.0)
        } else if w >= 1e-3 {
            write!(f, "{:.4} mW", self.0 * 1e3)
        } else if w >= 1e-6 {
            write!(f, "{:.4} µW", self.0 * 1e6)
        } else {
            write!(f, "{:.4} nW", self.0 * 1e9)
        }
    }
}

impl Add for Power {
    type Output = Power;
    #[inline]
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    #[inline]
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    #[inline]
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl SubAssign for Power {
    #[inline]
    fn sub_assign(&mut self, rhs: Power) {
        self.0 -= rhs.0;
    }
}

impl Neg for Power {
    type Output = Power;
    #[inline]
    fn neg(self) -> Power {
        Power(-self.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Power> for f64 {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Power) -> Power {
        Power(self * rhs.0)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    #[inline]
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Div<Power> for Power {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Power) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<Seconds> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Seconds) -> Energy {
        Energy::from_joules(self.0 * rhs.secs())
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_scaling_roundtrips() {
        let p = Power::from_microwatts(712.0);
        assert!((p.watts() - 712e-6).abs() < 1e-15);
        assert!((p.milliwatts() - 0.712).abs() < 1e-12);
        assert!((p.nanowatts() - 712_000.0).abs() < 1e-6);
    }

    #[test]
    fn dbm_conversion_matches_reference_points() {
        // 1 mW == 0 dBm by definition.
        assert!((Power::from_milliwatts(1.0).to_dbm().dbm() - 0.0).abs() < 1e-12);
        // 35.28 mW (CC2420 RX) is about +15.47 dBm.
        let rx = Power::from_milliwatts(35.28);
        assert!((rx.to_dbm().dbm() - 15.475).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "cannot express non-positive power")]
    fn dbm_of_zero_power_panics() {
        let _ = Power::ZERO.to_dbm();
    }

    #[test]
    fn arithmetic_is_linear() {
        let a = Power::from_milliwatts(2.0);
        let b = Power::from_milliwatts(3.0);
        assert_eq!((a + b).milliwatts().round(), 5.0);
        assert_eq!((b - a).milliwatts().round(), 1.0);
        assert_eq!((a * 2.0).milliwatts().round(), 4.0);
        assert_eq!((2.0 * a).milliwatts().round(), 4.0);
        assert_eq!((b / 3.0).milliwatts().round(), 1.0);
        assert!((b / a - 1.5).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_milliwatts(35.28) * Seconds::from_micros(194.0);
        assert!((e.microjoules() - 6.84432).abs() < 1e-9);
    }

    #[test]
    fn sum_accumulates() {
        let total: Power = (1..=4).map(|i| Power::from_milliwatts(i as f64)).sum();
        assert!((total.milliwatts() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Power::from_watts(1.5)), "1.5000 W");
        assert_eq!(format!("{}", Power::from_milliwatts(35.28)), "35.2800 mW");
        assert_eq!(format!("{}", Power::from_microwatts(712.0)), "712.0000 µW");
        assert_eq!(format!("{}", Power::from_nanowatts(144.0)), "144.0000 nW");
    }

    #[test]
    fn min_max() {
        let a = Power::from_watts(1.0);
        let b = Power::from_watts(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
