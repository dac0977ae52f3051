//! Spatial quantity: distance.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

/// A distance, stored internally in meters.
///
/// Used by the deployment and path-loss models in `wsn-channel`.
///
/// # Examples
///
/// ```
/// use wsn_units::Meters;
///
/// let d = Meters::new(12.5);
/// assert_eq!(d * 2.0, Meters::new(25.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Meters(f64);

impl Meters {
    /// Zero distance.
    pub const ZERO: Meters = Meters(0.0);

    /// Creates a distance from meters.
    #[inline]
    pub const fn new(m: f64) -> Self {
        Meters(m)
    }

    /// Returns the value in meters.
    #[inline]
    pub const fn meters(self) -> f64 {
        self.0
    }

    /// Returns the value in kilometers.
    #[inline]
    pub fn kilometers(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the smaller of two distances.
    #[inline]
    pub fn min(self, other: Meters) -> Meters {
        Meters(self.0.min(other.0))
    }

    /// Returns the larger of two distances.
    #[inline]
    pub fn max(self, other: Meters) -> Meters {
        Meters(self.0.max(other.0))
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} m", self.0)
    }
}

impl Add for Meters {
    type Output = Meters;
    #[inline]
    fn add(self, rhs: Meters) -> Meters {
        Meters(self.0 + rhs.0)
    }
}

impl Sub for Meters {
    type Output = Meters;
    #[inline]
    fn sub(self, rhs: Meters) -> Meters {
        Meters(self.0 - rhs.0)
    }
}

impl Mul<f64> for Meters {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: f64) -> Meters {
        Meters(self.0 * rhs)
    }
}

impl Div<f64> for Meters {
    type Output = Meters;
    #[inline]
    fn div(self, rhs: f64) -> Meters {
        Meters(self.0 / rhs)
    }
}

impl Div<Meters> for Meters {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Meters) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let d = Meters::new(1500.0);
        assert_eq!(d.meters(), 1500.0);
        assert!((d.kilometers() - 1.5).abs() < 1e-12);
        assert_eq!(Meters::new(1.0) + Meters::new(2.0), Meters::new(3.0));
        assert_eq!(Meters::new(5.0) - Meters::new(2.0), Meters::new(3.0));
        assert_eq!(Meters::new(5.0) * 2.0, Meters::new(10.0));
        assert_eq!(Meters::new(5.0) / 2.0, Meters::new(2.5));
        assert_eq!(Meters::new(6.0) / Meters::new(2.0), 3.0);
        assert_eq!(Meters::new(6.0).min(Meters::new(2.0)), Meters::new(2.0));
        assert_eq!(Meters::new(6.0).max(Meters::new(2.0)), Meters::new(6.0));
        assert_eq!(format!("{}", Meters::new(12.5)), "12.500 m");
    }
}
