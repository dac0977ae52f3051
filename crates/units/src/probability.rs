//! Validated probability newtype.

use core::fmt;
use core::ops::Mul;

/// Error returned when constructing a [`Probability`] from a value outside
/// `[0, 1]` or from a non-finite value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityError(f64);

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} is not a probability in [0, 1]", self.0)
    }
}

impl std::error::Error for ProbabilityError {}

/// A probability, guaranteed to lie in `[0, 1]`.
///
/// The analytical model of the paper composes many probabilities (bit error,
/// packet error, collision, channel-access failure, …); this newtype keeps
/// the compositions honest. Multiplication of two probabilities models the
/// joint probability of *independent* events — which is exactly the
/// independence assumption the paper's equations (9), (10) and (13) make.
///
/// # Examples
///
/// ```
/// use wsn_units::Probability;
///
/// let pr_col = Probability::new(0.1)?;
/// let pr_e = Probability::new(0.05)?;
/// // Paper eq. (9): Pr_tf = 1 − (1 − Pr_col)(1 − Pr_e)
/// let pr_tf = (pr_col.complement() * pr_e.complement()).complement();
/// assert!((pr_tf.value() - 0.145).abs() < 1e-12);
/// # Ok::<(), wsn_units::ProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

impl Probability {
    /// The impossible event.
    pub const ZERO: Probability = Probability(0.0);
    /// The certain event.
    pub const ONE: Probability = Probability(1.0);

    /// Creates a probability.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] if `p` is NaN, infinite, or outside
    /// `[0, 1]`.
    #[inline]
    pub fn new(p: f64) -> Result<Self, ProbabilityError> {
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(Probability(p))
        } else {
            Err(ProbabilityError(p))
        }
    }

    /// Creates a probability, clamping out-of-range finite values into
    /// `[0, 1]`.
    ///
    /// Useful at the boundary with floating-point formulas that may
    /// produce `1.0 + ε` through rounding.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    #[inline]
    pub fn clamped(p: f64) -> Self {
        assert!(!p.is_nan(), "probability must not be NaN");
        Probability(p.clamp(0.0, 1.0))
    }

    /// Returns the raw value in `[0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns `1 − p`, the probability of the complementary event.
    #[inline]
    pub fn complement(self) -> Probability {
        Probability(1.0 - self.0)
    }

    /// Returns `pⁿ`, the probability that `n` independent trials all succeed.
    #[inline]
    pub fn pow(self, n: u32) -> Probability {
        Probability(self.0.powi(n as i32))
    }

    /// Returns `pˣ` for a real-valued exponent `x ≥ 0`.
    ///
    /// Used by the packet-error formula `(1 − Pr_bit)^(8·(L−4))` when the
    /// exponent is computed rather than constant.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative (the result could exceed 1).
    #[inline]
    pub fn powf(self, x: f64) -> Probability {
        assert!(x >= 0.0, "exponent must be non-negative, got {x}");
        Probability(self.0.powf(x))
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl Mul for Probability {
    type Output = Probability;
    #[inline]
    fn mul(self, rhs: Probability) -> Probability {
        Probability(self.0 * rhs.0)
    }
}

impl From<Probability> for f64 {
    #[inline]
    fn from(p: Probability) -> f64 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_unit_interval() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(0.5).is_ok());
        assert!(Probability::new(1.0).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Probability::new(-0.1).is_err());
        assert!(Probability::new(1.1).is_err());
        assert!(Probability::new(f64::NAN).is_err());
        assert!(Probability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Probability::clamped(1.0 + 1e-12).value(), 1.0);
        assert_eq!(Probability::clamped(-1e-12).value(), 0.0);
        assert_eq!(Probability::clamped(0.3).value(), 0.3);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn clamped_rejects_nan() {
        let _ = Probability::clamped(f64::NAN);
    }

    #[test]
    fn complement_involution() {
        let p = Probability::new(0.37).unwrap();
        assert!((p.complement().complement().value() - 0.37).abs() < 1e-15);
    }

    #[test]
    fn independent_joint() {
        let p = Probability::new(0.5).unwrap() * Probability::new(0.5).unwrap();
        assert_eq!(p.value(), 0.25);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let p = Probability::new(0.9).unwrap();
        let three = p * p * p;
        assert!((p.pow(3).value() - three.value()).abs() < 1e-15);
        assert_eq!(p.pow(0).value(), 1.0);
    }

    #[test]
    fn powf_packet_error_formula() {
        // Pr_e = 1 − (1 − Pr_bit)^(8·(133−4)) at Pr_bit = 1e-4.
        let pr_bit = Probability::new(1e-4).unwrap();
        let pr_e = pr_bit.complement().powf(8.0 * 129.0).complement();
        assert!((pr_e.value() - 0.0981).abs() < 1e-3);
    }

    #[test]
    fn error_displays_value() {
        let err = Probability::new(1.5).unwrap_err();
        assert_eq!(err.to_string(), "value 1.5 is not a probability in [0, 1]");
    }
}
