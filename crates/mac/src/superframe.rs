//! Superframe structure of the beacon-enabled mode.
//!
//! The inter-beacon period is `T_ib = aBaseSuperframeDuration × 2^BO` (the
//! paper's eq. 12) and the active superframe spans
//! `SD = aBaseSuperframeDuration × 2^SO ≤ T_ib`, divided into 16 slots. The
//! head of the active period is the contention access period (CAP); up to
//! seven tail slots may be reserved as guaranteed time slots (the CFP).

use core::fmt;

use wsn_units::Seconds;

use crate::timing::{base_superframe_duration, NUM_SUPERFRAME_SLOTS};

/// Error for out-of-range superframe parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperframeError {
    /// Beacon order outside `0..=14`.
    BeaconOrderRange(u8),
    /// Superframe order outside `0..=14`.
    SuperframeOrderRange(u8),
    /// `SO > BO` is not allowed by the standard.
    OrderMismatch {
        /// Offending superframe order.
        so: u8,
        /// Beacon order it exceeds.
        bo: u8,
    },
    /// More than 7 GTS slots, or GTS exceeding the active period.
    GtsOverflow(u8),
}

impl fmt::Display for SuperframeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperframeError::BeaconOrderRange(v) => {
                write!(f, "beacon order {v} outside 0..=14")
            }
            SuperframeError::SuperframeOrderRange(v) => {
                write!(f, "superframe order {v} outside 0..=14")
            }
            SuperframeError::OrderMismatch { so, bo } => {
                write!(f, "superframe order {so} exceeds beacon order {bo}")
            }
            SuperframeError::GtsOverflow(n) => {
                write!(f, "{n} GTS slots exceed the 7-slot CFP limit")
            }
        }
    }
}

impl std::error::Error for SuperframeError {}

/// Beacon order `BO ∈ 0..=14`: the inter-beacon period is
/// `15.36 ms × 2^BO`.
///
/// # Examples
///
/// ```
/// use wsn_mac::BeaconOrder;
///
/// // The paper's case study: BO = 6 ⇒ 983.04 ms between beacons.
/// let bo = BeaconOrder::new(6)?;
/// assert!((bo.beacon_interval().millis() - 983.04).abs() < 1e-9);
/// # Ok::<(), wsn_mac::superframe::SuperframeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BeaconOrder(u8);

impl BeaconOrder {
    /// Creates a beacon order.
    ///
    /// # Errors
    ///
    /// Returns [`SuperframeError::BeaconOrderRange`] for values above 14
    /// (15 disables beaconing and is not valid in beacon mode).
    pub fn new(bo: u8) -> Result<Self, SuperframeError> {
        if bo <= 14 {
            Ok(BeaconOrder(bo))
        } else {
            Err(SuperframeError::BeaconOrderRange(bo))
        }
    }

    /// The raw order.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Inter-beacon period `T_ib = 15.36 ms × 2^BO` (paper eq. 12).
    pub fn beacon_interval(self) -> Seconds {
        base_superframe_duration() * (1u64 << self.0) as f64
    }

    /// The smallest beacon order whose interval is at least `t`, if any —
    /// how a network planner picks `BO` from a traffic requirement.
    pub fn smallest_covering(t: Seconds) -> Option<BeaconOrder> {
        (0..=14u8)
            .map(BeaconOrder)
            .find(|bo| bo.beacon_interval() >= t)
    }
}

impl fmt::Display for BeaconOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BO{}", self.0)
    }
}

/// Superframe order `SO ∈ 0..=14`: the active portion spans
/// `15.36 ms × 2^SO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SuperframeOrder(u8);

impl SuperframeOrder {
    /// Creates a superframe order.
    ///
    /// # Errors
    ///
    /// Returns [`SuperframeError::SuperframeOrderRange`] for values above
    /// 14.
    pub fn new(so: u8) -> Result<Self, SuperframeError> {
        if so <= 14 {
            Ok(SuperframeOrder(so))
        } else {
            Err(SuperframeError::SuperframeOrderRange(so))
        }
    }

    /// The raw order.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Active superframe duration `SD = 15.36 ms × 2^SO`.
    pub fn superframe_duration(self) -> Seconds {
        base_superframe_duration() * (1u64 << self.0) as f64
    }
}

impl fmt::Display for SuperframeOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SO{}", self.0)
    }
}

/// A validated beacon-mode superframe configuration.
///
/// # Examples
///
/// ```
/// use wsn_mac::SuperframeConfig;
///
/// // Fully active superframe at the paper's BO = 6.
/// let sf = SuperframeConfig::fully_active(6)?;
/// assert!((sf.slot_duration().millis() - 61.44).abs() < 1e-9);
/// assert_eq!(sf.duty_cycle(), 1.0);
///
/// // BO 6 / SO 2: radio may sleep 15/16 of the time.
/// let sparse = SuperframeConfig::new(6, 2, 0)?;
/// assert!((sparse.duty_cycle() - 1.0 / 16.0).abs() < 1e-12);
/// # Ok::<(), wsn_mac::superframe::SuperframeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperframeConfig {
    bo: BeaconOrder,
    so: SuperframeOrder,
    gts_slots: u8,
}

impl SuperframeConfig {
    /// Creates a configuration with `gts_slots` tail slots reserved for the
    /// contention-free period.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range orders, `SO > BO`, and more than 7 GTS slots.
    pub fn new(bo: u8, so: u8, gts_slots: u8) -> Result<Self, SuperframeError> {
        let bo = BeaconOrder::new(bo)?;
        let so = SuperframeOrder::new(so)?;
        if so.value() > bo.value() {
            return Err(SuperframeError::OrderMismatch {
                so: so.value(),
                bo: bo.value(),
            });
        }
        if gts_slots > 7 {
            return Err(SuperframeError::GtsOverflow(gts_slots));
        }
        Ok(SuperframeConfig { bo, so, gts_slots })
    }

    /// An always-active configuration (`SO = BO`) with no GTS — the paper's
    /// contention-only setup.
    pub fn fully_active(bo: u8) -> Result<Self, SuperframeError> {
        SuperframeConfig::new(bo, bo, 0)
    }

    /// Beacon order.
    pub fn beacon_order(self) -> BeaconOrder {
        self.bo
    }

    /// Superframe order.
    pub fn superframe_order(self) -> SuperframeOrder {
        self.so
    }

    /// Number of GTS (contention-free) slots at the superframe tail.
    pub fn gts_slots(self) -> u8 {
        self.gts_slots
    }

    /// Inter-beacon period `T_ib`.
    pub fn beacon_interval(self) -> Seconds {
        self.bo.beacon_interval()
    }

    /// Active superframe duration `SD`.
    pub fn superframe_duration(self) -> Seconds {
        self.so.superframe_duration()
    }

    /// Duration of one of the 16 superframe slots.
    pub fn slot_duration(self) -> Seconds {
        self.superframe_duration() / NUM_SUPERFRAME_SLOTS as f64
    }

    /// Duration of the contention access period (active period minus GTS).
    pub fn cap_duration(self) -> Seconds {
        self.superframe_duration() - self.slot_duration() * self.gts_slots as f64
    }

    /// Fraction of the beacon interval that is active.
    pub fn duty_cycle(self) -> f64 {
        self.superframe_duration() / self.beacon_interval()
    }
}

impl fmt::Display for SuperframeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} gts={}", self.bo, self.so, self.gts_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_interval_doubles_per_order() {
        let mut prev = BeaconOrder::new(0).unwrap().beacon_interval();
        assert!((prev.millis() - 15.36).abs() < 1e-9);
        for bo in 1..=14u8 {
            let t = BeaconOrder::new(bo).unwrap().beacon_interval();
            assert!((t / prev - 2.0).abs() < 1e-12);
            prev = t;
        }
    }

    #[test]
    fn paper_case_study_bo6() {
        let bo = BeaconOrder::new(6).unwrap();
        assert!((bo.beacon_interval().millis() - 983.04).abs() < 1e-9);
    }

    #[test]
    fn orders_out_of_range_rejected() {
        assert!(BeaconOrder::new(15).is_err());
        assert!(SuperframeOrder::new(15).is_err());
        assert!(BeaconOrder::new(14).is_ok());
    }

    #[test]
    fn smallest_covering_finds_bo() {
        // 960 ms data cadence needs BO 6 (983.04 ms).
        let bo = BeaconOrder::smallest_covering(Seconds::from_millis(960.0)).unwrap();
        assert_eq!(bo.value(), 6);
        // An absurdly long interval is uncoverable.
        assert!(BeaconOrder::smallest_covering(Seconds::from_secs(1000.0)).is_none());
    }

    #[test]
    fn so_cannot_exceed_bo() {
        assert_eq!(
            SuperframeConfig::new(3, 5, 0),
            Err(SuperframeError::OrderMismatch { so: 5, bo: 3 })
        );
        assert!(SuperframeConfig::new(5, 5, 0).is_ok());
        assert!(SuperframeConfig::new(5, 3, 0).is_ok());
    }

    #[test]
    fn gts_limit_enforced() {
        assert!(SuperframeConfig::new(6, 6, 7).is_ok());
        assert_eq!(
            SuperframeConfig::new(6, 6, 8),
            Err(SuperframeError::GtsOverflow(8))
        );
    }

    #[test]
    fn cap_shrinks_with_gts() {
        let no_gts = SuperframeConfig::fully_active(6).unwrap();
        let with_gts = SuperframeConfig::new(6, 6, 4).unwrap();
        assert!(with_gts.cap_duration() < no_gts.cap_duration());
        let expected = no_gts.superframe_duration() * (12.0 / 16.0);
        assert!((with_gts.cap_duration().secs() - expected.secs()).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_sixteenth() {
        // The paper: beacon mode lets the transceiver sleep 15/16 of the
        // time while staying associated (BO − SO = 4 ⇒ 1/16 duty).
        let sf = SuperframeConfig::new(6, 2, 0).unwrap();
        assert!((sf.duty_cycle() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            SuperframeError::OrderMismatch { so: 5, bo: 3 }.to_string(),
            "superframe order 5 exceeds beacon order 3"
        );
    }
}
