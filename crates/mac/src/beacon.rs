//! Beacon payload wire format: superframe specification, GTS fields and
//! pending-address fields.
//!
//! The beacon is the heartbeat of the paper's activation policy — every
//! node wakes for it once per `T_ib`. This module provides the payload the
//! coordinator serializes into a [`wsn_phy::frame::MacFrame::beacon`] and
//! nodes parse to learn the superframe timing and pending downlink traffic.

use core::fmt;

use crate::superframe::{SuperframeConfig, SuperframeError};

/// Error raised when parsing a beacon payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeaconParseError {
    /// Payload ended early.
    Truncated,
    /// Superframe specification carried invalid orders.
    BadSuperframe(SuperframeError),
    /// Pending-address count exceeds the 7-short/7-extended limit.
    BadPendingCount(u8),
}

impl fmt::Display for BeaconParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeaconParseError::Truncated => write!(f, "beacon payload truncated"),
            BeaconParseError::BadSuperframe(e) => write!(f, "bad superframe spec: {e}"),
            BeaconParseError::BadPendingCount(n) => {
                write!(f, "pending address count {n} exceeds 7")
            }
        }
    }
}

impl std::error::Error for BeaconParseError {}

impl From<SuperframeError> for BeaconParseError {
    fn from(e: SuperframeError) -> Self {
        BeaconParseError::BadSuperframe(e)
    }
}

/// The 16-bit superframe specification carried by every beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperframeSpec {
    /// Beacon order (bits 0–3).
    pub beacon_order: u8,
    /// Superframe order (bits 4–7).
    pub superframe_order: u8,
    /// Final CAP slot (bits 8–11).
    pub final_cap_slot: u8,
    /// Battery life extension flag (bit 12).
    pub battery_life_extension: bool,
    /// PAN coordinator flag (bit 14).
    pub pan_coordinator: bool,
    /// Association permitted flag (bit 15).
    pub association_permit: bool,
}

impl SuperframeSpec {
    /// Builds a specification from a validated superframe configuration.
    pub fn from_config(config: SuperframeConfig) -> Self {
        SuperframeSpec {
            beacon_order: config.beacon_order().value(),
            superframe_order: config.superframe_order().value(),
            final_cap_slot: 15 - config.gts_slots(),
            battery_life_extension: false,
            pan_coordinator: true,
            association_permit: true,
        }
    }

    /// Encodes to the 16-bit wire value.
    pub fn bits(self) -> u16 {
        (self.beacon_order as u16 & 0xF)
            | (self.superframe_order as u16 & 0xF) << 4
            | (self.final_cap_slot as u16 & 0xF) << 8
            | (self.battery_life_extension as u16) << 12
            | (self.pan_coordinator as u16) << 14
            | (self.association_permit as u16) << 15
    }

    /// Decodes from the 16-bit wire value.
    pub fn from_bits(v: u16) -> Self {
        SuperframeSpec {
            beacon_order: (v & 0xF) as u8,
            superframe_order: ((v >> 4) & 0xF) as u8,
            final_cap_slot: ((v >> 8) & 0xF) as u8,
            battery_life_extension: v & (1 << 12) != 0,
            pan_coordinator: v & (1 << 14) != 0,
            association_permit: v & (1 << 15) != 0,
        }
    }

    /// Reconstructs the superframe configuration (GTS slot count from the
    /// final CAP slot).
    ///
    /// # Errors
    ///
    /// Returns [`SuperframeError`] if the orders are inconsistent.
    pub fn to_config(self) -> Result<SuperframeConfig, SuperframeError> {
        SuperframeConfig::new(
            self.beacon_order,
            self.superframe_order,
            15 - self.final_cap_slot.min(15),
        )
    }
}

/// A GTS descriptor: a device's reserved slot range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtsDescriptor {
    /// Short address of the device owning the slots.
    pub short_address: u16,
    /// First superframe slot of the allocation (0–15).
    pub starting_slot: u8,
    /// Number of contiguous slots (1–15).
    pub length: u8,
}

/// A full beacon payload.
///
/// # Examples
///
/// ```
/// use wsn_mac::beacon::BeaconPayload;
/// use wsn_mac::SuperframeConfig;
///
/// let payload = BeaconPayload::for_config(SuperframeConfig::fully_active(6)?);
/// let wire = payload.serialize();
/// let back = BeaconPayload::parse(&wire)?;
/// assert_eq!(back, payload);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeaconPayload {
    /// Superframe specification.
    pub superframe: SuperframeSpec,
    /// GTS descriptors (at most 7).
    pub gts: Vec<GtsDescriptor>,
    /// Short addresses with pending downlink data (at most 7).
    pub pending_short: Vec<u16>,
}

impl BeaconPayload {
    /// Minimal beacon for a configuration: no GTS descriptors, no pending
    /// addresses.
    pub fn for_config(config: SuperframeConfig) -> Self {
        BeaconPayload {
            superframe: SuperframeSpec::from_config(config),
            gts: Vec::new(),
            pending_short: Vec::new(),
        }
    }

    /// Serializes to the beacon MAC payload bytes.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 3 * self.gts.len() + 2 * self.pending_short.len());
        out.extend_from_slice(&self.superframe.bits().to_le_bytes());
        // GTS specification: count in bits 0-2, permit in bit 7.
        out.push((self.gts.len() as u8 & 0x7) | 0x80);
        if !self.gts.is_empty() {
            // GTS directions bitmap: all uplink here.
            out.push(0x00);
            for d in &self.gts {
                out.extend_from_slice(&d.short_address.to_le_bytes());
                out.push((d.starting_slot & 0xF) | (d.length & 0xF) << 4);
            }
        }
        // Pending address specification: shorts in bits 0-2.
        out.push(self.pending_short.len() as u8 & 0x7);
        for a in &self.pending_short {
            out.extend_from_slice(&a.to_le_bytes());
        }
        out
    }

    /// Parses a beacon MAC payload.
    ///
    /// # Errors
    ///
    /// Returns [`BeaconParseError`] on truncation or invalid field values.
    pub fn parse(bytes: &[u8]) -> Result<Self, BeaconParseError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], BeaconParseError> {
            if *pos + n > bytes.len() {
                return Err(BeaconParseError::Truncated);
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };

        let sf_bytes = take(&mut pos, 2)?;
        let superframe = SuperframeSpec::from_bits(u16::from_le_bytes([sf_bytes[0], sf_bytes[1]]));
        // Validate orders eagerly so garbage does not propagate.
        superframe.to_config()?;

        let gts_spec = take(&mut pos, 1)?[0];
        let gts_count = (gts_spec & 0x7) as usize;
        let mut gts = Vec::with_capacity(gts_count);
        if gts_count > 0 {
            let _directions = take(&mut pos, 1)?[0];
            for _ in 0..gts_count {
                let d = take(&mut pos, 3)?;
                gts.push(GtsDescriptor {
                    short_address: u16::from_le_bytes([d[0], d[1]]),
                    starting_slot: d[2] & 0xF,
                    length: d[2] >> 4,
                });
            }
        }

        let pending_spec = take(&mut pos, 1)?[0];
        let pending_count = (pending_spec & 0x7) as usize;
        if pending_count > 7 {
            return Err(BeaconParseError::BadPendingCount(pending_count as u8));
        }
        let mut pending_short = Vec::with_capacity(pending_count);
        for _ in 0..pending_count {
            let a = take(&mut pos, 2)?;
            pending_short.push(u16::from_le_bytes([a[0], a[1]]));
        }

        Ok(BeaconPayload {
            superframe,
            gts,
            pending_short,
        })
    }

    /// `true` if downlink data is pending for `address` (the indirect
    /// transmission signal of Figure 1b).
    pub fn has_pending(&self, address: u16) -> bool {
        self.pending_short.contains(&address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_bits_roundtrip() {
        let config = SuperframeConfig::new(6, 4, 3).unwrap();
        let spec = SuperframeSpec::from_config(config);
        let back = SuperframeSpec::from_bits(spec.bits());
        assert_eq!(back, spec);
        assert_eq!(back.beacon_order, 6);
        assert_eq!(back.superframe_order, 4);
        assert_eq!(back.final_cap_slot, 12);
    }

    #[test]
    fn spec_reconstructs_config() {
        let config = SuperframeConfig::new(6, 6, 2).unwrap();
        let spec = SuperframeSpec::from_config(config);
        assert_eq!(spec.to_config().unwrap(), config);
    }

    #[test]
    fn minimal_beacon_roundtrip() {
        let p = BeaconPayload::for_config(SuperframeConfig::fully_active(6).unwrap());
        let wire = p.serialize();
        // 2 (spec) + 1 (GTS spec) + 1 (pending spec) = 4 bytes.
        assert_eq!(wire.len(), 4);
        assert_eq!(BeaconPayload::parse(&wire).unwrap(), p);
    }

    #[test]
    fn beacon_with_gts_and_pending_roundtrips() {
        let mut p = BeaconPayload::for_config(SuperframeConfig::new(6, 6, 3).unwrap());
        p.gts = vec![
            GtsDescriptor {
                short_address: 0x0042,
                starting_slot: 13,
                length: 2,
            },
            GtsDescriptor {
                short_address: 0x0043,
                starting_slot: 15,
                length: 1,
            },
        ];
        p.pending_short = vec![0x0010, 0x0020, 0x0030];
        let wire = p.serialize();
        let back = BeaconPayload::parse(&wire).unwrap();
        assert_eq!(back, p);
        assert!(back.has_pending(0x0020));
        assert!(!back.has_pending(0x0099));
    }

    #[test]
    fn truncated_beacon_rejected() {
        let p = BeaconPayload::for_config(SuperframeConfig::fully_active(6).unwrap());
        let mut wire = p.serialize();
        wire.truncate(2);
        assert_eq!(
            BeaconPayload::parse(&wire),
            Err(BeaconParseError::Truncated)
        );
    }

    #[test]
    fn invalid_orders_rejected() {
        // SO 7 > BO 3.
        let spec = SuperframeSpec {
            beacon_order: 3,
            superframe_order: 7,
            final_cap_slot: 15,
            battery_life_extension: false,
            pan_coordinator: true,
            association_permit: true,
        };
        let mut wire = Vec::new();
        wire.extend_from_slice(&spec.bits().to_le_bytes());
        wire.push(0x80);
        wire.push(0);
        assert!(matches!(
            BeaconPayload::parse(&wire),
            Err(BeaconParseError::BadSuperframe(_))
        ));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            BeaconParseError::Truncated.to_string(),
            "beacon payload truncated"
        );
    }
}
