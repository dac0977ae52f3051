//! Frame layouts: PPDU/MPDU wire formats, the ITU-T CRC-16 frame check
//! sequence, and the paper's packet-overhead arithmetic.
//!
//! Two views coexist deliberately:
//!
//! * [`MacFrame`]/[`Ppdu`] are the *wire-accurate* 802.15.4-2003 formats
//!   (used by the bit-level simulators and for serialization round-trips);
//! * [`PacketLayout`] is the *paper's* accounting — a total PHY+MAC overhead
//!   of `L_o = 13` bytes on top of the payload (preamble 4 + SFD 1 + PHR 1 +
//!   frame control 2 + sequence 1 + short addresses 4), with the 2-byte FCS
//!   not counted. We keep both because every equation of the paper is
//!   expressed in terms of `L_o + L`, and silently "fixing" the byte count
//!   would shift every reproduced figure.

use core::fmt;

use wsn_units::Seconds;

use crate::consts::{self, BYTE_PERIOD_US, MAX_PHY_PACKET_SIZE, PHR_BYTES, SHR_BYTES};

// ---------------------------------------------------------------------------
// Frame check sequence
// ---------------------------------------------------------------------------

/// Computes the 802.15.4 frame check sequence over an MPDU body.
///
/// The standard specifies the ITU-T CRC-16 (generator
/// `x¹⁶ + x¹² + x⁵ + 1`), processed least-significant-bit first with a zero
/// initial remainder — i.e. the classic "Kermit" CRC.
///
/// # Examples
///
/// ```
/// use wsn_phy::frame::crc16_itu_t;
///
/// // Canonical CRC-16/KERMIT check value.
/// assert_eq!(crc16_itu_t(b"123456789"), 0x2189);
/// ```
pub fn crc16_itu_t(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &byte in bytes {
        crc ^= byte as u16;
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0x8408; // reflected 0x1021
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

// ---------------------------------------------------------------------------
// Addresses and frame control
// ---------------------------------------------------------------------------

/// A MAC-layer device address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// Address absent (e.g. beacon destination).
    None,
    /// 16-bit short address, assigned at association.
    Short(u16),
    /// 64-bit extended (EUI-64) address.
    Extended(u64),
}

impl Address {
    /// Returns the addressing-mode field value (0, 2 or 3).
    #[inline]
    pub fn mode_bits(self) -> u16 {
        match self {
            Address::None => 0,
            Address::Short(_) => 2,
            Address::Extended(_) => 3,
        }
    }

    /// Returns the encoded length in bytes (0, 2 or 8).
    #[inline]
    pub fn encoded_len(self) -> usize {
        match self {
            Address::None => 0,
            Address::Short(_) => 2,
            Address::Extended(_) => 8,
        }
    }

    fn write(self, out: &mut Vec<u8>) {
        match self {
            Address::None => {}
            Address::Short(a) => out.extend_from_slice(&a.to_le_bytes()),
            Address::Extended(a) => out.extend_from_slice(&a.to_le_bytes()),
        }
    }

    fn read(mode: u16, buf: &[u8], pos: &mut usize) -> Result<Address, FrameError> {
        match mode {
            0 => Ok(Address::None),
            2 => {
                let bytes = take(buf, pos, 2)?;
                Ok(Address::Short(u16::from_le_bytes([bytes[0], bytes[1]])))
            }
            3 => {
                let bytes = take(buf, pos, 8)?;
                let mut a = [0u8; 8];
                a.copy_from_slice(bytes);
                Ok(Address::Extended(u64::from_le_bytes(a)))
            }
            _ => Err(FrameError::InvalidAddressingMode(mode as u8)),
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::None => write!(f, "-"),
            Address::Short(a) => write!(f, "0x{a:04X}"),
            Address::Extended(a) => write!(f, "0x{a:016X}"),
        }
    }
}

/// MAC frame type (frame-control bits 0–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Beacon frame sent by the coordinator.
    Beacon,
    /// Data frame.
    Data,
    /// Acknowledgement frame.
    Ack,
    /// MAC command frame (association, GTS requests, …).
    MacCommand,
}

impl FrameType {
    /// Returns the 3-bit wire encoding.
    #[inline]
    pub fn bits(self) -> u16 {
        match self {
            FrameType::Beacon => 0,
            FrameType::Data => 1,
            FrameType::Ack => 2,
            FrameType::MacCommand => 3,
        }
    }

    /// Decodes the 3-bit wire encoding.
    #[inline]
    pub fn from_bits(bits: u16) -> Result<Self, FrameError> {
        match bits {
            0 => Ok(FrameType::Beacon),
            1 => Ok(FrameType::Data),
            2 => Ok(FrameType::Ack),
            3 => Ok(FrameType::MacCommand),
            other => Err(FrameError::InvalidFrameType(other as u8)),
        }
    }
}

/// Decoded frame-control field (first two bytes of every MPDU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameControl {
    /// Frame type.
    pub frame_type: FrameType,
    /// Security-enabled flag (modeled but never set in this workspace).
    pub security: bool,
    /// More data pending at the coordinator (used by indirect transmission).
    pub frame_pending: bool,
    /// Acknowledgement requested.
    pub ack_request: bool,
    /// Intra-PAN: source PAN id omitted when it equals the destination's.
    pub intra_pan: bool,
    /// Destination addressing mode (bits 10–11), implied by the address.
    pub dest_mode: u16,
    /// Source addressing mode (bits 14–15), implied by the address.
    pub src_mode: u16,
}

impl FrameControl {
    /// Encodes into the 16-bit wire value.
    pub fn bits(self) -> u16 {
        self.frame_type.bits()
            | (self.security as u16) << 3
            | (self.frame_pending as u16) << 4
            | (self.ack_request as u16) << 5
            | (self.intra_pan as u16) << 6
            | self.dest_mode << 10
            | self.src_mode << 14
    }

    /// Decodes from the 16-bit wire value.
    pub fn from_bits(v: u16) -> Result<Self, FrameError> {
        Ok(FrameControl {
            frame_type: FrameType::from_bits(v & 0x7)?,
            security: v & (1 << 3) != 0,
            frame_pending: v & (1 << 4) != 0,
            ack_request: v & (1 << 5) != 0,
            intra_pan: v & (1 << 6) != 0,
            dest_mode: (v >> 10) & 0x3,
            src_mode: (v >> 14) & 0x3,
        })
    }
}

// ---------------------------------------------------------------------------
// MAC frames
// ---------------------------------------------------------------------------

/// Errors raised while encoding or decoding frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The MPDU would exceed `aMaxPHYPacketSize` (127 bytes).
    TooLong(usize),
    /// Input ended before the structure was complete.
    Truncated,
    /// Frame-control frame-type bits are reserved.
    InvalidFrameType(u8),
    /// Frame-control addressing-mode bits are reserved.
    InvalidAddressingMode(u8),
    /// The frame check sequence did not match the body.
    FcsMismatch {
        /// FCS carried by the frame.
        expected: u16,
        /// FCS recomputed over the received body.
        computed: u16,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong(n) => {
                write!(f, "mpdu of {n} bytes exceeds aMaxPHYPacketSize (127)")
            }
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::InvalidFrameType(b) => write!(f, "reserved frame type {b}"),
            FrameError::InvalidAddressingMode(b) => {
                write!(f, "reserved addressing mode {b}")
            }
            FrameError::FcsMismatch { expected, computed } => write!(
                f,
                "fcs mismatch: frame carries 0x{expected:04X}, computed 0x{computed:04X}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], FrameError> {
    if *pos + n > buf.len() {
        return Err(FrameError::Truncated);
    }
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

/// A generic MAC protocol data unit.
///
/// Covers the three frame kinds the paper's uplink exercise needs (beacon,
/// data, ACK) plus MAC commands. Serialization appends the 2-byte FCS;
/// parsing verifies it.
///
/// # Examples
///
/// ```
/// use wsn_phy::frame::{Address, MacFrame};
///
/// let frame = MacFrame::data(
///     42,
///     0x1234,
///     Address::Short(0x0001),
///     Address::Short(0x00C0),
///     b"sensor reading".to_vec(),
///     true,
/// );
/// let wire = frame.serialize()?;
/// let back = MacFrame::parse(&wire)?;
/// assert_eq!(back, frame);
/// # Ok::<(), wsn_phy::frame::FrameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacFrame {
    /// Frame control flags (`dest_mode`/`src_mode` are overwritten from the
    /// addresses during serialization).
    pub control: FrameControl,
    /// Data sequence number.
    pub sequence: u8,
    /// Destination PAN identifier (present when `dest` is present).
    pub dest_pan: Option<u16>,
    /// Destination address.
    pub dest: Address,
    /// Source PAN identifier (omitted when intra-PAN).
    pub src_pan: Option<u16>,
    /// Source address.
    pub src: Address,
    /// MAC payload.
    pub payload: Vec<u8>,
}

impl MacFrame {
    /// Builds an uplink data frame with short addressing (the paper's
    /// configuration: intra-PAN, 4 address bytes total).
    pub fn data(
        sequence: u8,
        pan: u16,
        dest: Address,
        src: Address,
        payload: Vec<u8>,
        ack_request: bool,
    ) -> Self {
        MacFrame {
            control: FrameControl {
                frame_type: FrameType::Data,
                security: false,
                frame_pending: false,
                ack_request,
                intra_pan: true,
                dest_mode: dest.mode_bits(),
                src_mode: src.mode_bits(),
            },
            sequence,
            dest_pan: Some(pan),
            dest,
            src_pan: None,
            src,
            payload,
        }
    }

    /// Builds an acknowledgement frame (5-byte MPDU).
    pub fn ack(sequence: u8, frame_pending: bool) -> Self {
        MacFrame {
            control: FrameControl {
                frame_type: FrameType::Ack,
                security: false,
                frame_pending,
                ack_request: false,
                intra_pan: false,
                dest_mode: 0,
                src_mode: 0,
            },
            sequence,
            dest_pan: None,
            dest: Address::None,
            src_pan: None,
            src: Address::None,
            payload: Vec::new(),
        }
    }

    /// Builds a beacon frame carrying a superframe specification payload.
    pub fn beacon(sequence: u8, pan: u16, src: Address, payload: Vec<u8>) -> Self {
        MacFrame {
            control: FrameControl {
                frame_type: FrameType::Beacon,
                security: false,
                frame_pending: false,
                ack_request: false,
                intra_pan: false,
                dest_mode: 0,
                src_mode: src.mode_bits(),
            },
            sequence,
            dest_pan: None,
            dest: Address::None,
            src_pan: Some(pan),
            src,
            payload,
        }
    }

    /// Serializes to MPDU bytes, including the trailing FCS.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLong`] if the MPDU would exceed 127 bytes.
    pub fn serialize(&self) -> Result<Vec<u8>, FrameError> {
        let mut control = self.control;
        control.dest_mode = self.dest.mode_bits();
        control.src_mode = self.src.mode_bits();

        let mut out = Vec::with_capacity(self.mpdu_len());
        out.extend_from_slice(&control.bits().to_le_bytes());
        out.push(self.sequence);
        if let Some(pan) = self.dest_pan {
            out.extend_from_slice(&pan.to_le_bytes());
        }
        self.dest.write(&mut out);
        if let Some(pan) = self.src_pan {
            out.extend_from_slice(&pan.to_le_bytes());
        }
        self.src.write(&mut out);
        out.extend_from_slice(&self.payload);
        let fcs = crc16_itu_t(&out);
        out.extend_from_slice(&fcs.to_le_bytes());
        if out.len() > MAX_PHY_PACKET_SIZE {
            return Err(FrameError::TooLong(out.len()));
        }
        Ok(out)
    }

    /// Parses an MPDU, verifying the FCS.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on truncation, reserved field encodings, or an
    /// FCS mismatch.
    pub fn parse(mpdu: &[u8]) -> Result<Self, FrameError> {
        if mpdu.len() < 5 {
            return Err(FrameError::Truncated);
        }
        let (body, fcs_bytes) = mpdu.split_at(mpdu.len() - 2);
        let expected = u16::from_le_bytes([fcs_bytes[0], fcs_bytes[1]]);
        let computed = crc16_itu_t(body);
        if expected != computed {
            return Err(FrameError::FcsMismatch { expected, computed });
        }

        let mut pos = 0usize;
        let fc_bytes = take(body, &mut pos, 2)?;
        let control = FrameControl::from_bits(u16::from_le_bytes([fc_bytes[0], fc_bytes[1]]))?;
        let sequence = take(body, &mut pos, 1)?[0];

        let (dest_pan, dest) = if control.dest_mode != 0 {
            let pan_bytes = take(body, &mut pos, 2)?;
            let pan = u16::from_le_bytes([pan_bytes[0], pan_bytes[1]]);
            (Some(pan), Address::read(control.dest_mode, body, &mut pos)?)
        } else {
            (None, Address::None)
        };
        let (src_pan, src) = if control.src_mode != 0 {
            let pan = if control.intra_pan {
                None
            } else {
                let pan_bytes = take(body, &mut pos, 2)?;
                Some(u16::from_le_bytes([pan_bytes[0], pan_bytes[1]]))
            };
            (pan, Address::read(control.src_mode, body, &mut pos)?)
        } else {
            (None, Address::None)
        };
        let payload = body[pos..].to_vec();

        Ok(MacFrame {
            control,
            sequence,
            dest_pan,
            dest,
            src_pan,
            src,
            payload,
        })
    }

    /// Returns the MPDU length in bytes (including FCS) without serializing.
    pub fn mpdu_len(&self) -> usize {
        2 + 1
            + self.dest_pan.map_or(0, |_| 2)
            + self.dest.encoded_len()
            + self.src_pan.map_or(0, |_| 2)
            + self.src.encoded_len()
            + self.payload.len()
            + 2
    }
}

/// A PHY protocol data unit: synchronization header, PHY header and PSDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ppdu {
    /// The MAC frame bytes (PSDU).
    pub psdu: Vec<u8>,
}

impl Ppdu {
    /// Wraps a PSDU.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLong`] if the PSDU exceeds 127 bytes.
    pub fn new(psdu: Vec<u8>) -> Result<Self, FrameError> {
        if psdu.len() > MAX_PHY_PACKET_SIZE {
            return Err(FrameError::TooLong(psdu.len()));
        }
        Ok(Ppdu { psdu })
    }

    /// Serializes preamble (4 × 0x00), SFD (0xA7), PHR (length) and PSDU.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SHR_BYTES + PHR_BYTES + self.psdu.len());
        out.extend_from_slice(&[0x00; 4]);
        out.push(0xA7);
        out.push(self.psdu.len() as u8);
        out.extend_from_slice(&self.psdu);
        out
    }

    /// Total on-air length in bytes.
    pub fn air_len(&self) -> usize {
        SHR_BYTES + PHR_BYTES + self.psdu.len()
    }

    /// On-air duration at 250 kb/s.
    pub fn air_time(&self) -> Seconds {
        consts::bytes(self.air_len())
    }
}

// ---------------------------------------------------------------------------
// The paper's packet accounting
// ---------------------------------------------------------------------------

/// The paper's PHY+MAC overhead `L_o` in bytes: preamble 4 + SFD 1 + PHR 1 +
/// frame control 2 + sequence 1 + short addresses 4. (The FCS is not counted
/// by the paper; see DESIGN.md §5.)
pub const PAPER_OVERHEAD_BYTES: usize = 13;

/// Bytes of the packet that are acquired before bit decisions matter (the
/// synchronization preamble), excluded from error exposure in eq. (10).
pub const PAPER_PREAMBLE_BYTES: usize = 4;

/// The paper's packet-size accounting: a payload of `L` bytes plus the fixed
/// `L_o = 13`-byte overhead.
///
/// All model equations consume this type: `T_packet = (L_o + L)·T_B`
/// (eq. 3) and the error-exposed bit count `8·(L_packet − 4)` (eq. 10).
///
/// # Examples
///
/// ```
/// use wsn_phy::frame::PacketLayout;
///
/// let packet = PacketLayout::with_payload(120)?;
/// assert_eq!(packet.total_bytes(), 133);
/// assert!((packet.duration().millis() - 4.256).abs() < 1e-9);
/// assert_eq!(packet.error_exposed_bits(), 8 * 129);
/// # Ok::<(), wsn_phy::frame::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketLayout {
    payload_bytes: usize,
}

impl PacketLayout {
    /// Creates a layout for a payload of `L` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLong`] if `L` exceeds the paper's maximum of
    /// 123 bytes.
    pub fn with_payload(payload_bytes: usize) -> Result<Self, FrameError> {
        if payload_bytes > consts::MAX_PAPER_PAYLOAD {
            return Err(FrameError::TooLong(payload_bytes + PAPER_OVERHEAD_BYTES));
        }
        Ok(PacketLayout { payload_bytes })
    }

    /// Payload size `L` in bytes.
    #[inline]
    pub fn payload_bytes(self) -> usize {
        self.payload_bytes
    }

    /// Payload size in bits.
    #[inline]
    pub fn payload_bits(self) -> usize {
        self.payload_bytes * 8
    }

    /// Total packet size `L_packet = L_o + L` in bytes.
    #[inline]
    pub fn total_bytes(self) -> usize {
        self.payload_bytes + PAPER_OVERHEAD_BYTES
    }

    /// On-air duration `T_packet = (L_o + L)·T_B` (paper eq. 3).
    #[inline]
    pub fn duration(self) -> Seconds {
        Seconds::from_micros(self.total_bytes() as f64 * BYTE_PERIOD_US)
    }

    /// Number of bits exposed to channel errors: `8·(L_packet − 4)`
    /// (paper eq. 10 — the preamble does not carry decodable data).
    #[inline]
    pub fn error_exposed_bits(self) -> u32 {
        8 * (self.total_bytes() - PAPER_PREAMBLE_BYTES) as u32
    }
}

/// On-air accounting for the acknowledgement frame: 5-byte MPDU plus SHR and
/// PHR, 11 bytes ⇒ 352 µs at 250 kb/s.
pub fn ack_layout_bytes() -> usize {
    SHR_BYTES + PHR_BYTES + 5
}

/// On-air duration of an acknowledgement frame.
pub fn ack_duration() -> Seconds {
    consts::bytes(ack_layout_bytes())
}

/// Default beacon frame accounting used by the model: 13-byte MPDU (frame
/// control 2 + sequence 1 + source PAN 2 + source short address 2 +
/// superframe spec 2 + GTS spec 1 + pending spec 1 + FCS 2) plus SHR and
/// PHR ⇒ 19 bytes ⇒ 608 µs. The paper does not state its beacon length;
/// this is the minimal standard-compliant beacon (DESIGN.md §5).
pub fn beacon_layout_bytes() -> usize {
    SHR_BYTES + PHR_BYTES + 13
}

/// On-air duration of the default beacon.
pub fn beacon_duration() -> Seconds {
    consts::bytes(beacon_layout_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_check_value() {
        assert_eq!(crc16_itu_t(b"123456789"), 0x2189);
        assert_eq!(crc16_itu_t(b""), 0x0000);
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = crc16_itu_t(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(
                    crc16_itu_t(&corrupted),
                    base,
                    "flip {byte}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn data_frame_roundtrip() {
        let frame = MacFrame::data(
            7,
            0xBEEF,
            Address::Short(0x0000),
            Address::Short(0x0042),
            vec![1, 2, 3, 4, 5],
            true,
        );
        let wire = frame.serialize().unwrap();
        // FC 2 + seq 1 + dest PAN 2 + dest 2 + src 2 (intra-PAN) + payload 5
        // + FCS 2 = 16 bytes.
        assert_eq!(wire.len(), 16);
        assert_eq!(frame.mpdu_len(), wire.len());
        assert_eq!(MacFrame::parse(&wire).unwrap(), frame);
    }

    #[test]
    fn extended_address_roundtrip() {
        let mut frame = MacFrame::data(
            1,
            0x0001,
            Address::Extended(0xDEAD_BEEF_CAFE_F00D),
            Address::Extended(0x0123_4567_89AB_CDEF),
            vec![0xAA; 10],
            false,
        );
        frame.control.intra_pan = false;
        frame.src_pan = Some(0x0002);
        let wire = frame.serialize().unwrap();
        assert_eq!(MacFrame::parse(&wire).unwrap(), frame);
    }

    #[test]
    fn ack_frame_is_five_bytes() {
        let wire = MacFrame::ack(200, false).serialize().unwrap();
        assert_eq!(wire.len(), 5);
        let parsed = MacFrame::parse(&wire).unwrap();
        assert_eq!(parsed.sequence, 200);
        assert_eq!(parsed.control.frame_type, FrameType::Ack);
    }

    #[test]
    fn beacon_frame_roundtrip() {
        let frame = MacFrame::beacon(
            3,
            0x1111,
            Address::Short(0x0000),
            vec![0xFF, 0xCF, 0x00, 0x00],
        );
        let wire = frame.serialize().unwrap();
        let parsed = MacFrame::parse(&wire).unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(parsed.control.frame_type, FrameType::Beacon);
    }

    #[test]
    fn corrupted_fcs_is_rejected() {
        let mut wire = MacFrame::ack(9, false).serialize().unwrap();
        wire[1] ^= 0x10;
        match MacFrame::parse(&wire) {
            Err(FrameError::FcsMismatch { .. }) => {}
            other => panic!("expected FCS mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_rejected() {
        assert_eq!(MacFrame::parse(&[1, 2, 3]), Err(FrameError::Truncated));
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let frame = MacFrame::data(
            0,
            0,
            Address::Short(0),
            Address::Short(1),
            vec![0u8; 120],
            true,
        );
        assert!(matches!(frame.serialize(), Err(FrameError::TooLong(_))));
    }

    #[test]
    fn ppdu_layout() {
        let ppdu = Ppdu::new(vec![0xAB; 10]).unwrap();
        let wire = ppdu.serialize();
        assert_eq!(wire.len(), 16);
        assert_eq!(&wire[..4], &[0, 0, 0, 0]);
        assert_eq!(wire[4], 0xA7);
        assert_eq!(wire[5], 10);
        assert!((ppdu.air_time().micros() - 512.0).abs() < 1e-9);
        assert!(Ppdu::new(vec![0; 128]).is_err());
    }

    #[test]
    fn paper_packet_layout() {
        let p = PacketLayout::with_payload(120).unwrap();
        assert_eq!(p.payload_bytes(), 120);
        assert_eq!(p.payload_bits(), 960);
        assert_eq!(p.total_bytes(), 133);
        assert!((p.duration().millis() - 4.256).abs() < 1e-9);
        assert_eq!(p.error_exposed_bits(), 1032);

        let max = PacketLayout::with_payload(123).unwrap();
        assert_eq!(max.total_bytes(), 136);
        assert!(PacketLayout::with_payload(124).is_err());
    }

    #[test]
    fn ack_and_beacon_durations() {
        assert_eq!(ack_layout_bytes(), 11);
        assert!((ack_duration().micros() - 352.0).abs() < 1e-9);
        assert_eq!(beacon_layout_bytes(), 19);
        assert!((beacon_duration().micros() - 608.0).abs() < 1e-9);
    }

    #[test]
    fn frame_control_bits_roundtrip() {
        let fc = FrameControl {
            frame_type: FrameType::Data,
            security: false,
            frame_pending: true,
            ack_request: true,
            intra_pan: true,
            dest_mode: 2,
            src_mode: 3,
        };
        assert_eq!(FrameControl::from_bits(fc.bits()).unwrap(), fc);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            FrameError::TooLong(130).to_string(),
            "mpdu of 130 bytes exceeds aMaxPHYPacketSize (127)"
        );
        assert!(FrameError::FcsMismatch {
            expected: 1,
            computed: 2
        }
        .to_string()
        .contains("0x0001"));
    }
}
