//! A minimal unauthenticated wire format for sensor/actuator traffic.
//!
//! The format is intentionally in the spirit of legacy industrial
//! protocols: a fixed header, a sequence number, a timestamp and raw IEEE
//! 754 payload values — **no authentication, no integrity protection** —
//! which is precisely what makes the man-in-the-middle attacks of the DSN
//! 2016 paper possible.
//!
//! Layout (big endian):
//!
//! ```text
//! [0..2]   magic 0x7E55
//! [2]      kind: 0x01 sensor report, 0x02 actuator command
//! [3]      reserved (0)
//! [4..8]   sequence number, u32
//! [8..16]  timestamp (simulation hour), f64
//! [16..18] value count, u16
//! [18..]   values, f64 each
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u16 = 0x7E55;
const HEADER_LEN: usize = 18;

/// Largest payload the 16-bit count field can express.
pub const MAX_VALUES: usize = u16::MAX as usize;

/// Frame direction/type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Sensor report (process → controller, XMEAS values).
    SensorReport,
    /// Actuator command (controller → process, XMV values).
    ActuatorCommand,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::SensorReport => 0x01,
            FrameKind::ActuatorCommand => 0x02,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0x01 => Some(FrameKind::SensorReport),
            0x02 => Some(FrameKind::ActuatorCommand),
            _ => None,
        }
    }
}

/// Encoding and decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unknown frame-kind code.
    UnknownKind(u8),
    /// The reserved header byte was not zero.
    BadReserved(u8),
    /// The payload does not hold exactly the advertised number of values
    /// (truncated payload, trailing bytes or a non-multiple-of-8
    /// remainder).
    LengthMismatch {
        /// Values advertised in the header.
        advertised: usize,
        /// Payload bytes actually present after the header.
        payload_bytes: usize,
    },
    /// The payload holds more values than the 16-bit count field can
    /// express; encoding would silently wrap the count.
    TooManyValues {
        /// Number of values in the frame.
        count: usize,
    },
    /// The timestamp or a payload value is NaN or infinite. No sensor or
    /// actuator reads that, and a NaN slips past every control-limit
    /// comparison, so it is rejected at the wire instead of being scored.
    NonFinite {
        /// Payload index of the offending value (`None`: the timestamp).
        index: Option<usize>,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than header"),
            FrameError::BadMagic => write!(f, "bad magic bytes"),
            FrameError::UnknownKind(c) => write!(f, "unknown frame kind 0x{c:02x}"),
            FrameError::BadReserved(b) => write!(f, "reserved header byte is 0x{b:02x}, not 0"),
            FrameError::LengthMismatch {
                advertised,
                payload_bytes,
            } => write!(
                f,
                "frame advertises {advertised} values ({} bytes) but the payload holds \
                 {payload_bytes} bytes",
                advertised * 8
            ),
            FrameError::TooManyValues { count } => write!(
                f,
                "frame holds {count} values but the count field caps at {MAX_VALUES}"
            ),
            FrameError::NonFinite { index: None } => write!(f, "non-finite timestamp"),
            FrameError::NonFinite { index: Some(i) } => {
                write!(f, "non-finite value at payload index {i}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded fieldbus frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameKind,
    /// Monotonic sequence number.
    pub seq: u32,
    /// Timestamp, simulation hours.
    pub hour: f64,
    /// Payload values (XMEAS or XMV, depending on `kind`).
    pub values: Vec<f64>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: FrameKind, seq: u32, hour: f64, values: Vec<f64>) -> Self {
        Frame {
            kind,
            seq,
            hour,
            values,
        }
    }

    /// Serializes the frame to bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooManyValues`] when the payload exceeds
    /// [`MAX_VALUES`] — the 16-bit count field would silently wrap and the
    /// frame would decode with the wrong value count.
    pub fn encode(&self) -> Result<Bytes, FrameError> {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + 8 * self.values.len());
        self.encode_into(&mut buf)?;
        Ok(buf.freeze())
    }

    /// Serializes the frame into `buf`, clearing it first. The buffer's
    /// capacity is reused across calls, so a steady-state encode performs
    /// no heap allocation — this is the closed-loop hot path
    /// ([`Frame::encode`] wraps it for one-shot callers).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooManyValues`] when the payload exceeds
    /// [`MAX_VALUES`]; `buf` is left empty.
    pub fn encode_into(&self, buf: &mut BytesMut) -> Result<(), FrameError> {
        buf.clear();
        if self.values.len() > MAX_VALUES {
            return Err(FrameError::TooManyValues {
                count: self.values.len(),
            });
        }
        buf.reserve(HEADER_LEN + 8 * self.values.len());
        buf.put_u16(MAGIC);
        buf.put_u8(self.kind.code());
        buf.put_u8(0);
        buf.put_u32(self.seq);
        buf.put_f64(self.hour);
        buf.put_u16(self.values.len() as u16);
        for &v in &self.values {
            buf.put_f64(v);
        }
        Ok(())
    }

    /// Parses a frame from bytes.
    ///
    /// The decoder is strict: the buffer must hold the fixed header plus
    /// *exactly* the advertised payload. Trailing bytes — including a
    /// non-multiple-of-8 remainder — are rejected rather than silently
    /// discarded, so a corrupt capture file fails loudly instead of
    /// yielding short payloads. A successful decode re-encodes to the
    /// identical bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] for truncated buffers, bad magic, unknown
    /// kinds, a nonzero reserved byte, any payload-length mismatch, or a
    /// NaN or infinite timestamp or value.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        let mut frame = Frame::new(FrameKind::SensorReport, 0, 0.0, Vec::new());
        Frame::decode_into(buf, &mut frame)?;
        Ok(frame)
    }

    /// Parses a frame from bytes into `out`, reusing its `values`
    /// allocation — the allocation-free counterpart of [`Frame::decode`],
    /// with identical strictness. On error `out` is left in an
    /// unspecified (but valid) state.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Frame::decode`].
    pub fn decode_into(mut buf: &[u8], out: &mut Frame) -> Result<(), FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        if buf.get_u16() != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let kind_code = buf.get_u8();
        let kind = FrameKind::from_code(kind_code).ok_or(FrameError::UnknownKind(kind_code))?;
        let reserved = buf.get_u8();
        if reserved != 0 {
            return Err(FrameError::BadReserved(reserved));
        }
        let seq = buf.get_u32();
        let hour = buf.get_f64();
        if !hour.is_finite() {
            return Err(FrameError::NonFinite { index: None });
        }
        let advertised = buf.get_u16() as usize;
        let payload_bytes = buf.remaining();
        if payload_bytes != advertised * 8 {
            return Err(FrameError::LengthMismatch {
                advertised,
                payload_bytes,
            });
        }
        out.kind = kind;
        out.seq = seq;
        out.hour = hour;
        out.values.clear();
        out.values.extend((0..advertised).map(|_| buf.get_f64()));
        match out.values.iter().position(|v| !v.is_finite()) {
            Some(index) => Err(FrameError::NonFinite { index: Some(index) }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sensor_frame() {
        let f = Frame::new(FrameKind::SensorReport, 42, 10.5, vec![1.0, -2.5, 3.25]);
        let decoded = Frame::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn roundtrip_actuator_frame() {
        let f = Frame::new(FrameKind::ActuatorCommand, 7, 0.0, vec![55.0; 12]);
        assert_eq!(Frame::decode(&f.encode().unwrap()).unwrap(), f);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = Frame::new(FrameKind::SensorReport, 0, 0.0, vec![]);
        assert_eq!(Frame::decode(&f.encode().unwrap()).unwrap(), f);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Frame::decode(&[0u8; 5]), Err(FrameError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Frame::new(FrameKind::SensorReport, 1, 1.0, vec![1.0])
            .encode()
            .unwrap()
            .to_vec();
        bytes[0] = 0xFF;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadMagic));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = Frame::new(FrameKind::SensorReport, 1, 1.0, vec![1.0])
            .encode()
            .unwrap()
            .to_vec();
        bytes[2] = 0x09;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::UnknownKind(0x09)));
    }

    #[test]
    fn nonzero_reserved_rejected() {
        let mut bytes = Frame::new(FrameKind::SensorReport, 1, 1.0, vec![1.0])
            .encode()
            .unwrap()
            .to_vec();
        bytes[3] = 0x55;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadReserved(0x55)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut bytes = Frame::new(FrameKind::SensorReport, 1, 1.0, vec![1.0])
            .encode()
            .unwrap()
            .to_vec();
        bytes[17] = 200; // advertise 200 values
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch {
                advertised: 200,
                payload_bytes: 8,
            })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::new(FrameKind::SensorReport, 1, 1.0, vec![1.0, 2.0])
            .encode()
            .unwrap()
            .to_vec();
        // A whole extra value beyond the advertised two...
        bytes.extend_from_slice(&3.0f64.to_be_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch {
                advertised: 2,
                payload_bytes: 24,
            })
        );
        // ...and a ragged remainder shorter than one value.
        bytes.truncate(HEADER_LEN + 2 * 8 + 3);
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch {
                advertised: 2,
                payload_bytes: 19,
            })
        );
    }

    #[test]
    fn too_many_values_rejected_and_boundary_roundtrips() {
        let oversized = Frame::new(FrameKind::SensorReport, 1, 1.0, vec![0.0; MAX_VALUES + 1]);
        assert_eq!(
            oversized.encode(),
            Err(FrameError::TooManyValues {
                count: MAX_VALUES + 1,
            })
        );
        // Exactly MAX_VALUES still round-trips.
        let full = Frame::new(FrameKind::SensorReport, 1, 1.0, vec![0.5; MAX_VALUES]);
        assert_eq!(Frame::decode(&full.encode().unwrap()).unwrap(), full);
    }

    #[test]
    fn non_finite_timestamp_or_value_rejected() {
        let encode = |hour: f64, values: Vec<f64>| {
            Frame::new(FrameKind::SensorReport, 1, hour, values)
                .encode()
                .unwrap()
        };
        assert_eq!(
            Frame::decode(&encode(1.0, vec![1.0, f64::NAN, 3.0])),
            Err(FrameError::NonFinite { index: Some(1) })
        );
        assert_eq!(
            Frame::decode(&encode(1.0, vec![f64::NEG_INFINITY])),
            Err(FrameError::NonFinite { index: Some(0) })
        );
        assert_eq!(
            Frame::decode(&encode(f64::INFINITY, vec![1.0])),
            Err(FrameError::NonFinite { index: None })
        );
        assert_eq!(
            Frame::decode(&encode(f64::NAN, vec![])),
            Err(FrameError::NonFinite { index: None })
        );
    }

    #[test]
    fn tampering_is_undetectable() {
        // The security premise of the paper: an attacker can rewrite a value
        // and re-encode; the result is indistinguishable from a genuine
        // frame.
        let genuine = Frame::new(FrameKind::SensorReport, 9, 10.0, vec![3.9, 2.0]);
        let mut tampered = Frame::decode(&genuine.encode().unwrap()).unwrap();
        tampered.values[0] = 0.0;
        let reencoded = tampered.encode().unwrap();
        let redecoded = Frame::decode(&reencoded).unwrap();
        assert_eq!(redecoded.values[0], 0.0);
        assert_eq!(redecoded.seq, genuine.seq);
    }
}
