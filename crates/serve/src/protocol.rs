//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic            b"CTJS"
//! 4       1     protocol version (1 or 2)
//! 5       1     message kind     (see the `KIND_*` constants)
//! 6       8     request id       u64 little-endian, echoed in replies
//! 14      4     payload length   u32 little-endian, ≤ MAX_PAYLOAD
//! 18      n     payload          kind-specific, little-endian
//! ```
//!
//! Payloads: a version-1 *observe* request carries `8·k` bytes of `f64`
//! features; a version-2 *observe* prefixes them with a `u32` tenant
//! (model) id, addressing one of the server's tenants. An *action*
//! response carries one `u32`; an *error* response carries one `u16`
//! [`ErrorCode`]; *ping*/*pong* are empty.
//!
//! **Version negotiation is per-frame and implicit.** Decoders accept
//! both versions; encoders emit the lowest version that can carry the
//! message — version 1 for everything except an `Observe` addressed to
//! a non-default tenant, which needs the v2 tenant prefix. A v1 frame
//! therefore means "the default tenant" ([`DEFAULT_TENANT`]), pre-v2
//! clients keep working byte-identically, and every reply the server
//! writes is readable by a v1 client.
//!
//! Decoding is total: any byte sequence — hostile, truncated, or
//! corrupted — produces a typed [`WireError`], never a panic, and an
//! oversized length prefix is rejected from the 18-byte header alone,
//! before any payload allocation or read (property-tested in
//! `tests/properties.rs`).

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every CTJam-serve frame.
pub const MAGIC: [u8; 4] = *b"CTJS";

/// Newest wire-protocol version this crate speaks (adds the tenant id
/// to `Observe`; frames of [`PROTO_V1`] are still accepted and decode
/// onto [`DEFAULT_TENANT`]).
pub const PROTO_VERSION: u8 = 2;

/// The original, tenant-unaware protocol version.
pub const PROTO_V1: u8 = 1;

/// The tenant a v1 `Observe` frame (no tenant id on the wire) is
/// routed to, and the one [`crate::server::PolicyServer::bind`] serves.
pub const DEFAULT_TENANT: u32 = 0;

/// Fixed frame-header size in bytes (magic + version + kind + id + length).
pub const HEADER_LEN: usize = 18;

/// Upper bound on a frame payload. A header announcing more is rejected
/// with [`WireError::FrameTooLarge`] *before* any allocation, so a
/// hostile length prefix cannot be used as an allocation bomb.
pub const MAX_PAYLOAD: u32 = 1 << 20;

const KIND_OBSERVE: u8 = 0x01;
const KIND_PING: u8 = 0x02;
const KIND_ACTION: u8 = 0x81;
const KIND_PONG: u8 = 0x82;
const KIND_ERROR: u8 = 0x8E;

/// Typed decode failure. Every way a byte stream can be wrong maps to
/// exactly one variant; none of them panic or allocate proportionally
/// to attacker-controlled lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    FrameTooLarge(u32),
    /// The input ended before the frame did.
    Truncated,
    /// The payload length or contents do not fit the message kind.
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k:#04x}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadPayload(why) => write!(f, "bad payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Application-level rejection codes carried by [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server's request queue is full — back off and retry.
    ServerBusy,
    /// The observation width does not match the served policy.
    BadObservation,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The v2 tenant id names no registered model.
    UnknownTenant,
    /// Admission control shed the request: the estimated queue delay
    /// exceeds the server's `max_queue_delay` SLO — back off and retry.
    Overloaded,
}

impl ErrorCode {
    /// Wire representation.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::ServerBusy => 1,
            ErrorCode::BadObservation => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::UnknownTenant => 4,
            ErrorCode::Overloaded => 5,
        }
    }

    /// Parse the wire representation.
    pub fn from_u16(code: u16) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::ServerBusy),
            2 => Some(ErrorCode::BadObservation),
            3 => Some(ErrorCode::ShuttingDown),
            4 => Some(ErrorCode::UnknownTenant),
            5 => Some(ErrorCode::Overloaded),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::ServerBusy => write!(f, "server busy"),
            ErrorCode::BadObservation => write!(f, "bad observation"),
            ErrorCode::ShuttingDown => write!(f, "server shutting down"),
            ErrorCode::UnknownTenant => write!(f, "unknown tenant"),
            ErrorCode::Overloaded => write!(f, "queue-delay SLO exceeded"),
        }
    }
}

/// One decoded protocol message (request or response).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: choose a greedy action for this observation.
    Observe {
        /// Request id, echoed in the reply.
        id: u64,
        /// Tenant (model) id the observation is addressed to.
        /// [`DEFAULT_TENANT`] encodes as a v1 frame (no id on the
        /// wire); anything else needs a v2 frame.
        tenant: u32,
        /// Observation features (`3 × I` values for the paper policy).
        observation: Vec<f64>,
    },
    /// Client → server: liveness probe.
    Ping {
        /// Request id, echoed in the reply.
        id: u64,
    },
    /// Server → client: the greedy action for request `id`.
    Action {
        /// Echoed request id.
        id: u64,
        /// Flat action index in `0..C×PL`.
        action: u32,
    },
    /// Server → client: reply to [`Message::Ping`].
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Server → client: typed rejection of request `id`.
    Error {
        /// Echoed request id.
        id: u64,
        /// Why the request was rejected.
        code: ErrorCode,
    },
}

impl Message {
    /// The request id carried by any message variant.
    pub fn id(&self) -> u64 {
        match *self {
            Message::Observe { id, .. }
            | Message::Ping { id }
            | Message::Action { id, .. }
            | Message::Pong { id }
            | Message::Error { id, .. } => id,
        }
    }

    /// Whether this variant is a client→server request.
    pub fn is_request(&self) -> bool {
        matches!(self, Message::Observe { .. } | Message::Ping { .. })
    }

    fn kind(&self) -> u8 {
        match self {
            Message::Observe { .. } => KIND_OBSERVE,
            Message::Ping { .. } => KIND_PING,
            Message::Action { .. } => KIND_ACTION,
            Message::Pong { .. } => KIND_PONG,
            Message::Error { .. } => KIND_ERROR,
        }
    }

    /// Appends the framed encoding to `buf`, at the lowest protocol
    /// version that can carry the message: version 2 only for an
    /// `Observe` addressed to a non-default tenant (the tenant id needs
    /// the v2 payload prefix), version 1 for everything else — so
    /// default-tenant traffic and every server reply stay byte-readable
    /// by v1 peers.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let (version, payload_len): (u8, u32) = match self {
            Message::Observe {
                tenant,
                observation,
                ..
            } => {
                if *tenant == DEFAULT_TENANT {
                    (PROTO_V1, (observation.len() * 8) as u32)
                } else {
                    (PROTO_VERSION, (4 + observation.len() * 8) as u32)
                }
            }
            Message::Ping { .. } | Message::Pong { .. } => (PROTO_V1, 0),
            Message::Action { .. } => (PROTO_V1, 4),
            Message::Error { .. } => (PROTO_V1, 2),
        };
        buf.reserve(HEADER_LEN + payload_len as usize);
        buf.extend_from_slice(&MAGIC);
        buf.push(version);
        buf.push(self.kind());
        buf.extend_from_slice(&self.id().to_le_bytes());
        buf.extend_from_slice(&payload_len.to_le_bytes());
        match self {
            Message::Observe {
                tenant,
                observation,
                ..
            } => {
                if version == PROTO_VERSION {
                    buf.extend_from_slice(&tenant.to_le_bytes());
                }
                for v in observation {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Message::Ping { .. } | Message::Pong { .. } => {}
            Message::Action { action, .. } => buf.extend_from_slice(&action.to_le_bytes()),
            Message::Error { code, .. } => buf.extend_from_slice(&code.to_u16().to_le_bytes()),
        }
    }

    /// The framed encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes one frame from the front of `bytes`, returning the
    /// message and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`] on any malformed, truncated, or
    /// oversized input. Never panics, and never allocates before the
    /// length prefix has been validated against [`MAX_PAYLOAD`].
    pub fn decode(bytes: &[u8]) -> Result<(Message, usize), WireError> {
        let mut observation = Vec::new();
        let (frame, used) = decode_frame(bytes, &mut observation)?;
        Ok((frame.into_message(observation), used))
    }

    /// Writes the framed encoding to `w` (buffered into one `write_all`
    /// so a frame is never interleaved with another writer's bytes on a
    /// shared stream).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Reads one frame from `r`. Returns `Ok(None)` on a clean EOF
    /// *before* the first byte of a frame; an EOF mid-frame is
    /// [`WireError::Truncated`].
    ///
    /// # Errors
    ///
    /// [`RecvError::Io`] for transport failures (including read
    /// timeouts, surfaced as `WouldBlock`/`TimedOut`),
    /// [`RecvError::Wire`] for protocol violations.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Option<Message>, RecvError> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = 0;
        while filled < HEADER_LEN {
            match r.read(&mut header[filled..]) {
                Ok(0) => {
                    return if filled == 0 {
                        Ok(None)
                    } else {
                        Err(RecvError::Wire(WireError::Truncated))
                    };
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A read timeout mid-header would otherwise lose the
                // bytes already consumed; in practice the server only
                // sees timeouts while `filled == 0` (idle between
                // frames), and a client under a hostile peer drops the
                // connection on any Io error anyway.
                Err(e) => return Err(RecvError::Io(e)),
            }
        }
        let parsed = decode_header(&header).map_err(RecvError::Wire)?;
        let mut payload = vec![0u8; parsed.payload_len as usize];
        r.read_exact(&mut payload).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                RecvError::Wire(WireError::Truncated)
            } else {
                RecvError::Io(e)
            }
        })?;
        let mut observation = Vec::new();
        decode_body(&parsed, &payload, &mut observation)
            .map(|frame| Some(frame.into_message(observation)))
            .map_err(RecvError::Wire)
    }
}

/// Transport-or-protocol failure while reading a frame from a stream.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying transport failed (including read timeouts).
    Io(io::Error),
    /// The peer sent bytes that violate the protocol.
    Wire(WireError),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

struct Header {
    version: u8,
    kind: u8,
    id: u64,
    payload_len: u32,
}

/// Validates the fixed 18-byte header prefix of `bytes`. The length
/// prefix is checked against [`MAX_PAYLOAD`] here, so callers reject
/// oversized frames before touching (or allocating for) any payload.
fn decode_header(bytes: &[u8]) -> Result<Header, WireError> {
    if bytes.len() >= 4 && bytes[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&bytes[..4]);
        return Err(WireError::BadMagic(m));
    }
    if bytes.len() < HEADER_LEN {
        // Too short to even hold a header; if the available prefix
        // already disagrees with the magic, say so.
        if !MAGIC.starts_with(&bytes[..bytes.len().min(4)]) {
            let mut m = [0u8; 4];
            m[..bytes.len().min(4)].copy_from_slice(&bytes[..bytes.len().min(4)]);
            return Err(WireError::BadMagic(m));
        }
        return Err(WireError::Truncated);
    }
    let version = bytes[4];
    if version != PROTO_V1 && version != PROTO_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = bytes[5];
    if !matches!(
        kind,
        KIND_OBSERVE | KIND_PING | KIND_ACTION | KIND_PONG | KIND_ERROR
    ) {
        return Err(WireError::BadKind(kind));
    }
    let id = u64::from_le_bytes(bytes[6..14].try_into().expect("8 header bytes"));
    let payload_len = u32::from_le_bytes(bytes[14..18].try_into().expect("4 header bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge(payload_len));
    }
    Ok(Header {
        version,
        kind,
        id,
        payload_len,
    })
}

/// One decoded frame, as [`decode_frame`] hands it to the server: an
/// `Observe` request's features stay in the caller's row buffer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// An `Observe` request whose `len` features were appended to the
    /// row buffer.
    Observe {
        /// Request id, echoed in the reply.
        id: u64,
        /// Tenant (model) id the observation is addressed to.
        tenant: u32,
        /// Number of features appended.
        len: usize,
    },
    /// Any other message, decoded whole.
    Other(Message),
}

impl Frame {
    /// The frame as a [`Message`]; an `Observe` takes `observation`,
    /// the buffer its features were appended to, as its features.
    fn into_message(self, observation: Vec<f64>) -> Message {
        match self {
            Frame::Observe { id, tenant, .. } => Message::Observe {
                id,
                tenant,
                observation,
            },
            Frame::Other(msg) => msg,
        }
    }
}

/// Decodes one frame from the front of `bytes` exactly as
/// [`Message::decode`] does (which wraps it), except that an `Observe`
/// frame's features are appended to `rows` instead of a fresh `Vec`, so
/// the server decodes a whole read into one flat row buffer. On any
/// error `rows` is left as it was.
pub(crate) fn decode_frame(bytes: &[u8], rows: &mut Vec<f64>) -> Result<(Frame, usize), WireError> {
    let header = decode_header(bytes)?;
    let total = HEADER_LEN + header.payload_len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    let frame = decode_body(&header, &bytes[HEADER_LEN..total], rows)?;
    Ok((frame, total))
}

/// Decodes a validated header's payload; an `Observe`'s features are
/// appended to `rows` only once the whole payload has checked out.
fn decode_body(header: &Header, payload: &[u8], rows: &mut Vec<f64>) -> Result<Frame, WireError> {
    let id = header.id;
    let message = match header.kind {
        KIND_OBSERVE => {
            // v2 prefixes the features with a u32 tenant id; a v1 frame
            // is implicitly addressed to the default tenant.
            let (tenant, features) = if header.version == PROTO_VERSION {
                let Some((tenant_bytes, rest)) = payload.split_first_chunk::<4>() else {
                    return Err(WireError::BadPayload("v2 observe shorter than a tenant id"));
                };
                (u32::from_le_bytes(*tenant_bytes), rest)
            } else {
                (DEFAULT_TENANT, payload)
            };
            if !features.len().is_multiple_of(8) {
                return Err(WireError::BadPayload(
                    "observation bytes not a multiple of 8",
                ));
            }
            rows.extend(
                features
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
            );
            return Ok(Frame::Observe {
                id,
                tenant,
                len: features.len() / 8,
            });
        }
        KIND_PING => {
            if !payload.is_empty() {
                return Err(WireError::BadPayload("ping carries no payload"));
            }
            Message::Ping { id }
        }
        KIND_ACTION => {
            let bytes: [u8; 4] = payload
                .try_into()
                .map_err(|_| WireError::BadPayload("action payload must be 4 bytes"))?;
            Message::Action {
                id,
                action: u32::from_le_bytes(bytes),
            }
        }
        KIND_PONG => {
            if !payload.is_empty() {
                return Err(WireError::BadPayload("pong carries no payload"));
            }
            Message::Pong { id }
        }
        KIND_ERROR => {
            let bytes: [u8; 2] = payload
                .try_into()
                .map_err(|_| WireError::BadPayload("error payload must be 2 bytes"))?;
            let code = ErrorCode::from_u16(u16::from_le_bytes(bytes))
                .ok_or(WireError::BadPayload("unknown error code"))?;
            Message::Error { id, code }
        }
        _ => unreachable!("decode_header validated the kind"),
    };
    Ok(Frame::Other(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::Observe {
                id: 7,
                tenant: DEFAULT_TENANT,
                observation: vec![0.0, -1.5, f64::NAN, 1e300],
            },
            Message::Observe {
                id: u64::MAX,
                tenant: DEFAULT_TENANT,
                observation: vec![],
            },
            Message::Observe {
                id: 11,
                tenant: 0xCAFE,
                observation: vec![2.0, -0.25],
            },
            Message::Observe {
                id: 12,
                tenant: u32::MAX,
                observation: vec![],
            },
            Message::Ping { id: 0 },
            Message::Action {
                id: 42,
                action: 159,
            },
            Message::Pong { id: 9 },
            Message::Error {
                id: 3,
                code: ErrorCode::ServerBusy,
            },
        ]
    }

    #[test]
    fn round_trips_bit_exactly() {
        for msg in samples() {
            let bytes = msg.encode();
            let (back, used) = Message::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            // NaN payloads compare unequal under PartialEq; compare the
            // re-encoding instead, which is bit-exact by construction.
            assert_eq!(back.encode(), bytes, "{msg:?}");
        }
    }

    #[test]
    fn streaming_round_trip_and_clean_eof() {
        let mut wire = Vec::new();
        for msg in samples() {
            msg.write_to(&mut wire).unwrap();
        }
        let mut cursor = io::Cursor::new(wire);
        for msg in samples() {
            let got = Message::read_from(&mut cursor).unwrap().unwrap();
            assert_eq!(got.encode(), msg.encode());
        }
        assert!(Message::read_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn golden_frame_layout() {
        // Replies stay v1 frames — a pre-v2 client can read them.
        let bytes = Message::Action {
            id: 0x0102030405060708,
            action: 0xA1B2,
        }
        .encode();
        assert_eq!(&bytes[..4], b"CTJS");
        assert_eq!(bytes[4], PROTO_V1);
        assert_eq!(bytes[5], KIND_ACTION);
        assert_eq!(&bytes[6..14], &0x0102030405060708u64.to_le_bytes());
        assert_eq!(&bytes[14..18], &4u32.to_le_bytes());
        assert_eq!(&bytes[18..], &0xA1B2u32.to_le_bytes());
    }

    #[test]
    fn golden_v1_vs_v2_observe_layout() {
        // Default tenant: byte-identical to the pre-tenancy v1 frame.
        let v1 = Message::Observe {
            id: 3,
            tenant: DEFAULT_TENANT,
            observation: vec![1.5],
        }
        .encode();
        assert_eq!(v1[4], PROTO_V1);
        assert_eq!(&v1[14..18], &8u32.to_le_bytes());
        assert_eq!(&v1[18..], &1.5f64.to_le_bytes());

        // Non-default tenant: v2 frame, payload = tenant id + features.
        let v2 = Message::Observe {
            id: 3,
            tenant: 0xDEADBEEF,
            observation: vec![1.5],
        }
        .encode();
        assert_eq!(v2[4], PROTO_VERSION);
        assert_eq!(&v2[14..18], &12u32.to_le_bytes());
        assert_eq!(&v2[18..22], &0xDEADBEEFu32.to_le_bytes());
        assert_eq!(&v2[22..], &1.5f64.to_le_bytes());
    }

    #[test]
    fn v2_observe_shorter_than_a_tenant_id_is_typed() {
        let mut bytes = Message::Observe {
            id: 1,
            tenant: 9,
            observation: vec![],
        }
        .encode();
        // Shrink the v2 payload below the 4-byte tenant prefix.
        bytes[14..18].copy_from_slice(&2u32.to_le_bytes());
        bytes.truncate(HEADER_LEN + 2);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadPayload(_))
        ));
    }

    #[test]
    fn typed_errors_for_each_header_violation() {
        let good = Message::Ping { id: 1 }.encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(Message::decode(&bad), Err(WireError::BadMagic(_))));

        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(Message::decode(&bad), Err(WireError::BadVersion(99)));

        let mut bad = good.clone();
        bad[5] = 0x7F;
        assert_eq!(Message::decode(&bad), Err(WireError::BadKind(0x7F)));

        for cut in 0..good.len() {
            assert_eq!(
                Message::decode(&good[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_payload() {
        let mut bytes = Message::Ping { id: 1 }.encode();
        bytes[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        // Only the header is present — rejection must come from the
        // length check, not from running out of payload bytes.
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::FrameTooLarge(MAX_PAYLOAD + 1))
        );
        let mut cursor = io::Cursor::new(bytes);
        assert!(matches!(
            Message::read_from(&mut cursor),
            Err(RecvError::Wire(WireError::FrameTooLarge(_)))
        ));
    }

    #[test]
    fn payload_shape_violations_are_typed() {
        let mut bytes = Message::Observe {
            id: 1,
            tenant: DEFAULT_TENANT,
            observation: vec![1.0],
        }
        .encode();
        bytes[14..18].copy_from_slice(&7u32.to_le_bytes());
        bytes.truncate(HEADER_LEN + 7);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadPayload(_))
        ));

        let mut bytes = Message::Error {
            id: 1,
            code: ErrorCode::ShuttingDown,
        }
        .encode();
        bytes[18..20].copy_from_slice(&999u16.to_le_bytes());
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::BadPayload("unknown error code"))
        );
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::ServerBusy,
            ErrorCode::BadObservation,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
    }

    /// The bit patterns of `f64`s, so NaN payloads compare exactly.
    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Decodes `bytes` with [`decode_frame`] into a row buffer holding
    /// `prefill` and checks it against [`Message::decode`]: the same
    /// outcome and length, an `Observe`'s features appended after the
    /// prefill, and the buffer untouched by anything else.
    fn row_decoder_agrees(bytes: &[u8], prefill: &[f64]) {
        let mut rows = prefill.to_vec();
        let got = decode_frame(bytes, &mut rows);
        let (kept, appended) = rows.split_at(prefill.len().min(rows.len()));
        assert_eq!(bits(kept), bits(prefill));
        match (Message::decode(bytes), got) {
            (Ok((message, used)), Ok((frame, frame_used))) => {
                assert_eq!(used, frame_used);
                match (message, frame) {
                    (
                        Message::Observe {
                            id,
                            tenant,
                            observation,
                        },
                        Frame::Observe {
                            id: frame_id,
                            tenant: frame_tenant,
                            len,
                        },
                    ) => {
                        assert_eq!((id, tenant), (frame_id, frame_tenant));
                        assert_eq!(len, observation.len());
                        assert_eq!(bits(appended), bits(&observation));
                    }
                    (message, Frame::Other(other)) => {
                        assert_eq!(other.encode(), message.encode());
                        assert!(appended.is_empty());
                    }
                    (message, frame) => {
                        panic!("decode gave {message:?}, the row decoder {frame:?}");
                    }
                }
            }
            (Err(error), Err(frame_error)) => {
                assert_eq!(error, frame_error);
                assert!(appended.is_empty());
            }
            (message, frame) => {
                panic!("decode gave {message:?}, the row decoder {frame:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn the_row_decoder_agrees_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
            prefill in prop::collection::vec(any::<f64>(), 0..6),
        ) {
            row_decoder_agrees(&bytes, &prefill);
        }

        #[test]
        fn the_row_decoder_agrees_on_cut_and_flipped_frames(
            kind in 0usize..8,
            id in any::<u64>(),
            v2 in prop::bool::ANY,
            tenant in any::<u32>(),
            payload in prop::collection::vec(any::<f64>(), 0..8),
            prefill in prop::collection::vec(any::<f64>(), 0..6),
            mangle in 0u8..4,
            at_seed in any::<u64>(),
            xor in 1u8..=255,
        ) {
            // Mostly observes, whose features go to the row buffer.
            let message = match kind {
                0..=3 => Message::Observe {
                    id,
                    tenant: if v2 { tenant } else { DEFAULT_TENANT },
                    observation: payload,
                },
                4 => Message::Ping { id },
                5 => Message::Action { id, action: tenant },
                6 => Message::Pong { id },
                _ => Message::Error { id, code: ErrorCode::Overloaded },
            };
            // Half the frames stay whole, a quarter get one byte
            // flipped and a quarter are cut short.
            let mut bytes = message.encode();
            let at = (at_seed as usize) % bytes.len();
            match mangle {
                0 => bytes[at] ^= xor,
                1 => bytes.truncate(at),
                _ => {}
            }
            row_decoder_agrees(&bytes, &prefill);
        }
    }

    #[test]
    fn mid_frame_eof_is_truncated_not_io() {
        let bytes = Message::Observe {
            id: 5,
            tenant: 17,
            observation: vec![2.5, -2.5],
        }
        .encode();
        for cut in 1..bytes.len() {
            let mut cursor = io::Cursor::new(&bytes[..cut]);
            match Message::read_from(&mut cursor) {
                Err(RecvError::Wire(_)) => {}
                other => panic!("cut {cut}: expected wire error, got {other:?}"),
            }
        }
    }
}
