//! Wire protocol of the PRIMACY compression service.
//!
//! Everything a client sends is a **frame**: a 4-byte little-endian body
//! length followed by the body. Request and response bodies share one
//! 24-byte fixed header followed by a variable payload:
//!
//! ```text
//! frame:    u32 LE body_len        body_len in [24, cap]
//! body:
//!   [0..2]   magic  "Ps"
//!   [2]      protocol version      (currently 1)
//!   [3]      opcode (request) / status (response)
//!   [4]      codec selector (request) / opcode echo (response)
//!   [5]      flags (request, must be 0) / codec echo (response)
//!   [6..8]   reserved, must be 0
//!   [8..16]  request id, u64 LE    (echoed verbatim in the response)
//!   [16..24] tenant id, u64 LE     (echoed verbatim in the response)
//!   [24..]   payload
//! ```
//!
//! The request payload is the bytes to (de)compress; the response payload is
//! the result on [`Status::Ok`] and a short UTF-8 diagnostic on every error
//! status. The frame length prefix is the *only* length field — the payload
//! runs to the end of the body, so a forged inner length cannot disagree
//! with the framing.
//!
//! This module is a designated untrusted-input surface (it declares
//! `clippy::indexing_slicing` below): every byte here may come from a
//! hostile socket, so decoding uses checked reads only and every length is
//! capped before it sizes an allocation. The wire layout is pinned
//! byte-exactly by the golden vectors in `tests/golden/serve_*.hex`
//! (`tests/golden_format.rs`).
#![warn(clippy::indexing_slicing)]

use std::io::Read;

use primacy_codecs::{read_array, CodecKind};

/// First two body bytes of every frame, both directions.
pub const MAGIC: [u8; 2] = [b'P', b's'];
/// Current protocol version byte.
pub const VERSION: u8 = 1;
/// Fixed body-header size (everything before the payload).
pub const HEADER_BYTES: usize = 24;
/// Size of the frame length prefix.
pub const LEN_BYTES: usize = 4;

/// Default cap on a request body (header + payload): 8 MiB.
///
/// This is the service's decompression-bomb stance at the edge: a length
/// prefix claiming more than the cap is rejected *before* any allocation,
/// with [`ProtoError::FrameTooLarge`], and the connection keeps its framing
/// (the oversized frame is never read off the wire).
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Response bodies may be modestly larger than request bodies: compressing
/// incompressible data expands it slightly (stored DEFLATE blocks cost
/// ~5 bytes per 64 KiB plus container overhead). One eighth plus a constant
/// covers every in-tree codec's worst case.
pub fn max_response_body(max_request_body: usize) -> usize {
    max_request_body
        .saturating_add(max_request_body / 8)
        .saturating_add(256)
}

/// Operation requested by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compress the payload with the selected codec.
    Compress,
    /// Decompress the payload with the selected codec.
    Decompress,
    /// Health check: empty payload, echoed back immediately (never queued).
    Ping,
}

impl Op {
    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            Op::Compress => 1,
            Op::Decompress => 2,
            Op::Ping => 3,
        }
    }

    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Result<Op, ProtoError> {
        match b {
            1 => Ok(Op::Compress),
            2 => Ok(Op::Decompress),
            3 => Ok(Op::Ping),
            other => Err(ProtoError::BadOpcode(other)),
        }
    }
}

/// Codec selector carried in every request: the five paper codecs plus the
/// full PRIMACY pipeline (preconditioner + default backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeCodec {
    /// DEFLATE/zlib-class backend.
    Zlib,
    /// LZO-class fast byte LZ.
    Lzr,
    /// bzip2-class BWT codec.
    Bwt,
    /// FPC floating-point predictor.
    Fpc,
    /// fpzip-class range-coded predictor.
    Fpz,
    /// The full PRIMACY pipeline (requires 8-byte-aligned payloads).
    Primacy,
}

impl ServeCodec {
    /// Every selector, in wire-byte order.
    pub const ALL: [ServeCodec; 6] = [
        ServeCodec::Zlib,
        ServeCodec::Lzr,
        ServeCodec::Bwt,
        ServeCodec::Fpc,
        ServeCodec::Fpz,
        ServeCodec::Primacy,
    ];

    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            ServeCodec::Zlib => 0,
            ServeCodec::Lzr => 1,
            ServeCodec::Bwt => 2,
            ServeCodec::Fpc => 3,
            ServeCodec::Fpz => 4,
            ServeCodec::Primacy => 5,
        }
    }

    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Result<ServeCodec, ProtoError> {
        match b {
            0 => Ok(ServeCodec::Zlib),
            1 => Ok(ServeCodec::Lzr),
            2 => Ok(ServeCodec::Bwt),
            3 => Ok(ServeCodec::Fpc),
            4 => Ok(ServeCodec::Fpz),
            5 => Ok(ServeCodec::Primacy),
            other => Err(ProtoError::BadCodec(other)),
        }
    }

    /// The codec this selector runs, or `None` for [`ServeCodec::Primacy`],
    /// which runs the whole pipeline.
    pub fn kind(self) -> Option<CodecKind> {
        match self {
            ServeCodec::Zlib => Some(CodecKind::Zlib),
            ServeCodec::Lzr => Some(CodecKind::Lzr),
            ServeCodec::Bwt => Some(CodecKind::Bwt),
            ServeCodec::Fpc => Some(CodecKind::Fpc),
            ServeCodec::Fpz => Some(CodecKind::Fpz),
            ServeCodec::Primacy => None,
        }
    }

    /// Stable name used in reports and the load generator's CLI.
    pub fn name(self) -> &'static str {
        match self {
            ServeCodec::Zlib => "zlib",
            ServeCodec::Lzr => "lzr",
            ServeCodec::Bwt => "bwt",
            ServeCodec::Fpc => "fpc",
            ServeCodec::Fpz => "fpz",
            ServeCodec::Primacy => "primacy",
        }
    }

    /// Look a selector up by its [`ServeCodec::name`].
    pub fn from_name(name: &str) -> Option<ServeCodec> {
        ServeCodec::ALL.iter().copied().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for ServeCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; the payload is the operation's result.
    Ok,
    /// The bounded work queue was full — explicit backpressure. Retry later.
    Busy,
    /// The request waited in the queue past its deadline and was cancelled.
    Timeout,
    /// The request was structurally invalid (bad header fields or payload
    /// constraints, e.g. a PRIMACY payload not 8-byte aligned).
    BadRequest,
    /// The codec rejected the payload (corrupt compressed input, …).
    CodecFailed,
    /// The request or its result exceeded a configured size cap.
    TooLarge,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// A worker failed internally; the request had no effect.
    Internal,
}

impl Status {
    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Busy => 1,
            Status::Timeout => 2,
            Status::BadRequest => 3,
            Status::CodecFailed => 4,
            Status::TooLarge => 5,
            Status::ShuttingDown => 6,
            Status::Internal => 7,
        }
    }

    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Result<Status, ProtoError> {
        match b {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Busy),
            2 => Ok(Status::Timeout),
            3 => Ok(Status::BadRequest),
            4 => Ok(Status::CodecFailed),
            5 => Ok(Status::TooLarge),
            6 => Ok(Status::ShuttingDown),
            7 => Ok(Status::Internal),
            other => Err(ProtoError::BadStatus(other)),
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::Busy => "busy",
            Status::Timeout => "timeout",
            Status::BadRequest => "bad-request",
            Status::CodecFailed => "codec-failed",
            Status::TooLarge => "too-large",
            Status::ShuttingDown => "shutting-down",
            Status::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// Typed protocol violation. Every decode failure is one of these — a
/// malformed frame can never panic the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ended before the structure it claims to hold.
    Truncated,
    /// The length prefix exceeds the configured cap.
    FrameTooLarge {
        /// Body length the prefix claimed.
        claimed: u64,
        /// Configured cap it exceeded.
        cap: u64,
    },
    /// The body does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown codec-selector byte.
    BadCodec(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// A reserved header field was not zero.
    NonZeroReserved,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::FrameTooLarge { claimed, cap } => {
                write!(
                    f,
                    "frame body of {claimed} bytes exceeds the {cap}-byte cap"
                )
            }
            ProtoError::BadMagic => write!(f, "bad frame magic"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {b}"),
            ProtoError::BadCodec(b) => write!(f, "unknown codec selector {b}"),
            ProtoError::BadStatus(b) => write!(f, "unknown status {b}"),
            ProtoError::NonZeroReserved => write!(f, "reserved header bytes are not zero"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Requested operation.
    pub op: Op,
    /// Codec selector.
    pub codec: ServeCodec,
    /// Client-chosen id, echoed verbatim in the response.
    pub request_id: u64,
    /// Tenant the request is accounted to.
    pub tenant: u64,
    /// Bytes to operate on.
    pub payload: Vec<u8>,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Opcode byte of the request this answers (0 when unparseable).
    pub op_echo: u8,
    /// Codec byte of the request this answers (0 when unparseable).
    pub codec_echo: u8,
    /// Request id echoed from the request (0 when unparseable).
    pub request_id: u64,
    /// Tenant id echoed from the request (0 when unparseable).
    pub tenant: u64,
    /// Result bytes on [`Status::Ok`], UTF-8 diagnostic otherwise.
    pub payload: Vec<u8>,
}

/// Validate the shared 24-byte body header; returns the two direction-
/// specific bytes at offsets 3 and 4, the byte at 5, and the two u64 ids.
fn decode_header(body: &[u8]) -> Result<(u8, u8, u8, u64, u64), ProtoError> {
    let magic: [u8; 2] = read_array(body, 0).map_err(|_| ProtoError::Truncated)?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = *body.get(2).ok_or(ProtoError::Truncated)?;
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let b3 = *body.get(3).ok_or(ProtoError::Truncated)?;
    let b4 = *body.get(4).ok_or(ProtoError::Truncated)?;
    let b5 = *body.get(5).ok_or(ProtoError::Truncated)?;
    let reserved: [u8; 2] = read_array(body, 6).map_err(|_| ProtoError::Truncated)?;
    if reserved != [0, 0] {
        return Err(ProtoError::NonZeroReserved);
    }
    let request_id = u64::from_le_bytes(read_array(body, 8).map_err(|_| ProtoError::Truncated)?);
    let tenant = u64::from_le_bytes(read_array(body, 16).map_err(|_| ProtoError::Truncated)?);
    Ok((b3, b4, b5, request_id, tenant))
}

fn encode_header(out: &mut Vec<u8>, b3: u8, b4: u8, b5: u8, request_id: u64, tenant: u64) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(b3);
    out.push(b4);
    out.push(b5);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&tenant.to_le_bytes());
}

/// Prepend the length prefix to a finished body. Fails (rather than
/// truncating) if the body cannot be described by a u32 prefix.
fn frame_body(body: Vec<u8>) -> Result<Vec<u8>, ProtoError> {
    let len = u32::try_from(body.len()).map_err(|_| ProtoError::FrameTooLarge {
        claimed: body.len() as u64,
        cap: u32::MAX as u64,
    })?;
    let mut out = Vec::with_capacity(body.len().saturating_add(LEN_BYTES));
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

impl Request {
    /// Encode this request as one complete frame (length prefix included).
    pub fn encode_frame(&self) -> Result<Vec<u8>, ProtoError> {
        let mut body = Vec::with_capacity(HEADER_BYTES.saturating_add(self.payload.len()));
        encode_header(
            &mut body,
            self.op.to_byte(),
            self.codec.to_byte(),
            0,
            self.request_id,
            self.tenant,
        );
        body.extend_from_slice(&self.payload);
        frame_body(body)
    }

    /// Decode a request from a complete frame body (no length prefix).
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let (op_byte, codec_byte, flags, request_id, tenant) = decode_header(body)?;
        if flags != 0 {
            return Err(ProtoError::NonZeroReserved);
        }
        let payload = body.get(HEADER_BYTES..).ok_or(ProtoError::Truncated)?;
        Ok(Request {
            op: Op::from_byte(op_byte)?,
            codec: ServeCodec::from_byte(codec_byte)?,
            request_id,
            tenant,
            payload: payload.to_vec(),
        })
    }
}

impl Response {
    /// Encode this response as one complete frame (length prefix included).
    pub fn encode_frame(&self) -> Result<Vec<u8>, ProtoError> {
        let mut body = Vec::with_capacity(HEADER_BYTES.saturating_add(self.payload.len()));
        encode_header(
            &mut body,
            self.status.to_byte(),
            self.op_echo,
            self.codec_echo,
            self.request_id,
            self.tenant,
        );
        body.extend_from_slice(&self.payload);
        frame_body(body)
    }

    /// Decode a response from a complete frame body (no length prefix).
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let (status_byte, op_echo, codec_echo, request_id, tenant) = decode_header(body)?;
        let payload = body.get(HEADER_BYTES..).ok_or(ProtoError::Truncated)?;
        Ok(Response {
            status: Status::from_byte(status_byte)?,
            op_echo,
            codec_echo,
            request_id,
            tenant,
            payload: payload.to_vec(),
        })
    }
}

/// The body length a frame's prefix claims, checked against the cap
/// `max_body` and the header minimum before any body byte is touched.
fn body_len(prefix: [u8; LEN_BYTES], max_body: usize) -> Result<usize, ProtoError> {
    let claimed = u32::from_le_bytes(prefix) as usize;
    if claimed > max_body {
        return Err(ProtoError::FrameTooLarge {
            claimed: claimed as u64,
            cap: max_body as u64,
        });
    }
    if claimed < HEADER_BYTES {
        return Err(ProtoError::Truncated);
    }
    Ok(claimed)
}

/// Error reading a frame off a socket: transport failure or protocol
/// violation.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read failed (includes timeouts and resets).
    Io(std::io::Error),
    /// The bytes read violate the protocol.
    Proto(ProtoError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<ProtoError> for FrameError {
    fn from(e: ProtoError) -> Self {
        FrameError::Proto(e)
    }
}

/// Read one complete frame body from `r`.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary (the
/// peer closed between frames). A length prefix above `max_body` fails with
/// [`ProtoError::FrameTooLarge`] before any body allocation — the cap, not
/// the attacker, bounds memory. EOF inside a frame is
/// [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_body: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; LEN_BYTES];
    let mut got = 0usize;
    while got < LEN_BYTES {
        let n = match r.read(prefix.get_mut(got..).unwrap_or(&mut [])) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        };
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(ProtoError::Truncated.into());
        }
        got = got.saturating_add(n);
    }
    let claimed = body_len(prefix, max_body)?;
    // `claimed` is bounded by `max_body`, so this allocation is capped by
    // configuration, not by the wire.
    let mut body = vec![0u8; claimed];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(Some(body)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(ProtoError::Truncated.into())
        }
        Err(e) => Err(FrameError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            op: Op::Compress,
            codec: ServeCodec::Zlib,
            request_id: 0x0102_0304_0506_0708,
            tenant: 42,
            payload: b"abcdefgh".to_vec(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        let frame = req.encode_frame().unwrap();
        let mut cursor = &frame[..];
        let body = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(cursor.is_empty(), "the frame was not read whole");
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn response_roundtrip_all_statuses() {
        for status in [
            Status::Ok,
            Status::Busy,
            Status::Timeout,
            Status::BadRequest,
            Status::CodecFailed,
            Status::TooLarge,
            Status::ShuttingDown,
            Status::Internal,
        ] {
            let resp = Response {
                status,
                op_echo: Op::Decompress.to_byte(),
                codec_echo: ServeCodec::Bwt.to_byte(),
                request_id: 7,
                tenant: 9,
                payload: vec![1, 2, 3],
            };
            let frame = resp.encode_frame().unwrap();
            let body = read_frame(&mut &frame[..], DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap();
            assert_eq!(Response::decode(&body).unwrap(), resp);
            assert_eq!(Status::from_byte(status.to_byte()).unwrap(), status);
        }
    }

    #[test]
    fn byte_mappings_roundtrip() {
        for op in [Op::Compress, Op::Decompress, Op::Ping] {
            assert_eq!(Op::from_byte(op.to_byte()).unwrap(), op);
        }
        for codec in ServeCodec::ALL {
            assert_eq!(ServeCodec::from_byte(codec.to_byte()).unwrap(), codec);
            assert_eq!(ServeCodec::from_name(codec.name()), Some(codec));
        }
        assert!(Op::from_byte(0).is_err());
        assert!(Op::from_byte(4).is_err());
        assert!(ServeCodec::from_byte(6).is_err());
        assert!(Status::from_byte(8).is_err());
        assert_eq!(ServeCodec::from_name("nope"), None);
    }

    #[test]
    fn kind_names_the_same_codec() {
        let kinds: Vec<CodecKind> = ServeCodec::ALL.iter().filter_map(|c| c.kind()).collect();
        assert_eq!(kinds, CodecKind::ALL);
        for codec in ServeCodec::ALL {
            if let Some(kind) = codec.kind() {
                assert_eq!(kind.to_string(), codec.name());
            }
        }
        assert_eq!(ServeCodec::Primacy.kind(), None);
    }

    #[test]
    fn decode_rejects_each_header_violation() {
        let frame = sample_request().encode_frame().unwrap();
        let body = frame[LEN_BYTES..].to_vec();

        let mut bad = body.clone();
        bad[0] = b'X';
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadMagic));

        let mut bad = body.clone();
        bad[2] = 9;
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadVersion(9)));

        let mut bad = body.clone();
        bad[3] = 200;
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadOpcode(200)));

        let mut bad = body.clone();
        bad[4] = 77;
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadCodec(77)));

        let mut bad = body.clone();
        bad[5] = 1;
        assert_eq!(Request::decode(&bad), Err(ProtoError::NonZeroReserved));

        let mut bad = body.clone();
        bad[6] = 1;
        assert_eq!(Request::decode(&bad), Err(ProtoError::NonZeroReserved));

        assert_eq!(Request::decode(&body[..10]), Err(ProtoError::Truncated));
    }

    #[test]
    fn read_frame_handles_eof_and_caps() {
        let frame = sample_request().encode_frame().unwrap();
        // Clean EOF at a frame boundary.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let mut cursor = &two[..];
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_some());
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_some());
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());

        // EOF mid-prefix and mid-body.
        for cut in [1, 3, LEN_BYTES + 2, frame.len() - 1] {
            let mut cursor = &frame[..cut];
            let err = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap_err();
            assert!(
                matches!(err, FrameError::Proto(ProtoError::Truncated)),
                "cut {cut}: {err}"
            );
        }

        // A forged huge prefix fails before reading (or allocating) a body,
        // and a tiny cap rejects a real frame by its prefix alone.
        let mut forged = Vec::new();
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        for (bytes, cap) in [(&forged, DEFAULT_MAX_FRAME), (&frame, 8)] {
            let err = read_frame(&mut &bytes[..], cap).unwrap_err();
            assert!(matches!(
                err,
                FrameError::Proto(ProtoError::FrameTooLarge { .. })
            ));
        }

        // A body too small to hold the header is truncated.
        let mut small = Vec::new();
        small.extend_from_slice(&4u32.to_le_bytes());
        small.extend_from_slice(&[0; 4]);
        let err = read_frame(&mut &small[..], 64).unwrap_err();
        assert!(matches!(err, FrameError::Proto(ProtoError::Truncated)));
    }

    #[test]
    fn response_cap_exceeds_request_cap() {
        assert!(max_response_body(DEFAULT_MAX_FRAME) > DEFAULT_MAX_FRAME);
        // And it never overflows.
        assert!(max_response_body(usize::MAX) >= usize::MAX - 1);
    }
}
