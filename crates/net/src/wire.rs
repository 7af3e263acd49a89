//! Framing and payload primitives.
//!
//! Every message on the wire is one length-prefixed frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic           b"WOWP"
//!      4     1  protocol version (2)
//!      5     1  frame kind       (0 request, 1 response, 2 push)
//!      6     1  flags            (bit0 = trace prefix, others must be 0)
//!      7     1  reserved         (must be 0)
//!      8     8  request id, LE   (echoed in the response; 0 for pushes)
//!     16     4  payload length, LE  (≤ MAX_PAYLOAD)
//!     20     n  payload
//! ```
//!
//! When header byte 6 has [`FLAG_TRACE`] set, the first
//! [`TRACE_PREFIX_LEN`] payload bytes are a causal-trace context —
//! `trace_id` then parent `span_id`, both `u64` LE — which the reader
//! strips into [`Frame::trace`]. Version 1 (no flags byte) is retired: a
//! frame with any other version byte is rejected.
//!
//! All integers are little-endian. The decoder is written to survive a
//! hostile peer: every read is bounds-checked, payload lengths are capped
//! at [`MAX_PAYLOAD`] *before* any allocation, string lengths are checked
//! against the bytes actually remaining, and a payload with trailing bytes
//! after its message is rejected. Garbage therefore produces a
//! [`WireError`], never a panic or an unbounded allocation — exercised by
//! the mutation tests in `proto`.

use std::io::{Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"WOWP";

/// The protocol version this build speaks, written into every frame
/// header and sent in the `Hello` request.
pub const VERSION: u8 = 2;

/// Fixed frame-header size.
pub const HEADER_LEN: usize = 20;

/// Header flag (byte 6): the payload starts with a trace prefix.
pub const FLAG_TRACE: u8 = 1;

/// Size of the trace prefix: `trace_id` + parent `span_id`, `u64` LE.
pub const TRACE_PREFIX_LEN: usize = 16;

/// Hard cap on a frame payload. Larger lengths are rejected before any
/// buffer is allocated; honest payloads (screenfuls, QUEL results) are
/// kilobytes.
pub const MAX_PAYLOAD: usize = 4 << 20;

/// What kind of frame this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server, carries a request id the response will echo.
    Request = 0,
    /// Server → client, answers exactly one request.
    Response = 1,
    /// Server → client, unsolicited (`WindowRefreshed`); request id 0.
    Push = 2,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<FrameKind, WireError> {
        match b {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Response),
            2 => Ok(FrameKind::Push),
            other => Err(WireError::BadKind(other)),
        }
    }
}

/// One decoded frame: header fields plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request / response / push.
    pub kind: FrameKind,
    /// Request id (0 for pushes).
    pub req_id: u64,
    /// Trace context carried by the frame: `(trace_id, parent_span_id)`.
    /// `None` for frames without [`FLAG_TRACE`].
    pub trace: Option<(u64, u64)>,
    /// The message payload (decode with `proto`), trace prefix stripped.
    pub payload: Vec<u8>,
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Reserved header bytes were non-zero.
    BadReserved,
    /// Payload length exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload ended before the message did.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes that were left.
        got: usize,
    },
    /// A message or value tag the decoder does not know.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the message was fully decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (this build speaks {VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadReserved => write!(f, "reserved header bytes set"),
            WireError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Truncated { wanted, got } => {
                write!(f, "truncated payload: wanted {wanted} bytes, {got} left")
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for wow_core::WowError {
    fn from(e: WireError) -> Self {
        wow_core::WowError::Net(e.to_string())
    }
}

/// A frame-read failure: transport errors (timeouts, resets, EOF) are kept
/// apart from protocol violations so the server can treat a timeout as
/// "poll again" but a violation as "hang up".
#[derive(Debug)]
pub enum ReadError {
    /// The underlying socket failed; `WouldBlock`/`TimedOut` mean the read
    /// timeout elapsed with no frame started.
    Io(std::io::Error),
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// A frame started but its remaining bytes never arrived: the peer
    /// stalled mid-frame past the retry budget. Unlike a timeout before
    /// the first byte (poll again), the stream is now mid-frame and
    /// unrecoverable — hang up.
    Stalled,
    /// The bytes received were not a valid frame.
    Wire(WireError),
}

impl ReadError {
    /// Whether this is a read-timeout (no data yet — poll again).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ReadError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read failed: {e}"),
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::Stalled => write!(f, "peer stalled mid-frame"),
            ReadError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl From<ReadError> for wow_core::WowError {
    fn from(e: ReadError) -> Self {
        wow_core::WowError::Net(e.to_string())
    }
}

/// Write one frame, with the 16-byte trace prefix and [`FLAG_TRACE`] when
/// a trace context `(trace_id, parent_span_id)` is given. The frame is
/// assembled in one buffer and handed to `w` in a single `write_all`, so
/// on an unbuffered `TCP_NODELAY` socket one frame is one `write` system
/// call and one segment.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    req_id: u64,
    trace: Option<(u64, u64)>,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, kind, req_id, trace, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Append one frame to `buf`, as [`write_frame`] would write it. Several
/// frames appended to one buffer go out in one `write`.
pub fn encode_frame(
    buf: &mut Vec<u8>,
    kind: FrameKind,
    req_id: u64,
    trace: Option<(u64, u64)>,
    payload: &[u8],
) {
    let (flags, prefix) = match trace {
        Some(_) => (FLAG_TRACE, TRACE_PREFIX_LEN),
        None => (0, 0),
    };
    let len = payload.len() + prefix;
    debug_assert!(len <= MAX_PAYLOAD);
    buf.reserve(HEADER_LEN + len);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[VERSION, kind as u8, flags, 0]);
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    if let Some((trace_id, parent_id)) = trace {
        buf.extend_from_slice(&trace_id.to_le_bytes());
        buf.extend_from_slice(&parent_id.to_le_bytes());
    }
    buf.extend_from_slice(payload);
}

/// Read one frame. Distinguishes a clean EOF *between* frames (peer hung
/// up) from one *inside* a frame (truncation).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ReadError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte separately: EOF here is a clean close, not an error.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(ReadError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    header[0] = first[0];
    read_exact(r, &mut header[1..])?;
    if header[0..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[0..4]);
        return Err(ReadError::Wire(WireError::BadMagic(m)));
    }
    if header[4] != VERSION {
        return Err(ReadError::Wire(WireError::BadVersion(header[4])));
    }
    let kind = FrameKind::from_u8(header[5]).map_err(ReadError::Wire)?;
    // Every undefined flag bit must be zero so future flags fail loudly.
    let flags = header[6];
    if flags & !FLAG_TRACE != 0 || header[7] != 0 {
        return Err(ReadError::Wire(WireError::BadReserved));
    }
    let req_id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    if len as usize > MAX_PAYLOAD {
        return Err(ReadError::Wire(WireError::Oversized(len)));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload)?;
    let trace = if flags & FLAG_TRACE != 0 {
        if payload.len() < TRACE_PREFIX_LEN {
            return Err(ReadError::Wire(WireError::Truncated {
                wanted: TRACE_PREFIX_LEN,
                got: payload.len(),
            }));
        }
        let trace_id = u64::from_le_bytes(payload[0..8].try_into().expect("8"));
        let parent_id = u64::from_le_bytes(payload[8..16].try_into().expect("8"));
        payload.drain(0..TRACE_PREFIX_LEN);
        Some((trace_id, parent_id))
    } else {
        None
    };
    Ok(Frame {
        kind,
        req_id,
        trace,
        payload,
    })
}

/// `read_exact` that maps an early EOF to a truncation error (the frame
/// header promised more bytes than arrived). A read timeout here means we
/// are *mid-frame* — discarding the partial bytes would desynchronise the
/// stream — so timeouts are retried; a peer that stalls past the retry
/// budget gets [`ReadError::Stalled`] and the caller hangs up.
fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ReadError> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ReadError::Wire(WireError::Truncated {
                    wanted: buf.len(),
                    got: filled,
                }))
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stalls += 1;
                if stalls > 200 {
                    return Err(ReadError::Stalled);
                }
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(())
}

// -- Payload primitives -------------------------------------------------------

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append one tagged [`Value`](wow_rel::value::Value).
    pub fn value(&mut self, v: &wow_rel::value::Value) {
        use wow_rel::value::Value;
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(2);
                self.f64(*f);
            }
            Value::Text(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u8(4);
                self.bool(*b);
            }
            Value::Date(d) => {
                self.u8(5);
                self.i64(*d as i64);
            }
        }
    }

    /// Append a row: a `u16` arity then each value.
    pub fn row(&mut self, values: &[wow_rel::value::Value]) {
        self.u16(values.len() as u16);
        for v in values {
            self.value(v);
        }
    }
}

/// Bounds-checked payload reader.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                wanted: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8"),
        )))
    }

    /// Read a bool byte (anything non-zero is true).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Read a length-prefixed string. The length is validated against the
    /// bytes actually remaining *before* any copy, so a hostile length
    /// cannot trigger a large allocation.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::Truncated {
                wanted: len,
                got: self.remaining(),
            });
        }
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| WireError::BadUtf8)
    }

    /// Read one tagged value.
    pub fn value(&mut self) -> Result<wow_rel::value::Value, WireError> {
        use wow_rel::value::Value;
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(self.f64()?)),
            3 => Ok(Value::Text(self.str()?)),
            4 => Ok(Value::Bool(self.bool()?)),
            5 => Ok(Value::Date(self.i64()? as i32)),
            tag => Err(WireError::BadTag { what: "value", tag }),
        }
    }

    /// Read a row written by [`PayloadWriter::row`].
    pub fn row(&mut self) -> Result<Vec<wow_rel::value::Value>, WireError> {
        let n = self.u16()? as usize;
        // Each value is at least one tag byte; reject arities the payload
        // cannot possibly hold before reserving anything.
        if n > self.remaining() {
            return Err(WireError::Truncated {
                wanted: n,
                got: self.remaining(),
            });
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wow_rel::value::Value;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 42, None, b"hello").unwrap();
        assert_eq!(buf[4], VERSION);
        assert_eq!(buf[6], 0);
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.req_id, 42);
        assert_eq!(frame.trace, None);
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn traced_frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Push, 7, Some((0xAB, 0xCD)), b"body").unwrap();
        assert_eq!(buf[4], VERSION);
        assert_eq!(buf[6], FLAG_TRACE);
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Push);
        assert_eq!(frame.req_id, 7);
        assert_eq!(frame.trace, Some((0xAB, 0xCD)));
        assert_eq!(frame.payload, b"body", "prefix is stripped from payload");
    }

    #[test]
    fn v2_rejects_unknown_flags_and_short_trace_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, Some((9, 9)), b"").unwrap();
        // Any flag bit beyond FLAG_TRACE must be refused.
        let mut bad_flags = buf.clone();
        bad_flags[6] = FLAG_TRACE | 0x80;
        assert!(matches!(
            read_frame(&mut bad_flags.as_slice()),
            Err(ReadError::Wire(WireError::BadReserved))
        ));
        // A trace flag on a payload too short for the prefix is truncation.
        let mut short = buf.clone();
        short[16..20].copy_from_slice(&8u32.to_le_bytes());
        short.truncate(HEADER_LEN + 8);
        assert!(matches!(
            read_frame(&mut short.as_slice()),
            Err(ReadError::Wire(WireError::Truncated { .. }))
        ));
    }

    /// A writer that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, FrameKind::Response, 3, Some((1, 2)), b"payload").unwrap();
        assert_eq!(w.writes, 1, "header, trace prefix and payload in one write");
        write_frame(&mut w, FrameKind::Push, 0, None, b"two").unwrap();
        assert_eq!(w.writes, 2);
        let mut rest = w.bytes.as_slice();
        let first = read_frame(&mut rest).unwrap();
        assert_eq!(first.trace, Some((1, 2)));
        assert_eq!(first.payload, b"payload");
        assert_eq!(read_frame(&mut rest).unwrap().payload, b"two");
        assert!(rest.is_empty());
    }

    #[test]
    fn appended_frames_read_back_in_order() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, FrameKind::Push, 0, Some((5, 6)), b"first");
        encode_frame(&mut buf, FrameKind::Response, 9, None, b"second");
        let mut one = Vec::new();
        write_frame(&mut one, FrameKind::Push, 0, Some((5, 6)), b"first").unwrap();
        assert_eq!(buf[..one.len()], one[..], "same bytes as write_frame");
        let mut rest = buf.as_slice();
        let first = read_frame(&mut rest).unwrap();
        assert_eq!((first.kind, first.trace), (FrameKind::Push, Some((5, 6))));
        assert_eq!(first.payload, b"first");
        let second = read_frame(&mut rest).unwrap();
        assert_eq!((second.kind, second.req_id), (FrameKind::Response, 9));
        assert_eq!(second.payload, b"second");
        assert!(rest.is_empty());
    }

    #[test]
    fn eof_between_frames_is_clean() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(ReadError::Eof)));
    }

    #[test]
    fn truncated_header_and_payload_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Push, 0, None, b"abcdef").unwrap();
        for cut in 1..buf.len() {
            let r = read_frame(&mut &buf[..cut]);
            assert!(
                matches!(r, Err(ReadError::Wire(WireError::Truncated { .. }))),
                "cut at {cut} must be a truncation, got {r:?}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, None, b"x").unwrap();
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ReadError::Wire(WireError::Oversized(_)))
        ));
    }

    #[test]
    fn bad_magic_version_kind_reserved() {
        let good = {
            let mut buf = Vec::new();
            write_frame(&mut buf, FrameKind::Request, 1, None, b"").unwrap();
            buf
        };
        type Expect = fn(&WireError) -> bool;
        let cases: [(usize, Expect); 4] = [
            (0, |e| matches!(e, WireError::BadMagic(_))),
            (4, |e| matches!(e, WireError::BadVersion(_))),
            (5, |e| matches!(e, WireError::BadKind(_))),
            (6, |e| matches!(e, WireError::BadReserved)),
        ];
        for (byte, expect) in cases {
            let mut buf = good.clone();
            buf[byte] = 0xEE;
            match read_frame(&mut buf.as_slice()) {
                Err(ReadError::Wire(w)) => assert!(expect(&w), "byte {byte}: {w:?}"),
                other => panic!("byte {byte}: expected wire error, got {other:?}"),
            }
        }
    }

    #[test]
    fn value_roundtrip() {
        let values = vec![
            Value::Null,
            Value::Int(-7),
            Value::Float(2.5),
            Value::Text("naïve\0text".into()),
            Value::Bool(true),
            Value::Date(19000),
        ];
        let mut w = PayloadWriter::new();
        w.row(&values);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        let back = r.row().unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{values:?}"), format!("{back:?}"));
    }

    #[test]
    fn hostile_string_length_is_bounded() {
        let mut w = PayloadWriter::new();
        w.u32(u32::MAX); // claims 4 GiB of string
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = PayloadWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(WireError::TrailingBytes(1))));
    }
}
