//! The socket front-end's binary wire protocol.
//!
//! Frames are length-prefixed: a 4-byte big-endian payload length followed
//! by the payload. Payloads never exceed [`MAX_FRAME_BYTES`]; a peer
//! announcing a larger frame is malformed (the framing can no longer be
//! trusted, so the connection is closed).
//!
//! ## Request payload
//!
//! ```text
//! u8      kind (0 = infer, 1 = stats)
//! u64 be  request id (chosen by the client, echoed in the response)
//! -- kind 0 only:
//! u16 be  model-id length  |  UTF-8 model id bytes
//! u8      rank             |  rank × u32 be dims
//! f32 le  × product(dims)  sample data
//! ```
//!
//! ## Response payload
//!
//! ```text
//! u64 be  request id
//! u8      status tag
//! ...     tag-specific body
//! ```
//!
//! Status `0` carries a tensor (rank/dims/data as above: the per-sample
//! output capsules `[classes, dim]`). Status `8` answers a stats request
//! with a u32-length-prefixed UTF-8 Prometheus text body. Every other tag
//! mirrors one variant of [`SubmitError`] / [`ServeError`] with its
//! fields, so a remote client sees exactly the typed errors an in-process
//! caller sees.
//!
//! Multi-byte integers are big-endian ("network order"); tensor payloads
//! are little-endian `f32` bits — the dominant host layout, so the bulk
//! data usually memcpys straight through. Encoding is lossless in both
//! directions: `f32::to_bits`/`from_bits`, never a float format
//! conversion, which is what lets the socket equivalence suite demand
//! bit-identical capsules.

use crate::server::{ServeError, SubmitError};
use qcn_tensor::Tensor;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload (64 MiB) — far above any real
/// capsule tensor, small enough that a corrupt length prefix cannot make
/// the server allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Tensor rank ceiling on the wire (the engines use rank ≤ 4).
const MAX_WIRE_RANK: u8 = 8;

/// One client request: run `input` through model `model`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Registered model id to route to.
    pub model: String,
    /// The sample, shaped like the engine's per-sample `[c, h, w]`.
    pub input: Tensor,
}

/// Why a remote request failed — the wire mirror of the service's two
/// error layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Rejected at submission ([`SubmitError`]).
    Submit(SubmitError),
    /// Accepted but not answered with a result ([`ServeError`]).
    Serve(ServeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Submit(e) => write!(f, "{e}"),
            WireError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One server response, correlated to its request by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The request id this answers.
    pub id: u64,
    /// The output capsules, or the typed failure.
    pub result: Result<Tensor, WireError>,
}

/// A payload that does not parse. The byte offset points at the first
/// violated field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was malformed.
    pub reason: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire payload: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

fn bad(reason: impl Into<String>) -> DecodeError {
    DecodeError {
        reason: reason.into(),
    }
}

// Request kinds.
const KIND_INFER: u8 = 0;
const KIND_STATS: u8 = 1;

/// Response status tags as they appear on the wire (`payload[8]`).
///
/// Intermediaries like `qcn-router` classify responses by tag without
/// paying for a full decode (an `OK` body carries a whole tensor), so the
/// values are public protocol surface, frozen like the layout itself.
pub mod status {
    /// Successful inference: a tensor body follows.
    pub const OK: u8 = 0;
    /// `SubmitError::UnknownModel`.
    pub const UNKNOWN_MODEL: u8 = 1;
    /// `SubmitError::BadInput`.
    pub const BAD_INPUT: u8 = 2;
    /// `SubmitError::QueueFull`.
    pub const QUEUE_FULL: u8 = 3;
    /// `SubmitError::ShuttingDown`.
    pub const SHUTTING_DOWN: u8 = 4;
    /// `ServeError::DeadlineExceeded`.
    pub const DEADLINE_EXCEEDED: u8 = 5;
    /// `ServeError::EngineFailure`.
    pub const ENGINE_FAILURE: u8 = 6;
    /// `ServeError::WorkerLost`.
    pub const WORKER_LOST: u8 = 7;
    /// Answer to a stats request: Prometheus text body.
    pub const STATS: u8 = 8;
    /// `ServeError::Overloaded` — shed by admission control, distinct
    /// from `QUEUE_FULL` (which rejects at submit; shedding evicts work
    /// that was already accepted).
    pub const OVERLOADED: u8 = 9;
    /// `SubmitError::OffGrid` — a sample value off the engine's input
    /// grid, rejected at submit.
    pub const OFF_GRID: u8 = 10;
}

const TAG_OK: u8 = status::OK;
const TAG_UNKNOWN_MODEL: u8 = status::UNKNOWN_MODEL;
const TAG_BAD_INPUT: u8 = status::BAD_INPUT;
const TAG_QUEUE_FULL: u8 = status::QUEUE_FULL;
const TAG_SHUTTING_DOWN: u8 = status::SHUTTING_DOWN;
const TAG_DEADLINE_EXCEEDED: u8 = status::DEADLINE_EXCEEDED;
const TAG_ENGINE_FAILURE: u8 = status::ENGINE_FAILURE;
const TAG_WORKER_LOST: u8 = status::WORKER_LOST;
const TAG_STATS: u8 = status::STATS;
const TAG_OVERLOADED: u8 = status::OVERLOADED;
const TAG_OFF_GRID: u8 = status::OFF_GRID;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad(format!("truncated {what} at byte {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(bad(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_dims(out: &mut Vec<u8>, dims: &[usize]) {
    debug_assert!(dims.len() <= MAX_WIRE_RANK as usize);
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_be_bytes());
    }
}

fn get_dims(r: &mut Reader<'_>) -> Result<Vec<usize>, DecodeError> {
    let rank = r.u8("tensor rank")?;
    if rank == 0 || rank > MAX_WIRE_RANK {
        return Err(bad(format!(
            "tensor rank {rank} outside 1..={MAX_WIRE_RANK}"
        )));
    }
    (0..rank)
        .map(|_| Ok(r.u32("tensor dim")? as usize))
        .collect()
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_dims(out, t.dims());
    out.reserve(t.data().len() * 4);
    for v in t.data() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn get_tensor(r: &mut Reader<'_>) -> Result<Tensor, DecodeError> {
    let dims = get_dims(r)?;
    let len: usize = dims.iter().try_fold(1usize, |acc, &d| {
        acc.checked_mul(d)
            .filter(|&p| p.checked_mul(4).is_some_and(|b| b <= MAX_FRAME_BYTES))
            .ok_or_else(|| bad(format!("tensor dims {dims:?} overflow the frame limit")))
    })?;
    let raw = r.take(len * 4, "tensor data")?;
    let data: Vec<f32> = raw
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    Tensor::from_vec(data, dims.as_slice()).map_err(|e| bad(format!("tensor rebuild: {e:?}")))
}

/// One decoded client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// An inference request.
    Infer(WireRequest),
    /// A metrics pull: answered with a Prometheus-text stats response
    /// echoing `id`.
    Stats {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
}

/// Serializes one inference-request payload (without the frame length
/// prefix).
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    assert!(
        req.model.len() <= u16::MAX as usize,
        "model id longer than the wire format allows"
    );
    let mut out = Vec::with_capacity(17 + req.model.len() + req.input.data().len() * 4);
    out.push(KIND_INFER);
    out.extend_from_slice(&req.id.to_be_bytes());
    out.extend_from_slice(&(req.model.len() as u16).to_be_bytes());
    out.extend_from_slice(req.model.as_bytes());
    put_tensor(&mut out, &req.input);
    out
}

/// Serializes one stats-request payload (without the frame length prefix).
pub fn encode_stats_request(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(KIND_STATS);
    out.extend_from_slice(&id.to_be_bytes());
    out
}

/// Parses one request payload of either kind.
pub fn decode_request_frame(payload: &[u8]) -> Result<WireFrame, DecodeError> {
    let mut r = Reader::new(payload);
    let kind = r.u8("request kind")?;
    let id = r.u64("request id")?;
    let frame = match kind {
        KIND_INFER => {
            let model_len = r.u16("model id length")? as usize;
            let model = std::str::from_utf8(r.take(model_len, "model id")?)
                .map_err(|_| bad("model id is not UTF-8"))?
                .to_string();
            let input = get_tensor(&mut r)?;
            WireFrame::Infer(WireRequest { id, model, input })
        }
        KIND_STATS => WireFrame::Stats { id },
        other => return Err(bad(format!("unknown request kind {other}"))),
    };
    r.finish()?;
    Ok(frame)
}

/// Parses one inference-request payload (a stats frame is an error here).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, DecodeError> {
    match decode_request_frame(payload)? {
        WireFrame::Infer(req) => Ok(req),
        WireFrame::Stats { .. } => Err(bad("stats frame where an inference request was expected")),
    }
}

/// Serializes one response payload (without the frame length prefix).
pub fn encode_response(resp: &WireResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&resp.id.to_be_bytes());
    match &resp.result {
        Ok(t) => {
            out.push(TAG_OK);
            put_tensor(&mut out, t);
        }
        Err(WireError::Submit(SubmitError::UnknownModel(id))) => {
            out.push(TAG_UNKNOWN_MODEL);
            out.extend_from_slice(&(id.len() as u16).to_be_bytes());
            out.extend_from_slice(id.as_bytes());
        }
        Err(WireError::Submit(SubmitError::BadInput { expected, got })) => {
            out.push(TAG_BAD_INPUT);
            put_dims(&mut out, expected);
            put_dims(&mut out, got);
        }
        Err(WireError::Submit(SubmitError::OffGrid { index, frac })) => {
            out.push(TAG_OFF_GRID);
            out.extend_from_slice(&(*index as u64).to_be_bytes());
            out.push(*frac);
        }
        Err(WireError::Submit(SubmitError::QueueFull { capacity })) => {
            out.push(TAG_QUEUE_FULL);
            out.extend_from_slice(&(*capacity as u64).to_be_bytes());
        }
        Err(WireError::Submit(SubmitError::ShuttingDown)) => out.push(TAG_SHUTTING_DOWN),
        Err(WireError::Serve(ServeError::DeadlineExceeded)) => out.push(TAG_DEADLINE_EXCEEDED),
        Err(WireError::Serve(ServeError::EngineFailure(msg))) => {
            out.push(TAG_ENGINE_FAILURE);
            let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
            out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
            out.extend_from_slice(msg);
        }
        Err(WireError::Serve(ServeError::WorkerLost)) => out.push(TAG_WORKER_LOST),
        Err(WireError::Serve(ServeError::Overloaded)) => out.push(TAG_OVERLOADED),
    }
    out
}

/// Serializes one stats-response payload: the request id, the stats
/// status tag, and the Prometheus exposition text (u32-length-prefixed UTF-8,
/// truncated at a character boundary if it would overflow the frame
/// limit — far beyond any real registry).
pub fn encode_stats_response(id: u64, text: &str) -> Vec<u8> {
    let mut body = text;
    let max = MAX_FRAME_BYTES - 13; // id + tag + u32 length
    if body.len() > max {
        let mut cut = max;
        while !body.is_char_boundary(cut) {
            cut -= 1;
        }
        body = &body[..cut];
    }
    let mut out = Vec::with_capacity(13 + body.len());
    out.extend_from_slice(&id.to_be_bytes());
    out.push(TAG_STATS);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Parses one stats-response payload into `(id, prometheus_text)`.
pub fn decode_stats_response(payload: &[u8]) -> Result<(u64, String), DecodeError> {
    let mut r = Reader::new(payload);
    let id = r.u64("request id")?;
    let tag = r.u8("status tag")?;
    if tag != TAG_STATS {
        return Err(bad(format!("status tag {tag} is not a stats response")));
    }
    let len = r.u32("stats text length")? as usize;
    let text = std::str::from_utf8(r.take(len, "stats text")?)
        .map_err(|_| bad("stats text is not UTF-8"))?
        .to_string();
    r.finish()?;
    Ok((id, text))
}

/// Parses one response payload.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, DecodeError> {
    let mut r = Reader::new(payload);
    let id = r.u64("request id")?;
    let tag = r.u8("status tag")?;
    let result = match tag {
        TAG_OK => Ok(get_tensor(&mut r)?),
        TAG_UNKNOWN_MODEL => {
            let len = r.u16("model id length")? as usize;
            let model = std::str::from_utf8(r.take(len, "model id")?)
                .map_err(|_| bad("model id is not UTF-8"))?
                .to_string();
            Err(WireError::Submit(SubmitError::UnknownModel(model)))
        }
        TAG_BAD_INPUT => {
            let expected = get_dims(&mut r)?;
            let got = get_dims(&mut r)?;
            Err(WireError::Submit(SubmitError::BadInput { expected, got }))
        }
        TAG_OFF_GRID => Err(WireError::Submit(SubmitError::OffGrid {
            index: r.u64("off-grid index")? as usize,
            frac: r.u8("grid width")?,
        })),
        TAG_QUEUE_FULL => Err(WireError::Submit(SubmitError::QueueFull {
            capacity: r.u64("queue capacity")? as usize,
        })),
        TAG_SHUTTING_DOWN => Err(WireError::Submit(SubmitError::ShuttingDown)),
        TAG_DEADLINE_EXCEEDED => Err(WireError::Serve(ServeError::DeadlineExceeded)),
        TAG_ENGINE_FAILURE => {
            let len = r.u16("failure message length")? as usize;
            let msg = String::from_utf8_lossy(r.take(len, "failure message")?).into_owned();
            Err(WireError::Serve(ServeError::EngineFailure(msg)))
        }
        TAG_WORKER_LOST => Err(WireError::Serve(ServeError::WorkerLost)),
        TAG_OVERLOADED => Err(WireError::Serve(ServeError::Overloaded)),
        other => return Err(bad(format!("unknown response status tag {other}"))),
    };
    r.finish()?;
    Ok(WireResponse { id, result })
}

/// The correlation id of an encoded request payload (`None` if the
/// payload is too short to carry one).
pub fn request_id(payload: &[u8]) -> Option<u64> {
    payload
        .get(1..9)
        .map(|b| u64::from_be_bytes(b.try_into().expect("8-byte slice")))
}

/// The correlation id of an encoded response payload.
pub fn response_id(payload: &[u8]) -> Option<u64> {
    payload
        .get(0..8)
        .map(|b| u64::from_be_bytes(b.try_into().expect("8-byte slice")))
}

/// The [`status`] tag of an encoded response payload (`None` if the
/// payload is too short to carry one).
pub fn response_tag(payload: &[u8]) -> Option<u8> {
    payload.get(8).copied()
}

/// Replaces the correlation id of an encoded request payload in place.
///
/// Intermediaries use this to stamp their own id on a forwarded request
/// (then restore the client's id on the response) without re-encoding the
/// tensor body. Errors on payloads too short to carry an id; everything
/// after the id is untouched.
pub fn rewrite_request_id(payload: &mut [u8], id: u64) -> Result<(), DecodeError> {
    let Some(slot) = payload.get_mut(1..9) else {
        return Err(bad("request payload shorter than kind byte + id"));
    };
    slot.copy_from_slice(&id.to_be_bytes());
    Ok(())
}

/// Replaces the correlation id of an encoded response payload in place —
/// the inverse of [`rewrite_request_id`] on the return path.
pub fn rewrite_response_id(payload: &mut [u8], id: u64) -> Result<(), DecodeError> {
    if payload.len() < 9 {
        return Err(bad("response payload shorter than id + status tag"));
    }
    payload[0..8].copy_from_slice(&id.to_be_bytes());
    Ok(())
}

/// Writes one length-prefixed frame, returning the total wire bytes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    assert!(payload.len() <= MAX_FRAME_BYTES, "frame exceeds wire limit");
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    Ok(payload.len() as u64 + 4)
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; an EOF mid-frame or an oversized announced length is
/// an error (`UnexpectedEof` / `InvalidData`).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len[n..])?,
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(tag: f32) -> Tensor {
        Tensor::from_fn([2, 3], |idx| tag + (idx[0] * 3 + idx[1]) as f32 * 0.25)
    }

    #[test]
    fn request_roundtrips_bit_exactly() {
        let req = WireRequest {
            id: 0xDEAD_BEEF_0001,
            model: "shallow/int".to_string(),
            input: tensor(-1.5),
        };
        let decoded = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(decoded.id, req.id);
        assert_eq!(decoded.model, req.model);
        assert_eq!(decoded.input.dims(), req.input.dims());
        let got: Vec<u32> = decoded.input.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = req.input.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn response_roundtrips_every_variant() {
        let cases: Vec<Result<Tensor, WireError>> = vec![
            Ok(tensor(2.0)),
            Err(WireError::Submit(SubmitError::UnknownModel("x".into()))),
            Err(WireError::Submit(SubmitError::BadInput {
                expected: vec![1, 16, 16],
                got: vec![3, 8, 8],
            })),
            Err(WireError::Submit(SubmitError::OffGrid {
                index: 123,
                frac: 5,
            })),
            Err(WireError::Submit(SubmitError::QueueFull { capacity: 256 })),
            Err(WireError::Submit(SubmitError::ShuttingDown)),
            Err(WireError::Serve(ServeError::DeadlineExceeded)),
            Err(WireError::Serve(ServeError::EngineFailure(
                "int overflow in requant".into(),
            ))),
            Err(WireError::Serve(ServeError::WorkerLost)),
            Err(WireError::Serve(ServeError::Overloaded)),
        ];
        for (i, result) in cases.into_iter().enumerate() {
            let resp = WireResponse {
                id: i as u64,
                result,
            };
            let decoded = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(decoded, resp, "case {i}");
        }
    }

    #[test]
    fn stats_frames_roundtrip() {
        let payload = encode_stats_request(42);
        assert_eq!(
            decode_request_frame(&payload).unwrap(),
            WireFrame::Stats { id: 42 }
        );
        // The infer-only decoder rejects a stats frame instead of
        // misparsing it.
        assert!(decode_request(&payload).is_err());

        let text = "# TYPE qcn_serve_requests_submitted_total counter\n\
                    qcn_serve_requests_submitted_total 7\n";
        let resp = encode_stats_response(42, text);
        assert_eq!(
            decode_stats_response(&resp).unwrap(),
            (42, text.to_string())
        );
        // An infer response is not a stats response.
        let infer = encode_response(&WireResponse {
            id: 1,
            result: Err(WireError::Serve(ServeError::WorkerLost)),
        });
        assert!(decode_stats_response(&infer).is_err());
        // The generic response decoder rejects the stats tag (stats
        // responses correlate to stats requests by order, not here).
        assert!(decode_response(&resp).is_err());
        // Truncated body.
        let mut broken = encode_stats_response(1, "hello");
        broken.pop();
        assert!(decode_stats_response(&broken).is_err());
        // Unknown request kind.
        assert!(decode_request_frame(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn nan_and_infinity_survive_the_wire() {
        let input =
            Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0], [4]).unwrap();
        let req = WireRequest {
            id: 1,
            model: "m".into(),
            input,
        };
        let decoded = decode_request(&encode_request(&req)).unwrap();
        let got: Vec<u32> = decoded.input.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = req.input.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Truncated id.
        assert!(decode_request(&[0, 1, 2, 3]).is_err());
        // Model length pointing past the payload.
        let mut p = vec![0u8];
        p.extend_from_slice(&7u64.to_be_bytes());
        p.extend_from_slice(&100u16.to_be_bytes());
        p.push(b'm');
        assert!(decode_request(&p).is_err());
        // Unknown status tag.
        let mut p = 1u64.to_be_bytes().to_vec();
        p.push(250);
        assert!(decode_response(&p).is_err());
        // Trailing garbage after a valid response.
        let mut p = encode_response(&WireResponse {
            id: 1,
            result: Err(WireError::Serve(ServeError::WorkerLost)),
        });
        p.push(0);
        assert!(decode_response(&p).is_err());
        // Dim product overflowing the frame limit.
        let mut p = vec![0u8];
        p.extend_from_slice(&1u64.to_be_bytes());
        p.extend_from_slice(&1u16.to_be_bytes());
        p.push(b'm');
        p.push(4); // rank 4
        for _ in 0..4 {
            p.extend_from_slice(&0xFFFF_FFFFu32.to_be_bytes());
        }
        assert!(decode_request(&p).is_err());
        // Zero rank.
        let mut p = vec![0u8];
        p.extend_from_slice(&1u64.to_be_bytes());
        p.extend_from_slice(&1u16.to_be_bytes());
        p.push(b'm');
        p.push(0);
        assert!(decode_request(&p).is_err());
        // Trailing garbage after a stats request.
        let mut p = encode_stats_request(5);
        p.push(0);
        assert!(decode_request_frame(&p).is_err());
    }

    #[test]
    fn id_rewrites_touch_only_the_id_bytes() {
        let req = WireRequest {
            id: 7,
            model: "m".into(),
            input: tensor(0.5),
        };
        let original = encode_request(&req);
        let mut forwarded = original.clone();
        rewrite_request_id(&mut forwarded, 0xFEED_F00D).unwrap();
        assert_eq!(request_id(&forwarded), Some(0xFEED_F00D));
        let decoded = decode_request(&forwarded).unwrap();
        assert_eq!(decoded.id, 0xFEED_F00D);
        assert_eq!(decoded.model, req.model);
        let got: Vec<u32> = decoded.input.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = req.input.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // Restoring the original id restores the original bytes exactly.
        rewrite_request_id(&mut forwarded, 7).unwrap();
        assert_eq!(forwarded, original);

        let resp = encode_response(&WireResponse {
            id: 0xFEED_F00D,
            result: Ok(tensor(1.0)),
        });
        let mut returned = resp.clone();
        rewrite_response_id(&mut returned, 7).unwrap();
        assert_eq!(response_id(&returned), Some(7));
        assert_eq!(response_tag(&returned), Some(status::OK));
        assert_eq!(decode_response(&returned).unwrap().id, 7);
        assert_eq!(returned[8..], resp[8..]);

        // Stats requests carry an id in the same slot.
        let mut stats = encode_stats_request(3);
        rewrite_request_id(&mut stats, 9).unwrap();
        assert_eq!(
            decode_request_frame(&stats).unwrap(),
            WireFrame::Stats { id: 9 }
        );

        // Too-short payloads are typed errors, not panics.
        assert!(rewrite_request_id(&mut [0u8; 8], 1).is_err());
        assert!(rewrite_response_id(&mut [0u8; 8], 1).is_err());
        assert_eq!(request_id(&[0u8; 8]), None);
        assert_eq!(response_id(&[0u8; 7]), None);
        assert_eq!(response_tag(&[0u8; 8]), None);
    }

    #[test]
    fn status_tags_match_the_encoded_wire_bytes() {
        let cases: Vec<(Result<Tensor, WireError>, u8)> = vec![
            (Ok(tensor(2.0)), status::OK),
            (
                Err(WireError::Submit(SubmitError::UnknownModel("x".into()))),
                status::UNKNOWN_MODEL,
            ),
            (
                Err(WireError::Submit(SubmitError::BadInput {
                    expected: vec![1],
                    got: vec![2],
                })),
                status::BAD_INPUT,
            ),
            (
                Err(WireError::Submit(SubmitError::OffGrid {
                    index: 0,
                    frac: 5,
                })),
                status::OFF_GRID,
            ),
            (
                Err(WireError::Submit(SubmitError::QueueFull { capacity: 1 })),
                status::QUEUE_FULL,
            ),
            (
                Err(WireError::Submit(SubmitError::ShuttingDown)),
                status::SHUTTING_DOWN,
            ),
            (
                Err(WireError::Serve(ServeError::DeadlineExceeded)),
                status::DEADLINE_EXCEEDED,
            ),
            (
                Err(WireError::Serve(ServeError::EngineFailure("e".into()))),
                status::ENGINE_FAILURE,
            ),
            (
                Err(WireError::Serve(ServeError::WorkerLost)),
                status::WORKER_LOST,
            ),
            (
                Err(WireError::Serve(ServeError::Overloaded)),
                status::OVERLOADED,
            ),
        ];
        for (result, tag) in cases {
            let payload = encode_response(&WireResponse { id: 1, result });
            assert_eq!(response_tag(&payload), Some(tag));
        }
        assert_eq!(
            response_tag(&encode_stats_response(1, "x")),
            Some(status::STATS)
        );
    }

    #[test]
    fn frames_roundtrip_and_enforce_the_size_limit() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(n, 9);
        let n = write_frame(&mut buf, b"").unwrap();
        assert_eq!(n, 4);
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // Oversized announced length.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let err = read_frame(&mut io::Cursor::new(huge.to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // EOF mid-frame.
        let mut partial = 10u32.to_be_bytes().to_vec();
        partial.extend_from_slice(b"abc");
        let err = read_frame(&mut io::Cursor::new(partial)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
