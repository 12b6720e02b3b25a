//! Property-based robustness of the serving wire protocol: the decoders
//! that face untrusted bytes (`read_frame`, `decode_request_frame`,
//! `decode_response`) must return **typed errors, never panic, never
//! over-allocate** — for truncations, bit flips, and hostile length
//! prefixes alike. A router sits between untrusted clients and the
//! fleet, so every one of these paths is reachable from the network.

use proptest::prelude::*;
use qcn_repro::serve::wire::{
    self, decode_request_frame, decode_response, encode_request, encode_response,
    encode_stats_request, read_frame, WireError, WireFrame, WireRequest, WireResponse,
    MAX_FRAME_BYTES,
};
use qcn_repro::serve::{ServeError, SubmitError};
use qcn_repro::tensor::Tensor;
use std::io::Cursor;

const MODEL_NAMES: [&str; 4] = ["m", "fq-rtn", "int-sr", "a-rather-long-model-name"];

fn any_tensor() -> impl Strategy<Value = Tensor> {
    (
        (1usize..4, 1usize..4, 1usize..4),
        proptest::collection::vec(-8.0f32..8.0, 1..28),
    )
        .prop_map(|((c, h, w), vals)| {
            Tensor::from_fn([c, h, w], |idx| {
                let i = (idx[0] * h + idx[1]) * w + idx[2];
                vals[i % vals.len()]
            })
        })
}

fn any_request() -> impl Strategy<Value = WireRequest> {
    (0u64..u64::MAX, 0usize..MODEL_NAMES.len(), any_tensor()).prop_map(|(id, m, input)| {
        WireRequest {
            id,
            model: MODEL_NAMES[m].to_string(),
            input,
        }
    })
}

/// Every arm of the response union: a tensor body or one of the typed
/// failures (the selector walks all eight encodings).
fn any_response() -> impl Strategy<Value = WireResponse> {
    (
        0u64..u64::MAX,
        0usize..8,
        any_tensor(),
        (0usize..1 << 20, 0u8..32),
    )
        .prop_map(|(id, sel, t, (index, frac))| {
            let result = match sel {
                0 => Ok(t),
                1 => Err(WireError::Submit(SubmitError::QueueFull { capacity: 7 })),
                2 => Err(WireError::Submit(SubmitError::UnknownModel(
                    "missing".to_string(),
                ))),
                3 => Err(WireError::Submit(SubmitError::ShuttingDown)),
                4 => Err(WireError::Serve(ServeError::DeadlineExceeded)),
                5 => Err(WireError::Serve(ServeError::EngineFailure(
                    "router: no replica answered".to_string(),
                ))),
                6 => Err(WireError::Submit(SubmitError::OffGrid { index, frac })),
                _ => Err(WireError::Serve(ServeError::WorkerLost)),
            };
            WireResponse { id, result }
        })
}

/// A framed request as it travels on the socket: 4-byte BE length prefix
/// plus payload.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    wire::write_frame(&mut out, payload).unwrap();
    out
}

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Round-trip: every encodable request decodes back bit-identically
    /// (id, model name, tensor dims, and raw f32 bits).
    #[test]
    fn request_roundtrip_is_lossless(req in any_request()) {
        let payload = encode_request(&req);
        prop_assert_eq!(wire::request_id(&payload), Some(req.id));
        let WireFrame::Infer(back) = decode_request_frame(&payload).unwrap() else {
            panic!("infer request decoded as a different frame kind");
        };
        prop_assert_eq!(back.id, req.id);
        prop_assert_eq!(&back.model, &req.model);
        prop_assert_eq!(back.input.shape().dims(), req.input.shape().dims());
        prop_assert_eq!(tensor_bits(&back.input), tensor_bits(&req.input));
    }

    /// Round-trip for responses, including every typed error arm.
    #[test]
    fn response_roundtrip_is_lossless(resp in any_response()) {
        let payload = encode_response(&resp);
        prop_assert_eq!(wire::response_id(&payload), Some(resp.id));
        let back = decode_response(&payload).unwrap();
        prop_assert_eq!(back.id, resp.id);
        match (&back.result, &resp.result) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.shape().dims(), b.shape().dims());
                prop_assert_eq!(tensor_bits(a), tensor_bits(b));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => panic!("Ok/Err arm flipped in transit"),
        }
    }

    /// Truncating a valid frame at any point yields a typed decode error
    /// (payload cut) or a clean `Ok(None)`/`UnexpectedEof` (prefix cut) —
    /// never a panic, never a bogus success.
    #[test]
    fn truncated_frames_fail_typed(req in any_request(), keep in 0usize..64) {
        let full = framed(&encode_request(&req));
        let cut = keep.min(full.len() - 1);
        let mut r = Cursor::new(&full[..cut]);
        match read_frame(&mut r) {
            Ok(Some(payload)) => {
                // cut < full.len(), so a "whole" frame can only mean the
                // payload itself was shortened — the decoder must reject.
                prop_assert!(decode_request_frame(&payload).is_err());
            }
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only before any byte"),
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
        }
        // The payload-level decoder on the truncated payload itself.
        let payload = encode_request(&req);
        let cut = keep.min(payload.len() - 1);
        prop_assert!(decode_request_frame(&payload[..cut]).is_err());
    }

    /// Single-bit flips anywhere in a framed request: the reader and the
    /// decoders either succeed (the flip hit a benign byte — the id, a
    /// tensor value) or fail typed. Nothing panics, and a corrupted
    /// length prefix can never demand more than `MAX_FRAME_BYTES`.
    #[test]
    fn bit_flips_never_panic(req in any_request(), byte in 0usize..512, bit in 0u8..8) {
        let mut full = framed(&encode_request(&req));
        let n = full.len();
        full[byte % n] ^= 1 << bit;
        let mut r = Cursor::new(&full[..]);
        if let Ok(Some(payload)) = read_frame(&mut r) {
            prop_assert!(payload.len() <= MAX_FRAME_BYTES);
            let _ = decode_request_frame(&payload); // must not panic
            let _ = decode_response(&payload); // wrong kind on purpose
        }
    }

    /// Completely random payloads against every decoder: typed results
    /// only. (Stats requests are 9 bytes; random blobs exercise every
    /// length check in between.)
    #[test]
    fn random_payloads_fail_typed(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        let _ = decode_request_frame(&bytes);
        let _ = decode_response(&bytes);
        let _ = wire::decode_stats_response(&bytes);
    }

    /// A hostile length prefix announcing more than `MAX_FRAME_BYTES` is
    /// rejected by `read_frame` *before* allocating the announced size.
    #[test]
    fn oversized_announcements_are_rejected(extra in 1u32..u32::MAX / 2, junk in 0u8..=255) {
        let announced = (MAX_FRAME_BYTES as u32).saturating_add(extra);
        let mut hostile = announced.to_be_bytes().to_vec();
        hostile.extend(std::iter::repeat_n(junk, 16));
        let mut r = Cursor::new(&hostile[..]);
        let err = read_frame(&mut r).expect_err("oversized frame must be refused");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

/// A stats request survives id rewriting (the router's multiplexing
/// primitive) and still decodes as a stats frame with the new id.
#[test]
fn id_rewrite_preserves_frame_kind() {
    let mut payload = encode_stats_request(42);
    wire::rewrite_request_id(&mut payload, 7777).unwrap();
    match decode_request_frame(&payload).unwrap() {
        WireFrame::Stats { id } => assert_eq!(id, 7777),
        other => panic!("stats frame decoded as {other:?}"),
    }
}
