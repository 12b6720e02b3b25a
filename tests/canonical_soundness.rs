//! Property test of the canonical-config promise: two configurations with
//! equal canonical forms ([`ModelDesc::canonical`]) select the same
//! computation, so they infer bit-identical logits. Search-time caches
//! (the evaluator memo, prefix checkpoints) and the integer engine's
//! loader rely on it.
//!
//! Each case draws every width (`Qw`, `Qa`, `Q_DR`, streaming) on every
//! group, then a twin that differs only in fields the canonical form
//! clears or resolves: `Q_DR` on a group that never routes, a streaming
//! width outside a block, or an explicit `Q_DR` equal to its fallback
//! (`Qa` for a routed layer, the streaming width in a routed block)
//! against leaving it unset. Both models (untrained, small configs), all
//! four rounding schemes; run it under `QCN_NUM_THREADS` 1/2/7.

use proptest::prelude::*;
use qcn_repro::capsnet::descriptor::{GroupDesc, ModelDesc};
use qcn_repro::capsnet::{
    CapsNet, DeepCaps, DeepCapsConfig, LayerQuant, ModelQuant, QuantCtx, ShallowCaps,
    ShallowCapsConfig,
};
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::export::pack_model;
use qcn_repro::intinfer::{IntModel, UnitMode};
use qcn_repro::tensor::Tensor;

/// Per group: `(Qw, Qa)`, `(Q_DR, streaming width)` and the twin choices
/// `(dr_choice, twin_stream)`.
type GroupDraw = ((u8, u8), (u8, u8), (u8, u8));

fn group_draws() -> impl Strategy<Value = Vec<GroupDraw>> {
    proptest::collection::vec(((3u8..9, 3u8..9), (2u8..9, 3u8..9), (0u8..3, 0u8..10)), 4)
}

/// A config and its twin for `desc`, from one draw per group.
fn config_pair(
    desc: &ModelDesc,
    draws: &[GroupDraw],
    scheme: RoundingScheme,
    seed: u64,
) -> (ModelQuant, ModelQuant) {
    let mut a = ModelQuant::full_precision(desc.groups.len());
    a.scheme = scheme;
    a.seed = seed;
    let mut b = a.clone();
    for (((_, group), &draw), (qa, qb)) in desc
        .groups
        .iter()
        .zip(draws)
        .zip(a.layers.iter_mut().zip(b.layers.iter_mut()))
    {
        let ((w, act), (dr, stream), (dr_choice, twin_stream)) = draw;
        let is_block = matches!(group, GroupDesc::Block(_));
        *qa = LayerQuant {
            weight_frac: Some(w),
            act_frac: Some(act),
            dr_frac: Some(dr),
            stream_frac: Some(stream),
        };
        *qb = *qa;
        if group.has_routing() {
            // `Q_DR` falls back to the width the routing layer stores at.
            let fallback = if is_block { stream } else { act };
            match dr_choice {
                0 => (qa.dr_frac, qb.dr_frac) = (Some(fallback), None),
                1 => (qa.dr_frac, qb.dr_frac) = (None, Some(fallback)),
                _ => {}
            }
        } else {
            match dr_choice {
                0 => qb.dr_frac = None,
                1 => qa.dr_frac = None,
                _ => qb.dr_frac = Some(dr + 1),
            }
        }
        if !is_block {
            qb.stream_frac = (twin_stream >= 5).then_some(twin_stream);
        }
    }
    (a, b)
}

/// Two samples on the Q1.5 input grid.
fn input(seed: u64) -> Tensor {
    let data: Vec<f32> = (0..2 * 16 * 16u64)
        .map(|i| ((i * 29 + seed * 7 + (i / 256) * 3) % 32) as f32 / 32.0)
        .collect();
    Tensor::from_vec(data, [2, 1, 16, 16]).unwrap()
}

fn fake_quant_logits(model: &impl CapsNet, config: &ModelQuant, x: &Tensor) -> Vec<u32> {
    let qmodel = model.with_quantized_weights(config);
    let y = qmodel.infer(x, config, &mut QuantCtx::from_config(config));
    y.data().iter().map(|v| v.to_bits()).collect()
}

fn integer_logits(model: &impl CapsNet, config: &ModelQuant, x: &Tensor) -> Vec<u32> {
    let engine = IntModel::load(&model.descriptor(), &pack_model(model, config)).unwrap();
    let y = engine.infer(x, 5, UnitMode::FloatExact);
    y.data().iter().map(|v| v.to_bits()).collect()
}

/// The converse guard: a canonical form must not merge configurations
/// that differ in a field some group reads (`Qa` everywhere, the streaming
/// width of a block, the resolved `Q_DR` of a routing group).
fn assert_keeps_read_fields(desc: &ModelDesc, a: &ModelQuant, canon: &ModelQuant) {
    for (g, (_, group)) in desc.groups.iter().enumerate() {
        let mut edits: Vec<fn(&mut LayerQuant, &LayerQuant)> =
            vec![|lq, _| lq.act_frac = lq.act_frac.map(|v| v + 1)];
        if matches!(group, GroupDesc::Block(_)) {
            edits.push(|lq, _| lq.stream_frac = lq.stream_frac.map(|v| v + 1));
        }
        if group.has_routing() {
            edits.push(|lq, resolved| lq.dr_frac = resolved.dr_frac.map(|v| v + 1));
        }
        for edit in edits {
            let mut c = a.clone();
            edit(&mut c.layers[g], &canon.layers[g]);
            assert_ne!(desc.canonical(&c), *canon, "group {g}: {a} vs {c}");
        }
    }
}

/// Asserts the canonical promise for every scheme on `model`.
fn assert_sound(model: &impl CapsNet, draws: &[GroupDraw], seed: u64) {
    let desc = model.descriptor();
    let x = input(seed);
    for scheme in RoundingScheme::EXTENDED {
        let (a, b) = config_pair(&desc, draws, scheme, seed);
        let canon = desc.canonical(&a);
        assert_eq!(canon, desc.canonical(&b), "{a} vs {b}");
        assert_eq!(desc.canonical(&canon), canon, "canonical is idempotent");
        assert_eq!(model.canonical_config(&a), canon);
        assert_keeps_read_fields(&desc, &a, &canon);
        assert_eq!(
            fake_quant_logits(model, &a, &x),
            fake_quant_logits(model, &b, &x),
            "fake-quant: {a} vs {b}"
        );
        assert_eq!(
            integer_logits(model, &a, &x),
            integer_logits(model, &b, &x),
            "integer: {a} vs {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shallowcaps_equal_canonical_forms_infer_identically(
        draws in group_draws(),
        seed in 0u64..1000,
    ) {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), seed);
        assert_sound(&model, &draws, seed);
    }

    #[test]
    fn deepcaps_equal_canonical_forms_infer_identically(
        draws in group_draws(),
        seed in 0u64..1000,
    ) {
        let model = DeepCaps::new(DeepCapsConfig::small(1), seed);
        assert_sound(&model, &draws, seed);
    }
}
