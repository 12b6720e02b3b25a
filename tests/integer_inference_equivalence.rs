//! End-to-end cross-validation of the integer inference engine against the
//! fake-quant f32 reference.
//!
//! The contract under test: loading a `PackedModel` into `IntModel` and
//! running the integer datapath in `FloatExact` unit mode produces output
//! capsules **bit-identical** to `CapsNet::infer` under the same
//! configuration — for every rounding scheme (TRN, RTN, RTNE, SR) and
//! every thread count — on both architectures. `Integer` unit mode (no
//! float arithmetic anywhere) must stay within a small absolute envelope
//! of the reference, since its squash/softmax carry a few-ulp error bound.

use qcn_repro::capsnet::{
    CapsNet, DeepCaps, DeepCapsConfig, ModelQuant, QuantCtx, ShallowCaps, ShallowCapsConfig,
};
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::export::pack_model;
use qcn_repro::intinfer::kernels::AccWidth;
use qcn_repro::intinfer::{IntModel, UnitMode};
use qcn_repro::tensor::{parallel, Tensor};

/// A deterministic batch whose values sit exactly on the `2^-frac` grid.
fn gridded_input(b: usize, c: usize, side: usize, frac: u8, seed: i64) -> Tensor {
    let scale = (frac as f32).exp2();
    let n = b * c * side * side;
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let raw = (i as i64 * 37 + seed * 11) % (1 << frac.min(10));
            raw as f32 / scale
        })
        .collect();
    Tensor::from_vec(data, [b, c, side, side]).unwrap()
}

/// Reference fake-quant logits: quantized weights + rounded activations.
fn reference_logits(model: &impl CapsNet, config: &ModelQuant, x: &Tensor) -> Tensor {
    let qmodel = model.with_quantized_weights(config);
    let mut ctx = QuantCtx::from_config(config);
    qmodel.infer(x, config, &mut ctx)
}

fn shallow_setup() -> (ShallowCaps, Tensor) {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let x = gridded_input(3, 1, 16, 5, 1);
    (model, x)
}

fn deepcaps_setup() -> (DeepCaps, Tensor) {
    let model = DeepCaps::new(DeepCapsConfig::small(1), 9);
    let x = gridded_input(2, 1, 16, 5, 2);
    (model, x)
}

fn shallow_config(scheme: RoundingScheme) -> ModelQuant {
    let mut config = ModelQuant::uniform(3, 5, scheme);
    for lq in &mut config.layers {
        lq.dr_frac = Some(4);
    }
    config.seed = 0xBEEF;
    config
}

fn deepcaps_config(scheme: RoundingScheme) -> ModelQuant {
    let mut config = ModelQuant::uniform(4, 5, scheme);
    for lq in &mut config.layers {
        lq.dr_frac = Some(4);
        lq.stream_frac = Some(5);
    }
    config.seed = 0xBEEF;
    config
}

#[test]
fn shallowcaps_integer_logits_match_reference_exactly() {
    let (model, x) = shallow_setup();
    let desc = model.descriptor();
    for scheme in RoundingScheme::EXTENDED {
        let config = shallow_config(scheme);
        let want = reference_logits(&model, &config, &x);
        let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
        let got = engine.infer(&x, 5, UnitMode::FloatExact);
        assert_eq!(got.dims(), want.dims());
        assert_eq!(got.data(), want.data(), "scheme {scheme:?}");
    }
}

#[test]
fn deepcaps_integer_logits_match_reference_exactly() {
    let (model, x) = deepcaps_setup();
    let desc = model.descriptor();
    for scheme in RoundingScheme::EXTENDED {
        let config = deepcaps_config(scheme);
        let want = reference_logits(&model, &config, &x);
        let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
        let got = engine.infer(&x, 5, UnitMode::FloatExact);
        assert_eq!(got.dims(), want.dims());
        assert_eq!(got.data(), want.data(), "scheme {scheme:?}");
    }
}

#[test]
fn integer_engine_is_thread_count_invariant_and_matches_reference() {
    // One thread, two threads, an odd seven: the keyed epilogues must make
    // every count produce the single-thread bits, which equal the
    // reference's (itself thread-invariant for the same reason).
    let (model, x) = deepcaps_setup();
    let desc = model.descriptor();
    let config = deepcaps_config(RoundingScheme::Stochastic);
    let want = reference_logits(&model, &config, &x);
    let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
    for threads in [1usize, 2, 7] {
        let got = parallel::with_threads(threads, || engine.infer(&x, 5, UnitMode::FloatExact));
        assert_eq!(got.data(), want.data(), "threads {threads}");
    }
}

#[test]
fn shallowcaps_thread_invariance() {
    let (model, x) = shallow_setup();
    let desc = model.descriptor();
    let config = shallow_config(RoundingScheme::Stochastic);
    let want = reference_logits(&model, &config, &x);
    let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
    for threads in [1usize, 2, 7] {
        let got = parallel::with_threads(threads, || engine.infer(&x, 5, UnitMode::FloatExact));
        assert_eq!(got.data(), want.data(), "threads {threads}");
    }
}

#[test]
fn pure_integer_units_stay_close_to_reference() {
    // Integer squash/softmax have few-ulp error bounds per unit, but the
    // routing loop feeds couplings back on themselves for three iterations
    // at Q1.4, so a one-ulp coupling difference can amplify into several
    // output ulps. The envelope below (a dozen ulps of the 2^-4 routing
    // grid) is a sanity bound on that amplification, not bit-exactness —
    // that is what FloatExact mode is for.
    for scheme in [RoundingScheme::Truncation, RoundingScheme::RoundToNearest] {
        let (model, x) = shallow_setup();
        let config = shallow_config(scheme);
        let want = reference_logits(&model, &config, &x);
        let engine = IntModel::load(&model.descriptor(), &pack_model(&model, &config)).unwrap();
        let got = engine.infer(&x, 5, UnitMode::Integer);
        let max_diff = got
            .data()
            .iter()
            .zip(want.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 0.75,
            "integer units drifted {max_diff} from reference ({scheme:?})"
        );
    }
}

#[test]
fn integer_predictions_match_reference() {
    let (model, x) = shallow_setup();
    let config = shallow_config(RoundingScheme::RoundToNearestEven);
    let qmodel = model.with_quantized_weights(&config);
    let mut ctx = QuantCtx::from_config(&config);
    let want = qmodel.predict(&x, &config, &mut ctx);
    let engine = IntModel::load(&model.descriptor(), &pack_model(&model, &config)).unwrap();
    let got = engine.predict(&x, 5, UnitMode::FloatExact);
    assert_eq!(got, want);
}

#[test]
fn load_rejects_structurally_invalid_blobs() {
    let (model, _) = shallow_setup();
    let desc = model.descriptor();
    // Full-precision group: no integer form.
    let mut config = shallow_config(RoundingScheme::Truncation);
    config.layers[0].weight_frac = None;
    let packed = pack_model(&model, &config);
    assert!(IntModel::load(&desc, &packed).is_err());
    // Missing act width.
    let mut config = shallow_config(RoundingScheme::Truncation);
    config.layers[2].act_frac = None;
    let packed = pack_model(&model, &config);
    assert!(IntModel::load(&desc, &packed).is_err());
    // DeepCaps block without a streaming width.
    let (dmodel, _) = deepcaps_setup();
    let mut dconfig = deepcaps_config(RoundingScheme::Truncation);
    dconfig.layers[1].stream_frac = None;
    let packed = pack_model(&dmodel, &dconfig);
    assert!(IntModel::load(&dmodel.descriptor(), &packed).is_err());
}

#[test]
fn load_proves_accumulator_widths() {
    let (model, _) = shallow_setup();
    let desc = model.descriptor();
    // ShallowCaps-S L2 (PrimaryCaps) reduces K = 24·5·5 = 600 terms; with
    // 8-bit weights and activations the worst-case sum stays below 2^24,
    // so i32 accumulators are exact. L1 reads the unclamped model input:
    // its width is proved per batch.
    let config = ModelQuant::uniform(3, 7, RoundingScheme::RoundToNearest);
    let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
    let widths = engine.accumulator_widths();
    assert_eq!(widths[0], vec![None]);
    assert_eq!(widths[1], vec![Some(AccWidth::I32)]);
    // Every 8-bit weight is stored once, in two bytes.
    let weights: usize = desc.groups.iter().map(|(_, g)| g.weight_count()).sum();
    assert_eq!(engine.weight_bytes(), 2 * weights);
    // 16-bit weights and activations over the same K = 600 overflow i32
    // in the worst case: the proof falls back to i64.
    let config = ModelQuant::uniform(3, 15, RoundingScheme::RoundToNearest);
    let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
    assert_eq!(engine.accumulator_widths()[1], vec![Some(AccWidth::I64)]);
    // Routing (L3 only) sums at most max(ti, dd)·2^(2·Q_DR): with ti = 128
    // that fits i32 at Q_DR 4 (2^15) but not at Q_DR 14 (2^35).
    for (dr, width) in [(4, AccWidth::I32), (14, AccWidth::I64)] {
        let mut config = shallow_config(RoundingScheme::RoundToNearest);
        for lq in &mut config.layers {
            lq.dr_frac = Some(dr);
        }
        let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
        assert_eq!(engine.routing_widths(), vec![vec![], vec![], vec![width]]);
    }
}

#[test]
fn huge_on_grid_model_input_stays_exact() {
    // The model input is on-grid but not clamped. Raw words past i16 fail
    // the narrow proof, so L1 takes the i64 path and is never wrapped; the
    // sums stay inside f32's exact window, so the reference is exact too.
    let (model, mut x) = shallow_setup();
    for (i, v) in x.data_mut().iter_mut().enumerate().step_by(7) {
        *v = if i % 2 == 0 { 1250.0 } else { -1000.5 };
    }
    let desc = model.descriptor();
    for scheme in RoundingScheme::EXTENDED {
        let config = shallow_config(scheme);
        let want = reference_logits(&model, &config, &x);
        let engine = IntModel::load(&desc, &pack_model(&model, &config)).unwrap();
        for threads in [1usize, 2, 7] {
            let got = parallel::with_threads(threads, || engine.infer(&x, 5, UnitMode::FloatExact));
            assert_eq!(
                got.data(),
                want.data(),
                "scheme {scheme:?}, threads {threads}"
            );
        }
    }
}
