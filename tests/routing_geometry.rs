//! Property test: the integer engine's `FloatExact` routing stays
//! bit-identical to the fake-quant reference across routing geometries,
//! not just the ShallowCaps-S / DeepCaps-S shapes of the equivalence
//! suite.
//!
//! Capsule dimensions are drawn around the routing lane width (8 words):
//! below it, on it, and past one and two lanes. The class count, the
//! routing iterations, `Q_DR` (2–8, inside f32's exact window) and the
//! rounding scheme vary too. The DeepCaps variant routes in its last
//! block's skip branch over `s > 1` spatial positions. Run it under
//! `QCN_NUM_THREADS` 1/2/7: the per-sample dispatch must not move a bit.

use proptest::prelude::*;
use qcn_repro::capsnet::descriptor::ModelDesc;
use qcn_repro::capsnet::{
    CapsNet, DeepCaps, DeepCapsConfig, ModelQuant, QuantCtx, ShallowCaps, ShallowCapsConfig,
};
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::export::pack_model;
use qcn_repro::intinfer::{IntModel, UnitMode};
use qcn_repro::tensor::Tensor;

/// Capsule dimensions on both sides of the 8-word lane.
const DIMS: [usize; 8] = [3, 5, 6, 8, 9, 12, 16, 17];

fn dim() -> impl Strategy<Value = usize> {
    (0..DIMS.len()).prop_map(|i| DIMS[i])
}

/// A deterministic batch whose values sit exactly on the `2^-frac` grid.
fn gridded_input(b: usize, c: usize, side: usize, frac: u8, seed: u64) -> Tensor {
    let n = b * c * side * side;
    let data: Vec<f32> = (0..n)
        .map(|i| ((i as u64 * 37 + seed * 11) % (1 << frac)) as f32 / (frac as f32).exp2())
        .collect();
    Tensor::from_vec(data, [b, c, side, side]).unwrap()
}

/// Uniform widths over `groups` groups with routing at `dr`; DeepCaps
/// blocks stream at `act`.
fn config(groups: usize, scheme: RoundingScheme, weight: u8, act: u8, dr: u8) -> ModelQuant {
    let mut config = ModelQuant::uniform(groups, act, scheme);
    for lq in &mut config.layers {
        lq.weight_frac = Some(weight);
        lq.dr_frac = Some(dr);
        lq.stream_frac = Some(act);
    }
    config.seed = 0x5EED;
    config
}

/// Asserts integer `FloatExact` ≡ fake-quant for every rounding scheme.
fn assert_bit_identical(
    model: &impl CapsNet,
    desc: &ModelDesc,
    x: &Tensor,
    widths: (u8, u8, u8),
    what: &str,
) {
    let (weight, act, dr) = widths;
    for scheme in RoundingScheme::EXTENDED {
        let config = config(desc.groups.len(), scheme, weight, act, dr);
        let qmodel = model.with_quantized_weights(&config);
        let want = qmodel.infer(x, &config, &mut QuantCtx::from_config(&config));
        let engine = IntModel::load(desc, &pack_model(model, &config)).unwrap();
        let got = engine.infer(x, 5, UnitMode::FloatExact);
        assert_eq!(got.dims(), want.dims(), "{what}");
        assert_eq!(
            got.data(),
            want.data(),
            "{what}, {scheme:?}, Qw {weight} Qa {act} Q_DR {dr}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shallowcaps_routing_geometries_match_reference(
        geometry in (dim(), dim(), 2usize..13, 1usize..5),
        widths in (3u8..7, 4u8..8, 2u8..9),
        seed in 0u64..1000,
    ) {
        let (primary_dim, digit_dim, num_classes, routing_iters) = geometry;
        let cfg = ShallowCapsConfig {
            primary_dim,
            digit_dim,
            num_classes,
            routing_iters,
            ..ShallowCapsConfig::small(1)
        };
        let model = ShallowCaps::new(cfg, seed);
        let x = gridded_input(3, 1, 16, 5, seed);
        assert_bit_identical(&model, &model.descriptor(), &x, widths, &format!("{cfg:?}"));
    }

    #[test]
    fn deepcaps_routing_geometries_match_reference(
        geometry in ((dim(), dim()), (2usize..5, 2usize..5), 2usize..13, 1usize..5),
        widths in (3u8..7, 4u8..8, 2u8..9),
        seed in 0u64..1000,
    ) {
        let ((dim2, dim3), (types2, types3), num_classes, routing_iters) = geometry;
        let mut cfg = DeepCapsConfig {
            num_classes,
            routing_iters,
            ..DeepCapsConfig::small(1)
        };
        // B3's skip branch routes B2's capsules into B3's, at every
        // spatial position of B3's output map.
        (cfg.blocks[0].dim, cfg.blocks[0].types) = (dim2, types2);
        (cfg.blocks[1].dim, cfg.blocks[1].types) = (dim3, types3);
        cfg.digit_dim = DIMS[(dim2 + dim3) % DIMS.len()];
        let model = DeepCaps::new(cfg.clone(), seed);
        let x = gridded_input(2, 1, 16, 5, seed);
        assert_bit_identical(&model, &model.descriptor(), &x, widths, &format!("{cfg:?}"));
    }
}
