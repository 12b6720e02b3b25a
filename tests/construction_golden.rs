//! Build-independent construction golden: ShallowCaps-S and DeepCaps-S
//! at fixed seeds, pinned by the CRC-32 of every packed group and by the
//! output words of the pure-integer datapath.
//!
//! The CRCs fix the seed → weights mapping, the parameter registration
//! order and the group structure; the output words fix how the integer
//! engine executes that structure. [`UnitMode::Integer`] uses no float
//! anywhere and the input is built with integer arithmetic, so every
//! build (with or without FMA, any target CPU) must reproduce these
//! values. A change to any of them changes what a seed means.

use qcn_repro::capsnet::{
    CapsNet, DeepCaps, DeepCapsConfig, ModelQuant, ShallowCaps, ShallowCapsConfig,
};
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::export::pack_model;
use qcn_repro::intinfer::{IntModel, IntTensor, UnitMode};
use qcn_repro::tensor::Tensor;

/// Two 16×16 single-channel samples on the Q1.5 input grid.
fn input() -> Tensor {
    let data: Vec<f32> = (0..2 * 16 * 16u64)
        .map(|i| ((i * 37 + (i / 256) * 13 + 11) % 32) as f32 / 32.0)
        .collect();
    Tensor::from_vec(data, [2, 1, 16, 16]).unwrap()
}

/// Uniform RTN widths with routing at `dr`; blocks stream at `frac`.
fn config(groups: usize, frac: u8, dr: u8) -> ModelQuant {
    let mut config = ModelQuant::uniform(groups, frac, RoundingScheme::RoundToNearest);
    for lq in &mut config.layers {
        lq.dr_frac = Some(dr);
        lq.stream_frac = Some(frac);
    }
    config
}

/// Asserts the packed groups' CRC-32s and the pure-integer output words.
fn assert_golden(model: &impl CapsNet, config: &ModelQuant, crcs: &[u32], words: &[i64]) {
    let packed = pack_model(model, config);
    let got: Vec<u32> = packed.groups.iter().map(|g| g.crc32).collect();
    assert_eq!(got, crcs, "{}: packed weights moved", model.name());
    let engine = IntModel::load(&model.descriptor(), &packed).unwrap();
    let x = IntTensor::from_f32_on_grid(&input(), 5);
    let out = engine.infer_raw(x, UnitMode::Integer);
    assert_eq!(out.dims(), &[2, 10, 8]);
    assert_eq!(out.data(), words, "{}: integer output moved", model.name());
}

#[test]
fn shallowcaps_s_construction_is_pinned() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let crcs = [0xae3e3e3e, 0x9a84c307, 0xe1c83193];
    let words = [
        0, 0, -2, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, -2, 0, -2, -10, -4, -12, 0, -6, 6, -2, -2, 0, 0,
        -2, -2, -2, -2, -2, -2, 0, 2, 0, -4, 4, 0, -4, -2, 0, 2, -4, -2, 2, 0, 0, 2, -2, 0, 0, 0,
        0, -2, 0, -2, 0, -2, -2, 0, -2, 0, 0, 2, -6, 2, 6, -6, -2, 0, 0, 2, -4, 6, -2, -2, -4, 2,
        0, 0, -2, 0, 0, 0, 0, -2, 0, 0, 0, -2, 2, 0, 0, -2, -2, -2, -8, -8, -8, 2, -8, 2, -2, -6,
        0, 0, 0, -2, 0, -2, -2, 0, 2, 0, 10, -10, 8, 2, -8, -2, 0, 0, -4, -2, 0, 0, 2, 0, 0, 0, -2,
        0, 0, -2, 2, 0, 0, -2, -2, -2, 0, -2, 0, 0, -4, 2, 6, -2, 0, 0, 0, -4, 0, 2, -2, -2, -4, 0,
        0, 0,
    ];
    assert_golden(&model, &config(3, 5, 4), &crcs, &words);
}

#[test]
fn deepcaps_s_construction_is_pinned() {
    let model = DeepCaps::new(DeepCapsConfig::small(1), 9);
    let crcs = [0xb445d1f8, 0xf06a99d3, 0x5ed80bff, 0xa7dfb773];
    let words = [
        -4, 0, -4, -4, 0, 0, 0, 0, 4, -8, 0, -4, -4, 0, -8, -4, 0, -4, 4, 0, 0, 0, -4, 4, 0, 0, 0,
        0, -4, -8, 0, -4, -4, -4, -4, -4, -4, 0, -4, -4, 0, 4, 4, 0, -4, -4, 0, -8, -4, -4, 0, 0,
        0, 0, -4, -4, -4, 0, -4, 0, -4, -4, 0, -4, 0, -4, 0, 0, 0, -4, 0, -4, 0, 0, 0, 0, -4, -4,
        0, -4, -4, 0, -4, -4, -4, 0, 0, 0, 0, -4, -4, 0, -4, 0, -4, -4, 0, -4, 4, 0, 0, 0, -4, 0,
        -4, 0, 0, 0, -4, -4, -4, -4, 0, -4, 0, 0, 0, 4, -4, -4, 0, 0, 0, -4, -4, 0, 0, -4, 0, -4,
        0, 0, 0, 0, -4, -4, -4, 0, -4, -4, -4, 0, 0, -4, -4, 0, -4, 0, -4, -4, 0, 0, 0, 0, -4, 0,
        -4, -4, 0, -4,
    ];
    assert_golden(&model, &config(4, 10, 8), &crcs, &words);
}
