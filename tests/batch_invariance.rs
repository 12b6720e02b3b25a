//! Batch invariance of both inference engines under every rounding scheme:
//! a sample's output bits must not depend on which batch it rides in, its
//! slot there, or its batch mates. Stochastic rounding is keyed by the
//! model seed, a fixed rounding-point id, a hash of each sample's stage
//! input and the in-sample offset, so it is batch-invariant too — the
//! property that lets the server fuse every batch.
//!
//! Property: for any partition of a fixed sample set into batches, each
//! batched output equals the one-sample inference of the same sample, on
//! `FakeQuantEngine` and on `IntEngine` (float-exact units), for TRN, RTN,
//! RTNE and SR. CI runs this suite under `QCN_NUM_THREADS` ∈ {1, 2, 7}.

use proptest::prelude::*;
use qcn_repro::capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::export::pack_model;
use qcn_repro::intinfer::{IntModel, UnitMode};
use qcn_repro::serve::{FakeQuantEngine, IntEngine, ServeEngine};
use qcn_repro::tensor::Tensor;
use std::sync::OnceLock;

const SAMPLES: usize = 7;

fn config(scheme: RoundingScheme) -> ModelQuant {
    let mut config = ModelQuant::uniform(3, 5, scheme);
    for lq in &mut config.layers {
        lq.dr_frac = Some(4);
    }
    config.seed = 0x5EED;
    config
}

/// Deterministic on-grid sample `[1, 16, 16]` at Q1.5; samples 5 and 6
/// repeat 0 and 1, so identical inputs share batches too.
fn sample(i: usize) -> Vec<f32> {
    let seed = (i % 5) as i64;
    (0..256i64)
        .map(|p| ((p * 37 + seed * 11).rem_euclid(32)) as f32 / 32.0)
        .collect()
}

fn batch(indices: &[usize]) -> Tensor {
    let data: Vec<f32> = indices.iter().flat_map(|&i| sample(i)).collect();
    Tensor::from_vec(data, [indices.len(), 1, 16, 16]).unwrap()
}

/// One engine per (datapath, scheme) with its one-sample reference outputs.
struct Case {
    label: String,
    engine: Box<dyn ServeEngine>,
    alone: Vec<Vec<f32>>,
}

fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
        let mut cases = Vec::new();
        for scheme in RoundingScheme::EXTENDED {
            let config = config(scheme);
            let int_model =
                IntModel::load(&model.descriptor(), &pack_model(&model, &config)).unwrap();
            let engines: [Box<dyn ServeEngine>; 2] = [
                Box::new(FakeQuantEngine::new(&model, config, [1, 16, 16])),
                Box::new(IntEngine::new(
                    int_model,
                    5,
                    UnitMode::FloatExact,
                    [1, 16, 16],
                )),
            ];
            for engine in engines {
                let alone = (0..SAMPLES)
                    .map(|i| engine.infer_batch(&batch(&[i])).data().to_vec())
                    .collect();
                cases.push(Case {
                    label: format!("{} {scheme:?}", engine.kind()),
                    engine,
                    alone,
                });
            }
        }
        cases
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `labels[i]` names the batch sample `i` joins; every non-empty label
    /// is one batch, in ascending sample order rotated by `rotate`.
    #[test]
    fn any_partition_into_batches_matches_one_sample_calls(
        labels in proptest::collection::vec(0usize..4, SAMPLES),
        rotate in 0usize..SAMPLES,
    ) {
        for case in cases() {
            for label in 0..4 {
                let mut members: Vec<usize> =
                    (0..SAMPLES).filter(|&i| labels[i] == label).collect();
                if members.is_empty() {
                    continue;
                }
                let r = rotate % members.len();
                members.rotate_left(r);
                let out = case.engine.infer_batch(&batch(&members));
                let len = case.alone[0].len();
                for (slot, &i) in members.iter().enumerate() {
                    prop_assert_eq!(
                        &out.data()[slot * len..(slot + 1) * len],
                        &case.alone[i][..],
                        "{} sample {} in batch {:?}",
                        case.label,
                        i,
                        members
                    );
                }
            }
        }
    }
}
