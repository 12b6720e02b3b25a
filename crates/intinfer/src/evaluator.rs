//! A [`ConfigScorer`] backed by the integer engine, so the framework's
//! search algorithms can score candidate configurations on the same
//! datapath the deployed accelerator executes.

use crate::model::IntModel;
use crate::units::UnitMode;
use qcapsnets::export::pack_model;
use qcapsnets::ConfigScorer;
use qcn_capsnet::descriptor::ModelDesc;
use qcn_capsnet::{accuracy, CapsNet, GroupInfo, ModelQuant};
use qcn_datasets::Dataset;
use qcn_tensor::Tensor;
use std::collections::HashMap;

/// Scores quantization configurations by packing the model and running the
/// integer engine over the evaluation set — deployment-faithful accuracy,
/// memoized like [`qcapsnets::Evaluator`].
///
/// Configurations the integer datapath cannot execute (any group still in
/// full precision, or a DeepCaps block without a streaming width) fall
/// back to the fake-quant reference path, so the scorer is total over the
/// search space the algorithms explore.
///
/// # Examples
///
/// ```
/// use qcapsnets::ConfigScorer;
/// use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_datasets::SynthKind;
/// use qcn_fixed::RoundingScheme;
/// use qcn_intinfer::{IntEvaluator, UnitMode};
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let test = SynthKind::Mnist.generate(12, 0);
/// let mut eval = IntEvaluator::new(&model, model.descriptor(), &test, 6, 7, UnitMode::FloatExact);
/// let config = ModelQuant::uniform(3, 7, RoundingScheme::RoundToNearest);
/// let acc = eval.score(&config);
/// assert!((0.0..=1.0).contains(&acc));
/// ```
#[derive(Debug)]
pub struct IntEvaluator<'a, M: CapsNet> {
    model: &'a M,
    desc: ModelDesc,
    dataset: &'a Dataset,
    batch_size: usize,
    in_frac: u8,
    mode: UnitMode,
    cache: HashMap<ModelQuant, f32>,
    integer_runs: usize,
    fallback_runs: usize,
}

impl<'a, M: CapsNet> IntEvaluator<'a, M> {
    /// Creates a scorer over `model` (whose structure is `desc`) and a
    /// labelled evaluation set. Input images are rounded to the nearest
    /// point of the `2^-in_frac` deployment input grid before entering the
    /// engine (a no-op for pre-gridded data); `mode` selects how the
    /// nonlinear units execute.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty or `batch_size == 0`.
    pub fn new(
        model: &'a M,
        desc: ModelDesc,
        dataset: &'a Dataset,
        batch_size: usize,
        in_frac: u8,
        mode: UnitMode,
    ) -> Self {
        assert!(!dataset.is_empty(), "empty evaluation set");
        assert!(batch_size > 0, "batch size must be positive");
        IntEvaluator {
            model,
            desc,
            dataset,
            batch_size,
            in_frac,
            mode,
            cache: HashMap::new(),
            integer_runs: 0,
            fallback_runs: 0,
        }
    }

    /// Distinct configurations executed on the integer engine.
    pub fn integer_runs(&self) -> usize {
        self.integer_runs
    }

    /// Distinct configurations that fell back to the fake-quant reference.
    pub fn fallback_runs(&self) -> usize {
        self.fallback_runs
    }

    fn evaluate(&mut self, config: &ModelQuant) -> f32 {
        let packed = pack_model(self.model, config);
        match IntModel::load(&self.desc, &packed) {
            Ok(engine) => {
                self.integer_runs += 1;
                let mut correct = 0usize;
                let indices: Vec<usize> = (0..self.dataset.len()).collect();
                for chunk in indices.chunks(self.batch_size) {
                    let (images, labels) = self.dataset.batch(chunk);
                    let gridded = snap_to_grid(&images, self.in_frac);
                    let preds = engine.predict(&gridded, self.in_frac, self.mode);
                    correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
                }
                correct as f32 / self.dataset.len() as f32
            }
            Err(_) => {
                self.fallback_runs += 1;
                let qmodel = self.model.with_quantized_weights(config);
                accuracy(&qmodel, self.dataset, config, self.batch_size)
            }
        }
    }
}

/// Rounds every value to the nearest multiple of `2^-frac` (ties away from
/// zero), without clamping — the analog front-end's input quantization.
fn snap_to_grid(images: &Tensor, frac: u8) -> Tensor {
    let scale = (frac as f64).exp2();
    let data = images
        .data()
        .iter()
        .map(|&v| ((v as f64 * scale).round() / scale) as f32)
        .collect();
    Tensor::from_vec(data, images.dims().to_vec()).expect("shape preserved")
}

impl<M: CapsNet> ConfigScorer for IntEvaluator<'_, M> {
    fn score(&mut self, config: &ModelQuant) -> f32 {
        if let Some(&cached) = self.cache.get(config) {
            return cached;
        }
        let acc = self.evaluate(config);
        self.cache.insert(config.clone(), acc);
        acc
    }

    fn groups(&self) -> Vec<GroupInfo> {
        self.model.groups()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_capsnet::{ShallowCaps, ShallowCapsConfig};
    use qcn_fixed::RoundingScheme;

    /// A dataset whose images already sit on the input grid, so the integer
    /// path's input quantization is a no-op and its accuracy must equal the
    /// fake-quant reference exactly.
    fn gridded_dataset(n: usize, frac: u8) -> Dataset {
        let ds = qcn_datasets::SynthKind::Mnist.generate(n, 7);
        let images = snap_to_grid(ds.images(), frac);
        Dataset::new(images, ds.labels().to_vec(), 10).unwrap()
    }

    #[test]
    fn integer_score_matches_reference_on_gridded_data() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 3);
        let ds = gridded_dataset(10, 6);
        for scheme in RoundingScheme::EXTENDED {
            let mut config = ModelQuant::uniform(3, 6, scheme);
            for lq in &mut config.layers {
                lq.dr_frac = Some(5);
            }
            config.seed = 11;
            let mut eval =
                IntEvaluator::new(&model, model.descriptor(), &ds, 4, 6, UnitMode::FloatExact);
            let got = eval.score(&config);
            let qmodel = model.with_quantized_weights(&config);
            let want = accuracy(&qmodel, &ds, &config, 4);
            assert_eq!(got, want, "scheme {scheme:?}");
            assert_eq!(eval.integer_runs(), 1);
            assert_eq!(eval.fallback_runs(), 0);
        }
    }

    #[test]
    fn unloadable_config_falls_back_to_reference() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 3);
        let ds = gridded_dataset(8, 6);
        let mut eval =
            IntEvaluator::new(&model, model.descriptor(), &ds, 4, 6, UnitMode::FloatExact);
        let mut config = ModelQuant::uniform(3, 6, RoundingScheme::Truncation);
        config.layers[1].weight_frac = None; // L2 stays FP32: not packable.
        let got = eval.score(&config);
        let qmodel = model.with_quantized_weights(&config);
        let want = accuracy(&qmodel, &ds, &config, 4);
        assert_eq!(got, want);
        assert_eq!(eval.fallback_runs(), 1);
        // Cache hit on the second call.
        assert_eq!(eval.score(&config), got);
        assert_eq!(eval.fallback_runs(), 1);
    }
}
