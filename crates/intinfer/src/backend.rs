//! The integer engine as a [`StagedBackend`], so the framework's search
//! (Algorithm 1) scores candidate configurations on the datapath the
//! deployed accelerator executes, through the shared
//! [`qcapsnets::Evaluator`] and its memo, prefix reuse and early exit.

use crate::model::IntModel;
use crate::tensor::IntTensor;
use crate::units::UnitMode;
use qcapsnets::export::pack_model;
use qcapsnets::StagedBackend;
use qcn_capsnet::descriptor::ModelDesc;
use qcn_capsnet::{CapsNet, GroupInfo, ModelQuant, QuantCtx};
use qcn_tensor::Tensor;

/// Runs each stage of a candidate configuration on the integer engine.
///
/// A configuration the engine cannot load (a group still in full
/// precision, or a DeepCaps block without a streaming width) falls back
/// whole to the fake-quant reference, so the backend is total over the
/// search space. Algorithm 1 never searches a streaming width, so every
/// DeepCaps probe falls back.
///
/// Stage-0 inputs must lie on the `2^-in_frac` input grid (snap the
/// evaluation set once with [`crate::snap_to_grid`]); an off-grid value
/// panics instead of being rounded silently.
///
/// # Examples
///
/// ```
/// use qcapsnets::Evaluator;
/// use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_datasets::{Dataset, SynthKind};
/// use qcn_fixed::RoundingScheme;
/// use qcn_intinfer::{snap_to_grid, IntBackend, UnitMode};
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let raw = SynthKind::Mnist.generate(12, 0);
/// let images = raw.images().map(|v| snap_to_grid(v, 7));
/// let test = Dataset::new(images, raw.labels().to_vec(), 10).unwrap();
/// let backend = IntBackend::new(&model, 7, UnitMode::FloatExact);
/// let mut eval = Evaluator::new(&backend, &test, 6);
/// let acc = eval.accuracy(&ModelQuant::uniform(3, 7, RoundingScheme::RoundToNearest));
/// assert!((0.0..=1.0).contains(&acc));
/// assert_eq!(eval.stats().fallbacks, 0);
/// ```
#[derive(Debug)]
pub struct IntBackend<'a, M> {
    model: &'a M,
    desc: ModelDesc,
    in_frac: u8,
    mode: UnitMode,
}

impl<'a, M: CapsNet> IntBackend<'a, M> {
    /// A backend over `model` reading inputs at `in_frac` fractional bits;
    /// `mode` selects how the nonlinear units execute.
    pub fn new(model: &'a M, in_frac: u8, mode: UnitMode) -> Self {
        IntBackend {
            model,
            desc: model.descriptor(),
            in_frac,
            mode,
        }
    }
}

/// A configuration prepared by [`IntBackend`].
#[derive(Debug)]
pub enum IntPrepared<M> {
    /// Loaded into the integer engine.
    Integer(IntModel),
    /// Not loadable: the fake-quant model with quantized weights.
    Fallback(M),
}

impl<M: CapsNet + Sync> StagedBackend for IntBackend<'_, M> {
    type Prepared = IntPrepared<M>;

    fn quant_groups(&self) -> Vec<GroupInfo> {
        self.model.groups()
    }

    fn canonical(&self, config: &ModelQuant) -> ModelQuant {
        self.model.canonical_config(config)
    }

    fn prepare(&self, config: &ModelQuant) -> IntPrepared<M> {
        match IntModel::load(&self.desc, &pack_model(self.model, config)) {
            Ok(engine) => IntPrepared::Integer(engine),
            Err(_) => IntPrepared::Fallback(self.model.with_quantized_weights(config)),
        }
    }

    fn is_fallback(&self, prepared: &IntPrepared<M>) -> bool {
        matches!(prepared, IntPrepared::Fallback(_))
    }

    fn run_stage(
        &self,
        prepared: &IntPrepared<M>,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        match prepared {
            IntPrepared::Integer(engine) => {
                // A stage input is the model input, or the previous group's
                // output stored at its activation width.
                let frac = match stage {
                    0 => self.in_frac,
                    s => config.layers[s - 1]
                        .act_frac
                        .expect("a loaded group has an activation width"),
                };
                let x = IntTensor::from_f32_on_grid(x, frac);
                engine.run_stage(stage, x, self.mode, ctx).to_f32()
            }
            IntPrepared::Fallback(model) => model.infer_stage(stage, x, config, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap_to_grid;
    use qcapsnets::{Evaluator, SearchAccel};
    use qcn_capsnet::{ShallowCaps, ShallowCapsConfig};
    use qcn_datasets::{Dataset, SynthKind};
    use qcn_fixed::RoundingScheme;

    /// A fallback probe and a loadable probe share their L1–L2 prefix, but
    /// under pure-integer units their stage outputs differ: the loadable
    /// probe must not resume from the fallback's checkpoints.
    #[test]
    fn prefix_checkpoints_never_cross_datapaths() {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 3);
        let raw = SynthKind::Mnist.generate(60, 7);
        let images = raw.images().map(|v| snap_to_grid(v, 6));
        let ds = Dataset::new(images, raw.labels().to_vec(), 10).unwrap();
        let backend = IntBackend::new(&model, 6, UnitMode::Integer);
        let loadable = ModelQuant::uniform(3, 4, RoundingScheme::RoundToNearest);
        let mut fallback = loadable.clone();
        fallback.layers[2].weight_frac = None; // L3 stays FP32: not loadable.
        let want =
            Evaluator::with_accel(&backend, &ds, 10, SearchAccel::naive()).accuracy(&loadable);
        let mut eval = Evaluator::new(&backend, &ds, 10);
        eval.accuracy(&fallback);
        assert_eq!(eval.accuracy(&loadable), want);
        assert_eq!(eval.stats().fallbacks, 1);
        assert_eq!(eval.stats().prefix_hits, 0);
    }
}
