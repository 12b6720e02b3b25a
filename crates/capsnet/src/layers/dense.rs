//! A fully-connected layer, used by the reconstruction decoder.

use crate::quant::{LayerQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::Tensor;
use rand::Rng;

/// Activation for a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenseActivation {
    /// No nonlinearity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (used by the decoder's pixel output).
    Sigmoid,
}

/// A fully-connected layer `y = act(x·W + b)` with `x` as `[batch, in]`.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    weight: Tensor, // [in, out]
    bias: Tensor,   // [out]
    activation: DenseActivation,
}

impl DenseLayer {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(
        in_features: usize,
        out_features: usize,
        activation: DenseActivation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dimensions must be positive"
        );
        DenseLayer {
            weight: Tensor::xavier_uniform(
                [in_features, out_features],
                in_features,
                out_features,
                rng,
            ),
            bias: Tensor::zeros([out_features]),
            activation,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Total number of stored weights (matrix + bias).
    pub fn weight_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Parameters in registration order (weight, bias).
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    /// Mutable parameters in registration order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Training-time forward: `pvars` holds (weight, bias).
    pub fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let prod = g.matmul(x, pvars[0]);
        let y = g.add(prod, pvars[1]);
        match self.activation {
            DenseActivation::None => y,
            DenseActivation::Relu => g.relu(y),
            DenseActivation::Sigmoid => g.sigmoid(y),
        }
    }

    /// Inference with optional activation quantization.
    pub fn infer(&self, x: &Tensor, lq: &LayerQuant, ctx: &mut QuantCtx) -> Tensor {
        let y = &x.matmul(&self.weight) + &self.bias;
        let y = match self.activation {
            DenseActivation::None => y,
            DenseActivation::Relu => y.relu(),
            DenseActivation::Sigmoid => y.sigmoid(),
        };
        ctx.round(y, lq.act_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_fixed::RoundingScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = DenseLayer::new(6, 4, DenseActivation::Sigmoid, &mut rng);
        let x = Tensor::rand_uniform([3, 6], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pvars: Vec<_> = layer
            .params()
            .iter()
            .map(|p| g.input((*p).clone()))
            .collect();
        let y = layer.forward(&mut g, xv, &pvars);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let inferred = layer.infer(&x, &LayerQuant::full_precision(), &mut ctx);
        assert!((g.value(y) - &inferred).max_abs() < 1e-6);
    }

    #[test]
    fn gradients_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = DenseLayer::new(5, 3, DenseActivation::Relu, &mut rng);
        let x = Tensor::rand_uniform([2, 5], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x);
        let pvars: Vec<_> = layer
            .params()
            .iter()
            .map(|p| g.input((*p).clone()))
            .collect();
        let y = layer.forward(&mut g, xv, &pvars);
        let sq = g.square(y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        assert!(g.grad(pvars[0]).unwrap().max_abs() > 0.0);
        assert!(g.grad(pvars[1]).is_some());
    }

    #[test]
    fn sigmoid_output_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = DenseLayer::new(4, 4, DenseActivation::Sigmoid, &mut rng);
        let x = Tensor::rand_uniform([2, 4], -10.0, 10.0, &mut rng);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let y = layer.infer(&x, &LayerQuant::full_precision(), &mut ctx);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
