//! The fully-connected capsule layer with dynamic routing (DigitCaps, L3 of
//! ShallowCaps; the output layer of DeepCaps).
//!
//! Implements the routing algorithm of paper Fig. 6 / §II-A, and — on the
//! inference path — the quantization points of paper Fig. 9: weights at
//! `Qw`, routing intermediates (û, b, c, s, a) at `Q_DR`, the final output
//! capsules at `Qa`.

use crate::quant::{LayerQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::Tensor;
use rand::Rng;

/// A fully-connected capsule layer routing `in_caps` input capsules of
/// dimension `in_dim` to `out_caps` output capsules of dimension `out_dim`.
#[derive(Debug, Clone)]
pub struct CapsFc {
    weight: Tensor, // [in_caps, out_caps, in_dim, out_dim]
    in_caps: usize,
    out_caps: usize,
    in_dim: usize,
    out_dim: usize,
    routing_iters: usize,
}

impl CapsFc {
    /// Creates the layer with Xavier-uniform transformation matrices.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero or `routing_iters == 0`.
    pub fn new(
        in_caps: usize,
        in_dim: usize,
        out_caps: usize,
        out_dim: usize,
        routing_iters: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            in_caps > 0 && in_dim > 0 && out_caps > 0 && out_dim > 0,
            "capsule geometry must be positive"
        );
        assert!(routing_iters > 0, "at least one routing iteration required");
        CapsFc {
            weight: Tensor::xavier_uniform(
                [in_caps, out_caps, in_dim, out_dim],
                in_dim,
                out_dim,
                rng,
            ),
            in_caps,
            out_caps,
            in_dim,
            out_dim,
            routing_iters,
        }
    }

    /// Number of routing iterations (3 in the paper).
    pub fn routing_iters(&self) -> usize {
        self.routing_iters
    }

    /// Output capsule count.
    pub fn out_caps(&self) -> usize {
        self.out_caps
    }

    /// Output capsule dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input capsule dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Total number of stored weights.
    pub fn weight_count(&self) -> usize {
        self.weight.len()
    }

    /// Parameters in registration order (transformation weight only).
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight]
    }

    /// Mutable parameters in registration order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight]
    }

    /// Training-time forward with full backpropagation through all unrolled
    /// routing iterations. Input `[batch, in_caps, in_dim]`; output
    /// `[batch, out_caps, out_dim]`.
    pub fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let b = g.value(x).dims()[0];
        // Step 1: votes û = W × u, shape [b, I, J, Dj].
        let votes = g.caps_votes(x, pvars[0]);
        // Step 2: logits b = 0, shape [b, I, J, 1].
        let mut logits = g.constant(Tensor::zeros([b, self.in_caps, self.out_caps, 1]));
        let mut v = votes; // placeholder, overwritten in the loop
        for iter in 0..self.routing_iters {
            // Step 3: coupling coefficients c = softmax over output caps J.
            let c = g.softmax_axis(logits, 2);
            // Step 4: preactivation s = Σ_i c·û, shape [b, 1, J, Dj].
            let weighted = g.mul(votes, c);
            let s = g.sum_axis_keepdim(weighted, 1);
            // Step 5: activation v = squash(s) along Dj.
            v = g.squash_axis(s, 3);
            if iter + 1 < self.routing_iters {
                // Step 6: agreement a = v·û summed along Dj.
                let prod = g.mul(votes, v);
                let agreement = g.sum_axis_keepdim(prod, 3);
                // Step 7: logits update b += a.
                logits = g.add(logits, agreement);
            }
        }
        g.reshape(v, [b, self.out_caps, self.out_dim])
    }

    /// Quantized inference implementing the rounding points of paper
    /// Fig. 9. Input `[batch, in_caps, in_dim]` (already quantized by the
    /// previous layer); output `[batch, out_caps, out_dim]` quantized at
    /// `Qa`.
    ///
    /// Routing is dispatched per sample through the thread pool (routing
    /// never mixes samples); results are bit-identical for every thread
    /// count, including under stochastic rounding.
    pub fn infer(&self, x: &Tensor, lq: &LayerQuant, ctx: &mut QuantCtx) -> Tensor {
        let b = x.dims()[0];
        let dr = lq.effective_dr_frac();
        // Votes û quantized at Q_DR inside the vote kernel's writeback
        // epilogue (each panel rounded by the worker that produced it),
        // viewed as [b, I, J, Dj, 1] so the shared routing loop (spatial
        // axis S = 1) applies.
        let fq = ctx.fused(dr, b * self.in_caps * self.out_caps * self.out_dim);
        let votes = crate::layers::caps_votes_infer_fused(x, &self.weight, fq.as_ref());
        let votes = votes
            .reshape([b, self.in_caps, self.out_caps, self.out_dim, 1])
            .expect("votes reshape to routing layout");
        let v = crate::layers::route_per_sample(&votes, self.routing_iters, lq, ctx);
        v.reshape([b, self.out_caps, self.out_dim])
            .expect("routing output matches capsule shape")
    }

    /// Rounds the stored weights onto the `frac`-bit grid.
    pub fn quantize_weights(&mut self, frac: Option<u8>, ctx: &mut QuantCtx) {
        self.weight = ctx.round(self.weight.clone(), frac);
    }

    /// Output activation count per sample.
    pub fn activation_count(&self) -> usize {
        self.out_caps * self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_fixed::RoundingScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(iters: usize) -> CapsFc {
        let mut rng = StdRng::seed_from_u64(0);
        CapsFc::new(12, 4, 5, 6, iters, &mut rng)
    }

    fn input(b: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(1);
        Tensor::rand_uniform([b, 12, 4], -0.5, 0.5, &mut rng).squash_axis(2)
    }

    fn fp_ctx() -> QuantCtx {
        QuantCtx::new(RoundingScheme::Truncation, 0)
    }

    #[test]
    fn output_shape() {
        let layer = layer(3);
        let caps = layer.infer(&input(2), &LayerQuant::full_precision(), &mut fp_ctx());
        assert_eq!(caps.dims(), &[2, 5, 6]);
    }

    #[test]
    fn output_lengths_are_probabilities() {
        let layer = layer(3);
        let caps = layer.infer(&input(3), &LayerQuant::full_precision(), &mut fp_ctx());
        let lengths = caps.norm_axis(2);
        assert!(lengths.data().iter().all(|&l| (0.0..1.0).contains(&l)));
    }

    #[test]
    fn forward_matches_infer_in_fp32() {
        for iters in [1, 3] {
            let layer = layer(iters);
            let x = input(2);
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let pvars: Vec<_> = layer
                .params()
                .iter()
                .map(|p| g.input((*p).clone()))
                .collect();
            let y = layer.forward(&mut g, xv, &pvars);
            let inferred = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
            let diff = (g.value(y) - &inferred).max_abs();
            assert!(diff < 1e-5, "iters {iters}: {diff}");
        }
    }

    #[test]
    fn routing_concentrates_coupling() {
        // With more routing iterations, output capsules should change —
        // routing is doing something — and remain finite.
        let l1 = layer(1);
        let mut l3 = layer(1);
        // Same weights, different iteration count.
        l3.routing_iters = 3;
        let x = input(2);
        let a = l1.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        let b = l3.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        assert!(b.data().iter().all(|v| v.is_finite()));
        assert!(
            (&a - &b).max_abs() > 1e-6,
            "routing iterations had no effect"
        );
    }

    #[test]
    fn dr_quantization_changes_output_gracefully() {
        let layer = layer(3);
        let x = input(2);
        let fp = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        let lq = LayerQuant {
            weight_frac: None,
            act_frac: None,
            dr_frac: Some(6),
            ..LayerQuant::full_precision()
        };
        let q = layer.infer(&x, &lq, &mut fp_ctx());
        let diff = (&fp - &q).max_abs();
        assert!(diff > 0.0, "quantization must perturb the output");
        assert!(diff < 0.2, "6-bit DR should stay close to fp32, got {diff}");
    }

    #[test]
    fn aggressive_dr_quantization_degrades_more() {
        let layer = layer(3);
        let x = input(4);
        let fp = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        let mut errs = Vec::new();
        for bits in [8u8, 4, 2] {
            let lq = LayerQuant {
                dr_frac: Some(bits),
                ..LayerQuant::full_precision()
            };
            let q = layer.infer(&x, &lq, &mut fp_ctx());
            errs.push((&fp - &q).max_abs());
        }
        assert!(errs[0] < errs[2], "fewer bits must hurt more: {errs:?}");
    }

    #[test]
    fn gradient_flows_through_routing_to_weights() {
        let layer = layer(3);
        let x = input(2);
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
        let gw = g.grad(pvars[0]).expect("weight gradient must exist");
        assert!(gw.max_abs() > 0.0, "weight gradient must be nonzero");
        let gx = g.grad(xv).expect("input gradient must exist");
        assert!(gx.max_abs() > 0.0, "input gradient must be nonzero");
    }

    #[test]
    fn infer_is_bit_identical_across_thread_counts() {
        use qcn_tensor::parallel::with_threads;
        let layer = layer(3);
        let x = input(5);
        let lq = LayerQuant {
            weight_frac: Some(8),
            act_frac: Some(6),
            dr_frac: Some(5),
            ..LayerQuant::full_precision()
        };
        for scheme in [
            RoundingScheme::Truncation,
            RoundingScheme::RoundToNearest,
            RoundingScheme::Stochastic,
        ] {
            let serial = with_threads(1, || layer.infer(&x, &lq, &mut QuantCtx::new(scheme, 42)));
            for t in [2, 7, 8] {
                let par = with_threads(t, || layer.infer(&x, &lq, &mut QuantCtx::new(scheme, 42)));
                assert_eq!(par.data(), serial.data(), "{scheme:?}, threads {t}");
            }
        }
    }

    #[test]
    fn coupling_coefficients_sum_to_one_over_outputs() {
        // Directly verify Eq. 1's invariant inside inference by checking
        // that with one routing iteration and zero logits the preactivation
        // equals the uniform average of votes over J... i.e. softmax(0) =
        // 1/J.
        let layer = layer(1);
        let x = input(1);
        let votes = crate::layers::caps_votes_infer(&x, &layer.weight);
        let s_expected = &votes.sum_axis_keepdim(1) * (1.0 / layer.out_caps as f32);
        let v_expected = s_expected.squash_axis(3);
        let out = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        let v_expected = v_expected.reshape([1, 5, 6]).unwrap();
        assert!((&out - &v_expected).max_abs() < 1e-5);
    }
}
