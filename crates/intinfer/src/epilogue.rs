//! The requantization epilogue that mirrors the fake-quant reference's
//! rounding sites and stochastic draws exactly.
//!
//! Every reference rounding site claims a point from its [`QuantCtx`] and
//! binds a [`FusedQuant`]: each element draws `sr_uniform` keyed by its
//! sample and its offset within that sample — thread-count and batch
//! independent. [`KeyedRequant`] reproduces this on raw integers (and, for
//! the float-exact unit emulation, on `f32` slices); the engine claims
//! its points in the reference's site order.
//!
//! Because `qcn_fixed::requant_raw` is bit-identical to the f32
//! `round_raw` for every exactly-representable value, an integer pass
//! through this epilogue produces the same bits as the reference
//! whenever the accumulators stay within f32's 24-bit exact window.

use qcn_capsnet::QuantCtx;
use qcn_fixed::{requant_slice_with, sr_uniform, FusedQuant, RoundingScheme};

/// A position-keyed requantization epilogue bound to one rounding site —
/// the raw-integer counterpart of [`FusedQuant`], which it wraps.
#[derive(Debug, Clone)]
pub struct KeyedRequant {
    in_frac: u8,
    fq: FusedQuant,
}

impl KeyedRequant {
    /// Wraps the epilogue `fq` for input values at `in_frac` fractional
    /// bits; the output lands on `fq`'s grid.
    pub fn new(in_frac: u8, fq: FusedQuant) -> Self {
        KeyedRequant { in_frac, fq }
    }

    /// Claims `ctx`'s next rounding site — exactly as the reference does
    /// with `QuantCtx::fused` — for a `len`-element output requantized
    /// from `in_frac` to `out_frac` fractional bits.
    pub fn bind(ctx: &mut QuantCtx, in_frac: u8, out_frac: u8, len: usize) -> Self {
        let fq = ctx.fused(Some(out_frac), len).expect("a width is set");
        KeyedRequant::new(in_frac, fq)
    }

    /// The output fractional width.
    pub fn out_frac(&self) -> u8 {
        self.fq.quantizer().format().frac_bits()
    }

    /// Requantizes raw values whose first element sits at global position
    /// `offset` — same keying as [`FusedQuant::apply`].
    pub fn apply_raw(&self, offset: usize, values: &mut [i64]) {
        let (scheme, out) = (self.fq.quantizer().scheme(), self.fq.quantizer().format());
        if scheme != RoundingScheme::Stochastic {
            return requant_slice_with(scheme, values, self.in_frac, out, |_| 0.0);
        }
        for (run, base, at) in self.fq.runs(offset, values.len()) {
            requant_slice_with(scheme, &mut values[run], self.in_frac, out, |i| {
                sr_uniform(base, (at + i) as u64)
            });
        }
    }

    /// The wrapped f32 epilogue — the float-exact unit emulation rounds
    /// its (off-grid) squash/softmax outputs through it, exactly as the
    /// reference does.
    pub fn fused(&self) -> &FusedQuant {
        &self.fq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::raw_to_f32;
    use qcn_fixed::{QFormat, Quantizer};

    #[test]
    fn keyed_raw_and_f32_paths_agree() {
        let fq = Quantizer::new(QFormat::with_frac(4), RoundingScheme::Stochastic)
            .fused_per_sample(vec![0xFEED, 0xBEEF, 7], 23);
        let rq = KeyedRequant::new(9, fq);
        let raws: Vec<i64> = (-30..30).map(|i| i * 7).collect();
        let mut ints = raws.clone();
        rq.apply_raw(5, &mut ints);
        let mut floats: Vec<f32> = raws.iter().map(|&r| raw_to_f32(r, 9)).collect();
        rq.fused().apply(5, &mut floats);
        let got: Vec<f32> = ints.iter().map(|&r| raw_to_f32(r, 4)).collect();
        assert_eq!(got, floats);
    }
}
