//! Tensor-level fake quantization: round every element of a [`Tensor`] onto
//! a [`QFormat`] grid with a chosen [`RoundingScheme`], staying in `f32`.
//!
//! This mirrors how the paper's PyTorch framework quantizes: values are
//! rounded and clamped but kept in floating point, which is bit-exact with
//! integer fixed-point as long as `f32`'s 24-bit mantissa covers the
//! wordlength (guaranteed here for N ≤ 24 — the framework searches N ≤ 32
//! for weights but accuracy-relevant formats are far below 24 bits).

use crate::rounding::sr_uniform;
use crate::{QFormat, RoundingScheme};
use qcn_tensor::Tensor;
use rand::Rng;
use std::ops::Range;

/// A complete quantization recipe: a grid plus a rounding rule.
///
/// # Examples
///
/// ```
/// use qcn_fixed::{QFormat, Quantizer, RoundingScheme};
/// use qcn_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let quant = Quantizer::new(QFormat::with_frac(3), RoundingScheme::RoundToNearest);
/// let t = Tensor::from_vec(vec![0.3, -0.7, 1.4], [3])?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let q = quant.quantize(&t, &mut rng);
/// assert_eq!(q.data(), &[0.25, -0.75, 0.875]); // 1.4 saturates to max
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quantizer {
    format: QFormat,
    scheme: RoundingScheme,
}

impl Quantizer {
    /// Creates a quantizer from a format and a rounding scheme.
    pub fn new(format: QFormat, scheme: RoundingScheme) -> Self {
        Quantizer { format, scheme }
    }

    /// The target grid.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The rounding rule.
    pub fn scheme(&self) -> RoundingScheme {
        self.scheme
    }

    /// Quantizes a tensor, returning a new tensor on the grid.
    pub fn quantize(&self, t: &Tensor, rng: &mut impl Rng) -> Tensor {
        let mut out = t.clone();
        self.scheme.round_slice(out.data_mut(), self.format, rng);
        out
    }

    /// Quantizes a tensor in place.
    pub fn quantize_inplace(&self, t: &mut Tensor, rng: &mut impl Rng) {
        self.scheme.round_slice(t.data_mut(), self.format, rng);
    }

    /// Binds this recipe to one position-keyed stochastic stream over the
    /// whole tensor, producing the epilogue the fused kernels apply at
    /// writeback time.
    pub fn fused(&self, sr_base: u64) -> FusedQuant {
        self.fused_per_sample(vec![sr_base], usize::MAX)
    }

    /// Binds this recipe to one stream per sample: the tensor is read as
    /// consecutive samples of `sample_len` elements, and sample `s` is
    /// keyed by `bases[s]`.
    pub fn fused_per_sample(&self, bases: Vec<u64>, sample_len: usize) -> FusedQuant {
        FusedQuant {
            quantizer: *self,
            bases,
            sample_len: sample_len.max(1),
        }
    }
}

/// A quantization recipe bound to a *position-keyed* stochastic stream:
/// element `pos` draws [`sr_uniform`]`(bases[pos / sample_len], pos %
/// sample_len)` — a pure function of its sample's key and its offset in
/// that sample, no matter which batch slot, worker thread, tile, or pass
/// produces it.
///
/// This is what makes fusing rounding into the blocked kernels safe: the
/// kernel calls [`FusedQuant::apply`] on each finished row with the row's
/// global element offset, and the result is bit-identical to
/// [`FusedQuant::quantize_inplace`] — a sequential round-after pass over the
/// whole tensor — for every rounding scheme and thread count.
#[derive(Debug, Clone)]
pub struct FusedQuant {
    quantizer: Quantizer,
    bases: Vec<u64>,
    sample_len: usize,
}

impl FusedQuant {
    /// Creates an epilogue from a recipe and a stream key (callers usually
    /// go through [`Quantizer::fused`]).
    pub fn new(quantizer: Quantizer, sr_base: u64) -> Self {
        quantizer.fused(sr_base)
    }

    /// The underlying recipe.
    pub fn quantizer(&self) -> Quantizer {
        self.quantizer
    }

    /// Splits the elements `offset..offset + len` at sample boundaries,
    /// yielding `(run, base, at)`: a sub-range of `0..len`, its sample's
    /// key, and the in-sample offset of its first element — element
    /// `run.start + i` draws `sr_uniform(base, at + i)`.
    pub fn runs(
        &self,
        offset: usize,
        len: usize,
    ) -> impl Iterator<Item = (Range<usize>, u64, usize)> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            let pos = offset + i;
            let (sample, at) = (pos / self.sample_len, pos % self.sample_len);
            let n = (self.sample_len - at).min(len - i);
            i += n;
            (n > 0).then(|| (i - n..i, self.bases[sample], at))
        })
    }

    /// Rounds a finished slice whose first element is global output element
    /// `offset`. Kernels call this once per completed row/tile while the
    /// data is still cache-hot.
    #[inline]
    pub fn apply(&self, offset: usize, values: &mut [f32]) {
        let Quantizer { format, scheme } = self.quantizer;
        if scheme != RoundingScheme::Stochastic {
            return scheme.round_slice_with(values, format, |_| 0.0);
        }
        for (run, base, at) in self.runs(offset, values.len()) {
            scheme.round_slice_with(&mut values[run], format, |i| {
                sr_uniform(base, (at + i) as u64)
            });
        }
    }

    /// [`apply`](Self::apply) that writes grid indices instead of values:
    /// `raw[i]` is the index at this recipe's precision of the value
    /// `apply` would store for `values[i]` (see
    /// [`RoundingScheme::round_slice_raw_with`]). Keyed by position exactly
    /// like `apply`.
    ///
    /// # Panics
    ///
    /// Panics when `values` and `raw` differ in length.
    pub fn apply_raw(&self, offset: usize, values: &[f32], raw: &mut [i64]) {
        let Quantizer { format, scheme } = self.quantizer;
        if scheme != RoundingScheme::Stochastic {
            return scheme.round_slice_raw_with(values, raw, format, |_| 0.0);
        }
        assert_eq!(values.len(), raw.len(), "raw output length mismatch");
        for (run, base, at) in self.runs(offset, values.len()) {
            scheme.round_slice_raw_with(&values[run.clone()], &mut raw[run], format, |i| {
                sr_uniform(base, (at + i) as u64)
            });
        }
    }

    /// The round-after reference: one separate pass over the whole tensor,
    /// bit-identical to applying [`FusedQuant::apply`] tile by tile.
    pub fn quantize_inplace(&self, t: &mut Tensor) {
        self.apply(0, t.data_mut());
    }
}

/// Summary statistics of the error introduced by quantizing `original` to
/// `quantized` (same shapes).
///
/// Used by tests and by the rounding-scheme analysis bench (§IV-C) to show
/// truncation's negative bias and stochastic rounding's unbiasedness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationStats {
    /// Mean error `E[xq − x]` (the *bias* of §II-B).
    pub bias: f32,
    /// Mean squared error.
    pub mse: f32,
    /// Largest absolute error.
    pub max_abs_error: f32,
    /// Signal-to-quantization-noise ratio in dB (`10·log10(E[x²]/MSE)`).
    /// `f32::INFINITY` when the error is exactly zero.
    pub sqnr_db: f32,
}

impl QuantizationStats {
    /// Computes error statistics between an original and its quantized copy.
    ///
    /// # Panics
    ///
    /// Panics when the two tensors' shapes differ or are empty.
    pub fn measure(original: &Tensor, quantized: &Tensor) -> Self {
        assert_eq!(
            original.shape(),
            quantized.shape(),
            "stats require matching shapes"
        );
        assert!(!original.is_empty(), "stats of empty tensors");
        // Accumulate in f64: f32 running sums lose the small per-element
        // errors against a large partial sum, visibly biasing SQNR on big
        // tensors (the §IV-C rounding-scheme comparison relies on these).
        let n = original.len() as f64;
        let mut bias = 0.0f64;
        let mut mse = 0.0f64;
        let mut max_abs = 0.0f64;
        let mut signal = 0.0f64;
        for (&x, &xq) in original.data().iter().zip(quantized.data()) {
            let e = xq as f64 - x as f64;
            bias += e;
            mse += e * e;
            max_abs = max_abs.max(e.abs());
            signal += x as f64 * x as f64;
        }
        bias /= n;
        mse /= n;
        signal /= n;
        let sqnr_db = if mse == 0.0 {
            f32::INFINITY
        } else {
            (10.0 * (signal / mse).log10()) as f32
        };
        QuantizationStats {
            bias: bias as f32,
            mse: mse as f32,
            max_abs_error: max_abs as f32,
            sqnr_db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn quantize_is_idempotent() {
        let quant = Quantizer::new(QFormat::with_frac(4), RoundingScheme::RoundToNearest);
        let t = Tensor::rand_uniform([64], -1.0, 1.0, &mut rng());
        let q1 = quant.quantize(&t, &mut rng());
        let q2 = quant.quantize(&q1, &mut rng());
        assert_eq!(q1, q2);
    }

    #[test]
    fn quantized_values_are_representable() {
        let format = QFormat::with_frac(3);
        for scheme in RoundingScheme::ALL {
            let quant = Quantizer::new(format, scheme);
            let t = Tensor::rand_uniform([128], -2.0, 2.0, &mut rng());
            let q = quant.quantize(&t, &mut rng());
            for &v in q.data() {
                assert!(
                    format.is_representable(v),
                    "{v} not representable ({scheme})"
                );
            }
        }
    }

    #[test]
    fn quantize_inplace_matches_copy() {
        let quant = Quantizer::new(QFormat::with_frac(5), RoundingScheme::Truncation);
        let t = Tensor::rand_uniform([32], -1.0, 1.0, &mut rng());
        let copied = quant.quantize(&t, &mut rng());
        let mut inplace = t.clone();
        quant.quantize_inplace(&mut inplace, &mut rng());
        assert_eq!(copied, inplace);
    }

    #[test]
    fn error_bounded_by_precision() {
        let format = QFormat::with_frac(6);
        let t = Tensor::rand_uniform([256], -0.9, 0.9, &mut rng());
        for scheme in RoundingScheme::ALL {
            let q = Quantizer::new(format, scheme).quantize(&t, &mut rng());
            let stats = QuantizationStats::measure(&t, &q);
            assert!(
                stats.max_abs_error <= format.precision() + 1e-6,
                "{scheme}: {}",
                stats.max_abs_error
            );
        }
    }

    #[test]
    fn sr_bias_smaller_than_trn_bias() {
        let format = QFormat::with_frac(4);
        let t = Tensor::rand_uniform([8192], -0.9, 0.9, &mut rng());
        let trn = Quantizer::new(format, RoundingScheme::Truncation).quantize(&t, &mut rng());
        let sr = Quantizer::new(format, RoundingScheme::Stochastic).quantize(&t, &mut rng());
        let trn_stats = QuantizationStats::measure(&t, &trn);
        let sr_stats = QuantizationStats::measure(&t, &sr);
        assert!(sr_stats.bias.abs() < trn_stats.bias.abs() / 4.0);
    }

    #[test]
    fn sqnr_improves_with_more_bits() {
        let t = Tensor::rand_uniform([4096], -0.9, 0.9, &mut rng());
        let mut last = f32::NEG_INFINITY;
        for frac in [2u8, 4, 6, 8] {
            let q = Quantizer::new(QFormat::with_frac(frac), RoundingScheme::RoundToNearest)
                .quantize(&t, &mut rng());
            let s = QuantizationStats::measure(&t, &q);
            assert!(s.sqnr_db > last, "frac {frac}: {} ≤ {last}", s.sqnr_db);
            last = s.sqnr_db;
        }
        // Each extra bit is worth ~6 dB; 4 bits apart ⇒ > 20 dB apart.
        assert!(last > 40.0);
    }

    #[test]
    fn fused_tilewise_apply_matches_whole_tensor_pass() {
        // Splitting the tensor into arbitrary tiles and applying the fused
        // epilogue with the right offsets must reproduce the single-pass
        // reference bit for bit — the contract the blocked kernels rely on.
        let t = Tensor::rand_uniform([257], -1.5, 1.5, &mut rng());
        for scheme in RoundingScheme::EXTENDED {
            let fq = Quantizer::new(QFormat::with_frac(5), scheme).fused(0xABCD);
            let mut reference = t.clone();
            fq.quantize_inplace(&mut reference);
            let mut tiled = t.clone();
            let data = tiled.data_mut();
            for start in (0..data.len()).step_by(37) {
                let end = (start + 37).min(data.len());
                fq.apply(start, &mut data[start..end]);
            }
            assert_eq!(tiled, reference, "{scheme}");
        }
    }

    #[test]
    fn fused_deterministic_schemes_match_rng_quantizer() {
        // For TRN/RTN/RTNE the positional stream is irrelevant: the fused
        // epilogue must agree exactly with the rng-driven Quantizer.
        let t = Tensor::rand_uniform([128], -1.2, 1.2, &mut rng());
        for scheme in [
            RoundingScheme::Truncation,
            RoundingScheme::RoundToNearest,
            RoundingScheme::RoundToNearestEven,
        ] {
            let quant = Quantizer::new(QFormat::with_frac(4), scheme);
            let reference = quant.quantize(&t, &mut rng());
            let mut fused = t.clone();
            quant.fused(99).quantize_inplace(&mut fused);
            assert_eq!(fused, reference, "{scheme}");
        }
    }

    #[test]
    fn per_sample_stream_keys_each_sample_by_its_own_offsets() {
        // Tiles straddling sample boundaries must draw exactly
        // sr_uniform(bases[pos / len], pos % len) per element.
        let (bases, len) = (vec![3u64, 1 << 40, 77], 10usize);
        let quant = Quantizer::new(QFormat::with_frac(3), RoundingScheme::Stochastic);
        let fq = quant.fused_per_sample(bases.clone(), len);
        let t = Tensor::rand_uniform([3 * len], -0.9, 0.9, &mut rng());
        let mut tiled = t.clone();
        for (start, end) in [(0, 7), (7, 13), (13, 30)] {
            fq.apply(start, &mut tiled.data_mut()[start..end]);
        }
        let want: Vec<f32> = t
            .data()
            .iter()
            .enumerate()
            .map(|(pos, &x)| {
                let u = sr_uniform(bases[pos / len], (pos % len) as u64);
                RoundingScheme::Stochastic.round_raw(x, quant.format(), u)
            })
            .collect();
        assert_eq!(tiled.data(), &want[..]);
    }

    #[test]
    fn apply_raw_indexes_the_values_apply_stores() {
        // In range, clamped at both ends, exact half-way points, and a
        // 30-bit grid whose indices f32 cannot hold exactly.
        let mut t = Tensor::rand_uniform([257], -1.5, 1.5, &mut rng());
        t.data_mut()[..4].copy_from_slice(&[0.5 / 16.0, -1.5 / 16.0, 2.5 / 16.0, 0.0]);
        for frac in [4u8, 30] {
            for scheme in RoundingScheme::EXTENDED {
                let quant = Quantizer::new(QFormat::with_frac(frac), scheme);
                let fq = quant.fused_per_sample(vec![5, 1 << 33, 9], 100);
                let mut values = t.data().to_vec();
                fq.apply(3, &mut values[..200]);
                let mut raw = vec![0i64; 200];
                fq.apply_raw(3, &t.data()[..200], &mut raw);
                let scale = (frac as f64).exp2();
                let want: Vec<i64> = values[..200]
                    .iter()
                    .map(|&v| (v as f64 * scale) as i64)
                    .collect();
                assert_eq!(raw, want, "{scheme} frac {frac}");
            }
        }
    }

    #[test]
    fn fused_stochastic_depends_on_base_but_not_tiling() {
        let quant = Quantizer::new(QFormat::with_frac(3), RoundingScheme::Stochastic);
        let t = Tensor::rand_uniform([512], -0.9, 0.9, &mut rng());
        let (mut a, mut b) = (t.clone(), t.clone());
        quant.fused(1).quantize_inplace(&mut a);
        quant.fused(2).quantize_inplace(&mut b);
        assert_ne!(a, b, "different bases must give different SR draws");
        for &v in a.data() {
            assert!(quant.format().is_representable(v));
        }
    }

    #[test]
    fn stats_accumulate_in_f64() {
        // 1 << 20 elements with a constant error of 2^-12: an f32
        // accumulator stalls once the partial sum dwarfs the addend, biasing
        // the mean error low. The f64 path recovers it exactly.
        let n = 1 << 20;
        let err = 1.0f32 / 4096.0; // 2^-12, exactly representable
        let orig = Tensor::from_vec(vec![0.5f32; n], [n]).unwrap();
        let quant = Tensor::from_vec(vec![0.5f32 + err; n], [n]).unwrap();
        let stats = QuantizationStats::measure(&orig, &quant);
        assert!((stats.bias - err).abs() < 1e-9, "bias {}", stats.bias);
    }

    #[test]
    fn zero_error_gives_infinite_sqnr() {
        let t = Tensor::from_vec(vec![0.5, -0.25], [2]).unwrap();
        let s = QuantizationStats::measure(&t, &t);
        assert_eq!(s.sqnr_db, f32::INFINITY);
        assert_eq!(s.bias, 0.0);
    }
}
