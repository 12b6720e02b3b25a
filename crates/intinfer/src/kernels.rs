//! Integer linear kernels on the blocked GEMM stack of `qcn_tensor`:
//! quantized convolution (implicit GEMM) and the batch-major capsule-vote
//! GEMM.
//!
//! A layer's raw weights are stored once, at their narrowest exact word
//! ([`LinearWeights`]). Each call runs one of two instantiations of the
//! shared kernel, chosen by an [`AccWidth`] the caller has proved:
//! `i16 × i16 → i32` when every partial sum provably fits `i32`, and the
//! `i64` fallback otherwise. Integer addition is associative, so both give
//! the exact sums any loop order would — the accumulator width changes
//! speed, never a bit. Each finished output row is handed to a writeback
//! epilogue keyed by the row's global element offset, so parallelism
//! cannot change a bit either.

use crate::tensor::IntTensor;
use qcn_tensor::conv::{ConvInput, PatchTable};
use qcn_tensor::{batched_gemm, RowEpilogue};
use std::borrow::Cow;

/// The accumulator a linear layer's GEMM runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccWidth {
    /// `i16` operands, `i32` accumulators: every operand fits 16 bits and
    /// the worst-case sum fits `i32`.
    I32,
    /// `i64` operands and accumulators: the fallback when the proof fails.
    I64,
}

/// Raw words stored at their narrowest exact width.
#[derive(Debug, Clone)]
enum Words {
    /// Every word fits `i16` (wordlengths up to 16 bits).
    Narrow(Vec<i16>),
    /// Wider words.
    Wide(Vec<i64>),
}

impl Words {
    fn new(raw: &[i64]) -> Words {
        match raw.iter().map(|&v| i16::try_from(v)).collect() {
            Ok(narrow) => Words::Narrow(narrow),
            Err(_) => Words::Wide(raw.to_vec()),
        }
    }

    fn get(&self, i: usize) -> i64 {
        match self {
            Words::Narrow(v) => v[i].into(),
            Words::Wide(v) => v[i],
        }
    }

    fn len(&self) -> usize {
        match self {
            Words::Narrow(v) => v.len(),
            Words::Wide(v) => v.len(),
        }
    }

    fn max_abs(&self) -> u64 {
        (0..self.len())
            .map(|i| self.get(i).unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// The words as `i64` (borrowed when already wide).
    fn wide(&self) -> Cow<'_, [i64]> {
        match self {
            Words::Narrow(v) => Cow::Owned(v.iter().map(|&w| w.into()).collect()),
            Words::Wide(v) => Cow::Borrowed(v),
        }
    }
}

/// One linear layer's raw weights (and bias) in GEMM layout, stored at
/// their narrowest exact word, plus the magnitudes the accumulator proof
/// needs.
#[derive(Debug, Clone)]
pub struct LinearWeights {
    weights: Words,
    bias: Option<Words>,
    /// Largest `Σ|w|` over the weights that meet in one output.
    l1: u64,
}

impl LinearWeights {
    /// Convolution weights `[co, ci, kh, kw]` (flat; each output channel's
    /// row is the GEMM's left operand) with an optional `[co]` bias at the
    /// weights' fractional width.
    ///
    /// # Panics
    ///
    /// Panics when the bias length is not `co` or `co` does not divide the
    /// weights.
    pub fn conv(weights: &[i64], bias: Option<&[i64]>, co: usize) -> Self {
        assert!(
            co > 0 && weights.len().is_multiple_of(co),
            "conv weights are not co rows"
        );
        if let Some(b) = bias {
            assert_eq!(b.len(), co, "conv bias count mismatch");
        }
        let k = weights.len() / co;
        let l1 = weights
            .chunks(k.max(1))
            .map(|row| row.iter().map(|w| w.unsigned_abs()).sum())
            .max()
            .unwrap_or(0);
        LinearWeights {
            weights: Words::new(weights),
            bias: bias.map(Words::new),
            l1,
        }
    }

    /// Capsule-vote weights `[ni, nj, di, dj]` (flat), re-laid out to
    /// `[ni, di, nj·dj]` so each input capsule's transform is the right
    /// operand of one `samples × di` by `di × nj·dj` product.
    ///
    /// # Panics
    ///
    /// Panics when the weight count is not `ni·nj·di·dj`.
    pub fn votes(weights: &[i64], ni: usize, nj: usize, di: usize, dj: usize) -> Self {
        assert_eq!(
            weights.len(),
            ni * nj * di * dj,
            "vote weight count mismatch"
        );
        let mut laid = vec![0i64; weights.len()];
        let mut l1 = 0u64;
        for i in 0..ni {
            for j in 0..nj {
                for k in 0..dj {
                    let mut col = 0u64;
                    for d in 0..di {
                        let w = weights[((i * nj + j) * di + d) * dj + k];
                        laid[(i * di + d) * nj * dj + j * dj + k] = w;
                        col += w.unsigned_abs();
                    }
                    l1 = l1.max(col);
                }
            }
        }
        LinearWeights {
            weights: Words::new(&laid),
            bias: None,
            l1,
        }
    }

    /// Bytes the stored words occupy.
    pub fn bytes(&self) -> usize {
        let words = |w: &Words| match w {
            Words::Narrow(v) => v.len() * 2,
            Words::Wide(v) => v.len() * 8,
        };
        words(&self.weights) + self.bias.as_ref().map_or(0, words)
    }

    /// The accumulator proof: the narrowest exact [`AccWidth`] for inputs
    /// whose raw values lie in `x_lo..=x_hi` at `x_frac` fractional bits.
    ///
    /// `I32` needs 16-bit weights and inputs and a worst-case output
    /// magnitude `|bias|·2^x_frac + Σ|w|·max|x|` that fits `i32` — every
    /// partial sum is bounded by it, so no accumulator can overflow.
    pub fn acc_width(&self, x_lo: i64, x_hi: i64, x_frac: u8) -> AccWidth {
        let narrow_x = i16::try_from(x_lo).is_ok() && i16::try_from(x_hi).is_ok();
        let narrow_w = matches!(self.weights, Words::Narrow(_));
        if !(narrow_x && narrow_w) {
            return AccWidth::I64;
        }
        let x_max = x_lo.unsigned_abs().max(x_hi.unsigned_abs());
        let bias_max = self.bias.as_ref().map_or(0, Words::max_abs);
        let bound = u128::from(self.l1) * u128::from(x_max) + (u128::from(bias_max) << x_frac);
        if bound <= i32::MAX as u128 {
            AccWidth::I32
        } else {
            AccWidth::I64
        }
    }
}

/// The raw range `(min, max)` of `values` (`(0, 0)` when empty) — the
/// observed input bound for a layer whose input is not clamped.
pub(crate) fn raw_range(values: &[i64]) -> (i64, i64) {
    let lo = values.iter().copied().min().unwrap_or(0);
    let hi = values.iter().copied().max().unwrap_or(0);
    (lo, hi)
}

/// Appends `src` to `dst` as `i16` words, which the accumulator proof has
/// bounded to 16 bits. The bound is checked over the whole slice first,
/// so the narrowing itself is a plain vectorizable cast.
fn narrow_into(dst: &mut Vec<i16>, src: &[i64]) {
    let (lo, hi) = raw_range(src);
    assert!(
        i16::try_from(lo).is_ok() && i16::try_from(hi).is_ok(),
        "the accumulator proof bounds inputs to 16 bits"
    );
    dst.extend(src.iter().map(|&v| v as i16));
}

/// Integer 2-D convolution of input channels `c0..c0 + ci` of `x` (`[b, c,
/// h, w]`), with zero padding, into `out` (`[b, co, oh, ow]`, overwritten).
/// `patches` is the geometry's [`PatchTable`] — `ci` channels of `h × w`
/// under the layer's spec — built once when the model is loaded; packing
/// the convolution's panels is a gather through it.
///
/// The bias (at the weights' fractional width) is widened by `x.frac` so
/// it lands on the accumulator grid exactly; then each output row of each
/// `(batch, channel)` pair goes to `epi` with the row's global offset —
/// the same `(b·co + ch)·oh·ow` keying as the f32 reference's fused conv
/// epilogue. The i64 path reads the channel range in place; the i32 path
/// narrows it into a dense copy first. Raw output values sit at `x.frac +
/// w_frac` fractional bits unless `epi` requantizes them.
///
/// # Panics
///
/// Panics on geometry mismatches (including a `patches` built for another
/// image), or when `width` is `I32` and an input or weight does not fit
/// 16 bits.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    x: &IntTensor,
    c0: usize,
    weights: &LinearWeights,
    co: usize,
    patches: &PatchTable,
    width: AccWidth,
    out: &mut [i64],
    epi: Option<RowEpilogue<'_, i64>>,
) {
    assert_eq!(x.rank(), 4, "conv input must be [b, c, h, w]");
    let (b, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let spec = patches.spec();
    let ci = weights.weights.len() / (co * spec.kh * spec.kw).max(1);
    assert!(c0 + ci <= c, "conv channel range out of bounds");
    let (oh, ow) = spec.output_hw(h, w);
    let ncols = oh * ow;
    let shift = x.frac();
    let per_row = |idx: usize, row: &mut [i64]| {
        if let Some(bias) = &weights.bias {
            let bv = bias.get(idx % co) << shift;
            row.iter_mut().for_each(|v| *v += bv);
        }
        if let Some(epi) = epi {
            epi(idx * ncols, row);
        }
    };
    let plane = h * w;
    let xd = &x.data()[c0 * plane..];
    match (width, &weights.weights) {
        (AccWidth::I32, Words::Narrow(wn)) => {
            let mut dense = Vec::with_capacity(b * ci * plane);
            for t in 0..b {
                narrow_into(&mut dense, &xd[t * c * plane..(t * c + ci) * plane]);
            }
            let input = ConvInput::dense(&dense, [b, ci, h, w]);
            patches.conv2d(input, wn, co, out, per_row);
        }
        (AccWidth::I32, Words::Wide(_)) => panic!("the i32 path needs 16-bit weights"),
        (AccWidth::I64, ws) => {
            let input = ConvInput {
                data: xd,
                batch: b,
                channels: ci,
                h,
                w,
                batch_stride: c * plane,
            };
            patches.conv2d(input, &ws.wide(), co, out, per_row);
        }
    }
}

/// Regathers `[b, ni, di]` capsules as `[ni, b, di]`: each input
/// capsule's rows over the batch, contiguous.
fn capsule_major<T: Copy + Default>(x: &[T], b: usize, ni: usize, di: usize) -> Vec<T> {
    let mut u = vec![T::default(); x.len()];
    for t in 0..b {
        for i in 0..ni {
            let src = (t * ni + i) * di;
            u[(i * b + t) * di..(i * b + t + 1) * di].copy_from_slice(&x[src..src + di]);
        }
    }
    u
}

/// Batch-major integer capsule votes: `û[b,i,j,·] = u[b,i,·] · W[i,j,·,·]`
/// on raw values, mirroring `qcn_capsnet::layers::caps_votes_infer_fused`.
///
/// One work item is one input capsule × every sample — a `b × di` by `di ×
/// nj·dj` product — so `W[i]` is read once per batch. The result is laid
/// out capsule-major, `[ni, b, nj, dj]`, which is what the routing reads;
/// each `(sample, capsule)` row of `nj·dj` outputs goes to `epi` keyed by
/// the reference's offset `(b·ni + i)·nj·dj`, so rounding draws are the
/// reference's. `weights` comes from [`LinearWeights::votes`].
///
/// # Panics
///
/// Panics on geometry mismatches, or when `width` is `I32` and an input
/// or weight does not fit 16 bits.
pub fn caps_votes(
    x: &IntTensor,
    weights: &LinearWeights,
    nj: usize,
    dj: usize,
    width: AccWidth,
    out_frac: u8,
    epi: RowEpilogue<'_, i64>,
) -> IntTensor {
    assert_eq!(x.rank(), 3, "caps votes input must be [b, i, di]");
    let (b, ni, di) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    assert_eq!(
        weights.weights.len(),
        ni * di * nj * dj,
        "vote weight count mismatch"
    );
    let mut out = IntTensor::zeros(vec![ni, b, nj, dj], out_frac);
    let n = nj * dj;
    let per_batch = |i: usize, block: &mut [i64]| {
        for (t, row) in block.chunks_exact_mut(n).enumerate() {
            epi((t * ni + i) * n, row);
        }
    };
    match (width, &weights.weights) {
        (AccWidth::I32, Words::Narrow(wn)) => {
            let mut narrowed = Vec::with_capacity(x.data().len());
            narrow_into(&mut narrowed, x.data());
            let u = capsule_major(&narrowed, b, ni, di);
            batched_gemm(&u, wn, out.data_mut(), b, di, n, per_batch);
        }
        (AccWidth::I32, Words::Wide(_)) => panic!("the i32 path needs 16-bit weights"),
        (AccWidth::I64, ws) => {
            let u = capsule_major(x.data(), b, ni, di);
            batched_gemm(&u, &ws.wide(), out.data_mut(), b, di, n, per_batch);
        }
    }
    out
}
