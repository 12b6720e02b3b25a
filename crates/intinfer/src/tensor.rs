//! The raw fixed-point tensor the engine computes on: `i64` words plus the
//! fractional precision they carry.

use qcn_tensor::Tensor;

/// A dense row-major tensor of raw two's-complement fixed-point values.
///
/// Every element is the integer `v · 2^frac` of the real value `v` it
/// represents; the engine's kernels manipulate only these integers and
/// track `frac` through every multiply (fracs add) and requantization
/// (frac becomes the output width). Unlike [`qcn_fixed::Fx`] this carries
/// no per-element format — a whole tensor shares one precision, exactly as
/// a hardware accumulator bank does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntTensor {
    data: Vec<i64>,
    dims: Vec<usize>,
    frac: u8,
}

/// Exactly converts a raw value at `frac` fractional bits to `f32`.
///
/// The conversion goes through `f64` (exact for any `i64` up to 2^53) and
/// then narrows; it is lossless whenever the raw magnitude fits 24
/// significant bits — the same condition under which the fake-quantized
/// f32 reference path computes exactly, so on the engine's validated
/// formats no bit is lost here.
#[inline]
pub fn raw_to_f32(raw: i64, frac: u8) -> f32 {
    (raw as f64 * (-(frac as f64)).exp2()) as f32
}

/// Whether `v` lies on the `2^-frac` grid: finite and an exact multiple
/// of the grid step — the values [`IntTensor::from_f32_on_grid`] accepts.
pub fn on_grid(v: f32, frac: u8) -> bool {
    (v as f64 * (frac as f64).exp2()).fract() == 0.0
}

/// Rounds `v` to the nearest point of the `2^-frac` grid (ties away from
/// zero), without clamping: the analog front-end's input quantization,
/// applied once to an evaluation set so that it passes [`on_grid`].
pub fn snap_to_grid(v: f32, frac: u8) -> f32 {
    let scale = (frac as f64).exp2();
    ((v as f64 * scale).round() / scale) as f32
}

/// Exactly converts an on-grid `f32` back to its raw index at `frac`
/// fractional bits.
///
/// # Panics
///
/// Panics (in debug builds) when `value` is not on the `2^-frac` grid —
/// the engine only converts values that a rounding step just placed there.
#[inline]
pub fn f32_to_raw(value: f32, frac: u8) -> i64 {
    let scaled = value as f64 * (frac as f64).exp2();
    debug_assert_eq!(
        scaled,
        scaled.trunc(),
        "value {value} off the 2^-{frac} grid"
    );
    scaled as i64
}

impl IntTensor {
    /// An all-zero tensor at `frac` fractional bits.
    pub fn zeros(dims: Vec<usize>, frac: u8) -> Self {
        let len = dims.iter().product();
        IntTensor {
            data: vec![0; len],
            dims,
            frac,
        }
    }

    /// Wraps raw data produced by a kernel.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not match the shape.
    pub fn from_raw(data: Vec<i64>, dims: Vec<usize>, frac: u8) -> Self {
        assert_eq!(
            data.len(),
            dims.iter().product::<usize>(),
            "raw data does not fill the shape"
        );
        IntTensor { data, dims, frac }
    }

    /// Converts an f32 tensor whose values already lie on the `2^-frac`
    /// grid (e.g. a quantized input batch).
    ///
    /// # Panics
    ///
    /// Panics when an element is off-grid: the integer engine has no
    /// representation for such a value, and silently rounding here would
    /// hide an input-pipeline bug.
    pub fn from_f32_on_grid(t: &Tensor, frac: u8) -> Self {
        let eps = (frac as f64).exp2();
        let data = t
            .data()
            .iter()
            .map(|&v| {
                assert!(on_grid(v, frac), "input value {v} off the 2^-{frac} grid");
                (v as f64 * eps) as i64
            })
            .collect();
        IntTensor {
            data,
            dims: t.dims().to_vec(),
            frac,
        }
    }

    /// Exactly dequantizes into an f32 tensor.
    pub fn to_f32(&self) -> Tensor {
        let data: Vec<f32> = self
            .data
            .iter()
            .map(|&r| raw_to_f32(r, self.frac))
            .collect();
        Tensor::from_vec(data, self.dims.clone()).expect("shape matches data")
    }

    /// The shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Fractional bits the raw values carry.
    pub fn frac(&self) -> u8 {
        self.frac
    }

    /// Re-labels the fractional precision (used by kernels whose epilogue
    /// already requantized the data in place).
    pub(crate) fn set_frac(&mut self, frac: u8) {
        self.frac = frac;
    }

    /// The raw values, row-major.
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Mutable raw values, row-major.
    pub fn data_mut(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reinterprets the buffer under a new shape of equal length.
    ///
    /// # Panics
    ///
    /// Panics when the element counts differ.
    pub fn reshape(mut self, dims: Vec<usize>) -> Self {
        assert_eq!(
            self.data.len(),
            dims.iter().product::<usize>(),
            "reshape changes element count"
        );
        self.dims = dims;
        self
    }

    /// Materializes a permutation of the axes (same semantics as
    /// [`Tensor::permute`]). A swap of the last two axes — the capsule
    /// layouts' `[.., dim, h·w] ↔ [.., h·w, dim]` — runs as a plain
    /// per-block transpose.
    ///
    /// # Panics
    ///
    /// Panics when `perm` is not a permutation of the axes.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.dims.len(), "permutation rank mismatch");
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.dims[p]).collect();
        let r = perm.len();
        let swaps_last_two = r >= 2
            && perm[r - 2] == r - 1
            && perm[r - 1] == r - 2
            && perm[..r - 2].iter().enumerate().all(|(i, &p)| i == p);
        if swaps_last_two && !self.data.is_empty() {
            let (rows, cols) = (self.dims[r - 2], self.dims[r - 1]);
            let mut out = Vec::with_capacity(self.data.len());
            for blk in self.data.chunks_exact(rows * cols) {
                for j in 0..cols {
                    out.extend(blk.iter().skip(j).step_by(cols));
                }
            }
            return IntTensor {
                data: out,
                dims: out_dims,
                frac: self.frac,
            };
        }
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        let src_strides: Vec<usize> = perm.iter().map(|&p| strides[p]).collect();
        let mut out = vec![0i64; self.data.len()];
        let mut idx = vec![0usize; out_dims.len()];
        for o in out.iter_mut() {
            let src: usize = idx.iter().zip(&src_strides).map(|(i, s)| i * s).sum();
            *o = self.data[src];
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < out_dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        IntTensor {
            data: out,
            dims: out_dims,
            frac: self.frac,
        }
    }
}

/// Flattens a packed conv-caps tensor `[b, types·dim, h, w]` into a capsule
/// list `[b, types·h·w, dim]` — the raw-integer mirror of
/// `qcn_capsnet::layers::flatten_caps` (pure data movement, no arithmetic).
///
/// # Panics
///
/// Panics when the channel count is not divisible by `dim`.
pub fn flatten_caps_raw(x: &IntTensor, dim: usize) -> IntTensor {
    let (b, ch, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    assert_eq!(
        ch % dim,
        0,
        "channels {ch} not divisible by capsule dim {dim}"
    );
    let types = ch / dim;
    x.clone()
        .reshape(vec![b, types, dim, h * w])
        .permute(&[0, 1, 3, 2])
        .reshape(vec![b, types * h * w, dim])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_f32_is_exact() {
        let t = IntTensor::from_raw((-8..8).collect(), vec![4, 4], 3);
        let f = t.to_f32();
        let back = IntTensor::from_f32_on_grid(&f, 3);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "off the 2^-")]
    fn off_grid_input_is_rejected() {
        let t = Tensor::from_vec(vec![0.3], [1]).unwrap();
        IntTensor::from_f32_on_grid(&t, 2);
    }

    #[test]
    fn permute_matches_tensor_permute() {
        let raw: Vec<i64> = (0..24).collect();
        let t = IntTensor::from_raw(raw.clone(), vec![2, 3, 4], 0);
        let f = Tensor::from_vec(raw.iter().map(|&r| r as f32).collect(), [2, 3, 4]).unwrap();
        let pt = t.permute(&[2, 0, 1]);
        let pf = f.permute(&[2, 0, 1]);
        assert_eq!(pt.dims(), pf.dims());
        let got: Vec<f32> = pt.data().iter().map(|&r| r as f32).collect();
        assert_eq!(got, pf.data());
    }

    #[test]
    fn last_two_axes_swap_matches_tensor_permute() {
        let raw: Vec<i64> = (0..2 * 3 * 4 * 5).collect();
        let t = IntTensor::from_raw(raw.clone(), vec![2, 3, 4, 5], 0);
        let f = Tensor::from_vec(raw.iter().map(|&r| r as f32).collect(), [2, 3, 4, 5]).unwrap();
        let pt = t.permute(&[0, 1, 3, 2]);
        assert_eq!(pt.dims(), &[2, 3, 5, 4]);
        let got: Vec<f32> = pt.data().iter().map(|&r| r as f32).collect();
        assert_eq!(got, f.permute(&[0, 1, 3, 2]).data());
    }

    #[test]
    fn flatten_caps_matches_reference_layout() {
        let raw: Vec<i64> = (0..16).collect();
        let t = IntTensor::from_raw(raw.clone(), vec![1, 4, 2, 2], 0);
        let f = Tensor::from_vec(raw.iter().map(|&r| r as f32).collect(), [1, 4, 2, 2]).unwrap();
        let got = flatten_caps_raw(&t, 2);
        let want = qcn_capsnet::layers::flatten_caps(&f, 2);
        assert_eq!(got.dims(), want.dims());
        let gotf: Vec<f32> = got.data().iter().map(|&r| r as f32).collect();
        assert_eq!(gotf, want.data());
    }
}
