//! 2-D convolution via im2col / col2im, with the backward-pass helpers the
//! autograd engine needs.
//!
//! All convolutions use NCHW layout: inputs are `[batch, channels, height,
//! width]`, weights are `[out_channels, in_channels, kh, kw]`.
//!
//! The hot paths run through [`crate::parallel`]: im2col / col2im are
//! partitioned over the batch axis, and the convolution GEMMs over
//! batch·output-row blocks, each block computed by the serial cache-blocked
//! kernel — so every result is bit-identical for every thread count.

use crate::linalg::{
    gemm, gemm_serial_with, min_items, pack_matrix_panel, panel_scratch, transpose_block,
};
use crate::{parallel, GemmElem, RowEpilogue, Tensor};

/// Static description of a 2-D convolution (kernel geometry and padding).
///
/// # Examples
///
/// ```
/// use qcn_tensor::conv::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 3, 1, 1);
/// assert_eq!(spec.output_hw(8, 8), (8, 8)); // "same" padding at stride 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec from kernel size, stride and padding.
    ///
    /// # Panics
    ///
    /// Panics when the kernel has a zero dimension or stride is zero.
    pub fn new(kh: usize, kw: usize, stride: usize, padding: usize) -> Self {
        assert!(kh > 0 && kw > 0, "kernel dimensions must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            kh,
            kw,
            stride,
            padding,
        }
    }

    /// Spatial output size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics when the kernel does not fit in the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kh && pw >= self.kw,
            "kernel {}x{} does not fit input {h}x{w} with padding {}",
            self.kh,
            self.kw,
            self.padding
        );
        (
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        )
    }
}

/// Valid output-coordinate range `[lo, hi)` along one axis for kernel
/// offset `k`: the `o` with `0 ≤ o·stride + k − padding < extent`.
fn valid_range(extent: usize, o_extent: usize, k: usize, spec: Conv2dSpec) -> (usize, usize) {
    let (s, p) = (spec.stride, spec.padding);
    let lo = p.saturating_sub(k).div_ceil(s);
    let hi = if extent + p > k {
        ((extent + p - k - 1) / s + 1).min(o_extent)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Unfolds one batch: `in_batch` is `[c, h, w]`, `out_batch` is
/// `[c·kh·kw, oh·ow]` (pre-zeroed; padding positions stay zero).
///
/// The padding bounds are resolved analytically per row, so the inner loop
/// is a branch-free contiguous copy at stride 1 and a strided gather
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn im2col_batch(
    in_batch: &[f32],
    out_batch: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    spec: Conv2dSpec,
) {
    let cols = oh * ow;
    let (s, p) = (spec.stride, spec.padding);
    for ch in 0..c {
        for ki in 0..spec.kh {
            let (oi_lo, oi_hi) = valid_range(h, oh, ki, spec);
            for kj in 0..spec.kw {
                let row = (ch * spec.kh + ki) * spec.kw + kj;
                let (oj_lo, oj_hi) = valid_range(w, ow, kj, spec);
                if oj_lo >= oj_hi {
                    continue;
                }
                for oi in oi_lo..oi_hi {
                    let ii = oi * s + ki - p;
                    let src_base = (ch * h + ii) * w + (oj_lo * s + kj - p);
                    let dst =
                        &mut out_batch[row * cols + oi * ow + oj_lo..row * cols + oi * ow + oj_hi];
                    if s == 1 {
                        dst.copy_from_slice(&in_batch[src_base..src_base + dst.len()]);
                    } else {
                        for (t, d) in dst.iter_mut().enumerate() {
                            *d = in_batch[src_base + t * s];
                        }
                    }
                }
            }
        }
    }
}

/// Folds one batch back, accumulating overlaps: the adjoint of
/// [`im2col_batch`].
#[allow(clippy::too_many_arguments)]
fn col2im_batch(
    col_batch: &[f32],
    out_batch: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    spec: Conv2dSpec,
) {
    let ncols = oh * ow;
    let (s, p) = (spec.stride, spec.padding);
    for ch in 0..c {
        for ki in 0..spec.kh {
            let (oi_lo, oi_hi) = valid_range(h, oh, ki, spec);
            for kj in 0..spec.kw {
                let row = (ch * spec.kh + ki) * spec.kw + kj;
                let (oj_lo, oj_hi) = valid_range(w, ow, kj, spec);
                if oj_lo >= oj_hi {
                    continue;
                }
                for oi in oi_lo..oi_hi {
                    let ii = oi * s + ki - p;
                    let dst_base = (ch * h + ii) * w + (oj_lo * s + kj - p);
                    let src =
                        &col_batch[row * ncols + oi * ow + oj_lo..row * ncols + oi * ow + oj_hi];
                    if s == 1 {
                        let dst = &mut out_batch[dst_base..dst_base + src.len()];
                        for (d, &x) in dst.iter_mut().zip(src) {
                            *d += x;
                        }
                    } else {
                        for (t, &x) in src.iter().enumerate() {
                            out_batch[dst_base + t * s] += x;
                        }
                    }
                }
            }
        }
    }
}

/// Unfolds image patches into columns: `[b, c, h, w] → [b, c·kh·kw, oh·ow]`,
/// parallelized over the batch axis.
///
/// Column `p` of batch `b` holds the receptive field of output pixel `p`,
/// flattened channel-major. Out-of-bounds (padding) elements read as zero.
///
/// # Panics
///
/// Panics when `input` is not rank 4 or the kernel does not fit.
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Tensor {
    assert_eq!(
        input.rank(),
        4,
        "im2col expects NCHW, got {}",
        input.shape()
    );
    let (b, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (oh, ow) = spec.output_hw(h, w);
    let cols = oh * ow;
    let rows = c * spec.kh * spec.kw;
    let mut out = vec![0.0f32; b * rows * cols];
    if rows * cols > 0 {
        let in_data = input.data();
        parallel::par_split_mut(&mut out, rows * cols, 1, |batches, block| {
            for (off, batch) in batches.clone().enumerate() {
                im2col_batch(
                    &in_data[batch * c * h * w..(batch + 1) * c * h * w],
                    &mut block[off * rows * cols..(off + 1) * rows * cols],
                    c,
                    h,
                    w,
                    oh,
                    ow,
                    spec,
                );
            }
        });
    }
    Tensor::from_vec(out, [b, rows, cols]).expect("im2col output shape is consistent")
}

/// Folds columns back into an image, accumulating overlaps: the adjoint of
/// [`im2col`]. `cols` is `[b, c·kh·kw, oh·ow]`; returns `[b, c, h, w]`.
/// Parallelized over the batch axis.
///
/// # Panics
///
/// Panics when `cols` is not rank 3-compatible with the given geometry.
pub fn col2im(cols: &Tensor, spec: Conv2dSpec, c: usize, h: usize, w: usize) -> Tensor {
    assert_eq!(
        cols.rank(),
        3,
        "col2im expects rank 3, got {}",
        cols.shape()
    );
    let (oh, ow) = spec.output_hw(h, w);
    let b = cols.dims()[0];
    let rows = c * spec.kh * spec.kw;
    assert_eq!(cols.dims()[1], rows, "col2im row count mismatch");
    assert_eq!(cols.dims()[2], oh * ow, "col2im column count mismatch");
    let mut out = vec![0.0f32; b * c * h * w];
    let ncols = oh * ow;
    if c * h * w > 0 {
        let col_data = cols.data();
        parallel::par_split_mut(&mut out, c * h * w, 1, |batches, block| {
            for (off, batch) in batches.clone().enumerate() {
                col2im_batch(
                    &col_data[batch * rows * ncols..(batch + 1) * rows * ncols],
                    &mut block[off * c * h * w..(off + 1) * c * h * w],
                    c,
                    h,
                    w,
                    oh,
                    ow,
                    spec,
                );
            }
        });
    }
    Tensor::from_vec(out, [b, c, h, w]).expect("col2im output shape is consistent")
}

/// Per-row geometry of the implicit im2col matrix, precomputed once per
/// convolution so the packing inner loop is division-free. Row `l`
/// (`l = (ch·kh + ki)·kw + kj`) copies from image row `ch·h + oi·s + ki − p`
/// for the valid output rows `oi_lo..oi_hi`.
struct PackRow {
    /// `ch * h` — image row base of this channel.
    chh: usize,
    /// Kernel row offset `ki`.
    ki: usize,
    /// Kernel column offset `kj`.
    kj: usize,
    /// Valid output-row range for `ki`.
    oi_lo: usize,
    oi_hi: usize,
    /// Valid output-column range for `kj`.
    oj_lo: usize,
    oj_hi: usize,
}

/// Builds the [`PackRow`] table for a `[c, h, w]` image under `spec`.
fn pack_rows(c: usize, h: usize, w: usize, oh: usize, ow: usize, spec: Conv2dSpec) -> Vec<PackRow> {
    let mut rows = Vec::with_capacity(c * spec.kh * spec.kw);
    for ch in 0..c {
        for ki in 0..spec.kh {
            let (oi_lo, oi_hi) = valid_range(h, oh, ki, spec);
            for kj in 0..spec.kw {
                let (oj_lo, oj_hi) = valid_range(w, ow, kj, spec);
                rows.push(PackRow {
                    chh: ch * h,
                    ki,
                    kj,
                    oi_lo,
                    oi_hi,
                    oj_lo,
                    oj_hi,
                });
            }
        }
    }
    rows
}

/// Packs the `l0..l1 × j..j+w` panel of one batch's *implicit* im2col
/// matrix (`c·kh·kw × oh·ow`) straight from the image `in_batch`
/// (`[c, h, w]` flattened) into `bpack`, each row zero-padded to the
/// stride `wpad`. Produces exactly the values [`im2col_batch`] would —
/// padding positions read as zero — without materializing the matrix.
/// `meta` is the [`pack_rows`] table; the loop body is divisions-free.
#[allow(clippy::too_many_arguments)]
fn pack_input_panel<E: GemmElem>(
    in_batch: &[E],
    bpack: &mut [E],
    meta: &[PackRow],
    l0: usize,
    l1: usize,
    j: usize,
    wcols: usize,
    wpad: usize,
    img_w: usize,
    ow: usize,
    spec: Conv2dSpec,
) {
    let w = img_w;
    let (s, p) = (spec.stride, spec.padding);
    let col_end = j + wcols;
    // Output rows `oi` whose pixel range intersects columns [j, col_end).
    let (oi_first, oi_last) = (j / ow, (col_end - 1) / ow);
    for (dst, m) in bpack.chunks_exact_mut(wpad).zip(&meta[l0..l1]) {
        dst.fill(E::default());
        for oi in oi_first.max(m.oi_lo)..(oi_last + 1).min(m.oi_hi) {
            let seg_lo = j.saturating_sub(oi * ow).max(m.oj_lo);
            let seg_hi = (col_end - oi * ow).min(ow).min(m.oj_hi);
            if seg_lo >= seg_hi {
                continue;
            }
            let ii = oi * s + m.ki - p;
            let src_base = (m.chh + ii) * w + (seg_lo * s + m.kj - p);
            let dst_seg = &mut dst[oi * ow + seg_lo - j..oi * ow + seg_hi - j];
            if s == 1 {
                dst_seg.copy_from_slice(&in_batch[src_base..src_base + seg_hi - seg_lo]);
            } else {
                for (t, d) in dst_seg.iter_mut().enumerate() {
                    *d = in_batch[src_base + t * s];
                }
            }
        }
    }
}

/// Runs the per-batch GEMMs `out[batch] = lhs_rows × B(batch)` (callers
/// pass a freshly zeroed `out`, so the kernel's store writeback skips
/// reading the destination back) with the
/// output partitioned over batch·row blocks. `lhs` is `[m, k]` (shared
/// across batches); the logical right operand `B(batch)` (`k × n`) is
/// supplied panel-wise by `pack(batch, l0, l1, j, w, bpack)`. Each output
/// row is computed by exactly one worker with the serial kernel, so the
/// result is thread-count invariant. `per_row` runs once per finished row
/// with the row's *global* item index (`batch · m + row`, so `idx % m`
/// recovers the within-batch row and `idx · n` the element offset) — the
/// hook bias folding and the fused quantization epilogues share.
#[allow(clippy::type_complexity)]
fn batched_gemm_shared_lhs<E: GemmElem>(
    lhs: &[E],
    out: &mut [E::Out],
    m: usize,
    k: usize,
    n: usize,
    pack: impl Fn(usize, usize, usize, usize, usize, usize, &mut [E]) + Sync,
    per_row: impl Fn(usize, &mut [E::Out]) + Sync,
) {
    if m == 0 || n == 0 {
        return;
    }
    // Only spawn a worker for at least ~64k float multiply-adds of work
    // (more for `i16`'s cheaper words).
    let min_rows = min_items::<E>(k * n, (65_536 / (k * n).max(1)).max(1));
    parallel::par_split_mut(out, n, min_rows, |items, block| {
        let mut scratch = panel_scratch();
        let mut idx = items.start;
        let mut off = 0;
        while idx < items.end {
            let batch = idx / m;
            let r0 = idx % m;
            let r1 = m.min(items.end - batch * m);
            let nrows = r1 - r0;
            let out_rows = &mut block[off * n..(off + nrows) * n];
            gemm_serial_with(
                &lhs[r0 * k..r1 * k],
                out_rows,
                nrows,
                k,
                n,
                true,
                &mut scratch,
                &mut |l0, l1, j, w, wpad, bpack| pack(batch, l0, l1, j, w, wpad, bpack),
            );
            for r in 0..nrows {
                per_row(batch * m + r0 + r, &mut out_rows[r * n..(r + 1) * n]);
            }
            idx += nrows;
            off += nrows;
        }
    });
}

/// The image operand of [`conv2d_implicit`]: `batch` images of `channels
/// × h × w` words, image `t` starting at `data[t · batch_stride]`. A
/// stride wider than `channels·h·w` reads a channel range of a wider
/// tensor in place (slice `data` to start at the range's first channel).
#[derive(Debug, Clone, Copy)]
pub struct ConvInput<'a, E> {
    /// The image words.
    pub data: &'a [E],
    /// Images in the batch.
    pub batch: usize,
    /// Channels read per image.
    pub channels: usize,
    /// Image height.
    pub h: usize,
    /// Image width.
    pub w: usize,
    /// Distance between consecutive images in `data`.
    pub batch_stride: usize,
}

impl<'a, E> ConvInput<'a, E> {
    /// A dense `[batch, channels, h, w]` batch.
    pub fn dense(data: &'a [E], dims: [usize; 4]) -> Self {
        let [batch, channels, h, w] = dims;
        ConvInput {
            data,
            batch,
            channels,
            h,
            w,
            batch_stride: channels * h * w,
        }
    }
}

/// The implicit-GEMM convolution on any [`GemmElem`]: `out[t, ch] =
/// weight[ch] · patches(x[t])`, where `weight` is `[co, channels·kh·kw]`
/// row-major and `out` is the `[batch, co, oh, ow]` buffer (its previous
/// contents are overwritten). The blocked kernel's packing stage reads
/// patches straight from the image, so the im2col matrix is never
/// materialized; the work is parallelized over batch·output-channel rows.
/// Each finished `oh·ow` row goes to `per_row(t·co + ch, row)` exactly
/// once, cache-hot — the hook for bias folding and fused epilogues.
///
/// # Panics
///
/// Panics when the buffers disagree with the geometry.
pub fn conv2d_implicit<E: GemmElem>(
    x: ConvInput<'_, E>,
    weight: &[E],
    co: usize,
    spec: Conv2dSpec,
    out: &mut [E::Out],
    per_row: impl Fn(usize, &mut [E::Out]) + Sync,
) {
    let (oh, ow) = spec.output_hw(x.h, x.w);
    let chw = check_conv_buffers(&x, weight, co, spec, oh * ow, out);
    let meta = pack_rows(x.channels, x.h, x.w, oh, ow, spec);
    let (data, batch_stride, w) = (x.data, x.batch_stride, x.w);
    batched_gemm_shared_lhs(
        weight,
        out,
        co,
        x.channels * spec.kh * spec.kw,
        oh * ow,
        |t, l0, l1, j, wc, wpad, bpack| {
            pack_input_panel(
                &data[t * batch_stride..t * batch_stride + chw],
                bpack,
                &meta,
                l0,
                l1,
                j,
                wc,
                wpad,
                w,
                ow,
                spec,
            );
        },
        per_row,
    );
}

/// Checks a convolution's buffers against its geometry; returns the words
/// one image spans (`channels·h·w`).
fn check_conv_buffers<E: GemmElem>(
    x: &ConvInput<'_, E>,
    weight: &[E],
    co: usize,
    spec: Conv2dSpec,
    ncols: usize,
    out: &[E::Out],
) -> usize {
    let chw = x.channels * x.h * x.w;
    assert_eq!(
        weight.len(),
        co * x.channels * spec.kh * spec.kw,
        "conv weight count mismatch"
    );
    assert_eq!(out.len(), x.batch * co * ncols, "conv output size mismatch");
    assert!(
        x.batch == 0 || (x.batch - 1) * x.batch_stride + chw <= x.data.len(),
        "conv input is shorter than its geometry"
    );
    chw
}

/// The image offset of every element of one convolution geometry's
/// implicit im2col matrix, built once so packing a panel is a plain table
/// gather instead of per-row segment arithmetic.
///
/// Entry `l·oh·ow + p` is where row `l` (`(ch·kh + ki)·kw + kj`) of output
/// pixel `p` reads its image (`[channels, h, w]` flattened), or
/// `channels·h·w`, one past the image, for a padding position, which
/// reads as zero. Offsets are `u16` when the image has fewer than 65 535
/// words (every layer of the model zoo), `u32` otherwise.
///
/// # Examples
///
/// ```
/// use qcn_tensor::conv::{Conv2dSpec, ConvInput, PatchTable};
///
/// // One 1×3×3 image, a 2×2 kernel: out[p] = Σ window(p).
/// let table = PatchTable::new(1, 3, 3, Conv2dSpec::new(2, 2, 1, 0));
/// let x: Vec<i64> = (1..=9).collect();
/// let mut out = vec![0i64; 4];
/// table.conv2d(ConvInput::dense(&x, [1, 1, 3, 3]), &[1; 4], 1, &mut out, |_, _| {});
/// assert_eq!(out, [12, 16, 24, 28]);
/// ```
#[derive(Debug, Clone)]
pub struct PatchTable {
    channels: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    /// Output pixels, `oh·ow`: the length of one table row.
    ncols: usize,
    offsets: PatchOffsets,
}

/// The offsets of a [`PatchTable`] at the narrowest word that holds them.
#[derive(Debug, Clone)]
enum PatchOffsets {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl PatchTable {
    /// Builds the table of a `[channels, h, w]` image under `spec`.
    ///
    /// # Panics
    ///
    /// Panics when the kernel does not fit the padded image, or the image
    /// has more than `u32::MAX` words.
    pub fn new(channels: usize, h: usize, w: usize, spec: Conv2dSpec) -> Self {
        let (oh, ow) = spec.output_hw(h, w);
        let (ncols, khw) = (oh * ow, spec.kh * spec.kw);
        let chw = channels * h * w;
        let (s, p) = (spec.stride, spec.padding);
        // Entry `i` is row `l = i / ncols` at output pixel `i % ncols`.
        let offset = move |i: usize| {
            let (l, px) = (i / ncols, i % ncols);
            let (ch, ki, kj) = (l / khw, l % khw / spec.kw, l % spec.kw);
            let ii = (px / ow * s + ki).wrapping_sub(p);
            let jj = (px % ow * s + kj).wrapping_sub(p);
            if ii < h && jj < w {
                (ch * h + ii) * w + jj
            } else {
                chw
            }
        };
        let entries = 0..channels * khw * ncols;
        let offsets = if chw < usize::from(u16::MAX) {
            PatchOffsets::Narrow(entries.map(|i| offset(i) as u16).collect())
        } else {
            assert!(
                u32::try_from(chw).is_ok(),
                "image too large for a patch table"
            );
            PatchOffsets::Wide(entries.map(|i| offset(i) as u32).collect())
        };
        PatchTable {
            channels,
            h,
            w,
            spec,
            ncols,
            offsets,
        }
    }

    /// The convolution geometry the table was built for.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Bytes the offsets occupy.
    pub fn bytes(&self) -> usize {
        match &self.offsets {
            PatchOffsets::Narrow(o) => o.len() * 2,
            PatchOffsets::Wide(o) => o.len() * 4,
        }
    }

    /// Packs the `l0..l1 × j..j+wc` panel of `img`'s implicit im2col
    /// matrix into `bpack`, each row zero-padded to `wpad`: exactly what
    /// [`pack_input_panel`] packs.
    #[allow(clippy::too_many_arguments)]
    fn pack<E: Copy + Default>(
        &self,
        img: &[E],
        l0: usize,
        l1: usize,
        j: usize,
        wc: usize,
        wpad: usize,
        bpack: &mut [E],
    ) {
        let ncols = self.ncols;
        match &self.offsets {
            PatchOffsets::Narrow(o) => gather(img, o, ncols, l0, l1, j, wc, wpad, bpack),
            PatchOffsets::Wide(o) => gather(img, o, ncols, l0, l1, j, wc, wpad, bpack),
        }
    }

    /// [`conv2d_implicit`] with this table's geometry, packing panels by
    /// table gather: the same output bits.
    ///
    /// # Panics
    ///
    /// Panics when `x`'s image geometry is not the table's, or the buffers
    /// disagree with it.
    pub fn conv2d<E: GemmElem>(
        &self,
        x: ConvInput<'_, E>,
        weight: &[E],
        co: usize,
        out: &mut [E::Out],
        per_row: impl Fn(usize, &mut [E::Out]) + Sync,
    ) {
        assert_eq!(
            (x.channels, x.h, x.w),
            (self.channels, self.h, self.w),
            "conv input does not match its patch table"
        );
        let spec = self.spec;
        let chw = check_conv_buffers(&x, weight, co, spec, self.ncols, out);
        let (data, batch_stride) = (x.data, x.batch_stride);
        batched_gemm_shared_lhs(
            weight,
            out,
            co,
            x.channels * spec.kh * spec.kw,
            self.ncols,
            |t, l0, l1, j, wc, wpad, bpack| {
                let img = &data[t * batch_stride..t * batch_stride + chw];
                self.pack(img, l0, l1, j, wc, wpad, bpack);
            },
            per_row,
        );
    }
}

/// The table gather behind [`PatchTable`]: row `l` of the panel reads
/// `img` at `offsets[l·ncols + j..][..wc]`, an offset past the image (the
/// padding sentinel) reading zero.
#[allow(clippy::too_many_arguments)]
fn gather<E: Copy + Default, O: Copy + Into<u32>>(
    img: &[E],
    offsets: &[O],
    ncols: usize,
    l0: usize,
    l1: usize,
    j: usize,
    wc: usize,
    wpad: usize,
    bpack: &mut [E],
) {
    for (l, dst) in (l0..l1).zip(bpack.chunks_exact_mut(wpad)) {
        let row = &offsets[l * ncols + j..l * ncols + j + wc];
        for (d, &o) in dst.iter_mut().zip(row) {
            *d = img.get(o.into() as usize).copied().unwrap_or_default();
        }
        if wpad > wc {
            dst[wc..].fill(E::default());
        }
    }
}

/// Forward 2-D convolution: `input [b, ci, h, w]`, `weight [co, ci, kh, kw]`,
/// optional `bias [co]` → `[b, co, oh, ow]`.
///
/// Runs as an implicit GEMM ([`conv2d_implicit`]): the cache-blocked
/// kernel's packing stage reads patches straight from the input image, so
/// the im2col matrix is never materialized. The GEMM is parallelized over
/// batch·output-channel blocks and the bias is folded into the same pass;
/// no intermediate tensors are allocated. The values match the explicit
/// im2col formulation bit-for-bit.
///
/// # Panics
///
/// Panics on rank or channel-count mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    conv2d_fused(input, weight, bias, spec, None)
}

/// [`conv2d`] with an optional fused writeback epilogue: each output row
/// (`oh·ow` elements of one `(batch, channel)` plane, global element offset
/// `(batch·co + channel)·oh·ow`) is handed to the epilogue exactly once, in
/// the same pass that folds the bias in, while it is still cache-hot.
/// Quantized inference uses this to round (and activate) conv outputs as
/// they are stored. See [`RowEpilogue`] for the determinism contract.
///
/// # Panics
///
/// Panics on rank or channel-count mismatches.
pub fn conv2d_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    epilogue: Option<RowEpilogue>,
) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d input must be NCHW");
    assert_eq!(weight.rank(), 4, "conv2d weight must be [co, ci, kh, kw]");
    let (b, ci, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let co = weight.dims()[0];
    assert_eq!(weight.dims()[1], ci, "conv2d channel mismatch");
    assert_eq!(weight.dims()[2], spec.kh, "conv2d kernel height mismatch");
    assert_eq!(weight.dims()[3], spec.kw, "conv2d kernel width mismatch");
    let (oh, ow) = spec.output_hw(h, w);
    let ncols = oh * ow;
    let mut out = Tensor::zeros([b, co, oh, ow]);
    if let Some(bias) = bias {
        assert_eq!(bias.dims(), &[co], "conv2d bias must be [co]");
    }
    let bias_data = bias.map(|t| t.data());
    conv2d_implicit(
        ConvInput::dense(input.data(), [b, ci, h, w]),
        weight.data(),
        co,
        spec,
        out.data_mut(),
        |idx, out_row| {
            if let Some(bd) = bias_data {
                let bv = bd[idx % co];
                for v in out_row.iter_mut() {
                    *v += bv;
                }
            }
            if let Some(epi) = epilogue {
                epi(idx * ncols, out_row);
            }
        },
    );
    out
}

/// Gradient of `conv2d` w.r.t. its input. `grad` is `[b, co, oh, ow]`.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn conv2d_backward_input(
    grad: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    h: usize,
    w: usize,
) -> Tensor {
    let (b, co) = (grad.dims()[0], grad.dims()[1]);
    let ci = weight.dims()[1];
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(grad.dims()[2], oh, "grad height mismatch");
    assert_eq!(grad.dims()[3], ow, "grad width mismatch");
    let rows = ci * spec.kh * spec.kw;
    let ncols = oh * ow;
    let w2t = weight
        .reshape([co, rows])
        .expect("weight reshape is consistent")
        .transpose(); // [rows, co]
    let mut cols = Tensor::zeros([b, rows, ncols]);
    let grad_data = grad.data();
    batched_gemm_shared_lhs(
        w2t.data(),
        cols.data_mut(),
        rows,
        co,
        ncols,
        |batch, l0, l1, j, wc, wpad, bpack| {
            pack_matrix_panel(
                &grad_data[batch * co * ncols..(batch + 1) * co * ncols],
                ncols,
                l0,
                l1,
                j,
                wc,
                wpad,
                bpack,
            );
        },
        |_, _| {},
    );
    col2im(&cols, spec, ci, h, w)
}

/// Gradient of `conv2d` w.r.t. its weights. Returns `[co, ci, kh, kw]`.
///
/// The per-batch products accumulate into the gradient in ascending batch
/// order with a row-parallel GEMM per batch, so the reduction order per
/// element is independent of the thread count.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn conv2d_backward_weight(input: &Tensor, grad: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (b, ci, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let co = grad.dims()[1];
    let (oh, ow) = spec.output_hw(h, w);
    let rows = ci * spec.kh * spec.kw;
    let ncols = oh * ow;
    let cols = im2col(input, spec);
    let mut acc = Tensor::zeros([co, rows]);
    let mut scratch = vec![0.0f32; ncols * rows];
    for batch in 0..b {
        // acc += grad_b [co, ncols] × cols_bᵀ [ncols, rows]
        transpose_block(
            &cols.data()[batch * rows * ncols..(batch + 1) * rows * ncols],
            &mut scratch,
            rows,
            ncols,
            0,
            ncols,
        );
        gemm(
            &grad.data()[batch * co * ncols..(batch + 1) * co * ncols],
            &scratch,
            acc.data_mut(),
            co,
            ncols,
            rows,
            false,
            None,
        );
    }
    acc.reshape([co, ci, spec.kh, spec.kw])
        .expect("weight gradient reshape is consistent")
}

/// Gradient of `conv2d` w.r.t. its bias: sums `grad` over batch and space.
///
/// # Panics
///
/// Panics when `grad` is not rank 4.
pub fn conv2d_backward_bias(grad: &Tensor) -> Tensor {
    assert_eq!(grad.rank(), 4, "bias gradient expects NCHW grad");
    let (b, co, oh, ow) = (
        grad.dims()[0],
        grad.dims()[1],
        grad.dims()[2],
        grad.dims()[3],
    );
    let mut out = Tensor::zeros([co]);
    for batch in 0..b {
        for ch in 0..co {
            let base = (batch * co + ch) * oh * ow;
            out.data_mut()[ch] += grad.data()[base..base + oh * ow].iter().sum::<f32>();
        }
    }
    out
}

/// Reference (naive, quadruple-loop) conv2d used to validate the im2col path.
pub fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Tensor {
    let (b, ci, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let co = weight.dims()[0];
    let (oh, ow) = spec.output_hw(h, w);
    Tensor::from_fn([b, co, oh, ow], |idx| {
        let (batch, oc, oi, oj) = (idx[0], idx[1], idx[2], idx[3]);
        let mut acc = bias.map_or(0.0, |bias| bias.data()[oc]);
        for ic in 0..ci {
            for ki in 0..spec.kh {
                for kj in 0..spec.kw {
                    let ii = oi * spec.stride + ki;
                    let jj = oj * spec.stride + kj;
                    if ii < spec.padding
                        || jj < spec.padding
                        || ii >= h + spec.padding
                        || jj >= w + spec.padding
                    {
                        continue;
                    }
                    acc += input.get(&[batch, ic, ii - spec.padding, jj - spec.padding])
                        * weight.get(&[oc, ic, ki, kj]);
                }
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    fn seq_tensor(shape: &[usize]) -> Tensor {
        let mut v = 0.0;
        Tensor::from_fn(shape.to_vec(), |_| {
            v += 1.0;
            (v * 17.0) % 7.0 - 3.0
        })
    }

    #[test]
    fn output_hw_geometry() {
        assert_eq!(Conv2dSpec::new(3, 3, 1, 0).output_hw(5, 5), (3, 3));
        assert_eq!(Conv2dSpec::new(3, 3, 1, 1).output_hw(5, 5), (5, 5));
        assert_eq!(Conv2dSpec::new(9, 9, 1, 0).output_hw(28, 28), (20, 20));
        assert_eq!(Conv2dSpec::new(9, 9, 2, 0).output_hw(20, 20), (6, 6));
        assert_eq!(Conv2dSpec::new(2, 2, 2, 0).output_hw(4, 4), (2, 2));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is a plain reshape.
        let t = seq_tensor(&[1, 2, 3, 3]);
        let cols = im2col(&t, Conv2dSpec::new(1, 1, 1, 0));
        assert_eq!(cols.dims(), &[1, 2, 9]);
        assert_eq!(cols.data(), t.data());
    }

    #[test]
    fn conv2d_matches_reference_no_padding() {
        let input = seq_tensor(&[2, 3, 6, 6]);
        let weight = seq_tensor(&[4, 3, 3, 3]);
        let bias = seq_tensor(&[4]);
        let spec = Conv2dSpec::new(3, 3, 1, 0);
        let fast = conv2d(&input, &weight, Some(&bias), spec);
        let slow = conv2d_reference(&input, &weight, Some(&bias), spec);
        assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv2d_matches_reference_padding_and_stride() {
        let input = seq_tensor(&[1, 2, 7, 7]);
        let weight = seq_tensor(&[3, 2, 3, 3]);
        let spec = Conv2dSpec::new(3, 3, 2, 1);
        let fast = conv2d(&input, &weight, None, spec);
        let slow = conv2d_reference(&input, &weight, None, spec);
        assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv2d_forward_and_backward_bit_identical_across_thread_counts() {
        let input = seq_tensor(&[3, 4, 9, 9]);
        let weight = seq_tensor(&[5, 4, 3, 3]);
        let bias = seq_tensor(&[5]);
        let spec = Conv2dSpec::new(3, 3, 1, 1);
        let (fwd1, gin1, gw1) = with_threads(1, || {
            let out = conv2d(&input, &weight, Some(&bias), spec);
            let grad = seq_tensor(out.dims());
            (
                out,
                conv2d_backward_input(&grad, &weight, spec, 9, 9),
                conv2d_backward_weight(&input, &grad, spec),
            )
        });
        for t in [2, 7, 8] {
            let (fwd, gin, gw) = with_threads(t, || {
                let out = conv2d(&input, &weight, Some(&bias), spec);
                let grad = seq_tensor(out.dims());
                (
                    out,
                    conv2d_backward_input(&grad, &weight, spec, 9, 9),
                    conv2d_backward_weight(&input, &grad, spec),
                )
            });
            assert_eq!(fwd.data(), fwd1.data(), "forward, threads {t}");
            assert_eq!(gin.data(), gin1.data(), "grad input, threads {t}");
            assert_eq!(gw.data(), gw1.data(), "grad weight, threads {t}");
        }
    }

    #[test]
    fn conv2d_backward_input_matches_finite_difference() {
        let input = seq_tensor(&[1, 2, 5, 5]);
        let weight = seq_tensor(&[2, 2, 3, 3]);
        let spec = Conv2dSpec::new(3, 3, 1, 1);
        let out = conv2d(&input, &weight, None, spec);
        let grad = Tensor::ones(out.shape().clone());
        let gin = conv2d_backward_input(&grad, &weight, spec, 5, 5);
        let h = 1e-2f32;
        for i in (0..input.len()).step_by(7) {
            let mut ip = input.clone();
            ip.data_mut()[i] += h;
            let mut im = input.clone();
            im.data_mut()[i] -= h;
            let fp = conv2d(&ip, &weight, None, spec).sum();
            let fm = conv2d(&im, &weight, None, spec).sum();
            let numeric = (fp - fm) / (2.0 * h);
            assert!(
                (gin.data()[i] - numeric).abs() < 1e-2,
                "element {i}: analytic {} vs numeric {numeric}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn conv2d_backward_weight_matches_finite_difference() {
        let input = seq_tensor(&[2, 2, 4, 4]);
        let weight = seq_tensor(&[2, 2, 3, 3]);
        let spec = Conv2dSpec::new(3, 3, 1, 0);
        let out = conv2d(&input, &weight, None, spec);
        let grad = Tensor::ones(out.shape().clone());
        let gw = conv2d_backward_weight(&input, &grad, spec);
        assert_eq!(gw.dims(), weight.dims());
        let h = 1e-2f32;
        for i in 0..weight.len() {
            let mut wp = weight.clone();
            wp.data_mut()[i] += h;
            let mut wm = weight.clone();
            wm.data_mut()[i] -= h;
            let fp = conv2d(&input, &wp, None, spec).sum();
            let fm = conv2d(&input, &wm, None, spec).sum();
            let numeric = (fp - fm) / (2.0 * h);
            assert!(
                (gw.data()[i] - numeric).abs() < 2e-2,
                "element {i}: analytic {} vs numeric {numeric}",
                gw.data()[i]
            );
        }
    }

    #[test]
    fn conv2d_backward_bias_sums_spatial_and_batch() {
        let grad = Tensor::ones([2, 3, 4, 4]);
        let gb = conv2d_backward_bias(&grad);
        assert_eq!(gb.dims(), &[3]);
        assert!(gb.data().iter().all(|&x| x == 32.0));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ for all x, y — the defining
        // property of the adjoint, checked on pseudo-random data.
        let spec = Conv2dSpec::new(3, 3, 2, 1);
        let x = seq_tensor(&[1, 2, 5, 5]);
        let cols_shape = im2col(&x, spec);
        let y = seq_tensor(cols_shape.dims());
        let lhs = (&im2col(&x, spec) * &y).sum();
        let rhs = (&x * &col2im(&y, spec, 2, 5, 5)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// Image geometry `(channels, h, w, spec)` of every integer conv in
    /// ShallowCaps-S and DeepCaps-S (both with one input channel at 16×16).
    fn model_conv_geometries() -> Vec<(usize, usize, usize, Conv2dSpec)> {
        let (s1, s2) = (Conv2dSpec::new(3, 3, 1, 1), Conv2dSpec::new(3, 3, 2, 1));
        vec![
            // ShallowCaps-S: L1 conv, L2 PrimaryCaps.
            (1, 16, 16, Conv2dSpec::new(5, 5, 1, 0)),
            (24, 12, 12, Conv2dSpec::new(5, 5, 2, 0)),
            // DeepCaps-S: L1 conv; B2 main1/skip, main2; B3 main1, main2,
            // and one input type of the ConvCapsRouting skip.
            (1, 16, 16, s1),
            (16, 16, 16, s2),
            (16, 8, 8, s1),
            (16, 8, 8, s2),
            (32, 4, 4, s1),
            (4, 8, 8, s2),
        ]
    }

    /// Panels of `rows × ncols`: the blocked kernel's own tiling, then
    /// ragged ones from `seed`.
    fn panels(rows: usize, ncols: usize, seed: usize) -> Vec<(usize, usize, usize, usize)> {
        let mut out = Vec::new();
        for l0 in (0..rows).step_by(256) {
            for j in (0..ncols).step_by(64) {
                out.push((l0, (l0 + 256).min(rows), j, 64.min(ncols - j)));
            }
        }
        let mut r = seed;
        let mut next = |n: usize| {
            r = r
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (r >> 33) % n
        };
        for _ in 0..8 {
            let l0 = next(rows);
            let l1 = l0 + 1 + next(rows - l0);
            let j = next(ncols);
            let wc = 1 + next(64.min(ncols - j));
            out.push((l0, l1, j, wc));
        }
        out
    }

    /// The table gather packs every panel exactly as `pack_input_panel`.
    fn assert_gather_matches_segments(c: usize, h: usize, w: usize, spec: Conv2dSpec, seed: usize) {
        let (oh, ow) = spec.output_hw(h, w);
        let table = PatchTable::new(c, h, w, spec);
        let meta = pack_rows(c, h, w, oh, ow, spec);
        // Nonzero words, so a zero in the pack can only be padding.
        let img: Vec<i64> = (1..=(c * h * w) as i64).collect();
        for (l0, l1, j, wc) in panels(c * spec.kh * spec.kw, oh * ow, seed) {
            let wpad = (wc + 15) & !15;
            let mut want = vec![-1i64; (l1 - l0) * wpad];
            let mut got = vec![-2i64; (l1 - l0) * wpad];
            pack_input_panel(&img, &mut want, &meta, l0, l1, j, wc, wpad, w, ow, spec);
            table.pack(&img, l0, l1, j, wc, wpad, &mut got);
            assert_eq!(
                got, want,
                "{c}x{h}x{w} {spec:?} panel {l0}..{l1} x {j}+{wc}"
            );
        }
    }

    #[test]
    fn patch_table_gather_packs_the_model_geometries_like_segments() {
        for (i, (c, h, w, spec)) in model_conv_geometries().into_iter().enumerate() {
            assert_gather_matches_segments(c, h, w, spec, i);
            // Every model image fits u16 offsets: two bytes per entry.
            let (oh, ow) = spec.output_hw(h, w);
            let entries = c * spec.kh * spec.kw * oh * ow;
            assert_eq!(PatchTable::new(c, h, w, spec).bytes(), 2 * entries);
        }
    }

    #[test]
    fn patch_table_widens_to_u32_offsets_past_u16_images() {
        // Full-size ShallowCaps PrimaryCaps: 256 channels of 20×20 is
        // 102 400 words, past u16.
        let (c, h, w, spec) = (256, 20, 20, Conv2dSpec::new(9, 9, 2, 0));
        assert_gather_matches_segments(c, h, w, spec, 7);
        let (oh, ow) = spec.output_hw(h, w);
        let entries = c * spec.kh * spec.kw * oh * ow;
        assert_eq!(PatchTable::new(c, h, w, spec).bytes(), 4 * entries);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn patch_table_gather_packs_like_segments(
            c in 1usize..6,
            hw in (1usize..14, 1usize..14),
            khw in (1usize..6, 1usize..6),
            stride in 1usize..4,
            padding in 0usize..3,
            seed in 0usize..1_000_000,
        ) {
            let ((h, w), (kh, kw)) = (hw, khw);
            if h + 2 * padding >= kh && w + 2 * padding >= kw {
                let spec = Conv2dSpec { kh, kw, stride, padding };
                assert_gather_matches_segments(c, h, w, spec, seed);
            }
        }

        #[test]
        fn tabled_conv_matches_segment_conv_on_channel_ranges(
            channels in (0usize..3, 1usize..5, 0usize..3),
            sizes in (1usize..4, 1usize..7, 3usize..11),
            geometry in (1usize..4, 1usize..3, 0usize..2),
            threads in 1usize..4,
        ) {
            let ((c0, ci, extra), (batch, co, side)) = (channels, sizes);
            let (k, stride, padding) = geometry;
            // Channels `c0..c0 + ci` of a `[batch, c0 + ci + extra, side,
            // side]` tensor, read in place: `batch_stride` is wider than
            // the image.
            let c = c0 + ci + extra;
            let plane = side * side;
            let spec = Conv2dSpec::new(k, k, stride, padding);
            let (oh, ow) = spec.output_hw(side, side);
            let data: Vec<i16> = (0..batch * c * plane).map(|i| (i * 37 % 201) as i16 - 100).collect();
            let weight: Vec<i16> = (0..co * ci * k * k).map(|i| (i * 11 % 41) as i16 - 20).collect();
            let x = ConvInput {
                data: &data[c0 * plane..],
                batch,
                channels: ci,
                h: side,
                w: side,
                batch_stride: c * plane,
            };
            let mark = |idx: usize, row: &mut [i64]| row.iter_mut().for_each(|v| *v += idx as i64);
            let mut want = vec![0i64; batch * co * oh * ow];
            let mut got = vec![7i64; batch * co * oh * ow];
            conv2d_implicit(x, &weight, co, spec, &mut want, mark);
            let table = PatchTable::new(ci, side, side, spec);
            with_threads(threads, || table.conv2d(x, &weight, co, &mut got, mark));
            proptest::prop_assert_eq!(got, want);
        }
    }
}
