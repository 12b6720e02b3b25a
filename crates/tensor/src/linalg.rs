//! Matrix multiplication, transposition and axis permutation.
//!
//! The matrix-product kernels are cache-blocked (`KC`-deep panels with an
//! `MR×NR` register tile) and parallelized over contiguous row / batch
//! blocks through [`crate::parallel`]. Every output element is accumulated
//! in the same order regardless of the thread count or the position of a
//! row inside a worker's block — the per-element reduction is fixed by the
//! `KC` panel schedule, not by the partition — so results are bit-identical
//! for every `QCN_NUM_THREADS` setting.
//!
//! The blocked kernel is generic over [`GemmElem`], an element type paired
//! with its accumulator and output word: `f32` is the float path, and the
//! integer inference engine runs the same kernel on `i16` and `i64` words.

use crate::{parallel, Shape, Tensor};
use std::ops::AddAssign;

/// A fused writeback epilogue for the blocked kernels: called once per
/// finished contiguous region of the output with `(offset, region)`, where
/// `offset` is the region's global element offset into the output buffer.
///
/// The kernels guarantee every output element is passed to the epilogue
/// exactly once, after its reduction is complete, by the worker that
/// produced it — while the region is still cache-hot. An epilogue must
/// derive anything stateful (e.g. stochastic rounding draws) from `offset`
/// alone, never from call order, so results stay bit-identical for every
/// thread count and tiling; quantized inference uses this to round
/// activations as they are stored instead of in a second pass. `T` is the
/// output word: `f32` for the float kernels, `i64` for the integer ones.
pub type RowEpilogue<'a, T = f32> = &'a (dyn Fn(usize, &mut [T]) + Sync);

/// An element type the blocked GEMM multiplies, paired with the register
/// accumulator its products fold into and the output word each finished
/// panel sum is stored as (first panel) or added to (later panels).
///
/// * `f32` accumulates with [`crate::fmadd`] into `f32` — the float path.
/// * `i16` multiplies into `i32` and stores `i64`: exact whenever every
///   partial sum fits `i32`, which the caller proves before choosing it.
///   A debug build panics on overflow instead of wrapping.
/// * `i64` accumulates and stores `i64` — the integer fallback.
///
/// Integer addition is associative, so the integer instantiations give the
/// same sums for any blocking; the float one keeps the fixed `l` order.
pub trait GemmElem: Copy + Default + Send + Sync + 'static {
    /// The register accumulator.
    type Acc: Copy + Default;
    /// The output word the accumulator is widened into.
    type Out: Copy + Send + Sync + AddAssign + From<Self::Acc>;
    /// `acc + a·b`.
    fn mac(a: Self, b: Self, acc: Self::Acc) -> Self::Acc;
}

impl GemmElem for f32 {
    type Acc = f32;
    type Out = f32;
    #[inline(always)]
    fn mac(a: f32, b: f32, acc: f32) -> f32 {
        crate::fmadd(a, b, acc)
    }
}

impl GemmElem for i16 {
    type Acc = i32;
    type Out = i64;
    #[inline(always)]
    fn mac(a: i16, b: i16, acc: i32) -> i32 {
        acc + i32::from(a) * i32::from(b)
    }
}

impl GemmElem for i64 {
    type Acc = i64;
    type Out = i64;
    #[inline(always)]
    fn mac(a: i64, b: i64, acc: i64) -> i64 {
        acc + a * b
    }
}

/// Register-tile width (output columns held in accumulators at once).
/// Four 16-lane vectors per row: each `a` broadcast feeds four FMAs,
/// keeping the kernel FMA-bound instead of load-port-bound.
const NR: usize = 64;
/// Register-tile height (output rows held in accumulators at once).
/// `MR × NR/16 = 16` independent FMA dependency chains per `l` step —
/// enough to hide FMA latency on wide cores without spilling the
/// accumulator tile out of the vector register file.
const MR: usize = 4;
/// Depth of one cache panel: `KC × NR` of `b` plus `MR × KC` of `a` stay
/// resident while a tile is computed.
const KC: usize = 256;
/// `l`-step unroll of the microkernel's panel loop. Unrolling amortizes
/// the loop-carried index arithmetic; each output element still receives
/// its two terms sequentially (one fused chain), so the reduction order
/// is exactly the unrolled serial order.
const UL: usize = 2;

/// Computes one `mr × w` output tile (`mr ≤ MR`, `w ≤ W ≤ NR`) for the
/// panel `l0..l1`, reading the right operand from `bpack` (the panel's
/// columns packed contiguously, `W` floats per `l`, the `W - w` pad lanes
/// zero), accumulating into registers first and writing the panel sum to
/// `out` once — stored outright when `STORE` (first panel of a
/// fresh-output product, skipping the read of the zeroed destination),
/// added otherwise, widened to the output word either way. The
/// accumulation order over `l` is ascending and identical for every
/// instantiation, which is what makes the kernel's reduction order
/// independent of tiling and threading decisions.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel<E: GemmElem, const MR_: usize, const W: usize, const STORE: bool>(
    a: &[E],
    bpack: &[E],
    out: &mut [E::Out],
    i0: usize,
    j0: usize,
    w: usize,
    l0: usize,
    l1: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[E::Acc::default(); W]; MR_];
    let kc = l1 - l0;
    // Fixed trip counts everywhere so the compiler keeps the whole
    // accumulator tile in vector registers. `UL` panel rows are consumed
    // per iteration; the trailing `kc % UL` rows run through the
    // scalar-`l` epilogue below. Narrow tiles (`w < W`) arrive
    // zero-padded to `W` by the packing stage — the padding lanes
    // accumulate `av × 0` garbage that the `w`-wide writeback discards,
    // while the live lanes see exactly the full-width reduction order.
    let mut li = 0usize;
    for bgrp in bpack.chunks_exact(W * UL).take(kc / UL) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let abase = (i0 + r) * k + l0 + li;
            let arow = &a[abase..abase + UL];
            for (u, &av) in arow.iter().enumerate() {
                let brow = &bgrp[u * W..(u + 1) * W];
                for c in 0..W {
                    acc_row[c] = E::mac(av, brow[c], acc_row[c]);
                }
            }
        }
        li += UL;
    }
    while li < kc {
        let brow = &bpack[li * W..(li + 1) * W];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a[(i0 + r) * k + l0 + li];
            for c in 0..W {
                acc_row[c] = E::mac(av, brow[c], acc_row[c]);
            }
        }
        li += 1;
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let orow = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + w];
        if STORE {
            for c in 0..w {
                orow[c] = acc_row[c].into();
            }
        } else {
            for c in 0..w {
                orow[c] += acc_row[c].into();
            }
        }
    }
}

/// Packs the `l0..l1 × j..j+w` panel of the row-major matrix `b`
/// (`k × n`, only `n` is needed) into `bpack`, zero-padding each row to
/// the stride `wpad`. The padding keeps the microkernel on a fixed-width
/// path for narrow edge tiles; the pad lanes are discarded on writeback.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_matrix_panel<E: GemmElem>(
    b: &[E],
    n: usize,
    l0: usize,
    l1: usize,
    j: usize,
    w: usize,
    wpad: usize,
    bpack: &mut [E],
) {
    for l in l0..l1 {
        let dst = &mut bpack[(l - l0) * wpad..(l - l0 + 1) * wpad];
        dst[..w].copy_from_slice(&b[l * n + j..l * n + j + w]);
        dst[w..].fill(E::default());
    }
}

/// `out += a[m,k] × B` on the calling thread, cache-blocked (`out = a × B`
/// when `store` is set — for freshly zeroed outputs, where reading the
/// destination back on the first panel would be pure overhead), with the
/// right operand supplied panel-by-panel through `pack_panel(l0, l1, j,
/// w, wpad, bpack)` — the callback fills `bpack` (length `(l1-l0) ×
/// wpad`) with the `l0..l1 × j..j+w` panel of the logical `k × n` right
/// operand, each row zero-padded to the stride `wpad` (`w` rounded up to
/// a multiple of 16, so edge tiles run a narrower fixed-width kernel
/// instead of wasting most of a full-width one).
///
/// Each panel is packed once and reused across all row tiles — packing
/// turns the microkernel's strided `B` accesses into aligned streaming
/// loads, and lets callers synthesize `B` on the fly (the implicit-GEMM
/// convolution packs patches straight from the input image, skipping the
/// materialized im2col matrix). Packing is a pure copy, and every output
/// element still accumulates its `l` terms in ascending order (panels in
/// order, `l0..l1` within each), so results are bitwise independent of
/// the blocking and of how `B` is supplied.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub(crate) fn gemm_serial_with<E: GemmElem>(
    a: &[E],
    out: &mut [E::Out],
    m: usize,
    k: usize,
    n: usize,
    store: bool,
    bpack: &mut [E],
    pack_panel: &mut dyn FnMut(usize, usize, usize, usize, usize, &mut [E]),
) {
    debug_assert!(a.len() >= m * k && out.len() >= m * n);
    debug_assert!(bpack.len() >= KC * NR);
    if m == 0 || n == 0 {
        return;
    }
    let mut l0 = 0;
    loop {
        let l1 = (l0 + KC).min(k);
        let mut j = 0;
        while j < n {
            let w = NR.min(n - j);
            let wpad = (w + 15) & !15;
            pack_panel(l0, l1, j, w, wpad, &mut bpack[..(l1 - l0) * wpad]);
            let mut i = 0;
            while i < m {
                let mr = MR.min(m - i);
                macro_rules! tile {
                    ($mr:literal, $w:literal) => {
                        if store && l0 == 0 {
                            micro_kernel::<E, $mr, $w, true>(a, bpack, out, i, j, w, l0, l1, k, n)
                        } else {
                            micro_kernel::<E, $mr, $w, false>(a, bpack, out, i, j, w, l0, l1, k, n)
                        }
                    };
                }
                match (mr, wpad) {
                    (4, 64) => tile!(4, 64),
                    (4, 48) => tile!(4, 48),
                    (4, 32) => tile!(4, 32),
                    (4, _) => tile!(4, 16),
                    (3, 64) => tile!(3, 64),
                    (3, 48) => tile!(3, 48),
                    (3, 32) => tile!(3, 32),
                    (3, _) => tile!(3, 16),
                    (2, 64) => tile!(2, 64),
                    (2, 48) => tile!(2, 48),
                    (2, 32) => tile!(2, 32),
                    (2, _) => tile!(2, 16),
                    (_, 64) => tile!(1, 64),
                    (_, 48) => tile!(1, 48),
                    (_, 32) => tile!(1, 32),
                    _ => tile!(1, 16),
                }
                i += mr;
            }
            j += w;
        }
        if l1 == k {
            break;
        }
        l0 = l1;
    }
}

/// `out += a[m,k] × b[k,n]` on the calling thread, cache-blocked.
///
/// There is deliberately no `a[i,l] == 0.0` skip: besides blocking
/// vectorization, the skip was wrong — `0.0 × NaN` and `0.0 × ∞` must
/// propagate as NaN into the product instead of being dropped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_serial<E: GemmElem>(
    a: &[E],
    b: &[E],
    out: &mut [E::Out],
    m: usize,
    k: usize,
    n: usize,
    store: bool,
    scratch: &mut [E],
) {
    debug_assert!(b.len() >= k * n);
    gemm_serial_with(
        a,
        out,
        m,
        k,
        n,
        store,
        scratch,
        &mut |l0, l1, j, w, wpad, bpack| {
            pack_matrix_panel(b, n, l0, l1, j, w, wpad, bpack);
        },
    );
}

/// One worker's panel-packing scratch (`KC × NR`): allocate once per
/// worker partition and reuse across panels, batches, and GEMM calls —
/// the pack callbacks overwrite the used prefix in full, so the buffer
/// never needs re-zeroing between calls.
pub(crate) fn panel_scratch<E: GemmElem>() -> Vec<E> {
    vec![E::default(); KC * NR]
}

/// `out += a[m,k] × b[k,n]` (`out = a × b` when `store`), parallelized
/// over contiguous row blocks, with an optional fused writeback epilogue
/// applied to each worker's finished row block (offset `rows.start × n`).
///
/// Each output row is produced by exactly one worker running
/// [`gemm_serial`] on its block, so the result is bit-identical to the
/// single-threaded product — including the epilogue, which only ever sees
/// completed rows and position-derived state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    store: bool,
    epilogue: Option<RowEpilogue>,
) {
    if m == 0 || n == 0 {
        return;
    }
    // Only spawn a worker for at least ~64k multiply-adds of work.
    let min_rows = (65_536 / (k * n).max(1)).max(1);
    parallel::par_split_mut(out, n, min_rows, |rows, out_rows| {
        let a_rows = &a[rows.start * k..rows.end * k];
        let mut scratch = panel_scratch();
        gemm_serial(a_rows, b, out_rows, rows.len(), k, n, store, &mut scratch);
        if let Some(epi) = epilogue {
            epi(rows.start * n, out_rows);
        }
    });
}

/// Batched product `out[t] = a[t] × b[t]` over the `out.len() / (m·n)`
/// batch items (`a[t]` is `m × k`, `b[t]` is `k × n`, everything row-major
/// and contiguous), parallelized over the batch axis. Each product runs
/// the serial blocked kernel on one worker, which then hands the finished
/// `m × n` block to `per_batch(t, block)` while it is cache-hot, so the
/// result is bit-identical for every thread count.
///
/// # Panics
///
/// Panics when the operand lengths disagree with the batch geometry.
pub fn batched_gemm<E: GemmElem>(
    a: &[E],
    b: &[E],
    out: &mut [E::Out],
    m: usize,
    k: usize,
    n: usize,
    per_batch: impl Fn(usize, &mut [E::Out]) + Sync,
) {
    if m * n == 0 {
        return;
    }
    let batches = out.len() / (m * n);
    assert_eq!(
        out.len(),
        batches * m * n,
        "output is not whole batch items"
    );
    assert_eq!(a.len(), batches * m * k, "lhs does not match the batch");
    assert_eq!(b.len(), batches * k * n, "rhs does not match the batch");
    // One batch per worker at minimum; each batch's product is the serial
    // kernel, so batch order inside a worker is irrelevant.
    parallel::par_split_mut(out, m * n, 1, |items, out_block| {
        let mut scratch = panel_scratch();
        for (off, t) in items.clone().enumerate() {
            let block = &mut out_block[off * m * n..(off + 1) * m * n];
            gemm_serial(
                &a[t * m * k..(t + 1) * m * k],
                &b[t * k * n..(t + 1) * k * n],
                block,
                m,
                k,
                n,
                true,
                &mut scratch,
            );
            per_batch(t, block);
        }
    });
}

/// Transposes `src` (`rows × cols`, row-major) into the `dst` slice holding
/// output rows `j0..j1` (i.e. `dst` is `(j1-j0) × rows`), tile-wise so both
/// sides stay cache-resident.
pub(crate) fn transpose_block(
    src: &[f32],
    dst: &mut [f32],
    rows: usize,
    cols: usize,
    j0: usize,
    j1: usize,
) {
    const TILE: usize = 32;
    let mut jb = j0;
    while jb < j1 {
        let je = (jb + TILE).min(j1);
        let mut ib = 0;
        while ib < rows {
            let ie = (ib + TILE).min(rows);
            for j in jb..je {
                let drow = &mut dst[(j - j0) * rows..(j - j0) * rows + rows];
                for i in ib..ie {
                    drow[i] = src[i * cols + j];
                }
            }
            ib = ie;
        }
        jb = je;
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Runs the cache-blocked kernel, parallelized over row blocks; the
    /// result is bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when either operand is not rank 2 or the inner dimensions
    /// disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcn_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
    /// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
    /// assert_eq!(a.matmul(&id), a);
    /// # Ok::<(), qcn_tensor::TensorError>(())
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.matmul_fused(rhs, None)
    }

    /// [`Tensor::matmul`] with an optional fused writeback epilogue: each
    /// finished block of output rows is handed to `epilogue` exactly once,
    /// cache-hot, before the product returns. See [`RowEpilogue`] for the
    /// determinism contract.
    pub fn matmul_fused(&self, rhs: &Tensor, epilogue: Option<RowEpilogue>) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "matmul lhs must be rank 2, got {}",
            self.shape()
        );
        assert_eq!(
            rhs.rank(),
            2,
            "matmul rhs must be rank 2, got {}",
            rhs.shape()
        );
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul inner dims disagree: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), rhs.data(), &mut out, m, k, n, true, epilogue);
        Tensor::from_vec(out, [m, n]).expect("matmul output shape is consistent")
    }

    /// Batched matrix product: `[b, m, k] × [b, k, n] → [b, m, n]`,
    /// parallelized over the batch axis (each batch product runs the same
    /// serial blocked kernel, so results match `matmul` per batch exactly).
    ///
    /// # Panics
    ///
    /// Panics when either operand is not rank 3, the batch sizes differ, or
    /// the inner dimensions disagree.
    pub fn bmm(&self, rhs: &Tensor) -> Tensor {
        self.bmm_fused(rhs, None)
    }

    /// [`Tensor::bmm`] with an optional fused writeback epilogue, applied
    /// to each finished batch product (offset `batch × m × n`) while it is
    /// still cache-hot. See [`RowEpilogue`] for the determinism contract.
    pub fn bmm_fused(&self, rhs: &Tensor, epilogue: Option<RowEpilogue>) -> Tensor {
        assert_eq!(
            self.rank(),
            3,
            "bmm lhs must be rank 3, got {}",
            self.shape()
        );
        assert_eq!(rhs.rank(), 3, "bmm rhs must be rank 3, got {}", rhs.shape());
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, k2, n) = (rhs.dims()[0], rhs.dims()[1], rhs.dims()[2]);
        assert_eq!(b, b2, "bmm batch sizes disagree: {b} vs {b2}");
        assert_eq!(k, k2, "bmm inner dims disagree: {k} vs {k2}");
        let mut out = vec![0.0f32; b * m * n];
        batched_gemm(
            self.data(),
            rhs.data(),
            &mut out,
            m,
            k,
            n,
            |batch, block| {
                if let Some(epi) = epilogue {
                    epi(batch * m * n, block);
                }
            },
        );
        Tensor::from_vec(out, [b, m, n]).expect("bmm output shape is consistent")
    }

    /// Transpose of a rank-2 tensor, tile-blocked and parallelized over
    /// output row strips.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "transpose requires rank 2, got {}",
            self.shape()
        );
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        if m > 0 && n > 0 {
            let min_rows = (4096 / m.max(1)).max(1);
            let src = self.data();
            parallel::par_split_mut(&mut out, m, min_rows, |jr, dst| {
                transpose_block(src, dst, m, n, jr.start, jr.end);
            });
        }
        Tensor::from_vec(out, [n, m]).expect("transpose output shape is consistent")
    }

    /// Reorders axes according to `perm`, copying into a contiguous tensor.
    ///
    /// `perm` must be a permutation of `0..rank`; output axis `i` is input
    /// axis `perm[i]`. The identity permutation is a plain copy and a swap
    /// of the last two axes runs as a batched blocked transpose
    /// (parallelized over the leading axes); other permutations fall back
    /// to a generic strided walk.
    ///
    /// # Panics
    ///
    /// Panics when `perm` is not a permutation of the axis indices.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcn_tensor::Tensor;
    ///
    /// let t = Tensor::from_fn([2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
    /// let p = t.permute(&[2, 0, 1]);
    /// assert_eq!(p.dims(), &[4, 2, 3]);
    /// assert_eq!(p.get(&[3, 1, 2]), t.get(&[1, 2, 3]));
    /// ```
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(
            perm.len(),
            self.rank(),
            "permutation length {} does not match rank {}",
            perm.len(),
            self.rank()
        );
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            assert!(
                p < self.rank() && !seen[p],
                "invalid permutation {perm:?} for rank {}",
                self.rank()
            );
            seen[p] = true;
        }
        let rank = self.rank();
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return self.clone();
        }
        // Fast path: identity prefix with the last two axes swapped is a
        // batched rank-2 transpose over contiguous blocks.
        let swaps_last_two = rank >= 2
            && perm[rank - 2] == rank - 1
            && perm[rank - 1] == rank - 2
            && perm[..rank - 2].iter().enumerate().all(|(i, &p)| i == p);
        if swaps_last_two {
            let rows = self.dims()[rank - 2];
            let cols = self.dims()[rank - 1];
            let batch: usize = self.dims()[..rank - 2].iter().product();
            let mut out_dims = self.dims().to_vec();
            out_dims.swap(rank - 2, rank - 1);
            let mut out = vec![0.0f32; batch * rows * cols];
            if rows > 0 && cols > 0 && batch > 0 {
                let src = self.data();
                parallel::par_split_mut(&mut out, rows * cols, 1, |batches, dst| {
                    for (off, b) in batches.clone().enumerate() {
                        transpose_block(
                            &src[b * rows * cols..(b + 1) * rows * cols],
                            &mut dst[off * rows * cols..(off + 1) * rows * cols],
                            rows,
                            cols,
                            0,
                            cols,
                        );
                    }
                });
            }
            return Tensor::from_vec(out, Shape::new(out_dims))
                .expect("permute output shape is consistent");
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.dims()[p]).collect();
        let out_shape = Shape::new(out_dims);
        let in_strides = self.shape().strides();
        // Stride into the input for each output axis.
        let strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let rank = out_shape.rank();
        let mut data = Vec::with_capacity(out_shape.len());
        let mut counters = vec![0usize; rank];
        let mut in_off = 0usize;
        for _ in 0..out_shape.len() {
            data.push(self.data()[in_off]);
            let mut axis = rank;
            while axis > 0 {
                axis -= 1;
                counters[axis] += 1;
                in_off += strides[axis];
                if counters[axis] < out_shape.dim(axis) {
                    break;
                }
                in_off -= strides[axis] * counters[axis];
                counters[axis] = 0;
            }
        }
        Tensor::from_vec(data, out_shape).expect("permute output shape is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    /// Straightforward triple loop, used as the oracle for the blocked
    /// kernel. Accumulates with the same [`crate::fmadd`] primitive so the
    /// comparison is bitwise on every build.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc = crate::fmadd(a.data()[i * k + l], b.data()[l * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn([3, 3], |i| (i[0] * 3 + i[1]) as f32);
        let id = Tensor::from_fn([3, 3], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn blocked_kernel_matches_naive_on_awkward_shapes() {
        // Shapes straddling the MR/NR/KC tile boundaries, including
        // degenerate ones.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 19),
            (7, 300, 33),
            (9, 2, 65),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
        ] {
            let a = Tensor::from_fn([m, k], |i| {
                ((i[0] * 31 + i[1] * 7) % 13) as f32 * 0.25 - 1.0
            });
            let b = Tensor::from_fn([k, n], |i| ((i[0] * 17 + i[1] * 3) % 11) as f32 * 0.5 - 2.0);
            let got = a.matmul(&b);
            let want = matmul_naive(&a, &b);
            for (x, y) in got.data().iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_propagates_nan_and_infinity() {
        // The old kernel skipped a[i,l] == 0.0, silently dropping the
        // IEEE-mandated 0 × NaN = NaN and 0 × ∞ = NaN contributions.
        let a = Tensor::from_vec(vec![0.0, 1.0], [1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 5.0, 1.0, 1.0], [2, 2]).unwrap();
        let c = a.matmul(&b);
        assert!(c.data()[0].is_nan(), "0 × NaN must poison the dot product");
        assert_eq!(c.data()[1], 1.0);

        let binf = Tensor::from_vec(vec![f32::INFINITY, 1.0], [2, 1]).unwrap();
        let cinf = a.matmul(&binf);
        assert!(cinf.data()[0].is_nan(), "0 × ∞ must poison the dot product");
    }

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        let a = Tensor::from_fn([23, 37], |i| ((i[0] * 13 + i[1]) % 97) as f32 * 0.1 - 4.0);
        let b = Tensor::from_fn([37, 29], |i| {
            ((i[0] * 7 + i[1] * 5) % 89) as f32 * 0.2 - 8.0
        });
        let serial = with_threads(1, || a.matmul(&b));
        for t in [2, 3, 7, 8] {
            let par = with_threads(t, || a.matmul(&b));
            assert_eq!(par.data(), serial.data(), "thread count {t}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn matmul_rejects_mismatched_inner() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_fn([2, 2, 3], |i| (i[0] + i[1] * 2 + i[2]) as f32);
        let b = Tensor::from_fn([2, 3, 2], |i| (i[0] * 3 + i[1] + i[2] * 2) as f32);
        let c = a.bmm(&b);
        for batch in 0..2 {
            let a_b = Tensor::from_fn([2, 3], |i| a.get(&[batch, i[0], i[1]]));
            let b_b = Tensor::from_fn([3, 2], |i| b.get(&[batch, i[0], i[1]]));
            let c_b = a_b.matmul(&b_b);
            for i in 0..2 {
                for j in 0..2 {
                    assert_eq!(c.get(&[batch, i, j]), c_b.get(&[i, j]));
                }
            }
        }
    }

    #[test]
    fn bmm_is_bit_identical_across_thread_counts() {
        let a = Tensor::from_fn([13, 4, 9], |i| {
            ((i[0] * 11 + i[1] * 3 + i[2]) % 23) as f32 * 0.3
        });
        let b = Tensor::from_fn([13, 9, 5], |i| {
            ((i[0] * 5 + i[1] * 7 + i[2]) % 19) as f32 * 0.7
        });
        let serial = with_threads(1, || a.bmm(&b));
        for t in [2, 7] {
            assert_eq!(
                with_threads(t, || a.bmm(&b)).data(),
                serial.data(),
                "threads {t}"
            );
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn([2, 5], |i| (i[0] * 5 + i[1]) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(&[3, 1]), a.get(&[1, 3]));
    }

    #[test]
    fn transpose_blocked_matches_elementwise_on_large_odd_shapes() {
        let a = Tensor::from_fn([67, 45], |i| (i[0] * 1000 + i[1]) as f32);
        let t = with_threads(3, || a.transpose());
        assert_eq!(t.dims(), &[45, 67]);
        for i in 0..67 {
            for j in 0..45 {
                assert_eq!(t.get(&[j, i]), a.get(&[i, j]));
            }
        }
    }

    #[test]
    fn permute_identity_and_reverse() {
        let t = Tensor::from_fn([2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        assert_eq!(t.permute(&[0, 1, 2]), t);
        let r = t.permute(&[2, 1, 0]);
        assert_eq!(r.dims(), &[4, 3, 2]);
        assert_eq!(r.get(&[3, 2, 1]), t.get(&[1, 2, 3]));
    }

    #[test]
    fn permute_last_two_swap_fast_path_matches_generic() {
        // [0, 2, 1] takes the batched-transpose fast path; verify it
        // against direct indexing, across thread counts.
        let t = Tensor::from_fn([5, 33, 17], |i| (i[0] * 10_000 + i[1] * 100 + i[2]) as f32);
        let serial = with_threads(1, || t.permute(&[0, 2, 1]));
        assert_eq!(serial.dims(), &[5, 17, 33]);
        for b in 0..5 {
            for i in 0..33 {
                for j in 0..17 {
                    assert_eq!(serial.get(&[b, j, i]), t.get(&[b, i, j]));
                }
            }
        }
        for threads in [2, 7] {
            assert_eq!(with_threads(threads, || t.permute(&[0, 2, 1])), serial);
        }
        // Rank-4 variant: [0, 1, 3, 2].
        let q = Tensor::from_fn([2, 3, 4, 5], |i| {
            (i[0] * 1000 + i[1] * 100 + i[2] * 10 + i[3]) as f32
        });
        let p = q.permute(&[0, 1, 3, 2]);
        assert_eq!(p.get(&[1, 2, 4, 3]), q.get(&[1, 2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn permute_rejects_duplicates() {
        Tensor::zeros([2, 2]).permute(&[0, 0]);
    }

    #[test]
    fn matmul_transpose_identity_property() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_fn([3, 4], |i| (i[0] * 4 + i[1]) as f32 * 0.5);
        let b = Tensor::from_fn([4, 2], |i| (i[0] + i[1]) as f32 * 0.25);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
