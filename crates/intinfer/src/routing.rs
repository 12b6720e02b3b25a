//! The integer dynamic-routing loop (paper Fig. 6 on raw fixed-point),
//! mirroring `qcn_capsnet::layers::dynamic_routing` site for site.
//!
//! Votes enter on the `Q_DR` grid. Per iteration: coupling softmax over
//! output types (rounded to Q_DR), weighted vote aggregation (products at
//! `2·Q_DR` fractional bits, requantized to Q_DR once the sums are
//! complete), squash, and a sequential requantization to Q_DR
//! (or the layer's output width on the last iteration); between
//! iterations the agreement update accumulates at `2·Q_DR` and the logits
//! are re-rounded (clamping into Q1 range, as the reference's rounding
//! does). Every requantization claims its rounding point in the
//! reference's site order and draws from the same keyed stream, so
//! stochastic rounding is bit-identical too.
//!
//! # Lane layout
//!
//! Each sample's votes are packed once into fixed-width lanes: words of
//! the proved width (`i32` or `i64`), laid out `[ti][s][to][dd']` with the
//! capsule dimension `dd` zero-padded to `dd'`, a multiple of [`LANES`].
//! Each spatial position routes on its own lanes. The two contractions,
//! `s_pre[j] = Σ_i c[i,j]·û[i,j]` and `a[i,j] = Σ_d û[i,j,d]·v[j,d]`, walk
//! compile-time `[W; LANES]` chunks, which the compiler keeps in one SIMD
//! register each: `s_pre` sums each chunk over the input types in a
//! register, and the agreement holds each `v[j]` chunk in a register while
//! it sweeps the input types.
//! Integer sums are exact, so neither the padding nor the loop order can
//! change a sum. Everything that rounds — logits, couplings, `s_pre` and
//! `v` — stays in the reference's `[ti, to, s]` and `[to, dd, s]` orders,
//! so each requantization sees the reference's offsets.
//!
//! # Width proof
//!
//! Votes, couplings and `v` are all clamped into Q1.`Q_DR`, so no product
//! exceeds `2^(2·Q_DR)` in magnitude and no partial sum exceeds
//! `max(ti, dd)·2^(2·Q_DR)`. [`RoutePlan::new`] proves at load whether that
//! bound fits `i32`; otherwise the same kernel runs on `i64` words.

use crate::epilogue::KeyedRequant;
use crate::kernels::AccWidth;
use crate::tensor::{raw_to_f32, IntTensor};
use crate::units::{softmax_over_types, squash_blocks_requant, UnitMode, UnitScratch};
use qcn_capsnet::QuantCtx;
use qcn_tensor::parallel;
use std::ops::{Add, Mul};

/// Width of one routing lane chunk, in words.
pub const LANES: usize = 8;

/// Largest `Q_DR` whose softmax exponentials are tabulated at load: the
/// table then holds `2^(Q_DR+1) + 1` entries (32 KB at the bound).
const EXP_TABLE_MAX_DR: u8 = 12;

/// A routing lane word: `i32` when the load-time proof holds, `i64`
/// otherwise. Both instantiate the one routing kernel.
pub(crate) trait LaneWord:
    Copy + Default + Send + Add<Output = Self> + Mul<Output = Self>
{
    /// Narrows a raw value the width proof has bounded.
    fn from_raw(raw: i64) -> Self;
    /// Widens back to a raw value.
    fn raw(self) -> i64;
}

impl LaneWord for i32 {
    fn from_raw(raw: i64) -> Self {
        debug_assert!(i32::try_from(raw).is_ok(), "routing word {raw} past i32");
        raw as i32
    }

    fn raw(self) -> i64 {
        self.into()
    }
}

impl LaneWord for i64 {
    fn from_raw(raw: i64) -> Self {
        raw
    }

    fn raw(self) -> i64 {
        self
    }
}

/// Geometry and precisions of one routing dispatch.
#[derive(Debug, Clone, Copy)]
pub struct RoutingSpec {
    /// Routing iterations.
    pub iters: usize,
    /// Input capsule types `Ti`.
    pub ti: usize,
    /// Output capsule types `To`.
    pub to: usize,
    /// Output capsule dimensionality `Do`.
    pub dd: usize,
    /// Spatial positions `S` (1 for fully-connected routing).
    pub s: usize,
    /// Fractional bits of the routed output (`Qa` of the layer).
    pub out_frac: u8,
}

/// A routing layer's load-time plan: its `Q_DR`, the lane word its sums
/// provably fit, and the exponential table of its float-exact softmax.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    dr: u8,
    width: AccWidth,
    /// `exp(-k·2^-Q_DR)` for `k ∈ [0, 2^(Q_DR+1)]`, when `Q_DR` is within
    /// [`EXP_TABLE_MAX_DR`].
    exp: Option<Vec<f32>>,
}

impl RoutePlan {
    /// Proves the lane width for `ti` input types routing `dd`-dimensional
    /// capsules at `dr` fractional bits, and tabulates the softmax
    /// exponentials.
    ///
    /// Logits stay in Q1.`dr`, so a softmax column's `lane[t] − max` is one
    /// of the on-grid differences `−k·2^-dr`, `k ∈ [0, 2^(dr+1)]`. Both
    /// operands and the difference are exact in f32 up to the table bound,
    /// so each entry is exactly the `f32::exp` the reference evaluates.
    pub fn new(ti: usize, dd: usize, dr: u8) -> Self {
        // The largest Q1.dr magnitude is `|min_raw| = 2^dr`.
        let fits = dr < 16 && (ti.max(dd) as u128) << (2 * dr) <= i32::MAX as u128;
        let width = if fits { AccWidth::I32 } else { AccWidth::I64 };
        let exp = (dr <= EXP_TABLE_MAX_DR).then(|| {
            (0..=1i64 << (dr + 1))
                .map(|k| (raw_to_f32(0, dr) - raw_to_f32(k, dr)).exp())
                .collect()
        });
        RoutePlan { dr, width, exp }
    }

    /// `Q_DR`: fractional bits of votes and routing intermediates.
    pub fn dr(&self) -> u8 {
        self.dr
    }

    /// The proved lane word width.
    pub fn width(&self) -> AccWidth {
        self.width
    }
}

/// One sample's routing buffers, allocated once per routed sample.
struct Scratch<W> {
    /// Packed votes `[ti][s][to][dd']`.
    votes: Vec<[W; LANES]>,
    /// `s_pre` accumulators `[s][to][dd']`.
    acc: Vec<[W; LANES]>,
    /// The squashed `v` as lanes `[s][to][dd']`.
    v: Vec<[W; LANES]>,
    /// Routing logits `[ti, to, s]`.
    logits: Vec<i64>,
    /// Couplings `[ti, to, s]`.
    c: Vec<i64>,
    /// Agreements `[ti, to, s]`.
    agree: Vec<i64>,
    /// `s_pre`, then `v`, in reference order `[to, dd, s]`.
    s_pre: Vec<i64>,
    /// Position-major staging for `s > 1`.
    col: Vec<i64>,
    units: UnitScratch,
}

/// `acc + u·c` on one lane chunk. Taking and returning the chunk by value
/// lets the compiler keep it in one SIMD register, whatever the chunk
/// count.
#[inline(always)]
fn mul_add<W: LaneWord>(acc: [W; LANES], u: [W; LANES], c: W) -> [W; LANES] {
    std::array::from_fn(|l| acc[l] + u[l] * c)
}

/// `acc + u·v`, lane-wise, on one lane chunk.
#[inline(always)]
fn dot_add<W: LaneWord>(acc: [W; LANES], u: [W; LANES], v: [W; LANES]) -> [W; LANES] {
    std::array::from_fn(|l| acc[l] + u[l] * v[l])
}

/// Packs one run of values into lane chunks, zero-padding the last.
fn pack_row<W: LaneWord>(row: &mut [[W; LANES]], vals: &[i64]) {
    let (full, rest) = vals.as_chunks::<LANES>();
    for (w, x) in row.iter_mut().zip(full) {
        *w = x.map(W::from_raw);
    }
    for (w, &x) in row[full.len()..].iter_mut().flatten().zip(rest) {
        *w = W::from_raw(x);
    }
}

/// Unpacks lane chunks into one run of values.
fn unpack_row<W: LaneWord>(row: &[[W; LANES]], vals: &mut [i64]) {
    let (full, rest) = vals.as_chunks_mut::<LANES>();
    let n = full.len();
    for (x, w) in full.iter_mut().zip(row) {
        *x = w.map(W::raw);
    }
    for (x, w) in rest.iter_mut().zip(row[n..].iter().flatten()) {
        *x = w.raw();
    }
}

/// The capsule run length that packs without padding: every capsule when
/// `dd` fills whole lane chunks, else one capsule at a time.
fn run_len(len: usize, dd: usize) -> usize {
    if dd.is_multiple_of(LANES) {
        len.max(1)
    } else {
        dd
    }
}

/// Packs `data`, `[to, dd, s]` in the reference's order, into the lane
/// rows `[s][to][dd']`.
fn pack_positions<W: LaneWord>(
    rows: &mut [[W; LANES]],
    data: &[i64],
    dd: usize,
    s: usize,
    buf: &mut Vec<i64>,
) {
    // Position-major `[s][to·dd]`: `data` itself when `s == 1`.
    let data = if s == 1 {
        data
    } else {
        buf.clear();
        buf.extend((0..s).flat_map(|sp| data[sp..].iter().step_by(s)));
        buf
    };
    let run = run_len(data.len() / s, dd);
    let rows = rows.chunks_mut(run.div_ceil(LANES));
    for (row, vals) in rows.zip(data.chunks(run)) {
        pack_row(row, vals);
    }
}

/// Unpacks the lane rows `[s][to][dd']` into `data`, `[to, dd, s]`.
fn unpack_positions<W: LaneWord>(
    rows: &[[W; LANES]],
    data: &mut [i64],
    dd: usize,
    s: usize,
    buf: &mut Vec<i64>,
) {
    let run = run_len(data.len() / s, dd);
    let unpack = |out: &mut [i64]| {
        for (row, vals) in rows.chunks(run.div_ceil(LANES)).zip(out.chunks_mut(run)) {
            unpack_row(row, vals);
        }
    };
    if s == 1 {
        return unpack(data);
    }
    buf.resize(data.len(), 0);
    unpack(buf);
    let n = data.len() / s;
    for (e, x) in data.iter_mut().enumerate() {
        *x = buf[(e % s) * n + e / s];
    }
}

/// Routes one sample into `out` (`[to, dd, s]` at `out_frac`). `votes` is
/// the whole batch's capsule-major vote tensor `[ti, b, to, dd, s]` at
/// `plan.dr()` fractional bits; this sample's block for input type `i` is
/// `votes[i·b + sample]`.
#[allow(clippy::too_many_arguments)]
fn dynamic_routing_raw<W: LaneWord>(
    votes: &[i64],
    b: usize,
    sample: usize,
    p: RoutingSpec,
    plan: &RoutePlan,
    mode: UnitMode,
    ctx: &mut QuantCtx,
    out: &mut [i64],
) {
    let RoutingSpec {
        iters,
        ti,
        to,
        dd,
        s,
        out_frac,
    } = p;
    let (dr, exp) = (plan.dr, plan.exp.as_deref());
    let row = dd * s;
    let chunks = dd.div_ceil(LANES);
    debug_assert_eq!(votes.len(), ti * b * to * row);
    let zero = [W::default(); LANES];
    let mut sc = Scratch {
        votes: vec![zero; s * ti * to * chunks],
        acc: vec![zero; s * to * chunks],
        v: vec![zero; s * to * chunks],
        logits: vec![0i64; ti * to * s],
        c: vec![0i64; ti * to * s],
        agree: vec![0i64; ti * to * s],
        s_pre: vec![0i64; to * row],
        col: Vec::new(),
        units: UnitScratch::default(),
    };
    // First lane chunk of input type `i`'s vote for output type `j` at
    // position `sp`, and of output capsule `j` at `sp`.
    let urow = |i: usize, sp: usize, j: usize| ((i * s + sp) * to + j) * chunks;
    let vrow = |sp: usize, j: usize| (sp * to + j) * chunks;
    let per_type = s * to * chunks;
    for (i, rows) in sc.votes.chunks_exact_mut(per_type).enumerate() {
        let block = &votes[(i * b + sample) * to * row..][..to * row];
        pack_positions(rows, block, dd, s, &mut sc.col);
    }
    let acc_frac = 2 * dr;
    let mut requant = |in_frac, out_frac, len| KeyedRequant::bind(ctx, in_frac, out_frac, len);
    for iter in 0..iters {
        // c = softmax(b) over output types — operand and result at Q_DR.
        let rq = requant(dr, dr, sc.logits.len());
        sc.c.copy_from_slice(&sc.logits);
        softmax_over_types(mode, &mut sc.c, ti, to, s, dr, exp, &rq, &mut sc.units);
        // s = Σ_i c·û: exact integer products at 2·Q_DR, each lane chunk
        // summed over the input types in a register; the finished sums
        // are requantized to Q_DR in the reference's `[to, dd, s]` order.
        let rq = requant(acc_frac, dr, sc.s_pre.len());
        for sp in 0..s {
            for j in 0..to {
                for q in 0..chunks {
                    let mut a = zero;
                    for i in 0..ti {
                        let cv = W::from_raw(sc.c[(i * to + j) * s + sp]);
                        a = mul_add(a, sc.votes[urow(i, sp, j) + q], cv);
                    }
                    sc.acc[vrow(sp, j) + q] = a;
                }
            }
        }
        unpack_positions(&sc.acc, &mut sc.s_pre, dd, s, &mut sc.col);
        rq.apply_raw(0, &mut sc.s_pre);
        let last = iter + 1 == iters;
        // Squash along Do; intermediate v stays at Q_DR, the final output
        // is the layer activation at Qa.
        let rq = requant(dr, if last { out_frac } else { dr }, sc.s_pre.len());
        squash_blocks_requant(mode, &mut sc.s_pre, dr, dd, s, &rq, &mut sc.units);
        if last {
            out.copy_from_slice(&sc.s_pre);
            break;
        }
        pack_positions(&mut sc.v, &sc.s_pre, dd, s, &mut sc.col);
        // a = Σ_d û·v at 2·Q_DR: one lane-wise dot product per `(i, j)`,
        // requantized once over the whole `[ti, to, s]` agreement.
        let rq = requant(acc_frac, dr, sc.agree.len());
        sc.agree.fill(0);
        for sp in 0..s {
            for j in 0..to {
                for q in 0..chunks {
                    let vq = sc.v[vrow(sp, j) + q];
                    for i in 0..ti {
                        let prod = dot_add(zero, sc.votes[urow(i, sp, j) + q], vq);
                        // The whole dot product fits the lane word, so
                        // any partial sum does too.
                        let sum = prod.into_iter().fold(W::default(), |a, x| a + x);
                        sc.agree[(i * to + j) * s + sp] += sum.raw();
                    }
                }
            }
        }
        rq.apply_raw(0, &mut sc.agree);
        // b += a — the add is exact on the shared grid; the requant
        // clamps back into Q1.dr range, exactly like the reference's
        // rounding.
        for (l, &a) in sc.logits.iter_mut().zip(&sc.agree) {
            *l += a;
        }
        requant(dr, dr, sc.logits.len()).apply_raw(0, &mut sc.logits);
    }
}

/// Routes each sample of the capsule-major `votes` `[ti, b, to, dd, s]`
/// independently through the thread pool — the raw mirror of
/// `route_per_sample` in `qcn_capsnet::layers`: the routing claims one
/// nested rounding point and each sample runs on its `QuantCtx::sample`
/// view, so stochastic rounding is identical for every thread count and
/// batch composition. `plan` sets `Q_DR` and the lane word. Returns `[b, 1, to, dd,
/// s]` at `p.out_frac`.
pub fn route_per_sample_raw(
    votes: &IntTensor,
    p: RoutingSpec,
    plan: &RoutePlan,
    mode: UnitMode,
    ctx: &mut QuantCtx,
) -> IntTensor {
    let b = votes.dims()[1];
    let out_len = p.to * p.dd * p.s;
    let mut out = IntTensor::zeros(vec![b, 1, p.to, p.dd, p.s], p.out_frac);
    let routing = ctx.nested();
    if out_len == 0 || b == 0 {
        return out;
    }
    let vdata = votes.data();
    parallel::par_chunks_mut(out.data_mut(), out_len, 1, |sample, chunk| {
        let ctx = &mut routing.sample(sample);
        match plan.width {
            AccWidth::I32 => {
                dynamic_routing_raw::<i32>(vdata, b, sample, p, plan, mode, ctx, chunk);
            }
            AccWidth::I64 => {
                dynamic_routing_raw::<i64>(vdata, b, sample, p, plan, mode, ctx, chunk);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qcn_fixed::RoundingScheme;

    /// Routes one sample on `W` lanes.
    fn route<W: LaneWord>(
        votes: &[i64],
        p: RoutingSpec,
        plan: &RoutePlan,
        mode: UnitMode,
        scheme: RoundingScheme,
    ) -> Vec<i64> {
        let mut out = vec![0i64; p.to * p.dd * p.s];
        let ctx = &mut QuantCtx::new(scheme, 11).nested();
        dynamic_routing_raw::<W>(votes, 1, 0, p, plan, mode, ctx, &mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn i32_and_i64_lanes_route_identically(
            geometry in (1usize..40, 1usize..12, 1usize..20, 1usize..4),
            precision in (1usize..5, 2u8..9, 2u8..9, 0usize..4),
            seed in 0i64..1_000_000,
            integer in 0u8..2,
        ) {
            let (ti, to, dd, s) = geometry;
            let (iters, dr, out_frac, scheme) = precision;
            let p = RoutingSpec { iters, ti, to, dd, s, out_frac };
            let plan = RoutePlan::new(ti, dd, dr);
            prop_assert_eq!(plan.width(), AccWidth::I32);
            // Votes anywhere in Q1.dr, the clamped range routing sees.
            let span = 1i64 << (dr + 1);
            let votes: Vec<i64> = (0..(ti * to * dd * s) as i64)
                .map(|k| (k * 7919 + seed).rem_euclid(span) - span / 2)
                .collect();
            let mode = [UnitMode::FloatExact, UnitMode::Integer][integer as usize];
            let scheme = RoundingScheme::EXTENDED[scheme];
            prop_assert_eq!(
                route::<i32>(&votes, p, &plan, mode, scheme),
                route::<i64>(&votes, p, &plan, mode, scheme),
                "{:?} {:?} {:?}", p, mode, scheme
            );
        }
    }

    #[test]
    fn width_proof_follows_the_worst_case_sum() {
        // ShallowCaps-S DigitCaps: 128 input types at Q_DR 4 sum to at most
        // 128·2^8; at Q_DR 14, 128·2^28 = 2^35 needs i64.
        assert_eq!(RoutePlan::new(128, 8, 4).width(), AccWidth::I32);
        assert_eq!(RoutePlan::new(128, 8, 14).width(), AccWidth::I64);
        // 2^31 itself does not fit; one less input type does.
        assert_eq!(RoutePlan::new(1 << 3, 1, 14).width(), AccWidth::I64);
        assert_eq!(RoutePlan::new(7, 1, 14).width(), AccWidth::I32);
        // The table holds f32::exp of each on-grid difference.
        let plan = RoutePlan::new(4, 4, 3);
        let table = plan.exp.as_deref().unwrap();
        assert_eq!(table.len(), 17);
        assert_eq!(table[0], 1.0);
        assert_eq!(table[5], (-5.0f32 / 8.0).exp());
        assert!(RoutePlan::new(4, 4, 13).exp.is_none());
    }
}
