//! Shift-based requantization of raw fixed-point integers.
//!
//! A true integer backend (the `qcn-intinfer` engine) holds tensors as raw
//! two's-complement integers at some fractional precision and reduces
//! wordlength with shifts instead of float rounding. This module maps each
//! [`RoundingScheme`] onto pure integer shift arithmetic:
//!
//! * `shift = in_frac − out_frac ≤ 0` — the value widens; every input is
//!   exactly representable, so all schemes produce `raw << −shift`.
//! * `shift > 0` — the low `shift` bits are the discarded remainder
//!   `rem ∈ [0, 2^shift)`; the schemes differ only in when they add one to
//!   the arithmetic-shift floor:
//!   TRN never, RTN when `rem ≥ 2^(shift−1)`, RTNE above the half-way point
//!   (and *at* it only when the floor is odd), SR when the uniform draw `u`
//!   falls below `rem / 2^shift`.
//!
//! The result then saturates into the output format's raw range, exactly
//! like [`RoundingScheme::round_raw`]'s final clamp.
//!
//! # Equivalence with the fake-quantization path
//!
//! [`requant_raw`] is bit-identical to rounding the *value*
//! `raw · 2^−in_frac` with [`RoundingScheme::round_raw`] whenever that value
//! is exactly representable as an `f32` (at most 24 significant bits — the
//! condition under which the fake-quantized f32 reference itself is exact).
//! The tests below verify this across all schemes, exhaustively for narrow
//! wordlengths. For stochastic rounding the probability `rem / 2^shift` is
//! computed in `f64` (exact for `shift ≤ 52`), so the same draw `u` makes
//! the same decision in both paths.

use crate::{QFormat, RoundingScheme};

/// Requantizes the raw value `raw` held at `in_frac` fractional bits onto
/// the grid and range of `out`, returning the output's raw representation.
///
/// `u` is the uniform draw in `[0, 1)` deciding the stochastic rounding
/// direction; the deterministic schemes ignore it. All intermediate
/// arithmetic widens to `i128`, so no `raw`/`in_frac` combination in the
/// `i64` domain can overflow before the final saturation.
#[inline]
pub fn requant_raw(scheme: RoundingScheme, raw: i64, in_frac: u8, out: QFormat, u: f64) -> i64 {
    let shift = in_frac as i32 - out.frac_bits() as i32;
    let rounded: i128 = if shift <= 0 {
        (raw as i128) << (-shift) as u32
    } else {
        let shift = shift as u32;
        let floor = (raw as i128) >> shift; // arithmetic shift = floor toward −∞
        let rem = (raw as i128) - (floor << shift); // 0 ≤ rem < 2^shift
        let bump: i128 = match scheme {
            RoundingScheme::Truncation => 0,
            RoundingScheme::RoundToNearest => i128::from(rem >= (1i128 << (shift - 1))),
            RoundingScheme::RoundToNearestEven => {
                let half = 1i128 << (shift - 1);
                if rem > half {
                    1
                } else if rem == half {
                    // Exact half-way rounds to the even neighbour.
                    floor & 1
                } else {
                    0
                }
            }
            RoundingScheme::Stochastic => {
                // rem · 2^−shift: the multiply by a power of two is exact,
                // and rem is exact in f64 for shift ≤ 52.
                let frac = rem as f64 * (-(shift as f64)).exp2();
                i128::from(u < frac)
            }
        };
        floor + bump
    };
    rounded.clamp(out.min_raw() as i128, out.max_raw() as i128) as i64
}

/// Requantizes a slice of raw values in place with caller-supplied
/// stochastic draws: `draw(i)` must return the uniform in `[0, 1)` for
/// element `i`. Only [`RoundingScheme::Stochastic`] calls `draw` — exactly
/// the draw discipline of [`RoundingScheme::round_slice_with`], so a raw
/// integer pass consumes the same random stream as the f32 reference it
/// mirrors (one draw per element, in slice order, even when `shift ≤ 0`
/// makes the rounding an exact widening).
pub fn requant_slice_with(
    scheme: RoundingScheme,
    values: &mut [i64],
    in_frac: u8,
    out: QFormat,
    mut draw: impl FnMut(usize) -> f64,
) {
    let shift = in_frac as i32 - out.frac_bits() as i32;
    let (lo, hi) = (out.min_raw(), out.max_raw());
    match scheme {
        RoundingScheme::Stochastic => {
            for (i, v) in values.iter_mut().enumerate() {
                *v = requant_raw(scheme, *v, in_frac, out, draw(i));
            }
        }
        // Same grid: only the clamp remains.
        _ if shift == 0 => values.iter_mut().for_each(|v| *v = (*v).clamp(lo, hi)),
        // A narrowing shift of an `i64` cannot overflow `i64`: the
        // deterministic schemes run [`requant_raw`]'s arithmetic without
        // its `i128` widening, one scheme-specific loop each.
        _ if (1..63).contains(&shift) => {
            let s = shift as u32;
            let half = 1i64 << (s - 1);
            let mask = (1i64 << s) - 1;
            match scheme {
                RoundingScheme::Truncation => {
                    for v in values.iter_mut() {
                        *v = (*v >> s).clamp(lo, hi);
                    }
                }
                RoundingScheme::RoundToNearest => {
                    for v in values.iter_mut() {
                        *v = ((*v >> s) + i64::from(*v & mask >= half)).clamp(lo, hi);
                    }
                }
                _ => {
                    for v in values.iter_mut() {
                        let (floor, rem) = (*v >> s, *v & mask);
                        let bump = rem > half || (rem == half && floor & 1 == 1);
                        *v = (floor + i64::from(bump)).clamp(lo, hi);
                    }
                }
            }
        }
        _ => {
            for v in values.iter_mut() {
                *v = requant_raw(scheme, *v, in_frac, out, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sr_uniform;

    /// Rounds the dyadic value `raw · 2^−in_frac` through the f32
    /// fake-quantization reference and returns the resulting raw grid index.
    fn reference(scheme: RoundingScheme, raw: i64, in_frac: u8, out: QFormat, u: f64) -> i64 {
        let value = raw as f64 * (-(in_frac as f64)).exp2();
        let rounded = scheme.round_raw(value as f32, out, u);
        let scaled = rounded as f64 / out.precision() as f64;
        assert_eq!(scaled, scaled.trunc(), "reference output off-grid");
        scaled as i64
    }

    #[test]
    fn slice_path_matches_requant_raw() {
        // The slice fast path (deterministic schemes, narrowing shifts)
        // must give `requant_raw`'s bits: every sign, remainder, clamp,
        // widening and the extreme shifts.
        let raws: Vec<i64> = (-70_000i64..70_000)
            .step_by(7)
            .chain([i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX])
            .collect();
        for (in_frac, out_frac) in [
            (10u8, 5u8),
            (9, 4),
            (8, 7),
            (62, 0),
            (30, 29),
            (4, 9),
            (6, 6),
        ] {
            let out = QFormat::new(62 - out_frac, out_frac);
            for out in [QFormat::with_frac(out_frac), out] {
                for scheme in RoundingScheme::EXTENDED {
                    if scheme == RoundingScheme::Stochastic {
                        continue;
                    }
                    let mut got = raws.clone();
                    requant_slice_with(scheme, &mut got, in_frac, out, |_| 0.0);
                    for (&raw, &g) in raws.iter().zip(&got) {
                        let want = requant_raw(scheme, raw, in_frac, out, 0.0);
                        assert_eq!(g, want, "{scheme} raw={raw} {in_frac}->{out}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_round_raw_exhaustively_on_narrow_formats() {
        // Every 12-bit input value, three output widths, all schemes, a
        // spread of stochastic draws: bit-identical to the f32 path.
        let in_frac = 11u8; // Q1.11, values in [−1, 1)
        for out_frac in [2u8, 5, 11] {
            let out = QFormat::with_frac(out_frac);
            for scheme in RoundingScheme::EXTENDED {
                for raw in -(1i64 << 11)..(1i64 << 11) {
                    for u in [0.0, 0.249, 0.5, 0.751, 0.999] {
                        let got = requant_raw(scheme, raw, in_frac, out, u);
                        let want = reference(scheme, raw, in_frac, out, u);
                        assert_eq!(got, want, "{scheme} raw={raw} out={out} u={u}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_round_raw_on_wide_accumulators() {
        // Accumulator-style inputs: 20 fractional bits reduced to 5, values
        // beyond the output range (clamping) — still f32-exact (≤ 24
        // significant bits).
        let in_frac = 20u8;
        let out = QFormat::with_frac(5);
        for scheme in RoundingScheme::EXTENDED {
            for raw in [
                0i64,
                1,
                -1,
                (1 << 15) - 1,
                1 << 15,
                (1 << 15) + 1,
                -(1 << 15),
                3_000_000,
                -3_000_000,
                (1 << 23) - 1,
                -(1 << 23),
            ] {
                for u in [0.0, 0.4, 0.6] {
                    let got = requant_raw(scheme, raw, in_frac, out, u);
                    let want = reference(scheme, raw, in_frac, out, u);
                    assert_eq!(got, want, "{scheme} raw={raw} u={u}");
                }
            }
        }
    }

    #[test]
    fn widening_is_exact_for_all_schemes() {
        let out = QFormat::with_frac(9);
        for scheme in RoundingScheme::EXTENDED {
            for raw in -8i64..8 {
                assert_eq!(requant_raw(scheme, raw, 3, out, 0.0), raw << 6);
            }
        }
    }

    #[test]
    fn saturates_at_output_range() {
        let out = QFormat::with_frac(4);
        // +2.0 and −3.0 at 8 fractional bits, reduced to Q1.4.
        assert_eq!(
            requant_raw(RoundingScheme::Truncation, 512, 8, out, 0.0),
            out.max_raw()
        );
        assert_eq!(
            requant_raw(RoundingScheme::RoundToNearest, -768, 8, out, 0.0),
            out.min_raw()
        );
        // Widening a large raw far past the output range must not overflow.
        let wide_in = QFormat::new(40, 2);
        assert_eq!(
            requant_raw(RoundingScheme::Truncation, wide_in.max_raw(), 2, out, 0.0),
            out.max_raw()
        );
    }

    #[test]
    fn widening_past_i64_saturates_instead_of_overflowing() {
        // A near-range value crossing from a coarse to a very fine format:
        // the raw left shift exceeds i64 and must saturate, not wrap.
        let coarse = QFormat::new(60, 2);
        let fine = QFormat::new(2, 40);
        for scheme in RoundingScheme::EXTENDED {
            assert_eq!(
                requant_raw(scheme, coarse.max_raw(), 2, fine, 0.5),
                fine.max_raw()
            );
            assert_eq!(
                requant_raw(scheme, coarse.min_raw(), 2, fine, 0.5),
                fine.min_raw()
            );
        }
    }

    #[test]
    fn negative_values_floor_toward_negative_infinity() {
        let out = QFormat::with_frac(2);
        // −0.3125 (raw −5 at 4 frac bits) truncates to −0.5 (raw −2).
        assert_eq!(requant_raw(RoundingScheme::Truncation, -5, 4, out, 0.0), -2);
        // RTN: −0.3125 is nearer −0.25 (raw −1).
        assert_eq!(
            requant_raw(RoundingScheme::RoundToNearest, -5, 4, out, 0.0),
            -1
        );
    }

    #[test]
    fn rtne_ties_to_even_both_signs() {
        let out = QFormat::with_frac(2);
        let rtne = RoundingScheme::RoundToNearestEven;
        // +0.375 (raw 6 at 4 bits): between raw 1 and 2 → even 2.
        assert_eq!(requant_raw(rtne, 6, 4, out, 0.0), 2);
        // +0.125 (raw 2): between raw 0 and 1 → even 0.
        assert_eq!(requant_raw(rtne, 2, 4, out, 0.0), 0);
        // −0.125 (raw −2): between raw −1 and 0 → even 0.
        assert_eq!(requant_raw(rtne, -2, 4, out, 0.0), 0);
        // −0.375 (raw −6): between raw −2 and −1 → even −2.
        assert_eq!(requant_raw(rtne, -6, 4, out, 0.0), -2);
    }

    #[test]
    fn stochastic_direction_follows_draw() {
        let out = QFormat::with_frac(2);
        let sr = RoundingScheme::Stochastic;
        // 0.3125 (raw 5 at 4 bits): frac = 0.25 above the floor raw 1.
        assert_eq!(requant_raw(sr, 5, 4, out, 0.1), 2); // u < frac → up
        assert_eq!(requant_raw(sr, 5, 4, out, 0.25), 1); // u ≥ frac → down
                                                         // On-grid values never move regardless of the draw.
        assert_eq!(requant_raw(sr, 4, 4, out, 0.0), 1);
    }

    #[test]
    fn slice_draw_discipline_matches_reference() {
        // The keyed stream must produce the same bits through the integer
        // slice path and the f32 round_slice_with path.
        let out = QFormat::with_frac(3);
        let in_frac = 10u8;
        let base = 0xDEAD_BEEF_u64;
        let raws: Vec<i64> = (-40..40).map(|i| i * 13 % (1 << 10)).collect();
        let mut ints = raws.clone();
        requant_slice_with(RoundingScheme::Stochastic, &mut ints, in_frac, out, |i| {
            sr_uniform(base, i as u64)
        });
        let mut floats: Vec<f32> = raws
            .iter()
            .map(|&r| (r as f64 * (-(in_frac as f64)).exp2()) as f32)
            .collect();
        RoundingScheme::Stochastic
            .round_slice_with(&mut floats, out, |i| sr_uniform(base, i as u64));
        let got: Vec<f32> = ints.iter().map(|&r| r as f32 * out.precision()).collect();
        assert_eq!(got, floats);
    }
}
