//! The paper's three rounding schemes (§II-B): truncation, round-to-nearest,
//! and stochastic rounding.

use crate::QFormat;
use rand::Rng;
use std::fmt;

/// A rule for converting a real value to the nearest grid point of a
/// [`QFormat`].
///
/// The Q-CapsNets framework treats the set of schemes as a *library* and
/// searches over all of them (§III-B). Scheme *simplicity* (hardware cost)
/// orders them `Truncation < RoundToNearest < Stochastic`; the selection
/// rules break ties in favour of the simplest scheme.
///
/// # Examples
///
/// ```
/// use qcn_fixed::{QFormat, RoundingScheme};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let q = QFormat::with_frac(2); // grid step 0.25
/// let mut rng = StdRng::seed_from_u64(0);
/// assert_eq!(RoundingScheme::Truncation.round(0.3, q, &mut rng), 0.25);
/// assert_eq!(RoundingScheme::RoundToNearest.round(0.3, q, &mut rng), 0.25);
/// assert_eq!(RoundingScheme::RoundToNearest.round(0.4, q, &mut rng), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RoundingScheme {
    /// Drop the extra fractional bits: `xq = ⌊x⌋` (negative average bias).
    Truncation,
    /// Round half-way cases up: `xq = ⌊x + ε/2⌋` (small negative bias).
    RoundToNearest,
    /// Round half-way cases to the even grid point (banker's rounding,
    /// the "round-to-nearest-even" of the paper's §III-B library):
    /// unbiased on half-way values at slightly higher comparator cost.
    RoundToNearestEven,
    /// Round up with probability proportional to the remainder (unbiased,
    /// but requires a random number generator in hardware).
    Stochastic,
}

impl RoundingScheme {
    /// The paper's three-scheme library (§III-B), ordered from simplest to
    /// most complex hardware.
    pub const ALL: [RoundingScheme; 3] = [
        RoundingScheme::Truncation,
        RoundingScheme::RoundToNearest,
        RoundingScheme::Stochastic,
    ];

    /// The extended library including round-to-nearest-even.
    pub const EXTENDED: [RoundingScheme; 4] = [
        RoundingScheme::Truncation,
        RoundingScheme::RoundToNearest,
        RoundingScheme::RoundToNearestEven,
        RoundingScheme::Stochastic,
    ];

    /// Hardware-complexity rank (0 = simplest). Used by the framework's
    /// tie-breaking rules (§III-B, criterion A4/B3).
    pub fn complexity(&self) -> u8 {
        match self {
            RoundingScheme::Truncation => 0,
            RoundingScheme::RoundToNearest => 1,
            RoundingScheme::RoundToNearestEven => 2,
            RoundingScheme::Stochastic => 3,
        }
    }

    /// Rounds `x` onto the grid of `format` and clamps into its range.
    ///
    /// For [`RoundingScheme::Stochastic`] the provided `rng` decides the
    /// rounding direction; the other schemes ignore it. NaN propagates
    /// unchanged and ±∞ saturates to the grid's range.
    pub fn round(&self, x: f32, format: QFormat, rng: &mut impl Rng) -> f32 {
        let u = match self {
            RoundingScheme::Stochastic => rng.gen_range(0.0..1.0),
            _ => 0.0,
        };
        self.round_raw(x, format, u)
    }

    /// Slice-free rounding core: rounds `x` onto the grid of `format` with
    /// the caller-supplied uniform draw `u ∈ [0, 1)` deciding stochastic
    /// half-way direction (ignored by the deterministic schemes).
    ///
    /// This is the entry point the fused kernel epilogues inline: it takes
    /// no RNG state, so a deterministic per-element stream (see
    /// [`sr_uniform`]) can be supplied regardless of which worker thread
    /// produced the element. Scaling happens in `f64` (`x as f64 / ε`, the
    /// division is an exact power-of-two rebias) so exact half-way points
    /// are classified without a second rounding step. NaN propagates; ±∞
    /// saturates.
    #[inline]
    pub fn round_raw(&self, x: f32, format: QFormat, u: f64) -> f32 {
        let eps = format.precision();
        round_value(
            *self,
            x,
            eps,
            (eps as f64).recip(),
            format.min_raw(),
            format.max_raw(),
            u,
        )
    }

    /// Rounds a whole slice in place. Equivalent to calling [`round`] on
    /// every element; stochastic rounding consumes one random draw per
    /// element in order.
    ///
    /// [`round`]: RoundingScheme::round
    pub fn round_slice(&self, values: &mut [f32], format: QFormat, rng: &mut impl Rng) {
        match self {
            RoundingScheme::Stochastic => {
                self.round_slice_with(values, format, |_| rng.gen_range(0.0..1.0));
            }
            _ => self.round_slice_with(values, format, |_| 0.0),
        }
    }

    /// Rounds a slice in place with caller-supplied stochastic draws:
    /// `draw(i)` must return the uniform in `[0, 1)` for element `i` of the
    /// slice. Only [`RoundingScheme::Stochastic`] calls `draw`; the grid
    /// constants are hoisted out of the loop so this is the fast path the
    /// kernel epilogues use on freshly written rows.
    pub fn round_slice_with(
        &self,
        values: &mut [f32],
        format: QFormat,
        mut draw: impl FnMut(usize) -> f64,
    ) {
        let eps = format.precision();
        let inv_eps = (eps as f64).recip();
        let (lo, hi) = (format.min_raw(), format.max_raw());
        match self {
            RoundingScheme::Stochastic => {
                for (i, v) in values.iter_mut().enumerate() {
                    *v = round_value(*self, *v, eps, inv_eps, lo, hi, draw(i));
                }
            }
            scheme => {
                for v in values.iter_mut() {
                    *v = round_value(*scheme, *v, eps, inv_eps, lo, hi, 0.0);
                }
            }
        }
    }

    /// [`round_slice_with`](Self::round_slice_with) that writes grid
    /// indices instead of values: `raw[i]·ε` is exactly the value the f32
    /// path stores for `values[i]` (past 24-bit indices that value is the
    /// index rounded to f32, and so is `raw[i]`). NaN, which has no index,
    /// gives 0.
    ///
    /// # Panics
    ///
    /// Panics when `values` and `raw` differ in length.
    pub fn round_slice_raw_with(
        &self,
        values: &[f32],
        raw: &mut [i64],
        format: QFormat,
        mut draw: impl FnMut(usize) -> f64,
    ) {
        assert_eq!(values.len(), raw.len(), "raw output length mismatch");
        let inv_eps = (format.precision() as f64).recip();
        let (lo, hi) = (format.min_raw(), format.max_raw());
        // Indices past f32's significand are stored rounded to f32.
        let wide = u32::from(format.wordlength()) > f32::MANTISSA_DIGITS;
        let index = |scheme, x, u| {
            let raw = round_index(scheme, x, inv_eps, lo, hi, u);
            if wide {
                raw as f32 as i64
            } else {
                raw
            }
        };
        let pairs = raw.iter_mut().zip(values);
        // One loop per scheme, so no loop branches on it per element.
        match *self {
            RoundingScheme::Truncation => {
                pairs.for_each(|(r, &x)| *r = index(RoundingScheme::Truncation, x, 0.0));
            }
            RoundingScheme::RoundToNearest => {
                pairs.for_each(|(r, &x)| *r = index(RoundingScheme::RoundToNearest, x, 0.0));
            }
            RoundingScheme::RoundToNearestEven => {
                pairs.for_each(|(r, &x)| *r = index(RoundingScheme::RoundToNearestEven, x, 0.0));
            }
            RoundingScheme::Stochastic => {
                for (i, (r, &x)) in pairs.enumerate() {
                    *r = index(RoundingScheme::Stochastic, x, draw(i));
                }
            }
        }
    }
}

/// Deterministic uniform draw in `[0, 1)` for output element `index` of a
/// stochastic-rounding stream keyed by `base`.
///
/// The element key is `base + index · 0x9E3779B97F4A7C15` (a golden-ratio
/// stride), finalized with the SplitMix64 mixer, so consecutive elements
/// get decorrelated draws while any element can be drawn independently of
/// the others — the property that lets a tiled, multi-threaded kernel
/// epilogue reproduce the exact bits of a sequential round-after pass.
#[inline]
pub fn sr_uniform(base: u64, index: u64) -> f64 {
    let z = mix64(
        base.wrapping_add(index.wrapping_mul(GOLDEN))
            .wrapping_add(GOLDEN),
    );
    // 53 high bits → uniform on the f64-representable grid of [0, 1).
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Derives a stream key from a parent key and a child id (a rounding
/// point within a scope, or a sample within a point): SplitMix64 over the
/// combination, so sibling ids give decorrelated keys.
#[inline]
pub fn sr_key(parent: u64, child: u64) -> u64 {
    mix64(parent ^ mix64(child.wrapping_add(GOLDEN)))
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shared scalar core behind [`RoundingScheme::round`],
/// [`RoundingScheme::round_raw`] and the slice paths. `inv_eps` must be
/// `1/eps` (exact — every grid step is a power of two), `lo`/`hi` the raw
/// clamp range, and `u` the stochastic draw.
#[inline(always)]
fn round_value(
    scheme: RoundingScheme,
    x: f32,
    eps: f32,
    inv_eps: f64,
    lo: i64,
    hi: i64,
    u: f64,
) -> f32 {
    if x.is_nan() {
        return x;
    }
    round_index(scheme, x, inv_eps, lo, hi, u) as f32 * eps
}

/// [`round_value`]'s grid index, before it is scaled back by `eps` (NaN,
/// which has no index, gives 0).
#[inline(always)]
fn round_index(scheme: RoundingScheme, x: f32, inv_eps: f64, lo: i64, hi: i64, u: f64) -> i64 {
    // Widen *before* scaling: multiplying by the power-of-two 1/ε in f64 is
    // exact, so half-way points reach the classifier unperturbed. (±∞ stays
    // ±∞ here and saturates through the i64 cast + clamp below.)
    let scaled = x as f64 * inv_eps;
    let raw = match scheme {
        RoundingScheme::Truncation => scaled.floor() as i64,
        RoundingScheme::RoundToNearest => (scaled + 0.5).floor() as i64,
        RoundingScheme::RoundToNearestEven => {
            let floor = scaled.floor();
            let frac = scaled - floor;
            let floor = floor as i64;
            if frac > 0.5 {
                floor + 1
            } else if frac == 0.5 {
                // Exact half-way rounds to the even neighbour.
                floor + i64::from(floor % 2 != 0)
            } else {
                // Also the ±∞ path: frac is then NaN, both tests fail, and
                // the saturated floor clamps to the range below.
                floor
            }
        }
        RoundingScheme::Stochastic => {
            let floor = scaled.floor();
            let frac = scaled - floor;
            floor as i64 + i64::from(u < frac)
        }
    };
    raw.clamp(lo, hi)
}

impl fmt::Display for RoundingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RoundingScheme::Truncation => "TRN",
            RoundingScheme::RoundToNearest => "RTN",
            RoundingScheme::RoundToNearestEven => "RTNE",
            RoundingScheme::Stochastic => "SR",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn truncation_floors_toward_negative_infinity() {
        let q = QFormat::with_frac(2); // ε = 0.25
        let mut r = rng();
        let t = RoundingScheme::Truncation;
        assert_eq!(t.round(0.30, q, &mut r), 0.25);
        assert_eq!(t.round(-0.30, q, &mut r), -0.50);
        assert_eq!(t.round(0.25, q, &mut r), 0.25);
        assert_eq!(t.round(0.0, q, &mut r), 0.0);
    }

    #[test]
    fn round_to_nearest_half_up() {
        let q = QFormat::with_frac(2);
        let mut r = rng();
        let n = RoundingScheme::RoundToNearest;
        assert_eq!(n.round(0.37, q, &mut r), 0.25);
        assert_eq!(n.round(0.38, q, &mut r), 0.50);
        // Exact half-way rounds up (paper Eq. 3).
        assert_eq!(n.round(0.125, q, &mut r), 0.25);
        assert_eq!(n.round(-0.125, q, &mut r), 0.0);
    }

    #[test]
    fn all_schemes_clamp_to_range() {
        let q = QFormat::with_frac(3);
        let mut r = rng();
        for scheme in RoundingScheme::ALL {
            assert_eq!(scheme.round(5.0, q, &mut r), q.max_value());
            assert_eq!(scheme.round(-5.0, q, &mut r), q.min_value());
        }
    }

    #[test]
    fn all_schemes_are_exact_on_grid_points() {
        let q = QFormat::with_frac(4);
        let mut r = rng();
        for scheme in [RoundingScheme::Truncation, RoundingScheme::RoundToNearest] {
            for i in -16..16 {
                let x = i as f32 / 16.0;
                assert_eq!(scheme.round(x, q, &mut r), x, "{scheme} at {x}");
            }
        }
        // SR is also exact on grid points (frac = 0 → never rounds up).
        for i in -16..16 {
            let x = i as f32 / 16.0;
            assert_eq!(RoundingScheme::Stochastic.round(x, q, &mut r), x);
        }
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        // Mean of many SR roundings of 0.1 (between 0 and 0.25) must
        // approach 0.1 — the defining property vs truncation.
        let q = QFormat::with_frac(2);
        let mut r = rng();
        let n = 20_000;
        let sum: f32 = (0..n)
            .map(|_| RoundingScheme::Stochastic.round(0.1, q, &mut r))
            .sum();
        let mean = sum / n as f32;
        assert!((mean - 0.1).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn truncation_bias_is_negative() {
        // Over uniformly distributed inputs, truncation has mean error −ε/2.
        let q = QFormat::with_frac(3);
        let mut r = rng();
        let eps = q.precision();
        let n = 4096;
        let mut err = 0.0;
        for i in 0..n {
            let x = -0.9 + 1.8 * (i as f32 / n as f32);
            err += RoundingScheme::Truncation.round(x, q, &mut r) - x;
        }
        let bias = err / n as f32;
        assert!(bias < 0.0, "bias {bias}");
        assert!((bias + eps / 2.0).abs() < eps / 8.0, "bias {bias}");
    }

    #[test]
    fn rtn_bias_smaller_than_trn_bias() {
        let q = QFormat::with_frac(3);
        let mut r = rng();
        let n = 4096;
        let (mut err_t, mut err_n) = (0.0f32, 0.0f32);
        for i in 0..n {
            let x = -0.9 + 1.8 * (i as f32 / n as f32);
            err_t += RoundingScheme::Truncation.round(x, q, &mut r) - x;
            err_n += RoundingScheme::RoundToNearest.round(x, q, &mut r) - x;
        }
        assert!(err_n.abs() < err_t.abs());
    }

    #[test]
    fn round_slice_matches_scalar_rounds() {
        let q = QFormat::with_frac(2);
        let mut vals = vec![0.3, -0.6, 0.9];
        RoundingScheme::Truncation.round_slice(&mut vals, q, &mut rng());
        assert_eq!(vals, vec![0.25, -0.75, 0.75]);
    }

    #[test]
    fn rtne_rounds_half_to_even() {
        let q = QFormat::with_frac(2); // grid 0.25
        let mut r = rng();
        let e = RoundingScheme::RoundToNearestEven;
        // 0.125 is half-way between 0 (even multiple: 0·ε) and 0.25 (odd).
        assert_eq!(e.round(0.125, q, &mut r), 0.0);
        // 0.375 is half-way between 0.25 (raw 1, odd) and 0.5 (raw 2, even).
        assert_eq!(e.round(0.375, q, &mut r), 0.5);
        // Non-half-way values behave like RTN.
        assert_eq!(e.round(0.3, q, &mut r), 0.25);
        assert_eq!(e.round(0.4, q, &mut r), 0.5);
        // Negative half-way: −0.125 between −0.25 (raw −1) and 0 (raw 0).
        assert_eq!(e.round(-0.125, q, &mut r), 0.0);
    }

    #[test]
    fn rtne_is_unbiased_on_halfway_values() {
        let q = QFormat::with_frac(3);
        let mut r = rng();
        let eps = q.precision();
        // Sum of errors over consecutive half-way points cancels.
        let mut err = 0.0f32;
        for i in -6..6 {
            let x = (i as f32 + 0.5) * eps;
            err += RoundingScheme::RoundToNearestEven.round(x, q, &mut r) - x;
        }
        assert!(err.abs() < 1e-6, "{err}");
    }

    #[test]
    fn extended_library_contains_all() {
        assert_eq!(RoundingScheme::EXTENDED.len(), 4);
        for s in RoundingScheme::ALL {
            assert!(RoundingScheme::EXTENDED.contains(&s));
        }
    }

    #[test]
    fn complexity_ordering() {
        assert!(
            RoundingScheme::Truncation.complexity() < RoundingScheme::RoundToNearest.complexity()
        );
        assert!(
            RoundingScheme::RoundToNearest.complexity() < RoundingScheme::Stochastic.complexity()
        );
    }

    #[test]
    fn halfway_values_round_exactly_at_high_frac_widths() {
        // Regression for the f32 pre-scaling bug: x/ε must be formed in f64
        // so exact half-way points stay half-way at large NF. ε is 2^-NF,
        // so x = (k + 0.5)·ε is representable and must round per scheme.
        let mut r = rng();
        for frac in [12u8, 20, 23] {
            let q = QFormat::with_frac(frac);
            let eps = q.precision();
            for k in [0i64, 1, 2, 5, -1, -2, -6, 1001] {
                let x = (k as f64 + 0.5) as f32 * eps;
                let up = (k + 1) as f32 * eps;
                let down = k as f32 * eps;
                let even = if k % 2 == 0 { down } else { up };
                assert_eq!(
                    RoundingScheme::RoundToNearest.round(x, q, &mut r),
                    up,
                    "RTN NF={frac} k={k}"
                );
                assert_eq!(
                    RoundingScheme::RoundToNearestEven.round(x, q, &mut r),
                    even,
                    "RTNE NF={frac} k={k}"
                );
                assert_eq!(
                    RoundingScheme::Truncation.round(x, q, &mut r),
                    down,
                    "TRN NF={frac} k={k}"
                );
            }
        }
    }

    #[test]
    fn nan_propagates_through_every_scheme() {
        // Regression: `scaled.floor() as i64` saturating-casts NaN to 0, so
        // a NaN activation used to quantize silently to 0.0.
        let q = QFormat::with_frac(4);
        let mut r = rng();
        for scheme in RoundingScheme::EXTENDED {
            assert!(
                scheme.round(f32::NAN, q, &mut r).is_nan(),
                "{scheme} erased NaN"
            );
            assert!(scheme.round_raw(f32::NAN, q, 0.3).is_nan());
        }
        let mut vals = vec![0.3, f32::NAN, -0.6];
        RoundingScheme::RoundToNearest.round_slice(&mut vals, q, &mut r);
        assert_eq!(vals[0], 0.3125);
        assert!(vals[1].is_nan());
        assert_eq!(vals[2], -0.625);
    }

    #[test]
    fn infinities_saturate_to_range() {
        let q = QFormat::with_frac(3);
        let mut r = rng();
        for scheme in RoundingScheme::EXTENDED {
            assert_eq!(
                scheme.round(f32::INFINITY, q, &mut r),
                q.max_value(),
                "{scheme}"
            );
            assert_eq!(
                scheme.round(f32::NEG_INFINITY, q, &mut r),
                q.min_value(),
                "{scheme}"
            );
        }
    }

    #[test]
    fn round_raw_matches_round_for_deterministic_schemes() {
        let mut r = rng();
        for frac in 2u8..10 {
            let q = QFormat::with_frac(frac);
            for scheme in [
                RoundingScheme::Truncation,
                RoundingScheme::RoundToNearest,
                RoundingScheme::RoundToNearestEven,
            ] {
                for i in -40..40 {
                    let x = i as f32 * 0.031;
                    assert_eq!(scheme.round(x, q, &mut r), scheme.round_raw(x, q, 0.99));
                }
            }
        }
    }

    #[test]
    fn round_raw_stochastic_direction_follows_draw() {
        let q = QFormat::with_frac(2); // ε = 0.25
        let sr = RoundingScheme::Stochastic;
        // 0.3125 sits 1/4 of the way from 0.25 to 0.5: frac = 0.25.
        assert_eq!(sr.round_raw(0.3125, q, 0.10), 0.5); // u < frac → up
        assert_eq!(sr.round_raw(0.3125, q, 0.60), 0.25); // u ≥ frac → down
                                                         // Grid points never move regardless of the draw.
        assert_eq!(sr.round_raw(0.75, q, 0.0), 0.75);
    }

    #[test]
    fn sr_uniform_is_deterministic_and_in_range() {
        for base in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for idx in 0..257u64 {
                let u = sr_uniform(base, idx);
                assert_eq!(u, sr_uniform(base, idx));
                assert!((0.0..1.0).contains(&u), "u={u}");
            }
        }
        // Neighbouring elements get decorrelated draws.
        let a = sr_uniform(7, 0);
        let b = sr_uniform(7, 1);
        assert!((a - b).abs() > 1e-6);
    }

    #[test]
    fn round_slice_with_matches_sequential_rounds() {
        let q = QFormat::with_frac(5);
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.017).collect();
        for scheme in RoundingScheme::EXTENDED {
            let mut fused = vals.clone();
            scheme.round_slice_with(&mut fused, q, |i| sr_uniform(11, i as u64));
            let reference: Vec<f32> = vals
                .iter()
                .enumerate()
                .map(|(i, &x)| scheme.round_raw(x, q, sr_uniform(11, i as u64)))
                .collect();
            assert_eq!(fused, reference, "{scheme}");
        }
    }

    #[test]
    fn display_abbreviations() {
        assert_eq!(RoundingScheme::Truncation.to_string(), "TRN");
        assert_eq!(RoundingScheme::RoundToNearest.to_string(), "RTN");
        assert_eq!(RoundingScheme::Stochastic.to_string(), "SR");
    }
}
