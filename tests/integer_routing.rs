//! End-to-end validation that the framework's fake-quantized dynamic
//! routing is achievable with *pure integer* fixed-point hardware: a full
//! routing pass on raw two's-complement words — exact MACs into a wide
//! accumulator, wordlength reduction with `requant_raw` and the integer
//! squash/softmax units (`int_squash`, `int_softmax`) — must agree with
//! the f32 reference on the same quantized inputs.

use qcn_repro::fixed::{int_softmax, int_squash, requant_raw, QFormat, RoundingScheme};
use qcn_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reduces an exact accumulator sum of products (`2·NF` fractional bits)
/// to `fmt` by truncation, with saturation.
fn reduce(acc: i64, fmt: QFormat) -> i64 {
    requant_raw(
        RoundingScheme::Truncation,
        acc,
        2 * fmt.frac_bits(),
        fmt,
        0.0,
    )
}

/// Integer dynamic routing (paper Fig. 6) over raw votes `û[i][j][d]` held
/// in `fmt`: `iters` rounds of softmax → weighted sum → squash →
/// agreement, entirely in fixed point. Returns the raw output capsules
/// `v[j][d]`.
fn int_dynamic_routing(votes: &[Vec<Vec<i64>>], iters: usize, fmt: QFormat) -> Vec<Vec<i64>> {
    let (ni, nj, dj) = (votes.len(), votes[0].len(), votes[0][0].len());
    let nf = fmt.frac_bits();
    let mut logits = vec![vec![0i64; nj]; ni];
    let mut output = vec![vec![0i64; dj]; nj];
    for iter in 0..iters {
        // c_i = softmax over j of b_i (Eq. 1), per input capsule.
        let coupling: Vec<Vec<i64>> = logits
            .iter()
            .map(|row| {
                let mut c = row.clone();
                int_softmax(&mut c, fmt);
                c
            })
            .collect();
        // s_j = Σ_i c_ij · û_ij (step 4), accumulated exactly, then reduced
        // to the unit's wordlength before the squash (Fig. 9).
        for (j, out) in output.iter_mut().enumerate() {
            for (d, o) in out.iter_mut().enumerate() {
                let acc: i64 = (0..ni).map(|i| coupling[i][j] * votes[i][j][d]).sum();
                *o = reduce(acc, fmt);
            }
        }
        // v_j = squash(s_j) (Eq. 2) on the integer unit.
        for v in output.iter_mut() {
            int_squash(v, fmt);
        }
        if iter + 1 < iters {
            // a_ij = v_j · û_ij, b += a (steps 6-7).
            for (i, row) in logits.iter_mut().enumerate() {
                for (j, b) in row.iter_mut().enumerate() {
                    let acc: i64 = (0..dj).map(|d| output[j][d] * votes[i][j][d]).sum();
                    *b = reduce((*b << nf) + acc, fmt);
                }
            }
        }
    }
    output
}

/// f32 reference routing on the same (already-quantized) votes, with no
/// further rounding — the limit the integer path should approach as its
/// formats widen.
fn f32_dynamic_routing(votes: &[Vec<Vec<f32>>], iters: usize) -> Vec<Vec<f32>> {
    let (ni, nj, dj) = (votes.len(), votes[0].len(), votes[0][0].len());
    let mut logits = vec![vec![0.0f32; nj]; ni];
    let mut output = vec![vec![0.0f32; dj]; nj];
    for iter in 0..iters {
        let coupling: Vec<Vec<f32>> = logits
            .iter()
            .map(|row| {
                let t = Tensor::from_vec(row.clone(), [1, nj]).unwrap();
                t.softmax_axis(1).into_vec()
            })
            .collect();
        for j in 0..nj {
            for d in 0..dj {
                output[j][d] = (0..ni).map(|i| coupling[i][j] * votes[i][j][d]).sum();
            }
        }
        for v in output.iter_mut() {
            let t = Tensor::from_vec(v.clone(), [1, dj]).unwrap();
            *v = t.squash_axis(1).into_vec();
        }
        if iter + 1 < iters {
            for i in 0..ni {
                for j in 0..nj {
                    let a: f32 = (0..dj).map(|d| output[j][d] * votes[i][j][d]).sum();
                    logits[i][j] += a;
                }
            }
        }
    }
    output
}

/// `x` truncated onto the grid of `fmt`, as a raw word.
fn raw(x: f32, fmt: QFormat) -> i64 {
    (RoundingScheme::Truncation.round_raw(x, fmt, 0.0) / fmt.precision()) as i64
}

#[test]
fn integer_routing_tracks_f32_reference() {
    let fmt = QFormat::new(2, 12);
    let mut rng = StdRng::seed_from_u64(5);
    let (ni, nj, dj) = (12, 4, 6);
    // Quantized votes shared by both paths.
    let votes_raw: Vec<Vec<Vec<i64>>> = (0..ni)
        .map(|_| {
            (0..nj)
                .map(|_| {
                    (0..dj)
                        .map(|_| raw(rng.gen_range(-0.4..0.4), fmt))
                        .collect()
                })
                .collect()
        })
        .collect();
    let votes_f32: Vec<Vec<Vec<f32>>> = votes_raw
        .iter()
        .map(|a| {
            a.iter()
                .map(|b| b.iter().map(|&r| r as f32 * fmt.precision()).collect())
                .collect()
        })
        .collect();
    for iters in [1usize, 3] {
        let integer = int_dynamic_routing(&votes_raw, iters, fmt);
        let reference = f32_dynamic_routing(&votes_f32, iters);
        for j in 0..nj {
            for d in 0..dj {
                let got = integer[j][d] as f32 * fmt.precision();
                let want = reference[j][d];
                assert!(
                    (got - want).abs() < 0.02,
                    "iters {iters}, v[{j}][{d}]: integer {got} vs f32 {want}"
                );
            }
        }
    }
}

#[test]
fn integer_routing_concentrates_on_agreeing_votes() {
    // Structural property of routing in pure integer arithmetic: when all
    // input capsules agree on output j*, three iterations route more mass
    // to j* than one iteration does.
    let fmt = QFormat::new(2, 12);
    let (ni, nj, dj) = (8, 3, 4);
    let votes: Vec<Vec<Vec<i64>>> = (0..ni)
        .map(|_| {
            (0..nj)
                .map(|j| {
                    (0..dj)
                        .map(|d| {
                            // Every input votes strongly for j = 1.
                            let v = if j == 1 { 0.4 } else { 0.05 * (d as f32 - 1.5) };
                            raw(v, fmt)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let norm = |caps: &[Vec<i64>], j: usize| -> f32 {
        caps[j]
            .iter()
            .map(|&x| (x as f32 * fmt.precision()).powi(2))
            .sum::<f32>()
            .sqrt()
    };
    let one = int_dynamic_routing(&votes, 1, fmt);
    let three = int_dynamic_routing(&votes, 3, fmt);
    assert!(
        norm(&three, 1) > norm(&one, 1),
        "routing should strengthen the agreed capsule: {} vs {}",
        norm(&three, 1),
        norm(&one, 1)
    );
}
