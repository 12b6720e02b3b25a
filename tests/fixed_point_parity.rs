//! Cross-validation of the f32 fake-quantization path against true integer
//! fixed-point arithmetic on raw two's-complement words
//! ([`qcn_repro::fixed::requant_raw`]): the framework's simulated
//! quantization must be bit-exact with what a hardware datapath would
//! store.

use qcn_repro::fixed::{requant_raw, QFormat, Quantizer, RoundingScheme};
use qcn_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `x` truncated onto the `2^-frac` grid, as a raw word (no saturation).
fn floor_raw(x: f32, frac: u8) -> i64 {
    (x as f64 * (frac as f64).exp2()).floor() as i64
}

#[test]
fn fake_quantized_values_are_exactly_representable_as_fx() {
    let mut rng = StdRng::seed_from_u64(0);
    for frac in [2u8, 4, 7, 11] {
        let format = QFormat::with_frac(frac);
        for scheme in RoundingScheme::ALL {
            let t = Tensor::rand_uniform([256], -2.0, 2.0, &mut rng);
            let q = Quantizer::new(format, scheme).quantize(&t, &mut rng);
            for &v in q.data() {
                // A fake-quantized value is a raw word of the format: an
                // integer multiple of ε inside the raw range, which the
                // integer requantizer leaves where it is.
                let raw = floor_raw(v, frac);
                assert_eq!(
                    raw as f32 * format.precision(),
                    v,
                    "{scheme} frac {frac}: {v}"
                );
                assert!((format.min_raw()..=format.max_raw()).contains(&raw));
                assert_eq!(requant_raw(scheme, raw, frac, format, 0.5), raw);
            }
        }
    }
}

#[test]
fn quantized_dot_product_matches_integer_mac_chain() {
    // A capsule vote is a dot product; verify the f32 path (quantized
    // inputs, f32 multiply-accumulate) matches an integer MAC chain whose
    // accumulator is wide enough.
    let mut rng = StdRng::seed_from_u64(1);
    let io_frac = 6u8;
    // Wide accumulator (like a real MAC unit's internal width): products
    // of two 6-fractional-bit words carry 12 fractional bits.
    let acc_format = QFormat::new(8, 2 * io_frac);
    for _ in 0..50 {
        // Quantize inputs/weights once (truncation) to raw words.
        let xs: Vec<i64> = (0..16)
            .map(|_| floor_raw(rng.gen_range(-0.9..0.9), io_frac))
            .collect();
        let ws: Vec<i64> = (0..16)
            .map(|_| floor_raw(rng.gen_range(-0.9..0.9), io_frac))
            .collect();
        let eps = QFormat::with_frac(io_frac).precision();
        // f32 path.
        let f32_result: f32 = xs
            .iter()
            .zip(&ws)
            .map(|(&x, &w)| (x as f32 * eps) * (w as f32 * eps))
            .sum();
        // Integer path: exact products summed, then held in the
        // accumulator format.
        let sum: i64 = xs.iter().zip(&ws).map(|(&x, &w)| x * w).sum();
        let acc = requant_raw(
            RoundingScheme::Truncation,
            sum,
            2 * io_frac,
            acc_format,
            0.0,
        );
        let integer = acc as f32 * acc_format.precision();
        assert!(
            (integer - f32_result).abs() <= acc_format.precision() * 16.0,
            "{integer} vs {f32_result}"
        );
    }
}

#[test]
fn requantization_matches_fake_round_trip() {
    // Narrowing a raw word (hardware wordlength reduction before a squash
    // unit) must equal fake-quantizing the same value, under every scheme
    // given the same stochastic draw.
    let mut rng = StdRng::seed_from_u64(2);
    let wide = QFormat::new(2, 12);
    let narrow = QFormat::with_frac(4);
    for _ in 0..500 {
        let x = rng.gen_range(-1.0..1.0f32);
        let raw = floor_raw(x, wide.frac_bits());
        let value = raw as f32 * wide.precision();
        let u = rng.gen_range(0.0..1.0);
        for scheme in RoundingScheme::EXTENDED {
            let hardware =
                requant_raw(scheme, raw, wide.frac_bits(), narrow, u) as f32 * narrow.precision();
            let fake = scheme.round_raw(value, narrow, u);
            assert_eq!(hardware, fake, "{scheme}: x = {x}");
        }
    }
}

#[test]
fn saturating_behaviour_matches() {
    let format = QFormat::with_frac(5);
    let mut rng = StdRng::seed_from_u64(3);
    for &x in &[1.5f32, -3.0, 0.99, -1.0, 7.25] {
        let fake = RoundingScheme::Truncation.round(x, format, &mut rng);
        // Truncated at 20 fractional bits, then reduced to the format:
        // floor composes, and the reduction saturates.
        let raw = requant_raw(
            RoundingScheme::Truncation,
            floor_raw(x, 20),
            20,
            format,
            0.0,
        );
        assert_eq!(fake, raw as f32 * format.precision(), "x = {x}");
    }
}
