//! Quickstart: train a small Capsule Network on a synthetic MNIST-like
//! dataset, then quantize it with the Q-CapsNets framework and compare
//! accuracy and memory.
//!
//! Run with: `cargo run --release --example quickstart`

use qcn_repro::capsnet::{train, CapsNet, ShallowCaps, ShallowCapsConfig, TrainConfig};
use qcn_repro::datasets::SynthKind;
use qcn_repro::framework::{report, run, FrameworkConfig};

fn main() {
    // 1. Data: a procedural 10-class glyph dataset standing in for MNIST.
    let (train_set, test_set) = SynthKind::Mnist.train_test(1000, 300, 7);

    // 2. Model: the scaled ShallowCaps (conv stem → PrimaryCaps →
    //    DigitCaps with 3 dynamic-routing iterations).
    let mut model = ShallowCaps::new(ShallowCapsConfig::small(1), 7);

    // 3. Train in full precision (a couple of minutes on one CPU core).
    println!("training ShallowCaps on {}…", SynthKind::Mnist);
    let report_train = train(
        &mut model,
        &train_set,
        &test_set,
        &TrainConfig {
            epochs: 5,
            verbose: true,
            ..TrainConfig::default()
        },
    );
    println!(
        "full-precision accuracy: {:.2}%\n",
        report_train.final_accuracy * 100.0
    );

    // 4. Quantize: tolerate 1% accuracy loss within a quarter of the FP32
    //    weight memory.
    let fp32_bits: u64 = model
        .groups()
        .iter()
        .map(|g| g.weight_count as u64 * 32)
        .sum();
    let outcome = run(
        &model,
        &test_set,
        &FrameworkConfig {
            acc_tol: 0.01,
            memory_budget_bits: fp32_bits / 4,
            ..FrameworkConfig::default()
        },
    );

    // 5. Report.
    println!(
        "framework evaluated {} configurations (fp32 {:.2}%, target {:.2}%)",
        outcome.stats.evaluations,
        outcome.acc_fp32 * 100.0,
        outcome.acc_target * 100.0
    );
    for result in outcome.outcome.results() {
        println!("{}", report::layer_table(&model.groups(), result));
    }

    // 6. Deployment: pack the winning model's weights into bit-exact
    //    fixed-point storage and compare with FP32.
    let best = outcome.outcome.results()[0].clone();
    let packed = qcn_repro::framework::export::pack_model(&model, &best.config);
    let fp32_bytes = model.total_weights() * 4;
    println!(
        "packed weight blob: {} bytes (FP32 would be {} bytes; {:.2}x smaller)",
        packed.total_bytes(),
        fp32_bytes,
        fp32_bytes as f32 / packed.total_bytes() as f32
    );
}
