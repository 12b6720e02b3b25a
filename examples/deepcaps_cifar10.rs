//! DeepCaps on the CIFAR10 stand-in — the paper's headline experiment
//! (6.2× weight-memory reduction at 0.15 % accuracy loss, §IV-B).
//!
//! Trains the scaled DeepCaps (conv stem, two residual ConvCaps blocks
//! with a dynamic-routing skip branch, routed capsule output layer) on the
//! coloured synthetic dataset, then runs the framework with stochastic
//! rounding — the scheme the paper found best for DeepCaps.
//!
//! Run with: `cargo run --release --example deepcaps_cifar10`

use qcn_repro::capsnet::{train, CapsNet, DeepCaps, DeepCapsConfig, TrainConfig};
use qcn_repro::datasets::augment::AugmentPolicy;
use qcn_repro::datasets::SynthKind;
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::{report, run, FrameworkConfig};

fn main() {
    let (train_set, test_set) = SynthKind::Cifar10.train_test(1500, 400, 21);
    let mut model = DeepCaps::new(DeepCapsConfig::small(3), 21);
    println!(
        "DeepCaps groups: {:?}",
        model
            .groups()
            .iter()
            .map(|g| format!("{}{}", g.name, if g.has_routing { "*" } else { "" }))
            .collect::<Vec<_>>()
    );
    println!("(* = contains dynamic routing)\n");
    println!("training DeepCaps on {}…", SynthKind::Cifar10);
    let train_report = train(
        &mut model,
        &train_set,
        &test_set,
        &TrainConfig {
            epochs: 8,
            augment: AugmentPolicy::cifar10(),
            verbose: true,
            ..TrainConfig::default()
        },
    );
    println!(
        "full-precision accuracy: {:.2}%\n",
        train_report.final_accuracy * 100.0
    );

    let fp32_bits: u64 = model
        .groups()
        .iter()
        .map(|g| g.weight_count as u64 * 32)
        .sum();
    let outcome = run(
        &model,
        &test_set,
        &FrameworkConfig {
            acc_tol: 0.005,
            memory_budget_bits: fp32_bits / 6, // aim for ≈ 6× like the paper
            scheme: RoundingScheme::Stochastic,
            ..FrameworkConfig::default()
        },
    );
    println!(
        "framework: fp32 {:.2}%, target {:.2}%, {} evaluations",
        outcome.acc_fp32 * 100.0,
        outcome.acc_target * 100.0,
        outcome.stats.evaluations
    );
    for result in outcome.outcome.results() {
        println!("{}", report::layer_table(&model.groups(), result));
    }
}
