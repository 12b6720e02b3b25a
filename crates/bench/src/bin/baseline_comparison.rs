//! Q-CapsNets vs the traditional statistics-driven baseline (§II-C):
//! Ristretto/SQNR-style per-layer format selection needs zero accuracy
//! evaluations but cannot exploit the dynamic routing's quantization
//! tolerance; the framework spends a handful of evaluations and wins on
//! the memory–accuracy trade-off. Also demonstrates the STE fine-tuning
//! extension rescuing a budget-collapsed model.

use qcapsnets::baselines::statistical_quantization;
use qcapsnets::memory::{activation_memory_bits, weight_memory_bits};
use qcapsnets::{finetune, run, FinetuneConfig, FrameworkConfig, Outcome};
use qcn_bench::zoo::{self, epochs, TRAIN_SAMPLES};
use qcn_capsnet::{accuracy, CapsNet};
use qcn_datasets::SynthKind;
use qcn_fixed::RoundingScheme;

fn main() {
    let pair = zoo::shallow(SynthKind::Mnist, epochs::SHALLOW);
    let groups = pair.model.groups();
    println!("== statistical baseline vs Q-CapsNets (ShallowCaps/synth-MNIST) ==\n");
    println!(
        "{:<40} {:>8} {:>12} {:>12} {:>7}",
        "method", "acc", "W mem (bit)", "A mem (bit)", "evals"
    );
    // Baseline at a few SQNR operating points.
    for sqnr in [20.0f32, 30.0, 40.0] {
        let config =
            statistical_quantization(&pair.model, sqnr, 16, RoundingScheme::RoundToNearest);
        let qmodel = pair.model.with_quantized_weights(&config);
        let acc = accuracy(&qmodel, &pair.test_set, &config, 50);
        println!(
            "{:<40} {:>7.2}% {:>12} {:>12} {:>7}",
            format!("statistical (SQNR ≥ {sqnr} dB)"),
            acc * 100.0,
            weight_memory_bits(&groups, &config),
            activation_memory_bits(&groups, &config),
            0
        );
    }
    // Q-CapsNets at matched budgets.
    let fp32_bits: u64 = groups.iter().map(|g| g.weight_count as u64 * 32).sum();
    for div in [5u64, 8] {
        let report = run(
            &pair.model,
            &pair.test_set,
            &FrameworkConfig {
                acc_tol: 0.005,
                memory_budget_bits: fp32_bits / div,
                ..FrameworkConfig::default()
            },
        );
        let result = match &report.outcome {
            Outcome::Satisfied(r) => r.clone(),
            Outcome::Fallback { memory, .. } => memory.clone(),
        };
        println!(
            "{:<40} {:>7.2}% {:>12} {:>12} {:>7}",
            format!("Q-CapsNets (budget fp32/{div})"),
            result.accuracy * 100.0,
            result.weight_mem_bits,
            result.act_mem_bits,
            report.stats.evaluations
        );
    }

    // Fine-tuning rescue: collapse under an extreme budget, then recover.
    println!("\n== STE fine-tuning rescue (extension beyond the paper) ==\n");
    let total_w: u64 = groups.iter().map(|g| g.weight_count as u64).sum();
    let report = run(
        &pair.model,
        &pair.test_set,
        &FrameworkConfig {
            acc_tol: 0.005,
            memory_budget_bits: total_w * 5 / 2, // 2.5 bits/weight: collapses
            ..FrameworkConfig::default()
        },
    );
    let collapsed = match &report.outcome {
        Outcome::Fallback { memory, .. } => memory.clone(),
        Outcome::Satisfied(r) => r.clone(),
    };
    println!(
        "model_memory at 2.5 bits/weight: {:.2}% ({}x weight compression)",
        collapsed.accuracy * 100.0,
        collapsed.weight_mem_reduction
    );
    let (train_set, _) = SynthKind::Mnist.train_test(TRAIN_SAMPLES, 1, 42);
    let mut master = pair.model.clone();
    let (before, after) = finetune(
        &mut master,
        &collapsed.config,
        &train_set,
        &pair.test_set,
        &FinetuneConfig {
            epochs: 2,
            lr: 5e-4,
            ..FinetuneConfig::default()
        },
    );
    println!(
        "after 2 epochs of straight-through fine-tuning: {:.2}% → {:.2}%",
        before * 100.0,
        after * 100.0
    );
    println!("(same wordlengths, same memory — the weights adapt to the grid)");
}
