//! Regenerates paper Fig. 11: Q-CapsNet results of ShallowCaps on the
//! MNIST stand-in — per-layer fractional bits for weights, activations and
//! dynamic routing, with accuracy and memory reductions, for:
//!
//! * **Q1** (`model_satisfied`) — Path A at a moderate budget;
//! * **Q2** (`model_accuracy`) and **Q3** (`model_memory`) — Path B at a
//!   deliberately infeasible budget.
//!
//! Expected shape (paper): Q1 reduces weight memory ≈ 4–6× within the
//! tolerance; Q2 pushes weights to their minimum at the accuracy target;
//! Q3 collapses to near-chance accuracy at the extreme budget; DR bits end
//! up at or below the activation bits.

use qcapsnets::{report, run, FrameworkConfig, Outcome};
use qcn_bench::zoo::{self, epochs};
use qcn_capsnet::CapsNet;
use qcn_datasets::SynthKind;
use qcn_fixed::RoundingScheme;

fn main() {
    let pair = zoo::shallow(SynthKind::Mnist, epochs::SHALLOW);
    let groups = pair.model.groups();
    let total_w: u64 = groups.iter().map(|g| g.weight_count as u64).sum();
    let fp32_bits = total_w * 32;
    println!(
        "== Fig. 11: ShallowCaps on {} (FP32 weight memory {}) ==\n",
        pair.dataset_name,
        report::mbit(fp32_bits)
    );

    // --- Path A: moderate budget (≈ 32/5 of FP32, like the paper's
    // 45 Mbit of 217 Mbit), tolerance 0.2 %.
    let path_a = run(
        &pair.model,
        &pair.test_set,
        &FrameworkConfig {
            acc_tol: 0.002,
            memory_budget_bits: fp32_bits / 5,
            scheme: RoundingScheme::RoundToNearest,
            ..FrameworkConfig::default()
        },
    );
    println!(
        "FP32 accuracy {:.2}%, target {:.2}%, step-1 uniform frac {} bits\n",
        path_a.acc_fp32 * 100.0,
        path_a.acc_target * 100.0,
        path_a.step1_frac
    );
    match &path_a.outcome {
        Outcome::Satisfied(q1) => {
            println!("[Q1] Path A (budget = FP32/5, tolerance 0.2%):");
            println!("{}", report::layer_table(&groups, q1));
        }
        Outcome::Fallback { memory, accuracy } => {
            println!("[Q1] budget unexpectedly infeasible; Path B results:");
            println!("{}", report::layer_table(&groups, memory));
            println!("{}", report::layer_table(&groups, accuracy));
        }
    }

    // --- Path B: deliberately tiny budget (≈ 2.5 bits/weight) to force
    // the fallback pair, like the paper's Q2/Q3.
    let path_b = run(
        &pair.model,
        &pair.test_set,
        &FrameworkConfig {
            acc_tol: 0.002,
            memory_budget_bits: total_w * 5 / 2,
            scheme: RoundingScheme::RoundToNearest,
            ..FrameworkConfig::default()
        },
    );
    match &path_b.outcome {
        Outcome::Fallback { memory, accuracy } => {
            println!("[Q2] Path B model_accuracy (min memory at the accuracy target):");
            println!("{}", report::layer_table(&groups, accuracy));
            println!("[Q3] Path B model_memory (extreme budget — accuracy collapses):");
            println!("{}", report::layer_table(&groups, memory));
        }
        Outcome::Satisfied(q) => {
            println!("[Q2/Q3] extreme budget unexpectedly satisfiable:");
            println!("{}", report::layer_table(&groups, q));
        }
    }
    println!(
        "evaluations: path A {} + path B {}",
        path_a.stats.evaluations, path_b.stats.evaluations
    );
}
