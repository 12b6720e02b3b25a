//! Ablation of the framework's design choices (DESIGN.md §5): what does
//! each stage of Algorithm 1 buy over a traditional uniform DNN
//! quantization (the "\[23\]/\[10\]-style" baseline the paper contrasts in
//! §II-C)?
//!
//! Compares, at the same accuracy target:
//!   1. uniform quantization only (step 1 — one width everywhere);
//!   2. + Eq. 6 decreasing weight profile (step 2);
//!   3. + layer-wise activation descent (step 3A);
//!   4. + dynamic-routing specialisation (step 4A — the full framework).
//!
//! Expected shape: every stage lowers memory (weight or activation or DR
//! bits) at roughly constant accuracy; the DR stage is "free" energy-wise
//! because routing adapts to quantization (§IV-D).

use qcapsnets::algorithms::{binary_search_uniform, dr_quant, layerwise, ParamDomain};
use qcapsnets::memory::{activation_memory_bits, weight_memory_bits};
use qcapsnets::Evaluator;
use qcn_bench::zoo::{self, epochs};
use qcn_capsnet::{CapsNet, ModelQuant};
use qcn_datasets::SynthKind;
use qcn_fixed::RoundingScheme;

fn main() {
    let pair = zoo::shallow(SynthKind::Mnist, epochs::SHALLOW);
    let groups = pair.model.groups();
    let mut eval = Evaluator::new(&pair.model, &pair.test_set, 50);
    let fp = ModelQuant {
        layers: vec![qcn_capsnet::LayerQuant::full_precision(); groups.len()],
        scheme: RoundingScheme::RoundToNearest,
        seed: 0,
    };
    let acc_fp32 = eval.accuracy(&fp);
    let slack = 1.0 / pair.test_set.len() as f32;
    let target = acc_fp32 * (1.0 - 0.005) - slack;
    println!(
        "== search-strategy ablation (ShallowCaps/synth-MNIST, fp32 {:.2}%, target {:.2}%) ==\n",
        acc_fp32 * 100.0,
        target * 100.0
    );
    println!(
        "{:<44} {:>8} {:>12} {:>12}",
        "stage", "acc", "W mem (bit)", "A mem (bit)"
    );
    let show = |name: &str, config: &ModelQuant, eval: &mut Evaluator<'_, _>| {
        let acc = eval.accuracy(config);
        println!(
            "{:<44} {:>7.2}% {:>12} {:>12}",
            name,
            acc * 100.0,
            weight_memory_bits(&groups, config),
            activation_memory_bits(&groups, config)
        );
    };

    // Stage 1: uniform width everywhere (traditional DNN quantization).
    let (uniform, frac) = binary_search_uniform(&mut eval, &fp, ParamDomain::Both, 23, target);
    show(
        &format!("1. uniform (step 1): {frac} frac bits"),
        &uniform,
        &mut eval,
    );

    // Stage 2: decreasing weight profile (Eq. 6 at the memory this
    // uniform solution uses; emulated by Algorithm 2 on weights).
    let weights_lw = layerwise(&mut eval, &uniform, ParamDomain::Weights, target);
    show(
        "2. + layer-wise weights (Eq. 6 direction)",
        &weights_lw,
        &mut eval,
    );

    // Stage 3: layer-wise activations.
    let acts_lw = layerwise(&mut eval, &weights_lw, ParamDomain::Activations, target);
    show("3. + layer-wise activations (step 3A)", &acts_lw, &mut eval);

    // Stage 4: dynamic-routing specialisation.
    let full = dr_quant(&mut eval, &acts_lw, target);
    show(
        "4. + DR quantization (step 4A, full framework)",
        &full,
        &mut eval,
    );

    // Stage 5: the paper's Algorithm-1 ordering from the same weight
    // budget — Eq. 6 structured profile first, then activations with only
    // half the remaining margin (line 14), then DR. The greedy weight-first
    // descent above spends the entire accuracy margin on weights and can
    // leave nothing for the activation/DR stages; Algorithm 1's ordering
    // is what makes the DR specialisation possible.
    let budget = weight_memory_bits(&groups, &weights_lw);
    let paper = qcapsnets::run(
        &pair.model,
        &pair.test_set,
        &qcapsnets::FrameworkConfig {
            acc_tol: 0.005,
            memory_budget_bits: budget,
            scheme: RoundingScheme::RoundToNearest,
            ..qcapsnets::FrameworkConfig::default()
        },
    );
    if let qcapsnets::Outcome::Satisfied(r) = &paper.outcome {
        show(
            "5. Algorithm-1 ordering at the same budget",
            &r.config,
            &mut eval,
        );
        let describe = |c: &ModelQuant| {
            c.layers
                .iter()
                .map(|l| {
                    format!(
                        "w{}/a{}/dr{}",
                        l.weight_frac.map_or("fp".into(), |b: u8| b.to_string()),
                        l.act_frac.map_or("fp".into(), |b: u8| b.to_string()),
                        l.dr_frac.map_or("-".into(), |b: u8| b.to_string())
                    )
                })
                .collect::<Vec<String>>()
                .join("  ")
        };
        println!("\n   greedy (weight-first): {}", describe(&full));
        println!("   Algorithm 1 ordering:  {}", describe(&r.config));
    }
    println!("\nevaluations used: {}", eval.stats().evaluations);
}
