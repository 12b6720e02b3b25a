//! Human-readable rendering of framework results: the per-layer bit tables
//! of paper Figs. 11–12 and the summary rows of Table I.

use crate::evaluator::EvalStats;
use crate::framework::QuantResult;
use qcn_capsnet::GroupInfo;
use std::fmt::Write as _;

/// Renders a [`QuantResult`] as the per-layer fractional-bit table used in
/// paper Figs. 11 and 12 (weights / activations / dynamic routing columns),
/// followed by the accuracy and memory-reduction summary line.
///
/// # Panics
///
/// Panics when the group count differs from the config's layer count.
pub fn layer_table(groups: &[GroupInfo], result: &QuantResult) -> String {
    assert_eq!(
        groups.len(),
        result.config.layers.len(),
        "group count mismatch"
    );
    let mut out = String::new();
    let show = |b: Option<u8>| b.map_or("fp32".to_string(), |v| format!("{v:>4}"));
    writeln!(
        out,
        "{:<6} {:>8} {:>8} {:>8}",
        "layer", "W bits", "A bits", "DR bits"
    )
    .unwrap();
    for (g, lq) in groups.iter().zip(&result.config.layers) {
        let dr = if g.has_routing {
            show(lq.effective_dr_frac())
        } else {
            "   -".to_string()
        };
        writeln!(
            out,
            "{:<6} {:>8} {:>8} {:>8}",
            g.name,
            show(lq.weight_frac),
            show(lq.act_frac),
            dr
        )
        .unwrap();
    }
    writeln!(
        out,
        "{}: acc={:.2}%, W mem reduction={:.2}x, A mem reduction={:.2}x",
        result.kind,
        result.accuracy * 100.0,
        result.weight_mem_reduction,
        result.act_mem_reduction
    )
    .unwrap();
    out
}

/// Renders one row of paper Table I:
/// `model  dataset  accuracy  W-mem-reduction  A-mem-reduction`.
pub fn table1_row(model: &str, dataset: &str, result: &QuantResult) -> String {
    format!(
        "{:<12} {:<18} {:>7.2}% {:>8.2}x {:>8.2}x",
        model,
        dataset,
        result.accuracy * 100.0,
        result.weight_mem_reduction,
        result.act_mem_reduction
    )
}

/// Formats a bit count as Mbit with two decimals (the unit of Fig. 1 and
/// the paper's memory-budget discussion).
pub fn mbit(bits: u64) -> String {
    format!("{:.2} Mbit", bits as f64 / 1.0e6)
}

/// Renders the evaluator's work/savings counters as a two-line summary:
/// what was evaluated, and what the search-time caches saved.
pub fn search_stats(stats: &EvalStats) -> String {
    let total_stages = stats.stages_run + stats.stages_skipped;
    let skipped_pct = if total_stages > 0 {
        100.0 * stats.stages_skipped as f64 / total_stages as f64
    } else {
        0.0
    };
    format!(
        "evaluations={} memo hits={} early exits={} (accept {}, reject {}) resumes={}\n\
         prefix hits={} stages skipped={}/{} ({skipped_pct:.0}%) evictions: memo={} prefix={} speculative={}",
        stats.evaluations,
        stats.memo_hits,
        stats.early_accepts + stats.early_rejects,
        stats.early_accepts,
        stats.early_rejects,
        stats.partial_resumes,
        stats.prefix_hits,
        stats.stages_skipped,
        total_stages,
        stats.memo_evictions,
        stats.prefix_evictions,
        stats.speculative_probes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::ResultKind;
    use qcn_capsnet::{LayerQuant, ModelQuant};
    use qcn_fixed::RoundingScheme;

    fn sample() -> (Vec<GroupInfo>, QuantResult) {
        let groups = vec![
            GroupInfo {
                name: "L1".into(),
                weight_count: 10,
                activation_count: 10,
                has_routing: false,
            },
            GroupInfo {
                name: "L2".into(),
                weight_count: 10,
                activation_count: 10,
                has_routing: true,
            },
        ];
        let config = ModelQuant {
            layers: vec![
                LayerQuant::uniform(8),
                LayerQuant {
                    weight_frac: Some(6),
                    act_frac: Some(5),
                    dr_frac: Some(3),
                    ..LayerQuant::full_precision()
                },
            ],
            scheme: RoundingScheme::Stochastic,
            seed: 0,
        };
        let result = QuantResult {
            kind: ResultKind::Satisfied,
            config,
            accuracy: 0.9952,
            weight_mem_bits: 160,
            act_mem_bits: 150,
            weight_mem_reduction: 4.11,
            act_mem_reduction: 2.72,
        };
        (groups, result)
    }

    #[test]
    fn layer_table_includes_all_groups_and_summary() {
        let (groups, result) = sample();
        let table = layer_table(&groups, &result);
        assert!(table.contains("L1"), "{table}");
        assert!(table.contains("L2"), "{table}");
        assert!(table.contains("99.52%"), "{table}");
        assert!(table.contains("4.11x"), "{table}");
        // Non-routing layer shows a dash in the DR column.
        let l1_line = table.lines().find(|l| l.starts_with("L1")).unwrap();
        assert!(l1_line.trim_end().ends_with('-'), "{l1_line}");
        // Routing layer shows its DR bits.
        let l2_line = table.lines().find(|l| l.starts_with("L2")).unwrap();
        assert!(l2_line.contains('3'), "{l2_line}");
    }

    #[test]
    fn table1_row_format() {
        let (_, result) = sample();
        let row = table1_row("ShallowCaps", "synth-MNIST", &result);
        assert!(row.contains("ShallowCaps"));
        assert!(row.contains("99.52%"));
        assert!(row.contains("2.72x"));
    }

    #[test]
    fn mbit_formatting() {
        assert_eq!(mbit(217_000_000), "217.00 Mbit");
        assert_eq!(mbit(500_000), "0.50 Mbit");
    }

    #[test]
    fn search_stats_summarises_counters() {
        let stats = EvalStats {
            evaluations: 12,
            memo_hits: 7,
            early_accepts: 3,
            early_rejects: 4,
            partial_resumes: 2,
            prefix_hits: 40,
            stages_run: 60,
            stages_skipped: 60,
            memo_evictions: 1,
            prefix_evictions: 0,
            speculative_probes: 5,
            fallbacks: 0,
        };
        let s = search_stats(&stats);
        assert!(s.contains("evaluations=12"), "{s}");
        assert!(s.contains("early exits=7 (accept 3, reject 4)"), "{s}");
        assert!(s.contains("stages skipped=60/120 (50%)"), "{s}");
        // The zero-work case must not divide by zero.
        let empty = search_stats(&EvalStats::default());
        assert!(empty.contains("(0%)"), "{empty}");
    }
}
