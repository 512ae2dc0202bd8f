//! End-to-end checks of the paper's headline claims, on a subset of the
//! suite small enough for CI.

use exhaustive_phase_order as epo;

use epo::explore::campaign::store::FunctionRecord;
use epo::explore::enumerate::{enumerate, Config};
use epo::explore::interaction::InteractionAnalysis;
use epo::explore::prob::{probabilistic_compile, ProbTables};
use epo::opt::batch::batch_compile;
use epo::opt::{PhaseId, Target};

fn small_suite() -> Vec<(String, epo::rtl::Function)> {
    let mut out = Vec::new();
    for b in epo::benchmarks::all() {
        let p = b.compile().unwrap();
        for f in p.functions {
            if f.inst_count() <= 75 {
                out.push((format!("{}({})", f.name, b.tag), f));
            }
        }
    }
    out
}

/// Claim 1 (Section 4): the actual phase-order space is many orders of
/// magnitude smaller than the attempted space, and can be exhaustively
/// enumerated.
#[test]
fn actual_space_is_tiny_compared_to_attempted() {
    let target = Target::default();
    let mut enumerated = 0;
    for (name, f) in small_suite() {
        let e = enumerate(&f, &target, &Config::default());
        assert!(e.outcome.is_complete(), "{name} did not complete");
        enumerated += 1;
        let depth = e.space.max_active_sequence_length();
        if depth >= 3 {
            let naive = 15f64.powi(depth as i32);
            assert!(
                (e.space.len() as f64) < naive / 100.0,
                "{name}: {} instances vs 15^{depth} attempted orderings",
                e.space.len()
            );
        }
    }
    assert!(enumerated >= 25, "not enough functions exercised");
}

/// Claim 2 (Table 3): different phase orderings change leaf code size by
/// tens of percent for a meaningful share of functions.
#[test]
fn code_size_spread_matches_paper_shape() {
    let target = Target::default();
    let mut spreads = Vec::new();
    for (name, f) in small_suite() {
        let e = enumerate(&f, &target, &Config::default());
        let row = FunctionRecord::from_enumeration(name, &f, &e).to_row();
        if let Some(d) = row.code_diff_percent() {
            spreads.push(d);
        }
    }
    let avg = spreads.iter().sum::<f64>() / spreads.len() as f64;
    // Paper: 37.8% average over the whole suite; anything in the tens of
    // percent demonstrates the same phenomenon.
    assert!(avg > 10.0, "average code-size spread {avg:.1}% too small to match the paper");
    assert!(spreads.iter().any(|&d| d > 40.0), "no function shows a large ordering effect");
}

/// Claim 3 (Section 5 / Table 4): instruction selection and CSE are active
/// on unoptimized code; unreachable-code removal never is; register
/// allocation is enabled by instruction selection.
#[test]
fn interaction_structure_matches_paper() {
    let target = Target::default();
    let mut ia = InteractionAnalysis::new();
    for (_, f) in small_suite() {
        let e = enumerate(&f, &target, &Config::default());
        if e.outcome.is_complete() {
            ia.add_space(&e.space);
        }
    }
    assert!(ia.start_probability(PhaseId::InsnSelect).unwrap() > 0.9);
    assert!(ia.start_probability(PhaseId::Cse).unwrap() > 0.8);
    assert_eq!(ia.start_probability(PhaseId::Unreachable), Some(0.0));
    // k's strongest enabler is s (the address-formation dependence).
    let s_to_k = ia.enabling_probability(PhaseId::RegAlloc, PhaseId::InsnSelect).unwrap();
    assert!(s_to_k > 0.5, "s should enable k, got {s_to_k}");
    // k enables s (loads/stores become collapsible moves).
    let k_to_s = ia.enabling_probability(PhaseId::InsnSelect, PhaseId::RegAlloc).unwrap();
    assert!(k_to_s > 0.9, "k should enable s, got {k_to_s}");
    // Phases disable themselves (Table 5's 1.00 diagonal).
    for p in [PhaseId::InsnSelect, PhaseId::Cse, PhaseId::RegAlloc, PhaseId::DeadAssign] {
        let d = ia.disabling_probability(p, p).unwrap();
        assert!(d > 0.95, "{p:?} self-disabling {d}");
    }
    // Evaluation order determination is permanently disabled by any phase
    // that triggers register assignment.
    let c_kills_o = ia.disabling_probability(PhaseId::EvalOrder, PhaseId::Cse);
    if let Some(v) = c_kills_o {
        assert!(v > 0.95, "c should always disable o, got {v}");
    }
}

/// Claim 4 (Section 6 / Table 7): the probabilistic batch compiler
/// attempts far fewer phases than the conventional batch loop at
/// comparable code size.
#[test]
fn probabilistic_compiler_matches_table7_shape() {
    let target = Target::default();
    let mut ia = InteractionAnalysis::new();
    for (_, f) in small_suite() {
        let e = enumerate(&f, &target, &Config::default());
        if e.outcome.is_complete() {
            ia.add_space(&e.space);
        }
    }
    let tables = ProbTables::from_analysis(&ia);

    let (mut old_att, mut prob_att) = (0usize, 0usize);
    let (mut old_size, mut prob_size) = (0usize, 0usize);
    for (_, f) in small_suite() {
        let mut a = f.clone();
        let so = batch_compile(&mut a, &target);
        let mut b = f.clone();
        let sp = probabilistic_compile(&mut b, &target, &tables);
        old_att += so.attempted;
        prob_att += sp.attempted;
        old_size += a.inst_count();
        prob_size += b.inst_count();
    }
    assert!(
        prob_att * 2 < old_att,
        "attempted phases should at least halve: {prob_att} vs {old_att}"
    );
    let size_ratio = prob_size as f64 / old_size as f64;
    assert!(
        (0.95..=1.10).contains(&size_ratio),
        "aggregate size ratio {size_ratio:.3} outside the paper's ballpark"
    );
}

/// Claim 5 (Section 8): exhaustive enumeration finds the minimal code
/// size, and the batch compiler does not always reach it.
#[test]
fn exhaustive_search_finds_optima_batch_misses() {
    let target = Target::default();
    let mut batch_optimal = 0;
    let mut batch_suboptimal = 0;
    for (name, f) in small_suite() {
        let e = enumerate(&f, &target, &Config::default());
        if !e.outcome.is_complete() {
            continue;
        }
        let (best, _) = e.space.leaf_code_size_range().unwrap();
        let mut g = f.clone();
        batch_compile(&mut g, &target);
        assert!(g.inst_count() as u32 >= best, "{name}: batch beat the exhaustive optimum?!");
        if g.inst_count() as u32 == best {
            batch_optimal += 1;
        } else {
            batch_suboptimal += 1;
        }
    }
    assert!(batch_optimal > 0, "batch should reach some optima");
    assert!(batch_suboptimal > 0, "batch reaching every optimum would make the study pointless");
}
