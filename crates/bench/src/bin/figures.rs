//! Regenerates the paper's **figures** (and the descriptive Tables 1–2):
//!
//! * `table1` — the candidate optimization phases and designations;
//! * `table2` — the MiBench subset;
//! * `fig1` / `fig2` / `fig4` — naive space vs dormant-phase pruning vs
//!   identical-instance DAG, as node counts for a real function;
//! * `fig3` — different optimizations producing the same code;
//! * `fig5` — register/label remapping detecting equivalent instances;
//! * `fig6` — naive re-evaluation vs the prefix-sharing enhancements;
//! * `fig7` — a weighted DAG in Graphviz syntax;
//! * `fig8` — a probabilistic-compilation trace.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- [table1|table2|fig1|...]
//! ```
//! With no argument, everything prints in order. `--jobs` is accepted
//! but unused: every figure enumerates a small space serially.

use phase_order::enumerate::{enumerate, sequence_letters, Config, ReplayMode};
use phase_order::interaction::InteractionAnalysis;
use phase_order::prob::{probabilistic_compile, ProbTables};
use vpo_opt::{attempt, PhaseId, Target};
use vpo_rtl::canon;

const SELECTORS: [&str; 10] =
    ["table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"];

fn main() {
    let args = bench::Args::from_env("figures", &SELECTORS);
    let which = args.selector.unwrap_or_default();
    let all = which.is_empty();
    if all || which == "table1" {
        table1();
    }
    if all || which == "table2" {
        table2();
    }
    if all || which == "fig1" || which == "fig2" || which == "fig4" {
        figs_1_2_4();
    }
    if all || which == "fig3" {
        fig3();
    }
    if all || which == "fig5" {
        fig5();
    }
    if all || which == "fig6" {
        fig6();
    }
    if all || which == "fig7" {
        fig7();
    }
    if all || which == "fig8" {
        fig8();
    }
}

fn table1() {
    println!("Table 1: Candidate Optimization Phases with Their Designations");
    println!("{:<34} {:>2}  {:<13} legal-when", "Optimization Phase", "Id", "requires-regs");
    for p in PhaseId::ALL {
        let legal = match p {
            PhaseId::EvalOrder => "before register assignment",
            PhaseId::LoopUnroll | PhaseId::LoopXform => "after register allocation",
            _ => "always",
        };
        println!(
            "{:<34} {:>2}  {:<13} {legal}",
            p.name(),
            p.letter(),
            if p.requires_registers() { "yes" } else { "no" },
        );
    }
    println!();
}

fn table2() {
    println!("Table 2: MiBench Benchmarks Used");
    println!("{:<10} {:<14} Description", "Category", "Program");
    for b in mibench::all() {
        println!("{:<10} {:<14} {}", b.category, b.name, b.description);
    }
    println!();
}

fn figs_1_2_4() {
    // The three views of the same space (Figures 1, 2, 4) on a real
    // function, reported as node counts per level.
    let src = "int f(int a) { int x = a + 1; return x * 4; }";
    let p = vpo_frontend::compile(src).unwrap();
    let f = &p.functions[0];
    let e = enumerate(f, &Target::default(), &Config::default());
    let space = &e.space;

    // Figure 2 (tree with dormant pruning): distinct active sequences =
    // path counts through the DAG.
    let mut paths = vec![0u64; space.len()];
    paths[space.root().0 as usize] = 1;
    // Process in level order (level = shortest discovery depth, and all
    // edges go from expanded nodes, so repeated passes converge quickly).
    for _ in 0..space.len() {
        let mut next = vec![0u64; space.len()];
        next[space.root().0 as usize] = 1;
        for (id, n) in space.iter() {
            for &(_, c) in &n.children {
                next[c.0 as usize] += paths[id.0 as usize];
            }
        }
        if next == paths {
            break;
        }
        paths = next;
    }
    let tree_nodes: u64 = paths.iter().sum();
    let depth = space.max_active_sequence_length();
    let naive: f64 = (0..=depth).map(|n| 15f64.powi(n as i32)).sum();

    println!("Figures 1, 2 and 4: three views of one phase-order space");
    println!("function: {src}");
    println!("  Figure 1 (naive attempted space, 15 phases, depth {depth}): {naive:.3e} sequences");
    println!("  Figure 2 (tree after dormant-phase pruning): {tree_nodes} nodes");
    println!(
        "  Figure 4 (DAG after identical-instance detection): {} nodes, {} leaves",
        space.len(),
        space.leaf_count()
    );
    println!();
}

/// Finds a node with at least two parents in `space` and returns two
/// distinct phase sequences from the root that reach it.
fn converging_sequences(
    space: &phase_order::SearchSpace,
) -> Option<(Vec<PhaseId>, Vec<PhaseId>, phase_order::NodeId)> {
    // Scan edges for one that reaches an already-discovered node through a
    // different parent (a convergence edge).
    let mut best: Option<(Vec<PhaseId>, Vec<PhaseId>, phase_order::NodeId)> = None;
    for (uid, u) in space.iter() {
        for &(phase, v) in &u.children {
            let discovered = space.node(v).discovered_from;
            if discovered != Some((uid, phase)) && discovered.is_some() {
                let via_discovery = space.discovery_sequence(v);
                let mut via_here = space.discovery_sequence(uid);
                via_here.push(phase);
                if via_discovery != via_here {
                    let cand = (via_discovery, via_here, v);
                    // Prefer the shortest demonstration.
                    let len = cand.0.len() + cand.1.len();
                    if best.as_ref().map(|(a, b, _)| a.len() + b.len() > len).unwrap_or(true) {
                        best = Some(cand);
                    }
                }
            }
        }
    }
    best
}

fn replay(f: &vpo_rtl::Function, seq: &[PhaseId], target: &Target) -> vpo_rtl::Function {
    let mut g = f.clone();
    for &p in seq {
        attempt(&mut g, p, target);
    }
    g
}

fn fig3() {
    println!("Figure 3: Different Optimizations Having the Same Effect");
    // The paper's example: r[2]=1; r[3]=r[4]+r[2]; — reachable through
    // instruction selection or through constant propagation + dead
    // assignment elimination. Rather than hand-pick orders, find a real
    // convergence in the exhaustively enumerated space.
    let src = "int f(int r4) { int r2 = 1; return r4 + r2; }";
    let p = vpo_frontend::compile(src).unwrap();
    let target = Target::default();
    let e = enumerate(&p.functions[0], &target, &Config::default());
    let Some((seq_a, seq_b, node)) = converging_sequences(&e.space) else {
        println!("no convergence found (space too small)\n");
        return;
    };
    let fa = replay(&p.functions[0], &seq_a, &target);
    let fb = replay(&p.functions[0], &seq_b, &target);
    println!("source: {src}");
    println!(
        "sequences `{}` and `{}` both produce instance {node}:",
        sequence_letters(&seq_a),
        sequence_letters(&seq_b)
    );
    println!("{fa}");
    println!("identical instances: {}", canon::fingerprint(&fa) == canon::fingerprint(&fb));
    println!();
}

fn fig5() {
    println!("Figure 5: Different Functions with Equivalent Code");
    // Find a convergence whose two replayed instances differ *textually*
    // (register numbers or labels) yet canonicalize identically — the
    // situation the remapping of Section 4.2.1 exists for.
    let src = r#"
        int a[1000];
        int sum() {
            int s = 0;
            int i;
            for (i = 0; i < 1000; i++) s += a[i];
            return s;
        }
    "#;
    let p = vpo_frontend::compile(src).unwrap();
    let target = Target::default();
    let e = enumerate(&p.functions[0], &target, &Config::default());
    // Search all convergences for a textual mismatch.
    let mut shown = false;
    'outer: for (uid, u) in e.space.iter() {
        for &(phase, v) in &u.children {
            let discovered = e.space.node(v).discovered_from;
            if discovered == Some((uid, phase)) || discovered.is_none() {
                continue;
            }
            let seq_a = e.space.discovery_sequence(v);
            let mut seq_b = e.space.discovery_sequence(uid);
            seq_b.push(phase);
            let fa = replay(&p.functions[0], &seq_a, &target);
            let fb = replay(&p.functions[0], &seq_b, &target);
            if fa != fb {
                println!(
                    "orders `{}` and `{}` produce textually different code:",
                    sequence_letters(&seq_a),
                    sequence_letters(&seq_b)
                );
                println!("(a)\n{fa}");
                println!("(b)\n{fb}");
                println!(
                    "canonically equal after register/label remapping: {}",
                    canon::canonically_equal(&fa, &fb)
                );
                shown = true;
                break 'outer;
            }
        }
    }
    if !shown {
        println!("every convergence here was already textually identical");
    }
    println!();
}

fn fig6() {
    println!("Figure 6: Enhancements for Faster Searches");
    println!("(naive per-sequence re-evaluation vs prefix-sharing)");
    let target = Target::default();
    println!("{:<22} {:>12} {:>12} {:>7}", "function", "naive-apps", "shared-apps", "factor");
    let mut shown = 0;
    for sf in bench::suite_functions() {
        if sf.function.inst_count() > 60 {
            continue; // keep the naive mode affordable
        }
        let fast = enumerate(&sf.function, &target, &Config::default());
        if !fast.outcome.is_complete() || fast.space.len() > 3000 {
            continue;
        }
        let slow = enumerate(
            &sf.function,
            &target,
            &Config { replay: ReplayMode::NaiveReplay, ..Config::default() },
        );
        println!(
            "{:<22} {:>12} {:>12} {:>6.1}x",
            sf.display,
            slow.stats.phases_applied,
            fast.stats.phases_applied,
            slow.stats.phases_applied as f64 / fast.stats.phases_applied as f64
        );
        shown += 1;
        if shown >= 8 {
            break;
        }
    }
    println!("(the paper reports a 5–10x reduction)\n");
}

fn fig7() {
    println!("Figure 7: Weighted DAG (Graphviz)");
    let p = vpo_frontend::compile("int f(int a) { return a * 4 + 0; }").unwrap();
    let e = enumerate(&p.functions[0], &Target::default(), &Config::default());
    println!("{}", e.space.to_dot());
}

fn fig8() {
    println!("Figure 8: Probabilistic Compilation (one trace)");
    let config = Config::default();
    let target = Target::default();
    // Mine tables from the bitcount benchmark only — quick but realistic.
    let b = mibench::bitcount::benchmark();
    let prog = b.compile().unwrap();
    let mut ia = InteractionAnalysis::new();
    for f in &prog.functions {
        let e = enumerate(f, &target, &config);
        if e.outcome.is_complete() {
            ia.add_space(&e.space);
        }
    }
    let tables = ProbTables::from_analysis(&ia);
    let mut f = prog.functions[0].clone();
    let stats = probabilistic_compile(&mut f, &target, &tables);
    println!(
        "bit_count: attempted {} phases, {} active, sequence {}",
        stats.attempted,
        stats.active,
        sequence_letters(&stats.sequence)
    );
    println!();
}
