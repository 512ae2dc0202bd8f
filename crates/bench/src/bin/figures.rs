//! Regenerates the paper's **figures** (and the descriptive Tables 1–2):
//!
//! * `table1` — the candidate optimization phases and designations;
//! * `table2` — the MiBench subset;
//! * `fig1` / `fig2` / `fig4` — naive space vs dormant-phase pruning vs
//!   identical-instance DAG, as node counts for a real function;
//! * `fig3` — different optimizations producing the same code;
//! * `fig5` — register/label remapping detecting equivalent instances;
//! * `fig6` — naive re-evaluation vs the prefix-sharing enhancements,
//!   as phase applications and wall time over finished spaces;
//! * `fig7` — a weighted DAG in Graphviz syntax;
//! * `fig8` — a probabilistic-compilation trace;
//! * `ablation` — leaf code-size spread under direct-only vs robust
//!   register allocation, and the attempts the Figure 2 shortcut saves.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- [table1|table2|fig1|...]
//! ```
//! With no argument, everything prints in order. `--jobs` is accepted
//! but unused: every figure enumerates a small space serially.

use std::time::{Duration, Instant};

use phase_order::enumerate::{enumerate, sequence_letters, Config};
use phase_order::interaction::InteractionAnalysis;
use phase_order::oracle::materialize_all;
use phase_order::prob::{probabilistic_compile, ProbTables};
use phase_order::SearchSpace;
use vpo_opt::facts::Facts;
use vpo_opt::{attempt, PhaseId, Target};
use vpo_rtl::canon::{self, Canonicalizer};
use vpo_rtl::Function;

const SELECTORS: [&str; 11] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation",
];

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
    if all || which == "ablation" {
        ablation();
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

/// Every convergence edge of `space` — an edge reaching an
/// already-discovered node through a different parent — as the node's
/// discovery sequence and the distinct sequence through that edge, in
/// node and phase order.
fn convergences(space: &SearchSpace) -> Vec<(Vec<PhaseId>, Vec<PhaseId>, phase_order::NodeId)> {
    let mut out = Vec::new();
    for (uid, u) in space.iter() {
        for &(phase, v) in &u.children {
            let discovered = space.node(v).discovered_from;
            if discovered != Some((uid, phase)) && discovered.is_some() {
                let via_discovery = space.discovery_sequence(v);
                let mut via_here = space.discovery_sequence(uid);
                via_here.push(phase);
                if via_discovery != via_here {
                    out.push((via_discovery, via_here, v));
                }
            }
        }
    }
    out
}

fn replay(f: &Function, seq: &[PhaseId], target: &Target) -> Function {
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
    // Prefer the shortest demonstration.
    let shortest = convergences(&e.space).into_iter().min_by_key(|(a, b, _)| a.len() + b.len());
    let Some((seq_a, seq_b, node)) = shortest else {
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
    let root = &p.functions[0];
    let shown = convergences(&e.space).into_iter().find_map(|(seq_a, seq_b, _)| {
        let (fa, fb) = (replay(root, &seq_a, &target), replay(root, &seq_b, &target));
        (fa != fb).then_some((seq_a, seq_b, fa, fb))
    });
    match shown {
        Some((seq_a, seq_b, fa, fb)) => {
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
        }
        None => println!("every convergence here was already textually identical"),
    }
    println!();
}

fn fig6() {
    println!("Figure 6: Enhancements for Faster Searches");
    println!("(naive per-sequence re-evaluation vs prefix-sharing)");
    let target = Target::default();
    println!(
        "{:<22} {:>12} {:>12} {:>7} {:>10} {:>10} {:>7}",
        "function", "naive-apps", "shared-apps", "factor", "naive-ms", "shared-ms", "wall"
    );
    // At most 60 instructions keeps the naive pass affordable.
    let spaces = bench::suite_functions()
        .into_iter()
        .filter(|sf| sf.function.inst_count() <= 60)
        .map(|sf| (enumerate(&sf.function, &target, &Config::default()), sf))
        .filter(|(e, _)| e.outcome.is_complete() && e.space.len() <= 3000);
    for (e, sf) in spaces.take(8) {
        let parents = materialize_all(&e.space, &sf.function, &target);
        let pass = |naive| min_wall(|| evaluate(&e.space, &sf.function, &parents, &target, naive));
        let ((naive_apps, naive_wall), (shared_apps, shared_wall)) = (pass(true), pass(false));
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        println!(
            "{:<22} {:>12} {:>12} {:>6.1}x {:>10.3} {:>10.3} {:>6.1}x",
            sf.display,
            naive_apps,
            shared_apps,
            naive_apps as f64 / shared_apps as f64,
            ms(naive_wall),
            ms(shared_wall),
            naive_wall.as_secs_f64() / shared_wall.as_secs_f64()
        );
    }
    println!("(the paper reports a 5–10x reduction)\n");
}

/// Times `pass`, repeating it until the repetitions add up to 50 ms, and
/// returns its result with the fastest wall time: one scheduling hiccup
/// on a sub-millisecond pass cannot flip a ratio, and a long pass runs
/// once.
fn min_wall(mut pass: impl FnMut() -> u64) -> (u64, Duration) {
    let (mut best, mut total) = (Duration::MAX, Duration::ZERO);
    loop {
        let t0 = Instant::now();
        let apps = pass();
        let wall = t0.elapsed();
        (best, total) = (best.min(wall), total + wall);
        if total >= Duration::from_millis(50) {
            return (apps, best);
        }
    }
}

/// One evaluation pass over a finished space: every node's attempts, as
/// the search makes them, with provably dormant phases skipped by the
/// same [`Facts`] prefilter. A candidate starts as a copy of its
/// materialized parent (prefix sharing) or, when `naive`, as a copy of
/// the root with the parent's discovery sequence replayed onto it; then
/// the phase is applied and an active result fingerprinted. Returns the
/// phase applications the strategy pays for: one per attempt when
/// sharing, one plus the parent's level when naive, counting prefiltered
/// attempts as if they ran.
fn evaluate(
    space: &SearchSpace,
    root: &Function,
    parents: &[Function],
    target: &Target,
    naive: bool,
) -> u64 {
    let mut buf = Function::default();
    let mut canon = Canonicalizer::new();
    let mut apps = 0;
    for ((id, _), parent) in space.iter().zip(parents) {
        let prefix = if naive { space.discovery_sequence(id) } else { Vec::new() };
        let facts = Facts::of(parent);
        for phase in PhaseId::ALL {
            apps += 1 + prefix.len() as u64;
            if !phase.can_be_active(&facts) {
                continue;
            }
            buf.copy_from(if naive { root } else { parent });
            for &p in &prefix {
                attempt(&mut buf, p, target);
            }
            if attempt(&mut buf, phase, target).active {
                std::hint::black_box(canon.fingerprint_into(&buf));
            }
        }
    }
    apps
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

/// The allocator and Figure 2 shortcut ablations (DESIGN §2) on the first
/// six suite functions of 20–60 instructions.
fn ablation() {
    println!("Ablation: register-allocator strictness and the Figure 2 shortcut");
    let robust = Target { regalloc_requires_direct: false, ..Target::default() };
    let skip = Config { skip_just_applied: true, ..Config::default() };
    // Leaf code-size spread, in percent of the smallest leaf.
    let spread = |e: &phase_order::Enumeration| {
        e.space.leaf_code_size_range().map_or(0.0, |(lo, hi)| (hi - lo) as f64 * 100.0 / lo as f64)
    };
    println!(
        "{:<22} {:>13} {:>9} {:>12} {:>10} {:>7}",
        "function", "direct-spread", "robust", "attempt-all", "skip-just", "saved"
    );
    let targets: Vec<_> = bench::suite_functions()
        .into_iter()
        .filter(|sf| (20..=60).contains(&sf.function.inst_count()))
        .take(6)
        .collect();
    let (mut direct_sum, mut robust_sum) = (0.0, 0.0);
    for sf in &targets {
        let direct = enumerate(&sf.function, &Target::default(), &Config::default());
        let (d, r) =
            (spread(&direct), spread(&enumerate(&sf.function, &robust, &Config::default())));
        (direct_sum, robust_sum) = (direct_sum + d, robust_sum + r);
        let all = direct.stats.attempted_phases;
        let skipped = enumerate(&sf.function, &Target::default(), &skip).stats.attempted_phases;
        println!(
            "{:<22} {:>12.1}% {:>8.1}% {:>12} {:>10} {:>6.1}%",
            sf.display,
            d,
            r,
            all,
            skipped,
            (all - skipped) as f64 * 100.0 / all as f64
        );
    }
    let n = targets.len() as f64;
    let (direct, robust) = (direct_sum / n, robust_sum / n);
    println!("leaf code-size spread: direct-only {direct:.1}% vs robust {robust:.1}%");
    println!();
}
