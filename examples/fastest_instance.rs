//! The paper's "eventual goal" (Section 7): find the function instance
//! with near-optimal *execution* performance — made affordable by the
//! control-flow inference trick, which needs only one simulator run per
//! distinct control flow instead of one per instance.
//!
//! ```text
//! cargo run --release --example fastest_instance
//! ```

use exhaustive_phase_order as epo;

use epo::cf_infer::leaf_dynamic_counts;
use epo::explore::enumerate::{enumerate, rematerialize, Config};
use epo::opt::batch::batch_compile;
use epo::opt::Target;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        int weighted_sum(int n) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) {
                if (i & 1) s += i * 3;
                else s += i;
            }
            return s;
        }
    "#;
    let args = [64];
    println!("source:{source}");

    let program = epo::frontend::compile(source)?;
    let f = &program.functions[0];
    let target = Target::default();

    // 1. Exhaustively enumerate the space.
    let e = enumerate(f, &target, &Config::default());
    println!(
        "space: {} instances, {} leaves, {} distinct control flows",
        e.space.len(),
        e.space.leaf_count(),
        e.space.distinct_control_flows()
    );

    // 2. Dynamic count of EVERY leaf, executing once per control flow.
    let inf = leaf_dynamic_counts(&program, f, &e, &args, &target)?;
    println!(
        "simulated {} of {} leaves; the rest inferred from control-flow twins",
        inf.executions,
        inf.leaves.len()
    );
    let fastest = inf.fastest().unwrap();
    let slowest = inf.slowest().unwrap();
    println!(
        "fastest leaf: {} dynamic instructions ({} static) {}",
        fastest.dynamic,
        fastest.static_size,
        if fastest.measured { "[measured]" } else { "[inferred]" }
    );
    println!(
        "slowest leaf: {} dynamic instructions ({} static)",
        slowest.dynamic, slowest.static_size
    );

    // 3. Where does the conventional batch compiler land?
    let mut batch = f.clone();
    batch_compile(&mut batch, &target);
    let mut m = epo::sim::Machine::new(&program);
    let (batch_result, counts) = m.call_instance_counted(&batch, &args)?;
    let batch_dynamic: u64 =
        batch.blocks.iter().zip(&counts).map(|(b, &n)| b.insts.len() as u64 * n).sum();
    println!(
        "batch compiler: {batch_dynamic} dynamic instructions ({} static)",
        batch.inst_count()
    );
    println!(
        "batch is within {:.1}% of the true optimum",
        (batch_dynamic as f64 / fastest.dynamic as f64 - 1.0) * 100.0
    );

    // 4. Materialize the optimum and double-check semantics.
    let best = rematerialize(f, &target, &e.space, fastest.node);
    let mut m2 = epo::sim::Machine::new(&program);
    assert_eq!(m2.call_instance(&best, &args)?, batch_result);
    println!("\noptimal instance:\n{best}");
    Ok(())
}
