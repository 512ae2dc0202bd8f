//! Regenerates **Tables 4, 5 and 6** of the paper: the enabling,
//! disabling, and independence probabilities between optimization phases,
//! mined from the exhaustively enumerated spaces of the whole suite.
//!
//! ```text
//! cargo run --release -p bench --bin tables456 [-- enable|disable|independence] [--jobs N]
//! ```
//!
//! With no selector, all three tables print. The suite runs on one
//! campaign pool of `--jobs` workers (default: one per CPU).

use vpo_opt::PhaseId;

fn main() {
    let args = bench::Args::from_env("tables456", &["enable", "disable", "independence"]);
    eprintln!("enumerating the suite (this mines every completed space)...");
    let ia = bench::suite_interaction(&bench::harness_config(args.jobs));
    eprintln!("accumulated {} functions", ia.function_count());

    let all = args.selector.is_none();
    let which = args.selector.unwrap_or_default();
    if all || which == "enable" {
        print_enabling(&ia);
    }
    if all || which == "disable" {
        print_disabling(&ia);
    }
    if all || which == "independence" {
        print_independence(&ia);
    }
}

fn header() -> String {
    let mut h = format!("{:>5} |", "Phase");
    h.push_str(&format!(" {:>4}", "St"));
    for x in PhaseId::ALL {
        h.push_str(&format!(" {:>4}", x.letter()));
    }
    h
}

fn print_enabling(ia: &phase_order::interaction::InteractionAnalysis) {
    println!("\nTable 4: Enabling Interaction between Optimization Phases");
    println!("(row y, column x: probability that x enables y; St = active at start;");
    println!(" blank: probability under 0.005 or never observed)");
    println!("{}", header());
    for y in PhaseId::ALL {
        let mut line = format!("{:>5} |", y.letter());
        line.push_str(&format!(" {:>4}", bench::fmt_prob(ia.start_probability(y), 0.005)));
        for x in PhaseId::ALL {
            let p = if x == y { None } else { ia.enabling_probability(y, x) };
            line.push_str(&format!(" {:>4}", bench::fmt_prob(p, 0.005)));
        }
        println!("{line}");
    }
}

fn print_disabling(ia: &phase_order::interaction::InteractionAnalysis) {
    println!("\nTable 5: Disabling Interaction between Optimization Phases");
    println!("(row y, column x: probability that x disables y; blank under 0.005)");
    println!("{}", header().replacen(" St  ", "", 1));
    for y in PhaseId::ALL {
        let mut line = format!("{:>5} |", y.letter());
        for x in PhaseId::ALL {
            line.push_str(&format!(
                " {:>4}",
                bench::fmt_prob(ia.disabling_probability(y, x), 0.005)
            ));
        }
        println!("{line}");
    }
}

fn print_independence(ia: &phase_order::interaction::InteractionAnalysis) {
    println!("\nTable 6: Independence Relationship between Optimization Phases");
    println!("(row p, column q: probability the pair commutes when consecutively");
    println!(" active; blank: independence above 0.995 or never observed together)");
    println!("{}", header().replacen(" St  ", "", 1));
    for p in PhaseId::ALL {
        let mut line = format!("{:>5} |", p.letter());
        for q in PhaseId::ALL {
            // The paper blanks *high* independence (> 0.995) to highlight
            // the interacting pairs.
            let v = ia.independence_probability(p, q);
            let s = match v {
                Some(x) if x <= 0.995 => format!("{x:.2}"),
                _ => "    ".to_owned(),
            };
            line.push_str(&format!(" {s:>4}"));
        }
        println!("{line}");
    }
}
