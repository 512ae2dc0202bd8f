//! Shared flag parsing for the `vpoc` subcommands.
//!
//! Every subcommand strips its flags out of the argument list with these
//! helpers (so positionals can be read by index afterwards), and all of
//! them accept both the spaced (`--flag VALUE`) and the stuck
//! (`--flag=VALUE`) spelling.
//!
//! The `--jobs` convention is shared across subcommands: absent = serial,
//! `0` = one worker per CPU, `N` = `N` workers — [`resolve_jobs`] maps
//! that onto [`phase_order::Config::jobs`] (where `0` means serial).

use std::str::FromStr;

use phase_order::request::{ExploreRequest, MergeTier, Selector};
use phase_order::SemanticConfig;

/// Strips the first match of any alias in `names` (spaced or `=` form)
/// out of `args`, returning its raw value.
fn take_raw(args: &mut Vec<String>, names: &[&str]) -> Result<Option<String>, String> {
    let mut value = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = std::mem::take(args).into_iter();
    while let Some(a) = it.next() {
        if names.contains(&a.as_str()) {
            value = Some(it.next().ok_or(format!("{} needs a value", names[0]))?);
        } else if let Some(v) =
            names.iter().find_map(|n| a.strip_prefix(n).and_then(|t| t.strip_prefix('=')))
        {
            value = Some(v.to_owned());
        } else {
            rest.push(a);
        }
    }
    *args = rest;
    Ok(value)
}

/// Extracts `--flag VALUE` / `--flag=VALUE`, parsed as `T`.
pub fn value<T: FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    match take_raw(args, &[flag])? {
        Some(v) => Ok(Some(v.parse().map_err(|_| format!("bad {flag} value `{v}`"))?)),
        None => Ok(None),
    }
}

/// Extracts a string-valued flag (`--flag NAME` / `--flag=NAME`).
pub fn string(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    take_raw(args, &[flag])
}

/// Extracts a boolean switch (`--flag`), returning whether it was present.
pub fn switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Extracts `--jobs N` / `-j N` / `--jobs=N`: `None` = serial,
/// `Some(0)` = one worker per CPU, `Some(n)` = `n` workers.
pub fn jobs(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    match take_raw(args, &["--jobs", "-j"])? {
        Some(v) => Ok(Some(v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?)),
        None => Ok(None),
    }
}

/// Maps the CLI `--jobs` convention onto [`phase_order::Config::jobs`]
/// (`0` = one worker per CPU, `N` = `N` workers; absent = serial).
pub fn resolve_jobs(jobs: Option<usize>) -> usize {
    match jobs {
        None => 0,
        Some(0) => phase_order::jobs_per_cpu(),
        Some(n) => n,
    }
}

/// Parses the unified exploration request shared by every exploring
/// subcommand (`explore`, `verify`, `campaign`, `dot`, `audit-quotient`,
/// `serve`).
///
/// Consumes the remaining argument list entirely: the shared flags
/// (`--jobs/-j`, `--max-nodes`, `--merge-tier`, `--paranoid`,
/// `--battery`, `--seed`, `--budget`, `--shards`, `--bench`,
/// `--all-benches`), then
/// the selector and optional `[function]` positionals. Command-specific
/// flags must be stripped *before* calling this — anything left over is
/// rejected as an unknown flag, and extra positionals are errors too.
pub fn explore_request(args: &mut Vec<String>, cmd: &str) -> Result<ExploreRequest, String> {
    let jobs = jobs(args)?;
    let max_nodes = value::<usize>(args, "--max-nodes")?;
    let battery = value::<usize>(args, "--battery")?;
    let seed = value::<u64>(args, "--seed")?;
    let budget = value::<u64>(args, "--budget")?;
    let shards = value::<usize>(args, "--shards")?;
    let bench = string(args, "--bench")?;
    let all_benches = switch(args, "--all-benches");
    let tier = match string(args, "--merge-tier")?.as_deref() {
        None => MergeTier::default(),
        Some(t) => MergeTier::parse(t).map_err(|e| format!("--merge-tier: {e}"))?,
    };
    let paranoid = switch(args, "--paranoid");
    reject_unknown_flags(args, cmd)?;

    let (selector, function, used) = if all_benches {
        if bench.is_some() {
            return Err(format!("{cmd}: --all-benches conflicts with --bench"));
        }
        (Selector::AllBenches, args.first().cloned(), 1)
    } else if let Some(name) = bench {
        (Selector::Bench(name), args.first().cloned(), 1)
    } else {
        let path =
            args.first().ok_or(format!("{cmd}: missing file (or --bench NAME/--all-benches)"))?;
        (Selector::File(path.into()), args.get(1).cloned(), 2)
    };
    if args.len() > used {
        return Err(format!("{cmd}: unexpected argument `{}`", args[used]));
    }

    let mut request = ExploreRequest::new(selector);
    request.function = function;
    request.config.jobs = resolve_jobs(jobs);
    if let Some(n) = max_nodes {
        request.config.max_nodes = n;
    }
    request.config.paranoid = paranoid;
    request.tier = tier;
    let sem = SemanticConfig::default();
    request.semantic = SemanticConfig {
        battery: battery.unwrap_or(sem.battery),
        seed: seed.unwrap_or(sem.seed),
        ..sem
    };
    request.budget = budget;
    if let Some(s) = shards {
        request.shards = s;
    }
    request.validate().map_err(|e| format!("{cmd}: {e}"))?;
    Ok(request)
}

/// Rejects leftover `--flags` after a subcommand extracted everything it
/// understands, so typos fail loudly instead of parsing as positionals.
pub fn reject_unknown_flags(args: &[String], cmd: &str) -> Result<(), String> {
    for a in args {
        if a.starts_with("--") || (a.starts_with('-') && a.len() > 1) {
            return Err(format!("{cmd}: unknown flag `{a}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn value_takes_spaced_and_stuck_forms() {
        let mut a = v(&["a.mc", "--max-nodes", "99", "f"]);
        assert_eq!(value::<usize>(&mut a, "--max-nodes").unwrap(), Some(99));
        assert_eq!(a, v(&["a.mc", "f"]));
        let mut a = v(&["--max-nodes=4000000"]);
        assert_eq!(value::<usize>(&mut a, "--max-nodes").unwrap(), Some(4_000_000));
        assert!(a.is_empty());
        assert!(value::<usize>(&mut v(&["--max-nodes"]), "--max-nodes").is_err());
        assert!(value::<usize>(&mut v(&["--max-nodes=x"]), "--max-nodes").is_err());
    }

    #[test]
    fn battery_and_seed_parse_via_value() {
        let mut a = v(&["--battery", "8", "--seed=7"]);
        assert_eq!(value::<usize>(&mut a, "--battery").unwrap(), Some(8));
        assert_eq!(value::<u64>(&mut a, "--seed").unwrap(), Some(7));
        assert!(a.is_empty());
        assert!(value::<u64>(&mut v(&["--seed=pi"]), "--seed").is_err());
    }

    #[test]
    fn string_takes_bench_names() {
        let mut a = v(&["--bench", "sha", "sha_update"]);
        assert_eq!(string(&mut a, "--bench").unwrap(), Some("sha".into()));
        assert_eq!(a, v(&["sha_update"]));
        let mut a = v(&["--bench=fft"]);
        assert_eq!(string(&mut a, "--bench").unwrap(), Some("fft".into()));
        assert!(string(&mut v(&["--bench"]), "--bench").is_err());
    }

    #[test]
    fn switch_detects_presence() {
        let mut a = v(&["x", "--resume", "y"]);
        assert!(switch(&mut a, "--resume"));
        assert_eq!(a, v(&["x", "y"]));
        assert!(!switch(&mut a, "--resume"));
    }

    #[test]
    fn jobs_accepts_all_spellings() {
        let mut a = v(&["a.mc", "--jobs", "4"]);
        assert_eq!(jobs(&mut a).unwrap(), Some(4));
        assert_eq!(a, v(&["a.mc"]));
        assert_eq!(jobs(&mut v(&["-j", "2"])).unwrap(), Some(2));
        assert_eq!(jobs(&mut v(&["--jobs=0"])).unwrap(), Some(0));
        assert_eq!(jobs(&mut v(&["a.mc"])).unwrap(), None);
        assert!(jobs(&mut v(&["--jobs"])).is_err());
        assert!(jobs(&mut v(&["--jobs", "x"])).is_err());
    }

    #[test]
    fn resolve_jobs_maps_the_cli_convention() {
        assert_eq!(resolve_jobs(None), 0);
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(Some(0)) >= 1, "0 means one worker per CPU");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(reject_unknown_flags(&v(&["a.mc", "f"]), "explore").is_ok());
        assert!(reject_unknown_flags(&v(&["--bogus"]), "explore").is_err());
        assert!(reject_unknown_flags(&v(&["-x"]), "explore").is_err());
    }
}
