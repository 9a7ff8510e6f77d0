//! The repository's benchmark: four long-run workloads driven through
//! the product's public functions only, one OS process per workload.
//! `README.md` beside this crate has the catalogue and how to run it.

mod affinity;
mod inputs;
mod probes;
mod report;
mod stages;
mod stats;
mod trace;
mod watchdog;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  benchmark run   --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--quick]
  benchmark run   --all             [the same options]   one child process per workload
  benchmark trace --workload <name> | --all              shorthand for run --trace 1
  benchmark compare A.jsonl B.jsonl                      two results files written with --out
  benchmark spread  A.jsonl                              run-to-run spread of one results file
workloads: cold-tune warm-serve churn-serve conv-exec
defaults:  --seed 7 --seconds 20 --trace 0; --quick is --seconds 2 (1 + 2 short rounds, one set-up)";

struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut run = RunArgs { workload: None, all: false, seed: 7, seconds: 20.0, trace, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = Some(value()?.clone()),
            "--all" => run.all = true,
            "--quick" => run.seconds = 2.0,
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = value()?.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0
            }
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !(run.seconds >= 1.0 && run.seconds <= 60.0) {
        return Err(format!("--seconds must be within 1..=60, got {}", run.seconds));
    }
    if run.all == run.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(run)
}

/// Where traces, results of `--all` and scratch directories go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    // End-to-end runs are serial and on one CPU: the shim pool's single
    // worker on a 2-core host flips the same code between two speeds, and
    // hand-overs between vCPUs take as long as the host pleases (README).
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = affinity::pin_to_one_cpu();
    println!(
        "# host CPUs {host_cpus}, {}",
        pinned
            .map_or("NOT pinned (the kernel refused)".into(), |cpu| format!("pinned to CPU {cpu}"))
    );
    watchdog::arm(format!("workload {name}"), watchdog::limit(args.seconds));
    let result = workloads::run(workload, args.seed, args.seconds, args.trace, &out_dir());
    result.print_table();
    if let Some(path) = &args.out {
        result.append_to(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.contract_line());
    Ok(result.correct())
}

/// One child process per workload, so no workload inherits another's
/// heap, pool threads or page cache state.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in workloads::WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["run", "--workload", w.name]);
        child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        let status = child.status().map_err(|e| format!("cannot start {}: {e}", w.name))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or("no command")?;
    match command.as_str() {
        "run" | "trace" => {
            let run = parse_run(rest, command == "trace")?;
            match &run.workload {
                Some(name) => run_one(name, &run),
                None => run_all(&run),
            }
        }
        "compare" => match rest {
            [a, b] => report::compare(Path::new(a), Path::new(b)).map(|any_worse| !any_worse),
            _ => Err("compare takes two results files".into()),
        },
        "spread" => match rest {
            [a] => report::spread(Path::new(a)),
            _ => Err("spread takes one results file".into()),
        },
        "threads-probe" => {
            probes::threads_child();
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let run = parse_run(
            &args(&["--workload", "warm-serve", "--seed", "11", "--seconds", "20", "--trace", "1"]),
            false,
        )
        .unwrap();
        assert_eq!(run.workload.as_deref(), Some("warm-serve"));
        assert_eq!((run.seed, run.seconds, run.trace, run.all), (11, 20.0, true, false));
    }

    #[test]
    fn quick_and_defaults() {
        let run = parse_run(&args(&["--all", "--quick"]), false).unwrap();
        assert_eq!((run.seed, run.seconds, run.trace, run.all), (7, 2.0, false, true));
        assert!(parse_run(&args(&["--all"]), true).unwrap().trace, "`trace` implies --trace 1");
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_run(&args(&[]), false).is_err(), "neither --workload nor --all");
        assert!(parse_run(&args(&["--all", "--workload", "x"]), false).is_err());
        assert!(parse_run(&args(&["--all", "--seconds", "0"]), false).is_err());
        assert!(parse_run(&args(&["--all", "--seconds", "61"]), false).is_err());
        assert!(parse_run(&args(&["--all", "--seed"]), false).is_err());
        assert!(parse_run(&args(&["--all", "--frobnicate"]), false).is_err());
    }
}
