//! The repo benchmark: six named workloads, fourteen end-to-end metrics and
//! a per-layer ledger, all measured from outside the crates. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! scanshare-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! scanshare-benchmark run (--all | --workload <name>) [--seed <n>] [--runs <r>]
//!                         [--seconds <s>] [--trace] [--smoke] [--out <file>]
//! scanshare-benchmark compare <set-a.json> <set-b.json>
//! ```
//!
//! The first form is what the driver calls: it runs one workload in this
//! process and prints the result object as the last line of standard
//! output. `run` starts that form in a fresh child process per (workload,
//! seed) and collects a result set; `compare` judges two sets.

mod common;
mod compare;
mod json;
mod metrics;
mod micro;
mod mixed;
mod paper;
mod runner;
mod serve;
mod stats;
mod trace;
mod wrappers;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Env;
use json::Json;
use runner::RunPlan;

/// The driver's run length (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 18.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => single(&args),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage:\n  scanshare-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n  \
     scanshare-benchmark run (--all | --workload <name>) [--seed <n>] [--runs <r>] [--seconds <s>] \
     [--trace] [--smoke] [--out <file>]\n  scanshare-benchmark compare <set-a.json> <set-b.json>\n\
     workloads: micro_pbm micro_cscan paper_micro paper_tpch serve_closed mixed_durable"
        .into()
}

/// `--flag value` pairs and bare switches, in any order.
struct Flags<'a> {
    args: &'a [String],
}

impl Flags<'_> {
    fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.args.get(i + 1) {
                Some(value) => Ok(Some(value)),
                None => Err(format!("{flag} needs a value")),
            },
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {flag}")))
            .transpose()
    }

    fn switch(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

fn checked_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 60.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be in (0, 60], got {seconds}"))
    }
}

/// The driver's form: one workload, in this process.
fn single(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let workload = flags.value("--workload")?.ok_or_else(usage)?;
    if metrics::workload(workload).is_none() {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let seconds = checked_seconds(flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS))?;
    let trace = match flags.value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let env = Env::new(seed, seconds, trace, flags.switch("--smoke"));
    let result = runner::run_workload(&env, workload)?;
    result.print_table(workload, &env);
    println!("{}", json::line(&result.contract_json()));
    Ok(result.correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let workloads = match (flags.switch("--all"), flags.value("--workload")?) {
        (true, None) => runner::all_workloads(),
        (false, Some(name)) if metrics::workload(name).is_some() => vec![name.to_string()],
        (false, Some(name)) => return Err(format!("unknown workload {name:?}\n{}", usage())),
        _ => return Err(usage()),
    };
    let plan = RunPlan {
        workloads,
        first_seed: flags.parsed("--seed")?.unwrap_or(1),
        runs: flags.parsed("--runs")?.unwrap_or(1),
        seconds: checked_seconds(flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS))?,
        trace: flags.switch("--trace"),
        smoke: flags.switch("--smoke"),
        out: flags.value("--out")?.map(PathBuf::from),
    };
    let (_, all_correct) = runner::run_set(&plan)?;
    if !all_correct {
        eprintln!("at least one run failed a correctness check");
    }
    Ok(all_correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(usage()) };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let agree = compare::compare(&load(a)?, &load(b)?)?;
    println!(
        "{}",
        if agree {
            "every row ok: the two sets agree within the bounds"
        } else {
            "at least one row is regressed or unresolved"
        }
    );
    Ok(agree)
}
