//! The CI bench-regression gate.
//!
//! Compares `BENCH_*.json` files produced by the figure targets against the
//! checked-in `bench/baseline.json` and exits non-zero when any gated metric
//! dropped more than the configured tolerance (default 20%) below its
//! baseline, or when a figure the baseline gates has no result file on the
//! command line.
//!
//! ```text
//! bench_gate --baseline bench/baseline.json BENCH_prefetch_overlap.json BENCH_fig_updates.json ...
//! ```
//!
//! The baseline lists, per figure, the metrics it gates and their expected
//! values; metrics a target emits but the baseline does not name are
//! reported informationally and never fail the gate. Gating is one-sided —
//! higher is better. Every gated metric is deterministic (virtual time,
//! parity flags, I/O ratios) except `calib_fit_score`, whose baseline is a
//! floor rather than a measurement.

use std::process::ExitCode;

use scanshare_bench::json::Json;

struct Args {
    baseline: String,
    tolerance_override: Option<f64>,
    bench_files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = String::from("bench/baseline.json");
    let mut tolerance_override = None;
    let mut bench_files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline = args.next().ok_or("--baseline needs a path")?;
            }
            "--tolerance" => {
                let raw = args.next().ok_or("--tolerance needs a fraction")?;
                tolerance_override = Some(
                    raw.parse::<f64>()
                        .map_err(|e| format!("bad tolerance: {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: bench_gate [--baseline <path>] [--tolerance <frac>] <BENCH_*.json>...\n\
                     (one file for every figure the baseline lists; a missing one fails the gate)"
                        .into(),
                );
            }
            other => bench_files.push(other.to_string()),
        }
    }
    if bench_files.is_empty() {
        return Err("no bench result files given".into());
    }
    Ok(Args {
        baseline,
        tolerance_override,
        bench_files,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline = load(&args.baseline)?;
    let tolerance = args.tolerance_override.unwrap_or_else(|| {
        baseline
            .get("tolerance")
            .and_then(Json::as_f64)
            .unwrap_or(0.2)
    });
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} must be in [0, 1)"));
    }
    let figures = baseline
        .get("figures")
        .ok_or("baseline has no \"figures\" object")?;

    let mut failures = 0usize;
    let mut checked = 0usize;
    let mut seen: Vec<String> = Vec::new();
    for path in &args.bench_files {
        let bench = load(path)?;
        let figure = bench
            .get("figure")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path} has no \"figure\" field"))?;
        let metrics = bench
            .get("metrics")
            .ok_or_else(|| format!("{path} has no \"metrics\" object"))?;
        let Some(gated) = figures.get(figure) else {
            println!("{figure}: no baseline entry, skipping ({path})");
            continue;
        };
        seen.push(figure.to_string());
        println!("{figure} ({path}), tolerance {:.0}%:", tolerance * 100.0);
        for (key, expected) in gated.entries() {
            let expected = expected
                .as_f64()
                .ok_or_else(|| format!("baseline {figure}.{key} is not a number"))?;
            checked += 1;
            match metrics.get(key).and_then(Json::as_f64) {
                None => {
                    failures += 1;
                    println!("  FAIL {key}: missing from the bench output");
                }
                Some(actual) => {
                    let floor = expected * (1.0 - tolerance);
                    if actual < floor {
                        failures += 1;
                        println!(
                            "  FAIL {key}: {actual:.3} < {floor:.3} \
                             (baseline {expected:.3} - {:.0}%)",
                            tolerance * 100.0
                        );
                    } else {
                        println!("  ok   {key}: {actual:.3} (baseline {expected:.3})");
                    }
                }
            }
        }
        // Ungated metrics are still worth a line in the CI log.
        for (key, value) in metrics.entries() {
            if gated.get(key).is_none() {
                if let Some(v) = value.as_f64() {
                    println!("  info {key}: {v:.3}");
                }
            }
        }
    }

    // A figure dropped from the command line must not drop its gates.
    for (figure, _) in figures.entries() {
        if !seen.iter().any(|s| s == figure) {
            failures += 1;
            println!("FAIL {figure}: no bench output given");
        }
    }

    println!("bench gate: {checked} metric(s) checked, {failures} failure(s)");
    Ok(failures == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_gate: {message}");
            ExitCode::FAILURE
        }
    }
}
