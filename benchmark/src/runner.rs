//! Running workloads: one workload in this process (what the driver calls),
//! or every workload in fresh child processes collected into a result set.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use scanshare_common::PolicyKind;

use crate::common::{peak_rss_mb, Env, Outcome};
use crate::json::{self, Json};
use crate::metrics::{self, END_TO_END, NOT_APPLICABLE, PER_LAYER, WORKLOADS};
use crate::paper::Point;
use crate::{micro, mixed, paper, serve};

/// One finished run: the contract's result object plus what it was run on.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every declared metric of the run's mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<(&'static str, f64)>,
}

/// Runs `workload` in this process.
pub fn run_workload(env: &Env, workload: &str) -> Result<RunResult, String> {
    let mut outcome: Outcome = match workload {
        "micro_pbm" => micro::run(env, PolicyKind::Pbm),
        "micro_cscan" => micro::run(env, PolicyKind::CScan),
        "paper_micro" => paper::run(env, Point::Micro),
        "paper_tpch" => paper::run(env, Point::Tpch),
        "serve_closed" => serve::run(env),
        "mixed_durable" => mixed::run(env),
        other => return Err(format!("unknown workload {other:?}")),
    };
    if env.trace {
        let path = env
            .out_dir()
            .join(format!("spans-{workload}-seed{}.jsonl", env.seed));
        std::fs::create_dir_all(env.out_dir())
            .and_then(|()| env.recorder.write_jsonl(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.set("check.failed_frac", failed_frac);
    } else {
        outcome.set("peak_rss_mb", peak_rss_mb());
    }

    // Every declared metric of the mode is printed: an end-to-end metric the
    // workload does not exercise reads NOT_APPLICABLE, a layer it does not
    // exercise reads 0.
    let mut metrics = Vec::new();
    if env.trace {
        for m in &PER_LAYER {
            let value = outcome.values.remove(m.name).unwrap_or(0.0);
            metrics.push((m.name, value, m.unit));
        }
    } else {
        for m in &END_TO_END {
            let value = match outcome.values.remove(m.name) {
                Some(value) => value,
                None if metrics::applies(m.name, workload) => {
                    return Err(format!("{workload} did not measure {}", m.name));
                }
                None => NOT_APPLICABLE,
            };
            metrics.push((m.name, value, m.unit));
        }
    }
    if let Some(stray) = outcome.values.keys().next() {
        return Err(format!("{workload} measured undeclared metric {stray}"));
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let nonzero = env.trace || metrics.iter().all(|(_, v, _)| *v != 0.0);
    Ok(RunResult {
        correct: outcome.failed == 0 && outcome.attempted > 0 && finite && nonzero,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        notes: outcome.notes.into_iter().collect(),
    })
}

impl RunResult {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::from(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with unit, direction and bound (end-to-end) or
    /// the end-to-end metric it should move (per-layer), one per line.
    pub fn print_table(&self, workload: &str, env: &Env) {
        println!(
            "# {workload} seed={} seconds={} trace={} nproc={} W={}",
            env.seed,
            env.seconds,
            u8::from(env.trace),
            env.nproc,
            env.workers
        );
        if let Some(w) = metrics::workload(workload) {
            println!("#   why: {}", w.why);
        }
        for (name, value) in &self.notes {
            println!("#   {name} = {value}");
        }
        for (name, value, unit) in &self.metrics {
            let (better, rest) = match END_TO_END.iter().find(|m| m.name == *name) {
                Some(m) => (m.better, format!("bound={}", m.bound)),
                None => {
                    let layer = PER_LAYER.iter().find(|m| m.name == *name);
                    let layer = layer.expect("declared metric");
                    (layer.better, format!("moves: {}", layer.moves))
                }
            };
            println!(
                "{name:<36} {value:>18.6} {unit:<7} better={:<6} {rest}",
                better.name()
            );
        }
        println!(
            "# attempted={} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
    }
}

/// What `run` was asked to do.
pub struct RunPlan {
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    pub first_seed: u64,
    /// Runs per workload; run `i` uses seed `first_seed + i`.
    pub runs: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// Runs every planned (workload, seed) in a fresh child process of this
/// executable, prints each table, and returns the result set.
pub fn run_set(plan: &RunPlan) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in &plan.workloads {
        for run in 0..plan.runs {
            let seed = plan.first_seed + run;
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &plan.seconds.to_string()])
                .args(["--trace", if plan.trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if plan.smoke {
                command.arg("--smoke");
            }
            // `output` waits for the child, so none outlives this call.
            let output = command
                .output()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{table}");
            let result = Json::parse(last)
                .map_err(|e| format!("{workload} seed {seed} printed no result ({e})"))?;
            let correct = result.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct && output.status.success();
            results.push(json::obj([
                ("workload", Json::from(workload.as_str())),
                ("seed", Json::Num(seed as f64)),
                ("result", result),
            ]));
        }
    }
    let env = Env::new(plan.first_seed, plan.seconds, plan.trace, plan.smoke);
    let set = json::obj([
        (
            "meta",
            json::obj([
                ("git_head", Json::from(git_head())),
                ("first_seed", Json::Num(plan.first_seed as f64)),
                ("runs_per_workload", Json::Num(plan.runs as f64)),
                ("seconds", Json::Num(plan.seconds)),
                ("trace", Json::Bool(plan.trace)),
                ("smoke", Json::Bool(plan.smoke)),
                ("nproc", Json::Num(env.nproc as f64)),
                ("W", Json::Num(env.workers as f64)),
                ("connections", Json::Num(env.connections as f64)),
                ("page_bytes", Json::Num(crate::common::PAGE as f64)),
                ("chunk_tuples", Json::Num(crate::common::CHUNK as f64)),
                ("lineitem_tuples", lineitem_tuples(&env)),
                // The benchmark is the ruler, not a result: it claims no gain.
                ("claim", Json::Null),
            ]),
        ),
        ("runs", Json::Arr(results)),
    ]);
    if let Some(path) = &plan.out {
        write_set(path, &set)?;
    }
    Ok((set, all_correct))
}

/// The `lineitem` size of every workload, as run.
fn lineitem_tuples(env: &Env) -> Json {
    json::obj(WORKLOADS.iter().map(|w| {
        let full = match w.name {
            "paper_micro" => Point::Micro.lineitem_tuples(),
            "paper_tpch" => Point::Tpch.lineitem_tuples(),
            "serve_closed" => serve::LINEITEM_TUPLES,
            "mixed_durable" => mixed::LINEITEM_TUPLES,
            _ => micro::LINEITEM_TUPLES,
        };
        (w.name, Json::Num(env.scaled(full) as f64))
    }))
}

fn write_set(path: &Path, set: &Json) -> Result<(), String> {
    // One run per line keeps the file diffable.
    let mut text = String::from("{\"meta\": ");
    text.push_str(&json::line(set.get("meta").expect("meta")));
    text.push_str(", \"runs\": [\n");
    let runs = set.get("runs").and_then(json::items).expect("runs");
    for (i, run) in runs.iter().enumerate() {
        text.push_str("  ");
        text.push_str(&json::line(run));
        text.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    text.push_str("]}\n");
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `git rev-parse HEAD` of the benchmark's checkout, or "unknown" (the
/// driver's checkouts are not git repositories).
fn git_head() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn all_workloads() -> Vec<String> {
    WORKLOADS.iter().map(|w| w.name.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` preset: every workload, both modes, 1/50 sizes. The set
    /// of emitted names must equal the set `BENCHMARK.json` declares (the
    /// metrics self-test ties the declarations to that file).
    #[test]
    fn smoke_preset_emits_exactly_the_declared_names() {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let env = Env::new(7, 0.05, trace, true);
                let result = run_workload(&env, workload.name)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
                let emitted: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
                let declared: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(emitted, declared, "{} trace={trace}", workload.name);
                assert!(
                    result.correct && result.failed == 0 && result.attempted > 0,
                    "{} trace={trace}: {} of {} failed",
                    workload.name,
                    result.failed,
                    result.attempted
                );
                let line = json::line(&result.contract_json());
                let parsed = Json::parse(&line).unwrap();
                let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
        assert!(run_workload(&Env::new(1, 0.1, false, true), "nope").is_err());
    }
}
