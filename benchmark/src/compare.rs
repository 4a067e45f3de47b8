//! `compare <set-a> <set-b>`: one row per workload x end-to-end metric with
//! both medians and quartiles, the bound, and a verdict, plus one `failed`
//! row per workload. This is what "two sets of runs agree" is checked with,
//! and what a later change quotes (A = parent, B = change).

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::{self, Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats;

/// The `meta` entries two sets must share to be comparable: a smoke set
/// against a full one, or 8-second runs against 15-second ones, measure
/// different things.
const SAME_META: [&str; 9] = [
    "seconds",
    "trace",
    "smoke",
    "nproc",
    "W",
    "connections",
    "page_bytes",
    "chunk_tuples",
    "lineitem_tuples",
];

/// The verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// decide nothing (unless every run of B beats every run of A).
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn worse(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => b > a,
        Better::Higher => b < a,
    }
}

/// Judges one row of a measured metric from the two sides' samples.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = match metric.better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    if spread > metric.bound {
        let b_always_better = a
            .iter()
            .all(|x| b.iter().all(|y| worse(metric.better, *y, *x)));
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Judges a row of a metric that is exact for a seed (the `model_*`
/// numbers): runs are paired by seed and B may not be worse on any seed,
/// by any amount. `None` when the sets share no seed.
pub fn judge_exact(
    better: Better,
    a: &BTreeMap<u64, f64>,
    b: &BTreeMap<u64, f64>,
) -> Option<(Verdict, usize, usize)> {
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(seed, va)| b.get(seed).map(|vb| (*va, *vb)))
        .collect();
    if pairs.is_empty() {
        return None;
    }
    let differing = pairs.iter().filter(|(va, vb)| va != vb).count();
    let verdict = if pairs.iter().any(|(va, vb)| worse(better, *va, *vb)) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some((verdict, pairs.len(), differing))
}

/// The runs of one workload in one set.
#[derive(Debug, Default)]
struct Runs {
    attempted: f64,
    failed: f64,
    /// Runs whose result says `correct: false`.
    incorrect: usize,
    /// `values[metric][seed]`.
    values: BTreeMap<String, BTreeMap<u64, f64>>,
}

impl Runs {
    fn samples(&self, metric: &str) -> Vec<f64> {
        self.values
            .get(metric)
            .map(|by_seed| by_seed.values().copied().collect())
            .unwrap_or_default()
    }

    fn failed_frac(&self) -> f64 {
        if self.attempted == 0.0 {
            1.0
        } else {
            self.failed / self.attempted
        }
    }
}

/// The runs of a result set, per workload.
fn runs_of(set: &Json) -> Result<BTreeMap<String, Runs>, String> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    let runs = set
        .get("runs")
        .and_then(json::items)
        .ok_or("result set has no \"runs\" array")?;
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let seed = run
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: run without a seed"))? as u64;
        let result = run
            .get("result")
            .ok_or_else(|| format!("{workload}: run without a result"))?;
        let number = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: result without {key}"))
        };
        let entry = out.entry(workload.to_string()).or_default();
        entry.attempted += number("attempted")?;
        entry.failed += number("failed")?;
        entry.incorrect += usize::from(result.get("correct") != Some(&Json::Bool(true)));
        let metrics = result
            .get("metrics")
            .map(Json::entries)
            .ok_or_else(|| format!("{workload} seed {seed}: result without metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}.{name} has no value"))?;
            entry
                .values
                .entry(name.clone())
                .or_default()
                .insert(seed, value);
        }
    }
    Ok(out)
}

/// Refuses sets measured under different settings.
fn same_settings(set_a: &Json, set_b: &Json) -> Result<(), String> {
    for key in SAME_META {
        let of = |set: &Json| set.get("meta").and_then(|m| m.get(key)).cloned();
        let (a, b) = (of(set_a), of(set_b));
        if a.is_none() || a != b {
            let show = |v: Option<Json>| v.map_or("nothing".to_string(), |v| json::line(&v));
            return Err(format!(
                "the sets are not comparable: meta.{key} is {} in A and {} in B",
                show(a),
                show(b)
            ));
        }
    }
    Ok(())
}

/// Prints the comparison; returns whether every row is `ok`.
pub fn compare(set_a: &Json, set_b: &Json) -> Result<bool, String> {
    same_settings(set_a, set_b)?;
    let (a, b) = (runs_of(set_a)?, runs_of(set_b)?);
    println!(
        "{:<14} {:<26} {:>13} {:>22} {:>13} {:>22} {:>10}  verdict",
        "workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "bound"
    );
    let quartiles = |v: &[f64]| {
        stats::quartiles(v).map_or("-".to_string(), |(q1, q3)| format!("{q1:.4e}..{q3:.4e}"))
    };
    let mut agree = true;
    for workload in &WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(workload.name), b.get(workload.name)) else {
            continue;
        };
        // Failures first: a broken run can look faster. No run of either
        // set may be incorrect, and B may not fail a larger share than A.
        let failed_verdict =
            if ra.incorrect + rb.incorrect > 0 || rb.failed_frac() > ra.failed_frac() {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
        agree &= failed_verdict == Verdict::Ok;
        println!(
            "{:<14} {:<26} {:>13.5e} {:>22} {:>13.5e} {:>22} {:>10}  {}",
            workload.name,
            "failed (share, bad runs)",
            ra.failed_frac(),
            ra.incorrect,
            rb.failed_frac(),
            rb.incorrect,
            0,
            failed_verdict.name()
        );
        for metric in &END_TO_END {
            if !metrics::applies(metric.name, workload.name) {
                continue;
            }
            let (va, vb) = (ra.samples(metric.name), rb.samples(metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let paired = if metrics::exact_per_seed(metric.name) {
                judge_exact(
                    metric.better,
                    &ra.values[metric.name],
                    &rb.values[metric.name],
                )
            } else {
                None
            };
            let (verdict, bound) = match paired {
                Some((verdict, pairs, differing)) => (verdict, format!("0 ({differing}/{pairs})")),
                None => (judge(metric, &va, &vb), metric.bound.to_string()),
            };
            agree &= verdict == Verdict::Ok;
            println!(
                "{:<14} {:<26} {:>13.5e} {:>22} {:>13.5e} {:>22} {:>10}  {}",
                workload.name,
                metric.name,
                stats::median(&va),
                quartiles(&va),
                stats::median(&vb),
                quartiles(&vb),
                bound,
                verdict.name()
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "1/s",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let higher = metric(Better::Higher, 0.08);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&higher, &steady, &steady), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge(&higher, &steady, &slower), Verdict::Regressed);
        let slightly: Vec<f64> = steady.iter().map(|v| v * 0.95).collect();
        assert_eq!(judge(&higher, &steady, &slightly), Verdict::Ok);
        // Direction matters: for a lower-is-better metric the same move
        // is an improvement.
        let lower = metric(Better::Lower, 0.08);
        assert_eq!(judge(&lower, &steady, &slower), Verdict::Ok);
        let larger: Vec<f64> = steady.iter().map(|v| v * 1.1).collect();
        assert_eq!(judge(&lower, &steady, &larger), Verdict::Regressed);

        // A spread wider than the bound resolves nothing ...
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&higher, &noisy, &steady), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let far: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(judge(&higher, &noisy, &far), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_are_paired_by_seed_with_bound_zero() {
        let by_seed = |values: &[(u64, f64)]| values.iter().copied().collect::<BTreeMap<_, _>>();
        let a = by_seed(&[(1, 100.0), (2, 200.0), (3, 300.0)]);
        assert_eq!(
            judge_exact(Better::Lower, &a, &a),
            Some((Verdict::Ok, 3, 0))
        );
        // One seed worse by 0.5%: far inside any timing bound, still a
        // regression of an exact number.
        let b = by_seed(&[(1, 100.0), (2, 201.0), (3, 300.0)]);
        assert_eq!(
            judge_exact(Better::Lower, &a, &b),
            Some((Verdict::Regressed, 3, 1))
        );
        assert_eq!(
            judge_exact(Better::Higher, &a, &b),
            Some((Verdict::Ok, 3, 1))
        );
        // Only common seeds pair up; none in common decides nothing.
        let other = by_seed(&[(3, 299.0), (4, 1.0)]);
        assert_eq!(
            judge_exact(Better::Lower, &a, &other),
            Some((Verdict::Ok, 1, 1))
        );
        assert_eq!(judge_exact(Better::Lower, &a, &by_seed(&[(9, 1.0)])), None);
    }

    const META: &str = r#"{"seconds": 15, "trace": false, "smoke": false, "nproc": 2, "W": 2,
        "connections": 2, "page_bytes": 65536, "chunk_tuples": 10000,
        "lineitem_tuples": {"micro_pbm": 300000}}"#;

    fn set(meta: &str, runs: &[(u64, bool, u64, f64)]) -> Json {
        let runs: Vec<String> = runs
            .iter()
            .map(|(seed, correct, failed, tuples)| {
                format!(
                    r#"{{"workload": "micro_pbm", "seed": {seed}, "result": {{"correct": {correct},
                    "attempted": 128, "failed": {failed},
                    "metrics": {{"tuples_per_s": {{"value": {tuples}, "unit": "1/s"}}}}}}}}"#
                )
            })
            .collect();
        Json::parse(&format!(
            r#"{{"meta": {meta}, "runs": [{}]}}"#,
            runs.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn sets_are_read_per_workload_metric_and_seed() {
        let steady = set(META, &[(1, true, 0, 100.0), (2, true, 0, 101.0)]);
        let runs = runs_of(&steady).unwrap();
        assert_eq!(
            runs["micro_pbm"].samples("tuples_per_s"),
            vec![100.0, 101.0]
        );
        assert_eq!(runs["micro_pbm"].attempted, 256.0);
        assert!(runs_of(&Json::Null).is_err());
        assert_eq!(compare(&steady, &steady), Ok(true));
        let noisy = set(META, &[(1, true, 0, 5.0), (2, true, 0, 7.0)]);
        assert_eq!(
            compare(&noisy, &noisy),
            Ok(false),
            "a 33% spread is unresolved"
        );
    }

    #[test]
    fn failed_checks_regress_a_workload_however_fast_it_ran() {
        let good = set(META, &[(1, true, 0, 100.0), (2, true, 0, 101.0)]);
        // Twice as fast, but one run failed a check.
        let broken = set(META, &[(1, true, 0, 200.0), (2, false, 3, 202.0)]);
        assert_eq!(compare(&good, &broken), Ok(false));
        assert_eq!(compare(&broken, &good), Ok(false));
        assert_eq!(compare(&good, &good), Ok(true));
    }

    #[test]
    fn sets_measured_differently_are_not_compared() {
        let full = set(META, &[(1, true, 0, 100.0), (2, true, 0, 101.0)]);
        for (from, to) in [
            ("\"smoke\": false", "\"smoke\": true"),
            ("\"seconds\": 15", "\"seconds\": 8"),
            ("300000", "6000"),
            ("\"W\": 2", "\"W\": 4"),
        ] {
            let other = set(&META.replace(from, to), &[(1, true, 0, 100.0)]);
            let refused = compare(&full, &other).unwrap_err();
            assert!(refused.contains("not comparable"), "{refused}");
        }
        assert!(compare(&full, &set("{}", &[(1, true, 0, 100.0)])).is_err());
    }
}
