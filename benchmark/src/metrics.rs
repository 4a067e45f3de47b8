//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! is expected to move. `BENCHMARK.json` at the repo root declares the same
//! names, units, directions and bounds; a self-test keeps the two equal.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named workload and why it is in the set.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "micro_pbm",
        why: "paper 4.1 Q1/Q6 mix on the live engine under pbm: scan + PDT merge + kernels do the wall-clock work, the device costs none",
    },
    Workload {
        name: "micro_cscan",
        why: "same inputs and plans under cscan: the exec layer driven by ABM chunk dispatch and out-of-order delivery instead of the pool",
    },
    Workload {
        name: "paper_micro",
        why: "simulator only, Figure 11 point (8x16 queries, 40% pool, 700 MB/s): policy decisions do all the work on a high-sharing input",
    },
    Workload {
        name: "paper_tpch",
        why: "simulator only, Figure 14 point (8 streams x 22 templates, 30% pool, 600 MB/s): eight tables, wide columns, little sharing",
    },
    Workload {
        name: "serve_closed",
        why: "32 closed-loop sessions of 1000-tuple queries over a Unix socket, pool resident: framing, admission and the scheduler dominate",
    },
    Workload {
        name: "mixed_durable",
        why: "auto-commits beside pinned full scans on real files with WAL, group commit and checkpoints: wal, pdt and the file device carry weight",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric. Every workload prints every one of them (the
/// driver's contract); [`applies`] says which cells a workload exercises.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What an end-to-end metric prints on a workload that does not exercise
/// it (the contract wants every metric from every workload, never 0). The
/// two latency metrics are the exception: the contract refuses a time that
/// reads the same on every run, so outside `serve_closed` they carry the
/// wall time of the unit the workload repeats (see `README.md`).
pub const NOT_APPLICABLE: f64 = 1.0;

/// Whether `workload` exercises the end-to-end `metric`: ISSUE 11's
/// workload x metric matrix. `compare` judges only these cells.
pub fn applies(metric: &str, workload: &str) -> bool {
    let paper = workload.starts_with("paper_");
    match metric {
        "setup_s" | "peak_rss_mb" => true,
        "tuples_per_s" => !paper,
        "queries_per_s" | "latency_p50_ms" | "latency_p99_ms" => workload == "serve_closed",
        "commits_per_s" => workload == "mixed_durable",
        _ => paper,
    }
}

/// Whether the metric is a simulator output: exact for a given seed, so
/// `compare` pairs runs by seed and allows no difference at all. (The bound
/// in [`END_TO_END`] is for the driver, which compares medians across
/// different seeds.)
pub fn exact_per_seed(metric: &str) -> bool {
    metric.starts_with("model_")
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tuples_per_s", "1/s", Higher, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("commits_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("model_io_bytes_lru", "B", Lower, 0.25),
    e2e("model_io_bytes_pbm", "B", Lower, 0.25),
    e2e("model_io_bytes_cscan", "B", Lower, 0.25),
    e2e("model_stream_time_s_lru", "virt_s", Lower, 0.25),
    e2e("model_stream_time_s_pbm", "virt_s", Lower, 0.25),
    e2e("model_stream_time_s_cscan", "virt_s", Lower, 0.25),
    e2e("sim_requests_per_s", "1/s", Higher, 0.25),
];

/// A per-layer metric (layer = module name) and the end-to-end metric it
/// should move, on which workload. A workload that does not exercise the
/// layer prints 0 for it.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SCAN: &str = "tuples_per_s on micro_pbm, micro_cscan (~85% of wall); nothing on paper_*";
const OPS: &str = "tuples_per_s on micro_* (~15%); barely serve_closed";
const SCHED: &str = "queries_per_s, latency_p50_ms on serve_closed; not micro_*";
const FAIR: &str = "explains tuples_per_s fairness on micro_*; informational";
const RECOVER: &str = "set-up-like cost on mixed_durable; informational";
const CORE_REQ: &str =
    "sim_requests_per_s on paper_*; tuples_per_s on micro_* at the percent level";
const CORE_STATS: &str = "explain tuples_per_s / virtual time on micro_*, mixed_durable";
const MODEL: &str = "base for every model ratio on paper_*";
const SIM: &str = "sim_requests_per_s on paper_*; simulated statistics must not move when only host time is targeted";
const IOSIM: &str = "tuples_per_s on mixed_durable; ~0 on micro_*";
const STORAGE: &str = "tuples_per_s on micro_* / mixed_durable; setup_s";
const WAL: &str = "commits_per_s on mixed_durable";
const PDT: &str =
    "commits_per_s, tuples_per_s on mixed_durable (a checkpoint is a foreground stall)";
const SERVE: &str = "queries_per_s, latency_p50_ms on serve_closed";
const SETUP: &str = "setup_s";
const TRACE: &str = "must stay < 0.05 and be reported";

pub const PER_LAYER: [Layer; 65] = [
    layer("exec.scan.next_batch_ns_per_tuple", "ns", Lower, SCAN),
    layer("exec.scan.self_ns_per_tuple", "ns", Lower, SCAN),
    layer("exec.scan.batches", "count", Lower, SCAN),
    layer("exec.scan.tuples", "count", Higher, SCAN),
    layer("exec.ops.fold_ns_per_tuple", "ns", Lower, OPS),
    layer("exec.ops.fold_grouped_ns_per_tuple", "ns", Lower, OPS),
    layer("exec.ops.filter_kept_frac", "frac", Higher, OPS),
    layer("exec.sched.quantum_ns", "ns", Lower, SCHED),
    layer("exec.sched.spawn_to_done_us", "us", Lower, SCHED),
    layer("exec.sched.yields", "count", Lower, SCHED),
    layer("exec.sched.steals", "count", Lower, SCHED),
    layer("exec.stream_time_s", "s", Lower, FAIR),
    layer("exec.query_p50_ms", "ms", Lower, FAIR),
    layer("exec.query_p90_ms", "ms", Lower, FAIR),
    layer("exec.recover_s", "s", Lower, RECOVER),
    layer("exec.recover_commits", "count", Higher, RECOVER),
    layer("core.lru.request_ns", "ns", Lower, CORE_REQ),
    layer("core.pbm.request_ns", "ns", Lower, CORE_REQ),
    layer("core.abm.get_chunk_ns", "ns", Lower, CORE_REQ),
    layer(
        "core.policy_busy_s",
        "s",
        Lower,
        "ledger term; tuples_per_s on micro_pbm",
    ),
    layer("core.hits", "count", Higher, CORE_STATS),
    layer("core.misses", "count", Lower, CORE_STATS),
    layer("core.evictions", "count", Lower, CORE_STATS),
    layer("core.io_bytes", "B", Lower, CORE_STATS),
    layer("core.hit_ratio", "frac", Higher, CORE_STATS),
    layer("core.opt.io_bytes", "B", Lower, MODEL),
    layer("core.pbm.io_vs_opt", "ratio", Lower, MODEL),
    layer("core.cscan.io_vs_lru", "ratio", Lower, MODEL),
    layer("sim.host_s.lru", "s", Lower, SIM),
    layer("sim.host_s.pbm", "s", Lower, SIM),
    layer("sim.host_s.cscan", "s", Lower, SIM),
    layer("sim.host_s.opt", "s", Lower, SIM),
    layer("sim.requests", "count", Lower, SIM),
    layer("sim.hit_ratio.lru", "frac", Higher, SIM),
    layer("sim.hit_ratio.pbm", "frac", Higher, SIM),
    layer("sim.hit_ratio.cscan", "frac", Higher, SIM),
    layer("iosim.sim_submit_ns", "ns", Lower, IOSIM),
    layer("iosim.requests", "count", Lower, IOSIM),
    layer("iosim.bytes_read", "B", Lower, IOSIM),
    layer("iosim.file_read_us_p50", "us", Lower, IOSIM),
    layer("iosim.file_read_us_p99", "us", Lower, IOSIM),
    layer("storage.read_page_ns", "ns", Lower, STORAGE),
    layer("storage.read_page_file_ns", "ns", Lower, STORAGE),
    layer("storage.materialize_s", "s", Lower, STORAGE),
    layer("storage.wal_append_us", "us", Lower, WAL),
    layer("storage.wal_sync_us", "us", Lower, WAL),
    layer("storage.wal_bytes_per_commit", "B", Lower, WAL),
    layer("storage.wal_syncs_per_commit", "ratio", Lower, WAL),
    layer("pdt.commit_us_p50", "us", Lower, PDT),
    layer("pdt.commit_us_p99", "us", Lower, PDT),
    layer("pdt.checkpoint_s", "s", Lower, PDT),
    layer("pdt.pending_ops_at_checkpoint", "count", Lower, PDT),
    layer("pdt.merge_ns_per_tuple", "ns", Lower, PDT),
    layer("serve.codec_ns_per_frame", "ns", Lower, SERVE),
    layer("serve.ping_rtt_us", "us", Lower, SERVE),
    layer("serve.overhead_us_per_query", "us", Lower, SERVE),
    layer("serve.admitted", "count", Higher, SERVE),
    layer("serve.queued", "count", Lower, SERVE),
    layer("serve.shed", "count", Lower, SERVE),
    layer("serve.completed", "count", Higher, SERVE),
    layer("setup.reference_s", "s", Lower, SETUP),
    layer("setup.build_s", "s", Lower, SETUP),
    layer("trace.residual_frac", "frac", Lower, TRACE),
    layer("trace.overhead_frac", "frac", Lower, TRACE),
    layer(
        "check.failed_frac",
        "frac",
        Lower,
        "0 on every accepted run: failed, shed, wrong-result or unrecovered operations / attempted",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(json::items)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == 0.25));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_declares_exactly_this_vocabulary() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(json::items)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap().to_string(),
                    w.get("why").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), ours);
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(declared(&doc, "per_layer"), ours);
    }
}
