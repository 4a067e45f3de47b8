//! What every workload shares: the run's environment (seed, budget, thread
//! counts, scratch space), the set-up timer, the pass budget and the bag of
//! measured values.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use scanshare_common::{Bandwidth, ScanShareConfig};
use scanshare_core::BufferStats;

use crate::trace::{overhead_frac, NameTotals, Recorder};

/// Page size and chunk granularity of every workload.
pub const PAGE: u64 = 65_536;
pub const CHUNK: u64 = 10_000;

/// Set-up repetitions of an untraced run; `setup_s` is their median. Five
/// at least, and up to [`MAX_SETUPS`] while they have taken less than
/// [`SETUP_BUDGET_S`] together: a 50 ms set-up (`mixed_durable`) moved 30 %
/// between sets of five.
const SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// One run's parameters and shared facilities.
pub struct Env {
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// The traced run: per-layer metrics, spans on, isolation probes.
    pub trace: bool,
    /// 1/50 sizes, for the self-test.
    pub smoke: bool,
    pub nproc: usize,
    /// `W`, the only thread budget: scheduler workers of every engine.
    pub workers: usize,
    /// Load-generator connections.
    pub connections: usize,
    pub recorder: Arc<Recorder>,
    out_dir: PathBuf,
}

impl Env {
    pub fn new(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            seed,
            seconds,
            trace,
            smoke,
            nproc,
            workers: nproc.min(4),
            connections: nproc.min(2),
            recorder: Arc::new(Recorder::new()),
            out_dir: out_dir(),
        }
    }

    /// A size of the full benchmark, cut to 1/50 under `--smoke`.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 50).max(1)
        } else {
            full
        }
    }

    /// The configuration every engine and simulation starts from.
    pub fn config(&self) -> ScanShareConfig {
        ScanShareConfig {
            page_size_bytes: PAGE,
            chunk_tuples: CHUNK,
            scheduler_workers: self.workers,
            io_workers: 1,
            ..ScanShareConfig::default()
        }
    }

    pub fn config_at(&self, mb_per_sec: f64) -> ScanShareConfig {
        ScanShareConfig {
            io_bandwidth: Bandwidth::from_mb_per_sec(mb_per_sec),
            ..self.config()
        }
    }

    /// A fresh scratch directory under `benchmark/out/`, removed on drop.
    pub fn scratch(&self, tag: &str) -> std::io::Result<Scratch> {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = self
            .out_dir
            .join(format!("tmp-{}-{tag}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    /// Where result files and span dumps go (`benchmark/out/`).
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Runs `setup` several times (once when traced or smoke) and returns
    /// the last result with the median wall time. Earlier results are
    /// dropped before the next repetition starts.
    pub fn timed_setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, f64) {
        let once = self.trace || self.smoke;
        let mut times = Vec::new();
        let mut last = None;
        loop {
            drop(last.take());
            let (value, secs) = timed(&mut setup);
            times.push(secs);
            last = Some(value);
            let short = times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < MAX_SETUPS;
            if once || (times.len() >= SETUPS && !short) {
                break;
            }
        }
        (
            last.expect("at least one repetition"),
            crate::stats::median(&times),
        )
    }

    /// The pass budget of the measured phase.
    pub fn budget(&self, min_passes: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds: self.seconds,
            min_passes,
        }
    }
}

/// `benchmark/out`, relative to the working directory when it lies below
/// it (keeps Unix-socket paths far from the 108-byte limit).
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(dir)
}

/// A scratch directory, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Decides whether the measured phase runs another pass: at least
/// `min_passes`, then as many as bring the elapsed time closest to the
/// budget (a pass is never cut short).
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_passes: usize,
}

impl Budget {
    pub fn another(&self, done: usize) -> bool {
        if done < self.min_passes {
            return true;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed + 0.5 * elapsed / (done as f64) < self.seconds
    }
}

/// Runs `f`, returning its value and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// What a workload measured: checked-operation counts and named values
/// (end-to-end values in an untraced run, layer values in a traced one).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Sizes and counts worth recording beside the metrics.
    pub notes: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The `core.*` counters of a live engine.
    pub fn set_buffer_stats(&mut self, stats: &BufferStats) {
        self.set("core.hits", stats.hits as f64);
        self.set("core.misses", stats.misses as f64);
        self.set("core.evictions", stats.evictions as f64);
        self.set("core.io_bytes", stats.io_bytes as f64);
        self.set("core.hit_ratio", stats.hit_ratio());
    }

    /// `trace.*` of an operation that ran alternately inside a span
    /// (`traced_s`, one time per operation) and without one (`untraced_s`):
    /// the residual is the share of the traced operations' time outside
    /// their spans, the overhead the difference between the two kinds.
    pub fn set_trace_cost(&mut self, spans: NameTotals, traced_s: &[f64], untraced_s: &[f64]) {
        let wall_s: f64 = traced_s.iter().sum();
        self.set(
            "trace.residual_frac",
            1.0 - ratio(spans.total_ns as f64 / 1e9, wall_s),
        );
        self.set("trace.overhead_frac", overhead_frac(traced_s, untraced_s));
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_runs_the_minimum_then_stops_nearest_the_deadline() {
        let env = Env::new(1, 0.0, false, true);
        let budget = env.budget(3);
        assert!(budget.another(0) && budget.another(2));
        assert!(!budget.another(3), "a zero budget stops at the minimum");
        let long = Env::new(1, 3600.0, false, true).budget(1);
        assert!(long.another(1));
        assert_eq!(env.scaled(300_000), 6_000);
        assert_eq!(Env::new(1, 1.0, false, false).scaled(300_000), 300_000);
    }

    #[test]
    fn scratch_directories_live_under_out_and_vanish_on_drop() {
        let env = Env::new(1, 1.0, false, true);
        let scratch = env.scratch("unit").unwrap();
        let path = scratch.path().to_path_buf();
        assert!(path.is_dir() && path.starts_with(env.out_dir()));
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(scratch);
        assert!(!path.exists());
        assert!(peak_rss_mb() > 0.0);
    }
}
