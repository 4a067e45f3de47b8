//! The deterministic and functional gates, and the helpers they share.
//!
//! Each `benches/*.rs` target is a plain `fn main()` (`harness = false`)
//! that prints its table, writes `BENCH_<figure>.json` through
//! [`write_bench_json`] and asserts its own gates: virtual-time speedups and
//! throughputs from the simulator's deterministic clock, engine == simulator
//! byte parity, crash-recovery parity, zone-skipping I/O ratios, the
//! file-device calibration fit and overload shedding. `src/bin/bench_gate.rs`
//! compares those files against the checked-in `bench/baseline.json`.
//!
//! Nothing here times the system: wall-clock throughput, latency and
//! per-layer costs are measured by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`), the one place a wall-clock claim can come from. The
//! paper's Figures 11-18 are regenerated by `examples/figures.rs` and frozen
//! by `tests/golden_figures.rs`.
//!
//! `SCANSHARE_BENCH_PRESET=smoke` shrinks every figure to the CI
//! `bench-smoke` size; `SCANSHARE_BENCH_JSON_DIR` says where the result
//! files go.

#![warn(missing_docs)]

pub mod json;

use std::path::PathBuf;

/// The figure preset selected via `SCANSHARE_BENCH_PRESET`: `"smoke"` (the
/// CI `bench-smoke` job: small tables, few queries, runs in seconds) or
/// anything else / unset for the full figure.
pub fn bench_preset() -> &'static str {
    match std::env::var("SCANSHARE_BENCH_PRESET").as_deref() {
        Ok("smoke") => "smoke",
        _ => "full",
    }
}

/// Where `BENCH_<figure>.json` files are written: the directory named by
/// `SCANSHARE_BENCH_JSON_DIR`, defaulting to the current directory.
pub fn bench_json_path(figure: &str) -> PathBuf {
    let dir = std::env::var("SCANSHARE_BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
    PathBuf::from(dir).join(format!("BENCH_{figure}.json"))
}

/// Writes a figure's machine-readable results next to its printed table and
/// reports where they went.
pub fn write_bench_json(figure: &str, doc: &json::Json) {
    let path = bench_json_path(figure);
    match std::fs::write(&path, doc.to_pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}
