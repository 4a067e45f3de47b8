//! Shared helpers for the benchmark harness.
//!
//! `benches/fig_paper.rs` regenerates Figures 11-18 of the paper from the
//! simulator's `FIGURES` table: for each it prints the figure's data table
//! (policies × swept parameter, average stream time and total I/O volume,
//! or the sharing-potential profile) and then measures regenerating it with
//! the [`crit`] mini-harness (a dependency-free Criterion stand-in). The
//! other `benches/*.rs` targets are the engine-side figures and ablations.
//!
//! The scale of the printed figures is controlled with the
//! `SCANSHARE_BENCH_SCALE` environment variable: `test` (default, seconds),
//! `quick` (tens of seconds) or `paper` (minutes, closest to the paper's
//! setup).

#![warn(missing_docs)]

pub mod crit;
pub mod json;

use std::path::PathBuf;

use scanshare_sim::ExperimentScale;

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

/// The experiment scale selected via `SCANSHARE_BENCH_SCALE`.
pub fn bench_scale() -> ExperimentScale {
    match std::env::var("SCANSHARE_BENCH_SCALE").as_deref() {
        Ok("paper") => ExperimentScale::paper(),
        Ok("quick") => ExperimentScale::quick(),
        _ => ExperimentScale::test(),
    }
}

/// A smaller scale used for the point measured inside the Criterion loop
/// (so `cargo bench` stays fast even when the printed figure is large).
pub fn measured_scale() -> ExperimentScale {
    ExperimentScale::test()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_the_test_scale() {
        // The env var is not set in unit tests.
        if std::env::var("SCANSHARE_BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), ExperimentScale::test());
        }
        assert_eq!(measured_scale(), ExperimentScale::test());
    }
}
