//! Experiment sweeps reproducing every figure of the paper's evaluation.
//!
//! Each `figNN_*` function regenerates one figure: it builds the workload,
//! sweeps the parameter the paper sweeps (buffer-pool size, I/O bandwidth or
//! stream count), runs all four policies and returns one [`ExperimentRow`]
//! per (policy, x-value) point. The absolute numbers depend on the simulated
//! substrate, but the *shape* — who wins, by roughly what factor, where the
//! cross-overs fall — reproduces the paper.

use std::sync::Arc;

use scanshare_common::{Bandwidth, PolicyKind, Result, ScanShareConfig, VirtualDuration};
use scanshare_storage::storage::Storage;
use scanshare_workload::microbench::{self, MicrobenchConfig};
use scanshare_workload::spec::WorkloadSpec;
use scanshare_workload::tpch::{self, TpchConfig};

use crate::engine::{SimConfig, Simulation};
use crate::sharing::SharingProfile;

/// One data point of a figure: a (policy, x-value) pair with the two metrics
/// the paper reports.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Figure identifier ("fig11", ...).
    pub figure: String,
    /// Workload name.
    pub workload: String,
    /// Policy of this row.
    pub policy: PolicyKind,
    /// Name of the swept parameter ("buffer pool %", "bandwidth MB/s", ...).
    pub x_label: String,
    /// Value of the swept parameter.
    pub x_value: f64,
    /// Average stream time in seconds (absent for OPT, which is replayed
    /// from a trace).
    pub avg_stream_time_s: Option<f64>,
    /// Total I/O volume in gigabytes.
    pub total_io_gb: f64,
    /// Buffer hit ratio.
    pub hit_ratio: f64,
}

/// Controls the size of the generated workloads so the same experiment code
/// serves fast unit tests, the `figures` example and the Criterion benches.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// `lineitem` tuples in the microbenchmark.
    pub micro_lineitem_tuples: u64,
    /// `lineitem` tuples in the TPC-H-like workload.
    pub tpch_lineitem_tuples: u64,
    /// Page size in bytes.
    pub page_size_bytes: u64,
    /// Chunk granularity in tuples.
    pub chunk_tuples: u64,
    /// Buffer-pool sizes swept by the Figure 11/14 experiments, as fractions
    /// of the accessed data volume.
    pub buffer_fractions: Vec<f64>,
    /// I/O bandwidths (MB/s) swept by the Figure 12/15 experiments.
    pub bandwidths_mb: Vec<f64>,
    /// Stream counts swept by Figure 13 (microbenchmark).
    pub micro_streams: Vec<usize>,
    /// Stream counts swept by Figure 16 (TPC-H).
    pub tpch_streams: Vec<usize>,
    /// Default number of concurrent streams.
    pub default_streams: usize,
    /// Default buffer-pool fraction of the accessed volume (0.4 in the
    /// microbenchmarks of the paper).
    pub micro_default_pool_fraction: f64,
    /// Default TPC-H pool fraction (0.3 in the paper).
    pub tpch_default_pool_fraction: f64,
    /// Default microbenchmark bandwidth (MB/s).
    pub micro_default_bandwidth_mb: f64,
    /// Default TPC-H bandwidth (MB/s).
    pub tpch_default_bandwidth_mb: f64,
}

impl ExperimentScale {
    /// Tiny scale for unit tests (fractions of a second per figure).
    pub fn test() -> Self {
        Self {
            micro_lineitem_tuples: 120_000,
            tpch_lineitem_tuples: 60_000,
            page_size_bytes: 64 * 1024,
            chunk_tuples: 10_000,
            buffer_fractions: vec![0.1, 0.4, 1.0],
            bandwidths_mb: vec![200.0, 700.0, 2000.0],
            micro_streams: vec![1, 4, 8],
            tpch_streams: vec![1, 4],
            default_streams: 4,
            micro_default_pool_fraction: 0.4,
            tpch_default_pool_fraction: 0.3,
            micro_default_bandwidth_mb: 700.0,
            tpch_default_bandwidth_mb: 600.0,
        }
    }

    /// Medium scale used by the `figures` example (a few seconds per figure).
    pub fn quick() -> Self {
        Self {
            micro_lineitem_tuples: 1_000_000,
            tpch_lineitem_tuples: 400_000,
            page_size_bytes: 128 * 1024,
            chunk_tuples: 50_000,
            buffer_fractions: vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            bandwidths_mb: vec![200.0, 400.0, 700.0, 1000.0, 1500.0, 2000.0],
            micro_streams: vec![1, 2, 4, 8, 16],
            tpch_streams: vec![1, 2, 4, 8],
            default_streams: 8,
            micro_default_pool_fraction: 0.4,
            tpch_default_pool_fraction: 0.3,
            micro_default_bandwidth_mb: 700.0,
            tpch_default_bandwidth_mb: 600.0,
        }
    }

    /// Larger scale for the Criterion benches (closer to the paper's setup,
    /// still laptop-friendly).
    pub fn paper() -> Self {
        Self {
            micro_lineitem_tuples: 4_000_000,
            tpch_lineitem_tuples: 1_500_000,
            page_size_bytes: 256 * 1024,
            chunk_tuples: 100_000,
            buffer_fractions: vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            bandwidths_mb: vec![200.0, 400.0, 700.0, 1000.0, 1200.0, 1500.0, 2000.0],
            micro_streams: vec![1, 2, 4, 8, 16, 32],
            tpch_streams: vec![1, 2, 4, 8, 16, 24],
            default_streams: 8,
            micro_default_pool_fraction: 0.4,
            tpch_default_pool_fraction: 0.3,
            micro_default_bandwidth_mb: 700.0,
            tpch_default_bandwidth_mb: 600.0,
        }
    }

    fn micro_config(&self, streams: usize) -> MicrobenchConfig {
        MicrobenchConfig {
            streams,
            lineitem_tuples: self.micro_lineitem_tuples,
            ..MicrobenchConfig::default()
        }
    }

    fn tpch_config(&self, streams: usize) -> TpchConfig {
        TpchConfig {
            streams,
            lineitem_tuples: self.tpch_lineitem_tuples,
            ..TpchConfig::default()
        }
    }

    fn base_sim_config(&self, bandwidth_mb: f64) -> SimConfig {
        SimConfig {
            scanshare: ScanShareConfig {
                page_size_bytes: self.page_size_bytes,
                chunk_tuples: self.chunk_tuples,
                io_bandwidth: Bandwidth::from_mb_per_sec(bandwidth_mb),
                ..ScanShareConfig::default()
            },
            cores: 8,
            sharing_sample_interval: None,
        }
    }
}

/// The four policies every figure compares.
pub const ALL_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::CScan,
    PolicyKind::Pbm,
    PolicyKind::Opt,
];

fn run_point(
    storage: &Arc<Storage>,
    workload: &WorkloadSpec,
    mut sim_config: SimConfig,
    policy: PolicyKind,
    figure: &str,
    x_label: &str,
    x_value: f64,
) -> Result<ExperimentRow> {
    sim_config.scanshare.policy = policy;
    let sim = Simulation::new(Arc::clone(storage), sim_config)?;
    let result = sim.run(workload)?;
    Ok(ExperimentRow {
        figure: figure.to_string(),
        workload: workload.name.clone(),
        policy,
        x_label: x_label.to_string(),
        x_value,
        avg_stream_time_s: result.avg_stream_time_secs(),
        total_io_gb: result.total_io_gb(),
        hit_ratio: result.buffer.hit_ratio(),
    })
}

fn buffer_sweep(
    figure: &str,
    storage: &Arc<Storage>,
    workload: &WorkloadSpec,
    scale: &ExperimentScale,
    bandwidth_mb: f64,
    fractions: &[f64],
) -> Result<Vec<ExperimentRow>> {
    let base = scale.base_sim_config(bandwidth_mb);
    let probe = Simulation::new(Arc::clone(storage), base.clone())?;
    let accessed = probe.accessed_volume(workload)?;
    let mut rows = Vec::new();
    for &fraction in fractions {
        let pool = ((accessed as f64 * fraction) as u64).max(4 * scale.page_size_bytes);
        for policy in ALL_POLICIES {
            let mut cfg = base.clone();
            cfg.scanshare.buffer_pool_bytes = pool;
            rows.push(run_point(
                storage,
                workload,
                cfg,
                policy,
                figure,
                "buffer pool (% of accessed data)",
                fraction * 100.0,
            )?);
        }
    }
    Ok(rows)
}

fn bandwidth_sweep(
    figure: &str,
    storage: &Arc<Storage>,
    workload: &WorkloadSpec,
    scale: &ExperimentScale,
    pool_fraction: f64,
    bandwidths: &[f64],
) -> Result<Vec<ExperimentRow>> {
    let probe = Simulation::new(Arc::clone(storage), scale.base_sim_config(700.0))?;
    let accessed = probe.accessed_volume(workload)?;
    let pool = ((accessed as f64 * pool_fraction) as u64).max(4 * scale.page_size_bytes);
    let mut rows = Vec::new();
    for &mb in bandwidths {
        for policy in ALL_POLICIES {
            let mut cfg = scale.base_sim_config(mb);
            cfg.scanshare.buffer_pool_bytes = pool;
            rows.push(run_point(
                storage,
                workload,
                cfg,
                policy,
                figure,
                "I/O bandwidth (MB/s)",
                mb,
            )?);
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Microbenchmark figures
// ---------------------------------------------------------------------------

/// Figure 11: microbenchmark, varying the buffer pool size.
pub fn fig11_micro_buffer_sweep(scale: &ExperimentScale) -> Result<Vec<ExperimentRow>> {
    let config = scale.micro_config(scale.default_streams);
    let (storage, workload) =
        microbench::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
    buffer_sweep(
        "fig11",
        &storage,
        &workload,
        scale,
        scale.micro_default_bandwidth_mb,
        &scale.buffer_fractions,
    )
}

/// Figure 12: microbenchmark, varying the I/O bandwidth.
pub fn fig12_micro_bandwidth_sweep(scale: &ExperimentScale) -> Result<Vec<ExperimentRow>> {
    let config = scale.micro_config(scale.default_streams);
    let (storage, workload) =
        microbench::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
    bandwidth_sweep(
        "fig12",
        &storage,
        &workload,
        scale,
        scale.micro_default_pool_fraction,
        &scale.bandwidths_mb,
    )
}

/// Figure 13: microbenchmark, varying the number of concurrent streams
/// (all queries scan 50 % of the table, as in the paper).
pub fn fig13_micro_stream_sweep(scale: &ExperimentScale) -> Result<Vec<ExperimentRow>> {
    let mut rows = Vec::new();
    for &streams in &scale.micro_streams {
        let config = scale.micro_config(streams).with_fixed_percentage(50);
        let (storage, workload) =
            microbench::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
        let probe = Simulation::new(
            Arc::clone(&storage),
            scale.base_sim_config(scale.micro_default_bandwidth_mb),
        )?;
        let accessed = probe.accessed_volume(&workload)?;
        let pool = ((accessed as f64 * scale.micro_default_pool_fraction) as u64)
            .max(4 * scale.page_size_bytes);
        for policy in ALL_POLICIES {
            let mut cfg = scale.base_sim_config(scale.micro_default_bandwidth_mb);
            cfg.scanshare.buffer_pool_bytes = pool;
            rows.push(run_point(
                &storage,
                &workload,
                cfg,
                policy,
                "fig13",
                "concurrent streams",
                streams as f64,
            )?);
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// TPC-H throughput figures
// ---------------------------------------------------------------------------

/// Figure 14: TPC-H throughput, varying the buffer pool size.
pub fn fig14_tpch_buffer_sweep(scale: &ExperimentScale) -> Result<Vec<ExperimentRow>> {
    let config = scale.tpch_config(scale.default_streams);
    let (storage, _tables, workload) =
        tpch::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
    buffer_sweep(
        "fig14",
        &storage,
        &workload,
        scale,
        scale.tpch_default_bandwidth_mb,
        &scale.buffer_fractions,
    )
}

/// Figure 15: TPC-H throughput, varying the I/O bandwidth.
pub fn fig15_tpch_bandwidth_sweep(scale: &ExperimentScale) -> Result<Vec<ExperimentRow>> {
    let config = scale.tpch_config(scale.default_streams);
    let (storage, _tables, workload) =
        tpch::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
    bandwidth_sweep(
        "fig15",
        &storage,
        &workload,
        scale,
        scale.tpch_default_pool_fraction,
        &scale.bandwidths_mb,
    )
}

/// Figure 16: TPC-H throughput, varying the number of streams.
pub fn fig16_tpch_stream_sweep(scale: &ExperimentScale) -> Result<Vec<ExperimentRow>> {
    let mut rows = Vec::new();
    for &streams in &scale.tpch_streams {
        let config = scale.tpch_config(streams);
        let (storage, _tables, workload) =
            tpch::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
        let probe = Simulation::new(
            Arc::clone(&storage),
            scale.base_sim_config(scale.tpch_default_bandwidth_mb),
        )?;
        let accessed = probe.accessed_volume(&workload)?;
        let pool = ((accessed as f64 * scale.tpch_default_pool_fraction) as u64)
            .max(4 * scale.page_size_bytes);
        for policy in ALL_POLICIES {
            let mut cfg = scale.base_sim_config(scale.tpch_default_bandwidth_mb);
            cfg.scanshare.buffer_pool_bytes = pool;
            rows.push(run_point(
                &storage,
                &workload,
                cfg,
                policy,
                "fig16",
                "concurrent streams",
                streams as f64,
            )?);
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Sharing-potential figures
// ---------------------------------------------------------------------------

fn sharing_profile(
    storage: &Arc<Storage>,
    workload: &WorkloadSpec,
    scale: &ExperimentScale,
    pool_fraction: f64,
    bandwidth_mb: f64,
) -> Result<SharingProfile> {
    let probe = Simulation::new(Arc::clone(storage), scale.base_sim_config(bandwidth_mb))?;
    let accessed = probe.accessed_volume(workload)?;
    let mut cfg = scale.base_sim_config(bandwidth_mb);
    cfg.scanshare.policy = PolicyKind::Pbm;
    cfg.scanshare.buffer_pool_bytes =
        ((accessed as f64 * pool_fraction) as u64).max(4 * scale.page_size_bytes);
    // Sample densely enough that even the down-scaled workloads (whose whole
    // run may last only tens of virtual milliseconds) produce a profile.
    cfg.sharing_sample_interval = Some(VirtualDuration::from_millis(1));
    let result = Simulation::new(Arc::clone(storage), cfg)?.run(workload)?;
    Ok(result.sharing.unwrap_or_default())
}

/// Figure 17: sharing potential over time in the microbenchmark.
pub fn fig17_sharing_micro(scale: &ExperimentScale) -> Result<SharingProfile> {
    let config = scale.micro_config(scale.default_streams);
    let (storage, workload) =
        microbench::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
    sharing_profile(
        &storage,
        &workload,
        scale,
        scale.micro_default_pool_fraction,
        scale.micro_default_bandwidth_mb,
    )
}

/// Figure 18: sharing potential over time in the TPC-H throughput run.
pub fn fig18_sharing_tpch(scale: &ExperimentScale) -> Result<SharingProfile> {
    let config = scale.tpch_config(scale.default_streams);
    let (storage, _tables, workload) =
        tpch::build(&config, scale.page_size_bytes, scale.chunk_tuples)?;
    sharing_profile(
        &storage,
        &workload,
        scale,
        scale.tpch_default_pool_fraction,
        scale.tpch_default_bandwidth_mb,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_rows_cover_all_policies_and_fractions() {
        let scale = ExperimentScale::test();
        let rows = fig11_micro_buffer_sweep(&scale).unwrap();
        assert_eq!(
            rows.len(),
            scale.buffer_fractions.len() * ALL_POLICIES.len()
        );
        for row in &rows {
            assert_eq!(row.figure, "fig11");
            assert!(row.total_io_gb >= 0.0);
            if row.policy == PolicyKind::Opt {
                assert!(row.avg_stream_time_s.is_none());
            } else {
                assert!(row.avg_stream_time_s.unwrap() > 0.0);
            }
        }
        // Shape check: at the smallest pool, LRU does at least as much I/O as
        // PBM and CScans.
        let smallest = scale.buffer_fractions[0] * 100.0;
        let io_of = |policy: PolicyKind| {
            rows.iter()
                .find(|r| r.policy == policy && (r.x_value - smallest).abs() < 1e-9)
                .unwrap()
                .total_io_gb
        };
        assert!(io_of(PolicyKind::Lru) >= io_of(PolicyKind::Pbm) * 0.95);
        assert!(io_of(PolicyKind::Lru) >= io_of(PolicyKind::CScan) * 0.95);
    }

    #[test]
    fn fig12_io_volume_is_roughly_bandwidth_independent() {
        let scale = ExperimentScale::test();
        let rows = fig12_micro_bandwidth_sweep(&scale).unwrap();
        for (policy, tolerance) in [(PolicyKind::Lru, 1.25), (PolicyKind::Pbm, 1.25)] {
            let ios: Vec<f64> = rows
                .iter()
                .filter(|r| r.policy == policy)
                .map(|r| r.total_io_gb)
                .collect();
            let min = ios.iter().cloned().fold(f64::MAX, f64::min);
            let max = ios.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                max <= min * tolerance + 1e-9,
                "{policy}: I/O volume should not depend on bandwidth ({min} vs {max})"
            );
        }
        // Stream times shrink (or stay equal) as bandwidth grows.
        let pbm_times: Vec<f64> = rows
            .iter()
            .filter(|r| r.policy == PolicyKind::Pbm)
            .map(|r| r.avg_stream_time_s.unwrap())
            .collect();
        assert!(pbm_times.first().unwrap() >= pbm_times.last().unwrap());
    }

    #[test]
    fn fig13_more_streams_increase_total_io() {
        let scale = ExperimentScale::test();
        let rows = fig13_micro_stream_sweep(&scale).unwrap();
        let lru: Vec<&ExperimentRow> = rows
            .iter()
            .filter(|r| r.policy == PolicyKind::Lru)
            .collect();
        assert!(lru.last().unwrap().total_io_gb >= lru.first().unwrap().total_io_gb);
    }

    #[test]
    fn fig17_microbenchmark_has_substantial_sharing_potential() {
        let scale = ExperimentScale::test();
        let micro = fig17_sharing_micro(&scale).unwrap();
        assert!(!micro.is_empty());
        assert!(
            micro.avg_shared_fraction() > 0.05,
            "microbenchmark should show reuse potential"
        );
    }

    #[test]
    fn fig18_tpch_shares_less_than_the_microbenchmark() {
        let scale = ExperimentScale::test();
        let micro = fig17_sharing_micro(&scale).unwrap();
        let tpch = fig18_sharing_tpch(&scale).unwrap();
        assert!(!tpch.is_empty());
        assert!(
            tpch.avg_shared_fraction() <= micro.avg_shared_fraction() + 0.05,
            "TPC-H ({}) should have less sharing potential than the microbenchmark ({})",
            tpch.avg_shared_fraction(),
            micro.avg_shared_fraction()
        );
    }
}
