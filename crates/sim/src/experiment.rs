//! Experiment sweeps reproducing every figure of the paper's evaluation.
//!
//! [`FIGURES`] lists the eight figures (11-18) as data — which workload
//! suite each runs and which parameter it sweeps — and [`run_figure`]
//! regenerates any of them: it builds the workload, sweeps the parameter the
//! paper sweeps (buffer-pool size, I/O bandwidth or stream count), runs all
//! four policies and returns one [`ExperimentRow`] per (policy, x-value)
//! point, or the sharing-potential profile of Figures 17/18. The absolute
//! numbers depend on the simulated substrate, but the *shape* — who wins, by
//! roughly what factor, where the cross-overs fall — reproduces the paper.

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
/// serves fast unit tests, the `figures` example and the bench targets.
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
}

/// The microbenchmark's default I/O bandwidth (MB/s), at every scale.
const MICRO_BANDWIDTH_MB: f64 = 700.0;
/// The microbenchmark's default pool, as a fraction of the accessed volume
/// (0.4 in the paper).
const MICRO_POOL_FRACTION: f64 = 0.4;
/// The TPC-H workload's default I/O bandwidth (MB/s), at every scale.
const TPCH_BANDWIDTH_MB: f64 = 600.0;
/// The TPC-H workload's default pool fraction (0.3 in the paper).
const TPCH_POOL_FRACTION: f64 = 0.3;

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
        }
    }

    /// Larger scale for `figures -- --paper` (closer to the paper's setup,
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
        }
    }

    /// The suite's defaults: I/O bandwidth (MB/s), pool fraction of the
    /// accessed volume, and the stream counts its stream sweep visits.
    fn suite_defaults(&self, suite: Suite) -> (f64, f64, &[usize]) {
        match suite {
            Suite::Micro => (MICRO_BANDWIDTH_MB, MICRO_POOL_FRACTION, &self.micro_streams),
            Suite::Tpch => (TPCH_BANDWIDTH_MB, TPCH_POOL_FRACTION, &self.tpch_streams),
        }
    }

    /// Builds the storage and workload `figure` runs with `streams` streams.
    fn build(&self, figure: &Figure, streams: usize) -> Result<(Arc<Storage>, WorkloadSpec)> {
        match figure.suite {
            Suite::Micro => {
                let mut config = MicrobenchConfig {
                    streams,
                    lineitem_tuples: self.micro_lineitem_tuples,
                    ..MicrobenchConfig::default()
                };
                if figure.axis == Axis::Streams {
                    // All queries scan 50 % of the table, as in the paper.
                    config = config.with_fixed_percentage(50);
                }
                microbench::build(&config, self.page_size_bytes, self.chunk_tuples)
            }
            Suite::Tpch => {
                let config = TpchConfig {
                    streams,
                    lineitem_tuples: self.tpch_lineitem_tuples,
                    ..TpchConfig::default()
                };
                let (storage, _tables, workload) =
                    tpch::build(&config, self.page_size_bytes, self.chunk_tuples)?;
                Ok((storage, workload))
            }
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

/// The workload suite a figure runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The Q1/Q6 microbenchmark of section 4.1.
    Micro,
    /// The TPC-H throughput run of section 4.2.
    Tpch,
}

/// What a figure varies along its x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Buffer-pool size, as a fraction of the accessed data volume.
    Buffer,
    /// I/O bandwidth.
    Bandwidth,
    /// Number of concurrent streams.
    Streams,
    /// Nothing: one PBM run at the suite's defaults, sampled over time for
    /// its sharing potential.
    Sharing,
}

/// One figure of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure {
    /// The figure's number in the paper.
    pub id: u32,
    /// What the figure shows.
    pub title: &'static str,
    /// The workload it runs.
    pub suite: Suite,
    /// The parameter it sweeps.
    pub axis: Axis,
}

/// The figures of the paper's evaluation, in paper order.
pub const FIGURES: [Figure; 8] = [
    Figure {
        id: 11,
        title: "microbenchmark, varying the buffer pool size",
        suite: Suite::Micro,
        axis: Axis::Buffer,
    },
    Figure {
        id: 12,
        title: "microbenchmark, varying the I/O bandwidth",
        suite: Suite::Micro,
        axis: Axis::Bandwidth,
    },
    Figure {
        id: 13,
        title: "microbenchmark, varying the number of streams",
        suite: Suite::Micro,
        axis: Axis::Streams,
    },
    Figure {
        id: 14,
        title: "TPC-H throughput, varying the buffer pool size",
        suite: Suite::Tpch,
        axis: Axis::Buffer,
    },
    Figure {
        id: 15,
        title: "TPC-H throughput, varying the I/O bandwidth",
        suite: Suite::Tpch,
        axis: Axis::Bandwidth,
    },
    Figure {
        id: 16,
        title: "TPC-H throughput, varying the number of streams",
        suite: Suite::Tpch,
        axis: Axis::Streams,
    },
    Figure {
        id: 17,
        title: "sharing potential in the microbenchmark",
        suite: Suite::Micro,
        axis: Axis::Sharing,
    },
    Figure {
        id: 18,
        title: "sharing potential in TPC-H throughput",
        suite: Suite::Tpch,
        axis: Axis::Sharing,
    },
];

/// What [`run_figure`] measured: a sweep's rows, or a sharing profile.
#[derive(Debug, Clone)]
pub enum FigureData {
    /// One row per (policy, x-value) point of a sweep figure.
    Rows(Vec<ExperimentRow>),
    /// The sharing-potential profile of Figures 17/18.
    Sharing(SharingProfile),
}

/// Regenerates one figure at `scale`.
pub fn run_figure(figure: &Figure, scale: &ExperimentScale) -> Result<FigureData> {
    let (bandwidth_mb, pool_fraction, swept_streams) = scale.suite_defaults(figure.suite);
    let (x_label, stream_counts) = match figure.axis {
        Axis::Buffer => ("buffer pool (% of accessed data)", None),
        Axis::Bandwidth => ("I/O bandwidth (MB/s)", None),
        Axis::Streams => ("concurrent streams", Some(swept_streams)),
        Axis::Sharing => ("", None),
    };
    let mut rows = Vec::new();
    for &streams in stream_counts.unwrap_or(std::slice::from_ref(&scale.default_streams)) {
        let (storage, workload) = scale.build(figure, streams)?;
        let probe = Simulation::new(Arc::clone(&storage), scale.base_sim_config(bandwidth_mb))?;
        let accessed = probe.accessed_volume(&workload)?;
        // The points run on this workload: (x value, pool fraction, MB/s).
        let points: Vec<(f64, f64, f64)> = match figure.axis {
            Axis::Buffer => scale
                .buffer_fractions
                .iter()
                .map(|&fraction| (fraction * 100.0, fraction, bandwidth_mb))
                .collect(),
            Axis::Bandwidth => scale
                .bandwidths_mb
                .iter()
                .map(|&mb| (mb, pool_fraction, mb))
                .collect(),
            Axis::Streams | Axis::Sharing => vec![(streams as f64, pool_fraction, bandwidth_mb)],
        };
        for (x_value, fraction, mb) in points {
            let mut config = scale.base_sim_config(mb);
            config.scanshare.buffer_pool_bytes =
                ((accessed as f64 * fraction) as u64).max(4 * scale.page_size_bytes);
            if figure.axis == Axis::Sharing {
                config.scanshare.policy = PolicyKind::Pbm;
                // Sample densely enough that even the down-scaled workloads
                // (whose whole run may last only tens of virtual
                // milliseconds) produce a profile.
                config.sharing_sample_interval = Some(VirtualDuration::from_millis(1));
                let result = Simulation::new(Arc::clone(&storage), config)?.run(&workload)?;
                return Ok(FigureData::Sharing(result.sharing.unwrap_or_default()));
            }
            for policy in ALL_POLICIES {
                config.scanshare.policy = policy;
                let result =
                    Simulation::new(Arc::clone(&storage), config.clone())?.run(&workload)?;
                rows.push(ExperimentRow {
                    figure: format!("fig{}", figure.id),
                    workload: workload.name.clone(),
                    policy,
                    x_label: x_label.to_string(),
                    x_value,
                    avg_stream_time_s: result.avg_stream_time_secs(),
                    total_io_gb: result.total_io_gb(),
                    hit_ratio: result.buffer.hit_ratio(),
                });
            }
        }
    }
    Ok(FigureData::Rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(id: u32, scale: &ExperimentScale) -> Vec<ExperimentRow> {
        match run_figure(&FIGURES[id as usize - 11], scale).unwrap() {
            FigureData::Rows(rows) => rows,
            FigureData::Sharing(_) => panic!("figure {id} is a sweep"),
        }
    }

    fn sharing(id: u32, scale: &ExperimentScale) -> SharingProfile {
        match run_figure(&FIGURES[id as usize - 11], scale).unwrap() {
            FigureData::Sharing(profile) => profile,
            FigureData::Rows(_) => panic!("figure {id} is a sharing profile"),
        }
    }

    #[test]
    fn figures_table_is_in_paper_order() {
        let ids: Vec<u32> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids, (11..=18).collect::<Vec<u32>>());
    }

    #[test]
    fn fig11_rows_cover_all_policies_and_fractions() {
        let scale = ExperimentScale::test();
        let rows = rows(11, &scale);
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
        let rows = rows(12, &scale);
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
        let rows = rows(13, &scale);
        let lru: Vec<&ExperimentRow> = rows
            .iter()
            .filter(|r| r.policy == PolicyKind::Lru)
            .collect();
        assert!(lru.last().unwrap().total_io_gb >= lru.first().unwrap().total_io_gb);
    }

    #[test]
    fn fig13_pbm_stays_below_lru_at_sixteen_streams() {
        // The row where PBM read more than LRU (0.449 vs 0.412 GB, 0.934 vs
        // 0.834 s) while every new scan was assumed to run at the CPU rate:
        // with sixteen streams some scan is always freshly registered. The
        // `test` scale does not reproduce it, `quick` takes under a second.
        let scale = ExperimentScale {
            micro_streams: vec![16],
            ..ExperimentScale::quick()
        };
        let rows = rows(13, &scale);
        let of = |policy| rows.iter().find(|r| r.policy == policy).unwrap();
        let (lru, pbm) = (of(PolicyKind::Lru), of(PolicyKind::Pbm));
        assert!(
            pbm.total_io_gb <= lru.total_io_gb,
            "pbm read {} GB, lru {} GB",
            pbm.total_io_gb,
            lru.total_io_gb
        );
        assert!(pbm.avg_stream_time_s.unwrap() <= lru.avg_stream_time_s.unwrap());
    }

    #[test]
    fn fig17_microbenchmark_has_substantial_sharing_potential() {
        let scale = ExperimentScale::test();
        let micro = sharing(17, &scale);
        assert!(!micro.is_empty());
        assert!(
            micro.avg_shared_fraction() > 0.05,
            "microbenchmark should show reuse potential"
        );
    }

    #[test]
    fn fig18_tpch_shares_less_than_the_microbenchmark() {
        let scale = ExperimentScale::test();
        let micro = sharing(17, &scale);
        let tpch = sharing(18, &scale);
        assert!(!tpch.is_empty());
        assert!(
            tpch.avg_shared_fraction() <= micro.avg_shared_fraction() + 0.05,
            "TPC-H ({}) should have less sharing potential than the microbenchmark ({})",
            tpch.avg_shared_fraction(),
            micro.avg_shared_fraction()
        );
    }
}
