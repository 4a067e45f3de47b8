//! Simulation results.

use scanshare_common::{PolicyKind, VirtualDuration};
use scanshare_core::metrics::BufferStats;

use crate::sharing::SharingProfile;

/// The outcome of simulating one workload under one policy.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// The simulated policy.
    pub policy: PolicyKind,
    /// Completion time of each stream.
    pub stream_times: Vec<VirtualDuration>,
    /// Latency of every executed query.
    pub query_latencies: Vec<VirtualDuration>,
    /// Total I/O volume in bytes (the paper's second metric). For OPT this is
    /// the volume the oracle would have caused on the recorded trace.
    pub total_io_bytes: u64,
    /// Buffer-manager counters.
    pub buffer: BufferStats,
    /// Virtual time at which the last stream finished.
    pub makespan: VirtualDuration,
    /// Whether stream times are meaningful (OPT is replayed from a trace and
    /// therefore only reports I/O volume, like in the paper).
    pub has_timing: bool,
    /// Sharing-potential samples, when recording was enabled.
    pub sharing: Option<SharingProfile>,
}

impl SimResult {
    /// Average stream completion time in seconds, if timing is meaningful.
    pub fn avg_stream_time_secs(&self) -> Option<f64> {
        if !self.has_timing || self.stream_times.is_empty() {
            return None;
        }
        Some(
            self.stream_times
                .iter()
                .map(|d| d.as_secs_f64())
                .sum::<f64>()
                / self.stream_times.len() as f64,
        )
    }

    /// Total I/O volume in (decimal) gigabytes.
    pub fn total_io_gb(&self) -> f64 {
        self.total_io_bytes as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_and_unit_conversions() {
        let result = SimResult {
            workload: "w".into(),
            policy: PolicyKind::Pbm,
            stream_times: vec![VirtualDuration::from_secs(2), VirtualDuration::from_secs(4)],
            query_latencies: vec![VirtualDuration::from_millis(500)],
            total_io_bytes: 2_000_000_000,
            buffer: BufferStats::default(),
            makespan: VirtualDuration::from_secs(4),
            has_timing: true,
            sharing: None,
        };
        assert_eq!(result.avg_stream_time_secs(), Some(3.0));
        assert_eq!(result.total_io_gb(), 2.0);

        let opt = SimResult {
            has_timing: false,
            ..result
        };
        assert_eq!(opt.avg_stream_time_secs(), None);
    }
}
