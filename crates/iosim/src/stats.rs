//! I/O accounting.

use scanshare_common::VirtualDuration;

/// Whether a request was issued on the critical path of a scan (demand) or
/// speculatively ahead of it (prefetch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A blocking read a scan waits for.
    Demand,
    /// An asynchronous read issued ahead of the scan cursor.
    Prefetch,
}

/// Accumulated I/O counters. "Total volume of performed I/O" is the second
/// performance measure used throughout the paper's evaluation; with the
/// asynchronous device the volume is additionally attributed to demand reads
/// versus prefetch reads, and time is attributed to queueing versus transfer.
///
/// Invariants maintained by the device:
/// `demand_bytes + prefetch_bytes == bytes_read` and
/// `demand_requests + prefetch_requests == requests`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Total bytes read from the device.
    pub bytes_read: u64,
    /// Total pages read from the device.
    pub pages_read: u64,
    /// Number of read requests issued.
    pub requests: u64,
    /// Bytes read by demand (blocking) requests.
    pub demand_bytes: u64,
    /// Bytes read by prefetch (asynchronous) requests.
    pub prefetch_bytes: u64,
    /// Number of demand requests.
    pub demand_requests: u64,
    /// Number of prefetch requests.
    pub prefetch_requests: u64,
    /// Virtual nanoseconds requests spent queued behind earlier transfers
    /// before the device started serving them.
    pub queue_wait_nanos: u64,
    /// Virtual nanoseconds spent actually serving requests (fixed per-request
    /// latency plus `bytes / bandwidth` transfer time).
    pub service_nanos: u64,
}

impl IoStats {
    /// Records one request of `kind`, with its time split into the wait
    /// behind earlier transfers (`queue_wait`) and the time the device spent
    /// serving it (`service`).
    pub fn record_request(
        &mut self,
        kind: IoKind,
        bytes: u64,
        queue_wait: VirtualDuration,
        service: VirtualDuration,
    ) {
        self.bytes_read += bytes;
        self.requests += 1;
        match kind {
            IoKind::Demand => {
                self.demand_bytes += bytes;
                self.demand_requests += 1;
            }
            IoKind::Prefetch => {
                self.prefetch_bytes += bytes;
                self.prefetch_requests += 1;
            }
        }
        self.queue_wait_nanos += queue_wait.as_nanos();
        self.service_nanos += service.as_nanos();
    }

    /// What was counted after `earlier`, an earlier reading of the same
    /// counters.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            bytes_read: self.bytes_read - earlier.bytes_read,
            pages_read: self.pages_read - earlier.pages_read,
            requests: self.requests - earlier.requests,
            demand_bytes: self.demand_bytes - earlier.demand_bytes,
            prefetch_bytes: self.prefetch_bytes - earlier.prefetch_bytes,
            demand_requests: self.demand_requests - earlier.demand_requests,
            prefetch_requests: self.prefetch_requests - earlier.prefetch_requests,
            queue_wait_nanos: self.queue_wait_nanos - earlier.queue_wait_nanos,
            service_nanos: self.service_nanos - earlier.service_nanos,
        }
    }
}

/// Wall-clock latency percentiles of one request kind, in nanoseconds.
///
/// Computed with the nearest-rank method from the per-request latencies the
/// file device records (submission to completion). All-zero when no request
/// of the kind completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Number of completed requests the percentiles are computed over.
    pub samples: u64,
    /// Median request latency.
    pub p50_nanos: u64,
    /// 95th-percentile request latency.
    pub p95_nanos: u64,
    /// 99th-percentile request latency.
    pub p99_nanos: u64,
}

impl LatencyPercentiles {
    /// Computes nearest-rank percentiles (via
    /// [`scanshare_common::quantile`]) from raw latency samples.
    pub fn from_unsorted_nanos(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let rank = |q: f64| scanshare_common::quantile::nearest_rank(&samples, q).unwrap();
        Self {
            samples: samples.len() as u64,
            p50_nanos: rank(0.50),
            p95_nanos: rank(0.95),
            p99_nanos: rank(0.99),
        }
    }
}

/// Per-kind wall-clock latency percentiles of a real device.
///
/// The simulated device does not report these (its per-request timings are
/// exact virtual quantities already captured in [`IoStats`]); the file device
/// measures every request with a wall clock and summarizes here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoLatency {
    /// Percentiles over demand (blocking) requests.
    pub demand: LatencyPercentiles,
    /// Percentiles over prefetch (asynchronous) requests.
    pub prefetch: LatencyPercentiles,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_since() {
        let read = |stats: &mut IoStats, bytes| {
            let zero = VirtualDuration::ZERO;
            stats.record_request(IoKind::Demand, bytes, zero, zero);
        };
        let mut a = IoStats::default();
        read(&mut a, 100);
        read(&mut a, 100);
        a.pages_read += 2;
        assert_eq!(a.bytes_read, 200);
        assert_eq!(a.requests, 2);
        assert_eq!(a.demand_bytes, 200);
        assert_eq!(a.demand_requests, 2);

        let mut b = a;
        read(&mut b, 1_000_000);
        b.pages_read += 1;
        let delta = b.since(&a);
        assert_eq!(delta.bytes_read, 1_000_000);
        assert_eq!(delta.pages_read, 1);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.demand_bytes, 1_000_000);
        assert_eq!(delta.demand_requests, 1);
        assert_eq!(a.since(&a), IoStats::default());
    }

    #[test]
    fn demand_and_prefetch_are_attributed_separately() {
        let mut s = IoStats::default();
        s.record_request(
            IoKind::Demand,
            100,
            VirtualDuration::from_nanos(10),
            VirtualDuration::from_nanos(40),
        );
        s.record_request(
            IoKind::Prefetch,
            300,
            VirtualDuration::from_nanos(30),
            VirtualDuration::from_nanos(60),
        );
        assert_eq!(s.bytes_read, 400);
        assert_eq!(s.demand_bytes, 100);
        assert_eq!(s.prefetch_bytes, 300);
        assert_eq!(s.demand_requests, 1);
        assert_eq!(s.prefetch_requests, 1);
        assert_eq!(s.demand_bytes + s.prefetch_bytes, s.bytes_read);
        assert_eq!(s.demand_requests + s.prefetch_requests, s.requests);
        assert_eq!(s.queue_wait_nanos, 40);
        assert_eq!(s.service_nanos, 100);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let p = LatencyPercentiles::from_unsorted_nanos((1..=100).rev().collect());
        assert_eq!(p.samples, 100);
        assert_eq!(p.p50_nanos, 50);
        assert_eq!(p.p95_nanos, 95);
        assert_eq!(p.p99_nanos, 99);

        let single = LatencyPercentiles::from_unsorted_nanos(vec![7]);
        assert_eq!(single.p50_nanos, 7);
        assert_eq!(single.p99_nanos, 7);

        assert_eq!(
            LatencyPercentiles::from_unsorted_nanos(Vec::new()),
            LatencyPercentiles::default()
        );
    }
}
