//! A bandwidth-limited I/O device in virtual time.
//!
//! The device serves page-load requests sequentially: a request issued while
//! the device is busy queues behind the in-flight transfers (FIFO service
//! order). Each request pays a fixed latency (seek / queueing overhead) plus
//! `bytes / bandwidth` transfer time. This reproduces the paper's
//! experimental knob of limiting the rate of page delivery from the storage
//! layer to the buffer manager.
//!
//! Requests come in two flavours ([`IoKind`]): *demand* reads a scan blocks
//! on ([`IoDevice::submit`]), and *prefetch* reads issued asynchronously
//! ahead of the scan cursor ([`IoDevice::submit_async`]). Asynchronous
//! submission returns an [`IoCompletion`] handle instead of blocking the
//! caller's virtual time, so the caller can overlap the transfer with
//! computation and only wait (via the completion's `done_at`) when it
//! actually consumes the data.

use scanshare_common::sync::Mutex;

use scanshare_common::{Bandwidth, VirtualDuration, VirtualInstant};

use crate::stats::{IoKind, IoStats};

/// The per-request completion handle returned by [`IoDevice::submit_async`].
///
/// All times are in virtual time. `started_at - submitted_at` is the queue
/// wait behind earlier transfers; `done_at - started_at` is the service time
/// (fixed latency plus transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// When the request entered the device queue.
    pub submitted_at: VirtualInstant,
    /// When the device started serving the request (end of queue wait).
    pub started_at: VirtualInstant,
    /// When the transfer completes; waiting callers resume here.
    pub done_at: VirtualInstant,
    /// Transferred bytes.
    pub bytes: u64,
    /// Demand or prefetch.
    pub kind: IoKind,
}

impl IoCompletion {
    /// Time the request spent queued behind earlier transfers.
    pub fn queue_wait(&self) -> VirtualDuration {
        self.started_at.since(self.submitted_at)
    }
}

#[derive(Debug)]
struct DeviceState {
    busy_until: VirtualInstant,
    stats: IoStats,
}

/// A shared, bandwidth-limited sequential I/O device.
#[derive(Debug)]
pub struct IoDevice {
    bandwidth: Bandwidth,
    request_latency: VirtualDuration,
    state: Mutex<DeviceState>,
}

impl IoDevice {
    /// Creates a device with the given bandwidth and fixed per-request
    /// latency.
    pub fn new(bandwidth: Bandwidth, request_latency: VirtualDuration) -> Self {
        Self {
            bandwidth,
            request_latency,
            state: Mutex::new(DeviceState {
                busy_until: VirtualInstant::EPOCH,
                stats: IoStats::default(),
            }),
        }
    }

    /// The configured bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The configured per-request latency.
    pub fn request_latency(&self) -> VirtualDuration {
        self.request_latency
    }

    /// Enqueues a read of `bytes` bytes at virtual time `now` without
    /// blocking, returning a completion handle. Requests are served strictly
    /// in submission order; a request issued while the device is busy starts
    /// when the device frees up.
    ///
    /// This is the primitive behind asynchronous prefetching: the caller
    /// keeps computing while the transfer is in flight and only waits for
    /// [`IoCompletion::done_at`] when it consumes the data.
    pub fn submit_async(&self, now: VirtualInstant, bytes: u64, kind: IoKind) -> IoCompletion {
        self.submit_internal(now, bytes, 0, kind)
    }

    pub(crate) fn submit_internal(
        &self,
        now: VirtualInstant,
        bytes: u64,
        pages: u64,
        kind: IoKind,
    ) -> IoCompletion {
        let mut state = self.state.lock();
        let start = if state.busy_until > now {
            state.busy_until
        } else {
            now
        };
        let service = self.request_latency + self.bandwidth.transfer_time(bytes);
        let done = start.after(service);
        state.busy_until = done;
        state
            .stats
            .record_request(kind, bytes, start.since(now), service);
        state.stats.pages_read += pages;
        IoCompletion {
            submitted_at: now,
            started_at: start,
            done_at: done,
            bytes,
            kind,
        }
    }

    /// Submits a blocking (demand) read of `bytes` bytes at virtual time
    /// `now` and returns the completion time.
    pub fn submit(&self, now: VirtualInstant, bytes: u64) -> VirtualInstant {
        self.submit_async(now, bytes, IoKind::Demand).done_at
    }

    /// The time at which the device becomes idle.
    pub fn busy_until(&self) -> VirtualInstant {
        self.state.lock().busy_until
    }

    /// Snapshot of the accumulated I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.state.lock().stats
    }

    /// Resets the statistics (the busy horizon is kept).
    pub fn reset_stats(&self) {
        self.state.lock().stats = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Time the device spent serving `c` (latency + transfer).
    fn service(c: &IoCompletion) -> VirtualDuration {
        c.done_at.since(c.started_at)
    }

    fn device(mb_per_sec: f64) -> IoDevice {
        IoDevice::new(
            Bandwidth::from_mb_per_sec(mb_per_sec),
            VirtualDuration::from_micros(100),
        )
    }

    #[test]
    fn single_request_takes_latency_plus_transfer() {
        let dev = device(100.0); // 100 MB/s
        let done = dev.submit(VirtualInstant::EPOCH, 1_000_000); // 1 MB
                                                                 // 100us latency + 10ms transfer
        assert_eq!(done.as_nanos(), 100_000 + 10_000_000);
        assert_eq!(dev.stats().bytes_read, 1_000_000);
        assert_eq!(dev.stats().requests, 1);
        assert_eq!(dev.stats().demand_bytes, 1_000_000);
        assert_eq!(dev.stats().prefetch_bytes, 0);
    }

    #[test]
    fn queued_requests_serialize() {
        let dev = device(100.0);
        let first = dev.submit(VirtualInstant::EPOCH, 1_000_000);
        let second = dev.submit(VirtualInstant::EPOCH, 1_000_000);
        assert!(second > first);
        assert_eq!(second.as_nanos(), 2 * first.as_nanos());
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let dev = device(100.0);
        let first = dev.submit(VirtualInstant::EPOCH, 1_000_000);
        // Submit long after the device went idle: starts immediately.
        let later = first.after(VirtualDuration::from_secs(1));
        let second = dev.submit(later, 1_000_000);
        assert_eq!(second.since(later), first.since(VirtualInstant::EPOCH));
    }

    #[test]
    fn faster_bandwidth_means_shorter_transfers() {
        let slow = device(200.0);
        let fast = device(2000.0);
        let t_slow = slow.submit(VirtualInstant::EPOCH, 10_000_000);
        let t_fast = fast.submit(VirtualInstant::EPOCH, 10_000_000);
        assert!(t_fast < t_slow);
    }

    #[test]
    fn busy_until_and_reset_stats() {
        let dev = device(100.0);
        assert_eq!(dev.busy_until(), VirtualInstant::EPOCH);
        let done = dev.submit(VirtualInstant::EPOCH, 500_000);
        assert_eq!(dev.busy_until(), done);
        dev.reset_stats();
        assert_eq!(dev.stats().bytes_read, 0);
        assert_eq!(dev.busy_until(), done, "reset_stats keeps the busy horizon");
    }

    #[test]
    fn async_submission_does_not_block_but_keeps_fifo_order() {
        let dev = device(100.0);
        let now = VirtualInstant::EPOCH;
        // A prefetch issued first is served first; the demand read behind it
        // queues until the prefetch transfer finishes.
        let prefetch = dev.submit_async(now, 1_000_000, IoKind::Prefetch);
        let demand = dev.submit_async(now, 1_000_000, IoKind::Demand);
        assert_eq!(prefetch.queue_wait(), VirtualDuration::ZERO);
        assert_eq!(demand.started_at, prefetch.done_at);
        assert_eq!(demand.queue_wait(), service(&prefetch));
        assert_eq!(service(&demand), service(&prefetch));
        assert!(demand.done_at > prefetch.done_at);

        let stats = dev.stats();
        assert_eq!(stats.demand_bytes + stats.prefetch_bytes, stats.bytes_read);
        assert_eq!(stats.prefetch_requests, 1);
        assert_eq!(stats.demand_requests, 1);
        assert_eq!(stats.queue_wait_nanos, demand.queue_wait().as_nanos());
        assert_eq!(
            stats.service_nanos,
            service(&prefetch).as_nanos() + service(&demand).as_nanos()
        );
    }

    #[test]
    fn completion_windows_attribute_wait_and_service() {
        let dev = device(100.0);
        let a = dev.submit_async(VirtualInstant::EPOCH, 2_000_000, IoKind::Demand);
        // Submitted mid-transfer: waits for `a`, then pays its own service.
        let mid = VirtualInstant::from_nanos(a.done_at.as_nanos() / 2);
        let b = dev.submit_async(mid, 1_000_000, IoKind::Prefetch);
        assert_eq!(b.submitted_at, mid);
        assert_eq!(b.started_at, a.done_at);
        assert_eq!(b.done_at, b.started_at.after(service(&b)));
        assert_eq!(
            b.done_at.since(b.submitted_at),
            b.queue_wait() + service(&b),
            "queue wait and service time partition the request's latency"
        );
    }
}
