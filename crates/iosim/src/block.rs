//! The device abstraction shared by the simulated and real I/O backends.
//!
//! [`BlockDevice`] lifts the surface of the concrete [`IoDevice`] — demand
//! and prefetch submission, [`IoCompletion`] handles, [`IoStats`] — into an
//! object-safe trait so the engine, the scan backends and the workload
//! driver are written once and run against either the discrete-event
//! simulated device or the real [`FileIoDevice`](crate::file::FileIoDevice).
//!
//! The one semantic extension over the concrete device is that submission is
//! *fallible*: the simulated device never fails, but a real device can (and
//! the fault-injection wrapper does on purpose), so every submission returns
//! a `Result` and the callers surface typed errors instead of panicking.

use scanshare_common::{PageId, Result, VirtualInstant};

use crate::device::{IoCompletion, IoDevice};
use crate::stats::{IoKind, IoLatency, IoStats};

/// One read request handed to a [`BlockDevice`].
///
/// `targets` names the pages the request covers so a real device can issue
/// the corresponding positional reads; the simulated device ignores them and
/// charges `bytes` of virtual transfer time. An empty target list is an
/// *accounting-only* read: the simulated device behaves identically, a real
/// device completes it without touching storage.
#[derive(Debug, Clone, Copy)]
pub struct ReadSpec<'a> {
    /// Bytes the request transfers (what the simulated device charges and
    /// what [`IoStats`] accounts when no real read happens).
    pub bytes: u64,
    /// Pages the request covers, for page accounting.
    pub pages: u64,
    /// Demand or prefetch.
    pub kind: IoKind,
    /// The pages a real device should actually read.
    pub targets: &'a [PageId],
}

impl<'a> ReadSpec<'a> {
    /// A request over concrete pages: `targets.len()` pages of `page_size`
    /// bytes each, read as one sequential request.
    pub fn for_pages(targets: &'a [PageId], page_size: u64, kind: IoKind) -> Self {
        Self {
            bytes: targets.len() as u64 * page_size,
            pages: targets.len() as u64,
            kind,
            targets,
        }
    }

    /// An accounting-only request of `bytes` bytes with no page targets
    /// (used where only the transfer cost matters, e.g. calibration probes
    /// on the simulated device).
    pub fn accounting(bytes: u64, kind: IoKind) -> ReadSpec<'static> {
        ReadSpec {
            bytes,
            pages: 0,
            kind,
            targets: &[],
        }
    }
}

/// An I/O device serving page reads: either the bandwidth-limited simulated
/// device ([`IoDevice`]) or a real file-backed one
/// ([`FileIoDevice`](crate::file::FileIoDevice)).
///
/// All completion times are expressed in virtual time. The simulated device
/// computes them from its bandwidth/latency model; the file device measures
/// wall-clock durations and mirrors them onto the virtual timeline starting
/// at the submission instant, so the engine's virtual-time accounting keeps
/// working unchanged on real hardware.
pub trait BlockDevice: Send + Sync + std::fmt::Debug {
    /// Submits a read without blocking virtual time, returning a completion
    /// handle (for demand reads on a real device the call blocks the OS
    /// thread until the data is on its way to the page cache, but virtual
    /// time only advances when the caller waits on `done_at`).
    fn submit_read(&self, now: VirtualInstant, spec: ReadSpec<'_>) -> Result<IoCompletion>;

    /// Snapshot of the accumulated I/O statistics.
    fn stats(&self) -> IoStats;

    /// Resets the statistics (any busy horizon is kept).
    fn reset_stats(&self);

    /// The time at which the device becomes idle.
    fn busy_until(&self) -> VirtualInstant;

    /// Whether the device would be idle at `now`.
    fn is_idle_at(&self, now: VirtualInstant) -> bool {
        self.busy_until() <= now
    }

    /// Short device name for reports ("sim", "file", ...).
    fn name(&self) -> &'static str;

    /// Wall-clock latency percentiles, for devices that measure them (the
    /// simulated device returns `None`).
    fn latency(&self) -> Option<IoLatency> {
        None
    }
}

impl BlockDevice for IoDevice {
    fn submit_read(&self, now: VirtualInstant, spec: ReadSpec<'_>) -> Result<IoCompletion> {
        Ok(self.submit_internal(now, spec.bytes, spec.pages, spec.kind))
    }

    fn stats(&self) -> IoStats {
        IoDevice::stats(self)
    }

    fn reset_stats(&self) {
        IoDevice::reset_stats(self)
    }

    fn busy_until(&self) -> VirtualInstant {
        IoDevice::busy_until(self)
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::{Bandwidth, VirtualDuration};

    fn device() -> IoDevice {
        IoDevice::new(
            Bandwidth::from_mb_per_sec(100.0),
            VirtualDuration::from_micros(100),
        )
    }

    #[test]
    fn trait_submission_matches_the_inherent_device_model() {
        let a = device();
        let b = device();
        let pages = [PageId::new(1), PageId::new(2)];
        let via_trait = BlockDevice::submit_read(
            &a,
            VirtualInstant::EPOCH,
            ReadSpec::for_pages(&pages, 500_000, IoKind::Demand),
        )
        .unwrap();
        let inherent_done = b.submit(VirtualInstant::EPOCH, 1_000_000);
        assert_eq!(via_trait.done_at, inherent_done);
        // The inherent submission counts no pages; the trait one counts two.
        let expected = IoStats {
            pages_read: 2,
            ..b.stats()
        };
        assert_eq!(BlockDevice::stats(&a), expected);
    }

    #[test]
    fn trait_object_is_usable_and_never_fails_on_sim() {
        let dev: std::sync::Arc<dyn BlockDevice> = std::sync::Arc::new(device());
        assert_eq!(dev.name(), "sim");
        assert!(dev.latency().is_none());
        assert!(dev.is_idle_at(VirtualInstant::EPOCH));
        let c = dev
            .submit_read(
                VirtualInstant::EPOCH,
                ReadSpec::accounting(1_000_000, IoKind::Prefetch),
            )
            .unwrap();
        assert_eq!(c.done_at.as_nanos(), 100_000 + 10_000_000);
        assert_eq!(dev.stats().prefetch_bytes, 1_000_000);
        assert!(!dev.is_idle_at(VirtualInstant::EPOCH));
        dev.reset_stats();
        assert_eq!(dev.stats(), IoStats::default());
        assert_eq!(dev.busy_until(), c.done_at, "reset keeps the busy horizon");
    }
}
