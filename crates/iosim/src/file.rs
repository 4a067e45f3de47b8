//! A real file-backed I/O device.
//!
//! [`FileIoDevice`] serves the same [`BlockDevice`] surface as the simulated
//! device, but each request performs positional `pread`-style reads against
//! on-disk column segments through a [`PageReader`] (implemented by the
//! storage layer's file store).
//!
//! Demand reads run on the submitting thread (that is what "demand" means:
//! the scan cannot proceed without the data, so the submitter would only
//! block on a worker that did the read for it) and surface read failures as
//! typed errors. They never queue, so their queue wait is zero and their
//! latency is the service time alone.
//!
//! Prefetch reads are fire-and-forget: they go to a fixed pool of worker
//! threads fed from a bounded submission queue (once `queue_depth` prefetches
//! are waiting, further submitters block until a slot frees up), and the
//! submitter gets a completion whose `done_at` is an estimate from an
//! exponentially-weighted average of recent request latencies. A prefetch
//! that fails is simply dropped — the page will be re-read (and the error
//! surfaced deterministically) by the demand read that eventually needs it.
//!
//! Every request's wall-clock queue wait and service time are measured and
//! mirrored onto the virtual timeline relative to the submission instant, so
//! the engine's virtual-time accounting — and everything built on it, like
//! the prefetch window and the workload driver's virtual metrics — works
//! unchanged on real hardware. Per-request latencies are additionally kept
//! per [`IoKind`] and summarized as p50/p95/p99 percentiles
//! ([`IoLatency`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Instant;

use scanshare_common::sync::Mutex;
use scanshare_common::{Error, PageId, Result, VirtualDuration, VirtualInstant};

use crate::block::{BlockDevice, ReadSpec};
use crate::device::IoCompletion;
use crate::stats::{IoKind, IoLatency, IoStats, LatencyPercentiles};

/// Resolves a page id to backing storage and reads it.
///
/// Implemented by the storage layer's file store: a read locates the page's
/// (segment file, offset) slot, `pread`s it (optionally with `O_DIRECT`),
/// decodes it into the store's page cache and returns the number of bytes
/// read from disk. Keeping the trait here lets the device crate stay
/// independent of the storage crate.
pub trait PageReader: Send + Sync + std::fmt::Debug {
    /// Reads one page from backing storage, returning the bytes read.
    fn read_page(&self, page: PageId) -> std::io::Result<u64>;
}

/// Fallback `done_at` estimate for a prefetch submitted before any request
/// completed (no latency history yet): 200µs, the order of one page read
/// from a warm OS page cache.
const DEFAULT_PREFETCH_ESTIMATE_NANOS: u64 = 200_000;

/// How many times a read that failed with `ErrorKind::Interrupted` (EINTR)
/// is retried before giving up.
const EINTR_RETRIES: u32 = 8;

/// A queued prefetch.
#[derive(Debug)]
struct Job {
    targets: Vec<PageId>,
    bytes_hint: u64,
    pages: u64,
    enqueued: Instant,
}

#[derive(Debug, Default)]
struct SubmissionQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Debug)]
struct Metrics {
    stats: IoStats,
    busy_until: VirtualInstant,
    demand_latencies: Vec<u64>,
    prefetch_latencies: Vec<u64>,
}

#[derive(Debug)]
struct Shared {
    reader: Arc<dyn PageReader>,
    queue_depth: usize,
    queue: Mutex<SubmissionQueue>,
    job_ready: Condvar,
    slot_free: Condvar,
    metrics: Mutex<Metrics>,
    /// EWMA of recent total request latencies (queue wait + service), used
    /// to estimate prefetch completion times.
    ewma_latency_nanos: AtomicU64,
}

impl Shared {
    /// Reads every target page in order, or charges `bytes_hint` for an
    /// accounting-only request without targets. Returns the bytes read (or
    /// the first failure) and the service time in nanoseconds.
    fn read(&self, targets: &[PageId], bytes_hint: u64) -> (std::result::Result<u64, String>, u64) {
        let start = Instant::now();
        let bytes = if targets.is_empty() {
            Ok(bytes_hint)
        } else {
            targets.iter().try_fold(0u64, |bytes, &page| {
                read_page_retrying(&*self.reader, page)
                    .map(|n| bytes + n)
                    .map_err(|e| format!("reading page {page}: {e}"))
            })
        };
        (bytes, (start.elapsed().as_nanos() as u64).max(1))
    }

    /// Folds one request's total latency (queue wait + service) into the
    /// EWMA: alpha = 1/4, seeded with the first observation.
    fn observe_latency(&self, total_nanos: u64) {
        let _ = self
            .ewma_latency_nanos
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |prev| {
                Some(if prev == 0 {
                    total_nanos
                } else {
                    prev - prev / 4 + total_nanos / 4
                })
            });
    }
}

/// A [`BlockDevice`] reading real files: demand reads on the calling thread,
/// prefetches through a fixed worker pool.
#[derive(Debug)]
pub struct FileIoDevice {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl FileIoDevice {
    /// Creates a device with `workers` prefetch threads and a submission
    /// queue bounded at `queue_depth` outstanding prefetches.
    pub fn new(reader: Arc<dyn PageReader>, workers: usize, queue_depth: usize) -> Self {
        assert!(workers >= 1, "the worker pool needs at least one thread");
        assert!(queue_depth >= 1, "the submission queue needs capacity");
        let shared = Arc::new(Shared {
            reader,
            queue_depth,
            queue: Mutex::new(SubmissionQueue::default()),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            metrics: Mutex::new(Metrics {
                stats: IoStats::default(),
                busy_until: VirtualInstant::EPOCH,
                demand_latencies: Vec::new(),
                prefetch_latencies: Vec::new(),
            }),
            ewma_latency_nanos: AtomicU64::new(0),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fileio-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning an I/O worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues a prefetch, blocking while the submission queue is full.
    fn enqueue(&self, job: Job) -> Result<()> {
        let mut queue = self.shared.queue.lock();
        loop {
            if queue.shutdown {
                return Err(Error::io("file I/O worker pool is shut down"));
            }
            if queue.jobs.len() < self.shared.queue_depth {
                queue.jobs.push_back(job);
                self.shared.job_ready.notify_one();
                return Ok(());
            }
            queue = self
                .shared
                .slot_free
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for FileIoDevice {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock();
            queue.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.slot_free.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn read_page_retrying(reader: &dyn PageReader, page: PageId) -> std::io::Result<u64> {
    let mut attempts = 0;
    loop {
        match reader.read_page(page) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted && attempts < EINTR_RETRIES => {
                attempts += 1;
            }
            other => return other,
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    shared.slot_free.notify_one();
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        let queue_wait_nanos = job.enqueued.elapsed().as_nanos() as u64;
        let (bytes, service_nanos) = shared.read(&job.targets, job.bytes_hint);
        shared.observe_latency(queue_wait_nanos + service_nanos);
        // A failed prefetch is dropped: the demand read that needs the page
        // re-reads it and surfaces the error.
        let Ok(bytes) = bytes else {
            continue;
        };
        let mut metrics = shared.metrics.lock();
        metrics.stats.record_request(
            IoKind::Prefetch,
            bytes,
            VirtualDuration::from_nanos(queue_wait_nanos),
            VirtualDuration::from_nanos(service_nanos),
        );
        metrics.stats.pages_read += job.pages;
        metrics
            .prefetch_latencies
            .push(queue_wait_nanos + service_nanos);
    }
}

impl BlockDevice for FileIoDevice {
    fn submit_read(&self, now: VirtualInstant, spec: ReadSpec<'_>) -> Result<IoCompletion> {
        match spec.kind {
            IoKind::Demand => {
                let (bytes, service_nanos) = self.shared.read(spec.targets, spec.bytes);
                self.shared.observe_latency(service_nanos);
                let bytes = bytes.map_err(Error::io)?;
                let service = VirtualDuration::from_nanos(service_nanos);
                let done_at = now.after(service);
                let mut metrics = self.shared.metrics.lock();
                metrics
                    .stats
                    .record_request(spec.kind, bytes, VirtualDuration::ZERO, service);
                metrics.stats.pages_read += spec.pages;
                metrics.demand_latencies.push(service_nanos);
                if done_at > metrics.busy_until {
                    metrics.busy_until = done_at;
                }
                Ok(IoCompletion {
                    submitted_at: now,
                    started_at: now,
                    done_at,
                    bytes,
                    kind: spec.kind,
                })
            }
            IoKind::Prefetch => {
                self.enqueue(Job {
                    targets: spec.targets.to_vec(),
                    bytes_hint: spec.bytes,
                    pages: spec.pages,
                    enqueued: Instant::now(),
                })?;
                let estimate = self.shared.ewma_latency_nanos.load(Ordering::Acquire);
                let estimate = if estimate == 0 {
                    DEFAULT_PREFETCH_ESTIMATE_NANOS
                } else {
                    estimate
                };
                Ok(IoCompletion {
                    submitted_at: now,
                    started_at: now,
                    done_at: now.after(VirtualDuration::from_nanos(estimate)),
                    bytes: spec.bytes,
                    kind: spec.kind,
                })
            }
        }
    }

    fn stats(&self) -> IoStats {
        self.shared.metrics.lock().stats
    }

    fn reset_stats(&self) {
        let mut metrics = self.shared.metrics.lock();
        metrics.stats = IoStats::default();
        metrics.demand_latencies.clear();
        metrics.prefetch_latencies.clear();
    }

    fn busy_until(&self) -> VirtualInstant {
        self.shared.metrics.lock().busy_until
    }

    fn name(&self) -> &'static str {
        "file"
    }

    fn latency(&self) -> Option<IoLatency> {
        let metrics = self.shared.metrics.lock();
        Some(IoLatency {
            demand: LatencyPercentiles::from_unsorted_nanos(metrics.demand_latencies.clone()),
            prefetch: LatencyPercentiles::from_unsorted_nanos(metrics.prefetch_latencies.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::mpsc;
    use std::time::Duration;

    /// How long a test waits for a worker before it fails instead of
    /// hanging.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Holds every read of `page` until `open` receives (or loses its
    /// sender), after telling `entered` that the read began.
    #[derive(Debug)]
    struct Gate {
        page: PageId,
        entered: Mutex<mpsc::Sender<()>>,
        open: Mutex<mpsc::Receiver<()>>,
    }

    /// A reader that serves `page_bytes` per page, optionally failing a
    /// configured page id or holding a gated one.
    #[derive(Debug)]
    struct MockReader {
        page_bytes: u64,
        fail_page: Option<PageId>,
        gate: Option<Gate>,
        eintr_budget: Mutex<u32>,
        reads: AtomicU64,
    }

    impl MockReader {
        fn new(page_bytes: u64) -> Self {
            Self {
                page_bytes,
                fail_page: None,
                gate: None,
                eintr_budget: Mutex::new(0),
                reads: AtomicU64::new(0),
            }
        }
    }

    impl PageReader for MockReader {
        fn read_page(&self, page: PageId) -> std::io::Result<u64> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            {
                let mut budget = self.eintr_budget.lock();
                if *budget > 0 {
                    *budget -= 1;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "EINTR",
                    ));
                }
            }
            if let Some(gate) = self.gate.as_ref().filter(|g| g.page == page) {
                let _ = gate.entered.lock().send(());
                let _ = gate.open.lock().recv();
            }
            if self.fail_page == Some(page) {
                return Err(std::io::Error::other("injected EIO"));
            }
            Ok(self.page_bytes)
        }
    }

    fn pages(n: u64) -> Vec<PageId> {
        (0..n).map(PageId::new).collect()
    }

    /// Polls the device's counters until `done` holds, failing after
    /// [`PATIENCE`]: prefetches complete on the worker pool, out of the
    /// submitter's sight.
    fn wait_for(dev: &FileIoDevice, done: impl Fn(&IoStats) -> bool) -> IoStats {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let stats = BlockDevice::stats(dev);
            if done(&stats) {
                return stats;
            }
            assert!(
                Instant::now() < deadline,
                "prefetches still pending: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn demand_reads_complete_with_measured_wall_times() {
        let reader = Arc::new(MockReader::new(4096));
        let dev = FileIoDevice::new(Arc::clone(&reader) as Arc<dyn PageReader>, 2, 8);
        let targets = pages(3);
        let now = VirtualInstant::from_nanos(5_000);
        let c = dev
            .submit_read(now, ReadSpec::for_pages(&targets, 4096, IoKind::Demand))
            .unwrap();
        assert_eq!(c.bytes, 3 * 4096);
        assert_eq!(c.submitted_at, now);
        assert!(c.started_at >= c.submitted_at);
        assert!(c.done_at > c.started_at);
        let stats = BlockDevice::stats(&dev);
        assert_eq!(stats.demand_requests, 1);
        assert_eq!(stats.bytes_read, 3 * 4096);
        assert_eq!(stats.pages_read, 3);
        assert_eq!(reader.reads.load(Ordering::Relaxed), 3);
        let latency = dev.latency().unwrap();
        assert_eq!(latency.demand.samples, 1);
        assert!(latency.demand.p50_nanos > 0);
    }

    #[test]
    fn read_failures_surface_as_typed_errors() {
        let reader = Arc::new(MockReader {
            fail_page: Some(PageId::new(1)),
            ..MockReader::new(4096)
        });
        let dev = FileIoDevice::new(reader as Arc<dyn PageReader>, 1, 4);
        let targets = pages(3);
        let err = dev
            .submit_read(
                VirtualInstant::EPOCH,
                ReadSpec::for_pages(&targets, 4096, IoKind::Demand),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)));
        assert!(err.to_string().contains("injected EIO"));
        // The failed request is not counted as completed I/O.
        assert_eq!(BlockDevice::stats(&dev).demand_requests, 0);
    }

    #[test]
    fn eintr_is_retried_transparently() {
        let reader = Arc::new(MockReader {
            eintr_budget: Mutex::new(3),
            ..MockReader::new(1024)
        });
        let reads = {
            let dev = FileIoDevice::new(Arc::clone(&reader) as Arc<dyn PageReader>, 1, 4);
            let targets = pages(1);
            let c = dev
                .submit_read(
                    VirtualInstant::EPOCH,
                    ReadSpec::for_pages(&targets, 1024, IoKind::Demand),
                )
                .unwrap();
            assert_eq!(c.bytes, 1024);
            reader.reads.load(Ordering::Relaxed)
        };
        assert_eq!(reads, 4, "three EINTRs then one success");
    }

    #[test]
    fn prefetch_is_fire_and_forget_and_failures_are_dropped() {
        let reader = Arc::new(MockReader {
            fail_page: Some(PageId::new(0)),
            ..MockReader::new(4096)
        });
        let dev = FileIoDevice::new(reader as Arc<dyn PageReader>, 1, 4);
        let bad = [PageId::new(0)];
        let good = [PageId::new(7)];
        let c = dev
            .submit_read(
                VirtualInstant::EPOCH,
                ReadSpec::for_pages(&bad, 4096, IoKind::Prefetch),
            )
            .unwrap();
        assert!(c.done_at > VirtualInstant::EPOCH, "estimated completion");
        dev.submit_read(
            VirtualInstant::EPOCH,
            ReadSpec::for_pages(&good, 4096, IoKind::Prefetch),
        )
        .unwrap();
        // The single worker runs the prefetches in order, so once the good
        // one is counted the failed one has been dropped.
        let stats = wait_for(&dev, |s| s.prefetch_requests >= 1);
        assert_eq!(stats.prefetch_requests, 1);
        assert_eq!(stats.prefetch_bytes, 4096);
    }

    #[test]
    fn bounded_queue_accepts_bursts_beyond_depth() {
        let reader = Arc::new(MockReader::new(512));
        let dev = FileIoDevice::new(reader as Arc<dyn PageReader>, 1, 2);
        // Far more submissions than queue depth: submitters block for slots
        // instead of erroring or growing without bound.
        for i in 0..32u64 {
            let target = [PageId::new(i)];
            dev.submit_read(
                VirtualInstant::EPOCH,
                ReadSpec::for_pages(&target, 512, IoKind::Prefetch),
            )
            .unwrap();
        }
        let stats = wait_for(&dev, |s| s.prefetch_requests >= 32);
        assert_eq!(stats.prefetch_requests, 32);
    }

    #[test]
    fn demand_reads_do_not_wait_behind_a_blocked_prefetch() {
        let (entered, worker_entered) = mpsc::channel();
        let (open, gate) = mpsc::channel();
        let reader = Arc::new(MockReader {
            gate: Some(Gate {
                page: PageId::new(0),
                entered: Mutex::new(entered),
                open: Mutex::new(gate),
            }),
            ..MockReader::new(4096)
        });
        let dev = Arc::new(FileIoDevice::new(reader as Arc<dyn PageReader>, 1, 4));
        let gated = [PageId::new(0)];
        dev.submit_read(
            VirtualInstant::EPOCH,
            ReadSpec::for_pages(&gated, 4096, IoKind::Prefetch),
        )
        .unwrap();
        worker_entered
            .recv_timeout(PATIENCE)
            .expect("the only worker is inside the gated read");
        let (done, result) = mpsc::channel();
        let demand = {
            let dev = Arc::clone(&dev);
            std::thread::spawn(move || {
                let target = [PageId::new(1)];
                let read = dev.submit_read(
                    VirtualInstant::EPOCH,
                    ReadSpec::for_pages(&target, 4096, IoKind::Demand),
                );
                let _ = done.send(read.map(|c| c.bytes));
            })
        };
        let bytes = result.recv_timeout(PATIENCE);
        // Release the worker before asserting, so a failure does not hang.
        open.send(()).unwrap();
        let bytes = bytes.expect("the demand read waited behind the blocked prefetch");
        assert_eq!(bytes.unwrap(), 4096);
        demand.join().unwrap();
        let stats = wait_for(&dev, |s| s.prefetch_requests >= 1);
        assert_eq!(stats.demand_requests, 1);
        assert_eq!(stats.prefetch_requests, 1);
    }

    #[test]
    fn drop_joins_the_worker_pool() {
        let reader = Arc::new(MockReader::new(512));
        let dev = FileIoDevice::new(reader as Arc<dyn PageReader>, 4, 8);
        for i in 0..16u64 {
            let target = [PageId::new(i)];
            dev.submit_read(
                VirtualInstant::EPOCH,
                ReadSpec::for_pages(&target, 512, IoKind::Prefetch),
            )
            .unwrap();
        }
        drop(dev); // must not hang or leak threads
    }
}
