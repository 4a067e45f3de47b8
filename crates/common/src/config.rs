//! Workspace-level configuration.
//!
//! [`ScanShareConfig`] captures the knobs that the paper's evaluation section
//! sweeps: buffer pool size, I/O bandwidth and chunk granularity. The CPU
//! processing rate that determines when a workload turns CPU-bound is not
//! one of them: it is the cost model's fixed
//! [`CPU_TUPLES_PER_SEC`](crate::clock::CPU_TUPLES_PER_SEC), which the
//! bandwidth sweep is measured against. Policy specific tuning (PBM bucket
//! layout, ABM relevance weights) is fixed in code next to the policies in
//! `scanshare-core`.

use std::path::PathBuf;

use crate::clock::Bandwidth;
use crate::error::{Error, Result};

/// Which concurrent-scan buffer-management policy to run.
///
/// These are exactly the four lines in every figure of the paper's
/// evaluation: traditional LRU buffering, Cooperative Scans, Predictive
/// Buffer Management and the OPT oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Traditional buffer management: scans issue page requests in order and
    /// the pool evicts the least-recently-used page.
    Lru,
    /// Cooperative Scans: an Active Buffer Manager takes over load/evict and
    /// chunk-dispatch decisions; CScan operators accept data out of order.
    CScan,
    /// Predictive Buffer Management: scans report progress, the pool evicts
    /// the page whose estimated next consumption is furthest in the future.
    Pbm,
    /// Belady's OPT replayed over a previously recorded page-reference trace;
    /// the theoretical lower bound for order-preserving policies.
    Opt,
}

impl PolicyKind {
    /// All policies, in the order the paper's figures list them.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::CScan,
        PolicyKind::Pbm,
        PolicyKind::Opt,
    ];

    /// Short lowercase name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::CScan => "cscan",
            PolicyKind::Pbm => "pbm",
            PolicyKind::Opt => "opt",
        }
    }

    /// Parses a policy name (case-insensitive).
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "cscan" | "cscans" | "abm" => Ok(PolicyKind::CScan),
            "pbm" => Ok(PolicyKind::Pbm),
            "opt" | "belady" | "min" => Ok(PolicyKind::Opt),
            other => Err(Error::config(format!("unknown policy {other:?}"))),
        }
    }

    /// Whether the policy preserves the order of page references issued by
    /// scans (true for everything except Cooperative Scans).
    pub fn is_order_preserving(self) -> bool {
        !matches!(self, PolicyKind::CScan)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        Self::parse(s)
    }
}

/// Which I/O device backs the engine's scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceKind {
    /// The discrete-event simulated device: bandwidth-limited FIFO in virtual
    /// time, perfectly deterministic. The default, and what every paper
    /// figure runs on.
    #[default]
    Sim,
    /// A real file-backed device: positional reads against on-disk column
    /// segment files (demand reads on the calling thread, prefetches off a
    /// fixed worker pool), measuring wall-clock latency.
    /// Requires the engine's `Storage` to have a file store attached (tables
    /// materialized to, or reopened from, a directory).
    File,
}

impl DeviceKind {
    /// Short lowercase name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Sim => "sim",
            DeviceKind::File => "file",
        }
    }

    /// Parses a device name (case-insensitive).
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "sim" | "simulated" | "iosim" => Ok(DeviceKind::Sim),
            "file" | "disk" => Ok(DeviceKind::File),
            other => Err(Error::config(format!("unknown device {other:?}"))),
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DeviceKind {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        Self::parse(s)
    }
}

/// Top-level configuration shared by the storage layer, the buffer manager,
/// the execution engine and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanShareConfig {
    /// Size of a storage page in bytes. Vectorwise uses large pages; the
    /// default here is 256 KiB.
    pub page_size_bytes: u64,
    /// Number of consecutive tuples (SIDs) forming one chunk, the scheduling
    /// granularity of the Active Buffer Manager ("at least a few hundreds of
    /// thousands of tuples").
    pub chunk_tuples: u64,
    /// Capacity of the buffer pool in bytes.
    pub buffer_pool_bytes: u64,
    /// Simulated sequential bandwidth of the I/O subsystem.
    pub io_bandwidth: Bandwidth,
    /// Fixed per-request latency of the I/O subsystem (seek/queueing cost).
    pub io_latency_nanos: u64,
    /// Which buffer-management policy to run.
    pub policy: PolicyKind,
    /// Size of the asynchronous prefetch window, in pages, maintained by the
    /// page-level backends: up to this many predicted-next pages are kept in
    /// flight on the I/O device ahead of the scan cursors, so transfers
    /// overlap with computation. The window is topped up when a scan
    /// registers and at each page request that misses or consumes a window
    /// slot, in both executors. `0` (the default) disables prefetching and
    /// reproduces the fully synchronous model of the paper's figures. Which
    /// pages get prefetched is decided by the replacement policy's
    /// `prefetch_hints` (PBM ranks by predicted next-consumption time, LRU
    /// falls back to sequential readahead).
    pub prefetch_pages: usize,
    /// Name of a custom replacement policy registered with a
    /// `PolicyRegistry`, overriding the page-level policy that `policy`
    /// would select. The engine keeps `policy`'s family semantics (OPT trace
    /// recording stays on under `PolicyKind::Opt`); combining a custom
    /// policy with `PolicyKind::CScan` is rejected, as Cooperative Scans
    /// replace the page-level pool wholesale.
    pub custom_policy: Option<String>,
    /// Which I/O device backs the engine ([`DeviceKind::Sim`] by default).
    /// With [`DeviceKind::File`] the engine reads on-disk column segments
    /// (demand reads on the scanning thread, prefetches through a worker
    /// pool) and `io_bandwidth`/`io_latency_nanos` only seed the
    /// virtual-time mirror of measured wall latencies.
    pub device: DeviceKind,
    /// Number of worker threads the file device uses for prefetch reads.
    /// Demand reads run on the thread that waits for them. Ignored by the
    /// simulated device.
    pub io_workers: usize,
    /// Directory holding the engine's durable state: on-disk column
    /// segments, per-table manifests and the `wal.log` write-ahead log.
    /// `None` (the default) keeps commits memory-only, reproducing the
    /// pre-durability behaviour. When set, the engine materializes any
    /// table that has no durable image yet, logs every `Txn::commit`
    /// (and autocommit) to the WAL before acknowledging it, and brackets
    /// checkpoints with begin/end markers so `Engine::recover` can
    /// rebuild exactly the committed state after a crash.
    pub wal_dir: Option<PathBuf>,
    /// Group-commit window for the WAL: a commit's `fsync` is deferred
    /// until this many commit records have accumulated since the last
    /// sync (checkpoint markers always sync immediately). `1` (the
    /// default) makes every commit individually durable; larger values
    /// amortize the fsync over the window at the cost of losing up to
    /// `wal_group_commit - 1` most-recent commits on a crash — always a
    /// consistent prefix, never a torn state. Ignored without `wal_dir`.
    pub wal_group_commit: usize,
    /// Whether scans consult per-chunk min/max zone metadata to skip chunks
    /// their predicate disqualifies (data skipping). Pruning happens before
    /// the buffer-management backend sees the chunk list, so skipped chunks
    /// never register with the ABM's relevance machinery or PBM's
    /// consumption predictions. `true` (the default) is safe: a query
    /// without a predicate, or a scan over a table whose pending updates
    /// could change predicate outcomes, prunes nothing and behaves exactly
    /// as before.
    pub zone_maps: bool,
    /// Number of OS worker threads in the morsel-driven task scheduler that
    /// executes query sessions (the `WorkloadDriver` and the serving layer
    /// both run on it). Each logical session is a cooperative task that
    /// yields at scan batch boundaries, so thousands of concurrent sessions
    /// multiplex onto this many threads, all taking tasks from one shared
    /// run queue. The default (8) matches the paper's 8-thread evaluation
    /// host; `1` serializes every session onto one thread (useful for
    /// deterministic debugging — results are identical at any worker
    /// count).
    pub scheduler_workers: usize,
}

impl Default for ScanShareConfig {
    fn default() -> Self {
        Self {
            page_size_bytes: 256 * 1024,
            chunk_tuples: 262_144,
            buffer_pool_bytes: 512 * 1024 * 1024,
            io_bandwidth: Bandwidth::from_mb_per_sec(700.0),
            io_latency_nanos: 100_000, // 0.1 ms per request
            policy: PolicyKind::Pbm,
            prefetch_pages: 0,
            custom_policy: None,
            device: DeviceKind::Sim,
            io_workers: 4,
            wal_dir: None,
            wal_group_commit: 1,
            zone_maps: true,
            scheduler_workers: 8,
        }
    }
}

impl ScanShareConfig {
    /// Validates the configuration, returning a descriptive error for any
    /// nonsensical value.
    pub fn validate(&self) -> Result<()> {
        if self.page_size_bytes == 0 {
            return Err(Error::config("page_size_bytes must be positive"));
        }
        if self.chunk_tuples == 0 {
            return Err(Error::config("chunk_tuples must be positive"));
        }
        if self.buffer_pool_bytes < self.page_size_bytes {
            return Err(Error::config(
                "buffer_pool_bytes must hold at least one page",
            ));
        }
        if self.prefetch_pages > 0 && self.prefetch_pages as u64 >= self.buffer_pool_pages() as u64
        {
            return Err(Error::config(
                "prefetch_pages must be smaller than the buffer pool: the window only \
                 fills free capacity (prefetch never evicts), so a window at least as \
                 large as the pool can never be satisfied",
            ));
        }
        if self.custom_policy.is_some() && self.policy == PolicyKind::CScan {
            return Err(Error::config(
                "custom_policy selects a page-level replacement policy and cannot be \
                 combined with PolicyKind::CScan (the ABM replaces the pool wholesale)",
            ));
        }
        if self.io_workers == 0 {
            return Err(Error::config("io_workers must be at least 1"));
        }
        if self.wal_group_commit == 0 {
            return Err(Error::config("wal_group_commit must be at least 1"));
        }
        if self.scheduler_workers == 0 {
            return Err(Error::config("scheduler_workers must be at least 1"));
        }
        Ok(())
    }

    /// Buffer pool capacity expressed in whole pages.
    pub fn buffer_pool_pages(&self) -> usize {
        (self.buffer_pool_bytes / self.page_size_bytes) as usize
    }

    /// Returns a copy selecting a custom registered replacement policy.
    pub fn with_custom_policy(mut self, name: impl Into<String>) -> Self {
        self.custom_policy = Some(name.into());
        self
    }

    /// Returns a copy selecting a different I/O device (see
    /// [`ScanShareConfig::device`]).
    pub fn with_device(mut self, device: DeviceKind) -> Self {
        self.device = device;
        self
    }

    /// Returns a copy enabling durability: segments, manifests and the
    /// write-ahead log live under `dir` (see
    /// [`ScanShareConfig::wal_dir`]).
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Returns a copy with a different group-commit window (see
    /// [`ScanShareConfig::wal_group_commit`]); `1` makes every commit
    /// individually durable.
    pub fn with_wal_group_commit(mut self, window: usize) -> Self {
        self.wal_group_commit = window;
        self
    }

    /// Returns a copy with a different task-scheduler worker pool size (see
    /// [`ScanShareConfig::scheduler_workers`]); `1` serializes every session
    /// onto one thread.
    pub fn with_scheduler_workers(mut self, workers: usize) -> Self {
        self.scheduler_workers = workers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ScanShareConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_zero_page_size() {
        let cfg = ScanShareConfig {
            page_size_bytes: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_tiny_buffer_pool() {
        let cfg = ScanShareConfig {
            buffer_pool_bytes: 10,
            page_size_bytes: 4096,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn buffer_pool_pages_is_floor_division() {
        let cfg = ScanShareConfig {
            page_size_bytes: 1000,
            buffer_pool_bytes: 2500,
            ..Default::default()
        };
        assert_eq!(cfg.buffer_pool_pages(), 2);
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()).unwrap(), p);
        }
        assert_eq!(PolicyKind::parse("CScans").unwrap(), PolicyKind::CScan);
        assert_eq!(PolicyKind::parse("belady").unwrap(), PolicyKind::Opt);
        assert!(PolicyKind::parse("mru").is_err());
    }

    #[test]
    fn only_cscan_reorders_accesses() {
        assert!(PolicyKind::Lru.is_order_preserving());
        assert!(PolicyKind::Pbm.is_order_preserving());
        assert!(PolicyKind::Opt.is_order_preserving());
        assert!(!PolicyKind::CScan.is_order_preserving());
    }

    #[test]
    fn device_kind_parses_and_defaults_to_sim() {
        assert_eq!(ScanShareConfig::default().device, DeviceKind::Sim);
        assert_eq!(DeviceKind::parse("sim").unwrap(), DeviceKind::Sim);
        assert_eq!(DeviceKind::parse("File").unwrap(), DeviceKind::File);
        assert_eq!(DeviceKind::parse("disk").unwrap(), DeviceKind::File);
        assert!(DeviceKind::parse("tape").is_err());
        assert_eq!(DeviceKind::File.to_string(), "file");
    }

    #[test]
    fn builder_helpers_modify_fields() {
        let cfg = ScanShareConfig::default()
            .with_custom_policy("fifo")
            .with_device(DeviceKind::File)
            .with_scheduler_workers(3);
        assert_eq!(cfg.custom_policy.as_deref(), Some("fifo"));
        assert_eq!(cfg.device, DeviceKind::File);
        assert_eq!(cfg.scheduler_workers, 3);
        cfg.validate().unwrap();
    }

    #[test]
    fn file_device_knobs_validate() {
        let cfg = ScanShareConfig {
            io_workers: 2,
            ..ScanShareConfig::default().with_device(DeviceKind::File)
        };
        cfg.validate().unwrap();
        let cfg = ScanShareConfig {
            io_workers: 0,
            ..cfg
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn wal_knobs_validate() {
        let cfg = ScanShareConfig::default();
        assert!(cfg.wal_dir.is_none());
        assert_eq!(cfg.wal_group_commit, 1);
        let cfg = cfg.with_wal_dir("/tmp/waltest").with_wal_group_commit(8);
        assert_eq!(
            cfg.wal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/waltest"))
        );
        assert_eq!(cfg.wal_group_commit, 8);
        cfg.validate().unwrap();
        assert!(ScanShareConfig::default()
            .with_wal_group_commit(0)
            .validate()
            .is_err());
    }

    #[test]
    fn scheduler_workers_default_to_eight_and_zero_is_rejected() {
        assert_eq!(ScanShareConfig::default().scheduler_workers, 8);
        assert!(ScanShareConfig::default()
            .with_scheduler_workers(0)
            .validate()
            .is_err());
        let cfg = ScanShareConfig::default().with_scheduler_workers(2);
        assert_eq!(cfg.scheduler_workers, 2);
        cfg.validate().unwrap();
    }

    #[test]
    fn zone_maps_default_on_and_toggle_off() {
        assert!(ScanShareConfig::default().zone_maps);
        let cfg = ScanShareConfig {
            zone_maps: false,
            ..Default::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn prefetch_window_must_fit_inside_the_pool() {
        let cfg = ScanShareConfig {
            page_size_bytes: 1024,
            buffer_pool_bytes: 4 * 1024, // 4 pages
            prefetch_pages: 4,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let ok = ScanShareConfig {
            prefetch_pages: 3,
            ..cfg
        };
        ok.validate().unwrap();
    }
}
