//! # scanshare
//!
//! A from-scratch Rust reproduction of
//! *"From Cooperative Scans to Predictive Buffer Management"*
//! (Świtakowski, Boncz, Żukowski — PVLDB 5(12), 2012).
//!
//! The workspace implements, on top of its own columnar storage engine:
//!
//! * **Predictive Buffer Management (PBM)** — scans register their future
//!   page accesses and report progress; the buffer pool estimates each page's
//!   time of next consumption with an O(1) bucket timeline and evicts the
//!   page needed furthest in the future (an online approximation of OPT);
//! * **Cooperative Scans (CScans)** — an Active Buffer Manager that owns all
//!   load/evict/dispatch decisions at chunk granularity and hands chunks to
//!   scans out of order, including the machinery needed in a real system:
//!   PDT differential updates with SID/RID translation, snapshot isolation
//!   for bulk appends with shared/local chunks, PDT checkpoints and
//!   intra-query parallelism;
//! * **LRU** and **OPT (Belady)** baselines, plus the modern **CLOCK** and
//!   **SIEVE** eviction policies registered by name through the
//!   [`PolicyRegistry`](prelude::PolicyRegistry);
//! * a vectorized mini execution engine — scans drive any of the above
//!   through one `ScanBackend` interface and feed multi-operator pipelines
//!   (multi-key group-by, top-k, broadcast hash join) — workload generators
//!   (scan-sharing microbenchmarks and a TPC-H-like throughput run) and a
//!   discrete-event simulator that regenerates every figure of the paper's
//!   evaluation.
//!
//! ## Quick start
//!
//! Queries are expressed with the builder API: pick an engine policy, then
//! chain `columns` / `range` / `filter` / `aggregate` / `parallelism` and
//! call `run`.
//!
//! ```
//! use std::sync::Arc;
//! use scanshare::prelude::*;
//!
//! // A small table with two columns.
//! let storage = Storage::new(64 * 1024, 10_000);
//! let table = storage
//!     .create_table_with_data(
//!         TableSpec::new(
//!             "t",
//!             vec![
//!                 ColumnSpec::new("k", ColumnType::Int64),
//!                 ColumnSpec::new("v", ColumnType::Decimal),
//!             ],
//!             100_000,
//!         ),
//!         vec![
//!             DataGen::Sequential { start: 0, step: 1 },
//!             DataGen::Uniform { min: 0, max: 100 },
//!         ],
//!     )
//!     .unwrap();
//!
//! // An engine using Predictive Buffer Management.
//! let config = ScanShareConfig {
//!     page_size_bytes: 64 * 1024,
//!     chunk_tuples: 10_000,
//!     buffer_pool_bytes: 1 << 20,
//!     policy: PolicyKind::Pbm,
//!     ..Default::default()
//! };
//! let engine = Engine::new(Arc::clone(&storage), config).unwrap();
//!
//! // SELECT count(*), sum(v) FROM t WHERE v <= 50, as 4 range parts
//! // interleaved inside the one query task
//! let result = engine
//!     .query(table)
//!     .columns(["k", "v"])
//!     .range(..)
//!     .filter(Predicate::new(1, CompareOp::Le, 50))
//!     .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(1)]))
//!     .parallelism(4)
//!     .run()
//!     .unwrap();
//! assert!(result[&0].count > 0);
//! assert!(engine.buffer_stats().io_bytes > 0);
//! ```
//!
//! ## Query pipelines
//!
//! Beyond scan-filter-aggregate, the same builder composes multi-key
//! group-by ([`Query::group_by`](prelude::Query::group_by) +
//! [`run_grouped`](prelude::Query::run_grouped)), top-k
//! ([`Query::top_k`](prelude::Query::top_k) +
//! [`rows`](prelude::Query::rows)) and a broadcast hash join
//! ([`Query::join`](prelude::Query::join)): the build side is scanned and
//! hashed up front, then the probe side streams through the shared-scan
//! machinery, so joins share pages and zone-map pruning like any other
//! scan. Results are deterministic functions of the row multiset —
//! identical under out-of-order Cooperative-Scan delivery and any
//! parallelism:
//!
//! ```
//! use std::sync::Arc;
//! use scanshare::prelude::*;
//!
//! let storage = Storage::new(64 * 1024, 1_000);
//! let fact = storage
//!     .create_table_with_data(
//!         TableSpec::new(
//!             "fact",
//!             vec![
//!                 ColumnSpec::new("f_cat", ColumnType::Int64),
//!                 ColumnSpec::new("f_val", ColumnType::Int64),
//!             ],
//!             10_000,
//!         ),
//!         vec![
//!             DataGen::Cyclic { period: 8, min: 0, max: 7 },
//!             DataGen::Uniform { min: 0, max: 100 },
//!         ],
//!     )
//!     .unwrap();
//! let dim = storage
//!     .create_table_with_data(
//!         TableSpec::new(
//!             "dim",
//!             vec![
//!                 ColumnSpec::new("d_key", ColumnType::Int64),
//!                 ColumnSpec::new("d_bonus", ColumnType::Int64),
//!             ],
//!             8,
//!         ),
//!         vec![
//!             DataGen::Sequential { start: 0, step: 1 },
//!             DataGen::Sequential { start: 100, step: 10 },
//!         ],
//!     )
//!     .unwrap();
//! let engine = Engine::new(
//!     Arc::clone(&storage),
//!     ScanShareConfig {
//!         page_size_bytes: 64 * 1024,
//!         chunk_tuples: 1_000,
//!         policy: PolicyKind::Pbm,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//!
//! // SELECT f_cat, count(*), sum(f_val) FROM fact GROUP BY f_cat
//! let groups = engine
//!     .query(fact)
//!     .columns(["f_cat", "f_val"])
//!     .group_by(&[0])
//!     .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(1)]))
//!     .run_grouped()
//!     .unwrap();
//! assert_eq!(groups.len(), 8); // BTreeMap: group keys come out ordered
//!
//! // SELECT f_cat, f_val FROM fact ORDER BY f_val DESC LIMIT 5
//! let top = engine
//!     .query(fact)
//!     .columns(["f_cat", "f_val"])
//!     .top_k(1, 5, SortOrder::Desc)
//!     .rows()
//!     .unwrap();
//! assert_eq!(top.len(), 5);
//!
//! // SELECT count(*), sum(d_bonus) FROM fact JOIN dim ON f_cat = d_key.
//! // Joined rows are probe columns ++ build key ++ extra build columns,
//! // so d_bonus is column 3 here.
//! let joined = engine
//!     .query(fact)
//!     .columns(["f_cat", "f_val"])
//!     .join(dim, 0, "d_key")
//!     .join_columns(["d_bonus"])
//!     .aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(3)]))
//!     .run()
//!     .unwrap();
//! assert_eq!(joined[&0].count, 10_000);
//! assert_eq!(joined[&0].accumulators[1], 1_350_000);
//! ```
//!
//! ## Updates & transactions
//!
//! Updates are differential (Positional Delta Trees stacked on a pinned
//! storage snapshot): [`Engine::begin`](prelude::Engine::begin) opens a
//! snapshot-isolated [`Txn`](prelude::Txn), commits are
//! first-committer-wins, and
//! [`Engine::checkpoint`](prelude::Engine::checkpoint) migrates the deltas
//! into a brand-new stable image in the background while writers keep
//! committing:
//!
//! ```
//! use std::sync::Arc;
//! use scanshare::prelude::*;
//!
//! let storage = Storage::new(64 * 1024, 10_000);
//! let table = storage
//!     .create_table_with_data(
//!         TableSpec::new(
//!             "t",
//!             vec![
//!                 ColumnSpec::new("k", ColumnType::Int64),
//!                 ColumnSpec::new("v", ColumnType::Int64),
//!             ],
//!             10_000,
//!         ),
//!         vec![
//!             DataGen::Sequential { start: 0, step: 1 },
//!             DataGen::Constant(7),
//!         ],
//!     )
//!     .unwrap();
//! let engine = Engine::new(
//!     storage,
//!     ScanShareConfig {
//!         page_size_bytes: 64 * 1024,
//!         chunk_tuples: 10_000,
//!         policy: PolicyKind::Pbm,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//!
//! // Begin, write, commit — private until the commit lands.
//! let mut txn = engine.begin();
//! let end = txn.visible_rows(table).unwrap();
//! txn.insert(table, end, vec![-1, -1]).unwrap();
//! txn.modify(table, 0, 1, 99).unwrap();
//! assert_eq!(engine.visible_rows(table).unwrap(), 10_000);
//! txn.commit().unwrap();
//! assert_eq!(engine.visible_rows(table).unwrap(), 10_001);
//!
//! // Scans pin a consistent (snapshot, PDT-stack) pair at creation.
//! let rows = engine.query(table).columns(["k", "v"]).range(..1).rows().unwrap();
//! assert_eq!(rows[0], vec![0, 99]);
//!
//! // Checkpoint: the deltas become a brand-new stable image.
//! let snapshot = engine.checkpoint(table).unwrap();
//! assert_eq!(snapshot.stable_tuples(), 10_001);
//! assert_eq!(engine.visible_rows(table).unwrap(), 10_001);
//! ```
//!
//! ## Durability & crash recovery
//!
//! Point [`ScanShareConfig::wal_dir`](prelude::ScanShareConfig) at a
//! directory and the engine becomes durable: the base image is materialized
//! as on-disk segment files, every commit appends a checksummed record to a
//! write-ahead log *before* it is applied, and checkpoints install new
//! images through an atomic manifest rename.
//! [`Engine::recover`](prelude::Engine::recover) reopens the last durable
//! image and replays the log through the same code path live commits use:
//!
//! ```
//! use std::sync::Arc;
//! use scanshare::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!(
//!     "scanshare-doc-durability-{}",
//!     std::process::id()
//! ));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let storage = Storage::new(64 * 1024, 10_000);
//! let table = storage
//!     .create_table_with_data(
//!         TableSpec::new(
//!             "t",
//!             vec![
//!                 ColumnSpec::new("k", ColumnType::Int64),
//!                 ColumnSpec::new("v", ColumnType::Int64),
//!             ],
//!             10_000,
//!         ),
//!         vec![
//!             DataGen::Sequential { start: 0, step: 1 },
//!             DataGen::Constant(7),
//!         ],
//!     )
//!     .unwrap();
//!
//! // `with_wal_dir` turns the engine durable: segments + wal.log in `dir`.
//! let engine = Engine::new(
//!     storage,
//!     ScanShareConfig {
//!         page_size_bytes: 64 * 1024,
//!         chunk_tuples: 10_000,
//!         policy: PolicyKind::Pbm,
//!         ..Default::default()
//!     }
//!     .with_wal_dir(&dir),
//! )
//! .unwrap();
//!
//! engine.insert_row(table, 0, vec![-1, -1]).unwrap(); // logged, then applied
//! let mut txn = engine.begin();
//! txn.modify(table, 1, 1, 99).unwrap();
//! txn.commit().unwrap();
//! drop(engine); // "crash"
//!
//! // Cold start: reopen the durable image, replay the log.
//! let recovered = Engine::recover(
//!     &dir,
//!     ScanShareConfig {
//!         policy: PolicyKind::Pbm,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//! assert_eq!(recovered.visible_rows(table).unwrap(), 10_001);
//! let rows = recovered
//!     .query(table)
//!     .columns(["k", "v"])
//!     .range(..2)
//!     .rows()
//!     .unwrap();
//! assert_eq!(rows, vec![vec![-1, -1], vec![0, 99]]);
//! # drop(recovered);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! `ScanShareConfig::wal_group_commit = N` batches fsyncs: commits return
//! once appended and only every `N`-th commit syncs, so a crash loses at
//! most the `N - 1` trailing commits — always a consistent prefix, never a
//! torn middle. `tests/failure_injection.rs` proves recovery at every kill
//! point; the `fig_durability` bench sweeps group commit × update rate with
//! a gated recovery-parity check.
//!
//! ## Serving queries over the network
//!
//! The [`serve`] crate puts the engine behind a small length-prefixed wire
//! protocol (documented byte-for-byte in the repository's `PROTOCOL.md`)
//! over TCP or Unix-domain sockets. Sessions — not connections or threads —
//! are the unit of concurrency: each session's queries run as cooperative
//! tasks on the engine's morsel-driven
//! [`TaskScheduler`](prelude::TaskScheduler), so thousands of concurrent
//! sessions multiplex onto `ScanShareConfig::scheduler_workers` OS threads,
//! with admission control, per-tenant fairness and load shedding in front.
//! `examples/serve_quickstart.rs` starts a server and drives it with the
//! bundled client and load generator.
//!
//! Custom replacement policies plug in without touching the engine: register
//! a factory with a [`PolicyRegistry`](prelude::PolicyRegistry), select it
//! with `ScanShareConfig::with_custom_policy`, and build the engine with
//! `Engine::with_registry`. The default registry already carries `clock`
//! ([`ClockPolicy`](prelude::ClockPolicy)) and `sieve`
//! ([`SievePolicy`](prelude::SievePolicy)) next to the LRU/PBM built-ins,
//! and both the engine and the simulator resolve names through it — so a
//! by-name policy runs on either executor unchanged.
//!
//! A top-to-bottom tour of the workspace — crate dependency graph, scan
//! lifecycle, transaction/checkpoint flow — lives in the repository's
//! `ARCHITECTURE.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use scanshare_common as common;
pub use scanshare_core as core;
pub use scanshare_exec as exec;
pub use scanshare_iosim as iosim;
pub use scanshare_pdt as pdt;
pub use scanshare_serve as serve;
pub use scanshare_sim as sim;
pub use scanshare_storage as storage;
pub use scanshare_workload as workload;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use scanshare_common::{
        Bandwidth, DeviceKind, PolicyKind, RangeList, Rid, ScanShareConfig, Sid, TableId,
        TupleRange, VirtualClock, VirtualDuration, VirtualInstant,
    };
    pub use scanshare_core::backend::{
        CScanBackend, PooledBackend, ScanBackend, ScanRequest, ScanStep,
    };
    pub use scanshare_core::opt::simulate_opt;
    pub use scanshare_core::registry::PolicyRegistry;
    pub use scanshare_core::{
        Abm, AbmConfig, BufferPool, BufferStats, ClockPolicy, LruPolicy, PbmPolicy,
        ReplacementPolicy, SievePolicy,
    };
    pub use scanshare_exec::ops::{
        aggregate, AggrResult, AggrSpec, Aggregate, BatchSource, CompareOp, GroupState,
        GroupedResult, Predicate, SortOrder, TopKSpec,
    };
    pub use scanshare_exec::{
        Batch, Engine, Query, QueryTask, SchedulerStats, StreamError, TablePin, Task, TaskHandle,
        TaskOutcome, TaskScheduler, TaskStep, Txn, WorkloadDriver, WorkloadReport,
    };
    pub use scanshare_iosim::{BlockDevice, FileIoDevice, IoDevice};
    pub use scanshare_pdt::{Pdt, PdtStack};
    pub use scanshare_serve::{
        ErrorCode, JoinRequest, QueryRequest, ResultGroup, ServeClient, ServeConfig, Server,
        ServerStats,
    };
    pub use scanshare_sim::{ExperimentScale, SimConfig, SimResult, Simulation};
    pub use scanshare_storage::datagen::DataGen;
    pub use scanshare_storage::wal::{Wal, WalRecord, WalRecordKind};
    pub use scanshare_storage::{ColumnSpec, ColumnType, FileStore, Storage, TableSpec};
    pub use scanshare_workload::{
        JoinSpec, MicrobenchConfig, SkippingConfig, TpchConfig, UpdateMix, UpdateStreamSpec,
        WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = PolicyKind::Pbm;
        let _ = ScanShareConfig::default();
        let _ = TupleRange::new(0, 1);
        let _ = PolicyRegistry::default();
        let _ = SortOrder::Desc;
        let _ = ClockPolicy::new();
        let _ = SievePolicy::new();
        let _ = JoinSpec {
            left_col: 0,
            right_col: 0,
        };
    }
}
