//! A vectorized mini query engine on top of the scanshare storage and
//! buffer-management layers.
//!
//! The engine exists for two reasons:
//!
//! 1. **Functional correctness of the reproduced mechanisms.** The unified
//!    [`scan::ScanOperator`] runs real queries against real data through
//!    whatever [`ScanBackend`](scanshare_core::backend::ScanBackend) the
//!    engine is configured with — in-order page-level delivery for
//!    LRU / PBM / OPT, out-of-order ABM chunk dispatch for Cooperative
//!    Scans — with PDT merging, snapshot isolation for appends,
//!    checkpointing and range-partitioned plans (the Equation-1 parts of
//!    Figure 8, interleaved inside one query task). Integration tests assert
//!    that every buffer-management policy returns byte-identical query
//!    results.
//! 2. **Realistic driving of the buffer managers.** The engine issues the
//!    same `RegisterScan` / `ReportScanPosition` / `GetChunk` call sequences
//!    the paper describes, so the policies that the benchmarks measure are
//!    the policies that the engine actually exercises.
//!
//! Queries are built with the fluent [`query::Query`] API
//! (`engine.query(table).columns(...).aggregate(...).run()`); the engine is
//! deliberately small: batches are plain `Vec<i64>` columns and the operator
//! set (`Scan`, `Select`, `Project`, `Aggr`, `GroupBy`, `TopK`, broadcast
//! hash join) is just large enough to run the TPC-H Q1 / Q6 style workloads
//! of the paper's microbenchmarks. Every query runs as one resumable
//! state machine (see [`sched`]); whole multi-stream workload
//! specifications run through the [`driver::WorkloadDriver`] — one session
//! task per stream on the [`sched::TaskScheduler`] against the shared
//! buffer-management backend, reporting throughput and latency
//! percentiles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod driver;
pub mod engine;
pub mod ops;
pub mod query;
pub mod scan;
pub mod sched;
pub mod txn;

pub use batch::Batch;
pub use driver::{StreamError, UpdateBarrier, WorkloadDriver, WorkloadReport};
pub use engine::Engine;
pub use ops::{AggrSpec, Aggregate, Predicate};
pub use query::Query;
pub use scan::ScanOperator;
pub use sched::{
    QueryTask, SchedHandle, SchedulerStats, Task, TaskHandle, TaskOutcome, TaskScheduler, TaskStep,
};
pub use txn::{TablePin, Txn};
