//! Scan-aware buffer management — the primary contribution of the paper.
//!
//! This crate implements the four concurrent-scan buffer-management
//! approaches the paper evaluates:
//!
//! * [`lru`] — traditional buffer management: scans request pages in order
//!   and the pool evicts the least-recently-used page;
//! * [`pbm`] — **Predictive Buffer Management**: scans register their future
//!   page accesses and report their progress; the pool estimates for every
//!   page the time of its next consumption and evicts the page needed
//!   furthest in the future, using the O(1) bucket timeline of Figure 9/10;
//! * [`abm`] — **Cooperative Scans**: an Active Buffer Manager (ABM) takes
//!   over load / evict / dispatch decisions at chunk granularity, using the
//!   QueryRelevance / LoadRelevance / UseRelevance / KeepRelevance functions,
//!   and delivers chunks to CScan operators out of order. Split into a
//!   chunk directory and a pure relevance core (the monolithic original is
//!   the test oracle `tests/abm_reference`);
//! * [`opt`] — Belady's OPT replayed over a recorded page-reference trace,
//!   the theoretical optimum for order-preserving policies.
//!
//! [`pool::BufferPool`] is the one page-level pool, driven by a pluggable
//! [`policy::ReplacementPolicy`] (LRU, PBM, ...); the ABM replaces the pool
//! wholesale for Cooperative Scans, as it does in the paper. Each is one
//! lock domain. Both sit behind the clock-free [`backend::ScanBackend`]
//! interface, which [`backend::build_backend`] constructs for the execution
//! engine (shared by its scan threads) and for the discrete-event simulator
//! alike.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod abm;
pub mod backend;
pub mod clock;
pub mod lru;
pub mod metrics;
pub mod opt;
pub mod pbm;
pub mod pbm_lru;
pub mod policy;
pub mod pool;
pub mod registry;
pub mod sieve;

pub use abm::{Abm, AbmConfig, CScanHandle};
pub use backend::{build_backend, CScanBackend, PooledBackend, ScanBackend, ScanRequest, ScanStep};
pub use clock::ClockPolicy;
pub use lru::LruPolicy;
pub use metrics::BufferStats;
pub use opt::{simulate_opt, OptResult};
pub use pbm::PbmPolicy;
pub use pbm_lru::PbmLruPolicy;
pub use policy::{ReplacementPolicy, ScanInfo};
#[doc(hidden)]
pub use pool::ShardedPool;
pub use pool::{AccessOutcome, BufferPool};
pub use registry::{PolicyFactory, PolicyRegistry};
pub use sieve::SievePolicy;
