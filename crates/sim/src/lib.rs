//! Discrete-event simulation of concurrent scan workloads and the experiment
//! harness reproducing every figure of the paper's evaluation.
//!
//! The simulator executes a [`scanshare_workload::WorkloadSpec`] — several
//! concurrent streams of range-scan queries — against one of the four
//! buffer-management approaches (LRU, Cooperative Scans, PBM, OPT) on a
//! virtual clock with a bandwidth-limited I/O device. It reports the two
//! measures used throughout the paper: **average stream time** and **total
//! I/O volume**, plus the sharing-potential analysis of Figures 17/18.
//!
//! The simulator runs every workload on a `scanshare-exec` `Engine` of its
//! own and supplies only the timing model: the buffer manager it drives is
//! that engine's clock-free `ScanBackend`, queries plan against the engine's
//! table pins, update batches and checkpoints go through the same
//! `UpdateBarrier` as the engine's `WorkloadDriver`, and OPT is the engine's
//! trace replay.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod experiment;
pub mod report;
pub mod result;
pub mod sharing;

pub use engine::{SimConfig, Simulation};
pub use experiment::{run_figure, ExperimentRow, ExperimentScale, Figure, FigureData, FIGURES};
pub use report::{format_figure, format_rows, format_sharing};
pub use result::SimResult;
pub use sharing::{SharingProfile, SharingSample};
