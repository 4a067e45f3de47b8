//! The I/O subsystem: simulated and real devices behind one trait.
//!
//! The paper evaluates the buffer-management policies under I/O bandwidths
//! from 200 MB/s to 2 GB/s by artificially limiting the rate at which the
//! storage layer delivers pages. This crate provides the equivalent for the
//! reproduction — a bandwidth-limited [`IoDevice`] operating in virtual
//! time, I/O accounting ([`IoStats`]), and a [`ReferenceTrace`] recorder
//! used to replay page-reference traces under the OPT (Belady) oracle — plus
//! the pieces that connect the model to real hardware:
//!
//! - [`BlockDevice`], the object-safe trait both device families implement;
//! - [`FileIoDevice`], positional reads against on-disk column segments —
//!   demand reads on the calling thread, prefetches off a fixed worker pool
//!   with a bounded submission queue — and wall-clock latency percentiles
//!   ([`IoLatency`]);
//! - [`calib::calibrate_with_batches`], which fits the simulator's
//!   bandwidth/latency parameters to a measured device and reports the fit
//!   error;
//! - [`FaultInjectingDevice`], a wrapper injecting scripted read failures
//!   for the failure-injection test suite.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod calib;
pub mod device;
pub mod fault;
pub mod file;
pub mod stats;
pub mod trace;

pub use block::{BlockDevice, ReadSpec};
pub use calib::{calibrate_with_batches, probe_batches, CalibrationReport};
pub use device::{IoCompletion, IoDevice};
pub use fault::{FaultInjectingDevice, FaultKind};
pub use file::{FileIoDevice, PageReader};
pub use stats::{IoKind, IoLatency, IoStats, LatencyPercentiles};
pub use trace::ReferenceTrace;
