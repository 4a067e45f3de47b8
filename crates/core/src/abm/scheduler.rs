//! The load scheduler: a bounded window of asynchronous chunk loads.
//!
//! The monolithic `Mutex<Abm>` backend served starvation with a
//! synchronous load loop: the first starved worker claimed one load,
//! charged the device and completed it while every other starved worker
//! spin-polled the ABM lock. [`LoadScheduler`] replaces that with the same
//! bounded in-flight window the page-level prefetcher uses
//! ([`top_up_prefetch_window`](crate::sharded::top_up_prefetch_window)):
//! chunk loads are planned by the relevance core, submitted through
//! [`BlockDevice::submit_read`] and retired by *whichever* stream pumps next
//! — concurrent CScan streams overlap loading with consumption instead of
//! blocking under the ABM lock, and with `window > 1` several transfers
//! queue on the device while scans process already-delivered chunks.
//!
//! `window == 1` (the default) reproduces the paper-faithful one-load-at-a-
//! time model — the load *decisions* are then byte-identical to the
//! monolithic backend's, which the simulator-parity tests rely on.

use scanshare_common::sync::Mutex;
use scanshare_common::{Result, VirtualClock, VirtualInstant};
use scanshare_iosim::{BlockDevice, IoKind, ReadSpec};

use super::{Abm, LoadPlan};

/// One planned chunk load whose transfer is in flight on the device.
#[derive(Debug)]
struct InflightLoad {
    plan: LoadPlan,
    done_at: VirtualInstant,
}

/// What one [`LoadScheduler::pump`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpOutcome {
    /// A load was planned, completed, or retired: callers should re-probe
    /// the ABM for deliverable chunks.
    Progress,
    /// Nothing to plan and nothing in flight. A scan that is still starved
    /// at this point cannot make progress (the typed
    /// [`ScanStarved`](scanshare_common::Error::ScanStarved) condition).
    Idle,
}

/// Issues the relevance core's load plans through a [`BlockDevice`] with a
/// bounded in-flight window. Shared by every stream of a `CScanBackend`;
/// internally synchronized, deadlock-free against the ABM's own locks
/// (the scheduler lock is only ever taken *before* ABM locks).
#[derive(Debug)]
pub struct LoadScheduler {
    window: usize,
    inflight: Mutex<Vec<InflightLoad>>,
}

impl LoadScheduler {
    /// Creates a scheduler keeping up to `window` chunk loads in flight.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "the load scheduler needs a window of >= 1");
        Self {
            window,
            inflight: Mutex::new(Vec::new()),
        }
    }

    /// The configured window (maximum in-flight chunk loads).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of loads currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Drives the load pipeline one step: plan a new load if the window has
    /// room, otherwise retire the earliest in-flight load (advancing the
    /// virtual clock to its completion and applying it to the ABM).
    ///
    /// Any stream may pump — a scan starved on a chunk that *another*
    /// stream's pump put in flight retires that load itself instead of
    /// spinning until the other stream gets scheduled.
    pub fn pump(
        &self,
        abm: &Abm,
        clock: &VirtualClock,
        device: &dyn BlockDevice,
    ) -> Result<PumpOutcome> {
        let mut inflight = self.inflight.lock();
        if inflight.len() < self.window {
            if let Some(plan) = abm.next_load(clock.now()) {
                if plan.bytes == 0 {
                    // Every page is already resident (chunk boundaries,
                    // shared snapshot prefixes): nothing to transfer.
                    abm.complete_load(&plan, clock.now())?;
                    return Ok(PumpOutcome::Progress);
                }
                let spec = ReadSpec {
                    bytes: plan.bytes,
                    pages: plan.pages.len() as u64,
                    kind: IoKind::Demand,
                    targets: &plan.pages,
                };
                match device.submit_read(clock.now(), spec) {
                    Ok(completion) => {
                        inflight.push(InflightLoad {
                            plan,
                            done_at: completion.done_at,
                        });
                        return Ok(PumpOutcome::Progress);
                    }
                    Err(err) => {
                        // The plan was already claimed from the relevance
                        // core: complete it anyway so the chunk pipeline
                        // cannot wedge (correctness never depends on the
                        // device — storage reads fall back to a synchronous
                        // path), then surface the device fault to the
                        // pumping stream.
                        abm.complete_load(&plan, clock.now())?;
                        return Err(err);
                    }
                }
            }
        }
        // Window full, or nothing new to plan: retire the earliest
        // completion (FIFO on ties — the device serves requests in order).
        let Some(earliest) = inflight
            .iter()
            .enumerate()
            .min_by_key(|(idx, load)| (load.done_at, *idx))
            .map(|(idx, _)| idx)
        else {
            return Ok(PumpOutcome::Idle);
        };
        let load = inflight.remove(earliest);
        clock.advance_to(load.done_at);
        abm.complete_load(&load.plan, clock.now())?;
        Ok(PumpOutcome::Progress)
    }
}
