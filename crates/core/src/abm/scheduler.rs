//! The load scheduler: one asynchronous chunk load in flight at a time.
//!
//! Chunk loads are planned by the relevance core and submitted through
//! [`BlockDevice::submit_read`]; while a load is in flight no other is
//! planned — the paper's one-load-at-a-time ABM. The scheduler is
//! **clock-free**: it is told the submission instant and answers with the
//! completion instant, so one implementation serves both clocks. The
//! pipeline has two halves:
//!
//! * [`LoadScheduler::plan_load`] claims the next load from the ABM when
//!   nothing is in flight and puts its transfer on the device;
//! * [`LoadScheduler::retire_load`] applies the in-flight load to the ABM,
//!   making its chunk deliverable.
//!
//! The execution engine runs both from whichever stream is starved (plan if
//! possible, else retire and advance the shared clock to the completion);
//! the discrete-event simulator plans at stream events and retires at the
//! `LoadDone` event it schedules for the returned instant.

use scanshare_common::sync::Mutex;
use scanshare_common::{Result, VirtualInstant};
use scanshare_iosim::{BlockDevice, IoKind, ReadSpec};

use super::{Abm, LoadPlan};

/// One planned chunk load whose transfer is in flight on the device.
#[derive(Debug)]
struct InflightLoad {
    plan: LoadPlan,
    done_at: VirtualInstant,
}

/// Issues the relevance core's load plans through a [`BlockDevice`], one at
/// a time. Shared by every stream of a `CScanBackend`; internally
/// synchronized, deadlock-free against the ABM's own lock (the scheduler
/// lock is only ever taken *before* the ABM's).
#[derive(Debug, Default)]
pub struct LoadScheduler {
    inflight: Mutex<Option<InflightLoad>>,
}

impl LoadScheduler {
    /// Plans the next chunk load at `now` if none is in flight and the
    /// relevance core has one to offer, submitting its transfer to `device`
    /// without waiting; returns the instant the transfer completes. A plan
    /// whose pages are all resident already (chunk boundaries, shared
    /// snapshot prefixes) is submitted like any other: its zero-byte request
    /// pays the device's fixed latency, as the simulator has always modelled
    /// it.
    pub fn plan_load(
        &self,
        abm: &Abm,
        device: &dyn BlockDevice,
        now: VirtualInstant,
    ) -> Result<Option<VirtualInstant>> {
        let mut inflight = self.inflight.lock();
        if inflight.is_some() {
            return Ok(None);
        }
        let Some(plan) = abm.next_load(now) else {
            return Ok(None);
        };
        let spec = ReadSpec {
            bytes: plan.bytes,
            pages: plan.pages.len() as u64,
            kind: IoKind::Demand,
            targets: &plan.pages,
        };
        let done_at = match device.submit_read(now, spec) {
            Ok(completion) => completion.done_at,
            Err(err) => {
                // The plan was already claimed from the relevance core:
                // complete it anyway so the chunk pipeline cannot wedge
                // (correctness never depends on the device — storage reads
                // fall back to a synchronous path), then surface the device
                // fault to the planning stream.
                abm.complete_load(&plan, now)?;
                return Err(err);
            }
        };
        *inflight = Some(InflightLoad { plan, done_at });
        Ok(Some(done_at))
    }

    /// Retires the in-flight load, applying it to the ABM; returns its
    /// completion instant, or `None` when nothing is in flight.
    ///
    /// Any stream may retire — a scan starved on a chunk that *another*
    /// stream put in flight retires that load itself instead of spinning
    /// until the other stream gets scheduled.
    pub fn retire_load(&self, abm: &Abm) -> Result<Option<VirtualInstant>> {
        let mut inflight = self.inflight.lock();
        let Some(load) = inflight.take() else {
            return Ok(None);
        };
        abm.complete_load(&load.plan, load.done_at)?;
        Ok(Some(load.done_at))
    }
}
