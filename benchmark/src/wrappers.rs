//! The two public injection points, used to time layers in place: a
//! [`BlockDevice`] wrapper handed to `Engine::with_device` and a
//! [`ReplacementPolicy`] wrapper registered in a `PolicyRegistry`. Each
//! call becomes a span whose parent is whatever the calling thread has
//! open (a `next_batch`, a scan open, ...).

use std::collections::HashSet;
use std::sync::Arc;

use scanshare_common::{PageId, Result, ScanId, ScanShareConfig, VirtualInstant};
use scanshare_core::policy::{ReplacementPolicy, ScanInfo};
use scanshare_core::registry::PolicyRegistry;
use scanshare_iosim::block::ReadSpec;
use scanshare_iosim::device::IoCompletion;
use scanshare_iosim::stats::{IoLatency, IoStats};
use scanshare_iosim::BlockDevice;
use scanshare_storage::layout::ScanPagePlan;

use crate::trace::Recorder;

pub const SUBMIT_SPAN: &str = "iosim.submit";
pub const POLICY_SPAN: &str = "core.policy";

/// Spans every `submit_read` of the wrapped device.
#[derive(Debug)]
pub struct TimedDevice {
    inner: Arc<dyn BlockDevice>,
    recorder: Arc<Recorder>,
}

impl TimedDevice {
    pub fn wrap(inner: Arc<dyn BlockDevice>, recorder: Arc<Recorder>) -> Arc<dyn BlockDevice> {
        Arc::new(Self { inner, recorder })
    }
}

impl BlockDevice for TimedDevice {
    fn submit_read(&self, now: VirtualInstant, spec: ReadSpec<'_>) -> Result<IoCompletion> {
        let _span = self.recorder.enter(SUBMIT_SPAN, None);
        self.inner.submit_read(now, spec)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn busy_until(&self) -> VirtualInstant {
        self.inner.busy_until()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn latency(&self) -> Option<IoLatency> {
        self.inner.latency()
    }
}

/// Spans every call into the wrapped replacement policy.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn ReplacementPolicy>,
    recorder: Arc<Recorder>,
}

impl ReplacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn register_scan(&mut self, info: &ScanInfo, plan: &ScanPagePlan, now: VirtualInstant) {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.register_scan(info, plan, now)
    }
    fn report_scan_position(&mut self, scan: ScanId, tuples_consumed: u64, now: VirtualInstant) {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.report_scan_position(scan, tuples_consumed, now)
    }
    fn unregister_scan(&mut self, scan: ScanId, now: VirtualInstant) {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.unregister_scan(scan, now)
    }
    fn on_access(&mut self, page: PageId, scan: Option<ScanId>, now: VirtualInstant) {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.on_access(page, scan, now)
    }
    fn on_admit(&mut self, page: PageId, now: VirtualInstant) {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.on_admit(page, now)
    }
    fn on_evict(&mut self, page: PageId) {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.on_evict(page)
    }
    fn choose_victims(
        &mut self,
        count: usize,
        exclude: &HashSet<PageId>,
        now: VirtualInstant,
    ) -> Vec<PageId> {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.choose_victims(count, exclude, now)
    }
    fn prefetch_hints(&mut self, now: VirtualInstant, budget: usize) -> Vec<PageId> {
        let _span = self.recorder.enter(POLICY_SPAN, None);
        self.inner.prefetch_hints(now, budget)
    }
}

/// The default registry with `name` re-registered behind a timing wrapper.
pub fn timed_registry(name: &'static str, recorder: &Arc<Recorder>) -> PolicyRegistry {
    let plain = PolicyRegistry::default();
    let mut registry = plain.clone();
    let recorder = Arc::clone(recorder);
    registry.register(name, move |config: &ScanShareConfig| {
        Box::new(TimedPolicy {
            inner: plain
                .build(name, config)
                .expect("the default registry carries the built-in policies"),
            recorder: Arc::clone(&recorder),
        }) as Box<dyn ReplacementPolicy>
    });
    registry
}
