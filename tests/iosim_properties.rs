//! Randomized property tests for the queueing invariants of the simulated
//! I/O device, exercised through its asynchronous submission API.
//!
//! Like `property_invariants.rs`, these use the in-repo deterministic
//! xorshift generator instead of an external property-testing crate: every
//! run exercises the same case set and a failing case reproduces from its
//! printed seed.

use scanshare::common::{Bandwidth, VirtualDuration, VirtualInstant};
use scanshare::iosim::{IoCompletion, IoDevice, IoKind};

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

fn random_device(rng: &mut Rng) -> IoDevice {
    IoDevice::new(
        Bandwidth::from_mb_per_sec(rng.range(50, 3_000) as f64),
        VirtualDuration::from_nanos(rng.below(300_000)),
    )
}

/// Submits a random request sequence with non-decreasing submission times
/// (each caller submits "now or later", like the engine's monotone virtual
/// clock) and returns the completions in submission order.
fn random_sequence(rng: &mut Rng, device: &IoDevice) -> Vec<IoCompletion> {
    let mut now = VirtualInstant::EPOCH;
    let count = rng.range(1, 60);
    let mut completions = Vec::with_capacity(count as usize);
    for _ in 0..count {
        // Sometimes jump far ahead (idle gaps), sometimes stay put
        // (back-to-back submissions that must queue).
        if rng.below(3) == 0 {
            now = now.after(VirtualDuration::from_nanos(rng.below(50_000_000)));
        }
        let bytes = rng.range(1, 4 << 20);
        let kind = if rng.below(2) == 0 {
            IoKind::Demand
        } else {
            IoKind::Prefetch
        };
        completions.push(device.submit_async(now, bytes, kind));
    }
    completions
}

/// FIFO service: completion (and start) times are monotone in submission
/// order, and every request's latency partitions exactly into queue wait
/// plus service time.
#[test]
fn completion_times_are_monotone_in_submission_order() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed + 1);
        let device = random_device(&mut rng);
        let completions = random_sequence(&mut rng, &device);
        for pair in completions.windows(2) {
            assert!(
                pair[1].started_at >= pair[0].done_at,
                "seed {seed}: the device serves one request at a time"
            );
            assert!(
                pair[1].done_at >= pair[0].done_at,
                "seed {seed}: FIFO completions must be monotone"
            );
        }
        for (i, c) in completions.iter().enumerate() {
            assert!(c.started_at >= c.submitted_at, "seed {seed} request {i}");
            assert!(c.done_at > c.started_at, "seed {seed} request {i}");
            assert_eq!(
                c.done_at.since(c.submitted_at),
                c.queue_wait() + c.done_at.since(c.started_at),
                "seed {seed} request {i}: wait + service must partition the latency"
            );
            assert!(
                c.done_at.since(c.started_at) >= device.request_latency(),
                "seed {seed} request {i}: service time includes the fixed latency"
            );
        }
    }
}

/// `busy_until` never regresses, tracks the last completion, and an idle
/// device starts new requests immediately.
#[test]
fn busy_horizon_never_regresses() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed + 1_000);
        let device = random_device(&mut rng);
        let mut now = VirtualInstant::EPOCH;
        let mut last_busy = VirtualInstant::EPOCH;
        for _ in 0..rng.range(1, 80) {
            if rng.below(3) == 0 {
                now = now.after(VirtualDuration::from_nanos(rng.below(20_000_000)));
            }
            let was_idle = device.busy_until() <= now;
            let completion = device.submit_async(now, rng.range(1, 1 << 20), IoKind::Demand);
            let busy = device.busy_until();
            assert!(busy >= last_busy, "seed {seed}: busy_until regressed");
            assert_eq!(
                busy, completion.done_at,
                "seed {seed}: busy_until tracks the newest completion"
            );
            if was_idle {
                assert_eq!(
                    completion.queue_wait(),
                    VirtualDuration::ZERO,
                    "seed {seed}: an idle device starts immediately"
                );
            }
            last_busy = busy;
        }
        // Statistics survive a reset of the counters, the horizon does not move.
        device.reset_stats();
        assert_eq!(device.stats().requests, 0);
        assert_eq!(device.busy_until(), last_busy);
    }
}

/// The demand/prefetch split always sums to the totals, and the accumulated
/// wait/service nanoseconds equal the per-completion sums.
#[test]
fn stats_split_sums_to_totals() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed + 2_000);
        let device = random_device(&mut rng);
        let completions = random_sequence(&mut rng, &device);

        let stats = device.stats();
        assert_eq!(
            stats.demand_bytes + stats.prefetch_bytes,
            stats.bytes_read,
            "seed {seed}"
        );
        assert_eq!(
            stats.demand_requests + stats.prefetch_requests,
            stats.requests,
            "seed {seed}"
        );
        assert_eq!(stats.requests, completions.len() as u64, "seed {seed}");

        let bytes: u64 = completions.iter().map(|c| c.bytes).sum();
        assert_eq!(stats.bytes_read, bytes, "seed {seed}");
        let demand: u64 = completions
            .iter()
            .filter(|c| c.kind == IoKind::Demand)
            .map(|c| c.bytes)
            .sum();
        assert_eq!(stats.demand_bytes, demand, "seed {seed}");

        let wait: u64 = completions.iter().map(|c| c.queue_wait().as_nanos()).sum();
        let service: u64 = completions
            .iter()
            .map(|c| c.done_at.since(c.started_at).as_nanos())
            .sum();
        assert_eq!(stats.queue_wait_nanos, wait, "seed {seed}");
        assert_eq!(stats.service_nanos, service, "seed {seed}");
    }
}

/// The blocking wrapper (`submit`) agrees with the asynchronous primitive:
/// same horizon arithmetic, demand accounting.
#[test]
fn blocking_wrappers_agree_with_submit_async() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed + 3_000);
        let a = random_device(&mut rng);
        let bw = a.bandwidth();
        let latency = a.request_latency();
        let b = IoDevice::new(bw, latency);
        let mut now = VirtualInstant::EPOCH;
        for _ in 0..rng.range(1, 40) {
            now = now.after(VirtualDuration::from_nanos(rng.below(5_000_000)));
            let bytes = rng.range(1, 2 << 20);
            let done_sync = a.submit(now, bytes);
            let done_async = b.submit_async(now, bytes, IoKind::Demand).done_at;
            assert_eq!(done_sync, done_async, "seed {seed}");
        }
        assert_eq!(a.stats(), b.stats(), "seed {seed}");
        assert_eq!(a.stats().prefetch_requests, 0, "seed {seed}");
    }
}
