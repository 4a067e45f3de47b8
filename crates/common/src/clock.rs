//! Virtual time, bandwidth and the shared clock.
//!
//! Both the discrete-event simulator (`scanshare-sim`) and the execution
//! engine's cost accounting (`scanshare-exec`) run on *virtual time*: a
//! nanosecond counter that is advanced explicitly. This makes experiments
//! deterministic, independent of the host machine, and lets the benchmark
//! harness sweep I/O bandwidth from 200 MB/s to 2 GB/s exactly like the
//! paper does by throttling the storage layer.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A duration in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualDuration(pub u64);

impl VirtualDuration {
    /// Zero-length duration.
    pub const ZERO: Self = Self(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative"
        );
        Self((s * 1e9).round() as u64)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl std::ops::Add for VirtualDuration {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for VirtualDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for VirtualDuration {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for VirtualDuration {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl std::iter::Sum for VirtualDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualInstant(pub u64);

impl VirtualInstant {
    /// The simulation epoch.
    pub const EPOCH: Self = Self(0);

    /// Creates an instant from nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Instant advanced by `d`.
    pub fn after(self, d: VirtualDuration) -> Self {
        Self(self.0.saturating_add(d.0))
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: VirtualInstant) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for VirtualInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", VirtualDuration(self.0))
    }
}

impl std::ops::Add<VirtualDuration> for VirtualInstant {
    type Output = Self;
    fn add(self, rhs: VirtualDuration) -> Self {
        self.after(rhs)
    }
}

/// I/O bandwidth, stored as bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from megabytes per second (decimal MB, as in the
    /// paper's "200MB/s to 2GB/s" sweep).
    pub fn from_mb_per_sec(mb: f64) -> Self {
        assert!(mb > 0.0 && mb.is_finite(), "bandwidth must be positive");
        Self {
            bytes_per_sec: mb * 1_000_000.0,
        }
    }

    /// Creates a bandwidth from gigabytes per second.
    pub fn from_gb_per_sec(gb: f64) -> Self {
        Self::from_mb_per_sec(gb * 1_000.0)
    }

    /// Creates a bandwidth from raw bytes per second.
    pub fn from_bytes_per_sec(bytes: f64) -> Self {
        assert!(
            bytes > 0.0 && bytes.is_finite(),
            "bandwidth must be positive"
        );
        Self {
            bytes_per_sec: bytes,
        }
    }

    /// Megabytes per second.
    pub fn mb_per_sec(self) -> f64 {
        self.bytes_per_sec / 1_000_000.0
    }

    /// Virtual time needed to transfer `bytes` at this bandwidth.
    pub fn transfer_time(self, bytes: u64) -> VirtualDuration {
        VirtualDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}MB/s", self.mb_per_sec())
    }
}

/// Tuples one core processes per second (4 ns per tuple): the cost model's
/// CPU rate. It models the paper's ratio of CPU to I/O cost, which beside
/// the swept [`Bandwidth`] decides when a configuration turns CPU-bound; it
/// does not model this engine, which scans a stored image at 0.6–1.9 ns per
/// value and a generated base table at 2.3–5.8 ns (the generator's cost).
pub const CPU_TUPLES_PER_SEC: u64 = 250_000_000;

/// The CPU time of `tuples` at [`CPU_TUPLES_PER_SEC`] × `cpu_factor` (finite,
/// non-negative) over `parallelism` cores: both executors' one CPU charge.
pub fn cpu_time(tuples: u64, cpu_factor: f64, parallelism: u64) -> VirtualDuration {
    let ns_per_tuple = 1e9 * cpu_factor / (CPU_TUPLES_PER_SEC as f64 * parallelism as f64);
    VirtualDuration((tuples as f64 * ns_per_tuple).round() as u64)
}

/// A shared, thread-safe virtual clock.
///
/// The clock only moves forward. The simulator advances it from its event
/// loop; the execution engine advances it as cost accounting for CPU work
/// and I/O waits.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_nanos: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a shared handle to a fresh clock.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualInstant {
        VirtualInstant(self.now_nanos.load(Ordering::Acquire))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: VirtualDuration) -> VirtualInstant {
        let new = self.now_nanos.fetch_add(d.0, Ordering::AcqRel) + d.0;
        VirtualInstant(new)
    }

    /// Moves the clock forward to `target` if it is in the future; the clock
    /// never moves backwards. Returns the resulting time.
    pub fn advance_to(&self, target: VirtualInstant) -> VirtualInstant {
        let mut cur = self.now_nanos.load(Ordering::Acquire);
        while cur < target.0 {
            match self.now_nanos.compare_exchange_weak(
                cur,
                target.0,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return target,
                Err(actual) => cur = actual,
            }
        }
        VirtualInstant(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_and_accessors() {
        assert_eq!(VirtualDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(VirtualDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert!((VirtualDuration::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(VirtualDuration::from_micros(5).as_nanos(), 5_000);
    }

    #[test]
    fn duration_arithmetic() {
        let a = VirtualDuration::from_millis(10);
        let b = VirtualDuration::from_millis(5);
        assert_eq!(a + b, VirtualDuration::from_millis(15));
        assert_eq!(a - b, b);
        assert_eq!(b * 3, VirtualDuration::from_millis(15));
        let total: VirtualDuration = [a, b].into_iter().sum();
        assert_eq!(total, VirtualDuration::from_millis(15));
    }

    #[test]
    fn instant_ordering_and_since() {
        let t0 = VirtualInstant::EPOCH;
        let t1 = t0.after(VirtualDuration::from_secs(1));
        assert!(t1 > t0);
        assert_eq!(t1.since(t0), VirtualDuration::from_secs(1));
        assert_eq!(t0.since(t1), VirtualDuration::ZERO);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_mb_per_sec(700.0);
        // 700 MB at 700 MB/s takes one second.
        let t = bw.transfer_time(700_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(Bandwidth::from_gb_per_sec(2.0).mb_per_sec(), 2_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::from_mb_per_sec(0.0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), VirtualInstant::EPOCH);
        clock.advance(VirtualDuration::from_millis(5));
        assert_eq!(clock.now().as_nanos(), 5_000_000);
        // advance_to in the past is a no-op
        clock.advance_to(VirtualInstant::from_nanos(1));
        assert_eq!(clock.now().as_nanos(), 5_000_000);
        clock.advance_to(VirtualInstant::from_nanos(9_000_000));
        assert_eq!(clock.now().as_nanos(), 9_000_000);
    }

    #[test]
    fn clock_is_shareable_across_threads() {
        let clock = VirtualClock::shared();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = clock.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(VirtualDuration::from_nanos(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now().as_nanos(), 4_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtualDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(VirtualDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(VirtualDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(VirtualDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(Bandwidth::from_mb_per_sec(700.0).to_string(), "700MB/s");
    }
}
