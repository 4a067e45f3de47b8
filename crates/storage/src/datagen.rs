//! Deterministic synthetic data generation.
//!
//! The repository does not ship (or generate on disk) the 30 GB TPC-H
//! database the paper uses; instead every base column is backed by a
//! deterministic generator function `value(sid)`. Reading a page simply
//! materializes the generator over the page's SID range, so scans see real,
//! reproducible values without the repository storing gigabytes of data.
//! Appended and checkpointed pages store their values explicitly (see
//! [`crate::storage`]).

use scanshare_common::{Error, Result};

/// The value type used throughout the execution engine. Decimals are scaled
/// integers and strings are dictionary codes, as is usual in columnar
/// engines.
pub type Value = i64;

/// A deterministic column generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataGen {
    /// `start + step * sid`.
    Sequential {
        /// Value of tuple 0.
        start: i64,
        /// Increment per tuple.
        step: i64,
    },
    /// Pseudo-random uniform value in `[min, max]`, keyed by the sid.
    Uniform {
        /// Smallest value (inclusive).
        min: i64,
        /// Largest value (inclusive).
        max: i64,
    },
    /// `min + (sid % period)` scaled into `[min, max]`; models slowly
    /// cycling values such as dates loaded in order.
    Cyclic {
        /// Cycle length in tuples.
        period: u64,
        /// Smallest value (inclusive).
        min: i64,
        /// Largest value (inclusive).
        max: i64,
    },
    /// The same value for every tuple.
    Constant(
        /// The constant value.
        i64,
    ),
    /// Pseudo-random skewed value in `[0, span)`, keyed by the sid: small
    /// values are exponentially more likely than large ones (a Zipf-like
    /// popularity curve), so equality predicates on small constants are
    /// high-selectivity and on large constants near-zero — the knob the
    /// selective workloads in `fig_skipping` turn.
    Zipfian {
        /// Number of distinct values; draws fall in `[0, span)`.
        span: u64,
    },
}

impl DataGen {
    /// The value of tuple `sid` for this generator. `seed` decorrelates
    /// different columns that use the same generator parameters.
    pub fn value(&self, seed: u64, sid: u64) -> Value {
        match *self {
            DataGen::Sequential { start, step } => {
                start.wrapping_add(step.wrapping_mul(sid as i64))
            }
            DataGen::Uniform { min, max } => {
                let h = splitmix64(sid ^ seed.rotate_left(17));
                min.wrapping_add((h % span(min, max)) as i64)
            }
            DataGen::Cyclic { period, min, max } => {
                debug_assert!(period > 0);
                let pos = sid % period;
                min.wrapping_add((pos * span(min, max) / period) as i64)
            }
            DataGen::Constant(v) => v,
            DataGen::Zipfian { span } => {
                debug_assert!(span > 0);
                // Map a uniform draw u in [0, 1) through span^u - 1: the
                // density of the result decays geometrically, approximating
                // a Zipf distribution while staying a pure function of
                // (seed, sid).
                let h = splitmix64(sid ^ seed.rotate_left(17));
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                let v = ((span + 1) as f64).powf(u).floor() as i64 - 1;
                v.clamp(0, span as i64 - 1)
            }
        }
    }

    /// Appends the values of the sids in `[start, end)` to `out`: what
    /// [`DataGen::value`] gives, generated straight into the caller's
    /// buffer (a scan fills its batch column with exactly the sids it
    /// needs instead of materializing the page around them).
    ///
    /// One kernel per variant, chosen once per call, with everything that
    /// does not depend on the sid hoisted. Two of them avoid a division per
    /// value:
    /// - `Uniform` takes `h % span` as Lemire's exact remainder (Lemire,
    ///   Kaser, Kurz, "Faster Remainder by Direct Computation", 2019): one
    ///   reciprocal `⌈2¹²⁸ / span⌉` per call, then four 64-bit multiplies
    ///   per value.
    /// - `Cyclic` generates at most one period, stepping its quotient and
    ///   remainder per sid, and copies that period over the rest of the run
    ///   (a value depends only on `sid % period`).
    ///
    /// [`DataGen::value`] is the definition; the two agree bit for bit on
    /// every generator [`DataGen::validate`] accepts.
    pub fn fill(&self, seed: u64, start: u64, end: u64, out: &mut Vec<Value>) {
        let sids = start..end;
        match *self {
            DataGen::Sequential { start, step } => {
                out.extend(sids.map(|sid| start.wrapping_add(step.wrapping_mul(sid as i64))));
            }
            DataGen::Uniform { min, max } => {
                let span = span(min, max);
                // Wraps to 0 for a span of 1, whose remainder is 0 anyway.
                let m = (u128::MAX / span as u128).wrapping_add(1);
                let key = seed.rotate_left(17);
                out.extend(
                    sids.map(|sid| {
                        min.wrapping_add(fast_rem(m, splitmix64(sid ^ key), span) as i64)
                    }),
                );
            }
            DataGen::Cyclic { period, min, max } => {
                // Position `pos` of the cycle maps to `q = pos·span / period`
                // with remainder `r`; one step adds `span / period` and
                // `span % period` and carries. `validate` guarantees
                // `period·span` fits, so nothing here overflows.
                let span = span(min, max);
                let (dq, dr) = (span / period, span % period);
                let len = end - start;
                let base = out.len();
                out.reserve(len as usize);
                let mut step = |pos: u64, count: u64| {
                    let (mut q, mut r) = (pos * span / period, pos * span % period);
                    out.extend((0..count).map(|_| {
                        let v = min.wrapping_add(q as i64);
                        q += dq;
                        r += dr;
                        if r >= period {
                            r -= period;
                            q += 1;
                        }
                        v
                    }));
                };
                // One period at most: up to the end of the cycle, then from
                // its start. The rest copies what is already there, in
                // chunks that stay whole periods until the last.
                let first = start % period;
                let head = len.min(period - first);
                step(first, head);
                step(0, len.min(period) - head);
                let (len, mut filled) = (len as usize, len.min(period) as usize);
                while filled < len {
                    let n = filled.min(len - filled);
                    out.extend_from_within(base..base + n);
                    filled += n;
                }
            }
            DataGen::Constant(v) => out.resize(out.len() + sids.count(), v),
            DataGen::Zipfian { .. } => out.extend(sids.map(|sid| self.value(seed, sid))),
        }
    }

    /// Rejects parameters under which [`DataGen::value`] would panic or
    /// produce a value outside the `[min, max]` its
    /// [`zone_entry`](DataGen::zone_entry) reports: `max < min`, a
    /// `[min, max]` of more than 2⁶⁴ values, a `Cyclic` period of 0 or whose
    /// `period · span` overflows `u64`, and a `Zipfian` span of 0 or above
    /// `i64::MAX`.
    pub fn validate(&self) -> Result<()> {
        let span_of = |min: i64, max: i64| {
            if max < min {
                return Err(Error::config(format!("{self:?}: max is below min")));
            }
            u64::try_from(max as i128 - min as i128 + 1)
                .map_err(|_| Error::config(format!("{self:?}: [min, max] holds 2^64 values")))
        };
        match *self {
            DataGen::Sequential { .. } | DataGen::Constant(_) => Ok(()),
            DataGen::Uniform { min, max } => span_of(min, max).map(drop),
            DataGen::Cyclic { period, min, max } => match period.checked_mul(span_of(min, max)?) {
                Some(_) if period > 0 => Ok(()),
                _ => Err(Error::config(format!(
                    "{self:?}: period must be at least 1 and period × span fit in u64"
                ))),
            },
            DataGen::Zipfian { span } if (1..=i64::MAX as u64).contains(&span) => Ok(()),
            DataGen::Zipfian { .. } => Err(Error::config(format!(
                "{self:?}: span must be in [1, i64::MAX]"
            ))),
        }
    }

    /// Materializes the generator for `sids` in `[start, end)`.
    pub fn materialize(&self, seed: u64, start: u64, end: u64) -> Vec<Value> {
        let mut out = Vec::new();
        self.fill(seed, start, end, &mut out);
        out
    }

    /// A conservative `[min, max]` interval covering every value the
    /// generator can produce for sids in `[first, last]` (inclusive) — the
    /// zone-map entry of a generator-backed chunk, computed in O(1) instead
    /// of materializing the chunk. Pseudo-random generators report their
    /// full span (they are not prunable anyway); order-correlated generators
    /// report exact bounds.
    pub fn zone_entry(&self, first: u64, last: u64) -> crate::zone::ZoneEntry {
        use crate::zone::ZoneEntry;
        debug_assert!(first <= last);
        match *self {
            DataGen::Sequential { start, step } => {
                let at = |sid: u64| i64::try_from(start as i128 + step as i128 * sid as i128);
                match (at(first), at(last)) {
                    (Ok(a), Ok(b)) => ZoneEntry {
                        min: a.min(b),
                        max: a.max(b),
                    },
                    // Overflowing generators wrap per-value; don't guess.
                    _ => ZoneEntry::full(),
                }
            }
            DataGen::Uniform { min, max } => ZoneEntry { min, max },
            DataGen::Cyclic { period, min, max } => {
                // Exact when the range stays within one cycle (positions are
                // monotone); otherwise the chunk sees the whole span.
                if period > 0 && first / period == last / period {
                    ZoneEntry {
                        min: self.value(0, first),
                        max: self.value(0, last),
                    }
                } else {
                    ZoneEntry { min, max }
                }
            }
            DataGen::Constant(v) => ZoneEntry::point(v),
            DataGen::Zipfian { span } => ZoneEntry {
                min: 0,
                max: span.saturating_sub(1) as i64,
            },
        }
    }
}

/// The number of values in `[min, max]`. Wrapping, so a span above
/// `i64::MAX` comes out right; [`DataGen::validate`] rejects `max < min`
/// and the 2⁶⁴-value span this cannot represent.
fn span(min: i64, max: i64) -> u64 {
    (max.wrapping_sub(min) as u64).wrapping_add(1)
}

/// `h % span`, given `m = ⌈2¹²⁸ / span⌉` (0 for a span of 1): the high
/// 64 bits of `(m·h mod 2¹²⁸) · span`, which is exact for every 64-bit `h`
/// and `span` (Lemire, Kaser, Kurz 2019). Written on `u64` halves: with
/// `m·h mod 2¹²⁸ = hi·2⁶⁴ + lo`, the result is the high half of `hi·span`
/// plus the carry out of its low half and the high half of `lo·span`.
#[inline]
fn fast_rem(m: u128, h: u64, span: u64) -> u64 {
    let low = m.wrapping_mul(h as u128);
    let (lo, hi) = (low as u64, (low >> 64) as u64);
    let top = hi as u128 * span as u128;
    let (_, carry) = (top as u64).overflowing_add(((lo as u128 * span as u128) >> 64) as u64);
    (top >> 64) as u64 + carry as u64
}

/// SplitMix64: a small, fast, well-distributed 64-bit mixer. Used so that
/// "uniform" columns are deterministic functions of the tuple position.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_affine() {
        let g = DataGen::Sequential { start: 10, step: 3 };
        assert_eq!(g.value(0, 0), 10);
        assert_eq!(g.value(0, 5), 25);
        assert_eq!(g.materialize(0, 0, 3), vec![10, 13, 16]);
    }

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let g = DataGen::Uniform { min: -5, max: 5 };
        for sid in 0..1000 {
            let v = g.value(42, sid);
            assert!((-5..=5).contains(&v));
            assert_eq!(v, g.value(42, sid), "same sid and seed give same value");
        }
        // Different seeds decorrelate columns.
        let a: Vec<_> = (0..100).map(|s| g.value(1, s)).collect();
        let b: Vec<_> = (0..100).map(|s| g.value(2, s)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_covers_the_range() {
        let g = DataGen::Uniform { min: 0, max: 9 };
        let mut seen = [false; 10];
        for sid in 0..1000 {
            seen[g.value(7, sid) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "1000 draws should hit all 10 values"
        );
    }

    #[test]
    fn cyclic_repeats_with_period() {
        let g = DataGen::Cyclic {
            period: 10,
            min: 100,
            max: 109,
        };
        assert_eq!(g.value(0, 0), g.value(0, 10));
        assert_eq!(g.value(0, 3), g.value(0, 13));
        for sid in 0..100 {
            assert!((100..=109).contains(&g.value(0, sid)));
        }
    }

    #[test]
    fn constant_ignores_sid() {
        let g = DataGen::Constant(7);
        assert_eq!(g.value(0, 0), 7);
        assert_eq!(g.value(9, 12345), 7);
    }

    #[test]
    fn splitmix_differs_on_consecutive_inputs() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn zipfian_is_deterministic_skewed_and_in_range() {
        let g = DataGen::Zipfian { span: 100 };
        let mut low = 0u64;
        for sid in 0..10_000 {
            let v = g.value(3, sid);
            assert!((0..100).contains(&v));
            assert_eq!(v, g.value(3, sid));
            if v < 10 {
                low += 1;
            }
        }
        // A uniform generator would put ~10% of draws below 10; the skewed
        // one concentrates roughly half its mass there.
        assert!(
            low > 3_000,
            "zipfian draws not skewed: {low}/10000 below 10"
        );
    }

    #[test]
    fn zone_entries_cover_generated_values() {
        let gens = [
            DataGen::Sequential { start: -7, step: 3 },
            DataGen::Sequential {
                start: 50,
                step: -2,
            },
            DataGen::Uniform { min: -5, max: 5 },
            DataGen::Cyclic {
                period: 40,
                min: 0,
                max: 99,
            },
            DataGen::Constant(42),
            DataGen::Zipfian { span: 64 },
        ];
        for g in gens {
            for (first, last) in [(0u64, 15u64), (16, 31), (90, 129)] {
                let entry = g.zone_entry(first, last);
                for sid in first..=last {
                    let v = g.value(9, sid);
                    assert!(
                        entry.min <= v && v <= entry.max,
                        "{g:?} value {v} at sid {sid} outside zone {entry:?}"
                    );
                }
            }
        }
    }

    /// The oracle for the per-variant kernels: `fill` must give exactly the
    /// per-sid `value` of every accepted generator — random spans (1
    /// included) and periods (1 and periods above the span included),
    /// starts at and past 2⁴⁰, one-sid fills (what the PDT merge asks at a
    /// touched position) and fills appended to a non-empty buffer. Then the
    /// kernels' edges: `Uniform` spans at and just past 2³² and 2⁶³ and the
    /// largest, `Cyclic` batches whose period is short, long, or one off the
    /// batch, and the microbenchmark's `lineitem`.
    #[test]
    fn fill_equals_value_for_every_variant() {
        let check = |gen: DataGen, seed: u64, start: u64, len: u64, prefix: &[Value]| {
            gen.validate().unwrap();
            let mut out = prefix.to_vec();
            gen.fill(seed, start, start + len, &mut out);
            let expected: Vec<Value> = prefix
                .iter()
                .copied()
                .chain((start..start + len).map(|sid| gen.value(seed, sid)))
                .collect();
            assert_eq!(out, expected, "{gen:?} seed {seed} sids {start}+{len}");
        };
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = splitmix64(state);
            state
        };
        let extremes = [
            DataGen::Uniform {
                min: i64::MIN,
                max: i64::MAX - 1,
            },
            DataGen::Cyclic {
                period: 1,
                min: i64::MIN,
                max: i64::MAX - 1,
            },
            DataGen::Cyclic {
                period: u64::MAX,
                min: 5,
                max: 5,
            },
            DataGen::Zipfian {
                span: i64::MAX as u64,
            },
            DataGen::Sequential {
                start: i64::MAX,
                step: i64::MIN + 3,
            },
        ];
        for case in 0..2_000u64 {
            let span = match next() % 4 {
                0 => 1,
                1 => 1 + next() % 16,
                2 => 1 + next() % 100_000,
                _ => 1 + next() % (1 << 40),
            };
            let min = (next() % (1 << 41)) as i64 - (1 << 40);
            let max = min + (span - 1) as i64;
            let period = match next() % 4 {
                0 => 1,
                1 => 1 + next() % 8,
                // Above the span (unless the span is above 2^20, which
                // keeps period · span inside u64).
                2 => span.min(1 << 20) + 1 + next() % 1_000,
                _ => 1 + next() % 5_000,
            };
            let gen = match case % 5 {
                0 => DataGen::Sequential {
                    start: next() as i64,
                    step: (next() % 2_001) as i64 - 1_000,
                },
                1 => DataGen::Uniform { min, max },
                2 => DataGen::Cyclic { period, min, max },
                3 => DataGen::Constant(next() as i64),
                _ => DataGen::Zipfian { span },
            };
            let gen = if case % 50 == 49 {
                extremes[(case / 50) as usize % extremes.len()]
            } else {
                gen
            };
            let start = match next() % 4 {
                0 => next() % 10_000,
                1 => 1 << 40,
                2 => (1 << 40) + next() % 10_000,
                _ => (1 << 40) + next() % (1 << 40),
            };
            let len = match next() % 4 {
                0 => 1,
                1 => next() % 3,
                _ => next() % 3_000,
            };
            let prefix: Vec<Value> = (0..case % 3).map(|i| i as Value - 7).collect();
            check(gen, next(), start, len, &prefix);
        }

        // Spans 2, 2³², 2³² + 1, 2⁶³, 2⁶³ + 1 and 2⁶⁴ − 1.
        for (min, max) in [
            (-1, 0),
            (0, u32::MAX as i64),
            (-(1 << 31), 1 << 31),
            (i64::MIN, -1),
            (i64::MIN, 0),
            (i64::MIN, i64::MAX - 1),
        ] {
            for start in [0, 5, 1 << 40] {
                check(DataGen::Uniform { min, max }, next(), start, 4_096, &[]);
            }
        }
        // A scan batch of 1 024 sids and a run of four, at unaligned
        // starts, with periods below the run and one either side of it.
        for len in [1_024u64, 4_096] {
            for period in [1, 2, 3, 2_526, len - 1, len + 1] {
                for (min, max) in [(0, 0), (0, 2), (8_000, 10_500), (-9, 1 << 40)] {
                    let gen = DataGen::Cyclic { period, min, max };
                    for start in [0, 1, period - 1, 1_000_003, (1 << 40) + 7] {
                        check(gen, next(), start, len, &[3]);
                    }
                }
            }
        }
        // `workload::microbench::lineitem_generators`, written out because
        // this crate cannot depend on `workload`.
        let lineitem = [
            DataGen::Uniform { min: 1, max: 50 },
            DataGen::Uniform {
                min: 100,
                max: 100_000,
            },
            DataGen::Uniform { min: 0, max: 10 },
            DataGen::Uniform { min: 0, max: 8 },
            DataGen::Cyclic {
                period: 3,
                min: 0,
                max: 2,
            },
            DataGen::Cyclic {
                period: 2,
                min: 0,
                max: 1,
            },
            DataGen::Cyclic {
                period: 2526,
                min: 8000,
                max: 10_500,
            },
        ];
        for (column, gen) in lineitem.into_iter().enumerate() {
            for start in [0, 777, 2_000_000 - 1_024] {
                check(gen, column as u64 + 1, start, 1_024, &[]);
            }
        }
    }

    /// The edges of `validate` (the storage tests cover one rejected
    /// generator per way of failing): the last accepted parameters and the
    /// first rejected ones.
    #[test]
    fn validate_draws_the_line_at_the_edges() {
        for ok in [
            DataGen::Uniform { min: 3, max: 3 },
            DataGen::Uniform {
                min: i64::MIN + 1,
                max: i64::MAX,
            },
            DataGen::Cyclic {
                period: u64::MAX,
                min: 0,
                max: 0,
            },
            DataGen::Zipfian { span: 1 },
            DataGen::Zipfian {
                span: i64::MAX as u64,
            },
        ] {
            assert!(ok.validate().is_ok(), "{ok:?}");
        }
        for bad in [
            DataGen::Cyclic {
                period: 1,
                min: 1,
                max: 0,
            },
            DataGen::Cyclic {
                period: u64::MAX,
                min: 0,
                max: 1,
            },
            DataGen::Zipfian {
                span: i64::MAX as u64 + 1,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sequential_zone_entries_are_exact_and_cyclic_single_cycle_is_tight() {
        let g = DataGen::Sequential { start: 0, step: 1 };
        let e = g.zone_entry(100, 199);
        assert_eq!((e.min, e.max), (100, 199));
        let g = DataGen::Cyclic {
            period: 1000,
            min: 10,
            max: 19,
        };
        let e = g.zone_entry(0, 99);
        // Positions 0..=99 of a 1000-long cycle map to the bottom tenth.
        assert_eq!(e.min, 10);
        assert!(e.max <= 11);
    }
}
