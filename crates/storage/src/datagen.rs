//! Deterministic synthetic data generation.
//!
//! The repository does not ship (or generate on disk) the 30 GB TPC-H
//! database the paper uses; instead every base column is backed by a
//! deterministic generator function `value(sid)`. Reading a page simply
//! materializes the generator over the page's SID range, so scans see real,
//! reproducible values without the repository storing gigabytes of data.
//! Appended and checkpointed pages store their values explicitly (see
//! [`crate::storage`]).

/// The value type used throughout the execution engine. Decimals are scaled
//  integers and strings are dictionary codes, as is usual in columnar
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
                debug_assert!(max >= min);
                let span = (max - min) as u64 + 1;
                let h = splitmix64(sid ^ seed.rotate_left(17));
                min + (h % span) as i64
            }
            DataGen::Cyclic { period, min, max } => {
                debug_assert!(period > 0 && max >= min);
                let span = (max - min) as u64 + 1;
                let pos = sid % period;
                min + (pos * span / period.max(1)) as i64
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
    pub fn fill(&self, seed: u64, start: u64, end: u64, out: &mut Vec<Value>) {
        out.extend((start..end).map(|sid| self.value(seed, sid)));
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
                    let span = (max - min) as u64 + 1;
                    let lo = min + (first % period * span / period) as i64;
                    let hi = min + (last % period * span / period) as i64;
                    ZoneEntry { min: lo, max: hi }
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
