//! Randomized property tests on the core invariants of the system:
//! PDT positional translation and merging, range arithmetic, buffer-pool
//! capacity, OPT optimality relative to LRU, and PBM consistency.
//!
//! The workspace builds without external dependencies, so instead of
//! `proptest` these use a small deterministic xorshift generator: every run
//! exercises the same case set, and a failing case can be reproduced from
//! its printed seed.

use scanshare::common::{PageId, RangeList, Rid, TupleRange, VirtualInstant};
use scanshare::core::lru::LruPolicy;
use scanshare::core::opt::simulate_opt;
use scanshare::core::pbm::PbmPolicy;
use scanshare::core::BufferPool;
use scanshare::pdt::merge::{merge_columns, merge_range, MergeCursor, SliceSource};
use scanshare::pdt::{Pdt, PdtStack};

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

// ---------------------------------------------------------------------------
// PDT invariants
// ---------------------------------------------------------------------------

/// A random sequence of PDT operations expressed against the visible stream.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, i64),
    Delete(u64),
    Modify(u64, i64),
}

fn random_ops(rng: &mut Rng, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let pos = rng.below(2000);
            let value = rng.below(1 << 16) as i64 - (1 << 15);
            match rng.below(3) {
                0 => Op::Insert(pos, value),
                1 => Op::Delete(pos),
                _ => Op::Modify(pos, value),
            }
        })
        .collect()
}

fn apply_ops(stable: u64, ops: &[Op]) -> (Pdt, Vec<Vec<i64>>) {
    // Reference model: an explicit vector of single-column rows.
    let mut model: Vec<Vec<i64>> = (0..stable as i64).map(|i| vec![i]).collect();
    let mut pdt = Pdt::new(1);
    for op in ops {
        let visible = pdt.visible_count(stable);
        assert_eq!(visible as usize, model.len());
        match *op {
            Op::Insert(pos, v) => {
                let pos = pos.min(visible);
                pdt.insert(Rid::new(pos), vec![v], stable).unwrap();
                model.insert(pos as usize, vec![v]);
            }
            Op::Delete(pos) if visible > 0 => {
                let pos = pos % visible;
                pdt.delete(Rid::new(pos), stable).unwrap();
                model.remove(pos as usize);
            }
            Op::Modify(pos, v) if visible > 0 => {
                let pos = pos % visible;
                pdt.modify(Rid::new(pos), 0, v, stable).unwrap();
                model[pos as usize][0] = v;
            }
            _ => {}
        }
    }
    (pdt, model)
}

/// Merging the PDT over the stable stream reproduces the reference model,
/// no matter how the visible range is split into pieces.
#[test]
fn pdt_merge_equals_reference_model() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed + 1);
        let stable = rng.range(1, 300);
        let op_count = rng.below(60) as usize;
        let ops = random_ops(&mut rng, op_count);
        let (pdt, model) = apply_ops(stable, &ops);
        let source = SliceSource::generate(1, stable, |_, s| s as i64);
        let visible = pdt.visible_count(stable);
        assert_eq!(visible as usize, model.len(), "seed {seed}");

        let full = merge_range(&pdt, source.clone(), &[0], TupleRange::new(0, visible));
        assert_eq!(full, model, "seed {seed}");

        // Split reproduction: any prefix/suffix split produces the same stream.
        let split = rng.below(400).min(visible);
        let mut pieces = merge_range(&pdt, source.clone(), &[0], TupleRange::new(0, split));
        pieces.extend(merge_range(
            &pdt,
            source,
            &[0],
            TupleRange::new(split, visible),
        ));
        assert_eq!(pieces, model, "seed {seed}");
    }
}

const ORACLE_COLUMNS: usize = 3;

fn oracle_source(stable: u64) -> SliceSource {
    SliceSource::generate(ORACLE_COLUMNS, stable, |c, s| (s * 10 + c as u64) as i64)
}

fn to_rows(columns: &[Vec<i64>]) -> Vec<Vec<i64>> {
    (0..columns.first().map_or(0, Vec::len))
        .map(|r| columns.iter().map(|c| c[r]).collect())
        .collect()
}

/// One seeded update against `target`'s visible stream. The first few steps
/// force the shapes a run-based merge can get wrong: several inserts at RID
/// 0 (one anchor), a run of deletes, a modify of every column of one row,
/// inserts anchored past the last stable tuple; the rest are random.
fn shaped_update(
    rng: &mut Rng,
    step: u64,
    visible: u64,
    mut apply: impl FnMut(Op3) -> scanshare::common::Result<()>,
) {
    let row = |rng: &mut Rng| {
        (0..ORACLE_COLUMNS)
            .map(|_| -(rng.below(900) as i64) - 1)
            .collect()
    };
    let op = match step {
        0..=2 => Op3::Insert(0, row(rng)),
        3..=5 if visible > 4 => Op3::Delete(visible / 2),
        6..=8 if visible > 0 => Op3::Modify(visible / 3, (step - 6) as usize, -7_000 - step as i64),
        9 | 10 => Op3::Insert(visible, row(rng)),
        _ => match rng.below(3) {
            0 => Op3::Insert(rng.below(visible + 1), row(rng)),
            1 if visible > 0 => Op3::Delete(rng.below(visible)),
            _ if visible > 0 => Op3::Modify(
                rng.below(visible),
                rng.below(ORACLE_COLUMNS as u64) as usize,
                -8_000 - step as i64,
            ),
            _ => return,
        },
    };
    apply(op).unwrap();
}

enum Op3 {
    Insert(u64, Vec<i64>),
    Delete(u64),
    Modify(u64, usize, i64),
}

/// The run-based columnar merge produces exactly the stream the
/// row-at-a-time oracle does: for every projection (full, reordered, single
/// column — so modifies land on projected and on non-projected columns),
/// for every split point of the RID range, and for every batch size small
/// enough that batch boundaries fall inside insert groups and delete runs.
#[test]
fn columnar_merge_equals_the_row_oracle() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed + 7000);
        let stable = rng.range(1, 48);
        let mut pdt = Pdt::new(ORACLE_COLUMNS);
        for step in 0..11 + rng.below(30) {
            let visible = pdt.visible_count(stable);
            shaped_update(&mut rng, step, visible, |op| match op {
                Op3::Insert(rid, row) => pdt.insert(Rid::new(rid), row, stable),
                Op3::Delete(rid) => pdt.delete(Rid::new(rid), stable),
                Op3::Modify(rid, col, v) => pdt.modify(Rid::new(rid), col, v, stable),
            });
        }
        let visible = pdt.visible_count(stable);
        for columns in [&[0, 1, 2][..], &[2, 0], &[1]] {
            let full = merge_range(
                &pdt,
                oracle_source(stable),
                columns,
                TupleRange::new(0, visible),
            );
            assert_eq!(full.len() as u64, visible, "seed {seed}");
            let mut source = oracle_source(stable);
            let mut columnar =
                |range| to_rows(&merge_columns(&pdt, &mut source, columns, range).unwrap());
            for split in 0..=visible {
                let mut pieces = columnar(TupleRange::new(0, split));
                pieces.extend(columnar(TupleRange::new(split, visible + 5)));
                assert_eq!(
                    pieces, full,
                    "seed {seed} columns {columns:?} split {split}"
                );
            }
            for batch in 1..=4 {
                let mut cursor = MergeCursor::seek(&pdt, stable, TupleRange::new(0, visible));
                let mut out = vec![Vec::new(); columns.len()];
                while !cursor.is_exhausted() {
                    let left = cursor.remaining();
                    let produced = cursor
                        .merge(&pdt, &mut source, columns, batch, &mut out)
                        .unwrap();
                    assert_eq!(produced, batch.min(left), "seed {seed}");
                }
                assert_eq!(
                    to_rows(&out),
                    full,
                    "seed {seed} columns {columns:?} batch {batch}"
                );
            }
        }
    }
}

/// A layered `PdtStack` merge — every layer running the columnar merge over
/// the merged output of the layers below it — equals the merge of the
/// flattened stack, for every split point.
#[test]
fn layered_stack_merge_equals_the_flattened_merge() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed + 9000);
        let stable = rng.range(1, 40);
        let mut stack = PdtStack::new(ORACLE_COLUMNS, 1);
        for layer in 0..3 {
            if layer > 0 {
                stack.push_layer(Pdt::new(ORACLE_COLUMNS));
            }
            for step in 0..11 + rng.below(10) {
                let visible = stack.visible_count(stable);
                shaped_update(&mut rng, step, visible, |op| match op {
                    Op3::Insert(rid, row) => stack.insert(Rid::new(rid), row, stable),
                    Op3::Delete(rid) => stack.delete(Rid::new(rid), stable),
                    Op3::Modify(rid, col, v) => stack.modify(Rid::new(rid), col, v, stable),
                });
            }
            assert!(
                !stack.top().is_empty(),
                "seed {seed}: layer {layer} is populated"
            );
        }
        let flat = stack.flatten(stable).unwrap();
        let visible = stack.visible_count(stable);
        assert_eq!(visible, flat.visible_count(stable), "seed {seed}");
        for columns in [&[0, 1, 2][..], &[2, 0], &[1]] {
            let full = merge_range(
                &flat,
                oracle_source(stable),
                columns,
                TupleRange::new(0, visible),
            );
            let mut source = oracle_source(stable);
            for split in 0..=visible {
                let mut layered =
                    |range| to_rows(&stack.merge_columns(&mut source, columns, range).unwrap());
                let mut pieces = layered(TupleRange::new(0, split));
                pieces.extend(layered(TupleRange::new(split, visible)));
                assert_eq!(
                    pieces, full,
                    "seed {seed} columns {columns:?} split {split}"
                );
            }
        }
    }
}

/// Every visible position maps to a SID whose RID window contains it,
/// positions at or past the end of the visible stream map to `stable`, and
/// SID->RID conversions are monotone.
#[test]
fn pdt_translation_round_trips() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed + 1000);
        let stable = rng.range(1, 200);
        let op_count = rng.below(40) as usize;
        let ops = random_ops(&mut rng, op_count);
        let (pdt, _) = apply_ops(stable, &ops);
        let visible = pdt.visible_count(stable);
        for rid in 0..visible {
            let sid = pdt.rid_to_sid(Rid::new(rid), stable);
            let lo = pdt.sid_to_rid_low(sid).raw();
            let hi = pdt.sid_to_rid_high(sid).raw();
            assert!(
                lo <= rid && rid <= hi,
                "seed {seed}: rid {rid} not in [{lo}, {hi}]"
            );
        }
        for rid in visible..visible + 3 {
            assert_eq!(
                pdt.rid_to_sid(Rid::new(rid), stable).raw(),
                stable,
                "seed {seed}: rid {rid} past the end of {visible} visible rows"
            );
        }
        let mut last_low = 0;
        for sid in 0..=stable {
            let lo = pdt.sid_to_rid_low(scanshare::common::Sid::new(sid)).raw();
            assert!(
                lo >= last_low,
                "seed {seed}: sid_to_rid_low must be monotone"
            );
            last_low = lo;
        }
    }
}

// ---------------------------------------------------------------------------
// Range arithmetic invariants
// ---------------------------------------------------------------------------

/// Equation 1 partitioning covers the range exactly, without overlap.
#[test]
fn split_even_is_a_partition() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed + 2000);
        let start = rng.below(10_000);
        let len = rng.below(10_000);
        let n = rng.range(1, 16) as usize;
        let range = TupleRange::new(start, start + len);
        let parts = range.split_even(n);
        assert_eq!(parts.len(), n, "seed {seed}");
        assert_eq!(
            parts.iter().map(TupleRange::len).sum::<u64>(),
            range.len(),
            "seed {seed}"
        );
        for pair in parts.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "seed {seed}");
        }
        assert_eq!(parts[0].start, range.start, "seed {seed}");
        assert_eq!(parts[parts.len() - 1].end, range.end, "seed {seed}");
    }
}

fn random_range_list(rng: &mut Rng) -> RangeList {
    let pieces = rng.range(1, 8) as usize;
    RangeList::from_ranges((0..pieces).map(|_| {
        let start = rng.below(500);
        let len = rng.range(1, 100);
        TupleRange::new(start, start + len)
    }))
}

/// subtract/intersect/union are consistent: A = (A - B) ∪ (A ∩ B).
#[test]
fn range_list_subtract_union_identity() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed + 3000);
        let list_a = random_range_list(&mut rng);
        let list_b = random_range_list(&mut rng);
        let minus = list_a.subtract(&list_b);
        let inter = list_a.intersect(&list_b);
        assert!(minus.intersect(&list_b).is_empty(), "seed {seed}");
        assert_eq!(minus.union(&inter), list_a, "seed {seed}");
        assert_eq!(
            minus.total_tuples() + inter.total_tuples(),
            list_a.total_tuples(),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// Buffer-management invariants
// ---------------------------------------------------------------------------

/// The buffer pool never exceeds its capacity and never loses pages, for
/// both LRU and PBM, on arbitrary reference strings.
#[test]
fn buffer_pool_respects_capacity() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed + 4000);
        let capacity = rng.range(1, 64) as usize;
        let refs: Vec<u64> = (0..rng.range(1, 400)).map(|_| rng.below(200)).collect();
        let use_pbm = rng.below(2) == 0;
        let policy: Box<dyn scanshare::core::policy::ReplacementPolicy> = if use_pbm {
            Box::new(PbmPolicy::new())
        } else {
            Box::new(LruPolicy::new())
        };
        let pool = BufferPool::new(capacity, 4096, policy);
        let now = VirtualInstant::EPOCH;
        for &r in &refs {
            pool.request_page(PageId::new(r), None, now).unwrap();
            assert!(pool.resident_count() <= capacity, "seed {seed}");
        }
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, refs.len() as u64, "seed {seed}");
        assert_eq!(stats.io_bytes, stats.misses * 4096, "seed {seed}");
        // Distinct pages referenced bounds the resident count.
        let mut distinct = refs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(pool.resident_count() <= distinct.len(), "seed {seed}");
    }
}

/// OPT never incurs more misses than LRU on the same reference string and
/// never fewer than the number of distinct pages (cold misses).
#[test]
fn opt_is_a_lower_bound() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed + 5000);
        let capacity = rng.range(1, 32) as usize;
        let trace: Vec<PageId> = (0..rng.range(1, 500))
            .map(|_| PageId::new(rng.below(100)))
            .collect();
        let opt = simulate_opt(&trace, capacity);

        let pool = BufferPool::new(capacity, 1, Box::new(LruPolicy::new()));
        let now = VirtualInstant::EPOCH;
        for &page in &trace {
            pool.request_page(page, None, now).unwrap();
        }
        let lru_misses = pool.stats().misses;
        assert!(
            opt.misses <= lru_misses,
            "seed {seed}: OPT {} vs LRU {}",
            opt.misses,
            lru_misses
        );

        let mut distinct: Vec<u64> = trace.iter().map(|p| p.raw()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(opt.misses >= distinct.len() as u64, "seed {seed}");
        assert_eq!(opt.hits + opt.misses, trace.len() as u64, "seed {seed}");
    }
}
