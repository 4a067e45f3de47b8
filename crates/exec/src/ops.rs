//! Relational operators above the scans: Select, Project, Aggr, GroupBy,
//! TopK and the broadcast hash join.
//!
//! A pipeline is a [`BatchSource`] (a scan, optionally wrapped by the
//! probe side of a broadcast hash join: [`JoinBuild`]/[`JoinTable`]/
//! [`JoinSource`]), an optional [`Predicate`] and a `Sink` that consumes the
//! surviving rows — the predicate becomes a *selection vector* the sink
//! iterates (`selection`: the kept positions, computed without a branch per
//! row), never a filtered copy of the batch. An ungrouped aggregate folds
//! the selection one column at a time into its one group. A grouped one
//! folds a batch in three passes: it gives every selected row a dense id
//! among the batch's distinct keys (a batch-local open-addressing table
//! sized by the selection, hashing and comparing keys in place), folds each
//! aggregate one column at a time into per-id partials, and merges each
//! distinct key's partials into its group once. There is one sink per kind
//! of result: the keyed aggregation `KeyedAggr` — generic over the group
//! key, a plain [`Value`] for the optional key column of an [`AggrSpec`] and
//! a `Vec<Value>` for the composite key of `Query::group_by` — the top-k
//! selection [`TopKState`] and plain row collection. Every sink folds one
//! batch at a time — one sink is fed by every range part of a query — and
//! every one is a deterministic function of the input *multiset*: grouped
//! results are ordered maps, top-k breaks value ties by full-row
//! lexicographic order, and join buckets are sorted at build finish — so
//! out-of-order delivery (Cooperative Scans) and the interleaving of parts
//! cannot change any result.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use scanshare_common::{hash, Result};
use scanshare_storage::datagen::Value;

use crate::batch::Batch;

/// A producer of vectorized batches (the bottom of every query plan).
pub trait BatchSource {
    /// Number of columns each batch carries.
    fn width(&self) -> usize;
    /// Produces the next batch, or `None` when the source is exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
}

/// A [`BatchSource`] over pre-materialized batches (useful for tests and for
/// feeding operators from collected data).
#[derive(Debug)]
pub struct VecSource {
    width: usize,
    batches: Vec<Batch>,
    next: usize,
}

impl VecSource {
    /// Creates a source that yields the given batches in order.
    pub fn new(width: usize, batches: Vec<Batch>) -> Self {
        Self {
            width,
            batches,
            next: 0,
        }
    }
}

impl BatchSource for VecSource {
    fn width(&self) -> usize {
        self.width
    }
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.next >= self.batches.len() {
            return Ok(None);
        }
        let batch = self.batches[self.next].clone();
        self.next += 1;
        Ok(Some(batch))
    }
}

/// Comparison operators for simple predicates: the zone-map operators, so a
/// row-level predicate and the [`ZonePredicate`](scanshare_storage::zone::ZonePredicate)
/// that prunes for it share one operator.
pub use scanshare_storage::zone::ZoneOp as CompareOp;

/// A conjunctive predicate over one column of the scanned projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Column index within the operator's output (not the table).
    pub column: usize,
    /// Comparison operator.
    pub op: CompareOp,
    /// Constant to compare against.
    pub value: Value,
}

impl Predicate {
    /// Creates a predicate.
    pub fn new(column: usize, op: CompareOp, value: Value) -> Self {
        Self { column, op, value }
    }

    /// Evaluates the predicate for one value.
    pub fn matches(&self, v: Value) -> bool {
        match self.op {
            CompareOp::Lt => v < self.value,
            CompareOp::Le => v <= self.value,
            CompareOp::Gt => v > self.value,
            CompareOp::Ge => v >= self.value,
            CompareOp::Eq => v == self.value,
        }
    }
}

/// The selection vector `filter` makes on `batch`: the positions of the
/// rows that satisfy it, ascending; no filter selects every row. Branch-free:
/// the operator is matched once per batch, and every row writes its
/// position and advances the cursor by its own `matches` as 0 or 1, so a
/// filter that keeps about half the rows costs what one that keeps all does.
pub(crate) fn selection(filter: Option<&Predicate>, batch: &Batch) -> Vec<usize> {
    fn select(column: &[Value], keep: impl Fn(Value) -> bool) -> Vec<usize> {
        let mut sel = vec![0; column.len()];
        let mut k = 0;
        for (i, &v) in column.iter().enumerate() {
            sel[k] = i;
            k += keep(v) as usize;
        }
        sel.truncate(k);
        sel
    }
    let Some(pred) = filter else {
        return (0..batch.len()).collect();
    };
    let (column, c) = (batch.column(pred.column), pred.value);
    match pred.op {
        CompareOp::Lt => select(column, |v| v < c),
        CompareOp::Le => select(column, |v| v <= c),
        CompareOp::Gt => select(column, |v| v > c),
        CompareOp::Ge => select(column, |v| v >= c),
        CompareOp::Eq => select(column, |v| v == c),
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Count of qualifying rows.
    Count,
    /// Sum of a column, modulo 2^64: it wraps on overflow in every build,
    /// so a sum is a function of the row multiset whatever the order of
    /// its additions.
    Sum(usize),
    /// Minimum of a column.
    Min(usize),
    /// Maximum of a column.
    Max(usize),
}

impl Aggregate {
    /// The accumulator of a group no row has reached yet.
    fn identity(self) -> Value {
        match self {
            Aggregate::Count | Aggregate::Sum(_) => 0,
            Aggregate::Min(_) => Value::MAX,
            Aggregate::Max(_) => Value::MIN,
        }
    }

    /// Folds the partial `part` (over some rows of a group) into `acc`.
    fn merge(self, acc: Value, part: Value) -> Value {
        match self {
            Aggregate::Count | Aggregate::Sum(_) => acc.wrapping_add(part),
            Aggregate::Min(_) => acc.min(part),
            Aggregate::Max(_) => acc.max(part),
        }
    }
}

/// An aggregation specification: optional group-by column plus a list of
/// aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggrSpec {
    /// Column (within the operator output) to group by, if any.
    pub group_by: Option<usize>,
    /// Aggregates to compute.
    pub aggregates: Vec<Aggregate>,
}

impl AggrSpec {
    /// Ungrouped aggregation.
    pub fn global(aggregates: Vec<Aggregate>) -> Self {
        Self {
            group_by: None,
            aggregates,
        }
    }

    /// Grouped aggregation.
    pub fn grouped(group_by: usize, aggregates: Vec<Aggregate>) -> Self {
        Self {
            group_by: Some(group_by),
            aggregates,
        }
    }
}

/// Partial aggregation state for one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupState {
    /// Row count.
    pub count: u64,
    /// One accumulator per aggregate.
    pub accumulators: Vec<Value>,
}

/// The result of an aggregation: group key (0 for global aggregation) mapped
/// to its aggregate values, ordered by key.
pub type AggrResult = BTreeMap<Value, GroupState>;

fn new_group_state(aggregates: &[Aggregate]) -> GroupState {
    GroupState {
        count: 0,
        accumulators: aggregates.iter().map(|a| a.identity()).collect(),
    }
}

/// The result of a multi-key aggregation: composite key (the key columns'
/// values, in `group_by` order) mapped to its group state, ordered by key —
/// the ordered map makes the result independent of input delivery order.
pub type GroupedResult = BTreeMap<Vec<Value>, GroupState>;

/// The consuming end of a pipeline: folds the batches of every range part
/// of a query into its one result.
pub(crate) trait Sink: Send {
    /// Folds the rows of `batch` that satisfy `filter` into the result.
    fn fold(&mut self, batch: &Batch, filter: Option<&Predicate>);
}

/// A group key as the values of one row in the key columns of a batch
/// (`columns`, one slice per key column): a plain [`Value`] for the at most
/// one key column of an [`AggrSpec`] (0 when ungrouped), a `Vec<Value>` for
/// a composite key. Hashing and comparing work on the columns in place, so
/// a key is built only for a group the batch has not seen yet.
pub(crate) trait GroupKey: Ord + Send {
    /// The key of `row`.
    fn read(columns: &[&[Value]], row: usize) -> Self;
    /// A hash of the key of `row`: one [`hash::mix`] step per key value, so
    /// the high bits are the well-mixed ones (see [`home_slot`]).
    fn hash_row(columns: &[&[Value]], row: usize) -> u64;
    /// Whether `self` is the key of `row`.
    fn is_key_of(&self, columns: &[&[Value]], row: usize) -> bool;
}

impl GroupKey for Value {
    fn read(columns: &[&[Value]], row: usize) -> Self {
        columns.first().map_or(0, |column| column[row])
    }
    fn hash_row(columns: &[&[Value]], row: usize) -> u64 {
        hash::mix(0, Self::read(columns, row) as u64)
    }
    fn is_key_of(&self, columns: &[&[Value]], row: usize) -> bool {
        *self == Self::read(columns, row)
    }
}

impl GroupKey for Vec<Value> {
    fn read(columns: &[&[Value]], row: usize) -> Self {
        columns.iter().map(|column| column[row]).collect()
    }
    fn hash_row(columns: &[&[Value]], row: usize) -> u64 {
        columns
            .iter()
            .fold(0, |h, column| hash::mix(h, column[row] as u64))
    }
    fn is_key_of(&self, columns: &[&[Value]], row: usize) -> bool {
        self.iter()
            .zip(columns)
            .all(|(&v, column)| column[row] == v)
    }
}

/// The number of bits of the slot table that numbers `len` selected rows:
/// at least twice as many slots as rows, so the table is at most half full.
fn table_bits(len: usize) -> u32 {
    (2 * len).next_power_of_two().trailing_zeros()
}

/// The slot a key of hash `hash` probes first in a table of `1 << bits`
/// slots: the hash's top bits.
fn home_slot(hash: u64, bits: u32) -> usize {
    (hash >> (64 - bits)) as usize
}

/// A slot of the id table that holds no key.
const EMPTY: u32 = u32::MAX;

/// The grouped kernel's buffers of one entry per selected row or slot, kept
/// per thread and reused from batch to batch: allocating them afresh for
/// every batch churned the allocator enough to slow the ungrouped folds
/// that ran after it. `ids` holds at most the largest selection the thread
/// has folded, `slots` at most four times that.
#[derive(Default)]
struct IdScratch {
    /// The batch's open-addressing table: per slot, the id of the key it
    /// holds. Every slot is `EMPTY` between batches, so a batch resets only
    /// the slots it took instead of the whole table.
    slots: Vec<u32>,
    /// Per selected row, the id of its key.
    ids: Vec<u32>,
}

thread_local! {
    /// Taken for the length of one batch's fold: a fold that panics drops
    /// it, and the next starts from an empty one.
    static ID_SCRATCH: Cell<IdScratch> = Cell::default();
}

/// The distinct keys of one batch's selected rows, numbered by pass 1 of
/// the grouped kernel.
struct BatchGroups<K> {
    /// The distinct keys, by id: in order of first appearance.
    keys: Vec<K>,
    /// Per id, the number of selected rows that carry it.
    counts: Vec<u64>,
}

impl<K: GroupKey> BatchGroups<K> {
    /// Numbers the distinct keys of the rows `sel`, writing each row's id
    /// to `scratch.ids`, through an open-addressing table (linear probing)
    /// in `scratch.slots` that is local to the batch and sized by the
    /// selection.
    fn assign(columns: &[&[Value]], sel: &[usize], scratch: &mut IdScratch) -> Self {
        let bits = table_bits(sel.len());
        let mask = (1 << bits) - 1;
        scratch.slots.resize(mask + 1, EMPTY);
        scratch.ids.resize(sel.len(), 0);
        let (slots, ids) = (&mut scratch.slots[..], &mut scratch.ids[..]);
        let (mut keys, mut counts, mut taken) = (Vec::<K>::new(), Vec::new(), Vec::new());
        for (id_of_row, &row) in ids.iter_mut().zip(sel) {
            let mut slot = home_slot(K::hash_row(columns, row), bits);
            let id = loop {
                let id = slots[slot];
                if id == EMPTY {
                    let id = keys.len() as u32;
                    slots[slot] = id;
                    taken.push(slot);
                    keys.push(K::read(columns, row));
                    counts.push(0);
                    break id;
                }
                if keys[id as usize].is_key_of(columns, row) {
                    break id;
                }
                slot = (slot + 1) & mask;
            };
            counts[id as usize] += 1;
            *id_of_row = id;
        }
        for slot in taken {
            slots[slot] = EMPTY;
        }
        Self { keys, counts }
    }
}

/// Folds the selected values of `column` into one partial per group id
/// with `op`: pass 2 of the grouped kernel, one aggregate at a time.
fn fold_by_id(
    partials: &mut [Value],
    ids: &[u32],
    sel: &[usize],
    column: &[Value],
    op: impl Fn(Value, Value) -> Value,
) {
    for (&id, &row) in ids.iter().zip(sel) {
        let partial = &mut partials[id as usize];
        *partial = op(*partial, column[row]);
    }
}

fn fold_keyed<K: GroupKey>(
    groups: &mut BTreeMap<K, GroupState>,
    keys: &[usize],
    aggregates: &[Aggregate],
    batch: &Batch,
    filter: Option<&Predicate>,
) {
    let sel = selection(filter, batch);
    if sel.is_empty() {
        return;
    }
    let columns: Vec<&[Value]> = keys.iter().map(|&c| batch.column(c)).collect();
    if keys.is_empty() {
        // Ungrouped: one group, so one map entry per batch and each
        // aggregate folded straight into its accumulator.
        let selected = |c: usize| {
            let column = batch.column(c);
            sel.iter().map(move |&row| column[row])
        };
        let entry = groups
            .entry(K::read(&columns, sel[0]))
            .or_insert_with(|| new_group_state(aggregates));
        entry.count += sel.len() as u64;
        for (acc, agg) in entry.accumulators.iter_mut().zip(aggregates) {
            *acc = match *agg {
                Aggregate::Count => acc.wrapping_add(sel.len() as Value),
                Aggregate::Sum(c) => selected(c).fold(*acc, Value::wrapping_add),
                Aggregate::Min(c) => selected(c).fold(*acc, Value::min),
                Aggregate::Max(c) => selected(c).fold(*acc, Value::max),
            };
        }
        return;
    }
    let mut scratch = ID_SCRATCH.take();
    fold_grouped(groups, &columns, aggregates, batch, &sel, &mut scratch);
    ID_SCRATCH.set(scratch);
}

/// Folds the rows `sel` of `batch` into `groups` by their keys in the key
/// `columns`: numbers the batch's distinct keys, folds every aggregate one
/// column at a time into per-id partials (aggregate-major), then merges
/// each distinct key's partials into its group once. Never inlined, so the
/// ungrouped loops of `fold_keyed` compile on their own: inlined, this body
/// slowed them.
#[inline(never)]
fn fold_grouped<K: GroupKey>(
    groups: &mut BTreeMap<K, GroupState>,
    columns: &[&[Value]],
    aggregates: &[Aggregate],
    batch: &Batch,
    sel: &[usize],
    scratch: &mut IdScratch,
) {
    let BatchGroups {
        keys: distinct,
        counts,
    } = BatchGroups::<K>::assign(columns, sel, scratch);
    let (ids, n) = (&scratch.ids, distinct.len());
    let mut partials: Vec<Value> = aggregates
        .iter()
        .flat_map(|a| std::iter::repeat(a.identity()).take(n))
        .collect();
    for (agg, out) in aggregates.iter().zip(partials.chunks_mut(n)) {
        match *agg {
            Aggregate::Count => {
                for (partial, &count) in out.iter_mut().zip(&counts) {
                    *partial = count as Value;
                }
            }
            Aggregate::Sum(c) => fold_by_id(out, ids, sel, batch.column(c), Value::wrapping_add),
            Aggregate::Min(c) => fold_by_id(out, ids, sel, batch.column(c), Value::min),
            Aggregate::Max(c) => fold_by_id(out, ids, sel, batch.column(c), Value::max),
        }
    }
    for (id, key) in distinct.into_iter().enumerate() {
        let entry = groups
            .entry(key)
            .or_insert_with(|| new_group_state(aggregates));
        entry.count += counts[id];
        for (a, (acc, agg)) in entry.accumulators.iter_mut().zip(aggregates).enumerate() {
            *acc = agg.merge(*acc, partials[a * n + id]);
        }
    }
}

/// The keyed-aggregation sink: one [`GroupState`] per distinct key, in key
/// order.
pub(crate) struct KeyedAggr<K: GroupKey> {
    keys: Vec<usize>,
    aggregates: Vec<Aggregate>,
    /// The groups folded so far.
    pub groups: BTreeMap<K, GroupState>,
}

impl<K: GroupKey> KeyedAggr<K> {
    /// An empty aggregation of `aggregates` grouped by `keys`.
    pub fn new(keys: Vec<usize>, aggregates: Vec<Aggregate>) -> Self {
        Self {
            keys,
            aggregates,
            groups: BTreeMap::new(),
        }
    }
}

impl<K: GroupKey> Sink for KeyedAggr<K> {
    fn fold(&mut self, batch: &Batch, filter: Option<&Predicate>) {
        fold_keyed(
            &mut self.groups,
            &self.keys,
            &self.aggregates,
            batch,
            filter,
        );
    }
}

/// Plain row collection, in delivery order.
impl Sink for Vec<Vec<Value>> {
    fn fold(&mut self, batch: &Batch, filter: Option<&Predicate>) {
        self.extend(
            selection(filter, batch)
                .into_iter()
                .map(|row| batch.row(row)),
        );
    }
}

/// Folds one batch into a running aggregation: applies `filter` (if any)
/// and accumulates every surviving row into `groups` under `spec`. The
/// incremental form of [`aggregate`] — the same keyed fold a
/// [`QueryTask`](crate::sched::QueryTask) runs, for callers that carry the
/// accumulator state across their own batch loop.
pub fn fold_batch(
    groups: &mut AggrResult,
    batch: Batch,
    filter: Option<&Predicate>,
    spec: &AggrSpec,
) {
    fold_keyed(
        groups,
        spec.group_by.as_slice(),
        &spec.aggregates,
        &batch,
        filter,
    );
}

/// Consumes `source`, applying `filter` (if any) and computing `spec`.
/// This is the Select → Project → Aggr pipeline of the microbenchmark
/// queries, fused into one pass over the batches.
pub fn aggregate(
    source: &mut dyn BatchSource,
    filter: Option<Predicate>,
    spec: &AggrSpec,
) -> Result<AggrResult> {
    let mut groups = AggrResult::new();
    while let Some(batch) = source.next_batch()? {
        fold_batch(&mut groups, batch, filter.as_ref(), spec);
    }
    Ok(groups)
}

// ---------------------------------------------------------------------------
// Top-k selection
// ---------------------------------------------------------------------------

/// Sort direction of a [`TopKSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest values first.
    Asc,
    /// Largest values first.
    Desc,
}

/// A top-k selection: keep the `k` rows with the smallest (`Asc`) or
/// largest (`Desc`) values in `column`, ties broken by full-row
/// lexicographic order so the result is a deterministic function of the row
/// multiset (out-of-order backends like Cooperative Scans cannot change it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKSpec {
    /// Sort column (within the operator output).
    pub column: usize,
    /// Number of rows to keep.
    pub k: usize,
    /// Sort direction.
    pub order: SortOrder,
}

impl TopKSpec {
    /// The total order top-k sorts by: the sort column in the requested
    /// direction, then the whole row ascending as a tie-break.
    pub fn compare(&self, a: &[Value], b: &[Value]) -> std::cmp::Ordering {
        let primary = match self.order {
            SortOrder::Asc => a[self.column].cmp(&b[self.column]),
            SortOrder::Desc => b[self.column].cmp(&a[self.column]),
        };
        primary.then_with(|| a.cmp(b))
    }
}

/// Streaming accumulator for a [`TopKSpec`]: rows are buffered and
/// periodically compacted (sort + truncate to `k`), so memory stays
/// O(k + batch) regardless of input size.
#[derive(Debug)]
pub struct TopKState {
    spec: TopKSpec,
    rows: Vec<Vec<Value>>,
}

impl TopKState {
    /// A fresh accumulator for `spec`.
    pub fn new(spec: TopKSpec) -> Self {
        Self {
            spec,
            rows: Vec::new(),
        }
    }

    fn compact(&mut self) {
        let spec = self.spec;
        self.rows.sort_unstable_by(|a, b| spec.compare(a, b));
        self.rows.truncate(spec.k);
    }

    /// Feeds one batch of candidate rows.
    pub fn push_batch(&mut self, batch: &Batch) {
        self.fold(batch, None);
    }

    /// The final top-k rows, sorted by the spec's total order.
    pub fn finish(mut self) -> Vec<Vec<Value>> {
        self.compact();
        self.rows
    }
}

impl Sink for TopKState {
    fn fold(&mut self, batch: &Batch, filter: Option<&Predicate>) {
        self.rows.extend(
            selection(filter, batch)
                .into_iter()
                .map(|row| batch.row(row)),
        );
        if self.rows.len() > self.spec.k.saturating_mul(2).max(1024) {
            self.compact();
        }
    }
}

// ---------------------------------------------------------------------------
// Broadcast hash join
// ---------------------------------------------------------------------------

/// Accumulates the build side of a broadcast hash join: every build row is
/// hashed on its key column. Finishing sorts each bucket so probe output is
/// a deterministic function of the build row multiset.
#[derive(Debug)]
pub struct JoinBuild {
    key: usize,
    width: usize,
    map: HashMap<Value, Vec<Vec<Value>>>,
}

impl JoinBuild {
    /// A build accumulator over `width`-column rows keyed on column `key`.
    pub fn new(key: usize, width: usize) -> Self {
        assert!(key < width, "join key column out of range");
        Self {
            key,
            width,
            map: HashMap::new(),
        }
    }

    /// Hashes one batch of build rows into the table.
    pub fn push_batch(&mut self, batch: &Batch) {
        assert_eq!(batch.width(), self.width, "build batch width mismatch");
        for row in 0..batch.len() {
            let key = batch.value(row, self.key);
            self.map.entry(key).or_default().push(batch.row(row));
        }
    }

    /// Freezes the build side into a probe-ready [`JoinTable`], sorting
    /// every bucket (build rows arrive in backend delivery order, which
    /// Cooperative Scans permutes; the sort restores determinism).
    pub fn finish(mut self) -> JoinTable {
        for bucket in self.map.values_mut() {
            bucket.sort_unstable();
        }
        JoinTable {
            width: self.width,
            map: self.map,
        }
    }
}

/// The frozen build side of a broadcast hash join, shared (`Arc`) by every
/// probe fragment of the plan.
#[derive(Debug)]
pub struct JoinTable {
    width: usize,
    map: HashMap<Value, Vec<Vec<Value>>>,
}

impl JoinTable {
    /// Number of build-side columns each output row carries.
    pub fn build_width(&self) -> usize {
        self.width
    }

    /// Probes one batch: every probe row that satisfies `filter` is matched
    /// against the table on `key_col` and emits one output row per matching
    /// build row (inner join), laid out as probe columns followed by build
    /// columns.
    pub fn probe(&self, batch: &Batch, key_col: usize, filter: Option<&Predicate>) -> Batch {
        let probe_width = batch.width();
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); probe_width + self.width];
        for row in selection(filter, batch) {
            let Some(bucket) = self.map.get(&batch.value(row, key_col)) else {
                continue;
            };
            for build_row in bucket {
                for (c, column) in columns.iter_mut().enumerate().take(probe_width) {
                    column.push(batch.value(row, c));
                }
                for (c, &v) in build_row.iter().enumerate() {
                    columns[probe_width + c].push(v);
                }
            }
        }
        Batch::new(columns)
    }
}

/// A [`BatchSource`] adapter running the probe side of a broadcast hash
/// join: applies the (pre-join) `filter` to each inner batch, probes the
/// shared [`JoinTable`] and yields the joined batches. Wrapping the normal
/// scan operator keeps the probe scan registered with the buffer-management
/// backend — it shares pages, prunes via zone maps and yields at batch
/// boundaries exactly like a plain scan.
pub struct JoinSource {
    inner: Box<dyn BatchSource + Send>,
    table: Arc<JoinTable>,
    key_col: usize,
    filter: Option<Predicate>,
}

impl JoinSource {
    /// Wraps `inner` (the probe scan) with a probe against `table` on
    /// `inner`'s column `key_col`; `filter` is applied before probing.
    pub fn new(
        inner: Box<dyn BatchSource + Send>,
        table: Arc<JoinTable>,
        key_col: usize,
        filter: Option<Predicate>,
    ) -> Self {
        Self {
            inner,
            table,
            key_col,
            filter,
        }
    }
}

impl std::fmt::Debug for JoinSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinSource")
            .field("key_col", &self.key_col)
            .field("build_width", &self.table.build_width())
            .finish()
    }
}

impl BatchSource for JoinSource {
    fn width(&self) -> usize {
        self.inner.width() + self.table.build_width()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.inner.next_batch()? else {
            return Ok(None);
        };
        let joined = self.table.probe(&batch, self.key_col, self.filter.as_ref());
        Ok(Some(joined))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_storage::datagen::splitmix64;

    fn source() -> VecSource {
        // Columns: key (0/1), value.
        VecSource::new(
            2,
            vec![
                Batch::new(vec![vec![0, 1, 0, 1], vec![10, 20, 30, 40]]),
                Batch::new(vec![vec![1, 0], vec![50, 60]]),
            ],
        )
    }

    /// The selection vector `pred` makes on a one-column batch of `values`,
    /// checked against a row-at-a-time `Predicate::matches`.
    fn checked_selection(pred: Predicate, values: &[Value]) -> Vec<usize> {
        let batch = Batch::new(vec![values.to_vec()]);
        let sel = selection(Some(&pred), &batch);
        let oracle: Vec<usize> = (0..values.len())
            .filter(|&row| pred.matches(values[row]))
            .collect();
        assert_eq!(sel, oracle, "{pred:?} on {values:?}");
        sel
    }

    #[test]
    fn selection_at_the_constant_for_every_operator() {
        // Below, at and above the constant 5, twice over in mixed order.
        let values = [4, 5, 6, 6, 5, 4];
        for (op, expected) in [
            (CompareOp::Lt, vec![0, 5]),
            (CompareOp::Le, vec![0, 1, 4, 5]),
            (CompareOp::Gt, vec![2, 3]),
            (CompareOp::Ge, vec![1, 2, 3, 4]),
            (CompareOp::Eq, vec![1, 4]),
        ] {
            assert_eq!(
                checked_selection(Predicate::new(0, op, 5), &values),
                expected
            );
        }
    }

    #[test]
    fn selection_without_filter_keeps_every_row() {
        let batch = Batch::new(vec![vec![0, 1, 0], vec![10, 30, 50]]);
        assert_eq!(selection(None, &batch), vec![0, 1, 2]);
        assert!(selection(None, &Batch::empty(2)).is_empty());
    }

    #[test]
    fn selection_of_none_and_of_all() {
        let values = [i64::MIN, -1, 0, 7, i64::MAX];
        assert!(checked_selection(Predicate::new(0, CompareOp::Lt, i64::MIN), &values).is_empty());
        assert!(checked_selection(Predicate::new(0, CompareOp::Eq, 3), &values).is_empty());
        let all = checked_selection(Predicate::new(0, CompareOp::Le, i64::MAX), &values);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // The predicate reads its own column of a wider batch.
        let batch = Batch::new(vec![vec![9, 9, 9], vec![1, 2, 3]]);
        let pred = Predicate::new(1, CompareOp::Ge, 2);
        assert_eq!(selection(Some(&pred), &batch), vec![1, 2]);
    }

    #[test]
    fn global_aggregate_that_selects_nothing_creates_no_group() {
        let spec = AggrSpec::global(vec![Aggregate::Count, Aggregate::Min(1)]);
        let mut groups = AggrResult::new();
        let batch = Batch::new(vec![vec![0, 1, 0], vec![10, 30, 50]]);
        let filter = Predicate::new(1, CompareOp::Gt, 50);
        fold_batch(&mut groups, batch.clone(), Some(&filter), &spec);
        assert!(groups.is_empty());
        // A later batch that does select still starts the one group fresh.
        fold_batch(&mut groups, batch, None, &spec);
        assert_eq!(groups[&0].count, 3);
        assert_eq!(groups[&0].accumulators, vec![3, 10]);
    }

    #[test]
    fn global_aggregation_without_filter() {
        let spec = AggrSpec::global(vec![
            Aggregate::Count,
            Aggregate::Sum(1),
            Aggregate::Min(1),
            Aggregate::Max(1),
        ]);
        let result = aggregate(&mut source(), None, &spec).unwrap();
        assert_eq!(result.len(), 1);
        let g = &result[&0];
        assert_eq!(g.count, 6);
        assert_eq!(g.accumulators, vec![6, 210, 10, 60]);
    }

    #[test]
    fn grouped_aggregation_with_filter() {
        // Q1-style: filter value <= 50, group by key, sum(value) and count.
        let spec = AggrSpec::grouped(0, vec![Aggregate::Sum(1), Aggregate::Count]);
        let filter = Some(Predicate::new(1, CompareOp::Le, 50));
        let result = aggregate(&mut source(), filter, &spec).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result[&0].accumulators, vec![40, 2]); // 10 + 30
        assert_eq!(result[&1].accumulators, vec![110, 3]); // 20 + 40 + 50
    }

    #[test]
    fn empty_source_gives_empty_result() {
        let mut empty = VecSource::new(2, vec![]);
        let spec = AggrSpec::global(vec![Aggregate::Count]);
        assert!(aggregate(&mut empty, None, &spec).unwrap().is_empty());
    }

    /// Runs `source` through a fresh keyed sink.
    fn keyed<K: GroupKey>(
        source: &mut VecSource,
        filter: Option<Predicate>,
        keys: &[usize],
        aggregates: &[Aggregate],
    ) -> KeyedAggr<K> {
        let mut sink = KeyedAggr::new(keys.to_vec(), aggregates.to_vec());
        while let Some(batch) = source.next_batch().unwrap() {
            sink.fold(&batch, filter.as_ref());
        }
        sink
    }

    #[test]
    fn multi_key_grouping_matches_hand_computation() {
        // Columns: key (0/1), value; both columns form the composite key.
        let aggregates = [Aggregate::Count, Aggregate::Sum(1)];
        let mut src = VecSource::new(
            2,
            vec![Batch::new(vec![vec![0, 0, 1, 0], vec![10, 10, 10, 20]])],
        );
        let result = keyed::<Vec<Value>>(&mut src, None, &[0, 1], &aggregates).groups;
        assert_eq!(result.len(), 3);
        assert_eq!(result[&vec![0, 10]].accumulators, vec![2, 20]);
        assert_eq!(result[&vec![0, 20]].accumulators, vec![1, 20]);
        assert_eq!(result[&vec![1, 10]].accumulators, vec![1, 10]);
    }

    /// The row-at-a-time fold the grouped kernel replaced, kept as its
    /// oracle: every aggregate matched per row.
    fn accumulate_row(entry: &mut GroupState, aggregates: &[Aggregate], batch: &Batch, row: usize) {
        entry.count += 1;
        for (acc, agg) in entry.accumulators.iter_mut().zip(aggregates) {
            match agg {
                Aggregate::Count => *acc += 1,
                Aggregate::Sum(c) => *acc = acc.wrapping_add(batch.value(row, *c)),
                Aggregate::Min(c) => *acc = (*acc).min(batch.value(row, *c)),
                Aggregate::Max(c) => *acc = (*acc).max(batch.value(row, *c)),
            }
        }
    }

    /// Folds `batches` through a fresh keyed sink and asserts its groups
    /// equal the oracle's: one map entry and one `accumulate_row` per row
    /// `filter` keeps.
    fn assert_matches_oracle<K: GroupKey + std::fmt::Debug>(
        context: &str,
        batches: &[Batch],
        keys: &[usize],
        aggregates: &[Aggregate],
        filter: Option<Predicate>,
    ) {
        let mut oracle = BTreeMap::<K, GroupState>::new();
        for batch in batches {
            let columns: Vec<&[Value]> = keys.iter().map(|&c| batch.column(c)).collect();
            for row in 0..batch.len() {
                if filter.iter().all(|p| p.matches(batch.value(row, p.column))) {
                    let entry = oracle
                        .entry(K::read(&columns, row))
                        .or_insert_with(|| new_group_state(aggregates));
                    accumulate_row(entry, aggregates, batch, row);
                }
            }
        }
        let width = batches[0].width();
        let mut source = VecSource::new(width, batches.to_vec());
        let groups = keyed::<K>(&mut source, filter, keys, aggregates).groups;
        assert_eq!(
            groups, oracle,
            "{context}: keys {keys:?}, {aggregates:?}, {filter:?}"
        );
    }

    /// A key distribution: the key of a row from a random draw and the
    /// row's position in its batch.
    type KeyOf = fn(u64, usize) -> Value;

    /// One batch per entry of `sizes`, of seeded rows: column 0 is the key
    /// `key` gives, column 1 a second key part of two values, column 2 any
    /// `Value` (so sums overflow) and column 3 a measure in -1000..=1000.
    fn seeded_batches(seed: u64, sizes: &[usize], key: KeyOf) -> Vec<Batch> {
        let mut state = seed;
        let mut draw = || {
            state = splitmix64(state);
            state
        };
        let mut batches = Vec::new();
        for &len in sizes {
            let mut rows = Vec::new();
            for row in 0..len {
                rows.push(vec![
                    key(draw(), row),
                    (draw() % 2) as Value,
                    draw() as Value,
                    (draw() % 2001) as Value - 1000,
                ]);
            }
            batches.push(Batch::from_rows(4, &rows));
        }
        batches
    }

    #[test]
    fn grouped_fold_matches_the_row_at_a_time_oracle() {
        const EXTREMES: [Value; 4] = [Value::MIN, -1, 0, Value::MAX];
        let distributions: [(&str, KeyOf); 4] = [
            ("one key", |_, _| 42),
            ("three keys", |draw, _| [-5, 0, 9][(draw % 3) as usize]),
            // Every batch repeats the keys of the one before.
            ("a key per row", |_, row| row as Value),
            ("extreme keys", |draw, _| EXTREMES[(draw % 4) as usize]),
        ];
        let every = [
            Aggregate::Count,
            Aggregate::Sum(2),
            Aggregate::Min(2),
            Aggregate::Max(2),
            Aggregate::Sum(3),
            Aggregate::Min(3),
            Aggregate::Max(3),
        ];
        let aggregate_lists: [&[Aggregate]; 3] = [&every, &[], &[Aggregate::Sum(0)]];
        let filters = [
            None,
            Some(Predicate::new(3, CompareOp::Ge, 0)),
            Some(Predicate::new(3, CompareOp::Lt, -1000)), // selects nothing
        ];
        for (seed, (name, key)) in distributions.into_iter().enumerate() {
            let batches = seeded_batches(seed as u64, &[1000, 1, 700, 1000], key);
            for aggregates in aggregate_lists {
                for filter in filters {
                    for keys in [&[][..], &[0]] {
                        assert_matches_oracle::<Value>(name, &batches, keys, aggregates, filter);
                    }
                    for keys in [&[0][..], &[0, 1], &[1, 0, 3]] {
                        assert_matches_oracle::<Vec<Value>>(
                            name, &batches, keys, aggregates, filter,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_fold_probes_past_colliding_keys() {
        // A batch of 20 rows, each of ten keys twice: six keys share the
        // table's last slot as their home slot, so they probe past one
        // another and wrap around to slot 0; the extreme keys land wherever
        // they hash, possibly in that run.
        let bits = table_bits(20);
        let last = (1 << bits) - 1;
        let home = |v: Value| home_slot(<Value as GroupKey>::hash_row(&[&[v][..]], 0), bits);
        let mut keys: Vec<Value> = (1..).filter(|&v| home(v) == last).take(6).collect();
        keys.extend([Value::MIN, -1, 0, Value::MAX]);
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .chain(keys.iter().rev())
            .enumerate()
            .map(|(i, &key)| vec![key, i as Value * 7 - 50])
            .collect();
        let batch = Batch::from_rows(2, &rows);
        let batches = [batch.clone(), batch];
        let aggregates = [
            Aggregate::Count,
            Aggregate::Sum(1),
            Aggregate::Min(1),
            Aggregate::Max(1),
        ];
        assert_matches_oracle::<Value>("colliding", &batches, &[0], &aggregates, None);
        assert_matches_oracle::<Vec<Value>>("colliding", &batches, &[0], &aggregates, None);
        let mut source = VecSource::new(2, batches.to_vec());
        let groups = keyed::<Value>(&mut source, None, &[0], &aggregates).groups;
        assert_eq!(groups.len(), 10);
        assert!(groups.values().all(|g| g.count == 4));
    }

    #[test]
    fn sum_wraps_through_an_intermediate_overflow() {
        // The running total passes `Value::MAX` but the total fits: every
        // build returns it exactly, ungrouped and grouped, whether the
        // overflow happens inside one batch's fold or between partials.
        let one = vec![Batch::new(vec![vec![0, 0, 0], vec![Value::MAX, 1, -1]])];
        let split = vec![
            Batch::new(vec![vec![0, 0], vec![Value::MAX, 1]]),
            Batch::new(vec![vec![0], vec![-1]]),
        ];
        for batches in [one, split] {
            for spec in [
                AggrSpec::global(vec![Aggregate::Sum(1)]),
                AggrSpec::grouped(0, vec![Aggregate::Sum(1)]),
            ] {
                let mut source = VecSource::new(2, batches.clone());
                let result = aggregate(&mut source, None, &spec).unwrap();
                assert_eq!(result[&0].accumulators, vec![Value::MAX], "{spec:?}");
            }
        }
    }

    #[test]
    fn top_k_is_arrival_order_independent() {
        let spec = TopKSpec {
            column: 1,
            k: 3,
            order: SortOrder::Desc,
        };
        let rows = [
            vec![1, 40],
            vec![2, 40], // tied on the sort column
            vec![3, 10],
            vec![4, 60],
            vec![5, 40],
        ];
        let run = |ordering: &[usize]| {
            let mut state = TopKState::new(spec);
            for &i in ordering {
                state.push_batch(&Batch::from_rows(2, &[rows[i].clone()]));
            }
            state.finish()
        };
        let forward = run(&[0, 1, 2, 3, 4]);
        let backward = run(&[4, 3, 2, 1, 0]);
        assert_eq!(forward, backward);
        // 60 first, then the tied 40s in full-row lexicographic order.
        assert_eq!(forward, vec![vec![4, 60], vec![1, 40], vec![2, 40]]);
    }

    #[test]
    fn top_k_compaction_keeps_results_exact() {
        let spec = TopKSpec {
            column: 0,
            k: 5,
            order: SortOrder::Asc,
        };
        let mut state = TopKState::new(spec);
        // Feed enough rows (descending) to trigger many compactions.
        for chunk in (0..5000i64).rev().collect::<Vec<_>>().chunks(97) {
            let rows: Vec<Vec<Value>> = chunk.iter().map(|&v| vec![v, v * 2]).collect();
            state.push_batch(&Batch::from_rows(2, &rows));
        }
        let result = state.finish();
        let expected: Vec<Vec<Value>> = (0..5).map(|v| vec![v, v * 2]).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn top_k_shorter_input_returns_everything_sorted() {
        let spec = TopKSpec {
            column: 0,
            k: 10,
            order: SortOrder::Asc,
        };
        let mut state = TopKState::new(spec);
        state.push_batch(&Batch::new(vec![vec![3, 1, 2]]));
        assert_eq!(state.finish(), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn join_probe_emits_probe_then_build_columns() {
        // Build: (key, name) — two rows share key 7 (a one-to-many join).
        let mut build = JoinBuild::new(0, 2);
        build.push_batch(&Batch::new(vec![vec![7, 8, 7], vec![70, 80, 71]]));
        let table = build.finish();
        assert_eq!(table.build_width(), 2);
        // Probe: (key, qty); key 9 has no match and is dropped.
        let probe = Batch::new(vec![vec![7, 9, 8], vec![1, 2, 3]]);
        let out = table.probe(&probe, 0, None);
        assert_eq!(out.width(), 4);
        // Buckets are sorted: (7,70) before (7,71).
        assert_eq!(
            out.to_rows(),
            vec![vec![7, 1, 7, 70], vec![7, 1, 7, 71], vec![8, 3, 8, 80],]
        );
    }

    #[test]
    fn join_build_bucket_order_is_delivery_order_independent() {
        let rows = [vec![1, 30], vec![1, 10], vec![1, 20]];
        let finish = |order: &[usize]| {
            let mut build = JoinBuild::new(0, 2);
            for &i in order {
                build.push_batch(&Batch::from_rows(2, &[rows[i].clone()]));
            }
            build.finish()
        };
        let probe = Batch::new(vec![vec![1]]);
        let a = finish(&[0, 1, 2]).probe(&probe, 0, None);
        let b = finish(&[2, 0, 1]).probe(&probe, 0, None);
        assert_eq!(a, b);
        assert_eq!(a.column(2), &[10, 20, 30]);
    }

    #[test]
    fn join_source_filters_before_probing() {
        let mut build = JoinBuild::new(0, 1);
        build.push_batch(&Batch::new(vec![vec![0, 1]]));
        let table = Arc::new(build.finish());
        // Inner: (key, value); filter value > 15 before the probe.
        let inner = VecSource::new(2, vec![Batch::new(vec![vec![0, 1, 2], vec![10, 20, 30]])]);
        let mut source = JoinSource::new(
            Box::new(inner),
            table,
            0,
            Some(Predicate::new(1, CompareOp::Gt, 15)),
        );
        assert_eq!(source.width(), 3);
        let batch = source.next_batch().unwrap().unwrap();
        // Row (0,10) is filtered out; row (2,30) has no build match.
        assert_eq!(batch.to_rows(), vec![vec![1, 20, 1]]);
        assert!(source.next_batch().unwrap().is_none());
    }
}
