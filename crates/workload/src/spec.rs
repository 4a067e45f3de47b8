//! Workload specification types.
//!
//! A [`WorkloadSpec`] is a declarative description — concurrent
//! [`StreamSpec`]s of [`QuerySpec`]s, each a sequence of [`ScanSpec`]s,
//! optionally mixed with [`UpdateStreamSpec`]s of differential updates —
//! with **two** executors:
//!
//! * the discrete-event simulator (`scanshare-sim`), which models the
//!   workload in virtual time and regenerates the paper's figures;
//! * the execution engine's `WorkloadDriver` (`scanshare-exec`), which runs
//!   the same spec against a live `Engine` — one session task per stream on
//!   the engine's task scheduler, queries lowered onto the builder `Query`
//!   API — and reports wall-clock throughput, latency percentiles and
//!   buffer/I/O statistics.
//!
//! The two agree on I/O volume for the same spec and configuration
//! (`tests/simulator_vs_engine.rs` asserts it), so specs serve both as
//! figure inputs and as engine throughput workloads.
//!
//! # Mixed read/write workloads
//!
//! A workload with a non-empty [`WorkloadSpec::update_streams`] executes in
//! **rounds** in both executors ([`WorkloadSpec::phases`]): at each round
//! barrier every update stream applies [`UpdateStreamSpec::ops_per_round`]
//! generated operations as one snapshot-isolated transaction (and
//! optionally checkpoints the table), then every read stream runs its next
//! query concurrently. A workload without read streams has no round, so its
//! updates never apply. The barrier makes the sequence of (update batch,
//! checkpoint, scan registration) events identical in the multi-threaded
//! engine and the single-threaded simulator, which is what lets the
//! `fig_updates` bench gate exact
//! engine == simulator I/O parity while updates and checkpoints churn the
//! table underneath the scans. Operations come from the deterministic
//! [`UpdateOpGen`], seeded per stream, so both executors generate the
//! byte-identical operation sequence.

use scanshare_common::{Error, RangeList, Result, TableId, TupleRange};
use scanshare_storage::datagen::splitmix64;
use scanshare_storage::zone::ZonePredicate;

/// One range scan performed by a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSpec {
    /// The scanned table.
    pub table: TableId,
    /// Column indices (within the table spec) the scan reads.
    pub columns: Vec<usize>,
    /// Tuple ranges (SID space) the scan covers.
    pub ranges: RangeList,
    /// Optional row-level predicate (the column index is **table**-relative,
    /// like [`ScanSpec::columns`], and must name a scanned column). Both
    /// executors apply it to every produced row, and — when zone maps are
    /// enabled — use it to skip chunks whose min/max metadata proves no row
    /// can match.
    pub predicate: Option<ZonePredicate>,
}

impl ScanSpec {
    /// Total tuples the scan covers (before any predicate filtering).
    pub fn total_tuples(&self) -> u64 {
        self.ranges.total_tuples()
    }
}

/// A broadcast hash join between the first two scans of a query.
///
/// By convention `scans[0]` is the **build** side: it is scanned in full
/// and hashed before any probe I/O starts. `scans[1]` is the **probe**
/// side, streamed through the normal shared-scan machinery (so the probe
/// scan still registers with the buffer manager, shares pages and prunes
/// via zone maps). Column indices are projection-relative: they index into
/// the respective scan's `columns` list, not the table spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSpec {
    /// Probe-side join key: index into `scans[1].columns`.
    pub left_col: usize,
    /// Build-side join key: index into `scans[0].columns`.
    pub right_col: usize,
}

/// One query of a workload stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Human-readable label ("Q01", "micro-q6-50%", ...).
    pub label: String,
    /// The scans the query performs (executed one after another; for join
    /// queries `scans[0]` is the build side and `scans[1]` the probe side).
    pub scans: Vec<ScanSpec>,
    /// CPU cost multiplier relative to the baseline tuple-processing rate
    /// (1.0 = a simple scan-select-aggregate; complex TPC-H queries are
    /// higher). Finite and non-negative: [`QuerySpec::steps`] rejects any
    /// other factor.
    pub cpu_factor: f64,
    /// Optional broadcast hash join between `scans[0]` (build) and
    /// `scans[1]` (probe). `None` keeps the query a plain multi-scan
    /// aggregation.
    pub join: Option<JoinSpec>,
}

impl QuerySpec {
    /// Total tuples the query scans across all of its scans.
    pub fn total_tuples(&self) -> u64 {
        self.scans.iter().map(ScanSpec::total_tuples).sum()
    }

    /// Lowers the query into the ordered [`QueryStep`]s both executors run:
    /// one step per `(scan, range)`, in spec order. A `cpu_factor` that is
    /// NaN, infinite or negative is an [`Error::InvalidPlan`]: no CPU time
    /// can be charged for it.
    ///
    /// A [`JoinSpec`] is validated here, once for both executors — exactly
    /// two scans, the build scan unpredicated and covering the whole visible
    /// table (`visible_rows` answers with the executor's current row count
    /// of a table; it is only asked about a join's build table), a
    /// single-range probe, both keys inside their projections — and lowers
    /// to the build step, its projection reordered **key first** (the order
    /// the join operator reads it in), followed by the probe step carrying
    /// [`QueryStep::join_key`].
    pub fn steps(
        &self,
        visible_rows: &mut dyn FnMut(TableId) -> Result<u64>,
    ) -> Result<Vec<QueryStep>> {
        let label = &self.label;
        if !(self.cpu_factor.is_finite() && self.cpu_factor >= 0.0) {
            return Err(Error::plan(format!(
                "query {label:?} has cpu_factor {}; it must be finite and non-negative",
                self.cpu_factor
            )));
        }
        let mut steps: Vec<QueryStep> = self
            .scans
            .iter()
            .flat_map(|scan| {
                scan.ranges.ranges().iter().map(|&range| QueryStep {
                    table: scan.table,
                    columns: scan.columns.clone(),
                    range,
                    predicate: scan.predicate,
                    join_key: None,
                })
            })
            .collect();
        let Some(join) = &self.join else {
            return Ok(steps);
        };
        let [build, probe] = self.scans.as_slice() else {
            return Err(Error::plan(format!(
                "join query {label:?} needs exactly two scans (build, probe), got {}",
                self.scans.len()
            )));
        };
        if build.predicate.is_some() {
            return Err(Error::plan(format!(
                "join query {label:?} puts a predicate on its build scan; predicates are \
                 probe-side only"
            )));
        }
        let visible = visible_rows(build.table)?;
        if build.ranges.ranges() != [TupleRange::new(0, visible)] {
            return Err(Error::plan(format!(
                "join query {label:?} must scan the full build table (0..{visible}), got {:?}",
                build.ranges.ranges()
            )));
        }
        if probe.ranges.ranges().len() != 1 {
            return Err(Error::plan(format!(
                "join query {label:?} needs a single-range probe scan, got {} ranges",
                probe.ranges.ranges().len()
            )));
        }
        for (side, key, columns) in [
            ("build", join.right_col, &build.columns),
            ("probe", join.left_col, &probe.columns),
        ] {
            if key >= columns.len() {
                return Err(Error::plan(format!(
                    "join query {label:?} keys on {side} column {key} of {}",
                    columns.len()
                )));
            }
        }
        // Both scans are single-range: `steps` is exactly [build, probe].
        steps[0].columns[..=join.right_col].rotate_right(1);
        steps[1].join_key = Some(join.left_col);
        Ok(steps)
    }
}

/// One backend registration of a lowered [`QuerySpec`] (see
/// [`QuerySpec::steps`]): a scan of one contiguous visible-row range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStep {
    /// The scanned table.
    pub table: TableId,
    /// Column indices (within the table spec) the step reads, in read order.
    pub columns: Vec<usize>,
    /// The visible-row range the step covers.
    pub range: TupleRange,
    /// Optional row-level predicate (table-relative, see
    /// [`ScanSpec::predicate`]).
    pub predicate: Option<ZonePredicate>,
    /// Set on the **probe** step of a join query: the probe-side join key
    /// (index into `columns`). The step before it is the build side, whose
    /// `columns[0]` is the build key, and is a barrier: the build scan drains
    /// and unregisters before the probe step registers.
    pub join_key: Option<usize>,
}

/// A stream: a sequence of queries executed back to back by one client.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Stream label.
    pub label: String,
    /// Queries in execution order.
    pub queries: Vec<QuerySpec>,
}

/// Relative weights of the three update kinds in an update stream's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateMix {
    /// Weight of row inserts.
    pub inserts: u32,
    /// Weight of row deletes.
    pub deletes: u32,
    /// Weight of single-column modifications.
    pub modifies: u32,
}

impl UpdateMix {
    /// Equal parts inserts, deletes and modifications.
    pub fn balanced() -> Self {
        Self {
            inserts: 1,
            deletes: 1,
            modifies: 1,
        }
    }

    /// Modification-heavy mix (the common OLTP-on-OLAP trickle pattern).
    pub fn mostly_modifies() -> Self {
        Self {
            inserts: 1,
            deletes: 1,
            modifies: 6,
        }
    }

    fn total(&self) -> u64 {
        (self.inserts as u64 + self.deletes as u64 + self.modifies as u64).max(1)
    }
}

/// One update stream of a mixed read/write workload: a client that applies
/// batches of differential updates to a table between query rounds,
/// optionally checkpointing periodically. See the [module docs](self) for
/// the round-barrier execution model shared by the engine and the
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStreamSpec {
    /// Stream label used in reports.
    pub label: String,
    /// The updated table.
    pub table: TableId,
    /// Update operations applied (as one transaction) at every round
    /// barrier — the workload's "update rate" knob. `0` makes the stream a
    /// checkpoint-only stream.
    pub ops_per_round: u64,
    /// Relative weights of inserts / deletes / modifications.
    pub mix: UpdateMix,
    /// Checkpoint the table after every `n`-th round's updates (`None`
    /// never checkpoints; the PDTs then grow for the whole run).
    pub checkpoint_every: Option<u64>,
    /// Seed of the deterministic operation generator.
    pub seed: u64,
}

impl UpdateStreamSpec {
    /// The stream's deterministic operation generator, positioned at the
    /// first operation. Both executors create one per stream and pull
    /// exactly [`UpdateStreamSpec::ops_per_round`] operations per round, so
    /// they apply the byte-identical update sequence.
    pub fn ops(&self) -> UpdateOpGen {
        UpdateOpGen {
            state: self.seed | 1,
            mix: self.mix,
        }
    }

    /// Whether the stream checkpoints its table at the end of (0-based)
    /// round `round`'s update batch.
    pub fn checkpoint_due(&self, round: usize) -> bool {
        matches!(self.checkpoint_every, Some(n) if n > 0 && (round as u64 + 1) % n == 0)
    }
}

/// One generated update operation. Positions are in the table's visible-row
/// (RID) space at the time the operation is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a full row at visible position `rid`.
    Insert {
        /// Insert position (`0..=visible_rows`).
        rid: u64,
        /// One value per table column.
        row: Vec<i64>,
    },
    /// Delete the visible row at `rid`.
    Delete {
        /// Deleted position (`0..visible_rows`).
        rid: u64,
    },
    /// Overwrite one column of the visible row at `rid`.
    Modify {
        /// Modified position (`0..visible_rows`).
        rid: u64,
        /// Column index within the table spec.
        col: usize,
        /// The new value.
        value: i64,
    },
}

/// Deterministic update-operation generator (a `splitmix64` stream seeded
/// from the [`UpdateStreamSpec`]). The generator is fed the table's current
/// visible row count per operation, so positions are always valid for the
/// state the operation is applied to.
#[derive(Debug, Clone)]
pub struct UpdateOpGen {
    state: u64,
    mix: UpdateMix,
}

impl UpdateOpGen {
    fn next_raw(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Generates the next operation against a table with `visible_rows`
    /// visible rows and `columns` columns. An empty table always receives
    /// an insert (deletes and modifications would have no target).
    pub fn next_op(&mut self, visible_rows: u64, columns: usize) -> UpdateOp {
        let columns = columns.max(1);
        let pick = self.next_raw() % self.mix.total();
        let value = (self.next_raw() % 1_000_000) as i64;
        if visible_rows == 0 || pick < self.mix.inserts as u64 {
            let rid = self.next_raw() % (visible_rows + 1);
            return UpdateOp::Insert {
                rid,
                row: (0..columns).map(|c| value + c as i64).collect(),
            };
        }
        let rid = self.next_raw() % visible_rows;
        if pick < self.mix.inserts as u64 + self.mix.deletes as u64 {
            UpdateOp::Delete { rid }
        } else {
            UpdateOp::Modify {
                rid,
                col: (self.next_raw() % columns as u64) as usize,
                value,
            }
        }
    }
}

/// A complete workload: several concurrent read streams, optionally mixed
/// with update streams (see the [module docs](self) for the mixed
/// execution model).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name used in reports.
    pub name: String,
    /// Concurrent streams.
    pub streams: Vec<StreamSpec>,
    /// Update streams applied at round barriers (empty for the read-only
    /// workloads of the paper's figures).
    pub update_streams: Vec<UpdateStreamSpec>,
}

impl WorkloadSpec {
    /// A read-only workload (the paper's figures).
    pub fn read_only(name: impl Into<String>, streams: Vec<StreamSpec>) -> Self {
        Self {
            name: name.into(),
            streams,
            update_streams: Vec::new(),
        }
    }

    /// Adds an update stream, turning the workload into a round-barriered
    /// mixed read/write workload.
    pub fn with_update_stream(mut self, spec: UpdateStreamSpec) -> Self {
        self.update_streams.push(spec);
        self
    }

    /// Whether any update stream is configured.
    pub fn has_updates(&self) -> bool {
        !self.update_streams.is_empty()
    }

    /// Number of rounds a mixed workload executes: one per query of the
    /// longest read stream (streams with fewer queries idle in later
    /// rounds, while updates keep applying). A workload without read
    /// streams has no round, so its update streams never apply.
    pub fn rounds(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.queries.len())
            .max()
            .unwrap_or(0)
    }

    /// The phases both executors run, in order, with the update barrier
    /// before each: per phase, every stream's queries of that phase, run
    /// back to back.
    ///
    /// A read-only workload is one phase holding each stream's whole query
    /// list. A mixed workload has one phase per [round](Self::rounds),
    /// holding each stream's query of that round, or an empty slice once the
    /// stream has run out; with no read stream it has no phase at all.
    pub fn phases(&self) -> Vec<Vec<&[QuerySpec]>> {
        if !self.has_updates() {
            return vec![self.streams.iter().map(|s| s.queries.as_slice()).collect()];
        }
        (0..self.rounds())
            .map(|round| {
                let queries = self.streams.iter().map(|s| &s.queries[..]);
                queries
                    .map(|q| q.get(round..=round).unwrap_or(&[]))
                    .collect()
            })
            .collect()
    }

    /// Number of streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Total number of queries across all streams.
    pub fn query_count(&self) -> usize {
        self.streams.iter().map(|s| s.queries.len()).sum()
    }

    /// Total tuples scanned by the whole workload.
    pub fn total_tuples(&self) -> u64 {
        self.streams
            .iter()
            .flat_map(|s| &s.queries)
            .map(QuerySpec::total_tuples)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let scan = ScanSpec {
            table: TableId::new(0),
            columns: vec![0, 1],
            ranges: RangeList::from_ranges([TupleRange::new(0, 100), TupleRange::new(200, 250)]),
            predicate: None,
        };
        assert_eq!(scan.total_tuples(), 150);
        let query = QuerySpec {
            label: "q".into(),
            scans: vec![scan.clone(), scan],
            cpu_factor: 1.0,
            join: None,
        };
        assert_eq!(query.total_tuples(), 300);
        let stream = StreamSpec {
            label: "s".into(),
            queries: vec![query.clone(), query],
        };
        let workload = WorkloadSpec::read_only("w", vec![stream.clone(), stream]);
        assert_eq!(workload.stream_count(), 2);
        assert_eq!(workload.query_count(), 4);
        assert_eq!(workload.total_tuples(), 1200);
        assert!(!workload.has_updates());
        assert_eq!(workload.rounds(), 2);
    }

    #[test]
    fn steps_are_one_per_range_and_join_builds_read_key_first() {
        let scan = |table: u32, columns: Vec<usize>, ranges: RangeList| ScanSpec {
            table: TableId::new(table),
            columns,
            ranges,
            predicate: None,
        };
        let two_ranges =
            RangeList::from_ranges([TupleRange::new(0, 100), TupleRange::new(200, 250)]);
        let mut query = QuerySpec {
            label: "q".into(),
            scans: vec![
                scan(0, vec![3, 5, 7], RangeList::single(0, 40)),
                scan(1, vec![0, 1], two_ranges),
            ],
            cpu_factor: 1.0,
            join: None,
        };
        let mut visible = |table: TableId| Ok(if table == TableId::new(0) { 40 } else { 250 });
        let steps = query.steps(&mut visible).unwrap();
        let ranges: Vec<TupleRange> = steps.iter().map(|s| s.range).collect();
        assert_eq!(
            ranges,
            [
                TupleRange::new(0, 40),
                TupleRange::new(0, 100),
                TupleRange::new(200, 250)
            ]
        );
        assert!(steps.iter().all(|s| s.join_key.is_none()));

        // As a join: build key (projection index 2) first, probe marked.
        query.scans[1].ranges = RangeList::single(0, 250);
        query.join = Some(JoinSpec {
            left_col: 1,
            right_col: 2,
        });
        let steps = query.steps(&mut visible).unwrap();
        assert_eq!(steps[0].columns, [7, 3, 5]);
        assert_eq!((steps[0].join_key, steps[1].join_key), (None, Some(1)));
        // A key outside its projection is a plan error.
        query.join = Some(JoinSpec {
            left_col: 2,
            right_col: 0,
        });
        assert!(matches!(
            query.steps(&mut visible),
            Err(Error::InvalidPlan(_))
        ));
    }

    #[test]
    fn update_streams_make_a_workload_mixed() {
        let workload =
            WorkloadSpec::read_only("w", Vec::new()).with_update_stream(UpdateStreamSpec {
                label: "u0".into(),
                table: TableId::new(0),
                ops_per_round: 16,
                mix: UpdateMix::balanced(),
                checkpoint_every: Some(2),
                seed: 42,
            });
        assert!(workload.has_updates());
        let spec = &workload.update_streams[0];
        assert!(!spec.checkpoint_due(0));
        assert!(spec.checkpoint_due(1));
        assert!(spec.checkpoint_due(3));
        let never = UpdateStreamSpec {
            checkpoint_every: None,
            ..spec.clone()
        };
        assert!(!never.checkpoint_due(1));
    }

    /// Streams of 2, 0 and 1 queries, each query labelled by its position.
    fn uneven_streams() -> Vec<StreamSpec> {
        let stream = |s: usize, n: usize| StreamSpec {
            label: format!("s{s}"),
            queries: (0..n)
                .map(|q| QuerySpec {
                    label: format!("s{s}q{q}"),
                    scans: Vec::new(),
                    cpu_factor: 1.0,
                    join: None,
                })
                .collect(),
        };
        vec![stream(0, 2), stream(1, 0), stream(2, 1)]
    }

    fn updates() -> UpdateStreamSpec {
        UpdateStreamSpec {
            label: "u".into(),
            table: TableId::new(0),
            ops_per_round: 4,
            mix: UpdateMix::balanced(),
            checkpoint_every: Some(2),
            seed: 1,
        }
    }

    fn labels(phases: &[Vec<&[QuerySpec]>]) -> Vec<Vec<Vec<String>>> {
        let stream = |queries: &&[QuerySpec]| queries.iter().map(|q| q.label.clone()).collect();
        phases
            .iter()
            .map(|phase| phase.iter().map(stream).collect())
            .collect()
    }

    #[test]
    fn a_read_only_workload_is_one_phase_of_every_full_stream() {
        let workload = WorkloadSpec::read_only("w", uneven_streams());
        assert_eq!(
            labels(&workload.phases()),
            [[vec!["s0q0", "s0q1"], vec![], vec!["s2q0"]]]
        );
        // No stream at all is still one (empty) phase.
        let empty = WorkloadSpec::read_only("none", Vec::new());
        assert_eq!(empty.phases(), [Vec::<&[QuerySpec]>::new()]);
    }

    #[test]
    fn a_mixed_workload_has_one_phase_per_round_and_idles_short_streams() {
        let workload = WorkloadSpec::read_only("w", uneven_streams()).with_update_stream(updates());
        let phases = workload.phases();
        assert_eq!(phases.len(), workload.rounds());
        assert_eq!(
            labels(&phases),
            [
                [vec!["s0q0"], vec![], vec!["s2q0"]],
                [vec!["s0q1"], vec![], vec![]],
            ]
        );
    }

    #[test]
    fn a_mixed_workload_without_read_streams_has_no_phase() {
        let workload = WorkloadSpec::read_only("w", Vec::new()).with_update_stream(updates());
        assert_eq!(workload.rounds(), 0);
        assert!(workload.phases().is_empty(), "its updates never apply");
    }

    #[test]
    fn op_generation_is_deterministic_and_in_bounds() {
        let spec = UpdateStreamSpec {
            label: "u".into(),
            table: TableId::new(0),
            ops_per_round: 0,
            mix: UpdateMix::mostly_modifies(),
            checkpoint_every: None,
            seed: 7,
        };
        let run = || {
            let mut gen = spec.ops();
            let mut visible = 10u64;
            let mut ops = Vec::new();
            for _ in 0..200 {
                let op = gen.next_op(visible, 3);
                match &op {
                    UpdateOp::Insert { rid, row } => {
                        assert!(*rid <= visible);
                        assert_eq!(row.len(), 3);
                        visible += 1;
                    }
                    UpdateOp::Delete { rid } => {
                        assert!(*rid < visible);
                        visible -= 1;
                    }
                    UpdateOp::Modify { rid, col, .. } => {
                        assert!(*rid < visible);
                        assert!(*col < 3);
                    }
                }
                ops.push(op);
            }
            ops
        };
        assert_eq!(run(), run());
        // An empty table only ever receives inserts.
        let mut gen = spec.ops();
        for _ in 0..20 {
            assert!(matches!(gen.next_op(0, 2), UpdateOp::Insert { .. }));
        }
    }
}
