//! The builder-style query API — the single entry point for running queries
//! against an [`Engine`].
//!
//! A [`Query`] expresses the `Scan -> Select -> Aggr` plans of the paper's
//! microbenchmarks (optionally split into the static range parts of
//! Figure 8 / Equation 1) without positional arguments:
//!
//! ```ignore
//! let result = engine
//!     .query(table)
//!     .columns(["l_flag", "l_quantity"])
//!     .range(1000..5000)
//!     .filter(Predicate::new(1, CompareOp::Le, 24))
//!     .aggregate(AggrSpec::grouped(0, vec![Aggregate::Sum(1), Aggregate::Count]))
//!     .parallelism(4)
//!     .run()?;
//! ```
//!
//! Every clause has a default: all visible rows (`range`), no filter, one
//! range part (`parallelism`), backend-chosen delivery order. Only `columns`
//! is mandatory, and `run` requires an `aggregate`; use [`Query::rows`] to
//! materialize filtered rows without aggregating.
//!
//! There is one pipeline behind the terminals: [`Query::run`],
//! [`Query::run_grouped`], [`Query::rows`] and [`Query::into_task`] all run
//! the one plan validator first — a misplaced clause or a column index
//! outside the row its clause is applied to is an [`Error::InvalidPlan`]
//! before anything is pinned or registered — and then build the one query
//! state machine of [`crate::sched`], differing only in the sink (see
//! [`crate::ops`]) every range part feeds. `into_task` hands the machine to
//! the caller (to spawn on a [`TaskScheduler`](crate::sched::TaskScheduler));
//! the other three drive it to completion on the caller's thread.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use scanshare_common::{Error, Result, TableId, TupleRange};
use scanshare_storage::datagen::Value;

use crate::engine::Engine;
use crate::ops::{
    AggrResult, AggrSpec, Aggregate, BatchSource, GroupedResult, JoinBuild, JoinSource, JoinTable,
    KeyedAggr, Predicate, Sink, SortOrder, TopKSpec, TopKState,
};
use crate::sched::{run_to_done, Pipeline, QueryTask};
use crate::txn::TablePin;

/// The join clause of a [`Query`]: a broadcast hash join against another
/// table. The build side (the other table) is fully scanned and hashed
/// before the probe side opens; the probe side is the query's own scan.
#[derive(Debug, Clone)]
struct JoinClause {
    /// The build-side table.
    table: TableId,
    /// Probe-projection column index joined against the build key.
    left_col: usize,
    /// The build-side projection (by name): the join key first, then the
    /// extra columns — the layout the join output appends after the probe
    /// columns.
    columns: Vec<String>,
}

/// A query under construction; see the [module docs](self) for the clause
/// semantics. Created with [`Engine::query`] (reading the committed state)
/// or [`Txn::query`](crate::txn::Txn::query) (reading a transaction's
/// private view).
#[derive(Debug, Clone)]
#[must_use = "a Query does nothing until `.run()` or `.rows()` is called"]
pub struct Query {
    engine: Arc<Engine>,
    table: TableId,
    /// The `(Snapshot, PdtStack)` pair the query reads through. `None`
    /// until execution, when the table's published state is pinned; a query
    /// built by a transaction carries the transaction's view instead.
    /// Either way every scan of the query — every range part — shares one
    /// consistent pin.
    pin: Option<TablePin>,
    columns: Vec<String>,
    start: u64,
    end: Option<u64>,
    filter: Option<Predicate>,
    aggregate: Option<AggrSpec>,
    group_keys: Option<Vec<usize>>,
    top_k: Option<TopKSpec>,
    join: Option<JoinClause>,
    /// Extra build columns from [`Query::join_columns`], merged into the
    /// join clause at validation (calling it without a join is a plan
    /// error, reported there).
    join_extra: Option<Vec<String>>,
    parallelism: usize,
    in_order: bool,
}

impl Query {
    pub(crate) fn new(engine: Arc<Engine>, table: TableId) -> Self {
        Self {
            engine,
            table,
            pin: None,
            columns: Vec::new(),
            start: 0,
            end: None,
            filter: None,
            aggregate: None,
            group_keys: None,
            top_k: None,
            join: None,
            join_extra: None,
            parallelism: 1,
            in_order: false,
        }
    }

    /// A query that reads through an explicit pin (a transaction's view).
    pub(crate) fn with_pin(engine: Arc<Engine>, table: TableId, pin: TablePin) -> Self {
        let mut query = Self::new(engine, table);
        query.pin = Some(pin);
        query
    }

    /// Sets the columns (by name) the query scans. Predicate and aggregate
    /// column indices refer to positions in this projection.
    pub fn columns<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.columns = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Restricts the query to a visible-row (RID) range; accepts any range
    /// expression (`..`, `500..`, `..4500`, `500..4500`). Defaults to all
    /// visible rows; the end is clamped to the table's visible row count.
    pub fn range<R: RangeBounds<u64>>(mut self, range: R) -> Self {
        self.start = match range.start_bound() {
            Bound::Included(&start) => start,
            Bound::Excluded(&start) => start + 1,
            Bound::Unbounded => 0,
        };
        self.end = match range.end_bound() {
            Bound::Included(&end) => Some(end + 1),
            Bound::Excluded(&end) => Some(end),
            Bound::Unbounded => None,
        };
        self
    }

    /// Restricts the query to `rid_range` (the [`TupleRange`] form of
    /// [`Query::range`]).
    pub fn tuple_range(self, rid_range: TupleRange) -> Self {
        self.range(rid_range.start..rid_range.end)
    }

    /// Filters scanned rows with `predicate` (column index within the
    /// projection).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.filter = Some(predicate);
        self
    }

    /// Sets the aggregation computed over the (filtered) rows; required by
    /// [`Query::run`].
    pub fn aggregate(mut self, spec: AggrSpec) -> Self {
        self.aggregate = Some(spec);
        self
    }

    /// Groups by the composite key formed by `keys` (column indices within
    /// the operator output — the joined row when a [`Query::join`] is
    /// present). Combine with [`Query::aggregate`] (a global [`AggrSpec`]
    /// supplying the per-group aggregates) and execute with
    /// [`Query::run_grouped`].
    pub fn group_by(mut self, keys: &[usize]) -> Self {
        self.group_keys = Some(keys.to_vec());
        self
    }

    /// Keeps only the `k` rows with the smallest (`Asc`) or largest
    /// (`Desc`) values in `column` (an operator-output index), value ties
    /// broken by full-row lexicographic order so the result is independent
    /// of delivery order. Consumed by [`Query::rows`].
    pub fn top_k(mut self, column: usize, k: usize, order: SortOrder) -> Self {
        self.top_k = Some(TopKSpec { column, k, order });
        self
    }

    /// Joins the scanned rows against `table` with a broadcast hash join:
    /// `table` is fully scanned (key column `right_col` plus any
    /// [`Query::join_columns`]) and hashed up front, then the query's own
    /// scan streams through the probe. Output rows are the probe projection
    /// followed by the build key and the extra build columns; downstream
    /// aggregate / group-by / top-k indices refer to that joined layout,
    /// while [`Query::filter`] keeps referring to the probe projection (it
    /// is applied before the probe).
    pub fn join(mut self, table: TableId, left_col: usize, right_col: impl Into<String>) -> Self {
        self.join = Some(JoinClause {
            table,
            left_col,
            columns: vec![right_col.into()],
        });
        self
    }

    /// Adds build-side columns (beyond the join key) to the join output;
    /// requires a preceding [`Query::join`].
    pub fn join_columns<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.join_extra = Some(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Splits the plan into `parts` static range parts (Equation 1) that the
    /// query interleaves inside its one task, batch quanta at a time, on
    /// every terminal. Defaults to 1. Cores come from running many queries
    /// at once (on a [`TaskScheduler`](crate::sched::TaskScheduler)), not
    /// from this setting.
    pub fn parallelism(mut self, parts: usize) -> Self {
        self.parallelism = parts;
        self
    }

    /// Forces in-order row delivery even on backends that prefer to reorder
    /// (the "CScan as drop-in Scan replacement" mode). Aggregations are
    /// order-insensitive; this matters for [`Query::rows`].
    pub fn in_order(mut self) -> Self {
        self.in_order = true;
        self
    }

    /// The one plan validator, run first by every terminal: clause shape,
    /// and every column index a clause names against the row that clause is
    /// applied to (filter and join key: the probe projection; group keys,
    /// top-k and aggregates: the operator output). Batches are indexed
    /// unchecked, so nothing downstream catches what this lets through.
    fn validate(&mut self) -> Result<()> {
        if self.columns.is_empty() {
            return Err(Error::plan(
                "query selects no columns; call .columns([...]) with at least one column name",
            ));
        }
        if self.parallelism == 0 {
            return Err(Error::plan("query parallelism must be at least 1"));
        }
        if let Some(extra) = self.join_extra.take() {
            match self.join.as_mut() {
                Some(join) => {
                    join.columns.truncate(1);
                    join.columns.extend(extra);
                }
                None => {
                    return Err(Error::plan(
                        "join_columns without a join; call .join(table, left, right) first",
                    ))
                }
            }
        }
        // Operator output rows are the probe projection plus, in join plans,
        // the build key and the extra build columns.
        let probe = (self.columns.len(), "probe projection");
        let joined = self.join.as_ref().map_or(0, |join| join.columns.len());
        let output = (probe.0 + joined, "operator output");
        let check = |what: &str, column: usize, (width, row): (usize, &str)| {
            if column < width {
                return Ok(());
            }
            Err(Error::plan(format!(
                "{what} column {column} is outside the {width}-column {row}"
            )))
        };
        if let Some(join) = &self.join {
            check("join key", join.left_col, probe)?;
        }
        if let Some(filter) = &self.filter {
            check("filter", filter.column, probe)?;
        }
        for &key in self.group_keys.iter().flatten() {
            check("group key", key, output)?;
        }
        if let Some(top_k) = &self.top_k {
            check("top_k", top_k.column, output)?;
        }
        if let Some(spec) = &self.aggregate {
            if let Some(column) = spec.group_by {
                check("group_by", column, output)?;
            }
            for aggregate in &spec.aggregates {
                if let Aggregate::Sum(c) | Aggregate::Min(c) | Aggregate::Max(c) = *aggregate {
                    check("aggregate", c, output)?;
                }
            }
        }
        Ok(())
    }

    /// The aggregating state machine behind `terminal` (`run`,
    /// `into_task`): the single-key aggregation; group keys and top-k belong
    /// to the other terminals.
    fn aggregate_task(mut self, terminal: &str) -> Result<QueryTask> {
        self.validate()?;
        if self.group_keys.is_some() {
            return Err(Error::plan(format!(
                "query has group_by keys; use .run_grouped() instead of {terminal}"
            )));
        }
        if self.top_k.is_some() {
            return Err(Error::plan(format!(
                "top_k applies to .rows(), not {terminal}"
            )));
        }
        let spec = self.aggregate.take().ok_or_else(|| {
            Error::plan("query has no aggregate; call .aggregate(...) or use .rows()")
        })?;
        let sink = KeyedAggr::new(spec.group_by.into_iter().collect(), spec.aggregates);
        Ok(QueryTask(self.pipeline(sink)?))
    }

    /// Pins the table's published state (unless the query carries a
    /// transaction's view) and splits the effective RID range — the
    /// requested bounds clamped to the rows visible through the pin — evenly
    /// over `parallelism` parts (Equation 1); a range with fewer rows than
    /// parts stays whole, an empty one has no parts.
    fn range_parts(&mut self) -> Result<Vec<TupleRange>> {
        if self.pin.is_none() {
            self.pin = Some(self.engine.table_pin(self.table)?);
        }
        let visible = self.pin.as_ref().map_or(0, TablePin::visible_rows);
        let end = self.end.unwrap_or(visible).min(visible);
        let range = TupleRange::new(self.start.min(end), end);
        Ok(match range.len() {
            0 => Vec::new(),
            len if len < self.parallelism as u64 => vec![range],
            _ => range.split_even(self.parallelism),
        })
    }

    /// The one place every terminal opens its scans: pins and splits the
    /// range, then builds the query state machine feeding `sink`.
    fn pipeline<S: Sink>(mut self, sink: S) -> Result<Pipeline<S>> {
        let parts = self.range_parts()?;
        Pipeline::new(self, parts, sink)
    }

    /// Opens the build side of the join clause, if any: a full scan of the
    /// build table's key + extra columns through a fresh pin, and the empty
    /// hash table it fills. The scan registers with the backend like any
    /// other; dropping it unregisters it — the caller drains it fully
    /// *before* opening any probe scan, which is what makes the join
    /// "broadcast": one build pass, shared by every probe fragment.
    pub(crate) fn open_join_build(
        &self,
    ) -> Result<Option<(Box<dyn BatchSource + Send>, JoinBuild)>> {
        let Some(join) = &self.join else {
            return Ok(None);
        };
        let columns: Vec<&str> = join.columns.iter().map(String::as_str).collect();
        let pin = self.engine.table_pin(join.table)?;
        let range = TupleRange::new(0, pin.visible_rows());
        let scan = self.engine.scan_pinned(pin, &columns, range, false, None)?;
        Ok(Some((scan, JoinBuild::new(0, columns.len()))))
    }

    /// Opens the scan of one range part, wrapped with the join probe (which
    /// applies the filter pre-join) when the query has a join clause. The
    /// table must be pinned, and `table` built, before any part opens.
    pub(crate) fn open_part(
        &self,
        part: TupleRange,
        table: Option<&Arc<JoinTable>>,
    ) -> Result<Box<dyn BatchSource + Send>> {
        let columns: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let pin = self.pin.clone().expect("range_parts pinned the table");
        let scan =
            self.engine
                .scan_pinned(pin, &columns, part, self.in_order, self.filter.as_ref())?;
        Ok(match (table, &self.join) {
            (Some(table), Some(join)) => Box::new(JoinSource::new(
                scan,
                Arc::clone(table),
                join.left_col,
                self.filter,
            )),
            _ => scan,
        })
    }

    /// The filter the sink side applies to what [`Query::open_part`]
    /// yields: the join probe has already applied it.
    pub(crate) fn downstream_filter(&self) -> Option<Predicate> {
        match self.join {
            Some(_) => None,
            None => self.filter,
        }
    }

    /// Executes the query and returns the aggregation result: the
    /// [`QueryTask`] of [`Query::into_task`], driven to completion on the
    /// caller's thread. With `parallelism > 1` the RID range is split evenly
    /// (Equation 1) and the parts' scans interleave inside the one task,
    /// feeding one aggregation. A panic below the query (a policy or device
    /// bug) is an [`Error::Internal`].
    pub fn run(self) -> Result<AggrResult> {
        Ok(run_to_done(self.aggregate_task(".run()")?)?.into_result())
    }

    /// Executes a multi-key grouped aggregation: requires [`Query::group_by`]
    /// keys and a *global* [`Query::aggregate`] spec supplying the per-group
    /// aggregates. Runs exactly like [`Query::run`], with every range part
    /// feeding one grouped aggregation.
    pub fn run_grouped(mut self) -> Result<GroupedResult> {
        self.validate()?;
        if self.top_k.is_some() {
            return Err(Error::plan("top_k applies to .rows(), not .run_grouped()"));
        }
        let keys = self.group_keys.take().ok_or_else(|| {
            Error::plan("run_grouped without group keys; call .group_by(&[...]) first")
        })?;
        let aggregates = match self.aggregate.take() {
            Some(spec) if spec.group_by.is_none() => spec.aggregates,
            Some(_) => {
                return Err(Error::plan(
                    "run_grouped takes its keys from .group_by(); pass a global AggrSpec",
                ))
            }
            None => {
                return Err(Error::plan(
                    "run_grouped needs aggregates; call .aggregate(AggrSpec::global(...))",
                ))
            }
        };
        let sink = KeyedAggr::<Vec<Value>>::new(keys, aggregates);
        Ok(run_to_done(self.pipeline(sink)?)?.sink.groups)
    }

    /// Lowers the query onto the task scheduler: validates the plan, pins
    /// the table, opens one scan per Equation-1 range part and returns the
    /// [`QueryTask`] ready for
    /// [`TaskScheduler::spawn`](crate::sched::TaskScheduler::spawn).
    ///
    /// It is the very state machine [`Query::run`] drives (same validation
    /// errors, same results), handed to the caller instead: the task yields
    /// at batch boundaries so thousands of queries share a fixed worker
    /// pool. `parallelism` controls how many partial scans the task
    /// *interleaves*, not how many OS threads it occupies — cross-worker
    /// parallelism comes from running many tasks at once.
    pub fn into_task(self) -> Result<QueryTask> {
        self.aggregate_task(".into_task()")
    }

    /// Executes the query and materializes the (filtered) rows instead of
    /// aggregating. Rows arrive in backend delivery order unless
    /// [`Query::in_order`] is set. Always one range part, so in-order
    /// delivery stays in order: materialization is for result inspection,
    /// not for the throughput paths.
    pub fn rows(mut self) -> Result<Vec<Vec<Value>>> {
        self.validate()?;
        if self.group_keys.is_some() {
            return Err(Error::plan(
                "query has group_by keys; use .run_grouped() instead of .rows()",
            ));
        }
        self.parallelism = 1;
        match self.top_k {
            Some(spec) => Ok(run_to_done(self.pipeline(TopKState::new(spec))?)?
                .sink
                .finish()),
            None => Ok(run_to_done(self.pipeline(Vec::new())?)?.sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CompareOp;
    use scanshare_common::{PolicyKind, ScanShareConfig};
    use scanshare_storage::column::{ColumnSpec, ColumnType};
    use scanshare_storage::datagen::DataGen;
    use scanshare_storage::storage::Storage;
    use scanshare_storage::table::TableSpec;

    fn engine(policy: PolicyKind, tuples: u64) -> (Arc<Engine>, TableId) {
        let storage = Storage::with_seed(1024, 500, 13);
        let spec = TableSpec::new(
            "lineitem",
            vec![
                ColumnSpec::with_width("l_flag", ColumnType::Dict { cardinality: 4 }, 1.0),
                ColumnSpec::with_width("l_quantity", ColumnType::Decimal, 4.0),
                ColumnSpec::with_width("l_price", ColumnType::Decimal, 4.0),
            ],
            tuples,
        );
        let table = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Cyclic {
                        period: 4,
                        min: 0,
                        max: 3,
                    },
                    DataGen::Uniform { min: 1, max: 50 },
                    DataGen::Uniform {
                        min: 100,
                        max: 10_000,
                    },
                ],
            )
            .unwrap();
        let config = ScanShareConfig {
            page_size_bytes: 1024,
            chunk_tuples: 500,
            buffer_pool_bytes: 256 * 1024,
            policy,
            ..Default::default()
        };
        (Engine::new(storage, config).unwrap(), table)
    }

    fn q1_spec() -> AggrSpec {
        AggrSpec::grouped(
            0,
            vec![Aggregate::Sum(1), Aggregate::Sum(2), Aggregate::Count],
        )
    }

    /// Like [`engine`], plus a small dimension table `part` whose `p_key`
    /// column cycles over the same 0..=3 domain as `l_flag`, so
    /// `lineitem.l_flag = part.p_key` is a one-to-many broadcast join
    /// (each key matches `dim_tuples / 4` build rows).
    fn engine_with_dim(
        policy: PolicyKind,
        tuples: u64,
        dim_tuples: u64,
    ) -> (Arc<Engine>, TableId, TableId) {
        let storage = Storage::with_seed(1024, 500, 13);
        let spec = TableSpec::new(
            "lineitem",
            vec![
                ColumnSpec::with_width("l_flag", ColumnType::Dict { cardinality: 4 }, 1.0),
                ColumnSpec::with_width("l_quantity", ColumnType::Decimal, 4.0),
                ColumnSpec::with_width("l_price", ColumnType::Decimal, 4.0),
            ],
            tuples,
        );
        let table = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Cyclic {
                        period: 4,
                        min: 0,
                        max: 3,
                    },
                    DataGen::Uniform { min: 1, max: 50 },
                    DataGen::Uniform {
                        min: 100,
                        max: 10_000,
                    },
                ],
            )
            .unwrap();
        let dim_spec = TableSpec::new(
            "part",
            vec![
                ColumnSpec::with_width("p_key", ColumnType::Dict { cardinality: 4 }, 1.0),
                ColumnSpec::with_width("p_weight", ColumnType::Decimal, 4.0),
            ],
            dim_tuples,
        );
        let dim = storage
            .create_table_with_data(
                dim_spec,
                vec![
                    DataGen::Cyclic {
                        period: 4,
                        min: 0,
                        max: 3,
                    },
                    DataGen::Uniform { min: 1, max: 9 },
                ],
            )
            .unwrap();
        let config = ScanShareConfig {
            page_size_bytes: 1024,
            chunk_tuples: 500,
            buffer_pool_bytes: 256 * 1024,
            policy,
            ..Default::default()
        };
        (Engine::new(storage, config).unwrap(), table, dim)
    }

    /// Reference nested-loop join of the two test tables' raw rows:
    /// (probe columns..., build key, build extras...) for every matching
    /// pair, used to check the hash join against first principles.
    fn nested_loop_join(
        probe: &[Vec<Value>],
        build: &[Vec<Value>],
        left_col: usize,
    ) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for p in probe {
            for b in build {
                if p[left_col] == b[0] {
                    let mut row = p.clone();
                    row.extend(b.iter().copied());
                    out.push(row);
                }
            }
        }
        out
    }

    #[test]
    fn defaults_cover_all_visible_rows_single_threaded() {
        let (engine, table) = engine(PolicyKind::Pbm, 4000);
        let result = engine
            .query(table)
            .columns(["l_flag"])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run()
            .unwrap();
        assert_eq!(result[&0].count, 4000);
    }

    #[test]
    fn range_clauses_accept_every_bound_shape() {
        let (engine, table) = engine(PolicyKind::Lru, 2000);
        let count = |query: Query| {
            query
                .aggregate(AggrSpec::global(vec![Aggregate::Count]))
                .run()
                .unwrap()[&0]
                .count
        };
        let base = || engine.query(table).columns(["l_flag"]);
        assert_eq!(count(base().range(..)), 2000);
        assert_eq!(count(base().range(100..300)), 200);
        assert_eq!(count(base().range(1900..)), 100);
        assert_eq!(count(base().range(..=99)), 100);
        assert_eq!(count(base().tuple_range(TupleRange::new(5, 10))), 5);
        // Ranges beyond the visible rows are clamped, inverted ranges empty.
        assert_eq!(count(base().range(1000..100_000)), 1000);
        let inverted = (Bound::Included(300u64), Bound::Excluded(100u64));
        let empty = base()
            .range(inverted)
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run()
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn missing_columns_and_bad_clauses_error() {
        let (engine, table) = engine(PolicyKind::Pbm, 100);
        let no_columns = engine
            .query(table)
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run();
        assert!(matches!(no_columns.unwrap_err(), Error::InvalidPlan(_)));

        let no_aggregate = engine.query(table).columns(["l_flag"]).run();
        assert!(matches!(no_aggregate.unwrap_err(), Error::InvalidPlan(_)));

        let zero_workers = engine
            .query(table)
            .columns(["l_flag"])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .parallelism(0)
            .run();
        assert!(matches!(zero_workers.unwrap_err(), Error::InvalidPlan(_)));

        let unknown_column = engine
            .query(table)
            .columns(["no_such_column"])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run();
        assert!(matches!(
            unknown_column.unwrap_err(),
            Error::UnknownColumn { .. }
        ));
    }

    #[test]
    fn parallel_results_match_sequential() {
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let (engine, table) = engine(policy, 6000);
            let query = || {
                engine
                    .query(table)
                    .columns(["l_flag", "l_quantity", "l_price"])
                    .filter(Predicate::new(1, CompareOp::Le, 24))
                    .aggregate(q1_spec())
            };
            let sequential = query().run().unwrap();
            let parallel = query().parallelism(4).run().unwrap();
            assert_eq!(sequential, parallel, "policy {policy}");
            assert_eq!(sequential.len(), 4, "four flag groups");
            let total: u64 = sequential.values().map(|g| g.count).sum();
            assert!(total > 0 && total < 6000, "the filter removes some rows");
        }
    }

    #[test]
    fn all_policies_compute_identical_answers() {
        let mut reference: Option<AggrResult> = None;
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Pbm,
            PolicyKind::Opt,
            PolicyKind::CScan,
        ] {
            let (engine, table) = engine(policy, 5000);
            let result = engine
                .query(table)
                .columns(["l_flag", "l_quantity", "l_price"])
                .range(500..4500)
                .aggregate(q1_spec())
                .parallelism(4)
                .run()
                .unwrap();
            match &reference {
                None => reference = Some(result),
                Some(expected) => assert_eq!(expected, &result, "policy {policy} diverged"),
            }
        }
    }

    #[test]
    fn rows_materializes_the_filtered_projection() {
        let (engine, table) = engine(PolicyKind::CScan, 3000);
        let rows = engine
            .query(table)
            .columns(["l_flag", "l_quantity"])
            .filter(Predicate::new(0, CompareOp::Eq, 2))
            .in_order()
            .rows()
            .unwrap();
        assert_eq!(rows.len(), 750, "one of four cyclic flag values");
        assert!(rows.iter().all(|row| row[0] == 2));
        // In-order delivery holds even under Cooperative Scans.
        let unfiltered = engine
            .query(table)
            .columns(["l_flag"])
            .in_order()
            .rows()
            .unwrap();
        let expected: Vec<i64> = (0..3000).map(|i| i % 4).collect();
        assert_eq!(
            unfiltered.iter().map(|r| r[0]).collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn equation_1_partitioning_covers_range_without_overlap() {
        let parts = TupleRange::new(0, 1000).split_even(8);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts[0], TupleRange::new(0, 125));
        assert_eq!(parts[7], TupleRange::new(875, 1000));
        let covered: u64 = parts.iter().map(TupleRange::len).sum();
        assert_eq!(covered, 1000);
    }

    #[test]
    fn join_matches_the_nested_loop_reference() {
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let (engine, lineitem, part) = engine_with_dim(policy, 600, 8);
            let probe_rows = engine
                .query(lineitem)
                .columns(["l_flag", "l_quantity"])
                .filter(Predicate::new(1, CompareOp::Le, 24))
                .in_order()
                .rows()
                .unwrap();
            let build_rows = engine
                .query(part)
                .columns(["p_key", "p_weight"])
                .in_order()
                .rows()
                .unwrap();
            let mut expected = nested_loop_join(&probe_rows, &build_rows, 0);
            expected.sort_unstable();
            let mut joined = engine
                .query(lineitem)
                .columns(["l_flag", "l_quantity"])
                .filter(Predicate::new(1, CompareOp::Le, 24))
                .join(part, 0, "p_key")
                .join_columns(["p_weight"])
                .rows()
                .unwrap();
            joined.sort_unstable();
            assert_eq!(joined, expected, "policy {policy}");
            // Each probe row matches dim_tuples/4 = 2 build rows.
            assert_eq!(joined.len(), 2 * probe_rows.len(), "policy {policy}");
        }
    }

    #[test]
    fn join_aggregates_are_parallelism_invariant() {
        let (engine, lineitem, part) = engine_with_dim(PolicyKind::Pbm, 5000, 12);
        let query = || {
            engine
                .query(lineitem)
                .columns(["l_flag", "l_price"])
                .join(part, 0, "p_key")
                .join_columns(["p_weight"])
                // Indices refer to the joined layout:
                // 0=l_flag 1=l_price 2=p_key 3=p_weight.
                .aggregate(AggrSpec::grouped(
                    3,
                    vec![Aggregate::Count, Aggregate::Sum(1)],
                ))
        };
        let sequential = query().run().unwrap();
        let parallel = query().parallelism(4).run().unwrap();
        assert_eq!(sequential, parallel);
        let total: u64 = sequential.values().map(|g| g.count).sum();
        assert_eq!(total, 3 * 5000, "12 build rows / 4 keys = 3 matches each");
    }

    #[test]
    fn parallel_run_is_buffer_deterministic() {
        // A pool a quarter the size of the scan: eviction decisions depend
        // on the order the four parts request pages. The parts interleave
        // inside one task on the caller's thread, so that order — and with
        // it every hit, miss and eviction — is the same on every fresh
        // engine.
        let run = || {
            let (engine, table) = engine(PolicyKind::Pbm, 120_000);
            let result = engine
                .query(table)
                .columns(["l_flag", "l_quantity", "l_price"])
                .aggregate(q1_spec())
                .parallelism(4)
                .run()
                .unwrap();
            (result, engine.buffer_stats())
        };
        let (first, stats) = run();
        assert!(stats.evictions > 0, "the pool is smaller than the scan");
        assert_eq!(run(), (first, stats));
    }

    #[test]
    fn group_by_multiple_keys_is_parallelism_invariant() {
        let (engine, table) = engine(PolicyKind::Pbm, 4000);
        let query = || {
            engine
                .query(table)
                .columns(["l_flag", "l_quantity", "l_price"])
                .filter(Predicate::new(2, CompareOp::Ge, 2000))
                .group_by(&[0, 1])
                .aggregate(AggrSpec::global(vec![
                    Aggregate::Count,
                    Aggregate::Sum(2),
                    Aggregate::Min(2),
                ]))
        };
        let sequential = query().run_grouped().unwrap();
        let parallel = query().parallelism(4).run_grouped().unwrap();
        assert_eq!(sequential, parallel);
        assert!(sequential.len() > 4, "composite keys outnumber l_flag");
        for (key, group) in &sequential {
            assert_eq!(key.len(), 2);
            assert!(group.count > 0);
        }
        // Single-key grouping through the new path agrees with AggrSpec.
        let single = engine
            .query(table)
            .columns(["l_flag", "l_price"])
            .group_by(&[0])
            .aggregate(AggrSpec::global(vec![Aggregate::Sum(1)]))
            .run_grouped()
            .unwrap();
        let via_aggr = engine
            .query(table)
            .columns(["l_flag", "l_price"])
            .aggregate(AggrSpec::grouped(0, vec![Aggregate::Sum(1)]))
            .run()
            .unwrap();
        for (key, group) in &via_aggr {
            assert_eq!(single[&vec![*key]].accumulators, group.accumulators);
        }
    }

    #[test]
    fn top_k_rows_are_policy_and_order_invariant() {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
            let (engine, table) = engine(policy, 3000);
            // No in_order(): CScan delivers out of order, the top-k total
            // order must absorb that.
            let top = engine
                .query(table)
                .columns(["l_price", "l_quantity"])
                .top_k(0, 25, SortOrder::Desc)
                .rows()
                .unwrap();
            assert_eq!(top.len(), 25);
            for pair in top.windows(2) {
                assert!(pair[0][0] >= pair[1][0], "descending by l_price");
            }
            match &reference {
                None => reference = Some(top),
                Some(expected) => assert_eq!(expected, &top, "policy {policy}"),
            }
        }
    }

    #[test]
    fn pipeline_plan_errors_are_descriptive() {
        let (engine, lineitem, part) = engine_with_dim(PolicyKind::Lru, 100, 8);
        let orphan_join_columns = engine
            .query(lineitem)
            .columns(["l_flag"])
            .join_columns(["p_weight"])
            .rows();
        assert!(matches!(
            orphan_join_columns.unwrap_err(),
            Error::InvalidPlan(_)
        ));

        let join_key_out_of_range = engine
            .query(lineitem)
            .columns(["l_flag"])
            .join(part, 5, "p_key")
            .rows();
        assert!(matches!(
            join_key_out_of_range.unwrap_err(),
            Error::InvalidPlan(_)
        ));

        let grouped_run = engine
            .query(lineitem)
            .columns(["l_flag"])
            .group_by(&[0])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run();
        assert!(matches!(grouped_run.unwrap_err(), Error::InvalidPlan(_)));

        let grouped_spec_clash = engine
            .query(lineitem)
            .columns(["l_flag"])
            .group_by(&[0])
            .aggregate(AggrSpec::grouped(0, vec![Aggregate::Count]))
            .run_grouped();
        assert!(matches!(
            grouped_spec_clash.unwrap_err(),
            Error::InvalidPlan(_)
        ));

        let group_key_out_of_range = engine
            .query(lineitem)
            .columns(["l_flag"])
            .group_by(&[3])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run_grouped();
        assert!(matches!(
            group_key_out_of_range.unwrap_err(),
            Error::InvalidPlan(_)
        ));

        let top_k_in_run = engine
            .query(lineitem)
            .columns(["l_flag"])
            .top_k(0, 5, SortOrder::Asc)
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .run();
        assert!(matches!(top_k_in_run.unwrap_err(), Error::InvalidPlan(_)));

        let top_k_out_of_range = engine
            .query(lineitem)
            .columns(["l_flag"])
            .top_k(7, 5, SortOrder::Asc)
            .rows();
        assert!(matches!(
            top_k_out_of_range.unwrap_err(),
            Error::InvalidPlan(_)
        ));

        let task_group = engine
            .query(lineitem)
            .columns(["l_flag"])
            .group_by(&[0])
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .into_task();
        assert!(matches!(task_group.unwrap_err(), Error::InvalidPlan(_)));

        // A filter, group_by or aggregate column outside the row it is
        // applied to is a plan error at every terminal, naming the index and
        // the width — the batches themselves are indexed unchecked.
        let base = || engine.query(lineitem).columns(["l_flag", "l_quantity"]);
        let count = || AggrSpec::global(vec![Aggregate::Count]);
        let bad_plans: [(&str, Query); 4] = [
            (
                "filter column 2 is outside the 2-column probe projection",
                base()
                    .filter(Predicate::new(2, CompareOp::Le, 1))
                    .aggregate(count()),
            ),
            (
                "group_by column 5 is outside the 2-column operator output",
                base().aggregate(AggrSpec::grouped(5, vec![Aggregate::Count])),
            ),
            (
                "aggregate column 9 is outside the 2-column operator output",
                base().aggregate(AggrSpec::global(vec![Aggregate::Count, Aggregate::Sum(9)])),
            ),
            // The filter sees the probe projection only, the aggregates the
            // joined row: 0=l_flag 1=l_quantity 2=p_key.
            (
                "aggregate column 3 is outside the 3-column operator output",
                base()
                    .join(part, 0, "p_key")
                    .filter(Predicate::new(1, CompareOp::Le, 24))
                    .aggregate(AggrSpec::global(vec![Aggregate::Max(2), Aggregate::Min(3)])),
            ),
        ];
        for (message, plan) in bad_plans {
            let errors = [
                plan.clone().run().unwrap_err(),
                plan.clone().group_by(&[0]).run_grouped().unwrap_err(),
                plan.clone().rows().unwrap_err(),
                plan.into_task().unwrap_err(),
            ];
            for error in errors {
                assert!(matches!(error, Error::InvalidPlan(_)), "{error}");
                assert!(error.to_string().contains(message), "{error}");
            }
        }
        let in_range = base()
            .join(part, 0, "p_key")
            .filter(Predicate::new(1, CompareOp::Le, 24))
            .aggregate(AggrSpec::global(vec![Aggregate::Max(2)]))
            .run()
            .unwrap();
        assert_eq!(in_range[&0].accumulators, vec![3]);
    }

    #[test]
    fn single_threaded_fallback_for_tiny_ranges() {
        let (engine, table) = engine(PolicyKind::Pbm, 100);
        let result = engine
            .query(table)
            .columns(["l_flag", "l_quantity", "l_price"])
            .range(0..3)
            .aggregate(AggrSpec::global(vec![Aggregate::Count]))
            .parallelism(8)
            .run()
            .unwrap();
        assert_eq!(result[&0].count, 3);
    }
}
