//! A TPC-H-like throughput workload.
//!
//! The paper's second experiment is the TPC-H throughput run at scale factor
//! 30: eight tables, 61 columns, 22 queries of varying complexity executed by
//! several concurrent streams, each stream running its own permutation of the
//! query set (as produced by `qgen`).
//!
//! This module reproduces the *scan footprint* of that workload: the schema
//! (tables, column counts and realistic compressed column widths, realistic
//! relative table sizes) and, for every query, which tables and columns it
//! scans, which fraction of each table it touches and how CPU-intensive it
//! is. Reproducing query *answers* is not needed for buffer-management
//! experiments — only the access pattern matters — but the schema is created
//! with data generators so the execution engine can also run real queries
//! against it at small scale.

use scanshare_common::{RangeList, Result, TableId, TupleRange};
use scanshare_storage::column::{ColumnSpec, ColumnType};
use scanshare_storage::datagen::{splitmix64, DataGen};
use scanshare_storage::storage::Storage;
use scanshare_storage::table::TableSpec;

use crate::spec::{QuerySpec, ScanSpec, StreamSpec, WorkloadSpec};

/// Configuration of the TPC-H-like workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchConfig {
    /// Number of concurrent streams (the paper runs up to 24).
    pub streams: usize,
    /// Tuples in the `lineitem` table; all other table sizes are derived with
    /// the TPC-H ratios (SF30 corresponds to 180 M lineitem tuples).
    pub lineitem_tuples: u64,
    /// RNG seed for range placement and stream permutations.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            streams: 8,
            lineitem_tuples: 1_200_000,
            seed: 0x7c9,
        }
    }
}

impl TpchConfig {
    /// A reduced configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            streams: 2,
            lineitem_tuples: 60_000,
            seed: 3,
        }
    }
}

/// The eight TPC-H tables in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpchTable {
    /// The fact table.
    Lineitem,
    /// Orders.
    Orders,
    /// Part-supplier bridge.
    Partsupp,
    /// Parts.
    Part,
    /// Customers.
    Customer,
    /// Suppliers.
    Supplier,
    /// Nations.
    Nation,
    /// Regions.
    Region,
}

impl TpchTable {
    /// All tables, in creation order.
    pub const ALL: [TpchTable; 8] = [
        TpchTable::Lineitem,
        TpchTable::Orders,
        TpchTable::Partsupp,
        TpchTable::Part,
        TpchTable::Customer,
        TpchTable::Supplier,
        TpchTable::Nation,
        TpchTable::Region,
    ];

    /// Table name.
    pub fn name(self) -> &'static str {
        match self {
            TpchTable::Lineitem => "lineitem",
            TpchTable::Orders => "orders",
            TpchTable::Partsupp => "partsupp",
            TpchTable::Part => "part",
            TpchTable::Customer => "customer",
            TpchTable::Supplier => "supplier",
            TpchTable::Nation => "nation",
            TpchTable::Region => "region",
        }
    }

    /// Tuple count relative to `lineitem` (TPC-H cardinality ratios).
    pub fn tuples(self, lineitem_tuples: u64) -> u64 {
        match self {
            TpchTable::Lineitem => lineitem_tuples,
            TpchTable::Orders => lineitem_tuples / 4,
            TpchTable::Partsupp => lineitem_tuples * 2 / 15,
            TpchTable::Part => lineitem_tuples / 30,
            TpchTable::Customer => lineitem_tuples / 40,
            TpchTable::Supplier => (lineitem_tuples / 600).max(10),
            TpchTable::Nation => 25,
            TpchTable::Region => 5,
        }
    }

    /// Number of columns (sums to 61 across the schema, like TPC-H).
    pub fn column_count(self) -> usize {
        match self {
            TpchTable::Lineitem => 16,
            TpchTable::Orders => 9,
            TpchTable::Partsupp => 5,
            TpchTable::Part => 9,
            TpchTable::Customer => 8,
            TpchTable::Supplier => 7,
            TpchTable::Nation => 4,
            TpchTable::Region => 3,
        }
    }

    /// Builds the table spec with per-column compressed widths that roughly
    /// follow the mix of keys, measures, dates, flags and strings of the real
    /// schema.
    pub fn spec(self, lineitem_tuples: u64) -> TableSpec {
        let tuples = self.tuples(lineitem_tuples);
        let columns = (0..self.column_count())
            .map(|i| {
                // A rough but heterogeneous width model: keys 4 B, measures
                // 2-4 B, dates 2 B, flags < 1 B, comment-like strings wide.
                let (ty, width) = match i % 6 {
                    0 => (ColumnType::Int64, 4.0),
                    1 => (ColumnType::Decimal, 4.0),
                    2 => (ColumnType::Decimal, 2.0),
                    3 => (ColumnType::Date, 2.0),
                    4 => (ColumnType::Dict { cardinality: 8 }, 0.5),
                    _ => (ColumnType::Varchar { avg_len: 12 }, 12.0),
                };
                ColumnSpec::with_width(format!("{}_c{i}", self.name(),), ty, width)
            })
            .collect();
        TableSpec::new(self.name(), columns, tuples)
    }

    /// Data generators for the spec.
    pub fn generators(self) -> Vec<DataGen> {
        (0..self.column_count())
            .map(|i| match i % 6 {
                0 => DataGen::Sequential { start: 0, step: 1 },
                1 => DataGen::Uniform {
                    min: 100,
                    max: 100_000,
                },
                2 => DataGen::Uniform { min: 0, max: 100 },
                3 => DataGen::Cyclic {
                    period: 2526,
                    min: 8000,
                    max: 10_500,
                },
                4 => DataGen::Cyclic {
                    period: 8,
                    min: 0,
                    max: 7,
                },
                _ => DataGen::Uniform {
                    min: 0,
                    max: 1 << 20,
                },
            })
            .collect()
    }
}

/// One table access of a query template.
#[derive(Debug, Clone, Copy)]
struct Access {
    table: TpchTable,
    /// How many of the table's columns the query reads.
    columns: usize,
    /// Fraction of the table scanned (restricted by date ranges / MinMax
    /// indexes in the real system).
    fraction: f64,
}

/// Scan-footprint templates of the 22 TPC-H queries: which tables they scan,
/// how many columns, which fraction of the table, and a CPU-intensity factor
/// relative to a plain scan-aggregate query.
fn query_templates() -> Vec<(&'static str, Vec<Access>, f64)> {
    use TpchTable::*;
    let a = |table, columns, fraction| Access {
        table,
        columns,
        fraction,
    };
    vec![
        ("Q01", vec![a(Lineitem, 7, 0.98)], 2.2),
        (
            "Q02",
            vec![
                a(Part, 5, 1.0),
                a(Partsupp, 4, 1.0),
                a(Supplier, 5, 1.0),
                a(Nation, 2, 1.0),
                a(Region, 2, 1.0),
            ],
            1.6,
        ),
        (
            "Q03",
            vec![a(Customer, 3, 1.0), a(Orders, 5, 0.5), a(Lineitem, 4, 0.55)],
            1.8,
        ),
        ("Q04", vec![a(Orders, 4, 0.1), a(Lineitem, 3, 0.12)], 1.4),
        (
            "Q05",
            vec![
                a(Customer, 3, 1.0),
                a(Orders, 3, 0.15),
                a(Lineitem, 4, 0.3),
                a(Supplier, 3, 1.0),
                a(Nation, 3, 1.0),
                a(Region, 2, 1.0),
            ],
            1.9,
        ),
        ("Q06", vec![a(Lineitem, 4, 0.15)], 1.0),
        (
            "Q07",
            vec![
                a(Supplier, 3, 1.0),
                a(Lineitem, 5, 0.3),
                a(Orders, 2, 1.0),
                a(Customer, 2, 1.0),
                a(Nation, 2, 1.0),
            ],
            2.0,
        ),
        (
            "Q08",
            vec![
                a(Part, 3, 1.0),
                a(Supplier, 2, 1.0),
                a(Lineitem, 5, 0.3),
                a(Orders, 3, 0.3),
                a(Customer, 2, 1.0),
                a(Nation, 2, 1.0),
                a(Region, 2, 1.0),
            ],
            2.1,
        ),
        (
            "Q09",
            vec![
                a(Part, 3, 1.0),
                a(Supplier, 2, 1.0),
                a(Lineitem, 6, 1.0),
                a(Partsupp, 3, 1.0),
                a(Orders, 2, 1.0),
                a(Nation, 2, 1.0),
            ],
            2.5,
        ),
        (
            "Q10",
            vec![
                a(Customer, 6, 1.0),
                a(Orders, 4, 0.04),
                a(Lineitem, 4, 0.06),
                a(Nation, 2, 1.0),
            ],
            1.7,
        ),
        (
            "Q11",
            vec![a(Partsupp, 4, 1.0), a(Supplier, 3, 1.0), a(Nation, 2, 1.0)],
            1.3,
        ),
        ("Q12", vec![a(Orders, 3, 1.0), a(Lineitem, 5, 0.17)], 1.4),
        ("Q13", vec![a(Customer, 2, 1.0), a(Orders, 3, 1.0)], 1.8),
        ("Q14", vec![a(Lineitem, 4, 0.013), a(Part, 3, 1.0)], 1.2),
        ("Q15", vec![a(Lineitem, 4, 0.04), a(Supplier, 4, 1.0)], 1.3),
        (
            "Q16",
            vec![a(Partsupp, 3, 1.0), a(Part, 4, 1.0), a(Supplier, 2, 1.0)],
            1.5,
        ),
        ("Q17", vec![a(Lineitem, 3, 1.0), a(Part, 3, 0.01)], 1.6),
        (
            "Q18",
            vec![a(Customer, 2, 1.0), a(Orders, 4, 1.0), a(Lineitem, 3, 1.0)],
            2.3,
        ),
        ("Q19", vec![a(Lineitem, 6, 0.02), a(Part, 4, 0.02)], 1.2),
        (
            "Q20",
            vec![
                a(Supplier, 3, 1.0),
                a(Nation, 2, 1.0),
                a(Partsupp, 3, 1.0),
                a(Part, 2, 0.01),
                a(Lineitem, 4, 0.04),
            ],
            1.5,
        ),
        (
            "Q21",
            vec![
                a(Supplier, 3, 1.0),
                a(Lineitem, 4, 1.0),
                a(Orders, 2, 1.0),
                a(Nation, 2, 1.0),
            ],
            2.4,
        ),
        ("Q22", vec![a(Customer, 3, 1.0), a(Orders, 2, 1.0)], 1.3),
    ]
}

/// The catalog created by [`setup_tables`].
#[derive(Debug, Clone)]
pub struct TpchTables {
    ids: Vec<TableId>,
}

impl TpchTables {
    /// The id of a table.
    pub fn id(&self, table: TpchTable) -> TableId {
        self.ids[TpchTable::ALL
            .iter()
            .position(|&t| t == table)
            .expect("known table")]
    }

    /// All table ids.
    pub fn all(&self) -> &[TableId] {
        &self.ids
    }
}

/// Creates the eight TPC-H-like tables in `storage`.
pub fn setup_tables(storage: &std::sync::Arc<Storage>, config: &TpchConfig) -> Result<TpchTables> {
    let mut ids = Vec::with_capacity(8);
    for table in TpchTable::ALL {
        let id = storage
            .create_table_with_data(table.spec(config.lineitem_tuples), table.generators())?;
        ids.push(id);
    }
    Ok(TpchTables { ids })
}

/// Generates the throughput workload: `streams` streams, each running its own
/// permutation of the 22 query templates.
pub fn generate(config: &TpchConfig, tables: &TpchTables) -> WorkloadSpec {
    let templates = query_templates();
    let mut rng = config.seed | 1;
    let mut next = |limit: u64| -> u64 {
        rng = splitmix64(rng);
        if limit == 0 {
            0
        } else {
            rng % limit
        }
    };

    let streams = (0..config.streams)
        .map(|s| {
            // Permute the query order per stream, like qgen's throughput run.
            let mut order: Vec<usize> = (0..templates.len()).collect();
            for i in (1..order.len()).rev() {
                let j = next(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let queries = order
                .iter()
                .map(|&qi| {
                    let (label, accesses, cpu_factor) = &templates[qi];
                    let scans = accesses
                        .iter()
                        .map(|access| {
                            let tuples = access.table.tuples(config.lineitem_tuples);
                            let span = ((tuples as f64 * access.fraction) as u64).clamp(1, tuples);
                            let start = next(tuples.saturating_sub(span).max(1));
                            ScanSpec {
                                table: tables.id(access.table),
                                columns: (0..access.columns.min(access.table.column_count()))
                                    .collect(),
                                ranges: RangeList::from_ranges([TupleRange::new(
                                    start,
                                    (start + span).min(tuples),
                                )]),
                                predicate: None,
                            }
                        })
                        .collect();
                    QuerySpec {
                        label: format!("{label}#{s}"),
                        scans,
                        cpu_factor: *cpu_factor,
                        join: None,
                    }
                })
                .collect();
            StreamSpec {
                label: format!("tpch-stream-{s}"),
                queries,
            }
        })
        .collect();

    WorkloadSpec::read_only(
        format!("tpch-throughput-{}streams", config.streams),
        streams,
    )
}

/// Convenience: creates the storage, the schema and the workload in one call.
pub fn build(
    config: &TpchConfig,
    page_size_bytes: u64,
    chunk_tuples: u64,
) -> Result<(std::sync::Arc<Storage>, TpchTables, WorkloadSpec)> {
    let storage = Storage::with_seed(page_size_bytes, chunk_tuples, config.seed);
    let tables = setup_tables(&storage, config)?;
    let workload = generate(config, &tables);
    Ok((storage, tables, workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_eight_tables_and_61_columns() {
        let total: usize = TpchTable::ALL.iter().map(|t| t.column_count()).sum();
        assert_eq!(total, 61);
        assert_eq!(TpchTable::ALL.len(), 8);
        for table in TpchTable::ALL {
            let spec = table.spec(600_000);
            spec.validate().unwrap();
            assert_eq!(spec.columns.len(), table.column_count());
            assert_eq!(table.generators().len(), table.column_count());
        }
    }

    #[test]
    fn table_sizes_follow_tpch_ratios() {
        let li = 6_000_000;
        assert_eq!(TpchTable::Orders.tuples(li), 1_500_000);
        assert_eq!(TpchTable::Partsupp.tuples(li), 800_000);
        assert_eq!(TpchTable::Part.tuples(li), 200_000);
        assert_eq!(TpchTable::Customer.tuples(li), 150_000);
        assert_eq!(TpchTable::Supplier.tuples(li), 10_000);
        assert_eq!(TpchTable::Nation.tuples(li), 25);
        assert_eq!(TpchTable::Region.tuples(li), 5);
    }

    #[test]
    fn workload_runs_22_queries_per_stream() {
        let config = TpchConfig::tiny();
        let (_storage, _tables, workload) = build(&config, 64 * 1024, 10_000).unwrap();
        assert_eq!(workload.stream_count(), 2);
        for stream in &workload.streams {
            assert_eq!(stream.queries.len(), 22);
        }
        // Streams run different permutations.
        let order_a: Vec<&str> = workload.streams[0]
            .queries
            .iter()
            .map(|q| q.label.split('#').next().unwrap())
            .collect();
        let order_b: Vec<&str> = workload.streams[1]
            .queries
            .iter()
            .map(|q| q.label.split('#').next().unwrap())
            .collect();
        assert_ne!(order_a, order_b);
        // ... but the same set of queries.
        let mut sa = order_a.clone();
        let mut sb = order_b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }

    #[test]
    fn scans_stay_within_their_tables() {
        let config = TpchConfig::tiny();
        let (storage, _tables, workload) = build(&config, 64 * 1024, 10_000).unwrap();
        for stream in &workload.streams {
            for query in &stream.queries {
                assert!(!query.scans.is_empty());
                assert!(query.cpu_factor >= 1.0);
                for scan in &query.scans {
                    let table = storage.table(scan.table).unwrap();
                    let tuples = table.spec.base_tuples;
                    for range in scan.ranges.ranges() {
                        assert!(range.end <= tuples, "{}: range beyond table", query.label);
                    }
                    for &col in &scan.columns {
                        assert!(col < table.spec.columns.len());
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = TpchConfig::tiny();
        let (_s1, _t1, w1) = build(&config, 64 * 1024, 10_000).unwrap();
        let (_s2, _t2, w2) = build(&config, 64 * 1024, 10_000).unwrap();
        assert_eq!(w1, w2);
    }

    #[test]
    fn lineitem_dominates_the_scanned_volume() {
        let config = TpchConfig::tiny();
        let (_storage, tables, workload) = build(&config, 64 * 1024, 10_000).unwrap();
        let lineitem = tables.id(TpchTable::Lineitem);
        let total = workload.total_tuples();
        let lineitem_tuples: u64 = workload
            .streams
            .iter()
            .flat_map(|s| &s.queries)
            .flat_map(|q| &q.scans)
            .filter(|s| s.table == lineitem)
            .map(|s| s.total_tuples())
            .sum();
        assert!(
            lineitem_tuples * 2 > total,
            "lineitem should dominate the workload"
        );
    }
}
