//! Quickstart: create a table, run a query under Predictive Buffer
//! Management, and compare buffer-manager behaviour across policies.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use scanshare::prelude::*;

fn build_storage() -> (Arc<Storage>, TableId) {
    // A 2M-tuple "lineitem"-like table: a key, a quantity, a price and a
    // narrow dictionary-encoded flag (columns of very different width).
    let storage = Storage::new(128 * 1024, 50_000);
    let table = storage
        .create_table_with_data(
            TableSpec::new(
                "lineitem",
                vec![
                    ColumnSpec::with_width("l_orderkey", ColumnType::Int64, 4.0),
                    ColumnSpec::with_width("l_quantity", ColumnType::Decimal, 2.0),
                    ColumnSpec::with_width("l_extendedprice", ColumnType::Decimal, 4.0),
                    ColumnSpec::with_width(
                        "l_returnflag",
                        ColumnType::Dict { cardinality: 3 },
                        0.5,
                    ),
                ],
                2_000_000,
            ),
            vec![
                DataGen::Sequential { start: 1, step: 1 },
                DataGen::Uniform { min: 1, max: 50 },
                DataGen::Uniform {
                    min: 100,
                    max: 100_000,
                },
                DataGen::Cyclic {
                    period: 3,
                    min: 0,
                    max: 2,
                },
            ],
        )
        .expect("create table");
    (storage, table)
}

fn main() {
    let (storage, table) = build_storage();

    println!("scanshare quickstart — PBM vs LRU vs Cooperative Scans\n");
    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>14}",
        "policy", "result(sum)", "io [MB]", "hit ratio", "virt. time [s]"
    );

    let mut checksums = Vec::new();
    for policy in [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan] {
        let config = ScanShareConfig {
            page_size_bytes: 128 * 1024,
            chunk_tuples: 50_000,
            // A pool holding roughly a third of the table.
            buffer_pool_bytes: 8 << 20,
            policy,
            ..Default::default()
        };
        let engine = Engine::new(Arc::clone(&storage), config).expect("engine");

        // Q1-style query: SELECT l_returnflag, sum(l_quantity), count(*)
        //                 FROM lineitem WHERE l_quantity <= 25 GROUP BY l_returnflag
        // ... executed twice by "two users", so the second run can reuse the
        // buffer contents left behind by the first.
        let mut checksum = 0i64;
        for _user in 0..2 {
            let result = engine
                .query(table)
                .columns([
                    "l_orderkey",
                    "l_quantity",
                    "l_extendedprice",
                    "l_returnflag",
                ])
                .range(..)
                .filter(Predicate::new(1, CompareOp::Le, 25))
                .aggregate(AggrSpec::grouped(
                    3,
                    vec![Aggregate::Sum(1), Aggregate::Count],
                ))
                .parallelism(4)
                .run()
                .expect("query");
            checksum = result.values().map(|g| g.accumulators[0]).sum();
        }

        let stats = engine.buffer_stats();
        println!(
            "{:<8} {:>14} {:>12.1} {:>12.2} {:>14.3}",
            policy.name(),
            checksum,
            stats.io_bytes as f64 / 1e6,
            stats.hit_ratio(),
            engine.now().since(VirtualInstant::EPOCH).as_secs_f64(),
        );
        checksums.push(checksum);
    }
    assert!(
        checksums.windows(2).all(|pair| pair[0] == pair[1]),
        "the policies disagree: {checksums:?}"
    );

    println!(
        "\nAll policies return identical results; PBM exploits the second user's \
         overlap for the least I/O."
    );
}
