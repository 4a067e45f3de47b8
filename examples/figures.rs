//! Regenerates the paper's figures (11-18) as text tables.
//!
//! Usage:
//!   cargo run --release --example figures            # all figures, quick scale
//!   cargo run --release --example figures -- 11 17   # only figures 11 and 17
//!   cargo run --release --example figures -- --test  # tiny scale (CI smoke)
//!   cargo run --release --example figures -- --paper # larger scale
//!
//! The absolute numbers are produced by the simulated substrate, not the
//! paper's 16-SSD server; the *shapes* (which policy wins, where the curves
//! flatten) are what to compare against the paper.

use scanshare::sim::experiment::{
    fig11_micro_buffer_sweep, fig12_micro_bandwidth_sweep, fig13_micro_stream_sweep,
    fig14_tpch_buffer_sweep, fig15_tpch_bandwidth_sweep, fig16_tpch_stream_sweep,
    fig17_sharing_micro, fig18_sharing_tpch,
};
use scanshare::sim::report::{format_rows, format_sharing};
use scanshare::sim::ExperimentScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--test") {
        ExperimentScale::test()
    } else if args.iter().any(|a| a == "--paper") {
        ExperimentScale::paper()
    } else {
        ExperimentScale::quick()
    };
    let requested: Vec<u32> = args
        .iter()
        .filter_map(|a| a.parse().ok())
        .collect::<Vec<u32>>();
    let wanted = |fig: u32| requested.is_empty() || requested.contains(&fig);

    println!(
        "scanshare figure harness (scale: {} lineitem tuples micro / {} tpch)\n",
        scale.micro_lineitem_tuples, scale.tpch_lineitem_tuples
    );

    if wanted(11) {
        let rows = fig11_micro_buffer_sweep(&scale).expect("fig11");
        println!(
            "{}",
            format_rows(
                "Figure 11: microbenchmark, varying the buffer pool size",
                &rows
            )
        );
    }
    if wanted(12) {
        let rows = fig12_micro_bandwidth_sweep(&scale).expect("fig12");
        println!(
            "{}",
            format_rows(
                "Figure 12: microbenchmark, varying the I/O bandwidth",
                &rows
            )
        );
    }
    if wanted(13) {
        let rows = fig13_micro_stream_sweep(&scale).expect("fig13");
        println!(
            "{}",
            format_rows(
                "Figure 13: microbenchmark, varying the number of streams",
                &rows
            )
        );
    }
    if wanted(14) {
        let rows = fig14_tpch_buffer_sweep(&scale).expect("fig14");
        println!(
            "{}",
            format_rows(
                "Figure 14: TPC-H throughput, varying the buffer pool size",
                &rows
            )
        );
    }
    if wanted(15) {
        let rows = fig15_tpch_bandwidth_sweep(&scale).expect("fig15");
        println!(
            "{}",
            format_rows(
                "Figure 15: TPC-H throughput, varying the I/O bandwidth",
                &rows
            )
        );
    }
    if wanted(16) {
        let rows = fig16_tpch_stream_sweep(&scale).expect("fig16");
        println!(
            "{}",
            format_rows(
                "Figure 16: TPC-H throughput, varying the number of streams",
                &rows
            )
        );
    }
    if wanted(17) {
        let profile = fig17_sharing_micro(&scale).expect("fig17");
        println!(
            "{}",
            format_sharing(
                "Figure 17: sharing potential in the microbenchmark",
                &profile
            )
        );
    }
    if wanted(18) {
        let profile = fig18_sharing_tpch(&scale).expect("fig18");
        println!(
            "{}",
            format_sharing("Figure 18: sharing potential in TPC-H throughput", &profile)
        );
    }
}
