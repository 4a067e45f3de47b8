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

use scanshare::sim::{format_figure, run_figure, ExperimentScale, FIGURES};

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

    for figure in FIGURES.iter().filter(|figure| wanted(figure.id)) {
        let data = run_figure(figure, &scale).unwrap_or_else(|e| panic!("fig{}: {e}", figure.id));
        println!("{}", format_figure(figure, &data));
    }
}
