//! The model numbers are frozen: the figure harness's output at the test
//! scale (deterministic virtual time, all eight figures including the
//! sharing profiles of Figures 17/18) must be byte-identical to the
//! checked-in transcript. A change that means to move them regenerates the
//! file (`cargo run --release --example figures -- --test >
//! tests/golden/figures_test.txt`) and says so.

use std::fmt::Write;

use scanshare::sim::{format_figure, run_figure, ExperimentScale, FIGURES};

#[test]
fn figure_harness_matches_the_golden_transcript() {
    let scale = ExperimentScale::test();
    // What `examples/figures.rs --test` prints.
    let mut transcript = format!(
        "scanshare figure harness (scale: {} lineitem tuples micro / {} tpch)\n\n",
        scale.micro_lineitem_tuples, scale.tpch_lineitem_tuples
    );
    for figure in FIGURES.iter() {
        let data = run_figure(figure, &scale).unwrap_or_else(|e| panic!("fig{}: {e}", figure.id));
        writeln!(transcript, "{}", format_figure(figure, &data)).unwrap();
    }

    let golden = include_str!("golden/figures_test.txt");
    if let Some((line, (got, want))) = transcript
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "line {} differs\n  harness: {got}\n  golden:  {want}",
            line + 1
        );
    }
    assert!(
        transcript == golden,
        "the transcripts agree line by line but differ in length ({} vs {} lines) or line endings",
        transcript.lines().count(),
        golden.lines().count()
    );
}
