//! Figures 11-18: every figure of the paper's evaluation, from the one
//! table in `scanshare_sim::experiment::FIGURES`.
//!
//! For each figure, prints its data table at the `SCANSHARE_BENCH_SCALE`
//! scale (policies × swept parameter, or the sharing-potential profile) and
//! then measures regenerating it at the test scale.

use scanshare_bench::crit::Criterion;
use scanshare_bench::{bench_scale, criterion_group, criterion_main, measured_scale};
use scanshare_sim::{format_figure, run_figure, FIGURES};

fn bench(c: &mut Criterion) {
    let (printed, measured) = (bench_scale(), measured_scale());
    for figure in &FIGURES {
        let data = run_figure(figure, &printed).expect("figure");
        println!("{}", format_figure(figure, &data));

        let mut group = c.benchmark_group(format!("fig{}", figure.id));
        group.sample_size(10);
        group.bench_function("regenerate", |b| {
            b.iter(|| run_figure(figure, &measured).expect("figure"))
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
