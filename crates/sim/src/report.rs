//! Plain-text reporting of experiment results.
//!
//! The benchmark harness and the `figures` example print the same rows and
//! series the paper's figures plot: per (x-value, policy) the average stream
//! time and the total I/O volume, and for the sharing-potential figures the
//! stacked volumes per overlap class.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use scanshare_common::PolicyKind;

use crate::experiment::{ExperimentRow, Figure, FigureData};
use crate::sharing::SharingProfile;

/// Formats what [`run_figure`](crate::experiment::run_figure) measured for
/// `figure` under the heading "Figure N: title".
pub fn format_figure(figure: &Figure, data: &FigureData) -> String {
    let title = format!("Figure {}: {}", figure.id, figure.title);
    match data {
        FigureData::Rows(rows) => format_rows(&title, rows),
        FigureData::Sharing(profile) => format_sharing(&title, profile),
    }
}

/// What a table of [`format_rows`] shows of a row (`None` prints "-").
type Cell = fn(&ExperimentRow) -> Option<f64>;

/// Formats experiment rows as two aligned tables (stream time and I/O
/// volume), one column per policy — the textual equivalent of the paper's
/// paired plots.
pub fn format_rows(title: &str, rows: &[ExperimentRow]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        let _ = writeln!(out, "== {title} == (no data)");
        return out;
    }
    let x_label = rows[0].x_label.clone();
    let policies: Vec<PolicyKind> = {
        let mut seen = Vec::new();
        for row in rows {
            if !seen.contains(&row.policy) {
                seen.push(row.policy);
            }
        }
        seen
    };
    let xs: BTreeSet<u64> = rows.iter().map(|r| r.x_value.to_bits()).collect();
    let xs: Vec<f64> = xs.into_iter().map(f64::from_bits).collect();
    let mut xs = xs;
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let _ = writeln!(out, "== {title} ==");
    let tables: [(&str, Cell); 2] = [
        ("average stream time [s]", |r| r.avg_stream_time_s),
        ("total I/O volume [GB]", |r| Some(r.total_io_gb)),
    ];
    for (heading, value) in tables {
        let _ = writeln!(out, "-- {heading} --");
        let _ = write!(out, "{x_label:>32}");
        for p in &policies {
            let _ = write!(out, "{:>12}", p.name());
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{x:>32.1}");
            for p in &policies {
                let cell = rows
                    .iter()
                    .find(|r| r.policy == *p && (r.x_value - x).abs() < 1e-9)
                    .and_then(value);
                match cell {
                    Some(v) => {
                        let _ = write!(out, "{v:>12.3}");
                    }
                    None => {
                        let _ = write!(out, "{:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Formats a sharing-potential profile as a time series of stacked volumes
/// (Figures 17/18).
pub fn format_sharing(title: &str, profile: &SharingProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:>12}{:>14}{:>14}{:>14}{:>14}",
        "time [s]", "1 scan [MB]", "2 scans [MB]", "3 scans [MB]", ">=4 scans [MB]"
    );
    for sample in &profile.samples {
        let mb = |b: u64| b as f64 / 1e6;
        let _ = writeln!(
            out,
            "{:>12.2}{:>14.1}{:>14.1}{:>14.1}{:>14.1}",
            sample.time.as_secs_f64(),
            mb(sample.bytes_by_overlap[0]),
            mb(sample.bytes_by_overlap[1]),
            mb(sample.bytes_by_overlap[2]),
            mb(sample.bytes_by_overlap[3]),
        );
    }
    let _ = writeln!(
        out,
        "avg shared fraction (>=2 scans): {:.1}%",
        profile.avg_shared_fraction() * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing::SharingSample;
    use scanshare_common::VirtualInstant;

    fn row(policy: PolicyKind, x: f64, time: Option<f64>, io: f64) -> ExperimentRow {
        ExperimentRow {
            figure: "fig11".into(),
            workload: "micro".into(),
            policy,
            x_label: "buffer pool (% of accessed data)".into(),
            x_value: x,
            avg_stream_time_s: time,
            total_io_gb: io,
            hit_ratio: 0.5,
        }
    }

    #[test]
    fn format_rows_produces_a_table_per_metric() {
        let rows = vec![
            row(PolicyKind::Lru, 10.0, Some(12.5), 3.2),
            row(PolicyKind::Pbm, 10.0, Some(8.0), 2.0),
            row(PolicyKind::Opt, 10.0, None, 1.5),
            row(PolicyKind::Lru, 40.0, Some(6.0), 1.2),
            row(PolicyKind::Pbm, 40.0, Some(5.0), 0.9),
            row(PolicyKind::Opt, 40.0, None, 0.8),
        ];
        let text = format_rows("Figure 11", &rows);
        assert!(text.contains("Figure 11"));
        assert!(text.contains("average stream time"));
        assert!(text.contains("total I/O volume"));
        assert!(text.contains("lru"));
        assert!(text.contains("pbm"));
        assert!(text.contains("opt"));
        // OPT has no timing: a dash appears in the time table.
        assert!(text.contains('-'));
        // Both x values appear.
        assert!(text.contains("10.0"));
        assert!(text.contains("40.0"));
    }

    #[test]
    fn format_rows_handles_empty_input() {
        let text = format_rows("Nothing", &[]);
        assert!(text.contains("no data"));
    }

    #[test]
    fn format_sharing_lists_samples_and_summary() {
        let mut profile = SharingProfile::default();
        profile.push(SharingSample {
            time: VirtualInstant::from_nanos(2_000_000_000),
            bytes_by_overlap: [1_000_000, 2_000_000, 0, 500_000],
        });
        let text = format_sharing("Figure 17", &profile);
        assert!(text.contains("Figure 17"));
        assert!(text.contains("2.00"));
        assert!(text.contains("avg shared fraction"));
    }
}
