//! Shared harness code for the experiment drivers (`src/bin/fig*.rs`)
//! and the Criterion benches.
//!
//! Every figure of the paper's evaluation (§6) has a binary that
//! regenerates its series:
//!
//! | binary | paper figure |
//! |--------|--------------|
//! | `fig5_trajectory` | Fig. 5 — UCI lookup at 60/120/180 points |
//! | `fig6_lattice` | Fig. 6 — localization error vs lattice size |
//! | `fig7_crowdsourcing` | Fig. 7 — bit-error vs ℓ and γ |
//! | `fig8_comparison` | Fig. 8 — vs sparsity and measurement count |
//! | `fig9_testbed` | Fig. 9 — testbed drives + crowdsourced fusion |
//! | `fig10_vanlan` | Fig. 10 — BRR/AllAP connectivity + session CDF |
//! | `fig11_transfers` | Fig. 11 — transfer time/throughput vs errors |
//!
//! Run one with `cargo run -p crowdwifi-bench --release --bin <name>`.

use crowdwifi_core::metrics::{counting_error, localization_error, mean_distance_error};
use crowdwifi_geo::Point;

/// One row of a printed experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Cell values, first column is the x value.
    pub cells: Vec<String>,
}

/// Prints a fixed-width table with a title and column headers.
pub fn print_table(title: &str, headers: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.cells.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Summary statistics of one lookup run against ground truth.
#[derive(Debug, Clone, Copy)]
pub struct LookupErrors {
    /// `|k̂ − k| / k`.
    pub counting: f64,
    /// Paper-normalized localization error (fraction of a lattice).
    pub localization: Option<f64>,
    /// Mean matched distance in meters.
    pub mean_distance_m: Option<f64>,
    /// Estimated AP count.
    pub estimated_k: usize,
}

/// Computes the paper's three error numbers for one estimate set.
pub fn lookup_errors(truth: &[Point], estimated: &[Point], lattice: f64) -> LookupErrors {
    LookupErrors {
        counting: counting_error(truth.len(), estimated.len()),
        localization: localization_error(truth, estimated, lattice),
        mean_distance_m: mean_distance_error(truth, estimated),
        estimated_k: estimated.len(),
    }
}

/// Formats an optional metric for table cells.
pub fn fmt_opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "-".to_string(),
    }
}

/// log10 of an error rate, floored so zero errors stay plottable
/// (Fig. 7 plots log error; a perfect decode maps to the floor).
pub fn log10_error(rate: f64, floor: f64) -> f64 {
    rate.max(floor).log10()
}

/// Whether benches run in reduced smoke mode (`BENCH_SMOKE=1`): the
/// same measurements with far fewer repetitions, cheap enough for CI's
/// regression gate. Absolute numbers are noisier; ratios still read.
pub fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Where a bench writes its JSON artifact: `$BENCH_OUT_DIR/<file>` when
/// the override is set (CI points it at an artifact directory),
/// otherwise `<repo root>/<file>` (committed reference numbers).
pub fn bench_out_path(file: &str) -> std::path::PathBuf {
    match std::env::var_os("BENCH_OUT_DIR") {
        Some(dir) => {
            let _ = std::fs::create_dir_all(&dir);
            std::path::Path::new(&dir).join(file)
        }
        None => std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file),
    }
}

/// Mean seconds per call of `f` over `reps` calls (caller warms up).
pub fn time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// A two-leg wall-clock comparison from [`paired_median`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Median seconds of leg `a` over the reps.
    pub a_secs: f64,
    /// Median seconds of leg `b` over the reps.
    pub b_secs: f64,
    /// Median of the per-rep ratios `a / b`.
    pub ratio: f64,
}

/// Times two legs over `reps` reps; each leg runs its workload once and
/// returns its own seconds. The leg that runs first alternates rep by
/// rep, so neither leg is always the one that follows the other.
/// Load from other tenants of a shared machine lands on both legs
/// alike. The headline is the median of the per-rep ratios, which one
/// slow rep cannot move.
pub fn paired_median(
    reps: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> Paired {
    assert!(reps > 0, "paired_median needs at least one rep");
    let (mut a_secs, mut b_secs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (x, y) = if rep % 2 == 0 {
            let x = a();
            (x, b())
        } else {
            let y = b();
            (a(), y)
        };
        a_secs.push(x);
        b_secs.push(y);
        ratios.push(x / y);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    Paired {
        a_secs: median(&mut a_secs),
        b_secs: median(&mut b_secs),
        ratio: median(&mut ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_median_alternates_legs_and_takes_the_middle_ratio() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a_times = [1.0, 9.0, 3.0].into_iter();
        let mut b_times = [1.0, 1.0, 1.0].into_iter();
        let p = paired_median(
            3,
            || {
                order.borrow_mut().push('a');
                a_times.next().unwrap()
            },
            || {
                order.borrow_mut().push('b');
                b_times.next().unwrap()
            },
        );
        assert_eq!(order.into_inner(), ['a', 'b', 'b', 'a', 'a', 'b']);
        assert_eq!((p.a_secs, p.b_secs, p.ratio), (3.0, 1.0, 3.0));
    }

    #[test]
    fn lookup_errors_basic() {
        let truth = [Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let est = [Point::new(1.0, 0.0)];
        let e = lookup_errors(&truth, &est, 8.0);
        assert_eq!(e.counting, 0.5);
        assert_eq!(e.estimated_k, 1);
        assert!((e.mean_distance_m.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_error_floors() {
        assert_eq!(log10_error(0.0, 1e-4), -4.0);
        assert_eq!(log10_error(0.1, 1e-4), -1.0);
    }

    #[test]
    fn fmt_opt_formats() {
        assert_eq!(fmt_opt(Some(1.23456), 2), "1.23");
        assert_eq!(fmt_opt(None, 2), "-");
    }
}
