//! Shared harness code for the experiment drivers (`src/bin/fig*.rs`)
//! and the benches that write `BENCH_*.json` (through [`Report`]).
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

use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_core::metrics::{counting_error, localization_error, mean_distance_error};
use crowdwifi_core::pipeline::OnlineCsConfig;
use crowdwifi_core::window::WindowConfig;
use crowdwifi_geo::{Grid, Point};
use crowdwifi_vanet_sim::{mobility, RssCollector, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// The timing benches' drive: one lap of the UCI campus loop at 25 m/s
/// with the APs snapped to the 8 m grid, sampled 362 times on fading
/// seed 7, with the scenario's path-loss model.
pub fn campus_drive() -> (Vec<RssReading>, PathLossModel) {
    let scenario = Scenario::uci_campus();
    let grid = Grid::new(scenario.area(), 8.0).expect("static grid");
    let scenario = scenario.snapped_to_grid(&grid);
    let route = mobility::uci_loop_route_with(1, 25.0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let readings =
        RssCollector::new(&scenario).collect_along(&route, route.duration() / 361.0, &mut rng);
    (readings, *scenario.pathloss())
}

/// The estimator configuration the campus benches and ablations start
/// from: 40-reading windows stepping by 10, an 8 m lattice.
pub fn campus_config() -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 40,
            step: 10,
            ttl: f64::INFINITY,
        },
        lattice: 8.0,
        sigma_factor: 0.04,
        merge_radius: 20.0,
        ..OnlineCsConfig::default()
    }
}

/// Whether benches run in reduced smoke mode (`BENCH_SMOKE=1`): the
/// same measurements with far fewer repetitions, cheap enough for CI's
/// regression gate. Absolute numbers are noisier; ratios still read.
pub fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One value of a [`Report`]: a scalar already rendered as JSON, or an
/// object or array the writer lays out.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number, flag or escaped string.
    Scalar(String),
    /// An object; fields keep the order the bench measured them in.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

/// `x` with `decimals` digits after the point; `null` when `x` is not
/// finite, so a gate reading it reports it missing.
pub fn num(x: f64, decimals: usize) -> Json {
    Json::Scalar(if x.is_finite() {
        format!("{x:.decimals$}")
    } else {
        "null".to_string()
    })
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

macro_rules! json_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Scalar(v.to_string())
            }
        }
    )*};
}
json_from_display!(u32, u64, usize, bool);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out.push('"');
        Json::Scalar(out)
    }
}

/// Appends `value` with every array element and object field on its own
/// line, indented two spaces per level, so each `"key": value` pair that
/// `scripts/bench_smoke.sh` gates is alone on its line.
fn push_json(out: &mut String, value: &Json, indent: usize) {
    let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match value {
        Json::Scalar(s) => return out.push_str(s),
        Json::Obj(fields) => (
            '{',
            '}',
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
    };
    out.push(open);
    for (i, (key, value)) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            push_json(out, &Json::from(*key), 0);
            out.push_str(": ");
        }
        push_json(out, value, indent + 2);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

/// One `BENCH_*.json` document. The writer owns the envelope — `bench`,
/// `schema_version`, the `machine` block, `notes` — and the output
/// path; a bench supplies only its own sections.
#[derive(Debug, Clone)]
pub struct Report {
    bench: &'static str,
    schema_version: u32,
    worker_budget: Option<usize>,
    sections: Vec<(&'static str, Json)>,
    notes: &'static str,
}

impl Report {
    /// An empty report for the bench binary `bench`; bump
    /// `schema_version` whenever a key is added, removed or changes
    /// meaning.
    pub fn new(bench: &'static str, schema_version: u32) -> Self {
        Report {
            bench,
            schema_version,
            worker_budget: None,
            sections: Vec::new(),
            notes: "",
        }
    }

    /// Records the bench's worker-pool size in the `machine` block.
    pub fn worker_budget(mut self, workers: usize) -> Self {
        self.worker_budget = Some(workers);
        self
    }

    /// Appends a top-level section (or scalar) after the `machine` block.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.sections.push((key, value.into()));
        self
    }

    /// Sets the closing prose that says how to read the numbers.
    pub fn notes(mut self, notes: &'static str) -> Self {
        self.notes = notes;
        self
    }

    /// The document as written on a machine with `physical_parallelism`
    /// cores, in [`smoke_mode`] or not; newline-terminated.
    fn render(&self, physical_parallelism: usize, smoke: bool) -> String {
        let machine = [("physical_parallelism", physical_parallelism.into())]
            .into_iter()
            .chain(self.worker_budget.map(|w| ("worker_budget", w.into())))
            .chain([("smoke", smoke.into())]);
        let doc = [
            ("bench", self.bench.into()),
            ("schema_version", self.schema_version.into()),
            ("machine", obj(machine)),
        ]
        .into_iter()
        .chain(self.sections.iter().cloned())
        .chain([("notes", self.notes.into())]);
        let mut out = String::new();
        push_json(&mut out, &obj(doc), 0);
        out.push('\n');
        out
    }

    /// Prints the document and writes it to `$BENCH_OUT_DIR/<file>` when
    /// that is set (CI points it at an artifact directory), else to
    /// `<repo root>/<file>` (the committed reference numbers).
    ///
    /// # Panics
    ///
    /// If the file cannot be written.
    pub fn write(&self, file: &str) {
        let dir = std::env::var_os("BENCH_OUT_DIR").map_or_else(
            || std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
            std::path::PathBuf::from,
        );
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(file);
        let physical = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = self.render(physical, smoke_mode());
        print!("{doc}");
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
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
    fn report_writes_envelope_sections_and_escaped_notes() {
        let report = Report::new("demo", 12)
            .worker_budget(3)
            .field(
                "sim",
                obj([
                    ("sim_rounds_per_sec", num(16.92149, 3)),
                    ("ok", true.into()),
                ]),
            )
            .field("rows", Json::Arr(vec![obj([("vehicles", 10u32.into())])]))
            .field("headline", num(f64::NAN, 0))
            .notes(r#"say "hi" from C:\bench"#);
        let rendered = report.render(2, true);
        assert_eq!(
            rendered,
            r#"{
  "bench": "demo",
  "schema_version": 12,
  "machine": {
    "physical_parallelism": 2,
    "worker_budget": 3,
    "smoke": true
  },
  "sim": {
    "sim_rounds_per_sec": 16.921,
    "ok": true
  },
  "rows": [
    {
      "vehicles": 10
    }
  ],
  "headline": null,
  "notes": "say \"hi\" from C:\\bench"
}
"#
        );
        // bench_smoke.sh's `num` reads one `"key": value` per line.
        assert!(rendered.lines().all(|l| l.matches("\": ").count() <= 1));
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
