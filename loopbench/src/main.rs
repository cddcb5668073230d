//! End-to-end benchmark of the CrowdWiFi crowdsensing loop.
//!
//! ```text
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload <metro_campaign|fleet_round|map_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives them through
//! the library's public API for `--seconds`, checks the outputs, and
//! prints one JSON result as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. See `README.md` for the metrics.

mod campaign;
mod mapserve;
mod openloop;
mod report;
mod stats;
mod trace;

use report::Outcome;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up runs this many times per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's loop with the real estimator.
    MetroCampaign,
    /// The round engine at fleet scale.
    FleetRound,
    /// The user-vehicle side: corridor queries beside a map writer.
    MapServe,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MetroCampaign,
        Workload::FleetRound,
        Workload::MapServe,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroCampaign => "metro_campaign",
            Workload::FleetRound => "fleet_round",
            Workload::MapServe => "map_serve",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Detected hardware parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median wall time
/// with the last result (earlier results are dropped before the next
/// set-up starts, so peak memory holds one).
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    let median = stats::median(&times).expect("at least one set-up");
    (median, last.expect("at least one set-up"))
}

/// Prints every failed output check to standard error.
pub fn report_checks(failed: &[String]) {
    for f in failed {
        eprintln!("check failed: {f}");
    }
}

/// Writes the run's spans to `loopbench/traces/`.
pub fn write_trace(rec: &trace::Recorder, args: &Args) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <metro_campaign|fleet_round|map_serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload {
        Workload::MetroCampaign => campaign::run(campaign::Kind::Metro, &args),
        Workload::FleetRound => campaign::run(campaign::Kind::Fleet, &args),
        Workload::MapServe => mapserve::run(&args),
    };
    let line = outcome.to_json(args.trace);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload map_serve --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::MapServe,
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fleet_round --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fleet_round --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload fleet_round --seed")).is_err());
    }

    #[test]
    fn setup_reports_the_median_and_keeps_the_last_result() {
        let mut calls = 0;
        let (t, v) = median_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!(v, SETUP_REPEATS);
        assert!(t >= 0.0);
    }
}
