//! Observability overhead bench: what instrumentation costs the hot
//! path, measured against the contract in `crowdwifi-obs`'s docs.
//!
//! Three measurements:
//!
//! 1. **Pipeline overhead** — [`OnlineCs::run`] over a seeded UCI drive
//!    with the default no-op recorder (global registry disabled) vs an
//!    enabled local registry wired through
//!    [`OnlineCs::with_registry`], one run per leg per rep with the
//!    leg that runs first alternating; the overhead is the median
//!    per-rep ratio. Budget: enabled recording stays under 2% of round
//!    time; the disabled path is a relaxed atomic load per record call.
//! 2. **Recorder micro-costs** — nanoseconds per `Counter::inc` against
//!    a disabled and an enabled registry (pre-registered handle, i.e.
//!    the pipeline's hot-path shape).
//! 3. **Snapshot sanity** — the enabled run's counters, embedded in the
//!    JSON so a regression in instrumentation coverage (metrics
//!    silently vanishing) is visible in the artifact diff.
//!
//! Compile-out mode (`--no-default-features` on `crowdwifi-obs`) is by
//! construction 0%: recording bodies are empty and the disabled-path
//! load disappears too. That configuration is covered by the tier-1
//! no-default-features check rather than measured here.
//!
//! Writes `BENCH_obs.json` at the repo root (or `$BENCH_OUT_DIR`).
//! `BENCH_SMOKE=1` cuts repetitions for CI.
//! Run with `cargo run -p crowdwifi-bench --release --bin obs_overhead`.

use crowdwifi_bench::{
    campus_config, campus_drive, num, obj, paired_median, smoke_mode, time, Report,
};
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_obs::Registry;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per `Counter::inc` against `reg`.
fn counter_ns(reg: &Registry, iters: u64) -> f64 {
    let c = reg.counter("bench.spin");
    let start = Instant::now();
    for _ in 0..iters {
        black_box(&c).inc();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The `notes` paragraph of `BENCH_obs.json`.
const NOTES: &str = "overhead_pct is the median over reps of the per-rep enabled/no-op wall-time \
    ratio, minus one: each rep runs OnlineCs::run once with an enabled local registry and once \
    with the default disabled global registry, on one core, alternating which runs first; noop_ms \
    and enabled_ms are the legs' median wall times. Single runs swing by tens of percent on a \
    shared machine, so CI gates it loosely while the budget stays 2%. The compile-out \
    configuration (--no-default-features) removes recording entirely and is covered by the tier-1 \
    gate, not measured here.";

fn main() {
    if !crowdwifi_obs::RECORDING {
        eprintln!("recording compiled out; nothing to measure");
        return;
    }
    let smoke = smoke_mode();
    // The global registry backs the uninstrumented baseline: explicitly
    // disabled, whatever CROWDWIFI_OBS says, so the no-op path is what
    // gets measured.
    crowdwifi_obs::global().set_enabled(false);

    let (readings, model) = campus_drive();
    let cfg = OnlineCsConfig {
        threads: 1,
        ..campus_config()
    };

    let reps = if smoke { 9 } else { 15 };
    println!(
        "pipeline overhead: {} readings, {} reps{} ...",
        readings.len(),
        reps,
        if smoke { " (smoke)" } else { "" }
    );

    let plain = OnlineCs::new(cfg, model).expect("valid config");
    let reg = Registry::new();
    let instrumented = OnlineCs::new(cfg, model)
        .expect("valid config")
        .with_registry(&reg);

    let baseline = plain.run(&readings).expect("warmup plain");
    let check = instrumented.run(&readings).expect("warmup instrumented");
    assert_eq!(
        baseline.len(),
        check.len(),
        "instrumentation changed the estimates"
    );

    let overhead = paired_median(
        reps,
        || {
            time(
                || drop(instrumented.run(&readings).expect("instrumented run")),
                1,
            )
        },
        || time(|| drop(plain.run(&readings).expect("plain run")), 1),
    );
    let (obs_secs, plain_secs) = (overhead.a_secs, overhead.b_secs);
    let overhead_pct = (overhead.ratio - 1.0) * 100.0;

    let micro_iters = if smoke { 1_000_000 } else { 5_000_000 };
    let disabled_ns = counter_ns(&Registry::disabled(), micro_iters);
    let enabled_ns = counter_ns(&Registry::new(), micro_iters);

    // The warmup + timed runs all recorded into `reg`; embed the
    // deterministic counters so coverage regressions show in the diff.
    let snap = reg.snapshot();
    Report::new("obs_overhead", 8)
        .field(
            "pipeline",
            obj([
                ("readings", readings.len().into()),
                ("reps", reps.into()),
                ("noop_ms", num(plain_secs * 1e3, 3)),
                ("enabled_ms", num(obs_secs * 1e3, 3)),
                ("overhead_pct", num(overhead_pct, 3)),
                ("budget_pct", num(2.0, 1)),
            ]),
        )
        .field(
            "counter_inc",
            obj([
                ("iters", micro_iters.into()),
                ("disabled_ns", num(disabled_ns, 3)),
                ("enabled_ns", num(enabled_ns, 3)),
            ]),
        )
        .field(
            "pipeline_counters",
            obj(snap.counters.iter().map(|(k, &v)| (k.as_str(), v.into()))),
        )
        .notes(NOTES)
        .write("BENCH_obs.json");
}
