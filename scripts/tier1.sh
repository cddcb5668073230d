#!/usr/bin/env bash
# Tier-1 gate: the single source of truth for what "green" means.
# CI (.github/workflows/ci.yml) runs exactly this script, so a change
# that passes here passes there — format, build, tests (unit, doc,
# integration), both observability feature configurations, lints and
# rustdoc. Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --workspace
cargo build --release --examples
# loopbench is its own cargo workspace, so the workspace build above
# never compiles it: build it here so a change to any API it imports
# fails tier-1 rather than the benchmark run. `--locked` also rejects
# any dependency change that would rewrite loopbench/Cargo.lock.
cargo build --release --offline --locked --manifest-path loopbench/Cargo.toml

# The sans-I/O protocol core must stay pure: no threads (spawned
# directly or through the `par_map` pool), channels or wall clocks —
# the fleet engine's worker pool belongs to the transport layer. Grep
# keeps this honest because the compiler can't.
if grep -RnE 'std::thread|par_map|crossbeam|Instant::now|std::time::Instant|thread::sleep|SystemTime' \
    crates/middleware/src/protocol/; then
    echo "tier1: FAILED — I/O or wall-clock primitive in the sans-I/O protocol core" >&2
    exit 1
fi
# The whole middleware runs on one virtual clock: both transports jump
# it to the next deadline instead of sleeping, and links are in-memory
# queues. No channel or wall-clock primitive belongs anywhere in it.
if grep -RnE 'crossbeam|Instant::now|std::time::Instant|thread::sleep|SystemTime|recv_timeout' \
    crates/middleware/src/; then
    echo "tier1: FAILED — channel or wall-clock primitive in the middleware" >&2
    exit 1
fi
# Threads start in one place, `crowdwifi_core::par`, under its single
# budget: the fleet's pumps, a campaign's background sensing job and any
# estimator inside them all lease from it, so a 2-core machine never
# runs a third worker. The middleware starts no thread of its own. (The
# pattern leaves `std::thread::Result`, a caught panic's type, alone.)
if grep -RnE 'thread::(scope|spawn|Builder)' crates/middleware/src/; then
    echo "tier1: FAILED — thread started outside the par.rs pool in the middleware" >&2
    exit 1
fi
# The estimator has one driver, OnlineCsSession, and one parallel
# region: the session's fan-out over the (window, hypothesis block)
# pairs of the windows one call completes (a batch run's whole drive,
# or a push's one window), on the par.rs pool. Each block's
# sensing workspace has one owner that scores its hypotheses in order,
# so no lock, atomic or thread belongs anywhere else in the core, and
# pipeline.rs holds no second par_map call.
if grep -RnE 'Mutex|Atomic|std::thread' --exclude=par.rs crates/core/src/ ||
    grep -RnE 'par_map' --exclude=par.rs --exclude=pipeline.rs crates/core/src/; then
    echo "tier1: FAILED — shared-state or thread primitive outside the core's window fan-out" >&2
    exit 1
fi
if [ "$(grep -c 'par_map' crates/core/src/pipeline.rs)" -gt 1 ]; then
    grep -n 'par_map' crates/core/src/pipeline.rs
    echo "tier1: FAILED — more than one parallel region in the estimator pipeline" >&2
    exit 1
fi

# Small-budget end-to-end platform run on the simulator backend: a
# clean round plus a degraded (crash + stall + lossy links) round.
./target/release/examples/crowd_platform --smoke
# The paper-figure drivers are seeded: the five that run in under two
# seconds must print their committed results/ files byte for byte
# (scripts/figures_check.sh with no arguments checks every figure).
./scripts/figures_check.sh fig5_trajectory fig6_lattice fig9_testbed fig10_vanlan fig11_transfers

# The workspace run covers every suite once. Among their contracts:
# - each linalg kernel matches its scalar reference loop bit for bit
#   across shapes, ragged tails and non-finite inputs
#   (kernel_equivalence);
# - the Proposition-1 whitening gives orthonormal rows spanning the
#   sensing matrix's row space, with Qᵀy' = A⁺y where the spectrum has
#   a gap (properties);
# - every certified active-set solve is feasible, satisfies KKT and
#   matches a long FISTA run's objective, on the raw problem and its
#   whitened form (recovery_properties), and the default campus drive
#   is as accurate as plain FISTA for an order of magnitude less solver
#   work (solver_accel);
# - same seed and fault plan give byte-identical deterministic
#   projections on the simulator and the fleet engine
#   (transport_equivalence), and the
#   durable campaign survives the chaos schedules (chaos_recovery);
# - the wire codec round-trips every message variant (NaN bit-exact)
#   and quarantines corrupted frames (wire_roundtrip);
# - the geo-sharded AP map keeps its geohash, eviction, recovery and
#   map-fed BRR handoff contracts (geohash_properties, map_properties,
#   geomap_stack).
cargo test -q --workspace
# Doc tests explicitly, so a future test filter can never drop them.
cargo test -q --workspace --doc
# The observability layer ships a compile-out mode; it must stay green
# with recording compiled to nothing.
cargo test -q -p crowdwifi-obs --no-default-features
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p crowdwifi-obs --no-default-features --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "tier1: OK"
