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

# The sans-I/O protocol core must stay pure: no threads, channels or
# wall clocks — those belong to the transport drivers. Grep keeps this
# honest because the compiler can't.
if grep -RnE 'std::thread|crossbeam|Instant::now|std::time::Instant|thread::sleep|SystemTime' \
    crates/middleware/src/protocol/; then
    echo "tier1: FAILED — I/O or wall-clock primitive in the sans-I/O protocol core" >&2
    exit 1
fi

# Small-budget end-to-end platform run on the simulator backend: a
# clean round plus a degraded (crash + stall + lossy links) round.
./target/release/examples/crowd_platform --smoke

cargo test -q --workspace
# Doc tests explicitly, so a future test filter can never drop them.
cargo test -q --workspace --doc
# The fault-injection suite exercises the platform's degraded-round
# paths (crashes, stragglers, lossy links); run it by name so a
# workspace filter can never silently skip it.
cargo test -q --test failure_injection
# The vectorized kernels must match the scalar reference bit for bit
# across shapes, ragged tails and non-finite inputs; run the property
# suite by name so a workspace filter can never silently skip it, and
# run it under both dispatch modes so the batch entry points are pinned
# on each path.
cargo test -q -p crowdwifi-linalg --test kernel_equivalence
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-linalg --test kernel_equivalence
# Cross-backend determinism: same seed + fault plan must produce
# byte-identical deterministic projections on the threaded runtime and
# the virtual-clock simulator. Run twice — default dispatch and with
# the scalar kernels pinned — so the byte-equivalence contract is
# proven independent of the kernel path.
cargo test -q --test transport_equivalence
CROWDWIFI_FORCE_SCALAR=1 cargo test -q --test transport_equivalence
# The fleet-scale engine's contract is byte-equality with the reference
# simulator: batched session multiplexing and segment-sharded fusion
# may never change a round's outcome, digest or metrics. The fleet_*
# tests live in the same suite, but run them by name too so a future
# test filter can never silently drop the contract (release mode: a
# faulted multi-vehicle round per test is slow unoptimized).
cargo test -q --release --test transport_equivalence fleet_
# The chaos harness: deterministic server-kill schedules over durable
# rounds on the simulator — crash before/after the WAL append, torn and
# corrupted log tails, torn snapshot writes — each followed by replay
# recovery and checked byte-identical against the fault-free round. Run
# by name so a workspace filter can never silently skip it; the sweep
# is trimmed from its 32-schedule default to keep the gate quick (all
# four fault flavors are still covered — the test asserts so).
CROWDWIFI_CHAOS_SCHEDULES=12 cargo test -q --test chaos_recovery
# The l1 solvers must never change what is recovered: gap-safe
# screening has to land on the same minimizer as the plain solve, every
# certified active-set solve must be feasible, satisfy KKT and match a
# long FISTA run's objective (property tests), the accelerated campus
# drive must keep the unaccelerated support while cutting >=30% of total
# FISTA iterations, and the default active-set drive must be as accurate
# as pinned FISTA. Run them by name so a workspace filter can never
# silently skip them, and under both kernel dispatch modes: the solver
# invariants may not depend on which kernel path computed them.
cargo test -q -p crowdwifi-sparsesolve --test recovery_properties \
    screening_preserves_support_and_solution
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-sparsesolve --test recovery_properties \
    screening_preserves_support_and_solution
cargo test -q -p crowdwifi-sparsesolve --test recovery_properties \
    active_set_certifies_the_nonnegative_lasso
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-sparsesolve --test recovery_properties \
    active_set_certifies_the_nonnegative_lasso
cargo test -q --test solver_accel
CROWDWIFI_FORCE_SCALAR=1 cargo test -q --test solver_accel
# The binary wire codec's contracts: proptest round-trips over every
# message variant (NaN bit-exact, text and binary codecs agreeing), the
# adversarial corrupted-frame corpus landing in quarantine, and
# text-era WAL logs recovering byte-identically through codec-version
# dispatch. Run by name so a workspace filter can never silently skip
# them, and under both kernel dispatch modes: frame bytes are part of
# the cross-backend digest, so they may not depend on the kernel path.
cargo test -q -p crowdwifi-middleware --test wire_roundtrip
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-middleware --test wire_roundtrip
cargo test -q -p crowdwifi-middleware --test wal_compat
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-middleware --test wal_compat
# The codec primitives and the columnar observation store unit suites,
# by module name for the same reason.
cargo test -q -p crowdwifi-middleware --lib wire::
cargo test -q -p crowdwifi-middleware --lib store::
# The geo-sharded AP map's contracts: geohash encode/decode/neighbor
# round-trips (property suite), TTL-eviction determinism under a seeded
# clock, snapshot→compact→recover byte-identity, and the full-stack
# suite (campaign rounds draining into the map through the round sink,
# map-fed BRR handoff identical to the static-list baseline, store/map
# intern-table agreement). Run by name so a workspace filter can never
# silently skip them, and under both kernel dispatch modes: the map
# consumes fused campaign output, which is part of the cross-backend
# digest, so its contracts may not depend on the kernel path.
cargo test -q -p crowdwifi-geomap --test geohash_properties
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-geomap --test geohash_properties
cargo test -q -p crowdwifi-geomap --test map_properties
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-geomap --test map_properties
cargo test -q --test geomap_stack
CROWDWIFI_FORCE_SCALAR=1 cargo test -q --test geomap_stack
# The observability layer ships a compile-out mode; it must stay green
# with recording compiled to nothing.
cargo test -q -p crowdwifi-obs --no-default-features
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p crowdwifi-obs --no-default-features --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "tier1: OK"
