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
# those belong to the transport drivers. Grep keeps this honest because
# the compiler can't.
if grep -RnE 'std::thread|par_map|crossbeam|Instant::now|std::time::Instant|thread::sleep|SystemTime' \
    crates/middleware/src/protocol/; then
    echo "tier1: FAILED — I/O or wall-clock primitive in the sans-I/O protocol core" >&2
    exit 1
fi

# Small-budget end-to-end platform run on the simulator backend: a
# clean round plus a degraded (crash + stall + lossy links) round.
./target/release/examples/crowd_platform --smoke

# The workspace run covers every suite under the default kernel
# dispatch: the fault-injection, cross-backend equivalence, chaos,
# solver, wire-codec and geomap contracts all run here once.
cargo test -q --workspace
# Doc tests explicitly, so a future test filter can never drop them.
cargo test -q --workspace --doc
# The suites whose contracts must hold on both kernel dispatch paths
# run again with the scalar kernels pinned.
# The vectorized kernels must match the scalar reference bit for bit
# across shapes, ragged tails and non-finite inputs, so the batch entry
# points are pinned on each path.
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-linalg --test kernel_equivalence
# The Proposition-1 whitening (pivoted Cholesky + CholeskyQR) must give
# orthonormal rows spanning the sensing matrix's row space, with
# Qᵀy' = A⁺y where the spectrum has a gap, and the same bits on both
# kernel paths.
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-linalg --test properties \
    whitened_operator_is_an_orthonormal_prop1_basis
# Cross-backend determinism: same seed + fault plan must produce
# byte-identical deterministic projections on every backend, proven
# independent of the kernel path.
CROWDWIFI_FORCE_SCALAR=1 cargo test -q --test transport_equivalence
# The l1 solvers must never change what is recovered: every certified
# active-set solve must be feasible, satisfy KKT and match a long FISTA
# run's objective (property test, on both the raw problem and its
# whitened Proposition-1 form), and the default active-set campus drive
# must be as accurate as plain FISTA pinned in its place, for an order
# of magnitude less solver work. The solver invariants may not depend on
# which kernel path computed them.
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-sparsesolve --test recovery_properties \
    active_set_certifies_the_nonnegative_lasso
CROWDWIFI_FORCE_SCALAR=1 cargo test -q --test solver_accel
# The wire codec's contracts: proptest round-trips over every message
# variant (NaN bit-exact), the adversarial corrupted-frame corpus
# landing in quarantine, and malformed maps, logs and snapshots being
# rejected. Frame bytes are part of the cross-backend digest, so they
# may not depend on the kernel path.
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-middleware --test wire_roundtrip
# The geo-sharded AP map's contracts: geohash encode/decode/neighbor
# round-trips (property suite), TTL-eviction determinism under a seeded
# clock, snapshot→compact→recover byte-identity, and the full-stack
# suite (campaign rounds draining into the map through the round sink,
# map-fed BRR handoff identical to the static-list baseline, store/map
# intern-table agreement). The map consumes fused campaign output,
# which is part of the cross-backend digest, so its contracts may not
# depend on the kernel path.
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-geomap --test geohash_properties
CROWDWIFI_FORCE_SCALAR=1 cargo test -q -p crowdwifi-geomap --test map_properties
CROWDWIFI_FORCE_SCALAR=1 cargo test -q --test geomap_stack
# The observability layer ships a compile-out mode; it must stay green
# with recording compiled to nothing.
cargo test -q -p crowdwifi-obs --no-default-features
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p crowdwifi-obs --no-default-features --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "tier1: OK"
