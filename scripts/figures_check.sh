#!/usr/bin/env bash
# Figure check: reruns the paper-figure drivers of crates/bench and
# diffs each one's stdout against its committed file in results/.
# Every driver is seeded, so any difference is a change in what the
# program computes, not noise.
#
#   scripts/figures_check.sh                  # every results/*.txt
#   scripts/figures_check.sh fig5_trajectory  # just the named drivers
#
# All of them take about 80 s on a 2-core machine after the release
# build, most of it fig8_comparison (~50 s), fig7_crowdsourcing and
# ablations (~15 s each); tier1.sh checks the five that take under two
# seconds. A change that moves a figure on purpose regenerates its file
# (`cargo run -p crowdwifi-bench --release --bin <name> > results/<name>.txt`)
# and says so in the changelog.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(basename -s .txt results/*.txt)
fi
cargo build --release --quiet -p crowdwifi-bench --bins

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=()
for name in "$@"; do
    start=$SECONDS
    "./target/release/$name" > "$out/$name.txt"
    if diff -u "results/$name.txt" "$out/$name.txt"; then
        echo "figures: $name matches results/$name.txt ($((SECONDS - start)) s)"
    else
        failed+=("$name")
    fi
done
if [ "${#failed[@]}" -gt 0 ]; then
    echo "figures: FAILED — output differs from results/ for: ${failed[*]}" >&2
    exit 1
fi
echo "figures: OK ($# checked)"
