#!/usr/bin/env bash
# Reruns the six fast deterministic experiment binaries and diffs their
# stdout against the files in results/. Each prints the same bytes on
# every run and at any CPU count, apart from exp_recovered_rules'
# `elapsed:` lines (wall time), which are left out of the comparison.
# Figures 11-14 are deterministic too but take minutes each; rerun them
# by hand when a change may move them.
#
# Usage: scripts/check_results.sh   (from the repository root)
set -euo pipefail

cargo build --release -q -p arcs-bench --bins

status=0
for pair in fig7_smoothing:fig7 exp_ablation:ablation exp_categorical:categorical \
    exp_clusterer_quality:clusterer_quality exp_recovered_rules:recovered_rules \
    exp_bin_granularity:bin_granularity; do
    bin=${pair%%:*}
    file=results/${pair##*:}.txt
    if diff <(grep -v '^elapsed:' "$file") <("target/release/$bin" | grep -v '^elapsed:'); then
        echo "$bin: matches $file"
    else
        echo "FAIL: $bin output differs from $file" >&2
        status=1
    fi
done
exit $status
