#!/usr/bin/env bash
# Reruns the seven fast deterministic experiment binaries and diffs their
# stdout against the files in results/. Each prints the same bytes on
# every run and at any CPU count, apart from exp_recovered_rules'
# `elapsed:` lines (wall time), which are left out of the comparison.
# Figures 11-14 are deterministic too, but their C4.5 columns take
# minutes each: those binaries run without C4.5 (`--max-c45 0`, about a
# second each), and only their first two columns (tuples and ARCS), which
# the verifier and the threshold lattice decide, are diffed. Rerun them
# in full by hand when a change may move the C4.5 columns. The same two
# columns at seeds 1-10 (about 27 s on 2 vCPUs) are diffed against
# results/fig11_14_seeds.txt, one `seed fig tuples arcs` line per point:
# EXPERIMENTS.md's Figure 11-14 verdicts rest on them.
#
# Usage: scripts/check_results.sh   (from the repository root)
set -euo pipefail

cargo build --release -q -p arcs-bench --bins

status=0
for pair in fig7_smoothing:fig7 exp_ablation:ablation exp_categorical:categorical \
    exp_clusterer_quality:clusterer_quality exp_recovered_rules:recovered_rules \
    exp_bin_granularity:bin_granularity exp_multidim:multidim; do
    bin=${pair%%:*}
    file=results/${pair##*:}.txt
    if diff <(grep -v '^elapsed:' "$file") <("target/release/$bin" | grep -v '^elapsed:'); then
        echo "$bin: matches $file"
    else
        echo "FAIL: $bin output differs from $file" >&2
        status=1
    fi
done
for pair in fig11_12_error_rate:fig11_12 fig13_14_rule_count:fig13_14; do
    bin=${pair%%:*}
    file=results/${pair##*:}.txt
    if diff <(awk '{print $1, $2}' "$file") \
        <("target/release/$bin" --max-c45 0 | awk '{print $1, $2}'); then
        echo "$bin --max-c45 0: tuples and ARCS columns match $file"
    else
        echo "FAIL: $bin --max-c45 0 tuples/ARCS columns differ from $file" >&2
        status=1
    fi
done
seeds() {
    echo "seed fig tuples arcs"
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        for bin in fig11_12_error_rate fig13_14_rule_count; do
            "target/release/$bin" --max-c45 0 --seed "$seed" |
                awk -v seed="$seed" '/^== Figure/ {fig = $3; sub(":", "", fig)}
                    NF == 4 && $1 ~ /^[0-9]+$/ {print seed, fig, $1, $2}'
        done
    done
}
if diff results/fig11_14_seeds.txt <(seeds); then
    echo "fig11_12_error_rate, fig13_14_rule_count --max-c45 0, seeds 1-10: match results/fig11_14_seeds.txt"
else
    echo "FAIL: Figures 11-14 at seeds 1-10 differ from results/fig11_14_seeds.txt" >&2
    status=1
fi
exit $status
