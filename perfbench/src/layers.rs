//! The per-layer metric catalogue: every traced run reports every entry,
//! each with the end-to-end metric and workload it should move. A layer
//! that does no work on a workload reports 0.

use std::collections::BTreeMap;

use crate::common::Report;

/// `(name, unit, what it moves)`.
pub const CATALOGUE: &[(&str, &str, &str)] = &[
    ("csv.load_ms", "ms", "setup_s on all three; append op on ingest-durable (store.bin_batch parses CSV)"),
    ("binner.bin_ms", "ms", "op.p50_ms and op.cpu_ms on batch-1m; setup_s on the daemon workloads"),
    ("binner.effective_workers", "count", "op.p50_ms on batch-1m; setup_s on the daemon workloads"),
    ("exec.tasks_run", "count", "op.p50_ms on batch-1m; setup_s on the daemon workloads"),
    ("exec.steals", "count", "op.p50_ms on batch-1m; setup_s on the daemon workloads"),
    ("index.build_ms", "ms", "op.p50_ms on batch-1m; op.p50_ms (append) on ingest-durable, one build per snapshot"),
    ("optimizer.lattice_ms", "ms", "op.p50_ms on batch-1m; no change on the daemon workloads"),
    ("optimizer.search_ms", "ms", "op.p50_ms on batch-1m; no change on the daemon workloads"),
    ("optimizer.evaluations", "count", "op.p50_ms on batch-1m; no change on the daemon workloads"),
    ("optimizer.dup_grid_share", "share", "op.p50_ms on batch-1m: evaluations a grid-fingerprint memo would skip"),
    ("engine.remine_ms", "ms", "op.p50_ms on batch-1m"),
    ("engine.cells_visited", "count", "op.p50_ms on batch-1m"),
    ("smooth.ms", "ms", "op.p50_ms on batch-1m (per job); op.p50_ms on explore-wire, read.p50_ms on ingest-durable (per query)"),
    ("smooth.words", "count", "op.p50_ms on batch-1m"),
    ("bitop.ms", "ms", "op.p50_ms on batch-1m (per job); op.p50_ms on explore-wire, read.p50_ms on ingest-durable (per query)"),
    ("bitop.candidates", "count", "op.p50_ms on batch-1m"),
    ("bitop.pruned", "count", "op.p50_ms on batch-1m"),
    ("verify.ms", "ms", "op.p50_ms on batch-1m"),
    ("verify.tuples", "count", "op.p50_ms on batch-1m"),
    ("mdl.ms", "ms", "op.p50_ms on batch-1m"),
    ("serve.query_ms", "ms", "op.p50_ms and op.cpu_ms on explore-wire; read.p50_ms on ingest-durable; no change on batch-1m"),
    ("engine.mine_ms", "ms", "op.p50_ms and op.cpu_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("engine.rules", "count", "op.p50_ms and op.cpu_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("engine.rule_grid_ms", "ms", "op.p50_ms on explore-wire: the full nx*ny rescan (the double mine)"),
    ("protocol.encode_ms", "ms", "op.p50_ms and op.cpu_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("protocol.bytes", "bytes", "op.p50_ms and op.cpu_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("client.encode_ms", "ms", "op.p50_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("client.decode_ms", "ms", "op.p50_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("daemon.serve_ms", "ms", "op.p50_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("daemon.other_ms", "ms", "op.p50_ms on explore-wire; read.p50_ms on ingest-durable"),
    ("serve.cache_hit_ratio", "share", "op.p50_ms on the daemon workloads (explore-wire should show 0)"),
    ("serve.snapshot_swaps", "count", "op.p50_ms on the daemon workloads"),
    ("store.bin_batch_ms", "ms", "op.p50_ms and op.cpu_ms (append) on ingest-durable, and its append.tail_ms"),
    ("wal.append_ms", "ms", "op.p50_ms and op.cpu_ms (append) on ingest-durable, and its append.tail_ms"),
    ("wal.bytes_per_row", "bytes", "op.p50_ms and op.cpu_ms (append) on ingest-durable; the daemon's WAL over its warm-up appends"),
    ("serve.swap_ms", "ms", "op.p50_ms (append) on ingest-durable; contention moves read.p50_ms there"),
    ("store.checkpoint_ms", "ms", "append.tail_ms and append.top_tail_ms on ingest-durable"),
    ("store.checkpoints", "count", "append.tail_ms and append.top_tail_ms on ingest-durable"),
    ("append.client_ms", "ms", "op.p50_ms and op.cpu_ms (append) on ingest-durable: client encode + decode of the append, per op"),
    ("append.wire_ms", "ms", "op.p50_ms (append) on ingest-durable: write to reply read, per op (socket + the daemon's parse, bin, WAL, swap)"),
    ("read.p50_ms", "ms", "query latency in the traced window: op.p50_ms on explore-wire; beside appends on ingest-durable"),
    ("trace.overhead_share", "share", "traced ops' median over untraced ops' median in the same window, minus 1 (appends on ingest-durable)"),
    ("trace.span_coverage", "share", "median share of an op's wall time its own layer spans cover (appends on ingest-durable)"),
];

/// Moves `values` into the report in catalogue order, 0 for layers that
/// did no work on this workload.
pub fn fill(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for &(name, unit, moves) in CATALOGUE {
        match values.get(name) {
            Some(&v) => report.layer(name, v, unit, format!("-> {moves}")),
            None => report.layer(name, 0.0, unit, "not on this workload's path"),
        }
    }
    debug_assert!(values
        .keys()
        .all(|k| CATALOGUE.iter().any(|(n, _, _)| n == k)));
}
