//! Chaos suite for the concurrent serving core.
//!
//! The contract under test: whatever faults are injected and however
//! appends interleave with queries, every *completed* request is
//! bit-identical to a sequential oracle re-mine of the exact snapshot
//! epoch it was served from; shed and timed-out requests fail with typed
//! errors; and nothing deadlocks or tears a read. No test relies on a
//! sleep-based race — every fault and every overload condition is armed
//! deterministically before the code path runs.
//!
//! The stress test runs in two modes: clean (`cargo test`), where every
//! request must succeed, and under an `ARCS_FAILPOINTS` schedule (the CI
//! chaos matrix runs `cargo test --features failpoints --test serve_chaos
//! stress_` with several schedules), where typed injected failures are
//! tolerated but completed results must still match the oracle exactly.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use arcs::core::engine::mine_rules;
use arcs::prelude::*;

/// Failpoint state is process-global; serialise every test in this binary.
static LOCK: Mutex<()> = Mutex::new(());

/// Lock + reset failpoints: for tests that arm their own schedules.
#[cfg(feature = "failpoints")]
fn guard() -> std::sync::MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    arcs::core::faults::clear();
    g
}

const NX: usize = 8;
const NY: usize = 8;
const NSEG: usize = 3;

/// A deterministically scattered base array (splitmix-style walk).
fn base_array() -> BinArray {
    let mut ba = BinArray::new(NX, NY, NSEG).unwrap();
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..2_000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = ((state >> 33) as usize) % NX;
        let y = ((state >> 17) as usize) % NY;
        let g = ((state >> 7) % NSEG as u64) as u32;
        ba.add(x, y, g);
    }
    ba
}

/// The delta every append merges. All writers append the *same* delta, so
/// the array at epoch `k` is `base + k * delta` regardless of how writer
/// threads interleave — which is what makes a sequential per-epoch oracle
/// possible under true concurrency.
fn delta_array() -> BinArray {
    let mut ba = BinArray::new(NX, NY, NSEG).unwrap();
    let mut state = 0xD1B54A32D192ED03u64;
    for _ in 0..400 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = ((state >> 29) as usize) % NX;
        let y = ((state >> 13) as usize) % NY;
        let g = ((state >> 5) % NSEG as u64) as u32;
        ba.add(x, y, g);
    }
    ba
}

/// Oracle arrays for epochs `0..=max_epoch`.
fn oracles(max_epoch: usize) -> Vec<BinArray> {
    let mut arrays = vec![base_array()];
    let delta = delta_array();
    for _ in 0..max_epoch {
        let mut next = arrays.last().unwrap().clone();
        next.merge(&delta).unwrap();
        arrays.push(next);
    }
    arrays
}

fn chaos_config() -> ServeConfig {
    ServeConfig { max_inflight: 4, max_queued: 64, cache_capacity: 64, default_deadline: None }
}

/// The deterministic threshold sweep the readers walk. Repeats across
/// readers on purpose: cache hits must be as oracle-exact as misses.
fn sweep() -> Vec<Thresholds> {
    let mut points = Vec::new();
    for s in [0.0, 0.002, 0.005, 0.01, 0.05] {
        for c in [0.0, 0.4] {
            points.push(Thresholds::new(s, c).unwrap());
        }
    }
    points
}

/// Is `err` a failure mode an armed failpoint schedule may legitimately
/// produce (directly or via the recovery envelope)?
fn is_injected_class(err: &ArcsError) -> bool {
    matches!(
        err,
        ArcsError::FaultInjected { .. }
            | ArcsError::AllocationFailed { .. }
            | ArcsError::WorkerPanicked { .. }
            | ArcsError::DeadlineExceeded { .. }
            | ArcsError::Overloaded { .. }
    )
}

/// N writers swapping snapshots against M readers querying, verified
/// bit-identically against the per-epoch sequential oracle.
///
/// Clean mode: every append and every query must succeed, and the final
/// epoch must equal the append count. Under `ARCS_FAILPOINTS` (the CI
/// chaos matrix): typed injected errors are tolerated anywhere, but every
/// request that *does* complete must still match the oracle exactly, and
/// the store must never publish a torn epoch.
#[test]
fn stress_writers_vs_readers_bit_identical_to_sequential_oracle() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let env_faulted = std::env::var("ARCS_FAILPOINTS").is_ok();

    const WRITERS: usize = 2;
    const APPENDS_EACH: usize = 3;
    const READERS: usize = 4;
    const QUERIES_EACH: usize = 30;
    let max_epoch = WRITERS * APPENDS_EACH;

    let oracle = oracles(max_epoch);
    let server = Arc::new(Server::new(base_array(), chaos_config()).unwrap());
    let sweep = sweep();

    let barrier = Arc::new(std::sync::Barrier::new(WRITERS + READERS));
    let mut readers = Vec::new();
    for reader in 0..READERS {
        let server = Arc::clone(&server);
        let sweep = sweep.clone();
        let barrier = Arc::clone(&barrier);
        readers.push(std::thread::spawn(move || {
            barrier.wait();
            let mut completed = Vec::new();
            let mut failures = Vec::new();
            for i in 0..QUERIES_EACH {
                let t = sweep[(i + reader) % sweep.len()];
                let gk = ((i + reader) % NSEG) as u32;
                match server.query(&QueryRequest::new(gk, t)) {
                    Ok(resp) => completed.push((resp.result.epoch, gk, t, resp)),
                    Err(err) => failures.push(err),
                }
                // Torn-read audit: any snapshot handed out must hash to
                // exactly what it hashed to at publish time.
                let snap = server.snapshot();
                assert_eq!(snap.array().checksum(), snap.checksum(), "torn snapshot");
            }
            (completed, failures)
        }));
    }
    let mut writers = Vec::new();
    for _ in 0..WRITERS {
        let server = Arc::clone(&server);
        let barrier = Arc::clone(&barrier);
        writers.push(std::thread::spawn(move || {
            barrier.wait();
            let delta = delta_array();
            let mut appended = 0usize;
            let mut failures = Vec::new();
            for _ in 0..APPENDS_EACH {
                match server.append(&delta) {
                    Ok(_) => appended += 1,
                    Err(err) => failures.push(err),
                }
            }
            (appended, failures)
        }));
    }

    let mut total_completed = 0usize;
    let mut total_query_failures = 0usize;
    for handle in readers {
        let (completed, failures) = handle.join().expect("reader deadlocked or aborted");
        for (epoch, gk, t, resp) in completed {
            let expect = mine_rules(&oracle[epoch as usize], gk, t);
            assert_eq!(
                resp.result.rules, expect,
                "epoch {epoch} gk {gk} diverged from the sequential oracle"
            );
            total_completed += 1;
        }
        for err in failures {
            assert!(env_faulted, "query failed in a clean run: {err}");
            assert!(is_injected_class(&err), "unexpected failure class: {err}");
            total_query_failures += 1;
        }
    }
    let mut total_appended = 0usize;
    for handle in writers {
        let (appended, failures) = handle.join().expect("writer deadlocked or aborted");
        total_appended += appended;
        for err in failures {
            assert!(env_faulted, "append failed in a clean run: {err}");
            assert!(is_injected_class(&err), "unexpected failure class: {err}");
        }
    }

    // Epoch accounting is exact even under faults: one epoch per
    // successful append, nothing else.
    let stats = server.stats();
    assert_eq!(stats.snapshot_swaps, total_appended as u64);
    assert_eq!(stats.epoch, total_appended as u64);
    assert_eq!(stats.inflight, 0, "permits must all be released");
    if !env_faulted {
        assert_eq!(total_appended, max_epoch);
        assert_eq!(total_completed, READERS * QUERIES_EACH);
        assert_eq!(total_query_failures, 0);
    }
    // The server must still be serviceable after the storm, on the final
    // epoch, bit-identically.
    let t = Thresholds::new(0.0, 0.0).unwrap();
    match server.query(&QueryRequest::new(0, t)) {
        Ok(resp) => {
            assert_eq!(resp.result.rules, mine_rules(&oracle[total_appended], 0, t));
        }
        Err(err) => assert!(env_faulted && is_injected_class(&err), "{err}"),
    }
}

/// Deadline and overload failures are typed and immediate: an expired
/// deadline fails at admission without sleeping, and a full gate sheds
/// instead of queueing forever. Neither needs a timing race to trigger.
#[test]
fn expired_deadlines_and_overload_shed_are_typed_and_immediate() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    if std::env::var("ARCS_FAILPOINTS").is_ok() {
        return; // admission-path schedules would change the error types
    }
    let server =
        Server::new(base_array(), ServeConfig { max_inflight: 1, max_queued: 0, ..chaos_config() })
            .unwrap();
    let t = Thresholds::new(0.0, 0.0).unwrap();

    let err = server.query(&QueryRequest::new(0, t).deadline(Duration::ZERO)).unwrap_err();
    assert!(matches!(err, ArcsError::DeadlineExceeded { .. }), "{err}");

    // Deterministic overload: hold the only permit from this thread.
    let permit = server.gate().admit(None).unwrap();
    let err = server.query(&QueryRequest::new(0, t)).unwrap_err();
    assert!(matches!(err, ArcsError::Overloaded { .. }), "{err}");
    drop(permit);

    let stats = server.stats();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.shed, 1);
    assert!(server.query(&QueryRequest::new(0, t)).is_ok(), "must recover");
}

/// A fault before the swap body: the append fails typed, readers stay on
/// the old epoch, and the store recovers on the next append.
#[cfg(feature = "failpoints")]
#[test]
fn swap_fault_leaves_readers_on_the_old_epoch() {
    let _g = guard();
    use arcs::core::faults;

    let server = Server::new(base_array(), chaos_config()).unwrap();
    let t = Thresholds::new(0.0, 0.0).unwrap();
    let before = server.query(&QueryRequest::new(0, t)).unwrap();

    faults::configure_from_spec("serve.swap=error@1").unwrap();
    let err = server.append(&delta_array()).unwrap_err();
    assert!(matches!(err, ArcsError::FaultInjected { point: "serve.swap" }), "{err}");
    assert_eq!(server.snapshot().epoch(), 0);
    assert_eq!(server.stats().snapshot_swaps, 0);
    let still = server.query(&QueryRequest::new(0, t)).unwrap();
    assert_eq!(still.result.rules, before.result.rules);

    // The schedule is exhausted: the retried append goes through.
    assert_eq!(server.append(&delta_array()).unwrap(), 1);
    faults::clear();
}

/// A fault *after* the merge but before publication: the half-built
/// snapshot is discarded atomically — no torn epoch, no double-merge when
/// the append is retried.
#[cfg(feature = "failpoints")]
#[test]
fn swap_publish_fault_discards_the_merge_atomically() {
    let _g = guard();
    use arcs::core::faults;

    let server = Server::new(base_array(), chaos_config()).unwrap();
    let base_tuples = server.snapshot().array().n_tuples();
    let delta = delta_array();

    faults::configure_from_spec("serve.swap-publish=error@1").unwrap();
    let err = server.append(&delta).unwrap_err();
    assert!(matches!(err, ArcsError::FaultInjected { point: "serve.swap-publish" }), "{err}");
    // The merged copy must have been dropped with the error: current
    // snapshot unchanged, bit-for-bit.
    let snap = server.snapshot();
    assert_eq!(snap.epoch(), 0);
    assert_eq!(snap.array().n_tuples(), base_tuples);
    assert_eq!(snap.array().checksum(), base_array().checksum());

    // Retrying applies the delta exactly once.
    assert_eq!(server.append(&delta).unwrap(), 1);
    assert_eq!(server.snapshot().array().n_tuples(), base_tuples + delta.n_tuples());
    faults::clear();
}

/// The failpoint-tested invalidation contract: even when post-swap cache
/// invalidation is suppressed by a fault, the swap succeeds and no stale
/// result can ever be served — the epoch in the cache key makes
/// superseded entries unreachable; invalidation only reclaims memory.
#[cfg(feature = "failpoints")]
#[test]
fn cache_invalidation_fault_cannot_serve_stale_results() {
    let _g = guard();
    use arcs::core::faults;

    let server = Server::new(base_array(), chaos_config()).unwrap();
    let t = Thresholds::new(0.0, 0.0).unwrap();
    let request = QueryRequest::new(0, t);
    let before = server.query(&request).unwrap();
    assert_eq!(server.stats().cache_len, 1);

    faults::configure_from_spec("serve.cache-invalidate=error@1+").unwrap();
    assert_eq!(server.append(&delta_array()).unwrap(), 1, "append must survive");
    assert_eq!(faults::hits("serve.cache-invalidate"), 1);
    // The stale epoch-0 entry is still resident (reclamation faulted) ...
    assert_eq!(server.stats().cache_len, 1);

    // ... but unreachable: the same request now keys to epoch 1 and is
    // recomputed bit-identically against the merged oracle.
    let after = server.query(&request).unwrap();
    assert!(!after.cache_hit);
    assert_eq!(after.result.epoch, 1);
    assert_eq!(after.result.rules, mine_rules(&oracles(1)[1], 0, t));
    assert_ne!(before.result.rules, after.result.rules);
    faults::clear();
}

/// Worker panics inside the query body are caught and retried with
/// backoff; a transient panic is invisible to the caller (bit-identical
/// result, `retries = 1`), a persistent one surfaces as the typed
/// `WorkerPanicked` after the bounded retries — and the server keeps
/// serving either way.
#[cfg(feature = "failpoints")]
#[test]
fn worker_panics_are_retried_to_bit_identical_results() {
    let _g = guard();
    use arcs::core::faults;

    let server = Server::new(base_array(), chaos_config()).unwrap();
    let t = Thresholds::new(0.0, 0.0).unwrap();

    faults::configure_from_spec("serve.worker=panic@1").unwrap();
    let resp = server.query(&QueryRequest::new(0, t)).unwrap();
    assert_eq!(resp.retries, 1);
    assert!(!resp.cache_hit);
    assert_eq!(resp.result.rules, mine_rules(&base_array(), 0, t));
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.retries, 1);
    faults::clear();

    // Persistent panics exhaust the bounded retries into the typed error.
    faults::configure_from_spec("serve.worker=panic@1+").unwrap();
    let err = server.query(&QueryRequest::new(1, t)).unwrap_err();
    assert!(matches!(err, ArcsError::WorkerPanicked { .. }), "{err}");
    faults::clear();

    // No wedged state: the next query serves normally.
    let resp = server.query(&QueryRequest::new(1, t)).unwrap();
    assert_eq!(resp.result.rules, mine_rules(&base_array(), 1, t));
    assert_eq!(server.stats().inflight, 0);
}

/// Full chaos: concurrent readers and writers with a programmatic
/// schedule that panics a worker mid-run and kills one swap at the
/// publish point. Completed requests must be oracle-exact, the failed
/// swap must not leave a torn epoch, and everything must drain (join)
/// without a deadlock.
#[cfg(feature = "failpoints")]
#[test]
fn concurrent_chaos_with_mid_swap_faults_stays_oracle_exact() {
    let _g = guard();
    use arcs::core::faults;

    const APPENDS: usize = 4;
    let oracle = oracles(APPENDS);
    let server = Arc::new(Server::new(base_array(), chaos_config()).unwrap());
    let t_all = sweep();

    // The 2nd swap attempt dies at publish; the 5th worker execution
    // panics once (absorbed by a retry).
    faults::configure_from_spec("serve.swap-publish=error@2;serve.worker=panic@5").unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(3));
    let writer = {
        let server = Arc::clone(&server);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            let delta = delta_array();
            let mut ok = 0usize;
            let mut injected = 0usize;
            for _ in 0..APPENDS {
                match server.append(&delta) {
                    Ok(_) => ok += 1,
                    Err(ArcsError::FaultInjected { .. }) => injected += 1,
                    Err(err) => panic!("unexpected append failure: {err}"),
                }
            }
            (ok, injected)
        })
    };
    let mut readers = Vec::new();
    for reader in 0..2 {
        let server = Arc::clone(&server);
        let sweep = t_all.clone();
        let barrier = Arc::clone(&barrier);
        readers.push(std::thread::spawn(move || {
            barrier.wait();
            let mut completed = Vec::new();
            for i in 0..20 {
                let t = sweep[(i + reader) % sweep.len()];
                match server.query(&QueryRequest::new(0, t)) {
                    Ok(resp) => completed.push((resp.result.epoch, t, resp.result.rules.clone())),
                    Err(ArcsError::WorkerPanicked { .. }) => {}
                    Err(err) => panic!("unexpected query failure: {err}"),
                }
            }
            completed
        }));
    }

    let (ok_appends, injected_appends) = writer.join().expect("writer deadlocked");
    assert_eq!(injected_appends, 1, "exactly the @2 publish fault");
    assert_eq!(ok_appends, APPENDS - 1);
    for handle in readers {
        for (epoch, t, rules) in handle.join().expect("reader deadlocked") {
            assert_eq!(
                rules,
                mine_rules(&oracle[epoch as usize], 0, t),
                "epoch {epoch} diverged under chaos"
            );
        }
    }
    let stats = server.stats();
    assert_eq!(stats.epoch, (APPENDS - 1) as u64);
    assert_eq!(stats.snapshot_swaps, (APPENDS - 1) as u64);
    assert_eq!(stats.inflight, 0);
    faults::clear();
}
