//! Deterministic fault-injection harness (the `failpoints` feature).
//!
//! Robustness claims are only worth what their tests exercise, so every
//! recovery path in the pipeline is threaded with *named failpoints* —
//! places where a test can deterministically inject a typed error, a
//! panic, or an allocation failure on exactly the Nth visit. Without the
//! `failpoints` cargo feature every [`check`] call compiles to an inlined
//! `Ok(())`, so production builds pay nothing.
//!
//! # Failpoint catalog
//!
//! | name | site |
//! |------|------|
//! | `binner.shard` | inside each `bin_rows_parallel` shard, the single shard of a one-worker run included |
//! | `engine.mine` | at the rule-bitmap build: [`rule_grid`]/[`rule_grid_into`] entry, each optimizer evaluation, and the clustering step of the shared query body `serve::answer` |
//! | `smooth.pass` | before each smoothing pass |
//! | `bitop.enumerate` | at [`cluster_with_stats`] entry |
//! | `bitop.stripe` | inside each enumeration stripe, the single stripe of a one-worker run included |
//! | `verify.sample` | at [`verify_sampled`] entry |
//! | `optimizer.evaluate` | before each point of a search chunk, at any thread count |
//! | `serve.swap` | at [`SnapshotStore::append`] entry, before the merge |
//! | `serve.swap-publish` | after building the new snapshot, before publishing it |
//! | `serve.admission` | at [`AdmissionGate::admit`] entry |
//! | `serve.worker` | inside the panic-isolated query body (retried on panic) |
//! | `serve.cache-insert` | before inserting a computed result into the cache |
//! | `serve.cache-invalidate` | before post-swap cache invalidation (fault degrades reclamation, never correctness) |
//! | `daemon.accept` | per accepted TCP connection in `arcsd` (fault drops that one connection) |
//! | `daemon.frame-decode` | per received frame in `arcsd` (fault fails that one frame, not the connection) |
//! | `daemon.tenant-lookup` | at `Registry::get` in `arcsd` (fault fails that one request) |
//! | `daemon.feeder-merge` | per feeder merge tick in `arcsd` (fault retries the same bytes next tick) |
//! | `wal.write` | at [`WalWriter::append`] entry, before any byte lands |
//! | `wal.fsync` | after a WAL record's bytes are written, before the fsync that acknowledges it |
//! | `wal.checkpoint` | at [`save_checkpoint`] entry, before the checkpoint file is written |
//! | `wal.replay` | at [`replay`] entry, before the log is scanned |
//! | `wal.truncate` | at [`WalWriter::reset`] entry, before the post-checkpoint truncation |
//! | `repl.subscribe` | at the primary's `repl.subscribe` handler entry (fault drops that subscribe; the standby retries) |
//! | `repl.records` | at the primary's `repl.records` handler entry (fault fails that batch — a mid-stream disconnect) |
//! | `repl.record` | per record while a primary encodes a shipped batch (fault cuts the batch short — a torn ship; the rest follows next poll) |
//! | `repl.apply` | per shipped record at the standby's apply site (fault refuses that record; the batch is re-fetched) |
//! | `repl.heartbeat` | at the primary's `repl.heartbeat` handler entry (fault starves the standby's staleness clock) |
//!
//! [`rule_grid`]: crate::engine::rule_grid
//! [`rule_grid_into`]: crate::engine::rule_grid_into
//! [`cluster_with_stats`]: crate::bitop::cluster_with_stats
//! [`verify_sampled`]: crate::verify::verify_sampled
//! [`SnapshotStore::append`]: crate::serve::SnapshotStore::append
//! [`AdmissionGate::admit`]: crate::serve::AdmissionGate::admit
//! [`WalWriter::append`]: crate::wal::WalWriter::append
//! [`WalWriter::reset`]: crate::wal::WalWriter::reset
//! [`save_checkpoint`]: crate::wal::save_checkpoint
//! [`replay`]: crate::wal::replay
//!
//! # Schedule specification
//!
//! A schedule is a `;`-separated list of `name=action@N` clauses:
//!
//! * `action` is one of `error` (return [`ArcsError::FaultInjected`]),
//!   `panic` (unwind with a recognisable message), or `alloc` (return
//!   [`ArcsError::AllocationFailed`], simulating allocator exhaustion).
//! * `@N` fires on exactly the Nth visit to the point (1-based, counted
//!   from when the schedule was installed); `@N+` fires on *every* visit
//!   from the Nth on (a persistent fault); omitting `@N` means `@1`.
//!
//! Example: `binner.shard=panic@1+;engine.mine=error@2` — every binning
//! shard worker panics, and the second rule-mining call fails.
//!
//! Schedules come from the `ARCS_FAILPOINTS` environment variable (parsed
//! lazily on first [`check`]) or programmatically via
//! `configure_from_spec`. Hit counters are global and monotonic until
//! `clear`, so tests that share a process must serialise on a lock and
//! call `clear` between scenarios. (Both exist only with the feature.)

#[cfg(not(feature = "failpoints"))]
use crate::error::ArcsError;

/// Consults the failpoint registry for `point`, firing the configured
/// action if its schedule matches the current hit count.
///
/// Returns `Ok(())` when the point is unconfigured or its schedule does
/// not match; returns a typed error for `error`/`alloc` actions; unwinds
/// for `panic` actions. In builds without the `failpoints` feature this is
/// an inlined no-op.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_point: &'static str) -> Result<(), ArcsError> {
    Ok(())
}

#[cfg(feature = "failpoints")]
pub use imp::{check, clear, configure_from_spec, hits, Action};

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    use crate::error::ArcsError;

    /// What a failpoint does when its schedule fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Action {
        /// Return [`ArcsError::FaultInjected`].
        Error,
        /// Unwind with a panic whose message names the point.
        Panic,
        /// Return [`ArcsError::AllocationFailed`], simulating OOM.
        Alloc,
    }

    #[derive(Debug, Clone)]
    struct Schedule {
        action: Action,
        /// 1-based hit number the schedule first matches.
        at: u64,
        /// `true` for `@N+`: fire on every hit from `at` on.
        persistent: bool,
    }

    #[derive(Default)]
    struct State {
        schedules: HashMap<String, Schedule>,
        hits: HashMap<&'static str, u64>,
    }

    fn state() -> MutexGuard<'static, State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        let mutex = STATE.get_or_init(|| {
            let mut st = State::default();
            if let Ok(spec) = std::env::var("ARCS_FAILPOINTS") {
                if let Err(err) = apply_spec(&mut st, &spec) {
                    // A typo'd env schedule silently doing nothing would
                    // defeat the tests that rely on it; be loud.
                    eprintln!("warning: ignoring invalid ARCS_FAILPOINTS: {err}");
                }
            }
            Mutex::new(st)
        });
        // A panic action never unwinds while holding the lock, but a test
        // thread may die for unrelated reasons; the state is still valid.
        mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn parse_clause(clause: &str) -> Result<(String, Schedule), ArcsError> {
        let bad = |msg: &str| ArcsError::InvalidConfig(format!("failpoint `{clause}`: {msg}"));
        let (name, rest) =
            clause.split_once('=').ok_or_else(|| bad("expected `name=action[@N[+]]`"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(bad("empty failpoint name"));
        }
        let (action_text, at_text) = match rest.split_once('@') {
            Some((a, n)) => (a.trim(), Some(n.trim())),
            None => (rest.trim(), None),
        };
        let action = match action_text {
            "error" => Action::Error,
            "panic" => Action::Panic,
            "alloc" => Action::Alloc,
            other => return Err(bad(&format!("unknown action `{other}`"))),
        };
        let (at, persistent) = match at_text {
            None => (1, false),
            Some(n) => {
                let (digits, persistent) = match n.strip_suffix('+') {
                    Some(d) => (d, true),
                    None => (n, false),
                };
                let at: u64 = digits.parse().map_err(|_| bad(&format!("bad hit count `{n}`")))?;
                if at == 0 {
                    return Err(bad("hit counts are 1-based"));
                }
                (at, persistent)
            }
        };
        Ok((name.to_string(), Schedule { action, at, persistent }))
    }

    fn apply_spec(st: &mut State, spec: &str) -> Result<(), ArcsError> {
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, schedule) = parse_clause(clause)?;
            // `@N` counts visits from installation, not from process
            // start: a fault-free baseline run before arming must not
            // consume the schedule's hits.
            st.hits.remove(name.as_str());
            st.schedules.insert(name, schedule);
        }
        Ok(())
    }

    /// Installs (or replaces) failpoint schedules from a spec string.
    /// Clauses are merged into the existing registry; each configured
    /// point's hit counter restarts at zero, so `@N` counts visits from
    /// installation. See the module docs for the grammar.
    pub fn configure_from_spec(spec: &str) -> Result<(), ArcsError> {
        apply_spec(&mut state(), spec)
    }

    /// Removes every schedule and resets every hit counter. Call between
    /// test scenarios sharing a process.
    pub fn clear() {
        let mut st = state();
        st.schedules.clear();
        st.hits.clear();
    }

    /// Number of times [`check`] has been called for `point` since the
    /// last [`clear`] or since the point was last (re)configured —
    /// configured or not. Lets tests assert a failpoint was reached.
    pub fn hits(point: &str) -> u64 {
        state().hits.get(point).copied().unwrap_or(0)
    }

    /// Active-build implementation of [`crate::faults::check`].
    pub fn check(point: &'static str) -> Result<(), ArcsError> {
        let fire = {
            let mut st = state();
            let hit = st.hits.entry(point).or_insert(0);
            *hit += 1;
            let n = *hit;
            st.schedules.get(point).and_then(|s| {
                let fires = if s.persistent { n >= s.at } else { n == s.at };
                fires.then_some(s.action)
            })
            // Guard dropped here: a panic action never poisons the lock.
        };
        match fire {
            None => Ok(()),
            Some(Action::Error) => Err(ArcsError::FaultInjected { point }),
            Some(Action::Alloc) => Err(ArcsError::AllocationFailed {
                what: format!("injected allocation failure at failpoint `{point}`"),
            }),
            Some(Action::Panic) => panic!("injected panic at failpoint `{point}`"),
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::error::ArcsError;
    use std::sync::Mutex;

    /// Failpoint state is process-global; serialise the tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        g
    }

    #[test]
    fn unconfigured_points_pass_and_count() {
        let _g = guard();
        assert!(check("test.point").is_ok());
        assert!(check("test.point").is_ok());
        assert_eq!(hits("test.point"), 2);
        clear();
    }

    #[test]
    fn exact_schedule_fires_once() {
        let _g = guard();
        configure_from_spec("test.exact=error@2").unwrap();
        assert!(check("test.exact").is_ok());
        let err = check("test.exact").unwrap_err();
        assert!(matches!(err, ArcsError::FaultInjected { point: "test.exact" }));
        assert!(check("test.exact").is_ok(), "@N fires on the Nth hit only");
        clear();
    }

    #[test]
    fn persistent_schedule_fires_from_n_on() {
        let _g = guard();
        configure_from_spec("test.persist=alloc@2+").unwrap();
        assert!(check("test.persist").is_ok());
        assert!(matches!(check("test.persist"), Err(ArcsError::AllocationFailed { .. })));
        assert!(matches!(check("test.persist"), Err(ArcsError::AllocationFailed { .. })));
        clear();
    }

    #[test]
    fn bare_action_means_first_hit() {
        let _g = guard();
        configure_from_spec("test.bare=error").unwrap();
        assert!(check("test.bare").is_err());
        assert!(check("test.bare").is_ok());
        clear();
    }

    #[test]
    fn panic_action_unwinds_with_point_name() {
        let _g = guard();
        configure_from_spec("test.panic=panic@1").unwrap();
        let caught = std::panic::catch_unwind(|| check("test.panic")).unwrap_err();
        let text = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("test.panic"), "{text}");
        clear();
    }

    #[test]
    fn multi_clause_specs_and_errors() {
        let _g = guard();
        configure_from_spec("test.a=error@1; test.b=panic@3+").unwrap();
        assert!(check("test.a").is_err());
        assert!(check("test.b").is_ok());
        clear();

        for bad in ["nope", "x=frobnicate", "x=error@0", "x=error@abc", "=error"] {
            assert!(configure_from_spec(bad).is_err(), "accepted `{bad}`");
        }
        clear();
    }
}
