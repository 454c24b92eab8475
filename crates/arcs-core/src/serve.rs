//! The fault-tolerant concurrent serving core.
//!
//! Everything below is std-only and sits on the invariant the paper's
//! §3.2 establishes: once tuples are binned, re-mining at new thresholds
//! touches only the [`BinArray`]. That makes a multi-tenant interactive
//! segmentation service cheap to serve — *if* the serving layer survives
//! concurrency, overload, and faults. This module supplies that layer:
//!
//! * [`SnapshotStore`] — immutable, epoch-versioned `Arc<`[`Snapshot`]`>`
//!   state with copy-on-write swap. Streaming appends bin into a *delta*
//!   `BinArray` which [`SnapshotStore::append`] merges (via
//!   [`BinArray::merge`]) into a fresh array published under the next
//!   epoch. In-flight readers keep their `Arc` to the old snapshot, so a
//!   swap never blocks or tears a read; a fault mid-swap leaves the
//!   previous epoch intact.
//! * [`AdmissionGate`] — bounded in-flight slots plus a bounded wait
//!   queue. When both are full the request is shed *immediately* with a
//!   typed [`ArcsError::Overloaded`]; a queued request whose deadline
//!   expires fails with a typed [`ArcsError::DeadlineExceeded`]. Nothing
//!   ever stalls behind an unbounded queue.
//! * Per-request deadlines — checked at admission and between pipeline
//!   stages (mine, smooth/cluster), so a timed-out request returns its
//!   typed error promptly instead of running to completion.
//! * Panic isolation with bounded retry — the query body runs under
//!   `catch_unwind`; a panicking worker is retried up to
//!   [`ServeConfig::max_retries`] times with exponential backoff before
//!   surfacing [`ArcsError::WorkerPanicked`]. Deterministic (typed)
//!   errors are never retried.
//! * Per-request memory budgets — [`QueryRequest::memory_budget`] runs
//!   the resource governor's coarsening ladder
//!   ([`plan_bins`]) against the snapshot's
//!   grid and serves a degraded, coarser answer
//!   ([`BinArray::coarsened`]) instead of refusing service outright.
//! * `ResultCache` — an LRU keyed by `(epoch, group, thresholds,
//!   cluster config, coarsening)`. Repeated lattice points across users
//!   are free; because the epoch is part of the key, a snapshot swap can
//!   never serve a stale entry even if active invalidation is faulted.
//!
//! Inside that envelope the query itself is `answer`, the one query
//! body of the crate: mine through the snapshot's [`OccupancyIndex`],
//! then, for clustered queries, set the mined cells in a bitmap, smooth
//! it and BitOp-cluster it. [`Session`](crate::session::Session) calls
//! the same function, so a session and a server asked the same question
//! answer it the same way by construction.
//!
//! # Failpoints
//!
//! The serving paths are threaded with named failpoints (active under the
//! `failpoints` feature — see [`crate::faults`]): `serve.swap`,
//! `serve.swap-publish`, `serve.admission`, `serve.worker`,
//! `serve.cache-insert`, and `serve.cache-invalidate`. The chaos suite
//! (`tests/serve_chaos.rs`) replays schedules over them while concurrent
//! readers assert bit-identical results against a sequential oracle.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use crate::binarray::BinArray;
use crate::bitop::{self, BitOpConfig, ClusterStats};
use crate::budget::{plan_bins, BinPlan};
use crate::cluster::Rect;
use crate::engine::{self, BinnedRule, Thresholds};
use crate::error::{panic_message, ArcsError};
use crate::faults;
use crate::grid::Grid;
use crate::index::OccupancyIndex;
use crate::metrics::{PipelineCounters, PipelineReport};
use crate::smooth::{smooth, SmoothConfig};

/// Locks a mutex, tolerating poisoning: serving state is a set of
/// counters and maps that remain internally consistent even when a
/// holder panicked (every critical section is short and transactional).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One immutable, epoch-stamped view of the binned data: the array, its
/// occupancy index (built once, shared by every reader of the epoch), and
/// the array checksum for torn-read auditing.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    array: Arc<BinArray>,
    index: Arc<OccupancyIndex>,
    checksum: u64,
}

impl Snapshot {
    fn build(epoch: u64, array: BinArray) -> Self {
        let checksum = array.checksum();
        let index = Arc::new(OccupancyIndex::build(&array));
        Snapshot {
            epoch,
            array: Arc::new(array),
            index,
            checksum,
        }
    }

    /// The snapshot's epoch (0 for the store's initial array, +1 per swap).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable bin array of this epoch.
    pub fn array(&self) -> &Arc<BinArray> {
        &self.array
    }

    /// The occupancy index over [`array`](Snapshot::array), built once at
    /// publish time and valid forever (the array is immutable).
    pub fn index(&self) -> &OccupancyIndex {
        &self.index
    }

    /// Checksum of the array at publish time. Because the array is
    /// immutable, any later mismatch would prove a torn read; the chaos
    /// suite asserts it never happens.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// Epoch-versioned snapshot store with copy-on-write swap.
///
/// Readers call [`current`](SnapshotStore::current) and keep the returned
/// `Arc` for the duration of their request — they are never blocked or
/// invalidated by a concurrent swap. Writers serialise on an internal
/// mutex, clone the current array, merge their delta, and publish the
/// result under the next epoch. A failure anywhere before publication
/// (merge error, injected fault, allocation failure) leaves the current
/// epoch untouched.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    /// Serialises writers; readers never take it.
    writer: Mutex<()>,
    swaps: AtomicU64,
}

impl SnapshotStore {
    /// Creates a store holding `array` as epoch 0.
    pub fn new(array: BinArray) -> Self {
        Self::with_epoch(array, 0)
    }

    /// Creates a store holding `array` as an explicit starting epoch —
    /// the recovery path: a daemon restoring a tenant from checkpoint +
    /// WAL replay must resume the epoch sequence where the crashed
    /// process left it, so recovered query results (which carry the
    /// epoch) stay bit-identical to an uninterrupted run.
    pub fn with_epoch(array: BinArray, epoch: u64) -> Self {
        SnapshotStore {
            current: RwLock::new(Arc::new(Snapshot::build(epoch, array))),
            writer: Mutex::new(()),
            swaps: AtomicU64::new(0),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone under a read lock
    /// held for nanoseconds); the returned snapshot stays valid for as
    /// long as the caller holds it, across any number of swaps.
    pub fn current(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Number of snapshot swaps published since construction.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Merges `delta` into a copy of the current array and publishes the
    /// result as the next epoch, returning the new snapshot. In-flight
    /// readers of older epochs are unaffected. On any error (dimension
    /// mismatch, counter overflow, injected fault) the store still holds
    /// the previous epoch — a failed swap is invisible to readers.
    pub fn append(&self, delta: &BinArray) -> Result<Arc<Snapshot>, ArcsError> {
        let _writer = lock(&self.writer);
        faults::check("serve.swap")?;
        let base = self.current();
        let mut merged = (*base.array).clone();
        merged.merge(delta)?;
        let next = Arc::new(Snapshot::build(base.epoch + 1, merged));
        // The last faultable point before publication: an injected error
        // here models a crash after the merge but before the swap — the
        // old epoch must remain served.
        faults::check("serve.swap-publish")?;
        *self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = next.clone();
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(next)
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    queued: usize,
}

/// A bounded-concurrency admission gate: at most `max_inflight` permits
/// out at once, at most `max_queued` callers waiting. A request that
/// finds both full is shed immediately with [`ArcsError::Overloaded`]; a
/// queued request whose deadline passes fails with
/// [`ArcsError::DeadlineExceeded`]. Built on `Mutex` + `Condvar` only.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    available: Condvar,
    max_inflight: usize,
    max_queued: usize,
}

/// An admission permit. Dropping it releases the in-flight slot and wakes
/// one queued waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.gate.state);
        st.inflight = st.inflight.saturating_sub(1);
        drop(st);
        self.gate.available.notify_one();
    }
}

impl AdmissionGate {
    /// A gate with `max_inflight` concurrent permits (≥ 1) and room for
    /// `max_queued` waiting requests (0 = shed as soon as slots fill).
    pub fn new(max_inflight: usize, max_queued: usize) -> Result<Self, ArcsError> {
        if max_inflight == 0 {
            return Err(ArcsError::InvalidConfig(
                "admission gate needs at least one in-flight slot".into(),
            ));
        }
        Ok(AdmissionGate {
            state: Mutex::new(GateState::default()),
            available: Condvar::new(),
            max_inflight,
            max_queued,
        })
    }

    /// Requests admission, waiting in the bounded queue (up to `deadline`,
    /// when given) for a slot. Returns a [`Permit`] that must be held for
    /// the duration of the request.
    pub fn admit(&self, deadline: Option<Instant>) -> Result<Permit<'_>, ArcsError> {
        faults::check("serve.admission")?;
        let mut st = lock(&self.state);
        if st.inflight < self.max_inflight {
            st.inflight += 1;
            return Ok(Permit { gate: self });
        }
        if st.queued >= self.max_queued {
            return Err(ArcsError::Overloaded {
                inflight: st.inflight,
                queued: st.queued,
            });
        }
        st.queued += 1;
        loop {
            // Deadline first: a request admitted with an already-expired
            // deadline fails deterministically without ever sleeping.
            let remaining = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(r) if !r.is_zero() => Some(r),
                    _ => {
                        st.queued -= 1;
                        return Err(ArcsError::DeadlineExceeded {
                            stage: "serve.admission",
                        });
                    }
                },
            };
            st = match remaining {
                None => self
                    .available
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
                Some(r) => {
                    self.available
                        .wait_timeout(st, r)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
            };
            if st.inflight < self.max_inflight {
                st.queued -= 1;
                st.inflight += 1;
                return Ok(Permit { gate: self });
            }
        }
    }

    /// Requests currently holding permits.
    pub fn inflight(&self) -> usize {
        lock(&self.state).inflight
    }

    /// Requests currently waiting in the queue.
    pub fn queued(&self) -> usize {
        lock(&self.state).queued
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// Exact cache key of one query outcome. The epoch is part of the key, so
/// entries of superseded snapshots can never be returned for a current
/// request — active invalidation (on swap) only reclaims their memory.
/// Threshold floats are keyed by bit pattern; the cluster configuration by
/// its canonical encoding ([`ClusterSpec::cache_token`]) — the same bytes
/// the wire protocol carries, so cache identity and wire payloads cannot
/// drift. The token excludes the thread count: results are bit-identical
/// at any thread count, so two requests differing only in threads share
/// one entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    gk: u32,
    support_bits: u64,
    confidence_bits: u64,
    /// [`ClusterSpec::cache_token`] of the request's cluster spec, or
    /// empty for mine-only queries. Exact string equality — no hashing
    /// collisions can alias two different configurations.
    cluster: String,
    coarsening_steps: u32,
}

impl CacheKey {
    fn new(epoch: u64, request: &QueryRequest, plan: &BinPlan) -> Self {
        CacheKey {
            epoch,
            gk: request.gk,
            support_bits: request.thresholds.min_support.to_bits(),
            confidence_bits: request.thresholds.min_confidence.to_bits(),
            cluster: request
                .cluster
                .as_ref()
                .map(ClusterSpec::cache_token)
                .unwrap_or_default(),
            coarsening_steps: plan.coarsening_steps,
        }
    }
}

#[derive(Debug)]
struct CacheEntry {
    value: Arc<QueryResult>,
    last_used: u64,
}

/// A small LRU over query results. Capacity 0 disables caching entirely.
/// Eviction scans for the least-recently-used entry — capacities are
/// bounded and small, so O(capacity) eviction beats the bookkeeping of an
/// intrusive list in a std-only build.
#[derive(Debug)]
struct ResultCache {
    map: HashMap<CacheKey, CacheEntry>,
    capacity: usize,
    tick: u64,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            map: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<QueryResult>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.last_used = tick;
            entry.value.clone()
        })
    }

    fn insert(&mut self, key: CacheKey, value: Arc<QueryResult>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        let tick = self.tick;
        self.map.insert(key, CacheEntry { value, last_used: tick });
    }

    /// Drops every entry older than `epoch`, returning how many were
    /// reclaimed.
    fn invalidate_before(&mut self, epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|key, _| key.epoch >= epoch);
        before - self.map.len()
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

// ---------------------------------------------------------------------------
// Requests, responses, configuration
// ---------------------------------------------------------------------------

/// Smoothing plus clustering configuration for queries that want decoded
/// cluster rectangles, not just rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterSpec {
    /// Low-pass smoothing applied to the rule grid before clustering.
    pub smoothing: SmoothConfig,
    /// BitOp clustering configuration.
    pub bitop: BitOpConfig,
}

/// One serving request: re-mine (and optionally re-cluster) the current
/// snapshot for a criterion group at explicit thresholds, under an
/// optional deadline and memory budget.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Criterion group code to mine.
    pub gk: u32,
    /// Support/confidence thresholds.
    pub thresholds: Thresholds,
    /// When set, also smooth + cluster the rule grid.
    pub cluster: Option<ClusterSpec>,
    /// Per-request deadline, overriding [`ServeConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Per-request memory budget in bytes: when the snapshot's grid
    /// exceeds it, the coarsening ladder serves a degraded (coarser)
    /// answer; a budget below even the coarsest useful grid refuses with
    /// [`ArcsError::BudgetExceeded`].
    pub memory_budget: Option<usize>,
}

impl QueryRequest {
    /// A mine-only request for group `gk` at `thresholds`.
    pub fn new(gk: u32, thresholds: Thresholds) -> Self {
        QueryRequest {
            gk,
            thresholds,
            cluster: None,
            deadline: None,
            memory_budget: None,
        }
    }

    /// Also smooth + cluster with `spec`.
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cluster = Some(spec);
        self
    }

    /// Sets the per-request deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-request memory budget in bytes.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }
}

/// The (cacheable, immutable) outcome of one query computation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Epoch of the snapshot the result was computed against.
    pub epoch: u64,
    /// Rules mined at the request's thresholds.
    pub rules: Vec<BinnedRule>,
    /// Cluster rectangles, when the request asked for clustering.
    pub clusters: Option<Vec<Rect>>,
    /// Coarsening steps the per-request memory budget forced (0 = the
    /// full-resolution grid was served).
    pub coarsening_steps: u32,
}

impl QueryResult {
    /// `true` when the memory budget forced a coarser grid than the
    /// snapshot holds.
    pub fn degraded(&self) -> bool {
        self.coarsening_steps > 0
    }
}

/// A served response: the (possibly cached) result plus per-request
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The result, shared with the cache.
    pub result: Arc<QueryResult>,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Panic-isolation retries this request needed (0 in healthy runs).
    pub retries: u32,
    /// Wall-clock time from arrival to response.
    pub elapsed: Duration,
}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent requests allowed past the admission gate (≥ 1).
    pub max_inflight: usize,
    /// Requests allowed to wait for admission before shedding starts.
    pub max_queued: usize,
    /// Deadline applied to requests that set none (`None` = unbounded).
    pub default_deadline: Option<Duration>,
    /// Retries after an isolated worker panic before the request fails
    /// with [`ArcsError::WorkerPanicked`].
    pub max_retries: u32,
    /// Base backoff before the first retry; doubled per subsequent retry.
    /// `Duration::ZERO` disables backoff sleeping (useful in tests).
    pub retry_backoff: Duration,
    /// Result-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_inflight: crate::metrics::default_threads().max(2),
            max_queued: 64,
            default_deadline: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            cache_capacity: 256,
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Atomic tallies of the server's lifetime, readable without locking.
#[derive(Debug, Default)]
struct ServeCounters {
    admitted: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    completed: AtomicU64,
    retries: AtomicU64,
    worker_panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rules_emitted: AtomicU64,
    cells_visited: AtomicU64,
    budget_coarsening_steps: AtomicU64,
}

/// A point-in-time view of the server's health and workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Current snapshot epoch.
    pub epoch: u64,
    /// Requests currently executing.
    pub inflight: usize,
    /// Requests currently queued for admission.
    pub queued: usize,
    /// Requests admitted so far.
    pub admitted: u64,
    /// Requests shed with [`ArcsError::Overloaded`].
    pub shed: u64,
    /// Requests failed with [`ArcsError::DeadlineExceeded`].
    pub timed_out: u64,
    /// Requests completed successfully (cache hits included).
    pub completed: u64,
    /// Panic-isolation retries across all requests.
    pub retries: u64,
    /// Worker panics caught by the isolation layer.
    pub worker_panics: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Entries currently held by the result cache.
    pub cache_len: usize,
    /// Snapshot swaps published.
    pub snapshot_swaps: u64,
}

impl ServerStats {
    /// Cache hits as a fraction of cache lookups (0 when none happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// The concurrent serving core: an immutable-snapshot store, an admission
/// gate, a result cache, and the per-request robustness envelope
/// (deadline, budget ladder, panic isolation). All methods take `&self`;
/// share a server across threads with `Arc<Server>`.
#[derive(Debug)]
pub struct Server {
    store: SnapshotStore,
    gate: AdmissionGate,
    cache: Mutex<ResultCache>,
    config: ServeConfig,
    counters: ServeCounters,
}

impl Server {
    /// Creates a server holding `array` as its epoch-0 snapshot.
    pub fn new(array: BinArray, config: ServeConfig) -> Result<Self, ArcsError> {
        Self::recovered(array, 0, config)
    }

    /// Creates a server holding `array` at an explicit starting epoch —
    /// used by durable recovery to resume the epoch sequence after a
    /// checkpoint + WAL replay (see [`SnapshotStore::with_epoch`]).
    pub fn recovered(array: BinArray, epoch: u64, config: ServeConfig) -> Result<Self, ArcsError> {
        let gate = AdmissionGate::new(config.max_inflight, config.max_queued)?;
        Ok(Server {
            store: SnapshotStore::with_epoch(array, epoch),
            gate,
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            config,
            counters: ServeCounters::default(),
        })
    }

    /// The snapshot store (for direct epoch inspection).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The admission gate (for inspection and deterministic tests).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.current()
    }

    /// Merges a delta bin array into a new copy-on-write snapshot and
    /// invalidates superseded cache entries. Returns the new epoch. On
    /// error the previous snapshot remains current and the cache is
    /// untouched.
    ///
    /// If the post-swap cache invalidation is faulted (failpoint
    /// `serve.cache-invalidate`), superseded entries are left behind:
    /// they are unreachable (the epoch is part of every cache key), so
    /// this degrades memory reclamation, never correctness.
    pub fn append(&self, delta: &BinArray) -> Result<u64, ArcsError> {
        let next = self.store.append(delta)?;
        if faults::check("serve.cache-invalidate").is_ok() {
            lock(&self.cache).invalidate_before(next.epoch);
        }
        Ok(next.epoch)
    }

    /// Serves a canonical [`Request`](crate::request::Request): resolves
    /// its group reference against `labels` (the criterion attribute's
    /// labels in code order), lowers it to a [`QueryRequest`], and runs
    /// [`query`](Server::query). This is the entry point the daemon and
    /// CLI share — one request shape across library, wire, and CLI.
    pub fn query_unified(
        &self,
        request: &crate::request::Request,
        labels: &[String],
    ) -> Result<QueryResponse, ArcsError> {
        self.query(&request.to_query_request(labels)?)
    }

    /// Serves one request end to end: admission → cache lookup →
    /// (mine [→ smooth → cluster]) under panic isolation → cache fill.
    /// Every failure mode is a typed [`ArcsError`]; panics never escape.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, ArcsError> {
        let start = Instant::now();
        let deadline = request
            .deadline
            .or(self.config.default_deadline)
            .map(|budget| start + budget);

        let permit = match self.gate.admit(deadline) {
            Ok(permit) => permit,
            Err(err) => {
                match &err {
                    ArcsError::Overloaded { .. } => {
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    }
                    ArcsError::DeadlineExceeded { .. } => {
                        self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                return Err(err);
            }
        };
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        // Held (and released on every return path) for the request's
        // entire execution, including retries.
        let _permit = permit;

        let snapshot = self.store.current();
        let plan = plan_bins(
            snapshot.array().nx(),
            snapshot.array().ny(),
            snapshot.array().nseg(),
            request.memory_budget,
        )?;
        let key = CacheKey::new(snapshot.epoch(), request, &plan);
        if let Some(hit) = lock(&self.cache).get(&key) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(QueryResponse {
                result: hit,
                cache_hit: true,
                retries: 0,
                elapsed: start.elapsed(),
            });
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);

        let mut retries = 0u32;
        let (result, visited) = loop {
            self.check_deadline(deadline, "serve.execute")?;
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                Self::execute(&snapshot, request, &plan, deadline)
            }));
            match attempt {
                Ok(Ok(outcome)) => break outcome,
                Ok(Err(err)) => {
                    // Typed errors are deterministic: retrying cannot
                    // change the outcome, so surface them immediately.
                    if matches!(err, ArcsError::DeadlineExceeded { .. }) {
                        self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(err);
                }
                Err(payload) => {
                    self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                    if retries >= self.config.max_retries {
                        return Err(ArcsError::WorkerPanicked {
                            stage: "serving query",
                            message: panic_message(payload),
                        });
                    }
                    retries += 1;
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(retries, deadline)?;
                }
            }
        };

        self.counters
            .rules_emitted
            .fetch_add(result.rules.len() as u64, Ordering::Relaxed);
        self.counters
            .cells_visited
            .fetch_add(visited, Ordering::Relaxed);
        self.counters
            .budget_coarsening_steps
            .fetch_add(plan.coarsening_steps as u64, Ordering::Relaxed);

        let result = Arc::new(result);
        if faults::check("serve.cache-insert").is_ok() {
            lock(&self.cache).insert(key, result.clone());
        }
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        Ok(QueryResponse {
            result,
            cache_hit: false,
            retries,
            elapsed: start.elapsed(),
        })
    }

    /// The query body under the serving envelope: coarsen under the
    /// budget plan if needed, then [`answer`]. Runs inside
    /// `catch_unwind`.
    fn execute(
        snapshot: &Snapshot,
        request: &QueryRequest,
        plan: &BinPlan,
        deadline: Option<Instant>,
    ) -> Result<(QueryResult, u64), ArcsError> {
        faults::check("serve.worker")?;
        // The budget ladder: serve a coarser grid rather than refuse. The
        // coarsened index is per-request scratch; repeated budgeted
        // queries hit the cache (coarsening is part of the key).
        let coarse = if plan.degraded() {
            Some(OccupancyIndex::build(
                &snapshot.array().coarsened(plan.nx, plan.ny)?,
            ))
        } else {
            None
        };
        let index = coarse.as_ref().unwrap_or(snapshot.index());
        let answer = answer(
            index,
            request.gk,
            request.thresholds,
            request.cluster.as_ref(),
            deadline,
        )?;
        Ok((
            QueryResult {
                epoch: snapshot.epoch(),
                rules: answer.rules,
                clusters: answer.clusters,
                coarsening_steps: plan.coarsening_steps,
            },
            answer.cells_visited,
        ))
    }

    fn check_deadline(
        &self,
        deadline: Option<Instant>,
        stage: &'static str,
    ) -> Result<(), ArcsError> {
        if let Err(err) = check_deadline_at(deadline, stage) {
            self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            return Err(err);
        }
        Ok(())
    }

    /// Sleeps the exponential backoff before retry `attempt` (1-based),
    /// clamped to the deadline: when the backoff cannot complete before
    /// the deadline, fail now with the typed error instead of sleeping
    /// past it.
    fn backoff(&self, attempt: u32, deadline: Option<Instant>) -> Result<(), ArcsError> {
        let base = self.config.retry_backoff;
        if base.is_zero() {
            return Ok(());
        }
        let factor = 1u32 << (attempt - 1).min(16);
        let pause = base.saturating_mul(factor);
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            if pause >= remaining {
                self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(ArcsError::DeadlineExceeded {
                    stage: "serve.retry-backoff",
                });
            }
        }
        std::thread::sleep(pause);
        Ok(())
    }

    /// A point-in-time stats snapshot (gauges plus lifetime tallies).
    pub fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            epoch: self.store.current().epoch(),
            inflight: self.gate.inflight(),
            queued: self.gate.queued(),
            admitted: c.admitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            cache_len: lock(&self.cache).len(),
            snapshot_swaps: self.store.swaps(),
        }
    }

    /// The server's lifetime stats rendered through the pipeline's
    /// standard observability report (`--stats json`, CI schema).
    pub fn report(&self) -> PipelineReport {
        let s = self.stats();
        let c = &self.counters;
        let counters = PipelineCounters {
            tuples_binned: self.store.current().array().n_tuples(),
            rules_emitted: c.rules_emitted.load(Ordering::Relaxed),
            cells_visited: c.cells_visited.load(Ordering::Relaxed),
            worker_panics: s.worker_panics,
            budget_coarsening_steps: c.budget_coarsening_steps.load(Ordering::Relaxed),
            requests_admitted: s.admitted,
            requests_shed: s.shed,
            requests_timed_out: s.timed_out,
            request_retries: s.retries,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            snapshot_swaps: s.snapshot_swaps,
            ..PipelineCounters::default()
        };
        PipelineReport {
            counters,
            threads: self.config.max_inflight,
            ..PipelineReport::default()
        }
    }
}

// ---------------------------------------------------------------------------
// The query body
// ---------------------------------------------------------------------------

/// What [`answer`] computes for one query: the mined rules, the clusters
/// when a [`ClusterSpec`] was given, and the work counters its callers
/// fold into their own reports.
#[derive(Debug)]
pub(crate) struct Answer {
    /// Rules mined at the query's thresholds, in row-major cell order.
    pub rules: Vec<BinnedRule>,
    /// BitOp clusters of the smoothed rule bitmap, when asked for.
    pub clusters: Option<Vec<Rect>>,
    /// Indexed cells the miner examined.
    pub cells_visited: u64,
    /// BitOp's work counters (all zero without clustering).
    pub cluster_stats: ClusterStats,
}

/// The one query body (paper §3.2) behind [`Server::query`] and the
/// session's `query`, `remine_group` and `recluster_group`: mine group
/// `gk` at `thresholds` through `index`, and, given a `cluster` spec, set
/// the mined rules' cells in a bitmap, smooth it and BitOp-cluster it.
/// The bitmap holds exactly the cells [`rule_grid`](engine::rule_grid)
/// would set, taken from the rules already in hand instead of a second
/// `nx · ny` scan. `deadline` is checked before mining (`serve.mine`)
/// and before clustering (`serve.cluster`); the `engine.mine` failpoint
/// guards the bitmap build.
pub(crate) fn answer(
    index: &OccupancyIndex,
    gk: u32,
    thresholds: Thresholds,
    cluster: Option<&ClusterSpec>,
    deadline: Option<Instant>,
) -> Result<Answer, ArcsError> {
    check_deadline_at(deadline, "serve.mine")?;
    let (rules, cells_visited) = engine::mine_rules_indexed(index, gk, thresholds);
    let (clusters, cluster_stats) = match cluster {
        None => (None, ClusterStats::default()),
        Some(spec) => {
            check_deadline_at(deadline, "serve.cluster")?;
            faults::check("engine.mine")?;
            let cells = rules.iter().map(|r| (r.x, r.y));
            let grid = Grid::from_cells(index.nx(), index.ny(), cells)?;
            let smoothed = smooth(&grid, &spec.smoothing)?;
            let (rects, stats) = bitop::cluster_with_stats(&smoothed, &spec.bitop)?;
            (Some(rects), stats)
        }
    };
    Ok(Answer {
        rules,
        clusters,
        cells_visited,
        cluster_stats,
    })
}

fn check_deadline_at(deadline: Option<Instant>, stage: &'static str) -> Result<(), ArcsError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(ArcsError::DeadlineExceeded { stage }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mine_rules;

    /// 4x4 array, 2 groups — small enough that oracle mining is trivial.
    fn demo_array() -> BinArray {
        let mut ba = BinArray::new(4, 4, 2).unwrap();
        for _ in 0..40 {
            ba.add(0, 0, 0);
        }
        for _ in 0..10 {
            ba.add(0, 0, 1);
        }
        for _ in 0..45 {
            ba.add(1, 0, 0);
        }
        for _ in 0..5 {
            ba.add(1, 0, 1);
        }
        for _ in 0..5 {
            ba.add(2, 2, 0);
        }
        for _ in 0..95 {
            ba.add(2, 2, 1);
        }
        for _ in 0..10 {
            ba.add(3, 3, 0);
        }
        ba // N = 210
    }

    /// A delta landing new mass in a previously-empty cell.
    fn demo_delta() -> BinArray {
        let mut delta = BinArray::new(4, 4, 2).unwrap();
        for _ in 0..30 {
            delta.add(3, 0, 0);
        }
        delta
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            max_inflight: 2,
            max_queued: 2,
            retry_backoff: Duration::ZERO,
            ..ServeConfig::default()
        }
    }

    fn thresholds(s: f64, c: f64) -> Thresholds {
        Thresholds::new(s, c).unwrap()
    }

    #[test]
    fn snapshot_store_swaps_epochs_without_disturbing_readers() {
        let store = SnapshotStore::new(demo_array());
        let before = store.current();
        assert_eq!(before.epoch(), 0);

        let next = store.append(&demo_delta()).unwrap();
        assert_eq!(next.epoch(), 1);
        assert_eq!(store.swaps(), 1);
        assert_eq!(store.current().epoch(), 1);

        // The reader's old snapshot is untouched: same object, same
        // checksum, delta not visible.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.array().checksum(), before.checksum());
        assert_eq!(before.array().cell_total(3, 0), 0);
        assert_eq!(next.array().cell_total(3, 0), 30);
        assert_eq!(next.array().n_tuples(), 240);
    }

    #[test]
    fn snapshot_store_rejects_mismatched_deltas_without_swapping() {
        let store = SnapshotStore::new(demo_array());
        let bad = BinArray::new(3, 3, 2).unwrap();
        assert!(store.append(&bad).is_err());
        assert_eq!(store.current().epoch(), 0);
        assert_eq!(store.swaps(), 0);
    }

    #[test]
    fn gate_sheds_when_slots_and_queue_are_full() {
        let gate = AdmissionGate::new(1, 0).unwrap();
        let held = gate.admit(None).unwrap();
        assert_eq!(gate.inflight(), 1);
        let err = gate.admit(None).unwrap_err();
        assert!(
            matches!(err, ArcsError::Overloaded { inflight: 1, queued: 0 }),
            "{err:?}"
        );
        drop(held);
        assert_eq!(gate.inflight(), 0);
        let reacquired = gate.admit(None).unwrap();
        drop(reacquired);
    }

    #[test]
    fn gate_times_out_queued_requests_with_expired_deadlines() {
        let gate = AdmissionGate::new(1, 4).unwrap();
        let held = gate.admit(None).unwrap();
        // The deadline is already expired when the request queues: the
        // gate must fail it deterministically, without sleeping.
        let err = gate.admit(Some(Instant::now())).unwrap_err();
        assert!(
            matches!(err, ArcsError::DeadlineExceeded { stage: "serve.admission" }),
            "{err:?}"
        );
        assert_eq!(gate.queued(), 0, "timed-out waiter must leave the queue");
        drop(held);
    }

    #[test]
    fn gate_requires_a_slot() {
        assert!(AdmissionGate::new(0, 4).is_err());
    }

    #[test]
    fn query_matches_sequential_mining() {
        let array = demo_array();
        let server = Server::new(array.clone(), test_config()).unwrap();
        for (s, c) in [(0.0, 0.0), (0.1, 0.5), (0.04, 0.0), (1.0, 1.0)] {
            let t = thresholds(s, c);
            let resp = server.query(&QueryRequest::new(0, t)).unwrap();
            assert_eq!(resp.result.rules, mine_rules(&array, 0, t), "({s}, {c})");
            assert_eq!(resp.result.epoch, 0);
            assert_eq!(resp.retries, 0);
            assert!(!resp.result.degraded());
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let server = Server::new(demo_array(), test_config()).unwrap();
        let request = QueryRequest::new(0, thresholds(0.1, 0.5));
        let first = server.query(&request).unwrap();
        assert!(!first.cache_hit);
        let second = server.query(&request).unwrap();
        assert!(second.cache_hit);
        // The cached Arc is the same allocation, not a recomputation.
        assert!(Arc::ptr_eq(&first.result, &second.result));
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn swap_invalidates_cache_and_changes_results() {
        let server = Server::new(demo_array(), test_config()).unwrap();
        let request = QueryRequest::new(0, thresholds(0.1, 0.5));
        let before = server.query(&request).unwrap();
        assert_eq!(server.stats().cache_len, 1);

        let epoch = server.append(&demo_delta()).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(server.stats().cache_len, 0, "swap must invalidate");

        let after = server.query(&request).unwrap();
        assert!(!after.cache_hit, "epoch is part of the cache key");
        assert_eq!(after.result.epoch, 1);
        // The appended mass shifts supports (N changed), so the result
        // genuinely reflects the new snapshot.
        let merged = {
            let mut m = demo_array();
            m.merge(&demo_delta()).unwrap();
            m
        };
        assert_eq!(after.result.rules, mine_rules(&merged, 0, request.thresholds));
        assert_ne!(before.result.rules, after.result.rules);
    }

    #[test]
    fn clustered_queries_return_rectangles() {
        let server = Server::new(demo_array(), test_config()).unwrap();
        let request = QueryRequest::new(0, thresholds(0.0, 0.5)).cluster(ClusterSpec {
            smoothing: SmoothConfig::disabled(),
            bitop: BitOpConfig::no_pruning(),
        });
        let resp = server.query(&request).unwrap();
        let clusters = resp.result.clusters.as_ref().unwrap();
        assert!(!clusters.is_empty());
        // Mine-only and clustered requests key separately.
        let mine_only = server.query(&QueryRequest::new(0, thresholds(0.0, 0.5))).unwrap();
        assert!(!mine_only.cache_hit);
        assert!(mine_only.result.clusters.is_none());
    }

    #[test]
    fn expired_deadlines_fail_typed_before_any_work() {
        let server = Server::new(demo_array(), test_config()).unwrap();
        let request = QueryRequest::new(0, thresholds(0.0, 0.0)).deadline(Duration::ZERO);
        let err = server.query(&request).unwrap_err();
        assert!(matches!(err, ArcsError::DeadlineExceeded { .. }), "{err:?}");
        let stats = server.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.inflight, 0, "permit must be released");
    }

    #[test]
    fn server_sheds_queries_when_the_gate_is_full() {
        let config = ServeConfig { max_inflight: 1, max_queued: 0, ..test_config() };
        let server = Server::new(demo_array(), config).unwrap();
        // Deterministically occupy the only slot from the test thread.
        let held = server.gate().admit(None).unwrap();
        let err = server.query(&QueryRequest::new(0, thresholds(0.0, 0.0))).unwrap_err();
        assert!(matches!(err, ArcsError::Overloaded { .. }), "{err:?}");
        assert_eq!(server.stats().shed, 1);
        drop(held);
        // With the slot free the same query completes.
        assert!(server.query(&QueryRequest::new(0, thresholds(0.0, 0.0))).is_ok());
    }

    #[test]
    fn memory_budget_serves_a_degraded_coarser_answer() {
        // demo array: 4x4, 2 groups = 4*4*3*4 = 192 bytes. A 100-byte
        // budget forces halvings: (2,4)=96 bytes fits after one step.
        let server = Server::new(demo_array(), test_config()).unwrap();
        let request = QueryRequest::new(0, thresholds(0.0, 0.0)).memory_budget(100);
        let resp = server.query(&request).unwrap();
        assert!(resp.result.degraded());
        assert_eq!(resp.result.coarsening_steps, 1);
        // The degraded result matches sequential mining on the coarsened
        // array — the ladder changes resolution, never correctness.
        let coarse = demo_array().coarsened(2, 4).unwrap();
        assert_eq!(resp.result.rules, mine_rules(&coarse, 0, request.thresholds));

        // An impossible budget refuses admission with the typed error.
        let impossible = QueryRequest::new(0, thresholds(0.0, 0.0)).memory_budget(10);
        let err = server.query(&impossible).unwrap_err();
        assert!(matches!(err, ArcsError::BudgetExceeded { .. }), "{err:?}");

        // Budgeted and unbudgeted requests key separately in the cache.
        let full = server.query(&QueryRequest::new(0, thresholds(0.0, 0.0))).unwrap();
        assert!(!full.cache_hit);
        assert!(!full.result.degraded());
        // Re-issuing the budgeted request hits its own entry.
        let again = server.query(&request).unwrap();
        assert!(again.cache_hit);
        assert!(again.result.degraded());
    }

    #[test]
    fn lru_cache_evicts_the_oldest_entry() {
        let mut cache = ResultCache::new(2);
        let result = |epoch| {
            Arc::new(QueryResult {
                epoch,
                rules: Vec::new(),
                clusters: None,
                coarsening_steps: 0,
            })
        };
        let key = |support: u64| CacheKey {
            epoch: 0,
            gk: 0,
            support_bits: support,
            confidence_bits: 0,
            cluster: String::new(),
            coarsening_steps: 0,
        };
        cache.insert(key(1), result(0));
        cache.insert(key(2), result(0));
        assert!(cache.get(&key(1)).is_some()); // refresh 1 → 2 is oldest
        cache.insert(key(3), result(0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none(), "oldest entry must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());

        // Capacity 0 disables caching.
        let mut disabled = ResultCache::new(0);
        disabled.insert(key(1), result(0));
        assert_eq!(disabled.len(), 0);

        // Invalidation drops only superseded epochs.
        let mut cache = ResultCache::new(8);
        cache.insert(key(1), result(0));
        cache.insert(CacheKey { epoch: 5, ..key(2) }, result(5));
        assert_eq!(cache.invalidate_before(5), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn report_surfaces_serving_counters() {
        let server = Server::new(demo_array(), test_config()).unwrap();
        let request = QueryRequest::new(0, thresholds(0.1, 0.5));
        server.query(&request).unwrap();
        server.query(&request).unwrap();
        server.append(&demo_delta()).unwrap();

        let report = server.report();
        let c = &report.counters;
        assert_eq!(c.requests_admitted, 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.snapshot_swaps, 1);
        assert_eq!(c.tuples_binned, 240);
        assert!(c.rules_emitted > 0);
        let json = report.to_json();
        for key in [
            "\"requests_admitted\":2",
            "\"requests_shed\":0",
            "\"requests_timed_out\":0",
            "\"request_retries\":0",
            "\"cache_hits\":1",
            "\"cache_misses\":1",
            "\"snapshot_swaps\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// Concurrency smoke: readers and a writer race through the public
    /// API; every completed response must be bit-identical to sequential
    /// mining on the exact snapshot epoch it was served from. Threads are
    /// joined unconditionally; no sleeps anywhere.
    #[test]
    fn concurrent_readers_see_consistent_epochs() {
        let server = Arc::new(Server::new(demo_array(), ServeConfig {
            max_inflight: 4,
            max_queued: 16,
            retry_backoff: Duration::ZERO,
            ..ServeConfig::default()
        }).unwrap());

        // Oracle arrays per epoch: epoch 0 plus 3 appended deltas.
        let mut oracles = vec![demo_array()];
        for _ in 0..3 {
            let mut next = oracles.last().unwrap().clone();
            next.merge(&demo_delta()).unwrap();
            oracles.push(next);
        }

        let barrier = Arc::new(std::sync::Barrier::new(5));
        let mut handles = Vec::new();
        for reader in 0..4 {
            let server = server.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut seen = Vec::new();
                for i in 0..20 {
                    let t = Thresholds::new(0.02 * ((i + reader) % 5) as f64, 0.0).unwrap();
                    let resp = server.query(&QueryRequest::new(0, t)).unwrap();
                    seen.push((resp.result.epoch, t, resp.result.rules.clone()));
                }
                seen
            }));
        }
        {
            let server = server.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..3 {
                    server.append(&demo_delta()).unwrap();
                }
                Vec::new()
            }));
        }
        for handle in handles {
            for (epoch, t, rules) in handle.join().unwrap() {
                let oracle = &oracles[epoch as usize];
                assert_eq!(rules, mine_rules(oracle, 0, t), "epoch {epoch}");
            }
        }
        assert_eq!(server.stats().snapshot_swaps, 3);
        assert_eq!(server.stats().epoch, 3);
    }
}
