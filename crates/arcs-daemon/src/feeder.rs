//! Streaming-append feeder: tails a growing CSV file into periodic
//! copy-on-write `append` delta merges on a tenant.
//!
//! The feeder starts at the file's current end (classic `tail -f`
//! semantics: pre-existing rows are assumed to be the dataset the tenant
//! was built from) and polls on a fixed interval. Each tick consumes the
//! bytes present when it starts, keeps only *complete* lines (a
//! partially written last line stays buffered on disk until its newline
//! arrives), and merges them in batches of whole lines of at most
//! [`FEED_CHUNK_BYTES`] each: each batch is binned ([`bin_batch`]) and
//! its delta appended with [`Tenant::append_delta`]. A burst after
//! downtime therefore merges as several batches within one tick; the
//! budget bounds what a tick holds in memory.
//!
//! Failure model, per batch:
//! * **Injected fault** (`daemon.feeder-merge` failpoint) or **I/O
//!   error**: nothing more is consumed this tick; the same bytes are
//!   retried next tick.
//! * **Malformed batch**: the batch is rejected atomically, before
//!   anything is appended; the feeder *skips* it (advancing past the
//!   poison rows, counting them in [`FeederStats::batches_failed`])
//!   rather than retrying forever — a poison row must not wedge the
//!   feed. A single line longer than [`FEED_CHUNK_BYTES`] is skipped the
//!   same way once its newline has arrived.
//! * **Truncated file**: the offset resets to the new end; tailing
//!   resumes from there.
//!
//! On a **durable** tenant, each merged batch's post-batch byte offset
//! rides inside the tenant's WAL record (via [`Tenant::append_delta`])
//! and into every checkpoint, so a restarted daemon spawns the feeder
//! with [`Feeder::spawn_at`] at the last durable offset — never
//! re-reading from byte 0, never double-appending a batch that is
//! already in the log.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use arcs_core::faults;

use crate::registry::Tenant;
use crate::store::bin_batch;

/// Monotonic counters of a feeder's lifetime, readable while it runs.
#[derive(Debug, Default)]
pub struct FeederStats {
    /// Rows merged into the tenant.
    pub rows_merged: AtomicU64,
    /// Batches merged (snapshot swaps caused).
    pub batches_merged: AtomicU64,
    /// Batches rejected for malformed content and skipped.
    pub batches_failed: AtomicU64,
    /// Ticks retried after an injected fault or I/O error.
    pub retries: AtomicU64,
}

/// A running feeder thread.
#[derive(Debug)]
pub struct Feeder {
    stop: Arc<AtomicBool>,
    stats: Arc<FeederStats>,
    handle: JoinHandle<()>,
}

impl Feeder {
    /// Starts tailing `path` into `tenant` every `interval`, from the
    /// file's current end (classic `tail -f`: pre-existing rows are the
    /// tenant's epoch-0 data, not a delta).
    pub fn spawn(
        tenant: Arc<Tenant>,
        path: PathBuf,
        interval: Duration,
    ) -> std::io::Result<Feeder> {
        let offset = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Self::spawn_at(tenant, path, interval, offset)
    }

    /// Starts tailing `path` from an explicit byte `offset` — the
    /// restart path: the caller passes the last durable offset
    /// ([`crate::store::TenantStore::feeder_offset`]) so already-logged
    /// batches are never re-appended.
    pub fn spawn_at(
        tenant: Arc<Tenant>,
        path: PathBuf,
        interval: Duration,
        offset: u64,
    ) -> std::io::Result<Feeder> {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FeederStats::default());
        let mut offset = offset;

        let handle = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new().name("arcsd-feeder".into()).spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    offset = tick(&tenant, &path, offset, &stats);
                }
            })?
        };
        Ok(Feeder { stop, stats, handle })
    }

    /// The feeder's live counters.
    pub fn stats(&self) -> &FeederStats {
        &self.stats
    }

    /// Stops the tail loop and joins the thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.handle.join();
    }
}

/// Most bytes of whole lines merged as one batch: the most of the feed
/// file a tick holds in memory at once. A batch's WAL record holds its
/// binned delta, not these bytes, so the budget does not size a record.
pub const FEED_CHUNK_BYTES: usize = 1 << 20;

/// One poll: merge the complete lines present at the start of the tick,
/// a batch of at most [`FEED_CHUNK_BYTES`] at a time, returning the next
/// offset.
fn tick(tenant: &Tenant, path: &Path, mut offset: u64, stats: &FeederStats) -> u64 {
    let len = match std::fs::metadata(path) {
        Ok(meta) => meta.len(),
        Err(_) => {
            stats.retries.fetch_add(1, Ordering::Relaxed);
            return offset;
        }
    };
    if len < offset {
        // The file was truncated or replaced; resume tailing at its end.
        return len;
    }
    while offset < len {
        let want = ((len - offset) as usize).min(FEED_CHUNK_BYTES);
        let chunk = match read_from(path, offset, want) {
            Ok(bytes) => bytes,
            Err(_) => {
                stats.retries.fetch_add(1, Ordering::Relaxed);
                return offset;
            }
        };
        // Only complete lines: everything up to (and including) the last
        // newline. A mid-write tail stays on disk for the next tick.
        let next = match chunk.iter().rposition(|&b| b == b'\n') {
            Some(end) => merge(tenant, path, &chunk[..=end], offset, stats),
            None if chunk.len() < FEED_CHUNK_BYTES => None,
            None => skip_long_line(path, offset + chunk.len() as u64, len, stats),
        };
        match next {
            Some(next) => offset = next,
            None => break,
        }
    }
    offset
}

/// Merges one batch of whole lines that starts at `offset`, returning the
/// offset after it, or `None` when an injected fault leaves the batch for
/// the next tick.
fn merge(
    tenant: &Tenant,
    path: &Path,
    batch: &[u8],
    offset: u64,
    stats: &FeederStats,
) -> Option<u64> {
    let consumed = offset + batch.len() as u64;
    let Ok(batch) = std::str::from_utf8(batch) else {
        // Binary garbage can never parse; skip it rather than wedge.
        stats.batches_failed.fetch_add(1, Ordering::Relaxed);
        return Some(consumed);
    };
    if batch.bytes().all(|b| b == b'\n') {
        return Some(consumed);
    }
    if faults::check("daemon.feeder-merge").is_err() {
        // Injected fault: consume nothing, retry the identical batch.
        stats.retries.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    // Record the post-batch offset in the WAL (durable tenants): a
    // restarted feeder resumes exactly past the batches already logged.
    let merged = bin_batch(tenant.schema(), tenant.binner(), batch).and_then(|delta| {
        tenant.append_delta(&delta, Some(consumed))?;
        Ok(delta.n_tuples())
    });
    match merged {
        Ok(rows) => {
            stats.rows_merged.fetch_add(rows, Ordering::Relaxed);
            stats.batches_merged.fetch_add(1, Ordering::Relaxed);
        }
        Err(err) => {
            eprintln!("arcsd feeder: skipping bad batch from {}: {err}", path.display());
            stats.batches_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    Some(consumed)
}

/// Skips a line longer than [`FEED_CHUNK_BYTES`] whose first budget of
/// bytes ends at `from`: returns the offset past its newline, or `None`
/// while that newline has not arrived. Reads through a small buffer, so
/// the line is never held whole.
fn skip_long_line(path: &Path, from: u64, len: u64, stats: &FeederStats) -> Option<u64> {
    let end = File::open(path).and_then(|mut file| {
        file.seek(SeekFrom::Start(from))?;
        let mut reader = BufReader::new(file.take(len - from));
        let mut pos = from;
        loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                return Ok(None);
            }
            if let Some(i) = buf.iter().position(|&b| b == b'\n') {
                return Ok(Some(pos + i as u64 + 1));
            }
            let n = buf.len();
            pos += n as u64;
            reader.consume(n);
        }
    });
    match end {
        Ok(Some(end)) => {
            eprintln!(
                "arcsd feeder: skipping a line of more than {FEED_CHUNK_BYTES} bytes from {}",
                path.display()
            );
            stats.batches_failed.fetch_add(1, Ordering::Relaxed);
            Some(end)
        }
        Ok(None) => None,
        Err(_) => {
            stats.retries.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

fn read_from(path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    buf.truncate(filled);
    Ok(buf)
}
