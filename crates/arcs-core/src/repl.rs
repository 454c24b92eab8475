//! WAL-shipping replication: the transport-independent half.
//!
//! A primary `arcsd` streams encoded WAL records (see [`crate::wal`]) to
//! warm standbys over the wire; this module holds everything about that
//! stream that does not touch a socket:
//!
//! * **Shipped-record framing** — records travel as the exact encoded
//!   bytes [`wal::encode_record`] produces (length prefix + body +
//!   FNV-1a-64 checksum), hex-armored for the JSON wire protocol. The
//!   standby re-verifies the checksum with [`wal::decode_record`] before
//!   applying anything, so a record torn in flight is refused exactly
//!   like a record torn on disk.
//! * **[`ReplMetrics`]** — lock-free counters for the whole subsystem
//!   (records shipped/applied, gaps refused, re-syncs, heartbeats),
//!   foldable into [`PipelineCounters`] so replication shows up in the
//!   same `PipelineReport` JSON every other subsystem reports through.
//!
//! The daemon-side wiring (the tailer thread, the wire ops, promotion)
//! lives in `arcs-daemon`; the chaos harness drives both through the
//! `repl.*` failpoints catalogued in [`crate::faults`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::ArcsError;
use crate::metrics::PipelineCounters;
use crate::wal::{self, WalRecord};

/// One record as it travels the wire: the sequence number (redundantly
/// alongside the encoded body, so a batch can be skimmed without
/// decoding) and the exact encoded bytes from the primary's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedRecord {
    /// The record's WAL sequence number.
    pub seq: u64,
    /// [`wal::encode_record`] output: length prefix + body + checksum.
    pub bytes: Vec<u8>,
}

impl ShippedRecord {
    /// Packages a record for shipping from its already-decoded parts.
    pub fn encode(record: &WalRecord) -> ShippedRecord {
        ShippedRecord {
            seq: record.seq,
            bytes: wal::encode_record(record.seq, record.feeder_offset, &record.payload),
        }
    }

    /// Verifies and decodes the shipped bytes — checksum, framing, and
    /// agreement between the envelope `seq` and the encoded one. Any
    /// damage in flight is a typed error, never an applied record.
    pub fn decode(&self) -> Result<WalRecord, ArcsError> {
        let record = wal::decode_record(&self.bytes)?;
        if record.seq != self.seq {
            return Err(ArcsError::Checkpoint {
                message: format!(
                    "shipped WAL record: envelope seq {} disagrees with encoded seq {}",
                    self.seq, record.seq
                ),
            });
        }
        Ok(record)
    }

    /// Hex-armors the encoded bytes for the JSON wire protocol.
    pub fn to_hex(&self) -> String {
        to_hex(&self.bytes)
    }

    /// Rebuilds a shipped record from its wire form.
    pub fn from_hex(seq: u64, hex: &str) -> Result<ShippedRecord, ArcsError> {
        Ok(ShippedRecord { seq, bytes: from_hex(hex)? })
    }
}

/// Lowercase hex encoding (the offline build has no hex crate).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// Strict inverse of [`to_hex`]: even length, hex digits only.
pub fn from_hex(text: &str) -> Result<Vec<u8>, ArcsError> {
    let bad = |what: &str| ArcsError::Checkpoint { message: format!("shipped WAL record: {what}") };
    if !text.len().is_multiple_of(2) {
        return Err(bad("hex payload has odd length"));
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or_else(|| bad("non-hex digit in payload"))?;
        let lo = (pair[1] as char).to_digit(16).ok_or_else(|| bad("non-hex digit in payload"))?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

/// Lock-free counters for the replication subsystem. One instance lives
/// for the daemon's lifetime and is shared by the wire handlers (primary
/// side) and the tailer thread (standby side).
#[derive(Debug, Default)]
pub struct ReplMetrics {
    /// Records a primary handed to `repl.records` responses.
    pub records_shipped: AtomicU64,
    /// Records a standby verified and applied through its store.
    pub records_applied: AtomicU64,
    /// Shipped batches a standby refused because of a sequence gap or a
    /// failed checksum — refused batches are never partially applied
    /// beyond the valid prefix.
    pub gaps_refused: AtomicU64,
    /// Full checkpoint transfers a standby installed (bootstrap included).
    pub resyncs: AtomicU64,
    /// Heartbeat rounds served (primary) or completed (standby).
    pub heartbeats: AtomicU64,
}

impl ReplMetrics {
    /// A zeroed metrics block.
    pub fn new() -> ReplMetrics {
        ReplMetrics::default()
    }

    /// Adds `n` to a counter (relaxed; the counters are statistics, not
    /// synchronization).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time snapshot as plain numbers, in field order:
    /// shipped, applied, gaps refused, re-syncs, heartbeats.
    pub fn snapshot(&self) -> [u64; 5] {
        [
            self.records_shipped.load(Ordering::Relaxed),
            self.records_applied.load(Ordering::Relaxed),
            self.gaps_refused.load(Ordering::Relaxed),
            self.resyncs.load(Ordering::Relaxed),
            self.heartbeats.load(Ordering::Relaxed),
        ]
    }

    /// Folds the snapshot into a [`PipelineCounters`] so replication
    /// reports through the same `PipelineReport` JSON as every other
    /// subsystem.
    pub fn fold_into(&self, counters: &mut PipelineCounters) {
        let [shipped, applied, gaps, resyncs, heartbeats] = self.snapshot();
        counters.repl_records_shipped += shipped;
        counters.repl_records_applied += applied;
        counters.repl_gaps_refused += gaps;
        counters.repl_resyncs += resyncs;
        counters.repl_heartbeats += heartbeats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        for bytes in [&b""[..], &b"\x00\xffhello"[..], &[0xAB; 64][..]] {
            assert_eq!(from_hex(&to_hex(bytes)).unwrap(), bytes);
        }
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
    }

    #[test]
    fn shipped_records_survive_the_wire_form() {
        let record = WalRecord { seq: 9, feeder_offset: Some(4), payload: b"r,1,A\n".to_vec() };
        let shipped = ShippedRecord::encode(&record);
        let wire = shipped.to_hex();
        let back = ShippedRecord::from_hex(shipped.seq, &wire).unwrap();
        assert_eq!(back, shipped);
        assert_eq!(back.decode().unwrap(), record);

        // An envelope seq that disagrees with the encoded seq is refused.
        let lying = ShippedRecord { seq: 10, bytes: shipped.bytes.clone() };
        assert!(lying.decode().is_err());

        // A record torn in flight is refused by the checksum.
        let torn =
            ShippedRecord { seq: 9, bytes: shipped.bytes[..shipped.bytes.len() - 2].to_vec() };
        assert!(torn.decode().is_err());
    }

    #[test]
    fn metrics_fold_into_pipeline_counters() {
        let metrics = ReplMetrics::new();
        ReplMetrics::add(&metrics.records_shipped, 7);
        ReplMetrics::add(&metrics.records_applied, 5);
        ReplMetrics::add(&metrics.gaps_refused, 1);
        ReplMetrics::add(&metrics.resyncs, 2);
        ReplMetrics::add(&metrics.heartbeats, 3);

        let mut counters = PipelineCounters::default();
        metrics.fold_into(&mut counters);
        assert_eq!(counters.repl_records_shipped, 7);
        assert_eq!(counters.repl_records_applied, 5);
        assert_eq!(counters.repl_gaps_refused, 1);
        assert_eq!(counters.repl_resyncs, 2);
        assert_eq!(counters.repl_heartbeats, 3);
    }
}
