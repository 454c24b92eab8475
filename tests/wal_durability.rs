//! Property suite for the write-ahead log codec and the checkpoint ⇄
//! replay contract (`arcs::core::wal`).
//!
//! The durability layer's whole safety argument rests on two claims:
//!
//! 1. **Scanning never panics and always yields a valid prefix.** No
//!    matter how the tail of a log was mangled — truncated mid-record by
//!    a crash, bit-flipped by rot, or overwritten with garbage —
//!    [`replay`] returns the longest whole-record prefix and classifies
//!    the rest; it never invents records and never panics.
//! 2. **Checkpoint + WAL replay is bit-identical to the direct state.**
//!    Folding a checkpointed array plus its surviving log records, each
//!    an append's delta array in its byte form, produces exactly the
//!    array you would get by binning every batch in order — same
//!    checksum, same epoch arithmetic.
//!
//! The checkpoint file itself must round-trip bit-identically, and any
//! truncation or single-byte flip of it must load as a typed error.
//!
//! Each property here attacks one of those claims with generated
//! inputs. Temp files carry the process id plus a per-test counter so
//! concurrent test binaries never collide.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;

use arcs::core::wal::{
    self, decode_checkpoint, encode_checkpoint, load_checkpoint, replay, save_checkpoint,
    CheckpointMeta, WalTail, WalWriter, WAL_HEADER_LEN,
};
use arcs::core::{ArcsError, BinArray, Binner};
use arcs::data::{Attribute, Schema};

/// A scratch file that deletes itself, so failed cases don't litter.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("arcs-waldur-{tag}-{}-{n}", std::process::id());
        TempFile(std::env::temp_dir().join(name))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Generated append: payload bytes plus an optional feeder offset.
type GenRecord = (Vec<u8>, u64, bool);

fn record_strategy() -> impl Strategy<Value = Vec<GenRecord>> {
    vec((vec(0u8..=255, 0..48), 0u64..1_000_000, any::<bool>()), 0..8)
}

fn feeder_offset(raw: u64, present: bool) -> Option<u64> {
    present.then_some(raw)
}

/// Writes `records` into a fresh log at `path`, returning the byte
/// length after each append (i.e. every record boundary).
fn write_log(path: &Path, start_seq: u64, records: &[GenRecord]) -> Vec<u64> {
    let mut writer = WalWriter::create(path, start_seq).expect("create WAL");
    let mut boundaries = vec![writer.len()];
    for (payload, raw, present) in records {
        writer.append(payload, feeder_offset(*raw, *present)).expect("append");
        boundaries.push(writer.len());
    }
    boundaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write → scan round-trip: every record comes back verbatim, in
    /// order, with contiguous sequence numbers from `start_seq`, and
    /// the tail is clean.
    #[test]
    fn codec_round_trips(records in record_strategy(), start_seq in 1u64..1000) {
        let file = TempFile::new("roundtrip");
        write_log(file.path(), start_seq, &records);

        let scan = replay(file.path()).expect("replay");
        prop_assert!(scan.tail.is_clean());
        prop_assert_eq!(scan.start_seq, start_seq);
        prop_assert_eq!(scan.records.len(), records.len());
        prop_assert_eq!(scan.next_seq, start_seq + records.len() as u64);
        for (i, rec) in scan.records.iter().enumerate() {
            let (payload, raw, present) = &records[i];
            prop_assert_eq!(rec.seq, start_seq + i as u64);
            prop_assert_eq!(&rec.payload, payload);
            prop_assert_eq!(rec.feeder_offset, feeder_offset(*raw, *present));
        }
    }

    /// Truncating the file at ANY byte — the torn-write crash model —
    /// recovers exactly the records whose encodings fit in the cut, and
    /// classifies the tail Clean at record boundaries, Torn otherwise.
    #[test]
    fn truncation_recovers_whole_record_prefix(
        records in record_strategy(),
        cut_frac in 0.0f64..=1.0,
    ) {
        let file = TempFile::new("trunc");
        let boundaries = write_log(file.path(), 1, &records);
        let full_len = *boundaries.last().unwrap();

        let cut = WAL_HEADER_LEN + ((full_len - WAL_HEADER_LEN) as f64 * cut_frac) as u64;
        let handle = std::fs::OpenOptions::new().write(true).open(file.path()).unwrap();
        handle.set_len(cut).unwrap();
        drop(handle);

        let scan = replay(file.path()).expect("replay after truncation");
        let expect_records = boundaries.iter().filter(|&&b| b > WAL_HEADER_LEN && b <= cut).count();
        prop_assert_eq!(scan.records.len(), expect_records);
        prop_assert_eq!(scan.valid_len, boundaries[expect_records]);
        if boundaries.contains(&cut) {
            prop_assert!(scan.tail.is_clean(), "cut at boundary {} not clean: {:?}", cut, scan.tail);
        } else {
            match &scan.tail {
                WalTail::Torn { valid_len, dropped_bytes } => {
                    prop_assert_eq!(*valid_len, boundaries[expect_records]);
                    prop_assert_eq!(*valid_len + *dropped_bytes, cut);
                }
                other => prop_assert!(false, "cut at {} classified {:?}", cut, other),
            }
        }
        // The healed prefix is a literal prefix of the original batches.
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(&rec.payload, &records[i].0);
        }
    }

    /// Flipping any single byte of the log never panics, and the scan
    /// still returns a prefix of the original records: corruption can
    /// lose data, never fabricate it.
    #[test]
    fn bit_flips_never_panic_and_yield_a_prefix(
        records in record_strategy(),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let file = TempFile::new("flip");
        write_log(file.path(), 1, &records);

        let mut bytes = std::fs::read(file.path()).unwrap();
        let pos = (bytes.len() as f64 * pos_frac) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(file.path(), &bytes).unwrap();

        // Flips inside the 16-byte file header may make the log
        // unattributable — a typed error, never a panic.
        let Ok(scan) = replay(file.path()) else { return Ok(()); };
        prop_assert!(scan.records.len() <= records.len());
        for (i, rec) in scan.records.iter().enumerate() {
            let (payload, raw, present) = &records[i];
            prop_assert_eq!(rec.seq, 1 + i as u64);
            prop_assert_eq!(&rec.payload, payload);
            prop_assert_eq!(rec.feeder_offset, feeder_offset(*raw, *present));
        }
        // A flip outside the header that survives is in a payload the
        // CRC must catch: the altered record cannot appear verbatim.
        if (pos as u64) >= WAL_HEADER_LEN && scan.tail.is_clean() {
            prop_assert_eq!(scan.records.len(), records.len());
        }
    }

    /// Overwriting the tail with pure garbage (not a truncation — extra
    /// bytes that were never a record) is classified, not trusted.
    #[test]
    fn garbage_tails_never_become_records(
        records in record_strategy(),
        garbage in vec(0u8..=255, 1..64),
    ) {
        let file = TempFile::new("garbage");
        write_log(file.path(), 1, &records);

        let mut bytes = std::fs::read(file.path()).unwrap();
        let clean_len = bytes.len() as u64;
        bytes.extend_from_slice(&garbage);
        std::fs::write(file.path(), &bytes).unwrap();

        let scan = replay(file.path()).expect("replay over garbage tail");
        prop_assert_eq!(scan.records.len(), records.len());
        prop_assert_eq!(scan.valid_len, clean_len);
        prop_assert!(!scan.tail.is_clean());
        prop_assert_eq!(scan.tail.valid_len(clean_len + garbage.len() as u64), clean_len);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint + replay == direct state
// ---------------------------------------------------------------------------

fn demo_schema() -> Schema {
    Schema::new(vec![
        Attribute::quantitative("x", 0.0, 10.0),
        Attribute::quantitative("y", 0.0, 10.0),
        Attribute::categorical("g", ["A", "B"]),
    ])
    .unwrap()
}

/// Bins one header-less CSV batch: the delta an append logs.
fn bin_batch(schema: &Schema, binner: &Binner, rows: &str) -> BinArray {
    let text = format!("x,y,g\n{rows}");
    let ds = arcs::data::csv::read_csv(schema.clone(), text.as_bytes()).unwrap();
    binner.bin_rows_parallel(ds.rows(), 1).unwrap()
}

/// Renders generated row tuples as a header-less CSV batch.
fn batch_csv(rows: &[(u32, u32, bool)]) -> String {
    rows.iter()
        .map(|(x, y, g)| format!("{x},{y},{}", if *g { "A" } else { "B" }))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The recovery equation: checkpoint at batch `k`, log the rest,
    /// then (load checkpoint → replay → merge) must equal binning every
    /// batch directly — identical checksum, identical epoch count.
    #[test]
    fn checkpoint_plus_replay_equals_direct_state(
        batches in vec(vec((0u32..10, 0u32..10, any::<bool>()), 1..5), 1..6),
        split_frac in 0.0f64..=1.0,
    ) {
        let schema = demo_schema();
        let binner = Binner::equi_width(&schema, "x", "y", "g", 4, 4).unwrap();
        let k = (batches.len() as f64 * split_frac) as usize;
        let k = k.min(batches.len());

        // Direct state: every batch binned and merged in order.
        let mut direct = binner.new_bin_array().unwrap();
        for rows in &batches {
            direct.merge(&bin_batch(&schema, &binner, &batch_csv(rows))).unwrap();
        }

        // Durable state: checkpoint after the first k batches…
        let mut checkpointed = binner.new_bin_array().unwrap();
        for rows in &batches[..k] {
            checkpointed.merge(&bin_batch(&schema, &binner, &batch_csv(rows))).unwrap();
        }
        let file = TempFile::new("ckpt");
        let meta = CheckpointMeta { epoch: k as u64, last_seq: k as u64, feeder_offset: None };
        save_checkpoint(file.path(), &meta, &checkpointed).unwrap();

        // …and the remaining batches' deltas appended to the WAL, each in
        // the array's byte form.
        let log = TempFile::new("ckpt-wal");
        let mut writer = WalWriter::create(log.path(), meta.last_seq + 1).unwrap();
        for rows in &batches[k..] {
            let mut delta = Vec::new();
            bin_batch(&schema, &binner, &batch_csv(rows)).write_to(&mut delta).unwrap();
            writer.append(&delta, None).unwrap();
        }

        // Recover: load the checkpoint, replay the log, decode each
        // record's delta and fold it in.
        let (loaded_meta, mut recovered) =
            load_checkpoint(file.path()).unwrap().expect("checkpoint exists");
        prop_assert_eq!(loaded_meta, meta);
        let scan = replay(log.path()).unwrap();
        prop_assert!(scan.tail.is_clean());
        let mut epoch = loaded_meta.epoch;
        for rec in &scan.records {
            prop_assert!(rec.seq > loaded_meta.last_seq);
            recovered.merge(&BinArray::read_from(&rec.payload).unwrap()).unwrap();
            epoch += 1;
        }

        prop_assert_eq!(epoch, batches.len() as u64);
        prop_assert_eq!(recovered.checksum(), direct.checksum());
        prop_assert_eq!(recovered.n_tuples(), direct.n_tuples());
    }
}

// ---------------------------------------------------------------------------
// The checkpoint file codec
// ---------------------------------------------------------------------------

/// A generated array: dimensions plus raw `(x, y, group)` draws, folded
/// into range by `array_from`.
type GenArray = (usize, usize, usize, Vec<(u32, u32, u32)>);

fn array_strategy() -> impl Strategy<Value = GenArray> {
    (1usize..6, 1usize..6, 1usize..4, vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..40))
}

fn array_from((nx, ny, nseg, adds): &GenArray) -> BinArray {
    let mut array = BinArray::new(*nx, *ny, *nseg).unwrap();
    for (x, y, g) in adds {
        array.add(*x as usize % nx, *y as usize % ny, g % *nseg as u32);
    }
    array
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Save → load returns the same header and array, and re-encoding
    /// them reproduces the file byte for byte. Every truncation and
    /// every single-byte flip of the file is a typed
    /// `ArcsError::Checkpoint`: the checksum covers header and array
    /// alike, so a damaged file never loads as a different header.
    #[test]
    fn checkpoint_file_round_trips_and_refuses_damage(
        generated in array_strategy(),
        epoch in any::<u64>(),
        last_seq in any::<u64>(),
        raw_offset in 0u64..u64::MAX,
        present in any::<bool>(),
        mask in 1u8..=255,
    ) {
        let array = array_from(&generated);
        let feeder_offset = feeder_offset(raw_offset, present);
        let meta = CheckpointMeta { epoch, last_seq, feeder_offset };
        let file = TempFile::new("ckpt-codec");
        save_checkpoint(file.path(), &meta, &array).unwrap();
        let bytes = std::fs::read(file.path()).unwrap();
        prop_assert_eq!(load_checkpoint(file.path()).unwrap(), Some((meta, array.clone())));
        prop_assert_eq!(&encode_checkpoint(&meta, &array).unwrap(), &bytes);

        for cut in 0..bytes.len() {
            let result = decode_checkpoint(&bytes[..cut]);
            prop_assert!(
                matches!(result, Err(ArcsError::Checkpoint { .. })),
                "cut at {} of {}: {:?}", cut, bytes.len(), result
            );
        }
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() {
            flipped[i] ^= mask;
            let result = decode_checkpoint(&flipped);
            prop_assert!(
                matches!(result, Err(ArcsError::Checkpoint { .. })),
                "flip {:#04x} at byte {}: {:?}", mask, i, result
            );
            flipped[i] ^= mask;
        }
    }
}

/// `write_atomic` on top of an existing file leaves either old or new —
/// spot-check the commit-point primitive the checkpoint relies on.
#[test]
fn write_atomic_replaces_whole_file() {
    let file = TempFile::new("atomic");
    wal::write_atomic(file.path(), b"first version, longer").unwrap();
    wal::write_atomic(file.path(), b"v2").unwrap();
    assert_eq!(std::fs::read(file.path()).unwrap(), b"v2");
}
