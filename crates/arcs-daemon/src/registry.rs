//! Multi-dataset tenancy: one serving core per dataset key.
//!
//! Each [`Tenant`] owns the full serving stack for one dataset — the
//! [`Binner`] that maps tuples to grid cells (and holds the criterion's
//! labels), the originating [`Schema`] (needed to parse appended CSV
//! rows), and the epoch-versioned [`Server`] with its own admission gate
//! and result cache. Tenants are independent: overload or appends on one
//! dataset never block queries on another.
//!
//! The [`Registry`] is the daemon's name → tenant map. Lookups pass the
//! `daemon.tenant-lookup` failpoint, so fault schedules can reject
//! resolution without touching the tenants themselves.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use arcs_core::faults;
use arcs_core::metrics::default_threads;
use arcs_core::serve::{ServeConfig, Server};
use arcs_core::{ArcsError, BinArray, Binner};
use arcs_data::csv::{CsvFile, RowSink};
use arcs_data::{DataError, Dataset, IngestPolicy, Schema, Value};

use crate::store::{bin_batch, valid_tenant_name, RecoveryReport, TenantMeta, TenantStore};

/// How to build a tenant from a dataset.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// X-axis (LHS) attribute name.
    pub x: String,
    /// Y-axis (LHS) attribute name.
    pub y: String,
    /// Criterion (RHS) attribute name; must be categorical.
    pub criterion: String,
    /// Number of x bins.
    pub n_x_bins: usize,
    /// Number of y bins.
    pub n_y_bins: usize,
    /// The tenant server's serving configuration (admission, deadline,
    /// retries, cache).
    pub serve: ServeConfig,
}

impl TenantConfig {
    /// A config binning `(x, y)` against `criterion` on the paper's
    /// default 50×50 grid with default serving limits.
    pub fn new(x: &str, y: &str, criterion: &str) -> Self {
        TenantConfig {
            x: x.to_string(),
            y: y.to_string(),
            criterion: criterion.to_string(),
            n_x_bins: 50,
            n_y_bins: 50,
            serve: ServeConfig::default(),
        }
    }

    /// The descriptor of a tenant built with this config over `schema`.
    fn meta(&self, schema: &Schema) -> TenantMeta {
        TenantMeta {
            x: self.x.clone(),
            y: self.y.clone(),
            criterion: self.criterion.clone(),
            n_x_bins: self.n_x_bins,
            n_y_bins: self.n_y_bins,
            schema: schema.clone(),
        }
    }
}

/// One dataset's serving stack.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    schema: Schema,
    binner: Binner,
    server: Server,
    /// The durable half, when the tenant lives in a data directory.
    store: Option<TenantStore>,
}

/// What a tenant starts serving: the array, its epoch, and the durable
/// store, when there is one.
type Loaded = (BinArray, u64, Option<TenantStore>);

impl Tenant {
    /// Bins `dataset` once and stands up a [`Server`] holding the result
    /// as its epoch-0 snapshot. The tenant is ephemeral: appends are not
    /// logged and nothing survives a restart.
    pub fn from_dataset(
        name: &str,
        dataset: &Dataset,
        config: &TenantConfig,
    ) -> Result<Self, ArcsError> {
        Self::create(name, dataset.schema(), config, None, |binner| bin_dataset(binner, dataset))
    }

    /// Like [`from_dataset`](Tenant::from_dataset), but durable: the
    /// tenant directory `<data_dir>/<name>` is initialised with the
    /// descriptor, an epoch-0 checkpoint of the binned array, and an
    /// empty WAL, so a restart rebuilds this tenant without the source
    /// dataset. `feeder_offset` seeds the durable feeder resume point
    /// (the feed file's current length) when a feeder tails this tenant.
    pub fn from_dataset_durable(
        name: &str,
        dataset: &Dataset,
        config: &TenantConfig,
        data_dir: &Path,
        feeder_offset: Option<u64>,
    ) -> Result<Self, ArcsError> {
        check_durable_name(name)?;
        Self::create(name, dataset.schema(), config, Some((data_dir, feeder_offset)), |binner| {
            bin_dataset(binner, dataset)
        })
    }

    /// Opens the CSV file at `path` as an ephemeral tenant in two passes
    /// that never hold the file or a [`Dataset`]: pass 1 infers the schema
    /// (as [`arcs_data::csv::load_csv_inferred`] does, with the same
    /// `max_categories`), pass 2 validates every row and bins it straight
    /// into the epoch-0 array. Both passes scan the file's ranges on the
    /// default worker count ([`CsvFile`]). The tenant equals
    /// [`from_dataset`](Tenant::from_dataset) over the loaded file, and a
    /// malformed file fails with the same [`arcs_data::DataError`].
    pub fn from_csv(
        name: &str,
        path: &Path,
        max_categories: usize,
        config: &TenantConfig,
    ) -> Result<Self, ArcsError> {
        let file = CsvFile::open(path)?;
        Self::open_csv(name, &file, max_categories, config, None, default_threads())
    }

    /// [`from_csv`](Tenant::from_csv) for a durable tenant, laid out as
    /// [`from_dataset_durable`](Tenant::from_dataset_durable) lays it out.
    /// The name is checked before the file is opened.
    pub fn from_csv_durable(
        name: &str,
        path: &Path,
        max_categories: usize,
        config: &TenantConfig,
        data_dir: &Path,
        feeder_offset: Option<u64>,
    ) -> Result<Self, ArcsError> {
        check_durable_name(name)?;
        let file = CsvFile::open(path)?;
        let durable = Some((data_dir, feeder_offset));
        Self::open_csv(name, &file, max_categories, config, durable, default_threads())
    }

    /// The body of both CSV opens: infer the schema, then bin every row,
    /// each pass on `threads` workers.
    fn open_csv(
        name: &str,
        file: &CsvFile,
        max_categories: usize,
        config: &TenantConfig,
        durable: Option<(&Path, Option<u64>)>,
        threads: usize,
    ) -> Result<Self, ArcsError> {
        let (schema, _) = file.infer_schema(max_categories, IngestPolicy::Strict, threads)?;
        Self::create(name, &schema, config, durable, |binner| {
            bin_csv(binner, &schema, file, threads)
        })
    }

    /// A new tenant over `schema` at epoch 0: `bin` fills its array and,
    /// when `durable` names a data directory and feeder offset, the
    /// tenant directory is created around that array.
    fn create(
        name: &str,
        schema: &Schema,
        config: &TenantConfig,
        durable: Option<(&Path, Option<u64>)>,
        bin: impl FnOnce(&Binner) -> Result<BinArray, ArcsError>,
    ) -> Result<Self, ArcsError> {
        Self::build(name, config.meta(schema), config.serve.clone(), |meta, binner| {
            let array = bin(binner)?;
            let store = match durable {
                None => None,
                Some((data_dir, feeder_offset)) => {
                    Some(TenantStore::create(&data_dir.join(name), meta, &array, feeder_offset)?)
                }
            };
            Ok((array, 0, store))
        })
    }

    /// Recovers a durable tenant from `<data_dir>/<name>`: checkpoint
    /// load, WAL torn-tail healing, a merge of the logged deltas past the
    /// checkpoint. The server resumes at the recovered epoch, so query
    /// responses are bit-identical to an uninterrupted run that stopped
    /// at the same durable prefix.
    pub fn open_durable(
        name: &str,
        data_dir: &Path,
        serve: ServeConfig,
    ) -> Result<(Self, RecoveryReport), ArcsError> {
        let (store, meta, array, report) = TenantStore::open(&data_dir.join(name))?;
        let tenant = Self::build(name, meta, serve, |_, _| Ok((array, report.epoch, Some(store))))?;
        Ok((tenant, report))
    }

    /// The one body behind every constructor: the binner comes from
    /// `meta` ([`TenantMeta::build_binner`], the only way a tenant gets
    /// one), `load` supplies what to serve, and the server starts there.
    fn build(
        name: &str,
        meta: TenantMeta,
        serve: ServeConfig,
        load: impl FnOnce(&TenantMeta, &Binner) -> Result<Loaded, ArcsError>,
    ) -> Result<Self, ArcsError> {
        let binner = meta.build_binner()?;
        let (array, epoch, store) = load(&meta, &binner)?;
        let server = Server::recovered(array, epoch, serve)?;
        Ok(Tenant { name: name.to_string(), schema: meta.schema, binner, server, store })
    }

    /// Whether appends to this tenant are write-ahead logged.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The durable store, when this tenant lives in a data directory.
    pub fn store(&self) -> Option<&TenantStore> {
        self.store.as_ref()
    }

    /// Checkpoints the tenant when at least `min_records` WAL records
    /// have accumulated; no-op (`Ok(false)`) for ephemeral tenants. The
    /// snapshot captured is exactly the logged state: the capture runs
    /// under the same lock appends take.
    pub fn maybe_checkpoint(&self, min_records: u64) -> Result<bool, ArcsError> {
        let Some(store) = &self.store else { return Ok(false) };
        store.checkpoint_with(min_records, || {
            let snapshot = self.server.snapshot();
            (snapshot.epoch(), Arc::clone(snapshot.array()))
        })
    }

    /// The dataset key this tenant serves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema appended CSV rows must conform to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The binner mapping tuples into the tenant's grid.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// The criterion attribute's labels, in code order.
    pub fn labels(&self) -> &[String] {
        self.binner.labels()
    }

    /// The tenant's serving core.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Parses header-less CSV `rows` against the tenant's schema, bins
    /// them into a delta array ([`bin_batch`]), and appends it with
    /// [`append_delta`](Tenant::append_delta). Returns the new epoch and
    /// the number of rows merged. The whole batch is rejected on the
    /// first malformed row — a partial merge would leave the epoch
    /// unreproducible.
    pub fn append_csv(&self, rows: &str) -> Result<(u64, u64), ArcsError> {
        let delta = bin_batch(&self.schema, &self.binner, rows)?;
        Ok((self.append_delta(&delta, None)?, delta.n_tuples()))
    }

    /// Merges a binned `delta` as a copy-on-write snapshot swap and
    /// returns the new epoch: the one append routine, behind wire and
    /// feeder appends and a standby's apply alike. On a durable tenant
    /// the delta's byte form ([`BinArray::write_to`]) is written ahead to
    /// the WAL (fsynced) first, with `offset` — for a feeder append, the
    /// position in the feed file *after* its batch, so a restarted feeder
    /// resumes there and never double-appends. Once this returns `Ok`,
    /// the delta survives a crash.
    pub fn append_delta(&self, delta: &BinArray, offset: Option<u64>) -> Result<u64, ArcsError> {
        let Some(store) = &self.store else { return self.server.append(delta) };
        let mut payload = Vec::new();
        delta.write_to(&mut payload)?;
        store.append(&payload, offset, || self.server.append(delta))
    }
}

/// Bins a tenant's source dataset across the default worker count
/// (results are bit-identical at any thread count).
fn bin_dataset(binner: &Binner, dataset: &Dataset) -> Result<BinArray, ArcsError> {
    binner.bin_rows_parallel(dataset.rows(), default_threads())
}

/// Pass 2 of a CSV tenant open: scans `file` under the strict policy on
/// `threads` workers and bins each row as it is read.
fn bin_csv(
    binner: &Binner,
    schema: &Schema,
    file: &CsvFile,
    threads: usize,
) -> Result<BinArray, ArcsError> {
    let mut array = binner.new_bin_array()?;
    let mut binned = Binned { binner, array: Some(&mut array), cells: Vec::new() };
    file.scan(schema, IngestPolicy::Strict, None, threads, &mut binned)?;
    Ok(array)
}

/// Rows binned into an array. A one-range scan bins straight into it; a
/// range's part keeps only its rows' cells, which are added to the array
/// in file order, so a part costs its rows and not a grid.
struct Binned<'a> {
    binner: &'a Binner,
    /// The array, in the caller's sink; `None` in a range's part.
    array: Option<&'a mut BinArray>,
    /// A part's cells, one `(x, y, group)` per row.
    cells: Vec<(usize, usize, u32)>,
}

impl RowSink for Binned<'_> {
    fn part(&self) -> Self {
        Binned { binner: self.binner, array: None, cells: Vec::new() }
    }

    fn accept(&mut self, row: &[Value]) -> Result<(), DataError> {
        let (x, y, g) = self.binner.bin_values(row);
        match &mut self.array {
            Some(array) => array.add(x, y, g),
            None => self.cells.push((x, y, g)),
        }
        Ok(())
    }

    fn absorb(&mut self, part: Self) -> Result<(), DataError> {
        if let Some(array) = &mut self.array {
            for (x, y, g) in part.cells {
                array.add(x, y, g);
            }
        }
        Ok(())
    }
}

/// Refuses a tenant name that is not safe as a directory name.
fn check_durable_name(name: &str) -> Result<(), ArcsError> {
    if valid_tenant_name(name) {
        return Ok(());
    }
    Err(ArcsError::InvalidConfig(format!(
        "tenant name `{name}` is not durable-safe: use ASCII letters, digits, \
         `.`, `_`, `-` (max 128 chars, no leading dot)"
    )))
}

/// The daemon's dataset-key → tenant map.
#[derive(Debug, Default)]
pub struct Registry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or replaces) a tenant under its name.
    pub fn insert(&self, tenant: Tenant) -> Arc<Tenant> {
        let tenant = Arc::new(tenant);
        let mut map = self.tenants.write().unwrap_or_else(|p| p.into_inner());
        map.insert(tenant.name().to_string(), Arc::clone(&tenant));
        tenant
    }

    /// Resolves a dataset key. `Ok(None)` means the name is not served;
    /// the `daemon.tenant-lookup` failpoint can inject a typed error.
    pub fn get(&self, name: &str) -> Result<Option<Arc<Tenant>>, ArcsError> {
        faults::check("daemon.tenant-lookup")?;
        let map = self.tenants.read().unwrap_or_else(|p| p.into_inner());
        Ok(map.get(name).cloned())
    }

    /// All registered tenants, sorted by name. Internal maintenance path
    /// (checkpointer, shutdown flush): no failpoint, unlike
    /// [`get`](Registry::get).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let map = self.tenants.read().unwrap_or_else(|p| p.into_inner());
        map.values().cloned().collect()
    }

    /// The registered dataset keys, sorted.
    pub fn names(&self) -> Vec<String> {
        let map = self.tenants.read().unwrap_or_else(|p| p.into_inner());
        map.keys().cloned().collect()
    }

    /// Opens every tenant directory under `data_dir` (checkpoint load +
    /// WAL replay) and registers the recovered tenants. Returns
    /// `(name, recovery report)` per tenant, sorted by name. A directory
    /// that fails to recover aborts the whole open — serving a partial
    /// registry would silently answer `UNKNOWN_DATASET` for data that
    /// exists on disk.
    pub fn open_data_dir(
        &self,
        data_dir: &Path,
        serve: &ServeConfig,
    ) -> Result<Vec<(String, RecoveryReport)>, ArcsError> {
        let mut names: Vec<String> = std::fs::read_dir(data_dir)
            .map_err(|e| ArcsError::Io(format!("cannot read {}: {e}", data_dir.display())))?
            .filter_map(|entry| entry.ok())
            .filter(|entry| {
                entry.path().is_dir() && entry.path().join(crate::store::TENANT_META_FILE).is_file()
            })
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut reports = Vec::with_capacity(names.len());
        for name in names {
            let (tenant, report) = Tenant::open_durable(&name, data_dir, serve.clone())?;
            self.insert(tenant);
            reports.push((name, report));
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::{Attribute, Value};

    fn tiny_dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for i in 0..100 {
            let (x, y) = ((i % 10) as f64 + 0.5, ((i / 10) % 10) as f64 + 0.5);
            let g = u32::from(!(2.0..5.0).contains(&x) || !(2.0..5.0).contains(&y));
            ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(g)]).unwrap();
        }
        ds
    }

    fn tiny_config() -> TenantConfig {
        TenantConfig { n_x_bins: 10, n_y_bins: 10, ..TenantConfig::new("x", "y", "g") }
    }

    #[test]
    fn tenants_register_resolve_and_append() {
        let registry = Registry::new();
        let ds = tiny_dataset();
        registry.insert(Tenant::from_dataset("tiny", &ds, &tiny_config()).unwrap());

        assert_eq!(registry.names(), vec!["tiny".to_string()]);
        assert!(registry.get("nope").unwrap().is_none());

        let tenant = registry.get("tiny").unwrap().unwrap();
        assert_eq!(tenant.labels(), ["A".to_string(), "other".to_string()]);
        assert_eq!(tenant.server().snapshot().epoch(), 0);

        let (epoch, rows) = tenant.append_csv("2.5,2.5,A\n3.5,3.5,A\n").unwrap();
        assert_eq!((epoch, rows), (1, 2));
        assert_eq!(tenant.server().snapshot().epoch(), 1);
    }

    #[test]
    fn appends_reject_malformed_batches_atomically() {
        let ds = tiny_dataset();
        let tenant = Tenant::from_dataset("tiny", &ds, &tiny_config()).unwrap();
        let before = tenant.server().snapshot();
        let err = tenant.append_csv("2.5,2.5,A\nnot-a-number,3.5,A\n").unwrap_err();
        assert!(matches!(err, ArcsError::Data(_)), "{err}");
        // The good first row must not have been merged.
        let after = tenant.server().snapshot();
        assert_eq!(after.epoch(), before.epoch());
        assert_eq!(after.checksum(), before.checksum());
    }

    #[test]
    fn durable_tenants_recover_bit_identical() {
        let data_dir =
            std::env::temp_dir().join(format!("arcs-registry-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(&data_dir).unwrap();

        let ds = tiny_dataset();
        let tenant =
            Tenant::from_dataset_durable("tiny", &ds, &tiny_config(), &data_dir, None).unwrap();
        assert!(tenant.is_durable());
        tenant.append_csv("2.5,2.5,A\n3.5,3.5,A\n").unwrap();
        let delta = bin_batch(tenant.schema(), tenant.binner(), "4.5,4.5,other\n").unwrap();
        tenant.append_delta(&delta, Some(64)).unwrap();
        let live = tenant.server().snapshot();
        drop(tenant);

        let registry = Registry::new();
        let reports = registry.open_data_dir(&data_dir, &ServeConfig::default()).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, "tiny");
        assert_eq!(reports[0].1.replayed_records, 2);

        let recovered = registry.get("tiny").unwrap().unwrap();
        let snapshot = recovered.server().snapshot();
        assert_eq!(snapshot.epoch(), live.epoch());
        assert_eq!(snapshot.checksum(), live.checksum());
        assert_eq!(recovered.store().unwrap().feeder_offset(), Some(64));

        // Checkpoint folds the WAL; a further restart still agrees.
        assert!(recovered.maybe_checkpoint(1).unwrap());
        assert_eq!(recovered.store().unwrap().records_since_checkpoint(), 0);
        let (reopened, report) =
            Tenant::open_durable("tiny", &data_dir, ServeConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(reopened.server().snapshot().checksum(), live.checksum());
        assert_eq!(reopened.server().snapshot().epoch(), live.epoch());
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn durable_tenant_names_are_validated() {
        let data_dir = std::env::temp_dir().join("arcs-registry-names");
        let ds = tiny_dataset();
        let err = Tenant::from_dataset_durable("../evil", &ds, &tiny_config(), &data_dir, None)
            .unwrap_err();
        assert!(matches!(err, ArcsError::InvalidConfig(_)), "{err}");
    }

    /// An append error names the bad row's line within the batch: the
    /// first row is line 1, whatever blank lines come before the k-th.
    #[test]
    fn append_errors_name_the_line_within_the_batch() {
        let tenant = Tenant::from_dataset("tiny", &tiny_dataset(), &tiny_config()).unwrap();
        let err = tenant.append_csv("garbage\n").unwrap_err();
        assert_eq!(
            err,
            ArcsError::Data(arcs_data::DataError::Parse {
                line: 1,
                message: "expected 3 fields, found 1".into()
            })
        );
        for k in 2..6usize {
            let mut rows = "2.5,2.5,A\n".repeat(k - 1);
            if k == 4 {
                rows = "2.5,2.5,A\n\n2.5,2.5,A\n".into(); // a blank line is line 2
            }
            rows.push_str("2.5,2.5,Z\n");
            let err = tenant.append_csv(&rows).unwrap_err();
            assert!(
                matches!(err, ArcsError::Data(arcs_data::DataError::Parse { line, .. }) if line == k),
                "row {k}: {err}"
            );
        }
        assert_eq!(tenant.server().snapshot().epoch(), 0);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("arcs-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A tenant opened from a CSV file in two passes, each over six
    /// ranges on 3 workers, is the tenant `from_dataset` builds over the
    /// loaded file: same schema, same array, and — durable — the same
    /// `tenant.json` and `checkpoint.meta` bytes. A malformed line in a
    /// late range fails with the loader's own error, line included.
    #[test]
    fn csv_tenants_equal_dataset_tenants() {
        use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
        let dir = temp_dir("csv-open");
        let csv = dir.join("f2.csv");
        let ds =
            AgrawalGenerator::new(GeneratorConfig::paper_defaults(11)).unwrap().generate(6_000);
        arcs_data::csv::save_csv(&ds, &csv).unwrap();
        let config = TenantConfig {
            n_x_bins: 20,
            n_y_bins: 30,
            ..TenantConfig::new("age", "salary", "group")
        };
        // `CsvFile` cuts 128 KiB ranges: the 663 KB file spans six.
        assert!(std::fs::metadata(&csv).unwrap().len() > 5 * (128 << 10));
        let ranged = |path: &Path| CsvFile::open(path).unwrap();

        // The oracle reads the file as one range, on one thread.
        let one_range = |path: &Path| {
            arcs_data::csv::load_csv_inferred_with_policy(path, 16, IngestPolicy::Strict, None, 1)
        };
        let loaded = one_range(&csv).unwrap().0;
        let oracle = Tenant::from_dataset("f2", &loaded, &config).unwrap();
        let streamed = Tenant::open_csv("f2", &ranged(&csv), 16, &config, None, 3).unwrap();
        assert_eq!(streamed.schema(), oracle.schema());
        assert_eq!(streamed.binner(), oracle.binner());
        assert_eq!(**streamed.server().snapshot().array(), **oracle.server().snapshot().array());
        assert_eq!(streamed.server().snapshot().checksum(), oracle.server().snapshot().checksum());
        assert!(!streamed.is_durable());

        let (by_csv, by_dataset) = (dir.join("by-csv"), dir.join("by-dataset"));
        let durable = Some((by_csv.as_path(), Some(7)));
        let streamed = Tenant::open_csv("f2", &ranged(&csv), 16, &config, durable, 3).unwrap();
        Tenant::from_dataset_durable("f2", &loaded, &config, &by_dataset, Some(7)).unwrap();
        assert!(streamed.is_durable());
        for file in [crate::store::TENANT_META_FILE, crate::store::CHECKPOINT_META_FILE] {
            let a = std::fs::read(by_csv.join("f2").join(file)).unwrap();
            let b = std::fs::read(by_dataset.join("f2").join(file)).unwrap();
            assert!(a == b, "{file} differs");
        }

        // A malformed file fails as the loader fails, naming the line:
        // line 5,002 sits in the fifth range, past the lines of all before.
        let text = std::fs::read_to_string(&csv).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(5_001, "41,oops");
        std::fs::write(&csv, lines.join("\n") + "\n").unwrap();
        let want = one_range(&csv).unwrap_err();
        assert!(matches!(want, arcs_data::DataError::Parse { line: 5_002, .. }), "{want}");
        let err = Tenant::open_csv("f2", &ranged(&csv), 16, &config, None, 3).unwrap_err();
        assert_eq!(err, ArcsError::Data(want.clone()));
        let err = Tenant::from_csv("f2", &csv, 16, &config).unwrap_err();
        assert_eq!(err, ArcsError::Data(want));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A durable CSV tenant's name is refused before the file is read:
    /// a missing file reports the name, not an I/O error.
    #[test]
    fn durable_csv_tenant_names_are_checked_first() {
        let missing = std::path::Path::new("/nonexistent/arcs-missing.csv");
        let data_dir = std::env::temp_dir().join("arcs-registry-names");
        let err = Tenant::from_csv_durable("../evil", missing, 16, &tiny_config(), &data_dir, None)
            .unwrap_err();
        assert!(matches!(err, ArcsError::InvalidConfig(_)), "{err}");
        let err = Tenant::from_csv("ok", missing, 16, &tiny_config()).unwrap_err();
        assert!(matches!(err, ArcsError::Data(arcs_data::DataError::Io(_))), "{err}");
    }

    #[test]
    fn quantitative_criteria_are_rejected() {
        let ds = tiny_dataset();
        let err = Tenant::from_dataset("tiny", &ds, &TenantConfig::new("x", "g", "y")).unwrap_err();
        assert!(matches!(err, ArcsError::AttributeKind { .. }), "{err}");
    }
}
