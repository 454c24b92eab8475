//! `arcs daemon` and `arcs client`: the `arcsd` network daemon over the
//! serving core, and a scriptable client for it.
//!
//! The daemon serves one or more CSV-backed datasets over the
//! length-prefixed JSON wire protocol; the client speaks the same
//! protocol and maps typed wire error codes onto the CLI's exit-code
//! classes, so shell scripts can branch on error class exactly as they
//! do for the in-process commands.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arcs_core::jsonio::Json;
use arcs_core::request::{write_query_result, Request};
use arcs_core::serve::{ClusterSpec, ServeConfig};
use arcs_core::ArcsError;
use arcs_daemon::daemon::{Daemon, DaemonConfig};
use arcs_daemon::registry::{Registry, Tenant, TenantConfig};
use arcs_daemon::repl::ReplicationConfig;
use arcs_daemon::{Client, ClientError, Feeder};

use crate::args::{Args, Flags};
use crate::commands::{classify, distinct_attributes, CliError};
use crate::signals;

/// How often the daemon's wait loop checks for signals and the
/// `--max-seconds` deadline.
const WAIT_TICK: Duration = Duration::from_millis(50);

pub const DAEMON_USAGE: &str = "\
arcs daemon --listen <ADDR> [--datasets <NAME=FILE[,NAME=FILE...]>]
            [--x <ATTR> --y <ATTR> --criterion <ATTR>]
            [--data-dir <DIR>]
            [--bins 50] [--max-categories 16]
            [--workers 4] [--max-pending 64]
            [--max-inflight <N>] [--max-queued 64] [--cache 256]
            [--deadline-ms <MS>]
            [--idle-timeout-ms 30000] [--read-timeout-ms 10000]
            [--checkpoint-every 256] [--checkpoint-interval-ms 500]
            [--feed <NAME=FILE>] [--feed-interval-ms 200]
            [--replicate-from <HOST:PORT>] [--repl-poll-ms 50]
            [--port-file <FILE>] [--max-seconds <N>]

Serves the named CSV datasets over TCP (`--listen 127.0.0.1:0` picks an
ephemeral port). Each dataset is an independent tenant with its own
snapshot store, admission gate, and result cache; all share the same
(x, y, criterion) binning configuration. The daemon runs until SIGTERM
or SIGINT arrives or --max-seconds elapses (default: no limit), then
drains — stops accepting, finishes in-flight frames, stops the feeder,
checkpoints every durable tenant — and exits 0.

Durability (--data-dir DIR):
  Tenants live in DIR/<name>/ as a checkpointed snapshot plus a
  checksummed write-ahead log. On startup every tenant directory found
  in DIR is recovered (checkpoint + WAL replay, torn tails healed) and
  served at its pre-crash epoch; --datasets then only creates tenants
  that do not exist yet (--x/--y/--criterion required for those). Every
  append is fsynced to the WAL before it is merged, a background
  checkpointer folds the log every --checkpoint-every records, and a
  clean shutdown checkpoints everything. Audit a directory with
  `arcs fsck`.

Connection hygiene:
  --idle-timeout-ms N   close a connection idle between frames for N ms
  --read-timeout-ms N   close a connection whose frame stalls mid-read
                        for N ms (slow-loris guard); 0 disables either

Replication (--replicate-from HOST:PORT, requires --data-dir):
  Start as a read-only *standby* of the primary arcsd at HOST:PORT: its
  durable tenants are bootstrapped from checkpoint transfers, then their
  WAL records are streamed and applied through the same durable append
  path, so the standby serves reads at the primary's acked epochs.
  Writes are refused with the typed NOT_PRIMARY code until promotion
  (`arcs client promote` or SIGHUP to the standby). A standby that falls
  behind the primary's log refuses the gap and re-syncs from a fresh
  checkpoint transfer; it never applies past a missing record.
  --datasets and --feed are writer-side flags and cannot be combined
  with --replicate-from.

Readiness and scripting:
  --port-file FILE    write the bound address to FILE once the daemon is
                      accepting connections — scripts wait on the file,
                      then read the address from it
  --feed NAME=FILE    tail FILE for appended CSV rows and merge complete
                      batches into tenant NAME every --feed-interval-ms;
                      with --data-dir, the consumed offset rides in the
                      WAL and a restart resumes exactly after the last
                      durable batch";

pub(crate) const DAEMON_FLAGS: Flags = Flags {
    values: &[
        "listen",
        "datasets",
        "x",
        "y",
        "criterion",
        "data-dir",
        "bins",
        "max-categories",
        "workers",
        "max-pending",
        "max-inflight",
        "max-queued",
        "cache",
        "deadline-ms",
        "idle-timeout-ms",
        "read-timeout-ms",
        "checkpoint-every",
        "checkpoint-interval-ms",
        "feed",
        "feed-interval-ms",
        "replicate-from",
        "repl-poll-ms",
        "port-file",
        "max-seconds",
    ],
    switches: &[],
};

pub const FSCK_USAGE: &str = "\
arcs fsck --data-dir <DIR> [--repair]

Audits every tenant directory under DIR: the tenant descriptor, the
checkpoint (header + array under one checksum), and the write-ahead log
(record CRCs, sequence continuity, and whether each surviving record
still applies on top of the checkpoint). Prints a JSON report and exits
0 when the directory is clean (or was fully repaired), 3 otherwise.

--repair truncates torn or corrupt WAL tails to the last whole record,
recreates a destroyed log from the checkpoint's sequence number, and
removes stale temporary files. It never deletes checkpoints and never
invents data: anything beyond that (a missing checkpoint, a record that
no longer applies) stays an error in the report.";

pub(crate) const FSCK_FLAGS: Flags = Flags { values: &["data-dir"], switches: &["repair"] };

pub const CLIENT_USAGE: &str = "\
arcs client --addr <HOST:PORT> <OP> [OPTIONS]

OPS:
  open    --dataset <NAME>
          Print the dataset's epoch, labels, and tuple count.
  query   --dataset <NAME> --group <LABEL> --support <S> --confidence <C>
          [--cluster] [--deadline-ms <MS>]
          Re-mine the dataset at the thresholds; --cluster also returns
          the clustered rectangles. Prints the result as JSON.
  append  --dataset <NAME> (--rows <CSV> | --rows-file <FILE>)
          Merge header-less CSV rows as one atomic delta batch.
  stats   --dataset <NAME>
          Print the tenant's serving counters as JSON (durable tenants
          include a `durability` object: WAL seq, checkpoint epoch/seq,
          WAL bytes).
  promote Promote a standby daemon to primary (idempotent; a primary
          answers was_standby=false). Takes no --dataset.

OPTIONS:
  --retry N   retry transient connect failures and OVERLOADED responses
              to idempotent ops (open/query/stats) up to N times with
              bounded exponential backoff; append is never retried

Wire error codes map onto the CLI exit classes: data-shaped failures
(unknown dataset/group, malformed rows, writes to a standby) exit 3,
expired deadlines and overload shedding exit 6, protocol or internal
failures exit 4.";

pub(crate) const CLIENT_FLAGS: Flags = Flags {
    values: &[
        "addr",
        "dataset",
        "group",
        "support",
        "confidence",
        "deadline-ms",
        "rows",
        "rows-file",
        "retry",
    ],
    switches: &["cluster"],
};

pub const REPL_STATUS_USAGE: &str = "\
arcs repl-status --addr <HOST:PORT> [--dataset <NAME>] [--retry N]

Prints a daemon's replication status as JSON: its role (primary or
standby), the primary it tails (standbys only), the datasets it serves,
and the replication counters (records shipped/applied, gaps refused,
re-syncs, heartbeats). With --dataset, also that tenant's durability
positions (last WAL seq, checkpoint epoch/seq, WAL bytes).";

pub(crate) const REPL_STATUS_FLAGS: Flags =
    Flags { values: &["addr", "dataset", "retry"], switches: &[] };

/// Classifies a client-side failure by its wire code through the CLI's
/// one exit-class table ([`classify`]); a failure without a code (socket
/// or protocol trouble) is internal.
pub(crate) fn client_err(err: ClientError) -> CliError {
    classify(err.code().unwrap_or_default(), err.to_string())
}

fn run_err(err: impl std::fmt::Display) -> CliError {
    CliError::Run(err.to_string())
}

/// Parses a `name=value` pair, as used by `--datasets` and `--feed`.
fn name_value(spec: &str, flag: &str) -> Result<(String, String), CliError> {
    match spec.split_once('=') {
        Some((name, value)) if !name.is_empty() && !value.is_empty() => {
            Ok((name.to_string(), value.to_string()))
        }
        _ => Err(CliError::Usage(format!("--{flag} expects NAME=FILE, got `{spec}`"))),
    }
}

/// The serving limits `--max-queued`, `--cache`, `--max-inflight` and
/// `--deadline-ms` (the default deadline). Unset flags keep
/// [`ServeConfig::default`]'s values.
fn serve_config(args: &Args) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    let mut config = ServeConfig {
        max_queued: args.get_or("max-queued", defaults.max_queued)?,
        cache_capacity: args.get_or("cache", defaults.cache_capacity)?,
        ..defaults
    };
    if let Some(max_inflight) = args.positive("max-inflight")? {
        config.max_inflight = max_inflight;
    }
    if args.get("deadline-ms").is_some() {
        config.default_deadline = Some(Duration::from_millis(args.get_or("deadline-ms", 0u64)?));
    }
    Ok(config)
}

/// `arcs daemon`: stand up `arcsd` over one or more CSV datasets.
pub fn daemon(argv: &[String]) -> Result<String, CliError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(DAEMON_USAGE.to_string());
    }
    let args = DAEMON_FLAGS.parse(argv)?;
    let listen = args.require("listen")?;
    let data_dir = args.get("data-dir").map(PathBuf::from);
    let datasets = args.get("datasets");
    let replicate_from = args.get("replicate-from");
    if let Some(primary) = replicate_from {
        if data_dir.is_none() {
            return Err(CliError::Usage(
                "--replicate-from requires --data-dir (checkpoint transfers install there)".into(),
            ));
        }
        if datasets.is_some() || args.get("feed").is_some() {
            return Err(CliError::Usage(
                "--datasets and --feed are writer-side flags; a standby only applies \
                 what the primary ships"
                    .into(),
            ));
        }
        if primary.is_empty() {
            return Err(CliError::Usage("--replicate-from needs HOST:PORT".into()));
        }
    } else if datasets.is_none() && data_dir.is_none() {
        return Err(CliError::Usage(
            "need --datasets, --data-dir, or both\n\n".to_string() + DAEMON_USAGE,
        ));
    }
    let bins = args.positive("bins")?.unwrap_or(50);
    let max_categories = args.positive("max-categories")?.unwrap_or(16);
    distinct_attributes(&args)?;
    let max_seconds: Option<u64> = match args.get("max-seconds") {
        None => None,
        Some(_) => Some(args.get_or("max-seconds", 0)?),
    };
    let serve = serve_config(&args)?;

    let feed_spec = match args.get("feed") {
        None => None,
        Some(spec) => Some(name_value(spec, "feed")?),
    };

    let mut out = String::new();
    let registry = Arc::new(Registry::new());

    // Recovery first: every tenant directory already in the data dir
    // comes back at its durable epoch, no source CSV needed.
    let mut recovered_names: Vec<String> = Vec::new();
    if let Some(dir) = &data_dir {
        std::fs::create_dir_all(dir)
            .map_err(|err| CliError::Run(format!("--data-dir {}: {err}", dir.display())))?;
        let reports = registry
            .open_data_dir(dir, &serve)
            .map_err(|err| CliError::Data(format!("recovery from {}: {err}", dir.display())))?;
        for (name, report) in reports {
            let _ = writeln!(
                out,
                "tenant `{name}`: recovered at epoch {} \
                 ({} WAL records replayed, {} torn bytes healed)",
                report.epoch, report.replayed_records, report.torn_bytes,
            );
            recovered_names.push(name);
        }
    }

    // A standby bootstraps/tails everything else from the primary; the
    // recovery above only warms it from its own local checkpoints.
    let replication = match replicate_from {
        None => None,
        Some(primary) => {
            let dir = data_dir.as_ref().expect("--replicate-from requires --data-dir");
            let mut repl = ReplicationConfig::new(primary, dir);
            repl.serve = serve.clone();
            repl.poll_interval = Duration::from_millis(args.get_or("repl-poll-ms", 50u64)?);
            Some(repl)
        }
    };

    if let Some(datasets) = datasets {
        let x = args.require("x")?;
        let y = args.require("y")?;
        let criterion = args.require("criterion")?;
        let tenant_config = TenantConfig {
            n_x_bins: bins,
            n_y_bins: bins,
            serve,
            ..TenantConfig::new(x, y, criterion)
        };
        for spec in datasets.split(',') {
            let (name, file) = name_value(spec, "datasets")?;
            if recovered_names.contains(&name) {
                let _ = writeln!(
                    out,
                    "tenant `{name}`: already recovered from the data dir; ignoring {file}",
                );
                continue;
            }
            // Two streaming passes over the file (infer, then bin): the
            // tenant never holds the file or a `Dataset`.
            let path = Path::new(&file);
            let tenant = match &data_dir {
                None => Tenant::from_csv(&name, path, max_categories, &tenant_config),
                Some(dir) => {
                    // Seed the durable feeder offset with the feed file's
                    // current length: `tail -f` semantics survive a crash
                    // that happens before the first feeder merge.
                    let feeder_offset = feed_spec
                        .as_ref()
                        .filter(|(feed_name, _)| *feed_name == name)
                        .map(|(_, feed_file)| {
                            std::fs::metadata(feed_file).map(|m| m.len()).unwrap_or(0)
                        });
                    Tenant::from_csv_durable(
                        &name,
                        path,
                        max_categories,
                        &tenant_config,
                        dir,
                        feeder_offset,
                    )
                }
            }
            .map_err(|err| match err {
                // The file is at fault: name it, as a failed load always has.
                ArcsError::Data(err) => CliError::Data(format!("{file}: {err}")),
                err => CliError::Data(format!("{name}: {err}")),
            })?;
            let _ = writeln!(
                out,
                "tenant `{name}`: {} tuples from {file}, {bins}x{bins} grid{}",
                tenant.server().snapshot().array().n_tuples(),
                if tenant.is_durable() { " (durable)" } else { "" },
            );
            registry.insert(tenant);
        }
    }

    let timeout_flag =
        |flag: &str, default: Option<Duration>| -> Result<Option<Duration>, CliError> {
            match args.get(flag) {
                None => Ok(default),
                Some(_) => {
                    let ms: u64 = args.get_or(flag, 0)?;
                    Ok((ms > 0).then(|| Duration::from_millis(ms)))
                }
            }
        };
    let defaults = DaemonConfig::default();
    let config = DaemonConfig {
        workers: args.get_or("workers", defaults.workers)?,
        max_pending: args.get_or("max-pending", defaults.max_pending)?,
        idle_timeout: timeout_flag("idle-timeout-ms", defaults.idle_timeout)?,
        read_timeout: timeout_flag("read-timeout-ms", defaults.read_timeout)?,
        checkpoint_every: args.get_or("checkpoint-every", defaults.checkpoint_every)?,
        checkpoint_interval: Duration::from_millis(
            args.get_or("checkpoint-interval-ms", defaults.checkpoint_interval.as_millis() as u64)?,
        ),
        replication,
    };
    let handle = Daemon::bind(listen, Arc::clone(&registry), config)
        .and_then(Daemon::spawn)
        .map_err(run_err)?;
    let addr = handle.addr();
    let _ = writeln!(out, "arcsd listening on {addr}");
    if let Some(primary) = replicate_from {
        let _ = writeln!(
            out,
            "arcsd standby: read-only, replicating from {primary} \
             (promote with `arcs client promote` or SIGHUP)",
        );
    }

    let feeder = match feed_spec {
        None => None,
        Some((name, file)) => {
            let tenant = registry
                .get(&name)
                .map_err(|err| CliError::Run(err.to_string()))?
                .ok_or_else(|| CliError::Usage(format!("--feed names unknown tenant `{name}`")))?;
            let interval = Duration::from_millis(args.get_or("feed-interval-ms", 200u64)?);
            // Durable tenants resume at the last offset in the WAL or
            // checkpoint; ephemeral ones tail from the file's end.
            let offset = match tenant.store().and_then(|store| store.feeder_offset()) {
                Some(offset) => offset,
                None => std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0),
            };
            let feeder =
                Feeder::spawn_at(tenant, file.clone().into(), interval, offset).map_err(run_err)?;
            let _ = writeln!(out, "feeding `{name}` from {file} at byte {offset}");
            Some(feeder)
        }
    };

    // Signals are routed before the port file appears, so a script that
    // waits for readiness and then sends SIGTERM always gets the drain.
    signals::install();
    // The port file is the readiness signal: it appears only once the
    // accept loop is live.
    if let Some(port_file) = args.get("port-file") {
        std::fs::write(port_file, format!("{addr}\n")).map_err(run_err)?;
    }

    // The startup banner has to reach the operator *before* the daemon
    // waits, so print it here; the return value is the exit line.
    print!("{out}");
    let started = Instant::now();
    let retired = loop {
        if signals::take_hangup() && handle.repl().role.promote() {
            eprintln!("arcsd: SIGHUP — promoted to primary; writes now accepted");
        }
        if signals::terminate_requested() {
            break format!("arcsd on {addr} drained and stopped on a termination signal");
        }
        if let Some(seconds) = max_seconds {
            if started.elapsed() >= Duration::from_secs(seconds) {
                break format!("arcsd on {addr} retired after {seconds}s");
            }
        }
        std::thread::sleep(WAIT_TICK);
    };
    if let Some(feeder) = feeder {
        feeder.stop();
    }
    handle.shutdown();
    Ok(retired)
}

/// Connects to `--addr`. With `--retry N`, transient connect failures and
/// `OVERLOADED` answers to idempotent ops are retried up to N times with
/// bounded exponential backoff; append is never retried.
fn connect(args: &Args) -> Result<Client, CliError> {
    let addr = args.require("addr")?;
    let retries: u32 = args.get_or("retry", 0)?;
    Client::connect_with_retry(addr, retries).map_err(client_err)
}

/// `arcs fsck`: audit (and optionally repair) a daemon data directory.
/// Returns the JSON report plus the process exit status: 0 when the
/// directory is clean or was fully repaired, 3 when problems remain.
pub fn fsck(argv: &[String]) -> Result<(String, u8), CliError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok((FSCK_USAGE.to_string(), 0));
    }
    let args = FSCK_FLAGS.parse(argv)?;
    let data_dir = PathBuf::from(args.require("data-dir")?);
    let report = arcs_daemon::store::fsck(&data_dir, args.has("repair"))
        .map_err(|err| CliError::Data(err.to_string()))?;
    let status = if report.clean() { 0 } else { 3 };
    Ok((report.to_json().to_string(), status))
}

/// `arcs client`: one operation against a running `arcsd`.
pub fn client(argv: &[String]) -> Result<String, CliError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(CLIENT_USAGE.to_string());
    }
    let args = CLIENT_FLAGS.parse(argv)?;
    let [op] = args.positional() else {
        return Err(CliError::Usage(format!("expected exactly one operation\n\n{CLIENT_USAGE}")));
    };
    // `promote` addresses the daemon, not a dataset; everything else
    // needs --dataset.
    let dataset = match args.get("dataset") {
        Some(dataset) => dataset,
        None if op == "promote" => "",
        None => return Err(CliError::Usage(format!("{op} needs --dataset\n\n{CLIENT_USAGE}"))),
    };
    let mut client = connect(&args)?;

    match op.as_str() {
        "open" => {
            let info = client.open(dataset).map_err(client_err)?;
            let labels = info.labels.into_iter().map(Json::Str).collect();
            Ok(Json::Obj(vec![
                ("dataset".into(), Json::Str(info.dataset)),
                ("epoch".into(), Json::Num(info.epoch as f64)),
                ("labels".into(), Json::Arr(labels)),
                ("n_tuples".into(), Json::Num(info.n_tuples as f64)),
            ])
            .to_string())
        }
        "query" => {
            let support: f64 = args.get_or("support", 0.0)?;
            let confidence: f64 = args.get_or("confidence", 0.5)?;
            let thresholds = arcs_core::Thresholds::new(support, confidence)
                .map_err(|err| CliError::Usage(err.to_string()))?;
            let mut request = Request::new().group(args.require("group")?).thresholds(thresholds);
            if args.has("cluster") {
                request = request.cluster(ClusterSpec::default());
            }
            if args.get("deadline-ms").is_some() {
                request =
                    request.deadline(Duration::from_millis(args.get_or("deadline-ms", 0u64)?));
            }
            let outcome = client.query_on(Some(dataset), &request).map_err(client_err)?;
            let mut result = String::new();
            write_query_result(&outcome.result, &mut result);
            Ok(format!(
                "{{\"result\":{result},\"cache_hit\":{},\"retries\":{}}}",
                Json::Bool(outcome.cache_hit),
                Json::Num(outcome.retries as f64)
            ))
        }
        "append" => {
            let rows = match (args.get("rows"), args.get("rows-file")) {
                (Some(rows), None) => rows.to_string(),
                (None, Some(file)) => std::fs::read_to_string(file)
                    .map_err(|err| CliError::Data(format!("{file}: {err}")))?,
                _ => {
                    return Err(CliError::Usage(
                        "append needs exactly one of --rows or --rows-file".into(),
                    ))
                }
            };
            let (epoch, merged) = client.append(Some(dataset), &rows).map_err(client_err)?;
            Ok(Json::Obj(vec![
                ("epoch".into(), Json::Num(epoch as f64)),
                ("rows".into(), Json::Num(merged as f64)),
            ])
            .to_string())
        }
        "stats" => Ok(client.stats(Some(dataset)).map_err(client_err)?.to_string()),
        "promote" => Ok(client.promote().map_err(client_err)?.to_string()),
        other => {
            Err(CliError::Usage(format!("unknown client operation `{other}`\n\n{CLIENT_USAGE}")))
        }
    }
}

/// `arcs repl-status`: one replication-status probe against a daemon.
pub fn repl_status(argv: &[String]) -> Result<String, CliError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(REPL_STATUS_USAGE.to_string());
    }
    let args = REPL_STATUS_FLAGS.parse(argv)?;
    let mut client = connect(&args)?;
    let body = client.repl_heartbeat(args.get("dataset")).map_err(client_err)?;
    Ok(body.to_string())
}
