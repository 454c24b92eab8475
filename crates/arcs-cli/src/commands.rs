//! The CLI subcommands. Each command is a pure function from parsed
//! arguments to its printed output, so the test suite drives them without
//! spawning processes.

use std::fmt::Write as _;

use arcs_core::categorical::{segment_categorical, CategoricalConfig};
use arcs_core::engine::rule_grid;
use arcs_core::metrics::default_threads;
use arcs_core::optimizer::ThresholdLattice;
use arcs_core::render::render_clusters;
use arcs_core::select::{rank_attributes, select_pair_joint};
use arcs_core::wal::write_atomic;
use arcs_core::{Arcs, ArcsConfig, ArcsError, BinArray, Binner, GroupRef, SegmentRequest, Session};
use arcs_daemon::protocol::{CODE_NOT_PRIMARY, CODE_NO_DATASET, CODE_UNKNOWN_DATASET};
use arcs_data::csv::{load_csv_inferred_with_policy, save_csv};
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
use arcs_data::{Dataset, IngestPolicy, IngestReport};

use crate::args::{Args, ArgsError};

/// Top-level CLI error. The variants map to distinct process exit codes
/// (see [`CliError::exit_code`]) so scripts can tell a typo from a
/// corrupt input file from a bug from an expired deadline.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems (includes the usage string to print). Exit 2.
    Usage(String),
    /// The input data is bad: unreadable, malformed beyond the configured
    /// tolerance, or it does not support the requested analysis. Exit 3.
    Data(String),
    /// Anything else that went wrong while running. Exit 4.
    Run(String),
    /// A deadline expired or the serving core shed the request under
    /// overload — the run was healthy but could not answer in time.
    /// Exit 6 (5 is the budget-degraded *success* status).
    Timeout(String),
}

impl CliError {
    /// The process exit code for this error class: 2 usage, 3 data,
    /// 4 internal, 6 deadline/overload (5 marks budget-degraded success).
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 3,
            CliError::Run(_) => 4,
            CliError::Timeout(_) => EXIT_TIMEOUT,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg)
            | CliError::Data(msg)
            | CliError::Run(msg)
            | CliError::Timeout(msg) => {
                write!(f, "{msg}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(err: ArgsError) -> Self {
        CliError::Usage(err.to_string())
    }
}

fn run_err(err: impl std::fmt::Display) -> CliError {
    CliError::Run(err.to_string())
}

fn data_err(err: impl std::fmt::Display) -> CliError {
    CliError::Data(err.to_string())
}

/// The one exit-class table, keyed by stable error code (an
/// [`ArcsError::code`] or a daemon-level wire code), so an error exits
/// alike in process and over the wire: conditions caused by the *content*
/// of the input (no segmentation, unknown groups, attributes or datasets,
/// malformed rows, writes to a standby) are data errors (exit 3);
/// deadline expiry and load shedding are timeouts (exit 6); the rest are
/// internal (exit 4).
pub(crate) fn classify(code: &str, message: String) -> CliError {
    match code {
        "DATA" | "UNKNOWN_GROUP" | "NO_SEGMENTATION" | "ATTRIBUTE_KIND" | CODE_UNKNOWN_DATASET
        | CODE_NO_DATASET | CODE_NOT_PRIMARY => CliError::Data(message),
        "DEADLINE_EXCEEDED" | "OVERLOADED" => CliError::Timeout(message),
        _ => CliError::Run(message),
    }
}

/// Classifies a pipeline error through [`classify`].
fn pipeline_err(err: ArcsError) -> CliError {
    classify(err.code(), err.to_string())
}

/// The overall usage text.
pub const USAGE: &str = "\
arcs — Association Rule Clustering System (Lent, Swami, Widom; ICDE 1997)

USAGE:
    arcs <COMMAND> [OPTIONS]

COMMANDS:
    generate    Write a synthetic Agrawal dataset to CSV
    segment     Mine + cluster a CSV into clustered association rules
    explore     Show the support/confidence threshold lattice of a CSV
    rank        Rank attributes by mutual information with a criterion
    daemon      Serve datasets over TCP (the arcsd wire protocol)
    client      Run one operation against a running arcsd daemon
    repl-status Print a daemon's replication role and counters
    fsck        Audit/repair an arcsd --data-dir (WAL + checkpoints)
    help        Show this message

Run `arcs <COMMAND> --help` for command options.";

const GENERATE_USAGE: &str = "\
arcs generate --out <FILE> [--n 50000] [--function 2] [--perturbation 0.05]
              [--outliers 0.0] [--seed 42]

Writes |D| labelled tuples of the chosen Agrawal function (1-10) to CSV.";

const SEGMENT_USAGE: &str = "\
arcs segment <FILE> --criterion <ATTR> --group <LABEL>
             [--x <ATTR> --y <ATTR>]      (default: auto-select by joint MI)
             [--bins 50] [--sample 2000] [--seed 0]
             [--threads <N>] [--stats json] [--memory-budget <BYTES>]
             [--max-categories 16] [--grid] [--svg <FILE>] [--categorical <ATTR>]
             [--on-bad-row fail|skip|quarantine=<FILE>] [--max-bad-fraction 1.0]
             [--checkpoint <FILE>] [--resume <FILE>] [--checkpoint-every 100000]

Loads a CSV (schema inferred), segments the (x, y) space for the group,
and prints the clustered association rules. With --categorical, uses the
density-ordered categorical x-axis extension instead of --x; the sample,
budget, stats, grid, SVG and checkpoint flags do not apply to it and are
refused.

Execution and observability:
  --threads N         worker threads for the CSV load, binning and the
                      threshold search (default: all available cores);
                      results are bit-identical at any thread count
  --stats json        append a one-line JSON report of per-stage timings
                      and pipeline work counters to the output

Robustness options:
  --on-bad-row        fail on the first malformed row (default), skip bad
                      rows, or skip them and append the raw lines to a
                      quarantine file; skip/quarantine print an ingest report
  --max-bad-fraction  abort when more than this fraction of rows is bad
  --memory-budget B   cap the bin array at B bytes; when the requested grid
                      does not fit, bins are halved until it does (the run
                      then exits with code 5), and a budget too small for
                      even the coarsest grid refuses to start
  --checkpoint FILE   periodically checkpoint binning progress to FILE
  --resume FILE       resume binning from an earlier checkpoint of the same
                      run (the file must exist)";

const EXPLORE_USAGE: &str = "\
arcs explore <FILE> --x <ATTR> --y <ATTR> --criterion <ATTR> --group <LABEL>
             [--bins 50] [--levels 10] [--max-categories 16]

Prints the threshold lattice: the support levels occurring in the binned
data and the spread of rule counts across them.";

const RANK_USAGE: &str = "\
arcs rank <FILE> --criterion <ATTR> [--bins 20] [--max-categories 16]

Ranks quantitative attributes by mutual information with the criterion and
suggests the best pair by joint MI.";

/// Exit code for runs that completed, but only because the memory budget
/// forced the grid to a coarser resolution than requested.
pub const EXIT_BUDGET_DEGRADED: u8 = 5;

/// Exit code for runs that failed because a deadline expired or the
/// serving core shed every request under overload.
pub const EXIT_TIMEOUT: u8 = 6;

/// Dispatches a full argument vector (without the program name),
/// returning the rendered output plus the process exit status: `0` for a
/// clean run, [`EXIT_BUDGET_DEGRADED`] when the command succeeded under a
/// memory budget only by coarsening the grid.
pub fn dispatch_with_status(argv: &[String]) -> Result<(String, u8), CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    match command.as_str() {
        "generate" => generate(rest).map(|out| (out, 0)),
        "segment" => segment_with_status(rest),
        "explore" => explore(rest).map(|out| (out, 0)),
        "rank" => rank(rest).map(|out| (out, 0)),
        "daemon" => crate::daemon_cmd::daemon(rest).map(|out| (out, 0)),
        "client" => crate::daemon_cmd::client(rest).map(|out| (out, 0)),
        "repl-status" => crate::daemon_cmd::repl_status(rest).map(|out| (out, 0)),
        "fsck" => crate::daemon_cmd::fsck(rest),
        "help" | "--help" | "-h" => Ok((USAGE.to_string(), 0)),
        other => Err(CliError::Usage(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn wants_help(argv: &[String]) -> bool {
    argv.iter().any(|a| a == "--help" || a == "-h")
}

/// `arcs generate`: synthetic Agrawal data to CSV.
pub fn generate(argv: &[String]) -> Result<String, CliError> {
    if wants_help(argv) {
        return Ok(GENERATE_USAGE.to_string());
    }
    let args = Args::parse(
        argv.iter().cloned(),
        &["out", "n", "function", "perturbation", "outliers", "seed"],
        &[],
    )?;
    let out = args.require("out")?;
    let n: usize = args.get_or("n", 50_000)?;
    let function_no: usize = args.get_or("function", 2)?;
    let function = *arcs_data::agrawal::AgrawalFunction::ALL
        .get(function_no.wrapping_sub(1))
        .ok_or_else(|| CliError::Usage(format!("--function must be 1-10, got {function_no}")))?;
    let config = GeneratorConfig {
        function,
        perturbation: args.get_or("perturbation", 0.05)?,
        outlier_fraction: args.get_or("outliers", 0.0)?,
        frac_group_a: 0.40,
        seed: args.get_or("seed", 42u64)?,
    };
    let mut gen = AgrawalGenerator::new(config).map_err(run_err)?;
    let ds = gen.generate(n);
    save_csv(&ds, out).map_err(run_err)?;
    Ok(format!(
        "wrote {n} tuples of Agrawal F{function_no} to {out} ({} attributes)",
        ds.schema().arity()
    ))
}

/// Parses `--on-bad-row` / `--max-bad-fraction` into an [`IngestPolicy`]
/// plus the quarantine file path, if any.
fn ingest_policy(args: &Args) -> Result<(IngestPolicy, Option<String>), CliError> {
    let max_bad_fraction: f64 = args.get_or("max-bad-fraction", 1.0)?;
    if !(0.0..=1.0).contains(&max_bad_fraction) {
        return Err(CliError::Usage(format!(
            "--max-bad-fraction must be in [0, 1], got {max_bad_fraction}"
        )));
    }
    match args.get("on-bad-row").unwrap_or("fail") {
        "fail" => Ok((IngestPolicy::Strict, None)),
        "skip" => Ok((IngestPolicy::Skip { max_bad_fraction }, None)),
        other => match other.split_once('=') {
            Some(("quarantine", file)) if !file.is_empty() => {
                Ok((IngestPolicy::Quarantine { max_bad_fraction }, Some(file.to_string())))
            }
            _ => Err(CliError::Usage(format!(
                "--on-bad-row must be `fail`, `skip`, or `quarantine=<FILE>`, got `{other}`"
            ))),
        },
    }
}

/// Loads the input file, inferring its schema; both passes run on
/// `threads` workers.
fn load(args: &Args, usage: &str, threads: usize) -> Result<(Dataset, IngestReport), CliError> {
    let [path] = args.positional() else {
        return Err(CliError::Usage(format!("expected exactly one input file\n\n{usage}")));
    };
    let max_categories: usize = args.get_or("max-categories", 16)?;
    let (policy, quarantine_path) = ingest_policy(args)?;
    let mut sink = match &quarantine_path {
        Some(file) => Some(std::fs::File::create(file).map_err(run_err)?),
        None => None,
    };
    let quarantine = sink.as_mut().map(|f| f as &mut dyn std::io::Write);
    load_csv_inferred_with_policy(path, max_categories, policy, quarantine, threads)
        .map_err(data_err)
}

/// Renders the ingest report when anything was skipped, quarantined, or
/// repaired — clean strict loads stay silent.
fn ingest_summary(out: &mut String, report: &IngestReport) {
    if !report.is_clean() {
        let _ = writeln!(out, "ingest: {}", report.summary());
    }
}

/// Resolves `--group` to its code on the binner's criterion attribute.
/// An unknown label is a data error (exit 3), as [`pipeline_err`] maps
/// every [`ArcsError::UnknownGroup`].
fn group_code(binner: &Binner, group: &str) -> Result<u32, CliError> {
    GroupRef::Label(group.to_string()).resolve(binner.labels()).map_err(pipeline_err)
}

/// `--stats`: `json` appends the machine-readable report; any other
/// value is a usage error.
fn stats_flag(args: &Args) -> Result<bool, CliError> {
    match args.get("stats") {
        None => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(CliError::Usage(format!("--stats supports only `json`, got `{other}`"))),
    }
}

/// `--memory-budget BYTES`: absent means unbounded; zero is a usage
/// error.
fn memory_budget(args: &Args) -> Result<Option<usize>, CliError> {
    match args.get("memory-budget") {
        None => Ok(None),
        Some(_) => match args.get_or("memory-budget", 0)? {
            0 => Err(CliError::Usage("--memory-budget must be > 0 bytes".into())),
            bytes => Ok(Some(bytes)),
        },
    }
}

/// `--x`/`--y`: both name the LHS attributes, neither auto-selects the
/// pair by joint mutual information with the criterion (and notes the
/// choice in `out`); one alone is a usage error.
fn lhs_pair(
    args: &Args,
    ds: &Dataset,
    criterion: &str,
    out: &mut String,
) -> Result<(String, String), CliError> {
    match (args.get("x"), args.get("y")) {
        (Some(x), Some(y)) => Ok((x.to_string(), y.to_string())),
        (None, None) => {
            let pair = select_pair_joint(ds, criterion, 12, 8).map_err(run_err)?;
            let _ =
                writeln!(out, "auto-selected LHS attributes by joint MI: {}, {}", pair.0, pair.1);
            Ok(pair)
        }
        _ => Err(CliError::Usage("provide both --x and --y, or neither (auto-select)".into())),
    }
}

/// `arcs segment`: the paper's end-to-end pipeline over a CSV file.
/// Returns the rendered output plus the exit status (0 clean,
/// [`EXIT_BUDGET_DEGRADED`] when a memory budget forced a coarser grid).
fn segment_with_status(argv: &[String]) -> Result<(String, u8), CliError> {
    if wants_help(argv) {
        return Ok((SEGMENT_USAGE.to_string(), 0));
    }
    let args = Args::parse(
        argv.iter().cloned(),
        &[
            "x",
            "y",
            "criterion",
            "group",
            "bins",
            "sample",
            "seed",
            "threads",
            "stats",
            "memory-budget",
            "max-categories",
            "categorical",
            "svg",
            "on-bad-row",
            "max-bad-fraction",
            "checkpoint",
            "resume",
            "checkpoint-every",
        ],
        &["grid"],
    )?;
    // The categorical search bins and verifies on its own: these flags
    // only drive the quantitative pipeline, so refuse them up front.
    if args.get("categorical").is_some() {
        let quantitative_only = [
            "x",
            "sample",
            "seed",
            "stats",
            "memory-budget",
            "grid",
            "svg",
            "checkpoint",
            "resume",
            "checkpoint-every",
        ];
        if let Some(flag) =
            quantitative_only.iter().find(|&&f| args.get(f).is_some() || args.has(f))
        {
            return Err(CliError::Usage(format!("--{flag} does not apply with --categorical")));
        }
    }
    let threads: Option<usize> = match args.get("threads") {
        None => None,
        Some(_) => {
            let t: usize = args.get_or("threads", 0)?;
            if t == 0 {
                return Err(CliError::Usage("--threads must be > 0".into()));
            }
            Some(t)
        }
    };
    let (ds, report) = load(&args, SEGMENT_USAGE, threads.unwrap_or_else(default_threads))?;
    if ds.is_empty() {
        return Err(CliError::Data("no usable rows in the input".into()));
    }
    let criterion = args.require("criterion")?;
    let group = args.require("group")?;
    let bins: usize = args.get_or("bins", 50)?;
    let want_stats = stats_flag(&args)?;
    let memory_budget = memory_budget(&args)?;
    let checkpoint_every: usize = args.get_or("checkpoint-every", 100_000)?;
    if checkpoint_every == 0 {
        return Err(CliError::Usage("--checkpoint-every must be > 0 rows".into()));
    }

    let mut out = String::new();
    ingest_summary(&mut out, &report);

    // Categorical x-axis mode (§5 extension).
    if let Some(cat_attr) = args.get("categorical") {
        let y_attr = args.require("y")?;
        let config = CategoricalConfig { n_quant_bins: bins, ..CategoricalConfig::default() };
        let seg = segment_categorical(&ds, cat_attr, y_attr, criterion, group, &config)
            .map_err(pipeline_err)?;
        let _ = writeln!(
            out,
            "clustered rules for {criterion} = {group} ({} tuples, categorical x):",
            ds.len()
        );
        for rule in &seg.rules {
            let _ = writeln!(
                out,
                "  {rule}   (support {:.3}, confidence {:.2})",
                rule.support, rule.confidence
            );
        }
        let _ = writeln!(
            out,
            "error rate {:.2}%, MDL cost {:.3}",
            seg.errors.rate() * 100.0,
            seg.score.cost
        );
        return Ok((out, 0));
    }

    // Standard quantitative x/y mode; auto-select attributes when omitted.
    let (x_attr, y_attr) = lhs_pair(&args, &ds, criterion, &mut out)?;

    let mut config = ArcsConfig {
        n_x_bins: bins,
        n_y_bins: bins,
        sample_size: args.get_or("sample", 2_000)?,
        seed: args.get_or("seed", 0u64)?,
        memory_budget,
        ..ArcsConfig::default()
    };
    if let Some(t) = threads {
        config.threads = t;
        config.optimizer.threads = t;
        config.optimizer.bitop.threads = t;
    }
    let arcs = Arcs::new(config).map_err(run_err)?;

    // Checkpointed binning: bin in chunks with a snapshot after each, so
    // an interrupted run restarts from the last snapshot instead of row 0.
    let ckpt_path = match (args.get("checkpoint"), args.get("resume")) {
        (Some(c), Some(r)) if c != r => {
            return Err(CliError::Usage(
                "--checkpoint and --resume must name the same file \
                 (resume continues checkpointing in place)"
                    .into(),
            ))
        }
        (c, r) => {
            if let Some(r) = r {
                if !std::path::Path::new(r).exists() {
                    return Err(CliError::Data(format!(
                        "--resume checkpoint `{r}` does not exist"
                    )));
                }
            }
            r.or(c)
        }
    };

    let request = SegmentRequest::new(&x_attr, &y_attr, criterion).group(group);
    let mut session = match ckpt_path {
        Some(ckpt) => open_checkpointed(&arcs, &ds, request, ckpt, checkpoint_every, &mut out)?,
        None => arcs.open(&ds, request).map_err(pipeline_err)?,
    };
    let seg = session.segment().map_err(pipeline_err)?;
    let budget_steps = session.budget_coarsening_steps();

    if budget_steps > 0 {
        let _ = writeln!(
            out,
            "note: the memory budget forced {budget_steps} bin-halving step(s); \
             results use a coarser grid than requested (exit code {EXIT_BUDGET_DEGRADED})"
        );
    }
    let ladder_steps: Vec<&str> = seg
        .relaxation_steps
        .iter()
        .map(String::as_str)
        .filter(|s| !s.starts_with("budget-coarsen"))
        .collect();
    if !ladder_steps.is_empty() {
        let _ = writeln!(
            out,
            "note: thresholds were too tight for a normal segmentation; \
             degraded result via relaxations: {}",
            ladder_steps.join(" -> ")
        );
    }
    let _ = writeln!(
        out,
        "clustered rules for {criterion} = {group} ({} tuples, {} evaluations):",
        ds.len(),
        seg.evaluations
    );
    for rule in &seg.rules {
        let _ = writeln!(
            out,
            "  {rule}   (support {:.3}, confidence {:.2})",
            rule.support, rule.confidence
        );
    }
    let _ = writeln!(
        out,
        "thresholds: support >= {:.5}, confidence >= {:.3}",
        seg.thresholds.min_support, seg.thresholds.min_confidence
    );
    let _ = writeln!(
        out,
        "sample error rate {:.2}%, group recall {:.0}%, MDL cost {:.3}",
        seg.errors.rate() * 100.0,
        seg.errors.recall() * 100.0,
        seg.score.cost
    );

    if args.has("grid") || args.get("svg").is_some() {
        // Render the grid that was clustered: the session's own array,
        // which a memory budget may have coarsened below `--bins`.
        let gk = group_code(session.binner(), group)?;
        let grid = rule_grid(session.bin_array(), gk, seg.thresholds).map_err(run_err)?;
        if args.has("grid") {
            let _ = writeln!(out, "\nrule grid ({y_attr} rows x {x_attr} columns):");
            out.push_str(&render_clusters(&grid, &seg.clusters));
        }
        if let Some(svg_path) = args.get("svg") {
            let svg = arcs_core::render::render_svg(&grid, &seg.clusters, 12);
            std::fs::write(svg_path, svg).map_err(run_err)?;
            let _ = writeln!(out, "wrote cluster plot to {svg_path}");
        }
    }
    if want_stats {
        let _ = writeln!(out, "{}", session.report().to_json());
    }
    let status = if budget_steps > 0 { EXIT_BUDGET_DEGRADED } else { 0 };
    Ok((out, status))
}

/// Opens the session of a `--checkpoint`/`--resume` run. The checkpoint
/// is a [`BinArray`] snapshot of the dataset's first `n_tuples` rows:
/// when `path` holds one the run resumes after those rows, then it bins
/// the rest `every` rows at a time, replacing the snapshot through the
/// fsyncing [`write_atomic`] after each chunk.
fn open_checkpointed(
    arcs: &Arcs,
    ds: &Dataset,
    request: SegmentRequest,
    path: &str,
    every: usize,
    out: &mut String,
) -> Result<Session, CliError> {
    let prefix = match std::fs::read(path) {
        Ok(bytes) => Some(BinArray::read_from(&mut bytes.as_slice()).map_err(pipeline_err)?),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => None,
        Err(err) => return Err(run_err(err)),
    };
    let mut session = arcs.open_binned(ds, prefix, request).map_err(pipeline_err)?;
    let resume_at = session.bin_array().n_tuples() as usize;
    if resume_at > 0 {
        let _ = writeln!(out, "resumed from checkpoint {path} covering {resume_at} tuples");
    }
    let mut bytes = Vec::new();
    for chunk in ds.rows()[resume_at..].chunks(every) {
        session.append_rows(chunk).map_err(pipeline_err)?;
        bytes.clear();
        session.bin_array().write_to(&mut bytes).map_err(pipeline_err)?;
        write_atomic(std::path::Path::new(path), &bytes).map_err(pipeline_err)?;
    }
    Ok(session)
}

/// `arcs explore`: print the Figure 10 threshold lattice.
pub fn explore(argv: &[String]) -> Result<String, CliError> {
    if wants_help(argv) {
        return Ok(EXPLORE_USAGE.to_string());
    }
    let args = Args::parse(
        argv.iter().cloned(),
        &[
            "x",
            "y",
            "criterion",
            "group",
            "bins",
            "levels",
            "max-categories",
            "on-bad-row",
            "max-bad-fraction",
        ],
        &[],
    )?;
    let (ds, report) = load(&args, EXPLORE_USAGE, default_threads())?;
    let x = args.require("x")?;
    let y = args.require("y")?;
    let criterion = args.require("criterion")?;
    let group = args.require("group")?;
    let bins: usize = args.get_or("bins", 50)?;
    let levels: usize = args.get_or("levels", 10)?;

    let binner = Binner::equi_width(ds.schema(), x, y, criterion, bins, bins).map_err(run_err)?;
    let gk = group_code(&binner, group)?;
    let array = binner.bin_rows(ds.iter()).map_err(run_err)?;
    let lattice = ThresholdLattice::build(&array, gk);

    let mut out = String::new();
    ingest_summary(&mut out, &report);
    let _ = writeln!(
        out,
        "threshold lattice for {criterion} = {group}: {} distinct support levels\n",
        lattice.supports().len()
    );
    let _ = writeln!(out, "{:>12} {:>12} {:>8}", "support", "confidences", "rules");
    let step = (lattice.supports().len() / levels.max(1)).max(1);
    for (i, &s) in lattice.supports().iter().enumerate().step_by(step) {
        let confs = lattice.confidences_for(i);
        let thresholds = arcs_core::Thresholds::new((s - 1e-12).max(0.0), 0.0).map_err(run_err)?;
        let n_rules = arcs_core::engine::mine_rules(&array, gk, thresholds).len();
        let _ = writeln!(out, "{s:>12.6} {:>12} {n_rules:>8}", confs.len());
    }
    out.push_str(
        "\n(re-mining at any of these thresholds touches only the BinArray — paper §3.2)\n",
    );
    Ok(out)
}

/// `arcs rank`: attribute selection report.
pub fn rank(argv: &[String]) -> Result<String, CliError> {
    if wants_help(argv) {
        return Ok(RANK_USAGE.to_string());
    }
    let args = Args::parse(
        argv.iter().cloned(),
        &["criterion", "bins", "max-categories", "on-bad-row", "max-bad-fraction"],
        &[],
    )?;
    let (ds, report) = load(&args, RANK_USAGE, default_threads())?;
    let criterion = args.require("criterion")?;
    let bins: usize = args.get_or("bins", 20)?;

    let ranked = rank_attributes(&ds, criterion, bins).map_err(pipeline_err)?;
    let mut out = String::new();
    ingest_summary(&mut out, &report);
    let _ = writeln!(out, "mutual information with `{criterion}` ({bins} bins):");
    for score in &ranked {
        let _ = writeln!(out, "  {:<20} {:.4} bits", score.name, score.mutual_information);
    }
    if ranked.len() >= 2 {
        let (a, b) = select_pair_joint(&ds, criterion, bins, 8).map_err(run_err)?;
        let _ = writeln!(out, "best pair by joint MI: {a}, {b}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`dispatch_with_status`] minus the status, for tests that only
    /// care about the rendered output.
    fn dispatch(argv: &[String]) -> Result<String, CliError> {
        dispatch_with_status(argv).map(|(out, _)| out)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("arcs-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    /// Every `ArcsError` variant (the list error.rs's
    /// `wire_codes_are_stable_and_distinct` pins) exits with the same code
    /// whether it is raised in process or arrives as a daemon's wire error.
    #[test]
    fn in_process_and_wire_errors_exit_alike() {
        use arcs_daemon::protocol::WireError;
        use arcs_daemon::ClientError;
        use arcs_data::DataError;

        let samples = || {
            vec![
                ArcsError::InvalidConfig("x".into()),
                ArcsError::AttributeKind { attribute: "a".into(), expected: "quantitative" },
                ArcsError::UnknownGroup("g".into()),
                ArcsError::OutOfBounds { what: "w".into() },
                ArcsError::Data(DataError::UnknownAttribute("x".into())),
                ArcsError::NoSegmentation,
                ArcsError::Io("io".into()),
                ArcsError::Checkpoint { message: "c".into() },
                ArcsError::GridTooLarge { nx: 1, ny: 1, nseg: 1 },
                ArcsError::BudgetExceeded { required_bytes: 2, budget_bytes: 1 },
                ArcsError::AllocationFailed { what: "w".into() },
                ArcsError::WorkerPanicked { stage: "s", message: "m".into() },
                ArcsError::FaultInjected { point: "p" },
                ArcsError::DeadlineExceeded { stage: "s" },
                ArcsError::Overloaded { inflight: 1, queued: 1 },
            ]
        };
        let mut classes = std::collections::BTreeSet::new();
        for (local, remote) in samples().into_iter().zip(samples()) {
            let code = local.code();
            let in_process = pipeline_err(local).exit_code();
            let wire =
                crate::daemon_cmd::client_err(ClientError::Wire(WireError::from_arcs(&remote)))
                    .exit_code();
            assert_eq!(in_process, wire, "{code}");
            classes.insert(in_process);
        }
        assert_eq!(classes.into_iter().collect::<Vec<_>>(), [3, 4, EXIT_TIMEOUT]);
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&argv(&["help"])).unwrap().contains("USAGE"));
        for cmd in ["bogus", "serve"] {
            let err = dispatch(&argv(&[cmd])).unwrap_err();
            assert!(err.to_string().starts_with("unknown command"), "{cmd}: {err}");
            assert_eq!(err.exit_code(), 2);
        }
        assert!(matches!(dispatch(&[]), Err(CliError::Usage(_))));
        for cmd in ["generate", "segment", "explore", "rank"] {
            let out = dispatch(&argv(&[cmd, "--help"])).unwrap();
            assert!(out.contains(cmd), "{cmd} help: {out}");
        }
    }

    #[test]
    fn generate_then_segment_roundtrip() {
        let path = tmp("f2.csv");
        let path_str = path.to_str().expect("utf-8 path");
        let msg = dispatch(&argv(&["generate", "--out", path_str, "--n", "20000", "--seed", "7"]))
            .unwrap();
        assert!(msg.contains("20000 tuples"));

        let out = dispatch(&argv(&[
            "segment",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
        ]))
        .unwrap();
        assert!(out.contains("=>  group = A"), "{out}");
        assert!(out.contains("thresholds"), "{out}");
        // F2 at 20k tuples: a compact segmentation near the three disjuncts
        // (the exact count is seed-sensitive at this size).
        let n_rules = out.matches("=>  group = A").count();
        assert!((2..=5).contains(&n_rules), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_autoselects_attributes() {
        let path = tmp("f2_auto.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "15000"])).unwrap();
        let out = dispatch(&argv(&["segment", path_str, "--criterion", "group", "--group", "A"]))
            .unwrap();
        assert!(out.contains("auto-selected"), "{out}");
        assert!(out.contains("age"), "{out}");
        assert!(out.contains("salary"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_grid_rendering() {
        let path = tmp("f2_grid.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "10000"])).unwrap();
        let out = dispatch(&argv(&[
            "segment",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
            "--grid",
            "--bins",
            "30",
        ]))
        .unwrap();
        assert!(out.contains("rule grid"), "{out}");
        assert!(out.contains('A'), "{out}");
        std::fs::remove_file(&path).ok();
    }

    /// Under a memory budget the render shows the grid that was
    /// clustered: 20 requested bins coarsened to 10 x 10, not a fresh
    /// 20 x 20 re-bin of the data.
    #[test]
    fn budget_coarsened_grid_renders_at_the_clustered_resolution() {
        let path = tmp("f2_budget_grid.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "20000", "--seed", "3"])).unwrap();
        let (out, status) = dispatch_with_status(&argv(&[
            "segment",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
            "--bins",
            "20",
            "--memory-budget",
            "1500",
            "--grid",
        ]))
        .unwrap();
        assert_eq!(status, EXIT_BUDGET_DEGRADED);
        let rows: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("rule grid"))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        assert_eq!(rows.len(), 10, "{out}");
        assert!(rows.iter().all(|r| r.chars().count() == 10), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_writes_svg() {
        let path = tmp("f2_svg_data.csv");
        let path_str = path.to_str().expect("utf-8 path");
        let svg_path = tmp("f2_plot.svg");
        let svg_str = svg_path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "10000"])).unwrap();
        let out = dispatch(&argv(&[
            "segment",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
            "--svg",
            svg_str,
            "--bins",
            "30",
        ]))
        .unwrap();
        assert!(out.contains("wrote cluster plot"), "{out}");
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("stroke"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&svg_path).ok();
    }

    #[test]
    fn explore_shows_the_lattice() {
        let path = tmp("f2_explore.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "10000"])).unwrap();
        let out = dispatch(&argv(&[
            "explore",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
        ]))
        .unwrap();
        assert!(out.contains("distinct support levels"), "{out}");
        assert!(out.contains("BinArray"), "{out}");

        // An unknown group is a data error (exit 3), as in segment.
        let err = dispatch(&argv(&[
            "explore",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "Z",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rank_reports_mi() {
        let path = tmp("f2_rank.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "10000"])).unwrap();
        let out = dispatch(&argv(&["rank", path_str, "--criterion", "group"])).unwrap();
        assert!(out.contains("salary"), "{out}");
        assert!(out.contains("best pair by joint MI"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_categorical_mode() {
        let path = tmp("f8_cat.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "15000", "--function", "8"]))
            .unwrap();
        let out = dispatch(&argv(&[
            "segment",
            path_str,
            "--categorical",
            "elevel",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
            "--bins",
            "20",
        ]))
        .unwrap();
        assert!(out.contains("elevel IN {"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    /// `--categorical` runs its own search: each flag of the quantitative
    /// pipeline is refused by name instead of being silently ignored.
    #[test]
    fn segment_categorical_refuses_quantitative_flags() {
        let path = tmp("f2_cat_flags.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "500", "--seed", "3"])).unwrap();
        let ckpt = tmp("f2_cat_flags.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let ckpt_str = ckpt.to_str().expect("utf-8 path");
        let base = [
            "segment",
            path_str,
            "--categorical",
            "elevel",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
        ];
        for extra in [
            &["--x", "age"][..],
            &["--sample", "100"],
            &["--seed", "1"],
            &["--stats", "json"],
            &["--memory-budget", "100000"],
            &["--grid"],
            &["--svg", "plot.svg"],
            &["--checkpoint", ckpt_str],
            &["--resume", ckpt_str],
            &["--checkpoint-every", "100"],
        ] {
            let err = dispatch(&argv(&[&base[..], extra].concat())).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra:?}: {err}");
            assert!(err.to_string().starts_with(&format!("{} ", extra[0])), "{extra:?}: {err}");
        }
        assert!(!ckpt.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usage_errors_are_informative() {
        assert!(matches!(dispatch(&argv(&["generate"])), Err(CliError::Usage(_))));
        assert!(matches!(
            dispatch(&argv(&["segment", "--criterion", "g"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&argv(&["generate", "--out", "/tmp/x.csv", "--function", "11"])),
            Err(CliError::Usage(_))
        ));
        // --x without --y.
        let path = tmp("f2_bad.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "500"])).unwrap();
        assert!(matches!(
            dispatch(&argv(&[
                "segment",
                path_str,
                "--x",
                "age",
                "--criterion",
                "group",
                "--group",
                "A"
            ])),
            Err(CliError::Usage(_))
        ));
        // A zero checkpoint interval.
        let ckpt = tmp("f2_bad.ckpt");
        assert!(matches!(
            dispatch(&argv(&[
                "segment",
                path_str,
                "--x",
                "age",
                "--y",
                "salary",
                "--criterion",
                "group",
                "--group",
                "A",
                "--checkpoint",
                ckpt.to_str().expect("utf-8 path"),
                "--checkpoint-every",
                "0",
            ])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn missing_file_is_a_data_error() {
        let err =
            dispatch(&argv(&["segment", "/nonexistent/x.csv", "--criterion", "g", "--group", "A"]))
                .unwrap_err();
        assert!(matches!(err, CliError::Data(_)));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn error_classes_map_to_exit_codes() {
        assert_eq!(CliError::Usage(String::new()).exit_code(), 2);
        assert_eq!(CliError::Data(String::new()).exit_code(), 3);
        assert_eq!(CliError::Run(String::new()).exit_code(), 4);
        assert_eq!(CliError::Timeout(String::new()).exit_code(), 6);
        assert_eq!(EXIT_TIMEOUT, 6);
    }

    #[test]
    fn bad_on_bad_row_value_is_a_usage_error() {
        let err = dispatch(&argv(&[
            "segment",
            "x.csv",
            "--criterion",
            "g",
            "--group",
            "A",
            "--on-bad-row",
            "explode",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = dispatch(&argv(&[
            "segment",
            "x.csv",
            "--criterion",
            "g",
            "--group",
            "A",
            "--max-bad-fraction",
            "1.5",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    /// End-to-end robustness: a CSV with >5% corrupted rows fails under
    /// the default strict policy, completes under skip with an accurate
    /// ingest report, and quarantines the raw bad lines on request.
    #[test]
    fn segment_survives_corrupted_csv_under_skip() {
        let clean = tmp("robust_clean.csv");
        let clean_str = clean.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", clean_str, "--n", "8000", "--seed", "11"])).unwrap();

        // Corrupt ~10% of the data lines deterministically.
        let text = std::fs::read_to_string(&clean).unwrap();
        let mut lines: Vec<String> = text.lines().map(ToString::to_string).collect();
        let mut corrupted = 0usize;
        for (i, line) in lines.iter_mut().enumerate().skip(1) {
            match i % 10 {
                3 => *line = "not,even,numbers".to_string(),
                7 => *line = line.rsplit_once(',').map(|(l, _)| l.to_string()).unwrap(),
                _ => continue,
            }
            corrupted += 1;
        }
        let dirty = tmp("robust_dirty.csv");
        let dirty_str = dirty.to_str().expect("utf-8 path");
        std::fs::write(&dirty, lines.join("\n")).unwrap();

        let base = [
            "segment",
            dirty_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
        ];

        // Default (fail): a data error naming the first bad line.
        let err = dispatch(&argv(&base)).unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "{err}");
        assert_eq!(err.exit_code(), 3);

        // Skip: completes, and the report counts every injected bad row.
        let mut skip_args = base.to_vec();
        skip_args.extend(["--on-bad-row", "skip"]);
        let out = dispatch(&argv(&skip_args)).unwrap();
        assert!(out.contains("ingest:"), "{out}");
        assert!(out.contains(&format!("skipped {corrupted}")), "{out}");
        assert!(out.contains("=>  group = A"), "{out}");

        // Quarantine: the raw bad lines land in the side file.
        let qfile = tmp("robust_quarantine.csv");
        let qarg = format!("quarantine={}", qfile.to_str().expect("utf-8 path"));
        let mut q_args = base.to_vec();
        q_args.extend(["--on-bad-row", &qarg]);
        let out = dispatch(&argv(&q_args)).unwrap();
        assert!(out.contains(&format!("quarantined {corrupted}")), "{out}");
        let quarantined = std::fs::read_to_string(&qfile).unwrap();
        assert_eq!(quarantined.lines().count(), corrupted);
        assert!(quarantined.contains("not,even,numbers"), "{quarantined}");

        // A bad-fraction ceiling below the corruption rate aborts.
        let mut tight_args = skip_args.clone();
        tight_args.extend(["--max-bad-fraction", "0.05"]);
        let err = dispatch(&argv(&tight_args)).unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "{err}");

        std::fs::remove_file(&clean).ok();
        std::fs::remove_file(&dirty).ok();
        std::fs::remove_file(&qfile).ok();
    }

    /// `--threads` bounds the CSV load too, and the load's output does not
    /// depend on it: a dirty file of about 700 KB, six 128 KiB ranges,
    /// prints the same bytes, ingest report included, and quarantines the
    /// same lines at one thread and at four.
    #[test]
    fn segment_loads_a_multi_range_file_alike_at_any_thread_count() {
        use std::fmt::Write as _;
        let path = tmp("wide_dirty.csv");
        let note = "n".repeat(100);
        let mut text = String::from("x,y,group,note\n");
        for i in 0..6_000u32 {
            let (x, y) = ((i * 37 % 1_000) as f64 / 10.0, (i * 91 % 1_000) as f64 / 10.0);
            let group = if x < 40.0 && y < 50.0 { "A" } else { "other" };
            match i % 97 {
                13 => text.push_str("garbage,here\n"),
                41 => writeln!(text, "abc,{y},{group},{note}").unwrap(),
                _ => writeln!(text, "{x},{y},{group},{note}").unwrap(),
            }
        }
        assert!(text.len() > 5 * (128 << 10), "{} bytes", text.len());
        std::fs::write(&path, &text).unwrap();
        let run = |threads: &str| {
            let sink = tmp(&format!("wide_dirty_bad_{threads}.csv"));
            let quarantine = format!("quarantine={}", sink.display());
            let out = dispatch(&argv(&[
                "segment",
                path.to_str().unwrap(),
                "--x",
                "x",
                "--y",
                "y",
                "--criterion",
                "group",
                "--group",
                "A",
                "--bins",
                "10",
                "--on-bad-row",
                &quarantine,
                "--threads",
                threads,
            ]))
            .unwrap();
            let bad = std::fs::read(&sink).unwrap();
            std::fs::remove_file(&sink).ok();
            (out, bad)
        };
        let (one, four) = (run("1"), run("4"));
        assert!(one.0.contains("ingest: rows read 6000, kept 5876, skipped 124"), "{}", one.0);
        assert_eq!(one.1.iter().filter(|&&b| b == b'\n').count(), 124);
        assert_eq!(one, four);
        std::fs::remove_file(&path).ok();
    }

    /// `--stats json` appends a machine-readable pipeline report; thread
    /// count must not change the mined rules.
    #[test]
    fn segment_stats_json_and_threads() {
        let path = tmp("f2_stats.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "12000", "--seed", "5"])).unwrap();
        let base = [
            "segment",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
            "--bins",
            "30",
        ];

        let mut stats_args = base.to_vec();
        stats_args.extend(["--stats", "json", "--threads", "4"]);
        let out = dispatch(&argv(&stats_args)).unwrap();
        let json_line = out
            .lines()
            .find(|l| l.starts_with('{'))
            .unwrap_or_else(|| panic!("no JSON stats line in: {out}"));
        for key in [
            "\"schema_version\":1",
            "\"threads\":4",
            "\"timings_ms\"",
            "\"binning\"",
            "\"counters\"",
            "\"tuples_binned\":12000",
            "\"rules_emitted\"",
        ] {
            assert!(json_line.contains(key), "missing {key} in: {json_line}");
        }

        // Same rules at 1 and 4 threads; stats line stripped (timings vary).
        let body = |s: &str| -> String {
            s.lines().filter(|l| !l.starts_with('{')).collect::<Vec<_>>().join("\n")
        };
        let mut t1 = base.to_vec();
        t1.extend(["--threads", "1", "--stats", "json"]);
        let mut t4 = base.to_vec();
        t4.extend(["--threads", "4", "--stats", "json"]);
        let one = dispatch(&argv(&t1)).unwrap();
        assert_eq!(body(&one), body(&dispatch(&argv(&t4)).unwrap()));
        // `--threads 1` bounds every parallel stage, BitOp included: one
        // worker slot, nothing run on a pool thread.
        let json_line = one.lines().find(|l| l.starts_with('{')).expect("stats line");
        let stats = arcs_core::jsonio::parse(json_line).unwrap();
        for (counter, want) in [("workers_effective", 1), ("pool_steals", 0)] {
            let got = stats.get("counters").and_then(|c| c.get(counter)).and_then(|v| v.as_u64());
            assert_eq!(got, Some(want), "{counter} in: {json_line}");
        }

        // A checkpointed run times its binning and sampling too.
        let ckpt = tmp("f2_stats.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let mut ck_args = base.to_vec();
        ck_args.extend(["--stats", "json", "--checkpoint", ckpt.to_str().expect("utf-8 path")]);
        let out = dispatch(&argv(&ck_args)).unwrap();
        let json_line = out.lines().find(|l| l.starts_with('{')).expect("stats line");
        let stats = arcs_core::jsonio::parse(json_line).unwrap();
        for stage in ["binning", "sampling"] {
            let ms = stats.get("timings_ms").and_then(|t| t.get(stage)).and_then(|v| v.as_f64());
            assert!(ms.is_some_and(|ms| ms > 0.0), "{stage} untimed in: {json_line}");
        }
        std::fs::remove_file(&ckpt).ok();

        // Bad values are usage errors.
        let mut bad_stats = base.to_vec();
        bad_stats.extend(["--stats", "yaml"]);
        assert!(matches!(dispatch(&argv(&bad_stats)), Err(CliError::Usage(_))));
        let mut bad_threads = base.to_vec();
        bad_threads.extend(["--threads", "0"]);
        assert!(matches!(dispatch(&argv(&bad_threads)), Err(CliError::Usage(_))));
        std::fs::remove_file(&path).ok();
    }

    /// `--memory-budget`: a budget below the requested grid coarsens the
    /// bins, prints a note, and exits with the budget-degraded status; an
    /// impossible budget refuses to run; zero is a usage error.
    #[test]
    fn segment_memory_budget_degrades_and_signals() {
        let path = tmp("f2_budget.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "8000", "--seed", "9"])).unwrap();
        let base = [
            "segment",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
        ];

        // Unbudgeted runs report a clean exit status.
        let (_, status) = dispatch_with_status(&argv(&base)).unwrap();
        assert_eq!(status, 0);

        // The default 50 x 50 grid with 2 groups needs 30000 bytes; a
        // 10000-byte budget forces two halvings down to 25 x 25.
        let mut tight = base.to_vec();
        tight.extend(["--memory-budget", "10000", "--stats", "json"]);
        let (out, status) = dispatch_with_status(&argv(&tight)).unwrap();
        assert_eq!(status, EXIT_BUDGET_DEGRADED);
        assert!(out.contains("memory budget forced 2 bin-halving"), "{out}");
        assert!(out.contains("\"budget_coarsening_steps\":2"), "{out}");
        assert!(out.contains("=>  group = A"), "{out}");

        // A checkpointed run bins onto the same coarsened grid: the same
        // output and the same degraded status as the plain run.
        let ckpt = tmp("f2_budget.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let mut plain = base.to_vec();
        plain.extend(["--memory-budget", "10000"]);
        let mut checkpointed = plain.clone();
        checkpointed.extend(["--checkpoint", ckpt.to_str().expect("utf-8 path")]);
        let expected = dispatch_with_status(&argv(&plain)).unwrap();
        assert_eq!(expected.1, EXIT_BUDGET_DEGRADED);
        assert_eq!(dispatch_with_status(&argv(&checkpointed)).unwrap(), expected);
        std::fs::remove_file(&ckpt).ok();

        // Below even the coarsest useful grid: refused, not coarsened away.
        let mut impossible = base.to_vec();
        impossible.extend(["--memory-budget", "10"]);
        let err = dispatch(&argv(&impossible)).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err}");
        assert!(err.to_string().contains("memory budget exceeded"), "{err}");

        let mut zero = base.to_vec();
        zero.extend(["--memory-budget", "0"]);
        assert!(matches!(dispatch(&argv(&zero)), Err(CliError::Usage(_))));

        std::fs::remove_file(&path).ok();
    }

    /// The --checkpoint/--resume flags: an interrupted binning pass picks
    /// up from the snapshot and yields the same segmentation as a clean
    /// run.
    #[test]
    fn segment_checkpoint_and_resume() {
        let path = tmp("ckpt_data.csv");
        let path_str = path.to_str().expect("utf-8 path");
        dispatch(&argv(&["generate", "--out", path_str, "--n", "12000", "--seed", "3"])).unwrap();
        let ckpt = tmp("ckpt_file.bin");
        let ckpt_str = ckpt.to_str().expect("utf-8 path");
        std::fs::remove_file(&ckpt).ok();

        let base = [
            "segment",
            path_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
            "--bins",
            "30",
        ];
        let reference = dispatch(&argv(&base)).unwrap();

        // Full checkpointed run: same rules as the plain run.
        let mut ck_args = base.to_vec();
        ck_args.extend(["--checkpoint", ckpt_str, "--checkpoint-every", "4000"]);
        let checkpointed = dispatch(&argv(&ck_args)).unwrap();
        assert_eq!(checkpointed, reference);

        // The checkpoint now covers the whole file: a --resume run skips
        // all binning work and reproduces the result.
        let mut re_args = base.to_vec();
        re_args.extend(["--resume", ckpt_str]);
        let resumed = dispatch(&argv(&re_args)).unwrap();
        assert!(resumed.contains("resumed from checkpoint"), "{resumed}");
        assert!(resumed.contains("=>  group = A"), "{resumed}");
        // Identical modulo the resume banner.
        let resumed_body: String = resumed
            .lines()
            .filter(|l| !l.starts_with("resumed from checkpoint"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(resumed_body, reference);

        // Resuming from a missing file is a data error.
        let mut missing_args = base.to_vec();
        missing_args.extend(["--resume", "/nonexistent/ckpt.bin"]);
        assert!(matches!(dispatch(&argv(&missing_args)).unwrap_err(), CliError::Data(_)));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
    }
}
