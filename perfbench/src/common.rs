//! Shared plumbing: arguments, seeded inputs, the environment block,
//! latency statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};

/// Rows in the base input (the paper's 1M-tuple Fig 15 point).
pub const BASE_ROWS: usize = 1_000_000;
/// Thread count pinned on every interface that exposes one.
pub const PINNED_THREADS: usize = 2;
/// Bins per axis: the paper's 50×50 preset.
pub const BINS: usize = 50;
/// `load_csv_inferred` category cap, as `arcs segment` and `arcs daemon` use.
pub const MAX_CATEGORIES: usize = 16;
/// The segmentation task: the F2 plane and its target group.
pub const X_ATTR: &str = "age";
pub const Y_ATTR: &str = "salary";
pub const CRITERION: &str = "group";
pub const GROUP: &str = "A";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `arcs` release binary serving the daemon workloads.
    pub arcs_bin: PathBuf,
    /// Scratch directory for inputs and daemon data; removed at exit.
    pub work_dir: PathBuf,
    pub commit: String,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        let mut need = |name: &str| map.remove(name).ok_or_else(|| format!("missing --{name}"));
        let trace = match need("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        };
        let seconds = need("seconds")?;
        let seconds = seconds
            .parse::<f64>()
            .map_err(|_| format!("--seconds expects a number, got `{seconds}`"))?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be > 0".into());
        }
        let args = Args {
            workload: need("workload")?,
            seed: need("seed")?
                .parse()
                .map_err(|_| "--seed expects an integer".to_string())?,
            seconds,
            trace,
            arcs_bin: PathBuf::from(need("arcs")?),
            work_dir: PathBuf::from(need("work-dir")?),
            commit: need("commit").unwrap_or_else(|_| "unknown".into()),
        };
        match map.keys().next() {
            Some(extra) => Err(format!("unknown flag --{extra}")),
            None => Ok(args),
        }
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Writes [`BASE_ROWS`] Agrawal F2 tuples (paper defaults, `seed`) as CSV.
pub fn write_base_csv(path: &Path, seed: u64) -> Result<(), String> {
    let mut generator =
        AgrawalGenerator::new(GeneratorConfig::paper_defaults(seed)).map_err(|e| e.to_string())?;
    let ds = generator.generate(BASE_ROWS);
    arcs_data::csv::save_csv(&ds, path).map_err(|e| e.to_string())
}

/// `n` header-less CSV batches of `rows_per_batch` tuples each, from an
/// Agrawal stream seeded independently of the base input.
pub fn append_batches(seed: u64, n: usize, rows_per_batch: usize) -> Vec<String> {
    let stream_seed = seed ^ 0x5EED_0FA9_9E4D;
    let mut generator = AgrawalGenerator::new(GeneratorConfig::paper_defaults(stream_seed))
        .expect("paper defaults are a valid generator config");
    (0..n)
        .map(|_| {
            let ds = generator.generate(rows_per_batch);
            let mut buf = Vec::new();
            arcs_data::csv::write_csv(&ds, &mut buf).expect("in-memory CSV write");
            let text = String::from_utf8(buf).expect("CSV is UTF-8");
            let body = text.split_once('\n').map_or("", |(_, rest)| rest);
            body.to_string()
        })
        .collect()
}

/// splitmix64: the benchmark's own seeded stream (shuffles, splits).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Samples of `values` strictly above percentile `p`.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// One `/proc/stat` reading: all CPUs' busy and stolen ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    busy: u64,
    steal: u64,
}

impl CpuSample {
    pub fn now() -> CpuSample {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = text.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest fields are
        // already counted in user/nice).
        let total: u64 = fields.iter().take(8).sum();
        let waiting = fields.get(3).copied().unwrap_or(0) + fields.get(4).copied().unwrap_or(0);
        let steal = fields.get(7).copied().unwrap_or(0);
        CpuSample {
            busy: total.saturating_sub(waiting),
            steal,
        }
    }

    /// Stolen ticks as a share of busy ticks (all but idle and iowait).
    /// A vCPU is only robbed while it is runnable, so this does not fall
    /// when the program waits on I/O or a lock and leaves the vCPU idle.
    pub fn steal_share_since(&self, earlier: &CpuSample) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        if busy == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / busy as f64
        }
    }
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// User + system CPU seconds process `pid` has used, exited threads
/// included. With paravirtual steal accounting, stolen ticks are not
/// charged to the process.
pub fn cpu_seconds(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command: state is field 3, utime 14, stime 15.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// `USER_HZ`, fixed at 100 on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `VmHWM` (peak resident set) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU steal share and load average from the first round's window to
/// the last one's end.
pub struct CpuContext {
    cpu: CpuSample,
    load_start: f64,
}

impl CpuContext {
    pub fn open() -> CpuContext {
        CpuContext {
            cpu: CpuSample::now(),
            load_start: loadavg_1m(),
        }
    }

    pub fn close(&self, report: &mut Report) {
        let steal = CpuSample::now().steal_share_since(&self.cpu);
        report.env("steal_share", format!("{steal:.4}"));
        report.env(
            "loadavg_1m",
            format!("{:.2}->{:.2}", self.load_start, loadavg_1m()),
        );
    }
}

/// Rounds per run: each sets up afresh, warms up, and measures for a
/// `ROUNDS`th of `--seconds`. Set-up time swings by up to 2x between
/// back-to-back set-ups on a shared 2-vCPU VM, so `setup_s` is a median
/// of five.
pub const ROUNDS: usize = 5;
/// The tail percentile printed per op, beside the highest percentile with
/// at least ten samples beyond it. Tails are printed, not gated: their
/// spread across runs on a shared 2-vCPU VM exceeds any bound the gate
/// allows.
pub const TAIL_PCT: f64 = 90.0;

/// Wall and CPU time of a measured window.
pub struct Meter {
    opened: Instant,
    pids: Vec<String>,
    used: f64,
}

impl Meter {
    /// Opens a window, charging the CPU of `pids` (`"self"` for the
    /// benchmark process).
    pub fn start(pids: Vec<String>) -> Meter {
        let used = pids.iter().map(|p| cpu_seconds(p)).sum();
        Meter {
            opened: Instant::now(),
            pids,
            used,
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.opened.elapsed()
    }

    /// `(seconds, CPU seconds)` since the window opened.
    pub fn read(&self) -> (f64, f64) {
        let used: f64 = self.pids.iter().map(|p| cpu_seconds(p)).sum();
        (self.opened.elapsed().as_secs_f64(), used - self.used)
    }
}

/// One round's measured window.
#[derive(Debug, Default)]
pub struct Round {
    /// Latencies of the op's untraced runs, in ms.
    pub lat: Vec<f64>,
    /// The op's spanned runs (traced runs only); they count in op rate and
    /// CPU per op, not in latency.
    pub traced: usize,
    pub seconds: f64,
    /// CPU seconds the watched processes used in the window.
    pub cpu_s: f64,
}

/// An op's figures over every op of a run's windows.
pub struct OpFigures {
    pub p50: f64,
    pub tail: f64,
    pub per_s: f64,
    pub cpu_ms: f64,
    lat: Vec<f64>,
}

impl OpFigures {
    pub fn of(rounds: &[Round]) -> OpFigures {
        let lat: Vec<f64> = rounds.iter().flat_map(|r| r.lat.iter().copied()).collect();
        let ops = (lat.len() + rounds.iter().map(|r| r.traced).sum::<usize>()) as f64;
        let seconds: f64 = rounds.iter().map(|r| r.seconds).sum();
        let cpu: f64 = rounds.iter().map(|r| r.cpu_s).sum();
        OpFigures {
            p50: median(&lat),
            tail: percentile(&lat, TAIL_PCT),
            per_s: ops / seconds,
            cpu_ms: cpu * 1e3 / ops.max(1.0),
            lat,
        }
    }

    /// Prints the op's own figures under `op` (e.g. `query`), including
    /// the highest percentile with ≥10 samples beyond it.
    pub fn detail(&self, report: &mut Report, op: &str) {
        report.detail(&format!("{op}.p50_ms"), self.p50, "ms", "every window op");
        report.detail(
            &format!("{op}.tail_ms"),
            self.tail,
            "ms",
            format!("p{TAIL_PCT}"),
        );
        let top = [99.9, 99.0, 98.0, 95.0, 90.0]
            .into_iter()
            .find(|&p| beyond(&self.lat, p) >= 10)
            .unwrap_or(50.0);
        report.detail(
            &format!("{op}.top_tail_ms"),
            percentile(&self.lat, top),
            "ms",
            format!(
                "p{top} of all {} samples, {} beyond",
                self.lat.len(),
                beyond(&self.lat, top)
            ),
        );
        report.env(&format!("{op}_samples"), self.lat.len());
    }
}

/// One metric with its unit and what it maps to.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Everything a run reports: the result line plus the human-readable lines.
#[derive(Debug, Default)]
pub struct Report {
    pub env: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Per-op end-to-end figures (e.g. `query.p50_ms` beside appends)
    /// printed for reading; the result line carries the gated set.
    pub detail: Vec<Metric>,
    /// Deterministic work counters: exact repeats for a fixed seed.
    pub counters: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn env(&mut self, key: &str, value: impl std::fmt::Display) {
        self.env.push((key.to_string(), value.to_string()));
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.end_to_end.push(Metric::new(name, value, unit, note));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.per_layer.push(Metric::new(name, value, unit, note));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.detail.push(Metric::new(name, value, unit, note));
    }

    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.mismatches.push(what.into());
    }

    /// Prints the readable block and, last, the one-line JSON result.
    pub fn print(&self, trace: bool) {
        let mut out = String::new();
        let env: Vec<String> = self.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "env {}", env.join(" "));
        let section = |out: &mut String, title: &str, metrics: &[Metric]| {
            for m in metrics {
                let _ = writeln!(
                    out,
                    "{title} {} = {} {}  ({})",
                    m.name, m.value, m.unit, m.note
                );
            }
        };
        section(&mut out, "e2e", &self.end_to_end);
        section(&mut out, "detail", &self.detail);
        section(&mut out, "layer", &self.per_layer);
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let _ = writeln!(out, "counters {{{}}}", counters.join(","));
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "failed_share = {share} (failed {} of {} attempted)",
            self.failed, self.attempted
        );
        for m in self.mismatches.iter().take(10) {
            let _ = writeln!(out, "MISMATCH {m}");
        }
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(",")
        );
        print!("{out}");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// A JSON number: finite values print with all their digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
