//! Session benchmark for riskpipe: drives `RiskSession` on three seeded
//! workloads, checks every output, and (in a separate traced run) times
//! each layer's public calls from outside the program.
//!
//! * [`inputs`] turns a workload seed into `ScenarioConfig`s — the only
//!   thing the program receives.
//! * `e2e` measures the end-to-end metrics with tracing off.
//! * `trace` drives the same workload with the program's own telemetry
//!   attached, reads its spans and counters, times what they do not
//!   cover from outside, and reports the per-layer metrics.
//! * [`checks`] holds the output digests and the attempted/failed tally
//!   every run reports.
//!
//! The metric names, units and bounds live in `BENCHMARK.json` at the
//! repository root; [`E2E_METRICS`] and [`LAYER_METRICS`] list the same
//! names with their units, and the tests pin the two lists together.

pub mod checks;
mod e2e;
pub mod inputs;
mod trace;

use checks::Checks;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Threads of every session pool the benchmark builds.
pub const POOL_THREADS: usize = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Twelve attachment points over one stage-1 key, summary only.
    PricingSweep,
    /// Eight distinct keys with persistence, a disk tier and a warehouse.
    PortfolioPlan,
    /// A closed loop of single-contract `RiskSession::run` calls served
    /// from a pre-written disk tier.
    ContractRequests,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PricingSweep,
        Workload::PortfolioPlan,
        Workload::ContractRequests,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PricingSweep => "pricing-sweep",
            Workload::PortfolioPlan => "portfolio-plan",
            Workload::ContractRequests => "contract-requests",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` is what the benchmark measures, `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Few trials and scenarios, for smoke tests.
    Tiny,
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Run the traced measurement (per-layer metrics) instead of the
    /// end-to-end measurement.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Scratch directory for disk tiers, stores and spills; removed by
    /// the caller.
    pub work_dir: PathBuf,
    /// Flip one bit of every reference digest before comparing (the
    /// sequential recomputation end to end, the untraced side's outputs
    /// in a traced run), to show that the checks catch a mismatch.
    pub corrupt_reference: bool,
}

/// Units a metric can carry.
pub mod unit {
    /// Seconds.
    pub const S: &str = "s";
    /// Milliseconds.
    pub const MS: &str = "ms";
    /// Microseconds.
    pub const US: &str = "us";
    /// Nanoseconds.
    pub const NS: &str = "ns";
    /// Trials delivered per second.
    pub const TRIALS_PER_S: &str = "trials/s";
    /// Mebibytes.
    pub const MIB: &str = "MiB";
    /// Bytes.
    pub const BYTES: &str = "bytes";
    /// A count of operations or items.
    pub const COUNT: &str = "count";
    /// A dimensionless ratio.
    pub const RATIO: &str = "ratio";
}

/// End-to-end metrics (printed with `--trace 0`), with units.
pub const E2E_METRICS: [(&str, &str); 7] = [
    ("setup_s", unit::S),
    ("wall_s", unit::S),
    ("trials_per_s", unit::TRIALS_PER_S),
    ("first_report_s", unit::S),
    ("request_ms_p50", unit::MS),
    ("request_ms_p90", unit::MS),
    ("peak_rss_mb", unit::MIB),
];

/// Per-layer metrics (printed with `--trace 1`), with units.
pub const LAYER_METRICS: [(&str, &str); 55] = [
    ("catmodel.build.calls", unit::COUNT),
    ("catmodel.build.busy_s", unit::S),
    ("core.session.stage1_hits", unit::COUNT),
    ("core.session.stage1_misses", unit::COUNT),
    ("core.session.stage1_builds", unit::COUNT),
    ("core.session.stage1_disk_hits", unit::COUNT),
    ("core.session.stage1_hit_ratio", unit::RATIO),
    ("core.session.stage1_cache_bytes", unit::BYTES),
    ("core.session.scenarios_in_flight", unit::RATIO),
    ("core.stage1disk.load.calls", unit::COUNT),
    ("core.stage1disk.load.busy_s", unit::S),
    ("core.stage1disk.load.bytes", unit::BYTES),
    ("core.stage1disk.store.calls", unit::COUNT),
    ("core.stage1disk.store.busy_s", unit::S),
    ("core.stage1disk.store.bytes", unit::BYTES),
    ("core.stage1disk.load_over_build", unit::RATIO),
    ("aggregate.secondary.scenario_build_s", unit::S),
    ("aggregate.secondary.scenario_grid_points", unit::COUNT),
    ("aggregate.secondary.scenario_bytes", unit::BYTES),
    ("aggregate.engine.calls", unit::COUNT),
    ("aggregate.engine.busy_s", unit::S),
    ("aggregate.engine.occurrence_layers", unit::COUNT),
    ("aggregate.engine.ns_per_occurrence_layer", unit::NS),
    ("aggregate.engine.seq_run_s", unit::S),
    ("aggregate.engine.par_run_s", unit::S),
    ("aggregate.engine.speedup_vs_seq", unit::RATIO),
    ("tables.yelt.scenario_build_s", unit::S),
    ("tables.yelt.rows", unit::COUNT),
    ("tables.yelt.persist_s", unit::S),
    ("tables.yelt.persist_bytes", unit::BYTES),
    ("dfa.calls", unit::COUNT),
    ("dfa.busy_s", unit::S),
    ("dfa.ns_per_trial", unit::NS),
    ("metrics.scenario_sort_measures_s", unit::S),
    ("core.sink.summary_s", unit::S),
    ("core.sink.persist_s", unit::S),
    ("core.sink.persist_bytes", unit::BYTES),
    ("core.sweep.tail_s", unit::S),
    ("analytics.ingest.calls", unit::COUNT),
    ("analytics.ingest.busy_s", unit::S),
    ("analytics.ingest.spill_bytes", unit::BYTES),
    ("analytics.ingest.shuffle_records", unit::COUNT),
    ("analytics.ingest_over_sort", unit::RATIO),
    ("analytics.drilldown.views", unit::COUNT),
    ("analytics.drilldown.memory_bytes", unit::BYTES),
    ("analytics.drilldown.query_us_p50", unit::US),
    ("analytics.drilldown.query_us_p99", unit::US),
    ("analytics.drilldown.cells_read", unit::COUNT),
    ("analytics.drilldown.facts_read", unit::COUNT),
    ("exec.session.tasks_injected", unit::COUNT),
    ("exec.session.tasks_stolen", unit::COUNT),
    ("exec.global.tasks_injected", unit::COUNT),
    ("trace.wall_s", unit::S),
    ("trace.overhead_frac", unit::RATIO),
    ("failed_frac", unit::RATIO),
];

/// Named metric values in emission order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit` (a non-finite value, which only a
    /// failed run can produce, is recorded as 0).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The recorded unit of `name`.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, u)| *u)
    }

    /// Metric names in emission order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }
}

/// What one run produced: checks, metrics, the output digest, and the
/// run context printed beside the result.
#[derive(Debug)]
pub struct Outcome {
    /// Attempted/failed operations and check notes.
    pub checks: Checks,
    /// The metrics of this run's kind (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Digest of every output the run checked; equal seeds give equal
    /// digests.
    pub digest: u64,
    /// `key=value` context lines (input sizes, pool, build).
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.correct(),
            self.checks.attempted(),
            self.checks.failed()
        );
        for (i, (name, value, unit)) in self.metrics.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip form gives.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    let mut outcome = if opts.trace {
        trace::run(opts)
    } else {
        e2e::run(opts)
    };
    outcome.context.splice(0..0, base_context(opts));
    outcome
}

/// Context every run records: what ran, on what, from which source.
fn base_context(opts: &Options) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".into(), opts.workload.name().into()),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("trace".into(), (opts.trace as u8).to_string()),
        ("git_rev".into(), git_rev()),
        ("nproc".into(), nproc.to_string()),
        ("pool_threads".into(), POOL_THREADS.to_string()),
        (
            "build_profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ]
}

/// The checked-out commit, read from `.git` beside the benchmark's
/// package; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| packed_ref(&git, reference).unwrap_or_else(|| "unknown".into())),
        None => head,
    }
}

/// A ref's commit from `.git/packed-refs`.
fn packed_ref(git: &std::path::Path, reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `t0`.
pub(crate) fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let w = pos - lo as f64;
    sorted[lo] * (1.0 - w) + sorted[hi] * w
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
