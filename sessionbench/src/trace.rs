//! The traced run: the workload driven through `RiskSession` twice,
//! first untraced and then with a `riskpipe::obs::Telemetry` attached
//! through `RiskSessionBuilder::telemetry`. The per-layer figures are
//! what the program itself records — its existing spans (`stage1.build`,
//! `stage1.disk.load`/`store`, `stage2.engine`, `stage2.persist_yelt`,
//! `stage3.dfa`, `sink.deliver`, `warehouse.ingest`, `sweep.scenario`,
//! `session.run`), its registry counters, `stage1_cache_stats()` and
//! the pool statistics; the benchmark adds no spans to the program.
//!
//! What those spans do not cover is timed from outside, each in its own
//! clearly named metric: the `scenario_*` metrics time one seed-sampled
//! scenario's public layer calls (secondary-uncertainty tables, the
//! sequential and parallel engines, the YELT build, the sorted-column
//! measures); the drill-down queries; a disk-tier load of each stored
//! key where the workload loads none itself; and the sweep's tail after
//! its last report. Nothing the program does is counted by the
//! benchmark on the program's behalf: the number of secondary tables
//! `AggregateRunner::run` builds is not reported, because the program
//! exposes no count of them.

use crate::checks::{self, Checks, Digest};
use crate::e2e;
use crate::inputs::{self, Inputs};
use crate::{median, quantile, secs, unit, Metrics, Options, Outcome, Workload, POOL_THREADS};
use riskpipe::aggregate::{AggregateRunner, EngineKind, QuantileMode, SecondaryTable};
use riskpipe::analytics::Drilldown;
use riskpipe::catmodel::Stage1Output;
use riskpipe::core::{DiskStage1Cache, PipelineReport, ScenarioConfig, Stage1CacheStats};
use riskpipe::exec::ThreadPool;
use riskpipe::metrics::RiskMeasures;
use riskpipe::obs::{Telemetry, TelemetrySnapshot};
use riskpipe::tables::Yelt;
use riskpipe::types::{RiskError, RunningStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Requests each traced request loop issues per key.
const TRACED_REQUESTS_PER_KEY: usize = 2;

/// Repetitions of each one-scenario layer measurement (median taken).
const SCENARIO_REPS: usize = 3;

/// Repetitions of the query battery behind the query-latency quantiles.
const QUERY_REPS: usize = 25;

/// Calls and summed duration of a set of spans.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    busy_s: f64,
}

impl Tally {
    fn mean_s(self) -> f64 {
        self.busy_s / self.calls.max(1) as f64
    }
}

/// The spans named `name` (with key `key`, when given).
fn tally(snap: &TelemetrySnapshot, name: &str, key: Option<u64>) -> Tally {
    snap.spans_named(name)
        .filter(|s| key.is_none_or(|k| s.key == k))
        .fold(Tally::default(), |t, s| Tally {
            calls: t.calls + 1,
            busy_s: t.busy_s + s.dur_ns as f64 * 1e-9,
        })
}

/// The keys of the spans named `name`, in record order.
fn span_keys(snap: &TelemetrySnapshot, name: &str) -> Vec<u64> {
    snap.spans_named(name).map(|s| s.key).collect()
}

/// What one traced session side observed, workload by workload.
struct Observed {
    /// The traced drive's (or request loop's) recording.
    snap: TelemetrySnapshot,
    /// Where the session's stage-1 builds were recorded: the same
    /// recording on the sweeps, the tier writer's on the request loop.
    builds: TelemetrySnapshot,
    wall_s: f64,
    untraced_wall_s: f64,
    stats: Stage1CacheStats,
    /// (session injected, session stolen, global injected) tasks.
    pool: (u64, u64, u64),
    yelt_file_bytes: u64,
    persisted_bytes: u64,
    /// YET occurrences over every scenario the session ran.
    occurrences: u64,
    /// Drive return minus the last report's delivery (sweeps).
    tail_s: f64,
    /// The disk tier the session wrote or read, if any.
    tier: Option<PathBuf>,
    drilldown: Option<Drilldown>,
}

/// Run the traced measurement of `opts.workload`.
pub fn run(opts: &Options) -> Outcome {
    let inputs = inputs::generate(opts.workload, opts.size, opts.seed);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut context = e2e::input_context(&inputs);
    let mut digest = Digest::default();

    let observed = match opts.workload {
        Workload::ContractRequests => traced_requests(opts, &inputs, &mut checks, &mut digest),
        _ => traced_sweep(opts, &inputs, &mut checks, &mut digest),
    };
    if let Some(observed) = observed {
        checks.eq("trace spans dropped", observed.snap.dropped(), 0);
        context.push((
            "spans_recorded".into(),
            observed.snap.spans().len().to_string(),
        ));
        context.push((
            "untraced_wall_s".into(),
            observed.untraced_wall_s.to_string(),
        ));
        layer_metrics(opts, &inputs, &observed, &mut checks, &mut metrics);
    }
    metrics.set("failed_frac", checks.failed_frac(), unit::RATIO);
    // Every per-layer metric, in the published order; a layer the
    // workload bypasses reads 0.
    let mut ordered = Metrics::default();
    for (name, unit) in crate::LAYER_METRICS {
        ordered.set(name, metrics.get(name).unwrap_or(0.0), unit);
    }
    context.push(("traced_ops".into(), checks.attempted().to_string()));
    Outcome {
        checks,
        metrics: ordered,
        digest: digest.finish(),
        context,
    }
}

/// Compare the traced side's per-slot outputs with the untraced side's
/// (flipped when the options ask for a corrupted reference).
fn identity_checks(
    opts: &Options,
    checks: &mut Checks,
    traced: &[(u64, u64, u64)],
    untraced: &[(u64, u64, u64)],
) {
    checks.eq("traced slots", traced.len(), untraced.len());
    for (i, (got, want)) in traced.iter().zip(untraced).enumerate() {
        let want = (
            checks::reference(want.0, opts.corrupt_reference),
            want.1,
            want.2,
        );
        checks.eq(
            &format!("traced slot {i} equals the untraced run's"),
            *got,
            want,
        );
    }
}

/// Both sweeps: one untraced drive, then one traced drive of fresh
/// sessions on the same inputs.
fn traced_sweep(
    opts: &Options,
    inputs: &Inputs,
    checks: &mut Checks,
    digest: &mut Digest,
) -> Option<Observed> {
    let mut answers = Digest::default();
    let plain = e2e::sweep_drive(opts, 0, checks, &mut answers, None)?;
    let telemetry = Telemetry::new();
    let mut traced_answers = Digest::default();
    let drive = e2e::sweep_drive(opts, 0, checks, &mut traced_answers, Some(&telemetry))?;
    identity_checks(opts, checks, &drive.sink.slots, &plain.sink.slots);
    checks.eq(
        "traced query answers equal the untraced run's",
        traced_answers.finish(),
        answers.finish(),
    );
    e2e::sampled_check(opts, inputs, None, &drive.sink.slots, checks);
    digest
        .word(drive.sink.digest())
        .word(traced_answers.finish());
    let snap = checks.result(
        "traced drive recorded telemetry",
        drive
            .telemetry
            .ok_or_else(|| RiskError::invalid("no telemetry snapshot")),
    )?;
    let last = drive.sink.delivered_s.last().copied().unwrap_or(0.0);
    Some(Observed {
        builds: snap.clone(),
        snap,
        wall_s: drive.wall_s,
        untraced_wall_s: plain.wall_s,
        stats: drive.stage1,
        pool: (
            drive.pool_injected,
            drive.pool_stolen,
            drive.global_injected,
        ),
        yelt_file_bytes: drive.sink.yelt_file_bytes,
        persisted_bytes: drive.persisted_bytes,
        occurrences: drive.sink.occurrences,
        tail_s: drive.wall_s - last,
        tier: (opts.workload == Workload::PortfolioPlan)
            .then(|| opts.work_dir.join("portfolio").join("stage1")),
        drilldown: drive.drilldown,
    })
}

/// Issue `order`'s requests on `session`; the wall and each report.
fn request_loop(
    session: &riskpipe::core::RiskSession,
    inputs: &Inputs,
    order: &[usize],
    checks: &mut Checks,
) -> (f64, Vec<PipelineReport>) {
    let t = Instant::now();
    let mut reports = Vec::new();
    for (r, &i) in order.iter().enumerate() {
        match checks.result(&format!("request {r}"), session.run(&inputs.scenarios[i])) {
            Some(report) => reports.push(report),
            None => break,
        }
    }
    (secs(t), reports)
}

/// The request workload: a traced writer fills the tier, then an
/// untraced and a traced reader each serve the same request loop.
fn traced_requests(
    opts: &Options,
    inputs: &Inputs,
    checks: &mut Checks,
    digest: &mut Digest,
) -> Option<Observed> {
    let tier = opts.work_dir.join("tier");
    let writer = Telemetry::new();
    checks.result("tier fill", e2e::fill_tier(inputs, &tier, Some(&writer)))?;
    let n = inputs.scenarios.len();
    let order: Vec<usize> = (0..n * TRACED_REQUESTS_PER_KEY).map(|i| i % n).collect();

    let plain = checks.result("untraced reader", e2e::open_reader(&tier, None))?;
    let (untraced_wall_s, untraced) = request_loop(&plain, inputs, &order, checks);
    drop(plain);

    let telemetry = Telemetry::new();
    let session = checks.result("traced reader", e2e::open_reader(&tier, Some(&telemetry)))?;
    let before = e2e::pool_counters(&session);
    let (wall_s, reports) = request_loop(&session, inputs, &order, checks);
    let after = e2e::pool_counters(&session);
    let stats = session.stage1_cache_stats();
    checks.eq("request stage-1 builds", stats.builds, 0);
    checks.eq("request disk hits", stats.disk_hits, order.len() as u64);

    let outputs: Vec<_> = reports.iter().map(checks::output_digests).collect();
    let plain_outputs: Vec<_> = untraced.iter().map(checks::output_digests).collect();
    identity_checks(opts, checks, &outputs, &plain_outputs);
    e2e::sampled_check(opts, inputs, Some(&tier), &outputs, checks);
    for (report, _, _) in &outputs {
        digest.word(*report);
    }
    Some(Observed {
        snap: telemetry.snapshot(),
        builds: writer.snapshot(),
        wall_s,
        untraced_wall_s,
        stats,
        pool: (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        yelt_file_bytes: reports.iter().map(|r| r.yelt_file_bytes).sum(),
        persisted_bytes: 0,
        occurrences: reports.iter().map(|r| r.yet_occurrences as u64).sum(),
        tail_s: 0.0,
        tier: Some(tier),
        drilldown: None,
    })
}

/// One scenario's layer calls, timed from outside (medians).
struct ScenarioCosts {
    /// Every portfolio layer's `SecondaryTable::build`.
    secondary_s: f64,
    secondary_grid_points: u64,
    secondary_bytes: u64,
    /// Portfolio layers of the scenario.
    layers: u64,
    /// `AggregateRunner::run` on `Sequential` and on `CpuParallel`.
    seq_s: f64,
    par_s: f64,
    /// `Yelt::from_yet_elt` for the first book.
    yelt_s: f64,
    /// Both sorted loss columns and `RiskMeasures::from_sorted`.
    sort_measures_s: f64,
    /// One sort of the aggregate-loss column.
    sort_s: f64,
}

/// Time the sampled scenario's layer calls on `stage1`, checking that
/// the two engines agree bit for bit.
fn scenario_costs(
    scenario: &ScenarioConfig,
    stage1: Arc<Stage1Output>,
    checks: &mut Checks,
) -> Option<ScenarioCosts> {
    let bundle = checks.result("sampled bundle", scenario.bundle_from_output(stage1))?;
    let (portfolio, yet) = (bundle.portfolio(), bundle.year_event_table());
    let pool = Arc::new(checks.result(
        "sampled pool",
        ThreadPool::try_new(POOL_THREADS).map_err(RiskError::from),
    )?);
    let sequential = AggregateRunner::new(EngineKind::Sequential);
    let parallel = AggregateRunner::new(EngineKind::CpuParallel).with_pool(pool);
    let mode = parallel.options().quantile_mode;
    let grid = match mode {
        QuantileMode::Interpolated(g) => g.max(2) as u64,
        QuantileMode::Exact => 1,
    };
    let (mut sec, mut seq, mut par, mut yelt, mut sort_measures, mut sort) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut grid_points, mut bytes) = (0, 0);
    let mut last = None;
    for _ in 0..SCENARIO_REPS {
        let t = Instant::now();
        let tables: Vec<SecondaryTable> = portfolio
            .layers()
            .iter()
            .map(|layer| SecondaryTable::build(&layer.elt, mode))
            .collect();
        sec.push(secs(t));
        grid_points = tables.iter().map(|t| t.len() as u64 * grid).sum();
        bytes = tables.iter().map(|t| t.memory_bytes() as u64).sum();
        let t = Instant::now();
        let s = sequential.run(&portfolio, &yet);
        seq.push(secs(t));
        let t = Instant::now();
        let p = parallel.run(&portfolio, &yet);
        par.push(secs(t));
        let (s, p) = (
            checks.result("sampled sequential run", s)?,
            checks.result("sampled parallel run", p)?,
        );
        checks.eq(
            "sequential and parallel engines agree",
            checks::ylt_digest(&s),
            checks::ylt_digest(&p),
        );
        let t = Instant::now();
        std::hint::black_box(Yelt::from_yet_elt(&yet, &bundle.output.books[0].elt));
        yelt.push(secs(t));
        let t = Instant::now();
        let agg_sorted = p.sorted_agg_losses();
        let occ_sorted = p.sorted_max_occ_losses();
        let agg_stats: RunningStats = p.agg_losses().iter().copied().collect();
        std::hint::black_box(RiskMeasures::from_sorted(
            &agg_sorted,
            &occ_sorted,
            &agg_stats,
        ));
        sort_measures.push(secs(t));
        let t = Instant::now();
        std::hint::black_box(p.sorted_agg_losses());
        sort.push(secs(t));
        last = Some(p);
    }
    std::hint::black_box(last);
    Some(ScenarioCosts {
        secondary_s: median(&sec),
        secondary_grid_points: grid_points,
        secondary_bytes: bytes,
        layers: portfolio.len() as u64,
        seq_s: median(&seq),
        par_s: median(&par),
        yelt_s: median(&yelt),
        sort_measures_s: median(&sort_measures),
        sort_s: median(&sort),
    })
}

/// The sampled scenario's stage 1: loaded from the workload's disk tier
/// when it holds the key, built on one thread otherwise.
fn sampled_stage1(
    scenario: &ScenarioConfig,
    tier: Option<&Path>,
    checks: &mut Checks,
) -> Option<Arc<Stage1Output>> {
    let key = scenario.stage1_key();
    let loaded = tier
        .and_then(|dir| DiskStage1Cache::new(dir).ok())
        .and_then(|disk| disk.load(key).ok().flatten());
    match loaded {
        Some(output) => Some(Arc::new(output)),
        None => checks.result("sampled stage 1", checks::reference_stage1(scenario)),
    }
}

/// Mean seconds of one `DiskStage1Cache::load` of each of `keys` from
/// `tier`, timed from outside.
fn outside_loads(tier: &Path, keys: &[u64], checks: &mut Checks) -> Option<f64> {
    let disk = checks.result("disk tier", DiskStage1Cache::new(tier))?;
    let mut total = 0.0;
    for &key in keys {
        let t = Instant::now();
        let loaded = disk.load(key);
        total += secs(t);
        checks.op(
            &format!("stored key {key:#x} loads back"),
            matches!(loaded, Ok(Some(_))),
        );
    }
    (!keys.is_empty()).then(|| total / keys.len() as f64)
}

/// Every per-layer metric from what the traced side observed.
fn layer_metrics(
    opts: &Options,
    inputs: &Inputs,
    o: &Observed,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let snap = &o.snap;
    let counters = snap.metrics();

    // catmodel: the session's stage-1 builds.
    let build = tally(snap, "stage1.build", None);
    metrics.set("catmodel.build.calls", build.calls as f64, unit::COUNT);
    metrics.set("catmodel.build.busy_s", build.busy_s, unit::S);

    // core.session
    let st = o.stats;
    metrics.set("core.session.stage1_hits", st.hits as f64, unit::COUNT);
    metrics.set("core.session.stage1_misses", st.misses as f64, unit::COUNT);
    metrics.set("core.session.stage1_builds", st.builds as f64, unit::COUNT);
    metrics.set(
        "core.session.stage1_disk_hits",
        st.disk_hits as f64,
        unit::COUNT,
    );
    metrics.set(
        "core.session.stage1_hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
        unit::RATIO,
    );
    metrics.set(
        "core.session.stage1_cache_bytes",
        st.bytes as f64,
        unit::BYTES,
    );
    let in_flight =
        tally(snap, "sweep.scenario", None).busy_s + tally(snap, "session.run", None).busy_s;
    metrics.set(
        "core.session.scenarios_in_flight",
        in_flight / o.wall_s,
        unit::RATIO,
    );

    // core.stage1disk: the session's tier lookups (a lookup of an
    // absent key is a span too, so bytes and the load cost count only
    // the lookups the cache stats report as disk hits).
    let load = tally(snap, "stage1.disk.load", None);
    let store = tally(snap, "stage1.disk.store", None);
    let all_hits = load.calls > 0 && st.disk_hits == load.calls;
    metrics.set("core.stage1disk.load.calls", load.calls as f64, unit::COUNT);
    metrics.set("core.stage1disk.load.busy_s", load.busy_s, unit::S);
    if let Some(tier) = o.tier.as_deref() {
        let disk = DiskStage1Cache::new(tier).ok();
        let file_bytes = |key: u64| {
            disk.as_ref()
                .and_then(|disk| std::fs::metadata(disk.path_for(key)).ok())
                .map_or(0, |m| m.len())
        };
        let looked_up: u64 = span_keys(snap, "stage1.disk.load")
            .into_iter()
            .map(file_bytes)
            .sum();
        let loaded = looked_up as f64 * st.disk_hits as f64 / load.calls.max(1) as f64;
        metrics.set("core.stage1disk.load.bytes", loaded, unit::BYTES);
        // The workload's own loads where every lookup hit; otherwise
        // each key it stored, loaded back from outside.
        let load_s = if all_hits {
            Some(load.mean_s())
        } else {
            outside_loads(tier, &span_keys(snap, "stage1.disk.store"), checks)
        };
        let built = tally(&o.builds, "stage1.build", None);
        if let (Some(load_s), true) = (load_s, built.calls > 0) {
            metrics.set(
                "core.stage1disk.load_over_build",
                load_s / built.mean_s(),
                unit::RATIO,
            );
        }
    }
    metrics.set(
        "core.stage1disk.store.calls",
        store.calls as f64,
        unit::COUNT,
    );
    metrics.set("core.stage1disk.store.busy_s", store.busy_s, unit::S);
    metrics.set(
        "core.stage1disk.store.bytes",
        counters.counter("stage1.disk_bytes") as f64,
        unit::BYTES,
    );

    // The sampled scenario's layer calls, timed from outside.
    let s = inputs::sampled_index(opts.seed, inputs.scenarios.len());
    let scenario = &inputs.scenarios[s];
    let costs = sampled_stage1(scenario, o.tier.as_deref(), checks)
        .and_then(|stage1| scenario_costs(scenario, stage1, checks));
    let engine = tally(snap, "stage2.engine", None);
    let occurrence_layers = o.occurrences * costs.as_ref().map_or(0, |c| c.layers);
    if let Some(c) = &costs {
        metrics.set(
            "aggregate.secondary.scenario_build_s",
            c.secondary_s,
            unit::S,
        );
        metrics.set(
            "aggregate.secondary.scenario_grid_points",
            c.secondary_grid_points as f64,
            unit::COUNT,
        );
        metrics.set(
            "aggregate.secondary.scenario_bytes",
            c.secondary_bytes as f64,
            unit::BYTES,
        );
        metrics.set("aggregate.engine.seq_run_s", c.seq_s, unit::S);
        metrics.set("aggregate.engine.par_run_s", c.par_s, unit::S);
        metrics.set(
            "aggregate.engine.speedup_vs_seq",
            c.seq_s / c.par_s,
            unit::RATIO,
        );
        metrics.set("tables.yelt.scenario_build_s", c.yelt_s, unit::S);
        metrics.set(
            "metrics.scenario_sort_measures_s",
            c.sort_measures_s,
            unit::S,
        );
    }

    // aggregate.engine: the session's engine calls (inclusive of
    // whatever the runner builds inside them).
    metrics.set("aggregate.engine.calls", engine.calls as f64, unit::COUNT);
    metrics.set("aggregate.engine.busy_s", engine.busy_s, unit::S);
    metrics.set(
        "aggregate.engine.occurrence_layers",
        occurrence_layers as f64,
        unit::COUNT,
    );
    metrics.set(
        "aggregate.engine.ns_per_occurrence_layer",
        engine.busy_s * 1e9 / occurrence_layers.max(1) as f64,
        unit::NS,
    );

    // tables
    let persist = tally(snap, "stage2.persist_yelt", None);
    metrics.set(
        "tables.yelt.rows",
        counters.counter("stage2.yelt_rows") as f64,
        unit::COUNT,
    );
    metrics.set("tables.yelt.persist_s", persist.busy_s, unit::S);
    metrics.set(
        "tables.yelt.persist_bytes",
        o.yelt_file_bytes as f64,
        unit::BYTES,
    );

    // dfa
    let dfa = tally(snap, "stage3.dfa", None);
    let trials = counters.histogram("stage2.trials").map_or(0, |h| h.sum);
    metrics.set("dfa.calls", dfa.calls as f64, unit::COUNT);
    metrics.set("dfa.busy_s", dfa.busy_s, unit::S);
    metrics.set(
        "dfa.ns_per_trial",
        dfa.busy_s * 1e9 / trials.max(1) as f64,
        unit::NS,
    );

    // core.sink: consumer 0 of the plan's fan-out is the pooled summary,
    // or the persisting sink (which folds the summary itself) when the
    // plan persists.
    let deliver0 = tally(snap, "sink.deliver", Some(0));
    if opts.workload == Workload::PortfolioPlan {
        metrics.set("core.sink.persist_s", deliver0.busy_s, unit::S);
    } else {
        metrics.set("core.sink.summary_s", deliver0.busy_s, unit::S);
    }
    metrics.set(
        "core.sink.persist_bytes",
        o.persisted_bytes as f64,
        unit::BYTES,
    );
    metrics.set("core.sweep.tail_s", o.tail_s, unit::S);

    // analytics
    let ingest = tally(snap, "warehouse.ingest", None);
    metrics.set("analytics.ingest.calls", ingest.calls as f64, unit::COUNT);
    metrics.set("analytics.ingest.busy_s", ingest.busy_s, unit::S);
    metrics.set(
        "analytics.ingest.spill_bytes",
        counters.counter("shuffle.spill_bytes") as f64,
        unit::BYTES,
    );
    metrics.set(
        "analytics.ingest.shuffle_records",
        counters.counter("shuffle.records") as f64,
        unit::COUNT,
    );
    if let (Some(c), true) = (&costs, ingest.calls > 0) {
        metrics.set(
            "analytics.ingest_over_sort",
            ingest.mean_s() / c.sort_s,
            unit::RATIO,
        );
    }
    if let Some(drilldown) = o.drilldown.as_ref() {
        drilldown_metrics(drilldown, checks, metrics);
    }

    // exec
    metrics.set("exec.session.tasks_injected", o.pool.0 as f64, unit::COUNT);
    metrics.set("exec.session.tasks_stolen", o.pool.1 as f64, unit::COUNT);
    metrics.set("exec.global.tasks_injected", o.pool.2 as f64, unit::COUNT);

    // trace: the traced side against the untraced side, same inputs.
    metrics.set("trace.wall_s", o.wall_s, unit::S);
    metrics.set(
        "trace.overhead_frac",
        o.wall_s / o.untraced_wall_s - 1.0,
        unit::RATIO,
    );
}

/// The warehouse's size and the query battery against it: one checked
/// pass, then timed repetitions.
fn drilldown_metrics(drilldown: &Drilldown, checks: &mut Checks, metrics: &mut Metrics) {
    let battery = inputs::query_battery();
    let (mut cells, mut facts) = (0, 0);
    for (q, query) in battery.iter().enumerate() {
        match drilldown.answer(query) {
            Ok((rows, cost)) => {
                checks.op(
                    &format!("traced query {q} empty or read facts"),
                    !rows.is_empty() && cost.facts_read == 0,
                );
                cells += cost.cells_read;
                facts += cost.facts_read;
            }
            Err(e) => checks.op(&format!("traced query {q}: {e}"), false),
        }
    }
    let mut latencies_us = Vec::new();
    for _ in 0..QUERY_REPS {
        for query in &battery {
            let t = Instant::now();
            let answer = drilldown.answer(query);
            latencies_us.push(secs(t) * 1e6);
            std::hint::black_box(answer.ok());
        }
    }
    metrics.set(
        "analytics.drilldown.views",
        drilldown.views().len() as f64,
        unit::COUNT,
    );
    metrics.set(
        "analytics.drilldown.memory_bytes",
        drilldown.memory_bytes() as f64,
        unit::BYTES,
    );
    metrics.set(
        "analytics.drilldown.query_us_p50",
        quantile(&latencies_us, 0.5),
        unit::US,
    );
    metrics.set(
        "analytics.drilldown.query_us_p99",
        quantile(&latencies_us, 0.99),
        unit::US,
    );
    metrics.set("analytics.drilldown.cells_read", cells as f64, unit::COUNT);
    metrics.set("analytics.drilldown.facts_read", facts as f64, unit::COUNT);
}
