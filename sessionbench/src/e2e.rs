//! The end-to-end measurement (tracing off): repeated drives or a
//! request loop inside the timed window, every output checked outside
//! it.

use crate::checks::{self, Checks, Digest};
use crate::inputs::{self, Inputs};
use crate::{median, quantile, secs, unit, Metrics, Options, Outcome, Workload, POOL_THREADS};
use riskpipe::analytics::{Drilldown, DrilldownLayout, SweepPlanAnalytics};
use riskpipe::core::{
    DiskStage1Cache, PipelineReport, ReportSink, RiskSession, ShardedFilesStore, Stage1CacheStats,
};
use riskpipe::obs::{Telemetry, TelemetrySnapshot};
use riskpipe::types::{RiskError, RiskResult};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups measured before the window and again after each drive on
/// the sweep workloads, on top of the one each drive needs (their
/// set-up is sub-millisecond, so a steady median needs many more
/// samples than the window's drives give).
const EXTRA_SWEEP_SETUPS: usize = 40;

/// Set-ups measured on the request workload (each writes a disk tier
/// and is followed by its session's first request).
const REQUEST_SETUPS: usize = 5;

/// No window runs longer than this, whatever `--seconds` or the
/// request minimum ask, so a run always ends well inside its limit.
const WINDOW_CAP_S: f64 = 120.0;

/// The extra sink riding every measured drive: when each report
/// arrives, per-slot output digests, and the sizes the reports carry.
#[derive(Debug)]
pub struct DriveSink {
    start: Instant,
    /// Per slot: seconds from drive start to the report's delivery here.
    pub delivered_s: Vec<f64>,
    /// Per slot: (report digest, YLT digest, DFA digest).
    pub slots: Vec<(u64, u64, u64)>,
    /// Portfolio ELT rows and YET occurrences of the first report.
    pub sizes: Option<(usize, usize)>,
    /// YELT bytes the session's store reported writing, over all slots.
    pub yelt_file_bytes: u64,
    /// YET occurrences the reports carry, over all slots.
    pub occurrences: u64,
    /// Slots delivered out of input order (must stay 0).
    pub out_of_order: usize,
}

impl DriveSink {
    /// A sink whose clock starts now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            delivered_s: Vec::new(),
            slots: Vec::new(),
            sizes: None,
            yelt_file_bytes: 0,
            occurrences: 0,
            out_of_order: 0,
        }
    }

    fn observe(&mut self, slot: usize, report: &PipelineReport) {
        self.delivered_s.push(secs(self.start));
        if slot != self.slots.len() {
            self.out_of_order += 1;
        }
        self.slots.push(checks::output_digests(report));
        self.sizes
            .get_or_insert((report.elt_rows, report.yet_occurrences));
        self.yelt_file_bytes += report.yelt_file_bytes;
        self.occurrences += report.yet_occurrences as u64;
    }

    /// Seconds from drive start to the first delivered report.
    pub fn first_report_s(&self) -> Option<f64> {
        self.delivered_s.first().copied()
    }

    /// Per slot: milliseconds since the previous delivery (the first
    /// slot: since drive start) — each scenario's share of the stream,
    /// timed where the reports arrive.
    pub fn gaps_ms(&self) -> Vec<f64> {
        let mut last = 0.0;
        self.delivered_s
            .iter()
            .map(|&t| {
                let gap = (t - last) * 1e3;
                last = t;
                gap
            })
            .collect()
    }

    /// Digest of every slot's report, in slot order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for (slot, (report, _, _)) in self.slots.iter().enumerate() {
            d.word(slot as u64).word(*report);
        }
        d.finish()
    }
}

impl ReportSink for &mut DriveSink {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.observe(slot, &report);
        Ok(())
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.observe(slot, report);
        Ok(())
    }
}

/// A session on the benchmark's pool size, recording into `telemetry`
/// when one is given (the traced run only).
pub fn session_builder(telemetry: Option<&Telemetry>) -> riskpipe::core::RiskSessionBuilder {
    let builder = RiskSession::builder().pool_threads(POOL_THREADS);
    match telemetry {
        Some(t) => builder.telemetry(t.clone()),
        None => builder,
    }
}

/// The portfolio plan's session and stores, under `dir`.
pub struct PortfolioSetup {
    /// The session (YELT spills through `yelt_store`, write-through
    /// disk tier under `dir/stage1`).
    pub session: RiskSession,
    /// Where the plan persists reports.
    pub reports: Arc<ShardedFilesStore>,
    /// The drill-down layout.
    pub layout: DrilldownLayout,
    /// The ingest spill directory.
    pub ingest_dir: PathBuf,
}

/// Empty the portfolio plan's scratch directories under `dir` (the disk
/// tier and the ingest spill directory exist; the stores create theirs
/// as they write). Runs before set-up is timed and after each drive:
/// creating directories on a shared disk takes 0.2–2 ms depending on
/// other I/O, which would swamp the sub-millisecond set-up it is not
/// part of.
pub(crate) fn portfolio_dirs(dir: &Path) -> RiskResult<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("stage1"))?;
    std::fs::create_dir_all(dir.join("ingest"))?;
    Ok(())
}

/// Build the portfolio plan's session, stores and layout in the emptied
/// directories under `dir` (see [`portfolio_dirs`]).
pub(crate) fn portfolio_setup(
    inputs: &Inputs,
    dir: &Path,
    telemetry: Option<&Telemetry>,
) -> RiskResult<PortfolioSetup> {
    let ingest_dir = dir.join("ingest");
    let reports = Arc::new(ShardedFilesStore::new(dir.join("reports"), 4)?);
    let yelts = Arc::new(ShardedFilesStore::new(dir.join("yelt"), 4)?);
    let session = session_builder(telemetry)
        .store(yelts)
        .stage1_disk_cache(dir.join("stage1"))
        .build()?;
    let layout = DrilldownLayout::new(inputs.dims.clone(), session.engine())?;
    Ok(PortfolioSetup {
        session,
        reports,
        layout,
        ingest_dir,
    })
}

/// Fill a fresh disk tier under `dir` with every request key, through a
/// writer session.
pub(crate) fn fill_tier(
    inputs: &Inputs,
    dir: &Path,
    telemetry: Option<&Telemetry>,
) -> RiskResult<()> {
    let _ = std::fs::remove_dir_all(dir);
    let writer = session_builder(telemetry).stage1_disk_cache(dir).build()?;
    for scenario in &inputs.scenarios {
        writer.run(scenario)?;
    }
    Ok(())
}

/// A request-serving session over the disk tier under `dir`: its RAM
/// tier (capacity 1) is smaller than the key set, so every request
/// that changes key loads from disk.
pub(crate) fn open_reader(dir: &Path, telemetry: Option<&Telemetry>) -> RiskResult<RiskSession> {
    session_builder(telemetry)
        .stage1_cache_capacity(1)
        .stage1_disk_cache(dir)
        .build()
}

/// One measured drive of a sweep workload.
pub(crate) struct Drive {
    pub(crate) setup_s: f64,
    pub(crate) wall_s: f64,
    pub(crate) sink: DriveSink,
    /// The session's stage-1 cache counters after the drive.
    pub(crate) stage1: Stage1CacheStats,
    /// Tasks injected into and stolen on the session pool by the drive.
    pub(crate) pool_injected: u64,
    pub(crate) pool_stolen: u64,
    /// Tasks the drive injected into the process-global pool.
    pub(crate) global_injected: u64,
    /// Report bytes the plan persisted (portfolio plan).
    pub(crate) persisted_bytes: u64,
    /// The warehouse (portfolio plan), kept only for a traced drive.
    pub(crate) drilldown: Option<Drilldown>,
    /// What the session recorded, for a traced drive.
    pub(crate) telemetry: Option<TelemetrySnapshot>,
}

/// Pool counters around a drive: (session injected, session stolen,
/// global injected).
pub(crate) fn pool_counters(session: &RiskSession) -> (u64, u64, u64) {
    let pool = session.pool().stats();
    (
        pool.tasks_injected(),
        pool.tasks_stolen(),
        riskpipe::exec::global_pool().stats().tasks_injected(),
    )
}

/// Set up, drive and check one sweep, recording into `telemetry` when
/// one is given; `None` when the drive failed (counted in `checks`).
pub(crate) fn sweep_drive(
    opts: &Options,
    rep: usize,
    checks: &mut Checks,
    answers: &mut Digest,
    telemetry: Option<&Telemetry>,
) -> Option<Drive> {
    let dir = opts.work_dir.join("portfolio");
    if opts.workload == Workload::PortfolioPlan {
        checks.result("portfolio directories", portfolio_dirs(&dir))?;
    }
    let t_setup = Instant::now();
    let inputs = inputs::generate(opts.workload, opts.size, opts.seed);
    let n = inputs.scenarios.len();
    match opts.workload {
        Workload::PricingSweep => {
            let session =
                checks.result("pricing session build", session_builder(telemetry).build())?;
            let setup_s = secs(t_setup);
            let before = pool_counters(&session);
            let mut sink = DriveSink::start();
            let outcome = session
                .sweep(&inputs.scenarios)
                .summary()
                .drive_with(&mut sink);
            let wall_s = secs(sink.start);
            let after = pool_counters(&session);
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    checks.failed_ops(&format!("pricing drive: {e}"), n as u64);
                    return None;
                }
            };
            sweep_delivery_checks(checks, &sink, outcome.delivered(), n);
            let stats = session.stage1_cache_stats();
            checks.eq("pricing stage-1 misses", stats.misses, 1);
            checks.eq("pricing stage-1 builds", stats.builds, 1);
            checks.eq(
                "pricing summary scenarios",
                outcome.summary().map(|s| s.scenarios()),
                Some(n),
            );
            Some(Drive {
                setup_s,
                wall_s,
                sink,
                stage1: stats,
                pool_injected: after.0 - before.0,
                pool_stolen: after.1 - before.1,
                global_injected: after.2 - before.2,
                persisted_bytes: 0,
                drilldown: None,
                telemetry: outcome.into_telemetry(),
            })
        }
        Workload::PortfolioPlan => {
            let setup =
                checks.result("portfolio setup", portfolio_setup(&inputs, &dir, telemetry))?;
            let setup_s = secs(t_setup);
            let before = pool_counters(&setup.session);
            let mut sink = DriveSink::start();
            let outcome = setup
                .session
                .sweep(&inputs.scenarios)
                .summary()
                .persist_to(Arc::clone(&setup.reports) as Arc<_>)
                .warehouse(setup.layout.clone())
                .work_dir(&setup.ingest_dir)
                .materialize_budget(inputs::VIEW_BUDGET_BYTES)
                .drive_with(&mut sink);
            let wall_s = secs(sink.start);
            let after = pool_counters(&setup.session);
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    checks.failed_ops(&format!("portfolio drive: {e}"), n as u64);
                    return None;
                }
            };
            sweep_delivery_checks(checks, &sink, outcome.delivered(), n);
            let stats = setup.session.stage1_cache_stats();
            checks.eq("portfolio stage-1 misses", stats.misses, n as u64);
            checks.eq("portfolio stage-1 builds", stats.builds, n as u64);
            checks.eq("portfolio disk-tier writes", stats.disk_writes, n as u64);
            checks.eq(
                "portfolio reports persisted",
                outcome.persisted().map(|p| p.reports()),
                Some(n as u64),
            );
            checks.eq(
                "portfolio run manifest slots",
                setup.reports.persisted_report_slots(0).ok(),
                Some(n),
            );
            for (slot, &(_, ylt, _)) in sink.slots.iter().enumerate() {
                let persisted = setup.reports.load_report_ylt(Some(slot), 0);
                checks.eq(
                    &format!("portfolio persisted YLT slot {slot}"),
                    persisted.ok().map(|y| checks::ylt_digest(&y)),
                    Some(ylt),
                );
            }
            for (q, query) in inputs::query_battery().iter().enumerate() {
                match outcome.drilldown().answer(query) {
                    Ok((rows, cost)) => {
                        checks.op(
                            &format!("query {q} empty or read facts"),
                            !rows.is_empty() && cost.facts_read == 0,
                        );
                        if rep == 0 {
                            answers.word(checks::answer_digest(&rows, &cost));
                        }
                    }
                    Err(e) => checks.op(&format!("query {q}: {e}"), false),
                }
            }
            let persisted_bytes = outcome.persisted().map_or(0, |p| p.bytes());
            let telemetry_snapshot = outcome.telemetry().cloned();
            let drilldown = telemetry.is_some().then(|| outcome.into_drilldown());
            Some(Drive {
                setup_s,
                wall_s,
                sink,
                stage1: stats,
                pool_injected: after.0 - before.0,
                pool_stolen: after.1 - before.1,
                global_injected: after.2 - before.2,
                persisted_bytes,
                drilldown,
                telemetry: telemetry_snapshot,
            })
        }
        Workload::ContractRequests => unreachable!("not a sweep workload"),
    }
}

/// Checks every sweep drive shares: all scenarios delivered, in order.
fn sweep_delivery_checks(checks: &mut Checks, sink: &DriveSink, delivered: usize, n: usize) {
    // Each delivered scenario is one operation.
    for slot in 0..n {
        checks.op(&format!("scenario {slot} not delivered"), slot < delivered);
    }
    checks.eq("reports seen by the extra sink", sink.slots.len(), n);
    checks.eq("reports out of input order", sink.out_of_order, 0);
}

/// Extra sweep set-ups (input generation, session build, store handles
/// and layout), measured and dropped.
fn extra_sweep_setups(opts: &Options, checks: &mut Checks) -> Vec<f64> {
    let dir = opts.work_dir.join("portfolio");
    if opts.workload == Workload::PortfolioPlan {
        checks.result("portfolio directories", portfolio_dirs(&dir));
    }
    let mut samples = Vec::new();
    for _ in 0..EXTRA_SWEEP_SETUPS {
        let t = Instant::now();
        let inputs = inputs::generate(opts.workload, opts.size, opts.seed);
        let built = match opts.workload {
            Workload::PortfolioPlan => {
                let setup = portfolio_setup(&inputs, &dir, None).map(drop);
                samples.push(secs(t));
                setup
            }
            _ => {
                let session = session_builder(None).build().map(drop);
                samples.push(secs(t));
                session
            }
        };
        checks.result("set-up", built);
    }
    samples
}

/// Measure a sweep workload: drives until the window closes.
fn sweeps(opts: &Options) -> Outcome {
    let mut checks = Checks::default();
    let mut answers = Digest::default();
    let mut setups = extra_sweep_setups(opts, &mut checks);
    let mut drives: Vec<Drive> = Vec::new();
    let window = Instant::now();
    loop {
        let drive = sweep_drive(opts, drives.len(), &mut checks, &mut answers, None);
        let Some(drive) = drive else { break };
        setups.push(drive.setup_s);
        drives.push(drive);
        // More set-up samples after every drive, so their median spans
        // the whole run rather than its first moments.
        setups.extend(extra_sweep_setups(opts, &mut checks));
        if secs(window) >= opts.seconds.min(WINDOW_CAP_S) {
            break;
        }
    }
    let peak_rss = crate::peak_rss_mib();

    let inputs = inputs::generate(opts.workload, opts.size, opts.seed);
    let mut context = input_context(&inputs);
    let mut digest = Digest::default();
    if let Some(first) = drives.first() {
        for (i, drive) in drives.iter().enumerate() {
            checks.eq(
                &format!("drive {i} digest equals drive 0"),
                drive.sink.digest(),
                first.sink.digest(),
            );
        }
        sampled_check(opts, &inputs, None, &first.sink.slots, &mut checks);
        if let Some((elt_rows, yet_occurrences)) = first.sink.sizes {
            context.push(("elt_rows".into(), elt_rows.to_string()));
            context.push(("yet_occurrences".into(), yet_occurrences.to_string()));
        }
        context.push(("drives".into(), drives.len().to_string()));
        digest.word(first.sink.digest()).word(answers.finish());
    }

    let walls: Vec<f64> = drives.iter().map(|d| d.wall_s).collect();
    let firsts: Vec<f64> = drives
        .iter()
        .filter_map(|d| d.sink.first_report_s())
        .collect();
    // A sweep's per-scenario latency, timed from outside: the gap
    // between consecutive deliveries to the extra sink. A drive has
    // 8–12 of them, too few for a pooled p90 to have ten samples beyond
    // it; each drive's quantile, median over drives, is what stays
    // steady run to run.
    let per_drive = |q: f64| -> Vec<f64> {
        drives
            .iter()
            .map(|d| quantile(&d.sink.gaps_ms(), q))
            .collect()
    };
    context.push((
        "latency_samples_per_drive".into(),
        inputs.scenarios.len().to_string(),
    ));
    let wall = median(&walls);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups), unit::S);
    metrics.set("wall_s", wall, unit::S);
    metrics.set(
        "trials_per_s",
        inputs.trials() as f64 / wall,
        unit::TRIALS_PER_S,
    );
    metrics.set("first_report_s", median(&firsts), unit::S);
    metrics.set("request_ms_p50", median(&per_drive(0.5)), unit::MS);
    metrics.set("request_ms_p90", median(&per_drive(0.9)), unit::MS);
    metrics.set("peak_rss_mb", peak_rss, unit::MIB);
    Outcome {
        checks,
        metrics,
        digest: digest.finish(),
        context,
    }
}

/// One request on `session`, timed and checked against the key's
/// first response.
struct RequestLoop<'a> {
    inputs: &'a Inputs,
    latencies_ms: Vec<f64>,
    /// Per key: (report, YLT, DFA) digests of its first response.
    per_key: Vec<Option<(u64, u64, u64)>>,
}

impl RequestLoop<'_> {
    /// Issue request number `i`; its latency in seconds, or `None` when
    /// it failed (counted in `checks`).
    fn request(&mut self, session: &RiskSession, i: usize, checks: &mut Checks) -> Option<f64> {
        let k = self.inputs.scenarios.len();
        let t = Instant::now();
        let result = session.run(&self.inputs.scenarios[i % k]);
        let latency = secs(t);
        let report = checks.result(&format!("request {i}"), result)?;
        let got = checks::output_digests(&report);
        let want = *self.per_key[i % k].get_or_insert(got);
        checks.eq(
            &format!("request {i} equals the key's first response"),
            got,
            want,
        );
        Some(latency)
    }
}

/// Measure the request workload: each set-up is followed by its fresh
/// session's first request (time to first report); the last session
/// then serves a closed loop of whole latency blocks until the window
/// closes and the pooled p90 has ten samples beyond it. `wall_s` is
/// the time the first `min_requests` requests of the loop took, so it
/// moves both ways whatever the window length.
fn requests(opts: &Options) -> Outcome {
    let mut checks = Checks::default();
    let mut inputs = inputs::generate(opts.workload, opts.size, opts.seed);
    let k = inputs.scenarios.len();
    let mut setups = Vec::new();
    let mut firsts = Vec::new();
    let mut per_key = vec![None; k];
    let mut reader = None;
    let mut tier = PathBuf::new();
    for rep in 0..REQUEST_SETUPS {
        drop(reader.take());
        let _ = std::fs::remove_dir_all(&tier);
        let t = Instant::now();
        inputs = inputs::generate(opts.workload, opts.size, opts.seed);
        tier = opts.work_dir.join(format!("tier-{rep}"));
        reader = checks.result(
            "request set-up",
            fill_tier(&inputs, &tier, None).and_then(|()| open_reader(&tier, None)),
        );
        setups.push(secs(t));
        let Some(session) = reader.as_ref() else {
            break;
        };
        let mut first = RequestLoop {
            inputs: &inputs,
            latencies_ms: Vec::new(),
            per_key,
        };
        // The last key, so the loop's first request (key 0) still
        // misses the one-entry RAM tier.
        if let Some(latency) = first.request(session, k - 1, &mut checks) {
            firsts.push(latency);
        }
        per_key = first.per_key;
    }

    let mut lp = RequestLoop {
        inputs: &inputs,
        latencies_ms: Vec::new(),
        per_key,
    };
    let window = Instant::now();
    let mut batch_s = None;
    if let Some(session) = reader.as_ref() {
        let block = inputs.latency_block;
        while (secs(window) < opts.seconds
            || lp.latencies_ms.len() < inputs.min_requests
            || !lp.latencies_ms.len().is_multiple_of(block))
            && secs(window) < WINDOW_CAP_S
        {
            let i = lp.latencies_ms.len();
            match lp.request(session, i, &mut checks) {
                Some(latency) => lp.latencies_ms.push(latency * 1e3),
                None => break,
            }
            if lp.latencies_ms.len() == inputs.min_requests {
                batch_s = Some(secs(window));
            }
        }
    }
    checks.op("request batch completed", batch_s.is_some());
    let wall = batch_s.unwrap_or_else(|| secs(window));
    let peak_rss = crate::peak_rss_mib();
    let requests = lp.latencies_ms.len();

    if let Some(session) = reader.as_ref() {
        // The last session served its first request and the loop.
        let stats = session.stage1_cache_stats();
        checks.eq("request stage-1 builds", stats.builds, 0);
        checks.eq("request disk hits", stats.disk_hits, requests as u64 + 1);
    }
    let per_key: Vec<_> = lp.per_key.iter().map(|d| d.unwrap_or_default()).collect();
    sampled_check(opts, &inputs, Some(&tier), &per_key, &mut checks);
    drop(reader);
    let _ = std::fs::remove_dir_all(&tier);

    let mut digest = Digest::default();
    for (report, _, _) in lp.per_key.iter().flatten() {
        digest.word(*report);
    }
    let mut context = input_context(&inputs);
    context.push(("requests".into(), requests.to_string()));
    let trials = inputs.min_requests as f64 * inputs.scenarios[0].trials as f64;
    // Each block's quantile, median over blocks (as the sweeps take it
    // per drive): a burst of load from outside the process slows the
    // requests of a block or two, which a pooled p90 of one run would
    // report as the program's tail.
    let per_block = |q: f64| -> Vec<f64> {
        lp.latencies_ms
            .chunks_exact(inputs.latency_block)
            .map(|block| quantile(block, q))
            .collect()
    };
    context.push((
        "latency_blocks".into(),
        (requests / inputs.latency_block).to_string(),
    ));
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups), unit::S);
    metrics.set("wall_s", wall, unit::S);
    metrics.set("trials_per_s", trials / wall, unit::TRIALS_PER_S);
    metrics.set("first_report_s", median(&firsts), unit::S);
    metrics.set("request_ms_p50", median(&per_block(0.5)), unit::MS);
    metrics.set("request_ms_p90", median(&per_block(0.9)), unit::MS);
    metrics.set("peak_rss_mb", peak_rss, unit::MIB);
    Outcome {
        checks,
        metrics,
        digest: digest.finish(),
        context,
    }
}

/// Compare the seed-sampled slot of `outputs` (per slot or key: report,
/// YLT and DFA digests) with its recomputation on `EngineKind::Sequential`
/// from stage 1 loaded from the request tier `tier`, or built on one
/// thread when there is none.
pub(crate) fn sampled_check(
    opts: &Options,
    inputs: &Inputs,
    tier: Option<&Path>,
    outputs: &[(u64, u64, u64)],
    checks: &mut Checks,
) {
    let s = inputs::sampled_index(opts.seed, inputs.scenarios.len());
    let scenario = &inputs.scenarios[s];
    let stage1 = match tier {
        Some(tier) => DiskStage1Cache::new(tier)
            .and_then(|disk| disk.load(scenario.stage1_key()))
            .and_then(|loaded| loaded.ok_or_else(|| RiskError::invalid("key missing from tier")))
            .map(Arc::new),
        None => checks::reference_stage1(scenario),
    };
    let reference = stage1.and_then(|stage1| checks::sequential_reference(scenario, stage1));
    if let Some((ylt, dfa)) = checks.result("sequential recompute", reference) {
        let (_, got_ylt, got_dfa) = outputs.get(s).copied().unwrap_or_default();
        checks.eq(
            &format!("slot {s} YLT vs sequential engine"),
            got_ylt,
            checks::reference(ylt, opts.corrupt_reference),
        );
        checks.eq(
            &format!("slot {s} DFA vs sequential engine"),
            got_dfa,
            checks::reference(dfa, opts.corrupt_reference),
        );
    }
}

/// Input-size context shared by every workload.
pub fn input_context(inputs: &Inputs) -> Vec<(String, String)> {
    vec![
        ("scenarios".into(), inputs.scenarios.len().to_string()),
        ("distinct_keys".into(), inputs.distinct_keys().to_string()),
        (
            "trials_per_scenario".into(),
            inputs.scenarios[0].trials.to_string(),
        ),
    ]
}

/// Run the end-to-end measurement of `opts.workload`.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        Workload::PricingSweep | Workload::PortfolioPlan => sweeps(opts),
        Workload::ContractRequests => requests(opts),
    }
}
