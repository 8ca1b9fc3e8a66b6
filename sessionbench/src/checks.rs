//! Output checks: digests of what the program produced, the sequential
//! recomputation every run compares against, and the attempted/failed
//! tally behind the result line.

use riskpipe::aggregate::{AggregateRunner, EngineKind};
use riskpipe::core::{PipelineReport, ScenarioConfig};
use riskpipe::dfa::{CompanyConfig, DfaEngine};
use riskpipe::exec::ThreadPool;
use riskpipe::tables::Ylt;
use riskpipe::types::RiskResult;
use riskpipe::warehouse::{QueryCost, SketchRow};

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Count one operation; `ok == false` counts it failed.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what.to_string());
        }
    }

    /// Count `n` operations that all failed for one reason.
    pub fn failed_ops(&mut self, what: &str, n: u64) {
        self.attempted += n;
        self.failed += n;
        self.notes.push(what.to_string());
    }

    /// Count one operation that returned `result`; the value on success.
    pub fn result<T>(&mut self, what: &str, result: RiskResult<T>) -> Option<T> {
        match result {
            Ok(value) => {
                self.op(what, true);
                Some(value)
            }
            Err(e) => {
                self.op(&format!("{what}: {e}"), false);
                None
            }
        }
    }

    /// Count one check that `got == want`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        let note = if ok {
            String::new()
        } else {
            format!("{what}: got {got:?}, want {want:?}")
        };
        self.op(&note, ok);
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted() as f64
    }

    /// One line per failure.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// FNV-1a over 64-bit words: a stable digest of exact output bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold an f64's bits.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a YLT's three columns.
pub fn ylt_digest(ylt: &Ylt) -> u64 {
    let mut d = Digest::default();
    let (agg, max_occ, counts) = ylt.columns();
    d.word(agg.len() as u64);
    agg.iter().for_each(|&x| {
        d.float(x);
    });
    max_occ.iter().for_each(|&x| {
        d.float(x);
    });
    counts.iter().for_each(|&c| {
        d.word(c as u64);
    });
    d.finish()
}

/// The DFA outputs a report carries.
pub fn dfa_digest(prob_ruin: f64, mean_net_income: f64, economic_capital: f64) -> u64 {
    Digest::default()
        .float(prob_ruin)
        .float(mean_net_income)
        .float(economic_capital)
        .finish()
}

/// Everything a report's consumers read: the YLT, its risk measures and
/// PML, and the DFA outputs.
pub fn report_digest(report: &PipelineReport) -> u64 {
    let m = &report.measures;
    Digest::default()
        .word(ylt_digest(&report.ylt))
        .float(m.mean)
        .float(m.sd)
        .float(m.var99)
        .float(m.tvar99)
        .float(m.var996)
        .float(m.oep_pml100)
        .float(report.pml_100.unwrap_or(f64::NAN))
        .word(dfa_digest(
            report.prob_ruin,
            report.mean_net_income,
            report.economic_capital,
        ))
        .finish()
}

/// A report's (report, YLT, DFA) digests — the triple every slot and
/// request is compared on.
pub fn output_digests(report: &PipelineReport) -> (u64, u64, u64) {
    (
        report_digest(report),
        ylt_digest(&report.ylt),
        dfa_digest(
            report.prob_ruin,
            report.mean_net_income,
            report.economic_capital,
        ),
    )
}

/// Digest of one drill-down query answer.
pub fn answer_digest(rows: &[SketchRow], cost: &QueryCost) -> u64 {
    let mut d = Digest::default();
    d.word(rows.len() as u64).word(cost.cells_read);
    for row in rows {
        for code in row.codes {
            d.word(code as u64);
        }
        d.float(row.cell.tvar99().unwrap_or(f64::NAN));
        d.float(row.cell.var99().unwrap_or(f64::NAN));
    }
    d.finish()
}

/// The reference for one scenario: its YLT and DFA outputs recomputed
/// through public layer calls on the single-threaded
/// `EngineKind::Sequential` engine, from `stage1` (built or loaded by
/// the caller).
pub fn sequential_reference(
    scenario: &ScenarioConfig,
    stage1: std::sync::Arc<riskpipe::catmodel::Stage1Output>,
) -> RiskResult<(u64, u64)> {
    let bundle = scenario.bundle_from_output(stage1)?;
    let ylt = AggregateRunner::new(EngineKind::Sequential)
        .run(&bundle.portfolio(), &bundle.year_event_table())?;
    let dfa = DfaEngine::typical(CompanyConfig::typical()).run(&ylt, scenario.seed ^ 0xDFA)?;
    Ok((
        ylt_digest(&ylt),
        dfa_digest(
            dfa.prob_ruin(),
            dfa.mean_net_income(),
            dfa.economic_capital(),
        ),
    ))
}

/// Build a scenario's stage 1 on a private single-thread pool, for the
/// sequential reference.
pub fn reference_stage1(
    scenario: &ScenarioConfig,
) -> RiskResult<std::sync::Arc<riskpipe::catmodel::Stage1Output>> {
    let pool = ThreadPool::try_new(1)?;
    Ok(std::sync::Arc::new(scenario.build_stage1_output_on(&pool)?))
}

/// Flip the low bit of a reference digest when `corrupt` asks for it.
pub fn reference(digest: u64, corrupt: bool) -> u64 {
    if corrupt {
        digest ^ 1
    } else {
        digest
    }
}
