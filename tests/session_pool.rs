//! The session honours its own configuration: a sweep on a
//! `pool_threads(2)` session schedules no task on the process-global
//! pool — stage 1, the secondary-uncertainty tables, stage 2 and the
//! summary all run on the session pool.
//!
//! This file is its own test binary on purpose: the global pool's
//! counters are process-wide, so a test elsewhere that uses the global
//! pool would move them.

use riskpipe::aggregate::EngineKind;
use riskpipe::core::{RiskSession, ScenarioConfig};
use riskpipe::exec::global_pool;
use riskpipe::types::RiskResult;

#[test]
fn session_sweeps_inject_no_task_into_the_global_pool() -> RiskResult<()> {
    // Two keys, two prices each: builds and cache hits both occur.
    let scenarios: Vec<ScenarioConfig> = [31u64, 32]
        .iter()
        .flat_map(|&seed| {
            [0.25, 0.75].map(|factor| {
                let mut s = ScenarioConfig::small()
                    .with_seed(seed)
                    .with_trials(300)
                    .with_attachment_factor(factor);
                s.events = 400;
                s
            })
        })
        .collect();
    for engine in EngineKind::ALL {
        let session = RiskSession::builder()
            .engine(engine)
            .pool_threads(2)
            .build()?;
        let before = global_pool().stats().tasks_injected();
        let outcome = session.sweep(&scenarios).summary().drive()?;
        assert_eq!(outcome.delivered(), scenarios.len());
        assert_eq!(
            global_pool().stats().tasks_injected() - before,
            0,
            "{engine:?}: work ran on the global pool"
        );
        assert!(session.pool().stats().tasks_injected() > 0);
    }
    Ok(())
}
