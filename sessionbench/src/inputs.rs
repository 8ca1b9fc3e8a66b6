//! Workload inputs: the `ScenarioConfig`s each workload hands the
//! program, all derived from the workload seed.

use crate::{Size, Workload};
use riskpipe::analytics::ScenarioDims;
use riskpipe::core::ScenarioConfig;
use riskpipe::warehouse::{dim, Filter, LevelSelect, Query};

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 11;

/// A seed held out while the benchmark was written, for confirming
/// later claims on inputs nobody tuned against.
pub const HELD_OUT_SEED: u64 = 2029;

/// Byte budget for the portfolio plan's view materialisation.
pub const VIEW_BUDGET_BYTES: u64 = 256 * 1024;

/// One workload's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Scenarios in sweep (or request-cycle) order.
    pub scenarios: Vec<ScenarioConfig>,
    /// Warehouse coordinates per scenario (portfolio plan only).
    pub dims: Vec<ScenarioDims>,
    /// Fewest requests a request loop issues, so that its pooled p90
    /// has at least ten samples beyond it (contract requests only).
    pub min_requests: usize,
    /// Requests per latency block: the loop issues whole blocks, each
    /// cycling every key equally often, and reports the median over
    /// blocks of each block's quantile (contract requests only).
    pub latency_block: usize,
}

impl Inputs {
    /// Trials one pass over `scenarios` delivers.
    pub fn trials(&self) -> u64 {
        self.scenarios.iter().map(|s| s.trials as u64).sum()
    }

    /// Distinct stage-1 keys among the scenarios.
    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<u64> = self.scenarios.iter().map(|s| s.stage1_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }
}

/// SplitMix64: derives independent scenario seeds from the workload
/// seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of `workload` at `size` for workload seed `seed`.
pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
    let tiny = size == Size::Tiny;
    match workload {
        Workload::PricingSweep => {
            // Stage 1 once, stage 2 per attachment point: one shared key.
            let points = if tiny { 3 } else { 12 };
            let base = ScenarioConfig::small()
                .with_seed(mix(seed, 1))
                .with_trials(if tiny { 400 } else { 20_000 });
            let scenarios = (0..points)
                .map(|i| {
                    base.clone()
                        .with_attachment_factor(0.25 + 0.25 * i as f64)
                        .with_name(format!("price-{i:02}"))
                })
                .collect();
            Inputs {
                scenarios,
                dims: Vec::new(),
                min_requests: 0,
                latency_block: 0,
            }
        }
        Workload::PortfolioPlan => {
            // Regions × perils × attachments, every slot its own key.
            let perils = if tiny { 1 } else { 2 };
            let trials = if tiny { 400 } else { 50_000 };
            let mut scenarios = Vec::new();
            let mut dims = Vec::new();
            for region in 0..2u32 {
                for peril in 0..perils {
                    for attach in 0..2u32 {
                        let slot = scenarios.len() as u64;
                        let scenario = ScenarioConfig::small()
                            .with_seed(mix(seed, 100 + slot))
                            .with_trials(trials)
                            .with_attachment_factor(0.25 + 0.25 * attach as f64)
                            .with_name(format!("r{region}-p{peril}-a{attach}"));
                        dims.push(ScenarioDims::for_scenario(region, peril, &scenario));
                        scenarios.push(scenario);
                    }
                }
            }
            Inputs {
                scenarios,
                dims,
                min_requests: 0,
                latency_block: 0,
            }
        }
        Workload::ContractRequests => {
            // One-contract models cycled by the request loop; more keys
            // than the RAM tier holds, so every request reads disk.
            let keys = if tiny { 2 } else { 4 };
            let scenarios = (0..keys)
                .map(|k| {
                    let mut scenario = ScenarioConfig::small()
                        .with_seed(mix(seed, 200 + k as u64))
                        .with_trials(if tiny { 400 } else { 20_000 })
                        .with_name(format!("contract-{k}"));
                    scenario.contracts = 1;
                    scenario
                })
                .collect();
            Inputs {
                scenarios,
                dims: Vec::new(),
                min_requests: if tiny { 4 } else { 100 },
                latency_block: if tiny { 2 } else { 20 },
            }
        }
    }
}

/// The fixed drill-down query battery run after a portfolio-plan drive:
/// rollups, slices and a tail dice over the warehouse's four dimensions
/// (geography, event, contract, return period; higher level = coarser).
pub fn query_battery() -> Vec<Query> {
    vec![
        Query::group_by(LevelSelect([0, 0, 3, 1])),
        Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 1)),
        Query::group_by(LevelSelect([0, 0, 3, 0])).filter(Filter {
            dim: dim::TIME,
            codes: vec![5, 6],
        }),
        Query::group_by(LevelSelect([1, 1, 3, 0])),
        Query::group_by(LevelSelect([0, 1, 3, 1])),
        Query::group_by(LevelSelect([1, 0, 1, 0])),
        Query::group_by(LevelSelect([1, 1, 0, 1])),
        Query::group_by(LevelSelect([0, 0, 0, 0])).filter(Filter::slice(dim::EVENT, 0)),
    ]
}

/// The index of the scenario (or request) whose output is recomputed
/// on the sequential engine, chosen from the workload seed.
pub fn sampled_index(seed: u64, n: usize) -> usize {
    (mix(seed, 999) % n.max(1) as u64) as usize
}
