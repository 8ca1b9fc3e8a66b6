//! Secondary uncertainty: turning an occurrence's pre-simulated uniform
//! `z` into an event loss.
//!
//! An ELT row gives the loss distribution's mean, independent/correlated
//! sds and exposure. Industry practice models the *damage ratio*
//! `loss / exposure` as a Beta distribution moment-matched to
//! `(mean/exposure, sigma/exposure)`; the occurrence's loss is then
//! `exposure · F⁻¹_Beta(z)`.
//!
//! Because the beta quantile costs tens of incomplete-beta evaluations,
//! the table supports the interpolation scheme the GPU papers use:
//! pre-compute each row's quantile function on a fixed grid once, then
//! answer lookups with linear interpolation. The approximation is
//! monotone in `z` and identical across all engines (they share the
//! table), preserving cross-engine bit-equality.
//!
//! The table is a pure function of the ELT and the [`QuantileMode`], so
//! a `RiskSession` builds it once per stage-1 key per session, on the
//! session pool, and keeps it in the stage-1 cache entry beside the
//! model run; every scenario priced on that key reuses it.

use riskpipe_exec::ThreadPool;
use riskpipe_tables::Elt;
use riskpipe_types::dist::Beta;

/// How beta quantiles are evaluated at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileMode {
    /// Exact inverse incomplete beta per lookup (slow, reference).
    Exact,
    /// Pre-tabulated quantiles at `n` grid points, linear interpolation
    /// between them (the GPU-paper scheme). `n >= 2`.
    Interpolated(u32),
}

impl Default for QuantileMode {
    fn default() -> Self {
        // 33 points keeps the grid cache-friendly (264 B/row) while the
        // interpolation error stays ~1e-3 of exposure in the body.
        QuantileMode::Interpolated(33)
    }
}

/// Per-ELT-row secondary-uncertainty parameters, precomputed once per
/// stage-1 key per session (on the session pool) and shared by every
/// stage-2 run on that key.
#[derive(Debug, Clone)]
pub struct SecondaryTable {
    exposure: Vec<f64>,
    /// Per-row beta parameters (exact mode).
    betas: Vec<Beta>,
    /// Interpolation grid (empty in exact mode): row-major
    /// `rows × grid_n` quantile values.
    grid: Vec<f64>,
    grid_n: usize,
}

impl SecondaryTable {
    /// Build the table for an ELT on the global pool.
    pub fn build(elt: &Elt, mode: QuantileMode) -> Self {
        Self::build_on(elt, mode, riskpipe_exec::global_pool())
    }

    /// Build the table for an ELT, inverting grid rows in parallel on
    /// `pool`. The result does not depend on the pool: rows are
    /// independent and collected in index order.
    pub fn build_on(elt: &Elt, mode: QuantileMode, pool: &ThreadPool) -> Self {
        let (_ids, mean, sigma_i, sigma_c, exposure) = elt.columns();
        let n = mean.len();
        let mut betas = Vec::with_capacity(n);
        for i in 0..n {
            let exp = exposure[i];
            let mean_dr = mean[i] / exp;
            let sigma = (sigma_i[i] * sigma_i[i] + sigma_c[i] * sigma_c[i]).sqrt();
            let sd_dr = sigma / exp;
            betas.push(Beta::from_mean_sd_clamped(mean_dr, sd_dr));
        }
        let (grid, grid_n) = match mode {
            QuantileMode::Exact => (Vec::new(), 0),
            QuantileMode::Interpolated(g) => {
                let g = g.max(2) as usize;
                // Each row's grid is independent; the Newton inversions
                // dominate analysis start-up, so build rows in parallel
                // (index-ordered collection keeps the table, and thus
                // every engine's output, deterministic).
                let grain = riskpipe_exec::suggest_grain(n, pool.thread_count(), 8);
                let rows: Vec<Vec<f64>> = riskpipe_exec::par_map_collect(pool, n, grain, |i| {
                    let beta = &betas[i];
                    (0..g)
                        .map(|k| {
                            // Grid over (0,1) excluding the exact
                            // endpoints: u_k = (k + 0.5) / g keeps
                            // quantiles finite.
                            let u = (k as f64 + 0.5) / g as f64;
                            beta.quantile(u)
                        })
                        .collect()
                });
                let mut grid = Vec::with_capacity(n * g);
                for row in rows {
                    grid.extend_from_slice(&row);
                }
                (grid, g)
            }
        };
        Self {
            exposure: exposure.to_vec(),
            betas,
            grid,
            grid_n,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.exposure.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.exposure.is_empty()
    }

    /// The loss for ELT row `row` at uniform `z`.
    #[inline]
    pub fn loss(&self, row: u32, z: f64) -> f64 {
        let r = row as usize;
        let dr = if self.grid_n == 0 {
            self.betas[r].quantile(z)
        } else {
            self.interp(r, z)
        };
        self.exposure[r] * dr
    }

    /// Linear interpolation into the row's quantile grid.
    #[inline]
    fn interp(&self, row: usize, z: f64) -> f64 {
        let g = self.grid_n;
        let base = row * g;
        // Grid abscissae are u_k = (k + 0.5)/g; invert to a fractional
        // index and clamp to the grid ends.
        let pos = z * g as f64 - 0.5;
        if pos <= 0.0 {
            return self.grid[base];
        }
        let k = pos as usize;
        if k + 1 >= g {
            return self.grid[base + g - 1];
        }
        let w = pos - k as f64;
        self.grid[base + k] * (1.0 - w) + self.grid[base + k + 1] * w
    }

    /// Heap footprint in bytes (the interpolation grid dominates).
    pub fn memory_bytes(&self) -> usize {
        self.exposure.len() * 8 + self.betas.len() * 16 + self.grid.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_types::EventId;

    fn sample_elt() -> Elt {
        let mut b = EltBuilder::new();
        for i in 1..=20u32 {
            let mean = 1_000.0 * i as f64;
            b.push(EltRecord {
                event_id: EventId::new(i),
                mean_loss: mean,
                sigma_i: mean * 0.4,
                sigma_c: mean * 0.2,
                exposure: mean * 8.0,
            })
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn loss_monotone_in_z() {
        let elt = sample_elt();
        for mode in [QuantileMode::Exact, QuantileMode::Interpolated(33)] {
            let t = SecondaryTable::build(&elt, mode);
            for row in [0u32, 7, 19] {
                let mut prev = -1.0;
                for k in 1..100 {
                    let l = t.loss(row, k as f64 / 100.0);
                    assert!(l >= prev, "{mode:?} row {row} non-monotone");
                    prev = l;
                }
            }
        }
    }

    #[test]
    fn loss_bounded_by_exposure() {
        let elt = sample_elt();
        let t = SecondaryTable::build(&elt, QuantileMode::Exact);
        let (_, _, _, _, exposure) = elt.columns();
        for row in 0..elt.len() as u32 {
            for &z in &[0.001, 0.5, 0.999] {
                let l = t.loss(row, z);
                assert!(l >= 0.0);
                assert!(l <= exposure[row as usize]);
            }
        }
    }

    #[test]
    fn mean_of_quantiles_recovers_elt_mean() {
        // E[loss] = exposure * E[Beta] = exposure * mean_dr = mean_loss;
        // averaging the quantile over u approximates the expectation.
        let elt = sample_elt();
        let t = SecondaryTable::build(&elt, QuantileMode::Exact);
        let n = 2_000;
        let row = 4u32;
        let mut sum = 0.0;
        for k in 0..n {
            sum += t.loss(row, (k as f64 + 0.5) / n as f64);
        }
        let mean = sum / n as f64;
        let expect = elt.mean_loss_at(row);
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean} vs elt {expect}"
        );
    }

    #[test]
    fn interpolated_tracks_exact() {
        let elt = sample_elt();
        let exact = SecondaryTable::build(&elt, QuantileMode::Exact);
        let interp = SecondaryTable::build(&elt, QuantileMode::Interpolated(65));
        let (_, _, _, _, exposure) = elt.columns();
        for row in 0..elt.len() as u32 {
            for k in 1..50 {
                let z = k as f64 / 50.0;
                let e = exact.loss(row, z);
                let i = interp.loss(row, z);
                assert!(
                    (e - i).abs() <= 0.02 * exposure[row as usize],
                    "row {row} z {z}: exact {e} vs interp {i}"
                );
            }
        }
    }

    #[test]
    fn extreme_z_clamps_to_grid_ends() {
        let elt = sample_elt();
        let t = SecondaryTable::build(&elt, QuantileMode::Interpolated(17));
        let near0 = t.loss(0, 1e-12);
        let near1 = t.loss(0, 1.0 - 1e-12);
        assert!(near0 >= 0.0);
        assert!(near1 >= near0);
    }

    #[test]
    fn memory_scales_with_grid() {
        let elt = sample_elt();
        let small = SecondaryTable::build(&elt, QuantileMode::Interpolated(9));
        let big = SecondaryTable::build(&elt, QuantileMode::Interpolated(129));
        assert!(big.memory_bytes() > small.memory_bytes());
        assert_eq!(small.len(), elt.len());
    }
}
