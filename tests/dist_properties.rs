//! Property tests for `riskpipe_types::dist`: sample-moment bounds on
//! arbitrary parameters (not just the fixtures unit tests chose),
//! alias-table weight fidelity, and same-seed determinism.
//!
//! Tolerances are Monte-Carlo aware: a sample mean of `n` draws from a
//! distribution with standard deviation `σ` errs by ~`σ/√n`, so every
//! bound allows several times that. The vendored proptest shim derives
//! its case stream from the test name, so these never flake: a passing
//! run passes identically everywhere.

use proptest::prelude::*;
use riskpipe::core::ScenarioConfig;
use riskpipe::types::dist::{
    AliasTable, Beta, Distribution, Exponential, Gamma, LogNormal, Normal, Poisson, Uniform,
};
use riskpipe::types::special::{inc_beta, inv_inc_beta};
use riskpipe::types::{Pcg64, RunningStats};

/// Sample `n` draws and accumulate running moments.
fn moments(d: &impl Distribution, n: usize, seed: u64) -> RunningStats {
    let mut rng = Pcg64::new(seed);
    let mut st = RunningStats::new();
    for _ in 0..n {
        st.push(d.sample(&mut rng));
    }
    st
}

/// Allowed |sample mean − true mean| for `n` draws at std dev `sd`.
fn mean_tolerance(sd: f64, n: usize) -> f64 {
    6.0 * sd / (n as f64).sqrt() + 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn uniform_bounds_and_mean(lo in -1_000.0..1_000.0f64, span in 0.1..500.0f64) {
        let hi = lo + span;
        let d = Uniform::new(lo, hi);
        let n = 20_000;
        let mut rng = Pcg64::new(1);
        for _ in 0..n {
            let x = d.sample(&mut rng);
            prop_assert!((lo..hi).contains(&x), "{x} outside [{lo}, {hi})");
        }
        let st = moments(&d, n, 2);
        let sd = span / 12f64.sqrt();
        prop_assert!(
            (st.mean() - (lo + hi) / 2.0).abs() < mean_tolerance(sd, n),
            "mean {} for [{lo}, {hi})", st.mean()
        );
    }

    #[test]
    fn normal_moment_bounds(mean in -500.0..500.0f64, sd in 0.1..50.0f64) {
        let n = 20_000;
        let st = moments(&Normal::new(mean, sd), n, 3);
        prop_assert!(
            (st.mean() - mean).abs() < mean_tolerance(sd, n),
            "mean {} vs {mean} (sd {sd})", st.mean()
        );
        // Sample sd errs by ~sd/√(2n); allow 10x.
        prop_assert!(
            (st.sd() - sd).abs() < 10.0 * sd / (2.0 * n as f64).sqrt() + 1e-9,
            "sd {} vs {sd}", st.sd()
        );
    }

    #[test]
    fn lognormal_mean_cv_moment_bounds(mean in 1.0..10_000.0f64, cv in 0.1..1.5f64) {
        let n = 40_000;
        let st = moments(&LogNormal::from_mean_cv(mean, cv), n, 4);
        let sd = cv * mean;
        prop_assert!(
            (st.mean() - mean).abs() < mean_tolerance(sd, n),
            "mean {} vs {mean} (cv {cv})", st.mean()
        );
        let mut rng = Pcg64::new(5);
        let d = LogNormal::from_mean_cv(mean, cv);
        for _ in 0..1_000 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_moment_bounds(rate in 0.001..10.0f64) {
        let n = 20_000;
        let st = moments(&Exponential::new(rate), n, 6);
        let mean = 1.0 / rate;
        prop_assert!(
            (st.mean() - mean).abs() < mean_tolerance(mean, n),
            "mean {} vs {mean} (rate {rate})", st.mean()
        );
    }

    #[test]
    fn gamma_moment_bounds(shape in 0.2..10.0f64, scale in 0.1..10.0f64) {
        let n = 20_000;
        let st = moments(&Gamma::new(shape, scale), n, 7);
        let mean = shape * scale;
        let sd = shape.sqrt() * scale;
        prop_assert!(
            (st.mean() - mean).abs() < mean_tolerance(sd, n),
            "mean {} vs {mean} (k {shape}, θ {scale})", st.mean()
        );
    }

    #[test]
    fn poisson_moment_bounds(lambda in 0.0..50.0f64) {
        let d = Poisson::new(lambda);
        let n = 10_000;
        let mut rng = Pcg64::new(8);
        let mut st = RunningStats::new();
        for _ in 0..n {
            st.push(d.sample_count(&mut rng) as f64);
        }
        prop_assert!(
            (st.mean() - lambda).abs() < mean_tolerance(lambda.sqrt(), n).max(0.01),
            "mean {} vs λ {lambda}", st.mean()
        );
    }

    #[test]
    fn beta_bounds_and_mean(mean in 0.05..0.95f64, sd in 0.01..0.5f64) {
        let b = Beta::from_mean_sd_clamped(mean, sd);
        let n = 4_000;
        let mut rng = Pcg64::new(9);
        let mut st = RunningStats::new();
        for _ in 0..n {
            let x = b.sample(&mut rng);
            prop_assert!((0.0..=1.0).contains(&x), "{x} outside the unit interval");
            st.push(x);
        }
        // The fit may clamp the requested sd; bound against the sample's
        // own spread, which the clamp keeps below mean·(1−mean).
        prop_assert!(
            (st.mean() - b.mean()).abs() < mean_tolerance(st.sd().max(1e-3), n),
            "mean {} vs {}", st.mean(), b.mean()
        );
    }

    /// Empirical alias-table frequencies match the normalised weights.
    #[test]
    fn alias_table_weight_fidelity(weights in prop::collection::vec(0.01..10.0f64, 1..20)) {
        let t = AliasTable::new(&weights).unwrap();
        prop_assert_eq!(t.len(), weights.len());
        let total: f64 = weights.iter().sum();
        let n = 50_000usize;
        let mut counts = vec![0u64; weights.len()];
        let mut rng = Pcg64::new(10);
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] as f64 / n as f64;
            let tol = 6.0 * (expect * (1.0 - expect) / n as f64).sqrt() + 2e-3;
            prop_assert!(
                (got - expect).abs() < tol,
                "category {i}: {got} vs {expect} (tol {tol})"
            );
        }
    }

    /// Identical seeds reproduce identical bit streams for every
    /// sampler family — including the variable-draw ones (Gamma,
    /// Poisson, AliasTable) whose consumption per variate varies.
    #[test]
    fn same_seed_determinism(seed in any::<u64>(), k in 0.3..5.0f64) {
        let gamma = Gamma::new(k, 2.0);
        let lognormal = LogNormal::from_mean_cv(100.0 * k, 0.9);
        let poisson = Poisson::new(10.0 * k);
        let alias = AliasTable::new(&[1.0, k, 2.0 * k]).unwrap();

        let mut a = Pcg64::new(seed);
        let mut b = Pcg64::new(seed);
        for _ in 0..200 {
            prop_assert_eq!(
                gamma.sample(&mut a).to_bits(),
                gamma.sample(&mut b).to_bits()
            );
            prop_assert_eq!(
                lognormal.sample(&mut a).to_bits(),
                lognormal.sample(&mut b).to_bits()
            );
            prop_assert_eq!(poisson.sample_count(&mut a), poisson.sample_count(&mut b));
            prop_assert_eq!(alias.sample(&mut a), alias.sample(&mut b));
        }
        // And the streams actually advance (not a constant sampler).
        let first = lognormal.sample(&mut Pcg64::new(seed));
        let again = lognormal.sample(&mut a);
        prop_assert!(first.is_finite() && again.is_finite());
    }
}

/// The Beta quantile by plain bisection on the CDF, to an absolute
/// bracket width of 1e-17 — the reference `inv_inc_beta` is held to.
fn bisect_quantile(p: f64, a: f64, b: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > 1e-17 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if inc_beta(a, b, mid) > p {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Forward error of `inv_inc_beta` at every point a secondary table
/// inverts: the 33-point grid `u_k = (k + 0.5) / 33` of
/// `QuantileMode::default()`, on the moment-matched Beta shapes of every
/// ELT row of the `small()` scenario. Away from the `Beta` clamp floor
/// (`min(a, b) >= 0.01`) the error is at most 1e-12. At the floor
/// (shapes near 1e-6, where the CDF is a near-step around its two
/// atoms) it reaches ~3e-11 and is held to 1e-10.
#[test]
fn inv_inc_beta_forward_error_is_bounded_on_the_secondary_grid() {
    const GRID: usize = 33;
    const BODY_BOUND: f64 = 1e-12;
    const FLOOR_BOUND: f64 = 1e-10;
    let pool = riskpipe::exec::ThreadPool::new(1);
    let output = ScenarioConfig::small()
        .build_stage1_output_on(&pool)
        .expect("small() stage 1 builds");
    let mut shapes: Vec<(f64, f64)> = Vec::new();
    for book in &output.books {
        let (_ids, mean, sigma_i, sigma_c, exposure) = book.elt.columns();
        for i in 0..mean.len() {
            let sigma = (sigma_i[i] * sigma_i[i] + sigma_c[i] * sigma_c[i]).sqrt();
            let beta = Beta::from_mean_sd_clamped(mean[i] / exposure[i], sigma / exposure[i]);
            shapes.push((beta.alpha(), beta.beta()));
        }
    }
    shapes.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
    shapes.dedup();
    let (mut body, mut floor) = ((0usize, 0.0f64), (0usize, 0.0f64));
    for &(a, b) in &shapes {
        let class = if a.min(b) >= 0.01 {
            &mut body
        } else {
            &mut floor
        };
        for k in 0..GRID {
            let u = (k as f64 + 0.5) / GRID as f64;
            let err = (inv_inc_beta(u, a, b) - bisect_quantile(u, a, b)).abs();
            class.0 += 1;
            class.1 = class.1.max(err);
        }
    }
    // Both classes occur in the data, so neither bound is vacuous.
    assert!(body.0 > 10_000, "only {} body points", body.0);
    assert!(floor.0 > 0, "small() has no clamp-floor rows");
    assert!(body.1 <= BODY_BOUND, "body forward error {:e}", body.1);
    assert!(
        floor.1 <= FLOOR_BOUND,
        "clamp-floor forward error {:e}",
        floor.1
    );
}
