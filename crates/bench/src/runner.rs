//! Sequential experiment runner with measured call accounting.

use crate::cases::CaseConfig;
use crate::NofisEstimator;
use nofis_baselines::{
    AdaptIsEstimator, McEstimator, RareEventEstimator, SirEstimator, SssEstimator, SucEstimator,
    SusEstimator,
};
use nofis_prob::{log_error, CountingOracle, RunningStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Aggregated result of repeated runs of one method on one case.
#[derive(Debug, Clone, Serialize)]
pub struct MethodResult {
    /// Method name ("MC", "SIR", …, "NOFIS").
    pub method: String,
    /// Mean measured simulator calls per run.
    pub mean_calls: f64,
    /// Mean absolute log error against the golden probability.
    pub mean_log_error: f64,
    /// Standard deviation of the log error across runs.
    pub std_log_error: f64,
    /// Mean probability estimate.
    pub mean_estimate: f64,
    /// Number of repeated runs.
    pub runs: usize,
}

/// Result row for one test case (one entry per method run).
#[derive(Debug, Serialize)]
pub struct CaseResult {
    /// Case id (Table 1 row).
    pub id: usize,
    /// Case name.
    pub name: String,
    /// Dimension.
    pub dim: usize,
    /// Golden probability used in the metric.
    pub golden_pr: f64,
    /// Per-method aggregates in Table 1 column order.
    pub methods: Vec<MethodResult>,
}

/// Runs one estimator `runs` times on the case and aggregates.
pub fn run_method(
    estimator: &dyn RareEventEstimator,
    case: &CaseConfig,
    runs: usize,
    seed0: u64,
) -> MethodResult {
    let mut calls = RunningStats::new();
    let mut errs = RunningStats::new();
    let mut estimates = RunningStats::new();
    for r in 0..runs {
        let ls = (case.entry.make)();
        let oracle = CountingOracle::new(&ls);
        let mut rng = StdRng::seed_from_u64(seed0 + r as u64);
        let p = estimator.estimate(&oracle, &mut rng);
        calls.push(oracle.calls() as f64);
        errs.push(log_error(p, case.entry.golden_pr));
        estimates.push(p);
    }
    MethodResult {
        method: estimator.method_name().to_string(),
        mean_calls: calls.mean(),
        mean_log_error: errs.mean(),
        std_log_error: errs.std_dev(),
        mean_estimate: estimates.mean(),
        runs,
    }
}

/// Builds the seven Table 1 estimators for a case.
pub fn estimators_for(case: &CaseConfig) -> Vec<Box<dyn RareEventEstimator>> {
    let (ais_n, ais_rounds, ais_final) = case.adapt_is;
    vec![
        Box::new(McEstimator::new(case.mc_samples)),
        Box::new(SirEstimator::new(case.sir_train, 2_000_000)),
        Box::new(SucEstimator::new(case.suc_n, 0.1, case.max_levels)),
        Box::new(SusEstimator::new(case.sus_n, 0.1, case.max_levels)),
        Box::new(SssEstimator::new(case.sss_budget)),
        Box::new(AdaptIsEstimator::new(ais_n, ais_rounds, ais_final)),
        Box::new(NofisEstimator::new(case.nofis.clone())),
    ]
}

/// Runs each of `estimators` on one case, in order (the seven of
/// [`estimators_for`] for a full Table 1 row), logging each method's
/// aggregate to stderr.
pub fn run_case(
    case: &CaseConfig,
    estimators: &[Box<dyn RareEventEstimator>],
    runs: usize,
    seed0: u64,
) -> CaseResult {
    let mut methods = Vec::new();
    for est in estimators {
        let t0 = std::time::Instant::now();
        let res = run_method(est.as_ref(), case, runs, seed0);
        eprintln!(
            "  [{:>8}] {}: calls {:.1}K, log-err {:.3} ± {:.3} ({:.1?})",
            res.method,
            case.entry.name,
            res.mean_calls / 1e3,
            res.mean_log_error,
            res.std_log_error,
            t0.elapsed()
        );
        methods.push(res);
    }
    CaseResult {
        id: case.entry.id,
        name: case.entry.name.to_string(),
        dim: case.entry.dim,
        golden_pr: case.entry.golden_pr,
        methods,
    }
}

/// Formats a [`CaseResult`] as a Table 1 style row.
pub fn format_row(r: &CaseResult) -> String {
    let cells: Vec<String> = r
        .methods
        .iter()
        .map(|m| format!("{:.1}K / {:.2}", m.mean_calls / 1e3, m.mean_log_error))
        .collect();
    format!(
        "(#{}) {:<12} D={:<3} Pr={:.2e} | {}",
        r.id,
        r.name,
        r.dim,
        r.golden_pr,
        cells.join(" | ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::table1_configs;

    #[test]
    fn run_method_aggregates_mc_on_rosen() {
        // Rosen is the cheapest non-trivial case (Pr ≈ 4.7e-4).
        let mut case = table1_configs().remove(2);
        case.mc_samples = 20_000;
        let mc = McEstimator::new(case.mc_samples);
        let res = run_method(&mc, &case, 2, 1);
        assert_eq!(res.runs, 2);
        assert_eq!(res.mean_calls, 20_000.0);
        assert!(res.mean_log_error.is_finite());
    }

    #[test]
    fn estimator_list_matches_table_columns() {
        let case = &table1_configs()[2];
        let names: Vec<&str> = estimators_for(case)
            .iter()
            .map(|e| e.method_name())
            .collect();
        assert_eq!(
            names,
            vec!["MC", "SIR", "SUC", "SUS", "SSS", "Adapt-IS", "NOFIS"]
        );
    }
}
