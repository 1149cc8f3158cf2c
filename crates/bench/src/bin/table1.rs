//! Regenerates Table 1 of the NOFIS paper: 10 test cases × 7 methods,
//! reporting "number of calls / logarithm error" averaged over repeated
//! runs.
//!
//! ```text
//! table1 [--runs N] [--cases leaf,cube,...] [--seed S] [--only-nofis]
//! ```
//!
//! The paper averages 20 runs on a V100 cluster; this reproduction runs on
//! a single CPU core, so the default is 5 runs (raise `--runs` when you
//! have the time budget). Results stream to stdout and are dumped to
//! `results/table1.json`. `--only-nofis` runs the NOFIS column alone (to
//! re-measure it without re-spending the baselines' budgets) and writes
//! `results/table1_nofis.json`, leaving the full table alone.

use nofis_baselines::RareEventEstimator;
use nofis_bench::cases::{table1_configs, CaseConfig};
use nofis_bench::runner::{estimators_for, format_row, run_case};
use nofis_bench::NofisEstimator;

fn main() {
    let mut runs = 5usize;
    let mut filter: Option<Vec<String>> = None;
    let mut seed = 1_000u64;
    let mut nofis_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => {
                runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--runs takes an integer");
            }
            "--cases" => {
                filter = Some(
                    args.next()
                        .expect("--cases takes a comma-separated list")
                        .split(',')
                        .map(|s| s.trim().to_lowercase())
                        .collect(),
                );
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--only-nofis" => nofis_only = true,
            other => panic!("unknown argument {other}"),
        }
    }

    let configs = table1_configs();
    let selected: Vec<_> = configs
        .into_iter()
        .filter(|c| {
            filter
                .as_ref()
                .map(|f| f.iter().any(|n| c.entry.name.to_lowercase().contains(n)))
                .unwrap_or(true)
        })
        .collect();

    let estimators = |case: &CaseConfig| -> Vec<Box<dyn RareEventEstimator>> {
        if nofis_only {
            vec![Box::new(NofisEstimator::new(case.nofis.clone()))]
        } else {
            estimators_for(case)
        }
    };
    let out = if nofis_only {
        "results/table1_nofis.json"
    } else {
        "results/table1.json"
    };

    println!(
        "Table 1 reproduction — {runs} runs per (case, method); format: calls / |ln(est) - ln(golden)|"
    );
    let columns: Vec<String> = selected
        .first()
        .map(|case| {
            estimators(case)
                .iter()
                .map(|e| e.method_name().to_string())
                .collect()
        })
        .unwrap_or_default();
    println!("{:<34} | {}", "case", columns.join(" | "));

    let mut results = Vec::new();
    for case in &selected {
        eprintln!(
            "running case #{} {} (D={})…",
            case.entry.id, case.entry.name, case.entry.dim
        );
        let seed0 = seed + case.entry.id as u64 * 1_000;
        let res = run_case(case, &estimators(case), runs, seed0);
        println!("{}", format_row(&res));
        results.push(res);
        // Persist incrementally so partial runs still leave artifacts.
        let json = serde_json::to_string_pretty(&results).expect("serializable results");
        std::fs::create_dir_all("results").ok();
        std::fs::write(out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    }
    println!("\nwrote {out}");
}
