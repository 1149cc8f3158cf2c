//! Steadiness report: runs one workload as two sets of runs (seeds
//! `1..=runs` each), then prints each end-to-end metric's spread within
//! each set — the distance between the first and third quartile as a
//! share of the median — and flags any spread above a tenth. Also records
//! the host facts the numbers depend on.

use crate::stats::{filesystem_of, median, nproc, quartiles};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::Command;

/// Spread above which a metric is flagged.
const FLAG: f64 = 0.1;

/// Reads the `  name  value unit` lines of the run's end-to-end block,
/// which lists every end-to-end metric (bounded or not).
fn parse_metrics(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("end-to-end"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next()?.to_string();
            let value = parts.next()?.parse().ok()?;
            Some((name, value))
        })
        .collect()
}

fn one_run(w: Workload, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!("seed {seed} failed ({}): {last}", out.status));
    }
    Ok(parse_metrics(&stdout))
}

pub fn main(args: &[String]) -> Result<(), String> {
    let get = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let w = get("--workload")
        .and_then(|s| Workload::parse(s))
        .ok_or("steady needs --workload <ybranch|cube|opamp_sweep>")?;
    let runs: u64 = get("--runs")
        .map_or(Ok(5), |s| s.parse())
        .map_err(|_| "bad --runs")?;
    let seconds: u64 = get("--seconds")
        .map_or(Ok(40), |s| s.parse())
        .map_err(|_| "bad --seconds")?;
    if runs < 2 {
        return Err("steady needs --runs >= 2".into());
    }
    println!(
        "host: nproc {} | {} threads {} | checkpoint filesystem {}",
        nproc(),
        w.name(),
        w.threads(),
        filesystem_of(&std::env::current_dir().map_err(|e| e.to_string())?)
    );
    let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
    for set in 1..=2 {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in 1..=runs {
            for (k, v) in one_run(w, seed, seconds)? {
                values.entry(k).or_default().push(v);
            }
            eprintln!("set {set} seed {seed} done");
        }
        sets.push(values);
    }
    println!(
        "{:<14} {:>14} {:>9} {:>14} {:>9} {:>10}",
        "metric", "median set 1", "spread 1", "median set 2", "spread 2", "2 vs 1"
    );
    let mut flagged = 0;
    for (name, first) in &sets[0] {
        let second = sets[1].get(name).cloned().unwrap_or_default();
        let spread = |xs: &[f64]| {
            let (q1, q2, q3) = quartiles(xs);
            if q2 == 0.0 {
                0.0
            } else {
                (q3 - q1) / q2
            }
        };
        let (s1, s2) = (spread(first), spread(&second));
        let (m1, m2) = (median(first), median(&second));
        let drift = if m1 == 0.0 { 0.0 } else { m2 / m1 - 1.0 };
        let flag = if s1 > FLAG || s2 > FLAG {
            flagged += 1;
            "  <-- spread above a tenth"
        } else {
            ""
        };
        println!("{name:<14} {m1:>14.6} {s1:>9.4} {m2:>14.6} {s2:>9.4} {drift:>+10.4}{flag}");
    }
    println!("{flagged} metric(s) flagged");
    Ok(())
}
