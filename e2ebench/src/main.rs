//! End-to-end benchmark of whole NOFIS runs.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ybranch|cube|opamp_sweep> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     steady --workload <name> [--runs <n>] [--seconds <s>]
//! ```
//!
//! A run prints its metrics one per line, then, as the last line of
//! standard output, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced pass with `--trace 1`. It exits non-zero when an
//! output check fails. See `e2ebench/README.md`.

mod engine;
mod probe;
mod stats;
mod steady;
mod workloads;

use stats::{print_metrics, result_line, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Scratch directory for sweep checkpoints, relative to the working
/// directory; removed when the run ends.
const WORK_DIR: &str = ".e2ebench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{workload}' (expected one of {names:?})")
    })?;
    let num = |name: &str, default: u64| -> Result<u64, String> {
        flag(args, name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} expects a whole number, got '{v}'"))
        })
    };
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace expects 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed", 1)?,
        seconds: num("--seconds", 40)?.max(1),
        trace,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    // The pool is sized on first use: fix the workload's thread count
    // before anything touches it.
    std::env::set_var("NOFIS_THREADS", w.threads().to_string());
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let report = workloads::run(w, args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let report = report?;

    // Every failed check counts as one failed operation: an estimate
    // outside [0, 1] or over its call cap, or a traced cross-check.
    let mut failures: Vec<String> = report
        .pass
        .outcomes
        .iter()
        .filter_map(|o| o.failure.clone())
        .collect();
    if let Some((_, traced_failures)) = &report.traced {
        failures.extend(traced_failures.iter().cloned());
    }
    let attempted = report.pass.outcomes.len().max(1);
    let failed = failures.len().min(attempted);
    let (bounded, unbounded) = workloads::end_to_end(&report, failed);

    println!(
        "workload {} seed {} seconds {} threads {} nproc {}",
        w.name(),
        args.seed,
        args.seconds,
        w.threads(),
        stats::nproc()
    );
    let secs = &report.pass.secs;
    let tail = tail_percentile(secs).map_or(String::new(), |(p, v)| format!(", p{p} {v:.4} s"));
    println!("run_s_p50 over {} runs{tail}", secs.len());
    print_metrics(
        "end-to-end (untraced)",
        &[bounded.clone(), unbounded.clone()].concat(),
    );

    let metrics = match &report.traced {
        None => bounded,
        Some((layers, _)) => {
            print_metrics("per-layer (traced)", layers);
            [layers.clone(), unbounded].concat()
        }
    };
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let correct = failures.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return match steady::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench steady: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_args(&args).and_then(|a| run(&a));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
