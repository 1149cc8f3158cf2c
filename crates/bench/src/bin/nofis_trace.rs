//! Offline reader for NOFIS JSONL run traces (written via
//! `NOFIS_TRACE_FILE` / `JsonlSink`).
//!
//! ```text
//! nofis-trace check   TRACE.jsonl          # schema-validate, exit 1 if invalid
//! nofis-trace summary TRACE.jsonl          # per-stage table + estimate summary
//! nofis-trace summary --by-job TRACE.jsonl # per-job lifecycle table
//! nofis-trace diff    A.jsonl B.jsonl      # compare two runs stage by stage
//! ```
//!
//! `summary` reconstructs the run from the structured records alone: the
//! `train.stage` spans carry per-stage wall time, step counts, retries,
//! oracle spend, and buffer-pool traffic (from which allocations per step
//! are derived); the `estimate` span carries the estimate, its standard
//! error and PSIS tail shape `k̂`, and whether its importance weights
//! passed the weight-health check.
//! `diff` lines up two traces by stage number to compare timings and
//! resource spend — e.g. before/after a performance change.
//!
//! `summary --by-job` reads the `job.submit` / `job.start` / `job.end`
//! lifecycle events written by the `nofis-jobs` runner (every record a job
//! emits carries a `job` field) and prints one row per job: starts,
//! checkpoints written, simulator calls (from the job's `train.stage` /
//! `estimate` spans), and the terminal outcome.
//! It exits 1 if any submitted job never reached a terminal state — the
//! CI chaos job's no-hang assertion.
//!
//! Flight-recorder dumps (`NOFIS_FLIGHT_DIR`) use the same line format,
//! so every subcommand reads them too.

use nofis_telemetry::trace::{parse_trace, TraceEvent};
use nofis_telemetry::Kind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.len()) {
        (Some("check"), 2) => check(&args[1]),
        (Some("summary"), 2) => summary(&args[1]),
        (Some("summary"), 3) if args[1] == "--by-job" => by_job(&args[2]),
        (Some("diff"), 3) => diff(&args[1], &args[2]),
        _ => {
            eprintln!(
                "usage: nofis-trace check TRACE.jsonl\n\
                 \x20      nofis-trace summary TRACE.jsonl\n\
                 \x20      nofis-trace summary --by-job TRACE.jsonl\n\
                 \x20      nofis-trace diff A.jsonl B.jsonl"
            );
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn check(path: &str) -> ExitCode {
    match load(path) {
        Ok(events) => {
            println!("OK: {} records", events.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One training stage as reconstructed from its `train.stage` span.
struct StageRow {
    stage: u64,
    level: f64,
    secs: f64,
    epochs: u64,
    steps: u64,
    retries: u64,
    oracle_calls: u64,
    pool_misses: u64,
    truncated: bool,
    final_loss: f64,
}

impl StageRow {
    fn allocs_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.pool_misses as f64 / self.steps as f64
        }
    }
}

/// Stage rows from the completed `train.stage` spans (error-path spans
/// carry no fields and are skipped).
fn stage_rows(events: &[TraceEvent]) -> Vec<StageRow> {
    events
        .iter()
        .filter(|e| e.kind == Kind::Span && e.name == "train.stage" && e.field("stage").is_some())
        .map(|e| StageRow {
            stage: e.u64_field("stage").unwrap_or(0),
            level: e.f64_field("level").unwrap_or(f64::NAN),
            secs: e.duration_us.unwrap_or(0) as f64 / 1e6,
            epochs: e.u64_field("epochs").unwrap_or(0),
            steps: e.u64_field("steps").unwrap_or(0),
            retries: e.u64_field("retries").unwrap_or(0),
            oracle_calls: e.u64_field("oracle_calls").unwrap_or(0),
            pool_misses: e.u64_field("pool_misses").unwrap_or(0),
            truncated: e.bool_field("truncated").unwrap_or(false),
            final_loss: e.f64_field("final_loss").unwrap_or(f64::NAN),
        })
        .collect()
}

/// The accepted estimation outcome from the `estimate` span, if present.
fn estimate_row(events: &[TraceEvent]) -> Option<&TraceEvent> {
    events
        .iter()
        .find(|e| e.kind == Kind::Span && e.name == "estimate")
}

fn summary(path: &str) -> ExitCode {
    let events = match load(path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("INVALID: {e}");
            return ExitCode::FAILURE;
        }
    };
    if events.is_empty() {
        println!("empty trace");
        return ExitCode::SUCCESS;
    }
    let first_ts = events.iter().map(|e| e.ts_us).min().unwrap_or(0);
    let last_ts = events
        .iter()
        .map(|e| e.ts_us + e.duration_us.unwrap_or(0))
        .max()
        .unwrap_or(0);
    println!(
        "trace: {} records spanning {:.3} s",
        events.len(),
        (last_ts - first_ts) as f64 / 1e6
    );
    if let Some(start) = events.iter().find(|e| e.name == "train.start") {
        println!(
            "run: dim {}, <= {} stages, budget {}",
            start.u64_field("dim").unwrap_or(0),
            start.u64_field("max_stages").unwrap_or(0),
            start
                .u64_field("budget")
                .filter(|&b| b != u64::MAX)
                .map_or_else(|| "unlimited".into(), |b| b.to_string()),
        );
    }

    let rows = stage_rows(&events);
    if rows.is_empty() {
        println!("no completed training stages in trace");
    } else {
        println!(
            "{:>5} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>12} {:>12}",
            "stage",
            "level",
            "time(s)",
            "epochs",
            "steps",
            "retries",
            "oracle",
            "allocs/step",
            "final_loss"
        );
        for r in &rows {
            println!(
                "{:>5} {:>9.3} {:>9.3} {:>7} {:>7} {:>8} {:>8} {:>12.2} {:>12.4}{}",
                r.stage,
                r.level,
                r.secs,
                r.epochs,
                r.steps,
                r.retries,
                r.oracle_calls,
                r.allocs_per_step(),
                r.final_loss,
                if r.truncated { "  (truncated)" } else { "" }
            );
        }
        let total_calls: u64 = rows.iter().map(|r| r.oracle_calls).sum();
        let total_secs: f64 = rows.iter().map(|r| r.secs).sum();
        let rollbacks = events.iter().filter(|e| e.name == "train.rollback").count();
        println!(
            "training: {} stages, {:.3} s, {} oracle calls, {} rollbacks",
            rows.len(),
            total_secs,
            total_calls,
            rollbacks
        );
    }

    // Durability and chaos lines: checkpoint traffic and injected faults
    // (present only in checkpointed / fault-plan runs).
    let ckpt_writes = events.iter().filter(|e| e.name == "ckpt.write").count();
    let ckpt_write_failures = events
        .iter()
        .filter(|e| e.name == "ckpt.write_failed")
        .count();
    let ckpt_corrupt = events
        .iter()
        .filter(|e| e.name == "ckpt.corrupt_skipped")
        .count();
    if ckpt_writes + ckpt_write_failures + ckpt_corrupt > 0 {
        print!(
            "checkpoints: {ckpt_writes} written, {ckpt_write_failures} write failures, \
             {ckpt_corrupt} corrupt skipped"
        );
        if let Some(last) = events.iter().rfind(|e| e.name == "ckpt.write") {
            print!(
                ", newest generation {} at step {}",
                last.u64_field("generation").unwrap_or(0),
                last.u64_field("global_step").unwrap_or(0)
            );
        }
        println!();
    }
    if let Some(load) = events.iter().find(|e| e.name == "ckpt.load") {
        println!(
            "resumed: generation {} at step {} ({}, {} oracle calls already spent)",
            load.u64_field("generation").unwrap_or(0),
            load.u64_field("global_step").unwrap_or(0),
            if load.bool_field("done").unwrap_or(false) {
                "training complete"
            } else if load.bool_field("mid_stage").unwrap_or(false) {
                "mid-stage"
            } else {
                "stage boundary"
            },
            load.u64_field("oracle_spent").unwrap_or(0)
        );
    }
    let injected: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "fault.injected")
        .collect();
    if !injected.is_empty() {
        let mut by_kind: Vec<(String, usize)> = Vec::new();
        for e in &injected {
            let key = format!(
                "{}@{}",
                e.str_field("kind").unwrap_or("?"),
                e.str_field("site").unwrap_or("?")
            );
            match by_kind.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => by_kind.push((key, 1)),
            }
        }
        let detail: Vec<String> = by_kind.iter().map(|(k, n)| format!("{n}x {k}")).collect();
        println!(
            "faults injected: {} ({})",
            injected.len(),
            detail.join(", ")
        );
    }

    sweep_table(&events);

    if let Some(est) = estimate_row(&events) {
        println!(
            "estimate: healthy {}, estimate {:e}, std_error {:.3e}, pareto_k {}, hits {}, ess {:.1}, \
             {} oracle calls, {:.3} s",
            est.bool_field("healthy")
                .map_or("?", |h| if h { "true" } else { "false" }),
            est.f64_field("estimate").unwrap_or(f64::NAN),
            est.f64_field("std_error").unwrap_or(f64::NAN),
            est.f64_field("pareto_k")
                .map_or("-".to_string(), |k| format!("{k:.2}")),
            est.u64_field("hits").unwrap_or(0),
            est.f64_field("ess").unwrap_or(f64::NAN),
            est.u64_field("oracle_calls").unwrap_or(0),
            est.duration_us.unwrap_or(0) as f64 / 1e6,
        );
    }
    ExitCode::SUCCESS
}

/// Corner-sweep table from `sweep.corner` events (nofis-sweep engine,
/// DESIGN.md §14): one row per corner with its schedule wave, warm/cold
/// mode, donor, epoch budget, oracle traffic split (requested vs actually
/// simulated vs answered from the shared cache), and the estimate.
/// Printed only for traces that contain a sweep.
fn sweep_table(events: &[TraceEvent]) {
    let corners: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "sweep.corner").collect();
    if corners.is_empty() {
        return;
    }
    if let Some(start) = events.iter().find(|e| e.name == "sweep.start") {
        println!(
            "sweep: family {}, {} corners in {} waves, {} workers, warm {}, cache {}",
            start.str_field("family").unwrap_or("?"),
            start.u64_field("corners").unwrap_or(0),
            start.u64_field("waves").unwrap_or(0),
            start.u64_field("workers").unwrap_or(0),
            if start.bool_field("warm").unwrap_or(false) {
                "on"
            } else {
                "off"
            },
            if start.bool_field("cache").unwrap_or(false) {
                "on"
            } else {
                "off"
            },
        );
    }
    println!(
        "{:>8} {:>5} {:>5} {:>8} {:>7} {:>7} {:>6} {:>6} {:>7} {:>12}",
        "corner", "wave", "mode", "donor", "epochs", "evals", "sims", "hits", "hit%", "estimate"
    );
    for e in &corners {
        let estimate = match e.f64_field("estimate") {
            Some(est) => format!("{est:.4e}"),
            None => e.str_field("error").unwrap_or("?").to_string(),
        };
        println!(
            "{:>8} {:>5} {:>5} {:>8} {:>7} {:>7} {:>6} {:>6} {:>6.1}% {:>12}",
            e.str_field("label").unwrap_or("?"),
            e.u64_field("wave").unwrap_or(0),
            if e.bool_field("warm").unwrap_or(false) {
                "warm"
            } else {
                "cold"
            },
            e.str_field("donor").unwrap_or("-"),
            e.u64_field("epochs").unwrap_or(0),
            e.u64_field("evals").unwrap_or(0),
            e.u64_field("real_calls").unwrap_or(0),
            e.u64_field("cache_hits").unwrap_or(0),
            100.0 * e.f64_field("hit_rate").unwrap_or(0.0),
            estimate,
        );
    }
    let failed = corners
        .iter()
        .filter(|e| e.f64_field("estimate").is_none())
        .count();
    let warm = corners
        .iter()
        .filter(|e| e.bool_field("warm") == Some(true))
        .count();
    if let Some(end) = events.iter().find(|e| e.name == "sweep.end") {
        print!(
            "sweep total: {} evals, {} simulator calls, {:.0} ms wall",
            end.u64_field("total_evals").unwrap_or(0),
            end.u64_field("total_real_calls").unwrap_or(0),
            end.f64_field("wall_ms").unwrap_or(f64::NAN),
        );
        if let Some(rate) = end.f64_field("cache_hit_rate") {
            print!(
                ", cache {} entries / {:.1}% hit rate",
                end.u64_field("cache_entries").unwrap_or(0),
                100.0 * rate
            );
        }
        println!();
    }
    println!(
        "sweep corners: {} total, {} warm, {} cold, {} failed",
        corners.len(),
        warm,
        corners.len() - warm,
        failed
    );
}

/// One job's lifecycle, reconstructed from `job.*` events.
#[derive(Default)]
struct JobRow {
    id: u64,
    name: String,
    submitted: bool,
    starts: u64,
    ckpt_writes: u64,
    /// Simulator calls attributed to this job, summed from its
    /// `train.stage` and `estimate` spans (each reports its budget meter's
    /// `used` delta).
    oracle_calls: u64,
    outcome: Option<String>,
}

fn by_job(path: &str) -> ExitCode {
    let events = match load(path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("INVALID: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows: Vec<JobRow> = Vec::new();
    let row = |rows: &mut Vec<JobRow>, id: u64| -> usize {
        match rows.iter().position(|r| r.id == id) {
            Some(idx) => idx,
            None => {
                rows.push(JobRow {
                    id,
                    ..Default::default()
                });
                rows.len() - 1
            }
        }
    };
    for e in &events {
        let Some(id) = e.u64_field("job") else {
            continue;
        };
        let idx = row(&mut rows, id);
        match e.name.as_str() {
            "job.submit" => {
                rows[idx].submitted = true;
                rows[idx].name = e.str_field("name").unwrap_or("?").to_string();
            }
            "job.start" => rows[idx].starts += 1,
            "job.end" => {
                rows[idx].outcome = Some(e.str_field("outcome").unwrap_or("?").to_string());
                if rows[idx].name.is_empty() {
                    rows[idx].name = e.str_field("name").unwrap_or("?").to_string();
                }
            }
            "ckpt.write" => rows[idx].ckpt_writes += 1,
            "train.stage" | "estimate" if e.kind == Kind::Span => {
                rows[idx].oracle_calls += e.u64_field("oracle_calls").unwrap_or(0);
            }
            _ => {}
        }
    }
    if rows.is_empty() {
        println!("no job lifecycle events in trace");
        return ExitCode::SUCCESS;
    }
    rows.sort_by_key(|r| r.id);
    println!(
        "{:>5} {:<14} {:>6} {:>5} {:>8}  outcome",
        "job", "name", "starts", "ckpt", "oracle"
    );
    for r in &rows {
        println!(
            "{:>5} {:<14} {:>6} {:>5} {:>8}  {}",
            r.id,
            r.name,
            r.starts,
            r.ckpt_writes,
            r.oracle_calls,
            r.outcome.as_deref().unwrap_or("NON-TERMINAL")
        );
    }
    let submitted = rows.iter().filter(|r| r.submitted).count();
    let terminal = rows.iter().filter(|r| r.outcome.is_some()).count();
    let count = |what: &str| {
        rows.iter()
            .filter(|r| r.outcome.as_deref() == Some(what))
            .count()
    };
    println!(
        "jobs: {submitted} submitted, {terminal} terminal \
         ({} done, {} failed, {} panicked, {} shed)",
        count("done"),
        count("failed"),
        count("panicked"),
        count("shed"),
    );
    if terminal < submitted {
        eprintln!(
            "NON-TERMINAL: {} submitted job(s) never reached a terminal state",
            submitted - terminal
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn pct(a: f64, b: f64) -> String {
    if a <= 0.0 {
        "n/a".into()
    } else {
        format!("{:+.1}%", (b - a) / a * 100.0)
    }
}

fn diff(path_a: &str, path_b: &str) -> ExitCode {
    let (events_a, events_b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("INVALID: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows_a = stage_rows(&events_a);
    let rows_b = stage_rows(&events_b);
    println!("A = {path_a}\nB = {path_b}");
    let stages: Vec<u64> = {
        let mut s: Vec<u64> = rows_a
            .iter()
            .chain(rows_b.iter())
            .map(|r| r.stage)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    for stage in stages {
        let a = rows_a.iter().find(|r| r.stage == stage);
        let b = rows_b.iter().find(|r| r.stage == stage);
        match (a, b) {
            (Some(a), Some(b)) => println!(
                "stage {stage}: time {:.3}s -> {:.3}s ({}), steps {} -> {}, \
                 oracle {} -> {}, allocs/step {:.2} -> {:.2}",
                a.secs,
                b.secs,
                pct(a.secs, b.secs),
                a.steps,
                b.steps,
                a.oracle_calls,
                b.oracle_calls,
                a.allocs_per_step(),
                b.allocs_per_step(),
            ),
            (Some(_), None) => println!("stage {stage}: only in A"),
            (None, Some(_)) => println!("stage {stage}: only in B"),
            (None, None) => unreachable!("stage came from one of the row sets"),
        }
    }
    let total = |rows: &[StageRow]| -> (f64, u64) {
        (
            rows.iter().map(|r| r.secs).sum(),
            rows.iter().map(|r| r.oracle_calls).sum(),
        )
    };
    let (secs_a, calls_a) = total(&rows_a);
    let (secs_b, calls_b) = total(&rows_b);
    println!(
        "training total: time {secs_a:.3}s -> {secs_b:.3}s ({}), oracle {calls_a} -> {calls_b}",
        pct(secs_a, secs_b)
    );
    match (estimate_row(&events_a), estimate_row(&events_b)) {
        (Some(a), Some(b)) => println!(
            "estimate: {:e} -> {:e}, ess {:.1} -> {:.1}",
            a.f64_field("estimate").unwrap_or(f64::NAN),
            b.f64_field("estimate").unwrap_or(f64::NAN),
            a.f64_field("ess").unwrap_or(f64::NAN),
            b.f64_field("ess").unwrap_or(f64::NAN),
        ),
        (Some(_), None) => println!("estimate: only in A"),
        (None, Some(_)) => println!("estimate: only in B"),
        (None, None) => {}
    }
    ExitCode::SUCCESS
}
