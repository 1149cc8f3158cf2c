//! End-to-end [`ShardPool`] test — `harness = false` because this binary
//! must double as its own shard worker: the supervisor re-execs
//! `current_exe()` with `--nofis-shard-worker`, and libtest's harness main
//! would treat that flag as a test filter instead of entering
//! [`maybe_worker_main`].
//!
//! Covers, against live child processes: bitwise identity to the serial
//! in-process loop (values and gradients), exact budget-lease accounting,
//! worker death / garbage / wedge chaos with deterministic re-dispatch, a
//! request write that fails because the worker already died, and the
//! degradation ladder under persistent spawn failure.

use nofis_faults as faults;
use nofis_prob::{BudgetSource, BudgetedOracle, LimitState};
use nofis_shard::{ShardConfig, ShardError, ShardPool, SHARD_CHUNK};
use nofis_telemetry as tele;
use std::sync::Arc;
use std::time::Duration;

const ORACLE: &str = "pool-e2e-poly";
const DIM: usize = 3;

const WIDE_ORACLE: &str = "pool-e2e-wide";
/// Wide enough that one full shard's `Eval` frame (`SHARD_CHUNK · WIDE_DIM`
/// f64s = 256 KiB) overflows a pipe buffer plus the worker's stdin buffer,
/// so a worker that stops reading makes the write fail instead of parking
/// the frame in the pipe.
const WIDE_DIM: usize = 256;

/// A deterministic oracle with enough floating-point texture that any
/// reduction-order or serialization slip shows up as a bit difference.
struct Poly;

impl LimitState for Poly {
    fn dim(&self) -> usize {
        DIM
    }
    fn value(&self, x: &[f64]) -> f64 {
        let s: f64 = x
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.3 + i as f64))
            .sum();
        (s * 0.7).sin() + x[0] * x[1] - x[2] / 3.0 + 2.0
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let s: f64 = x
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.3 + i as f64))
            .sum();
        let c = (s * 0.7).cos() * 0.7;
        let grad = vec![c * 1.3 + x[1], c * 2.3 + x[0], c * 3.3 - 1.0 / 3.0];
        (self.value(x), grad)
    }
    fn name(&self) -> &str {
        ORACLE
    }
}

/// A cheap oracle over [`WIDE_DIM`] inputs, for oversized request frames.
struct Wide;

impl LimitState for Wide {
    fn dim(&self) -> usize {
        WIDE_DIM
    }
    fn value(&self, x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum::<f64>().sqrt() - 16.0
    }
    fn name(&self) -> &str {
        WIDE_ORACLE
    }
}

/// Deterministic sample batch (tiny LCG; no RNG dependency needed).
fn samples(n: usize) -> Vec<Vec<f64>> {
    samples_of(n, DIM)
}

fn samples_of(n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
                })
                .collect()
        })
        .collect()
}

fn pool(workers: usize, timeout: Duration) -> ShardPool {
    pool_for(ORACLE, workers, timeout)
}

fn pool_for(oracle: &str, workers: usize, timeout: Duration) -> ShardPool {
    ShardPool::new(
        oracle,
        ShardConfig {
            workers,
            timeout,
            max_respawns: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
        },
    )
}

fn assert_bitwise(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: bit mismatch at {i}: {g:?} vs {w:?}"
        );
    }
}

fn run(name: &str, f: impl FnOnce()) {
    f();
    println!("test {name} ... ok");
}

fn values_match_serial_bitwise() {
    // Spans full shards plus a ragged tail, on more workers than shards
    // would keep busy at once.
    let xs = samples(2 * SHARD_CHUNK + 37);
    let want: Vec<f64> = xs.iter().map(|x| Poly.value(x)).collect();
    let p = pool(3, Duration::from_secs(30));
    let got = p.eval_values(&xs, None).expect("healthy pool");
    assert_bitwise("values", &got, &want);
    assert_eq!(p.stats().completed(), 3);
    assert!(p.eval_values(&[], None).expect("empty batch").is_empty());
    p.shutdown();
}

fn grads_match_serial_bitwise() {
    let xs = samples(SHARD_CHUNK + 9);
    let mut want_v = Vec::new();
    let mut want_g = Vec::new();
    for x in &xs {
        let (v, g) = Poly.value_grad(x);
        want_v.push(v);
        want_g.extend(g);
    }
    let p = pool(2, Duration::from_secs(30));
    let (got_v, got_g) = p.eval_grads(&xs, None).expect("healthy pool");
    assert_bitwise("grad values", &got_v, &want_v);
    assert_bitwise("gradients", &got_g, &want_g);
    p.shutdown();
}

fn budget_leases_commit_exactly() {
    let xs = samples(SHARD_CHUNK + 50);
    let oracle = Poly;
    let budgeted = BudgetedOracle::new(&oracle, xs.len() as u64);
    let p = pool(2, Duration::from_secs(30));
    let got = p
        .eval_values(&xs, Some(&budgeted as &dyn BudgetSource))
        .expect("budget exactly covers the batch");
    assert_eq!(got.len(), xs.len());
    assert_eq!(
        budgeted.spent(),
        xs.len() as u64,
        "leases must commit the batch exactly"
    );
    assert_eq!(budgeted.overruns(), 0);
    p.shutdown();
}

fn short_budget_aborts_with_full_refund() {
    let xs = samples(3 * SHARD_CHUNK);
    let oracle = Poly;
    // One shard's worth short: some leases grant, the last comes up short,
    // and everything already granted must refund.
    let budgeted = BudgetedOracle::new(&oracle, (xs.len() - SHARD_CHUNK) as u64);
    let p = pool(2, Duration::from_secs(30));
    let err = p
        .eval_values(&xs, Some(&budgeted as &dyn BudgetSource))
        .expect_err("short budget must abort");
    assert_eq!(err, ShardError::BudgetShort);
    assert_eq!(
        budgeted.spent(),
        0,
        "an aborted evaluation must refund every lease (the caller re-pays in-process)"
    );
    p.shutdown();
}

fn chaos_death_redispatches_bitwise() {
    let xs = samples(2 * SHARD_CHUNK + 5);
    let want: Vec<f64> = xs.iter().map(|x| Poly.value(x)).collect();
    let oracle = Poly;
    let budgeted = BudgetedOracle::new(&oracle, xs.len() as u64);
    faults::install(faults::FaultPlan::parse("shard_death@1").expect("plan"));
    let p = pool(2, Duration::from_secs(30));
    let got = p
        .eval_values(&xs, Some(&budgeted as &dyn BudgetSource))
        .expect("death must heal, not fail");
    faults::clear();
    assert_bitwise("values after death", &got, &want);
    assert!(
        p.stats().redispatched() >= 1,
        "the lost shard must re-dispatch"
    );
    assert!(p.stats().respawns() >= 1, "the dead worker must respawn");
    assert_eq!(
        budgeted.spent(),
        xs.len() as u64,
        "death refunds its lease; the re-dispatch re-leases — spent counts completions exactly"
    );
    p.shutdown();
}

fn failed_request_write_counts_as_redispatch() {
    // The worker exits on the chaos frame without reading the oversized
    // `Eval` frame behind it, so that write always fails with a broken
    // pipe. The shard must re-queue through the same accounting as every
    // other worker failure: the stat and the event both count it.
    let xs = samples_of(SHARD_CHUNK, WIDE_DIM);
    let want: Vec<f64> = xs.iter().map(|x| Wide.value(x)).collect();
    let sink = Arc::new(tele::MemorySink::new(tele::Level::Warn));
    let sink_id = tele::add_sink(sink.clone());
    faults::install(faults::FaultPlan::parse("shard_death@0").expect("plan"));
    let p = pool_for(WIDE_ORACLE, 1, Duration::from_secs(30));
    let got = p
        .eval_values(&xs, None)
        .expect("a failed write must heal, not fail");
    faults::clear();
    tele::remove_sink(sink_id);
    assert_bitwise("values after failed write", &got, &want);
    let write_deaths = sink
        .named("shard.death")
        .iter()
        .filter(|e| e.str_field("kind") == Some("write"))
        .count();
    assert_eq!(write_deaths, 1, "the request write must fail exactly once");
    assert_eq!(
        p.stats().redispatched(),
        1,
        "the failed write must count as a re-dispatch"
    );
    assert_eq!(
        sink.named("shard.redispatch").len(),
        1,
        "the failed write must emit shard.redispatch"
    );
    p.shutdown();
}

fn chaos_garbage_redispatches_bitwise() {
    let xs = samples(SHARD_CHUNK + 30);
    let want: Vec<f64> = xs.iter().map(|x| Poly.value(x)).collect();
    faults::install(faults::FaultPlan::parse("shard_garbage@0").expect("plan"));
    let p = pool(2, Duration::from_secs(30));
    let got = p
        .eval_values(&xs, None)
        .expect("garbage must heal, not fail");
    faults::clear();
    assert_bitwise("values after garbage", &got, &want);
    assert!(p.stats().redispatched() >= 1);
    p.shutdown();
}

fn chaos_hang_times_out_and_redispatches_bitwise() {
    let xs = samples(SHARD_CHUNK + 30);
    let want: Vec<f64> = xs.iter().map(|x| Poly.value(x)).collect();
    faults::install(faults::FaultPlan::parse("shard_hang@0").expect("plan"));
    // Short deadline so the wedged worker is detected quickly.
    let p = pool(2, Duration::from_millis(750));
    let got = p
        .eval_values(&xs, None)
        .expect("a wedge must heal, not fail");
    faults::clear();
    assert_bitwise("values after wedge", &got, &want);
    assert!(
        p.stats().timeouts() >= 1,
        "the wedged request must hit its deadline"
    );
    assert!(p.stats().redispatched() >= 1);
    p.shutdown();
}

fn persistent_spawn_failure_degrades_typed() {
    let xs = samples(10);
    // Every spawn attempt fails: strikes exhaust, slots are removed, and
    // the pool must degrade with a typed error — never panic or hang.
    faults::install(faults::FaultPlan::parse("shard_spawn_fail@0x1000").expect("plan"));
    let p = pool(2, Duration::from_secs(5));
    let err = p.eval_values(&xs, None).expect_err("no worker can spawn");
    faults::clear();
    assert_eq!(err, ShardError::Degraded);
    assert!(p.is_degraded());
    assert_eq!(p.workers_alive(), 0);
    // Degraded is sticky: later calls fail fast without respawn attempts.
    assert_eq!(
        p.eval_values(&xs, None).expect_err("sticky"),
        ShardError::Degraded
    );
}

fn main() {
    nofis_shard::register_oracle(ORACLE, || Box::new(Poly));
    nofis_shard::register_oracle(WIDE_ORACLE, || Box::new(Wide));
    nofis_shard::maybe_worker_main();

    run("values_match_serial_bitwise", values_match_serial_bitwise);
    run("grads_match_serial_bitwise", grads_match_serial_bitwise);
    run("budget_leases_commit_exactly", budget_leases_commit_exactly);
    run(
        "short_budget_aborts_with_full_refund",
        short_budget_aborts_with_full_refund,
    );
    run(
        "chaos_death_redispatches_bitwise",
        chaos_death_redispatches_bitwise,
    );
    run(
        "failed_request_write_counts_as_redispatch",
        failed_request_write_counts_as_redispatch,
    );
    run(
        "chaos_garbage_redispatches_bitwise",
        chaos_garbage_redispatches_bitwise,
    );
    run(
        "chaos_hang_times_out_and_redispatches_bitwise",
        chaos_hang_times_out_and_redispatches_bitwise,
    );
    run(
        "persistent_spawn_failure_degrades_typed",
        persistent_spawn_failure_degrades_typed,
    );
    println!("pool_e2e: all tests passed");
}
