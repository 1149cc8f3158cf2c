//! Steady-state NOFIS training-step throughput: the interpreted tape
//! (pooled buffers, frozen-gradient pruning) against the trace-once/replay
//! compiled engine at 1 and 4 worker threads, with buffer-pool miss
//! counters doubling as an allocations-per-step meter.
//!
//! ```text
//! bench_train_step [--smoke]
//! bench_train_step --assert-telemetry-overhead [--smoke]
//! bench_train_step --assert-checkpoint-overhead [--smoke]
//! bench_train_step --assert-metrics-overhead [--smoke]
//! bench_train_step --assert-compile-overhead [--smoke]
//! ```
//!
//! `--assert-telemetry-overhead` runs an A/B pair in-process: the same
//! steady-state training step with and without the per-step telemetry site
//! that `nofis_core`'s training loop executes (telemetry disabled in both
//! lanes — the site then costs one relaxed atomic load). It asserts the
//! disabled instrumentation adds under 1% to the step time.
//!
//! `--assert-compile-overhead` times the one-off `CompiledStep::compile`
//! lowering against the per-step savings of replaying instead of
//! re-tracing, and asserts the compile cost amortizes in under 50 steps
//! (plus that steady-state replays are allocation-free).
//!
//! Because the process-wide thread pool is sized exactly once (see
//! `nofis_parallel::global`), the thread axis is driven by re-executing
//! this binary as a subprocess worker with `NOFIS_THREADS` pinned per
//! child; each worker times one lane and prints a single record on
//! stdout. The parent aggregates the matrix into
//! `results/BENCH_train_step.json`; `--smoke` (one config, short windows —
//! a liveness check, not a measurement) writes
//! `target/BENCH_train_step.smoke.json` instead, so it never overwrites
//! the full results.
//!
//! The bitwise contract between the two lanes is asserted in
//! `tests/compiled_equivalence.rs`; `tests/frozen_prune_equivalence.rs`,
//! `tests/golden_flows.rs` and `tests/alloc_regression.rs` pin the rest.

use nofis_autograd::{CompiledStep, Graph, ParamStore, PoolStats, Var};
use nofis_flows::RealNvp;
use nofis_nn::Adam;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// One (config, variant, thread-count) cell of the matrix, as emitted by
/// a worker.
#[derive(Serialize, Clone)]
struct CellRecord {
    config: String,
    variant: String,
    compiled: bool,
    threads: usize,
    ns_per_step: f64,
    steps_timed: u64,
    /// Pool misses per step over the timed window — the heap allocations
    /// the tape itself performed. 0.0 means fully recycled. For the
    /// compiled lane this meters the replay engine's backward scratch
    /// pool (its value/grad buffers are preplanned and never reallocated).
    pool_allocs_per_step: f64,
    pool_hits_per_step: f64,
    final_loss: f64,
}

#[derive(Serialize)]
struct BenchTrainStep {
    host_parallelism: usize,
    smoke: bool,
    configs: Vec<StepConfig>,
    note: &'static str,
    cells: Vec<CellRecord>,
    /// ns_per_step(interpreted) / ns_per_step(compiled), per config and
    /// thread count — what tape elimination buys on the same math.
    speedup_compiled_vs_interpreted: Vec<SpeedupRecord>,
}

#[derive(Serialize)]
struct SpeedupRecord {
    config: &'static str,
    threads: usize,
    interpreted_ns_per_step: f64,
    compiled_ns_per_step: f64,
    speedup: f64,
}

/// A benchmarked step shape: a stage-3 NOFIS training step (frozen
/// two-stage prefix, trainable final stage) on a RealNVP flow.
#[derive(Serialize, Clone, Copy)]
struct StepConfig {
    name: &'static str,
    dim: usize,
    layers: usize,
    frozen_layers: usize,
    hidden: usize,
    batch: usize,
}

/// Two regimes of the same 3-stage frozen-prefix step. `stage3_small`
/// (two layers per stage, narrow nets, minibatch 32) is allocation-bound:
/// tape bookkeeping is a large share of the step, so tape elimination
/// shows most. `stage3_default` (the `NofisConfig` defaults: eight
/// layers per stage, hidden 32, minibatch 64) is matmul-bound, so the
/// same changes buy less — both are reported so the speedup is not an
/// artifact of one regime.
const CONFIGS: [StepConfig; 2] = [
    StepConfig {
        name: "stage3_small",
        dim: 4,
        layers: 6,
        frozen_layers: 4,
        hidden: 16,
        batch: 32,
    },
    StepConfig {
        name: "stage3_default",
        dim: 8,
        layers: 24,
        frozen_layers: 16,
        hidden: 32,
        batch: 64,
    },
];

/// The two training engines, as `(name, compiled)`. `interpreted` builds
/// the tape every step on a persistent, pruned graph; `compiled` is the
/// trace-once/replay engine `nofis_core` runs by default. Both share the
/// same math (fast tanh, blocked kernels, fused layer ops), so the pair
/// isolates what tape elimination alone buys.
const VARIANTS: [(&str, bool); 2] = [("interpreted", false), ("compiled", true)];

fn lcg_fill(buf: &mut [f64], seed: u64) {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    for v in buf.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

fn build(cfg: StepConfig) -> (ParamStore, RealNvp, Adam) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(97);
    let flow = RealNvp::new(&mut store, cfg.dim, cfg.layers, cfg.hidden, 2.0, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
    for id in ids {
        for v in store.get_mut(id).as_mut_slice() {
            *v += rng.gen_range(-0.2..0.2);
        }
    }
    for id in flow.param_ids_for_layers(0..cfg.frozen_layers) {
        store.set_frozen(id, true);
    }
    let opt = Adam::new(1e-3).with_max_grad_norm(Some(5.0));
    (store, flow, opt)
}

/// The benchmark's stand-in oracle: a linear limit-state with an exact
/// gradient, shared verbatim between the interpreted trace and the
/// compiled replay so both lanes run the same math.
fn oracle(row: &[f64]) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; row.len()];
    grad[0] = -1.0;
    (1.0 - row[0], grad)
}

/// Builds the NOFIS-shaped loss tape on `g` — tempered oracle term, base
/// log-density term, log-det term — and returns the batch leaf and the
/// scalar loss (no backward).
fn trace_loss(
    g: &mut Graph,
    store: &ParamStore,
    flow: &RealNvp,
    cfg: StepConfig,
    seed: u64,
) -> (Var, Var) {
    let x = g.constant_with(cfg.batch, cfg.dim, |buf| lcg_fill(buf, seed));
    let (z, logdet) = flow.forward_graph(store, g, x, cfg.layers);
    let gvals = g.external_rowwise(z, oracle);
    let tempered = g.min_scalar(gvals, 0.0);
    let sq = g.square(z);
    let ssq = g.sum_cols(sq);
    let half = g.scale(ssq, -0.5);
    let a = g.add(logdet, tempered);
    let per_sample = g.add(a, half);
    let mean = g.mean_all(per_sample);
    let loss = g.neg(mean);
    (x, loss)
}

/// One NOFIS-shaped training step on a reset graph: tempered oracle
/// term, base log-density term, log-det term, backward, Adam.
fn run_step(
    g: &mut Graph,
    store: &mut ParamStore,
    flow: &RealNvp,
    opt: &mut Adam,
    cfg: StepConfig,
    seed: u64,
) -> f64 {
    g.reset();
    let (_x, loss) = trace_loss(g, store, flow, cfg, seed);
    g.backward(loss);
    opt.step_fused(store, g);
    g.value(loss).item()
}

/// Steady-state numbers from one timed lane.
struct Timing {
    ns_per_step: f64,
    steps_timed: u64,
    allocs_per_step: f64,
    hits_per_step: f64,
    last_loss: f64,
}

/// The shared timing harness: warm up, grow the timed window until it
/// clears the timer-resolution floor, keep the fastest of three windows
/// (the noise-robust minimum on a shared host), and meter pool traffic
/// over the timed region only (warmup allocations — first-touch pool
/// misses — are excluded). `step` runs one training step for the given
/// seed and reports the lane's cumulative pool counters.
fn measure(smoke: bool, mut step: impl FnMut(u64) -> (f64, PoolStats)) -> Timing {
    let warmup = if smoke { 2 } else { 5 };
    let mut stats0 = PoolStats::default();
    let mut last_loss = 0.0;
    for s in 0..warmup {
        let (loss, stats) = step(s);
        assert!(loss.is_finite(), "non-finite warmup loss");
        stats0 = stats;
        last_loss = loss;
    }
    let min_ms = if smoke { 20 } else { 150 };
    let mut steps = 4u64;
    let mut next_seed = warmup;
    let mut stats1 = stats0;
    let mut window = |steps: u64, next_seed: &mut u64| -> std::time::Duration {
        let t = Instant::now();
        for _ in 0..steps {
            let (loss, stats) = step(*next_seed);
            last_loss = loss;
            stats1 = stats;
            *next_seed += 1;
        }
        t.elapsed()
    };
    let (first, timed) = loop {
        let elapsed = window(steps, &mut next_seed);
        if elapsed.as_millis() >= min_ms || steps >= 1 << 20 {
            break (elapsed, steps);
        }
        steps *= 2;
    };
    let mut best = first;
    for _ in 0..2 {
        best = best.min(window(timed, &mut next_seed));
    }
    let total_steps = next_seed - warmup;
    Timing {
        ns_per_step: best.as_nanos() as f64 / timed as f64,
        steps_timed: timed,
        allocs_per_step: (stats1.misses - stats0.misses) as f64 / total_steps as f64,
        hits_per_step: (stats1.hits - stats0.hits) as f64 / total_steps as f64,
        last_loss,
    }
}

/// Steady-state interpreted step time in ns on the allocation-bound
/// `stage3_small` shape — the cheapest step, so the worst case for the
/// *relative* overhead of a per-step site. Adaptive window length,
/// minimum of three windows.
fn steady_step_ns(smoke: bool) -> f64 {
    let cfg = CONFIGS[0];
    let (mut store, flow, mut opt) = build(cfg);
    let mut g = Graph::new();
    g.set_pruning(true);
    let mut next_seed = 0u64;
    let mut step = |seed: u64| run_step(&mut g, &mut store, &flow, &mut opt, cfg, seed);
    for _ in 0..16 {
        assert!(step(next_seed).is_finite());
        next_seed += 1;
    }

    let min_ms = if smoke { 30 } else { 150 };
    let mut steps = 16u64;
    let step_window = loop {
        let t = Instant::now();
        for _ in 0..steps {
            step(next_seed);
            next_seed += 1;
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= min_ms || steps >= 1 << 20 {
            break elapsed;
        }
        steps *= 2;
    };
    let mut best_step = step_window;
    for _ in 0..2 {
        let t = Instant::now();
        for _ in 0..steps {
            step(next_seed);
            next_seed += 1;
        }
        best_step = best_step.min(t.elapsed());
    }
    best_step.as_nanos() as f64 / steps as f64
}

/// The per-step telemetry site of `nofis_core`'s training loop, replicated
/// field-for-field so the overhead lane pays exactly what production steps
/// pay when telemetry is disabled (one relaxed atomic load in
/// `enabled()`).
#[inline(never)]
fn telemetry_step_site(stage: usize, epoch: usize, n: usize, loss: f64, grad_norm: Option<f64>) {
    use nofis_telemetry as tele;
    if tele::enabled(tele::Level::Trace) {
        let mut step = tele::event(tele::Level::Trace, "train.step")
            .field("stage", stage)
            .field("epoch", epoch)
            .field("n", n)
            .field("loss", loss);
        if let Some(norm) = grad_norm {
            step = step.field("grad_norm", norm);
        }
        step.emit();
    }
}

/// Checks that disabled telemetry adds under 1% to the steady-state step.
///
/// A whole-step A/B comparison cannot resolve this: the true cost is a
/// relaxed atomic load (~1 ns) against a ~10⁵ ns step, far below a shared
/// host's run-to-run timing noise (observed at ±3–5%). Instead each factor
/// is measured where it is measurable: the step time from timed step
/// windows, the disabled-site cost from a tight loop over millions of
/// invocations of the *exact* replicated site — then the ratio is
/// asserted. A generous `SITES_PER_STEP` multiplier covers every disabled
/// `enabled()` check a production step can reach (the `train.step` site
/// plus budget/epoch/stage sites amortized over the minibatch loop).
fn assert_telemetry_overhead(smoke: bool) {
    assert!(
        !nofis_telemetry::enabled(nofis_telemetry::Level::Error),
        "telemetry must be disabled for the overhead check"
    );
    const SITES_PER_STEP: f64 = 16.0;
    let step_ns = steady_step_ns(smoke);

    // Disabled-site cost: tight loop, black_box keeps the inputs and the
    // call alive. Minimum of three windows.
    let site_iters: u64 = if smoke { 2_000_000 } else { 10_000_000 };
    let mut best_site = std::time::Duration::MAX;
    let mut loss = 0.5f64;
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..site_iters {
            loss = std::hint::black_box(loss) + 1e-12;
            telemetry_step_site(
                3,
                std::hint::black_box(i as usize),
                CONFIGS[0].batch,
                loss,
                Some(5.0),
            );
        }
        best_site = best_site.min(t.elapsed());
    }
    std::hint::black_box(loss);
    let site_ns = best_site.as_nanos() as f64 / site_iters as f64;

    let overhead = SITES_PER_STEP * site_ns / step_ns;
    println!(
        "telemetry overhead (disabled): {step_ns:.0} ns/step, {site_ns:.2} ns/site \
         x {SITES_PER_STEP} sites/step = {:+.4}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "disabled telemetry sites add {:.4}% (>1%) to the training step",
        overhead * 100.0
    );
    println!("OK: disabled telemetry adds <1% to bench_train_step");
}

/// The per-step checkpoint site of `nofis_core`'s training loop with
/// checkpointing *disabled* (`NofisConfig::checkpoint == None`), replicated
/// shape-for-shape: one `Option` discriminant check per optimizer step,
/// plus the `due()` modulo when a checkpointer exists. The disabled lane —
/// the one the <1% contract covers — takes only the `None` branch.
#[inline(never)]
fn checkpoint_step_site(every_steps: &mut Option<u64>, global_step: u64) -> bool {
    if let Some(every) = every_steps.as_mut() {
        global_step.is_multiple_of(*every)
    } else {
        false
    }
}

/// Checks that disabled checkpointing adds under 1% to the steady-state
/// training step, with the same measure-each-factor-where-it-is-measurable
/// methodology as [`assert_telemetry_overhead`]: the step time from timed
/// step windows, the disabled-site cost from a tight loop over the exact
/// replicated site, then the asserted ratio. `SITES_PER_STEP` is generous
/// — the production loop runs ONE due-check per optimizer step.
fn assert_checkpoint_overhead(smoke: bool) {
    const SITES_PER_STEP: f64 = 4.0;
    let step_ns = steady_step_ns(smoke);

    let site_iters: u64 = if smoke { 2_000_000 } else { 10_000_000 };
    let mut best_site = std::time::Duration::MAX;
    let mut due = 0u64;
    for _ in 0..3 {
        let mut disabled: Option<u64> = None;
        let t = Instant::now();
        for i in 0..site_iters {
            let cp = std::hint::black_box(&mut disabled);
            if checkpoint_step_site(cp, std::hint::black_box(i)) {
                due += 1;
            }
        }
        best_site = best_site.min(t.elapsed());
    }
    std::hint::black_box(due);
    let site_ns = best_site.as_nanos() as f64 / site_iters as f64;

    let overhead = SITES_PER_STEP * site_ns / step_ns;
    println!(
        "checkpoint overhead (disabled): {step_ns:.0} ns/step, {site_ns:.2} ns/site \
         x {SITES_PER_STEP} sites/step = {:+.4}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "disabled checkpoint sites add {:.4}% (>1%) to the training step",
        overhead * 100.0
    );
    println!("OK: disabled checkpointing adds <1% to bench_train_step");
}

/// One aggregation-sink fold, replicated as a standalone site: what
/// `nofis-metrics` adds *per telemetry event* on top of the event
/// dispatch every other sink already pays.
#[inline(never)]
fn metrics_step_site(agg: &nofis_metrics::Aggregator, ev: &nofis_telemetry::Event) {
    use nofis_telemetry::Sink;
    agg.record(ev);
}

/// Checks that the metrics aggregation sink adds under 1% to the
/// steady-state training step, with the same
/// measure-each-factor-where-it-is-measurable methodology as
/// [`assert_telemetry_overhead`]: the step time from timed step windows,
/// the per-event fold cost from a tight loop over pre-built events
/// (event *construction* is the telemetry layer's cost, covered by its
/// own assertion — this one isolates the marginal cost of aggregating),
/// then the asserted ratio. `EVENTS_PER_STEP` is generous: a steady-state
/// optimizer step emits one `train.step` plus amortized budget/cache
/// records.
fn assert_metrics_overhead(smoke: bool) {
    use nofis_telemetry::{Event, Kind, Level, Value};
    const EVENTS_PER_STEP: f64 = 8.0;
    let step_ns = steady_step_ns(smoke);

    // Per-event fold cost over the hot names a training step emits: the
    // step event itself, a budget gauge, and two cache counters.
    let agg =
        nofis_metrics::Aggregator::new(std::sync::Arc::new(nofis_metrics::MetricsRegistry::new()));
    let events = [
        Event {
            ts_us: 1,
            kind: Kind::Event,
            level: Level::Trace,
            name: "train.step",
            fields: vec![
                ("stage", Value::U64(3)),
                ("epoch", Value::U64(7)),
                ("n", Value::U64(64)),
                ("loss", Value::F64(0.5)),
            ],
            duration_us: None,
        },
        Event {
            ts_us: 2,
            kind: Kind::Gauge,
            level: Level::Trace,
            name: "budget.remaining",
            fields: vec![("value", Value::F64(1234.0))],
            duration_us: None,
        },
        Event {
            ts_us: 3,
            kind: Kind::Counter,
            level: Level::Trace,
            name: "cache.hit",
            fields: vec![("value", Value::U64(1))],
            duration_us: None,
        },
        Event {
            ts_us: 4,
            kind: Kind::Counter,
            level: Level::Trace,
            name: "cache.miss",
            fields: vec![("value", Value::U64(1))],
            duration_us: None,
        },
    ];
    let site_iters: u64 = if smoke { 2_000_000 } else { 10_000_000 };
    let mut best_site = std::time::Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..site_iters {
            let ev = std::hint::black_box(&events[(i % 4) as usize]);
            metrics_step_site(&agg, ev);
        }
        best_site = best_site.min(t.elapsed());
    }
    let site_ns = best_site.as_nanos() as f64 / site_iters as f64;

    let overhead = EVENTS_PER_STEP * site_ns / step_ns;
    println!(
        "metrics overhead (aggregation sink): {step_ns:.0} ns/step, {site_ns:.2} ns/event \
         x {EVENTS_PER_STEP} events/step = {:+.4}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "metrics aggregation adds {:.4}% (>1%) to the training step",
        overhead * 100.0
    );
    println!("OK: metrics aggregation adds <1% to bench_train_step");
}

/// Checks the one-off trace+compile cost amortizes in under 50 steps on
/// the default config — the recompilation-trigger budget that makes
/// `compile_tape` safe to leave on by default (stage shapes live for
/// hundreds of steps; tail minibatches retrace interpreted).
///
/// The *extra* work the compiling step performs, on top of the
/// interpreted trace + backward it runs anyway (`nofis_core`'s train loop
/// compiles right after a normal interpreted step), is the
/// `CompiledStep::compile` lowering itself — so that is what is timed,
/// against the per-step savings of replaying instead of re-tracing. Also
/// asserts steady-state replays are allocation-free (the preplanned
/// buffer contract).
fn assert_compile_overhead(smoke: bool) {
    let cfg = CONFIGS[1]; // stage3_default: the deepest tape, worst-case compile cost
    let (mut store, flow, mut opt) = build(cfg);

    let mut g = Graph::new();
    g.set_pruning(true);
    let interp = measure(smoke, |s| {
        let loss = run_step(&mut g, &mut store, &flow, &mut opt, cfg, s);
        (loss, g.pool_stats())
    });

    g.reset();
    let (x, loss) = trace_loss(&mut g, &store, &flow, cfg, 1 << 41);
    g.backward(loss);
    let reps = if smoke { 3 } else { 10 };
    let mut best_compile = std::time::Duration::MAX;
    let mut cs = CompiledStep::compile(&g, loss, Some(x), &store);
    for _ in 0..reps {
        let t = Instant::now();
        let fresh = CompiledStep::compile(&g, loss, Some(x), &store);
        best_compile = best_compile.min(t.elapsed());
        cs = fresh;
    }
    let compile_ns = best_compile.as_nanos() as f64;
    drop(g);

    let replay = measure(smoke, |s| {
        cs.replay_forward(
            &store,
            |buf| lcg_fill(buf, s),
            nofis_parallel::global(),
            oracle,
        );
        cs.backward();
        opt.step_fused(&mut store, &cs);
        (cs.value(loss).item(), cs.pool_stats())
    });
    assert_eq!(
        replay.allocs_per_step, 0.0,
        "steady-state compiled replay must be allocation-free"
    );

    let savings = interp.ns_per_step - replay.ns_per_step;
    assert!(
        savings > 0.0,
        "replay ({:.0} ns/step) is not faster than the interpreted step ({:.0} ns/step)",
        replay.ns_per_step,
        interp.ns_per_step
    );
    let amortize_steps = compile_ns / savings;
    println!(
        "compile cost {compile_ns:.0} ns; replay saves {savings:.0} ns/step \
         over interpreted ({:.0} vs {:.0}) -> amortized in {amortize_steps:.1} steps",
        interp.ns_per_step, replay.ns_per_step
    );
    assert!(
        amortize_steps < 50.0,
        "trace+compile takes {amortize_steps:.1} steps to amortize (>= 50)"
    );
    println!("OK: trace+compile amortizes in under 50 steps (and replays are allocation-free)");
}

/// Times one (config, variant) cell in-process and prints its record. The
/// global thread pool must already be pinned (via `NOFIS_THREADS`) by the
/// parent.
fn worker(variant: &str, config: &str, smoke: bool) {
    let (_, compiled) = *VARIANTS
        .iter()
        .find(|(name, _)| *name == variant)
        .unwrap_or_else(|| panic!("unknown variant {variant}"));
    let cfg = *CONFIGS
        .iter()
        .find(|c| c.name == config)
        .unwrap_or_else(|| panic!("unknown config {config}"));
    let threads = nofis_parallel::global().threads();
    let (mut store, flow, mut opt) = build(cfg);

    let mut g = Graph::new();
    g.set_pruning(true);
    let timing = if compiled {
        // Trace once, compile once, then every step is a replay — exactly
        // the steady-state of `nofis_core`'s train loop with
        // `compile_tape` on (the default).
        let (x, loss) = trace_loss(&mut g, &store, &flow, cfg, 1 << 40);
        g.backward(loss);
        let mut cs = CompiledStep::compile(&g, loss, Some(x), &store);
        drop(g);
        measure(smoke, |s| {
            cs.replay_forward(
                &store,
                |buf| lcg_fill(buf, s),
                nofis_parallel::global(),
                oracle,
            );
            cs.backward();
            opt.step_fused(&mut store, &cs);
            (cs.value(loss).item(), cs.pool_stats())
        })
    } else {
        measure(smoke, |s| {
            let loss = run_step(&mut g, &mut store, &flow, &mut opt, cfg, s);
            (loss, g.pool_stats())
        })
    };

    // The vendored serde is serialize-only, so the worker→parent channel
    // is a whitespace-delimited line rather than JSON.
    println!(
        "CELL {config} {variant} {compiled} {threads} {} {} {} {} {}",
        timing.ns_per_step,
        timing.steps_timed,
        timing.allocs_per_step,
        timing.hits_per_step,
        timing.last_loss
    );
}

/// Re-executes this binary as a worker with `NOFIS_THREADS` pinned, and
/// parses the `CELL ...` record line it prints.
fn spawn_worker(variant: &str, config: &str, threads: usize, smoke: bool) -> CellRecord {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--worker").arg(variant).arg("--config").arg(config);
    if smoke {
        cmd.arg("--smoke");
    }
    cmd.env("NOFIS_THREADS", threads.to_string());
    let out = cmd.output().expect("spawn bench worker");
    assert!(
        out.status.success(),
        "worker {variant}/{config}@{threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 worker output");
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("CELL "))
        .expect("worker emitted no CELL record");
    let f: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(f.len(), 10, "malformed worker record: {line}");
    CellRecord {
        config: f[1].to_string(),
        variant: f[2].to_string(),
        compiled: f[3].parse().expect("compiled"),
        threads: f[4].parse().expect("threads"),
        ns_per_step: f[5].parse().expect("ns_per_step"),
        steps_timed: f[6].parse().expect("steps_timed"),
        pool_allocs_per_step: f[7].parse().expect("allocs"),
        pool_hits_per_step: f[8].parse().expect("hits"),
        final_loss: f[9].parse().expect("loss"),
    }
}

fn main() {
    let mut smoke = false;
    let mut overhead_check = false;
    let mut ckpt_overhead_check = false;
    let mut metrics_overhead_check = false;
    let mut compile_overhead_check = false;
    let mut worker_variant: Option<String> = None;
    let mut worker_config: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--assert-telemetry-overhead" => overhead_check = true,
            "--assert-checkpoint-overhead" => ckpt_overhead_check = true,
            "--assert-metrics-overhead" => metrics_overhead_check = true,
            "--assert-compile-overhead" => compile_overhead_check = true,
            "--worker" => worker_variant = Some(args.next().expect("--worker VARIANT")),
            "--config" => worker_config = Some(args.next().expect("--config NAME")),
            other => panic!("unknown argument {other}"),
        }
    }
    if overhead_check {
        assert_telemetry_overhead(smoke);
        return;
    }
    if ckpt_overhead_check {
        assert_checkpoint_overhead(smoke);
        return;
    }
    if metrics_overhead_check {
        assert_metrics_overhead(smoke);
        return;
    }
    if compile_overhead_check {
        assert_compile_overhead(smoke);
        return;
    }
    if let Some(variant) = worker_variant {
        let config = worker_config.as_deref().unwrap_or(CONFIGS[0].name);
        worker(&variant, config, smoke);
        return;
    }

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Smoke mode: one config, shortest windows — a CI liveness check for
    // the whole worker/aggregation machinery, not a measurement.
    let configs: &[StepConfig] = if smoke { &CONFIGS[..1] } else { &CONFIGS };
    let mut cells = Vec::new();
    for cfg in configs {
        println!(
            "config {}: dim {} layers {} (frozen {}) hidden {} batch {}",
            cfg.name, cfg.dim, cfg.layers, cfg.frozen_layers, cfg.hidden, cfg.batch
        );
        for threads in [1usize, 4] {
            for (variant, _) in VARIANTS {
                let rec = spawn_worker(variant, cfg.name, threads, smoke);
                println!(
                    "{:>20} @ {threads} threads: {:>10.0} ns/step  \
                     {:>6.1} pool allocs/step  {:>8.1} pool hits/step",
                    rec.variant, rec.ns_per_step, rec.pool_allocs_per_step, rec.pool_hits_per_step
                );
                cells.push(rec);
            }
        }
    }

    let mut speedup_compiled_vs_interpreted = Vec::new();
    for cfg in configs {
        for threads in [1usize, 4] {
            let find = |name: &str| {
                cells
                    .iter()
                    .find(|c| c.config == cfg.name && c.variant == name && c.threads == threads)
                    .expect("matrix cell")
            };
            let interpreted = find("interpreted");
            let compiled = find("compiled");
            let rec = SpeedupRecord {
                config: cfg.name,
                threads,
                interpreted_ns_per_step: interpreted.ns_per_step,
                compiled_ns_per_step: compiled.ns_per_step,
                speedup: interpreted.ns_per_step / compiled.ns_per_step,
            };
            println!(
                "speedup compiled vs interpreted [{}] @ {threads} threads: {:.2}x",
                cfg.name, rec.speedup
            );
            speedup_compiled_vs_interpreted.push(rec);
        }
    }

    let out = BenchTrainStep {
        host_parallelism: host,
        smoke,
        configs: configs.to_vec(),
        note: "allocs/step counts BufferPool misses over the timed window. \
               The compiled lane meters its backward scratch pool \
               (value/grad buffers are preplanned and never reallocated). \
               ns/step is the fastest of three timed windows (noise-robust \
               minimum)",
        cells,
        speedup_compiled_vs_interpreted,
    };
    let (dir, path) = if smoke {
        ("target", "target/BENCH_train_step.smoke.json")
    } else {
        ("results", "results/BENCH_train_step.json")
    };
    std::fs::create_dir_all(dir).ok();
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
