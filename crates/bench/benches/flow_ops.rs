//! Criterion micro-benchmarks of the normalizing-flow kernels: the tape's
//! forward and inverse passes and batched `ln q` at batch sizes 1 and 512,
//! and one NOFIS training step.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nofis_autograd::{Graph, ParamStore, Tensor};
use nofis_flows::RealNvp;
use nofis_parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn randomized_flow(dim: usize, layers: usize) -> (ParamStore, RealNvp) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let flow = RealNvp::new(&mut store, dim, layers, 32, 2.0, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
    for id in ids {
        for v in store.get_mut(id).as_mut_slice() {
            *v += rng.gen_range(-0.2..0.2);
        }
    }
    (store, flow)
}

fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_transform");
    for &dim in &[2usize, 16, 62] {
        let (store, flow) = randomized_flow(dim, 8);
        for &n in &[1usize, 512] {
            let xs: Vec<f64> = (0..n * dim).map(|i| (i as f64 * 0.3).sin()).collect();
            let id = format!("d{dim}_n{n}");
            for (pass, inverse) in [("forward", false), ("inverse", true)] {
                group.bench_with_input(BenchmarkId::new(pass, &id), &n, |b, _| {
                    let mut g = Graph::new();
                    b.iter(|| {
                        g.reset();
                        let x = g.constant_from_slice(n, dim, &xs);
                        if inverse {
                            flow.inverse_graph(&store, &mut g, x, 8)
                        } else {
                            flow.forward_graph(&store, &mut g, x, 8)
                        }
                    })
                });
            }
            group.bench_with_input(BenchmarkId::new("log_density", &id), &n, |b, _| {
                b.iter(|| flow.log_density(&store, &xs, 8))
            });
        }
    }
    group.finish();
}

fn bench_training_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_training_step");
    group.sample_size(10);
    for &(dim, batch) in &[(2usize, 200usize), (16, 200), (62, 200)] {
        let (store, flow) = randomized_flow(dim, 16);
        let data = Tensor::from_fn(batch, dim, |r, c| ((r * dim + c) as f64 * 0.01).sin());
        group.bench_with_input(BenchmarkId::new("forward_backward", dim), &dim, |b, _| {
            b.iter(|| {
                let mut g = Graph::new();
                let x = g.constant(data.clone());
                let (z, ld) = flow.forward_graph(&store, &mut g, x, 16);
                let sq = g.square(z);
                let ssq = g.sum_cols(sq);
                let a = g.add(ld, ssq);
                let loss = g.mean_all(a);
                g.backward(loss);
                g.param_grads().len()
            })
        });
    }
    group.finish();
}

/// Seed path (fresh tape per step, grads cloned out for Adam) vs. the
/// pooled hot path (tape arena reuse + frozen-gradient pruning + fused
/// Adam) on a stage-3 frozen-prefix NOFIS step.
/// The bitwise-equivalence tests pin that both lanes compute the same
/// numbers; this group measures only the time.
fn bench_pooled_training_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooled_training_step");
    group.sample_size(10);
    let (dim, layers, frozen, batch) = (8usize, 6usize, 4usize, 256usize);
    let build = || {
        let (mut store, flow) = randomized_flow(dim, layers);
        for id in flow.param_ids_for_layers(0..frozen) {
            store.set_frozen(id, true);
        }
        let opt = nofis_nn::Adam::new(1e-3).with_max_grad_norm(Some(5.0));
        (store, flow, opt)
    };
    let data = Tensor::from_fn(batch, dim, |r, c| ((r * dim + c) as f64 * 0.01).sin());
    let loss_of = |g: &mut Graph, store: &ParamStore, flow: &RealNvp| {
        let x = g.constant(data.clone());
        let (z, ld) = flow.forward_graph(store, g, x, layers);
        let sq = g.square(z);
        let ssq = g.sum_cols(sq);
        let a = g.add(ld, ssq);
        let loss = g.mean_all(a);
        g.backward(loss);
        loss
    };
    group.bench_function("seed_path", |b| {
        let (mut store, flow, mut opt) = build();
        b.iter(|| {
            let mut g = Graph::new();
            loss_of(&mut g, &store, &flow);
            opt.step(&mut store, &g.param_grads());
        })
    });
    group.bench_function("pooled_pruned", |b| {
        let (mut store, flow, mut opt) = build();
        let mut g = Graph::new();
        g.set_pruning(true);
        b.iter(|| {
            g.reset();
            loss_of(&mut g, &store, &flow);
            opt.step_fused(&mut store, &g);
        })
    });
    group.finish();
}

/// Serial vs. parallel throughput of the shared matmul kernel at
/// training-shaped sizes (batch x dim by dim x hidden). The 1-thread pool
/// runs the identical code path, so the comparison isolates pure
/// parallel speedup; determinism tests elsewhere pin that the outputs are
/// bitwise equal.
fn bench_parallel_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_serial_vs_parallel");
    group.sample_size(20);
    let serial = ThreadPool::new(1);
    let par4 = ThreadPool::new(4);
    for &(m, k, n) in &[(256usize, 64usize, 64usize), (512, 128, 128)] {
        let a = Tensor::from_fn(m, k, |r, cc| ((r * k + cc) as f64 * 0.01).sin());
        let b = Tensor::from_fn(k, n, |r, cc| ((r * n + cc) as f64 * 0.013).cos());
        let shape = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("serial", &shape), &m, |be, _| {
            be.iter(|| black_box(a.matmul_with(&b, &serial)))
        });
        group.bench_with_input(BenchmarkId::new("parallel4", &shape), &m, |be, _| {
            be.iter(|| black_box(a.matmul_with(&b, &par4)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_transform,
    bench_training_graph,
    bench_pooled_training_step,
    bench_parallel_matmul
);
criterion_main!(benches);
