//! Gradient-checks the fused `matmul+bias+tanh` tape op against finite
//! differences on both sides of the parallel matmul threshold, and pins
//! that the fused ops are bitwise identical to the compositions they
//! replace: `linear` against `matmul → add_row → tanh`, and `tanh_scale`
//! against `tanh → scale`.

use nofis_autograd::check::{max_rel_error, numeric_param_grads};
use nofis_autograd::{Graph, ParamStore, Tensor};
use nofis_parallel::kernels::PAR_FLOPS_THRESHOLD;

fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// `loss(w, b) = mean(linear(x, w, b, tanh)²)` with the fused op; analytic
/// gradients of both parameters are compared against finite differences.
fn check_fused_linear_grad(m: usize, k: usize, n: usize) {
    let x = Tensor::from_vec(m, k, fill(m * k, 3 + (m * k) as u64));
    let mut store = ParamStore::new();
    let w = store.add(Tensor::from_vec(k, n, fill(k * n, 17 + (k * n) as u64)));
    let b = store.add(Tensor::from_vec(1, n, fill(n, 29 + n as u64)));

    let analytic = {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let wv = store.inject(&mut g, w);
        let bv = store.inject(&mut g, b);
        let y = g.linear(xv, wv, bv, true);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        g.backward(loss);
        g.param_grads()
    };

    let numeric = numeric_param_grads(
        &mut store,
        |s| {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let wv = g.constant(s.get(w).clone());
            let bv = g.constant(s.get(b).clone());
            let y = g.linear(xv, wv, bv, true);
            let sq = g.square(y);
            let loss = g.mean_all(sq);
            g.value(loss).item()
        },
        1e-6,
    );

    for (id, grad) in &analytic {
        let err = max_rel_error(grad.as_slice(), numeric[id.index()].as_slice());
        assert!(
            err < 1e-6,
            "({m}x{k})·({k}x{n}) param {}: max rel error {err}",
            id.index()
        );
    }
}

/// The fused op must execute the exact same floating-point program as the
/// composed ops: identical value bits and identical gradient bits.
fn check_fused_matches_unfused_bitwise(m: usize, k: usize, n: usize) {
    let x = Tensor::from_vec(m, k, fill(m * k, 101 + (m * k) as u64));
    let w_t = Tensor::from_vec(k, n, fill(k * n, 211 + (k * n) as u64));
    let b_t = Tensor::from_vec(1, n, fill(n, 307 + n as u64));
    let run = |fused: bool| {
        let mut store = ParamStore::new();
        let w = store.add(w_t.clone());
        let b = store.add(b_t.clone());
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let wv = store.inject(&mut g, w);
        let bv = store.inject(&mut g, b);
        let y = if fused {
            g.linear(xv, wv, bv, true)
        } else {
            let xw = g.matmul(xv, wv);
            let pre = g.add_row(xw, bv);
            g.tanh(pre)
        };
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        g.backward(loss);
        (g.value(y).clone(), g.param_grads())
    };
    let (y_f, grads_f) = run(true);
    let (y_u, grads_u) = run(false);
    for (a, bb) in y_f.as_slice().iter().zip(y_u.as_slice()) {
        assert_eq!(a.to_bits(), bb.to_bits(), "({m}x{k}x{n}) forward bits");
    }
    assert_eq!(grads_f.len(), grads_u.len());
    for ((idf, gf), (idu, gu)) in grads_f.iter().zip(&grads_u) {
        assert_eq!(idf, idu);
        for (a, bb) in gf.as_slice().iter().zip(gu.as_slice()) {
            assert_eq!(
                a.to_bits(),
                bb.to_bits(),
                "({m}x{k}x{n}) grad bits of param {}",
                idf.index()
            );
        }
    }
}

/// `tanh_scale(x, s)` must execute the exact same floating-point program
/// as `scale(tanh(x), s)`: identical value bits and gradient bits. The
/// inputs span every branch of the shared `tanh` (rational, exp-based,
/// saturated) and both signs.
fn check_tanh_scale_matches_composed_bitwise(rows: usize, cols: usize) {
    let x_t = Tensor::from_vec(
        rows,
        cols,
        fill(rows * cols, 401 + (rows * cols) as u64)
            .into_iter()
            .map(|v| v * 50.0)
            .collect(),
    );
    let s_max = 1.7;
    let run = |fused: bool| {
        let mut store = ParamStore::new();
        let x = store.add(x_t.clone());
        let mut g = Graph::new();
        let xv = store.inject(&mut g, x);
        let y = if fused {
            g.tanh_scale(xv, s_max)
        } else {
            let t = g.tanh(xv);
            g.scale(t, s_max)
        };
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        g.backward(loss);
        (g.value(y).clone(), g.param_grads().remove(0).1)
    };
    let (y_f, grad_f) = run(true);
    let (y_u, grad_u) = run(false);
    for (a, bb) in y_f.as_slice().iter().zip(y_u.as_slice()) {
        assert_eq!(a.to_bits(), bb.to_bits(), "({rows}x{cols}) forward bits");
    }
    for (a, bb) in grad_f.as_slice().iter().zip(grad_u.as_slice()) {
        assert_eq!(a.to_bits(), bb.to_bits(), "({rows}x{cols}) grad bits");
    }
}

#[test]
fn fused_linear_below_threshold() {
    nofis_parallel::init_global(4);
    // 4*3*2 = 24 flops: firmly on the serial fallback.
    check_fused_linear_grad(4, 3, 2);
}

#[test]
fn fused_linear_above_threshold() {
    nofis_parallel::init_global(4);
    // 64*32*33 = 67584 > 65536: the parallel row-partitioned kernel engages
    // inside the fused op.
    let (m, k, n) = (64, 32, 33);
    assert!(m * k * n > PAR_FLOPS_THRESHOLD);
    check_fused_linear_grad(m, k, n);
}

#[test]
fn fused_bitwise_equals_unfused_below_threshold() {
    nofis_parallel::init_global(4);
    check_fused_matches_unfused_bitwise(5, 7, 3);
}

#[test]
fn fused_bitwise_equals_unfused_above_threshold() {
    nofis_parallel::init_global(4);
    let (m, k, n) = (130, 25, 21); // 68250 > 65536
    assert!(m * k * n > PAR_FLOPS_THRESHOLD);
    check_fused_matches_unfused_bitwise(m, k, n);
}

#[test]
fn tanh_scale_bitwise_equals_tanh_then_scale() {
    nofis_parallel::init_global(4);
    check_tanh_scale_matches_composed_bitwise(1, 3);
    check_tanh_scale_matches_composed_bitwise(130, 21);
}
