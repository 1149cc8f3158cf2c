//! Bit-for-bit pins of the dense linear-algebra paths under the circuit
//! cases and the SSS baseline.
//!
//! * `Opamp::value` / `value_grad` run the complex LU (AC solve) and the
//!   AC adjoint.
//! * `LuDecomposition` on a matrix with a zero leading diagonal runs the
//!   real LU through its row swaps, which the SPD normal equations of
//!   `lstsq` rarely need.
//! * `lstsq` runs the normal equations (transpose, matmul, matvec, LU).
//! * A fixed-seed `SssEstimator` estimate is the one production caller of
//!   `lstsq`.
//!
//! Any change to the arithmetic or its order shows up here as a changed
//! bit pattern.

use nofis::baselines::{RareEventEstimator, SssEstimator};
use nofis::linalg::lstsq::lstsq;
use nofis::linalg::lu::LuDecomposition;
use nofis::linalg::Tensor as Dense;
use nofis::prob::LimitState;
use nofis::testcases::Opamp;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The nominal design, a mild mixed deviation, and a tail point where the
/// gain spec fails (`g < 0`).
const OPAMP_POINTS: [[f64; 5]; 3] = [
    [0.0; 5],
    [0.7, -0.4, 1.1, -1.3, 0.2],
    [-3.0, 2.5, -1.0, 3.5, -2.0],
];

/// `(value bits, gradient bits)` at each of [`OPAMP_POINTS`].
#[rustfmt::skip]
const OPAMP_PINNED: [(u64, [u64; 5]); 3] = [
    (0x401430ff3f93db90, [
        0x3fdbcb7b1526e50a, 0xbfebcb7ac819aac3, 0x3fdbcb7ac95c675f, 0xbfe287a730523077,
        0xbfd287a730523077,
    ]),
    (0x401b7eb4529c1940, [
        0x3fd9f9fb6781a89e, 0xbfecf3f519bd8eb1, 0x3fd90a57719dabc2, 0xbfe42424f0d29a68,
        0xbfd42424f0d29a68,
    ]),
    (0xbfce315d02632000, [
        0x3fe3da7c7cd2a39c, 0xbfe63c625cf23918, 0x3fdee216d72862d5, 0xbfdfc3fa3bd3ea49,
        0xbfcfc3fa3bd3ea49,
    ]),
];

#[test]
fn opamp_value_and_gradient_bits_are_pinned() {
    let opamp = Opamp::default();
    for (k, (x, (value_bits, grad_bits))) in OPAMP_POINTS.iter().zip(&OPAMP_PINNED).enumerate() {
        assert_eq!(opamp.value(x).to_bits(), *value_bits, "value at point {k}");
        let (v, grad) = opamp.value_grad(x);
        assert_eq!(v.to_bits(), *value_bits, "value_grad value at point {k}");
        assert_eq!(bits(&grad), grad_bits, "gradient at point {k}");
    }
}

#[test]
fn lstsq_bits_are_pinned() {
    // The SSS model's design `[1, ln s, −1/s²]` over seven scales.
    let mut design = Dense::zeros(7, 3);
    let mut y = vec![0.0; 7];
    for (i, yi) in y.iter_mut().enumerate() {
        let s = 1.0 + 0.5 * i as f64;
        design[(i, 0)] = 1.0;
        design[(i, 1)] = s.ln();
        design[(i, 2)] = -1.0 / (s * s);
        *yi = (0.3 * i as f64).sin() - 2.0;
    }
    let plain = lstsq(&design, &y, 0.0).unwrap();
    assert_eq!(
        bits(&plain),
        [0xbffcd3e727e1297b, 0x3fe42049fb004456, 0x3fcbd9985930544d]
    );
    let ridged = lstsq(&design, &y, 1e-9).unwrap();
    assert_eq!(
        bits(&ridged),
        [0xbffcd3e7234dffe5, 0x3fe42049f3c4bf22, 0x3fcbd99881e7eff4]
    );
}

#[test]
fn real_lu_pivot_path_bits_are_pinned() {
    // A zero leading diagonal, as in the MNA row of a voltage source:
    // the factorization must swap rows before its first elimination.
    #[rustfmt::skip]
    let a = Dense::from_vec(4, 4, vec![
        0.0, 1.0, -0.5, 2.0,
        3.0, 0.25, 0.0, -1.0,
        -1.5, 2.0, 0.0, 0.75,
        0.5, -0.1, 4.0, 0.0,
    ]);
    let lu = LuDecomposition::new(&a).expect("the matrix is nonsingular");
    let x = lu.solve(&[1.0, -0.3, 2.5, 0.7]).unwrap();
    assert_eq!(
        bits(&x),
        [
            0xbfc86c9fcd1984f1,
            0x3ff1afcf4292a5e2,
            0x3fccfd8a3a26eb66,
            0x3f7004b087e46a4f,
        ]
    );
}

/// A curved half-space event, common at every SSS scale.
struct CurvedHalfSpace;

impl LimitState for CurvedHalfSpace {
    fn dim(&self) -> usize {
        4
    }

    fn value(&self, x: &[f64]) -> f64 {
        3.5 - x[0] + 0.25 * x[1] * x[2]
    }
}

#[test]
fn sss_estimate_bits_are_pinned() {
    let sss = SssEstimator::new(6_000);
    let mut rng = StdRng::seed_from_u64(11);
    let estimate = sss.estimate(&CurvedHalfSpace, &mut rng);
    assert_eq!(estimate.to_bits(), 0x3f485e3acdf674b1);
}
