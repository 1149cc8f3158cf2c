//! Bit-for-bit pins of the dense linear-algebra paths under the circuit
//! cases and the SSS baseline.
//!
//! * `Opamp::value` / `value_grad` run the complex LU (AC solve) and the
//!   AC adjoint.
//! * `Circuit::dc_solve` on a MOSFET circuit runs the real LU inside the
//!   damped Newton loop.
//! * `lstsq` runs the normal equations (transpose, matmul, matvec, LU).
//! * A fixed-seed `SssEstimator` estimate is the one production caller of
//!   `lstsq`.
//!
//! Any change to the arithmetic or its order shows up here as a changed
//! bit pattern.

use nofis::baselines::{RareEventEstimator, SssEstimator};
use nofis::circuit::{Circuit, MosParams, Node};
use nofis::linalg::lstsq::lstsq;
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
fn mosfet_dc_operating_point_bits_are_pinned() {
    // An NMOS current mirror biased through 20 kΩ, its output loaded by
    // 12 kΩ, driving a common-source stage in triode: Newton iterates
    // several times from the all-zero start.
    let mut ckt = Circuit::new();
    let vdd = ckt.node();
    let bias = ckt.node();
    let mirror = ckt.node();
    let out = ckt.node();
    let nmos = MosParams::nmos(10e-6, 1e-6, 0.5, 100e-6, 0.02);
    ckt.voltage_source(vdd, Node::GROUND, 3.0);
    ckt.resistor(vdd, bias, 20_000.0);
    ckt.mosfet(bias, bias, Node::GROUND, nmos);
    ckt.mosfet(mirror, bias, Node::GROUND, nmos);
    ckt.resistor(vdd, mirror, 12_000.0);
    ckt.mosfet(
        out,
        mirror,
        Node::GROUND,
        MosParams::nmos(4e-6, 1e-6, 0.45, 100e-6, 0.05),
    );
    ckt.resistor(vdd, out, 20_000.0);

    let dc = ckt
        .dc_solve()
        .expect("the circuit has a DC operating point");
    let got = [
        dc.voltage(vdd),
        dc.voltage(bias),
        dc.voltage(mirror),
        dc.voltage(out),
        dc.vsrc_current(0),
    ];
    assert_eq!(
        bits(&got),
        [
            0x4008000000000000,
            0x3fee5b934ca83254,
            0x3ffbff65aa4359fb,
            0x3fd2812084773ec7,
            0xbf366ea5a3515737,
        ]
    );
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
