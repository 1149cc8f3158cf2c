//! Property-based tests on the simulator substrates: MNA circuit laws,
//! BPM physics, and test-case gradient consistency.

use nofis_circuit::{Circuit, Node};
use nofis_photonics::{BpmConfig, BpmSolver, YBranch};
use nofis_prob::LimitState;
use nofis_testcases::{ChargePump, Leaf, Opamp, Oscillator, YBranchCase};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Voltage dividers obey the divider law for arbitrary positive
    /// resistances.
    #[test]
    fn divider_law(r1 in 10.0f64..1e6, r2 in 10.0f64..1e6, v in 0.1f64..10.0) {
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let mid = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, v);
        ckt.resistor(vin, mid, r1);
        ckt.resistor(mid, Node::GROUND, r2);
        let dc = ckt.ac_solve(0.0).unwrap();
        let expected = v * r2 / (r1 + r2);
        prop_assert!((dc.voltage(mid).re - expected).abs() < 1e-9 * v.abs());
    }

    /// Superposition: the response to two current sources equals the sum
    /// of the individual responses (linear network).
    #[test]
    fn superposition(i1 in -1e-3f64..1e-3, i2 in -1e-3f64..1e-3, r in 100.0f64..10_000.0) {
        let solve = |a: f64, b: f64| -> f64 {
            let mut ckt = Circuit::new();
            let n1 = ckt.node();
            let n2 = ckt.node();
            ckt.current_source(Node::GROUND, n1, a);
            ckt.current_source(Node::GROUND, n2, b);
            ckt.resistor(n1, n2, r);
            ckt.resistor(n1, Node::GROUND, 2.0 * r);
            ckt.resistor(n2, Node::GROUND, 3.0 * r);
            ckt.ac_solve(0.0).unwrap().voltage(n2).re
        };
        let both = solve(i1, i2);
        let parts = solve(i1, 0.0) + solve(0.0, i2);
        prop_assert!((both - parts).abs() < 1e-9 * (1.0 + both.abs()));
    }

    /// RC low-pass magnitude response follows |H| = 1/√(1+(ωRC)²) at any
    /// frequency.
    #[test]
    fn rc_magnitude(omega_log in 0.0f64..6.0) {
        let omega = 10f64.powf(omega_log);
        let (r, c) = (1_000.0, 1e-6);
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 1.0);
        ckt.resistor(vin, vout, r);
        ckt.capacitor(vout, Node::GROUND, c);
        let ac = ckt.ac_solve(omega).unwrap();
        let expected = 1.0 / (1.0 + (omega * r * c).powi(2)).sqrt();
        prop_assert!((ac.magnitude(vout) - expected).abs() < 1e-9);
    }

    /// BPM conserves or loses power (the absorber only removes energy),
    /// for arbitrary small deformations.
    #[test]
    fn bpm_power_never_grows(c0 in -1.5f64..1.5, c1 in -1.5f64..1.5) {
        let solver = BpmSolver::new(
            YBranch::new(2),
            BpmConfig { nx: 41, nz: 30, ..Default::default() },
        );
        let run = solver.run(&[c0, c1]).unwrap();
        let power: f64 = run.output_magnitude.iter().map(|m| m * m).sum();
        prop_assert!(power <= 1.0 + 1e-9, "power {power}");
        prop_assert!(run.transmission >= 0.0 && run.transmission <= power + 1e-12);
    }

    /// Every registered limit-state gradient matches finite differences at
    /// random points (spot check on the four heterogeneous cases and the
    /// Y-branch on its Table-1 grid).
    #[test]
    fn case_gradients_are_consistent(seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cases: Vec<Box<dyn LimitState + Sync>> = vec![
            Box::new(Leaf),
            Box::new(Opamp::default()),
            Box::new(ChargePump::default()),
            Box::new(Oscillator),
            Box::new(YBranchCase::default()),
        ];
        for ls in &cases {
            let x: Vec<f64> = (0..ls.dim()).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let (v, grad) = ls.value_grad(&x);
            prop_assert!((v - ls.value(&x)).abs() < 1e-10);
            // Directional finite-difference check along a random direction.
            let dir: Vec<f64> = (0..ls.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let eps = 1e-6;
            let xp: Vec<f64> = x.iter().zip(&dir).map(|(a, d)| a + eps * d).collect();
            let xm: Vec<f64> = x.iter().zip(&dir).map(|(a, d)| a - eps * d).collect();
            let fd = (ls.value(&xp) - ls.value(&xm)) / (2.0 * eps);
            let analytic: f64 = grad.iter().zip(&dir).map(|(g, d)| g * d).sum();
            prop_assert!(
                (fd - analytic).abs() < 1e-4 * (1.0 + fd.abs()),
                "{}: directional fd {fd} vs analytic {analytic}",
                ls.name()
            );
        }
    }
}
