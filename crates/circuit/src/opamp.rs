//! Two-stage Miller-compensated OTA bench for the Opamp test case (#6).
//!
//! The paper's op-amp (Yan et al., ISSCC'12) is a transistor-level
//! three-stage amplifier simulated in SPICE; here we model a two-stage CMOS
//! OTA in our own MNA simulator. Five standard-Gaussian process variables
//! perturb device widths and channel-length-modulation coefficients; the
//! derived small-signal elements (gm via the square law, output
//! conductances) form the AC netlist, and the spec is the low-frequency
//! gain in dB. Gradients come from the adjoint AC sensitivity chained
//! through the analytic device maps — one simulation yields both `g(x)` and
//! `∇g(x)`.

use crate::{Circuit, CircuitError, Node};

/// Fraction by which one standard deviation of each process variable moves
/// its device parameter.
const SIGMA: f64 = 0.1;

/// Nominal design constants of the OTA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpampDesign {
    /// First-stage bias current per side (A).
    pub i1: f64,
    /// Second-stage bias current (A).
    pub i2: f64,
    /// NMOS process transconductance `k'_n` (A/V²).
    pub kp_n: f64,
    /// PMOS process transconductance `k'_p` (A/V²).
    pub kp_p: f64,
    /// NMOS channel-length modulation (1/V).
    pub lambda_n: f64,
    /// PMOS channel-length modulation (1/V).
    pub lambda_p: f64,
    /// Input-pair W/L ratio.
    pub wl1: f64,
    /// Second-stage W/L ratio.
    pub wl6: f64,
    /// Miller compensation capacitor (F).
    pub cc: f64,
    /// Load capacitor (F).
    pub cl: f64,
    /// Analysis angular frequency (rad/s); low enough to read the DC gain.
    pub omega: f64,
}

impl Default for OpampDesign {
    fn default() -> Self {
        OpampDesign {
            i1: 20e-6,
            i2: 100e-6,
            kp_n: 100e-6,
            kp_p: 40e-6,
            lambda_n: 0.05,
            lambda_p: 0.1,
            wl1: 40.0,
            wl6: 100.0,
            cc: 2e-12,
            cl: 5e-12,
            omega: 10.0,
        }
    }
}

/// The op-amp yield bench: maps a 5-dimensional variation vector to the
/// small-signal gain (dB) with analytic+adjoint gradients.
///
/// Variation mapping (all multiplicative `1 + SIGMA·xᵢ` perturbations):
///
/// | coord | device parameter |
/// |---|---|
/// | `x[0]` | input-pair width (moves `gm1 ∝ √W`) |
/// | `x[1]` | first-stage output conductances `gds2 + gds4` |
/// | `x[2]` | second-stage width (moves `gm6 ∝ √W`) |
/// | `x[3]` | second-stage NMOS output conductance `gds6` |
/// | `x[4]` | second-stage PMOS output conductance `gds7` |
///
/// # Example
///
/// ```
/// use nofis_circuit::OpampBench;
///
/// # fn main() -> Result<(), nofis_circuit::CircuitError> {
/// let bench = OpampBench::new();
/// let (gain_db, grad) = bench.gain_db_grad(&[0.0; 5])?;
/// assert!(gain_db > 70.0 && gain_db < 85.0);
/// assert_eq!(grad.len(), 5);
/// assert!(grad[0] > 0.0); // wider input pair -> more gain
/// assert!(grad[1] < 0.0); // more output conductance -> less gain
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpampBench {
    design: OpampDesign,
}

impl Default for OpampBench {
    fn default() -> Self {
        Self::new()
    }
}

impl OpampBench {
    /// Creates the bench with the default design.
    pub fn new() -> Self {
        OpampBench {
            design: OpampDesign::default(),
        }
    }

    /// Borrows the design constants.
    pub fn design(&self) -> &OpampDesign {
        &self.design
    }

    /// Number of variation dimensions.
    pub const DIM: usize = 5;

    /// Derived small-signal element values and their derivatives with
    /// respect to each variation coordinate.
    ///
    /// Returns `(values, dvalues/dx)` for
    /// `[gm1, r1, gm6, r2]` where `r1 = 1/(gds2+gds4)`, `r2 = 1/(gds6+gds7)`.
    fn small_signal(&self, x: &[f64]) -> ([f64; 4], [[f64; 5]; 4]) {
        let d = &self.design;
        // gm = sqrt(2 k' (W/L) I); width scales linearly with (1 + σ x).
        let w1 = (1.0 + SIGMA * x[0]).max(0.05);
        let gm1 = (2.0 * d.kp_n * d.wl1 * w1 * d.i1).sqrt();
        let dgm1_dx0 = if 1.0 + SIGMA * x[0] > 0.05 {
            0.5 * gm1 / w1 * SIGMA
        } else {
            0.0
        };

        let g1_nom = (d.lambda_n + d.lambda_p) * d.i1;
        let s1 = (1.0 + SIGMA * x[1]).max(0.05);
        let g1 = g1_nom * s1;
        let r1 = 1.0 / g1;
        let dr1_dx1 = if 1.0 + SIGMA * x[1] > 0.05 {
            -r1 / s1 * SIGMA
        } else {
            0.0
        };

        let w6 = (1.0 + SIGMA * x[2]).max(0.05);
        let gm6 = (2.0 * d.kp_p * d.wl6 * w6 * d.i2).sqrt();
        let dgm6_dx2 = if 1.0 + SIGMA * x[2] > 0.05 {
            0.5 * gm6 / w6 * SIGMA
        } else {
            0.0
        };

        let g6_nom = d.lambda_p * d.i2;
        let g7_nom = d.lambda_n * d.i2;
        let s6 = (1.0 + SIGMA * x[3]).max(0.05);
        let s7 = (1.0 + SIGMA * x[4]).max(0.05);
        let g2 = g6_nom * s6 + g7_nom * s7;
        let r2 = 1.0 / g2;
        let dr2_dx3 = if 1.0 + SIGMA * x[3] > 0.05 {
            -r2 * r2 * g6_nom * SIGMA
        } else {
            0.0
        };
        let dr2_dx4 = if 1.0 + SIGMA * x[4] > 0.05 {
            -r2 * r2 * g7_nom * SIGMA
        } else {
            0.0
        };

        let values = [gm1, r1, gm6, r2];
        let mut jac = [[0.0; 5]; 4];
        jac[0][0] = dgm1_dx0;
        jac[1][1] = dr1_dx1;
        jac[2][2] = dgm6_dx2;
        jac[3][3] = dr2_dx3;
        jac[3][4] = dr2_dx4;
        (values, jac)
    }

    /// Simulates the OTA at the variation point `x` and returns
    /// `(gain_dB, d gain_dB / dx)`.
    ///
    /// One MNA solve plus one adjoint solve; gradients are exact to solver
    /// precision.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError`] from the AC analysis.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 5`.
    pub fn gain_db_grad(&self, x: &[f64]) -> Result<(f64, Vec<f64>), CircuitError> {
        assert_eq!(x.len(), Self::DIM, "opamp bench expects 5 variation dims");
        let d = &self.design;
        let ([gm1, r1, gm6, r2], jac) = self.small_signal(x);

        // Small-signal netlist: vin --(gm1)--> n1 (r1, Cc to out)
        //                        n1 --(gm6)--> out (r2, CL).
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let n1 = ckt.node();
        let out = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 1.0);
        // Inverting first stage: current gm1·v_in pulled out of n1.
        let e_gm1 = ckt.vccs(n1, Node::GROUND, vin, Node::GROUND, gm1);
        let e_r1 = ckt.resistor(n1, Node::GROUND, r1);
        ckt.capacitor(n1, out, d.cc);
        let e_gm6 = ckt.vccs(out, Node::GROUND, n1, Node::GROUND, gm6);
        let e_r2 = ckt.resistor(out, Node::GROUND, r2);
        ckt.capacitor(out, Node::GROUND, d.cl);

        let sens = ckt.ac_sensitivity(d.omega, out, &[e_gm1, e_r1, e_gm6, e_r2])?;
        let gain_db = 20.0 * sens.magnitude.log10();
        // d(dB)/d|v| = 20 / (ln 10 · |v|)
        let db_chain = 20.0 / (std::f64::consts::LN_10 * sens.magnitude);

        let mut grad = vec![0.0; Self::DIM];
        for (k, dmag_dval) in sens.gradients.iter().enumerate() {
            for (i, g) in grad.iter_mut().enumerate() {
                *g += db_chain * dmag_dval * jac[k][i];
            }
        }
        Ok((gain_db, grad))
    }

    /// Gain only (no gradient); one MNA solve.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError`] from the AC analysis.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 5`.
    pub fn gain_db(&self, x: &[f64]) -> Result<f64, CircuitError> {
        assert_eq!(x.len(), Self::DIM, "opamp bench expects 5 variation dims");
        let d = &self.design;
        let ([gm1, r1, gm6, r2], _) = self.small_signal(x);
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let n1 = ckt.node();
        let out = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 1.0);
        ckt.vccs(n1, Node::GROUND, vin, Node::GROUND, gm1);
        ckt.resistor(n1, Node::GROUND, r1);
        ckt.capacitor(n1, out, d.cc);
        ckt.vccs(out, Node::GROUND, n1, Node::GROUND, gm6);
        ckt.resistor(out, Node::GROUND, r2);
        ckt.capacitor(out, Node::GROUND, d.cl);
        Ok(ckt.ac_solve(d.omega)?.magnitude_db(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_gain_matches_hand_analysis() {
        let bench = OpampBench::new();
        let gain = bench.gain_db(&[0.0; 5]).unwrap();
        // gm1·r1·gm6·r2 with the default design is ≈ 78 dB.
        assert!((gain - 78.0).abs() < 1.0, "gain = {gain}");
    }

    #[test]
    fn gain_monotone_in_each_knob() {
        let bench = OpampBench::new();
        let base = bench.gain_db(&[0.0; 5]).unwrap();
        assert!(bench.gain_db(&[1.0, 0.0, 0.0, 0.0, 0.0]).unwrap() > base);
        assert!(bench.gain_db(&[0.0, 1.0, 0.0, 0.0, 0.0]).unwrap() < base);
        assert!(bench.gain_db(&[0.0, 0.0, 1.0, 0.0, 0.0]).unwrap() > base);
        assert!(bench.gain_db(&[0.0, 0.0, 0.0, 1.0, 0.0]).unwrap() < base);
        assert!(bench.gain_db(&[0.0, 0.0, 0.0, 0.0, 1.0]).unwrap() < base);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let bench = OpampBench::new();
        let x = [0.3, -0.7, 0.2, 1.1, -0.4];
        let (v, grad) = bench.gain_db_grad(&x).unwrap();
        assert!((v - bench.gain_db(&x).unwrap()).abs() < 1e-12);
        let eps = 1e-6;
        for i in 0..5 {
            let mut xp = x;
            xp[i] += eps;
            let fp = bench.gain_db(&xp).unwrap();
            xp[i] -= 2.0 * eps;
            let fm = bench.gain_db(&xp).unwrap();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-5 * fd.abs().max(1.0),
                "dim {i}: adjoint {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn extreme_variation_stays_finite() {
        let bench = OpampBench::new();
        let (v, grad) = bench
            .gain_db_grad(&[-12.0, 12.0, -12.0, 12.0, 12.0])
            .unwrap();
        assert!(v.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }
}
