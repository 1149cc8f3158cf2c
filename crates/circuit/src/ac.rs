//! AC small-signal analysis and adjoint sensitivity.
//!
//! The complex MNA system `Y(ω) x = b` is assembled from the linear
//! elements; transistors enter as small-signal VCCS/resistor equivalents,
//! as the op-amp bench builds them. At `ω = 0` it is the DC system of a
//! resistive network. The
//! adjoint method then provides gradients of an output magnitude with
//! respect to *every* element value from one extra linear solve — this is
//! what makes NOFIS's differentiable training loss affordable on circuit
//! test cases: sensitivities ride along with each simulation instead of
//! costing `2D` extra solves.

use crate::{Circuit, CircuitError, Element, ElementId, Node};
use nofis_linalg::{lu::CluDecomposition, CMatrix, Complex64};

/// Result of an AC analysis at a single angular frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSolution {
    node_voltages: Vec<Complex64>,
}

impl AcSolution {
    /// Complex node voltage phasor (0 for ground).
    pub fn voltage(&self, node: Node) -> Complex64 {
        if node.is_ground() {
            Complex64::ZERO
        } else {
            self.node_voltages[node.0 - 1]
        }
    }

    /// Magnitude of the node voltage.
    pub fn magnitude(&self, node: Node) -> f64 {
        self.voltage(node).abs()
    }

    /// Magnitude in decibels (`20 log10 |v|`).
    pub fn magnitude_db(&self, node: Node) -> f64 {
        20.0 * self.magnitude(node).log10()
    }
}

/// Sensitivity of an output magnitude with respect to element values.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSensitivity {
    /// `|v_out|` at the analysis frequency.
    pub magnitude: f64,
    /// `d|v_out| / d(value_k)` for each requested element, in order. The
    /// differentiated value is the element's primary parameter: ohms for
    /// resistors, farads for capacitors, siemens for VCCS, amps/volts for
    /// sources.
    pub gradients: Vec<f64>,
}

impl Circuit {
    fn assemble_ac(&self, omega: f64) -> (CMatrix, Vec<Complex64>) {
        let n = self.node_count();
        let dim = self.mna_dim();
        let mut y = CMatrix::zeros(dim, dim);
        let mut b = vec![Complex64::ZERO; dim];
        let mut branch = n;

        let idx = |node: Node| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.0 - 1)
            }
        };

        let stamp_admittance = |y: &mut CMatrix, n1: Node, n2: Node, g: Complex64| {
            if let Some(i) = idx(n1) {
                y[(i, i)] += g;
                if let Some(j) = idx(n2) {
                    y[(i, j)] -= g;
                    y[(j, i)] -= g;
                    y[(j, j)] += g;
                }
            } else if let Some(j) = idx(n2) {
                y[(j, j)] += g;
            }
        };

        for e in self.elements() {
            match *e {
                Element::Resistor { a, b: n2, ohms } => {
                    stamp_admittance(&mut y, a, n2, Complex64::from_real(1.0 / ohms));
                }
                Element::Capacitor { a, b: n2, farads } => {
                    stamp_admittance(&mut y, a, n2, Complex64::new(0.0, omega * farads));
                }
                Element::CurrentSource { from, to, amps } => {
                    if let Some(i) = idx(from) {
                        b[i] -= Complex64::from_real(amps);
                    }
                    if let Some(i) = idx(to) {
                        b[i] += Complex64::from_real(amps);
                    }
                }
                Element::VoltageSource { p, n: nn, volts } => {
                    let row = branch;
                    branch += 1;
                    if let Some(i) = idx(p) {
                        y[(i, row)] += Complex64::ONE;
                        y[(row, i)] += Complex64::ONE;
                    }
                    if let Some(i) = idx(nn) {
                        y[(i, row)] -= Complex64::ONE;
                        y[(row, i)] -= Complex64::ONE;
                    }
                    b[row] = Complex64::from_real(volts);
                }
                Element::Vccs {
                    out_p,
                    out_n,
                    in_p,
                    in_n,
                    gm,
                } => {
                    for (node, sign) in [(out_p, 1.0), (out_n, -1.0)] {
                        if let Some(i) = idx(node) {
                            if let Some(j) = idx(in_p) {
                                y[(i, j)] += Complex64::from_real(sign * gm);
                            }
                            if let Some(j) = idx(in_n) {
                                y[(i, j)] -= Complex64::from_real(sign * gm);
                            }
                        }
                    }
                }
            }
        }
        (y, b)
    }

    /// Solves the small-signal system at angular frequency `omega` (rad/s).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidCircuit`] if the circuit has no nodes.
    /// * [`CircuitError::SingularSystem`] for floating nodes etc.
    pub fn ac_solve(&self, omega: f64) -> Result<AcSolution, CircuitError> {
        if self.node_count() == 0 {
            return Err(CircuitError::InvalidCircuit {
                context: "circuit has no nodes".into(),
            });
        }
        let (y, b) = self.assemble_ac(omega);
        let lu = CluDecomposition::new(&y)
            .map_err(|_| CircuitError::SingularSystem { analysis: "AC" })?;
        let x = lu
            .solve(&b)
            .map_err(|_| CircuitError::SingularSystem { analysis: "AC" })?;
        Ok(AcSolution {
            node_voltages: x[..self.node_count()].to_vec(),
        })
    }

    /// Computes `|v_out(ω)|` and its gradient with respect to the values of
    /// the elements in `wrt`, using the adjoint method (one extra solve of
    /// the transposed system regardless of how many sensitivities are
    /// requested).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::ac_solve`]; additionally
    /// [`CircuitError::InvalidCircuit`] if `out` is ground or the output
    /// magnitude is zero (the gradient of `|·|` is undefined there).
    pub fn ac_sensitivity(
        &self,
        omega: f64,
        out: Node,
        wrt: &[ElementId],
    ) -> Result<AcSensitivity, CircuitError> {
        if out.is_ground() {
            return Err(CircuitError::InvalidCircuit {
                context: "output node must not be ground".into(),
            });
        }
        let dim = self.mna_dim();
        let (y, b) = self.assemble_ac(omega);
        let lu = CluDecomposition::new(&y)
            .map_err(|_| CircuitError::SingularSystem { analysis: "AC" })?;
        let x = lu
            .solve(&b)
            .map_err(|_| CircuitError::SingularSystem { analysis: "AC" })?;
        let v_out = x[out.0 - 1];
        let mag = v_out.abs();
        if mag == 0.0 {
            return Err(CircuitError::InvalidCircuit {
                context: "output magnitude is zero; |v| not differentiable".into(),
            });
        }

        // Adjoint system: Yᵀ λ = e_out  (plain transpose, no conjugation —
        // we differentiate the complex-analytic v_out and take the real
        // chain rule for |v_out| at the end).
        let mut yt = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                yt[(i, j)] = y[(j, i)];
            }
        }
        let mut e = vec![Complex64::ZERO; dim];
        e[out.0 - 1] = Complex64::ONE;
        let lam = CluDecomposition::new(&yt)
            .map_err(|_| CircuitError::SingularSystem {
                analysis: "adjoint",
            })?
            .solve(&e)
            .map_err(|_| CircuitError::SingularSystem {
                analysis: "adjoint",
            })?;

        // d v_out / dp = -λᵀ (dY/dp) x + λᵀ (db/dp); then
        // d|v|/dp = Re( conj(v_out) / |v_out| · dv_out/dp ).
        let idx = |node: Node| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.0 - 1)
            }
        };
        let xv = |node: Node| -> Complex64 { idx(node).map_or(Complex64::ZERO, |i| x[i]) };
        let lv = |node: Node| -> Complex64 { idx(node).map_or(Complex64::ZERO, |i| lam[i]) };

        let mut gradients = Vec::with_capacity(wrt.len());
        let mut vsrc_index_of = vec![usize::MAX; self.elements().len()];
        {
            let mut k = 0;
            for (i, e) in self.elements().iter().enumerate() {
                if matches!(e, Element::VoltageSource { .. }) {
                    vsrc_index_of[i] = k;
                    k += 1;
                }
            }
        }

        for id in wrt {
            let dv_dp: Complex64 = match self.elements()[id.0] {
                Element::Resistor { a, b: n2, ohms } => {
                    // p = ohms; dG/dR = -1/R². dY/dG stamps ±1.
                    let dg = -1.0 / (ohms * ohms);
                    let la = lv(a) - lv(n2);
                    let va = xv(a) - xv(n2);
                    -(la * va) * dg
                }
                Element::Capacitor { a, b: n2, .. } => {
                    let la = lv(a) - lv(n2);
                    let va = xv(a) - xv(n2);
                    -(la * va) * Complex64::new(0.0, omega)
                }
                Element::Vccs {
                    out_p,
                    out_n,
                    in_p,
                    in_n,
                    ..
                } => {
                    let lo = lv(out_p) - lv(out_n);
                    let vi = xv(in_p) - xv(in_n);
                    -(lo * vi)
                }
                Element::CurrentSource { from, to, .. } => {
                    // db/d(amps): -1 at `from`, +1 at `to`.
                    lv(to) - lv(from)
                }
                Element::VoltageSource { .. } => {
                    // db/d(volts): +1 at the branch row.
                    let k = vsrc_index_of[id.0];
                    lam[self.node_count() + k]
                }
            };
            let grad = (v_out.conj() * dv_dp).re / mag;
            gradients.push(grad);
        }

        Ok(AcSensitivity {
            magnitude: mag,
            gradients,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RC low-pass filter driven by a 1 V source.
    fn rc_lowpass(r: f64, c: f64) -> (Circuit, Node, ElementId, ElementId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 1.0);
        let rid = ckt.resistor(vin, vout, r);
        let cid = ckt.capacitor(vout, Node::GROUND, c);
        (ckt, vout, rid, cid)
    }

    #[test]
    fn rc_transfer_function() {
        let (ckt, vout, _, _) = rc_lowpass(1_000.0, 1e-6);
        // |H| = 1/sqrt(1 + (ωRC)²); at ω = 1/RC it is 1/√2.
        let omega = 1.0 / (1_000.0 * 1e-6);
        let ac = ckt.ac_solve(omega).unwrap();
        assert!((ac.magnitude(vout) - 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((ac.magnitude_db(vout) + 3.0103).abs() < 1e-3);
    }

    #[test]
    fn dc_limit_passes_through() {
        let (ckt, vout, _, _) = rc_lowpass(1_000.0, 1e-6);
        let ac = ckt.ac_solve(1e-3).unwrap();
        assert!((ac.magnitude(vout) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adjoint_matches_finite_difference_for_rc() {
        let (ckt, vout, rid, cid) = rc_lowpass(1_000.0, 1e-6);
        let omega = 2_000.0;
        let sens = ckt.ac_sensitivity(omega, vout, &[rid, cid]).unwrap();

        let eps_r = 1e-3;
        let mut pr = rc_lowpass(1_000.0 + eps_r, 1e-6).0;
        let mut mr = rc_lowpass(1_000.0 - eps_r, 1e-6).0;
        let fd_r = (pr.ac_solve(omega).unwrap().magnitude(vout)
            - mr.ac_solve(omega).unwrap().magnitude(vout))
            / (2.0 * eps_r);
        let _ = (&mut pr, &mut mr);
        assert!(
            (sens.gradients[0] - fd_r).abs() / fd_r.abs() < 1e-5,
            "adjoint {} vs fd {}",
            sens.gradients[0],
            fd_r
        );

        let eps_c = 1e-12;
        let fd_c = (rc_lowpass(1_000.0, 1e-6 + eps_c)
            .0
            .ac_solve(omega)
            .unwrap()
            .magnitude(vout)
            - rc_lowpass(1_000.0, 1e-6 - eps_c)
                .0
                .ac_solve(omega)
                .unwrap()
                .magnitude(vout))
            / (2.0 * eps_c);
        assert!(
            (sens.gradients[1] - fd_c).abs() / fd_c.abs() < 1e-4,
            "adjoint {} vs fd {}",
            sens.gradients[1],
            fd_c
        );
    }

    #[test]
    fn adjoint_vccs_gain_sensitivity() {
        // v_out = -gm R v_in -> d|v_out|/dgm = R at v_in = 1.
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 1.0);
        let gid = ckt.vccs(vout, Node::GROUND, vin, Node::GROUND, 2e-3);
        ckt.resistor(vout, Node::GROUND, 5_000.0);
        let sens = ckt.ac_sensitivity(1.0, vout, &[gid]).unwrap();
        assert!((sens.magnitude - 10.0).abs() < 1e-9);
        assert!((sens.gradients[0] - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn current_source_into_resistor_at_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        ckt.current_source(Node::GROUND, a, 2e-3);
        ckt.resistor(a, Node::GROUND, 500.0);
        let v = ckt.ac_solve(0.0).unwrap().voltage(a);
        assert!((v.re - 1.0).abs() < 1e-12 && v.im == 0.0, "v = {v:?}");
    }

    #[test]
    fn vccs_amplifier_at_dc() {
        // v_out = -gm R v_in for a grounded VCCS load.
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 0.1);
        ckt.vccs(vout, Node::GROUND, vin, Node::GROUND, 1e-3);
        ckt.resistor(vout, Node::GROUND, 10_000.0);
        let v = ckt.ac_solve(0.0).unwrap().voltage(vout);
        assert!((v.re + 1.0).abs() < 1e-9 && v.im == 0.0, "v = {v:?}");
    }

    #[test]
    fn floating_node_is_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        let _floating = ckt.node();
        ckt.resistor(a, Node::GROUND, 100.0);
        assert!(matches!(
            ckt.ac_solve(0.0),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn empty_circuit_is_invalid() {
        assert!(matches!(
            Circuit::new().ac_solve(0.0),
            Err(CircuitError::InvalidCircuit { .. })
        ));
    }

    /// A 1 V source through 1 kΩ and a 0.5 mA current source both drive
    /// an RC node; returns the circuit, the node and the two source ids.
    fn two_source_rc(volts: f64, amps: f64) -> (Circuit, Node, ElementId, ElementId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        let vid = ckt.voltage_source(vin, Node::GROUND, volts);
        ckt.resistor(vin, vout, 1_000.0);
        let iid = ckt.current_source(Node::GROUND, vout, amps);
        ckt.resistor(vout, Node::GROUND, 2_000.0);
        ckt.capacitor(vout, Node::GROUND, 1e-6);
        (ckt, vout, vid, iid)
    }

    #[test]
    fn adjoint_matches_finite_difference_for_sources() {
        let (volts, amps, omega) = (1.0, 5e-4, 700.0);
        let (ckt, vout, vid, iid) = two_source_rc(volts, amps);
        let sens = ckt.ac_sensitivity(omega, vout, &[vid, iid]).unwrap();
        let mag = |v: f64, i: f64| {
            two_source_rc(v, i)
                .0
                .ac_solve(omega)
                .unwrap()
                .magnitude(vout)
        };

        let eps_v = 1e-6;
        let fd_v = (mag(volts + eps_v, amps) - mag(volts - eps_v, amps)) / (2.0 * eps_v);
        assert!(
            (sens.gradients[0] - fd_v).abs() / fd_v.abs() < 1e-6,
            "adjoint {} vs fd {fd_v}",
            sens.gradients[0]
        );

        let eps_i = 1e-9;
        let fd_i = (mag(volts, amps + eps_i) - mag(volts, amps - eps_i)) / (2.0 * eps_i);
        assert!(
            (sens.gradients[1] - fd_i).abs() / fd_i.abs() < 1e-6,
            "adjoint {} vs fd {fd_i}",
            sens.gradients[1]
        );
    }

    #[test]
    fn sensitivity_rejects_ground_output() {
        let (ckt, _, rid, _) = rc_lowpass(1_000.0, 1e-6);
        assert!(ckt.ac_sensitivity(1.0, Node::GROUND, &[rid]).is_err());
    }
}
