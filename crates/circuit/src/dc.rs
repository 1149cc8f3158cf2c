//! DC operating-point analysis: direct MNA solve for linear circuits and
//! damped Newton–Raphson for circuits containing MOSFETs.

use crate::{Circuit, CircuitError, Element, Node};
use nofis_linalg::{lu::LuDecomposition, Tensor};

/// Maximum Newton iterations before declaring non-convergence.
const MAX_NEWTON_ITERS: usize = 200;
/// Voltage-update convergence tolerance.
const NEWTON_TOL: f64 = 1e-10;
/// Per-iteration clamp on node-voltage updates (crude but effective
/// damping for square-law devices).
const MAX_STEP: f64 = 0.5;

/// Result of a DC analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    node_voltages: Vec<f64>,
    vsrc_currents: Vec<f64>,
}

impl DcSolution {
    /// Voltage at `node` (0 for ground).
    pub fn voltage(&self, node: Node) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.node_voltages[node.0 - 1]
        }
    }

    /// Branch current through the `k`-th voltage source, in the order the
    /// sources were added (positive current flows into the `p` terminal
    /// through the source to `n`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn vsrc_current(&self, k: usize) -> f64 {
        self.vsrc_currents[k]
    }
}

impl Circuit {
    /// Solves the DC operating point.
    ///
    /// Capacitors are open circuits; MOSFETs are iterated with damped
    /// Newton–Raphson starting from all node voltages at zero.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidCircuit`] if the circuit has no nodes.
    /// * [`CircuitError::SingularSystem`] for floating nodes etc.
    /// * [`CircuitError::NoConvergence`] if Newton fails.
    pub fn dc_solve(&self) -> Result<DcSolution, CircuitError> {
        if self.node_count() == 0 {
            return Err(CircuitError::InvalidCircuit {
                context: "circuit has no nodes".into(),
            });
        }
        let dim = self.mna_dim();
        let has_mos = self
            .elements()
            .iter()
            .any(|e| matches!(e, Element::Mosfet { .. } | Element::Diode { .. }));
        let mut v = vec![0.0; dim];
        let iters = if has_mos { MAX_NEWTON_ITERS } else { 1 };

        for it in 0..iters {
            let (a, b) = self.assemble_dc(&v);
            let lu = LuDecomposition::new(&a)
                .map_err(|_| CircuitError::SingularSystem { analysis: "DC" })?;
            let v_new = lu
                .solve(&b)
                .map_err(|_| CircuitError::SingularSystem { analysis: "DC" })?;
            let mut delta: f64 = 0.0;
            for i in 0..dim {
                let step = (v_new[i] - v[i]).clamp(-MAX_STEP, MAX_STEP);
                delta = delta.max(step.abs());
                v[i] += step;
            }
            if (!has_mos || delta < NEWTON_TOL) && (has_mos || it == 0) {
                // Linear circuits converge in one solve; take it exactly.
                if !has_mos {
                    v = v_new;
                }
                return Ok(self.split_solution(v));
            }
        }
        let (a, b) = self.assemble_dc(&v);
        let residual = a
            .matvec(&v)
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        if residual < 1e-6 {
            return Ok(self.split_solution(v));
        }
        Err(CircuitError::NoConvergence {
            iterations: MAX_NEWTON_ITERS,
            residual,
        })
    }

    fn split_solution(&self, v: Vec<f64>) -> DcSolution {
        let n = self.node_count();
        DcSolution {
            node_voltages: v[..n].to_vec(),
            vsrc_currents: v[n..].to_vec(),
        }
    }

    /// Assembles the (linearized) DC MNA system at the current voltage
    /// estimate `v`.
    pub(crate) fn assemble_dc(&self, v: &[f64]) -> (Tensor, Vec<f64>) {
        let n = self.node_count();
        let dim = self.mna_dim();
        let mut a = Tensor::zeros(dim, dim);
        let mut b = vec![0.0; dim];
        let mut branch = n; // next voltage-source branch row

        // Helper closures operating on 1-based node ids (0 = ground).
        let idx = |node: Node| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.0 - 1)
            }
        };
        let volt = |node: Node| -> f64 {
            match idx(node) {
                None => 0.0,
                Some(i) => v[i],
            }
        };

        let stamp_conductance = |a: &mut Tensor, n1: Node, n2: Node, g: f64| {
            if let Some(i) = idx(n1) {
                a[(i, i)] += g;
                if let Some(j) = idx(n2) {
                    a[(i, j)] -= g;
                    a[(j, i)] -= g;
                    a[(j, j)] += g;
                }
            } else if let Some(j) = idx(n2) {
                a[(j, j)] += g;
            }
        };

        for e in self.elements() {
            match *e {
                Element::Resistor { a: n1, b: n2, ohms } => {
                    stamp_conductance(&mut a, n1, n2, 1.0 / ohms);
                }
                Element::Capacitor { .. } => {} // open in DC
                Element::CurrentSource { from, to, amps } => {
                    if let Some(i) = idx(from) {
                        b[i] -= amps;
                    }
                    if let Some(i) = idx(to) {
                        b[i] += amps;
                    }
                }
                Element::VoltageSource { p, n: nn, volts } => {
                    let row = branch;
                    branch += 1;
                    if let Some(i) = idx(p) {
                        a[(i, row)] += 1.0;
                        a[(row, i)] += 1.0;
                    }
                    if let Some(i) = idx(nn) {
                        a[(i, row)] -= 1.0;
                        a[(row, i)] -= 1.0;
                    }
                    b[row] = volts;
                }
                Element::Vccs {
                    out_p,
                    out_n,
                    in_p,
                    in_n,
                    gm,
                } => {
                    // Current gm (v_inp - v_inn) from out_p to out_n.
                    for (node, sign) in [(out_p, 1.0), (out_n, -1.0)] {
                        if let Some(i) = idx(node) {
                            if let Some(j) = idx(in_p) {
                                a[(i, j)] += sign * gm;
                            }
                            if let Some(j) = idx(in_n) {
                                a[(i, j)] -= sign * gm;
                            }
                        }
                    }
                }
                Element::Diode {
                    anode,
                    cathode,
                    params,
                } => {
                    let vd = volt(anode) - volt(cathode);
                    let (id, gd) = params.evaluate(vd);
                    stamp_conductance(&mut a, anode, cathode, gd);
                    let i_eq = id - gd * vd;
                    if let Some(i) = idx(anode) {
                        b[i] -= i_eq;
                    }
                    if let Some(i) = idx(cathode) {
                        b[i] += i_eq;
                    }
                }
                Element::Mosfet { d, g, s, params } => {
                    // Companion model: linearize around current estimate.
                    let vgs = volt(g) - volt(s);
                    let vds = volt(d) - volt(s);
                    let op = params.evaluate(vgs, vds);
                    // gm from gate, gds from drain, plus residual current.
                    for (node, sign) in [(d, 1.0), (s, -1.0)] {
                        if let Some(i) = idx(node) {
                            if let Some(j) = idx(g) {
                                a[(i, j)] += sign * op.gm;
                            }
                            if let Some(j) = idx(s) {
                                a[(i, j)] -= sign * (op.gm + op.gds);
                            }
                            if let Some(j) = idx(d) {
                                a[(i, j)] += sign * op.gds;
                            }
                        }
                    }
                    let i_eq = op.id - op.gm * vgs - op.gds * vds;
                    if let Some(i) = idx(d) {
                        b[i] -= i_eq;
                    }
                    if let Some(i) = idx(s) {
                        b[i] += i_eq;
                    }
                }
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MosParams;

    #[test]
    fn voltage_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let mid = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 3.0);
        ckt.resistor(vin, mid, 2_000.0);
        ckt.resistor(mid, Node::GROUND, 1_000.0);
        let dc = ckt.dc_solve().unwrap();
        assert!((dc.voltage(mid) - 1.0).abs() < 1e-12);
        assert!((dc.voltage(vin) - 3.0).abs() < 1e-12);
        // Source current: 3V over 3k = 1 mA flowing out of the source.
        assert!((dc.vsrc_current(0) + 1e-3).abs() < 1e-12);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        ckt.current_source(Node::GROUND, a, 2e-3);
        ckt.resistor(a, Node::GROUND, 500.0);
        let dc = ckt.dc_solve().unwrap();
        assert!((dc.voltage(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vccs_amplifier() {
        // v_out = -gm * R * v_in for a grounded VCCS load.
        let mut ckt = Circuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.voltage_source(vin, Node::GROUND, 0.1);
        ckt.vccs(vout, Node::GROUND, vin, Node::GROUND, 1e-3);
        ckt.resistor(vout, Node::GROUND, 10_000.0);
        let dc = ckt.dc_solve().unwrap();
        assert!((dc.voltage(vout) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        let _b = ckt.node(); // floating
        ckt.resistor(a, Node::GROUND, 100.0);
        assert!(matches!(
            ckt.dc_solve(),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn empty_circuit_is_invalid() {
        assert!(matches!(
            Circuit::new().dc_solve(),
            Err(CircuitError::InvalidCircuit { .. })
        ));
    }

    #[test]
    fn nmos_diode_connected_bias() {
        // Diode-connected NMOS pulled up by a resistor from 3V: solves the
        // quadratic ID = (3 - V)/R with ID = 0.5 β (V - Vth)².
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        let d = ckt.node();
        ckt.voltage_source(vdd, Node::GROUND, 3.0);
        ckt.resistor(vdd, d, 10_000.0);
        let params = MosParams::nmos(20e-6, 1e-6, 0.5, 100e-6, 0.0);
        ckt.mosfet(d, d, Node::GROUND, params);
        let dc = ckt.dc_solve().unwrap();
        let vd = dc.voltage(d);
        let beta = params.beta();
        let id = 0.5 * beta * (vd - 0.5).powi(2);
        let ir = (3.0 - vd) / 10_000.0;
        assert!((id - ir).abs() < 1e-9, "KCL violated: id={id}, ir={ir}");
        assert!(vd > 0.5 && vd < 3.0);
    }

    #[test]
    fn common_source_amplifier_bias() {
        // NMOS with gate at 1.0V, drain through 20k to 3V: saturation.
        let mut ckt = Circuit::new();
        let vdd = ckt.node();
        let gate = ckt.node();
        let drain = ckt.node();
        ckt.voltage_source(vdd, Node::GROUND, 3.0);
        ckt.voltage_source(gate, Node::GROUND, 1.0);
        ckt.resistor(vdd, drain, 20_000.0);
        let params = MosParams::nmos(10e-6, 1e-6, 0.5, 100e-6, 0.02);
        ckt.mosfet(drain, gate, Node::GROUND, params);
        let dc = ckt.dc_solve().unwrap();
        let vd = dc.voltage(drain);
        // Hand estimate: ID ≈ 0.5·1e-3·0.25 = 125 µA (before λ), drop 2.5V.
        assert!(vd > 0.2 && vd < 1.0, "vd = {vd}");
    }
}
