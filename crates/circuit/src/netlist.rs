use std::fmt;

/// A circuit node. `Node::GROUND` is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The ground/reference node.
    pub const GROUND: Node = Node(0);

    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Handle to an element added to a [`Circuit`], used to address it in
/// sensitivity queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// A linear circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b` (open at ω = 0).
    Capacitor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Independent current source pushing `amps` from `from` into `to`.
    CurrentSource {
        /// Current leaves this node.
        from: Node,
        /// Current enters this node.
        to: Node,
        /// Source value in amperes (DC and AC magnitude).
        amps: f64,
    },
    /// Independent voltage source (`p` positive); adds one branch unknown.
    VoltageSource {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Source value in volts (DC and AC magnitude).
        volts: f64,
    },
    /// Voltage-controlled current source: current `gm · (v_inp − v_inn)`
    /// flows from `out_p` to `out_n`.
    Vccs {
        /// Current leaves this node.
        out_p: Node,
        /// Current enters this node.
        out_n: Node,
        /// Positive controlling node.
        in_p: Node,
        /// Negative controlling node.
        in_n: Node,
        /// Transconductance in siemens.
        gm: f64,
    },
}

/// A flat netlist plus node bookkeeping — the input to the AC analysis.
///
/// # Example
///
/// ```
/// use nofis_circuit::{Circuit, Node};
///
/// # fn main() -> Result<(), nofis_circuit::CircuitError> {
/// // Voltage divider: 2V source over two 1k resistors.
/// let mut ckt = Circuit::new();
/// let vin = ckt.node();
/// let mid = ckt.node();
/// ckt.voltage_source(vin, Node::GROUND, 2.0);
/// ckt.resistor(vin, mid, 1_000.0);
/// ckt.resistor(mid, Node::GROUND, 1_000.0);
/// // At ω = 0 the capacitor-free network is its DC solution.
/// let ac = ckt.ac_solve(0.0)?;
/// assert!((ac.voltage(mid).re - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// Number of non-ground nodes.
    n_nodes: usize,
    elements: Vec<Element>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Allocates a new node.
    pub fn node(&mut self) -> Node {
        self.n_nodes += 1;
        Node(self.n_nodes)
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Borrows the element list.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    fn push(&mut self, e: Element) -> ElementId {
        self.elements.push(e);
        ElementId(self.elements.len() - 1)
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not positive and finite.
    pub fn resistor(&mut self, a: Node, b: Node, ohms: f64) -> ElementId {
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be positive"
        );
        self.push(Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not positive and finite.
    pub fn capacitor(&mut self, a: Node, b: Node, farads: f64) -> ElementId {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be positive"
        );
        self.push(Element::Capacitor { a, b, farads })
    }

    /// Adds an independent current source (`amps` flows `from → to`).
    pub fn current_source(&mut self, from: Node, to: Node, amps: f64) -> ElementId {
        self.push(Element::CurrentSource { from, to, amps })
    }

    /// Adds an independent voltage source.
    pub fn voltage_source(&mut self, p: Node, n: Node, volts: f64) -> ElementId {
        self.push(Element::VoltageSource { p, n, volts })
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(&mut self, out_p: Node, out_n: Node, in_p: Node, in_n: Node, gm: f64) -> ElementId {
        self.push(Element::Vccs {
            out_p,
            out_n,
            in_p,
            in_n,
            gm,
        })
    }

    /// Number of voltage sources (each adds one MNA branch unknown).
    pub(crate) fn vsrc_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. }))
            .count()
    }

    /// Size of the MNA system: nodes plus voltage-source branches.
    pub(crate) fn mna_dim(&self) -> usize {
        self.n_nodes + self.vsrc_count()
    }
}

/// Errors from circuit analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The MNA matrix was singular (floating node, source loop…).
    SingularSystem {
        /// Description of the analysis that failed.
        analysis: &'static str,
    },
    /// The circuit is empty or otherwise unanalyzable.
    InvalidCircuit {
        /// Human-readable description.
        context: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::SingularSystem { analysis } => {
                write!(f, "singular MNA system during {analysis} analysis")
            }
            CircuitError::InvalidCircuit { context } => {
                write!(f, "invalid circuit: {context}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_allocation() {
        let mut ckt = Circuit::new();
        assert!(Node::GROUND.is_ground());
        let a = ckt.node();
        let b = ckt.node();
        assert_ne!(a, b);
        assert!(!a.is_ground());
        assert_eq!(ckt.node_count(), 2);
    }

    #[test]
    fn mna_dim_counts_vsrc_branches() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        let b = ckt.node();
        ckt.voltage_source(a, Node::GROUND, 1.0);
        ckt.resistor(a, b, 10.0);
        ckt.voltage_source(b, Node::GROUND, 2.0);
        assert_eq!(ckt.mna_dim(), 4);
        assert_eq!(ckt.vsrc_count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_negative_resistance() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        ckt.resistor(a, Node::GROUND, -5.0);
    }
}
