//! Modified-nodal-analysis (MNA) circuit simulator with adjoint
//! sensitivities.
//!
//! Built from scratch as the substrate for NOFIS's circuit test cases —
//! the paper's SPICE testbenches are proprietary, so the repository ships
//! its own simulator:
//!
//! * [`Circuit`] — linear netlist builder (R, C, I/V sources, VCCS).
//! * [`Circuit::ac_solve`] / [`Circuit::ac_sensitivity`] — complex
//!   small-signal analysis and adjoint gradients (one extra solve yields
//!   every element sensitivity), which makes the differentiable NOFIS loss
//!   affordable on circuit cases.
//! * [`OpampBench`] / [`ChargePumpBench`] — the two yield benches used by
//!   Table 1 (#6 and #8).
//!
//! See the type-level examples for usage.

#![deny(missing_docs)]

mod ac;
mod chargepump;
mod netlist;
mod opamp;

pub use ac::{AcSensitivity, AcSolution};
pub use chargepump::ChargePumpBench;
pub use netlist::{Circuit, CircuitError, Element, ElementId, Node};
pub use opamp::{OpampBench, OpampDesign};
