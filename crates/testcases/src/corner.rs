//! Parameterized limit-state *families* for corner sweeps.
//!
//! Verification signoff rarely asks one question: the same circuit is
//! checked across a grid of PVT (process / voltage / temperature)
//! corners, each corner a slightly different failure specification over
//! the *same* expensive simulation. [`CornerFamily`] captures exactly
//! that structure:
//!
//! * one shared **raw metric** `m(x)` (the simulator output — e.g. the
//!   op-amp's small-signal gain in dB), evaluated identically at every
//!   corner, and
//! * a cheap per-corner **threshold** `a_i`, so corner `i`'s limit state
//!   is `g_i(x) = m(x) − a_i`.
//!
//! Because every corner shares `m`, a memo keyed on the family's
//! [`CornerFamily::oracle_id`] and the input's bits (see
//! `nofis_sweep::OracleMemo`) can serve corner B the simulation corner A
//! already paid for — bit-for-bit, since `m` is a pure function of `x`.
//! The [`CornerFamily::distance`] metric over corner parameters drives
//! nearest-first scheduling and warm-start donor selection in
//! `nofis-sweep`.
//!
//! [`PvtGrid`] is the concrete family used by the sweep benchmarks: a
//! voltage × temperature grid over the [`Opamp`](crate::Opamp) gain
//! bench, with the corner dependence entering through a derated gain
//! spec (the MNA bench has no electrical PVT inputs, so the standard
//! signoff practice of per-corner spec margins stands in for them; see
//! DESIGN.md §14).

use nofis_circuit::OpampBench;

/// A family of limit states `g_i(x) = raw(x) − threshold(i)` indexed by a
/// finite set of corners, sharing one expensive raw metric.
///
/// Implementations must be `Send + Sync`: a sweep evaluates corners from
/// several worker threads, and the raw metric must be a *pure function*
/// of `x` (same input bits, same output bits) for cross-corner caching
/// to be sound.
pub trait CornerFamily: Send + Sync {
    /// Dimensionality of the variation space `x`.
    fn dim(&self) -> usize;

    /// Short family name for reports and telemetry.
    fn name(&self) -> &str;

    /// Stable identifier of the **raw metric** in the sweep's shared
    /// memo. Two families may share an id if and only if their
    /// [`CornerFamily::raw`] is the same function — thresholds are
    /// per-corner and deliberately excluded.
    fn oracle_id(&self) -> u64;

    /// Number of corners in the family.
    fn corners(&self) -> usize;

    /// The corner's coordinates in corner-parameter space (e.g. normalized
    /// voltage/temperature deviations). Length is family-fixed.
    fn corner_params(&self, corner: usize) -> Vec<f64>;

    /// Human-readable corner label, stable across runs (it names the
    /// corner's checkpoint namespace in a sweep).
    fn corner_label(&self, corner: usize) -> String;

    /// Distance between two corners in corner-parameter space; drives
    /// warm-start donor selection and frontier scheduling. The default is
    /// the Euclidean distance over [`CornerFamily::corner_params`].
    fn distance(&self, a: usize, b: usize) -> f64 {
        let pa = self.corner_params(a);
        let pb = self.corner_params(b);
        pa.iter()
            .zip(pb.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// The shared raw metric `m(x)` — the expensive simulation.
    fn raw(&self, x: &[f64]) -> f64;

    /// `m(x)` with its gradient. The default mirrors
    /// `nofis_prob::LimitState`: central finite differences with step
    /// `1e-5`; override with analytic or adjoint sensitivities.
    fn raw_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let eps = 1e-5;
        let v = self.raw(x);
        let mut xp = x.to_vec();
        let mut grad = vec![0.0; x.len()];
        for i in 0..x.len() {
            let orig = xp[i];
            xp[i] = orig + eps;
            let fp = self.raw(&xp);
            xp[i] = orig - eps;
            let fm = self.raw(&xp);
            xp[i] = orig;
            grad[i] = (fp - fm) / (2.0 * eps);
        }
        (v, grad)
    }

    /// Corner `i`'s failure threshold: corner `i` fails at `x` when
    /// `raw(x) − threshold(i) ≤ 0`.
    fn threshold(&self, corner: usize) -> f64;
}

/// FNV-1a over a byte string — the workspace's standard content hash,
/// used here to derive stable [`CornerFamily::oracle_id`]s from the raw
/// metric's name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A voltage × temperature corner grid over the op-amp gain bench
/// (test case #6, D = 5).
///
/// Corners live on a regular `nv × nt` grid of normalized deviations
/// `(dv, dt) ∈ [−1, 1]²` (supply-voltage and temperature axes). The raw
/// metric is the small-signal gain in dB; corner `(dv, dt)` derates the
/// gain spec by `slope_v·dv + slope_t·dt` dB, so low-margin corners
/// (high temperature, low supply) fail more often. Corner index order is
/// row-major: `i = it * nv + iv`.
///
/// # Example
///
/// ```
/// use nofis_testcases::{CornerFamily, PvtGrid};
///
/// let grid = PvtGrid::opamp(3, 3);
/// assert_eq!(grid.corners(), 9);
/// assert_eq!(grid.dim(), 5);
/// // The nominal center corner uses the base spec.
/// let center = 4;
/// assert_eq!(grid.corner_params(center), vec![0.0, 0.0]);
/// assert_eq!(grid.threshold(center), grid.base_spec_db());
/// ```
#[derive(Debug, Clone)]
pub struct PvtGrid {
    bench: OpampBench,
    nv: usize,
    nt: usize,
    base_spec_db: f64,
    slope_v_db: f64,
    slope_t_db: f64,
}

impl PvtGrid {
    /// Spec derating per unit of normalized supply-voltage deviation, in
    /// dB (worst case at `dv = +1`).
    pub const DEFAULT_SLOPE_V_DB: f64 = 0.15;
    /// Spec derating per unit of normalized temperature deviation, in dB
    /// (worst case at `dt = +1`).
    pub const DEFAULT_SLOPE_T_DB: f64 = 0.25;

    /// An `nv × nt` grid over the op-amp bench at the calibrated gain
    /// spec ([`crate::Opamp::CALIBRATED_SPEC_DB`]).
    ///
    /// # Panics
    ///
    /// Panics if either axis has zero points.
    #[must_use]
    pub fn opamp(nv: usize, nt: usize) -> Self {
        assert!(nv > 0 && nt > 0, "a corner grid needs at least one point");
        PvtGrid {
            bench: OpampBench::new(),
            nv,
            nt,
            base_spec_db: crate::Opamp::CALIBRATED_SPEC_DB,
            slope_v_db: Self::DEFAULT_SLOPE_V_DB,
            slope_t_db: Self::DEFAULT_SLOPE_T_DB,
        }
    }

    /// Replaces the nominal (center-corner) gain spec in dB. Raising the
    /// spec makes every corner's failure event less rare — useful for
    /// fast smoke grids.
    #[must_use]
    pub fn with_base_spec(mut self, spec_db: f64) -> Self {
        self.base_spec_db = spec_db;
        self
    }

    /// The nominal gain spec in dB (threshold at the grid center).
    #[must_use]
    pub fn base_spec_db(&self) -> f64 {
        self.base_spec_db
    }

    /// Grid shape `(nv, nt)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.nv, self.nt)
    }

    /// Normalized coordinate of grid index `i` on an axis with `n`
    /// points: evenly spaced over `[−1, 1]`, or `0` for a single point.
    fn axis(i: usize, n: usize) -> f64 {
        if n <= 1 {
            0.0
        } else {
            -1.0 + 2.0 * i as f64 / (n - 1) as f64
        }
    }

    fn split(&self, corner: usize) -> (usize, usize) {
        assert!(corner < self.corners(), "corner {corner} out of range");
        (corner % self.nv, corner / self.nv)
    }
}

impl CornerFamily for PvtGrid {
    fn dim(&self) -> usize {
        OpampBench::DIM
    }

    fn name(&self) -> &str {
        "opamp-pvt"
    }

    fn oracle_id(&self) -> u64 {
        // Identifies the raw metric only: every PvtGrid over the op-amp
        // gain shares simulations regardless of spec or grid shape.
        fnv1a(b"opamp-gain-db")
    }

    fn corners(&self) -> usize {
        self.nv * self.nt
    }

    fn corner_params(&self, corner: usize) -> Vec<f64> {
        let (iv, it) = self.split(corner);
        vec![Self::axis(iv, self.nv), Self::axis(it, self.nt)]
    }

    fn corner_label(&self, corner: usize) -> String {
        let (iv, it) = self.split(corner);
        format!("v{iv}t{it}")
    }

    /// The default Euclidean distance over [`PvtGrid::corner_params`],
    /// bit for bit, without allocating the two parameter vectors.
    fn distance(&self, a: usize, b: usize) -> f64 {
        let ((va, ta), (vb, tb)) = (self.split(a), self.split(b));
        let dv = Self::axis(va, self.nv) - Self::axis(vb, self.nv);
        let dt = Self::axis(ta, self.nt) - Self::axis(tb, self.nt);
        (dv * dv + dt * dt).sqrt()
    }

    fn raw(&self, x: &[f64]) -> f64 {
        self.bench
            .gain_db(x)
            .expect("opamp small-signal analysis is well-posed")
    }

    fn raw_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.bench
            .gain_db_grad(x)
            .expect("opamp small-signal analysis is well-posed")
    }

    fn threshold(&self, corner: usize) -> f64 {
        let p = self.corner_params(corner);
        self.base_spec_db + self.slope_v_db * p[0] + self.slope_t_db * p[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opamp;
    use nofis_prob::LimitState;

    #[test]
    fn grid_geometry_and_labels() {
        let grid = PvtGrid::opamp(3, 3);
        assert_eq!(grid.corners(), 9);
        assert_eq!(grid.shape(), (3, 3));
        assert_eq!(grid.corner_params(0), vec![-1.0, -1.0]);
        assert_eq!(grid.corner_params(4), vec![0.0, 0.0]);
        assert_eq!(grid.corner_params(8), vec![1.0, 1.0]);
        assert_eq!(grid.corner_label(0), "v0t0");
        assert_eq!(grid.corner_label(5), "v2t1");
        // Degenerate axes collapse to the nominal coordinate.
        let line = PvtGrid::opamp(1, 4);
        assert_eq!(line.corner_params(2), vec![0.0, PvtGrid::axis(2, 4)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_corner_panics() {
        let _ = PvtGrid::opamp(2, 2).corner_params(4);
    }

    #[test]
    fn thresholds_derate_toward_worst_case() {
        let grid = PvtGrid::opamp(3, 3).with_base_spec(74.0);
        // Center is the nominal spec; the (+1, +1) corner is the tightest.
        assert_eq!(grid.threshold(4), 74.0);
        let worst = grid.threshold(8);
        let best = grid.threshold(0);
        assert!(worst > 74.0 && best < 74.0);
        assert!((worst - 74.0 - (0.15 + 0.25)).abs() < 1e-12);
        // Derating is monotone along each axis.
        assert!(grid.threshold(5) > grid.threshold(4));
        assert!(grid.threshold(7) > grid.threshold(4));
    }

    #[test]
    fn distance_is_a_metric_on_the_grid() {
        let grid = PvtGrid::opamp(3, 3);
        assert_eq!(grid.distance(4, 4), 0.0);
        assert_eq!(grid.distance(0, 8), grid.distance(8, 0));
        // Edge neighbor vs diagonal neighbor from the center.
        assert!(grid.distance(4, 5) < grid.distance(4, 8));
        assert!((grid.distance(4, 5) - 1.0).abs() < 1e-12);
        assert!((grid.distance(4, 8) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn distance_equals_the_euclidean_default_bitwise() {
        for nv in 1..=7 {
            for nt in 1..=7 {
                let grid = PvtGrid::opamp(nv, nt);
                for a in 0..grid.corners() {
                    let pa = grid.corner_params(a);
                    for b in 0..grid.corners() {
                        let pb = grid.corner_params(b);
                        let euclid = pa
                            .iter()
                            .zip(&pb)
                            .map(|(x, y)| (x - y) * (x - y))
                            .sum::<f64>()
                            .sqrt();
                        assert_eq!(
                            grid.distance(a, b).to_bits(),
                            euclid.to_bits(),
                            "{nv}x{nt} grid, corners {a} and {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn raw_metric_matches_the_opamp_case() {
        // Opamp's g(x) = gain_db(x) − spec, so raw must equal g + spec
        // bitwise (same bench, same arithmetic).
        let grid = PvtGrid::opamp(2, 2);
        let op = Opamp::default();
        let x = [0.4, -0.8, 0.15, 0.9, -0.25];
        assert_eq!(
            grid.raw(&x).to_bits(),
            (op.value(&x) + Opamp::CALIBRATED_SPEC_DB).to_bits()
        );
        let (v, g) = grid.raw_grad(&x);
        let (ov, og) = op.value_grad(&x);
        assert!((v - (ov + Opamp::CALIBRATED_SPEC_DB)).abs() < 1e-12);
        assert_eq!(g, og, "gradient is spec-independent");
    }

    #[test]
    fn oracle_id_is_stable_and_spec_independent() {
        let a = PvtGrid::opamp(3, 3);
        let b = PvtGrid::opamp(2, 5).with_base_spec(75.0);
        assert_eq!(a.oracle_id(), b.oracle_id());
        assert_eq!(a.oracle_id(), fnv1a(b"opamp-gain-db"));
    }
}
