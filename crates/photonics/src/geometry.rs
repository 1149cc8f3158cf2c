//! Y-branch splitter geometry with parameterized sidewall deformation.

/// Smooth logistic step used for soft core boundaries.
///
/// From `t = 37` on, `e^{-t} < 2⁻⁵³` vanishes against `1` and the formula
/// rounds to exactly `1.0`, so that value is returned without the `exp`.
/// Likewise, up to `t = −37`, `e = e^t` vanishes against `1`, so
/// `e / (1 + e)` is exactly `e` and the divide is skipped.
fn smooth_step(t: f64) -> f64 {
    if t >= 37.0 {
        1.0
    } else if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else if t <= -37.0 {
        t.exp()
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

/// The part of the index profile that depends only on `z`, evaluated
/// once per propagation step by [`YBranch::step_profile`] and applied at
/// every lateral grid point by [`YBranch::profile_n2`] and
/// [`YBranch::profile_n2_dw`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepProfile {
    /// Core half-width `max(w₀ + δw(z), 0.05)`.
    half_w: f64,
    /// `1` when the clamp is inactive (the edges follow `δw`), else `0`.
    dw_active: f64,
    /// Arm center offset `c(z)`, or `None` where the arms coincide.
    arm: Option<f64>,
}

/// A symmetric Y-branch: one input waveguide splitting into two linearly
/// separating arms, with the waveguide *width* perturbed along `z` by a
/// truncated Fourier series — the paper's "random boundary deformation".
///
/// All lengths are in micrometers.
///
/// # Example
///
/// ```
/// use nofis_photonics::YBranch;
///
/// let yb = YBranch::new(26);
/// // Nominal geometry: a guide core exists at the input center...
/// assert!(yb.index_squared(0.0, 0.0, &vec![0.0; 26]) > yb.n_clad() * yb.n_clad());
/// // ...and at the arm centers near the output.
/// let c = yb.arm_separation() ;
/// assert!(yb.index_squared(c, yb.length(), &vec![0.0; 26]) > 1.02 * yb.n_clad() * yb.n_clad());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct YBranch {
    n_core: f64,
    n_clad: f64,
    /// Nominal waveguide core half-width.
    half_width: f64,
    /// z at which the arms start separating.
    split_start: f64,
    /// Total device length.
    length: f64,
    /// Final center offset of each arm.
    arm_sep: f64,
    /// Boundary smoothing width.
    edge_softness: f64,
    /// Deformation amplitude per unit Fourier coefficient.
    deform_sigma: f64,
    /// Number of Fourier deformation modes (the variation dimension).
    n_modes: usize,
}

impl YBranch {
    /// Creates the nominal geometry with `n_modes` deformation parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n_modes == 0`.
    pub fn new(n_modes: usize) -> Self {
        Self::with_deform_sigma(n_modes, 0.38)
    }

    /// Creates the geometry with an explicit deformation amplitude per
    /// unit Fourier coefficient (µm) — the calibration knob aligning the
    /// failure probability with the paper's golden value.
    ///
    /// # Panics
    ///
    /// Panics if `n_modes == 0` or `deform_sigma <= 0`.
    pub fn with_deform_sigma(n_modes: usize, deform_sigma: f64) -> Self {
        assert!(n_modes > 0, "need at least one deformation mode");
        assert!(deform_sigma > 0.0, "deformation amplitude must be positive");
        YBranch {
            n_core: 1.56,
            n_clad: 1.50,
            half_width: 1.0,
            split_start: 8.0,
            length: 40.0,
            arm_sep: 3.0,
            edge_softness: 0.15,
            deform_sigma,
            n_modes,
        }
    }

    /// Core refractive index.
    pub fn n_core(&self) -> f64 {
        self.n_core
    }

    /// Cladding refractive index.
    pub fn n_clad(&self) -> f64 {
        self.n_clad
    }

    /// Device length along `z`.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Final lateral offset of each arm center.
    pub fn arm_separation(&self) -> f64 {
        self.arm_sep
    }

    /// Nominal core half-width.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// Number of deformation modes.
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// `sin(π (j+1) z / L)`: deformation mode `j` (0-based) at `z`
    /// before scaling by the amplitude `σ`.
    fn mode_sin(&self, j: usize, z: f64) -> f64 {
        (std::f64::consts::PI * (j + 1) as f64 * z / self.length).sin()
    }

    /// Fills `row` with the unscaled mode values `sin(π (j+1) z / L)` at
    /// `z` (the per-mode basis is `σ · row[j]`).
    pub(crate) fn mode_sins(&self, z: f64, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.n_modes);
        for (j, s) in row.iter_mut().enumerate() {
            *s = self.mode_sin(j, z);
        }
    }

    /// Evaluates the `z`-only part of the profile under deformation
    /// `params`: the width perturbation `δw(z) = σ · Σ_j x_j sin(π j z / L)`
    /// with its clamp, and the arm centers `±c(z)`. `sins` holds the mode
    /// values at `z` from [`YBranch::mode_sins`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_modes()`.
    pub(crate) fn step_profile(&self, z: f64, params: &[f64], sins: &[f64]) -> StepProfile {
        assert_eq!(params.len(), self.n_modes, "deformation dimension mismatch");
        debug_assert_eq!(sins.len(), self.n_modes);
        let acc = sins
            .iter()
            .zip(params)
            .fold(0.0, |acc, (s, &c)| acc + c * s);
        let raw = self.half_width + self.deform_sigma * acc;
        let arm = if z <= self.split_start {
            None
        } else {
            let t = (z - self.split_start) / (self.length - self.split_start);
            Some(self.arm_sep * t)
        };
        StepProfile {
            half_w: raw.max(0.05),
            dw_active: if raw > 0.05 { 1.0 } else { 0.0 },
            arm,
        }
    }

    /// Soft left and right edge indicators of one guide centered at `c`.
    fn edges(&self, xpos: f64, c: f64, half_w: f64) -> (f64, f64) {
        let tl = (xpos - (c - half_w)) / self.edge_softness;
        let tr = ((c + half_w) - xpos) / self.edge_softness;
        (smooth_step(tl), smooth_step(tr))
    }

    /// One guide's indicator and its derivative with respect to the
    /// half-width (both edges move out as it grows).
    fn guide_dw(&self, xpos: f64, c: f64, half_w: f64) -> (f64, f64) {
        let (sl, sr) = self.edges(xpos, c, half_w);
        let (dl, dr) = (sl * (1.0 - sl), sr * (1.0 - sr));
        (sl * sr, (dl * sr + sl * dr) / self.edge_softness)
    }

    /// `n²` for an in-core indicator `ind`.
    fn n2_of(&self, ind: f64) -> f64 {
        let (nc2, ncl2) = (self.n_core * self.n_core, self.n_clad * self.n_clad);
        ncl2 + (nc2 - ncl2) * ind
    }

    /// Squared index at lateral position `xpos` of the step `p`. Past the
    /// split the two arms are joined by a smooth union, so the junction
    /// region stays bounded by the core index.
    pub(crate) fn profile_n2(&self, p: &StepProfile, xpos: f64) -> f64 {
        let ind = match p.arm {
            None => {
                let (sl, sr) = self.edges(xpos, 0.0, p.half_w);
                sl * sr
            }
            Some(c) => {
                let (l0, r0) = self.edges(xpos, -c, p.half_w);
                let (l1, r1) = self.edges(xpos, c, p.half_w);
                let (i0, i1) = (l0 * r0, l1 * r1);
                i0 + i1 - i0 * i1
            }
        };
        self.n2_of(ind)
    }

    /// [`YBranch::profile_n2`] together with `dn²/dδw`.
    pub(crate) fn profile_n2_dw(&self, p: &StepProfile, xpos: f64) -> (f64, f64) {
        let (ind, dind) = match p.arm {
            None => self.guide_dw(xpos, 0.0, p.half_w),
            Some(c) => {
                let (i0, d0) = self.guide_dw(xpos, -c, p.half_w);
                let (i1, d1) = self.guide_dw(xpos, c, p.half_w);
                (i0 + i1 - i0 * i1, d0 * (1.0 - i1) + d1 * (1.0 - i0))
            }
        };
        let (nc2, ncl2) = (self.n_core * self.n_core, self.n_clad * self.n_clad);
        (self.n2_of(ind), (nc2 - ncl2) * dind * p.dw_active)
    }

    /// The step profile at `z`, evaluating its mode values on the spot.
    fn profile_at(&self, z: f64, params: &[f64]) -> StepProfile {
        let mut sins = vec![0.0; self.n_modes];
        self.mode_sins(z, &mut sins);
        self.step_profile(z, params, &sins)
    }

    /// Squared refractive index at `(x, z)` under deformation `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_modes()`.
    pub fn index_squared(&self, xpos: f64, z: f64, params: &[f64]) -> f64 {
        self.profile_n2(&self.profile_at(z, params), xpos)
    }

    /// Squared index together with its derivative with respect to the
    /// *width perturbation* `δw` (the per-mode gradient is this value times
    /// `σ sin(π j z / L)`, which the BPM adjoint applies).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_modes()`.
    pub fn index_squared_dw(&self, xpos: f64, z: f64, params: &[f64]) -> (f64, f64) {
        self.profile_n2_dw(&self.profile_at(z, params), xpos)
    }

    /// The per-mode deformation basis value `σ sin(π j z / L)` for mode
    /// index `j` (0-based).
    pub fn mode_basis(&self, j: usize, z: f64) -> f64 {
        self.deform_sigma * self.mode_sin(j, z)
    }

    /// Scales an unscaled mode value from [`YBranch::mode_sins`] to the
    /// per-mode basis `σ sin(π j z / L)`.
    pub(crate) fn basis_from_sin(&self, sin: f64) -> f64 {
        self.deform_sigma * sin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_profile_shapes() {
        let yb = YBranch::new(4);
        let zero = vec![0.0; 4];
        let ncl2 = yb.n_clad() * yb.n_clad();
        let nc2 = yb.n_core() * yb.n_core();
        // Deep cladding.
        assert!((yb.index_squared(6.0, 0.0, &zero) - ncl2).abs() < 1e-6);
        // Input core center.
        assert!((yb.index_squared(0.0, 0.0, &zero) - nc2).abs() < 1e-3);
        // At the output, the center is cladding and arms are core.
        assert!(yb.index_squared(0.0, 40.0, &zero) < ncl2 + 0.5 * (nc2 - ncl2));
        assert!(yb.index_squared(3.0, 40.0, &zero) > ncl2 + 0.5 * (nc2 - ncl2));
    }

    #[test]
    fn positive_mode_coefficient_widens_guide() {
        let yb = YBranch::new(2);
        let widened = vec![1.0, 0.0];
        let zero = vec![0.0; 2];
        // At the guide edge near mid-device, widening raises the index.
        let z = 4.0; // sin(pi z / L) > 0
        let edge = yb.half_width();
        assert!(yb.index_squared(edge, z, &widened) > yb.index_squared(edge, z, &zero));
    }

    #[test]
    fn dw_derivative_matches_finite_difference() {
        let yb = YBranch::new(3);
        let params = vec![0.4, -0.2, 0.1];
        for &(x, z) in &[(0.9, 5.0), (1.2, 20.0), (-2.5, 35.0), (3.1, 39.0)] {
            let (_, dw) = yb.index_squared_dw(x, z, &params);
            // Perturb via the first mode and divide by the basis value.
            let basis = yb.mode_basis(0, z);
            if basis.abs() < 1e-9 {
                continue;
            }
            let eps = 1e-6;
            let mut pp = params.clone();
            pp[0] += eps;
            let fp = yb.index_squared(x, z, &pp);
            pp[0] -= 2.0 * eps;
            let fm = yb.index_squared(x, z, &pp);
            let fd = (fp - fm) / (2.0 * eps) / basis;
            assert!(
                (dw - fd).abs() < 1e-5 * fd.abs().max(1.0),
                "at ({x},{z}): analytic {dw} vs fd {fd}"
            );
        }
    }

    /// The logistic formula without the `|t| ≥ 37` shortcuts.
    fn smooth_step_formula(t: f64) -> f64 {
        if t >= 0.0 {
            1.0 / (1.0 + (-t).exp())
        } else {
            let e = t.exp();
            e / (1.0 + e)
        }
    }

    #[test]
    fn smooth_step_shortcut_is_the_formula_bit_for_bit() {
        let tails = (0..=77_000).flat_map(|k| {
            let t = 30.0 + k as f64 * 0.01;
            [t, -t]
        });
        let minus_37 = (-37.0f64).to_bits();
        let specials = [
            37.0,
            37.0 - 32.0 * f64::EPSILON,
            // −37 and its neighbouring doubles, toward and away from zero.
            -37.0,
            f64::from_bits(minus_37 - 1),
            f64::from_bits(minus_37 + 1),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for t in tails.chain(specials) {
            assert_eq!(
                smooth_step(t).to_bits(),
                smooth_step_formula(t).to_bits(),
                "t = {t}"
            );
        }
    }

    /// The BPM's mirror fold needs `n²` and `dn²/dδw` even in `x`, with
    /// the half-width clamp active or not.
    #[test]
    fn index_profile_is_even_in_x() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let yb = YBranch::new(26);
        let mut rng = StdRng::seed_from_u64(12);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-15 * a.abs().max(b.abs());
        let mut clamped = 0;
        for k in 0..60 {
            // Standard-normal coefficients; every third row's first mode
            // pinches the guide past the half-width clamp.
            let mut params: Vec<f64> = (0..26)
                .map(|_| rng.sample(rand_distr::StandardNormal))
                .collect();
            if k % 3 == 2 {
                params[0] = -4.0 - params[0].abs();
            }
            for _ in 0..40 {
                let z = rng.gen_range(0.0..yb.length());
                let x = rng.gen_range(0.0..8.0);
                let mut sins = vec![0.0; 26];
                yb.mode_sins(z, &mut sins);
                if yb.step_profile(z, &params, &sins).dw_active == 0.0 {
                    clamped += 1;
                }
                let (n2, n2m) = (
                    yb.index_squared(x, z, &params),
                    yb.index_squared(-x, z, &params),
                );
                assert!(close(n2, n2m), "n² at ±{x}, z = {z}: {n2} vs {n2m}");
                let ((v, d), (vm, dm)) = (
                    yb.index_squared_dw(x, z, &params),
                    yb.index_squared_dw(-x, z, &params),
                );
                assert!(
                    close(v, vm) && close(d, dm),
                    "dn²/dw at ±{x}, z = {z}: {d} vs {dm}"
                );
            }
        }
        assert!(clamped > 0, "no sample had the half-width clamp active");
    }

    #[test]
    fn union_never_exceeds_core_index() {
        let yb = YBranch::new(1);
        let zero = vec![0.0];
        let nc2 = yb.n_core() * yb.n_core();
        // Junction region where the arms overlap.
        for x in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            for z in [8.0, 9.0, 10.0, 12.0] {
                assert!(yb.index_squared(x, z, &zero) <= nc2 + 1e-12);
            }
        }
    }
}
