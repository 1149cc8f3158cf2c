//! Scalar Crank–Nicolson beam-propagation method (BPM) with adjoint
//! sensitivities.
//!
//! The paraxial scalar field `u(x, z)` obeys
//! `i ∂u/∂z = -(1/(2 k₀ n₀)) ∂²u/∂x² - (k₀/(2 n₀)) (n²(x,z) - n₀²) u`,
//! discretized with Crank–Nicolson in `z` (one complex tridiagonal solve
//! per step) and second-order central differences in `x`. An imaginary
//! absorber near the lateral boundaries swallows radiated power.
//!
//! The adjoint pass propagates a terminal seed backwards through the
//! conjugate-transposed step operators and accumulates `dT/dx_j` for all
//! deformation modes in one sweep — so a transmission *and its full
//! 26-dimensional gradient* cost two BPM runs, which is what makes the
//! differentiable NOFIS loss affordable on the Y-branch test case.

use crate::geometry::StepProfile;
use crate::YBranch;
use nofis_linalg::{tridiag::solve_complex_tridiagonal, Complex64, LinalgError};

/// Discretization and launch settings for the BPM.
#[derive(Debug, Clone, PartialEq)]
pub struct BpmConfig {
    /// Lateral half-extent of the domain (µm).
    pub x_extent: f64,
    /// Number of lateral grid points.
    pub nx: usize,
    /// Number of propagation steps.
    pub nz: usize,
    /// Vacuum wavelength (µm).
    pub wavelength: f64,
    /// Width of the absorbing boundary region (µm).
    pub absorber_width: f64,
    /// Peak absorber strength (added to `n²` as `-iγ`).
    pub absorber_strength: f64,
    /// `1/e` half-width of the launched Gaussian mode (µm).
    pub launch_width: f64,
}

impl Default for BpmConfig {
    fn default() -> Self {
        BpmConfig {
            x_extent: 8.0,
            nx: 121,
            nz: 160,
            wavelength: 1.55,
            absorber_width: 2.0,
            absorber_strength: 0.06,
            launch_width: 0.9,
        }
    }
}

/// Result of a forward BPM run.
#[derive(Debug, Clone, PartialEq)]
pub struct BpmRun {
    /// Power transmission into the output window, normalized to the
    /// launched power.
    pub transmission: f64,
    /// Final field magnitude per lateral grid point (diagnostics).
    pub output_magnitude: Vec<f64>,
}

/// A BPM solver bound to a [`YBranch`] geometry.
///
/// # Example
///
/// ```
/// use nofis_photonics::{BpmConfig, BpmSolver, YBranch};
///
/// # fn main() -> Result<(), nofis_linalg::LinalgError> {
/// let solver = BpmSolver::new(YBranch::new(4), BpmConfig::default());
/// let run = solver.run(&[0.0; 4])?;
/// assert!(run.transmission > 0.5 && run.transmission <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BpmSolver {
    geometry: YBranch,
    config: BpmConfig,
    xs: Vec<f64>,
    dx: f64,
    dz: f64,
    /// Static absorber profile γ(x) ≥ 0.
    absorber: Vec<f64>,
    /// Output power window (1 inside the nominal arm cores at z = L).
    window: Vec<f64>,
    /// Launched field (normalized to unit power).
    launch: Vec<Complex64>,
    /// `k₀ / (2 n₀)` prefactor of the index term.
    index_coeff: f64,
    /// `1 / (2 k₀ n₀)` prefactor of the Laplacian term.
    lap_coeff: f64,
}

impl BpmSolver {
    /// Builds the solver, precomputing grid, absorber, launch field and
    /// output window.
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate (`nx < 8` or `nz == 0`).
    pub fn new(geometry: YBranch, config: BpmConfig) -> Self {
        assert!(config.nx >= 8, "nx must be at least 8");
        assert!(config.nz >= 1, "nz must be at least 1");
        let nx = config.nx;
        let dx = 2.0 * config.x_extent / (nx - 1) as f64;
        let dz = geometry.length() / config.nz as f64;
        let xs: Vec<f64> = (0..nx).map(|i| -config.x_extent + i as f64 * dx).collect();

        let absorber: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let border = config.x_extent - config.absorber_width;
                let d = (x.abs() - border).max(0.0) / config.absorber_width;
                config.absorber_strength * d * d
            })
            .collect();

        // Output window: nominal arm cores (±arm_sep ± half_width) at z = L.
        let window: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let c = geometry.arm_separation();
                let hw = 1.5 * geometry.half_width();
                if (x - c).abs() <= hw || (x + c).abs() <= hw {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();

        // Gaussian launch normalized to unit power.
        let mut launch: Vec<Complex64> = xs
            .iter()
            .map(|&x| Complex64::from_real((-(x / config.launch_width).powi(2)).exp()))
            .collect();
        let p0: f64 = launch.iter().map(|u| u.abs_sq()).sum();
        let norm = 1.0 / p0.sqrt();
        for u in &mut launch {
            *u = *u * norm;
        }

        let k0 = 2.0 * std::f64::consts::PI / config.wavelength;
        let n0 = geometry.n_clad();
        BpmSolver {
            index_coeff: k0 / (2.0 * n0),
            lap_coeff: 1.0 / (2.0 * k0 * n0),
            geometry,
            config,
            xs,
            dx,
            dz,
            absorber,
            window,
            launch,
        }
    }

    /// Borrows the geometry.
    pub fn geometry(&self) -> &YBranch {
        &self.geometry
    }

    /// Borrows the lateral grid coordinates.
    pub fn grid(&self) -> &[f64] {
        &self.xs
    }

    /// Mid-point `z` of propagation step `step`.
    fn z_mid(&self, step: usize) -> f64 {
        (step as f64 + 0.5) * self.dz
    }

    /// The constant off-diagonal `i(dz/2)·off` of the CN matrix
    /// `A = I + i(dz/2)H`, shared by its lower and upper bands.
    fn a_band(&self) -> Vec<Complex64> {
        let off = -self.lap_coeff / (self.dx * self.dx);
        vec![Complex64::new(0.0, 0.5 * self.dz) * off; self.config.nx]
    }

    /// Assembles the CN diagonals of one step, `A u_{n+1} = B u_n` with
    /// `A = I + i(dz/2)H`, `B = I - i(dz/2)H`, from the step's `z`-only
    /// index profile.
    ///
    /// Returns `(a_diag, h_diag)`: A's off-diagonals are [`Self::a_band`]
    /// and the B-product is applied directly from `h_diag`. When `dn2_dw`
    /// is given it receives `dn²/dδw` at every grid point.
    fn operators(
        &self,
        profile: &StepProfile,
        dn2_dw: Option<&mut [f64]>,
    ) -> (Vec<Complex64>, Vec<Complex64>) {
        let off = -self.lap_coeff / (self.dx * self.dx);
        let n0sq = self.geometry.n_clad() * self.geometry.n_clad();
        let h_at = |j: usize, n2: f64| {
            Complex64::new(
                -2.0 * off - self.index_coeff * (n2 - n0sq),
                -self.index_coeff * self.absorber[j],
            )
        };

        let h_diag: Vec<Complex64> = match dn2_dw {
            Some(dw_out) => (self.xs.iter().zip(dw_out).enumerate())
                .map(|(j, (&x, dw))| {
                    let (n2, d) = self.geometry.profile_n2_dw(profile, x);
                    *dw = d;
                    h_at(j, n2)
                })
                .collect(),
            None => (self.xs.iter().enumerate())
                .map(|(j, &x)| h_at(j, self.geometry.profile_n2(profile, x)))
                .collect(),
        };

        let half = Complex64::new(0.0, 0.5 * self.dz);
        let a_diag = h_diag.iter().map(|&h| Complex64::ONE + half * h).collect();
        (a_diag, h_diag)
    }

    fn apply_b(&self, h_diag: &[Complex64], u: &[Complex64]) -> Vec<Complex64> {
        let nx = u.len();
        let off = -self.lap_coeff / (self.dx * self.dx);
        let half = Complex64::new(0.0, -0.5 * self.dz);
        let b_off = half * off;
        let mut out = vec![Complex64::ZERO; nx];
        for j in 0..nx {
            let mut acc = (Complex64::ONE + half * h_diag[j]) * u[j];
            if j > 0 {
                acc += b_off * u[j - 1];
            }
            if j + 1 < nx {
                acc += b_off * u[j + 1];
            }
            out[j] = acc;
        }
        out
    }

    /// Runs the forward BPM and returns the transmission.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the tridiagonal solver (should not
    /// occur for a well-posed CN system).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != geometry.n_modes()`.
    pub fn run(&self, params: &[f64]) -> Result<BpmRun, LinalgError> {
        let band = self.a_band();
        let mut row = vec![0.0; self.geometry.n_modes()];
        let mut u = self.launch.clone();
        for step in 0..self.config.nz {
            let profile = self
                .geometry
                .step_profile(self.z_mid(step), params, &mut row);
            let (ad, h) = self.operators(&profile, None);
            let rhs = self.apply_b(&h, &u);
            u = solve_complex_tridiagonal(&band, &ad, &band, &rhs)?;
        }
        let transmission: f64 = u
            .iter()
            .zip(&self.window)
            .map(|(v, &w)| w * v.abs_sq())
            .sum();
        Ok(BpmRun {
            transmission,
            output_magnitude: u.iter().map(|v| v.abs()).collect(),
        })
    }

    /// Runs the forward BPM *and* the adjoint pass, returning the
    /// transmission together with its gradient with respect to every
    /// deformation mode.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the tridiagonal solver.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != geometry.n_modes()`.
    pub fn run_with_gradient(&self, params: &[f64]) -> Result<(f64, Vec<f64>), LinalgError> {
        let (nx, nz) = (self.config.nx, self.config.nz);
        let n_modes = self.geometry.n_modes();

        // Forward pass, storing the field history, per-step dn²/dw and
        // per-step mode rows (nz × nx and nz × n_modes, row-major).
        let band = self.a_band();
        let mut fields: Vec<Vec<Complex64>> = Vec::with_capacity(nz + 1);
        let mut dn2_dw = vec![0.0; nz * nx];
        let mut rows = vec![0.0; nz * n_modes];
        let mut h_diags: Vec<Vec<Complex64>> = Vec::with_capacity(nz);
        fields.push(self.launch.clone());
        for (step, (dw, row)) in (dn2_dw.chunks_exact_mut(nx))
            .zip(rows.chunks_exact_mut(n_modes))
            .enumerate()
        {
            let profile = self.geometry.step_profile(self.z_mid(step), params, row);
            let (ad, h) = self.operators(&profile, Some(dw));
            let rhs = self.apply_b(&h, fields.last().expect("non-empty"));
            let next = solve_complex_tridiagonal(&band, &ad, &band, &rhs)?;
            fields.push(next);
            h_diags.push(h);
        }
        let u_out = fields.last().expect("non-empty");
        let transmission: f64 = u_out
            .iter()
            .zip(&self.window)
            .map(|(v, &w)| w * v.abs_sq())
            .sum();

        // Adjoint pass: λ_N = W u_N; λ_k = B_kᴴ A_k⁻ᴴ λ_{k+1}, accumulating
        // 2 Re( μ_kᴴ (δB u_k − δA u_{k+1}) ) per parameter, where both
        // δA and δB are ∓ i(dz/2) δH with δH diagonal.
        let mut grad = vec![0.0; n_modes];
        let mut lambda: Vec<Complex64> = u_out
            .iter()
            .zip(&self.window)
            .map(|(v, &w)| *v * w)
            .collect();

        let off = -self.lap_coeff / (self.dx * self.dx);
        let half = Complex64::new(0.0, 0.5 * self.dz);
        // Solve A^H μ = λ: A^H is tridiagonal with conjugated entries.
        let band_conj: Vec<Complex64> = band.iter().map(|b| b.conj()).collect();

        for step in (0..nz).rev() {
            let ad: Vec<Complex64> = h_diags[step]
                .iter()
                .map(|&h| (Complex64::ONE + half * h).conj())
                .collect();
            let mu = solve_complex_tridiagonal(&band_conj, &ad, &band_conj, &lambda)?;

            // Parameter accumulation: δB u_k − δA u_{k+1}
            //   = -i(dz/2) δH (u_k + u_{k+1}),  δH_j = -index_coeff · dn²_j.
            // Inner product over x is common to all modes.
            let dw = &dn2_dw[step * nx..(step + 1) * nx];
            let mut s = Complex64::ZERO;
            for j in 0..nx {
                let du = fields[step][j] + fields[step + 1][j];
                s += mu[j].conj() * du * dw[j];
            }
            let common = Complex64::new(0.0, -0.5 * self.dz) * (-self.index_coeff);
            let contrib = common * s;
            let row = &rows[step * n_modes..(step + 1) * n_modes];
            for (g, &sin) in grad.iter_mut().zip(row) {
                *g += 2.0 * (contrib.re) * self.geometry.basis_from_sin(sin);
            }

            // λ_k = B^H μ.
            let b_half = Complex64::new(0.0, -0.5 * self.dz);
            let b_off_conj = (b_half * off).conj();
            let mut new_lambda = vec![Complex64::ZERO; nx];
            for j in 0..nx {
                let mut acc = (Complex64::ONE + b_half * h_diags[step][j]).conj() * mu[j];
                if j > 0 {
                    acc += b_off_conj * mu[j - 1];
                }
                if j + 1 < nx {
                    acc += b_off_conj * mu[j + 1];
                }
                new_lambda[j] = acc;
            }
            lambda = new_lambda;
        }

        Ok((transmission, grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_solver(n_modes: usize) -> BpmSolver {
        BpmSolver::new(
            YBranch::new(n_modes),
            BpmConfig {
                nx: 81,
                nz: 80,
                ..Default::default()
            },
        )
    }

    #[test]
    fn nominal_transmission_is_high() {
        let solver = small_solver(2);
        let run = solver.run(&[0.0, 0.0]).unwrap();
        assert!(
            run.transmission > 0.55 && run.transmission <= 1.0,
            "T = {}",
            run.transmission
        );
    }

    #[test]
    fn output_field_is_two_lobed() {
        let solver = small_solver(2);
        let run = solver.run(&[0.0, 0.0]).unwrap();
        let xs = solver.grid();
        // Magnitude at the arm centers should exceed the junction center.
        let at = |target: f64| -> f64 {
            let idx = xs
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    (a.1 - target)
                        .abs()
                        .partial_cmp(&(b.1 - target).abs())
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            run.output_magnitude[idx]
        };
        let c = solver.geometry().arm_separation();
        assert!(at(c) > at(0.0), "lobe {} vs center {}", at(c), at(0.0));
        assert!(at(-c) > at(0.0));
    }

    #[test]
    fn strong_deformation_reduces_transmission() {
        let solver = small_solver(4);
        let nominal = solver.run(&[0.0; 4]).unwrap().transmission;
        let deformed = solver.run(&[-6.0, 5.0, -6.0, 5.0]).unwrap().transmission;
        assert!(
            deformed < nominal,
            "deformed {deformed} vs nominal {nominal}"
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let solver = BpmSolver::new(
            YBranch::new(3),
            BpmConfig {
                nx: 61,
                nz: 40,
                ..Default::default()
            },
        );
        let params = [0.5, -0.8, 0.3];
        let (t, grad) = solver.run_with_gradient(&params).unwrap();
        assert!((t - solver.run(&params).unwrap().transmission).abs() < 1e-12);
        let eps = 1e-5;
        for i in 0..3 {
            let mut p = params;
            p[i] += eps;
            let fp = solver.run(&p).unwrap().transmission;
            p[i] -= 2.0 * eps;
            let fm = solver.run(&p).unwrap().transmission;
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-5 + 1e-4 * fd.abs(),
                "mode {i}: adjoint {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn absorber_keeps_power_bounded() {
        let solver = small_solver(1);
        let run = solver.run(&[0.0]).unwrap();
        let total: f64 = run.output_magnitude.iter().map(|m| m * m).sum();
        assert!(total <= 1.0 + 1e-9, "power grew to {total}");
    }
}
