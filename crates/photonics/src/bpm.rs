//! Scalar Crank–Nicolson beam-propagation method (BPM) with adjoint
//! sensitivities.
//!
//! The paraxial scalar field `u(x, z)` obeys
//! `i ∂u/∂z = -(1/(2 k₀ n₀)) ∂²u/∂x² - (k₀/(2 n₀)) (n²(x,z) - n₀²) u`,
//! discretized with Crank–Nicolson in `z` (one complex tridiagonal solve
//! per step) and second-order central differences in `x`. An imaginary
//! absorber near the lateral boundaries swallows radiated power.
//!
//! A run first assembles every step's operators and factors every step's
//! tridiagonal matrix once ([`ThomasFactors`]); the field sweep then only
//! substitutes. The adjoint pass propagates a terminal seed backwards
//! through the conjugate-transposed step operators, solving them from the
//! forward factorization (so it does no divides), and accumulates
//! `dT/dx_j` for all deformation modes in one sweep — so a transmission
//! *and its full 26-dimensional gradient* cost one factorization and two
//! substitution sweeps, which is what makes the differentiable NOFIS loss
//! affordable on the Y-branch test case.

use crate::YBranch;
use nofis_linalg::{tridiag::ThomasFactors, Complex64, LinalgError};
use std::sync::OnceLock;

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
#[derive(Debug, Clone)]
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
    /// `sin(π (j+1) z_k / L)` at every step midpoint `z_k`, `nz × n_modes`
    /// row-major. Independent of the deformation, so it is built once, on
    /// the first run rather than in [`BpmSolver::new`], which stays cheap.
    sin_table: OnceLock<Vec<f64>>,
}

/// Every other field is computed from the geometry and the configuration.
impl PartialEq for BpmSolver {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.config == other.config
    }
}

/// One run's Crank–Nicolson operators `A_k u_{k+1} = B_k u_k`, with
/// `A_k = I + i(dz/2)H_k` and `B_k = I − i(dz/2)H_k`, for every step `k`.
struct Steps {
    /// Every step's `A_k`, factored.
    factors: ThomasFactors,
    /// Every step's diagonal of `B_k`, `nz × nx` row-major.
    b_diag: Vec<Complex64>,
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
            sin_table: OnceLock::new(),
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

    /// The mode values of every step, built on first use.
    fn sin_table(&self) -> &[f64] {
        self.sin_table.get_or_init(|| {
            let m = self.geometry.n_modes();
            let mut table = vec![0.0; self.config.nz * m];
            for (step, row) in table.chunks_exact_mut(m).enumerate() {
                self.geometry.mode_sins(self.z_mid(step), row);
            }
            table
        })
    }

    /// `-lap_coeff / dx²`, the Laplacian's off-diagonal in `H`.
    fn h_off(&self) -> f64 {
        -self.lap_coeff / (self.dx * self.dx)
    }

    /// The constant off-diagonal of `B_k`, `−i(dz/2)·off`.
    fn b_off(&self) -> Complex64 {
        Complex64::new(0.0, -0.5 * self.dz) * self.h_off()
    }

    /// Assembles every step's diagonals from its `z`-only index profile,
    /// then factors every `A_k`, whose off-diagonal `i(dz/2)·off` is
    /// shared by its lower and upper bands. When `dn2_dw` is given
    /// (`nz × nx`) it receives `dn²/dδw` at every step and grid point.
    fn steps(&self, params: &[f64], mut dn2_dw: Option<&mut [f64]>) -> Result<Steps, LinalgError> {
        let (nx, nz) = (self.config.nx, self.config.nz);
        let off = self.h_off();
        let n0sq = self.geometry.n_clad() * self.geometry.n_clad();
        let a_half = Complex64::new(0.0, 0.5 * self.dz);
        let b_half = Complex64::new(0.0, -0.5 * self.dz);
        let mut a_diag = vec![Complex64::ZERO; nz * nx];
        let mut b_diag = vec![Complex64::ZERO; nz * nx];
        let rows = (a_diag.chunks_exact_mut(nx))
            .zip(b_diag.chunks_exact_mut(nx))
            .zip(self.sin_table().chunks_exact(self.geometry.n_modes()));
        for (step, ((a, b), sins)) in rows.enumerate() {
            let profile = self.geometry.step_profile(self.z_mid(step), params, sins);
            let mut dw = dn2_dw.as_deref_mut().map(|d| &mut d[step * nx..][..nx]);
            for j in 0..nx {
                let n2 = match dw.as_deref_mut() {
                    Some(dw) => {
                        let (n2, d) = self.geometry.profile_n2_dw(&profile, self.xs[j]);
                        dw[j] = d;
                        n2
                    }
                    None => self.geometry.profile_n2(&profile, self.xs[j]),
                };
                let h = Complex64::new(
                    -2.0 * off - self.index_coeff * (n2 - n0sq),
                    -self.index_coeff * self.absorber[j],
                );
                a[j] = Complex64::ONE + a_half * h;
                b[j] = Complex64::ONE + b_half * h;
            }
        }
        let band = vec![a_half * off; nx];
        let factors = ThomasFactors::factor(&band, &a_diag, &band)?;
        Ok(Steps { factors, b_diag })
    }

    /// Power of `u` inside the output window.
    fn window_power(&self, u: &[Complex64]) -> f64 {
        u.iter()
            .zip(&self.window)
            .map(|(v, &w)| w * v.abs_sq())
            .sum()
    }

    /// Runs the forward BPM and returns the transmission.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the tridiagonal factorization
    /// (should not occur for a well-posed CN system).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != geometry.n_modes()`.
    pub fn run(&self, params: &[f64]) -> Result<BpmRun, LinalgError> {
        let nx = self.config.nx;
        let steps = self.steps(params, None)?;
        let b_off = self.b_off();
        let mut u = self.launch.clone();
        let mut next = vec![Complex64::ZERO; nx];
        for (step, b) in steps.b_diag.chunks_exact(nx).enumerate() {
            apply_tridiag(b, b_off, &u, &mut next, |z| z);
            steps.factors.solve(step, &mut next);
            std::mem::swap(&mut u, &mut next);
        }
        Ok(BpmRun {
            transmission: self.window_power(&u),
            output_magnitude: u.iter().map(|v| v.abs()).collect(),
        })
    }

    /// Runs the forward BPM *and* the adjoint pass, returning the
    /// transmission together with its gradient with respect to every
    /// deformation mode.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the tridiagonal factorization.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != geometry.n_modes()`.
    pub fn run_with_gradient(&self, params: &[f64]) -> Result<(f64, Vec<f64>), LinalgError> {
        let (nx, nz) = (self.config.nx, self.config.nz);
        let n_modes = self.geometry.n_modes();

        // Forward pass, storing the field history ((nz + 1) × nx) and the
        // per-step dn²/dw (nz × nx).
        let mut dn2_dw = vec![0.0; nz * nx];
        let steps = self.steps(params, Some(&mut dn2_dw))?;
        let b_off = self.b_off();
        let mut fields = vec![Complex64::ZERO; (nz + 1) * nx];
        fields[..nx].copy_from_slice(&self.launch);
        for (step, b) in steps.b_diag.chunks_exact(nx).enumerate() {
            let (done, rest) = fields.split_at_mut((step + 1) * nx);
            let next = &mut rest[..nx];
            apply_tridiag(b, b_off, &done[step * nx..], next, |z| z);
            steps.factors.solve(step, next);
        }
        let u_out = &fields[nz * nx..];
        let transmission = self.window_power(u_out);

        // Adjoint pass: λ_N = W u_N; λ_k = B_kᴴ A_k⁻ᴴ λ_{k+1}, accumulating
        // 2 Re( μ_kᴴ (δB u_k − δA u_{k+1}) ) per parameter, where both
        // δA and δB are ∓ i(dz/2) δH with δH diagonal. A_k is
        // complex-symmetric, so A_kᴴ is its elementwise conjugate and is
        // solved from A_k's factor.
        let mut grad = vec![0.0; n_modes];
        let mut lambda: Vec<Complex64> = u_out
            .iter()
            .zip(&self.window)
            .map(|(v, &w)| *v * w)
            .collect();
        let mut next = vec![Complex64::ZERO; nx];
        // δB u_k − δA u_{k+1} = -i(dz/2) δH (u_k + u_{k+1}),
        // δH_j = -index_coeff · dn²_j.
        let common = Complex64::new(0.0, -0.5 * self.dz) * (-self.index_coeff);
        let sins = self.sin_table();

        for step in (0..nz).rev() {
            // μ_k = A_k⁻ᴴ λ_{k+1}, in place.
            steps.factors.solve_conj(step, &mut lambda);
            let mu = &lambda;

            // Parameter accumulation; the inner product over x is common
            // to all modes.
            let dw = &dn2_dw[step * nx..(step + 1) * nx];
            let (u_k, u_next) = (&fields[step * nx..], &fields[(step + 1) * nx..]);
            let mut s = Complex64::ZERO;
            for j in 0..nx {
                let du = u_k[j] + u_next[j];
                s += mu[j].conj() * du * dw[j];
            }
            let contrib = common * s;
            let row = &sins[step * n_modes..(step + 1) * n_modes];
            for (g, &sin) in grad.iter_mut().zip(row) {
                *g += 2.0 * (contrib.re) * self.geometry.basis_from_sin(sin);
            }

            // λ_k = B_kᴴ μ_k.
            let b = &steps.b_diag[step * nx..(step + 1) * nx];
            apply_tridiag(b, b_off, mu, &mut next, Complex64::conj);
            std::mem::swap(&mut lambda, &mut next);
        }

        Ok((transmission, grad))
    }
}

/// `out = M u` for the tridiagonal `M` with diagonal `diag` and constant
/// off-diagonal `off`, every entry read through `f` (identity, or
/// conjugate for the symmetric `Mᴴ`).
fn apply_tridiag(
    diag: &[Complex64],
    off: Complex64,
    u: &[Complex64],
    out: &mut [Complex64],
    f: impl Fn(Complex64) -> Complex64,
) {
    let nx = out.len();
    let off = f(off);
    for j in 0..nx {
        let mut acc = f(diag[j]) * u[j];
        if j > 0 {
            acc += off * u[j - 1];
        }
        if j + 1 < nx {
            acc += off * u[j + 1];
        }
        out[j] = acc;
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
