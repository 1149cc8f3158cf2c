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
//!
//! # The mirror fold
//!
//! The device, the absorber, the launched Gaussian, the output window and
//! the width deformation are all even in `x`, so the field is even too,
//! and the solver propagates only its `x ≥ 0` half: `x_j = j·dx` for
//! `j = 0..=nx/2` (`nx` is odd, so `x = 0` is a grid point). Row 0 of
//! every folded operator couples to its mirror neighbour `u₋₁ = u₁`, so
//! its super-diagonal is `2·off`; every other row is the full operator's.
//! Sums over the full field — the window power, the launch normalization
//! and the adjoint's inner products — weigh `x = 0` once and every other
//! point twice.
//!
//! The adjoint still solves the elementwise-conjugate folded steps
//! ([`ThomasFactors::solve_conj`]), although row 0 makes the folded
//! matrix unsymmetric. The full `A_k` is complex-symmetric, so
//! `A_kᴴ = Ā_k`, and it commutes with the reflection `x ↦ −x`; so does
//! `Ā_k`. The adjoint seed `W u_N` is even, so every adjoint vector is
//! even, and on even vectors `Ā_k` acts on the half grid as the conjugate
//! of the folded `A_k`. The conjugate solve on the half grid is therefore
//! the full conjugate-transpose solve, restricted to `x ≥ 0`; the same
//! holds for `B_kᴴ`.

use crate::YBranch;
use nofis_linalg::{tridiag::ThomasFactors, Complex64, LinalgError};
use std::ops::{Add, Mul};
use std::sync::OnceLock;

/// Discretization and launch settings for the BPM.
#[derive(Debug, Clone, PartialEq)]
pub struct BpmConfig {
    /// Lateral half-extent of the domain (µm).
    pub x_extent: f64,
    /// Number of lateral grid points across the full domain. Must be odd,
    /// so that `x = 0` is a grid point: the solver propagates only the
    /// `nx/2 + 1` points at `x ≥ 0`.
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
    /// The full lateral grid, the half grid `j·dx` mirrored out, so its
    /// `x ≥ 0` half `xs[nx/2..]` is the grid the solver propagates on.
    xs: Vec<f64>,
    dx: f64,
    dz: f64,
    /// Static absorber profile γ(x) ≥ 0 on the half grid.
    absorber: Vec<f64>,
    /// Output power window on the half grid (1 inside the nominal arm
    /// cores at z = L).
    window: Vec<f64>,
    /// Launched field on the half grid (normalized to unit power over the
    /// full grid).
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

/// One run's folded Crank–Nicolson operators `A_k u_{k+1} = B_k u_k`, with
/// `A_k = I + i(dz/2)H_k` and `B_k = I − i(dz/2)H_k`, for every step `k`.
struct Steps {
    /// Every step's `A_k`, factored.
    factors: ThomasFactors,
    /// Every step's diagonal of `B_k`, `nz × (nx/2 + 1)` row-major.
    b_diag: Vec<Complex64>,
}

impl BpmSolver {
    /// Builds the solver, precomputing grid, absorber, launch field and
    /// output window.
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate (`nx < 8` or `nz == 0`), or if
    /// `nx` is even, which leaves `x = 0` off the grid the mirror fold
    /// needs.
    pub fn new(geometry: YBranch, config: BpmConfig) -> Self {
        assert!(config.nx >= 8, "nx must be at least 8");
        assert!(config.nz >= 1, "nz must be at least 1");
        assert!(
            config.nx % 2 == 1,
            "nx must be odd, so that x = 0 is a grid point"
        );
        let mid = config.nx / 2;
        let dx = 2.0 * config.x_extent / (config.nx - 1) as f64;
        let dz = geometry.length() / config.nz as f64;
        let half: Vec<f64> = (0..=mid).map(|j| j as f64 * dx).collect();
        let xs: Vec<f64> = (half[1..].iter().rev().map(|&x| -x))
            .chain(half.iter().copied())
            .collect();

        let absorber: Vec<f64> = half
            .iter()
            .map(|&x| {
                let border = config.x_extent - config.absorber_width;
                let d = (x.abs() - border).max(0.0) / config.absorber_width;
                config.absorber_strength * d * d
            })
            .collect();

        // Output window: nominal arm cores (±arm_sep ± half_width) at z = L.
        let window: Vec<f64> = half
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
        let mut launch: Vec<Complex64> = half
            .iter()
            .map(|&x| Complex64::from_real((-(x / config.launch_width).powi(2)).exp()))
            .collect();
        let p0 = mirror_sum(launch.iter().map(|u| u.abs_sq()));
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

    /// Borrows the lateral grid coordinates (the full domain, symmetric
    /// about `x = 0`).
    pub fn grid(&self) -> &[f64] {
        &self.xs
    }

    /// The `x ≥ 0` half of the grid, on which the field is propagated.
    fn half_grid(&self) -> &[f64] {
        &self.xs[self.config.nx / 2..]
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

    /// The constant off-diagonal of `B_k`, `−i(dz/2)·off` (doubled in
    /// row 0's super-diagonal by [`apply_tridiag`]).
    fn b_off(&self) -> Complex64 {
        Complex64::new(0.0, -0.5 * self.dz) * self.h_off()
    }

    /// Assembles every step's diagonals on the half grid from its
    /// `z`-only index profile, then factors every folded `A_k`: its bands
    /// are `i(dz/2)·off`, except row 0's super-diagonal, which couples to
    /// the mirror neighbour and is twice that. When `dn2_dw` is given
    /// (`nz × (nx/2 + 1)`) it receives `dn²/dδw` at every step and
    /// half-grid point.
    fn steps(&self, params: &[f64], mut dn2_dw: Option<&mut [f64]>) -> Result<Steps, LinalgError> {
        let xs = self.half_grid();
        let (n, nz) = (xs.len(), self.config.nz);
        let off = self.h_off();
        let n0sq = self.geometry.n_clad() * self.geometry.n_clad();
        let a_half = Complex64::new(0.0, 0.5 * self.dz);
        let b_half = Complex64::new(0.0, -0.5 * self.dz);
        let mut a_diag = vec![Complex64::ZERO; nz * n];
        let mut b_diag = vec![Complex64::ZERO; nz * n];
        let rows = (a_diag.chunks_exact_mut(n))
            .zip(b_diag.chunks_exact_mut(n))
            .zip(self.sin_table().chunks_exact(self.geometry.n_modes()));
        for (step, ((a, b), sins)) in rows.enumerate() {
            let profile = self.geometry.step_profile(self.z_mid(step), params, sins);
            let mut dw = dn2_dw.as_deref_mut().map(|d| &mut d[step * n..][..n]);
            for j in 0..n {
                let n2 = match dw.as_deref_mut() {
                    Some(dw) => {
                        let (n2, d) = self.geometry.profile_n2_dw(&profile, xs[j]);
                        dw[j] = d;
                        n2
                    }
                    None => self.geometry.profile_n2(&profile, xs[j]),
                };
                let h = Complex64::new(
                    -2.0 * off - self.index_coeff * (n2 - n0sq),
                    -self.index_coeff * self.absorber[j],
                );
                a[j] = Complex64::ONE + a_half * h;
                b[j] = Complex64::ONE + b_half * h;
            }
        }
        let lower = vec![a_half * off; n];
        let mut upper = lower.clone();
        upper[0] = a_half * (2.0 * off);
        let factors = ThomasFactors::factor(&lower, &a_diag, &upper)?;
        Ok(Steps { factors, b_diag })
    }

    /// Power of the full field whose `x ≥ 0` half is `u` inside the output
    /// window.
    fn window_power(&self, u: &[Complex64]) -> f64 {
        mirror_sum(u.iter().zip(&self.window).map(|(v, &w)| w * v.abs_sq()))
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
        let n = self.launch.len();
        let steps = self.steps(params, None)?;
        let b_off = self.b_off();
        let mut u = self.launch.clone();
        let mut next = vec![Complex64::ZERO; n];
        for (step, b) in steps.b_diag.chunks_exact(n).enumerate() {
            apply_tridiag(b, b_off, &u, &mut next, |z| z);
            steps.factors.solve(step, &mut next);
            std::mem::swap(&mut u, &mut next);
        }
        // Mirror the half field out to the full grid.
        let half: Vec<f64> = u.iter().map(|v| v.abs()).collect();
        let output_magnitude = (half[1..].iter().rev()).chain(&half).copied().collect();
        Ok(BpmRun {
            transmission: self.window_power(&u),
            output_magnitude,
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
        let (n, nz) = (self.launch.len(), self.config.nz);
        let n_modes = self.geometry.n_modes();

        // Forward pass, storing the half field history ((nz + 1) × n) and
        // the per-step dn²/dw (nz × n).
        let mut dn2_dw = vec![0.0; nz * n];
        let steps = self.steps(params, Some(&mut dn2_dw))?;
        let b_off = self.b_off();
        let mut fields = vec![Complex64::ZERO; (nz + 1) * n];
        fields[..n].copy_from_slice(&self.launch);
        for (step, b) in steps.b_diag.chunks_exact(n).enumerate() {
            let (done, rest) = fields.split_at_mut((step + 1) * n);
            let next = &mut rest[..n];
            apply_tridiag(b, b_off, &done[step * n..], next, |z| z);
            steps.factors.solve(step, next);
        }
        let u_out = &fields[nz * n..];
        let transmission = self.window_power(u_out);

        // Adjoint pass: λ_N = W u_N; λ_k = B_kᴴ A_k⁻ᴴ λ_{k+1}, accumulating
        // 2 Re( μ_kᴴ (δB u_k − δA u_{k+1}) ) per parameter, where both
        // δA and δB are ∓ i(dz/2) δH with δH diagonal. On the even
        // adjoint vectors A_kᴴ acts as the conjugate of the folded A_k
        // (see the module doc), which is solved from A_k's factor.
        let mut grad = vec![0.0; n_modes];
        let mut lambda: Vec<Complex64> = u_out
            .iter()
            .zip(&self.window)
            .map(|(v, &w)| *v * w)
            .collect();
        let mut next = vec![Complex64::ZERO; n];
        // δB u_k − δA u_{k+1} = -i(dz/2) δH (u_k + u_{k+1}),
        // δH_j = -index_coeff · dn²_j.
        let common = Complex64::new(0.0, -0.5 * self.dz) * (-self.index_coeff);
        let sins = self.sin_table();

        for step in (0..nz).rev() {
            // μ_k = A_k⁻ᴴ λ_{k+1}, in place.
            steps.factors.solve_conj(step, &mut lambda);
            let mu = &lambda;

            // Parameter accumulation; the inner product over the full
            // field is common to all modes.
            let dw = &dn2_dw[step * n..(step + 1) * n];
            let (u_k, u_next) = (&fields[step * n..], &fields[(step + 1) * n..]);
            let s = mirror_sum(
                (mu.iter().zip(dw))
                    .zip(u_k.iter().zip(u_next))
                    .map(|((m, &d), (a, b))| m.conj() * (*a + *b) * d),
            );
            let contrib = common * s;
            let row = &sins[step * n_modes..(step + 1) * n_modes];
            for (g, &sin) in grad.iter_mut().zip(row) {
                *g += 2.0 * (contrib.re) * self.geometry.basis_from_sin(sin);
            }

            // λ_k = B_kᴴ μ_k.
            let b = &steps.b_diag[step * n..(step + 1) * n];
            apply_tridiag(b, b_off, mu, &mut next, Complex64::conj);
            std::mem::swap(&mut lambda, &mut next);
        }

        Ok((transmission, grad))
    }
}

/// The sum over the full, even field of `terms` given on the half grid:
/// the `x = 0` term counts once, every other term twice (itself and its
/// mirror image).
fn mirror_sum<T>(mut terms: impl Iterator<Item = T>) -> T
where
    T: Add<Output = T> + Mul<f64, Output = T>,
{
    let centre = terms.next().expect("the half grid is not empty");
    match terms.reduce(|acc, t| acc + t) {
        Some(rest) => centre + rest * 2.0,
        None => centre,
    }
}

/// `out = M u` for the folded tridiagonal `M` with diagonal `diag` and
/// off-diagonal `off`, whose row 0 couples to its mirror neighbour with
/// `2·off`; every entry is read through `f` (identity, or conjugate for
/// `Mᴴ` on even vectors).
fn apply_tridiag(
    diag: &[Complex64],
    off: Complex64,
    u: &[Complex64],
    out: &mut [Complex64],
    f: impl Fn(Complex64) -> Complex64,
) {
    let n = out.len();
    let off = f(off);
    out[0] = f(diag[0]) * u[0] + off * 2.0 * u[1];
    for j in 1..n {
        let mut acc = f(diag[j]) * u[j] + off * u[j - 1];
        if j + 1 < n {
            acc += off * u[j + 1];
        }
        out[j] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rand_distr::StandardNormal;

    /// The full-domain solver the fold replaced, kept as the reference the
    /// folded solver is checked against: it propagates all `nx` points of
    /// `x_i = −X + i·dx` through the symmetric step operators, with the
    /// arithmetic of the unfolded solver bit for bit.
    struct FullDomain<'a> {
        solver: &'a BpmSolver,
        xs: Vec<f64>,
        absorber: Vec<f64>,
        window: Vec<f64>,
        launch: Vec<Complex64>,
    }

    impl<'a> FullDomain<'a> {
        fn new(solver: &'a BpmSolver) -> Self {
            let (config, geometry) = (&solver.config, &solver.geometry);
            let xs: Vec<f64> = (0..config.nx)
                .map(|i| -config.x_extent + i as f64 * solver.dx)
                .collect();
            let absorber = xs
                .iter()
                .map(|&x| {
                    let border = config.x_extent - config.absorber_width;
                    let d = (x.abs() - border).max(0.0) / config.absorber_width;
                    config.absorber_strength * d * d
                })
                .collect();
            let window = xs
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
            let mut launch: Vec<Complex64> = xs
                .iter()
                .map(|&x| Complex64::from_real((-(x / config.launch_width).powi(2)).exp()))
                .collect();
            let p0: f64 = launch.iter().map(|u| u.abs_sq()).sum();
            let norm = 1.0 / p0.sqrt();
            for u in &mut launch {
                *u = *u * norm;
            }
            FullDomain {
                solver,
                xs,
                absorber,
                window,
                launch,
            }
        }

        fn steps(&self, params: &[f64], mut dn2_dw: Option<&mut [f64]>) -> Steps {
            let s = self.solver;
            let (nx, nz) = (s.config.nx, s.config.nz);
            let off = s.h_off();
            let n0sq = s.geometry.n_clad() * s.geometry.n_clad();
            let a_half = Complex64::new(0.0, 0.5 * s.dz);
            let b_half = Complex64::new(0.0, -0.5 * s.dz);
            let mut a_diag = vec![Complex64::ZERO; nz * nx];
            let mut b_diag = vec![Complex64::ZERO; nz * nx];
            let rows = (a_diag.chunks_exact_mut(nx))
                .zip(b_diag.chunks_exact_mut(nx))
                .zip(s.sin_table().chunks_exact(s.geometry.n_modes()));
            for (step, ((a, b), sins)) in rows.enumerate() {
                let profile = s.geometry.step_profile(s.z_mid(step), params, sins);
                let mut dw = dn2_dw.as_deref_mut().map(|d| &mut d[step * nx..][..nx]);
                for j in 0..nx {
                    let n2 = match dw.as_deref_mut() {
                        Some(dw) => {
                            let (n2, d) = s.geometry.profile_n2_dw(&profile, self.xs[j]);
                            dw[j] = d;
                            n2
                        }
                        None => s.geometry.profile_n2(&profile, self.xs[j]),
                    };
                    let h = Complex64::new(
                        -2.0 * off - s.index_coeff * (n2 - n0sq),
                        -s.index_coeff * self.absorber[j],
                    );
                    a[j] = Complex64::ONE + a_half * h;
                    b[j] = Complex64::ONE + b_half * h;
                }
            }
            let band = vec![a_half * off; nx];
            let factors = ThomasFactors::factor(&band, &a_diag, &band).unwrap();
            Steps { factors, b_diag }
        }

        fn window_power(&self, u: &[Complex64]) -> f64 {
            u.iter()
                .zip(&self.window)
                .map(|(v, &w)| w * v.abs_sq())
                .sum()
        }

        fn run(&self, params: &[f64]) -> BpmRun {
            let nx = self.xs.len();
            let steps = self.steps(params, None);
            let b_off = self.solver.b_off();
            let mut u = self.launch.clone();
            let mut next = vec![Complex64::ZERO; nx];
            for (step, b) in steps.b_diag.chunks_exact(nx).enumerate() {
                full_apply_tridiag(b, b_off, &u, &mut next, |z| z);
                steps.factors.solve(step, &mut next);
                std::mem::swap(&mut u, &mut next);
            }
            BpmRun {
                transmission: self.window_power(&u),
                output_magnitude: u.iter().map(|v| v.abs()).collect(),
            }
        }

        fn run_with_gradient(&self, params: &[f64]) -> (f64, Vec<f64>) {
            let s = self.solver;
            let (nx, nz) = (self.xs.len(), s.config.nz);
            let n_modes = s.geometry.n_modes();
            let mut dn2_dw = vec![0.0; nz * nx];
            let steps = self.steps(params, Some(&mut dn2_dw));
            let b_off = s.b_off();
            let mut fields = vec![Complex64::ZERO; (nz + 1) * nx];
            fields[..nx].copy_from_slice(&self.launch);
            for (step, b) in steps.b_diag.chunks_exact(nx).enumerate() {
                let (done, rest) = fields.split_at_mut((step + 1) * nx);
                let next = &mut rest[..nx];
                full_apply_tridiag(b, b_off, &done[step * nx..], next, |z| z);
                steps.factors.solve(step, next);
            }
            let u_out = &fields[nz * nx..];
            let transmission = self.window_power(u_out);

            let mut grad = vec![0.0; n_modes];
            let mut lambda: Vec<Complex64> = u_out
                .iter()
                .zip(&self.window)
                .map(|(v, &w)| *v * w)
                .collect();
            let mut next = vec![Complex64::ZERO; nx];
            let common = Complex64::new(0.0, -0.5 * s.dz) * (-s.index_coeff);
            let sins = s.sin_table();
            for step in (0..nz).rev() {
                steps.factors.solve_conj(step, &mut lambda);
                let mu = &lambda;
                let dw = &dn2_dw[step * nx..(step + 1) * nx];
                let (u_k, u_next) = (&fields[step * nx..], &fields[(step + 1) * nx..]);
                let mut acc = Complex64::ZERO;
                for j in 0..nx {
                    let du = u_k[j] + u_next[j];
                    acc += mu[j].conj() * du * dw[j];
                }
                let contrib = common * acc;
                let row = &sins[step * n_modes..(step + 1) * n_modes];
                for (g, &sin) in grad.iter_mut().zip(row) {
                    *g += 2.0 * (contrib.re) * s.geometry.basis_from_sin(sin);
                }
                let b = &steps.b_diag[step * nx..(step + 1) * nx];
                full_apply_tridiag(b, b_off, mu, &mut next, Complex64::conj);
                std::mem::swap(&mut lambda, &mut next);
            }
            (transmission, grad)
        }
    }

    /// `out = M u` for the full-domain `M` with constant off-diagonal.
    fn full_apply_tridiag(
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

    /// The Table-1 Y-branch solver (`YBranchCase` in nofis-testcases).
    fn table1_solver() -> BpmSolver {
        BpmSolver::new(
            YBranch::new(26),
            BpmConfig {
                nx: 61,
                nz: 80,
                ..Default::default()
            },
        )
    }

    /// `YBranchCase`'s `g = (T − spec)·100`, in percentage points.
    fn case_value(t: f64) -> f64 {
        (t - 0.3563) * 100.0
    }

    /// `YBranchCase::value_grad` from a transmission and its gradient.
    fn case_value_grad((t, grad): (f64, Vec<f64>)) -> (f64, Vec<f64>) {
        (case_value(t), grad.into_iter().map(|g| g * 100.0).collect())
    }

    /// The nominal geometry, a smooth mixed deformation, and one whose
    /// first mode pinches the guide past the half-width clamp.
    fn pinned_point(k: usize) -> Vec<f64> {
        (0..26)
            .map(|i| match (k, i) {
                (0, _) => 0.0,
                (1, _) => 0.5 * (i as f64 * 0.31).sin(),
                (_, 0) => -4.0,
                _ => 0.3 * (i as f64 * 0.7).cos(),
            })
            .collect()
    }

    /// 200 fixed-seed points: standard-normal rows, rows with every
    /// coordinate near ±4, and rows whose first mode pinches the guide past
    /// the half-width clamp.
    fn random_points() -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(26);
        (0..200)
            .map(|k| {
                let mut x: Vec<f64> = (0..26).map(|_| rng.sample(StandardNormal)).collect();
                match k % 4 {
                    1 => {
                        for v in &mut x {
                            *v = 4.0f64.copysign(*v) + 0.05 * *v;
                        }
                    }
                    2 => x[0] = -4.0 - x[0].abs(),
                    _ => {}
                }
                x
            })
            .collect()
    }

    /// `(value bits, value_grad gradient bits)` at [`pinned_point`] `k`.
    /// Captured from the full-domain solver, before the mirror fold; the
    /// reference must still reproduce them.
    #[rustfmt::skip]
    const PINNED: [(u64, [u64; 26]); 3] = [
        (0x4048509aa1438b90, [
            0x4006e807bd060c6d, 0xc01031a00f8b9931, 0xbfecf01f76bf3463, 0xc01dc9107f447743,
            0xc00a2b7a768abd53, 0xc010b6aa9ce3545f, 0xbffa3a69f6598d65, 0x4006478229ff2057,
            0xc009acce2ae81c9d, 0xc01c29a8f53fa10c, 0x4012df633877fccf, 0xbfe088e377dd4d1b,
            0xbfe4608f93398d9f, 0x3fabe0f00e72e6c8, 0x3fe5899f2af9c9b3, 0xbfd6eef2422a2332,
            0x3ff691162925fb62, 0x3fe424183128c10b, 0x3fed766a29ac7d22, 0x3fef7e45a323b04e,
            0xbfcd37021ae040a7, 0xbfc91531406c9bb1, 0x3fd2449f030b41cf, 0xbfe11cd10cbd61a2,
            0x3ff785f28ae6254f, 0xbfc189129e8ff30f,
        ]),
        (0x40425a6ded38006a, [
            0x401d1069c5142c53, 0xbfab1f8e6de37366, 0x400d6e43fd36e28b, 0xc0135083bee16680,
            0xbfde087ec7ba282c, 0xc003402d7cb8581f, 0xbfebf548a944f20d, 0x4005f02c22c4789d,
            0xc00d0dd4bc42e942, 0xc024fb7e92ad5921, 0x3ff3477a59583b15, 0xc01178b4080a35a1,
            0xc005ee750efe3e40, 0xbfef3bc69b92e7ff, 0xbfc5e38059636834, 0x3ff54766c48983b9,
            0x4000db742d144632, 0x3ff114eaf2dd6ab8, 0x3ff8d4a52807ccd8, 0x3fec9f04df59b0c0,
            0xbff90f6315c21a2f, 0xc000128fa556f37b, 0xc00a34fa0392dbde, 0xc00b5a184fdc872d,
            0x3fdba64c94f9be09, 0xbff03d1f51e19b09,
        ]),
        (0x403cd20f8846f8b8, [
            0x401309dec60d396e, 0xc00ca3ef9afc8f91, 0x40235b45985787b3, 0xc00db46e0e077036,
            0x4019c111dea5337a, 0xbfd867712f657076, 0x3fd463f8493ffa40, 0x4001dcd57b1b0a1f,
            0xc003aa321c02f61e, 0x3fe43afac8e1adde, 0xbff0eab5bbedacc8, 0xc006fc85f2604db4,
            0x3ff458a08b8d493c, 0xc00caf179c2f83f7, 0x3ff47a090d4e2f17, 0xbff7063efe6741f6,
            0xbff0ae57f1b0a275, 0x3fc4fe674f80175b, 0xc0016ee38eabac14, 0x3fd8761974638a98,
            0xbfa63ce28bef1695, 0x3fe09815257dcaaa, 0x3ffe12fcc13a3410, 0x3fcbc28bebc5b69e,
            0xbfc70d714c55dd05, 0xbfead9ff05803aba,
        ]),
    ];

    /// Bits of `BpmSolver::run(..).output_magnitude` at [`pinned_point`]
    /// `k`: the final field, not just its windowed power, so a change to
    /// the propagation arithmetic shows here even where the transmission
    /// happens to round the same.
    #[rustfmt::skip]
    const PINNED_MAGNITUDE: [[u64; 61]; 3] = [
        [
            0x3f879d1c8b3e8088, 0x3f95e935d666c9f3, 0x3f9ca157a12217c7, 0x3fa09137ec7cf94a,
            0x3fa2054f9b89b442, 0x3fa35effc3713c6c, 0x3fa4a50f69ae6433, 0x3fa4e75feec7d581,
            0x3fa3f9d2ba54a37c, 0x3fa2a1891aa6794c, 0x3fa4b80255d9d613, 0x3fae1ff88e3e48a2,
            0x3fb6b77e63805293, 0x3fc035a5b90445a4, 0x3fc5e56aebcb1f32, 0x3fcbd436d9c82d99,
            0x3fd008bab0b01082, 0x3fd083bcb346d418, 0x3fcfb5a84349bc11, 0x3fcd8f6b77ffcf41,
            0x3fcae9de52ad4551, 0x3fc6cdd1f913e295, 0x3fc07c4fe2b0e333, 0x3fb3649d7ad617da,
            0x3fa94466a782ed2a, 0x3fade84c35fa086f, 0x3fb2271ff2bdae14, 0x3fb2d570c4b1a2f7,
            0x3fb1420edb5dd7fb, 0x3fae51924cd8778d, 0x3fac8a4af456a4c5, 0x3fae51924cd87781,
            0x3fb1420edb5dd80f, 0x3fb2d570c4b1a2fd, 0x3fb2271ff2bdae21, 0x3fade84c35fa086b,
            0x3fa94466a782ed4a, 0x3fb3649d7ad617dd, 0x3fc07c4fe2b0e330, 0x3fc6cdd1f913e29b,
            0x3fcae9de52ad4551, 0x3fcd8f6b77ffcf41, 0x3fcfb5a84349bc0b, 0x3fd083bcb346d411,
            0x3fd008bab0b0107e, 0x3fcbd436d9c82d9a, 0x3fc5e56aebcb1f3e, 0x3fc035a5b904459e,
            0x3fb6b77e63805289, 0x3fae1ff88e3e48e0, 0x3fa4b80255d9d641, 0x3fa2a1891aa67969,
            0x3fa3f9d2ba54a389, 0x3fa4e75feec7d577, 0x3fa4a50f69ae644e, 0x3fa35effc3713c73,
            0x3fa2054f9b89b443, 0x3fa09137ec7cf941, 0x3f9ca157a12217b8, 0x3f95e935d666ca0f,
            0x3f879d1c8b3e804b,
        ],
        [
            0x3f910f50c8587870, 0x3fa1e7bb7dd04d23, 0x3faa9ae5df34dfaf, 0x3fafd7d867c15875,
            0x3fb00c51985a0883, 0x3fb03c1435002943, 0x3faf06a2c0000558, 0x3fa97255cb1571ba,
            0x3fa3ba7f7bb59dcb, 0x3fa036dff7617b2a, 0x3fa90544e2f9432c, 0x3fb2ccef6ae4b46e,
            0x3fbac0a9e6f27059, 0x3fc30cb5295ec549, 0x3fc76812c9686e59, 0x3fca5d25bf84b46d,
            0x3fcd2933c4ad6062, 0x3fcd8e89c59ec5ea, 0x3fccdad620c93611, 0x3fcc9bd4f6fdf171,
            0x3fc9808ed18a424a, 0x3fc36497a73cadb2, 0x3fba2c627481ba7b, 0x3fae931e3fdded08,
            0x3facc4bad964d0fd, 0x3fb5fe226591fd82, 0x3fba9feaec6da3df, 0x3fb8f08dcad554cb,
            0x3fb375d65a2891c2, 0x3fa957e7e4f05386, 0x3fa33822d4f8c33b, 0x3fa957e7e4f0539c,
            0x3fb375d65a2891cc, 0x3fb8f08dcad554b7, 0x3fba9feaec6da3d6, 0x3fb5fe226591fd79,
            0x3facc4bad964d116, 0x3fae931e3fdded10, 0x3fba2c627481ba69, 0x3fc36497a73cada3,
            0x3fc9808ed18a4243, 0x3fcc9bd4f6fdf176, 0x3fccdad620c93619, 0x3fcd8e89c59ec5db,
            0x3fcd2933c4ad6059, 0x3fca5d25bf84b467, 0x3fc76812c9686e53, 0x3fc30cb5295ec541,
            0x3fbac0a9e6f2706e, 0x3fb2ccef6ae4b46c, 0x3fa90544e2f942eb, 0x3fa036dff7617aec,
            0x3fa3ba7f7bb59dbb, 0x3fa97255cb1571b2, 0x3faf06a2c0000560, 0x3fb03c143500294c,
            0x3fb00c51985a0883, 0x3fafd7d867c1586c, 0x3faa9ae5df34dfb0, 0x3fa1e7bb7dd04d33,
            0x3f910f50c8587881,
        ],
        [
            0x3f87e5ee9e0fd008, 0x3f9ef59537fb613c, 0x3fa42fe3c57f022a, 0x3fa9e8cd5aaf6f5d,
            0x3faf98c899951c4b, 0x3fb057913776078b, 0x3fb115540437966e, 0x3fb0aca57994453a,
            0x3fad6e56ba724759, 0x3fab4179f2d11de5, 0x3fade13c238b8cd8, 0x3fb17928f231deca,
            0x3fb3c6cd00fb4d5c, 0x3fb3fda9b4cd9d70, 0x3fb6aac8ae494264, 0x3fbda2c14b8b535d,
            0x3fc38e8fcacd6f67, 0x3fc7969b4f0cc96f, 0x3fcad0bfa2e23247, 0x3fcc4fcf0c0a477f,
            0x3fcb2ffba15f3574, 0x3fc90cdab4724049, 0x3fc5f69371c59ec2, 0x3fc2b847924373be,
            0x3fc08423aab66f92, 0x3fbe73f899d9028a, 0x3fbe8d419eb1e192, 0x3fc102c2d0bae1ed,
            0x3fc3c295f6cf4d39, 0x3fc4f7e74207e4a3, 0x3fc5642209bf21c5, 0x3fc4f7e74207e4a5,
            0x3fc3c295f6cf4d34, 0x3fc102c2d0bae1e9, 0x3fbe8d419eb1e189, 0x3fbe73f899d90296,
            0x3fc08423aab66f89, 0x3fc2b847924373b4, 0x3fc5f69371c59ebb, 0x3fc90cdab4724040,
            0x3fcb2ffba15f3573, 0x3fcc4fcf0c0a477a, 0x3fcad0bfa2e23246, 0x3fc7969b4f0cc972,
            0x3fc38e8fcacd6f64, 0x3fbda2c14b8b5358, 0x3fb6aac8ae494261, 0x3fb3fda9b4cd9d7f,
            0x3fb3c6cd00fb4d4a, 0x3fb17928f231dec9, 0x3fade13c238b8cd0, 0x3fab4179f2d11dbf,
            0x3fad6e56ba72475b, 0x3fb0aca579944535, 0x3fb115540437966d, 0x3fb057913776078b,
            0x3faf98c899951c5a, 0x3fa9e8cd5aaf6f75, 0x3fa42fe3c57f0230, 0x3f9ef59537fb6139,
            0x3f87e5ee9e0fd005,
        ],
    ];

    #[test]
    fn reference_reproduces_the_full_domain_bits() {
        let solver = table1_solver();
        let reference = FullDomain::new(&solver);
        for (k, (value_bits, grad_bits)) in PINNED.iter().enumerate() {
            let x = pinned_point(k);
            let v = case_value(reference.run(&x).transmission);
            assert_eq!(v.to_bits(), *value_bits, "value at point {k}");
            let (v, grad) = case_value_grad(reference.run_with_gradient(&x));
            assert_eq!(v.to_bits(), *value_bits, "value_grad value at point {k}");
            let bits: Vec<u64> = grad.iter().map(|g| g.to_bits()).collect();
            assert_eq!(bits, grad_bits, "gradient at point {k}");
        }
        for (k, expected) in PINNED_MAGNITUDE.iter().enumerate() {
            let run = reference.run(&pinned_point(k));
            let bits: Vec<u64> = run.output_magnitude.iter().map(|m| m.to_bits()).collect();
            assert_eq!(bits, expected, "output magnitude at point {k}");
        }
    }

    #[test]
    fn fold_matches_the_full_domain_reference() {
        let solver = table1_solver();
        let reference = FullDomain::new(&solver);
        let points = (0..3).map(pinned_point).chain(random_points());
        for (k, x) in points.enumerate() {
            let (full, fold) = (reference.run(&x), solver.run(&x).unwrap());
            let v_full = case_value(full.transmission);
            let v_fold = case_value(fold.transmission);
            assert!(
                (v_fold - v_full).abs() <= 1e-10,
                "point {k}: value {v_fold} vs {v_full}"
            );
            for (i, (a, b)) in fold
                .output_magnitude
                .iter()
                .zip(&full.output_magnitude)
                .enumerate()
            {
                assert!((a - b).abs() <= 1e-12, "point {k}: |u| at {i}: {a} vs {b}");
            }
            let (v_full, g_full) = case_value_grad(reference.run_with_gradient(&x));
            let (v_fold, g_fold) = case_value_grad(solver.run_with_gradient(&x).unwrap());
            assert!(
                (v_fold - v_full).abs() <= 1e-10,
                "point {k}: value_grad {v_fold} vs {v_full}"
            );
            for (i, (a, b)) in g_fold.iter().zip(&g_full).enumerate() {
                assert!((a - b).abs() <= 1e-10, "point {k}: mode {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "nx must be odd")]
    fn even_nx_is_rejected() {
        BpmSolver::new(
            YBranch::new(1),
            BpmConfig {
                nx: 60,
                ..Default::default()
            },
        );
    }

    #[test]
    fn grid_is_the_mirrored_half_grid() {
        let solver = small_solver(1);
        let xs = solver.grid();
        assert_eq!(xs.len(), 81);
        assert_eq!(xs[40].to_bits(), 0.0f64.to_bits());
        for j in 0..=40 {
            assert_eq!(xs[40 + j], -xs[40 - j]);
        }
        assert!((xs[80] - 8.0).abs() < 1e-12);
    }

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
