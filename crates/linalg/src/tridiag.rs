//! Tridiagonal system solvers (Thomas algorithm), factored once and solved
//! many times.
//!
//! The Crank–Nicolson beam-propagation stepper in `nofis-photonics` solves
//! one complex tridiagonal system per propagation step, and its adjoint
//! solves the conjugate of each, so this is on the hot path of the
//! Y-branch test case. The factorization depends only on the matrix, so it
//! is computed once per step and shared by the forward and adjoint solves;
//! the solves themselves do no divides.

use crate::{Complex64, LinalgError};

/// Thomas factorizations of `m` complex tridiagonal systems of order `n`
/// that share their sub- and super-diagonal bands but each have their own
/// main diagonal — the steps of a Crank–Nicolson propagation.
///
/// Row `i` of system `k` keeps its reciprocal pivot `rᵢ` and its
/// eliminated super-diagonal `c′ᵢ = upperᵢ rᵢ`. [`ThomasFactors::solve`]
/// solves `A x = d` from them; [`ThomasFactors::solve_conj`] solves the
/// elementwise conjugate `Ā x = d` from the same factor with `r̄` and `c̄′`,
/// which is the conjugate-transpose solve `Aᴴ x = d` whenever `A` is
/// complex-symmetric (`upperᵢ = lowerᵢ₊₁`), as Crank–Nicolson matrices are.
///
/// Both solves give the same bits as eliminating the system afresh,
/// because complex division is multiplication by the reciprocal, and
/// reciprocal, product and difference commute with conjugation under
/// round-to-nearest.
///
/// The Thomas algorithm is only unconditionally stable for diagonally
/// dominant systems — which Crank–Nicolson matrices are — so no pivoting is
/// performed.
///
/// # Example
///
/// ```
/// use nofis_linalg::{tridiag::ThomasFactors, Complex64};
///
/// # fn main() -> Result<(), nofis_linalg::LinalgError> {
/// let n = 4;
/// let band = vec![Complex64::from_real(-1.0); n];
/// // Two systems: the discrete Poisson matrix and a complex shift of it.
/// let mut diags = vec![Complex64::from_real(2.0); n];
/// diags.extend(vec![Complex64::new(2.0, 0.5); n]);
/// let factors = ThomasFactors::factor(&band, &diags, &band)?;
///
/// let mut x = vec![Complex64::from_real(1.0); n];
/// factors.solve(0, &mut x);
/// // Symmetric problem, symmetric solution.
/// assert!((x[0] - x[3]).abs() < 1e-12);
///
/// // Solve the conjugate of the second system, and check it.
/// let mut y = vec![Complex64::I; n];
/// factors.solve_conj(1, &mut y);
/// let row0 = Complex64::new(2.0, -0.5) * y[0] - y[1];
/// assert!((row0 - Complex64::I).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThomasFactors {
    /// The shared sub-diagonal (`lower[0]` unused).
    lower: Vec<Complex64>,
    /// Reciprocal pivots, `m × n` row-major.
    recip_pivot: Vec<Complex64>,
    /// Eliminated super-diagonals, `m × n` row-major (row `n - 1` unused).
    c_prime: Vec<Complex64>,
}

impl ThomasFactors {
    /// Factors the `m = diags.len() / n` systems with sub-diagonal `lower`,
    /// super-diagonal `upper` (both of order `n`) and main diagonals
    /// `diags[k·n .. (k+1)·n]`.
    ///
    /// `lower[0]` and `upper[n-1]` are ignored by convention (they do not
    /// exist in the matrix) but must be present so both bands have length
    /// `n`. Two systems are eliminated at a time, interleaved, so the
    /// divide-bound pivot chains of one overlap those of the other.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `n == 0` or `diags` is empty.
    /// * [`LinalgError::ShapeMismatch`] if the bands differ in length or
    ///   `diags.len()` is not a multiple of `n`.
    /// * [`LinalgError::Singular`] if an eliminated pivot vanishes; `pivot`
    ///   is the flat index `k·n + i` of the first such row of the first
    ///   such system.
    pub fn factor(
        lower: &[Complex64],
        diags: &[Complex64],
        upper: &[Complex64],
    ) -> Result<Self, LinalgError> {
        let n = lower.len();
        if n == 0 || diags.is_empty() {
            return Err(LinalgError::invalid("empty tridiagonal system"));
        }
        if upper.len() != n || !diags.len().is_multiple_of(n) {
            return Err(LinalgError::shape(format!(
                "tridiagonal bands must have length {n} and the diagonals a multiple of it: \
                 got upper={}, diagonals={}",
                upper.len(),
                diags.len()
            )));
        }
        let mut recip_pivot = vec![Complex64::ZERO; diags.len()];
        let mut c_prime = vec![Complex64::ZERO; diags.len()];
        let pairs = (diags.chunks(2 * n))
            .zip(recip_pivot.chunks_mut(2 * n))
            .zip(c_prime.chunks_mut(2 * n));
        for (p, ((diag, r), c)) in pairs.enumerate() {
            let first_zero = if diag.len() == 2 * n {
                eliminate::<2>(lower, upper, diag, r, c)
            } else {
                eliminate::<1>(lower, upper, diag, r, c)
            };
            if let Some(i) = first_zero {
                return Err(LinalgError::Singular {
                    pivot: 2 * n * p + i,
                });
            }
        }
        Ok(ThomasFactors {
            lower: lower.to_vec(),
            recip_pivot,
            c_prime,
        })
    }

    /// Order `n` of each system.
    pub fn order(&self) -> usize {
        self.lower.len()
    }

    /// Solves `A_k x = d` for system `k` in place.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a factored system or `d.len() != self.order()`.
    pub fn solve(&self, k: usize, d: &mut [Complex64]) {
        self.substitute(k, d, |z| z);
    }

    /// Solves `Ā_k x = d` for system `k` in place, from the factor of
    /// `A_k`: the conjugate-transpose solve when `A_k` is
    /// complex-symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a factored system or `d.len() != self.order()`.
    pub fn solve_conj(&self, k: usize, d: &mut [Complex64]) {
        self.substitute(k, d, Complex64::conj);
    }

    /// Forward elimination and back substitution of system `k`, reading
    /// every factor entry through `f` (identity or conjugate).
    fn substitute(&self, k: usize, d: &mut [Complex64], f: impl Fn(Complex64) -> Complex64) {
        let n = self.order();
        assert_eq!(d.len(), n, "right-hand side must have the system order");
        let r = &self.recip_pivot[k * n..(k + 1) * n];
        let c = &self.c_prime[k * n..(k + 1) * n];
        d[0] *= f(r[0]);
        for i in 1..n {
            d[i] = (d[i] - f(self.lower[i]) * d[i - 1]) * f(r[i]);
        }
        for i in (0..n - 1).rev() {
            let next = d[i + 1];
            d[i] -= f(c[i]) * next;
        }
    }
}

/// Eliminates `K` systems of order `n = lower.len()` in lock step, their
/// diagonals, reciprocal pivots and `c′` stored back to back in `diag`,
/// `r` and `c`. Returns the offset `k·n + i` of the first vanished pivot
/// of the first singular system, if any.
fn eliminate<const K: usize>(
    lower: &[Complex64],
    upper: &[Complex64],
    diag: &[Complex64],
    r: &mut [Complex64],
    c: &mut [Complex64],
) -> Option<usize> {
    let n = lower.len();
    let diag: [&[Complex64]; K] = std::array::from_fn(|k| &diag[k * n..(k + 1) * n]);
    let mut r_rows = r.chunks_exact_mut(n);
    let r: [&mut [Complex64]; K] = std::array::from_fn(|_| r_rows.next().expect("K rows"));
    let mut c_rows = c.chunks_exact_mut(n);
    let c: [&mut [Complex64]; K] = std::array::from_fn(|_| c_rows.next().expect("K rows"));

    let mut first_zero = [None; K];
    let mut c_prev = [Complex64::ZERO; K];
    for i in 0..n {
        for k in 0..K {
            let pivot = if i == 0 {
                diag[k][0]
            } else {
                diag[k][i] - lower[i] * c_prev[k]
            };
            if pivot.re == 0.0 && pivot.im == 0.0 && first_zero[k].is_none() {
                first_zero[k] = Some(i);
            }
            let recip = pivot.recip();
            r[k][i] = recip;
            if i + 1 < n {
                c_prev[k] = upper[i] * recip;
                c[k][i] = c_prev[k];
            }
        }
    }
    (0..K).find_map(|k| first_zero[k].map(|i| k * n + i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one-shot Thomas solve the factorization replaced, kept as the
    /// bitwise reference: it divides by each pivot as it eliminates.
    fn one_shot(
        lower: &[Complex64],
        diag: &[Complex64],
        upper: &[Complex64],
        d: &[Complex64],
    ) -> Result<Vec<Complex64>, LinalgError> {
        let n = diag.len();
        let mut c_prime = vec![Complex64::ZERO; n];
        let mut d_prime = vec![Complex64::ZERO; n];
        let mut denom = diag[0];
        if denom.abs() == 0.0 {
            return Err(LinalgError::Singular { pivot: 0 });
        }
        c_prime[0] = upper[0] / denom;
        d_prime[0] = d[0] / denom;
        for i in 1..n {
            denom = diag[i] - lower[i] * c_prime[i - 1];
            if denom.abs() == 0.0 {
                return Err(LinalgError::Singular { pivot: i });
            }
            if i + 1 < n {
                c_prime[i] = upper[i] / denom;
            }
            d_prime[i] = (d[i] - lower[i] * d_prime[i - 1]) / denom;
        }
        let mut x = d_prime;
        for i in (0..n - 1).rev() {
            let next = x[i + 1];
            x[i] -= c_prime[i] * next;
        }
        Ok(x)
    }

    fn apply_tridiag(
        lower: &[Complex64],
        diag: &[Complex64],
        upper: &[Complex64],
        x: &[Complex64],
    ) -> Vec<Complex64> {
        let n = diag.len();
        let mut out = vec![Complex64::ZERO; n];
        for i in 0..n {
            let mut acc = diag[i] * x[i];
            if i > 0 {
                acc += lower[i] * x[i - 1];
            }
            if i + 1 < n {
                acc += upper[i] * x[i + 1];
            }
            out[i] = acc;
        }
        out
    }

    fn random_c(rng: &mut StdRng, scale: f64) -> Complex64 {
        Complex64::new(
            scale * rng.gen_range(-1.0..1.0),
            scale * rng.gen_range(-1.0..1.0),
        )
    }

    /// `m` random diagonally dominant systems of order `n` sharing random
    /// bands: `(lower, diags, upper)`.
    fn random_systems(
        rng: &mut StdRng,
        n: usize,
        m: usize,
    ) -> (Vec<Complex64>, Vec<Complex64>, Vec<Complex64>) {
        let lower: Vec<_> = (0..n).map(|_| random_c(rng, 1.0)).collect();
        let upper: Vec<_> = (0..n).map(|_| random_c(rng, 1.0)).collect();
        let diags = (0..n * m)
            .map(|_| Complex64::new(3.0, 0.0) + random_c(rng, 0.5))
            .collect();
        (lower, diags, upper)
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn solve_matches_the_one_shot_thomas_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, m) in &[(1, 1), (2, 3), (7, 2), (61, 5), (61, 80)] {
            let (lower, diags, upper) = random_systems(&mut rng, n, m);
            let factors = ThomasFactors::factor(&lower, &diags, &upper).unwrap();
            assert_eq!(factors.order(), n);
            for k in 0..m {
                let d: Vec<_> = (0..n).map(|_| random_c(&mut rng, 2.0)).collect();
                let diag = &diags[k * n..(k + 1) * n];
                let expected = one_shot(&lower, diag, &upper, &d).unwrap();
                let mut x = d.clone();
                factors.solve(k, &mut x);
                assert_eq!(bits(&x), bits(&expected), "n={n} system {k}");
            }
        }
    }

    #[test]
    fn conjugate_solve_matches_a_fresh_factorization_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(8);
        for &(n, m) in &[(1, 1), (5, 3), (61, 80)] {
            let (lower, diags, upper) = random_systems(&mut rng, n, m);
            let factors = ThomasFactors::factor(&lower, &diags, &upper).unwrap();
            let conj = |v: &[Complex64]| v.iter().map(|z| z.conj()).collect::<Vec<_>>();
            let fresh = ThomasFactors::factor(&conj(&lower), &conj(&diags), &conj(&upper)).unwrap();
            for k in 0..m {
                let d: Vec<_> = (0..n).map(|_| random_c(&mut rng, 2.0)).collect();
                let (mut x, mut y) = (d.clone(), d.clone());
                factors.solve_conj(k, &mut x);
                fresh.solve(k, &mut y);
                assert_eq!(bits(&x), bits(&y), "n={n} system {k}");
            }
        }
    }

    #[test]
    fn solves_complex_system() {
        let n = 16;
        let lower: Vec<_> = (0..n)
            .map(|i| Complex64::new(-0.5, 0.1 * i as f64 / n as f64))
            .collect();
        let upper: Vec<_> = (0..n)
            .map(|i| Complex64::new(-0.4, -0.05 * i as f64 / n as f64))
            .collect();
        let diag: Vec<_> = (0..n).map(|_| Complex64::new(2.0, 0.3)).collect();
        let d: Vec<_> = (0..n)
            .map(|i| Complex64::new(i as f64, 1.0 - i as f64))
            .collect();
        let factors = ThomasFactors::factor(&lower, &diag, &upper).unwrap();
        let mut x = d.clone();
        factors.solve(0, &mut x);
        let ax = apply_tridiag(&lower, &diag, &upper, &x);
        for (p, q) in ax.iter().zip(&d) {
            assert!((*p - *q).abs() < 1e-10);
        }
    }

    #[test]
    fn one_by_one_system() {
        let factors = ThomasFactors::factor(
            &[Complex64::ZERO],
            &[Complex64::new(2.0, 0.0)],
            &[Complex64::ZERO],
        )
        .unwrap();
        let mut x = [Complex64::new(4.0, 2.0)];
        factors.solve(0, &mut x);
        assert!((x[0] - Complex64::new(2.0, 1.0)).abs() < 1e-14);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(ThomasFactors::factor(&[], &[], &[]).is_err());
        let z = Complex64::ZERO;
        assert!(ThomasFactors::factor(&[z, z], &[], &[z, z]).is_err());
        assert!(ThomasFactors::factor(&[z, z], &[z, z], &[z]).is_err());
        assert!(ThomasFactors::factor(&[z, z], &[z, z, z], &[z, z]).is_err());
    }

    #[test]
    fn singular_pivot_reports_the_one_shot_index() {
        let z = Complex64::ZERO;
        let one = Complex64::ONE;
        // A zero leading pivot, and a second pivot that cancels exactly:
        // 1 - 2·(1·2⁻¹) = 0.
        let c = Complex64::from_real;
        let cases: [(Vec<Complex64>, Vec<Complex64>, Vec<Complex64>); 2] = [
            (vec![z, z], vec![z, one], vec![z, z]),
            (vec![z, c(2.0), z], vec![c(2.0), one, one], vec![one, z, z]),
        ];
        for (lower, diag, upper) in &cases {
            let rhs = vec![one; diag.len()];
            let Err(LinalgError::Singular { pivot }) = one_shot(lower, diag, upper, &rhs) else {
                panic!("reference must report a singular pivot");
            };
            let err = ThomasFactors::factor(lower, diag, upper).unwrap_err();
            assert!(
                matches!(err, LinalgError::Singular { pivot: p } if p == pivot),
                "{err:?} vs pivot {pivot}"
            );
        }
    }

    #[test]
    fn singular_pivot_index_is_flat_over_systems() {
        let one = Complex64::ONE;
        let z = Complex64::ZERO;
        // Three order-2 systems: the second and third are singular at
        // their first and second rows; the second is reported.
        let lower = [z, one];
        let upper = [one, z];
        let diags = [one, Complex64::from_real(2.0), z, one, one, one];
        let err = ThomasFactors::factor(&lower, &diags, &upper).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { pivot: 2 }), "{err:?}");
        // Only the third system singular, at its second row (1 - 1·1 = 0).
        let diags = [one, Complex64::from_real(2.0), one, one, one, one];
        let err = ThomasFactors::factor(&lower, &diags, &upper).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { pivot: 3 }), "{err:?}");
    }
}
