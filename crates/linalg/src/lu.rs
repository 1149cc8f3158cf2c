//! LU decomposition with partial pivoting, real and complex.
//!
//! The complex factorization backs the MNA circuit solver, whose AC
//! analysis solves `(G + jωC) x = b` per frequency point; the real one
//! solves the normal equations of [`crate::lstsq::lstsq`]. Both run the one
//! factor/solve body of [`Lu`], over `f64` ([`LuDecomposition`]) or
//! [`Complex64`] ([`CluDecomposition`]).

use crate::{CMatrix, Complex64, LinalgError, Tensor};
use std::ops::{Div, Mul, SubAssign};

/// Relative pivot threshold below which a matrix is declared singular.
const PIVOT_EPS: f64 = 1e-13;

/// An element type [`Lu`] factors over: `f64` or [`Complex64`].
pub trait LuScalar: Copy + Mul<Output = Self> + Div<Output = Self> + SubAssign {
    /// Modulus used to choose pivots and to detect singularity.
    fn modulus(self) -> f64;
}

impl LuScalar for f64 {
    fn modulus(self) -> f64 {
        self.abs()
    }
}

impl LuScalar for Complex64 {
    fn modulus(self) -> f64 {
        self.abs()
    }
}

/// LU factorization (with partial pivoting) of a square matrix.
///
/// A pivot is numerically zero when its modulus is at most
/// `1e-13 · max(1, max|a_ij|)`.
///
/// # Example
///
/// ```
/// use nofis_linalg::{lu::LuDecomposition, Tensor};
///
/// # fn main() -> Result<(), nofis_linalg::LinalgError> {
/// let a = Tensor::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T> {
    /// Packed L (unit lower, implicit diagonal) and U factors, row-major.
    lu: Vec<T>,
    /// Row permutation applied during pivoting.
    perm: Vec<usize>,
}

/// LU factorization of a real matrix.
pub type LuDecomposition = Lu<f64>;

/// LU factorization of a complex matrix, used to solve the AC
/// small-signal system `(G + jωC) x = b`.
pub type CluDecomposition = Lu<Complex64>;

impl Lu<f64> {
    /// Factorizes a real square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is numerically zero.
    pub fn new(a: &Tensor) -> Result<Self, LinalgError> {
        Lu::factor(a.rows(), a.cols(), a.as_slice())
    }
}

impl Lu<Complex64> {
    /// Factorizes a complex square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is numerically zero.
    pub fn new(a: &CMatrix) -> Result<Self, LinalgError> {
        Lu::factor(a.rows(), a.cols(), a.as_slice())
    }
}

impl<T: LuScalar> Lu<T> {
    /// Factorizes the `rows x cols` row-major matrix `a`.
    fn factor(rows: usize, cols: usize, a: &[T]) -> Result<Self, LinalgError> {
        if rows != cols {
            return Err(LinalgError::invalid(format!(
                "LU requires a square matrix, got {rows}x{cols}"
            )));
        }
        let n = rows;
        let mut lu = a.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = lu.iter().fold(1.0_f64, |m, z| m.max(z.modulus()));

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at or below row k.
            let mut p = k;
            let mut max = lu[k * n + k].modulus();
            for i in (k + 1)..n {
                let v = lu[i * n + k].modulus();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max <= PIVOT_EPS * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                perm.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let m = lu[i * n + k] / pivot;
                lu[i * n + k] = m;
                for j in (k + 1)..n {
                    let delta = m * lu[k * n + j];
                    lu[i * n + j] -= delta;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    #[allow(clippy::needless_range_loop)] // triangular solves read clearest indexed
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::shape(format!(
                "rhs of length {} for a system of dimension {n}",
                b.len()
            )));
        }
        // Apply permutation, then forward/backward substitution.
        let mut x: Vec<T> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest residual modulus `|(A x − b)_i|` of a row-major `A`.
    fn residual<T: LuScalar>(a: &[T], x: &[T], b: &[T]) -> f64 {
        let n = x.len();
        b.iter()
            .enumerate()
            .map(|(i, &bi)| {
                let mut r = bi;
                for (&aij, &xj) in a[i * n..(i + 1) * n].iter().zip(x) {
                    r -= aij * xj;
                }
                r.modulus()
            })
            .fold(0.0, f64::max)
    }

    /// Runs the shared cases through the one factor/solve body, on real
    /// entries lifted into `T` by `lift`.
    fn shared_cases<T: LuScalar>(lift: fn(f64) -> T) {
        let lifted = |xs: &[f64]| -> Vec<T> { xs.iter().map(|&x| lift(x)).collect() };

        // Well-conditioned system.
        let a = lifted(&[4.0, -2.0, 1.0, -2.0, 4.0, -2.0, 1.0, -2.0, 4.0]);
        let b = lifted(&[1.0, 2.0, 3.0]);
        let x = Lu::factor(3, 3, &a).unwrap().solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);

        // A zero leading diagonal forces a row swap.
        let a = lifted(&[0.0, 1.0, 1.0, 0.0]);
        let b = lifted(&[2.0, 5.0]);
        let x = Lu::factor(2, 2, &a).unwrap().solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-14);
        for (&xi, want) in x.iter().zip([5.0, 2.0]) {
            let mut err = xi;
            err -= lift(want) / lift(1.0);
            assert!(err.modulus() < 1e-14);
        }

        // Rank-deficient.
        let a = lifted(&[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            Lu::factor(2, 2, &a),
            Err(LinalgError::Singular { pivot: 1 })
        ));

        // Non-square.
        assert!(matches!(
            Lu::factor(2, 3, &lifted(&[0.0; 6])),
            Err(LinalgError::InvalidArgument { .. })
        ));

        // Wrong right-hand-side length.
        let lu = Lu::factor(
            3,
            3,
            &lifted(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
        )
        .unwrap();
        assert!(matches!(
            lu.solve(&lifted(&[1.0, 2.0])),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn real_cases() {
        shared_cases(|x| x);
    }

    #[test]
    fn complex_cases() {
        // A common complex factor leaves pivots, rank and solution alone.
        shared_cases(|x| Complex64::new(x, 0.5 * x));
    }

    #[test]
    fn real_solve_through_tensor() {
        let a = Tensor::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[3.0, 5.0])
            .unwrap();
        assert!(residual(a.as_slice(), &x, &[3.0, 5.0]) < 1e-12);
    }

    #[test]
    fn complex_solve_round_trip() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex64::new(1.0, 1.0);
        a[(0, 1)] = Complex64::new(0.0, -2.0);
        a[(1, 0)] = Complex64::new(3.0, 0.0);
        a[(1, 1)] = Complex64::new(1.0, -1.0);
        let b = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let lu = CluDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual(a.as_slice(), &x, &b) < 1e-12);
    }
}
