//! Linear least squares via the normal equations.
//!
//! Scaled-sigma sampling (SSS) fits the model
//! `ln P(s) = alpha + beta * ln(s) + gamma / s^2` by least squares over a
//! handful of scale points. The design matrices involved are tiny (tens of
//! rows, 2–4 columns), so the normal-equation approach is accurate enough.

use crate::{lu::LuDecomposition, LinalgError, Tensor};

/// Solves `min_x || A x - b ||_2` via the normal equations `AᵀA x = Aᵀb`.
///
/// A small Tikhonov damping `ridge >= 0` may be supplied to stabilize
/// ill-conditioned fits (`ridge = 0` is plain least squares).
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `b.len() != a.rows()`.
/// * [`LinalgError::InvalidArgument`] if `a` has more columns than rows
///   (underdetermined) or `ridge` is negative/non-finite.
/// * [`LinalgError::Singular`] if `AᵀA + ridge·I` is singular.
///
/// # Example
///
/// ```
/// use nofis_linalg::{lstsq::lstsq, Tensor};
///
/// # fn main() -> Result<(), nofis_linalg::LinalgError> {
/// // Fit y = 2x + 1 exactly.
/// let a = Tensor::from_vec(3, 2, vec![0.0, 1.0, 1.0, 1.0, 2.0, 1.0]);
/// let x = lstsq(&a, &[1.0, 3.0, 5.0], 0.0)?;
/// assert!((x[0] - 2.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn lstsq(a: &Tensor, b: &[f64], ridge: f64) -> Result<Vec<f64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::shape(format!(
            "lstsq rhs of length {} for design matrix with {} rows",
            b.len(),
            a.rows()
        )));
    }
    if a.cols() > a.rows() {
        return Err(LinalgError::invalid(format!(
            "underdetermined system: {} rows < {} cols",
            a.rows(),
            a.cols()
        )));
    }
    if ridge < 0.0 || !ridge.is_finite() {
        return Err(LinalgError::invalid("ridge must be finite and >= 0"));
    }
    let at = a.transpose();
    let mut ata = at.matmul(a);
    for i in 0..ata.rows() {
        ata[(i, i)] += ridge;
    }
    let atb = at.matvec(b);
    LuDecomposition::new(&ata)?.solve(&atb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_is_recovered() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let x = lstsq(&a, &[1.0, 2.0, 3.0], 0.0).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_noise_is_averaged() {
        // y = c with observations 1.0 and 3.0 -> least squares gives 2.0.
        let a = Tensor::from_vec(2, 1, vec![1.0, 1.0]);
        let x = lstsq(&a, &[1.0, 3.0], 0.0).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ridge_shrinks_solution() {
        let a = Tensor::from_vec(2, 1, vec![1.0, 1.0]);
        let plain = lstsq(&a, &[2.0, 2.0], 0.0).unwrap()[0];
        let ridged = lstsq(&a, &[2.0, 2.0], 10.0).unwrap()[0];
        assert!(ridged.abs() < plain.abs());
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = Tensor::zeros(2, 3);
        assert!(lstsq(&a, &[0.0, 0.0], 0.0).is_err());
        let a = Tensor::zeros(3, 2);
        assert!(lstsq(&a, &[0.0, 0.0], 0.0).is_err()); // wrong rhs length
        assert!(lstsq(&a, &[0.0; 3], -1.0).is_err());
    }
}
