use crate::Complex64;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of [`Complex64`] values.
///
/// Used by AC small-signal analysis, where the MNA system matrix is
/// `G + jωC`.
///
/// # Example
///
/// ```
/// use nofis_linalg::{CMatrix, Complex64};
///
/// let mut y = CMatrix::zeros(2, 2);
/// y[(0, 0)] = Complex64::new(1.0, 0.5);
/// assert_eq!(y[(0, 0)].im, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;

    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}
