use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major 2-D tensor of `f64` values.
///
/// This is the workspace's one real matrix type. Rows index batch samples
/// and columns index features throughout the flow code: a batch of `N`
/// points in `R^D` is an `N x D` tensor. [`crate::lstsq::lstsq`] regresses
/// over it too.
///
/// # Example
///
/// ```
/// use nofis_linalg::Tensor;
///
/// let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(t[(1, 2)], 5.0);
/// assert_eq!(t.shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a `1 x 1` tensor holding a scalar.
    pub fn scalar(value: f64) -> Self {
        Tensor::filled(1, 1, value)
    }

    /// Creates a tensor by tabulating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of length {} cannot form a {rows}x{cols} tensor",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Creates a `1 x d` row tensor from a slice.
    pub fn from_row(row: &[f64]) -> Self {
        Tensor::from_vec(1, row.len(), row.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the tensor, returning its flat row-major buffer (used to
    /// recycle tape buffers into the autograd buffer pool).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a `1 x 1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map requires equal shapes");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `other * scale` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, scale: f64, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy requires equal shapes");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// Large products run row-partitioned on the process-wide
    /// [`nofis_parallel::global`] pool with bitwise-identical results to
    /// the serial kernel; small ones stay serial. This is the kernel behind
    /// both the forward matmul op and its backward gradients.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.matmul_with(rhs, nofis_parallel::global())
    }

    /// Matrix product `self * rhs` executed on an explicit pool.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_with(&self, rhs: &Tensor, pool: &nofis_parallel::ThreadPool) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul of {}x{} by {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        nofis_parallel::kernels::matmul_into(
            pool,
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            v.len(),
            self.cols,
            "matvec of {}x{} by vector of length {}",
            self.rows,
            self.cols,
            v.len()
        );
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Tensor {
        Tensor::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries (`NaN` for an empty tensor).
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{}:", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:>11.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(2, 2).sum(), 0.0);
        assert_eq!(Tensor::filled(2, 3, 1.5).sum(), 9.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::from_row(&[1.0, 2.0]).shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn from_vec_panics_on_bad_len() {
        let _ = Tensor::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matvec_matches_hand_result() {
        let a = Tensor::from_vec(2, 3, vec![1.0, -1.0, 2.0, 0.5, 3.0, -4.0]);
        assert_eq!(a.matvec(&[2.0, 1.0, -1.0]), vec![-1.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "matvec of 2x3")]
    fn matvec_panics_on_bad_len() {
        let _ = Tensor::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(1, 2)], a[(2, 1)]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_row(&[1.0, -2.0]);
        let b = Tensor::from_row(&[3.0, 4.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).as_slice(), &[3.0, -8.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_row(&[1.0, 1.0]);
        let b = Tensor::from_row(&[2.0, -1.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 0.5]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(2, 2, vec![1.0, -5.0, 2.0, 2.0]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max_abs(), 5.0);
        assert!(a.is_finite());
    }

    #[test]
    fn row_accessors() {
        let mut a = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
        a.row_mut(0)[0] = 9.0;
        assert_eq!(a[(0, 0)], 9.0);
    }
}
