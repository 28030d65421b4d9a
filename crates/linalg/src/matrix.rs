use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{LinalgError, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// Sized for the Gaussian-process workloads in this repository: covariance
/// matrices of a few hundred rows. All storage is a single contiguous
/// `Vec<f64>`; element `(i, j)` lives at `i * cols + j`.
///
/// # Example
///
/// ```
/// use easybo_linalg::Matrix;
///
/// # fn main() -> Result<(), easybo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// ```
    /// use easybo_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(1, 2)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> crate::Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::RaggedRows {
                    first: ncols,
                    row: i,
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} entries", rows * cols),
                actual: format!("{} entries", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a symmetric `n x n` matrix by evaluating `f(i, j)` only on the
    /// lower triangle (`j <= i`) and mirroring — half the kernel evaluations
    /// of [`Matrix::from_fn`] for symmetric builders.
    pub fn symmetric_from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = f(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
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

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        Vector::from_iter((0..self.rows).map(|i| self[(i, j)]))
    }

    /// Flat row-major view of the underlying data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: vector length {} does not match matrix cols {}",
            x.len(),
            self.cols
        );
        let xs = x.as_slice();
        Vector::from_iter((0..self.rows).map(|i| {
            self.row(i)
                .iter()
                .zip(xs.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>()
        }))
    }

    /// Matrix-matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions {} and {} differ",
            self.cols, other.rows
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps inner accesses contiguous for row-major data.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Adds `value` to every diagonal entry in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, value: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += value;
        }
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    #[cfg(test)]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Elementwise `sum(self .* other)` — the trace of `self^T other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn frobenius_dot(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "frobenius_dot shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols` (unless the matrix is empty, in which
    /// case the row defines the column count).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(
            row.len(),
            self.cols,
            "push_row: row length {} does not match cols {}",
            row.len(),
            self.cols
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Returns `self` scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * alpha).collect(),
        }
    }

    /// Shrinks a square matrix to its leading `k`×`k` block in place.
    ///
    /// The surviving entries are moved, not recomputed, so the result is
    /// bitwise identical to the original leading block — this is what lets
    /// a Cholesky factor grown with [`crate::Cholesky::extend`] be restored
    /// exactly when trailing pseudo-points are popped.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `k > rows`.
    pub fn truncate_square(&mut self, k: usize) {
        assert!(self.is_square(), "truncate_square: matrix is not square");
        assert!(k <= self.rows, "truncate_square: {k} > {}", self.rows);
        let old = self.cols;
        for i in 1..k {
            self.data.copy_within(i * old..i * old + k, i * k);
        }
        self.data.truncate(k * k);
        self.rows = k;
        self.cols = k;
    }

    /// Grows a square lower-triangular matrix to `k`×`k` in place: row
    /// `i` keeps its entries `..=i` bit for bit, and every other entry —
    /// the strict upper triangle and the new rows — is zero. The buffer is
    /// reserved to exactly `k²` entries when it is too small, so growing
    /// back after [`Matrix::truncate_square`] reuses the allocation.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `k < rows`.
    pub(crate) fn grow_lower_square(&mut self, k: usize) {
        assert!(self.is_square(), "grow_lower_square: matrix is not square");
        assert!(k >= self.rows, "grow_lower_square: {k} < {}", self.rows);
        let old = self.cols;
        self.data.reserve_exact(k * k - self.data.len());
        self.data.resize(k * k, 0.0);
        // Bottom row first: row i moves from i·old to i·k >= i·old, so it
        // never lands on a row above it that has not moved yet.
        for i in (0..old).rev() {
            self.data.copy_within(i * old..i * old + i + 1, i * k);
            self.data[i * k + i + 1..(i + 1) * k].fill(0.0);
        }
        self.rows = k;
        self.cols = k;
    }

    /// Cheap necessary-condition check for symmetric positive definiteness:
    /// square, finite, strictly positive diagonal, symmetric, and every
    /// off-diagonal entry within the Cauchy–Schwarz bound
    /// `a_ij^2 <= a_ii * a_jj` (up to a small relative tolerance).
    ///
    /// This cannot *prove* positive definiteness (only a factorization can),
    /// but any well-formed covariance matrix passes, so it makes a useful
    /// `debug_assert!` guard on the GP hot path: a failure means the kernel
    /// produced something that was never going to factorize, and the jitter
    /// ladder is about to paper over a real bug.
    pub fn is_spd_hint(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        if !self.data.iter().all(|v| v.is_finite()) {
            return false;
        }
        for i in 0..self.rows {
            if self[(i, i)] <= 0.0 {
                return false;
            }
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let aij = self[(i, j)];
                if (aij - self[(j, i)]).abs() > 1e-8 * aij.abs().max(1.0) {
                    return false;
                }
                let bound = self[(i, i)] * self[(j, j)];
                if aij * aij > bound * (1.0 + 1e-9) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks that the matrix is symmetric to within `tol`.
    #[cfg(test)]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Checks every entry is finite.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] naming `context` if any entry is
    /// NaN or infinite.
    pub fn ensure_finite(&self, context: &str) -> crate::Result<()> {
        if self.data.iter().all(|v| v.is_finite()) {
            Ok(())
        } else {
            Err(LinalgError::NonFinite {
                context: context.to_string(),
            })
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert!(Matrix::identity(2).is_square());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn indexing_is_row_major() {
        let m = sample();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn row_and_col_views() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1).as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        let x = Vector::from(vec![1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&x).as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn matmul_against_identity() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3), m);
        let i2 = Matrix::identity(2);
        assert_eq!(i2.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn add_diagonal_and_trace() {
        let mut m = Matrix::identity(3);
        m.add_diagonal(2.0);
        assert_eq!(m.trace(), 9.0);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "push_row")]
    fn push_row_wrong_width_panics() {
        let mut m = Matrix::zeros(1, 3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn truncate_square_keeps_leading_block_bitwise() {
        let m = Matrix::from_fn(5, 5, |i, j| ((i * 7 + j * 3) as f64 * 0.31).sin());
        let mut t = m.clone();
        t.truncate_square(3);
        assert_eq!(t.shape(), (3, 3));
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t[(i, j)].to_bits(), m[(i, j)].to_bits());
            }
        }
        let mut z = m.clone();
        z.truncate_square(0);
        assert_eq!(z.shape(), (0, 0));
        let mut full = m.clone();
        full.truncate_square(5);
        assert_eq!(full, m);
    }

    #[test]
    fn grow_lower_square_keeps_lower_triangle_and_reuses_its_buffer() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j + 1) as f64);
        m.grow_lower_square(6);
        assert_eq!(m.data.capacity(), 36, "exact reservation");
        for i in 0..6 {
            for j in 0..6 {
                let expect = if i < 4 && j <= i {
                    (i * 4 + j + 1) as f64
                } else {
                    0.0
                };
                assert_eq!(m[(i, j)].to_bits(), expect.to_bits(), "({i}, {j})");
            }
        }
        m.truncate_square(2);
        m.grow_lower_square(6);
        assert_eq!(m.data.capacity(), 36, "regrowth reuses the allocation");
        assert_eq!(m[(1, 0)], 5.0);
        assert_eq!(m[(1, 1)], 6.0);
        assert!(m.as_slice()[8..].iter().all(|&v| v == 0.0));
        let mut e = Matrix::zeros(0, 0);
        e.grow_lower_square(2);
        assert_eq!(e, Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "truncate_square")]
    fn truncate_square_rejects_growth() {
        Matrix::identity(2).truncate_square(3);
    }

    #[test]
    fn spd_hint_accepts_covariance_shapes() {
        // A well-formed kernel matrix: symmetric, unit-ish diagonal,
        // off-diagonals below the Cauchy–Schwarz bound.
        let k = Matrix::symmetric_from_fn(4, |i, j| {
            if i == j {
                1.5
            } else {
                1.2 * (-0.5 * ((i as f64 - j as f64).powi(2))).exp()
            }
        });
        assert!(k.is_spd_hint());
    }

    #[test]
    fn spd_hint_rejects_malformed_matrices() {
        assert!(!Matrix::zeros(2, 3).is_spd_hint());
        // Zero diagonal.
        assert!(!Matrix::zeros(2, 2).is_spd_hint());
        // Non-finite entry.
        let mut nan = Matrix::identity(2);
        nan[(0, 1)] = f64::NAN;
        assert!(!nan.is_spd_hint());
        // Asymmetric.
        let asym = Matrix::from_rows(&[&[1.0, 0.5], &[0.1, 1.0]]).unwrap();
        assert!(!asym.is_spd_hint());
        // Cauchy–Schwarz violation: |a01| > sqrt(a00 * a11).
        let cs = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(!cs.is_spd_hint());
        // Hint only: this matrix passes every cheap test yet is indefinite.
        let sneaky =
            Matrix::from_rows(&[&[1.0, 0.9, -0.9], &[0.9, 1.0, 0.9], &[-0.9, 0.9, 1.0]]).unwrap();
        assert!(sneaky.is_spd_hint());
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1.0));
    }

    #[test]
    fn frobenius_ops() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.frobenius_dot(&m), 25.0);
    }

    #[test]
    fn elementwise_add_sub_scale() {
        let a = Matrix::identity(2);
        let b = a.scaled(3.0);
        assert_eq!((&a + &b)[(0, 0)], 4.0);
        assert_eq!((&b - &a)[(1, 1)], 2.0);
        assert_eq!((&a * 5.0)[(0, 0)], 5.0);
    }

    #[test]
    fn symmetric_from_fn_mirrors_lower_triangle() {
        let mut evals = 0usize;
        let m = Matrix::symmetric_from_fn(4, |i, j| {
            evals += 1;
            assert!(j <= i, "builder must only see the lower triangle");
            (i * 10 + j) as f64
        });
        // n(n+1)/2 evaluations, not n².
        assert_eq!(evals, 10);
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m[(1, 2)], 21.0);
        assert_eq!(Matrix::symmetric_from_fn(0, |_, _| 1.0).shape(), (0, 0));
    }

    #[test]
    fn as_mut_slice_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.as_mut_slice()[3] = 7.0;
        assert_eq!(m[(1, 1)], 7.0);
    }

    #[test]
    fn ensure_finite_flags_bad_entries() {
        let mut m = Matrix::identity(2);
        assert!(m.ensure_finite("k").is_ok());
        m[(0, 1)] = f64::INFINITY;
        assert!(m.ensure_finite("k").is_err());
    }

    #[test]
    fn display_contains_shape() {
        let s = format!("{}", Matrix::identity(2));
        assert!(s.contains("2x2"));
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000
        ) {
            let m = Matrix::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 17 + seed as usize) % 97) as f64 - 48.0
            });
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_matmul_associative(n in 1usize..5, seed in 0u64..100) {
            let gen = |off: usize| {
                Matrix::from_fn(n, n, move |i, j| {
                    (((i * 7 + j * 13 + off + seed as usize) % 11) as f64 - 5.0) / 3.0
                })
            };
            let (a, b, c) = (gen(0), gen(3), gen(5));
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            prop_assert!((&left - &right).frobenius_norm() < 1e-9);
        }

        #[test]
        fn prop_matvec_linear(n in 1usize..6, alpha in -3.0..3.0f64) {
            let m = Matrix::from_fn(n, n, |i, j| (i as f64 - j as f64) * 0.5 + 1.0);
            let x = Vector::from_iter((0..n).map(|i| i as f64 + 0.5));
            let lhs = m.matvec(&x.scaled(alpha));
            let rhs = m.matvec(&x).scaled(alpha);
            prop_assert!((&lhs - &rhs).norm() < 1e-9 * (1.0 + rhs.norm()));
        }
    }
}
