use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::LinalgError;

/// A dense column vector of `f64` values.
///
/// `Vector` is a thin, owned wrapper over `Vec<f64>` providing the handful of
/// BLAS-1 style operations the Gaussian-process code needs (dot products,
/// norms, axpy) while keeping indexing ergonomic.
///
/// # Example
///
/// ```
/// use easybo_linalg::Vector;
///
/// let v = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v.dot(&v), 25.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    ///
    /// ```
    /// use easybo_linalg::Vector;
    /// let z = Vector::zeros(3);
    /// assert_eq!(z.len(), 3);
    /// assert_eq!(z.norm(), 0.0);
    /// ```
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a vector from an iterator of values.
    // An inherent `from_iter` keeps existing `Vector::from_iter(..)` call
    // sites working alongside the `FromIterator` impl below.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying `Vec<f64>`.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot product of vectors with lengths {} and {}",
            self.len(),
            other.len()
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean distance to another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn sq_dist(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "sq_dist length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// In-place `self += alpha * x` (the BLAS `axpy` operation).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, x: &Vector) {
        assert_eq!(self.len(), x.len(), "axpy length mismatch");
        for (s, xi) in self.data.iter_mut().zip(x.data.iter()) {
            *s += alpha * xi;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns a new vector with every element multiplied by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Vector {
        Vector::from_iter(self.data.iter().map(|v| v * alpha))
    }

    /// Largest element, or `f64::NEG_INFINITY` when empty.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element, or `f64::INFINITY` when empty.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Index of the largest element, or `None` when empty. NaN entries are
    /// skipped.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Sum of elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Checks every element is finite.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] naming `context` if any element is
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

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector::from_iter(iter)
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6}")?;
        }
        write!(f, "]")
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector add length mismatch");
        Vector::from_iter(self.iter().zip(rhs.iter()).map(|(a, b)| a + b))
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector sub length mismatch");
        Vector::from_iter(self.iter().zip(rhs.iter()).map(|(a, b)| a - b))
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::from_iter(self.iter().map(|a| -a))
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(4).as_slice(), &[0.0; 4]);
        assert_eq!(Vector::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn dot_and_norm() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
        assert!((a.norm() - 14f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "dot product")]
    fn dot_length_mismatch_panics() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        let x = Vector::from(vec![2.0, -1.0]);
        a.axpy(3.0, &x);
        assert_eq!(a.as_slice(), &[7.0, -2.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn add_sub_assign() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![0.5, 0.5]);
        a += &b;
        assert_eq!(a.as_slice(), &[1.5, 2.5]);
        a -= &b;
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn argmax_skips_nan() {
        let v = Vector::from(vec![1.0, f64::NAN, 3.0, 2.0]);
        assert_eq!(v.argmax(), Some(2));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn min_max_sum() {
        let v = Vector::from(vec![-1.0, 4.0, 2.0]);
        assert_eq!(v.min(), -1.0);
        assert_eq!(v.max(), 4.0);
        assert_eq!(v.sum(), 5.0);
    }

    #[test]
    fn ensure_finite_detects_nan() {
        let v = Vector::from(vec![1.0, f64::NAN]);
        assert!(matches!(
            v.ensure_finite("test"),
            Err(LinalgError::NonFinite { .. })
        ));
        assert!(Vector::zeros(3).ensure_finite("test").is_ok());
    }

    #[test]
    fn collect_and_extend() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let mut w = v;
        w.extend([5.0]);
        assert_eq!(w.len(), 4);
        assert_eq!(w[3], 5.0);
    }

    #[test]
    fn display_formats_elements() {
        let v = Vector::from(vec![1.0, 2.5]);
        assert_eq!(format!("{v}"), "[1.000000, 2.500000]");
    }

    proptest! {
        #[test]
        fn prop_dot_commutative(a in proptest::collection::vec(-1e3..1e3f64, 1..20)) {
            let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let va = Vector::from(a);
            let vb = Vector::from(b);
            prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() <= 1e-9 * (1.0 + va.norm() * vb.norm()));
        }

        #[test]
        fn prop_norm_triangle_inequality(
            a in proptest::collection::vec(-1e3..1e3f64, 1..20)
        ) {
            let b: Vec<f64> = a.iter().rev().cloned().collect();
            let va = Vector::from(a);
            let vb = Vector::from(b);
            let sum = &va + &vb;
            prop_assert!(sum.norm() <= va.norm() + vb.norm() + 1e-9);
        }

        #[test]
        fn prop_sq_dist_matches_norm(a in proptest::collection::vec(-1e2..1e2f64, 1..16)) {
            let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
            let va = Vector::from(a);
            let vb = Vector::from(b);
            let d = (&va - &vb).norm();
            prop_assert!((va.sq_dist(&vb) - d * d).abs() < 1e-8 * (1.0 + d * d));
        }
    }
}
