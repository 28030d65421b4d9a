use crate::{LinalgError, Matrix, Vector};

/// Jitter ladder: relative jitter magnitudes tried in order when the plain
/// factorization fails (covariance matrices from clustered GP inputs are
/// frequently on the edge of positive definiteness).
const JITTER_LADDER: [f64; 7] = [0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4];

/// Lower-triangular Cholesky factorization `A = L L^T` of a symmetric
/// positive-definite matrix.
///
/// This is the single most important kernel in the Gaussian-process stack:
/// posterior means/variances, log marginal likelihood, log-determinants and
/// the pseudo-point augmentation of the EasyBO penalization scheme all run
/// through it.
///
/// # Example
///
/// ```
/// use easybo_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), easybo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve_vec(&Vector::from(vec![2.0, 1.0]));
/// assert!((a.matvec(&x)[0] - 2.0).abs() < 1e-12);
/// assert!((chol.log_det() - (4.0f64 * 3.0 - 4.0).ln()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
    jitter: f64,
}

impl Cholesky {
    /// Factorizes `a`, escalating the diagonal jitter if the plain
    /// factorization breaks down numerically.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/inf.
    /// * [`LinalgError::NotPositiveDefinite`] if the factorization fails even
    ///   with the maximum jitter.
    pub fn new(a: &Matrix) -> crate::Result<Self> {
        Self::new_counted(a).map(|(c, _)| c)
    }

    /// Like [`Cholesky::new`], but also reports how many rungs of the
    /// jitter ladder were climbed before the factorization succeeded
    /// (0 = the plain factorization worked). Callers use this to surface
    /// jitter escalation as a telemetry counter instead of a silent retry.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`].
    pub fn new_counted(a: &Matrix) -> crate::Result<(Self, usize)> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        a.ensure_finite("Cholesky input")?;
        let n = a.rows();
        let diag_scale = if n == 0 {
            1.0
        } else {
            ((0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64).max(1e-300)
        };
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for (bumps, &rel) in JITTER_LADDER.iter().enumerate() {
            let jitter = rel * diag_scale;
            match Self::factorize(a, jitter) {
                Ok(l) => return Ok((Cholesky { l, jitter }, bumps)),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Factorizes without any jitter escalation; fails on the first bad pivot.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`], except no jitter ladder is attempted.
    #[cfg(test)]
    pub fn new_exact(a: &Matrix) -> crate::Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        a.ensure_finite("Cholesky input")?;
        Self::factorize(a, 0.0).map(|l| Cholesky { l, jitter: 0.0 })
    }

    /// Rebuilds a factorization from a previously computed factor `l`
    /// and the `jitter` that produced it — the exact inverse of
    /// ([`Cholesky::factor`], [`Cholesky::jitter`]). Used to restore a
    /// factor that a checkpoint stored verbatim; re-running one full
    /// factorization is not bit-identical to a factor that was grown
    /// incrementally with [`Cholesky::extend`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `l` is not square.
    /// * [`LinalgError::NonFinite`] if `l` or `jitter` is NaN/inf.
    pub fn from_parts(l: Matrix, jitter: f64) -> crate::Result<Self> {
        if !l.is_square() {
            return Err(LinalgError::NotSquare {
                rows: l.rows(),
                cols: l.cols(),
            });
        }
        l.ensure_finite("Cholesky factor")?;
        if !jitter.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "Cholesky jitter".to_string(),
            });
        }
        Ok(Cholesky { l, jitter })
    }

    /// Column-block width of the blocked factorization. 32 columns of f64
    /// keep the panel + a tile of the trailing matrix inside L1/L2 while
    /// making the trailing update (the O(n³) bulk of the work) stream
    /// contiguous rows.
    const BLOCK: usize = 32;

    /// Blocked (tiled) left-looking Cholesky factorization.
    ///
    /// The restructuring is bitwise identical to the textbook scalar
    /// triple loop (kept as `factorize_scalar` for the equivalence test):
    /// every element of `L` is produced by one accumulator that starts at
    /// `a[(i, j)]` (plus jitter on the diagonal), subtracts the `k`-terms
    /// in ascending order, and is divided/square-rooted last. Splitting
    /// the `k` range across blocks only inserts exact f64 store/load
    /// round-trips between subtractions, so the value sequence — and
    /// therefore any error surfaced by a bad pivot — is unchanged. The
    /// speedup comes purely from memory traffic: the trailing update
    /// walks contiguous row slices instead of strided columns.
    fn factorize(a: &Matrix, jitter: f64) -> crate::Result<Matrix> {
        let n = a.rows();
        // Working matrix: lower triangle of `a` with jitter added to the
        // diagonal; the strict upper triangle stays explicitly zero to
        // match the scalar algorithm's output layout.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let src = a.row(i);
            let dst = l.row_mut(i);
            dst[..=i].copy_from_slice(&src[..=i]);
            dst[i] += jitter;
        }
        let data = l.as_mut_slice();
        let mut jb = 0;
        while jb < n {
            let jend = (jb + Self::BLOCK).min(n);
            // Panel factorization: columns jb..jend, all rows below.
            for j in jb..jend {
                let (head, tail) = data.split_at_mut((j + 1) * n);
                let row_j = &mut head[j * n..];
                let mut diag = row_j[j];
                for &ljk in &row_j[jb..j] {
                    diag -= ljk * ljk;
                }
                if diag <= 0.0 || !diag.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite {
                        pivot: j,
                        value: diag,
                    });
                }
                let ljj = diag.sqrt();
                row_j[j] = ljj;
                for row_i in tail.chunks_exact_mut(n) {
                    let mut v = row_i[j];
                    for (&lik, &ljk) in row_i[jb..j].iter().zip(&row_j[jb..j]) {
                        v -= lik * ljk;
                    }
                    row_i[j] = v / ljj;
                }
            }
            // Trailing update: fold this block's k-terms into every
            // element of the remaining lower triangle.
            for i in jend..n {
                let (head, tail) = data.split_at_mut(i * n);
                let row_i = &mut tail[..n];
                for c in jend..i {
                    let row_c = &head[c * n + jb..c * n + jend];
                    let mut v = row_i[c];
                    for (&lik, &lck) in row_i[jb..jend].iter().zip(row_c) {
                        v -= lik * lck;
                    }
                    row_i[c] = v;
                }
                let mut v = row_i[i];
                for &lik in &row_i[jb..jend] {
                    v -= lik * lik;
                }
                row_i[i] = v;
            }
            jb = jend;
        }
        Ok(l)
    }

    /// The reference scalar factorization the blocked [`Cholesky::factorize`]
    /// must reproduce bit for bit. Kept only for the equivalence test.
    #[cfg(test)]
    fn factorize_scalar(a: &Matrix, jitter: f64) -> crate::Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)] + jitter;
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: j,
                    value: diag,
                });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(l)
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Diagonal jitter that was added to achieve positive definiteness
    /// (0.0 when the plain factorization succeeded).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Solves `L y = b` (forward substitution), four rows at a time.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &Vector) -> Vector {
        assert_eq!(b.len(), self.dim(), "solve_lower dimension mismatch");
        let mut y = b.clone();
        self.forward_in_place(y.as_mut_slice());
        y
    }

    /// Overwrites `y`, holding `b`, with the solution of `L y = b`: rows
    /// in blocks of four, then the last `n mod 4` one at a time. The one
    /// forward-substitution kernel of a single right-hand side.
    fn forward_in_place(&self, y: &mut [f64]) {
        let n = y.len();
        let blocked = n - n % 4;
        for i in (0..blocked).step_by(4) {
            self.forward_rows::<4>(y, i);
        }
        for i in blocked..n {
            self.forward_rows::<1>(y, i);
        }
    }

    /// Forward-substitutes rows `i..i + R` of `L y = b` in place, given
    /// `y[..i]` solved and `y[i..i + R]` still holding `b`. The shared
    /// prefix `k < i` runs as `R` independent accumulation chains, then the
    /// diagonal block finishes the rows in order. Every row still subtracts
    /// its terms in ascending `k`, so the result is bit-identical to the
    /// row-by-row loop at any `R`.
    fn forward_rows<const R: usize>(&self, y: &mut [f64], i: usize) {
        let rows: [&[f64]; R] = std::array::from_fn(|r| &self.l.row(i + r)[..i + R]);
        let mut v: [f64; R] = std::array::from_fn(|r| y[i + r]);
        for (k, &yk) in y[..i].iter().enumerate() {
            for r in 0..R {
                v[r] -= rows[r][k] * yk;
            }
        }
        for r in 0..R {
            for k in i..i + r {
                v[r] -= rows[r][k] * y[k];
            }
            y[i + r] = v[r] / rows[r][i + r];
        }
    }

    /// Solves `L^T x = b` (backward substitution).
    ///
    /// Unlike [`Cholesky::solve_lower`] this stays one row at a time: in
    /// ascending `k` order, row `i` starts by subtracting the term of
    /// `x[i + 1]`, the row solved just before it, so rows cannot overlap
    /// without changing the result's bits.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower_transpose(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower_transpose dimension mismatch");
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut v = b[i];
            for k in (i + 1)..n {
                v -= self.l[(k, i)] * x[k];
            }
            x[i] = v / self.l[(i, i)];
        }
        x
    }

    /// Solves `L^T x = b` streaming the rows of `L` from the bottom up:
    /// once `x[j]` is known, row `j` leaves the rest of the right-hand side
    /// in one axpy over contiguous memory. The same solution as
    /// [`Cholesky::solve_lower_transpose`], which walks a column of `L` per
    /// unknown, but not the same rounding.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower_transpose_rows(&self, b: Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower_transpose_rows dimension mismatch");
        let mut x = b;
        let xs = x.as_mut_slice();
        for j in (0..n).rev() {
            let row = self.l.row(j);
            let (head, tail) = xs.split_at_mut(j);
            let xj = tail[0] / row[j];
            tail[0] = xj;
            for (xk, &l) in head.iter_mut().zip(&row[..j]) {
                *xk -= l * xj;
            }
        }
        x
    }

    /// Solves `A x = b` where `A = L L^T`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &Vector) -> Vector {
        self.solve_lower_transpose(&self.solve_lower(b))
    }

    /// Solves `L Y = B` for all columns of `B` in one forward-substitution
    /// sweep: a copy of `B` put through
    /// [`Cholesky::solve_lower_multi_in_place`].
    #[cfg(test)]
    fn solve_lower_multi(&self, b: &Matrix) -> Matrix {
        let mut y = b.clone();
        self.solve_lower_multi_in_place(&mut y);
        y
    }

    /// Overwrites `B` with the solution `Y` of `L Y = B`. Each column gets
    /// exactly the operations of [`Cholesky::solve_lower`] in the same
    /// order, so the result is bit-identical to solving column by column.
    /// Row `i` is finished in groups of 16, then 4, columns whose running
    /// sums stay in registers across the whole `k` sweep. Each of the last
    /// `m mod 4` columns is gathered into one contiguous buffer and solved
    /// by [`Cholesky::solve_lower`]'s four-row kernel; a single column is
    /// contiguous already and is solved where it lies. This is what the
    /// GP posterior runs on each query block of `K*`, a batch of one
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != dim()`.
    pub fn solve_lower_multi_in_place(&self, b: &mut Matrix) {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_lower_multi dimension mismatch");
        let m = b.cols();
        let data = b.as_mut_slice();
        if m == 1 {
            self.forward_in_place(data);
            return;
        }
        let wide = m - m % 16;
        let narrow = m - m % 4;
        for i in 0..n {
            let li = &self.l.row(i)[..=i];
            let (done, rest) = data.split_at_mut(i * m);
            let yi = &mut rest[..m];
            for c in (0..wide).step_by(16) {
                forward_cols::<16>(li, done, yi, c);
            }
            for c in (wide..narrow).step_by(4) {
                forward_cols::<4>(li, done, yi, c);
            }
        }
        for c in narrow..m {
            let mut column: Vec<f64> = data[c..].iter().step_by(m).copied().collect();
            self.forward_in_place(&mut column);
            for (row, y) in data.chunks_exact_mut(m).zip(column) {
                row[c] = y;
            }
        }
    }

    /// Solves `L^T X = B` for all columns of `B` in one backward-substitution
    /// sweep; the multi-RHS counterpart of [`Cholesky::solve_lower_transpose`]
    /// with the same bit-identical-per-column guarantee as
    /// [`Cholesky::solve_lower_multi_in_place`]. Kept as the test reference for
    /// [`Cholesky::inverse`].
    #[cfg(test)]
    fn solve_lower_transpose_multi(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(
            b.rows(),
            n,
            "solve_lower_transpose_multi dimension mismatch"
        );
        let m = b.cols();
        let mut x = b.clone();
        let data = x.as_mut_slice();
        for i in (0..n).rev() {
            let (head, tail) = data.split_at_mut((i + 1) * m);
            let xi = &mut head[i * m..];
            for k in (i + 1)..n {
                let lki = self.l[(k, i)];
                let xk = &tail[(k - i - 1) * m..(k - i) * m];
                for (a, &v) in xi.iter_mut().zip(xk) {
                    *a -= lki * v;
                }
            }
            let lii = self.l[(i, i)];
            for a in xi.iter_mut() {
                *a /= lii;
            }
        }
        x
    }

    /// Solves `A X = B` where `A = L L^T`, all columns at once: the full
    /// n³ solve whose lower triangle [`Cholesky::inverse`] reproduces.
    #[cfg(test)]
    fn solve_mat(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim(), "solve_mat dimension mismatch");
        self.solve_lower_transpose_multi(&self.solve_lower_multi(b))
    }

    /// Log-determinant of the factored matrix: `2 * sum(log L_ii)`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Explicit inverse `A^{-1}`, exactly symmetric; used for the log
    /// marginal likelihood gradient and the leave-one-out diagonal.
    ///
    /// Only the lower triangle is computed — forward then backward
    /// substitution on the identity, in place, skipping the known zeros
    /// of `L^{-1}` — and then mirrored: about n³/3 multiply-subtracts
    /// instead of n³. Each lower-triangle entry is bit-identical to the
    /// full multi-RHS solve of the identity, because every skipped term
    /// would only subtract an exact zero.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut x = Matrix::identity(n);
        let data = x.as_mut_slice();
        // Forward: row k of L^{-1} is zero beyond column k, so row i takes
        // the terms l_ik·y_k of ascending k only in columns ..=k.
        for i in 0..n {
            let li = self.l.row(i);
            let (done, rest) = data.split_at_mut(i * n);
            for (k, &lik) in li[..i].iter().enumerate() {
                for (a, &v) in rest[..=k].iter_mut().zip(&done[k * n..]) {
                    *a -= lik * v;
                }
            }
            rest[..=i].iter_mut().for_each(|a| *a /= li[i]);
        }
        // Backward: the lower triangle of row i needs only the lower
        // triangles of the rows below it.
        for i in (0..n).rev() {
            let (head, tail) = data.split_at_mut((i + 1) * n);
            let xi = &mut head[i * n..=i * n + i];
            for (k, xk) in (i + 1..n).zip(tail.chunks_exact(n)) {
                let lki = self.l[(k, i)];
                for (a, &v) in xi.iter_mut().zip(xk) {
                    *a -= lki * v;
                }
            }
            let lii = self.l[(i, i)];
            xi.iter_mut().for_each(|a| *a /= lii);
        }
        for i in 0..n {
            for j in 0..i {
                data[j * n + i] = data[i * n + j];
            }
        }
        x
    }

    /// Extends the factorization with one appended row/column of the
    /// underlying matrix (an O(n^2) incremental update).
    ///
    /// If `A' = [[A, c], [c^T, d]]` then `L' = [[L, 0], [w^T, s]]` with
    /// `w = L^{-1} c` and `s = sqrt(d - w^T w)`. This powers the EasyBO
    /// penalization scheme, which appends hallucinated pseudo-points to the
    /// GP one at a time. The existing factor block is kept verbatim, so
    /// [`Cholesky::truncate`] can later restore it bit for bit.
    ///
    /// Returns `true` when the pragmatic duplicate-point floor was applied
    /// to the new pivot — i.e. the appended point was numerically on top
    /// of an existing one. Callers surface this as the
    /// `cholesky_jitter_bumps` telemetry counter.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if the Schur complement
    /// `d - w^T w` is not positive (after retrying with the stored jitter).
    ///
    /// # Panics
    ///
    /// Panics if `cross.len() != dim()`.
    pub fn extend(&mut self, cross: &Vector, diag: f64) -> crate::Result<bool> {
        assert_eq!(
            cross.len(),
            self.dim(),
            "extend: cross-covariance length mismatch"
        );
        self.extend_solved(&self.solve_lower(cross), diag)
    }

    /// [`Cholesky::extend`] for a caller that already holds the forward
    /// solve `w = L⁻¹ c` of the cross-covariance column — the GP's
    /// pseudo-point push computes it once for both the hallucinated mean
    /// and the factor. Bit-identical to `extend(c, diag)`.
    ///
    /// The factor grows in place: its buffer is reserved to exactly
    /// `(n+1)²` entries when it is too small and otherwise reused, so a
    /// push after a [`Cholesky::truncate`] allocates nothing.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::extend`]; on error the factor is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != dim()`.
    pub fn extend_solved(&mut self, w: &Vector, diag: f64) -> crate::Result<bool> {
        let n = self.dim();
        assert_eq!(
            w.len(),
            n,
            "extend: solved cross-covariance length mismatch"
        );
        let mut s2 = diag + self.jitter - w.dot(w);
        let mut floored = false;
        if s2 <= 0.0 || !s2.is_finite() {
            // One more chance with a pragmatic floor: the pseudo-point is
            // numerically on top of an existing point.
            let floor = 1e-10 * diag.abs().max(1.0);
            if s2 > -floor {
                s2 = floor;
                floored = true;
            } else {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: n,
                    value: s2,
                });
            }
        }
        self.l.grow_lower_square(n + 1);
        self.l.row_mut(n)[..n].copy_from_slice(w.as_slice());
        self.l[(n, n)] = s2.sqrt();
        Ok(floored)
    }

    /// Shrinks the factorization to the leading `k`×`k` block of the
    /// factored matrix — the O(n²) *trailing downdate*.
    ///
    /// Because [`Cholesky::extend`] never touches the existing block, a
    /// `truncate` back to a previous dimension restores that factor
    /// **bit for bit**: this is the `pop_pseudo` half of the penalization
    /// inner loop, which pushes hallucinated points and must return to the
    /// exact pre-push state. The buffer keeps its allocation for the next
    /// push.
    ///
    /// # Panics
    ///
    /// Panics if `k > dim()`.
    pub fn truncate(&mut self, k: usize) {
        assert!(
            k <= self.dim(),
            "truncate: {k} exceeds factored dimension {}",
            self.dim()
        );
        self.l.truncate_square(k);
    }

    /// Reconstructs `L L^T`.
    #[cfg(test)]
    pub fn reconstruct(&self) -> Matrix {
        self.l.matmul(&self.l.transpose())
    }
}

/// Finishes columns `c..c + G` of row `i = li.len() - 1` of a
/// multi-RHS forward substitution whose rows `..i` are solved in `done`
/// (row stride `yi.len()`): each column subtracts `l_ik·y_kc` in
/// ascending `k`, then divides by `l_ii`, exactly like
/// [`Cholesky::solve_lower`].
#[inline(always)]
fn forward_cols<const G: usize>(li: &[f64], done: &[f64], yi: &mut [f64], c: usize) {
    let m = yi.len();
    let (lii, lk) = li.split_last().expect("row has a diagonal");
    let mut acc: [f64; G] = std::array::from_fn(|g| yi[c + g]);
    for (&lik, yk) in lk.iter().zip(done.chunks_exact(m)) {
        let yk = &yk[c..c + G];
        for g in 0..G {
            acc[g] -= lik * yk[g];
        }
    }
    for g in 0..G {
        yi[c + g] = acc[g] / lii;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random SPD matrix `M M^T + n*I` from a deterministic seed.
    fn spd(n: usize, seed: u64) -> Matrix {
        let m = Matrix::from_fn(n, n, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(j as u64)
                .wrapping_add(seed)
                .wrapping_mul(1442695040888963407);
            ((h >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = m.matmul(&m.transpose());
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factorizes_known_matrix() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let c = Cholesky::new_exact(&a).unwrap();
        let l = c.factor();
        assert_eq!(l[(0, 0)], 5.0);
        assert_eq!(l[(1, 0)], 3.0);
        assert_eq!(l[(1, 1)], 3.0);
        assert_eq!(l[(2, 0)], -1.0);
        assert_eq!(l[(2, 1)], 1.0);
        assert_eq!(l[(2, 2)], 3.0);
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        // Eigenvalues 3 and -1: no reasonable jitter can fix this.
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_recovers_near_singular() {
        // Rank-1 matrix: plain factorization fails, jitter ladder succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert!(c.jitter() > 0.0);
        assert!(Cholesky::new_exact(&a).is_err());
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd(6, 42);
        let c = Cholesky::new(&a).unwrap();
        let x_true = Vector::from_iter((0..6).map(|i| (i as f64) - 2.5));
        let b = a.matvec(&x_true);
        let x = c.solve_vec(&b);
        assert!((&x - &x_true).norm() < 1e-9);
    }

    #[test]
    fn solve_mat_matches_columnwise() {
        let a = spd(4, 7);
        let c = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(4, 2, |i, j| (i + 2 * j) as f64);
        let x = c.solve_mat(&b);
        for j in 0..2 {
            let col = c.solve_vec(&b.col(j));
            for i in 0..4 {
                assert!((x[(i, j)] - col[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_lower_multi_bitwise_matches_scalar() {
        // Every remainder of the 4-row block, and every mix of 16- and
        // 4-column groups with 0 to 3 gathered columns.
        for n in [7, 8, 9, 10] {
            let c = Cholesky::new(&spd(n, 23)).unwrap();
            for m in [1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 21, 32, 37] {
                let b = Matrix::from_fn(n, m, |i, j| ((i * 3 + j * 7) as f64 * 0.37).sin());
                let y = c.solve_lower_multi(&b);
                let x = c.solve_lower_transpose_multi(&b);
                for j in 0..m {
                    let col = b.col(j);
                    let y_col = solve_lower_scalar(&c, &col);
                    let x_col = c.solve_lower_transpose(&col);
                    for i in 0..n {
                        // Exact bits: the multi-RHS sweep performs the same
                        // floating-point operations in the same order per
                        // column.
                        assert_eq!(
                            y[(i, j)].to_bits(),
                            y_col[i].to_bits(),
                            "forward n={n} m={m} ({i}, {j})"
                        );
                        assert_eq!(
                            x[(i, j)].to_bits(),
                            x_col[i].to_bits(),
                            "backward n={n} m={m} ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    /// The row-by-row forward substitution the blocked
    /// [`Cholesky::solve_lower`] must reproduce bit for bit.
    fn solve_lower_scalar(c: &Cholesky, b: &Vector) -> Vector {
        let n = c.dim();
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut v = b[i];
            for k in 0..i {
                v -= c.l[(i, k)] * y[k];
            }
            y[i] = v / c.l[(i, i)];
        }
        y
    }

    #[test]
    fn blocked_solve_lower_bitwise_matches_scalar() {
        // Every remainder of the 4-row block, plus a paper-size factor.
        for n in (0..=9).chain([260]) {
            let c = Cholesky::new(&spd(n, n as u64 + 11)).unwrap();
            for rhs in 0..3 {
                let b = Vector::from_iter((0..n).map(|i| ((i * 7 + rhs * 13) as f64 * 0.31).sin()));
                let blocked = c.solve_lower(&b);
                let scalar = solve_lower_scalar(&c, &b);
                for (x, y) in blocked.iter().zip(scalar.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} rhs={rhs}");
                }
            }
        }
    }

    #[test]
    fn triangular_inverse_is_bitwise_full_solve_and_symmetric() {
        for &n in &[0usize, 1, 2, 3, 4, 5, 9, 33, 97] {
            let c = Cholesky::new(&spd(n, n as u64 + 5)).unwrap();
            let inv = c.inverse();
            let full = c.solve_mat(&Matrix::identity(n));
            for i in 0..n {
                for j in 0..=i {
                    assert_eq!(
                        inv[(i, j)].to_bits(),
                        full[(i, j)].to_bits(),
                        "n={n} ({i}, {j})"
                    );
                    assert_eq!(inv[(i, j)].to_bits(), inv[(j, i)].to_bits(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn row_streaming_transpose_solve_matches_the_column_walk() {
        for n in [1usize, 2, 7, 40] {
            let c = Cholesky::new(&spd(n, 3 + n as u64)).unwrap();
            let b = Vector::from_iter((0..n).map(|i| (i as f64 * 0.7).sin() + 0.2));
            let want = c.solve_lower_transpose(&b);
            let got = c.solve_lower_transpose_rows(b);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!(
                    (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                    "n = {n}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn solve_multi_handles_empty_rhs() {
        let c = Cholesky::new(&spd(3, 1)).unwrap();
        assert_eq!(c.solve_lower_multi(&Matrix::zeros(3, 0)).shape(), (3, 0));
        let e = Cholesky::new(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(e.solve_mat(&Matrix::zeros(0, 4)).shape(), (0, 4));
    }

    #[test]
    fn log_det_matches_2x2_analytic() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let c = Cholesky::new_exact(&a).unwrap();
        assert!((c.log_det() - 8f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd(5, 3);
        let c = Cholesky::new(&a).unwrap();
        let inv = c.inverse();
        let prod = a.matmul(&inv);
        assert!((&prod - &Matrix::identity(5)).frobenius_norm() < 1e-8);
    }

    #[test]
    fn extend_matches_full_factorization() {
        let big = spd(7, 19);
        // Factor the leading 6x6 block, then extend by the last row/col.
        let lead = Matrix::from_fn(6, 6, |i, j| big[(i, j)]);
        let mut c = Cholesky::new_exact(&lead).unwrap();
        let cross = Vector::from_iter((0..6).map(|i| big[(i, 6)]));
        c.extend(&cross, big[(6, 6)]).unwrap();
        let full = Cholesky::new_exact(&big).unwrap();
        assert!((&c.reconstruct() - &full.reconstruct()).frobenius_norm() < 1e-9);
        assert!((c.log_det() - full.log_det()).abs() < 1e-9);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let a = spd(6, 23);
        let mut c = Cholesky::new(&a).unwrap();
        // Grow incrementally so the factor is NOT reproducible by
        // refactorizing — exactly the case resume has to handle.
        let cross = Vector::from_iter((0..6).map(|i| a[(i, 0)] * 0.5));
        c.extend(&cross, a[(0, 0)] + 1.0).unwrap();
        let rebuilt = Cholesky::from_parts(c.factor().clone(), c.jitter()).unwrap();
        assert_eq!(rebuilt, c);
        let b = Vector::from_iter((0..7).map(|i| i as f64 - 3.0));
        assert_eq!(rebuilt.solve_vec(&b).as_slice(), c.solve_vec(&b).as_slice());
    }

    #[test]
    fn from_parts_rejects_bad_input() {
        assert!(Cholesky::from_parts(Matrix::zeros(2, 3), 0.0).is_err());
        assert!(Cholesky::from_parts(Matrix::zeros(2, 2), f64::NAN).is_err());
        let mut m = Matrix::identity(2);
        m[(1, 1)] = f64::INFINITY;
        assert!(Cholesky::from_parts(m, 0.0).is_err());
    }

    #[test]
    fn extend_handles_duplicate_point() {
        // Extending with an identical row makes the Schur complement ~0;
        // the floor should keep the factorization alive.
        let a = spd(3, 5);
        let mut c = Cholesky::new(&a).unwrap();
        let cross = Vector::from_iter((0..3).map(|i| a[(i, 0)]));
        c.extend(&cross, a[(0, 0)]).unwrap();
        assert_eq!(c.dim(), 4);
        assert!(c.factor()[(3, 3)] > 0.0);
    }

    #[test]
    fn blocked_factorize_bitwise_matches_scalar_reference() {
        // Sizes straddling the block width, including multi-block tails.
        for &n in &[0usize, 1, 2, 5, 31, 32, 33, 63, 64, 65, 97] {
            let a = spd(n, n as u64 + 3);
            for &jitter in &[0.0, 1e-6] {
                let blocked = Cholesky::factorize(&a, jitter).unwrap();
                let scalar = Cholesky::factorize_scalar(&a, jitter).unwrap();
                for (b, s) in blocked.as_slice().iter().zip(scalar.as_slice()) {
                    assert_eq!(b.to_bits(), s.to_bits(), "n={n} jitter={jitter}");
                }
            }
        }
    }

    #[test]
    fn blocked_factorize_fails_like_scalar() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let b = Cholesky::factorize(&a, 0.0).unwrap_err();
        let s = Cholesky::factorize_scalar(&a, 0.0).unwrap_err();
        match (b, s) {
            (
                LinalgError::NotPositiveDefinite {
                    pivot: pb,
                    value: vb,
                },
                LinalgError::NotPositiveDefinite {
                    pivot: ps,
                    value: vs,
                },
            ) => {
                assert_eq!(pb, ps);
                assert_eq!(vb.to_bits(), vs.to_bits());
            }
            other => panic!("expected matching NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn new_counted_reports_jitter_ladder_bumps() {
        let (c, bumps) = Cholesky::new_counted(&spd(4, 9)).unwrap();
        assert_eq!(bumps, 0);
        assert_eq!(c.jitter(), 0.0);
        // Rank-1 matrix needs the ladder.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let (c, bumps) = Cholesky::new_counted(&a).unwrap();
        assert!(bumps > 0);
        assert!(c.jitter() > 0.0);
    }

    #[test]
    fn truncate_restores_pre_extend_factor_bitwise() {
        let a = spd(5, 31);
        let c0 = Cholesky::new_exact(&a).unwrap();
        let mut c = c0.clone();
        for step in 0..3 {
            let cross = Vector::from_iter((0..c.dim()).map(|i| a[(i % 5, step % 5)] * 0.4));
            c.extend(&cross, a[(step, step)] + 2.0).unwrap();
        }
        assert_eq!(c.dim(), 8);
        c.truncate(5);
        assert_eq!(c, c0);
        for (x, y) in c.factor().as_slice().iter().zip(c0.factor().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The reallocating extension the in-place [`Cholesky::extend`] must
    /// reproduce bit for bit: a fresh zeroed `(n+1)²` factor with the old
    /// lower triangle copied in, then the new row.
    fn extend_reallocating(c: &mut Cholesky, cross: &Vector, diag: f64) -> bool {
        let n = c.dim();
        let w = c.solve_lower(cross);
        let mut s2 = diag + c.jitter - w.dot(&w);
        let mut floored = false;
        if s2 <= 0.0 || !s2.is_finite() {
            let floor = 1e-10 * diag.abs().max(1.0);
            assert!(s2 > -floor, "reference extend lost positive definiteness");
            s2 = floor;
            floored = true;
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..=i].copy_from_slice(&c.l.row(i)[..=i]);
        }
        grown.row_mut(n)[..n].copy_from_slice(w.as_slice());
        grown[(n, n)] = s2.sqrt();
        c.l = grown;
        floored
    }

    fn assert_same_bits(a: &Cholesky, b: &Cholesky, what: &str) {
        assert_eq!(a.factor().shape(), b.factor().shape(), "{what}");
        assert_eq!(a.jitter().to_bits(), b.jitter().to_bits(), "{what}");
        for (x, y) in a.factor().as_slice().iter().zip(b.factor().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    #[test]
    fn in_place_extend_and_truncate_match_reallocating_factor() {
        // A paper-size base factor with 14 pseudo-points pushed, popped,
        // and pushed again (in a different order), plus a partial pop.
        let (base, live) = (260, 14);
        let a = spd(base + live, 41);
        let lead = Matrix::from_fn(base, base, |i, j| a[(i, j)]);
        let mut fast = Cholesky::new(&lead).unwrap();
        let mut reference = fast.clone();
        // `active[i]` is the row of `a` behind factor row `i`.
        let mut active: Vec<usize> = (0..base).collect();
        let mut push = |fast: &mut Cholesky, reference: &mut Cholesky, row: usize| {
            active.truncate(fast.dim());
            let cross = Vector::from_iter(active.iter().map(|&i| a[(i, row)]));
            let diag = a[(row, row)];
            let floored = fast.extend(&cross, diag).unwrap();
            assert_eq!(floored, extend_reallocating(reference, &cross, diag));
            active.push(row);
            assert_same_bits(fast, reference, &format!("push to {}", active.len()));
        };
        let pushes: Vec<usize> = (base..base + live).collect();
        for &row in &pushes {
            push(&mut fast, &mut reference, row);
        }
        for k in (base..base + live).rev() {
            fast.truncate(k);
            reference.truncate(k);
            assert_same_bits(&fast, &reference, &format!("pop to {k}"));
        }
        assert_same_bits(&fast, &Cholesky::new(&lead).unwrap(), "popped to base");
        for &row in pushes.iter().rev() {
            push(&mut fast, &mut reference, row);
        }
        fast.truncate(base + 5);
        reference.truncate(base + 5);
        for &row in &pushes[..3] {
            push(&mut fast, &mut reference, row);
        }
    }

    #[test]
    fn in_place_extend_clears_a_stale_upper_triangle() {
        // A factor rebuilt from parts may carry junk above the diagonal;
        // the reallocating extend dropped it, so the in-place one must too.
        let a = spd(4, 3);
        let c = Cholesky::new(&a).unwrap();
        let mut l = c.factor().clone();
        l[(0, 3)] = 7.0;
        l[(1, 2)] = -2.0;
        let mut fast = Cholesky::from_parts(l, c.jitter()).unwrap();
        let mut reference = fast.clone();
        let cross = Vector::from_iter((0..4).map(|i| a[(i, 0)] * 0.3));
        fast.extend(&cross, a[(0, 0)] + 1.0).unwrap();
        extend_reallocating(&mut reference, &cross, a[(0, 0)] + 1.0);
        assert_same_bits(&fast, &reference, "stale upper triangle");
    }

    #[test]
    fn extend_solved_is_extend_with_the_solve_hoisted() {
        let a = spd(9, 13);
        let lead = Matrix::from_fn(8, 8, |i, j| a[(i, j)]);
        let mut c1 = Cholesky::new(&lead).unwrap();
        let mut c2 = c1.clone();
        let cross = Vector::from_iter((0..8).map(|i| a[(i, 8)]));
        c1.extend(&cross, a[(8, 8)]).unwrap();
        c2.extend_solved(&c2.solve_lower(&cross), a[(8, 8)])
            .unwrap();
        assert_same_bits(&c1, &c2, "extend_solved");
        // A failed extension leaves the factor untouched.
        let before = c2.clone();
        assert!(c2.extend_solved(&Vector::filled(9, 1e3), 1.0).is_err());
        assert_same_bits(&c2, &before, "failed extend");
    }

    #[test]
    fn remove_trailing_row_is_exact_truncation() {
        let a = spd(6, 17);
        let mut c = Cholesky::new_exact(&a).unwrap();
        let lead = Matrix::from_fn(5, 5, |i, j| a[(i, j)]);
        c.truncate(5);
        let direct = Cholesky::new_exact(&lead).unwrap();
        for (x, y) in c.factor().as_slice().iter().zip(direct.factor().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn remove_row_to_empty() {
        let a = Matrix::from_rows(&[&[4.0]]).unwrap();
        let mut c = Cholesky::new_exact(&a).unwrap();
        c.truncate(0);
        assert_eq!(c.dim(), 0);
    }

    #[test]
    fn extend_reports_duplicate_floor() {
        let a = spd(3, 5);
        let mut c = Cholesky::new(&a).unwrap();
        let fresh = Vector::from_iter((0..3).map(|i| a[(i, 0)] * 0.2));
        assert!(!c.extend(&fresh, a[(0, 0)] + 3.0).unwrap());
        // Re-appending row 0 exactly: Schur complement ~0, floor applies.
        let dup = Vector::from_iter((0..3).map(|i| a[(i, 0)]));
        let mut d = Cholesky::new(&a).unwrap();
        assert!(d.extend(&dup, a[(0, 0)]).unwrap());
    }

    #[test]
    fn empty_matrix_is_factored() {
        let a = Matrix::zeros(0, 0);
        let c = Cholesky::new(&a).unwrap();
        assert_eq!(c.dim(), 0);
        assert_eq!(c.log_det(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_reconstruction_accuracy(n in 1usize..12, seed in 0u64..500) {
            let a = spd(n, seed);
            let c = Cholesky::new(&a).unwrap();
            let rel = (&c.reconstruct() - &a).frobenius_norm() / a.frobenius_norm();
            prop_assert!(rel < 1e-10, "relative reconstruction error {rel}");
        }

        #[test]
        fn prop_solve_residual_small(n in 1usize..12, seed in 0u64..500) {
            let a = spd(n, seed);
            let c = Cholesky::new(&a).unwrap();
            let b = Vector::from_iter((0..n).map(|i| (i as f64 * 1.7).sin()));
            let x = c.solve_vec(&b);
            let r = (&a.matvec(&x) - &b).norm();
            prop_assert!(r < 1e-8 * (1.0 + b.norm()));
        }

        #[test]
        fn prop_log_det_positive_for_dominant(n in 1usize..10, seed in 0u64..200) {
            // spd() adds n*I so eigenvalues exceed ~1 for n >= 1; log det > 0.
            let a = spd(n, seed);
            let c = Cholesky::new(&a).unwrap();
            prop_assert!(c.log_det() > 0.0);
        }

        #[test]
        fn prop_update_downdate_composition_matches_from_scratch(
            n in 1usize..64,
            seed in 0u64..500,
            removals in 0usize..4,
        ) {
            // Grow a factor one appended row at a time, interleaving
            // trailing downdates (`truncate`). The composed factor must
            // reconstruct the same principal submatrix a fresh
            // factorization does, to 1e-10 relative error.
            let total = n + removals;
            let a = spd(total, seed);
            let mut active: Vec<usize> = vec![0];
            let mut c =
                Cholesky::new_exact(&Matrix::from_fn(1, 1, |_, _| a[(0, 0)])).unwrap();
            for next in 1..total {
                let cross =
                    Vector::from_iter(active.iter().map(|&i| a[(i, next)]));
                c.extend(&cross, a[(next, next)]).unwrap();
                active.push(next);
                // Interleave removals with appends.
                if removals > 0 && active.len() > n && active.len() % 5 == 4 {
                    active.pop();
                    c.truncate(active.len());
                }
            }
            while active.len() > n {
                active.pop();
                c.truncate(active.len());
            }
            let m = active.len();
            let sub = Matrix::from_fn(m, m, |i, j| a[(active[i], active[j])]);
            let rel = (&c.reconstruct() - &sub).frobenius_norm()
                / sub.frobenius_norm().max(1e-300);
            prop_assert!(rel < 1e-10, "n={n} removals={removals}: error {rel}");
            let full = Cholesky::new_exact(&sub).unwrap();
            prop_assert!((c.log_det() - full.log_det()).abs() < 1e-8 * (1.0 + full.log_det().abs()));
        }

        #[test]
        fn prop_blocked_factorize_is_bitwise_scalar(n in 1usize..64, seed in 0u64..300) {
            let a = spd(n, seed);
            let blocked = Cholesky::factorize(&a, 0.0).unwrap();
            let scalar = Cholesky::factorize_scalar(&a, 0.0).unwrap();
            for (b, s) in blocked.as_slice().iter().zip(scalar.as_slice()) {
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_extend_chain_matches_batch(n in 2usize..9, seed in 0u64..200) {
            let a = spd(n, seed);
            let lead = Matrix::from_fn(1, 1, |_, _| a[(0, 0)]);
            let mut c = Cholesky::new_exact(&lead).unwrap();
            for k in 1..n {
                let cross = Vector::from_iter((0..k).map(|i| a[(i, k)]));
                c.extend(&cross, a[(k, k)]).unwrap();
            }
            let full = Cholesky::new_exact(&a).unwrap();
            prop_assert!((c.log_det() - full.log_det()).abs() < 1e-8);
        }
    }
}
