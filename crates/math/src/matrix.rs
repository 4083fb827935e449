//! Dense, row-major matrices and the vector helpers the rest of the
//! workspace builds on.
//!
//! The tuning algorithms in this workspace (Gaussian processes, Lasso, PCA,
//! NNLS, …) only ever need modest dimensions — tens of knobs, hundreds of
//! observations — so a straightforward `Vec<f64>`-backed dense matrix is both
//! simpler and faster than pulling in a full linear-algebra stack.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinAlgError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// The matrix was expected to be square.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// A decomposition failed because the matrix is singular or not
    /// positive definite (even after jitter was applied).
    NotPositiveDefinite,
    /// An iterative routine failed to converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinAlgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinAlgError::NotSquare { shape } => {
                write!(f, "matrix is not square: {}x{}", shape.0, shape.1)
            }
            LinAlgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinAlgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinAlgError {}

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged row lengths");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw row-major data, mutable.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: shape mismatch");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            out[i] = dot(self.row(i), x);
        }
        out
    }

    /// Matrix-matrix product `A * B`.
    ///
    /// Blocked over L1-sized tiles with a 4-row micro-kernel. Every output
    /// element accumulates its `k` terms in ascending order (tiles are
    /// visited in ascending `k`, and each tile scans ascending `k`), so for
    /// finite inputs the result is bitwise identical to the textbook
    /// `ikj` triple loop — blocking only reorders work *across* elements,
    /// never the rounding *within* one.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinAlgError> {
        if self.cols != other.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        // Tile sizes: a KB×JB block of `other` (64*256*8B = 128 KiB is too
        // big for L1 alone, but the micro-kernel streams it row by row, so
        // the hot set per step is 4 output rows + 1 `other` row segment).
        const KB: usize = 64;
        const JB: usize = 256;
        const IB: usize = 4;
        let (m, n, p) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, p);
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + KB).min(n);
            let mut j0 = 0;
            while j0 < p {
                let j1 = (j0 + JB).min(p);
                let mut i0 = 0;
                while i0 < m {
                    let i1 = (i0 + IB).min(m);
                    for i in i0..i1 {
                        let arow = self.row(i);
                        for k in k0..k1 {
                            let a = arow[k];
                            let brow = &other.data[k * p + j0..k * p + j1];
                            let orow = &mut out.data[i * p + j0..i * p + j1];
                            crate::simd::axpy_add(a, brow, orow);
                        }
                    }
                    i0 = i1;
                }
                j0 = j1;
            }
            k0 = k1;
        }
        Ok(out)
    }

    /// `A^T * A`, a common Gram-matrix building block.
    ///
    /// Row-blocked; each Gram entry accumulates its row terms in ascending
    /// row order, so the result is bitwise identical to the unblocked
    /// accumulation for finite inputs.
    pub fn gram(&self) -> Matrix {
        const RB: usize = 128;
        let mut g = Matrix::zeros(self.cols, self.cols);
        let mut i0 = 0;
        while i0 < self.rows {
            let i1 = (i0 + RB).min(self.rows);
            for i in i0..i1 {
                let r = self.row(i);
                for a in 0..self.cols {
                    let ra = r[a];
                    if ra == 0.0 {
                        continue;
                    }
                    let grow = &mut g.data[a * self.cols + a..a * self.cols + self.cols];
                    crate::simd::axpy_add(ra, &r[a..], grow);
                }
            }
            i0 = i1;
        }
        for a in 0..self.cols {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }

    /// Scales every element in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Adds `s` to every diagonal element (in place). Requires square.
    pub fn add_diagonal_mut(&mut self, s: f64) {
        debug_assert!(self.is_square());
        for i in 0..self.rows {
            self[(i, i)] += s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element difference to another matrix of equal shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
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

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }
}

// ---------------------------------------------------------------------------
// Vector helpers
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics (debug) if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `y += alpha * x` (BLAS axpy).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Element-wise subtraction `a - b` into a new vector.
pub fn vsub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise addition `a + b` into a new vector.
pub fn vadd(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Scales a vector into a new vector.
pub fn vscale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinAlgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]);
        let x = vec![3.0, 4.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![-1.0, 6.0 + 2.0]);
    }

    #[test]
    fn gram_equals_at_a() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        let expect = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        let c = &(&a + &b) - &b;
        assert!(c.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn vector_ops() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    /// Textbook ikj product — the reference the blocked kernel must match
    /// bit for bit on finite inputs.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a[(i, k)];
                for j in 0..b.cols() {
                    out[(i, j)] += v * b[(k, j)];
                }
            }
        }
        out
    }

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Deterministic splitmix-style fill; no RNG dependency needed here.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        })
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_reference() {
        // Shapes straddling the tile boundaries (KB=64, JB=256, IB=4).
        for (m, n, p, seed) in [
            (1, 1, 1, 1u64),
            (3, 5, 7, 2),
            (4, 64, 256, 3),
            (9, 65, 257, 4),
            (130, 70, 33, 5),
        ] {
            let a = pseudo_random_matrix(m, n, seed);
            let b = pseudo_random_matrix(n, p, seed ^ 0xFF);
            let fast = a.matmul(&b).unwrap();
            let slow = matmul_reference(&a, &b);
            for i in 0..m {
                for j in 0..p {
                    assert_eq!(
                        fast[(i, j)].to_bits(),
                        slow[(i, j)].to_bits(),
                        "({i},{j}) of {m}x{n}x{p}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_gram_is_bitwise_identical_to_transpose_product_order() {
        // gram accumulates rows in ascending order, exactly like summing
        // r[a]*r[b] over i — check against that scalar reference.
        for (rows, cols, seed) in [(1, 1, 7u64), (5, 3, 8), (129, 6, 9), (300, 11, 10)] {
            let a = pseudo_random_matrix(rows, cols, seed);
            let g = a.gram();
            for x in 0..cols {
                for y in x..cols {
                    let mut acc = 0.0f64;
                    for i in 0..rows {
                        acc += a[(i, x)] * a[(i, y)];
                    }
                    assert_eq!(g[(x, y)].to_bits(), acc.to_bits(), "({x},{y})");
                    assert_eq!(g[(y, x)].to_bits(), acc.to_bits(), "({y},{x})");
                }
            }
        }
    }

    #[test]
    fn diagonal_and_norms() {
        let mut a = Matrix::identity(3);
        a.add_diagonal_mut(1.0);
        assert_eq!(a[(1, 1)], 2.0);
        assert!((a.frobenius_norm() - (12.0f64).sqrt()).abs() < 1e-12);
    }
}
