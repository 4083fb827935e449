//! Cholesky decomposition and solves for symmetric positive-definite
//! systems — the workhorse behind Gaussian-process regression (iTuned,
//! OtterTune) and ridge regression.

use crate::matrix::{LinAlgError, Matrix};

/// Lower-triangular Cholesky factor `L` with `L * L^T = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Decomposes a symmetric positive-definite matrix.
    ///
    /// Returns [`LinAlgError::NotPositiveDefinite`] if a non-positive pivot
    /// is encountered; callers that work with near-singular kernels should
    /// prefer [`Cholesky::decompose_with_jitter`]. Only the lower triangle
    /// of `a` determines the factor.
    ///
    /// Left-looking and column by column: the entries of column `j` (rows
    /// `j..n`) do not depend on one another, so each finished column `k`
    /// updates a whole tile of them at once (the register-blocked
    /// `trsm4x8` micro-kernel the multi-RHS solve uses) instead of each
    /// entry running its own serial dot product.
    ///
    /// **Determinism contract:** every entry is still
    /// `a[i][j] − l[i][0]·l[j][0] − l[i][1]·l[j][1] − …` subtracted in
    /// ascending `k`, followed by the same `sqrt` or divide, so the factor
    /// is bit-identical to the textbook row-by-row loop. Pivots are checked
    /// in ascending order and pivot `j` depends only on rows `0..=j`, so the
    /// first failing pivot — and the `Err` — match too.
    pub fn decompose(a: &Matrix) -> Result<Self, LinAlgError> {
        if !a.is_square() {
            return Err(LinAlgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        debug_assert!(
            (0..n).all(|i| (0..n).all(|j| a[(i, j)].is_finite())),
            "Cholesky::decompose fed a non-finite matrix entry"
        );
        let mut l = Matrix::zeros(n, n);
        factor_columns(a.data(), n, l.data_mut())?;
        Ok(Cholesky { l })
    }

    /// Decomposes `A + jitter * I`, growing the jitter geometrically until
    /// the decomposition succeeds (up to `max_tries`). Returns the factor
    /// together with the jitter that was finally applied.
    ///
    /// Gaussian-process kernel matrices become numerically indefinite when
    /// two sampled configurations are nearly identical; the standard remedy
    /// is diagonal jitter.
    pub fn decompose_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64), LinAlgError> {
        match Self::decompose(a) {
            Ok(c) => return Ok((c, 0.0)),
            Err(LinAlgError::NotSquare { shape }) => return Err(LinAlgError::NotSquare { shape }),
            Err(_) => {}
        }
        let mut jitter = initial_jitter.max(f64::MIN_POSITIVE);
        for _ in 0..max_tries {
            let mut aj = a.clone();
            aj.add_diagonal_mut(jitter);
            if let Ok(c) = Self::decompose(&aj) {
                return Ok((c, jitter));
            }
            jitter *= 10.0;
        }
        Err(LinAlgError::NotPositiveDefinite)
    }

    /// Extends the factor by one row/column — the rank-1 **append** update.
    ///
    /// Given the factor of an `n × n` matrix `A`, incorporates the bordered
    /// matrix `[[A, b], [bᵀ, c]]` in `O(n²)` instead of refactoring from
    /// scratch in `O(n³)`. `row` is `b` (covariance of the new point against
    /// the existing ones) and `diag` is `c` (its self-covariance, including
    /// any noise/jitter the original matrix carried on its diagonal).
    ///
    /// The arithmetic — accumulation order included — is identical to what
    /// [`Cholesky::decompose`] performs for the last row of the bordered
    /// matrix, so an extended factor is bitwise equal to a from-scratch one.
    ///
    /// On failure (`c` minus the projection is not a positive pivot) the
    /// factor is left untouched and [`LinAlgError::NotPositiveDefinite`] is
    /// returned, so callers can fall back to a full refactorization.
    pub fn extend(&mut self, row: &[f64], diag: f64) -> Result<(), LinAlgError> {
        let n = self.dim();
        assert_eq!(row.len(), n, "extend: length mismatch");
        debug_assert!(
            row.iter().all(|v| v.is_finite()) && diag.is_finite(),
            "Cholesky::extend fed non-finite values"
        );
        // New bottom row of L: forward substitution against the existing
        // factor, then the Schur-complement pivot.
        let mut new_row = vec![0.0; n + 1];
        for j in 0..n {
            let mut sum = row[j];
            for k in 0..j {
                sum -= new_row[k] * self.l[(j, k)];
            }
            new_row[j] = sum / self.l[(j, j)];
        }
        let mut pivot = diag;
        for k in 0..n {
            pivot -= new_row[k] * new_row[k];
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(LinAlgError::NotPositiveDefinite);
        }
        new_row[n] = pivot.sqrt();
        // Commit: copy the old factor into the bordered one.
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        for (j, v) in new_row.iter().enumerate() {
            l[(n, j)] = *v;
        }
        self.l = l;
        Ok(())
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower: length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solves `L Y = B` for many right-hand sides at once (forward
    /// substitution over an `n × m` matrix whose columns are the RHS
    /// vectors).
    ///
    /// The multi-RHS layout turns the per-column dot products into
    /// contiguous row operations: each factor element `L[i][k]` is loaded
    /// once and applied across a whole block of columns, which is what
    /// makes batched GP variance computation a matmul-shaped kernel
    /// instead of `m` dependent scalar solves. Columns are processed in
    /// fixed-size blocks so the active rows of `Y` stay cache-resident
    /// next to `L`.
    ///
    /// **Determinism contract:** column `j` of the result is bitwise
    /// identical to `solve_lower(column j of B)` — the blocking reorders
    /// work across columns, never the accumulation order within one.
    pub fn solve_lower_multi(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_lower_multi: row-count mismatch");
        let m = b.cols();
        if m == 0 {
            return b.clone();
        }
        let mut y: Vec<f64> = b.data().to_vec();
        self.solve_lower_multi_in_place(&mut y, m);
        Matrix::from_vec(n, m, y)
    }

    /// In-place core of [`Cholesky::solve_lower_multi`]: `y` holds the
    /// `n × m` right-hand sides row-major on entry and the solved columns
    /// on exit. Callers that score pools repeatedly reuse one buffer here
    /// instead of paying a fresh multi-hundred-KB allocation (and its page
    /// faults) per call.
    pub(crate) fn solve_lower_multi_in_place(&self, y: &mut [f64], m: usize) {
        let n = self.dim();
        assert_eq!(y.len(), n * m, "solve_lower_multi: buffer size mismatch");
        if m == 0 {
            return;
        }
        // Column blocks keep the active slices of `Y` cache-resident; row
        // panels let each solved row `y_k` be loaded once and applied to a
        // whole panel of later rows (GEMM-style reuse) instead of being
        // re-streamed for every single row `i > k`. Neither blocking
        // changes the ascending-`k` update sequence any individual entry
        // sees.
        const JB: usize = 64;
        const IB: usize = 16;
        let mut j0 = 0;
        while j0 < m {
            let j1 = (j0 + JB).min(m);
            let mut i0 = 0;
            while i0 < n {
                let i1 = (i0 + IB).min(n);
                // Panel update from fully solved rows k < i0, as 4×8
                // register-blocked micro-tiles: four output rows ride in
                // registers across the whole k sweep, so each solved row
                // is loaded once per tile instead of every output row
                // being re-loaded and re-stored per k. Row and column
                // remainders fall back to 1×8 tiles and row updates; per
                // output element the k's always arrive in ascending order.
                let (solved, panel) = y.split_at_mut(i0 * m);
                let mut jt = j0;
                while jt + 8 <= j1 {
                    let mut i = i0;
                    while i + 4 <= i1 {
                        let mut acc = [[0.0f64; 8]; 4];
                        for (r, row) in acc.iter_mut().enumerate() {
                            let off = (i + r - i0) * m + jt;
                            row.copy_from_slice(&panel[off..off + 8]);
                        }
                        crate::simd::trsm4x8(
                            [
                                &self.l.row(i)[..i0],
                                &self.l.row(i + 1)[..i0],
                                &self.l.row(i + 2)[..i0],
                                &self.l.row(i + 3)[..i0],
                            ],
                            solved,
                            m,
                            jt,
                            &mut acc,
                        );
                        for (r, row) in acc.iter().enumerate() {
                            let off = (i + r - i0) * m + jt;
                            panel[off..off + 8].copy_from_slice(row);
                        }
                        i += 4;
                    }
                    while i < i1 {
                        let off = (i - i0) * m + jt;
                        let mut acc = [0.0f64; 8];
                        acc.copy_from_slice(&panel[off..off + 8]);
                        crate::simd::trsm1x8(&self.l.row(i)[..i0], solved, m, jt, &mut acc);
                        panel[off..off + 8].copy_from_slice(&acc);
                        i += 1;
                    }
                    jt += 8;
                }
                if jt < j1 {
                    for k in 0..i0 {
                        let krow = &solved[k * m + jt..k * m + j1];
                        for i in i0..i1 {
                            let lik = self.l[(i, k)];
                            let yrow = &mut panel[(i - i0) * m + jt..(i - i0) * m + j1];
                            crate::simd::axpy_sub(lik, krow, yrow);
                        }
                    }
                }
                // Triangular tail inside the panel: k in i0..i (still
                // ascending), then the diagonal divide.
                for i in i0..i1 {
                    let (above, rest) = panel.split_at_mut((i - i0) * m);
                    let yrow = &mut rest[j0..j1];
                    for k in i0..i {
                        let lik = self.l[(i, k)];
                        let krow = &above[(k - i0) * m + j0..(k - i0) * m + j1];
                        crate::simd::axpy_sub(lik, krow, yrow);
                    }
                    let d = self.l[(i, i)];
                    for yv in yrow.iter_mut() {
                        *yv /= d;
                    }
                }
                i0 = i1;
            }
            j0 = j1;
        }
    }

    /// Solves `L^T x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve_upper: length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log(det(A)) = 2 * sum(log(diag(L)))`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Inverse of `A` (use sparingly; prefer `solve`).
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut w = vec![0.0; n * n];
        let mut inv = Matrix::zeros(n, n);
        self.inverse_lower_into(&mut w, inv.data_mut());
        for i in 0..n {
            for j in 0..i {
                inv[(j, i)] = inv[(i, j)];
            }
        }
        inv
    }

    /// Writes the lower triangle of `A⁻¹` (diagonal included) into the
    /// row-major `n × n` buffer `inv`, leaving the entries above the
    /// diagonal as they were. `w` (`n × n`, overwritten) receives the
    /// triangular inverse `W = L⁻¹`; then `A⁻¹ = WᵀW` is formed as a
    /// symmetric product, one triangle only. Both passes are row sweeps of
    /// `axpy`s, about `n³/3` multiply-adds in all.
    pub(crate) fn inverse_lower_into(&self, w: &mut [f64], inv: &mut [f64]) {
        let n = self.dim();
        assert!(
            w.len() == n * n && inv.len() == n * n,
            "inverse: buffer size mismatch"
        );
        let l = self.l.data();
        // Row i of W is (e_i − Σ_{k<i} L[i][k] · W[k]) / L[i][i]; row k of
        // W is zero past column k.
        for i in 0..n {
            let (done, rest) = w.split_at_mut(i * n);
            let row = &mut rest[..=i];
            row.fill(0.0);
            row[i] = 1.0;
            for k in 0..i {
                crate::simd::axpy_sub(l[i * n + k], &done[k * n..=k * n + k], &mut row[..=k]);
            }
            let pivot = 1.0 / l[i * n + i];
            row.iter_mut().for_each(|v| *v *= pivot);
        }
        // (WᵀW)[i][j] = Σ_{k ≥ i} W[k][i] · W[k][j] for j ≤ i.
        for i in 0..n {
            inv[i * n..=i * n + i].fill(0.0);
        }
        for k in 0..n {
            let wk = &w[k * n..=k * n + k];
            for i in 0..=k {
                crate::simd::axpy_add(wk[i], &wk[..=i], &mut inv[i * n..=i * n + i]);
            }
        }
    }
}

/// Column-oriented core of [`Cholesky::decompose`]: factors the row-major
/// `n × n` matrix `a` into `out` (row-major, all zeros on entry).
///
/// The strict upper triangle of `out` doubles as the column-major working
/// copy: column `k` of `L` lives contiguously at `out[k*n + k..(k+1)*n]`,
/// which is exactly the transposed position of `L[i][k]`. Each finished
/// entry is also mirrored to its final place `out[i*n + k]`, and the upper
/// triangle is cleared at the end, so no second `n × n` buffer exists.
///
/// Columns are processed in blocks of four. For a block starting at `j`,
/// every finished column `k < j` is applied to 8-row tiles of all four
/// columns at once (one [`crate::simd::trsm4x8`] call per tile, four
/// accumulator rows = four columns); then the block's own columns finish
/// one after another, each first taking the updates of the block columns
/// before it. Per entry the subtracts therefore still arrive in ascending
/// `k`.
fn factor_columns(a: &[f64], n: usize, out: &mut [f64]) -> Result<(), LinAlgError> {
    const W: usize = 4;
    const T: usize = 8;
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(out.len(), n * n);
    // Rows j..j+W of L over the finished columns 0..j, gathered from the
    // lower triangle so the tiles can read them while `out` is written.
    let mut lrows = vec![0.0f64; W * n];
    let mut j = 0;
    while j < n {
        let w = W.min(n - j);
        for r in 0..w {
            let row = (j + r) * n;
            lrows[r * n..r * n + j].copy_from_slice(&out[row..row + j]);
        }
        let (done, open) = out.split_at_mut(j * n);
        // `open` row r holds column j + r from offset j + r on.
        let tile = |i: usize, open: &mut [f64]| {
            if w == W {
                let mut acc = [[0.0f64; T]; W];
                for (t, row) in a[i * n..(i + T) * n].chunks_exact(n).enumerate() {
                    for (r, slot) in acc.iter_mut().enumerate() {
                        slot[t] = row[j + r];
                    }
                }
                let l = [
                    &lrows[..j],
                    &lrows[n..n + j],
                    &lrows[2 * n..2 * n + j],
                    &lrows[3 * n..3 * n + j],
                ];
                crate::simd::trsm4x8(l, done, n, i, &mut acc);
                for (r, slot) in acc.iter().enumerate() {
                    open[r * n + i..r * n + i + T].copy_from_slice(slot);
                }
            } else {
                for r in 0..w {
                    let mut acc = [0.0f64; T];
                    for (t, slot) in acc.iter_mut().enumerate() {
                        *slot = a[(i + t) * n + j + r];
                    }
                    crate::simd::trsm1x8(&lrows[r * n..r * n + j], done, n, i, &mut acc);
                    open[r * n + i..r * n + i + T].copy_from_slice(&acc);
                }
            }
        };
        // Updates from the finished columns, 8-row tiles over rows j..n. A
        // ragged remainder is covered by one more tile ending at row n: the
        // rows it shares with the previous tile are recomputed with the
        // same operations, so overwriting them changes nothing. Rows above
        // the diagonal of a block column (i < j + r) come out as junk that
        // the mirror writes below overwrite.
        if n - j >= T {
            let mut i = j;
            while i + T <= n {
                tile(i, open);
                i += T;
            }
            if i < n {
                tile(n - T, open);
            }
        } else {
            for i in j..n {
                for r in 0..w {
                    let mut sum = a[i * n + j + r];
                    for (k, &ljk) in lrows[r * n..r * n + j].iter().enumerate() {
                        sum -= done[k * n + i] * ljk;
                    }
                    open[r * n + i] = sum;
                }
            }
        }
        // Finish the block's columns in order: updates from the block
        // columns before it (still ascending k), then pivot and divide.
        for r in 0..w {
            let jj = j + r;
            for kr in 0..r {
                let (before, cur) = open.split_at_mut(r * n);
                let col_k = &before[kr * n + jj..(kr + 1) * n];
                crate::simd::axpy_sub(col_k[0], col_k, &mut cur[jj..n]);
            }
            let pivot = open[r * n + jj];
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinAlgError::NotPositiveDefinite);
            }
            let d = pivot.sqrt();
            open[r * n + jj] = d;
            for i in jj + 1..n {
                let v = open[r * n + i] / d;
                open[r * n + i] = v;
                open[(i - j) * n + jj] = v;
            }
        }
        j += w;
    }
    for k in 0..n {
        out[k * n + k + 1..(k + 1) * n].fill(0.0);
    }
    Ok(())
}

/// Solves a general (small) linear system `A x = b` by Gaussian elimination
/// with partial pivoting. Used where symmetry is not guaranteed (e.g. the
/// normal equations of non-symmetric design matrices are avoided, but ADDM
/// models occasionally need a general solve).
pub fn solve_linear(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
    if !a.is_square() {
        return Err(LinAlgError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    assert_eq!(b.len(), n, "solve_linear: length mismatch");
    let mut m = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = m[(col, col)].abs();
        for r in col + 1..n {
            let v = m[(r, col)].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-300 {
            return Err(LinAlgError::NotPositiveDefinite);
        }
        if pivot != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot, j)];
                m[(pivot, j)] = tmp;
            }
            x.swap(col, pivot);
        }
        let d = m[(col, col)];
        for r in col + 1..n {
            let f = m[(r, col)] / d;
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m[(col, j)];
                m[(r, j)] -= f * v;
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    let mut out = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = x[i];
        for j in i + 1..n {
            sum -= m[(i, j)] * out[j];
        }
        out[i] = sum / m[(i, i)];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// The textbook row-by-row factorization [`Cholesky::decompose`]
    /// replaced: each entry one serial dot product. The bit-identity
    /// reference for the column-oriented kernel.
    fn decompose_reference(a: &Matrix) -> Result<Matrix, LinAlgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinAlgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// `decompose_with_jitter` over the reference factorization.
    fn jitter_reference(a: &Matrix, initial: f64, tries: usize) -> Option<(Matrix, f64)> {
        if let Ok(l) = decompose_reference(a) {
            return Some((l, 0.0));
        }
        let mut jitter = initial.max(f64::MIN_POSITIVE);
        for _ in 0..tries {
            let mut aj = a.clone();
            aj.add_diagonal_mut(jitter);
            if let Ok(l) = decompose_reference(&aj) {
                return Some((l, jitter));
            }
            jitter *= 10.0;
        }
        None
    }

    fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {idx} ({g} vs {w})");
        }
    }

    /// Random SPD matrix `BᵀB/n + δI`, stored with an asymmetric upper
    /// triangle so a kernel that read it would be caught.
    fn random_spd(n: usize, seed: u64, delta: f64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        let mut a = b.gram();
        a.scale_mut(1.0 / n as f64);
        a.add_diagonal_mut(delta);
        for i in 0..n {
            for j in i + 1..n {
                a[(i, j)] = rng.random_range(-1.0..1.0);
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn column_factor_matches_row_reference_bitwise(
            n in 1usize..=130,
            seed in 0u64..1_000_000,
            log_delta in -9.0f64..0.0,
        ) {
            let a = random_spd(n, seed, 10f64.powf(log_delta));
            let want = decompose_reference(&a);
            match (Cholesky::decompose(&a), want) {
                (Ok(c), Ok(l)) => assert_bitwise(c.l(), &l, "factor"),
                (Err(e), Err(w)) => prop_assert_eq!(e, w),
                (got, want) => prop_assert!(false, "got {:?}, want {:?}", got.is_ok(), want.is_ok()),
            }
        }

        #[test]
        fn indefinite_and_nan_inputs_fail_like_the_reference(
            n in 1usize..=130,
            seed in 0u64..1_000_000,
            at in 0usize..130,
            poison in 0usize..3,
        ) {
            // Poison one lower-triangle entry: a negative diagonal (the
            // pivot fails there), a huge off-diagonal (a later pivot
            // fails), or a NaN (propagates to a later pivot).
            let mut a = random_spd(n, seed, 1e-3);
            let i = at % n;
            let j = (at / 3) % (i + 1);
            match poison {
                0 => a[(i, i)] = -1.0,
                1 => a[(i, j)] = 1e3,
                _ => a[(i, j)] = f64::NAN,
            }
            let got = if poison == 2 {
                // The debug-build finiteness assertion guards decompose;
                // the kernel itself must still agree with the reference.
                let mut out = Matrix::zeros(n, n);
                factor_columns(a.data(), n, out.data_mut()).map(|()| out)
            } else {
                Cholesky::decompose(&a).map(|c| c.l().clone())
            };
            match (got, decompose_reference(&a)) {
                (Ok(l), Ok(r)) => assert_bitwise(&l, &r, "factor"),
                (Err(e), Err(w)) => prop_assert_eq!(e, w),
                (got, want) => prop_assert!(false, "got {:?}, want {:?}", got.is_ok(), want.is_ok()),
            }
            if poison != 2 {
                let got = Cholesky::decompose_with_jitter(&a, 1e-10, 12).ok();
                match (got, jitter_reference(&a, 1e-10, 12)) {
                    (Some((c, jg)), Some((l, jw))) => {
                        prop_assert_eq!(jg.to_bits(), jw.to_bits());
                        assert_bitwise(c.l(), &l, "jittered factor");
                    }
                    (None, None) => {}
                    (got, want) => prop_assert!(false, "got {:?}, want {:?}", got.is_some(), want.is_some()),
                }
            }
        }
    }

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ])
    }

    #[test]
    fn cholesky_known_factor() {
        let c = Cholesky::decompose(&spd_example()).unwrap();
        let expect = Matrix::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![6.0, 1.0, 0.0],
            vec![-8.0, 5.0, 3.0],
        ]);
        assert!(c.l().max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(recon.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd_example();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let c = Cholesky::decompose(&a).unwrap();
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{x:?}");
        }
    }

    #[test]
    fn log_det_matches_product_of_pivots() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        // det = (2*1*3)^2 = 36
        assert!((c.log_det() - 36.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinAlgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: xx^T is PSD but not PD.
        let x = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| x[i] * x[j]);
        let (c, jitter) = Cholesky::decompose_with_jitter(&a, 1e-10, 20).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_example();
        let inv = Cholesky::decompose(&a).unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-9);
    }

    #[test]
    fn general_solver_handles_nonsymmetric() {
        let a = Matrix::from_rows(&[
            vec![0.0, 2.0, 1.0],
            vec![1.0, -2.0, -3.0],
            vec![-1.0, 1.0, 2.0],
        ]);
        let x_true = vec![1.0, 2.0, -1.0];
        let b = a.matvec(&x_true);
        let x = solve_linear(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn general_solver_rejects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve_linear(&a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn extend_matches_full_decompose_bitwise() {
        // Factor the 2x2 leading block, extend by the third row/col, and
        // compare against factoring the full 3x3 matrix directly.
        let a = spd_example();
        let lead = Matrix::from_fn(2, 2, |i, j| a[(i, j)]);
        let mut c = Cholesky::decompose(&lead).unwrap();
        c.extend(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)]).unwrap();
        let full = Cholesky::decompose(&a).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                assert_eq!(
                    c.l()[(i, j)].to_bits(),
                    full.l()[(i, j)].to_bits(),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn extend_rejects_indefinite_border_and_leaves_factor_intact() {
        let a = spd_example();
        let mut c = Cholesky::decompose(&a).unwrap();
        let before = c.l().clone();
        // A border that makes the matrix indefinite: huge off-diagonal
        // coupling with a tiny diagonal.
        assert!(matches!(
            c.extend(&[100.0, 100.0, 100.0], 1.0),
            Err(LinAlgError::NotPositiveDefinite)
        ));
        assert_eq!(c.dim(), 3);
        assert!(c.l().max_abs_diff(&before) == 0.0);
    }

    #[test]
    fn repeated_extend_solves_like_full_factorization() {
        // Grow a well-conditioned kernel-like matrix one point at a time.
        let pts: Vec<f64> = (0..8).map(|i| i as f64 * 0.37).collect();
        let cov =
            |x: f64, y: f64| (-0.5 * (x - y) * (x - y)).exp() + if x == y { 0.1 } else { 0.0 };
        let full = Matrix::from_fn(8, 8, |i, j| cov(pts[i], pts[j]));
        let mut c =
            Cholesky::decompose(&Matrix::from_fn(1, 1, |_, _| cov(pts[0], pts[0]))).unwrap();
        for m in 1..8 {
            let row: Vec<f64> = (0..m).map(|j| cov(pts[m], pts[j])).collect();
            c.extend(&row, cov(pts[m], pts[m])).unwrap();
        }
        let direct = Cholesky::decompose(&full).unwrap();
        assert!(c.l().max_abs_diff(direct.l()) < 1e-12);
        let b: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let x1 = c.solve(&b);
        let x2 = direct.solve(&b);
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_lower_multi_matches_per_column_bitwise() {
        // Kernel-like SPD system, RHS counts straddling the 64-column
        // block boundary.
        let pts: Vec<f64> = (0..20).map(|i| i as f64 * 0.23).collect();
        let cov =
            |x: f64, y: f64| (-0.4 * (x - y) * (x - y)).exp() + if x == y { 0.05 } else { 0.0 };
        let a = Matrix::from_fn(20, 20, |i, j| cov(pts[i], pts[j]));
        let c = Cholesky::decompose(&a).unwrap();
        for m in [1usize, 3, 63, 64, 65, 130] {
            let b = Matrix::from_fn(20, m, |i, j| ((i * 31 + j * 7) as f64 * 0.713).sin());
            let multi = c.solve_lower_multi(&b);
            for j in 0..m {
                let col = c.solve_lower(&b.col(j));
                for i in 0..20 {
                    assert_eq!(
                        multi[(i, j)].to_bits(),
                        col[i].to_bits(),
                        "entry ({i},{j}) of m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_lower_multi_empty_rhs() {
        let c = Cholesky::decompose(&spd_example()).unwrap();
        let out = c.solve_lower_multi(&Matrix::zeros(3, 0));
        assert_eq!(out.shape(), (3, 0));
    }

    #[test]
    fn triangular_solves_consistent() {
        let a = spd_example();
        let c = Cholesky::decompose(&a).unwrap();
        let b = vec![1.0, 0.5, -0.25];
        let y = c.solve_lower(&b);
        // L y should equal b
        for i in 0..3 {
            let li: Vec<f64> = (0..3).map(|j| c.l()[(i, j)]).collect();
            assert!((dot(&li, &y) - b[i]).abs() < 1e-10);
        }
    }
}
