//! Runtime-dispatched micro-kernels for the dense hot loops (matmul,
//! multi-RHS triangular solve, cross-covariance rows, and the two kernels
//! of the GP hyper-parameter search).
//!
//! * [`axpy_add`] / [`axpy_sub`] — row updates for matmul and the
//!   triangular solves;
//! * [`scaled_sq_accum`] — one dimension of a cross-covariance row's
//!   scaled squared distances;
//! * [`scaled_sq_accum_diffs`] — one dimension of the scaled squared
//!   distances over the hyper-search's dimension-major pair differences;
//! * [`trsm4x8`] / [`trsm1x8`] — register-blocked tiles that apply a run
//!   of solved rows to a panel, shared by the multi-RHS forward solve and
//!   the column-oriented Cholesky factorization (where the "solved rows"
//!   are the finished columns of `L`).
//!
//! The workspace builds for baseline x86-64, which limits auto-vectorized
//! `f64` loops to 128-bit SSE2. These helpers compile the *same* loop
//! bodies a second time inside `#[target_feature(enable = "avx2")]`
//! functions and pick the wide version at runtime when the CPU supports
//! it.
//!
//! **Determinism contract:** the AVX2 variants are bit-identical to the
//! scalar fallbacks on every input. Each output element keeps its own
//! accumulation chain (vectorization is across independent elements, never
//! a reassociated reduction), the per-lane IEEE semantics of
//! `vsubpd`/`vmulpd`/`vdivpd` match the scalar ops, and Rust compiles with
//! floating-point contraction off, so no multiply-add fusion appears in
//! either version. Results therefore do not depend on which path ran —
//! the same binary produces the same bits on an SSE2-only machine and an
//! AVX-512 one.

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// `y[t] += a * x[t]` over the common prefix of `x` and `y`.
#[inline]
pub(crate) fn axpy_add(a: f64, x: &[f64], y: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was verified at runtime by `has_avx2`.
        unsafe { axpy_add_avx2(a, x, y) };
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

// SAFETY: `unsafe` only because of `#[target_feature]` — callers must have
// verified AVX2 support at runtime (`has_avx2`) before calling, or the CPU
// may fault on the 256-bit instructions. The body itself is safe code: the
// same zip-bounded loop as the scalar path, recompiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_add_avx2(a: f64, x: &[f64], y: &mut [f64]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// `y[t] -= a * x[t]` over the common prefix of `x` and `y`.
#[inline]
pub(crate) fn axpy_sub(a: f64, x: &[f64], y: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was verified at runtime by `has_avx2`.
        unsafe { axpy_sub_avx2(a, x, y) };
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv -= a * xv;
    }
}

// SAFETY: `unsafe` only because of `#[target_feature]` — callers must have
// verified AVX2 support at runtime (`has_avx2`) before calling. The body is
// safe code: the same zip-bounded loop as the scalar path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_sub_avx2(a: f64, x: &[f64], y: &mut [f64]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv -= a * xv;
    }
}

/// `acc[t] += ((xd - q[t]) / l)²` — one dimension's contribution to a row
/// of scaled squared distances.
#[inline]
pub(crate) fn scaled_sq_accum(xd: f64, l: f64, q: &[f64], acc: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was verified at runtime by `has_avx2`.
        unsafe { scaled_sq_accum_avx2(xd, l, q, acc) };
        return;
    }
    for (av, &qv) in acc.iter_mut().zip(q) {
        let t = (xd - qv) / l;
        *av += t * t;
    }
}

// SAFETY: `unsafe` only because of `#[target_feature]` — callers must have
// verified AVX2 support at runtime (`has_avx2`) before calling. The body is
// safe code: the same zip-bounded loop as the scalar path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scaled_sq_accum_avx2(xd: f64, l: f64, q: &[f64], acc: &mut [f64]) {
    for (av, &qv) in acc.iter_mut().zip(q) {
        let t = (xd - qv) / l;
        *av += t * t;
    }
}

/// `acc[t] += (diffs[t] / l)²` — one dimension's contribution to the
/// scaled squared distances of a whole run of precomputed pair differences
/// (the dimension-major hyper-search pair cache).
#[inline]
pub(crate) fn scaled_sq_accum_diffs(l: f64, diffs: &[f64], acc: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was verified at runtime by `has_avx2`.
        unsafe { scaled_sq_accum_diffs_avx2(l, diffs, acc) };
        return;
    }
    scaled_sq_accum_diffs_generic(l, diffs, acc);
}

#[inline(always)]
fn scaled_sq_accum_diffs_generic(l: f64, diffs: &[f64], acc: &mut [f64]) {
    for (av, &dv) in acc.iter_mut().zip(diffs) {
        let t = dv / l;
        *av += t * t;
    }
}

// SAFETY: `unsafe` only because of `#[target_feature]` — callers must have
// verified AVX2 support at runtime (`has_avx2`) before calling. The body is
// safe code: the generic zip-bounded loop, recompiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scaled_sq_accum_diffs_avx2(l: f64, diffs: &[f64], acc: &mut [f64]) {
    scaled_sq_accum_diffs_generic(l, diffs, acc);
}

/// Register-blocked TRSM micro-tile: applies the sequential update
/// `row_r[t] -= l_r[k] * solved[k*m + joff + t]` for `k = 0..l_r.len()`
/// (ascending) to four output rows over an 8-column tile. The four
/// accumulator rows live in `acc` — registers, with AVX2 — for the whole
/// `k` sweep, so each solved row is loaded once per tile instead of each
/// output row being re-loaded and re-stored per `k`. Per element this is
/// the exact subtract sequence of the scalar forward solve.
#[inline]
pub(crate) fn trsm4x8(
    l: [&[f64]; 4],
    solved: &[f64],
    m: usize,
    joff: usize,
    acc: &mut [[f64; 8]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was verified at runtime by `has_avx2`.
        unsafe { trsm4x8_avx2(l, solved, m, joff, acc) };
        return;
    }
    trsm4x8_generic(l, solved, m, joff, acc);
}

#[inline(always)]
fn trsm4x8_generic(l: [&[f64]; 4], solved: &[f64], m: usize, joff: usize, acc: &mut [[f64; 8]; 4]) {
    let nk = l[0].len();
    debug_assert!(l.iter().all(|r| r.len() == nk));
    for k in 0..nk {
        let base = k * m + joff;
        let krow = &solved[base..base + 8];
        let (l0, l1, l2, l3) = (l[0][k], l[1][k], l[2][k], l[3][k]);
        for t in 0..8 {
            acc[0][t] -= l0 * krow[t];
            acc[1][t] -= l1 * krow[t];
            acc[2][t] -= l2 * krow[t];
            acc[3][t] -= l3 * krow[t];
        }
    }
}

/// Explicit-intrinsics version of [`trsm4x8_generic`]. Hand-written so the
/// eight accumulator vectors stay in `ymm` registers for the whole `k`
/// sweep with no per-iteration stores or bounds checks (the auto-vectorized
/// form re-stores all four rows and re-checks four slice bounds every
/// iteration). Uses only `vbroadcastsd`/`vmulpd`/`vsubpd` — the same IEEE
/// operations in the same per-element order as the scalar loop, so the
/// result is bit-identical.
// SAFETY: callers must have verified AVX2 support at runtime (`has_avx2`)
// before calling — `#[target_feature]` makes the call itself unsafe. The
// raw pointer arithmetic inside is bounded by the `assert!`s at the top of
// the body: every `get_unchecked`/`loadu` index was proven in range before
// the first load, and the store targets are fixed-size accumulator rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn trsm4x8_avx2(
    l: [&[f64]; 4],
    solved: &[f64],
    m: usize,
    joff: usize,
    acc: &mut [[f64; 8]; 4],
) {
    use std::arch::x86_64::*;
    let nk = l[0].len();
    assert!(
        l.iter().all(|r| r.len() == nk),
        "trsm4x8: ragged factor rows"
    );
    assert!(
        nk == 0 || (nk - 1) * m + joff + 8 <= solved.len(),
        "trsm4x8: solved region too short"
    );
    // SAFETY: every pointer read below is inside `solved`/`l[r]` by the
    // asserts above; `acc` rows are fixed-size [f64; 8]. Loads and stores
    // are the unaligned variants.
    unsafe {
        let mut a00 = _mm256_loadu_pd(acc[0].as_ptr());
        let mut a01 = _mm256_loadu_pd(acc[0].as_ptr().add(4));
        let mut a10 = _mm256_loadu_pd(acc[1].as_ptr());
        let mut a11 = _mm256_loadu_pd(acc[1].as_ptr().add(4));
        let mut a20 = _mm256_loadu_pd(acc[2].as_ptr());
        let mut a21 = _mm256_loadu_pd(acc[2].as_ptr().add(4));
        let mut a30 = _mm256_loadu_pd(acc[3].as_ptr());
        let mut a31 = _mm256_loadu_pd(acc[3].as_ptr().add(4));
        // Walk the solved region with a stepped pointer (no per-k index
        // multiply) and unroll k by two; each accumulator still sees its
        // subtracts in ascending-k order.
        let mut p = solved.as_ptr().add(joff);
        let mut k = 0;
        while k + 2 <= nk {
            let k0 = _mm256_loadu_pd(p);
            let k1 = _mm256_loadu_pd(p.add(4));
            let l0 = _mm256_set1_pd(*l[0].get_unchecked(k));
            let l1 = _mm256_set1_pd(*l[1].get_unchecked(k));
            let l2 = _mm256_set1_pd(*l[2].get_unchecked(k));
            let l3 = _mm256_set1_pd(*l[3].get_unchecked(k));
            a00 = _mm256_sub_pd(a00, _mm256_mul_pd(l0, k0));
            a01 = _mm256_sub_pd(a01, _mm256_mul_pd(l0, k1));
            a10 = _mm256_sub_pd(a10, _mm256_mul_pd(l1, k0));
            a11 = _mm256_sub_pd(a11, _mm256_mul_pd(l1, k1));
            a20 = _mm256_sub_pd(a20, _mm256_mul_pd(l2, k0));
            a21 = _mm256_sub_pd(a21, _mm256_mul_pd(l2, k1));
            a30 = _mm256_sub_pd(a30, _mm256_mul_pd(l3, k0));
            a31 = _mm256_sub_pd(a31, _mm256_mul_pd(l3, k1));
            let q = p.add(m);
            let k0b = _mm256_loadu_pd(q);
            let k1b = _mm256_loadu_pd(q.add(4));
            let l0b = _mm256_set1_pd(*l[0].get_unchecked(k + 1));
            let l1b = _mm256_set1_pd(*l[1].get_unchecked(k + 1));
            let l2b = _mm256_set1_pd(*l[2].get_unchecked(k + 1));
            let l3b = _mm256_set1_pd(*l[3].get_unchecked(k + 1));
            a00 = _mm256_sub_pd(a00, _mm256_mul_pd(l0b, k0b));
            a01 = _mm256_sub_pd(a01, _mm256_mul_pd(l0b, k1b));
            a10 = _mm256_sub_pd(a10, _mm256_mul_pd(l1b, k0b));
            a11 = _mm256_sub_pd(a11, _mm256_mul_pd(l1b, k1b));
            a20 = _mm256_sub_pd(a20, _mm256_mul_pd(l2b, k0b));
            a21 = _mm256_sub_pd(a21, _mm256_mul_pd(l2b, k1b));
            a30 = _mm256_sub_pd(a30, _mm256_mul_pd(l3b, k0b));
            a31 = _mm256_sub_pd(a31, _mm256_mul_pd(l3b, k1b));
            p = q.add(m);
            k += 2;
        }
        if k < nk {
            let k0 = _mm256_loadu_pd(p);
            let k1 = _mm256_loadu_pd(p.add(4));
            let l0 = _mm256_set1_pd(*l[0].get_unchecked(k));
            let l1 = _mm256_set1_pd(*l[1].get_unchecked(k));
            let l2 = _mm256_set1_pd(*l[2].get_unchecked(k));
            let l3 = _mm256_set1_pd(*l[3].get_unchecked(k));
            a00 = _mm256_sub_pd(a00, _mm256_mul_pd(l0, k0));
            a01 = _mm256_sub_pd(a01, _mm256_mul_pd(l0, k1));
            a10 = _mm256_sub_pd(a10, _mm256_mul_pd(l1, k0));
            a11 = _mm256_sub_pd(a11, _mm256_mul_pd(l1, k1));
            a20 = _mm256_sub_pd(a20, _mm256_mul_pd(l2, k0));
            a21 = _mm256_sub_pd(a21, _mm256_mul_pd(l2, k1));
            a30 = _mm256_sub_pd(a30, _mm256_mul_pd(l3, k0));
            a31 = _mm256_sub_pd(a31, _mm256_mul_pd(l3, k1));
        }
        _mm256_storeu_pd(acc[0].as_mut_ptr(), a00);
        _mm256_storeu_pd(acc[0].as_mut_ptr().add(4), a01);
        _mm256_storeu_pd(acc[1].as_mut_ptr(), a10);
        _mm256_storeu_pd(acc[1].as_mut_ptr().add(4), a11);
        _mm256_storeu_pd(acc[2].as_mut_ptr(), a20);
        _mm256_storeu_pd(acc[2].as_mut_ptr().add(4), a21);
        _mm256_storeu_pd(acc[3].as_mut_ptr(), a30);
        _mm256_storeu_pd(acc[3].as_mut_ptr().add(4), a31);
    }
}

/// Single-row variant of [`trsm4x8`] for panel-row remainders.
#[inline]
pub(crate) fn trsm1x8(l: &[f64], solved: &[f64], m: usize, joff: usize, acc: &mut [f64; 8]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was verified at runtime by `has_avx2`.
        unsafe { trsm1x8_avx2(l, solved, m, joff, acc) };
        return;
    }
    trsm1x8_generic(l, solved, m, joff, acc);
}

#[inline(always)]
fn trsm1x8_generic(l: &[f64], solved: &[f64], m: usize, joff: usize, acc: &mut [f64; 8]) {
    for (k, &lk) in l.iter().enumerate() {
        let base = k * m + joff;
        let krow = &solved[base..base + 8];
        for t in 0..8 {
            acc[t] -= lk * krow[t];
        }
    }
}

// SAFETY: callers must have verified AVX2 support at runtime (`has_avx2`)
// before calling — `#[target_feature]` makes the call itself unsafe. The
// pointer reads inside are bounded by the solved-region `assert!` at the
// top of the body; the store target is a fixed-size accumulator row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn trsm1x8_avx2(l: &[f64], solved: &[f64], m: usize, joff: usize, acc: &mut [f64; 8]) {
    use std::arch::x86_64::*;
    let nk = l.len();
    assert!(
        nk == 0 || (nk - 1) * m + joff + 8 <= solved.len(),
        "trsm1x8: solved region too short"
    );
    // SAFETY: every pointer read below is inside `solved`/`l` by the
    // assert above; `acc` is a fixed-size [f64; 8].
    unsafe {
        let mut a0 = _mm256_loadu_pd(acc.as_ptr());
        let mut a1 = _mm256_loadu_pd(acc.as_ptr().add(4));
        for k in 0..nk {
            let base = k * m + joff;
            let k0 = _mm256_loadu_pd(solved.as_ptr().add(base));
            let k1 = _mm256_loadu_pd(solved.as_ptr().add(base + 4));
            let lk = _mm256_set1_pd(*l.get_unchecked(k));
            a0 = _mm256_sub_pd(a0, _mm256_mul_pd(lk, k0));
            a1 = _mm256_sub_pd(a1, _mm256_mul_pd(lk, k1));
        }
        _mm256_storeu_pd(acc.as_mut_ptr(), a0);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * scale).sin() * 3.7).collect()
    }

    #[test]
    fn axpy_kernels_match_scalar_bitwise() {
        for n in [1usize, 3, 4, 7, 64, 129] {
            let x = series(n, 0.31);
            let mut y_add = series(n, 0.77);
            let mut y_sub = y_add.clone();
            let mut ref_add = y_add.clone();
            let mut ref_sub = y_add.clone();
            axpy_add(1.618, &x, &mut y_add);
            axpy_sub(1.618, &x, &mut y_sub);
            for (rv, &xv) in ref_add.iter_mut().zip(&x) {
                *rv += 1.618 * xv;
            }
            for (rv, &xv) in ref_sub.iter_mut().zip(&x) {
                *rv -= 1.618 * xv;
            }
            for t in 0..n {
                assert_eq!(y_add[t].to_bits(), ref_add[t].to_bits());
                assert_eq!(y_sub[t].to_bits(), ref_sub[t].to_bits());
            }
        }
    }

    /// The AVX2 variants against their generic twins on identical inputs,
    /// covering lengths that are not multiples of the vector width and
    /// empty `k` sweeps. Skipped where AVX2 is unavailable (including
    /// under Miri, which reports no AVX2).
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_kernels_match_generic_bitwise() {
        if !has_avx2() {
            return;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0usize, 1, 3, 4, 7, 8, 9, 63, 200] {
            let diffs = series(n, 0.29);
            let mut generic = series(n, 0.41);
            let mut wide = generic.clone();
            scaled_sq_accum_diffs_generic(0.37, &diffs, &mut generic);
            // SAFETY: AVX2 support was checked at the top of the test.
            unsafe { scaled_sq_accum_diffs_avx2(0.37, &diffs, &mut wide) };
            assert_eq!(bits(&generic), bits(&wide), "scaled_sq_accum_diffs n={n}");
        }
        let m = 13;
        for nk in 0..10usize {
            for joff in [0usize, 3, 5] {
                let solved = series(nk * m, 0.17);
                let rows: Vec<Vec<f64>> =
                    (0..4).map(|r| series(nk, 0.23 + r as f64 * 0.1)).collect();
                let l = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
                let init = |r: usize| -> [f64; 8] {
                    let v = series(8, 0.61 + r as f64 * 0.05);
                    [v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]]
                };
                let mut generic = [init(0), init(1), init(2), init(3)];
                let mut wide = generic;
                trsm4x8_generic(l, &solved, m, joff, &mut generic);
                // SAFETY: AVX2 support was checked at the top of the test.
                unsafe { trsm4x8_avx2(l, &solved, m, joff, &mut wide) };
                for r in 0..4 {
                    assert_eq!(bits(&generic[r]), bits(&wide[r]), "trsm4x8 nk={nk} row {r}");
                }
                let mut generic = init(0);
                let mut wide = generic;
                trsm1x8_generic(&rows[0], &solved, m, joff, &mut generic);
                // SAFETY: AVX2 support was checked at the top of the test.
                unsafe { trsm1x8_avx2(&rows[0], &solved, m, joff, &mut wide) };
                assert_eq!(bits(&generic), bits(&wide), "trsm1x8 nk={nk}");
            }
        }
    }

    #[test]
    fn scaled_sq_accum_matches_scalar_bitwise() {
        for n in [1usize, 5, 8, 63, 200] {
            let q = series(n, 0.13);
            let mut acc = series(n, 0.41);
            let mut reference = acc.clone();
            scaled_sq_accum(0.9, 0.37, &q, &mut acc);
            for (rv, &qv) in reference.iter_mut().zip(&q) {
                let t = (0.9 - qv) / 0.37;
                *rv += t * t;
            }
            for t in 0..n {
                assert_eq!(acc[t].to_bits(), reference[t].to_bits());
            }
        }
    }
}
