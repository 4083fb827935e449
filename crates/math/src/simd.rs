//! Runtime-dispatched micro-kernels for the dense hot loops (matmul,
//! multi-RHS triangular solve, and the kernel rows of GP inference and of
//! the hyper-parameter search).
//!
//! * [`axpy_add`] / [`axpy_sub`] — row updates for matmul and the
//!   triangular solves;
//! * [`sq_dist_row`] — squared distances from one point to a block of
//!   dimension-major points, summed over every dimension in registers and
//!   scaled once: the distance half of every kernel row;
//! * [`exp_in_place`] — `exp` over a row, four lanes at a time, bitwise
//!   equal to `f64::exp`: the other half;
//! * [`trsm4x8`] / [`trsm1x8`] — register-blocked tiles that apply a run
//!   of solved rows to a panel, shared by the multi-RHS forward solve and
//!   the column-oriented Cholesky factorization (where the "solved rows"
//!   are the finished columns of `L`).
//!
//! The workspace builds for baseline x86-64, which limits auto-vectorized
//! `f64` loops to 128-bit SSE2. These helpers compile the *same* loop
//! bodies a second time inside `#[target_feature(enable = "avx2")]`
//! functions, or write them out in AVX2 intrinsics, and pick the wide
//! version at runtime when the CPU supports it.
//!
//! **Determinism contract:** every wide variant is bit-identical to its
//! scalar fallback on every input. Each output element keeps its own
//! accumulation chain (vectorization is across independent elements,
//! never a reassociated reduction), the per-lane IEEE semantics of
//! `vsubpd`/`vaddpd`/`vmulpd` match the scalar ops, and Rust compiles with
//! floating-point contraction off, so no multiply-add fusion appears
//! anywhere except inside the vector `exp`.
//!
//! That `exp` copies glibc's `__exp_fma` instruction by instruction:
//! ARM optimized-routines' `exp`, which glibc ≥ 2.28 ships and, on a CPU
//! with AVX2 and FMA, builds with fused multiply-adds and selects. It
//! uses the same constants, the same 128-entry table [`EXP_TAB`] (glibc's
//! `__exp_data.tab`; `scripts/exp_table.py` regenerates it exactly from
//! 2^(k/128) at 80 digits) and the same fused and unfused operations in
//! the same order, so each lane equals `f64::exp` bit for bit. Lanes off
//! that routine's main path (|x| < 2⁻⁵⁴ including 0, |x| ≥ 512, ±∞ and
//! NaN) call `f64::exp`. The vector path runs only on x86-64 Linux with
//! glibc, on a CPU with AVX2 and FMA, once a one-time comparison with
//! `f64::exp` over 16384 inputs has passed; everywhere else every lane
//! calls `f64::exp`. So a kernel row equals per-point evaluation whichever
//! path ran. Across machines, results inherit libm's own dispatch (glibc
//! picks its FMA variant where the CPU has FMA), as the scalar path always
//! did.

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

/// `out[j] = (Σ_d (x[d] − qt[d * stride + j])²) · scale` for every `j <
/// out.len()`: the squared distances from `x` to a block of points stored
/// dimension-major with row stride `stride`, summed in ascending `d` from
/// `0.0` and scaled by one multiply. The isotropic kernels pass `1/ℓ²`;
/// the ARD kernels pass points already divided by their length scales and
/// `scale = 1.0`, which is exact.
#[inline]
pub(crate) fn sq_dist_row(x: &[f64], qt: &[f64], stride: usize, scale: f64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: AVX2 support was verified at runtime by `has_avx2`.
        unsafe { sq_dist_row_avx2(x, qt, stride, scale, out) };
        return;
    }
    sq_dist_row_generic(x, qt, stride, scale, out);
}

#[inline(always)]
fn sq_dist_row_generic(x: &[f64], qt: &[f64], stride: usize, scale: f64, out: &mut [f64]) {
    let m = out.len();
    out.fill(0.0);
    for (d, &xd) in x.iter().enumerate() {
        let q = &qt[d * stride..d * stride + m];
        for (acc, &qv) in out.iter_mut().zip(q) {
            let t = xd - qv;
            *acc += t * t;
        }
    }
    for v in out.iter_mut() {
        *v *= scale;
    }
}

/// Explicit-intrinsics version of [`sq_dist_row_generic`]: sixteen (then
/// four) columns at a time keep their sums in `ymm` registers across all
/// dimensions, so each output is stored once instead of being re-loaded
/// and re-stored per dimension. Per element it is the generic sequence:
/// `0.0`, then `+ t·t` for ascending `d`, then `· scale`, with unfused
/// `vsubpd`/`vmulpd`/`vaddpd`.
// SAFETY: callers must have verified AVX2 support at runtime (`has_avx2`)
// before calling — `#[target_feature]` makes the call itself unsafe. The
// raw reads inside are bounded by the `assert!` at the top of the body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sq_dist_row_avx2(x: &[f64], qt: &[f64], stride: usize, scale: f64, out: &mut [f64]) {
    use std::arch::x86_64::*;
    let (dim, m) = (x.len(), out.len());
    assert!(
        dim == 0 || (dim - 1) * stride + m <= qt.len(),
        "sq_dist_row: point block too short"
    );
    // SAFETY: every read of `qt` is at `d * stride + j` with `d < dim` and
    // `j < m`, inside `qt` by the assert above; `x` and `out` are read and
    // written below their lengths only.
    unsafe {
        let q = qt.as_ptr();
        let o = out.as_mut_ptr();
        let sc = _mm256_set1_pd(scale);
        let mut j = 0;
        while j + 16 <= m {
            let (mut a0, mut a1, mut a2, mut a3) = (
                _mm256_setzero_pd(),
                _mm256_setzero_pd(),
                _mm256_setzero_pd(),
                _mm256_setzero_pd(),
            );
            for d in 0..dim {
                let xd = _mm256_set1_pd(*x.get_unchecked(d));
                let p = q.add(d * stride + j);
                let t0 = _mm256_sub_pd(xd, _mm256_loadu_pd(p));
                let t1 = _mm256_sub_pd(xd, _mm256_loadu_pd(p.add(4)));
                let t2 = _mm256_sub_pd(xd, _mm256_loadu_pd(p.add(8)));
                let t3 = _mm256_sub_pd(xd, _mm256_loadu_pd(p.add(12)));
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(t0, t0));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(t1, t1));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(t2, t2));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(t3, t3));
            }
            _mm256_storeu_pd(o.add(j), _mm256_mul_pd(a0, sc));
            _mm256_storeu_pd(o.add(j + 4), _mm256_mul_pd(a1, sc));
            _mm256_storeu_pd(o.add(j + 8), _mm256_mul_pd(a2, sc));
            _mm256_storeu_pd(o.add(j + 12), _mm256_mul_pd(a3, sc));
            j += 16;
        }
        while j + 4 <= m {
            let mut a = _mm256_setzero_pd();
            for d in 0..dim {
                let xd = _mm256_set1_pd(*x.get_unchecked(d));
                let t = _mm256_sub_pd(xd, _mm256_loadu_pd(q.add(d * stride + j)));
                a = _mm256_add_pd(a, _mm256_mul_pd(t, t));
            }
            _mm256_storeu_pd(o.add(j), _mm256_mul_pd(a, sc));
            j += 4;
        }
        while j < m {
            let mut a = 0.0;
            for d in 0..dim {
                let t = *x.get_unchecked(d) - *q.add(d * stride + j);
                a += t * t;
            }
            *o.add(j) = a * scale;
            j += 1;
        }
    }
}

/// `v[j] = v[j].exp()` for every element, bitwise equal to `f64::exp`
/// (see the module doc): four lanes at a time on the libm-copying vector
/// path where it runs, the scalar call elsewhere and for the tail.
#[inline]
pub(crate) fn exp_in_place(v: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() && exp4_matches_libm() {
        // SAFETY: AVX2 and FMA support were verified at runtime by
        // `has_avx2` and `exp4_matches_libm`.
        unsafe { exp_in_place_avx2(v) };
        return;
    }
    for x in v.iter_mut() {
        *x = x.exp();
    }
}

/// Whether the vector `exp` may run: glibc on x86-64 Linux (whose `exp`
/// it copies), FMA beside AVX2 (where glibc selects `__exp_fma`), and a
/// one-time comparison with `f64::exp` on 16384 inputs spread over
/// magnitudes from 745 down to 2⁻⁴⁰ that agrees bit for bit.
#[cfg(target_arch = "x86_64")]
fn exp4_matches_libm() -> bool {
    use std::sync::OnceLock;
    static MATCHES: OnceLock<bool> = OnceLock::new();
    *MATCHES.get_or_init(|| {
        if !(cfg!(all(target_os = "linux", target_env = "gnu"))
            && has_avx2()
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return false;
        }
        let inputs: Vec<f64> = (0..16384u32)
            .map(|k| {
                let x = -745.0 * (f64::from(k) * 0.618_033_988_749_895).fract();
                x / (1u64 << (k % 41)) as f64
            })
            .collect();
        let mut wide = inputs.clone();
        // SAFETY: AVX2 and FMA support were verified just above.
        unsafe { exp_in_place_avx2(&mut wide) };
        let mut agree = true;
        for (x, w) in inputs.iter().zip(&wide) {
            agree &= x.exp().to_bits() == w.to_bits();
        }
        agree
    })
}

/// `v[j] = exp(v[j])` in four-lane blocks through [`exp4`], with lanes
/// off its main path and the last `len % 4` elements on `f64::exp`.
// SAFETY: callers must have verified AVX2 and FMA support at runtime
// (`has_avx2`, `exp4_matches_libm`) before calling — `#[target_feature]`
// makes the call itself unsafe. The body reads and writes `v` through
// `chunks_exact_mut` only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[target_feature(enable = "fma")]
unsafe fn exp_in_place_avx2(v: &mut [f64]) {
    use std::arch::x86_64::*;
    let mut blocks = v.chunks_exact_mut(4);
    for block in &mut blocks {
        // SAFETY: `block` is exactly four `f64`s; loads and stores are the
        // unaligned variants.
        unsafe {
            let x = _mm256_loadu_pd(block.as_ptr());
            let (y, off_path) = exp4(x);
            _mm256_storeu_pd(block.as_mut_ptr(), y);
            if off_path != 0 {
                let mut xs = [0.0; 4];
                _mm256_storeu_pd(xs.as_mut_ptr(), x);
                for (lane, (slot, xv)) in block.iter_mut().zip(xs).enumerate() {
                    if off_path & (1 << lane) != 0 {
                        *slot = xv.exp();
                    }
                }
            }
        }
    }
    for x in blocks.into_remainder() {
        *x = x.exp();
    }
}

/// `N/ln 2` with `N = 128` table entries per octave.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `−ln 2/N`, split in a high part with trailing zeros and a low part.
const EXP_NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
const EXP_NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// `1.5·2⁵²`: adding it rounds `x·N/ln 2` to an integer in the low bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Coefficients C2..C5 of `exp(r) − 1 ≈ r + C2 r² + … + C5 r⁵`.
const EXP_C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
const EXP_C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
const EXP_C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
const EXP_C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);

/// Four lanes of glibc's `__exp_fma` main path, one instruction for each
/// of its instructions (glibc's operand order noted where it differs;
/// products commute exactly). Returns the results and a bit mask of the
/// lanes whose input is off that path — exponent field outside
/// `[0x3c9, 0x408)` — whose results the caller must replace.
// SAFETY: callers must have verified AVX2 and FMA support at runtime
// before calling. The table gathers read `EXP_TAB[i]` and `EXP_TAB[i + 1]`
// with `i = 2·(k mod 128) ≤ 254`, inside the 256-entry table.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[target_feature(enable = "fma")]
#[inline]
unsafe fn exp4(x: std::arch::x86_64::__m256d) -> (std::arch::x86_64::__m256d, i32) {
    use std::arch::x86_64::*;
    let bits = _mm256_castpd_si256(x);
    // abstop = top12(x) & 0x7ff; off the main path when
    // (abstop − 0x3c9) as u32 ≥ 0x408 − 0x3c9.
    let abstop = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(0x7ff));
    let rel = _mm256_sub_epi64(abstop, _mm256_set1_epi64x(0x3c9));
    let off = _mm256_or_si256(
        _mm256_cmpgt_epi64(rel, _mm256_set1_epi64x(0x408 - 0x3c9 - 1)),
        _mm256_cmpgt_epi64(_mm256_setzero_si256(), rel),
    );
    let off_path = _mm256_movemask_pd(_mm256_castsi256_pd(off));
    let shift = _mm256_set1_pd(EXP_SHIFT);
    // kd = x·N/ln2 + shift (vfmadd132sd); ki = bits(kd); kd −= shift.
    let kd = _mm256_fmadd_pd(x, _mm256_set1_pd(EXP_INV_LN2_N), shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    // r = x + kd·(−ln2/N)_hi + kd·(−ln2/N)_lo (two vfmadd231sd).
    let r = _mm256_fmadd_pd(kd, _mm256_set1_pd(EXP_NEG_LN2_HI_N), x);
    let r = _mm256_fmadd_pd(kd, _mm256_set1_pd(EXP_NEG_LN2_LO_N), r);
    // idx = 2·(ki mod N); top = ki << (52 − 7).
    let idx = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, _mm256_set1_epi64x(127)));
    let top = _mm256_slli_epi64::<45>(ki);
    // SAFETY: `idx` and `idx + 1` index `EXP_TAB` (see above).
    let (tail, sbits) = unsafe {
        let tab = EXP_TAB.as_ptr();
        (
            _mm256_i64gather_pd::<8>(tab.cast::<f64>(), idx),
            _mm256_add_epi64(
                _mm256_i64gather_epi64::<8>(tab.add(1).cast::<i64>(), idx),
                top,
            ),
        )
    };
    // p23 = r·C3 + C2 (vfmadd213sd); tr = r + tail (vaddsd).
    let p23 = _mm256_fmadd_pd(r, _mm256_set1_pd(EXP_C3), _mm256_set1_pd(EXP_C2));
    let tr = _mm256_add_pd(r, tail);
    let r2 = _mm256_mul_pd(r, r);
    // p45 = r·C5 + C4; tmp = p23·r2 + tr; tmp = r2²·p45 + tmp.
    let p45 = _mm256_fmadd_pd(r, _mm256_set1_pd(EXP_C5), _mm256_set1_pd(EXP_C4));
    let tmp = _mm256_fmadd_pd(p23, r2, tr);
    let r4 = _mm256_mul_pd(r2, r2);
    let tmp = _mm256_fmadd_pd(r4, p45, tmp);
    // exp(x) = scale + scale·tmp (vfmadd132sd).
    let scale = _mm256_castsi256_pd(sbits);
    (_mm256_fmadd_pd(scale, tmp, scale), off_path)
}

/// `2^(k/128) ≈ H[k]·(1 + T[k])`: `EXP_TAB[2k]` holds the bits of `T[k]`
/// and `EXP_TAB[2k + 1]` those of `H[k]` minus `k << 45`, so adding
/// `ki << 45` yields the scale `2^(ki/128)` directly. Generated by
/// `scripts/exp_table.py`; identical to glibc's `__exp_data.tab`.
#[rustfmt::skip]
const EXP_TAB: [u64; 256] = [
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

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
        for dim in [0usize, 1, 3, 12, 13] {
            for m in [0usize, 1, 3, 4, 7, 15, 16, 17, 33, 200] {
                let stride = m + 3;
                let x = series(dim, 0.29);
                let qt = series(dim * stride, 0.41);
                for scale in [0.37, 1.0] {
                    let mut generic = series(m, 0.5);
                    let mut wide = series(m, 0.7);
                    sq_dist_row_generic(&x, &qt, stride, scale, &mut generic);
                    // SAFETY: AVX2 support was checked at the top of the test.
                    unsafe { sq_dist_row_avx2(&x, &qt, stride, scale, &mut wide) };
                    assert_eq!(bits(&generic), bits(&wide), "sq_dist_row d={dim} m={m}");
                }
            }
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
    fn sq_dist_row_matches_the_per_point_sum_bitwise() {
        let dim = 5;
        for m in [1usize, 4, 5, 16, 21, 63] {
            let x = series(dim, 0.13);
            let qt = series(dim * m, 0.37);
            let mut out = vec![f64::NAN; m];
            sq_dist_row(&x, &qt, m, 0.25, &mut out);
            for (j, &got) in out.iter().enumerate() {
                let mut acc = 0.0;
                for (d, &xd) in x.iter().enumerate() {
                    let t = xd - qt[d * m + j];
                    acc += t * t;
                }
                assert_eq!(got.to_bits(), (acc * 0.25).to_bits(), "m={m} column {j}");
            }
        }
    }

    /// Inputs every special case of glibc's `exp` takes: zero of either
    /// sign, the edges of the main path (2⁻⁵⁴ and 512), subnormal results
    /// and underflow, overflow, ±∞ and NaN, beside ordinary values.
    fn exp_boundary_inputs() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -1e-310,
            -1e-20,
            -1.0,
            -0.5,
            1.0,
            -708.39,
            -709.0,
            -744.44,
            -745.13,
            -746.0,
            -1e6,
            709.78,
            709.79,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for edge in [2f64.powi(-54), 512.0, 1024.0] {
            for x in [edge, edge.next_down(), edge.next_up()] {
                v.extend([x, -x]);
            }
        }
        v
    }

    /// The vector `exp` equals `f64::exp` bit for bit on 10⁷ inputs spread
    /// over [−745, 0] and on every boundary, through the dispatcher and
    /// (where the CPU has AVX2 and FMA) through the vector path directly,
    /// at lengths that leave a scalar tail. On glibc with AVX2 and FMA the
    /// dispatcher must take the vector path.
    #[test]
    fn exp_in_place_matches_f64_exp_bitwise() {
        let n = if cfg!(miri) { 1_000 } else { 10_000_000 };
        let mut inputs: Vec<f64> = (0..n)
            .map(|k| -745.0 * (k as f64 * 0.618_033_988_749_895).fract())
            .collect();
        for (k, x) in exp_boundary_inputs().into_iter().enumerate() {
            inputs[k * 5 % 997] = x;
            inputs.push(x);
        }
        let check = |got: &[f64], path: &str| {
            for (x, y) in inputs.iter().zip(got) {
                assert_eq!(y.to_bits(), x.exp().to_bits(), "{path} exp({x:e})");
            }
        };
        for len in [inputs.len(), inputs.len() - 1, 3] {
            let mut out = inputs[..len].to_vec();
            exp_in_place(&mut out);
            check(&out, "dispatched");
        }
        #[cfg(target_arch = "x86_64")]
        if has_avx2() && std::arch::is_x86_feature_detected!("fma") {
            let mut out = inputs.clone();
            // SAFETY: AVX2 and FMA support were checked just above.
            unsafe { exp_in_place_avx2(&mut out) };
            check(&out, "vector");
            if cfg!(all(target_os = "linux", target_env = "gnu")) {
                assert!(exp4_matches_libm(), "the vector exp was not selected");
            }
        }
    }
}
