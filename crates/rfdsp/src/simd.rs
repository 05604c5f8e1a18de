//! Runtime-detected x86-64 SIMD paths.
//!
//! The workspace's default vectorization strategy is autovectorized fixed-width
//! chunking ([`crate::lanes`]), which needs no `unsafe`. This module holds the one
//! place where explicit `core::arch` intrinsics pay for themselves: the sliding-DFT
//! update, whose interleaved complex multiply LLVM only partially vectorizes on the
//! generic target. The AVX2 kernel is selected **at runtime** via
//! `is_x86_feature_detected!`, so a generic build still uses it on capable hardware
//! and silently falls back elsewhere (and on non-x86 targets the module compiles to
//! the fallback alone).
//!
//! Bit-for-bit contract: the intrinsics use only `mul`/`add`/`sub`/`addsub` — no
//! FMA — so every lane performs exactly the scalar formula's operations with one
//! rounding each, and the AVX2 path is **bit-identical** to the scalar and chunked
//! paths (property-tested in `tests/simd_equivalence.rs`).
//!
//! The KDE kernels ([`kde_kernel_sum`], [`kde_log_sum_exp`], [`kde_max_exponent`],
//! [`loo_kernel_sums`], [`loo_screen_sums`]) and the phase conversion
//! ([`atan2_planes`]) take the other route: one safe
//! autovectorizable body compiled twice, for the baseline target and under
//! `#[target_feature(enable = "avx2")]`, with the same runtime dispatch.

use crate::complex::Complex;

/// Whether the runtime-detected AVX2 kernels will be used on this machine.
///
/// Always `false` under Miri: the interpreter executes Rust semantics, not
/// vendor intrinsics, so a Miri run must take the autovectorized fallback
/// (which is bit-identical anyway).
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    {
        false
    }
}

/// Sliding-DFT update `s[k] = (s[k] + delta) · w[k]` over interleaved complex slices,
/// dispatching to the AVX2 kernel when the CPU supports it.
///
/// # Panics
///
/// Panics if `spectrum` and `twiddles` have different lengths.
#[inline]
pub fn slide_update(spectrum: &mut [Complex], delta: Complex, twiddles: &[Complex]) {
    assert_eq!(
        spectrum.len(),
        twiddles.len(),
        "spectrum and twiddle tables must match"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        #[allow(unsafe_code)]
        unsafe {
            slide_update_avx2(spectrum, delta, twiddles)
        };
        return;
    }
    slide_update_lanes(spectrum, delta, twiddles);
}

/// The autovectorized fallback: `LANES`-wide chunks through split re/im local
/// arrays, with a scalar remainder running the identical arithmetic.
#[inline]
pub fn slide_update_lanes(spectrum: &mut [Complex], delta: Complex, twiddles: &[Complex]) {
    use crate::lanes::LANES;
    let main = spectrum.len() - spectrum.len() % LANES;
    let (s_main, s_tail) = spectrum.split_at_mut(main);
    let (w_main, w_tail) = twiddles.split_at(main);
    for (sc, wc) in s_main
        .chunks_exact_mut(LANES)
        .zip(w_main.chunks_exact(LANES))
    {
        let mut ar = [0.0f64; LANES];
        let mut ai = [0.0f64; LANES];
        for l in 0..LANES {
            ar[l] = sc[l].re + delta.re;
            ai[l] = sc[l].im + delta.im;
        }
        for l in 0..LANES {
            let wr = wc[l].re;
            let wi = wc[l].im;
            sc[l].re = ar[l] * wr - ai[l] * wi;
            sc[l].im = ar[l] * wi + ai[l] * wr;
        }
    }
    for (s, w) in s_tail.iter_mut().zip(w_tail) {
        *s = (*s + delta) * *w;
    }
}

/// AVX2 kernel: two interleaved complex values per 256-bit register, complex
/// multiply via `movedup`/`permute`/`addsub` (the classic layout — and crucially
/// `mul` + `addsub` only, no FMA, so each lane rounds exactly like the scalar code).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling; [`slide_update`] is
/// the only caller and does exactly that. The slice lengths need not match —
/// the loop bound is `spectrum.len()` and [`slide_update`] asserts equality
/// before dispatching.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn slide_update_avx2(spectrum: &mut [Complex], delta: Complex, twiddles: &[Complex]) {
    use core::arch::x86_64::*;
    let n = spectrum.len();
    // `Complex` is `#[repr(C)] { re: f64, im: f64 }`, so a slice of `n` values is
    // exactly `2n` interleaved f64s.
    let sp = spectrum.as_mut_ptr() as *mut f64;
    let wp = twiddles.as_ptr() as *const f64;
    let d = _mm256_setr_pd(delta.re, delta.im, delta.re, delta.im);
    let mut i = 0usize;
    while i + 2 <= n {
        // SAFETY: the loop guard `i + 2 <= n` keeps f64 offsets `2i..2i+4` in
        // bounds of the `2n`-element views of both slices (`slide_update`
        // asserts `twiddles` matches `spectrum`); the unaligned load/store
        // intrinsics have no alignment requirement beyond f64's. Everything
        // between the loads and the store is pure register arithmetic.
        unsafe {
            let s = _mm256_loadu_pd(sp.add(2 * i)); // [s0.re s0.im s1.re s1.im]
            let w = _mm256_loadu_pd(wp.add(2 * i));
            let a = _mm256_add_pd(s, d); // a = s + delta
            let wr = _mm256_movedup_pd(w); // [w0.re w0.re w1.re w1.re]
            let wi = _mm256_permute_pd(w, 0b1111); // [w0.im w0.im w1.im w1.im]
            let a_swap = _mm256_permute_pd(a, 0b0101); // [a0.im a0.re a1.im a1.re]
            let t1 = _mm256_mul_pd(a, wr); // [ar·wr  ai·wr ...]
            let t2 = _mm256_mul_pd(a_swap, wi); // [ai·wi  ar·wi ...]
            let r = _mm256_addsub_pd(t1, t2); // [ar·wr−ai·wi  ai·wr+ar·wi ...]
            _mm256_storeu_pd(sp.add(2 * i), r);
        }
        i += 2;
    }
    while i < n {
        spectrum[i] = (spectrum[i] + delta) * twiddles[i];
        i += 1;
    }
}

/// The KDE product-kernel sum `Σ_j exp(−((a − A_j)² + (p − P_j)²))` in the
/// **linear domain** — the inner loop of [`crate::kde::ProductKde2d::log_eval_batch`]
/// — dispatching to an AVX2-compiled copy of the kernel when the CPU supports it.
///
/// Query and samples are in *whitened* coordinates: each axis divided by `√2·B`
/// for its bandwidth `B`, so the Gaussian exponent `−½·(Δ/B)²` is just `−Δ²`.
/// The caller whitens the samples once per fit and each query once, which takes
/// three multiplies per kernel off the hot loop.
///
/// Unlike [`slide_update`], the AVX2 copy here is not hand-written intrinsics: it is
/// the *same* safe autovectorizable Rust as the fallback, recompiled under
/// `#[target_feature(enable = "avx2")]` so LLVM widens the identical arithmetic from
/// two to four `f64` lanes per instruction (the `exp` polynomial, rounding trick and
/// exponent-bit assembly of [`crate::lanes::exp_approx`] included). Because rustc
/// never contracts `mul` + `add` into FMA, both copies perform exactly the same
/// roundings in the same order and the dispatch is **bit-identical** across machines
/// (tested below).
///
/// # Panics
///
/// Panics if the sample slices have different lengths.
#[inline]
pub fn kde_kernel_sum(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    assert_eq!(amps.len(), phases.len(), "sample axis slices must match");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { kde_kernel_sum_avx2(a, p, amps, phases) };
    }
    kde_kernel_sum_inner(a, p, amps, phases)
}

/// The whitened kernel exponent `−((a − sa)² + (p − sp)²)` shared by the KDE
/// kernels (and by [`crate::kde`]'s one-sample lower bound, which must round
/// each exponent exactly as [`kde_max_exponent`] does).
#[inline(always)]
pub(crate) fn kernel_exponent(a: f64, p: f64, sa: f64, sp: f64) -> f64 {
    let ua = a - sa;
    let up = p - sp;
    -(ua * ua + up * up)
}

/// The shared kernel body: `LANES`-wide exponent chunks through fixed arrays (array
/// views, not indexing, so the loops carry no bounds checks) feeding [`crate::lanes::exp_approx`],
/// with a scalar remainder running the identical arithmetic. `#[inline(always)]` so
/// each dispatch wrapper gets its own copy compiled under that wrapper's target
/// features.
#[inline(always)]
fn kde_kernel_sum_inner(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    use crate::lanes::{exp_approx, LANES};
    let main = amps.len() - amps.len() % LANES;
    let mut s = [0.0f64; LANES];
    for (sa, sp) in amps[..main]
        .chunks_exact(LANES)
        .zip(phases[..main].chunks_exact(LANES))
    {
        let sa: &[f64; LANES] = sa.try_into().unwrap();
        let sp: &[f64; LANES] = sp.try_into().unwrap();
        for l in 0..LANES {
            s[l] += exp_approx(kernel_exponent(a, p, sa[l], sp[l]));
        }
    }
    let mut sum: f64 = s.iter().sum();
    for (sa, sp) in amps[main..].iter().zip(&phases[main..]) {
        sum += exp_approx(kernel_exponent(a, p, *sa, *sp));
    }
    sum
}

/// [`kde_kernel_sum_inner`] recompiled with AVX2 enabled — no manual intrinsics, just
/// the autovectorizer given twice the register width.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling; [`kde_kernel_sum`] is
/// the only caller and does exactly that. The body itself is the safe
/// fallback, so there is no other obligation.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn kde_kernel_sum_avx2(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    kde_kernel_sum_inner(a, p, amps, phases)
}

/// The log-domain form of [`kde_kernel_sum`]: `ln Σ_j exp(e_j)` over the same
/// whitened kernel exponents `e_j`, evaluated as a max-shifted log-sum-exp
/// `max_e + ln Σ_j exp(e_j − max_e)`. This is the far-tail path of
/// [`crate::kde::ProductKde2d::log_eval_batch`] — queries whose linear-domain sum
/// underflows — and stays finite and strictly ordered however far the query lies
/// from the samples. The max and the shifted sum run `LANES`-wide through
/// [`crate::lanes::exp_approx`]; dispatch and bit-identity are as for
/// [`kde_kernel_sum`] (a lane max is exact, so only the sum's fixed lane order
/// matters).
///
/// # Panics
///
/// Panics if the sample slices have different lengths.
#[inline]
pub fn kde_log_sum_exp(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    assert_eq!(amps.len(), phases.len(), "sample axis slices must match");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { kde_log_sum_exp_avx2(a, p, amps, phases) };
    }
    kde_log_sum_exp_inner(a, p, amps, phases)
}

/// The shared body of [`kde_log_sum_exp`]: pass one takes the largest exponent
/// ([`kde_max_exponent_inner`]), pass two sums the shifted exponentials; the
/// remainder runs the identical scalar arithmetic.
#[inline(always)]
fn kde_log_sum_exp_inner(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    use crate::lanes::{exp_approx, LANES};
    let main = amps.len() - amps.len() % LANES;
    let max_e = kde_max_exponent_inner(a, p, amps, phases);
    let mut s = [0.0f64; LANES];
    for (sa, sp) in amps[..main]
        .chunks_exact(LANES)
        .zip(phases[..main].chunks_exact(LANES))
    {
        let sa: &[f64; LANES] = sa.try_into().unwrap();
        let sp: &[f64; LANES] = sp.try_into().unwrap();
        for l in 0..LANES {
            s[l] += exp_approx(kernel_exponent(a, p, sa[l], sp[l]) - max_e);
        }
    }
    let mut sum: f64 = s.iter().sum();
    for (sa, sp) in amps[main..].iter().zip(&phases[main..]) {
        sum += exp_approx(kernel_exponent(a, p, *sa, *sp) - max_e);
    }
    max_e + sum.ln()
}

/// [`kde_log_sum_exp_inner`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling; [`kde_log_sum_exp`] is
/// the only caller and does exactly that. The body itself is the safe
/// fallback, so there is no other obligation.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn kde_log_sum_exp_avx2(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    kde_log_sum_exp_inner(a, p, amps, phases)
}

/// The largest whitened kernel exponent `max_j −((a − A_j)² + (p − P_j)²)` — the
/// exponent loop of [`kde_kernel_sum`] without the polynomial `exp`. Every
/// exponent is computed exactly as the kernel sums compute it, so the result is
/// bit-for-bit the shift [`kde_log_sum_exp`] uses, and the kernel sum is at least
/// `exp` of it. [`crate::kde::ProductKde2d::log_eval_sum_lower_bound`] builds
/// its certified lower bound from this. `−∞` for no samples and for queries whose
/// exponents are all NaN or `−∞`. A lane max is exact, so dispatch is
/// bit-identical as for [`kde_kernel_sum`].
///
/// # Panics
///
/// Panics if the sample slices have different lengths.
#[inline]
pub fn kde_max_exponent(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    assert_eq!(amps.len(), phases.len(), "sample axis slices must match");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { kde_max_exponent_avx2(a, p, amps, phases) };
    }
    kde_max_exponent_inner(a, p, amps, phases)
}

/// The shared body of [`kde_max_exponent`]: a `LANES`-wide running maximum, then
/// the remainder with the identical scalar comparison.
#[inline(always)]
fn kde_max_exponent_inner(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    use crate::lanes::LANES;
    let main = amps.len() - amps.len() % LANES;
    let mut m = [f64::NEG_INFINITY; LANES];
    for (sa, sp) in amps[..main]
        .chunks_exact(LANES)
        .zip(phases[..main].chunks_exact(LANES))
    {
        let sa: &[f64; LANES] = sa.try_into().unwrap();
        let sp: &[f64; LANES] = sp.try_into().unwrap();
        for l in 0..LANES {
            let e = kernel_exponent(a, p, sa[l], sp[l]);
            m[l] = if e > m[l] { e } else { m[l] };
        }
    }
    let mut max_e = m
        .iter()
        .fold(f64::NEG_INFINITY, |acc, &v| if v > acc { v } else { acc });
    for (sa, sp) in amps[main..].iter().zip(&phases[main..]) {
        let e = kernel_exponent(a, p, *sa, *sp);
        max_e = if e > max_e { e } else { max_e };
    }
    max_e
}

/// [`kde_max_exponent_inner`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling; [`kde_max_exponent`] is
/// the only caller and does exactly that. The body itself is the safe
/// fallback, so there is no other obligation.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn kde_max_exponent_avx2(a: f64, p: f64, amps: &[f64], phases: &[f64]) -> f64 {
    kde_max_exponent_inner(a, p, amps, phases)
}

/// Leave-one-out kernel sums `dens[i] = Σ_{j≠i} exp(−(y_i − y_j)²)` over samples
/// `y` whitened as for [`kde_kernel_sum`] (divided by `√2·B`) — the `O(n²)` core of
/// the leave-one-out
/// bandwidth search in [`crate::kde`]. Each symmetric pair kernel is evaluated once
/// and credited to both ends: row `i` runs `LANES`-wide over `j > i` through
/// [`crate::lanes::exp_approx`], adding each kernel into `dens[j]` and into the
/// row's lane accumulators, whose total lands in `dens[i]`. Dispatch and
/// bit-identity are as for [`kde_kernel_sum`].
///
/// # Panics
///
/// Panics if `scaled` and `dens` have different lengths.
#[inline]
pub fn loo_kernel_sums(scaled: &[f64], dens: &mut [f64]) {
    assert_eq!(
        scaled.len(),
        dens.len(),
        "sample and density slices must match"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        #[allow(unsafe_code)]
        unsafe {
            loo_kernel_sums_avx2(scaled, dens)
        };
        return;
    }
    loo_kernel_sums_inner(scaled, dens);
}

/// The shared body of [`loo_kernel_sums`].
#[inline(always)]
fn loo_kernel_sums_inner(scaled: &[f64], dens: &mut [f64]) {
    use crate::lanes::{exp_approx, LANES};
    dens.fill(0.0);
    for i in 0..scaled.len() {
        let yi = scaled[i];
        let ys = &scaled[i + 1..];
        let (head, ds) = dens.split_at_mut(i + 1);
        let main = ys.len() - ys.len() % LANES;
        let mut s = [0.0f64; LANES];
        for (yc, dc) in ys[..main]
            .chunks_exact(LANES)
            .zip(ds[..main].chunks_exact_mut(LANES))
        {
            let yc: &[f64; LANES] = yc.try_into().unwrap();
            let dc: &mut [f64; LANES] = dc.try_into().unwrap();
            for l in 0..LANES {
                let u = yi - yc[l];
                let k = exp_approx(-(u * u));
                dc[l] += k;
                s[l] += k;
            }
        }
        let mut row: f64 = s.iter().sum();
        for (y, d) in ys[main..].iter().zip(&mut ds[main..]) {
            let u = yi - y;
            let k = exp_approx(-(u * u));
            *d += k;
            row += k;
        }
        head[i] += row;
    }
}

/// [`loo_kernel_sums_inner`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling; [`loo_kernel_sums`] is
/// the only caller and does exactly that. The body itself is the safe
/// fallback, so there is no other obligation.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn loo_kernel_sums_avx2(scaled: &[f64], dens: &mut [f64]) {
    loo_kernel_sums_inner(scaled, dens)
}

/// Lane count of [`loo_screen_sums`]: the leave-one-out bandwidth grid's 9
/// factors padded to three 4-lane registers.
pub const SCREEN_LANES: usize = 12;

/// Leave-one-out kernel sums for a whole bandwidth grid in one pass over the
/// `n(n−1)/2` sample pairs, with the lanes running across grid factors:
/// `dens[i·SCREEN_LANES + l] = Σ_{j≠i} exp_screen((z_i − z_j)²·neg_w[l])`.
/// `z` holds the samples whitened once (by the pilot bandwidth) and `neg_w[l]`
/// is minus lane `l`'s squared bandwidth ratio to it, so each pair costs one
/// subtraction and square, then `SCREEN_LANES` multiplies and
/// [`crate::lanes::exp_screen`]s — no scalar row tails whatever `n` is. Dispatch
/// and bit-identity are as for [`kde_kernel_sum`].
///
/// # Panics
///
/// Panics if `dens` does not hold `SCREEN_LANES` entries per sample.
#[inline]
pub fn loo_screen_sums(z: &[f64], neg_w: &[f64; SCREEN_LANES], dens: &mut [f64]) {
    assert_eq!(
        dens.len(),
        SCREEN_LANES * z.len(),
        "density rows must match the samples"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        #[allow(unsafe_code)]
        unsafe {
            loo_screen_sums_avx2(z, neg_w, dens)
        };
        return;
    }
    loo_screen_sums_inner(z, neg_w, dens);
}

/// The shared body of [`loo_screen_sums`].
#[inline(always)]
fn loo_screen_sums_inner(z: &[f64], neg_w: &[f64; SCREEN_LANES], dens: &mut [f64]) {
    use crate::lanes::exp_screen;
    dens.fill(0.0);
    for (i, &zi) in z.iter().enumerate() {
        let (head, rows) = dens.split_at_mut((i + 1) * SCREEN_LANES);
        let mut s = [0.0f64; SCREEN_LANES];
        for (&zj, row) in z[i + 1..].iter().zip(rows.chunks_exact_mut(SCREEN_LANES)) {
            let row: &mut [f64; SCREEN_LANES] = row.try_into().unwrap();
            let u = zi - zj;
            let t = u * u;
            for l in 0..SCREEN_LANES {
                let k = exp_screen(t * neg_w[l]);
                s[l] += k;
                row[l] += k;
            }
        }
        for (d, s) in head[i * SCREEN_LANES..].iter_mut().zip(s) {
            *d += s;
        }
    }
}

/// [`loo_screen_sums_inner`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling; [`loo_screen_sums`] is
/// the only caller and does exactly that. The body itself is the safe
/// fallback, so there is no other obligation.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn loo_screen_sums_avx2(z: &[f64], neg_w: &[f64; SCREEN_LANES], dens: &mut [f64]) {
    loo_screen_sums_inner(z, neg_w, dens)
}

/// Arguments of split Cartesian planes, in place: `y[k] ← atan2(y[k], x[k])`
/// element by element through [`crate::lanes::atan2_approx`] — the sphere
/// decoder's error-vector phases, with no `atan2` libm call per query. Each
/// element runs exactly the scalar [`crate::lanes::atan2_approx`] operations (the
/// phase half of [`crate::lanes::polar`]), so the plane is bit-identical to
/// per-element calls, and the AVX2 dispatch is bit-identical as for
/// [`kde_kernel_sum`].
///
/// # Panics
///
/// Panics if the planes have different lengths.
#[inline]
pub fn atan2_planes(y: &mut [f64], x: &[f64]) {
    assert_eq!(x.len(), y.len(), "coordinate planes must match");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        #[allow(unsafe_code)]
        unsafe {
            atan2_planes_avx2(y, x)
        };
        return;
    }
    atan2_planes_inner(y, x);
}

/// The shared body of [`atan2_planes`].
#[inline(always)]
fn atan2_planes_inner(y: &mut [f64], x: &[f64]) {
    use crate::lanes::{atan2_approx, LANES};
    let main = x.len() - x.len() % LANES;
    let (y_main, y_tail) = y.split_at_mut(main);
    let (x_main, x_tail) = x.split_at(main);
    for (yc, xc) in y_main
        .chunks_exact_mut(LANES)
        .zip(x_main.chunks_exact(LANES))
    {
        let yc: &mut [f64; LANES] = yc.try_into().unwrap();
        let xc: &[f64; LANES] = xc.try_into().unwrap();
        for l in 0..LANES {
            yc[l] = atan2_approx(yc[l], xc[l]);
        }
    }
    for (yv, xv) in y_tail.iter_mut().zip(x_tail) {
        *yv = atan2_approx(*yv, *xv);
    }
}

/// [`atan2_planes_inner`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling; [`atan2_planes`] is the
/// only caller and does exactly that. The body itself is the safe fallback, so
/// there is no other obligation.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn atan2_planes_avx2(y: &mut [f64], x: &[f64]) {
    atan2_planes_inner(y, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(spectrum: &mut [Complex], delta: Complex, tw: &[Complex]) {
        for (s, w) in spectrum.iter_mut().zip(tw) {
            *s = (*s + delta) * *w;
        }
    }

    #[test]
    fn all_paths_are_bit_identical_to_the_scalar_reference() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 64, 65] {
            let tw: Vec<Complex> = (0..n)
                .map(|k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / (n.max(1)) as f64))
                .collect();
            let base: Vec<Complex> = (0..n)
                .map(|k| Complex::new(0.3 * k as f64 - 1.0, -0.7 * k as f64 + 0.2))
                .collect();
            let delta = Complex::new(0.123, -0.456);

            let mut want = base.clone();
            reference(&mut want, delta, &tw);

            let mut lanes = base.clone();
            slide_update_lanes(&mut lanes, delta, &tw);
            let mut dispatch = base.clone();
            slide_update(&mut dispatch, delta, &tw);

            for k in 0..n {
                assert_eq!(lanes[k].re.to_bits(), want[k].re.to_bits(), "lanes re {k}");
                assert_eq!(lanes[k].im.to_bits(), want[k].im.to_bits(), "lanes im {k}");
                assert_eq!(
                    dispatch[k].re.to_bits(),
                    want[k].re.to_bits(),
                    "dispatch re {k}"
                );
                assert_eq!(
                    dispatch[k].im.to_bits(),
                    want[k].im.to_bits(),
                    "dispatch im {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_panic() {
        let mut s = vec![Complex::zero(); 3];
        slide_update(&mut s, Complex::zero(), &[Complex::one(); 4]);
    }

    #[test]
    fn kde_kernel_sum_dispatch_is_bit_identical_to_baseline() {
        for n in [0usize, 1, 3, 4, 5, 8, 47, 64, 65] {
            let amps: Vec<f64> = (0..n).map(|j| 0.08 * (j % 11) as f64).collect();
            let phs: Vec<f64> = (0..n).map(|j| -1.2 + 0.17 * (j % 17) as f64).collect();
            for (a, p) in [(0.0, 0.0), (0.31, -0.9), (5.0, 2.5), (40.0, -3.0)] {
                let want = kde_kernel_sum_inner(a, p, &amps, &phs);
                let got = kde_kernel_sum(a, p, &amps, &phs);
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} query=({a},{p})");
                // The far-tail log-sum-exp over the same exponents, including
                // queries hundreds of bandwidths out.
                for scale in [1.0, 40.0] {
                    let want = kde_log_sum_exp_inner(a * scale, p, &amps, &phs);
                    let got = kde_log_sum_exp(a * scale, p, &amps, &phs);
                    assert_eq!(got.to_bits(), want.to_bits(), "lse n={n} query=({a},{p})");
                    let want = kde_max_exponent_inner(a * scale, p, &amps, &phs);
                    let got = kde_max_exponent(a * scale, p, &amps, &phs);
                    assert_eq!(got.to_bits(), want.to_bits(), "max n={n} query=({a},{p})");
                }
            }
            // Leave-one-out pair sums over the amplitude axis at two bandwidths.
            for inv_bw in [2.0, 30.0] {
                let scaled: Vec<f64> = amps.iter().map(|x| x * inv_bw).collect();
                let mut want = vec![0.0; n];
                let mut got = vec![1.0; n];
                loo_kernel_sums_inner(&scaled, &mut want);
                loo_kernel_sums(&scaled, &mut got);
                for i in 0..n {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "loo n={n} i={i}");
                }
            }
            // Phases of the (amplitude, phase) pairs read as Cartesian error
            // vectors, shifted so every quadrant and both axes occur, against
            // the dispatch-free body and per-element `atan2_approx`.
            let xs: Vec<f64> = amps.iter().map(|x| x - 0.4).collect();
            let mut want = phs.clone();
            let mut got = phs.clone();
            atan2_planes_inner(&mut want, &xs);
            atan2_planes(&mut got, &xs);
            for k in 0..n {
                let scalar = crate::lanes::atan2_approx(phs[k], xs[k]);
                assert_eq!(
                    want[k].to_bits(),
                    scalar.to_bits(),
                    "atan2 body n={n} k={k}"
                );
                assert_eq!(
                    got[k].to_bits(),
                    want[k].to_bits(),
                    "atan2 dispatch n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn loo_kernel_sums_match_the_pairwise_definition() {
        let scaled: Vec<f64> = (0..23)
            .map(|j| 0.37 * ((j * 7) % 11) as f64 - 1.1)
            .collect();
        let mut dens = vec![0.0; scaled.len()];
        loo_kernel_sums(&scaled, &mut dens);
        for (i, d) in dens.iter().enumerate() {
            let want: f64 = (0..scaled.len())
                .filter(|&j| j != i)
                .map(|j| (-(scaled[i] - scaled[j]).powi(2)).exp())
                .sum();
            assert!((d - want).abs() <= 1e-13 * want, "i={i}: {d} vs {want}");
        }
    }

    #[test]
    fn loo_screen_sums_match_the_pairwise_definition_and_dispatch() {
        use crate::lanes::EXP_SCREEN_REL_ERR;
        for n in [0usize, 1, 2, 5, 32] {
            let z: Vec<f64> = (0..n).map(|j| 0.37 * ((j * 7) % 11) as f64 - 1.1).collect();
            let neg_w: [f64; SCREEN_LANES] = std::array::from_fn(|l| -0.1 * (l + 1) as f64);
            let mut want = vec![0.0; SCREEN_LANES * n];
            let mut got = vec![1.0; SCREEN_LANES * n];
            loo_screen_sums_inner(&z, &neg_w, &mut want);
            loo_screen_sums(&z, &neg_w, &mut got);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "dispatch n={n} entry {k}");
            }
            for i in 0..n {
                for (l, w) in neg_w.iter().enumerate() {
                    let exact: f64 = (0..n)
                        .filter(|&j| j != i)
                        .map(|j| ((z[i] - z[j]).powi(2) * w).exp())
                        .sum();
                    let d = got[i * SCREEN_LANES + l];
                    assert!(
                        (d - exact).abs() <= 1.01 * EXP_SCREEN_REL_ERR * exact,
                        "n={n} i={i} lane {l}: {d} vs {exact}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn kde_kernel_sum_rejects_mismatched_axes() {
        kde_kernel_sum(0.0, 0.0, &[1.0, 2.0], &[0.5]);
    }
}
