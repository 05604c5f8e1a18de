//! Lane-parallel kernel building blocks.
//!
//! The hot kernels of this workspace (sliding-DFT updates, KDE scoring) are all
//! element-wise loops over a few dozen to a few thousand elements. On stable rustc
//! the reliable way to get SIMD code for them is **autovectorization over fixed-width chunks**: the loops below process `LANES`
//! elements at a time through fixed-size local arrays, which LLVM lowers to packed
//! SSE2/AVX arithmetic without any `unsafe` or nightly features. Remainder elements
//! go through the *same* scalar arithmetic, so results do not depend on how an input
//! length splits into chunks.
//!
//! The module also provides [`exp_approx`]: a polynomial `exp`
//! whose every step (rounding, Cody–Waite reduction, Estrin evaluation, exponent
//! bit-twiddling) is branch-free data parallelism, so the compiler can vectorize
//! the surrounding loops — `f64::exp` is an opaque libm call that never
//! vectorizes. Accuracy is ~1 ulp over the domain the KDE kernels use (see the
//! tests), far inside the ≤ 1e-9 agreement budget the batched score paths promise
//! against their scalar references. [`exp_screen`] is the same construction at
//! degree 5, for callers that carry its stated error bound
//! ([`EXP_SCREEN_REL_ERR`]) instead of needing the last ulp.
//! [`atan2_approx`] / [`polar`] do the same for
//! the error-vector polar conversion of the sphere decoder and the interference
//! model (`f64::atan2` and `f64::hypot` are libm calls too).

/// Lane width used by the chunked kernels. Four `f64`s is one AVX register — the
/// sweet spot for the short (48–128 element) loops in this workspace; on SSE2-only
/// targets LLVM simply emits two 2-lane operations per chunk.
pub const LANES: usize = 4;

/// `log2(e)`, the factor mapping `exp(x)` onto `2^(x·LOG2E)`.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High part of `ln 2` for Cody–Waite argument reduction (fdlibm split).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part of `ln 2` (the bits `LN2_HI` dropped).
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Inputs below this underflow to exact zero (`exp(-708.4) ≈ 1e-308`, the smallest
/// normal). The scalar fallback paths keep subnormal tails; a term this small is
/// invisible next to the `1e-290` fast-path threshold the KDE sums use. Public so
/// batch callers can reason about (or skip) contributions that are exactly `0.0`
/// per lane.
pub const EXP_UNDERFLOW: f64 = -708.396_418_532_264_1;
/// Inputs above this overflow to `+∞`.
const OVERFLOW: f64 = 709.782_712_893_384;

/// Degree-12 Taylor coefficients of `exp(r)` (`1/n!`), evaluated by Estrin's scheme
/// over the reduced range `|r| ≤ ln(2)/2`, where the truncation error (`r¹³/13!`) is below
/// `2e-16` relative — rounding noise, not approximation, dominates.
const EXP_POLY: [f64; 13] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
];

/// Round-to-nearest magic constant `1.5·2^52`: adding it to a `f64` of magnitude
/// below `2^51` forces the value onto the integer lattice (the rounding happens in
/// hardware as part of the add), and the integer lands in the low mantissa bits in
/// two's complement. This replaces `f64::round` — which lowers to a **libm call** on
/// the SSE2 baseline target and would turn the "branch-free" `exp` into one opaque
/// call per element — with a single addition.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// Branch-free polynomial `exp(x)`: `x = k·ln2 + r`, `exp(x) = 2^k · P(r)` with the
/// scale applied through exponent-field bit assembly. Every step maps to a packed
/// instruction — including the rounding, done via `ROUND_SHIFT` instead of a libm
/// `round` call — so loops calling this on fixed-size chunks autovectorize.
///
/// Accuracy: ~1 ulp relative over `[-708, 709]`; exact `0.0` below the underflow
/// threshold and `+∞` above the overflow threshold (no NaN handling — the callers
/// feed finite exponents).
#[inline(always)]
pub fn exp_approx(x: f64) -> f64 {
    let shifted = x * LOG2E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Estrin's scheme: the degree-10 tail `Σ_{i≥2} c_i·r^{i−2}` is evaluated as a
    // tree of independent multiply-adds over r², r⁴ and r⁸ (dependency depth 5
    // instead of Horner's 12), and the two leading terms are added last so the
    // dominant `1 + r` rounds once, exactly as in the Horner form.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let a0 = EXP_POLY[2] + EXP_POLY[3] * r;
    let a1 = EXP_POLY[4] + EXP_POLY[5] * r;
    let a2 = EXP_POLY[6] + EXP_POLY[7] * r;
    let a3 = EXP_POLY[8] + EXP_POLY[9] * r;
    let a4 = EXP_POLY[10] + EXP_POLY[11] * r;
    let b0 = a0 + a1 * r2;
    let b1 = a2 + a3 * r2;
    let b2 = a4 + EXP_POLY[12] * r2;
    let tail = (b0 + b1 * r4) + b2 * r8;
    let p = EXP_POLY[0] + (EXP_POLY[1] * r + r2 * tail);
    // 2^k assembled directly in the exponent field: the low mantissa bits of
    // `shifted` hold `k` in two's complement, and the `<< 52` discards everything
    // above the 11 bits that matter. Inputs whose `k` escapes the biased exponent's
    // range produce a garbage scale, but those are exactly the inputs the clamps
    // below overwrite. No float→int conversion — `cvttsd2si` has no packed f64
    // form before AVX-512, so using it would block vectorization.
    let scale = f64::from_bits(((shifted.to_bits() as i64).wrapping_add(1023) << 52) as u64);
    let v = p * scale;
    // Branchless range clamps (LLVM lowers the conditionals on lane arrays to blends).
    let v = if x < EXP_UNDERFLOW { 0.0 } else { v };
    if x > OVERFLOW {
        f64::INFINITY
    } else {
        v
    }
}

/// Degree-5 minimax (relative error) coefficients of `exp(r)` over
/// `|r| ≤ 1.0001·ln(2)/2`, lowest power first: the polynomial of [`exp_screen`],
/// whose equioscillation error is `7.5e-8`.
const EXP_SCREEN_POLY: [f64; 6] = [
    1.000_000_071_696_981_7,
    0.999_999_691_807_382_6,
    0.499_988_944_134_722_83,
    0.166_675_750_911_534_47,
    0.041_915_431_433_927_21,
    0.008_297_647_958_816_826,
];

/// Bound on the relative distance of [`exp_screen`] from [`exp_approx`] over
/// `[EXP_UNDERFLOW, 0]`: the minimax error `7.5e-8` of its polynomial, plus
/// the single-constant reduction's `≤ 1.2e-13` (`|k·ln2 − k·LN2| ≤ 1022·5.6e-17`
/// and the rounding of `k·LN2`), the evaluation's few ulps and [`exp_approx`]'s own
/// ulp. The dense sweep in this module's tests checks it.
pub const EXP_SCREEN_REL_ERR: f64 = 1e-7;

/// A cheap branch-free `exp(x)` for `x ≤ 0`, with relative error at most
/// [`EXP_SCREEN_REL_ERR`] against [`exp_approx`]: the same rounding and exponent-bit
/// scale as [`exp_approx`], but a one-constant `ln 2` reduction and a degree-5
/// minimax polynomial instead of the split reduction and the degree-12 Taylor
/// polynomial — about half the operations. Exactly `0.0` below
/// [`EXP_UNDERFLOW`], like [`exp_approx`]. The leave-one-out bandwidth screen
/// uses it where a proven error bound, not the last ulp, is what matters.
#[inline(always)]
pub fn exp_screen(x: f64) -> f64 {
    let shifted = x * LOG2E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = x - k * std::f64::consts::LN_2;
    let r2 = r * r;
    let c = &EXP_SCREEN_POLY;
    let p = (c[0] + c[1] * r) + r2 * ((c[2] + c[3] * r) + r2 * (c[4] + c[5] * r));
    let scale = f64::from_bits(((shifted.to_bits() as i64).wrapping_add(1023) << 52) as u64);
    if x < EXP_UNDERFLOW {
        0.0
    } else {
        p * scale
    }
}

/// `π/2` split into its nearest `f64` and the remainder, so `π/2 − x` keeps the
/// bits the `f64` constant drops.
const PIO2_HI: f64 = std::f64::consts::FRAC_PI_2;
const PIO2_LO: f64 = 6.123_233_995_736_766e-17;
/// `π` split the same way.
const PI_HI: f64 = std::f64::consts::PI;
const PI_LO: f64 = 1.224_646_799_147_353_2e-16;
/// Numerator of the rational `atan(x) ≈ x + x·z·P(z)/Q(z)`, `z = x²`, valid for
/// `|x| ≤ 0.66` (Cephes `atan`), highest power first.
const ATAN_P: [f64; 5] = [
    -8.750_608_600_031_904e-1,
    -1.615_753_718_733_365e1,
    -7.500_855_792_314_705e1,
    -1.228_866_684_490_136_2e2,
    -6.485_021_904_942_025e1,
];
/// Denominator of the same rational, monic, highest non-unit power first.
const ATAN_Q: [f64; 5] = [
    2.485_846_490_142_306e1,
    1.650_270_098_316_988_6e2,
    4.328_810_604_912_903e2,
    4.853_903_996_359_137e2,
    1.945_506_571_482_614e2,
];

/// Branch-free polynomial `atan2(y, x)`: the octant is folded away with `|·|`,
/// min/max and selects, `atan` of the reduced ratio comes from a rational
/// approximation, and the octant is restored with split `π/2` and `π` constants.
/// Every step (including both divisions) is a packed instruction, so loops over
/// fixed-size chunks autovectorize where the libm call never does.
///
/// Accuracy: within `1e-15` absolute of `f64::atan2` over all four quadrants and
/// both axes (tested). The origin returns `±0` rather than libm's signed `0`/`π`;
/// callers that care pin that case themselves.
#[inline(always)]
pub fn atan2_approx(y: f64, x: f64) -> f64 {
    let ax = x.abs();
    let ay = y.abs();
    let swap = ay > ax;
    let mn = if swap { ax } else { ay };
    let mx = if swap { ay } else { ax };
    // t = mn/mx ∈ [0, 1]; above 0.66 use atan(t) = π/4 + atan((t − 1)/(t + 1)),
    // formed directly from mn and mx so the reduction costs no extra division.
    let big = mn > 0.66 * mx;
    let num = if big { mn - mx } else { mn };
    let den = if big { mn + mx } else { mx };
    let q = num / den;
    let r = if den > 0.0 { q } else { 0.0 };
    let z = r * r;
    let pz = (((ATAN_P[0] * z + ATAN_P[1]) * z + ATAN_P[2]) * z + ATAN_P[3]) * z + ATAN_P[4];
    let qz = ((((z + ATAN_Q[0]) * z + ATAN_Q[1]) * z + ATAN_Q[2]) * z + ATAN_Q[3]) * z + ATAN_Q[4];
    let at = r * (z * pz / qz) + r;
    let at = if big {
        std::f64::consts::FRAC_PI_4 + (at + 0.5 * PIO2_LO)
    } else {
        at
    };
    let at = if swap { PIO2_HI - (at - PIO2_LO) } else { at };
    let at = if x < 0.0 { PI_HI - (at - PI_LO) } else { at };
    at.copysign(y)
}

/// Polar form `(|z|, arg z)` of `z = re + i·im` without libm: `sqrt(re² + im²)`
/// (the IEEE square root, one packed instruction) and [`atan2_approx`]. The
/// magnitude does not guard against overflow of `re²` the way `hypot` does; the
/// callers convert error vectors of order one.
#[inline(always)]
pub fn polar(re: f64, im: f64) -> (f64, f64) {
    ((re * re + im * im).sqrt(), atan2_approx(im, re))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atan2_matches_std_within_1e_15() {
        let check = |y: f64, x: f64| {
            let err = (atan2_approx(y, x) - y.atan2(x)).abs();
            assert!(err <= 1e-15, "atan2({y}, {x}): err {err}");
        };
        // Every quadrant, at magnitudes from deep sub-unit to large.
        for k in 0..20_000 {
            let theta =
                -std::f64::consts::PI + 2.0 * std::f64::consts::PI * (k as f64 + 0.5) / 20_000.0;
            for r in [1e-6, 0.013, 0.7, 1.0, 3.3, 250.0] {
                check(r * theta.sin(), r * theta.cos());
            }
        }
        // Both axes, both signs (including the signed-zero half-axes).
        for v in [1e-9, 0.5, 1.0, 7.0] {
            check(0.0, v);
            check(-0.0, v);
            check(0.0, -v);
            check(-0.0, -v);
            check(v, 0.0);
            check(-v, 0.0);
            check(v, -0.0);
            check(-v, -0.0);
        }
        // The diagonals and the 0.66 reduction boundary.
        for (y, x) in [
            (1.0, 1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
            (0.66, 1.0),
            (1.0, 0.66),
        ] {
            check(y, x);
        }
    }

    #[test]
    fn polar_matches_norm_and_arg() {
        for k in 0..1000 {
            let re = -2.0 + 0.004 * k as f64;
            let im = 1.7 - 0.0031 * k as f64;
            let (m, a) = polar(re, im);
            assert!(
                (m - re.hypot(im)).abs() <= 4e-16 * (1.0 + m),
                "|{re} + {im}i|"
            );
            assert!((a - im.atan2(re)).abs() <= 1e-15, "arg({re} + {im}i)");
        }
        assert_eq!(polar(0.0, 0.0).0, 0.0);
    }

    #[test]
    fn exp_matches_std_to_a_ulp() {
        // Sweep the range the KDE kernels actually use (exponents are -0.5·u² ≤ 0)
        // plus a positive stretch for completeness.
        let mut worst = 0.0f64;
        let mut x = -700.0;
        while x <= 80.0 {
            let got = exp_approx(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            if rel > worst {
                worst = rel;
            }
            x += 0.037;
        }
        assert!(worst < 5e-16, "worst relative error {worst}");
    }

    #[test]
    fn exp_clamps_underflow_and_overflow() {
        assert_eq!(exp_approx(-1000.0), 0.0);
        assert_eq!(exp_approx(-1e9), 0.0);
        assert_eq!(exp_approx(1000.0), f64::INFINITY);
        assert!((exp_approx(0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn exp_screen_stays_within_its_stated_bound_of_exp_approx() {
        // Dense sweep of [EXP_UNDERFLOW, 0]: 2^22 evenly spaced points (step
        // ≈ 1.7e-4, thousands per reduction interval), plus both ends and the
        // reduction-interval edges `(j + 1/2)·ln 2` where |r| is largest.
        let steps = 1u32 << 22;
        let mut worst = 0.0f64;
        let mut check = |x: f64| {
            let want = exp_approx(x);
            let rel = ((exp_screen(x) - want) / want).abs();
            worst = worst.max(rel);
        };
        for s in 0..=steps {
            check(EXP_UNDERFLOW * (s as f64 / steps as f64));
        }
        for j in 0..1022 {
            let edge = -(j as f64 + 0.5) * std::f64::consts::LN_2;
            for x in [edge, edge.next_up(), edge.next_down()] {
                if x >= EXP_UNDERFLOW {
                    check(x);
                }
            }
        }
        assert!(worst <= EXP_SCREEN_REL_ERR, "worst relative error {worst}");
        assert!(
            worst > 1e-8,
            "bound {EXP_SCREEN_REL_ERR} is not tight: {worst}"
        );
        assert_eq!(exp_screen(EXP_UNDERFLOW.next_down()), 0.0);
        assert_eq!(exp_screen(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_screen(0.0), EXP_SCREEN_POLY[0]);
    }
}
