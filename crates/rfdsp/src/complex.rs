//! A small, self-contained complex number type.
//!
//! The reproduction deliberately avoids external numeric crates, so baseband samples are
//! represented by this `Copy` struct of two `f64`s. The API mirrors the subset of
//! `num_complex::Complex64` that signal-processing code actually uses: arithmetic
//! operators (including mixed complex/scalar forms), conjugation, magnitude/phase,
//! polar construction and the complex exponential.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` with `f64` components.
///
/// `#[repr(C)]` guarantees the `(re, im)` field order in memory, so a slice of
/// `Complex` is a well-defined interleaved `f64` buffer — the layout the
/// runtime-detected SIMD kernels in [`crate::simd`] load directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

/// The additive identity, `0 + 0i`.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
/// The multiplicative identity, `1 + 0i`.
pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

impl Complex {
    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The additive identity, `0 + 0i`.
    #[inline]
    pub const fn zero() -> Self {
        ZERO
    }

    /// The multiplicative identity, `1 + 0i`.
    #[inline]
    pub const fn one() -> Self {
        ONE
    }

    /// Creates a complex number from polar coordinates: `magnitude · e^{i·phase}`.
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Complex::new(magnitude * phase.cos(), magnitude * phase.sin())
    }

    /// Complex exponential `e^{i·theta}` (a point on the unit circle).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude (absolute value) `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`; cheaper than [`Complex::norm`] because it avoids the
    /// square root, and the quantity signal-power computations actually need.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`. Returns `None` for (near-)zero input, where the
    /// inverse would not be finite.
    #[inline]
    pub fn inv(self) -> Option<Self> {
        let d = self.norm_sqr();
        if d == 0.0 || !d.is_finite() {
            None
        } else {
            Some(Complex::new(self.re / d, -self.im / d))
        }
    }

    /// Full complex exponential `e^z = e^{re}·(cos im + i·sin im)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Scales the complex number by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl From<(f64, f64)> for Complex {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Complex::new(re, im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Add<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        rhs + self
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl DivAssign<f64> for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(ZERO, |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(ZERO, |acc, x| acc + *x)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    fn ccl(a: Complex, b: Complex) -> bool {
        close(a.re, b.re) && close(a.im, b.im)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.25, 4.0);
        assert!(ccl(a + b - b, a));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(3.0, 2.0);
        let b = Complex::new(1.0, 7.0);
        // (3+2i)(1+7i) = 3 + 21i + 2i + 14i² = -11 + 23i
        assert!(ccl(a * b, Complex::new(-11.0, 23.0)));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Complex::new(3.0, 2.0);
        let b = Complex::new(-1.5, 0.25);
        assert!(ccl((a * b) / b, a));
    }

    #[test]
    fn conjugate_negates_imaginary_part() {
        let a = Complex::new(2.0, -5.0);
        assert_eq!(a.conj(), Complex::new(2.0, 5.0));
        assert!(close((a * a.conj()).re, a.norm_sqr()));
        assert!(close((a * a.conj()).im, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.5, 0.7);
        let (r, th) = (z.norm(), z.arg());
        assert!(close(r, 2.5));
        assert!(close(th, 0.7));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let z = Complex::cis(2.0 * PI * k as f64 / 16.0);
            assert!(close(z.norm(), 1.0));
        }
    }

    #[test]
    fn exp_of_imaginary_is_cis() {
        let z = Complex::new(0.0, 1.2).exp();
        assert!(ccl(z, Complex::cis(1.2)));
    }

    #[test]
    fn inverse_multiplies_to_one() {
        let z = Complex::new(0.3, -4.0);
        let inv = z.inv().unwrap();
        assert!(ccl(z * inv, ONE));
        assert!(ZERO.inv().is_none());
    }

    #[test]
    fn scalar_operations() {
        let z = Complex::new(1.0, -1.0);
        assert!(ccl(z * 2.0, Complex::new(2.0, -2.0)));
        assert!(ccl(2.0 * z, Complex::new(2.0, -2.0)));
        assert!(ccl(z / 2.0, Complex::new(0.5, -0.5)));
        assert!(ccl(z + 1.0, Complex::new(2.0, -1.0)));
        assert!(ccl(z - 1.0, Complex::new(0.0, -1.0)));
    }

    #[test]
    fn assign_operators() {
        let mut z = Complex::new(1.0, 1.0);
        z += Complex::new(1.0, 0.0);
        z -= Complex::new(0.0, 1.0);
        z *= Complex::new(0.0, 1.0);
        z /= Complex::new(0.0, 1.0);
        z *= 2.0;
        z /= 4.0;
        assert!(ccl(z, Complex::new(1.0, 0.0)));
    }

    #[test]
    fn sum_over_iterator() {
        let xs = vec![Complex::new(1.0, 1.0); 10];
        let s: Complex = xs.iter().sum();
        assert!(ccl(s, Complex::new(10.0, 10.0)));
        let s2: Complex = xs.into_iter().sum();
        assert!(ccl(s2, Complex::new(10.0, 10.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn norm_sqr_consistent_with_norm() {
        let z = Complex::new(3.0, 4.0);
        assert!(close(z.norm(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(Complex::from(2.0), Complex::new(2.0, 0.0));
        assert_eq!(Complex::from((2.0, 3.0)), Complex::new(2.0, 3.0));
    }
}
