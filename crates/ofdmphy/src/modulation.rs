//! Constellation mapping and hard demapping.
//!
//! Gray-coded BPSK, QPSK, 16-QAM, 64-QAM and 256-QAM with the IEEE 802.11 normalisation
//! factors (1, 1/√2, 1/√10, 1/√42, 1/√170) so every constellation has unit average
//! power. The full lattice-point sets are exposed because the CPRecycle fixed-sphere
//! maximum-likelihood decoder searches over them directly (paper §4.2: the alphabet
//! `L = {l₁ … l_k}`, with k = 2, 4, 16, 64, 256).

use crate::{PhyError, Result};
use rfdsp::Complex;
use std::sync::OnceLock;

/// The cached, index-based view of one constellation: a flat point table plus the bit
/// labels, shared process-wide so decoders can work with `u16` lattice indices instead
/// of cloning `(Complex, Vec<u8>)` pairs.
///
/// Obtained from [`Modulation::lattice`]; index order is the enumeration order of
/// [`Modulation::constellation`] (the bits of index `i` are `i` itself, MSB first), so
/// indices are stable identifiers of lattice points.
#[derive(Debug)]
pub struct Lattice {
    points: Vec<Complex>,
    /// Flattened bit labels: `num_points × bits_per_symbol`, MSB first per point.
    bits: Vec<u8>,
    bits_per_symbol: usize,
}

impl Lattice {
    fn build(modulation: Modulation) -> Self {
        let n = modulation.bits_per_symbol();
        let mut points = Vec::with_capacity(modulation.num_points());
        let mut bits = Vec::with_capacity(modulation.num_points() * n);
        for idx in 0..modulation.num_points() {
            let point_bits: Vec<u8> = (0..n).map(|b| ((idx >> (n - 1 - b)) & 1) as u8).collect();
            points.push(
                modulation
                    .map(&point_bits)
                    .expect("enumerated bits are always valid"),
            );
            bits.extend(point_bits);
        }
        Lattice {
            points,
            bits,
            bits_per_symbol: n,
        }
    }

    /// Number of lattice points (the size of the decoder's search space).
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Bits carried per lattice point.
    #[inline]
    pub fn bits_per_symbol(&self) -> usize {
        self.bits_per_symbol
    }

    /// All lattice points, in index order — the table sphere-style decoders scan.
    #[inline]
    pub fn points(&self) -> &[Complex] {
        &self.points
    }

    /// The constellation value of one lattice index.
    #[inline]
    pub fn point(&self, index: u16) -> Complex {
        self.points[index as usize]
    }

    /// The bits encoded by one lattice index (MSB first), as a borrowed slice — the
    /// allocation-free replacement for cloning the `Vec<u8>` of a constellation pair.
    #[inline]
    pub fn bits_of(&self, index: u16) -> &[u8] {
        let n = self.bits_per_symbol;
        &self.bits[index as usize * n..(index as usize + 1) * n]
    }

    /// The index of the lattice point nearest to `symbol` (first wins on exact ties,
    /// matching [`Modulation::nearest_point`]).
    #[inline]
    pub fn nearest_index(&self, symbol: Complex) -> u16 {
        let mut best = 0u16;
        let mut best_dist = f64::INFINITY;
        for (i, point) in self.points.iter().enumerate() {
            let d = (symbol - *point).norm_sqr();
            if d < best_dist {
                best_dist = d;
                best = i as u16;
            }
        }
        best
    }
}

/// Supported modulation orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying (1 bit/symbol).
    Bpsk,
    /// Quadrature phase-shift keying (2 bits/symbol).
    Qpsk,
    /// 16-point quadrature amplitude modulation (4 bits/symbol).
    Qam16,
    /// 64-point quadrature amplitude modulation (6 bits/symbol).
    Qam64,
    /// 256-point quadrature amplitude modulation (8 bits/symbol).
    Qam256,
}

impl Modulation {
    /// Number of bits carried per constellation symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }

    /// Number of points in the constellation (the size of the decoder's search space).
    pub fn num_points(self) -> usize {
        1 << self.bits_per_symbol()
    }

    /// 802.11 normalisation factor giving unit average constellation power.
    pub fn normalization(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
            Modulation::Qam256 => 1.0 / 170f64.sqrt(),
        }
    }

    /// Short human-readable name ("QPSK", "16-QAM", …).
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
            Modulation::Qam256 => "256-QAM",
        }
    }

    /// Maps `bits_per_symbol` bits (MSB first) to one constellation point.
    pub fn map(self, bits: &[u8]) -> Result<Complex> {
        let n = self.bits_per_symbol();
        if bits.len() != n {
            return Err(PhyError::LengthMismatch {
                expected: n,
                actual: bits.len(),
            });
        }
        if bits.iter().any(|b| *b > 1) {
            return Err(PhyError::invalid("bits", "bit values must be 0 or 1"));
        }
        let point = match self {
            Modulation::Bpsk => Complex::new(if bits[0] == 1 { 1.0 } else { -1.0 }, 0.0),
            Modulation::Qpsk => Complex::new(gray_pam(&bits[0..1]), gray_pam(&bits[1..2])),
            Modulation::Qam16 => Complex::new(gray_pam(&bits[0..2]), gray_pam(&bits[2..4])),
            Modulation::Qam64 => Complex::new(gray_pam(&bits[0..3]), gray_pam(&bits[3..6])),
            Modulation::Qam256 => Complex::new(gray_pam(&bits[0..4]), gray_pam(&bits[4..8])),
        };
        Ok(point.scale(self.normalization()))
    }

    /// Maps an entire bit stream to constellation symbols. The bit-stream length must be
    /// a multiple of `bits_per_symbol`.
    pub fn map_bits(self, bits: &[u8]) -> Result<Vec<Complex>> {
        let n = self.bits_per_symbol();
        if !bits.len().is_multiple_of(n) {
            return Err(PhyError::invalid(
                "bits",
                format!("length {} is not a multiple of {}", bits.len(), n),
            ));
        }
        bits.chunks(n).map(|c| self.map(c)).collect()
    }

    /// The process-wide cached [`Lattice`] of this modulation: the flat point table and
    /// bit labels that index-based decoders (`u16` lattice indices) work with. Built
    /// once per modulation on first use.
    pub fn lattice(self) -> &'static Lattice {
        static LATTICES: [OnceLock<Lattice>; 5] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        let slot = match self {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
            Modulation::Qam256 => 4,
        };
        LATTICES[slot].get_or_init(|| Lattice::build(self))
    }

    /// Hard-demaps a slice of received points to a bit stream.
    pub fn demap_hard_all(self, symbols: &[Complex]) -> Vec<u8> {
        let lattice = self.lattice();
        let mut out = Vec::with_capacity(symbols.len() * self.bits_per_symbol());
        for s in symbols {
            out.extend_from_slice(lattice.bits_of(lattice.nearest_index(*s)));
        }
        out
    }

    /// Returns the nearest constellation point to `symbol` and the bits it encodes.
    pub fn nearest_point(self, symbol: Complex) -> (Complex, Vec<u8>) {
        let lattice = self.lattice();
        let index = lattice.nearest_index(symbol);
        (lattice.point(index), lattice.bits_of(index).to_vec())
    }

    /// The full constellation: every `(point, bits)` pair. Points are normalised to
    /// unit average power. This is the lattice `L` over which the sphere decoder
    /// searches — kept as a thin (allocating) shim over [`Modulation::lattice`] for
    /// callers that want owned pairs; hot paths should use the lattice directly.
    pub fn constellation(self) -> Vec<(Complex, Vec<u8>)> {
        let lattice = self.lattice();
        (0..lattice.num_points() as u16)
            .map(|i| (lattice.point(i), lattice.bits_of(i).to_vec()))
            .collect()
    }

    /// Just the constellation points (without bit labels), for decoders that only need
    /// the lattice geometry.
    pub fn points(self) -> Vec<Complex> {
        self.lattice().points().to_vec()
    }

    /// Minimum Euclidean distance between distinct constellation points — the decision
    /// distance that shrinks as the modulation order grows (why 64-QAM tolerates much
    /// less interference than QPSK in the paper's figures).
    pub fn min_distance(self) -> f64 {
        match self {
            Modulation::Bpsk => 2.0,
            _ => 2.0 * self.normalization(),
        }
    }
}

/// Gray-coded pulse-amplitude mapping of `bits` (MSB first) onto the odd-integer grid
/// `{±1, ±3, …}` used by square QAM constellations.
fn gray_pam(bits: &[u8]) -> f64 {
    // Convert Gray code to binary index.
    let mut binary = 0usize;
    let mut acc = 0u8;
    for &b in bits {
        acc ^= b;
        binary = (binary << 1) | acc as usize;
    }
    let levels = 1usize << bits.len();
    // Index 0 → −(levels−1), index max → +(levels−1).
    (2 * binary) as f64 - (levels as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Modulation; 5] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ];

    #[test]
    fn bits_per_symbol_and_points() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
        assert_eq!(Modulation::Qam256.bits_per_symbol(), 8);
        assert_eq!(Modulation::Qam64.num_points(), 64);
        assert_eq!(Modulation::Qam256.num_points(), 256);
    }

    #[test]
    fn constellations_have_unit_average_power() {
        for m in ALL {
            let pts = m.points();
            let p: f64 = pts.iter().map(|x| x.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((p - 1.0).abs() < 1e-12, "{m:?} power {p}");
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in ALL {
            let pts = m.points();
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!((pts[i] - pts[j]).norm() > 1e-9, "{m:?} duplicate point");
                }
            }
        }
    }

    #[test]
    fn map_demap_roundtrip_all_points() {
        for m in ALL {
            for (point, bits) in m.constellation() {
                assert_eq!(m.demap_hard_all(&[point]), bits, "{m:?}");
                let (nearest, nbits) = m.nearest_point(point);
                assert!((nearest - point).norm() < 1e-12);
                assert_eq!(nbits, bits);
            }
        }
    }

    #[test]
    fn demapping_is_robust_to_small_noise() {
        for m in ALL {
            let eps = 0.4 * m.min_distance();
            for (point, bits) in m.constellation() {
                let noisy = point + Complex::new(eps / 2.0, -eps / 2.0).scale(0.5);
                assert_eq!(m.demap_hard_all(&[noisy]), bits, "{m:?}");
            }
        }
    }

    #[test]
    fn gray_mapping_adjacent_levels_differ_by_one_bit() {
        // For 16-QAM the I-axis levels come from 2-bit Gray codes: adjacent amplitude
        // levels must differ in exactly one bit.
        let m = Modulation::Qam16;
        let mut by_level: Vec<(f64, Vec<u8>)> = m
            .constellation()
            .into_iter()
            .filter(|(p, _)| (p.im * 10f64.sqrt() - 1.0).abs() < 1e-9)
            .map(|(p, bits)| (p.re, bits[..2].to_vec()))
            .collect();
        by_level.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(by_level.len(), 4);
        for w in by_level.windows(2) {
            let differing: usize = w[0].1.iter().zip(&w[1].1).filter(|(a, b)| a != b).count();
            assert_eq!(differing, 1, "adjacent Gray levels must differ in one bit");
        }
    }

    #[test]
    fn bpsk_points_are_real_plus_minus_one() {
        let pts = Modulation::Bpsk.points();
        assert_eq!(pts.len(), 2);
        assert!(pts
            .iter()
            .any(|p| (p.re - 1.0).abs() < 1e-12 && p.im.abs() < 1e-12));
        assert!(pts
            .iter()
            .any(|p| (p.re + 1.0).abs() < 1e-12 && p.im.abs() < 1e-12));
    }

    #[test]
    fn qpsk_points_on_diagonals() {
        for p in Modulation::Qpsk.points() {
            assert!((p.re.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
            assert!((p.im.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn map_bits_stream_and_validation() {
        let m = Modulation::Qpsk;
        let bits = [0, 1, 1, 0, 1, 1];
        let syms = m.map_bits(&bits).unwrap();
        assert_eq!(syms.len(), 3);
        assert!(m.map_bits(&[0, 1, 1]).is_err());
        assert!(m.map(&[0]).is_err());
        assert!(m.map(&[0, 2]).is_err());
        let demapped = m.demap_hard_all(&syms);
        assert_eq!(demapped, bits);
    }

    #[test]
    fn min_distance_decreases_with_order() {
        assert!(Modulation::Bpsk.min_distance() > Modulation::Qpsk.min_distance());
        assert!(Modulation::Qpsk.min_distance() > Modulation::Qam16.min_distance());
        assert!(Modulation::Qam16.min_distance() > Modulation::Qam64.min_distance());
        assert!(Modulation::Qam64.min_distance() > Modulation::Qam256.min_distance());
    }

    #[test]
    fn min_distance_matches_geometry() {
        for m in ALL {
            let pts = m.points();
            let mut min = f64::INFINITY;
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    min = min.min((pts[i] - pts[j]).norm());
                }
            }
            assert!((min - m.min_distance()).abs() < 1e-9, "{m:?}");
        }
    }

    #[test]
    fn lattice_index_packing_matches_the_map() {
        // Independent reference: the bits of index `i` are `i` itself (MSB first) and
        // the point is what `map` produces for them — derived here from scratch, not
        // through the lattice's own packing (nearest_point / constellation are shims
        // over the lattice now, so comparing against them would be circular).
        for m in ALL {
            let lattice = m.lattice();
            let n = m.bits_per_symbol();
            assert_eq!(lattice.num_points(), m.num_points());
            assert_eq!(lattice.bits_per_symbol(), n);
            assert_eq!(lattice.points().len(), m.num_points());
            for i in 0..m.num_points() {
                let expected_bits: Vec<u8> =
                    (0..n).map(|b| ((i >> (n - 1 - b)) & 1) as u8).collect();
                assert_eq!(lattice.bits_of(i as u16), &expected_bits[..], "{m:?} {i}");
                let expected_point = m.map(&expected_bits).unwrap();
                assert_eq!(lattice.point(i as u16), expected_point, "{m:?} {i}");
                assert_eq!(lattice.points()[i], expected_point, "{m:?} {i}");
            }
            // The cache hands out the same table on every call.
            assert!(std::ptr::eq(lattice, m.lattice()));
        }
    }

    #[test]
    fn nearest_index_is_the_brute_force_argmin() {
        // Independent reference: an argmin computed here over the point table, with
        // the same first-wins tie rule, including probes equidistant from two points
        // (on the decision boundary) and far outside the constellation.
        for m in ALL {
            let lattice = m.lattice();
            let points = lattice.points();
            let boundary = (points[0] + points[points.len() - 1]).scale(0.5);
            let mut probes = vec![boundary, Complex::new(25.0, -25.0), Complex::zero()];
            for p in points {
                probes.push(*p + Complex::new(0.3, -0.2).scale(m.min_distance()));
            }
            for probe in probes {
                let mut expected = 0u16;
                let mut best = f64::INFINITY;
                for (i, point) in points.iter().enumerate() {
                    let d = (probe - *point).norm_sqr();
                    if d < best {
                        best = d;
                        expected = i as u16;
                    }
                }
                assert_eq!(lattice.nearest_index(probe), expected, "{m:?} at {probe}");
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Modulation::Qam64.name(), "64-QAM");
        assert_eq!(Modulation::Bpsk.name(), "BPSK");
    }
}
