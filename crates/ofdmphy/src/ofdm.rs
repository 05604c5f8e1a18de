//! OFDM symbol-level modulation and demodulation.
//!
//! * Transmit side: map data and pilot values onto their FFT bins, IFFT, prepend the
//!   cyclic prefix.
//! * Receive side: extract an FFT window from anywhere inside a received symbol. The
//!   standard receiver always uses the window that starts right after the cyclic prefix;
//!   the CPRecycle receiver extracts `P` windows ("segments") and corrects the
//!   deterministic phase ramp that an earlier window start introduces (paper Eq. 2 and
//!   Proposition 3.1).

use crate::params::{OfdmParams, SubcarrierRole};
use crate::{PhyError, Result};
use rfdsp::fft::FftPlan;
use rfdsp::Complex;

/// A reusable OFDM modulator/demodulator for one numerology.
#[derive(Debug, Clone)]
pub struct OfdmEngine {
    params: OfdmParams,
    plan: FftPlan,
}

impl OfdmEngine {
    /// Creates an engine for the given numerology.
    pub fn new(params: OfdmParams) -> Self {
        let plan = FftPlan::new(params.fft_size);
        OfdmEngine { params, plan }
    }

    /// The numerology this engine operates with.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// Assembles the frequency-domain vector for one OFDM symbol from `data` values (one
    /// per data subcarrier, in increasing bin order) and `pilots` (one per pilot
    /// subcarrier, in increasing bin order).
    pub fn assemble_bins(&self, data: &[Complex], pilots: &[Complex]) -> Result<Vec<Complex>> {
        let data_bins = self.params.data_bins();
        let pilot_bins = self.params.pilot_bins();
        if data.len() != data_bins.len() {
            return Err(PhyError::LengthMismatch {
                expected: data_bins.len(),
                actual: data.len(),
            });
        }
        if pilots.len() != pilot_bins.len() {
            return Err(PhyError::LengthMismatch {
                expected: pilot_bins.len(),
                actual: pilots.len(),
            });
        }
        let mut bins = vec![Complex::zero(); self.params.fft_size];
        for (bin, value) in data_bins.iter().zip(data) {
            bins[*bin] = *value;
        }
        for (bin, value) in pilot_bins.iter().zip(pilots) {
            bins[*bin] = *value;
        }
        Ok(bins)
    }

    /// Modulates a frequency-domain vector into one time-domain OFDM symbol with cyclic
    /// prefix (`cp_len + fft_size` samples).
    pub fn modulate_symbol(&self, bins: &[Complex]) -> Result<Vec<Complex>> {
        if bins.len() != self.params.fft_size {
            return Err(PhyError::LengthMismatch {
                expected: self.params.fft_size,
                actual: bins.len(),
            });
        }
        let time = self.plan.ifft(bins);
        let mut out = Vec::with_capacity(self.params.symbol_len());
        out.extend_from_slice(&time[self.params.fft_size - self.params.cp_len..]);
        out.extend_from_slice(&time);
        Ok(out)
    }

    /// Convenience: assemble and modulate in one step.
    pub fn modulate(&self, data: &[Complex], pilots: &[Complex]) -> Result<Vec<Complex>> {
        let bins = self.assemble_bins(data, pilots)?;
        self.modulate_symbol(&bins)
    }

    /// Demodulates one received OFDM symbol (`cp_len + fft_size` samples) using the FFT
    /// window that starts `window_start` samples into the symbol.
    ///
    /// `window_start = cp_len` is the standard receiver's choice (skip the whole CP);
    /// smaller values slide the window back into the cyclic prefix — CPRecycle's
    /// segments. The deterministic phase rotation caused by the earlier window start is
    /// corrected here, so in an interference-free channel every ISI-free `window_start`
    /// yields the same output (Proposition 3.1).
    pub fn demodulate_window(
        &self,
        symbol_samples: &[Complex],
        window_start: usize,
    ) -> Result<Vec<Complex>> {
        let f = self.params.fft_size;
        let c = self.params.cp_len;
        if symbol_samples.len() < self.params.symbol_len() {
            return Err(PhyError::InsufficientSamples {
                needed: self.params.symbol_len(),
                available: symbol_samples.len(),
            });
        }
        if window_start > c {
            return Err(PhyError::invalid(
                "window_start",
                format!("must not exceed the cyclic prefix length {c}"),
            ));
        }
        let mut bins = self
            .plan
            .fft(&symbol_samples[window_start..window_start + f]);
        // Starting the window `shift = cp_len − window_start` samples early is a cyclic
        // delay of the useful symbol by `shift`, i.e. a multiplication of bin k by
        // e^{−i2πk·shift/F}; undo it.
        let shift = c - window_start;
        if shift > 0 {
            for (k, b) in bins.iter_mut().enumerate() {
                *b *= Complex::cis(2.0 * std::f64::consts::PI * (k * shift) as f64 / f as f64);
            }
        }
        Ok(bins)
    }

    /// Demodulates with the standard receiver's window (immediately after the CP).
    pub fn demodulate_standard(&self, symbol_samples: &[Complex]) -> Result<Vec<Complex>> {
        self.demodulate_window(symbol_samples, self.params.cp_len)
    }

    /// Extracts the values on the data subcarriers (in increasing bin order) from a
    /// demodulated symbol.
    pub fn extract_data(&self, bins: &[Complex]) -> Result<Vec<Complex>> {
        self.extract_role(bins, SubcarrierRole::Data)
    }

    /// Extracts the values on the pilot subcarriers (in increasing bin order) from a
    /// demodulated symbol.
    pub fn extract_pilots(&self, bins: &[Complex]) -> Result<Vec<Complex>> {
        self.extract_role(bins, SubcarrierRole::Pilot)
    }

    fn extract_role(&self, bins: &[Complex], role: SubcarrierRole) -> Result<Vec<Complex>> {
        if bins.len() != self.params.fft_size {
            return Err(PhyError::LengthMismatch {
                expected: self.params.fft_size,
                actual: bins.len(),
            });
        }
        Ok((0..self.params.fft_size)
            .filter(|k| self.params.roles[*k] == role)
            .map(|k| bins[k])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;
    use rand::{Rng, SeedableRng};

    fn engine() -> OfdmEngine {
        OfdmEngine::new(OfdmParams::ieee80211ag())
    }

    fn random_data_symbols(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Modulation::Qam16;
        (0..n)
            .map(|_| {
                let bits: Vec<u8> = (0..4).map(|_| rng.gen_range(0..2)).collect();
                m.map(&bits).unwrap()
            })
            .collect()
    }

    fn pilots() -> Vec<Complex> {
        vec![Complex::one(); 4]
    }

    #[test]
    fn assemble_places_values_on_correct_bins() {
        let e = engine();
        let data = random_data_symbols(48, 1);
        let bins = e.assemble_bins(&data, &pilots()).unwrap();
        assert_eq!(bins.len(), 64);
        assert_eq!(bins[0], Complex::zero());
        let data_bins = e.params().data_bins();
        assert_eq!(bins[data_bins[0]], data[0]);
        assert_eq!(bins[*data_bins.last().unwrap()], *data.last().unwrap());
        assert_eq!(bins[7], Complex::one()); // pilot
    }

    #[test]
    fn assemble_length_validation() {
        let e = engine();
        assert!(e
            .assemble_bins(&random_data_symbols(40, 2), &pilots())
            .is_err());
        assert!(e
            .assemble_bins(&random_data_symbols(48, 2), &[Complex::one(); 3])
            .is_err());
        assert!(e.modulate_symbol(&vec![Complex::zero(); 60]).is_err());
    }

    #[test]
    fn symbol_has_cyclic_prefix() {
        let e = engine();
        let sym = e.modulate(&random_data_symbols(48, 3), &pilots()).unwrap();
        assert_eq!(sym.len(), 80);
        // The CP is a copy of the last 16 samples.
        for t in 0..16 {
            assert!((sym[t] - sym[64 + t]).norm() < 1e-12);
        }
    }

    #[test]
    fn modulate_demodulate_roundtrip() {
        let e = engine();
        let data = random_data_symbols(48, 4);
        let sym = e.modulate(&data, &pilots()).unwrap();
        let bins = e.demodulate_standard(&sym).unwrap();
        let recovered = e.extract_data(&bins).unwrap();
        for (a, b) in recovered.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-9);
        }
        let recovered_pilots = e.extract_pilots(&bins).unwrap();
        assert_eq!(recovered_pilots.len(), 4);
        for p in recovered_pilots {
            assert!((p - Complex::one()).norm() < 1e-9);
        }
    }

    #[test]
    fn proposition_3_1_all_windows_agree_after_phase_correction() {
        // The heart of CPRecycle: in a clean channel, every FFT window inside the CP
        // gives the same subcarrier values once the phase ramp is corrected.
        let e = engine();
        let data = random_data_symbols(48, 5);
        let sym = e.modulate(&data, &pilots()).unwrap();
        let reference = e.demodulate_standard(&sym).unwrap();
        for window_start in 0..=16usize {
            let bins = e.demodulate_window(&sym, window_start).unwrap();
            for k in 0..64 {
                assert!(
                    (bins[k] - reference[k]).norm() < 1e-9,
                    "window {window_start}, bin {k}"
                );
            }
        }
    }

    #[test]
    fn uncorrected_windows_differ() {
        // Sanity check that the phase correction is actually doing something: raw FFTs
        // of different windows are NOT equal on non-DC bins.
        let e = engine();
        let data = random_data_symbols(48, 6);
        let sym = e.modulate(&data, &pilots()).unwrap();
        let plan = FftPlan::new(64);
        let w0 = plan.fft(&sym[0..64]);
        let w16 = plan.fft(&sym[16..80]);
        let diff: f64 = (0..64).map(|k| (w0[k] - w16[k]).norm_sqr()).sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn window_start_beyond_cp_is_rejected() {
        let e = engine();
        let sym = e.modulate(&random_data_symbols(48, 7), &pilots()).unwrap();
        assert!(e.demodulate_window(&sym, 17).is_err());
        assert!(e.demodulate_window(&sym[..70], 0).is_err());
    }

    #[test]
    fn extract_role_validates_length() {
        let e = engine();
        assert!(e.extract_data(&[Complex::zero(); 10]).is_err());
        assert!(e.extract_pilots(&[Complex::zero(); 10]).is_err());
    }
}
