//! OFDM numerology: FFT size, cyclic-prefix length, subcarrier roles and standard
//! presets.
//!
//! The presets reproduce the paper's Table 1 (cyclic-prefix size and duration across
//! 802.11 generations); the [`OfdmParams`] struct is the single numerology object every other module consumes.

use crate::{PhyError, Result};

/// Role of one subcarrier within an OFDM symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubcarrierRole {
    /// Carries constellation-mapped user data.
    Data,
    /// Carries a known pilot symbol used for residual phase tracking.
    Pilot,
    /// Transmitted empty (DC null or guard band).
    Null,
}

/// Complete OFDM numerology for one transmitter/receiver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OfdmParams {
    /// FFT size `F` (number of subcarriers including nulls).
    pub fft_size: usize,
    /// Cyclic prefix length `C` in samples.
    pub cp_len: usize,
    /// Sample rate in Hz (equal to the nominal channel bandwidth for 802.11 OFDM).
    pub sample_rate_hz: f64,
    /// Role of every subcarrier, indexed by FFT bin (bin 0 = DC, bins count upward with
    /// wrap-around; bin `F−k` is the subcarrier at −k).
    pub roles: Vec<SubcarrierRole>,
}

impl OfdmParams {
    /// Builds a parameter set after validating the numerology.
    pub fn new(
        fft_size: usize,
        cp_len: usize,
        sample_rate_hz: f64,
        roles: Vec<SubcarrierRole>,
    ) -> Result<Self> {
        if !fft_size.is_power_of_two() || fft_size < 8 {
            return Err(PhyError::invalid(
                "fft_size",
                "must be a power of two and at least 8",
            ));
        }
        if cp_len == 0 || cp_len >= fft_size {
            return Err(PhyError::invalid(
                "cp_len",
                "must be positive and smaller than the FFT size",
            ));
        }
        if sample_rate_hz <= 0.0 {
            return Err(PhyError::invalid("sample_rate_hz", "must be positive"));
        }
        if roles.len() != fft_size {
            return Err(PhyError::LengthMismatch {
                expected: fft_size,
                actual: roles.len(),
            });
        }
        if !roles.contains(&SubcarrierRole::Data) {
            return Err(PhyError::invalid(
                "roles",
                "at least one data subcarrier required",
            ));
        }
        Ok(OfdmParams {
            fft_size,
            cp_len,
            sample_rate_hz,
            roles,
        })
    }

    /// The IEEE 802.11a/g 20 MHz numerology used throughout the paper's experiments:
    /// 64 subcarriers at 312.5 kHz spacing, 16-sample (0.8 µs) cyclic prefix, 48 data
    /// subcarriers, 4 pilots (±7, ±21), DC null and 11 guard subcarriers.
    pub fn ieee80211ag() -> Self {
        let fft_size = 64usize;
        let mut roles = vec![SubcarrierRole::Null; fft_size];
        // Occupied subcarriers are −26..−1 and 1..26 (bins 38..63 and 1..26).
        for k in 1..=26usize {
            roles[k] = SubcarrierRole::Data;
            roles[fft_size - k] = SubcarrierRole::Data;
        }
        // Pilots at ±7 and ±21.
        for k in [7usize, 21] {
            roles[k] = SubcarrierRole::Pilot;
            roles[fft_size - k] = SubcarrierRole::Pilot;
        }
        OfdmParams {
            fft_size,
            cp_len: 16,
            sample_rate_hz: 20e6,
            roles,
        }
    }

    /// 802.11n/ac 40 MHz numerology (128-point FFT). `short_gi` selects the 16-sample
    /// short guard interval instead of the default 32 samples.
    pub fn ieee80211n_40mhz(short_gi: bool) -> Self {
        Self::wideband_80211(128, if short_gi { 16 } else { 32 }, 40e6)
    }

    /// 802.11n/ac 80 MHz numerology (256-point FFT).
    pub fn ieee80211ac_80mhz(short_gi: bool) -> Self {
        Self::wideband_80211(256, if short_gi { 32 } else { 64 }, 80e6)
    }

    /// 802.11n/ac 160 MHz numerology (512-point FFT).
    pub fn ieee80211ac_160mhz(short_gi: bool) -> Self {
        Self::wideband_80211(512, if short_gi { 64 } else { 128 }, 160e6)
    }

    fn wideband_80211(fft_size: usize, cp_len: usize, sample_rate_hz: f64) -> Self {
        // Simplified wideband role map: ~81% of bins occupied, pilots every 20 data
        // bins, DC and band edges null — enough structure for the CP-scaling analysis in
        // Table 1 without reproducing every 802.11n tone map detail.
        let mut roles = vec![SubcarrierRole::Null; fft_size];
        let occupied = (fft_size * 13) / 16; // e.g. 104 of 128
        let half = occupied / 2;
        for k in 1..=half {
            roles[k] = if k % 20 == 7 {
                SubcarrierRole::Pilot
            } else {
                SubcarrierRole::Data
            };
            roles[fft_size - k] = if k % 20 == 14 {
                SubcarrierRole::Pilot
            } else {
                SubcarrierRole::Data
            };
        }
        OfdmParams {
            fft_size,
            cp_len,
            sample_rate_hz,
            roles,
        }
    }

    /// Number of samples in one OFDM symbol including its cyclic prefix.
    #[inline]
    pub fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// Subcarrier spacing in Hz.
    pub fn subcarrier_spacing_hz(&self) -> f64 {
        self.sample_rate_hz / self.fft_size as f64
    }

    /// FFT-bin indices of the data subcarriers, in increasing bin order.
    pub fn data_bins(&self) -> Vec<usize> {
        self.bins_with_role(SubcarrierRole::Data)
    }

    /// FFT-bin indices of the pilot subcarriers, in increasing bin order.
    pub fn pilot_bins(&self) -> Vec<usize> {
        self.bins_with_role(SubcarrierRole::Pilot)
    }

    /// FFT-bin indices of all occupied (data or pilot) subcarriers.
    pub fn occupied_bins(&self) -> Vec<usize> {
        (0..self.fft_size)
            .filter(|k| self.roles[*k] != SubcarrierRole::Null)
            .collect()
    }

    /// Number of data subcarriers per symbol.
    pub fn num_data_subcarriers(&self) -> usize {
        self.data_bins().len()
    }

    fn bins_with_role(&self, role: SubcarrierRole) -> Vec<usize> {
        (0..self.fft_size)
            .filter(|k| self.roles[*k] == role)
            .collect()
    }
}

/// One row of the paper's Table 1 ("Cyclic Prefix in 802.11 standards").
#[derive(Debug, Clone, PartialEq)]
pub struct CpTableRow {
    /// Standard name (e.g. "802.11a/g").
    pub standard: &'static str,
    /// Channel bandwidth in MHz.
    pub bandwidth_mhz: f64,
    /// FFT size.
    pub fft_size: usize,
    /// Long-guard-interval CP size in samples.
    pub cp_long: usize,
    /// Short-guard-interval CP size in samples (None where the standard defines only one).
    pub cp_short: Option<usize>,
    /// Long-GI CP duration in microseconds.
    pub duration_long_us: f64,
    /// Short-GI CP duration in microseconds (None where not defined).
    pub duration_short_us: Option<f64>,
}

/// Regenerates the paper's Table 1 from the preset numerologies.
///
/// Durations follow the paper's convention of quoting every CP length in 802.11a/g
/// 50 ns sample periods (the table's point is that the number of CP *samples* — and so
/// the number of ISI-free samples available for recycling — grows with channel width).
pub fn cp_table() -> Vec<CpTableRow> {
    let rows = [
        ("802.11a/g", OfdmParams::ieee80211ag(), None),
        (
            "802.11n/ac 40 MHz",
            OfdmParams::ieee80211n_40mhz(false),
            Some(OfdmParams::ieee80211n_40mhz(true)),
        ),
        (
            "802.11n/ac 80 MHz",
            OfdmParams::ieee80211ac_80mhz(false),
            Some(OfdmParams::ieee80211ac_80mhz(true)),
        ),
        (
            "802.11n/ac 160 MHz",
            OfdmParams::ieee80211ac_160mhz(false),
            Some(OfdmParams::ieee80211ac_160mhz(true)),
        ),
    ];
    // Legacy 802.11a/g sample period (50 ns), the unit the paper's Table 1 uses.
    let legacy_sample_us = 1.0 / 20.0;
    rows.into_iter()
        .map(|(name, long, short)| CpTableRow {
            standard: name,
            bandwidth_mhz: long.sample_rate_hz / 1e6,
            fft_size: long.fft_size,
            cp_long: long.cp_len,
            cp_short: short.as_ref().map(|s| s.cp_len),
            duration_long_us: long.cp_len as f64 * legacy_sample_us,
            duration_short_us: short.as_ref().map(|s| s.cp_len as f64 * legacy_sample_us),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ieee80211ag_matches_standard() {
        let p = OfdmParams::ieee80211ag();
        assert_eq!(p.fft_size, 64);
        assert_eq!(p.cp_len, 16);
        assert_eq!(p.num_data_subcarriers(), 48);
        assert_eq!(p.pilot_bins().len(), 4);
        assert_eq!(p.occupied_bins().len(), 52);
        assert_eq!(p.symbol_len(), 80);
        // 312.5 kHz spacing — the number quoted in the paper.
        assert!((p.subcarrier_spacing_hz() - 312_500.0).abs() < 1e-6);
    }

    #[test]
    fn pilot_bins_are_plus_minus_7_and_21() {
        let p = OfdmParams::ieee80211ag();
        let pilots = p.pilot_bins();
        assert!(pilots.contains(&7));
        assert!(pilots.contains(&21));
        assert!(pilots.contains(&(64 - 7)));
        assert!(pilots.contains(&(64 - 21)));
    }

    #[test]
    fn dc_bin_is_null() {
        let p = OfdmParams::ieee80211ag();
        assert_eq!(p.roles[0], SubcarrierRole::Null);
        // Guard band around ±27..31 is null.
        for k in 27..=37 {
            assert_eq!(p.roles[k], SubcarrierRole::Null, "bin {k}");
        }
    }

    #[test]
    fn table1_rows_match_paper() {
        let table = cp_table();
        assert_eq!(table.len(), 4);
        // 802.11a/g: 64-point FFT, 16-sample CP, 0.8 µs.
        assert_eq!(table[0].fft_size, 64);
        assert_eq!(table[0].cp_long, 16);
        assert!((table[0].duration_long_us - 0.8).abs() < 1e-9);
        assert_eq!(table[0].cp_short, None);
        // 40 MHz: 128 FFT, 32 (16) CP, 1.6 (0.8) µs.
        assert_eq!(table[1].fft_size, 128);
        assert_eq!(table[1].cp_long, 32);
        assert_eq!(table[1].cp_short, Some(16));
        assert!((table[1].duration_long_us - 1.6).abs() < 1e-9);
        assert!((table[1].duration_short_us.unwrap() - 0.8).abs() < 1e-9);
        // 80 MHz: 256 FFT, 64 (32) CP, 3.2 (1.6) µs.
        assert_eq!(table[2].fft_size, 256);
        assert_eq!(table[2].cp_long, 64);
        assert!((table[2].duration_long_us - 3.2).abs() < 1e-9);
        // 160 MHz: 512 FFT, 128 (64) CP, 6.4 (3.2) µs.
        assert_eq!(table[3].fft_size, 512);
        assert_eq!(table[3].cp_long, 128);
        assert!((table[3].duration_long_us - 6.4).abs() < 1e-9);
        assert!((table[3].duration_short_us.unwrap() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_numerology() {
        let roles64 = vec![SubcarrierRole::Data; 64];
        assert!(OfdmParams::new(60, 16, 20e6, vec![SubcarrierRole::Data; 60]).is_err());
        assert!(OfdmParams::new(64, 0, 20e6, roles64.clone()).is_err());
        assert!(OfdmParams::new(64, 64, 20e6, roles64.clone()).is_err());
        assert!(OfdmParams::new(64, 16, 0.0, roles64.clone()).is_err());
        assert!(OfdmParams::new(64, 16, 20e6, vec![SubcarrierRole::Data; 32]).is_err());
        assert!(OfdmParams::new(64, 16, 20e6, vec![SubcarrierRole::Null; 64]).is_err());
        assert!(OfdmParams::new(64, 16, 20e6, roles64).is_ok());
    }

    #[test]
    fn wider_channels_have_more_isi_free_samples() {
        // Paper §2.2: delay spread is independent of channel width, so the number of
        // over-provisioned CP samples grows with bandwidth.
        let delay_spread_s = 200e-9;
        for (p, expect_cp) in [
            (OfdmParams::ieee80211ag(), 16),
            (OfdmParams::ieee80211n_40mhz(false), 32),
            (OfdmParams::ieee80211ac_80mhz(false), 64),
            (OfdmParams::ieee80211ac_160mhz(false), 128),
        ] {
            assert_eq!(p.cp_len, expect_cp);
            let spread_samples = (delay_spread_s * p.sample_rate_hz).ceil() as usize;
            let isi_free = p.cp_len - spread_samples;
            assert!(isi_free as f64 / p.cp_len as f64 >= 0.5);
        }
    }
}
