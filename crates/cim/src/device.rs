//! NVM device model configuration.

use std::fmt;

/// Emerging-memory technology presets.
///
/// The paper's model is technology-agnostic (a value-independent Gaussian
/// on each programmed level); the presets differ only in their nominal
/// variation σ, chosen to reflect the relative maturity the paper
/// discusses ("certain emerging technologies may lead to higher
/// variations especially before they become mature", §4.3). They are
/// illustrative defaults, not measured silicon data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceTech {
    /// Resistive RAM — the paper's typical case, σ = 0.1.
    Rram,
    /// Ferroelectric FET — fast read, modest variation, σ = 0.1.
    Fefet,
    /// Phase-change memory — higher programming stochasticity, σ = 0.15.
    Pcm,
}

impl DeviceTech {
    /// Every preset, in presentation order.
    pub fn all() -> [DeviceTech; 3] {
        [DeviceTech::Rram, DeviceTech::Fefet, DeviceTech::Pcm]
    }

    /// Stable lowercase key used by experiment specs and the CLI.
    pub fn key(&self) -> &'static str {
        match self {
            DeviceTech::Rram => "rram",
            DeviceTech::Fefet => "fefet",
            DeviceTech::Pcm => "pcm",
        }
    }

    /// Parses a technology name (case-insensitive; accepts the spec key
    /// or the display name). Returns `None` for unknown names.
    ///
    /// # Example
    ///
    /// ```
    /// use swim_cim::device::DeviceTech;
    ///
    /// assert_eq!(DeviceTech::parse("rram"), Some(DeviceTech::Rram));
    /// assert_eq!(DeviceTech::parse("FeFET"), Some(DeviceTech::Fefet));
    /// assert_eq!(DeviceTech::parse("dram"), None);
    /// ```
    pub fn parse(name: &str) -> Option<DeviceTech> {
        let lower = name.to_lowercase();
        DeviceTech::all().into_iter().find(|t| t.key() == lower)
    }
}

impl fmt::Display for DeviceTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceTech::Rram => "RRAM",
            DeviceTech::Fefet => "FeFET",
            DeviceTech::Pcm => "PCM",
        };
        f.write_str(s)
    }
}

/// Parameters of the device programming model (paper §4.1).
///
/// Units: device conductances are expressed in integer *level* units of a
/// `K`-bit device (levels `0 ..= 2^K − 1`), matching Eq. 15. `sigma`,
/// `verify_margin`, and `pulse_step` are **fractions of the device's
/// full-scale range** `2^K − 1` — the convention under which the paper's
/// numbers are mutually consistent: write-verify with margin 0.06 leaves
/// a residual deviation of ≈3% of full scale, matching ref \[8\]'s "weight
/// deviation … less than 3%", and σ = 0.1 produces the multi-percent
/// accuracy drops of Table 1/Fig. 2. Use [`DeviceConfig::level_sigma`]
/// etc. for the values converted to level units.
///
/// # Example
///
/// ```
/// use swim_cim::device::DeviceConfig;
///
/// let cfg = DeviceConfig::rram();
/// assert_eq!(cfg.sigma, 0.1);
/// assert_eq!(cfg.verify_margin, 0.06);
/// let high_var = cfg.with_sigma(0.2); // the paper's σ sweep
/// assert_eq!(high_var.sigma, 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Std of the programming noise per write, in level units
    /// (paper: 0.1 typical, swept to 0.15 / 0.2 in Table 1).
    pub sigma: f64,
    /// Write-verify acceptance margin: iterate until
    /// `|g − g_desired| ≤ margin` (paper: 0.06).
    pub verify_margin: f64,
    /// Conductance change achievable per programming pulse; each
    /// correction of size `e` costs `ceil(|e| / pulse_step)` pulses.
    /// Calibrated so write-verify averages ≈10 pulses/weight at σ = 0.1
    /// (paper §4.1 after ref \[8\]).
    pub pulse_step: f64,
    /// Safety bound on verify iterations (the stochastic loop terminates
    /// with probability 1, but a bound keeps worst-case time finite).
    pub max_verify_iters: u32,
    /// Bits per device (`K`; paper uses 4).
    pub device_bits: u32,
}

impl DeviceConfig {
    /// RRAM preset: the paper's typical configuration.
    pub fn rram() -> Self {
        DeviceConfig {
            sigma: 0.1,
            verify_margin: 0.06,
            pulse_step: 0.018,
            max_verify_iters: 100,
            device_bits: 4,
        }
    }

    /// FeFET preset (fast, low-energy writes; same nominal variation).
    pub fn fefet() -> Self {
        DeviceConfig { sigma: 0.1, ..Self::rram() }
    }

    /// PCM preset (higher programming stochasticity).
    pub fn pcm() -> Self {
        DeviceConfig { sigma: 0.15, ..Self::rram() }
    }

    /// Preset lookup by technology.
    pub fn for_tech(tech: DeviceTech) -> Self {
        match tech {
            DeviceTech::Rram => Self::rram(),
            DeviceTech::Fefet => Self::fefet(),
            DeviceTech::Pcm => Self::pcm(),
        }
    }

    /// Returns a copy with a different variation level (builder style) —
    /// used by the paper's σ ∈ {0.1, 0.15, 0.2} sweep.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be non-negative");
        self.sigma = sigma;
        self
    }

    /// Returns a copy with a different device bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or above 8.
    pub fn with_device_bits(mut self, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "device bits must be in 1..=8");
        self.device_bits = bits;
        self
    }

    /// Device full-scale range in level units: `2^K − 1`.
    pub fn full_scale(&self) -> f64 {
        ((1u32 << self.device_bits) - 1) as f64
    }

    /// Programming-noise std in level units: `sigma × (2^K − 1)`.
    pub fn level_sigma(&self) -> f64 {
        self.sigma * self.full_scale()
    }

    /// Write-verify margin in level units.
    pub fn level_margin(&self) -> f64 {
        self.verify_margin * self.full_scale()
    }

    /// Pulse quantum in level units.
    pub fn level_pulse_step(&self) -> f64 {
        self.pulse_step * self.full_scale()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of its documented range. Called by the
    /// programming entry points.
    #[inline]
    pub fn validate(&self) {
        assert!(self.sigma.is_finite() && self.sigma >= 0.0, "sigma must be non-negative");
        assert!(
            self.verify_margin.is_finite() && self.verify_margin > 0.0,
            "verify_margin must be positive"
        );
        assert!(
            self.pulse_step.is_finite() && self.pulse_step > 0.0,
            "pulse_step must be positive"
        );
        assert!(self.max_verify_iters > 0, "max_verify_iters must be positive");
        assert!((1..=8).contains(&self.device_bits), "device bits must be in 1..=8");
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::rram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for tech in [DeviceTech::Rram, DeviceTech::Fefet, DeviceTech::Pcm] {
            DeviceConfig::for_tech(tech).validate();
        }
    }

    #[test]
    fn sigma_sweep_builder() {
        let cfg = DeviceConfig::rram().with_sigma(0.2);
        assert_eq!(cfg.sigma, 0.2);
        assert_eq!(cfg.verify_margin, DeviceConfig::rram().verify_margin);
    }

    #[test]
    fn pcm_noisier_than_rram() {
        assert!(DeviceConfig::pcm().sigma > DeviceConfig::rram().sigma);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_sigma() {
        DeviceConfig::rram().with_sigma(-0.1);
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceTech::Rram.to_string(), "RRAM");
        assert_eq!(DeviceTech::Fefet.to_string(), "FeFET");
        assert_eq!(DeviceTech::Pcm.to_string(), "PCM");
    }

    #[test]
    fn tech_keys_round_trip() {
        for tech in DeviceTech::all() {
            assert_eq!(DeviceTech::parse(tech.key()), Some(tech));
            // Display names parse too (case-insensitively).
            assert_eq!(DeviceTech::parse(&tech.to_string()), Some(tech));
        }
        assert_eq!(DeviceTech::parse("sram"), None);
    }
}
