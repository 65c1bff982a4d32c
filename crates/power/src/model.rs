//! Per-server power model.
//!
//! Following the measurements of Fan et al. (the paper's reference \[14])
//! a server's power draw is close to linear in CPU utilization between
//! an idle floor and the *rated power* (the measured maximum draw, which
//! the paper uses for provisioning instead of the higher nameplate
//! value). Fig 4 of the Ampere paper shows frozen servers decaying
//! toward ~0.70 of rated power after 35 minutes; that floor is the idle
//! power plus still-running long jobs, which together with the ~70 %
//! mean data-center power utilization of Fig 1 calibrates the default
//! `idle_fraction` of 0.60.
//!
//! DVFS capping scales the *dynamic* (utilization-dependent) component:
//! lowering frequency reduces dynamic power roughly quadratically (the
//! voltage is reduced together with the clock) while stretching the work
//! by `1/freq`.

/// Static description of a server model's power behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerModel {
    /// Rated (measured maximum) power in watts; the provisioning unit.
    pub rated_w: f64,
    /// Idle power as a fraction of rated power.
    pub idle_fraction: f64,
    /// Exponent on utilization for the dynamic component. 1.0 = linear
    /// (the empirical default); values < 1 model early saturation.
    pub gamma: f64,
}

impl Default for ServerPowerModel {
    fn default() -> Self {
        Self {
            // A typical 2U server per §2.1 ("typical rated peak power of a
            // server is about 250W").
            rated_w: 250.0,
            // Calibrated so that the paper's fleet-level numbers hold
            // together: a ~70 % mean data-center power utilization
            // (Fig 1) at moderate CPU utilization, and the Fig 4
            // frozen-server decay toward ~0.70 of rated (idle floor
            // plus residual long jobs).
            idle_fraction: 0.60,
            gamma: 1.0,
        }
    }
}

impl ServerPowerModel {
    /// Creates a model, validating parameter ranges.
    pub fn new(rated_w: f64, idle_fraction: f64, gamma: f64) -> Self {
        assert!(rated_w > 0.0 && rated_w.is_finite(), "bad rated power");
        assert!(
            (0.0..=1.0).contains(&idle_fraction),
            "idle fraction must be in [0, 1]"
        );
        assert!(gamma > 0.0 && gamma.is_finite(), "bad gamma");
        Self {
            rated_w,
            idle_fraction,
            gamma,
        }
    }

    /// Idle power in watts.
    pub fn idle_w(&self) -> f64 {
        self.rated_w * self.idle_fraction
    }

    /// Power draw at CPU utilization `util` (clamped to `[0, 1]`) and
    /// DVFS state `dvfs`.
    ///
    /// `P = P_idle + (P_rated − P_idle) · util^γ · s(f)` where `s(f)` is
    /// the dynamic scaling factor of the DVFS state.
    pub fn power_w(&self, util: f64, dvfs: DvfsState) -> f64 {
        let dynamic = (self.rated_w - self.idle_w()) * self.util_term(util);
        self.idle_w() + dynamic * dvfs.dynamic_power_factor()
    }

    /// Inverse of the dynamic scaling: the frequency needed so that the
    /// server draws at most `target_w` at utilization `util`.
    ///
    /// Returns a frequency in `[min_freq, 1]`; if even `min_freq` cannot
    /// reach the target (e.g. the target is below idle power), returns
    /// `min_freq` — DVFS cannot cut the idle floor.
    pub fn freq_for_power(&self, util: f64, target_w: f64, min_freq: f64) -> f64 {
        let dynamic = (self.rated_w - self.idle_w()) * self.util_term(util);
        if dynamic <= 0.0 {
            return 1.0;
        }
        let needed_factor = ((target_w - self.idle_w()) / dynamic).clamp(0.0, 1.0);
        // dynamic_power_factor(f) = f², so f = sqrt(factor).
        needed_factor.sqrt().clamp(min_freq, 1.0)
    }

    /// `util^γ` with `util` clamped to `[0, 1]`. The linear default
    /// skips `powf`: IEEE 754 defines `pow(x, 1) = x` exactly, so the
    /// shortcut returns the same bits and saves a libm call on every
    /// placement and completion.
    fn util_term(&self, util: f64) -> f64 {
        let util = util.clamp(0.0, 1.0);
        if self.gamma == 1.0 {
            util
        } else {
            util.powf(self.gamma)
        }
    }
}

/// DVFS frequency state of a server.
///
/// `freq` is the normalized clock in `(0, 1]`; 1.0 is nominal. Work
/// progresses at rate `freq`, so a job that needs `d` seconds of nominal
/// compute takes `d / freq` wall-clock seconds while capped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsState {
    freq: f64,
}

impl Default for DvfsState {
    fn default() -> Self {
        Self::nominal()
    }
}

impl DvfsState {
    /// The lowest frequency RAPL-style capping will select; below this
    /// the platform becomes unstable, so hardware clamps here.
    pub const MIN_FREQ: f64 = 0.4;

    /// Full-speed state.
    pub const fn nominal() -> Self {
        Self { freq: 1.0 }
    }

    /// Builds a state at the given normalized frequency.
    ///
    /// Panics if `freq` is outside `(0, 1]`.
    pub fn at(freq: f64) -> Self {
        assert!(
            freq > 0.0 && freq <= 1.0 && freq.is_finite(),
            "frequency must be in (0, 1], got {freq}"
        );
        Self { freq }
    }

    /// The normalized frequency.
    pub fn freq(&self) -> f64 {
        self.freq
    }

    /// Whether the server is currently slowed down by capping.
    pub fn is_capped(&self) -> bool {
        self.freq < 1.0
    }

    /// Dynamic-power scaling factor `s(f) = f²` (frequency and voltage
    /// scale together, P_dyn ∝ f·V² with V ∝ f over the DVFS range).
    pub fn dynamic_power_factor(&self) -> f64 {
        self.freq * self.freq
    }

    /// Wall-clock stretch factor for work executed in this state.
    pub fn slowdown(&self) -> f64 {
        1.0 / self.freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_and_peak() {
        let m = ServerPowerModel::default();
        assert!((m.power_w(0.0, DvfsState::nominal()) - m.idle_w()).abs() < 1e-9);
        assert!((m.power_w(1.0, DvfsState::nominal()) - m.rated_w).abs() < 1e-9);
    }

    #[test]
    fn power_monotone_in_util() {
        let m = ServerPowerModel::default();
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = m.power_w(i as f64 / 10.0, DvfsState::nominal());
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn util_clamped() {
        let m = ServerPowerModel::default();
        assert_eq!(
            m.power_w(1.5, DvfsState::nominal()),
            m.power_w(1.0, DvfsState::nominal())
        );
        assert_eq!(
            m.power_w(-0.2, DvfsState::nominal()),
            m.power_w(0.0, DvfsState::nominal())
        );
    }

    #[test]
    fn dvfs_reduces_dynamic_only() {
        let m = ServerPowerModel::default();
        let capped = DvfsState::at(0.5);
        // Idle power unaffected by frequency.
        assert!((m.power_w(0.0, capped) - m.idle_w()).abs() < 1e-9);
        // Dynamic component scaled by 0.25.
        let full = m.power_w(1.0, DvfsState::nominal());
        let slow = m.power_w(1.0, capped);
        let dynamic = full - m.idle_w();
        assert!((slow - (m.idle_w() + dynamic * 0.25)).abs() < 1e-9);
    }

    #[test]
    fn freq_for_power_inverts() {
        let m = ServerPowerModel::default();
        let util = 0.8;
        let target = m.power_w(util, DvfsState::at(0.7));
        let f = m.freq_for_power(util, target, DvfsState::MIN_FREQ);
        assert!((f - 0.7).abs() < 1e-9, "f = {f}");
        // Reaching the target at that frequency.
        assert!((m.power_w(util, DvfsState::at(f)) - target).abs() < 1e-9);
    }

    #[test]
    fn freq_for_power_saturates() {
        let m = ServerPowerModel::default();
        // Target below idle: best DVFS can do is MIN_FREQ.
        let f = m.freq_for_power(0.9, m.idle_w() * 0.5, DvfsState::MIN_FREQ);
        assert_eq!(f, DvfsState::MIN_FREQ);
        // Target above current draw: full speed.
        let f = m.freq_for_power(0.5, m.rated_w * 2.0, DvfsState::MIN_FREQ);
        assert_eq!(f, 1.0);
        // Idle server: frequency irrelevant, keep nominal.
        let f = m.freq_for_power(0.0, 10.0, DvfsState::MIN_FREQ);
        assert_eq!(f, 1.0);
    }

    #[test]
    fn linear_shortcut_is_bit_equal_to_powf() {
        // The γ = 1 shortcut must return exactly what `powf(1.0)` did:
        // over the allocation grid (utilization = millicores / 32000)
        // and a seeded random sample, power and the inverse agree bit
        // for bit with the `powf` formula.
        let m = ServerPowerModel::default();
        let reference = |util: f64| m.idle_w() + (m.rated_w - m.idle_w()) * util.powf(1.0);
        let grid = (0..=32_000u32).map(|k| f64::from(k) / 32_000.0);
        let mut rng = ampere_sim::derive_stream(2016, 1);
        let random = (0..100_000).map(|_| rng.gen::<f64>());
        for util in grid.chain(random) {
            assert_eq!(util.powf(1.0).to_bits(), util.to_bits(), "util {util}");
            let p = m.power_w(util, DvfsState::nominal());
            assert_eq!(p.to_bits(), reference(util).to_bits(), "util {util}");
            let target = p - 1.0;
            let dynamic = (m.rated_w - m.idle_w()) * util.powf(1.0);
            let expect = if dynamic <= 0.0 {
                1.0
            } else {
                ((target - m.idle_w()) / dynamic)
                    .clamp(0.0, 1.0)
                    .sqrt()
                    .clamp(DvfsState::MIN_FREQ, 1.0)
            };
            let f = m.freq_for_power(util, target, DvfsState::MIN_FREQ);
            assert_eq!(f.to_bits(), expect.to_bits(), "util {util}");
        }
        // Other exponents still take `powf`.
        let sat = ServerPowerModel::new(250.0, 0.6, 0.5);
        let p = sat.power_w(0.25, DvfsState::nominal());
        assert_eq!(p, sat.idle_w() + (250.0 - sat.idle_w()) * 0.5);
    }

    #[test]
    fn slowdown_factor() {
        assert_eq!(DvfsState::nominal().slowdown(), 1.0);
        assert_eq!(DvfsState::at(0.5).slowdown(), 2.0);
        assert!(DvfsState::at(0.5).is_capped());
        assert!(!DvfsState::nominal().is_capped());
    }

    #[test]
    #[should_panic(expected = "frequency must be in")]
    fn rejects_zero_freq() {
        let _ = DvfsState::at(0.0);
    }

    #[test]
    #[should_panic(expected = "idle fraction")]
    fn rejects_bad_idle_fraction() {
        let _ = ServerPowerModel::new(250.0, 1.5, 1.0);
    }
}
