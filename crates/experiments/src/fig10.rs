//! Fig 10 and Table 2: Ampere's control under light and heavy
//! workload at r_O = 0.25.
//!
//! A parity-split row: the experiment group runs under Ampere, the
//! control group is left alone; both are measured against the scaled
//! budget (Eq. 16) with hardware capping off "so we can observe the
//! real power demand". The paper's headline: 321 violations without
//! control vs 1 with it (heavy), the residual one caused by the
//! operational `u_max = 0.5` limit.

use ampere_cluster::ServerId;
use ampere_core::{scaled_budget_w, ParitySplit};
use ampere_power::CappingConfig;
use ampere_sched::RandomFit;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

use crate::calibrate::{controller_with, et_from_records};
use crate::testbed::{DomainId, DomainSpec, Testbed, TestbedConfig};

/// Which Table 2 column to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The light workload of Fig 10(a).
    Light,
    /// The heavy workload of Fig 10(b).
    Heavy,
}

impl WorkloadKind {
    /// The arrival profile for this workload.
    pub fn profile(self) -> RateProfile {
        match self {
            WorkloadKind::Light => RateProfile::light_row(),
            WorkloadKind::Heavy => RateProfile::heavy_row(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Light => "Light",
            WorkloadKind::Heavy => "Heavy",
        }
    }
}

/// Configuration of the Fig 10 / Table 2 reproduction.
pub struct Fig10Config {
    /// The workload column.
    pub workload: WorkloadKind,
    /// Measured hours (24 in the paper).
    pub hours: u64,
    /// Warm-up minutes discarded before measurement.
    pub warmup_mins: u64,
    /// Over-provisioning ratio (0.25 in Fig 10/Table 2).
    pub r_o: f64,
    /// RNG seed.
    pub seed: u64,
    /// Hours of uncontrolled calibration used to fit the `Et` table.
    pub calibration_hours: u64,
}

impl Fig10Config {
    /// Paper-scale configuration for one workload column.
    pub fn paper(workload: WorkloadKind) -> Self {
        Self {
            workload,
            hours: 24,
            warmup_mins: 120,
            r_o: 0.25,
            seed: 10,
            calibration_hours: 24,
        }
    }
}

/// Per-group statistics — one Table 2 column half.
#[derive(Debug, Clone, Copy)]
pub struct GroupStats {
    /// Mean freezing ratio over the window.
    pub u_mean: f64,
    /// Maximum freezing ratio.
    pub u_max: f64,
    /// Mean normalized power.
    pub p_mean: f64,
    /// Maximum normalized power.
    pub p_max: f64,
    /// Power violations (minutes over the scaled budget).
    pub violations: u64,
}

/// The reproduced figure and table column.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// `(minute, power_norm, freezing_ratio)` for the experiment group.
    pub exp_trace: Vec<(u64, f64, f64)>,
    /// `(minute, power_norm)` for the control group.
    pub ctl_trace: Vec<(u64, f64)>,
    /// Experiment-group statistics.
    pub exp: GroupStats,
    /// Control-group statistics.
    pub ctl: GroupStats,
}

fn group_stats(records: &[crate::testbed::DomainTickRecord]) -> GroupStats {
    let n = records.len().max(1) as f64;
    GroupStats {
        u_mean: records.iter().map(|r| r.freezing_ratio).sum::<f64>() / n,
        u_max: records.iter().map(|r| r.freezing_ratio).fold(0.0, f64::max),
        p_mean: records.iter().map(|r| r.power_norm).sum::<f64>() / n,
        p_max: records.iter().map(|r| r.power_norm).fold(0.0, f64::max),
        violations: records.iter().filter(|r| r.violation).count() as u64,
    }
}

/// Builds the standard parity-split testbed used by several
/// experiments; returns `(testbed, exp_domain, ctl_domain)`. The
/// experiment group is controlled iff a controller is supplied.
pub fn parity_testbed(
    profile: RateProfile,
    seed: u64,
    r_o: f64,
    controller: Option<ampere_core::AmpereController>,
) -> (Testbed, DomainId, DomainId) {
    parity_testbed_with(profile, seed, r_o, controller, None)
}

/// [`parity_testbed`] with an optional fault plan injected into the
/// testbed (the chaos variant of the parity experiment).
pub fn parity_testbed_with(
    profile: RateProfile,
    seed: u64,
    r_o: f64,
    controller: Option<ampere_core::AmpereController>,
    faults: Option<ampere_faults::FaultPlan>,
) -> (Testbed, DomainId, DomainId) {
    let config = TestbedConfig {
        capping: CappingConfig {
            enabled: false,
            ..CappingConfig::default()
        },
        policy: Box::new(RandomFit::default()),
        faults,
        ..TestbedConfig::paper_row(profile, seed)
    };
    let mut tb = Testbed::new(config);
    let spec = *tb.cluster().spec();
    let all: Vec<ServerId> = (0..spec.server_count() as u64).map(ServerId::new).collect();
    let (exp, ctl) = ParitySplit::split(all);
    let group_rated = exp.len() as f64 * spec.power_model.rated_w;
    let budget = scaled_budget_w(group_rated, r_o);
    let exp_dom = tb.add_domain(DomainSpec {
        name: "experiment".into(),
        servers: exp,
        budget_w: budget,
        controller,
        capped: false,
    });
    let ctl_dom = tb.add_domain(DomainSpec {
        name: "control".into(),
        servers: ctl,
        budget_w: budget,
        controller: None,
        capped: false,
    });
    (tb, exp_dom, ctl_dom)
}

/// Runs the reproduction for one workload column.
pub fn run(config: Fig10Config) -> Fig10Result {
    run_with_faults(config, None)
}

/// [`run`] with an optional fault plan applied to the *measured* phase
/// only: calibration stays fault-free (the `Et` table is fit from clean
/// history, as in the paper), then the controlled run rides out the
/// injected faults.
pub fn run_with_faults(
    config: Fig10Config,
    faults: Option<ampere_faults::FaultPlan>,
) -> Fig10Result {
    // Phase 1 — calibration: an uncontrolled run of the same workload
    // fits the per-hour Et table (§3.6's "monitor the power of all rows
    // ... for a long time").
    let (mut cal, cal_exp, _) =
        parity_testbed(config.workload.profile(), config.seed, config.r_o, None);
    cal.run_for(SimDuration::from_hours(config.calibration_hours));
    let et = et_from_records(cal.records(cal_exp));

    // Phase 2 — the controlled experiment with the same seed, so both
    // phases see an identical arrival stream.
    let controller = controller_with(Box::new(et));
    let (mut tb, exp_dom, ctl_dom) = parity_testbed_with(
        config.workload.profile(),
        config.seed,
        config.r_o,
        Some(controller),
        faults,
    );
    tb.run_for(SimDuration::from_mins(config.warmup_mins));
    let skip = tb.records(exp_dom).len();
    tb.run_for(SimDuration::from_hours(config.hours));

    let exp_recs = &tb.records(exp_dom)[skip..];
    let ctl_recs = &tb.records(ctl_dom)[skip..];
    Fig10Result {
        exp_trace: exp_recs
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r.power_norm, r.freezing_ratio))
            .collect(),
        ctl_trace: ctl_recs
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r.power_norm))
            .collect(),
        exp: group_stats(exp_recs),
        ctl: group_stats(ctl_recs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: WorkloadKind) -> Fig10Result {
        run(Fig10Config {
            workload,
            hours: 8,
            warmup_mins: 90,
            calibration_hours: 8,
            ..Fig10Config::paper(workload)
        })
    }

    #[test]
    fn heavy_control_prevents_violations() {
        let r = quick(WorkloadKind::Heavy);
        // The uncontrolled twin violates a lot; Ampere almost never.
        assert!(
            r.ctl.violations >= 10,
            "control group violations = {} (demand too low?)",
            r.ctl.violations
        );
        assert!(
            r.exp.violations <= r.ctl.violations / 5,
            "exp {} vs ctl {}",
            r.exp.violations,
            r.ctl.violations
        );
        // The controller worked for it: a substantial mean freeze.
        assert!(r.exp.u_mean > 0.01, "u_mean = {}", r.exp.u_mean);
        assert!(r.exp.u_max <= 0.5 + 1e-9);
        // And the experiment group's peak power is tamed.
        assert!(
            r.exp.p_max < r.ctl.p_max,
            "{} vs {}",
            r.exp.p_max,
            r.ctl.p_max
        );
    }

    #[test]
    fn light_control_barely_intervenes() {
        let r = quick(WorkloadKind::Light);
        assert!(r.exp.u_mean < 0.08, "u_mean = {}", r.exp.u_mean);
        assert_eq!(r.exp.violations, 0);
        // Both groups hover well under the budget on average.
        assert!(r.ctl.p_mean < 0.95);
    }
}
