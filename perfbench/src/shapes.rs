//! The three benchmark workloads: their shapes, how each is built from
//! a seed, and the untraced runs that step them through the
//! library's own `Testbed::step` / `ShardedTestbed::run_for`.

use ampere_cluster::{ClusterSpec, RowId, ServerId};
use ampere_core::{scaled_budget_w, AmpereController, ParitySplit};
use ampere_experiments::calibrate::{controller_with, default_controller, et_from_records};
use ampere_experiments::{
    DomainId, DomainSpec, DomainTickRecord, ShardedTestbed, ShardedTestbedConfig, Testbed,
    TestbedConfig,
};
use ampere_faults::{FaultPlan, OutageWindow};
use ampere_power::CappingConfig;
use ampere_sched::RandomFit;
use ampere_sim::{SimDuration, SimTime};
use ampere_workload::RateProfile;

use crate::stats;

/// Minutes in one simulated day.
pub const DAY_MINS: u64 = 24 * 60;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `Testbed` of 40 paper rows under one scheduler.
    DcWide,
    /// `ShardedTestbedConfig::hyper` at ≈10⁵ servers on two workers.
    ShardedFleet,
    /// One faulted paper row for simulated days.
    RowLongChaos,
}

/// Everything that fixes a workload's inputs except the seed.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub kind: Kind,
    pub name: &'static str,
    pub rows: usize,
    pub racks_per_row: usize,
    pub servers_per_rack: usize,
    pub workers: usize,
    /// Human-readable arrival profile, for provenance.
    pub profile: &'static str,
    /// Human-readable fault plan, for provenance.
    pub fault_plan: &'static str,
    /// Over-provisioning ratio of the controlled domains.
    pub r_o: f64,
    /// Uncontrolled calibration run fitting `Et` (0 = flat default `Et`).
    pub calibration_ticks: u64,
    /// Ticks run after the build and before the measured window.
    pub warmup_ticks: u64,
    /// Measured ticks per second of `--seconds`; the window is rounded
    /// to a whole multiple of `window_quantum` ticks.
    pub window_ticks_per_s: f64,
    pub window_quantum: u64,
    /// How many times one run builds and warms the workload up; the
    /// median is `setup_s`.
    pub setup_repeats: usize,
    /// Whether a job population that grows by more than the
    /// `tick_p50_ms` bound across the window fails the run (the warm-up
    /// was too short).
    pub gate_late_over_early: bool,
}

impl Shape {
    pub fn servers(&self) -> usize {
        self.rows * self.servers_per_row()
    }

    pub fn servers_per_row(&self) -> usize {
        self.racks_per_row * self.servers_per_rack
    }

    /// Measured ticks for a run of `seconds`: never fewer than the p90
    /// tick time needs (10 ticks beyond it).
    pub fn window_ticks(&self, seconds: u64) -> u64 {
        let raw = (seconds as f64 * self.window_ticks_per_s).round() as u64;
        let least = stats::min_samples_for_tail(0.9) as u64;
        raw.max(least).div_ceil(self.window_quantum) * self.window_quantum
    }
}

pub const DC_WIDE: Shape = Shape {
    kind: Kind::DcWide,
    name: "dc-wide",
    rows: 40,
    racks_per_row: 11,
    servers_per_rack: 40,
    workers: 1,
    profile: "heavy_row scaled x(17600/440 * 0.85), diurnal, open loop",
    fault_plan: "none",
    r_o: 0.17,
    calibration_ticks: 0,
    warmup_ticks: 80,
    window_ticks_per_s: 13.0,
    window_quantum: 4,
    setup_repeats: 3,
    gate_late_over_early: true,
};

pub const SHARDED_FLEET: Shape = Shape {
    kind: Kind::ShardedFleet,
    name: "sharded-fleet",
    rows: 227,
    racks_per_row: 11,
    servers_per_rack: 40,
    workers: 2,
    profile: "constant 150 jobs/min per row, open loop",
    fault_plan: "none",
    r_o: 0.25,
    calibration_ticks: 0,
    warmup_ticks: 80,
    window_ticks_per_s: 40.0,
    window_quantum: 4,
    setup_repeats: 3,
    gate_late_over_early: true,
};

pub const ROW_LONG_CHAOS: Shape = Shape {
    kind: Kind::RowLongChaos,
    name: "row-long-chaos",
    rows: 1,
    racks_per_row: 11,
    servers_per_rack: 40,
    workers: 1,
    profile: "heavy_row (530 jobs/min, diurnal), open loop",
    fault_plan: "10% sample dropout, 1% sensor noise, 5% lost freeze RPCs, \
                 one 30-min controller outage per simulated day at 12:00",
    r_o: 0.25,
    calibration_ticks: 8 * 60,
    warmup_ticks: DAY_MINS,
    window_ticks_per_s: 2.0 * DAY_MINS as f64,
    window_quantum: DAY_MINS,
    setup_repeats: 5,
    gate_late_over_early: false,
};

pub const ALL: [Shape; 3] = [DC_WIDE, SHARDED_FLEET, ROW_LONG_CHAOS];

pub fn by_name(name: &str) -> Option<Shape> {
    ALL.into_iter().find(|s| s.name == name)
}

/// The fault plan of `row-long-chaos`: the `repro chaos` fault classes
/// plus one controller outage per simulated day, covering `ticks`.
pub fn chaos_plan(seed: u64, ticks: u64) -> FaultPlan {
    let days = ticks.div_ceil(DAY_MINS);
    FaultPlan {
        sample_dropout: 0.10,
        sensor_noise: 0.01,
        rpc_loss: 0.05,
        outages: (0..days)
            .map(|d| {
                let start = SimTime::from_mins(d * DAY_MINS + 12 * 60);
                OutageWindow {
                    start,
                    end: start + SimDuration::from_mins(30),
                }
            })
            .collect(),
        ..FaultPlan::seeded(seed)
    }
}

/// The `TestbedConfig` of a single-`Testbed` workload (everything but
/// its domains).
pub fn testbed_config(shape: &Shape, seed: u64, faults: Option<FaultPlan>) -> TestbedConfig {
    let spec = ClusterSpec {
        rows: shape.rows,
        racks_per_row: shape.racks_per_row,
        servers_per_rack: shape.servers_per_rack,
        ..ClusterSpec::paper_row()
    };
    match shape.kind {
        Kind::DcWide => TestbedConfig {
            spec,
            capping: CappingConfig {
                enabled: false,
                ..CappingConfig::default()
            },
            ..TestbedConfig::paper_row(
                RateProfile::heavy_row().scaled(spec.server_count() as f64 / 440.0 * 0.85),
                seed,
            )
        },
        // As `repro chaos`: capping is enabled but no domain is capped
        // up front, so only the watchdog-armed backstop engages it.
        Kind::RowLongChaos => TestbedConfig {
            spec,
            capping: CappingConfig {
                enabled: true,
                ..CappingConfig::default()
            },
            policy: Box::new(RandomFit::default()),
            faults,
            ..TestbedConfig::paper_row(
                RateProfile::heavy_row().scaled(spec.server_count() as f64 / 440.0),
                seed,
            )
        },
        Kind::ShardedFleet => unreachable!("sharded-fleet is built from ShardedTestbedConfig"),
    }
}

/// One power domain to register: its members, budget and, for a row
/// domain, the row whose scheduler headroom budget it overrides.
pub struct DomainPlan {
    pub name: String,
    pub servers: Vec<ServerId>,
    pub budget_w: f64,
    pub row_budget: Option<RowId>,
}

/// The domains of a single-`Testbed` workload, in registration order.
pub fn domain_plans(shape: &Shape, spec: &ClusterSpec) -> Vec<DomainPlan> {
    match shape.kind {
        Kind::DcWide => {
            let budget = scaled_budget_w(spec.rated_row_power_w(), shape.r_o);
            let per_row = spec.servers_per_row() as u64;
            (0..spec.rows as u64)
                .map(|r| DomainPlan {
                    name: format!("row{r}"),
                    servers: (r * per_row..(r + 1) * per_row)
                        .map(ServerId::new)
                        .collect(),
                    budget_w: budget,
                    row_budget: Some(RowId::new(r)),
                })
                .collect()
        }
        Kind::RowLongChaos => {
            let all = (0..spec.server_count() as u64).map(ServerId::new);
            let (exp, _rest) = ParitySplit::split(all);
            let group_rated = exp.len() as f64 * spec.power_model.rated_w;
            vec![DomainPlan {
                name: "chaos".into(),
                servers: exp,
                budget_w: scaled_budget_w(group_rated, shape.r_o),
                row_budget: None,
            }]
        }
        Kind::ShardedFleet => unreachable!("sharded-fleet has one domain per shard"),
    }
}

/// Registers `plans` on `tb`, each under a controller from `make`.
pub fn register_domains(
    tb: &mut Testbed,
    plans: Vec<DomainPlan>,
    mut make: impl FnMut() -> Option<AmpereController>,
) -> Vec<DomainId> {
    plans
        .into_iter()
        .map(|p| {
            if let Some(row) = p.row_budget {
                tb.set_row_budget_w(row, p.budget_w);
            }
            tb.add_domain(DomainSpec {
                name: p.name,
                servers: p.servers,
                budget_w: p.budget_w,
                controller: make(),
                capped: false,
            })
        })
        .collect()
}

/// Fits `row-long-chaos`'s `Et` table from an uncontrolled, fault-free
/// calibration run, as `repro chaos` does.
pub fn calibrate_et(shape: &Shape, seed: u64) -> ampere_core::HistoricalPercentile {
    let mut cal = Testbed::new(testbed_config(shape, seed, None));
    let spec = *cal.cluster().spec();
    let doms = register_domains(&mut cal, domain_plans(shape, &spec), || None);
    cal.run_for(SimDuration::from_mins(shape.calibration_ticks));
    et_from_records(cal.records(doms[0]))
}

/// The controller factory of a workload, given its fitted `Et` (if any).
pub fn controller_factory(
    et: Option<&ampere_core::HistoricalPercentile>,
) -> impl FnMut() -> Option<AmpereController> + '_ {
    move || {
        Some(match et {
            Some(et) => controller_with(Box::new(et.clone())),
            None => default_controller(),
        })
    }
}

/// The sharded workload's configuration.
pub fn sharded_config(shape: &Shape, seed: u64, workers: usize) -> ShardedTestbedConfig {
    ShardedTestbedConfig::hyper(shape.rows, workers, seed)
}

/// A built workload under the library's own stepping.
pub enum Built {
    Single {
        tb: Box<Testbed>,
        domains: Vec<DomainId>,
    },
    Sharded(ShardedTestbed),
}

impl Built {
    /// Builds the workload (no ticks run). `et` is the fitted table of
    /// a calibrated workload.
    pub fn new(
        shape: &Shape,
        seed: u64,
        total_ticks: u64,
        et: Option<&ampere_core::HistoricalPercentile>,
    ) -> Self {
        match shape.kind {
            Kind::ShardedFleet => Built::Sharded(ShardedTestbed::new(sharded_config(
                shape,
                seed,
                shape.workers,
            ))),
            Kind::DcWide | Kind::RowLongChaos => {
                let faults =
                    (shape.kind == Kind::RowLongChaos).then(|| chaos_plan(seed, total_ticks));
                let mut tb = Testbed::new(testbed_config(shape, seed, faults));
                let spec = *tb.cluster().spec();
                let domains =
                    register_domains(&mut tb, domain_plans(shape, &spec), controller_factory(et));
                Built::Single {
                    tb: Box::new(tb),
                    domains,
                }
            }
        }
    }

    /// Advances one tick.
    pub fn step(&mut self) {
        match self {
            Built::Single { tb, .. } => tb.step(),
            Built::Sharded(sh) => sh.run_for(SimDuration::MINUTE),
        }
    }

    /// Advances `ticks` ticks.
    pub fn run(&mut self, ticks: u64) {
        match self {
            Built::Single { tb, .. } => tb.run_for(SimDuration::from_mins(ticks)),
            Built::Sharded(sh) => sh.run_for(SimDuration::from_mins(ticks)),
        }
    }

    /// Ends the run (replays captured telemetry of the sharded engine).
    pub fn finish(&mut self) {
        if let Built::Sharded(sh) = self {
            sh.finish();
        }
    }

    /// Jobs placed so far, fleet-wide.
    pub fn placed_jobs(&self) -> u64 {
        match self {
            Built::Single { tb, .. } => tb.sched().stats().placed,
            Built::Sharded(sh) => (0..sh.shard_count())
                .map(|i| sh.testbed(i).sched().stats().placed)
                .sum(),
        }
    }

    /// Jobs running now, fleet-wide.
    pub fn resident_jobs(&self) -> u64 {
        match self {
            Built::Single { tb, .. } => tb.cluster().total_jobs() as u64,
            Built::Sharded(sh) => (0..sh.shard_count())
                .map(|i| sh.testbed(i).cluster().total_jobs() as u64)
                .sum(),
        }
    }

    /// Every domain's tick records, in checksum order.
    pub fn domain_records(&self) -> Vec<&[DomainTickRecord]> {
        match self {
            Built::Single { tb, domains } => domains.iter().map(|&d| tb.records(d)).collect(),
            Built::Sharded(sh) => (0..sh.shard_count()).map(|i| sh.records(i)).collect(),
        }
    }
}
