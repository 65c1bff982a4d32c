//! The traced run: a testbed driven as the same sequence of public
//! layer calls `Testbed::step` makes, with every call timed from
//! outside. The replica must reproduce the library's trajectory bit for
//! bit (each traced run checks the checksum), so its layer times describe
//! the same simulation the untraced run measured.

use std::mem;
use std::time::Instant;

use ampere_cluster::{Cluster, JobId, RowId, ServerId};
use ampere_core::{
    AmpereController, ControlMode, ControllerConfig, HistoricalPercentile, ServerPowerReading,
    TickWatchdog, WatchdogConfig,
};
use ampere_experiments::calibrate::{DEFAULT_ET, DEFAULT_KR, ET_FLOOR, ET_PERCENTILE};
use ampere_experiments::TestbedConfig;
use ampere_faults::FaultInjector;
use ampere_power::{monitor::ServerSample, CircuitBreaker, PowerMonitor, RaplCapper};
use ampere_sched::{FreezePolicy, FreezeStatus, Scheduler};
use ampere_sim::{derive_stream, rng::streams, Distribution, Normal, SimDuration, SimRng, SimTime};
use ampere_telemetry::Telemetry;
use ampere_workload::BatchWorkload;

use crate::stats::RecordKey;

/// A timed layer call (or the testbed's own bookkeeping between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `BatchWorkload::tick`.
    Workload,
    /// Row headroom from the monitor, `Scheduler::submit` and `dispatch`.
    Dispatch,
    /// `Cluster::reset_dvfs_nominal`.
    DvfsReset,
    /// `RaplCapper::cap_row` with its inputs and DVFS writes.
    Cap,
    /// `Cluster::advance_into` and `Scheduler::on_completed`.
    Advance,
    /// `Cluster::sample_into` with the measurement noise.
    Sample,
    /// `FaultInjector::corrupt_sweep` and `controller_up`.
    Corrupt,
    /// `PowerMonitor::ingest` and `ingest_domain`.
    Ingest,
    /// `CircuitBreaker::observe`.
    Breaker,
    /// `PowerMonitor::domain_reading`, the per-server readings,
    /// `AmpereController::decide_on_reading` and the watchdog.
    Decide,
    /// The freeze/unfreeze RPCs: `FaultInjector::rpc_delivered` and
    /// `Scheduler::freeze`/`unfreeze`.
    Rpc,
    /// The failover refit: `PowerMonitor::domain_points` and
    /// `HistoricalPercentile::fit`.
    Refit,
    /// The testbed's own per-tick bookkeeping: per-row rollups of the
    /// sweep, placement counts and the tick records.
    Record,
}

/// Number of [`Span`] kinds (`Record` is the last).
const SPAN_KINDS: usize = Span::Record as usize + 1;

/// Per-tick span times (ns) and layer counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickTrace {
    pub ns: [u64; SPAN_KINDS],
    pub jobs: u64,
    pub placed: u64,
    pub queued: u64,
    pub rpc_calls: u64,
    pub rpc_noops: u64,
    pub rpc_lost: u64,
    pub completions: u64,
    pub capped: u64,
    pub samples: u64,
    pub dropped: u64,
    pub freezes: u64,
    pub unfreezes: u64,
    pub degraded: u64,
    pub outage: u64,
    pub refits: u64,
    pub refit_points: u64,
}

impl TickTrace {
    fn add(&mut self, span: Span, since: Instant) {
        self.ns[span as usize] += since.elapsed().as_nanos() as u64;
    }

    pub fn get(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }

    /// Accumulates another shard's trace of the same tick.
    pub fn merge(&mut self, o: &TickTrace) {
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
        self.jobs += o.jobs;
        self.placed += o.placed;
        self.queued += o.queued;
        self.rpc_calls += o.rpc_calls;
        self.rpc_noops += o.rpc_noops;
        self.rpc_lost += o.rpc_lost;
        self.completions += o.completions;
        self.capped += o.capped;
        self.samples += o.samples;
        self.dropped += o.dropped;
        self.freezes += o.freezes;
        self.unfreezes += o.unfreezes;
        self.degraded += o.degraded;
        self.outage += o.outage;
        self.refits += o.refits;
        self.refit_points = self.refit_points.max(o.refit_points);
    }
}

struct Domain {
    servers: Vec<ServerId>,
    /// `Some(r)` when the domain is exactly row `r` in ascending order.
    row: Option<usize>,
    budget_w: f64,
    controller: Option<AmpereController>,
    breaker: CircuitBreaker,
    watchdog: TickWatchdog,
    records: Vec<RecordKey>,
}

/// A controller configured as `calibrate::controller_with`, with an
/// explicit (disabled) telemetry pipeline.
pub fn controller(predictor: HistoricalPercentile) -> AmpereController {
    AmpereController::with_telemetry(
        ControllerConfig {
            kr: DEFAULT_KR,
            ..ControllerConfig::default()
        },
        Box::new(predictor),
        Telemetry::disabled(),
    )
}

/// `calibrate::default_controller` with an explicit pipeline.
pub fn default_controller() -> AmpereController {
    controller(HistoricalPercentile::flat(DEFAULT_ET))
}

/// A testbed stepped call by call, with each layer call timed.
pub struct Replica {
    cluster: Cluster,
    sched: Scheduler,
    workload: BatchWorkload,
    monitor: PowerMonitor,
    capper: RaplCapper,
    domains: Vec<Domain>,
    tick: SimDuration,
    now: SimTime,
    noise: Normal,
    noise_rng: SimRng,
    row_budgets_w: Vec<f64>,
    last_measurement: Vec<f64>,
    last_telemetry: Vec<f64>,
    injector: Option<FaultInjector>,
    controller_was_up: bool,
    has_custom_domains: bool,
    headroom: Vec<f64>,
    samples: Vec<ServerSample>,
    reported: Vec<bool>,
    done: Vec<(ServerId, JobId)>,
    cap_inputs: Vec<(ampere_power::ServerPowerModel, f64)>,
    readings: Vec<ServerPowerReading>,
    row_meas_sum: Vec<f64>,
    row_freq_sum: Vec<f64>,
    row_tel_sum: Vec<f64>,
    row_tel_count: Vec<usize>,
    placed_row: Vec<u64>,
    placed_per_server: Vec<u64>,
    /// The current tick's trace.
    pub trace: TickTrace,
}

impl Replica {
    /// Builds the replica of `Testbed::new(config)`. Covers the
    /// configurations the benchmark runs: homogeneous servers, the
    /// uniform freeze policy.
    pub fn new(config: TestbedConfig) -> Self {
        assert!(
            config.server_classes.is_none()
                && config.service_classes.is_none()
                && config.freeze_policy == FreezePolicy::Uniform,
            "the replica covers homogeneous, uniform-policy testbeds only"
        );
        let telemetry = Telemetry::disabled();
        let spec = config.spec;
        let cluster = Cluster::new(spec);
        let n = cluster.server_count();
        Self {
            sched: Scheduler::with_telemetry(config.policy, config.seed, telemetry.clone()),
            workload: BatchWorkload::new(config.profile, config.seed, 0),
            monitor: PowerMonitor::with_telemetry(SimDuration::MINUTE, false, telemetry.clone()),
            capper: RaplCapper::new(config.capping),
            domains: Vec::new(),
            tick: config.tick,
            now: SimTime::ZERO,
            noise: Normal::new(1.0, config.measurement_noise.max(f64::MIN_POSITIVE))
                .expect("valid noise"),
            noise_rng: derive_stream(config.seed, streams::POWER_NOISE),
            row_budgets_w: vec![spec.rated_row_power_w(); spec.rows],
            last_measurement: vec![0.0; n],
            last_telemetry: vec![0.0; n],
            injector: config.faults.map(|plan| {
                FaultInjector::try_with_telemetry(plan, telemetry.clone())
                    .expect("the benchmark's fault plans are valid")
            }),
            controller_was_up: true,
            has_custom_domains: false,
            headroom: Vec::new(),
            samples: Vec::new(),
            reported: Vec::new(),
            done: Vec::new(),
            cap_inputs: Vec::new(),
            readings: Vec::new(),
            row_meas_sum: Vec::new(),
            row_freq_sum: Vec::new(),
            row_tel_sum: Vec::new(),
            row_tel_count: Vec::new(),
            placed_row: Vec::new(),
            placed_per_server: Vec::new(),
            trace: TickTrace::default(),
            cluster,
        }
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn monitor(&self) -> &PowerMonitor {
        &self.monitor
    }

    /// Each domain's tick records, in registration order.
    pub fn domain_records(&self) -> impl Iterator<Item = &[RecordKey]> {
        self.domains.iter().map(|d| d.records.as_slice())
    }

    pub fn set_row_budget_w(&mut self, row: RowId, budget_w: f64) {
        self.row_budgets_w[row.index()] = budget_w;
    }

    /// Registers an uncapped domain, as `Testbed::add_domain`.
    pub fn add_domain(
        &mut self,
        servers: Vec<ServerId>,
        budget_w: f64,
        controller: Option<AmpereController>,
    ) {
        assert!(!servers.is_empty(), "empty domain");
        let id = self.domains.len();
        self.monitor.track_domain(id as u64, servers.len());
        let per_row = self.cluster.spec().servers_per_row();
        let first = servers[0].index();
        let is_row = servers.len() == per_row
            && first.is_multiple_of(per_row)
            && servers
                .iter()
                .enumerate()
                .all(|(k, s)| s.index() == first + k);
        self.has_custom_domains |= !is_row;
        self.domains.push(Domain {
            servers,
            row: is_row.then_some(first / per_row),
            budget_w,
            controller,
            breaker: CircuitBreaker::new(budget_w, 5).with_telemetry(Telemetry::disabled()),
            watchdog: TickWatchdog::try_with_telemetry(
                WatchdogConfig::default(),
                Telemetry::disabled(),
            )
            .expect("default watchdog thresholds are valid"),
            records: Vec::new(),
        });
    }

    /// Executes one tick; its trace is in [`Replica::trace`].
    pub fn step(&mut self) {
        self.trace = TickTrace::default();

        // 1. Arrivals and placement.
        self.sched.set_clock(self.now);
        let t = Instant::now();
        let arrivals = self.workload.tick(self.now, self.tick);
        self.trace.add(Span::Workload, t);
        self.trace.jobs = arrivals.len() as u64;

        let t = Instant::now();
        self.sched.submit(arrivals);
        self.headroom.clear();
        for r in 0..self.cluster.row_count() {
            self.headroom
                .push(match self.monitor.latest_row_power(r as u64) {
                    Some(p) => (1.0 - p / self.row_budgets_w[r]).max(0.0),
                    None => 1.0,
                });
        }
        let outcome = self.sched.dispatch(&mut self.cluster, &self.headroom);
        self.trace.add(Span::Dispatch, t);
        self.trace.placed = outcome.placed.len() as u64;
        self.trace.queued = outcome.queued as u64;

        // 2. Capping, before work progresses.
        let t = Instant::now();
        self.cluster.reset_dvfs_nominal();
        self.trace.add(Span::DvfsReset, t);
        for d in 0..self.domains.len() {
            // Domains are registered uncapped, so only the watchdog's
            // backstop engages the capper.
            let dom = &self.domains[d];
            if !dom.watchdog.armed() {
                continue;
            }
            let t = Instant::now();
            self.cap_inputs.clear();
            for &id in &dom.servers {
                let s = self.cluster.server(id);
                self.cap_inputs.push((*s.power_model(), s.utilization()));
            }
            let out = self.capper.cap_row(&self.cap_inputs, dom.budget_w);
            for (&id, &st) in dom.servers.iter().zip(&out.states) {
                self.cluster.server_mut(id).set_dvfs(st);
            }
            self.trace.add(Span::Cap, t);
            self.trace.capped += out.capped_count as u64;
        }

        // 3. Work progresses; completions free resources.
        let t = Instant::now();
        self.done.clear();
        self.cluster.advance_into(self.tick, &mut self.done);
        self.sched.on_completed(self.done.len() as u64);
        self.trace.add(Span::Advance, t);
        self.trace.completions = self.done.len() as u64;

        // 4. Measurement sweep.
        self.now += self.tick;
        self.sched.set_clock(self.now);
        let rows = self.cluster.row_count();
        let t = Instant::now();
        self.samples.clear();
        {
            let noise = &self.noise;
            let rng = &mut self.noise_rng;
            self.cluster
                .sample_into(&mut self.samples, |_, w| w * noise.sample(rng).max(0.0));
        }
        self.trace.add(Span::Sample, t);

        let t = Instant::now();
        self.row_meas_sum.clear();
        self.row_meas_sum.resize(rows, 0.0);
        for s in &self.samples {
            self.last_measurement[s.server as usize] = s.watts;
            self.row_meas_sum[s.row as usize] += s.watts;
        }
        self.trace.add(Span::Record, t);

        if let Some(inj) = &mut self.injector {
            let t = Instant::now();
            let f = inj.corrupt_sweep(self.now, &mut self.samples);
            self.trace.add(Span::Corrupt, t);
            self.trace.samples += f.total as u64;
            self.trace.dropped += f.dropped as u64;
        }

        let t = Instant::now();
        self.reported.clear();
        self.reported.resize(self.cluster.server_count(), false);
        self.row_tel_sum.clear();
        self.row_tel_sum.resize(rows, 0.0);
        self.row_tel_count.clear();
        self.row_tel_count.resize(rows, 0);
        for s in &self.samples {
            self.reported[s.server as usize] = true;
            self.last_telemetry[s.server as usize] = s.watts;
            self.row_tel_sum[s.row as usize] += s.watts;
            self.row_tel_count[s.row as usize] += 1;
        }
        self.trace.add(Span::Record, t);

        let t = Instant::now();
        self.monitor.ingest(self.now, &self.samples);
        for (d, dom) in self.domains.iter().enumerate() {
            let (sum, count) = match dom.row {
                Some(r) => (self.row_tel_sum[r], self.row_tel_count[r]),
                None => dom
                    .servers
                    .iter()
                    .filter(|s| self.reported[s.index()])
                    .fold((0.0, 0usize), |(w, n), s| {
                        (w + self.last_telemetry[s.index()], n + 1)
                    }),
            };
            self.monitor.ingest_domain(self.now, d as u64, sum, count);
        }
        self.trace.add(Span::Ingest, t);

        // Controller liveness; recovery refits from the TSDB history.
        let controller_up = match &mut self.injector {
            Some(inj) => {
                let t = Instant::now();
                let up = inj.controller_up(self.now);
                self.trace.add(Span::Corrupt, t);
                up
            }
            None => true,
        };
        self.trace.outage = u64::from(!controller_up);
        if controller_up && !self.controller_was_up {
            self.failover_controllers();
        }
        self.controller_was_up = controller_up;

        // Per-domain accounting + control.
        let t = Instant::now();
        let per_row = self.cluster.spec().servers_per_row();
        self.placed_row.clear();
        self.placed_row.resize(rows, 0);
        for (_, server) in &outcome.placed {
            self.placed_row[server.index() / per_row] += 1;
        }
        if self.has_custom_domains {
            self.placed_per_server
                .resize(self.cluster.server_count(), 0);
            for (_, server) in &outcome.placed {
                self.placed_per_server[server.index()] += 1;
            }
        }
        let all_nominal = self.cluster.all_nominal_dvfs();
        if !all_nominal {
            self.row_freq_sum.clear();
            self.row_freq_sum.resize(rows, 0.0);
            for (i, s) in self.cluster.iter().enumerate() {
                self.row_freq_sum[i / per_row] += s.dvfs().freq();
            }
        }
        self.trace.add(Span::Record, t);

        for d in 0..self.domains.len() {
            let t = Instant::now();
            let (power_w, mean_freq, placed) = match self.domains[d].row {
                Some(r) => {
                    let count = self.domains[d].servers.len() as f64;
                    let freq_sum = if all_nominal {
                        count
                    } else {
                        self.row_freq_sum[r]
                    };
                    (self.row_meas_sum[r], freq_sum / count, self.placed_row[r])
                }
                None => {
                    let dom = &self.domains[d];
                    let power_w: f64 = dom
                        .servers
                        .iter()
                        .map(|s| self.last_measurement[s.index()])
                        .sum();
                    let mean_freq: f64 = dom
                        .servers
                        .iter()
                        .map(|&s| self.cluster.server(s).dvfs().freq())
                        .sum::<f64>()
                        / dom.servers.len() as f64;
                    let placed: u64 = dom
                        .servers
                        .iter()
                        .map(|s| self.placed_per_server[s.index()])
                        .sum();
                    (power_w, mean_freq, placed)
                }
            };
            self.trace.add(Span::Record, t);

            let t = Instant::now();
            let violation = self.domains[d].breaker.observe(self.now, power_w);
            self.trace.add(Span::Breaker, t);

            let mut u_target = 0.0;
            if self.domains[d].controller.is_some() {
                let t = Instant::now();
                let reading = self.monitor.domain_reading(d as u64, self.now);
                let mut actions = None;
                if let (true, Some(reading)) = (controller_up, reading) {
                    let mut readings = mem::take(&mut self.readings);
                    readings.clear();
                    readings.extend(
                        self.domains[d]
                            .servers
                            .iter()
                            .map(|&id| ServerPowerReading {
                                id,
                                power_w: self.last_telemetry[id.index()],
                                frozen: self.cluster.server(id).is_frozen(),
                            }),
                    );
                    let dom = &mut self.domains[d];
                    let controller = dom.controller.as_mut().expect("checked");
                    let (a, _et) =
                        controller.decide_on_reading(self.now, &reading, dom.budget_w, &readings);
                    let tick_span = controller.last_tick_span();
                    self.sched.set_tick_span(tick_span);
                    dom.breaker.set_control_span(tick_span);
                    self.readings = readings;
                    actions = Some(a);
                }
                let degraded = controller_up
                    && self.domains[d]
                        .controller
                        .as_ref()
                        .is_some_and(|c| c.mode() == ControlMode::Degraded);
                let healthy = controller_up && reading.is_some() && !degraded;
                self.trace.add(Span::Decide, t);
                self.trace.degraded += u64::from(degraded);

                if let Some(actions) = actions {
                    u_target = actions.target_ratio;
                    self.trace.freezes += actions.freeze.len() as u64;
                    self.trace.unfreezes += actions.unfreeze.len() as u64;
                    let t = Instant::now();
                    for &id in &actions.unfreeze {
                        self.rpc(false, id);
                    }
                    for &id in &actions.freeze {
                        self.rpc(true, id);
                    }
                    self.trace.add(Span::Rpc, t);
                }
                let t = Instant::now();
                self.domains[d].watchdog.observe(self.now, healthy);
                self.trace.add(Span::Decide, t);
            }

            let t = Instant::now();
            let dom = &self.domains[d];
            let frozen = match dom.row {
                Some(r) => self.cluster.frozen_count(RowId::new(r as u64)),
                None => dom
                    .servers
                    .iter()
                    .filter(|&&id| self.cluster.server(id).is_frozen())
                    .count(),
            };
            self.domains[d].records.push(RecordKey {
                time_ms: self.now.as_millis(),
                power_w,
                frozen,
                u_target,
                violation,
                placed_jobs: placed,
                mean_freq,
            });
            self.trace.add(Span::Record, t);
        }
        if self.has_custom_domains {
            let t = Instant::now();
            for (_, server) in &outcome.placed {
                self.placed_per_server[server.index()] = 0;
            }
            self.trace.add(Span::Record, t);
        }
    }

    /// One freeze (`freeze = true`) or unfreeze RPC through the fault
    /// plan to the scheduler.
    fn rpc(&mut self, freeze: bool, id: ServerId) {
        self.trace.rpc_calls += 1;
        let op = if freeze { "freeze" } else { "unfreeze" };
        let delivered = self
            .injector
            .as_mut()
            .is_none_or(|i| i.rpc_delivered(self.now, op, id.raw()));
        if !delivered {
            self.trace.rpc_lost += 1;
            return;
        }
        let status = if freeze {
            self.sched.freeze(&mut self.cluster, id)
        } else {
            self.sched.unfreeze(&mut self.cluster, id)
        };
        self.trace.rpc_noops += u64::from(status == FreezeStatus::AlreadyInState);
    }

    /// §3.5 failover: each controlled domain gets a replacement whose
    /// `Et` is refit from the domain's TSDB history.
    fn failover_controllers(&mut self) {
        for d in 0..self.domains.len() {
            let Some(old) = self.domains[d].controller.as_ref() else {
                continue;
            };
            let config = *old.config();
            let t = Instant::now();
            let budget_w = self.domains[d].budget_w;
            let history: Vec<(SimTime, f64)> = self
                .monitor
                .domain_points(d as u64)
                .iter()
                .map(|&(t, w)| (t, w / budget_w))
                .collect();
            let predictor =
                HistoricalPercentile::fit(&history, ET_PERCENTILE, DEFAULT_ET).with_floor(ET_FLOOR);
            self.domains[d].controller = Some(AmpereController::with_telemetry(
                config,
                Box::new(predictor),
                Telemetry::disabled(),
            ));
            self.trace.add(Span::Refit, t);
            self.trace.refits += 1;
            self.trace.refit_points = history.len() as u64;
        }
    }
}
