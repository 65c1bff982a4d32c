//! The two kinds of run: untraced (the library steps itself; end-to-end
//! metrics) and traced (the replica steps call by call; per-layer
//! metrics).

use std::time::Instant;

use ampere_cluster::RowId;
use ampere_core::HistoricalPercentile;
use ampere_experiments::TestbedConfig;
use ampere_par::WorkerPool;
use ampere_power::CappingConfig;
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::{derive_subseed, rng::streams, SimDuration};

use crate::shapes::{self, Built, Kind, Shape};
use crate::stats::{Check, Checksum, RecordKey};
use crate::traced::{self, Replica, TickTrace};

/// Host time of one set-up, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub calibrate_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.calibrate_s + self.build_s + self.warmup_s
    }
}

/// What the output check compares against the stored reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub checksum: u64,
    /// Jobs placed fleet-wide in the measured window.
    pub placed: u64,
    /// Domain-ticks over budget in the measured window.
    pub violations: u64,
}

pub struct Untraced {
    pub setups: Vec<SetupTimes>,
    pub tick_s: Vec<f64>,
    /// Jobs running fleet-wide after each measured tick.
    pub resident: Vec<f64>,
    pub window_s: f64,
    pub finish_s: f64,
    pub rss_start_kb: u64,
    pub rss_end_kb: u64,
    pub outcome: Outcome,
    pub checks: Vec<Check>,
}

/// Resident and peak resident set of this process, in kB.
pub fn rss_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn calibrate(shape: &Shape, seed: u64) -> Option<HistoricalPercentile> {
    (shape.calibration_ticks > 0).then(|| shapes::calibrate_et(shape, seed))
}

/// Builds and warms the workload `repeats` times (each from scratch),
/// keeping the last; then times `window` ticks with tracing off.
pub fn untraced(shape: &Shape, seed: u64, window: u64, repeats: usize) -> Untraced {
    let total = shape.warmup_ticks + window;
    let mut setups = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take());
        let t0 = Instant::now();
        let et = calibrate(shape, seed);
        let t1 = Instant::now();
        let mut b = Built::new(shape, seed, total, et.as_ref());
        let t2 = Instant::now();
        b.run(shape.warmup_ticks);
        let t3 = Instant::now();
        setups.push(SetupTimes {
            calibrate_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            warmup_s: (t3 - t2).as_secs_f64(),
        });
        built = Some(b);
    }
    let mut b = built.expect("at least one set-up");

    let placed_before = b.placed_jobs();
    let (rss_start_kb, _) = rss_kb();
    let mut tick_s = Vec::with_capacity(window as usize);
    let mut resident = Vec::with_capacity(window as usize);
    let start = Instant::now();
    for _ in 0..window {
        let t = Instant::now();
        b.step();
        tick_s.push(t.elapsed().as_secs_f64());
        resident.push(b.resident_jobs() as f64);
    }
    let window_s = start.elapsed().as_secs_f64();
    let (rss_end_kb, _) = rss_kb();

    let t = Instant::now();
    b.finish();
    let records = b.domain_records();
    let checksum = Checksum::of_domains(records.iter().map(|recs| recs.iter().map(RecordKey::of)));
    let skip = shape.warmup_ticks as usize;
    let outcome = Outcome {
        checksum,
        placed: b.placed_jobs() - placed_before,
        violations: records
            .iter()
            .map(|recs| {
                recs[skip.min(recs.len())..]
                    .iter()
                    .filter(|r| r.violation)
                    .count() as u64
            })
            .sum(),
    };
    let checks = invariants(&b, total, checksum);
    let finish_s = t.elapsed().as_secs_f64();
    Untraced {
        setups,
        tick_s,
        resident,
        window_s,
        finish_s,
        rss_start_kb,
        rss_end_kb,
        outcome,
        checks,
    }
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.into(),
        ok,
        detail,
    }
}

/// Seed-independent output checks on a finished untraced run.
fn invariants(b: &Built, ticks: u64, checksum: u64) -> Vec<Check> {
    let testbeds: Vec<&ampere_experiments::Testbed> = match b {
        Built::Single { tb, .. } => vec![&**tb],
        Built::Sharded(sh) => (0..sh.shard_count()).map(|i| sh.testbed(i)).collect(),
    };
    let records = b.domain_records();
    let mut checks = vec![check(
        "records",
        records.iter().all(|r| r.len() as u64 == ticks),
        format!("every domain holds {ticks} tick records"),
    )];

    let mut conserved = true;
    let mut worst_drift = 0.0f64;
    for tb in &testbeds {
        let s = tb.sched().stats();
        conserved &= s.submitted == s.placed + tb.sched().queue_len() as u64
            && s.placed - s.completed == tb.cluster().total_jobs() as u64;
        for r in 0..tb.cluster().row_count() {
            let row = RowId::new(r as u64);
            let exact = tb.cluster().exact_row_power_w(row);
            let drift = (tb.cluster().row_power_w(row) - exact).abs() / exact.max(1.0);
            worst_drift = worst_drift.max(drift);
        }
    }
    checks.push(check(
        "jobs-conserved",
        conserved,
        "submitted = placed + queued and placed - completed = resident".into(),
    ));
    checks.push(check(
        "row-power",
        worst_drift <= 1e-9,
        format!("incremental row power within {worst_drift:e} of the exact sum"),
    ));

    let recorded: u64 = records
        .iter()
        .map(|r| r.iter().filter(|x| x.violation).count() as u64)
        .sum();
    let counted: u64 = match b {
        Built::Single { tb, domains } => domains.iter().map(|&d| tb.violations(d)).sum(),
        Built::Sharded(sh) => sh.total_violations(),
    };
    checks.push(check(
        "violations",
        recorded == counted,
        format!("{recorded} recorded violation ticks, {counted} counted by the breakers"),
    ));
    if let Built::Sharded(sh) = b {
        checks.push(check(
            "library-checksum",
            sh.checksum() == checksum,
            "the benchmark's digest equals ShardedTestbed::checksum".into(),
        ));
    }
    checks
}

/// The per-tick layer trace of a traced run.
pub struct Traced {
    pub setup: SetupTimes,
    pub workers: usize,
    /// Per measured tick: wall time, summed shard busy time and the
    /// merged layer trace.
    pub wall_ns: Vec<u64>,
    pub busy_ns: Vec<u64>,
    pub ticks: Vec<TickTrace>,
    pub checksum: u64,
    pub resident_jobs: u64,
    pub arena_slots: u64,
    pub tsdb_points: u64,
}

struct Slot {
    replica: Replica,
    busy_ns: u64,
}

fn single_replica(
    shape: &Shape,
    seed: u64,
    total: u64,
    et: Option<&HistoricalPercentile>,
) -> Replica {
    let faults = (shape.kind == Kind::RowLongChaos).then(|| shapes::chaos_plan(seed, total));
    let mut r = Replica::new(shapes::testbed_config(shape, seed, faults));
    let spec = *r.cluster().spec();
    for p in shapes::domain_plans(shape, &spec) {
        if let Some(row) = p.row_budget {
            r.set_row_budget_w(row, p.budget_w);
        }
        let controller = match et {
            Some(et) => traced::controller(et.clone()),
            None => traced::default_controller(),
        };
        r.add_domain(p.servers, p.budget_w, Some(controller));
    }
    r
}

/// The shards of `ShardedTestbed::new(sharded_config(..))`, as replicas.
fn sharded_replicas(shape: &Shape, seed: u64) -> Vec<Slot> {
    let cfg = shapes::sharded_config(shape, seed, shape.workers);
    (0..cfg.shards)
        .map(|i| {
            let mut replica = Replica::new(TestbedConfig {
                spec: cfg.spec,
                profile: cfg.profile.clone(),
                seed: derive_subseed(cfg.seed, streams::SHARD, i as u64),
                tick: SimDuration::MINUTE,
                measurement_noise: 0.003,
                capping: CappingConfig {
                    enabled: false,
                    ..CappingConfig::default()
                },
                policy: Box::new(RandomFit::default()),
                server_classes: None,
                service_classes: None,
                freeze_policy: FreezePolicy::Uniform,
                faults: cfg.faults.clone(),
            });
            let row = RowId::new(0);
            let budget = replica.cluster().actual_rated_row_power_w(row) * cfg.budget_scale;
            let servers = replica.cluster().row_server_ids(row).collect();
            replica.add_domain(
                servers,
                budget,
                cfg.controlled.then(traced::default_controller),
            );
            Slot {
                replica,
                busy_ns: 0,
            }
        })
        .collect()
}

/// Builds the replica, warms it up, and traces `window` ticks.
pub fn traced(shape: &Shape, seed: u64, window: u64) -> Traced {
    let total = shape.warmup_ticks + window;
    let t0 = Instant::now();
    let et = calibrate(shape, seed);
    let t1 = Instant::now();
    let mut slots = match shape.kind {
        Kind::ShardedFleet => sharded_replicas(shape, seed),
        Kind::DcWide | Kind::RowLongChaos => vec![Slot {
            replica: single_replica(shape, seed, total, et.as_ref()),
            busy_ns: 0,
        }],
    };
    let t2 = Instant::now();
    let workers = shape.workers.min(slots.len());
    let pool = WorkerPool::new(workers);
    let step_all = |slots: &mut [Slot]| {
        if slots.len() == 1 {
            let t = Instant::now();
            slots[0].replica.step();
            slots[0].busy_ns = t.elapsed().as_nanos() as u64;
        } else {
            pool.step_ticks(slots, 1, |_, slot| {
                let t = Instant::now();
                slot.replica.step();
                slot.busy_ns = t.elapsed().as_nanos() as u64;
            });
        }
    };
    for _ in 0..shape.warmup_ticks {
        step_all(&mut slots);
    }
    let t3 = Instant::now();

    let n = window as usize;
    let (mut wall_ns, mut busy_ns, mut ticks) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for _ in 0..window {
        let t = Instant::now();
        step_all(&mut slots);
        wall_ns.push(t.elapsed().as_nanos() as u64);
        let mut merged = TickTrace::default();
        let mut busy = 0;
        for s in &slots {
            merged.merge(&s.replica.trace);
            busy += s.busy_ns;
        }
        busy_ns.push(busy);
        ticks.push(merged);
    }

    let checksum = Checksum::of_domains(slots.iter().flat_map(|s| {
        s.replica
            .domain_records()
            .map(|recs| recs.iter().copied())
            .collect::<Vec<_>>()
    }));
    let sum = |f: &dyn Fn(&Replica) -> u64| slots.iter().map(|s| f(&s.replica)).sum();
    Traced {
        setup: SetupTimes {
            calibrate_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            warmup_s: (t3 - t2).as_secs_f64(),
        },
        workers,
        wall_ns,
        busy_ns,
        ticks,
        checksum,
        resident_jobs: sum(&|r| r.cluster().total_jobs() as u64),
        arena_slots: sum(&|r| r.cluster().arena_slots() as u64),
        tsdb_points: sum(&|r| {
            let db = r.monitor().db();
            db.keys().map(|k| db.len(k) as u64).sum()
        }),
    }
}

/// The trajectory checksum of the sharded workload at `workers`
/// threads (set-up plus `window` ticks).
pub fn sharded_checksum(shape: &Shape, seed: u64, workers: usize, window: u64) -> u64 {
    let mut sh =
        ampere_experiments::ShardedTestbed::new(shapes::sharded_config(shape, seed, workers));
    sh.run_for(SimDuration::from_mins(shape.warmup_ticks + window));
    sh.finish();
    sh.checksum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{DC_WIDE, ROW_LONG_CHAOS, SHARDED_FLEET};
    use crate::stats::min_samples_for_tail;

    fn assert_traced_matches(shape: &Shape, seed: u64, window: u64) -> Traced {
        let u = untraced(shape, seed, window, 1);
        for c in &u.checks {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
        let t = traced(shape, seed, window);
        assert_eq!(
            t.checksum, u.outcome.checksum,
            "traced {} diverged from the library",
            shape.name
        );
        assert_eq!(t.ticks.len() as u64, window);
        t
    }

    #[test]
    fn traced_dc_wide_reproduces_the_library() {
        let shape = Shape {
            rows: 3,
            racks_per_row: 2,
            servers_per_rack: 8,
            warmup_ticks: 10,
            ..DC_WIDE
        };
        let t = assert_traced_matches(&shape, 7, 30);
        assert!(t.ticks.iter().map(|x| x.placed).sum::<u64>() > 0);
    }

    #[test]
    fn traced_sharded_fleet_reproduces_the_library() {
        let shape = Shape {
            rows: 3,
            warmup_ticks: 5,
            ..SHARDED_FLEET
        };
        let t = assert_traced_matches(&shape, 11, 20);
        assert_eq!(t.workers, 2);
        assert!(t.busy_ns.iter().all(|&b| b > 0));
    }

    #[test]
    fn traced_row_long_chaos_reproduces_faults_and_failover() {
        // The window spans day 0's controller outage (12:00–12:30), so
        // it holds the failover refit as well as dropout and lost RPCs.
        let shape = Shape {
            racks_per_row: 2,
            servers_per_rack: 8,
            calibration_ticks: 60,
            warmup_ticks: 700,
            ..ROW_LONG_CHAOS
        };
        let t = assert_traced_matches(&shape, 5, 100);
        let sum = |f: fn(&TickTrace) -> u64| t.ticks.iter().map(f).sum::<u64>();
        assert_eq!(sum(|x| x.outage), 30);
        assert_eq!(sum(|x| x.refits), 1);
        assert!(sum(|x| x.refit_points) > 700);
        assert!(sum(|x| x.dropped) > 0);
        assert!(sum(|x| x.rpc_calls) > 0);
    }

    #[test]
    fn sharded_checksum_is_worker_count_invariant() {
        let shape = Shape {
            rows: 5,
            warmup_ticks: 5,
            ..SHARDED_FLEET
        };
        assert_eq!(
            sharded_checksum(&shape, 3, 1, 10),
            sharded_checksum(&shape, 3, 2, 10)
        );
    }

    #[test]
    fn every_window_resolves_p90() {
        for shape in shapes::ALL {
            for seconds in [1, 10, 60] {
                let w = shape.window_ticks(seconds) as usize;
                assert!(
                    w >= min_samples_for_tail(0.9),
                    "{} at {seconds}s",
                    shape.name
                );
                assert_eq!(w as u64 % shape.window_quantum, 0);
                assert!(w >= 4, "late-over-early needs quarters");
            }
        }
    }
}
