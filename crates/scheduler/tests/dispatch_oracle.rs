//! Differential oracle for dispatch: `Scheduler::dispatch` places jobs
//! against the cluster's live columns, and this file keeps a test-local
//! copy of the older snapshot dispatch it replaced — a per-round
//! `Vec<Candidate>` of the unfrozen servers plus a per-row index, with
//! each placement written back into the copy — together with the four
//! policies as they ran on that snapshot.
//!
//! Both sides start from the same seed, see the same interleaving of
//! submits, freezes, unfreezes and job advances on twin clusters, and
//! must agree after every round on the placed `(job, server)` pairs, the
//! queue length, every policy decision and the placement RNG's state
//! after each decision, and the resulting cluster state.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ampere_cluster::{Cluster, ClusterSpec, JobId, Resources, RowId, ServerId};
use ampere_sched::{
    BestFit, LeastLoaded, PlacementContext, PlacementPolicy, PowerSpread, RandomFit, Scheduler,
};
use ampere_sim::check::{cases, Gen};
use ampere_sim::rng::streams;
use ampere_sim::{derive_stream, SimDuration, SimRng};
use ampere_workload::JobRequest;

/// One policy decision: the chosen server and the RNG state after it.
type Decision = (Option<ServerId>, SimRng);

// ---------------------------------------------------------------------
// The snapshot dispatch, as it was before dispatch read live columns.
// ---------------------------------------------------------------------

/// One schedulable server in the snapshot.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: ServerId,
    free: Resources,
    utilization: f64,
}

impl Candidate {
    fn fits(&self, job: &JobRequest) -> bool {
        self.free.fits(&job.resources)
    }
}

struct SnapshotContext<'a> {
    candidates: &'a [Candidate],
    by_row: &'a [Vec<usize>],
    row_headroom: &'a [f64],
}

/// The four policies on the snapshot, with their default parameters.
#[derive(Debug, Clone, Copy)]
enum SnapshotPolicy {
    RandomFit,
    LeastLoaded,
    BestFit,
    PowerSpread,
}

impl SnapshotPolicy {
    const ALL: [SnapshotPolicy; 4] = [
        SnapshotPolicy::RandomFit,
        SnapshotPolicy::LeastLoaded,
        SnapshotPolicy::BestFit,
        SnapshotPolicy::PowerSpread,
    ];

    /// The live-column policy this one mirrors.
    fn live(self) -> Box<dyn PlacementPolicy> {
        match self {
            SnapshotPolicy::RandomFit => Box::new(RandomFit::default()),
            SnapshotPolicy::LeastLoaded => Box::new(LeastLoaded::default()),
            SnapshotPolicy::BestFit => Box::new(BestFit::default()),
            SnapshotPolicy::PowerSpread => Box::new(PowerSpread::default()),
        }
    }

    fn place(self, job: &JobRequest, ctx: &SnapshotContext<'_>, rng: &mut SimRng) -> Option<usize> {
        match self {
            SnapshotPolicy::RandomFit => random_fit(32, job, ctx, rng),
            SnapshotPolicy::LeastLoaded => least_loaded(64, job, ctx, rng),
            SnapshotPolicy::BestFit => best_fit(64, job, ctx, rng),
            SnapshotPolicy::PowerSpread => power_spread(2.0, 32, job, ctx, rng),
        }
    }
}

fn random_fit(
    probes: usize,
    job: &JobRequest,
    ctx: &SnapshotContext<'_>,
    rng: &mut SimRng,
) -> Option<usize> {
    let n = ctx.candidates.len();
    if n == 0 {
        return None;
    }
    for _ in 0..probes {
        let i = rng.gen_range(0..n);
        if ctx.candidates[i].fits(job) {
            return Some(i);
        }
    }
    let start = rng.gen_range(0..n);
    (0..n)
        .map(|k| (start + k) % n)
        .find(|&i| ctx.candidates[i].fits(job))
}

fn least_loaded(
    probes: usize,
    job: &JobRequest,
    ctx: &SnapshotContext<'_>,
    rng: &mut SimRng,
) -> Option<usize> {
    let n = ctx.candidates.len();
    if n == 0 {
        return None;
    }
    let mut best: Option<usize> = None;
    for _ in 0..probes {
        let i = rng.gen_range(0..n);
        if !ctx.candidates[i].fits(job) {
            continue;
        }
        best = match best {
            None => Some(i),
            Some(b) if ctx.candidates[i].utilization < ctx.candidates[b].utilization => Some(i),
            keep => keep,
        };
    }
    best.or_else(|| random_fit(0, job, ctx, rng))
}

fn best_fit(
    probes: usize,
    job: &JobRequest,
    ctx: &SnapshotContext<'_>,
    rng: &mut SimRng,
) -> Option<usize> {
    let n = ctx.candidates.len();
    if n == 0 {
        return None;
    }
    let mut best: Option<(usize, u64)> = None;
    for _ in 0..probes {
        let i = rng.gen_range(0..n);
        let c = &ctx.candidates[i];
        if !c.fits(job) {
            continue;
        }
        let leftover = c.free.cpu_millis - job.resources.cpu_millis;
        best = match best {
            None => Some((i, leftover)),
            Some((_, b)) if leftover < b => Some((i, leftover)),
            keep => keep,
        };
    }
    best.map(|(i, _)| i)
        .or_else(|| random_fit(0, job, ctx, rng))
}

fn power_spread(
    bias: f64,
    probes: usize,
    job: &JobRequest,
    ctx: &SnapshotContext<'_>,
    rng: &mut SimRng,
) -> Option<usize> {
    if ctx.row_headroom.is_empty() || ctx.by_row.is_empty() {
        return random_fit(probes, job, ctx, rng);
    }
    let weights: Vec<f64> = ctx
        .row_headroom
        .iter()
        .enumerate()
        .map(|(r, &h)| {
            if ctx.by_row.get(r).is_none_or(Vec::is_empty) {
                0.0
            } else {
                h.max(0.0).powf(bias)
            }
        })
        .collect();
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        let mut pick = rng.gen::<f64>() * total;
        for (r, &w) in weights.iter().enumerate() {
            if pick < w {
                let members = &ctx.by_row[r];
                for _ in 0..probes {
                    let i = members[rng.gen_range(0..members.len())];
                    if ctx.candidates[i].fits(job) {
                        return Some(i);
                    }
                }
                break;
            }
            pick -= w;
        }
    }
    random_fit(probes, job, ctx, rng)
}

/// The snapshot scheduler: queue, RNG and the per-round copy.
struct SnapshotScheduler {
    policy: SnapshotPolicy,
    queue: VecDeque<JobRequest>,
    rng: SimRng,
    decisions: Vec<Decision>,
}

impl SnapshotScheduler {
    fn new(policy: SnapshotPolicy, seed: u64) -> Self {
        Self {
            policy,
            queue: VecDeque::new(),
            rng: derive_stream(seed, streams::PLACEMENT),
            decisions: Vec::new(),
        }
    }

    fn submit(&mut self, jobs: &[JobRequest]) {
        self.queue.extend(jobs.iter().copied());
    }

    fn dispatch(&mut self, cluster: &mut Cluster, row_headroom: &[f64]) -> Vec<(JobId, ServerId)> {
        let mut candidates = Vec::new();
        let mut by_row = vec![Vec::new(); cluster.row_count()];
        for s in cluster.iter().filter(|s| !s.is_frozen()) {
            by_row[s.row().index()].push(candidates.len());
            candidates.push(Candidate {
                id: s.id(),
                free: s.free(),
                utilization: s.utilization(),
            });
        }
        let mut placed = Vec::new();
        let mut still_queued = VecDeque::new();
        for job in self.queue.drain(..) {
            let ctx = SnapshotContext {
                candidates: &candidates,
                by_row: &by_row,
                row_headroom,
            };
            let pick = self.policy.place(&job, &ctx, &mut self.rng);
            self.decisions
                .push((pick.map(|i| candidates[i].id), self.rng.clone()));
            let Some(idx) = pick else {
                still_queued.push_back(job);
                continue;
            };
            let target = candidates[idx].id;
            match cluster
                .server_mut(target)
                .place(job.id, job.resources, job.duration)
            {
                Ok(()) => {
                    // Write-back: keep the copy equal to the live server.
                    let s = cluster.server(target);
                    candidates[idx].free = s.free();
                    candidates[idx].utilization = s.utilization();
                    placed.push((job.id, target));
                }
                Err(_) => still_queued.push_back(job),
            }
        }
        self.queue = still_queued;
        placed
    }
}

// ---------------------------------------------------------------------
// The live side, observed through a recording policy wrapper.
// ---------------------------------------------------------------------

/// Forwards to the wrapped policy and records each decision with the
/// RNG state it left behind (a clone, so no draw is consumed).
struct Recorded {
    inner: Box<dyn PlacementPolicy>,
    log: Arc<Mutex<Vec<Decision>>>,
}

impl PlacementPolicy for Recorded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let pick = self.inner.place(job, ctx, rng);
        self.log
            .lock()
            .unwrap()
            .push((pick.map(|k| ctx.server(k)), rng.clone()));
        pick
    }
}

/// Both schedulers over twin clusters, driven in lockstep.
struct Pair {
    live: Scheduler,
    live_cluster: Cluster,
    live_log: Arc<Mutex<Vec<Decision>>>,
    oracle: SnapshotScheduler,
    oracle_cluster: Cluster,
    next_job: u64,
    rounds: usize,
}

impl Pair {
    fn new(policy: SnapshotPolicy, spec: ClusterSpec, seed: u64) -> Self {
        let live_log = Arc::new(Mutex::new(Vec::new()));
        let live = Scheduler::new(
            Box::new(Recorded {
                inner: policy.live(),
                log: Arc::clone(&live_log),
            }),
            seed,
        );
        Self {
            live,
            live_cluster: Cluster::new(spec),
            live_log,
            oracle: SnapshotScheduler::new(policy, seed),
            oracle_cluster: Cluster::new(spec),
            next_job: 0,
            rounds: 0,
        }
    }

    fn servers(&self) -> u64 {
        self.live_cluster.server_count() as u64
    }

    fn submit(&mut self, jobs: &[JobRequest]) {
        self.live.submit(jobs.iter().copied());
        self.oracle.submit(jobs);
    }

    /// Submits `n` fresh jobs of random size (some too big for any
    /// server) and duration.
    fn submit_random(&mut self, g: &mut Gen, n: usize) {
        let jobs: Vec<JobRequest> = (0..n)
            .map(|_| {
                self.next_job += 1;
                JobRequest {
                    id: JobId::new(self.next_job),
                    resources: Resources::cores_gb(g.u64(1..34), g.u64(1..40)),
                    duration: SimDuration::from_mins(g.u64(1..8)),
                }
            })
            .collect();
        self.submit(&jobs);
    }

    /// Resubmits the id of a job already running somewhere: a placement
    /// on that server fails with `DuplicateJob` and requeues.
    fn resubmit_running(&mut self, g: &mut Gen) {
        let running: Vec<JobId> = self
            .live_cluster
            .iter()
            .flat_map(|s| s.jobs().map(|(j, _)| j).collect::<Vec<_>>())
            .collect();
        if running.is_empty() {
            return;
        }
        let job = JobRequest {
            id: *g.choice(&running),
            resources: Resources::cores_gb(1, 1),
            duration: SimDuration::from_mins(1),
        };
        self.submit(&[job]);
    }

    /// Freezes or unfreezes one server on both sides: on the live side
    /// through `Scheduler` or straight through `ServerMut`.
    fn set_frozen(&mut self, id: ServerId, frozen: bool, via_scheduler: bool) {
        if via_scheduler {
            if frozen {
                self.live.freeze(&mut self.live_cluster, id);
            } else {
                self.live.unfreeze(&mut self.live_cluster, id);
            }
        } else if frozen {
            self.live_cluster.server_mut(id).freeze();
        } else {
            self.live_cluster.server_mut(id).unfreeze();
        }
        if frozen {
            self.oracle_cluster.server_mut(id).freeze();
        } else {
            self.oracle_cluster.server_mut(id).unfreeze();
        }
    }

    fn set_row_frozen(&mut self, row: u64, frozen: bool, via_scheduler: bool) {
        let ids: Vec<ServerId> = self.live_cluster.row_server_ids(RowId::new(row)).collect();
        for id in ids {
            self.set_frozen(id, frozen, via_scheduler);
        }
    }

    fn set_all_frozen(&mut self, frozen: bool, via_scheduler: bool) {
        for i in 0..self.servers() {
            self.set_frozen(ServerId::new(i), frozen, via_scheduler);
        }
    }

    fn advance(&mut self) {
        let mut live = self.live_cluster.advance(SimDuration::MINUTE);
        let mut oracle = self.oracle_cluster.advance(SimDuration::MINUTE);
        live.sort_unstable();
        oracle.sort_unstable();
        assert_eq!(live, oracle, "completions diverged");
        self.live.on_completed(live.len() as u64);
    }

    /// One dispatch round on both sides, then the full comparison.
    fn dispatch(&mut self, row_headroom: &[f64]) {
        self.rounds += 1;
        let round = self.rounds;
        let out = self.live.dispatch(&mut self.live_cluster, row_headroom);
        let expect = self.oracle.dispatch(&mut self.oracle_cluster, row_headroom);
        assert_eq!(out.placed, expect, "round {round}: placements diverged");
        assert_eq!(out.queued, self.oracle.queue.len(), "round {round}: queue");
        assert_eq!(self.live.queue_len(), out.queued);
        let live_log = self.live_log.lock().unwrap();
        assert_eq!(
            live_log.len(),
            self.oracle.decisions.len(),
            "round {round}: decision count"
        );
        for (k, (live, oracle)) in live_log.iter().zip(&self.oracle.decisions).enumerate() {
            assert_eq!(
                live, oracle,
                "round {round}: decision {k} or its RNG diverged"
            );
        }
        for (a, b) in self.live_cluster.iter().zip(self.oracle_cluster.iter()) {
            assert_eq!(a.allocated(), b.allocated(), "round {round}: {}", a.id());
            assert_eq!(a.is_frozen(), b.is_frozen(), "round {round}: {}", a.id());
        }
        let unfrozen: Vec<u32> = self
            .live_cluster
            .iter()
            .filter(|s| !s.is_frozen())
            .map(|s| s.id().raw() as u32)
            .collect();
        assert_eq!(self.live_cluster.unfrozen_ids(), unfrozen);
    }
}

/// A small multi-row fleet: 3 rows × 2 racks × 4 servers of 32 cores.
fn spec() -> ClusterSpec {
    ClusterSpec {
        rows: 3,
        racks_per_row: 2,
        servers_per_rack: 4,
        ..ClusterSpec::tiny()
    }
}

/// Per-row headroom of a random length around the row count (shorter,
/// equal or longer), with some zero and negative entries.
fn random_headroom(g: &mut Gen, rows: usize) -> Vec<f64> {
    let len = g.usize(rows - 1..rows + 2);
    (0..len)
        .map(|_| match g.usize(0..4) {
            0 => 0.0,
            1 => -0.1,
            _ => g.f64(0.0..1.0),
        })
        .collect()
}

/// Random interleavings of submit / freeze / unfreeze / advance /
/// dispatch, for every policy; PowerSpread also runs on non-empty
/// headroom. The freeze operations include whole rows and the whole
/// fleet, through `Scheduler` and through `ServerMut`.
#[test]
fn live_dispatch_matches_the_snapshot_oracle() {
    for policy in SnapshotPolicy::ALL {
        let with_headroom: &[bool] = match policy {
            SnapshotPolicy::PowerSpread => &[false, true],
            _ => &[false],
        };
        for &headroom in with_headroom {
            cases(24, |g| {
                let seed = g.u64(0..1_000_000);
                let mut pair = Pair::new(policy, spec(), seed);
                let rows = pair.live_cluster.row_count();
                for _ in 0..g.usize(10..40) {
                    match g.usize(0..10) {
                        0..=2 => {
                            let n = g.usize(0..40);
                            pair.submit_random(g, n);
                        }
                        3 => {
                            let id = ServerId::new(g.u64(0..pair.servers()));
                            let (frozen, via) = (g.bool(), g.bool());
                            pair.set_frozen(id, frozen, via);
                        }
                        4 => {
                            let row = g.u64(0..rows as u64);
                            let (frozen, via) = (g.weighted(0.7), g.bool());
                            pair.set_row_frozen(row, frozen, via);
                        }
                        5 => {
                            let (frozen, via) = (g.weighted(0.3), g.bool());
                            pair.set_all_frozen(frozen, via);
                        }
                        6 => pair.resubmit_running(g),
                        _ => pair.advance(),
                    }
                    let h = if headroom {
                        random_headroom(g, rows)
                    } else {
                        Vec::new()
                    };
                    pair.dispatch(&h);
                }
            });
        }
    }
}

/// A fully frozen row is skipped by every policy, and PowerSpread's
/// lottery gives it no weight even when it has all the headroom.
#[test]
fn fully_frozen_row_matches_the_oracle() {
    for policy in SnapshotPolicy::ALL {
        for via_scheduler in [true, false] {
            let mut pair = Pair::new(policy, spec(), 7);
            pair.set_row_frozen(1, true, via_scheduler);
            for round in 0..6u64 {
                pair.submit(
                    &(0..30)
                        .map(|i| JobRequest {
                            id: JobId::new(round * 100 + i),
                            resources: Resources::cores_gb(1 + i % 9, 2),
                            duration: SimDuration::from_mins(1 + i % 4),
                        })
                        .collect::<Vec<_>>(),
                );
                pair.dispatch(&[0.1, 0.9, 0.2]);
                pair.advance();
            }
            let row1 = pair.live_cluster.row_range(RowId::new(1));
            assert!(pair
                .live_cluster
                .iter()
                .filter(|s| row1.contains(&s.id().index()))
                .all(|s| s.job_count() == 0));
        }
    }
}

/// With every server frozen nothing places, every job stays queued and
/// no policy draws from the RNG; unfreezing (the other way round from
/// how the fleet was frozen) lets the backlog drain identically.
#[test]
fn fully_frozen_fleet_matches_the_oracle() {
    for policy in SnapshotPolicy::ALL {
        for via_scheduler in [true, false] {
            let mut pair = Pair::new(policy, spec(), 11);
            pair.set_all_frozen(true, via_scheduler);
            pair.submit(
                &(0..20)
                    .map(|i| JobRequest {
                        id: JobId::new(i),
                        resources: Resources::cores_gb(4, 8),
                        duration: SimDuration::from_mins(3),
                    })
                    .collect::<Vec<_>>(),
            );
            let before = derive_stream(11, streams::PLACEMENT);
            pair.dispatch(&[0.5, 0.5, 0.5]);
            assert_eq!(pair.live.queue_len(), 20);
            assert!(pair
                .live_log
                .lock()
                .unwrap()
                .iter()
                .all(|(s, rng)| s.is_none() && *rng == before));
            pair.set_all_frozen(false, !via_scheduler);
            pair.dispatch(&[0.5, 0.5, 0.5]);
            assert_eq!(pair.live.queue_len(), 0);
        }
    }
}
