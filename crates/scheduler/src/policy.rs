//! Pluggable upper-level placement policies.
//!
//! Each policy sees the unfrozen servers through a [`PlacementContext`]
//! — a view onto the cluster's live columns, in which candidate `k` is
//! the `k`-th unfrozen server in ascending id order — and picks a
//! server for one job. Policies use bounded random probing ("power of d
//! choices") instead of full scans so dispatch stays fast at
//! data-center scale — and, as in real schedulers, placement quality is
//! statistical rather than optimal, which is exactly the regime
//! Ampere's control model assumes.

use std::ops::Range;

use ampere_cluster::{Cluster, Resources, RowId, ServerId};
use ampere_sim::SimRng;
use ampere_workload::JobRequest;

/// Read-only context handed to a policy for one placement decision: the
/// unfrozen servers of a cluster, read straight from its columns, so
/// every placement is visible to the next decision without a copy.
pub struct PlacementContext<'a> {
    cluster: &'a Cluster,
    /// Ascending unfrozen server indices; candidate `k` is `ids[k]`.
    ids: &'a [u32],
    row_headroom: &'a [f64],
}

impl<'a> PlacementContext<'a> {
    /// The candidates of `cluster`: its unfrozen servers. `row_headroom`
    /// optionally carries per-row normalized unused power (1 − P/PM);
    /// pass `&[]` when unknown. Only `PowerSpread` consumes it.
    pub fn new(cluster: &'a Cluster, row_headroom: &'a [f64]) -> Self {
        Self {
            cluster,
            ids: cluster.unfrozen_ids(),
            row_headroom,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no server is schedulable.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The server behind candidate `k`.
    pub fn server(&self, k: usize) -> ServerId {
        ServerId::new(u64::from(self.ids[k]))
    }

    /// Whether `job` fits candidate `k` right now.
    pub fn fits(&self, k: usize, job: &JobRequest) -> bool {
        self.free(k).fits(&job.resources)
    }

    /// Free resources of candidate `k`.
    pub fn free(&self, k: usize) -> Resources {
        self.cluster.server(self.server(k)).free()
    }

    /// CPU utilization of candidate `k`.
    pub fn utilization(&self, k: usize) -> f64 {
        self.cluster.server(self.server(k)).utilization()
    }

    /// Per-row normalized unused power, or empty when unknown.
    pub fn row_headroom(&self) -> &'a [f64] {
        self.row_headroom
    }

    /// The candidates in row `r`, as a contiguous range of candidate
    /// indices (ids are row-major, so a row's unfrozen servers are
    /// adjacent in the ascending list). Empty for a fully frozen row or
    /// a row the cluster does not have (its id range lies past every
    /// server).
    pub fn row_range(&self, r: usize) -> Range<usize> {
        let servers = self.cluster.row_range(RowId::new(r as u64));
        let below = |end: usize| self.ids.partition_point(|&i| (i as usize) < end);
        below(servers.start)..below(servers.end)
    }
}

/// An upper-level scheduling policy.
pub trait PlacementPolicy: Send {
    /// The policy's display name (for experiment labels).
    fn name(&self) -> &'static str;

    /// Picks the candidate index (see [`PlacementContext::server`]) of a
    /// server that fits `job`, or `None` to leave the job queued.
    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize>;
}

/// Probes up to `probes` random candidates and takes the first fit,
/// then falls back to a bounded linear sweep. Approximates a scheduler
/// that spreads load uniformly — the assumption behind §3.4's "jobs
/// scheduled to a row is roughly proportional to its available servers".
#[derive(Debug, Clone)]
pub struct RandomFit {
    /// Number of random probes before the linear fallback.
    pub probes: usize,
}

impl Default for RandomFit {
    fn default() -> Self {
        Self { probes: 32 }
    }
}

impl PlacementPolicy for RandomFit {
    fn name(&self) -> &'static str {
        "random-fit"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let n = ctx.len();
        if n == 0 {
            return None;
        }
        for _ in 0..self.probes {
            let i = rng.gen_range(0..n);
            if ctx.fits(i, job) {
                return Some(i);
            }
        }
        // Bounded fallback: sweep from a random offset so repeated
        // failures don't always hammer the same prefix.
        let start = rng.gen_range(0..n);
        (0..n).map(|k| (start + k) % n).find(|&i| ctx.fits(i, job))
    }
}

/// Power-of-d-choices least-loaded: probes `probes` random candidates
/// and picks the fitting one with the lowest utilization.
#[derive(Debug, Clone)]
pub struct LeastLoaded {
    /// Number of random probes per decision.
    pub probes: usize,
}

impl Default for LeastLoaded {
    fn default() -> Self {
        Self { probes: 64 }
    }
}

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let n = ctx.len();
        if n == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for _ in 0..self.probes {
            let i = rng.gen_range(0..n);
            if !ctx.fits(i, job) {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) if ctx.utilization(i) < ctx.utilization(b) => Some(i),
                keep => keep,
            };
        }
        best.or_else(|| RandomFit { probes: 0 }.place(job, ctx, rng))
    }
}

/// Power-of-d-choices best-fit: picks the fitting probe with the least
/// leftover CPU, packing jobs densely (a consolidation-style policy).
#[derive(Debug, Clone)]
pub struct BestFit {
    /// Number of random probes per decision.
    pub probes: usize,
}

impl Default for BestFit {
    fn default() -> Self {
        Self { probes: 64 }
    }
}

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let n = ctx.len();
        if n == 0 {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for _ in 0..self.probes {
            let i = rng.gen_range(0..n);
            let free = ctx.free(i);
            if !free.fits(&job.resources) {
                continue;
            }
            let leftover = free.cpu_millis - job.resources.cpu_millis;
            best = match best {
                None => Some((i, leftover)),
                Some((_, b)) if leftover < b => Some((i, leftover)),
                keep => keep,
            };
        }
        best.map(|(i, _)| i)
            .or_else(|| RandomFit { probes: 0 }.place(job, ctx, rng))
    }
}

/// The paper's future-work idea (§6): steer jobs toward rows with more
/// unused power, *increasing* cross-row variance in utilization so more
/// power can be cultivated. Picks a row with probability proportional
/// to `headroom^bias`, then random-fits within it.
#[derive(Debug, Clone)]
pub struct PowerSpread {
    /// Exponent sharpening the headroom preference (1 = proportional).
    pub bias: f64,
    /// Probes within the chosen row.
    pub probes: usize,
}

impl Default for PowerSpread {
    fn default() -> Self {
        Self {
            bias: 2.0,
            probes: 32,
        }
    }
}

impl PlacementPolicy for PowerSpread {
    fn name(&self) -> &'static str {
        "power-spread"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        if ctx.row_headroom().is_empty() {
            return RandomFit {
                probes: self.probes,
            }
            .place(job, ctx, rng);
        }
        // Row lottery weighted by headroom^bias.
        let weights: Vec<f64> = ctx
            .row_headroom()
            .iter()
            .enumerate()
            .map(|(r, &h)| {
                if ctx.row_range(r).is_empty() {
                    0.0
                } else {
                    h.max(0.0).powf(self.bias)
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            let mut pick = rng.gen::<f64>() * total;
            for (r, &w) in weights.iter().enumerate() {
                if pick < w {
                    let members = ctx.row_range(r);
                    for _ in 0..self.probes {
                        let i = members.start + rng.gen_range(0..members.len());
                        if ctx.fits(i, job) {
                            return Some(i);
                        }
                    }
                    break;
                }
                pick -= w;
            }
        }
        // Fallback: anywhere.
        RandomFit {
            probes: self.probes,
        }
        .place(job, ctx, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_cluster::{ClusterSpec, JobId};
    use ampere_power::ServerPowerModel;
    use ampere_sim::{derive_stream, SimDuration};

    fn job(cpu: u64) -> JobRequest {
        JobRequest {
            id: JobId::new(0),
            resources: Resources::new(cpu, 512),
            duration: SimDuration::from_mins(5),
        }
    }

    /// A cluster of `rows` equal rows whose servers (32 cores, 100 GB)
    /// have the given free CPU, in id order: utilization is
    /// `1 − free/32000`.
    fn cluster(rows: usize, frees: &[u64]) -> Cluster {
        let mut c = Cluster::new(ClusterSpec {
            rows,
            racks_per_row: 1,
            servers_per_rack: frees.len() / rows,
            power_model: ServerPowerModel::default(),
            capacity: Resources::new(32_000, 100_000),
        });
        for (i, &free) in frees.iter().enumerate() {
            if free < 32_000 {
                let used = Resources::new(32_000 - free, 0);
                c.server_mut(ServerId::new(i as u64))
                    .place(JobId::new(i as u64), used, SimDuration::from_mins(60))
                    .unwrap();
            }
        }
        c
    }

    #[test]
    fn random_fit_finds_the_only_fit() {
        let c = cluster(1, &[100, 100, 8_000, 100]);
        let ctx = PlacementContext::new(&c, &[]);
        let mut rng = derive_stream(1, 3);
        let mut p = RandomFit::default();
        for _ in 0..20 {
            assert_eq!(p.place(&job(4_000), &ctx, &mut rng), Some(2));
        }
    }

    #[test]
    fn returns_none_when_nothing_fits() {
        let c = cluster(1, &[100, 200, 300]);
        let ctx = PlacementContext::new(&c, &[]);
        let mut rng = derive_stream(1, 3);
        assert_eq!(
            RandomFit::default().place(&job(4_000), &ctx, &mut rng),
            None
        );
        assert_eq!(
            LeastLoaded::default().place(&job(4_000), &ctx, &mut rng),
            None
        );
        assert_eq!(BestFit::default().place(&job(4_000), &ctx, &mut rng), None);
        assert_eq!(
            PowerSpread::default().place(&job(4_000), &ctx, &mut rng),
            None
        );
    }

    #[test]
    fn empty_candidates() {
        // Every server frozen: no candidates at all.
        let mut c = cluster(1, &[32_000, 32_000]);
        for i in 0..2 {
            c.server_mut(ServerId::new(i)).freeze();
        }
        let ctx = PlacementContext::new(&c, &[]);
        assert!(ctx.is_empty());
        let mut rng = derive_stream(1, 3);
        assert_eq!(RandomFit::default().place(&job(500), &ctx, &mut rng), None);
    }

    #[test]
    fn least_loaded_prefers_lower_utilization() {
        // Two fitting servers with very different utilizations; with 64
        // probes over 2 candidates the lower one virtually always wins.
        let c = cluster(1, &[30_000, 2_000]);
        let ctx = PlacementContext::new(&c, &[]);
        let mut rng = derive_stream(2, 3);
        let mut p = LeastLoaded::default();
        let mut wins = 0;
        for _ in 0..50 {
            if p.place(&job(1_000), &ctx, &mut rng) == Some(0) {
                wins += 1;
            }
        }
        assert!(wins >= 48, "wins = {wins}");
    }

    #[test]
    fn best_fit_prefers_tight_fit() {
        let c = cluster(1, &[30_000, 1_100]);
        let ctx = PlacementContext::new(&c, &[]);
        let mut rng = derive_stream(3, 3);
        let mut p = BestFit::default();
        let mut tight = 0;
        for _ in 0..50 {
            if p.place(&job(1_000), &ctx, &mut rng) == Some(1) {
                tight += 1;
            }
        }
        assert!(tight >= 48, "tight = {tight}");
    }

    #[test]
    fn power_spread_follows_headroom() {
        // Row 1 has all the headroom; candidates split across two rows.
        let c = cluster(2, &[32_000; 10]);
        let ctx = PlacementContext::new(&c, &[0.01, 0.5]);
        assert_eq!((ctx.row_range(0), ctx.row_range(1)), (0..5, 5..10));
        let mut rng = derive_stream(4, 3);
        let mut p = PowerSpread::default();
        let mut row1 = 0;
        for _ in 0..200 {
            let idx = p.place(&job(1_000), &ctx, &mut rng).unwrap();
            if c.server(ctx.server(idx)).row() == RowId::new(1) {
                row1 += 1;
            }
        }
        // headroom^2 ratio is 2500:1, so row 1 dominates.
        assert!(row1 >= 190, "row1 = {row1}");
    }

    #[test]
    fn row_range_skips_frozen_servers() {
        let mut c = cluster(2, &[32_000; 8]);
        for i in [0, 2, 4, 5, 6, 7] {
            c.server_mut(ServerId::new(i)).freeze();
        }
        let ctx = PlacementContext::new(&c, &[]);
        // Candidates: servers 1 and 3 (row 0); row 1 is fully frozen.
        assert_eq!(ctx.len(), 2);
        assert_eq!(
            (ctx.server(0), ctx.server(1)),
            (ServerId::new(1), ServerId::new(3))
        );
        assert_eq!(ctx.row_range(0), 0..2);
        assert!(ctx.row_range(1).is_empty());
        assert!(ctx.row_range(2).is_empty());
    }
}
