//! Cluster topology: rows of racks of servers.
//!
//! Server ids are dense and laid out row-major (all servers of row 0,
//! then row 1, …), so row membership is computable without lookup
//! tables and per-row scans are cache-friendly — the controller scans
//! one row per tick at data-center scale.
//!
//! A [`Cluster`] stores the fleet as struct-of-arrays: every per-server
//! field lives in its own `Vec` indexed by the dense id, so the per-tick
//! loops that dominate a simulation — the measurement sweep, job
//! progression, the scheduler's candidate scan — are linear walks over
//! contiguous arrays (DESIGN §14). [`ServerRef`] and [`ServerMut`] are
//! index views into those columns.
//!
//! Two invariants keep trajectories bit-exact, as pinned by the goldens
//! in `crates/experiments/tests/trajectory_goldens.rs`:
//!
//! - **Cached power is a pure function.** [`ServerRef::power_w`] always
//!   equals `power_model().power_w(utilization(), dvfs())`, recomputed
//!   at every mutation of the inputs, so a sweep reads the same bits an
//!   evaluation of the model at sample time would produce.
//! - **Integral resource accounting.** [`Resources`] is integral
//!   (millicores / MB), so allocations never depend on the order jobs
//!   start or stop.
//!
//! Row power is tracked *incrementally*: every mutation applies the
//! signed delta `new_power − old_power` to its row's accumulator, so
//! [`Cluster::row_power_w`] is O(1) instead of an O(servers-per-row)
//! re-sum. Floating-point deltas drift, so a periodic *re-sum epoch*
//! (every [`Cluster::set_power_resum_interval`] calls to
//! [`Cluster::advance`]) rebuilds each accumulator from the exact
//! ascending-index sum of [`Cluster::exact_row_power_w`], bounding the
//! drift between epochs.
//!
//! Jobs live in one dense table holding every running job of the fleet,
//! each entry tagged with its server. A completion swap-removes its
//! entry, so the table stays packed and a steady-state run allocates
//! nothing on the job path. [`Cluster::advance`] is one linear sweep over
//! the table; it then refreshes the power of every server that lost a
//! job in ascending server order, so the row accumulators receive their
//! deltas in the same order as a per-server walk would apply them. The
//! duplicate-job check in [`ServerMut::place`] stays exact with an O(1)
//! early-out: each server keeps a bound just above the highest raw job
//! id ever placed on it, and only an id below that bound can already be
//! running there; such an id falls back to scanning the table.

use ampere_power::monitor::ServerSample;
use ampere_power::{DvfsState, ServerPowerModel};
use ampere_sim::SimDuration;

use crate::ids::{JobId, RackId, RowId, ServerId};
use crate::resources::Resources;

/// Ticks between accumulator re-sum epochs by default. Each delta op
/// adds at most a couple of ULPs of the row sum, so at one-minute ticks
/// this keeps the relative drift orders of magnitude under the 1e-9
/// contract the property suite enforces.
const DEFAULT_RESUM_INTERVAL: u32 = 64;

/// What a server serves: user-facing interactive traffic (protected
/// by the SLA-aware freeze selector) or deferrable batch work (frozen
/// first). The default is `Interactive`, so legacy fleets built without
/// a class mix behave exactly as before: every server equally
/// protected, every policy reducing to the uniform one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServiceClass {
    /// User-facing, latency-sensitive traffic (e.g. the streaming
    /// service's request path). Frozen only when the batch pool of the
    /// same selection scope is exhausted.
    #[default]
    Interactive,
    /// Deferrable throughput work (analytics, transcodes, side tasks).
    /// First in line for freezing, last to unfreeze.
    Batch,
}

impl ServiceClass {
    /// Stable lowercase name (`"interactive"` / `"batch"`), used in
    /// telemetry events and dump lines.
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Interactive => "interactive",
            ServiceClass::Batch => "batch",
        }
    }
}

/// Static description of a cluster to build.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of rows (PDU power domains).
    pub rows: usize,
    /// Racks per row (≈ 20 in the paper's data centers).
    pub racks_per_row: usize,
    /// Servers per rack (≈ 40 at 250 W against a 10 kW rack budget).
    pub servers_per_rack: usize,
    /// Power model shared by all servers (the paper's row is
    /// homogeneous, §4.1.1).
    pub power_model: ServerPowerModel,
    /// Resource capacity of each server.
    pub capacity: Resources,
}

impl ClusterSpec {
    /// The paper's evaluation row: "a single row with 400+ homogeneous
    /// servers" — 11 racks × 40 servers = 440.
    pub fn paper_row() -> Self {
        Self {
            rows: 1,
            racks_per_row: 11,
            servers_per_rack: 40,
            power_model: ServerPowerModel::default(),
            capacity: Resources::cores_gb(32, 128),
        }
    }

    /// A multi-row slice of a data center for the characterization
    /// figures (Fig 1/2): `rows` full rows of 20 racks.
    pub fn data_center(rows: usize) -> Self {
        Self {
            rows,
            racks_per_row: 20,
            servers_per_rack: 40,
            power_model: ServerPowerModel::default(),
            capacity: Resources::cores_gb(32, 128),
        }
    }

    /// A tiny cluster for fast tests.
    pub fn tiny() -> Self {
        Self {
            rows: 2,
            racks_per_row: 2,
            servers_per_rack: 4,
            power_model: ServerPowerModel::default(),
            capacity: Resources::cores_gb(32, 128),
        }
    }

    /// Servers in each row.
    pub fn servers_per_row(&self) -> usize {
        self.racks_per_row * self.servers_per_rack
    }

    /// Total servers in the cluster.
    pub fn server_count(&self) -> usize {
        self.rows * self.servers_per_row()
    }

    /// Sum of rated power over one row — the provisioning basis `PM`
    /// when provisioning by rated power (§1).
    pub fn rated_row_power_w(&self) -> f64 {
        self.servers_per_row() as f64 * self.power_model.rated_w
    }
}

/// Why a job could not be placed on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// Not enough free CPU or memory.
    InsufficientResources,
    /// The job id is already running on this server.
    DuplicateJob,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::InsufficientResources => write!(f, "insufficient resources"),
            PlacementError::DuplicateJob => write!(f, "job already placed here"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Execution state of one job on a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// Resources the job holds while running.
    pub resources: Resources,
    /// Remaining *nominal* work in milliseconds (at full frequency).
    pub remaining_ms: f64,
}

/// The per-server bound a placement of `job` raises to: one above its
/// raw id. Saturating, so ids `u64::MAX - 1` and `u64::MAX` share a
/// bound and both keep taking the exact scan.
fn id_bound(job: JobId) -> u64 {
    job.raw().saturating_add(1)
}

/// One running job in the fleet's job table.
#[derive(Debug, Clone, Copy)]
struct JobSlot {
    job: JobId,
    resources: Resources,
    remaining_ms: f64,
    /// Index of the server the job runs on.
    server: u32,
}

/// The simulated fleet, one column per per-server field.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    // --- static identity (parallel to server index) ---
    rack: Vec<u32>,
    row: Vec<u32>,
    model: Vec<ServerPowerModel>,
    capacity: Vec<Resources>,
    // --- dynamic state ---
    allocated: Vec<Resources>,
    /// Cached CPU utilization: `allocated.cpu_fraction_of(capacity)`.
    util: Vec<f64>,
    /// Cached power: `model.power_w(util, dvfs)`, maintained at every
    /// mutation so sweeps read instead of recompute.
    power: Vec<f64>,
    dvfs: Vec<DvfsState>,
    frozen: Vec<bool>,
    /// Service class of each server (all [`ServiceClass::Interactive`]
    /// unless the builder assigns a mix) — static after construction
    /// apart from explicit retags, so it never touches the hot path.
    class: Vec<ServiceClass>,
    job_count: Vec<u32>,
    /// One above the highest raw job id ever placed on each server
    /// (0 = none): ids at or above it cannot be running there.
    job_id_bound: Vec<u64>,
    // --- job table ---
    /// Every running job, packed by swap-remove (order is unspecified).
    jobs: Vec<JobSlot>,
    /// Scratch for [`Cluster::advance_into`]: servers that lost a job.
    dirty: Vec<u32>,
    // --- incremental row aggregation ---
    /// Per-row power accumulator maintained by signed deltas.
    row_power_acc: Vec<f64>,
    /// Per-row frozen-server counts (integral, hence always exact).
    row_frozen: Vec<u32>,
    /// Whether any server may be below nominal frequency — lets the
    /// per-tick bulk DVFS reset short-circuit on uncapped fleets.
    any_non_nominal: bool,
    resum_interval: u32,
    ticks_since_resum: u32,
    resum_epochs: u64,
}

/// Shared view of one server: its index into the cluster's columns.
#[derive(Clone, Copy)]
pub struct ServerRef<'a> {
    cluster: &'a Cluster,
    index: usize,
}

/// Mutable view of one server: its index into the cluster's columns.
pub struct ServerMut<'a> {
    cluster: &'a mut Cluster,
    index: usize,
}

impl Cluster {
    /// Builds an idle, homogeneous cluster from a spec (the paper's
    /// evaluation row is homogeneous, §4.1.1).
    pub fn new(spec: ClusterSpec) -> Self {
        Self::new_with(spec, |_| (spec.power_model, spec.capacity))
    }

    /// Builds an idle cluster with per-server hardware classes:
    /// `class_of(index)` returns the power model and capacity of the
    /// server at that dense index. Real fleets mix generations; the
    /// controller handles this without change because Algorithm 1 ranks
    /// by measured watts, not by ratio of rated power.
    pub fn new_with(
        spec: ClusterSpec,
        class_of: impl Fn(usize) -> (ServerPowerModel, Resources),
    ) -> Self {
        assert!(spec.rows > 0 && spec.racks_per_row > 0 && spec.servers_per_rack > 0);
        let n = spec.server_count();
        assert!(u32::try_from(n).is_ok(), "job slots tag servers with a u32");
        let mut rack = Vec::with_capacity(n);
        let mut row = Vec::with_capacity(n);
        let mut model = Vec::with_capacity(n);
        let mut capacity = Vec::with_capacity(n);
        let mut power = Vec::with_capacity(n);
        for r in 0..spec.rows {
            for rack_in_row in 0..spec.racks_per_row {
                let rack_id = (r * spec.racks_per_row + rack_in_row) as u32;
                for _ in 0..spec.servers_per_rack {
                    let (m, cap) = class_of(rack.len());
                    rack.push(rack_id);
                    row.push(r as u32);
                    power.push(m.power_w(0.0, DvfsState::nominal()));
                    model.push(m);
                    capacity.push(cap);
                }
            }
        }
        let mut cluster = Self {
            spec,
            rack,
            row,
            model,
            capacity,
            allocated: vec![Resources::ZERO; n],
            util: vec![0.0; n],
            power,
            dvfs: vec![DvfsState::nominal(); n],
            frozen: vec![false; n],
            class: vec![ServiceClass::default(); n],
            job_count: vec![0; n],
            job_id_bound: vec![0; n],
            jobs: Vec::new(),
            dirty: Vec::new(),
            row_power_acc: vec![0.0; spec.rows],
            row_frozen: vec![0; spec.rows],
            any_non_nominal: false,
            resum_interval: DEFAULT_RESUM_INTERVAL,
            ticks_since_resum: 0,
            resum_epochs: 0,
        };
        cluster.force_power_resum();
        cluster.resum_epochs = 0;
        cluster
    }

    /// Sum of the *actual* rated power over one row. Equals
    /// `spec.rated_row_power_w()` for homogeneous fleets, differs for
    /// clusters built with [`Cluster::new_with`].
    pub fn actual_rated_row_power_w(&self, row: RowId) -> f64 {
        self.row_range(row).map(|i| self.model[i].rated_w).sum()
    }

    /// The building spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of servers.
    pub fn server_count(&self) -> usize {
        self.rack.len()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.spec.rows
    }

    /// Shared view of one server.
    pub fn server(&self, id: ServerId) -> ServerRef<'_> {
        debug_assert!(id.index() < self.server_count());
        ServerRef {
            cluster: self,
            index: id.index(),
        }
    }

    /// Mutable view of one server.
    pub fn server_mut(&mut self, id: ServerId) -> ServerMut<'_> {
        assert!(id.index() < self.server_count(), "unknown server {id}");
        ServerMut {
            cluster: self,
            index: id.index(),
        }
    }

    /// Iterates over all servers in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ServerRef<'_>> {
        (0..self.server_count()).map(move |index| ServerRef {
            cluster: self,
            index,
        })
    }

    /// Iterates over the servers of one row in ascending id order.
    pub fn iter_row(&self, row: RowId) -> impl Iterator<Item = ServerRef<'_>> {
        self.row_range(row).map(move |index| ServerRef {
            cluster: self,
            index,
        })
    }

    /// Ids of the servers in `row` (dense range).
    pub fn row_server_ids(&self, row: RowId) -> impl Iterator<Item = ServerId> {
        self.row_range(row).map(|i| ServerId::new(i as u64))
    }

    /// Dense index range of the servers in `row`.
    fn row_range(&self, row: RowId) -> std::ops::Range<usize> {
        let per_row = self.spec.servers_per_row();
        let start = row.index() * per_row;
        start..start + per_row
    }

    /// Visits every unfrozen server in ascending id order with
    /// `(id, row, free, utilization)` — the scheduler's candidate scan,
    /// a linear walk over contiguous arrays.
    pub fn each_candidate(&self, mut f: impl FnMut(ServerId, RowId, Resources, f64)) {
        for i in 0..self.server_count() {
            if self.frozen[i] {
                continue;
            }
            f(
                ServerId::new(i as u64),
                RowId::new(self.row[i] as u64),
                self.capacity[i] - self.allocated[i],
                self.util[i],
            );
        }
    }

    /// Instantaneous power of one row in watts.
    ///
    /// Reads the delta-maintained accumulator: O(1), exact at every
    /// re-sum epoch and drift-bounded (≤ 1e-9 relative) between epochs.
    /// Use [`Cluster::exact_row_power_w`] when bit-exact sums are
    /// required.
    pub fn row_power_w(&self, row: RowId) -> f64 {
        self.row_power_acc[row.index()]
    }

    /// Instantaneous power of one row as an exact ascending-id sum over
    /// the cached per-server values — the reference the accumulator is
    /// measured against.
    pub fn exact_row_power_w(&self, row: RowId) -> f64 {
        self.power[self.row_range(row)].iter().sum()
    }

    /// Instantaneous power of one rack in watts.
    pub fn rack_power_w(&self, rack: RackId) -> f64 {
        let rack = rack.raw() as u32;
        self.rack
            .iter()
            .zip(&self.power)
            .filter(|&(&r, _)| r == rack)
            .map(|(_, &p)| p)
            .sum()
    }

    /// Instantaneous total power in watts: the sum of the row
    /// accumulators.
    pub fn total_power_w(&self) -> f64 {
        self.row_power_acc.iter().sum()
    }

    /// Service class of one server.
    pub fn service_class(&self, id: ServerId) -> ServiceClass {
        self.class[id.index()]
    }

    /// Retags one server's service class.
    pub fn set_service_class(&mut self, id: ServerId, class: ServiceClass) {
        assert!(id.index() < self.server_count(), "unknown server {id}");
        self.class[id.index()] = class;
    }

    /// Assigns every server's service class from `class_of(index)` —
    /// the bulk path mixed-fleet builders use after construction.
    pub fn set_service_classes(&mut self, class_of: impl Fn(usize) -> ServiceClass) {
        for (i, class) in self.class.iter_mut().enumerate() {
            *class = class_of(i);
        }
    }

    /// Number of [`ServiceClass::Batch`] servers in a row.
    pub fn batch_count(&self, row: RowId) -> usize {
        self.class[self.row_range(row)]
            .iter()
            .filter(|&&c| c == ServiceClass::Batch)
            .count()
    }

    /// Number of frozen servers in a row. O(1).
    pub fn frozen_count(&self, row: RowId) -> usize {
        self.row_frozen[row.index()] as usize
    }

    /// Whether every server is known to run at nominal frequency —
    /// lets per-tick DVFS resets and frequency rollups short-circuit.
    pub fn all_nominal_dvfs(&self) -> bool {
        !self.any_non_nominal
    }

    /// Resets every server to nominal frequency (the per-tick capper
    /// baseline). Skips the scan entirely when no server is capped.
    pub fn reset_dvfs_nominal(&mut self) {
        if !self.any_non_nominal {
            return;
        }
        for i in 0..self.server_count() {
            if self.dvfs[i].freq() < 1.0 {
                self.dvfs[i] = DvfsState::nominal();
                self.refresh_power(i);
            }
        }
        self.any_non_nominal = false;
    }

    /// Takes an IPMI-style sweep of per-server power readings for the
    /// monitor. `noise` lets callers inject per-sample measurement
    /// noise; pass `|_, w| w` for exact readings.
    pub fn sample(&self, noise: impl FnMut(ServerId, f64) -> f64) -> Vec<ServerSample> {
        let mut out = Vec::new();
        self.sample_into(&mut out, noise);
        out
    }

    /// Allocation-free variant of [`Cluster::sample`]: appends one
    /// sample per server (ascending id) to `out`.
    pub fn sample_into(
        &self,
        out: &mut Vec<ServerSample>,
        mut noise: impl FnMut(ServerId, f64) -> f64,
    ) {
        out.reserve(self.server_count());
        for i in 0..self.server_count() {
            out.push(ServerSample {
                server: i as u64,
                rack: self.rack[i] as u64,
                row: self.row[i] as u64,
                watts: noise(ServerId::new(i as u64), self.power[i]),
            });
        }
    }

    /// Advances every running job by one tick (work scaled by its
    /// server's DVFS frequency); returns `(server, job)` pairs for
    /// completed jobs in job-table order, which is unspecified.
    pub fn advance(&mut self, tick: SimDuration) -> Vec<(ServerId, JobId)> {
        let mut done = Vec::new();
        self.advance_into(tick, &mut done);
        done
    }

    /// Allocation-free variant of [`Cluster::advance`]: appends
    /// completions to `done` and ticks the row-power re-sum epoch
    /// counter.
    pub fn advance_into(&mut self, tick: SimDuration, done: &mut Vec<(ServerId, JobId)>) {
        let tick_ms = tick.as_millis() as f64;
        let mut k = 0;
        while k < self.jobs.len() {
            let slot = &mut self.jobs[k];
            let i = slot.server as usize;
            slot.remaining_ms -= tick_ms * self.dvfs[i].freq();
            if slot.remaining_ms <= 0.0 {
                // The last slot moves into `k` and is visited next.
                let slot = self.jobs.swap_remove(k);
                done.push((ServerId::new(i as u64), slot.job));
                self.allocated[i] -= slot.resources;
                self.job_count[i] -= 1;
                self.dirty.push(slot.server);
            } else {
                k += 1;
            }
        }
        // Ascending server order: each row accumulator takes its deltas
        // in the order a per-server walk would apply them.
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for &i in &dirty {
            self.refresh_power(i as usize);
        }
        dirty.clear();
        self.dirty = dirty;
        self.ticks_since_resum += 1;
        if self.ticks_since_resum >= self.resum_interval {
            self.force_power_resum();
        }
    }

    /// Sets how many [`Cluster::advance`] ticks pass between row-power
    /// accumulator re-sum epochs (default 64).
    pub fn set_power_resum_interval(&mut self, ticks: u32) {
        assert!(ticks > 0, "re-sum interval must be positive");
        self.resum_interval = ticks;
    }

    /// Number of re-sum epochs completed so far.
    pub fn power_resum_epochs(&self) -> u64 {
        self.resum_epochs
    }

    /// Opens a re-sum epoch now: rebuilds every row accumulator from
    /// the exact sum and recounts frozen servers.
    pub fn force_power_resum(&mut self) {
        for row in 0..self.spec.rows {
            self.row_power_acc[row] = self.exact_row_power_w(RowId::new(row as u64));
        }
        self.row_frozen.iter_mut().for_each(|c| *c = 0);
        for (i, &frozen) in self.frozen.iter().enumerate() {
            if frozen {
                self.row_frozen[self.row[i] as usize] += 1;
            }
        }
        self.ticks_since_resum = 0;
        self.resum_epochs += 1;
    }

    /// Live job count across the fleet (the job table's length).
    pub fn total_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Job-table capacity, slots freed by completions included. Exposed
    /// for slot-recycling tests.
    pub fn arena_slots(&self) -> usize {
        self.jobs.capacity()
    }

    /// Table position of `job` on server `i`, if it is running there.
    /// O(1) for an id at or above the server's bound, else a table scan.
    fn find_job(&self, i: usize, job: JobId) -> Option<usize> {
        if id_bound(job) > self.job_id_bound[i] {
            return None;
        }
        self.jobs
            .iter()
            .position(|slot| slot.server as usize == i && slot.job == job)
    }

    /// Re-derives the cached utilization and power of server `i` after
    /// a mutation, pushing the power delta into its row accumulator.
    fn refresh_power(&mut self, i: usize) {
        let u = self.allocated[i].cpu_fraction_of(&self.capacity[i]);
        let p = self.model[i].power_w(u, self.dvfs[i]);
        self.row_power_acc[self.row[i] as usize] += p - self.power[i];
        self.util[i] = u;
        self.power[i] = p;
    }
}

impl<'a> ServerRef<'a> {
    /// The server id.
    pub fn id(&self) -> ServerId {
        ServerId::new(self.index as u64)
    }

    /// The rack this server is mounted in.
    pub fn rack(&self) -> RackId {
        RackId::new(self.cluster.rack[self.index] as u64)
    }

    /// The row (PDU power domain) this server belongs to.
    pub fn row(&self) -> RowId {
        RowId::new(self.cluster.row[self.index] as u64)
    }

    /// The server's power model.
    pub fn power_model(&self) -> &'a ServerPowerModel {
        &self.cluster.model[self.index]
    }

    /// Total resource capacity.
    pub fn capacity(&self) -> Resources {
        self.cluster.capacity[self.index]
    }

    /// Currently allocated resources.
    pub fn allocated(&self) -> Resources {
        self.cluster.allocated[self.index]
    }

    /// Free resources.
    pub fn free(&self) -> Resources {
        self.capacity() - self.allocated()
    }

    /// CPU utilization in `[0, 1]` — the input to the power model.
    pub fn utilization(&self) -> f64 {
        self.cluster.util[self.index]
    }

    /// Current power draw in watts. Cached, and always bit-equal to
    /// `power_model().power_w(utilization(), dvfs())`.
    pub fn power_w(&self) -> f64 {
        self.cluster.power[self.index]
    }

    /// Rated power in watts (the provisioning unit).
    pub fn rated_w(&self) -> f64 {
        self.power_model().rated_w
    }

    /// Current DVFS state.
    pub fn dvfs(&self) -> DvfsState {
        self.cluster.dvfs[self.index]
    }

    /// The server's service class.
    pub fn service_class(&self) -> ServiceClass {
        self.cluster.class[self.index]
    }

    /// Whether the scheduler has been advised not to place new jobs
    /// here. Freezing never touches running jobs (§3.4).
    pub fn is_frozen(&self) -> bool {
        self.cluster.frozen[self.index]
    }

    /// Number of running jobs.
    pub fn job_count(&self) -> usize {
        self.cluster.job_count[self.index] as usize
    }

    /// Iterates over running jobs by value, in job-table order; callers
    /// must treat the jobs as a set. This filters the fleet's whole job
    /// table — O(jobs in the fleet), so it stays off the per-tick hot
    /// path.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, RunningJob)> + 'a {
        let i = self.index;
        self.cluster
            .jobs
            .iter()
            .filter(move |slot| slot.server as usize == i)
            .map(|slot| {
                (
                    slot.job,
                    RunningJob {
                        resources: slot.resources,
                        remaining_ms: slot.remaining_ms,
                    },
                )
            })
    }
}

impl ServerMut<'_> {
    /// Places a job. Freezing does *not* reject placements here — the
    /// frozen flag only advises the scheduler's candidate filter, so a
    /// direct placement (e.g. a test fixture) still succeeds.
    pub fn place(
        &mut self,
        job: JobId,
        resources: Resources,
        duration: SimDuration,
    ) -> Result<(), PlacementError> {
        let (c, i) = (&mut *self.cluster, self.index);
        if c.find_job(i, job).is_some() {
            return Err(PlacementError::DuplicateJob);
        }
        if !(c.capacity[i] - c.allocated[i]).fits(&resources) {
            return Err(PlacementError::InsufficientResources);
        }
        c.allocated[i] += resources;
        c.jobs.push(JobSlot {
            job,
            resources,
            remaining_ms: duration.as_millis() as f64,
            server: i as u32,
        });
        c.job_count[i] += 1;
        c.job_id_bound[i] = c.job_id_bound[i].max(id_bound(job));
        c.refresh_power(i);
        Ok(())
    }

    /// Forcibly terminates a job (e.g. preemption tests), freeing its
    /// resources. Returns whether the job was running here. A job id
    /// below the server's id bound costs a scan of the fleet's job
    /// table — O(jobs in the fleet), off the per-tick hot path.
    pub fn terminate(&mut self, job: JobId) -> bool {
        let (c, i) = (&mut *self.cluster, self.index);
        let Some(k) = c.find_job(i, job) else {
            return false;
        };
        let slot = c.jobs.swap_remove(k);
        c.allocated[i] -= slot.resources;
        c.job_count[i] -= 1;
        c.refresh_power(i);
        true
    }

    /// Sets the DVFS state (the capper's knob).
    pub fn set_dvfs(&mut self, state: DvfsState) {
        let (c, i) = (&mut *self.cluster, self.index);
        if state == c.dvfs[i] {
            return;
        }
        c.dvfs[i] = state;
        if state.freq() < 1.0 {
            c.any_non_nominal = true;
        }
        c.refresh_power(i);
    }

    /// Marks the server frozen (advisory; enforced by the scheduler).
    pub fn freeze(&mut self) {
        let (c, i) = (&mut *self.cluster, self.index);
        if !c.frozen[i] {
            c.frozen[i] = true;
            c.row_frozen[c.row[i] as usize] += 1;
        }
    }

    /// Clears the frozen flag.
    pub fn unfreeze(&mut self) {
        let (c, i) = (&mut *self.cluster, self.index);
        if c.frozen[i] {
            c.frozen[i] = false;
            c.row_frozen[c.row[i] as usize] -= 1;
        }
    }

    /// Whether this server is frozen.
    pub fn is_frozen(&self) -> bool {
        self.cluster.frozen[self.index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_row_major() {
        let c = Cluster::new(ClusterSpec::tiny());
        assert_eq!(c.server_count(), 16);
        assert_eq!(c.row_count(), 2);
        let s = c.server(ServerId::new(0));
        assert_eq!(s.row(), RowId::new(0));
        assert_eq!(s.rack(), RackId::new(0));
        let s = c.server(ServerId::new(15));
        assert_eq!(s.row(), RowId::new(1));
        assert_eq!(s.rack(), RackId::new(3));
        // Row ranges are contiguous.
        let ids: Vec<u64> = c.row_server_ids(RowId::new(1)).map(|i| i.raw()).collect();
        assert_eq!(ids, (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn idle_cluster_power() {
        let c = Cluster::new(ClusterSpec::tiny());
        let idle = c.spec().power_model.idle_w();
        assert!((c.total_power_w() - idle * 16.0).abs() < 1e-9);
        assert!((c.row_power_w(RowId::new(0)) - idle * 8.0).abs() < 1e-9);
        assert!((c.rack_power_w(RackId::new(0)) - idle * 4.0).abs() < 1e-9);
    }

    #[test]
    fn paper_row_dimensions() {
        let spec = ClusterSpec::paper_row();
        assert_eq!(spec.server_count(), 440);
        assert!((spec.rated_row_power_w() - 440.0 * 250.0).abs() < 1e-9);
    }

    #[test]
    fn advance_reports_completions() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        let (a, b) = (ServerId::new(3), ServerId::new(5));
        let r = Resources::cores_gb(4, 8);
        let place = |c: &mut Cluster, s, job, mins| {
            c.server_mut(s)
                .place(JobId::new(job), r, SimDuration::from_mins(mins))
                .unwrap()
        };
        // Two jobs interleave on `a`; a 3-minute job runs alone on `b`.
        place(&mut c, a, 1, 1);
        place(&mut c, a, 2, 2);
        place(&mut c, b, 7, 3);
        // Each job completes on exactly the tick its duration ends.
        assert_eq!(c.advance(SimDuration::MINUTE), vec![(a, JobId::new(1))]);
        assert_eq!(c.server(a).job_count(), 1);
        assert_eq!(c.advance(SimDuration::MINUTE), vec![(a, JobId::new(2))]);
        assert_eq!(c.advance(SimDuration::MINUTE), vec![(b, JobId::new(7))]);
        assert!(c.advance(SimDuration::MINUTE).is_empty());
        for s in [a, b] {
            assert_eq!(c.server(s).allocated(), Resources::ZERO);
            assert_eq!(c.server(s).utilization(), 0.0);
        }
    }

    #[test]
    fn sample_covers_all_servers() {
        let c = Cluster::new(ClusterSpec::tiny());
        let samples = c.sample(|_, w| w);
        assert_eq!(samples.len(), 16);
        let total: f64 = samples.iter().map(|s| s.watts).sum();
        assert!((total - c.total_power_w()).abs() < 1e-9);
    }

    #[test]
    fn noise_hook_applies() {
        let c = Cluster::new(ClusterSpec::tiny());
        let samples = c.sample(|_, w| w + 1.0);
        let total: f64 = samples.iter().map(|s| s.watts).sum();
        assert!((total - (c.total_power_w() + 16.0)).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_clusters_supported() {
        // Even indices: standard 250 W nodes; odd: 400 W fat nodes.
        let fat = ServerPowerModel::new(400.0, 0.6, 1.0);
        let c = Cluster::new_with(ClusterSpec::tiny(), |i| {
            if i % 2 == 0 {
                (ServerPowerModel::default(), Resources::cores_gb(32, 128))
            } else {
                (fat, Resources::cores_gb(64, 256))
            }
        });
        assert_eq!(c.server(ServerId::new(0)).rated_w(), 250.0);
        assert_eq!(c.server(ServerId::new(1)).rated_w(), 400.0);
        assert_eq!(
            c.server(ServerId::new(1)).capacity(),
            Resources::cores_gb(64, 256)
        );
        // Row rated power reflects the mix, not the spec default.
        let actual = c.actual_rated_row_power_w(RowId::new(0));
        assert!((actual - (4.0 * 250.0 + 4.0 * 400.0)).abs() < 1e-9);
        assert!(actual > c.spec().rated_row_power_w());
    }

    #[test]
    fn service_classes_default_interactive_and_retag() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        // Untagged fleets are all-interactive: the legacy behaviour.
        assert!(c
            .iter()
            .all(|s| s.service_class() == ServiceClass::Interactive));
        assert_eq!(c.batch_count(RowId::new(0)), 0);
        // A bulk retag (every odd server is batch) sticks and is
        // readable through every accessor path.
        c.set_service_classes(|i| {
            if i % 2 == 1 {
                ServiceClass::Batch
            } else {
                ServiceClass::Interactive
            }
        });
        assert_eq!(c.service_class(ServerId::new(1)), ServiceClass::Batch);
        assert_eq!(
            c.server(ServerId::new(2)).service_class(),
            ServiceClass::Interactive
        );
        assert_eq!(c.batch_count(RowId::new(0)), 4);
        assert_eq!(c.batch_count(RowId::new(1)), 4);
        // Single retag.
        c.set_service_class(ServerId::new(2), ServiceClass::Batch);
        assert_eq!(c.service_class(ServerId::new(2)), ServiceClass::Batch);
        assert_eq!(ServiceClass::Batch.name(), "batch");
        assert_eq!(ServiceClass::Interactive.name(), "interactive");
    }

    #[test]
    fn frozen_count_tracks_flags() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        assert_eq!(c.frozen_count(RowId::new(0)), 0);
        c.server_mut(ServerId::new(1)).freeze();
        c.server_mut(ServerId::new(2)).freeze();
        c.server_mut(ServerId::new(9)).freeze(); // Other row.
        assert_eq!(c.frozen_count(RowId::new(0)), 2);
        assert_eq!(c.frozen_count(RowId::new(1)), 1);
        // Freezing is idempotent on the counters.
        c.server_mut(ServerId::new(1)).freeze();
        assert_eq!(c.frozen_count(RowId::new(0)), 2);
        c.server_mut(ServerId::new(1)).unfreeze();
        c.server_mut(ServerId::new(1)).unfreeze();
        assert_eq!(c.frozen_count(RowId::new(0)), 1);
    }

    #[test]
    fn cached_power_matches_model() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        c.server_mut(ServerId::new(0))
            .place(
                JobId::new(1),
                Resources::cores_gb(16, 32),
                SimDuration::from_mins(9),
            )
            .unwrap();
        c.server_mut(ServerId::new(0)).set_dvfs(DvfsState::at(0.7));
        let s = c.server(ServerId::new(0));
        let expect = s.power_model().power_w(s.utilization(), s.dvfs());
        // Bit-equal, not approximately equal: the cache must be a pure
        // function of (model, utilization, dvfs).
        assert_eq!(s.power_w().to_bits(), expect.to_bits());
    }

    #[test]
    fn job_arena_recycles_slots() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        let r = Resources::cores_gb(1, 1);
        // Steady-state churn: place/complete the same load repeatedly.
        for round in 0..10u64 {
            for i in 0..8u64 {
                c.server_mut(ServerId::new(i))
                    .place(JobId::new(round * 8 + i), r, SimDuration::from_mins(1))
                    .unwrap();
            }
            c.advance(SimDuration::from_mins(1));
        }
        assert_eq!(c.total_jobs(), 0);
        // The arena never grew past one round's worth of slots.
        assert_eq!(c.arena_slots(), 8);
    }

    #[test]
    fn duplicate_check_is_exact_for_out_of_order_ids() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        let r = Resources::cores_gb(1, 1);
        let (a, b) = (ServerId::new(2), ServerId::new(5));
        let place = |c: &mut Cluster, s, job, mins| {
            c.server_mut(s)
                .place(JobId::new(job), r, SimDuration::from_mins(mins))
        };
        // 3 is below the bound that placing 10 raised.
        place(&mut c, a, 10, 5).unwrap();
        place(&mut c, a, 3, 1).unwrap();
        assert_eq!(place(&mut c, a, 3, 1), Err(PlacementError::DuplicateJob));
        assert_eq!(place(&mut c, a, 10, 1), Err(PlacementError::DuplicateJob));
        // Job ids are per server: another server accepts the same id.
        place(&mut c, b, 3, 1).unwrap();
        // Once 3 completes it may run on `a` again.
        let mut done = c.advance(SimDuration::MINUTE);
        done.sort();
        assert_eq!(done, vec![(a, JobId::new(3)), (b, JobId::new(3))]);
        place(&mut c, a, 3, 1).unwrap();
        assert_eq!(c.server(a).job_count(), 2);
        // Termination goes through the same exact lookup.
        assert!(!c.server_mut(b).terminate(JobId::new(3)));
        assert!(c.server_mut(a).terminate(JobId::new(3)));
        assert!(!c.server_mut(a).terminate(JobId::new(3)));
        assert_eq!(
            c.server(a).jobs().map(|(j, _)| j).collect::<Vec<_>>(),
            vec![JobId::new(10)]
        );
        // The bound saturates at the top of the id space and stays exact.
        place(&mut c, b, u64::MAX, 1).unwrap();
        place(&mut c, b, u64::MAX - 1, 1).unwrap();
        assert_eq!(
            place(&mut c, b, u64::MAX, 1),
            Err(PlacementError::DuplicateJob)
        );
        assert_eq!(
            place(&mut c, b, u64::MAX - 1, 1),
            Err(PlacementError::DuplicateJob)
        );
    }

    #[test]
    fn incremental_row_power_tracks_exact_sum() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        c.set_power_resum_interval(4);
        let r = Resources::cores_gb(4, 8);
        for i in 0..16u64 {
            c.server_mut(ServerId::new(i))
                .place(JobId::new(i), r, SimDuration::from_mins(i % 5 + 1))
                .unwrap();
        }
        for tick in 0..12 {
            c.advance(SimDuration::MINUTE);
            for row in 0..2 {
                let acc = c.row_power_w(RowId::new(row));
                let exact = c.exact_row_power_w(RowId::new(row));
                let rel = (acc - exact).abs() / exact.max(1.0);
                assert!(rel < 1e-9, "tick {tick} row {row}: acc {acc} vs {exact}");
            }
        }
        // A forced epoch snaps the accumulator to the exact bits.
        c.force_power_resum();
        for row in 0..2 {
            let acc = c.row_power_w(RowId::new(row));
            let exact = c.exact_row_power_w(RowId::new(row));
            assert_eq!(acc.to_bits(), exact.to_bits());
        }
        assert!(c.power_resum_epochs() >= 3);
    }

    #[test]
    fn dvfs_reset_short_circuits_when_nominal() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        assert!(c.all_nominal_dvfs());
        c.server_mut(ServerId::new(5)).set_dvfs(DvfsState::at(0.5));
        assert!(!c.all_nominal_dvfs());
        c.reset_dvfs_nominal();
        assert!(c.all_nominal_dvfs());
        assert_eq!(c.server(ServerId::new(5)).dvfs(), DvfsState::nominal());
    }
}
