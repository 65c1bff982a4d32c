//! Cluster topology: rows of racks of servers.
//!
//! Server ids are dense and laid out row-major (all servers of row 0,
//! then row 1, …), so row membership is computable without lookup
//! tables and per-row scans are cache-friendly — the controller scans
//! one row per tick at data-center scale.
//!
//! Two storage engines back a [`Cluster`]:
//!
//! - **Flat** (default): struct-of-arrays [`FleetState`] with cached
//!   per-server power and incremental per-row accumulators — the
//!   hyperscale hot path (DESIGN §14).
//! - **Nested**: the pre-SoA `Vec<Server>` layout, kept constructible
//!   behind the `legacy-nested` cargo feature for one release so the
//!   differential suite can prove the flat engine bit-exact against it.
//!
//! Per-server access goes through the [`ServerRef`] / [`ServerMut`]
//! proxies, which dispatch to whichever engine is active. Both engines
//! share the exact same observable semantics; the differential tests in
//! `crates/experiments/tests/flat_fleet_differential.rs` hold them to
//! byte-identical telemetry.

use ampere_power::monitor::ServerSample;
use ampere_power::{DvfsState, ServerPowerModel};
use ampere_sim::SimDuration;

use crate::fleet::FleetState;
use crate::ids::{JobId, RackId, RowId, ServerId};
use crate::resources::Resources;
use crate::server::{PlacementError, RunningJob, Server};

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

/// Which storage engine backs a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Flat struct-of-arrays fleet storage (the hyperscale hot path).
    #[default]
    Flat,
    /// Legacy nested `Vec<Server>` storage. Only constructible with the
    /// `legacy-nested` cargo feature; retained for one release as the
    /// reference the differential suite measures the flat engine
    /// against.
    Nested,
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

/// Storage engine behind a [`Cluster`].
// One Storage exists per Cluster and it is never moved on the hot
// path, so the inline FleetState (vs the thin Nested vec) costs
// nothing; boxing it would add a pointer chase to every tick.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Storage {
    Flat(FleetState),
    #[cfg_attr(not(feature = "legacy-nested"), allow(dead_code))]
    Nested(Vec<Server>),
}

/// The simulated fleet.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    storage: Storage,
}

/// Shared view of one server, dispatching to the active engine.
#[derive(Clone, Copy)]
pub struct ServerRef<'a> {
    cluster: &'a Cluster,
    index: usize,
}

/// Mutable view of one server, dispatching to the active engine.
pub struct ServerMut<'a> {
    cluster: &'a mut Cluster,
    index: usize,
}

impl Cluster {
    /// Builds an idle, homogeneous cluster from a spec (the paper's
    /// evaluation row is homogeneous, §4.1.1) on the flat engine.
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
        Self::new_with_engine(spec, EngineKind::Flat, class_of)
    }

    /// Builds an idle cluster on an explicit storage engine.
    ///
    /// # Panics
    ///
    /// Panics for [`EngineKind::Nested`] unless the `legacy-nested`
    /// cargo feature is enabled — release builds carry only the flat
    /// engine.
    pub fn new_with_engine(
        spec: ClusterSpec,
        engine: EngineKind,
        class_of: impl Fn(usize) -> (ServerPowerModel, Resources),
    ) -> Self {
        assert!(spec.rows > 0 && spec.racks_per_row > 0 && spec.servers_per_rack > 0);
        let storage = match engine {
            EngineKind::Flat => Storage::Flat(FleetState::new(&spec, class_of)),
            #[cfg(feature = "legacy-nested")]
            EngineKind::Nested => {
                let mut servers = Vec::with_capacity(spec.server_count());
                for row in 0..spec.rows {
                    for rack_in_row in 0..spec.racks_per_row {
                        let rack = RackId::new((row * spec.racks_per_row + rack_in_row) as u64);
                        for _ in 0..spec.servers_per_rack {
                            let id = ServerId::new(servers.len() as u64);
                            let (model, capacity) = class_of(servers.len());
                            servers.push(Server::new(
                                id,
                                rack,
                                RowId::new(row as u64),
                                model,
                                capacity,
                            ));
                        }
                    }
                }
                Storage::Nested(servers)
            }
            #[cfg(not(feature = "legacy-nested"))]
            EngineKind::Nested => {
                panic!("nested engine requires the `legacy-nested` cargo feature")
            }
        };
        Self { spec, storage }
    }

    /// Which storage engine this cluster runs on.
    pub fn engine(&self) -> EngineKind {
        match &self.storage {
            Storage::Flat(_) => EngineKind::Flat,
            Storage::Nested(_) => EngineKind::Nested,
        }
    }

    /// Sum of the *actual* rated power over one row. Equals
    /// `spec.rated_row_power_w()` for homogeneous fleets, differs for
    /// clusters built with [`Cluster::new_with`].
    pub fn actual_rated_row_power_w(&self, row: RowId) -> f64 {
        self.row_server_ids(row)
            .map(|id| self.server(id).rated_w())
            .sum()
    }

    /// The building spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of servers.
    pub fn server_count(&self) -> usize {
        match &self.storage {
            Storage::Flat(f) => f.len(),
            Storage::Nested(s) => s.len(),
        }
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
        let per_row = self.spec.servers_per_row();
        let start = row.index() * per_row;
        (start..start + per_row).map(move |index| ServerRef {
            cluster: self,
            index,
        })
    }

    /// Ids of the servers in `row` (dense range).
    pub fn row_server_ids(&self, row: RowId) -> impl Iterator<Item = ServerId> {
        let per_row = self.spec.servers_per_row();
        let start = row.index() * per_row;
        (start..start + per_row).map(|i| ServerId::new(i as u64))
    }

    /// Visits every unfrozen server in ascending id order with
    /// `(id, row, free, utilization)` — the scheduler's candidate scan.
    /// On the flat engine this is a linear walk over contiguous arrays.
    pub fn each_candidate(&self, mut f: impl FnMut(ServerId, RowId, Resources, f64)) {
        match &self.storage {
            Storage::Flat(fleet) => fleet.each_candidate(f),
            Storage::Nested(servers) => {
                for s in servers {
                    if !s.is_frozen() {
                        f(s.id(), s.row(), s.free(), s.utilization());
                    }
                }
            }
        }
    }

    /// Instantaneous power of one row in watts.
    ///
    /// On the flat engine this reads the delta-maintained accumulator:
    /// O(1), exact at every re-sum epoch and drift-bounded (≤ 1e-9
    /// relative) between epochs. Use [`Cluster::exact_row_power_w`]
    /// when bit-exact sums are required.
    pub fn row_power_w(&self, row: RowId) -> f64 {
        match &self.storage {
            Storage::Flat(f) => f.row_power_acc_w(row.index()),
            Storage::Nested(_) => self.exact_row_power_w(row),
        }
    }

    /// Instantaneous power of one row as an exact ascending-id sum.
    pub fn exact_row_power_w(&self, row: RowId) -> f64 {
        match &self.storage {
            Storage::Flat(f) => f.exact_row_power_w(row.index()),
            Storage::Nested(_) => self.iter_row(row).map(|s| s.power_w()).sum(),
        }
    }

    /// Instantaneous power of one rack in watts.
    pub fn rack_power_w(&self, rack: RackId) -> f64 {
        self.iter()
            .filter(|s| s.rack() == rack)
            .map(|s| s.power_w())
            .sum()
    }

    /// Instantaneous total power in watts.
    pub fn total_power_w(&self) -> f64 {
        match &self.storage {
            Storage::Flat(f) => (0..self.spec.rows).map(|r| f.row_power_acc_w(r)).sum(),
            Storage::Nested(s) => s.iter().map(Server::power_w).sum(),
        }
    }

    /// Service class of one server. The legacy nested engine does not
    /// carry class tags; it reports the default
    /// ([`ServiceClass::Interactive`]) for every server, matching a
    /// flat fleet that was never retagged.
    pub fn service_class(&self, id: ServerId) -> ServiceClass {
        match &self.storage {
            Storage::Flat(f) => f.service_class(id.index()),
            Storage::Nested(_) => ServiceClass::default(),
        }
    }

    /// Retags one server's service class (no-op on the legacy nested
    /// engine, which carries no class storage).
    pub fn set_service_class(&mut self, id: ServerId, class: ServiceClass) {
        assert!(id.index() < self.server_count(), "unknown server {id}");
        if let Storage::Flat(f) = &mut self.storage {
            f.set_service_class(id.index(), class);
        }
    }

    /// Assigns every server's service class from `class_of(index)` —
    /// the bulk path mixed-fleet builders use after construction.
    pub fn set_service_classes(&mut self, class_of: impl Fn(usize) -> ServiceClass) {
        if let Storage::Flat(f) = &mut self.storage {
            for i in 0..f.len() {
                f.set_service_class(i, class_of(i));
            }
        }
    }

    /// Number of [`ServiceClass::Batch`] servers in a row.
    pub fn batch_count(&self, row: RowId) -> usize {
        self.iter_row(row)
            .filter(|s| s.service_class() == ServiceClass::Batch)
            .count()
    }

    /// Number of frozen servers in a row. O(1) on the flat engine.
    pub fn frozen_count(&self, row: RowId) -> usize {
        match &self.storage {
            Storage::Flat(f) => f.frozen_in_row(row.index()),
            Storage::Nested(_) => self.iter_row(row).filter(|s| s.is_frozen()).count(),
        }
    }

    /// Whether every server is known to run at nominal frequency —
    /// lets per-tick DVFS resets and frequency rollups short-circuit.
    /// Conservative: `false` means "unknown" on the nested engine.
    pub fn all_nominal_dvfs(&self) -> bool {
        match &self.storage {
            Storage::Flat(f) => f.all_nominal_dvfs(),
            Storage::Nested(_) => false,
        }
    }

    /// Resets every server to nominal frequency (the per-tick capper
    /// baseline). Skips the scan entirely when no server is capped.
    pub fn reset_dvfs_nominal(&mut self) {
        match &mut self.storage {
            Storage::Flat(f) => f.reset_dvfs_nominal(),
            Storage::Nested(servers) => {
                for s in servers {
                    s.set_dvfs(DvfsState::nominal());
                }
            }
        }
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
        match &self.storage {
            Storage::Flat(f) => f.sample_into(out, noise),
            Storage::Nested(servers) => {
                out.reserve(servers.len());
                for s in servers {
                    out.push(ServerSample {
                        server: s.id().raw(),
                        rack: s.rack().raw(),
                        row: s.row().raw(),
                        watts: noise(s.id(), s.power_w()),
                    });
                }
            }
        }
    }

    /// Advances every server by one tick; returns `(server, job)` pairs
    /// for completed jobs. Their order is an engine detail (job-table
    /// order on flat, server then id order on nested).
    pub fn advance(&mut self, tick: SimDuration) -> Vec<(ServerId, JobId)> {
        let mut done = Vec::new();
        self.advance_into(tick, &mut done);
        done
    }

    /// Allocation-free variant of [`Cluster::advance`]: appends
    /// completions to `done`. On the flat engine this also ticks the
    /// row-power re-sum epoch counter.
    pub fn advance_into(&mut self, tick: SimDuration, done: &mut Vec<(ServerId, JobId)>) {
        match &mut self.storage {
            Storage::Flat(f) => f.advance_into(tick, done),
            Storage::Nested(servers) => {
                for s in servers {
                    for job in s.advance(tick) {
                        done.push((s.id(), job));
                    }
                }
            }
        }
    }

    /// Sets how many [`Cluster::advance`] ticks pass between row-power
    /// accumulator re-sum epochs on the flat engine (no-op on nested).
    pub fn set_power_resum_interval(&mut self, ticks: u32) {
        if let Storage::Flat(f) = &mut self.storage {
            f.set_resum_interval(ticks);
        }
    }

    /// Number of re-sum epochs completed so far (0 on nested).
    pub fn power_resum_epochs(&self) -> u64 {
        match &self.storage {
            Storage::Flat(f) => f.resum_epochs(),
            Storage::Nested(_) => 0,
        }
    }

    /// Forces an immediate row-power re-sum epoch on the flat engine.
    pub fn force_power_resum(&mut self) {
        if let Storage::Flat(f) = &mut self.storage {
            f.resum();
        }
    }

    /// Live job count across the fleet (the job table's length on flat).
    pub fn total_jobs(&self) -> usize {
        match &self.storage {
            Storage::Flat(f) => f.live_jobs(),
            Storage::Nested(s) => s.iter().map(Server::job_count).sum(),
        }
    }

    /// Job-table capacity on the flat engine (slots freed by completions
    /// included); 0 on nested. Exposed for slot-recycling tests.
    pub fn arena_slots(&self) -> usize {
        match &self.storage {
            Storage::Flat(f) => f.arena_slots(),
            Storage::Nested(_) => 0,
        }
    }
}

impl<'a> ServerRef<'a> {
    /// The server id.
    pub fn id(&self) -> ServerId {
        ServerId::new(self.index as u64)
    }

    /// The rack this server is mounted in.
    pub fn rack(&self) -> RackId {
        match &self.cluster.storage {
            Storage::Flat(f) => f.rack_id(self.index),
            Storage::Nested(s) => s[self.index].rack(),
        }
    }

    /// The row (PDU power domain) this server belongs to.
    pub fn row(&self) -> RowId {
        match &self.cluster.storage {
            Storage::Flat(f) => f.row_id(self.index),
            Storage::Nested(s) => s[self.index].row(),
        }
    }

    /// The server's power model.
    pub fn power_model(&self) -> &'a ServerPowerModel {
        match &self.cluster.storage {
            Storage::Flat(f) => f.model(self.index),
            Storage::Nested(s) => s[self.index].power_model(),
        }
    }

    /// Total resource capacity.
    pub fn capacity(&self) -> Resources {
        match &self.cluster.storage {
            Storage::Flat(f) => f.capacity(self.index),
            Storage::Nested(s) => s[self.index].capacity(),
        }
    }

    /// Currently allocated resources.
    pub fn allocated(&self) -> Resources {
        match &self.cluster.storage {
            Storage::Flat(f) => f.allocated(self.index),
            Storage::Nested(s) => s[self.index].allocated(),
        }
    }

    /// Free resources.
    pub fn free(&self) -> Resources {
        self.capacity() - self.allocated()
    }

    /// CPU utilization in `[0, 1]` — the input to the power model.
    pub fn utilization(&self) -> f64 {
        match &self.cluster.storage {
            Storage::Flat(f) => f.utilization(self.index),
            Storage::Nested(s) => s[self.index].utilization(),
        }
    }

    /// Current power draw in watts. Cached on the flat engine — always
    /// bit-equal to `power_model().power_w(utilization(), dvfs())`.
    pub fn power_w(&self) -> f64 {
        match &self.cluster.storage {
            Storage::Flat(f) => f.power_w(self.index),
            Storage::Nested(s) => s[self.index].power_w(),
        }
    }

    /// Rated power in watts (the provisioning unit).
    pub fn rated_w(&self) -> f64 {
        self.power_model().rated_w
    }

    /// Current DVFS state.
    pub fn dvfs(&self) -> DvfsState {
        match &self.cluster.storage {
            Storage::Flat(f) => f.dvfs(self.index),
            Storage::Nested(s) => s[self.index].dvfs(),
        }
    }

    /// The server's service class (default [`ServiceClass::Interactive`]
    /// on the legacy nested engine, which carries no class tags).
    pub fn service_class(&self) -> ServiceClass {
        match &self.cluster.storage {
            Storage::Flat(f) => f.service_class(self.index),
            Storage::Nested(_) => ServiceClass::default(),
        }
    }

    /// Whether the scheduler has been advised not to place new jobs
    /// here. Freezing never touches running jobs (§3.4).
    pub fn is_frozen(&self) -> bool {
        match &self.cluster.storage {
            Storage::Flat(f) => f.is_frozen(self.index),
            Storage::Nested(s) => s[self.index].is_frozen(),
        }
    }

    /// Number of running jobs.
    pub fn job_count(&self) -> usize {
        match &self.cluster.storage {
            Storage::Flat(f) => f.job_count(self.index),
            Storage::Nested(s) => s[self.index].job_count(),
        }
    }

    /// Iterates over running jobs by value. Iteration *order* is an
    /// engine detail (job-table order on flat, id order on nested);
    /// callers must treat the jobs as a set. On flat this filters the
    /// fleet's whole job table — O(jobs in the fleet), so it stays off
    /// the per-tick hot path.
    pub fn jobs(&self) -> Box<dyn Iterator<Item = (JobId, RunningJob)> + 'a> {
        match &self.cluster.storage {
            Storage::Flat(f) => Box::new(f.jobs(self.index)),
            Storage::Nested(s) => Box::new(s[self.index].jobs().map(|(id, j)| (id, *j))),
        }
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
        match &mut self.cluster.storage {
            Storage::Flat(f) => f.place(self.index, job, resources, duration),
            Storage::Nested(s) => s[self.index].place(job, resources, duration),
        }
    }

    /// Forcibly terminates a job (e.g. preemption tests), freeing its
    /// resources. Returns whether the job was running here. On flat a
    /// job id below the server's id bound costs a scan of the fleet's
    /// job table — O(jobs in the fleet), off the per-tick hot path.
    pub fn terminate(&mut self, job: JobId) -> bool {
        match &mut self.cluster.storage {
            Storage::Flat(f) => f.terminate(self.index, job),
            Storage::Nested(s) => s[self.index].terminate(job),
        }
    }

    /// Sets the DVFS state (the capper's knob).
    pub fn set_dvfs(&mut self, state: DvfsState) {
        match &mut self.cluster.storage {
            Storage::Flat(f) => f.set_dvfs(self.index, state),
            Storage::Nested(s) => s[self.index].set_dvfs(state),
        }
    }

    /// Marks the server frozen (advisory; enforced by the scheduler).
    pub fn freeze(&mut self) {
        match &mut self.cluster.storage {
            Storage::Flat(f) => f.freeze(self.index),
            Storage::Nested(s) => s[self.index].freeze(),
        }
    }

    /// Clears the frozen flag.
    pub fn unfreeze(&mut self) {
        match &mut self.cluster.storage {
            Storage::Flat(f) => f.unfreeze(self.index),
            Storage::Nested(s) => s[self.index].unfreeze(),
        }
    }

    /// Whether this server is frozen.
    pub fn is_frozen(&self) -> bool {
        match &self.cluster.storage {
            Storage::Flat(f) => f.is_frozen(self.index),
            Storage::Nested(s) => s[self.index].is_frozen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimDuration;

    #[test]
    fn layout_is_row_major() {
        let c = Cluster::new(ClusterSpec::tiny());
        assert_eq!(c.server_count(), 16);
        assert_eq!(c.row_count(), 2);
        assert_eq!(c.engine(), EngineKind::Flat);
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
        c.server_mut(ServerId::new(3))
            .place(
                JobId::new(7),
                Resources::cores_gb(2, 4),
                SimDuration::from_mins(1),
            )
            .unwrap();
        let done = c.advance(SimDuration::from_mins(1));
        assert_eq!(done, vec![(ServerId::new(3), JobId::new(7))]);
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

    #[cfg(feature = "legacy-nested")]
    #[test]
    fn engines_agree_on_basic_trajectory() {
        let run = |engine: EngineKind| {
            let spec = ClusterSpec::tiny();
            let mut c =
                Cluster::new_with_engine(spec, engine, |_| (spec.power_model, spec.capacity));
            let mut trace = Vec::new();
            for i in 0..8u64 {
                c.server_mut(ServerId::new(i * 2))
                    .place(
                        JobId::new(i),
                        Resources::cores_gb(8, 16),
                        SimDuration::from_mins(i + 1),
                    )
                    .unwrap();
            }
            c.server_mut(ServerId::new(3)).freeze();
            for _ in 0..10 {
                let done = c.advance(SimDuration::MINUTE);
                trace.push((done.len(), c.exact_row_power_w(RowId::new(0)).to_bits()));
            }
            trace
        };
        assert_eq!(run(EngineKind::Flat), run(EngineKind::Nested));
    }
}
