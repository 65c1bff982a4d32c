//! Data-center topology and resource model.
//!
//! Substitutes the paper's physical fleet: a [`Cluster`] holds every
//! server of a data-center slice, organized into racks and rows (≈ 40
//! servers per 8–10 kW rack, ≈ 20 racks per row/PDU, §2.1), as dense
//! per-server columns indexed by [`ServerId`]. Each server tracks its
//! allocated resources, its running jobs' remaining work, its DVFS state
//! and its frozen flag; power draw is derived from the
//! [`ampere_power::ServerPowerModel`]. [`ServerRef`] and [`ServerMut`]
//! view one server.
//!
//! The simulation is tick-driven at the granularity the paper measures
//! (one minute): [`Cluster::advance`] progresses every running job by one
//! tick scaled by its server's DVFS frequency and reports completions,
//! which the scheduler uses to free resources.
//!
//! # Example
//!
//! ```
//! use ampere_cluster::{Cluster, ClusterSpec, JobId, Resources, RowId, ServerId};
//! use ampere_sim::SimDuration;
//!
//! // The paper's evaluation row: 11 racks × 40 servers.
//! let mut cluster = Cluster::new(ClusterSpec::paper_row());
//! assert_eq!(cluster.server_count(), 440);
//!
//! // Place a 3-minute job on a server; power rises with utilization.
//! let idle = cluster.row_power_w(RowId::new(0));
//! cluster
//!     .server_mut(ServerId::new(7))
//!     .place(JobId::new(1), Resources::cores_gb(16, 32), SimDuration::from_mins(3))
//!     .unwrap();
//! assert!(cluster.row_power_w(RowId::new(0)) > idle);
//!
//! // Three minutes later the job completes and resources free up.
//! for _ in 0..3 {
//!     cluster.advance(SimDuration::MINUTE);
//! }
//! assert_eq!(cluster.server(ServerId::new(7)).job_count(), 0);
//! ```

pub mod ids;
pub mod resources;
pub mod topology;

#[cfg(test)]
#[path = "server_tests.rs"]
mod server;

pub use ids::{JobId, RackId, RowId, ServerId};
pub use resources::Resources;
pub use topology::{
    Cluster, ClusterSpec, PlacementError, RunningJob, ServerMut, ServerRef, ServiceClass,
};
