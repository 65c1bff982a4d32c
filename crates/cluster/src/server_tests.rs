//! Single-server behaviour of [`Cluster`](crate::Cluster): placement,
//! completion, DVFS, power, freezing and termination, each checked on a
//! one-server cluster through the [`ServerRef`](crate::ServerRef) and
//! [`ServerMut`](crate::ServerMut) views.

mod tests {
    use ampere_power::DvfsState;
    use ampere_sim::SimDuration;

    use crate::{Cluster, ClusterSpec, JobId, PlacementError, Resources, ServerId};

    const S: ServerId = ServerId::new(0);

    /// One 32-core, 128 GB server at the default 250 W power model.
    fn server() -> Cluster {
        Cluster::new(ClusterSpec {
            rows: 1,
            racks_per_row: 1,
            servers_per_rack: 1,
            ..ClusterSpec::tiny()
        })
    }

    fn job(i: u64) -> JobId {
        JobId::new(i)
    }

    /// Advances one tick and returns the jobs that completed on `S`.
    fn advance(c: &mut Cluster, mins: u64) -> Vec<JobId> {
        c.advance(SimDuration::from_mins(mins))
            .into_iter()
            .map(|(s, j)| {
                assert_eq!(s, S);
                j
            })
            .collect()
    }

    #[test]
    fn placement_accounting() {
        let mut c = server();
        let r = Resources::cores_gb(8, 16);
        c.server_mut(S)
            .place(job(1), r, SimDuration::from_mins(5))
            .unwrap();
        let s = c.server(S);
        assert_eq!(s.allocated(), r);
        assert_eq!(s.free(), Resources::cores_gb(24, 112));
        assert_eq!(s.job_count(), 1);
        assert_eq!(s.utilization(), 0.25);
    }

    #[test]
    fn rejects_overcommit_and_duplicates() {
        let mut c = server();
        let r = Resources::cores_gb(20, 16);
        c.server_mut(S)
            .place(job(1), r, SimDuration::from_mins(5))
            .unwrap();
        assert_eq!(
            c.server_mut(S).place(job(2), r, SimDuration::from_mins(5)),
            Err(PlacementError::InsufficientResources)
        );
        assert_eq!(
            c.server_mut(S)
                .place(job(1), Resources::cores_gb(1, 1), SimDuration::from_mins(5)),
            Err(PlacementError::DuplicateJob)
        );
    }

    #[test]
    fn jobs_complete_after_duration() {
        let mut c = server();
        c.server_mut(S)
            .place(job(1), Resources::cores_gb(4, 8), SimDuration::from_mins(3))
            .unwrap();
        assert!(advance(&mut c, 1).is_empty());
        assert!(advance(&mut c, 1).is_empty());
        assert_eq!(advance(&mut c, 1), vec![job(1)]);
        assert_eq!(c.server(S).allocated(), Resources::ZERO);
        assert_eq!(c.server(S).utilization(), 0.0);
    }

    #[test]
    fn dvfs_slows_job_progress() {
        // The §4.3 capping disturbance: at half frequency a 2-minute
        // job needs 4 minutes.
        let mut c = server();
        c.server_mut(S)
            .place(job(1), Resources::cores_gb(4, 8), SimDuration::from_mins(2))
            .unwrap();
        c.server_mut(S).set_dvfs(DvfsState::at(0.5));
        for _ in 0..3 {
            assert!(advance(&mut c, 1).is_empty());
        }
        assert_eq!(advance(&mut c, 1), vec![job(1)]);
    }

    #[test]
    fn power_tracks_utilization() {
        let mut c = server();
        let s = c.server(S);
        assert!((s.power_w() - s.power_model().idle_w()).abs() < 1e-9);
        c.server_mut(S)
            .place(
                job(1),
                Resources::cores_gb(32, 64),
                SimDuration::from_mins(5),
            )
            .unwrap();
        let s = c.server(S);
        assert!((s.power_w() - s.rated_w()).abs() < 1e-9);
    }

    #[test]
    fn freeze_does_not_touch_jobs() {
        let mut c = server();
        c.server_mut(S)
            .place(job(1), Resources::cores_gb(4, 8), SimDuration::from_mins(5))
            .unwrap();
        c.server_mut(S).freeze();
        assert!(c.server(S).is_frozen());
        assert_eq!(c.server(S).job_count(), 1);
        // Direct placement still possible; the scheduler is the enforcer.
        c.server_mut(S)
            .place(job(2), Resources::cores_gb(4, 8), SimDuration::from_mins(5))
            .unwrap();
        c.server_mut(S).unfreeze();
        assert!(!c.server(S).is_frozen());
    }

    #[test]
    fn terminate_frees_resources() {
        let mut c = server();
        c.server_mut(S)
            .place(job(1), Resources::cores_gb(4, 8), SimDuration::from_mins(5))
            .unwrap();
        assert!(c.server_mut(S).terminate(job(1)));
        assert!(!c.server_mut(S).terminate(job(1)));
        assert_eq!(c.server(S).allocated(), Resources::ZERO);
    }

    #[test]
    fn multiple_jobs_interleave() {
        let mut c = server();
        c.server_mut(S)
            .place(job(1), Resources::cores_gb(4, 8), SimDuration::from_mins(1))
            .unwrap();
        c.server_mut(S)
            .place(job(2), Resources::cores_gb(4, 8), SimDuration::from_mins(2))
            .unwrap();
        assert_eq!(advance(&mut c, 1), vec![job(1)]);
        assert_eq!(c.server(S).job_count(), 1);
        assert_eq!(advance(&mut c, 1), vec![job(2)]);
    }
}
