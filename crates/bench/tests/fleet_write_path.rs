//! The fleet write path: a Talks writer attached to an in-process
//! `hb-fleetd` runs the Table 2 update sequence and syncs after every
//! version. A sync only adds candidates to the writer's shared tier, so
//! the writer does exactly the work a fleet-free one does: the same
//! checks, the same Definition 1 dependents invalidated, and one
//! publication per check. Its own publications coming back in the next
//! delta retire nothing.

use hb_apps::talks_history::{
    run_update_experiment, run_update_experiment_with, run_update_requests,
};
use hb_fleetd::{DaemonConfig, FleetDaemon, FleetServer};
use hummingbird::Hummingbird;

#[test]
fn a_fleet_attached_writer_does_the_fleet_free_work_at_every_version() {
    let mut reference = run_update_experiment().into_iter();

    let socket = std::env::temp_dir().join(format!("hb-bench-{}-write.sock", std::process::id()));
    let (daemon, warning) = FleetDaemon::new(DaemonConfig::default());
    assert!(warning.is_none(), "{warning:?}");
    let _server = FleetServer::bind(daemon, &socket).expect("bind fleet socket");

    // Checks performed up to the previous sync.
    let mut synced_checks = 0;
    run_update_experiment_with(Hummingbird::builder().fleet_socket(&socket), |hb, row| {
        let v = &row.version;
        let fleet_free = reference.next().expect("one reference row per version");
        assert_eq!(row.checked, fleet_free.checked, "{v}: checks");
        assert_eq!(row.deps, fleet_free.deps, "{v}: dependents invalidated");

        let checks = hb.stats().checks_performed;
        let published = hb.fleet_sync().expect("sync").published as u64;
        assert_eq!(published, checks - synced_checks, "{v}: published");
        assert_eq!(
            hb.fleet_sync().expect("second sync").published,
            0,
            "{v}: second sync"
        );
        run_update_requests(hb);
        synced_checks = hb.stats().checks_performed;
        assert_eq!(
            synced_checks, checks,
            "{v}: checks in the replay after the syncs"
        );
    });
    assert!(
        reference.next().is_none(),
        "as many versions as the reference"
    );
}
