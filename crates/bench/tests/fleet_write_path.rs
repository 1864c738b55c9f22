//! The fleet write path: a Talks writer attached to an in-process
//! `hb-fleetd` runs the Table 2 update sequence and syncs after every
//! version. A sync only adds candidates to the writer's shared tier, so
//! the writer does exactly the work a fleet-free one does: the same
//! checks, the same Definition 1 dependents invalidated, and one
//! publication per check. Its own publications coming back in the next
//! delta retire nothing. The writer's world also holds the formatter
//! annotations, so its derivations of the Talks methods are variants of
//! a plain tenant's: one daemon keeps both, and every tier stays
//! bounded by the family cap however long the writer runs.

use hb_apps::talks_history::{
    run_update_experiment, run_update_experiment_with, run_update_requests, update_versions,
};
use hb_apps::{build_app_with, run_workload, talks};
use hb_fleetd::{DaemonConfig, FleetDaemon, FleetServer};
use hummingbird::shared_cache::FAMILY_CAP;
use hummingbird::{Hummingbird, SharedCache};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh in-process daemon on a per-test socket.
fn start_daemon(tag: &str) -> (Arc<FleetDaemon>, FleetServer, PathBuf) {
    let socket = std::env::temp_dir().join(format!("hb-bench-{}-{tag}.sock", std::process::id()));
    let (daemon, warning) = FleetDaemon::new(DaemonConfig::default());
    assert!(warning.is_none(), "{warning:?}");
    let server = FleetServer::bind(daemon.clone(), &socket).expect("bind fleet socket");
    (daemon, server, socket)
}

#[test]
fn a_fleet_attached_writer_does_the_fleet_free_work_at_every_version() {
    let mut reference = run_update_experiment().into_iter();

    let (_daemon, _server, socket) = start_daemon("write");

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

#[test]
fn one_daemon_serves_the_writer_and_plain_tenants() {
    let (_daemon, _server, socket) = start_daemon("mixed");
    let spec = talks();
    let plain_tenant = || {
        let mut hb = build_app_with(&spec, Hummingbird::builder().fleet_socket(&socket));
        assert!(hb.fleet_attached(), "{:?}", hb.fleet_error());
        run_workload(&spec, &mut hb, 1);
        hb
    };

    let mut cold = plain_tenant();
    let cold_checks = cold.stats().checks_performed;
    assert!(cold_checks > 0);
    cold.fleet_sync().expect("cold sync");

    // The writer's world also defines `TalkFormatter`, so none of its
    // derivations holds in a plain tenant's world, and it publishes its
    // own variant of every Talks method it checks.
    run_update_experiment_with(Hummingbird::builder().fleet_socket(&socket), |hb, _| {
        hb.fleet_sync().expect("writer sync");
    });

    let s = plain_tenant().stats();
    assert_eq!(s.checks_performed, 0, "{s:?}");
    assert_eq!(s.shared_hits, cold_checks, "{s:?}");
}

/// The distinct methods a tier holds derivations for.
fn distinct_keys(tier: &SharedCache) -> usize {
    let versions = tier.snapshot().entry_versions().expect("entry versions");
    let keys: HashSet<_> = versions.into_iter().map(|(key, ..)| key).collect();
    keys.len()
}

#[test]
fn every_tier_stays_bounded_over_a_hundred_update_cycles() {
    const CYCLES: usize = 100;
    let (daemon, _server, socket) = start_daemon("bounded");
    let versions = update_versions();
    let mut cycles = 1;
    run_update_experiment_with(Hummingbird::builder().fleet_socket(&socket), |hb, row| {
        hb.fleet_sync().expect("sync");
        if row.version != "v6" {
            return;
        }
        // The first cycle was the experiment itself; reload v0..v6 again.
        while cycles < CYCLES {
            for (_, src) in &versions {
                hb.eval("talks_seed").expect("reseed");
                hb.reload_file("talks/updates/formatter.rb", src)
                    .expect("reload applies");
                run_update_requests(hb);
                hb.fleet_sync().expect("sync");
            }
            cycles += 1;
        }
        let writer = hb
            .engine
            .shared_cache()
            .expect("fleet implies a shared tier");
        assert!(
            writer.len() <= distinct_keys(&writer) * FAMILY_CAP,
            "writer: {} derivations for {} methods",
            writer.len(),
            distinct_keys(&writer)
        );
        assert!(writer.stats().evictions > 0, "the family cap was exercised");
    });
    assert_eq!(cycles, CYCLES);
    let entries = daemon.stats().entries as usize;
    let daemon_keys = distinct_keys(daemon.cache());
    assert!(
        entries <= daemon_keys * FAMILY_CAP,
        "daemon: {entries} derivations for {daemon_keys} methods"
    );
    assert!(
        daemon.stats().evictions > 0,
        "the daemon's cap was exercised"
    );
}
