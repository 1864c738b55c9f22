//! Warm boots in a fresh process: a child process, with its own interner
//! and source maps and nothing shared with the writer but a file or a
//! socket, boots the six subject apps from a snapshot file or over an
//! in-process `hb-fleetd`.
//!
//! The test binary is its own child: a parent test re-runs it on exactly
//! one child test (`--exact`) with the child's input path in the
//! environment. A child test does nothing when that path is unset, so it
//! passes trivially in an ordinary `cargo test` run.

use hb_apps::{run_tenant, run_tenant_fleet, run_tenant_from_snapshot};
use hb_fleetd::{DaemonConfig, FleetDaemon, FleetServer};
use hummingbird::{
    CacheSnapshot, FleetClient, FleetWatermark, Hummingbird, MethodKey, SharedCache,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// The snapshot file [`child_boots_from_a_snapshot_file`] loads.
const SNAPSHOT_ENV: &str = "HB_TEST_CHILD_SNAPSHOT";
/// The socket [`child_boots_over_the_fleet_socket`] attaches to.
const FLEET_ENV: &str = "HB_TEST_CHILD_FLEET_SOCKET";

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hb-bench-{}-{tag}", std::process::id()))
}

/// Re-runs this test binary on the single test `name`, with `env` set
/// to `path`, and fails unless that test ran and passed: a mistyped name
/// would run nothing and still exit 0.
fn run_child(name: &str, env: &str, path: &Path) {
    let out = Command::new(std::env::current_exe().expect("current_exe"))
        .args(["--exact", name])
        .env(env, path)
        .output()
        .expect("spawn child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("test result: ok. 1 passed"),
        "child {name} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn child_boots_from_a_snapshot_file() {
    let Some(path) = std::env::var_os(SNAPSHOT_ENV) else {
        return;
    };
    let bytes = std::fs::read(&path).expect("read snapshot");
    let snapshot = CacheSnapshot::from_bytes(&bytes).expect("parse snapshot");
    let run = run_tenant_from_snapshot(0, &snapshot, 1);
    let rate = run.warm_hit_rate();
    assert!(
        rate >= 0.9,
        "boot-from-snapshot resolves >= 90% of first calls by adoption \
         (got {rate:.3}: {run:?})"
    );
}

#[test]
fn a_fresh_process_boots_warm_from_a_snapshot_file() {
    let shared = Arc::new(SharedCache::new());
    run_tenant(0, &shared, 1);
    let path = temp_path("warm-boot.hbsnap");
    std::fs::write(&path, shared.snapshot().to_bytes()).expect("write snapshot");
    run_child("child_boots_from_a_snapshot_file", SNAPSHOT_ENV, &path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn child_boots_over_the_fleet_socket() {
    let Some(socket) = std::env::var_os(FLEET_ENV) else {
        return;
    };
    let (run, report) = run_tenant_fleet(0, Path::new(&socket), 1);
    report.expect("the fleet-booted tenant stays attached through its sync");
    assert_eq!(
        run.checks_performed, 0,
        "a daemon warm boot runs no check_sig: {run:?}"
    );
    assert_eq!(
        run.warm_hit_rate(),
        1.0,
        "a daemon warm boot adopts every first call: {run:?}"
    );
}

/// The two-method fixture for the redefinition delta: after `Pair#right`
/// is redefined, only its derivation travels; `Pair#left` stays put.
const PAIR_RB: &str = r#"
class Pair
  type :left, "() -> Fixnum", { "check" => true }
  def left
    1
  end
  type :right, "() -> Fixnum", { "check" => true }
  def right
    2
  end
end
"#;

const PAIR_REDEF_RB: &str = r#"
class Pair
  def right
    3
  end
end
"#;

fn entry_keys(snapshot_bytes: &[u8]) -> Vec<MethodKey> {
    CacheSnapshot::from_bytes(snapshot_bytes)
        .expect("parse fetched snapshot")
        .entry_versions()
        .expect("entry versions")
        .into_iter()
        .map(|(key, _, _, _)| key)
        .collect()
}

#[test]
fn a_fresh_process_boots_over_hb_fleetd_and_deltas_carry_only_changes() {
    let socket = temp_path("fleet.sock");
    let (daemon, warning) = FleetDaemon::new(DaemonConfig::default());
    assert!(warning.is_none(), "{warning:?}");
    let _server = FleetServer::bind(daemon.clone(), &socket).expect("bind fleet socket");

    // One cold fleet-attached tenant warms the daemon.
    let (_, cold) = run_tenant_fleet(0, &socket, 1);
    let cold = cold.expect("the cold tenant stays attached");
    assert!(
        cold.published >= 1,
        "the cold tenant publishes its check storm: {cold:?}"
    );
    assert!(!daemon.cache().is_empty());

    run_child("child_boots_over_the_fleet_socket", FLEET_ENV, &socket);

    // The fleet is quiet, so a delta from the current watermark is empty.
    let mut client = FleetClient::connect(&socket).expect("connect");
    let full = client.fetch_full().expect("full fetch");
    let quiet = client
        .fetch_delta(FleetWatermark {
            seq: full.seq,
            epochs: full.epochs,
        })
        .expect("steady-state delta");
    assert!(quiet.delta, "current watermark honoured as a delta");
    assert_eq!(
        entry_keys(&quiet.snapshot).len(),
        0,
        "steady-state delta transfers zero entries"
    );

    // Publish a two-method world, then redefine one method.
    let mut publisher = Hummingbird::builder().fleet_socket(&socket).build();
    assert!(publisher.fleet_attached(), "{:?}", publisher.fleet_error());
    publisher.load_file("pair.rb", PAIR_RB).unwrap();
    publisher.eval("p = Pair.new\np.left\np.right").unwrap();
    let seeded = publisher.fleet_sync().expect("publish Pair world");
    assert!(
        seeded.published >= 2,
        "both Pair methods published: {seeded:?}"
    );
    let before = client.fetch_full().expect("pre-redefinition watermark");
    let tier_entries = entry_keys(&before.snapshot).len();
    publisher.load_file("pair_v2.rb", PAIR_REDEF_RB).unwrap();
    publisher.eval("Pair.new.right").unwrap();
    publisher
        .fleet_sync()
        .expect("publish redefined derivation");

    let delta = client
        .fetch_delta(FleetWatermark {
            seq: before.seq,
            epochs: before.epochs,
        })
        .expect("post-redefinition delta");
    assert!(delta.delta, "watermark honoured as a delta");
    let keys = entry_keys(&delta.snapshot);
    assert!(
        keys.contains(&MethodKey::instance("Pair", "right")),
        "the redefined method's new derivation travels: {keys:?}"
    );
    assert!(
        !keys.contains(&MethodKey::instance("Pair", "left")),
        "the untouched sibling does not travel: {keys:?}"
    );
    assert!(
        keys.len() < tier_entries,
        "the delta ({} entries) carries only the affected derivations, \
         not the {tier_entries}-entry tier",
        keys.len()
    );
}
