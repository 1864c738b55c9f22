//! End-to-end tests for the fleet daemon: real Unix-domain sockets,
//! real `HBFLEET1` frames, real tenants.
//!
//! The soundness tests mirror `core/tests/snapshot_tests.rs` one layer
//! up: a daemon that serves derivations from a *divergent* world (a
//! shadowing annotation, a missing subtype edge) must be harmless,
//! because every fetched entry still passes the adopting tenant's own
//! validation funnel. The robustness tests pin the containment story:
//! malformed frames, corrupt publishes, and hostile peers cost at most
//! one connection — never the tier, never another client.

use hb_fleetd::{DaemonConfig, FleetDaemon, FleetServer};
use hummingbird::fleet::wire;
use hummingbird::{
    CacheSnapshot, FleetClient, FleetError, FleetWatermark, Hummingbird, MethodKey, SharedCache,
};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

/// Same fixture as `snapshot_tests.rs`: both worlds load this file, so
/// entry ids, sig versions, and body fingerprints coincide and only the
/// validation funnel can tell the worlds apart.
const TALK_RB: &str = r#"
class Base
  type :m, "() -> Fixnum"
  def m
    1
  end
end
class Sub < Base
end
class Talk
  type :compute, "(Sub) -> Fixnum", { "check" => true }
  def compute(s)
    s.m
  end
end
"#;

/// The shadowing divergence: an annotation on `Sub` itself.
const SHADOWING_RB: &str = r#"
class Sub
  type :m, "() -> Fixnum"
end
"#;

/// `TALK_RB` with the `Sub < Base` edge severed. Definition order (and
/// hence every load-order counter) matches `TALK_RB`, so the publisher's
/// derivation *probes* successfully in this world — and must then be
/// rejected, because its witnesses resolved `m` through the edge this
/// world does not have.
const UNLINKED_RB: &str = r#"
class Base
  type :m, "() -> Fixnum"
  def m
    1
  end
end
class Sub
end
class Talk
  type :compute, "(Sub) -> Fixnum", { "check" => true }
  def compute(s)
    s.m
  end
end
"#;

/// Three independent checked families, for compaction tests.
const FARM_RB: &str = r#"
class Farm
  type :a, "() -> Fixnum", { "check" => true }
  def a
    1
  end
  type :b, "() -> Fixnum", { "check" => true }
  def b
    2
  end
  type :c, "() -> Fixnum", { "check" => true }
  def c
    3
  end
end
"#;

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hb-fleetd-{}-{tag}.sock", std::process::id()))
}

fn start_daemon(tag: &str, config: DaemonConfig) -> (Arc<FleetDaemon>, FleetServer, PathBuf) {
    let path = sock_path(tag);
    let (daemon, warning) = FleetDaemon::new(config);
    assert!(
        warning.is_none(),
        "unexpected recovery warning: {warning:?}"
    );
    let server = FleetServer::bind(daemon.clone(), &path).expect("bind");
    (daemon, server, path)
}

/// Runs `TALK_RB` on a local (non-fleet) tier and returns its snapshot
/// bytes — one checked derivation for `Talk#compute`.
fn clean_world_bytes() -> Vec<u8> {
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("talk.rb", TALK_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    assert!(publisher.stats().checks_performed >= 1);
    shared.snapshot().to_bytes()
}

/// The shadowing world of `snapshot_tests::eval_snapshot_world`, as
/// publishable bytes: the surviving derivation's witness resolves `m`
/// to `Sub#m`.
fn shadowing_world_bytes() -> Vec<u8> {
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("talk.rb", TALK_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    publisher.load_file("shadow.rb", SHADOWING_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    assert_eq!(publisher.stats().checks_performed, 2);
    shared.snapshot().to_bytes()
}

fn entry_keys(snapshot_bytes: &[u8]) -> Vec<MethodKey> {
    CacheSnapshot::from_bytes(snapshot_bytes)
        .expect("parse response snapshot")
        .entry_versions()
        .expect("entry versions")
        .into_iter()
        .map(|(key, _, _, _)| key)
        .collect()
}

// ---------------------------------------------------------------------
// Wire round trips against a live socket.
// ---------------------------------------------------------------------

#[test]
fn socket_round_trip_publish_fetch_stats_ping() {
    let (daemon, _server, path) = start_daemon("roundtrip", DaemonConfig::default());
    let mut client = FleetClient::connect(&path).expect("connect");
    client.ping().expect("ping");

    // Empty daemon: a full fetch carries zero entries at seq 0.
    let boot = client.fetch_full().expect("fetch empty");
    assert!(!boot.delta);
    assert_eq!(boot.seq, 0);
    assert_eq!(entry_keys(&boot.snapshot).len(), 0);

    // Publish the clean world, then fetch it back.
    let bytes = clean_world_bytes();
    let accepted = client.publish((1, 2, 3), &bytes).expect("publish");
    assert!(accepted >= 1, "publish accepted {accepted} entries");
    assert_eq!(daemon.cache().len() as u64, accepted);

    let full = client.fetch_full().expect("fetch full");
    assert!(!full.delta);
    assert_eq!(full.seq, 1, "one accepted publish batch");
    assert_eq!(full.epochs, (1, 2, 3));
    let keys = entry_keys(&full.snapshot);
    assert!(
        keys.contains(&MethodKey::instance("Talk", "compute")),
        "{keys:?}"
    );

    // Republication of identical content is deduplicated: no new
    // entries, no seq churn.
    assert_eq!(client.publish((1, 2, 3), &bytes).expect("republish"), 0);
    assert_eq!(client.fetch_full().expect("refetch").seq, 1);

    let stats = client.daemon_stats().expect("stats");
    assert_eq!(stats.entries, accepted);
    assert_eq!(stats.seq, 1);
    assert_eq!(stats.publishes, accepted);
    assert!(stats.fetches >= 3);
}

#[test]
fn delta_fetch_serves_only_entries_past_the_watermark() {
    let (_daemon, _server, path) = start_daemon("delta", DaemonConfig::default());
    let mut client = FleetClient::connect(&path).expect("connect");

    // Build three independent families locally; publish `a` first.
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("farm.rb", FARM_RB).unwrap();
    publisher.eval("Farm.new.a").unwrap();
    publisher.eval("Farm.new.b").unwrap();
    publisher.eval("Farm.new.c").unwrap();
    let key = |m: &str| MethodKey::instance("Farm", m);
    let only = |m: &str| shared.snapshot_filtered(|k| *k == key(m)).to_bytes();
    client.publish((1, 1, 1), &only("a")).expect("publish a");

    // Watermark after `a`; then `b` and `c` land.
    let full = client.fetch_full().expect("full");
    let watermark = FleetWatermark {
        seq: full.seq,
        epochs: full.epochs,
    };
    client.publish((1, 1, 2), &only("b")).expect("publish b");
    client.publish((1, 1, 3), &only("c")).expect("publish c");

    // The delta carries exactly the two new families — not `a`.
    let delta = client.fetch_delta(watermark).expect("delta");
    assert!(delta.delta, "honoured as a delta, not widened");
    let keys = entry_keys(&delta.snapshot);
    assert_eq!(keys.len(), 2, "{keys:?}");
    assert!(
        keys.contains(&key("b")) && keys.contains(&key("c")),
        "{keys:?}"
    );
    assert!(delta.tombstones.is_empty());

    // Steady state: a delta from the *current* watermark is empty.
    let now = FleetWatermark {
        seq: delta.seq,
        epochs: delta.epochs,
    };
    let quiet = client.fetch_delta(now).expect("quiet delta");
    assert!(quiet.delta);
    assert_eq!(entry_keys(&quiet.snapshot).len(), 0);

    // A watermark the daemon never issued widens to a full snapshot.
    let forged = FleetWatermark {
        seq: full.seq,
        epochs: (9, 9, 9),
    };
    let widened = client.fetch_delta(forged).expect("forged watermark");
    assert!(!widened.delta, "unrecognized watermark must widen to full");
    assert_eq!(entry_keys(&widened.snapshot).len(), 3);
}

#[test]
fn eviction_notices_tombstone_dependent_families_for_delta_clients() {
    let (daemon, _server, path) = start_daemon("evict", DaemonConfig::default());
    let mut publisher = FleetClient::connect(&path).expect("connect pub");
    publisher
        .publish((1, 2, 3), &clean_world_bytes())
        .expect("publish");

    let mut watcher = FleetClient::connect(&path).expect("connect watch");
    let full = watcher.fetch_full().expect("full");
    let watermark = FleetWatermark {
        seq: full.seq,
        epochs: full.epochs,
    };

    // `Talk#compute`'s derivation consulted `Base#m`'s signature, so an
    // eviction notice for `Base#m` must fan out to the dependent family
    // even though `Base#m` itself holds no entry.
    let dropped = publisher
        .evict(&[MethodKey::instance("Base", "m")])
        .expect("evict");
    assert_eq!(dropped, 1, "the dependent Talk#compute family");
    assert_eq!(daemon.cache().len(), 0);

    let delta = watcher.fetch_delta(watermark).expect("delta");
    assert!(delta.delta);
    assert_eq!(entry_keys(&delta.snapshot).len(), 0);
    assert_eq!(
        delta.tombstones,
        vec![MethodKey::instance("Talk", "compute")]
    );

    // A second eviction notice for the same key is a no-op: nothing
    // left to drop, no seq churn.
    assert_eq!(
        publisher
            .evict(&[MethodKey::instance("Base", "m")])
            .expect("re-evict"),
        0
    );
    assert_eq!(watcher.fetch_full().expect("refetch").seq, delta.seq);
}

// ---------------------------------------------------------------------
// Fleet-attached tenants (the embedded client path).
// ---------------------------------------------------------------------

#[test]
fn fleet_attached_tenant_publishes_and_a_fresh_tenant_boots_warm() {
    let (_daemon, _server, path) = start_daemon("warm", DaemonConfig::default());

    let mut publisher = Hummingbird::builder().fleet_socket(&path).build();
    assert!(publisher.fleet_attached(), "{:?}", publisher.fleet_error());
    publisher.load_file("talk.rb", TALK_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    let checks = publisher.stats().checks_performed;
    assert!(checks >= 1);
    let report = publisher.fleet_sync().expect("sync");
    assert_eq!(report.published as u64, checks, "every check published");

    // A fresh tenant in the identical world boots over the socket and
    // adopts everything: zero local `check_sig` runs.
    let mut adopter = Hummingbird::builder().fleet_socket(&path).build();
    assert!(adopter.fleet_attached(), "{:?}", adopter.fleet_error());
    adopter.load_file("talk.rb", TALK_RB).unwrap();
    adopter.eval("Talk.new.compute(Sub.new)").unwrap();
    let s = adopter.stats();
    assert_eq!(s.checks_performed, 0, "warm boot over the socket: {s:?}");
    assert_eq!(s.shared_hits, checks, "every first call adopted: {s:?}");
    assert!(s.fleet_fetches >= 1, "boot fetch counted: {s:?}");

    // Steady state: with nothing new on either side, the next sync is
    // an empty delta.
    let quiet = adopter.fleet_sync().expect("steady-state sync");
    assert!(quiet.delta, "honoured as a delta");
    assert_eq!(quiet.fetched_entries, 0, "{quiet:?}");
    assert_eq!(quiet.published, 0, "adoption is not republication");
    assert!(adopter.stats().fleet_deltas >= 1);
}

#[test]
fn sync_failure_detaches_the_session_and_tenant_degrades_to_local() {
    let (_daemon, server, path) = start_daemon("detach", DaemonConfig::default());
    let mut tenant = Hummingbird::builder().fleet_socket(&path).build();
    assert!(tenant.fleet_attached());
    drop(server); // daemon gone mid-flight

    tenant.load_file("talk.rb", TALK_RB).unwrap();
    tenant.eval("Talk.new.compute(Sub.new)").unwrap();
    assert!(tenant.fleet_sync().is_err(), "daemon is gone");
    assert!(!tenant.fleet_attached(), "session detached after failure");
    assert!(matches!(
        tenant.fleet_error(),
        Some(FleetError::Detached(_))
    ));

    // Detached is degraded, not broken: checking still works locally.
    assert_eq!(tenant.stats().checks_performed, 1);
    tenant.eval("Talk.new.compute(Sub.new)").unwrap();
}

#[test]
fn builder_with_unreachable_socket_comes_up_detached_not_dead() {
    let path = sock_path("nobody-home");
    let mut tenant = Hummingbird::builder().fleet_socket(&path).build();
    assert!(!tenant.fleet_attached());
    assert!(tenant.fleet_error().is_some());
    tenant.load_file("talk.rb", TALK_RB).unwrap();
    tenant.eval("Talk.new.compute(Sub.new)").unwrap();
    assert_eq!(tenant.stats().checks_performed, 1, "local checking intact");
}

// ---------------------------------------------------------------------
// Soundness: a divergent daemon cannot make a tenant unsound.
// ---------------------------------------------------------------------

#[test]
fn daemon_serving_a_shadowing_world_is_rejected_by_witness_replay() {
    let (_daemon, _server, path) = start_daemon("shadow", DaemonConfig::default());
    FleetClient::connect(&path)
        .expect("connect")
        .publish((7, 7, 7), &shadowing_world_bytes())
        .expect("publish divergent world");

    // The adopter's world has no shadowing annotation: the fetched
    // derivation probes successfully (same entry id, sig version, body
    // fingerprint) but its witness resolved `m` to `Sub#m`, so replay
    // rejects it and a sound local re-check runs instead.
    let shared = Arc::new(SharedCache::new());
    let mut adopter = Hummingbird::builder()
        .shared_cache(shared.clone())
        .fleet_socket(&path)
        .build();
    assert!(adopter.fleet_attached(), "{:?}", adopter.fleet_error());
    adopter.load_file("talk.rb", TALK_RB).unwrap();
    adopter.eval("Talk.new.compute(Sub.new)").unwrap();
    let s = adopter.stats();
    assert_eq!(
        s.shared_hits, 0,
        "nothing from the shadowing daemon adopted: {s:?}"
    );
    assert!(s.checks_performed >= 1, "re-checked locally: {s:?}");
    assert!(
        shared.stats().hits >= 1,
        "sanity: the probe reached the fetched entry — rejection happened \
         at witness replay, not at lookup: {:?}",
        shared.stats()
    );
}

#[test]
fn daemon_serving_a_world_with_an_extra_subtype_edge_is_rejected() {
    // Publisher's world: `Sub < Base`, so `Talk#compute`'s witness
    // resolves `s.m` through the edge to `Base#m`.
    let (_daemon, _server, path) = start_daemon("unlinked", DaemonConfig::default());
    FleetClient::connect(&path)
        .expect("connect")
        .publish((4, 4, 4), &clean_world_bytes())
        .expect("publish linked world");

    // Adopter's world lacks the edge. Load-order counters still line up
    // (UNLINKED_RB defines the same names in the same order), so the
    // fetched derivation probes successfully — and must be rejected:
    // its witness chain is unsatisfiable here. The local re-check then
    // correctly *fails* (`Sub` has no `m` at all), which is exactly the
    // blame adoption would have suppressed.
    let shared = Arc::new(SharedCache::new());
    let mut adopter = Hummingbird::builder()
        .shared_cache(shared.clone())
        .fleet_socket(&path)
        .build();
    assert!(adopter.fleet_attached(), "{:?}", adopter.fleet_error());
    adopter.load_file("talk.rb", UNLINKED_RB).unwrap();
    let result = adopter.eval("Talk.new.compute(Sub.new)");
    assert!(
        result.is_err(),
        "the missing-edge world must blame, not silently adopt the \
         linked world's derivation: {result:?}"
    );
    let s = adopter.stats();
    assert_eq!(
        s.shared_hits, 0,
        "no adoption across the missing edge: {s:?}"
    );
    assert!(
        s.checks_failed >= 1,
        "re-checked locally, and blamed: {s:?}"
    );
}

// ---------------------------------------------------------------------
// Containment: malformed frames, corrupt publishes, hostile peers.
// ---------------------------------------------------------------------

#[test]
fn corrupt_publish_is_refused_and_the_tier_is_untouched() {
    let (daemon, _server, path) = start_daemon("corrupt-pub", DaemonConfig::default());
    let mut client = FleetClient::connect(&path).expect("connect");
    let bytes = clean_world_bytes();
    client.publish((1, 1, 1), &bytes).expect("seed");
    let len_before = daemon.cache().len();
    let seq_before = client.fetch_full().expect("full").seq;

    // Garbage bytes, a truncated artifact, and a bit-flipped artifact
    // (checksum failure) all get a typed refusal on a surviving
    // connection.
    for mutant in [
        b"not a snapshot at all".to_vec(),
        bytes[..bytes.len() / 2].to_vec(),
        {
            let mut flipped = bytes.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x40;
            flipped
        },
    ] {
        let err = client.publish((2, 2, 2), &mutant).expect_err("must refuse");
        assert!(matches!(err, FleetError::Daemon(_)), "typed refusal: {err}");
    }
    assert_eq!(daemon.cache().len(), len_before, "tier untouched");
    let full = client.fetch_full().expect("connection survived");
    assert_eq!(full.seq, seq_before, "no seq churn from refused publishes");
}

#[test]
fn malformed_frames_cost_one_connection_never_the_daemon() {
    let (daemon, _server, path) = start_daemon("malformed", DaemonConfig::default());
    let mut bystander = FleetClient::connect(&path).expect("bystander");
    bystander
        .publish((1, 1, 1), &clean_world_bytes())
        .expect("seed");
    let len_before = daemon.cache().len();

    // 1. Wrong magic: closed without a reply.
    let mut imposter = UnixStream::connect(&path).expect("connect raw");
    imposter.write_all(b"NOTFLEET").unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(imposter.read(&mut buf).unwrap_or(0), 0, "silent close");

    // 2. Oversized length prefix: one RESP_ERR, then close (the stream
    //    cannot be resynchronized).
    let mut oversized = UnixStream::connect(&path).expect("connect raw");
    oversized.write_all(wire::MAGIC).unwrap();
    oversized.read_exact(&mut buf).expect("handshake echo");
    oversized.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let (op, body) = wire::read_frame(&mut oversized).expect("error frame");
    assert_eq!(op, wire::RESP_ERR);
    assert!(
        String::from_utf8_lossy(&body).contains("64 MiB"),
        "{body:?}"
    );
    assert_eq!(oversized.read(&mut buf).unwrap_or(0), 0, "then closed");

    // 3. Zero-length frame: same fate.
    let mut empty = UnixStream::connect(&path).expect("connect raw");
    empty.write_all(wire::MAGIC).unwrap();
    empty.read_exact(&mut buf).expect("handshake echo");
    empty.write_all(&0u32.to_le_bytes()).unwrap();
    let (op, _) = wire::read_frame(&mut empty).expect("error frame");
    assert_eq!(op, wire::RESP_ERR);
    assert_eq!(empty.read(&mut buf).unwrap_or(0), 0, "then closed");

    // 4. Well-framed request with a truncated payload: typed refusal,
    //    connection SURVIVES (the frame boundary held).
    let mut truncated = UnixStream::connect(&path).expect("connect raw");
    truncated.write_all(wire::MAGIC).unwrap();
    truncated.read_exact(&mut buf).expect("handshake echo");
    wire::write_frame(&mut truncated, wire::FETCH_DELTA, &[0u8; 4]).unwrap();
    let (op, _) = wire::read_frame(&mut truncated).expect("error frame");
    assert_eq!(op, wire::RESP_ERR);
    wire::write_frame(&mut truncated, wire::PING, &[]).unwrap();
    let (op, _) = wire::read_frame(&mut truncated).expect("ping after refusal");
    assert_eq!(op, wire::RESP_ACK, "connection kept serving");

    // 5. A response opcode sent as a request: refused, survives.
    let mut confused = UnixStream::connect(&path).expect("connect raw");
    confused.write_all(wire::MAGIC).unwrap();
    confused.read_exact(&mut buf).expect("handshake echo");
    wire::write_frame(&mut confused, wire::RESP_SNAPSHOT, &[]).unwrap();
    let (op, _) = wire::read_frame(&mut confused).expect("error frame");
    assert_eq!(op, wire::RESP_ERR);

    // Through all of it: the tier is intact and the bystander's
    // connection never noticed.
    assert_eq!(daemon.cache().len(), len_before);
    bystander.ping().expect("bystander unaffected");
    let full = bystander.fetch_full().expect("bystander still fetches");
    assert_eq!(entry_keys(&full.snapshot).len(), len_before);
}

// ---------------------------------------------------------------------
// Maintenance: writeback, crash recovery, compaction.
// ---------------------------------------------------------------------

#[test]
fn writeback_then_crash_recovery_serves_the_same_tier() {
    let file =
        std::env::temp_dir().join(format!("hb-fleetd-{}-recovery.hbsnap", std::process::id()));
    let _ = std::fs::remove_file(&file);
    let config = DaemonConfig {
        snapshot_path: Some(file.clone()),
        max_entries: 0,
    };

    let (daemon, server, path) = start_daemon("recovery", config.clone());
    let mut client = FleetClient::connect(&path).expect("connect");
    client
        .publish((1, 2, 3), &clean_world_bytes())
        .expect("publish");
    let len_before = daemon.cache().len();
    assert!(len_before >= 1);
    let (_, wrote) = daemon.maintain();
    assert!(wrote, "writeback ran");
    drop(client);
    drop(server); // "crash"

    // Recovery is "load file, serve fleet".
    let (revived, warning) = FleetDaemon::new(config);
    assert!(warning.is_none(), "{warning:?}");
    assert_eq!(revived.cache().len(), len_before, "tier recovered");
    let server = FleetServer::bind(revived, &sock_path("recovery2")).expect("rebind");
    let mut client = FleetClient::connect(&sock_path("recovery2")).expect("reconnect");
    let full = client.fetch_full().expect("fetch recovered tier");
    assert!(entry_keys(&full.snapshot).contains(&MethodKey::instance("Talk", "compute")));
    drop(server);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn corrupt_boot_snapshot_yields_a_warning_and_an_empty_serving_daemon() {
    let file = std::env::temp_dir().join(format!(
        "hb-fleetd-{}-corrupt-boot.hbsnap",
        std::process::id()
    ));
    std::fs::write(&file, b"HBGARBAGE plus assorted noise").unwrap();
    let (daemon, warning) = FleetDaemon::new(DaemonConfig {
        snapshot_path: Some(file.clone()),
        max_entries: 0,
    });
    assert!(warning.is_some(), "corruption reported");
    assert_eq!(daemon.cache().len(), 0, "comes up empty, not down");
    // And it still serves: the daemon is usable without the file.
    assert_eq!(daemon.fetch_full().seq, 0);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn writeback_folds_the_tombstone_log_so_stale_deltas_widen_to_full() {
    let file = std::env::temp_dir().join(format!("hb-fleetd-{}-fold.hbsnap", std::process::id()));
    let _ = std::fs::remove_file(&file);
    let (daemon, _server, path) = start_daemon(
        "fold",
        DaemonConfig {
            snapshot_path: Some(file.clone()),
            max_entries: 0,
        },
    );
    let mut client = FleetClient::connect(&path).expect("connect");
    client
        .publish((1, 1, 1), &clean_world_bytes())
        .expect("publish");
    let full = client.fetch_full().expect("full");
    let stale = FleetWatermark {
        seq: full.seq,
        epochs: full.epochs,
    };

    // Evict (tombstone at seq 2), then write back: the file is a full
    // image, so the tombstone folds into it and the pre-eviction
    // watermark can no longer have its suffix enumerated.
    client
        .evict(&[MethodKey::instance("Base", "m")])
        .expect("evict");
    daemon.maintain();
    let widened = client.fetch_delta(stale).expect("stale delta");
    assert!(
        !widened.delta,
        "folded tombstones force a full snapshot, never a wrong delta"
    );
    let _ = std::fs::remove_file(&file);
}

#[test]
fn compaction_evicts_least_recently_adopted_families_down_to_the_cap() {
    let (daemon, _server, path) = start_daemon(
        "compact",
        DaemonConfig {
            snapshot_path: None,
            max_entries: 1,
        },
    );
    let mut client = FleetClient::connect(&path).expect("connect");

    // Publish `a`, then `b`, then `c` as separate batches so their
    // adoption clocks are ordered.
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("farm.rb", FARM_RB).unwrap();
    publisher.eval("Farm.new.a").unwrap();
    publisher.eval("Farm.new.b").unwrap();
    publisher.eval("Farm.new.c").unwrap();
    let key = |m: &str| MethodKey::instance("Farm", m);
    for m in ["a", "b", "c"] {
        let bytes = shared.snapshot_filtered(|k| *k == key(m)).to_bytes();
        assert_eq!(client.publish((1, 1, 1), &bytes).expect("publish"), 1);
    }
    assert_eq!(daemon.cache().len(), 3);

    let (compacted, _) = daemon.maintain();
    assert_eq!(compacted, 2, "two families evicted to reach the cap");
    assert_eq!(daemon.cache().len(), 1);
    let survivors = entry_keys(&client.fetch_full().expect("full").snapshot);
    assert_eq!(survivors, vec![key("c")], "LRU: the newest family survives");

    // Compaction is a capacity decision, not a world change: no
    // tombstones are minted for delta clients.
    assert!(client
        .fetch_delta(FleetWatermark {
            seq: 3,
            epochs: (1, 1, 1)
        })
        .expect("delta")
        .tombstones
        .is_empty());
}

#[test]
fn stats_v2_serves_parseable_prometheus_text_over_the_socket() {
    let (_daemon, _server, path) = start_daemon("statsv2", DaemonConfig::default());
    let mut client = FleetClient::connect(&path).expect("connect");
    client
        .publish((1, 2, 3), &clean_world_bytes())
        .expect("publish");
    client.fetch_full().expect("fetch");

    let text = client.daemon_stats_v2().expect("stats v2");
    for needle in [
        "# TYPE hb_fleetd_requests_total counter",
        "# TYPE hb_fleetd_request_ns histogram",
        "hb_fleetd_request_ns_count",
        "hb_fleetd_entries",
        "hb_fleetd_fetches 1",
        "hb_fleetd_publishes",
    ] {
        assert!(text.contains(needle), "STATS_V2 carries {needle}:\n{text}");
    }
    // Every non-comment line is `series value` with a numeric value.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, v) = line.rsplit_once(' ').expect("series value");
        v.parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric value in line: {line:?}"));
    }
    // The typed counters parse back out of the same text.
    let stats = client.daemon_stats().expect("stats");
    assert!(
        text.contains(&format!("hb_fleetd_seq {}", stats.seq)),
        "text and typed stats diverge on seq:\n{text}"
    );
}
