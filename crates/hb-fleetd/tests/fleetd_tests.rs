//! End-to-end tests for the fleet daemon: real Unix-domain sockets,
//! real `HBFLEET2` frames, real tenants.
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
use hummingbird::obs::stat_fields;
use hummingbird::{
    CacheSnapshot, FleetClient, FleetError, FleetWatermark, Hummingbird, MethodKey, ObsLevel,
    SharedCache,
};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// publishable bytes: the one derivation's witness resolves `m` to
/// `Sub#m`. The shadowing annotation loads after `talk.rb`, so the
/// version key matches the clean world's.
fn shadowing_world_bytes() -> Vec<u8> {
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("talk.rb", TALK_RB).unwrap();
    publisher.load_file("shadow.rb", SHADOWING_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    assert_eq!(publisher.stats().checks_performed, 1);
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
fn a_writer_adopts_another_tenants_derivation_of_its_own_redefinition() {
    let (_daemon, _server, path) = start_daemon("no-sharing-lost", DaemonConfig::default());
    // Two tenants, each with its own shared tier, boot the same world.
    let boot = || {
        let mut hb = Hummingbird::builder().fleet_socket(&path).build();
        assert!(hb.fleet_attached(), "{:?}", hb.fleet_error());
        hb.load_file("farm.rb", FARM_RB).unwrap();
        hb.eval("Farm.new.a").unwrap();
        hb.fleet_sync().expect("boot sync");
        hb
    };
    let mut writer = boot();
    let mut other = boot();
    const REDEFINED_A: &str = "class Farm\n  def a\n    10\n  end\nend\n";

    // The writer redefines `Farm#a` and syncs without calling it: it
    // holds no derivation of the new body.
    writer.load_file("farm_a.rb", REDEFINED_A).unwrap();
    writer.fleet_sync().expect("writer sync");

    // The other tenant loads the same redefinition, derives it and
    // publishes.
    other.load_file("farm_a.rb", REDEFINED_A).unwrap();
    other.eval("Farm.new.a").unwrap();
    assert!(
        other.fleet_sync().expect("other sync").published >= 1,
        "the new derivation is published"
    );

    // The writer's next sync fetches it, and the writer's first call of
    // the new body adopts it instead of checking.
    writer.fleet_sync().expect("writer fetch");
    let before = writer.stats();
    writer.eval("Farm.new.a").unwrap();
    let after = writer.stats();
    assert_eq!(after.shared_hits, before.shared_hits + 1, "{after:?}");
    assert_eq!(after.checks_performed, before.checks_performed, "{after:?}");
}

#[test]
fn a_session_publishes_what_enters_its_tier_after_it_attaches() {
    let (_daemon, _server, path) = start_daemon("entered", DaemonConfig::default());
    let shared = Arc::new(SharedCache::new());
    let mut before = Hummingbird::builder().shared_cache(shared.clone()).build();
    before.load_file("talk.rb", TALK_RB).unwrap();
    before.eval("Talk.new.compute(Sub.new)").unwrap();
    assert_eq!(shared.len(), 1, "Talk#compute is in the tier");

    let mut session = Hummingbird::builder()
        .shared_cache(shared.clone())
        .fleet_socket(&path)
        .build();
    assert!(session.fleet_attached(), "{:?}", session.fleet_error());
    let first = session.fleet_sync().expect("first sync");
    assert_eq!(first.published, 0, "what the tier held at attach stays");

    // Another engine on the same tier lands a derivation; the session
    // publishes it at its next sync.
    let mut other = Hummingbird::builder().shared_cache(shared.clone()).build();
    other.load_file("farm.rb", FARM_RB).unwrap();
    other.eval("Farm.new.a").unwrap();
    assert_eq!(session.fleet_sync().expect("sync").published, 1);
    assert_eq!(
        session.fleet_sync().expect("quiet sync").published,
        0,
        "nothing new"
    );

    let daemon_tier = FleetClient::connect(&path)
        .expect("connect")
        .fetch_full()
        .expect("fetch");
    assert_eq!(
        entry_keys(&daemon_tier.snapshot),
        vec![MethodKey::instance("Farm", "a")]
    );
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

#[test]
fn a_fleet_attached_build_counts_its_boot_fetch_and_nothing_else() {
    let (_daemon, _server, path) = start_daemon("boot-stats", DaemonConfig::default());
    FleetClient::connect(&path)
        .expect("connect")
        .publish((7, 7, 7), &clean_world_bytes())
        .expect("publish");
    for level in [ObsLevel::Off, ObsLevel::Metrics] {
        let hb = Hummingbird::builder()
            .fleet_socket(&path)
            .observability(level)
            .build();
        assert!(hb.fleet_attached(), "{:?}", hb.fleet_error());
        for (name, value) in stat_fields(&hb.stats()) {
            let expected = u64::from(name == "fleet_fetches");
            assert_eq!(value, expected, "{level:?}: {name}");
        }
        match hb.engine.obs() {
            Some(obs) => assert_eq!(obs.fleet_fetch.count(), 1, "one boot-fetch sample"),
            None => assert_eq!(level, ObsLevel::Off),
        }
    }
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

#[test]
fn a_daemon_holding_both_worlds_variants_serves_each_world_its_own() {
    let (daemon, _server, path) = start_daemon("variants", DaemonConfig::default());
    let mut client = FleetClient::connect(&path).expect("connect");
    assert_eq!(
        client
            .publish((1, 1, 1), &clean_world_bytes())
            .expect("clean"),
        1
    );
    assert_eq!(
        client
            .publish((2, 2, 2), &shadowing_world_bytes())
            .expect("shadowing"),
        1,
        "the shadowing variant shares the clean one's version key and is kept"
    );
    assert_eq!(daemon.cache().len(), 2, "one family, two variants");

    // Each world boots over the socket and adopts its own variant.
    for (world, files) in [
        ("clean", &[("talk.rb", TALK_RB)][..]),
        (
            "shadowing",
            &[("talk.rb", TALK_RB), ("shadow.rb", SHADOWING_RB)],
        ),
    ] {
        let mut adopter = Hummingbird::builder().fleet_socket(&path).build();
        assert!(adopter.fleet_attached(), "{:?}", adopter.fleet_error());
        for (name, src) in files {
            adopter.load_file(name, src).unwrap();
        }
        adopter.eval("Talk.new.compute(Sub.new)").unwrap();
        let s = adopter.stats();
        assert_eq!(s.checks_performed, 0, "{world}: {s:?}");
        assert_eq!(s.shared_hits, 1, "{world}: {s:?}");
    }
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

    // 5. A response opcode sent as a request, and the retired eviction
    //    notice `0x04`: refused, and the connection survives.
    let mut confused = UnixStream::connect(&path).expect("connect raw");
    confused.write_all(wire::MAGIC).unwrap();
    confused.read_exact(&mut buf).expect("handshake echo");
    for opcode in [wire::RESP_SNAPSHOT, 0x04] {
        wire::write_frame(&mut confused, opcode, &[]).unwrap();
        let (op, _) = wire::read_frame(&mut confused).expect("error frame");
        assert_eq!(op, wire::RESP_ERR, "opcode {opcode:#04x}");
        wire::write_frame(&mut confused, wire::PING, &[]).unwrap();
        let (op, _) = wire::read_frame(&mut confused).expect("ping after refusal");
        assert_eq!(op, wire::RESP_ACK, "connection kept serving");
    }

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

    // Compaction is a capacity decision, not a world change: the seq
    // does not move, so a delta from the last watermark is honoured and
    // empty.
    let delta = client
        .fetch_delta(FleetWatermark {
            seq: 3,
            epochs: (1, 1, 1),
        })
        .expect("delta");
    assert!(delta.delta);
    assert_eq!(delta.seq, 3);
    assert!(entry_keys(&delta.snapshot).is_empty());
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

// ---------------------------------------------------------------------
// Connections: no timer between connect and reply, shutdown cuts every
// blocked thread, teardown never hangs.
// ---------------------------------------------------------------------

/// A raw client past the magic handshake. Its reads time out, so a
/// connection shutdown failed to cut fails the test instead of hanging
/// it.
fn raw_client(path: &std::path::Path) -> UnixStream {
    let mut stream = UnixStream::connect(path).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(wire::MAGIC).unwrap();
    let mut echo = [0u8; 8];
    stream.read_exact(&mut echo).expect("handshake echo");
    assert_eq!(&echo, wire::MAGIC);
    stream
}

/// A second name for the server's socket file, so the listener can be
/// probed after teardown removes the first.
fn socket_link(path: &std::path::Path) -> PathBuf {
    let link = path.with_extension("link");
    let _ = std::fs::remove_file(&link);
    std::fs::hard_link(path, &link).expect("link socket file");
    link
}

/// True when nothing listens behind `link` any more: the accept thread
/// was woken and exited, closing the listener, rather than detached.
fn listener_closed(link: &std::path::Path) -> bool {
    let refused = UnixStream::connect(link).is_err();
    let _ = std::fs::remove_file(link);
    refused
}

/// `(accepted, closed)` from the daemon's connection counters.
fn connection_counts(daemon: &FleetDaemon) -> (u64, u64) {
    let text = daemon.metrics_prometheus();
    let series = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
    };
    (
        series("hb_fleetd_connections_total"),
        series("hb_fleetd_connections_closed_total"),
    )
}

/// Waits (at most 5 s) for connection threads to finish closing.
fn wait_until_all_closed(daemon: &FleetDaemon) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (accepted, closed) = connection_counts(daemon);
        if accepted == closed {
            return (accepted, closed);
        }
        assert!(
            Instant::now() < deadline,
            "{} connections still open",
            accepted - closed
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn back_to_back_connects_are_answered_without_waiting_on_a_timer() {
    let (_daemon, _server, path) = start_daemon("back-to-back", DaemonConfig::default());
    let t = Instant::now();
    for _ in 0..20 {
        FleetClient::connect(&path)
            .expect("connect")
            .ping()
            .expect("ping");
    }
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 connect + ping cycles took {elapsed:?}"
    );
}

#[test]
fn dropping_the_server_cuts_idle_and_mid_frame_clients() {
    let (_daemon, server, path) = start_daemon("cut", DaemonConfig::default());
    let mut idle = raw_client(&path);
    let mut mid_frame = raw_client(&path);
    mid_frame.write_all(&16u32.to_le_bytes()).unwrap();
    let link = socket_link(&path);

    let t = Instant::now();
    drop(server);
    let elapsed = t.elapsed();
    assert!(elapsed < Duration::from_secs(1), "drop took {elapsed:?}");
    assert!(listener_closed(&link), "the accept thread exited");

    let mut buf = [0u8; 8];
    assert_eq!(idle.read(&mut buf).expect("idle read"), 0, "idle: EOF");
    assert_eq!(
        mid_frame.read(&mut buf).expect("mid-frame read"),
        0,
        "mid-frame: EOF"
    );
}

#[test]
fn shutdown_request_makes_join_return() {
    let (daemon, server, path) = start_daemon("join", DaemonConfig::default());
    let (joined, join_returned) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        joined.send(()).unwrap();
    });
    let mut client = FleetClient::connect(&path).expect("connect");
    let link = socket_link(&path);
    client.shutdown().expect("shutdown acked");
    join_returned
        .recv_timeout(Duration::from_secs(1))
        .expect("join returned within 1 s of SHUTDOWN");
    joiner.join().unwrap();
    assert!(daemon.shutdown_requested());
    assert!(!path.exists(), "socket file removed");
    assert!(listener_closed(&link), "the accept thread exited");
    assert!(
        matches!(client.ping(), Err(FleetError::Io(_))),
        "the requesting connection is closed after its ack"
    );
}

#[test]
fn drop_returns_when_the_socket_file_was_deleted() {
    let (_daemon, server, path) = start_daemon("deleted", DaemonConfig::default());
    std::fs::remove_file(&path).unwrap();
    let t = Instant::now();
    drop(server);
    let elapsed = t.elapsed();
    assert!(elapsed < Duration::from_secs(1), "drop took {elapsed:?}");
}

#[test]
fn drop_returns_when_the_path_was_rebound_and_leaves_the_new_server_serving() {
    let (_first_daemon, first, path) = start_daemon("rebound", DaemonConfig::default());
    let (second_daemon, _) = FleetDaemon::new(DaemonConfig::default());
    let second = FleetServer::bind(second_daemon, &path).expect("re-bind");
    let t = Instant::now();
    drop(first);
    let elapsed = t.elapsed();
    assert!(elapsed < Duration::from_secs(1), "drop took {elapsed:?}");
    FleetClient::connect(&path)
        .expect("the second server's socket survives")
        .ping()
        .expect("ping");
    drop(second);
    assert!(!path.exists());
}

#[test]
fn connection_counters_return_to_zero_open_after_disconnects_and_shutdown() {
    let (daemon, server, path) = start_daemon("accounting", DaemonConfig::default());
    for _ in 0..50 {
        FleetClient::connect(&path)
            .expect("connect")
            .ping()
            .expect("ping");
    }
    assert_eq!(wait_until_all_closed(&daemon), (50, 50));

    // Registration precedes the handshake echo, so a connected client
    // is already counted; the series travel over STATS_V2.
    let mut held = FleetClient::connect(&path).expect("connect");
    let text = held.daemon_stats_v2().expect("stats v2");
    assert!(text.contains("hb_fleetd_connections_total 51\n"), "{text}");
    assert!(
        text.contains("# TYPE hb_fleetd_connections_closed_total counter"),
        "{text}"
    );

    // Shutdown cuts the held connection; its wake is not counted.
    drop(server);
    assert_eq!(wait_until_all_closed(&daemon), (51, 51));
    assert!(held.ping().is_err(), "held connection was cut");
}
