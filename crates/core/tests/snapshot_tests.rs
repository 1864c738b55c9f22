//! Cache snapshots: the shared derivation tier serialized for
//! cross-process warm boots. These tests cover the soundness side — a
//! snapshot is a set of *candidates*, and the normal adoption gate
//! (epoch fast path, witness replay) decides per tenant. The six-app
//! round trip lives in `hb-apps/tests/snapshot_apps.rs`, and the true
//! fresh-process boot in `hb-bench/tests/fresh_process.rs`.

use hummingbird::{CacheSnapshot, Hummingbird, SharedCache, SnapshotError};
use std::sync::Arc;

/// Loaded by BOTH worlds as the same file name and content, so the
/// checked method's body fingerprint (and entry id / sig version, which
/// are load-order counters) coincide — exactly the situation where only
/// witness replay can tell the worlds apart.
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

/// The publisher's divergence: an annotation on `Sub` itself, shadowing
/// `Base#m` along `Sub`'s chain. Loaded AFTER `TALK_RB` so every shared
/// counter (entry ids, sig versions) still matches the clean world's.
const SHADOWING_RB: &str = r#"
class Sub
  type :m, "() -> Fixnum"
end
"#;

fn eval_snapshot_world() -> CacheSnapshot {
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("talk.rb", TALK_RB).unwrap();
    // Diverge before the first call, so the tier holds only a derivation
    // whose (TApp) witness resolves `m` to Sub#m, not Base#m.
    publisher.load_file("shadow.rb", SHADOWING_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    assert_eq!(
        publisher.stats().checks_performed,
        1,
        "sanity: compute checked once, in the shadowing world"
    );
    shared.snapshot()
}

#[test]
fn round_trip_preserves_adoption_for_an_identical_world() {
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("talk.rb", TALK_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    let checks = publisher.stats().checks_performed;
    assert!(checks >= 1);

    // Serialize → bytes → parse → load into a brand-new tier.
    let bytes = shared.snapshot().to_bytes();
    let snap = CacheSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.entry_count(), shared.len());
    let fresh = Arc::new(SharedCache::new());
    assert_eq!(fresh.load_snapshot(&snap).unwrap(), snap.entry_count());

    // A tenant booting the identical world against the restored tier
    // adopts everything: zero `check_sig` runs.
    let mut adopter = Hummingbird::builder().shared_cache(fresh.clone()).build();
    adopter.load_file("talk.rb", TALK_RB).unwrap();
    adopter.eval("Talk.new.compute(Sub.new)").unwrap();
    let s = adopter.stats();
    assert_eq!(s.checks_performed, 0, "warm boot from bytes: no checks");
    assert_eq!(s.shared_hits, checks, "every first call adopted");
}

#[test]
fn snapshot_from_a_shadowing_world_is_rejected_by_witness_replay() {
    let snap = eval_snapshot_world();
    let fresh = Arc::new(SharedCache::new());
    fresh.load_snapshot(&snap).unwrap();

    // The adopter's world has NO shadowing annotation: its table resolves
    // `m` along Sub's chain to Base#m, but the snapshot derivation's
    // witness recorded Sub#m. Same entry id, same sig version, same body
    // fingerprint — the shared lookup *hits* — and witness replay must
    // reject the adoption, forcing a sound local re-check (which passes:
    // the method is fine in this world too).
    let mut adopter = Hummingbird::builder().shared_cache(fresh.clone()).build();
    adopter.load_file("talk.rb", TALK_RB).unwrap();
    adopter.eval("Talk.new.compute(Sub.new)").unwrap();
    let s = adopter.stats();
    assert_eq!(
        s.shared_hits, 0,
        "nothing from the shadowing world may be adopted: {s:?}"
    );
    assert!(
        s.checks_performed >= 1,
        "divergent snapshot must re-check, not adopt: {s:?}"
    );
    assert!(
        fresh.stats().hits >= 1,
        "sanity: the lookup reached the loaded entry (rejection happened \
         at witness replay, not at the probe): {:?}",
        fresh.stats()
    );
}

#[test]
fn corrupt_artifacts_yield_typed_errors_and_leave_a_live_tier_untouched() {
    // A live, serving tier: one publisher's derivations, already adopted
    // from by real tenants.
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("talk.rb", TALK_RB).unwrap();
    publisher.eval("Talk.new.compute(Sub.new)").unwrap();
    let bytes = shared.snapshot().to_bytes();
    let live_len = shared.len();
    assert!(live_len >= 1);

    // Every corruption mode is refused with a *typed* error before any
    // structure is parsed — and none of the attempts can reach (let
    // alone poison) the live tier, because parsing fails up front.
    let wrong_magic = {
        let mut b = bytes.clone();
        b[..8].copy_from_slice(b"HBSNAPXX");
        b
    };
    assert!(matches!(
        CacheSnapshot::from_bytes(&wrong_magic),
        Err(SnapshotError::BadMagic)
    ));

    let truncated = &bytes[..bytes.len() / 2];
    assert!(matches!(
        CacheSnapshot::from_bytes(truncated),
        Err(SnapshotError::Truncated | SnapshotError::BadChecksum)
    ));

    let bit_flipped = {
        let mut b = bytes.clone();
        let mid = b.len() / 2;
        b[mid] ^= 0x01;
        b
    };
    assert!(matches!(
        CacheSnapshot::from_bytes(&bit_flipped),
        Err(SnapshotError::BadChecksum)
    ));

    // The tier still holds exactly what it held, and a fresh tenant
    // still warm-boots from it at full adoption.
    assert_eq!(shared.len(), live_len, "refusals never touch a live tier");
    let mut adopter = Hummingbird::builder().shared_cache(shared.clone()).build();
    adopter.load_file("talk.rb", TALK_RB).unwrap();
    adopter.eval("Talk.new.compute(Sub.new)").unwrap();
    let s = adopter.stats();
    assert_eq!(s.checks_performed, 0, "tier still serves warm boots: {s:?}");
    assert!(s.shared_hits >= 1);
}
