//! The snapshot × bytecode-tier seam: pushing a `CacheSnapshot` into an
//! *already-warm* runtime (the rolling-deploy artifact push, as opposed
//! to the fresh-process warm boot in `snapshot_tests.rs`) only adds
//! candidates to the shared tier. The warm tenant's derivations and
//! patched fast entries stay exactly as they were; tenants with misses
//! to fill adopt the pushed entries. Also here: class-level
//! `set_class_policy` changes, which revoke the statically-trivial-policy
//! premise patching relies on, must deopt just like the global/method
//! paths do.

use hummingbird::{CacheSnapshot, CheckPolicy, EngineStats, ExecTier, Hummingbird, SharedCache};
use std::sync::Arc;

/// The steady-state shape from `exec_tier_tests.rs`: a checked driver
/// looping a checked inner call, so both methods patch after warm-up.
const STEADY_RB: &str = r#"
class Steady
  type :inner, "(Fixnum) -> Fixnum", { "check" => true }
  type :driver, "(Fixnum) -> Fixnum", { "check" => true }
  def inner(x)
    x + 1
  end
  def driver(n)
    i = 0
    acc = 0
    while i < n
      acc = inner(acc)
      i = i + 1
    end
    acc
  end
end
"#;

/// Publishes the steady-state world's derivations into a fresh tier and
/// serializes it — the artifact a control plane would distribute.
fn publish_artifact() -> CacheSnapshot {
    let shared = Arc::new(SharedCache::new());
    let mut publisher = Hummingbird::builder().shared_cache(shared.clone()).build();
    publisher.load_file("steady.rb", STEADY_RB).unwrap();
    publisher.eval("Steady.new.driver(10)").unwrap();
    assert_eq!(publisher.stats().checks_performed, 2, "driver and inner");
    shared.snapshot()
}

#[test]
fn snapshot_load_into_warm_runtime_retires_nothing() {
    let snap = publish_artifact();

    // A warm bytecode-tier tenant: both methods checked, cached, patched.
    let shared = Arc::new(SharedCache::new());
    let mut hb = Hummingbird::builder()
        .exec_tier(ExecTier::Bytecode)
        .shared_cache(shared.clone())
        .build();
    hb.load_file("steady.rb", STEADY_RB).unwrap();
    hb.eval("Steady.new.driver(100)").unwrap();
    let warm = hb.stats();
    assert!(warm.fast_entries_patched >= 1, "{warm:?}");
    assert_eq!(warm.deopts, 0);
    assert_eq!(warm.shared_hits, 0, "this world derived everything itself");

    // Push the artifact into the live tier. It changes nothing in this
    // tenant's world, so no derivation is retired and no fast entry
    // falls back to the guarded prologue, before or after the next run.
    let loaded = shared.load_snapshot(&snap).expect("artifact loads");
    assert_eq!(loaded, snap.entry_count());
    let unchanged = |label: &str, s: &EngineStats| {
        assert_eq!(s.deopts, warm.deopts, "{label}: {s:?}");
        assert_eq!(s.invalidations, warm.invalidations, "{label}: {s:?}");
        assert_eq!(s.checks_performed, warm.checks_performed, "{label}: {s:?}");
        assert_eq!(
            s.fast_entries_patched, warm.fast_entries_patched,
            "{label}: {s:?}"
        );
    };
    unchanged("after the push", &hb.stats());
    let v = hb.eval("Steady.new.driver(100)").unwrap();
    assert_eq!(format!("{v:?}"), "100");
    unchanged("after the next run", &hb.stats());

    // A second tenant on the same tier adopts every first call.
    let mut second = Hummingbird::builder()
        .exec_tier(ExecTier::Bytecode)
        .shared_cache(shared)
        .build();
    second.load_file("steady.rb", STEADY_RB).unwrap();
    second.eval("Steady.new.driver(100)").unwrap();
    let s = second.stats();
    assert_eq!(s.checks_performed, 0, "{s:?}");
    assert_eq!(s.shared_hits, warm.checks_performed, "{s:?}");
}

#[test]
fn class_policy_change_mid_steady_state_deopts() {
    // PR 6 covered the global (`set_check_policy`) and per-method paths;
    // the per-class override must revoke patching the same way: the hook
    // has to be back in the loop to apply the non-trivial policy.
    let mut hb = Hummingbird::builder().exec_tier(ExecTier::Bytecode).build();
    hb.eval(STEADY_RB).unwrap();
    hb.eval("Steady.new.driver(100)").unwrap();
    let warm = hb.stats();
    assert!(warm.fast_entries_patched >= 1, "{warm:?}");
    assert_eq!(warm.deopts, 0);

    hb.set_class_policy("Steady", CheckPolicy::Shadow);
    let s = hb.stats();
    assert!(
        s.deopts >= 1,
        "class policy change must flush fast entries: {s:?}"
    );

    // While any policy layer is non-trivial nothing re-patches — the
    // per-call policy decision needs the hook — but execution continues.
    hb.eval("Steady.new.driver(10)").unwrap();
    assert_eq!(hb.stats().fast_entries_patched, warm.fast_entries_patched);

    // Restoring Enforce for the class makes the policy surface trivial
    // again, and steady state re-patches on the next guarded dispatch.
    hb.set_class_policy("Steady", CheckPolicy::Enforce);
    hb.eval("Steady.new.driver(10)").unwrap();
    let restored = hb.stats();
    assert!(
        restored.fast_entries_patched > warm.fast_entries_patched,
        "trivial policy surface re-admits fast entries: {restored:?}"
    );
}
