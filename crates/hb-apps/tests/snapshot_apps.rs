//! Snapshot round trip over the six subject apps: save → bytes → load
//! into a brand-new tier → a tenant booting the identical apps adopts
//! every first call (zero re-derivations), with statistics identical to
//! an in-process warm tenant's. The *fresh-process* version of this (new
//! interner, new source maps) is `hb-bench/tests/fresh_process.rs`, which
//! re-runs its own test binary.

use hb_apps::{run_tenant, run_tenant_from_snapshot};
use hummingbird::{CacheSnapshot, SharedCache};
use std::sync::Arc;

#[test]
fn six_app_round_trip_boots_warm_with_identical_stats() {
    // Cold world: one tenant boots all six apps and publishes.
    let shared = Arc::new(SharedCache::new());
    let cold = run_tenant(0, &shared, 1);
    assert!(cold.checks_performed > 0, "cold tenant derives");
    assert_eq!(cold.shared_hits, 0);

    // Serialize the tier through the wire format.
    let bytes = shared.snapshot().to_bytes();
    let snap = CacheSnapshot::from_bytes(&bytes).expect("parses");
    assert_eq!(snap.entry_count(), shared.len());

    // Baseline: an in-process warm tenant against the original tier.
    let shared_hits_before = shared.stats().hits;
    let warm_inproc = run_tenant(1, &shared, 1);
    let inproc_hit_delta = shared.stats().hits - shared_hits_before;

    // Fresh world: a brand-new tier rebuilt from bytes. Checked twice —
    // once explicitly (so the tier's size and hit counters are
    // observable), once through the `run_tenant_from_snapshot` helper
    // the fresh-process test builds on.
    let fresh = Arc::new(SharedCache::new());
    let loaded = fresh.load_snapshot(&snap).expect("loads");
    assert_eq!(loaded, snap.entry_count());
    assert_eq!(fresh.len(), shared.len(), "identical tier size after load");
    let warm_snap = run_tenant(1, &fresh, 1);
    let snap_hit_delta = fresh.stats().hits;

    let warm_helper = run_tenant_from_snapshot(2, &snap, 1);
    assert_eq!(warm_helper.checks_performed, 0);
    assert_eq!(warm_helper.shared_hits, warm_snap.shared_hits);

    // Zero re-derivations from the snapshot, and the warm boot is
    // statistically indistinguishable from the in-process one.
    assert_eq!(
        warm_snap.checks_performed, 0,
        "boot-from-snapshot never runs check_sig"
    );
    assert_eq!(warm_snap.warm_hit_rate(), 1.0);
    assert_eq!(warm_snap.shared_hits, warm_inproc.shared_hits);
    assert_eq!(warm_snap.cache_hits, warm_inproc.cache_hits);
    assert_eq!(warm_snap.intercepted_calls, warm_inproc.intercepted_calls);
    assert_eq!(
        snap_hit_delta, inproc_hit_delta,
        "the rebuilt tier serves exactly the hits the live tier served"
    );
}

#[test]
fn second_tenant_thread_adopts_the_first_tenants_derivations() {
    // Two runs, each a fresh tier; both must pass, not just the better.
    for run in 0..2 {
        let shared = Arc::new(SharedCache::new());
        let tenant = |i: usize| {
            let shared = shared.clone();
            std::thread::spawn(move || run_tenant(i, &shared, 1))
                .join()
                .expect("tenant thread")
        };
        let first = tenant(0);
        // The second tenant starts only after the first has finished.
        let second = tenant(1);
        assert!(first.checks_performed > 0, "run {run}: {first:?}");
        let rate = second.warm_hit_rate();
        assert!(
            rate >= 0.9,
            "run {run}: the second tenant gets >= 90% of its first calls \
             from the shared tier (got {rate:.3}: {second:?})"
        );
    }
}
