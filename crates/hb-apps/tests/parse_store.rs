//! The per-thread parse store over the six subject apps.
//!
//! A boot served from a warm store must be indistinguishable from a boot
//! on a fresh thread: same derivations with bit-identical body
//! fingerprints and epochs, same `check_all` diagnostics, same analysis.
//! Re-booting the apps on one thread parses nothing, a first boot parses
//! each file exactly once, and a serving tenant's source map does not
//! grow with the number of requests.

use hb_apps::talks_history::error_versions;
use hb_apps::{all_apps, build_app, run_workload, talks, AppSpec};
use hb_syntax::store_stats;
use hummingbird::{
    CacheDumpEntry, CacheSnapshot, Hummingbird, MethodKey, Mode, ResidueSummary, SharedCache,
};
use std::sync::Arc;

/// Everything one boot produces that must not depend on where its
/// programs came from.
#[derive(Debug, PartialEq)]
struct BootRecord {
    cache: Vec<CacheDumpEntry>,
    /// The shared tier's snapshot bytes: every derivation with its body
    /// fingerprint, epochs, witnesses and cast sites.
    snapshot: Vec<u8>,
    /// The snapshot decoded: `(method, entry id, sig version, body
    /// fingerprint)`.
    versions: Vec<(MethodKey, u64, u64, u64)>,
    /// `check_all` as `(code, rendered)`.
    check_all: Vec<(String, String)>,
    analysis: Vec<String>,
    residue: ResidueSummary,
}

/// Boots `spec` over a fresh shared tier, loads `extra` (a buggy file),
/// serves one request script and records everything.
fn record(spec: &AppSpec, extra: Option<&str>) -> BootRecord {
    let shared = Arc::new(SharedCache::new());
    let mut hb = hb_apps::build_app_with(spec, Hummingbird::builder().shared_cache(shared));
    if let Some(src) = extra {
        hb.load_file("talks/buggy.rb", src)
            .expect("buggy file loads");
    } else {
        run_workload(spec, &mut hb, 1);
    }
    let check_all = hb
        .check_all()
        .iter()
        .map(|d| (d.code.to_string(), d.render(hb.source_map())))
        .collect();
    let call = (spec.workload_call)(1);
    let report = hb.analyze_with_entries(1, &[("<workload>", &call)]);
    let snapshot = hb.snapshot().expect("shared tier attached").to_bytes();
    BootRecord {
        cache: hb.engine.cache_dump(),
        versions: CacheSnapshot::from_bytes(&snapshot)
            .expect("decodes")
            .entry_versions()
            .expect("resolves"),
        snapshot,
        check_all,
        analysis: report
            .diagnostics
            .iter()
            .map(|d| d.render(hb.source_map()))
            .collect(),
        residue: report.summary,
    }
}

/// The cases: the six clean apps, then Talks with each historical error
/// (so `check_all` has diagnostics to compare).
fn case(i: usize) -> (AppSpec, Option<&'static str>) {
    let apps = all_apps();
    let n = apps.len();
    match apps.into_iter().nth(i) {
        Some(spec) => (spec, None),
        None => (talks(), Some(error_versions()[i - n].buggy_source)),
    }
}

#[test]
fn warm_store_boots_match_fresh_thread_boots() {
    let cases = all_apps().len() + error_versions().len();
    let mut diagnostics = 0;
    for i in 0..cases {
        let (spec, extra) = case(i);
        // Warm this thread's store with the app's texts at Original
        // mode's file ids (no core library: every id shifts by one), then
        // at Full's, and boot again from it.
        build_app(&spec, Mode::Original);
        record(&spec, extra);
        let before = store_stats();
        let warm = record(&spec, extra);
        let after = store_stats();
        assert_eq!(
            after.misses, before.misses,
            "{}: warm boot parsed",
            spec.name
        );
        assert!(after.hits > before.hits);

        let (fresh, fresh_stats) = std::thread::spawn(move || {
            let (spec, extra) = case(i);
            (record(&spec, extra), store_stats())
        })
        .join()
        .expect("fresh-thread boot");
        assert!(fresh_stats.misses > 0, "a fresh thread parses");

        assert!(!warm.cache.is_empty(), "{}: nothing derived", spec.name);
        assert_eq!(warm, fresh, "{} case {i}", spec.name);
        diagnostics += warm.check_all.len();
    }
    assert_eq!(
        diagnostics,
        error_versions().len(),
        "one check_all diagnostic per historical error"
    );
}

#[test]
fn rebooting_the_six_apps_on_one_thread_parses_nothing() {
    for mode in [Mode::Full, Mode::Original] {
        let boot_and_serve = || {
            for spec in all_apps() {
                let mut hb = build_app(&spec, mode);
                run_workload(&spec, &mut hb, 1);
            }
        };
        boot_and_serve();
        let before = store_stats();
        boot_and_serve();
        let after = store_stats();
        assert_eq!(after.misses, before.misses, "{mode:?}: a re-boot parsed");
        assert!(after.hits > before.hits);
    }
}

#[test]
fn a_first_boot_parses_each_file_once() {
    std::thread::spawn(|| {
        let spec = talks();
        let hb = build_app(&spec, Mode::Full);
        assert_eq!(
            store_stats().misses,
            hb.source_map().files().count() as u64,
            "one parse per registered file"
        );
    })
    .join()
    .expect("fresh-thread boot");
}

#[test]
fn identical_evals_leave_the_source_map_unchanged() {
    let spec = talks();
    let mut hb = build_app(&spec, Mode::Full);
    run_workload(&spec, &mut hb, 1);
    let files = hb.source_map().files().count();
    let before = store_stats();
    for _ in 0..1000 {
        hb.eval("User.new").expect("request runs");
    }
    assert_eq!(hb.source_map().files().count(), files + 1);
    assert_eq!(store_stats().misses - before.misses, 1);
    assert_eq!(store_stats().hits - before.hits, 999);
}
