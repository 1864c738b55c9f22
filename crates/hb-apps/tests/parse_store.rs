//! The per-thread source store, type-string memo and CFG store over the
//! six subject apps.
//!
//! A boot served from a warm store and memo must be indistinguishable
//! from a boot on a fresh thread: same derivations with bit-identical
//! body fingerprints and epochs, same table, variable and signature
//! fingerprints, same files and content hashes, same `check_all`
//! diagnostics, same analysis, and the same class registry: shape
//! fingerprint, hierarchy generation and method entry ids. Re-booting
//! the apps on one thread parses nothing and makes no new file, a first
//! boot parses each file exactly once, a serving tenant's source map
//! does not grow with the number of requests, and a second cycle of
//! Talks reloads lowers no method body.

use hb_apps::talks_history::{error_versions, run_update_requests, update_versions};
use hb_apps::{all_apps, build_app, run_workload, talks, AppSpec};
use hb_interp::ClassId;
use hb_rdl::type_memo_stats;
use hb_syntax::store_stats;
use hummingbird::{
    cfg_store_stats, CacheDumpEntry, CacheSnapshot, Hummingbird, MethodKey, Mode, ResidueSummary,
    SharedCache,
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
    table_fingerprint: u64,
    var_fingerprint: u64,
    /// Every table entry's signature fingerprint.
    sig_fingerprints: Vec<(MethodKey, u64)>,
    /// Every registered file as `(name, content hash)`.
    files: Vec<(String, u64)>,
    /// The class registry's shape fingerprint and hierarchy generation.
    shape: (u64, u64),
    /// Every class's own methods as `(class, class-level, method, entry
    /// id)`: a warm thread's interpreter is a fork of its bootstrap, a
    /// fresh thread's the first fork of a new one.
    methods: Vec<(String, bool, String, u64)>,
}

fn registry_methods(hb: &Hummingbird) -> Vec<(String, bool, String, u64)> {
    let r = &hb.interp.registry;
    let mut out = Vec::new();
    for i in 0..r.class_count() as u32 {
        let c = r.class(ClassId(i));
        for (class_level, table) in [(false, &c.methods), (true, &c.smethods)] {
            out.extend(
                table
                    .iter()
                    .map(|(name, e)| (c.name.clone(), class_level, name.clone(), e.id)),
            );
        }
    }
    out.sort();
    out
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
        table_fingerprint: hb.rdl.table_fingerprint(),
        var_fingerprint: hb.rdl.var_fingerprint(),
        sig_fingerprints: hb
            .rdl
            .entries()
            .into_iter()
            .map(|(key, entry)| (key, entry.sig_fingerprint()))
            .collect(),
        files: hb
            .source_map()
            .files()
            .map(|(_, f)| (f.name.clone(), f.content_hash()))
            .collect(),
        shape: (
            hb.interp.registry.shape_fingerprint(),
            hb.interp.registry.hierarchy_generation(),
        ),
        methods: registry_methods(&hb),
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
        let before = (store_stats(), type_memo_stats());
        let warm = record(&spec, extra);
        let after = (store_stats(), type_memo_stats());
        assert_eq!(
            after.0.misses, before.0.misses,
            "{}: warm boot parsed",
            spec.name
        );
        assert_eq!(
            after.0.file_misses, before.0.file_misses,
            "{}: warm boot made a new file",
            spec.name
        );
        assert_eq!(
            after.1.misses, before.1.misses,
            "{}: warm boot parsed a type string",
            spec.name
        );
        assert!(after.0.hits > before.0.hits);

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
        let before = (store_stats(), type_memo_stats());
        boot_and_serve();
        let after = (store_stats(), type_memo_stats());
        assert_eq!(
            after.0.misses, before.0.misses,
            "{mode:?}: a re-boot parsed"
        );
        assert_eq!(
            after.0.file_misses, before.0.file_misses,
            "{mode:?}: a re-boot made a new file"
        );
        assert_eq!(
            after.1.misses, before.1.misses,
            "{mode:?}: a re-boot parsed a type string"
        );
        assert!(after.0.hits > before.0.hits);
        assert!(after.0.file_hits > before.0.file_hits);
        if mode == Mode::Full {
            assert!(after.1.hits > before.1.hits, "the apps' annotations ran");
        }
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

/// One redeploy cycle of the Talks formatter, v1…v6 then back to v0,
/// replaying the update requests after each reload: the reports' changed
/// methods and dependents, and the checks each replay made.
fn reload_cycle(hb: &mut Hummingbird) -> Vec<(Vec<String>, u64, usize)> {
    let versions = update_versions();
    [1, 2, 3, 4, 5, 6, 0]
        .into_iter()
        .map(|v| {
            hb.eval("talks_seed").expect("reseed");
            hb.engine.take_check_log();
            let report = hb
                .reload_file("talks/updates/formatter.rb", versions[v].1)
                .expect("reload applies");
            run_update_requests(hb);
            let checks = hb.engine.take_check_log().len();
            (report.changed, report.dependents_invalidated, checks)
        })
        .collect()
}

#[test]
fn a_second_reload_cycle_on_a_warm_thread_lowers_nothing_new() {
    let mut hb = build_app(&talks(), Mode::Full);
    hb.load_file("talks/updates/formatter.rb", update_versions()[0].1)
        .expect("formatter v0 loads");
    hb.load_file(
        "talks/updates/annotations.rb",
        include_str!("../apps/talks/updates/annotations.rb"),
    )
    .expect("formatter annotations load");
    run_update_requests(&mut hb);
    let before = cfg_store_stats();
    let first = reload_cycle(&mut hb);
    let warm = cfg_store_stats();
    assert!(
        warm.misses > before.misses,
        "the first cycle lowers new text"
    );
    let second = reload_cycle(&mut hb);
    let after = cfg_store_stats();
    assert_eq!(after.misses, warm.misses, "the second cycle lowered a body");
    assert!(after.hits > warm.hits);
    assert_eq!(first, second, "both cycles report and check the same");
    assert!(second.iter().map(|(_, _, checks)| checks).sum::<usize>() > 0);
}
