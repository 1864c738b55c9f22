//! Scheduler tests on the real subject apps: Deferred soundness over the
//! six Talks historical errors (blame arrives asynchronously but is never
//! lost, on both the JIT and parallel-lint paths), parallel/serial
//! `check_all` determinism and derivation parity, and deferred admission
//! against enforce on the Talks first-request storm.

use hb_apps::talks_history::error_versions;
use hb_apps::{all_apps, build_app, build_app_with, run_workload, talks, AppSpec};
use hummingbird::{
    CacheDumpEntry, CheckPolicy, Hummingbird, Mode, ObsLevel, Scheduler, SharedCache,
};
use std::sync::Arc;

#[test]
fn all_six_historical_errors_keep_their_codes_under_deferred_jit() {
    for v in error_versions() {
        let spec = talks();
        let mut hb = build_app_with(
            &spec,
            Hummingbird::builder()
                .check_policy(CheckPolicy::Deferred)
                .scheduler(Arc::new(Scheduler::new(2))),
        );
        hb.load_file("talks/buggy.rb", v.buggy_source).unwrap();
        // The request is admitted without waiting for the static check —
        // it may still fail *dynamically* (missing methods at run time,
        // dynamic argument checks), which is exactly the safety net
        // Deferred relies on. Either way the deferred blame must land.
        let _ = hb.eval(v.trigger);
        hb.sched_quiesce();
        let codes: Vec<String> = hb
            .diagnostics()
            .iter()
            .map(|d| d.code.to_string())
            .collect();
        assert!(
            codes.iter().any(|c| c == v.expected_code),
            "{}: expected asynchronous {} in {:?}",
            v.version,
            v.expected_code,
            codes
        );
        let s = hb.stats();
        assert!(
            s.deferred_admissions >= 1,
            "{}: cold calls were admitted ({s:?})",
            v.version
        );
        assert_eq!(s.sched_tasks_enqueued, s.sched_tasks_completed);
    }
}

#[test]
fn all_six_historical_errors_keep_their_codes_under_deferred_parallel_lint() {
    for v in error_versions() {
        let spec = talks();
        let mut hb = build_app_with(
            &spec,
            Hummingbird::builder().check_policy(CheckPolicy::Deferred),
        );
        hb.load_file("talks/buggy.rb", v.buggy_source).unwrap();
        let diags = hb.check_all_parallel(4);
        assert_eq!(
            diags.len(),
            1,
            "{}: exactly the historical error (got {:?})",
            v.version,
            diags.iter().map(|d| d.code.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(diags[0].code.to_string(), v.expected_code, "{}", v.version);
    }
}

#[test]
fn parallel_lint_is_byte_identical_to_serial_on_history() {
    for v in error_versions() {
        let spec = talks();
        let mut serial = build_app_with(&spec, Hummingbird::builder());
        serial.load_file("talks/buggy.rb", v.buggy_source).unwrap();
        let serial_out: Vec<String> = serial
            .check_all()
            .iter()
            .map(|d| d.render(serial.source_map()))
            .collect();

        let mut parallel = build_app_with(&spec, Hummingbird::builder());
        parallel
            .load_file("talks/buggy.rb", v.buggy_source)
            .unwrap();
        let parallel_out: Vec<String> = parallel
            .check_all_parallel(4)
            .iter()
            .map(|d| d.render(parallel.source_map()))
            .collect();

        assert_eq!(
            serial_out, parallel_out,
            "{}: parallel output must be byte-identical to serial",
            v.version
        );
    }
}

#[test]
fn clean_apps_lint_clean_in_parallel_and_fan_out_tasks() {
    for spec in all_apps() {
        let mut hb = build_app_with(&spec, Hummingbird::builder());
        let diags = hb.check_all_parallel(4);
        assert!(
            diags.is_empty(),
            "{}: expected 0 findings, got {:?}",
            spec.name,
            diags.iter().map(|d| d.code.to_string()).collect::<Vec<_>>()
        );
        let s = hb.stats();
        assert_eq!(
            s.sched_tasks_completed, s.sched_tasks_enqueued,
            "{}",
            spec.name
        );
        assert_eq!(s.sched_tasks_stale, 0, "{}", spec.name);
        assert!(
            s.sched_tasks_enqueued > 0,
            "{}: the lint actually fanned out work",
            spec.name
        );
    }
}

/// One check pass over every system at `jobs` workers from a cleared
/// cache: each system's rendered diagnostics, and the number of
/// derivations checked.
fn check_suite(
    suite: &mut [Hummingbird],
    pool: &Arc<Scheduler>,
    jobs: usize,
) -> (Vec<Vec<String>>, u64) {
    let mut rendered = Vec::new();
    let mut checks = 0;
    for hb in suite.iter_mut() {
        hb.engine.set_scheduler(pool.clone());
        hb.engine.clear_cache();
    }
    for hb in suite.iter_mut() {
        let before = hb.stats().checks_performed;
        let diags = hb.check_all_parallel(jobs);
        checks += hb.stats().checks_performed - before;
        rendered.push(diags.iter().map(|d| d.render(hb.source_map())).collect());
    }
    (rendered, checks)
}

#[test]
fn check_all_is_identical_at_every_worker_count() {
    let mut suite: Vec<Hummingbird> = all_apps()
        .iter()
        .map(|spec| build_app(spec, Mode::Full))
        .collect();
    // A seventh system with several findings, so that a change of their
    // order shows.
    let mut buggy = build_app(&talks(), Mode::Full);
    for (i, v) in error_versions().iter().enumerate() {
        buggy
            .load_file(&format!("talks/buggy{i}.rb"), v.buggy_source)
            .unwrap();
    }
    suite.push(buggy);

    let (serial, serial_checks) = check_suite(&mut suite, &Arc::new(Scheduler::new(1)), 1);
    assert!(
        serial[..6].iter().all(Vec::is_empty),
        "the six clean apps lint at 0 diagnostics: {serial:?}"
    );
    assert!(serial[6].len() >= 2, "{:?}", serial[6]);
    for jobs in [1, 4] {
        let pool = Arc::new(Scheduler::new(jobs));
        for run in 0..2 {
            let (rendered, checks) = check_suite(&mut suite, &pool, jobs);
            assert_eq!(
                rendered, serial,
                "jobs={jobs} run {run}: output byte-identical to serial"
            );
            assert_eq!(
                checks, serial_checks,
                "jobs={jobs} run {run}: the same method set is derived"
            );
        }
    }
}

/// Boots `spec` on a fresh shared tier, loads `extra` files, runs `check`
/// and returns what the engine cached and the tier's serialized snapshot.
fn derive_on_fresh_tier(
    spec: &AppSpec,
    extra: &[(String, &str)],
    check: impl FnOnce(&mut Hummingbird),
) -> (Vec<CacheDumpEntry>, Vec<u8>) {
    let shared = Arc::new(SharedCache::new());
    let mut hb = build_app_with(spec, Hummingbird::builder().shared_cache(shared.clone()));
    for (name, src) in extra {
        hb.load_file(name, src).unwrap();
    }
    check(&mut hb);
    (hb.engine.cache_dump(), shared.snapshot().to_bytes())
}

#[test]
fn parallel_check_all_derives_and_publishes_exactly_what_serial_does() {
    let history: Vec<(String, &str)> = error_versions()
        .iter()
        .enumerate()
        .map(|(i, v)| (format!("talks/buggy{i}.rb"), v.buggy_source))
        .collect();
    let mut systems: Vec<(AppSpec, &[(String, &str)])> =
        all_apps().into_iter().map(|spec| (spec, &[][..])).collect();
    systems.push((talks(), &history));
    for (spec, extra) in systems {
        let (serial_cache, serial_snap) = derive_on_fresh_tier(&spec, extra, |hb| {
            hb.check_all();
        });
        let (parallel_cache, parallel_snap) = derive_on_fresh_tier(&spec, extra, |hb| {
            hb.check_all_parallel(4);
        });
        assert!(
            !serial_cache.is_empty(),
            "{}: something was derived",
            spec.name
        );
        assert_eq!(
            serial_cache, parallel_cache,
            "{}: the same derivations with the same dependencies",
            spec.name
        );
        assert!(
            serial_snap == parallel_snap,
            "{}: the published snapshots differ ({} vs {} bytes)",
            spec.name,
            serial_snap.len(),
            parallel_snap.len()
        );
    }
}

/// What serving the Talks first-request storm cold under one policy did.
struct Storm {
    checks_landed: u64,
    deferred_admissions: u64,
    diagnostics: usize,
    check_durations: u64,
    queue_waits: u64,
}

fn talks_storm(policy: CheckPolicy) -> Storm {
    let spec = talks();
    let mut hb = build_app_with(
        &spec,
        Hummingbird::builder()
            .check_policy(policy)
            .observability(ObsLevel::Metrics)
            .scheduler(Arc::new(Scheduler::new(4))),
    );
    // Checks run while booting are not part of the storm: counters only
    // grow, so the storm is the difference of two snapshots.
    hb.sched_quiesce();
    hb.engine.clear_cache();
    let before = hb.stats();
    let diagnostics_before = hb.diagnostics().len();
    run_workload(&spec, &mut hb, 1);
    hb.sched_quiesce();
    let s = hb.stats();
    let obs = hb.engine.obs().expect("observability is on");
    Storm {
        checks_landed: s.checks_performed - before.checks_performed,
        deferred_admissions: s.deferred_admissions - before.deferred_admissions,
        diagnostics: hb.diagnostics().len() - diagnostics_before,
        check_durations: obs.check_duration.summary().count,
        queue_waits: obs.sched_queue.summary().count,
    }
}

#[test]
fn deferred_storm_admits_cold_calls_and_lands_checks_on_workers() {
    let enforce = talks_storm(CheckPolicy::Enforce);
    let deferred = talks_storm(CheckPolicy::Deferred);
    assert!(
        deferred.deferred_admissions > 0,
        "cold first calls were admitted without waiting for their checks"
    );
    assert_eq!(
        enforce.deferred_admissions, 0,
        "enforce admits nothing asynchronously"
    );
    assert_eq!(
        deferred.diagnostics, 0,
        "the clean Talks storm produces no deferred blame"
    );
    assert!(
        deferred.checks_landed > 0,
        "the deferred checks completed on the workers and were adopted"
    );
    assert!(enforce.checks_landed > 0, "enforce checks inline");
    assert!(
        deferred.check_durations > 0 && enforce.check_durations > 0,
        "the check-duration histogram saw the storm under both policies"
    );
    assert_eq!(
        enforce.queue_waits, 0,
        "enforce enqueues nothing, so the queue histogram stays empty"
    );
}
