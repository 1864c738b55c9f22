//! The six historical Talks errors under the bytecode execution tier:
//! every diagnostic keeps its exact stable code on the just-in-time
//! path, the eager `check_all` path, and the Deferred-admission path —
//! check elision may skip the hook probe, never a check.

use hb_apps::talks_history::error_versions;
use hb_apps::{all_apps, build_app_with, run_workload, talks};
use hummingbird::{CheckPolicy, ErrorKind, ExecTier, Hummingbird, Scheduler};
use std::sync::Arc;

fn bytecode_builder() -> hummingbird::HummingbirdBuilder {
    Hummingbird::builder().exec_tier(ExecTier::Bytecode)
}

#[test]
fn six_historical_errors_keep_codes_under_bytecode_jit() {
    for v in error_versions() {
        let spec = talks();
        let mut hb = build_app_with(&spec, bytecode_builder());
        hb.load_file("talks/buggy.rb", v.buggy_source)
            .unwrap_or_else(|e| panic!("{}: load failed: {e}", v.version));
        let err = hb
            .eval(v.trigger)
            .expect_err("the buggy version must blame under bytecode too");
        assert_eq!(err.kind, ErrorKind::TypeBlame, "{}: {err}", v.version);
        assert!(
            err.message.contains(v.expected_fragment),
            "{}: got {:?}, wanted fragment {:?}",
            v.version,
            err.message,
            v.expected_fragment
        );
        let code = err
            .diagnostic()
            .unwrap_or_else(|| panic!("{}: blame without diagnostic", v.version))
            .code
            .to_string();
        assert_eq!(code, v.expected_code, "{}", v.version);
        assert!(
            hb.stats().bytecode_compiled > 0,
            "{}: the app really ran on the bytecode tier",
            v.version
        );
    }
}

#[test]
fn six_historical_errors_keep_codes_under_bytecode_check_all() {
    for v in error_versions() {
        let spec = talks();
        let mut hb = build_app_with(&spec, bytecode_builder());
        hb.load_file("talks/buggy.rb", v.buggy_source).unwrap();
        let diags = hb.check_all();
        assert_eq!(
            diags.len(),
            1,
            "{}: eager lint finds exactly the bug (got {:?})",
            v.version,
            diags.iter().map(|d| d.code.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(diags[0].code.to_string(), v.expected_code, "{}", v.version);
    }
}

#[test]
fn six_historical_errors_keep_codes_under_bytecode_deferred() {
    for v in error_versions() {
        let spec = talks();
        let mut hb = build_app_with(
            &spec,
            bytecode_builder()
                .check_policy(CheckPolicy::Deferred)
                .scheduler(Arc::new(Scheduler::new(2))),
        );
        hb.load_file("talks/buggy.rb", v.buggy_source).unwrap();
        // Admitted without waiting for the static check; the deferred
        // blame must still land once the scheduler drains.
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
    }
}

#[test]
fn bytecode_jit_blames_are_byte_identical_to_tree_walk() {
    for v in error_versions() {
        let spec = talks();
        let mut tw = build_app_with(&spec, Hummingbird::builder());
        tw.load_file("talks/buggy.rb", v.buggy_source).unwrap();
        let e1 = tw.eval(v.trigger).expect_err("tree-walk blames");
        let mut bc = build_app_with(&talks(), bytecode_builder());
        bc.load_file("talks/buggy.rb", v.buggy_source).unwrap();
        let e2 = bc.eval(v.trigger).expect_err("bytecode blames");
        assert_eq!(e1.message, e2.message, "{}", v.version);
        let d1 = e1.diagnostic().unwrap().render(tw.source_map());
        let d2 = e2.diagnostic().unwrap().render(bc.source_map());
        assert_eq!(d1, d2, "{}: rendered diagnostics diverge", v.version);
    }
}

#[test]
fn all_apps_run_clean_and_elide_on_bytecode_tier() {
    for spec in all_apps() {
        let mut hb = build_app_with(&spec, bytecode_builder());
        run_workload(&spec, &mut hb, 2);
        let s = hb.stats();
        assert!(s.checks_performed > 0, "{}: nothing checked", spec.name);
        assert!(s.bytecode_compiled > 0, "{}: nothing compiled", spec.name);
        assert!(
            s.fast_entries_patched > 0,
            "{}: steady state never patched a fast entry ({s:?})",
            spec.name
        );
    }
}
