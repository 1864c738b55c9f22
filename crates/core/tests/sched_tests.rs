//! Concurrent check scheduler tests: deferred JIT admission, asynchronous
//! blame, stale-result discard (reload during an in-flight check), worker
//! panic containment, and parallel `check_all` determinism.

use hummingbird::{CheckPolicy, DiagCode, Hummingbird, MethodKey, Scheduler};
use std::sync::Arc;

const CLEAN_APP: &str = r#"
class Talk
  type :title_line, "(String) -> String", { "check" => true }
  def title_line(prefix)
    prefix + ": talk"
  end
end
"#;

const BUGGY_APP: &str = r#"
class Talk
  type :late?, "(Fixnum) -> %bool", { "check" => true }
  def late?(mins)
    mins + 1
  end
end
"#;

#[test]
fn deferred_admission_checks_in_background_and_lands_at_quiesce() {
    let mut hb = Hummingbird::builder()
        .check_policy(CheckPolicy::Deferred)
        .scheduler(Arc::new(Scheduler::new(2)))
        .build();
    hb.eval(CLEAN_APP).unwrap();
    hb.eval("Talk.new.title_line(\"PLDI\")").unwrap();
    let s = hb.stats();
    assert_eq!(s.deferred_admissions, 1, "the cold call was admitted");
    assert_eq!(s.sched_tasks_enqueued, 1, "one task was enqueued");
    hb.sched_quiesce();
    let s = hb.stats();
    assert_eq!(s.sched_tasks_completed, 1);
    assert_eq!(s.sched_tasks_stale, 0);
    assert_eq!(
        s.checks_performed, 1,
        "the worker's derivation was validated and adopted"
    );
    assert!(
        hb.diagnostics().is_empty(),
        "a passing check blames nothing"
    );
    // The adopted derivation is a hot-tier entry now: the next call hits.
    let hits_before = hb.stats().cache_hits;
    hb.eval("Talk.new.title_line(\"again\")").unwrap();
    assert_eq!(hb.stats().cache_hits, hits_before + 1);
    assert_eq!(hb.stats().deferred_admissions, 1, "no second admission");
}

#[test]
fn deferred_blame_arrives_asynchronously_with_its_code() {
    let mut hb = Hummingbird::builder()
        .check_policy(CheckPolicy::Deferred)
        .scheduler(Arc::new(Scheduler::new(2)))
        .build();
    hb.eval(BUGGY_APP).unwrap();
    // The ill-typed method is admitted and runs to completion — Shadow
    // semantics for the deferred blame.
    let v = hb.eval("Talk.new.late?(5)").unwrap();
    assert!(format!("{v:?}").contains('6'), "the call ran");
    hb.sched_quiesce();
    let diags = hb.diagnostics();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, DiagCode::ReturnType, "exact HB0007");
    assert!(
        diags[0]
            .labels
            .iter()
            .any(|l| l.message.contains("deferred check policy")),
        "the asynchronous blame is self-describing"
    );
    let s = hb.stats();
    assert_eq!(s.checks_failed, 1);
    assert_eq!(
        s.checks_performed, 0,
        "a blamed derivation is never adopted"
    );
    assert_eq!(
        hb.engine.cache_len(),
        0,
        "nothing cached for the blamed method"
    );
}

#[test]
fn stale_inflight_derivation_is_discarded_never_adopted() {
    let sched = Arc::new(Scheduler::new(1));
    let mut hb = Hummingbird::builder()
        .check_policy(CheckPolicy::Deferred)
        .scheduler(sched.clone())
        .build();
    hb.eval(CLEAN_APP).unwrap();
    // Hold the worker so the task stays in flight across the reload.
    sched.pause();
    hb.eval("Talk.new.title_line(\"PLDI\")").unwrap();
    assert_eq!(hb.stats().sched_tasks_enqueued, 1);
    // Reload the method with a different body while the check (against
    // the OLD body and world) is still queued.
    hb.eval(
        r#"
class Talk
  def title_line(prefix)
    "v2: " + prefix
  end
end
"#,
    )
    .unwrap();
    sched.resume();
    hb.sched_quiesce();
    let s = hb.stats();
    assert_eq!(s.sched_tasks_completed, 1);
    assert_eq!(
        s.sched_tasks_stale, 1,
        "the pre-reload derivation no longer matches the entry id and is discarded"
    );
    assert_eq!(s.checks_performed, 0, "stale results are never adopted");
    assert_eq!(hb.engine.cache_len(), 0);
    // The method still checks correctly against its NEW body.
    hb.eval("Talk.new.title_line(\"PLDI\")").unwrap();
    hb.sched_quiesce();
    let s = hb.stats();
    assert_eq!(s.checks_performed, 1, "re-enqueued against the new body");
    assert_eq!(s.sched_tasks_stale, 1, "no further staleness");
    assert_eq!(hb.engine.cache_len(), 1);
}

#[test]
fn stale_blame_rechecks_against_the_current_world_instead_of_reporting_stale() {
    let sched = Arc::new(Scheduler::new(1));
    let mut hb = Hummingbird::builder()
        .check_policy(CheckPolicy::Deferred)
        .scheduler(sched.clone())
        .build();
    hb.eval(BUGGY_APP).unwrap();
    sched.pause();
    hb.eval("Talk.new.late?(5)").unwrap();
    // An UNRELATED annotation lands while the blame is in flight: the
    // captured epochs no longer match, so the blame completion is
    // discarded as stale — but the method identity is current, so the
    // engine re-checks against the current world and the (still-real)
    // blame re-lands at quiesce rather than being silently lost.
    hb.eval("class Talk\n  type :other, \"() -> String\"\nend")
        .unwrap();
    sched.resume();
    hb.sched_quiesce();
    let s = hb.stats();
    assert_eq!(s.sched_tasks_stale, 1, "the in-flight blame went stale");
    assert_eq!(
        s.sched_tasks_enqueued, 2,
        "one original task plus one re-enqueued against the current world"
    );
    let diags = hb.diagnostics();
    assert_eq!(diags.len(), 1, "exactly one blame — no duplicates, no loss");
    assert_eq!(diags[0].code, DiagCode::ReturnType);
    assert_eq!(s.checks_failed, 1);
}

#[test]
fn worker_panic_poisons_only_its_task_not_the_pool() {
    let sched = Arc::new(Scheduler::new(2));
    let mut hb = Hummingbird::builder()
        .check_policy(CheckPolicy::Deferred)
        .scheduler(sched.clone())
        .build();
    hb.eval(CLEAN_APP).unwrap();
    hb.eval(
        r#"
class Talk
  type :other, "() -> String", { "check" => true }
  def other
    "ok"
  end
end
"#,
    )
    .unwrap();
    sched.panic_on(MethodKey::instance("Talk", "title_line"));
    hb.eval("t = Talk.new\nt.title_line(\"x\")\nt.other")
        .unwrap();
    hb.sched_quiesce();
    // The panicking task surfaced as a structured HB0011 diagnostic...
    let diags = hb.diagnostics();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, DiagCode::CheckerPanic);
    assert!(diags[0].message.contains("Talk#title_line"));
    assert!(
        diags[0]
            .labels
            .iter()
            .any(|l| l.message.contains("contained to this task")),
        "the diagnostic is self-describing"
    );
    assert_eq!(sched.tasks_panicked(), 1);
    // ...while the sibling task on the same pool completed normally.
    let s = hb.stats();
    assert_eq!(s.sched_tasks_completed, 2);
    assert_eq!(s.checks_performed, 1, "Talk#other was adopted");
    // The pool survives: the panicking method re-checks cleanly once the
    // instrumentation is lifted.
    sched.clear_panic_keys();
    hb.eval("Talk.new.title_line(\"y\")").unwrap();
    hb.sched_quiesce();
    assert_eq!(hb.stats().checks_performed, 2);
    assert_eq!(hb.engine.cache_len(), 2);
}

#[test]
fn check_all_parallel_matches_serial_output_and_counts_tasks() {
    let program = r#"
class Talk
  type :title_line, "(String) -> String", { "check" => true }
  def title_line(prefix)
    prefix + ": talk"
  end
  type :late?, "(Fixnum) -> %bool", { "check" => true }
  def late?(mins)
    mins + 1
  end
  type :slot, "() -> Fixnum", { "check" => true }
  def slot
    "three"
  end
end
"#;
    let mut serial = Hummingbird::builder().build();
    serial.eval(program).unwrap();
    let serial_diags = serial.check_all();

    let mut parallel = Hummingbird::builder().build();
    parallel.eval(program).unwrap();
    let parallel_diags = parallel.check_all_parallel(4);

    assert_eq!(serial_diags.len(), 2, "two of the three methods blame");
    let render = |hb: &Hummingbird, ds: &[hummingbird::TypeDiagnostic]| -> Vec<String> {
        ds.iter().map(|d| d.render(hb.source_map())).collect()
    };
    assert_eq!(
        render(&serial, &serial_diags),
        render(&parallel, &parallel_diags),
        "byte-identical diagnostics in the same sorted order"
    );
    let s = parallel.stats();
    assert_eq!(s.sched_tasks_enqueued, 3);
    assert_eq!(s.sched_tasks_completed, 3);
    assert_eq!(s.sched_tasks_stale, 0);
    assert_eq!(
        s.checks_performed, 1,
        "the passing method was adopted from its worker derivation"
    );
    // The sweep re-derived only the failures, serially.
    assert_eq!(s.checks_failed, 2);
}

#[test]
fn check_all_parallel_warms_the_cache_like_serial() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(CLEAN_APP).unwrap();
    assert!(hb.check_all_parallel(2).is_empty());
    let hits = hb.stats().cache_hits;
    hb.eval("Talk.new.title_line(\"x\")").unwrap();
    assert_eq!(
        hb.stats().cache_hits,
        hits + 1,
        "first call hits the warmed cache"
    );
}

#[test]
fn quiesce_without_scheduler_is_a_noop() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(CLEAN_APP).unwrap();
    hb.sched_quiesce();
    assert_eq!(hb.stats().sched_tasks_completed, 0);
}

#[test]
fn deferred_queue_at_its_cap_sheds_to_synchronous_enforce() {
    let sched = Arc::new(Scheduler::new(1));
    let mut hb = Hummingbird::builder()
        .check_policy(CheckPolicy::Deferred)
        .scheduler(sched.clone())
        .deferred_queue_cap(2)
        .build();
    hb.eval(
        r#"
class Flood
  type :m1, "() -> Fixnum", { "check" => true }
  def m1
    1
  end
  type :m2, "() -> Fixnum", { "check" => true }
  def m2
    2
  end
  type :m3, "() -> Fixnum", { "check" => true }
  def m3
    3
  end
  type :m4, "() -> Fixnum", { "check" => true }
  def m4
    4
  end
end
class Buggy
  type :bad, "() -> String", { "check" => true }
  def bad
    1
  end
end
"#,
    )
    .unwrap();
    // Hold the worker: admitted tasks stay in flight, so the queue fills.
    sched.pause();
    hb.eval("f = Flood.new\nf.m1\nf.m2").unwrap();
    let s = hb.stats();
    assert_eq!(s.deferred_admissions, 2, "the queue accepts up to its cap");
    assert_eq!(s.deferred_shed, 0);
    assert_eq!(s.checks_performed, 0, "nothing checked inline yet");

    // The third cold method finds the queue at its high-water mark: the
    // call is shed to a synchronous Enforce check instead of growing the
    // backlog unboundedly.
    hb.eval("Flood.new.m3").unwrap();
    let s = hb.stats();
    assert_eq!(s.deferred_shed, 1, "shed counted");
    assert_eq!(s.deferred_admissions, 2, "no admission past the cap");
    assert_eq!(s.checks_performed, 1, "the shed call checked inline");

    // Shed calls carry full Enforce semantics: an ill-typed method
    // blames by *raising*, not by Shadow-logging after the fact.
    assert!(
        hb.eval("Buggy.new.bad").is_err(),
        "shed blame raises like Enforce"
    );
    let s = hb.stats();
    assert_eq!(s.deferred_shed, 2);
    assert_eq!(s.checks_failed, 1);

    // Draining the queue restores deferred admission.
    sched.resume();
    hb.sched_quiesce();
    let s = hb.stats();
    assert_eq!(s.sched_tasks_completed, 2, "the held tasks landed");
    hb.eval("Flood.new.m4").unwrap();
    let s = hb.stats();
    assert_eq!(s.deferred_admissions, 3, "capacity recovered after quiesce");
    assert_eq!(s.deferred_shed, 2, "no further shedding");
}

#[test]
fn deferred_policy_parses_and_reports() {
    assert_eq!(CheckPolicy::parse("deferred"), Some(CheckPolicy::Deferred));
    assert_eq!(CheckPolicy::Deferred.as_str(), "deferred");
    // The RubyLite builtin accepts it too.
    let mut hb = Hummingbird::builder()
        .scheduler(Arc::new(Scheduler::new(1)))
        .build();
    hb.eval("check_policy \"deferred\"").unwrap();
    hb.eval(CLEAN_APP).unwrap();
    hb.eval("Talk.new.title_line(\"x\")").unwrap();
    hb.sched_quiesce();
    assert_eq!(hb.stats().deferred_admissions, 1);
    assert_eq!(hb.stats().checks_performed, 1);
}
