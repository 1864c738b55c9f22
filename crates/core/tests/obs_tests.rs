//! PR 10 observability: the stats-accounting reconciliation invariant
//! across check policies and execution tiers, and the metrics/trace
//! export surfaces end to end.
//!
//! The reconciliation invariant: every dispatched call to a checked
//! method resolves as exactly one of a derivation-cache hit, a
//! shared-tier adoption, a passing check, or a failing check — so
//! `cache_hits + shared_hits + checks_performed + checks_failed` must
//! equal the number of dispatched calls, and
//! `checks_performed + checks_failed + shared_hits` must equal the
//! first calls. Deferred admissions settle at `sched_quiesce`; after
//! the barrier the same identity holds.

use hummingbird::{CheckPolicy, ExecTier, Hummingbird, ObsLevel, Scheduler, SharedCache};
use std::sync::Arc;

/// Three cleanly checkable methods.
const CLEAN: &str = r#"
class Talk
  type :title, "() -> Fixnum", { "check" => true }
  def title
    1
  end
  type :minutes, "() -> Fixnum", { "check" => true }
  def minutes
    30
  end
  type :pad, "(Fixnum) -> Fixnum", { "check" => true }
  def pad(mins)
    mins + 5
  end
end
"#;

/// [`CLEAN`] plus a method whose body cannot satisfy its annotation.
const WITH_BAD: &str = r#"
class Talk
  type :title, "() -> Fixnum", { "check" => true }
  def title
    1
  end
  type :minutes, "() -> Fixnum", { "check" => true }
  def minutes
    30
  end
  type :pad, "(Fixnum) -> Fixnum", { "check" => true }
  def pad(mins)
    mins + 5
  end
  type :late?, "(Fixnum) -> %bool", { "check" => true }
  def late?(mins)
    mins + 1
  end
end
"#;

/// Dispatches one round of calls to the checked methods; returns how
/// many checked-method calls were made.
fn drive(hb: &mut Hummingbird, with_bad: bool) -> u64 {
    hb.eval("t = Talk.new\nt.title\nt.minutes\nt.pad(40)")
        .expect("clean calls succeed");
    if with_bad {
        // Blames are shadowed in the configurations that drive this.
        hb.eval("Talk.new.late?(5)")
            .expect("shadowed call continues");
        4
    } else {
        3
    }
}

/// Asserts the four-way accounting identity on one engine.
fn assert_reconciles(hb: &Hummingbird, dispatched: u64, first_calls: u64, label: &str) {
    let s = hb.stats();
    let resolved = s.cache_hits + s.shared_hits + s.checks_performed + s.checks_failed;
    assert_eq!(
        resolved, dispatched,
        "{label}: every dispatched call resolves exactly once: {s:?}"
    );
    assert_eq!(
        s.checks_performed + s.checks_failed + s.shared_hits,
        first_calls,
        "{label}: first calls are checks or adoptions: {s:?}"
    );
    // The duration histogram and the flat stats see the same checks.
    let h = hb
        .engine
        .obs()
        .expect("observability is on")
        .check_duration
        .summary();
    assert_eq!(
        (h.count, h.sum),
        (
            s.checks_performed + s.checks_failed,
            s.check_ns + s.failed_check_ns
        ),
        "{label}: the check-duration histogram counts and times every check: {s:?}"
    );
}

/// One policy × tier configuration: two tenants over one shared tier,
/// `rounds` dispatch rounds each. Returns the tenants for extra checks.
fn run_matrix_point(
    policy: CheckPolicy,
    tier: ExecTier,
    rounds: u64,
) -> (Hummingbird, Hummingbird) {
    let with_bad = policy == CheckPolicy::Shadow;
    let fixture = if with_bad { WITH_BAD } else { CLEAN };
    let methods = if with_bad { 4 } else { 3 };
    let shared = Arc::new(SharedCache::new());
    let label = format!("{policy:?}/{tier:?}");

    let build = |shared: &Arc<SharedCache>| {
        let mut b = Hummingbird::builder()
            .check_policy(policy)
            .exec_tier(tier)
            .shared_cache(shared.clone())
            .observability(ObsLevel::Metrics);
        if policy == CheckPolicy::Deferred {
            b = b.scheduler(Arc::new(Scheduler::new(2)));
        }
        b.build()
    };

    let mut t1 = build(&shared);
    t1.eval(fixture).unwrap();
    let mut dispatched = 0;
    for round in 0..rounds {
        dispatched += drive(&mut t1, with_bad);
        if round == 0 {
            // Deferred: let the admitted first-call checks land before
            // the steady-state rounds, so the identity is settled.
            t1.sched_quiesce();
        }
    }
    t1.sched_quiesce();
    // A failing check is never adopted into the cache, so under Shadow
    // the bad method re-checks (and re-blames) every round; the identity
    // covers both outcomes, so no per-policy arithmetic is needed.
    assert_reconciles(
        &t1,
        dispatched,
        t1.stats().checks_performed + t1.stats().checks_failed,
        &format!("tenant1 {label}"),
    );
    assert_eq!(
        t1.stats().shared_hits,
        0,
        "tenant1 {label}: nothing to adopt from an empty tier"
    );

    // Tenant 2 boots against the tier tenant 1 populated: its passing
    // first calls adopt instead of deriving.
    let mut t2 = build(&shared);
    t2.eval(fixture).unwrap();
    let mut dispatched2 = 0;
    for round in 0..rounds {
        dispatched2 += drive(&mut t2, with_bad);
        if round == 0 {
            t2.sched_quiesce();
        }
    }
    t2.sched_quiesce();
    let s2 = t2.stats();
    assert_reconciles(
        &t2,
        dispatched2,
        s2.checks_performed + s2.checks_failed + s2.shared_hits,
        &format!("tenant2 {label}"),
    );
    assert_eq!(
        s2.shared_hits,
        methods as u64 - if with_bad { 1 } else { 0 },
        "tenant2 {label}: every passing first call adopts tenant 1's derivation: {s2:?}"
    );
    assert_eq!(
        s2.checks_performed, 0,
        "tenant2 {label}: adoption leaves nothing to derive: {s2:?}"
    );
    (t1, t2)
}

#[test]
fn accounting_reconciles_across_policies_and_tiers() {
    for tier in [ExecTier::TreeWalk, ExecTier::Bytecode] {
        for policy in [
            CheckPolicy::Enforce,
            CheckPolicy::Shadow,
            CheckPolicy::Deferred,
        ] {
            run_matrix_point(policy, tier, 4);
        }
    }
}

#[test]
fn deferred_admissions_settle_into_the_identity() {
    // No quiesce between rounds this time: latched re-admissions pile
    // up while the first-call checks are in flight. After the final
    // quiesce every admitted check has landed, and admissions plus
    // resolutions cover every dispatch exactly once.
    let mut hb = Hummingbird::builder()
        .check_policy(CheckPolicy::Deferred)
        .scheduler(Arc::new(Scheduler::new(2)))
        .observability(ObsLevel::Metrics)
        .build();
    hb.eval(CLEAN).unwrap();
    let mut dispatched = 0;
    for _ in 0..6 {
        dispatched += drive(&mut hb, false);
    }
    hb.sched_quiesce();
    let s = hb.stats();
    // Each dispatch resolved as a cache hit, a landed check, or an
    // admission of an already-in-flight key (which the landed check
    // then covered). Shedding would convert to sync checks — also
    // counted — so the three-way split is exhaustive.
    assert_eq!(
        s.cache_hits + s.checks_performed + s.checks_failed + s.deferred_admissions
            - (s.sched_tasks_completed - s.sched_tasks_stale),
        dispatched,
        "admissions and landed completions reconcile: {s:?}"
    );
    assert!(s.deferred_admissions >= 3, "first calls admitted: {s:?}");
}

#[test]
fn metrics_exports_round_trip() {
    let mut hb = Hummingbird::builder()
        .observability(ObsLevel::Trace)
        .build();
    hb.eval(CLEAN).unwrap();
    hb.eval("t = Talk.new\nt.title\nt.title").unwrap();

    let json = hb.metrics();
    hummingbird::validate_json(&json).expect("metrics JSON is valid");
    for needle in [
        "\"schema_version\":1",
        "\"stats\":",
        "\"hb_check_duration_ns\"",
        "\"hb_first_request_ns\"",
        "\"checks_performed\":1",
    ] {
        assert!(
            json.contains(needle),
            "metrics() must carry {needle}: {json}"
        );
    }

    let prom = hb.metrics_prometheus();
    for needle in [
        "# TYPE hb_check_duration_ns histogram",
        "hb_check_duration_ns_count 1",
        "hb_engine_checks_performed 1",
        "hb_engine_cache_hits 1",
    ] {
        assert!(
            prom.contains(needle),
            "prometheus must carry {needle}: {prom}"
        );
    }

    let series = |name: &str| -> u64 {
        prom.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("prometheus must carry {name}: {prom}"))
    };
    assert_eq!(
        series("hb_check_duration_ns_count"),
        series("hb_engine_checks_performed") + series("hb_engine_checks_failed"),
        "the histogram counts every check once"
    );
    assert_eq!(
        series("hb_check_duration_ns_sum"),
        series("hb_engine_check_ns") + series("hb_engine_failed_check_ns"),
        "the histogram sums the stats' check time"
    );

    let trace = hb.trace_json();
    hummingbird::validate_json(&trace).expect("trace JSON is valid");
    assert!(
        trace.contains("\"traceEvents\""),
        "chrome trace shape: {trace}"
    );

    let obs = hb.engine.obs().expect("trace level keeps a collector");
    let events = obs.ring_snapshot();
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert!(
        names.contains(&"check_pass") && names.contains(&"cache_hit"),
        "flight recorder saw the check and the hit: {names:?}"
    );
    assert_eq!(obs.check_duration.summary().count, 1);
    assert_eq!(obs.first_request.summary().count, 1);
}

#[test]
fn observability_off_is_inert() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(CLEAN).unwrap();
    hb.eval("Talk.new.title").unwrap();
    assert!(
        hb.engine.obs().is_none(),
        "off is the absence of a collector"
    );
    let json = hb.metrics();
    hummingbird::validate_json(&json).expect("off still renders valid JSON");
    assert!(json.contains("\"counters\":{}"), "no series exist: {json}");
    let prom = hb.metrics_prometheus();
    assert!(
        !prom.contains("hb_check_duration_ns") && prom.contains("hb_engine_checks_performed"),
        "off exports only the flat stats: {prom}"
    );
    let trace = hb.trace_json();
    hummingbird::validate_json(&trace).expect("empty trace is valid JSON");
    assert!(trace.contains("traceEvents"), "trace shape: {trace}");
}
