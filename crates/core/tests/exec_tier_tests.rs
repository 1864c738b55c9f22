//! Execution-tier tests: the bytecode VM with derivation-driven check
//! elision must patch checked fast prologues in steady state, deoptimize
//! (patch back to the guarded entry) whenever the backing derivation is
//! invalidated — reloads, annotation changes, enforcement changes, cache
//! flushes — and re-patch once the fresh derivation lands.

use hummingbird::{CheckPolicy, ErrorKind, ExecTier, Hummingbird, Value};

fn hb_bytecode() -> Hummingbird {
    Hummingbird::builder().exec_tier(ExecTier::Bytecode).build()
}

/// A checked driver looping a checked inner call: the paper's
/// steady-state shape. After the first iterations both methods are
/// checked, cached, and the `(receiver class, entry)` pairs are patched
/// onto the fast prologue — the hook never runs again.
const STEADY_STATE: &str = r#"
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

#[test]
fn bytecode_tier_compiles_patches_and_counts_fast_hits() {
    let mut hb = hb_bytecode();
    hb.eval(STEADY_STATE).unwrap();
    let v = hb.eval("Steady.new.driver(200)").unwrap();
    assert_eq!(format!("{v:?}"), "200");
    let s = hb.stats();
    assert_eq!(s.checks_performed, 2, "driver and inner each checked once");
    assert!(s.bytecode_compiled >= 2, "both bodies compiled: {s:?}");
    assert!(
        s.fast_entries_patched >= 1,
        "inner patched onto the fast prologue: {s:?}"
    );
    assert_eq!(s.deopts, 0);
    // Fast hits fold into cache_hits so the counter stays comparable with
    // the tree-walk tier: 200 inner calls minus the first (checked).
    assert!(s.cache_hits >= 199, "{s:?}");
}

#[test]
fn tree_walk_tier_reports_no_bytecode_activity() {
    let mut hb = Hummingbird::builder().exec_tier(ExecTier::TreeWalk).build();
    hb.eval(STEADY_STATE).unwrap();
    hb.eval("Steady.new.driver(50)").unwrap();
    let s = hb.stats();
    assert_eq!(s.bytecode_compiled, 0);
    assert_eq!(s.fast_entries_patched, 0);
    assert_eq!(s.deopts, 0);
    assert_eq!(s.checks_performed, 2, "semantics identical across tiers");
}

#[test]
fn reload_mid_steady_state_deopts_then_repatches() {
    let mut hb = hb_bytecode();
    let v1 = r#"
class R
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
    hb.load_file("r.rb", v1).unwrap();
    hb.eval(
        r#"
class R
  type :inner, "(Fixnum) -> Fixnum", { "check" => true }
  type :driver, "(Fixnum) -> Fixnum", { "check" => true }
end
R.new.driver(100)
"#,
    )
    .unwrap();
    let warm = hb.stats();
    assert!(warm.fast_entries_patched >= 1, "{warm:?}");
    assert_eq!(warm.deopts, 0);
    // Reload with `inner` changed mid-steady-state: its derivation (and
    // its dependents') is invalidated, so the patched fast entries must
    // fall back to the guarded prologue — the deopt analogue.
    let v2 = r#"
class R
  def inner(x)
    x + 2
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
    let report = hb.reload_file("r.rb", v2).unwrap();
    assert_eq!(report.changed, vec!["R#inner"]);
    let after_reload = hb.stats();
    assert!(
        after_reload.deopts >= 1,
        "reload must depatch fast entries: {after_reload:?}"
    );
    // The new body runs (semantics first), rechecks land, and steady
    // state re-patches.
    let v = hb.eval("R.new.driver(100)").unwrap();
    assert_eq!(format!("{v:?}"), "200");
    let rewarmed = hb.stats();
    assert!(
        rewarmed.fast_entries_patched > warm.fast_entries_patched,
        "fresh derivations re-patch: {rewarmed:?}"
    );
}

#[test]
fn annotation_replace_mid_steady_state_still_blames() {
    // The soundness test behind elision: once `inner` is patched, the
    // hook no longer runs for it — but replacing its type must deopt and
    // the very next driver call must re-check and blame, exactly as the
    // tree-walk tier would.
    let mut hb = hb_bytecode();
    hb.eval(STEADY_STATE).unwrap();
    hb.eval("Steady.new.driver(100)").unwrap();
    assert!(hb.stats().fast_entries_patched >= 1);
    hb.eval("class Steady\n type :inner, \"(Fixnum) -> String\", { \"replace\" => true }\nend")
        .unwrap();
    let err = hb.eval("Steady.new.driver(100)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    let s = hb.stats();
    assert!(s.deopts >= 1, "annotation change must deopt: {s:?}");
}

#[test]
fn enforcement_change_mid_steady_state_deopts() {
    // Patching is only sound while every per-call decision the hook could
    // make is statically trivial; switching the global policy away from
    // Enforce revokes that, synchronously.
    let mut hb = hb_bytecode();
    hb.eval(STEADY_STATE).unwrap();
    hb.eval("Steady.new.driver(100)").unwrap();
    let warm = hb.stats();
    assert!(warm.fast_entries_patched >= 1);
    hb.set_check_policy(CheckPolicy::Shadow);
    let s = hb.stats();
    assert!(
        s.deopts >= 1,
        "policy change must flush fast entries: {s:?}"
    );
    // Under a non-trivial policy nothing re-patches (the hook must stay
    // in the loop to shadow blames), but execution continues correctly.
    hb.eval("Steady.new.driver(10)").unwrap();
    assert_eq!(hb.stats().fast_entries_patched, warm.fast_entries_patched);
}

#[test]
fn bytecode_tier_matches_tree_walk_diagnostics() {
    // A blame surfaced from compiled code carries the same structured
    // diagnostic as the tree-walk tier, byte for byte.
    let src = r#"
class D
  type :bad, "() -> Fixnum", { "check" => true }
  def bad
    "string"
  end
end
D.new.bad
"#;
    let mut tw = Hummingbird::builder().exec_tier(ExecTier::TreeWalk).build();
    let e1 = tw.eval(src).unwrap_err();
    let mut bc = hb_bytecode();
    let e2 = bc.eval(src).unwrap_err();
    assert_eq!(e1.kind, e2.kind);
    assert_eq!(e1.message, e2.message);
    let d1 = e1.diagnostic().expect("tree-walk diagnostic");
    let d2 = e2.diagnostic().expect("bytecode diagnostic");
    assert_eq!(d1.code, d2.code);
    assert_eq!(
        d1.render(tw.source_map()),
        d2.render(bc.source_map()),
        "rendered diagnostics identical across tiers"
    );
}

#[test]
fn dynamic_arg_checks_still_run_from_unchecked_callers() {
    // The fast prologue only ever serves checked callers; top-level
    // (unchecked) calls keep their guarded entry and full dynamic checks,
    // patched or not.
    let mut hb = hb_bytecode();
    hb.eval(STEADY_STATE).unwrap();
    hb.eval("Steady.new.driver(100)").unwrap();
    assert!(hb.stats().fast_entries_patched >= 1);
    let err = hb.eval("Steady.new.inner(\"oops\")").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame);
}

/// The dispatch gate's program: `idm` is called from Rust (an unchecked
/// caller, so every call takes the guarded entry) and from the checked
/// `call_loop` (checked→checked, where the bytecode tier patches the fast
/// prologue); `empty_loop` is the same loop without the call.
const DISPATCH: &str = r#"
class Dispatch
  type :idm, "(Fixnum) -> Fixnum", { "check" => true }
  type :call_loop, "(Fixnum) -> Fixnum", { "check" => true }
  type :empty_loop, "(Fixnum) -> Fixnum", { "check" => true }
  def idm(x)
    x
  end
  def call_loop(n)
    i = 0
    while i < n
      idm(i)
      i = i + 1
    end
    i
  end
  def empty_loop(n)
    i = 0
    while i < n
      i = i + 1
    end
    i
  end
end
Dispatch.new.idm(1)
"#;

#[test]
fn steady_dispatch_hits_the_cache_and_patches_only_on_bytecode() {
    const CALLS: u64 = 50_000;
    for tier in [ExecTier::TreeWalk, ExecTier::Bytecode] {
        let mut hb = Hummingbird::builder().exec_tier(tier).build();
        hb.eval(DISPATCH).unwrap();
        let recv = hb.eval("Dispatch.new").unwrap();
        let span = hb_syntax::Span::dummy();
        let mut call = |name: &str, arg: u64| {
            hb.interp
                .call_method(recv.clone(), name, vec![Value::Int(arg as i64)], None, span)
                .unwrap()
        };
        call("idm", 0);
        for i in 0..CALLS {
            call("idm", i);
        }
        for name in ["call_loop", "empty_loop"] {
            call(name, 64);
            assert_eq!(format!("{:?}", call(name, CALLS)), CALLS.to_string());
        }
        let s = hb.stats();
        assert!(
            s.cache_hits >= CALLS,
            "{tier:?}: the loop hits the cache: {s:?}"
        );
        assert_eq!(
            s.checks_performed, 3,
            "{tier:?}: idm, call_loop and empty_loop each check exactly once"
        );
        match tier {
            ExecTier::Bytecode => assert!(
                s.fast_entries_patched >= 1,
                "steady state patches the fast prologue: {s:?}"
            ),
            ExecTier::TreeWalk => assert_eq!(s.fast_entries_patched, 0, "{s:?}"),
        }
    }
}

#[test]
fn dyn_flag_set_by_re_registration_blames_on_both_tiers() {
    // Re-registering `m`'s arm with `"dyn" => true` adds no arm, so no
    // type-table event fires; the flag still asks for the dynamic argument
    // check that calls from the checked `c` otherwise skip, so the
    // bytecode tier must leave `m`'s patched fast entry too.
    for tier in [ExecTier::TreeWalk, ExecTier::Bytecode] {
        let mut hb = Hummingbird::builder().exec_tier(tier).build();
        hb.eval(
            r#"
class A
  type :m, "(Fixnum) -> Fixnum", { "check" => true }
  type :c, "(%any) -> Fixnum", { "check" => true }
  def m(x)
    x
  end
  def c(x)
    m(x)
  end
end
A.new.c(1)
A.new.c(2)
"#,
        )
        .unwrap();
        hb.eval(
            "class A\n type :m, \"(Fixnum) -> Fixnum\", { \"check\" => true, \"dyn\" => true }\nend",
        )
        .unwrap();
        let err = hb.eval("A.new.c(\"s\")").unwrap_err();
        assert_eq!(err.kind, ErrorKind::ContractBlame, "{tier:?}");
    }
}
