//! Structured-diagnostics integration tests: the `TypeDiagnostic` surface
//! threaded through the engine — codes, blame labels, the dummy-span
//! both-spans fix, failed-check logging, and the eager `check_all` mode.

use hb_interp::{MethodBody, ProcVal, Scope, Value};
use hb_syntax::Span;
use hummingbird::{
    BlameTarget, CheckVerdict, DiagCode, ErrorKind, Hummingbird, LabelRole, MethodKey,
};
use std::rc::Rc;

#[test]
fn jit_blame_carries_structured_diagnostic() {
    let mut hb = Hummingbird::builder().build();
    hb.load_file(
        "talk.rb",
        r#"
class Talk
  type :pick, "(Symbol) -> Fixnum"
  def pick(k)
    1
  end
  type :go, "() -> Fixnum", { "check" => true }
  def go
    pick(true)
  end
end
"#,
    )
    .unwrap();
    let err = hb.eval("Talk.new.go").unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    let diag = err.diagnostic().expect("blame carries a diagnostic");
    assert_eq!(diag.code, DiagCode::ArgumentType);
    // The *callee's* annotation is blamed, machine-readably.
    let pick = MethodKey::instance("Talk", "pick");
    assert_eq!(diag.blame, BlameTarget::Annotation(pick));
    // Its label resolves to the real `type :pick` line in talk.rb.
    let label = diag
        .label(LabelRole::BlamedAnnotation)
        .expect("blame label");
    assert_eq!(label.method, Some(pick));
    let described = hb.source_map().describe(label.span);
    assert_eq!(
        described, "talk.rb:3:3",
        "annotation span resolves to the type call"
    );
    // The triggering call site is labeled too.
    let call = diag.label(LabelRole::CallSite).expect("call-site label");
    assert_eq!(hb.source_map().describe(call.span), "<eval>:1:1");
    // And the diagnostics accessor retains it.
    let all = hb.diagnostics();
    assert_eq!(all.len(), 1);
    assert_eq!(all[0].code, DiagCode::ArgumentType);
}

#[test]
fn failed_checks_are_logged_with_outcome_and_duration() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class T
  type :ok, "() -> Fixnum", { "check" => true }
  def ok
    1
  end
  type :bad, "() -> Fixnum", { "check" => true }
  def bad
    "s"
  end
end
T.new.ok
"#,
    )
    .unwrap();
    hb.eval("T.new.bad").unwrap_err();
    let s = hb.stats();
    assert_eq!(s.checks_performed, 1, "only the passing check derives");
    assert_eq!(s.checks_failed, 1, "the blamed first call is visible now");
    let log = hb.engine.take_check_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].key, MethodKey::instance("T", "ok"));
    assert_eq!(log[0].outcome, CheckVerdict::Pass);
    assert_eq!(log[1].key, MethodKey::instance("T", "bad"));
    assert_eq!(log[1].outcome, CheckVerdict::Blame(DiagCode::ReturnType));
}

/// The engine's dummy-span rule: when the checker positions an error
/// at synthesized code (a `define_method`-style proc with no source span),
/// the old surface silently dropped the checker span and showed only the
/// call site. Structured labels must emit *both*: primary = call site,
/// plus an explicit note that the blamed code is spanless.
#[test]
fn dummy_checker_span_keeps_call_site_and_note() {
    let mut hb = Hummingbird::builder().build();
    hb.eval("class Gen\nend").unwrap();
    // A method whose body is a synthesized proc (span = dummy), as the
    // Rails substrate generates for model accessors. The body returns a
    // String but the annotation declares Fixnum.
    let prog = hb_syntax::parse_program("\"not an int\"", "<gen>").unwrap();
    let cid = hb.interp.registry.lookup("Gen").unwrap();
    let proc_val = ProcVal {
        params: vec![],
        body: Rc::new(prog.body),
        env: Scope::root(),
        self_val: Value::Nil,
        definee: cid,
        span: Span::dummy(),
    };
    hb.interp
        .registry
        .add_method(cid, "gen", MethodBody::FromProc(Rc::new(proc_val)), false);
    hb.eval("class Gen\n type :gen, \"() -> Fixnum\", { \"check\" => true }\nend")
        .unwrap();
    let err = hb.eval("Gen.new.gen").unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    let diag = err.diagnostic().unwrap();
    assert_eq!(diag.code, DiagCode::ReturnType);
    // Primary span falls back to the (real) call site...
    assert_ne!(diag.span, Span::dummy());
    assert!(hb.source_map().describe(diag.span).starts_with("<eval>"));
    // ...the call site is labeled...
    assert!(diag.label(LabelRole::CallSite).is_some());
    // ...and the spanless checker location is kept as an explicit note
    // instead of being dropped.
    let note = diag.label(LabelRole::Note).expect("spanless-blame note");
    assert!(note.message.contains("no source span"), "{}", note.message);
}

#[test]
fn check_all_finds_errors_without_any_call() {
    let mut hb = Hummingbird::builder().build();
    hb.load_file(
        "app.rb",
        r#"
class Acct
  type :rate, "() -> Float"
  def rate
    0.5
  end
  type :label, "() -> String", { "check" => true }
  def label
    "acct"
  end
  type :bad_total, "() -> Fixnum", { "check" => true }
  def bad_total
    rate
  end
end
"#,
    )
    .unwrap();
    // No request ever calls bad_total: just-in-time checking alone would
    // never surface the bug.
    assert_eq!(hb.stats().checks_performed, 0);
    let diags = hb.check_all();
    assert_eq!(diags.len(), 1, "exactly the one broken method");
    assert_eq!(diags[0].code, DiagCode::ReturnType);
    assert_eq!(
        diags[0].method,
        Some(MethodKey::instance("Acct", "bad_total"))
    );
    // Eager mode anchors the primary span at the blamed method, not at a
    // (nonexistent) call.
    assert_ne!(diags[0].span, Span::dummy());
    let s = hb.stats();
    assert_eq!(s.checks_failed, 1);
    assert_eq!(s.checks_performed, 1, "the clean checked method derived");
}

#[test]
fn check_all_clean_program_is_empty_and_warms_the_cache() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class W
  type :go, "(Fixnum) -> Fixnum", { "check" => true }
  def go(x)
    x + 1
  end
end
"#,
    )
    .unwrap();
    assert!(hb.check_all().is_empty());
    assert_eq!(hb.stats().checks_performed, 1);
    // The eager derivation is the same cache entry the JIT path uses: the
    // first real call is a pure cache hit.
    hb.eval("W.new.go(1)").unwrap();
    let s = hb.stats();
    assert_eq!(s.checks_performed, 1, "no re-check at the first call");
    assert_eq!(s.cache_hits, 1);
}

#[test]
fn dynamic_arg_check_failure_is_structured() {
    let mut hb = Hummingbird::builder().build();
    hb.load_file(
        "t.rb",
        r#"
class T
  type :takes_int, "(Fixnum) -> Fixnum"
  def takes_int(x)
    x
  end
end
"#,
    )
    .unwrap();
    let err = hb.eval("T.new.takes_int(\"s\")").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame);
    let diag = err.diagnostic().unwrap();
    assert_eq!(diag.code, DiagCode::DynamicArgCheck);
    assert_eq!(
        diag.blame,
        BlameTarget::Annotation(MethodKey::instance("T", "takes_int"))
    );
    let label = diag.label(LabelRole::BlamedAnnotation).unwrap();
    assert_eq!(hb.source_map().describe(label.span), "t.rb:3:3");
}

#[test]
fn cast_failure_is_structured_with_cast_site() {
    let mut hb = Hummingbird::builder().build();
    let err = hb
        .load_file("c.rb", "x = \"s\"\ny = x.rdl_cast(\"Fixnum\")\n")
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame);
    let diag = err.diagnostic().unwrap();
    assert_eq!(diag.code, DiagCode::CastFailure);
    assert_eq!(diag.blame, BlameTarget::Cast);
    let site = diag.label(LabelRole::CastSite).unwrap();
    assert_eq!(hb.source_map().describe(site.span), "c.rb:2:5");
    // Cast blame reaches the shared diagnostics store too.
    let all = hb.diagnostics();
    assert_eq!(all.len(), 1);
    assert_eq!(all[0].code, DiagCode::CastFailure);
}

#[test]
fn diagnostic_json_round_trips_fields() {
    let mut hb = Hummingbird::builder().build();
    hb.load_file(
        "j.rb",
        "class J\n type :m, \"() -> Fixnum\", { \"check\" => true }\n def m\n  \"s\"\n end\nend\n",
    )
    .unwrap();
    let err = hb.eval("J.new.m").unwrap_err();
    let diag = err.diagnostic().unwrap();
    let json = diag.to_json(hb.source_map());
    assert!(json.contains("\"code\":\"HB0007\""), "{json}");
    assert!(json.contains("\"kind\":\"annotation\""), "{json}");
    assert!(json.contains("\"method\":\"J#m\""), "{json}");
    assert!(json.contains("\"file\":\"j.rb\""), "{json}");
    // Every code that appears in JSON parses back to the same code.
    assert_eq!(DiagCode::parse("HB0007"), Some(diag.code));
}
