//! `pre` contracts at dispatch: a contract registered on a superclass or
//! an included module applies through a subclass, a contract added after
//! a fast entry was patched still runs, a rejecting contract blames with
//! `PreconditionFailed`, and a contract on `A#m` never runs for `B#m`.

use hummingbird::{DiagCode, ErrorKind, ExecTier, HbError, Hummingbird, LabelRole};

/// The diagnostic code of a blame error, if it carries one.
fn code(e: &HbError) -> Option<DiagCode> {
    e.diagnostic.as_ref().map(|d| d.code)
}

#[test]
fn pre_on_superclass_or_included_module_runs_through_a_subclass() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Base
  def m(x)
    x
  end
  def self.make(x)
    x
  end
end
module Greets
  def g(x)
    x
  end
end
class Sub < Base
  include Greets
end
pre Base, "m" do |x|
  x > 0
end
pre Greets, "g" do |x|
  x > 0
end
pre Base, "self.make" do |x|
  x > 0
end
"#,
    )
    .unwrap();
    for call in ["Sub.new.m(1)", "Sub.new.g(1)", "Sub.make(1)"] {
        assert!(
            hb.eval(call).is_ok(),
            "{call}: an accepting pre lets it run"
        );
    }
    for call in ["Sub.new.m(0)", "Sub.new.g(0)", "Sub.make(0)"] {
        let err = hb.eval(call).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ContractBlame, "{call}");
        assert_eq!(code(&err), Some(DiagCode::PreconditionFailed), "{call}");
    }
}

#[test]
fn pre_added_after_fast_entry_patch_runs_on_next_call() {
    let mut hb = Hummingbird::builder().exec_tier(ExecTier::Bytecode).build();
    hb.eval(
        r#"
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
"#,
    )
    .unwrap();
    hb.eval("Steady.new.driver(100)").unwrap();
    let warm = hb.stats();
    assert!(warm.fast_entries_patched >= 1, "inner is patched: {warm:?}");
    hb.eval(
        r#"
pre Steady, "inner" do |x|
  false
end
"#,
    )
    .unwrap();
    let err = hb.eval("Steady.new.driver(1)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame);
    assert_eq!(code(&err), Some(DiagCode::PreconditionFailed));
    assert!(hb.stats().deopts >= 1, "the new pre depatched inner");
}

#[test]
fn enforced_failing_pre_blames_with_precondition_failed() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Talk
  def publish(x)
    x
  end
end
pre Talk, "publish" do |x|
  false
end
"#,
    )
    .unwrap();
    let err = hb.eval("Talk.new.publish(1)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame);
    let d = err
        .diagnostic
        .as_deref()
        .expect("a blame carries its diagnostic");
    assert_eq!(d.code, DiagCode::PreconditionFailed);
    assert_eq!(d.message, "precondition of Talk#publish failed");
    assert!(
        d.labels
            .iter()
            .any(|l| l.role == LabelRole::BlamedAnnotation),
        "the blame points at the contract: {d:?}"
    );
    assert_eq!(hb.diagnostics().len(), 1, "the blame is recorded once");
    assert_eq!(hb.diagnostics()[0].code, DiagCode::PreconditionFailed);
}

#[test]
fn pre_on_one_class_never_runs_for_an_unrelated_class() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class A
  def m(x)
    x
  end
end
class B
  def m(x)
    x
  end
end
pre A, "m" do |x|
  false
end
"#,
    )
    .unwrap();
    assert!(
        hb.eval("B.new.m(1)").is_ok(),
        "A's pre does not run for B#m"
    );
    assert!(hb.diagnostics().is_empty());
    let err = hb.eval("A.new.m(1)").unwrap_err();
    assert_eq!(code(&err), Some(DiagCode::PreconditionFailed));
}
