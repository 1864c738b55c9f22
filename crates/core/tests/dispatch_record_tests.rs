//! Dispatch records: the hook resolves the annotation, the cache key, the
//! `pre` gate and the policy once per (receiver class, method entry) and
//! reuses them until the type table, the class hierarchy or the
//! enforcement configuration changes. Each test changes one such input
//! after the first call and requires the next direct (unchecked) call to
//! see the new answer, on both tiers.

use hummingbird::{DiagCode, ErrorKind, ExecTier, Hummingbird};

const TIERS: [ExecTier; 2] = [ExecTier::TreeWalk, ExecTier::Bytecode];

/// Runs `steps` on a fresh system per tier: each is a program and whether
/// it must raise `ContractBlame`.
fn run(setup: &str, steps: &[(&str, bool)]) {
    for tier in TIERS {
        let mut hb = Hummingbird::builder().exec_tier(tier).build();
        hb.eval(setup).unwrap();
        for (i, (src, blames)) in steps.iter().enumerate() {
            match hb.eval(src) {
                Ok(v) => assert!(!blames, "{tier:?} step {i} `{src}` returned {v:?}"),
                Err(e) => assert!(
                    *blames && e.kind == ErrorKind::ContractBlame,
                    "{tier:?} step {i} `{src}`: {e:?}"
                ),
            }
        }
    }
}

#[test]
fn own_class_annotation_shadowing_an_inherited_one_retypes_the_next_call() {
    run(
        r#"
class Animal
  type :feed, "(Fixnum) -> Fixnum"
  def feed(x)
    x
  end
end
class Dog < Animal
end
"#,
        &[
            ("Dog.new.feed(1)", false),
            ("Dog.new.feed(\"bone\")", true),
            ("class Dog\n type :feed, \"(String) -> String\"\nend", false),
            ("Dog.new.feed(\"bone\")", false),
            ("Dog.new.feed(1)", true),
            ("Animal.new.feed(1)", false),
        ],
    );
}

#[test]
fn first_annotation_of_an_unannotated_method_checks_the_next_call() {
    run(
        r#"
class Box
  def put(x)
    x
  end
end
"#,
        &[
            ("Box.new.put(\"a\")", false),
            ("class Box\n type :put, \"(Fixnum) -> Fixnum\"\nend", false),
            ("Box.new.put(\"a\")", true),
            ("Box.new.put(1)", false),
        ],
    );
}

#[test]
fn a_new_arm_is_seen_by_the_next_call() {
    // The record holds the entry it resolved; adding an arm replaces the
    // table's entry, so the next call must not check against the old one.
    run(
        r#"
class Conv
  type :go, "(Fixnum) -> Fixnum"
  def go(x)
    x
  end
end
"#,
        &[
            ("Conv.new.go(1)", false),
            ("Conv.new.go(\"s\")", true),
            ("class Conv\n type :go, \"(String) -> String\"\nend", false),
            ("Conv.new.go(\"s\")", false),
            ("Conv.new.go(1)", false),
        ],
    );
}

#[test]
fn check_flag_set_by_re_registration_checks_the_next_call() {
    for tier in TIERS {
        let mut hb = Hummingbird::builder().exec_tier(tier).build();
        hb.eval(
            r#"
class Late
  type :bad, "() -> Fixnum"
  def bad
    "no"
  end
end
"#,
        )
        .unwrap();
        hb.eval("Late.new.bad").unwrap();
        assert_eq!(hb.stats().checks_performed, 0, "{tier:?}: trusted");
        hb.eval("class Late\n type :bad, \"() -> Fixnum\", { \"check\" => true }\nend")
            .unwrap();
        let err = hb.eval("Late.new.bad").unwrap_err();
        assert_eq!(err.kind, ErrorKind::TypeBlame, "{tier:?}");
    }
}

#[test]
fn include_after_the_first_call_retypes_the_next_call() {
    run(
        r#"
class Base
  type :put, "(Fixnum) -> Fixnum"
  def put(x)
    x
  end
end
module Stringly
  type :put, "(String) -> String"
end
class Child < Base
end
"#,
        &[
            ("Child.new.put(1)", false),
            ("class Child\n include Stringly\nend", false),
            ("Child.new.put(\"s\")", false),
            ("Child.new.put(1)", true),
            ("Base.new.put(1)", false),
        ],
    );
}

#[test]
fn policy_flips_after_the_first_call_govern_the_next_call() {
    run(
        r#"
class Echo
  type :echo, "(Fixnum) -> Fixnum"
  def echo(x)
    x
  end
end
"#,
        &[
            ("Echo.new.echo(1)", false),
            ("Echo.new.echo(\"s\")", true),
            ("check_policy \"off\"", false),
            ("Echo.new.echo(\"s\")", false),
            ("check_policy \"enforce\"", false),
            ("Echo.new.echo(\"s\")", true),
        ],
    );
}

#[test]
fn pre_added_after_the_first_call_runs_on_the_next_call() {
    for tier in TIERS {
        let mut hb = Hummingbird::builder().exec_tier(tier).build();
        hb.eval("class Gate\n def open(x)\n x\n end\nend\nGate.new.open(0)")
            .unwrap();
        hb.eval("pre Gate, \"open\" do |x|\n x > 0\nend").unwrap();
        hb.eval("Gate.new.open(1)").unwrap();
        let err = hb.eval("Gate.new.open(0)").unwrap_err();
        assert_eq!(err.kind, ErrorKind::ContractBlame, "{tier:?}");
        assert_eq!(
            err.diagnostic.as_ref().map(|d| d.code),
            Some(DiagCode::PreconditionFailed),
            "{tier:?}"
        );
    }
}
