//! Edge-case and failure-injection tests for the interpreter host.

use hb_interp::{ErrorKind, Interp, Value};

fn eval(src: &str) -> Value {
    let mut i = Interp::new();
    i.eval_str(src)
        .unwrap_or_else(|e| panic!("eval failed for {src:?}: {e}"))
}

fn eval_i(src: &str) -> i64 {
    match eval(src) {
        Value::Int(n) => n,
        other => panic!("expected int, got {other:?}"),
    }
}

fn eval_s(src: &str) -> String {
    match eval(src) {
        Value::Str(s) => s.to_string(),
        other => panic!("expected string, got {other:?}"),
    }
}

fn eval_err(src: &str) -> hb_interp::HbError {
    let mut i = Interp::new();
    match i.eval_str(src) {
        Ok(v) => panic!("expected error for {src:?}, got {v:?}"),
        Err(e) => e,
    }
}

#[test]
fn deep_recursion_hits_guard_not_stack_overflow() {
    // The interpreter's frame guard fires at 500 interpreted frames; each
    // frame uses several KB of native stack in debug builds, so give this
    // thread a large stack and verify the guard reports cleanly.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let e = eval_err("def down(n)\n down(n + 1)\nend\ndown(0)");
            assert_eq!(e.kind, ErrorKind::Internal);
            assert!(e.message.contains("stack level too deep"));
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn unset_local_in_untaken_branch_reads_nil() {
    // Ruby: a local assigned only in an untaken branch reads as nil.
    assert!(matches!(eval("x = 1 if false\nx"), Value::Nil));
}

#[test]
fn shadowing_across_method_and_block() {
    let src = r#"
x = 100
def probe
  x = 5
  [1].each { |y| x = x + y }
  x
end
probe + x
"#;
    assert_eq!(eval_i(src), 106);
}

#[test]
fn empty_collections_behave() {
    assert_eq!(eval_i("[].size"), 0);
    assert_eq!(eval_i("{}.size"), 0);
    assert!(matches!(eval("[].first"), Value::Nil));
    assert!(matches!(eval("[].max"), Value::Nil));
    assert_eq!(eval_i("[].sum"), 0);
    assert_eq!(eval_s("[].join(\",\")"), "");
}

#[test]
fn negative_and_out_of_range_indexing() {
    assert!(matches!(eval("[1, 2][5]"), Value::Nil));
    assert_eq!(eval_i("[1, 2, 3][-2]"), 2);
    assert!(matches!(eval("\"ab\"[9]"), Value::Nil));
    assert_eq!(eval_s("\"hello\"[-3..-1]"), "llo");
}

#[test]
fn array_assignment_fills_gaps_with_nil() {
    assert_eq!(eval_i("a = [1]\na[3] = 9\na.size"), 4);
    assert!(matches!(eval("a = [1]\na[3] = 9\na[2]"), Value::Nil));
}

#[test]
fn mutation_through_aliases_is_visible() {
    let src = "a = [1]\nb = a\nb << 2\na.size";
    assert_eq!(eval_i(src), 2);
    let src = "h = {}\ng = h\ng[:k] = 1\nh.size";
    assert_eq!(eval_i(src), 1);
}

#[test]
fn dup_breaks_aliasing() {
    assert_eq!(eval_i("a = [1]\nb = a.dup\nb << 2\na.size"), 1);
}

#[test]
fn string_edge_inflections() {
    assert_eq!(eval_s("\"\".to_s"), "");
    assert_eq!(eval_i("\"\".length"), 0);
    assert_eq!(eval_s("\"a\".capitalize"), "A");
    assert_eq!(eval_s("\"\".reverse"), "");
}

#[test]
fn unicode_strings_are_char_based() {
    assert_eq!(eval_i("\"héllo\".length"), 5);
    assert_eq!(eval_s("\"héllo\"[1]"), "é");
    assert_eq!(eval_s("\"héllo\".reverse"), "olléh");
}

#[test]
fn method_missing_not_defined_raises_no_method() {
    let e = eval_err("class Plain\nend\nPlain.new.ghost");
    assert_eq!(e.kind, ErrorKind::NoMethod);
}

#[test]
fn super_without_parent_method_errors() {
    let e = eval_err("class Solo\n def m\n  super\n end\nend\nSolo.new.m");
    assert_eq!(e.kind, ErrorKind::NoMethod);
    assert!(e.message.contains("super"));
}

#[test]
fn yield_without_block_errors() {
    let e = eval_err("def needs_block\n yield\nend\nneeds_block");
    assert_eq!(e.kind, ErrorKind::ArgumentError);
}

#[test]
fn rescue_rebinds_and_reraise_propagates() {
    let src = r#"
begin
  begin
    raise ArgumentError, "inner"
  rescue ArgumentError => e
    raise RuntimeError, "outer: #{e.message}"
  end
rescue RuntimeError => e
  e.message
end
"#;
    assert_eq!(eval_s(src), "outer: inner");
}

#[test]
fn ensure_runs_even_when_uncaught() {
    let mut i = Interp::new();
    let r = i.eval_str(
        "$log = []\nbegin\n begin\n  raise \"x\"\n ensure\n  $log << \"cleanup\"\n end\nrescue\n $log.join\nend",
    );
    match r.unwrap() {
        Value::Str(s) => assert_eq!(&*s, "cleanup"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn comparison_chains_and_spaceship() {
    assert_eq!(eval_i("1 <=> 2"), -1);
    assert_eq!(eval_i("2 <=> 1"), 1);
    assert_eq!(eval_i("2 <=> 2"), 0);
    assert_eq!(eval_i("\"a\" <=> \"b\""), -1);
    assert!(matches!(eval("1 <=> \"x\""), Value::Nil));
}

#[test]
fn sort_with_custom_comparator_block() {
    assert_eq!(eval_s("[1, 3, 2].sort { |a, b| b <=> a }.join"), "321");
}

#[test]
fn integer_overflow_wraps_not_panics() {
    // The paper omits Bignum promotion (§4 Numeric Hierarchy); we wrap.
    let mut i = Interp::new();
    assert!(i.eval_str("9223372036854775807 + 1").is_ok());
}

#[test]
fn const_reassignment_and_nesting() {
    assert_eq!(eval_i("X = 1\nX = 2\nX"), 2);
    let src = "module M\n Y = 7\nend\nclass M::C\n def g\n  Y\n end\nend\nM::C.new.g";
    assert_eq!(eval_i(src), 7);
}

#[test]
fn define_method_overrides_def_and_vice_versa() {
    let src = r#"
class Flip
  def v
    1
  end
end
Flip.define_method(:v) { 2 }
a = Flip.new.v
class Flip
  def v
    3
  end
end
a * 10 + Flip.new.v
"#;
    assert_eq!(eval_i(src), 23);
}

#[test]
fn remove_method_falls_back_to_superclass() {
    let src = r#"
class P
  def m
    "parent"
  end
end
class C < P
  def m
    "child"
  end
end
C.remove_method(:m)
C.new.m
"#;
    assert_eq!(eval_s(src), "parent");
}

#[test]
fn frozen_string_keys_hash_correctly() {
    assert_eq!(eval_i("h = { \"a b\" => 1 }\nh[\"a b\"]"), 1);
    // Int and Float keys unify (Ruby eql? does not, but raw structural
    // equality is our documented semantics).
    assert_eq!(eval_i("h = {}\nh[1] = 5\nh[1]"), 5);
}

#[test]
fn while_loop_scoping_keeps_outer_vars() {
    let src = "total = 0\ni = 0\nwhile i < 3\n inner = i * 2\n total += inner\n i += 1\nend\ntotal";
    assert_eq!(eval_i(src), 6);
}

#[test]
fn case_without_scrutinee_uses_truthiness() {
    let src = r#"
x = 7
case
when x > 10 then "big"
when x > 5 then "medium"
else "small"
end
"#;
    assert_eq!(eval_s(src), "medium");
}

#[test]
fn to_s_fallback_for_plain_objects() {
    let src = "class Blob\nend\n\"#{Blob.new}\"";
    assert_eq!(eval_s(src), "#<Blob>");
}

#[test]
fn output_capture_is_ordered() {
    let mut i = Interp::new();
    i.eval_str("print \"a\"\nputs \"b\"\nprint \"c\"").unwrap();
    assert_eq!(i.take_output(), "ab\nc");
    assert_eq!(i.take_output(), "", "take drains");
}

/// Runs `setup`, then `refused`, which must raise `TypeError` with
/// `message` and leave the class graph's generation and shape fingerprint
/// where `setup` left them, then `after` on the same interpreter.
fn refused_reopening(setup: &str, refused: &str, message: &str, after: &str) -> Value {
    let mut i = Interp::new();
    i.eval_str(setup).expect("setup runs");
    let shape = (
        i.registry.hierarchy_generation(),
        i.registry.shape_fingerprint(),
    );
    let e = i.eval_str(refused).expect_err("the reopening is refused");
    assert_eq!(
        (e.kind, e.message.as_str()),
        (ErrorKind::TypeError, message)
    );
    assert_eq!(
        (
            i.registry.hierarchy_generation(),
            i.registry.shape_fingerprint()
        ),
        shape,
        "a refused reopening changes the class graph"
    );
    i.eval_str(after).expect("the interpreter still runs")
}

#[test]
fn giving_object_a_superclass_raises_instead_of_closing_a_cycle() {
    // Both programs once wired a superclass onto `Object`, and the
    // ancestor walk followed the cycle until an allocation failed.
    let v = refused_reopening(
        "",
        "class Object < Object\nend",
        "superclass mismatch for class Object",
        "1.to_s",
    );
    assert_eq!(v.primitive_to_s().as_deref(), Some("1"));
    let v = refused_reopening(
        "class Foo\nend",
        "class Object < Foo\nend",
        "superclass mismatch for class Object",
        "Foo.new.to_s",
    );
    assert!(matches!(v, Value::Str(_)));
}

#[test]
fn reopening_under_another_superclass_raises_and_keeps_the_class() {
    let setup = "class A\nend\nclass B\nend\nclass C < A\n def x\n  1\n end\nend";
    let v = refused_reopening(
        setup,
        "class C < B\n def y\n  2\n end\nend",
        "superclass mismatch for class C",
        "C.superclass == A && !C.new.respond_to?(:y)",
    );
    assert!(matches!(v, Value::Bool(true)), "{v:?}");
    // Naming the class's own superclass, or none, reopens it.
    let src =
        format!("{setup}\nclass C < A\n def y\n  2\n end\nend\nclass C\nend\nC.new.x + C.new.y");
    assert_eq!(eval_i(&src), 3);
}

#[test]
fn class_reopening_a_module_raises() {
    let v = refused_reopening(
        "module M\n def m\n  1\n end\nend",
        "class M\nend",
        "M is not a class",
        "module M\n def n\n  2\n end\nend\nclass K\n include M\nend\nK.new.m + K.new.n",
    );
    assert_eq!(v.primitive_to_s().as_deref(), Some("3"));
    assert_eq!(
        eval_err("class Comparable < Object\nend").message,
        "Comparable is not a class"
    );
}

#[test]
fn module_reopening_a_class_raises() {
    let v = refused_reopening(
        "class K\n def a\n  1\n end\nend",
        "module K\n def b\n  2\n end\nend",
        "K is not a module",
        "[K.new.a, K.new.respond_to?(:b)]",
    );
    assert_eq!(format!("{v:?}"), "[1, false]");
    assert_eq!(
        eval_err("module String\nend").message,
        "String is not a module"
    );
}

#[test]
fn including_a_class_raises_before_anything_is_included() {
    let setup =
        "module M\n def m\n  1\n end\nend\nclass Plain\n def pm\n  2\n end\nend\nclass K\nend";
    let mut i = Interp::new();
    i.eval_str(setup).expect("setup runs");
    let shape = (
        i.registry.hierarchy_generation(),
        i.registry.shape_fingerprint(),
    );
    for refused in ["class K\n include Plain\nend", "K.include(M, Plain)"] {
        let e = i.eval_str(refused).expect_err("the include is refused");
        assert_eq!(
            (e.kind, e.message.as_str()),
            (
                ErrorKind::TypeError,
                "wrong argument type Class (expected Module)"
            ),
            "{refused}"
        );
        assert_eq!(
            (
                i.registry.hierarchy_generation(),
                i.registry.shape_fingerprint()
            ),
            shape,
            "{refused}: a refused include changes the class graph"
        );
    }
    let v = i
        .eval_str("[K.new.respond_to?(:m), K.new.respond_to?(:pm)]")
        .expect("runs");
    assert_eq!(format!("{v:?}"), "[false, false]");
    assert_eq!(eval_i(&format!("{setup}\nK.include(M)\nK.new.m")), 1);
}

#[test]
fn zsuper_forwards_the_calls_arguments_past_optional_parameters() {
    // The call's own arguments, not the parameters' current values: an
    // omitted optional takes the superclass's default, and a reassigned
    // parameter is not seen.
    let src = r#"
class Base
  def greet(a, b = "base")
    a + "/" + b
  end
end
class Kid < Base
  def greet(a, b = "kid")
    a = "changed"
    super
  end
end
k = Kid.new
[k.greet("x"), k.greet("x", "y")]
"#;
    assert_eq!(format!("{:?}", eval(src)), r#"["x/base", "x/y"]"#);
    let rest = r#"
class Base
  def all(*xs)
    xs.size
  end
end
class Kid < Base
  def all(a, b = 2, *rest)
    super
  end
end
[Kid.new.all(1), Kid.new.all(1, 2, 3, 4)]
"#;
    assert_eq!(format!("{:?}", eval(rest)), "[1, 4]");
}

#[test]
fn zsuper_from_a_block_raises_and_super_forwards_the_block() {
    let e = eval_err(
        r#"
class Base
  def twice(x)
    [x, x]
  end
end
class Kid < Base
  def twice(x)
    [1].map { |i| super }
  end
end
Kid.new.twice(5)
"#,
    );
    assert_eq!(
        (e.kind, e.message.as_str()),
        (ErrorKind::NameError, "super called outside of method")
    );
    let src = r#"
class Base
  def each_one(x)
    yield x
  end
end
class Kid < Base
  def each_one(x)
    super
  end
end
Kid.new.each_one(3) { |v| v * 10 }
"#;
    assert_eq!(eval_i(src), 30);
}

#[test]
fn nested_constants_resolve_innermost_first_then_at_the_top_level() {
    let src = r#"
X = 100
module A
  B = 1
  X = 10
  class C
    def b
      B
    end
    def ab
      A::B
    end
    def x
      X
    end
  end
  def self.top
    Y
  end
end
Y = 1000
c = A::C.new
[c.b, c.ab, c.x, A.top]
"#;
    assert_eq!(format!("{:?}", eval(src)), "[1, 1, 10, 1000]");
    for (program, missing) in [
        ("module A\n def self.m\n  Nope\n end\nend\nA.m", "Nope"),
        ("module A\nend\nA::Nope", "A::Nope"),
        (
            "class D\n def m\n  A::B::Nope\n end\nend\nD.new.m",
            "A::B::Nope",
        ),
    ] {
        let e = eval_err(program);
        assert_eq!(
            (e.kind, e.message),
            (
                ErrorKind::NameError,
                format!("uninitialized constant {missing}")
            ),
            "{program}"
        );
    }
}
