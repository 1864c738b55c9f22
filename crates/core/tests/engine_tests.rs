//! Engine integration tests: just-in-time checking, memoisation,
//! invalidation, dynamic checks, metaprogramming flows from the paper's
//! figures, and dev-mode reloading.

use hummingbird::{ErrorKind, Hummingbird, MethodKey, Mode};

fn hb() -> Hummingbird {
    Hummingbird::builder().build()
}

#[test]
fn checks_on_first_call_and_caches() {
    let mut hb = hb();
    hb.eval(
        r#"
class Talk
  type :owner?, "(String) -> %bool", { "check" => true }
  def owner?(user)
    user == "alice"
  end
end
t = Talk.new
t.owner?("alice")
t.owner?("bob")
t.owner?("carol")
"#,
    )
    .unwrap();
    let s = hb.stats();
    assert_eq!(s.checks_performed, 1, "checked once at first call");
    assert_eq!(s.cache_hits, 2, "later calls hit the cache");
}

#[test]
fn no_cache_mode_rechecks_every_call() {
    let mut hb = Hummingbird::builder().mode(Mode::NoCache).build();
    hb.eval(
        r#"
class Talk
  type :go, "() -> Fixnum", { "check" => true }
  def go
    1
  end
end
t = Talk.new
t.go
t.go
t.go
"#,
    )
    .unwrap();
    let s = hb.stats();
    assert_eq!(s.checks_performed, 3);
    assert_eq!(s.cache_hits, 0);
}

#[test]
fn original_mode_does_nothing() {
    let mut hb = Hummingbird::builder().mode(Mode::Original).build();
    hb.eval(
        r#"
class Talk
  type :go, "() -> Fixnum", { "check" => true }
  def go
    "not an int"
  end
end
Talk.new.go
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 0);
    assert_eq!(hb.stats().intercepted_calls, 0);
}

#[test]
fn type_error_is_blame_at_call() {
    let mut hb = hb();
    // Loading the class is fine (bodies are not checked at definition,
    // paper rule (TDef)).
    hb.eval(
        r#"
class Talk
  type :bad, "() -> Fixnum", { "check" => true }
  def bad
    "string"
  end
end
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 0);
    // The error appears when the method is first called.
    let err = hb.eval("Talk.new.bad").unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(err.message.contains("Talk#bad"), "{}", err.message);
}

#[test]
fn blame_is_not_rescuable() {
    let mut hb = hb();
    let err = hb
        .eval(
            r#"
class T
  type :bad, "() -> Fixnum", { "check" => true }
  def bad
    "s"
  end
end
begin
  T.new.bad
rescue => e
  "swallowed"
end
"#,
        )
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
}

#[test]
fn def_and_type_order_is_free() {
    // Paper: "there is no ordering dependency between def and type".
    let mut hb = hb();
    hb.eval(
        r#"
class A
  def m(x)
    x + 1
  end
end
class A
  type :m, "(Fixnum) -> Fixnum", { "check" => true }
end
A.new.m(1)
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
}

#[test]
fn calling_method_typed_in_same_body_before_execution_fails() {
    // The paper's §3 example: a method that defines B.m, types it, then
    // calls it — the type expression has not executed when the body is
    // checked, so the call has no type.
    let mut hb = hb();
    let err = hb
        .eval(
            r#"
class B
end
class A
  type :m, "() -> %any", { "check" => true }
  def m
    B.define_method(:bm) { 1 }
    type B, :bm, "() -> Fixnum"
    B.new.bm
  end
end
A.new.m
"#,
        )
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(err.message.contains("no type for B#bm"), "{}", err.message);
}

#[test]
fn figure2_dynamic_method_with_generated_type_checks() {
    // Fig. 2 end-to-end: define_dynamic_method creates methods and a pre
    // hook supplies their types; bodies are checked at first call.
    let mut hb = hb();
    hb.eval(
        r##"
module RolifyDynamic
  def define_dynamic_method(role_name)
    self.class.class_eval do
      define_method("is_#{role_name}?".to_sym) do
        has_role?("#{role_name}")
      end if !method_defined?("is_#{role_name}?".to_sym)
    end
  end
end
class User
  include RolifyDynamic
  type :has_role?, "(String) -> %bool", { "check" => true }
  def initialize
    @roles = []
  end
  var_type :@roles, "Array<String>"
  def has_role?(r)
    @roles.include?(r)
  end
end
pre User, :define_dynamic_method do |role_name|
  type "is_#{role_name}?", "() -> %bool", { "check" => true }
  true
end
user = User.new
user.define_dynamic_method("professor")
user.is_professor?
"##,
    )
    .unwrap();
    let s = hb.stats();
    // has_role? and is_professor? both statically checked.
    assert!(
        s.checked_methods.contains("User#is_professor?"),
        "{:?}",
        s.checked_methods
    );
    assert!(s.checked_methods.contains("User#has_role?"));
    // The generated annotation counts as dynamically generated and used.
    let rs = hb.rdl_stats();
    assert!(rs.dynamic_generated >= 1);
    assert!(rs.dynamic_used >= 1);
}

#[test]
fn figure3_struct_add_types_checks_consumer() {
    let mut hb = hb();
    hb.eval(
        r##"
class Struct
  def self.add_types(*types)
    members.zip(types).each {|pair|
      name = pair[0]
      t = pair[1]
      self.class_eval do
        type name, "() -> #{t}"
        type "#{name}=", "(#{t}) -> #{t}"
      end
    }
  end
end
Transaction = Struct.new(:kind, :account_name, :amount)
Transaction.add_types("String", "String", "String")
class ApplicationRunner
  type :process, "(Array<Transaction>) -> Array<String>", { "check" => true }
  def process(transactions)
    transactions.map { |t| t.account_name.upcase }
  end
end
ApplicationRunner.new.process([Transaction.new("credit", "alice", "100")])
"##,
    )
    .unwrap();
    let s = hb.stats();
    assert!(s.checked_methods.contains("ApplicationRunner#process"));
    let rs = hb.rdl_stats();
    assert!(rs.dynamic_generated >= 6, "{rs:?}");
}

#[test]
fn redefinition_invalidates_and_rechecks() {
    let mut hb = hb();
    hb.eval(
        r#"
class A
  type :m, "() -> Fixnum", { "check" => true }
  def m
    1
  end
end
A.new.m
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
    // Redefine with a different body: next call rechecks.
    hb.eval("class A\n def m\n  2\n end\nend\nA.new.m").unwrap();
    assert_eq!(hb.stats().checks_performed, 2);
    // Redefine with a type-incorrect body: next call blames.
    let err = hb
        .eval("class A\n def m\n  \"s\"\n end\nend\nA.new.m")
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
}

#[test]
fn define_method_redefinition_rechecks_when_a_captured_local_changes_type() {
    // Fig. 2: a proc body is judged under its captured locals' types, so
    // the same block literal capturing a value of another type is a new
    // body.
    let mut hb = hb();
    hb.eval(
        r#"
class P
  type :m, "() -> Fixnum", { "check" => true }
  def self.make(v)
    define_method(:m) { v }
  end
end
P.make(1)
P.new.m
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
    let v = hb.eval("P.make(2)\nP.new.m").unwrap();
    assert_eq!(format!("{v:?}"), "2");
    assert_eq!(
        hb.stats().checks_performed,
        1,
        "another Fixnum capture keeps the derivation"
    );
    let err = hb.eval("P.make(\"s\")\nP.new.m").unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame, "{err}");
    assert_eq!(hb.stats().checks_failed, 1);
}

#[test]
fn dependent_invalidation_on_type_replace() {
    let mut hb = hb();
    hb.eval(
        r#"
class Helper
  type :value, "() -> Fixnum", { "check" => true }
  def value
    41
  end
end
class UserOfHelper
  type :compute, "(Helper) -> Fixnum", { "check" => true }
  def compute(h)
    h.value + 1
  end
end
UserOfHelper.new.compute(Helper.new)
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 2);
    // Replace Helper#value's type: compute's cached derivation used it, so
    // it must recheck — and now fail, since value returns String.
    let err = hb
        .eval(
            r#"
class Helper
  type :value, "() -> String", { "replace" => true }
  def value
    "forty-one"
  end
end
UserOfHelper.new.compute(Helper.new)
"#,
        )
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(
        err.message.contains("UserOfHelper#compute"),
        "{}",
        err.message
    );
}

#[test]
fn adding_intersection_arm_keeps_dependents() {
    // §4 "Cache Invalidation": a new arm re-checks the method itself but
    // does not invalidate dependents.
    let mut hb = hb();
    hb.eval(
        r#"
class H
  type :v, "() -> Fixnum", { "check" => true }
  def v
    1
  end
end
class U
  type :c, "(H) -> Fixnum", { "check" => true }
  def c(h)
    h.v + 1
  end
end
U.new.c(H.new)
"#,
    )
    .unwrap();
    let before = hb.stats();
    assert_eq!(before.checks_performed, 2);
    // Add an arm to H#v (the body satisfies both: 1 is a Fixnum... second
    // arm takes an optional arg form).
    hb.eval("class H\n type :v, \"(?Fixnum) -> Fixnum\"\nend")
        .unwrap();
    hb.eval("U.new.c(H.new)").unwrap();
    let after = hb.stats();
    // H#v rechecked (against both arms); U#c stayed cached.
    assert_eq!(after.dependent_invalidations, 0);
    assert!(after.checked_methods.contains("H#v"));
    assert_eq!(
        after.checks_performed,
        before.checks_performed + 1,
        "only H#v rechecked"
    );
}

#[test]
fn module_methods_cached_per_mixin_class() {
    // §4 "Modules": M#foo checks separately as C#foo and D#foo.
    let mut hb = hb();
    hb.eval(
        r#"
module M
  def foo(x)
    bar(x)
  end
end
class C
  include M
  type :foo, "(Fixnum) -> Fixnum", { "check" => true }
  type :bar, "(Fixnum) -> Fixnum", { "check" => true }
  def bar(x)
    x + 1
  end
end
class D
  include M
  type :foo, "(Fixnum) -> String", { "check" => true }
  type :bar, "(Fixnum) -> String", { "check" => true }
  def bar(x)
    x.to_s
  end
end
C.new.foo(1)
D.new.foo(2)
"#,
    )
    .unwrap();
    let s = hb.stats();
    assert!(s.checked_methods.contains("C#foo"));
    assert!(s.checked_methods.contains("D#foo"));
    assert_eq!(s.checks_performed, 4);
}

#[test]
fn dynamic_arg_check_from_unchecked_caller() {
    let mut hb = hb();
    hb.eval(
        r#"
class T
  type :takes_int, "(Fixnum) -> Fixnum", { "check" => true }
  def takes_int(x)
    x + 1
  end
end
"#,
    )
    .unwrap();
    // Top-level caller is unchecked: args are dynamically checked.
    hb.eval("T.new.takes_int(1)").unwrap();
    assert!(hb.stats().dyn_arg_checks >= 1);
    let err = hb.eval("T.new.takes_int(\"oops\")").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame);
}

#[test]
fn dyn_checks_skipped_between_checked_methods() {
    let mut hb = hb();
    hb.eval(
        r#"
class T
  type :outer, "() -> Fixnum", { "check" => true }
  type :inner, "(Fixnum) -> Fixnum", { "check" => true }
  def outer
    inner(5)
  end
  def inner(x)
    x + 1
  end
end
"#,
    )
    .unwrap();
    hb.eval("T.new.outer").unwrap();
    let with_elim = hb.stats().dyn_arg_checks;
    // Only the outer call (from the unchecked top level) is dyn-checked;
    // the inner call comes from a statically checked frame.
    assert_eq!(with_elim, 1, "inner call must skip the dynamic check");
}

#[test]
fn always_dyn_check_flag_overrides_elimination() {
    let mut hb = hb();
    hb.eval(
        r#"
class T
  type :outer, "() -> Fixnum", { "check" => true }
  type :params_like, "(Fixnum) -> Fixnum", { "check" => true, "dyn" => true }
  def outer
    params_like(5)
  end
  def params_like(x)
    x + 1
  end
end
"#,
    )
    .unwrap();
    hb.eval("T.new.outer").unwrap();
    assert_eq!(
        hb.stats().dyn_arg_checks,
        2,
        "params-style methods always check"
    );
}

#[test]
fn rdl_cast_checks_dynamically_and_promotes_statically() {
    let mut hb = hb();
    hb.eval(
        r#"
class Loader
  type :load_ints, "(Array) -> Fixnum", { "check" => true }
  def load_ints(raw)
    xs = raw.rdl_cast("Array<Fixnum>")
    xs[0] + 1
  end
end
Loader.new.load_ints([1, 2, 3])
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().cast_sites.len(), 1);
    // A failing cast is contract blame.
    let err = hb.eval("Loader.new.load_ints([1, \"x\"])").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame);
}

#[test]
fn reload_unchanged_method_keeps_cache() {
    let mut hb = hb();
    let v1 = r#"
class A
  def stable
    1
  end
  def changing
    1
  end
end
"#;
    hb.load_file("a.rb", v1).unwrap();
    hb.eval(
        r#"
class A
  type :stable, "() -> Fixnum", { "check" => true }
  type :changing, "() -> Fixnum", { "check" => true }
end
A.new.stable
A.new.changing
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 2);
    // Reload with only `changing` changed.
    let v2 = r#"
class A
  def stable
    1
  end
  def changing
    2
  end
end
"#;
    let report = hb.reload_file("a.rb", v2).unwrap();
    assert_eq!(report.changed, vec!["A#changing"]);
    assert!(report.added.is_empty());
    assert!(report.removed.is_empty());
    hb.eval("A.new.stable\nA.new.changing").unwrap();
    let s = hb.stats();
    // Only `changing` rechecked; `stable` still cached.
    assert_eq!(s.checks_performed, 3, "{:?}", s.checked_methods);
}

#[test]
fn reload_detects_added_and_removed() {
    let mut hb = hb();
    hb.load_file("b.rb", "class B\n def gone\n 1\n end\nend")
        .unwrap();
    let report = hb
        .reload_file("b.rb", "class B\n def fresh\n 2\n end\nend")
        .unwrap();
    assert_eq!(report.added, vec!["B#fresh"]);
    assert_eq!(report.removed, vec!["B#gone"]);
}

#[test]
fn reload_names_removed_methods_after_the_store_evicts_the_loaded_program() {
    const V1: &str = "class Evicted\n def kept\n 1\n end\n def gone\n 2\n end\nend";
    let mut hb = hb();
    hb.load_file("evicted.rb", V1).unwrap();
    // Push the loaded file and program out of this thread's source store.
    for i in 0..=hb_syntax::store::STORE_CAPACITY {
        let pad = format!("evicted_pad_{i} = {i}\n");
        hb_syntax::parse_in(&mut hb_syntax::SourceMap::new(), "pad.rb", &pad).unwrap();
    }
    let report = hb
        .reload_file("evicted.rb", "class Evicted\n def kept\n 1\n end\nend")
        .unwrap();
    assert_eq!(report.removed, vec!["Evicted#gone"]);
    assert!(report.changed.is_empty() && report.added.is_empty());
    assert!(hb.eval("Evicted.new.gone").is_err(), "the method is gone");
    // The baseline came from the system, not the store: the store holds
    // no program for the loaded version.
    let (id, file) = hb
        .source_map()
        .files()
        .find(|(_, f)| f.text == V1)
        .expect("the loaded version stays registered");
    let before = hb_syntax::store_stats();
    hb_syntax::parse_file(id, file).unwrap();
    assert_eq!(hb_syntax::store_stats().misses, before.misses + 1);
}

#[test]
fn reload_invalidates_dependents_of_changed_methods() {
    let mut hb = hb();
    hb.load_file(
        "c.rb",
        r#"
class Dep
  def base
    1
  end
  def caller_m
    base + 1
  end
end
"#,
    )
    .unwrap();
    hb.eval(
        r#"
class Dep
  type :base, "() -> Fixnum", { "check" => true }
  type :caller_m, "() -> Fixnum", { "check" => true }
end
Dep.new.caller_m
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 2);
    let report = hb
        .reload_file(
            "c.rb",
            r#"
class Dep
  def base
    2
  end
  def caller_m
    base + 1
  end
end
"#,
        )
        .unwrap();
    assert_eq!(report.changed, vec!["Dep#base"]);
    hb.eval("Dep.new.caller_m").unwrap();
    // base changed → base rechecked; caller_m depends on base's type...
    // which did not change, but the paper's reload invalidates dependents
    // of changed methods, so caller_m rechecks too.
    let s = hb.stats();
    assert!(s.checks_performed >= 4, "{}", s.checks_performed);
}

#[test]
fn reload_reports_a_method_defined_over_an_inherited_one_as_added() {
    let mut hb = hb();
    let base = "class Base\n def greet\n 1\n end\nend\nclass Kid < Base\n";
    hb.load_file("kid.rb", &format!("{base}end")).unwrap();
    let report = hb
        .reload_file("kid.rb", &format!("{base} def greet\n 1\n end\nend"))
        .unwrap();
    assert_eq!(report.added, vec!["Kid#greet"]);
    assert!(report.changed.is_empty() && report.removed.is_empty());
}

#[test]
fn reload_reports_a_method_defined_over_a_builtin_as_added() {
    let mut hb = hb();
    hb.load_file("to_s.rb", "class Kid\nend").unwrap();
    let report = hb
        .reload_file("to_s.rb", "class Kid\n def to_s\n \"kid\"\n end\nend")
        .unwrap();
    assert_eq!(report.added, vec!["Kid#to_s"]);
    assert!(report.changed.is_empty() && report.removed.is_empty());
}

#[test]
fn reload_keeps_dependents_of_an_unchanged_callee_that_was_never_checked() {
    let src = r#"
class Pair
  def callee
    1
  end
  def caller_m(n)
    if n > 0
      callee
    else
      0
    end
  end
end
"#;
    let mut hb = hb();
    hb.load_file("pair.rb", src).unwrap();
    hb.eval(
        r#"
class Pair
  type :callee, "() -> Fixnum", { "check" => true }
  type :caller_m, "(Fixnum) -> Fixnum", { "check" => true }
end
Pair.new.caller_m(0)
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1, "callee is never called");
    // The same bodies, one line down.
    let report = hb.reload_file("pair.rb", &format!("\n{src}")).unwrap();
    assert!(report.changed.is_empty(), "{report:?}");
    assert_eq!(report.dependents_invalidated, 0);
    hb.eval("Pair.new.caller_m(0)").unwrap();
    assert_eq!(hb.stats().checks_performed, 1, "nothing is re-checked");
}

#[test]
fn reload_does_not_report_a_method_removed_before_it() {
    let mut hb = hb();
    hb.load_file(
        "foo.rb",
        "class Foo\n def bar\n 1\n end\n def baz\n 2\n end\nend",
    )
    .unwrap();
    hb.eval("class Foo\n remove_method :bar\nend").unwrap();
    let report = hb
        .reload_file("foo.rb", "class Foo\n def baz\n 2\n end\nend")
        .unwrap();
    assert!(report.removed.is_empty(), "{report:?}");
    assert!(report.changed.is_empty() && report.added.is_empty());
}

#[test]
fn reload_reports_changes_judged_while_the_file_runs() {
    // The call between the class bodies dispatches through the engine's
    // hook, which judges `a`'s redefinition before the file ends.
    let version = |n: u32| {
        format!("class M\n def a\n {n}\n end\nend\nM.new.a\nclass M\n def b\n {n}\n end\nend\n")
    };
    let mut hb = hb();
    hb.load_file("m.rb", &version(1)).unwrap();
    hb.eval("class M\n type :a, \"() -> Fixnum\", { \"check\" => true }\nend\nM.new.a")
        .unwrap();
    let report = hb.reload_file("m.rb", &version(2)).unwrap();
    assert_eq!(report.changed, vec!["M#a", "M#b"]);
    assert!(report.added.is_empty() && report.removed.is_empty());
}

#[test]
fn phases_count_annotation_check_alternations() {
    let mut hb = hb();
    hb.eval(
        r#"
class P
  type :a, "() -> Fixnum", { "check" => true }
  type :b, "() -> Fixnum", { "check" => true }
  def a
    1
  end
  def b
    2
  end
end
P.new.a
P.new.b
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().phases, 1, "annotations then checks = one phase");
    hb.eval(
        r#"
class P
  type :c, "() -> Fixnum", { "check" => true }
  def c
    3
  end
end
P.new.c
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().phases, 2);
}

#[test]
fn trusted_annotations_are_not_statically_checked() {
    let mut hb = hb();
    hb.eval(
        r#"
class Lib
  type :helper, "() -> Fixnum"
  def helper
    "actually a string"
  end
end
Lib.new.helper
"#,
    )
    .unwrap();
    // No static check ran (trusted), so the lie is not caught statically.
    assert_eq!(hb.stats().checks_performed, 0);
}

#[test]
fn unannotated_methods_run_unchecked() {
    let mut hb = hb();
    hb.eval("class Z\n def free\n \"anything\"\n end\nend\nZ.new.free")
        .unwrap();
    assert_eq!(hb.stats().checks_performed, 0);
}

#[test]
fn class_level_methods_check_too() {
    let mut hb = hb();
    hb.eval(
        r#"
class Registry
  type "self.register", "(String) -> String", { "check" => true }
  def self.register(name)
    name.upcase
  end
end
Registry.register("x")
"#,
    )
    .unwrap();
    assert!(hb.stats().checked_methods.contains("Registry.register"));
}

#[test]
fn check_error_inside_block_is_reported() {
    let mut hb = hb();
    let err = hb
        .eval(
            r#"
class W
  type :sum_names, "(Array<String>) -> Fixnum", { "check" => true }
  def sum_names(names)
    total = 0
    names.each do |n|
      total += n
    end
    total
  end
end
W.new.sum_names(["a"])
"#,
        )
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(
        err.message.contains("Fixnum#+") || err.message.contains("argument type mismatch"),
        "{}",
        err.message
    );
}

#[test]
fn cache_dump_reports_dependency_sets() {
    use hummingbird::MethodKey;
    let mut hb = hb();
    hb.eval(
        r#"
class Chain3
  type :base, "() -> Fixnum", { "check" => true }
  type :mid, "() -> Fixnum", { "check" => true }
  type :top, "() -> Fixnum", { "check" => true }
  def base
    1
  end
  def mid
    base + 1
  end
  def top
    mid + 1
  end
end
Chain3.new.top
"#,
    )
    .unwrap();
    let dump = hb.engine.cache_dump();
    assert_eq!(dump.len(), 3, "{dump:?}");
    // Sorted by interned key, alphabetically: base, mid, top.
    assert_eq!(dump[0].key, MethodKey::instance("Chain3", "base"));
    let top = dump
        .iter()
        .find(|e| e.key == MethodKey::instance("Chain3", "top"))
        .unwrap();
    assert!(
        top.deps.contains(&MethodKey::instance("Chain3", "mid")),
        "top's derivation consulted mid's annotation: {top:?}"
    );
    let mid = dump
        .iter()
        .find(|e| e.key == MethodKey::instance("Chain3", "mid"))
        .unwrap();
    assert!(mid.deps.contains(&MethodKey::instance("Chain3", "base")));
    // Every entry's recorded sig_version matches the live table's.
    for e in &dump {
        let entry = hb.rdl.entry(&e.key).expect("annotation exists");
        assert_eq!(e.sig_version, entry.version, "{:?}", e.key);
    }
}

#[test]
fn dependent_chain_invalidation_is_one_level() {
    // Definition 1(2): replacing base's type invalidates base and the
    // entries that used base's type (mid) — but not mid's dependents (top),
    // whose consulted types are all unchanged.
    use hummingbird::MethodKey;
    let mut hb = hb();
    hb.eval(
        r#"
class Chain3
  type :base, "() -> Fixnum", { "check" => true }
  type :mid, "() -> Fixnum", { "check" => true }
  type :top, "() -> Fixnum", { "check" => true }
  def base
    1
  end
  def mid
    base + 1
  end
  def top
    mid + 1
  end
end
Chain3.new.top
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 3);
    hb.eval("class Chain3\n type :base, \"() -> Fixnum\", { \"replace\" => true }\nend")
        .unwrap();
    hb.eval("Chain3.new.top").unwrap();
    let s = hb.stats();
    // top stayed cached (a hit); base and mid re-checked.
    assert_eq!(s.checks_performed, 5, "{:?}", hb.engine.cache_dump());
    assert_eq!(s.dependent_invalidations, 1, "only mid was a dependent");
    let dump = hb.engine.cache_dump();
    assert!(dump
        .iter()
        .any(|e| e.key == MethodKey::instance("Chain3", "top")));
}

#[test]
fn module_mixin_cache_keys_are_per_receiver_class() {
    // §4 "Modules": one method body in the module yields one interned cache
    // key per mix-in class, each with its own dependency set.
    use hummingbird::MethodKey;
    let mut hb = hb();
    hb.eval(
        r#"
module Greeter
  def greet(x)
    hello(x)
  end
end
class CG
  include Greeter
  type :greet, "(Fixnum) -> Fixnum", { "check" => true }
  type :hello, "(Fixnum) -> Fixnum", { "check" => true }
  def hello(x)
    x + 1
  end
end
class DG
  include Greeter
  type :greet, "(Fixnum) -> String", { "check" => true }
  type :hello, "(Fixnum) -> String", { "check" => true }
  def hello(x)
    x.to_s
  end
end
CG.new.greet(1)
DG.new.greet(2)
"#,
    )
    .unwrap();
    let dump = hb.engine.cache_dump();
    let cg = dump
        .iter()
        .find(|e| e.key == MethodKey::instance("CG", "greet"))
        .expect("module method cached under CG");
    let dg = dump
        .iter()
        .find(|e| e.key == MethodKey::instance("DG", "greet"))
        .expect("module method cached under DG");
    // Same body (same lowered method entry), distinct per-class keys and
    // per-class dependency sets.
    assert_eq!(cg.method_entry_id, dg.method_entry_id);
    assert!(cg.deps.contains(&MethodKey::instance("CG", "hello")));
    assert!(dg.deps.contains(&MethodKey::instance("DG", "hello")));
    assert!(!cg.deps.contains(&MethodKey::instance("DG", "hello")));
    // Invalidating DG#hello's type must not touch CG's cached derivation.
    hb.eval("class DG\n type :hello, \"(Fixnum) -> String\", { \"replace\" => true }\nend")
        .unwrap();
    hb.eval("CG.new.greet(3)\nDG.new.greet(4)").unwrap();
    let s = hb.stats();
    assert!(
        s.checked_methods.contains("CG#greet") && s.checked_methods.contains("DG#greet"),
        "{:?}",
        s.checked_methods
    );
    assert_eq!(
        s.dependent_invalidations, 1,
        "only DG#greet depended on DG#hello"
    );
}

// ----- invalidation-soundness bug sweep (this PR's satellite fixes) --------

#[test]
fn stale_reverse_dep_edges_are_pruned_on_recheck() {
    // Bug: edges from a superseded derivation lingered in `dependents`,
    // so changing a dependency the *current* derivation never consulted
    // spuriously invalidated (and re-checked) the method.
    let mut hb = hb();
    hb.eval(
        r#"
class H1
  type :h, "() -> Fixnum"
  def h
    1
  end
end
class H2
  type :h, "() -> Fixnum"
  def h
    2
  end
end
class Caller
  type :m, "() -> Fixnum", { "check" => true }
  def m
    H1.new.h
  end
end
Caller.new.m
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
    // Redefine the body to consult H2 instead of H1; the recheck builds a
    // fresh derivation whose dependency set no longer mentions H1#h.
    hb.eval("class Caller\n def m\n  H2.new.h\n end\nend\nCaller.new.m")
        .unwrap();
    assert_eq!(hb.stats().checks_performed, 2);
    let dump = hb.engine.cache_dump();
    let entry = dump
        .iter()
        .find(|e| e.key == MethodKey::instance("Caller", "m"))
        .expect("Caller#m cached");
    assert!(!entry.deps.contains(&MethodKey::instance("H1", "h")));
    // Replacing H1#h must now be invisible to Caller#m: no spurious
    // dependent invalidation, no third check.
    hb.eval("class H1\n type :h, \"() -> String\", { \"replace\" => true }\nend\nCaller.new.m")
        .unwrap();
    let s = hb.stats();
    assert_eq!(
        s.dependent_invalidations, 0,
        "stale H1#h -> Caller#m edge must have been pruned"
    );
    assert_eq!(s.checks_performed, 2, "no spurious recheck");
}

#[test]
fn invalidations_count_only_actual_removals() {
    // Bug: `invalidate` bumped `stats.invalidations` even when the key had
    // no cache entry, over-counting Table-2-style reports.
    let mut hb = hb();
    hb.eval(
        r#"
class Quiet
  type :never_called, "() -> Fixnum", { "check" => true }
  def never_called
    1
  end
end
"#,
    )
    .unwrap();
    // Replace the type of a method that was never called (nothing cached),
    // then force event processing with an unrelated checked call.
    hb.eval(
        r#"
class Quiet
  type :never_called, "() -> String", { "replace" => true }
end
class Unrelated
  type :go, "() -> Fixnum", { "check" => true }
  def go
    7
  end
end
Unrelated.new.go
"#,
    )
    .unwrap();
    let s = hb.stats();
    assert_eq!(
        s.invalidations, 0,
        "no entry was cached, so nothing was invalidated"
    );
    assert_eq!(s.dependent_invalidations, 0);
}

#[test]
fn new_shadowing_annotation_invalidates_dependents() {
    // Bug (Definition 1 soundness hole): a brand-new annotation that
    // shadows an ancestor's resolution left dependents cached against the
    // wrong signature.
    let mut hb = hb();
    hb.eval(
        r#"
class Animal
  type :sound, "() -> String"
  def sound
    "generic"
  end
end
class Dog < Animal
end
class Speaker
  type :speak, "() -> String", { "check" => true }
  def speak
    Dog.new.sound
  end
end
Speaker.new.speak
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
    let dump = hb.engine.cache_dump();
    let entry = dump
        .iter()
        .find(|e| e.key == MethodKey::instance("Speaker", "speak"))
        .expect("Speaker#speak cached");
    assert!(
        entry.deps.contains(&MethodKey::instance("Animal", "sound")),
        "derivation resolved sound along Dog's chain to Animal#sound"
    );
    // A new Dog#sound annotation shadows Animal#sound for Dog receivers;
    // the cached Speaker#speak derivation is now valid against the wrong
    // signature and must be re-checked — which fails, since sound now
    // returns Fixnum while speak is declared to return String.
    let err = hb
        .eval(
            r#"
class Dog
  type :sound, "() -> Fixnum"
  def sound
    42
  end
end
Speaker.new.speak
"#,
        )
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(err.message.contains("Speaker#speak"), "{}", err.message);
}

#[test]
fn first_ever_annotation_invalidates_negative_dependents() {
    // The None→Some half of resolution-change invalidation: a derivation
    // that relied on a lookup resolving to *nothing* (here `Box.new` with
    // an unannotated constructor, which the checker accepts with any
    // arguments) has no shadowed entry for the TypeAdded walk to find.
    // Without a negative dependency edge, the first-ever annotation for
    // that name leaves the derivation cached and the String argument
    // below never blames.
    let mut hb = hb();
    hb.eval(
        r#"
class Box
  def initialize(v)
    @v = v
  end
end
class Talk
  type :make, "() -> Box", { "check" => true }
  def make
    Box.new("str")
  end
end
Talk.new.make
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
    // First-ever annotation on Box#initialize: Talk#make's derivation
    // relied on that lookup missing and must re-check — which blames,
    // since the constructor now requires a Fixnum.
    let err = hb
        .eval(
            r#"
class Box
  type :initialize, "(Fixnum) -> Box"
end
Talk.new.make
"#,
        )
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(err.message.contains("Talk#make"), "{}", err.message);
}

#[test]
fn post_first_call_include_invalidates_shadowed_dependents() {
    // Same hole via `include`: mixing a module in after first calls
    // changes what the shadowed method resolves to.
    let mut hb = hb();
    hb.eval(
        r#"
module Loud
  type :sound, "() -> Fixnum"
  def sound
    99
  end
end
class Cat
  type :sound, "() -> String"
  def sound
    "meow"
  end
end
class Kitten < Cat
end
class Listener
  type :listen, "() -> String", { "check" => true }
  def listen
    Kitten.new.sound
  end
end
Listener.new.listen
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
    // Include Loud into Kitten: Kitten's chain now resolves sound to
    // Loud#sound (Fixnum), so the cached Listener#listen derivation is
    // stale and its recheck must blame.
    let err = hb
        .eval("class Kitten\n include Loud\nend\nListener.new.listen")
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(err.message.contains("Listener#listen"), "{}", err.message);
}

#[test]
fn module_annotation_shadows_through_including_classes() {
    // The shadowing annotation lives on a *module*: resolution changes for
    // every class that mixed the module in, not for chains through the
    // module's own (trivial) ancestor chain.
    let mut hb = hb();
    hb.eval(
        r#"
module Noisy
  def sound
    99
  end
end
class Animal
  type :sound, "() -> String"
  def sound
    "generic"
  end
end
class Dog < Animal
  include Noisy
end
class Speaker2
  type :speak, "() -> String", { "check" => true }
  def speak
    Dog.new.sound
  end
end
Speaker2.new.speak
"#,
    )
    .unwrap();
    assert_eq!(hb.stats().checks_performed, 1);
    // Annotating Noisy#sound now shadows Animal#sound along Dog's chain
    // ([Dog, Noisy, Animal]); the cached Speaker2#speak derivation is
    // stale and its recheck must blame (sound now returns Fixnum).
    let err = hb
        .eval("module Noisy\n type :sound, \"() -> Fixnum\"\nend\nSpeaker2.new.speak")
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(err.message.contains("Speaker2#speak"), "{}", err.message);
}
