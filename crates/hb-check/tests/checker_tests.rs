//! Checker tests: each exercises a distinct rule or error class, including
//! every category of historical Talks error from the paper's §5.

use hb_check::{check_sig, CheckRequest, ClassInfo, MapClassInfo};
use hb_il::{collect_method_defs, lower_method, MethodCfg};
use hb_rdl::{AnnotationSource, MethodKey, RdlState};
use hb_syntax::{parse_program, Span};
use hb_types::{parse_method_type, parse_type, MethodSig, TypeEnv};

/// Builds a [`CheckRequest`] for an instance-level check with the
/// annotation keyed on `self_class` at an unknown site, and runs it.
fn run_check(
    cfg: &MethodCfg,
    self_class: &str,
    sig: &MethodSig,
    info: &dyn ClassInfo,
    rdl: &RdlState,
    captured: Option<&TypeEnv>,
) -> Result<hb_check::CheckOutcome, hb_check::CheckError> {
    check_sig(&CheckRequest {
        cfg,
        self_class: self_class.into(),
        class_level: false,
        sig,
        ann_key: MethodKey::instance(self_class, &cfg.name),
        ann_span: Span::dummy(),
        info,
        rdl,
        captured,
        policy: hb_check::CheckPolicy::Enforce,
    })
}

struct Fixture {
    rdl: RdlState,
    info: MapClassInfo,
}

impl Fixture {
    fn new() -> Fixture {
        let rdl = RdlState::new();
        let info = MapClassInfo::with_core();
        let f = Fixture { rdl, info };
        // A small core-library slice.
        f.ty("Integer", "+", "(Fixnum or Float) -> Fixnum");
        f.ty("Integer", "-", "(Fixnum) -> Fixnum");
        f.ty("Integer", "*", "(Fixnum) -> Fixnum");
        f.ty("Integer", "==", "(%any) -> %bool");
        f.ty("Integer", "<", "(Fixnum or Float) -> %bool");
        f.ty("Integer", ">", "(Fixnum or Float) -> %bool");
        f.ty("Integer", "to_s", "() -> String");
        f.ty("String", "+", "(String) -> String");
        f.ty("String", "==", "(%any) -> %bool");
        f.ty("String", "length", "() -> Fixnum");
        f.ty("String", "upcase", "() -> String");
        f.ty("Array", "push", "(t) -> Array<t>");
        f.ty("Array", "[]", "(Fixnum) -> t");
        f.ty("Array", "each", "() { (t) -> %any } -> Array<t>");
        f.ty("Array", "map", "() { (t) -> u } -> Array<u>");
        f.ty("Array", "size", "() -> Fixnum");
        f.ty("Object", "nil?", "() -> %bool");
        f.ty("NilClass", "nil?", "() -> %bool");
        f
    }

    fn ty(&self, class: &str, m: &str, t: &str) {
        let (class_level, m) = match m.strip_prefix("self.") {
            Some(rest) => (true, rest),
            None => (false, m),
        };
        let key = if class_level {
            MethodKey::class_level(class, m)
        } else {
            MethodKey::instance(class, m)
        };
        self.rdl.add_type(
            key,
            parse_method_type(t).unwrap(),
            false,
            false,
            AnnotationSource::Static,
            false,
        );
    }

    fn check(
        &self,
        src: &str,
        self_class: &str,
        sig: &str,
    ) -> Result<hb_check::CheckOutcome, String> {
        let cfg = lower(src);
        let sig = MethodSig::single(parse_method_type(sig).unwrap());
        run_check(&cfg, self_class, &sig, &self.info, &self.rdl, None)
            .map_err(|e| e.message().to_string())
    }
}

fn lower(src: &str) -> MethodCfg {
    let p = parse_program(src, "t.rb").unwrap();
    let defs = collect_method_defs(&p);
    lower_method(&defs[0].def)
}

#[test]
fn simple_method_checks() {
    let f = Fixture::new();
    f.check(
        "def add(a, b)\n a + b\nend",
        "Object",
        "(Fixnum, Fixnum) -> Fixnum",
    )
    .unwrap();
}

#[test]
fn return_type_mismatch_is_error() {
    let f = Fixture::new();
    let err = f
        .check("def m(a)\n a\nend", "Object", "(Fixnum) -> String")
        .unwrap_err();
    assert!(err.contains("declared to return String"), "{err}");
}

#[test]
fn no_type_for_method_is_error() {
    let f = Fixture::new();
    let err = f
        .check("def m(s)\n s.frobnicate\nend", "Object", "(String) -> %any")
        .unwrap_err();
    assert!(err.contains("no type for String#frobnicate"), "{err}");
}

#[test]
fn misspelled_call_reports_missing_method() {
    // Talks error 1/8/12-4: copute_edit_fields misspelling becomes an
    // implicit-self zero-arg call with no type.
    let f = Fixture::new();
    f.ty("TalksController", "compute_edit_fields", "() -> nil");
    let err = f
        .check(
            "def edit\n copute_edit_fields\nend",
            "TalksController",
            "() -> nil",
        )
        .unwrap_err();
    assert!(
        err.contains("no type for TalksController#copute_edit_fields"),
        "{err}"
    );
}

#[test]
fn undefined_variable_reports_missing_method() {
    // Talks errors 2/6/12-2 and 2/6/12-3: undefined locals become no-arg
    // self-calls.
    let f = Fixture::new();
    let err = f
        .check("def m\n old_talk\nend", "Object", "() -> %any")
        .unwrap_err();
    assert!(err.contains("no type for Object#old_talk"), "{err}");
}

#[test]
fn block_to_blockless_method_is_error() {
    // Talks error 1/7/12-5: calling upcoming { ... } when upcoming's type
    // takes no block.
    let f = Fixture::new();
    f.ty("TalkList", "upcoming", "() -> Array<Talk>");
    let err = f
        .check(
            "def m(list)\n list.upcoming { |a, b| a }\nend",
            "Object",
            "(TalkList) -> %any",
        )
        .unwrap_err();
    assert!(err.contains("does not take one"), "{err}");
}

#[test]
fn wrong_argument_type_is_error() {
    // Talks error 1/26/12-3: subscribed_talks(true) when the argument is a
    // Symbol.
    let f = Fixture::new();
    f.ty("User", "subscribed_talks", "(Symbol) -> Array<%any>");
    let err = f
        .check(
            "def m(user)\n user.subscribed_talks(true)\nend",
            "Object",
            "(User) -> %any",
        )
        .unwrap_err();
    assert!(err.contains("argument type mismatch"), "{err}");
    assert!(err.contains("%bool"), "{err}");
}

#[test]
fn method_on_wrong_class_is_error() {
    // Talks error 1/28/12: @job.handler returns a String, which has no
    // `object` method.
    let f = Fixture::new();
    f.ty("Job", "handler", "() -> String");
    let err = f
        .check(
            "def m(job)\n job.handler.object\nend",
            "Object",
            "(Job) -> %any",
        )
        .unwrap_err();
    assert!(err.contains("no type for String#object"), "{err}");
}

#[test]
fn arity_mismatch_is_error() {
    let f = Fixture::new();
    f.ty("User", "rename", "(String) -> String");
    let err = f
        .check(
            "def m(u)\n u.rename(\"a\", \"b\")\nend",
            "Object",
            "(User) -> %any",
        )
        .unwrap_err();
    assert!(err.contains("wrong number of arguments"), "{err}");
}

#[test]
fn flow_sensitivity_tracks_assignment() {
    let f = Fixture::new();
    // x starts Fixnum, becomes String; String#upcase must be found.
    f.check(
        "def m(a)\n x = a\n x = x.to_s\n x.upcase\nend",
        "Object",
        "(Fixnum) -> String",
    )
    .unwrap();
}

#[test]
fn branch_join_produces_union() {
    let f = Fixture::new();
    // Returns Fixnum on one branch, String on the other: lub is the union,
    // which must be a subtype of the declared union return.
    f.check(
        "def m(c, a)\n if c\n  a\n else\n  a.to_s\n end\nend",
        "Object",
        "(%bool, Fixnum) -> Fixnum or String",
    )
    .unwrap();
    // And it must NOT satisfy a plain Fixnum return.
    let err = f
        .check(
            "def m(c, a)\n if c\n  a\n else\n  a.to_s\n end\nend",
            "Object",
            "(%bool, Fixnum) -> Fixnum",
        )
        .unwrap_err();
    assert!(err.contains("declared to return"), "{err}");
}

#[test]
fn union_receiver_checks_both_arms() {
    let f = Fixture::new();
    f.ty("A", "go", "() -> Fixnum");
    f.ty("B", "go", "() -> String");
    // Calling go on A|B unions the returns.
    f.check(
        "def m(x)\n x.go\nend",
        "Object",
        "(A or B) -> Fixnum or String",
    )
    .unwrap();
    // If one arm lacks the method, it is an error.
    f.ty("C", "other", "() -> Fixnum");
    let err = f
        .check("def m(x)\n x.go\nend", "Object", "(A or C) -> %any")
        .unwrap_err();
    assert!(err.contains("no type for C#go"), "{err}");
}

#[test]
fn nil_receiver_is_error_unless_nilclass_method() {
    let f = Fixture::new();
    let err = f
        .check("def m\n nil.go\nend", "Object", "() -> %any")
        .unwrap_err();
    assert!(err.contains("no type for NilClass#go"), "{err}");
    f.check("def m\n nil.nil?\nend", "Object", "() -> %bool")
        .unwrap();
}

#[test]
fn truthiness_refinement_prunes_nil() {
    let f = Fixture::new();
    f.ty("User", "talks", "() -> Fixnum");
    f.ty("Finder", "find", "() -> User or nil");
    // Without the if-guard this errors (NilClass has no talks); with it the
    // then-branch refines to User.
    let err = f
        .check(
            "def m(fd)\n u = fd.find\n u.talks\nend",
            "Object",
            "(Finder) -> %any",
        )
        .unwrap_err();
    assert!(err.contains("no type for NilClass#talks"), "{err}");
    f.check(
        "def m(fd)\n u = fd.find\n if u\n  u.talks\n else\n  0\n end\nend",
        "Object",
        "(Finder) -> Fixnum",
    )
    .unwrap();
}

#[test]
fn loop_fixpoint_converges() {
    let f = Fixture::new();
    f.check(
        "def m(n)\n i = 0\n while i < n\n  i = i + 1\n end\n i\nend",
        "Object",
        "(Fixnum) -> Fixnum",
    )
    .unwrap();
}

#[test]
fn generics_instantiate_through_receiver() {
    let f = Fixture::new();
    // Array<Fixnum>#[] returns Fixnum via the `t` substitution.
    f.ty("Box", "items", "() -> Array<Fixnum>");
    f.check(
        "def m(b)\n b.items[0] + 1\nend",
        "Object",
        "(Box) -> Fixnum",
    )
    .unwrap();
}

#[test]
fn raw_generic_erases_to_any() {
    let f = Fixture::new();
    f.ty("Box", "raw_items", "() -> Array");
    // Raw Array returns %any from []; calling + on %any is fine.
    f.check(
        "def m(b)\n b.raw_items[0] + 1\nend",
        "Object",
        "(Box) -> Fixnum",
    )
    .unwrap();
}

#[test]
fn cast_promotes_and_is_counted() {
    let f = Fixture::new();
    f.ty("Box", "raw_items", "() -> Array");
    let out = f
        .check(
            "def m(b)\n xs = b.raw_items.rdl_cast(\"Array<Fixnum>\")\n xs[0] + 1\nend",
            "Object",
            "(Box) -> Fixnum",
        )
        .unwrap();
    assert_eq!(out.cast_sites.len(), 1);
}

#[test]
fn block_argument_body_is_checked() {
    let f = Fixture::new();
    f.ty("Box", "nums", "() -> Array<Fixnum>");
    // Fine: block maps Fixnum -> Fixnum.
    f.check(
        "def m(b)\n b.nums.map { |x| x + 1 }\nend",
        "Object",
        "(Box) -> Array<Fixnum>",
    )
    .unwrap();
    // Error inside the block body is reported.
    let err = f
        .check(
            "def m(b)\n b.nums.each { |x| x.upcase }\nend",
            "Object",
            "(Box) -> %any",
        )
        .unwrap_err();
    assert!(err.contains("no type for Fixnum#upcase"), "{err}");
}

#[test]
fn intersection_arm_selection() {
    let f = Fixture::new();
    // Array#[] has multiple arms in RDL; model that on a custom class.
    f.ty("Grid", "at", "(Fixnum) -> String");
    f.ty("Grid", "at", "(Fixnum, Fixnum) -> Array<String>");
    f.check("def m(g)\n g.at(1)\nend", "Object", "(Grid) -> String")
        .unwrap();
    f.check(
        "def m(g)\n g.at(1, 2)\nend",
        "Object",
        "(Grid) -> Array<String>",
    )
    .unwrap();
    let err = f
        .check("def m(g)\n g.at(\"x\")\nend", "Object", "(Grid) -> %any")
        .unwrap_err();
    assert!(err.contains("argument type mismatch"), "{err}");
}

#[test]
fn intersection_body_must_satisfy_all_arms() {
    let f = Fixture::new();
    let cfg = lower("def ident(x)\n x\nend");
    let mut sig = MethodSig::single(parse_method_type("(Fixnum) -> Fixnum").unwrap());
    sig.add_arm(parse_method_type("(String) -> String").unwrap());
    run_check(&cfg, "Object", &sig, &f.info, &f.rdl, None).unwrap();
    // A body that only works for one arm fails the intersection.
    let cfg = lower("def bad(x)\n x + 1\nend");
    let err = run_check(&cfg, "Object", &sig, &f.info, &f.rdl, None).unwrap_err();
    assert!(err.message().contains("String"), "{}", err.message());
}

#[test]
fn yield_checks_against_declared_block_type() {
    let f = Fixture::new();
    let cfg = lower("def each_twice(x)\n yield(x)\n yield(x)\nend");
    let sig =
        MethodSig::single(parse_method_type("(Fixnum) { (Fixnum) -> %any } -> %any").unwrap());
    run_check(&cfg, "Object", &sig, &f.info, &f.rdl, None).unwrap();
    // Yield without a declared block type errors.
    let sig = MethodSig::single(parse_method_type("(Fixnum) -> %any").unwrap());
    let err = run_check(&cfg, "Object", &sig, &f.info, &f.rdl, None).unwrap_err();
    assert!(
        err.message().contains("declares no block"),
        "{}",
        err.message()
    );
}

#[test]
fn ivar_types_are_enforced() {
    let f = Fixture::new();
    f.rdl
        .set_ivar_type("Runner", "count", parse_type("Fixnum").unwrap());
    f.check("def m\n @count + 1\nend", "Runner", "() -> Fixnum")
        .unwrap();
    let err = f
        .check("def m\n @count = \"s\"\nend", "Runner", "() -> %any")
        .unwrap_err();
    assert!(err.contains("cannot assign String to @count"), "{err}");
}

#[test]
fn unannotated_ivar_is_dynamic() {
    let f = Fixture::new();
    f.check("def m\n @anything\nend", "Object", "() -> %any")
        .unwrap();
}

#[test]
fn deps_record_consulted_methods() {
    let f = Fixture::new();
    f.ty("User", "name", "() -> String");
    let out = f
        .check(
            "def m(u)\n u.name.length\nend",
            "Object",
            "(User) -> Fixnum",
        )
        .unwrap();
    let deps: Vec<String> = out
        .resolutions
        .iter()
        .filter_map(|r| r.target)
        .map(|k| k.display())
        .collect();
    assert!(deps.contains(&"User#name".to_string()), "{deps:?}");
    assert!(deps.contains(&"String#length".to_string()), "{deps:?}");
}

#[test]
fn module_methods_check_against_mixin_class() {
    // Paper §4 "Modules": M#foo calls bar; checking against C finds C#bar
    // returning Fixnum, against D finds D#bar returning String.
    let f = Fixture::new();
    let mut info = MapClassInfo::with_core();
    info.add("M", vec![]);
    info.add("C", vec!["M"]);
    info.add("D", vec!["M"]);
    f.ty("C", "bar", "(Fixnum) -> Fixnum");
    f.ty("D", "bar", "(Fixnum) -> String");
    let cfg = lower("def foo(x)\n bar(x)\nend");
    let sig_c = MethodSig::single(parse_method_type("(Fixnum) -> Fixnum").unwrap());
    run_check(&cfg, "C", &sig_c, &info, &f.rdl, None).unwrap();
    let sig_d = MethodSig::single(parse_method_type("(Fixnum) -> String").unwrap());
    run_check(&cfg, "D", &sig_d, &info, &f.rdl, None).unwrap();
    // And the wrong pairing fails.
    assert!(run_check(&cfg, "D", &sig_c, &info, &f.rdl, None).is_err());
}

#[test]
fn captured_env_types_proc_bodies() {
    // Fig. 2: checking a define_method proc with captured locals typed from
    // their runtime values.
    let f = Fixture::new();
    f.ty("User", "has_role?", "(String) -> %bool");
    // As in Fig. 2, role_name is a parameter of the enclosing method, so
    // the parser resolves it as a captured local inside the block.
    let p = parse_program(
        "def define_dynamic_method(role_name)\n xs.each do |u|\n  has_role?(\"#{role_name}\")\n end\nend",
        "t.rb",
    )
    .unwrap();
    let def = match &p.body[0].kind {
        hb_syntax::ExprKind::MethodDef(d) => d.clone(),
        other => panic!("{other:?}"),
    };
    let block = match &def.body[0].kind {
        hb_syntax::ExprKind::Call { block: Some(b), .. } => b.clone(),
        other => panic!("{other:?}"),
    };
    let cfg = hb_il::lower_block_body(&block.params, &block.body, block.span);
    let sig = MethodSig::single(parse_method_type("(%any) -> %bool").unwrap());
    let mut captured = TypeEnv::new();
    captured.assign("role_name", parse_type("String").unwrap());
    run_check(&cfg, "User", &sig, &f.info, &f.rdl, Some(&captured)).unwrap();
}

#[test]
fn class_method_calls_resolve_class_level_table() {
    let f = Fixture::new();
    f.ty("Talk", "self.find", "(Fixnum) -> Talk");
    f.ty("Talk", "title", "() -> String");
    let mut info = MapClassInfo::with_core();
    info.add("Talk", vec![]);
    let cfg = lower("def m(id)\n Talk.find(id).title\nend");
    let sig = MethodSig::single(parse_method_type("(Fixnum) -> String").unwrap());
    run_check(&cfg, "Object", &sig, &info, &f.rdl, None).unwrap();
}

#[test]
fn new_falls_back_to_initialize() {
    let f = Fixture::new();
    f.ty("Point", "initialize", "(Fixnum, Fixnum) -> %any");
    f.ty("Point", "x", "() -> Fixnum");
    let mut info = MapClassInfo::with_core();
    info.add("Point", vec![]);
    let cfg = lower("def m\n Point.new(1, 2).x\nend");
    let sig = MethodSig::single(parse_method_type("() -> Fixnum").unwrap());
    run_check(&cfg, "Object", &sig, &info, &f.rdl, None).unwrap();
    // Wrong constructor arg types are caught.
    let cfg = lower("def m\n Point.new(\"a\", 2)\nend");
    let sig = MethodSig::single(parse_method_type("() -> %any").unwrap());
    let err = run_check(&cfg, "Object", &sig, &info, &f.rdl, None).unwrap_err();
    assert!(
        err.message().contains("argument type mismatch"),
        "{}",
        err.message()
    );
}

#[test]
fn rescue_variable_gets_union_of_classes() {
    let f = Fixture::new();
    let mut info = MapClassInfo::with_core();
    info.add("ArgumentError", vec!["StandardError"]);
    f.ty("ArgumentError", "message", "() -> String");
    let cfg = lower("def m\n begin\n  1\n rescue ArgumentError => e\n  e.message\n  2\n end\nend");
    let sig = MethodSig::single(parse_method_type("() -> Fixnum").unwrap());
    run_check(&cfg, "Object", &sig, &info, &f.rdl, None).unwrap();
}

#[test]
fn any_receiver_propagates() {
    let f = Fixture::new();
    f.check(
        "def m(x)\n x.whatever(1).more\nend",
        "Object",
        "(%any) -> %any",
    )
    .unwrap();
}

#[test]
fn splat_call_skips_arity_check() {
    let f = Fixture::new();
    f.ty("User", "update", "(String, String) -> %bool");
    f.check(
        "def m(u, args)\n u.update(*args)\nend",
        "Object",
        "(User, Array<String>) -> %bool",
    )
    .unwrap();
}

#[test]
fn return_inside_block_checks_method_return() {
    let f = Fixture::new();
    f.ty("Box", "nums", "() -> Array<Fixnum>");
    // `return x` inside the block must match the method's declared Fixnum.
    f.check(
        "def m(b)\n b.nums.each { |x| return x if x > 2 }\n 0\nend",
        "Object",
        "(Box) -> Fixnum",
    )
    .unwrap();
    let err = f
        .check(
            "def m(b)\n b.nums.each { |x| return x if x > 2 }\n \"s\"\nend",
            "Object",
            "(Box) -> String",
        )
        .unwrap_err();
    assert!(err.contains("does not match declared return type"), "{err}");
}

#[test]
fn optional_params_join_default_type() {
    let f = Fixture::new();
    f.check(
        "def m(a, b = 0)\n a + b\nend",
        "Object",
        "(Fixnum, ?Fixnum) -> Fixnum",
    )
    .unwrap();
}

// ----- structured blame diagnostics ------------------------------------

#[test]
fn structured_blame_names_the_callee_annotation() {
    use hb_syntax::{BlameTarget, DiagCode, FileId, LabelRole};
    let f = Fixture::new();
    // Register the callee annotation at a real (synthetic-file) span so
    // the blame label has something to resolve to.
    let key = MethodKey::instance("User", "subscribed_talks");
    let ann_span = Span::new(FileId(7), 10, 30);
    f.rdl.add_type_at(
        key,
        parse_method_type("(Symbol) -> Array<%any>").unwrap(),
        false,
        false,
        AnnotationSource::Static,
        false,
        ann_span,
    );
    let cfg = lower("def m(user)\n user.subscribed_talks(true)\nend");
    let sig = MethodSig::single(parse_method_type("(User) -> %any").unwrap());
    let err = run_check(&cfg, "Object", &sig, &f.info, &f.rdl, None).unwrap_err();
    assert_eq!(err.code(), DiagCode::ArgumentType);
    assert_eq!(err.blame(), &BlameTarget::Annotation(key));
    let label = err.diagnostic.label(LabelRole::BlamedAnnotation).unwrap();
    assert_eq!(
        label.span, ann_span,
        "blame label must carry the annotation's registration span"
    );
    assert_eq!(label.method, Some(key));
    // The checked method itself is also labeled.
    assert!(err.diagnostic.label(LabelRole::CheckedMethod).is_some());
}

#[test]
fn structured_missing_type_blame() {
    use hb_syntax::{BlameTarget, DiagCode};
    let f = Fixture::new();
    let err_sig = MethodSig::single(parse_method_type("(String) -> %any").unwrap());
    let cfg = lower("def m(s)\n s.frobnicate\nend");
    let err = run_check(&cfg, "Object", &err_sig, &f.info, &f.rdl, None).unwrap_err();
    assert_eq!(err.code(), DiagCode::NoMethodType);
    assert_eq!(
        err.blame(),
        &BlameTarget::MissingType(MethodKey::instance("String", "frobnicate"))
    );
}

#[test]
fn structured_var_assign_blame_names_declaration() {
    use hb_syntax::{BlameTarget, DiagCode, FileId, LabelRole};
    let f = Fixture::new();
    let decl_span = Span::new(FileId(3), 5, 25);
    f.rdl
        .set_ivar_type_at("Runner", "count", parse_type("Fixnum").unwrap(), decl_span);
    let cfg = lower("def m\n @count = \"s\"\nend");
    let sig = MethodSig::single(parse_method_type("() -> %any").unwrap());
    let err = run_check(&cfg, "Runner", &sig, &f.info, &f.rdl, None).unwrap_err();
    assert_eq!(err.code(), DiagCode::VarAssign);
    assert_eq!(
        err.blame(),
        &BlameTarget::VarDecl {
            name: "@count".to_string()
        }
    );
    let label = err.diagnostic.label(LabelRole::BlamedAnnotation).unwrap();
    assert_eq!(label.span, decl_span);
}

#[test]
fn structured_own_annotation_blame_for_return_type() {
    use hb_syntax::{BlameTarget, DiagCode, LabelRole};
    let f = Fixture::new();
    let cfg = lower("def m(a)\n a\nend");
    let sig = MethodSig::single(parse_method_type("(Fixnum) -> String").unwrap());
    let err = run_check(&cfg, "Object", &sig, &f.info, &f.rdl, None).unwrap_err();
    assert_eq!(err.code(), DiagCode::ReturnType);
    // The method's own annotation is blamed, keyed on the receiver class.
    assert_eq!(
        err.blame(),
        &BlameTarget::Annotation(MethodKey::instance("Object", "m"))
    );
    assert!(err.diagnostic.label(LabelRole::BlamedAnnotation).is_some());
}

#[test]
fn structured_block_blame_code() {
    use hb_syntax::DiagCode;
    let f = Fixture::new();
    f.ty("TalkList", "upcoming", "() -> Array<Talk>");
    let cfg = lower("def m(list)\n list.upcoming { |a, b| a }\nend");
    let sig = MethodSig::single(parse_method_type("(TalkList) -> %any").unwrap());
    let err = run_check(&cfg, "Object", &sig, &f.info, &f.rdl, None).unwrap_err();
    assert_eq!(err.code(), DiagCode::BlockIncompatible);
}
