//! The RDL builtins: `type`, `var_type`/`field_type`, `pre`, `rdl_cast`.
//!
//! These execute at run time and mutate the live type table — the central
//! mechanism of the paper ("user-provided type annotations actually execute
//! at run-time", §1).

use crate::conform::value_conforms;
use crate::memo::{method_type, value_type};
use crate::state::{AnnotationSource, CheckPolicy, MethodKey, PreHook, RdlState};
use hb_intern::Sym;
use hb_interp::{ErrorKind, Flow, HbError, Interp, Value};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, Span, TypeDiagnostic};
use std::rc::Rc;

/// Installs RDL into an interpreter: stores the state extension and
/// registers the annotation builtins. The Hummingbird engine's dispatch
/// hook runs the `pre` contracts they register.
pub fn install(interp: &mut Interp) -> Rc<RdlState> {
    let state = Rc::new(RdlState::new());
    interp.set_extension(state.clone());

    let st = state.clone();
    let object = interp.registry.object();
    interp.define_builtin(
        object,
        "type",
        false,
        Rc::new(move |i, recv, args, _b| type_builtin(&st, i, recv, args)),
    );
    for name in ["var_type", "field_type"] {
        let st = state.clone();
        interp.define_builtin(
            object,
            name,
            false,
            Rc::new(move |i, recv, args, _b| var_type_builtin(&st, i, recv, args)),
        );
    }
    let st = state.clone();
    interp.define_builtin(
        object,
        "pre",
        false,
        Rc::new(move |i, recv, args, b| pre_builtin(&st, i, recv, args, b)),
    );
    let st = state.clone();
    interp.define_builtin(
        object,
        "rdl_cast",
        false,
        Rc::new(move |i, recv, args, _b| rdl_cast_builtin(&st, i, recv, args)),
    );
    let st = state.clone();
    interp.define_builtin(
        object,
        "check_policy",
        false,
        Rc::new(move |i, recv, args, _b| check_policy_builtin(&st, i, recv, args)),
    );
    state
}

fn err(kind: ErrorKind, msg: impl Into<String>) -> Flow {
    Flow::Error(HbError::new(kind, msg, Span::dummy()))
}

fn name_of<'a>(v: &'a Value, what: &str) -> Result<&'a str, Flow> {
    match v {
        Value::Str(s) | Value::Sym(s) => Ok(s),
        other => Err(err(
            ErrorKind::ArgumentError,
            format!("{what}: expected method name (String/Symbol), got {other:?}"),
        )),
    }
}

/// The class a builtin targets, with the number of leading arguments that
/// named it. An explicit leading class argument wins; then a class
/// receiver (a class body, or a pre-hook with `self` rebound to the model
/// class). With `instances`, an instance receiver targets its class: in
/// instance context (e.g. a pre hook on an instance method, Fig. 2),
/// annotations target the instance's class.
fn target_class(
    interp: &Interp,
    recv: &Value,
    args: &[Value],
    instances: bool,
) -> Option<(Sym, usize)> {
    let name = |c| interp.registry.name_sym(c);
    match (args.first(), recv) {
        (Some(Value::Class(c)), _) => Some((name(*c), 1)),
        (_, Value::Class(c)) => Some((name(*c), 0)),
        (_, Value::Obj(o)) if instances => Some((name(o.class), 0)),
        _ => None,
    }
}

/// [`target_class`] for the annotation builtins, which need a class.
fn annotated_class(
    interp: &Interp,
    recv: &Value,
    args: &[Value],
    what: &str,
) -> Result<(Sym, usize), Flow> {
    target_class(interp, recv, args, true).ok_or_else(|| {
        err(
            ErrorKind::ArgumentError,
            format!("{what}: no target class (call inside a class or pass the class first)"),
        )
    })
}

/// Splits a `self.`-prefixed method name into `(class_level, name)`.
fn method_name(raw: &str) -> (bool, &str) {
    match raw.strip_prefix("self.") {
        Some(m) => (true, m),
        None => (false, raw),
    }
}

/// The type string argument of `what`.
fn type_string<'a>(v: &'a Value, what: &str) -> Result<&'a str, Flow> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(err(
            ErrorKind::ArgumentError,
            format!("{what}: expected type string, got {other:?}"),
        )),
    }
}

/// Reads `check`/`dyn`/`replace` flags from a trailing options hash.
fn read_opts(opts: Option<&Value>) -> (bool, bool, bool) {
    let mut check = false;
    let mut dynamic = false;
    let mut replace = false;
    if let Some(Value::Hash(h)) = opts {
        for (k, v) in h.borrow().iter() {
            let (Value::Str(key) | Value::Sym(key)) = k else {
                continue;
            };
            let val = v.truthy();
            match &**key {
                "check" | "typecheck" => check = val,
                "dyn" | "dynamic_check" => dynamic = val,
                "replace" => replace = val,
                _ => {}
            }
        }
    }
    (check, dynamic, replace)
}

fn type_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    let (class, skip) = annotated_class(interp, &recv, &args, "type")?;
    let rest = &args[skip..];
    if rest.len() < 2 {
        return Err(err(
            ErrorKind::ArgumentError,
            "type: expected method name and type string",
        ));
    }
    let (class_level, method) = method_name(name_of(&rest[0], "type")?);
    let type_str = type_string(&rest[1], "type")?;
    let (check, dynamic, replace) = read_opts(rest.get(2));
    let key = MethodKey {
        class,
        class_level,
        method: Sym::intern(method),
    };
    let mt = method_type(type_str)
        .map_err(|e| err(ErrorKind::ArgumentError, format!("type {key}: {e}")))?;
    let source = if interp.in_dynamic_context() {
        AnnotationSource::Dynamic
    } else {
        AnnotationSource::Static
    };
    // The builtin's call site *is* the annotation's registration site —
    // the span structured blame points at.
    let span = interp.current_builtin_span();
    state.add_type_at(key, mt, check, dynamic, source, replace, span);
    Ok(Value::Nil)
}

fn var_type_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    let (class, skip) = annotated_class(interp, &recv, &args, "var_type")?;
    let class = class.as_str();
    let rest = &args[skip..];
    if rest.len() < 2 {
        return Err(err(
            ErrorKind::ArgumentError,
            "var_type: expected variable name and type string",
        ));
    }
    let var = name_of(&rest[0], "var_type")?;
    let ty = value_type(type_string(&rest[1], "var_type")?)
        .map_err(|e| err(ErrorKind::ArgumentError, format!("var_type {var}: {e}")))?;
    let span = interp.current_builtin_span();
    if let Some(cvar) = var.strip_prefix("@@") {
        state.set_cvar_type_at(class, cvar, ty, span);
    } else if let Some(ivar) = var.strip_prefix('@') {
        state.set_ivar_type_at(class, ivar, ty, span);
    } else if let Some(gvar) = var.strip_prefix('$') {
        state.set_gvar_type_at(gvar, ty, span);
    } else {
        state.set_ivar_type_at(class, var, ty, span);
    }
    Ok(Value::Nil)
}

fn pre_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
    block: Option<Value>,
) -> Result<Value, Flow> {
    let (class, skip) = annotated_class(interp, &recv, &args, "pre")?;
    let rest = &args[skip..];
    if rest.is_empty() {
        return Err(err(ErrorKind::ArgumentError, "pre: expected method name"));
    }
    let (class_level, method) = method_name(name_of(&rest[0], "pre")?);
    let proc_val = match block {
        Some(Value::Proc(p)) => p,
        _ => return Err(err(ErrorKind::ArgumentError, "pre: no block given")),
    };
    let span = interp.current_builtin_span();
    state.add_pre(
        MethodKey {
            class,
            class_level,
            method: Sym::intern(method),
        },
        PreHook { proc_val, span },
    );
    Ok(Value::Nil)
}

/// The `check_policy` builtin — the RubyLite surface of [`CheckPolicy`]:
///
/// ```text
/// check_policy "shadow"                 # top level: global policy
/// class Talk
///   check_policy "shadow"               # class body: policy for Talk
///   check_policy :title_line, "shadow"  # method policy (self.m for class-level)
/// end
/// check_policy Talk, "off"              # explicit class, anywhere
/// check_policy Talk, :title_line, "off" # explicit class + method
/// ```
///
/// Policy names (`enforce` / `shadow` / `off`) may be strings or symbols.
fn check_policy_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    // An explicit leading class argument wins; a class receiver (class
    // body) is next; otherwise the call is global scope.
    let (explicit_class, skip) =
        target_class(interp, &recv, &args, false).map_or((None, 0), |(c, n)| (Some(c), n));
    let rest = &args[skip..];
    let parse_policy = |v: &Value| -> Result<CheckPolicy, Flow> {
        let name = name_of(v, "check_policy")?;
        CheckPolicy::parse(name).ok_or_else(|| {
            err(
                ErrorKind::ArgumentError,
                format!("check_policy: unknown policy {name:?} (enforce/shadow/off)"),
            )
        })
    };
    match rest {
        [policy] => {
            let policy = parse_policy(policy)?;
            match explicit_class {
                Some(class) => state.set_class_policy(class, policy),
                None => state.set_global_policy(policy),
            }
        }
        [method, policy] => {
            let Some(class) = explicit_class else {
                return Err(err(
                    ErrorKind::ArgumentError,
                    "check_policy: no target class for a method policy \
                     (call inside a class or pass the class first)",
                ));
            };
            let (class_level, method) = method_name(name_of(method, "check_policy")?);
            let policy = parse_policy(policy)?;
            state.set_method_policy(
                MethodKey {
                    class,
                    class_level,
                    method: Sym::intern(method),
                },
                policy,
            );
        }
        _ => {
            return Err(err(
                ErrorKind::ArgumentError,
                "check_policy: expected [class,] [method,] policy",
            ))
        }
    }
    Ok(Value::Nil)
}

fn rdl_cast_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    let cast_span = interp.current_builtin_span();
    let type_str = match args.first() {
        Some(Value::Str(s)) => s,
        other => {
            return Err(err(
                ErrorKind::ArgumentError,
                format!("rdl_cast: expected type string, got {other:?}"),
            ))
        }
    };
    let ty = value_type(type_str)
        .map_err(|e| err(ErrorKind::ArgumentError, format!("rdl_cast: {e}")))?;
    if !value_conforms(interp, &recv, &ty) {
        // The cast itself is the blame target: the program asserted a type
        // the value does not have (paper §4 "Type Casts").
        let message = format!(
            "rdl_cast: value of class {} does not conform to {ty}",
            interp.class_name_of(&recv)
        );
        let diag = TypeDiagnostic::error(
            DiagCode::CastFailure,
            message.clone(),
            cast_span,
            BlameTarget::Cast,
        )
        .with_label(DiagLabel::new(
            LabelRole::CastSite,
            format!("cast to {ty} asserted here"),
            cast_span,
        ));
        state.record_diagnostic(diag.clone());
        return Err(Flow::Error(HbError::with_diagnostic(
            ErrorKind::ContractBlame,
            message,
            cast_span,
            diag,
        )));
    }
    Ok(recv)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error a `type` call with a malformed type string raises inside
    /// `class Foo`, for the method name `name`.
    fn bad_type_error(name: &str) -> HbError {
        let mut interp = Interp::new();
        install(&mut interp);
        interp
            .eval_str(&format!(
                "class Foo\n  type {name:?}, \"(Fixnum -> String\"\nend"
            ))
            .unwrap_err()
    }

    #[test]
    fn a_bad_type_string_names_the_method_by_its_key() {
        let instance = bad_type_error("bar");
        assert_eq!(instance.kind, ErrorKind::ArgumentError);
        assert!(
            instance.message.starts_with("type Foo#bar: "),
            "{}",
            instance.message
        );
        let class_level = bad_type_error("self.bar");
        assert_eq!(class_level.kind, ErrorKind::ArgumentError);
        assert!(
            class_level.message.starts_with("type Foo.bar: "),
            "{}",
            class_level.message
        );
        assert_eq!(
            instance.message.strip_prefix("type Foo#bar: "),
            class_level.message.strip_prefix("type Foo.bar: "),
            "the same parse error follows"
        );
    }
}
