//! The flow-sensitive static type checker over CFGs (paper Fig. 5,
//! extended with the implementation's richer types from §4).
//!
//! `check_sig` checks a method body against every arm of its (possibly
//! intersection) signature at call time — the static half of just-in-time
//! checking. The outcome carries the dependency set (the `(class, method)`
//! pairs used by rule (TApp)) which the engine's cache uses for
//! Definition 1 invalidation, and the set of cast sites encountered
//! (Table 1's "Casts" column).

use crate::info::{ClassInfo, InfoHierarchy};
use crate::table::TypeTable;
use hb_il::{BlockLit, CallArg, IlParamKind, InstrKind, MethodCfg, Operand, Rvalue, Terminator};
use hb_intern::{sym, Sym};
use hb_rdl::{CheckPolicy, MethodKey, Resolution, TableEntry};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, Span, TypeDiagnostic};
use hb_types::{MethodSig, MethodType, Type, TypeEnv};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// A static type error — the paper's `blame` at method entry — as a thin
/// wrapper over the structured [`TypeDiagnostic`] it carries. Every
/// constructor records a stable [`DiagCode`], the blamed annotation/cast
/// ([`BlameTarget`]) and labeled secondary spans; nothing is flattened to
/// a string until a consumer renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckError {
    pub diagnostic: TypeDiagnostic,
}

impl CheckError {
    /// The stable diagnostic code.
    pub fn code(&self) -> DiagCode {
        self.diagnostic.code
    }

    /// The primary message (location-free; spans carry positions).
    pub fn message(&self) -> &str {
        &self.diagnostic.message
    }

    /// The primary span: where the offending code is.
    pub fn span(&self) -> Span {
        self.diagnostic.span
    }

    /// What the error blames.
    pub fn blame(&self) -> &BlameTarget {
        &self.diagnostic.blame
    }

    /// Unwraps into the diagnostic.
    pub fn into_diagnostic(self) -> TypeDiagnostic {
        self.diagnostic
    }
}

impl From<TypeDiagnostic> for CheckError {
    fn from(diagnostic: TypeDiagnostic) -> CheckError {
        CheckError { diagnostic }
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.diagnostic.message)
    }
}

impl std::error::Error for CheckError {}

/// The result of a successful check.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The body's computed return type (the last arm's, when intersected).
    pub ret: Type,
    /// The (TApp) resolutions this check consulted, including negative
    /// facts (lookups that found nothing and fell back). Their targets are
    /// Definition 1(2)'s dependency set; a foreign consumer replays them to
    /// decide whether the derivation is valid against *its* table and
    /// hierarchy.
    pub resolutions: BTreeSet<Resolution>,
    /// Distinct `rdl_cast` sites encountered (file, lo, hi).
    pub cast_sites: BTreeSet<(u32, u32, u32)>,
}

impl Default for CheckOutcome {
    fn default() -> CheckOutcome {
        CheckOutcome {
            ret: Type::Nil,
            resolutions: BTreeSet::new(),
            cast_sites: BTreeSet::new(),
        }
    }
}

/// Generic nesting depth beyond which types widen to `%any` (keeps loop
/// fixpoints finite).
const WIDEN_DEPTH: usize = 8;
/// Union width beyond which types widen to `%any`.
const WIDEN_WIDTH: usize = 12;
/// Hard iteration bound for the fixpoint.
const MAX_ITERATIONS: usize = 20_000;

/// Everything one just-in-time check needs: the body, the receiver
/// context, the signature under check *and the identity/site of the
/// annotation providing it* (so failures can blame the annotation), plus
/// the type environment the check runs against.
pub struct CheckRequest<'a> {
    /// The lowered method body.
    pub cfg: &'a MethodCfg,
    /// The *receiver's* class — module methods are checked and cached per
    /// mix-in class (paper §4 "Modules").
    pub self_class: Sym,
    /// Whether the method is class-level (singleton).
    pub class_level: bool,
    /// The (possibly intersection) signature being checked against.
    pub sig: &'a MethodSig,
    /// The annotation the signature came from (may sit on an ancestor or
    /// mixed-in module of `self_class`).
    pub ann_key: MethodKey,
    /// Where that annotation was registered (dummy when unknown).
    pub ann_span: Span,
    /// The class hierarchy view.
    pub info: &'a dyn ClassInfo,
    /// The type table — the live [`hb_rdl::RdlState`] on the interpreter
    /// thread, or an owned snapshot when checking on a scheduler worker.
    pub rdl: &'a dyn TypeTable,
    /// Types of captured locals when checking `define_method` procs
    /// (Fig. 2).
    pub captured: Option<&'a TypeEnv>,
    /// The enforcement policy this check runs under. The checker's
    /// judgement is policy-independent; under [`CheckPolicy::Shadow`] a
    /// failure's diagnostic additionally carries a note label marking
    /// that execution continued past it (so a shadow blame fished out of
    /// a diagnostics stream is self-describing).
    pub policy: CheckPolicy,
}

/// Checks the request's body against every arm of its signature
/// (intersection semantics: the body must satisfy each arm).
///
/// # Errors
///
/// The first static type error found, positioned at the offending
/// instruction, carrying a structured [`TypeDiagnostic`] that blames the
/// responsible annotation or cast. Under [`CheckPolicy::Shadow`] the
/// diagnostic gains a note label recording that the blame was shadowed.
pub fn check_sig(req: &CheckRequest) -> Result<CheckOutcome, CheckError> {
    match check_sig_arms(req) {
        Err(mut e) if req.policy == CheckPolicy::Shadow => {
            e.diagnostic.labels.push(CheckPolicy::shadow_note());
            Err(e)
        }
        other => other,
    }
}

/// The candidate-verification entry point for whole-program inference:
/// checks a *candidate* (inferred, not yet registered) signature against
/// the body exactly as [`check_sig`] would — same judgement, same
/// dependency/resolution harvest — so an inferred annotation is adopted
/// only on a proof the engine itself would accept. Soundness is inherited
/// from the checker, never asserted by the inference heuristics.
///
/// Identical to [`check_sig`] today (the request already carries the
/// candidate in `req.sig` and the hypothesis world in `req.rdl`); it
/// exists as a named seam so verification-specific policy (e.g. widening
/// caps for speculative candidates) can diverge without touching the
/// just-in-time path.
///
/// # Errors
///
/// The refutation: the first static type error found checking the body
/// against the candidate.
pub fn verify_candidate(req: &CheckRequest) -> Result<CheckOutcome, CheckError> {
    check_sig(req)
}

fn check_sig_arms(req: &CheckRequest) -> Result<CheckOutcome, CheckError> {
    let CheckRequest {
        cfg,
        self_class,
        class_level,
        sig,
        info,
        rdl,
        captured,
        ..
    } = *req;
    let mut out = CheckOutcome::default();
    let method = Sym::intern(&cfg.name);
    for arm in &sig.arms {
        let arm = arm.erased();
        let mut ck = Checker {
            info,
            rdl,
            self_class,
            self_type: if class_level {
                Type::ClassObj(self_class)
            } else {
                Type::Nominal(self_class)
            },
            method,
            arm: &arm,
            ann_key: req.ann_key,
            ann_span: req.ann_span,
            resolutions: BTreeSet::new(),
            casts: BTreeSet::new(),
        };
        let env = ck.entry_env(cfg, &arm, captured)?;
        let (ret, _exit) = ck.check_cfg(cfg, env)?;
        let hier = InfoHierarchy(info);
        if !ret.is_subtype(&arm.ret, &hier) {
            return Err(ck.err_own(
                DiagCode::ReturnType,
                format!(
                    "method {} body has type {} but is declared to return {}",
                    cfg.name, ret, arm.ret
                ),
                cfg.span,
                format!("return type {} declared here", arm.ret),
            ));
        }
        out.ret = ret;
        out.resolutions.append(&mut ck.resolutions);
        out.cast_sites.append(&mut ck.casts);
    }
    Ok(out)
}

/// The generic type parameters of the built-in generic classes (used to
/// instantiate method types like `Array#[] : (Fixnum) -> t`).
pub fn generic_params(class: Sym) -> &'static [&'static str] {
    match class.as_str() {
        "Array" => &["t"],
        "Hash" => &["k", "v"],
        "Range" => &["t"],
        _ => &[],
    }
}

struct Checker<'a> {
    info: &'a dyn ClassInfo,
    rdl: &'a dyn TypeTable,
    self_class: Sym,
    self_type: Type,
    /// The checked method's name.
    method: Sym,
    /// The arm being checked, its type variables erased: its return type
    /// is what `return` inside blocks checks against, its block type what
    /// `yield` does.
    arm: &'a MethodType,
    /// The annotation being checked and its registration site — what
    /// own-signature failures blame, and the "while checking …" label on
    /// every other failure.
    ann_key: MethodKey,
    ann_span: Span,
    resolutions: BTreeSet<Resolution>,
    casts: BTreeSet<(u32, u32, u32)>,
}

impl<'a> Checker<'a> {
    fn hier(&self) -> InfoHierarchy<'a> {
        InfoHierarchy(self.info)
    }

    // ----- typed error constructors -------------------------------------
    //
    // Every static failure goes through one of these: each records the
    // stable code, the blamed target, and labeled secondary spans. The
    // message strings stay byte-identical to the historical flattened
    // surface so downstream fragment matching keeps working.

    /// The standard "while checking …" label pointing at the checked
    /// method's own annotation.
    fn checked_label(&self) -> DiagLabel {
        DiagLabel::new(
            LabelRole::CheckedMethod,
            format!("while checking {} against its annotation", self.ann_key),
            self.ann_span,
        )
        .with_method(self.ann_key)
    }

    /// A failure blamed on the checked method's *own* annotation (return
    /// type, yield/block declaration, non-convergence).
    fn err_own(&self, code: DiagCode, message: String, span: Span, ann_note: String) -> CheckError {
        TypeDiagnostic::error(code, message, span, BlameTarget::Annotation(self.ann_key))
            .with_method(self.ann_key)
            .with_label(
                DiagLabel::new(LabelRole::BlamedAnnotation, ann_note, self.ann_span)
                    .with_method(self.ann_key),
            )
            .into()
    }

    /// A failure blamed on a *callee's* annotation (arity, argument type,
    /// block compatibility): the call disagrees with the signature
    /// registered at `callee_span`.
    fn err_callee(
        &self,
        code: DiagCode,
        message: String,
        span: Span,
        callee: MethodKey,
        callee_span: Span,
        sig: &str,
    ) -> CheckError {
        TypeDiagnostic::error(code, message, span, BlameTarget::Annotation(callee))
            .with_method(self.ann_key)
            .with_label(
                DiagLabel::new(
                    LabelRole::BlamedAnnotation,
                    format!("annotation `{sig}` on {callee} declared here"),
                    callee_span,
                )
                .with_method(callee),
            )
            .with_label(self.checked_label())
            .into()
    }

    /// A failure because *no* annotation exists for the method at all.
    fn err_missing(&self, message: String, span: Span, missing: MethodKey) -> CheckError {
        TypeDiagnostic::error(
            DiagCode::NoMethodType,
            message,
            span,
            BlameTarget::MissingType(missing),
        )
        .with_method(self.ann_key)
        .with_label(self.checked_label())
        .into()
    }

    /// A failure blamed on an ivar/cvar/gvar type declaration.
    fn err_var(&self, message: String, span: Span, name: String, decl_span: Span) -> CheckError {
        let note = format!("type of {name} declared here");
        TypeDiagnostic::error(
            DiagCode::VarAssign,
            message,
            span,
            BlameTarget::VarDecl { name },
        )
        .with_method(self.ann_key)
        .with_label(DiagLabel::new(LabelRole::BlamedAnnotation, note, decl_span))
        .with_label(self.checked_label())
        .into()
    }

    /// A failure blamed on an `rdl_cast` (here: the cast's type string is
    /// invalid — runtime conformance failures blame from the builtin).
    fn err_cast(&self, message: String, span: Span) -> CheckError {
        TypeDiagnostic::error(DiagCode::CastFailure, message, span, BlameTarget::Cast)
            .with_method(self.ann_key)
            .with_label(DiagLabel::new(
                LabelRole::CastSite,
                "cast asserted here",
                span,
            ))
            .with_label(self.checked_label())
            .into()
    }

    /// Builds the entry environment: parameters bound at the arm's declared
    /// types, plus captured locals for proc-defined methods.
    fn entry_env(
        &self,
        cfg: &MethodCfg,
        arm: &MethodType,
        captured: Option<&TypeEnv>,
    ) -> Result<TypeEnv, CheckError> {
        let mut env = TypeEnv::new();
        if let Some(c) = captured {
            for (k, v) in c.iter() {
                env.assign(k.clone(), v.clone());
            }
        }
        let mut pos = 0usize;
        for p in &cfg.params {
            match p.kind {
                IlParamKind::Required | IlParamKind::Optional => {
                    let ty = arm.param_at(pos).cloned().unwrap_or({
                        // More parameters than the signature declares:
                        // treat extras as %any (blocks are lenient).
                        Type::Any
                    });
                    env.assign(p.name.clone(), ty);
                    pos += 1;
                }
                IlParamKind::Rest => {
                    let elem = arm.param_at(pos).cloned().unwrap_or(Type::Any);
                    env.assign(p.name.clone(), Type::Generic(sym!("Array"), vec![elem]));
                    pos += 1;
                }
                IlParamKind::Block => {
                    env.assign(p.name.clone(), Type::Nominal(sym!("Proc")));
                }
            }
        }
        Ok(env)
    }

    fn widen(&self, ty: &Type, depth: usize) -> Type {
        match ty {
            Type::Generic(n, args) => {
                if depth == 0 {
                    Type::Nominal(*n)
                } else {
                    Type::Generic(*n, args.iter().map(|a| self.widen(a, depth - 1)).collect())
                }
            }
            Type::Union(arms) => {
                if arms.len() > WIDEN_WIDTH {
                    Type::Any
                } else {
                    Type::union_of(arms.iter().map(|a| self.widen(a, depth)).collect())
                }
            }
            t => t.clone(),
        }
    }

    fn widen_env(&self, env: &TypeEnv) -> TypeEnv {
        env.iter()
            .map(|(k, v)| (k.clone(), self.widen(v, WIDEN_DEPTH)))
            .collect()
    }

    /// Joins environments at control-flow merges. Variables bound on one
    /// side only join with `nil` (Ruby's unset-local default) — a sound
    /// refinement of the paper's domain-intersection join.
    fn join_envs(&self, a: &TypeEnv, b: &TypeEnv) -> TypeEnv {
        let hier = self.hier();
        let mut out = TypeEnv::new();
        for (k, v) in a.iter() {
            let w = b.get(k).cloned().unwrap_or(Type::Nil);
            out.assign(k.clone(), v.lub(&w, &hier));
        }
        for (k, w) in b.iter() {
            if !a.contains(k) {
                out.assign(k.clone(), w.lub(&Type::Nil, &hier));
            }
        }
        out
    }

    /// The dataflow fixpoint over a CFG. Returns the joined type of all
    /// `Return` terminators and the joined exit environment.
    fn check_cfg(&mut self, cfg: &MethodCfg, init: TypeEnv) -> Result<(Type, TypeEnv), CheckError> {
        let mut in_envs: HashMap<u32, TypeEnv> = HashMap::new();
        in_envs.insert(cfg.entry.0, init);
        let mut work: VecDeque<u32> = VecDeque::new();
        work.push_back(cfg.entry.0);
        let mut returns: Vec<Type> = Vec::new();
        let mut exit_env: Option<TypeEnv> = None;
        let mut iterations = 0usize;
        while let Some(bb) = work.pop_front() {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(self.err_own(
                    DiagCode::NonConvergence,
                    format!("type checking of {} did not converge", self.method),
                    cfg.span,
                    "while checking against the annotation declared here".to_string(),
                ));
            }
            let mut env = in_envs[&bb].clone();
            let block = cfg.block(hb_il::BlockId(bb));
            for instr in &block.instrs {
                self.transfer(cfg, &mut env, &instr.kind, instr.span)?;
            }
            let propagate = |this: &Self,
                             target: u32,
                             new_env: TypeEnv,
                             in_envs: &mut HashMap<u32, TypeEnv>,
                             work: &mut VecDeque<u32>| {
                let new_env = this.widen_env(&new_env);
                match in_envs.get(&target) {
                    None => {
                        in_envs.insert(target, new_env);
                        work.push_back(target);
                    }
                    Some(old) => {
                        let joined = this.join_envs(old, &new_env);
                        if &joined != old {
                            in_envs.insert(target, joined);
                            work.push_back(target);
                        }
                    }
                }
            };
            match &block.term {
                Terminator::Goto(t) => {
                    propagate(self, t.0, env, &mut in_envs, &mut work);
                }
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    // Truthiness refinement: `if x` prunes nil in the then
                    // branch and pins it in the else branch (when the type
                    // cannot be `false`).
                    let (env_t, env_f) = self.refine(&env, cond);
                    propagate(self, then_bb.0, env_t, &mut in_envs, &mut work);
                    propagate(self, else_bb.0, env_f, &mut in_envs, &mut work);
                }
                Terminator::Return(op) => {
                    let t = self.type_operand(&env, op);
                    returns.push(t);
                    exit_env = Some(match exit_env.take() {
                        None => env,
                        Some(e) => self.join_envs(&e, &env),
                    });
                }
                Terminator::MethodReturn(op) => {
                    let t = self.type_operand(&env, op);
                    let declared = &self.arm.ret;
                    if !t.is_subtype(declared, &self.hier()) {
                        return Err(self.err_own(
                            DiagCode::ReturnType,
                            format!(
                                "return of {} does not match declared return type {} of {}",
                                t, declared, self.method
                            ),
                            cfg.span,
                            format!("return type {declared} declared here"),
                        ));
                    }
                }
            }
        }
        let hier = self.hier();
        let mut ret = Type::Nil;
        let mut first = true;
        for t in returns {
            if first {
                ret = t;
                first = false;
            } else {
                ret = ret.lub(&t, &hier);
            }
        }
        Ok((ret, exit_env.unwrap_or_default()))
    }

    fn refine(&self, env: &TypeEnv, cond: &Operand) -> (TypeEnv, TypeEnv) {
        if let Operand::Local(x) = cond {
            if let Some(t) = env.get(x) {
                if t.admits_nil() && !matches!(t, Type::Any) {
                    let mut env_t = env.clone();
                    env_t.assign(x.clone(), t.without_nil());
                    let can_be_false = match t {
                        Type::Union(arms) => arms.iter().any(|a| matches!(a, Type::Bool)),
                        Type::Bool => true,
                        _ => false,
                    };
                    let mut env_f = env.clone();
                    if !can_be_false {
                        env_f.assign(x.clone(), Type::Nil);
                    }
                    return (env_t, env_f);
                }
            }
        }
        (env.clone(), env.clone())
    }

    fn type_operand(&self, env: &TypeEnv, op: &Operand) -> Type {
        match op {
            Operand::NilConst => Type::Nil,
            Operand::TrueConst | Operand::FalseConst | Operand::Nondet => Type::Bool,
            Operand::IntConst(_) => Type::Nominal(sym!("Fixnum")),
            Operand::FloatConst(_) => Type::Nominal(sym!("Float")),
            Operand::StrConst(_) => Type::Nominal(sym!("String")),
            Operand::SymConst(_) => Type::Nominal(sym!("Symbol")),
            Operand::SelfRef => self.self_type.clone(),
            Operand::Local(n) => env.get(n).cloned().unwrap_or(Type::Nil),
        }
    }

    fn transfer(
        &mut self,
        cfg: &MethodCfg,
        env: &mut TypeEnv,
        instr: &InstrKind,
        span: Span,
    ) -> Result<(), CheckError> {
        match instr {
            InstrKind::Assign { local, rv } => {
                let t = self.type_rvalue(cfg, env, rv, span)?;
                env.assign(local.clone(), t);
            }
            InstrKind::SetIVar { name, value } => {
                let vt = self.type_operand(env, value);
                let chain = self.info.ancestors(self.self_class);
                if let Some((declared, decl_span)) = self.rdl.ivar_decl(&chain, name) {
                    if !vt.is_subtype(&declared, &self.hier()) {
                        return Err(self.err_var(
                            format!("cannot assign {} to @{} (declared {})", vt, name, declared),
                            span,
                            format!("@{name}"),
                            decl_span,
                        ));
                    }
                }
            }
            InstrKind::SetCVar { name, value } => {
                let vt = self.type_operand(env, value);
                let chain = self.info.ancestors(self.self_class);
                if let Some((declared, decl_span)) = self.rdl.cvar_decl(&chain, name) {
                    if !vt.is_subtype(&declared, &self.hier()) {
                        return Err(self.err_var(
                            format!("cannot assign {} to @@{} (declared {})", vt, name, declared),
                            span,
                            format!("@@{name}"),
                            decl_span,
                        ));
                    }
                }
            }
            InstrKind::SetGVar { name, value } => {
                let vt = self.type_operand(env, value);
                if let Some((declared, decl_span)) = self.rdl.gvar_decl(name) {
                    if !vt.is_subtype(&declared, &self.hier()) {
                        return Err(self.err_var(
                            format!("cannot assign {} to ${} (declared {})", vt, name, declared),
                            span,
                            format!("${name}"),
                            decl_span,
                        ));
                    }
                }
            }
            InstrKind::SetConst { .. } => {}
        }
        Ok(())
    }

    fn type_rvalue(
        &mut self,
        cfg: &MethodCfg,
        env: &mut TypeEnv,
        rv: &Rvalue,
        span: Span,
    ) -> Result<Type, CheckError> {
        let hier = self.hier();
        match rv {
            Rvalue::Use(op) => Ok(self.type_operand(env, op)),
            Rvalue::IVar(name) => {
                let chain = self.info.ancestors(self.self_class);
                Ok(self.rdl.ivar_type(&chain, name).unwrap_or(Type::Any))
            }
            Rvalue::CVar(name) => {
                let chain = self.info.ancestors(self.self_class);
                Ok(self.rdl.cvar_type(&chain, name).unwrap_or(Type::Any))
            }
            Rvalue::GVar(name) => Ok(self.rdl.gvar_type(name).unwrap_or(Type::Any)),
            Rvalue::ConstRef(path) => {
                let joined = path.join("::");
                if self.info.class_exists(&joined) {
                    return Ok(Type::ClassObj(Sym::intern(&joined)));
                }
                // Try resolving relative to the receiver class's namespace.
                let prefixed = format!("{}::{}", self.self_class, joined);
                if self.info.class_exists(&prefixed) {
                    return Ok(Type::ClassObj(Sym::intern(&prefixed)));
                }
                Ok(Type::Any)
            }
            Rvalue::StrInterp(_) => Ok(Type::Nominal(sym!("String"))),
            Rvalue::ArrayLit(elems) => {
                if elems.is_empty() {
                    return Ok(Type::Nominal(sym!("Array")));
                }
                let mut t = self.type_operand(env, &elems[0]);
                for e in &elems[1..] {
                    t = t.lub(&self.type_operand(env, e), &hier);
                }
                Ok(Type::Generic(sym!("Array"), vec![t]))
            }
            Rvalue::HashLit(pairs) => {
                if pairs.is_empty() {
                    return Ok(Type::Nominal(sym!("Hash")));
                }
                let mut kt = self.type_operand(env, &pairs[0].0);
                let mut vt = self.type_operand(env, &pairs[0].1);
                for (k, v) in &pairs[1..] {
                    kt = kt.lub(&self.type_operand(env, k), &hier);
                    vt = vt.lub(&self.type_operand(env, v), &hier);
                }
                Ok(Type::Generic(sym!("Hash"), vec![kt, vt]))
            }
            Rvalue::RangeLit { lo, hi, .. } => {
                let lt = self.type_operand(env, lo);
                let ht = self.type_operand(env, hi);
                Ok(Type::Generic(sym!("Range"), vec![lt.lub(&ht, &hier)]))
            }
            Rvalue::Not(_) => Ok(Type::Bool),
            Rvalue::RescueBind(classes) => {
                if classes.is_empty() {
                    Ok(Type::Nominal(sym!("StandardError")))
                } else {
                    Ok(Type::union_of(classes.iter().map(Type::nominal).collect()))
                }
            }
            Rvalue::Cast { value, ty } => {
                let _ = self.type_operand(env, value);
                let parsed = hb_types::parse_type(ty)
                    .map_err(|e| self.err_cast(format!("invalid cast type: {e}"), span))?;
                self.casts.insert((span.file.0, span.lo, span.hi));
                Ok(parsed)
            }
            Rvalue::Yield(args) => {
                let Some(bt) = self.arm.block.as_deref() else {
                    return Err(self.err_own(
                        DiagCode::BlockIncompatible,
                        format!(
                            "method {} yields but its type declares no block",
                            self.method
                        ),
                        span,
                        "annotation declares no block type".to_string(),
                    ));
                };
                for (i, a) in args.iter().enumerate() {
                    let at = self.type_operand(env, a);
                    if let Some(pt) = bt.param_at(i) {
                        if !at.is_subtype(pt, &self.hier()) {
                            return Err(self.err_own(
                                DiagCode::ArgumentType,
                                format!("yield argument {i} has type {at}, block expects {pt}"),
                                span,
                                format!("block parameter type {pt} declared here"),
                            ));
                        }
                    }
                }
                Ok(bt.ret.clone())
            }
            Rvalue::Super { args } => {
                let chain = self.info.ancestors(self.self_class);
                let above = chain.get(1..).unwrap_or_default();
                let super_level = matches!(self.self_type, Type::ClassObj(_));
                let found = self.rdl.lookup_along(above, super_level, self.method);
                match found {
                    Some((key, entry)) => {
                        self.rdl.mark_used(&key);
                        self.resolutions.insert(Resolution {
                            start: self.self_class,
                            skip_receiver: true,
                            class_level: super_level,
                            method: self.method,
                            target: Some(key),
                        });
                        let mut ret: Option<Type> = None;
                        for arm in &entry.sig.arms {
                            let arm = arm.erased();
                            if let Some(args) = args {
                                if !arm.accepts_arity(args.len()) {
                                    continue;
                                }
                            }
                            ret = Some(match ret {
                                None => arm.ret.clone(),
                                Some(r) => r.lub(&arm.ret, &self.hier()),
                            });
                        }
                        ret.ok_or_else(|| {
                            self.err_callee(
                                DiagCode::ArityMismatch,
                                format!("no arm of super {} accepts these arguments", self.method),
                                span,
                                key,
                                entry.span,
                                &entry.sig.to_string(),
                            )
                        })
                    }
                    None => {
                        // The lookup that failed: the checked method above
                        // `self_class` (keyed on the receiver for want of
                        // a resolved owner).
                        let missing = MethodKey {
                            class: self.self_class,
                            class_level: super_level,
                            method: self.method,
                        };
                        Err(self.err_missing(
                            format!(
                                "Hummingbird: no type for super method {} above {}",
                                self.method, self.self_class
                            ),
                            span,
                            missing,
                        ))
                    }
                }
            }
            Rvalue::Call {
                recv,
                name,
                args,
                block,
            } => {
                let recv_ty = match recv {
                    Some(op) => self.type_operand(env, op),
                    None => self.self_type.clone(),
                };
                self.type_call(cfg, env, &recv_ty, name, args, *block, span)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn type_call(
        &mut self,
        cfg: &MethodCfg,
        env: &mut TypeEnv,
        recv_ty: &Type,
        name: &str,
        args: &[CallArg],
        block: Option<hb_il::BlockLitId>,
        span: Span,
    ) -> Result<Type, CheckError> {
        match recv_ty {
            Type::Any | Type::Var(_) => {
                // Dynamic receiver: nothing to check statically; still walk
                // any block literal with %any parameters so errors inside
                // the block are found.
                if let Some(bid) = block {
                    let lit = &cfg.block_lits[bid.0 as usize];
                    let bt = MethodType {
                        params: lit
                            .params
                            .iter()
                            .map(|_| hb_types::ParamType::required(Type::Any))
                            .collect(),
                        block: None,
                        ret: Type::Any,
                    };
                    self.check_block_lit(cfg, lit, &bt, env, None)?;
                }
                Ok(Type::Any)
            }
            Type::Union(arms) => {
                // Paper §4: check once per arm, union the return types.
                let hier = self.hier();
                let mut ret: Option<Type> = None;
                for arm in arms {
                    let t = self.type_call(cfg, env, arm, name, args, block, span)?;
                    ret = Some(match ret {
                        None => t,
                        Some(r) => r.lub(&t, &hier),
                    });
                }
                Ok(ret.unwrap_or(Type::Nil))
            }
            Type::Nil => {
                let c = sym!("NilClass");
                self.type_nominal_call(cfg, env, c, None, false, name, args, block, span)
            }
            Type::Bool => {
                let c = sym!("Boolean");
                self.type_nominal_call(cfg, env, c, None, false, name, args, block, span)
            }
            Type::Nominal(c) => {
                self.type_nominal_call(cfg, env, *c, None, false, name, args, block, span)
            }
            Type::Generic(c, targs) => {
                self.type_nominal_call(cfg, env, *c, Some(targs), false, name, args, block, span)
            }
            Type::ClassObj(c) => {
                self.type_nominal_call(cfg, env, *c, None, true, name, args, block, span)
            }
        }
    }

    /// Resolves a method type for class `c` (instance or class level),
    /// selects matching intersection arms, checks argument and block
    /// compatibility, and returns the (union of) result type(s).
    #[allow(clippy::too_many_arguments)]
    fn type_nominal_call(
        &mut self,
        cfg: &MethodCfg,
        env: &mut TypeEnv,
        c: Sym,
        targs: Option<&[Type]>,
        class_level: bool,
        name: &str,
        args: &[CallArg],
        block: Option<hb_il::BlockLitId>,
        span: Span,
    ) -> Result<Type, CheckError> {
        let method = Sym::intern(name);
        let chain = self.info.ancestors(c);
        let found = if class_level {
            match self.rdl.lookup_along(&chain, true, method) {
                Some(hit) => {
                    self.resolutions
                        .insert(Resolution::of(c, true, method, Some(hit.0)));
                    Some(hit)
                }
                None => {
                    // Class objects also answer instance methods of Class.
                    // The miss above is part of the derivation: record the
                    // negative witness so a consumer with a class-level
                    // annotation on `c`'s chain rejects it.
                    self.resolutions
                        .insert(Resolution::of(c, true, method, None));
                    let class = sym!("Class");
                    let class_chain = self.info.ancestors(class);
                    let fb = self.rdl.lookup_along(&class_chain, false, method);
                    self.resolutions.insert(Resolution::of(
                        class,
                        false,
                        method,
                        fb.as_ref().map(|(k, _)| *k),
                    ));
                    fb
                }
            }
        } else {
            let found = self.rdl.lookup_along(&chain, false, method);
            self.resolutions.insert(Resolution::of(
                c,
                false,
                method,
                found.as_ref().map(|(k, _)| *k),
            ));
            found
        };

        // `C.new` falls back to C#initialize (returning an instance of C).
        if found.is_none() && class_level && method == sym!("new") {
            return self.type_new_call(cfg, env, c, &chain, args, block, span);
        }

        let (key, entry) = match found {
            Some(x) => x,
            None => {
                let kind = if class_level { "." } else { "#" };
                let missing = MethodKey {
                    class: c,
                    class_level,
                    method,
                };
                return Err(self.err_missing(
                    format!("Hummingbird: no type for {c}{kind}{name}"),
                    span,
                    missing,
                ));
            }
        };
        self.rdl.mark_used(&key);
        let sig = self.instantiate(&entry, c, targs);
        self.apply_sig(
            cfg,
            env,
            c,
            name,
            &sig,
            args,
            block,
            span,
            (key, entry.span),
        )
    }

    /// Instantiates a signature's generic variables against the receiver's
    /// type arguments; raw receivers erase variables to `%any` (§4). A
    /// signature without type variables is borrowed as it is.
    fn instantiate<'e>(
        &self,
        entry: &'e TableEntry,
        c: Sym,
        targs: Option<&[Type]>,
    ) -> Cow<'e, MethodSig> {
        let params = generic_params(c);
        match targs {
            Some(targs) if !params.is_empty() => {
                let map: HashMap<String, Type> = params
                    .iter()
                    .zip(targs.iter())
                    .map(|(p, t)| (p.to_string(), t.clone()))
                    .collect();
                Cow::Owned(MethodSig {
                    arms: entry
                        .sig
                        .arms
                        .iter()
                        .map(|a| a.subst(&map).erase_vars())
                        .collect(),
                })
            }
            _ if !entry.sig.arms.iter().any(MethodType::has_vars) => Cow::Borrowed(&entry.sig),
            _ => Cow::Owned(MethodSig {
                arms: entry.sig.arms.iter().map(|a| a.erase_vars()).collect(),
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn type_new_call(
        &mut self,
        cfg: &MethodCfg,
        env: &mut TypeEnv,
        c: Sym,
        chain: &[Sym],
        args: &[CallArg],
        block: Option<hb_il::BlockLitId>,
        span: Span,
    ) -> Result<Type, CheckError> {
        let instance = Type::Nominal(c);
        let initialize = sym!("initialize");
        let found_init = self.rdl.lookup_along(chain, false, initialize);
        self.resolutions.insert(Resolution::of(
            c,
            false,
            initialize,
            found_init.as_ref().map(|(k, _)| *k),
        ));
        match found_init {
            Some((key, entry)) => {
                self.rdl.mark_used(&key);
                let sig = MethodSig {
                    arms: entry
                        .sig
                        .arms
                        .iter()
                        .map(|a| {
                            let mut a = a.erase_vars();
                            a.ret = instance.clone();
                            a
                        })
                        .collect(),
                };
                self.apply_sig(
                    cfg,
                    env,
                    c,
                    "new",
                    &sig,
                    args,
                    block,
                    span,
                    (key, entry.span),
                )
            }
            None => {
                // Unannotated constructor: accept anything (the dynamic
                // check still guards at run time).
                let _ = block;
                Ok(instance)
            }
        }
    }

    /// Checks a call against a resolved signature: arity, argument
    /// subtyping, and block compatibility per matching arm. `callee` is
    /// the annotation the signature came from and its registration site —
    /// the blame target for every failure here.
    #[allow(clippy::too_many_arguments)]
    fn apply_sig(
        &mut self,
        cfg: &MethodCfg,
        env: &mut TypeEnv,
        c: Sym,
        name: &str,
        sig: &MethodSig,
        args: &[CallArg],
        block: Option<hb_il::BlockLitId>,
        span: Span,
        callee: (MethodKey, Span),
    ) -> Result<Type, CheckError> {
        let hier = self.hier();
        let has_splat = args.iter().any(|a| matches!(a, CallArg::Splat(_)));
        let has_block_pass = args.iter().any(|a| matches!(a, CallArg::BlockPass(_)));
        let pos_args: Vec<Type> = args
            .iter()
            .filter_map(|a| match a {
                CallArg::Pos(op) => Some(self.type_operand(env, op)),
                _ => None,
            })
            .collect();

        let mut matching: Vec<&MethodType> = Vec::new();
        let mut arity_ok: Vec<&MethodType> = Vec::new();
        for arm in &sig.arms {
            if has_splat {
                matching.push(arm);
                continue;
            }
            if !arm.accepts_arity(pos_args.len()) {
                continue;
            }
            arity_ok.push(arm);
            let all_fit = pos_args
                .iter()
                .enumerate()
                .all(|(i, at)| match arm.param_at(i) {
                    Some(pt) => at.is_subtype(pt, &hier),
                    None => false,
                });
            if all_fit {
                matching.push(arm);
            }
        }
        if matching.is_empty() {
            let sig_str = sig.to_string();
            if arity_ok.is_empty() {
                return Err(self.err_callee(
                    DiagCode::ArityMismatch,
                    format!(
                        "wrong number of arguments in call to {c}#{name} (given {}, type is {})",
                        pos_args.len(),
                        sig
                    ),
                    span,
                    callee.0,
                    callee.1,
                    &sig_str,
                ));
            }
            let got: Vec<String> = pos_args.iter().map(|t| t.to_string()).collect();
            return Err(self.err_callee(
                DiagCode::ArgumentType,
                format!(
                    "argument type mismatch calling {c}#{name}: got ({}), type is {}",
                    got.join(", "),
                    sig
                ),
                span,
                callee.0,
                callee.1,
                &sig_str,
            ));
        }

        // Block compatibility.
        if let Some(bid) = block {
            let lit = &cfg.block_lits[bid.0 as usize];
            let with_block: Vec<&&MethodType> =
                matching.iter().filter(|a| a.block.is_some()).collect();
            if with_block.is_empty() {
                // The 1/7/12-5 Talks error: passing a block to a method
                // whose type takes none.
                return Err(self.err_callee(
                    DiagCode::BlockIncompatible,
                    format!("{c}#{name} is called with a block but its type does not take one"),
                    span,
                    callee.0,
                    callee.1,
                    &sig.to_string(),
                ));
            }
            let bt = with_block[0].block.as_deref().cloned().unwrap();
            let merged = self.check_block_lit(cfg, lit, &bt, env, Some(callee))?;
            *env = merged;
        } else if has_block_pass {
            // A passed proc is assumed type-safe (higher-order contracts
            // are future work, paper §4 "Code Blocks").
        }

        let mut ret: Option<Type> = None;
        for arm in &matching {
            ret = Some(match ret {
                None => arm.ret.clone(),
                Some(r) => r.lub(&arm.ret, &hier),
            });
        }
        Ok(ret.unwrap_or(Type::Nil))
    }

    /// Checks a block literal against the callee's declared block type and
    /// returns the environment after the call (captured variables joined
    /// with their post-block types). `callee` (when known) is the
    /// annotation whose block type the literal is checked against.
    fn check_block_lit(
        &mut self,
        _cfg: &MethodCfg,
        lit: &BlockLit,
        bt: &MethodType,
        env: &TypeEnv,
        callee: Option<(MethodKey, Span)>,
    ) -> Result<TypeEnv, CheckError> {
        let mut block_env = env.clone();
        let mut pos = 0usize;
        for p in &lit.params {
            match p.kind {
                IlParamKind::Required | IlParamKind::Optional => {
                    let ty = bt.param_at(pos).cloned().unwrap_or(Type::Any);
                    block_env.assign(p.name.clone(), ty);
                    pos += 1;
                }
                IlParamKind::Rest => {
                    let elem = bt.param_at(pos).cloned().unwrap_or(Type::Any);
                    block_env.assign(p.name.clone(), Type::Generic(sym!("Array"), vec![elem]));
                    pos += 1;
                }
                IlParamKind::Block => {
                    block_env.assign(p.name.clone(), Type::Nominal(sym!("Proc")));
                }
            }
        }
        let (result, exit) = self.check_cfg(&lit.cfg, block_env)?;
        if !result.is_subtype(&bt.ret, &self.hier()) {
            let message = format!(
                "block has type {} but {} expects a block returning {}",
                result, self.method, bt.ret
            );
            return Err(match callee {
                Some((key, ann_span)) => self.err_callee(
                    DiagCode::BlockIncompatible,
                    message,
                    lit.cfg.span,
                    key,
                    ann_span,
                    &bt.to_string(),
                ),
                None => self.err_own(
                    DiagCode::BlockIncompatible,
                    message,
                    lit.cfg.span,
                    format!("block type {bt} expected here"),
                ),
            });
        }
        // The block may run zero or more times: captured variables join
        // their pre- and post-block types.
        Ok(env.join_keep_left(&exit, &self.hier()))
    }
}
