//! The RubyLite evaluator.
//!
//! A tree-walking interpreter over [`hb_syntax::ast`]. Method dispatch runs
//! through [`Interp::call_method`], which consults the installed
//! [`CallHook`] — that is the seam where Hummingbird's `pre` contracts and
//! just-in-time static checks attach, mirroring the paper's
//! implementation on top of method interception.

use crate::class::{BuiltinFn, ClassRegistry, InterpEvent, MethodBody, MethodEntry};
use crate::env::{Scope, ScopeRef};
use crate::error::{ErrorKind, Flow, HbError};
use crate::hooks::{CallHook, DispatchInfo};
use crate::tier::ExecTierState;
use crate::value::{ClassId, HashObj, Instance, ProcVal, Value};
use hb_intern::{FastMap, Sym};
use hb_syntax::ast::*;
use hb_syntax::parse_in;
use hb_syntax::{SourceMap, Span};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// What kind of execution context a frame is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// The top-level main frame.
    Main,
    /// A `class`/`module` body.
    ClassBody,
    /// An interpreted method body.
    Method,
    /// A block/proc body.
    Block,
}

/// A call/execution frame.
pub struct Frame {
    pub kind: FrameKind,
    pub self_val: Value,
    /// The class receiving `def` in this frame.
    pub definee: ClassId,
    /// `(owner, name)` of the currently executing method (for `super`).
    pub method: Option<(ClassId, Sym)>,
    /// The arguments an argument-forwarding `super` passes on. A
    /// tree-walk method frame takes them from its call and binds its
    /// parameters from here, so a call copies no argument vector; a
    /// bytecode frame holds none (`super` does not compile).
    pub args: Vec<Value>,
    /// The block passed to the current method (for `yield`).
    pub block: Option<Value>,
    /// True when the Hummingbird engine statically checked this call, so
    /// calls made from here skip dynamic argument checks.
    pub checked: bool,
    /// Lexical constant nesting for resolution (shared: method frames for
    /// the same class reuse one memoised vector).
    pub nesting: Rc<Vec<String>>,
}

/// Hierarchy-generation-tagged memo of per-class lexical nesting.
type NestingMemo = (u64, FastMap<ClassId, Rc<Vec<String>>>);

/// The interpreter.
pub struct Interp {
    pub registry: ClassRegistry,
    /// Constants by fully qualified name (`A::B`).
    constants: FastMap<String, Value>,
    /// The candidate name [`Interp::resolve_const`] spells, reused so a
    /// constant reference allocates nothing.
    const_name: RefCell<String>,
    globals: HashMap<String, Value>,
    pub source_map: SourceMap,
    /// Execution-tier state (bytecode chunks, fast-entry patch table).
    /// Shared with the Hummingbird engine, which deoptimizes patched
    /// entries when derivations are invalidated.
    pub tier: Rc<ExecTierState>,
    frames: Vec<Frame>,
    /// The dispatch hook (the Hummingbird engine), when one is installed.
    hook: Option<Rc<dyn CallHook>>,
    extensions: HashMap<TypeId, Rc<dyn Any>>,
    /// Memoised per-class lexical nesting (`A::B` → `["A", "B"]`), keyed
    /// by the registry's hierarchy generation so renames invalidate it.
    nesting_memo: RefCell<NestingMemo>,
    /// Interned `name=` setter symbols, so attribute assignment does not
    /// allocate a fresh `String` per call.
    setter_syms: RefCell<FastMap<String, Sym>>,
    output: String,
    /// Echo `puts` output to stdout as well as the capture buffer.
    pub echo: bool,
    /// Recursion guard.
    max_depth: usize,
    /// Call-site span of the builtin currently executing (set on entry to
    /// every builtin dispatch). Builtins receive no span parameter; the
    /// annotation builtins (`type`, `var_type`, `rdl_cast`, `pre`) read
    /// this to record where an annotation was registered or a cast
    /// asserted — the spans structured blame diagnostics point at. Only
    /// valid at builtin entry: a nested dispatch overwrites it.
    builtin_span: Span,
}

thread_local! {
    /// The calling thread's bootstrapped interpreter, built by its first
    /// [`Interp::new`] and only ever forked.
    static BOOTSTRAP: Interp = Interp::bootstrap();
}

impl Interp {
    /// Creates an interpreter with the core library loaded.
    ///
    /// The core library is bootstrapped once per thread: the thread's first
    /// call defines its classes and builtins, and every call, the first
    /// included, returns a fork of that bootstrap. A fork shares the
    /// builtin closures, which capture no per-interpreter state, and the
    /// memoised ancestor and resolution chains; its method tables are
    /// copy-on-write; it copies the rest of the class registry and the
    /// class constants. It has its own `main` object and frame, source map,
    /// execution-tier state, hook, extensions, memos and output. So it is
    /// indistinguishable from a fresh bootstrap, down to the method entry
    /// ids, the hierarchy generation and the shape fingerprint that
    /// derivations, snapshots and shared-tier adoption compare, and
    /// nothing one interpreter does reaches another.
    pub fn new() -> Interp {
        BOOTSTRAP.with(Interp::fork)
    }

    /// Defines every core class and builtin: the thread's bootstrap,
    /// which [`Interp::new`] forks.
    fn bootstrap() -> Interp {
        let mut interp = Interp::with_classes(ClassRegistry::new(), FastMap::default());
        crate::stdlib::install(&mut interp);
        // Classes registered during bootstrap are not interesting events.
        interp.registry.events.clear();
        interp
    }

    /// A fresh interpreter over a copy of the bootstrap's classes and
    /// constants (see [`Interp::new`]).
    fn fork(&self) -> Interp {
        debug_assert!(self.globals.is_empty(), "the bootstrap sets no globals");
        debug_assert!(
            self.constants
                .values()
                .all(|v| matches!(v, Value::Class(_))),
            "the bootstrap's constants are its classes"
        );
        Interp::with_classes(self.registry.fork(), self.constants.clone())
    }

    /// An interpreter over `registry` and `constants`, with everything
    /// else fresh: no globals, a new `main` object and frame, source map
    /// and execution-tier state, no hook or extensions, empty memos and
    /// output.
    fn with_classes(registry: ClassRegistry, constants: FastMap<String, Value>) -> Interp {
        let object = registry.object();
        let main = Value::Obj(Rc::new(Instance {
            class: object,
            ivars: RefCell::default(),
        }));
        Interp {
            registry,
            constants,
            const_name: RefCell::default(),
            globals: HashMap::new(),
            source_map: SourceMap::new(),
            tier: Rc::new(ExecTierState::new()),
            frames: vec![Frame {
                kind: FrameKind::Main,
                self_val: main,
                definee: object,
                method: None,
                args: vec![],
                block: None,
                checked: false,
                nesting: Rc::new(vec![]),
            }],
            hook: None,
            extensions: HashMap::new(),
            nesting_memo: RefCell::default(),
            setter_syms: RefCell::default(),
            output: String::new(),
            echo: false,
            // Guards runaway interpreted recursion. Each interpreted frame
            // also consumes substantial native stack through the recursive
            // evaluator, so hosts running untrusted deep recursion should
            // provide a generous native stack (see the edge-case tests).
            max_depth: 500,
            builtin_span: Span::dummy(),
        }
    }

    // ----- extensions & hooks ------------------------------------------------

    /// Installs the call hook (the Hummingbird engine), replacing any
    /// previous one.
    pub fn set_hook(&mut self, hook: Rc<dyn CallHook>) {
        self.hook = Some(hook);
    }

    /// Stores a typed extension (e.g. the RDL state) retrievable by any
    /// builtin.
    pub fn set_extension<T: 'static>(&mut self, ext: Rc<T>) {
        self.extensions.insert(TypeId::of::<T>(), ext);
    }

    /// Fetches a typed extension.
    pub fn extension<T: 'static>(&self) -> Option<Rc<T>> {
        self.extensions
            .get(&TypeId::of::<T>())
            .and_then(|e| e.clone().downcast::<T>().ok())
    }

    // ----- frames ------------------------------------------------------------

    /// The innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if called before bootstrap completes (there is always a main
    /// frame).
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("main frame always present")
    }

    #[allow(dead_code)]
    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("main frame always present")
    }

    pub(crate) fn push_frame(&mut self, f: Frame) {
        self.frames.push(f);
    }

    pub(crate) fn pop_frame(&mut self) {
        self.frames.pop();
    }

    /// The memoised lexical nesting of a class (`A::B` → `["A", "B"]`).
    /// Keyed by the registry's hierarchy generation: a rename/define
    /// invalidates the whole memo rather than tracking names per class.
    pub(crate) fn nesting_of(&self, owner: ClassId) -> Rc<Vec<String>> {
        let generation = self.registry.hierarchy_generation();
        let mut memo = self.nesting_memo.borrow_mut();
        if memo.0 != generation {
            memo.0 = generation;
            memo.1.clear();
        }
        memo.1
            .entry(owner)
            .or_insert_with(|| {
                Rc::new(
                    self.registry
                        .name(owner)
                        .split("::")
                        .map(|s| s.to_string())
                        .collect(),
                )
            })
            .clone()
    }

    /// The interned `name=` symbol for an attribute writer, allocated at
    /// most once per attribute name.
    fn setter_sym(&self, name: &str) -> Sym {
        if let Some(s) = self.setter_syms.borrow().get(name) {
            return *s;
        }
        let s = Sym::intern(&format!("{name}="));
        self.setter_syms.borrow_mut().insert(name.to_string(), s);
        s
    }

    /// Whether the currently executing method was statically checked.
    pub fn current_caller_checked(&self) -> bool {
        self.frame().checked
    }

    /// Current `self`.
    pub fn self_val(&self) -> Value {
        self.frame().self_val.clone()
    }

    /// Current definee class (receiver of `def`).
    pub fn definee(&self) -> ClassId {
        self.frame().definee
    }

    /// Call stack depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// True when executing inside a method or block — i.e. annotations
    /// registered now are *dynamically generated* in the paper's sense
    /// (pre-hooks, schema loops, `add_types`), as opposed to literal
    /// top-level / class-body annotations.
    pub fn in_dynamic_context(&self) -> bool {
        self.frames
            .iter()
            .any(|f| matches!(f.kind, FrameKind::Method | FrameKind::Block))
    }

    // ----- output --------------------------------------------------------

    /// Appends to the captured program output.
    pub fn push_output(&mut self, s: &str) {
        if self.echo {
            print!("{s}");
        }
        self.output.push_str(s);
    }

    /// Takes and clears the captured output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    // ----- globals and constants -----------------------------------------

    /// Reads a global variable.
    pub fn global(&self, name: &str) -> Value {
        self.globals.get(name).cloned().unwrap_or(Value::Nil)
    }

    /// Sets a global variable.
    pub fn set_global(&mut self, name: &str, v: Value) {
        self.globals.insert(name.to_string(), v);
    }

    /// Defines (or reopens) a class and binds its constant.
    pub fn define_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        let id = self.registry.define_class(name, superclass, false);
        self.constants.insert(name.to_string(), Value::Class(id));
        id
    }

    /// Defines (or reopens) a module and binds its constant.
    pub fn define_module(&mut self, name: &str) -> ClassId {
        let id = self.registry.define_class(name, None, true);
        self.constants.insert(name.to_string(), Value::Class(id));
        id
    }

    /// Registers a native method.
    pub fn define_builtin(&mut self, class: ClassId, name: &str, class_level: bool, f: BuiltinFn) {
        self.registry
            .add_method(class, name, MethodBody::Builtin(f), class_level);
    }

    /// The call-site span of the builtin currently executing (see the
    /// field docs): read it at builtin entry, before making further calls.
    pub fn current_builtin_span(&self) -> Span {
        self.builtin_span
    }

    /// Looks up a constant by fully qualified name.
    pub fn constant(&self, name: &str) -> Option<Value> {
        self.constants.get(name).cloned()
    }

    /// Binds a constant by fully qualified name.
    pub fn set_constant(&mut self, name: &str, v: Value) {
        self.constants.insert(name.to_string(), v);
    }

    /// Resolves a constant reference lexically: `path` under each
    /// enclosing nesting of the current frame, innermost first, then at
    /// the top level.
    pub(crate) fn resolve_const(&self, path: &[String], span: Span) -> Result<Value, Flow> {
        let nesting = &self.frame().nesting;
        let mut name = self.const_name.borrow_mut();
        for i in (0..=nesting.len()).rev() {
            name.clear();
            for (k, segment) in nesting[..i].iter().chain(path).enumerate() {
                if k > 0 {
                    name.push_str("::");
                }
                name.push_str(segment);
            }
            if let Some(v) = self.constants.get(name.as_str()) {
                return Ok(v.clone());
            }
        }
        Err(Flow::Error(HbError::new(
            ErrorKind::NameError,
            format!("uninitialized constant {}", path.join("::")),
            span,
        )))
    }

    /// Drains pending class-registry events (engine side).
    pub fn drain_events(&mut self) -> Vec<InterpEvent> {
        self.registry.drain_events()
    }

    // ----- program loading -------------------------------------------------

    /// Registers a source file and returns its program, parsed at most
    /// once per thread for that text (see [`hb_syntax::store`]).
    ///
    /// # Errors
    ///
    /// Returns parse errors.
    pub fn parse(&mut self, name: &str, src: &str) -> Result<Rc<Program>, HbError> {
        parse_in(&mut self.source_map, name, src)
            .map_err(|e| HbError::new(ErrorKind::Internal, e.render(&self.source_map), e.span))
    }

    /// Parses and evaluates a source file.
    ///
    /// # Errors
    ///
    /// Returns parse errors and uncaught runtime errors.
    pub fn load_program(&mut self, name: &str, src: &str) -> Result<Value, HbError> {
        let prog = self.parse(name, src)?;
        self.eval_program(&prog)
    }

    /// Evaluates an already-parsed program at the top level.
    ///
    /// # Errors
    ///
    /// Returns uncaught runtime errors.
    pub fn eval_program(&mut self, prog: &Program) -> Result<Value, HbError> {
        let scope = Scope::root();
        let mut last = Value::Nil;
        for e in &prog.body {
            last = self.eval(e, &scope).map_err(Flow::into_error)?;
        }
        Ok(last)
    }

    /// Evaluates a single expression string (tests and examples).
    ///
    /// # Errors
    ///
    /// Returns parse errors and uncaught runtime errors.
    pub fn eval_str(&mut self, src: &str) -> Result<Value, HbError> {
        self.load_program("<eval>", src)
    }

    // ----- the evaluator ---------------------------------------------------

    /// Evaluates an expression in a scope.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors and non-local control flow.
    pub fn eval(&mut self, e: &Expr, scope: &ScopeRef) -> Result<Value, Flow> {
        let span = e.span;
        match &e.kind {
            ExprKind::Nil => Ok(Value::Nil),
            ExprKind::True => Ok(Value::Bool(true)),
            ExprKind::False => Ok(Value::Bool(false)),
            ExprKind::SelfExpr => Ok(self.self_val()),
            ExprKind::Int(n) => Ok(Value::Int(*n)),
            ExprKind::Float(x) => Ok(Value::Float(*x)),
            ExprKind::Sym(s) => Ok(Value::sym(s)),
            ExprKind::Str(parts) => {
                let mut out = String::new();
                for p in parts {
                    match p {
                        StrPart::Lit(s) => out.push_str(s),
                        StrPart::Interp(e) => {
                            let v = self.eval(e, scope)?;
                            out.push_str(&self.value_to_s(&v)?);
                        }
                    }
                }
                Ok(Value::str(out))
            }
            ExprKind::Array(elems) => {
                let mut vs = Vec::with_capacity(elems.len());
                for el in elems {
                    vs.push(self.eval(el, scope)?);
                }
                Ok(Value::array(vs))
            }
            ExprKind::Hash(pairs) => {
                let mut h = HashObj::new();
                for (k, v) in pairs {
                    let k = self.eval(k, scope)?;
                    let v = self.eval(v, scope)?;
                    h.insert(k, v);
                }
                Ok(Value::Hash(Rc::new(RefCell::new(h))))
            }
            ExprKind::Range { lo, hi, exclusive } => {
                let lo = self.eval(lo, scope)?;
                let hi = self.eval(hi, scope)?;
                Ok(Value::Range(Rc::new((lo, hi, *exclusive))))
            }
            ExprKind::Local(n) => Ok(scope.get(n).unwrap_or(Value::Nil)),
            ExprKind::IVar(n) => Ok(self.ivar_get(&self.self_val(), n)),
            ExprKind::CVar(n) => Ok(self.cvar_get(n)),
            ExprKind::GVar(n) => Ok(self.global(n)),
            ExprKind::Const(path) => self.resolve_const(path, span),
            ExprKind::Assign { target, value } => {
                let v = self.eval(value, scope)?;
                self.assign(target, v.clone(), scope, span)?;
                Ok(v)
            }
            ExprKind::OpAssign { target, op, value } => {
                let cur = self.lhs_read(target, scope, span)?;
                match op.as_str() {
                    "||" => {
                        if cur.truthy() {
                            Ok(cur)
                        } else {
                            let v = self.eval(value, scope)?;
                            self.assign(target, v.clone(), scope, span)?;
                            Ok(v)
                        }
                    }
                    "&&" => {
                        if !cur.truthy() {
                            Ok(cur)
                        } else {
                            let v = self.eval(value, scope)?;
                            self.assign(target, v.clone(), scope, span)?;
                            Ok(v)
                        }
                    }
                    op => {
                        let rhs = self.eval(value, scope)?;
                        let v = self.call_method(cur, op, vec![rhs], None, span)?;
                        self.assign(target, v.clone(), scope, span)?;
                        Ok(v)
                    }
                }
            }
            ExprKind::Call {
                recv,
                name,
                args,
                block,
            } => {
                let recv_v = match recv {
                    Some(r) => Some(self.eval(r, scope)?),
                    None => None,
                };
                let (argv, mut block_v) = self.eval_args(args, scope)?;
                if let Some(b) = block {
                    block_v = Some(self.make_proc(b, scope));
                }
                match recv_v {
                    Some(r) => self.call_method(r, name, argv, block_v, span),
                    None => {
                        let slf = self.self_val();
                        self.call_method(slf, name, argv, block_v, span)
                    }
                }
            }
            ExprKind::Yield(args) => {
                let blk = self.frame().block.clone();
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, scope)?);
                }
                match blk {
                    Some(b) => self.call_block(&b, argv),
                    None => Err(Flow::Error(HbError::new(
                        ErrorKind::ArgumentError,
                        "no block given (yield)",
                        span,
                    ))),
                }
            }
            ExprKind::Super { args } => {
                let (owner, name) = match self.frame().method {
                    Some(m) => m,
                    None => {
                        return Err(Flow::Error(HbError::new(
                            ErrorKind::NameError,
                            "super called outside of method",
                            span,
                        )))
                    }
                };
                let argv = match args {
                    Some(args) => {
                        let mut v = Vec::with_capacity(args.len());
                        for a in args {
                            v.push(self.eval(a, scope)?);
                        }
                        v
                    }
                    None => self.frame().args.clone(),
                };
                let recv = self.self_val();
                let recv_class = self.registry.class_of(&recv);
                let blk = self.frame().block.clone();
                match self
                    .registry
                    .find_method_above(recv_class, owner, name.as_str())
                {
                    Some((o, entry)) => self.invoke_entry_inner(
                        recv,
                        recv_class,
                        false,
                        o,
                        entry,
                        name.as_str(),
                        Some(name),
                        argv,
                        blk,
                        span,
                    ),
                    None => Err(Flow::Error(HbError::new(
                        ErrorKind::NoMethod,
                        format!("super: no superclass method `{name}`"),
                        span,
                    ))),
                }
            }
            ExprKind::And(l, r) => {
                let a = self.eval(l, scope)?;
                if a.truthy() {
                    self.eval(r, scope)
                } else {
                    Ok(a)
                }
            }
            ExprKind::Or(l, r) => {
                let a = self.eval(l, scope)?;
                if a.truthy() {
                    Ok(a)
                } else {
                    self.eval(r, scope)
                }
            }
            ExprKind::Not(x) => {
                let v = self.eval(x, scope)?;
                Ok(Value::Bool(!v.truthy()))
            }
            ExprKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, scope)?;
                if c.truthy() {
                    self.eval_body(then_body, scope)
                } else {
                    self.eval_body(else_body, scope)
                }
            }
            ExprKind::While { cond, body } => {
                loop {
                    let c = self.eval(cond, scope)?;
                    if !c.truthy() {
                        break;
                    }
                    match self.eval_body(body, scope) {
                        Ok(_) => {}
                        Err(Flow::Break(_)) => break,
                        Err(Flow::Next(_)) => continue,
                        Err(e) => return Err(e),
                    }
                }
                Ok(Value::Nil)
            }
            ExprKind::Case {
                scrutinee,
                whens,
                else_body,
            } => {
                let scrut = match scrutinee {
                    Some(s) => Some(self.eval(s, scope)?),
                    None => None,
                };
                for (pats, body) in whens {
                    for pat in pats {
                        let matched = match &scrut {
                            Some(s) => {
                                let pv = self.eval(pat, scope)?;
                                self.case_match(&pv, s, span)?
                            }
                            None => self.eval(pat, scope)?.truthy(),
                        };
                        if matched {
                            return self.eval_body(body, scope);
                        }
                    }
                }
                self.eval_body(else_body, scope)
            }
            ExprKind::Begin {
                body,
                rescues,
                ensure_body,
            } => {
                let result = self.eval_body(body, scope);
                let result = match result {
                    Err(Flow::Error(err)) if err.catchable() && !rescues.is_empty() => {
                        self.run_rescues(&err, rescues, scope, span)
                    }
                    other => other,
                };
                if !ensure_body.is_empty() {
                    // Ensure runs on every path; its value is discarded.
                    self.eval_body(ensure_body, scope)?;
                }
                result
            }
            ExprKind::Return(v) => {
                let val = match v {
                    Some(v) => self.eval(v, scope)?,
                    None => Value::Nil,
                };
                Err(Flow::Return(val))
            }
            ExprKind::Break(v) => {
                let val = match v {
                    Some(v) => self.eval(v, scope)?,
                    None => Value::Nil,
                };
                Err(Flow::Break(val))
            }
            ExprKind::Next(v) => {
                let val = match v {
                    Some(v) => self.eval(v, scope)?,
                    None => Value::Nil,
                };
                Err(Flow::Next(val))
            }
            ExprKind::ClassDef {
                path,
                superclass,
                body,
            } => self.eval_class_def(path, superclass.as_deref(), body, false, span),
            ExprKind::ModuleDef { path, body } => self.eval_class_def(path, None, body, true, span),
            ExprKind::MethodDef(def) => {
                let definee = self.definee();
                self.registry.add_method(
                    definee,
                    &def.name,
                    MethodBody::Ast(def.clone()),
                    def.self_method,
                );
                Ok(Value::sym(&def.name))
            }
        }
    }

    fn eval_body(&mut self, body: &[Expr], scope: &ScopeRef) -> Result<Value, Flow> {
        let mut last = Value::Nil;
        for e in body {
            last = self.eval(e, scope)?;
        }
        Ok(last)
    }

    fn eval_args(
        &mut self,
        args: &[Arg],
        scope: &ScopeRef,
    ) -> Result<(Vec<Value>, Option<Value>), Flow> {
        let mut argv = Vec::with_capacity(args.len());
        let mut block = None;
        for a in args {
            match a {
                Arg::Pos(e) => argv.push(self.eval(e, scope)?),
                Arg::Splat(e) => {
                    let v = self.eval(e, scope)?;
                    match v {
                        Value::Array(a) => argv.extend(a.borrow().iter().cloned()),
                        other => argv.push(other),
                    }
                }
                Arg::BlockPass(e) => {
                    let v = self.eval(e, scope)?;
                    block = Some(self.coerce_to_proc(v)?);
                }
            }
        }
        Ok((argv, block))
    }

    /// Builds a proc value from a block literal, capturing scope and self.
    pub fn make_proc(&self, b: &BlockArg, scope: &ScopeRef) -> Value {
        Value::Proc(Rc::new(ProcVal {
            params: b.params.clone(),
            body: b.body.clone(),
            env: scope.clone(),
            self_val: self.self_val(),
            definee: self.definee(),
            span: b.span,
        }))
    }

    /// `&:sym` block-pass coercion: symbols become procs that send the
    /// symbol to their argument.
    fn coerce_to_proc(&mut self, v: Value) -> Result<Value, Flow> {
        match v {
            Value::Proc(_) | Value::Nil => Ok(v),
            Value::Sym(name) => {
                // Build a tiny AST-free proc by synthesising a builtin-like
                // proc: we reuse ProcVal with a body that the evaluator
                // interprets; simplest is a one-expression body `x.name`.
                let param = Param::required("x");
                let call = Expr::new(
                    ExprKind::Call {
                        recv: Some(Box::new(Expr::new(
                            ExprKind::Local("x".into()),
                            Span::dummy(),
                        ))),
                        name: name.to_string(),
                        args: vec![],
                        block: None,
                    },
                    Span::dummy(),
                );
                Ok(Value::Proc(Rc::new(ProcVal {
                    params: vec![param],
                    body: Rc::new(vec![call]),
                    env: Scope::root(),
                    self_val: self.self_val(),
                    definee: self.definee(),
                    span: Span::dummy(),
                })))
            }
            other => Err(Flow::Error(HbError::new(
                ErrorKind::TypeError,
                format!(
                    "wrong argument type {} (expected Proc)",
                    self.class_name_of(&other)
                ),
                Span::dummy(),
            ))),
        }
    }

    /// Ruby's `===` for case dispatch: classes match instances, ranges match
    /// inclusion, everything else falls back to `==` (dispatched).
    fn case_match(&mut self, pattern: &Value, scrut: &Value, span: Span) -> Result<bool, Flow> {
        match pattern {
            Value::Class(cid) => {
                let sc = self.registry.class_of(scrut);
                Ok(self.registry.is_descendant(sc, *cid))
            }
            Value::Range(r) => {
                // Incomparable scrutinees simply do not match the range.
                let ge = match self.call_method(scrut.clone(), ">=", vec![r.0.clone()], None, span)
                {
                    Ok(v) => v,
                    Err(Flow::Error(_)) => return Ok(false),
                    Err(e) => return Err(e),
                };
                if !ge.truthy() {
                    return Ok(false);
                }
                let le_name = if r.2 { "<" } else { "<=" };
                match self.call_method(scrut.clone(), le_name, vec![r.1.clone()], None, span) {
                    Ok(v) => Ok(v.truthy()),
                    Err(Flow::Error(_)) => Ok(false),
                    Err(e) => Err(e),
                }
            }
            p => {
                let eq = self.call_method(p.clone(), "==", vec![scrut.clone()], None, span)?;
                Ok(eq.truthy())
            }
        }
    }

    fn run_rescues(
        &mut self,
        err: &HbError,
        rescues: &[Rescue],
        scope: &ScopeRef,
        span: Span,
    ) -> Result<Value, Flow> {
        let err_class = self.registry.lookup(err.class_name());
        for r in rescues {
            let matched = if r.classes.is_empty() {
                true
            } else {
                let mut m = false;
                for c in &r.classes {
                    let cv = self.eval(c, scope)?;
                    if let (Value::Class(want), Some(have)) = (&cv, err_class) {
                        if self.registry.is_descendant(have, *want) {
                            m = true;
                            break;
                        }
                    }
                }
                m
            };
            if matched {
                if let Some(var) = &r.var {
                    let exc = self.exception_value(err, span);
                    scope.set(var, exc);
                }
                return self.eval_body(&r.body, scope);
            }
        }
        Err(Flow::Error(err.clone()))
    }

    /// The exception object for an error, constructing one if the error was
    /// raised natively.
    fn exception_value(&mut self, err: &HbError, _span: Span) -> Value {
        if let Some(v) = &err.value {
            return v.clone();
        }
        let cid = self
            .registry
            .lookup(err.class_name())
            .unwrap_or(self.registry.object());
        let inst = Instance {
            class: cid,
            ivars: RefCell::default(),
        };
        inst.ivars
            .borrow_mut()
            .insert("message".to_string(), Value::str(&err.message));
        Value::Obj(Rc::new(inst))
    }

    // ----- assignment targets ------------------------------------------------

    fn assign(&mut self, target: &Lhs, v: Value, scope: &ScopeRef, span: Span) -> Result<(), Flow> {
        match target {
            Lhs::Local(n) => {
                scope.set(n, v);
                Ok(())
            }
            Lhs::IVar(n) => {
                self.ivar_set(&self.self_val(), n, v);
                Ok(())
            }
            Lhs::CVar(n) => {
                self.cvar_set(n, v);
                Ok(())
            }
            Lhs::GVar(n) => {
                self.set_global(n, v);
                Ok(())
            }
            Lhs::Const(path) => {
                let name = {
                    let nesting = &self.frame().nesting;
                    if nesting.is_empty() {
                        path.join("::")
                    } else {
                        format!("{}::{}", nesting.join("::"), path.join("::"))
                    }
                };
                // Ruby names anonymous classes when first assigned to a
                // constant (`Transaction = Struct.new(...)`).
                if let Value::Class(cid) = &v {
                    if self.registry.name(*cid).starts_with("#<") {
                        self.registry.rename(*cid, &name);
                    }
                }
                self.constants.insert(name, v);
                Ok(())
            }
            Lhs::Index(recv, idx) => {
                let r = self.eval(recv, scope)?;
                let mut args = Vec::with_capacity(idx.len() + 1);
                for a in idx {
                    args.push(self.eval(a, scope)?);
                }
                args.push(v);
                self.call_method(r, "[]=", args, None, span)?;
                Ok(())
            }
            Lhs::Attr(recv, name) => {
                let r = self.eval(recv, scope)?;
                let setter = self.setter_sym(name);
                self.call_method_sym(r, setter, vec![v], None, span)?;
                Ok(())
            }
        }
    }

    fn lhs_read(&mut self, target: &Lhs, scope: &ScopeRef, span: Span) -> Result<Value, Flow> {
        match target {
            Lhs::Local(n) => Ok(scope.get(n).unwrap_or(Value::Nil)),
            Lhs::IVar(n) => Ok(self.ivar_get(&self.self_val(), n)),
            Lhs::CVar(n) => Ok(self.cvar_get(n)),
            Lhs::GVar(n) => Ok(self.global(n)),
            Lhs::Const(path) => match self.resolve_const(path, span) {
                Ok(v) => Ok(v),
                Err(_) => Ok(Value::Nil),
            },
            Lhs::Index(recv, idx) => {
                let r = self.eval(recv, scope)?;
                let mut args = Vec::with_capacity(idx.len());
                for a in idx {
                    args.push(self.eval(a, scope)?);
                }
                self.call_method(r, "[]", args, None, span)
            }
            Lhs::Attr(recv, name) => {
                let r = self.eval(recv, scope)?;
                self.call_method(r, name, vec![], None, span)
            }
        }
    }

    // ----- instance / class variables -----------------------------------------

    /// Reads an instance variable of `target` (objects and classes both
    /// carry ivars).
    pub fn ivar_get(&self, target: &Value, name: &str) -> Value {
        match target {
            Value::Obj(o) => o.ivars.borrow().get(name).cloned().unwrap_or(Value::Nil),
            Value::Class(cid) => self
                .class_ivars(*cid)
                .get(name)
                .cloned()
                .unwrap_or(Value::Nil),
            _ => Value::Nil,
        }
    }

    /// Writes an instance variable of `target`.
    pub fn ivar_set(&mut self, target: &Value, name: &str, v: Value) {
        match target {
            Value::Obj(o) => set_in_place(&mut o.ivars.borrow_mut(), name, v),
            Value::Class(cid) => set_in_place(self.class_ivars_mut(*cid), name, v),
            _ => {}
        }
    }

    fn class_ivars(&self, cid: ClassId) -> &hb_intern::FastMap<String, Value> {
        &self.registry.class(cid).ivars
    }

    fn class_ivars_mut(&mut self, cid: ClassId) -> &mut hb_intern::FastMap<String, Value> {
        &mut self.registry.class_mut(cid).ivars
    }

    fn cvar_get(&self, name: &str) -> Value {
        let definee = self.definee();
        for id in self.registry.ancestors(definee) {
            if let Some(v) = self.registry.class(id).cvars.get(name) {
                return v.clone();
            }
        }
        Value::Nil
    }

    fn cvar_set(&mut self, name: &str, v: Value) {
        let definee = self.definee();
        for id in self.registry.ancestors(definee) {
            if self.registry.class(id).cvars.contains_key(name) {
                self.registry
                    .class_mut(id)
                    .cvars
                    .insert(name.to_string(), v);
                return;
            }
        }
        self.registry
            .class_mut(definee)
            .cvars
            .insert(name.to_string(), v);
    }

    // ----- class definition ----------------------------------------------------

    fn eval_class_def(
        &mut self,
        path: &[String],
        superclass: Option<&Expr>,
        body: &Rc<Vec<Expr>>,
        is_module: bool,
        span: Span,
    ) -> Result<Value, Flow> {
        let full_name = {
            let nesting = &self.frame().nesting;
            if nesting.is_empty() {
                path.join("::")
            } else {
                format!("{}::{}", nesting.join("::"), path.join("::"))
            }
        };
        let sup = match superclass {
            Some(s) => {
                let scope = Scope::root();
                match self.eval(s, &scope)? {
                    Value::Class(cid) => Some(cid),
                    other => {
                        return Err(Flow::Error(HbError::new(
                            ErrorKind::TypeError,
                            format!(
                                "superclass must be a Class ({} given)",
                                self.class_name_of(&other)
                            ),
                            span,
                        )))
                    }
                }
            }
            None => None,
        };
        let existing = self.registry.lookup(&full_name);
        if let Some(cid) = existing {
            // Ruby refuses these before the body runs. The registry keeps a
            // reopened class as it is, so it would ignore them silently.
            let class = self.registry.class(cid);
            let refusal = if class.is_module != is_module {
                let kind = if is_module { "module" } else { "class" };
                Some(format!("{full_name} is not a {kind}"))
            } else if sup.is_some_and(|s| class.superclass != Some(s)) {
                Some(format!("superclass mismatch for class {full_name}"))
            } else {
                None
            };
            if let Some(msg) = refusal {
                return Err(Flow::Error(HbError::new(ErrorKind::TypeError, msg, span)));
            }
        }
        let cid = self.registry.define_class(&full_name, sup, is_module);
        self.constants.insert(full_name.clone(), Value::Class(cid));
        // The `inherited` hook fires on fresh subclass creation.
        if existing.is_none() && !is_module {
            if let Some(s) = sup {
                if self.registry.find_smethod(s, "inherited").is_some() {
                    self.call_method(
                        Value::Class(s),
                        "inherited",
                        vec![Value::Class(cid)],
                        None,
                        span,
                    )?;
                }
            }
        }
        let nesting = Rc::new(
            full_name
                .split("::")
                .map(|s| s.to_string())
                .collect::<Vec<String>>(),
        );
        self.frames.push(Frame {
            kind: FrameKind::ClassBody,
            self_val: Value::Class(cid),
            definee: cid,
            method: None,
            args: vec![],
            block: None,
            checked: false,
            nesting,
        });
        let scope = Scope::root();
        let r = self.eval_body(body, &scope);
        self.frames.pop();
        r?;
        Ok(Value::Class(cid))
    }

    // ----- dispatch --------------------------------------------------------------

    /// The class name of a value (for error messages).
    pub fn class_name_of(&self, v: &Value) -> String {
        match v {
            Value::Class(c) => format!("Class<{}>", self.registry.name(*c)),
            other => self
                .registry
                .name(self.registry.class_of(other))
                .to_string(),
        }
    }

    /// Dispatches `recv.name(args, &block)`.
    ///
    /// # Errors
    ///
    /// `NoMethodError` when the method is missing (after `method_missing`),
    /// plus whatever the method body raises. The installed hook may veto the
    /// call (Hummingbird blame).
    pub fn call_method(
        &mut self,
        recv: Value,
        name: &str,
        args: Vec<Value>,
        block: Option<Value>,
        span: Span,
    ) -> Result<Value, Flow> {
        self.dispatch(recv, name, None, args, block, span)
    }

    /// [`Interp::call_method`] with a pre-interned name — the bytecode VM's
    /// entry point, avoiding per-call symbol interning.
    pub fn call_method_sym(
        &mut self,
        recv: Value,
        name: Sym,
        args: Vec<Value>,
        block: Option<Value>,
        span: Span,
    ) -> Result<Value, Flow> {
        self.dispatch(recv, name.as_str(), Some(name), args, block, span)
    }

    fn dispatch(
        &mut self,
        recv: Value,
        name: &str,
        sym: Option<Sym>,
        args: Vec<Value>,
        block: Option<Value>,
        span: Span,
    ) -> Result<Value, Flow> {
        if self.frames.len() >= self.max_depth {
            return Err(Flow::Error(HbError::new(
                ErrorKind::Internal,
                "stack level too deep",
                span,
            )));
        }
        let (class_level, lookup_class) = match &recv {
            Value::Class(cid) => (true, *cid),
            other => (false, self.registry.class_of(other)),
        };
        let found = if class_level {
            self.registry
                .find_smethod(lookup_class, name)
                .map(|(o, e)| (o, e, true))
                .or_else(|| {
                    // Instance methods of Class / Object apply to class
                    // objects too (`User.nil?`, `User == x`, `User.name`).
                    self.registry
                        .lookup("Class")
                        .and_then(|cc| self.registry.find_method(cc, name))
                        .map(|(o, e)| (o, e, false))
                })
        } else {
            self.registry
                .find_method(lookup_class, name)
                .map(|(o, e)| (o, e, false))
        };
        match found {
            Some((owner, entry, as_singleton)) => self.invoke_entry_inner(
                recv,
                lookup_class,
                class_level && as_singleton,
                owner,
                entry,
                name,
                sym,
                args,
                block,
                span,
            ),
            None => {
                // method_missing, looked up in the same receiver position.
                let mm = self
                    .registry
                    .find_method_at(lookup_class, "method_missing", class_level);
                if let Some((owner, entry)) = mm {
                    let mut margs = vec![Value::sym(name)];
                    margs.extend(args);
                    return self.invoke_entry_inner(
                        recv,
                        lookup_class,
                        class_level,
                        owner,
                        entry,
                        "method_missing",
                        None,
                        margs,
                        block,
                        span,
                    );
                }
                Err(Flow::Error(HbError::new(
                    ErrorKind::NoMethod,
                    format!(
                        "undefined method `{name}` for {}",
                        self.class_name_of(&recv)
                    ),
                    span,
                )))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn invoke_entry_inner(
        &mut self,
        recv: Value,
        recv_class: ClassId,
        class_level: bool,
        owner: ClassId,
        entry: MethodEntry,
        name: &str,
        sym: Option<Sym>,
        args: Vec<Value>,
        block: Option<Value>,
        span: Span,
    ) -> Result<Value, Flow> {
        let entry_id = entry.id;
        // Interned at most once per dispatch, shared by the hook probe and
        // the frame record (pre-interned callers skip it entirely).
        let mut sym = sym;
        let mut mark_checked = false;
        if let Some(hook) = self.hook.as_ref().filter(|_| entry.is_checkable()) {
            // Checked fast prologue: when the engine has patched this
            // `(receiver class, entry)` pair — its derivation holds and the
            // caller is itself checked — the per-call hook probe and all
            // dynamic argument checks are elided. Pending registry events
            // force the guarded path so the engine drains them first.
            if self.frame().checked
                && self.registry.events.is_empty()
                && self.tier.fast_hit(recv_class, entry_id)
            {
                mark_checked = true;
            } else {
                let hook = Rc::clone(hook);
                let info = DispatchInfo {
                    recv_class,
                    class_level,
                    owner,
                    name: *sym.get_or_insert_with(|| Sym::intern(name)),
                    entry: entry.clone(),
                    span,
                };
                mark_checked = hook
                    .before_call(self, &info, &recv, &args)
                    .map_err(Flow::Error)?
                    .mark_checked;
            }
        }
        match entry.body {
            MethodBody::Builtin(f) => {
                self.builtin_span = span;
                f(self, recv, args, block)
            }
            MethodBody::Ast(def) => {
                let msym = sym.unwrap_or_else(|| Sym::intern(name));
                if self.tier.bytecode_enabled() {
                    if let Some(chunk) = self.tier.chunk_for(entry_id, &def) {
                        return crate::vm::run_chunk(
                            self,
                            &chunk,
                            recv,
                            owner,
                            msym,
                            args,
                            block,
                            mark_checked,
                            span,
                        );
                    }
                }
                self.check_arity(&def.params, args.len(), name, span)?;
                let scope = Scope::root();
                let nesting = self.nesting_of(owner);
                self.frames.push(Frame {
                    kind: FrameKind::Method,
                    self_val: recv,
                    definee: owner,
                    method: Some((owner, msym)),
                    args,
                    block,
                    checked: mark_checked,
                    nesting,
                });
                let bind = self.bind_params(&def.params, &scope);
                let r = match bind {
                    Ok(()) => self.eval_body(&def.body, &scope),
                    Err(e) => Err(e),
                };
                self.frames.pop();
                match r {
                    Ok(v) => Ok(v),
                    Err(Flow::Return(v)) => Ok(v),
                    // `break` out of a yielded block terminates this call.
                    Err(Flow::Break(v)) => Ok(v),
                    Err(e) => Err(e),
                }
            }
            MethodBody::FromProc(p) => self.call_proc(&p, args, block, Some(recv), mark_checked),
        }
    }

    fn check_arity(
        &self,
        params: &[Param],
        given: usize,
        name: &str,
        span: Span,
    ) -> Result<(), Flow> {
        let required = params
            .iter()
            .filter(|p| matches!(p.kind, ParamKind::Required))
            .count();
        let has_rest = params.iter().any(|p| matches!(p.kind, ParamKind::Rest));
        let max = params
            .iter()
            .filter(|p| matches!(p.kind, ParamKind::Required | ParamKind::Optional(_)))
            .count();
        if given < required || (!has_rest && given > max) {
            return Err(Flow::Error(HbError::new(
                ErrorKind::ArgumentError,
                format!(
                    "wrong number of arguments calling `{name}` (given {given}, expected {required}{})",
                    if has_rest {
                        "+".to_string()
                    } else if max > required {
                        format!("..{max}")
                    } else {
                        String::new()
                    }
                ),
                span,
            )));
        }
        Ok(())
    }

    /// Binds parameters into `scope` from the arguments the callee frame
    /// owns, leaving them there for an argument-forwarding `super`. Must
    /// run with the callee frame already pushed (defaults evaluate in the
    /// callee context) and after the arity check.
    fn bind_params(&mut self, params: &[Param], scope: &ScopeRef) -> Result<(), Flow> {
        let given = self.frame().args.len();
        let required = params
            .iter()
            .filter(|p| matches!(p.kind, ParamKind::Required))
            .count();
        // Optionals take arguments only while more are given than the
        // required parameters need.
        let mut optional_budget = given.saturating_sub(required);
        let mut next = 0;
        for p in params {
            let v = match &p.kind {
                ParamKind::Required => self.frame().args.get(next).cloned(),
                ParamKind::Optional(_) if optional_budget > 0 => {
                    optional_budget -= 1;
                    self.frame().args.get(next).cloned()
                }
                ParamKind::Optional(default) => {
                    let v = self.eval(default, scope)?;
                    scope.define(&p.name, v);
                    continue;
                }
                // Rest takes whatever is left (required-after-rest is not
                // supported).
                ParamKind::Rest => {
                    let rest = self.frame().args.get(next..).unwrap_or_default().to_vec();
                    next = given;
                    scope.define(&p.name, Value::array(rest));
                    continue;
                }
                ParamKind::Block => continue,
            };
            next += 1;
            scope.define(&p.name, v.unwrap_or(Value::Nil));
        }
        for p in params {
            if matches!(p.kind, ParamKind::Block) {
                let b = self.frame().block.clone().unwrap_or(Value::Nil);
                scope.define(&p.name, b);
            }
        }
        Ok(())
    }

    /// Invokes a proc. `override_self` rebinds `self` (used by
    /// `define_method`-created methods and `class_eval`); `as_method`
    /// behaviour: `return` is caught here when the proc is the whole method.
    pub fn call_proc(
        &mut self,
        p: &ProcVal,
        mut args: Vec<Value>,
        block: Option<Value>,
        override_self: Option<Value>,
        mark_checked: bool,
    ) -> Result<Value, Flow> {
        if self.frames.len() >= self.max_depth {
            return Err(Flow::Error(HbError::new(
                ErrorKind::Internal,
                "stack level too deep",
                p.span,
            )));
        }
        // Ruby auto-splats a single array argument across multi-param blocks.
        let positional = p
            .params
            .iter()
            .filter(|q| !matches!(q.kind, ParamKind::Block))
            .count();
        if positional > 1 && args.len() == 1 {
            if let Value::Array(a) = &args[0] {
                let expanded: Vec<Value> = a.borrow().clone();
                args = expanded;
            }
        }
        let as_method = override_self.is_some();
        let self_val = override_self.unwrap_or_else(|| p.self_val.clone());
        let scope = Scope::child(&p.env);
        let nesting = self.nesting_of(p.definee);
        self.frames.push(Frame {
            kind: FrameKind::Block,
            self_val,
            definee: p.definee,
            method: None,
            args: args.clone(),
            block,
            checked: mark_checked,
            nesting,
        });
        // Blocks bind leniently: missing args become nil, extras dropped.
        let mut it = args.into_iter();
        let mut bind_err = None;
        for q in &p.params {
            match &q.kind {
                ParamKind::Required => {
                    scope.define(&q.name, it.next().unwrap_or(Value::Nil));
                }
                ParamKind::Optional(d) => match it.next() {
                    Some(v) => scope.define(&q.name, v),
                    None => match self.eval(d, &scope) {
                        Ok(v) => scope.define(&q.name, v),
                        Err(e) => {
                            bind_err = Some(e);
                            break;
                        }
                    },
                },
                ParamKind::Rest => {
                    let rest: Vec<Value> = it.by_ref().collect();
                    scope.define(&q.name, Value::array(rest));
                }
                ParamKind::Block => {
                    let b = self.frame().block.clone().unwrap_or(Value::Nil);
                    scope.define(&q.name, b);
                }
            }
        }
        let r = match bind_err {
            Some(e) => Err(e),
            None => self.eval_body(&p.body, &scope),
        };
        self.frames.pop();
        match r {
            Ok(v) => Ok(v),
            Err(Flow::Next(v)) => Ok(v),
            Err(Flow::Return(v)) if as_method => Ok(v),
            Err(e) => Err(e),
        }
    }

    /// Calls a block value with arguments (stdlib iteration helper).
    ///
    /// # Errors
    ///
    /// `TypeError` if the value is not a proc; otherwise whatever the block
    /// raises (including `Flow::Break` for the caller to handle).
    pub fn call_block(&mut self, blk: &Value, args: Vec<Value>) -> Result<Value, Flow> {
        match blk {
            Value::Proc(p) => {
                let p = p.clone();
                self.call_proc(&p, args, None, None, false)
            }
            other => Err(Flow::Error(HbError::new(
                ErrorKind::TypeError,
                format!("no block given ({} found)", self.class_name_of(other)),
                Span::dummy(),
            ))),
        }
    }

    /// `to_s` with method dispatch for objects.
    ///
    /// # Errors
    ///
    /// Propagates errors from user-defined `to_s`.
    pub fn value_to_s(&mut self, v: &Value) -> Result<String, Flow> {
        if let Some(s) = v.primitive_to_s() {
            return Ok(s);
        }
        match v {
            Value::Class(c) => Ok(self.registry.name(*c).to_string()),
            Value::Obj(o) => {
                // Dispatch to_s only when it is overridden below Object —
                // the Object#to_s builtin itself delegates here, so
                // dispatching it would recurse forever.
                let object = self.registry.object();
                match self.registry.find_method(o.class, "to_s") {
                    Some((owner, _)) if owner != object => {
                        let r = self.call_method(v.clone(), "to_s", vec![], None, Span::dummy())?;
                        if let Value::Str(s) = r {
                            Ok(s.to_string())
                        } else {
                            Ok(format!("#<{}>", self.registry.name(o.class)))
                        }
                    }
                    _ => Ok(format!("#<{}>", self.registry.name(o.class))),
                }
            }
            Value::Array(_) | Value::Hash(_) | Value::Range(_) => Ok(self.inspect(v)),
            Value::Proc(_) => Ok("#<Proc>".to_string()),
            _ => Ok(format!("{v:?}")),
        }
    }

    /// Ruby `inspect`: strings quoted, recursive into collections.
    pub fn inspect(&self, v: &Value) -> String {
        match v {
            Value::Str(s) => format!("{s:?}"),
            Value::Sym(s) => format!(":{s}"),
            Value::Nil => "nil".to_string(),
            Value::Array(a) => {
                let items: Vec<String> = a.borrow().iter().map(|x| self.inspect(x)).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Hash(h) => {
                let items: Vec<String> = h
                    .borrow()
                    .iter()
                    .map(|(k, v)| format!("{}=>{}", self.inspect(k), self.inspect(v)))
                    .collect();
                format!("{{{}}}", items.join(", "))
            }
            Value::Range(r) => format!(
                "{}{}{}",
                self.inspect(&r.0),
                if r.2 { "..." } else { ".." },
                self.inspect(&r.1)
            ),
            Value::Obj(o) => {
                let ivars = o.ivars.borrow();
                if ivars.is_empty() {
                    format!("#<{}>", self.registry.name(o.class))
                } else {
                    let mut keys: Vec<&String> = ivars.keys().collect();
                    keys.sort();
                    let items: Vec<String> = keys
                        .iter()
                        .map(|k| format!("@{}={}", k, self.inspect(&ivars[k.as_str()])))
                        .collect();
                    format!("#<{} {}>", self.registry.name(o.class), items.join(", "))
                }
            }
            Value::Class(c) => self.registry.name(*c).to_string(),
            other => format!("{other:?}"),
        }
    }
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

/// Writes `map[name]`, allocating the key only for a new name.
fn set_in_place(map: &mut FastMap<String, Value>, name: &str, v: Value) {
    match map.get_mut(name) {
        Some(slot) => *slot = v,
        None => {
            map.insert(name.to_string(), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a fork must share with a fresh bootstrap, per class.
    #[derive(Debug, PartialEq)]
    struct ClassView {
        name: String,
        superclass: Option<ClassId>,
        includes: Vec<ClassId>,
        is_module: bool,
        /// Own instance methods with their entry ids, by name.
        methods: Vec<(String, u64)>,
        /// Own class-level methods likewise.
        smethods: Vec<(String, u64)>,
        ivars: Vec<String>,
        cvars: Vec<String>,
    }

    #[derive(Debug, PartialEq)]
    struct BootView {
        classes: Vec<ClassView>,
        constants: Vec<(String, ClassId)>,
        hierarchy_generation: u64,
        shape_fingerprint: u64,
        /// The id `add_method` hands out next.
        next_entry_id: u64,
    }

    fn sorted_keys<V>(map: &FastMap<String, V>) -> Vec<String> {
        let mut keys: Vec<String> = map.keys().cloned().collect();
        keys.sort();
        keys
    }

    fn entries(table: &FastMap<String, MethodEntry>) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = table.iter().map(|(n, e)| (n.clone(), e.id)).collect();
        v.sort();
        v
    }

    /// Reads `interp`'s classes and constants. Reading the next entry id
    /// adds a method to `Object`, so view an interpreter once, last.
    fn view(interp: &mut Interp) -> BootView {
        let r = &interp.registry;
        let classes = (0..r.class_count() as u32)
            .map(|i| {
                let c = r.class(ClassId(i));
                ClassView {
                    name: c.name.clone(),
                    superclass: c.superclass,
                    includes: c.includes.clone(),
                    is_module: c.is_module,
                    methods: entries(&c.methods),
                    smethods: entries(&c.smethods),
                    ivars: sorted_keys(&c.ivars),
                    cvars: sorted_keys(&c.cvars),
                }
            })
            .collect();
        let mut constants: Vec<(String, ClassId)> = interp
            .constants
            .iter()
            .map(|(name, v)| match v {
                Value::Class(c) => (name.clone(), *c),
                other => panic!("constant {name} is {other:?}, not a class"),
            })
            .collect();
        constants.sort();
        let (hierarchy_generation, shape_fingerprint) =
            (r.hierarchy_generation(), r.shape_fingerprint());
        let object = r.object();
        let probe = MethodBody::Builtin(Rc::new(|_, _, _, _| Ok(Value::Nil)));
        BootView {
            classes,
            constants,
            hierarchy_generation,
            shape_fingerprint,
            next_entry_id: interp.registry.add_method(object, "probe", probe, false),
        }
    }

    /// Every builtin of `interp`, labelled `Class#name` or `Class.name`,
    /// in label order.
    fn builtins(interp: &Interp) -> Vec<(String, BuiltinFn)> {
        let r = &interp.registry;
        let mut out = Vec::new();
        for i in 0..r.class_count() as u32 {
            let c = r.class(ClassId(i));
            for (sep, table) in [("#", &c.methods), (".", &c.smethods)] {
                for (name, e) in table.iter() {
                    if let MethodBody::Builtin(f) = &e.body {
                        out.push((format!("{}{sep}{name}", c.name), f.clone()));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn address(f: &BuiltinFn) -> usize {
        Rc::as_ptr(f) as *const () as usize
    }

    #[test]
    fn a_fork_equals_a_fresh_bootstrap() {
        let fresh = view(&mut Interp::bootstrap());
        assert!(fresh.classes.len() > 30 && fresh.constants.len() > 30);
        assert!(fresh.next_entry_id > 200, "the core library's builtins");
        assert_eq!(view(&mut Interp::new()), fresh, "the thread's first fork");
        assert_eq!(view(&mut Interp::new()), fresh, "a later fork");
    }

    #[test]
    fn interpreters_on_a_thread_share_each_builtin_and_threads_do_not() {
        let (a, b) = (Interp::new(), Interp::new());
        let (a, b) = (builtins(&a), builtins(&b));
        assert!(a.len() > 200, "the core library's builtins");
        assert_eq!(a.len(), b.len());
        for ((name, fa), (other, fb)) in a.iter().zip(&b) {
            assert_eq!(name, other);
            assert!(Rc::ptr_eq(fa, fb), "{name} is not shared on one thread");
        }
        // `a` stays alive while the other thread looks, so no address of
        // its closures can be reused there.
        let here: Vec<(String, usize)> = a.iter().map(|(n, f)| (n.clone(), address(f))).collect();
        let shared = std::thread::spawn(move || {
            let there = builtins(&Interp::new());
            assert_eq!(there.len(), here.len());
            here.iter()
                .zip(&there)
                .filter(|((_, addr), (_, f))| *addr == address(f))
                .map(|((name, _), _)| name.clone())
                .collect::<Vec<String>>()
        })
        .join()
        .expect("the other thread's interpreter");
        assert!(shared.is_empty(), "shared across threads: {shared:?}");
    }

    #[test]
    fn nothing_one_interpreter_does_reaches_another() {
        let fresh = view(&mut Interp::bootstrap());
        let mut earlier = Interp::new();
        let mut writer = Interp::new();
        writer
            .eval_str(
                r#"
class String
  def upcase
    "redefined"
  end
  @tag = 1
  @@count = 2
end
class Object
  def added_to_object
    1
  end
end
String.remove_method(:downcase)
NEW_CONSTANT = 3
$flag = 4
@main_ivar = 5
"#,
            )
            .expect("the writer's program runs");
        let refused = writer
            .eval_str("class Object < Object\nend")
            .expect_err("a superclass for Object is refused");
        assert_eq!(refused.kind, ErrorKind::TypeError);
        let seen = writer
            .eval_str(r#"["abc".upcase, added_to_object, NEW_CONSTANT, $flag, @main_ivar]"#)
            .expect("the writer sees its own changes");
        assert_eq!(writer.inspect(&seen), r#"["redefined", 1, 3, 4, 5]"#);
        let string = writer.registry.lookup("String").expect("String");
        assert!(writer.registry.find_method(string, "downcase").is_none());
        let class = writer.registry.class(string);
        assert!(!class.ivars.is_empty() && !class.cvars.is_empty());

        let mut later = Interp::new();
        for (label, interp) in [
            ("an earlier fork", &mut earlier),
            ("a later fork", &mut later),
        ] {
            let v = interp
                .eval_str(
                    r#"["abc".upcase, "ABC".downcase, respond_to?(:added_to_object), $flag, @main_ivar]"#,
                )
                .expect("the core library is intact");
            assert_eq!(
                interp.inspect(&v),
                r#"["ABC", "abc", false, nil, nil]"#,
                "{label}"
            );
            assert!(interp.constant("NEW_CONSTANT").is_none(), "{label}");
        }
        assert_eq!(view(&mut earlier), fresh, "an earlier fork");
        assert_eq!(view(&mut later), fresh, "a later fork");
    }
}
