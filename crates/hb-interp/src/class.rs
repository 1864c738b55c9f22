//! The runtime class registry: classes, modules, methods, re-opening,
//! mixins, and the events the Hummingbird engine consumes for cache
//! invalidation.

use crate::error::Flow;
use crate::value::{ClassId, ProcVal, Value};
use hb_intern::{sym, FastMap, Sym};
use hb_syntax::ast::MethodDefNode;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Signature of a native (Rust-implemented) method.
pub type BuiltinFn =
    Rc<dyn Fn(&mut crate::interp::Interp, Value, Vec<Value>, Option<Value>) -> Result<Value, Flow>>;

/// How a method is implemented.
#[derive(Clone)]
pub enum MethodBody {
    /// Defined with `def`: the parsed definition node.
    Ast(Rc<MethodDefNode>),
    /// Defined with `define_method`: a proc whose `self` rebinds to the
    /// receiver at call time.
    FromProc(Rc<ProcVal>),
    /// A native method from the core library or a substrate.
    Builtin(BuiltinFn),
}

/// A method table entry. `id` is unique within one registry and changes
/// on redefinition, which lets the engine tell the entry a derivation was
/// checked against from the one that replaced it. It is not
/// unique across registries: every interpreter's counter starts where the
/// core library's bootstrap left it (see [`crate::Interp::new`]), so
/// tenants that run the same code give their entries the same ids, and
/// the shared tier matches derivations by them.
#[derive(Clone)]
pub struct MethodEntry {
    pub body: MethodBody,
    pub id: u64,
}

impl MethodEntry {
    /// True if the body is user code the checker can analyse.
    pub fn is_checkable(&self) -> bool {
        !matches!(self.body, MethodBody::Builtin(_))
    }
}

/// A runtime class or module.
pub struct ClassDef {
    pub name: String,
    /// The interned name — the dispatch hot path keys annotation lookups by
    /// this, avoiding any per-call string work.
    pub name_sym: Sym,
    pub superclass: Option<ClassId>,
    pub is_module: bool,
    /// Included modules, in inclusion order (later lookups win).
    pub includes: Vec<ClassId>,
    /// Instance methods. Copy-on-write: an interpreter forked from its
    /// thread's bootstrap shares the core library's tables until
    /// [`ClassRegistry::add_method`] or [`ClassRegistry::remove_method`]
    /// first writes to one.
    pub methods: Rc<FastMap<String, MethodEntry>>,
    /// Class-level (singleton) methods, copy-on-write like `methods`.
    pub smethods: Rc<FastMap<String, MethodEntry>>,
    /// For `Struct.new`-generated classes: the member names.
    pub struct_members: Option<Vec<String>>,
    /// Class-level instance variables (`@x` with a class as `self`).
    pub ivars: FastMap<String, Value>,
    /// Class variables (`@@x`), shared down the inheritance chain.
    pub cvars: FastMap<String, Value>,
    /// Memoised linearised ancestor chain, tagged with the hierarchy
    /// generation it was computed at (see `ClassRegistry::hierarchy_gen`).
    ancestor_cache: RefCell<Option<(u64, Rc<[ClassId]>)>>,
    /// Memoised resolution chain of this class's name (see
    /// `ClassRegistry::resolution_syms`), tagged the same way.
    resolution_cache: RefCell<Option<(u64, Arc<[Sym]>)>>,
}

impl ClassDef {
    /// A copy for [`ClassRegistry::fork`]: the method tables and memoised
    /// chains are shared, everything else is copied. Only a thread's
    /// bootstrap is forked, and it sets no class ivars or cvars.
    fn fork(&self) -> ClassDef {
        debug_assert!(
            self.ivars.is_empty() && self.cvars.is_empty(),
            "{}: a forked class has no class ivars or cvars",
            self.name
        );
        ClassDef {
            name: self.name.clone(),
            name_sym: self.name_sym,
            superclass: self.superclass,
            is_module: self.is_module,
            includes: self.includes.clone(),
            methods: self.methods.clone(),
            smethods: self.smethods.clone(),
            struct_members: self.struct_members.clone(),
            ivars: FastMap::default(),
            cvars: FastMap::default(),
            ancestor_cache: self.ancestor_cache.clone(),
            resolution_cache: self.resolution_cache.clone(),
        }
    }
}

/// An event emitted by the registry; drained by the Hummingbird engine to
/// drive cache invalidation (paper rules (EDef) / Definition 1).
pub enum InterpEvent {
    MethodAdded {
        class: ClassId,
        name: String,
        class_level: bool,
    },
    /// A method table entry was replaced: the engine judges whether the
    /// new body is the old one.
    MethodRedefined {
        class: ClassId,
        name: String,
        class_level: bool,
        old: MethodEntry,
        new: MethodEntry,
    },
    MethodRemoved {
        class: ClassId,
        name: String,
        class_level: bool,
        entry: MethodEntry,
    },
    ModuleIncluded {
        class: ClassId,
        module: ClassId,
    },
}

/// The classes of primitive values, in [`ClassRegistry::class_of`]'s
/// order: each kind's class is looked up by name when it is defined, not
/// on every call.
const PRIMITIVES: [&str; 11] = [
    "NilClass", "Boolean", "Fixnum", "Float", "String", "Symbol", "Array", "Hash", "Range", "Proc",
    "Class",
];

/// The registry of all classes and modules.
pub struct ClassRegistry {
    classes: Vec<ClassDef>,
    by_name: FastMap<String, ClassId>,
    /// The class of each of [`PRIMITIVES`], `Object` while undefined.
    primitives: [ClassId; PRIMITIVES.len()],
    next_method_id: u64,
    /// Bumped whenever the class graph changes shape (superclass set or
    /// module included); memoised ancestor chains from older generations
    /// are recomputed lazily.
    hierarchy_gen: u64,
    /// Rolling, order-sensitive fingerprint of the class graph's shape:
    /// folds every class/module definition, superclass wiring, include
    /// and rename. Two registries built by identical boot sequences have
    /// equal fingerprints; the shared derivation tier uses equality as
    /// its O(1) "identical hierarchy" fast path.
    shape_fp: u64,
    pub events: Vec<InterpEvent>,
}

impl ClassRegistry {
    /// Creates a registry containing only the bootstrap graph rooted at
    /// `Object`.
    pub fn new() -> ClassRegistry {
        let mut r = ClassRegistry {
            classes: Vec::new(),
            by_name: FastMap::default(),
            primitives: [ClassId(0); PRIMITIVES.len()],
            next_method_id: 1,
            hierarchy_gen: 0,
            shape_fp: 0,
            events: Vec::new(),
        };
        let object = r.define_class("Object", None, false);
        debug_assert_eq!(object, ClassId(0));
        r
    }

    /// The root class.
    pub fn object(&self) -> ClassId {
        ClassId(0)
    }

    /// A copy of this registry for [`crate::Interp::new`]'s fork of the
    /// thread's bootstrap: the same classes, method entries, entry-id
    /// counter, hierarchy generation and shape fingerprint. The method
    /// tables and the memoised chains are shared, not copied.
    pub(crate) fn fork(&self) -> ClassRegistry {
        debug_assert!(self.events.is_empty(), "the bootstrap drained its events");
        ClassRegistry {
            classes: self.classes.iter().map(ClassDef::fork).collect(),
            by_name: self.by_name.clone(),
            primitives: self.primitives,
            next_method_id: self.next_method_id,
            hierarchy_gen: self.hierarchy_gen,
            shape_fp: self.shape_fp,
            events: Vec::new(),
        }
    }

    /// Defines a class (or re-opens it if the name exists). Returns its id.
    ///
    /// Re-opening changes nothing: the class keeps its superclass and its
    /// module flag. Ruby raises `TypeError` when a reopening names another
    /// superclass or reopens a module as a class; the evaluator raises it
    /// before it gets here, where the span is known.
    pub fn define_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        is_module: bool,
    ) -> ClassId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let superclass = superclass.or(if name == "Object" || is_module {
            None
        } else {
            Some(self.object())
        });
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassDef {
            name: name.to_string(),
            name_sym: Sym::intern(name),
            superclass,
            is_module,
            includes: Vec::new(),
            methods: Rc::default(),
            smethods: Rc::default(),
            struct_members: None,
            ivars: FastMap::default(),
            cvars: FastMap::default(),
            ancestor_cache: RefCell::new(None),
            resolution_cache: RefCell::new(None),
        });
        self.by_name.insert(name.to_string(), id);
        self.name_primitive(name);
        // A new class changes what name-based resolution can see (a chain
        // that previously degraded to [name, Object] now exists), so it is
        // a shape change like any other.
        self.hierarchy_gen += 1;
        self.mix_shape(("define", name, superclass.map(|s| s.0), is_module));
        id
    }

    /// Number of classes registered (used for anonymous-class naming).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Looks up a class by fully qualified name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// The class definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Mutable access to a class definition.
    pub fn class_mut(&mut self, id: ClassId) -> &mut ClassDef {
        &mut self.classes[id.0 as usize]
    }

    /// The class name for `id`.
    pub fn name(&self, id: ClassId) -> &str {
        &self.class(id).name
    }

    /// The interned class name for `id` (no allocation, `Copy`).
    pub fn name_sym(&self, id: ClassId) -> Sym {
        self.class(id).name_sym
    }

    /// Renames a class (used when an anonymous `Struct.new` class is
    /// assigned to a constant, as Ruby does).
    pub fn rename(&mut self, id: ClassId, new_name: &str) {
        let old = self.class(id).name.clone();
        self.by_name.remove(&old);
        self.by_name.insert(new_name.to_string(), id);
        self.name_primitive(&old);
        self.name_primitive(new_name);
        let c = self.class_mut(id);
        c.name = new_name.to_string();
        c.name_sym = Sym::intern(new_name);
        self.hierarchy_gen += 1;
        self.mix_shape(("rename", id.0, new_name));
    }

    /// Re-resolves the primitive class `name`, if it is one.
    fn name_primitive(&mut self, name: &str) {
        if let Some(i) = PRIMITIVES.iter().position(|p| *p == name) {
            self.primitives[i] = self.lookup(name).unwrap_or(self.object());
        }
    }

    fn fresh_method_id(&mut self) -> u64 {
        let id = self.next_method_id;
        self.next_method_id += 1;
        id
    }

    /// Adds or replaces a method, emitting the appropriate event.
    pub fn add_method(
        &mut self,
        class: ClassId,
        name: &str,
        body: MethodBody,
        class_level: bool,
    ) -> u64 {
        let new_id = self.fresh_method_id();
        let new = MethodEntry { body, id: new_id };
        let table = self.table_mut(class, class_level);
        let old = Rc::make_mut(table).insert(name.to_string(), new.clone());
        match old {
            Some(old) => self.events.push(InterpEvent::MethodRedefined {
                class,
                name: name.to_string(),
                class_level,
                old,
                new,
            }),
            None => self.events.push(InterpEvent::MethodAdded {
                class,
                name: name.to_string(),
                class_level,
            }),
        }
        new_id
    }

    /// Removes a method if present.
    pub fn remove_method(&mut self, class: ClassId, name: &str, class_level: bool) -> bool {
        let table = self.table_mut(class, class_level);
        let Some(entry) = table.get(name).cloned() else {
            return false;
        };
        Rc::make_mut(table).remove(name);
        self.events.push(InterpEvent::MethodRemoved {
            class,
            name: name.to_string(),
            class_level,
            entry,
        });
        true
    }

    /// The method table [`ClassRegistry::add_method`] and
    /// [`ClassRegistry::remove_method`] write, the only two writers: each
    /// copies the table first if a fork still shares it.
    fn table_mut(
        &mut self,
        class: ClassId,
        class_level: bool,
    ) -> &mut Rc<FastMap<String, MethodEntry>> {
        let c = &mut self.classes[class.0 as usize];
        if class_level {
            &mut c.smethods
        } else {
            &mut c.methods
        }
    }

    /// Includes `module` into `class` (appended; later includes win).
    pub fn include_module(&mut self, class: ClassId, module: ClassId) {
        let c = self.class_mut(class);
        if !c.includes.contains(&module) {
            c.includes.push(module);
            self.hierarchy_gen += 1;
            self.events
                .push(InterpEvent::ModuleIncluded { class, module });
            self.mix_shape(("include", class.0, module.0));
        }
    }

    /// Monotonic generation of the class graph's *shape* (superclasses and
    /// includes): bumped whenever a chain could change, never otherwise.
    /// Memos of resolution results stay valid while it is constant.
    pub fn hierarchy_generation(&self) -> u64 {
        self.hierarchy_gen
    }

    /// The rolling shape fingerprint (see the field docs).
    pub fn shape_fingerprint(&self) -> u64 {
        self.shape_fp
    }

    fn mix_shape(&mut self, item: impl std::hash::Hash) {
        self.shape_fp = hb_intern::fingerprint64((self.shape_fp, item));
    }

    /// The linearised ancestor chain of `class`, memoised per class and
    /// invalidated when the hierarchy changes shape. This is the dispatch
    /// hot path's chain: cloning the `Rc` is the only per-call cost.
    pub fn ancestor_chain(&self, class: ClassId) -> Rc<[ClassId]> {
        let cache = &self.class(class).ancestor_cache;
        if let Some((gen, chain)) = cache.borrow().as_ref() {
            if *gen == self.hierarchy_gen {
                return chain.clone();
            }
        }
        let chain: Rc<[ClassId]> = self.compute_ancestors(class).into();
        *cache.borrow_mut() = Some((self.hierarchy_gen, chain.clone()));
        chain
    }

    fn compute_ancestors(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut cur = Some(class);
        while let Some(id) = cur {
            out.push(id);
            let c = self.class(id);
            for m in c.includes.iter().rev() {
                if !out.contains(m) {
                    out.push(*m);
                }
            }
            cur = c.superclass;
        }
        out
    }

    /// The linearised ancestor chain of `class`: itself, its includes
    /// (latest first), then the superclass chain likewise.
    pub fn ancestors(&self, class: ClassId) -> Vec<ClassId> {
        self.ancestor_chain(class).to_vec()
    }

    /// The ancestor chain as `(ClassId, Sym)` pairs — the allocation-free
    /// resolution path the engine hook uses for annotation lookup.
    pub fn ancestor_syms(&self, class: ClassId) -> impl Iterator<Item = (ClassId, Sym)> + '_ {
        let chain = self.ancestor_chain(class);
        (0..chain.len()).map(move |i| {
            let id = chain[i];
            (id, self.class(id).name_sym)
        })
    }

    /// Computes the chain [`ClassRegistry::resolution_syms`] memoises.
    fn resolution_chain(&self, class: Sym) -> impl Iterator<Item = Sym> + '_ {
        let object = sym!("Object");
        let (unknown, chain): (Option<Sym>, Rc<[ClassId]>) = match self.lookup(class.as_str()) {
            Some(id) => (None, self.ancestor_chain(id)),
            None => (Some(class), Rc::new([])),
        };
        let ends_in_object = chain.last().is_some_and(|&id| self.name_sym(id) == object);
        unknown
            .into_iter()
            .chain((0..chain.len()).map(move |i| self.name_sym(chain[i])))
            .chain((!ends_in_object).then_some(object))
    }

    /// The chain a method lookup from the class named `class` walks, as a
    /// shared list of interned names — the one resolution rule shared by
    /// the checker's view of this registry, the world snapshots scheduler
    /// workers check against, and witness replay. It is the class's
    /// ancestors, then `Object` unless the chain already ends there (a
    /// module's does not). It is memoised per class next to the ancestor
    /// chain and recomputed when the hierarchy generation moves (define,
    /// include and rename all move it), so cloning the `Arc` is the only
    /// cost once memoised. A name the registry does not know gets a fresh
    /// `[class, Object]`.
    pub fn resolution_syms(&self, class: Sym) -> Arc<[Sym]> {
        let Some(id) = self.lookup(class.as_str()) else {
            return Arc::new([class, sym!("Object")]);
        };
        let cache = &self.class(id).resolution_cache;
        if let Some((gen, chain)) = cache.borrow().as_ref() {
            if *gen == self.hierarchy_gen {
                return chain.clone();
            }
        }
        let chain: Arc<[Sym]> = self.resolution_chain(class).collect();
        *cache.borrow_mut() = Some((self.hierarchy_gen, chain.clone()));
        chain
    }

    /// Finds an instance method along the ancestor chain; returns the owner
    /// class id and the entry.
    pub fn find_method(&self, class: ClassId, name: &str) -> Option<(ClassId, MethodEntry)> {
        for &id in self.ancestor_chain(class).iter() {
            if let Some(e) = self.class(id).methods.get(name) {
                return Some((id, e.clone()));
            }
        }
        None
    }

    /// Finds a class-level method: singleton tables along the superclass
    /// chain (Ruby inherits class methods), including modules' smethods.
    pub fn find_smethod(&self, class: ClassId, name: &str) -> Option<(ClassId, MethodEntry)> {
        for &id in self.ancestor_chain(class).iter() {
            if let Some(e) = self.class(id).smethods.get(name) {
                return Some((id, e.clone()));
            }
        }
        None
    }

    /// [`ClassRegistry::find_smethod`] when `class_level`,
    /// [`ClassRegistry::find_method`] otherwise.
    pub fn find_method_at(
        &self,
        class: ClassId,
        name: &str,
        class_level: bool,
    ) -> Option<(ClassId, MethodEntry)> {
        if class_level {
            self.find_smethod(class, name)
        } else {
            self.find_method(class, name)
        }
    }

    /// Like [`ClassRegistry::find_method`] but starting strictly above
    /// `owner` in `class`'s ancestor chain (for `super`).
    pub fn find_method_above(
        &self,
        class: ClassId,
        owner: ClassId,
        name: &str,
    ) -> Option<(ClassId, MethodEntry)> {
        let chain = self.ancestor_chain(class);
        let start = chain.iter().position(|&c| c == owner)? + 1;
        for &id in &chain[start..] {
            if let Some(e) = self.class(id).methods.get(name) {
                return Some((id, e.clone()));
            }
        }
        None
    }

    /// True if `sub` is `sup` or inherits/mixes it in.
    pub fn is_descendant(&self, sub: ClassId, sup: ClassId) -> bool {
        self.ancestor_chain(sub).contains(&sup)
    }

    /// Name-based descendant check (implements the checker's `Hierarchy`).
    pub fn is_descendant_name(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sup == "Object" {
            return true;
        }
        match (self.lookup(sub), self.lookup(sup)) {
            (Some(a), Some(b)) => self.is_descendant(a, b),
            _ => false,
        }
    }

    /// All instance method names currently defined directly on `class`.
    pub fn own_method_names(&self, class: ClassId) -> Vec<String> {
        let mut v: Vec<String> = self.class(class).methods.keys().cloned().collect();
        v.sort();
        v
    }

    /// Drains pending events (engine side).
    pub fn drain_events(&mut self) -> Vec<InterpEvent> {
        std::mem::take(&mut self.events)
    }

    /// The runtime class of a value.
    pub fn class_of(&self, v: &Value) -> ClassId {
        let kind = match v {
            Value::Nil => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Sym(_) => 5,
            Value::Array(_) => 6,
            Value::Hash(_) => 7,
            Value::Range(_) => 8,
            Value::Proc(_) => 9,
            Value::Obj(o) => return o.class,
            Value::Class(_) => 10,
        };
        self.primitives[kind]
    }
}

impl Default for ClassRegistry {
    fn default() -> Self {
        ClassRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_syntax::Span;

    fn ast_method(name: &str) -> MethodBody {
        MethodBody::Ast(Rc::new(MethodDefNode {
            self_method: false,
            name: name.to_string(),
            params: vec![],
            body: vec![],
            span: Span::dummy(),
        }))
    }

    #[test]
    fn define_and_reopen() {
        let mut r = ClassRegistry::new();
        let a = r.define_class("A", None, false);
        let a2 = r.define_class("A", None, false);
        assert_eq!(a, a2);
        assert_eq!(r.name(a), "A");
        assert_eq!(r.class(a).superclass, Some(r.object()));
    }

    #[test]
    fn ancestors_with_includes_and_superclass() {
        let mut r = ClassRegistry::new();
        let m = r.define_class("M", None, true);
        let n = r.define_class("N", None, true);
        let base = r.define_class("Base", None, false);
        let c = r.define_class("C", Some(base), false);
        r.include_module(c, m);
        r.include_module(c, n);
        let names: Vec<&str> = r.ancestors(c).iter().map(|&i| r.name(i)).collect();
        // Later includes take precedence (appear before earlier ones).
        assert_eq!(names, vec!["C", "N", "M", "Base", "Object"]);
    }

    #[test]
    fn method_lookup_and_override() {
        let mut r = ClassRegistry::new();
        let base = r.define_class("Base", None, false);
        let c = r.define_class("C", Some(base), false);
        r.add_method(base, "m", ast_method("m"), false);
        let (owner, _) = r.find_method(c, "m").unwrap();
        assert_eq!(owner, base);
        r.add_method(c, "m", ast_method("m"), false);
        let (owner, _) = r.find_method(c, "m").unwrap();
        assert_eq!(owner, c);
    }

    #[test]
    fn module_method_found_via_include() {
        let mut r = ClassRegistry::new();
        let m = r.define_class("M", None, true);
        let c = r.define_class("C", None, false);
        r.add_method(m, "foo", ast_method("foo"), false);
        assert!(r.find_method(c, "foo").is_none());
        r.include_module(c, m);
        let (owner, _) = r.find_method(c, "foo").unwrap();
        assert_eq!(owner, m);
    }

    #[test]
    fn smethod_inherited() {
        let mut r = ClassRegistry::new();
        let base = r.define_class("Base", None, false);
        let c = r.define_class("C", Some(base), false);
        r.add_method(base, "create", ast_method("create"), true);
        let (owner, _) = r.find_smethod(c, "create").unwrap();
        assert_eq!(owner, base);
    }

    #[test]
    fn super_lookup_starts_above_owner() {
        let mut r = ClassRegistry::new();
        let base = r.define_class("Base", None, false);
        let c = r.define_class("C", Some(base), false);
        r.add_method(base, "m", ast_method("m"), false);
        r.add_method(c, "m", ast_method("m"), false);
        let (owner, _) = r.find_method_above(c, c, "m").unwrap();
        assert_eq!(owner, base);
        assert!(r.find_method_above(c, base, "m").is_none());
    }

    #[test]
    fn events_track_add_redefine_remove() {
        let mut r = ClassRegistry::new();
        let c = r.define_class("C", None, false);
        r.add_method(c, "m", ast_method("m"), false);
        r.add_method(c, "m", ast_method("m"), false);
        r.remove_method(c, "m", false);
        let ev = r.drain_events();
        assert!(matches!(ev[0], InterpEvent::MethodAdded { .. }));
        assert!(matches!(ev[1], InterpEvent::MethodRedefined { .. }));
        assert!(matches!(ev[2], InterpEvent::MethodRemoved { .. }));
        assert!(r.drain_events().is_empty());
    }

    #[test]
    fn descendant_checks() {
        let mut r = ClassRegistry::new();
        let m = r.define_class("M", None, true);
        let base = r.define_class("Base", None, false);
        let c = r.define_class("C", Some(base), false);
        r.include_module(c, m);
        assert!(r.is_descendant_name("C", "Base"));
        assert!(r.is_descendant_name("C", "M"));
        assert!(r.is_descendant_name("C", "Object"));
        assert!(!r.is_descendant_name("Base", "C"));
        assert!(!r.is_descendant_name("Nope", "Base"));
        assert!(r.is_descendant_name("Nope", "Nope"));
    }

    #[test]
    fn rename_updates_lookup() {
        let mut r = ClassRegistry::new();
        let c = r.define_class("AnonStruct1", None, false);
        r.rename(c, "Transaction");
        assert_eq!(r.lookup("Transaction"), Some(c));
        assert_eq!(r.lookup("AnonStruct1"), None);
        assert_eq!(r.name(c), "Transaction");
    }

    #[test]
    fn resolution_syms_memoise_the_resolution_chain() {
        let mut r = ClassRegistry::new();
        let m = r.define_class("M", None, true);
        let base = r.define_class("Base", None, false);
        let c = r.define_class("C", Some(base), false);
        let listed = |r: &ClassRegistry, name: &str| -> Vec<Sym> {
            r.resolution_chain(Sym::intern(name)).collect()
        };
        for name in ["C", "Base", "M", "Object"] {
            let memo = r.resolution_syms(Sym::intern(name));
            assert_eq!(memo.to_vec(), listed(&r, name), "{name}");
            assert!(
                Arc::ptr_eq(&memo, &r.resolution_syms(Sym::intern(name))),
                "a second call is served from the memo"
            );
        }
        assert_eq!(
            r.resolution_syms(Sym::intern("M")).to_vec(),
            ["M", "Object"]
        );

        let before = r.resolution_syms(Sym::intern("C"));
        assert_eq!(before.to_vec(), ["C", "Base", "Object"]);
        r.include_module(c, m);
        let after = r.resolution_syms(Sym::intern("C"));
        assert_eq!(after.to_vec(), ["C", "M", "Base", "Object"]);
        assert_eq!(after.to_vec(), listed(&r, "C"));

        r.rename(base, "Model");
        assert_eq!(
            r.resolution_syms(Sym::intern("C")).to_vec(),
            ["C", "M", "Model", "Object"]
        );
        assert_eq!(
            r.resolution_syms(Sym::intern("Base")).to_vec(),
            ["Base", "Object"],
            "the old name is no longer known"
        );
    }

    #[test]
    fn resolution_syms_of_unknown_and_later_defined_names() {
        let mut r = ClassRegistry::new();
        let base = r.define_class("Base", None, false);
        let later = Sym::intern("Later");
        assert_eq!(r.resolution_syms(later).to_vec(), ["Later", "Object"]);
        assert_eq!(
            r.resolution_syms(later).to_vec(),
            r.resolution_chain(later).collect::<Vec<_>>()
        );
        r.define_class("Later", Some(base), false);
        assert_eq!(
            r.resolution_syms(later).to_vec(),
            ["Later", "Base", "Object"]
        );
    }

    #[test]
    fn class_of_primitives() {
        let r = {
            let mut r = ClassRegistry::new();
            for n in [
                "NilClass", "Boolean", "Fixnum", "Float", "String", "Symbol", "Array", "Hash",
                "Range", "Proc", "Class",
            ] {
                r.define_class(n, None, false);
            }
            r
        };
        assert_eq!(r.name(r.class_of(&Value::Int(1))), "Fixnum");
        assert_eq!(r.name(r.class_of(&Value::Nil)), "NilClass");
        assert_eq!(r.name(r.class_of(&Value::str("s"))), "String");
    }
}
