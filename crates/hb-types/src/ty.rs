//! Type representation: value types, method types and intersection
//! signatures.

use hb_intern::Sym;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A RubyLite value type.
///
/// Class names are interned [`Sym`]s, so copying or comparing a name is a
/// `u32` operation. Unions are kept in a canonical form (flattened,
/// deduplicated, sorted by display) so that structural equality coincides
/// with semantic equality for the fragments the checker produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// `%any` — the dynamic type, compatible in both directions.
    Any,
    /// `%bool` — `true` or `false`.
    Bool,
    /// `nil` — the type of `nil`; a subtype of every type (paper §3).
    Nil,
    /// A class or module name, e.g. `User`.
    Nominal(Sym),
    /// A generic instantiation, e.g. `Array<Fixnum>`, `Hash<String, %any>`.
    Generic(Sym, Vec<Type>),
    /// A union, e.g. `Fixnum or Float`. Invariant: built by
    /// [`Type::union_of`], so at least two arms, no nested unions, no
    /// duplicates, no `%any`, sorted by display.
    Union(Vec<Type>),
    /// A type variable (lowercase identifier such as `t`).
    Var(String),
    /// The class object itself (the type of the constant `User`), written
    /// `Class<User>`.
    ClassObj(Sym),
}

/// Hashes each class name's text, never its [`Sym`] index: indices depend
/// on the order a process interned names, and signature, table and witness
/// fingerprints built from this hash are compared across processes. The
/// bytes fed are exactly those of the same enum over `String` names with
/// a derived `Hash`: the discriminant, then each field in order.
impl Hash for Type {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Type::Any | Type::Bool | Type::Nil => {}
            Type::Nominal(n) | Type::ClassObj(n) => n.as_str().hash(state),
            Type::Generic(n, args) => {
                n.as_str().hash(state);
                args.hash(state);
            }
            Type::Union(arms) => arms.hash(state),
            Type::Var(v) => v.hash(state),
        }
    }
}

impl Type {
    /// The `nil` type.
    pub fn nil() -> Type {
        Type::Nil
    }

    /// A nominal type from a class name.
    pub fn nominal(name: impl Into<Sym>) -> Type {
        Type::Nominal(name.into())
    }

    /// A generic instantiation of the class `name`.
    pub fn generic(name: impl Into<Sym>, args: Vec<Type>) -> Type {
        Type::Generic(name.into(), args)
    }

    /// Builds a canonical union of `arms`: flattens nested unions, removes
    /// duplicates, collapses to the single arm when only one remains, and
    /// collapses to `%any` when any arm is `%any`.
    pub fn union_of(arms: Vec<Type>) -> Type {
        let mut flat: Vec<Type> = Vec::new();
        let mut stack = arms;
        stack.reverse();
        while let Some(t) = stack.pop() {
            match t {
                Type::Union(inner) => {
                    for x in inner.into_iter().rev() {
                        stack.push(x);
                    }
                }
                Type::Any => return Type::Any,
                t => {
                    if !flat.contains(&t) {
                        flat.push(t);
                    }
                }
            }
        }
        // nil is absorbed by any other arm only through `lub`, not here:
        // `Fixnum or nil` is a meaningful optional type.
        flat.sort_by_key(|t| t.to_string());
        match flat.len() {
            0 => Type::Nil,
            1 => flat.pop().unwrap(),
            _ => Type::Union(flat),
        }
    }

    /// True if this is `%any`.
    pub fn is_any(&self) -> bool {
        matches!(self, Type::Any)
    }

    /// True if `nil` inhabits this type (it is `nil`, `%any`, or a union
    /// containing `nil`).
    pub fn admits_nil(&self) -> bool {
        match self {
            Type::Nil | Type::Any => true,
            Type::Union(arms) => arms.iter().any(|a| a.admits_nil()),
            _ => false,
        }
    }

    /// Removes `nil` arms from a union (used by the truthiness refinement in
    /// the checker). `nil` itself refines to `nil` (the branch is dead but we
    /// keep checking it).
    pub fn without_nil(&self) -> Type {
        match self {
            Type::Union(arms) => {
                let kept: Vec<Type> = arms.iter().filter(|a| **a != Type::Nil).cloned().collect();
                Type::union_of(kept)
            }
            t => t.clone(),
        }
    }

    /// Substitutes type variables using `map`; unmapped variables are left
    /// in place.
    pub fn subst(&self, map: &HashMap<String, Type>) -> Type {
        match self {
            Type::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            Type::Generic(n, args) => {
                Type::Generic(*n, args.iter().map(|a| a.subst(map)).collect())
            }
            Type::Union(arms) => Type::union_of(arms.iter().map(|a| a.subst(map)).collect()),
            t => t.clone(),
        }
    }

    /// Replaces every remaining type variable with `%any` (used when a
    /// generic class is used "raw", per paper §4 "Type Casts").
    pub fn erase_vars(&self) -> Type {
        match self {
            Type::Var(_) => Type::Any,
            Type::Generic(n, args) => {
                Type::Generic(*n, args.iter().map(Type::erase_vars).collect())
            }
            Type::Union(arms) => Type::union_of(arms.iter().map(Type::erase_vars).collect()),
            t => t.clone(),
        }
    }

    /// True if a type variable occurs anywhere in this type.
    pub fn has_vars(&self) -> bool {
        match self {
            Type::Var(_) => true,
            Type::Generic(_, args) | Type::Union(args) => args.iter().any(Type::has_vars),
            _ => false,
        }
    }

    /// The underlying class name for method lookup, if any.
    pub fn base_name(&self) -> Option<&str> {
        match self {
            Type::Nominal(n) | Type::Generic(n, _) => Some(n.as_str()),
            Type::Bool => Some("Boolean"),
            Type::Nil => Some("NilClass"),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Any => write!(f, "%any"),
            Type::Bool => write!(f, "%bool"),
            Type::Nil => write!(f, "nil"),
            Type::Nominal(n) => write!(f, "{n}"),
            Type::Generic(n, args) => {
                write!(f, "{n}<")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ">")
            }
            Type::Union(arms) => {
                for (i, a) in arms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            Type::Var(v) => write!(f, "{v}"),
            Type::ClassObj(n) => write!(f, "Class<{n}>"),
        }
    }
}

/// How a method-type parameter binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamMode {
    Required,
    /// `?T` — may be omitted.
    Optional,
    /// `*T` — zero or more.
    Rest,
}

/// One parameter of a [`MethodType`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamType {
    pub ty: Type,
    pub mode: ParamMode,
}

impl ParamType {
    /// A required parameter of type `ty`.
    pub fn required(ty: Type) -> ParamType {
        ParamType {
            ty,
            mode: ParamMode::Required,
        }
    }
}

/// A method type `(T1, ?T2, *T3) { blk } -> R`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodType {
    pub params: Vec<ParamType>,
    /// The type of the code-block argument, if the method takes one.
    pub block: Option<Box<MethodType>>,
    pub ret: Type,
}

impl MethodType {
    /// A simple method type with required parameters only and no block.
    pub fn simple(params: Vec<Type>, ret: Type) -> MethodType {
        MethodType {
            params: params.into_iter().map(ParamType::required).collect(),
            block: None,
            ret,
        }
    }

    /// `(min, max)` positional arity; `max == None` when a rest parameter is
    /// present.
    pub fn arity(&self) -> (usize, Option<usize>) {
        let mut min = 0;
        let mut max = Some(0usize);
        for p in &self.params {
            match p.mode {
                ParamMode::Required => {
                    min += 1;
                    max = max.map(|m| m + 1);
                }
                ParamMode::Optional => {
                    max = max.map(|m| m + 1);
                }
                ParamMode::Rest => {
                    max = None;
                }
            }
        }
        (min, max)
    }

    /// True if `n` positional arguments are acceptable.
    pub fn accepts_arity(&self, n: usize) -> bool {
        let (min, max) = self.arity();
        n >= min && max.is_none_or(|m| n <= m)
    }

    /// The declared type of the `i`-th positional argument (rest parameters
    /// absorb all following positions).
    pub fn param_at(&self, i: usize) -> Option<&Type> {
        let mut idx = 0;
        for p in &self.params {
            match p.mode {
                ParamMode::Required | ParamMode::Optional => {
                    if idx == i {
                        return Some(&p.ty);
                    }
                    idx += 1;
                }
                ParamMode::Rest => return Some(&p.ty),
            }
        }
        None
    }

    /// Substitutes type variables throughout the method type.
    pub fn subst(&self, map: &HashMap<String, Type>) -> MethodType {
        MethodType {
            params: self
                .params
                .iter()
                .map(|p| ParamType {
                    ty: p.ty.subst(map),
                    mode: p.mode,
                })
                .collect(),
            block: self.block.as_ref().map(|b| Box::new(b.subst(map))),
            ret: self.ret.subst(map),
        }
    }

    /// True if a type variable occurs in a parameter, the block or the
    /// return type.
    pub fn has_vars(&self) -> bool {
        self.params.iter().any(|p| p.ty.has_vars())
            || self.block.as_ref().is_some_and(|b| b.has_vars())
            || self.ret.has_vars()
    }

    /// [`MethodType::erase_vars`], borrowing `self` when it has no type
    /// variables. Borrowing changes no result: erasing a type without
    /// variables rebuilds an equal type, because every union is already
    /// in the canonical form [`Type::union_of`] builds.
    pub fn erased(&self) -> Cow<'_, MethodType> {
        if self.has_vars() {
            Cow::Owned(self.erase_vars())
        } else {
            Cow::Borrowed(self)
        }
    }

    /// Replaces every remaining type variable with `%any`.
    pub fn erase_vars(&self) -> MethodType {
        MethodType {
            params: self
                .params
                .iter()
                .map(|p| ParamType {
                    ty: p.ty.erase_vars(),
                    mode: p.mode,
                })
                .collect(),
            block: self.block.as_ref().map(|b| Box::new(b.erase_vars())),
            ret: self.ret.erase_vars(),
        }
    }
}

impl fmt::Display for MethodType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p.mode {
                ParamMode::Required => write!(f, "{}", p.ty)?,
                ParamMode::Optional => write!(f, "?{}", p.ty)?,
                ParamMode::Rest => write!(f, "*{}", p.ty)?,
            }
        }
        write!(f, ")")?;
        if let Some(b) = &self.block {
            write!(f, " {{ {b} }}")?;
        }
        write!(f, " -> {}", self.ret)
    }
}

/// A method signature: an intersection of one or more [`MethodType`] arms,
/// built up by repeated `type` calls on the same method (paper §4 "Cache
/// Invalidation").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct MethodSig {
    pub arms: Vec<MethodType>,
}

impl MethodSig {
    /// A signature with a single arm.
    pub fn single(mt: MethodType) -> MethodSig {
        MethodSig { arms: vec![mt] }
    }

    /// Adds an intersection arm (deduplicating exact repeats, which the
    /// paper notes are harmless).
    pub fn add_arm(&mut self, mt: MethodType) {
        if !self.arms.contains(&mt) {
            self.arms.push(mt);
        }
    }
}

impl fmt::Display for MethodSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.arms.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_canonicalisation() {
        let u = Type::union_of(vec![
            Type::nominal("B"),
            Type::nominal("A"),
            Type::nominal("B"),
        ]);
        assert_eq!(u.to_string(), "A or B");
        // Nested unions flatten.
        let v = Type::union_of(vec![u.clone(), Type::nominal("C")]);
        assert_eq!(v.to_string(), "A or B or C");
        // Any absorbs.
        assert_eq!(
            Type::union_of(vec![Type::Any, Type::nominal("A")]),
            Type::Any
        );
        // Singleton collapses.
        assert_eq!(Type::union_of(vec![Type::Bool]), Type::Bool);
        assert_eq!(Type::union_of(vec![]), Type::Nil);
    }

    #[test]
    fn admits_and_strips_nil() {
        let opt = Type::union_of(vec![Type::nominal("User"), Type::Nil]);
        assert!(opt.admits_nil());
        assert_eq!(opt.without_nil(), Type::nominal("User"));
        assert!(!Type::nominal("User").admits_nil());
        assert!(Type::Any.admits_nil());
    }

    #[test]
    fn substitution_and_erasure() {
        let t = Type::Generic("Array".into(), vec![Type::Var("t".into())]);
        let mut m = HashMap::new();
        m.insert("t".to_string(), Type::nominal("Fixnum"));
        assert_eq!(t.subst(&m).to_string(), "Array<Fixnum>");
        assert_eq!(t.erase_vars().to_string(), "Array<%any>");
    }

    #[test]
    fn arity_calculations() {
        let mt = MethodType {
            params: vec![
                ParamType::required(Type::nominal("A")),
                ParamType {
                    ty: Type::nominal("B"),
                    mode: ParamMode::Optional,
                },
                ParamType {
                    ty: Type::nominal("C"),
                    mode: ParamMode::Rest,
                },
            ],
            block: None,
            ret: Type::Nil,
        };
        assert_eq!(mt.arity(), (1, None));
        assert!(mt.accepts_arity(1));
        assert!(mt.accepts_arity(7));
        assert!(!mt.accepts_arity(0));
        assert_eq!(mt.param_at(0).unwrap().to_string(), "A");
        assert_eq!(mt.param_at(1).unwrap().to_string(), "B");
        assert_eq!(mt.param_at(5).unwrap().to_string(), "C");
    }

    #[test]
    fn fixed_arity() {
        let mt = MethodType::simple(vec![Type::nominal("A")], Type::Nil);
        assert_eq!(mt.arity(), (1, Some(1)));
        assert!(!mt.accepts_arity(2));
        assert_eq!(mt.param_at(1), None);
    }

    #[test]
    fn display_forms() {
        let mt = MethodType {
            params: vec![ParamType::required(Type::nominal("User"))],
            block: None,
            ret: Type::Bool,
        };
        assert_eq!(mt.to_string(), "(User) -> %bool");
        let blk = MethodType {
            params: vec![],
            block: Some(Box::new(MethodType::simple(
                vec![Type::Var("t".into())],
                Type::Var("u".into()),
            ))),
            ret: Type::Nil,
        };
        assert_eq!(blk.to_string(), "() { (t) -> u } -> nil");
    }

    #[test]
    fn sig_arm_dedup() {
        let mut sig = MethodSig::default();
        let mt = MethodType::simple(vec![], Type::Bool);
        sig.add_arm(mt.clone());
        sig.add_arm(mt);
        assert_eq!(sig.arms.len(), 1);
    }

    /// A `Hasher` that records every byte it is fed.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl Hasher for Recorder {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    fn fed(x: &impl Hash) -> Vec<u8> {
        let mut r = Recorder::default();
        x.hash(&mut r);
        r.0
    }

    /// The same enum with `String` names and a derived `Hash`: the bytes
    /// every fingerprint was built from before names were interned.
    #[derive(Hash)]
    #[allow(dead_code)]
    enum StrType {
        Any,
        Bool,
        Nil,
        Nominal(String),
        Generic(String, Vec<StrType>),
        Union(Vec<StrType>),
        Var(String),
        ClassObj(String),
    }

    #[test]
    fn hash_feeds_name_text_not_sym_index() {
        let user = Type::nominal("User");
        let mut want = fed(&std::mem::discriminant(&user));
        want.extend(fed(&"User"));
        assert_eq!(fed(&user), want);

        let cls = Type::ClassObj("User".into());
        let mut want = fed(&std::mem::discriminant(&cls));
        want.extend(fed(&"User"));
        assert_eq!(fed(&cls), want);

        let args = vec![Type::nominal("Fixnum")];
        let arr = Type::generic("Array", args.clone());
        let mut want = fed(&std::mem::discriminant(&arr));
        want.extend(fed(&"Array"));
        want.extend(fed(&args));
        assert_eq!(fed(&arr), want);

        // Byte for byte what the derived `String` version fed.
        let old = StrType::Union(vec![
            StrType::Generic(
                "Hash".into(),
                vec![StrType::Nominal("String".into()), StrType::Var("v".into())],
            ),
            StrType::ClassObj("User".into()),
            StrType::Nil,
        ]);
        let new = Type::Union(vec![
            Type::generic("Hash", vec![Type::nominal("String"), Type::Var("v".into())]),
            Type::ClassObj("User".into()),
            Type::Nil,
        ]);
        assert_eq!(fed(&new), fed(&old));
        assert_eq!(fed(&Type::Any), fed(&StrType::Any));
        assert_eq!(fed(&Type::Bool), fed(&StrType::Bool));
    }

    #[test]
    fn erased_borrows_only_without_vars() {
        let plain = MethodType::simple(
            vec![Type::union_of(vec![Type::nominal("B"), Type::nominal("A")])],
            Type::generic("Array", vec![Type::nominal("Fixnum")]),
        );
        assert!(!plain.has_vars());
        assert!(matches!(plain.erased(), Cow::Borrowed(_)));
        assert_eq!(*plain.erased(), plain.erase_vars());
        let generic = MethodType::simple(vec![Type::Var("t".into())], Type::Nil);
        assert!(generic.has_vars());
        assert_eq!(generic.erased().to_string(), "(%any) -> nil");
    }

    #[test]
    fn base_names() {
        assert_eq!(Type::nominal("User").base_name(), Some("User"));
        assert_eq!(
            Type::Generic("Array".into(), vec![Type::Any]).base_name(),
            Some("Array")
        );
        assert_eq!(Type::Bool.base_name(), Some("Boolean"));
        assert_eq!(Type::Any.base_name(), None);
    }
}
