//! Subtyping and least upper bounds.
//!
//! The rules follow the paper's formal system extended with the
//! implementation's richer types (§4): `nil ≤ τ` for every `τ`, nominal
//! subtyping through a pluggable class [`Hierarchy`] (superclasses and mixed-
//! in modules), unions, and covariant generics (a documented divergence from
//! RDL's default invariance — see DESIGN.md).

use crate::ty::Type;
use hb_intern::{sym, Sym};
use std::collections::HashMap;

/// Provides the nominal subtype relation between class/module names.
///
/// Implementations must make `is_descendant` reflexive and must treat
/// `Object` as the top of the nominal lattice.
pub trait Hierarchy {
    /// Is `sub` the same as, a subclass of, or a mixer-in of `sup`?
    fn is_descendant(&self, sub: Sym, sup: Sym) -> bool;
}

/// A hierarchy with no user classes: only reflexivity and `Object` as top.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHierarchy;

impl Hierarchy for NoHierarchy {
    fn is_descendant(&self, sub: Sym, sup: Sym) -> bool {
        sub == sup || sup == sym!("Object")
    }
}

/// A hierarchy backed by an explicit ancestor map (used in tests and by the
/// formal calculus).
#[derive(Debug, Clone, Default)]
pub struct MapHierarchy {
    ancestors: HashMap<String, Vec<String>>,
}

impl MapHierarchy {
    /// Creates an empty map hierarchy.
    pub fn new() -> MapHierarchy {
        MapHierarchy::default()
    }

    /// Declares `class` to have the given ancestors (nearest first; `class`
    /// itself and `Object` are implicit).
    pub fn insert(&mut self, class: impl Into<String>, ancestors: Vec<String>) {
        self.ancestors.insert(class.into(), ancestors);
    }

    /// The standard numeric tower used throughout the reproduction:
    /// `Fixnum ≤ Integer ≤ Numeric` and `Float ≤ Numeric` (paper §4).
    pub fn with_numeric_tower() -> MapHierarchy {
        let mut h = MapHierarchy::new();
        h.insert("Fixnum", vec!["Integer".into(), "Numeric".into()]);
        h.insert("Bignum", vec!["Integer".into(), "Numeric".into()]);
        h.insert("Integer", vec!["Numeric".into()]);
        h.insert("Float", vec!["Numeric".into()]);
        h
    }
}

impl Hierarchy for MapHierarchy {
    fn is_descendant(&self, sub: Sym, sup: Sym) -> bool {
        if NoHierarchy.is_descendant(sub, sup) {
            return true;
        }
        match self.ancestors.get(sub.as_str()) {
            Some(a) => a.iter().any(|x| x == sup.as_str()),
            None => false,
        }
    }
}

impl Type {
    /// The subtype relation `self ≤ other`.
    ///
    /// `%any` is compatible in both directions (it is the dynamic type);
    /// `nil ≤ τ` for every `τ` (paper §3).
    pub fn is_subtype(&self, other: &Type, hier: &dyn Hierarchy) -> bool {
        match (self, other) {
            (a, b) if a == b => true,
            (Type::Any, _) | (_, Type::Any) => true,
            (Type::Nil, _) => true,
            // Union on the left: every arm must fit.
            (Type::Union(arms), b) => arms.iter().all(|a| a.is_subtype(b, hier)),
            // Union on the right: some arm must accommodate.
            (a, Type::Union(arms)) => arms.iter().any(|b| a.is_subtype(b, hier)),
            (Type::Bool, Type::Nominal(n)) => *n == sym!("Boolean") || *n == sym!("Object"),
            (Type::Nominal(n), Type::Bool) => *n == sym!("Boolean"),
            (Type::Nominal(a), Type::Nominal(b)) => hier.is_descendant(*a, *b),
            (Type::Generic(a, xs), Type::Generic(b, ys)) => {
                hier.is_descendant(*a, *b)
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|(x, y)| x.is_subtype(y, hier))
            }
            // Raw-compatibility: an instantiated generic may be used where
            // the raw class is expected (e.g. `Array<Fixnum> ≤ Array`), but
            // not the reverse — promoting a raw value needs a cast (§4).
            (Type::Generic(a, _), Type::Nominal(b)) => hier.is_descendant(*a, *b),
            (Type::ClassObj(a), Type::ClassObj(b)) => hier.is_descendant(*a, *b),
            (Type::ClassObj(_), Type::Nominal(b)) => *b == sym!("Class") || *b == sym!("Object"),
            _ => false,
        }
    }

    /// The least upper bound `self ⊔ other`: one side if comparable,
    /// otherwise their union (the implementation's generalisation of the
    /// paper's `A ⊔ A = A`, `nil ⊔ τ = τ ⊔ nil = τ`... for unions).
    pub fn lub(&self, other: &Type, hier: &dyn Hierarchy) -> Type {
        // `%any` is bivariant, so comparability alone would make the result
        // order-dependent; let it absorb for a commutative join.
        if self.is_any() || other.is_any() {
            return Type::Any;
        }
        if self.is_subtype(other, hier) {
            other.clone()
        } else if other.is_subtype(self, hier) {
            self.clone()
        } else {
            Type::union_of(vec![self.clone(), other.clone()])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(arms: &[Type]) -> Type {
        Type::union_of(arms.to_vec())
    }

    #[test]
    fn reflexive_and_nil_bottom() {
        let h = NoHierarchy;
        let user = Type::nominal("User");
        assert!(user.is_subtype(&user, &h));
        assert!(Type::Nil.is_subtype(&user, &h));
        assert!(Type::Nil.is_subtype(&Type::Bool, &h));
        assert!(!user.is_subtype(&Type::Nil, &h));
    }

    #[test]
    fn any_is_bidirectional() {
        let h = NoHierarchy;
        let user = Type::nominal("User");
        assert!(user.is_subtype(&Type::Any, &h));
        assert!(Type::Any.is_subtype(&user, &h));
    }

    #[test]
    fn object_is_top() {
        let h = NoHierarchy;
        assert!(Type::nominal("User").is_subtype(&Type::nominal("Object"), &h));
        assert!(Type::Bool.is_subtype(&Type::nominal("Object"), &h));
        assert!(Type::Generic("Array".into(), vec![Type::Bool])
            .is_subtype(&Type::nominal("Object"), &h));
    }

    #[test]
    fn numeric_tower() {
        let h = MapHierarchy::with_numeric_tower();
        let fix = Type::nominal("Fixnum");
        let int = Type::nominal("Integer");
        let num = Type::nominal("Numeric");
        let flo = Type::nominal("Float");
        assert!(fix.is_subtype(&int, &h));
        assert!(fix.is_subtype(&num, &h));
        assert!(flo.is_subtype(&num, &h));
        assert!(!flo.is_subtype(&int, &h));
        assert!(!int.is_subtype(&fix, &h));
    }

    #[test]
    fn union_rules() {
        let h = MapHierarchy::with_numeric_tower();
        let fix = Type::nominal("Fixnum");
        let flo = Type::nominal("Float");
        let num = Type::nominal("Numeric");
        let fu = u(&[fix.clone(), flo.clone()]);
        // Union left: both arms are Numeric.
        assert!(fu.is_subtype(&num, &h));
        // Union right: Fixnum fits into Fixnum|Float.
        assert!(fix.is_subtype(&fu, &h));
        assert!(!num.is_subtype(&fu, &h));
        // nil fits into any union.
        assert!(Type::Nil.is_subtype(&fu, &h));
    }

    #[test]
    fn generics_covariant() {
        let h = MapHierarchy::with_numeric_tower();
        let af = Type::Generic("Array".into(), vec![Type::nominal("Fixnum")]);
        let an = Type::Generic("Array".into(), vec![Type::nominal("Numeric")]);
        assert!(af.is_subtype(&an, &h));
        assert!(!an.is_subtype(&af, &h));
    }

    #[test]
    fn raw_generic_compatibility_is_one_way() {
        let h = NoHierarchy;
        let af = Type::Generic("Array".into(), vec![Type::nominal("Fixnum")]);
        let raw = Type::nominal("Array");
        assert!(af.is_subtype(&raw, &h));
        // Promoting raw to instantiated requires a cast (paper §4).
        assert!(!raw.is_subtype(&af, &h));
    }

    #[test]
    fn class_obj_subtyping() {
        let h = NoHierarchy;
        let cu = Type::ClassObj("User".into());
        assert!(cu.is_subtype(&cu, &h));
        assert!(cu.is_subtype(&Type::nominal("Class"), &h));
        assert!(cu.is_subtype(&Type::nominal("Object"), &h));
        assert!(!cu.is_subtype(&Type::ClassObj("Talk".into()), &h));
    }

    #[test]
    fn lub_prefers_comparable_side() {
        let h = MapHierarchy::with_numeric_tower();
        let fix = Type::nominal("Fixnum");
        let int = Type::nominal("Integer");
        assert_eq!(fix.lub(&int, &h), int);
        assert_eq!(int.lub(&fix, &h), int);
        assert_eq!(Type::Nil.lub(&fix, &h), fix);
        assert_eq!(fix.lub(&Type::Nil, &h), fix);
    }

    #[test]
    fn lub_builds_unions() {
        let h = NoHierarchy;
        let a = Type::nominal("A");
        let b = Type::nominal("B");
        let ab = a.lub(&b, &h);
        assert_eq!(ab.to_string(), "A or B");
        // Joining again with one arm is stable.
        assert_eq!(ab.lub(&a, &h), ab);
    }

    #[test]
    fn bool_vs_nominal() {
        let h = NoHierarchy;
        assert!(Type::Bool.is_subtype(&Type::nominal("Boolean"), &h));
        assert!(Type::nominal("Boolean").is_subtype(&Type::Bool, &h));
        assert!(!Type::Bool.is_subtype(&Type::nominal("User"), &h));
    }
}
