//! Class-graph information the checker needs, abstracted from the
//! interpreter so the checker is testable in isolation. Classes are named
//! by interned [`Sym`]s, and an ancestor chain is a shared `Arc<[Sym]>`
//! that an implementation can memoise per class, so resolving a call
//! along it copies no names.

use hb_intern::{sym, Sym};
use hb_types::Hierarchy;
use std::collections::HashMap;
use std::sync::Arc;

/// Nominal class-graph queries used during checking.
pub trait ClassInfo {
    /// The ancestor chain of `class`, nearest first, including `class`
    /// itself and ending at `Object`. Unknown classes yield
    /// `[class, Object]`.
    fn ancestors(&self, class: Sym) -> Arc<[Sym]>;

    /// Is `sub` the same as or below `sup`?
    fn is_descendant(&self, sub: Sym, sup: Sym) -> bool {
        sub == sup || sup == sym!("Object") || self.ancestors(sub).contains(&sup)
    }

    /// Does a class/module of this name exist?
    fn class_exists(&self, name: &str) -> bool;
}

/// Adapter exposing a [`ClassInfo`] as the type system's [`Hierarchy`].
pub struct InfoHierarchy<'a>(pub &'a dyn ClassInfo);

impl Hierarchy for InfoHierarchy<'_> {
    fn is_descendant(&self, sub: Sym, sup: Sym) -> bool {
        self.0.is_descendant(sub, sup)
    }
}

/// A map-backed [`ClassInfo`] for tests and the formal calculus: class →
/// its chain (the class itself first, `Object` last).
#[derive(Debug, Clone, Default)]
pub struct MapClassInfo {
    chains: HashMap<Sym, Arc<[Sym]>>,
}

impl MapClassInfo {
    /// An info with the built-in numeric tower and core classes.
    pub fn with_core() -> MapClassInfo {
        let mut m = MapClassInfo::default();
        m.add("Fixnum", vec!["Integer", "Numeric"]);
        m.add("Bignum", vec!["Integer", "Numeric"]);
        m.add("Integer", vec!["Numeric"]);
        m.add("Float", vec!["Numeric"]);
        for c in [
            "Numeric",
            "String",
            "Symbol",
            "Array",
            "Hash",
            "Range",
            "Proc",
            "NilClass",
            "Boolean",
            "Class",
            "Module",
            "Struct",
            "StandardError",
        ] {
            m.add(c, vec![]);
        }
        m
    }

    /// Declares `class` with the given strict ancestors.
    pub fn add(&mut self, class: &str, ancestors: Vec<&str>) {
        let chain = std::iter::once(class)
            .chain(ancestors)
            .chain((class != "Object").then_some("Object"))
            .map(Sym::intern)
            .collect();
        self.chains.insert(Sym::intern(class), chain);
    }
}

impl ClassInfo for MapClassInfo {
    fn ancestors(&self, class: Sym) -> Arc<[Sym]> {
        match self.chains.get(&class) {
            Some(chain) => chain.clone(),
            None if class == sym!("Object") => Arc::new([class]),
            None => Arc::new([class, sym!("Object")]),
        }
    }

    fn class_exists(&self, name: &str) -> bool {
        name == "Object" || self.chains.keys().any(|k| k.as_str() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ancestors_and_descendants() {
        let info = MapClassInfo::with_core();
        let s = Sym::intern;
        assert_eq!(
            info.ancestors(s("Fixnum")).to_vec(),
            vec!["Fixnum", "Integer", "Numeric", "Object"]
        );
        assert!(info.is_descendant(s("Fixnum"), s("Numeric")));
        assert!(info.is_descendant(s("Fixnum"), s("Object")));
        assert!(!info.is_descendant(s("Integer"), s("Fixnum")));
        assert!(info.class_exists("Array"));
        assert!(!info.class_exists("Zork"));
    }
}
