//! Adapter exposing the live interpreter class registry to the checker.

use hb_check::ClassInfo;
use hb_intern::Sym;
use hb_interp::ClassRegistry;
use std::sync::Arc;

/// Borrows the interpreter's class registry as checker [`ClassInfo`]:
/// chains are the registry's memoised
/// [`ClassRegistry::resolution_syms`].
pub struct RegistryInfo<'a>(pub &'a ClassRegistry);

impl ClassInfo for RegistryInfo<'_> {
    fn ancestors(&self, class: Sym) -> Arc<[Sym]> {
        self.0.resolution_syms(class)
    }

    fn is_descendant(&self, sub: Sym, sup: Sym) -> bool {
        self.0.is_descendant_name(sub.as_str(), sup.as_str())
    }

    fn class_exists(&self, name: &str) -> bool {
        self.0.lookup(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_interp::Interp;

    #[test]
    fn live_registry_ancestors() {
        let mut i = Interp::new();
        i.eval_str("module M\nend\nclass A\n include M\nend\nclass B < A\nend")
            .unwrap();
        let info = RegistryInfo(&i.registry);
        let names = info.ancestors(Sym::intern("B"));
        assert_eq!(names.to_vec(), vec!["B", "A", "M", "Object"]);
        assert!(info.is_descendant(Sym::intern("B"), Sym::intern("M")));
        assert!(info.class_exists("A"));
        assert!(!info.class_exists("Zzz"));
        // Unknown classes degrade gracefully.
        assert_eq!(
            info.ancestors(Sym::intern("Zzz")).to_vec(),
            vec!["Zzz", "Object"]
        );
    }

    #[test]
    fn numeric_tower_via_registry() {
        let i = Interp::new();
        let info = RegistryInfo(&i.registry);
        let s = Sym::intern;
        assert!(info.is_descendant(s("Fixnum"), s("Numeric")));
        assert!(info.is_descendant(s("Float"), s("Numeric")));
        assert!(!info.is_descendant(s("Float"), s("Integer")));
    }
}
