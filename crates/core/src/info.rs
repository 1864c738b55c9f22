//! Adapter exposing the live interpreter class registry to the checker.

use hb_check::ClassInfo;
use hb_interp::ClassRegistry;

/// Borrows the interpreter's class registry as checker [`ClassInfo`].
pub struct RegistryInfo<'a>(pub &'a ClassRegistry);

impl ClassInfo for RegistryInfo<'_> {
    fn ancestors(&self, class: &str) -> Vec<String> {
        self.0
            .resolution_chain(class)
            .map(|s| s.as_str().to_string())
            .collect()
    }

    fn is_descendant(&self, sub: &str, sup: &str) -> bool {
        self.0.is_descendant_name(sub, sup)
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
        let names = info.ancestors("B");
        assert_eq!(names, vec!["B", "A", "M", "Object"]);
        assert!(info.is_descendant("B", "M"));
        assert!(info.class_exists("A"));
        assert!(!info.class_exists("Zzz"));
        // Unknown classes degrade gracefully.
        assert_eq!(info.ancestors("Zzz"), vec!["Zzz", "Object"]);
    }

    #[test]
    fn numeric_tower_via_registry() {
        let i = Interp::new();
        let info = RegistryInfo(&i.registry);
        assert!(info.is_descendant("Fixnum", "Numeric"));
        assert!(info.is_descendant("Float", "Numeric"));
        assert!(!info.is_descendant("Float", "Integer"));
    }
}
