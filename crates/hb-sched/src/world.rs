//! The owned world snapshot a [`crate::CheckTask`] carries: everything
//! `check_sig` reads — each class's resolution chain of interned names,
//! the annotation table, variable declarations — captured as plain owned
//! maps so the capture is `Send + Sync` and a worker thread checks
//! against *exactly* the state the task was extracted from, no matter
//! what the interpreter thread does meanwhile. The chains are the same
//! shared `Arc<[Sym]>`s the live registry memoises; a table lookup hands
//! the checker a fresh `Rc` copy of the captured entry.
//!
//! The snapshot also remembers the capture-time epoch fingerprints
//! (type-table, class-hierarchy shape, variable types). They are what
//! makes asynchronous results safe to land: at publication the engine
//! compares them (or replays the outcome's resolution witnesses) against
//! its *current* state, and a mismatch discards the result as stale —
//! never adopted.

use hb_check::{ClassInfo, TypeTable};
use hb_intern::{sym, Sym};
use hb_rdl::state::decl_along;
use hb_rdl::{MethodKey, TableEntry};
use hb_syntax::Span;
use hb_types::Type;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// An owned, `Send + Sync` capture of the checker-visible world: class
/// hierarchy + type table + variable declarations + epoch fingerprints.
/// Built once per (table, hierarchy, variable) state by the engine and
/// shared across every task extracted at that state via `Arc`.
pub struct WorldSnapshot {
    /// Class name → full ancestor chain (the class itself first,
    /// `Object` last), mirroring the live registry's resolution chains.
    /// Keyed by text, so `class_exists` can ask by string without
    /// interning it.
    chains: HashMap<&'static str, Arc<[Sym]>>,
    /// The annotation table (owned copies of every entry).
    table: HashMap<MethodKey, TableEntry>,
    /// Instance-variable declarations keyed `(class, name)`.
    ivars: HashMap<(String, String), (Type, Span)>,
    /// Class-variable declarations keyed `(class, name)`.
    cvars: HashMap<(String, String), (Type, Span)>,
    /// Global-variable declarations.
    gvars: HashMap<String, (Type, Span)>,
    /// Capture-time `(table_fp, hierarchy_fp, var_fp)` epoch
    /// fingerprints — compared at publication to detect staleness.
    pub epochs: (u64, u64, u64),
}

impl WorldSnapshot {
    /// Assembles a snapshot from its captured parts (the engine-side
    /// extraction walks the live registry and `RdlState`).
    pub fn new(
        chains: HashMap<&'static str, Arc<[Sym]>>,
        table: HashMap<MethodKey, TableEntry>,
        ivars: HashMap<(String, String), (Type, Span)>,
        cvars: HashMap<(String, String), (Type, Span)>,
        gvars: HashMap<String, (Type, Span)>,
        epochs: (u64, u64, u64),
    ) -> WorldSnapshot {
        WorldSnapshot {
            chains,
            table,
            ivars,
            cvars,
            gvars,
            epochs,
        }
    }

    /// The captured entry for `key`, if any (used to attach each
    /// dependency's at-check signature version and fingerprint to a
    /// passing outcome).
    pub fn table_entry(&self, key: &MethodKey) -> Option<&TableEntry> {
        self.table.get(key)
    }

    /// Number of captured annotation entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// A copy of this snapshot with `entries` overlaid on the captured
    /// table — the *hypothesis world* the inference pass verifies
    /// candidates against: every candidate signature is visible to every
    /// other candidate's check, so mutually-recursive unannotated methods
    /// can verify in the same round. Existing entries for the same key
    /// are shadowed (the overlay wins); chains, variable declarations and
    /// epochs are shared unchanged.
    pub fn overlay(
        &self,
        entries: impl IntoIterator<Item = (MethodKey, TableEntry)>,
    ) -> WorldSnapshot {
        let mut table = self.table.clone();
        for (k, e) in entries {
            table.insert(k, e);
        }
        WorldSnapshot {
            chains: self.chains.clone(),
            table,
            ivars: self.ivars.clone(),
            cvars: self.cvars.clone(),
            gvars: self.gvars.clone(),
            epochs: self.epochs,
        }
    }
}

impl ClassInfo for WorldSnapshot {
    fn ancestors(&self, class: Sym) -> Arc<[Sym]> {
        match self.chains.get(class.as_str()) {
            Some(chain) => chain.clone(),
            // Unknown classes degrade exactly like the live registry view.
            None => Arc::new([class, sym!("Object")]),
        }
    }

    fn is_descendant(&self, sub: Sym, sup: Sym) -> bool {
        sub == sup
            || sup == sym!("Object")
            || self
                .chains
                .get(sub.as_str())
                .is_some_and(|c| c.contains(&sup))
    }

    fn class_exists(&self, name: &str) -> bool {
        self.chains.contains_key(name)
    }
}

impl TypeTable for WorldSnapshot {
    fn lookup_along(
        &self,
        classes: &[Sym],
        class_level: bool,
        method: Sym,
    ) -> Option<(MethodKey, Rc<TableEntry>)> {
        classes.iter().find_map(|&class| {
            let key = MethodKey {
                class,
                class_level,
                method,
            };
            self.table.get(&key).map(|e| (key, Rc::new(e.clone())))
        })
    }

    fn ivar_decl(&self, classes: &[Sym], ivar: &str) -> Option<(Type, Span)> {
        decl_along(&self.ivars, classes, ivar)
    }

    fn cvar_decl(&self, classes: &[Sym], cvar: &str) -> Option<(Type, Span)> {
        decl_along(&self.cvars, classes, cvar)
    }

    fn gvar_decl(&self, gvar: &str) -> Option<(Type, Span)> {
        self.gvars.get(gvar).cloned()
    }

    /// Usage statistics are re-marked against the live table when the
    /// derivation is adopted; marking a snapshot would be lost work.
    fn mark_used(&self, _key: &MethodKey) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_rdl::AnnotationSource;
    use hb_types::{parse_method_type, MethodSig};

    fn snap() -> WorldSnapshot {
        let s = Sym::intern;
        let mut chains = HashMap::new();
        chains.insert("Talk", Arc::from([s("Talk"), s("Base"), s("Object")]));
        chains.insert("Base", Arc::from([s("Base"), s("Object")]));
        let mut table = HashMap::new();
        table.insert(
            MethodKey::instance("Base", "save"),
            TableEntry {
                sig: MethodSig::single(parse_method_type("() -> %bool").unwrap()),
                check: false,
                always_dyn_check: false,
                source: AnnotationSource::Static,
                version: 3,
                span: Span::dummy(),
            },
        );
        WorldSnapshot::new(
            chains,
            table,
            HashMap::new(),
            HashMap::new(),
            HashMap::new(),
            (1, 2, 3),
        )
    }

    #[test]
    fn chain_queries_mirror_the_live_view() {
        let w = snap();
        let s = Sym::intern;
        assert_eq!(
            w.ancestors(s("Talk")).to_vec(),
            vec!["Talk", "Base", "Object"]
        );
        assert_eq!(w.ancestors(s("Zzz")).to_vec(), vec!["Zzz", "Object"]);
        assert!(w.is_descendant(s("Talk"), s("Base")));
        assert!(w.is_descendant(s("Talk"), s("Object")));
        assert!(!w.is_descendant(s("Base"), s("Talk")));
        assert!(w.class_exists("Base"));
        assert!(!w.class_exists("Zzz"));
    }

    #[test]
    fn table_resolves_along_chains() {
        let w = snap();
        let chain = w.ancestors(Sym::intern("Talk"));
        let (key, e) = TypeTable::lookup_along(&w, &chain, false, Sym::intern("save")).unwrap();
        assert_eq!(key, MethodKey::instance("Base", "save"));
        assert_eq!(e.version, 3);
        assert!(TypeTable::lookup_along(&w, &chain, false, Sym::intern("missing")).is_none());
    }

    #[test]
    fn overlay_shadows_and_extends_the_table() {
        let w = snap();
        let cand = TableEntry {
            sig: MethodSig::single(parse_method_type("(Fixnum) -> Fixnum").unwrap()),
            check: true,
            always_dyn_check: false,
            source: AnnotationSource::Inferred,
            version: 1,
            span: Span::dummy(),
        };
        let o = w.overlay([
            (MethodKey::instance("Talk", "bump"), cand.clone()),
            (MethodKey::instance("Base", "save"), cand.clone()),
        ]);
        // New key visible, existing key shadowed, base snapshot untouched.
        assert_eq!(o.table_len(), 2);
        assert!(o
            .table_entry(&MethodKey::instance("Talk", "bump"))
            .is_some());
        assert_eq!(
            o.table_entry(&MethodKey::instance("Base", "save"))
                .unwrap()
                .source,
            AnnotationSource::Inferred
        );
        assert_eq!(
            w.table_entry(&MethodKey::instance("Base", "save"))
                .unwrap()
                .source,
            AnnotationSource::Static
        );
        assert_eq!(o.epochs, w.epochs);
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorldSnapshot>();
    }
}
