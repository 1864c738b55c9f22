//! The checker's view of the runtime type table, abstracted from
//! [`RdlState`] so a check can run against an owned snapshot on a worker
//! thread (the concurrent scheduler's `CheckTask` capture) exactly as it
//! runs against the live table on the interpreter thread.
//!
//! The trait is deliberately the *read* surface `check_sig` consumes —
//! resolution along ancestor chains of interned class names (the
//! [`crate::ClassInfo`] chains) plus variable-type declarations —
//! together with [`TypeTable::mark_used`], the one write the checker
//! performs (usage statistics). A resolution hands back the table's own
//! `Rc<TableEntry>`, so it copies no signature. Snapshots may implement
//! `mark_used` as a no-op: when a worker's derivation is adopted by the
//! owning tenant, the engine re-marks every dependency against the live
//! table, so the Used statistics do not diverge between synchronous and
//! scheduled checks.

use hb_intern::Sym;
use hb_rdl::{MethodKey, RdlState, TableEntry};
use hb_syntax::Span;
use hb_types::Type;
use std::rc::Rc;

/// Nominal type-table queries used during checking (rule (TApp) resolution
/// and ivar/cvar/gvar declarations). Implemented by the live [`RdlState`]
/// and by the scheduler's owned world snapshot.
pub trait TypeTable {
    /// Resolves a method annotation along an ancestor chain, returning the
    /// annotation's own key and its entry.
    fn lookup_along(
        &self,
        classes: &[Sym],
        class_level: bool,
        method: Sym,
    ) -> Option<(MethodKey, Rc<TableEntry>)>;

    /// Instance-variable type and declaration site along a chain.
    fn ivar_decl(&self, classes: &[Sym], ivar: &str) -> Option<(Type, Span)>;

    /// Class-variable type and declaration site along a chain.
    fn cvar_decl(&self, classes: &[Sym], cvar: &str) -> Option<(Type, Span)>;

    /// Global-variable type and declaration site.
    fn gvar_decl(&self, gvar: &str) -> Option<(Type, Span)>;

    /// Instance-variable type along a chain.
    fn ivar_type(&self, classes: &[Sym], ivar: &str) -> Option<Type> {
        self.ivar_decl(classes, ivar).map(|(t, _)| t)
    }

    /// Class-variable type along a chain.
    fn cvar_type(&self, classes: &[Sym], cvar: &str) -> Option<Type> {
        self.cvar_decl(classes, cvar).map(|(t, _)| t)
    }

    /// Global-variable type.
    fn gvar_type(&self, gvar: &str) -> Option<Type> {
        self.gvar_decl(gvar).map(|(t, _)| t)
    }

    /// Records that the checker consulted `key` (Table 1 "Used"
    /// statistics). Snapshots may no-op; see the module docs.
    fn mark_used(&self, key: &MethodKey);
}

impl TypeTable for RdlState {
    fn lookup_along(
        &self,
        classes: &[Sym],
        class_level: bool,
        method: Sym,
    ) -> Option<(MethodKey, Rc<TableEntry>)> {
        RdlState::lookup_along(self, classes.iter().copied(), class_level, method)
    }

    fn ivar_decl(&self, classes: &[Sym], ivar: &str) -> Option<(Type, Span)> {
        RdlState::ivar_decl(self, classes, ivar)
    }

    fn cvar_decl(&self, classes: &[Sym], cvar: &str) -> Option<(Type, Span)> {
        RdlState::cvar_decl(self, classes, cvar)
    }

    fn gvar_decl(&self, gvar: &str) -> Option<(Type, Span)> {
        RdlState::gvar_decl(self, gvar)
    }

    fn mark_used(&self, key: &MethodKey) {
        RdlState::mark_used(self, key);
    }
}
