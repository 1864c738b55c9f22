//! Call interception — the mechanism Hummingbird uses to run `pre`
//! contracts and just-in-time checks at method entry.

use crate::class::MethodEntry;
use crate::error::HbError;
use crate::interp::Interp;
use crate::value::{ClassId, Value};
use hb_intern::Sym;
use hb_syntax::Span;

/// Information about a dispatch about to happen to a *checkable* (non-
/// builtin) method.
pub struct DispatchInfo {
    /// The receiver's class (for `Class` receivers, the class itself). This
    /// is the cache key class: module methods are cached per mix-in class
    /// (paper §4 "Modules").
    pub recv_class: ClassId,
    /// True when dispatching a class-level (singleton) method.
    pub class_level: bool,
    /// The class/module that lexically owns the method definition.
    pub owner: ClassId,
    /// The interned method name — the hook resolves annotations by symbol,
    /// so constructing this info allocates nothing.
    pub name: Sym,
    /// The method table entry (its `id` changes on redefinition).
    pub entry: MethodEntry,
    /// Call-site span, for blame messages.
    pub span: Span,
}

/// What a hook decided about the call.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookOutcome {
    /// Mark the callee's frame as statically checked, so calls *it* makes
    /// skip dynamic argument checks (paper §4 "Eliminating Dynamic
    /// Checks").
    pub mark_checked: bool,
}

/// The hook invoked before every dispatch to a checkable method. An
/// interpreter holds at most one ([`crate::Interp::set_hook`]).
///
/// Returning an error aborts the call — this is how Hummingbird's `blame`
/// surfaces.
pub trait CallHook {
    /// Called with the interpreter, dispatch metadata, receiver and
    /// arguments.
    ///
    /// # Errors
    ///
    /// An error propagates as a runtime error at the call site.
    fn before_call(
        &self,
        interp: &mut Interp,
        info: &DispatchInfo,
        recv: &Value,
        args: &[Value],
    ) -> Result<HookOutcome, HbError>;
}
