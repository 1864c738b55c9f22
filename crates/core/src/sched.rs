//! Engine-side glue for the concurrent check scheduler (`hb-sched`).
//!
//! The scheduler's [`WorldSnapshot`] is an owned, `Send` capture of the
//! checker-visible world; this module is where that capture is taken —
//! on the interpreter thread, against the live registry and `RdlState`.
//! It also holds what every `--jobs` fan-out shares: the pool choice,
//! the ordered map with its serial fallback, and the diagnostic ordering
//! shared by the serial and parallel paths.

use hb_rdl::RdlState;
use hb_sched::{Scheduler, WorldSnapshot};
use hb_syntax::TypeDiagnostic;
use std::sync::Arc;

/// Captures the checker-visible world: every registered class's
/// resolution chain (exactly the chains [`crate::RegistryInfo`] serves),
/// the full annotation table, ivar/cvar/gvar declarations, and the
/// capture-time epoch fingerprints `(table_fp, hierarchy_fp, var_fp)`.
///
/// The capture is O(classes + annotations); the engine memoises the
/// resulting `Arc` per epoch triple, so a burst of task extractions at a
/// quiescent table pays for one capture.
pub fn capture_world(interp: &hb_interp::Interp, rdl: &RdlState) -> WorldSnapshot {
    let registry = &interp.registry;
    let chains = (0..registry.class_count() as u32)
        .map(|i| {
            let name = registry.name_sym(hb_interp::ClassId(i));
            (name.as_str(), registry.resolution_syms(name))
        })
        .collect();
    let table = rdl
        .entries()
        .into_iter()
        .map(|(k, e)| (k, (*e).clone()))
        .collect();
    let ivars = rdl.ivar_decls().into_iter().collect();
    let cvars = rdl.cvar_decls().into_iter().collect();
    let gvars = rdl.gvar_decls().into_iter().collect();
    let epochs = crate::derivation::epochs_of(interp, rdl);
    WorldSnapshot::new(chains, table, ivars, cvars, gvars, epochs)
}

/// The pool a `jobs`-wide fan-out runs on — the one pool choice of the
/// parallel `check_all`, analysis and inference: `None` for `jobs <= 1`
/// (the caller's serial path), the attached scheduler when it has at
/// least `jobs` workers, and otherwise a temporary `jobs`-worker pool,
/// torn down when the caller drops it.
pub(crate) fn pool_for(attached: Option<Arc<Scheduler>>, jobs: usize) -> Option<Arc<Scheduler>> {
    if jobs <= 1 {
        return None;
    }
    Some(match attached {
        Some(s) if s.worker_count() >= jobs => s,
        _ => Arc::new(Scheduler::new(jobs)),
    })
}

/// Applies `f` to every item and returns the results in input order:
/// serially without a pool, through [`Scheduler::map`] on one. A worker
/// panic is re-raised here, on the caller, as the serial path would raise
/// it.
pub(crate) fn map_in_order<T, R>(
    pool: Option<&Scheduler>,
    items: Vec<T>,
    f: impl Fn(T) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    let Some(pool) = pool else {
        return items.into_iter().map(f).collect();
    };
    pool.map(items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| std::panic::resume_unwind(Box::new(msg))))
        .collect()
}

/// Sorts diagnostics into the stable reporting order shared by serial and
/// parallel whole-program checking: `(file, span, code)`, with message as
/// a final tiebreaker. Golden tests and `hb_lint --json` byte-compare
/// against this order, so it must not depend on worker interleaving or
/// hash-map iteration order.
pub fn sort_diagnostics(diags: &mut [TypeDiagnostic]) {
    diags.sort_by(|a, b| {
        (a.span.file.0, a.span.lo, a.span.hi, a.code)
            .cmp(&(b.span.file.0, b.span.lo, b.span.hi, b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
}
