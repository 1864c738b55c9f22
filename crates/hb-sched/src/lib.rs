//! # hb-sched: the concurrent check scheduler
//!
//! Hummingbird's just-in-time static checks are pure functions of a
//! method's lowered body, the type table and the class hierarchy (Ren &
//! Foster, PLDI 2016) — nothing about them requires the interpreter
//! thread. This crate supplies the subsystem that exploits that purity:
//!
//! * [`CheckTask`] — an owned, `Send` capture of one `check_sig`
//!   invocation: the CFG, the signature and blame metadata, the captured
//!   type environment, and a [`WorldSnapshot`] of the table/hierarchy
//!   with its epoch fingerprints. Extracted at the engine layer on the
//!   interpreter thread; executable anywhere. A passing check comes back
//!   as a stamped `hb_check::Derivation` ([`TaskVerdict::Pass`]).
//! * [`Scheduler`] — a work-stealing pool of worker threads running one
//!   kind of job. Panics are contained per job ([`TaskVerdict::Panicked`]
//!   for a check, `Err` for a mapped item); the pool survives.
//!   [`Scheduler::map`] is the ordered fan-out every `--jobs` caller uses.
//! * [`CompletionQueue`] — the per-engine channel deferred results travel
//!   back through. The engine validates each completion against its
//!   *current* state before anything lands: matching results are adopted
//!   (cached locally, published to the shared tier for other tenants);
//!   stale results are discarded, never adopted.
//!
//! Consumers: in the `hummingbird` core crate, asynchronous JIT admission
//! (`hb_rdl::CheckPolicy::Deferred`, where a cold call submits its task
//! and proceeds immediately under full dynamic checks), parallel
//! whole-program checking (`Hummingbird::check_all_parallel`, `hb_lint
//! --jobs N`), and the parallel lint suite and inference verification
//! (`Hummingbird::analyze` / `Hummingbird::infer`, `hb_lint --analyze` /
//! `--infer --jobs N`); in `hb-fleetd`, the daemon's periodic maintenance
//! ([`PeriodicTask`]).

pub mod periodic;
pub mod pool;
pub mod task;
pub mod world;

pub use periodic::PeriodicTask;
pub use pool::Scheduler;
pub use task::{CheckTask, CompletionQueue, TaskCompletion, TaskVerdict};
pub use world::WorldSnapshot;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard when a panicking thread poisoned it:
/// the scheduler contains panics, so its own locks must survive them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
