//! # hb-sched: the concurrent check scheduler
//!
//! Hummingbird's just-in-time static checks are pure functions of a
//! method's lowered body, the type table and the class hierarchy (Ren &
//! Foster, PLDI 2016) — nothing about them requires the interpreter
//! thread. This crate supplies the subsystem that exploits that purity:
//!
//! * [`CheckTask`] — an owned, `Send` capture of one `check_sig`
//!   invocation: the CFG, the signature and blame metadata, the captured
//!   type environment, and an [`WorldSnapshot`] of the table/hierarchy
//!   with its epoch fingerprints. Extracted at the engine layer on the
//!   interpreter thread; executable anywhere.
//! * [`Scheduler`] — a work-stealing pool of worker threads executing
//!   tasks. Panics are contained per task ([`TaskVerdict::Panicked`]);
//!   the pool survives.
//! * [`CompletionQueue`] — the per-engine channel results travel back
//!   through. The engine validates each completion's fingerprints against
//!   its *current* state before anything lands: matching results are
//!   adopted (cached locally, published to the shared tier for other
//!   tenants); stale results are discarded, never adopted.
//!
//! Two consumers live in the `hummingbird` core crate: parallel
//! whole-program linting (`Hummingbird::check_all_parallel`, `hb_lint
//! --jobs N`) and asynchronous JIT admission
//! (`hb_rdl::CheckPolicy::Deferred`, where a cold call enqueues its task
//! and proceeds immediately under full dynamic checks).

pub mod periodic;
pub mod pool;
pub mod task;
pub mod world;

pub use periodic::PeriodicTask;
pub use pool::{Job, Scheduler};
pub use task::{CheckTask, CompletionQueue, TaskCompletion, TaskVerdict};
pub use world::WorldSnapshot;
