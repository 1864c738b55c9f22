//! The `Send` check-task capture and its completion channel.
//!
//! A [`CheckTask`] is an owned snapshot of everything one `check_sig`
//! invocation needs — the lowered CFG, the signature under check, the
//! blame metadata of the triggering `CheckRequest`, the captured-local
//! type environment, and an `Arc`'d [`WorldSnapshot`] of the table and
//! hierarchy with its epoch fingerprints. Extraction happens at the
//! engine layer on the interpreter thread; execution happens on any
//! worker, where a passing check is stamped into a [`Derivation`]. The
//! task comes back with its verdict as a [`TaskCompletion`] — through the
//! submitting engine's [`CompletionQueue`] for a deferred admission, in
//! input order from [`Scheduler::run_checks`](crate::Scheduler::run_checks)
//! for a parallel `check_all` — and is validated against the engine's
//! *current* state before anything lands (stale results are discarded,
//! never adopted).

use crate::lock;
use crate::world::WorldSnapshot;
use hb_check::{check_sig, CheckRequest, Derivation};
use hb_il::MethodCfg;
use hb_rdl::{CheckPolicy, MethodKey};
use hb_syntax::{Span, TypeDiagnostic};
use hb_types::{MethodSig, TypeEnv};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a scheduled check ended on the worker.
#[derive(Debug, Clone)]
pub enum TaskVerdict {
    /// The check passed against the task's world snapshot. The
    /// derivation's witnesses carry the versions and fingerprints their
    /// targets had *in that snapshot*; the engine validates it against its
    /// current table at harvest, exactly as it does a derivation adopted
    /// from the shared tier.
    Pass(Derivation),
    /// The check blamed; the structured diagnostic is exactly what a
    /// synchronous check would have produced.
    Blame(TypeDiagnostic),
    /// The check panicked. The panic is contained to this task — the
    /// worker thread and the pool survive — and surfaced as the payload
    /// message for the engine to turn into an `HB0011` diagnostic.
    Panicked(String),
}

/// A finished task travelling back to the submitting engine: the task
/// itself (its identity and capture-time world are what staleness is
/// judged against) and how it ended.
pub struct TaskCompletion {
    pub task: CheckTask,
    pub verdict: TaskVerdict,
    /// Wall-clock nanoseconds the worker spent on the check.
    pub duration_ns: u64,
    /// Nanoseconds the task sat queued between submission and a worker
    /// picking it up (0 when the submitter did not stamp
    /// [`CheckTask::submitted_at`]).
    pub queue_ns: u64,
}

/// An owned, `Send` capture of one static check (see the module docs).
pub struct CheckTask {
    /// The receiver-class cache key the derivation will be stored under.
    pub cache_key: MethodKey,
    /// The annotation providing the signature (may sit on an ancestor).
    pub ann_key: MethodKey,
    /// Where that annotation was registered.
    pub ann_span: Span,
    /// The (possibly intersection) signature under check.
    pub sig: MethodSig,
    /// Method-table entry id of the captured body.
    pub entry_id: u64,
    /// Annotation version under check.
    pub sig_version: u64,
    /// Cross-process body fingerprint, when the body has one.
    pub body_fp: Option<u64>,
    /// Content fingerprint of the annotation's signature.
    pub own_sig_fp: u64,
    /// The lowered body.
    pub cfg: Arc<MethodCfg>,
    /// Captured-local types for `define_method` proc bodies.
    pub captured: Option<TypeEnv>,
    /// The table/hierarchy world the check runs against.
    pub world: Arc<WorldSnapshot>,
    /// The enforcement policy the check runs under.
    pub policy: CheckPolicy,
    /// The triggering call site for deferred JIT admissions, whose blame
    /// the engine records. `None` for eager parallel linting, which leaves
    /// blame reporting to the deterministic serial sweep.
    pub trigger: Option<Span>,
    /// When the submitter enqueued the task. Stamped only when the
    /// submitting engine collects observability metrics; the worker
    /// turns it into [`TaskCompletion::queue_ns`].
    pub submitted_at: Option<Instant>,
}

impl CheckTask {
    /// Runs the check against the task's world snapshot and folds the
    /// outcome into a [`TaskVerdict`]. Pure with respect to the snapshot —
    /// callable from any thread.
    pub fn run(&self) -> TaskVerdict {
        let req = CheckRequest {
            cfg: &self.cfg,
            self_class: self.cache_key.class,
            class_level: self.cache_key.class_level,
            sig: &self.sig,
            ann_key: self.ann_key,
            ann_span: self.ann_span,
            info: self.world.as_ref(),
            rdl: self.world.as_ref(),
            captured: self.captured.as_ref(),
            policy: self.policy,
        };
        match check_sig(&req) {
            Ok(outcome) => TaskVerdict::Pass(Derivation::stamp(
                &outcome,
                self.entry_id,
                self.sig_version,
                self.body_fp,
                self.own_sig_fp,
                self.world.epochs,
                |target| {
                    self.world
                        .table_entry(&target)
                        .map(|e| (e.version, e.sig_fingerprint()))
                },
            )),
            Err(e) => TaskVerdict::Blame(e.into_diagnostic()),
        }
    }
}

/// One registered task of a [`CompletionQueue`], owned by the job that
/// runs the task: the job completes it, and a job dropped unrun (a pool
/// shutting down with the task still queued) abandons it on drop, so
/// quiescing callers never wait for a task that will not run.
pub(crate) struct PendingEntry(Option<Arc<CompletionQueue>>);

impl PendingEntry {
    /// Delivers the task's completion.
    pub(crate) fn complete(mut self, c: TaskCompletion) {
        if let Some(queue) = self.0.take() {
            queue.finish(Some(c));
        }
    }
}

impl Drop for PendingEntry {
    fn drop(&mut self) {
        if let Some(queue) = self.0.take() {
            queue.finish(None);
        }
    }
}

#[derive(Default)]
struct QueueState {
    done: Vec<TaskCompletion>,
    /// Tasks submitted but not yet completed (or abandoned).
    pending: usize,
}

/// The per-engine completion channel: workers push [`TaskCompletion`]s,
/// the owning engine drains them on its own thread (where the live table
/// and registry are reachable for staleness validation).
///
/// `has_ready` is a single relaxed atomic load, cheap enough for the
/// dispatch hot path to poll every intercepted call.
#[derive(Default)]
pub struct CompletionQueue {
    state: Mutex<QueueState>,
    idle: Condvar,
    ready: AtomicUsize,
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    /// Registers one submitted task, settled when its [`PendingEntry`]
    /// completes or drops.
    pub(crate) fn register(self: &Arc<Self>) -> PendingEntry {
        lock(&self.state).pending += 1;
        PendingEntry(Some(self.clone()))
    }

    /// Settles one registered task — delivering its completion if it ran —
    /// and wakes quiescing waiters.
    fn finish(&self, c: Option<TaskCompletion>) {
        let mut st = lock(&self.state);
        if let Some(c) = c {
            st.done.push(c);
            self.ready.fetch_add(1, Ordering::Release);
        }
        st.pending = st.pending.saturating_sub(1);
        drop(st);
        self.idle.notify_all();
    }

    /// True when completions are waiting to be drained (one atomic load).
    pub fn has_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire) > 0
    }

    /// Takes every delivered completion, in delivery order.
    pub fn drain(&self) -> Vec<TaskCompletion> {
        let mut st = lock(&self.state);
        self.ready.store(0, Ordering::Release);
        std::mem::take(&mut st.done)
    }

    /// Blocks until every registered task has completed (or been
    /// abandoned). Completions delivered meanwhile stay queued for the
    /// caller's next [`drain`](CompletionQueue::drain).
    pub fn wait_idle(&self) {
        let mut st = lock(&self.state);
        while st.pending > 0 {
            st = self.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Tasks submitted but not yet completed.
    pub fn pending(&self) -> usize {
        lock(&self.state).pending
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hb_types::parse_method_type;
    use std::collections::HashMap;

    /// A task checking an empty `() -> nil` body for `key` in an empty
    /// world.
    pub(crate) fn empty_task(key: MethodKey) -> CheckTask {
        let world = WorldSnapshot::new(
            HashMap::new(),
            HashMap::new(),
            HashMap::new(),
            HashMap::new(),
            HashMap::new(),
            (0, 0, 0),
        );
        CheckTask {
            cache_key: key,
            ann_key: key,
            ann_span: Span::dummy(),
            sig: MethodSig::single(parse_method_type("() -> nil").unwrap()),
            entry_id: 1,
            sig_version: 1,
            body_fp: None,
            own_sig_fp: 0,
            cfg: Arc::new(hb_il::lower_block_body(&[], &[], Span::dummy())),
            captured: None,
            world: Arc::new(world),
            policy: CheckPolicy::Deferred,
            trigger: None,
            submitted_at: None,
        }
    }

    #[test]
    fn task_and_completion_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CheckTask>();
        assert_send::<TaskCompletion>();
        assert_send::<Arc<CompletionQueue>>();
    }

    #[test]
    fn queue_tracks_pending_and_ready() {
        let q = Arc::new(CompletionQueue::new());
        let abandoned = q.register();
        let completed = q.register();
        assert_eq!(q.pending(), 2);
        assert!(!q.has_ready());
        drop(abandoned);
        assert_eq!(q.pending(), 1);
        let c = TaskCompletion {
            task: empty_task(MethodKey::instance("A", "m")),
            verdict: TaskVerdict::Panicked("x".into()),
            duration_ns: 1,
            queue_ns: 0,
        };
        completed.complete(c);
        assert!(q.has_ready());
        q.wait_idle(); // returns immediately: nothing pending
        assert_eq!(q.drain().len(), 1);
        assert!(!q.has_ready());
    }
}
