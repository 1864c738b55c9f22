//! The engine side of the concurrent check scheduler: task extraction,
//! deferred admission, harvest and the parallel `check_all`. Every worker
//! completion, deferred or parallel, lands through `land_completion` and
//! from there through the same funnel as local checks (see `land`).

use super::land::anchor_blame;
use super::{body_fingerprint, captured_env, cfg_store::entry_cfg, Engine, EngineState};
use crate::derivation::{epochs_of, Provenance};
use crate::sched::{capture_world, pool_for};
use crate::stats::CheckVerdict;
use hb_check::CheckPolicy;
use hb_interp::{Interp, MethodEntry};
use hb_rdl::{MethodKey, TableEntry};
use hb_sched::{CheckTask, Scheduler, TaskCompletion, TaskVerdict, WorldSnapshot};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, Span, TypeDiagnostic};
use std::sync::Arc;
use std::time::Instant;

impl Engine {
    /// Attaches a check scheduler. Pools are process-wide resources: many
    /// tenants may share one (each engine's results route back through
    /// its own completion queue).
    pub fn set_scheduler(&self, sched: Arc<Scheduler>) {
        *self.sched.borrow_mut() = Some(sched);
        self.sched_active.set(true);
    }

    /// The attached scheduler, if any.
    pub fn scheduler(&self) -> Option<Arc<Scheduler>> {
        self.sched.borrow().clone()
    }

    /// The attached scheduler, creating a default-sized pool on first use
    /// (a cold call under [`CheckPolicy::Deferred`] must always have
    /// somewhere to enqueue).
    fn ensure_scheduler(&self) -> Arc<Scheduler> {
        if let Some(s) = self.sched.borrow().as_ref() {
            return s.clone();
        }
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(1, 4);
        let s = Arc::new(Scheduler::new(jobs));
        self.set_scheduler(s.clone());
        s
    }

    /// The world snapshot for task extraction at the current epochs,
    /// memoised so extraction bursts against a quiescent table capture
    /// once.
    fn world_for(&self, st: &mut EngineState, interp: &Interp) -> Arc<WorldSnapshot> {
        let epochs = epochs_of(interp, &self.rdl);
        if let Some((at, world)) = &st.world_memo {
            if *at == epochs {
                return world.clone();
            }
        }
        let world = Arc::new(capture_world(interp, &self.rdl));
        st.world_memo = Some((epochs, world.clone()));
        world
    }

    /// Captures an owned check task against the current world — the one
    /// extraction path for deferred admissions, their stale-result
    /// retries, and parallel `check_all`. A task with a `trigger` records
    /// its blame at harvest; one without leaves reporting to the serial
    /// sweep. `None` when the body cannot be lowered.
    #[allow(clippy::too_many_arguments)]
    fn task_for(
        &self,
        interp: &Interp,
        key: &MethodKey,
        ann_key: &MethodKey,
        entry: &TableEntry,
        mentry: &MethodEntry,
        policy: CheckPolicy,
        trigger: Option<Span>,
    ) -> Option<CheckTask> {
        let cfg = entry_cfg(mentry)?;
        let captured = captured_env(interp, mentry);
        let body_fp = body_fingerprint(interp, mentry, captured.as_ref());
        let mut st = self.state.borrow_mut();
        let world = self.world_for(&mut st, interp);
        let own_sig_fp = st.sig_fp(*ann_key, entry);
        st.stats.sched_tasks_enqueued += 1;
        let submitted_at = st.obs.as_ref().map(|obs| {
            obs.record(hb_obs::EventKind::TaskEnqueue, *key);
            Instant::now()
        });
        Some(CheckTask {
            cache_key: *key,
            ann_key: *ann_key,
            ann_span: entry.span,
            sig: entry.sig.clone(),
            entry_id: mentry.id,
            sig_version: entry.version,
            body_fp,
            own_sig_fp,
            cfg,
            captured,
            world,
            policy,
            trigger,
            submitted_at,
        })
    }

    /// Deferred admission of a cold call under [`CheckPolicy::Deferred`]:
    /// the engine extracts an owned [`CheckTask`] (body CFG, signature,
    /// world snapshot with its epoch fingerprints), enqueues it, and
    /// admits the call under full dynamic checks — Shadow semantics, so
    /// soundness is unchanged: the body is only marked checked once the
    /// worker's derivation lands at harvest and still holds.
    ///
    /// Returns false when backpressure sheds the call instead: at the
    /// high-water cap, admitting another *new* key would grow the queue
    /// without bound (e.g. while the pool is paused or saturated), so the
    /// caller checks synchronously. Already latched keys still admit,
    /// since they add no queue depth.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn admit_deferred(
        &self,
        interp: &Interp,
        key: &MethodKey,
        ann_key: &MethodKey,
        entry: &TableEntry,
        mentry: &MethodEntry,
        call: Span,
        t_first: Instant,
    ) -> bool {
        let mut st = self.state.borrow_mut();
        let latched = st.in_flight.contains(key);
        if !latched && st.in_flight.len() >= self.deferred_cap.get() {
            st.stats.deferred_shed += 1;
            if let Some(obs) = &st.obs {
                obs.record(hb_obs::EventKind::TaskShed, *key);
            }
            return false;
        }
        st.stats.deferred_admissions += 1;
        if !latched {
            if let Some(obs) = &st.obs {
                obs.note_admitted(*key);
                obs.first_request
                    .record(t_first.elapsed().as_nanos() as u64);
            }
            drop(st);
            let policy = CheckPolicy::Deferred;
            self.enqueue_deferred(interp, key, ann_key, entry, mentry, policy, Some(call));
        }
        true
    }

    /// Extracts and enqueues a deferred check, latching its key in flight
    /// until the completion is harvested. No-op when a task for the key is
    /// already in flight.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_deferred(
        &self,
        interp: &Interp,
        key: &MethodKey,
        ann_key: &MethodKey,
        entry: &TableEntry,
        mentry: &MethodEntry,
        policy: CheckPolicy,
        trigger: Option<Span>,
    ) {
        if self.state.borrow().in_flight.contains(key) {
            return;
        }
        let Some(task) = self.task_for(interp, key, ann_key, entry, mentry, policy, trigger) else {
            return;
        };
        self.state.borrow_mut().in_flight.insert(*key);
        if !self
            .ensure_scheduler()
            .submit(task, self.completions.clone())
        {
            // The pool is shutting down: the task will never run, so the
            // key must not stay latched in flight (the next call
            // re-attempts the admission).
            self.state.borrow_mut().in_flight.remove(key);
        }
    }

    /// Blocks until every task this engine enqueued has completed, then
    /// harvests the completions — the barrier after which asynchronously
    /// produced blame is guaranteed visible in [`Engine::diagnostics`].
    /// Loops because landing a stale deferred completion can re-enqueue a
    /// fresh task (see `land_completion`); with the table quiescent the
    /// retry lands on the next pass. (A paused scheduler must be resumed
    /// first or this will not return.)
    pub fn sched_quiesce(&self, interp: &Interp) {
        loop {
            self.completions.wait_idle();
            self.sched_harvest(interp);
            if self.completions.pending() == 0 && !self.completions.has_ready() {
                return;
            }
        }
    }

    /// The dispatch hook's completion poll. Outlined and cold for the
    /// same reason as `Engine::resolve_policy`: the scheduler-less
    /// default pays one `Cell` load, and keeping the queue probe (and the
    /// harvest machinery behind it) out of `before_call`'s body keeps the
    /// steady-state cache-hit path at its pre-scheduler layout.
    #[cold]
    #[inline(never)]
    pub(super) fn poll_completions(&self, interp: &Interp) {
        if self.completions.has_ready() {
            self.sched_harvest(interp);
        }
    }

    /// Drains and lands every delivered completion: valid passes are
    /// adopted, valid blames recorded, stale results discarded (see
    /// `land_completion`). Called opportunistically from the dispatch
    /// hook and from [`Engine::sched_quiesce`].
    pub fn sched_harvest(&self, interp: &Interp) {
        if !self.completions.has_ready() {
            return;
        }
        for c in self.completions.drain() {
            self.land_completion(interp, c);
        }
    }

    /// Counts a discarded stale completion.
    fn note_stale(st: &mut EngineState, key: MethodKey) {
        st.stats.sched_tasks_stale += 1;
        if let Some(obs) = &st.obs {
            obs.record(hb_obs::EventKind::TaskStale, key);
        }
    }

    /// Lands one worker completion on the interpreter thread, where the
    /// live table and registry are reachable for staleness validation:
    ///
    /// * the method-table entry, the annotation resolution and its
    ///   version must still match what the task captured, and a passing
    ///   derivation must pass [`Engine::adoptable`] like any foreign
    ///   derivation — otherwise the result is **stale**: counted in
    ///   `sched_tasks_stale` and discarded, never adopted. A stale
    ///   *deferred* result whose method identity is still current (the
    ///   world moved around it while it was in flight) re-enqueues a
    ///   fresh task against the current world, so its outcome — pass or
    ///   blame — is re-established rather than silently lost; a result
    ///   whose method was redefined outright is dropped (the next call
    ///   re-defers naturally);
    /// * a valid pass lands the worker's derivation exactly like a
    ///   synchronous one;
    /// * a valid blame records its diagnostic (deferred admissions only —
    ///   parallel linting leaves reporting to the deterministic serial
    ///   sweep);
    /// * a contained worker panic records an `HB0011` diagnostic.
    fn land_completion(&self, interp: &Interp, c: TaskCompletion) {
        let TaskCompletion {
            task,
            verdict,
            duration_ns,
            queue_ns,
        } = c;
        let key = task.cache_key;
        {
            let mut st = self.state.borrow_mut();
            st.in_flight.remove(&key);
            st.stats.sched_tasks_completed += 1;
            if let Some(obs) = &st.obs {
                if queue_ns > 0 {
                    obs.sched_queue.record(queue_ns);
                }
            }
        }
        // Identity validation, common to every verdict: the body and the
        // signature the worker checked must still be the current ones.
        let current = (|| {
            let cid = interp.registry.lookup(key.class.as_str())?;
            let (_, mentry) =
                interp
                    .registry
                    .find_method_at(cid, key.method.as_str(), key.class_level)?;
            if mentry.id != task.entry_id {
                return None;
            }
            let (ann_key, entry) = self.rdl.lookup_along(
                interp.registry.ancestor_syms(cid).map(|(_, sym)| sym),
                key.class_level,
                key.method,
            )?;
            if ann_key != task.ann_key || entry.version != task.sig_version {
                return None;
            }
            Some((mentry, entry))
        })();
        let Some((mentry, entry)) = current else {
            let mut st = self.state.borrow_mut();
            Self::note_stale(&mut st, key);
            if let Some(obs) = &st.obs {
                // The method was redefined outright; the admission is
                // over (the next call re-defers naturally).
                obs.drop_admitted(key);
            }
            return;
        };
        let deferred = task.trigger.is_some();
        let how = Provenance::Harvested { deferred };
        let requeue = || {
            self.enqueue_deferred(
                interp,
                &key,
                &task.ann_key,
                &entry,
                &mentry,
                task.policy,
                task.trigger,
            )
        };
        let diag = match verdict {
            TaskVerdict::Pass(d) => {
                let mut st = self.state.borrow_mut();
                if self.adoptable(&mut st, interp, &d, &task.ann_key, &entry) {
                    self.land(&mut st, key, &task.ann_key, d, how, duration_ns);
                    return;
                }
                // The admission stays stamped: a requeue is the same
                // caller still waiting.
                Self::note_stale(&mut st, key);
                drop(st);
                if deferred {
                    requeue();
                }
                return;
            }
            TaskVerdict::Blame(mut diag) => {
                if !deferred {
                    // Parallel linting: the deterministic serial sweep
                    // re-derives and reports this failure (failures are
                    // never cached, so nothing is lost).
                    return;
                }
                if task.world.epochs != epochs_of(interp, &self.rdl) {
                    // The world moved while the blame was in flight: the
                    // judgement may no longer hold (e.g. the blamed callee
                    // annotation was fixed meanwhile). A failed check
                    // leaves no witnesses to replay, so the blame is
                    // discarded as stale and the method re-checks against
                    // the *current* world — a still-real error re-lands at
                    // the next harvest instead of an obsolete one landing
                    // now.
                    Self::note_stale(&mut self.state.borrow_mut(), key);
                    requeue();
                    return;
                }
                anchor_blame(&mut diag, task.trigger, entry.span);
                diag.labels.push(CheckPolicy::deferred_note());
                diag
            }
            TaskVerdict::Panicked(msg) => {
                let message = format!(
                    "check task for {} panicked on a scheduler worker: {}",
                    key.display(),
                    msg
                );
                let mut diag = TypeDiagnostic::error(
                    DiagCode::CheckerPanic,
                    message,
                    task.trigger.unwrap_or(entry.span),
                    BlameTarget::Annotation(task.ann_key),
                )
                .with_method(key)
                .with_label(DiagLabel::new(
                    LabelRole::Note,
                    "the panic was contained to this task; the worker pool and every other queued check survived",
                    Span::dummy(),
                ));
                anchor_blame(&mut diag, task.trigger, entry.span);
                diag
            }
        };
        let verdict = CheckVerdict::Blame(diag.code);
        self.record_check(&mut self.state.borrow_mut(), key, verdict, duration_ns, how);
        self.rdl.record_diagnostic(diag);
    }

    /// [`Engine::check_all`] fanned across the concurrent scheduler:
    /// every annotated, checkable method is captured as a [`CheckTask`]
    /// against one shared world snapshot and checked on `jobs` workers;
    /// the completions land in submission order through the same path as
    /// deferred ones, so passing derivations are validated and adopted
    /// (caching and publishing exactly as synchronous checks do). Then a
    /// serial sweep — now running against warm caches — re-derives only
    /// the failures, guaranteeing diagnostics byte-identical to the serial
    /// path in the same sorted order.
    ///
    /// Runs on the attached scheduler when it has at least `jobs` workers,
    /// otherwise on a temporary `jobs`-worker pool that is torn down
    /// before the sweep. `jobs <= 1` is exactly [`Engine::check_all`].
    pub fn check_all_parallel(&self, interp: &mut Interp, jobs: usize) -> Vec<TypeDiagnostic> {
        self.process_events(interp);
        // Land anything already in flight so deferred-admission results
        // do not interleave with the lint fan-out below.
        self.sched_harvest(interp);
        let Some(pool) = pool_for(self.scheduler(), jobs) else {
            return self.check_all(interp);
        };
        // A method already valid in the hot tier needs no task (the sweep
        // hits it), and an unlowerable body is left to the sweep.
        let tasks = self
            .eligible_methods(interp)
            .into_iter()
            .filter(|m| {
                let st = self.state.borrow();
                !(self.caching && st.holds(&m.key, m.info.entry.id, m.entry.version))
            })
            .filter_map(|m| {
                let (key, entry, body) = (&m.key, &m.entry, &m.info.entry);
                self.task_for(interp, key, key, entry, body, m.policy, None)
            })
            .collect();
        let completions = pool.run_checks(tasks);
        drop(pool);
        for c in completions {
            self.land_completion(interp, c);
        }
        // Deferred admissions still in flight land before the sweep too.
        self.completions.wait_idle();
        self.sched_harvest(interp);
        // The deterministic sweep: adopted derivations are hot-tier hits;
        // only failures (never cached) re-derive, serially, producing the
        // exact diagnostics the serial path produces, already sorted.
        self.check_all(interp)
    }
}
