//! The work-stealing worker pool.
//!
//! Each worker owns a deque; submissions distribute round-robin across
//! the workers' deques (plus a shared injector for overflow while a deque
//! is contended), and an idle worker pops its own deque from the back,
//! then steals from the injector and from other workers' fronts. With
//! heterogeneous check costs (a six-app lint mixes sub-microsecond
//! accessors with multi-millisecond controller bodies) stealing is what
//! keeps all cores busy until the last task, which is exactly the
//! `check_all_parallel` wall-clock bound.
//!
//! One kind of work runs on the pool: a job, which runs once on a worker.
//! A deferred check ([`Scheduler::submit`]), each item of an ordered
//! fan-out ([`Scheduler::map`], [`Scheduler::run_checks`]) and an opaque
//! maintenance closure ([`Scheduler::submit_job`]) are all jobs.
//!
//! Panic containment: every job body runs under the pool's one
//! containment, `catch_unwind`. A panicking job poisons only itself — the
//! worker thread, the deques and every other queued job survive — and is
//! counted once in [`Scheduler::tasks_panicked`]. A check's panic
//! surfaces as a [`TaskVerdict::Panicked`] completion for the engine to
//! report as a structured `HB0011` diagnostic (the scheduler-side
//! analogue of the shared tier's poisoned-shard recovery); a mapped
//! item's as an `Err` in its own result slot.

use crate::lock;
use crate::task::{CheckTask, CompletionQueue, TaskCompletion, TaskVerdict};
use hb_rdl::MethodKey;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A unit of pool work: runs once on a worker, which lends it the pool's
/// containment and test instrumentation. A job dropped unrun (the pool
/// shut down with it still queued) fails safe through what it owns: a
/// check's `PendingEntry` abandons itself, a fan-out's result sender
/// closes.
type Job = Box<dyn FnOnce(&PoolShared) + Send>;

struct PoolShared {
    /// Per-worker deques: owner pops the back, thieves steal the front.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Overflow queue for submissions that found their deque contended.
    injector: Mutex<VecDeque<Job>>,
    /// Parking gate for idle workers.
    gate: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// Job bodies that panicked (and were contained).
    panicked: AtomicU64,
    /// Test instrumentation: keys whose tasks deliberately panic on the
    /// worker (exercises the containment path end to end).
    panic_keys: Mutex<HashSet<MethodKey>>,
}

impl PoolShared {
    /// Pops work for worker `me`: own back, injector front, then steal
    /// other fronts.
    fn grab(&self, me: usize) -> Option<Job> {
        let n = self.queues.len();
        // One lock at a time: each guard drops before the next lock.
        let own = lock(&self.queues[me]).pop_back();
        own.or_else(|| lock(&self.injector).pop_front())
            .or_else(|| (1..n).find_map(|i| lock(&self.queues[(me + i) % n]).pop_front()))
    }

    /// The pool's one panic containment: runs `f`, turning a panic into
    /// `Err` with the payload message, counted once in `tasks_panicked`.
    fn contain<R>(&self, f: impl FnOnce() -> R) -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            self.panicked.fetch_add(1, Ordering::Relaxed);
            panic_message(payload)
        })
    }

    /// Runs one check task on this worker, timed, with the `panic_on`
    /// instrumentation honoured and a panic contained to a
    /// [`TaskVerdict::Panicked`] verdict.
    fn run_check(&self, task: CheckTask) -> TaskCompletion {
        let t0 = Instant::now();
        let queue_ns = task
            .submitted_at
            .map_or(0, |s| t0.saturating_duration_since(s).as_nanos() as u64);
        let deliberate = lock(&self.panic_keys).contains(&task.cache_key);
        // The task's data is fully owned, so observing it after a caught
        // unwind is safe; the containment is the boundary.
        let verdict = self
            .contain(|| {
                if deliberate {
                    panic!(
                        "deliberate test panic while checking {}",
                        task.cache_key.display()
                    );
                }
                task.run()
            })
            .unwrap_or_else(TaskVerdict::Panicked);
        TaskCompletion {
            task,
            verdict,
            duration_ns: t0.elapsed().as_nanos() as u64,
            queue_ns,
        }
    }

    fn worker_loop(&self, me: usize) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if !self.paused.load(Ordering::Acquire) {
                if let Some(job) = self.grab(me) {
                    job(self);
                    continue;
                }
            }
            // Park. The timeout is a belt-and-braces fallback against a
            // lost wakeup race; submissions notify under the gate, so the
            // common-case latency is the notify itself.
            let guard = lock(&self.gate);
            match self.wake.wait_timeout(guard, Duration::from_millis(20)) {
                Ok((g, _)) => drop(g),
                Err(poisoned) => drop(poisoned.into_inner()),
            }
        }
    }
}

/// The concurrent check scheduler: a fixed pool of worker threads
/// executing jobs off the interpreter thread. Share one pool across
/// tenants (it is `Send + Sync` behind `Arc`); each deferred check carries
/// its submitting engine's completion queue, so results route themselves.
pub struct Scheduler {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns a pool of `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Scheduler {
        let jobs = jobs.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            panicked: AtomicU64::new(0),
            panic_keys: Mutex::new(HashSet::new()),
        });
        let workers = (0..jobs)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("hb-sched-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.queues.len()
    }

    /// Submits a deferred check, returning whether the pool accepted it.
    /// The job runs the task and completes its entry in `completions`,
    /// registered before the job becomes visible to workers, so a quiesce
    /// that races the submission still waits for it. A shut-down pool
    /// drops the job, which abandons the entry; the submitter must not
    /// leave per-key in-flight state latched on a task that will never
    /// run.
    pub fn submit(&self, task: CheckTask, completions: Arc<CompletionQueue>) -> bool {
        let entry = completions.register();
        self.push(Box::new(move |pool| entry.complete(pool.run_check(task))))
    }

    /// Submits an opaque job closure (the fleet daemon's periodic
    /// maintenance). Returns `false` — dropping the closure unrun — if the
    /// pool is shut down; callers must make dropped jobs fail safe
    /// (channel senders do).
    pub fn submit_job(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.push(Box::new(move |pool| {
            let _ = pool.contain(job);
        }))
    }

    /// Runs `f` over `items` on the pool and returns the results in input
    /// order, whichever worker ran each item and whenever it finished. A
    /// panic stays confined to its own item: that slot holds `Err` with
    /// the payload message, counted once in
    /// [`tasks_panicked`](Scheduler::tasks_panicked), and every other item
    /// returns normally. Blocks until every item has run (a paused pool
    /// holds it until [`resume`](Scheduler::resume)).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, String>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        self.ordered(items, move |pool, item| pool.contain(|| f(item)))
    }

    /// Runs check tasks on the pool (the parallel `check_all` fan-out) and
    /// returns their completions in input order. Each task runs exactly as
    /// a [`submit`](Scheduler::submit)ted one does: timed, with
    /// [`panic_on`](Scheduler::panic_on) honoured and a panic returned as a
    /// [`TaskVerdict::Panicked`] completion.
    pub fn run_checks(&self, tasks: Vec<CheckTask>) -> Vec<TaskCompletion> {
        self.ordered(tasks, PoolShared::run_check)
    }

    /// The ordered fan-out behind [`map`](Scheduler::map) and
    /// [`run_checks`](Scheduler::run_checks): one job per item, each
    /// result returned to the slot of its input index.
    fn ordered<T, R>(
        &self,
        items: Vec<T>,
        f: impl Fn(&PoolShared, T) -> R + Send + Sync + 'static,
    ) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        for (i, item) in items.into_iter().enumerate() {
            slots.push(None);
            let (f, tx) = (f.clone(), tx.clone());
            self.push(Box::new(move |pool| {
                let _ = tx.send((i, f(pool, item)));
            }));
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("a pool in use runs every queued job"))
            .collect()
    }

    /// Queues one job on the next deque round-robin (the injector when
    /// that deque is contended) and wakes the workers. A shut-down pool
    /// drops the job unrun and returns `false`.
    fn push(&self, job: Job) -> bool {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let n = self.shared.queues.len();
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % n;
        match self.shared.queues[slot].try_lock() {
            Ok(mut q) => q.push_back(job),
            Err(_) => lock(&self.shared.injector).push_back(job),
        }
        let _gate = lock(&self.shared.gate);
        self.shared.wake.notify_all();
        true
    }

    /// Pauses execution: queued jobs stay queued until
    /// [`resume`](Scheduler::resume). Test hook for reload-during-inflight
    /// scenarios; jobs already running finish normally.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes a paused pool.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
        let _gate = lock(&self.shared.gate);
        self.shared.wake.notify_all();
    }

    /// Job bodies whose panic was contained: checks, mapped items and
    /// opaque jobs alike, each counted once.
    pub fn tasks_panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Test instrumentation: make every task for `key` panic on the
    /// worker, exercising the containment path.
    pub fn panic_on(&self, key: MethodKey) {
        lock(&self.shared.panic_keys).insert(key);
    }

    /// Clears [`panic_on`](Scheduler::panic_on) instrumentation.
    pub fn clear_panic_keys(&self) {
        lock(&self.shared.panic_keys).clear();
    }
}

impl Drop for Scheduler {
    /// Stops and joins the workers. Jobs still queued are dropped unrun
    /// with the pool's shared state, each failing safe through what it
    /// owns.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _gate = lock(&self.shared.gate);
            self.shared.wake.notify_all();
        }
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::tests::empty_task;

    #[test]
    fn scheduler_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scheduler>();
        assert_send_sync::<Arc<Scheduler>>();
    }

    #[test]
    fn drop_joins_workers() {
        let s = Scheduler::new(3);
        assert_eq!(s.worker_count(), 3);
        drop(s); // must not hang
    }

    #[test]
    fn jobs_run_and_results_arrive() {
        let s = Scheduler::new(2);
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        for i in 0..16 {
            let tx = tx.clone();
            assert!(s.submit_job(move || {
                let _ = tx.send(i);
            }));
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_is_contained_and_channel_closes() {
        let s = Scheduler::new(2);
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        {
            let tx = tx.clone();
            assert!(s.submit_job(move || {
                let _ = &tx; // held across the panic, dropped by unwind
                panic!("job panic");
            }));
        }
        let tx2 = tx.clone();
        assert!(s.submit_job(move || {
            let _ = tx2.send(7);
        }));
        drop(tx);
        // The panicking job's sender drops during unwind, so the channel
        // still closes and the surviving job's result arrives.
        let got: Vec<usize> = rx.iter().collect();
        assert_eq!(got, vec![7]);
        // The unwind drops the sender before the worker bumps the
        // counter, so give the increment a moment to land.
        for _ in 0..1000 {
            if s.tasks_panicked() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(s.tasks_panicked(), 1);
    }

    #[test]
    fn map_keeps_input_order_under_stealing_and_confines_a_panic() {
        let s = Scheduler::new(3);
        // Uneven lengths: early items run longest, so workers finish out
        // of order and steal each other's queued items.
        let out = s.map((0..24u64).collect(), |i| {
            std::thread::sleep(Duration::from_millis((24 - i) % 7));
            if i == 9 {
                panic!("item {i} failed");
            }
            (i * 10, std::thread::current().name().map(str::to_string))
        });
        assert_eq!(out.len(), 24);
        let mut workers = HashSet::new();
        for (i, r) in out.into_iter().enumerate() {
            match r {
                Err(msg) => {
                    assert_eq!(i, 9);
                    assert_eq!(msg, "item 9 failed");
                }
                Ok((v, worker)) => {
                    assert_eq!(v, i as u64 * 10, "slot {i} holds its own result");
                    workers.insert(worker);
                }
            }
        }
        assert!(workers.len() > 1, "the items ran on several workers");
        assert_eq!(s.tasks_panicked(), 1);
    }

    #[test]
    fn run_checks_honours_panic_on_and_counts_the_panic_once() {
        let s = Scheduler::new(2);
        let bad = MethodKey::instance("A", "bad");
        s.panic_on(bad);
        let out = s.run_checks(vec![
            empty_task(MethodKey::instance("A", "ok")),
            empty_task(bad),
        ]);
        assert!(matches!(out[0].verdict, TaskVerdict::Pass(_)));
        assert_eq!(out[1].task.cache_key, bad);
        assert!(
            matches!(&out[1].verdict, TaskVerdict::Panicked(m) if m.contains("A#bad")),
            "the payload message reaches the completion"
        );
        assert_eq!(s.tasks_panicked(), 1);
    }

    #[test]
    fn a_check_job_completes_its_entry_and_one_dropped_unrun_abandons_it() {
        let q = Arc::new(CompletionQueue::new());
        let s = Scheduler::new(1);
        assert!(s.submit(empty_task(MethodKey::instance("A", "m")), q.clone()));
        q.wait_idle();
        let done = q.drain();
        assert_eq!(done.len(), 1);
        let TaskVerdict::Pass(d) = &done[0].verdict else {
            panic!("an empty body checks against () -> nil");
        };
        assert_eq!((d.entry_id, d.sig_version), (1, 1));
        assert_eq!(d.epochs, done[0].task.world.epochs);
        // A pool dropped with the job still queued abandons its entry, so
        // a quiescing engine does not wait for it.
        s.pause();
        assert!(s.submit(empty_task(MethodKey::instance("A", "m")), q.clone()));
        assert_eq!(q.pending(), 1);
        drop(s);
        assert_eq!(q.pending(), 0);
        assert!(q.drain().is_empty());
    }
}
