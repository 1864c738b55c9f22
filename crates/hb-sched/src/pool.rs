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
//! Panic containment: every task executes under `catch_unwind`. A
//! panicking check poisons only its own task — the worker thread, the
//! deques and every other queued task survive — and the panic surfaces as
//! a [`TaskVerdict::Panicked`] completion for the engine to report as a
//! structured `HB0011` diagnostic (the scheduler-side analogue of the
//! shared tier's poisoned-shard recovery).

use crate::task::{CheckTask, TaskVerdict};
use hb_rdl::MethodKey;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A generic unit of pool work: an engine check task or an opaque job
/// closure (the analysis fan-out path). Jobs reuse the same deques,
/// stealing and panic containment as checks.
enum PoolTask {
    Check(CheckTask),
    Job(Job),
}

/// An opaque job: runs once on a worker. Result delivery is the
/// closure's business (send over a channel, fill an `Arc<Mutex<..>>`);
/// a job dropped unrun (pool shutdown) must fail safe — channel senders
/// do, since dropping them closes the channel.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// Per-worker deques: owner pops the back, thieves steal the front.
    queues: Vec<Mutex<VecDeque<PoolTask>>>,
    /// Overflow queue for submissions that found their deque contended.
    injector: Mutex<VecDeque<PoolTask>>,
    /// Parking gate for idle workers.
    gate: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// Tasks whose execution panicked (and was contained).
    panicked: AtomicU64,
    /// Test instrumentation: keys whose tasks deliberately panic on the
    /// worker (exercises the containment path end to end).
    panic_keys: Mutex<HashSet<MethodKey>>,
}

impl PoolShared {
    /// Pops work for worker `me`: own back, injector front, then steal
    /// other fronts.
    fn grab(&self, me: usize) -> Option<PoolTask> {
        if let Some(t) = self.queues[me]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_back()
        {
            return Some(t);
        }
        if let Some(t) = self
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some(t);
        }
        for i in 1..self.queues.len() {
            let victim = (me + i) % self.queues.len();
            if let Some(t) = self.queues[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
            {
                return Some(t);
            }
        }
        None
    }

    fn execute(&self, task: PoolTask) {
        match task {
            PoolTask::Check(t) => self.execute_check(t),
            PoolTask::Job(j) => self.execute_job(j),
        }
    }

    /// Runs one opaque job under the same containment as a check: a
    /// panicking job is caught and counted, the worker survives.
    fn execute_job(&self, job: Job) {
        let result = catch_unwind(AssertUnwindSafe(job));
        if result.is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn execute_check(&self, task: CheckTask) {
        let t0 = Instant::now();
        let queue_ns = task
            .submitted_at
            .map(|s| t0.saturating_duration_since(s).as_nanos() as u64)
            .unwrap_or(0);
        let deliberate = self
            .panic_keys
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(&task.cache_key);
        // The task's data is fully owned, so observing it after a caught
        // unwind is safe; the catch is the containment boundary.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if deliberate {
                panic!(
                    "deliberate test panic while checking {}",
                    task.cache_key.display()
                );
            }
            task.run()
        }));
        let verdict = match result {
            Ok(v) => v,
            Err(payload) => {
                self.panicked.fetch_add(1, Ordering::Relaxed);
                TaskVerdict::Panicked(panic_message(payload))
            }
        };
        let duration_ns = t0.elapsed().as_nanos() as u64;
        let completions = task.completions.clone();
        completions.complete(task.into_completion(verdict, duration_ns, queue_ns));
    }

    fn worker_loop(&self, me: usize) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if !self.paused.load(Ordering::Acquire) {
                if let Some(task) = self.grab(me) {
                    self.execute(task);
                    continue;
                }
            }
            // Park. The timeout is a belt-and-braces fallback against a
            // lost wakeup race; submissions notify under the gate, so the
            // common-case latency is the notify itself.
            let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            match self.wake.wait_timeout(guard, Duration::from_millis(20)) {
                Ok((g, _)) => drop(g),
                Err(poisoned) => drop(poisoned.into_inner()),
            }
        }
    }
}

/// The concurrent check scheduler: a fixed pool of worker threads
/// executing [`CheckTask`]s off the interpreter thread. Share one pool
/// across tenants (it is `Send + Sync` behind `Arc`); each task carries
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

    /// Submits a task, returning whether the pool accepted it. The task's
    /// completion queue is registered before the task becomes visible to
    /// workers, so a quiesce that races the submission still waits for
    /// it. A shut-down pool rejects the task (returns `false`) after
    /// un-registering it — the submitter must not leave per-key in-flight
    /// state latched on a task that will never run.
    pub fn submit(&self, task: CheckTask) -> bool {
        task.completions.register();
        if self.shared.shutdown.load(Ordering::Acquire) {
            // Shut-down pool: the task will never run.
            task.completions.abandon();
            return false;
        }
        let n = self.shared.queues.len();
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % n;
        self.enqueue(slot, PoolTask::Check(task));
        true
    }

    /// Submits an opaque job closure (the analysis fan-out path). Returns
    /// `false` — dropping the closure unrun — if the pool is shut down;
    /// callers must make dropped jobs fail safe (channel senders do).
    pub fn submit_job(&self, job: impl FnOnce() + Send + 'static) -> bool {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let n = self.shared.queues.len();
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % n;
        self.enqueue(slot, PoolTask::Job(Box::new(job)));
        true
    }

    fn enqueue(&self, slot: usize, task: PoolTask) {
        match self.shared.queues[slot].try_lock() {
            Ok(mut q) => q.push_back(task),
            Err(_) => self
                .shared
                .injector
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(task),
        }
        let _gate = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.wake.notify_all();
    }

    /// Pauses execution: queued tasks stay queued until
    /// [`resume`](Scheduler::resume). Test hook for reload-during-inflight
    /// scenarios; tasks already running finish normally.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes a paused pool.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
        let _gate = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.wake.notify_all();
    }

    /// Tasks whose execution panicked and was contained.
    pub fn tasks_panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Test instrumentation: make every task for `key` panic on the
    /// worker, exercising the containment path.
    pub fn panic_on(&self, key: MethodKey) {
        self.shared
            .panic_keys
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key);
    }

    /// Clears [`panic_on`](Scheduler::panic_on) instrumentation.
    pub fn clear_panic_keys(&self) {
        self.shared
            .panic_keys
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _gate = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.wake.notify_all();
        }
        for h in self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = h.join();
        }
        // Abandon anything still queued so quiescing engines do not hang
        // on tasks that will never run. (Leftover jobs are dropped unrun,
        // which closes their result channels.)
        let leftovers: Vec<PoolTask> = {
            let mut all = Vec::new();
            for q in self.shared.queues.iter() {
                all.extend(q.lock().unwrap_or_else(|e| e.into_inner()).drain(..));
            }
            all.extend(
                self.shared
                    .injector
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .drain(..),
            );
            all
        };
        for t in leftovers {
            if let PoolTask::Check(t) = t {
                t.completions.abandon();
            }
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
}
