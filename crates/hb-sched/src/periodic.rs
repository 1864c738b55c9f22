//! Periodic task class: a timer that enqueues a recurring job onto the
//! pool at a fixed interval.
//!
//! The fleet daemon's maintenance work — background snapshot writeback,
//! LRU compaction — is recurring, cheap to trigger, and must share the
//! pool's panic containment rather than owning ad-hoc threads. A
//! [`PeriodicTask`] owns one lightweight timer thread that submits the
//! job via [`Scheduler::submit_job`] each tick; the job itself runs on a
//! pool worker under `catch_unwind`, so a panicking maintenance pass is
//! contained exactly like a panicking check.
//!
//! The timer holds the scheduler **weakly**: a dropped pool ends the
//! timer instead of the timer keeping the pool alive. Dropping the
//! [`PeriodicTask`] cancels the timer and joins the thread — no tick
//! fires after `drop` returns (a tick already *on* the pool may still be
//! executing; quiesce the pool if that matters).

use crate::lock;
use crate::pool::Scheduler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// A cancellable recurring submission onto a [`Scheduler`] (see the
/// module docs). Created by [`Scheduler::submit_periodic`].
pub struct PeriodicTask {
    stop: Arc<(Mutex<bool>, Condvar)>,
    ticks: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl PeriodicTask {
    fn spawn(
        sched: &Arc<Scheduler>,
        interval: Duration,
        job: impl Fn() + Send + Sync + 'static,
    ) -> PeriodicTask {
        let stop: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let ticks = Arc::new(AtomicU64::new(0));
        let weak: Weak<Scheduler> = Arc::downgrade(sched);
        let job: Arc<dyn Fn() + Send + Sync> = Arc::new(job);
        let handle = {
            let stop = stop.clone();
            let ticks = ticks.clone();
            std::thread::Builder::new()
                .name("hb-periodic".into())
                .spawn(move || loop {
                    {
                        let (flag, cv) = &*stop;
                        let mut stopped = lock(flag);
                        while !*stopped {
                            let (guard, timeout) = cv
                                .wait_timeout(stopped, interval)
                                .unwrap_or_else(|e| e.into_inner());
                            stopped = guard;
                            if timeout.timed_out() {
                                break;
                            }
                        }
                        if *stopped {
                            return;
                        }
                    }
                    // The pool is held weakly: a dropped scheduler (or one
                    // that refuses the job because it is shutting down)
                    // ends the timer.
                    let Some(sched) = weak.upgrade() else { return };
                    let job = job.clone();
                    if !sched.submit_job(move || job()) {
                        return;
                    }
                    ticks.fetch_add(1, Ordering::Relaxed);
                })
                .expect("spawning the periodic timer thread")
        };
        PeriodicTask {
            stop,
            ticks,
            handle: Some(handle),
        }
    }

    /// Ticks submitted so far (submissions, not completions — the job
    /// may still be queued or running on a worker).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

impl Drop for PeriodicTask {
    fn drop(&mut self) {
        {
            let (flag, cv) = &*self.stop;
            *lock(flag) = true;
            cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Scheduler {
    /// Submits `job` to run on the pool every `interval`, starting one
    /// interval from now. The returned [`PeriodicTask`] cancels (and
    /// joins its timer) on drop; the scheduler is held weakly, so the
    /// timer also ends when the pool is dropped or begins shutdown.
    pub fn submit_periodic(
        self: &Arc<Self>,
        interval: Duration,
        job: impl Fn() + Send + Sync + 'static,
    ) -> PeriodicTask {
        PeriodicTask::spawn(self, interval, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn periodic_job_fires_and_cancels() {
        let sched = Arc::new(Scheduler::new(2));
        let fired = Arc::new(AtomicUsize::new(0));
        let task = {
            let fired = fired.clone();
            sched.submit_periodic(Duration::from_millis(5), move || {
                fired.fetch_add(1, Ordering::SeqCst);
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(fired.load(Ordering::SeqCst) >= 3, "ticks keep firing");
        drop(task);
        let after = fired.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        // A tick in flight at cancel time may land, but the stream stops.
        assert!(
            fired.load(Ordering::SeqCst) <= after + 1,
            "no new ticks after drop"
        );
    }

    #[test]
    fn dropped_scheduler_ends_the_timer() {
        let sched = Arc::new(Scheduler::new(1));
        let task = sched.submit_periodic(Duration::from_millis(5), || {});
        let weak = Arc::downgrade(&sched);
        drop(sched);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while weak.upgrade().is_some() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            weak.upgrade().is_none(),
            "the timer's weak handle does not keep the pool alive"
        );
        drop(task);
    }
}
