//! The per-engine flight recorder: a bounded ring of typed events.
//!
//! The ring is single-threaded by design — it lives inside an engine
//! (which is itself `!Sync`) and records with `Cell`/`RefCell`, never a
//! lock or an atomic. Scheduler-side moments (enqueue, harvest, stale)
//! are recorded from the engine thread at the point it observes them,
//! which keeps the timeline causally ordered from the engine's
//! perspective.

use hb_intern::MethodKey;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// What happened. Every variant is stamped with the [`MethodKey`] it
/// concerns; process-scoped moments (fleet sync legs) use a synthetic
/// `<fleet>` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A synchronous `check_sig` began for this method.
    CheckStart,
    /// A check finished with a passing derivation.
    CheckPass,
    /// A check finished with a blame (type error).
    CheckFail,
    /// A dispatched call was satisfied by the per-engine derivation cache.
    CacheHit,
    /// A derivation was adopted from the process-wide shared tier.
    SharedAdopt,
    /// A patched fast prologue was deoptimized back to its guarded form.
    Deopt,
    /// A cached derivation was invalidated (Definition 1).
    Invalidate,
    /// A deferred check task was enqueued to the scheduler.
    TaskEnqueue,
    /// A completion was harvested and its derivation adopted.
    TaskHarvest,
    /// A completion was discarded as stale (world moved on).
    TaskStale,
    /// Deferred admission shed to a synchronous check (queue at cap).
    TaskShed,
    /// A fleet full fetch completed.
    FleetFetch,
    /// A fleet delta fetch completed.
    FleetDelta,
    /// A fleet publish round-trip completed.
    FleetPublish,
}

impl EventKind {
    /// Stable lowercase name used by the trace export.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CheckStart => "check_start",
            EventKind::CheckPass => "check_pass",
            EventKind::CheckFail => "check_fail",
            EventKind::CacheHit => "cache_hit",
            EventKind::SharedAdopt => "shared_adopt",
            EventKind::Deopt => "deopt",
            EventKind::Invalidate => "invalidate",
            EventKind::TaskEnqueue => "task_enqueue",
            EventKind::TaskHarvest => "task_harvest",
            EventKind::TaskStale => "task_stale",
            EventKind::TaskShed => "task_shed",
            EventKind::FleetFetch => "fleet_fetch",
            EventKind::FleetDelta => "fleet_delta",
            EventKind::FleetPublish => "fleet_publish",
        }
    }
}

/// One recorded moment. `t_ns` is nanoseconds since the ring's anchor
/// (monotonic, engine-local). `dur_ns` is nonzero for events that close
/// a span (check finish, fleet round-trips); the span then covers
/// `t_ns - dur_ns .. t_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub t_ns: u64,
    pub dur_ns: u64,
    pub kind: EventKind,
    pub key: MethodKey,
}

/// Bounded, overwrite-oldest event ring.
pub struct EventRing {
    anchor: Instant,
    cap: usize,
    buf: RefCell<Vec<Event>>,
    total: Cell<u64>,
}

/// Default ring capacity: enough for the full boot of the six subject
/// apps with headroom, small enough to be memory-irrelevant (~1.5 MiB).
pub const DEFAULT_RING_CAP: usize = 32 * 1024;

impl EventRing {
    pub fn new(cap: usize) -> EventRing {
        EventRing {
            anchor: Instant::now(),
            cap: cap.max(1),
            buf: RefCell::new(Vec::new()),
            total: Cell::new(0),
        }
    }

    /// Nanoseconds since this ring was created (the trace time base).
    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Records an instantaneous event.
    pub fn record(&self, kind: EventKind, key: MethodKey) {
        self.record_span(kind, key, 0);
    }

    /// Records an event closing a span of `dur_ns` nanoseconds.
    pub fn record_span(&self, kind: EventKind, key: MethodKey, dur_ns: u64) {
        let ev = Event {
            t_ns: self.now_ns(),
            dur_ns,
            kind,
            key,
        };
        let mut buf = self.buf.borrow_mut();
        let total = self.total.get();
        if buf.len() < self.cap {
            buf.push(ev);
        } else {
            let idx = (total % self.cap as u64) as usize;
            buf[idx] = ev;
        }
        self.total.set(total + 1);
    }

    /// Events currently retained (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total.get()
    }

    /// Retained events in chronological order (oldest first).
    pub fn snapshot(&self) -> Vec<Event> {
        let buf = self.buf.borrow();
        let total = self.total.get();
        if buf.len() < self.cap || total == 0 {
            return buf.clone();
        }
        let split = (total % self.cap as u64) as usize;
        let mut out = Vec::with_capacity(buf.len());
        out.extend_from_slice(&buf[split..]);
        out.extend_from_slice(&buf[..split]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u32) -> MethodKey {
        MethodKey::instance("RingTest", format!("m{n}"))
    }

    #[test]
    fn records_in_order_until_cap() {
        let r = EventRing::new(8);
        for i in 0..5 {
            r.record(EventKind::CacheHit, k(i));
        }
        let evs = r.snapshot();
        assert_eq!(evs.len(), 5);
        assert_eq!(r.total_recorded(), 5);
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(evs[0].key, k(0));
        assert_eq!(evs[4].key, k(4));
    }

    #[test]
    fn overwrites_oldest_beyond_cap() {
        let r = EventRing::new(4);
        for i in 0..10 {
            r.record(EventKind::CheckPass, k(i));
        }
        let evs = r.snapshot();
        assert_eq!(evs.len(), 4);
        assert_eq!(r.total_recorded(), 10);
        // The four youngest survive, oldest first.
        let keys: Vec<_> = evs.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![k(6), k(7), k(8), k(9)]);
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn spans_carry_duration() {
        let r = EventRing::new(4);
        r.record_span(EventKind::CheckPass, k(0), 1234);
        let evs = r.snapshot();
        assert_eq!(evs[0].dur_ns, 1234);
        assert_eq!(evs[0].kind.name(), "check_pass");
    }
}
