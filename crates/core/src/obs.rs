//! Engine-side observability: the collector gluing the [`hb_obs`]
//! primitives to the engine's hot paths, plus the renderers that fold
//! the flat [`EngineStats`] counters into the metrics exports.
//!
//! The engine holds at most one [`EngineObs`] (behind
//! `HummingbirdBuilder::observability`). When observability is off the
//! engine carries no collector at all and every instrumented hot path
//! costs a single `Cell<bool>` load — the same discipline as the
//! scheduler-poll and policy-resolution gates. When on, recording is a
//! few relaxed atomic adds (histograms/counters) and, at
//! [`ObsLevel::Trace`], one ring slot write.

use crate::stats::EngineStats;
use hb_obs::{Event, EventKind, EventRing, Histogram, ObsLevel, Registry};
use hb_rdl::MethodKey;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The synthetic key fleet-sync events are stamped with: fleet legs are
/// process-scoped, not method-scoped, but every ring event carries a
/// [`MethodKey`].
pub fn fleet_key() -> MethodKey {
    MethodKey::class_level("<fleet>", "sync")
}

/// One engine's observability state: the metric handles for every series
/// the engine feeds, the optional event ring, and the admission
/// timestamps backing the deferred admission-to-adoption histogram.
///
/// Lives in `Rc` next to the engine state; the [`Registry`] inside is
/// `Arc`-shared so exports can render it without touching the engine.
pub struct EngineObs {
    /// The named series store backing the Prometheus/JSON exports.
    pub registry: Arc<Registry>,
    /// The flight recorder ([`ObsLevel::Trace`] only).
    ring: Option<EventRing>,
    /// Wall-clock duration of every static check, pass or blame. Its
    /// `_count` and `_sum` equal `checks_performed + checks_failed` and
    /// `check_ns + failed_check_ns` of [`EngineStats`].
    pub check_duration: Arc<Histogram>,
    /// First-request latency of a cold method: what the triggering call
    /// paid before proceeding (synchronous check, shared-tier adoption,
    /// or deferred admission overhead).
    pub first_request: Arc<Histogram>,
    /// Deferred admission-to-adoption latency: from the cold call's
    /// admission to the harvested derivation landing in the cache.
    pub deferred_adoption: Arc<Histogram>,
    /// Time scheduler tasks sat queued before a worker picked them up.
    pub sched_queue: Arc<Histogram>,
    /// Fleet fetch round-trips (boot full fetch and per-sync delta).
    pub fleet_fetch: Arc<Histogram>,
    /// Fleet publish round-trips.
    pub fleet_publish: Arc<Histogram>,
    /// When each in-flight deferred admission was admitted. Entries
    /// survive stale-requeues (the admission is still waiting) and are
    /// dropped on blame/panic/identity-stale so an abandoned admission
    /// cannot leak or skew the histogram.
    admitted_at: RefCell<HashMap<MethodKey, Instant>>,
}

impl EngineObs {
    /// A collector recording at `level` (callers never construct one for
    /// [`ObsLevel::Off`] — absence is the off state).
    pub fn new(level: ObsLevel) -> EngineObs {
        let registry = Arc::new(Registry::new());
        let ring = level
            .trace_enabled()
            .then(|| EventRing::new(hb_obs::ring::DEFAULT_RING_CAP));
        EngineObs {
            check_duration: registry.histogram(
                "hb_check_duration_ns",
                "wall-clock nanoseconds per static check (pass and blame)",
            ),
            first_request: registry.histogram(
                "hb_first_request_ns",
                "latency a cold call paid before proceeding (check, adoption, or deferred admission)",
            ),
            deferred_adoption: registry.histogram(
                "hb_deferred_adoption_ns",
                "deferred admissions: nanoseconds from admission to derivation adoption",
            ),
            sched_queue: registry.histogram(
                "hb_sched_queue_ns",
                "nanoseconds scheduler tasks sat queued before a worker started them",
            ),
            fleet_fetch: registry.histogram(
                "hb_fleet_fetch_ns",
                "fleet daemon fetch round-trip nanoseconds (full and delta)",
            ),
            fleet_publish: registry.histogram(
                "hb_fleet_publish_ns",
                "fleet daemon publish round-trip nanoseconds",
            ),
            ring,
            registry,
            admitted_at: RefCell::new(HashMap::new()),
        }
    }

    /// Records an instantaneous ring event (no-op below
    /// [`ObsLevel::Trace`]).
    pub fn record(&self, kind: EventKind, key: MethodKey) {
        if let Some(ring) = &self.ring {
            ring.record(kind, key);
        }
    }

    /// Records a span-closing ring event (no-op below
    /// [`ObsLevel::Trace`]).
    pub fn record_span(&self, kind: EventKind, key: MethodKey, dur_ns: u64) {
        if let Some(ring) = &self.ring {
            ring.record_span(kind, key, dur_ns);
        }
    }

    /// Stamps a deferred admission (idempotent per in-flight key: a
    /// stale-requeue keeps the original admission time, so the histogram
    /// measures what the *caller* experienced, not the retry count).
    pub fn note_admitted(&self, key: MethodKey) {
        self.admitted_at
            .borrow_mut()
            .entry(key)
            .or_insert_with(Instant::now);
    }

    /// Closes a deferred admission: the harvested derivation was adopted.
    pub fn note_adopted(&self, key: MethodKey) {
        if let Some(at) = self.admitted_at.borrow_mut().remove(&key) {
            self.deferred_adoption
                .record(at.elapsed().as_nanos() as u64);
        }
    }

    /// Abandons a deferred admission (blame, contained panic, or an
    /// identity-stale completion that will not be retried).
    pub fn drop_admitted(&self, key: MethodKey) {
        self.admitted_at.borrow_mut().remove(&key);
    }

    /// The retained flight-recorder events, oldest first (empty below
    /// [`ObsLevel::Trace`]).
    pub fn ring_snapshot(&self) -> Vec<Event> {
        self.ring.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    }
}

/// Every [`EngineStats`] field as a `(series, value)` pair, in the order
/// the stats declaration gives them ([`EngineStats::fields`]).
pub fn stat_fields(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    stats
        .fields()
        .into_iter()
        .map(|(name, _, value)| (name, value))
        .collect()
}

/// Renders the stats as a JSON object body (`{"checks_performed":0,..}`).
pub fn stats_json(stats: &EngineStats) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in stat_fields(stats).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push('}');
    out
}

/// Renders the stats as Prometheus text lines, one `hb_engine_<field>`
/// series per field, typed as the stats declaration says.
pub fn stats_prometheus(stats: &EngineStats) -> String {
    let mut out = String::new();
    for (name, kind, value) in stats.fields() {
        out.push_str(&format!("# TYPE hb_engine_{name} {kind}\n"));
        out.push_str(&format!("hb_engine_{name} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_level_skips_the_ring() {
        let obs = EngineObs::new(ObsLevel::Metrics);
        obs.record(EventKind::CacheHit, fleet_key());
        assert!(obs.ring_snapshot().is_empty());
        let obs = EngineObs::new(ObsLevel::Trace);
        obs.record(EventKind::CacheHit, fleet_key());
        assert_eq!(obs.ring_snapshot().len(), 1);
    }

    #[test]
    fn deferred_admission_tracking_round_trips() {
        let obs = EngineObs::new(ObsLevel::Metrics);
        let key = MethodKey::instance("Talk", "title");
        obs.note_admitted(key);
        obs.note_admitted(key); // requeue keeps the original stamp
        obs.note_adopted(key);
        assert_eq!(obs.deferred_adoption.count(), 1);
        // Dropped admissions record nothing.
        obs.note_admitted(key);
        obs.drop_admitted(key);
        obs.note_adopted(key);
        assert_eq!(obs.deferred_adoption.count(), 1);
    }

    #[test]
    fn stats_renderers_cover_every_field() {
        let stats = EngineStats::default();
        let js = stats_json(&stats);
        hb_obs::validate_json(&js).unwrap();
        assert!(js.contains("\"checks_performed\":0"));
        let prom = stats_prometheus(&stats);
        assert!(prom.contains("# TYPE hb_engine_checks_performed counter"));
        assert!(prom.contains("hb_engine_cache_entries 0"));
        assert!(prom.contains("# TYPE hb_engine_cache_entries gauge"));
    }
}
