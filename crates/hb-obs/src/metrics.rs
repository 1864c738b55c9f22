//! Counters, fixed-bucket latency histograms, and the named registry.
//!
//! All metrics are plain `AtomicU64`s updated with relaxed ordering:
//! increments from the engine thread, scheduler workers, and daemon
//! connection threads never contend on a lock, and a torn read across
//! several independent counters is acceptable for monitoring output.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i` covers values whose binary
/// magnitude is `i` — that is, `v` in `2^i ..= 2^(i+1)-1` nanoseconds
/// (bucket 0 also absorbs 0). The last bucket additionally absorbs
/// everything larger: `2^39` ns is ~9 minutes, far beyond any latency
/// this stack records.
pub const BUCKETS: usize = 40;

/// A fixed-bucket latency histogram over nanosecond values.
///
/// Power-of-two buckets trade resolution for a branch-free `record`
/// (one `leading_zeros`, relaxed atomic updates). Quantiles are
/// estimated by linear interpolation inside the crossing bucket and
/// clamped to the observed `[min, max]`, which bounds the relative
/// error at 2x — adequate for p50/p90/p99 latency monitoring, and the
/// true `sum`/`count`/`min`/`max` are exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation.
    min: AtomicU64,
    max: AtomicU64,
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl HistogramSummary {
    /// Arithmetic mean (exact, unlike the percentiles).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: its binary magnitude, clamped.
    fn index(v: u64) -> usize {
        ((63 - (v | 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        match self.min.load(Relaxed) {
            u64::MAX if self.count() == 0 => 0,
            v => v,
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Per-bucket counts (not cumulative).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by walking buckets and
    /// interpolating linearly within the one where the cumulative count
    /// crosses `q * count`, clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_of(&self.bucket_counts(), q)
    }

    fn quantile_of(&self, counts: &[u64; BUCKETS], q: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let (min, max) = (self.min(), self.max());
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        let mut estimate = max;
        for (i, &c) in counts.iter().enumerate() {
            if cum + c >= target {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i >= BUCKETS - 1 {
                    max.max(lo)
                } else {
                    (1u64 << (i + 1)) - 1
                };
                let into = target - cum; // 1 ..= c
                estimate = lo + (hi - lo).saturating_mul(into) / c.max(1);
                break;
            }
            cum += c;
        }
        // A reader racing `record` can see a bucket before its bounds.
        if min <= max {
            estimate.clamp(min, max)
        } else {
            estimate
        }
    }

    pub fn summary(&self) -> HistogramSummary {
        let counts = self.bucket_counts();
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile_of(&counts, 0.50),
            p90: self.quantile_of(&counts, 0.90),
            p99: self.quantile_of(&counts, 0.99),
            max: self.max(),
        }
    }
}

struct Entry<T> {
    name: String,
    help: String,
    value: Arc<T>,
}

#[derive(Default)]
struct Inner {
    counters: Vec<Entry<Counter>>,
    histograms: Vec<Entry<Histogram>>,
}

/// A named collection of metrics, shared by handle.
///
/// `counter`/`histogram` are get-or-create: asking for the same name
/// twice returns the same underlying atomic, so independent subsystems
/// can share a series without coordinating setup order. The registry
/// itself is `Sync` (one short mutex around the name table; the metric
/// values are lock-free).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.counters.iter().find(|e| e.name == name) {
            return Arc::clone(&e.value);
        }
        let value = Arc::new(Counter::new());
        inner.counters.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            value: Arc::clone(&value),
        });
        value
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.histograms.iter().find(|e| e.name == name) {
            return Arc::clone(&e.value);
        }
        let value = Arc::new(Histogram::new());
        inner.histograms.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            value: Arc::clone(&value),
        });
        value
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        inner
            .counters
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value.get())
    }

    /// Summary of a histogram, if registered.
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let inner = self.inner.lock().unwrap();
        inner
            .histograms
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value.summary())
    }

    /// Snapshot of every registered counter as `(name, value)`.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().unwrap();
        inner
            .counters
            .iter()
            .map(|e| (e.name.clone(), e.value.get()))
            .collect()
    }

    /// Snapshot of every registered histogram as `(name, summary)`.
    pub fn histograms(&self) -> Vec<(String, HistogramSummary)> {
        let inner = self.inner.lock().unwrap();
        inner
            .histograms
            .iter()
            .map(|e| (e.name.clone(), e.value.summary()))
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Histogram buckets are cumulative with nanosecond `le` bounds;
    /// empty buckets below the last occupied one are emitted so the
    /// series is well-formed for any scraper.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for e in &inner.counters {
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            out.push_str(&format!("# TYPE {} counter\n", e.name));
            out.push_str(&format!("{} {}\n", e.name, e.value.get()));
        }
        for e in &inner.histograms {
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            out.push_str(&format!("# TYPE {} histogram\n", e.name));
            let counts = e.value.bucket_counts();
            let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate().take(last + 1) {
                cum += c;
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    e.name,
                    Histogram::bucket_bound(i),
                    cum
                ));
            }
            out.push_str(&format!(
                "{}_bucket{{le=\"+Inf\"}} {}\n",
                e.name,
                e.value.count()
            ));
            out.push_str(&format!("{}_sum {}\n", e.name, e.value.sum()));
            out.push_str(&format!("{}_count {}\n", e.name, e.value.count()));
        }
        out
    }

    /// Renders every metric as a JSON object:
    /// `{"counters":{..},"histograms":{name:{count,sum,p50,p90,p99,max},..}}`.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("{\"counters\":{");
        for (i, e) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", e.name, e.value.get()));
        }
        out.push_str("},\"histograms\":{");
        for (i, e) in inner.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = e.value.summary();
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                e.name, s.count, s.sum, s.p50, s.p90, s.p99, s.max
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        assert_eq!(Histogram::index(0), 0);
        assert_eq!(Histogram::index(1), 0);
        assert_eq!(Histogram::index(2), 1);
        assert_eq!(Histogram::index(3), 1);
        assert_eq!(Histogram::index(1024), 10);
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_summary_tracks_exact_aggregates() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 400, 500] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1500);
        assert_eq!(s.max, 500);
        assert!((s.mean() - 300.0).abs() < f64::EPSILON);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = Histogram::new();
        // 90 fast observations around 100ns, 10 slow around 100_000ns.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // p50 must land in the magnitude-6 bucket (64..=127) and p99 in
        // the magnitude-16 bucket (65536..=131071).
        assert!((64..=127).contains(&p50), "p50 = {p50}");
        assert!((65536..=131071).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) >= p99);
    }

    #[test]
    fn quantiles_never_leave_the_observed_range() {
        // One bucket (131072..=262143) holding only 135952: unclamped
        // interpolation reported p99 = 262143, above the max.
        let h = Histogram::new();
        h.record(135_952);
        let s = h.summary();
        assert_eq!(
            (s.p50, s.p90, s.p99, s.max),
            (135_952, 135_952, 135_952, 135_952)
        );
        assert_eq!(h.min(), 135_952);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn quantiles_are_ordered_within_min_and_max(
            samples in proptest::prop::collection::vec(0u64..(1 << 42), 1..200),
            scale in 0u32..40,
        ) {
            let h = Histogram::new();
            for v in &samples {
                h.record(v >> scale);
            }
            let min = samples.iter().map(|v| v >> scale).min().unwrap();
            let s = h.summary();
            proptest::prop_assert_eq!(h.min(), min);
            proptest::prop_assert!(
                min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max,
                "min {} p50 {} p90 {} p99 {} max {}", min, s.p50, s.p90, s.p99, s.max
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s, HistogramSummary::default());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn registry_get_or_create_shares_storage() {
        let r = Registry::new();
        let a = r.counter("hb_x_total", "x");
        let b = r.counter("hb_x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(r.counter_value("hb_x_total"), Some(2));
        assert!(r.counter_value("hb_missing").is_none());
        let h = r.histogram("hb_y_ns", "y");
        h.record(7);
        assert_eq!(r.histogram_summary("hb_y_ns").unwrap().count, 1);
    }

    #[test]
    fn prometheus_render_is_well_formed() {
        let r = Registry::new();
        r.counter("hb_a_total", "counts a").inc();
        let h = r.histogram("hb_b_ns", "times b");
        h.record(100);
        h.record(200_000);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE hb_a_total counter"));
        assert!(text.contains("hb_a_total 1"));
        assert!(text.contains("# TYPE hb_b_ns histogram"));
        assert!(text.contains("hb_b_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hb_b_ns_sum 200100"));
        assert!(text.contains("hb_b_ns_count 2"));
        // Bucket series is cumulative and monotone.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.contains("hb_b_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "non-monotone bucket line: {line}");
            prev = v;
        }
    }

    #[test]
    fn json_render_validates() {
        let r = Registry::new();
        r.counter("hb_a_total", "a").add(3);
        r.histogram("hb_b_ns", "b").record(42);
        let js = r.render_json();
        crate::json::validate_json(&js).unwrap();
        assert!(js.contains("\"hb_a_total\":3"));
        assert!(js.contains("\"count\":1"));
    }
}
