//! The Table 1 measurement harness: annotation counts, dynamic-type
//! counts, casts, phases and the Orig / No$ / Hum timing triple.

use crate::apps::AppSpec;
use crate::{build_app, count_loc, run_workload};
use hb_rdl::AnnotationSource;
use hummingbird::{Hummingbird, Mode};
use std::time::Instant;

/// The annotation-count columns of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppCounts {
    /// Statically-written annotations on app methods whose bodies are
    /// checked ("Chk'd").
    pub checked: usize,
    /// All statically-written annotations on app classes ("App").
    pub app: usize,
    /// "App" plus library/framework annotations the checker consulted
    /// ("All").
    pub all: usize,
    /// Dynamically generated annotations ("Gen'd").
    pub generated: usize,
    /// Generated annotations actually used during checking ("Used").
    pub used: usize,
    /// Distinct cast sites the checker encountered ("Casts").
    pub casts: usize,
    /// Annotate/check alternation groups ("Phs").
    pub phases: u64,
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub name: String,
    pub loc: usize,
    pub counts: AppCounts,
    pub orig_ms: f64,
    pub nocache_ms: f64,
    pub hum_ms: f64,
    /// Static checks performed in No$ / Hum modes (shows why caching
    /// matters — the paper's pubs 13,000-recheck anecdote).
    pub checks_nocache: u64,
    pub checks_hum: u64,
}

impl Table1Row {
    /// Hum/Orig overhead ratio (the paper's last column).
    pub fn ratio(&self) -> f64 {
        if self.orig_ms > 0.0 {
            self.hum_ms / self.orig_ms
        } else {
            f64::NAN
        }
    }
}

/// Computes the annotation-count columns from a system that has run the
/// app's workload in Full mode.
pub fn compute_counts(spec: &AppSpec, hb: &Hummingbird) -> AppCounts {
    let stats = hb.stats();
    let rstats = hb.rdl_stats();
    let is_app_class = |class: &str| spec.app_classes.contains(&class);
    let mut checked = 0usize;
    let mut app = 0usize;
    for (key, entry) in hb.rdl.entries() {
        if entry.source == AnnotationSource::Static && is_app_class(key.class.as_str()) {
            app += 1;
            if entry.check {
                checked += 1;
            }
        }
    }
    // "All" = App + library/framework annotations consulted during checks.
    let mut library_used = 0usize;
    for key in hb.rdl.used_keys() {
        let entry = hb.rdl.entry(&key);
        let is_static = entry
            .as_ref()
            .map(|e| e.source == AnnotationSource::Static)
            .unwrap_or(false);
        if is_static && !is_app_class(key.class.as_str()) {
            library_used += 1;
        }
    }
    AppCounts {
        checked,
        app,
        all: app + library_used,
        generated: rstats.dynamic_generated,
        used: rstats.dynamic_used,
        casts: stats.cast_sites.len(),
        phases: stats.phases,
    }
}

fn time_mode(spec: &AppSpec, mode: Mode, iters: usize, repeats: usize) -> (f64, u64) {
    let mut best_ms = f64::INFINITY;
    let mut checks = 0;
    for _ in 0..repeats {
        let mut hb = build_app(spec, mode);
        let start = Instant::now();
        run_workload(spec, &mut hb, iters);
        let ms = start.elapsed().as_secs_f64() * 1_000.0;
        best_ms = best_ms.min(ms);
        checks = hb.stats().checks_performed;
    }
    (best_ms, checks)
}

/// Measures one app across the three modes and computes its Table 1 row.
pub fn measure_app(spec: &AppSpec, iters: usize, repeats: usize) -> Table1Row {
    let (orig_ms, _) = time_mode(spec, Mode::Original, iters, repeats);
    let (nocache_ms, checks_nocache) = time_mode(spec, Mode::NoCache, iters, repeats);
    let (hum_ms, checks_hum) = time_mode(spec, Mode::Full, iters, repeats);
    // Counts come from a fresh Full run of the same workload.
    let mut hb = build_app(spec, Mode::Full);
    run_workload(spec, &mut hb, iters);
    let counts = compute_counts(spec, &hb);
    Table1Row {
        name: spec.name.to_string(),
        loc: count_loc(spec.sources),
        counts,
        orig_ms,
        nocache_ms,
        hum_ms,
        checks_nocache,
        checks_hum,
    }
}
