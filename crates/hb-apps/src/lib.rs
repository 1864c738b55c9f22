//! The six subject applications of the Hummingbird evaluation (paper §5)
//! and the measurement harness that regenerates Table 1's rows.
//!
//! Three apps are Rails apps over the `hb-rails` substrate (Talks, Boxroom,
//! Pubs), Rolify and CCT use other metaprogramming styles (Fig. 2 and
//! Fig. 3), and Countries is the no-metaprogramming baseline.

pub mod apps;
pub mod datafile;
pub mod infer_corpus;
pub mod lint_corpus;
pub mod table1;
pub mod talks_history;
pub mod tenant;

pub use apps::{all_apps, boxroom, cct, countries, pubs, rolify, talks, AppSpec};
pub use infer_corpus::{infer_case, infer_case_with, infer_cases, InferCase};
pub use lint_corpus::{analyze_case, corpus_cases, CorpusCase};
pub use table1::{measure_app, AppCounts, Table1Row};
pub use tenant::{run_tenant, run_tenant_fleet, run_tenant_from_snapshot, TenantRun};

use hummingbird::{Hummingbird, HummingbirdBuilder, Mode, SharedCache};
use std::sync::Arc;

/// Builds an app in the given evaluation mode: substrates, app sources,
/// annotations (unless `Mode::Original`), seed data.
///
/// # Panics
///
/// Panics if any app file fails to load or type check at boot — these are
/// fixture defects, not runtime conditions.
pub fn build_app(spec: &AppSpec, mode: Mode) -> Hummingbird {
    build_app_with(spec, Hummingbird::builder().mode(mode))
}

/// [`build_app`] with an optional process-wide shared derivation tier:
/// the multi-tenant configuration. The tier is attached before any code
/// loads so even boot-time checks publish/adopt.
///
/// # Panics
///
/// Panics if any app file fails to load or type check at boot.
pub fn build_app_shared(
    spec: &AppSpec,
    mode: Mode,
    shared: Option<Arc<SharedCache>>,
) -> Hummingbird {
    let mut builder = Hummingbird::builder().mode(mode);
    if let Some(shared) = shared {
        builder = builder.shared_cache(shared);
    }
    build_app_with(spec, builder)
}

/// [`build_app`] over a fully configured [`HummingbirdBuilder`] — the
/// hook for embedding-style scenarios (shadow-policy canaries, bounded
/// diagnostic stores, diagnostic sinks). The builder's mode also governs
/// whether annotations load.
///
/// # Panics
///
/// Panics if any app file fails to load or type check at boot.
pub fn build_app_with(spec: &AppSpec, builder: HummingbirdBuilder) -> Hummingbird {
    let mode = builder.configured_mode();
    let mut hb = builder.build();
    if spec.rails {
        hb_rails::install_rails(&mut hb, mode != Mode::Original)
            .unwrap_or_else(|e| panic!("{}: rails install failed: {e}", spec.name));
    }
    if spec.needs_datafile {
        datafile::install_datafile(&mut hb.interp);
    }
    for (name, src) in spec.schema {
        hb.load_file(name, src)
            .unwrap_or_else(|e| panic!("{}: schema {name} failed: {e}", spec.name));
    }
    for (name, src) in spec.sources {
        hb.load_file(name, src)
            .unwrap_or_else(|e| panic!("{}: source {name} failed: {e}", spec.name));
    }
    if mode != Mode::Original {
        for (name, src) in spec.annotations {
            hb.load_file(name, src)
                .unwrap_or_else(|e| panic!("{}: annotations {name} failed: {e}", spec.name));
        }
    }
    for (name, src) in spec.driver {
        hb.load_file(name, src)
            .unwrap_or_else(|e| panic!("{}: driver {name} failed: {e}", spec.name));
    }
    if !spec.seed.is_empty() {
        hb.eval(spec.seed)
            .unwrap_or_else(|e| panic!("{}: seed failed: {e}", spec.name));
    }
    hb
}

/// Runs the app's workload for `iters` iterations.
///
/// # Panics
///
/// Panics on uncaught runtime errors (workloads are expected to pass).
pub fn run_workload(spec: &AppSpec, hb: &mut Hummingbird, iters: usize) {
    let call = (spec.workload_call)(iters);
    hb.eval(&call)
        .unwrap_or_else(|e| panic!("{}: workload failed: {e}", spec.name));
}

/// Counts non-blank, non-comment lines (the sloccount analogue for the
/// Table 1 LoC column).
pub fn count_loc(sources: &[(&str, &str)]) -> usize {
    sources
        .iter()
        .map(|(_, src)| {
            src.lines()
                .filter(|l| {
                    let t = l.trim();
                    !t.is_empty() && !t.starts_with('#')
                })
                .count()
        })
        .sum()
}
