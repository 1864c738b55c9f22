//! The embedding layer's bridge to the `hb-analyze` lint suite.
//!
//! [`Hummingbird::analyze`] distills the *live* system — interpreter
//! registry, RDL annotation table, source map — into an
//! [`hb_analyze::ProgramView`] and runs the whole pass suite over it:
//! the per-method dataflow passes (HB1001–HB1004) over every
//! user-defined method and every load-time root, then the call-graph
//! passes (HB1005 stale annotations, HB1006 dynamic-check residue).
//!
//! Building the view from the runtime rather than from source is what
//! makes the analysis *whole-program* in the paper's sense: methods
//! created by metaprogramming (`define_method`, `attr_accessor`) are in
//! the registry and therefore analyzed; ancestor chains reflect actual
//! `include`s; annotations are read from the same table the engine
//! checks against.
//!
//! With `jobs > 1` the per-unit passes fan across the scheduler's
//! workers (each unit is a pure function of the shared view). Results
//! are keyed by submission index and re-assembled in order before the
//! final [`sort_diagnostics`] pass, so parallel output is byte-identical
//! to serial output.

use crate::sched::sort_diagnostics;
use crate::Hummingbird;
use hb_analyze::callgraph::analyze_call_graph;
use hb_analyze::ResidueSummary;
use hb_analyze::{analyze_unit, collect_roots, AnnotationUnit, MethodUnit, ProgramView};
use hb_il::{lower_block_body, lower_method, MethodCfg};
use hb_intern::MethodKey;
use hb_interp::{ClassId, MethodBody, MethodEntry};
use hb_rdl::AnnotationSource;
use hb_sched::Scheduler;
use hb_syntax::{parse_file, TypeDiagnostic};
use std::sync::mpsc;
use std::sync::Arc;

/// The result of one whole-program analysis run.
#[derive(Clone)]
pub struct AnalysisReport {
    /// All warnings, in canonical `(file, span, code, message)` order.
    pub diagnostics: Vec<TypeDiagnostic>,
    /// The residue auditor's aggregate numbers.
    pub summary: ResidueSummary,
}

fn lower_entry(entry: &MethodEntry) -> Option<MethodCfg> {
    match &entry.body {
        MethodBody::Ast(def) => Some(lower_method(def)),
        MethodBody::FromProc(p) => Some(lower_block_body(&p.params, &p.body, p.span)),
        MethodBody::Builtin(_) => None,
    }
}

/// Distills the live system into the immutable view the analyses run on.
pub fn build_view(hb: &Hummingbird) -> ProgramView {
    let mut view = ProgramView::default();
    let registry = &hb.interp.registry;

    for i in 0..registry.class_count() as u32 {
        let cid = ClassId(i);
        let class = registry.class(cid);
        // Chains by name, exactly the engine's resolution walk.
        // (Later duplicates of a renamed class simply overwrite.)
        view.chains.insert(
            class.name.clone(),
            registry
                .ancestor_syms(cid)
                .map(|(_, s)| s.as_str().to_string())
                .collect(),
        );
        // FastMap iteration order is arbitrary: sort for determinism.
        let mut pairs: Vec<(&String, &MethodEntry)> = class.methods.iter().collect();
        pairs.sort_by_key(|(n, _)| *n);
        for (name, entry) in pairs {
            if let Some(cfg) = lower_entry(entry) {
                let key = MethodKey::instance(&class.name, name);
                if matches!(entry.body, MethodBody::FromProc(_)) {
                    view.dynamic_defs.insert(key);
                }
                view.methods.push(MethodUnit {
                    key,
                    cfg: Arc::new(cfg),
                });
            }
        }
        let mut pairs: Vec<(&String, &MethodEntry)> = class.smethods.iter().collect();
        pairs.sort_by_key(|(n, _)| *n);
        for (name, entry) in pairs {
            if let Some(cfg) = lower_entry(entry) {
                let key = MethodKey::class_level(&class.name, name);
                if matches!(entry.body, MethodBody::FromProc(_)) {
                    view.dynamic_defs.insert(key);
                }
                view.methods.push(MethodUnit {
                    key,
                    cfg: Arc::new(cfg),
                });
            }
        }
    }
    view.methods.sort_by_key(|m| m.key);

    for (key, entry) in hb.rdl.entries() {
        view.annotations.insert(
            key,
            AnnotationUnit {
                span: entry.span,
                check: entry.check,
                always_dyn_check: entry.always_dyn_check,
                inferred: entry.source == AnnotationSource::Inferred,
            },
        );
    }

    // Roots come from every loaded file's program, the one the thread's
    // parse store already holds for that file id (so spans resolve
    // against the live source map). Bracketed files — `<corelib>`,
    // `<rails/…>`, `<eval>` — are framework substrate and harness glue:
    // their load-time code still contributes roots and call edges, but
    // warnings are scoped to app files.
    let sm = &hb.interp.source_map;
    for (fid, file) in sm.files() {
        if !file.name.starts_with('<') {
            view.warn_files.insert(fid);
        }
        let Ok(program) = parse_file(fid, file) else {
            continue;
        };
        view.roots.extend(collect_roots(&program, &file.name));
    }
    view
}

/// One analyzable unit: a method or a root, with its display label.
fn units(view: &ProgramView) -> Vec<(String, Option<MethodKey>, Arc<hb_il::MethodCfg>)> {
    let mut out = Vec::new();
    for m in &view.methods {
        out.push((m.key.to_string(), Some(m.key), m.cfg.clone()));
    }
    for r in &view.roots {
        let label = if r.class_level {
            format!("class body of {} ({})", r.owner, r.file)
        } else {
            format!("top level of {}", r.file)
        };
        out.push((label, None, r.cfg.clone()));
    }
    out
}

/// Runs the whole suite serially.
fn run_serial(view: &ProgramView) -> Vec<TypeDiagnostic> {
    units(view)
        .into_iter()
        .flat_map(|(label, key, cfg)| analyze_unit(view, label, key, &cfg))
        .collect()
}

/// Fans per-unit analysis across the scheduler's workers. Each job is a
/// pure function of the shared view; results come back over a channel
/// keyed by submission index, so assembly order is deterministic.
fn run_parallel(view: &Arc<ProgramView>, sched: &Scheduler) -> Vec<TypeDiagnostic> {
    let us = units(view);
    let n = us.len();
    let (tx, rx) = mpsc::channel::<(usize, Vec<TypeDiagnostic>)>();
    for (i, (label, key, cfg)) in us.into_iter().enumerate() {
        let v = view.clone();
        let tx_job = tx.clone();
        let job_label = label.clone();
        let job_cfg = cfg.clone();
        let accepted = sched.submit_job(move || {
            let _ = tx_job.send((i, analyze_unit(&v, job_label, key, &job_cfg)));
        });
        if !accepted {
            // Shut-down pool (cannot happen while we hold the Arc, but
            // fail safe): analyze inline.
            let _ = tx.send((i, analyze_unit(view, label, key, &cfg)));
        }
    }
    drop(tx);
    let mut slots: Vec<Vec<TypeDiagnostic>> = vec![Vec::new(); n];
    for (i, diags) in rx {
        slots[i] = diags;
    }
    slots.into_iter().flatten().collect()
}

impl Hummingbird {
    /// Runs the whole-program lint suite (`HB1001`–`HB1006`) over the
    /// currently loaded program and returns the warnings in canonical
    /// order plus the residue auditor's summary.
    ///
    /// `jobs > 1` fans the per-method passes across that many scheduler
    /// workers (reusing the attached scheduler when it is at least that
    /// wide); output is byte-identical to the serial path.
    pub fn analyze(&mut self, jobs: usize) -> AnalysisReport {
        self.analyze_with_entries(jobs, &[])
    }

    /// [`Hummingbird::analyze`] with extra *entry points*: source snippets
    /// that are parsed (never executed) and added as reachability roots.
    /// This is how an embedder declares the calls its harness makes into
    /// the program — e.g. the workload driver call — so the
    /// stale-annotation and residue audits see them. The snippets are
    /// registered in the source map under their (bracketed, warn-exempt)
    /// names so any spans render.
    pub fn analyze_with_entries(
        &mut self,
        jobs: usize,
        entries: &[(&str, &str)],
    ) -> AnalysisReport {
        // Re-registering an identical snippet reuses its file, so
        // repeated calls do not multiply its call edges.
        for (name, src) in entries {
            self.interp.source_map.add_file(name, src);
        }
        let view = Arc::new(build_view(self));
        let mut diagnostics = if jobs > 1 {
            match self.scheduler() {
                Some(s) if s.worker_count() >= jobs => run_parallel(&view, &s),
                _ => run_parallel(&view, &Scheduler::new(jobs)),
            }
        } else {
            run_serial(&view)
        };
        let (mut cg_diags, summary) = analyze_call_graph(&view);
        diagnostics.append(&mut cg_diags);
        sort_diagnostics(&mut diagnostics);
        AnalysisReport {
            diagnostics,
            summary,
        }
    }
}
