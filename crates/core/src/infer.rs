//! Checker-verified whole-program type inference — the adoption path.
//!
//! [`Hummingbird::infer`] closes the loop the residue auditor (HB1006)
//! opens: unannotated reachable methods keep their guarded prologues and
//! dynamic checks forever, because nothing ever produces a signature for
//! them. This pass produces those signatures — and *proves* them before
//! the system believes them:
//!
//! 1. **Candidate generation** (`hb_analyze::infer_candidates`): for each
//!    reachable, unannotated, app-scope method, solve parameter types
//!    from the abstract argument values on every call-graph in-edge and
//!    the return type from the method's own dataflow.
//! 2. **Hypothesis world**: capture a [`WorldSnapshot`] of the live
//!    system and overlay *every* candidate as an
//!    [`AnnotationSource::Inferred`] table entry, so mutually-recursive
//!    candidates see each other during verification.
//! 3. **Verification fixpoint**: run every candidate through the real
//!    checker ([`hb_check::verify_candidate`], i.e. `check_sig`) against
//!    the hypothesis world. A refuted candidate is removed, the overlay
//!    rebuilt, and the round repeated until the surviving set is
//!    self-consistent. Soundness is the checker's, inherited — never
//!    asserted by the dataflow heuristics.
//! 4. **Return refinement**: where the dataflow guessed `%any` but the
//!    verified derivation computed a concrete return type, adopt the
//!    computed type and re-verify (revert-and-freeze on any failure).
//! 5. **Caller compatibility**: methods that are *already* checked and
//!    call a candidate are re-verified against the hypothesis world;
//!    a candidate whose adoption would regress a green caller is
//!    withdrawn. (This matters on re-inference after a reload, where a
//!    previously-inferred signature changes under its adopters.)
//! 6. **Adoption**: each survivor registers through the normal
//!    [`hb_rdl::RdlState::add_type_at`] path with
//!    `AnnotationSource::Inferred`, so invalidation, fast-entry flushes
//!    and fleet distribution all happen exactly as for a declared
//!    annotation. Re-deriving an identical signature on a
//!    later run re-verifies but does **not** re-register, keeping the
//!    epoch stream quiet and the pass idempotent.
//!
//! Refuted candidates are not discarded silently: each becomes an
//! **HB2001** `inferable signature` suggestion carrying the
//! ready-to-paste annotation line and the checker's refutation, in
//! canonical `(file, span, code)` order.
//!
//! With `jobs > 1` verification rounds fan across the scheduler's
//! workers; the ordered map returns results in input order, so parallel
//! output is byte-identical to serial output.

use crate::analyze::build_view;
use crate::sched::{capture_world, map_in_order, pool_for, sort_diagnostics};
use crate::Hummingbird;
use hb_analyze::callgraph::Caller;
use hb_analyze::{build_call_graph, infer_candidates, SigCandidate};
use hb_check::{verify_candidate, CheckError, CheckOutcome, CheckPolicy, CheckRequest};
use hb_il::MethodCfg;
use hb_interp::Interp;
use hb_rdl::{AnnotationSource, MethodKey, TableEntry};
use hb_sched::WorldSnapshot;
use hb_syntax::{BlameTarget, DiagCode, Span, TypeDiagnostic};
use hb_types::{MethodSig, Type, TypeEnv};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The result of one inference run.
#[derive(Clone)]
pub struct InferReport {
    /// Every verified signature, as `(method key, ready-to-paste
    /// annotation line)` in key order — including signatures identical to
    /// an earlier run's (verified again, not re-registered).
    pub adopted: Vec<(MethodKey, String)>,
    /// HB2001 suggestions for refuted candidates, in canonical
    /// `(file, span, code)` order.
    pub diagnostics: Vec<TypeDiagnostic>,
    /// Candidate signatures generated (adopted + rejected).
    pub candidates: usize,
    /// Candidates the checker refuted (one HB2001 each).
    pub rejected: usize,
}

/// One verification unit: a method body checked against a signature in a
/// hypothesis world. `key` is the method (and the `self` class); for a
/// caller-compatibility check `ann_key` may name the ancestor the
/// annotation actually lives on.
struct VerifyItem {
    key: MethodKey,
    ann_key: MethodKey,
    span: Span,
    sig: MethodSig,
    cfg: Arc<MethodCfg>,
    captured: Option<TypeEnv>,
}

/// Verifies one item against a hypothesis world.
fn run_verify(world: &WorldSnapshot, it: &VerifyItem) -> Result<CheckOutcome, CheckError> {
    verify_candidate(&CheckRequest {
        cfg: &it.cfg,
        self_class: it.key.class,
        class_level: it.key.class_level,
        sig: &it.sig,
        ann_key: it.ann_key,
        ann_span: it.span,
        info: world,
        rdl: world,
        captured: it.captured.as_ref(),
        policy: CheckPolicy::Enforce,
    })
}

/// The hypothesis-world table entry for a candidate: exactly what
/// adoption would register, so verification judges the real thing.
fn overlay_entry(c: &SigCandidate) -> TableEntry {
    TableEntry {
        sig: MethodSig::single(c.mt.clone()),
        check: true,
        always_dyn_check: false,
        source: AnnotationSource::Inferred,
        version: 1,
        span: c.span,
    }
}

/// The captured type environment of a proc-backed (`define_method`) body,
/// exactly as the engine computes it: proc bodies are judged under the
/// types of their captured locals (Fig. 2).
fn captured_env(interp: &Interp, key: &MethodKey) -> Option<TypeEnv> {
    let cid = interp.registry.lookup(key.class.as_str())?;
    let (_, mentry) = interp
        .registry
        .find_method_at(cid, key.method.as_str(), key.class_level)?;
    crate::engine::captured_env(interp, &mentry)
}

/// A computed return type worth writing into an annotation: plain
/// nominal/`%bool`/`nil`/generic shapes (and unions of them) that render
/// to re-parseable signature text. Type variables and class objects stay
/// at the dataflow's guess rather than risk a signature the program
/// could not have written itself.
fn stable_ret(t: &Type) -> bool {
    match t {
        Type::Any | Type::Bool | Type::Nil | Type::Nominal(_) => true,
        Type::Generic(_, args) | Type::Union(args) => args.iter().all(stable_ret),
        Type::Var(_) | Type::ClassObj(_) => false,
    }
}

impl Hummingbird {
    /// Runs checker-verified whole-program type inference: generates
    /// candidate signatures for unannotated reachable methods, verifies
    /// them through the real checker against a hypothesis world, adopts
    /// the survivors as [`AnnotationSource::Inferred`] annotations, and
    /// reports refuted candidates as HB2001 suggestions.
    ///
    /// `jobs > 1` fans verification across that many scheduler workers
    /// (reusing the attached scheduler when it is at least that wide);
    /// output is byte-identical to the serial path, and a panic in a
    /// verification is raised here exactly as the serial path raises it.
    pub fn infer(&mut self, jobs: usize) -> InferReport {
        self.infer_with_entries(jobs, &[])
    }

    /// [`Hummingbird::infer`] with extra entry points (see
    /// [`Hummingbird::analyze_with_entries`]): harness calls that make
    /// methods reachable — and their call sites' argument types visible —
    /// without executing anything.
    pub fn infer_with_entries(&mut self, jobs: usize, entries: &[(&str, &str)]) -> InferReport {
        // Settle the system first: land in-flight scheduler completions
        // and drain pending events, so the captured hypothesis world is
        // the program's quiescent state.
        let engine = self.engine.clone();
        engine.process_events(&mut self.interp);
        engine.sched_harvest(&self.interp);

        for (name, src) in entries {
            self.interp.source_map.add_file(name, src);
        }
        let view = build_view(self);
        let graph = build_call_graph(&view);
        let seeds = infer_candidates(&view, &graph);
        let candidates = seeds.len();
        if candidates == 0 {
            return InferReport {
                adopted: Vec::new(),
                diagnostics: Vec::new(),
                candidates: 0,
                rejected: 0,
            };
        }

        let cfg_of: BTreeMap<MethodKey, Arc<MethodCfg>> = view
            .methods
            .iter()
            .map(|m| (m.key, m.cfg.clone()))
            .collect();
        let captured_of: BTreeMap<MethodKey, Option<TypeEnv>> = seeds
            .iter()
            .map(|c| (c.key, captured_env(&self.interp, &c.key)))
            .collect();

        let pool = pool_for(self.scheduler(), jobs);
        let base = capture_world(&self.interp, &self.rdl);
        // The hypothesis world: the live system with every live candidate
        // overlaid as an inferred annotation.
        let hypothesis = |live: &BTreeMap<MethodKey, SigCandidate>| {
            Arc::new(base.overlay(live.values().map(|c| (c.key, overlay_entry(c)))))
        };
        // Verifies every live candidate against the hypothesis world
        // holding all of them, in key order.
        let verify_live = |live: &BTreeMap<MethodKey, SigCandidate>| {
            let world = hypothesis(live);
            let items: Vec<VerifyItem> = live
                .values()
                .map(|c| VerifyItem {
                    key: c.key,
                    ann_key: c.key,
                    span: c.span,
                    sig: MethodSig::single(c.mt.clone()),
                    cfg: cfg_of[&c.key].clone(),
                    captured: captured_of.get(&c.key).cloned().flatten(),
                })
                .collect();
            let results = map_in_order(pool.as_deref(), items, move |it| run_verify(&world, &it));
            live.keys().copied().zip(results).collect::<Vec<_>>()
        };

        // Checked-caller index for phase C: caller → callees among the
        // candidates.
        let mut callees_of: BTreeMap<MethodKey, BTreeSet<MethodKey>> = BTreeMap::new();
        for e in &graph.edges {
            if let Caller::Method(ck) = e.caller {
                if ck != e.callee {
                    callees_of.entry(ck).or_default().insert(e.callee);
                }
            }
        }

        let mut live: BTreeMap<MethodKey, SigCandidate> =
            seeds.into_iter().map(|c| (c.key, c)).collect();
        // Refuted candidates, still resurrectable: a refutation caused by
        // an unrefined callee (e.g. a bare `Array` before refinement
        // recovers `Array<Transaction>`) deserves a re-try once the
        // surviving signatures improve.
        let mut pending: BTreeMap<MethodKey, (SigCandidate, String)> = BTreeMap::new();
        // Withdrawn by the caller-compatibility phase: final.
        let mut withdrawn: BTreeMap<MethodKey, (SigCandidate, String)> = BTreeMap::new();
        let mut resurrections = 0usize;

        'outer: loop {
            // --- Phase A: self-consistency fixpoint -----------------------
            // Verify every live candidate against a world containing all
            // of them; removing a refuted one can invalidate others (they
            // saw its signature), so iterate to a fixpoint.
            let mut outcomes: BTreeMap<MethodKey, CheckOutcome> = BTreeMap::new();
            loop {
                if live.is_empty() {
                    break 'outer;
                }
                let mut any_refuted = false;
                outcomes.clear();
                for (k, r) in verify_live(&live) {
                    match r {
                        Ok(o) => {
                            outcomes.insert(k, o);
                        }
                        Err(e) => {
                            any_refuted = true;
                            let c = live.remove(&k).expect("refuted candidate was live");
                            pending.insert(k, (c, e.into_diagnostic().message));
                        }
                    }
                }
                if !any_refuted {
                    break;
                }
            }

            // --- Phase B: return refinement -------------------------------
            // The verified derivation's computed return type is at least
            // as precise as the dataflow's guess (it passed the check) and
            // often strictly better — `%any` becomes concrete, a bare
            // `Array` recovers its element type — which is what makes the
            // signature useful to callers. Adopt it and re-verify. Rounds
            // are bounded; any failure reverts the whole round to the
            // last verified-clean state and stops refining.
            let mut refined_any = false;
            let mut frozen: BTreeSet<MethodKey> = BTreeSet::new();
            for _ in 0..4 {
                let mut round: Vec<(MethodKey, Type)> = Vec::new();
                for (k, c) in live.iter_mut() {
                    if frozen.contains(k) {
                        continue;
                    }
                    let Some(o) = outcomes.get(k) else { continue };
                    if o.ret != c.mt.ret && o.ret != Type::Any && stable_ret(&o.ret) {
                        round.push((*k, c.mt.ret.clone()));
                        c.mt.ret = o.ret.clone();
                    }
                }
                if round.is_empty() {
                    break;
                }
                let results = verify_live(&live);
                if results.iter().any(|(_, r)| r.is_err()) {
                    // Refinement regressed something: revert the round
                    // (restoring the exact signatures that verified clean)
                    // and stop refining.
                    for (k, old) in round {
                        live.get_mut(&k).expect("reverted candidate is live").mt.ret = old;
                        frozen.insert(k);
                    }
                    break;
                }
                refined_any = true;
                for (k, r) in results {
                    outcomes.insert(k, r.expect("round had no failures"));
                }
            }

            // --- Resurrection ---------------------------------------------
            // Refinement improved the hypothesis world; a candidate that
            // was refuted against the *unrefined* world may now verify
            // (its refutation may have blamed exactly the signature that
            // just got more precise). Re-try the whole refuted pool, a
            // bounded number of times.
            if refined_any && !pending.is_empty() && resurrections < 3 {
                resurrections += 1;
                for (k, (c, _)) in std::mem::take(&mut pending) {
                    live.insert(k, c);
                }
                continue 'outer;
            }

            // --- Phase C: caller compatibility ----------------------------
            // A method that is already checked and calls a candidate was
            // verified against the *old* table (e.g. the candidate's
            // previously-inferred signature). Adoption must not regress
            // it: re-verify such callers against the hypothesis world and
            // withdraw any candidate that breaks one.
            let world = hypothesis(&live);
            let mut caller_items: Vec<VerifyItem> = Vec::new();
            for (ck, callees) in &callees_of {
                if live.contains_key(ck) || !graph.reachable.contains(ck) {
                    continue;
                }
                if !callees.iter().any(|k| live.contains_key(k)) {
                    continue;
                }
                let Some((ann_key, a)) =
                    view.resolve_annotation(ck.class.as_str(), ck.class_level, ck.method.as_str())
                else {
                    continue;
                };
                if !a.check {
                    continue;
                }
                let (Some(cfg), Some(entry)) = (cfg_of.get(ck), base.table_entry(&ann_key)) else {
                    continue;
                };
                caller_items.push(VerifyItem {
                    key: *ck,
                    ann_key,
                    span: entry.span,
                    sig: entry.sig.clone(),
                    cfg: cfg.clone(),
                    captured: captured_env(&self.interp, ck),
                });
            }
            if caller_items.is_empty() {
                break;
            }
            let caller_keys: Vec<MethodKey> = caller_items.iter().map(|it| it.key).collect();
            let results = map_in_order(pool.as_deref(), caller_items, move |it| {
                run_verify(&world, &it)
            });
            let mut withdrew = false;
            for (caller, r) in caller_keys.into_iter().zip(results) {
                let Err(e) = r else { continue };
                let msg = e.into_diagnostic().message;
                let called: Vec<MethodKey> = callees_of[&caller]
                    .iter()
                    .filter(|k| live.contains_key(k))
                    .copied()
                    .collect();
                for k in called {
                    let c = live.remove(&k).expect("withdrawn candidate was live");
                    withdrawn.insert(
                        k,
                        (
                            c,
                            format!(
                                "adopting it would break checked caller {}: {}",
                                caller.display(),
                                msg
                            ),
                        ),
                    );
                    withdrew = true;
                }
            }
            if !withdrew {
                break;
            }
            // The overlay shrank: the survivors must re-prove themselves.
        }
        let mut rejected = pending;
        rejected.append(&mut withdrawn);

        // --- Adoption -----------------------------------------------------
        let mut adopted: Vec<(MethodKey, String)> = Vec::new();
        let mut newly_registered = 0u64;
        for (k, c) in &live {
            let new_sig = MethodSig::single(c.mt.clone());
            let replace = match self.rdl.entry(k) {
                Some(e) if e.sig.to_string() == new_sig.to_string() => {
                    // Identical re-derivation: verified, already adopted —
                    // re-registering would only churn the epoch stream.
                    adopted.push((*k, c.annotation_line()));
                    continue;
                }
                Some(_) => true,
                None => false,
            };
            self.rdl.add_type_at(
                *k,
                c.mt.clone(),
                true,
                false,
                AnnotationSource::Inferred,
                replace,
                c.span,
            );
            newly_registered += 1;
            adopted.push((*k, c.annotation_line()));
        }
        engine.count(|s| {
            s.inferred_verified += live.len() as u64;
            s.inferred_adopted += newly_registered;
            s.inferred_rejected += rejected.len() as u64;
        });
        // Perform the Definition-1 invalidation the registrations demand
        // now, so depatches and dependent invalidations are attributed to
        // this call rather than the next dispatch.
        engine.process_events(&mut self.interp);

        let mut diagnostics: Vec<TypeDiagnostic> = rejected
            .values()
            .map(|(c, reason)| {
                TypeDiagnostic::warning(
                    DiagCode::InferableSignature,
                    format!(
                        "inferable signature for {}: candidate `{}` was refuted by the checker: {}",
                        c.key.display(),
                        c.annotation_line(),
                        reason
                    ),
                    c.span,
                    BlameTarget::Lint { pass: "infer" },
                )
                .with_method(c.key)
            })
            .collect();
        sort_diagnostics(&mut diagnostics);
        InferReport {
            adopted,
            diagnostics,
            candidates,
            rejected: rejected.len(),
        }
    }
}
