//! The derivation funnel. Every derivation the engine trusts — checked
//! here, adopted from the shared tier (another tenant, a snapshot, the
//! fleet daemon), or harvested from a scheduler worker — passes through
//! the functions in this module:
//!
//! * [`Engine::adoptable`] is the one validity test for a derivation built
//!   anywhere but against this engine's live world;
//! * [`Engine::land`] is the one place a derivation enters the cache,
//!   registers its Definition-1 edges and is published onward;
//! * [`Engine::record_check`] is the one place a `check_sig` run, pass or
//!   blame, is accounted (counters, check log, phases, observability).
//!
//! Soundness rests on two facts visible here: nothing enters the cache
//! without either a local `check_sig` against the live table or a passing
//! `adoptable` test, and every entry registers the edges that
//! `invalidate` follows to retire it when a dependency changes.

use super::{Engine, EngineState};
use crate::derivation::{epochs_of, Derivation, Provenance};
use crate::stats::{CheckLogItem, CheckVerdict};
use hb_check::CheckOutcome;
use hb_interp::Interp;
use hb_rdl::{MethodKey, TableEntry, Witness};
use hb_syntax::{DiagLabel, LabelRole, Span, TypeDiagnostic};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

impl EngineState {
    /// Retires `key`'s cached derivation, if any: deoptimizes its fast
    /// entry and removes the reverse-dependency edges it registered.
    /// Without the unlink, edges from superseded derivations accumulate
    /// across reload sessions — the maps grow without bound and a later
    /// change to a long-gone dependency spuriously invalidates (and
    /// re-checks) methods whose *current* derivation never consulted it.
    /// Returns whether a derivation was cached.
    pub(super) fn retire(&mut self, key: &MethodKey) -> bool {
        let Some(old) = self.cache.remove(key) else {
            return false;
        };
        self.depatch(key);
        for dep in old.deps() {
            unlink(&mut self.dependents, dep, key);
        }
        for nd in old.neg_deps() {
            unlink(&mut self.neg_dependents, nd, key);
        }
        true
    }
}

/// Removes the edge `from → key`, dropping `from`'s set once it empties.
fn unlink<K: Hash + Eq>(edges: &mut HashMap<K, HashSet<MethodKey>>, from: K, key: &MethodKey) {
    if let Some(set) = edges.get_mut(&from) {
        set.remove(key);
        if set.is_empty() {
            edges.remove(&from);
        }
    }
}

/// Positions a checker blame for reporting: a just-in-time check labels
/// the triggering call, and a blame on synthesized code (no source span)
/// is re-anchored at that call — or, for an eager check with no call, at
/// the annotation under check — keeping an explicit note that the blamed
/// code itself has no span.
pub(super) fn anchor_blame(diag: &mut TypeDiagnostic, trigger: Option<Span>, ann_span: Span) {
    let spanless = diag.span == Span::dummy();
    match trigger {
        Some(call) => {
            diag.labels.push(DiagLabel::new(
                LabelRole::CallSite,
                "checked just-in-time at this call",
                call,
            ));
            if spanless {
                diag.labels.push(DiagLabel::new(
                    LabelRole::Note,
                    "blamed code has no source span (synthesized or core-library definition)",
                    Span::dummy(),
                ));
                diag.span = call;
            }
        }
        None if spanless => diag.span = ann_span,
        None => {}
    }
}

impl Engine {
    /// Whether a derivation built elsewhere — by another tenant, in a
    /// snapshot, by the fleet daemon's publisher, or on a worker against a
    /// world snapshot — holds in this engine's current world: Definition
    /// 1's validity conditions, checked structurally instead of by
    /// re-derivation.
    ///
    /// Equal epochs mean this world went through the identical
    /// table/hierarchy mutation sequence, so every dependency (witnesses
    /// *and* ivar/cvar/gvar types) holds by construction. Otherwise the
    /// class hierarchy and variable types must still match exactly —
    /// `check_sig` judges subtyping and variable types without per-use
    /// witnesses — and the method's own signature and every (TApp)
    /// witness must replay to the answers the derivation recorded. Benign
    /// divergence (an unrelated annotation landed meanwhile) still adopts;
    /// anything the derivation depends on rejects.
    pub(super) fn adoptable(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        d: &Derivation,
        ann_key: &MethodKey,
        entry: &TableEntry,
    ) -> bool {
        let now = epochs_of(interp, &self.rdl);
        d.epochs == now
            || (d.epochs.1 == now.1
                && d.epochs.2 == now.2
                && d.own_sig_fp == st.sig_fp(*ann_key, entry)
                && self.witnesses_valid(st, interp, &d.witnesses))
    }

    /// Replays a derivation's (TApp) resolution witnesses against the
    /// *current* table, comparing each answer's key, version and content
    /// fingerprint to the values the derivation was built against.
    fn witnesses_valid(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        witnesses: &[Witness],
    ) -> bool {
        let gen = (
            self.rdl.table_generation(),
            interp.registry.hierarchy_generation(),
        );
        if st.dep_memo_gen != gen {
            st.dep_memo.clear();
            st.dep_memo_gen = gen;
        }
        witnesses.iter().all(|w| {
            match (
                w.resolution.target,
                st.replay(interp, &self.rdl, &w.resolution),
            ) {
                (None, None) => true,
                (Some(t), Some((k, v, fp))) => {
                    k == t && v == w.sig_version && fp == w.sig_fingerprint
                }
                _ => false,
            }
        })
    }

    /// The derivation a passing local `check_sig` proved: the outcome's
    /// witnesses stamped with each target's current version and content
    /// fingerprint, and the live world's epochs — exactly what a foreign
    /// tenant needs to adopt it.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn derivation_of(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        entry_id: u64,
        ann_key: &MethodKey,
        entry: &TableEntry,
        body_fp: Option<u64>,
        outcome: &CheckOutcome,
    ) -> Derivation {
        let witnesses: Vec<Witness> = outcome
            .resolutions
            .iter()
            .map(|res| {
                let (sig_version, sig_fingerprint) = res
                    .target
                    .and_then(|t| self.rdl.entry(&t).map(|e| (t, e)))
                    .map_or((0, 0), |(t, e)| (e.version, st.sig_fp(t, &e)));
                Witness {
                    resolution: *res,
                    sig_version,
                    sig_fingerprint,
                }
            })
            .collect();
        Derivation {
            entry_id,
            sig_version: entry.version,
            body_fp,
            own_sig_fp: st.sig_fp(*ann_key, entry),
            epochs: epochs_of(interp, &self.rdl),
            witnesses: witnesses.into(),
            cast_sites: outcome.cast_sites.iter().copied().collect(),
        }
    }

    /// Stores a valid derivation for `key` — the one landing path for
    /// checked, adopted and harvested derivations alike. `ns` is what
    /// obtaining it cost (the check, or the adoption probe). Accounting
    /// follows the provenance; the cache entry, its Definition-1 edges
    /// and the shared-tier publication do not.
    pub(super) fn land(
        &self,
        st: &mut EngineState,
        key: MethodKey,
        ann_key: &MethodKey,
        d: Derivation,
        how: Provenance,
        ns: u64,
    ) {
        // The checked signature and every consulted dependency are "used
        // during type checking" (Table 1's Used column) whoever ran the
        // checker, so warm and cold tenants report the same statistic.
        self.rdl.mark_used(ann_key);
        for dep in d.deps() {
            self.rdl.mark_used(&dep);
        }
        // Cast sites are facts about the derivation, not about who ran
        // the checker (Table 1's Casts column).
        st.stats.cast_sites.extend(d.cast_sites.iter().copied());
        if how == Provenance::Adopted {
            st.stats.shared_hits += 1;
            st.stats.shared_adopt_ns += ns;
            if let Some(obs) = &st.obs {
                obs.first_request.record(ns);
                obs.record_span(hb_obs::EventKind::SharedAdopt, key, ns);
            }
        } else {
            self.record_check(st, key, CheckVerdict::Pass, ns, how);
        }
        if !self.config.borrow().caching {
            return;
        }
        // A stale entry (old entry id / sig version) may still be present:
        // retire its edges before the new derivation registers its own.
        st.retire(&key);
        for dep in d.deps() {
            st.dependents.entry(dep).or_default().insert(key);
        }
        for nd in d.neg_deps() {
            st.neg_dependents.entry(nd).or_default().insert(key);
        }
        // Publish derivations this process produced, so other tenants
        // adopt them. (Proc-backed bodies publish too: their captured type
        // environment is folded into the body fingerprint, so only
        // tenants whose captured locals have identical types can adopt.)
        if how != Provenance::Adopted {
            if let Some(shared) = self.shared.borrow().as_ref() {
                shared.insert(key, d.clone());
            }
        }
        st.cache.insert(key, d);
    }

    /// Accounts one `check_sig` run for `key` in every store that tracks
    /// checks: the pass/blame counters and their durations, the bounded
    /// check log, the phase tracker and — when collecting — the duration
    /// histogram and the flight recorder.
    ///
    /// The check log is a window, not a ledger: failures are never cached
    /// and recur on every call, so only the most recent entries are kept.
    /// The histogram sees every duration before the window drops it.
    pub(super) fn record_check(
        &self,
        st: &mut EngineState,
        key: MethodKey,
        verdict: CheckVerdict,
        ns: u64,
        how: Provenance,
    ) {
        if verdict.passed() {
            st.stats.checks_performed += 1;
            st.stats.check_ns += ns;
            st.stats.checked_methods.insert(key.display());
        } else {
            st.stats.checks_failed += 1;
            st.stats.failed_check_ns += ns;
        }
        st.phase.note_check();
        if let Some(obs) = &st.obs {
            obs.checks_observed.inc();
            obs.check_duration.record(ns);
            let kind = if verdict.passed() {
                hb_obs::EventKind::CheckPass
            } else {
                hb_obs::EventKind::CheckFail
            };
            obs.record_span(kind, key, ns);
            match how {
                Provenance::Checked => obs.first_request.record(ns),
                Provenance::Harvested { deferred } => {
                    obs.record_span(hb_obs::EventKind::TaskHarvest, key, ns);
                    // A deferred admission ends here: adopted on a pass,
                    // abandoned on a blame.
                    if deferred && verdict.passed() {
                        obs.note_adopted(key);
                    } else if deferred {
                        obs.drop_admitted(key);
                    }
                }
                Provenance::Adopted => {}
            }
        }
        let cap = self.check_log_cap.get();
        while st.stats.check_log.len() >= cap.max(1) {
            st.stats.check_log.pop_front();
        }
        if cap > 0 {
            st.stats.check_log.push_back(CheckLogItem {
                key,
                outcome: verdict,
                duration_ns: ns,
            });
        }
    }
}
