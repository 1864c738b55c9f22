//! Obtaining a derivation for a call: hot-tier hit, shared-tier adoption,
//! deferred admission, or a synchronous `check_sig` — and the eager
//! whole-program `check_all` built on the same path.

use super::land::anchor_blame;
use super::{body_fingerprint, captured_env, cfg_store::entry_cfg, Engine};
use crate::derivation::Provenance;
use crate::info::RegistryInfo;
use crate::sched::sort_diagnostics;
use crate::stats::CheckVerdict;
use hb_check::{check_sig, CheckPolicy, CheckRequest};
use hb_interp::{DispatchInfo, ErrorKind, HbError, Interp};
use hb_rdl::{MethodKey, TableEntry};
use hb_syntax::{Span, TypeDiagnostic};
use std::rc::Rc;
use std::time::Instant;

/// One entry of the whole-program check set (see
/// `Engine::eligible_methods`): an annotated, checkable method resolved
/// against the current registry as the dispatch an eager check stands in
/// for, with its effective policy.
pub(super) struct EligibleMethod {
    pub key: MethodKey,
    pub entry: Rc<TableEntry>,
    pub info: DispatchInfo,
    pub policy: CheckPolicy,
}

impl Engine {
    /// Ensures `cache_key`'s derivation is valid, running the static check
    /// if needed. `trigger` is the triggering call site for just-in-time
    /// checks, `None` when checking eagerly (`check_all`/`hb_lint`, where
    /// no call exists). `policy` is the already-resolved enforcement
    /// policy — it does not change the judgement, only the failure
    /// diagnostic's shadow note (the caller decides raise-vs-continue) —
    /// except [`CheckPolicy::Deferred`], where a just-in-time miss in
    /// both cache tiers enqueues the check onto the scheduler and returns
    /// `Ok(false)`: the call is admitted, the body is *not* marked
    /// checked. `Ok(true)` means the derivation is valid right now.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ensure_checked(
        &self,
        interp: &mut Interp,
        info: &DispatchInfo,
        cache_key: &MethodKey,
        annotation_key: &MethodKey,
        table_entry: &TableEntry,
        trigger: Option<Span>,
        mut policy: CheckPolicy,
    ) -> Result<bool, HbError> {
        if self.caching
            && self
                .state
                .borrow()
                .holds(cache_key, info.entry.id, table_entry.version)
        {
            self.state.borrow_mut().stats.cache_hits += 1;
            if self.obs_active.get() {
                self.obs_note_cache_hit(cache_key);
            }
            return Ok(true);
        }
        // Hot-tier miss: the first-call path. Everything below is either
        // a derivation (check_ns) or a shared-tier adoption
        // (shared_adopt_ns), so warm boots can be told from cold ones.
        let t_first = Instant::now();
        // The body fingerprint (file content hash + definition span, plus
        // the captured locals' types for procs) is O(1), so a warm tenant
        // resolves its first call with a couple of hash probes and never
        // lowers, let alone checks.
        let captured = captured_env(interp, &info.entry);
        let body_fp = body_fingerprint(interp, &info.entry, captured.as_ref());
        let shared = self.shared.borrow().clone().filter(|_| self.caching);
        if let (Some(shared), Some(fp)) = (shared, body_fp) {
            // Each variant holds in the world that checked it; adopt the
            // newest one that holds in this one.
            let variants = shared.lookup(cache_key, info.entry.id, table_entry.version, fp);
            let mut st = self.state.borrow_mut();
            if let Some(d) = variants
                .into_iter()
                .find(|d| self.adoptable(&mut st, interp, d, annotation_key, table_entry))
            {
                let ns = t_first.elapsed().as_nanos() as u64;
                self.land(
                    &mut st,
                    *cache_key,
                    annotation_key,
                    d,
                    Provenance::Adopted,
                    ns,
                );
                return Ok(true);
            }
        }
        // Miss in both tiers: lower (or fetch) the body CFG.
        let cfg = entry_cfg(&info.entry).ok_or_else(|| {
            HbError::new(
                ErrorKind::Internal,
                format!("cannot lower body of {}", cache_key.display()),
                info.span,
            )
        })?;
        // Deferred admission: a just-in-time miss in both tiers does not
        // run the checker on the caller's thread (see `admit_deferred`).
        if let (CheckPolicy::Deferred, Some(call)) = (policy, trigger) {
            if self.admit_deferred(
                interp,
                cache_key,
                annotation_key,
                table_entry,
                &info.entry,
                call,
                t_first,
            ) {
                return Ok(false);
            }
            policy = CheckPolicy::Enforce;
        }
        if self.obs_active.get() {
            if let Some(obs) = &self.state.borrow().obs {
                obs.record(hb_obs::EventKind::CheckStart, *cache_key);
            }
        }
        let result = check_sig(&CheckRequest {
            cfg: &cfg,
            self_class: cache_key.class,
            class_level: cache_key.class_level,
            sig: &table_entry.sig,
            ann_key: *annotation_key,
            ann_span: table_entry.span,
            info: &RegistryInfo(&interp.registry),
            rdl: self.rdl.as_ref(),
            captured: captured.as_ref(),
            policy,
        });
        let check_ns = t_first.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        match result {
            Ok(outcome) => {
                let d = self.derivation_of(
                    &mut st,
                    interp,
                    info.entry.id,
                    annotation_key,
                    table_entry,
                    body_fp,
                    &outcome,
                );
                self.land(
                    &mut st,
                    *cache_key,
                    annotation_key,
                    d,
                    Provenance::Checked,
                    check_ns,
                );
                Ok(true)
            }
            Err(e) => {
                let verdict = CheckVerdict::Blame(e.code());
                self.record_check(&mut st, *cache_key, verdict, check_ns, Provenance::Checked);
                drop(st);
                let mut diag = e.into_diagnostic();
                anchor_blame(&mut diag, trigger, table_entry.span);
                let message = format!(
                    "type error in {} (checked at call): {}",
                    cache_key.display(),
                    diag.message
                );
                self.rdl.record_diagnostic(diag.clone());
                Err(HbError::with_diagnostic(
                    ErrorKind::TypeBlame,
                    message,
                    diag.span,
                    diag,
                ))
            }
        }
    }

    /// Enumerates the whole-program check set — every annotated,
    /// checkable, non-`Off` method with its resolved policy — in
    /// deterministic key order. The single source of eligibility truth
    /// for the serial and parallel `check_all` paths: a rule added here
    /// cannot diverge between them (their byte-identical output is a CI
    /// gate).
    pub(super) fn eligible_methods(&self, interp: &Interp) -> Vec<EligibleMethod> {
        let trivial = self.rdl.policies_trivial();
        let mut out = Vec::new();
        for (key, entry) in self.rdl.entries() {
            if !entry.check {
                continue;
            }
            // Eager checking never raises, so Enforce, Shadow and
            // Deferred behave identically here; Off skips the method
            // entirely.
            let policy = if trivial {
                CheckPolicy::Enforce
            } else {
                self.rdl.policy_for(&key, &key)
            };
            if policy == CheckPolicy::Off {
                continue;
            }
            let Some(cid) = interp.registry.lookup(key.class.as_str()) else {
                continue;
            };
            let found = interp
                .registry
                .find_method_at(cid, key.method.as_str(), key.class_level);
            let Some((owner, mentry)) = found else {
                continue;
            };
            if !mentry.is_checkable() {
                continue;
            }
            out.push(EligibleMethod {
                key,
                info: DispatchInfo {
                    recv_class: cid,
                    class_level: key.class_level,
                    owner,
                    name: key.method,
                    entry: mentry,
                    span: entry.span,
                },
                entry,
                policy,
            });
        }
        out
    }

    /// Eager whole-program checking: walks every annotated, checkable
    /// method and checks it *now*, without waiting for a triggering call
    /// — the CI-linter mode behind `hb_lint`. Successful derivations are
    /// cached (and published to the shared tier) exactly as just-in-time
    /// checks are, so an eager pass also warms the caches; failures are
    /// returned as structured diagnostics, one per failing method, in
    /// deterministic key order.
    ///
    /// Note the semantic difference from the just-in-time mode: methods
    /// whose annotation class is a module are checked against the module
    /// itself (there may be no instantiating call to name a mix-in
    /// class), and methods never defined (annotation without a body) are
    /// skipped.
    pub fn check_all(&self, interp: &mut Interp) -> Vec<TypeDiagnostic> {
        self.process_events(interp);
        let mut out = Vec::new();
        for m in self.eligible_methods(interp) {
            if let Err(e) =
                self.ensure_checked(interp, &m.info, &m.key, &m.key, &m.entry, None, m.policy)
            {
                if let Some(d) = e.diagnostic() {
                    out.push(d.clone());
                }
            }
        }
        // Stable reporting order, shared with the parallel path: golden
        // tests and `hb_lint --json` byte-compare this, so it must not
        // depend on interning order (the historical `entries()` order) or
        // worker interleaving.
        sort_diagnostics(&mut out);
        out
    }
}
