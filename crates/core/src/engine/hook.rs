//! The dispatch hook: per-call enforcement (dynamic argument checks, the
//! just-in-time static check) and fast-entry patching.

use super::Engine;
use hb_check::CheckPolicy;
use hb_interp::{CallHook, DispatchInfo, ErrorKind, HbError, HookOutcome, Interp, Value};
use hb_rdl::{value_conforms, MethodKey, TableEntry};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, TypeDiagnostic};

impl Engine {
    /// Resolves the enforcement policy for a dispatch. Outlined and cold:
    /// the Enforce-everywhere default never takes this path, and keeping
    /// the map probes out of `before_call`'s body keeps the steady-state
    /// cache-hit path at its pre-policy register layout (measured: the
    /// inlined version cost ~8% on dispatch_probe).
    #[cold]
    #[inline(never)]
    fn resolve_policy(&self, cache_key: &MethodKey, annotation_key: &MethodKey) -> CheckPolicy {
        self.rdl.policy_for(cache_key, annotation_key)
    }

    /// Flight-recorder note for a cache hit. Outlined and cold for the
    /// same reason as [`Engine::resolve_policy`]: the observability-off
    /// dispatch path pays one `Cell` load and none of this body.
    #[cold]
    #[inline(never)]
    pub(super) fn obs_note_cache_hit(&self, key: &MethodKey) {
        if let Some(obs) = &self.state.borrow().obs {
            obs.record(hb_obs::EventKind::CacheHit, *key);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dynamic_arg_check(
        &self,
        interp: &Interp,
        info: &DispatchInfo,
        entry: &TableEntry,
        args: &[Value],
        key: &MethodKey,
        annotation_key: &MethodKey,
        policy: CheckPolicy,
    ) -> Result<(), HbError> {
        self.state.borrow_mut().stats.dyn_arg_checks += 1;
        self.rdl.inner.borrow_mut().dyn_checks_run += 1;
        let mut arity_ok = false;
        for arm in &entry.sig.arms {
            if !arm.accepts_arity(args.len()) {
                continue;
            }
            arity_ok = true;
            let all = args.iter().enumerate().all(|(i, a)| match arm.param_at(i) {
                // Var-free params (the common case) are checked in place;
                // only polymorphic annotations pay the erase-and-rebuild.
                Some(pt) if pt.has_vars() => value_conforms(interp, a, &pt.erase_vars()),
                Some(pt) => value_conforms(interp, a, pt),
                None => false,
            });
            if all {
                return Ok(());
            }
        }
        let got: Vec<String> = args.iter().map(|a| interp.class_name_of(a)).collect();
        let message = if arity_ok {
            format!(
                "dynamic type check failed calling {}: arguments ({}) do not match {}",
                key.display(),
                got.join(", "),
                entry.sig
            )
        } else {
            format!(
                "dynamic type check failed calling {}: wrong number of arguments ({})",
                key.display(),
                args.len()
            )
        };
        let mut diag = TypeDiagnostic::error(
            DiagCode::DynamicArgCheck,
            message.clone(),
            info.span,
            BlameTarget::Annotation(*annotation_key),
        )
        .with_method(*key)
        .with_label(
            DiagLabel::new(
                LabelRole::BlamedAnnotation,
                format!("annotation `{}` declared here", entry.sig),
                entry.span,
            )
            .with_method(*annotation_key),
        )
        .with_label(DiagLabel::new(
            LabelRole::CallSite,
            "rejected call made here",
            info.span,
        ));
        if policy == CheckPolicy::Shadow {
            diag.labels.push(CheckPolicy::shadow_note());
        }
        self.rdl.record_diagnostic(diag.clone());
        Err(HbError::with_diagnostic(
            ErrorKind::ContractBlame,
            message,
            info.span,
            diag,
        ))
    }
}

impl CallHook for Engine {
    fn before_call(
        &self,
        interp: &mut Interp,
        info: &DispatchInfo,
        _recv: &Value,
        args: &[Value],
    ) -> Result<HookOutcome, HbError> {
        if !self.config.borrow().enabled {
            return Ok(HookOutcome::default());
        }
        self.process_events(interp);
        // Scheduler completions land here, on the interpreter thread —
        // the default (scheduler-less) configuration pays one `Cell`
        // load, keeping the steady-state dispatch path untouched.
        if self.sched_active.get() {
            self.poll_completions(interp);
        }
        self.state.borrow_mut().stats.intercepted_calls += 1;

        // Resolve the annotation along the receiver class's ancestors, the
        // same path dispatch used — interned symbols over the memoised
        // chain, so the steady-state lookup allocates nothing.
        let found = self.rdl.lookup_along(
            interp
                .registry
                .ancestor_syms(info.recv_class)
                .map(|(_, sym)| sym),
            info.class_level,
            info.name,
        );
        let Some((annotation_key, table_entry)) = found else {
            return Ok(HookOutcome::default());
        };

        // The cache key is the *receiver's* class (module methods cache per
        // mix-in class, paper §4 "Modules").
        let cache_key = MethodKey {
            class: interp.registry.name_sym(info.recv_class),
            class_level: info.class_level,
            method: info.name,
        };

        // Enforcement policy. The trivial-configuration fast test is one
        // `Cell` load, so the Enforce-everywhere default (and with it the
        // steady-state cache-hit path) never probes the policy maps.
        let policy = if self.rdl.policies_trivial() {
            CheckPolicy::Enforce
        } else {
            self.resolve_policy(&cache_key, &annotation_key)
        };
        if policy == CheckPolicy::Off {
            // Type enforcement disabled for this method: no dynamic
            // argument check, no static check, and the body runs
            // unchecked (its own callees fall back to dynamic checks).
            return Ok(HookOutcome::default());
        }

        // Dynamic argument checks: only from unchecked callers, unless the
        // method is flagged always-check (the Rails params exception).
        let cfg = self.config.borrow();
        let need_dyn = cfg.dyn_arg_checks
            && (!interp.current_caller_checked() || table_entry.always_dyn_check);
        drop(cfg);
        let mut dyn_shadowed = false;
        if need_dyn {
            let dyn_result = self.dynamic_arg_check(
                interp,
                info,
                &table_entry,
                args,
                &cache_key,
                &annotation_key,
                policy,
            );
            if let Err(e) = dyn_result {
                if policy != CheckPolicy::Shadow {
                    return Err(e);
                }
                // Shadow: the rejection is recorded (the diagnostic is
                // already in the store); the call proceeds.
                self.rdl.note_shadowed_blame();
                dyn_shadowed = true;
            }
        }

        if table_entry.check {
            return match self.ensure_checked(
                interp,
                info,
                &cache_key,
                &annotation_key,
                &table_entry,
                Some(info.span),
                policy,
            ) {
                // A static pass normally marks the frame checked so callees
                // skip their dynamic checks — but the derivation assumed
                // the declared argument types, and a shadowed dynamic
                // rejection means this call's actual arguments violate
                // them. The frame stays unchecked: shadowing must not
                // extend static trust past a known-ill-typed boundary (and
                // the callees' own dynamic checks are what surfaces the
                // downstream blames the canary is there to observe).
                // `checked == false` is a deferred admission: the check is
                // in flight on the scheduler, so the frame likewise stays
                // unchecked until the derivation lands.
                Ok(checked) => {
                    let mark_checked = checked && !dyn_shadowed;
                    // Patch the checked fast prologue: subsequent dispatches
                    // of this `(receiver class, entry)` from checked callers
                    // skip the hook probe entirely. Sound only while every
                    // per-call decision this hook could make is statically
                    // known to be a no-op: derivation cached (`checked`),
                    // caching on, enforcement trivially Enforce, no `pre`
                    // contract registered under this method's name, and the
                    // method not flagged always-dynamic-check. Any event
                    // that could change one of these flushes or depatches
                    // the table.
                    if mark_checked
                        && interp.tier.elision_enabled()
                        && self.config.borrow().caching
                        && self.rdl.policies_trivial()
                        && self.rdl.no_pre_named(info.name, info.class_level)
                        && !table_entry.always_dyn_check
                    {
                        interp.tier.patch(cache_key, info.recv_class, info.entry.id);
                    }
                    Ok(HookOutcome { mark_checked })
                }
                Err(e) if policy == CheckPolicy::Shadow && e.kind == ErrorKind::TypeBlame => {
                    // Shadow: the full check ran and blamed; its
                    // diagnostic is recorded. Execution continues, but the
                    // body is NOT marked checked — it failed, so its
                    // callees keep their dynamic argument checks.
                    self.rdl.note_shadowed_blame();
                    Ok(HookOutcome::default())
                }
                Err(e) => Err(e),
            };
        }
        Ok(HookOutcome::default())
    }
}
