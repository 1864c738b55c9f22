//! The dispatch hook: `pre` contracts, per-call enforcement (dynamic
//! argument checks, the just-in-time static check) and fast-entry
//! patching, driven by a dispatch record resolved once per (receiver
//! class, method entry).

use super::Engine;
use hb_check::CheckPolicy;
use hb_interp::{CallHook, DispatchInfo, ErrorKind, Flow, HbError, HookOutcome, Interp, Value};
use hb_rdl::{value_conforms, MethodKey, TableEntry};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, TypeDiagnostic};
use std::rc::Rc;

/// What the hook needs to know about one (receiver class, method entry)
/// pair beyond the call's own arguments. Resolving it walks the
/// receiver's ancestors and probes the `pre` and policy maps; its answer
/// changes only when the type table, the class hierarchy or the
/// enforcement configuration does, so the engine keeps one per pair and
/// drops them all when one of those three generations moves (see
/// `EngineState::records`).
#[derive(Clone)]
pub(super) struct DispatchRecord {
    /// The annotation found along the receiver's ancestors: its own key
    /// and its entry.
    annotation: Option<(MethodKey, Rc<TableEntry>)>,
    /// The cache key: the *receiver's* class (module methods cache per
    /// mix-in class, paper §4 "Modules").
    cache_key: MethodKey,
    /// A `pre` contract is registered under the method's name.
    pre_named: bool,
    /// The enforcement policy for the annotation.
    policy: CheckPolicy,
}

impl Engine {
    /// Drains pending interpreter and type-table events (Definition 1
    /// invalidation); two emptiness tests when there are none.
    fn drain_pending(&self, interp: &mut Interp) {
        if !interp.registry.events.is_empty() || self.rdl.has_events() {
            self.process_events(interp);
        }
    }

    /// The dispatch record for `info`: one probe while the type-table,
    /// hierarchy and enforcement generations it was resolved at hold.
    fn record(&self, interp: &Interp, info: &DispatchInfo) -> DispatchRecord {
        let gens = (
            self.rdl.table_generation(),
            interp.registry.hierarchy_generation(),
            self.rdl.enforcement_generation(),
        );
        let pair = (info.recv_class, info.entry.id);
        {
            let mut st = self.state.borrow_mut();
            if st.records_gen != gens {
                st.records.clear();
                st.records_gen = gens;
            } else if let Some(rec) = st.records.get(&pair) {
                return rec.clone();
            }
        }
        let rec = self.resolve(interp, info);
        self.state.borrow_mut().records.insert(pair, rec.clone());
        rec
    }

    /// Resolves a dispatch record: the annotation along the receiver's
    /// ancestors (the path dispatch used, over interned symbols), the
    /// cache key, the `pre` gate and the policy. Outlined and cold: a
    /// steady-state dispatch finds its record.
    #[cold]
    #[inline(never)]
    fn resolve(&self, interp: &Interp, info: &DispatchInfo) -> DispatchRecord {
        let annotation = self.rdl.lookup_along(
            interp
                .registry
                .ancestor_syms(info.recv_class)
                .map(|(_, sym)| sym),
            info.class_level,
            info.name,
        );
        let cache_key = MethodKey {
            class: interp.registry.name_sym(info.recv_class),
            class_level: info.class_level,
            method: info.name,
        };
        let policy = match &annotation {
            Some((annotation_key, _)) if !self.rdl.policies_trivial() => {
                self.rdl.policy_for(&cache_key, annotation_key)
            }
            _ => CheckPolicy::Enforce,
        };
        DispatchRecord {
            annotation,
            cache_key,
            pre_named: !self.rdl.no_pre_named(info.name, info.class_level),
            policy,
        }
    }

    /// Counts a blame swallowed by [`CheckPolicy::Shadow`].
    fn note_shadowed_blame(&self) {
        self.state.borrow_mut().stats.shadowed_blames += 1;
    }

    /// Runs the `pre` contracts of a dispatch. Contracts may be registered
    /// against the defining module or any class in the receiver's
    /// ancestry (Fig. 1 registers on the framework module; Fig. 2 style
    /// registers on the mixing class), so they are gathered along the
    /// whole chain. Each proc runs with `self` rebound to the receiver, so
    /// Fig. 1's `type ...` calls inside a `belongs_to` contract target the
    /// model class. The proc ALWAYS runs — contracts are where
    /// metaprogramming libraries generate types (Fig. 1), so skipping them
    /// would change program behaviour; the policy governs only what a
    /// falsy (rejecting) result does.
    #[cold]
    #[inline(never)]
    fn run_pres(
        &self,
        interp: &mut Interp,
        info: &DispatchInfo,
        key: &MethodKey,
        recv: &Value,
        args: &[Value],
    ) -> Result<(), HbError> {
        let reg = &interp.registry;
        let owner_outside = !reg.ancestor_chain(info.recv_class).contains(&info.owner);
        let classes = reg
            .ancestor_syms(info.recv_class)
            .map(|(_, class)| class)
            .chain(owner_outside.then(|| reg.name_sym(info.owner)));
        let pres = self.rdl.pres_along(classes, info.class_level, info.name);
        if pres.is_empty() {
            return Ok(());
        }
        let policy = if self.rdl.policies_trivial() {
            CheckPolicy::Enforce
        } else {
            self.rdl.policy_for(key, key)
        };
        for p in pres {
            let result = interp
                .call_proc(&p.proc_val, args.to_vec(), None, Some(recv.clone()), false)
                .map_err(Flow::into_error)?;
            if result.truthy() || policy == CheckPolicy::Off {
                continue;
            }
            let shadowed = policy == CheckPolicy::Shadow;
            let message = format!("precondition of {} failed", key.display());
            let mut diag = TypeDiagnostic::error(
                DiagCode::PreconditionFailed,
                message.clone(),
                info.span,
                BlameTarget::Annotation(*key),
            )
            .with_method(*key)
            .with_label(
                DiagLabel::new(
                    LabelRole::BlamedAnnotation,
                    "precondition contract registered here",
                    p.span,
                )
                .with_method(*key),
            )
            .with_label(DiagLabel::new(
                LabelRole::CallSite,
                "rejected call made here",
                info.span,
            ));
            if shadowed {
                diag.labels.push(CheckPolicy::shadow_note());
            }
            self.rdl.record_diagnostic(diag.clone());
            if shadowed {
                // Canary mode: the rejection is recorded and counted, the
                // call proceeds.
                self.note_shadowed_blame();
                continue;
            }
            return Err(HbError::with_diagnostic(
                ErrorKind::ContractBlame,
                message,
                info.span,
                diag,
            ));
        }
        Ok(())
    }

    /// Flight-recorder note for a cache hit. Outlined and cold: the
    /// observability-off dispatch path pays one `Cell` load and none of
    /// this body.
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
        let mut arity_ok = false;
        for arm in &entry.sig.arms {
            if !arm.accepts_arity(args.len()) {
                continue;
            }
            arity_ok = true;
            // `value_conforms` accepts type variables as `%any`.
            let all = args.iter().enumerate().all(|(i, a)| {
                arm.param_at(i)
                    .is_some_and(|pt| value_conforms(interp, a, pt))
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
        recv: &Value,
        args: &[Value],
    ) -> Result<HookOutcome, HbError> {
        // Drain before the probe: Definition 1 invalidation can change
        // the table (a reload retracts the inferred signatures of changed
        // bodies), and the probe must see the table the drain leaves.
        self.drain_pending(interp);
        let mut rec = self.record(interp, info);
        if rec.pre_named {
            self.run_pres(interp, info, &rec.cache_key, recv, args)?;
            // A contract can register types (Fig. 2): drain and probe
            // again.
            self.drain_pending(interp);
            rec = self.record(interp, info);
        }
        // Scheduler completions land here, on the interpreter thread —
        // the default (scheduler-less) configuration pays one `Cell`
        // load, keeping the steady-state dispatch path untouched.
        if self.sched_active.get() {
            self.poll_completions(interp);
        }
        self.state.borrow_mut().stats.intercepted_calls += 1;
        let DispatchRecord {
            annotation: Some((annotation_key, table_entry)),
            cache_key,
            pre_named,
            policy,
        } = rec
        else {
            return Ok(HookOutcome::default());
        };
        if policy == CheckPolicy::Off {
            // Type enforcement disabled for this method: no dynamic
            // argument check, no static check, and the body runs
            // unchecked (its own callees fall back to dynamic checks).
            return Ok(HookOutcome::default());
        }

        // Dynamic argument checks: only from unchecked callers, unless the
        // method is flagged always-check (the Rails params exception).
        let need_dyn = !interp.current_caller_checked() || table_entry.always_dyn_check;
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
                self.note_shadowed_blame();
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
                        && interp.tier.bytecode_enabled()
                        && self.caching
                        && self.rdl.policies_trivial()
                        && !pre_named
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
                    self.note_shadowed_blame();
                    Ok(HookOutcome::default())
                }
                Err(e) => Err(e),
            };
        }
        Ok(HookOutcome::default())
    }
}

#[cfg(test)]
mod tests {
    use crate::{ExecTier, Hummingbird};

    fn source(step: &str) -> String {
        format!(
            r#"
class R
  type :inner, "(Fixnum) -> Fixnum", {{ "check" => true }}
  type :driver, "(Fixnum) -> Fixnum", {{ "check" => true }}
  def inner(x)
    x + {step}
  end
  def driver(n)
    inner(n)
  end
end
"#
        )
    }

    #[test]
    fn reload_cycles_leave_the_record_table_the_same_size() {
        let (v1, v2) = (source("1"), source("2"));
        for tier in [ExecTier::TreeWalk, ExecTier::Bytecode] {
            let mut hb = Hummingbird::builder().exec_tier(tier).build();
            hb.load_file("r.rb", &v1).unwrap();
            hb.eval("R.new.driver(1)").unwrap();
            let records = |hb: &Hummingbird| hb.engine.state.borrow().records.len();
            let size = records(&hb);
            assert!(size >= 2, "{tier:?}: driver and inner have records");
            for cycle in 0..200 {
                let (src, step) = if cycle % 2 == 0 { (&v2, 2) } else { (&v1, 1) };
                hb.reload_file("r.rb", src).unwrap();
                let v = hb.eval("R.new.driver(1)").unwrap();
                assert_eq!(format!("{v:?}"), (1 + step).to_string());
                assert_eq!(records(&hb), size, "{tier:?}: cycle {cycle}");
            }
        }
    }
}
