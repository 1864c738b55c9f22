//! The RDL dispatch hook: runs `pre` contracts before intercepted calls.

use crate::state::{CheckPolicy, MethodKey, RdlState};
use hb_interp::{CallHook, DispatchInfo, ErrorKind, Flow, HbError, HookOutcome, Interp, Value};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, TypeDiagnostic};
use std::rc::Rc;

/// Runs `pre` contracts attached to the method being dispatched. The proc
/// executes with `self` rebound to the receiver, so Fig. 1's `type ...`
/// calls inside a `belongs_to` pre-hook target the model class.
pub struct RdlHook {
    pub state: Rc<RdlState>,
}

impl CallHook for RdlHook {
    fn before_call(
        &self,
        interp: &mut Interp,
        info: &DispatchInfo,
        recv: &Value,
        args: &[Value],
    ) -> Result<HookOutcome, HbError> {
        // Fast path: no pre under this method name — one map probe.
        if self.state.no_pre_named(info.name, info.class_level) {
            return Ok(HookOutcome::default());
        }
        // Pre contracts may be registered against the defining module or any
        // class in the receiver's ancestry (Fig. 1 registers on the
        // framework module; Fig. 2 style registers on the mixing class), so
        // gather along the whole chain — by interned symbol, no strings.
        let reg = &interp.registry;
        let owner_outside = !reg.ancestor_chain(info.recv_class).contains(&info.owner);
        let classes = reg
            .ancestor_syms(info.recv_class)
            .map(|(_, class)| class)
            .chain(owner_outside.then(|| reg.name_sym(info.owner)));
        let pres = self.state.pres_along(classes, info.class_level, info.name);
        if pres.is_empty() {
            return Ok(HookOutcome::default());
        }
        let key = MethodKey {
            class: interp.registry.name_sym(info.recv_class),
            class_level: info.class_level,
            method: info.name,
        };
        // Enforcement policy for this method. The proc itself ALWAYS runs
        // — pre hooks are where metaprogramming libraries generate types
        // (Fig. 1), so skipping them would change program behaviour; the
        // policy governs only what a falsy (rejecting) result does.
        let policy = if self.state.policies_trivial() {
            CheckPolicy::Enforce
        } else {
            self.state.policy_for(&key, &key)
        };
        for p in pres {
            let result = interp
                .call_proc(&p.proc_val, args.to_vec(), None, Some(recv.clone()), false)
                .map_err(Flow::into_error)?;
            if !result.truthy() {
                if policy == CheckPolicy::Off {
                    continue;
                }
                let shadowed = policy == CheckPolicy::Shadow;
                let message = format!("precondition of {} failed", key.display());
                let mut diag = TypeDiagnostic::error(
                    DiagCode::PreconditionFailed,
                    message.clone(),
                    info.span,
                    BlameTarget::Annotation(key),
                )
                .with_method(key)
                .with_label(
                    DiagLabel::new(
                        LabelRole::BlamedAnnotation,
                        "precondition contract registered here",
                        p.span,
                    )
                    .with_method(key),
                )
                .with_label(DiagLabel::new(
                    LabelRole::CallSite,
                    "rejected call made here",
                    info.span,
                ));
                if shadowed {
                    diag.labels.push(CheckPolicy::shadow_note());
                }
                self.state.record_diagnostic(diag.clone());
                if shadowed {
                    // Canary mode: the rejection is recorded and counted,
                    // the call proceeds.
                    self.state.note_shadowed_blame();
                    continue;
                }
                return Err(HbError::with_diagnostic(
                    ErrorKind::ContractBlame,
                    message,
                    info.span,
                    diag,
                ));
            }
        }
        Ok(HookOutcome::default())
    }
}
