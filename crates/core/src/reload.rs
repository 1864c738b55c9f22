//! Development-mode live reloading (paper §4 "Cache Invalidation" and the
//! §5 "Updates to Talks" experiment).
//!
//! Reloading a file re-evaluates it: classes re-open and `def` overwrites
//! method bodies. The engine diffs old and new CFGs so *unchanged* methods
//! keep their cached derivations; changed methods invalidate themselves and
//! their dependents; removed methods invalidate dependents.

use crate::engine::cfg_store::def_cfg;
use hb_il::collect_method_defs;

/// What a reload changed (feeds Table 2's columns).
#[derive(Debug, Clone, Default)]
pub struct ReloadReport {
    /// Methods whose bodies changed (`Δ Meth`).
    pub changed: Vec<String>,
    /// Newly added methods (`Added`).
    pub added: Vec<String>,
    /// Methods removed by the new version.
    pub removed: Vec<String>,
    /// Dependent cache entries invalidated by this reload (`Deps` counts
    /// dependent *methods*; one cache entry per method key).
    pub dependents_invalidated: u64,
}

/// `Owner#name`, or `Owner.name` for a class-level method.
fn display(owner: &str, class_level: bool, name: &str) -> String {
    format!("{owner}{}{name}", if class_level { "." } else { "#" })
}

impl crate::Hummingbird {
    /// Applies a live update of `name` to the new `src`, Rails-dev-mode
    /// style, and reports what changed. The methods the update removes
    /// are those the program `name` last ran defines and `src` does not.
    ///
    /// # Errors
    ///
    /// Parse errors and runtime errors raised while re-evaluating the file.
    pub fn reload_file(
        &mut self,
        name: &str,
        src: &str,
    ) -> Result<ReloadReport, hb_interp::HbError> {
        let program = self.interp.parse(name, src)?;
        let defs = collect_method_defs(&program);
        let mut report = ReloadReport::default();

        for d in &defs {
            let existing = self.interp.registry.lookup(&d.owner).and_then(|cid| {
                self.interp
                    .registry
                    .find_method_at(cid, &d.name, d.self_method)
            });
            let list = match existing {
                None => &mut report.added,
                Some((_, entry)) => match &entry.body {
                    hb_interp::MethodBody::Ast(old_def)
                        if def_cfg(old_def).same_shape(&def_cfg(&d.def)) =>
                    {
                        continue
                    }
                    _ => &mut report.changed,
                },
            };
            list.push(display(&d.owner, d.self_method, &d.name));
        }

        // Methods present in the previous version of this file but not the
        // new one are removed (invalidating their dependents).
        if let Some(old) = self.programs.insert(name.to_string(), program.clone()) {
            for gone in collect_method_defs(&old) {
                let still = defs.iter().any(|d| {
                    d.owner == gone.owner
                        && d.self_method == gone.self_method
                        && d.name == gone.name
                });
                if !still {
                    if let Some(cid) = self.interp.registry.lookup(&gone.owner) {
                        self.interp
                            .registry
                            .remove_method(cid, &gone.name, gone.self_method);
                        report
                            .removed
                            .push(display(&gone.owner, gone.self_method, &gone.name));
                    }
                }
            }
        }

        // Re-evaluate: re-opens classes, overwrites defs, emitting the
        // events the engine needs.
        let before = self.engine.stats().dependent_invalidations;
        self.interp.eval_program(&program)?;
        self.engine.process_events(&mut self.interp);
        report.dependents_invalidated = self.engine.stats().dependent_invalidations - before;
        Ok(report)
    }
}
