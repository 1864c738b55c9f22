//! Development-mode live reloading (paper §4 "Cache Invalidation" and the
//! §5 "Updates to Talks" experiment).
//!
//! Reloading a file re-evaluates it: classes re-open and `def` overwrites
//! method bodies. The engine diffs old and new CFGs so *unchanged* methods
//! keep their cached derivations; changed methods invalidate themselves and
//! their dependents; removed methods invalidate dependents.

use hb_il::{collect_method_defs, lower_method};
use hb_syntax::Program;

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

/// A method signature as tracked per file: `(owner, class_level, name)`.
pub type FileMethod = (String, bool, String);

impl crate::Hummingbird {
    /// Applies a live update of `name` to the new `src`, Rails-dev-mode
    /// style, and reports what changed.
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
        let mut new_set: Vec<FileMethod> = Vec::new();

        for d in &defs {
            new_set.push((d.owner.clone(), d.self_method, d.name.clone()));
            let display = format!(
                "{}{}{}",
                d.owner,
                if d.self_method { "." } else { "#" },
                d.name
            );
            let existing = self.interp.registry.lookup(&d.owner).and_then(|cid| {
                self.interp
                    .registry
                    .find_method_at(cid, &d.name, d.self_method)
            });
            match existing {
                None => report.added.push(display),
                Some((_, entry)) => match &entry.body {
                    hb_interp::MethodBody::Ast(old_def) => {
                        let old_cfg = lower_method(old_def);
                        let new_cfg = lower_method(&d.def);
                        if !old_cfg.same_shape(&new_cfg) {
                            report.changed.push(display);
                        }
                    }
                    _ => report.changed.push(display),
                },
            }
        }

        // Methods present in the previous version of this file but not the
        // new one are removed (invalidating their dependents).
        if let Some(old_set) = self.file_methods.get(name).cloned() {
            for (owner, class_level, mname) in old_set {
                let still = new_set
                    .iter()
                    .any(|(o, l, n)| o == &owner && *l == class_level && n == &mname);
                if !still {
                    if let Some(cid) = self.interp.registry.lookup(&owner) {
                        self.interp.registry.remove_method(cid, &mname, class_level);
                        report.removed.push(format!(
                            "{}{}{}",
                            owner,
                            if class_level { "." } else { "#" },
                            mname
                        ));
                    }
                }
            }
        }
        self.file_methods.insert(name.to_string(), new_set);

        // Re-evaluate: re-opens classes, overwrites defs, emitting the
        // events the engine needs.
        let before = self.engine.stats().dependent_invalidations;
        self.interp.eval_program(&program)?;
        self.engine.process_events(&mut self.interp);
        report.dependents_invalidated = self.engine.stats().dependent_invalidations - before;
        Ok(report)
    }
}

/// The methods a program defines: the reload diffing baseline
/// [`crate::Hummingbird::load_file`] records for each file.
pub(crate) fn file_methods(program: &Program) -> Vec<FileMethod> {
    collect_method_defs(program)
        .into_iter()
        .map(|d| (d.owner, d.self_method, d.name))
        .collect()
}
