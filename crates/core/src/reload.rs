//! Development-mode live reloading (paper §4 "Cache Invalidation" and the
//! §5 "Updates to Talks" experiment).
//!
//! Reloading a file re-evaluates it: classes re-open and `def` overwrites
//! method bodies. The engine judges every redefinition as it processes
//! the interpreter's events, once: a method whose body is unchanged keeps
//! its cached derivation, a changed one invalidates itself and its
//! dependents, and a removed one invalidates its dependents. The report
//! is that judgement, recorded while the reload runs.

use hb_il::collect_method_defs;

/// What a reload changed (feeds Table 2's columns), as the engine judged
/// it. "Added" and "removed" refer to the class's own method table: a
/// method defined over an inherited one is added, and a method removed
/// before the reload is not removed by it.
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

impl crate::Hummingbird {
    /// Applies a live update of `name` to the new `src`, Rails-dev-mode
    /// style, and reports what changed. The methods the update removes
    /// are those the program `name` last ran defines and `src` does not.
    /// Each method is reported once, under the first change the engine
    /// judged for it while the reload ran.
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
        // Events raised before the reload are not part of it.
        self.engine.process_events(&mut self.interp);
        self.engine.start_recording();
        // Methods present in the previous version of this file but not the
        // new one are removed (invalidating their dependents).
        if let Some(old) = self.programs.insert(name.to_string(), program.clone()) {
            let defs = collect_method_defs(&program);
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
                    }
                }
            }
        }
        // Re-evaluate: re-opens classes and overwrites defs, emitting the
        // events the engine judges. Recording stops even when it fails.
        let ran = self.interp.eval_program(&program);
        self.engine.process_events(&mut self.interp);
        let report = self.engine.stop_recording();
        ran.map(|_| report)
    }
}
