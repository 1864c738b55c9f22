//! Definition 1 invalidation: interpreter and type-table events retire the
//! cached derivations they could falsify, together with their dependents
//! and their patched fast entries.

use super::cfg_store::entry_cfg;
use super::{body_fingerprint, captured_env, Engine, EngineState};
use hb_il::{InstrKind, MethodCfg, Rvalue};
use hb_intern::Sym;
use hb_interp::{ClassId, Interp, InterpEvent, MethodEntry};
use hb_rdl::{AnnotationSource, MethodKey, RdlEvent};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

impl Engine {
    /// Processes pending interpreter and RDL events, performing
    /// Definition 1 invalidation.
    pub fn process_events(&self, interp: &mut Interp) {
        let ievents = interp.drain_events();
        let revents = self.rdl.drain_events();
        if ievents.is_empty() && revents.is_empty() {
            return;
        }
        let mut st = self.state.borrow_mut();
        // Inferred annotations on methods whose body just changed: the
        // signature was derived from the *old* body, so it is retracted
        // (not enforced) once the main borrow ends — see below.
        let mut retract: Vec<MethodKey> = Vec::new();
        for ev in ievents {
            // Method creation happens in the annotate/metaprogramming phase.
            st.phase.note_annotation();
            match ev {
                InterpEvent::MethodRedefined {
                    class,
                    name,
                    class_level,
                    old,
                    new,
                } => {
                    let key = key_of(interp, class, &name, class_level);
                    if let Some((old_cfg, new_cfg)) = same_body(interp, &old, &new) {
                        // Same body: re-point cached derivations at the new
                        // entry instead of invalidating (paper §4), stamped
                        // with the new text's body fingerprint and cast
                        // sites. Only this engine's copies change: the
                        // shared tier keeps what was published.
                        let captured = captured_env(interp, &new);
                        let body_fp = body_fingerprint(interp, &new, captured.as_ref());
                        let mut repointed: Vec<MethodKey> = Vec::new();
                        for (key, d) in st.cache.iter_mut().filter(|(_, d)| d.entry_id == old.id) {
                            d.entry_id = new.id;
                            d.body_fp = body_fp;
                            move_casts(&mut d.cast_sites, &old_cfg, &new_cfg);
                            repointed.push(*key);
                        }
                        // The derivation survives the reload, but any fast
                        // entry was patched against the retired entry id:
                        // deoptimize, and let the next guarded dispatch
                        // re-admit it against the new id.
                        repointed.iter().for_each(|key| st.depatch(key));
                    } else {
                        st.note_change(|| key, |r| &mut r.changed);
                        Self::invalidate(&mut st, &key);
                        // An inferred signature was evidence about the
                        // old body, not user intent about the new one:
                        // retract it rather than enforce it against a
                        // body it never saw.
                        if self
                            .rdl
                            .entry(&key)
                            .is_some_and(|e| e.source == AnnotationSource::Inferred)
                        {
                            retract.push(key);
                        }
                    }
                    // The retired entry id can never be dispatched again;
                    // dropping its dispatch records keeps long reload
                    // sessions bounded.
                    st.records.retain(|&(_, id), _| id != old.id);
                }
                InterpEvent::MethodRemoved {
                    class,
                    name,
                    class_level,
                    entry,
                } => {
                    let key = key_of(interp, class, &name, class_level);
                    st.note_change(|| key, |r| &mut r.removed);
                    Self::invalidate(&mut st, &key);
                    st.records.retain(|&(_, id), _| id != entry.id);
                }
                InterpEvent::ModuleIncluded { class, module } => {
                    // A post-first-call include changes annotation
                    // resolution for the including class's chain: module
                    // annotations may shadow ancestor annotations.
                    self.invalidate_module_shadowed(&mut st, interp, class, module);
                    // Directly cached derivations self-heal lazily (version
                    // mismatch at the next check) — a patched fast entry
                    // skips that check, so deoptimize everything.
                    st.flush_fast_entries();
                }
                InterpEvent::MethodAdded {
                    class,
                    name,
                    class_level,
                } => {
                    // New methods have no cached derivations, and directly
                    // cached overridees self-heal via the entry-id check.
                    st.note_change(
                        || key_of(interp, class, &name, class_level),
                        |r| &mut r.added,
                    );
                }
            }
        }
        for ev in revents {
            st.phase.note_annotation();
            match ev {
                // Adding a new arm re-checks the method itself (version
                // mismatch at next hit) but leaves dependents valid —
                // the §4 "Cache Invalidation" intersection subtlety.
                RdlEvent::ArmAdded(key) => {
                    st.retire(&key);
                    // Version bumped: the memoised fingerprints of this
                    // key's retired versions can never be probed again —
                    // drop them so long reload sessions stay bounded.
                    st.sig_fps.retain(|(k, _), _| *k != key);
                }
                RdlEvent::TypeReplaced(key) => {
                    Self::invalidate(&mut st, &key);
                    st.sig_fps.retain(|(k, _), _| *k != key);
                }
                // A brand-new annotation can shadow an ancestor's along
                // some receiver chain — a resolution change, not a
                // signature change, so it needs its own invalidation.
                RdlEvent::TypeAdded(key) => {
                    self.invalidate_shadowed(&mut st, interp, &key);
                }
            }
        }
        // Retraction mutates the type table, which flushes the fast
        // entries, outside the state borrow. The retractions' own
        // events are then drained by re-entering — guaranteed to
        // terminate because retracted entries are gone.
        drop(st);
        let mut retracted = false;
        for key in &retract {
            retracted |= self.rdl.retract_inferred(key);
        }
        if retracted {
            self.process_events(interp);
        }
    }

    /// Removes a cache entry and every entry that depends on it —
    /// Definition 1. Counts only actual removals: invalidating a key that
    /// was never cached (or already invalidated) is a no-op, not a
    /// statistic.
    fn invalidate(st: &mut EngineState, key: &MethodKey) {
        if st.retire(key) {
            st.stats.invalidations += 1;
            Self::note_invalidated(st, key);
        }
        let deps = st.dependents.remove(key);
        Self::invalidate_dependents(st, deps);
    }

    /// Records an invalidation in the flight recorder (and, when the
    /// bytecode tier holds a fast entry for the key, the matching deopt).
    fn note_invalidated(st: &EngineState, key: &MethodKey) {
        if let Some(obs) = &st.obs {
            obs.record(hb_obs::EventKind::Invalidate, *key);
            if st.tier.is_some() {
                obs.record(hb_obs::EventKind::Deopt, *key);
            }
        }
    }

    /// Retires every cache entry in an edge set taken from `dependents`
    /// or `neg_dependents` — Definition 1(2).
    fn invalidate_dependents(st: &mut EngineState, deps: Option<HashSet<MethodKey>>) {
        for d in deps.into_iter().flatten() {
            if st.retire(&d) {
                st.stats.dependent_invalidations += 1;
                Self::note_invalidated(st, &d);
            }
        }
    }

    /// Retires every cache entry whose derivation relied on a `(method,
    /// class_level)` lookup resolving to nothing — the None→Some half of
    /// resolution-change invalidation, where there is no shadowed entry
    /// for [`Engine::invalidate_shadowed`]'s walk to find.
    fn invalidate_neg_dependents(st: &mut EngineState, method: Sym, class_level: bool) {
        let deps = st.neg_dependents.remove(&(method, class_level));
        Self::invalidate_dependents(st, deps);
    }

    /// Handles a resolution change: a new annotation at `key` (or a
    /// module annotation newly mixed into a chain) can *shadow* an
    /// ancestor's annotation — receivers that used to resolve
    /// `key.method` to the ancestor's signature now resolve to `key`'s,
    /// so derivations that consulted the shadowed signature are stale
    /// even though that signature itself never changed. This is
    /// Definition 1 validity about what (TApp) *resolves to*, not merely
    /// the entries it read. Directly cached methods self-heal (their
    /// stored `sig_version` no longer matches the newly resolved entry),
    /// but dependents must be invalidated here.
    fn invalidate_shadowed(&self, st: &mut EngineState, interp: &Interp, key: &MethodKey) {
        // Everything below only removes dependency edges: with none
        // recorded (every annotation before the first check) there is
        // nothing to walk for.
        if st.dependents.is_empty() && st.neg_dependents.is_empty() {
            return;
        }
        // None→Some: derivations that relied on this name having *no*
        // annotation anywhere (unannotated-constructor `new`, class-level
        // fallback misses) have no shadowed entry to find below — their
        // negative edges carry the invalidation.
        Self::invalidate_neg_dependents(st, key.method, key.class_level);
        let Some(cid) = interp.registry.lookup(key.class.as_str()) else {
            return;
        };
        // Chains through `key.class` itself.
        self.invalidate_shadowed_along(st, interp, cid, key);
        // A module annotation also shadows along the chain of every class
        // that mixed the module in.
        if interp.registry.class(cid).is_module {
            for i in 0..interp.registry.class_count() as u32 {
                let c = ClassId(i);
                if c != cid && interp.registry.ancestor_chain(c).contains(&cid) {
                    self.invalidate_shadowed_along(st, interp, c, key);
                }
            }
        }
        // A new class-level annotation also shadows the checker's
        // fallback resolution of class-level calls through `Class`'s
        // *instance* chain (see the checker's main lookup).
        if key.class_level {
            if let Some(class_cid) = interp.registry.lookup("Class") {
                let chain = interp.registry.ancestor_syms(class_cid).map(|(_, a)| a);
                if let Some((shadowed, _)) = self.rdl.lookup_along(chain, false, key.method) {
                    let deps = st.dependents.remove(&shadowed);
                    Self::invalidate_dependents(st, deps);
                }
            }
        }
    }

    /// Walks `start`'s ancestor chain past `key.class` and invalidates the
    /// dependents of the first annotation `key` now shadows along that
    /// chain. Local tier only, like all invalidation: shared entries carry
    /// resolution witnesses, and replay at adoption rejects anything the
    /// new key shadows.
    fn invalidate_shadowed_along(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        start: ClassId,
        key: &MethodKey,
    ) {
        // The first annotation after `key.class` is what resolution
        // through this chain previously returned; deeper entries were
        // already shadowed by it.
        let past_new = interp
            .registry
            .ancestor_syms(start)
            .map(|(_, ancestor)| ancestor)
            .skip_while(|ancestor| *ancestor != key.class)
            .filter(|ancestor| *ancestor != key.class);
        if let Some((shadowed, _)) = self.rdl.lookup_along(past_new, key.class_level, key.method) {
            let deps = st.dependents.remove(&shadowed);
            Self::invalidate_dependents(st, deps);
        }
    }

    /// [`Engine::invalidate_shadowed`] for a post-first-call `include`:
    /// every annotation keyed on the module may now shadow an annotation
    /// further along the including class's chain.
    fn invalidate_module_shadowed(
        &self,
        st: &mut EngineState,
        interp: &Interp,
        class: ClassId,
        module: ClassId,
    ) {
        // As in `invalidate_shadowed`: with no dependency edge recorded
        // (every boot-time include) there is nothing to remove, so the
        // table's keys are not even listed.
        if st.dependents.is_empty() && st.neg_dependents.is_empty() {
            return;
        }
        let module_sym = interp.registry.name_sym(module);
        for mk in self
            .rdl
            .keys()
            .into_iter()
            .filter(|k| k.class == module_sym)
        {
            // The include may make a previously-missing lookup resolve to
            // this module annotation (None→Some along the new chain).
            Self::invalidate_neg_dependents(st, mk.method, mk.class_level);
            self.invalidate_shadowed_along(st, interp, class, &mk);
        }
    }
}

/// The cache key of `class`'s method `name`.
fn key_of(interp: &Interp, class: ClassId, name: &str, class_level: bool) -> MethodKey {
    MethodKey {
        class: interp.registry.name_sym(class),
        class_level,
        method: Sym::intern(name),
    }
}

/// The one same-body decision (paper §4 "Cache Invalidation"): `new` is
/// `old`'s body again when their CFGs, both from the thread's store, are
/// equal up to spans and, for a `define_method` proc, its captured locals
/// have the same types (Fig. 2). Returns both CFGs when it is.
fn same_body(
    interp: &Interp,
    old: &MethodEntry,
    new: &MethodEntry,
) -> Option<(Arc<MethodCfg>, Arc<MethodCfg>)> {
    let (old_cfg, new_cfg) = (entry_cfg(old)?, entry_cfg(new)?);
    (old_cfg.same_shape(&new_cfg) && captured_env(interp, old) == captured_env(interp, new))
        .then_some((old_cfg, new_cfg))
}

/// The spans of `cfg`'s `rdl_cast` instructions, its block literals'
/// included, as `(file, lo, hi)` in lowering order: two shape-equal CFGs
/// list the same casts in the same order.
fn cast_spans(cfg: &MethodCfg, out: &mut Vec<(u32, u32, u32)>) {
    for instr in cfg.blocks.iter().flat_map(|b| &b.instrs) {
        if let InstrKind::Assign {
            rv: Rvalue::Cast { .. },
            ..
        } = instr.kind
        {
            out.push((instr.span.file.0, instr.span.lo, instr.span.hi));
        }
    }
    for lit in &cfg.block_lits {
        cast_spans(&lit.cfg, out);
    }
}

/// Moves `sites`, cast sites checked in `old`, to the positions of the
/// same casts in the shape-equal `new`.
fn move_casts(sites: &mut Arc<[(u32, u32, u32)]>, old: &MethodCfg, new: &MethodCfg) {
    if sites.is_empty() {
        return;
    }
    let (mut from, mut to) = (Vec::new(), Vec::new());
    cast_spans(old, &mut from);
    cast_spans(new, &mut to);
    let moved: BTreeSet<_> = sites
        .iter()
        .map(|site| from.iter().position(|s| s == site).map_or(*site, |i| to[i]))
        .collect();
    *sites = moved.into_iter().collect();
}

#[cfg(test)]
mod tests {
    use super::super::body_fingerprint;
    use crate::Hummingbird;
    use hb_interp::MethodBody;
    use hb_rdl::MethodKey;

    fn version(pad: &str) -> String {
        format!("class Restamp\n{pad}  def m(x)\n    x.rdl_cast(\"Fixnum\")\n  end\nend\n")
    }

    #[test]
    fn a_kept_derivation_takes_the_new_texts_identity() {
        let mut hb = Hummingbird::builder().build();
        hb.load_file("restamp.rb", &version("")).unwrap();
        hb.eval(
            "class Restamp\n  type :m, \"(Object) -> Fixnum\", { \"check\" => true }\nend\n\
             Restamp.new.m(1)",
        )
        .unwrap();
        // The same shape, one line down.
        let report = hb.reload_file("restamp.rb", &version("\n")).unwrap();
        assert!(report.changed.is_empty(), "{report:?}");
        let cid = hb.interp.registry.lookup("Restamp").unwrap();
        let (_, entry) = hb.interp.registry.find_method(cid, "m").unwrap();
        let MethodBody::Ast(def) = &entry.body else {
            panic!("m is a def");
        };
        let key = MethodKey::instance("Restamp", "m");
        let d = hb.engine.state.borrow().cache.get(&key).cloned().unwrap();
        assert_eq!(d.entry_id, entry.id);
        assert_eq!(d.body_fp, body_fingerprint(&hb.interp, &entry, None));
        let [(file, lo, hi)] = d.cast_sites[..] else {
            panic!("one cast site: {:?}", d.cast_sites);
        };
        assert_eq!(file, def.span.file.0, "the new text's file");
        let text = &hb.source_map().file(def.span.file).unwrap().text;
        assert_eq!(&text[lo as usize..hi as usize], "x.rdl_cast(\"Fixnum\")");
        hb.eval("Restamp.new.m(2)").unwrap();
        assert_eq!(hb.stats().checks_performed, 1, "the derivation was kept");
    }
}
