//! The Hummingbird engine: just-in-time static type checking at method
//! entry, with a memoised derivation cache (paper §3's 𝒳) and Definition-1
//! invalidation.
//!
//! The engine is a dispatch hook ([`hb_interp::CallHook`]): when an
//! annotated method is called it (a) runs any needed dynamic argument
//! checks (rules (EApp*), minimised per §4 "Eliminating Dynamic Checks"),
//! and (b) if the method is marked for checking, statically checks its
//! body against the *current* type table — once, caching the outcome keyed
//! by the receiver's class.
//!
//! The engine is split by concern:
//!
//! * `hook` — the dispatch hook and dynamic argument checks;
//! * `check` — obtaining a derivation: cache probe, shared-tier adoption,
//!   deferral, or a synchronous `check_sig`; and whole-program `check_all`;
//! * `land` — the derivation funnel: the one adoption test for foreign
//!   derivations, the one place a derivation is stored, and the one place
//!   a check is accounted. The soundness argument lives there;
//! * `invalidate` — Definition 1 invalidation from interpreter and type
//!   table events;
//! * `schedule` — task extraction, deferred admission and harvest for the
//!   concurrent scheduler.

mod check;
mod hook;
mod invalidate;
mod land;
mod schedule;

use crate::derivation::{Derivation, Epochs};
use crate::obs::EngineObs;
use crate::shared_cache::{SharedCache, SharedEvictionSink};
use crate::stats::{CheckLogItem, EngineStats, PhaseTracker};
use hb_check::CheckOptions;
use hb_il::{lower_block_body, lower_method, MethodCfg};
use hb_intern::Sym;
use hb_interp::{ExecTierState, Interp, MethodBody, MethodEntry};
use hb_rdl::{type_of, MethodKey, RdlEvent, RdlEventSink, RdlState, Resolution, TableEntry};
use hb_sched::{CompletionQueue, Scheduler, WorldSnapshot};
use hb_syntax::TypeDiagnostic;
use hb_types::TypeEnv;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// Engine configuration — the evaluation's three modes are built from
/// these switches.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Master switch: when false the hook does nothing (used with cleared
    /// hooks for the "Orig" column).
    pub enabled: bool,
    /// Memoise static checks (off for the "No$" column).
    pub caching: bool,
    /// Dynamically check arguments from unchecked callers.
    pub dyn_arg_checks: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            enabled: true,
            caching: true,
            dyn_arg_checks: true,
        }
    }
}

/// One cached derivation as reported by [`Engine::cache_dump`]: the cache
/// key plus everything its validity depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDumpEntry {
    /// The receiver-class cache key (paper §4 "Modules": module methods
    /// appear once per mix-in class).
    pub key: MethodKey,
    /// The method-table entry id the derivation was checked against.
    pub method_entry_id: u64,
    /// The annotation version the derivation was checked against.
    pub sig_version: u64,
    /// The annotation keys rule (TApp) consulted — Definition 1(2)'s
    /// dependency set; replacing any of these invalidates this entry.
    pub deps: Vec<MethodKey>,
}

/// Memo key for witness replay: (start, skip_receiver, class_level, method).
type ReplayKey = (Sym, bool, bool, Sym);
/// A replayed lookup's answer: (resolved key, its version, its sig fingerprint).
type ReplayResult = (MethodKey, u64, u64);

#[derive(Default)]
struct EngineState {
    /// Keyed with [`hb_intern::FastMap`]: `ensure_checked` probes this
    /// map on every intercepted call of a check-flagged method.
    cache: hb_intern::FastMap<MethodKey, Derivation>,
    /// dep (annotation key) → cache keys whose derivations used it.
    dependents: HashMap<MethodKey, HashSet<MethodKey>>,
    /// `(method, class_level)` → cache keys whose derivations relied on
    /// that lookup resolving to *nothing* (see [`Derivation::neg_deps`]).
    /// Conservative — keyed by name, not receiver chain — so a first-ever
    /// annotation may re-check a method whose chain never sees it; a
    /// re-check is cheap and the edge map stays receiver-independent.
    neg_dependents: HashMap<(Sym, bool), HashSet<MethodKey>>,
    /// Lowered bodies by method-entry id (also used for reload diffing).
    /// `Arc` so a scheduler `CheckTask` captures the CFG without a deep
    /// clone — lowering is cold-path either way.
    cfgs: HashMap<u64, Arc<MethodCfg>>,
    /// Memoised signature-content fingerprints by (key, version).
    sig_fps: HashMap<(MethodKey, u64), u64>,
    /// Memoised replay results per resolution witness, valid for one
    /// (type-table, class-hierarchy) generation pair — the warm tenants'
    /// adoption fast path validates whole dependency sets from this map.
    dep_memo: HashMap<ReplayKey, Option<ReplayResult>>,
    /// The (table, hierarchy) generations `dep_memo` was built at.
    dep_memo_gen: (u64, u64),
    /// Cache keys with a scheduled check task in flight (enqueued, not
    /// yet harvested) — deduplicates deferred admissions so a hot cold
    /// method enqueues one task, not one per call.
    in_flight: HashSet<MethodKey>,
    /// Memoised world snapshot for task extraction, keyed by the epoch
    /// fingerprints it was captured at — a burst of extractions against a
    /// quiescent table pays for one capture.
    world_memo: Option<(Epochs, Arc<WorldSnapshot>)>,
    /// The interpreter's execution-tier state, when the bytecode tier is
    /// attached. Every path that retires a cached derivation deoptimizes
    /// its fast entry here — the patch table must never outlive the
    /// derivation it was admitted under (Definition 1).
    tier: Option<Rc<ExecTierState>>,
    /// The observability collector, when the embedding asked for one
    /// ([`crate::HummingbirdBuilder::observability`]). `None` is the off
    /// state: no registry, no ring, no recording anywhere.
    obs: Option<Rc<EngineObs>>,
    stats: EngineStats,
    phase: PhaseTracker,
}

impl EngineState {
    /// True when `key`'s cached derivation was built from body entry
    /// `entry_id` against signature version `sig_version` — the hot-tier
    /// hit test.
    #[inline]
    fn holds(&self, key: &MethodKey, entry_id: u64, sig_version: u64) -> bool {
        self.cache
            .get(key)
            .is_some_and(|d| d.entry_id == entry_id && d.sig_version == sig_version)
    }

    /// Deoptimizes one fast entry (no-op without the bytecode tier).
    fn depatch(&self, key: &MethodKey) {
        if let Some(t) = &self.tier {
            t.depatch(key);
        }
    }

    /// Deoptimizes every fast entry (no-op without the bytecode tier).
    fn flush_fast_entries(&self) {
        if let Some(t) = &self.tier {
            t.flush_all();
        }
    }

    fn sig_fp(&mut self, key: MethodKey, entry: &TableEntry) -> u64 {
        *self
            .sig_fps
            .entry((key, entry.version))
            .or_insert_with(|| entry.sig_fingerprint())
    }

    /// Replays a (TApp) resolution witness against the *current* table and
    /// class hierarchy, memoised per generation pair: what does looking
    /// `res.method` up along `res.start`'s chain resolve to right now?
    /// Uses the same chain the checker uses ([`crate::RegistryInfo::ancestors`]),
    /// so replay answers exactly match a hypothetical re-check.
    fn replay(
        &mut self,
        interp: &Interp,
        rdl: &RdlState,
        res: &Resolution,
    ) -> Option<ReplayResult> {
        let memo_key: ReplayKey = (res.start, res.skip_receiver, res.class_level, res.method);
        if let Some(c) = self.dep_memo.get(&memo_key) {
            return *c;
        }
        // Same chain the checker walks (`RegistryInfo::ancestors`), built
        // from interned syms with no string allocation: registry chain if
        // the class exists (plus trailing Object for module chains),
        // `[start, Object]` otherwise.
        let object = Sym::intern("Object");
        let mut chain: Vec<Sym> = match interp.registry.lookup(res.start.as_str()) {
            Some(cid) => interp.registry.ancestor_syms(cid).map(|(_, s)| s).collect(),
            None => vec![res.start],
        };
        if chain.last() != Some(&object) {
            chain.push(object);
        }
        let skip = usize::from(res.skip_receiver);
        let cur = rdl
            .lookup_along(chain.into_iter().skip(skip), res.class_level, res.method)
            .map(|(k, e)| {
                let fp = self.sig_fp(k, &e);
                (k, e.version, fp)
            });
        self.dep_memo.insert(memo_key, cur);
        cur
    }
}

/// The engine. Shared between the interpreter hook registration and the
/// host application through `Rc`.
pub struct Engine {
    pub rdl: Rc<RdlState>,
    config: RefCell<Config>,
    state: RefCell<EngineState>,
    check_opts: CheckOptions,
    /// Retention bound for the check log between drains (see
    /// [`crate::stats::DEFAULT_CHECK_LOG_CAP`]; builder-configured).
    check_log_cap: Cell<usize>,
    /// High-water cap on in-flight deferred admissions (see
    /// [`crate::stats::DEFAULT_DEFERRED_CAP`]; builder-configured). At the
    /// cap, a cold `Deferred` call sheds to a synchronous Enforce check.
    deferred_cap: Cell<usize>,
    /// The process-wide shared derivation tier, when this engine is one
    /// tenant of many (see [`crate::shared_cache`]). `None` keeps the
    /// engine purely per-process, exactly as before.
    shared: RefCell<Option<Arc<SharedCache>>>,
    /// The concurrent check scheduler, when attached (deferred JIT
    /// admission and parallel `check_all`). Pools may be shared by many
    /// tenants; completions route back through `completions`.
    sched: RefCell<Option<Arc<Scheduler>>>,
    /// This engine's completion channel: every task it extracts carries a
    /// clone, and results are harvested on the interpreter thread.
    completions: Arc<CompletionQueue>,
    /// One-`Cell`-load hot-path test: true once a scheduler is attached,
    /// so the default (scheduler-less) dispatch path never probes the
    /// completion queue.
    sched_active: Cell<bool>,
    /// One-`Cell`-load hot-path test for observability, same discipline
    /// as `sched_active`: the default (off) dispatch path pays exactly
    /// this load and the recording calls are outlined behind it.
    obs_active: Cell<bool>,
}

impl Engine {
    /// Creates an engine over the given RDL state.
    pub fn new(rdl: Rc<RdlState>) -> Engine {
        Engine {
            rdl,
            config: RefCell::new(Config::default()),
            state: RefCell::new(EngineState::default()),
            check_opts: CheckOptions::default(),
            check_log_cap: Cell::new(crate::stats::DEFAULT_CHECK_LOG_CAP),
            deferred_cap: Cell::new(crate::stats::DEFAULT_DEFERRED_CAP),
            shared: RefCell::new(None),
            sched: RefCell::new(None),
            completions: Arc::new(CompletionQueue::new()),
            sched_active: Cell::new(false),
            obs_active: Cell::new(false),
        }
    }

    /// Turns on observability at `level`, allocating the collector
    /// (registry, metric handles, and — at [`hb_obs::ObsLevel::Trace`] —
    /// the event ring). [`hb_obs::ObsLevel::Off`] drops the collector and
    /// returns the hot paths to their single-`Cell`-load cost.
    pub fn set_observability(&self, level: hb_obs::ObsLevel) {
        let mut st = self.state.borrow_mut();
        if level == hb_obs::ObsLevel::Off {
            st.obs = None;
            self.obs_active.set(false);
        } else {
            st.obs = Some(Rc::new(EngineObs::new(level)));
            self.obs_active.set(true);
        }
    }

    /// The observability collector, when one is active.
    pub fn obs(&self) -> Option<Rc<EngineObs>> {
        self.state.borrow().obs.clone()
    }

    /// Sets the retention bound of the check log (zero disables logging;
    /// shrinking below the current length drops oldest entries at the
    /// next push).
    pub fn set_check_log_cap(&self, cap: usize) {
        self.check_log_cap.set(cap);
    }

    /// Sets the high-water cap on in-flight deferred admissions. At the
    /// cap, further cold `Deferred` calls fall back to a synchronous
    /// Enforce check (counted in `EngineStats::deferred_shed`) instead of
    /// growing the queue without bound.
    pub fn set_deferred_cap(&self, cap: usize) {
        self.deferred_cap.set(cap);
    }

    /// Retires local derivations for the given methods: each key's cached
    /// entry is invalidated along with its dependents, and any patched
    /// fast entry is deoptimized back to the guarded prologue. The fleet
    /// client calls this after applying a daemon delta (covered or
    /// tombstoned families must be re-validated, not trusted).
    pub fn retire_methods(&self, keys: &[MethodKey]) {
        let mut st = self.state.borrow_mut();
        for key in keys {
            Self::invalidate(&mut st, key);
        }
    }

    /// Folds one fleet-sync round's counters into the engine statistics
    /// (the fleet session runs outside the engine borrow).
    pub(crate) fn add_fleet_counters(
        &self,
        fetches: u64,
        deltas: u64,
        publishes: u64,
        evictions: u64,
    ) {
        let mut st = self.state.borrow_mut();
        st.stats.fleet_fetches += fetches;
        st.stats.fleet_deltas += deltas;
        st.stats.fleet_publishes += publishes;
        st.stats.fleet_evictions += evictions;
    }

    /// Attaches the interpreter's execution-tier state so derivation
    /// invalidation deoptimizes patched fast entries, and registers an
    /// emission-time flush: any type-table mutation or enforcement change
    /// drops every fast entry *synchronously*, before the mutating call
    /// returns — a patched entry skips the hook probe entirely, so it
    /// cannot be left to notice staleness lazily.
    pub fn attach_exec_tier(&self, tier: Rc<ExecTierState>) {
        self.state.borrow_mut().tier = Some(tier.clone());
        self.rdl.add_event_sink(Rc::new(FastFlushSink { tier }));
    }

    /// Attaches the process-wide shared derivation tier, making this
    /// engine a tenant: local cache misses probe the shared tier before
    /// running the checker, performed checks publish to it, and this
    /// tenant's type-table mutations fan out evictions to it. Call once
    /// per engine, ideally before app code loads.
    pub fn set_shared_cache(&self, shared: Arc<SharedCache>) {
        self.rdl.add_event_sink(Rc::new(SharedEvictionSink {
            shared: shared.clone(),
        }));
        *self.shared.borrow_mut() = Some(shared);
    }

    /// The attached shared tier, if any.
    pub fn shared_cache(&self) -> Option<Arc<SharedCache>> {
        self.shared.borrow().clone()
    }

    /// Loads a snapshot into the attached shared tier of a *live* system —
    /// the rolling-deploy artifact push, as opposed to the fresh-process
    /// warm boot ([`SharedCache::load_snapshot`]). The entries land in the
    /// shared tier through the normal load path; in addition, every local
    /// cached derivation for a method the snapshot covers is retired —
    /// with its dependents, and with its patched fast entry deoptimized
    /// back to the guarded prologue — so the tenant's next dispatch
    /// re-validates against the fresh artifact (adopting it when the
    /// worlds agree, re-checking when they don't) instead of trusting a
    /// derivation the artifact may supersede. Re-validation re-patches:
    /// steady state returns one guarded call later.
    ///
    /// Eviction before re-validation is the conservative direction, so
    /// this is sound for any snapshot the shared tier would accept; a
    /// malformed snapshot returns `Err` with nothing applied.
    pub fn load_snapshot(
        &self,
        snap: &crate::snapshot::CacheSnapshot,
    ) -> Result<usize, crate::snapshot::SnapshotError> {
        let shared = self
            .shared
            .borrow()
            .clone()
            .ok_or(crate::snapshot::SnapshotError::NoSharedTier)?;
        // Translate (and thereby validate) the coverage set before
        // touching either tier, mirroring the shared loader's two-phase
        // contract: Err means nothing happened.
        let keys = snap.method_keys()?;
        let loaded = shared.load_snapshot(snap)?;
        self.retire_methods(&keys);
        Ok(loaded)
    }

    /// Current configuration.
    pub fn config(&self) -> Config {
        *self.config.borrow()
    }

    /// Replaces the configuration.
    pub fn set_config(&self, c: Config) {
        *self.config.borrow_mut() = c;
        // A mode change (caching off, checks off, dynamic checks off)
        // alters what the guarded prologue would do — fast entries were
        // admitted under the old configuration, so drop them all.
        self.state.borrow().flush_fast_entries();
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> EngineStats {
        let st = self.state.borrow();
        let mut s = st.stats.clone();
        s.phases = st.phase.phases();
        s.cache_entries = st.cache.len();
        if let Some(t) = &st.tier {
            s.bytecode_compiled = t.bytecode_compiled();
            s.fast_entries_patched = t.fast_entries_patched();
            s.deopts = t.deopts();
            // A checked fast-prologue dispatch is a cache hit whose hook
            // probe was compiled out — fold it into the counters the
            // guarded path would have bumped, so `cache_hits` and
            // `intercepted_calls` stay comparable across tiers.
            let fast = t.fast_hits();
            s.cache_hits += fast;
            s.intercepted_calls += fast;
        }
        drop(st);
        // Shadowed blames are counted on the RDL state so the pre-hook
        // layer (which has no engine statistics) contributes too.
        s.shadowed_blames = self.rdl.shadowed_blames();
        s
    }

    /// Credits one inference run's outcome counters. The adoption path
    /// (`crate::infer`) runs outside the engine — it verifies against a
    /// hypothesis [`WorldSnapshot`], not the live table — but its results
    /// are engine-level facts, so they report through the same snapshot.
    pub fn note_inference(&self, verified: u64, adopted: u64, rejected: u64) {
        let mut st = self.state.borrow_mut();
        st.stats.inferred_verified += verified;
        st.stats.inferred_adopted += adopted;
        st.stats.inferred_rejected += rejected;
    }

    /// Clears statistics counters and collected diagnostics (not the
    /// cache).
    pub fn reset_stats(&self) {
        let mut st = self.state.borrow_mut();
        st.stats = EngineStats::default();
        st.phase = PhaseTracker::default();
        if let Some(t) = &st.tier {
            t.reset_counters();
        }
        drop(st);
        self.rdl.clear_diagnostics();
        self.rdl.reset_shadowed_blames();
    }

    /// Every blame diagnostic produced so far — just-in-time and eager
    /// check failures, dynamic argument checks, casts and preconditions —
    /// in emission order, from the type table's shared bounded store.
    pub fn diagnostics(&self) -> Vec<TypeDiagnostic> {
        self.rdl.diagnostics()
    }

    /// Takes the log of static checks performed since the last call (used
    /// by the Table 2 update experiment).
    pub fn take_check_log(&self) -> Vec<CheckLogItem> {
        self.state.borrow_mut().stats.check_log.drain(..).collect()
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.state.borrow().cache.len()
    }

    /// A debug dump of every cached derivation with its dependency set,
    /// sorted by key — what the paper's cache 𝒳 currently holds and why
    /// each entry is still valid.
    pub fn cache_dump(&self) -> Vec<CacheDumpEntry> {
        let st = self.state.borrow();
        let mut out: Vec<CacheDumpEntry> = st
            .cache
            .iter()
            .map(|(key, d)| CacheDumpEntry {
                key: *key,
                method_entry_id: d.entry_id,
                sig_version: d.sig_version,
                deps: d.deps().collect::<BTreeSet<_>>().into_iter().collect(),
            })
            .collect();
        out.sort_by_key(|a| a.key);
        out
    }

    /// Drops the whole cache (tests / ablation).
    pub fn clear_cache(&self) {
        let mut st = self.state.borrow_mut();
        st.cache.clear();
        st.dependents.clear();
        st.neg_dependents.clear();
        st.flush_fast_entries();
    }

    /// The lowered CFG of a body entry, lowered once and memoised by entry
    /// id. `None` for builtins, which have no body to check.
    fn cfg_for(&self, entry: &MethodEntry) -> Option<Arc<MethodCfg>> {
        if let Some(cfg) = self.state.borrow().cfgs.get(&entry.id) {
            return Some(cfg.clone());
        }
        let cfg = Arc::new(lower_entry(entry)?);
        self.state.borrow_mut().cfgs.insert(entry.id, cfg.clone());
        Some(cfg)
    }
}

/// Types a `define_method` proc's captured locals from their runtime
/// values — the just-in-time analogue of Fig. 2. `None` for ordinary
/// bodies, which capture nothing.
pub(crate) fn captured_env(interp: &Interp, entry: &MethodEntry) -> Option<TypeEnv> {
    match &entry.body {
        MethodBody::FromProc(p) => Some(
            p.env
                .collect_bindings()
                .into_iter()
                .map(|(k, v)| (k, type_of(interp, &v)))
                .collect(),
        ),
        _ => None,
    }
}

/// Cross-process body fingerprint: identifies the exact source text of a
/// definition by (file content hash, span range) in O(1) — no lowering, no
/// tree walk. Proc-backed bodies (`define_method`) additionally fold in
/// the captured type environment, because their derivations are judged
/// under those types (Fig. 2): two tenants share a proc derivation only
/// when the captured locals have identical types. `None` for builtins and
/// synthesised nodes without a stable source identity.
fn body_fingerprint(
    interp: &Interp,
    entry: &MethodEntry,
    captured: Option<&TypeEnv>,
) -> Option<u64> {
    let span = match &entry.body {
        MethodBody::Ast(def) => def.span,
        MethodBody::FromProc(p) => p.span,
        MethodBody::Builtin(_) => return None,
    };
    if span.lo == span.hi {
        return None;
    }
    let file = interp.source_map.file(span.file)?;
    // TypeEnv is a BTreeMap: iteration order is deterministic across
    // tenants.
    let captured: Vec<(&String, &hb_types::Type)> =
        captured.map(|env| env.iter().collect()).unwrap_or_default();
    Some(hb_intern::fingerprint64((
        file.content_hash(),
        span.lo,
        span.hi,
        captured,
    )))
}

/// Lowers a checkable method entry to a CFG.
fn lower_entry(entry: &MethodEntry) -> Option<MethodCfg> {
    match &entry.body {
        MethodBody::Ast(def) => Some(lower_method(def)),
        MethodBody::FromProc(p) => Some(lower_block_body(&p.params, &p.body, p.span)),
        MethodBody::Builtin(_) => None,
    }
}

/// Deoptimizes the whole fast-entry patch table the moment any RDL event
/// is emitted or enforcement configuration changes. Interpreter events are
/// handled differently (the dispatch fast path refuses to fire while
/// registry events are pending), but RDL mutations happen inside builtins
/// with no pending-event guard on the dispatch probe — so the flush must be
/// synchronous with the mutation.
struct FastFlushSink {
    tier: Rc<ExecTierState>,
}

impl RdlEventSink for FastFlushSink {
    fn on_rdl_event(&self, _ev: &RdlEvent) {
        self.tier.flush_all();
    }

    fn on_enforcement_changed(&self) {
        self.tier.flush_all();
    }
}
