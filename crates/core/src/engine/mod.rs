//! The Hummingbird engine: just-in-time static type checking at method
//! entry, with a memoised derivation cache (paper §3's 𝒳) and Definition-1
//! invalidation.
//!
//! The engine is the interpreter's dispatch hook ([`hb_interp::CallHook`]):
//! when a method is called it runs any `pre` contracts registered for it,
//! and when the method is annotated it (a) runs any needed dynamic
//! argument checks (rules (EApp*), minimised per §4 "Eliminating Dynamic
//! Checks"), and (b) if the method is marked for checking, statically
//! checks its body against the *current* type table — once, caching the
//! outcome keyed by the receiver's class.
//!
//! The engine is split by concern:
//!
//! * `hook` — the dispatch hook, its per-(receiver class, method entry)
//!   dispatch records, `pre` contracts and dynamic argument checks;
//! * `check` — obtaining a derivation: cache probe, shared-tier adoption,
//!   deferral, or a synchronous `check_sig`; and whole-program `check_all`;
//! * `land` — the derivation funnel: the one adoption test for foreign
//!   derivations, the one place a derivation is stored, and the one place
//!   a check is accounted. The soundness argument lives there;
//! * `invalidate` — Definition 1 invalidation from interpreter and type
//!   table events, with the one same-body decision per redefinition;
//! * `schedule` — task extraction, deferred admission, harvest and the
//!   parallel `check_all` on the concurrent scheduler;
//! * `cfg_store` — the per-thread store every lowering goes through, one
//!   CFG per method body per thread.

pub(crate) mod cfg_store;
mod check;
mod hook;
mod invalidate;
mod land;
mod schedule;

use crate::derivation::{Derivation, Epochs};
use crate::obs::EngineObs;
use crate::reload::ReloadReport;
use crate::shared_cache::SharedCache;
use crate::stats::{CheckLogItem, EngineStats, PhaseTracker};
use hb_intern::Sym;
use hb_interp::{ClassId, ExecTierState, Interp, MethodBody, MethodEntry};
use hb_rdl::{type_of, MethodKey, RdlState, Resolution, TableEntry};
use hb_sched::{CompletionQueue, Scheduler, WorldSnapshot};
use hb_syntax::TypeDiagnostic;
use hb_types::TypeEnv;
use hook::DispatchRecord;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

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
/// One of a [`ReloadReport`]'s method lists.
type ReportList = fn(&mut ReloadReport) -> &mut Vec<String>;

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
    /// Memoised signature-content fingerprints by (key, version).
    sig_fps: HashMap<(MethodKey, u64), u64>,
    /// The hook's dispatch records by `(receiver class, method entry id)`,
    /// the fast-entry table's key. All of them were resolved at the
    /// (type-table, class-hierarchy, enforcement) generations in
    /// `records_gen`; the hook drops them all when one moves, and
    /// `process_events` drops them whenever an interpreter event retires
    /// entry ids, so long reload sessions stay bounded.
    records: hb_intern::FastMap<(ClassId, u64), DispatchRecord>,
    /// The generations `records` was resolved at.
    records_gen: (u64, u64, u64),
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
    /// While a reload runs ([`Engine::start_recording`]): the changes
    /// `process_events` judged, and `stats.dependent_invalidations` when
    /// recording began.
    recording: Option<(ReloadReport, u64)>,
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

    /// Records a judged change of `key` in the report's `list` while a
    /// reload is recording, once per method: under the first change.
    fn note_change(&mut self, key: impl FnOnce() -> MethodKey, list: ReportList) {
        let Some((report, _)) = &mut self.recording else {
            return;
        };
        let shown = key().display();
        if ![&report.changed, &report.added, &report.removed]
            .iter()
            .any(|l| l.contains(&shown))
        {
            list(report).push(shown);
        }
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
    /// Walks the chain the checker walks
    /// ([`hb_interp::ClassRegistry::resolution_syms`]), so replay answers
    /// exactly match a hypothetical re-check.
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
        let chain = interp.registry.resolution_syms(res.start);
        let skip = usize::from(res.skip_receiver);
        let cur = rdl
            .lookup_along(
                chain.iter().skip(skip).copied(),
                res.class_level,
                res.method,
            )
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
    /// Memoise derivations (off only for the "No$" column of Table 1).
    caching: bool,
    state: RefCell<EngineState>,
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
    /// Creates an engine over the given RDL state; `caching` false is the
    /// "No$" mode, which re-checks on every call.
    pub fn new(rdl: Rc<RdlState>, caching: bool) -> Engine {
        Engine {
            rdl,
            caching,
            state: RefCell::new(EngineState::default()),
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

    /// Counts work done outside the engine's own paths: fleet sessions
    /// and inference run beside the engine, but what they did is an
    /// engine-level fact, so it lands in the same statistics.
    pub(crate) fn count(&self, f: impl FnOnce(&mut EngineStats)) {
        f(&mut self.state.borrow_mut().stats);
    }

    /// Attaches the interpreter's execution-tier state so derivation
    /// invalidation deoptimizes patched fast entries, and hands it to the
    /// type table, which drops every fast entry *synchronously* on any
    /// type-table mutation or enforcement change, before the mutating
    /// call returns — a patched entry skips the hook probe entirely, so
    /// it cannot be left to notice staleness lazily.
    pub fn attach_exec_tier(&self, tier: Rc<ExecTierState>) {
        self.state.borrow_mut().tier = Some(tier.clone());
        self.rdl.attach_exec_tier(tier);
    }

    /// Attaches the process-wide shared derivation tier, making this
    /// engine a tenant: local cache misses probe the shared tier before
    /// running the checker, and performed checks publish to it. This
    /// tenant's invalidations stay local: a derivation in the tier holds
    /// or fails in each adopter's own world. Call once per engine,
    /// ideally before app code loads.
    pub fn set_shared_cache(&self, shared: Arc<SharedCache>) {
        *self.shared.borrow_mut() = Some(shared);
    }

    /// The attached shared tier, if any.
    pub fn shared_cache(&self) -> Option<Arc<SharedCache>> {
        self.shared.borrow().clone()
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
        s
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

    /// Starts recording the method changes [`Engine::process_events`]
    /// judges, from every drain until [`Engine::stop_recording`]: the
    /// hook's drains mid-evaluation included.
    pub(crate) fn start_recording(&self) {
        let mut st = self.state.borrow_mut();
        st.recording = Some((ReloadReport::default(), st.stats.dependent_invalidations));
    }

    /// Stops recording and reports the changes judged meanwhile, with
    /// the dependent derivations they invalidated.
    pub(crate) fn stop_recording(&self) -> ReloadReport {
        let mut st = self.state.borrow_mut();
        let (mut report, before) = st.recording.take().expect("recording started");
        report.dependents_invalidated = st.stats.dependent_invalidations - before;
        report
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
