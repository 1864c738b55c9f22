//! # Hummingbird: just-in-time static type checking for dynamic languages
//!
//! A from-scratch reproduction of *"Just-in-Time Static Type Checking for
//! Dynamic Languages"* (Ren & Foster, PLDI 2016). Type annotations are
//! programs: they execute at run time (including from metaprogramming
//! hooks), building a live type table. When an annotated method is called,
//! its body is statically type checked against the *current* table — once —
//! and the resulting derivation is cached, with invalidation when methods
//! or types change (paper Definitions 1–2).
//!
//! # Embedding API
//!
//! A [`Hummingbird`] system is assembled by [`HummingbirdBuilder`] — the
//! single assembly path for every configuration (evaluation mode, shared
//! derivation tier, enforcement policy, store caps, diagnostic sinks):
//!
//! ```
//! use hummingbird::Hummingbird;
//!
//! let mut hb = Hummingbird::builder().build();
//! hb.eval(r#"
//! class Talk
//!   type :title_line, "(String) -> String", { "check" => true }
//!   def title_line(prefix)
//!     prefix + ": talk"
//!   end
//! end
//! Talk.new.title_line("PLDI")
//! "#)
//! .unwrap();
//! assert_eq!(hb.stats().checks_performed, 1);
//! ```
//!
//! Production rollouts tune *how blame is enforced* per method with
//! [`CheckPolicy`] — `Enforce` raises (the default), `Shadow` records the
//! structured diagnostic and lets the call proceed (canary deploys), `Off`
//! skips enforcement — settable globally, per class, or per method, from
//! Rust or from RubyLite's `check_policy` builtin:
//!
//! ```
//! use hummingbird::{CheckPolicy, Hummingbird};
//!
//! let mut hb = Hummingbird::builder()
//!     .check_policy(CheckPolicy::Shadow)
//!     .build();
//! hb.eval(r#"
//! class Talk
//!   type :late?, "(Fixnum) -> %bool", { "check" => true }
//!   def late?(mins)
//!     mins + 1
//!   end
//! end
//! Talk.new.late?(5)
//! "#)
//! .unwrap(); // Shadow: the blame is recorded, execution continued
//! assert_eq!(hb.diagnostics().len(), 1);
//! assert_eq!(hb.stats().shadowed_blames, 1);
//! ```
//!
//! Fleets share one process-wide [`SharedCache`] so tenants warm each
//! other, and [`Hummingbird::snapshot`] serializes that tier to bytes a
//! *freshly booted process* can load ([`SharedCache::load_snapshot`]) to
//! resolve its first calls by adoption instead of re-deriving — the warm
//! start, carried across processes (see [`snapshot`]).

pub mod analyze;
pub mod corelib;
pub mod derivation;
pub mod engine;
pub mod fleet;
pub mod infer;
pub mod info;
pub mod obs;
pub mod reload;
pub mod sched;
pub mod shared_cache;
pub mod snapshot;
pub mod stats;

pub use analyze::AnalysisReport;
pub use corelib::{corelib_stats, CorelibStats};
pub use derivation::{Derivation, Epochs};
pub use engine::cfg_store::{cfg_store_stats, CfgStoreStats, CFG_STORE_CAPACITY};
pub use engine::{CacheDumpEntry, Engine};
pub use fleet::{FleetClient, FleetError, FleetSyncReport, FleetWatermark};
pub use hb_analyze::ResidueSummary;
pub use infer::InferReport;
pub use info::RegistryInfo;
pub use obs::EngineObs;
pub use reload::ReloadReport;
pub use shared_cache::{SharedCache, SharedCacheStats};
pub use snapshot::{CacheSnapshot, SnapshotError};
pub use stats::{CheckLogItem, CheckVerdict, EngineStats};

pub use hb_check::{CheckError, CheckRequest, TypeTable};
pub use hb_interp::{ErrorKind, ExecTier, HbError, Interp, Value};
pub use hb_obs::{validate_json, HistogramSummary, ObsLevel};
pub use hb_rdl::{CheckPolicy, DiagnosticSink, MethodKey, RdlState, RdlStats};
pub use hb_sched::{CheckTask, Scheduler, TaskVerdict, WorldSnapshot};
pub use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, SourceMap, TypeDiagnostic};

use hb_rdl::install_rdl;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The core-library annotations shipped with the engine (the analogue of
/// RDL's bundled types).
pub const CORELIB_ANNOTATIONS: &str = include_str!("../annotations/corelib.rb");

/// The three evaluation modes of paper Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// "Orig": no interception at all.
    Original,
    /// "No$": full checking with the derivation cache disabled.
    NoCache,
    /// "Hum": full checking with caching.
    Full,
}

/// Configures and assembles a [`Hummingbird`] system — the single
/// embedding entry point (Embedding API v1).
///
/// Defaults: [`Mode::Full`], no shared tier, caching and dynamic argument
/// checks per mode, [`CheckPolicy::Enforce`], default store caps, core
/// library loaded. Every knob is a chainable setter; [`build`] assembles
/// the interpreter + RDL + engine stack and gives it the core-library
/// annotations (unless disabled or `Mode::Original`) by seeding its type
/// table from the thread's evaluated copy (see [`corelib`]). Building runs
/// no code, so the statistics start at zero without a reset.
///
/// ```
/// use hummingbird::{CheckPolicy, Hummingbird, SharedCache};
/// use std::sync::Arc;
///
/// let shared = Arc::new(SharedCache::new());
/// let hb = Hummingbird::builder()
///     .shared_cache(shared)               // one tenant of a fleet
///     .check_policy(CheckPolicy::Shadow)  // canary: record, don't raise
///     .diagnostics_cap(256)               // bound the blame store
///     .check_log_cap(1024)                // bound the check log
///     .build();
/// assert_eq!(hb.stats().checks_performed, 0);
/// ```
///
/// [`build`]: HummingbirdBuilder::build
#[must_use = "a builder does nothing until .build()"]
pub struct HummingbirdBuilder {
    mode: Mode,
    shared: Option<Arc<SharedCache>>,
    policy: CheckPolicy,
    diagnostics_cap: Option<usize>,
    check_log_cap: Option<usize>,
    diagnostic_sinks: Vec<Rc<dyn DiagnosticSink>>,
    scheduler: Option<Arc<Scheduler>>,
    corelib: bool,
    exec_tier: ExecTier,
    deferred_cap: Option<usize>,
    fleet_socket: Option<std::path::PathBuf>,
    observability: ObsLevel,
}

/// The default execution tier: [`ExecTier::Bytecode`] when the
/// `HB_EXEC_TIER` environment variable is set to `bytecode` (the CI
/// cross-tier run uses this), [`ExecTier::TreeWalk`] otherwise.
fn default_exec_tier() -> ExecTier {
    match std::env::var("HB_EXEC_TIER") {
        Ok(v) if v.eq_ignore_ascii_case("bytecode") => ExecTier::Bytecode,
        _ => ExecTier::TreeWalk,
    }
}

impl Default for HummingbirdBuilder {
    fn default() -> HummingbirdBuilder {
        HummingbirdBuilder {
            mode: Mode::Full,
            shared: None,
            policy: CheckPolicy::Enforce,
            diagnostics_cap: None,
            check_log_cap: None,
            diagnostic_sinks: Vec::new(),
            scheduler: None,
            corelib: true,
            exec_tier: default_exec_tier(),
            deferred_cap: None,
            fleet_socket: None,
            observability: ObsLevel::Off,
        }
    }
}

impl HummingbirdBuilder {
    /// A builder with every default (equivalent to
    /// `Hummingbird::builder()`).
    pub fn new() -> HummingbirdBuilder {
        HummingbirdBuilder::default()
    }

    /// The evaluation mode (paper Table 1); default [`Mode::Full`].
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// The currently configured mode (read-back for harnesses that branch
    /// on it while finishing assembly — e.g. whether to load annotations).
    pub fn configured_mode(&self) -> Mode {
        self.mode
    }

    /// Attaches a process-wide shared derivation tier, making the system
    /// one *tenant* of a multi-tenant deployment. The tier is attached
    /// before any code (including the core library) loads, so identical
    /// tenants warm each other from the very first check.
    pub fn shared_cache(mut self, shared: Arc<SharedCache>) -> Self {
        self.shared = Some(shared);
        self
    }

    /// The global enforcement policy (default [`CheckPolicy::Enforce`]).
    /// Per-class/per-method overrides layer on top — see
    /// [`Hummingbird::set_class_policy`] / [`Hummingbird::set_method_policy`]
    /// and the RubyLite `check_policy` builtin.
    pub fn check_policy(mut self, policy: CheckPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Retention bound of the blame-diagnostic store (default
    /// [`hb_rdl::DEFAULT_DIAGNOSTICS_CAP`]; zero keeps nothing and relies
    /// on sinks alone).
    pub fn diagnostics_cap(mut self, cap: usize) -> Self {
        self.diagnostics_cap = Some(cap);
        self
    }

    /// Retention bound of the engine check log between drains (default
    /// [`stats::DEFAULT_CHECK_LOG_CAP`]; zero disables the log).
    pub fn check_log_cap(mut self, cap: usize) -> Self {
        self.check_log_cap = Some(cap);
        self
    }

    /// Registers a streaming [`DiagnosticSink`]: every recorded blame
    /// diagnostic (enforced *and* shadowed) fans out to it as it happens —
    /// the push channel a canary deploy ships its shadow blames through.
    pub fn diagnostic_sink(mut self, sink: Rc<dyn DiagnosticSink>) -> Self {
        self.diagnostic_sinks.push(sink);
        self
    }

    /// Attaches a concurrent check [`Scheduler`] — the worker pool that
    /// executes type checks off the interpreter thread
    /// ([`CheckPolicy::Deferred`] admissions, and every `jobs`-wide
    /// fan-out the pool is wide enough for). A dedicated pool is
    /// `.scheduler(Arc::new(Scheduler::new(n)))`. Pools are process-wide
    /// resources: pass the same `Arc` to every tenant of a fleet and their
    /// checks share the workers while results route back per engine.
    pub fn scheduler(mut self, sched: Arc<Scheduler>) -> Self {
        self.scheduler = Some(sched);
        self
    }

    /// High-water cap on in-flight [`CheckPolicy::Deferred`] admissions
    /// (default [`stats::DEFAULT_DEFERRED_CAP`]). At the cap, a cold
    /// deferred call falls back to a *synchronous* Enforce check —
    /// counted in [`EngineStats::deferred_shed`] — instead of growing
    /// the scheduler queue without bound while the pool is paused or
    /// saturated.
    pub fn deferred_queue_cap(mut self, cap: usize) -> Self {
        self.deferred_cap = Some(cap);
        self
    }

    /// Attaches this system to the fleet derivation daemon listening on
    /// the Unix-domain socket at `path` (see [`fleet`]): the tier
    /// warm-boots from a full snapshot fetch before any code loads, and
    /// [`Hummingbird::fleet_sync`] thereafter publishes local
    /// derivations back and applies delta fetches. Implies a shared
    /// tier — one is created if [`shared_cache`] was not called.
    ///
    /// Connection or handshake failure does **not** fail the build: the
    /// system comes up detached (purely local checking) and records the
    /// error in [`Hummingbird::fleet_error`] — a dead daemon costs a
    /// fleet latency, never availability or soundness.
    ///
    /// [`shared_cache`]: HummingbirdBuilder::shared_cache
    pub fn fleet_socket(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.fleet_socket = Some(path.into());
        self
    }

    /// Selects how much the engine records about itself (default
    /// [`ObsLevel::Off`]). [`ObsLevel::Metrics`] collects the latency
    /// histograms and counters behind [`Hummingbird::metrics`] /
    /// [`Hummingbird::metrics_prometheus`]; [`ObsLevel::Trace`]
    /// additionally records the typed event ring behind
    /// [`Hummingbird::trace_json`]. With the default `Off`, each
    /// instrumented hot path costs one `Cell` load and the engine
    /// allocates no observability state at all.
    pub fn observability(mut self, level: ObsLevel) -> Self {
        self.observability = level;
        self
    }

    /// Builds without the bundled core-library annotations: the type
    /// table starts empty and no `<corelib>` file is registered (fixtures
    /// and micro-harnesses; production embeddings want them).
    pub fn without_corelib(mut self) -> Self {
        self.corelib = false;
        self
    }

    /// Selects the execution tier: the classic tree-walk interpreter or
    /// the register-bytecode VM with derivation-driven check elision
    /// (default: [`ExecTier::TreeWalk`], overridable process-wide via the
    /// `HB_EXEC_TIER=bytecode` environment variable). Semantics are
    /// identical across tiers; the bytecode tier additionally patches
    /// methods whose derivation holds onto a checked fast prologue that
    /// skips the hook probe entirely.
    pub fn exec_tier(mut self, tier: ExecTier) -> Self {
        self.exec_tier = tier;
        self
    }

    /// Assembles the system: interpreter + RDL + engine, the engine
    /// installed as the dispatch hook unless the mode is `Original`,
    /// configuration applied (observability included), fleet
    /// attached, core library seeded. No code runs, so the statistics
    /// start at zero; a fleet attachment's boot fetch is the only thing
    /// counted.
    ///
    /// The core library comes from the calling thread's base (see
    /// [`corelib`]): the first build on a thread evaluates it, every
    /// build copies the resulting type table, and the result is the table
    /// that evaluating [`CORELIB_ANNOTATIONS`] here would have built.
    ///
    /// # Panics
    ///
    /// Panics if the bundled core-library annotations fail to load (a
    /// build defect, not a runtime condition): at the first build on each
    /// thread.
    pub fn build(self) -> Hummingbird {
        let mut interp = Interp::new();
        let rdl = install_rdl(&mut interp);
        let engine = Rc::new(Engine::new(rdl.clone(), self.mode != Mode::NoCache));
        engine.set_observability(self.observability);
        let mut shared = self.shared;
        if self.fleet_socket.is_some() && shared.is_none() {
            // Fleet attachment implies a shared tier for the fetched
            // candidates to land in.
            shared = Some(Arc::new(SharedCache::new()));
        }
        if let Some(shared) = shared.clone() {
            engine.set_shared_cache(shared);
        }
        // Connect and warm-boot from the fleet daemon before any code
        // loads, so the first checks already adopt fetched derivations.
        // Failure degrades to local checking.
        let (fleet, fleet_err) = match &self.fleet_socket {
            Some(path) => {
                let shared = shared.clone().expect("fleet implies a shared tier");
                match fleet::FleetSession::attach(path, shared, &engine) {
                    Ok(session) => (Some(session), None),
                    Err(e) => (None, Some(e)),
                }
            }
            None => (None, None),
        };
        if self.mode != Mode::Original {
            interp.set_hook(engine.clone());
        }
        interp.tier.set_tier(self.exec_tier);
        // Attach regardless of tier so invalidation always depatches: a
        // patch table must never outlive the derivation it mirrors.
        engine.attach_exec_tier(interp.tier.clone());
        if self.policy != CheckPolicy::Enforce {
            rdl.set_global_policy(self.policy);
        }
        if let Some(cap) = self.diagnostics_cap {
            rdl.set_diagnostics_cap(cap);
        }
        if let Some(cap) = self.check_log_cap {
            engine.set_check_log_cap(cap);
        }
        if let Some(cap) = self.deferred_cap {
            engine.set_deferred_cap(cap);
        }
        for sink in self.diagnostic_sinks {
            rdl.add_diagnostic_sink(sink);
        }
        if let Some(sched) = self.scheduler {
            engine.set_scheduler(sched);
        }
        let mut hb = Hummingbird {
            interp,
            rdl,
            engine,
            programs: HashMap::new(),
            fleet,
            fleet_err,
        };
        // "Orig" runs without Hummingbird entirely.
        if self.corelib && self.mode != Mode::Original {
            corelib::seed(&mut hb);
        }
        hb
    }
}

/// The assembled Hummingbird system: interpreter + RDL + engine.
pub struct Hummingbird {
    pub interp: Interp,
    pub rdl: Rc<RdlState>,
    pub engine: Rc<Engine>,
    /// The program each file loaded by name last ran: what
    /// [`Hummingbird::reload_file`] takes the methods a new version
    /// removes from.
    pub(crate) programs: HashMap<String, Rc<hb_syntax::Program>>,
    pub(crate) fleet: Option<fleet::FleetSession>,
    pub(crate) fleet_err: Option<FleetError>,
}

impl Hummingbird {
    /// The embedding entry point: a [`HummingbirdBuilder`] with defaults.
    pub fn builder() -> HummingbirdBuilder {
        HummingbirdBuilder::default()
    }

    /// Loads a source file into the running system.
    ///
    /// The file and its program come from the calling thread's source
    /// store ([`hb_syntax::store`]): a text the thread has loaded before
    /// is neither copied, hashed nor parsed again. The system keeps the
    /// program it ran under `name`; [`Hummingbird::reload_file`] derives
    /// the methods a new version removes from it, so loading builds no
    /// reload baseline of its own.
    ///
    /// # Errors
    ///
    /// Parse errors and uncaught runtime errors (including blame).
    pub fn load_file(&mut self, name: &str, src: &str) -> Result<Value, HbError> {
        let program = self.interp.parse(name, src)?;
        self.programs.insert(name.to_string(), program.clone());
        self.interp.eval_program(&program)
    }

    /// Evaluates a source string.
    ///
    /// # Errors
    ///
    /// Parse errors and uncaught runtime errors (including blame).
    pub fn eval(&mut self, src: &str) -> Result<Value, HbError> {
        self.interp.load_program("<eval>", src)
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    // ----- observability exports ---------------------------------------------

    /// The full metrics export as a JSON document:
    /// `{"schema_version":1,"stats":{..},"counters":{..},"histograms":{..}}`.
    /// `stats` holds every [`EngineStats`] field (always populated);
    /// `counters`/`histograms` hold the [`obs`] registry series and are
    /// empty unless the system was built with
    /// [`HummingbirdBuilder::observability`] at [`ObsLevel::Metrics`] or
    /// above. Histogram entries carry `count`, `sum`, `p50`, `p90`,
    /// `p99`, and `max` (nanoseconds). See `docs/METRICS.md`.
    pub fn metrics(&self) -> String {
        let stats = self.stats();
        let registry_json = match self.engine.obs() {
            Some(o) => o.registry.render_json(),
            None => String::from("{\"counters\":{},\"histograms\":{}}"),
        };
        // The registry renders `{"counters":{..},"histograms":{..}}`;
        // splice its body into the envelope.
        let body = &registry_json[1..registry_json.len() - 1];
        format!(
            "{{\"schema_version\":1,\"stats\":{},{}}}",
            obs::stats_json(&stats),
            body
        )
    }

    /// The full metrics export in the Prometheus text exposition format:
    /// the registry's counter and histogram series (when observability is
    /// on) followed by every [`EngineStats`] field as an
    /// `hb_engine_<field>` series. See `docs/METRICS.md`.
    pub fn metrics_prometheus(&self) -> String {
        let mut out = match self.engine.obs() {
            Some(o) => o.registry.render_prometheus(),
            None => String::new(),
        };
        out.push_str(&obs::stats_prometheus(&self.stats()));
        out
    }

    /// The flight-recorder timeline as a chrome://tracing-compatible
    /// JSON document (load it in `chrome://tracing` or Perfetto). Empty
    /// (`{"traceEvents":[]}`) unless the system was built at
    /// [`ObsLevel::Trace`].
    pub fn trace_json(&self) -> String {
        let events = self
            .engine
            .obs()
            .map(|o| o.ring_snapshot())
            .unwrap_or_default();
        hb_obs::export::chrome_trace(&events, |e| format!("{} {}", e.kind.name(), e.key))
    }

    /// Eagerly checks every annotated, checkable method — the whole
    /// program, without waiting for triggering calls — and returns the
    /// failures as structured diagnostics (empty when the program lints
    /// clean). See [`Engine::check_all`]; this is the `hb_lint` entry
    /// point, and it warms the derivation caches as a side effect.
    /// Methods under [`CheckPolicy::Off`] are skipped.
    pub fn check_all(&mut self) -> Vec<TypeDiagnostic> {
        let engine = self.engine.clone();
        engine.check_all(&mut self.interp)
    }

    /// [`Hummingbird::check_all`] fanned across `jobs` scheduler workers:
    /// the whole annotated-method set is captured as `Send` check tasks
    /// against one world snapshot, checked in parallel, validated and
    /// adopted at harvest, and reported with diagnostics byte-identical
    /// to the serial path (same `(file, span, code)` order). `jobs <= 1`
    /// is exactly the serial path. See [`Engine::check_all_parallel`].
    pub fn check_all_parallel(&mut self, jobs: usize) -> Vec<TypeDiagnostic> {
        let engine = self.engine.clone();
        engine.check_all_parallel(&mut self.interp, jobs)
    }

    /// Blocks until every check task this system enqueued on the
    /// scheduler has completed, then lands the results — the barrier
    /// after which asynchronously produced ([`CheckPolicy::Deferred`])
    /// blame is guaranteed visible in [`Hummingbird::diagnostics`] and
    /// passing derivations are cached.
    pub fn sched_quiesce(&mut self) {
        let engine = self.engine.clone();
        engine.process_events(&mut self.interp);
        engine.sched_quiesce(&self.interp);
    }

    /// The attached concurrent check scheduler, if any.
    pub fn scheduler(&self) -> Option<Arc<Scheduler>> {
        self.engine.scheduler()
    }

    /// Every blame diagnostic produced so far (just-in-time, eager and
    /// shadowed), in emission order.
    pub fn diagnostics(&self) -> Vec<TypeDiagnostic> {
        self.engine.diagnostics()
    }

    /// The source map resolving diagnostic spans to file/line/column —
    /// pass it to [`TypeDiagnostic::render`] / [`TypeDiagnostic::to_json`].
    pub fn source_map(&self) -> &SourceMap {
        &self.interp.source_map
    }

    /// RDL annotation statistics snapshot.
    pub fn rdl_stats(&self) -> RdlStats {
        self.rdl.stats()
    }

    // ----- enforcement policies ---------------------------------------------

    /// Sets the global [`CheckPolicy`] at run time (rollout control; the
    /// builder sets the boot-time value).
    pub fn set_check_policy(&self, policy: CheckPolicy) {
        self.rdl.set_global_policy(policy);
    }

    /// Sets a per-class policy override (exact class name: applies when
    /// the receiver's class or the annotation's declaring class matches).
    pub fn set_class_policy(&self, class: &str, policy: CheckPolicy) {
        self.rdl
            .set_class_policy(hb_intern::Sym::intern(class), policy);
    }

    /// Sets a per-method policy override (exact key: matched against the
    /// receiver-class key and the annotation's own key).
    pub fn set_method_policy(&self, key: MethodKey, policy: CheckPolicy) {
        self.rdl.set_method_policy(key, policy);
    }

    // ----- snapshots ---------------------------------------------------------

    /// Serializes the attached shared derivation tier into a portable
    /// [`CacheSnapshot`] — the artifact another tier loads with
    /// [`SharedCache::load_snapshot`], whether a freshly booted process
    /// warm-starting from disk or a live one taking a rolling-deploy
    /// push. `None` when the system has no shared tier (build with
    /// [`HummingbirdBuilder::shared_cache`]).
    pub fn snapshot(&self) -> Option<CacheSnapshot> {
        self.engine.shared_cache().map(|s| s.snapshot())
    }

    // ----- fleet serving ------------------------------------------------------

    /// True while this system holds a live attachment to the fleet
    /// daemon ([`HummingbirdBuilder::fleet_socket`]). A failed connect
    /// or a failed [`fleet_sync`] detaches — the system keeps running on
    /// purely local checking.
    ///
    /// [`fleet_sync`]: Hummingbird::fleet_sync
    pub fn fleet_attached(&self) -> bool {
        self.fleet.is_some()
    }

    /// The error that detached (or never attached) the fleet session,
    /// if any — operational visibility for the degrade-to-local path.
    pub fn fleet_error(&self) -> Option<&FleetError> {
        self.fleet_err.as_ref()
    }

    /// One fleet synchronization round: publishes the derivations new to
    /// this tenant's shared tier since the last round, then fetches the
    /// delta past the current watermark and loads it into the shared tier
    /// as *candidates* that the normal adoption funnel validates on the
    /// next miss. Local derivations are left alone; only this system's
    /// own interpreter and type-table events retire them.
    ///
    /// # Errors
    ///
    /// Any [`FleetError`]; the session detaches on error (subsequent
    /// calls return [`FleetError::Io`] with `NotConnected` semantics via
    /// [`Hummingbird::fleet_attached`] being false — callers should
    /// stop syncing) and the system degrades to local checking. Nothing
    /// in the live tier is ever left half-applied: snapshot loads are
    /// all-or-nothing.
    pub fn fleet_sync(&mut self) -> Result<FleetSyncReport, FleetError> {
        let Some(session) = self.fleet.as_mut() else {
            let why = self
                .fleet_err
                .as_ref()
                .map_or_else(|| "never attached".to_string(), |e| e.to_string());
            return Err(FleetError::Detached(why));
        };
        let engine = self.engine.clone();
        match session.sync(&engine, &mut self.interp) {
            Ok(report) => Ok(report),
            Err(e) => {
                // Degrade to local checking; the error stays readable.
                self.fleet = None;
                self.fleet_err = Some(FleetError::Detached(e.to_string()));
                Err(e)
            }
        }
    }
}

impl Default for Hummingbird {
    fn default() -> Self {
        Hummingbird::builder().build()
    }
}
