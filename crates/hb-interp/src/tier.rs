//! Execution-tier state: which tier runs method bodies, the compiled-chunk
//! cache, and the **fast-entry patch table** — the set of `(receiver class,
//! method entry)` pairs whose derivation currently holds (paper
//! Definition 1), so dispatch may enter the *checked fast prologue*: no
//! hook probe, no dynamic argument checks.
//!
//! The engine patches a pair in when a cached derivation admits a call from
//! a checked caller, and patches it back out (a *deopt*) whenever the
//! derivation is invalidated: reload, annotation change, epoch bump,
//! enforcement-policy change, stale-deferred discard, or a cache flush.
//! Soundness therefore rides exactly on the existing invalidation story —
//! every path that removes a derivation from the engine cache depatches
//! here first.

use crate::value::{ClassId, Value};
use hb_il::bytecode::{compile_method, Chunk};
use hb_intern::{FastBuildHasher, FastMap, MethodKey};
use hb_syntax::ast::MethodDefNode;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

/// How method bodies execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The original tree-walking evaluator.
    #[default]
    TreeWalk,
    /// Compiled register bytecode with derivation-driven check elision;
    /// methods outside the compilable subset fall back to tree-walking.
    Bytecode,
}

/// Shared tier state. The interpreter owns one (`Interp::tier`) and the
/// engine holds a clone so invalidation can depatch without a borrow of the
/// interpreter.
pub struct ExecTierState {
    tier: Cell<ExecTier>,
    /// The probe set for the dispatch hot path, keyed on `(receiver
    /// class, entry id)`: exactly the pairs `by_key` holds.
    hot: RefCell<HashSet<u64, FastBuildHasher>>,
    /// Patched entries by derivation cache key, for precise depatch when a
    /// single derivation is invalidated.
    by_key: RefCell<FastMap<MethodKey, (ClassId, u64)>>,
    /// Compiled chunks by method-entry id; `None` records "outside the
    /// compilable subset", so the bail decision is made once per entry.
    chunks: RefCell<FastMap<u64, Option<Rc<Chunk>>>>,
    /// Register-file pool, recycled across calls.
    regs: RefCell<Vec<Vec<Value>>>,
    bytecode_compiled: Cell<u64>,
    fast_entries_patched: Cell<u64>,
    deopts: Cell<u64>,
    fast_hits: Cell<u64>,
}

impl ExecTierState {
    pub fn new() -> ExecTierState {
        ExecTierState {
            tier: Cell::new(ExecTier::TreeWalk),
            hot: RefCell::default(),
            by_key: RefCell::default(),
            chunks: RefCell::default(),
            regs: RefCell::new(Vec::new()),
            bytecode_compiled: Cell::new(0),
            fast_entries_patched: Cell::new(0),
            deopts: Cell::new(0),
            fast_hits: Cell::new(0),
        }
    }

    /// The active tier.
    pub fn tier(&self) -> ExecTier {
        self.tier.get()
    }

    /// True when method bodies should run as bytecode.
    #[inline]
    pub fn bytecode_enabled(&self) -> bool {
        self.tier.get() == ExecTier::Bytecode
    }

    /// Switches tiers. Any patched fast entries are dropped silently (a
    /// tier switch is an operator action, not an invalidation).
    pub fn set_tier(&self, t: ExecTier) {
        self.tier.set(t);
        self.clear_patches();
    }

    /// Hot-path probe: is `(recv_class, entry_id)` patched onto its
    /// checked fast prologue? Counts the hit.
    #[inline]
    pub fn fast_hit(&self, recv_class: ClassId, entry_id: u64) -> bool {
        let hit = self.hot.borrow().contains(&fast_key(recv_class, entry_id));
        if hit {
            self.fast_hits.set(self.fast_hits.get() + 1);
        }
        hit
    }

    /// Patches a method onto its checked fast prologue. Idempotent per
    /// `(key, class, entry)` — repeated admissions of the same derivation
    /// do not recount.
    pub fn patch(&self, key: MethodKey, recv_class: ClassId, entry_id: u64) {
        if !self.bytecode_enabled() {
            return;
        }
        // Steady-state fast path: the pair is already live in the probe
        // set, so the common re-admission (every guarded cache-hit call)
        // is one probe, not a `by_key` insert.
        let pair = fast_key(recv_class, entry_id);
        let mut hot = self.hot.borrow_mut();
        if hot.contains(&pair) {
            return;
        }
        if let Some((cid, id)) = self.by_key.borrow_mut().insert(key, (recv_class, entry_id)) {
            // Re-admission under a new entry id (reload): the superseded
            // pair must not linger in the probe set.
            hot.remove(&fast_key(cid, id));
        }
        hot.insert(pair);
        self.fast_entries_patched
            .set(self.fast_entries_patched.get() + 1);
    }

    /// Deoptimizes one derivation: the method returns to its guarded
    /// prologue. No-op (and no count) when the key was never patched.
    pub fn depatch(&self, key: &MethodKey) {
        if let Some((cid, id)) = self.by_key.borrow_mut().remove(key) {
            self.hot.borrow_mut().remove(&fast_key(cid, id));
            self.deopts.set(self.deopts.get() + 1);
        }
    }

    /// Deoptimizes everything (cache flush, config change, RDL event).
    pub fn flush_all(&self) {
        let n = self.by_key.borrow().len() as u64;
        if n > 0 {
            self.deopts.set(self.deopts.get() + n);
            self.clear_patches();
        }
    }

    fn clear_patches(&self) {
        self.by_key.borrow_mut().clear();
        self.hot.borrow_mut().clear();
    }

    /// The compiled chunk for a method entry, compiling on first request.
    /// `None` means the body is outside the compilable subset (recorded, so
    /// the compile is attempted once).
    pub fn chunk_for(&self, entry_id: u64, def: &Rc<MethodDefNode>) -> Option<Rc<Chunk>> {
        let mut chunks = self.chunks.borrow_mut();
        chunks
            .entry(entry_id)
            .or_insert_with(|| {
                let compiled = compile_method(def).map(Rc::new);
                if compiled.is_some() {
                    self.bytecode_compiled.set(self.bytecode_compiled.get() + 1);
                }
                compiled
            })
            .clone()
    }

    /// Takes a register file of `n` nil slots from the pool.
    pub fn take_regs(&self, n: usize) -> Vec<Value> {
        let mut v = self.regs.borrow_mut().pop().unwrap_or_default();
        v.clear();
        v.resize(n, Value::Nil);
        v
    }

    /// Returns a register file to the pool.
    pub fn return_regs(&self, mut v: Vec<Value>) {
        let mut pool = self.regs.borrow_mut();
        if pool.len() < 64 {
            v.clear();
            pool.push(v);
        }
    }

    // ----- counters -------------------------------------------------------

    /// Method bodies successfully compiled to bytecode.
    pub fn bytecode_compiled(&self) -> u64 {
        self.bytecode_compiled.get()
    }

    /// Fast-entry patch events (guarded → checked prologue).
    pub fn fast_entries_patched(&self) -> u64 {
        self.fast_entries_patched.get()
    }

    /// Deoptimizations (checked → guarded prologue).
    pub fn deopts(&self) -> u64 {
        self.deopts.get()
    }

    /// Dispatches that entered through a checked fast prologue.
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits.get()
    }
}

impl Default for ExecTierState {
    fn default() -> Self {
        ExecTierState::new()
    }
}

/// The probe key of a `(receiver class, entry id)` pair.
#[inline]
fn fast_key(cid: ClassId, entry_id: u64) -> u64 {
    ((cid.0 as u64 + 1) << 40) ^ entry_id.wrapping_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_intern::Sym;

    fn key(m: &str) -> MethodKey {
        MethodKey {
            class: Sym::intern("C"),
            class_level: false,
            method: Sym::intern(m),
        }
    }

    #[test]
    fn patch_depatch_counts() {
        let t = ExecTierState::new();
        t.set_tier(ExecTier::Bytecode);
        t.patch(key("m"), ClassId(2), 9);
        t.patch(key("m"), ClassId(2), 9); // idempotent
        assert_eq!(t.fast_entries_patched(), 1);
        assert!(t.fast_hit(ClassId(2), 9));
        assert_eq!(t.fast_hits(), 1);
        t.depatch(&key("m"));
        assert_eq!(t.deopts(), 1);
        assert!(!t.fast_hit(ClassId(2), 9));
        t.depatch(&key("m")); // never patched now: no count
        assert_eq!(t.deopts(), 1);
    }

    #[test]
    fn flush_counts_every_patched_entry() {
        let t = ExecTierState::new();
        t.set_tier(ExecTier::Bytecode);
        t.patch(key("a"), ClassId(1), 1);
        t.patch(key("b"), ClassId(1), 2);
        t.flush_all();
        assert_eq!(t.deopts(), 2);
        assert!(!t.fast_hit(ClassId(1), 1));
        t.flush_all(); // empty: no further counts
        assert_eq!(t.deopts(), 2);
    }

    #[test]
    fn patch_requires_bytecode() {
        let t = ExecTierState::new();
        t.patch(key("m"), ClassId(1), 1); // tree-walk tier: ignored
        assert_eq!(t.fast_entries_patched(), 0);
        t.set_tier(ExecTier::Bytecode);
        t.patch(key("m"), ClassId(1), 1);
        assert_eq!(t.fast_entries_patched(), 1);
    }

    #[test]
    fn regs_pool_recycles() {
        let t = ExecTierState::new();
        let r = t.take_regs(8);
        assert_eq!(r.len(), 8);
        t.return_regs(r);
        let r2 = t.take_regs(4);
        assert_eq!(r2.len(), 4);
        assert!(r2.iter().all(|v| matches!(v, Value::Nil)));
    }
}
