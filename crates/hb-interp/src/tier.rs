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
use hb_intern::MethodKey;
use hb_syntax::ast::MethodDefNode;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
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
    /// The probe structure for the dispatch hot path: one open-addressed
    /// `u64` set keyed on `(receiver class, entry id)`.
    hot: RefCell<FastSet>,
    /// Patched entries by derivation cache key, for precise depatch when a
    /// single derivation is invalidated.
    by_key: RefCell<HashMap<MethodKey, (ClassId, u64)>>,
    /// Compiled chunks by method-entry id; `None` records "outside the
    /// compilable subset", so the bail decision is made once per entry.
    chunks: RefCell<hb_intern::FastMap<u64, Option<Rc<Chunk>>>>,
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
            hot: RefCell::new(FastSet::new()),
            by_key: RefCell::new(HashMap::new()),
            chunks: RefCell::new(hb_intern::FastMap::default()),
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
        let hit = self.hot.borrow().contains(fast_key(recv_class, entry_id));
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
        // is one open-addressed probe, not a `by_key` hash insert.
        if self.hot.borrow().contains(fast_key(recv_class, entry_id)) {
            return;
        }
        let mut by_key = self.by_key.borrow_mut();
        match by_key.insert(key, (recv_class, entry_id)) {
            Some(prev) if prev == (recv_class, entry_id) => return,
            Some(_) => {
                // Re-admission under a new entry id (reload): rebuild so
                // the superseded pair does not linger in the probe set.
                drop(by_key);
                self.rebuild_hot();
            }
            None => {
                self.hot.borrow_mut().insert(fast_key(recv_class, entry_id));
            }
        }
        self.fast_entries_patched
            .set(self.fast_entries_patched.get() + 1);
    }

    /// Deoptimizes one derivation: the method returns to its guarded
    /// prologue. No-op (and no count) when the key was never patched.
    pub fn depatch(&self, key: &MethodKey) {
        let removed = self.by_key.borrow_mut().remove(key);
        if removed.is_some() {
            self.deopts.set(self.deopts.get() + 1);
            self.rebuild_hot();
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

    fn rebuild_hot(&self) {
        let by_key = self.by_key.borrow();
        let mut hot = self.hot.borrow_mut();
        hot.clear();
        for &(cid, id) in by_key.values() {
            hot.insert(fast_key(cid, id));
        }
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

/// Nonzero probe key: entry ids start at 1 and the class id is offset, so
/// the zero slot value can mean "empty".
#[inline]
fn fast_key(cid: ClassId, entry_id: u64) -> u64 {
    ((cid.0 as u64 + 1) << 40) ^ entry_id.wrapping_add(1)
}

/// A minimal open-addressed set of nonzero `u64` keys. The dispatch hot
/// path cannot afford a SipHash `HashMap` probe; this is one multiply, a
/// mask, and typically one load.
struct FastSet {
    /// Power-of-two slot array; 0 = empty. Rebuilt (never tombstoned) on
    /// removal, which is fine because deopts are rare events.
    slots: Vec<u64>,
    len: usize,
}

impl FastSet {
    fn new() -> FastSet {
        FastSet {
            slots: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn hash(key: u64) -> u64 {
        // splitmix64 finalizer: cheap, well-mixed.
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn contains(&self, key: u64) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(key) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == key {
                return true;
            }
            if s == 0 {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64) {
        debug_assert_ne!(key, 0);
        if self.slots.is_empty() || (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(key) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == key {
                return;
            }
            if s == 0 {
                self.slots[i] = key;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        self.len = 0;
        for key in old {
            if key != 0 {
                self.insert(key);
            }
        }
    }
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
    fn fast_set_insert_contains_grow() {
        let mut s = FastSet::new();
        assert!(!s.contains(fast_key(ClassId(1), 1)));
        for i in 1..200u64 {
            s.insert(fast_key(ClassId(3), i));
        }
        for i in 1..200u64 {
            assert!(s.contains(fast_key(ClassId(3), i)));
        }
        assert!(!s.contains(fast_key(ClassId(4), 5)));
        s.clear();
        assert!(!s.contains(fast_key(ClassId(3), 7)));
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
