//! The process-wide shared derivation tier.
//!
//! The paper's cache 𝒳 memoises per-method derivations inside one engine.
//! In a multi-tenant deployment — N interpreter instances serving the same
//! application on different threads — every tenant would redundantly
//! re-derive the same judgements at boot. This module is the second tier:
//! an `Arc`-held, sharded, thread-safe map that records *which facts a
//! derivation depended on*, so any tenant whose type table proves the same
//! facts can adopt the derivation without running the checker.
//!
//! A shared entry is keyed by `(MethodKey, method_entry_id, sig_version,
//! body_fingerprint)` and carries the (TApp) dependency set *with the
//! signature version and content fingerprint each dependency had at check
//! time*. A tenant hitting the shared tier re-validates its own signature
//! and every dependency against its own table before adopting —
//! Definition 1's validity conditions, checked structurally instead of by
//! re-derivation. Entry ids and versions are deterministic load-order
//! counters (identical tenants agree on them); the body and signature
//! *fingerprints* are what keep adoption sound when tenants run different
//! codebases whose counters happen to coincide. Tenants built from
//! identical sources validate and adopt without ever calling `check_sig`.
//!
//! Invalidation fans out from every tenant: signature replacements and
//! method redefinitions evict the affected entry family (all cached
//! versions of the method) plus — per Definition 1(2) — the families of
//! entries whose dependency sets mention the changed key. Version
//! validation at adoption time makes eviction a memory/latency
//! optimisation rather than a soundness requirement, which is what lets
//! the tiers stay loosely coupled.

use crate::derivation::{Derivation, VersionKey};
use hb_rdl::{MethodKey, RdlEvent, RdlEventSink};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};

#[derive(Default)]
struct Shard {
    /// Method → version key → derivation. The outer key groups an entry
    /// *family* so eviction of a method drops every cached version in one
    /// probe.
    entries: HashMap<MethodKey, HashMap<VersionKey, Derivation>>,
    /// dep (annotation key) → methods whose shared derivations used it.
    dependents: HashMap<MethodKey, HashSet<MethodKey>>,
}

/// Aggregate counters (monotonic, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
}

/// Observer of tier mutations, called *after* the shard lock is released.
/// The fleet client hangs its publication tracking here: every insert is
/// a candidate for publish-back to the daemon, every family eviction a
/// candidate eviction notice. Hooks must be cheap and must not re-enter
/// the tier (they run on whatever tenant thread performed the mutation).
pub trait CacheEventHook: Send + Sync {
    /// A derivation for `key` was published into the tier.
    fn on_insert(&self, _key: &MethodKey) {}
    /// The entry family for `key` was evicted (at least one derivation
    /// dropped).
    fn on_evict(&self, _key: &MethodKey) {}
}

/// The shared tier. Cheap to clone behind `Arc`; every method takes
/// `&self` and is safe from any thread.
pub struct SharedCache {
    shards: Box<[RwLock<Shard>]>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    /// Held weakly: a hook lives exactly as long as its owner (a fleet
    /// session) keeps it, and dead entries are pruned on the next read.
    hooks: RwLock<Vec<Weak<dyn CacheEventHook>>>,
}

impl Default for SharedCache {
    fn default() -> SharedCache {
        SharedCache::with_shards(16)
    }
}

impl SharedCache {
    /// A shared tier with the default shard count.
    pub fn new() -> SharedCache {
        SharedCache::default()
    }

    /// A shared tier sharded `n` ways (`n` is rounded up to at least 1).
    pub fn with_shards(n: usize) -> SharedCache {
        let n = n.max(1);
        SharedCache {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hooks: RwLock::new(Vec::new()),
        }
    }

    /// Registers a mutation observer (see [`CacheEventHook`]). The tier
    /// holds it weakly: once its owner drops the last `Arc` (a tenant's
    /// fleet session ends, or its attach fails), it is never called
    /// again and its slot is pruned.
    pub fn add_event_hook(&self, hook: Weak<dyn CacheEventHook>) {
        self.hooks
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .push(hook);
    }

    /// The live hooks (upgraded out so no hook runs under the registry
    /// lock). Dead ones are pruned on the way.
    fn hooks(&self) -> Vec<Arc<dyn CacheEventHook>> {
        let hooks = self.hooks.read().unwrap_or_else(|e| e.into_inner());
        let live: Vec<Arc<dyn CacheEventHook>> = hooks.iter().filter_map(Weak::upgrade).collect();
        let dead = live.len() < hooks.len();
        drop(hooks);
        if dead {
            self.hooks
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|h| h.strong_count() > 0);
        }
        live
    }

    /// Shard by method key only, so an entry family and its eviction path
    /// always land in a single shard.
    fn shard_of(&self, key: &MethodKey) -> &RwLock<Shard> {
        &self.shards[(self.hasher.hash_one(key) as usize) % self.shards.len()]
    }

    // ----- poison recovery ---------------------------------------------------
    //
    // The tier is shared by every tenant thread in the process; a tenant
    // panicking while it holds a shard lock (a publisher dying mid-insert,
    // an app thread unwinding through an eviction) poisons that shard.
    // Propagating the poison — the old `.unwrap()` behaviour — would turn
    // one crashed tenant into a fleet-wide brick: every later adopter
    // panics on its first probe of the shard. Instead a poisoned shard is
    // *recovered* by clearing it: the interrupted mutation may have left
    // the shard logically half-applied (entry present, edges missing), and
    // eviction is always sound, so dropping the shard's derivations maps
    // the damage to a clean miss. Other tenants re-derive and republish.

    /// Clears and un-poisons a poisoned shard, counting the dropped
    /// derivations as evictions.
    fn recover_poisoned(&self, lock: &RwLock<Shard>) {
        let mut shard = match lock.write() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        let dropped: usize = shard.entries.values().map(|family| family.len()).sum();
        shard.entries.clear();
        shard.dependents.clear();
        lock.clear_poison();
        if dropped > 0 {
            self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
        }
    }

    /// Read-locks a shard, recovering it first if poisoned. A panic
    /// between the poison test and the acquisition still yields a guard
    /// (`into_inner`); the half-applied state behind it is memory-safe
    /// and at worst stale for this one operation — the next acquisition
    /// recovers it.
    fn shard_read<'a>(&self, lock: &'a RwLock<Shard>) -> RwLockReadGuard<'a, Shard> {
        if lock.is_poisoned() {
            self.recover_poisoned(lock);
        }
        lock.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write-locks a shard, recovering it first if poisoned.
    fn shard_write<'a>(&self, lock: &'a RwLock<Shard>) -> RwLockWriteGuard<'a, Shard> {
        if lock.is_poisoned() {
            self.recover_poisoned(lock);
        }
        lock.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a derivation for `(key, method_entry_id, sig_version,
    /// body_fingerprint)`. The caller still must validate the returned
    /// signature fingerprints against its own type table before adopting.
    pub fn lookup(
        &self,
        key: &MethodKey,
        method_entry_id: u64,
        sig_version: u64,
        body_fingerprint: u64,
    ) -> Option<Derivation> {
        let shard = self.shard_read(self.shard_of(key));
        let found = shard
            .entries
            .get(key)
            .and_then(|family| family.get(&(method_entry_id, sig_version, body_fingerprint)))
            .cloned();
        drop(shard);
        match found {
            Some(d) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(d)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True when the exact `(key, entry id, sig version, body
    /// fingerprint)` derivation is present. Unlike [`SharedCache::lookup`]
    /// this is a pure probe: no clone, no hit/miss accounting — the fleet
    /// daemon's publish-dedup path, which must not skew adoption stats.
    pub fn contains(
        &self,
        key: &MethodKey,
        method_entry_id: u64,
        sig_version: u64,
        body_fingerprint: u64,
    ) -> bool {
        let shard = self.shard_read(self.shard_of(key));
        shard.entries.get(key).is_some_and(|family| {
            family.contains_key(&(method_entry_id, sig_version, body_fingerprint))
        })
    }

    /// Publishes a derivation and registers its dependency edges. A
    /// derivation without a body fingerprint has no identity another
    /// tenant could match, so it is not published.
    pub fn insert(&self, key: MethodKey, d: Derivation) {
        let Some(version) = d.version_key() else {
            return;
        };
        let witnesses = d.witnesses.clone();
        self.shard_write(self.shard_of(&key))
            .entries
            .entry(key)
            .or_default()
            .insert(version, d);
        // Negative witnesses have no entry to hang an eviction edge on;
        // replay-validation alone guards them.
        for target in witnesses.iter().filter_map(|w| w.resolution.target) {
            let mut shard = self.shard_write(self.shard_of(&target));
            shard.dependents.entry(target).or_default().insert(key);
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        for hook in self.hooks() {
            hook.on_insert(&key);
        }
    }

    /// Evicts every cached version of `key` (the entry family), pruning
    /// the family's reverse-dependency edges so retired derivations can't
    /// trigger spurious fleet-wide evictions later and the edge map stays
    /// bounded across reload sessions (the shared-tier analogue of the
    /// engine's `unlink`). Returns the number of derivations dropped.
    pub fn evict_method(&self, key: &MethodKey) -> usize {
        let family = {
            let mut shard = self.shard_write(self.shard_of(key));
            shard.entries.remove(key)
        };
        let Some(family) = family else { return 0 };
        // Collect dep targets outside any lock (edge shards differ from
        // the entry shard; never hold two shard locks at once — the entry
        // shard's lock is already released, so a self-recursive method's
        // own edge prunes like any other).
        let targets: HashSet<MethodKey> = family.values().flat_map(Derivation::deps).collect();
        for t in targets {
            let mut shard = self.shard_write(self.shard_of(&t));
            if let Some(set) = shard.dependents.get_mut(&t) {
                set.remove(key);
                if set.is_empty() {
                    shard.dependents.remove(&t);
                }
            }
        }
        self.evictions
            .fetch_add(family.len() as u64, Ordering::Relaxed);
        for hook in self.hooks() {
            hook.on_evict(key);
        }
        family.len()
    }

    /// The methods whose shared derivations currently depend on `key`
    /// (the direct reverse-dependency set [`SharedCache::evict_dependents`]
    /// would fan out to). The fleet daemon reads this before applying an
    /// eviction notice so every family it drops gets its own tombstone.
    pub fn dependents_of(&self, key: &MethodKey) -> Vec<MethodKey> {
        let shard = self.shard_read(self.shard_of(key));
        shard
            .dependents
            .get(key)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Evicts the families of every method whose shared derivation
    /// depended on `key` — Definition 1(2) across tenants. Returns the
    /// number of derivations dropped.
    pub fn evict_dependents(&self, key: &MethodKey) -> usize {
        let dependents = {
            let mut shard = self.shard_write(self.shard_of(key));
            shard.dependents.remove(key)
        };
        let mut removed = 0;
        if let Some(methods) = dependents {
            for m in methods {
                removed += self.evict_method(&m);
            }
        }
        removed
    }

    /// [`SharedCache::evict_method`] plus [`SharedCache::evict_dependents`]
    /// — the full Definition 1 fan-out for a replaced signature or
    /// redefined method.
    pub fn evict_with_dependents(&self, key: &MethodKey) -> usize {
        self.evict_method(key) + self.evict_dependents(key)
    }

    /// Number of live derivations (sums entry families across shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                self.shard_read(s)
                    .entries
                    .values()
                    .map(|family| family.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// True when no derivations are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live reverse-dependency edges (diagnostic: eviction
    /// keeps this bounded by the live entries' dependency sets).
    pub fn edge_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                self.shard_read(s)
                    .dependents
                    .values()
                    .map(|set| set.len())
                    .sum::<usize>()
            })
            .sum()
    }

    // ----- snapshots ---------------------------------------------------------

    /// Every live derivation with its method key, in deterministic (key,
    /// version) order (snapshot support).
    pub(crate) fn iter_derivations(&self) -> Vec<(MethodKey, Derivation)> {
        let mut out: Vec<(MethodKey, Derivation)> = Vec::new();
        for lock in self.shards.iter() {
            let shard = self.shard_read(lock);
            for (key, family) in &shard.entries {
                out.extend(family.values().map(|d| (*key, d.clone())));
            }
        }
        out.sort_by_key(|(key, d)| (*key, d.version_key()));
        out
    }

    /// Serializes the tier into a portable [`crate::snapshot::CacheSnapshot`]
    /// (see [`crate::snapshot`] for the lifecycle and soundness story).
    pub fn snapshot(&self) -> crate::snapshot::CacheSnapshot {
        crate::snapshot::snapshot_of(self)
    }

    /// [`SharedCache::snapshot`] restricted to methods `keep` accepts —
    /// the delta encoder: the fleet daemon serializes only entries past a
    /// client's watermark; a fleet client serializes only its pending
    /// publications.
    pub fn snapshot_filtered(
        &self,
        keep: impl Fn(&MethodKey) -> bool,
    ) -> crate::snapshot::CacheSnapshot {
        crate::snapshot::snapshot_of_filtered(self, &keep)
    }

    /// Loads a snapshot's derivations into this tier, re-interning its
    /// symbol dictionary in this process. Returns the number of
    /// derivations loaded. Loaded entries are *candidates*: every adoption
    /// still passes the normal epoch/witness-replay validation, so a stale
    /// or divergent snapshot degrades to re-checking, never to unsound
    /// adoption.
    ///
    /// This is the one way derivations from elsewhere enter a process: a
    /// snapshot file at boot, a rolling-deploy push into a live tier, and
    /// every fleet fetch. It retires no tenant's cached derivations; those
    /// stay valid until the tenant's own world changes, and a loaded entry
    /// is considered at the tenant's next local cache miss.
    ///
    /// # Errors
    ///
    /// [`crate::snapshot::SnapshotError::BadSymbol`] when an entry
    /// references a symbol id outside the snapshot's dictionary (a
    /// malformed artifact). Validation happens before anything is
    /// inserted, so on `Err` the tier is untouched.
    pub fn load_snapshot(
        &self,
        snap: &crate::snapshot::CacheSnapshot,
    ) -> Result<usize, crate::snapshot::SnapshotError> {
        crate::snapshot::load_into(self, snap)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The eviction fan-out sink wired into each tenant's `RdlState` (see
/// `hb_rdl::RdlEventSink`): a tenant's type-table mutations evict the
/// affected shared entries immediately, on the mutating tenant's thread,
/// so other tenants stop adopting derivations checked against signatures
/// that no longer exist anywhere.
pub struct SharedEvictionSink {
    pub shared: Arc<SharedCache>,
}

impl RdlEventSink for SharedEvictionSink {
    fn on_rdl_event(&self, ev: &RdlEvent) {
        match ev {
            // Replacement invalidates the method and everything that
            // consulted its signature (Definition 1).
            RdlEvent::TypeReplaced(k) => {
                self.shared.evict_with_dependents(k);
            }
            // A new arm re-checks the method itself but leaves dependents
            // valid — the §4 "Cache Invalidation" intersection subtlety.
            RdlEvent::ArmAdded(k) => {
                self.shared.evict_method(k);
            }
            // Shadow-driven invalidation needs the class hierarchy, which
            // lives in the interpreter; the engine handles TypeAdded in
            // `process_events`.
            RdlEvent::TypeAdded(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_rdl::{Resolution, Witness};

    fn k(c: &str, m: &str) -> MethodKey {
        MethodKey::instance(c, m)
    }

    fn dep(c: &str, m: &str, v: u64) -> Witness {
        Witness {
            resolution: Resolution::of(c, false, m, Some(k(c, m))),
            sig_version: v,
            sig_fingerprint: 0xF00D,
        }
    }

    /// A derivation under version key `(entry_id, sig_version, body_fp)`.
    fn der(entry_id: u64, sig_version: u64, body_fp: u64, deps: Vec<Witness>) -> Derivation {
        Derivation {
            entry_id,
            sig_version,
            body_fp: Some(body_fp),
            own_sig_fp: 1,
            epochs: (1, 1, 1),
            witnesses: deps.into(),
            cast_sites: Arc::new([]),
        }
    }

    #[test]
    fn insert_lookup_and_version_mismatch() {
        let c = SharedCache::new();
        let key = k("Talk", "owner?");
        c.insert(key, der(7, 3, 0xB0D7, vec![dep("User", "name", 2)]));
        let d = c.lookup(&key, 7, 3, 0xB0D7).expect("exact version hits");
        assert_eq!(d.witnesses.as_ref(), &[dep("User", "name", 2)]);
        assert!(
            c.lookup(&key, 7, 4, 0xB0D7).is_none(),
            "sig version mismatch"
        );
        assert!(c.lookup(&key, 8, 3, 0xB0D7).is_none(), "entry id mismatch");
        assert!(
            c.lookup(&key, 7, 3, 0xDEAD).is_none(),
            "body fingerprint mismatch: same counters, different code"
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 3, 1));
    }

    #[test]
    fn eviction_drops_family_and_dependents() {
        let c = SharedCache::new();
        let caller = k("Talk", "owner?");
        let other = k("Talk", "title");
        c.insert(caller, der(1, 1, 1, vec![dep("User", "name", 1)]));
        c.insert(caller, der(2, 2, 1, vec![dep("User", "name", 1)])); // second family version
        c.insert(other, der(3, 1, 1, vec![]));
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.evict_with_dependents(&k("User", "name")),
            2,
            "both caller versions"
        );
        assert_eq!(c.len(), 1, "unrelated entry survives");
        assert!(c.lookup(&other, 3, 1, 1).is_some());
    }

    #[test]
    fn self_recursive_eviction_prunes_own_edge() {
        let c = SharedCache::new();
        let key = k("Talk", "visit");
        c.insert(key, der(1, 1, 1, vec![dep("Talk", "visit", 1)]));
        assert_eq!(c.edge_count(), 1);
        assert_eq!(c.evict_method(&key), 1);
        assert_eq!(c.edge_count(), 0, "self edge pruned like any other");
    }

    /// Counts the inserts it sees.
    #[derive(Default)]
    struct CountingHook(AtomicU64);

    impl CacheEventHook for CountingHook {
        fn on_insert(&self, _key: &MethodKey) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn dropped_hook_is_never_called_again_and_gets_pruned() {
        let c = SharedCache::new();
        let kept = Arc::new(CountingHook::default());
        let dropped = Arc::new(CountingHook::default());
        c.add_event_hook(Arc::downgrade(&kept) as _);
        c.add_event_hook(Arc::downgrade(&dropped) as _);
        c.insert(k("Talk", "title"), der(1, 1, 1, vec![]));
        let weak = Arc::downgrade(&dropped);
        drop(dropped);
        assert!(weak.upgrade().is_none(), "the tier keeps no hook alive");
        c.insert(k("Talk", "slug"), der(2, 1, 1, vec![]));
        assert_eq!(
            kept.0.load(Ordering::Relaxed),
            2,
            "live hooks see every insert"
        );
        assert_eq!(c.hooks.read().unwrap().len(), 1, "the dead slot was pruned");
    }

    #[test]
    fn shared_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedCache>();
        assert_send_sync::<Arc<SharedCache>>();
    }

    /// A tenant thread panicking while it holds a shard lock (a publisher
    /// dying mid-insert) must not brick every other tenant's adoption
    /// path: the poisoned shard recovers as a clean miss + eviction.
    #[test]
    fn poisoned_shard_recovers_instead_of_bricking_adopters() {
        let c = Arc::new(SharedCache::with_shards(1));
        let key = k("Talk", "owner?");
        c.insert(key, der(1, 1, 1, vec![dep("User", "name", 1)]));
        assert!(c.lookup(&key, 1, 1, 1).is_some());

        // Poison the (only) shard: a thread panics while holding the
        // write lock, exactly like a publisher dying mid-mutation.
        let c2 = c.clone();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test output quiet
        let joined = std::thread::spawn(move || {
            let _guard = c2.shards[0].write().unwrap();
            panic!("publisher dies while holding the shard lock");
        })
        .join();
        std::panic::set_hook(prev_hook);
        assert!(joined.is_err(), "the publisher thread must have panicked");
        assert!(c.shards[0].is_poisoned(), "the shard is poisoned");

        // Adopters are not bricked: the poisoned shard recovers by
        // clearing (its possibly half-applied state becomes a clean miss,
        // counted as evictions) and keeps serving.
        assert!(
            c.lookup(&key, 1, 1, 1).is_none(),
            "recovered shard serves a clean miss, not a panic"
        );
        assert_eq!(c.stats().evictions, 1, "dropped derivations are counted");
        assert!(!c.shards[0].is_poisoned(), "poison is cleared");

        // The tier keeps working end to end: publish again, adopt again.
        c.insert(key, der(1, 1, 1, vec![dep("User", "name", 1)]));
        assert!(c.lookup(&key, 1, 1, 1).is_some());
        assert_eq!(c.evict_with_dependents(&k("User", "name")), 1);
    }
}
