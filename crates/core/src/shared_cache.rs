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
//! A method's *family* keeps up to [`FAMILY_CAP`] distinct derivations.
//! Tenants that share the tier but load different annotations (a plugin,
//! a feature flag) can check one body under one version key and still
//! reach different derivations, each valid only in its own world. Both
//! stay: a lookup returns every variant under the version key, newest
//! first, and a tenant adopts the first one its own validation accepts.
//!
//! Nothing leaves the tier because some tenant's world changed. A
//! derivation is valid only in the world of the tenant that holds it
//! (Definition 1), so validation at adoption is the one test a foreign
//! derivation must pass, and a tenant's own invalidation stays local. A
//! derivation leaves only to bound memory: the oldest of a family past
//! the cap, or a whole family the fleet daemon compacts.

use crate::derivation::Derivation;
use crate::snapshot::{CacheSnapshot, SnapshotError};
use hb_rdl::MethodKey;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How many distinct derivations one method's family keeps. An insert
/// past it drops the family's oldest.
pub const FAMILY_CAP: usize = 4;

#[derive(Default)]
struct Shard {
    /// Method → its family: distinct derivations with their entry stamps,
    /// oldest first, at most [`FAMILY_CAP`] of them.
    entries: HashMap<MethodKey, Vec<(u64, Derivation)>>,
}

/// Aggregate counters (monotonic, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that returned at least one variant.
    pub hits: u64,
    /// Lookups that returned none.
    pub misses: u64,
    /// Derivations that entered the tier (equal re-inserts excluded):
    /// the last entry stamp given out ([`SharedCache::seq`]).
    pub inserts: u64,
    /// Derivations dropped to bound memory: the oldest of a family past
    /// [`FAMILY_CAP`], and whatever a poisoned shard held.
    pub evictions: u64,
}

/// The shared tier. Cheap to clone behind `Arc`; every method takes
/// `&self` and is safe from any thread.
pub struct SharedCache {
    shards: Box<[RwLock<Shard>]>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The tier-wide entry sequence: each derivation that enters takes
    /// the next value as its stamp, under its shard's write lock. Relaxed
    /// suffices: the shard lock publishes the stamped derivation, and the
    /// counter orders no other data.
    inserts: AtomicU64,
    evictions: AtomicU64,
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
        }
    }

    /// Shard by method key only, so a whole family lands in one shard.
    fn shard_of(&self, key: &MethodKey) -> &RwLock<Shard> {
        &self.shards[(self.hasher.hash_one(key) as usize) % self.shards.len()]
    }

    // ----- poison recovery ---------------------------------------------------
    //
    // The tier is shared by every tenant thread in the process; a tenant
    // panicking while it holds a shard lock (a publisher dying mid-insert)
    // poisons that shard. Propagating the poison — the old `.unwrap()`
    // behaviour — would turn one crashed tenant into a fleet-wide brick:
    // every later adopter panics on its first probe of the shard. Instead
    // a poisoned shard is *recovered* by clearing it: the interrupted
    // mutation may have left a family half-applied, and dropping a
    // candidate is always sound, so the damage maps to a clean miss.
    // Other tenants re-derive and republish.

    /// Clears and un-poisons a poisoned shard, counting the dropped
    /// derivations as evictions.
    fn recover_poisoned(&self, lock: &RwLock<Shard>) {
        let mut shard = match lock.write() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        let dropped: usize = shard.entries.values().map(|family| family.len()).sum();
        shard.entries.clear();
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

    /// Every variant cached under `(key, method_entry_id, sig_version,
    /// body_fingerprint)`, newest first; empty on a miss. The caller
    /// still must validate a variant against its own world before
    /// adopting it.
    pub fn lookup(
        &self,
        key: &MethodKey,
        method_entry_id: u64,
        sig_version: u64,
        body_fingerprint: u64,
    ) -> Vec<Derivation> {
        let version = Some((method_entry_id, sig_version, body_fingerprint));
        let shard = self.shard_read(self.shard_of(key));
        let found: Vec<Derivation> = shard
            .entries
            .get(key)
            .map(|family| {
                family
                    .iter()
                    .rev()
                    .map(|(_, d)| d)
                    .filter(|d| d.version_key() == version)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        drop(shard);
        let counter = if found.is_empty() {
            &self.misses
        } else {
            &self.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Adds `d` to `key`'s family, stamped with the next entry sequence
    /// number, and returns true; or returns false and changes nothing
    /// when an equal derivation is already there. A family past
    /// [`FAMILY_CAP`] drops its oldest. A derivation without a body
    /// fingerprint has no identity another tenant could match, so it is
    /// not added.
    pub fn insert(&self, key: MethodKey, d: Derivation) -> bool {
        if d.body_fp.is_none() {
            return false;
        }
        let mut shard = self.shard_write(self.shard_of(&key));
        let family = shard.entries.entry(key).or_default();
        if family.iter().any(|(_, held)| *held == d) {
            return false;
        }
        let stamp = self.inserts.fetch_add(1, Ordering::Relaxed) + 1;
        family.push((stamp, d));
        let excess = family.len().saturating_sub(FAMILY_CAP);
        family.drain(..excess);
        drop(shard);
        if excess > 0 {
            self.evictions.fetch_add(excess as u64, Ordering::Relaxed);
        }
        true
    }

    /// The stamp of the last derivation that entered the tier (0 while
    /// none has).
    pub fn seq(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Every derivation still in the tier whose entry stamp is past
    /// `stamp`, in key order, then entry order. A fleet session publishes
    /// exactly these: what entered since its last sync.
    pub fn entered_since(&self, stamp: u64) -> Vec<(MethodKey, Derivation)> {
        let mut entered: Vec<(MethodKey, u64, Derivation)> = Vec::new();
        for lock in self.shards.iter() {
            let shard = self.shard_read(lock);
            for (key, family) in shard.entries.iter() {
                entered.extend(
                    family
                        .iter()
                        .filter(|(s, _)| *s > stamp)
                        .map(|(s, d)| (*key, *s, d.clone())),
                );
            }
        }
        entered.sort_unstable_by_key(|(key, s, _)| (*key, *s));
        entered.into_iter().map(|(key, _, d)| (key, d)).collect()
    }

    /// Drops `key`'s whole family and returns how many derivations it
    /// held. The fleet daemon's LRU compaction uses it: a capacity
    /// decision, not a world change.
    pub fn remove_family(&self, key: &MethodKey) -> usize {
        self.shard_write(self.shard_of(key))
            .entries
            .remove(key)
            .map_or(0, |family| family.len())
    }

    /// Number of live derivations (sums families across shards).
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

    // ----- snapshots ---------------------------------------------------------

    /// Serializes the tier into a portable [`CacheSnapshot`] (see
    /// [`crate::snapshot`] for the lifecycle and soundness story).
    pub fn snapshot(&self) -> CacheSnapshot {
        self.snapshot_filtered(|_| true)
    }

    /// [`SharedCache::snapshot`] restricted to methods `keep` accepts —
    /// the delta encoder: the fleet daemon serializes only the families
    /// changed past a client's watermark. Entries come in deterministic
    /// (key, version) order, a family's variants oldest first.
    pub fn snapshot_filtered(&self, keep: impl Fn(&MethodKey) -> bool) -> CacheSnapshot {
        let mut kept: Vec<(MethodKey, Derivation)> = Vec::new();
        for lock in self.shards.iter() {
            let shard = self.shard_read(lock);
            for (key, family) in shard.entries.iter().filter(|(key, _)| keep(key)) {
                kept.extend(family.iter().map(|(_, d)| (*key, d.clone())));
            }
        }
        kept.sort_by_key(|(key, d)| (*key, d.version_key()));
        CacheSnapshot::of(kept.iter().map(|(key, d)| (key, d)))
    }

    /// Loads a snapshot's derivations into this tier, re-interning its
    /// symbol dictionary in this process. Returns the number of
    /// derivations in the snapshot. Loaded entries are *candidates*:
    /// every adoption still passes the normal epoch/witness-replay
    /// validation, so a stale or divergent snapshot degrades to
    /// re-checking, never to unsound adoption.
    ///
    /// This is the one way derivations from elsewhere enter a process: a
    /// snapshot file at boot, a rolling-deploy push into a live tier, and
    /// every fleet fetch. It retires no tenant's cached derivations; those
    /// stay valid until the tenant's own world changes, and a loaded entry
    /// is considered at the tenant's next local cache miss. Repeated
    /// version keys load as variants of one family.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadSymbol`] when an entry references a symbol id
    /// outside the snapshot's dictionary (a malformed artifact). Every
    /// entry is translated before anything is inserted, so on `Err` the
    /// tier is untouched.
    pub fn load_snapshot(&self, snap: &CacheSnapshot) -> Result<usize, SnapshotError> {
        let derivations = snap.derivations()?;
        let loaded = derivations.len();
        for (key, d) in derivations {
            self.insert(key, d);
        }
        Ok(loaded)
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

#[cfg(test)]
mod tests {
    use super::*;
    use hb_rdl::{Resolution, Witness};
    use std::sync::Arc;

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
        let found = c.lookup(&key, 7, 3, 0xB0D7);
        let d = found.first().expect("exact version hits");
        assert_eq!(d.witnesses.as_ref(), &[dep("User", "name", 2)]);
        assert!(
            c.lookup(&key, 7, 4, 0xB0D7).is_empty(),
            "sig version mismatch"
        );
        assert!(c.lookup(&key, 8, 3, 0xB0D7).is_empty(), "entry id mismatch");
        assert!(
            c.lookup(&key, 7, 3, 0xDEAD).is_empty(),
            "body fingerprint mismatch: same counters, different code"
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 3, 1));
    }

    #[test]
    fn an_equal_insert_is_a_no_op() {
        let c = SharedCache::new();
        let key = k("Talk", "title");
        assert!(c.insert(key, der(1, 1, 1, vec![dep("User", "name", 1)])));
        assert!(
            !c.insert(key, der(1, 1, 1, vec![dep("User", "name", 1)])),
            "an equal derivation is already there"
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&key, 1, 1, 1).len(), 1);
        assert_eq!(c.stats().inserts, 1, "only the first insert counts");
    }

    #[test]
    fn a_variant_under_the_same_version_key_is_kept_and_looked_up_first() {
        let c = SharedCache::new();
        let key = k("Talk", "title");
        let plain = der(1, 1, 1, vec![dep("User", "name", 1)]);
        // Another world: same version key and witnesses, another
        // hierarchy epoch.
        let writer = Derivation {
            epochs: (1, 2, 1),
            ..plain.clone()
        };
        assert!(c.insert(key, plain.clone()));
        assert!(c.insert(key, writer.clone()), "a distinct variant is kept");
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&key, 1, 1, 1), vec![writer, plain], "newest first");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn the_family_cap_drops_the_oldest() {
        let c = SharedCache::new();
        let key = k("Talk", "title");
        let other = k("Talk", "slug");
        c.insert(other, der(9, 1, 9, vec![]));
        for v in 1..=FAMILY_CAP as u64 + 2 {
            assert!(c.insert(key, der(v, 1, 1, vec![])));
        }
        assert_eq!(c.len(), FAMILY_CAP + 1, "the capped family plus `other`");
        assert_eq!(c.stats().evictions, 2);
        assert!(c.lookup(&key, 1, 1, 1).is_empty(), "the oldest went first");
        assert!(c.lookup(&key, 2, 1, 1).is_empty());
        assert_eq!(c.lookup(&key, 3, 1, 1).len(), 1);
        assert_eq!(
            c.lookup(&other, 9, 1, 9).len(),
            1,
            "another family is untouched"
        );
        assert_eq!(c.remove_family(&key), FAMILY_CAP);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn entered_since_returns_what_entered_after_a_stamp_by_key_then_entry() {
        let c = SharedCache::new();
        let (talk, user) = (k("Talk", "title"), k("User", "name"));
        assert!(c.insert(user, der(1, 1, 1, vec![])));
        let stamp = c.seq();
        for (key, id) in [(user, 2), (talk, 3), (user, 4)] {
            assert!(c.insert(key, der(id, 1, 1, vec![])));
        }
        assert!(!c.insert(talk, der(3, 1, 1, vec![])), "an equal re-insert");
        assert_eq!(c.seq(), stamp + 3, "the re-insert took no stamp");
        let ids = |since: u64| -> Vec<(MethodKey, u64)> {
            c.entered_since(since)
                .into_iter()
                .map(|(key, d)| (key, d.entry_id))
                .collect()
        };
        assert_eq!(ids(stamp), vec![(talk, 3), (user, 2), (user, 4)]);
        assert_eq!(ids(0), vec![(talk, 3), (user, 1), (user, 2), (user, 4)]);
        assert!(ids(c.seq()).is_empty());

        // A full family of newer variants pushes 2 and 4, which entered
        // after `stamp`, out at the cap; they are not returned.
        let newer: Vec<u64> = (5..5 + FAMILY_CAP as u64).collect();
        for &id in &newer {
            assert!(c.insert(user, der(id, 1, 1, vec![])));
        }
        let mut expected = vec![(talk, 3)];
        expected.extend(newer.iter().map(|&id| (user, id)));
        assert_eq!(ids(stamp), expected);
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
        assert!(!c.lookup(&key, 1, 1, 1).is_empty());

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
            c.lookup(&key, 1, 1, 1).is_empty(),
            "recovered shard serves a clean miss, not a panic"
        );
        assert_eq!(c.stats().evictions, 1, "dropped derivations are counted");
        assert!(!c.shards[0].is_poisoned(), "poison is cleared");

        // The tier keeps working end to end: publish again, adopt again.
        c.insert(key, der(1, 1, 1, vec![dep("User", "name", 1)]));
        assert!(!c.lookup(&key, 1, 1, 1).is_empty());
        assert_eq!(c.remove_family(&key), 1);
    }
}
