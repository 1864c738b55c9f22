//! The daemon's tier and request semantics, independent of any socket.
//!
//! [`FleetDaemon`] owns a [`SharedCache`] plus the publication metadata
//! that makes *delta* serving possible: a monotonic sequence number
//! bumped by every accepted state change, per-method "last changed at
//! seq" stamps, a tombstone log of evicted families, and a bounded
//! history of the `(seq, world-epochs)` watermarks it has handed out. A
//! delta fetch is honoured only for a watermark the daemon itself
//! issued and whose tombstone suffix is still enumerable; anything else
//! silently widens to a full snapshot — clients never see an error for
//! being too far behind, only more bytes.
//!
//! Maintenance — LRU compaction to a configurable entry cap and atomic
//! snapshot writeback for crash recovery — is exposed both as a
//! deterministic [`FleetDaemon::maintain`] (tests, CI) and as a
//! recurring `hb-sched` pool job ([`FleetDaemon::start_maintenance`]).

use hb_obs::{Counter, Histogram, Registry};
use hummingbird::fleet::wire::{DaemonStats, SnapshotResp};
use hummingbird::fleet::FleetError;
use hummingbird::{CacheSnapshot, MethodKey, Scheduler, SharedCache};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How many handed-out watermarks the daemon remembers. A client whose
/// watermark has aged out of the window is served a full snapshot —
/// correctness never depends on the bound.
const WATERMARK_HISTORY: usize = 256;

/// Daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Writeback target: the tier is re-serialized here (atomically,
    /// via temp-file + rename) by every maintenance pass, and loaded
    /// from here at boot when the file exists — crash recovery is "load
    /// file, serve fleet". `None` disables writeback.
    pub snapshot_path: Option<PathBuf>,
    /// Compaction cap: when the tier holds more derivations than this,
    /// maintenance evicts least-recently-adopted entry families until
    /// it fits. `0` means unbounded.
    pub max_entries: usize,
}

/// Per-method publication metadata.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    /// Sequence number of the last accepted publication touching this
    /// family (what a delta fetch compares against).
    last_seq: u64,
    /// Logical adoption clock: bumped when the family is published and
    /// whenever a delta fetch serves it. The compaction pass evicts the
    /// smallest values first (last-adoption LRU).
    last_touch: u64,
}

#[derive(Default)]
struct DaemonState {
    /// Monotonic publication sequence; bumped by every accepted publish
    /// batch and every eviction notice that removed something.
    seq: u64,
    /// The epoch triple of the most recent accepted publication — the
    /// fleet's current world tag, echoed in every watermark.
    world: (u64, u64, u64),
    /// Logical clock feeding [`EntryMeta::last_touch`].
    tick: u64,
    meta: HashMap<MethodKey, EntryMeta>,
    /// The `(seq, world)` watermarks this daemon has issued, newest at
    /// the back, bounded to [`WATERMARK_HISTORY`].
    history: VecDeque<(u64, (u64, u64, u64))>,
    /// Families evicted by notices, with the seq of the eviction.
    /// Trimmed by writeback (the snapshot file is a full image, so
    /// tombstones at or below the written seq fold into it).
    tombstones: VecDeque<(u64, MethodKey)>,
    /// Watermarks below this cannot have their tombstone suffix
    /// enumerated (the log was folded); deltas for them widen to full.
    tombstone_floor: u64,
}

impl DaemonState {
    fn push_history(&mut self) {
        self.history.push_back((self.seq, self.world));
        while self.history.len() > WATERMARK_HISTORY {
            self.history.pop_front();
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The daemon: a [`SharedCache`] tier plus delta/compaction metadata.
/// All request handling is `&self` and thread-safe — the socket server
/// calls straight in from per-connection threads.
pub struct FleetDaemon {
    cache: Arc<SharedCache>,
    state: Mutex<DaemonState>,
    config: DaemonConfig,
    fetches: AtomicU64,
    deltas: AtomicU64,
    publishes: AtomicU64,
    evictions: AtomicU64,
    compactions: AtomicU64,
    writebacks: AtomicU64,
    registry: Arc<Registry>,
    /// Requests handled, across opcodes (including ones that errored).
    pub requests_total: Arc<Counter>,
    /// Requests answered with `RESP_ERR`.
    pub errors_total: Arc<Counter>,
    /// Wall-clock nanoseconds spent handling each request.
    pub request_ns: Arc<Histogram>,
    shutdown: AtomicBool,
}

impl FleetDaemon {
    /// A daemon over an empty tier — or, when `config.snapshot_path`
    /// names an existing readable artifact, over the recovered tier
    /// (corrupt or unreadable files are reported and ignored: the
    /// daemon comes up empty rather than not at all).
    pub fn new(config: DaemonConfig) -> (Arc<FleetDaemon>, Option<String>) {
        let cache = Arc::new(SharedCache::new());
        let mut recovery_warning = None;
        if let Some(path) = &config.snapshot_path {
            if path.exists() {
                match std::fs::read(path)
                    .map_err(|e| e.to_string())
                    .and_then(|bytes| CacheSnapshot::from_bytes(&bytes).map_err(|e| e.to_string()))
                    .and_then(|snap| cache.load_snapshot(&snap).map_err(|e| e.to_string()))
                {
                    Ok(_) => {}
                    Err(e) => {
                        recovery_warning =
                            Some(format!("ignoring snapshot {}: {e}", path.display()));
                    }
                }
            }
        }
        let mut state = DaemonState::default();
        // Recovered entries predate every watermark; stamp them at seq 0
        // so the first delta fetch after a fresh boot serves nothing.
        let tick = state.next_tick();
        for (key, _, _, _) in cache.snapshot().entry_versions().unwrap_or_default() {
            state.meta.entry(key).or_insert(EntryMeta {
                last_seq: 0,
                last_touch: tick,
            });
        }
        state.push_history();
        let registry = Arc::new(Registry::new());
        let daemon = Arc::new(FleetDaemon {
            cache,
            state: Mutex::new(state),
            config,
            fetches: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            requests_total: registry.counter(
                "hb_fleetd_requests_total",
                "HBFLEET1 requests handled, across all opcodes",
            ),
            errors_total: registry
                .counter("hb_fleetd_errors_total", "requests answered with RESP_ERR"),
            request_ns: registry.histogram(
                "hb_fleetd_request_ns",
                "wall-clock nanoseconds handling each HBFLEET1 request",
            ),
            registry,
            shutdown: AtomicBool::new(false),
        });
        (daemon, recovery_warning)
    }

    /// The daemon-owned tier (tests inspect it directly).
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// True after a `SHUTDOWN` request (the server's accept loop polls
    /// this).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown (the `SHUTDOWN` opcode lands here).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn state(&self) -> std::sync::MutexGuard<'_, DaemonState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DaemonStats {
        let st = self.state();
        DaemonStats {
            entries: self.cache.len() as u64,
            seq: st.seq,
            fetches: self.fetches.load(Ordering::Relaxed),
            deltas: self.deltas.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// The daemon-side metrics as Prometheus text (the `STATS_V2`
    /// opcode): the request counters/histogram from the registry plus
    /// one `hb_fleetd_<field>` series per [`DaemonStats`] field, which
    /// `FleetClient::daemon_stats` parses back out.
    pub fn metrics_prometheus(&self) -> String {
        let mut out = self.registry.render_prometheus();
        out.push_str(&self.stats().to_prometheus());
        out
    }

    /// Serves a full snapshot of the tier. Captured under the state
    /// lock so the watermark handed out can never be newer than the
    /// snapshot's contents (a concurrent publish lands either wholly
    /// before or wholly after this fetch).
    pub fn fetch_full(&self) -> SnapshotResp {
        let st = self.state();
        let snapshot = self.cache.snapshot().to_bytes();
        let (seq, epochs) = (st.seq, st.world);
        drop(st);
        self.fetches.fetch_add(1, Ordering::Relaxed);
        SnapshotResp {
            delta: false,
            seq,
            epochs,
            tombstones: Vec::new(),
            snapshot,
        }
    }

    /// Serves the entries published after `(seq, epochs)` plus the
    /// tombstones of families evicted since — or a full snapshot when
    /// the watermark is not one this daemon issued (restart, forgery,
    /// aged out of history) or its tombstone suffix was folded away.
    pub fn fetch_delta(&self, seq: u64, epochs: (u64, u64, u64)) -> SnapshotResp {
        let (keys, tombstones, resp_seq, resp_world) = {
            let mut st = self.state();
            let genuine = st.history.iter().any(|&(s, w)| s == seq && w == epochs);
            if !genuine || seq < st.tombstone_floor || seq > st.seq {
                drop(st);
                return self.fetch_full();
            }
            let keys: HashSet<MethodKey> = st
                .meta
                .iter()
                .filter(|(_, m)| m.last_seq > seq)
                .map(|(k, _)| *k)
                .collect();
            let mut tomb_set: HashSet<MethodKey> = HashSet::new();
            let mut tombstones = Vec::new();
            for &(s, key) in st.tombstones.iter() {
                if s > seq && tomb_set.insert(key) {
                    tombstones.push(key);
                }
            }
            // Serving an entry in a delta is an adoption signal: these
            // families are live on real tenants — compact them last.
            let tick = st.next_tick();
            for key in &keys {
                if let Some(m) = st.meta.get_mut(key) {
                    m.last_touch = tick;
                }
            }
            (keys, tombstones, st.seq, st.world)
        };
        let snapshot = self
            .cache
            .snapshot_filtered(|k| keys.contains(k))
            .to_bytes();
        self.deltas.fetch_add(1, Ordering::Relaxed);
        SnapshotResp {
            delta: true,
            seq: resp_seq,
            epochs: resp_world,
            tombstones,
            snapshot,
        }
    }

    /// Accepts a publish-back: `snapshot_bytes` is an `HBSNAP02` image
    /// of the publisher's locally derived entries, `epochs` its world
    /// triple. Entries the daemon already serves (same key *and*
    /// version tuple) are deduplicated — only genuinely new material
    /// bumps the sequence number, so republication storms cannot churn
    /// every client's delta. Returns the number of new entries.
    ///
    /// # Errors
    ///
    /// [`FleetError::Snapshot`] when the bytes fail to parse or load;
    /// the tier is untouched (snapshot loads are all-or-nothing).
    pub fn publish(
        &self,
        epochs: (u64, u64, u64),
        snapshot_bytes: &[u8],
    ) -> Result<u64, FleetError> {
        let snap = CacheSnapshot::from_bytes(snapshot_bytes).map_err(FleetError::Snapshot)?;
        let versions = snap.entry_versions().map_err(FleetError::Snapshot)?;
        let fresh: Vec<MethodKey> = versions
            .iter()
            .filter(|(key, entry_id, sig_version, body_fp)| {
                !self.cache.contains(key, *entry_id, *sig_version, *body_fp)
            })
            .map(|(key, _, _, _)| *key)
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        self.cache
            .load_snapshot(&snap)
            .map_err(FleetError::Snapshot)?;
        let mut st = self.state();
        st.seq += 1;
        st.world = epochs;
        let (seq, tick) = (st.seq, st.next_tick());
        for key in &fresh {
            st.meta.insert(
                *key,
                EntryMeta {
                    last_seq: seq,
                    last_touch: tick,
                },
            );
        }
        st.push_history();
        drop(st);
        self.publishes
            .fetch_add(fresh.len() as u64, Ordering::Relaxed);
        Ok(fresh.len() as u64)
    }

    /// Applies eviction notices: each named family is dropped together
    /// with the families of its dependents (their derivations consulted
    /// the evicted signature), and every family actually removed is
    /// tombstoned so delta clients retire it too. Returns the number of
    /// families dropped.
    pub fn evict(&self, keys: &[MethodKey]) -> u64 {
        let mut dropped: Vec<MethodKey> = Vec::new();
        for key in keys {
            // Dependents first: `evict_method` prunes the reverse edges
            // of the family it removes, so reading them afterwards would
            // lose the fan-out.
            let mut family: Vec<MethodKey> = self.cache.dependents_of(key);
            family.push(*key);
            for k in family {
                if self.cache.evict_method(&k) > 0 {
                    dropped.push(k);
                }
            }
        }
        if dropped.is_empty() {
            return 0;
        }
        let mut st = self.state();
        st.seq += 1;
        let seq = st.seq;
        for key in &dropped {
            st.meta.remove(key);
            st.tombstones.push_back((seq, *key));
        }
        st.push_history();
        drop(st);
        self.evictions
            .fetch_add(dropped.len() as u64, Ordering::Relaxed);
        dropped.len() as u64
    }

    /// One deterministic maintenance pass: LRU compaction to the entry
    /// cap, then atomic snapshot writeback (when configured). Returns
    /// `(families_compacted, wrote_snapshot)`.
    pub fn maintain(&self) -> (usize, bool) {
        let compacted = self.compact();
        let wrote = self.writeback().unwrap_or_default();
        (compacted, wrote)
    }

    /// Evicts least-recently-adopted families until the tier fits the
    /// configured cap. Compaction is a capacity decision, not a world
    /// change: it does **not** tombstone (clients holding the entries
    /// keep them; they are still valid candidates) and does not bump
    /// the sequence number.
    fn compact(&self) -> usize {
        if self.config.max_entries == 0 {
            return 0;
        }
        let mut families_dropped = 0;
        while self.cache.len() > self.config.max_entries {
            let victim = {
                let st = self.state();
                st.meta
                    .iter()
                    .min_by_key(|(key, m)| (m.last_touch, **key))
                    .map(|(key, _)| *key)
            };
            let Some(victim) = victim else { break };
            let removed = self.cache.evict_method(&victim);
            self.state().meta.remove(&victim);
            if removed == 0 && self.cache.len() > self.config.max_entries {
                // Metadata named a family the tier no longer holds and
                // the tier is still over cap: without the remove above
                // making progress we would spin.
                continue;
            }
            if removed > 0 {
                families_dropped += 1;
            }
        }
        if families_dropped > 0 {
            self.compactions
                .fetch_add(families_dropped as u64, Ordering::Relaxed);
        }
        families_dropped
    }

    /// Re-serializes the tier to the configured snapshot path — write
    /// to a temp file, then rename, so a crash mid-write never leaves a
    /// torn artifact — and folds the tombstone log into it (the file is
    /// a full image; tombstones at or below the written seq are no
    /// longer needed for recovery, only for live delta clients, whose
    /// floor rises accordingly).
    fn writeback(&self) -> std::io::Result<bool> {
        let Some(path) = &self.config.snapshot_path else {
            return Ok(false);
        };
        let seq_at_capture = self.state().seq;
        let bytes = self.cache.snapshot().to_bytes();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        let mut st = self.state();
        st.tombstone_floor = st.tombstone_floor.max(seq_at_capture);
        let floor = st.tombstone_floor;
        while st.tombstones.front().is_some_and(|&(s, _)| s <= floor) {
            st.tombstones.pop_front();
        }
        drop(st);
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Schedules [`FleetDaemon::maintain`] as a recurring pool job every
    /// `interval` — PR 5's "async snapshot writeback" follow-up made
    /// real. Drop the returned task to stop; the pass runs on a worker
    /// under the pool's panic containment.
    pub fn start_maintenance(
        self: &Arc<Self>,
        sched: &Arc<Scheduler>,
        interval: Duration,
    ) -> hb_sched::PeriodicTask {
        let daemon = self.clone();
        sched.submit_periodic(interval, move || {
            daemon.maintain();
        })
    }
}
