//! The daemon's tier and request semantics, plus the registry of live
//! connections that shutdown cuts.
//!
//! [`FleetDaemon`] owns a [`SharedCache`] plus the publication metadata
//! that makes *delta* serving possible: a monotonic sequence number
//! bumped by every publish that added a derivation, per-method "last
//! changed at seq" stamps, and a bounded history of the `(seq,
//! world-epochs)` watermarks it has handed out. A delta fetch is
//! honoured only for a watermark the daemon itself issued; anything
//! else silently widens to a full snapshot — clients never see an error
//! for being too far behind, only more bytes.
//!
//! The tier only gains candidates: no tenant's world change retires a
//! derivation here, because each adopter validates what it fetches
//! against its own world. A derivation leaves only to bound memory —
//! at the tier's per-method family cap, or by compaction.
//!
//! Maintenance — LRU compaction to a configurable entry cap and atomic
//! snapshot writeback for crash recovery — is exposed both as a
//! deterministic [`FleetDaemon::maintain`] (tests, CI) and as a
//! recurring `hb-sched` pool job ([`FleetDaemon::start_maintenance`]).
//!
//! Shutdown ([`FleetDaemon::request_shutdown`]) is event-driven: it
//! shuts down every registered connection, so blocked reads return
//! EOF, and wakes each listener's blocked `accept` with one connect.

use hb_obs::{Counter, Histogram, Registry};
use hummingbird::fleet::wire::{DaemonStats, SnapshotResp};
use hummingbird::fleet::FleetError;
use hummingbird::{CacheSnapshot, MethodKey, Scheduler, SharedCache};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Monotonic publication sequence; bumped by every publish batch
    /// that added at least one derivation.
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

/// The live connections and the listeners shutdown must wake, guarded
/// together with the shutdown flag: a connection either registers
/// before shutdown, and is cut by it, or is dropped unregistered.
#[derive(Default)]
struct Connections {
    shutdown: bool,
    /// A clone of each open connection's stream, by connection id.
    open: HashMap<u64, UnixStream>,
    /// Socket paths of listeners not yet woken by a shutdown.
    listeners: Vec<PathBuf>,
}

/// The daemon: a [`SharedCache`] tier plus delta/compaction metadata.
/// All request handling is `&self` and thread-safe — the socket server
/// calls straight in from per-connection threads.
pub struct FleetDaemon {
    cache: Arc<SharedCache>,
    state: Mutex<DaemonState>,
    config: DaemonConfig,
    /// Every counter the daemon keeps; `entries`, `seq` and `evictions`
    /// are read from the tier and the state when rendered.
    registry: Arc<Registry>,
    /// Requests handled, across opcodes (including ones that errored).
    pub requests_total: Arc<Counter>,
    /// Requests answered with `RESP_ERR`.
    pub errors_total: Arc<Counter>,
    /// Wall-clock nanoseconds spent handling each request.
    pub request_ns: Arc<Histogram>,
    connections_total: Arc<Counter>,
    connections_closed_total: Arc<Counter>,
    fetches: Arc<Counter>,
    deltas: Arc<Counter>,
    publishes: Arc<Counter>,
    compactions: Arc<Counter>,
    writebacks: Arc<Counter>,
    connections: Mutex<Connections>,
    /// Signalled when shutdown is requested ([`FleetServer::join`]
    /// waits on it).
    ///
    /// [`FleetServer::join`]: crate::FleetServer::join
    shutdown_signal: Condvar,
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
            requests_total: registry.counter(
                "hb_fleetd_requests_total",
                "HBFLEET2 requests handled, across all opcodes",
            ),
            errors_total: registry
                .counter("hb_fleetd_errors_total", "requests answered with RESP_ERR"),
            request_ns: registry.histogram(
                "hb_fleetd_request_ns",
                "wall-clock nanoseconds handling each HBFLEET2 request",
            ),
            connections_total: registry
                .counter("hb_fleetd_connections_total", "client connections accepted"),
            connections_closed_total: registry.counter(
                "hb_fleetd_connections_closed_total",
                "client connections closed",
            ),
            fetches: registry.counter("hb_fleetd_fetches", "full fetches served"),
            deltas: registry.counter("hb_fleetd_deltas", "delta fetches served"),
            publishes: registry.counter("hb_fleetd_publishes", "new entries accepted"),
            compactions: registry.counter("hb_fleetd_compactions", "families compacted"),
            writebacks: registry.counter("hb_fleetd_writebacks", "snapshot writebacks"),
            registry,
            connections: Mutex::new(Connections::default()),
            shutdown_signal: Condvar::new(),
        });
        (daemon, recovery_warning)
    }

    /// The daemon-owned tier (tests inspect it directly).
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    fn connections(&self) -> MutexGuard<'_, Connections> {
        // Every update below leaves the registry consistent, so a
        // poisoned lock is safe to recover.
        self.connections.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.connections().shutdown
    }

    /// Shuts the daemon's servers down. From this call on no connection
    /// registers; every open one is shut down in both directions, so a
    /// read blocked on a hung client returns EOF; and each listener is
    /// woken from `accept` by one connect to its socket. Reached from
    /// the `SHUTDOWN` opcode, [`FleetServer`] drop and embedders; calling
    /// it again is harmless.
    ///
    /// [`FleetServer`]: crate::FleetServer
    pub fn request_shutdown(&self) {
        let listeners = {
            let mut conns = self.connections();
            conns.shutdown = true;
            for stream in conns.open.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut conns.listeners)
        };
        self.shutdown_signal.notify_all();
        // Outside the lock: the accept loop takes it to see the flag.
        for path in listeners {
            let _ = UnixStream::connect(path);
        }
    }

    /// Blocks until shutdown is requested.
    pub(crate) fn wait_for_shutdown(&self) {
        let mut conns = self.connections();
        while !conns.shutdown {
            conns = self
                .shutdown_signal
                .wait(conns)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records a listener on `path` for shutdown to wake.
    pub(crate) fn add_listener(&self, path: &Path) {
        self.connections().listeners.push(path.to_path_buf());
    }

    /// Registers an accepted connection by a clone of its stream and
    /// returns its id, or `None` once shutdown was requested (the
    /// caller drops the connection unserved and stops accepting).
    pub(crate) fn register(&self, clone: UnixStream) -> Option<u64> {
        let mut conns = self.connections();
        if conns.shutdown {
            return None;
        }
        // Bumped only under this lock, the accepted count doubles as a
        // unique connection id.
        let id = self.connections_total.get();
        self.connections_total.inc();
        conns.open.insert(id, clone);
        Some(id)
    }

    /// Releases a registered connection's stream clone.
    pub(crate) fn deregister(&self, id: u64) {
        self.connections().open.remove(&id);
        self.connections_closed_total.inc();
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
            fetches: self.fetches.get(),
            deltas: self.deltas.get(),
            publishes: self.publishes.get(),
            evictions: self.cache.stats().evictions,
            compactions: self.compactions.get(),
            writebacks: self.writebacks.get(),
        }
    }

    /// The daemon-side metrics as Prometheus text (the `STATS_V2`
    /// opcode): every registry series, then the `entries`, `seq` and
    /// `evictions` readings. Together they carry one
    /// `hb_fleetd_<field>` series per [`DaemonStats`] field, which
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
        self.fetches.inc();
        SnapshotResp {
            delta: false,
            seq,
            epochs,
            snapshot,
        }
    }

    /// Serves every variant of each family changed after `(seq,
    /// epochs)` — or a full snapshot when the watermark is not one this
    /// daemon issued (restart, forgery, aged out of history).
    pub fn fetch_delta(&self, seq: u64, epochs: (u64, u64, u64)) -> SnapshotResp {
        let (keys, resp_seq, resp_world) = {
            let mut st = self.state();
            let genuine = st.history.iter().any(|&(s, w)| s == seq && w == epochs);
            if !genuine || seq > st.seq {
                drop(st);
                return self.fetch_full();
            }
            let keys: HashSet<MethodKey> = st
                .meta
                .iter()
                .filter(|(_, m)| m.last_seq > seq)
                .map(|(k, _)| *k)
                .collect();
            // Serving an entry in a delta is an adoption signal: these
            // families are live on real tenants — compact them last.
            let tick = st.next_tick();
            for key in &keys {
                if let Some(m) = st.meta.get_mut(key) {
                    m.last_touch = tick;
                }
            }
            (keys, st.seq, st.world)
        };
        let snapshot = self
            .cache
            .snapshot_filtered(|k| keys.contains(k))
            .to_bytes();
        self.deltas.inc();
        SnapshotResp {
            delta: true,
            seq: resp_seq,
            epochs: resp_world,
            snapshot,
        }
    }

    /// Accepts a publish-back: `snapshot_bytes` is an `HBSNAP02` image
    /// of the publisher's locally derived entries, `epochs` its world
    /// triple. Each derivation joins its method's family unless an
    /// equal one is already there; only genuinely new material bumps
    /// the sequence number, so republication storms cannot churn every
    /// client's delta. The whole batch lands under the state lock, so a
    /// concurrent fetch sees it wholly or not at all. Returns the number
    /// of new derivations.
    ///
    /// # Errors
    ///
    /// [`FleetError::Snapshot`] when the bytes fail to parse or
    /// translate; the tier is untouched.
    pub fn publish(
        &self,
        epochs: (u64, u64, u64),
        snapshot_bytes: &[u8],
    ) -> Result<u64, FleetError> {
        let snap = CacheSnapshot::from_bytes(snapshot_bytes).map_err(FleetError::Snapshot)?;
        let derivations = snap.derivations().map_err(FleetError::Snapshot)?;
        let mut st = self.state();
        let fresh: Vec<MethodKey> = derivations
            .into_iter()
            .filter_map(|(key, d)| self.cache.insert(key, d).then_some(key))
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
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
        self.publishes.add(fresh.len() as u64);
        Ok(fresh.len() as u64)
    }

    /// One deterministic maintenance pass: LRU compaction to the entry
    /// cap, then atomic snapshot writeback (when configured). Returns
    /// `(families_compacted, wrote_snapshot)`.
    pub fn maintain(&self) -> (usize, bool) {
        let compacted = self.compact();
        let wrote = self.writeback().unwrap_or_default();
        (compacted, wrote)
    }

    /// Drops least-recently-adopted families until the tier fits the
    /// configured cap. Compaction is a capacity decision, not a world
    /// change: clients holding the entries keep them (they are still
    /// candidates), and the sequence number does not move.
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
            let removed = self.cache.remove_family(&victim);
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
            self.compactions.add(families_dropped as u64);
        }
        families_dropped
    }

    /// Re-serializes the tier to the configured snapshot path — write
    /// to a temp file, then rename, so a crash mid-write never leaves a
    /// torn artifact.
    fn writeback(&self) -> std::io::Result<bool> {
        let Some(path) = &self.config.snapshot_path else {
            return Ok(false);
        };
        let bytes = self.cache.snapshot().to_bytes();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        self.writebacks.inc();
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
