//! The fleet client: warm-booting a tenant *process* from a long-lived
//! derivation daemon (`hb-fleetd`) over a Unix-domain socket.
//!
//! PR 2 shares derivations between tenants of one process; PR 4 carries
//! them across processes as a file-at-boot snapshot. This module closes
//! ROADMAP item 1's remaining gap: a fleet of N app-server processes
//! warm-boots from — and continuously feeds — one daemon-owned
//! [`SharedCache`] tier, over the versioned, length-prefixed `HBFLEET2`
//! protocol (see `docs/HBFLEET2.md`). The payloads reuse the `HBSNAP02`
//! snapshot encoding ([`crate::snapshot`]) wholesale: a fetch response
//! *is* a snapshot, restricted to the entries past the client's
//! watermark when the daemon can prove the delta.
//!
//! # Soundness
//!
//! The daemon is never trusted. Every fetched derivation lands in the
//! tenant's shared tier as a *candidate* and passes the existing
//! adoption funnel — the O(1) epoch fast path or per-witness replay
//! ([`crate::engine`]) — before anything skips a check. A divergent,
//! stale, or actively wrong daemon therefore costs latency (the tenant
//! re-checks locally), never soundness. Connection or protocol failures
//! degrade the same way: the session detaches and the tenant falls back
//! to purely local checking.
//!
//! Nothing that arrives from the daemon retires a local derivation, and
//! nothing a tenant retires is sent to the daemon. Under paper
//! Definition 1 a cached derivation stays valid until the holding
//! tenant's own world changes, and a fetched entry cannot change it. A
//! sync ([`crate::Hummingbird::fleet_sync`]) therefore only publishes
//! the derivations new to this tenant's tier and adds the fetched ones
//! as candidates; the engine's Definition 1 invalidation, driven by the
//! tenant's own interpreter and type-table events, is the one place a
//! local derivation is retired. A writer's own publications coming back
//! in its next delta cost nothing.
//!
//! # Watermarks and deltas
//!
//! Fetch responses carry an opaque watermark — the daemon's publication
//! sequence number plus the `(table, hierarchy, var)` epoch-fingerprint
//! triple of its current world. A delta fetch echoes the watermark back;
//! the daemon serves every variant of each family changed after it when
//! the watermark is genuine and recent enough to enumerate, and silently
//! widens to a full snapshot otherwise. The
//! client treats both shapes identically, so a restarted or compacted
//! daemon is indistinguishable from a slow one.

use crate::derivation::epochs_of;
use crate::engine::Engine;
use crate::shared_cache::SharedCache;
use crate::snapshot::{put_u64, ByteReader, CacheSnapshot, SnapshotError, Truncated};
use hb_interp::Interp;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

/// The `HBFLEET2` framing layer, shared verbatim by the client (here)
/// and the daemon (`hb-fleetd`): an 8-byte magic handshake in each
/// direction, then length-prefixed frames `u32 LE len | u8 opcode |
/// payload` where `len` counts the opcode byte plus the payload.
pub mod wire {
    use super::FleetError;
    use crate::snapshot::{put_u32, put_u64, ByteReader};
    use std::io::{Read, Write};

    /// Protocol magic, exchanged by both sides immediately after
    /// connect. A mismatch is [`FleetError::BadHandshake`]: a peer on
    /// `HBFLEET1`, whose snapshot responses had another layout, is
    /// refused instead of misread.
    pub const MAGIC: &[u8; 8] = b"HBFLEET2";

    /// Upper bound on a frame's declared length (opcode + payload).
    /// Anything larger is [`FleetError::FrameTooLarge`] — a corrupt or
    /// hostile length prefix must not turn into an allocation.
    pub const MAX_FRAME: u32 = 64 << 20;

    // ----- request opcodes ---------------------------------------------------

    /// Full snapshot fetch. Empty payload; answered with
    /// [`RESP_SNAPSHOT`].
    pub const FETCH_FULL: u8 = 0x01;
    /// Delta fetch: payload is a watermark (`u64` seq + three `u64`
    /// epoch fingerprints). Answered with [`RESP_SNAPSHOT`] — a delta
    /// when the daemon can prove one, a full snapshot otherwise.
    pub const FETCH_DELTA: u8 = 0x02;
    /// Publish-back: payload is three `u64` epoch fingerprints (the
    /// publisher's current world) followed by `HBSNAP02` snapshot bytes
    /// of the locally derived entries. Answered with [`RESP_ACK`]
    /// carrying the count of genuinely new entries. (Opcode `0x04`, the
    /// retired eviction notice, is unknown.)
    pub const PUBLISH: u8 = 0x03;
    /// Liveness probe. Empty payload; answered with [`RESP_ACK`].
    pub const PING: u8 = 0x06;
    /// Orderly shutdown (test and CI harness use). Answered with
    /// [`RESP_ACK`]; the daemon then closes every open connection and
    /// stops accepting.
    pub const SHUTDOWN: u8 = 0x07;
    /// Daemon metrics. Empty payload; answered with [`RESP_STATS_V2`]
    /// carrying the daemon's full metrics registry (request counters and
    /// latency histograms) plus its [`DaemonStats`] counters, rendered in
    /// the Prometheus text exposition format. The payload is
    /// self-describing, so the daemon can add series without a protocol
    /// revision. (Opcode `0x05`, the fixed-layout binary predecessor, is
    /// retired.)
    pub const STATS_V2: u8 = 0x08;

    // ----- response opcodes --------------------------------------------------

    /// Snapshot response (see [`SnapshotResp`]).
    pub const RESP_SNAPSHOT: u8 = 0x81;
    /// Acknowledgement carrying one `u64` value.
    pub const RESP_ACK: u8 = 0x82;
    /// Daemon metrics: the payload is UTF-8 Prometheus text.
    pub const RESP_STATS_V2: u8 = 0x84;
    /// Typed daemon-side failure: payload is a UTF-8 message. The
    /// connection stays usable.
    pub const RESP_ERR: u8 = 0x7F;

    /// Writes one frame.
    pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> std::io::Result<()> {
        let len = (payload.len() + 1) as u32;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&[opcode])?;
        w.write_all(payload)?;
        w.flush()
    }

    /// Reads one frame, enforcing [`MAX_FRAME`].
    pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), FleetError> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len).map_err(FleetError::Io)?;
        let len = u32::from_le_bytes(len);
        if len == 0 {
            return Err(FleetError::BadFrame("zero-length frame"));
        }
        if len > MAX_FRAME {
            return Err(FleetError::FrameTooLarge(len));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body).map_err(FleetError::Io)?;
        let opcode = body[0];
        body.drain(..1);
        Ok((opcode, body))
    }

    /// A decoded [`RESP_SNAPSHOT`] payload: the new watermark and the
    /// (possibly delta-restricted) `HBSNAP02` snapshot bytes.
    #[derive(Debug, Clone)]
    pub struct SnapshotResp {
        /// True when the snapshot holds only entries past the client's
        /// watermark; false when the daemon served the full tier.
        pub delta: bool,
        /// The daemon's publication sequence number — the `seq` half of
        /// the next watermark.
        pub seq: u64,
        /// The daemon's current world epoch triple — the other half.
        pub epochs: (u64, u64, u64),
        /// `HBSNAP02` bytes ([`crate::CacheSnapshot::from_bytes`]).
        pub snapshot: Vec<u8>,
    }

    /// Encodes a [`SnapshotResp`] payload.
    pub fn encode_snapshot_resp(resp: &SnapshotResp) -> Vec<u8> {
        let mut out = Vec::with_capacity(resp.snapshot.len() + 64);
        out.push(u8::from(resp.delta));
        put_u64(&mut out, resp.seq);
        put_u64(&mut out, resp.epochs.0);
        put_u64(&mut out, resp.epochs.1);
        put_u64(&mut out, resp.epochs.2);
        put_u32(&mut out, resp.snapshot.len() as u32);
        out.extend_from_slice(&resp.snapshot);
        out
    }

    /// Decodes a [`RESP_SNAPSHOT`] payload.
    pub fn decode_snapshot_resp(payload: &[u8]) -> Result<SnapshotResp, FleetError> {
        let mut c = ByteReader::new(payload);
        let delta = c.u8()? != 0;
        let seq = c.u64()?;
        let epochs = (c.u64()?, c.u64()?, c.u64()?);
        let snap_len = c.u32()? as usize;
        let snapshot = c.take(snap_len)?.to_vec();
        if c.remaining() != 0 {
            return Err(FleetError::BadFrame("trailing bytes after snapshot"));
        }
        Ok(SnapshotResp {
            delta,
            seq,
            epochs,
            snapshot,
        })
    }

    /// Daemon-side counters, carried in [`RESP_STATS_V2`] as one
    /// `hb_fleetd_<field>` series each.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DaemonStats {
        /// Live derivations in the daemon's tier.
        pub entries: u64,
        /// Current publication sequence number.
        pub seq: u64,
        /// Full snapshot fetches served.
        pub fetches: u64,
        /// Delta fetches served (not widened to full).
        pub deltas: u64,
        /// Genuinely new entries accepted from publish-backs.
        pub publishes: u64,
        /// Derivations the daemon's tier dropped at the family cap (its
        /// `SharedCacheStats::evictions`).
        pub evictions: u64,
        /// Families dropped by the LRU compaction pass.
        pub compactions: u64,
        /// Background snapshot writebacks completed.
        pub writebacks: u64,
    }

    impl DaemonStats {
        /// Renders the three fields the daemon reads rather than
        /// counts: `hb_fleetd_entries` (a gauge), `hb_fleetd_seq` and
        /// `hb_fleetd_evictions` (the tier's own counter). The other five
        /// are counters in the daemon's registry, which renders them
        /// under the same `hb_fleetd_<field>` names.
        pub fn to_prometheus(&self) -> String {
            format!(
                "# TYPE hb_fleetd_entries gauge\nhb_fleetd_entries {}\n\
                 # TYPE hb_fleetd_seq counter\nhb_fleetd_seq {}\n\
                 # TYPE hb_fleetd_evictions counter\nhb_fleetd_evictions {}\n",
                self.entries, self.seq, self.evictions
            )
        }

        /// Reads the counters back out of a [`RESP_STATS_V2`] payload,
        /// ignoring every other series in it.
        pub fn from_prometheus(text: &str) -> Result<DaemonStats, FleetError> {
            let mut s = DaemonStats::default();
            let mut seen = 0;
            for line in text.lines() {
                let Some((name, value)) = line
                    .strip_prefix("hb_fleetd_")
                    .and_then(|rest| rest.split_once(' '))
                else {
                    continue;
                };
                let slot = match name {
                    "entries" => &mut s.entries,
                    "seq" => &mut s.seq,
                    "fetches" => &mut s.fetches,
                    "deltas" => &mut s.deltas,
                    "publishes" => &mut s.publishes,
                    "evictions" => &mut s.evictions,
                    "compactions" => &mut s.compactions,
                    "writebacks" => &mut s.writebacks,
                    _ => continue,
                };
                *slot = value
                    .trim()
                    .parse()
                    .map_err(|_| FleetError::BadFrame("daemon counter is not an integer"))?;
                seen += 1;
            }
            if seen < 8 {
                return Err(FleetError::BadFrame("stats text lacks a daemon counter"));
            }
            Ok(s)
        }
    }
}

/// Why a fleet operation failed. Every failure is typed and every
/// failure is survivable: the tenant detaches from the daemon and
/// degrades to local checking — a fleet error never poisons the live
/// tier or the engine.
#[derive(Debug)]
pub enum FleetError {
    /// Socket-level failure (connect, read, write, unexpected EOF).
    Io(std::io::Error),
    /// The peer did not present the `HBFLEET2` magic.
    BadHandshake,
    /// A structurally malformed frame payload (truncated field, bad
    /// UTF-8, trailing bytes). The static message names the defect.
    BadFrame(&'static str),
    /// A frame declared a length above [`wire::MAX_FRAME`].
    FrameTooLarge(u32),
    /// The daemon answered with a typed error ([`wire::RESP_ERR`]).
    Daemon(String),
    /// The response payload embedded a snapshot that failed to parse or
    /// load ([`SnapshotError`]).
    Snapshot(SnapshotError),
    /// The peer answered with an opcode the request cannot accept.
    UnexpectedOpcode(u8),
    /// The session was detached by an earlier error (rendered here);
    /// the tenant is running on purely local checking.
    Detached(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet socket error: {e}"),
            FleetError::BadHandshake => write!(f, "peer is not an HBFLEET2 endpoint"),
            FleetError::BadFrame(what) => write!(f, "malformed HBFLEET2 frame: {what}"),
            FleetError::FrameTooLarge(len) => {
                write!(f, "HBFLEET2 frame of {len} bytes exceeds the 64 MiB bound")
            }
            FleetError::Daemon(msg) => write!(f, "fleet daemon refused: {msg}"),
            FleetError::Snapshot(e) => write!(f, "fleet response snapshot: {e}"),
            FleetError::UnexpectedOpcode(op) => {
                write!(f, "unexpected HBFLEET2 response opcode {op:#04x}")
            }
            FleetError::Detached(why) => {
                write!(f, "fleet session detached (local checking only): {why}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            FleetError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

impl From<Truncated> for FleetError {
    fn from(_: Truncated) -> FleetError {
        FleetError::BadFrame("payload truncated")
    }
}

/// The client's position in the daemon's publication stream: the
/// sequence number and world epoch triple the daemon reported on the
/// last fetch, echoed back verbatim on the next delta fetch. Opaque by
/// design — only the daemon interprets it, and an unrecognizable
/// watermark simply widens the response to a full snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetWatermark {
    /// The daemon's publication sequence number at fetch time.
    pub seq: u64,
    /// The daemon's world epoch triple at fetch time.
    pub epochs: (u64, u64, u64),
}

/// A connected `HBFLEET2` client: one framed request/response exchange
/// at a time over a Unix-domain socket. [`FleetSession`] drives it for
/// an embedded tenant; the benchmark and tests use it directly.
pub struct FleetClient {
    stream: UnixStream,
}

impl FleetClient {
    /// Connects and performs the magic handshake.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] on socket failure, [`FleetError::BadHandshake`]
    /// when the peer is not an `HBFLEET2` endpoint.
    pub fn connect(path: &Path) -> Result<FleetClient, FleetError> {
        let mut stream = UnixStream::connect(path)?;
        stream.write_all(wire::MAGIC)?;
        stream.flush()?;
        let mut echo = [0u8; 8];
        stream.read_exact(&mut echo)?;
        if &echo != wire::MAGIC {
            return Err(FleetError::BadHandshake);
        }
        Ok(FleetClient { stream })
    }

    /// One request/response exchange; [`wire::RESP_ERR`] becomes
    /// [`FleetError::Daemon`].
    fn call(&mut self, opcode: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), FleetError> {
        wire::write_frame(&mut self.stream, opcode, payload)?;
        let (op, body) = wire::read_frame(&mut self.stream)?;
        if op == wire::RESP_ERR {
            return Err(FleetError::Daemon(
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        Ok((op, body))
    }

    fn expect_snapshot(
        &mut self,
        opcode: u8,
        payload: &[u8],
    ) -> Result<wire::SnapshotResp, FleetError> {
        let (op, body) = self.call(opcode, payload)?;
        if op != wire::RESP_SNAPSHOT {
            return Err(FleetError::UnexpectedOpcode(op));
        }
        wire::decode_snapshot_resp(&body)
    }

    fn expect_ack(&mut self, opcode: u8, payload: &[u8]) -> Result<u64, FleetError> {
        let (op, body) = self.call(opcode, payload)?;
        if op != wire::RESP_ACK {
            return Err(FleetError::UnexpectedOpcode(op));
        }
        let mut c = ByteReader::new(&body);
        let v = c.u64()?;
        if c.remaining() != 0 {
            return Err(FleetError::BadFrame("trailing bytes after ack"));
        }
        Ok(v)
    }

    /// Fetches the daemon's full tier.
    pub fn fetch_full(&mut self) -> Result<wire::SnapshotResp, FleetError> {
        self.expect_snapshot(wire::FETCH_FULL, &[])
    }

    /// Fetches entries past `watermark` (the daemon may widen to a full
    /// snapshot; check [`wire::SnapshotResp::delta`]).
    pub fn fetch_delta(
        &mut self,
        watermark: FleetWatermark,
    ) -> Result<wire::SnapshotResp, FleetError> {
        let mut payload = Vec::with_capacity(32);
        put_u64(&mut payload, watermark.seq);
        put_u64(&mut payload, watermark.epochs.0);
        put_u64(&mut payload, watermark.epochs.1);
        put_u64(&mut payload, watermark.epochs.2);
        self.expect_snapshot(wire::FETCH_DELTA, &payload)
    }

    /// Publishes locally derived entries (as `HBSNAP02` bytes) stamped
    /// with the publisher's current epoch triple. Returns the count of
    /// entries the daemon had not seen before.
    pub fn publish(
        &mut self,
        epochs: (u64, u64, u64),
        snapshot_bytes: &[u8],
    ) -> Result<u64, FleetError> {
        let mut payload = Vec::with_capacity(snapshot_bytes.len() + 24);
        put_u64(&mut payload, epochs.0);
        put_u64(&mut payload, epochs.1);
        put_u64(&mut payload, epochs.2);
        payload.extend_from_slice(snapshot_bytes);
        self.expect_ack(wire::PUBLISH, &payload)
    }

    /// Fetches the daemon's counters (parsed out of the `STATS_V2` text).
    pub fn daemon_stats(&mut self) -> Result<wire::DaemonStats, FleetError> {
        wire::DaemonStats::from_prometheus(&self.daemon_stats_v2()?)
    }

    /// Fetches the daemon's metrics (request counters, latency histograms
    /// and the [`wire::DaemonStats`] counters) as Prometheus text — the
    /// `STATS_V2` exchange.
    pub fn daemon_stats_v2(&mut self) -> Result<String, FleetError> {
        let (op, body) = self.call(wire::STATS_V2, &[])?;
        if op != wire::RESP_STATS_V2 {
            return Err(FleetError::UnexpectedOpcode(op));
        }
        String::from_utf8(body).map_err(|_| FleetError::BadFrame("stats text is not UTF-8"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), FleetError> {
        self.expect_ack(wire::PING, &[]).map(|_| ())
    }

    /// Asks the daemon to shut down (test/CI harness use): it acks,
    /// then closes every open connection and stops accepting.
    pub fn shutdown(&mut self) -> Result<(), FleetError> {
        self.expect_ack(wire::SHUTDOWN, &[]).map(|_| ())
    }
}

/// What one fleet sync round ([`crate::Hummingbird::fleet_sync`]) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSyncReport {
    /// Locally derived entries published back to the daemon.
    pub published: usize,
    /// Entries in the fetched snapshot (zero when the fleet is quiet —
    /// the steady-state delta).
    pub fetched_entries: usize,
    /// True when the fetch was served as a delta (false: full snapshot,
    /// including the watermark-invalid fallback).
    pub delta: bool,
}

/// A tenant's live attachment to the fleet daemon: the connected
/// client, the shared tier's entry stamp it has published up to, and
/// the current watermark. Created by `HummingbirdBuilder::fleet_socket`,
/// driven by `Hummingbird::fleet_sync`.
pub struct FleetSession {
    client: FleetClient,
    shared: Arc<SharedCache>,
    /// Derivations stamped past this entered the tier since the last
    /// sync applied its fetch ([`SharedCache::entered_since`]); they are
    /// the next sync's publications.
    published: u64,
    watermark: Option<FleetWatermark>,
}

impl FleetSession {
    /// Connects to the daemon at `path` and warm-boots `shared` with a
    /// full snapshot fetch, which `engine` counts in `fleet_fetches` and,
    /// with observability on, records in the fleet-fetch histogram and as
    /// a span. What the tier held before, and what the fetch loaded, is
    /// never published.
    ///
    /// # Errors
    ///
    /// Any [`FleetError`]; on `Err` the tier holds whatever the fetch
    /// managed to validate (snapshot loads are all-or-nothing, so in
    /// practice: nothing), nothing is counted, and the caller degrades to
    /// local checking.
    pub(crate) fn attach(
        path: &Path,
        shared: Arc<SharedCache>,
        engine: &Engine,
    ) -> Result<FleetSession, FleetError> {
        let t0 = std::time::Instant::now();
        let mut client = FleetClient::connect(path)?;
        let resp = client.fetch_full()?;
        let snap = CacheSnapshot::from_bytes(&resp.snapshot).map_err(FleetError::Snapshot)?;
        shared.load_snapshot(&snap).map_err(FleetError::Snapshot)?;
        let published = shared.seq();
        engine.count(|s| s.fleet_fetches += 1);
        if let Some(obs) = engine.obs() {
            let ns = t0.elapsed().as_nanos() as u64;
            obs.fleet_fetch.record(ns);
            obs.record_span(hb_obs::EventKind::FleetFetch, crate::obs::fleet_key(), ns);
        }
        Ok(FleetSession {
            client,
            shared,
            published,
            watermark: Some(FleetWatermark {
                seq: resp.seq,
                epochs: resp.epochs,
            }),
        })
    }

    /// One synchronization round: publish the derivations that entered
    /// the tier since the last round applied its fetch, then fetch the
    /// delta past the current watermark and load it into the shared tier
    /// as candidates for the next local miss. The fetched derivations
    /// take entry stamps too, and the round ends by moving `published`
    /// past them, so they never echo back to the daemon. A derivation
    /// another thread lands in the tier during the round is therefore
    /// not published. The engine's own derivations are left alone; a
    /// fetched entry changes nothing in this tenant's world, so only its
    /// own events retire them (Definition 1). An error detaches the
    /// session (see [`crate::Hummingbird::fleet_sync`]), and its
    /// unpublished derivations go with it.
    pub(crate) fn sync(
        &mut self,
        engine: &Engine,
        interp: &mut Interp,
    ) -> Result<FleetSyncReport, FleetError> {
        // Land queued scheduler results and type-table events first so
        // the tier holds every local derivation up to "now".
        engine.process_events(interp);

        let obs = engine.obs();
        let mut report = FleetSyncReport::default();

        let entered = self.shared.entered_since(self.published);
        if !entered.is_empty() {
            let snap = CacheSnapshot::of(entered.iter().map(|(key, d)| (key, d)));
            let epochs = epochs_of(interp, &engine.rdl);
            let t_pub = std::time::Instant::now();
            self.client.publish(epochs, &snap.to_bytes())?;
            if let Some(obs) = &obs {
                let ns = t_pub.elapsed().as_nanos() as u64;
                obs.fleet_publish.record(ns);
                obs.record_span(hb_obs::EventKind::FleetPublish, crate::obs::fleet_key(), ns);
            }
            report.published = snap.entry_count();
        }

        let t_fetch = std::time::Instant::now();
        let resp = match self.watermark {
            Some(w) => self.client.fetch_delta(w)?,
            None => self.client.fetch_full()?,
        };
        if let Some(obs) = &obs {
            let ns = t_fetch.elapsed().as_nanos() as u64;
            obs.fleet_fetch.record(ns);
            let kind = if resp.delta {
                hb_obs::EventKind::FleetDelta
            } else {
                hb_obs::EventKind::FleetFetch
            };
            obs.record_span(kind, crate::obs::fleet_key(), ns);
        }
        let snap = CacheSnapshot::from_bytes(&resp.snapshot).map_err(FleetError::Snapshot)?;
        report.fetched_entries = snap.entry_count();
        report.delta = resp.delta;
        self.shared
            .load_snapshot(&snap)
            .map_err(FleetError::Snapshot)?;
        self.published = self.shared.seq();
        self.watermark = Some(FleetWatermark {
            seq: resp.seq,
            epochs: resp.epochs,
        });
        engine.count(|s| {
            if resp.delta {
                s.fleet_deltas += 1;
            } else {
                s.fleet_fetches += 1;
            }
            s.fleet_publishes += report.published as u64;
        });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        wire::write_frame(&mut buf, wire::PUBLISH, b"payload").unwrap();
        let (op, body) = wire::read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, wire::PUBLISH);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn read_frame_rejects_zero_and_oversized_lengths() {
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            wire::read_frame(&mut zero.as_slice()),
            Err(FleetError::BadFrame(_))
        ));
        let huge = (wire::MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            wire::read_frame(&mut huge.as_slice()),
            Err(FleetError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn snapshot_resp_round_trips_with_string_keys() {
        let resp = wire::SnapshotResp {
            delta: true,
            seq: 42,
            epochs: (1, 2, 3),
            snapshot: vec![9, 9, 9],
        };
        let payload = wire::encode_snapshot_resp(&resp);
        let back = wire::decode_snapshot_resp(&payload).unwrap();
        assert_eq!(back.delta, resp.delta);
        assert_eq!(back.seq, resp.seq);
        assert_eq!(back.epochs, resp.epochs);
        assert_eq!(back.snapshot, resp.snapshot);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let resp = wire::SnapshotResp {
            delta: false,
            seq: 7,
            epochs: (0, 0, 0),
            snapshot: vec![1, 2, 3, 4],
        };
        let payload = wire::encode_snapshot_resp(&resp);
        for cut in 1..payload.len() {
            assert!(
                wire::decode_snapshot_resp(&payload[..cut]).is_err(),
                "truncation at {cut} must be a typed error"
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(matches!(
            wire::decode_snapshot_resp(&long),
            Err(FleetError::BadFrame(_))
        ));
    }

    #[test]
    fn stats_round_trip() {
        let s = wire::DaemonStats {
            entries: 1,
            seq: 2,
            fetches: 3,
            deltas: 4,
            publishes: 5,
            evictions: 6,
            compactions: 7,
            writebacks: 8,
        };
        // The daemon's registry renders the five counters; `to_prometheus`
        // adds the three readings. The fields survive embedding in a
        // larger metrics document.
        let text = format!(
            "# TYPE hb_fleetd_requests_total counter\nhb_fleetd_requests_total{{op=\"ping\"}} 9\n\
             hb_fleetd_fetches 3\nhb_fleetd_deltas 4\nhb_fleetd_publishes 5\n\
             hb_fleetd_compactions 7\nhb_fleetd_writebacks 8\n{}",
            s.to_prometheus()
        );
        assert_eq!(wire::DaemonStats::from_prometheus(&text).unwrap(), s);
        assert!(matches!(
            wire::DaemonStats::from_prometheus("hb_fleetd_seq 2\n"),
            Err(FleetError::BadFrame(_))
        ));
    }
}
