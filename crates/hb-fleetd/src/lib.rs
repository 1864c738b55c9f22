//! # hb-fleetd: the fleet-serving derivation daemon
//!
//! ROADMAP item 1's millions-of-users story: one long-lived process owns
//! a [`hummingbird::SharedCache`] tier and serves per-method type
//! derivations to N tenant *processes* over a Unix-domain socket — full
//! snapshot fetches at boot, **delta** fetches past a watermark during
//! steady state, and publish-back of locally derived entries. The wire
//! protocol (`HBFLEET2`, specified in `docs/HBFLEET2.md`) is a thin
//! length-prefixed framing over the `HBSNAP02` snapshot encoding the
//! workspace already ships.
//!
//! The daemon is deliberately dumb about soundness: it never validates
//! a derivation, because it *cannot* — validity is a property of the
//! adopting tenant's type table (paper Definition 1). Every fetched
//! entry is a candidate that the tenant's own adoption funnel (epoch
//! fast path or witness replay) must pass, so a divergent, stale, or
//! corrupted daemon degrades tenants to local checking, never to
//! unsound adoption. Tests in this crate pin that property end to end.
//! For the same reason no tenant's world change retires anything here:
//! tenants that load different annotations publish different variants
//! of a method, and the tier keeps up to `FAMILY_CAP` of them per
//! method so each kind of tenant finds its own.
//!
//! Long-lived tiers get a bounded-memory and crash-recovery story from
//! the family cap and the maintenance pass ([`FleetDaemon::maintain`], schedulable on an
//! `hb-sched` pool via [`FleetDaemon::start_maintenance`]): last-
//! adoption LRU compaction to a configurable cap, and atomic snapshot
//! writeback — recovery is "load file, serve fleet".

pub mod daemon;
pub mod server;

pub use daemon::{DaemonConfig, FleetDaemon};
pub use server::FleetServer;
