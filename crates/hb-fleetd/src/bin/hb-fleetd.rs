//! The `hb-fleetd` binary: bind the socket, serve the fleet.
//!
//! ```text
//! hb-fleetd --socket /run/hb/fleet.sock \
//!           [--snapshot /var/lib/hb/tier.hbsnap] \
//!           [--max-entries 100000] \
//!           [--writeback-ms 5000] \
//!           [--workers 2]
//! ```
//!
//! With `--snapshot`, the daemon recovers its tier from the file at
//! boot (if present) and re-serializes to it on every maintenance pass.
//! The process exits when a client sends the `SHUTDOWN` opcode.

use hb_fleetd::{DaemonConfig, FleetDaemon, FleetServer};
use hb_obs::{hb_info, hb_warn};
use hummingbird::Scheduler;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: hb-fleetd --socket PATH [--snapshot FILE] [--max-entries N] \
         [--writeback-ms MS] [--workers N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut socket: Option<PathBuf> = None;
    let mut config = DaemonConfig::default();
    let mut writeback_ms: Option<u64> = None;
    let mut workers: usize = 1;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--snapshot" => config.snapshot_path = Some(PathBuf::from(value("--snapshot"))),
            "--max-entries" => {
                config.max_entries = value("--max-entries").parse().unwrap_or_else(|_| usage())
            }
            "--writeback-ms" => {
                writeback_ms = Some(value("--writeback-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--workers" => workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let Some(socket) = socket else { usage() };

    let (daemon, warning) = FleetDaemon::new(config);
    if let Some(w) = warning {
        hb_warn!("hb-fleetd: {w}");
    }
    // Maintenance rides an hb-sched pool; the periodic task dies with it.
    let sched = Arc::new(Scheduler::new(workers.max(1)));
    let _maintenance =
        writeback_ms.map(|ms| daemon.start_maintenance(&sched, Duration::from_millis(ms.max(1))));

    let server = match FleetServer::bind(daemon.clone(), &socket) {
        Ok(s) => s,
        Err(e) => {
            hb_warn!("hb-fleetd: cannot bind {}: {e}", socket.display());
            std::process::exit(1);
        }
    };
    hb_info!(
        "hb-fleetd: serving {} entries on {}",
        daemon.cache().len(),
        socket.display()
    );
    server.join();
    // One final writeback so an orderly shutdown never loses the tier.
    daemon.maintain();
    let s = daemon.stats();
    hb_info!(
        "hb-fleetd: shut down (seq {}, {} fetches, {} deltas, {} publishes, {} dropped at the family cap)",
        s.seq,
        s.fetches,
        s.deltas,
        s.publishes,
        s.evictions
    );
}
