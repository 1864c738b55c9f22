//! The Unix-domain-socket front end: accept loop, per-connection
//! threads, and the `HBFLEET2` request dispatch.
//!
//! Error containment is the design center. A malformed *payload* inside
//! a well-framed request gets a typed [`wire::RESP_ERR`] and the
//! connection keeps serving; a broken *frame* (bad length prefix,
//! short read) cannot be resynchronized, so that one connection closes
//! — the daemon, its tier, and every other connected client are
//! untouched either way. A panicking handler is likewise contained to
//! its connection thread.
//!
//! Nothing here waits on a timer: the accept thread blocks in `accept`,
//! connection threads block in [`wire::read_frame`], and
//! [`FleetDaemon::request_shutdown`] unblocks both.

use crate::daemon::FleetDaemon;
use hummingbird::fleet::wire;
use hummingbird::fleet::FleetError;
use hummingbird::snapshot::{put_u64, ByteReader};
use std::io::{Read, Write};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// How long teardown waits for the accept thread after the shutdown
/// wake. The wake misses only when this server's socket file was
/// deleted or re-bound by another server; the thread then stays blocked
/// in `accept` and is detached.
const ACCEPT_EXIT_GRACE: Duration = Duration::from_millis(250);

/// A listening `HBFLEET2` server bound to a socket path. Dropping it
/// requests shutdown and joins the accept thread; the socket file is
/// removed while it is still this server's.
pub struct FleetServer {
    daemon: Arc<FleetDaemon>,
    path: PathBuf,
    /// `(device, inode)` of the socket file this server bound.
    file_id: Option<(u64, u64)>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Disconnects when the accept thread exits.
    accept_done: mpsc::Receiver<()>,
}

fn file_id(path: &Path) -> Option<(u64, u64)> {
    std::fs::metadata(path).ok().map(|m| (m.dev(), m.ino()))
}

impl FleetServer {
    /// Binds `path` (an existing socket file is replaced) and starts
    /// accepting connections on a background thread.
    pub fn bind(daemon: Arc<FleetDaemon>, path: &Path) -> std::io::Result<FleetServer> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        daemon.add_listener(path);
        let (done, accept_done) = mpsc::channel::<()>();
        let accept_daemon = daemon.clone();
        let accept_thread = std::thread::Builder::new()
            .name("hb-fleetd-accept".into())
            .spawn(move || {
                // Dropped as the thread exits, by return or by panic.
                let _done = done;
                accept_loop(listener, &accept_daemon);
            })?;
        Ok(FleetServer {
            daemon,
            path: path.to_path_buf(),
            file_id: file_id(path),
            accept_thread: Some(accept_thread),
            accept_done,
        })
    }

    /// The daemon behind this server.
    pub fn daemon(&self) -> &Arc<FleetDaemon> {
        &self.daemon
    }

    /// Blocks until shutdown is requested (a `SHUTDOWN` request,
    /// [`FleetDaemon::request_shutdown`], or the accept loop failing),
    /// then tears the server down as drop does.
    pub fn join(self) {
        self.daemon.wait_for_shutdown();
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.daemon.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let exited = matches!(
                self.accept_done.recv_timeout(ACCEPT_EXIT_GRACE),
                Err(mpsc::RecvTimeoutError::Disconnected)
            );
            if exited {
                let _ = t.join();
            }
        }
        if self.file_id.is_some() && file_id(&self.path) == self.file_id {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Serves connections until shutdown; a connection accepted after it
/// (the shutdown wake among them) is dropped unregistered.
fn accept_loop(listener: UnixListener, daemon: &Arc<FleetDaemon>) {
    while let Ok((stream, _addr)) = listener.accept() {
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let Some(id) = daemon.register(clone) else {
            break;
        };
        let conn_daemon = daemon.clone();
        let spawned = std::thread::Builder::new()
            .name("hb-fleetd-conn".into())
            .spawn(move || {
                // A panicking handler must not take the daemon down;
                // the connection dies, the tier survives.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(stream, &conn_daemon)
                }));
                conn_daemon.deregister(id);
            });
        if spawned.is_err() {
            daemon.deregister(id);
        }
    }
    // Only shutdown or a failing listener ends the loop; either way the
    // daemon stops serving.
    daemon.request_shutdown();
}

/// Handshake + request loop for one client. Reads block; shutdown cuts
/// them with EOF.
fn serve_connection(mut stream: UnixStream, daemon: &FleetDaemon) {
    let mut magic = [0u8; 8];
    if stream.read_exact(&mut magic).is_err() || &magic != wire::MAGIC {
        // Not an HBFLEET2 peer: close without a frame (there is no
        // framing to speak yet).
        return;
    }
    if stream.write_all(wire::MAGIC).is_err() {
        return;
    }
    loop {
        let (opcode, payload) = match wire::read_frame(&mut stream) {
            Ok(f) => f,
            Err(e @ (FleetError::BadFrame(_) | FleetError::FrameTooLarge(_))) => {
                // The length prefix cannot be trusted, so the stream
                // cannot be resynchronized: answer once, then close.
                let _ = wire::write_frame(&mut stream, wire::RESP_ERR, e.to_string().as_bytes());
                return;
            }
            Err(_) => return, // disconnect or shutdown
        };
        let t_req = std::time::Instant::now();
        let outcome = handle_request(daemon, opcode, &payload);
        daemon.requests_total.inc();
        daemon.request_ns.record(t_req.elapsed().as_nanos() as u64);
        let keep_going = match outcome {
            Ok(Response::Frame(op, body)) => wire::write_frame(&mut stream, op, &body).is_ok(),
            Ok(Response::Shutdown) => {
                let mut ack = Vec::with_capacity(8);
                put_u64(&mut ack, 0);
                let _ = wire::write_frame(&mut stream, wire::RESP_ACK, &ack);
                daemon.request_shutdown();
                false
            }
            // Payload-level failure: typed error, connection survives
            // (framing is intact — the bad bytes were fully consumed).
            Err(e) => {
                daemon.errors_total.inc();
                wire::write_frame(&mut stream, wire::RESP_ERR, e.to_string().as_bytes()).is_ok()
            }
        };
        if !keep_going {
            return;
        }
    }
}

enum Response {
    Frame(u8, Vec<u8>),
    Shutdown,
}

fn ack(value: u64) -> Response {
    let mut body = Vec::with_capacity(8);
    put_u64(&mut body, value);
    Response::Frame(wire::RESP_ACK, body)
}

fn handle_request(
    daemon: &FleetDaemon,
    opcode: u8,
    payload: &[u8],
) -> Result<Response, FleetError> {
    match opcode {
        wire::FETCH_FULL => {
            let resp = daemon.fetch_full();
            Ok(Response::Frame(
                wire::RESP_SNAPSHOT,
                wire::encode_snapshot_resp(&resp),
            ))
        }
        wire::FETCH_DELTA => {
            let mut c = ByteReader::new(payload);
            let seq = c.u64()?;
            let epochs = (c.u64()?, c.u64()?, c.u64()?);
            if c.remaining() != 0 {
                return Err(FleetError::BadFrame("trailing bytes after watermark"));
            }
            let resp = daemon.fetch_delta(seq, epochs);
            Ok(Response::Frame(
                wire::RESP_SNAPSHOT,
                wire::encode_snapshot_resp(&resp),
            ))
        }
        wire::PUBLISH => {
            let mut c = ByteReader::new(payload);
            let epochs = (c.u64()?, c.u64()?, c.u64()?);
            let snapshot_bytes = c.take(c.remaining())?;
            let accepted = daemon.publish(epochs, snapshot_bytes)?;
            Ok(ack(accepted))
        }
        wire::STATS_V2 => Ok(Response::Frame(
            wire::RESP_STATS_V2,
            daemon.metrics_prometheus().into_bytes(),
        )),
        wire::PING => Ok(ack(0)),
        wire::SHUTDOWN => Ok(Response::Shutdown),
        other => Err(FleetError::BadFrame(match other {
            0x80..=0xFF => "response opcode sent as a request",
            _ => "unknown request opcode",
        })),
    }
}
