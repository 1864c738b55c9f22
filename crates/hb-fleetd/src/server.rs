//! The Unix-domain-socket front end: accept loop, per-connection
//! threads, and the `HBFLEET1` request dispatch.
//!
//! Error containment is the design center. A malformed *payload* inside
//! a well-framed request gets a typed [`wire::RESP_ERR`] and the
//! connection keeps serving; a broken *frame* (bad length prefix,
//! short read) cannot be resynchronized, so that one connection closes
//! — the daemon, its tier, and every other connected client are
//! untouched either way. A panicking handler is likewise contained to
//! its connection thread.

use crate::daemon::FleetDaemon;
use hummingbird::fleet::wire;
use hummingbird::fleet::FleetError;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// How often the accept loop wakes to poll the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A listening `HBFLEET1` server bound to a socket path. Dropping it
/// requests shutdown and joins the accept thread; the socket file is
/// removed.
pub struct FleetServer {
    daemon: Arc<FleetDaemon>,
    path: PathBuf,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FleetServer {
    /// Binds `path` (an existing socket file is replaced) and starts
    /// accepting connections on a background thread.
    pub fn bind(daemon: Arc<FleetDaemon>, path: &Path) -> std::io::Result<FleetServer> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let accept_daemon = daemon.clone();
        let accept_thread = std::thread::Builder::new()
            .name("hb-fleetd-accept".into())
            .spawn(move || accept_loop(listener, accept_daemon))?;
        Ok(FleetServer {
            daemon,
            path: path.to_path_buf(),
            accept_thread: Some(accept_thread),
        })
    }

    /// The daemon behind this server.
    pub fn daemon(&self) -> &Arc<FleetDaemon> {
        &self.daemon
    }

    /// Blocks until the accept loop exits (a `SHUTDOWN` request or
    /// [`FleetDaemon::request_shutdown`]).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.daemon.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

fn accept_loop(listener: UnixListener, daemon: Arc<FleetDaemon>) {
    while !daemon.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let daemon = daemon.clone();
                let _ = std::thread::Builder::new()
                    .name("hb-fleetd-conn".into())
                    .spawn(move || {
                        // A panicking handler must not take the daemon
                        // down; the connection dies, the tier survives.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            serve_connection(stream, daemon)
                        }));
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Handshake + request loop for one client.
fn serve_connection(mut stream: UnixStream, daemon: Arc<FleetDaemon>) {
    // Connection reads poll so a hung client cannot pin the thread past
    // daemon shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut magic = [0u8; 8];
    if read_exact_polling(&mut stream, &mut magic, &daemon).is_err() || &magic != wire::MAGIC {
        // Not an HBFLEET1 peer: close without a frame (there is no
        // framing to speak yet).
        return;
    }
    if stream.write_all(wire::MAGIC).is_err() {
        return;
    }
    loop {
        if daemon.shutdown_requested() {
            return;
        }
        let frame = read_frame_polling(&mut stream, &daemon);
        let (opcode, payload) = match frame {
            Ok(f) => f,
            Err(FleetError::Io(_)) => return, // disconnect / shutdown
            Err(e @ (FleetError::BadFrame(_) | FleetError::FrameTooLarge(_))) => {
                // The length prefix cannot be trusted, so the stream
                // cannot be resynchronized: answer once, then close.
                let _ = wire::write_frame(&mut stream, wire::RESP_ERR, e.to_string().as_bytes());
                return;
            }
            Err(_) => return,
        };
        let t_req = std::time::Instant::now();
        let outcome = handle_request(&daemon, opcode, &payload);
        daemon.requests_total.inc();
        daemon.request_ns.record(t_req.elapsed().as_nanos() as u64);
        let keep_going = match outcome {
            Ok(Response::Frame(op, body)) => wire::write_frame(&mut stream, op, &body).is_ok(),
            Ok(Response::Shutdown) => {
                let mut ack = Vec::with_capacity(8);
                wire::put_u64(&mut ack, 0);
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
    wire::put_u64(&mut body, value);
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
            let mut c = wire::PayloadCursor::new(payload);
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
            let mut c = wire::PayloadCursor::new(payload);
            let epochs = (c.u64()?, c.u64()?, c.u64()?);
            let snapshot_bytes = c.take(c.remaining())?;
            let accepted = daemon.publish(epochs, snapshot_bytes)?;
            Ok(ack(accepted))
        }
        wire::EVICT => {
            let mut c = wire::PayloadCursor::new(payload);
            let n = c.u32()? as usize;
            let mut keys = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                keys.push(c.key()?);
            }
            if c.remaining() != 0 {
                return Err(FleetError::BadFrame("trailing bytes after evict keys"));
            }
            Ok(ack(daemon.evict(&keys)))
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

/// `read_exact` that tolerates the poll timeout: keeps retrying until
/// the buffer fills, the peer disconnects, or the daemon shuts down.
fn read_exact_polling(
    stream: &mut UnixStream,
    buf: &mut [u8],
    daemon: &FleetDaemon,
) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if daemon.shutdown_requested() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "daemon shutting down",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// [`wire::read_frame`] over the polling reader.
fn read_frame_polling(
    stream: &mut UnixStream,
    daemon: &FleetDaemon,
) -> Result<(u8, Vec<u8>), FleetError> {
    let mut len = [0u8; 4];
    read_exact_polling(stream, &mut len, daemon).map_err(FleetError::Io)?;
    let len = u32::from_le_bytes(len);
    if len == 0 {
        return Err(FleetError::BadFrame("zero-length frame"));
    }
    if len > wire::MAX_FRAME {
        return Err(FleetError::FrameTooLarge(len));
    }
    let mut body = vec![0u8; len as usize];
    read_exact_polling(stream, &mut body, daemon).map_err(FleetError::Io)?;
    let opcode = body[0];
    body.drain(..1);
    Ok((opcode, body))
}
