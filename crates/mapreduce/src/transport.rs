//! Zero-dependency socket transport for multi-process jobs.
//!
//! A [`Framed`] connection carries length-prefixed frames over a Unix-domain
//! socket (the default for co-located workers) or a loopback TCP stream (the
//! fallback when the filesystem cannot host a socket file). Frame payloads
//! are opaque bytes — callers serialise them with [`crate::codec::Codec`],
//! so the wire format is the same little-endian format every shuffle record
//! already uses in memory.
//!
//! Design points, in the order they bite:
//!
//! - **Framing**: each frame is a `u32` little-endian payload length followed
//!   by the payload. A read that ends exactly on a frame boundary is a *clean
//!   EOF* (`Ok(None)` from [`Framed::recv`]); anywhere else it is a
//!   [`TransportError::TruncatedFrame`] — a peer died mid-write.
//! - **Bounds**: frames above a configurable cap are rejected before any
//!   allocation ([`TransportError::FrameTooLarge`]), so a corrupt header
//!   cannot OOM the driver.
//! - **Time**: all deadlines derive from the sanctioned [`agl_obs::Clock`];
//!   this module never reads the wall clock directly. OS-level read timeouts
//!   are plain `Duration`s handed to the socket, which keeps blocked reads
//!   bounded without any clock polling on the hot path.
//! - **Retry**: [`connect`] retries with capped exponential backoff until a
//!   clock-derived deadline, because the driver races worker processes that
//!   are still binding their listeners.

use agl_obs::{Clock, Obs};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Default cap on a single frame's payload (64 MiB) — far above any shuffle
/// partition the smoke jobs move, far below an OOM.
pub const DEFAULT_MAX_FRAME: u32 = 64 * 1024 * 1024;

/// First pause of an accept poll; doubles per empty poll up to
/// [`POLL_INTERVAL`]. A driver usually connects within microseconds of a
/// worker binding, so a flat interval would delay every worker start.
const POLL_START: Duration = Duration::from_micros(50);
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Initial connect backoff; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(1);
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Where a worker listens: a Unix-domain socket path or a TCP address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix-domain socket at the given filesystem path.
    Unix(PathBuf),
    /// TCP address, e.g. `127.0.0.1:7001`. Port 0 binds an ephemeral port;
    /// [`Listener::endpoint`] reports the actual one.
    Tcp(String),
}

impl Endpoint {
    /// Parse `unix:<path>` or `tcp:<addr>`.
    pub fn parse(s: &str) -> Result<Self, TransportError> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(TransportError::BadEndpoint(s.to_string()));
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(TransportError::BadEndpoint(s.to_string()));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(TransportError::BadEndpoint(s.to_string()))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Everything that can go wrong on the wire, mapped to a typed error so the
/// driver can distinguish "worker died" from "worker is slow" from "bug".
#[derive(Debug)]
pub enum TransportError {
    /// An endpoint string failed to parse.
    BadEndpoint(String),
    /// Connecting to a peer failed within the deadline.
    Connect {
        /// The endpoint we tried to reach.
        endpoint: String,
        /// Number of attempts made before giving up.
        attempts: u32,
        /// The last OS error observed.
        last: String,
    },
    /// A blocking operation exceeded its deadline or OS-level timeout.
    Timeout {
        /// What was being waited for.
        what: String,
    },
    /// The stream ended inside a frame — the peer died mid-write.
    TruncatedFrame {
        /// Bytes received of the truncated section.
        got: usize,
        /// Bytes expected.
        want: usize,
    },
    /// A frame header announced a payload above the configured cap.
    FrameTooLarge {
        /// The announced payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The peer spoke the framing correctly but violated the RPC protocol
    /// layered on top (unexpected message, bad payload, refused request).
    Protocol(String),
    /// The named peer closed the connection while a reply was awaited.
    Closed(String),
    /// Any other socket-level I/O failure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::BadEndpoint(s) => {
                write!(f, "bad endpoint {s:?} (expected unix:<path> or tcp:<addr>)")
            }
            TransportError::Connect { endpoint, attempts, last } => {
                write!(f, "connect to {endpoint} failed after {attempts} attempts: {last}")
            }
            TransportError::Timeout { what } => write!(f, "transport timeout waiting for {what}"),
            TransportError::TruncatedFrame { got, want } => {
                write!(f, "truncated frame: peer closed after {got} of {want} bytes")
            }
            TransportError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            TransportError::Protocol(what) => write!(f, "protocol violation: {what}"),
            TransportError::Closed(peer) => write!(f, "{peer} closed the connection before replying"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<crate::codec::CodecError> for TransportError {
    fn from(e: crate::codec::CodecError) -> Self {
        TransportError::Protocol(e.0)
    }
}

impl TransportError {
    fn from_io(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::Timeout { what: "socket read/write".to_string() }
            }
            _ => TransportError::Io(e.to_string()),
        }
    }
}

/// A connected byte stream: Unix-domain or TCP, same API either way.
#[derive(Debug)]
pub enum Conn {
    /// Unix-domain socket stream.
    Unix(UnixStream),
    /// Loopback TCP stream.
    Tcp(TcpStream),
}

impl From<UnixStream> for Conn {
    fn from(s: UnixStream) -> Self {
        Conn::Unix(s)
    }
}

impl From<TcpStream> for Conn {
    fn from(s: TcpStream) -> Self {
        Conn::Tcp(s)
    }
}

impl Conn {
    /// Bound blocking reads: `None` blocks forever, `Some(d)` makes reads
    /// fail with a timeout error after `d`.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> Result<(), TransportError> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
        .map_err(TransportError::from_io)
    }

    /// Shut down both directions, unblocking any peer read.
    pub fn shutdown(&self) {
        match self {
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A bound listener. Dropping a Unix listener unlinks its socket file, so a
/// gracefully exiting worker leaves nothing behind.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener plus the path it owns (unlinked on drop).
    Unix {
        /// The accepting socket.
        listener: UnixListener,
        /// The socket file, removed when the listener drops.
        path: PathBuf,
    },
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `ep`. A stale Unix socket file at the path is replaced. For
    /// `tcp:<host>:0` the ephemeral port is resolved; read the actual
    /// address back with [`Listener::endpoint`].
    pub fn bind(ep: &Endpoint) -> Result<Self, TransportError> {
        match ep {
            Endpoint::Unix(path) => {
                // A previous worker that was SIGKILLed leaves its socket
                // file; rebinding must not require manual cleanup.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path).map_err(TransportError::from_io)?;
                Ok(Listener::Unix { listener, path: path.clone() })
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr).map_err(TransportError::from_io)?;
                Ok(Listener::Tcp(listener))
            }
        }
    }

    /// The endpoint peers should connect to (with ephemeral TCP ports
    /// resolved to the actual port).
    pub fn endpoint(&self) -> Result<Endpoint, TransportError> {
        match self {
            Listener::Unix { path, .. } => Ok(Endpoint::Unix(path.clone())),
            Listener::Tcp(l) => {
                let addr = l.local_addr().map_err(TransportError::from_io)?;
                Ok(Endpoint::Tcp(addr.to_string()))
            }
        }
    }

    /// Accept one connection within `timeout_ns` of `clock` time, polling a
    /// non-blocking accept. Returns [`TransportError::Timeout`] past the
    /// deadline — a worker whose driver never arrives must exit, not hang.
    pub fn accept_deadline(&self, clock: &Clock, timeout_ns: u64) -> Result<Conn, TransportError> {
        self.accept_unless(clock, timeout_ns, || false)
    }

    /// [`Listener::accept_deadline`] that also gives up, with the same
    /// [`TransportError::Timeout`], as soon as `stop` returns true (checked
    /// once per poll). A server whose accept loop ends on a flag leaves
    /// within one poll of the flag, not at the end of its accept window.
    pub fn accept_unless(
        &self,
        clock: &Clock,
        timeout_ns: u64,
        stop: impl Fn() -> bool,
    ) -> Result<Conn, TransportError> {
        self.set_nonblocking(true)?;
        let start = clock.now();
        let mut pause = POLL_START;
        let res = loop {
            match self.try_accept() {
                Ok(Some(conn)) => break Ok(conn),
                Ok(None) => {
                    if stop() || clock.since(start) >= timeout_ns {
                        break Err(TransportError::Timeout { what: "accept".to_string() });
                    }
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(POLL_INTERVAL);
                }
                Err(e) => break Err(e),
            }
        };
        self.set_nonblocking(false)?;
        res
    }

    fn set_nonblocking(&self, nb: bool) -> Result<(), TransportError> {
        match self {
            Listener::Unix { listener, .. } => listener.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
        .map_err(TransportError::from_io)
    }

    fn try_accept(&self) -> Result<Option<Conn>, TransportError> {
        let res = match self {
            Listener::Unix { listener, .. } => listener.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        };
        match res {
            Ok(conn) => {
                // Accepted sockets inherit non-blocking mode on some
                // platforms; frames are read with blocking semantics.
                conn.set_blocking()?;
                Ok(Some(conn))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(TransportError::from_io(e)),
        }
    }
}

impl Conn {
    fn set_blocking(&self) -> Result<(), TransportError> {
        match self {
            Conn::Unix(s) => s.set_nonblocking(false),
            Conn::Tcp(s) => s.set_nonblocking(false),
        }
        .map_err(TransportError::from_io)
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connect to `ep`, retrying with capped exponential backoff until
/// `timeout_ns` of `clock` time has elapsed. The retry exists because the
/// driver spawns worker processes and connects immediately — the workers'
/// listeners may not be bound yet.
pub fn connect(ep: &Endpoint, clock: &Clock, timeout_ns: u64) -> Result<Conn, TransportError> {
    let start = clock.now();
    let mut backoff = BACKOFF_START;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let res = match ep {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
        };
        match res {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                if clock.since(start) >= timeout_ns {
                    return Err(TransportError::Connect { endpoint: ep.to_string(), attempts, last: e.to_string() });
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
    }
}

/// Stable message-type names for metric naming, indexed by a protocol's tag
/// byte (the first payload byte of a frame); a tag past the end is
/// `unknown`. Each RPC protocol in the workspace declares one table per
/// direction, listing its tags in order.
pub type TagNames = &'static [&'static str];

/// Per-message-type telemetry for a [`Framed`] connection, feeding the
/// shared [`MetricsRegistry`](agl_obs::MetricsRegistry) behind an [`Obs`].
///
/// Every frame in the workspace's RPC protocols starts with a one-byte
/// protocol tag, so the stats layer can attribute frames to message types
/// without parsing payloads. Per direction and message type it maintains:
///
/// - counter `rpc.{label}.{dir}.{msg}.frames` — frames moved,
/// - counter `rpc.{label}.{dir}.{msg}.bytes` — payload bytes moved,
/// - histogram `rpc.{label}.{dir}.{msg}.frame_bytes` — payload size spread,
/// - histogram `rpc.{label}.{dir}.{msg}.nanos` — send/recv latency,
///   recorded **only under a monotonic clock**: logical-clock tick deltas
///   depend on thread interleaving and would break byte-identical metrics
///   artifacts for seeded runs.
///
/// Construction returns `None` when `obs` is inert, so the per-frame cost
/// on an uninstrumented connection is a single `Option` branch.
#[derive(Debug)]
pub struct FrameStats {
    obs: Obs,
    /// Real-time clock for latency histograms; `None` under a logical clock.
    timing: Option<Clock>,
    send_prefix: String,
    recv_prefix: String,
    send_names: TagNames,
    recv_names: TagNames,
}

impl FrameStats {
    /// Build stats for a connection labelled `label` (e.g. `shuffle.w0`,
    /// `ps.s1`). `send_names`/`recv_names` name the leading tag byte of
    /// outgoing/incoming frames — the two directions usually speak different
    /// message enums. Returns `None` when `obs` is disabled.
    pub fn from_obs(obs: &Obs, label: &str, send_names: TagNames, recv_names: TagNames) -> Option<Arc<FrameStats>> {
        if !obs.is_enabled() {
            return None;
        }
        let timing = obs.clock().filter(|c| !c.is_logical()).cloned();
        Some(Arc::new(FrameStats {
            obs: obs.clone(),
            timing,
            send_prefix: format!("rpc.{label}.send"),
            recv_prefix: format!("rpc.{label}.recv"),
            send_names,
            recv_names,
        }))
    }

    fn record(&self, prefix: &str, names: TagNames, payload: &[u8], started: Option<u64>) {
        let msg = payload.first().map_or("empty", |&t| names.get(usize::from(t)).copied().unwrap_or("unknown"));
        self.obs.metric_add(&format!("{prefix}.{msg}.frames"), 1);
        self.obs.metric_add(&format!("{prefix}.{msg}.bytes"), payload.len() as u64);
        self.obs.observe(&format!("{prefix}.{msg}.frame_bytes"), payload.len() as u64);
        if let (Some(clock), Some(t0)) = (&self.timing, started) {
            self.obs.observe(&format!("{prefix}.{msg}.nanos"), clock.since(t0));
        }
    }

    fn start(&self) -> Option<u64> {
        self.timing.as_ref().map(|c| c.now())
    }
}

/// A framed connection: `u32` little-endian length prefix, then the payload.
#[derive(Debug)]
pub struct Framed {
    conn: Conn,
    max_frame: u32,
    stats: Option<Arc<FrameStats>>,
}

impl Framed {
    /// Wrap `conn` with the default frame cap.
    pub fn new(conn: Conn) -> Self {
        Self { conn, max_frame: DEFAULT_MAX_FRAME, stats: None }
    }

    /// Override the frame cap (tests use tiny caps to exercise rejection).
    pub fn with_max_frame(mut self, max: u32) -> Self {
        self.max_frame = max;
        self
    }

    /// Attach (or detach, with `None`) per-message telemetry. Stats are
    /// shared via `Arc` so many connections can report under one label.
    pub fn with_stats(mut self, stats: Option<Arc<FrameStats>>) -> Self {
        self.stats = stats;
        self
    }

    /// The underlying connection (for timeouts / shutdown).
    pub fn conn(&self) -> &Conn {
        &self.conn
    }

    /// Send one frame. A payload above the cap is refused locally — the
    /// sender's cap and the receiver's cap must agree, and refusing early
    /// gives the error to the side that can fix it.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        if payload.len() as u64 > self.max_frame as u64 {
            return Err(TransportError::FrameTooLarge { len: payload.len() as u32, max: self.max_frame });
        }
        let started = self.stats.as_ref().and_then(|s| s.start());
        let len = (payload.len() as u32).to_le_bytes();
        self.conn.write_all(&len).map_err(TransportError::from_io)?;
        self.conn.write_all(payload).map_err(TransportError::from_io)?;
        self.conn.flush().map_err(TransportError::from_io)?;
        if let Some(stats) = &self.stats {
            stats.record(&stats.send_prefix, stats.send_names, payload, started);
        }
        Ok(())
    }

    /// Receive one frame. `Ok(None)` is a clean EOF (peer closed between
    /// frames); EOF inside a frame is [`TransportError::TruncatedFrame`].
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        // Latency includes the blocking wait for the peer's frame — recv
        // telemetry measures "time to obtain a message", not wire transit.
        let started = self.stats.as_ref().and_then(|s| s.start());
        let mut header = [0u8; 4];
        let mut got = 0;
        while got < header.len() {
            match self.conn.read(&mut header[got..]) {
                Ok(0) => {
                    if got == 0 {
                        return Ok(None);
                    }
                    return Err(TransportError::TruncatedFrame { got, want: header.len() });
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::from_io(e)),
            }
        }
        let len = u32::from_le_bytes(header);
        if len > self.max_frame {
            return Err(TransportError::FrameTooLarge { len, max: self.max_frame });
        }
        let mut payload = vec![0u8; len as usize];
        let mut got = 0;
        while got < payload.len() {
            match self.conn.read(&mut payload[got..]) {
                Ok(0) => return Err(TransportError::TruncatedFrame { got, want: payload.len() }),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::from_io(e)),
            }
        }
        if let Some(stats) = &self.stats {
            stats.record(&stats.recv_prefix, stats.recv_names, &payload, started);
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Framed, Framed) {
        let (a, b) = UnixStream::pair().unwrap();
        (Framed::new(Conn::Unix(a)), Framed::new(Conn::Unix(b)))
    }

    #[test]
    fn endpoint_parse_round_trips() {
        let u = Endpoint::parse("unix:/tmp/x.sock").unwrap();
        assert_eq!(u, Endpoint::Unix(PathBuf::from("/tmp/x.sock")));
        assert_eq!(u.to_string(), "unix:/tmp/x.sock");
        let t = Endpoint::parse("tcp:127.0.0.1:7001").unwrap();
        assert_eq!(t.to_string(), "tcp:127.0.0.1:7001");
        assert!(Endpoint::parse("http:x").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
    }

    #[test]
    fn frame_round_trip() {
        let (mut a, mut b) = pair();
        a.send(b"hello").unwrap();
        a.send(b"").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"hello");
        assert_eq!(b.recv().unwrap().unwrap(), b"");
    }

    #[test]
    fn clean_eof_between_frames() {
        let (mut a, mut b) = pair();
        a.send(b"last").unwrap();
        drop(a);
        assert_eq!(b.recv().unwrap().unwrap(), b"last");
        assert!(b.recv().unwrap().is_none(), "EOF on a frame boundary is clean");
    }

    #[test]
    fn oversized_frame_rejected_on_send_and_recv() {
        let (a, b) = pair();
        let mut a = a.with_max_frame(8);
        let mut b = b.with_max_frame(4);
        assert!(matches!(a.send(&[0u8; 9]), Err(TransportError::FrameTooLarge { len: 9, max: 8 })));
        // Sender's cap (8) admits what the receiver's cap (4) rejects.
        a.send(&[0u8; 6]).unwrap();
        assert!(matches!(b.recv(), Err(TransportError::FrameTooLarge { len: 6, max: 4 })));
    }

    #[test]
    fn accept_deadline_times_out_without_peer() {
        let dir = std::env::temp_dir().join(format!("agl-transport-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ep = Endpoint::Unix(dir.join("t.sock"));
        let listener = Listener::bind(&ep).unwrap();
        let clock = Clock::monotonic();
        let err = listener.accept_deadline(&clock, 20_000_000).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }));
        drop(listener);
        assert!(!dir.join("t.sock").exists(), "listener drop unlinks the socket file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn accept_unless_leaves_once_stop_is_raised() {
        let dir = std::env::temp_dir().join(format!("agl-transport-stop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listener = Listener::bind(&Endpoint::Unix(dir.join("s.sock"))).unwrap();
        let clock = Clock::monotonic();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let start = clock.now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            // The window is ten seconds; the flag, not the deadline, ends it.
            let err = listener.accept_unless(&clock, 10_000_000_000, || stop.load(std::sync::atomic::Ordering::SeqCst));
            assert!(matches!(err, Err(TransportError::Timeout { .. })));
        });
        assert!(clock.since(start) < 5_000_000_000, "accept outlived its stop flag");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn connect_gives_up_after_deadline() {
        let ep = Endpoint::Unix(PathBuf::from("/nonexistent-dir/never.sock"));
        let clock = Clock::monotonic();
        let err = connect(&ep, &clock, 10_000_000).unwrap_err();
        assert!(matches!(err, TransportError::Connect { .. }), "{err}");
    }

    #[test]
    fn connect_succeeds_once_listener_binds() {
        let dir = std::env::temp_dir().join(format!("agl-transport-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ep = Endpoint::Unix(dir.join("race.sock"));
        let clock = Clock::monotonic();
        std::thread::scope(|s| {
            let ep2 = ep.clone();
            let clock2 = clock.clone();
            let h = s.spawn(move || connect(&ep2, &clock2, 2_000_000_000));
            // Bind late: connect must retry until the listener exists.
            std::thread::sleep(Duration::from_millis(20));
            let listener = Listener::bind(&ep).unwrap();
            let _conn = listener.accept_deadline(&clock, 2_000_000_000).unwrap();
            assert!(h.join().unwrap().is_ok());
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    const TEST_NAMES: TagNames = &["zero", "ping", "pong"];

    #[test]
    fn frame_stats_none_when_obs_inert() {
        assert!(FrameStats::from_obs(&Obs::default(), "t", TEST_NAMES, TEST_NAMES).is_none());
    }

    #[test]
    fn frame_stats_count_frames_bytes_and_latency() {
        let obs = Obs::enabled();
        let stats = FrameStats::from_obs(&obs, "t", TEST_NAMES, TEST_NAMES).unwrap();
        let (a, b) = pair();
        let mut a = a.with_stats(Some(stats.clone()));
        let mut b = b.with_stats(Some(stats));
        a.send(&[1, 9, 9]).unwrap();
        a.send(&[1]).unwrap();
        b.recv().unwrap().unwrap();
        b.recv().unwrap().unwrap();
        b.send(&[2, 0]).unwrap();
        a.recv().unwrap().unwrap();
        // A tag past the end of the table.
        b.send(&[3]).unwrap();
        a.recv().unwrap().unwrap();
        let m = obs.metrics().unwrap();
        assert_eq!(m.get("rpc.t.recv.unknown.frames"), 1);
        assert_eq!(m.get("rpc.t.send.ping.frames"), 2);
        assert_eq!(m.get("rpc.t.send.ping.bytes"), 4);
        assert_eq!(m.get("rpc.t.recv.ping.frames"), 2);
        assert_eq!(m.get("rpc.t.send.pong.frames"), 1);
        assert_eq!(m.get("rpc.t.recv.pong.bytes"), 2);
        let json = m.to_json();
        assert!(json.contains("rpc.t.send.ping.frame_bytes"), "byte histogram present: {json}");
        assert!(json.contains("rpc.t.send.ping.nanos"), "latency histogram present under monotonic clock");
    }

    #[test]
    fn frame_stats_skip_latency_under_logical_clock() {
        let obs = Obs::enabled_logical();
        let stats = FrameStats::from_obs(&obs, "t", TEST_NAMES, TEST_NAMES).unwrap();
        let (a, b) = pair();
        let mut a = a.with_stats(Some(stats.clone()));
        let mut b = b.with_stats(Some(stats));
        a.send(&[1]).unwrap();
        b.recv().unwrap().unwrap();
        let json = obs.metrics().unwrap().to_json();
        assert!(json.contains("rpc.t.send.ping.frame_bytes"), "{json}");
        assert!(!json.contains(".nanos"), "no tick-delta histograms under a logical clock: {json}");
    }

    #[test]
    fn tcp_fallback_round_trips() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
        let ep = listener.endpoint().unwrap();
        let clock = Clock::monotonic();
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                let mut f = Framed::new(connect(&ep, &clock, 1_000_000_000).unwrap());
                f.send(b"over tcp").unwrap();
                assert_eq!(f.recv().unwrap().unwrap(), b"echo");
            });
            let mut f = Framed::new(listener.accept_deadline(&Clock::monotonic(), 1_000_000_000).unwrap());
            assert_eq!(f.recv().unwrap().unwrap(), b"over tcp");
            f.send(b"echo").unwrap();
            h.join().unwrap();
        });
    }
}
