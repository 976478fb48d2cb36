//! Pluggable frame transport: the process-boundary seam.
//!
//! The window/replay/ack protocol that runs over [`crate::link`]s is
//! already message-framed — every hop exchanges discrete encoded frames,
//! never a byte stream — so the only thing a *real* network backend has
//! to provide is reliable delivery of opaque frames between two
//! endpoints. [`Transport`] captures exactly that: `bind` an address,
//! `accept`/`dial` connections, and exchange `Vec<u8>` frames.
//!
//! Two backends implement it:
//!
//! * [`MemTransport`] — in-process channel pairs behind string addresses.
//!   Keeps unit tests instantaneous and deterministic, and is the
//!   reference semantics the TCP backend must match.
//! * [`crate::tcp::TcpTransport`] — real sockets with length-prefixed,
//!   CRC-framed wire encoding, read/write timeouts, and torn-frame
//!   truncation (see `tcp.rs`).
//!
//! Connections are **full duplex**: [`FrameConn::split`] tears one
//! connection into independently owned send/receive halves so a bridge
//! can run a writer thread and a reader thread against the same peer —
//! data frames one way, control frames the other, exactly like the
//! paper's per-edge TCP connections.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

/// Largest frame any backend will send or accept (64 MiB), matching the
/// codec's length sanity bound: a corrupted length prefix becomes a clean
/// error instead of a huge allocation.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Errors surfaced by frame transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection (clean EOF at a frame boundary) or
    /// the connection is otherwise gone.
    Closed,
    /// A read or write timed out at a frame boundary; the connection may
    /// still be healthy (idle peer) — retry or tear down per policy.
    Timeout,
    /// The stream ended (or stalled past its timeout) in the middle of a
    /// frame. The partial bytes are discarded — torn-frame truncation —
    /// and the connection must be torn down and re-established.
    Torn {
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes actually read before the stream ended.
        got: usize,
    },
    /// The frame arrived complete but its checksum did not match.
    Crc {
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// A length prefix exceeded [`MAX_FRAME`].
    TooLarge(u64),
    /// The address could not be bound, resolved, or dialed.
    Addr(String),
    /// Any other I/O failure, stringified.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Timeout => write!(f, "frame i/o timed out"),
            FrameError::Torn { needed, got } => {
                write!(f, "torn frame: needed {needed} more bytes, got {got}")
            }
            FrameError::Crc { stored, computed } => {
                write!(f, "frame crc mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            FrameError::TooLarge(len) => write!(f, "frame length {len} exceeds limit"),
            FrameError::Addr(msg) => write!(f, "address error: {msg}"),
            FrameError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether the error means the connection is unusable and must be
    /// re-established (as opposed to a retryable idle timeout).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, FrameError::Timeout)
    }
}

/// Sending half of a split connection.
pub trait FrameTx: Send {
    /// Writes one complete frame.
    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError>;
}

/// Receiving half of a split connection.
pub trait FrameRx: Send {
    /// Reads one complete frame, honoring the backend's read timeout.
    fn recv(&mut self) -> Result<Vec<u8>, FrameError>;
}

/// One established full-duplex connection.
pub trait FrameConn: Send {
    /// Writes one complete frame.
    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError>;
    /// Reads one complete frame, honoring the backend's read timeout.
    fn recv(&mut self) -> Result<Vec<u8>, FrameError>;
    /// Tears the connection into independently owned halves so a writer
    /// thread and a reader thread can share the peer.
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>);
    /// The peer's address, for diagnostics.
    fn peer_addr(&self) -> String;
}

/// A bound listening endpoint.
pub trait FrameListener: Send {
    /// Blocks until a peer connects (or the backend's accept timeout
    /// elapses, surfacing [`FrameError::Timeout`]).
    fn accept(&self) -> Result<Box<dyn FrameConn>, FrameError>;
    /// The concrete bound address — what peers should dial. Binding port
    /// `0` (TCP) or a `:0` suffix (mem) allocates a fresh address, so
    /// callers must read it back from here.
    fn local_addr(&self) -> String;
}

/// A frame-transport backend: the process-boundary abstraction.
pub trait Transport: Send + Sync {
    /// Binds a listening endpoint at `addr`.
    fn bind(&self, addr: &str) -> Result<Box<dyn FrameListener>, FrameError>;
    /// Dials a peer's bound endpoint. One attempt — reconnect policy
    /// (capped exponential backoff) lives in the caller, which knows
    /// whether the peer is expected back.
    fn dial(&self, addr: &str) -> Result<Box<dyn FrameConn>, FrameError>;
}

/// A cloneable, reconnect-aware handle to the sending half of a split
/// connection.
///
/// Bridges that redial keep the live [`FrameTx`] inside their writer loop,
/// which makes it single-owner — no other thread can opportunistically
/// send a frame on the same connection. `SharedFrameTx` is the shared
/// slot for that pattern: the writer [`install`](SharedFrameTx::install)s
/// each freshly dialed half (and owns redialing), while any thread may
/// [`send`](SharedFrameTx::send) through the current one. A send on a
/// dead or empty slot reports `false` and clears the slot; senders treat
/// that as "retry after the next reconnect", never as an error.
#[derive(Clone, Default)]
pub struct SharedFrameTx {
    slot: Arc<Mutex<Option<Box<dyn FrameTx>>>>,
}

impl fmt::Debug for SharedFrameTx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedFrameTx").field("connected", &self.is_connected()).finish()
    }
}

impl SharedFrameTx {
    /// An empty (disconnected) slot.
    pub fn new() -> SharedFrameTx {
        SharedFrameTx::default()
    }

    /// Installs a freshly dialed sending half, replacing whatever was
    /// there.
    pub fn install(&self, tx: Box<dyn FrameTx>) {
        *self.slot.lock() = Some(tx);
    }

    /// Drops the current sending half; subsequent sends report `false`
    /// until a new one is installed.
    pub fn disconnect(&self) {
        *self.slot.lock() = None;
    }

    /// Whether a sending half is currently installed.
    pub fn is_connected(&self) -> bool {
        self.slot.lock().is_some()
    }

    /// Sends one frame through the installed half. Returns `false` — and
    /// clears the slot on a fatal error, so the owning writer redials —
    /// when the slot is empty or the send fails.
    pub fn send(&self, payload: &[u8]) -> bool {
        let mut slot = self.slot.lock();
        match slot.as_mut() {
            None => false,
            Some(tx) => match tx.send(payload) {
                Ok(()) => true,
                Err(e) => {
                    if e.is_fatal() {
                        *slot = None;
                    }
                    false
                }
            },
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

type MemPipe = (Sender<Vec<u8>>, Receiver<Vec<u8>>);

struct MemRegistry {
    listeners: Mutex<HashMap<String, Sender<(String, MemPipe)>>>,
    next_auto: AtomicU64,
}

/// In-process [`Transport`]: string addresses resolve to channel pairs
/// inside one registry. Two `MemTransport` clones share the registry, so
/// a test creates one, hands clones to both "processes", and wires them
/// exactly as TCP would — minus the syscalls and the ports.
#[derive(Clone)]
pub struct MemTransport {
    registry: Arc<MemRegistry>,
    read_timeout: Option<Duration>,
}

impl fmt::Debug for MemTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemTransport")
            .field("listeners", &self.registry.listeners.lock().len())
            .finish()
    }
}

impl Default for MemTransport {
    fn default() -> Self {
        MemTransport::new()
    }
}

impl MemTransport {
    /// A fresh, empty address space.
    pub fn new() -> MemTransport {
        MemTransport {
            registry: Arc::new(MemRegistry {
                listeners: Mutex::new(HashMap::new()),
                next_auto: AtomicU64::new(1),
            }),
            read_timeout: None,
        }
    }

    /// Sets the receive timeout applied to connections made through this
    /// handle (mirrors the TCP backend's read timeout).
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> MemTransport {
        self.read_timeout = Some(timeout);
        self
    }
}

impl Transport for MemTransport {
    fn bind(&self, addr: &str) -> Result<Box<dyn FrameListener>, FrameError> {
        let addr = if addr.is_empty() || addr.ends_with(":0") {
            let n = self.registry.next_auto.fetch_add(1, Ordering::Relaxed);
            format!("mem:{n}")
        } else {
            addr.to_string()
        };
        let mut listeners = self.registry.listeners.lock();
        if listeners.contains_key(&addr) {
            return Err(FrameError::Addr(format!("{addr} already bound")));
        }
        let (tx, rx) = unbounded();
        listeners.insert(addr.clone(), tx);
        Ok(Box::new(MemListener {
            addr,
            rx,
            read_timeout: self.read_timeout,
            registry: self.registry.clone(),
        }))
    }

    fn dial(&self, addr: &str) -> Result<Box<dyn FrameConn>, FrameError> {
        let accept_tx = self
            .registry
            .listeners
            .lock()
            .get(addr)
            .cloned()
            .ok_or_else(|| FrameError::Addr(format!("nothing bound at {addr}")))?;
        let (a_tx, a_rx) = unbounded();
        let (b_tx, b_rx) = unbounded();
        let dialer_addr = {
            let n = self.registry.next_auto.fetch_add(1, Ordering::Relaxed);
            format!("mem:dialer:{n}")
        };
        accept_tx
            .send((dialer_addr, (b_tx, a_rx)))
            .map_err(|_| FrameError::Addr(format!("listener at {addr} is gone")))?;
        Ok(Box::new(MemConn {
            tx: a_tx,
            rx: b_rx,
            peer: addr.to_string(),
            read_timeout: self.read_timeout,
        }))
    }
}

struct MemListener {
    addr: String,
    rx: Receiver<(String, MemPipe)>,
    read_timeout: Option<Duration>,
    registry: Arc<MemRegistry>,
}

impl FrameListener for MemListener {
    fn accept(&self) -> Result<Box<dyn FrameConn>, FrameError> {
        let (peer, (tx, rx)) = match self.read_timeout {
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => FrameError::Timeout,
                RecvTimeoutError::Disconnected => FrameError::Closed,
            })?,
            None => self.rx.recv().map_err(|_| FrameError::Closed)?,
        };
        Ok(Box::new(MemConn { tx, rx, peer, read_timeout: self.read_timeout }))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.registry.listeners.lock().remove(&self.addr);
    }
}

struct MemConn {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    peer: String,
    read_timeout: Option<Duration>,
}

fn mem_send(tx: &Sender<Vec<u8>>, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len() as u64));
    }
    tx.send(payload.to_vec()).map_err(|_| FrameError::Closed)
}

fn mem_recv(rx: &Receiver<Vec<u8>>, timeout: Option<Duration>) -> Result<Vec<u8>, FrameError> {
    match timeout {
        Some(t) => rx.recv_timeout(t).map_err(|e| match e {
            RecvTimeoutError::Timeout => FrameError::Timeout,
            RecvTimeoutError::Disconnected => FrameError::Closed,
        }),
        None => rx.recv().map_err(|_| FrameError::Closed),
    }
}

impl FrameConn for MemConn {
    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        mem_send(&self.tx, payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, FrameError> {
        mem_recv(&self.rx, self.read_timeout)
    }

    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        (
            Box::new(MemTxHalf { tx: self.tx }),
            Box::new(MemRxHalf { rx: self.rx, read_timeout: self.read_timeout }),
        )
    }

    fn peer_addr(&self) -> String {
        self.peer.clone()
    }
}

struct MemTxHalf {
    tx: Sender<Vec<u8>>,
}

impl FrameTx for MemTxHalf {
    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        mem_send(&self.tx, payload)
    }
}

struct MemRxHalf {
    rx: Receiver<Vec<u8>>,
    read_timeout: Option<Duration>,
}

impl FrameRx for MemRxHalf {
    fn recv(&mut self) -> Result<Vec<u8>, FrameError> {
        mem_recv(&self.rx, self.read_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_dial_accept_exchanges_frames_both_ways() {
        let t = MemTransport::new();
        let listener = t.bind("mem:ctrl").unwrap();
        assert_eq!(listener.local_addr(), "mem:ctrl");
        let mut dialed = t.dial("mem:ctrl").unwrap();
        let mut accepted = listener.accept().unwrap();
        dialed.send(b"ping").unwrap();
        assert_eq!(accepted.recv().unwrap(), b"ping");
        accepted.send(b"pong").unwrap();
        assert_eq!(dialed.recv().unwrap(), b"pong");
        assert_eq!(dialed.peer_addr(), "mem:ctrl");
    }

    #[test]
    fn mem_auto_addresses_are_unique() {
        let t = MemTransport::new();
        let a = t.bind(":0").unwrap();
        let b = t.bind("").unwrap();
        assert_ne!(a.local_addr(), b.local_addr());
        assert!(a.local_addr().starts_with("mem:"));
    }

    #[test]
    fn mem_double_bind_and_unknown_dial_are_address_errors() {
        let t = MemTransport::new();
        let _l = t.bind("mem:x").unwrap();
        assert!(matches!(t.bind("mem:x"), Err(FrameError::Addr(_))));
        assert!(matches!(t.dial("mem:y"), Err(FrameError::Addr(_))));
    }

    #[test]
    fn mem_listener_drop_frees_the_address() {
        let t = MemTransport::new();
        drop(t.bind("mem:x").unwrap());
        let _again = t.bind("mem:x").unwrap();
    }

    #[test]
    fn mem_split_halves_work_from_separate_threads() {
        let t = MemTransport::new();
        let listener = t.bind("mem:dup").unwrap();
        let conn = t.dial("mem:dup").unwrap();
        let (mut tx, mut rx) = conn.split();
        let peer = listener.accept().unwrap();
        let (mut peer_tx, mut peer_rx) = peer.split();
        let writer = std::thread::spawn(move || {
            for i in 0..10u8 {
                tx.send(&[i]).unwrap();
            }
        });
        let echoer = std::thread::spawn(move || {
            for _ in 0..10 {
                let f = peer_rx.recv().unwrap();
                peer_tx.send(&f).unwrap();
            }
        });
        for i in 0..10u8 {
            assert_eq!(rx.recv().unwrap(), vec![i]);
        }
        writer.join().unwrap();
        echoer.join().unwrap();
    }

    #[test]
    fn mem_closed_peer_surfaces_closed() {
        let t = MemTransport::new();
        let listener = t.bind("mem:gone").unwrap();
        let mut conn = t.dial("mem:gone").unwrap();
        drop(listener.accept().unwrap());
        assert_eq!(conn.recv().unwrap_err(), FrameError::Closed);
    }

    #[test]
    fn mem_read_timeout_is_not_fatal() {
        let t = MemTransport::new().with_read_timeout(Duration::from_millis(5));
        let listener = t.bind("mem:slow").unwrap();
        let mut conn = t.dial("mem:slow").unwrap();
        let _peer = listener.accept().unwrap();
        let err = conn.recv().unwrap_err();
        assert_eq!(err, FrameError::Timeout);
        assert!(!err.is_fatal());
        assert!(FrameError::Closed.is_fatal());
        assert!(FrameError::Torn { needed: 4, got: 1 }.is_fatal());
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(FrameError::Torn { needed: 7, got: 1 }.to_string().contains("torn"));
        assert!(FrameError::Crc { stored: 1, computed: 2 }.to_string().contains("crc"));
        assert!(FrameError::TooLarge(99).to_string().contains("99"));
    }
}
