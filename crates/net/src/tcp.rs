//! Real-socket [`Transport`] backend.
//!
//! Wire format, per frame:
//!
//! ```text
//! [u32 len (LE)] [u32 crc32 (LE, over payload)] [payload: len bytes]
//! ```
//!
//! Properties the engine's recovery protocol relies on, and how the
//! backend provides them:
//!
//! * **Frame integrity** — every payload is covered by a CRC32 (same
//!   polynomial and framing discipline as the stable-storage records in
//!   `streammine-common::crc32`). A mismatch surfaces
//!   [`FrameError::Crc`]; the receiver tears the connection rather than
//!   act on a corrupt frame.
//! * **Torn-frame truncation** — a stream that ends (peer death, RST)
//!   mid-frame yields [`FrameError::Torn`]; the partial bytes are
//!   discarded, mirroring how the decision log truncates a torn tail.
//!   Retransmission comes from the sender's retained output buffer on
//!   reconnect, not from the transport.
//! * **Read/write timeouts** — both directions carry deadlines so a
//!   one-way partition (peer reads nothing, kernel buffers fill) turns
//!   into a [`FrameError::Timeout`] on write, and a silent peer turns
//!   into one on read. Mid-frame read timeouts are *torn*, not
//!   retryable: resuming a half-read frame after an unbounded stall
//!   would hide partitions from the failure detector.
//! * **No head-of-line surprises** — `TCP_NODELAY` is set; frames are
//!   written with a single `write_all` of header + payload.
//! * **One `read` per small frame** — each connection reads into a
//!   buffer of its own, so a small frame usually costs one `read` and
//!   frames that arrived together are cut from one. A frame larger than
//!   the buffer is read straight into its own allocation.
//!
//! Reconnect policy deliberately lives one layer up (the edge bridges in
//! `streammine-core::dist`), because only that layer knows whether a
//! peer is expected to come back and at which address a restarted
//! incarnation listens.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use streammine_common::crc32;

use crate::transport::{
    FrameConn, FrameError, FrameListener, FrameRx, FrameTx, Transport, MAX_FRAME,
};

/// Header bytes preceding every payload: `u32` length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// TCP [`Transport`] with per-connection deadlines.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    /// Deadline for reading one frame (applied per `read` syscall).
    /// `None` blocks forever — only sensible in tests.
    pub read_timeout: Option<Duration>,
    /// Deadline for writing one frame.
    pub write_timeout: Option<Duration>,
    /// Deadline for `dial` to establish a connection.
    pub connect_timeout: Duration,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport {
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            connect_timeout: Duration::from_millis(500),
        }
    }
}

impl TcpTransport {
    /// The default transport: 500 ms read/write/connect deadlines —
    /// generous against scheduling noise, small enough that a partition
    /// is detected well inside a heartbeat lease.
    pub fn new() -> TcpTransport {
        TcpTransport::default()
    }

    /// Overrides the read deadline.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> TcpTransport {
        self.read_timeout = Some(timeout);
        self
    }

    /// Overrides the write deadline.
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Duration) -> TcpTransport {
        self.write_timeout = Some(timeout);
        self
    }

    fn configure(&self, stream: &TcpStream) -> Result<(), FrameError> {
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_read_timeout(self.read_timeout).map_err(io_err)?;
        stream.set_write_timeout(self.write_timeout).map_err(io_err)?;
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> FrameError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FrameError::Timeout,
        ErrorKind::BrokenPipe
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::UnexpectedEof
        | ErrorKind::NotConnected => FrameError::Closed,
        _ => FrameError::Io(e.to_string()),
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, FrameError> {
    addr.to_socket_addrs()
        .map_err(|e| FrameError::Addr(format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| FrameError::Addr(format!("{addr}: no addresses")))
}

impl Transport for TcpTransport {
    fn bind(&self, addr: &str) -> Result<Box<dyn FrameListener>, FrameError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| FrameError::Addr(format!("{addr}: {e}")))?;
        Ok(Box::new(TcpFrameListener { listener, transport: self.clone() }))
    }

    fn dial(&self, addr: &str) -> Result<Box<dyn FrameConn>, FrameError> {
        let sockaddr = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&sockaddr, self.connect_timeout).map_err(|e| {
            match e.kind() {
                ErrorKind::TimedOut | ErrorKind::WouldBlock => FrameError::Timeout,
                _ => FrameError::Addr(format!("{addr}: {e}")),
            }
        })?;
        self.configure(&stream)?;
        Ok(Box::new(TcpFrameConn::new(stream, addr.to_string())))
    }
}

struct TcpFrameListener {
    listener: TcpListener,
    transport: TcpTransport,
}

impl FrameListener for TcpFrameListener {
    fn accept(&self) -> Result<Box<dyn FrameConn>, FrameError> {
        let (stream, peer) = self.listener.accept().map_err(io_err)?;
        self.transport.configure(&stream)?;
        Ok(Box::new(TcpFrameConn::new(stream, peer.to_string())))
    }

    fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| String::from("<unbound>"))
    }
}

/// Writes one `[len][crc][payload]` frame with a single `write_all`,
/// assembled in the writer's `scratch` (kept between frames, so a small
/// frame costs no allocation).
fn write_frame(
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
    payload: &[u8],
) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len() as u64));
    }
    scratch.clear();
    scratch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    scratch.extend_from_slice(&crc32::checksum(payload).to_le_bytes());
    scratch.extend_from_slice(payload);
    let written = stream.write_all(scratch).map_err(io_err);
    // One large frame does not pin its size for the connection's life.
    scratch.shrink_to(READ_AHEAD);
    written
}

/// Bytes a connection reads at once: a small frame usually arrives whole
/// in one `read`, and frames that arrived together are cut from it.
const READ_AHEAD: usize = 8 * 1024;

/// One `read` into `dst`: the bytes it brought, at least one. A read that
/// brings none is classified by where in a frame it came: before its
/// first byte (`at_boundary`) EOF is `Closed` and a stall `Timeout`;
/// after some bytes either is `Torn` and the partial frame is discarded —
/// a stall mid-frame is indistinguishable from a torn peer for our
/// purposes: truncate, don't resume.
fn read_some(
    stream: &mut TcpStream,
    dst: &mut [u8],
    needed: usize,
    got: usize,
    at_boundary: bool,
) -> Result<usize, FrameError> {
    loop {
        let stalled = match stream.read(dst) {
            Ok(0) => false,
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => true,
            Err(e) => return Err(io_err(e)),
        };
        return Err(match (at_boundary, stalled) {
            (true, false) => FrameError::Closed,
            (true, true) => FrameError::Timeout,
            (false, _) => FrameError::Torn { needed, got },
        });
    }
}

/// A connection's receive side: the bytes read past the last frame it
/// returned. It moves with the read half in `split`, so nothing read
/// during a handshake is lost.
struct RxBuf {
    buf: Box<[u8]>,
    /// `buf[start..end]` is read and not yet returned.
    start: usize,
    end: usize,
}

impl RxBuf {
    fn new() -> RxBuf {
        RxBuf { buf: vec![0u8; READ_AHEAD].into_boxed_slice(), start: 0, end: 0 }
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// One `read` into the buffer, its unread bytes moved to the front
    /// first, for a frame that still lacks `needed` bytes.
    fn fill(
        &mut self,
        stream: &mut TcpStream,
        needed: usize,
        at_boundary: bool,
    ) -> Result<(), FrameError> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let got = self.end;
        self.end += read_some(stream, &mut self.buf[got..], needed, got, at_boundary)?;
        Ok(())
    }

    /// Reads one complete frame and validates its checksum.
    fn recv(&mut self, stream: &mut TcpStream) -> Result<Vec<u8>, FrameError> {
        while self.buffered() < FRAME_HEADER {
            let got = self.buffered();
            self.fill(stream, FRAME_HEADER - got, got == 0)?;
        }
        let header = &self.buf[self.start..self.start + FRAME_HEADER];
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let stored = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_FRAME {
            return Err(FrameError::TooLarge(len as u64));
        }
        self.start += FRAME_HEADER;
        let payload = if len <= self.buf.len() {
            while self.buffered() < len {
                self.fill(stream, len - self.buffered(), false)?;
            }
            let payload = self.buf[self.start..self.start + len].to_vec();
            self.start += len;
            payload
        } else {
            // Larger than the buffer: read straight into its own allocation.
            let mut payload = vec![0u8; len];
            let mut got = self.buffered();
            payload[..got].copy_from_slice(&self.buf[self.start..self.end]);
            self.start = self.end;
            while got < len {
                got += read_some(stream, &mut payload[got..], len - got, got, false)?;
            }
            payload
        };
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let computed = crc32::checksum(&payload);
        if computed != stored {
            return Err(FrameError::Crc { stored, computed });
        }
        Ok(payload)
    }
}

struct TcpFrameConn {
    stream: TcpStream,
    rx: RxBuf,
    scratch: Vec<u8>,
    peer: String,
}

impl TcpFrameConn {
    fn new(stream: TcpStream, peer: String) -> TcpFrameConn {
        TcpFrameConn { stream, rx: RxBuf::new(), scratch: Vec::new(), peer }
    }
}

impl FrameConn for TcpFrameConn {
    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        write_frame(&mut self.stream, &mut self.scratch, payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, FrameError> {
        self.rx.recv(&mut self.stream)
    }

    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        // try_clone shares one socket between the halves; failure leaves
        // the rx half permanently closed, which the owning bridge treats
        // like any dead connection (tear down and redial).
        let TcpFrameConn { stream, rx, scratch, .. } = *self;
        let read = stream.try_clone().ok();
        (Box::new(TcpTxHalf { stream, scratch }), Box::new(TcpRxHalf { stream: read, rx }))
    }

    fn peer_addr(&self) -> String {
        self.peer.clone()
    }
}

struct TcpTxHalf {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl FrameTx for TcpTxHalf {
    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        write_frame(&mut self.stream, &mut self.scratch, payload)
    }
}

struct TcpRxHalf {
    stream: Option<TcpStream>,
    rx: RxBuf,
}

impl FrameRx for TcpRxHalf {
    fn recv(&mut self) -> Result<Vec<u8>, FrameError> {
        match self.stream.as_mut() {
            Some(stream) => self.rx.recv(stream),
            None => Err(FrameError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(t: &TcpTransport) -> (Box<dyn FrameConn>, Box<dyn FrameConn>) {
        let listener = t.bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let dialed = t.dial(&addr).unwrap();
        let accepted = listener.accept().unwrap();
        (dialed, accepted)
    }

    #[test]
    fn frames_roundtrip_both_ways() {
        let t = TcpTransport::new();
        let (mut a, mut b) = pair(&t);
        a.send(b"hello").unwrap();
        a.send(&[]).unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert_eq!(b.recv().unwrap(), b"");
        b.send(&[7u8; 1000]).unwrap();
        assert_eq!(a.recv().unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn clean_close_at_boundary_is_closed() {
        let t = TcpTransport::new();
        let (a, mut b) = pair(&t);
        drop(a);
        assert_eq!(b.recv().unwrap_err(), FrameError::Closed);
    }

    #[test]
    fn idle_read_times_out_without_tearing() {
        let t = TcpTransport::new().with_read_timeout(Duration::from_millis(20));
        let (_a, mut b) = pair(&t);
        let err = b.recv().unwrap_err();
        assert_eq!(err, FrameError::Timeout);
        assert!(!err.is_fatal());
    }

    #[test]
    fn torn_mid_frame_write_truncates() {
        // Write a header promising 100 bytes, send only 3, then close:
        // the reader must report Torn, not hang or return garbage.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = TcpTransport::new();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut partial = Vec::new();
            partial.extend_from_slice(&100u32.to_le_bytes());
            partial.extend_from_slice(&0u32.to_le_bytes());
            partial.extend_from_slice(b"abc");
            s.write_all(&partial).unwrap();
            // Drop closes the socket mid-frame.
        });
        let mut conn = t.dial(&addr.to_string()).unwrap();
        match conn.recv().unwrap_err() {
            FrameError::Torn { needed, got } => {
                assert_eq!(got, 3);
                assert_eq!(needed, 97);
            }
            other => panic!("expected torn frame, got {other:?}"),
        }
        writer.join().unwrap();
    }

    #[test]
    fn torn_mid_header_is_torn_not_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = TcpTransport::new();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(&[1, 2, 3]).unwrap(); // 3 of 8 header bytes
        });
        let mut conn = t.dial(&addr.to_string()).unwrap();
        assert!(matches!(conn.recv().unwrap_err(), FrameError::Torn { got: 3, .. }));
        writer.join().unwrap();
    }

    #[test]
    fn corrupt_crc_is_detected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = TcpTransport::new();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let payload = b"data";
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&(crc32::checksum(payload) ^ 0xFF).to_le_bytes());
            frame.extend_from_slice(payload);
            s.write_all(&frame).unwrap();
        });
        let mut conn = t.dial(&addr.to_string()).unwrap();
        assert!(matches!(conn.recv().unwrap_err(), FrameError::Crc { .. }));
        writer.join().unwrap();
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = TcpTransport::new();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut frame = Vec::new();
            frame.extend_from_slice(&u32::MAX.to_le_bytes());
            frame.extend_from_slice(&0u32.to_le_bytes());
            s.write_all(&frame).unwrap();
        });
        let mut conn = t.dial(&addr.to_string()).unwrap();
        assert!(matches!(conn.recv().unwrap_err(), FrameError::TooLarge(_)));
        writer.join().unwrap();
    }

    #[test]
    fn split_halves_carry_full_duplex_traffic() {
        let t = TcpTransport::new();
        let (a, b) = pair(&t);
        let (mut a_tx, mut a_rx) = a.split();
        let (mut b_tx, mut b_rx) = b.split();
        let fwd = std::thread::spawn(move || {
            for i in 0..50u32 {
                a_tx.send(&i.to_le_bytes()).unwrap();
            }
        });
        let back = std::thread::spawn(move || {
            for i in 0..50u32 {
                b_tx.send(&(i * 2).to_le_bytes()).unwrap();
            }
        });
        for i in 0..50u32 {
            assert_eq!(b_rx.recv().unwrap(), i.to_le_bytes());
            assert_eq!(a_rx.recv().unwrap(), (i * 2).to_le_bytes());
        }
        fwd.join().unwrap();
        back.join().unwrap();
    }

    /// `[len][crc][payload]`, as `write_frame` puts it on the wire.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32::checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Dials a raw listener whose accepted socket `peer` writes to.
    fn raw_peer(
        t: &TcpTransport,
        peer: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (Box<dyn FrameConn>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || peer(listener.accept().unwrap().0));
        (t.dial(&addr.to_string()).unwrap(), writer)
    }

    #[test]
    fn two_frames_in_one_segment_both_come_back() {
        let (mut conn, writer) = raw_peer(&TcpTransport::new(), |mut s| {
            s.write_all(&[framed(b"first"), framed(b"second")].concat()).unwrap();
        });
        assert_eq!(conn.recv().unwrap(), b"first");
        assert_eq!(conn.recv().unwrap(), b"second");
        assert_eq!(conn.recv().unwrap_err(), FrameError::Closed);
        writer.join().unwrap();
    }

    #[test]
    fn a_frame_split_across_reads_comes_back_whole() {
        let (mut conn, writer) = raw_peer(&TcpTransport::new(), |mut s| {
            s.set_nodelay(true).unwrap();
            let frame = framed(b"split across two reads");
            for part in [&frame[..5], &frame[5..12], &frame[12..]] {
                s.write_all(part).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        assert_eq!(conn.recv().unwrap(), b"split across two reads");
        writer.join().unwrap();
    }

    #[test]
    fn frames_larger_than_the_read_ahead_come_back_whole() {
        let big: Vec<u8> = (0..3 * READ_AHEAD).map(|i| i as u8).collect();
        let sent = big.clone();
        let (mut conn, writer) = raw_peer(&TcpTransport::new(), move |mut s| {
            s.write_all(&[framed(b"small"), framed(&sent), framed(b"after")].concat()).unwrap();
        });
        assert_eq!(conn.recv().unwrap(), b"small");
        assert_eq!(conn.recv().unwrap(), big);
        assert_eq!(conn.recv().unwrap(), b"after");
        writer.join().unwrap();
    }

    #[test]
    fn eof_after_a_buffered_partial_header_is_torn() {
        // The partial header arrives in the same read as the frame before
        // it: it is buffered, not at a frame boundary.
        let (mut conn, writer) = raw_peer(&TcpTransport::new(), |mut s| {
            s.write_all(&[framed(b"whole"), vec![1, 2, 3]].concat()).unwrap();
        });
        assert_eq!(conn.recv().unwrap(), b"whole");
        assert_eq!(conn.recv().unwrap_err(), FrameError::Torn { needed: 5, got: 3 });
        writer.join().unwrap();
    }

    #[test]
    fn a_stall_after_a_buffered_partial_frame_is_torn_not_a_timeout() {
        let t = TcpTransport::new().with_read_timeout(Duration::from_millis(20));
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (mut conn, writer) = raw_peer(&t, move |mut s| {
            let next = framed(b"never finished");
            s.write_all(&[framed(b"whole"), next[..11].to_vec()].concat()).unwrap();
            let _ = done_rx.recv(); // holds the socket open: a stall, not EOF
        });
        assert_eq!(conn.recv().unwrap(), b"whole");
        assert_eq!(conn.recv().unwrap_err(), FrameError::Torn { needed: 11, got: 3 });
        done_tx.send(()).unwrap();
        writer.join().unwrap();
    }

    #[test]
    fn split_keeps_the_bytes_read_before_it() {
        let (mut conn, writer) = raw_peer(&TcpTransport::new(), |mut s| {
            s.write_all(&[framed(b"handshake"), framed(b"data")].concat()).unwrap();
        });
        assert_eq!(conn.recv().unwrap(), b"handshake");
        let (_tx, mut rx) = conn.split();
        assert_eq!(rx.recv().unwrap(), b"data");
        writer.join().unwrap();
    }

    #[test]
    fn dial_unreachable_is_an_error_not_a_hang() {
        let t = TcpTransport { connect_timeout: Duration::from_millis(100), ..TcpTransport::new() };
        // A listener bound then dropped: the port is (very likely) closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(t.dial(&addr).is_err());
        assert!(matches!(t.dial("definitely-not-a-host-name:1"), Err(FrameError::Addr(_))));
    }
}
