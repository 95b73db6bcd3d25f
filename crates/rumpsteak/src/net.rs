//! The distributed transport: framed sockets with k-MC-derived send
//! windows.
//!
//! In-process, the paper's statically verified k-MC bounds became ring
//! capacities and batch windows. This module carries the same
//! guarantee across OS processes: a [`NetLink`] is one role-to-role
//! session link over a length-prefixed framed TCP or Unix-domain-socket
//! stream, and its *send window* — the number of messages the sender
//! may buffer ahead of the socket — is exactly the verified bound k for
//! that direction. A producer overrunning the window parks
//! (`Poll::Pending`, recorded as a `window_stall`), so the back-pressure
//! point is derived from the verification rather than tuned; on the
//! receiving side the kernel's socket buffer is the inbound queue, and
//! a slow consumer propagates back through the socket's own flow
//! control to the sender's window. Back-pressure you can prove, end to
//! end.
//!
//! # Architecture
//!
//! The task that owns a link does its socket I/O itself. After the
//! (blocking) handshake the socket is non-blocking and registered once
//! with the executor's `epoll` instance ([`executor::io`]), whose edges
//! are collected by an idle worker or by the parked thread holding the
//! driver baton — no thread of the link's or the executor's own:
//!
//! ```text
//!  poll_send ── encode in place ──▶ [unwritten frames, at most k] ── write ──▶ socket
//!                                        ▲ writable edge: finish the write, wake a parked sender
//!  poll_recv ◀── decode in place ── [contiguous read buffer] ◀── read ── socket
//!                                        ▲ readable edge: wake the parked receiver
//! ```
//!
//! `poll_send` encodes the message behind whatever the socket has not
//! taken yet and writes as much as the socket accepts; the *window* is
//! the number of frames in that buffer not yet fully written, and a
//! send that finds k of them parks. What a send could not write, the
//! next writable edge finishes, whatever the task is
//! awaiting by then — an accepted message always reaches the wire,
//! which a verified protocol depends on (the peer's next message may be
//! the very thing the task awaits). `poll_recv` decodes frames straight
//! out of its read buffer, reads when none is complete, and parks on
//! `WouldBlock` until a readable edge is reported. Neither
//! direction has a thread, a queue of decoded messages or a copy of its
//! own: a [`NetLink`] and an in-process
//! [`Bidirectional`](executor::channel::Bidirectional) differ only in
//! what is behind the [`Transport`](crate::transport::Transport) trait.
//!
//! The socket half of this module ([`NetLink`], [`RemoteMesh`] and the
//! loopback pairs) exists on Linux only, where `epoll` does; framing,
//! addresses and topologies are portable.
//!
//! # Wire format
//!
//! Every frame is a `u32` little-endian header followed by the payload
//! — a [`Wire`]-encoded label enum for data frames, a UTF-8 role name
//! for the handshake. The header's low 31 bits are the payload length;
//! the top bit ([`FLAG_TRACE`]) marks an optional 24-byte
//! [`TraceContext`] (session id, per-edge sequence, sender monotonic
//! timestamp) between header and payload, attached to data frames when
//! the sender runs with telemetry and always attached to handshake
//! frames (the timestamps drive the clock-offset estimate). Zero-length
//! payloads are legal; lengths above [`MAX_FRAME`] are rejected without
//! allocating (a corrupt or hostile peer must not abort the process).
//!
//! # Handshake and clock offset
//!
//! A dialing role opens each link with a three-frame exchange: it sends
//! its role name stamped with its clock `t1`, the accepter replies with
//! an empty frame stamped `t2`, and the dialer — reading the reply at
//! `t4` — estimates the accepter's clock as `t2 - (t1 + t4) / 2` ahead
//! of its own (the NTP midpoint, assuming symmetric path delay) and
//! sends the accepter the mirrored estimate in a final 8-byte frame.
//! Both sides record the offset
//! ([`set_peer_offset`](crate::telemetry::trace::set_peer_offset)) so `rumpsteak-trace --merge` can shift per-process timelines onto
//! one clock, and `poll_recv` uses it to turn each traced frame's
//! sender timestamp into the link's send→recv latency sample.
//!
//! # Topology
//!
//! A [`Topology`] maps role names to addresses (`tcp:host:port` or
//! `uds:/path`). For each pair of connected roles the one listed
//! *later* dials and the one listed *earlier* accepts, so a mesh needs
//! no coordinator; dial retries while the peer is still binding are
//! counted as `reconnects` on the link's telemetry row.

use std::io::{self, Read};
#[cfg(unix)]
use std::path::PathBuf;

pub use crate::wire::TraceContext;
use crate::wire::{from_bytes, Wire};

#[cfg(target_os = "linux")]
pub use link::{loopback_pair_tcp, loopback_pair_uds, NetLink, RemoteMesh};

/// Largest accepted frame payload, in bytes. Frames above this are a
/// protocol violation (or an attack) and close the link; the cap keeps
/// a hostile 4 GiB length prefix from becoming a 4 GiB allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes of frame header (the `u32` length-and-flags word).
pub const FRAME_HEADER: usize = 4;

/// Header bit marking a frame that carries a [`TraceContext`] between
/// header and payload. The remaining 31 bits are the payload length,
/// which [`MAX_FRAME`] keeps far below the flag bit.
pub const FLAG_TRACE: u32 = 1 << 31;

/// One decoded frame: the payload plus the sender's optional trace
/// context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The payload bytes (a [`Wire`]-encoded message for data frames).
    pub payload: Vec<u8>,
    /// The sender's causal context, when the frame carried one.
    pub trace: Option<TraceContext>,
}

/// Framing failure: the byte stream does not parse as frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix above [`MAX_FRAME`].
    Oversized(u64),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds MAX_FRAME = {MAX_FRAME}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(error: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, error)
    }
}

/// Appends one untraced frame (header + payload) to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<(), FrameError> {
    encode_frame_traced(payload, None, out)
}

/// Appends one frame to `out`, embedding `trace` after the header when
/// present (and setting [`FLAG_TRACE`]).
pub fn encode_frame_traced(
    payload: &[u8],
    trace: Option<&TraceContext>,
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    out.extend_from_slice(&frame_header(payload.len(), trace.is_some())?);
    if let Some(ctx) = trace {
        ctx.encode(out);
    }
    out.extend_from_slice(payload);
    Ok(())
}

/// The header word of a frame with `len` payload bytes.
fn frame_header(len: usize, traced: bool) -> Result<[u8; FRAME_HEADER], FrameError> {
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len as u64));
    }
    let flag = if traced { FLAG_TRACE } else { 0 };
    Ok((len as u32 | flag).to_le_bytes())
}

/// Least spare room [`FrameDecoder::read_from`] offers its reader.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame parser: feed it bytes as they arrive off the
/// socket ([`push`](Self::push) a chunk, or let it
/// [`read_from`](Self::read_from) the socket itself), pull complete
/// frames out ([`next_frame`](Self::next_frame), or
/// [`next_with`](Self::next_with) to look at the payload in place).
/// Frames may arrive split across any chunk boundary — mid-header,
/// mid-payload, several per chunk — and reassemble identically.
#[derive(Default)]
pub struct FrameDecoder {
    /// `buf[head..tail]` arrived and was not yet returned; `buf[tail..]`
    /// is (initialised) room for the next arrival.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// Reads once from `reader` straight into the buffer, offering it
    /// at least what the frame in progress still lacks. Returns the
    /// reader's count (0 = end of stream) or its error unchanged, so a
    /// non-blocking socket's `WouldBlock` reaches the caller.
    pub fn read_from(&mut self, reader: &mut impl Read) -> io::Result<usize> {
        // An oversized header offers the plain chunk, never its length:
        // `next_frame` reports it before the caller reads again.
        let lacking = match self.header() {
            Ok(Some((ctx_len, len))) => {
                (FRAME_HEADER + ctx_len + len).saturating_sub(self.buffered())
            }
            _ => 0,
        };
        let read = reader.read(self.room(lacking.max(READ_CHUNK)))?;
        self.tail += read;
        Ok(read)
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes are
    /// needed. A length above [`MAX_FRAME`] is an error (and is detected
    /// from the header alone, before any payload accumulates) — that
    /// check also rejects junk in the reserved flag bits, since only
    /// [`FLAG_TRACE`] is masked off the length.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        self.next_with(|payload, trace| Frame {
            payload: payload.to_vec(),
            trace,
        })
    }

    /// [`next_frame`](Self::next_frame) without the copy: hands the next
    /// complete frame's payload and trace context to `visit` while they
    /// still sit in the buffer, and returns what `visit` made of them.
    pub fn next_with<R>(
        &mut self,
        visit: impl FnOnce(&[u8], Option<TraceContext>) -> R,
    ) -> Result<Option<R>, FrameError> {
        let Some((ctx_len, len)) = self.header()? else {
            return Ok(None);
        };
        let body = self.head + FRAME_HEADER + ctx_len;
        if self.tail < body + len {
            return Ok(None);
        }
        let trace = (ctx_len > 0).then(|| {
            from_bytes::<TraceContext>(&self.buf[body - ctx_len..body])
                .expect("fixed-size context always decodes")
        });
        let visited = visit(&self.buf[body..body + len], trace);
        self.head = body + len;
        Ok(Some(visited))
    }

    /// The header at `head`, as (trace-context bytes, payload bytes);
    /// `None` until all of it arrived.
    fn header(&self) -> Result<Option<(usize, usize)>, FrameError> {
        let Some(word) = self.buf[self.head..self.tail].first_chunk::<FRAME_HEADER>() else {
            return Ok(None);
        };
        let word = u32::from_le_bytes(*word);
        let len = (word & !FLAG_TRACE) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Oversized(len as u64));
        }
        let traced = word & FLAG_TRACE != 0;
        Ok(Some((
            if traced { TraceContext::WIRE_SIZE } else { 0 },
            len,
        )))
    }

    /// At least `len` writable bytes directly after the buffered ones,
    /// moving those to the front of the buffer or growing it as needed.
    fn room(&mut self, len: usize) -> &mut [u8] {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
        if self.buf.len() - self.tail < len {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
            if self.buf.len() - self.tail < len {
                self.buf.resize(self.tail + len, 0);
            }
        }
        &mut self.buf[self.tail..]
    }
}

/// A role's endpoint address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// `tcp:host:port`.
    Tcp(String),
    /// `uds:/path/to/socket` (Unix only).
    #[cfg(unix)]
    Uds(PathBuf),
}

impl std::str::FromStr for Addr {
    type Err = io::Error;

    fn from_str(s: &str) -> io::Result<Self> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            return Ok(Addr::Tcp(rest.to_owned()));
        }
        #[cfg(unix)]
        if let Some(rest) = s.strip_prefix("uds:") {
            return Ok(Addr::Uds(PathBuf::from(rest)));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("address `{s}` must start with tcp: or uds:"),
        ))
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
            #[cfg(unix)]
            Addr::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// The role-to-address map of one distributed protocol instance.
///
/// Text format: one `role address` pair per line, `#` comments and
/// blank lines ignored. Listing order is the tie-break for connection
/// direction (later dials earlier), so every process must load the
/// *same* topology file — which deployment already requires, since it
/// is where the addresses live.
#[derive(Clone, Debug)]
pub struct Topology {
    entries: Vec<(String, Addr)>,
}

impl Topology {
    /// Parses the text format.
    pub fn parse(text: &str) -> io::Result<Self> {
        let mut entries: Vec<(String, Addr)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (role, addr) = line.split_once(char::is_whitespace).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("topology line {}: expected `role address`", lineno + 1),
                )
            })?;
            if entries.iter().any(|(name, _)| name == role) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("topology line {}: duplicate role `{role}`", lineno + 1),
                ));
            }
            entries.push((role.to_owned(), addr.trim().parse()?));
        }
        if entries.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "topology declares no roles",
            ));
        }
        Ok(Self { entries })
    }

    /// Loads and parses a topology file.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// The declared roles, in listing order.
    pub fn roles(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(name, _)| name.as_str())
    }

    /// The listing position of `role`.
    pub fn index_of(&self, role: &str) -> Option<usize> {
        self.entries.iter().position(|(name, _)| name == role)
    }

    /// The address of `role`.
    pub fn addr_of(&self, role: &str) -> Option<&Addr> {
        self.entries
            .iter()
            .find(|(name, _)| name == role)
            .map(|(_, addr)| addr)
    }
}

/// The socket half: needs `epoll`, so Linux only.
#[cfg(target_os = "linux")]
mod link {
    use std::collections::{HashMap, VecDeque};
    use std::io::{self, Read, Write};
    use std::marker::PhantomData;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
    use std::task::{Context, Poll, Waker};
    use std::time::Duration;

    use executor::io::{Registration, Source};

    use super::{
        encode_frame_traced, frame_header, Addr, Frame, FrameDecoder, Topology, TraceContext, Wire,
        FRAME_HEADER,
    };
    use crate::telemetry;
    use crate::transport::{Disconnected, Transport};
    use crate::wire::from_bytes;

    /// A connected stream socket of either family.
    enum Socket {
        Tcp(TcpStream),
        Uds(UnixStream),
    }

    impl Socket {
        fn shutdown(&self, how: Shutdown) -> io::Result<()> {
            match self {
                Socket::Tcp(s) => s.shutdown(how),
                Socket::Uds(s) => s.shutdown(how),
            }
        }

        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            match self {
                Socket::Tcp(s) => s.set_nonblocking(nonblocking),
                Socket::Uds(s) => s.set_nonblocking(nonblocking),
            }
        }
    }

    impl AsRawFd for Socket {
        fn as_raw_fd(&self) -> RawFd {
            match self {
                Socket::Tcp(s) => s.as_raw_fd(),
                Socket::Uds(s) => s.as_raw_fd(),
            }
        }
    }

    // On the shared reference, as for the std sockets: the owning task
    // reads while an edge's collector may be finishing a write.
    impl Read for &Socket {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match *self {
                Socket::Tcp(s) => (&*s).read(buf),
                Socket::Uds(s) => (&*s).read(buf),
            }
        }
    }

    impl Write for &Socket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match *self {
                Socket::Tcp(s) => (&*s).write(buf),
                Socket::Uds(s) => (&*s).write(buf),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn connect(addr: &Addr) -> io::Result<Socket> {
        match addr {
            Addr::Tcp(hostport) => {
                let stream = TcpStream::connect(hostport.as_str())?;
                // Frames are the application's batching unit; Nagle on top
                // of them only adds latency.
                stream.set_nodelay(true)?;
                Ok(Socket::Tcp(stream))
            }
            Addr::Uds(path) => Ok(Socket::Uds(UnixStream::connect(path)?)),
        }
    }

    /// A bound listening socket of either family.
    enum Listener {
        Tcp(TcpListener),
        Uds(UnixListener),
    }

    impl Listener {
        fn bind(addr: &Addr) -> io::Result<Self> {
            match addr {
                Addr::Tcp(hostport) => TcpListener::bind(hostport.as_str()).map(Listener::Tcp),
                Addr::Uds(path) => {
                    // A previous run's socket file would make bind fail
                    // with AddrInUse even though nobody is listening.
                    let _ = std::fs::remove_file(path);
                    UnixListener::bind(path).map(Listener::Uds)
                }
            }
        }

        fn accept(&self) -> io::Result<Socket> {
            match self {
                Listener::Tcp(l) => {
                    let (stream, _) = l.accept()?;
                    stream.set_nodelay(true)?;
                    Ok(Socket::Tcp(stream))
                }
                Listener::Uds(l) => {
                    let (stream, _) = l.accept()?;
                    Ok(Socket::Uds(stream))
                }
            }
        }
    }

    /// Writes one frame synchronously (the handshake, on a socket that
    /// is still blocking).
    fn write_frame(
        mut socket: &Socket,
        payload: &[u8],
        trace: Option<&TraceContext>,
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        scratch.clear();
        encode_frame_traced(payload, trace, scratch)?;
        socket.write_all(scratch)
    }

    /// Reads synchronously until one frame is complete; leftover bytes
    /// stay in `decoder` for the link.
    fn read_frame(mut socket: &Socket, decoder: &mut FrameDecoder) -> io::Result<Frame> {
        loop {
            if let Some(frame) = decoder.next_frame()? {
                return Ok(frame);
            }
            match decoder.read_from(&mut socket) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// A handshake timestamp context: only `t_ns` is meaningful.
    fn clock_ctx() -> TraceContext {
        TraceContext {
            session: 0,
            seq: 0,
            t_ns: telemetry::trace::now_ns(),
        }
    }

    /// Frames `poll_send` accepted and the socket has not fully taken.
    #[derive(Default)]
    struct Out {
        buf: Vec<u8>,
        /// Bytes of `buf` already written.
        written: usize,
        /// Where in `buf` each not yet fully written frame ends, oldest
        /// first. Its length is the window's occupancy.
        frame_ends: VecDeque<usize>,
        /// The sender parked on a full window.
        waker: Option<Waker>,
        /// The socket failed a write: the peer is gone, and so is
        /// whatever was buffered.
        broken: bool,
    }

    impl Out {
        /// Writes what the socket takes without blocking, and retires
        /// the frames that completes.
        fn flush(&mut self, mut socket: &Socket) {
            while self.written < self.buf.len() {
                match socket.write(&self.buf[self.written..]) {
                    Ok(n) if n > 0 => self.written += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // Nothing taken, EPIPE, ECONNRESET, ...: the sender
                    // gets `Disconnected`, the buffered frames nowhere.
                    _ => {
                        *self = Out {
                            waker: self.waker.take(),
                            broken: true,
                            ..Out::default()
                        }
                    }
                }
            }
            while self
                .frame_ends
                .front()
                .is_some_and(|&end| end <= self.written)
            {
                self.frame_ends.pop_front();
            }
            // Reclaim the written prefix: for free once everything is
            // out, by moving the (smaller) rest once it outweighs it.
            let rest = self.buf.len() - self.written;
            if self.written > 0 && rest <= self.written {
                self.buf.copy_within(self.written.., 0);
                self.buf.truncate(rest);
                for end in &mut self.frame_ends {
                    *end -= self.written;
                }
                self.written = 0;
            }
        }
    }

    /// The part of a link its owning task shares with whichever thread
    /// collects its edges.
    struct Shared {
        socket: Socket,
        out: Mutex<Out>,
        /// The receiver parked on an empty socket.
        recv_waker: Mutex<Option<Waker>>,
    }

    impl Shared {
        /// The slot only ever changes by one assignment, so a panic
        /// elsewhere cannot leave it half-updated: poison is ignored.
        fn recv_waker(&self) -> MutexGuard<'_, Option<Waker>> {
            self.recv_waker
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl Source for Shared {
        fn ready(&self, readable: bool, writable: bool) {
            if writable {
                // The edge's half of `poll_send`'s promise: what was
                // accepted goes out even if the task never polls this
                // link again. (A poisoned lock is a sender that panicked
                // mid-frame; its link dies with it.)
                let waker = self.out.lock().ok().and_then(|mut out| {
                    out.flush(&self.socket);
                    out.waker.take()
                });
                if let Some(waker) = waker {
                    waker.wake();
                }
            }
            if readable {
                if let Some(waker) = self.recv_waker().take() {
                    waker.wake();
                }
            }
        }
    }

    /// One directed pair of session queues over a framed socket; the
    /// distributed implementation of [`Transport`].
    ///
    /// The outgoing direction buffers at most the verified k-MC bound of
    /// frames ahead of the socket (its *send window*): `poll_send` parks
    /// — recording a `window_stall` — when k accepted frames are not yet
    /// fully written. Unbounded directions (no registered bound) buffer
    /// without limit instead. The incoming direction is queued by the
    /// kernel; the link reads it a buffer at a time and decodes in place.
    pub struct NetLink<M> {
        shared: Arc<Shared>,
        /// Ends with the link; the socket (in `shared`) outlives it.
        _registration: Registration,
        decoder: FrameDecoder,
        /// The incoming direction is over: end of stream, a socket
        /// error, or bytes that do not parse.
        ended: bool,
        /// The send window, `None` when the direction runs unbounded.
        window: Option<usize>,
        /// True while the current message has already recorded its stall,
        /// so one saturated send counts one `window_stall` however often it
        /// is polled.
        stalled: bool,
        from: &'static str,
        to: &'static str,
        /// Trace context of the next outgoing frame: this link's id and
        /// the frame's index on the edge.
        session: u64,
        seq: u64,
        /// Handshake-estimated `peer_clock - my_clock`, in nanoseconds.
        peer_offset: i64,
        /// The telemetry rows of the two directions: frames, bytes,
        /// stalls and window occupancy against the k-MC bound on the
        /// outgoing one; frames, bytes and latency on the incoming one.
        stats: telemetry::channel::LinkStats,
        in_stats: telemetry::channel::LinkStats,
        _message: PhantomData<M>,
    }

    /// Construction parameters for one [`NetLink`].
    struct LinkSetup {
        from: &'static str,
        to: &'static str,
        /// Verified bound of the outgoing direction (the send window).
        send_bound: Option<usize>,
        /// Handshake-estimated peer clock offset, `peer_clock - my_clock`
        /// in nanoseconds (0 for loopback pairs sharing one clock).
        peer_offset: i64,
    }

    /// Process-wide id source for [`TraceContext::session`]: each link gets
    /// a fresh id so merged timelines can tell apart reconnects of the same
    /// edge.
    static LINK_SESSION_ID: AtomicU64 = AtomicU64::new(1);

    impl<M: Wire + std::marker::Send + 'static> NetLink<M> {
        /// Wraps a connected socket, which turns non-blocking here.
        /// `residue` carries any bytes read past the handshake frame — a
        /// dialing peer may have data frames on the wire right behind it.
        fn start(socket: Socket, setup: LinkSetup, residue: FrameDecoder) -> io::Result<Self> {
            let LinkSetup {
                from,
                to,
                send_bound,
                peer_offset,
            } = setup;
            // Under the labels the in-process rings use, so one
            // watermark-vs-bound check covers both paths.
            let stats = telemetry::channel::register(from, to);
            let in_stats = telemetry::channel::register(to, from);
            if let Some(k) = send_bound {
                telemetry::channel::set_window(from, to, k as u64);
            }

            socket.set_nonblocking(true)?;
            let fd = socket.as_raw_fd();
            let shared = Arc::new(Shared {
                socket,
                out: Mutex::default(),
                recv_waker: Mutex::default(),
            });
            Ok(Self {
                _registration: Registration::new(fd, shared.clone())?,
                shared,
                decoder: residue,
                ended: false,
                window: send_bound.map(|k| k.max(1)),
                stalled: false,
                from,
                to,
                session: LINK_SESSION_ID.fetch_add(1, Ordering::Relaxed),
                seq: 0,
                peer_offset,
                stats,
                in_stats,
                _message: PhantomData,
            })
        }

        /// Awaits delivery of `message` into the link (parking while the
        /// send window is full).
        pub async fn send(&mut self, message: M) -> Result<(), Disconnected> {
            let mut message = Some(message);
            std::future::poll_fn(|cx| Transport::poll_send(self, cx, &mut message)).await
        }

        /// Awaits the next message, `None` once the peer is gone and the
        /// link drained.
        pub async fn recv(&mut self) -> Option<M> {
            std::future::poll_fn(|cx| Transport::poll_recv(self, cx)).await
        }

        /// The send window (verified k-MC bound of the outgoing direction),
        /// `None` when the direction runs unbounded.
        pub fn send_window(&self) -> Option<usize> {
            self.window
        }
    }

    impl<M: Wire + std::marker::Send + 'static> Transport for NetLink<M> {
        type Message = M;

        fn poll_send(
            &mut self,
            cx: &mut Context<'_>,
            message: &mut Option<M>,
        ) -> Poll<Result<(), Disconnected>> {
            let socket = &self.shared.socket;
            // First whatever the socket takes of the backlog by now; a
            // write error found here (or on an edge) ends the link.
            let flushed = self.shared.out.lock().ok().map(|mut out| {
                out.flush(socket);
                out
            });
            let Some(mut out) = flushed.filter(|out| !out.broken) else {
                self.stalled = false;
                message.take().expect("poll_send polled after completion");
                return Poll::Ready(Err(Disconnected));
            };
            if self.window.is_some_and(|k| out.frame_ends.len() >= k) {
                // The next writable edge's flush (under this same lock) frees
                // a slot and finds the waker.
                out.waker = Some(cx.waker().clone());
                // One stall per message, however many polls it pends.
                if !self.stalled {
                    self.stalled = true;
                    self.stats.record_window_stall();
                }
                return Poll::Pending;
            }
            self.stalled = false;
            let message = message.take().expect("poll_send polled after completion");

            let trace = telemetry::ENABLED.then(|| {
                telemetry::trace::event_seq(
                    telemetry::trace::Kind::FrameSend,
                    self.from,
                    self.to,
                    "frame",
                    self.seq,
                );
                TraceContext {
                    session: self.session,
                    seq: self.seq,
                    t_ns: telemetry::trace::now_ns(),
                }
            });
            self.seq += 1;
            // The frame is encoded where it will be written from: header
            // placeholder, context, payload, then the length it came to.
            let start = out.buf.len();
            out.buf.extend_from_slice(&[0; FRAME_HEADER]);
            if let Some(ctx) = &trace {
                ctx.encode(&mut out.buf);
            }
            let body = out.buf.len();
            message.encode(&mut out.buf);
            match frame_header(out.buf.len() - body, trace.is_some()) {
                Ok(header) => out.buf[start..start + FRAME_HEADER].copy_from_slice(&header),
                // Nothing the peer would accept: the link closes, as on
                // any other failed write.
                Err(_) => {
                    out.buf.truncate(start);
                    out.broken = true;
                    return Poll::Ready(Err(Disconnected));
                }
            }
            let end = out.buf.len();
            out.frame_ends.push_back(end);
            self.stats.record_depth(out.frame_ends.len() as u64);
            self.stats.record_frame_sent((end - start) as u64);
            out.flush(socket);
            Poll::Ready(Ok(()))
        }

        /// Pops a message that is already in the read buffer; never
        /// touches the socket.
        fn try_recv(&mut self) -> Option<M> {
            if self.ended {
                return None;
            }
            let decoded = self.decoder.next_with(|payload, trace| {
                let wire_bytes =
                    payload.len() + FRAME_HEADER + trace.map_or(0, |_| TraceContext::WIRE_SIZE);
                self.in_stats.record_frame_received(wire_bytes as u64);
                if let (true, Some(ctx)) = (telemetry::ENABLED, trace) {
                    // The frame travels the `to → from` edge (the peer
                    // is the sender), which is the key the sender's
                    // frame_send event used.
                    telemetry::trace::event_seq(
                        telemetry::trace::Kind::FrameRecv,
                        self.to,
                        self.from,
                        "frame",
                        ctx.seq,
                    );
                    // Shift the sender's encode timestamp into this
                    // process's clock; skew the estimate did not cover
                    // clamps to 0 rather than recording garbage.
                    let sent_here = ctx.t_ns as i128 - self.peer_offset as i128;
                    let latency = telemetry::trace::now_ns() as i128 - sent_here;
                    self.in_stats.record_latency(latency.max(0) as u64);
                }
                from_bytes::<M>(payload)
            });
            match decoded {
                Ok(Some(Ok(message))) => Some(message),
                Ok(None) => None,
                // An oversized header or a payload that is no `M`: a
                // hostile or corrupt peer. Drop the link, never panic.
                Ok(Some(Err(_))) | Err(_) => {
                    self.ended = true;
                    None
                }
            }
        }

        fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<M>> {
            let mut parked = false;
            loop {
                if let Some(message) = self.try_recv() {
                    return Poll::Ready(Some(message));
                }
                if self.ended {
                    return Poll::Ready(None);
                }
                match self.decoder.read_from(&mut &self.shared.socket) {
                    Ok(0) => self.ended = true,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if parked {
                            return Poll::Pending;
                        }
                        // Edges are reported once: one that fired between
                        // that read and this store found no waker, so the
                        // read is retried after it.
                        *self.shared.recv_waker() = Some(cx.waker().clone());
                        parked = true;
                    }
                    Err(_) => self.ended = true,
                }
            }
        }
    }

    impl<M> Drop for NetLink<M> {
        fn drop(&mut self) {
            // Flush-then-close: everything `poll_send` accepted is on
            // the wire before the peer sees EOF, at a frame boundary —
            // which may block, since the process may exit right after.
            // Taking the buffer leaves an edge callback that is still
            // in flight nothing to write.
            let mut socket = &self.shared.socket;
            let (buf, written) = match self.shared.out.lock() {
                Ok(mut out) => {
                    out.frame_ends.clear();
                    (
                        std::mem::take(&mut out.buf),
                        std::mem::take(&mut out.written),
                    )
                }
                Err(_) => (Vec::new(), 0),
            };
            if written < buf.len() && socket.set_nonblocking(false).is_ok() {
                let _ = socket.write_all(&buf[written..]);
            }
            let _ = socket.shutdown(Shutdown::Write);
        }
    }

    /// The connection broker of one distributed process: binds the local
    /// role's listener, dials or accepts each peer (routing inbound
    /// connections by their handshake frame), and shapes every link with
    /// the registered k-MC bounds.
    pub struct RemoteMesh<M> {
        topology: Topology,
        me: &'static str,
        listener: Option<Listener>,
        /// Inbound sockets that completed their handshake for a peer whose
        /// `link()` call has not happened yet, with any bytes read past the
        /// handshake and the estimated peer clock offset.
        accepted: HashMap<String, (Socket, FrameDecoder, i64)>,
        /// Verified k-MC bound per directed channel.
        bounds: HashMap<(&'static str, &'static str), usize>,
        /// How long `link()` keeps re-dialing a peer that is not yet
        /// listening.
        dial_timeout: Duration,
        _marker: PhantomData<M>,
    }

    impl<M: Wire + std::marker::Send + 'static> RemoteMesh<M> {
        /// Prepares the mesh for role `me`: binds `me`'s listener address
        /// from the topology (peers listed later will dial it).
        pub fn bind(topology: Topology, me: &'static str) -> io::Result<Self> {
            let addr = topology.addr_of(me).cloned().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("role `{me}` is not in the topology"),
                )
            })?;
            let listener = Listener::bind(&addr)?;
            Ok(Self {
                topology,
                me,
                listener: Some(listener),
                accepted: HashMap::new(),
                bounds: HashMap::new(),
                dial_timeout: Duration::from_secs(20),
                _marker: PhantomData,
            })
        }

        /// Registers the statically verified k-MC bound for the directed
        /// channel `from → to`; links created by later
        /// [`link`](Self::link) calls use it as their send window (or
        /// inbound cap). Repeated registration keeps the larger bound.
        /// Generated `remote_mesh()` constructors call this once per
        /// direction with the bounds the checker emitted.
        pub fn set_bound(&mut self, from: &'static str, to: &'static str, k: usize) {
            if k == 0 {
                return;
            }
            let bound = self.bounds.entry((from, to)).or_insert(k);
            *bound = (*bound).max(k);
            telemetry::channel::set_bound(from, to, k as u64);
        }

        /// How long [`link`](Self::link) keeps re-dialing a peer that is
        /// not yet listening (default 20s).
        pub fn set_dial_timeout(&mut self, timeout: Duration) {
            self.dial_timeout = timeout;
        }

        /// Establishes the session link with `peer`: dials if `peer` is
        /// listed before `me` in the topology (retrying while it binds),
        /// accepts otherwise. Either way the link's send window is the
        /// bound registered for its outgoing direction.
        pub fn link(&mut self, peer: &'static str) -> io::Result<NetLink<M>> {
            let me = self.me;
            let my_index = self
                .topology
                .index_of(me)
                .expect("bind() checked the local role");
            let peer_index = self.topology.index_of(peer).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("role `{peer}` is not in the topology"),
                )
            })?;
            let (socket, residue, peer_offset) = if peer_index < my_index {
                self.dial(peer)?
            } else {
                self.accept_from(peer)?
            };
            if telemetry::ENABLED {
                telemetry::trace::set_peer_offset(peer, peer_offset);
            }
            let setup = LinkSetup {
                from: me,
                to: peer,
                send_bound: self.bounds.get(&(me, peer)).copied(),
                peer_offset,
            };
            NetLink::start(socket, setup, residue)
        }

        /// Dials `peer`, retrying while its listener is not up yet; runs
        /// the three-frame handshake (role name out, timestamped reply
        /// back, mirrored offset estimate out) and returns the socket, any
        /// bytes read past the reply, and the estimated peer clock offset.
        fn dial(&self, peer: &'static str) -> io::Result<(Socket, FrameDecoder, i64)> {
            let addr = self
                .topology
                .addr_of(peer)
                .expect("link() checked the peer role");
            let stats = telemetry::channel::attach(self.me, peer);
            let deadline = std::time::Instant::now() + self.dial_timeout;
            let socket = loop {
                match connect(addr) {
                    Ok(socket) => break socket,
                    Err(error) => {
                        if std::time::Instant::now() >= deadline {
                            return Err(io::Error::new(
                                error.kind(),
                                format!("dialing {peer} at {addr}: {error}"),
                            ));
                        }
                        // The peer exists but has not bound yet — normal
                        // during a staggered two-process start.
                        stats.record_reconnect();
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
            };
            let mut scratch = Vec::new();
            let hello = clock_ctx();
            write_frame(&socket, self.me.as_bytes(), Some(&hello), &mut scratch)?;
            let mut decoder = FrameDecoder::new();
            let reply = read_frame(&socket, &mut decoder)?;
            let t4 = telemetry::trace::now_ns();
            let t2 = reply
                .trace
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "handshake reply carries no timestamp",
                    )
                })?
                .t_ns;
            // NTP midpoint: assuming a symmetric path, the accepter stamped
            // t2 when our clock read (t1 + t4) / 2.
            let midpoint = (hello.t_ns as i128 + t4 as i128) / 2;
            let peer_offset = (t2 as i128 - midpoint) as i64;
            // Hand the accepter its own view (our clock minus its clock).
            write_frame(&socket, &(-peer_offset).to_le_bytes(), None, &mut scratch)?;
            Ok((socket, decoder, peer_offset))
        }

        /// Accepts connections until `peer`'s handshake arrives, stashing
        /// handshaked sockets for other peers along the way. Completes the
        /// accept side of the clock handshake on every connection: reply
        /// with the local clock, then read back the dialer's offset
        /// estimate.
        fn accept_from(&mut self, peer: &str) -> io::Result<(Socket, FrameDecoder, i64)> {
            if let Some(ready) = self.accepted.remove(peer) {
                return Ok(ready);
            }
            let listener = self.listener.as_ref().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, "listener already closed")
            })?;
            loop {
                let socket = listener.accept()?;
                let mut decoder = FrameDecoder::new();
                let handshake = read_frame(&socket, &mut decoder)?;
                let name = String::from_utf8(handshake.payload).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "handshake is not a role name")
                })?;
                let mut scratch = Vec::new();
                write_frame(&socket, b"", Some(&clock_ctx()), &mut scratch)?;
                let offset_frame = read_frame(&socket, &mut decoder)?;
                let bytes: [u8; 8] = offset_frame.payload.as_slice().try_into().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "offset frame is not 8 bytes")
                })?;
                let peer_offset = i64::from_le_bytes(bytes);
                if name == peer {
                    return Ok((socket, decoder, peer_offset));
                }
                self.accepted.insert(name, (socket, decoder, peer_offset));
            }
        }
    }

    /// Builds a connected TCP loopback pair of links for the directed
    /// channels `a → b` (window `bound_ab`) and `b → a` (window
    /// `bound_ba`), registering both windows and bounds with the telemetry
    /// layer. In-process benches and tests use this to exercise the real
    /// socket path without a second process.
    pub fn loopback_pair_tcp<M: Wire + std::marker::Send + 'static>(
        a: &'static str,
        b: &'static str,
        bound_ab: Option<usize>,
        bound_ba: Option<usize>,
    ) -> io::Result<(NetLink<M>, NetLink<M>)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let dialed = TcpStream::connect(addr)?;
        dialed.set_nodelay(true)?;
        let (accepted, _) = listener.accept()?;
        accepted.set_nodelay(true)?;
        loopback_pair(
            Socket::Tcp(dialed),
            Socket::Tcp(accepted),
            a,
            b,
            bound_ab,
            bound_ba,
        )
    }

    /// [`loopback_pair_tcp`] over an unnamed Unix-domain socket pair.
    pub fn loopback_pair_uds<M: Wire + std::marker::Send + 'static>(
        a: &'static str,
        b: &'static str,
        bound_ab: Option<usize>,
        bound_ba: Option<usize>,
    ) -> io::Result<(NetLink<M>, NetLink<M>)> {
        let (dialed, accepted) = UnixStream::pair()?;
        loopback_pair(
            Socket::Uds(dialed),
            Socket::Uds(accepted),
            a,
            b,
            bound_ab,
            bound_ba,
        )
    }

    fn loopback_pair<M: Wire + std::marker::Send + 'static>(
        side_a: Socket,
        side_b: Socket,
        a: &'static str,
        b: &'static str,
        bound_ab: Option<usize>,
        bound_ba: Option<usize>,
    ) -> io::Result<(NetLink<M>, NetLink<M>)> {
        if let Some(k) = bound_ab {
            telemetry::channel::set_bound(a, b, k as u64);
        }
        if let Some(k) = bound_ba {
            telemetry::channel::set_bound(b, a, k as u64);
        }
        let link_a = NetLink::start(
            side_a,
            LinkSetup {
                from: a,
                to: b,
                send_bound: bound_ab,
                peer_offset: 0,
            },
            FrameDecoder::new(),
        )?;
        let link_b = NetLink::start(
            side_b,
            LinkSetup {
                from: b,
                to: a,
                send_bound: bound_ba,
                peer_offset: 0,
            },
            FrameDecoder::new(),
        )?;
        Ok((link_a, link_b))
    }

    /// A link against a peer the test drives by hand: raw bytes on a
    /// plain `TcpStream`. Every test runs under [`within`], so a link
    /// that hangs fails instead of stalling the suite.
    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::net::{encode_frame, MAX_FRAME};
        use crate::wire::to_bytes;
        use std::sync::mpsc;

        fn link_to_raw_peer<M: Wire + std::marker::Send + 'static>(
            from: &'static str,
            window: Option<usize>,
        ) -> (NetLink<M>, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            peer.set_nodelay(true).unwrap();
            let (socket, _) = listener.accept().unwrap();
            let setup = LinkSetup {
                from,
                to: "RawPeer",
                send_bound: window,
                peer_offset: 0,
            };
            let link = NetLink::start(Socket::Tcp(socket), setup, FrameDecoder::new()).unwrap();
            (link, peer)
        }

        /// Runs `test` on its own thread and fails if it takes longer
        /// than a generous limit.
        fn within<T: std::marker::Send + 'static>(
            test: impl FnOnce() -> T + std::marker::Send + 'static,
        ) -> T {
            let (done, result) = mpsc::channel();
            std::thread::spawn(move || done.send(test()));
            result
                .recv_timeout(Duration::from_secs(30))
                .expect("the link hung (or its test panicked)")
        }

        #[test]
        fn frames_dribbled_a_byte_at_a_time_all_arrive_in_order() {
            within(|| {
                let (mut link, mut peer) = link_to_raw_peer::<u64>("DribbleRx", None);
                let mut stream = Vec::new();
                for value in 0..20u64 {
                    encode_frame(&to_bytes(&(value * 0x0101_0101_0101)), &mut stream).unwrap();
                }
                let writer = std::thread::spawn(move || {
                    for byte in stream {
                        peer.write_all(&[byte]).unwrap();
                    }
                    peer
                });
                for value in 0..20u64 {
                    assert_eq!(
                        executor::block_on(link.recv()),
                        Some(value * 0x0101_0101_0101)
                    );
                }
                drop(writer.join().unwrap());
                assert_eq!(executor::block_on(link.recv()), None);
            });
        }

        #[test]
        fn half_a_frame_then_close_ends_the_link() {
            within(|| {
                let (mut link, mut peer) = link_to_raw_peer::<u64>("HalfRx", None);
                let mut stream = Vec::new();
                encode_frame(&to_bytes(&7u64), &mut stream).unwrap();
                encode_frame(&to_bytes(&8u64), &mut stream).unwrap();
                peer.write_all(&stream[..stream.len() - 3]).unwrap();
                drop(peer);
                assert_eq!(executor::block_on(link.recv()), Some(7));
                assert_eq!(executor::block_on(link.recv()), None);
                assert_eq!(executor::block_on(link.recv()), None);
            });
        }

        #[test]
        fn oversized_header_ends_the_link_without_allocating_for_it() {
            within(|| {
                let (mut link, mut peer) = link_to_raw_peer::<u64>("HugeRx", None);
                let mut stream = Vec::new();
                encode_frame(&to_bytes(&7u64), &mut stream).unwrap();
                stream.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
                stream.extend_from_slice(&[0xEE; 64]);
                peer.write_all(&stream).unwrap();
                assert_eq!(executor::block_on(link.recv()), Some(7));
                // The peer stays connected: it is the header, not an end
                // of stream, that closes the incoming direction.
                assert_eq!(executor::block_on(link.recv()), None);
                assert!(link.decoder.buf.len() < MAX_FRAME / 64);
                // A payload that is no `u64` does the same.
                let (mut link, mut peer) = link_to_raw_peer::<u64>("JunkRx", None);
                stream.clear();
                encode_frame(b"not eight bytes", &mut stream).unwrap();
                peer.write_all(&stream).unwrap();
                assert_eq!(executor::block_on(link.recv()), None);
            });
        }

        #[test]
        fn peer_dropped_under_a_parked_sender_disconnects_it() {
            within(|| {
                let (mut link, peer) = link_to_raw_peer::<Vec<u8>>("ParkedTx", Some(1));
                // Far more than the kernel buffers of a peer that never
                // reads will take.
                let big = || vec![0x5A; MAX_FRAME / 2];
                let mut peer = Some(peer);
                let mut polls = 0;
                let outcome = executor::block_on(async {
                    link.send(big()).await.expect("the window was empty");
                    let mut second = Some(big());
                    std::future::poll_fn(|cx| {
                        polls += 1;
                        let poll = Transport::poll_send(&mut link, cx, &mut second);
                        if poll.is_pending() {
                            // Parked on the full window: now the peer
                            // goes, with the first frame half read.
                            drop(peer.take());
                        }
                        poll
                    })
                    .await
                });
                assert_eq!(outcome, Err(Disconnected));
                assert!(polls >= 2, "the second send never parked");
                assert_eq!(executor::block_on(link.send(big())), Err(Disconnected));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_encode_and_decode() {
        let mut out = Vec::new();
        encode_frame(b"abc", &mut out).unwrap();
        encode_frame(b"", &mut out).unwrap();
        encode_frame(b"d", &mut out).unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.push(&out);
        let payload = |frame: Option<Frame>| frame.map(|f| f.payload);
        assert_eq!(
            payload(decoder.next_frame().unwrap()).as_deref(),
            Some(&b"abc"[..])
        );
        assert_eq!(
            payload(decoder.next_frame().unwrap()).as_deref(),
            Some(&b""[..])
        );
        assert_eq!(
            payload(decoder.next_frame().unwrap()).as_deref(),
            Some(&b"d"[..])
        );
        assert_eq!(decoder.next_frame().unwrap(), None);
    }

    #[test]
    fn traced_frames_round_trip_at_any_chunk_boundary() {
        // A traced frame between untraced ones, reassembled for every
        // chunk size — splits land mid-header, mid-context and
        // mid-payload.
        let ctx = TraceContext {
            session: 7,
            seq: 99,
            t_ns: 123_456_789,
        };
        let mut wire = Vec::new();
        encode_frame(b"before", &mut wire).unwrap();
        encode_frame_traced(b"traced payload", Some(&ctx), &mut wire).unwrap();
        encode_frame_traced(b"", Some(&ctx), &mut wire).unwrap();
        encode_frame(b"after", &mut wire).unwrap();
        for chunk in 1..wire.len() {
            let mut decoder = FrameDecoder::new();
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                decoder.push(piece);
                while let Some(frame) = decoder.next_frame().unwrap() {
                    frames.push(frame);
                }
            }
            assert_eq!(frames.len(), 4, "chunk size {chunk}");
            assert_eq!(frames[0].payload, b"before");
            assert_eq!(frames[0].trace, None);
            assert_eq!(frames[1].payload, b"traced payload");
            assert_eq!(frames[1].trace, Some(ctx));
            assert_eq!(frames[2].payload, b"");
            assert_eq!(frames[2].trace, Some(ctx));
            assert_eq!(frames[3].payload, b"after");
            assert_eq!(frames[3].trace, None);
        }
    }

    #[test]
    fn junk_flag_bits_are_rejected_as_oversized() {
        // Bits 24..31 set without FLAG_TRACE make the masked length
        // exceed MAX_FRAME — the decoder must error, not allocate.
        let mut decoder = FrameDecoder::new();
        decoder.push(&(0x7F00_0000u32).to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn frames_reassemble_across_any_split() {
        let mut wire = Vec::new();
        encode_frame(b"hello", &mut wire).unwrap();
        encode_frame(&[0xAA; 300], &mut wire).unwrap();
        encode_frame(b"", &mut wire).unwrap();
        // Feed the byte stream one chunk at a time for every chunk size,
        // including splits inside headers and payloads.
        for chunk in 1..wire.len() {
            let mut decoder = FrameDecoder::new();
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                decoder.push(piece);
                while let Some(frame) = decoder.next_frame().unwrap() {
                    frames.push(frame.payload);
                }
            }
            assert_eq!(frames.len(), 3, "chunk size {chunk}");
            assert_eq!(frames[0], b"hello");
            assert_eq!(frames[1], vec![0xAA; 300]);
            assert_eq!(frames[2], b"");
        }
    }

    #[test]
    fn oversized_length_prefix_is_an_error_not_a_panic() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::Oversized(_))
        ));
        // Detected from the header alone: no payload bytes were needed.
        let mut worst = FrameDecoder::new();
        worst.push(&u32::MAX.to_le_bytes());
        assert!(matches!(worst.next_frame(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn oversized_outgoing_payload_is_rejected() {
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        assert!(matches!(
            encode_frame(&huge, &mut out),
            Err(FrameError::Oversized(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn addr_parses_and_displays() {
        let tcp: Addr = "tcp:127.0.0.1:9000".parse().unwrap();
        assert_eq!(tcp, Addr::Tcp("127.0.0.1:9000".to_owned()));
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:9000");
        #[cfg(unix)]
        {
            let uds: Addr = "uds:/tmp/role.sock".parse().unwrap();
            assert_eq!(uds, Addr::Uds(PathBuf::from("/tmp/role.sock")));
            assert_eq!(uds.to_string(), "uds:/tmp/role.sock");
        }
        assert!("127.0.0.1:9000".parse::<Addr>().is_err());
    }

    #[test]
    fn topology_parses_comments_and_rejects_duplicates() {
        let topology = Topology::parse(
            "# streaming over loopback\n\
             S tcp:127.0.0.1:9000\n\
             \n\
             T tcp:127.0.0.1:9001  # the sink\n",
        )
        .unwrap();
        assert_eq!(topology.roles().collect::<Vec<_>>(), vec!["S", "T"]);
        assert_eq!(topology.index_of("T"), Some(1));
        assert_eq!(
            topology.addr_of("S"),
            Some(&Addr::Tcp("127.0.0.1:9000".to_owned()))
        );
        assert!(Topology::parse("S tcp:a\nS tcp:b\n").is_err());
        assert!(Topology::parse("S\n").is_err());
        assert!(Topology::parse("").is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn loopback_tcp_round_trips_messages() {
        let (mut a, mut b) = loopback_pair_tcp::<u32>("LoopA", "LoopB", Some(4), Some(4)).unwrap();
        executor::block_on(async {
            for i in 0..32u32 {
                a.send(i).await.unwrap();
            }
            for i in 0..32u32 {
                assert_eq!(b.recv().await, Some(i));
            }
            b.send(99).await.unwrap();
            assert_eq!(a.recv().await, Some(99));
        });
        assert_eq!(a.send_window(), Some(4));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn loopback_uds_round_trips_messages() {
        let (mut a, mut b) =
            loopback_pair_uds::<u32>("LoopUdsA", "LoopUdsB", Some(2), None).unwrap();
        executor::block_on(async {
            for i in 0..16u32 {
                a.send(i).await.unwrap();
                assert_eq!(b.recv().await, Some(i));
            }
        });
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropped_peer_closes_the_link() {
        let (mut a, b) = loopback_pair_tcp::<u32>("DropA", "DropB", None, None).unwrap();
        drop(b);
        executor::block_on(async {
            assert_eq!(a.recv().await, None);
        });
    }
}
