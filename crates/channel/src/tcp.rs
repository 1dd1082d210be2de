//! TCP socket transport: a per-side endpoint over `std::net::TcpStream`.
//!
//! The paper's channel is a *physical* link (PCI between host and iPROVE);
//! every other backend in this crate is in-process, so the cost model has
//! never been exercised over a real wire. [`TcpEndpoint`] closes that gap: it
//! carries [`Packet`]s over a real TCP stream with a length-prefixed frame
//! encoding, so a session's two domains can live in different processes or on
//! different hosts (remote accelerator farms). TCP guarantees ordered,
//! lossless delivery of *bytes*; the frame codec restores packet boundaries,
//! and anything the link itself cannot guarantee (process crashes, half-open
//! connections) surfaces as a typed [`FrameError`] or as starvation the
//! session layer detects — compose with
//! [`ReliableTransport`](crate::ReliableTransport) when the link must also
//! absorb injected faults.
//!
//! ## Wire format
//!
//! Each packet becomes one frame:
//!
//! ```text
//! [u32 LE: n = wire words] [n × u32 LE: tag word, payload words...]
//! ```
//!
//! `n` counts the tag word plus the payload, exactly [`Packet::wire_words`] —
//! so the bytes on the wire mirror what the
//! [`ChannelCostModel`](crate::ChannelCostModel) bills. A length prefix of zero, a prefix above
//! [`MAX_FRAME_WORDS`], an unknown tag word, or a stream that ends mid-frame
//! are all rejected as typed errors, never panics.
//!
//! ## Endpoints
//!
//! [`TcpEndpoint`] is the crate's framed endpoint over a non-blocking
//! socket — the same endpoint a [`ShmEndpoint`](crate::ShmEndpoint) is over
//! a shared-memory ring. It implements [`Transport`](crate::Transport) and
//! [`WaitTransport`](crate::WaitTransport) for *its own side*, exactly like
//! [`ThreadedEndpoint`](crate::ThreadedEndpoint), so it slots into the same
//! per-side [`CostedChannel`](crate::CostedChannel) + session runner
//! machinery. A drain reads until a read comes back short of the room it was
//! offered, and a `recv` right after the endpoint's own write does not read
//! at all (the reply cannot be there yet; the next call reads), so a
//! ping-pong pays about one `read` per write. Obtain endpoints three ways:
//!
//! * [`TcpTransport::loopback_pair`] — an ephemeral localhost pair for
//!   in-process sessions and tests (no fixed port, so parallel test runs
//!   cannot collide);
//! * [`TcpEndpoint::listen`] — bind an address and accept one peer
//!   (conventionally the accelerator farm side);
//! * [`TcpEndpoint::connect`] — dial a listening peer (conventionally the
//!   simulator side).
//!
//! Dropping an endpoint shuts the socket down in both directions, so a peer
//! blocked in [`wait_for_packet`](crate::WaitTransport::wait_for_packet)
//! wakes up promptly instead of deadlocking on teardown.

use crate::cost::Side;
use crate::framed::{FramedEndpoint, Got, Medium};
use crate::message::{Packet, PacketTag};
use crate::pool::BufferPool;
use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on the length prefix of one frame, in wire words (4 MiB of
/// payload). The protocol's largest messages are LOB bursts of a few hundred
/// words; a prefix beyond this bound is a corrupted or hostile stream, not a
/// packet, and is rejected before any allocation is attempted.
pub const MAX_FRAME_WORDS: u32 = 1 << 20;

/// How long one frame write may block before the endpoint gives the stream
/// up as dead. Loopback and healthy remote links drain small frames in
/// microseconds; only a peer that holds the connection open without reading
/// (filling the kernel send buffer) ever reaches this.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a TCP frame could not be decoded (or a stream operation failed).
///
/// Every malformed input — short read, oversized or zero length prefix,
/// unknown tag word — maps to a variant here; the codec never panics on wire
/// data.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The stream ended (or was cut) in the middle of a frame.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_WORDS`].
    Oversized {
        /// The rejected word count.
        words: u32,
    },
    /// The length prefix was zero — a frame must at least carry its tag word.
    Empty,
    /// The first word decoded to no known [`PacketTag`].
    UnknownTag {
        /// The rejected tag word.
        word: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Closed => f.write_str("peer closed the connection"),
            FrameError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes missing)")
            }
            FrameError::Oversized { words } => write!(
                f,
                "length prefix {words} exceeds the {MAX_FRAME_WORDS}-word frame bound"
            ),
            FrameError::Empty => f.write_str("zero-length frame (a frame must carry its tag word)"),
            FrameError::UnknownTag { word } => {
                write!(f, "unknown packet tag {word:#010x}")
            }
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Appends `packet` as one length-prefixed frame (prefix, tag word, payload
/// words, all little-endian) to `out` — the allocation-free encoder the
/// endpoint's batch path is built on: callers reuse one scratch buffer for
/// any number of frames and issue a single write.
pub fn encode_frame_into(out: &mut Vec<u8>, packet: &Packet) {
    let words = packet.wire_words() as u32;
    out.reserve(4 * (words as usize + 1));
    out.extend_from_slice(&words.to_le_bytes());
    out.extend_from_slice(&packet.tag().encode().to_le_bytes());
    for word in packet.payload() {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// Serializes `packet` as one length-prefixed frame into `w`.
///
/// # Errors
///
/// Propagates the writer's I/O errors; the frame is written with a single
/// `write_all`, so short writes surface rather than corrupt the stream.
pub fn write_frame(w: &mut impl Write, packet: &Packet) -> io::Result<()> {
    let mut bytes = Vec::new();
    encode_frame_into(&mut bytes, packet);
    w.write_all(&bytes)
}

/// Reads one length-prefixed frame from `r`, blocking until it is complete.
///
/// This is the two-process building block ([`TcpEndpoint`] uses the
/// incremental [`FrameDecoder`] instead so non-blocking polls never lose
/// partial frames).
///
/// # Errors
///
/// [`FrameError::Closed`] on EOF at a frame boundary, [`FrameError::Truncated`]
/// on EOF inside one, and the codec errors for malformed prefixes or tags.
pub fn read_frame(r: &mut impl Read) -> Result<Packet, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    missing: prefix.len() - got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let words = u32::from_le_bytes(prefix);
    let body_len = frame_body_len(words)?;
    let mut body = vec![0u8; body_len];
    let mut got = 0;
    while got < body_len {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    missing: body_len - got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut payload = Vec::new();
    let tag = decode_body(&body, &mut payload)?;
    Ok(Packet::new(tag, payload))
}

/// Validates a length prefix and returns the frame body size in bytes.
fn frame_body_len(words: u32) -> Result<usize, FrameError> {
    if words == 0 {
        return Err(FrameError::Empty);
    }
    if words > MAX_FRAME_WORDS {
        return Err(FrameError::Oversized { words });
    }
    Ok(words as usize * 4)
}

/// Decodes a complete frame body (tag word + payload words, little-endian):
/// returns the tag and appends the payload words to `payload`.
fn decode_body(body: &[u8], payload: &mut Vec<u32>) -> Result<PacketTag, FrameError> {
    debug_assert!(body.len() >= 4 && body.len() % 4 == 0);
    let (tag_word, words) = body.split_at(4);
    let tag_word = u32::from_le_bytes(tag_word.try_into().unwrap());
    let tag = PacketTag::decode(tag_word).ok_or(FrameError::UnknownTag { word: tag_word })?;
    let word = |w: &[u8]| u32::from_le_bytes(w.try_into().unwrap());
    payload.extend(words.chunks_exact(4).map(word));
    Ok(tag)
}

/// Incremental frame decoder: feed it byte chunks as they arrive (in whatever
/// sizes the socket delivers) and pull complete packets out. Partial frames
/// stay buffered across calls, so non-blocking reads never lose data.
///
/// The receive buffer is the decoder's own and lives as long as it does: an
/// endpoint reads its medium straight into the spare room, so a received
/// byte is copied once (by the kernel, or out of the ring). Each decoded
/// payload is a buffer taken from the decoder's [`BufferPool`], which an
/// endpoint refills with the payloads of the packets it has just sent, so a
/// ping-pong exchange decodes without allocating.
///
/// # Example
///
/// ```
/// use predpkt_channel::{tcp, Packet, PacketTag};
/// let mut bytes = Vec::new();
/// tcp::write_frame(&mut bytes, &Packet::new(PacketTag::Burst, vec![1, 2])).unwrap();
/// let mut dec = tcp::FrameDecoder::new();
/// dec.push(&bytes[..3]); // arbitrary split
/// assert!(dec.next_frame().unwrap().is_none(), "frame incomplete");
/// dec.push(&bytes[3..]);
/// let p = dec.next_frame().unwrap().unwrap();
/// assert_eq!(p.tag(), PacketTag::Burst);
/// assert_eq!(p.payload(), &[1, 2]);
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Receive buffer, zeroed once when it grows and reused after that:
    /// `pos..end` holds received bytes not yet decoded, `end..` is spare
    /// room the next read fills in place. The decoded prefix is dropped by
    /// rewinding both indices once everything is decoded, and moved away
    /// only when the spare room runs short.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Where decoded payloads come from.
    pool: BufferPool,
}

/// Spare room a read of the medium is offered at least, in bytes.
const READ_CHUNK: usize = 8 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.spare(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// At least `min` bytes of spare room after the undecoded bytes: the
    /// decoded prefix is dropped first, and the buffer grows only when that
    /// is not enough.
    fn spare(&mut self, min: usize) -> &mut [u8] {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < min {
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.end, 0);
                self.end -= self.pos;
                self.pos = 0;
            }
            if self.buf.len() - self.end < min {
                let len = (self.end + min).max(2 * self.buf.len());
                self.buf.resize(len, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// The spare room a read of the medium fills in place: enough that the
    /// undecoded bytes and the room hold [`READ_CHUNK`] bytes together, and
    /// more than the rest of a frame already begun, so a read that
    /// completes the frame and empties the medium comes back short. A
    /// medium that hands a frame over in pieces (a ring, chunk by chunk)
    /// then grows the buffer only for a frame longer than that.
    pub(crate) fn room(&mut self) -> &mut [u8] {
        let undecoded = self.end - self.pos;
        let min = READ_CHUNK
            .saturating_sub(undecoded)
            .max(self.missing_bytes() + 1);
        self.spare(min)
    }

    /// Takes in `len` bytes a read has just written into [`room`](Self::room).
    pub(crate) fn filled(&mut self, len: usize) {
        self.end += len;
    }

    /// Hands a payload buffer back for a later decode to fill.
    pub(crate) fn recycle(&mut self, payload: Vec<u32>) {
        self.pool.release(payload);
    }

    /// The undecoded bytes.
    fn available(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// True when buffered bytes form part of an unfinished frame — an EOF in
    /// this state is a truncation, not a clean close.
    pub fn is_mid_frame(&self) -> bool {
        self.pos < self.end
    }

    /// Bytes still owed before the partially buffered frame completes (0 at
    /// a frame boundary, or when the buffered prefix is itself malformed —
    /// [`next_frame`](Self::next_frame) surfaces the typed error for that).
    pub fn missing_bytes(&self) -> usize {
        let avail = self.available();
        if avail.is_empty() {
            return 0;
        }
        if avail.len() < 4 {
            return 4 - avail.len();
        }
        let words = u32::from_le_bytes(avail[..4].try_into().unwrap());
        match frame_body_len(words) {
            Ok(body_len) => (4 + body_len).saturating_sub(avail.len()),
            Err(_) => 0,
        }
    }

    /// Decodes the next complete frame, `Ok(None)` when more bytes are
    /// needed. The frame body is decoded straight out of the receive buffer
    /// into a pooled payload — no intermediate byte copy.
    ///
    /// # Errors
    ///
    /// The codec's [`FrameError`]s for malformed prefixes or tag words.
    /// Errors are **sticky**: the offending bytes are not consumed, so every
    /// subsequent call reports the same error again (and frames behind it
    /// stay unreachable). The decoder deliberately does not resynchronize —
    /// a corrupted length-prefixed stream has no recoverable framing — so
    /// the caller must treat the first error as fatal and tear the
    /// connection down.
    pub fn next_frame(&mut self) -> Result<Option<Packet>, FrameError> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let words = u32::from_le_bytes(avail[..4].try_into().unwrap());
        let body_len = frame_body_len(words)?;
        if avail.len() < 4 + body_len {
            return Ok(None);
        }
        let mut payload = self.pool.acquire();
        match decode_body(&avail[4..4 + body_len], &mut payload) {
            Ok(tag) => {
                self.pos += 4 + body_len;
                Ok(Some(Packet::new(tag, payload)))
            }
            Err(e) => {
                self.pool.release(payload);
                Err(e)
            }
        }
    }
}

/// Constructor for TCP channel endpoints (the socket sibling of
/// [`ThreadedTransport`](crate::ThreadedTransport)).
#[derive(Debug)]
pub struct TcpTransport;

thread_local! {
    /// This thread's loopback listener: bound at its first pair, closed when
    /// the thread exits. Creating, binding and closing a listening socket is
    /// some 40 % of what a pair costs to set up (cold kernel paths after a
    /// run), and a thread builds its pairs one at a time, dialling and
    /// accepting back to back — so one listener serves all of them.
    static LOOPBACK: RefCell<Option<TcpListener>> = const { RefCell::new(None) };
}

impl TcpTransport {
    /// Creates a connected localhost pair over an ephemeral port: the
    /// simulator endpoint dials, the accelerator endpoint is accepted. No
    /// fixed port is involved, so concurrent test runs cannot collide on
    /// address allocation.
    ///
    /// # Errors
    ///
    /// Any socket-layer failure binding, connecting, or accepting.
    pub fn loopback_pair() -> io::Result<(TcpEndpoint, TcpEndpoint)> {
        LOOPBACK.with_borrow_mut(|slot| {
            let pair = Self::pair_through(slot);
            if pair.is_err() {
                // Whatever broke, the next pair starts from a fresh listener.
                *slot = None;
            }
            pair
        })
    }

    fn pair_through(slot: &mut Option<TcpListener>) -> io::Result<(TcpEndpoint, TcpEndpoint)> {
        if slot.is_none() {
            *slot = Some(TcpListener::bind(("127.0.0.1", 0))?);
        }
        let listener = slot.as_ref().expect("bound above");
        let sim_stream = TcpStream::connect(listener.local_addr()?)?;
        let dialled_from = sim_stream.local_addr()?;
        // The port stays open between pairs, so something else on the host
        // may have dialled it meanwhile: take our own connection only.
        let acc_stream = loop {
            let (stream, peer) = listener.accept()?;
            if peer == dialled_from {
                break stream;
            }
        };
        Ok((
            TcpEndpoint::from_stream(sim_stream, Side::Simulator)?,
            TcpEndpoint::from_stream(acc_stream, Side::Accelerator)?,
        ))
    }
}

/// One side's endpoint of a TCP channel: the framed endpoint over a
/// non-blocking socket. `Send`, so it moves to its domain's thread (or lives
/// in its domain's process); implements [`Transport`](crate::Transport) and
/// [`WaitTransport`](crate::WaitTransport) for the side it belongs to.
pub type TcpEndpoint = FramedEndpoint<TcpStream>;

impl TcpEndpoint {
    /// Dials a listening peer. `side` is the domain this endpoint serves —
    /// conventionally the simulator dials the accelerator farm.
    ///
    /// # Errors
    ///
    /// Any socket-layer connect failure.
    pub fn connect(addr: impl ToSocketAddrs, side: Side) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?, side)
    }

    /// Binds `addr` and accepts exactly one peer connection.
    ///
    /// # Errors
    ///
    /// Any socket-layer bind or accept failure.
    pub fn listen(addr: impl ToSocketAddrs, side: Side) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let (stream, _) = listener.accept()?;
        Self::from_stream(stream, side)
    }

    /// Wraps an already-connected stream. `TCP_NODELAY` is enabled: the
    /// protocol exchanges small latency-sensitive frames, the workload
    /// Nagle's algorithm punishes hardest. The socket is kept
    /// **non-blocking** for its whole life, so a write that fits the kernel
    /// buffer is one `write` and a received frame costs one `read`. It turns
    /// blocking only for the timed read of a wait and for the rest of a
    /// write the kernel buffer refused. That blocking remainder carries a
    /// generous [`WRITE_TIMEOUT`]: a peer that keeps the connection open but
    /// stops reading (wedged or stopped process) would otherwise block the
    /// sender forever inside `send` — past the timeout the endpoint records
    /// a sticky error and the session layer detects the starvation instead.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn from_stream(stream: TcpStream, side: Side) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nonblocking(true)?;
        Ok(FramedEndpoint::new(side, stream))
    }

    /// The endpoint's local socket address.
    ///
    /// # Errors
    ///
    /// Propagates the socket-layer failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.medium.local_addr()
    }
}

/// The socket as a medium. A write goes out without blocking while the
/// kernel buffer takes it and — a frame must never stop half-written —
/// blocks under [`WRITE_TIMEOUT`] for whatever it refuses. A read is one
/// `read` into the offered room; one that fills the room may have left more.
impl Medium for TcpStream {
    type Error = FrameError;

    fn write_frames(&mut self, mut rest: &[u8], writes: &mut u64) -> Result<(), FrameError> {
        *writes += 1;
        while !rest.is_empty() {
            match self.write(rest) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_nonblocking(false)?;
                    let written = self.write_all(rest);
                    self.set_nonblocking(true)?;
                    return Ok(written?);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn try_read(&mut self, room: &mut [u8]) -> Result<Got, FrameError> {
        loop {
            return match self.read(room) {
                Ok(0) => Ok(Got::Closed),
                Ok(len) => Ok(Got::Bytes {
                    len,
                    more: len == room.len(),
                }),
                // The platform reports a read timeout as either kind; both
                // simply mean "nothing yet" (the same shape
                // `TryRecvError::Empty` takes on the mpsc backend).
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    Ok(Got::Nothing)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => Err(e.into()),
            };
        }
    }

    fn read_within(&mut self, room: &mut [u8], timeout: Duration) -> Result<Got, FrameError> {
        // A zero timeout means "block forever" to the socket layer; clamp to
        // the smallest real timeout instead.
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let got = self.try_read(room);
        self.set_nonblocking(true)?;
        got
    }

    fn torn(missing: usize) -> FrameError {
        FrameError::Truncated { missing }
    }

    /// Shuts the socket down in both directions: a peer blocked in a wait
    /// wakes at once rather than when the kernel notices the closed fd.
    fn close(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::tests as both;
    use crate::transport::{Transport, WaitTransport};
    use std::thread;

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        TcpTransport::loopback_pair().expect("loopback pair")
    }

    #[test]
    fn loopback_ping_pong() {
        both::ping_pong(pair());
    }

    #[test]
    fn recv_is_nonblocking_when_empty() {
        both::recv_is_nonblocking_when_empty(pair());
    }

    #[test]
    fn wait_times_out_then_delivers() {
        both::wait_times_out_then_delivers(pair());
    }

    #[test]
    fn fifo_order_preserved_across_the_socket() {
        both::fifo_order_preserved(pair());
    }

    #[test]
    fn costed_endpoint_bills_like_any_transport() {
        both::costed_endpoint_bills_like_any_transport(pair());
    }

    #[test]
    fn a_recv_right_after_a_send_skips_the_read_and_the_next_one_reads() {
        both::a_recv_right_after_a_send_skips_the_read(pair());
    }

    #[test]
    fn dropped_peer_wakes_waiter_and_drains_cleanly() {
        let (mut sim, acc) = pair();
        // Park a waiter on a live link *first*, then shut the peer down from
        // another thread: the EOF must wake the blocked wait well before its
        // generous timeout (this is the no-teardown-deadlock property).
        let killer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(acc);
        });
        let t0 = std::time::Instant::now();
        assert!(!sim.wait_for_packet(Duration::from_secs(30)));
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "EOF should wake the waiter, not let it run the full timeout"
        );
        killer.join().unwrap();
        assert!(sim.peer_closed() || sim.last_error().is_some());
        assert!(sim.recv(Side::Simulator).is_none());
        // Once the stream is known dead, waits pace the caller (no hot spin)
        // instead of returning instantly.
        let t0 = std::time::Instant::now();
        assert!(!sim.wait_for_packet(Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(25), "paced, not spun");
        // Sends after the peer is gone are lost on the floor, not panics.
        sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
        sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
    }

    /// A frame of 2^18 payload words: 1 MiB on the wire.
    fn mib_frame(i: u32) -> Packet {
        Packet::new(PacketTag::Burst, vec![i; 1 << 18])
    }

    #[test]
    fn a_refused_write_finishes_blocking_once_the_peer_drains() {
        // 32 MiB is more than loopback send and receive buffers hold
        // together, and the peer starts reading late: the non-blocking write
        // is refused part-way and the rest must go out through the blocking
        // fallback — whole frames, in order, no error — once the peer drains.
        const FRAMES: u32 = 32;
        let (mut sim, mut acc) = pair();
        let reader = thread::spawn(move || {
            thread::sleep(Duration::from_millis(100));
            for i in 0..FRAMES {
                while !acc.wait_for_packet(Duration::from_secs(5)) {
                    assert!(acc.last_error().is_none(), "{:?}", acc.last_error());
                }
                let p = acc.recv(Side::Accelerator).unwrap();
                assert!(p == mib_frame(i), "frame {i} arrives whole and in order");
            }
        });
        for i in 0..FRAMES {
            sim.send(Side::Simulator, mib_frame(i));
        }
        assert!(sim.last_error().is_none(), "{:?}", sim.last_error());
        reader.join().unwrap();
        assert_eq!(sim.batch_stats().unwrap().frames, u64::from(FRAMES));
    }

    #[test]
    fn a_peer_that_never_drains_leaves_a_sticky_error_not_a_spin() {
        let (mut sim, _acc_open_but_never_read) = pair();
        // The production timeout is 30 s; the mechanism is the same at 50 ms.
        sim.medium
            .set_write_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let t0 = std::time::Instant::now();
        let mut sent = 0;
        while sim.last_error().is_none() {
            assert!(sent < 64, "64 MiB cannot fit a loopback socket");
            sim.send(Side::Simulator, mib_frame(sent));
            sent += 1;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "gave up at the timeout"
        );
        assert!(matches!(sim.last_error(), Some(FrameError::Io(_))));
        // Sticky: later sends are dropped on the floor without touching the
        // socket again.
        let before = sim.batch_stats().unwrap();
        sim.send(Side::Simulator, mib_frame(0));
        assert_eq!(sim.batch_stats().unwrap(), before);
    }

    /// Receives one packet by plain `recv` polls, returning it and how many
    /// polls came back empty.
    fn recv_polling(end: &mut TcpEndpoint) -> (Packet, u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut empty_polls = 0;
        loop {
            if let Some(p) = end.recv(end.side()) {
                return (p, empty_polls);
            }
            empty_polls += 1;
            assert!(std::time::Instant::now() < deadline, "never delivered");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_short_read_ends_the_drain() {
        let (mut sim, mut acc) = pair();
        // One small frame, then one larger than a read is offered: the
        // drain goes on after a full read and stops after a short one, so
        // only polls that found nothing pay an empty read.
        for payload in [vec![7; 2], vec![9; 5_000]] {
            let sent = Packet::new(PacketTag::Burst, payload);
            acc.send(Side::Accelerator, sent.clone());
            let before = sim.batch_stats().unwrap();
            let (got, empty_polls) = recv_polling(&mut sim);
            assert!(got == sent, "the frame arrives whole");
            let after = sim.batch_stats().unwrap();
            assert!(
                after.empty_reads - before.empty_reads <= empty_polls,
                "a poll that delivered read on after its short read: {before:?} -> {after:?}"
            );
        }
        assert_eq!(sim.pending(Side::Simulator), 0);
    }

    fn frame_mix() -> (Vec<Packet>, Vec<u8>) {
        let packets = vec![
            Packet::new(PacketTag::Handshake, vec![]),
            Packet::new(PacketTag::Burst, vec![0x0102_0304, 5, 6]),
            Packet::new(PacketTag::CycleOutputs, vec![u32::MAX]),
        ];
        let mut bytes = Vec::new();
        for p in &packets {
            encode_frame_into(&mut bytes, p);
        }
        (packets, bytes)
    }

    #[test]
    fn frames_split_at_every_byte_offset_decode() {
        let (packets, bytes) = frame_mix();
        for cut in 0..=bytes.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for part in [&bytes[..cut], &bytes[cut..]] {
                dec.push(part);
                while let Some(p) = dec.next_frame().unwrap() {
                    got.push(p);
                }
            }
            assert_eq!(got, packets, "cut at byte {cut}");
            assert!(!dec.is_mid_frame());
        }
    }

    #[test]
    fn frames_split_at_every_byte_offset_decode_off_the_socket() {
        let (packets, bytes) = frame_mix();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut end = TcpEndpoint::from_stream(stream, Side::Accelerator).unwrap();
        for cut in 0..=bytes.len() {
            raw.write_all(&bytes[..cut]).unwrap();
            // Read the first part on its own where it forms no packet.
            let _ = end.wait_for_packet(Duration::from_millis(1));
            raw.write_all(&bytes[cut..]).unwrap();
            let got: Vec<Packet> = (0..packets.len())
                .map(|_| {
                    while !end.wait_for_packet(Duration::from_secs(5)) {
                        assert!(end.last_error().is_none(), "{:?}", end.last_error());
                    }
                    end.recv(Side::Accelerator).unwrap()
                })
                .collect();
            assert_eq!(got, packets, "cut at byte {cut}");
        }
    }

    #[test]
    fn decoded_payloads_reuse_recycled_buffers() {
        let (_, bytes) = frame_mix();
        let mut dec = FrameDecoder::new();
        let recycled = Vec::with_capacity(64);
        let at = recycled.as_ptr();
        dec.recycle(recycled);
        dec.push(&bytes);
        // The pool is a stack: the first decode takes the recycled buffer.
        let first = dec.next_frame().unwrap().unwrap().into_payload();
        assert_eq!(first.as_ptr(), at);
        assert!(first.capacity() >= 64);
    }

    #[test]
    fn garbage_stream_surfaces_typed_error_not_panic() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut end = TcpEndpoint::from_stream(stream, Side::Accelerator).unwrap();
        // A plausible length prefix followed by an unknown tag word.
        raw.write_all(&2u32.to_le_bytes()).unwrap();
        raw.write_all(&0xdead_beefu32.to_le_bytes()).unwrap();
        raw.write_all(&7u32.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        while !end.is_dead() {
            let _ = end.wait_for_packet(Duration::from_millis(10));
        }
        assert!(
            matches!(end.last_error(), Some(FrameError::UnknownTag { word }) if *word == 0xdead_beef),
            "got {:?}",
            end.last_error()
        );
        assert!(end.recv(Side::Accelerator).is_none());
    }
}
