//! Shared-memory ring transport: the lowest-latency channel the crate models.
//!
//! The paper's channel is a tightly coupled physical link (PCI between host
//! and iPROVE); [`TcpEndpoint`](crate::TcpEndpoint) stretched the abstraction
//! across real sockets, and this module closes the remaining gap in the other
//! direction — **multi-process co-emulation on one host**, where the two
//! domains share a memory region instead of a wire. Each direction is a
//! fixed-capacity single-producer/single-consumer ring of `u32` words; the
//! producer publishes with a release-store of its head counter, the consumer
//! frees space with a release-store of its tail counter, and no lock is ever
//! taken.
//!
//! Two backings share one ring algorithm:
//!
//! * the **in-process pair** ([`ShmTransport::pair`]) — an
//!   [`Arc<ShmRegion>`](ShmRegion) of relaxed-atomic data words with
//!   acquire/release head/tail counters, for sessions whose domains are
//!   threads of one process (and for deterministic tests of the ring itself);
//! * the **file-backed form** ([`ShmEndpoint::create`] /
//!   [`ShmEndpoint::attach`], Unix only) — the same layout serialized into a
//!   `/dev/shm` tempfile (falling back to the system temp dir), accessed with
//!   positioned reads and writes. `/dev/shm` is a tmpfs, so every access goes
//!   through the kernel page cache — the file *is* memory shared between the
//!   two processes, reachable std-only (no `mmap` binding required).
//!
//! Both backings scale past one channel: a region holds one or more **link
//! slots**, each an independent ring pair with its own liveness flags, so an
//! N-domain fabric ([`ShmTransport::mesh`] / [`ShmTransport::file_mesh`])
//! carries all of its edges in one shared allocation (or one `/dev/shm`
//! file) instead of one per link.
//!
//! ## Wire format
//!
//! A [`ShmEndpoint`] is the crate's framed endpoint over a ring — the same
//! endpoint a [`TcpEndpoint`](crate::TcpEndpoint) is over a socket — so
//! frames are byte-for-byte the TCP codec's ([`tcp::write_frame`]): a `u32`
//! little-endian length prefix counting the wire words, then the tag word and
//! payload words. A read copies published words out of the ring straight into
//! the [`FrameDecoder`](tcp::FrameDecoder)'s receive buffer; the decoder
//! fills payload buffers recycled from the packets this endpoint sent, so a
//! ping-pong exchange receives without allocating. A `recv` right after the
//! endpoint's own publication does not look at the ring (the reply cannot be
//! there yet; the next call looks). Malformed input — zero or oversized
//! prefixes, unknown tags, a peer that died mid-frame — surfaces as a typed
//! [`RingError`], never a panic.
//!
//! ## Liveness and teardown
//!
//! The region carries one liveness flag per side. Dropping an endpoint clears
//! its flag, so a peer blocked in
//! [`WaitTransport::wait_for_packet`](crate::WaitTransport) (bounded spin,
//! then parked in short slices that re-check the flag) wakes promptly instead
//! of sleeping out its timeout. A peer that vanishes mid-frame leaves the
//! decoder stranded, which the survivor reports as [`RingError::TornFrame`].

use crate::cost::Side;
use crate::framed::{FramedEndpoint, Got, Medium};
use crate::tcp::{self, FrameError};
use std::error::Error;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Default per-direction ring capacity in words (32 KiB of payload per
/// direction). The protocol's largest messages are LOB bursts of a few
/// hundred words, so the default leaves generous headroom before
/// backpressure engages.
pub const DEFAULT_RING_WORDS: u32 = 8 * 1024;

/// Smallest accepted ring capacity in words: the length prefix plus the tag
/// word plus one payload word, with one word of slack so a ring can never be
/// permanently wedged by a minimal frame.
pub const MIN_RING_WORDS: u32 = 4;

/// Largest accepted ring capacity in words (64 MiB of data per direction —
/// sixteen times the largest frame [`tcp::MAX_FRAME_WORDS`] allows).
/// Requests beyond this are clamped rather than honoured: an unchecked
/// capacity would turn a typo'd knob into a multi-GiB allocation (or a
/// tmpfs-filling `/dev/shm` file) instead of a working channel.
pub const MAX_RING_WORDS: u32 = 1 << 24;

/// How long a full ring may stall one send before the endpoint gives the
/// peer up as wedged (the shared-memory analogue of
/// [`tcp::WRITE_TIMEOUT`]): a live consumer
/// drains words in microseconds; only a stopped or stuck peer process ever
/// holds the ring full this long.
pub const SEND_TIMEOUT: Duration = Duration::from_secs(10);

/// Words a producer publishes per head-counter release. Publishing in chunks
/// lets the consumer start reassembling a large frame while its tail is
/// still being written (and keeps frames close to the ring capacity
/// transmissible at all: the producer reclaims the space the consumer frees
/// chunk by chunk).
const DEFAULT_CHUNK_WORDS: u32 = 256;

/// Words a consumer copies out of the ring per tail-counter release.
const DRAIN_CHUNK_WORDS: usize = 512;

// The spin-then-park waiting ladder this ring's waiter pioneered now lives
// in [`crate::poll`], where the session-farm poll-set generalizes it over N
// transports; the ring's own blocking wait keeps using the same tuned
// constants (hard spin for atomic-load polls, a token spin plus coarser
// parks for syscall-cost polls).
use crate::poll::{PARK_SLICE, PARK_SLICE_SYSCALL, SPIN_POLLS, SPIN_POLLS_SYSCALL};

/// Why a shared-memory ring operation failed.
///
/// Every malformed or unserviceable input maps to a variant here; the ring
/// never panics on data read out of the shared region.
#[derive(Debug)]
pub enum RingError {
    /// The ring stayed full past [`SEND_TIMEOUT`] with the peer still
    /// attached — the consumer has stopped draining.
    Full {
        /// Words the stalled frame still owed the ring.
        remaining: u32,
        /// The ring's data capacity in words.
        capacity: u32,
    },
    /// The peer detached (or its process died) mid-frame; the bytes already
    /// drained can never complete.
    TornFrame {
        /// Bytes the frame still owed when the peer vanished.
        missing: usize,
    },
    /// The peer detached while this side still had words to hand it.
    PeerGone,
    /// The frame (prefix word + wire words) exceeds what the ring can ever
    /// hold.
    Oversized {
        /// The rejected frame size in ring words.
        words: u32,
    },
    /// The drained bytes failed the shared frame codec (zero or oversized
    /// length prefix, unknown tag word).
    Codec(FrameError),
    /// The file backing failed (I/O on the `/dev/shm` region).
    Io(io::Error),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::Full {
                remaining,
                capacity,
            } => write!(
                f,
                "ring full: peer stopped draining ({remaining} of {capacity} words still owed)"
            ),
            RingError::TornFrame { missing } => {
                write!(f, "peer vanished mid-frame ({missing} bytes missing)")
            }
            RingError::PeerGone => f.write_str("peer detached from the shared region"),
            RingError::Oversized { words } => {
                write!(f, "frame of {words} words can never fit the ring")
            }
            RingError::Codec(e) => write!(f, "frame codec rejected ring data: {e}"),
            RingError::Io(e) => write!(f, "shared region I/O failed: {e}"),
        }
    }
}

impl Error for RingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RingError::Codec(e) => Some(e),
            RingError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for RingError {
    fn from(e: FrameError) -> Self {
        RingError::Codec(e)
    }
}

impl From<io::Error> for RingError {
    fn from(e: io::Error) -> Self {
        RingError::Io(e)
    }
}

/// Which directional ring an operation addresses within the shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingDir {
    /// Simulator → accelerator.
    SimToAcc,
    /// Accelerator → simulator.
    AccToSim,
}

impl RingDir {
    fn outbound_from(side: Side) -> RingDir {
        match side {
            Side::Simulator => RingDir::SimToAcc,
            Side::Accelerator => RingDir::AccToSim,
        }
    }

    fn index(self) -> usize {
        match self {
            RingDir::SimToAcc => 0,
            RingDir::AccToSim => 1,
        }
    }
}

fn side_index(side: Side) -> usize {
    match side {
        Side::Simulator => 0,
        Side::Accelerator => 1,
    }
}

/// The ring operations both backings implement. Control-word accesses carry
/// acquire/release semantics (atomics on the heap backing; syscall-ordered
/// positioned I/O on the file backing); data words need no ordering of their
/// own because the head/tail publication protocol brackets them.
trait RingBacking: Send {
    /// Per-direction data capacity in words (a power of two).
    fn capacity(&self) -> u32;
    /// Acquire-load of a ring's producer counter.
    fn head(&self, ring: RingDir) -> Result<u32, RingError>;
    /// Release-store of a ring's producer counter.
    fn set_head(&self, ring: RingDir, v: u32) -> Result<(), RingError>;
    /// Acquire-load of a ring's consumer counter.
    fn tail(&self, ring: RingDir) -> Result<u32, RingError>;
    /// Release-store of a ring's consumer counter.
    fn set_tail(&self, ring: RingDir, v: u32) -> Result<(), RingError>;
    /// Copies `data`, whole little-endian words, into the ring from word
    /// `slot` on (no wrap: the caller splits runs at the ring boundary).
    fn write_data(&self, ring: RingDir, slot: u32, data: &[u8]) -> Result<(), RingError>;
    /// Fills `out` with little-endian words of the ring from word `slot` on
    /// (no wrap).
    fn read_data(&self, ring: RingDir, slot: u32, out: &mut [u8]) -> Result<(), RingError>;
    /// Whether `side`'s endpoint is currently attached.
    fn alive(&self, side: Side) -> Result<bool, RingError>;
    /// Flips `side`'s attachment flag.
    fn set_alive(&self, side: Side, v: bool) -> Result<(), RingError>;
    /// Whether polling this backing is a couple of atomic loads (spin hard)
    /// rather than syscalls (park early).
    fn poll_is_cheap(&self) -> bool;
}

/// One directional SPSC ring of the heap backing.
struct HeapRing {
    head: AtomicU32,
    tail: AtomicU32,
    data: Box<[AtomicU32]>,
}

impl HeapRing {
    fn new(capacity: u32) -> Self {
        HeapRing {
            head: AtomicU32::new(0),
            tail: AtomicU32::new(0),
            data: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

/// One link's slot within a region: a bidirectional SPSC ring pair plus the
/// two per-side liveness flags. A two-domain channel uses one slot; an
/// N-domain fabric packs every edge's slot into a single region.
struct LinkSlot {
    alive: [AtomicBool; 2],
    rings: [HeapRing; 2],
}

impl LinkSlot {
    fn new(capacity: u32) -> Self {
        LinkSlot {
            alive: [AtomicBool::new(true), AtomicBool::new(true)],
            rings: [HeapRing::new(capacity), HeapRing::new(capacity)],
        }
    }
}

/// The in-process shared region: one or more link slots — each a pair of
/// heap rings plus per-side liveness flags — shared between the
/// [`ShmEndpoint`]s via [`Arc`]. A plain channel ([`ShmTransport::pair`])
/// occupies a single-slot region; a fabric mesh
/// ([`ShmTransport::mesh`]) carries all of its edges' SPSC ring pairs in
/// *one* region, so an N-domain host pays one shared allocation, not one per
/// link.
///
/// Data words are atomics accessed `Relaxed`; the head/tail counters carry
/// the only synchronization. Each ring is single-producer/single-consumer —
/// exactly one endpoint ever writes data words and stores `head`, exactly
/// one ever reads data words and stores `tail` ([`ShmTransport::pair`] /
/// [`ShmTransport::mesh`] hand out one endpoint per side *per link slot*,
/// each backing addresses exactly one slot, and endpoints are `!Clone`). A
/// producer writes slots in `[head, head+n)` and only then release-stores
/// `head+n`; the consumer acquire-loads `head` before reading those slots,
/// so the writes happen-before the reads. Symmetrically, the consumer
/// release-stores `tail` after reading and the producer acquire-loads `tail`
/// before reusing a slot. The Release/Acquire pairing on `head` (and on
/// `tail`) is what orders the relaxed data accesses: a consumer never
/// observes a slot's stale value, and a producer never overwrites a word
/// still to be read.
pub struct ShmRegion {
    capacity: u32,
    links: Vec<LinkSlot>,
}

impl fmt::Debug for ShmRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShmRegion")
            .field("capacity", &self.capacity)
            .field("links", &self.links.len())
            .finish_non_exhaustive()
    }
}

impl ShmRegion {
    fn with_links(capacity: u32, links: usize) -> Self {
        ShmRegion {
            capacity,
            links: (0..links).map(|_| LinkSlot::new(capacity)).collect(),
        }
    }
}

/// Heap backing: the ring operations over one link slot of an
/// [`Arc<ShmRegion>`]. Each backing instance addresses exactly one link, so
/// the SPSC argument is per-slot and a mesh region stays sound.
struct HeapBacking {
    region: Arc<ShmRegion>,
    link: usize,
}

impl HeapBacking {
    fn slot(&self) -> &LinkSlot {
        &self.region.links[self.link]
    }
}

impl RingBacking for HeapBacking {
    fn capacity(&self) -> u32 {
        self.region.capacity
    }

    fn head(&self, ring: RingDir) -> Result<u32, RingError> {
        Ok(self.slot().rings[ring.index()].head.load(Ordering::Acquire))
    }

    fn set_head(&self, ring: RingDir, v: u32) -> Result<(), RingError> {
        self.slot().rings[ring.index()]
            .head
            .store(v, Ordering::Release);
        Ok(())
    }

    fn tail(&self, ring: RingDir) -> Result<u32, RingError> {
        Ok(self.slot().rings[ring.index()].tail.load(Ordering::Acquire))
    }

    fn set_tail(&self, ring: RingDir, v: u32) -> Result<(), RingError> {
        self.slot().rings[ring.index()]
            .tail
            .store(v, Ordering::Release);
        Ok(())
    }

    fn write_data(&self, ring: RingDir, slot: u32, data: &[u8]) -> Result<(), RingError> {
        // The written words lie in the producer-owned span
        // [head, head+free): the consumer has release-stored a tail covering
        // these slots and will not read them again until the producer's
        // subsequent release-store of head publishes them, so Relaxed is
        // enough here. See `ShmRegion` for the full protocol.
        let cells = &self.slot().rings[ring.index()].data[slot as usize..];
        for (cell, word) in cells.iter().zip(data.chunks_exact(4)) {
            cell.store(
                u32::from_le_bytes(word.try_into().unwrap()),
                Ordering::Relaxed,
            );
        }
        Ok(())
    }

    fn read_data(&self, ring: RingDir, slot: u32, out: &mut [u8]) -> Result<(), RingError> {
        // The read words lie in the consumer-owned span [tail, head): the
        // producer release-stored a head covering these slots
        // (acquire-loaded by the caller) and will not write them again
        // until the consumer's subsequent release-store of tail frees them.
        let cells = &self.slot().rings[ring.index()].data[slot as usize..];
        for (cell, word) in cells.iter().zip(out.chunks_exact_mut(4)) {
            word.copy_from_slice(&cell.load(Ordering::Relaxed).to_le_bytes());
        }
        Ok(())
    }

    fn alive(&self, side: Side) -> Result<bool, RingError> {
        Ok(self.slot().alive[side_index(side)].load(Ordering::Acquire))
    }

    fn set_alive(&self, side: Side, v: bool) -> Result<(), RingError> {
        self.slot().alive[side_index(side)].store(v, Ordering::Release);
        Ok(())
    }

    fn poll_is_cheap(&self) -> bool {
        true
    }
}

#[cfg(unix)]
mod file_backing {
    //! The `/dev/shm` tempfile backing: the region layout serialized into a
    //! file on a tmpfs, accessed with positioned reads/writes. Every access
    //! is a syscall against the shared page cache, which both orders the
    //! accesses (control-word stores cannot be reordered with the data
    //! writes issued before them) and makes them visible to the peer
    //! process immediately.

    use super::{side_index, RingBacking, RingDir, RingError};
    use crate::cost::Side;
    use std::fs::{File, OpenOptions};
    use std::io;
    use std::os::unix::fs::FileExt;
    use std::path::{Path, PathBuf};

    /// Magic word opening every region file ("PPK1" little-endian).
    pub const SHM_MAGIC: u32 = 0x314b_5050;
    /// Region layout version. Version 2 generalized the single ring pair to
    /// a per-link slot array (`W_LINKS` links, each with its own control
    /// block and ring pair), so one region file can carry a whole fabric
    /// mesh; version-1 attachers reject v2 files cleanly via the version
    /// word.
    pub const SHM_VERSION: u32 = 2;
    /// Most links one region file may declare — bounds the attach-side
    /// multiplication before it can size a rogue mapping (4096 links covers
    /// a 64-domain full mesh).
    pub const MAX_LINKS: u32 = 1 << 12;

    // Header word offsets (in u32 words from the start of the file).
    const W_MAGIC: u64 = 0;
    const W_VERSION: u64 = 1;
    const W_CAPACITY: u64 = 2;
    const W_LINKS: u64 = 3;
    /// First per-link control block (8 words each):
    /// `[alive_sim, alive_acc, r0_head, r0_tail, r1_head, r1_tail, pad, pad]`.
    const W_LINK_CTRL: u64 = 8;
    const LINK_CTRL_WORDS: u64 = 8;

    /// First data word: the control blocks padded up to a 16-word boundary.
    fn data_start(links: u32) -> u64 {
        let end = W_LINK_CTRL + LINK_CTRL_WORDS * u64::from(links);
        end.next_multiple_of(16)
    }

    /// Total file size in words for a region of `links` links.
    fn region_words(capacity: u32, links: u32) -> u64 {
        data_start(links) + 2 * u64::from(links) * u64::from(capacity)
    }

    pub struct FileBacking {
        file: File,
        capacity: u32,
        /// How many link slots the file declares (fixes the data base).
        links: u32,
        /// Which link slot this backing addresses.
        link: u32,
        /// Path to unlink on drop (the creator owns the file's lifetime).
        unlink_on_drop: Option<PathBuf>,
    }

    impl FileBacking {
        fn write_word(&self, word_off: u64, v: u32) -> Result<(), RingError> {
            self.file
                .write_all_at(&v.to_le_bytes(), word_off * 4)
                .map_err(RingError::from)
        }

        fn read_word(&self, word_off: u64) -> Result<u32, RingError> {
            let mut buf = [0u8; 4];
            self.file.read_exact_at(&mut buf, word_off * 4)?;
            Ok(u32::from_le_bytes(buf))
        }

        fn link_ctrl(&self) -> u64 {
            W_LINK_CTRL + LINK_CTRL_WORDS * u64::from(self.link)
        }

        fn ctrl_word(&self, ring: RingDir, tail: bool) -> u64 {
            self.link_ctrl() + 2 + 2 * ring.index() as u64 + u64::from(tail)
        }

        fn data_base(&self, ring: RingDir) -> u64 {
            data_start(self.links)
                + (2 * u64::from(self.link) + ring.index() as u64) * u64::from(self.capacity)
        }

        /// Creates and sizes a fresh region file at `path` holding `links`
        /// link slots, writing the header; returns the backing for link 0.
        /// The creator unlinks the file when dropped.
        pub fn create(path: &Path, capacity: u32, links: u32) -> io::Result<FileBacking> {
            assert!(
                (1..=MAX_LINKS).contains(&links),
                "region link count {links} outside 1..={MAX_LINKS}"
            );
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(path)?;
            file.set_len(region_words(capacity, links) * 4)?;
            let backing = FileBacking {
                file,
                capacity,
                links,
                link: 0,
                unlink_on_drop: Some(path.to_path_buf()),
            };
            let io_err = |e: RingError| match e {
                RingError::Io(e) => e,
                other => io::Error::other(other.to_string()),
            };
            backing.write_word(W_CAPACITY, capacity).map_err(io_err)?;
            backing.write_word(W_LINKS, links).map_err(io_err)?;
            backing.write_word(W_VERSION, SHM_VERSION).map_err(io_err)?;
            // The magic goes last: an attacher that sees it sees a complete
            // header.
            backing.write_word(W_MAGIC, SHM_MAGIC).map_err(io_err)?;
            Ok(backing)
        }

        /// Opens an existing region file, validating its header, addressing
        /// link slot `link`.
        pub fn attach(path: &Path, link: u32) -> io::Result<FileBacking> {
            let file = OpenOptions::new().read(true).write(true).open(path)?;
            let mut backing = FileBacking {
                file,
                capacity: 0,
                links: 0,
                link,
                unlink_on_drop: None,
            };
            let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
            let word = |off| match backing.read_word(off) {
                Ok(w) => Ok(w),
                Err(RingError::Io(e)) => Err(e),
                Err(other) => Err(invalid(other.to_string())),
            };
            let magic = word(W_MAGIC)?;
            if magic != SHM_MAGIC {
                return Err(invalid(format!(
                    "not a predpkt shm region (magic {magic:#010x})"
                )));
            }
            let version = word(W_VERSION)?;
            if version != SHM_VERSION {
                return Err(invalid(format!(
                    "unsupported shm region version {version} (expected {SHM_VERSION})"
                )));
            }
            let capacity = word(W_CAPACITY)?;
            if !capacity.is_power_of_two()
                || !(super::MIN_RING_WORDS..=super::MAX_RING_WORDS).contains(&capacity)
            {
                return Err(invalid(format!("corrupt shm region capacity {capacity}")));
            }
            let links = word(W_LINKS)?;
            if !(1..=MAX_LINKS).contains(&links) {
                return Err(invalid(format!("corrupt shm region link count {links}")));
            }
            if link >= links {
                return Err(invalid(format!(
                    "link {link} out of range for a {links}-link region"
                )));
            }
            backing.capacity = capacity;
            backing.links = links;
            Ok(backing)
        }
    }

    impl RingBacking for FileBacking {
        fn capacity(&self) -> u32 {
            self.capacity
        }

        fn head(&self, ring: RingDir) -> Result<u32, RingError> {
            self.read_word(self.ctrl_word(ring, false))
        }

        fn set_head(&self, ring: RingDir, v: u32) -> Result<(), RingError> {
            self.write_word(self.ctrl_word(ring, false), v)
        }

        fn tail(&self, ring: RingDir) -> Result<u32, RingError> {
            self.read_word(self.ctrl_word(ring, true))
        }

        fn set_tail(&self, ring: RingDir, v: u32) -> Result<(), RingError> {
            self.write_word(self.ctrl_word(ring, true), v)
        }

        fn write_data(&self, ring: RingDir, slot: u32, data: &[u8]) -> Result<(), RingError> {
            self.file
                .write_all_at(data, (self.data_base(ring) + u64::from(slot)) * 4)
                .map_err(RingError::from)
        }

        fn read_data(&self, ring: RingDir, slot: u32, out: &mut [u8]) -> Result<(), RingError> {
            self.file
                .read_exact_at(out, (self.data_base(ring) + u64::from(slot)) * 4)
                .map_err(RingError::from)
        }

        fn alive(&self, side: Side) -> Result<bool, RingError> {
            Ok(self.read_word(self.link_ctrl() + side_index(side) as u64)? != 0)
        }

        fn set_alive(&self, side: Side, v: bool) -> Result<(), RingError> {
            self.write_word(self.link_ctrl() + side_index(side) as u64, u32::from(v))
        }

        fn poll_is_cheap(&self) -> bool {
            false
        }
    }

    impl Drop for FileBacking {
        fn drop(&mut self) {
            if let Some(path) = &self.unlink_on_drop {
                // The attacher keeps its own descriptor: unlinking only
                // removes the name, never the peer's mapping of the region.
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// A collision-free region path under `/dev/shm` (tmpfs — the file is
    /// memory), falling back to the system temp dir.
    pub fn fresh_region_path() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new("/dev/shm");
        let dir = if dir.is_dir() {
            dir.to_path_buf()
        } else {
            std::env::temp_dir()
        };
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        dir.join(format!(
            "predpkt-shm-{}-{}-{nanos}.ring",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ))
    }
}

/// Constructor for shared-memory channel endpoints (the shared-region
/// sibling of [`TcpTransport`](crate::TcpTransport)).
#[derive(Debug)]
pub struct ShmTransport;

impl ShmTransport {
    /// Creates the two endpoints of an in-process shared-memory channel over
    /// a fresh [`ShmRegion`] with the [default capacity](DEFAULT_RING_WORDS).
    pub fn pair() -> (ShmEndpoint, ShmEndpoint) {
        Self::pair_with_capacity(DEFAULT_RING_WORDS)
    }

    /// Creates an in-process pair whose per-direction rings hold
    /// `ring_words` data words (rounded up to a power of two and clamped to
    /// `[`[`MIN_RING_WORDS`]`, `[`MAX_RING_WORDS`]`]`).
    pub fn pair_with_capacity(ring_words: u32) -> (ShmEndpoint, ShmEndpoint) {
        let mut pairs = Self::mesh(1, ring_words);
        pairs.pop().expect("one-link mesh")
    }

    /// Creates `links` independent in-process channels over **one** shared
    /// region — the fabric form: an N-domain full mesh packs all of its
    /// N×(N−1)/2 edge ring pairs into a single allocation. Tuple order per
    /// link is `(simulator endpoint, accelerator endpoint)`; each link is
    /// its own SPSC ring pair with its own liveness flags, so links fail and
    /// tear down independently.
    ///
    /// # Panics
    ///
    /// When `links` is zero.
    pub fn mesh(links: usize, ring_words: u32) -> Vec<(ShmEndpoint, ShmEndpoint)> {
        assert!(links > 0, "a region carries at least one link");
        let capacity = ring_capacity(ring_words);
        let region = Arc::new(ShmRegion::with_links(capacity, links));
        (0..links)
            .map(|link| {
                let end = |side| {
                    let region = Arc::clone(&region);
                    ShmEndpoint::over_backing(Box::new(HeapBacking { region, link }), side, true)
                };
                (end(Side::Simulator), end(Side::Accelerator))
            })
            .collect()
    }

    /// The file-backed form of [`mesh`](Self::mesh): one `/dev/shm` region
    /// file carrying every link's ring pair. The link-0 simulator endpoint
    /// is the region creator and unlinks the file when dropped; every other
    /// endpoint attaches to the same path (exactly what a peer process
    /// would do with [`ShmEndpoint::attach_link`]).
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, sizing, or attaching the region file.
    ///
    /// # Panics
    ///
    /// When `links` is zero or exceeds the region format's link bound.
    #[cfg(unix)]
    pub fn file_mesh(links: usize, ring_words: u32) -> io::Result<Vec<(ShmEndpoint, ShmEndpoint)>> {
        assert!(links > 0, "a region carries at least one link");
        let path = file_backing::fresh_region_path();
        let mut pairs = Vec::with_capacity(links);
        for link in 0..links {
            let sim = if link == 0 {
                ShmEndpoint::create_mesh(&path, ring_words, links, Side::Simulator)?
            } else {
                ShmEndpoint::attach_link(&path, link, Side::Simulator)?
            };
            let acc = ShmEndpoint::attach_link(&path, link, Side::Accelerator)?;
            pairs.push((sim, acc));
        }
        Ok(pairs)
    }

    /// Creates a *file-backed* pair over a fresh `/dev/shm` tempfile with
    /// the default capacity — the multi-process form, exercised here through
    /// two endpoints of one process (tests, benches). The file is unlinked
    /// when the creating endpoint drops.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, sizing, or attaching the region file.
    #[cfg(unix)]
    pub fn file_pair() -> io::Result<(ShmEndpoint, ShmEndpoint)> {
        Self::file_pair_with_capacity(DEFAULT_RING_WORDS)
    }

    /// The file-backed form of [`pair_with_capacity`](Self::pair_with_capacity).
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, sizing, or attaching the region file.
    #[cfg(unix)]
    pub fn file_pair_with_capacity(ring_words: u32) -> io::Result<(ShmEndpoint, ShmEndpoint)> {
        let path = file_backing::fresh_region_path();
        let sim = ShmEndpoint::create_with_capacity(&path, ring_words, Side::Simulator)?;
        let acc = ShmEndpoint::attach(&path, Side::Accelerator)?;
        Ok((sim, acc))
    }
}

/// Rounds a requested ring size to the implementation's constraints: a
/// power of two (so the word counters index the ring seamlessly across
/// `u32` wraparound) clamped to `[`[`MIN_RING_WORDS`]`, `[`MAX_RING_WORDS`]`]`.
fn ring_capacity(ring_words: u32) -> u32 {
    // The clamp ceiling is itself a power of two, so the round-up cannot
    // escape it.
    ring_words
        .clamp(MIN_RING_WORDS, MAX_RING_WORDS)
        .next_power_of_two()
}

/// One side's endpoint of a shared-memory ring channel: the framed endpoint
/// over a word ring. `Send`, so it moves to its domain's thread (or lives in
/// its domain's process, for the file-backed form); implements
/// [`Transport`](crate::Transport) and [`WaitTransport`](crate::WaitTransport)
/// for the side it belongs to, exactly like
/// [`TcpEndpoint`](crate::TcpEndpoint) / [`ThreadedEndpoint`](crate::ThreadedEndpoint).
pub type ShmEndpoint = FramedEndpoint<Ring>;

mod sealed {
    use super::{RingBacking, Side};
    use std::time::Duration;

    /// One side's view of a link slot's ring pair: the medium under a
    /// [`ShmEndpoint`](super::ShmEndpoint). Public in a private module, so
    /// the endpoint type can name it and nothing outside the crate can.
    pub struct Ring {
        pub(super) side: Side,
        pub(super) backing: Box<dyn RingBacking>,
        /// Local copy of the outbound ring's head (this side is its producer).
        pub(super) out_head: u32,
        /// Local copy of the inbound ring's tail (this side is its consumer).
        pub(super) in_tail: u32,
        /// The peer has been observed attached at least once — required
        /// before a cleared liveness flag can mean "gone" rather than "not
        /// yet attached" (the file-backed form attaches asymmetrically).
        pub(super) peer_seen: bool,
        /// See `SEND_TIMEOUT`; tests shrink it to exercise backpressure
        /// failure without ten-second waits.
        pub(super) send_timeout: Duration,
        /// See `DEFAULT_CHUNK_WORDS`; tests shrink it to place chunk seams
        /// at every offset inside a frame.
        pub(super) chunk_words: u32,
    }
}

use sealed::Ring;

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.backing.capacity())
            .finish_non_exhaustive()
    }
}

impl Ring {
    /// One peer-liveness observation: whether the peer, once seen attached,
    /// has cleared its flag.
    fn peer_gone(&mut self) -> Result<bool, RingError> {
        let alive = self.backing.alive(self.side.peer())?;
        self.peer_seen |= alive;
        Ok(self.peer_seen && !alive)
    }
}

impl Medium for Ring {
    type Error = RingError;

    fn admit(&self, wire_words: u64) -> Result<(), RingError> {
        let frame_words = wire_words + 1;
        if frame_words > u64::from(self.backing.capacity())
            || wire_words > u64::from(tcp::MAX_FRAME_WORDS)
        {
            return Err(RingError::Oversized {
                words: frame_words.min(u64::from(u32::MAX)) as u32,
            });
        }
        Ok(())
    }

    /// Pushes the frames' words into the outbound ring, publishing in
    /// [`chunk_words`](ShmEndpoint::set_chunk_words) slices and waiting
    /// (bounded by the send deadline) whenever the ring is full.
    fn write_frames(&mut self, bytes: &[u8], writes: &mut u64) -> Result<(), RingError> {
        let ring = RingDir::outbound_from(self.side);
        let capacity = self.backing.capacity();
        let words = bytes.len() / 4;
        let mut written = 0usize;
        let mut deadline = None;
        while written < words {
            let free = capacity - self.out_head.wrapping_sub(self.backing.tail(ring)?);
            if free == 0 {
                if self.peer_gone()? {
                    return Err(RingError::PeerGone);
                }
                let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.send_timeout);
                if Instant::now() >= deadline {
                    return Err(RingError::Full {
                        remaining: (words - written) as u32,
                        capacity,
                    });
                }
                thread::sleep(PARK_SLICE);
                continue;
            }
            let slot = self.out_head & (capacity - 1);
            let n = (words - written)
                .min(free as usize)
                .min((capacity - slot) as usize)
                .min(self.chunk_words as usize);
            self.backing
                .write_data(ring, slot, &bytes[4 * written..4 * (written + n)])?;
            self.out_head = self.out_head.wrapping_add(n as u32);
            self.backing.set_head(ring, self.out_head)?;
            *writes += 1;
            written += n;
        }
        Ok(())
    }

    /// One look at the inbound head, copying out what it published (at most
    /// `DRAIN_CHUNK_WORDS` per tail release). Only a ring found empty asks
    /// whether the peer is gone.
    fn try_read(&mut self, room: &mut [u8]) -> Result<Got, RingError> {
        let ring = RingDir::outbound_from(self.side.peer());
        let mut avail = self.backing.head(ring)?.wrapping_sub(self.in_tail);
        if avail == 0 {
            if !self.peer_gone()? {
                return Ok(Got::Nothing);
            }
            // The peer clears its flag strictly after its last publication,
            // so one more look at the head sees everything it sent.
            avail = self.backing.head(ring)?.wrapping_sub(self.in_tail);
            if avail == 0 {
                return Ok(Got::Closed);
            }
        }
        let capacity = self.backing.capacity();
        let slot = self.in_tail & (capacity - 1);
        let n = (avail as usize)
            .min((capacity - slot) as usize)
            .min(DRAIN_CHUNK_WORDS)
            .min(room.len() / 4);
        self.backing.read_data(ring, slot, &mut room[..4 * n])?;
        self.in_tail = self.in_tail.wrapping_add(n as u32);
        self.backing.set_tail(ring, self.in_tail)?;
        Ok(Got::Bytes {
            len: 4 * n,
            more: n < avail as usize,
        })
    }

    /// Bounded spin first: shared-memory handoffs complete in well under a
    /// microsecond and the peer's turnaround in a few, so most waits resolve
    /// there without a sleep (a hard spin on atomic-load polls, a token spin
    /// on syscall polls). Then parks in short slices; every look also
    /// re-checks the peer's liveness flag, so a dropped peer (which clears
    /// its flag on drop) wakes the waiter within one slice.
    fn read_within(&mut self, room: &mut [u8], timeout: Duration) -> Result<Got, RingError> {
        let deadline = Instant::now() + timeout;
        let (mut spins, park) = if self.backing.poll_is_cheap() {
            (SPIN_POLLS, PARK_SLICE)
        } else {
            (SPIN_POLLS_SYSCALL, PARK_SLICE_SYSCALL)
        };
        loop {
            let got = self.try_read(room)?;
            if got != Got::Nothing {
                return Ok(got);
            }
            if spins > 0 {
                spins -= 1;
                std::hint::spin_loop();
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Got::Nothing);
            }
            thread::sleep(park.min(deadline - now));
        }
    }

    fn torn(missing: usize) -> RingError {
        RingError::TornFrame { missing }
    }

    /// Clears this side's liveness flag; a peer's waits re-check it. (The
    /// file backing also unlinks the region file when the creating endpoint
    /// drops.)
    fn close(&mut self) {
        let _ = self.backing.set_alive(self.side, false);
    }
}

impl ShmEndpoint {
    /// `peer_seen` starts true when the peer is attached by construction —
    /// both ends of an in-process pair, and an attacher (whose creator
    /// necessarily preceded it). Only a region *creator* must first observe
    /// its peer attach before a cleared flag can mean "gone".
    fn over_backing(backing: Box<dyn RingBacking>, side: Side, peer_seen: bool) -> Self {
        // Attachment must be visible to the peer before any traffic.
        let _ = backing.set_alive(side, true);
        FramedEndpoint::new(
            side,
            Ring {
                side,
                backing,
                out_head: 0,
                in_tail: 0,
                peer_seen,
                send_timeout: SEND_TIMEOUT,
                chunk_words: DEFAULT_CHUNK_WORDS,
            },
        )
    }

    /// Creates a region file at `path` with the default ring capacity and
    /// returns the creating endpoint for `side`. The peer process calls
    /// [`attach`](Self::attach) with the same path. The file is unlinked
    /// when this endpoint drops (the attached peer keeps its descriptor).
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or sizing the file (including
    /// `AlreadyExists` — region files are never reused).
    #[cfg(unix)]
    pub fn create(path: impl AsRef<std::path::Path>, side: Side) -> io::Result<Self> {
        Self::create_with_capacity(path, DEFAULT_RING_WORDS, side)
    }

    /// [`create`](Self::create) with an explicit per-direction ring capacity
    /// in words (rounded up to a power of two and clamped to
    /// `[`[`MIN_RING_WORDS`]`, `[`MAX_RING_WORDS`]`]`).
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or sizing the file.
    #[cfg(unix)]
    pub fn create_with_capacity(
        path: impl AsRef<std::path::Path>,
        ring_words: u32,
        side: Side,
    ) -> io::Result<Self> {
        Self::create_mesh(path, ring_words, 1, side)
    }

    /// Creates a region file carrying `links` link slots and returns the
    /// creating endpoint for `side` on **link 0** — the multi-process fabric
    /// form of [`create`](Self::create). Peer endpoints (including this
    /// process's other links) call [`attach_link`](Self::attach_link) with
    /// the same path.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or sizing the file.
    ///
    /// # Panics
    ///
    /// When `links` is zero or exceeds the region format's link bound.
    #[cfg(unix)]
    pub fn create_mesh(
        path: impl AsRef<std::path::Path>,
        ring_words: u32,
        links: usize,
        side: Side,
    ) -> io::Result<Self> {
        let links = u32::try_from(links).unwrap_or(u32::MAX);
        let backing =
            file_backing::FileBacking::create(path.as_ref(), ring_capacity(ring_words), links)?;
        Ok(Self::over_backing(Box::new(backing), side, false))
    }

    /// Attaches to an existing region file created by a peer process.
    ///
    /// # Errors
    ///
    /// I/O failures opening the file, or `InvalidData` when the header is
    /// not a supported region (wrong magic, version, or corrupt capacity).
    #[cfg(unix)]
    pub fn attach(path: impl AsRef<std::path::Path>, side: Side) -> io::Result<Self> {
        Self::attach_link(path, 0, side)
    }

    /// Attaches to link slot `link` of an existing multi-link region file —
    /// the fabric form of [`attach`](Self::attach).
    ///
    /// # Errors
    ///
    /// I/O failures opening the file, or `InvalidData` when the header is
    /// not a supported region or `link` is out of range for it.
    #[cfg(unix)]
    pub fn attach_link(
        path: impl AsRef<std::path::Path>,
        link: usize,
        side: Side,
    ) -> io::Result<Self> {
        let link = u32::try_from(link)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "link index overflow"))?;
        let backing = file_backing::FileBacking::attach(path.as_ref(), link)?;
        Ok(Self::over_backing(Box::new(backing), side, true))
    }

    /// Per-direction ring capacity in data words.
    pub fn capacity_words(&self) -> u32 {
        self.medium.backing.capacity()
    }

    /// Overrides the full-ring send deadline (default [`SEND_TIMEOUT`]).
    pub fn set_send_timeout(&mut self, timeout: Duration) {
        self.medium.send_timeout = timeout;
    }

    /// Overrides the words published per head-counter release — test
    /// instrumentation for placing chunk seams (and torn frames) at every
    /// offset inside a frame.
    #[doc(hidden)]
    pub fn set_chunk_words(&mut self, words: u32) {
        self.medium.chunk_words = words.max(1);
    }

    /// Writes raw words into the outbound ring and publishes them without
    /// any framing — fault-injection hook for tests simulating a peer that
    /// crashes mid-frame (write a prefix that promises more words than
    /// follow, then drop the endpoint).
    #[doc(hidden)]
    pub fn inject_raw_words(&mut self, words: &[u32]) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.write_bytes(&bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::tests as both;
    use crate::message::{Packet, PacketTag};
    use crate::transport::{Transport, WaitTransport};

    fn pair() -> (ShmEndpoint, ShmEndpoint) {
        ShmTransport::pair()
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
    fn fifo_order_preserved_across_the_ring() {
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
    fn capacity_rounds_to_power_of_two_within_bounds() {
        assert_eq!(ring_capacity(0), MIN_RING_WORDS);
        assert_eq!(ring_capacity(5), 8);
        assert_eq!(ring_capacity(8), 8);
        assert_eq!(ring_capacity(1000), 1024);
        // A typo'd giant request is clamped, not allocated.
        assert_eq!(ring_capacity(u32::MAX), MAX_RING_WORDS);
        assert_eq!(ring_capacity(MAX_RING_WORDS + 1), MAX_RING_WORDS);
        let (sim, _acc) = ShmTransport::pair_with_capacity(100);
        assert_eq!(sim.capacity_words(), 128);
    }

    #[test]
    fn mesh_links_are_independent_channels_in_one_region() {
        let mut pairs = ShmTransport::mesh(3, 64);
        // Traffic on one link never appears on another.
        for (i, (sim, _acc)) in pairs.iter_mut().enumerate() {
            sim.send(
                Side::Simulator,
                Packet::new(PacketTag::CycleOutputs, vec![i as u32]),
            );
        }
        for (i, (_sim, acc)) in pairs.iter_mut().enumerate() {
            while !acc.wait_for_packet(Duration::from_secs(5)) {}
            assert_eq!(
                acc.recv(Side::Accelerator).unwrap().payload(),
                &[i as u32],
                "link {i} received its own traffic"
            );
            assert_eq!(acc.pending(Side::Accelerator), 0, "no cross-link leakage");
        }
        // Dropping one link's endpoint closes only that link.
        let (sim0, mut acc0) = pairs.remove(0);
        drop(sim0);
        assert!(!acc0.wait_for_packet(Duration::from_millis(50)));
        assert!(acc0.peer_closed(), "link 0 sees its peer gone");
        let (ref mut sim1, ref mut acc1) = pairs[0];
        sim1.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
        assert!(acc1.wait_for_packet(Duration::from_secs(5)));
        assert!(!acc1.peer_closed(), "link 1 unaffected by link 0 teardown");
    }

    #[cfg(unix)]
    #[test]
    fn file_mesh_links_are_independent_channels_in_one_file() {
        let mut pairs = ShmTransport::file_mesh(3, 64).expect("file mesh builds");
        for (i, (sim, _acc)) in pairs.iter_mut().enumerate() {
            sim.send(
                Side::Simulator,
                Packet::new(PacketTag::Burst, vec![i as u32; 5]),
            );
        }
        for (i, (_sim, acc)) in pairs.iter_mut().enumerate() {
            while !acc.wait_for_packet(Duration::from_secs(5)) {}
            assert_eq!(
                acc.recv(Side::Accelerator).unwrap().payload(),
                vec![i as u32; 5].as_slice()
            );
            assert_eq!(acc.pending(Side::Accelerator), 0, "no cross-link leakage");
        }
    }

    #[cfg(unix)]
    #[test]
    fn attach_link_rejects_out_of_range_links() {
        let path = file_backing::fresh_region_path();
        let _creator = ShmEndpoint::create_mesh(&path, 64, 2, Side::Simulator).unwrap();
        assert!(ShmEndpoint::attach_link(&path, 1, Side::Accelerator).is_ok());
        let err = ShmEndpoint::attach_link(&path, 2, Side::Accelerator).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_is_a_typed_error_not_a_hang() {
        let (mut sim, _acc) = ShmTransport::pair_with_capacity(16);
        sim.send(Side::Simulator, Packet::new(PacketTag::Burst, vec![0; 64]));
        assert!(
            matches!(sim.last_error(), Some(RingError::Oversized { words }) if *words == 66),
            "got {:?}",
            sim.last_error()
        );
        // Subsequent sends are dropped on the floor, never panics.
        sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
    }
}
