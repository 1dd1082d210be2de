//! Whole-session checkpoints: one consistent cut of a co-emulation session.
//!
//! A [`SessionCheckpoint`] captures everything a session needs to resume
//! bit-identically at a **committed transition boundary**: every domain's
//! model and predictor state, the committed traces, the wrapper statistics,
//! the channel (including any in-flight frames a cooperative backend holds
//! and the re-armable windows of a
//! [`ReliableTransport`](predpkt_channel::ReliableTransport)), and the
//! virtual-time ledgers. Restoring the checkpoint into a freshly built
//! session of the same backend and running on commits exactly what the
//! original session would have committed — trace hashes, channel statistics,
//! ledgers, and recovery counters included.
//!
//! ## Byte format
//!
//! [`SessionCheckpoint::to_bytes`] serializes through the channel crate's
//! length-prefixed frame codec (the same one
//! [`TcpEndpoint`](predpkt_channel::TcpEndpoint) puts on the wire), as a
//! sequence of [`PacketTag::Checkpoint`] frames:
//!
//! ```text
//! frame 0 (header):   [magic "PKCP"] [version] [backend name] [committed
//!                     cycles] [section count] [CRC-32]
//! frame 1..:          [section label] [section word count] [state words as
//!                     u32 pairs] [CRC-32]        (+ continuation frames
//!                                                 for oversized sections)
//! ```
//!
//! Every frame is sealed by the same CRC-32 that protects `RelData` frames,
//! so a truncated or bit-flipped blob is rejected with a typed
//! [`CheckpointError`] naming the damaged section — never a panic, and never
//! a half-restored session (a restore that fails mid-way poisons the target,
//! which then refuses to step).
//!
//! ## Section labels
//!
//! A session writes, in this order, a section per protocol engine
//! (`wrapper.sim`, `wrapper.acc` — model, predictors, trace, statistics), then
//! a section per channel, then one per virtual-time ledger. Two domains on a
//! shared in-process medium have one channel and one ledger (`channel`,
//! `ledger`); link ends of their own have one each (`channel.sim`,
//! `channel.acc`, `ledger.sim`, `ledger.acc`). Those bare names are edge 0's
//! and are wire format. A session of more domains writes the same six names
//! for every further edge `e` of its mesh behind an `edge{e}.` prefix
//! (`edge1.wrapper.sim` … `edge2.ledger.acc` at three domains: all wrappers
//! first, then all channels, then all ledgers — 18 sections), so a cut grows
//! with the edge count: about 3× a two-domain blob at three domains, 6× at
//! four. Where cuts are taken automatically — a farmed session's eviction
//! insurance —
//! [`set_checkpoint_interval`](crate::SlicedSession::set_checkpoint_interval)
//! is the lever. A restore insists on the exact table, in order: the backend
//! name does not carry the domain count, and the cut of a wider mesh holds
//! every label a narrower one would ask for.
//!
//! Because a checkpoint is just bytes framed like any other packet stream, it
//! can ride the same media sessions use: write it to a socket with
//! [`tcp::write_frame`](predpkt_channel::tcp::write_frame)-framed chunks, or
//! hand it to a session farm to re-admit an evicted session later.

use predpkt_channel::tcp::{encode_frame_into, read_frame, FrameError};
use predpkt_channel::{crc32, Packet, PacketTag};
use predpkt_sim::{SnapshotError, StateReader, StateVec, StateWriter};
use std::error::Error;
use std::fmt;

/// First payload word of a checkpoint header frame: `"PKCP"` little-endian.
pub const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"PKCP");

/// Version of the checkpoint layout this build writes and accepts. The
/// format carries no compatibility shims: a version bump means older blobs
/// are rejected with [`CheckpointError::BadVersion`] rather than misread.
pub const CHECKPOINT_VERSION: u32 = 1;

/// State words per section frame before a continuation frame is started —
/// keeps every frame comfortably under the codec's
/// [`MAX_FRAME_WORDS`](predpkt_channel::MAX_FRAME_WORDS) bound (each state
/// word costs two payload words on the wire).
const SECTION_CHUNK_WORDS: usize = 1 << 17;

/// Why a checkpoint could not be taken, serialized, or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The session is not halted at a committed transition boundary — the
    /// only cut at which both domains' state is consistent.
    NotAtBoundary,
    /// The session was poisoned by an earlier failed restore and holds
    /// unusable state.
    Poisoned(SnapshotError),
    /// The checkpoint was taken on a different backend than the session it
    /// is being restored into; backends serialize different channel state,
    /// so the word streams are not interchangeable.
    BackendMismatch {
        /// The restoring session's backend name.
        expected: String,
        /// The backend name stamped into the checkpoint.
        found: String,
    },
    /// The blob does not start with a checkpoint header frame.
    BadMagic {
        /// The rejected magic word.
        found: u32,
    },
    /// The blob was written by an incompatible checkpoint layout.
    BadVersion {
        /// The rejected version word.
        found: u32,
    },
    /// The blob ended early, carried a malformed frame, or had extra bytes
    /// after the last section.
    Malformed {
        /// What the decoder was doing when the blob broke.
        detail: String,
    },
    /// A frame's CRC-32 seal did not match its contents.
    CrcMismatch {
        /// The section whose frame was damaged (`"header"` for frame 0).
        section: String,
    },
    /// The checkpoint lacks a section the restoring session requires.
    MissingSection {
        /// The absent component label.
        section: String,
    },
    /// The checkpoint carries a section the restoring session has no
    /// component for — the cut of a session with more domains, say, whose
    /// backend name is the same.
    UnexpectedSection {
        /// The surplus component label.
        section: String,
    },
    /// A component rejected its section's words during restore. The target
    /// session is poisoned and will refuse further steps.
    Snapshot {
        /// The component whose restore failed.
        section: String,
        /// The underlying snapshot error.
        source: SnapshotError,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::NotAtBoundary => {
                f.write_str("session is not at a committed transition boundary")
            }
            CheckpointError::Poisoned(e) => {
                write!(
                    f,
                    "session state is poisoned by an earlier failed restore: {e}"
                )
            }
            CheckpointError::BackendMismatch { expected, found } => write!(
                f,
                "checkpoint was taken on backend {found:?}, session runs {expected:?}"
            ),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint blob (magic {found:#010x})")
            }
            CheckpointError::BadVersion { found } => write!(
                f,
                "checkpoint layout version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Malformed { detail } => write!(f, "malformed checkpoint: {detail}"),
            CheckpointError::CrcMismatch { section } => {
                write!(f, "CRC mismatch in checkpoint section {section:?}")
            }
            CheckpointError::MissingSection { section } => {
                write!(f, "checkpoint is missing section {section:?}")
            }
            CheckpointError::UnexpectedSection { section } => {
                write!(f, "checkpoint carries an unexpected section {section:?}")
            }
            CheckpointError::Snapshot { section, source } => {
                write!(f, "restore of section {section:?} failed: {source}")
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Poisoned(e) | CheckpointError::Snapshot { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

/// One consistent cut of a co-emulation session, as labeled state sections.
///
/// Obtained from [`EmuSession::checkpoint`](crate::EmuSession::checkpoint)
/// (or [`CoEmulator::checkpoint`](crate::CoEmulator::checkpoint) /
/// [`SlicedSession::checkpoint`](crate::SlicedSession::checkpoint)); consumed
/// by the matching `restore`. [`to_bytes`](Self::to_bytes) /
/// [`from_bytes`](Self::from_bytes) round-trip it through a framed,
/// CRC-sealed byte blob for migration and storage.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    backend: String,
    committed: u64,
    sections: Vec<(String, StateVec)>,
}

impl SessionCheckpoint {
    pub(crate) fn new(backend: &str, committed: u64) -> Self {
        SessionCheckpoint {
            backend: backend.to_string(),
            committed,
            sections: Vec::new(),
        }
    }

    /// The backend name of the session this checkpoint was taken on (see
    /// [`EmuSession::backend`](crate::EmuSession::backend)); restore targets
    /// must match.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Cycles every domain had committed at the cut.
    pub fn committed_cycles(&self) -> u64 {
        self.committed
    }

    /// The component sections in serialization order, as
    /// `(label, state word count)` — the per-component breakdown of
    /// [`total_words`](Self::total_words).
    pub fn sections(&self) -> impl Iterator<Item = (&str, usize)> {
        self.sections.iter().map(|(l, s)| (l.as_str(), s.len()))
    }

    /// Total state words across all sections.
    pub fn total_words(&self) -> usize {
        self.sections.iter().map(|(_, s)| s.len()).sum()
    }

    pub(crate) fn push_section(&mut self, label: impl Into<String>, state: StateVec) {
        self.sections.push((label.into(), state));
    }

    pub(crate) fn section(&self, label: &str) -> Result<&StateVec, CheckpointError> {
        self.sections
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s)
            .ok_or_else(|| CheckpointError::MissingSection {
                section: label.to_string(),
            })
    }

    /// Serializes into a framed, CRC-sealed byte blob (see the module docs
    /// for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut header = vec![CHECKPOINT_MAGIC, CHECKPOINT_VERSION];
        push_str(&mut header, &self.backend);
        header.push(self.committed as u32);
        header.push((self.committed >> 32) as u32);
        header.push(self.sections.len() as u32);
        seal_frame(&mut out, header);
        for (label, state) in &self.sections {
            let words = state.words();
            let mut first = true;
            let mut chunks = words.chunks(SECTION_CHUNK_WORDS);
            loop {
                // An empty section still needs its (empty) first frame.
                let chunk = chunks.next().unwrap_or(&[]);
                let mut payload = Vec::with_capacity(2 * chunk.len() + 8);
                if first {
                    push_str(&mut payload, label);
                    payload.push(words.len() as u32);
                    payload.push((words.len() >> 32) as u32);
                } else {
                    // Continuation frames carry a zero-length label.
                    payload.push(0);
                }
                for w in chunk {
                    payload.push(*w as u32);
                    payload.push((*w >> 32) as u32);
                }
                seal_frame(&mut out, payload);
                first = false;
                if chunk.len() < SECTION_CHUNK_WORDS {
                    break;
                }
            }
        }
        out
    }

    /// Deserializes a blob produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`CheckpointError`] — wrong
    /// magic or version, a truncated stream, a damaged frame (named by its
    /// section), or trailing bytes. The codec never panics on blob data.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut cursor = bytes;
        let header = open_frame(&mut cursor, "header")?;
        let mut r = PayloadReader::new(header, "header");
        let magic = r.word()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        let version = r.word()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let backend = r.string()?;
        let committed = r.word()? as u64 | (r.word()? as u64) << 32;
        let count = r.word()? as usize;
        r.done()?;
        let mut ckpt = SessionCheckpoint::new(&backend, committed);
        for _ in 0..count {
            let (frame, crc_ok) = open_frame_unverified(&mut cursor, "section")?;
            let mut r = PayloadReader::new(frame, "section");
            // Parse the label before trusting the seal, so a damaged section
            // frame is named by the section it carries; its words are only
            // trusted once the seal checks out.
            let label = match r.string() {
                Ok(label) => label,
                Err(err) if crc_ok => return Err(err),
                Err(_) => String::new(),
            };
            if !crc_ok {
                return Err(CheckpointError::CrcMismatch {
                    section: if label.is_empty() {
                        "section".to_string()
                    } else {
                        label
                    },
                });
            }
            if label.is_empty() {
                return Err(CheckpointError::Malformed {
                    detail: "continuation frame where a section was expected".to_string(),
                });
            }
            let total = r.word()? as u64 | (r.word()? as u64) << 32;
            let total = usize::try_from(total).map_err(|_| CheckpointError::Malformed {
                detail: format!("section {label:?} claims {total} words"),
            })?;
            let mut words = Vec::with_capacity(total.min(SECTION_CHUNK_WORDS));
            loop {
                while r.remaining() > 0 && words.len() < total {
                    let lo = r.word()? as u64;
                    let hi = r.word()? as u64;
                    words.push(lo | hi << 32);
                }
                r.done()?;
                if words.len() >= total {
                    break;
                }
                let frame = open_frame(&mut cursor, &label)?;
                r = PayloadReader::new(frame, &label);
                let marker = r.word()?;
                if marker != 0 {
                    return Err(CheckpointError::Malformed {
                        detail: format!("section {label:?} continuation carries a label"),
                    });
                }
            }
            ckpt.push_section(label, StateVec::from(words));
        }
        if !cursor.is_empty() {
            return Err(CheckpointError::Malformed {
                detail: format!("{} trailing bytes after the last section", cursor.len()),
            });
        }
        Ok(ckpt)
    }
}

/// Appends `payload` (plus its CRC-32 seal) to `out` as one
/// [`PacketTag::Checkpoint`] frame.
fn seal_frame(out: &mut Vec<u8>, mut payload: Vec<u32>) {
    payload.push(crc32(&payload));
    encode_frame_into(out, &Packet::new(PacketTag::Checkpoint, payload));
}

/// Reads the next checkpoint frame off `cursor`, verifying its tag and
/// CRC-32 seal, and returns the payload with the seal stripped.
fn open_frame(cursor: &mut &[u8], section: &str) -> Result<Vec<u32>, CheckpointError> {
    let (body, crc_ok) = open_frame_unverified(cursor, section)?;
    if !crc_ok {
        return Err(CheckpointError::CrcMismatch {
            section: section.to_string(),
        });
    }
    Ok(body)
}

/// Reads the next checkpoint frame off `cursor`, verifying its tag, and
/// returns the payload (seal stripped) plus whether the CRC-32 seal checked
/// out. The section loop uses the unverified body to parse the damaged
/// frame's own label, so a CRC failure can name the section it hit instead
/// of a positional placeholder.
fn open_frame_unverified(
    cursor: &mut &[u8],
    section: &str,
) -> Result<(Vec<u32>, bool), CheckpointError> {
    let packet = read_frame(cursor).map_err(|e| frame_error(e, section))?;
    if packet.tag() != PacketTag::Checkpoint {
        return Err(CheckpointError::Malformed {
            detail: format!("unexpected {} frame in a checkpoint blob", packet.tag()),
        });
    }
    let payload = packet.payload();
    let Some((&seal, body)) = payload.split_last() else {
        return Err(CheckpointError::Malformed {
            detail: format!("checkpoint frame for {section:?} has no CRC seal"),
        });
    };
    Ok((body.to_vec(), crc32(body) == seal))
}

fn frame_error(e: FrameError, section: &str) -> CheckpointError {
    match e {
        FrameError::Closed | FrameError::Truncated { .. } | FrameError::Io(_) => {
            CheckpointError::Malformed {
                detail: format!("blob ends before the {section:?} frame is complete"),
            }
        }
        other => CheckpointError::Malformed {
            detail: format!("bad frame where {section:?} was expected: {other}"),
        },
    }
}

/// Appends a UTF-8 string as `[byte length][bytes packed LE into words]`.
fn push_str(out: &mut Vec<u32>, s: &str) {
    out.push(s.len() as u32);
    for chunk in s.as_bytes().chunks(4) {
        let mut word = [0u8; 4];
        word[..chunk.len()].copy_from_slice(chunk);
        out.push(u32::from_le_bytes(word));
    }
}

/// Bounds-checked reader over one frame's sealed payload.
struct PayloadReader {
    words: Vec<u32>,
    pos: usize,
    section: String,
}

impl PayloadReader {
    fn new(words: Vec<u32>, section: &str) -> Self {
        PayloadReader {
            words,
            pos: 0,
            section: section.to_string(),
        }
    }

    fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    fn word(&mut self) -> Result<u32, CheckpointError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| CheckpointError::Malformed {
                detail: format!("{:?} frame ends early", self.section),
            })?;
        self.pos += 1;
        Ok(w)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let len = self.word()? as usize;
        let word_count = len.div_ceil(4);
        if self.remaining() < word_count {
            return Err(CheckpointError::Malformed {
                detail: format!("{:?} frame ends inside a string", self.section),
            });
        }
        let mut bytes = Vec::with_capacity(len);
        for i in 0..word_count {
            bytes.extend_from_slice(&self.words[self.pos + i].to_le_bytes());
        }
        self.pos += word_count;
        bytes.truncate(len);
        String::from_utf8(bytes).map_err(|_| CheckpointError::Malformed {
            detail: format!("{:?} frame carries a non-UTF-8 label", self.section),
        })
    }

    fn done(&self) -> Result<(), CheckpointError> {
        if self.pos != self.words.len() {
            return Err(CheckpointError::Malformed {
                detail: format!(
                    "{:?} frame has {} unread payload words",
                    self.section,
                    self.remaining()
                ),
            });
        }
        Ok(())
    }
}

/// Runs a component's `save` into a fresh [`StateVec`] — the section builder
/// the session layers use.
pub(crate) fn save_section(f: impl FnOnce(&mut StateWriter<'_>)) -> StateVec {
    let mut state = StateVec::new();
    let mut w = StateWriter::new(&mut state);
    f(&mut w);
    state
}

/// Restores one component from its checkpoint section, insisting the section
/// is consumed exactly.
pub(crate) fn restore_section(
    ckpt: &SessionCheckpoint,
    label: &str,
    f: impl FnOnce(&mut StateReader<'_>) -> Result<(), SnapshotError>,
) -> Result<(), CheckpointError> {
    let state = ckpt.section(label)?;
    let mut r = StateReader::new(state);
    let lift = |source: SnapshotError| CheckpointError::Snapshot {
        section: label.to_string(),
        source,
    };
    f(&mut r).map_err(lift)?;
    r.finish().map_err(lift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionCheckpoint {
        let mut ckpt = SessionCheckpoint::new("queue", 1234);
        ckpt.push_section("alpha", StateVec::from(vec![1, 2, 3, u64::MAX]));
        ckpt.push_section("beta", StateVec::from(vec![]));
        ckpt.push_section("gamma", StateVec::from(vec![0xdead_beef_cafe_f00d; 9]));
        ckpt
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let back = SessionCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.backend(), "queue");
        assert_eq!(back.committed_cycles(), 1234);
        assert_eq!(
            back.sections().collect::<Vec<_>>(),
            ckpt.sections().collect::<Vec<_>>()
        );
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn oversized_sections_split_into_continuation_frames() {
        let mut ckpt = SessionCheckpoint::new("queue", 7);
        let big: Vec<u64> = (0..(SECTION_CHUNK_WORDS as u64 * 2 + 17)).collect();
        ckpt.push_section("big", StateVec::from(big.clone()));
        let back = SessionCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back.section("big").unwrap().words(), big.as_slice());
    }

    #[test]
    fn truncated_blobs_are_rejected_typed() {
        let bytes = sample().to_bytes();
        for cut in [3, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = SessionCheckpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Malformed { .. } | CheckpointError::CrcMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_damaged_sections_crc() {
        let ckpt = sample();
        let clean = ckpt.to_bytes();
        // Flip one bit somewhere in every frame body; the damaged frame's
        // seal (or the codec itself) must catch each one.
        let mut rejected = 0;
        for at in (4..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            if SessionCheckpoint::from_bytes(&bytes).is_err() {
                rejected += 1;
            }
        }
        // Flips in label-length padding or the length prefix low bits can
        // coincidentally decode; the overwhelming majority must not.
        assert!(rejected > 0, "no corruption detected at all");
        let mut bytes = clean;
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        assert!(matches!(
            SessionCheckpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::CrcMismatch { .. } | CheckpointError::Malformed { .. }
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_named() {
        assert!(matches!(
            SessionCheckpoint::from_bytes(&[0; 2]).unwrap_err(),
            CheckpointError::Malformed { .. }
        ));
        // A correctly sealed header frame with the wrong magic word.
        let mut bytes = Vec::new();
        seal_frame(&mut bytes, vec![0x1234_5678, CHECKPOINT_VERSION]);
        assert_eq!(
            SessionCheckpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::BadMagic { found: 0x1234_5678 }
        );
        // ... and with a future layout version.
        let mut bytes = Vec::new();
        seal_frame(&mut bytes, vec![CHECKPOINT_MAGIC, CHECKPOINT_VERSION + 7]);
        assert_eq!(
            SessionCheckpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::BadVersion {
                found: CHECKPOINT_VERSION + 7
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            SessionCheckpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::Malformed { .. }
        ));
    }

    #[test]
    fn missing_sections_are_named() {
        let ckpt = sample();
        let err = ckpt.section("delta").unwrap_err();
        assert_eq!(
            err,
            CheckpointError::MissingSection {
                section: "delta".to_string()
            }
        );
    }
}
