//! Wire packets: tagged word payloads.
//!
//! The channel moves 32-bit words (the paper's PCI target is a 32-bit bus). A
//! [`Packet`] is a tag plus a word payload; the tag travels in the first word on
//! the wire, so [`Packet::wire_words`] — the figure the cost model charges — is
//! `1 + payload length`.

use std::fmt;

/// Message kind, encoded into the first wire word.
///
/// The protocol of `predpkt-core` uses these tags to drive the channel-wrapper
/// state machine: a lagger blocked in *Read input data* distinguishes a
/// conventional per-cycle exchange from a LOB burst by tag alone (this is how a
/// conservative CW learns that its peer has started leading).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PacketTag {
    /// One cycle's signal values, conservative mode.
    CycleOutputs,
    /// A packetized LOB flush: head cycle + predicted entries.
    Burst,
    /// Lagger report: every prediction checked out.
    ReportSuccess,
    /// Lagger report: prediction failure, actual values attached.
    ReportFailure,
    /// Initial handshake / configuration exchange. The default, so an empty
    /// handshake is the packet a restore fills in.
    #[default]
    Handshake,
    /// A sequence-numbered, CRC-protected data frame of the reliable layer
    /// (wraps one of the protocol packets above; never reaches the protocol
    /// decoder directly).
    RelData,
    /// A cumulative acknowledgement of the reliable layer.
    RelAck,
    /// One labeled section of a serialized whole-session checkpoint (magic /
    /// version header, component payloads, CRC trailer). Checkpoint blobs are
    /// a framed sequence of these, so they can be written to disk or streamed
    /// over any transport that moves packets.
    Checkpoint,
}

impl PacketTag {
    /// Encodes the tag as a wire word.
    pub fn encode(self) -> u32 {
        match self {
            PacketTag::CycleOutputs => 0x4359_434c,  // "CYCL"
            PacketTag::Burst => 0x4255_5253,         // "BURS"
            PacketTag::ReportSuccess => 0x524f_4b21, // "ROK!"
            PacketTag::ReportFailure => 0x5246_4149, // "RFAI"
            PacketTag::Handshake => 0x4853_4b21,     // "HSK!"
            PacketTag::RelData => 0x5244_4154,       // "RDAT"
            PacketTag::RelAck => 0x5241_434b,        // "RACK"
            PacketTag::Checkpoint => 0x434b_5054,    // "CKPT"
        }
    }

    /// Decodes a wire word back into a tag.
    pub fn decode(word: u32) -> Option<PacketTag> {
        match word {
            0x4359_434c => Some(PacketTag::CycleOutputs),
            0x4255_5253 => Some(PacketTag::Burst),
            0x524f_4b21 => Some(PacketTag::ReportSuccess),
            0x5246_4149 => Some(PacketTag::ReportFailure),
            0x4853_4b21 => Some(PacketTag::Handshake),
            0x5244_4154 => Some(PacketTag::RelData),
            0x5241_434b => Some(PacketTag::RelAck),
            0x434b_5054 => Some(PacketTag::Checkpoint),
            _ => None,
        }
    }

    /// All tags (for exhaustive tests).
    pub const ALL: [PacketTag; 8] = [
        PacketTag::CycleOutputs,
        PacketTag::Burst,
        PacketTag::ReportSuccess,
        PacketTag::ReportFailure,
        PacketTag::Handshake,
        PacketTag::RelData,
        PacketTag::RelAck,
        PacketTag::Checkpoint,
    ];
}

impl fmt::Display for PacketTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

// The tag's one wire word, refused at that word when it names no tag.
predpkt_sim::declare_state! { impl PacketTag: word(encode, decode) }

/// A tagged word payload moving across the channel.
///
/// # Example
///
/// ```
/// use predpkt_channel::{Packet, PacketTag};
/// let p = Packet::new(PacketTag::Burst, vec![1, 2, 3]);
/// assert_eq!(p.wire_words(), 4); // tag word + 3 payload words
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packet {
    tag: PacketTag,
    payload: Vec<u32>,
}

impl Packet {
    /// Creates a packet from a tag and payload words.
    pub fn new(tag: PacketTag, payload: Vec<u32>) -> Self {
        Packet { tag, payload }
    }

    /// The message tag.
    pub fn tag(&self) -> PacketTag {
        self.tag
    }

    /// Borrows the payload words (tag not included).
    pub fn payload(&self) -> &[u32] {
        &self.payload
    }

    /// Consumes the packet, returning the payload.
    pub fn into_payload(self) -> Vec<u32> {
        self.payload
    }

    /// Exclusive access to the payload words — crate-internal so wrapper
    /// layers (the reliable transport's ack refresh) can patch header words
    /// in place without re-allocating the frame.
    pub(crate) fn payload_mut(&mut self) -> &mut [u32] {
        &mut self.payload
    }

    /// Number of words this packet occupies on the wire (tag + payload).
    pub fn wire_words(&self) -> u64 {
        1 + self.payload.len() as u64
    }

    /// Appends the packet's wire words (tag first) to `out` — the
    /// allocation-free sibling of [`to_wire`](Self::to_wire). Callers own the
    /// scratch buffer and reuse it across packets, so steady-state encoding
    /// never touches the heap once the buffer has grown to the working set.
    pub fn encode_into(&self, out: &mut Vec<u32>) {
        out.reserve(1 + self.payload.len());
        out.push(self.tag.encode());
        out.extend_from_slice(&self.payload);
    }

    /// Serializes to raw wire words (tag first).
    ///
    /// Allocates a fresh vector per call; hot paths use
    /// [`encode_into`](Self::encode_into) with a reused scratch buffer
    /// instead.
    pub fn to_wire(&self) -> Vec<u32> {
        let mut w = Vec::with_capacity(self.payload.len() + 1);
        self.encode_into(&mut w);
        w
    }

    /// Parses raw wire words back into a packet.
    ///
    /// Returns `None` on an empty slice or unknown tag.
    pub fn from_wire(words: &[u32]) -> Option<Packet> {
        PacketView::parse(words).map(|v| v.to_packet())
    }
}

// Tag word plus length-prefixed payload, restored into the packet's own
// buffer. An unknown tag word is corrupt at that word, so corrupt checkpoint
// blobs fail loudly instead of resurrecting a garbage packet.
predpkt_sim::declare_state! { impl Packet { tag, payload } }

/// A borrowed decode of raw wire words: the tag plus a payload *slice* into
/// the caller's buffer. Decoding through a view costs nothing; the copy (if
/// one is needed at all) happens only when the caller materializes a
/// [`Packet`], and can then target a pooled buffer.
///
/// # Example
///
/// ```
/// use predpkt_channel::{Packet, PacketTag, PacketView};
/// let wire = Packet::new(PacketTag::Burst, vec![1, 2, 3]).to_wire();
/// let view = PacketView::parse(&wire).unwrap();
/// assert_eq!(view.tag(), PacketTag::Burst);
/// assert_eq!(view.payload(), &[1, 2, 3]);
/// assert_eq!(view.wire_words(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    tag: PacketTag,
    payload: &'a [u32],
}

impl<'a> PacketView<'a> {
    /// Borrows a decode of `words` (tag word first).
    ///
    /// Returns `None` on an empty slice or unknown tag — the same inputs
    /// [`Packet::from_wire`] rejects.
    pub fn parse(words: &'a [u32]) -> Option<PacketView<'a>> {
        let (&tag_word, payload) = words.split_first()?;
        Some(PacketView {
            tag: PacketTag::decode(tag_word)?,
            payload,
        })
    }

    /// The message tag.
    pub fn tag(&self) -> PacketTag {
        self.tag
    }

    /// The borrowed payload words (tag not included).
    pub fn payload(&self) -> &'a [u32] {
        self.payload
    }

    /// Number of words the packet occupies on the wire (tag + payload).
    pub fn wire_words(&self) -> u64 {
        1 + self.payload.len() as u64
    }

    /// Materializes an owned [`Packet`], allocating a fresh payload.
    pub fn to_packet(&self) -> Packet {
        Packet::new(self.tag, self.payload.to_vec())
    }

    /// Materializes an owned [`Packet`] into `buf` (cleared first) — pair
    /// with a [`BufferPool`](crate::BufferPool) to keep the decode path off
    /// the allocator.
    pub fn to_packet_into(&self, mut buf: Vec<u32>) -> Packet {
        buf.clear();
        buf.extend_from_slice(self.payload);
        Packet::new(self.tag, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_all() {
        for tag in PacketTag::ALL {
            assert_eq!(PacketTag::decode(tag.encode()), Some(tag));
        }
    }

    #[test]
    fn tag_encodings_distinct() {
        let mut codes: Vec<u32> = PacketTag::ALL.iter().map(|t| t.encode()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), PacketTag::ALL.len());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(PacketTag::decode(0xdead_beef), None);
    }

    #[test]
    fn packet_wire_roundtrip() {
        let p = Packet::new(PacketTag::ReportFailure, vec![7, 8, 9]);
        let wire = p.to_wire();
        assert_eq!(wire.len() as u64, p.wire_words());
        assert_eq!(Packet::from_wire(&wire), Some(p));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = Packet::new(PacketTag::Handshake, vec![]);
        assert_eq!(p.wire_words(), 1);
        assert_eq!(Packet::from_wire(&p.to_wire()), Some(p));
    }

    #[test]
    fn from_wire_rejects_empty_and_garbage() {
        assert_eq!(Packet::from_wire(&[]), None);
        assert_eq!(Packet::from_wire(&[0x1234_5678, 1, 2]), None);
    }

    #[test]
    fn into_payload_moves() {
        let p = Packet::new(PacketTag::CycleOutputs, vec![42]);
        assert_eq!(p.into_payload(), vec![42]);
    }

    #[test]
    fn tag_display() {
        assert_eq!(PacketTag::Burst.to_string(), "Burst");
    }

    #[test]
    fn encode_into_appends_and_matches_to_wire() {
        let p = Packet::new(PacketTag::Burst, vec![5, 6]);
        let mut scratch = vec![0xffff_ffff];
        p.encode_into(&mut scratch);
        assert_eq!(scratch[0], 0xffff_ffff, "existing contents are kept");
        assert_eq!(&scratch[1..], p.to_wire().as_slice());
    }

    #[test]
    fn view_parses_without_copying_and_roundtrips() {
        let p = Packet::new(PacketTag::ReportFailure, vec![7, 8, 9]);
        let wire = p.to_wire();
        let view = PacketView::parse(&wire).unwrap();
        assert_eq!(view.tag(), p.tag());
        assert_eq!(view.payload(), p.payload());
        assert_eq!(view.wire_words(), p.wire_words());
        assert_eq!(view.to_packet(), p);
        // Materializing into a reused buffer keeps its capacity.
        let buf = Vec::with_capacity(64);
        let rebuilt = view.to_packet_into(buf);
        assert_eq!(rebuilt, p);
        assert!(rebuilt.payload().len() <= 64);
    }

    #[test]
    fn view_rejects_what_from_wire_rejects() {
        assert_eq!(PacketView::parse(&[]), None);
        assert_eq!(PacketView::parse(&[0x1234_5678, 1]), None);
    }
}
