//! Wire protocol: typed messages over tagged word packets.
//!
//! Five message kinds drive the channel-wrapper state machine (the tag doubles
//! as the lagger's mode signal — a CW blocked in *Read input data* learns
//! whether its peer is running conservatively or leading by the tag alone):
//!
//! | Message | Paper step | Payload |
//! |---|---|---|
//! | `Handshake` | setup | width agreement |
//! | `CycleOutputs` | C-path exchange | one cycle of local outputs |
//! | `Burst` | S-2 *Flush LOB* | delta-packetized LOB entries + the leader's next-cycle outputs |
//! | `ReportSuccess` | R-path | lagger's next-cycle outputs |
//! | `ReportFailure` | L-5 | failing index, actual outputs, next-cycle outputs |

use crate::wrapper::lob_entries_to_blocks;
use predpkt_channel::{Packet, PacketTag};
use predpkt_predict::{decode_block, encode_block, LobEntry};
use std::error::Error;
use std::fmt;

/// Protocol-level decode failure (always a programming error or corruption,
/// never an expected runtime event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Payload shorter than the fixed message layout.
    Truncated {
        /// The offending tag.
        tag: PacketTag,
    },
    /// Width fields disagree with the local model.
    WidthMismatch {
        /// Width announced by the peer.
        announced: usize,
        /// Width expected locally.
        expected: usize,
    },
    /// The delta block failed to decode.
    BadBlock,
    /// Unexpected message kind for the current wrapper phase.
    Unexpected {
        /// The offending tag.
        tag: PacketTag,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { tag } => write!(f, "truncated {tag} message"),
            ProtocolError::WidthMismatch {
                announced,
                expected,
            } => {
                write!(
                    f,
                    "width mismatch: peer announced {announced}, expected {expected}"
                )
            }
            ProtocolError::BadBlock => write!(f, "malformed delta block"),
            ProtocolError::Unexpected { tag } => write!(f, "unexpected {tag} message"),
        }
    }
}

impl Error for ProtocolError {}

/// A decoded protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Width agreement: (my local width, my remote width).
    Handshake {
        /// Sender's local output width.
        local_width: usize,
        /// Sender's expectation of the peer's width.
        remote_width: usize,
    },
    /// One conservative cycle of outputs.
    CycleOutputs {
        /// The sender's packed local outputs.
        outputs: Vec<u32>,
    },
    /// A LOB flush.
    Burst {
        /// Buffered entries in cycle order.
        entries: Vec<LobEntry>,
        /// The leader's Moore outputs for the cycle after the burst (valid only
        /// if every prediction checks out).
        leader_next: Vec<u32>,
    },
    /// Every prediction checked out.
    ReportSuccess {
        /// The lagger's Moore outputs for the next cycle.
        next: Vec<u32>,
    },
    /// A prediction failed.
    ReportFailure {
        /// Index (into the burst's entries) of the failing cycle.
        failed_index: usize,
        /// The lagger's actual outputs for that cycle.
        actual: Vec<u32>,
        /// The lagger's Moore outputs for the cycle after it.
        next: Vec<u32>,
    },
}

impl Message {
    /// Serializes into a tagged packet.
    pub fn encode(&self, _local_width: usize, remote_width: usize) -> Packet {
        match self {
            Message::Handshake {
                local_width,
                remote_width,
            } => Packet::new(
                PacketTag::Handshake,
                vec![*local_width as u32, *remote_width as u32],
            ),
            Message::CycleOutputs { outputs } => {
                Packet::new(PacketTag::CycleOutputs, outputs.clone())
            }
            Message::Burst {
                entries,
                leader_next,
            } => {
                let mut payload = encode_block(&lob_entries_to_blocks(entries, remote_width));
                payload.extend_from_slice(leader_next);
                Packet::new(PacketTag::Burst, payload)
            }
            Message::ReportSuccess { next } => Packet::new(PacketTag::ReportSuccess, next.clone()),
            Message::ReportFailure {
                failed_index,
                actual,
                next,
            } => {
                let mut payload = vec![*failed_index as u32];
                payload.extend_from_slice(actual);
                payload.extend_from_slice(next);
                Packet::new(PacketTag::ReportFailure, payload)
            }
        }
    }

    /// Decodes a packet received by a domain whose local outputs are
    /// `local_width` words and whose peer outputs are `remote_width` words.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on malformed payloads.
    pub fn decode(
        packet: &Packet,
        local_width: usize,
        remote_width: usize,
    ) -> Result<Message, ProtocolError> {
        let p = packet.payload();
        match packet.tag() {
            PacketTag::Handshake => {
                if p.len() != 2 {
                    return Err(ProtocolError::Truncated { tag: packet.tag() });
                }
                Ok(Message::Handshake {
                    local_width: p[0] as usize,
                    remote_width: p[1] as usize,
                })
            }
            PacketTag::CycleOutputs => {
                if p.len() != remote_width {
                    return Err(ProtocolError::Truncated { tag: packet.tag() });
                }
                Ok(Message::CycleOutputs {
                    outputs: p.to_vec(),
                })
            }
            PacketTag::Burst => {
                // The payload is the delta block followed by exactly
                // `remote_width` leader_next words, so the split point is
                // known before the block is parsed.
                let Some(block_len) = p.len().checked_sub(remote_width) else {
                    return Err(ProtocolError::Truncated { tag: packet.tag() });
                };
                let (block, leader_next) = p.split_at(block_len);
                // The sender's remote width is OUR local width: entries embed
                // predictions of our outputs.
                let entry_words = 1 + remote_width + local_width;
                // A non-empty block of any other width fails the per-entry
                // check below; refuse it on its header, before the peer's
                // count word drives the parse (zero-width entries cost no
                // wire words, so nothing else bounds how many a block claims).
                if matches!(block, [count, width, ..] if *count != 0 && *width as usize != entry_words)
                {
                    return Err(ProtocolError::BadBlock);
                }
                let blocks = decode_block(block).map_err(|_| ProtocolError::BadBlock)?;
                let mut entries = Vec::with_capacity(blocks.len());
                for b in &blocks {
                    if b.len() != entry_words {
                        return Err(ProtocolError::BadBlock);
                    }
                    let has_prediction = b[0] != 0;
                    let local = b[1..1 + remote_width].to_vec();
                    let predicted = has_prediction.then(|| b[1 + remote_width..].to_vec());
                    entries.push(LobEntry { local, predicted });
                }
                Ok(Message::Burst {
                    entries,
                    leader_next: leader_next.to_vec(),
                })
            }
            PacketTag::ReportSuccess => {
                if p.len() != remote_width {
                    return Err(ProtocolError::Truncated { tag: packet.tag() });
                }
                Ok(Message::ReportSuccess { next: p.to_vec() })
            }
            PacketTag::ReportFailure => {
                if p.len() != 1 + 2 * remote_width {
                    return Err(ProtocolError::Truncated { tag: packet.tag() });
                }
                Ok(Message::ReportFailure {
                    failed_index: p[0] as usize,
                    actual: p[1..1 + remote_width].to_vec(),
                    next: p[1 + remote_width..].to_vec(),
                })
            }
            // Reliability-layer frames are consumed by `ReliableTransport`
            // below the protocol, and checkpoint section frames live only
            // inside serialized checkpoint blobs; either reaching the decoder
            // means the session was misconfigured (a raw transport carrying
            // framed traffic, or a checkpoint blob replayed as live traffic).
            PacketTag::RelData | PacketTag::RelAck | PacketTag::Checkpoint => {
                Err(ProtocolError::Unexpected { tag: packet.tag() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Widths used throughout: sender local = 3 words, sender remote = 2 words.
    const LW: usize = 3;
    const RW: usize = 2;

    /// Encodes as the sender (local 3 / remote 2), decodes as the receiver
    /// (local 2 / remote 3).
    fn roundtrip(msg: &Message) -> Message {
        let pkt = msg.encode(LW, RW);
        Message::decode(&pkt, RW, LW).unwrap()
    }

    #[test]
    fn handshake_roundtrip() {
        let m = Message::Handshake {
            local_width: 3,
            remote_width: 2,
        };
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn cycle_outputs_roundtrip() {
        let m = Message::CycleOutputs {
            outputs: vec![1, 2, 3],
        };
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn burst_roundtrip_with_head_and_predictions() {
        let m = Message::Burst {
            entries: vec![
                LobEntry {
                    local: vec![1, 2, 3],
                    predicted: None,
                },
                LobEntry {
                    local: vec![4, 5, 6],
                    predicted: Some(vec![7, 8]),
                },
                LobEntry {
                    local: vec![4, 5, 9],
                    predicted: Some(vec![7, 8]),
                },
            ],
            leader_next: vec![10, 11, 12],
        };
        assert_eq!(roundtrip(&m), m);

        // The receiver splits the payload at `len - LW` before parsing: a
        // payload too short to hold leader_next is truncated, and a prefix
        // that is not a delta block is a bad block — neither panics.
        let wire = m.encode(LW, RW);
        let decode = |payload: &[u32]| {
            Message::decode(&Packet::new(PacketTag::Burst, payload.to_vec()), RW, LW)
        };
        assert_eq!(
            decode(&wire.payload()[..LW - 1]),
            Err(ProtocolError::Truncated {
                tag: PacketTag::Burst
            })
        );
        let mut garbage = wire.payload().to_vec();
        garbage.remove(2); // the block now ends one word early
        assert_eq!(decode(&garbage), Err(ProtocolError::BadBlock));
        assert_eq!(decode(&[7; 5]), Err(ProtocolError::BadBlock));
        // A block prefix announcing 2^32 - 1 entries in three words.
        assert_eq!(
            decode(&[u32::MAX, 1, 0, 10, 11, 12]),
            Err(ProtocolError::BadBlock)
        );
        // The same count over zero-width entries, which no word count bounds.
        assert_eq!(
            decode(&[u32::MAX, 0, 10, 11, 12]),
            Err(ProtocolError::BadBlock)
        );
    }

    #[test]
    fn burst_compresses_stable_entries() {
        let entries: Vec<LobEntry> = (0..64)
            .map(|i| LobEntry {
                local: vec![0x100 + i, 7, 7],
                predicted: Some(vec![9, 9]),
            })
            .collect();
        let m = Message::Burst {
            entries,
            leader_next: vec![0, 0, 0],
        };
        let pkt = m.encode(LW, RW);
        let raw_words = 64 * (1 + 3 + 2) + 3;
        assert!(
            (pkt.wire_words() as usize) < raw_words / 2,
            "delta packetizing shrinks the flush ({} vs {raw_words})",
            pkt.wire_words()
        );
        assert_eq!(Message::decode(&pkt, RW, LW).unwrap(), m);
    }

    #[test]
    fn reports_roundtrip() {
        let ok = Message::ReportSuccess {
            next: vec![5, 6, 7],
        };
        assert_eq!(roundtrip(&ok), ok);
        let fail = Message::ReportFailure {
            failed_index: 4,
            actual: vec![1, 2, 3],
            next: vec![9, 8, 7],
        };
        assert_eq!(roundtrip(&fail), fail);
    }

    #[test]
    fn truncated_rejected() {
        let pkt = Packet::new(PacketTag::ReportSuccess, vec![1]);
        assert!(Message::decode(&pkt, RW, LW).is_err());
        let pkt = Packet::new(PacketTag::Handshake, vec![]);
        assert!(Message::decode(&pkt, RW, LW).is_err());
    }

    #[test]
    fn error_display() {
        assert!(ProtocolError::BadBlock.to_string().contains("delta block"));
        assert!(ProtocolError::WidthMismatch {
            announced: 2,
            expected: 3
        }
        .to_string()
        .contains("width mismatch"));
    }
}
