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

use predpkt_channel::{Packet, PacketTag};
use predpkt_predict::LobEntries;
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

/// A protocol message over borrowed words: what is encoded lends the
/// sender's buffers, what is decoded lends the received payload (and, for a
/// burst, the caller's decode buffer), so neither direction copies a vector
/// into a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message<'a> {
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
        outputs: &'a [u32],
    },
    /// A LOB flush.
    Burst {
        /// Buffered entries in cycle order.
        entries: LobEntries<'a>,
        /// The leader's Moore outputs for the cycle after the burst (valid only
        /// if every prediction checks out).
        leader_next: &'a [u32],
    },
    /// Every prediction checked out.
    ReportSuccess {
        /// The lagger's Moore outputs for the next cycle.
        next: &'a [u32],
    },
    /// A prediction failed.
    ReportFailure {
        /// Index (into the burst's entries) of the failing cycle.
        failed_index: usize,
        /// The lagger's actual outputs for that cycle.
        actual: &'a [u32],
        /// The lagger's Moore outputs for the cycle after it.
        next: &'a [u32],
    },
}

impl<'a> Message<'a> {
    /// The tag the message travels under: its kind.
    pub fn tag(&self) -> PacketTag {
        match self {
            Message::Handshake { .. } => PacketTag::Handshake,
            Message::CycleOutputs { .. } => PacketTag::CycleOutputs,
            Message::Burst { .. } => PacketTag::Burst,
            Message::ReportSuccess { .. } => PacketTag::ReportSuccess,
            Message::ReportFailure { .. } => PacketTag::ReportFailure,
        }
    }

    /// Appends the message's payload words to `payload` (a pooled buffer on
    /// the hot path) and returns the tag they travel under.
    pub fn encode_into(&self, payload: &mut Vec<u32>) -> PacketTag {
        match *self {
            Message::Handshake {
                local_width,
                remote_width,
            } => payload.extend_from_slice(&[local_width as u32, remote_width as u32]),
            Message::CycleOutputs { outputs } => payload.extend_from_slice(outputs),
            Message::Burst {
                entries,
                leader_next,
            } => {
                entries.encode_into(payload);
                payload.extend_from_slice(leader_next);
            }
            Message::ReportSuccess { next } => payload.extend_from_slice(next),
            Message::ReportFailure {
                failed_index,
                actual,
                next,
            } => {
                payload.push(failed_index as u32);
                payload.extend_from_slice(actual);
                payload.extend_from_slice(next);
            }
        }
        self.tag()
    }

    /// Serializes into a tagged packet with a payload of its own.
    pub fn encode(&self) -> Packet {
        let mut payload = Vec::new();
        let tag = self.encode_into(&mut payload);
        Packet::new(tag, payload)
    }

    /// Decodes a packet received by a domain whose local outputs are
    /// `local_width` words and whose peer outputs are `remote_width` words.
    /// Only lengths and the block structure are checked here; whether a
    /// vector is one the model can take is the wrapper's question to
    /// [`DomainModel::check_remote`](crate::DomainModel::check_remote).
    ///
    /// A burst's entries are delta-decoded into `burst` (its contents are
    /// replaced, its allocation reused) and lent back from there; every other
    /// message leaves `burst` alone and borrows the packet only.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on malformed payloads.
    pub fn decode(
        packet: &'a Packet,
        local_width: usize,
        remote_width: usize,
        burst: &'a mut Vec<u32>,
    ) -> Result<Message<'a>, ProtocolError> {
        let p = packet.payload();
        let truncated = || ProtocolError::Truncated { tag: packet.tag() };
        match packet.tag() {
            PacketTag::Handshake => {
                let &[local_width, remote_width] = p else {
                    return Err(truncated());
                };
                Ok(Message::Handshake {
                    local_width: local_width as usize,
                    remote_width: remote_width as usize,
                })
            }
            PacketTag::CycleOutputs => {
                if p.len() != remote_width {
                    return Err(truncated());
                }
                Ok(Message::CycleOutputs { outputs: p })
            }
            PacketTag::Burst => {
                // The payload is the delta block followed by exactly
                // `remote_width` leader_next words, so the split point is
                // known before the block is parsed.
                let block_len = p.len().checked_sub(remote_width).ok_or_else(truncated)?;
                let (block, leader_next) = p.split_at(block_len);
                // The sender's remote width is OUR local width: entries embed
                // predictions of our outputs.
                let entries = LobEntries::decode_into(block, remote_width, local_width, burst)
                    .map_err(|_| ProtocolError::BadBlock)?;
                Ok(Message::Burst {
                    entries,
                    leader_next,
                })
            }
            PacketTag::ReportSuccess => {
                if p.len() != remote_width {
                    return Err(truncated());
                }
                Ok(Message::ReportSuccess { next: p })
            }
            PacketTag::ReportFailure => {
                if p.len() != 1 + 2 * remote_width {
                    return Err(truncated());
                }
                let (actual, next) = p[1..].split_at(remote_width);
                Ok(Message::ReportFailure {
                    failed_index: p[0] as usize,
                    actual,
                    next,
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
    use predpkt_predict::{Lob, LobEntry};

    // Widths used throughout: sender local = 3 words, sender remote = 2 words.
    const LW: usize = 3;
    const RW: usize = 2;

    /// Encodes as the sender (local 3 / remote 2), decodes as the receiver
    /// (local 2 / remote 3), and requires the same message back.
    fn assert_roundtrip(msg: &Message<'_>) {
        let pkt = msg.encode();
        let mut burst = vec![0xdead; 7];
        assert_eq!(Message::decode(&pkt, RW, LW, &mut burst).as_ref(), Ok(msg));
    }

    /// A burst payload as the receiver (local 2 / remote 3) decodes it.
    fn decode_burst(payload: &[u32], burst: &mut Vec<u32>) -> Result<usize, ProtocolError> {
        let pkt = Packet::new(PacketTag::Burst, payload.to_vec());
        match Message::decode(&pkt, RW, LW, burst)? {
            Message::Burst { entries, .. } => Ok(entries.len()),
            other => panic!("a burst tag decoded to {other:?}"),
        }
    }

    fn lob_of(entries: &[LobEntry<'_>]) -> Lob {
        let mut lob = Lob::new(entries.len().max(1), LW, RW);
        for &entry in entries {
            lob.push(entry).unwrap();
        }
        lob
    }

    #[test]
    fn handshake_roundtrip() {
        assert_roundtrip(&Message::Handshake {
            local_width: 3,
            remote_width: 2,
        });
    }

    #[test]
    fn cycle_outputs_roundtrip() {
        assert_roundtrip(&Message::CycleOutputs {
            outputs: &[1, 2, 3],
        });
    }

    #[test]
    fn burst_roundtrip_with_head_and_predictions() {
        let lob = lob_of(&[
            LobEntry {
                local: &[1, 2, 3],
                predicted: None,
            },
            LobEntry {
                local: &[4, 5, 6],
                predicted: Some(&[7, 8]),
            },
            LobEntry {
                local: &[4, 5, 9],
                predicted: Some(&[7, 8]),
            },
        ]);
        let m = Message::Burst {
            entries: lob.entries(),
            leader_next: &[10, 11, 12],
        };
        assert_roundtrip(&m);

        // The receiver splits the payload at `len - LW` before parsing: a
        // payload too short to hold leader_next is truncated, and a prefix
        // that is not a delta block is a bad block — neither panics.
        let wire = m.encode();
        let mut burst = Vec::new();
        assert_eq!(
            decode_burst(&wire.payload()[..LW - 1], &mut burst),
            Err(ProtocolError::Truncated {
                tag: PacketTag::Burst
            })
        );
        let mut garbage = wire.payload().to_vec();
        garbage.remove(2); // the block now ends one word early
        assert_eq!(
            decode_burst(&garbage, &mut burst),
            Err(ProtocolError::BadBlock)
        );
        assert_eq!(
            decode_burst(&[7; 5], &mut burst),
            Err(ProtocolError::BadBlock)
        );
        // A block prefix announcing 2^32 - 1 entries in three words.
        assert_eq!(
            decode_burst(&[u32::MAX, 1, 0, 10, 11, 12], &mut burst),
            Err(ProtocolError::BadBlock)
        );
        // The same count over zero-width entries, which no word count bounds.
        assert_eq!(
            decode_burst(&[u32::MAX, 0, 10, 11, 12], &mut burst),
            Err(ProtocolError::BadBlock)
        );
    }

    /// Every hostile length the owned decoder was tested against, against
    /// the borrowed one — and the reused buffer never reserves more than the
    /// words of the block could describe.
    #[test]
    fn hostile_bursts_are_refused_without_sizing_the_buffer_by_them() {
        const ENTRY: usize = 1 + LW + RW;
        let lob = lob_of(&[
            LobEntry {
                local: &[1, 2, 3],
                predicted: Some(&[7, 8]),
            },
            LobEntry {
                local: &[4, 2, 3],
                predicted: Some(&[7, 9]),
            },
            LobEntry {
                local: &[4, 5, 3],
                predicted: Some(&[7, 9]),
            },
        ]);
        let good = Message::Burst {
            entries: lob.entries(),
            leader_next: &[10, 11, 12],
        }
        .encode();
        let good = good.payload();
        let block_len = good.len() - LW;
        let with_next = |block: &[u32]| [block, &[10, 11, 12]].concat();

        let mut burst = Vec::new();
        let mut refused = |payload: &[u32], want: ProtocolError| {
            let before = burst.capacity();
            assert_eq!(decode_burst(payload, &mut burst), Err(want), "{payload:?}");
            let block_words = payload.len().saturating_sub(LW);
            assert!(
                burst.capacity() <= before.max(block_words * ENTRY),
                "{payload:?}: capacity {} from {before}",
                burst.capacity()
            );
        };
        let truncated = ProtocolError::Truncated {
            tag: PacketTag::Burst,
        };

        // A count of 2^32 - 1 over a three-word block.
        refused(
            &with_next(&[u32::MAX, ENTRY as u32, 0]),
            ProtocolError::BadBlock,
        );
        // Header widths other than 1 + remote + local, zero included (no
        // word count bounds how many zero-width entries a block claims).
        for width in [0, 1, ENTRY as u32 - 1, ENTRY as u32 + 1, u32::MAX] {
            refused(&with_next(&[u32::MAX, width]), ProtocolError::BadBlock);
            refused(
                &with_next(&[1, width, 0, 0, 0, 0, 0, 0]),
                ProtocolError::BadBlock,
            );
        }
        // The block cut at every length (the leader-next words still follow).
        for cut in 0..block_len {
            refused(&with_next(&good[..cut]), ProtocolError::BadBlock);
        }
        // Trailing words between the block and leader_next.
        refused(
            &[&good[..block_len], &[9, 10, 11, 12]].concat(),
            ProtocolError::BadBlock,
        );
        // A payload shorter than the leader-next words alone.
        for len in 0..LW {
            refused(&good[..len], truncated.clone());
        }
        // After all of that the same buffer still takes a good burst.
        assert_eq!(decode_burst(good, &mut burst), Ok(3));
        assert!(burst.capacity() <= (block_len * ENTRY).max(3 * ENTRY));
    }

    #[test]
    fn burst_compresses_stable_entries() {
        let mut lob = Lob::new(64, LW, RW);
        for i in 0..64 {
            lob.push(LobEntry {
                local: &[0x100 + i, 7, 7],
                predicted: Some(&[9, 9]),
            })
            .unwrap();
        }
        let m = Message::Burst {
            entries: lob.entries(),
            leader_next: &[0, 0, 0],
        };
        let pkt = m.encode();
        let raw_words = 64 * (1 + 3 + 2) + 3;
        assert!(
            (pkt.wire_words() as usize) < raw_words / 2,
            "delta packetizing shrinks the flush ({} vs {raw_words})",
            pkt.wire_words()
        );
        assert_roundtrip(&m);
    }

    #[test]
    fn reports_roundtrip() {
        assert_roundtrip(&Message::ReportSuccess { next: &[5, 6, 7] });
        assert_roundtrip(&Message::ReportFailure {
            failed_index: 4,
            actual: &[1, 2, 3],
            next: &[9, 8, 7],
        });
    }

    #[test]
    fn truncated_rejected() {
        let mut burst = Vec::new();
        for (tag, payload) in [
            (PacketTag::ReportSuccess, vec![1]),
            (PacketTag::Handshake, vec![]),
            (PacketTag::CycleOutputs, vec![1, 2]),
            (PacketTag::ReportFailure, vec![0, 1, 2, 3, 4, 5]),
            (PacketTag::ReportFailure, vec![0, 1, 2, 3, 4, 5, 6, 7]),
        ] {
            let pkt = Packet::new(tag, payload);
            assert_eq!(
                Message::decode(&pkt, RW, LW, &mut burst),
                Err(ProtocolError::Truncated { tag })
            );
        }
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
