//! Burst address sequencing.
//!
//! The paper's address/control predictability rests on this arithmetic: within a
//! burst, addresses "either increase linearly over time or remain constant" —
//! so a channel wrapper that saw the first beat can predict every later one
//! (§3). The same arithmetic drives masters (generating beats), slaves
//! (prefetching), the protocol checker, and the address/control predictor in
//! `predpkt-predict`.

use crate::signals::{Hburst, Hsize};
use predpkt_sim::declare_state;

/// AHB bursts must not cross this boundary (AHB spec §3.5: 1 kB).
pub const BURST_BOUNDARY: u32 = 0x400;

/// Computes the address of the beat following `addr` within a burst.
///
/// Incrementing bursts add the transfer size; wrapping bursts wrap at the
/// container boundary (`beats × size` bytes, aligned).
///
/// # Example
///
/// ```
/// use predpkt_ahb::burst::next_addr;
/// use predpkt_ahb::signals::{Hburst, Hsize};
///
/// // INCR4 word burst: 0x20 -> 0x24
/// assert_eq!(next_addr(0x20, Hsize::Word, Hburst::Incr4), 0x24);
/// // WRAP4 word burst starting at 0x3C wraps inside [0x30, 0x40)
/// assert_eq!(next_addr(0x3c, Hsize::Word, Hburst::Wrap4), 0x30);
/// ```
pub fn next_addr(addr: u32, size: Hsize, burst: Hburst) -> u32 {
    let step = size.bytes();
    let incremented = addr.wrapping_add(step);
    match burst.beats() {
        Some(beats) if burst.is_wrapping() => {
            let container = step * beats;
            let base = addr & !(container - 1);
            base | (incremented & (container - 1))
        }
        _ => incremented,
    }
}

/// The address of beat `beat` (0-based) of a burst starting at `start`.
///
/// # Example
///
/// ```
/// use predpkt_ahb::burst::beat_addr;
/// use predpkt_ahb::signals::{Hburst, Hsize};
/// assert_eq!(beat_addr(0x38, Hsize::Word, Hburst::Wrap4, 3), 0x34);
/// ```
pub fn beat_addr(start: u32, size: Hsize, burst: Hburst, beat: u32) -> u32 {
    let mut a = start;
    for _ in 0..beat {
        a = next_addr(a, size, burst);
    }
    a
}

/// `true` if a defined-length burst starting at `start` stays inside the 1 kB
/// boundary (always `true` for single transfers; `false` is never produced for
/// wrapping bursts, whose container is at most 64 bytes).
pub fn fits_in_boundary(start: u32, size: Hsize, burst: Hburst) -> bool {
    match burst.beats() {
        None => true, // INCR: the master must terminate it before the boundary
        Some(beats) => {
            if burst.is_wrapping() {
                true
            } else {
                let span = size.bytes() * beats;
                let first_page = start / BURST_BOUNDARY;
                let last_page = (start + span - 1) / BURST_BOUNDARY;
                first_page == last_page
            }
        }
    }
}

/// Picks the largest defined-length incrementing burst (INCR16/8/4/SINGLE) that
/// covers at most `remaining_beats` beats without crossing the 1 kB boundary
/// from `addr`.
///
/// Used by the DMA master to tile long transfers into legal bursts.
pub fn plan_incr_burst(addr: u32, size: Hsize, remaining_beats: u32) -> (Hburst, u32) {
    for (burst, beats) in [(Hburst::Incr16, 16), (Hburst::Incr8, 8), (Hburst::Incr4, 4)] {
        if remaining_beats >= beats && fits_in_boundary(addr, size, burst) {
            return (burst, beats);
        }
    }
    (Hburst::Single, 1)
}

/// Tracks progress through one burst: how many beats issued, what the next
/// address is, whether the burst is complete.
///
/// Both the arbiter (to hold grants for defined-length bursts) and the
/// address/control predictor (to extrapolate SEQ beats) use this, and both
/// save it as its [`pack`](BurstTracker::pack)ed words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BurstTracker {
    size: Hsize,
    burst: Hburst,
    next: u32,
    issued: u32,
}

impl BurstTracker {
    /// Starts tracking at the first (NONSEQ) beat.
    pub fn start(addr: u32, size: Hsize, burst: Hburst) -> Self {
        BurstTracker {
            size,
            burst,
            next: next_addr(addr, size, burst),
            issued: 1,
        }
    }

    /// The expected address of the next SEQ beat.
    pub fn next_addr(&self) -> u32 {
        self.next
    }

    /// The burst kind being tracked.
    pub fn burst(&self) -> Hburst {
        self.burst
    }

    /// The transfer size being tracked.
    pub fn size(&self) -> Hsize {
        self.size
    }

    /// Number of beats issued so far.
    pub fn issued(&self) -> u32 {
        self.issued
    }

    /// Records one more accepted SEQ beat.
    pub fn advance(&mut self) {
        self.next = next_addr(self.next, self.size, self.burst);
        self.issued += 1;
    }

    /// `true` once a defined-length burst has issued all its beats
    /// (never `true` for INCR).
    pub fn complete(&self) -> bool {
        match self.burst.beats() {
            Some(beats) => self.issued >= beats,
            None => false,
        }
    }

    /// Packs into two words for snapshots
    /// (`[size|burst|issued, next]`).
    pub fn pack(&self) -> [u32; 2] {
        let meta = self.size.encode() | (self.burst.encode() << 3) | (self.issued << 6);
        [meta, self.next]
    }

    /// Unpacks the [`pack`](BurstTracker::pack) encoding.
    pub fn unpack(words: &[u32; 2]) -> Option<BurstTracker> {
        Some(BurstTracker {
            size: Hsize::decode(words[0] & 0b111)?,
            burst: Hburst::decode((words[0] >> 3) & 0b111)?,
            issued: words[0] >> 6,
            next: words[1],
        })
    }
}

declare_state! { impl BurstTracker: words(pack, unpack) }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_word_steps_by_four() {
        assert_eq!(next_addr(0x100, Hsize::Word, Hburst::Incr), 0x104);
        assert_eq!(next_addr(0x100, Hsize::Half, Hburst::Incr), 0x102);
        assert_eq!(next_addr(0x100, Hsize::Byte, Hburst::Incr), 0x101);
    }

    #[test]
    fn wrap4_word_container() {
        // Container: 4 beats * 4 bytes = 16 bytes, base 0x30.
        let seq: Vec<u32> = std::iter::successors(Some(0x38u32), |&a| {
            Some(next_addr(a, Hsize::Word, Hburst::Wrap4))
        })
        .take(4)
        .collect();
        assert_eq!(seq, vec![0x38, 0x3c, 0x30, 0x34]);
    }

    #[test]
    fn wrap8_half_container() {
        // 8 beats * 2 bytes = 16-byte container.
        let start = 0x1e;
        let a1 = next_addr(start, Hsize::Half, Hburst::Wrap8);
        assert_eq!(a1, 0x10, "wraps to container base");
    }

    #[test]
    fn wrap16_byte_container() {
        // 16 beats * 1 byte = 16-byte container; wrap within it.
        let mut a = 0x0f;
        a = next_addr(a, Hsize::Byte, Hburst::Wrap16);
        assert_eq!(a, 0x00);
    }

    #[test]
    fn beat_addr_matches_iteration() {
        for burst in Hburst::ALL {
            for size in Hsize::ALL {
                let start = 0x200;
                let mut a = start;
                for beat in 0..burst.beats().unwrap_or(8) {
                    assert_eq!(beat_addr(start, size, burst, beat), a);
                    a = next_addr(a, size, burst);
                }
            }
        }
    }

    #[test]
    fn boundary_detection() {
        // INCR16 words from 0x3F0 would cross 0x400.
        assert!(!fits_in_boundary(0x3f0, Hsize::Word, Hburst::Incr16));
        assert!(fits_in_boundary(0x3c0, Hsize::Word, Hburst::Incr16));
        // Wrapping bursts never cross.
        assert!(fits_in_boundary(0x3fc, Hsize::Word, Hburst::Wrap16));
        // Singles never cross.
        assert!(fits_in_boundary(0x3fc, Hsize::Word, Hburst::Single));
        // INCR (undefined) is the master's problem.
        assert!(fits_in_boundary(0x3fc, Hsize::Word, Hburst::Incr));
    }

    #[test]
    fn plan_incr_burst_tiles_greedily() {
        assert_eq!(plan_incr_burst(0x0, Hsize::Word, 40), (Hburst::Incr16, 16));
        assert_eq!(plan_incr_burst(0x0, Hsize::Word, 12), (Hburst::Incr8, 8));
        assert_eq!(plan_incr_burst(0x0, Hsize::Word, 5), (Hburst::Incr4, 4));
        assert_eq!(plan_incr_burst(0x0, Hsize::Word, 3), (Hburst::Single, 1));
        // Near the boundary the planner downgrades.
        assert_eq!(plan_incr_burst(0x3f0, Hsize::Word, 16), (Hburst::Incr4, 4));
        assert_eq!(plan_incr_burst(0x3fc, Hsize::Word, 16), (Hburst::Single, 1));
    }

    #[test]
    fn tracker_follows_defined_burst() {
        let mut t = BurstTracker::start(0x100, Hsize::Word, Hburst::Incr4);
        assert_eq!(t.next_addr(), 0x104);
        assert!(!t.complete());
        t.advance(); // beat 2 accepted
        t.advance(); // beat 3 accepted
        assert_eq!(t.next_addr(), 0x10c);
        assert!(!t.complete());
        t.advance(); // beat 4 accepted
        assert!(t.complete());
        assert_eq!(t.issued(), 4);
    }

    #[test]
    fn tracker_incr_never_completes() {
        let mut t = BurstTracker::start(0x0, Hsize::Word, Hburst::Incr);
        for _ in 0..100 {
            t.advance();
        }
        assert!(!t.complete());
        assert_eq!(t.next_addr(), 4 * 101);
    }

    #[test]
    fn tracker_pack_roundtrip() {
        let mut t = BurstTracker::start(0xabc0, Hsize::Half, Hburst::Wrap8);
        t.advance();
        t.advance();
        assert_eq!(BurstTracker::unpack(&t.pack()), Some(t));
    }

    #[test]
    fn incr_address_can_wrap_u32() {
        // wrapping_add semantics at the top of the address space.
        assert_eq!(next_addr(u32::MAX - 3, Hsize::Word, Hburst::Incr), 0);
    }
}
