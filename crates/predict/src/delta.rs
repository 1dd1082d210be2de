//! Delta packetizer: change-mask encoding of fixed-width word blocks.
//!
//! A LOB flush carries one word vector per buffered cycle. Consecutive cycles
//! differ in few positions (an address increments, a data word changes), so the
//! packetizer transmits the first vector raw and each subsequent vector as a
//! change bitmask followed by only the changed words. Word counts on the wire
//! are what the channel cost model charges, so the encoding directly reduces
//! `Tch.` payload.
//!
//! Wire format (all `u32` words):
//!
//! ```text
//! [count, width, first entry (width words),
//!  then per entry: ceil(width/32) mask words, changed words…]
//! ```

use std::error::Error;
use std::fmt;

/// Encodes a block of equal-width entries. Returns the wire words.
///
/// # Panics
///
/// Panics if entries have differing widths.
///
/// # Example
///
/// ```
/// use predpkt_predict::{decode_block, encode_block};
/// let entries = vec![vec![1, 2, 3], vec![1, 2, 4], vec![1, 2, 4]];
/// let wire = encode_block(&entries);
/// assert!(wire.len() < 2 + 3 * 3, "smaller than raw");
/// assert_eq!(decode_block(&wire).unwrap(), entries);
/// ```
pub fn encode_block(entries: &[Vec<u32>]) -> Vec<u32> {
    let mut out = Vec::new();
    out.push(entries.len() as u32);
    let width = entries.first().map_or(0, Vec::len);
    out.push(width as u32);
    let Some((first, rest)) = entries.split_first() else {
        return out;
    };
    out.extend_from_slice(first);
    let mask_words = width.div_ceil(32);
    let mut prev = first;
    for entry in rest {
        assert_eq!(entry.len(), width, "entries must share a width");
        let mask_at = out.len();
        out.resize(out.len() + mask_words, 0);
        for (i, (&now, &before)) in entry.iter().zip(prev).enumerate() {
            if now != before {
                out[mask_at + i / 32] |= 1 << (i % 32);
                out.push(now);
            }
        }
        prev = entry;
    }
    out
}

/// Failure while decoding a delta block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecodeError {
    /// The wire data ended prematurely.
    Truncated,
    /// Trailing words after the last entry.
    TrailingWords,
}

impl fmt::Display for DeltaDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaDecodeError::Truncated => write!(f, "delta block truncated"),
            DeltaDecodeError::TrailingWords => write!(f, "delta block has trailing words"),
        }
    }
}

impl Error for DeltaDecodeError {}

/// Decodes a block produced by [`encode_block`].
///
/// # Errors
///
/// Returns [`DeltaDecodeError`] on truncated or oversized input.
pub fn decode_block(wire: &[u32]) -> Result<Vec<Vec<u32>>, DeltaDecodeError> {
    let mut it = wire.iter().copied();
    let mut next = || it.next().ok_or(DeltaDecodeError::Truncated);
    let count = next()? as usize;
    let width = next()? as usize;
    let mask_words = width.div_ceil(32);
    // `count` is the peer's word, not a fact: reserve only what the words
    // that follow could describe. Every entry after the first costs at least
    // its mask words; zero-width entries cost nothing, so their count bounds
    // nothing and nothing is reserved for them up front.
    let rest = wire.len().saturating_sub(2).saturating_sub(width);
    let describable = rest.checked_div(mask_words).map_or(0, |more| more + 1);
    let mut entries = Vec::with_capacity(count.min(describable));
    if count == 0 {
        return if it.next().is_none() {
            Ok(entries)
        } else {
            Err(DeltaDecodeError::TrailingWords)
        };
    }
    let mut current: Vec<u32> = (0..width).map(|_| next()).collect::<Result<_, _>>()?;
    entries.push(current.clone());
    for _ in 1..count {
        let mask: Vec<u32> = (0..mask_words).map(|_| next()).collect::<Result<_, _>>()?;
        for i in 0..width {
            if mask[i / 32] & (1 << (i % 32)) != 0 {
                current[i] = next()?;
            }
        }
        entries.push(current.clone());
    }
    if it.next().is_some() {
        return Err(DeltaDecodeError::TrailingWords);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_identical_entries() {
        let entries = vec![vec![5, 6]; 10];
        let wire = encode_block(&entries);
        // 2 header + 2 first + 9 masks, nothing else.
        assert_eq!(wire.len(), 2 + 2 + 9);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn roundtrip_all_changing() {
        let entries: Vec<Vec<u32>> = (0..5).map(|i| vec![i, i + 1, i + 2]).collect();
        let wire = encode_block(&entries);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn empty_block() {
        let wire = encode_block(&[]);
        assert_eq!(wire, vec![0, 0]);
        assert_eq!(decode_block(&wire).unwrap(), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn single_entry() {
        let entries = vec![vec![42; 7]];
        let wire = encode_block(&entries);
        assert_eq!(wire.len(), 2 + 7);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn wide_entries_multi_mask_words() {
        // 40 words -> 2 mask words per entry.
        let a: Vec<u32> = (0..40).collect();
        let mut b = a.clone();
        b[0] = 99;
        b[35] = 77;
        let entries = vec![a, b];
        let wire = encode_block(&entries);
        assert_eq!(wire.len(), 2 + 40 + 2 + 2);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn zero_width_entries() {
        let entries = vec![vec![], vec![], vec![]];
        let wire = encode_block(&entries);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn truncated_rejected() {
        let entries = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let wire = encode_block(&entries);
        for cut in 1..wire.len() {
            assert_eq!(
                decode_block(&wire[..cut]),
                Err(DeltaDecodeError::Truncated),
                "cut at {cut}"
            );
        }
        // A hostile count over a three-word input: rejected after reserving
        // room for the one entry those words could hold, not for 2^32 - 1.
        assert_eq!(
            decode_block(&[u32::MAX, 1, 0]),
            Err(DeltaDecodeError::Truncated)
        );
    }

    #[test]
    fn trailing_rejected() {
        let mut wire = encode_block(&[vec![1u32]]);
        wire.push(9);
        assert_eq!(decode_block(&wire), Err(DeltaDecodeError::TrailingWords));
    }

    #[test]
    #[should_panic(expected = "share a width")]
    fn mixed_width_rejected() {
        let _ = encode_block(&[vec![1], vec![1, 2]]);
    }

    #[test]
    fn compression_on_bursty_traffic() {
        // Model: 64 cycles of a DMA burst: address +4 each cycle, data changes,
        // 5 other control words stable.
        let entries: Vec<Vec<u32>> = (0..64u32)
            .map(|i| vec![0x100 + 4 * i, 0xdead_0000 + i, 1, 2, 3, 4, 5])
            .collect();
        let raw_words = 64 * 7;
        let wire = encode_block(&entries);
        assert!(
            wire.len() < raw_words / 2,
            "delta encoding halves the payload ({} vs {raw_words})",
            wire.len()
        );
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }
}
