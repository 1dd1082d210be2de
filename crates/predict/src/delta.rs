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

/// The one encoder: `count` entries of `width` words each, handed over as
/// slices, appended to `out` in the wire format of the module docs.
fn encode_entries<'a>(
    count: usize,
    width: usize,
    entries: impl Iterator<Item = &'a [u32]>,
    out: &mut Vec<u32>,
) {
    out.push(count as u32);
    out.push(width as u32);
    let mask_words = width.div_ceil(32);
    let mut prev: Option<&[u32]> = None;
    for entry in entries {
        assert_eq!(entry.len(), width, "entries must share a width");
        match prev {
            None => out.extend_from_slice(entry),
            Some(before) => {
                let mask_at = out.len();
                out.resize(mask_at + mask_words, 0);
                for (i, (&now, &was)) in entry.iter().zip(before).enumerate() {
                    if now != was {
                        out[mask_at + i / 32] |= 1 << (i % 32);
                        out.push(now);
                    }
                }
            }
        }
        prev = Some(entry);
    }
}

/// Encodes `count` entries of `width` words laid end to end in `flat`,
/// appending the wire words to `out` — the per-flush form: one pass, no
/// allocation once `out` has grown.
///
/// # Panics
///
/// Panics if `flat` is not `count * width` words long.
pub fn encode_flat_into(flat: &[u32], count: usize, width: usize, out: &mut Vec<u32>) {
    assert_eq!(flat.len(), count * width, "entries must share a width");
    let entries = (0..count).map(|i| &flat[i * width..(i + 1) * width]);
    encode_entries(count, width, entries, out);
}

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
    let width = entries.first().map_or(0, Vec::len);
    let slices = entries.iter().map(Vec::as_slice);
    encode_entries(entries.len(), width, slices, &mut out);
    out
}

/// Failure while decoding a delta block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecodeError {
    /// The wire data ended prematurely.
    Truncated,
    /// Trailing words after the last entry.
    TrailingWords,
    /// The entries are not of the width the receiver expects.
    Width,
}

impl fmt::Display for DeltaDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaDecodeError::Truncated => write!(f, "delta block truncated"),
            DeltaDecodeError::TrailingWords => write!(f, "delta block has trailing words"),
            DeltaDecodeError::Width => write!(f, "delta block entries have the wrong width"),
        }
    }
}

impl Error for DeltaDecodeError {}

/// Decodes a block into `out`, replacing its contents with the entries laid
/// end to end and reusing its allocation; returns `(count, width)`. Zero-width
/// entries occupy no words, so only the returned count tells how many there
/// were.
///
/// `count` and `width` are the peer's words, not facts: the block is refused
/// before anything is sized by them unless the words that follow could
/// describe that many entries (the first costs `width` words, every later one
/// at least its mask words), so `out` never reserves more than
/// `wire.len() * width` words for a block, good or bad.
///
/// # Errors
///
/// Returns [`DeltaDecodeError`] on truncated or oversized input; `out` then
/// holds nothing meaningful.
pub fn decode_flat_into(
    wire: &[u32],
    out: &mut Vec<u32>,
) -> Result<(usize, usize), DeltaDecodeError> {
    out.clear();
    let [count, width, body @ ..] = wire else {
        return Err(DeltaDecodeError::Truncated);
    };
    let (count, width) = (*count as usize, *width as usize);
    let mut rest = body;
    if count > 0 && width > 0 {
        let mask_words = width.div_ceil(32);
        if rest.len() < width || count - 1 > (rest.len() - width) / mask_words {
            return Err(DeltaDecodeError::Truncated);
        }
        out.reserve_exact(count * width);
        let (first, after) = rest.split_at(width);
        out.extend_from_slice(first);
        rest = after;
        for _ in 1..count {
            // Promised by the count check only while earlier entries took no
            // changed words from the same pool.
            if rest.len() < mask_words {
                return Err(DeltaDecodeError::Truncated);
            }
            let (mask, after) = rest.split_at(mask_words);
            rest = after;
            let at = out.len();
            out.extend_from_within(at - width..at);
            for (w, &bits) in mask.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let i = w * 32 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // Mask bits past the width select nothing.
                    if i >= width {
                        break;
                    }
                    let (&now, after) = rest.split_first().ok_or(DeltaDecodeError::Truncated)?;
                    out[at + i] = now;
                    rest = after;
                }
            }
        }
    }
    if rest.is_empty() {
        Ok((count, width))
    } else {
        Err(DeltaDecodeError::TrailingWords)
    }
}

/// Decodes a block produced by [`encode_block`].
///
/// # Errors
///
/// Returns [`DeltaDecodeError`] on truncated or oversized input.
pub fn decode_block(wire: &[u32]) -> Result<Vec<Vec<u32>>, DeltaDecodeError> {
    let mut flat = Vec::new();
    let (count, width) = decode_flat_into(wire, &mut flat)?;
    Ok((0..count)
        .map(|i| flat[i * width..(i + 1) * width].to_vec())
        .collect())
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

    #[test]
    fn flat_forms_are_the_same_codec() {
        let entries: Vec<Vec<u32>> = (0..9u32)
            .map(|i| (0..40).map(|w| if w % 7 == 0 { i } else { w }).collect())
            .collect();
        let flat = entries.concat();
        let mut wire = vec![0xfeed]; // appended to, not overwritten
        encode_flat_into(&flat, 9, 40, &mut wire);
        assert_eq!(wire[0], 0xfeed);
        assert_eq!(wire[1..], encode_block(&entries)[..]);
        let mut back = vec![1, 2, 3]; // replaced, not appended to
        assert_eq!(decode_flat_into(&wire[1..], &mut back), Ok((9, 40)));
        assert_eq!(back, flat);
        // Zero-width entries occupy no words: only the count comes back.
        let mut wire = Vec::new();
        encode_flat_into(&[], 5, 0, &mut wire);
        assert_eq!(wire, [5, 0]);
        assert_eq!(decode_flat_into(&wire, &mut back), Ok((5, 0)));
        assert!(back.is_empty());
    }

    #[test]
    fn stray_mask_bits_select_nothing() {
        // Width 3: bits 3.. of the mask word are outside the entry.
        let wire = [2, 3, 10, 20, 30, 0xffff_fff8 | 0b010, 21];
        let mut flat = Vec::new();
        assert_eq!(decode_flat_into(&wire, &mut flat), Ok((2, 3)));
        assert_eq!(flat, [10, 20, 30, 10, 21, 30]);
    }

    /// A reused buffer is never sized by what a block claims, only by what
    /// its words could describe: `wire.len() * width` at most, good or bad.
    #[test]
    fn hostile_blocks_do_not_size_the_reused_buffer() {
        let entries: Vec<Vec<u32>> = (0..6u32).map(|i| vec![i, 7, i / 2, 9]).collect();
        let good = encode_block(&entries);
        let mut flat = Vec::new();
        let mut check = |wire: &[u32], want: Result<(usize, usize), DeltaDecodeError>| {
            let before = flat.capacity();
            let width = wire.get(1).map_or(0, |&w| w as usize);
            assert_eq!(decode_flat_into(wire, &mut flat), want, "{wire:?}");
            assert!(
                flat.capacity() <= before.max(wire.len().saturating_mul(width)),
                "{wire:?}: capacity {} from {before}",
                flat.capacity()
            );
        };
        let truncated = Err(DeltaDecodeError::Truncated);
        // Counts and widths no three words can back.
        check(&[u32::MAX, 1, 0], truncated);
        check(&[u32::MAX, u32::MAX, 0], truncated);
        check(&[2, u32::MAX, 0], truncated);
        check(&[u32::MAX, 33, 0], truncated);
        // Zero-width entries: any count, no words, nothing reserved.
        check(&[u32::MAX, 0], Ok((u32::MAX as usize, 0)));
        check(&[u32::MAX, 0, 1], Err(DeltaDecodeError::TrailingWords));
        // An empty block of any announced width.
        check(&[0, u32::MAX], Ok((0, u32::MAX as usize)));
        check(&[0, 4, 1], Err(DeltaDecodeError::TrailingWords));
        // Cut at every length, then one word too many.
        for cut in 0..good.len() {
            check(&good[..cut], truncated);
        }
        check(
            &[&good[..], &[1]].concat(),
            Err(DeltaDecodeError::TrailingWords),
        );
        // A count one higher than the words describe: the changed words of
        // earlier entries leave no mask for the last.
        let mut over = good.clone();
        over[0] += 1;
        check(&over, truncated);
        check(&good, Ok((6, 4)));
        assert_eq!(flat, entries.concat());
    }
}
