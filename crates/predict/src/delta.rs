//! Delta packetizer: change-mask encoding of fixed-width word blocks.
//!
//! A LOB flush carries one word vector per buffered cycle. Consecutive cycles
//! differ in few positions (an address increments, a data word changes), so the
//! packetizer transmits the first vector raw and each subsequent vector as a
//! change bitmask plus only the changed words. Word counts on the wire are
//! what the channel cost model charges, so the encoding directly reduces
//! `Tch.` payload.
//!
//! Wire format (all `u32` words):
//!
//! ```text
//! [count, width, first entry (width words),
//!  (count - 1) × ceil(width/32) mask words, one run per later entry,
//!  the changed words of every later entry, in entry order]
//! ```
//!
//! The masks travel ahead of the words they select, so a receiver checks a
//! whole block in one sweep — the masks' popcount must equal the number of
//! words after them — and then decodes only the entries it reads: finding an
//! entry's mask needs no earlier entry's changed words.

use std::error::Error;
use std::fmt;

/// The one encoder: `count` entries of `width` words each, entry `k` handed
/// over by `entry(k)`, appended to `out` in the wire format of the module
/// docs.
fn encode_entries<'a>(
    count: usize,
    width: usize,
    entry: impl Fn(usize) -> &'a [u32],
    out: &mut Vec<u32>,
) {
    out.push(count as u32);
    out.push(width as u32);
    if count == 0 {
        return;
    }
    let mut prev = entry(0);
    assert_eq!(prev.len(), width, "entries must share a width");
    out.extend_from_slice(prev);
    let mask_words = width.div_ceil(32);
    let mut mask_at = out.len();
    out.resize(mask_at + (count - 1) * mask_words, 0);
    for k in 1..count {
        let next = entry(k);
        assert_eq!(next.len(), width, "entries must share a width");
        for (i, (&now, &was)) in next.iter().zip(prev).enumerate() {
            if now != was {
                out[mask_at + i / 32] |= 1 << (i % 32);
                out.push(now);
            }
        }
        mask_at += mask_words;
        prev = next;
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
    encode_entries(count, width, |k| &flat[k * width..(k + 1) * width], out);
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
/// // Header, the first entry raw, a mask per later entry, one changed word.
/// assert_eq!(wire, [3, 3, 1, 2, 3, 0b100, 0, 4]);
/// assert_eq!(decode_block(&wire).unwrap(), entries);
/// ```
pub fn encode_block(entries: &[Vec<u32>]) -> Vec<u32> {
    let mut out = Vec::new();
    let width = entries.first().map_or(0, Vec::len);
    encode_entries(entries.len(), width, |k| &entries[k], &mut out);
    out
}

/// Failure while decoding a delta block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecodeError {
    /// The wire data ended prematurely.
    Truncated,
    /// Trailing words after the last entry.
    TrailingWords,
    /// The entries are not of the width the receiver expects, or a block
    /// with entries announces them zero words wide: such entries cost no
    /// words, so nothing bounds how many the block claims.
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

/// A delta block whose lengths all check out, decoded one entry at a time
/// in order by [`next_into`](Self::next_into) — the one decoder, which
/// [`decode_block`] runs to the end and a lagger stops at its first failed
/// prediction.
///
/// The block is a cursor. Each entry is decoded over the one before it, so
/// every call must be handed the buffer the previous call filled; any other
/// buffer of the right width yields wrong words, unrefused. A copy resumes
/// where the original stood, and two blocks are equal only when they hold
/// the same words *and* stand at the same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaBlock<'a> {
    /// The whole block, header included.
    wire: &'a [u32],
    count: usize,
    width: usize,
    /// Entries decoded so far.
    decoded: usize,
    /// The masks of the entries not decoded yet.
    masks: &'a [u32],
    /// The changed words not taken yet.
    changed: &'a [u32],
}

impl<'a> DeltaBlock<'a> {
    /// Checks a block in one sweep, before anything is decoded.
    ///
    /// `count` and `width` are the peer's words, not facts: the block is
    /// refused unless the words that follow could describe that many
    /// entries (the first costs `width` words, every later one at least its
    /// mask words), and then unless its masks select exactly the words
    /// after them. Mask bits past the width select nothing. So a block that
    /// parses with entries holds no more of them, and none wider, than it
    /// has words; an empty block may announce any width.
    ///
    /// # Errors
    ///
    /// [`DeltaDecodeError::Truncated`] when the block ends before what its
    /// header and masks announce, [`DeltaDecodeError::TrailingWords`] when
    /// words follow it, [`DeltaDecodeError::Width`] when it announces
    /// entries zero words wide.
    pub fn parse(wire: &'a [u32]) -> Result<Self, DeltaDecodeError> {
        let [count, width, body @ ..] = wire else {
            return Err(DeltaDecodeError::Truncated);
        };
        let (count, width) = (*count as usize, *width as usize);
        let mut block = DeltaBlock {
            wire,
            count,
            width,
            decoded: 0,
            masks: &[],
            changed: &[],
        };
        if count == 0 {
            return if body.is_empty() {
                Ok(block)
            } else {
                Err(DeltaDecodeError::TrailingWords)
            };
        }
        if width == 0 {
            return Err(DeltaDecodeError::Width);
        }
        let mask_words = width.div_ceil(32);
        if body.len() < width || count - 1 > (body.len() - width) / mask_words {
            return Err(DeltaDecodeError::Truncated);
        }
        let (masks, changed) = body[width..].split_at((count - 1) * mask_words);
        // Every mask bit, less those past the width in each mask's last word.
        let keep = u32::MAX >> (mask_words * 32 - width);
        let selected: usize = masks
            .chunks_exact(mask_words)
            .map(|mask| {
                let (&last, rest) = mask.split_last().expect("a mask is one word or more");
                rest.iter().map(|w| w.count_ones() as usize).sum::<usize>()
                    + (last & keep).count_ones() as usize
            })
            .sum();
        if selected > changed.len() {
            return Err(DeltaDecodeError::Truncated);
        }
        if selected < changed.len() {
            return Err(DeltaDecodeError::TrailingWords);
        }
        block.masks = masks;
        block.changed = changed;
        Ok(block)
    }

    /// Entries in the block.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Words per entry.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The block's wire words, header included.
    pub fn wire(&self) -> &'a [u32] {
        self.wire
    }

    /// Decodes the next entry over `entry`, which must hold the entry before
    /// it as the previous call left it (the first entry is copied whole, so
    /// any buffer starts a block). Returns `false`, leaving `entry` alone,
    /// once every entry has been decoded.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not [`width`](Self::width) words long.
    #[inline]
    pub fn next_into(&mut self, entry: &mut [u32]) -> bool {
        assert_eq!(entry.len(), self.width, "an entry is `width` words");
        if self.decoded == self.count {
            return false;
        }
        if self.decoded == 0 {
            entry.copy_from_slice(&self.wire[2..2 + self.width]);
        } else {
            let (mask, masks) = self.masks.split_at(self.width.div_ceil(32));
            self.masks = masks;
            for (w, &bits) in mask.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let i = w * 32 + bits.trailing_zeros() as usize;
                    // Mask bits past the width select nothing.
                    if i >= self.width {
                        break;
                    }
                    bits &= bits - 1;
                    let (&word, changed) = self
                        .changed
                        .split_first()
                        .expect("the sweep counted every selected word");
                    entry[i] = word;
                    self.changed = changed;
                }
            }
        }
        self.decoded += 1;
        true
    }
}

/// Decodes a block produced by [`encode_block`]. Nothing is reserved
/// beyond what the block's words describe: the entries once it parses, and
/// no scratch for an empty block, whatever width it announces.
///
/// # Errors
///
/// Returns [`DeltaDecodeError`] on truncated or oversized input, and on a
/// block of zero-width entries.
pub fn decode_block(wire: &[u32]) -> Result<Vec<Vec<u32>>, DeltaDecodeError> {
    let mut block = DeltaBlock::parse(wire)?;
    let mut entries = Vec::with_capacity(block.count());
    if block.count() > 0 {
        let mut entry = vec![0; block.width()];
        while block.next_into(&mut entry) {
            entries.push(entry.clone());
        }
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
        // They occupy no words, so no word count bounds how many a header
        // claims: every decoder refuses them.
        let entries = vec![vec![], vec![], vec![]];
        let wire = encode_block(&entries);
        assert_eq!(wire, [3, 0]);
        assert_eq!(DeltaBlock::parse(&wire), Err(DeltaDecodeError::Width));
        assert_eq!(decode_block(&wire), Err(DeltaDecodeError::Width));
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
        let block = DeltaBlock::parse(&wire[1..]).unwrap();
        assert_eq!((block.count(), block.width()), (9, 40));
        assert_eq!(decode_block(&wire[1..]).unwrap().concat(), flat);
        // Zero-width entries occupy no words and are refused; an empty
        // block keeps the width it is told.
        let mut wire = Vec::new();
        encode_flat_into(&[], 5, 0, &mut wire);
        assert_eq!(wire, [5, 0]);
        assert_eq!(decode_block(&wire), Err(DeltaDecodeError::Width));
        let mut wire = Vec::new();
        encode_flat_into(&[], 0, 40, &mut wire);
        assert_eq!(wire, [0, 40]);
        let block = DeltaBlock::parse(&wire).unwrap();
        assert_eq!((block.count(), block.width()), (0, 40));
        assert_eq!(decode_block(&wire).unwrap(), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn masks_travel_ahead_of_the_words_they_select() {
        let entries = vec![vec![1, 2, 3], vec![1, 5, 3], vec![6, 5, 7], vec![6, 5, 7]];
        let wire = encode_block(&entries);
        assert_eq!(wire, [4, 3, 1, 2, 3, 0b010, 0b101, 0, 5, 6, 7]);
        assert_eq!(decode_block(&wire).unwrap(), entries);
        // Checked whole, then decoded only as far as it is read: the second
        // entry's words are found without reading past them.
        let mut block = DeltaBlock::parse(&wire).unwrap();
        assert_eq!((block.count(), block.width()), (4, 3));
        let mut entry = [0; 3];
        assert!(block.next_into(&mut entry));
        assert_eq!(entry, [1, 2, 3]);
        assert!(block.next_into(&mut entry));
        assert_eq!(entry, [1, 5, 3]);
        // A bad tail is refused before the first entry is decoded.
        let mut lost = wire.clone();
        lost[6] = 0b001; // the third entry loses a changed word
        assert_eq!(
            DeltaBlock::parse(&lost),
            Err(DeltaDecodeError::TrailingWords)
        );
        let mut gained = wire.clone();
        gained[7] = 0b100; // the last entry gains one
        assert_eq!(DeltaBlock::parse(&gained), Err(DeltaDecodeError::Truncated));
    }

    #[test]
    fn stray_mask_bits_select_nothing() {
        // Width 3: bits 3.. of the mask word are outside the entry.
        let wire = [2, 3, 10, 20, 30, 0xffff_fff8 | 0b010, 21];
        assert_eq!(decode_block(&wire).unwrap(), [[10, 20, 30], [10, 21, 30]]);
    }

    /// A block is checked against its own words before anything is sized by
    /// its header: one that parses announces entries of one word or more
    /// only as many, and as wide, as its words could describe.
    #[test]
    fn hostile_blocks_are_refused_before_anything_is_sized() {
        let entries: Vec<Vec<u32>> = (0..6u32).map(|i| vec![i, 7, i / 2, 9]).collect();
        let good = encode_block(&entries);
        let check = |wire: &[u32], want: Result<(usize, usize), DeltaDecodeError>| {
            let block = DeltaBlock::parse(wire);
            assert_eq!(block.map(|b| (b.count(), b.width())), want, "{wire:?}");
            if let Ok((count @ 1.., width @ 1..)) = want {
                assert!(count <= wire.len() && width <= wire.len(), "{wire:?}");
            }
        };
        let truncated = Err(DeltaDecodeError::Truncated);
        // Counts and widths no three words can back.
        check(&[u32::MAX, 1, 0], truncated);
        check(&[u32::MAX, u32::MAX, 0], truncated);
        check(&[2, u32::MAX, 0], truncated);
        check(&[u32::MAX, 33, 0], truncated);
        // Zero-width entries: no words back any count of them.
        check(&[u32::MAX, 0], Err(DeltaDecodeError::Width));
        check(&[1, 0], Err(DeltaDecodeError::Width));
        check(&[u32::MAX, 0, 1], Err(DeltaDecodeError::Width));
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
        // A count one higher than the words describe: the last mask is taken
        // from the changed words, which then fall short of the masks.
        let mut over = good.clone();
        over[0] += 1;
        check(&over, truncated);
        check(&good, Ok((6, 4)));
        assert_eq!(decode_block(&good).unwrap(), entries);
    }
}
