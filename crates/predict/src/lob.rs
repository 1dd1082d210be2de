//! The Leader Output Buffer.
//!
//! The buffer keeps its entries end to end in one `Vec<u32>`, each already in
//! the block layout the delta packetizer sends
//! (`[has_prediction, local…, prediction-or-zeros…]`), so a flush is one
//! [`encode_into`](LobEntries::encode_into) pass over the borrowed
//! [`LobEntries`]. The lagger reads the block it receives through a
//! [`LobBlock`]: checked whole on arrival, then decoded one entry at a time
//! into one entry's worth of scratch, so the entries after a failed
//! prediction are never decoded. Neither side builds a vector per entry.

use crate::delta::{encode_flat_into, DeltaBlock, DeltaDecodeError};
use std::error::Error;
use std::fmt;

/// One run-ahead cycle buffered in the LOB: the leader's own outputs plus the
/// prediction of the lagger's outputs it consumed (head cycles executed with
/// actual values carry no prediction — the paper's footnote 7: "the last
/// leader-to-lagger data does not contain prediction" marks the conventional
/// read; here the headless entry marks the conventional head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LobEntry<'a> {
    /// The leader's local outputs for the cycle (packed words).
    pub local: &'a [u32],
    /// The predicted lagger outputs consumed this cycle; `None` when the cycle
    /// ran on actual values and needs no check.
    pub predicted: Option<&'a [u32]>,
}

/// Error returned when pushing into a full LOB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LobFullError {
    /// The configured depth.
    pub depth: usize,
}

impl fmt::Display for LobFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leader output buffer full (depth {})", self.depth)
    }
}

impl Error for LobFullError {}

/// A borrowed run of LOB entries in block layout: what [`Lob::entries`] lends
/// and what a received burst decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LobEntries<'a> {
    /// `len * (1 + local_width + prediction_width)` words.
    words: &'a [u32],
    local_width: usize,
    prediction_width: usize,
}

impl<'a> LobEntries<'a> {
    fn entry_words(&self) -> usize {
        1 + self.local_width + self.prediction_width
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.words.len() / self.entry_words()
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads one entry out of its block `[has_prediction, local…, prediction…]`.
    #[inline]
    fn entry(block: &'a [u32], local_width: usize) -> LobEntry<'a> {
        let (local, predicted) = block[1..].split_at(local_width);
        LobEntry {
            local,
            predicted: (block[0] != 0).then_some(predicted),
        }
    }

    /// Entry `index`, in push order.
    pub fn get(&self, index: usize) -> Option<LobEntry<'a>> {
        let start = index.checked_mul(self.entry_words())?;
        let block = self.words.get(start..start + self.entry_words())?;
        Some(Self::entry(block, self.local_width))
    }

    /// The entries in push order.
    pub fn iter(&self) -> impl Iterator<Item = LobEntry<'a>> + 'a {
        let local_width = self.local_width;
        self.words
            .chunks_exact(self.entry_words())
            .map(move |block| Self::entry(block, local_width))
    }

    /// Appends the delta-packetized block of these entries to `out`.
    pub fn encode_into(&self, out: &mut Vec<u32>) {
        encode_flat_into(self.words, self.len(), self.entry_words(), out);
    }
}

/// A received flush: a delta block of LOB entries whose lengths all check
/// out, decoded one entry at a time as the lagger reaches it.
///
/// Like the [`DeltaBlock`] it wraps, it is a cursor: every
/// [`next_entry`](Self::next_entry) must be handed the scratch the previous
/// call filled, since each entry is decoded over the one before it, and a
/// copy or an equality compares the position reached as well as the words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LobBlock<'a> {
    block: DeltaBlock<'a>,
    local_width: usize,
}

impl<'a> LobBlock<'a> {
    /// Checks a delta block of entries whose locals are `local_width` words
    /// and whose predictions are `prediction_width` words
    /// ([`DeltaBlock::parse`]); nothing is decoded yet.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaDecodeError::Width`] for entries of any other width —
    /// refused on the header, before the peer's count word drives the sweep
    /// (zero-width entries cost no wire words, so nothing else bounds how
    /// many a block claims) — and whatever [`DeltaBlock::parse`] refuses.
    pub fn parse(
        wire: &'a [u32],
        local_width: usize,
        prediction_width: usize,
    ) -> Result<Self, DeltaDecodeError> {
        let entry_words = 1 + local_width + prediction_width;
        if matches!(wire, [_, width, ..] if *width as usize != entry_words) {
            return Err(DeltaDecodeError::Width);
        }
        Ok(LobBlock {
            block: DeltaBlock::parse(wire)?,
            local_width,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.block.count()
    }

    /// `true` when the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block's wire words.
    pub fn wire(&self) -> &'a [u32] {
        self.block.wire()
    }

    /// Decodes the next entry into `scratch` and lends it back, or returns
    /// `None` once every entry has been read. Each entry is decoded over the
    /// one before it, so `scratch` must be the buffer the previous call
    /// filled; any buffer starts a block.
    #[inline]
    pub fn next_entry<'s>(&mut self, scratch: &'s mut Vec<u32>) -> Option<LobEntry<'s>> {
        if scratch.len() != self.block.width() {
            scratch.resize(self.block.width(), 0);
        }
        self.block
            .next_into(scratch)
            .then(|| LobEntries::entry(scratch, self.local_width))
    }
}

/// The Leader Output Buffer: bounded, flushed as one burst.
///
/// Depth counts *predicted* entries only; the optional head entry (executed on
/// actual values) rides along for free, mirroring the paper where the first
/// P-path cycle is conventional.
///
/// # Example
///
/// ```
/// use predpkt_predict::{Lob, LobEntry};
/// let mut lob = Lob::new(2, 1, 1);
/// lob.push(LobEntry { local: &[1], predicted: None }).unwrap(); // head
/// lob.push(LobEntry { local: &[2], predicted: Some(&[9]) }).unwrap();
/// lob.push(LobEntry { local: &[3], predicted: Some(&[9]) }).unwrap();
/// assert!(lob.is_full());
/// assert_eq!(lob.entries().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lob {
    depth: usize,
    local_width: usize,
    prediction_width: usize,
    /// The buffered entries end to end, each
    /// `[has_prediction, local…, prediction-or-zeros…]`; the allocation is
    /// kept across flushes.
    words: Vec<u32>,
    predictions: usize,
}

impl Lob {
    /// Creates a LOB holding up to `depth` predicted entries whose locals are
    /// `local_width` words and whose predictions are `prediction_width` words.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize, local_width: usize, prediction_width: usize) -> Self {
        assert!(depth > 0, "LOB depth must be non-zero");
        Lob {
            depth,
            local_width,
            prediction_width,
            words: Vec::new(),
            predictions: 0,
        }
    }

    /// The configured depth (maximum predictions per transition).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Buffered entries (head + predicted).
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of buffered *predicted* entries.
    pub fn predictions(&self) -> usize {
        self.predictions
    }

    /// `true` once the prediction budget is exhausted (flush required).
    pub fn is_full(&self) -> bool {
        self.predictions >= self.depth
    }

    /// Buffers one entry that `fill` writes in place: it is handed the buffer
    /// and must append the entry's local outputs, then — when `predicted` —
    /// the prediction, and nothing else. Returns the entry as buffered.
    ///
    /// # Errors
    ///
    /// Returns [`LobFullError`] (without calling `fill`) if the entry carries
    /// a prediction and the prediction budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `fill` appended any other number of words.
    #[inline]
    pub fn push_with(
        &mut self,
        predicted: bool,
        fill: impl FnOnce(&mut Vec<u32>),
    ) -> Result<LobEntry<'_>, LobFullError> {
        if predicted && self.is_full() {
            return Err(LobFullError { depth: self.depth });
        }
        let start = self.words.len();
        let end = start + 1 + self.local_width + self.prediction_width;
        // The entry's words at once, so neither the flag nor `fill` grows
        // the buffer word by word.
        self.words.reserve(end - start);
        self.words.push(predicted as u32);
        fill(&mut self.words);
        let filled = self.local_width + if predicted { self.prediction_width } else { 0 };
        assert_eq!(
            self.words.len() - start - 1,
            filled,
            "LOB entry filled with the wrong number of words"
        );
        self.words.resize(end, 0);
        self.predictions += predicted as usize;
        Ok(LobEntries::entry(&self.words[start..], self.local_width))
    }

    /// Buffers a copy of `entry`.
    ///
    /// # Errors
    ///
    /// Returns [`LobFullError`] if the entry carries a prediction and the
    /// prediction budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the entry's widths are not this buffer's.
    pub fn push(&mut self, entry: LobEntry<'_>) -> Result<(), LobFullError> {
        self.push_with(entry.predicted.is_some(), |words| {
            words.extend_from_slice(entry.local);
            words.extend_from_slice(entry.predicted.unwrap_or_default());
        })
        .map(|_| ())
    }

    /// Borrows the buffered entries in push order (the flush encodes them,
    /// roll-forth replays them).
    pub fn entries(&self) -> LobEntries<'_> {
        LobEntries {
            words: &self.words,
            local_width: self.local_width,
            prediction_width: self.prediction_width,
        }
    }

    /// Discards everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.predictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(v: u32) -> [u32; 1] {
        [v]
    }

    fn push_head(lob: &mut Lob, v: u32) -> Result<(), LobFullError> {
        lob.push(LobEntry {
            local: &head(v),
            predicted: None,
        })
    }

    fn push_pred(lob: &mut Lob, v: u32, p: u32) -> Result<(), LobFullError> {
        lob.push(LobEntry {
            local: &[v],
            predicted: Some(&[p]),
        })
    }

    #[test]
    fn depth_counts_predictions_only() {
        let mut lob = Lob::new(2, 1, 1);
        push_head(&mut lob, 1).unwrap();
        assert!(!lob.is_full());
        push_pred(&mut lob, 2, 0).unwrap();
        push_pred(&mut lob, 3, 0).unwrap();
        assert!(lob.is_full());
        assert_eq!(lob.len(), 3);
        assert_eq!(lob.predictions(), 2);
        assert_eq!(push_pred(&mut lob, 4, 0), Err(LobFullError { depth: 2 }));
        // Heads still fit.
        push_head(&mut lob, 5).unwrap();
        assert_eq!(lob.len(), 4);
    }

    #[test]
    fn entries_keep_push_order_and_clear_restores_the_budget() {
        let mut lob = Lob::new(8, 1, 1);
        push_head(&mut lob, 1).unwrap();
        push_pred(&mut lob, 2, 9).unwrap();
        let flushed = lob.entries();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed.get(0).unwrap().local, &[1]);
        assert_eq!(flushed.get(0).unwrap().predicted, None);
        assert_eq!(flushed.get(1).unwrap().predicted, Some(&[9][..]));
        assert_eq!(flushed.get(2), None);
        assert_eq!(flushed.iter().count(), 2);
        lob.clear();
        assert!(lob.is_empty());
        assert_eq!(lob.predictions(), 0);
        // Budget fully restored.
        for i in 0..8 {
            push_pred(&mut lob, i, i).unwrap();
        }
        assert!(lob.is_full());
    }

    #[test]
    fn clear_discards() {
        let mut lob = Lob::new(4, 1, 1);
        push_pred(&mut lob, 1, 1).unwrap();
        lob.clear();
        assert!(lob.is_empty());
        assert_eq!(lob.predictions(), 0);
    }

    #[test]
    fn push_with_fills_in_place_and_pads_heads() {
        let mut lob = Lob::new(4, 2, 3);
        let head = lob
            .push_with(false, |w| w.extend_from_slice(&[7, 8]))
            .unwrap();
        assert_eq!(head.local, &[7, 8]);
        assert_eq!(head.predicted, None);
        let entry = lob
            .push_with(true, |w| w.extend_from_slice(&[1, 2, 3, 4, 5]))
            .unwrap();
        assert_eq!(entry.local, &[1, 2]);
        assert_eq!(entry.predicted, Some(&[3, 4, 5][..]));
        // The block layout the packetizer sends: a head's prediction is zeros.
        let mut wire = Vec::new();
        lob.entries().encode_into(&mut wire);
        assert_eq!(
            crate::decode_block(&wire).unwrap(),
            vec![vec![0, 7, 8, 0, 0, 0], vec![1, 1, 2, 3, 4, 5]]
        );
        let mut block = LobBlock::parse(&wire, 2, 3).unwrap();
        assert_eq!(block.len(), 2);
        let mut scratch = vec![99; 40];
        for want in lob.entries().iter() {
            assert_eq!(block.next_entry(&mut scratch), Some(want));
        }
        assert_eq!(block.next_entry(&mut scratch), None);
        assert_eq!(LobBlock::parse(&wire, 2, 2), Err(DeltaDecodeError::Width));
    }

    #[test]
    #[should_panic(expected = "wrong number of words")]
    fn push_with_rejects_a_short_fill() {
        let mut lob = Lob::new(4, 2, 1);
        let _ = lob.push_with(true, |w| w.extend_from_slice(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "depth must be non-zero")]
    fn zero_depth_rejected() {
        let _ = Lob::new(0, 1, 1);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            LobFullError { depth: 64 }.to_string(),
            "leader output buffer full (depth 64)"
        );
    }
}
