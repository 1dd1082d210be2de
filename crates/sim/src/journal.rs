//! A fixed-size word store that rolls back by undo log.

use crate::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use std::ops::Deref;

/// A fixed-size store of `u32` words — a memory's backing array — that
/// rolls back by undo log instead of by copy.
///
/// Reads go through [`Deref`] to `[u32]`; writes go through
/// [`set`](Journaled::set), which, while a [`mark`](Snapshot::mark) is open,
/// logs the word's old value. A rollback then costs the words written since
/// the mark, not the size of the store:
///
/// * [`mark`](Snapshot::mark) opens the log, superseding an open one, and
///   writes no words; it declares the store's `len + 1` rollback variables
///   (length prefix and words) through [`StateWriter::journaled`], so the
///   ledger bills what a full save stores;
/// * [`rewind`](Snapshot::rewind) undoes the log in reverse and closes it;
/// * [`release`](Snapshot::release) closes it and keeps the writes.
///
/// [`save`](Snapshot::save) / [`restore`](Snapshot::restore) stay the full
/// length-prefixed layout of [`StateWriter::slice_u32`], and a restore
/// refuses a prefix other than the store's size before it copies anything:
/// the size is fixed when the store is built.
///
/// Equality compares the words; the log is rollback bookkeeping, not state.
///
/// # Example
///
/// ```
/// use predpkt_sim::{mark_into, rewind_from_vec, save_to_vec, Journaled, StateVec};
///
/// let mut store = Journaled::new(1024);
/// store.set(3, 7);
/// let before = save_to_vec(&store);
///
/// let mut mark = StateVec::new();
/// mark_into(&mut store, &mut mark);
/// assert_eq!((mark.len(), mark.billed_len()), (0, before.len()));
///
/// store.set(3, 8);
/// store.set(900, 1);
/// assert_eq!(store.logged(), 2);
/// rewind_from_vec(&mut store, &mark).unwrap();
/// assert_eq!(save_to_vec(&store), before);
/// ```
#[derive(Debug, Clone)]
pub struct Journaled {
    words: Vec<u32>,
    /// `(index, old value)` for every write since the open mark, oldest
    /// first. Empty while no mark is open; its allocation is kept.
    log: Vec<(usize, u32)>,
    open: bool,
}

impl Journaled {
    /// A store of `len` zero words, with no mark open.
    pub fn new(len: usize) -> Self {
        Journaled {
            words: vec![0; len],
            log: Vec::new(),
            open: false,
        }
    }

    /// Writes `value` at `index`, logging the old value while a mark is open
    /// (a write that changes nothing logs nothing).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set(&mut self, index: usize, value: u32) {
        let old = std::mem::replace(&mut self.words[index], value);
        if self.open && old != value {
            self.log.push((index, old));
        }
    }

    /// The undo records the open mark holds: 0 when no mark is open.
    pub fn logged(&self) -> usize {
        self.log.len()
    }

    /// Closes the open mark, if any, dropping its log.
    fn close(&mut self) {
        self.log.clear();
        self.open = false;
    }
}

impl Deref for Journaled {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        &self.words
    }
}

impl PartialEq for Journaled {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for Journaled {}

impl Snapshot for Journaled {
    fn save(&self, w: &mut StateWriter<'_>) {
        w.slice_u32(&self.words);
    }

    /// Refuses a length prefix other than the store's size as corrupt at the
    /// prefix, before any word is copied, and closes any open mark.
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.close();
        r.slice_u32_exact(&mut self.words)
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        self.log.clear();
        self.open = true;
        w.journaled(self.words.len() + 1);
    }

    fn rewind(&mut self, _r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        for &(index, old) in self.log.iter().rev() {
            self.words[index] = old;
        }
        self.close();
        Ok(())
    }

    fn release(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mark_into, restore_from_vec, rewind_from_vec, save_to_vec, StateVec};

    fn seeded() -> Journaled {
        let mut store = Journaled::new(16);
        for i in 0..16 {
            store.set(i, i as u32 * 3);
        }
        store
    }

    #[test]
    fn writes_are_logged_only_while_a_mark_is_open() {
        let mut store = seeded();
        assert_eq!(store.logged(), 0, "no mark, no log");
        let mut mark = StateVec::new();
        mark_into(&mut store, &mut mark);
        store.set(2, 99);
        store.set(2, 99); // no change: nothing to undo
        store.set(5, 1);
        assert_eq!(store.logged(), 2);
        store.release();
        assert_eq!(store.logged(), 0);
        store.set(7, 4);
        assert_eq!(store.logged(), 0, "a released mark logs nothing");
        assert_eq!(&store[..8], [0, 3, 99, 9, 12, 1, 18, 4]);
    }

    #[test]
    fn rewind_undoes_every_write_since_the_mark_and_closes_it() {
        let mut store = seeded();
        let before = save_to_vec(&store);
        let mut mark = StateVec::new();
        mark_into(&mut store, &mut mark);
        assert!(mark.is_empty(), "a mark copies no words");
        assert_eq!(mark.billed_len(), before.len(), "and bills a full save");
        for (i, v) in [(4, 1), (9, 2), (4, 3), (15, 4)] {
            store.set(i, v);
        }
        rewind_from_vec(&mut store, &mark).unwrap();
        assert_eq!(save_to_vec(&store), before);
        store.set(0, 42);
        assert_eq!(store.logged(), 0, "the rewind closed the mark");
    }

    #[test]
    fn a_mark_supersedes_an_open_one() {
        let mut store = seeded();
        let mut mark = StateVec::new();
        mark_into(&mut store, &mut mark);
        store.set(1, 100);
        let at_second = save_to_vec(&store);
        mark_into(&mut store, &mut mark);
        store.set(1, 200);
        store.set(3, 300);
        rewind_from_vec(&mut store, &mark).unwrap();
        assert_eq!(save_to_vec(&store), at_second);
    }

    #[test]
    fn restore_closes_the_mark_and_takes_only_the_built_size() {
        let mut store = seeded();
        let saved = save_to_vec(&store);
        let mut mark = StateVec::new();
        mark_into(&mut store, &mut mark);
        store.set(6, 0);
        restore_from_vec(&mut store, &saved).unwrap();
        assert_eq!(store.logged(), 0);
        store.set(6, 1);
        assert_eq!(store.logged(), 0, "a restore closes the mark");

        for len in [0, 15, 17] {
            let mut words = vec![len as u64];
            words.extend(std::iter::repeat(5).take(len));
            assert_eq!(
                restore_from_vec(&mut store, &StateVec::from(words)),
                Err(SnapshotError::Corrupt { at: 0 }),
                "a store of {len} words"
            );
            assert_eq!(store.len(), 16, "refused before anything was copied");
        }
        let mut wide = saved.words().to_vec();
        wide[4] = 1 << 32;
        assert_eq!(
            restore_from_vec(&mut store, &StateVec::from(wide)),
            Err(SnapshotError::Corrupt { at: 4 })
        );
        restore_from_vec(&mut store, &saved).unwrap();
        assert_eq!(store, seeded());
    }
}
