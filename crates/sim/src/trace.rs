//! Rollback-aware deterministic traces.
//!
//! Correctness of the optimistic protocol is stated as a trace property: the
//! committed per-cycle bus signal values of a split co-emulation must be
//! bit-identical to a monolithic golden simulation. [`Trace`] keeps every
//! record end to end in one `Vec<u64>` plus one end offset per record, so
//! recording a cycle moves no heap once the two vectors have grown
//! ([`Trace::record_words`] takes the words from an iterator;
//! [`Trace::record`] is the same over an owned vector). It supports
//! *truncation back to a mark* (so a leader can discard speculative records on
//! rollback, keeping the capacity), and hashes with FNV-1a for cheap equality
//! assertions in tests and benches.
//!
//! A long trace is two blocks of megabytes, and a block that size the system
//! allocator maps from the OS and unmaps when it is freed: sessions run back
//! to back would page-fault every trace in again, record by record (measured
//! on 100 000-cycle synthetic sessions: 1 690 faults a session, a sixth of
//! the process's time spent in the kernel, and a cost that moves with the
//! host rather than with the code). So a dropped trace leaves its two
//! buffers, emptied, to the next [`Trace::new`] on the same thread — at most
//! [`SPARE_TRACES`] pairs of [`SPARE_MIN_WORDS`] to [`SPARE_MAX_WORDS`] words
//! each; smaller and larger ones go back to the allocator. Nothing
//! observable depends on it: a recycled trace is empty and only its capacity
//! differs.

use std::cell::RefCell;
use std::fmt;
use std::mem;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one word into an FNV-1a state (byte-serialized little-endian).
fn fnv1a64_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a word slice with 64-bit FNV-1a (byte-serialized little-endian).
///
/// Deterministic across platforms; used to fingerprint traces without keeping
/// the full record around.
pub fn fnv1a64(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, &w| fnv1a64_word(h, w))
}

/// A position in a [`Trace`] captured by [`Trace::mark`], used to truncate
/// speculative records on rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceMark(usize);

/// An append-only, truncatable record of per-cycle values.
///
/// # Example
///
/// ```
/// use predpkt_sim::Trace;
/// let mut trace = Trace::new();
/// trace.record(vec![1, 2, 3]);
/// let mark = trace.mark();
/// trace.record_words([4, 5, 6]); // speculative
/// trace.truncate(mark);          // rolled back
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Every record's words, end to end.
    words: Vec<u64>,
    /// `ends[i]` is the offset in `words` one past record `i`.
    ends: Vec<usize>,
}

/// How many dropped traces' buffers a thread keeps for its next traces: a
/// session's two domain traces, the merged one and a golden bus's.
const SPARE_TRACES: usize = 4;
/// A dropped trace with less capacity than this (128 KiB of words and
/// offsets together) is not kept: the allocator serves blocks that small from
/// its own free lists.
const SPARE_MIN_WORDS: usize = 16 << 10;
/// A dropped trace with more capacity than this (16 MiB) is not kept either,
/// so a thread holds at most `SPARE_TRACES` times this.
const SPARE_MAX_WORDS: usize = 2 << 20;

thread_local! {
    /// The emptied `(words, ends)` buffers of traces dropped on this thread.
    static SPARE: RefCell<Vec<(Vec<u64>, Vec<usize>)>> = const { RefCell::new(Vec::new()) };
}

impl Default for Trace {
    /// An empty trace, over the buffers of one dropped on this thread if
    /// there is one (see the module documentation).
    fn default() -> Self {
        // `try_with`: a trace made or dropped while the thread's locals are
        // being torn down simply allocates and frees.
        let (words, ends) = SPARE
            .try_with(|spare| spare.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        Self { words, ends }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        let capacity = self.words.capacity() + self.ends.capacity();
        if !(SPARE_MIN_WORDS..=SPARE_MAX_WORDS).contains(&capacity) {
            return;
        }
        let (mut words, mut ends) = (mem::take(&mut self.words), mem::take(&mut self.ends));
        words.clear();
        ends.clear();
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < SPARE_TRACES {
                spare.push((words, ends));
            }
        });
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one per-cycle record, taking its words from `values` — the
    /// per-cycle form: nothing is allocated once the trace has grown.
    #[inline]
    pub fn record_words(&mut self, values: impl IntoIterator<Item = u64>) {
        self.words.extend(values);
        self.ends.push(self.words.len());
    }

    /// Appends one per-cycle record.
    pub fn record(&mut self, values: Vec<u64>) {
        self.record_words(values);
    }

    /// The number of recorded cycles.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Captures the current length as a rollback mark.
    #[inline]
    pub fn mark(&self) -> TraceMark {
        TraceMark(self.ends.len())
    }

    /// Discards every record after `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the current length (marks from a *different*
    /// trace or after records were already truncated).
    pub fn truncate(&mut self, mark: TraceMark) {
        assert!(
            mark.0 <= self.ends.len(),
            "trace mark beyond current length"
        );
        self.truncate_to_len(mark.0);
    }

    /// Keeps only the first `len` records (no-op if already shorter). Useful
    /// for comparing a run that overshot against a shorter reference.
    pub fn truncate_to_len(&mut self, len: usize) {
        if len < self.ends.len() {
            self.ends.truncate(len);
            self.words.truncate(self.start_of(len));
        }
    }

    /// The offset in `words` where record `index` starts (`index <= len`).
    fn start_of(&self, index: usize) -> usize {
        index.checked_sub(1).map_or(0, |before| self.ends[before])
    }

    /// Borrows the record of cycle `index`.
    pub fn get(&self, index: usize) -> Option<&[u64]> {
        let end = *self.ends.get(index)?;
        Some(&self.words[self.start_of(index)..end])
    }

    /// Iterates over all committed records.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let rec = &self.words[start..end];
            start = end;
            rec
        })
    }

    /// A 64-bit fingerprint of the whole trace (length-prefixed per record, so
    /// record boundaries matter).
    pub fn hash(&self) -> u64 {
        self.iter().fold(FNV_OFFSET, |h, rec| {
            rec.iter().fold(fnv1a64_word(h, rec.len() as u64), |h, &w| {
                fnv1a64_word(h, w)
            })
        })
    }

    /// Returns the first cycle index at which `self` and `other` differ, or
    /// `None` if one is a prefix of the other (compare lengths separately) or
    /// they are equal.
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        self.iter().zip(other.iter()).position(|(a, b)| a != b)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trace[{} cycles, hash={:016x}]", self.len(), self.hash())
    }
}

/// Whole-trace serialization for session checkpoints. The committed trace is
/// deliberately *outside* every [`DomainModel`-level](crate::Snapshot)
/// snapshot (rollback truncates it with marks instead), so a whole-session
/// checkpoint captures it through this impl: the record count, then each
/// record as a length-prefixed slice.
impl crate::Snapshot for Trace {
    fn save(&self, w: &mut crate::StateWriter<'_>) {
        w.usize(self.len());
        for rec in self.iter() {
            w.slice(rec);
        }
    }

    /// Refills the trace in place. On error it holds the records read before
    /// the bad one.
    fn restore(&mut self, r: &mut crate::StateReader<'_>) -> Result<(), crate::SnapshotError> {
        let n = r.usize()?;
        self.words.clear();
        self.ends.clear();
        // The count comes from a blob; every record costs at least its
        // length word, so the words left bound what it can honestly claim.
        self.ends.reserve(n.min(r.remaining()));
        for _ in 0..n {
            self.words.extend_from_slice(r.prefixed()?);
            self.ends.push(self.words.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Empty input hashes to the offset basis.
        assert_eq!(fnv1a64(&[]), FNV_OFFSET);
        // Deterministic and input-sensitive.
        assert_ne!(fnv1a64(&[1]), fnv1a64(&[2]));
        assert_eq!(fnv1a64(&[1, 2, 3]), fnv1a64(&[1, 2, 3]));
    }

    #[test]
    fn record_and_get() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.record(vec![10, 20]);
        t.record(vec![30]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), Some(&[10u64, 20][..]));
        assert_eq!(t.get(1), Some(&[30u64][..]));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn truncate_discards_speculation() {
        let mut t = Trace::new();
        t.record(vec![1]);
        let mark = t.mark();
        t.record(vec![2]);
        t.record(vec![3]);
        t.truncate(mark);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0), Some(&[1u64][..]));
    }

    #[test]
    fn truncate_to_current_mark_is_noop() {
        let mut t = Trace::new();
        t.record(vec![1]);
        let mark = t.mark();
        t.truncate(mark);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "trace mark beyond current length")]
    fn stale_mark_panics() {
        let mut t = Trace::new();
        t.record(vec![1]);
        let mark = t.mark();
        t.truncate(TraceMark(0));
        t.truncate(mark); // mark now beyond length
    }

    #[test]
    fn hash_differs_on_boundary_moves() {
        let mut a = Trace::new();
        a.record(vec![1, 2]);
        a.record(vec![3]);
        let mut b = Trace::new();
        b.record(vec![1]);
        b.record(vec![2, 3]);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn hash_equal_for_equal_traces() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        for i in 0..100u64 {
            a.record(vec![i, i * 2]);
            b.record(vec![i, i * 2]);
        }
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a, b);
    }

    #[test]
    fn first_divergence_found() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        a.record(vec![1]);
        b.record(vec![1]);
        a.record(vec![2]);
        b.record(vec![9]);
        assert_eq!(a.first_divergence(&b), Some(1));
        b.truncate(TraceMark(1));
        assert_eq!(a.first_divergence(&b), None); // prefix relation
    }

    #[test]
    fn restore_bounds_the_record_count_by_the_words_present() {
        use crate::{restore_from_vec, save_to_vec, SnapshotError, StateVec};
        let mut t = Trace::new();
        t.record(vec![1, 2]);
        t.record(vec![]);
        let saved = save_to_vec(&t);
        let mut back = Trace::new();
        back.record(vec![9]);
        restore_from_vec(&mut back, &saved).unwrap();
        assert_eq!(back, t);

        // A count the blob cannot back is an underrun, not an allocation.
        for words in [vec![1 << 40], vec![1 << 20, 0]] {
            let at = words.len();
            assert_eq!(
                restore_from_vec(&mut back, &StateVec::from(words)),
                Err(SnapshotError::Exhausted { at })
            );
        }
    }

    /// The spare list (each test runs on a thread of its own, so it starts
    /// empty): a long trace's buffers serve the next trace, which starts
    /// empty; short and huge ones are freed; the list is bounded.
    #[test]
    fn a_dropped_long_trace_lends_its_buffers_to_the_next_one() {
        fn filled(records: usize) -> Trace {
            let mut t = Trace::new();
            for i in 0..records as u64 {
                t.record_words([i, !i]);
            }
            t
        }
        let spare = || SPARE.with(|s| s.borrow().len());

        drop(filled(100));
        assert_eq!(spare(), 0, "a short trace goes back to the allocator");

        let long = filled(SPARE_MIN_WORDS);
        let (words, ends) = (long.words.as_ptr(), long.ends.as_ptr());
        let expected = long.hash();
        drop(long);
        assert_eq!(spare(), 1);
        let mut again = Trace::new();
        assert_eq!(spare(), 0);
        assert!(again.is_empty() && again.get(0).is_none());
        assert_eq!(again.hash(), FNV_OFFSET);
        assert_eq!((again.words.as_ptr(), again.ends.as_ptr()), (words, ends));
        for i in 0..SPARE_MIN_WORDS as u64 {
            again.record_words([i, !i]);
        }
        assert_eq!(again.hash(), expected);
        assert_eq!((again.words.as_ptr(), again.ends.as_ptr()), (words, ends));

        // A clone owns buffers of its own; both come back.
        let copy = again.clone();
        assert_eq!(copy, again);
        drop((copy, again));
        assert_eq!(spare(), 2);

        // No more than `SPARE_TRACES`, none over `SPARE_MAX_WORDS`.
        let many: Vec<Trace> = (0..SPARE_TRACES + 3)
            .map(|_| filled(SPARE_MIN_WORDS))
            .collect();
        drop(many);
        assert_eq!(spare(), SPARE_TRACES);
        SPARE.with(|s| s.borrow_mut().clear());
        let mut huge = Trace::new();
        huge.words.reserve_exact(SPARE_MAX_WORDS + 1);
        drop(huge);
        assert_eq!(spare(), 0);
    }

    #[test]
    fn display_shows_len_and_hash() {
        let mut t = Trace::new();
        t.record(vec![5]);
        let s = t.to_string();
        assert!(s.contains("1 cycles"));
        assert!(s.contains("hash="));
    }

    /// The flat representation against the obvious one — a `Vec<Vec<u64>>` —
    /// under random records (empty ones included), marks, truncations and
    /// save / restore: same records, same hash, same serialized words.
    #[test]
    fn flat_trace_matches_a_vec_of_vecs_model() {
        use crate::{restore_from_vec, save_to_vec, SplitMix64};

        fn model_hash(model: &[Vec<u64>]) -> u64 {
            let mut words = Vec::new();
            for rec in model {
                words.push(rec.len() as u64);
                words.extend_from_slice(rec);
            }
            fnv1a64(&words)
        }

        fn assert_same(trace: &Trace, model: &[Vec<u64>], ctx: &str) {
            assert_eq!(trace.len(), model.len(), "{ctx}");
            assert_eq!(trace.is_empty(), model.is_empty(), "{ctx}");
            for (i, rec) in model.iter().enumerate() {
                assert_eq!(trace.get(i), Some(rec.as_slice()), "{ctx}: record {i}");
            }
            assert_eq!(trace.get(model.len()), None, "{ctx}");
            assert!(trace.iter().eq(model.iter().map(Vec::as_slice)), "{ctx}");
            assert_eq!(trace.hash(), model_hash(model), "{ctx}");
        }

        for case in 0..200u64 {
            let mut rng = SplitMix64::new(case ^ 0x7ace);
            let mut trace = Trace::new();
            let mut model: Vec<Vec<u64>> = Vec::new();
            let mut mark = (trace.mark(), 0usize);
            for step in 0..60 {
                let ctx = format!("case {case} step {step}");
                match rng.below(10) {
                    0..=4 => {
                        let rec: Vec<u64> = (0..rng.below(5)).map(|_| rng.next_u64()).collect();
                        if rng.below(2) == 0 {
                            trace.record(rec.clone());
                        } else {
                            trace.record_words(rec.iter().copied());
                        }
                        model.push(rec);
                    }
                    5 => mark = (trace.mark(), model.len()),
                    6 => {
                        // A mark is only good while the trace is at least as
                        // long as when it was taken.
                        if mark.1 <= model.len() {
                            trace.truncate(mark.0);
                            model.truncate(mark.1);
                        }
                    }
                    7 => {
                        let len = rng.below(model.len() as u64 + 3) as usize;
                        trace.truncate_to_len(len);
                        model.truncate(len);
                    }
                    _ => {
                        // Save, restore over a dirty trace, save again.
                        let saved = save_to_vec(&trace);
                        let mut expect = vec![model.len() as u64];
                        for rec in &model {
                            expect.push(rec.len() as u64);
                            expect.extend_from_slice(rec);
                        }
                        assert_eq!(saved.words(), expect, "{ctx}");
                        let mut other = Trace::new();
                        other.record(vec![9; 3]);
                        other.record(vec![]);
                        restore_from_vec(&mut other, &saved).unwrap();
                        assert_eq!(other, trace, "{ctx}");
                        assert_same(&other, &model, &ctx);
                        trace = other;
                    }
                }
                assert_same(&trace, &model, &ctx);
            }
            let mut twin = Trace::new();
            for rec in &model {
                twin.record(rec.clone());
            }
            assert_eq!(twin, trace, "case {case}: equal records, equal traces");
            assert_eq!(twin.first_divergence(&trace), None, "case {case}");
        }
    }
}
