//! Rollback-aware deterministic traces.
//!
//! Correctness of the optimistic protocol is stated as a trace property: the
//! committed per-cycle bus signal values of a split co-emulation must be
//! bit-identical to a monolithic golden simulation. [`Trace`] stores one `Vec<u64>`
//! record per cycle, supports *truncation back to a mark* (so a leader can discard
//! speculative records on rollback), and hashes with FNV-1a for cheap equality
//! assertions in tests and benches.

use std::fmt;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a word slice with 64-bit FNV-1a (byte-serialized little-endian).
///
/// Deterministic across platforms; used to fingerprint traces without keeping
/// the full record around.
pub fn fnv1a64(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
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
/// trace.record(vec![4, 5, 6]); // speculative
/// trace.truncate(mark);        // rolled back
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<Vec<u64>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one per-cycle record.
    pub fn record(&mut self, values: Vec<u64>) {
        self.records.push(values);
    }

    /// The number of recorded cycles.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Captures the current length as a rollback mark.
    pub fn mark(&self) -> TraceMark {
        TraceMark(self.records.len())
    }

    /// Discards every record after `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the current length (marks from a *different*
    /// trace or after records were already truncated).
    pub fn truncate(&mut self, mark: TraceMark) {
        assert!(
            mark.0 <= self.records.len(),
            "trace mark beyond current length"
        );
        self.records.truncate(mark.0);
    }

    /// Keeps only the first `len` records (no-op if already shorter). Useful
    /// for comparing a run that overshot against a shorter reference.
    pub fn truncate_to_len(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// Borrows the record of cycle `index`.
    pub fn get(&self, index: usize) -> Option<&[u64]> {
        self.records.get(index).map(Vec::as_slice)
    }

    /// Iterates over all committed records.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        self.records.iter().map(Vec::as_slice)
    }

    /// A 64-bit fingerprint of the whole trace (length-prefixed per record, so
    /// record boundaries matter).
    pub fn hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for rec in &self.records {
            for b in (rec.len() as u64).to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            for &w in rec {
                for b in w.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(FNV_PRIME);
                }
            }
        }
        h
    }

    /// Returns the first cycle index at which `self` and `other` differ, or
    /// `None` if one is a prefix of the other (compare lengths separately) or
    /// they are equal.
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        self.records
            .iter()
            .zip(&other.records)
            .position(|(a, b)| a != b)
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
/// checkpoint captures it through this impl.
impl crate::Snapshot for Trace {
    fn save(&self, w: &mut crate::StateWriter<'_>) {
        w.usize(self.records.len());
        for rec in &self.records {
            w.slice(rec);
        }
    }

    fn restore(&mut self, r: &mut crate::StateReader<'_>) -> Result<(), crate::SnapshotError> {
        let n = r.usize()?;
        // The count comes from a blob; every record costs at least its
        // length word, so the words left bound what it can honestly claim.
        let mut records = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            records.push(r.slice()?);
        }
        self.records = records;
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

    #[test]
    fn display_shows_len_and_hash() {
        let mut t = Trace::new();
        t.record(vec![5]);
        let s = t.to_string();
        assert!(s.contains("1 cycles"));
        assert!(s.contains("hash="));
    }
}
