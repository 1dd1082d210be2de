//! State snapshot / restore — the rollback substrate.
//!
//! Before each optimistic run-ahead the leader domain stores its complete state
//! ("rollback variables" in the paper); on a prediction failure it restores that
//! state and replays. Every component that lives in a leader-capable domain
//! implements [`Snapshot`]: it serializes its state into a flat [`StateVec`] of
//! `u64` words through a [`StateWriter`] and restores bit-exactly through a
//! [`StateReader`].
//!
//! The word count of a snapshot is the *number of rollback variables*, which
//! drives the store/restore cost model (the paper assumes 1,000 of them).
//!
//! # Cost contract
//!
//! Rollback state is stored before every optimistic transition and brought
//! back on every misprediction, so both directions are on the hot path. One
//! store has two sizes, and they differ on purpose:
//!
//! * **Billed words** are the rollback variables a component *declares*,
//!   [`StateVec::billed_len`]. The ledger charges them (`store_per_var ×
//!   billed_len()`), as the paper prices Tstore / Trest per declared
//!   variable because hardware shadows every one. A component's full save
//!   and its rollback store bill the same count, so no optimisation may
//!   change which words a component declares, or their order: a cheaper host
//!   copy must leave the virtual-time statistics identical.
//! * **Copied words** are the words the host moves, [`StateVec::len`]. A
//!   [`save`](Snapshot::save) copies every word it bills. A
//!   [`mark`](Snapshot::mark) copies only what its rewind needs and declares
//!   the rest through [`StateWriter::journaled`]: a
//!   [`Journaled`](crate::Journaled) store declares its `len + 1` words,
//!   copies none, and logs the old value of each word written until the mark
//!   closes; a list that only grows while a mark is open
//!   ([`GrowOnly`](crate::GrowOnly)) copies its length and declares its
//!   elements ([`Snapshot::saved_len`] counts them without writing them);
//!   derived state a rewind rebuilds anyway (the AHB model's latched local
//!   signal slots) is declared, not copied.
//!
//! # Two paths
//!
//! * **Checkpoint:** [`save`](Snapshot::save) / [`restore`](Snapshot::restore)
//!   write and read the complete layout, which a blob carries from one
//!   session to another. A blob is hostile input, so `restore` checks every
//!   word: range, length prefix, signal decode and each declared check.
//! * **Rollback:** [`mark`](Snapshot::mark) before a run-ahead, then exactly
//!   one of [`rewind`](Snapshot::rewind) (a misprediction: back to the mark)
//!   or [`release`](Snapshot::release) (a clean report: keep what ran). Both
//!   close the mark. A `mark` while one is open supersedes it, and a
//!   `restore` closes it. `rewind` reads the vector its `mark` wrote and no
//!   other, so it trusts it: the leaf rewinds read their words with
//!   [`StateReader::marked_word`], with no range check, no error label and
//!   no `Result`, and a rewind cannot fail (a layout mismatch is a bug, and
//!   panics). The provided bodies are `save`, `restore` (which cannot fail
//!   on its own save) and nothing, so a hand-written component rolls back by
//!   a full, checked copy.
//!
//! Both paths write into a buffer the caller keeps ([`save_into`] /
//! [`mark_into`] clear and refill a [`StateVec`] whose allocation survives
//! from one store to the next), and both read into the target's own
//! allocations: components take variable-length state with
//! [`StateReader::slice_into`] / [`StateReader::slice_u32_into`] into the
//! vector they already own instead of building a new one.
//!
//! # Declaring state
//!
//! A component declares its state once, as a list of its state fields given
//! to [`declare_state!`](crate::declare_state), and all five methods are
//! generated from that list:
//!
//! * **Field order is wire order.** Each field writes what its type's own
//!   `Snapshot` writes, one field after another; a field not listed is
//!   configuration and is never written. The leaf impls cover the shapes the
//!   layouts use: `u32`, `u64`, `usize` and `bool`; `u8` and `u16`, one word
//!   each, refused above their range; `Option<T>`, a flag and then `T`,
//!   restored in place; `Vec<u32>`, `VecDeque<u32>` and `[u32; N]`,
//!   length-prefixed, through the bulk readers.
//!   [`VirtualTime`](crate::VirtualTime) is declared as its one word of
//!   picoseconds.
//! * **A field's codec overrides its type's layout**: `field: Each` (every
//!   element, no length word), `field: Present` (the filled slots of a
//!   `Vec<Option<T>>`), `field: List` (a length word, then each element of
//!   a `Vec` or a `VecDeque`), `field: GrowOnly` (`List`'s layout for a
//!   list that only grows while a mark is open, rolled back by truncation),
//!   or any other [`Codec`](crate::Codec).
//! * **A check runs right after its field is read**: `field => |this, at|
//!   …` sees every field read so far and refuses, as
//!   [`SnapshotError::Corrupt`], at the exact word it names (see
//!   [`Verdict`](crate::Verdict)), before a later word is read.
//! * **Rollback reaches every field**: `mark` / `rewind` / `release` go to
//!   each one, so a [`Journaled`](crate::Journaled) field, or a field that
//!   holds one, rolls back by journal without a line of forwarding, and no
//!   check runs on a rewind.
//! * **The declared word count** is generated too: `saved_len` is the sum of
//!   the fields' counts, each leaf's without writing anything.
//!
//! Every component is declared — the bus and its engines, the predictors,
//! the channel with its transports and the reliable layer's windows, the
//! ledger and the random stream — but for the leaves above, the
//! [`Journaled`](crate::Journaled) store and three impls that stay
//! hand-written on purpose:
//!
//! * **`Trace`** writes a record count and then each record, and reads the
//!   records straight into its one word buffer. It is the committed history,
//!   outside every rollback, and ROADMAP item 15 replaces it with a running
//!   hash, so a codec for it would not outlive it.
//! * **The AHB model's `Slots`** (`predpkt-core`) journals on the hot path:
//!   its mark declares a local component's latched outputs instead of
//!   copying them and its rewind skips them, a per-slot choice by a bit mask
//!   that no field list can state.
//! * **The wrapper's section walk** (`ChannelWrapper`'s checkpoint in
//!   `predpkt-core`) labels the model, the trace and the wrapper as sections
//!   of one cut and poisons the wrapper when a restore fails: the labels and
//!   the quarantine are the walk's whole job, and neither is a field.
//!
//! A hand-written decorator — the `Box<S>` impl here, the benchmark's timing
//! wrappers — forwards all three of `mark` / `rewind` / `release`, or none.
//! Forwarding `mark` without `rewind` would have the provided `rewind` — a
//! full `restore` — read a short vector as a full one. Forwarding none keeps
//! the wrapped component on the full-copy path: correct, only slower.

use std::error::Error;
use std::fmt;

/// A serialized component state: a flat vector of 64-bit words.
///
/// Produced by [`Snapshot::save`] via [`StateWriter`]; consumed by
/// [`Snapshot::restore`] via [`StateReader`].
///
/// Alongside the words it carries an optional table of *labeled sections*
/// (component name → starting word offset), written by
/// [`StateWriter::section`]. Sections are pure bookkeeping: they do not add
/// words, so [`billed_len`](Self::billed_len) — the rollback-variable count
/// that drives the store/restore cost model — is unaffected, and two state
/// vectors compare equal iff their **words** are equal.
#[derive(Debug, Clone, Default)]
pub struct StateVec {
    words: Vec<u64>,
    sections: Vec<(&'static str, usize)>,
    /// Rollback variables declared through [`StateWriter::journaled`]: billed,
    /// never written.
    journaled: usize,
}

impl StateVec {
    /// Creates an empty state vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of stored words: what the host copies. For a vector
    /// [`save`](Snapshot::save) wrote, also the rollback-variable count.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// The rollback variables this vector stands for: the stored words plus
    /// those declared through [`StateWriter::journaled`]. What the ledger
    /// bills; a [`mark`](Snapshot::mark) bills what a full save of the same
    /// state stores.
    #[inline]
    pub fn billed_len(&self) -> usize {
        self.words.len() + self.journaled
    }

    /// `true` if no words are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Borrows the raw words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Empties the vector for a new store, keeping its allocations.
    fn clear(&mut self) {
        self.words.clear();
        self.sections.clear();
        self.journaled = 0;
    }

    /// The labeled sections, as `(name, starting word offset)` pairs in
    /// ascending offset order.
    pub fn sections(&self) -> &[(&'static str, usize)] {
        &self.sections
    }

    /// The name of the section covering word `at`, if any (the last section
    /// starting at or before `at`).
    pub fn section_at(&self, at: usize) -> Option<&'static str> {
        self.sections
            .iter()
            .rev()
            .find(|(_, start)| *start <= at)
            .map(|(name, _)| *name)
    }
}

impl PartialEq for StateVec {
    /// Word-for-word equality; section labels are diagnostics, not state.
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for StateVec {}

impl From<Vec<u64>> for StateVec {
    fn from(words: Vec<u64>) -> Self {
        StateVec {
            words,
            ..StateVec::default()
        }
    }
}

/// Push-side cursor for building a [`StateVec`].
#[derive(Debug)]
pub struct StateWriter<'a> {
    out: &'a mut StateVec,
}

impl<'a> StateWriter<'a> {
    /// Creates a writer appending to `out`.
    #[inline]
    pub fn new(out: &'a mut StateVec) -> Self {
        StateWriter { out }
    }

    /// Appends one raw word.
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.out.words.push(w);
        self
    }

    /// Appends a `u32` (zero-extended).
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.word(v as u64)
    }

    /// Appends a `usize` (zero-extended).
    #[inline]
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.word(v as u64)
    }

    /// Appends a `bool` as 0/1.
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.word(v as u64)
    }

    /// Declares `n` rollback variables that a [`mark`](Snapshot::mark)
    /// leaves where they are instead of writing them (a
    /// [`Journaled`](crate::Journaled) store keeps its own undo log). Writes
    /// no words; adds `n` to [`StateVec::billed_len`].
    #[inline]
    pub fn journaled(&mut self, n: usize) -> &mut Self {
        self.out.journaled += n;
        self
    }

    /// Appends a length-prefixed slice of words.
    #[inline]
    pub fn slice(&mut self, v: &[u64]) -> &mut Self {
        self.out.words.reserve(v.len() + 1);
        self.usize(v.len());
        self.out.words.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed slice of `u32` words (each zero-extended to
    /// one word).
    #[inline]
    pub fn slice_u32(&mut self, v: &[u32]) -> &mut Self {
        self.out.words.reserve(v.len() + 1);
        self.usize(v.len());
        self.out.words.extend(v.iter().map(|&w| u64::from(w)));
        self
    }

    /// Opens a labeled section starting at the current word offset. Costs no
    /// words — it only records `(name, offset)` in the [`StateVec`]'s section
    /// table, so a restore failure anywhere past this point (until the next
    /// section) is reported against `name` instead of a bare word index.
    #[inline]
    pub fn section(&mut self, name: &'static str) -> &mut Self {
        self.out.sections.push((name, self.out.words.len()));
        self
    }
}

/// Pop-side cursor for consuming a [`StateVec`].
///
/// When the state vector carries [labeled sections](StateWriter::section),
/// every error this reader produces is wrapped in
/// [`SnapshotError::InSection`], naming the component whose words failed —
/// the difference between "corrupt at word 3127" and "corrupt in
/// `acc.model` at offset 12".
#[derive(Debug)]
pub struct StateReader<'a> {
    words: &'a [u64],
    sections: &'a [(&'static str, usize)],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Creates a reader over `state`.
    #[inline]
    pub fn new(state: &'a StateVec) -> Self {
        StateReader {
            words: &state.words,
            sections: &state.sections,
            pos: 0,
        }
    }

    /// Wraps `err` (anchored at absolute word `at`) with the covering
    /// section's label, if any.
    #[cold]
    fn label(&self, at: usize, err: SnapshotError) -> SnapshotError {
        match self.sections.iter().rev().find(|(_, start)| *start <= at) {
            Some((name, start)) => SnapshotError::InSection {
                section: name,
                offset: at - start,
                source: Box::new(err),
            },
            None => err,
        }
    }

    /// Reads one raw word.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Exhausted`] if the vector is consumed.
    #[inline]
    pub fn word(&mut self) -> Result<u64, SnapshotError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.label(self.pos, SnapshotError::Exhausted { at: self.pos }))?;
        self.pos += 1;
        Ok(w)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Exhausted`] on underrun or
    /// [`SnapshotError::Corrupt`] if the word does not fit.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let w = self.word()?;
        u32::try_from(w)
            .map_err(|_| self.label(self.pos - 1, SnapshotError::Corrupt { at: self.pos - 1 }))
    }

    /// Reads a `usize`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateReader::u32`].
    #[inline]
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let w = self.word()?;
        usize::try_from(w)
            .map_err(|_| self.label(self.pos - 1, SnapshotError::Corrupt { at: self.pos - 1 }))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] unless the word is 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.word()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.label(self.pos - 1, SnapshotError::Corrupt { at: self.pos - 1 })),
        }
    }

    /// Reads `N` words, each a `u32`: a packed value's run of words.
    ///
    /// # Errors
    ///
    /// As [`StateReader::u32`], at the first word that fails.
    #[inline]
    pub fn u32_array<const N: usize>(&mut self) -> Result<[u32; N], SnapshotError> {
        let mut words = [0; N];
        for word in &mut words {
            *word = self.u32()?;
        }
        Ok(words)
    }

    /// Reads a length prefix and borrows the `n` words it announces,
    /// advancing past them. The prefix comes from outside (a checkpoint
    /// blob), so it is compared with the words remaining before anything is
    /// sized by it; an overrun consumes the rest of the vector, as reading
    /// word by word would.
    #[inline]
    pub(crate) fn prefixed(&mut self) -> Result<&'a [u64], SnapshotError> {
        let n = self.usize()?;
        self.body(n)
    }

    /// Borrows the next `n` words, advancing past them; `n` is checked
    /// against the words remaining first (see [`prefixed`](Self::prefixed)).
    #[inline]
    fn body(&mut self, n: usize) -> Result<&'a [u64], SnapshotError> {
        if n > self.remaining() {
            self.pos = self.words.len();
            return Err(self.label(self.pos, SnapshotError::Exhausted { at: self.pos }));
        }
        let body = &self.words[self.pos..self.pos + n];
        self.pos += n;
        Ok(body)
    }

    /// The error for `body` — the words just read — once a narrowing copy
    /// saw a word above `u32::MAX` in it: corrupt at the first such word,
    /// with the cursor just past it.
    #[cold]
    fn too_wide(&mut self, body: &[u64]) -> SnapshotError {
        let bad = body
            .iter()
            .position(|&w| w > u64::from(u32::MAX))
            .expect("a word above u32::MAX set the high bits");
        let at = self.pos - body.len() + bad;
        self.pos = at + 1;
        self.corrupt_at(at)
    }

    /// Reads a length-prefixed slice of words into `out`, replacing its
    /// contents and reusing its allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Exhausted`] on underrun.
    #[inline]
    pub fn slice_into(&mut self, out: &mut Vec<u64>) -> Result<(), SnapshotError> {
        out.clear();
        out.extend_from_slice(self.prefixed()?);
        Ok(())
    }

    /// Reads a length-prefixed slice of `u32` words into `out`, replacing its
    /// contents and reusing its allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateReader::u32`], except that a length prefix
    /// beyond the words remaining is [`SnapshotError::Exhausted`] whatever
    /// those words hold. On error `out` holds no meaningful contents.
    #[inline]
    pub fn slice_u32_into(&mut self, out: &mut Vec<u32>) -> Result<(), SnapshotError> {
        out.clear();
        let body = self.prefixed()?;
        // Range check and narrowing copy in one pass: a word that does not
        // fit sets a bit above the low 32 in `seen`.
        let mut seen = 0;
        out.extend(body.iter().map(|&w| {
            seen |= w;
            w as u32
        }));
        if seen > u64::from(u32::MAX) {
            return Err(self.too_wide(body));
        }
        Ok(())
    }

    /// [`slice_u32_into`](Self::slice_u32_into) for a store of fixed size:
    /// a length prefix other than `out.len()` is [`SnapshotError::Corrupt`]
    /// at the prefix, refused before any word is copied, so `out` keeps its
    /// size whatever the vector held.
    pub(crate) fn slice_u32_exact(&mut self, out: &mut [u32]) -> Result<(), SnapshotError> {
        let at = self.pos;
        if self.usize()? != out.len() {
            return Err(self.corrupt_at(at));
        }
        let body = self.body(out.len())?;
        let mut seen = 0;
        for (slot, &w) in out.iter_mut().zip(body) {
            seen |= w;
            *slot = w as u32;
        }
        if seen > u64::from(u32::MAX) {
            return Err(self.too_wide(body));
        }
        Ok(())
    }

    /// Reads a length-prefixed slice of words into a fresh vector.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateReader::slice_into`].
    pub fn slice(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let mut out = Vec::new();
        self.slice_into(&mut out)?;
        Ok(out)
    }

    /// Reads the next word of a vector its own component's
    /// [`mark`](Snapshot::mark) wrote: the rewind's read, with no range
    /// check, no label and no `Result`. The layout is the component's own,
    /// so reading past the end is a bug, and panics.
    #[inline]
    pub fn marked_word(&mut self) -> u64 {
        let w = self.words[self.pos];
        self.pos += 1;
        w
    }

    /// Borrows the next `n` words of a vector a mark wrote, advancing past
    /// them, as [`marked_word`](Self::marked_word) reads one.
    #[inline]
    pub fn marked_words(&mut self, n: usize) -> &'a [u64] {
        let run = &self.words[self.pos..self.pos + n];
        self.pos += n;
        run
    }

    /// The absolute index of the next word to be read.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The number of words not yet read — the bound on any count or length
    /// the remaining words can honestly announce.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// Builds a section-labeled [`SnapshotError::Corrupt`] anchored at
    /// absolute word `at` — for components whose domain validation (tag
    /// decode, enum range) goes beyond what the typed readers check.
    pub fn corrupt_at(&self, at: usize) -> SnapshotError {
        self.label(at, SnapshotError::Corrupt { at })
    }

    /// Asserts the snapshot was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::TrailingWords`] if words remain.
    #[inline]
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(self.label(
                self.pos,
                SnapshotError::TrailingWords {
                    remaining: self.words.len() - self.pos,
                },
            ))
        }
    }
}

/// Failure while restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The reader ran past the end of the state vector.
    Exhausted {
        /// Word index at which the read was attempted.
        at: usize,
    },
    /// A word failed validation (wrong range for the target type).
    Corrupt {
        /// Word index of the offending word.
        at: usize,
    },
    /// `finish` found unconsumed words.
    TrailingWords {
        /// Number of words left unread.
        remaining: usize,
    },
    /// A failure inside a [labeled section](StateWriter::section): the
    /// component whose words failed, the offset *within* that component, and
    /// the underlying error (whose indices stay absolute).
    InSection {
        /// Name of the labeled section (component) covering the failure.
        section: &'static str,
        /// Word offset of the failure relative to the section start.
        offset: usize,
        /// The underlying failure.
        source: Box<SnapshotError>,
    },
}

impl SnapshotError {
    /// The labeled section (component name) the failure occurred in, if the
    /// state vector carried section labels.
    pub fn section(&self) -> Option<&'static str> {
        match self {
            SnapshotError::InSection { section, .. } => Some(section),
            _ => None,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Exhausted { at } => write!(f, "snapshot exhausted at word {at}"),
            SnapshotError::Corrupt { at } => write!(f, "snapshot corrupt at word {at}"),
            SnapshotError::TrailingWords { remaining } => {
                write!(f, "snapshot has {remaining} trailing words")
            }
            SnapshotError::InSection {
                section,
                offset,
                source,
            } => write!(f, "in component `{section}` (offset {offset}): {source}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::InSection { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A component whose state can be checkpointed and restored bit-exactly.
///
/// The round-trip law `restore(save(x)); save(x) == save(x)` is enforced by
/// the shared seeded harness in `crates/core/tests/snapshot_roundtrip.rs`,
/// which sweeps every `Snapshot` implementation in the workspace.
pub trait Snapshot {
    /// Serializes the complete dynamic state into `w`.
    fn save(&self, w: &mut StateWriter<'_>);

    /// Restores the state previously produced by [`save`](Snapshot::save).
    ///
    /// The target is in general *dirty and of another size*: a rollback
    /// restores over whatever the mispredicted cycles left behind (a FIFO
    /// that filled, a job list that grew). Variable-length state is
    /// therefore cleared and refilled in the allocation the component
    /// already owns ([`StateReader::slice_u32_into`]), never appended to and
    /// never rebuilt in a new one.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the reader underruns or a word fails
    /// validation. On error the component may be left partially restored,
    /// but still a valid target for the next well-formed vector:
    /// callers that keep the component alive **must** quarantine it (the
    /// protocol engine poisons its wrapper, so every later step fails with
    /// [`SimError::StatePoisoned`](crate::SimError) instead of silently
    /// diverging).
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;

    /// The number of words [`save`](Snapshot::save) writes for the current
    /// state, without writing them: what a [`mark`](Snapshot::mark) bills
    /// for state it declares instead of copying. The provided body saves
    /// into a scratch vector and counts.
    fn saved_len(&self) -> usize {
        save_to_vec(self).len()
    }

    /// Opens a rollback mark: writes what [`rewind`](Snapshot::rewind) needs
    /// to return here, declaring through [`StateWriter::journaled`] whatever
    /// state is journaled instead of written, so the vector bills exactly what
    /// [`save`](Snapshot::save) would store. Supersedes an open mark. See
    /// "Two paths" in the module docs; the provided body is a full `save`.
    fn mark(&mut self, w: &mut StateWriter<'_>) {
        self.save(w);
    }

    /// Returns to the state at the open mark, reading the vector
    /// [`mark`](Snapshot::mark) wrote, and closes the mark. That vector is
    /// the component's own, so a rewind trusts it and checks nothing: a
    /// layout mismatch is a bug and panics. The provided body is a full
    /// `restore`, which cannot fail on a vector its own `save` wrote.
    fn rewind(&mut self, r: &mut StateReader<'_>) {
        self.restore(r).expect("a rewind reads its own mark");
    }

    /// Closes the open mark and keeps the current state. The provided body
    /// has nothing to close.
    fn release(&mut self) {}
}

/// A boxed component checkpoints and rolls back as the component it holds,
/// so type-erased state (`Box<dyn Snapshot>`) behaves exactly like the
/// concrete type.
impl<S: Snapshot + ?Sized> Snapshot for Box<S> {
    fn save(&self, w: &mut StateWriter<'_>) {
        (**self).save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        (**self).restore(r)
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        (**self).mark(w);
    }

    fn saved_len(&self) -> usize {
        (**self).saved_len()
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) {
        (**self).rewind(r);
    }

    fn release(&mut self) {
        (**self).release();
    }
}

/// Saves any [`Snapshot`] component into `state`, replacing its words and
/// section labels and reusing its allocations — the form for a caller that
/// snapshots repeatedly.
pub fn save_into<S: Snapshot + ?Sized>(component: &S, state: &mut StateVec) {
    state.clear();
    component.save(&mut StateWriter::new(state));
}

/// Opens a rollback [`mark`](Snapshot::mark) on `component`, replacing
/// `state`'s contents and reusing its allocations. `state` then bills
/// ([`StateVec::billed_len`]) what a full save would store, and holds only
/// the words the component copied.
pub fn mark_into<S: Snapshot + ?Sized>(component: &mut S, state: &mut StateVec) {
    state.clear();
    component.mark(&mut StateWriter::new(state));
}

/// [`Rewinds`](Snapshot::rewind) `component` to the mark that wrote `state`
/// ([`mark_into`]).
///
/// # Panics
///
/// Panics if the rewind did not read every word the mark wrote: the mark
/// and its rewind disagree on the layout.
pub fn rewind_from_vec<S: Snapshot + ?Sized>(component: &mut S, state: &StateVec) {
    let mut reader = StateReader::new(state);
    component.rewind(&mut reader);
    assert_eq!(reader.remaining(), 0, "a rewind reads all of its own mark");
}

/// Convenience: saves any [`Snapshot`] component into a fresh [`StateVec`].
pub fn save_to_vec<S: Snapshot + ?Sized>(component: &S) -> StateVec {
    let mut state = StateVec::new();
    save_into(component, &mut state);
    state
}

/// Convenience: restores any [`Snapshot`] component from a [`StateVec`],
/// asserting full consumption.
///
/// # Errors
///
/// Propagates any [`SnapshotError`] from the component or from trailing words.
pub fn restore_from_vec<S: Snapshot + ?Sized>(
    component: &mut S,
    state: &StateVec,
) -> Result<(), SnapshotError> {
    let mut reader = StateReader::new(state);
    component.restore(&mut reader)?;
    reader.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Widget {
        counter: u32,
        armed: bool,
        fifo: Vec<u32>,
    }

    impl Snapshot for Widget {
        fn save(&self, w: &mut StateWriter<'_>) {
            w.u32(self.counter).bool(self.armed).slice_u32(&self.fifo);
        }
        fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
            self.counter = r.u32()?;
            self.armed = r.bool()?;
            r.slice_u32_into(&mut self.fifo)
        }
    }

    #[test]
    fn roundtrip_restores_exactly() {
        let original = Widget {
            counter: 42,
            armed: true,
            fifo: vec![1, 2, 3],
        };
        let state = save_to_vec(&original);
        let mut copy = Widget {
            counter: 0,
            armed: false,
            fifo: vec![],
        };
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, original);
    }

    #[test]
    fn word_count_tracks_rollback_variables() {
        let w = Widget {
            counter: 1,
            armed: false,
            fifo: vec![9; 5],
        };
        // counter + armed + length prefix + 5 entries = 8 words.
        assert_eq!(save_to_vec(&w).len(), 8);
    }

    #[test]
    fn exhausted_read_errors() {
        let state = StateVec::from(vec![7]);
        let mut r = StateReader::new(&state);
        assert_eq!(r.word().unwrap(), 7);
        assert_eq!(r.word(), Err(SnapshotError::Exhausted { at: 1 }));
    }

    #[test]
    fn bool_validation() {
        let state = StateVec::from(vec![2]);
        let mut r = StateReader::new(&state);
        assert_eq!(r.bool(), Err(SnapshotError::Corrupt { at: 0 }));
    }

    #[test]
    fn u32_range_validation() {
        let state = StateVec::from(vec![u64::MAX]);
        let mut r = StateReader::new(&state);
        assert_eq!(r.u32(), Err(SnapshotError::Corrupt { at: 0 }));
    }

    #[test]
    fn trailing_words_detected() {
        let w = Widget {
            counter: 1,
            armed: false,
            fifo: vec![],
        };
        let mut state = save_to_vec(&w);
        state.words.push(99);
        let mut copy = w.clone();
        assert_eq!(
            restore_from_vec(&mut copy, &state),
            Err(SnapshotError::TrailingWords { remaining: 1 })
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            SnapshotError::Exhausted { at: 3 }.to_string(),
            "snapshot exhausted at word 3"
        );
        assert_eq!(
            SnapshotError::Corrupt { at: 0 }.to_string(),
            "snapshot corrupt at word 0"
        );
        assert_eq!(
            SnapshotError::TrailingWords { remaining: 2 }.to_string(),
            "snapshot has 2 trailing words"
        );
    }

    #[test]
    fn sections_cost_no_words_and_label_errors() {
        let mut state = StateVec::new();
        let mut w = StateWriter::new(&mut state);
        w.section("alpha").u32(1).u32(2).section("beta").bool(true);
        assert_eq!(state.len(), 3, "section labels must not add words");
        assert_eq!(state.sections(), &[("alpha", 0), ("beta", 2)]);
        assert_eq!(state.section_at(0), Some("alpha"));
        assert_eq!(state.section_at(2), Some("beta"));

        // Corrupt beta's word: the error names the component.
        state.words[2] = 7; // not a valid bool
        let mut r = StateReader::new(&state);
        r.u32().unwrap();
        r.u32().unwrap();
        let err = r.bool().unwrap_err();
        assert_eq!(err.section(), Some("beta"));
        match &err {
            SnapshotError::InSection {
                section,
                offset,
                source,
            } => {
                assert_eq!(*section, "beta");
                assert_eq!(*offset, 0);
                assert_eq!(**source, SnapshotError::Corrupt { at: 2 });
            }
            other => panic!("expected InSection, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("beta"), "{text}");
        assert!(text.contains("corrupt at word 2"), "{text}");
    }

    #[test]
    fn section_labels_do_not_affect_equality() {
        let mut labeled = StateVec::new();
        StateWriter::new(&mut labeled).section("x").u32(5);
        let plain = StateVec::from(vec![5]);
        assert_eq!(labeled, plain);
    }

    #[test]
    fn exhaustion_past_last_section_is_labeled() {
        let mut state = StateVec::new();
        StateWriter::new(&mut state).section("tail").u32(1);
        let mut r = StateReader::new(&state);
        r.u32().unwrap();
        let err = r.word().unwrap_err();
        assert_eq!(err.section(), Some("tail"));
    }

    #[test]
    fn save_into_replaces_words_and_sections() {
        struct Labeled(Widget);
        impl Snapshot for Labeled {
            fn save(&self, w: &mut StateWriter<'_>) {
                w.section("widget");
                self.0.save(w);
            }
            fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                self.0.restore(r)
            }
        }
        let component = Labeled(Widget {
            counter: 3,
            armed: true,
            fifo: vec![4, 5],
        });
        let mut reused = StateVec::new();
        StateWriter::new(&mut reused)
            .section("stale")
            .slice(&[9; 40])
            .section("staler")
            .u32(1);
        save_into(&component, &mut reused);
        let fresh = save_to_vec(&component);
        assert_eq!(reused.words(), fresh.words());
        assert_eq!(reused.sections(), fresh.sections());
        assert_eq!(reused.sections(), &[("widget", 0)]);
    }

    /// The bulk readers fail with the error, index, label and cursor the
    /// word-by-word readers gave.
    #[test]
    fn bulk_readers_validate_like_the_per_word_readers() {
        let labeled = |words: &[u64]| {
            let mut state = StateVec::from(words.to_vec());
            state.sections.push(("blob", 0));
            state
        };
        // The section starts at word 0, so the offset is the absolute index.
        let in_blob = |at: usize, source: SnapshotError| SnapshotError::InSection {
            section: "blob",
            offset: at,
            source: Box::new(source),
        };
        let mut out = vec![7u32; 3];
        for (words, err, position) in [
            // A length no vector can hold: nothing is reserved for it.
            (
                &[u64::MAX][..],
                in_blob(1, SnapshotError::Exhausted { at: 1 }),
                1,
            ),
            (
                &[5, 1, 2][..],
                in_blob(3, SnapshotError::Exhausted { at: 3 }),
                3,
            ),
            (
                &[2, 1, 1 << 32][..],
                in_blob(2, SnapshotError::Corrupt { at: 2 }),
                3,
            ),
            (
                &[3, 1, 1 << 32, 1 << 33][..],
                in_blob(2, SnapshotError::Corrupt { at: 2 }),
                3,
            ),
        ] {
            let state = labeled(words);
            let mut r = StateReader::new(&state);
            assert_eq!(r.slice_u32_into(&mut out), Err(err), "{words:?}");
            assert_eq!(r.position(), position, "{words:?}");
            assert!(
                out.capacity() < 64,
                "reserved for a bogus length: {words:?}"
            );
        }

        let state = labeled(&[5, 1, 2]);
        let mut r = StateReader::new(&state);
        let mut wide = vec![7u64; 3];
        assert_eq!(
            r.slice_into(&mut wide),
            Err(in_blob(3, SnapshotError::Exhausted { at: 3 }))
        );
        assert_eq!(r.position(), 3);

        // A good vector then restores over whatever the failures left.
        let state = labeled(&[2, 8, 9, 1, u64::MAX]);
        let mut r = StateReader::new(&state);
        r.slice_u32_into(&mut out).unwrap();
        assert_eq!(out, [8, 9]);
        assert_eq!(r.remaining(), 2);
        r.slice_into(&mut wide).unwrap();
        assert_eq!(wide, [u64::MAX]);
        r.finish().unwrap();
    }

    /// Without a journal a mark is a full save and a rewind a full restore,
    /// and a mark's vector bills what it holds plus what it declares.
    #[test]
    fn provided_mark_and_rewind_copy_in_full() {
        let mut widget = Widget {
            counter: 7,
            armed: true,
            fifo: vec![1, 2],
        };
        let saved = save_to_vec(&widget);
        let mut mark = StateVec::new();
        StateWriter::new(&mut mark)
            .section("stale")
            .journaled(40)
            .u32(1);
        mark_into(&mut widget, &mut mark);
        assert_eq!(mark, saved);
        assert_eq!(mark.billed_len(), saved.len());
        assert!(mark.sections().is_empty());
        widget.fifo.push(3);
        widget.release();
        rewind_from_vec(&mut widget, &mark);
        assert_eq!(save_to_vec(&widget), saved);

        let mut declared = StateVec::new();
        StateWriter::new(&mut declared).u32(1).journaled(5).u32(2);
        assert_eq!((declared.len(), declared.billed_len()), (2, 7));
    }

    #[test]
    fn empty_component_roundtrip() {
        struct Empty;
        impl Snapshot for Empty {
            fn save(&self, _w: &mut StateWriter<'_>) {}
            fn restore(&mut self, _r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                Ok(())
            }
        }
        let state = save_to_vec(&Empty);
        assert!(state.is_empty());
        restore_from_vec(&mut Empty, &state).unwrap();
    }
}
