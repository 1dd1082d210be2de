//! Declared state: the leaf codecs, the field codecs and the
//! [`declare_state!`](crate::declare_state) macro that builds a component's
//! [`Snapshot`] from one field list. See "Declaring state" in the
//! [`Snapshot`] module docs.

use crate::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use std::collections::VecDeque;

/// One word each, through the typed reader of the same name; a rewind
/// takes the word back as its own mark wrote it.
macro_rules! scalar {
    ($($ty:ty => $op:ident),* $(,)?) => {$(
        impl Snapshot for $ty {
            #[inline]
            fn save(&self, w: &mut StateWriter<'_>) {
                w.$op(*self);
            }

            #[inline]
            fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                *self = r.$op()?;
                Ok(())
            }

            #[inline]
            fn saved_len(&self) -> usize {
                1
            }

            #[inline]
            fn rewind(&mut self, r: &mut StateReader<'_>) {
                *self = r.marked_word() as $ty;
            }
        }
    )*};
}

scalar!(u32 => u32, u64 => word, usize => usize);

/// One word, 0 or 1.
impl Snapshot for bool {
    #[inline]
    fn save(&self, w: &mut StateWriter<'_>) {
        w.bool(*self);
    }

    #[inline]
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = r.bool()?;
        Ok(())
    }

    #[inline]
    fn saved_len(&self) -> usize {
        1
    }

    #[inline]
    fn rewind(&mut self, r: &mut StateReader<'_>) {
        *self = r.marked_word() != 0;
    }
}

/// One word each, refused at that word above the type's range.
macro_rules! narrow {
    ($($ty:ty),*) => {$(
        impl Snapshot for $ty {
            #[inline]
            fn save(&self, w: &mut StateWriter<'_>) {
                w.u32(u32::from(*self));
            }

            #[inline]
            fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                let at = r.position();
                *self = <$ty>::try_from(r.u32()?).map_err(|_| r.corrupt_at(at))?;
                Ok(())
            }

            #[inline]
            fn saved_len(&self) -> usize {
                1
            }

            #[inline]
            fn rewind(&mut self, r: &mut StateReader<'_>) {
                *self = r.marked_word() as $ty;
            }
        }
    )*};
}

narrow!(u8, u16);

/// A presence flag, then the value. A restore over `Some` restores the value
/// in place, so its own allocations are reused; over `None` it starts from
/// `T::default()`. A mark and a rewind reach the value through its own
/// `mark` and `rewind`, in the same place: a value whose mark is its save
/// (one built from leaves) rewinds from whatever the option holds.
impl<T: Snapshot + Default> Snapshot for Option<T> {
    #[inline]
    fn save(&self, w: &mut StateWriter<'_>) {
        w.bool(self.is_some());
        if let Some(value) = self {
            value.save(w);
        }
    }

    #[inline]
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        if r.bool()? {
            self.get_or_insert_with(T::default).restore(r)
        } else {
            *self = None;
            Ok(())
        }
    }

    #[inline]
    fn saved_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Snapshot::saved_len)
    }

    #[inline]
    fn mark(&mut self, w: &mut StateWriter<'_>) {
        w.bool(self.is_some());
        if let Some(value) = self {
            value.mark(w);
        }
    }

    #[inline]
    fn rewind(&mut self, r: &mut StateReader<'_>) {
        if r.marked_word() != 0 {
            self.get_or_insert_with(T::default).rewind(r);
        } else {
            *self = None;
        }
    }

    #[inline]
    fn release(&mut self) {
        if let Some(value) = self {
            value.release();
        }
    }
}

/// Copies a run of words a mark wrote, each a `u32`, into `out`.
#[inline]
fn narrow_into(out: &mut [u32], run: &[u64]) {
    for (slot, &w) in out.iter_mut().zip(run) {
        *slot = w as u32;
    }
}

/// The words of a length-prefixed run a mark wrote, each a `u32`.
#[inline]
fn marked_slice<'a>(r: &mut StateReader<'a>) -> impl Iterator<Item = u32> + 'a {
    let n = r.marked_word() as usize;
    r.marked_words(n).iter().map(|&w| w as u32)
}

/// The length-prefixed layout of [`StateWriter::slice_u32`], restored into
/// the vector's own allocation.
impl Snapshot for Vec<u32> {
    #[inline]
    fn save(&self, w: &mut StateWriter<'_>) {
        w.slice_u32(self);
    }

    #[inline]
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        r.slice_u32_into(self)
    }

    #[inline]
    fn saved_len(&self) -> usize {
        1 + self.len()
    }

    #[inline]
    fn rewind(&mut self, r: &mut StateReader<'_>) {
        self.clear();
        self.extend(marked_slice(r));
    }
}

/// The layout of the `Vec<u32>` its contents form. A cleared deque and a
/// vector trade their allocation without copying, so the restore refills the
/// deque's own buffer.
impl Snapshot for VecDeque<u32> {
    fn save(&self, w: &mut StateWriter<'_>) {
        let (front, back) = self.as_slices();
        w.usize(self.len());
        for &word in front.iter().chain(back) {
            w.u32(word);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.clear();
        let mut words = Vec::from(std::mem::take(self));
        let read = r.slice_u32_into(&mut words);
        *self = words.into();
        read
    }

    fn saved_len(&self) -> usize {
        1 + self.len()
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) {
        self.clear();
        self.extend(marked_slice(r));
    }
}

/// The length-prefixed layout of [`StateWriter::slice_u32`]; a length word
/// other than `N` is refused at that word, before anything is copied.
impl<const N: usize> Snapshot for [u32; N] {
    #[inline]
    fn save(&self, w: &mut StateWriter<'_>) {
        w.slice_u32(self);
    }

    #[inline]
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        r.slice_u32_exact(self)
    }

    #[inline]
    fn saved_len(&self) -> usize {
        1 + N
    }

    #[inline]
    fn rewind(&mut self, r: &mut StateReader<'_>) {
        r.marked_word();
        narrow_into(self, r.marked_words(N));
    }
}

/// Reads the `N` words a packed value's mark wrote.
#[doc(hidden)]
#[inline]
pub fn marked_array<const N: usize>(r: &mut StateReader<'_>) -> [u32; N] {
    let mut words = [0; N];
    narrow_into(&mut words, r.marked_words(N));
    words
}

/// A field layout other than its type's own [`Snapshot`], named after the
/// field in [`declare_state!`](crate::declare_state): `field: Codec`. The
/// provided rollback methods copy in full, as `Snapshot`'s do.
pub trait Codec<T: ?Sized> {
    /// Writes `field`, as [`Snapshot::save`].
    fn save(field: &T, w: &mut StateWriter<'_>);

    /// Reads `field` back, as [`Snapshot::restore`].
    ///
    /// # Errors
    ///
    /// As [`Snapshot::restore`].
    fn restore(field: &mut T, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;

    /// The words [`save`](Codec::save) writes for `field`, as
    /// [`Snapshot::saved_len`].
    fn saved_len(field: &T) -> usize;

    /// Opens a rollback mark on `field`, as [`Snapshot::mark`].
    #[inline]
    fn mark(field: &mut T, w: &mut StateWriter<'_>) {
        Self::save(field, w);
    }

    /// Returns `field` to its mark, as [`Snapshot::rewind`].
    #[inline]
    fn rewind(field: &mut T, r: &mut StateReader<'_>) {
        Self::restore(field, r).expect("a rewind reads its own mark");
    }

    /// Closes `field`'s mark, as [`Snapshot::release`].
    #[inline]
    fn release(_field: &mut T) {}
}

/// The field's own [`Snapshot`], all five methods: the codec of a field that
/// names none.
#[derive(Debug)]
pub struct Own;

impl<T: Snapshot + ?Sized> Codec<T> for Own {
    #[inline]
    fn save(field: &T, w: &mut StateWriter<'_>) {
        field.save(w);
    }

    #[inline]
    fn restore(field: &mut T, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        field.restore(r)
    }

    #[inline]
    fn saved_len(field: &T) -> usize {
        field.saved_len()
    }

    #[inline]
    fn mark(field: &mut T, w: &mut StateWriter<'_>) {
        field.mark(w);
    }

    #[inline]
    fn rewind(field: &mut T, r: &mut StateReader<'_>) {
        field.rewind(r);
    }

    #[inline]
    fn release(field: &mut T) {
        field.release();
    }
}

/// The sequences [`Each`] walks: a vector or an array.
pub trait Sequence {
    /// The element type.
    type Item;

    /// The elements, in order.
    fn items(&self) -> &[Self::Item];

    /// The elements, in order, mutably.
    fn items_mut(&mut self) -> &mut [Self::Item];
}

impl<T> Sequence for Vec<T> {
    type Item = T;

    fn items(&self) -> &[T] {
        self
    }

    fn items_mut(&mut self) -> &mut [T] {
        self
    }
}

impl<T, const N: usize> Sequence for [T; N] {
    type Item = T;

    fn items(&self) -> &[T] {
        self
    }

    fn items_mut(&mut self) -> &mut [T] {
        self
    }
}

/// Every element in order, with no length word: a sequence whose length is
/// configuration (a bus's components, a fixed set of candidates). All five
/// methods reach every element, so journaled elements stay journaled.
#[derive(Debug)]
pub struct Each;

impl<S: Sequence + ?Sized> Codec<S> for Each
where
    S::Item: Snapshot,
{
    fn save(field: &S, w: &mut StateWriter<'_>) {
        field.items().iter().for_each(|item| item.save(w));
    }

    fn restore(field: &mut S, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        field
            .items_mut()
            .iter_mut()
            .try_for_each(|item| item.restore(r))
    }

    fn saved_len(field: &S) -> usize {
        field.items().iter().map(Snapshot::saved_len).sum()
    }

    fn mark(field: &mut S, w: &mut StateWriter<'_>) {
        field.items_mut().iter_mut().for_each(|item| item.mark(w));
    }

    fn rewind(field: &mut S, r: &mut StateReader<'_>) {
        field.items_mut().iter_mut().for_each(|item| item.rewind(r));
    }

    fn release(field: &mut S) {
        field.items_mut().iter_mut().for_each(Snapshot::release);
    }
}

/// [`Each`] over the present elements of a vector of slots, with no flags:
/// which slots are filled is configuration (the components a domain hosts).
#[derive(Debug)]
pub struct Present;

impl<T: Snapshot> Codec<Vec<Option<T>>> for Present {
    fn save(field: &Vec<Option<T>>, w: &mut StateWriter<'_>) {
        field.iter().flatten().for_each(|item| item.save(w));
    }

    fn restore(field: &mut Vec<Option<T>>, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        field
            .iter_mut()
            .flatten()
            .try_for_each(|item| item.restore(r))
    }

    fn saved_len(field: &Vec<Option<T>>) -> usize {
        field.iter().flatten().map(Snapshot::saved_len).sum()
    }

    fn mark(field: &mut Vec<Option<T>>, w: &mut StateWriter<'_>) {
        field.iter_mut().flatten().for_each(|item| item.mark(w));
    }

    fn rewind(field: &mut Vec<Option<T>>, r: &mut StateReader<'_>) {
        field.iter_mut().flatten().for_each(|item| item.rewind(r));
    }

    fn release(field: &mut Vec<Option<T>>) {
        field.iter_mut().flatten().for_each(Snapshot::release);
    }
}

/// A length word, then every element in order: a list that grows and
/// shrinks (jobs in flight, a queue of frames), a `Vec` or a `VecDeque`. A
/// restore truncates the list to the announced length, restores the
/// elements it keeps in place and appends `T::default()` for each one it
/// lacks, so it allocates only what the list grew by. A rollback walks the
/// list the same way through the elements' own `mark` and `rewind`, by
/// position, so it suits elements whose mark is their save (ones built from
/// leaves).
#[derive(Debug)]
pub struct List;

macro_rules! list {
    ($($list:ident => $push:ident),*) => {$(
        impl<T: Snapshot + Default> Codec<$list<T>> for List {
            fn save(field: &$list<T>, w: &mut StateWriter<'_>) {
                w.usize(field.len());
                field.iter().for_each(|item| item.save(w));
            }

            fn restore(field: &mut $list<T>, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                let len = r.usize()?;
                field.truncate(len);
                for i in 0..len {
                    if i == field.len() {
                        field.$push(T::default());
                    }
                    field[i].restore(r)?;
                }
                Ok(())
            }

            fn saved_len(field: &$list<T>) -> usize {
                1 + field.iter().map(Snapshot::saved_len).sum::<usize>()
            }

            fn mark(field: &mut $list<T>, w: &mut StateWriter<'_>) {
                w.usize(field.len());
                field.iter_mut().for_each(|item| item.mark(w));
            }

            fn rewind(field: &mut $list<T>, r: &mut StateReader<'_>) {
                field.resize_with(r.marked_word() as usize, T::default);
                field.iter_mut().for_each(|item| item.rewind(r));
            }

            fn release(field: &mut $list<T>) {
                field.iter_mut().for_each(Snapshot::release);
            }
        }
    )*};
}

list!(Vec => push, VecDeque => push_back);

/// [`List`]'s layout, word for word, for a list that only grows while a
/// mark is open (results so far): its elements are never changed in place,
/// and nothing but a restore takes one away. A mark writes the length word
/// and declares the elements' words through [`StateWriter::journaled`]; a
/// rewind truncates to that length. A restore is `List`'s.
#[derive(Debug)]
pub struct GrowOnly;

impl<T: Snapshot + Default> Codec<Vec<T>> for GrowOnly {
    fn save(field: &Vec<T>, w: &mut StateWriter<'_>) {
        <List as Codec<Vec<T>>>::save(field, w);
    }

    fn restore(field: &mut Vec<T>, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        <List as Codec<Vec<T>>>::restore(field, r)
    }

    fn saved_len(field: &Vec<T>) -> usize {
        <List as Codec<Vec<T>>>::saved_len(field)
    }

    fn mark(field: &mut Vec<T>, w: &mut StateWriter<'_>) {
        w.usize(field.len())
            .journaled(field.iter().map(Snapshot::saved_len).sum());
    }

    fn rewind(field: &mut Vec<T>, r: &mut StateReader<'_>) {
        field.truncate(r.marked_word() as usize);
    }
}

/// What a declared check returns: `true` or `Ok(())` to take the field,
/// `false` to refuse it at its first word, `Err(at)` to refuse it at word
/// `at` — one inside the field, or one of an earlier field the check
/// compares it with.
pub trait Verdict {
    /// The word to refuse at, if any, for a field whose first word is
    /// `field_at`.
    fn refused_at(self, field_at: usize) -> Option<usize>;
}

impl Verdict for bool {
    #[inline]
    fn refused_at(self, field_at: usize) -> Option<usize> {
        (!self).then_some(field_at)
    }
}

impl Verdict for Result<(), usize> {
    #[inline]
    fn refused_at(self, _field_at: usize) -> Option<usize> {
        self.err()
    }
}

/// Runs a declared check on `this` right after its field, whose first word
/// is `at`, was read: the check's refusal as [`SnapshotError::Corrupt`] at
/// its word. The closure's argument types come from this signature.
#[doc(hidden)]
#[inline]
pub fn check<T: ?Sized, V: Verdict>(
    this: &T,
    r: &StateReader<'_>,
    at: usize,
    verdict: impl FnOnce(&T, usize) -> V,
) -> Result<(), SnapshotError> {
    match verdict(this, at).refused_at(at) {
        None => Ok(()),
        Some(word) => Err(r.corrupt_at(word)),
    }
}

/// Declares a type's rollback state once and generates its [`Snapshot`].
///
/// The field walk lists the fields that are state, in wire order; a field
/// not listed is configuration and is never written.
///
/// ```text
/// declare_state! {
///     impl Type {
///         field,                         // the field type's own Snapshot
///         field: Codec,                  // another layout (Each, Present, List, GrowOnly)
///         field => |this, at| verdict,   // a check, run right after the field is read
///     } then hook                        // optional: `self.hook()` after each reading leg
/// }
/// ```
///
/// Generics go after `impl`, as in an impl: `impl<S: Snapshot> Board<S> { … }`.
/// `save` writes the fields in order; `restore` reads them in order and runs
/// each field's check right after it, refusing at the word the check names
/// (see [`Verdict`]; the check sees every field read so far); `saved_len`
/// sums the fields' word counts; `mark`, `rewind` and `release` go to every
/// field, so a [`Journaled`](crate::Journaled) field, or any field holding
/// one, rolls back by journal with no forwarding written. No check runs on a
/// rewind, the type's own or a leaf's: it reads the vector the component's
/// own mark wrote, so every leaf reads its words unchecked
/// ([`StateReader::marked_word`]) and a decoder that refuses one panics. A
/// field of a hand-written type rolls back by its provided full `restore`,
/// checks and all. The hook runs after a successful `restore` and after
/// every `rewind`.
///
/// The field codecs: [`Each`] and [`Present`] reach every element (no
/// length word); [`List`] writes a length word, then each element, and
/// rolls back element by element; [`GrowOnly`] writes `List`'s words for a
/// list that only grows while a mark is open, and rolls back by truncating
/// to the length its mark copied, declaring the elements instead of
/// copying them.
///
/// One more form declares a type stored as one packed word, through a pair
/// of its own methods: `impl A, B: word(encode, decode)` (`encode(self) ->
/// u32`, `decode(u32) -> Option<Self>`). A value the decoder refuses is
/// corrupt at that word on a restore, and a bug on a rewind. A type packed
/// as a run of words from a list of fields and bit widths — a signal bundle
/// — is declared by [`declare_signals!`](crate::declare_signals), which
/// generates its `Snapshot` too.
///
/// # Example
///
/// ```
/// use predpkt_sim::{declare_state, restore_from_vec, save_to_vec, SnapshotError, StateVec};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Counter {
///     limit: u32, // configuration: not declared, never written
///     count: u32,
///     armed: bool,
///     log: Vec<u32>,
/// }
///
/// declare_state! {
///     impl Counter {
///         count => |c, _| c.count < c.limit,
///         armed,
///         log,
///     }
/// }
///
/// let c = Counter { limit: 10, count: 3, armed: true, log: vec![7, 8] };
/// let saved = save_to_vec(&c);
/// assert_eq!(saved.words(), &[3, 1, 2, 7, 8]);
/// let mut copy = Counter { limit: 10, ..Counter::default() };
/// restore_from_vec(&mut copy, &saved).unwrap();
/// assert_eq!(copy, c);
///
/// let mut past_limit = saved.words().to_vec();
/// past_limit[0] = 10;
/// assert_eq!(
///     restore_from_vec(&mut copy, &StateVec::from(past_limit)),
///     Err(SnapshotError::Corrupt { at: 0 })
/// );
/// ```
#[macro_export]
macro_rules! declare_state {
    (impl<$($param:ident $(: $bound:path)?),+> $ty:ty { $($fields:tt)* } $(then $hook:ident)?) => {
        $crate::declare_state!(@walk [$($param $(: $bound)?),+] $ty { $($fields)* } [$($hook)?]);
    };
    (impl $($ty:ty),+ : word($encode:ident, $decode:ident)) => {$(
        impl $crate::Snapshot for $ty {
            #[inline]
            fn save(&self, w: &mut $crate::StateWriter<'_>) {
                w.u32(self.$encode());
            }

            #[inline]
            fn restore(&mut self, r: &mut $crate::StateReader<'_>) -> Result<(), $crate::SnapshotError> {
                let at = r.position();
                *self = Self::$decode(r.u32()?).ok_or_else(|| r.corrupt_at(at))?;
                Ok(())
            }

            #[inline]
            fn saved_len(&self) -> usize {
                1
            }

            #[inline]
            fn rewind(&mut self, r: &mut $crate::StateReader<'_>) {
                *self = Self::$decode(r.marked_word() as u32).expect("a rewind reads its own mark");
            }
        }
    )+};
    (impl $ty:ty { $($fields:tt)* } $(then $hook:ident)?) => {
        $crate::declare_state!(@walk [] $ty { $($fields)* } [$($hook)?]);
    };
    (@walk [$($generics:tt)*] $ty:ty {
        $($field:tt $(: $codec:ty)? $(=> $check:expr)?),* $(,)?
    } [$($hook:ident)?]) => {
        impl<$($generics)*> $crate::Snapshot for $ty {
            #[inline]
            fn save(&self, w: &mut $crate::StateWriter<'_>) {
                $(<$crate::declare_state!(@codec $($codec)?) as $crate::Codec<_>>::save(&self.$field, w);)*
            }

            fn restore(&mut self, r: &mut $crate::StateReader<'_>) -> Result<(), $crate::SnapshotError> {
                $(
                    #[allow(unused_variables)]
                    let at = r.position();
                    <$crate::declare_state!(@codec $($codec)?) as $crate::Codec<_>>::restore(&mut self.$field, r)?;
                    $($crate::__check(&*self, r, at, $check)?;)?
                )*
                $(self.$hook();)?
                Ok(())
            }

            #[inline]
            fn saved_len(&self) -> usize {
                0 $(+ <$crate::declare_state!(@codec $($codec)?) as $crate::Codec<_>>::saved_len(&self.$field))*
            }

            #[inline]
            fn mark(&mut self, w: &mut $crate::StateWriter<'_>) {
                $(<$crate::declare_state!(@codec $($codec)?) as $crate::Codec<_>>::mark(&mut self.$field, w);)*
            }

            fn rewind(&mut self, r: &mut $crate::StateReader<'_>) {
                $(<$crate::declare_state!(@codec $($codec)?) as $crate::Codec<_>>::rewind(&mut self.$field, r);)*
                $(self.$hook();)?
            }

            #[inline]
            fn release(&mut self) {
                $(<$crate::declare_state!(@codec $($codec)?) as $crate::Codec<_>>::release(&mut self.$field);)*
            }
        }
    };
    (@codec) => { $crate::Own };
    (@codec $codec:ty) => { $codec };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mark_into, restore_from_vec, rewind_from_vec, save_to_vec, StateVec};

    fn words(words: &[u64]) -> StateVec {
        StateVec::from(words.to_vec())
    }

    /// A narrow integer or a fixed array is refused at the word that does
    /// not fit it, where it was once truncated.
    #[test]
    fn a_word_its_field_cannot_hold_is_refused_at_that_word() {
        assert_eq!(save_to_vec(&0xbeef_u16).words(), [0xbeef]);
        let mut byte = 0u8;
        restore_from_vec(&mut byte, &words(&[0xff])).unwrap();
        assert_eq!(byte, 0xff);
        let corrupt = Err(SnapshotError::Corrupt { at: 0 });
        assert_eq!(restore_from_vec(&mut byte, &words(&[0x100])), corrupt);
        assert_eq!(restore_from_vec(&mut 0u16, &words(&[0x1_0000])), corrupt);
        assert_eq!(
            restore_from_vec(&mut [0u32; 3], &words(&[2, 1, 2])),
            corrupt
        );
    }

    #[derive(Debug, Default, PartialEq)]
    struct Record {
        tag: u32,
        payload: Vec<u32>,
    }

    #[derive(Debug, Default, PartialEq)]
    struct Holder {
        list: Vec<Record>,
        maybe: Option<Record>,
    }

    crate::declare_state! { impl Record { tag, payload } }
    crate::declare_state! { impl Holder { list: List, maybe } }

    /// A list keeps, refills and appends elements instead of rebuilding
    /// itself, and an option over `Some` refills its value in place.
    #[test]
    fn lists_and_options_restore_in_place() {
        let record = |tag, len| Record {
            tag,
            payload: vec![tag; len],
        };
        let long = Holder {
            list: vec![record(1, 4), record(2, 1), record(3, 2)],
            maybe: Some(record(4, 8)),
        };
        let short = Holder {
            list: vec![record(5, 2)],
            maybe: Some(record(6, 3)),
        };
        let mut target = Holder::default();
        for donor in [&long, &short, &long] {
            let kept = target.maybe.as_ref().map(|r| r.payload.as_ptr());
            restore_from_vec(&mut target, &save_to_vec(donor)).unwrap();
            assert_eq!(&target, donor);
            if let Some(kept) = kept {
                assert_eq!(target.maybe.as_ref().unwrap().payload.as_ptr(), kept);
            }
        }
        let none = Holder::default();
        restore_from_vec(&mut target, &save_to_vec(&none)).unwrap();
        assert_eq!(target, none);
    }

    #[derive(Debug, Default, PartialEq)]
    struct Grown {
        list: Vec<Record>,
    }

    #[derive(Debug, Default, PartialEq)]
    struct Listed {
        list: Vec<Record>,
    }

    crate::declare_state! { impl Grown { list: GrowOnly } }
    crate::declare_state! { impl Listed { list: List } }

    /// A grow-only list saves and restores `List`'s words, bills its
    /// elements at a mark while copying only its length, and rolls back by
    /// truncation: a rewind drops what was pushed since the mark, a release
    /// keeps it, and a second mark supersedes the first.
    #[test]
    fn a_grow_only_list_rolls_back_by_its_length() {
        let record = |tag: u32| Record {
            tag,
            payload: vec![tag; tag as usize % 4],
        };
        let mut grown = Grown {
            list: (1..=3).map(record).collect(),
        };
        let saved = save_to_vec(&grown);
        let listed = Listed {
            list: (1..=3).map(record).collect(),
        };
        assert_eq!(saved.words(), save_to_vec(&listed).words());
        assert_eq!(grown.saved_len(), saved.len());
        let mut restored = Grown {
            list: (7..12).map(record).collect(),
        };
        restore_from_vec(&mut restored, &saved).unwrap();
        assert_eq!(restored, grown);
        let mut short = saved.words().to_vec();
        short.pop();
        assert_eq!(
            restore_from_vec(&mut restored, &StateVec::from(short.clone())),
            restore_from_vec(&mut Listed::default(), &StateVec::from(short)),
            "a restore refuses what List's refuses"
        );

        let mut mark = StateVec::new();
        for k in [0, 1, 5] {
            mark_into(&mut grown, &mut mark);
            assert_eq!((mark.len(), mark.billed_len()), (1, saved.len()));
            grown.list.extend((10..10 + k).map(record));
            rewind_from_vec(&mut grown, &mark);
            assert_eq!(save_to_vec(&grown), saved, "{k} pushes");
        }

        mark_into(&mut grown, &mut mark);
        grown.list.push(record(20));
        grown.release();
        let released = save_to_vec(&grown);
        assert_eq!(grown.list.len(), 4, "a release keeps the push");

        mark_into(&mut grown, &mut mark);
        grown.list.push(record(21));
        mark_into(&mut grown, &mut mark);
        assert_eq!(mark.billed_len(), grown.saved_len());
        grown.list.push(record(22));
        rewind_from_vec(&mut grown, &mark);
        assert_eq!(grown.list.len(), 5, "the second mark superseded the first");
        grown.list.pop();
        assert_eq!(save_to_vec(&grown), released);
    }
}
