//! The cycle record: one cycle's packed MSABS vector.
//!
//! A record holds every master's [`MasterSignals`] in bus order, then every
//! slave's [`SlaveSignals`], each as many words as its declaration packs.
//! The golden bus traces whole records. A domain of a split bus sends and
//! traces the part of one that covers its own components, and receives the
//! part that covers its peer's. Each of these is one walk over the
//! components it keeps, and [`chunks`] is that walk.

use crate::signals::{MasterSignals, SlaveSignals};
use predpkt_sim::Bundle;
use std::ops::Range;

/// A bus component, by kind and bus index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// Master `i`, packed as [`MasterSignals`].
    Master(usize),
    /// Slave `j`, packed as [`SlaveSignals`].
    Slave(usize),
}

impl Port {
    /// The words the component's bundle packs into.
    #[inline]
    pub fn width(self) -> usize {
        match self {
            Port::Master(_) => MasterSignals::WORDS,
            Port::Slave(_) => SlaveSignals::WORDS,
        }
    }

    /// Packs the component's signals, from `masters` or `slaves`, into
    /// `out`, which is [`width`](Self::width) long.
    #[inline]
    pub fn pack(self, masters: &[MasterSignals], slaves: &[SlaveSignals], out: &mut [u32]) {
        match self {
            Port::Master(i) => masters[i].pack_into(out),
            Port::Slave(j) => slaves[j].pack_into(out),
        }
    }

    /// Unpacks `words` into the component's slot of `masters` or `slaves`.
    /// Returns `false`, leaving the slot as it was, if they do not unpack.
    #[inline]
    pub fn unpack(
        self,
        words: &[u32],
        masters: &mut [MasterSignals],
        slaves: &mut [SlaveSignals],
    ) -> bool {
        match self {
            Port::Master(i) => unpack_into(&mut masters[i], words),
            Port::Slave(j) => unpack_into(&mut slaves[j], words),
        }
    }

    /// Whether `words` unpack as the component's bundle.
    #[inline]
    pub fn unpacks(self, words: &[u32]) -> bool {
        match self {
            Port::Master(_) => <MasterSignals as Bundle>::unpack(words).is_some(),
            Port::Slave(_) => <SlaveSignals as Bundle>::unpack(words).is_some(),
        }
    }
}

#[inline]
fn unpack_into<S: Bundle>(slot: &mut S, words: &[u32]) -> bool {
    S::unpack(words).map(|sig| *slot = sig).is_some()
}

/// One component's run of words in a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// The component.
    pub port: Port,
    /// Where its run starts.
    pub at: usize,
}

impl Chunk {
    /// The run's words.
    #[inline]
    pub fn words(self) -> Range<usize> {
        self.at..self.at + self.port.width()
    }
}

/// Walks a record over the components it covers: `masters` and `slaves`
/// say, per bus index, whether the record covers that component. Yields
/// each covered component's run, masters ascending, then slaves.
pub fn chunks(
    masters: impl IntoIterator<Item = bool>,
    slaves: impl IntoIterator<Item = bool>,
) -> impl Iterator<Item = Chunk> {
    let covered = |(index, covered): (usize, bool)| covered.then_some(index);
    let masters = masters.into_iter().enumerate().filter_map(covered);
    let slaves = slaves.into_iter().enumerate().filter_map(covered);
    masters
        .map(Port::Master)
        .chain(slaves.map(Port::Slave))
        .scan(0, |at, port| {
            let chunk = Chunk { port, at: *at };
            *at += port.width();
            Some(chunk)
        })
}

/// The words of the record a walk covers.
pub fn width(chunks: impl Iterator<Item = Chunk>) -> usize {
    chunks.last().map_or(0, |c| c.words().end)
}

/// The walk of a whole record: `masters` masters and `slaves` slaves.
pub fn every(masters: usize, slaves: usize) -> impl Iterator<Item = Chunk> {
    chunks(
        std::iter::repeat(true).take(masters),
        std::iter::repeat(true).take(slaves),
    )
}
