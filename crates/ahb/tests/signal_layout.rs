//! The packed signal layout, pinned from outside: every flags word a bundle
//! can be handed is refused exactly where a reserved bit is set or an enum
//! code is illegal, every word taken packs back bit for bit, a trace that
//! does not unpack stops the transaction view at the bad record, and the
//! cycle record's walk lays masters out before slaves.

use predpkt_ahb::burst::BurstTracker;
use predpkt_ahb::bus::AhbBus;
use predpkt_ahb::engine::BusOp;
use predpkt_ahb::fabric::{Arbiter, Decoder, Fabric};
use predpkt_ahb::masters::TrafficGenMaster;
use predpkt_ahb::record::{chunks, every, width, Chunk, Port};
use predpkt_ahb::signals::{Hburst, Hsize, MasterId, MasterSignals, SlaveSignals};
use predpkt_ahb::slaves::MemorySlave;
use predpkt_ahb::txn::{unpack_cycle_record, TxnExtractor};
use predpkt_sim::{Bundle, Trace};

/// Unpacks `words(flags)` for every `flags` in `sweep`: taken exactly when
/// `legal(flags)`, and a value taken packs back to the same words.
fn sweep<T, const N: usize>(
    sweep: impl Iterator<Item = u32>,
    words: impl Fn(u32) -> [u32; N],
    legal: impl Fn(u32) -> bool,
    unpack: fn(&[u32; N]) -> Option<T>,
    pack: fn(&T) -> [u32; N],
) {
    for flags in sweep {
        let words = words(flags);
        match unpack(&words) {
            Some(value) => {
                assert!(legal(flags), "{words:#x?} taken");
                assert_eq!(pack(&value), words, "{words:#x?}");
            }
            None => assert!(!legal(flags), "{words:#x?} refused"),
        }
    }
}

/// Every master flags word below 2^16: taken exactly when bits 15 up are
/// clear and HSIZE (bits 5..8) is a modelled width.
#[test]
fn master_flags_are_refused_exactly_where_reserved_or_illegal() {
    sweep(
        0..1 << 16,
        |flags| [flags, 0x8000_1234, 0xcafe_f00d],
        |flags| flags >> 15 == 0 && (flags >> 5) & 0b111 < 3,
        MasterSignals::unpack,
        MasterSignals::pack,
    );
}

/// Every slave flags word below 2^21: taken exactly when bits 20 up are
/// clear (every HRESP code is legal).
#[test]
fn slave_flags_are_refused_exactly_where_reserved() {
    sweep(
        0..1 << 21,
        |flags| [flags, 0x1122_3344],
        |flags| flags >> 20 == 0,
        SlaveSignals::unpack,
        SlaveSignals::pack,
    );
}

/// Every HSIZE / HBURST code pair of `BurstTracker`'s meta word, under a
/// few beat counts: taken exactly when HSIZE is a modelled width (every
/// HBURST code is legal).
#[test]
fn tracker_meta_is_refused_exactly_where_illegal() {
    for issued in [0, 1, 5, (1 << 26) - 1] {
        sweep(
            0..1 << 6,
            |codes| [codes | issued << 6, 0xabc0],
            |codes| codes & 0b111 < 3,
            BurstTracker::unpack,
            BurstTracker::pack,
        );
    }
}

/// A record that does not unpack stops the feed at its index with the
/// records before it fed: feeding the rest by hand gives what the clean
/// trace gives. Skipping it would leave the fabric replica a cycle behind
/// and shift every later beat's cycle.
#[test]
fn a_record_that_does_not_unpack_stops_the_feed_at_its_index() {
    let mut bus = AhbBus::builder()
        .master(TrafficGenMaster::from_ops(vec![
            BusOp::write_burst(0x100, Hsize::Word, Hburst::Incr4, vec![1, 2, 3, 4]),
            BusOp::read_single(0x104),
        ]))
        .slave(MemorySlave::new(0x1000, 1), 0x0, 0x1000)
        .build()
        .unwrap();
    bus.run_until_done(500);
    let extractor = || {
        let regions = bus.fabric().decoder().regions().to_vec();
        let fabric = Fabric::new(
            Arbiter::new(bus.num_masters(), MasterId(0)),
            Decoder::new(regions).unwrap(),
        );
        TxnExtractor::new(fabric, bus.num_masters(), bus.num_slaves())
    };
    let mut clean = extractor();
    clean.feed_trace(bus.trace()).unwrap();
    let clean = clean.finish();

    let k = 3;
    let mut corrupt = Trace::new();
    for (i, rec) in bus.trace().iter().enumerate() {
        let mut rec = rec.to_vec();
        if i == k {
            rec[0] = u64::from(u32::MAX);
        }
        corrupt.record(rec);
    }
    let mut x = extractor();
    assert_eq!(x.feed_trace(&corrupt), Err(k));
    for rec in bus.trace().iter().skip(k) {
        let (m, s) = unpack_cycle_record(rec, bus.num_masters(), bus.num_slaves()).unwrap();
        x.feed(&m, &s);
    }
    assert_eq!(x.finish(), clean);
}

#[test]
fn a_record_runs_masters_then_slaves_over_the_covered_components() {
    let record: Vec<_> = chunks([true, false, true], [false, true]).collect();
    let (m, s) = (MasterSignals::WORDS, SlaveSignals::WORDS);
    let chunk = |port, at| Chunk { port, at };
    assert_eq!(
        record,
        [
            chunk(Port::Master(0), 0),
            chunk(Port::Master(2), m),
            chunk(Port::Slave(1), 2 * m),
        ]
    );
    assert_eq!(width(record.into_iter()), 2 * m + s);
    assert_eq!(width(chunks([false], [false])), 0);
    assert_eq!(width(every(2, 1)), 2 * m + s);
}
