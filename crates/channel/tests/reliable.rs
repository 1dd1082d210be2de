//! Transport-level behaviour of the ack-and-retransmit layer: in-order
//! lossless delivery over seeded drop/truncate/duplicate faults, window
//! backpressure, honest overhead billing, and typed give-up on an exhausted
//! retry budget.

use predpkt_channel::{
    ChannelCostModel, FaultSpec, LossyTransport, Packet, PacketTag, QueueTransport, RecoveryStats,
    ReliableConfig, ReliableTransport, Side, Transport, TransportDead, DATA_HEADER_WORDS,
};
use predpkt_sim::{restore_from_vec, save_to_vec, SnapshotError, StateVec};

type ReliableLossy = ReliableTransport<LossyTransport<QueueTransport>>;

fn reliable_over(spec: FaultSpec, config: ReliableConfig) -> ReliableLossy {
    ReliableTransport::new(
        LossyTransport::new(QueueTransport::new(), spec),
        config,
        ChannelCostModel::iprove_pci(),
    )
}

fn payload(i: u32) -> Vec<u32> {
    vec![i, i ^ 0xdead_beef, i.wrapping_mul(3)]
}

/// Sends `count` packets sim→acc, then alternates receive polls on both
/// sides (the co-emulator's scheduling shape: the receiver waits for data,
/// the sender waits for protocol responses and thereby drains acks) until
/// everything is delivered or `max_polls` is exceeded.
fn pump_through<T: Transport>(
    t: &mut ReliableTransport<T>,
    count: u32,
    max_polls: usize,
) -> Vec<Packet> {
    for i in 0..count {
        t.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, payload(i)),
        );
    }
    let mut got = Vec::new();
    for _ in 0..max_polls {
        if let Some(p) = t.recv(Side::Accelerator) {
            got.push(p);
        }
        let _ = t.recv(Side::Simulator);
        if got.len() as u32 == count {
            break;
        }
    }
    got
}

fn assert_in_order(got: &[Packet], count: u32) {
    assert_eq!(got.len() as u32, count, "every packet must arrive");
    for (i, p) in got.iter().enumerate() {
        assert_eq!(p.tag(), PacketTag::CycleOutputs);
        assert_eq!(p.payload(), payload(i as u32), "packet {i} corrupted");
    }
}

#[test]
fn fault_free_link_is_transparent_and_billed() {
    let mut t = reliable_over(FaultSpec::none(1), ReliableConfig::default());
    let got = pump_through(&mut t, 50, 10_000);
    assert_in_order(&got, 50);
    let stats = t.recovery_stats();
    assert_eq!(stats.retransmits, 0);
    assert_eq!(stats.crc_rejects, 0);
    assert_eq!(stats.duplicates_suppressed, 0);
    // Acks are cumulative and coalesce across a window's worth of frames:
    // every frame is acknowledged, but far fewer than one ack frame per data
    // frame goes on the wire.
    assert!(stats.acks_sent > 0, "every frame is still acknowledged");
    assert!(
        stats.acks_sent <= 50,
        "cumulative acks never outnumber the frames"
    );
    let standalone_acks = stats.acks_sent - stats.acks_piggybacked;
    // Headers (4 words × 50 frames) + standalone ack frames (3 wire words
    // each) are the whole overhead.
    assert_eq!(
        stats.overhead_words,
        50 * DATA_HEADER_WORDS + standalone_acks * 3
    );
    assert!(stats.overhead_time > predpkt_sim::VirtualTime::ZERO);
}

#[test]
fn steady_state_frames_run_off_the_buffer_pool() {
    let mut t = reliable_over(FaultSpec::none(1), ReliableConfig::default());
    // Warm up one window's worth of traffic, then measure: once acked frames
    // and consumed deliveries feed the free list, further framing must not
    // allocate.
    let got = pump_through(&mut t, 20, 10_000);
    assert_in_order(&got, 20);
    let warm = t.pool_stats();
    let got = pump_through(&mut t, 200, 100_000);
    assert_eq!(got.len(), 200);
    let stats = t.pool_stats();
    assert_eq!(
        stats.misses, warm.misses,
        "steady state must not allocate new frame buffers"
    );
    assert!(
        stats.hit_rate().unwrap() > 0.9,
        "the pool serves the hot path: {:?}",
        stats
    );
}

#[test]
fn acks_piggyback_on_reverse_data_under_seeded_loss() {
    // Bidirectional traffic over a dropping link: acknowledgements must ride
    // the reverse data frames (piggyback), and the link must still deliver
    // everything in order both ways.
    let spec = FaultSpec::drops(0xfeed, 0.2);
    let mut t = reliable_over(spec, ReliableConfig::default());
    let count = 30u32;
    for i in 0..count {
        t.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, payload(i)),
        );
        t.send(
            Side::Accelerator,
            Packet::new(PacketTag::Burst, payload(i ^ 1)),
        );
    }
    let (mut to_acc, mut to_sim) = (Vec::new(), Vec::new());
    for _ in 0..400_000 {
        if let Some(p) = t.recv(Side::Accelerator) {
            to_acc.push(p);
        }
        if let Some(p) = t.recv(Side::Simulator) {
            to_sim.push(p);
        }
        if to_acc.len() as u32 == count && to_sim.len() as u32 == count {
            break;
        }
    }
    assert_in_order(&to_acc, count);
    assert_eq!(to_sim.len() as u32, count);
    for (i, p) in to_sim.iter().enumerate() {
        assert_eq!(p.payload(), payload(i as u32 ^ 1), "reverse packet {i}");
    }
    let stats = t.recovery_stats();
    assert!(t.inner().fault_stats().dropped > 0, "faults really fired");
    assert!(stats.retransmits > 0, "drops must cost retransmissions");
    assert!(
        stats.acks_piggybacked > 0,
        "bidirectional flow must piggyback acks: {stats:?}"
    );
    assert!(stats.ack_piggyback_ratio().unwrap() > 0.0);
}

#[test]
fn drops_are_healed_by_retransmission() {
    let mut t = reliable_over(FaultSpec::drops(0xd00d, 0.4), ReliableConfig::default());
    let got = pump_through(&mut t, 40, 200_000);
    assert_in_order(&got, 40);
    let stats = t.recovery_stats();
    assert!(t.inner().fault_stats().dropped > 0, "faults really fired");
    assert!(stats.retransmits > 0, "drops must cost retransmissions");
    assert!(t.failure().is_none());
}

#[test]
fn truncations_are_rejected_by_crc_and_healed() {
    let mut t = reliable_over(
        FaultSpec::truncations(0xbad, 0.5),
        ReliableConfig::default(),
    );
    let got = pump_through(&mut t, 40, 200_000);
    assert_in_order(&got, 40);
    let stats = t.recovery_stats();
    assert!(t.inner().fault_stats().truncated > 0);
    assert!(stats.crc_rejects > 0, "truncation must be caught by CRC");
    assert!(stats.retransmits > 0, "rejected frames must be resent");
}

#[test]
fn duplicates_are_suppressed() {
    let mut t = reliable_over(FaultSpec::duplicates(3, 1.0), ReliableConfig::default());
    let got = pump_through(&mut t, 30, 50_000);
    assert_in_order(&got, 30);
    let stats = t.recovery_stats();
    assert!(
        stats.duplicates_suppressed > 0,
        "every data frame arrived twice; the copies must be discarded"
    );
}

#[test]
fn mixed_fault_storm_still_delivers_bit_exact() {
    for seed in [11, 22, 33, 44] {
        let spec = FaultSpec {
            drop_rate: 0.2,
            truncate_rate: 0.15,
            duplicate_rate: 0.2,
            ..FaultSpec::none(seed)
        };
        let mut t = reliable_over(spec, ReliableConfig::default());
        let got = pump_through(&mut t, 32, 400_000);
        assert_in_order(&got, 32);
        assert!(
            t.inner().fault_stats().total() > 0,
            "seed {seed}: no faults fired"
        );
        assert!(t.recovery_stats().recovery_events() > 0, "seed {seed}");
    }
}

#[test]
fn same_seed_same_recovery_story() {
    let run = || {
        let mut t = reliable_over(FaultSpec::drops(77, 0.3), ReliableConfig::default());
        let got = pump_through(&mut t, 25, 200_000);
        assert_in_order(&got, 25);
        t.recovery_stats()
    };
    assert_eq!(run(), run(), "recovery must be deterministic per seed");
}

#[test]
fn window_backpressure_holds_frames_back() {
    let mut t = ReliableTransport::new(
        QueueTransport::new(),
        ReliableConfig::default().window(2),
        ChannelCostModel::iprove_pci(),
    );
    for i in 0..6 {
        t.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, payload(i)),
        );
    }
    // Only the window's worth is on the wire; the rest is backlogged (but all
    // six count as pending toward the accelerator).
    assert_eq!(t.inner().pending(Side::Accelerator), 2);
    assert_eq!(t.pending(Side::Accelerator), 6);
    let mut delivered = Vec::new();
    for _ in 0..10_000 {
        if let Some(p) = t.recv(Side::Accelerator) {
            delivered.push(p);
        }
        let _ = t.recv(Side::Simulator);
        if delivered.len() == 6 {
            break;
        }
    }
    assert_in_order(&delivered, 6);
}

#[test]
fn exhausted_budget_reports_failure_instead_of_hanging() {
    let config = ReliableConfig::default().retry_budget(3);
    let mut t = reliable_over(FaultSpec::drops(9, 1.0), config);
    t.send(
        Side::Simulator,
        Packet::new(PacketTag::Handshake, vec![1, 2]),
    );
    // Poll until the layer gives up; bounded, so a hang fails the test.
    let mut polls = 0;
    while t.failure().is_none() {
        assert!(polls < 100_000, "layer never gave up");
        assert!(t.recv(Side::Accelerator).is_none());
        polls += 1;
    }
    let failure = t.failure().unwrap();
    assert_eq!(failure.seq, 0);
    assert_eq!(failure.retries, 3);
    assert_eq!(failure.cause, TransportDead::BudgetExhausted);
    // The frame idled from first transmission to abandonment: at least the
    // RTO per retry round, on the layer's own virtual clock.
    assert!(
        failure.idle >= ReliableConfig::default().rto * 3,
        "idle {} too short for 3 retry rounds",
        failure.idle
    );
    // After abandonment nothing is pending: the starvation is detectable.
    assert_eq!(t.pending(Side::Accelerator), 0);
    assert_eq!(t.recovery_stats().retransmits, 3);
}

#[test]
fn both_directions_are_independent() {
    let mut t = reliable_over(FaultSpec::none(5), ReliableConfig::default());
    t.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![1]));
    t.send(
        Side::Accelerator,
        Packet::new(PacketTag::Handshake, vec![2]),
    );
    let to_acc = t.recv(Side::Accelerator).expect("sim->acc delivered");
    let to_sim = t.recv(Side::Simulator).expect("acc->sim delivered");
    assert_eq!(to_acc.payload(), &[1]);
    assert_eq!(to_sim.payload(), &[2]);
}

#[test]
fn recovery_stats_merge_adds_fields() {
    let mut a = RecoveryStats {
        retransmits: 1,
        acks_sent: 2,
        acks_piggybacked: 1,
        duplicates_suppressed: 3,
        crc_rejects: 4,
        out_of_order_drops: 5,
        overhead_words: 6,
        overhead_time: predpkt_sim::VirtualTime::from_nanos(7),
    };
    a.merge(&a.clone());
    assert_eq!(a.retransmits, 2);
    assert_eq!(a.acks_sent, 4);
    assert_eq!(a.acks_piggybacked, 2);
    assert_eq!(a.duplicates_suppressed, 6);
    assert_eq!(a.crc_rejects, 8);
    assert_eq!(a.out_of_order_drops, 10);
    assert_eq!(a.overhead_words, 12);
    assert_eq!(a.overhead_time, predpkt_sim::VirtualTime::from_nanos(14));
    assert_eq!(a.recovery_events(), 2 + 6 + 8 + 10);
    assert_eq!(a.ack_piggyback_ratio(), Some(0.5));
}

/// A reliable layer over a link that drops everything, one poll tick into
/// its clock, with one frame in its send window (a handshake: four header
/// words, no payload), and its saved words. The words the tests below
/// damage: the clock at 0, then the forward send state — the sequence cursor
/// at 1, the window's length at 2, and its frame: the sequence number at 3,
/// the frame's tag at 4, its length at 5, its four words at 6..10,
/// `sent_at` at 10 and `first_sent` at 11.
fn one_frame_in_flight() -> Vec<u64> {
    let mut t = reliable_over(FaultSpec::drops(1, 1.0), ReliableConfig::default());
    assert!(t.recv(Side::Accelerator).is_none(), "one idle poll");
    t.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
    let words = save_to_vec(&t).words().to_vec();
    let now = t.clock().as_picos();
    assert_eq!(words[..3], [now, 1, 1]);
    assert_eq!(words[4..6], [u64::from(PacketTag::RelData.encode()), 4]);
    assert_eq!(words[10..12], [now, now]);
    words
}

/// Restores `words` into a fresh layer over the same link, then polls it
/// through two go-back-N rounds, each of which ages the window frame against
/// the clock and rewrites its header words in place.
fn restore_and_poll(words: Vec<u64>) -> Result<(), SnapshotError> {
    let mut t = reliable_over(FaultSpec::drops(1, 1.0), ReliableConfig::default());
    restore_from_vec(&mut t, &StateVec::from(words))?;
    for _ in 0..20 {
        assert!(t.recv(Side::Accelerator).is_none());
    }
    assert_eq!(t.recovery_stats().retransmits, 2);
    Ok(())
}

/// A window frame the ack refresh cannot patch — one shorter than its
/// header, or not a data frame at all — is refused at the word that says
/// so. Restored, a short one panicked on the first retransmission, in
/// either profile.
#[test]
fn a_window_frame_without_its_header_is_refused_at_its_word() {
    let words = one_frame_in_flight();
    restore_and_poll(words.clone()).expect("the saved window restores and runs");

    let mut short = words.clone();
    short[5] = 0;
    short.drain(6..10);
    assert_eq!(
        restore_and_poll(short),
        Err(SnapshotError::Corrupt { at: 5 })
    );

    let mut untagged = words;
    untagged[4] = u64::from(PacketTag::Handshake.encode());
    assert_eq!(
        restore_and_poll(untagged),
        Err(SnapshotError::Corrupt { at: 4 })
    );
}

/// A window stamp later than the restored clock is refused at its word.
/// Restored one RTO ahead, `now - sent_at` underflowed in the first timeout
/// sweep: a panic in debug, and in release a wrapped age that fired a
/// retransmission at once.
#[test]
fn a_window_stamp_past_the_clock_is_refused_at_its_word() {
    let words = one_frame_in_flight();
    let rto = ReliableConfig::default().rto.as_picos();
    for at in [10, 11] {
        let mut late = words.clone();
        late[at] = words[0] + rto;
        assert_eq!(restore_and_poll(late), Err(SnapshotError::Corrupt { at }));
    }
}
