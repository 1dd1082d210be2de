//! Randomized tests on the packetizer and LOB invariants, driven by a seeded
//! SplitMix64 generator so every case is reproducible without an external
//! fuzzing framework.

use predpkt_ahb::signals::Hburst;
use predpkt_predict::{
    decode_block, encode_block, ContextMasterPredictor, ContextSlavePredictor, Htrans, Lob,
    LobEntry, MasterPredictor, MasterSignals, SlavePredictor, SlaveSignals,
};
use predpkt_sim::{save_to_vec, SplitMix64};

/// Uniform random block set: `count` entries of exactly `width` words.
fn uniform_blocks(rng: &mut SplitMix64, width: usize, count: usize) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| (0..width).map(|_| rng.next_u64() as u32).collect())
        .collect()
}

/// Repeat-biased block set so change masks exercise both paths.
fn biased_blocks(rng: &mut SplitMix64, width: usize, count: usize) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| {
            (0..width)
                .map(|_| {
                    let x = rng.next_u64();
                    if x & 0b11 == 0 {
                        (x >> 33) as u32
                    } else {
                        7
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn delta_roundtrips_arbitrary_blocks() {
    for case in 0..200u64 {
        let mut rng = SplitMix64::new(case.wrapping_mul(0x9e37_79b9) ^ 0xdead_beef);
        let width = rng.below(40) as usize;
        let count = rng.below(20) as usize;
        let blocks = biased_blocks(&mut rng, width, count);
        let wire = encode_block(&blocks);
        assert_eq!(decode_block(&wire).unwrap(), blocks, "case {case}");
    }
}

#[test]
fn delta_roundtrips_random_uniform() {
    for case in 0..200u64 {
        let mut rng = SplitMix64::new(case ^ 0x5eed_0001);
        let count = rng.below(13) as usize;
        let blocks = uniform_blocks(&mut rng, 8, count);
        let wire = encode_block(&blocks);
        assert_eq!(decode_block(&wire).unwrap(), blocks, "case {case}");
    }
}

#[test]
fn delta_never_exceeds_raw_plus_masks() {
    for case in 0..200u64 {
        let mut rng = SplitMix64::new(case ^ 0x5eed_0002);
        let count = rng.below(17) as usize;
        let blocks = biased_blocks(&mut rng, 6, count);
        // Upper bound: header + raw words + one mask word per non-first entry.
        let wire = encode_block(&blocks);
        let raw: usize = blocks.iter().map(Vec::len).sum();
        let masks = blocks.len().saturating_sub(1);
        assert!(
            wire.len() <= 2 + raw + masks,
            "case {case}: {} words",
            wire.len()
        );
    }
}

#[test]
fn truncated_wire_never_panics() {
    for case in 0..100u64 {
        let mut rng = SplitMix64::new(case ^ 0x5eed_0003);
        let count = rng.below(9) as usize;
        let blocks = biased_blocks(&mut rng, 5, count);
        let wire = encode_block(&blocks);
        for cut in 0..=wire.len() {
            // Must return an error or a (possibly different) valid decode —
            // never panic.
            let _ = decode_block(&wire[..cut]);
        }
    }
}

#[test]
fn lob_budget_counts_predictions_only() {
    for case in 0..100u64 {
        let mut rng = SplitMix64::new(case ^ 0x5eed_0004);
        let heads = rng.below(4) as usize;
        let preds = rng.below(20) as usize;
        let depth = 1 + rng.below(15) as usize;
        let mut lob = Lob::new(depth, 1, 1);
        for i in 0..heads {
            lob.push(LobEntry {
                local: &[i as u32],
                predicted: None,
            })
            .unwrap();
        }
        let mut accepted = 0;
        for i in 0..preds {
            let entry = LobEntry {
                local: &[i as u32],
                predicted: Some(&[0]),
            };
            if lob.push(entry).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, preds.min(depth), "case {case}");
        assert_eq!(lob.len(), heads + accepted, "case {case}");
        assert_eq!(
            lob.entries().iter().count(),
            heads + accepted,
            "case {case}"
        );
        // Clearing (the flush) restores the full budget.
        lob.clear();
        assert!(lob.is_empty(), "case {case}");
        assert_eq!(lob.predictions(), 0, "case {case}");
    }
}

/// `peek` is `clone().predict()` without the clone: over random observe /
/// predict streams it returns what a clone would predict and leaves the
/// predictor's saved words as they were, for both Markov predictors.
#[test]
fn peek_predicts_like_a_clone_and_moves_nothing() {
    for case in 0..60u64 {
        let mut rng = SplitMix64::new(case ^ 0x5eed_0005);
        let mut master = ContextMasterPredictor::new();
        let mut slave = ContextSlavePredictor::new();
        // A small address and run-length alphabet, so the tables learn and
        // the predictors drive first beats, bursts and IRQ edges.
        for step in 0..400 {
            if rng.below(4) == 0 {
                master.predict();
                slave.predict(rng.flip());
                continue;
            }
            let active = rng.below(3) == 0;
            let sig = MasterSignals {
                busreq: active || rng.flip(),
                trans: if active { Htrans::Nonseq } else { Htrans::Idle },
                addr: 0x100 + 0x10 * rng.below(4) as u32,
                burst: if rng.flip() {
                    Hburst::Incr4
                } else {
                    Hburst::Single
                },
                wdata: rng.next_u64() as u32,
                ..MasterSignals::idle()
            };
            master.observe(&sig, active && rng.below(4) != 0);
            let ssig = SlaveSignals {
                ready: rng.below(3) != 0,
                irq: rng.below(5) == 0,
                rdata: step,
                ..SlaveSignals::idle()
            };
            slave.observe(&ssig, rng.flip().then(|| rng.flip()));
            if rng.below(3) == 0 {
                slave.begin_phase(rng.flip());
            }

            let saved = save_to_vec(&master);
            assert_eq!(master.peek(), master.clone().predict(), "case {case}");
            assert_eq!(save_to_vec(&master), saved, "case {case}");
            let in_dp = rng.flip();
            let saved = save_to_vec(&slave);
            assert_eq!(
                slave.peek(in_dp),
                slave.clone().predict(in_dp),
                "case {case}"
            );
            assert_eq!(save_to_vec(&slave), saved, "case {case}");
        }
    }
}
