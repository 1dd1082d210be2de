//! Randomized tests on the packetizer and LOB invariants, driven by a seeded
//! SplitMix64 generator so every case is reproducible without an external
//! fuzzing framework.

use predpkt_ahb::signals::Hburst;
use predpkt_predict::{
    decode_block, encode_block, encode_flat_into, ContextMasterPredictor, ContextSlavePredictor,
    DeltaBlock, DeltaDecodeError, Htrans, Lob, LobEntry, MasterPredictor, MasterSignals,
    SlavePredictor, SlaveSignals,
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
        if width == 0 && count > 0 {
            // No word count bounds how many zero-width entries a block claims.
            assert_eq!(
                decode_block(&wire),
                Err(DeltaDecodeError::Width),
                "case {case}"
            );
        } else {
            assert_eq!(decode_block(&wire).unwrap(), blocks, "case {case}");
        }
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

/// The (width, count) shapes the layout sweep runs: every width 1..=70 —
/// one to three mask words, the last one full or partial — and every count
/// 0..=70, each paired with a drawn partner, plus the grid of edges.
fn layout_shapes(rng: &mut SplitMix64) -> Vec<(usize, usize)> {
    let edges = [1, 2, 31, 32, 33, 63, 64, 65, 70];
    let mut shapes: Vec<(usize, usize)> = edges
        .iter()
        .flat_map(|&width| [0, 1, 2, 3, 69, 70].map(|count| (width, count)))
        .collect();
    shapes.extend((1..=70).map(|width| (width, rng.below(71) as usize)));
    shapes.extend((0..=70).map(|count| (1 + rng.below(70) as usize, count)));
    shapes
}

/// The `(count, width)` a block announces, once [`DeltaBlock::parse`] has
/// checked it — and a block that parses announces entries of one word or
/// more only as many, and as wide, as its words could describe, so nothing
/// a decoder sizes by them outgrows the block.
fn parsed(wire: &[u32]) -> Result<(usize, usize), DeltaDecodeError> {
    let shape = DeltaBlock::parse(wire).map(|block| (block.count(), block.width()));
    if let Ok((count @ 1.., width @ 1..)) = shape {
        assert!(count <= wire.len() && width <= wire.len(), "{wire:?}");
    }
    shape
}

#[test]
fn the_masks_first_layout_holds_under_hostile_input() {
    let mut rng = SplitMix64::new(0x5eed_0006);
    for (width, count) in layout_shapes(&mut rng) {
        let case = format!("width {width}, count {count}");
        let blocks = biased_blocks(&mut rng, width, count);
        let raw = blocks.concat();
        // Both encoders write the same words — but for the width of an
        // empty block, which only the flat form is told — and the block
        // decodes back to them.
        let block_wire = encode_block(&blocks);
        assert_eq!(decode_block(&block_wire).as_ref(), Ok(&blocks), "{case}");
        let mut wire = Vec::new();
        encode_flat_into(&raw, count, width, &mut wire);
        if count > 0 {
            assert_eq!(wire, block_wire, "{case}");
        } else {
            assert_eq!(wire, [0, width as u32], "{case}");
        }
        assert_eq!(parsed(&wire), Ok((count, width)), "{case}");
        assert_eq!(decode_block(&wire).map(|e| e.concat()), Ok(raw), "{case}");
        // Every cut is truncated, one word more is trailing.
        let truncated = DeltaDecodeError::Truncated;
        for cut in 0..wire.len() {
            assert_eq!(parsed(&wire[..cut]), Err(truncated), "{case}, cut {cut}");
            assert_eq!(
                decode_block(&wire[..cut]),
                Err(truncated),
                "{case}, cut {cut}"
            );
        }
        let longer = [&wire[..], &[7]].concat();
        let trailing = DeltaDecodeError::TrailingWords;
        assert_eq!(parsed(&longer), Err(trailing), "{case}");
        assert_eq!(decode_block(&longer), Err(trailing), "{case}");
        // A count off by one either way: a typed error or a clean decode of
        // some other entries, never a panic.
        for wrong in [count + 1, count.wrapping_sub(1)] {
            let Ok(wrong) = u32::try_from(wrong) else {
                continue;
            };
            let mut off = wire.clone();
            off[0] = wrong;
            let _ = decode_block(&off);
            let _ = parsed(&off);
        }
        // Every mask bit past the width set: neither the sweep's verdict nor
        // the decode moves, on the good block or on the longer one.
        let mask_words = width.div_ceil(32);
        let stray = !(u32::MAX >> (mask_words * 32 - width));
        let mut strayed = wire.clone();
        for entry in 1..count {
            strayed[2 + width + entry * mask_words - 1] |= stray;
        }
        assert_eq!(decode_block(&strayed).as_ref(), Ok(&blocks), "{case}");
        let strayed_longer = [&strayed[..], &[7]].concat();
        assert_eq!(
            DeltaBlock::parse(&strayed_longer).map(|block| block.count()),
            Err(DeltaDecodeError::TrailingWords),
            "{case}"
        );
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
