//! Seeded SplitMix64 pseudo-randomness, shared across the workspace.
//!
//! Everything random in this codebase — fault injection, synthetic value
//! streams, randomized test-case generation — must be exactly reproducible
//! from a seed, so the one generator lives here rather than in per-crate
//! copies that could drift.

/// The SplitMix64 increment ("golden gamma").
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A keyed, stateless SplitMix64 draw: a pure function of `(seed, index)`.
///
/// Used where the process must be independent of call count — e.g. the
/// synthetic value stream keyed by cycle index, so rollback replays observe
/// identical values.
pub fn splitmix64_mix(seed: u64, index: u64) -> u64 {
    mix((seed ^ index.wrapping_mul(GAMMA)).wrapping_add(GAMMA))
}

/// A sequential SplitMix64 stream.
///
/// # Example
///
/// ```
/// use predpkt_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// let u = a.unit_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// A draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

// The stream cursor is one word of rollback state: checkpointing it is what
// makes a restored fault-injection plan replay draw-for-draw identically to
// the uninterrupted run.
crate::declare_state! { impl SplitMix64 { state } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn keyed_draw_is_a_pure_function() {
        assert_eq!(splitmix64_mix(3, 10), splitmix64_mix(3, 10));
        assert_ne!(splitmix64_mix(3, 10), splitmix64_mix(3, 11));
        assert_ne!(splitmix64_mix(3, 10), splitmix64_mix(4, 10));
    }

    #[test]
    fn unit_stays_in_range_and_varies() {
        let mut rng = SplitMix64::new(1);
        let draws: Vec<f64> = (0..1000).map(|_| rng.unit_f64()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn flip_is_roughly_fair() {
        let mut rng = SplitMix64::new(9);
        let heads = (0..10_000).filter(|_| rng.flip()).count();
        assert!((4_500..5_500).contains(&heads), "{heads} heads");
    }

    #[test]
    fn snapshot_resumes_the_stream_exactly() {
        use crate::{restore_from_vec, save_to_vec};
        let mut rng = SplitMix64::new(123);
        for _ in 0..17 {
            rng.next_u64();
        }
        let state = save_to_vec(&rng);
        assert_eq!(state.len(), 1, "the cursor is one rollback variable");
        let expected: Vec<u64> = {
            let mut probe = rng;
            (0..10).map(|_| probe.next_u64()).collect()
        };
        let mut resumed = SplitMix64::new(0);
        restore_from_vec(&mut resumed, &state).unwrap();
        let got: Vec<u64> = (0..10).map(|_| resumed.next_u64()).collect();
        assert_eq!(got, expected);
    }
}
