//! The reference kernel: how fast is the host *right now*?
//!
//! The reference box is a small virtual machine on a shared host. Its speed
//! on allocation- and memory-heavy code — which is what a co-emulation
//! session is — moves by 10–30 % from one stretch of seconds to the next, and
//! by 2× when a neighbour is busy; a run's median session time moves with it
//! (ten 15-second runs of `synth-p60-queue`: quartile spread 20 % of the
//! median, 29 % for the 90th percentile). A fixed kernel of the same kind,
//! timed right before and after every rep, moves the same way: over 150 s of
//! alternating kernel and session, session time ranged ±12 % (and once 1.8×)
//! while session time ÷ kernel time stayed within ±7 %. An integer spin loop
//! does not track it, and neither does a kernel that works on memory but
//! never allocates.
//!
//! So the end-to-end host times are counted in **reference seconds**: wall
//! seconds divided by the *slowdown* — how much longer than
//! [`NOMINAL_NS`] the kernel took around that rep. On a quiet reference box a
//! reference second is a second. The raw wall-clock figures and the slowdown
//! go to standard error, and `run.host_slowdown_x` reports the slowdown with
//! the per-layer metrics, whose times are left raw.
//!
//! The kernel uses the standard library only, so no change to the
//! repository's code can move it.

use std::hint::black_box;
use std::time::Instant;

/// What [`kernel_ns`] reads on the reference box when its host is quiet.
pub const NOMINAL_NS: f64 = 690_000.0;

/// Times the kernel, in nanoseconds. It runs twice and the faster run counts:
/// the first may start on caches another thread has just used.
pub fn kernel_ns() -> f64 {
    kernel_once_ns().min(kernel_once_ns())
}

/// One run of the kernel: a trace-like `Vec<Vec<u64>>` is grown record by
/// record (one allocation each), every record is cloned and hashed, and the
/// tail is dropped every 64 records — the allocation pattern of a session's
/// speculative trace.
fn kernel_once_ns() -> f64 {
    let started = Instant::now();
    let mut records: Vec<Vec<u64>> = Vec::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..20_000u64 {
        let record: Vec<u64> = (0..8)
            .map(|k| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(k))
            .collect();
        for word in &record.clone() {
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        records.push(record);
        if i % 64 == 63 {
            records.truncate(records.len() - 32);
        }
    }
    black_box((hash, records.len()));
    started.elapsed().as_nanos() as f64
}

/// The host's slowdown over an interval, from the kernel's time right before
/// and right after it.
pub fn slowdown(before_ns: f64, after_ns: f64) -> f64 {
    (before_ns + after_ns) / 2.0 / NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_relative_to_nominal() {
        assert_eq!(slowdown(NOMINAL_NS, NOMINAL_NS), 1.0);
        assert_eq!(slowdown(NOMINAL_NS, 3.0 * NOMINAL_NS), 2.0);
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(kernel_ns() > 10_000.0);
    }
}
