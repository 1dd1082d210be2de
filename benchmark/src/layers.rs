//! Layer measurements that need no running session: the recorded packet
//! stream replayed through each real endpoint pair, ping-pong round trips,
//! the frame codec and delta packetizer on recorded packets, and checkpoint
//! capture/encode/decode/restore on a finished session.

use crate::metrics::{per_layer, REPLAY_BACKENDS};
use crate::session::Plan;
use crate::stats::{median, RunResult};
use predpkt_channel::tcp::{encode_frame_into, FrameDecoder};
use predpkt_channel::{
    ChannelCostModel, Packet, PacketTag, PoolStats, QueueTransport, ReliableConfig,
    ReliableTransport, ShmTransport, Side, TcpTransport, ThreadedTransport, Transport,
    WaitTransport,
};
use predpkt_core::{DomainModel, EmuSession, SessionCheckpoint};
use predpkt_predict::{decode_block, encode_block};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Every per-layer metric starts at 0: a workload that does not exercise a
/// layer reports that the layer did no work, under the same names.
pub fn zero_all(result: &mut RunResult) {
    for layer in per_layer() {
        result.put(&layer.name, 0.0);
    }
}

/// A recorded packet with the side that sent it.
pub type Stream = [(Side, Packet)];

/// Round trips of the ping-pong measurement.
const PINGPONG_ROUND_TRIPS: usize = 2_000;
/// How long a replay may take before it counts as stuck.
const REPLAY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a blocked replay thread parks between polls (the session's
/// `poll_interval`).
const POLL: Duration = Duration::from_micros(200);

/// What one replay of a stream through one backend cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    wall_ns: u64,
    send_ns: u64,
    sends: u64,
    recv_wait_ns: u64,
    recvs: u64,
    pingpong_rtt_ns: f64,
    pool: Option<PoolStats>,
}

impl Replay {
    fn absorb(&mut self, other: &Replay) {
        self.send_ns += other.send_ns;
        self.sends += other.sends;
        self.recv_wait_ns += other.recv_wait_ns;
        self.recvs += other.recvs;
    }

    pub fn put(&self, backend: &str, committed: u64, result: &mut RunResult) {
        let name = |what: &str| format!("channel.{backend}.{what}");
        result.put(
            &name("send_ns_per_packet"),
            self.send_ns as f64 / self.sends.max(1) as f64,
        );
        result.put(
            &name("recv_wait_ns_per_packet"),
            self.recv_wait_ns as f64 / self.recvs.max(1) as f64,
        );
        result.put(
            &name("replay_ns_per_cycle"),
            self.wall_ns as f64 / committed.max(1) as f64,
        );
        result.put(&name("pingpong_rtt_ns"), self.pingpong_rtt_ns);
        if let Some(rate) = self.pool.and_then(|p| p.hit_rate()) {
            result.put("channel.pool_hit_rate", rate);
        }
    }
}

/// One side's part of a replay: send the packets this side sent, wait for
/// the ones it received, in the recorded order — so the two threads hand off
/// exactly where the two domains did.
fn play_side<E: WaitTransport>(
    endpoint: &mut E,
    side: Side,
    stream: &Stream,
    done: &AtomicUsize,
) -> Result<Replay, String> {
    let deadline = Instant::now() + REPLAY_TIMEOUT;
    let mut replay = Replay::default();
    for (at, (from, packet)) in stream.iter().enumerate() {
        let started = Instant::now();
        if *from == side {
            endpoint.send_ref(side, packet);
            replay.send_ns += started.elapsed().as_nanos() as u64;
            replay.sends += 1;
        } else {
            let got = loop {
                if let Some(got) = endpoint.recv(side) {
                    break got;
                }
                if Instant::now() >= deadline {
                    done.fetch_add(1, Ordering::AcqRel);
                    return Err(format!("packet {at} never arrived at the {side:?} side"));
                }
                endpoint.wait_for_packet(POLL);
            };
            replay.recv_wait_ns += started.elapsed().as_nanos() as u64;
            replay.recvs += 1;
            if got != *packet {
                done.fetch_add(1, Ordering::AcqRel);
                return Err(format!("packet {at} arrived altered at the {side:?} side"));
            }
        }
    }
    // Linger until the peer has finished too: a reliability layer may still
    // owe it a retransmission or an acknowledgement.
    done.fetch_add(1, Ordering::AcqRel);
    while done.load(Ordering::Acquire) < 2 && Instant::now() < deadline {
        if endpoint.wait_for_packet(POLL) {
            let _ = endpoint.recv(side);
        }
    }
    Ok(replay)
}

/// Replays `stream` through an endpoint pair on two threads (this one plays
/// the accelerator side, as a threaded session does).
fn play_pair<E: WaitTransport + Send>(
    sim_end: &mut E,
    acc_end: &mut E,
    stream: &Stream,
) -> Result<Replay, String> {
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let (sim, acc) = std::thread::scope(|s| {
        let sim = s.spawn(|| play_side(sim_end, Side::Simulator, stream, &done));
        let acc = play_side(acc_end, Side::Accelerator, stream, &done);
        (sim.join().expect("replay thread panicked"), acc)
    });
    let mut replay = sim?;
    replay.absorb(&acc?);
    replay.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(replay)
}

/// Replays `stream` through the in-process queue on one thread: there is no
/// second thread to hand off to, which is the point of the comparison.
fn play_queue(stream: &Stream) -> Replay {
    let mut queue = QueueTransport::new();
    let mut replay = Replay::default();
    let started = Instant::now();
    for (from, packet) in stream {
        let sent = Instant::now();
        queue.send_ref(*from, packet);
        let received = Instant::now();
        black_box(queue.recv(from.peer()));
        replay.send_ns += (received - sent).as_nanos() as u64;
        replay.recv_wait_ns += received.elapsed().as_nanos() as u64;
        replay.sends += 1;
        replay.recvs += 1;
    }
    replay.wall_ns = started.elapsed().as_nanos() as u64;
    replay
}

fn pingpong_stream() -> Vec<(Side, Packet)> {
    let packet = Packet::new(PacketTag::CycleOutputs, vec![0; 4]);
    (0..PINGPONG_ROUND_TRIPS)
        .flat_map(|_| {
            [
                (Side::Simulator, packet.clone()),
                (Side::Accelerator, packet.clone()),
            ]
        })
        .collect()
}

/// Replay and ping-pong over one endpoint pair.
fn measure_pair<E: WaitTransport + Send>(
    (mut sim_end, mut acc_end): (E, E),
    stream: &Stream,
    pool: impl Fn(&E) -> Option<PoolStats>,
) -> Result<Replay, String> {
    let mut replay = play_pair(&mut sim_end, &mut acc_end, stream)?;
    replay.pool = match (pool(&sim_end), pool(&acc_end)) {
        (Some(a), Some(b)) => Some(PoolStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            recycled: a.recycled + b.recycled,
            dropped: a.dropped + b.dropped,
        }),
        _ => None,
    };
    let pingpong = play_pair(&mut sim_end, &mut acc_end, &pingpong_stream())?;
    replay.pingpong_rtt_ns = pingpong.wall_ns as f64 / PINGPONG_ROUND_TRIPS as f64;
    Ok(replay)
}

/// Replays `stream` through every backend of [`REPLAY_BACKENDS`].
pub fn replay_all(stream: &Stream) -> Vec<(&'static str, Result<Replay, String>)> {
    REPLAY_BACKENDS
        .iter()
        .map(|&backend| {
            let outcome = match backend {
                "queue" => {
                    let mut replay = play_queue(stream);
                    replay.pingpong_rtt_ns =
                        play_queue(&pingpong_stream()).wall_ns as f64 / PINGPONG_ROUND_TRIPS as f64;
                    Ok(replay)
                }
                "threaded" => measure_pair(ThreadedTransport::pair(), stream, |_| None),
                "shm" => measure_pair(ShmTransport::pair(), stream, |_| None),
                "tcp" => TcpTransport::loopback_pair()
                    .map_err(|e| format!("loopback pair: {e}"))
                    .and_then(|pair| measure_pair(pair, stream, |_| None)),
                "reliable-shm" => {
                    let (sim_end, acc_end) = ShmTransport::pair();
                    let reliable = |end, side| {
                        ReliableTransport::new(
                            end,
                            ReliableConfig::default(),
                            ChannelCostModel::iprove_pci(),
                        )
                        .for_side(side)
                    };
                    measure_pair(
                        (
                            reliable(sim_end, Side::Simulator),
                            reliable(acc_end, Side::Accelerator),
                        ),
                        stream,
                        |end| Some(end.pool_stats()),
                    )
                }
                other => unreachable!("no replay for backend {other}"),
            };
            (backend, outcome)
        })
        .collect()
}

/// Frame codec cost on the recorded packets.
pub struct CodecCosts {
    encode_ns_per_frame: f64,
    decode_ns_per_frame: f64,
}

impl CodecCosts {
    pub fn put(&self, result: &mut RunResult) {
        result.put(
            "channel.codec_encode_ns_per_frame",
            self.encode_ns_per_frame,
        );
        result.put(
            "channel.codec_decode_ns_per_frame",
            self.decode_ns_per_frame,
        );
    }
}

/// Passes over the stream per codec measurement: the stream of one rep takes
/// well under a millisecond to encode, too short to time once.
const CODEC_PASSES: usize = 20;

pub fn codec_costs(stream: &Stream) -> CodecCosts {
    let frames = (stream.len() * CODEC_PASSES).max(1) as f64;
    let mut bytes = Vec::new();
    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        bytes.clear();
        for (_, packet) in stream {
            encode_frame_into(&mut bytes, packet);
        }
        black_box(&bytes);
    }
    let encode_ns_per_frame = started.elapsed().as_nanos() as f64 / frames;

    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        while let Ok(Some(packet)) = decoder.next_frame() {
            black_box(packet);
        }
    }
    let decode_ns_per_frame = started.elapsed().as_nanos() as f64 / frames;
    CodecCosts {
        encode_ns_per_frame,
        decode_ns_per_frame,
    }
}

/// Delta packetizer cost on the LOB blocks of the recorded bursts.
pub struct DeltaCosts {
    encode_ns_per_word: f64,
    decode_ns_per_word: f64,
}

impl DeltaCosts {
    pub fn put(&self, result: &mut RunResult) {
        result.put("predict.delta_encode_ns_per_word", self.encode_ns_per_word);
        result.put("predict.delta_decode_ns_per_word", self.decode_ns_per_word);
    }
}

/// The blocks the leaders handed to the packetizer, recovered from the bursts
/// on the wire: a burst's payload is the delta-encoded block followed by the
/// sender's next-cycle outputs (`sender_local` words).
fn burst_blocks(stream: &Stream, sim_local: usize, sim_remote: usize) -> Vec<Vec<Vec<u32>>> {
    stream
        .iter()
        .filter(|(_, packet)| packet.tag() == PacketTag::Burst)
        .filter_map(|(from, packet)| {
            let sender_local = match from {
                Side::Simulator => sim_local,
                Side::Accelerator => sim_remote,
            };
            let payload = packet.payload();
            let block_end = payload.len().checked_sub(sender_local)?;
            decode_block(&payload[..block_end]).ok()
        })
        .collect()
}

pub fn delta_costs(stream: &Stream, sim_local: usize, sim_remote: usize) -> DeltaCosts {
    let blocks = burst_blocks(stream, sim_local, sim_remote);
    let raw_words: usize = blocks.iter().flatten().map(Vec::len).sum();
    let words = (raw_words * CODEC_PASSES).max(1) as f64;
    let mut wires = Vec::new();
    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        wires.clear();
        for block in &blocks {
            wires.push(encode_block(block));
        }
        black_box(&wires);
    }
    let encode_ns_per_word = started.elapsed().as_nanos() as f64 / words;
    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        for wire in &wires {
            black_box(decode_block(wire).ok());
        }
    }
    let decode_ns_per_word = started.elapsed().as_nanos() as f64 / words;
    DeltaCosts {
        encode_ns_per_word,
        decode_ns_per_word,
    }
}

/// Whole-session checkpoint costs at the end of a run.
pub struct CheckpointCosts {
    capture_us: f64,
    encode_us: f64,
    decode_us: f64,
    restore_us: f64,
    blob_bytes: usize,
    resume_from_us: f64,
}

impl CheckpointCosts {
    pub fn put(&self, result: &mut RunResult) {
        result.put("core.checkpoint_capture_us", self.capture_us);
        result.put("core.checkpoint_encode_us", self.encode_us);
        result.put("core.checkpoint_decode_us", self.decode_us);
        result.put("core.checkpoint_restore_us", self.restore_us);
        result.put("core.checkpoint_blob_bytes", self.blob_bytes as f64);
        result.put("core.resume_from_us", self.resume_from_us);
    }
}

/// Times taken per checkpoint figure; each is a median.
const CHECKPOINT_SAMPLES: usize = 5;

fn micros(samples: &[Duration]) -> f64 {
    median(
        &samples
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0)
}

/// Runs a session to its target, then cuts, encodes, decodes and restores
/// its checkpoint and resumes it on a fresh transport, timing each step.
pub fn checkpoint_costs<M: DomainModel + Send + 'static>(
    build: impl Fn() -> Result<EmuSession<M>, String>,
    plan: &Plan,
) -> Result<CheckpointCosts, String> {
    let mut session = build()?;
    session
        .run_until_committed(plan.cycles)
        .map_err(|e| format!("run: {e}"))?;
    let (mut capture, mut encode, mut decode, mut restore, mut resume) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut blob_bytes = 0;
    for _ in 0..CHECKPOINT_SAMPLES {
        let started = Instant::now();
        let cut = session.checkpoint().map_err(|e| format!("capture: {e}"))?;
        capture.push(started.elapsed());

        let started = Instant::now();
        let blob = cut.to_bytes();
        encode.push(started.elapsed());
        blob_bytes = blob.len();

        let started = Instant::now();
        let decoded = SessionCheckpoint::from_bytes(&blob).map_err(|e| format!("decode: {e}"))?;
        decode.push(started.elapsed());

        let mut twin = build()?;
        let started = Instant::now();
        twin.restore(&decoded)
            .map_err(|e| format!("restore: {e}"))?;
        restore.push(started.elapsed());
        if twin.committed_cycles() != session.committed_cycles() {
            return Err(format!(
                "restored twin stands at cycle {}, the donor at {}",
                twin.committed_cycles(),
                session.committed_cycles()
            ));
        }

        let started = Instant::now();
        session = session
            .resume_from(&decoded, plan.backend.select())
            .map_err(|e| format!("resume_from: {e}"))?;
        resume.push(started.elapsed());
    }
    Ok(CheckpointCosts {
        capture_us: micros(&capture),
        encode_us: micros(&encode),
        decode_us: micros(&decode),
        restore_us: micros(&restore),
        blob_bytes,
        resume_from_us: micros(&resume),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<(Side, Packet)> {
        (0..40u32)
            .map(|i| {
                let side = if i % 3 == 0 {
                    Side::Simulator
                } else {
                    Side::Accelerator
                };
                (
                    side,
                    Packet::new(PacketTag::CycleOutputs, vec![i; (i % 5) as usize]),
                )
            })
            .collect()
    }

    #[test]
    fn every_backend_replays_a_stream_unaltered() {
        for (backend, outcome) in replay_all(&stream()) {
            let replay = outcome.unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert_eq!(replay.sends, 40, "{backend}");
            assert_eq!(replay.recvs, 40, "{backend}");
            assert!(
                replay.wall_ns > 0 && replay.pingpong_rtt_ns > 0.0,
                "{backend}"
            );
            assert_eq!(replay.pool.is_some(), backend == "reliable-shm");
        }
    }

    #[test]
    fn codec_and_delta_costs_are_finite_on_an_empty_stream() {
        let codec = codec_costs(&[]);
        assert!(codec.encode_ns_per_frame.is_finite() && codec.decode_ns_per_frame.is_finite());
        let delta = delta_costs(&[], 3, 2);
        assert!(delta.encode_ns_per_word.is_finite() && delta.decode_ns_per_word.is_finite());
    }
}
