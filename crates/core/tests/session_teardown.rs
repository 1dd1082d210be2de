//! Session teardown: dropping an `EmuSession` over the per-side-endpoint
//! transports (mpsc, socket, ring) must close every socket and release every
//! region promptly — no deadlock, no leaked file descriptors — whether the
//! session never ran, ran partially, or died with an error. A session owns
//! no threads: both domains are stepped on the thread that calls its run
//! method, which the observer-thread test below pins. Every scenario runs
//! under a wall-clock watchdog, so a teardown hang fails the test instead of
//! hanging the suite.

use predpkt_channel::{FaultSpec, ShmTransport, Side, Transport, WaitTransport};
use predpkt_core::{
    CoEmuConfig, EmuEvent, EmuObserver, EmuSession, ModePolicy, ReliableInner, ShmOptions,
    TcpOptions, ThreadedOpts, TransportSelect,
};
use predpkt_sim::SimError;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

mod common;
use common::figure2_soc;

/// Watchdog: runs `f` on its own thread and fails loudly if it has not
/// finished within `limit`. The worker thread is deliberately leaked on
/// timeout (it is stuck by definition); the panic is what matters.
fn within<T: Send + 'static>(
    label: &str,
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(_) => panic!("{label}: did not finish within {limit:?} — teardown deadlock"),
    }
}

fn config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
}

/// Short waiting knobs so error paths surface in milliseconds, not the
/// production 10-second deadlock window.
fn snappy() -> ThreadedOpts {
    ThreadedOpts {
        poll_interval: Duration::from_micros(500),
        deadlock_timeout: Duration::from_millis(300),
    }
}

fn backends() -> Vec<(&'static str, TransportSelect)> {
    vec![
        ("threaded", TransportSelect::Threaded(snappy())),
        (
            "tcp",
            TransportSelect::Tcp(TcpOptions::default().threaded(snappy())),
        ),
        (
            "shm",
            TransportSelect::Shm(ShmOptions::default().threaded(snappy())),
        ),
        (
            "shm+file",
            TransportSelect::Shm(ShmOptions::default().threaded(snappy()).file_backed()),
        ),
        (
            "reliable+tcp",
            TransportSelect::reliable(ReliableInner::Tcp(TcpOptions::default().threaded(snappy()))),
        ),
        (
            "reliable+shm",
            TransportSelect::reliable(ReliableInner::Shm(ShmOptions::default().threaded(snappy()))),
        ),
    ]
}

#[test]
fn dropping_an_unused_session_is_immediate() {
    for (name, backend) in backends() {
        within(name, Duration::from_secs(10), move || {
            let session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(backend)
                .build()
                .expect("session builds");
            drop(session);
        });
    }
}

#[test]
fn dropping_a_partially_run_session_joins_workers_and_closes_sockets() {
    for (name, backend) in backends() {
        within(name, Duration::from_secs(30), move || {
            let mut session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(backend)
                .build()
                .expect("session builds");
            // A mid-run stop: the session halted at a boundary well short of
            // the workload's natural end, with protocol state (and for the
            // socket backends, live connections) still warm.
            session.run_until_committed(120).expect("partial run");
            assert!(session.committed_cycles() >= 120, "{name}");
            drop(session);
        });
    }
}

#[test]
fn dropping_a_session_that_died_mid_run_does_not_hang() {
    // A 100%-drop fault plan on the plain (non-reliable) TCP backend starves
    // the handshake; the run must error out via the deadlock detector and the
    // dead session must still tear down cleanly, sockets included.
    within("tcp+drops", Duration::from_secs(30), || {
        let mut session = EmuSession::from_blueprint(&figure2_soc())
            .config(config())
            .transport(TransportSelect::Tcp(
                TcpOptions::default()
                    .threaded(snappy())
                    .fault(FaultSpec::drops(0xdead, 1.0)),
            ))
            .build()
            .expect("session builds");
        match session.run_until_committed(1_000) {
            Err(SimError::Deadlock { .. }) => {}
            other => panic!("expected starvation deadlock, got {other:?}"),
        }
        drop(session);
    });
}

#[test]
fn sessions_can_run_again_after_a_partial_run() {
    // Teardown is only half the contract: a session must also support a
    // *second* run after halting — on the socket backends this proves the
    // connections survive the first halt and are not half-closed by it.
    for (name, backend) in backends() {
        within(name, Duration::from_secs(30), move || {
            let mut session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(backend)
                .build()
                .expect("session builds");
            session.run_until_committed(100).expect("first leg");
            let first = session.committed_cycles();
            session
                .run_until_committed(first + 100)
                .expect("second leg");
            assert!(session.committed_cycles() >= first + 100, "{name}");
        });
    }
}

#[test]
fn dropping_an_shm_endpoint_wakes_a_peer_blocked_on_the_ring() {
    // The ring has no file descriptor for the kernel to close: waking a
    // blocked peer is entirely the liveness flag's job. A waiter parked in
    // wait_for_packet with a generous timeout must return within a park
    // slice or two of its peer dropping — for both backing forms.
    let forms: Vec<(&'static str, _)> = vec![
        ("heap", ShmTransport::pair()),
        ("file", ShmTransport::file_pair().expect("region file")),
    ];
    for (form, (mut sim, acc)) in forms {
        within(form, Duration::from_secs(10), move || {
            let killer = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                drop(acc);
            });
            let t0 = std::time::Instant::now();
            assert!(!sim.wait_for_packet(Duration::from_secs(30)));
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{form}: the cleared liveness flag should wake the waiter, \
                 not let it sleep out the timeout"
            );
            killer.join().unwrap();
            assert!(sim.peer_closed(), "{form}");
            assert!(sim.recv(Side::Simulator).is_none(), "{form}");
            // Sends after the peer is gone are lost on the floor, not panics.
            sim.send(
                Side::Simulator,
                predpkt_channel::Packet::new(predpkt_channel::PacketTag::Handshake, vec![]),
            );
        });
    }
}

#[test]
fn repeated_shm_sessions_release_their_regions() {
    // Sixty-four sequential file-backed shm sessions: if the creating
    // endpoint failed to unlink its region file, /dev/shm would accumulate
    // sixty-four rings (and eventually fill the tmpfs on a real box).
    within("shm region churn", Duration::from_secs(60), || {
        for i in 0..64 {
            let mut session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(TransportSelect::Shm(
                    ShmOptions::default().threaded(snappy()).file_backed(),
                ))
                .build()
                .unwrap_or_else(|e| panic!("iteration {i}: build failed: {e}"));
            session
                .run_until_committed(40)
                .unwrap_or_else(|e| panic!("iteration {i}: run failed: {e}"));
        }
    });
}

#[test]
fn repeated_socket_sessions_release_their_descriptors() {
    // Sixty-four sequential TCP sessions: if drops leaked sockets (or the
    // loopback listener survived), descriptor exhaustion or accept backlog
    // growth would break the tail of the loop.
    within("tcp descriptor churn", Duration::from_secs(60), || {
        for i in 0..64 {
            let mut session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(TransportSelect::Tcp(
                    TcpOptions::default().threaded(snappy()),
                ))
                .build()
                .unwrap_or_else(|e| panic!("iteration {i}: build failed: {e}"));
            session
                .run_until_committed(40)
                .unwrap_or_else(|e| panic!("iteration {i}: run failed: {e}"));
        }
    });
}

/// Records which thread delivered each event.
struct ThreadRecorder(Arc<Mutex<Vec<ThreadId>>>);

impl EmuObserver for ThreadRecorder {
    fn on_event(&mut self, _side: Side, _event: &EmuEvent) {
        self.0.lock().unwrap().push(thread::current().id());
    }
}

#[test]
fn every_observer_event_arrives_on_the_calling_thread() {
    // Both domains of an endpoint-backed session are stepped by whoever
    // calls `run_until_committed`: an observer sees one thread, the
    // caller's, however many domains and whatever the medium.
    for (name, backend) in backends() {
        if !matches!(name, "tcp" | "shm") {
            continue;
        }
        within(name, Duration::from_secs(30), move || {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let mut session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(backend)
                .observer(Box::new(ThreadRecorder(seen.clone())))
                .build()
                .expect("session builds");
            session.run_until_committed(120).expect("run");
            let seen = seen.lock().unwrap();
            assert!(seen.len() > 100, "{name}: both sides report events");
            let caller = thread::current().id();
            assert!(seen.iter().all(|id| *id == caller), "{name}");
        });
    }
}

/// Drives a sliced session to `Done`, sleeping briefly on `Idle` — enough
/// wait discipline for teardown tests (conformance uses the poll-set).
fn drive_sliced(
    sliced: &mut predpkt_core::SlicedSession<predpkt_core::AhbDomainModel>,
    name: &str,
) {
    loop {
        match sliced.run_slice(64) {
            Ok(predpkt_core::SliceStatus::Done) => return,
            Ok(predpkt_core::SliceStatus::Working) => {}
            Ok(predpkt_core::SliceStatus::Idle) => thread::sleep(Duration::from_micros(200)),
            Err(e) => panic!("{name}: sliced run failed: {e}"),
        }
    }
}

#[test]
fn dropping_a_mid_flight_sliced_session_is_clean() {
    // A sliced session holds live sockets, rings, and half-spoken protocol
    // state when abandoned between slices —
    // exactly the state a farm holds when it cancels or evicts a session.
    for (name, backend) in backends() {
        within(name, Duration::from_secs(30), move || {
            let session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(backend)
                .build()
                .expect("session builds");
            let mut sliced = session.into_sliced(10_000);
            for _ in 0..5 {
                match sliced.run_slice(16) {
                    Ok(_) => {}
                    Err(e) => panic!("{name}: early slices failed: {e}"),
                }
            }
            drop(sliced);
        });
    }
}

#[test]
fn repeated_sliced_socket_sessions_release_their_descriptors() {
    // The sliced analogue of the blocking-run descriptor churn above:
    // sixty-four sequential sliced TCP sessions, each run to completion and
    // dropped, must not accumulate sockets or listeners.
    within("sliced tcp churn", Duration::from_secs(60), || {
        for i in 0..64 {
            let session = EmuSession::from_blueprint(&figure2_soc())
                .config(config())
                .transport(TransportSelect::Tcp(
                    TcpOptions::default().threaded(snappy()),
                ))
                .build()
                .unwrap_or_else(|e| panic!("iteration {i}: build failed: {e}"));
            let mut sliced = session.into_sliced(40);
            drive_sliced(&mut sliced, "sliced tcp churn");
        }
    });
}

#[test]
fn a_sliced_session_on_a_dead_medium_fails_fast_not_forever() {
    // Same starvation as `dropping_a_session_that_died_mid_run_does_not_hang`
    // but sliced: the 100%-drop plan leaves the sockets alive and silent, so
    // the sliced runner reports `Idle` (park me) instead of burning the CPU,
    // and it is the *caller's* deadlock window that decides — here we just
    // verify the session never spins and still tears down.
    within("sliced tcp+drops", Duration::from_secs(30), || {
        let session = EmuSession::from_blueprint(&figure2_soc())
            .config(config())
            .transport(TransportSelect::Tcp(
                TcpOptions::default()
                    .threaded(snappy())
                    .fault(FaultSpec::drops(0xdead, 1.0)),
            ))
            .build()
            .expect("session builds");
        let mut sliced = session.into_sliced(1_000);
        let mut idles = 0;
        for _ in 0..50 {
            match sliced.run_slice(64) {
                Ok(predpkt_core::SliceStatus::Idle) => idles += 1,
                Ok(_) => {}
                Err(SimError::Deadlock { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(idles > 0, "a starved sliced session must ask to be parked");
        drop(sliced);
    });
}

// ---------------------------------------------------------------------------
// N-domain fabric teardown: the same contract, three domains at a time.
// ---------------------------------------------------------------------------

fn fabric_backends() -> Vec<(&'static str, TransportSelect)> {
    vec![
        ("fabric+threaded", TransportSelect::Threaded(snappy())),
        (
            "fabric+tcp",
            TransportSelect::Tcp(TcpOptions::default().threaded(snappy())),
        ),
        (
            "fabric+shm",
            TransportSelect::Shm(ShmOptions::default().threaded(snappy())),
        ),
        (
            "fabric+reliable+tcp",
            TransportSelect::reliable(ReliableInner::Tcp(TcpOptions::default().threaded(snappy()))),
        ),
    ]
}

#[test]
fn dropping_an_unused_fabric_session_is_immediate() {
    for (name, link) in fabric_backends() {
        within(name, Duration::from_secs(10), move || {
            let session = EmuSession::from_blueprint(&figure2_soc())
                .domains(3)
                .config(config())
                .transport(link)
                .build()
                .expect("fabric session builds");
            drop(session);
        });
    }
}

#[test]
fn dropping_a_partially_run_fabric_session_joins_all_domains() {
    // Three domains, three links: a mid-run halt must leave every socket
    // closable, exactly like the two-domain session — the N-way halt-linger
    // must end when the last port halts, not keep the run call spinning.
    for (name, link) in fabric_backends() {
        within(name, Duration::from_secs(30), move || {
            let mut session = EmuSession::from_blueprint(&figure2_soc())
                .domains(3)
                .config(config())
                .transport(link)
                .build()
                .expect("fabric session builds");
            session.run_until_committed(120).expect("partial run");
            assert!(session.committed_cycles() >= 120, "{name}");
            drop(session);
        });
    }
}

#[test]
fn a_fabric_with_one_wedged_link_wakes_every_blocked_domain() {
    // A 100%-drop plan starves *every* link's handshake (the per-edge plans
    // derive from one base spec). All three domains block; the starvation
    // window must expire over the idle waits on six silent link ends, and the
    // dead session must still tear down within the watchdog.
    within("fabric tcp+drops", Duration::from_secs(30), || {
        let mut session = EmuSession::from_blueprint(&figure2_soc())
            .domains(3)
            .config(config())
            .transport(TransportSelect::Tcp(
                TcpOptions::default()
                    .threaded(snappy())
                    .fault(FaultSpec::drops(0xdead, 1.0)),
            ))
            .build()
            .expect("fabric session builds");
        match session.run_until_committed(1_000) {
            Err(SimError::Deadlock { .. }) => {}
            other => panic!("expected starvation deadlock, got {other:?}"),
        }
        drop(session);
    });
}

#[test]
fn repeated_fabric_shm_sessions_release_their_region_files() {
    // Thirty-two sequential file-backed 3-domain fabrics, each packing all
    // three links into one /dev/shm region file: a leaked region (or a
    // leaked descriptor per link) would accumulate 32× and break the tail
    // of the loop.
    within("fabric shm region churn", Duration::from_secs(60), || {
        for i in 0..32 {
            let mut session = EmuSession::from_blueprint(&figure2_soc())
                .domains(3)
                .config(config())
                .transport(TransportSelect::Shm(
                    ShmOptions::default().threaded(snappy()).file_backed(),
                ))
                .build()
                .unwrap_or_else(|e| panic!("iteration {i}: build failed: {e}"));
            session
                .run_until_committed(40)
                .unwrap_or_else(|e| panic!("iteration {i}: run failed: {e}"));
        }
    });
}

#[test]
fn repeated_fabric_socket_sessions_release_their_descriptors() {
    // The fabric multiplies sockets by the edge count (three per 3-domain
    // mesh): thirty-two sequential runs exercise 96 connections plus their
    // ephemeral listeners — leaks show up as descriptor exhaustion here
    // long before they would in the two-domain churn.
    within(
        "fabric tcp descriptor churn",
        Duration::from_secs(60),
        || {
            for i in 0..32 {
                let mut session = EmuSession::from_blueprint(&figure2_soc())
                    .domains(3)
                    .config(config())
                    .transport(TransportSelect::Tcp(
                        TcpOptions::default().threaded(snappy()),
                    ))
                    .build()
                    .unwrap_or_else(|e| panic!("iteration {i}: build failed: {e}"));
                session
                    .run_until_committed(40)
                    .unwrap_or_else(|e| panic!("iteration {i}: run failed: {e}"));
            }
        },
    );
}
