//! Readiness-loop behaviour on real sockets.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use dqs_reactor::{Events, Interest, Poller, Token};

/// Blocking loopback pair; the non-blocking flag is set per-test where
/// it matters (the poller itself never reads or writes).
fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let a = TcpStream::connect(addr).unwrap();
    let (b, _) = listener.accept().unwrap();
    (a, b)
}

fn wait_for(
    poller: &mut Poller,
    events: &mut Events,
    token: Token,
    deadline: Duration,
) -> Option<dqs_reactor::Event> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        poller
            .wait(events, Some(Duration::from_millis(50)))
            .unwrap();
        if let Some(ev) = events.iter().find(|e| e.token == token) {
            return Some(*ev);
        }
    }
    None
}

#[test]
fn readable_fires_only_after_bytes_arrive() {
    let mut poller = Poller::new().unwrap();
    let (mut a, b) = pair();
    poller
        .register(b.as_raw_fd(), Token(1), Interest::READABLE)
        .unwrap();

    let mut events = Events::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(20)))
        .unwrap();
    assert!(events.is_empty(), "no bytes yet, nothing should be ready");

    a.write_all(b"ping").unwrap();
    let ev = wait_for(&mut poller, &mut events, Token(1), Duration::from_secs(2))
        .expect("readable never fired");
    assert!(ev.readable);
}

#[test]
fn level_triggered_readiness_persists_until_drained() {
    let mut poller = Poller::new().unwrap();
    let (mut a, mut b) = pair();
    a.write_all(b"abcd").unwrap();
    poller
        .register(b.as_raw_fd(), Token(7), Interest::READABLE)
        .unwrap();

    let mut events = Events::new();
    // First wait reports readable; read only half the bytes.
    wait_for(&mut poller, &mut events, Token(7), Duration::from_secs(2))
        .expect("first readiness missing");
    let mut half = [0u8; 2];
    b.read_exact(&mut half).unwrap();
    // Level-triggered: the remaining bytes keep the fd ready.
    let ev = wait_for(&mut poller, &mut events, Token(7), Duration::from_secs(2))
        .expect("partially drained fd stopped reporting");
    assert!(ev.readable);
}

#[test]
fn writable_reported_for_fresh_socket_and_interest_can_be_modified() {
    let mut poller = Poller::new().unwrap();
    let (a, _b) = pair();
    poller
        .register(a.as_raw_fd(), Token(3), Interest::WRITABLE)
        .unwrap();
    let mut events = Events::new();
    let ev = wait_for(&mut poller, &mut events, Token(3), Duration::from_secs(2))
        .expect("fresh socket should be writable");
    assert!(ev.writable);

    // Drop write interest: an idle socket reports nothing.
    poller
        .modify(a.as_raw_fd(), Token(3), Interest::READABLE)
        .unwrap();
    poller
        .wait(&mut events, Some(Duration::from_millis(30)))
        .unwrap();
    assert!(
        events.iter().all(|e| e.token != Token(3)),
        "read-only interest must not report writable"
    );
}

#[test]
fn peer_close_reports_readable_eof() {
    let mut poller = Poller::new().unwrap();
    let (a, b) = pair();
    poller
        .register(b.as_raw_fd(), Token(9), Interest::READABLE)
        .unwrap();
    drop(a);
    let mut events = Events::new();
    let ev = wait_for(&mut poller, &mut events, Token(9), Duration::from_secs(2))
        .expect("close never surfaced");
    assert!(
        ev.readable || ev.hangup,
        "close must look like readable-EOF or hangup"
    );
}

#[test]
fn waker_interrupts_an_indefinite_wait() {
    let mut poller = Poller::new().unwrap();
    let waker = poller.waker();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        waker.wake();
    });
    let mut events = Events::new();
    let start = Instant::now();
    poller
        .wait(&mut events, Some(Duration::from_secs(10)))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "waker failed to interrupt the wait"
    );
    assert!(events.is_empty(), "the waker is internal");
    handle.join().unwrap();
}

#[test]
fn waker_is_coalescing_and_safe_after_poller_drop() {
    let poller = Poller::new().unwrap();
    let waker = poller.waker();
    // Thousands of wakes must not block even though nobody drains.
    for _ in 0..100_000 {
        waker.wake();
    }
    drop(poller);
    waker.wake(); // and waking a dead poller is a no-op
}

#[test]
fn registration_churn_many_fds_with_reused_tokens() {
    let mut poller = Poller::new().unwrap();
    let mut events = Events::new();
    for round in 0..3 {
        let pairs: Vec<(TcpStream, TcpStream)> = (0..25).map(|_| pair()).collect();
        for (i, (_, b)) in pairs.iter().enumerate() {
            poller
                .register(b.as_raw_fd(), Token(i as u64), Interest::READABLE)
                .unwrap();
        }
        // Make every odd-indexed fd readable.
        let mut pairs = pairs;
        for (i, (a, _)) in pairs.iter_mut().enumerate() {
            if i % 2 == 1 {
                a.write_all(&[i as u8]).unwrap();
            }
        }
        let mut seen = std::collections::HashSet::new();
        let start = Instant::now();
        while seen.len() < 12 && start.elapsed() < Duration::from_secs(5) {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            for ev in events.iter() {
                assert!(
                    ev.token.0 % 2 == 1,
                    "round {round}: idle fd {} reported ready",
                    ev.token.0
                );
                seen.insert(ev.token.0);
            }
        }
        assert_eq!(
            seen.len(),
            12,
            "round {round}: every written fd must surface"
        );
        for (_, b) in pairs.iter() {
            poller.deregister(b.as_raw_fd()).unwrap();
        }
        // Dropped fds get recycled next round; reused numbers and
        // tokens must not alias stale registrations.
    }
}

#[test]
fn deregistered_fd_never_reports() {
    let mut poller = Poller::new().unwrap();
    let (mut a, b) = pair();
    poller
        .register(b.as_raw_fd(), Token(4), Interest::READABLE)
        .unwrap();
    poller.deregister(b.as_raw_fd()).unwrap();
    a.write_all(b"x").unwrap();
    let mut events = Events::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(50)))
        .unwrap();
    assert!(events.is_empty(), "deregistered fd still reported");
}
