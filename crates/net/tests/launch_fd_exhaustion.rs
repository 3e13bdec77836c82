//! A runtime that cannot start must not report that it did.
//!
//! `NodeRuntime::launch` creates the reactor's epoll instance and
//! registers the eventfd and listener on the caller's thread, so fd
//! exhaustion (EMFILE) surfaces as an `Err` from `launch` instead of a
//! reactor thread that exits at once behind an `Ok` runtime.
//!
//! This file holds one test on purpose: it lowers the process's fd limit
//! and fills the fd table, so no other test may share the process.

use ringbft_net::codec::FrameAuth;
use ringbft_net::runtime::{Clock, NodeRuntime, PeerTable};
use ringbft_sim::AnyMsg;
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::{Action, ClientId, Instant, NodeId, TimerKind};
use std::fs::File;
use std::net::TcpListener;
use std::os::raw::c_int;

/// A node with nothing to do.
struct Idle;

impl ProtocolNode<AnyMsg> for Idle {
    fn on_start(&mut self, _now: Instant) -> Vec<Action<AnyMsg>> {
        Vec::new()
    }

    fn on_message(&mut self, _now: Instant, _from: NodeId, _msg: AnyMsg) -> Vec<Action<AnyMsg>> {
        Vec::new()
    }

    fn on_timer(&mut self, _now: Instant, _kind: TimerKind, _token: u64) -> Vec<Action<AnyMsg>> {
        Vec::new()
    }
}

/// `struct rlimit` on 64-bit Linux.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;
const EMFILE: i32 = 24;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn nofile_limit() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit`.
    assert_eq!(
        unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) },
        0,
        "getrlimit"
    );
    lim
}

fn set_nofile_limit(lim: &RLimit) {
    // SAFETY: `lim` points to a valid `struct rlimit`.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, lim) }, 0, "setrlimit");
}

#[test]
fn launch_fails_when_the_reactor_cannot_get_fds() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let peers = PeerTable::new();
    let id = NodeId::Client(ClientId(1));
    peers.insert(id, listener.local_addr().expect("addr"));

    // A low soft limit keeps the fill below short.
    let saved = nofile_limit();
    let open = std::fs::read_dir("/proc/self/fd").expect("procfs").count() as u64;
    set_nofile_limit(&RLimit {
        cur: saved.cur.min(open + 64),
        max: saved.max,
    });
    let mut fill = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => fill.push(f),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EMFILE), "unexpected open error");
                break;
            }
        }
    }
    // One free fd: enough for the eventfd, none left for epoll.
    drop(fill.pop());

    let launched = NodeRuntime::<AnyMsg, Idle>::launch(
        id,
        Idle,
        listener,
        peers,
        Clock::start(),
        FrameAuth::from_seed(7),
    );
    drop(fill);
    set_nofile_limit(&saved);
    match launched {
        Ok(rt) => {
            let _ = rt.shutdown();
            panic!("launch reported Ok with no fd left for the reactor");
        }
        Err(e) => assert_eq!(e.raw_os_error(), Some(EMFILE), "{e}"),
    }
}
