//! The epoll reactor: single-threaded (optionally N-sharded)
//! event-driven I/O replacing the old thread-per-connection runtime.
//!
//! One reactor thread multiplexes *every* socket its [`NodeRuntime`]
//! (`crate::runtime`) owns through one `epoll` instance:
//!
//! * **accept** — the listener is nonblocking; fresh connections are
//!   handed round-robin to the reactor shards;
//! * **read** — nonblocking reads feed the codec's incremental
//!   [`FrameAssembler`](crate::codec::FrameAssembler); complete frames
//!   are verified and delivered to the hosted node inline;
//! * **write** — per-peer outbound *byte* queues with backpressure
//!   watermarks replace the old channel-fed writer threads; drains
//!   keep the 64 KiB flush coalescing (one `write` per burst);
//! * **connect/hello** — outbound connections are nonblocking state
//!   machines (`EINPROGRESS` → `EPOLLOUT` → `SO_ERROR` check → Hello
//!   frame), with reconnect backoff tracked as reactor state instead of
//!   a blocking `connect_and_hello` call;
//! * **timers** — the protocol timer wheel is folded into the
//!   `epoll_wait` timeout: reactor shard 0 fires due `(kind, token)`
//!   entries (generation-checked, so cancels and re-arms behave exactly
//!   like the simulator's) between poll iterations.
//!
//! The kernel interface is a minimal raw-FFI [`sys`] module
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`/`eventfd`, plus
//! `socket`/`connect` for nonblocking dials) — this environment has no
//! crates.io, so no `libc`/`mio`; everything else goes through
//! `std::net` on the raw fds.
//!
//! With `reactor_shards = s`, peers are assigned to shards by a stable
//! hash; cross-shard sends enqueue bytes and wake the owning shard's
//! eventfd. The hosted node itself stays behind one mutex, so protocol
//! calls remain serialized exactly as the old event loop serialized
//! them — sharding scales the *I/O*, not the state machine.

use crate::codec::{
    decode_raw_frame, encode_body, encode_hello_frame, frame_prefix, Envelope, Frame,
    FrameAssembler, Hello, RawFrame, PREFIX_BYTES,
};
use crate::runtime::{Shared, VerifiedFrame};
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::{Action, Duration, NodeId, TimerKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Raw Linux syscall surface. Numeric constants are the x86-64/ABI-
/// stable values from the kernel headers; `epoll_event` is packed on
/// x86-64 (the kernel ABI) and naturally aligned elsewhere.
pub(crate) mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 10;
    pub const SOCK_STREAM: c_int = 1;
    pub const SOCK_NONBLOCK: c_int = 0o4000;
    pub const SOCK_CLOEXEC: c_int = 0o2000000;
    pub const EINPROGRESS: i32 = 115;

    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct SockAddrIn {
        pub family: u16,
        pub port_be: u16,
        pub addr_be: [u8; 4],
        pub zero: [u8; 8],
    }

    #[repr(C)]
    pub struct SockAddrIn6 {
        pub family: u16,
        pub port_be: u16,
        pub flowinfo: u32,
        pub addr: [u8; 16],
        pub scope_id: u32,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(sockfd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// An `eventfd`-backed wakeup channel: threads outside a reactor shard
/// poke its `epoll_wait` (new outbound frames, an earlier timer
/// deadline, an accepted-connection handoff, shutdown poison).
#[derive(Debug)]
pub(crate) struct EventFd(RawFd);

impl EventFd {
    pub fn new() -> std::io::Result<EventFd> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(EventFd(fd))
    }

    pub fn raw(&self) -> RawFd {
        self.0
    }

    /// Makes the owning shard's next (or current) `epoll_wait` return.
    /// At shutdown this is the "poison" fast path: the stop flag is
    /// already set, so the woken shard exits its loop immediately
    /// instead of waiting out its poll timeout.
    pub fn wake(&self) {
        let one: u64 = 1;
        // EAGAIN (counter saturated) still leaves the fd readable, which
        // is all a wake needs.
        let _ = unsafe {
            sys::write(
                self.0,
                (&one as *const u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Clears the counter so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut v: u64 = 0;
        let _ = unsafe {
            sys::read(
                self.0,
                (&mut v as *mut u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

/// Thin `epoll` instance wrapper.
struct Epoll(RawFd);

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll(fd))
    }

    fn ctl(&self, op: std::os::raw::c_int, fd: RawFd, token: u64, interest: u32) -> bool {
        let mut ev = sys::EpollEvent {
            events: interest,
            data: token,
        };
        unsafe { sys::epoll_ctl(self.0, op, fd, &mut ev) == 0 }
    }

    /// Registers `fd`; false means the kernel refused (ENOSPC against
    /// `fs.epoll.max_user_watches`, ENOMEM). A connection whose ADD
    /// failed would never produce events — readable traffic silently
    /// blackholed forever — so callers must drop it instead of keeping
    /// it (the peer then sees the close and redials).
    #[must_use]
    fn add(&self, fd: RawFd, token: u64, interest: u32) -> bool {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn modify(&self, fd: RawFd, token: u64, interest: u32) {
        // MOD on a registered fd only fails on kernel memory pressure;
        // a missed interest change degrades to a spurious or delayed
        // event, which the level-triggered loop absorbs.
        let _ = self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest);
    }

    fn del(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for events; EINTR retries with the same timeout.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> usize {
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.0,
                    events.as_mut_ptr(),
                    events.len() as std::os::raw::c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return n as usize;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return 0;
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

/// Starts a nonblocking TCP connect. Returns a stream whose handshake
/// is in flight: readiness (or failure) surfaces as `EPOLLOUT`, and
/// `TcpStream::take_error` reads the `SO_ERROR` verdict.
fn connect_nonblocking(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let domain = match addr {
        SocketAddr::V4(_) => sys::AF_INET,
        SocketAddr::V6(_) => sys::AF_INET6,
    };
    let fd = unsafe {
        sys::socket(
            domain,
            sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
            0,
        )
    };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // Wrap immediately so every failure path below closes the fd.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let rc = match addr {
        SocketAddr::V4(a) => {
            let sa = sys::SockAddrIn {
                family: sys::AF_INET as u16,
                port_be: a.port().to_be(),
                addr_be: a.ip().octets(),
                zero: [0; 8],
            };
            unsafe {
                sys::connect(
                    fd,
                    (&sa as *const sys::SockAddrIn).cast(),
                    std::mem::size_of::<sys::SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(a) => {
            let sa = sys::SockAddrIn6 {
                family: sys::AF_INET6 as u16,
                port_be: a.port().to_be(),
                flowinfo: a.flowinfo(),
                addr: a.ip().octets(),
                scope_id: a.scope_id(),
            };
            unsafe {
                sys::connect(
                    fd,
                    (&sa as *const sys::SockAddrIn6).cast(),
                    std::mem::size_of::<sys::SockAddrIn6>() as u32,
                )
            }
        }
    };
    if rc == 0 {
        return Ok(stream); // loopback can complete synchronously
    }
    let err = std::io::Error::last_os_error();
    if err.raw_os_error() == Some(sys::EINPROGRESS) {
        Ok(stream)
    } else {
        Err(err)
    }
}

/// Upper bound on how many bytes of queued frames one `write` syscall
/// coalesces. Keeps first-frame latency low while cutting per-frame
/// syscall overhead under load (a saturated peer queue drains in ~16
/// frames per syscall at typical consensus message sizes).
pub(crate) const COALESCE_BYTES: usize = 64 * 1024;

/// Backpressure high watermark: once a peer's queued outbound bytes
/// reach this, new frames for it are dropped (and counted) instead of
/// buffered without bound — BFT retransmission timers provide recovery,
/// the same assumption the paper makes about unreliable channels.
pub(crate) const PEER_QUEUE_HIGH_BYTES: usize = 2 * 1024 * 1024;

/// Backpressure low watermark: a choked peer queue re-opens only after
/// draining below this, so a slow peer oscillating at the high mark
/// cannot flap between accept and drop on every frame.
pub(crate) const PEER_QUEUE_LOW_BYTES: usize = 512 * 1024;

/// Consecutive failed dials before the queued frames are flushed as
/// undeliverable (the old writer gave each batch the same number of
/// attempts before moving on).
const RECONNECT_FLUSH_ATTEMPTS: u32 = 5;

/// Watchdog on a nonblocking connect: a dial that is neither writable
/// nor failed by then is torn down and retried.
const CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(500);

/// Poll timeout when nothing is scheduled (periodic stop-flag check).
const IDLE_POLL: std::time::Duration = std::time::Duration::from_millis(250);

/// One queued outbound frame in serialize-once form: a per-peer fixed
/// prefix (header ‖ address ‖ MAC) plus the body bytes shared (`Arc`)
/// with every other destination of the same broadcast. The bytes only
/// come together when staged into a connection's write buffer, so an
/// N-way fan-out holds one body allocation, not N; a unicast send is
/// simply the 1-reference case.
#[derive(Debug)]
pub(crate) struct EgressFrame {
    prefix: [u8; PREFIX_BYTES],
    body: Arc<[u8]>,
}

impl EgressFrame {
    fn len(&self) -> usize {
        PREFIX_BYTES + self.body.len()
    }

    fn copy_into(&self, wbuf: &mut Vec<u8>) {
        wbuf.extend_from_slice(&self.prefix);
        wbuf.extend_from_slice(&self.body);
    }
}

/// Per-peer outbound byte queue (the backpressure boundary).
#[derive(Debug, Default)]
pub(crate) struct PeerQueue {
    frames: VecDeque<EgressFrame>,
    bytes: usize,
    choked: bool,
}

impl PeerQueue {
    /// Offers one encoded frame; false = dropped at the watermark.
    fn offer(&mut self, frame: EgressFrame) -> bool {
        if self.choked {
            if self.bytes > PEER_QUEUE_LOW_BYTES {
                return false;
            }
            self.choked = false;
        }
        // An empty queue always accepts (a single frame larger than the
        // watermark must still be sendable).
        if !self.frames.is_empty() && self.bytes + frame.len() > PEER_QUEUE_HIGH_BYTES {
            self.choked = true;
            return false;
        }
        self.bytes += frame.len();
        self.frames.push_back(frame);
        true
    }

    /// Moves up to [`COALESCE_BYTES`] of whole frames into `wbuf`,
    /// returning how many frames moved.
    fn drain_into(&mut self, wbuf: &mut Vec<u8>) -> u64 {
        let mut moved = 0u64;
        while let Some(front) = self.frames.front() {
            if moved > 0 && wbuf.len() + front.len() > COALESCE_BYTES {
                break;
            }
            let frame = self.frames.pop_front().expect("front checked");
            self.bytes -= frame.len();
            frame.copy_into(wbuf);
            moved += 1;
        }
        if self.choked && self.bytes <= PEER_QUEUE_LOW_BYTES {
            self.choked = false;
        }
        moved
    }

    /// Discards everything queued, returning the frame count.
    fn flush(&mut self) -> u64 {
        let n = self.frames.len() as u64;
        self.frames.clear();
        self.bytes = 0;
        self.choked = false;
        n
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Timer wheel shared between the public runtime API (arm/cancel) and
/// reactor shard 0 (expiry). Generation counters make cancels and
/// re-arms behave exactly like the simulator's: a stale heap entry
/// whose generation no longer matches is skipped at expiry.
pub(crate) struct TimerState {
    /// Min-heap of `(deadline_ns, kind, token, gen)`.
    pub heap: BinaryHeap<Reverse<(u64, TimerKind, u64, u64)>>,
    /// Live generation per `(kind, token)`.
    pub armed: HashMap<(TimerKind, u64), u64>,
    pub next_gen: u64,
}

impl TimerState {
    pub fn new() -> TimerState {
        TimerState {
            heap: BinaryHeap::new(),
            armed: HashMap::new(),
            next_gen: 0,
        }
    }
}

/// Arms `(kind, token)` to fire `after` from now. Shard 0 owns expiry,
/// so arming from any other thread wakes its poll loop (the new
/// deadline may be earlier than the one its timeout was computed from).
pub(crate) fn set_timer<M>(
    shared: &Shared<M>,
    from_shard: Option<usize>,
    kind: TimerKind,
    token: u64,
    after: Duration,
) {
    let deadline = shared.clock.now().as_nanos() + after.as_nanos();
    {
        let mut t = shared.timers.lock().expect("timer lock");
        t.next_gen += 1;
        let gen = t.next_gen;
        t.armed.insert((kind, token), gen);
        t.heap.push(Reverse((deadline, kind, token, gen)));
    }
    if from_shard != Some(0) {
        shared.wakeups[0].wake();
    }
}

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTEN: u64 = 1;
/// The telemetry scrape listener ([`NodeRuntime::serve_telemetry`]),
/// adopted by shard 0 once installed.
const TOKEN_TELEMETRY: u64 = 2;
const TOKEN_FIRST_CONN: u64 = 3;

/// Longest HTTP request a telemetry connection may send before it is
/// dropped (scrapes are one short GET line plus a few headers).
const TELEMETRY_MAX_REQUEST: usize = 4096;

/// Marker in a reconnect-heap entry for a scheduled *retry* (no dial in
/// flight) rather than a connect watchdog on a specific dial.
const DIAL_RETRY: u64 = 0;

enum ConnKind {
    /// Accepted connection: peers write frames to us on it.
    Inbound,
    /// Dialled connection: we write frames to `peer` on it.
    Outbound { peer: NodeId, connected: bool },
}

struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    peer_ip: Option<IpAddr>,
    asm: FrameAssembler,
    /// Bytes staged for writing (whole frames, coalesced).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Frames represented in `wbuf` (undeliverable accounting on close).
    wframes: u64,
    interest: u32,
    /// Which dial this outbound connection came from: its connect
    /// watchdog only fires on a matching generation, so a stale
    /// watchdog from an earlier dial can never tear down a later one.
    dial_id: u64,
}

/// One HTTP/1.0 scrape connection on the telemetry listener: reads the
/// request head, serves one response, closes. Deliberately minimal —
/// no keep-alive, no chunking, no headers beyond what `curl` and
/// Prometheus-style scrapers need.
struct TelemetryConn {
    stream: TcpStream,
    /// Request bytes read so far (until the end of the request line).
    rbuf: Vec<u8>,
    /// Staged response bytes.
    wbuf: Vec<u8>,
    wpos: usize,
    /// True once the response is staged (the request side is done).
    responding: bool,
}

/// One reactor shard: an epoll loop owning a disjoint subset of the
/// runtime's connections (plus, on shard 0, the listener and the timer
/// wheel).
struct ReactorShard<M, N> {
    idx: usize,
    shared: Arc<Shared<M>>,
    node: Arc<Mutex<N>>,
    epoll: Epoll,
    listener: Option<TcpListener>,
    /// Telemetry scrape listener (shard 0, once adopted).
    telemetry: Option<TcpListener>,
    /// In-flight telemetry scrape connections by token.
    tconns: HashMap<u64, TelemetryConn>,
    conns: HashMap<u64, Conn>,
    /// Outbound connection (live or connecting) per assigned peer.
    by_peer: HashMap<NodeId, u64>,
    next_token: u64,
    /// Scheduled dials/watchdogs: `(deadline_ns, peer, dial_id)` where
    /// `dial_id` is [`DIAL_RETRY`] for a scheduled retry or the dialled
    /// connection's generation for its connect watchdog.
    reconnect: BinaryHeap<Reverse<(u64, NodeId, u64)>>,
    /// Dial generation counter (watchdog matching).
    next_dial: u64,
    /// Consecutive failed dials per peer (reset on success/flush).
    attempts: HashMap<NodeId, u32>,
    /// Peers whose next dial must wait for a backoff deadline.
    backoff_until: HashMap<NodeId, u64>,
    /// Round-robin cursor for handing accepted connections to shards.
    rr_next: usize,
}

/// Runs one reactor shard until the runtime's stop flag is set. Takes
/// its `node` handle by value so the handle drops before the caller
/// reports the thread's exit (bounded-join shutdown relies on that
/// ordering to hand the node back).
pub(crate) fn run_shard<M, N>(
    shared: Arc<Shared<M>>,
    node: Arc<Mutex<N>>,
    idx: usize,
    listener: Option<TcpListener>,
) where
    M: crate::runtime::NetMsg + ringbft_simnet::SimMessage,
    N: ProtocolNode<M> + Send + 'static,
{
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(_) => return, // fd exhaustion at spawn: nothing to drive
    };
    if !epoll.add(shared.wakeups[idx].raw(), TOKEN_WAKE, sys::EPOLLIN) {
        return; // cannot be woken: the shard would be undriveable
    }
    if let Some(l) = &listener {
        if !epoll.add(l.as_raw_fd(), TOKEN_LISTEN, sys::EPOLLIN) {
            return; // cannot accept: the node would be unreachable
        }
    }
    let mut shard = ReactorShard {
        idx,
        shared,
        node,
        epoll,
        listener,
        telemetry: None,
        tconns: HashMap::new(),
        conns: HashMap::new(),
        by_peer: HashMap::new(),
        next_token: TOKEN_FIRST_CONN,
        reconnect: BinaryHeap::new(),
        next_dial: DIAL_RETRY + 1,
        attempts: HashMap::new(),
        backoff_until: HashMap::new(),
        rr_next: 0,
    };
    shard.run();
}

impl<M, N> ReactorShard<M, N>
where
    M: crate::runtime::NetMsg + ringbft_simnet::SimMessage,
    N: ProtocolNode<M> + Send + 'static,
{
    fn run(&mut self) {
        if self.idx == 0 {
            // The hosted node starts on the reactor, exactly as the old
            // event loop started it.
            let now = self.shared.clock.now();
            let actions = {
                let mut n = self.node.lock().expect("node lock");
                n.on_start(now)
            };
            let mut pending = VecDeque::new();
            self.apply_actions(actions, &mut pending);
            self.drain_pending(pending);
        }
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            self.take_handoffs();
            self.drain_verified();
            if self.idx == 0 {
                self.adopt_telemetry_listener();
                self.fire_due_timers();
                self.pump_node();
            }
            self.process_reconnects();
            // Flush *after* timers so a send produced by a timer
            // callback for a peer this shard itself owns goes out now,
            // not after the next poll wakeup (enqueue_send only wakes
            // the eventfd for *other* shards). Event-driven sends from
            // the previous iteration's handlers are covered too.
            self.flush_dirty_peers();
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let timeout = self.poll_timeout();
            let wait_start = self.shared.clock.now();
            let n = self.epoll.wait(&mut events, timeout);
            // Time actually spent blocked in the kernel: the idle/busy
            // profile of the shard (near the poll timeout when idle,
            // near zero when saturated).
            {
                let waited = self.shared.clock.now().since(wait_start);
                let mut h = self.shared.obs.epoll_wait.lock().expect("epoll hist");
                h.record(waited.as_nanos());
            }
            for ev in events.iter().take(n) {
                let (token, bits) = (ev.data, ev.events);
                match token {
                    TOKEN_WAKE => self.shared.wakeups[self.idx].drain(),
                    TOKEN_LISTEN => self.accept_ready(),
                    TOKEN_TELEMETRY => self.telemetry_accept(),
                    tok if self.tconns.contains_key(&tok) => self.telemetry_ready(tok, bits),
                    tok => self.conn_ready(tok, bits),
                }
            }
        }
        // Dropping `conns`/`listener`/`epoll`/eventfd handles closes
        // every fd this shard owned.
    }

    /// The `epoll_wait` timeout: the earliest of the timer wheel (shard
    /// 0) and this shard's reconnect schedule, capped at the idle poll.
    fn poll_timeout(&self) -> i32 {
        let now = self.shared.clock.now().as_nanos();
        let mut next: u64 = now + IDLE_POLL.as_nanos() as u64;
        if self.idx == 0 {
            let t = self.shared.timers.lock().expect("timer lock");
            if let Some(Reverse((deadline, ..))) = t.heap.peek() {
                next = next.min(*deadline);
            }
        }
        if let Some(Reverse((deadline, ..))) = self.reconnect.peek() {
            next = next.min(*deadline);
        }
        // Round up to whole milliseconds so a due-in-200µs timer does
        // not spin through zero-timeout polls.
        (next.saturating_sub(now)).div_ceil(1_000_000) as i32
    }

    // ------------------------------------------------------------------
    // Node calls and actions
    // ------------------------------------------------------------------

    /// Delivers protocol messages to the node, draining any self-sends
    /// its actions produce (the simulator's loopback fast path).
    fn drain_pending(&mut self, mut pending: VecDeque<(NodeId, M)>) {
        while let Some((from, msg)) = pending.pop_front() {
            self.shared
                .counters
                .messages_delivered
                .fetch_add(1, Ordering::Relaxed);
            let now = self.shared.clock.now();
            let actions = {
                let mut n = self.node.lock().expect("node lock");
                n.on_message(now, from, msg)
            };
            self.apply_actions(actions, &mut pending);
        }
    }

    fn deliver(&mut self, from: NodeId, msg: M) {
        let mut pending = VecDeque::new();
        pending.push_back((from, msg));
        self.drain_pending(pending);
    }

    fn apply_actions(&mut self, actions: Vec<Action<M>>, pending: &mut VecDeque<(NodeId, M)>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.enqueue_send(to, msg, pending),
                Action::SendMany { tos, msg } => self.enqueue_send_many(tos, msg, pending),
                Action::SetTimer { kind, token, after } => {
                    set_timer(&self.shared, Some(self.idx), kind, token, after);
                }
                Action::CancelTimer { kind, token } => {
                    let mut t = self.shared.timers.lock().expect("timer lock");
                    t.armed.remove(&(kind, token));
                    // Stale heap entries are skipped by the generation
                    // check at expiry.
                }
                Action::Executed { txns, .. } => {
                    let shared = &self.shared;
                    shared.executed_batches.fetch_add(1, Ordering::Relaxed);
                    shared
                        .executed_txns
                        .fetch_add(txns as u64, Ordering::Relaxed);
                }
                Action::ViewChanged { view } => {
                    self.shared
                        .view_log
                        .lock()
                        .expect("view log")
                        .push((self.shared.clock.now(), view));
                }
            }
        }
    }

    /// Queues a message for a peer (or loops it back for self-sends),
    /// marking the owning shard dirty so it drains the queue.
    fn enqueue_send(&mut self, to: NodeId, msg: M, pending: &mut VecDeque<(NodeId, M)>) {
        let shared = &self.shared;
        let resolved = shared.peers.resolve(to);
        if resolved == shared.id {
            pending.push_back((shared.id, msg));
            return;
        }
        if shared.peers.addr_of(resolved).is_none() {
            // Unknown peer: drop, as the simulator drops sends to
            // unregistered nodes. (A Hello may register it later; dials
            // re-read the table on every attempt.)
            shared
                .counters
                .messages_dropped
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let model = msg.wire_bytes();
        let trace = msg.trace_context();
        let body = match encode_body(shared.id, &msg, &trace) {
            Ok(b) => b,
            Err(_) => {
                shared
                    .counters
                    .messages_dropped
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let prefix = frame_prefix(shared.id, to, &body, &shared.auth);
        self.stage_frame(resolved, EgressFrame { prefix, body }, model);
    }

    /// Queues one message for many peers, encoding the payload exactly
    /// once: every remote destination gets a per-peer frame prefix over
    /// the same shared body bytes. Self-sends loop back; unknown peers
    /// drop, each independently, exactly as N unicast sends would.
    fn enqueue_send_many(&mut self, tos: Vec<NodeId>, msg: M, pending: &mut VecDeque<(NodeId, M)>) {
        let shared = Arc::clone(&self.shared);
        let mut remotes = Vec::with_capacity(tos.len());
        for to in tos {
            let resolved = shared.peers.resolve(to);
            if resolved == shared.id {
                pending.push_back((shared.id, msg.clone()));
                continue;
            }
            if shared.peers.addr_of(resolved).is_none() {
                shared
                    .counters
                    .messages_dropped
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            remotes.push((to, resolved));
        }
        if remotes.is_empty() {
            return;
        }
        let model = msg.wire_bytes();
        let trace = msg.trace_context();
        let body = match encode_body(shared.id, &msg, &trace) {
            Ok(b) => b,
            Err(_) => {
                shared
                    .counters
                    .messages_dropped
                    .fetch_add(remotes.len() as u64, Ordering::Relaxed);
                return;
            }
        };
        shared.counters.broadcasts.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .encodes_saved
            .fetch_add(remotes.len() as u64 - 1, Ordering::Relaxed);
        for (to, resolved) in remotes {
            let prefix = frame_prefix(shared.id, to, &body, &shared.auth);
            let frame = EgressFrame {
                prefix,
                body: Arc::clone(&body),
            };
            self.stage_frame(resolved, frame, model);
        }
    }

    /// Offers one egress frame to `resolved`'s queue and, when accepted,
    /// books the send counters and marks the owning shard dirty.
    fn stage_frame(&self, resolved: NodeId, frame: EgressFrame, model: u64) {
        let shared = &self.shared;
        let bytes = frame.len() as u64;
        let (accepted, depth) = {
            let mut outq = shared.outq.lock().expect("outq");
            let q = outq.entry(resolved).or_default();
            let accepted = q.offer(frame);
            (accepted, q.bytes as u64)
        };
        if !accepted {
            shared
                .counters
                .messages_dropped
                .fetch_add(1, Ordering::Relaxed);
            shared.obs.backpressure_hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        shared
            .obs
            .queue_hwm_bytes
            .fetch_max(depth, Ordering::Relaxed);
        shared
            .counters
            .messages_sent
            .fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .bytes_sent
            .fetch_add(bytes, Ordering::Relaxed);
        shared
            .counters
            .modeled_bytes_sent
            .fetch_add(model, Ordering::Relaxed);
        let owner = shared.peer_shard(resolved);
        shared.dirty[owner]
            .lock()
            .expect("dirty set")
            .insert(resolved);
        if owner != self.idx {
            shared.wakeups[owner].wake();
        }
    }

    // ------------------------------------------------------------------
    // Timers (shard 0)
    // ------------------------------------------------------------------

    fn fire_due_timers(&mut self) {
        loop {
            let due = {
                let mut t = self.shared.timers.lock().expect("timer lock");
                let now = self.shared.clock.now().as_nanos();
                let mut fire = None;
                while let Some(Reverse((deadline, kind, token, gen))) = t.heap.peek().copied() {
                    if deadline > now {
                        break;
                    }
                    t.heap.pop();
                    if t.armed.get(&(kind, token)) == Some(&gen) {
                        // A cancel that raced this expiry has already
                        // removed the entry, so it wins — matching the
                        // simulator's semantics.
                        t.armed.remove(&(kind, token));
                        fire = Some((kind, token));
                        break;
                    }
                }
                fire
            };
            let Some((kind, token)) = due else { return };
            self.shared
                .counters
                .timers_fired
                .fetch_add(1, Ordering::Relaxed);
            let now = self.shared.clock.now();
            let actions = {
                let mut n = self.node.lock().expect("node lock");
                n.on_timer(now, kind, token)
            };
            let mut pending = VecDeque::new();
            self.apply_actions(actions, &mut pending);
            self.drain_pending(pending);
        }
    }

    // ------------------------------------------------------------------
    // Outbound: dial, flush, reconnect
    // ------------------------------------------------------------------

    fn flush_dirty_peers(&mut self) {
        let dirty: Vec<NodeId> = {
            let mut d = self.shared.dirty[self.idx].lock().expect("dirty set");
            d.drain().collect()
        };
        for peer in dirty {
            self.flush_peer(peer);
        }
    }

    /// Ensures `peer`'s queue is draining: flush over a live connection,
    /// wait on an in-flight dial or backoff, or start a fresh dial.
    fn flush_peer(&mut self, peer: NodeId) {
        if let Some(&tok) = self.by_peer.get(&peer) {
            let connected = matches!(
                self.conns.get(&tok).map(|c| &c.kind),
                Some(ConnKind::Outbound {
                    connected: true,
                    ..
                })
            );
            if connected {
                self.flush_conn(tok);
            }
            return; // still connecting: EPOLLOUT will drive it
        }
        let queued = {
            let outq = self.shared.outq.lock().expect("outq");
            outq.get(&peer).is_some_and(|q| !q.is_empty())
        };
        if !queued {
            return;
        }
        let now = self.shared.clock.now().as_nanos();
        if self.backoff_until.get(&peer).is_some_and(|u| *u > now) {
            return; // scheduled reconnect will dial
        }
        self.start_connect(peer);
    }

    /// Flushes (and evicts) `peer`'s outbound queue, counting the
    /// discarded frames undeliverable. Evicting the map entry keeps
    /// `outq` bounded by *live* peers — under client-host churn every
    /// host ever replied to would otherwise leave an empty queue
    /// behind forever.
    fn flush_peer_queue(&mut self, peer: NodeId) {
        let flushed = {
            let mut outq = self.shared.outq.lock().expect("outq");
            let n = outq.get_mut(&peer).map(|q| q.flush()).unwrap_or(0);
            outq.remove(&peer);
            n
        };
        self.shared
            .counters
            .messages_undeliverable
            .fetch_add(flushed, Ordering::Relaxed);
    }

    fn start_connect(&mut self, peer: NodeId) {
        let Some(addr) = self.shared.peers.addr_of(peer) else {
            // The route vanished (it existed at enqueue time): the
            // queued frames can never leave.
            self.flush_peer_queue(peer);
            return;
        };
        let attempt = *self.attempts.get(&peer).unwrap_or(&0);
        if attempt > 0 {
            self.shared
                .counters
                .reconnects
                .fetch_add(1, Ordering::Relaxed);
            let now = self.shared.clock.now().as_nanos();
            self.shared.obs.trace.lock().expect("net trace").push(
                now,
                "reconnect",
                &[("peer", peer_trace_id(peer)), ("attempt", attempt as u64)],
            );
        }
        match connect_nonblocking(addr) {
            Ok(stream) => {
                let peer_ip = stream.peer_addr().ok().map(|a| a.ip());
                let token = self.next_token;
                self.next_token += 1;
                let dial_id = self.next_dial;
                self.next_dial += 1;
                if !self.epoll.add(
                    stream.as_raw_fd(),
                    token,
                    sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP,
                ) {
                    // Unregisterable = undriveable: treat like a failed
                    // dial (backoff covers transient watch exhaustion).
                    drop(stream);
                    self.dial_failed(peer);
                    return;
                }
                self.conns.insert(
                    token,
                    Conn {
                        stream,
                        kind: ConnKind::Outbound {
                            peer,
                            connected: false,
                        },
                        peer_ip,
                        asm: FrameAssembler::new(),
                        wbuf: self.shared.bufs.take(),
                        wpos: 0,
                        wframes: 0,
                        interest: sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP,
                        dial_id,
                    },
                );
                self.by_peer.insert(peer, token);
                // Connect watchdog: *this* dial (generation-tagged)
                // stuck in the handshake past the timeout is torn down
                // and retried.
                let deadline =
                    self.shared.clock.now().as_nanos() + CONNECT_TIMEOUT.as_nanos() as u64;
                self.reconnect.push(Reverse((deadline, peer, dial_id)));
            }
            Err(_) => self.dial_failed(peer),
        }
    }

    /// A dial failed (or a connection died with traffic still queued):
    /// back off and retry, or flush the queue once the peer looks dead.
    fn dial_failed(&mut self, peer: NodeId) {
        let attempts = self.attempts.entry(peer).or_insert(0);
        *attempts += 1;
        if *attempts >= RECONNECT_FLUSH_ATTEMPTS {
            *attempts = 0;
            self.backoff_until.remove(&peer);
            self.flush_peer_queue(peer);
            // No further dials until new traffic arrives for the peer.
            return;
        }
        let delay_ms = 20 * (*attempts as u64);
        let deadline = self.shared.clock.now().as_nanos() + delay_ms * 1_000_000;
        self.backoff_until.insert(peer, deadline);
        self.reconnect.push(Reverse((deadline, peer, DIAL_RETRY)));
    }

    fn process_reconnects(&mut self) {
        let now = self.shared.clock.now().as_nanos();
        while let Some(Reverse((deadline, peer, dial_id))) = self.reconnect.peek().copied() {
            if deadline > now {
                break;
            }
            self.reconnect.pop();
            if dial_id != DIAL_RETRY {
                // Connect watchdog: tear the dial down only if *that*
                // dial is still handshaking (a stale watchdog from an
                // earlier, already-closed dial must not kill a newer
                // in-flight one).
                let stuck = self.by_peer.get(&peer).copied().filter(|tok| {
                    matches!(
                        self.conns.get(tok),
                        Some(Conn {
                            kind: ConnKind::Outbound {
                                connected: false,
                                ..
                            },
                            dial_id: d,
                            ..
                        }) if *d == dial_id
                    )
                });
                if let Some(tok) = stuck {
                    self.close_conn(tok);
                }
                continue;
            }
            // Scheduled retry: dial again if traffic is still waiting.
            if self.by_peer.contains_key(&peer) {
                continue; // a newer dial is already in flight
            }
            if self.backoff_until.get(&peer) == Some(&deadline) {
                self.backoff_until.remove(&peer);
            }
            let queued = {
                let outq = self.shared.outq.lock().expect("outq");
                outq.get(&peer).is_some_and(|q| !q.is_empty())
            };
            if queued {
                self.start_connect(peer);
            }
        }
    }

    /// A dial became writable: read the `SO_ERROR` verdict, introduce
    /// ourselves (Hello), and start draining the peer queue.
    fn connect_ready(&mut self, tok: u64) {
        let peer = match self.conns.get(&tok).map(|c| &c.kind) {
            Some(ConnKind::Outbound { peer, .. }) => *peer,
            _ => return,
        };
        let verdict = self
            .conns
            .get(&tok)
            .and_then(|c| c.stream.take_error().ok());
        if !matches!(verdict, Some(None)) {
            // SO_ERROR set (refused, unreachable) or unreadable.
            self.close_conn(tok);
            return;
        }
        let hello = Hello {
            node: self.shared.id,
            aliases: self.shared.peers.aliases_of(self.shared.id),
            listen_port: self.shared.listen_port,
        };
        let Ok(frame) = encode_hello_frame(&hello, &self.shared.auth, peer) else {
            self.close_conn(tok);
            return;
        };
        if let Some(conn) = self.conns.get_mut(&tok) {
            let _ = conn.stream.set_nodelay(true);
            conn.kind = ConnKind::Outbound {
                peer,
                connected: true,
            };
            // Stage the Hello into the pooled buffer (keep it; the
            // connection reuses it for every subsequent drain).
            conn.wbuf.clear();
            conn.wbuf.extend_from_slice(&frame);
            conn.wpos = 0;
            conn.wframes = 0; // the Hello is not a counted data frame
        }
        self.attempts.remove(&peer);
        self.backoff_until.remove(&peer);
        self.flush_conn(tok);
    }

    /// Writes staged bytes, refilling the stage from the peer queue in
    /// [`COALESCE_BYTES`] batches, until the socket would block or
    /// everything drained.
    fn flush_conn(&mut self, tok: u64) {
        loop {
            let peer = {
                let Some(conn) = self.conns.get_mut(&tok) else {
                    return;
                };
                let ConnKind::Outbound {
                    peer,
                    connected: true,
                } = conn.kind
                else {
                    return;
                };
                peer
            };
            // Refill the stage when it is fully written.
            {
                let stage_empty = {
                    let conn = self.conns.get(&tok).expect("conn exists");
                    conn.wpos == conn.wbuf.len()
                };
                if stage_empty {
                    let conn = self.conns.get_mut(&tok).expect("conn exists");
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    conn.wframes = 0;
                    let moved = {
                        let mut outq = self.shared.outq.lock().expect("outq");
                        outq.get_mut(&peer)
                            .map(|q| q.drain_into(&mut conn.wbuf))
                            .unwrap_or(0)
                    };
                    conn.wframes = moved;
                    if moved == 0 {
                        self.set_interest(tok, sys::EPOLLIN | sys::EPOLLRDHUP);
                        return;
                    }
                }
            }
            let conn = self.conns.get_mut(&tok).expect("conn exists");
            let wpos = conn.wpos;
            match conn.stream.write(&conn.wbuf[wpos..]) {
                Ok(0) => {
                    self.close_conn(tok);
                    return;
                }
                Ok(n) => {
                    conn.wpos += n;
                    if conn.wpos == conn.wbuf.len() {
                        // Fully flushed: frames are on the wire.
                        conn.wframes = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_interest(tok, sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(tok);
                    return;
                }
            }
        }
    }

    fn set_interest(&mut self, tok: u64, interest: u32) {
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        if conn.interest != interest {
            conn.interest = interest;
            self.epoll.modify(conn.stream.as_raw_fd(), tok, interest);
        }
    }

    /// Tears a connection down. For outbound connections the staged
    /// frames are counted undeliverable and, when traffic is still
    /// queued, a reconnect is scheduled (dial state, not a blocked
    /// thread).
    fn close_conn(&mut self, tok: u64) {
        let Some(conn) = self.conns.remove(&tok) else {
            return;
        };
        self.epoll.del(conn.stream.as_raw_fd());
        self.shared.bufs.put(conn.wbuf);
        if let ConnKind::Outbound { peer, .. } = conn.kind {
            self.by_peer.remove(&peer);
            if conn.wframes > 0 {
                self.shared
                    .counters
                    .messages_undeliverable
                    .fetch_add(conn.wframes, Ordering::Relaxed);
            }
            let queued = {
                let mut outq = self.shared.outq.lock().expect("outq");
                match outq.get(&peer) {
                    Some(q) if q.is_empty() => {
                        // Evict the drained queue: `outq` stays bounded
                        // by peers with live connections or pending
                        // traffic, not by every peer ever written to
                        // (client hosts churn).
                        outq.remove(&peer);
                        false
                    }
                    Some(_) => true,
                    None => false,
                }
            };
            if queued || conn.wframes > 0 {
                self.dial_failed(peer);
            } else {
                self.attempts.remove(&peer);
            }
        }
        // `conn.stream` drops here, closing the fd.
    }

    // ------------------------------------------------------------------
    // Inbound: accept, read, deliver
    // ------------------------------------------------------------------

    /// Accepts everything pending and hands the connections round-robin
    /// to the reactor shards (shard 0 owns the listener).
    fn accept_ready(&mut self) {
        loop {
            match self
                .listener
                .as_ref()
                .expect("listener on shard 0")
                .accept()
            {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let target = self.rr_next % self.shared.nshards;
                    self.rr_next += 1;
                    if target == self.idx {
                        self.register_inbound(stream);
                    } else {
                        self.shared.handoff[target]
                            .lock()
                            .expect("handoff")
                            .push_back(stream);
                        self.shared.wakeups[target].wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return, // transient (EMFILE, aborted handshake)
            }
        }
    }

    fn take_handoffs(&mut self) {
        loop {
            let stream = {
                let mut q = self.shared.handoff[self.idx].lock().expect("handoff");
                q.pop_front()
            };
            match stream {
                Some(s) => self.register_inbound(s),
                None => return,
            }
        }
    }

    fn register_inbound(&mut self, stream: TcpStream) {
        let peer_ip = stream.peer_addr().ok().map(|a| a.ip());
        let token = self.next_token;
        self.next_token += 1;
        if !self
            .epoll
            .add(stream.as_raw_fd(), token, sys::EPOLLIN | sys::EPOLLRDHUP)
        {
            // An unwatchable connection would blackhole the peer's
            // frames forever; dropping it closes the socket, so the
            // peer observes the failure and redials.
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                kind: ConnKind::Inbound,
                peer_ip,
                asm: FrameAssembler::new(),
                wbuf: Vec::new(),
                wpos: 0,
                wframes: 0,
                interest: sys::EPOLLIN | sys::EPOLLRDHUP,
                dial_id: DIAL_RETRY,
            },
        );
    }

    fn conn_ready(&mut self, tok: u64, bits: u32) {
        let Some(conn) = self.conns.get(&tok) else {
            return; // closed earlier in this same event batch
        };
        if let ConnKind::Outbound {
            connected: false, ..
        } = conn.kind
        {
            // Any readiness on a connecting socket is the handshake
            // verdict (EPOLLOUT on success, EPOLLERR/HUP on failure);
            // `connect_ready` reads SO_ERROR to tell them apart.
            self.connect_ready(tok);
            return;
        }
        if bits & sys::EPOLLIN != 0 {
            self.conn_readable(tok);
        }
        if !self.conns.contains_key(&tok) {
            return;
        }
        if bits & sys::EPOLLOUT != 0 {
            self.flush_conn(tok);
        }
        if !self.conns.contains_key(&tok) {
            return;
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close_conn(tok);
        }
    }

    /// Nonblocking read loop: every chunk feeds the incremental frame
    /// assembler; complete frames are verified and delivered inline.
    fn conn_readable(&mut self, tok: u64) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = {
                let Some(conn) = self.conns.get_mut(&tok) else {
                    return;
                };
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        // Clean EOF (peer closed its write side).
                        self.close_conn(tok);
                        return;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close_conn(tok);
                        return;
                    }
                }
            };
            let offloading = self.shared.verify.is_some();
            let (frames, raws, mut corrupt, peer_ip) = {
                let conn = self.conns.get_mut(&tok).expect("conn exists");
                conn.asm.extend(&buf[..n]);
                let mut frames = Vec::new();
                let mut raws = Vec::new();
                let mut corrupt = false;
                if offloading {
                    // Verify stage installed: extract header-validated
                    // raw frames only (cheap); MAC checks and body
                    // decodes happen on the worker pool. Bodies land in
                    // pooled buffers (returned after decode) so the
                    // steady-state read path allocates nothing.
                    let mut scratch = self.shared.bufs.take();
                    loop {
                        match conn.asm.next_raw_frame_in(&mut scratch) {
                            Ok(Some(r)) => {
                                raws.push(r);
                                scratch = self.shared.bufs.take();
                            }
                            Ok(None) => break,
                            Err(_) => {
                                corrupt = true;
                                break;
                            }
                        }
                    }
                    self.shared.bufs.put(scratch);
                } else {
                    loop {
                        match conn.asm.next_frame::<M>(&self.shared.auth, self.shared.id) {
                            Ok(Some(f)) => frames.push(f),
                            Ok(None) => break,
                            Err(_) => {
                                corrupt = true;
                                break;
                            }
                        }
                    }
                }
                (frames, raws, corrupt, conn.peer_ip)
            };
            let stalled = {
                let conn = self.conns.get(&tok).expect("conn exists");
                conn.asm.buffered() > 0
            };
            if stalled {
                // A partial frame stayed buffered after this read: the
                // frame straddled the read (normal under load) or the
                // peer is trickling bytes.
                self.shared
                    .obs
                    .reassembly_stalls
                    .fetch_add(1, Ordering::Relaxed);
            }
            for frame in frames {
                self.handle_frame(peer_ip, frame);
            }
            for raw in raws {
                if raw.is_hello() {
                    // Hello frames are verified inline: routing must
                    // never lag behind the verify queue, and they are
                    // rare (one per connection).
                    match decode_raw_frame::<M>(&raw, &self.shared.auth, self.shared.id) {
                        Ok(f) => {
                            if let Some(v) = &self.shared.verify {
                                v.inline.fetch_add(1, Ordering::Relaxed);
                            }
                            self.shared.bufs.put(raw.body);
                            self.handle_frame(peer_ip, f);
                        }
                        Err(_) => {
                            corrupt = true;
                            break;
                        }
                    }
                } else {
                    self.offload_frame(tok, raw);
                }
            }
            if corrupt {
                // Forged/corrupted traffic: drop the connection, exactly
                // as the old reader did.
                self.close_conn(tok);
                return;
            }
        }
    }

    /// Hands a raw data frame to the worker pool for MAC verification
    /// and decode. Frames are pinned to a worker by connection token, so
    /// per-connection frame order survives the offload; the worker
    /// deposits the verdict in this shard's verified-frame mailbox and
    /// pokes the shard's eventfd, and `drain_verified` picks it up at
    /// the top of the next loop iteration.
    fn offload_frame(&self, tok: u64, raw: RawFrame) {
        let verify = self.shared.verify.as_ref().expect("verify stage");
        verify.queue_depth.fetch_add(1, Ordering::Relaxed);
        verify.offloaded.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        let shard = self.idx;
        let pool = Arc::clone(&verify.pool);
        pool.submit_to(
            tok as usize,
            Box::new(move || {
                let verdict = match decode_raw_frame::<M>(&raw, &shared.auth, shared.id) {
                    Ok(Frame::Data(env)) => Some(VerifiedFrame::Ok { env }),
                    // Hellos never reach the pool (decoded inline), but
                    // a frame claiming the hello flag without it set in
                    // the extractor's view cannot happen — flags were
                    // parsed once. Drop defensively.
                    Ok(Frame::Hello(_)) => None,
                    Err(_) => Some(VerifiedFrame::Corrupt { token: tok }),
                };
                // The body buffer came out of the shard's pool; decode
                // copied what it needed, so recycle it here.
                shared.bufs.put(raw.body);
                let v = shared.verify.as_ref().expect("verify stage");
                if let Some(verdict) = verdict {
                    v.inbox[shard]
                        .lock()
                        .expect("verify inbox")
                        .push_back(verdict);
                }
                v.queue_depth.fetch_sub(1, Ordering::Relaxed);
                shared.wakeups[shard].wake();
            }),
        );
    }

    /// Drains this shard's verified-frame mailbox: envelopes the worker
    /// pool authenticated are delivered in deposit order; corrupt
    /// verdicts close the offending connection (tolerating tokens whose
    /// connection is already gone).
    fn drain_verified(&mut self) {
        let batch = match self.shared.verify.as_ref() {
            Some(v) => std::mem::take(&mut *v.inbox[self.idx].lock().expect("verify inbox")),
            None => return,
        };
        for item in batch {
            match item {
                VerifiedFrame::Ok { env } => self.deliver_env(env),
                VerifiedFrame::Corrupt { token } => self.close_conn(token),
            }
        }
    }

    /// Pumps the hosted node (shard 0): collects results the node's
    /// asynchronous execution stage finished off-thread and applies the
    /// actions they produce. A no-op for nodes without a pipeline.
    fn pump_node(&mut self) {
        let now = self.shared.clock.now();
        let actions = {
            let mut n = self.node.lock().expect("node lock");
            n.on_pump(now)
        };
        if actions.is_empty() {
            return;
        }
        let mut pending = VecDeque::new();
        self.apply_actions(actions, &mut pending);
        self.drain_pending(pending);
    }

    fn handle_frame(&mut self, peer_ip: Option<IpAddr>, frame: Frame<M>) {
        match frame {
            Frame::Hello(hello) => {
                // Learn the dial-back route for this peer: its
                // advertised listener port on the connection's source
                // IP. Client hosts may restart on a new ephemeral port,
                // so their route refreshes on every Hello; replica
                // routes from the cluster file are authoritative and
                // are only filled in when missing (a source IP can
                // differ from the configured interface on multi-homed
                // hosts). The codec already verified the Hello's HMAC
                // under the announced node's pair key, so the route
                // cannot be planted by a node not holding that key.
                if let Some(ip) = peer_ip {
                    let addr = SocketAddr::new(ip, hello.listen_port);
                    match hello.node {
                        NodeId::Client(_) => self.shared.peers.insert(hello.node, addr),
                        NodeId::Replica(_) => self.shared.peers.insert_if_absent(hello.node, addr),
                    }
                    for alias in hello.aliases {
                        self.shared.peers.add_alias(alias, hello.node);
                    }
                }
            }
            Frame::Data(env) => self.deliver_env(env),
        }
    }

    /// Delivers an authenticated envelope to the hosted node, applying
    /// the address check and any installed inbound drop rule. Shared by
    /// the inline decode path and the worker-verified mailbox.
    fn deliver_env(&mut self, env: Envelope<M>) {
        // Deliver only traffic addressed to (an alias of) us;
        // anything else indicates a stale peer table.
        if self.shared.peers.resolve(env.to) != self.shared.id {
            return;
        }
        // Fast path: the atomic keeps the no-filter case (every
        // production run) free of the shared lock.
        let filtered = self.shared.inbound_filter_armed.load(Ordering::Acquire)
            && self
                .shared
                .inbound_filter
                .lock()
                .expect("filter lock")
                .as_ref()
                .is_some_and(|f| f(env.from, &env.msg));
        if filtered {
            self.shared
                .counters
                .messages_filtered
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.deliver(env.from, env.msg);
    }

    // ------------------------------------------------------------------
    // Telemetry scrape endpoint (shard 0)
    // ------------------------------------------------------------------

    /// Adopts a freshly installed telemetry listener
    /// ([`crate::runtime::NodeRuntime::serve_telemetry`]) into this
    /// shard's epoll set. The armed flag keeps the common no-endpoint
    /// case free of the mutex.
    fn adopt_telemetry_listener(&mut self) {
        if !self.shared.telemetry_armed.load(Ordering::Acquire) {
            return;
        }
        let listener = {
            let mut t = self.shared.telemetry.lock().expect("telemetry lock");
            t.pending_listener.take()
        };
        self.shared.telemetry_armed.store(false, Ordering::Release);
        let Some(listener) = listener else { return };
        if !self
            .epoll
            .add(listener.as_raw_fd(), TOKEN_TELEMETRY, sys::EPOLLIN)
        {
            return; // unwatchable: scrapers see a closed port
        }
        self.telemetry = Some(listener);
    }

    /// Accepts pending scrape connections. Telemetry connections stay
    /// on shard 0 — scrapes are rare and short, so they never need the
    /// round-robin handoff data connections get.
    fn telemetry_accept(&mut self) {
        loop {
            let accepted = match &self.telemetry {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if !self
                        .epoll
                        .add(stream.as_raw_fd(), token, sys::EPOLLIN | sys::EPOLLRDHUP)
                    {
                        continue; // dropping closes it; the scraper retries
                    }
                    self.tconns.insert(
                        token,
                        TelemetryConn {
                            stream,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            responding: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn telemetry_ready(&mut self, tok: u64, bits: u32) {
        if bits & sys::EPOLLIN != 0 {
            self.telemetry_readable(tok);
        }
        if !self.tconns.contains_key(&tok) {
            return;
        }
        if bits & sys::EPOLLOUT != 0 {
            self.telemetry_writable(tok);
        }
        if !self.tconns.contains_key(&tok) {
            return;
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close_telemetry(tok);
        }
    }

    /// Reads until the request line is complete, then stages the
    /// response. Responding after the first line (rather than the full
    /// header block) is valid for one-shot HTTP/1.0 exchanges: the
    /// response carries `Connection: close` and the socket is closed
    /// once it is written.
    fn telemetry_readable(&mut self, tok: u64) {
        let mut buf = [0u8; 4096];
        loop {
            let Some(conn) = self.tconns.get_mut(&tok) else {
                return;
            };
            if conn.responding {
                return; // late header bytes: ignore until close
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close_telemetry(tok);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&buf[..n]);
                    if conn.rbuf.len() > TELEMETRY_MAX_REQUEST {
                        self.close_telemetry(tok);
                        return;
                    }
                    if conn.rbuf.contains(&b'\n') {
                        self.telemetry_respond(tok);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_telemetry(tok);
                    return;
                }
            }
        }
    }

    /// Parses the request line, runs the installed route handler, and
    /// stages the HTTP/1.0 response.
    fn telemetry_respond(&mut self, tok: u64) {
        let (method, path) = {
            let Some(conn) = self.tconns.get(&tok) else {
                return;
            };
            let line_end = conn
                .rbuf
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(conn.rbuf.len());
            let line = String::from_utf8_lossy(&conn.rbuf[..line_end]).into_owned();
            let mut parts = line.split_whitespace();
            (
                parts.next().unwrap_or("").to_string(),
                parts.next().unwrap_or("").to_string(),
            )
        };
        let response = if method != "GET" {
            http_response(405, "Method Not Allowed", "text/plain", "only GET\n")
        } else {
            let served = {
                let t = self.shared.telemetry.lock().expect("telemetry lock");
                t.handler.as_ref().and_then(|h| h(&path))
            };
            match served {
                Some((content_type, body)) => http_response(200, "OK", &content_type, &body),
                None => http_response(404, "Not Found", "text/plain", "unknown route\n"),
            }
        };
        let Some(conn) = self.tconns.get_mut(&tok) else {
            return;
        };
        conn.wbuf = response;
        conn.wpos = 0;
        conn.responding = true;
        conn.rbuf.clear();
        self.epoll
            .modify(conn.stream.as_raw_fd(), tok, sys::EPOLLOUT);
        self.telemetry_writable(tok);
    }

    fn telemetry_writable(&mut self, tok: u64) {
        loop {
            let Some(conn) = self.tconns.get_mut(&tok) else {
                return;
            };
            if !conn.responding {
                return; // spurious EPOLLOUT before the request arrived
            }
            if conn.wpos == conn.wbuf.len() {
                self.close_telemetry(tok); // response done: one-shot
                return;
            }
            let wpos = conn.wpos;
            match conn.stream.write(&conn.wbuf[wpos..]) {
                Ok(0) => {
                    self.close_telemetry(tok);
                    return;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_telemetry(tok);
                    return;
                }
            }
        }
    }

    fn close_telemetry(&mut self, tok: u64) {
        if let Some(conn) = self.tconns.remove(&tok) {
            self.epoll.del(conn.stream.as_raw_fd());
            // `conn.stream` drops here, closing the fd.
        }
    }
}

/// Renders a one-shot HTTP/1.0 response.
fn http_response(code: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Compact trace encoding of a node id: replicas as `shard·1000 + index`,
/// clients as their raw id with the top bit set.
fn peer_trace_id(node: NodeId) -> u64 {
    match node {
        NodeId::Replica(r) => (r.shard.0 as u64) * 1000 + r.index as u64,
        NodeId::Client(c) => 0x8000_0000_0000_0000 | c.0,
    }
}

/// Stable peer→shard assignment (Fibonacci hash over the node id).
pub(crate) fn peer_shard_of(node: NodeId, nshards: usize) -> usize {
    let h = match node {
        NodeId::Replica(r) => ((r.shard.0 as u64) << 32) | r.index as u64,
        NodeId::Client(c) => 0x8000_0000_0000_0000 | c.0,
    };
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % nshards.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_frame(body_len: usize) -> EgressFrame {
        EgressFrame {
            prefix: [0x11; PREFIX_BYTES],
            body: Arc::from(vec![0x22u8; body_len].into_boxed_slice()),
        }
    }

    #[test]
    fn shared_frame_drains_as_prefix_then_body() {
        let mut q = PeerQueue::default();
        assert!(q.offer(shared_frame(8)));
        let mut wbuf = Vec::new();
        assert_eq!(q.drain_into(&mut wbuf), 1);
        assert_eq!(wbuf.len(), PREFIX_BYTES + 8);
        assert_eq!(&wbuf[..PREFIX_BYTES], &[0x11; PREFIX_BYTES]);
        assert!(wbuf[PREFIX_BYTES..].iter().all(|b| *b == 0x22));
        assert!(q.is_empty());
    }

    #[test]
    fn broadcast_destinations_share_one_body_allocation() {
        let body: Arc<[u8]> = Arc::from(vec![7u8; 32].into_boxed_slice());
        let mut queues: Vec<PeerQueue> = (0..3).map(|_| PeerQueue::default()).collect();
        for q in &mut queues {
            assert!(q.offer(EgressFrame {
                prefix: [0; PREFIX_BYTES],
                body: Arc::clone(&body),
            }));
        }
        // Three queued frames plus our handle: one allocation, four refs.
        assert_eq!(Arc::strong_count(&body), 4);
        let mut wbuf = Vec::new();
        for q in &mut queues {
            q.drain_into(&mut wbuf);
        }
        // Draining copies bytes out and releases every queue's ref.
        assert_eq!(Arc::strong_count(&body), 1);
    }

    #[test]
    fn watermark_chokes_and_recovers() {
        let mut q = PeerQueue::default();
        // An empty queue always accepts, even past the watermark.
        assert!(q.offer(shared_frame(PEER_QUEUE_HIGH_BYTES)));
        // A non-empty queue past HIGH rejects and chokes.
        assert!(!q.offer(shared_frame(1)));
        let mut wbuf = Vec::new();
        while q.drain_into(&mut wbuf) > 0 {
            wbuf.clear();
        }
        // Below LOW again: the queue unchoked and accepts.
        assert!(q.offer(shared_frame(1)));
    }
}
