//! The epoll reactor: the one thread that drives a hosted node, replacing
//! the old thread-per-connection runtime.
//!
//! Every [`NodeRuntime`](crate::runtime::NodeRuntime) runs exactly one
//! reactor thread, named `<node>-reactor0`. It multiplexes *every*
//! socket of the node through one `epoll` instance and owns, as plain
//! fields no other thread touches, the state those sockets need:
//!
//! * **accept** — the listener is nonblocking; accepted connections
//!   join the epoll set directly;
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
//!   `epoll_wait` timeout: the reactor fires due `(kind, token)`
//!   entries (generation-checked, so cancels and re-arms behave exactly
//!   like the simulator's) between poll iterations.
//!
//! The reactor also owns, by value, the hosted node and everything else
//! only it writes: the inbound filter, the telemetry listener and its
//! routes, the view log, and the transport counters and instruments.
//! Other threads reach it through its eventfd and one command
//! mailbox ([`ReactorThread`]): a command is a closure the reactor runs
//! on itself, answered on a one-shot channel, or a *lend* — the reactor
//! sends the node to a `with_node` caller and blocks until the caller's
//! closure hands it back. `shutdown` closes the mailbox and receives
//! the node from the exiting thread.
//!
//! The kernel interface is a minimal raw-FFI [`sys`] module
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`/`eventfd`, plus
//! `socket`/`connect` for nonblocking dials) — this environment has no
//! crates.io, so no `libc`/`mio`; everything else goes through
//! `std::net` on the raw fds.

use crate::codec::{
    encode_body, encode_hello_frame, frame_prefix, Envelope, Frame, FrameAssembler, FrameAuth,
    Hello, PREFIX_BYTES,
};
use crate::runtime::{Clock, NetMsg, NetStatsSnapshot, NetTelemetry, PeerTable, TelemetryRoutes};
use ringbft_obs::{Histogram, TraceRing};
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::{Action, Instant, NodeId, TimerKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::mpsc::{self, Receiver, SendError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// An `eventfd`-backed wakeup channel: threads outside the reactor poke
/// its `epoll_wait` (mailbox commands, shutdown).
#[derive(Debug)]
struct EventFd(RawFd);

impl EventFd {
    fn new() -> std::io::Result<EventFd> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(EventFd(fd))
    }

    fn raw(&self) -> RawFd {
        self.0
    }

    /// Makes the reactor's next (or current) `epoll_wait` return, so it
    /// drains its mailbox without waiting out its poll timeout.
    fn wake(&self) {
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
    fn drain(&self) {
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

/// Poll timeout when nothing is scheduled.
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
struct PeerQueue {
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

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// The protocol timer wheel. Generation counters make cancels and
/// re-arms behave exactly like the simulator's: a stale heap entry
/// whose generation no longer matches is skipped at expiry.
#[derive(Default)]
struct TimerState {
    /// Min-heap of `(deadline_ns, kind, token, gen)`.
    heap: BinaryHeap<Reverse<(u64, TimerKind, u64, u64)>>,
    /// Live generation per `(kind, token)`.
    armed: HashMap<(TimerKind, u64), u64>,
    next_gen: u64,
}

impl TimerState {
    /// Arms `(kind, token)` to fire at `deadline_ns`, superseding any
    /// earlier arming of the same pair.
    fn arm(&mut self, kind: TimerKind, token: u64, deadline_ns: u64) {
        self.next_gen += 1;
        self.armed.insert((kind, token), self.next_gen);
        self.heap
            .push(Reverse((deadline_ns, kind, token, self.next_gen)));
    }

    /// Disarms `(kind, token)`; its heap entry is skipped at expiry.
    fn cancel(&mut self, kind: TimerKind, token: u64) {
        self.armed.remove(&(kind, token));
    }

    /// The earliest deadline in the heap (possibly a stale entry's,
    /// which only makes one poll return early).
    fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((deadline, ..))| *deadline)
    }

    /// Pops the earliest live timer due at `now_ns`, if any.
    fn pop_due(&mut self, now_ns: u64) -> Option<(TimerKind, u64)> {
        while let Some(Reverse((deadline, kind, token, gen))) = self.heap.peek().copied() {
            if deadline > now_ns {
                return None;
            }
            self.heap.pop();
            if self.armed.get(&(kind, token)) == Some(&gen) {
                self.armed.remove(&(kind, token));
                return Some((kind, token));
            }
        }
        None
    }
}

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTEN: u64 = 1;
/// The telemetry scrape listener
/// ([`NodeRuntime::serve_telemetry`](crate::runtime::NodeRuntime::serve_telemetry)),
/// adopted by the reactor once installed.
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

/// A content-aware inbound drop rule
/// ([`NodeRuntime::set_inbound_filter`](crate::runtime::NodeRuntime::set_inbound_filter)).
pub(crate) type InboundFilter<M> = Box<dyn Fn(NodeId, &M) -> bool + Send>;

/// Retained connection-lifecycle events per runtime.
const NET_TRACE_CAPACITY: usize = 256;

/// Transport instruments beyond the [`NetStatsSnapshot`] counters.
struct NetObs {
    /// Nanoseconds spent inside each `epoll_wait` call.
    epoll_wait: Histogram,
    /// High-water mark of any single peer queue's buffered bytes.
    queue_hwm_bytes: u64,
    /// Frames rejected because a peer queue sat at its watermark.
    backpressure_hits: u64,
    /// Socket reads that ended with a partial frame still buffered in
    /// the reassembler (a frame split across reads — normal under load,
    /// but a sustained climb means undersized reads or a trickling
    /// peer).
    reassembly_stalls: u64,
    /// Connection-lifecycle trace (reconnect attempts), timestamped on
    /// the runtime clock.
    trace: TraceRing,
}

/// The reactor: an epoll loop owning the hosted node, the listener,
/// every connection of the runtime, the per-peer outbound queues, the
/// timer wheel and everything else only it writes.
struct Reactor<M, N> {
    id: NodeId,
    clock: Clock,
    peers: PeerTable,
    /// Channel authenticator: every frame sent carries a pairwise HMAC,
    /// every frame received is verified before delivery (§3).
    auth: FrameAuth,
    /// Port our own listener accepts on (advertised in Hello frames).
    listen_port: u16,
    /// The eventfd other threads poke (mailbox commands, shutdown).
    wakeup: Arc<EventFd>,
    /// The hosted node. Every protocol call is made here; `with_node`
    /// borrows it through the mailbox.
    node: N,
    /// Commands from other threads, drained when the eventfd fires.
    mailbox: Receiver<Command<M, N>>,
    epoll: Epoll,
    listener: TcpListener,
    /// Telemetry scrape listener and its routes, once served.
    telemetry: Option<(TcpListener, TelemetryRoutes<N>)>,
    /// In-flight telemetry scrape connections by token.
    tconns: HashMap<u64, TelemetryConn>,
    conns: HashMap<u64, Conn>,
    /// Outbound connection (live or connecting) per peer.
    by_peer: HashMap<NodeId, u64>,
    next_token: u64,
    /// Per-peer outbound byte queues (the backpressure boundary).
    outq: HashMap<NodeId, PeerQueue>,
    /// Peers with frames staged since the last flush.
    dirty: HashSet<NodeId>,
    /// Protocol timer wheel.
    timers: TimerState,
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
    /// Content-aware inbound fault injection: a frame for which the
    /// filter returns true is counted and discarded before delivery —
    /// the TCP twin of the simulator's `World::set_drop_filter`.
    filter: Option<InboundFilter<M>>,
    /// View changes the node reported, on the runtime clock.
    view_log: Vec<(Instant, u64)>,
    /// Transport counters ([`NodeRuntime::stats`](crate::runtime::NodeRuntime::stats)).
    stats: NetStatsSnapshot,
    /// Batches, and transactions in them, the node reported `Executed`.
    executed: (u64, u64),
    obs: NetObs,
    /// Scratch list of a send's remote `(to, resolved)` destinations,
    /// kept so that staging a send allocates no list of its own.
    remotes: Vec<(NodeId, NodeId)>,
}

/// Work another thread posts to the reactor's mailbox.
enum Command<M, N> {
    /// Send the node on `out`, then block until it comes back on `back`.
    Lend {
        out: SyncSender<N>,
        back: Receiver<N>,
    },
    /// Run a closure on the reactor thread; it answers on a one-shot
    /// channel of its own.
    Call(Job<M, N>),
}

type Job<M, N> = Box<dyn FnOnce(&mut Reactor<M, N>) + Send>;

/// Why a mailbox call found no reactor.
const REACTOR_EXITED: &str =
    "the reactor thread exited (its node or a with_node borrower panicked)";

/// A runtime's handle on its reactor thread, and the only way into it.
pub(crate) struct ReactorThread<M, N> {
    wakeup: Arc<EventFd>,
    mailbox: Sender<Command<M, N>>,
    handle: JoinHandle<()>,
    /// Receives the node once the thread's loop has ended.
    exited: Receiver<N>,
}

impl<M, N> ReactorThread<M, N>
where
    M: NetMsg,
    N: ProtocolNode<M> + Send + 'static,
{
    /// Registers a fresh eventfd and the nonblocking `listener` with a
    /// fresh epoll instance on the caller's thread, so that fd
    /// exhaustion fails the launch rather than leaving a runtime without
    /// a reactor, then spawns the reactor thread hosting `node` as `id`.
    /// The `0` in its name `<node>-reactor0` is kept because
    /// `benchmark/` finds the reactor's CPU time by it.
    pub(crate) fn spawn(
        id: NodeId,
        node: N,
        listener: TcpListener,
        peers: PeerTable,
        clock: Clock,
        auth: FrameAuth,
    ) -> std::io::Result<ReactorThread<M, N>> {
        let wakeup = Arc::new(EventFd::new()?);
        let listen_port = listener.local_addr()?.port();
        let epoll = Epoll::new()?;
        for (fd, token) in [
            (wakeup.raw(), TOKEN_WAKE),
            (listener.as_raw_fd(), TOKEN_LISTEN),
        ] {
            if !epoll.add(fd, token, sys::EPOLLIN) {
                return Err(std::io::Error::last_os_error());
            }
        }
        let (mailbox, commands) = mpsc::channel();
        let reactor = Reactor {
            id,
            clock,
            peers,
            auth,
            listen_port,
            wakeup: Arc::clone(&wakeup),
            node,
            mailbox: commands,
            epoll,
            listener,
            telemetry: None,
            tconns: HashMap::new(),
            conns: HashMap::new(),
            by_peer: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            outq: HashMap::new(),
            dirty: HashSet::new(),
            timers: TimerState::default(),
            reconnect: BinaryHeap::new(),
            next_dial: DIAL_RETRY + 1,
            attempts: HashMap::new(),
            backoff_until: HashMap::new(),
            filter: None,
            view_log: Vec::new(),
            stats: NetStatsSnapshot::default(),
            executed: (0, 0),
            obs: NetObs {
                epoll_wait: Histogram::new(),
                queue_hwm_bytes: 0,
                backpressure_hits: 0,
                reassembly_stalls: 0,
                trace: TraceRing::new(NET_TRACE_CAPACITY),
            },
            remotes: Vec::new(),
        };
        let (exit_tx, exited) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name(format!("{id}-reactor0"))
            .spawn(move || {
                if let Some(node) = reactor.run() {
                    let _ = exit_tx.send(node);
                }
            })?;
        Ok(ReactorThread {
            wakeup,
            mailbox,
            handle,
            exited,
        })
    }

    fn post(&self, command: Command<M, N>) {
        self.mailbox.send(command).expect(REACTOR_EXITED);
        self.wakeup.wake();
    }

    /// Runs `f` on the reactor thread and returns its answer.
    fn call<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Reactor<M, N>) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::sync_channel(1);
        self.post(Command::Call(Box::new(move |reactor| {
            let _ = tx.send(f(reactor));
        })));
        rx.recv().expect(REACTOR_EXITED)
    }

    /// Borrows the node: the reactor sends it here and waits, with
    /// event processing paused, until `f` returns and the node goes
    /// back. If `f` panics the node is lost and the reactor exits.
    pub(crate) fn with_node<R>(&self, f: impl FnOnce(&mut N) -> R) -> R {
        let (out, lent) = mpsc::sync_channel(1);
        let (back, returned) = mpsc::sync_channel(1);
        self.post(Command::Lend {
            out,
            back: returned,
        });
        let mut node = lent.recv().expect(REACTOR_EXITED);
        let answer = f(&mut node);
        let _ = back.send(node);
        answer
    }

    pub(crate) fn set_inbound_filter(&self, filter: Option<InboundFilter<M>>) {
        self.call(move |r| r.filter = filter);
    }

    /// Adopts `listener` into the epoll set and answers its scrapes
    /// with `routes`.
    pub(crate) fn serve_telemetry(
        &self,
        listener: TcpListener,
        routes: TelemetryRoutes<N>,
    ) -> std::io::Result<()> {
        self.call(move |r| {
            if !r
                .epoll
                .add(listener.as_raw_fd(), TOKEN_TELEMETRY, sys::EPOLLIN)
            {
                return Err(std::io::Error::last_os_error());
            }
            r.telemetry = Some((listener, routes));
            Ok(())
        })
    }

    pub(crate) fn stats(&self) -> NetStatsSnapshot {
        self.call(|r| r.stats)
    }

    /// Batches, and transactions in them, the node has executed.
    pub(crate) fn executed(&self) -> (u64, u64) {
        self.call(|r| r.executed)
    }

    pub(crate) fn metrics_json(&self) -> String {
        self.call(|r| r.metrics_json())
    }

    pub(crate) fn net_telemetry(&self) -> NetTelemetry {
        self.call(|r| r.net_telemetry())
    }

    pub(crate) fn view_log(&self) -> Vec<(Instant, u64)> {
        self.call(|r| r.view_log.clone())
    }

    /// Closes the mailbox, wakes the reactor and waits up to `timeout`
    /// for the thread to exit and hand back the node. `None` means it
    /// never acknowledged (a wedged node state machine — reactor I/O
    /// itself never blocks), and the thread is abandoned still holding
    /// the node, or that a `with_node` borrower panicked with it.
    pub(crate) fn stop(self, timeout: std::time::Duration) -> Option<N> {
        drop(self.mailbox);
        self.wakeup.wake();
        let node = self.exited.recv_timeout(timeout).ok()?;
        self.handle.join().ok()?;
        Some(node)
    }
}

impl<M, N> Reactor<M, N>
where
    M: NetMsg,
    N: ProtocolNode<M> + Send + 'static,
{
    /// Runs until the mailbox closes, then returns the node (`None` if
    /// a borrower never gave it back). Dropping the reactor closes
    /// every fd it owned.
    fn run(mut self) -> Option<N> {
        // The hosted node starts on the reactor, exactly as the old
        // event loop started it.
        let now = self.clock.now();
        let actions = self.node.on_start(now);
        let mut pending = VecDeque::new();
        self.apply_actions(actions, &mut pending);
        self.drain_pending(pending);
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            self.fire_due_timers();
            self.process_reconnects();
            // Flush *after* timers so a send produced by a timer
            // callback goes out now, not after the next poll wakeup.
            // Event-driven sends from the previous iteration's handlers
            // are covered too.
            self.flush_dirty_peers();
            let timeout = self.poll_timeout();
            let wait_start = self.clock.now();
            let n = self.epoll.wait(&mut events, timeout);
            // Time actually spent blocked in the kernel: the idle/busy
            // profile of the reactor (near the poll timeout when idle,
            // near zero when saturated).
            let waited = self.clock.now().since(wait_start);
            self.obs.epoll_wait.record(waited.as_nanos());
            for ev in events.iter().take(n) {
                let (token, bits) = (ev.data, ev.events);
                match token {
                    TOKEN_WAKE => {
                        self.wakeup.drain();
                        loop {
                            match self.mailbox.try_recv() {
                                Ok(Command::Call(f)) => f(&mut self),
                                Ok(Command::Lend { out, back }) => {
                                    // A borrower whose closure panicked
                                    // never sends the node back: exit.
                                    self.node = match out.send(self.node) {
                                        Ok(()) => back.recv().ok()?,
                                        Err(SendError(node)) => node,
                                    };
                                }
                                Err(TryRecvError::Empty) => break,
                                Err(TryRecvError::Disconnected) => return Some(self.node),
                            }
                        }
                    }
                    TOKEN_LISTEN => self.accept_ready(),
                    TOKEN_TELEMETRY => self.telemetry_accept(),
                    tok if self.tconns.contains_key(&tok) => self.telemetry_ready(tok, bits),
                    tok => self.conn_ready(tok, bits),
                }
            }
        }
    }

    /// The `epoll_wait` timeout: the earliest of the timer wheel and the
    /// reconnect schedule, capped at the idle poll.
    fn poll_timeout(&self) -> i32 {
        let now = self.clock.now().as_nanos();
        let mut next: u64 = now + IDLE_POLL.as_nanos() as u64;
        if let Some(deadline) = self.timers.next_deadline() {
            next = next.min(deadline);
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
            self.stats.messages_delivered += 1;
            let now = self.clock.now();
            let actions = self.node.on_message(now, from, msg);
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
                Action::Send { to, msg } => {
                    self.enqueue(std::slice::from_ref(&to), msg, pending);
                }
                Action::SendMany { tos, msg } => {
                    let frames = self.enqueue(&tos, msg, pending);
                    if frames > 0 {
                        self.stats.broadcasts += 1;
                        self.stats.encodes_saved += frames - 1;
                    }
                }
                Action::SetTimer { kind, token, after } => {
                    let deadline = self.clock.now().as_nanos() + after.as_nanos();
                    self.timers.arm(kind, token, deadline);
                }
                Action::CancelTimer { kind, token } => self.timers.cancel(kind, token),
                Action::Executed { txns, .. } => {
                    self.executed.0 += 1;
                    self.executed.1 += txns as u64;
                }
                Action::ViewChanged { view } => {
                    self.view_log.push((self.clock.now(), view));
                }
            }
        }
    }

    /// Queues one message for every peer in `tos`, encoding the payload
    /// at most once: every remote destination gets a per-peer frame
    /// prefix over the same shared body bytes. Self-sends loop back;
    /// unknown peers drop, each independently, as the simulator drops
    /// sends to unregistered nodes (a Hello may register one later;
    /// dials re-read the table on every attempt). Returns how many
    /// frames were built over the one encoded body.
    fn enqueue(&mut self, tos: &[NodeId], msg: M, pending: &mut VecDeque<(NodeId, M)>) -> u64 {
        let mut remotes = std::mem::take(&mut self.remotes);
        let mut loopbacks = 0;
        for &to in tos {
            let (resolved, known) = self.peers.route(to);
            if resolved == self.id {
                loopbacks += 1;
            } else if known {
                remotes.push((to, resolved));
            } else {
                self.stats.messages_dropped += 1;
            }
        }
        let mut frames = 0;
        if !remotes.is_empty() {
            match encode_body(self.id, &msg, &msg.trace_context()) {
                Ok(body) => {
                    for &(to, resolved) in &remotes {
                        let prefix = frame_prefix(self.id, to, &body, &self.auth);
                        let body = Arc::clone(&body);
                        self.stage_frame(resolved, EgressFrame { prefix, body });
                    }
                    frames = remotes.len() as u64;
                }
                Err(_) => self.stats.messages_dropped += remotes.len() as u64,
            }
            remotes.clear();
        }
        self.remotes = remotes;
        if loopbacks > 0 {
            for _ in 1..loopbacks {
                pending.push_back((self.id, msg.clone()));
            }
            pending.push_back((self.id, msg));
        }
        frames
    }

    /// Offers one egress frame to `resolved`'s queue and, when accepted,
    /// books the send counters and marks the peer dirty.
    fn stage_frame(&mut self, resolved: NodeId, frame: EgressFrame) {
        let bytes = frame.len() as u64;
        let q = self.outq.entry(resolved).or_default();
        let accepted = q.offer(frame);
        let depth = q.bytes as u64;
        if !accepted {
            self.stats.messages_dropped += 1;
            self.obs.backpressure_hits += 1;
            return;
        }
        self.obs.queue_hwm_bytes = self.obs.queue_hwm_bytes.max(depth);
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes;
        self.dirty.insert(resolved);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn fire_due_timers(&mut self) {
        while let Some((kind, token)) = self.timers.pop_due(self.clock.now().as_nanos()) {
            self.stats.timers_fired += 1;
            let now = self.clock.now();
            let actions = self.node.on_timer(now, kind, token);
            let mut pending = VecDeque::new();
            self.apply_actions(actions, &mut pending);
            self.drain_pending(pending);
        }
    }

    // ------------------------------------------------------------------
    // Outbound: dial, flush, reconnect
    // ------------------------------------------------------------------

    fn flush_dirty_peers(&mut self) {
        let dirty: Vec<NodeId> = self.dirty.drain().collect();
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
        if !self.has_queued(peer) {
            return;
        }
        let now = self.clock.now().as_nanos();
        if self.backoff_until.get(&peer).is_some_and(|u| *u > now) {
            return; // scheduled reconnect will dial
        }
        self.start_connect(peer);
    }

    /// Whether frames for `peer` wait in its outbound queue.
    fn has_queued(&self, peer: NodeId) -> bool {
        self.outq.get(&peer).is_some_and(|q| !q.is_empty())
    }

    /// Flushes (and evicts) `peer`'s outbound queue, counting the
    /// discarded frames undeliverable. Evicting the map entry keeps
    /// `outq` bounded by *live* peers — under client-host churn every
    /// host ever replied to would otherwise leave an empty queue
    /// behind forever.
    fn flush_peer_queue(&mut self, peer: NodeId) {
        let flushed = self.outq.remove(&peer).map_or(0, |q| q.frames.len() as u64);
        self.stats.messages_undeliverable += flushed;
    }

    fn start_connect(&mut self, peer: NodeId) {
        let Some(addr) = self.peers.addr_of(peer) else {
            // The route vanished (it existed at enqueue time): the
            // queued frames can never leave.
            self.flush_peer_queue(peer);
            return;
        };
        let attempt = *self.attempts.get(&peer).unwrap_or(&0);
        if attempt > 0 {
            self.stats.reconnects += 1;
            let now = self.clock.now().as_nanos();
            self.obs.trace.push(
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
                        wbuf: Vec::new(),
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
                let deadline = self.clock.now().as_nanos() + CONNECT_TIMEOUT.as_nanos() as u64;
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
        let deadline = self.clock.now().as_nanos() + delay_ms * 1_000_000;
        self.backoff_until.insert(peer, deadline);
        self.reconnect.push(Reverse((deadline, peer, DIAL_RETRY)));
    }

    fn process_reconnects(&mut self) {
        let now = self.clock.now().as_nanos();
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
            if self.has_queued(peer) {
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
            node: self.id,
            aliases: self.peers.aliases_of(self.id),
            listen_port: self.listen_port,
        };
        let Ok(frame) = encode_hello_frame(&hello, &self.auth, peer) else {
            self.close_conn(tok);
            return;
        };
        if let Some(conn) = self.conns.get_mut(&tok) {
            let _ = conn.stream.set_nodelay(true);
            conn.kind = ConnKind::Outbound {
                peer,
                connected: true,
            };
            // Stage the Hello; the connection reuses the buffer for
            // every subsequent drain.
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
                    let moved = self
                        .outq
                        .get_mut(&peer)
                        .map_or(0, |q| q.drain_into(&mut conn.wbuf));
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
        if let ConnKind::Outbound { peer, .. } = conn.kind {
            self.by_peer.remove(&peer);
            if conn.wframes > 0 {
                self.stats.messages_undeliverable += conn.wframes;
            }
            let queued = self.has_queued(peer);
            if !queued {
                // Evict the drained queue: `outq` stays bounded by peers
                // with live connections or pending traffic, not by every
                // peer ever written to (client hosts churn).
                self.outq.remove(&peer);
            }
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

    /// Accepts and registers every pending connection.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.register_inbound(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return, // transient (EMFILE, aborted handshake)
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
            let (frames, corrupt, peer_ip) = {
                let conn = self.conns.get_mut(&tok).expect("conn exists");
                conn.asm.extend(&buf[..n]);
                let mut frames = Vec::new();
                let mut corrupt = false;
                loop {
                    match conn.asm.next_frame::<M>(&self.auth, self.id) {
                        Ok(Some(f)) => frames.push(f),
                        Ok(None) => break,
                        Err(_) => {
                            corrupt = true;
                            break;
                        }
                    }
                }
                (frames, corrupt, conn.peer_ip)
            };
            let stalled = {
                let conn = self.conns.get(&tok).expect("conn exists");
                conn.asm.buffered() > 0
            };
            if stalled {
                // A partial frame stayed buffered after this read: the
                // frame straddled the read (normal under load) or the
                // peer is trickling bytes.
                self.obs.reassembly_stalls += 1;
            }
            for frame in frames {
                self.handle_frame(peer_ip, frame);
            }
            if corrupt {
                // Forged/corrupted traffic: drop the connection, exactly
                // as the old reader did.
                self.close_conn(tok);
                return;
            }
        }
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
                        NodeId::Client(_) => self.peers.insert(hello.node, addr),
                        NodeId::Replica(_) => self.peers.insert_if_absent(hello.node, addr),
                    }
                    for alias in hello.aliases {
                        self.peers.add_alias(alias, hello.node);
                    }
                }
            }
            Frame::Data(env) => self.deliver_env(env),
        }
    }

    /// Delivers an authenticated envelope to the hosted node, applying
    /// the address check and any installed inbound drop rule.
    fn deliver_env(&mut self, env: Envelope<M>) {
        // Deliver only traffic addressed to (an alias of) us;
        // anything else indicates a stale peer table.
        if self.peers.resolve(env.to) != self.id {
            return;
        }
        if self.filter.as_ref().is_some_and(|f| f(env.from, &env.msg)) {
            self.stats.messages_filtered += 1;
            return;
        }
        self.deliver(env.from, env.msg);
    }

    // ------------------------------------------------------------------
    // Telemetry scrape endpoint
    // ------------------------------------------------------------------

    /// Transport metrics as one stable JSON object: the counters and the
    /// reactor's other instruments.
    fn metrics_json(&self) -> String {
        let c = &self.stats;
        let mut cw = ringbft_obs::json::ObjectWriter::new();
        cw.field_u64("net.broadcasts", c.broadcasts)
            .field_u64("net.bytes_sent", c.bytes_sent)
            .field_u64("net.encodes_saved", c.encodes_saved)
            .field_u64("net.messages_delivered", c.messages_delivered)
            .field_u64("net.messages_dropped", c.messages_dropped)
            .field_u64("net.messages_filtered", c.messages_filtered)
            .field_u64("net.messages_sent", c.messages_sent)
            .field_u64("net.messages_undeliverable", c.messages_undeliverable)
            .field_u64("net.backpressure_hits", self.obs.backpressure_hits)
            .field_u64("net.reassembly_stalls", self.obs.reassembly_stalls)
            .field_u64("net.reconnects", c.reconnects)
            .field_u64("net.timers_fired", c.timers_fired);
        let mut gw = ringbft_obs::json::ObjectWriter::new();
        gw.field_u64("net.peer_queue_hwm_bytes", self.obs.queue_hwm_bytes);
        let mut hw = ringbft_obs::json::ObjectWriter::new();
        hw.field_raw(
            "net.epoll_wait_ns",
            &ringbft_obs::histogram_json(&self.obs.epoll_wait),
        );
        let mut w = ringbft_obs::json::ObjectWriter::new();
        w.field_raw("counters", &cw.finish())
            .field_raw("gauges", &gw.finish())
            .field_raw("histograms", &hw.finish());
        w.finish()
    }

    fn net_telemetry(&self) -> NetTelemetry {
        NetTelemetry {
            id: self.id,
            metrics_json: self.metrics_json(),
            trace_jsonl: self.obs.trace.dump_jsonl(),
        }
    }

    /// Accepts pending scrape connections.
    fn telemetry_accept(&mut self) {
        loop {
            let accepted = match &self.telemetry {
                Some((listener, _)) => listener.accept(),
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

    /// Parses the request line, runs the installed routes, and
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
            let served = match &self.telemetry {
                Some((_, routes)) => routes(&path, &self.node, &self.net_telemetry()),
                None => None,
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
