//! The real-network driver: hosts one sans-io [`ProtocolNode`] on a TCP
//! listener with real clocks, real sockets and real kernels.
//!
//! The runtime is the second implementation of the driver contract the
//! discrete-event simulator defines (`ringbft_types::sansio`): the exact
//! same state machines (`RingReplica`, the PBFT baselines, `SimClient`)
//! run unchanged over loopback or a real WAN.
//!
//! ## Thread model
//!
//! Per hosted node: **exactly one reactor thread**, independent of how
//! many peers or clients are connected, plus the optional verify pool
//! (`pipeline_workers`). The reactor (`crate::reactor`) multiplexes
//! every socket of the node through one `epoll` instance: nonblocking
//! accept/read/write state machines per connection, per-peer outbound
//! byte queues with backpressure watermarks (when a peer cannot keep
//! up, new frames for it are dropped and counted rather than buffered
//! without bound — BFT retransmission timers provide recovery, the same
//! assumption the paper makes about unreliable channels), and the
//! protocol timer wheel folded into the `epoll_wait` timeout. This
//! module holds only what other threads share with it: counters, the
//! verify mailbox, the telemetry hand-over and the stop flag.
//!
//! The previous runtime spawned two OS threads per peer connection plus
//! a timer thread — at the paper's scale (428 nodes, 500 k clients)
//! that thread count is the bottleneck; the reactor keeps the thread
//! count a small constant.
//!
//! Timestamps handed to protocol nodes are nanoseconds since a shared
//! epoch (`Clock`), so all nodes of one process observe one timebase,
//! mirroring `Instant::ZERO` at simulation start.

use crate::codec::{Envelope, FrameAuth};
use crate::pool::WorkerPool;
use crate::reactor::{EventFd, ReactorThread};
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::{Instant, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Marker for messages the runtime can carry: encodable, decodable, and
/// movable across the runtime's threads.
pub trait NetMsg: Serialize + Deserialize + Clone + Send + 'static {}

impl<T: Serialize + Deserialize + Clone + Send + 'static> NetMsg for T {}

/// Shared wall-clock epoch translating real time into the sans-io
/// `Instant` timeline.
#[derive(Debug, Clone)]
pub struct Clock {
    epoch: std::time::Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock {
            epoch: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since the epoch, as the protocol-visible instant.
    pub fn now(&self) -> Instant {
        Instant(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// Routing state: where each peer listens, plus alias routing (many
/// logical client ids hosted by one client-host node, exactly like the
/// simulator's `World::add_alias`).
///
/// Clones share one underlying table, so registering a node after a
/// cluster is up (a client host joining, a replica being replaced) is
/// immediately visible to every runtime holding a clone.
#[derive(Debug, Clone, Default)]
pub struct PeerTable {
    inner: Arc<std::sync::RwLock<PeerTableInner>>,
}

#[derive(Debug, Default)]
struct PeerTableInner {
    addrs: HashMap<NodeId, SocketAddr>,
    aliases: HashMap<NodeId, NodeId>,
}

impl PeerTable {
    /// An empty table.
    pub fn new() -> PeerTable {
        PeerTable::default()
    }

    /// Registers `node` as listening on `addr`.
    pub fn insert(&self, node: NodeId, addr: SocketAddr) {
        self.inner
            .write()
            .expect("peer table")
            .addrs
            .insert(node, addr);
    }

    /// Registers `node` only if it has no address yet. Used for routes
    /// learned from Hello frames: a statically configured address (for
    /// example a replica's public interface from the cluster file) must
    /// never be clobbered by a connection's source IP, which can differ
    /// on multi-homed hosts.
    pub fn insert_if_absent(&self, node: NodeId, addr: SocketAddr) {
        self.inner
            .write()
            .expect("peer table")
            .addrs
            .entry(node)
            .or_insert(addr);
    }

    /// Routes traffic for `alias` to `target`'s listener.
    pub fn add_alias(&self, alias: NodeId, target: NodeId) {
        self.inner
            .write()
            .expect("peer table")
            .aliases
            .insert(alias, target);
    }

    /// Resolves an alias to its hosting node (identity for non-aliases).
    pub fn resolve(&self, node: NodeId) -> NodeId {
        self.inner
            .read()
            .expect("peer table")
            .aliases
            .get(&node)
            .copied()
            .unwrap_or(node)
    }

    /// The listener address of `node` (after alias resolution).
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        let inner = self.inner.read().expect("peer table");
        let resolved = inner.aliases.get(&node).copied().unwrap_or(node);
        inner.addrs.get(&resolved).copied()
    }

    /// Snapshot of all registered `(node, addr)` pairs.
    pub fn entries(&self) -> Vec<(NodeId, SocketAddr)> {
        let inner = self.inner.read().expect("peer table");
        inner.addrs.iter().map(|(n, a)| (*n, *a)).collect()
    }

    /// All aliases currently routing to `target`.
    pub fn aliases_of(&self, target: NodeId) -> Vec<NodeId> {
        let inner = self.inner.read().expect("peer table");
        inner
            .aliases
            .iter()
            .filter(|(_, t)| **t == target)
            .map(|(a, _)| *a)
            .collect()
    }
}

/// Counters mirroring the simulator's `NetStats`, plus the transport-
/// level drop counter of the backpressure boundary.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Frames handed to peer queues.
    pub messages_sent: AtomicU64,
    /// Actual encoded bytes handed to peer queues.
    pub bytes_sent: AtomicU64,
    /// Bytes the simulator's wire model would have charged for the same
    /// messages — kept so simulated and real runs report comparable
    /// bandwidth numbers.
    pub modeled_bytes_sent: AtomicU64,
    /// Frames dropped before enqueue (peer queue over its watermark,
    /// unknown peer, unencodable message).
    pub messages_dropped: AtomicU64,
    /// Frames accepted into a peer queue whose delivery then failed
    /// (peer unreachable past the retry budget). `messages_sent`
    /// already counted them, so sent − undeliverable ≈ on the wire.
    pub messages_undeliverable: AtomicU64,
    /// Timers fired (uncancelled).
    pub timers_fired: AtomicU64,
    /// Frames delivered to the hosted node.
    pub messages_delivered: AtomicU64,
    /// Inbound frames suppressed by a fault-injection filter
    /// ([`NodeRuntime::set_inbound_filter`]).
    pub messages_filtered: AtomicU64,
    /// Outbound dials beyond a peer's first attempt (reconnects after a
    /// failure or a dead connection).
    pub reconnects: AtomicU64,
    /// `SendMany` fan-outs staged (each encoded its payload once).
    pub broadcasts: AtomicU64,
    /// Payload serializations avoided by sharing one encoded body
    /// across a broadcast's destinations: a fan-out to `k` remote peers
    /// adds `k − 1` (the pre-v6 codec paid `k` full encodes).
    pub encodes_saved: AtomicU64,
}

/// A bounded free-list of reusable byte buffers shared by a runtime's
/// reactor and its verify workers: frame-reassembly scratch on the
/// verify-offload read path and per-connection egress staging buffers
/// both cycle through here instead of allocating per frame / per
/// connection.
pub(crate) struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufPool {
    /// Buffers retained at most; excess returns simply drop.
    const MAX_POOLED: usize = 64;
    /// Fresh-buffer capacity on a pool miss (one comfortable frame).
    const MIN_CAPACITY: usize = 4 * 1024;
    /// Buffers that ballooned past this are dropped rather than
    /// retained, so one huge body cannot pin memory forever.
    const MAX_RETAINED_CAPACITY: usize = 1024 * 1024;

    fn new() -> BufPool {
        BufPool {
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty buffer, reused when the free list has one.
    pub(crate) fn take(&self) -> Vec<u8> {
        let pooled = self.free.lock().expect("buf pool").pop();
        match pooled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(Self::MIN_CAPACITY)
            }
        }
    }

    /// Returns a buffer to the free list (cleared; oversized or
    /// capacity-less buffers are dropped).
    pub(crate) fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > Self::MAX_RETAINED_CAPACITY {
            return;
        }
        buf.clear();
        let mut free = self.free.lock().expect("buf pool");
        if free.len() < Self::MAX_POOLED {
            free.push(buf);
        }
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of [`NetCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Frames handed to peer queues.
    pub messages_sent: u64,
    /// Actual encoded bytes handed to peer queues.
    pub bytes_sent: u64,
    /// Wire-model bytes for the same messages.
    pub modeled_bytes_sent: u64,
    /// Frames dropped at the backpressure boundary.
    pub messages_dropped: u64,
    /// Enqueued frames whose delivery failed (peer unreachable).
    pub messages_undeliverable: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Frames delivered to the node.
    pub messages_delivered: u64,
    /// Inbound frames suppressed by a fault-injection filter.
    pub messages_filtered: u64,
    /// Outbound dials beyond a peer's first attempt.
    pub reconnects: u64,
    /// `SendMany` fan-outs staged.
    pub broadcasts: u64,
    /// Payload serializations avoided by serialize-once fan-out.
    pub encodes_saved: u64,
}

/// Reactor-level instruments, read by metrics snapshots on any thread.
///
/// Counters that are touched on every frame stay lock-free atomics; the
/// epoll-wait histogram and the connection trace sit behind mutexes but
/// are only taken once per poll return / per lifecycle event.
pub(crate) struct NetObs {
    /// Nanoseconds spent inside each `epoll_wait` call.
    pub(crate) epoll_wait: Mutex<ringbft_obs::Histogram>,
    /// High-water mark of any single peer queue's buffered bytes.
    pub(crate) queue_hwm_bytes: AtomicU64,
    /// Frames rejected because a peer queue sat at its watermark.
    pub(crate) backpressure_hits: AtomicU64,
    /// Socket reads that ended with a partial frame still buffered in
    /// the reassembler (a frame split across reads — normal under load,
    /// but a sustained climb means undersized reads or a trickling
    /// peer).
    pub(crate) reassembly_stalls: AtomicU64,
    /// Connection-lifecycle trace (reconnect attempts), timestamped on
    /// the runtime clock.
    pub(crate) trace: Mutex<ringbft_obs::TraceRing>,
}

/// Retained connection-lifecycle events per runtime.
const NET_TRACE_CAPACITY: usize = 256;

impl Default for NetObs {
    fn default() -> NetObs {
        NetObs {
            epoll_wait: Mutex::new(ringbft_obs::Histogram::new()),
            queue_hwm_bytes: AtomicU64::new(0),
            backpressure_hits: AtomicU64::new(0),
            reassembly_stalls: AtomicU64::new(0),
            trace: Mutex::new(ringbft_obs::TraceRing::new(NET_TRACE_CAPACITY)),
        }
    }
}

/// A telemetry route handler: maps a request path (`"/metrics"`,
/// `"/trace"`) to `(content_type, body)`, or `None` for a 404.
///
/// Called from the reactor thread while it serves a scrape request, so it
/// must not block for long; locking the hosted node briefly (via
/// [`TelemetryHandle::with_node`]) is fine — the reactor never invokes
/// it while holding the node lock.
pub type TelemetryHandler = Box<dyn Fn(&str) -> Option<(String, String)> + Send>;

/// Telemetry endpoint state: a listener waiting for the reactor to adopt
/// it into its epoll set, and the installed route handler.
pub(crate) struct TelemetryState {
    pub(crate) pending_listener: Option<TcpListener>,
    pub(crate) handler: Option<TelemetryHandler>,
}

/// A frame that went through the off-thread verify stage.
pub(crate) enum VerifiedFrame<M> {
    /// Authenticated and decoded: deliver it to the hosted node.
    Ok { env: Envelope<M> },
    /// The MAC or decode failed: the connection is unrecoverable and
    /// the reactor must drop it (stale tokens are tolerated —
    /// the connection may already be gone by the time this lands).
    Corrupt { token: u64 },
}

/// The inbound verify/hash pipeline stage (`pipeline_workers > 0`).
///
/// The reactor extracts header-validated [`RawFrame`]s and pins them
/// to a worker by connection token (per-connection FIFO order); the
/// worker runs the HMAC check and body decode, deposits the verdict in
/// the mailbox, and wakes the reactor's eventfd — the same wake path
/// every other cross-thread event uses. The hosted node
/// itself never sees a frame that has not been authenticated, exactly
/// as on the inline path.
///
/// [`RawFrame`]: crate::codec::RawFrame
pub(crate) struct VerifyStage<M> {
    /// The `pipeline_workers` verify threads.
    pub(crate) pool: Arc<WorkerPool>,
    /// Verify verdicts awaiting the reactor.
    pub(crate) inbox: Mutex<VecDeque<VerifiedFrame<M>>>,
    /// Frames submitted to the pool but not yet verified.
    pub(crate) queue_depth: AtomicU64,
    /// Frames verified off-thread.
    pub(crate) offloaded: AtomicU64,
    /// Frames verified on a reactor thread (Hellos, which must not lag
    /// the routing table behind the verify queue).
    pub(crate) inline: AtomicU64,
}

/// State shared between the public [`NodeRuntime`] handle, its reactor
/// thread and its verify workers.
pub(crate) struct Shared<M> {
    pub(crate) id: NodeId,
    pub(crate) clock: Clock,
    pub(crate) peers: PeerTable,
    /// Channel authenticator: every frame sent carries a pairwise HMAC,
    /// every frame received is verified before delivery (§3).
    pub(crate) auth: FrameAuth,
    /// Port our own listener accepts on (advertised in Hello frames).
    pub(crate) listen_port: u16,
    pub(crate) counters: NetCounters,
    pub(crate) obs: NetObs,
    pub(crate) stop: AtomicBool,
    /// The reactor's eventfd (verified frames, a telemetry listener to
    /// adopt, shutdown poison).
    pub(crate) wakeup: EventFd,
    /// Batches and transactions the hosted node reported `Executed`.
    pub(crate) executed_batches: AtomicU64,
    pub(crate) executed_txns: AtomicU64,
    pub(crate) view_log: Mutex<Vec<(Instant, u64)>>,
    /// Content-aware inbound fault injection: a frame for which the
    /// filter returns true is counted and discarded before delivery —
    /// the TCP twin of the simulator's `World::set_drop_filter`, used by
    /// fault-scenario tests to suppress targeted traffic (e.g. every
    /// Commit for one sequence) on a real-socket cluster.
    /// `inbound_filter_armed` is the hot-path guard: production runs
    /// never install a filter, and readers must not pay a shared mutex
    /// per frame for a test-only feature.
    #[allow(clippy::type_complexity)]
    pub(crate) inbound_filter: Mutex<Option<Box<dyn Fn(NodeId, &M) -> bool + Send>>>,
    pub(crate) inbound_filter_armed: AtomicBool,
    /// Live-scrape endpoint ([`NodeRuntime::serve_telemetry`]): the
    /// HTTP/1.0 listener the reactor serves, plus its route handler.
    /// `telemetry_armed` lets the reactor skip the mutex on every loop
    /// iteration until an endpoint is installed.
    pub(crate) telemetry: Mutex<TelemetryState>,
    pub(crate) telemetry_armed: AtomicBool,
    /// The verify/hash offload stage, when `pipeline_workers > 0`.
    pub(crate) verify: Option<VerifyStage<M>>,
    /// Reusable buffers for frame reassembly and egress staging.
    pub(crate) bufs: BufPool,
}

impl<M> Shared<M> {
    /// Snapshot of the transport counters.
    pub(crate) fn stats_snapshot(&self) -> NetStatsSnapshot {
        let c = &self.counters;
        NetStatsSnapshot {
            messages_sent: c.messages_sent.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            modeled_bytes_sent: c.modeled_bytes_sent.load(Ordering::Relaxed),
            messages_dropped: c.messages_dropped.load(Ordering::Relaxed),
            messages_undeliverable: c.messages_undeliverable.load(Ordering::Relaxed),
            timers_fired: c.timers_fired.load(Ordering::Relaxed),
            messages_delivered: c.messages_delivered.load(Ordering::Relaxed),
            messages_filtered: c.messages_filtered.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            broadcasts: c.broadcasts.load(Ordering::Relaxed),
            encodes_saved: c.encodes_saved.load(Ordering::Relaxed),
        }
    }

    /// Transport metrics as one stable JSON object (shared between the
    /// exit snapshot and the live scrape endpoint, so both report the
    /// exact same instruments).
    pub(crate) fn metrics_json(&self) -> String {
        let c = self.stats_snapshot();
        let mut cw = ringbft_obs::json::ObjectWriter::new();
        cw.field_u64("net.broadcasts", c.broadcasts)
            .field_u64("net.bytes_sent", c.bytes_sent)
            .field_u64("net.egress_pool_hits", self.bufs.hits())
            .field_u64("net.egress_pool_misses", self.bufs.misses())
            .field_u64("net.encodes_saved", c.encodes_saved)
            .field_u64("net.messages_delivered", c.messages_delivered)
            .field_u64("net.messages_dropped", c.messages_dropped)
            .field_u64("net.messages_filtered", c.messages_filtered)
            .field_u64("net.messages_sent", c.messages_sent)
            .field_u64("net.messages_undeliverable", c.messages_undeliverable)
            .field_u64("net.modeled_bytes_sent", c.modeled_bytes_sent)
            .field_u64(
                "net.backpressure_hits",
                self.obs.backpressure_hits.load(Ordering::Relaxed),
            )
            .field_u64(
                "net.reassembly_stalls",
                self.obs.reassembly_stalls.load(Ordering::Relaxed),
            )
            .field_u64("net.reconnects", c.reconnects)
            .field_u64("net.timers_fired", c.timers_fired);
        let (v_off, v_inline, v_depth) = match &self.verify {
            Some(v) => (
                v.offloaded.load(Ordering::Relaxed),
                v.inline.load(Ordering::Relaxed),
                v.queue_depth.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0),
        };
        let pool_stats = self.verify.as_ref().map(|v| v.pool.stats());
        cw.field_u64("pipeline.verify_inline", v_inline)
            .field_u64("pipeline.verify_offloaded", v_off)
            .field_u64(
                "pipeline.worker_busy_ns",
                pool_stats.as_ref().map_or(0, |s| s.busy_ns),
            )
            .field_u64(
                "pipeline.worker_idle_ns",
                pool_stats.as_ref().map_or(0, |s| s.idle_ns),
            )
            .field_u64(
                "pipeline.worker_tasks",
                pool_stats.as_ref().map_or(0, |s| s.tasks),
            );
        let mut gw = ringbft_obs::json::ObjectWriter::new();
        gw.field_u64(
            "net.peer_queue_hwm_bytes",
            self.obs.queue_hwm_bytes.load(Ordering::Relaxed),
        )
        .field_u64("pipeline.verify_queue_depth", v_depth)
        .field_u64(
            "pipeline.workers",
            self.verify.as_ref().map_or(0, |v| v.pool.workers()) as u64,
        );
        let mut hw = ringbft_obs::json::ObjectWriter::new();
        {
            let h = self.obs.epoll_wait.lock().expect("epoll hist");
            hw.field_raw("net.epoll_wait_ns", &ringbft_obs::histogram_json(&h));
        }
        let mut w = ringbft_obs::json::ObjectWriter::new();
        w.field_raw("counters", &cw.finish())
            .field_raw("gauges", &gw.finish())
            .field_raw("histograms", &hw.finish());
        w.finish()
    }

    /// The connection-lifecycle event trace as JSON lines.
    pub(crate) fn trace_jsonl(&self) -> String {
        self.obs.trace.lock().expect("net trace").dump_jsonl()
    }
}

/// A weak handle for telemetry route handlers: grants a scrape request
/// access to the transport instruments and the hosted node without
/// keeping either alive — once the runtime shuts down, every accessor
/// returns `None`, so an installed handler can never block the node
/// from being handed back by [`NodeRuntime::shutdown`].
pub struct TelemetryHandle<M, N> {
    id: NodeId,
    shared: Weak<Shared<M>>,
    node: Weak<Mutex<N>>,
}

impl<M, N> Clone for TelemetryHandle<M, N> {
    fn clone(&self) -> Self {
        TelemetryHandle {
            id: self.id,
            shared: self.shared.clone(),
            node: self.node.clone(),
        }
    }
}

impl<M, N> TelemetryHandle<M, N> {
    /// The node id the runtime hosts.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The transport metrics JSON ([`NodeRuntime::metrics_json`]), or
    /// `None` after the runtime shut down.
    pub fn net_metrics_json(&self) -> Option<String> {
        Some(self.shared.upgrade()?.metrics_json())
    }

    /// The connection-lifecycle trace as JSON lines, or `None` after
    /// the runtime shut down.
    pub fn net_trace_jsonl(&self) -> Option<String> {
        Some(self.shared.upgrade()?.trace_jsonl())
    }

    /// Runs `f` with exclusive access to the hosted node (pauses event
    /// processing — keep it short), or `None` after shutdown.
    pub fn with_node<R>(&self, f: impl FnOnce(&mut N) -> R) -> Option<R> {
        let node = self.node.upgrade()?;
        let mut n = node.lock().expect("node lock");
        Some(f(&mut n))
    }
}

/// How long [`NodeRuntime::shutdown`] waits for the reactor thread to
/// acknowledge the stop flag before declaring the shutdown unclean.
/// The reactor never blocks (all I/O is nonblocking and every wait has
/// a bounded timeout), so in practice it exits within one poll
/// iteration; the bound guards against a wedged node state machine.
const SHUTDOWN_JOIN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Hosts one protocol node over TCP.
pub struct NodeRuntime<M: NetMsg, N: ProtocolNode<M> + Send + 'static> {
    shared: Arc<Shared<M>>,
    node: Arc<Mutex<N>>,
    local_addr: SocketAddr,
    reactor: ReactorThread,
}

impl<M, N> NodeRuntime<M, N>
where
    M: NetMsg + ringbft_simnet::SimMessage,
    N: ProtocolNode<M> + Send + 'static,
{
    /// Starts hosting `node` as `id` on `listener`, reaching peers via
    /// `peers`, authenticating every frame with `auth` (all processes of
    /// one cluster must share the authenticator's seed). The listener
    /// must already be bound (bind with port 0 to let the kernel pick,
    /// then collect `local_addr` into the table). Spawns exactly one
    /// reactor thread and verifies frames on it; see
    /// [`NodeRuntime::launch_with_pipeline`] for a verify pool.
    pub fn launch(
        id: NodeId,
        node: N,
        listener: TcpListener,
        peers: PeerTable,
        clock: Clock,
        auth: FrameAuth,
    ) -> std::io::Result<NodeRuntime<M, N>> {
        Self::launch_with_pipeline(id, node, listener, peers, clock, auth, 0)
    }

    /// Like [`NodeRuntime::launch`], but also runs a
    /// `pipeline_workers`-thread worker pool hosting the verify/hash
    /// stage: inbound frame MAC checks and body decodes run off the
    /// reactor thread, pinned per connection so frame order is
    /// preserved, feeding verified messages back through the reactor's
    /// eventfd wake path. The hosted node itself runs on the reactor
    /// thread, so the per-node thread budget is exactly
    /// `1 + pipeline_workers`, fixed at launch and independent of how
    /// many peers or clients connect. `pipeline_workers = 0` verifies
    /// inline.
    pub fn launch_with_pipeline(
        id: NodeId,
        node: N,
        listener: TcpListener,
        peers: PeerTable,
        clock: Clock,
        auth: FrameAuth,
        pipeline_workers: usize,
    ) -> std::io::Result<NodeRuntime<M, N>> {
        let verify = (pipeline_workers > 0).then(|| VerifyStage {
            pool: Arc::new(WorkerPool::new(&format!("{id}-pipe"), pipeline_workers)),
            inbox: Mutex::new(VecDeque::new()),
            queue_depth: AtomicU64::new(0),
            offloaded: AtomicU64::new(0),
            inline: AtomicU64::new(0),
        });
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            id,
            clock,
            peers,
            auth,
            listen_port: local_addr.port(),
            counters: NetCounters::default(),
            obs: NetObs::default(),
            stop: AtomicBool::new(false),
            wakeup: EventFd::new()?,
            executed_batches: AtomicU64::new(0),
            executed_txns: AtomicU64::new(0),
            view_log: Mutex::new(Vec::new()),
            inbound_filter: Mutex::new(None),
            inbound_filter_armed: AtomicBool::new(false),
            telemetry: Mutex::new(TelemetryState {
                pending_listener: None,
                handler: None,
            }),
            telemetry_armed: AtomicBool::new(false),
            verify,
            bufs: BufPool::new(),
        });
        let node = Arc::new(Mutex::new(node));
        let reactor = ReactorThread::spawn(Arc::clone(&shared), Arc::clone(&node), listener)?;
        Ok(NodeRuntime {
            shared,
            node,
            local_addr,
            reactor,
        })
    }

    /// The node id this runtime hosts.
    pub fn id(&self) -> NodeId {
        self.shared.id
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The number of pipeline worker threads (0 when the runtime was
    /// launched without an offload stage).
    pub fn pipeline_workers(&self) -> usize {
        self.shared.verify.as_ref().map_or(0, |v| v.pool.workers())
    }

    /// `(offloaded, inline)` frame-verification counts: how many
    /// inbound data frames were MAC-checked on the worker pool versus
    /// decoded inline on the reactor thread (Hello frames and the
    /// zero-worker path). Both zero without an offload stage.
    pub fn verify_stats(&self) -> (u64, u64) {
        match &self.shared.verify {
            Some(v) => (
                v.offloaded.load(Ordering::Relaxed),
                v.inline.load(Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    /// Runs `f` with exclusive access to the hosted node (pauses event
    /// processing for the duration — keep it short).
    pub fn with_node<R>(&self, f: impl FnOnce(&mut N) -> R) -> R {
        f(&mut self.node.lock().expect("node lock"))
    }

    /// Installs (or replaces) a content-aware inbound drop rule: every
    /// received frame for which `filter(from, &msg)` returns true is
    /// counted in `messages_filtered` and never delivered to the node.
    /// Pass-through for Hello frames (routing must keep working).
    /// Intended for fault-scenario tests; `clear_inbound_filter`
    /// restores normal delivery.
    pub fn set_inbound_filter(&self, filter: impl Fn(NodeId, &M) -> bool + Send + 'static) {
        *self.shared.inbound_filter.lock().expect("filter lock") = Some(Box::new(filter));
        self.shared
            .inbound_filter_armed
            .store(true, Ordering::Release);
    }

    /// Removes an installed inbound drop rule.
    pub fn clear_inbound_filter(&self) {
        self.shared
            .inbound_filter_armed
            .store(false, Ordering::Release);
        *self.shared.inbound_filter.lock().expect("filter lock") = None;
    }

    /// Snapshot of the transport counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Transport-layer metrics as one stable JSON object: the
    /// [`NetCounters`] plus reactor instrumentation (epoll-wait
    /// histogram, peer-queue high-water mark, backpressure hits,
    /// frame-reassembly stalls).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// The connection-lifecycle event trace as JSON lines.
    pub fn trace_jsonl(&self) -> String {
        self.shared.trace_jsonl()
    }

    /// A weak telemetry handle for building scrape-route handlers; see
    /// [`TelemetryHandle`].
    pub fn telemetry_handle(&self) -> TelemetryHandle<M, N> {
        TelemetryHandle {
            id: self.shared.id,
            shared: Arc::downgrade(&self.shared),
            node: Arc::downgrade(&self.node),
        }
    }

    /// Starts serving a minimal HTTP/1.0 scrape endpoint on `listener`,
    /// directly off the reactor's epoll loop (no extra thread).
    /// `handler` maps a request path to `(content_type, body)`; unknown
    /// paths get a 404, non-GET requests a 405. Returns the bound
    /// address. Build the handler from [`NodeRuntime::telemetry_handle`]
    /// so it does not keep the runtime alive.
    pub fn serve_telemetry(
        &self,
        listener: TcpListener,
        handler: impl Fn(&str) -> Option<(String, String)> + Send + 'static,
    ) -> std::io::Result<SocketAddr> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        {
            let mut t = self.shared.telemetry.lock().expect("telemetry lock");
            t.pending_listener = Some(listener);
            t.handler = Some(Box::new(handler));
        }
        self.shared.telemetry_armed.store(true, Ordering::Release);
        // The reactor adopts the listener on its next loop iteration.
        self.shared.wakeup.wake();
        Ok(addr)
    }

    /// Batches the hosted node has executed.
    pub fn executed_batches(&self) -> u64 {
        self.shared.executed_batches.load(Ordering::Relaxed)
    }

    /// Transactions in those batches.
    pub fn executed_txns(&self) -> u64 {
        self.shared.executed_txns.load(Ordering::Relaxed)
    }

    /// Copy of the view-change log.
    pub fn view_log(&self) -> Vec<(Instant, u64)> {
        self.shared.view_log.lock().expect("view log").clone()
    }

    /// Stops the reactor thread and tears the node down, returning it.
    ///
    /// Fast path: the stop flag is set and the reactor's eventfd is
    /// poisoned, so it observes the flag on its very next poll return
    /// instead of waiting out a timeout. The join is bounded (5 s): a
    /// reactor that fails to acknowledge in time (a wedged node state
    /// machine — reactor I/O itself never blocks) is abandoned and
    /// `None` is returned rather than hanging the caller, the failure
    /// mode the old runtime had when a writer thread wedged mid-`write`.
    pub fn shutdown(self) -> Option<N>
    where
        N: Send,
    {
        if !self.reactor.stop(&self.shared, SHUTDOWN_JOIN_TIMEOUT) {
            // The abandoned reactor still holds the node.
            return None;
        }
        match Arc::try_unwrap(self.node) {
            Ok(m) => m.into_inner().ok(),
            Err(_) => None,
        }
    }
}
