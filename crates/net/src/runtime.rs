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
//! Per hosted node: **exactly one thread**, the reactor, independent
//! of how many peers or clients are connected. It reads, MAC-checks,
//! decodes and delivers every inbound frame to the node inline. The
//! reactor (`crate::reactor`) multiplexes every socket of the node
//! through one `epoll` instance: nonblocking
//! accept/read/write state machines per connection, per-peer outbound
//! byte queues with backpressure watermarks (when a peer cannot keep
//! up, new frames for it are dropped and counted rather than buffered
//! without bound — BFT retransmission timers provide recovery, the same
//! assumption the paper makes about unreliable channels), and the
//! protocol timer wheel folded into the `epoll_wait` timeout. The
//! reactor owns the hosted node, its transport counters and every other
//! piece of state only it writes; [`NodeRuntime`]'s accessors reach them
//! through its command mailbox. The only state other threads share with
//! it is the routing table ([`PeerTable`]).
//!
//! The previous runtime spawned two OS threads per peer connection plus
//! a timer thread — at the paper's scale (428 nodes, 500 k clients)
//! that thread count is the bottleneck; the reactor keeps the thread
//! count a small constant.
//!
//! Timestamps handed to protocol nodes are nanoseconds since a shared
//! epoch (`Clock`), so all nodes of one process observe one timebase,
//! mirroring `Instant::ZERO` at simulation start.

use crate::codec::FrameAuth;
use crate::reactor::ReactorThread;
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::{Instant, NodeId, Traced};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Marker for messages the runtime can carry: encodable, decodable,
/// carrying their trace context into the frame envelope, and movable
/// across the runtime's threads.
pub trait NetMsg: Serialize + Deserialize + Traced + Clone + Send + 'static {}

impl<T: Serialize + Deserialize + Traced + Clone + Send + 'static> NetMsg for T {}

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

    /// `node` resolved as [`PeerTable::resolve`] does, and whether that
    /// node has an address, as [`PeerTable::addr_of`] would report, under
    /// one read lock.
    pub(crate) fn route(&self, node: NodeId) -> (NodeId, bool) {
        let inner = self.inner.read().expect("peer table");
        let resolved = inner.aliases.get(&node).copied().unwrap_or(node);
        (resolved, inner.addrs.contains_key(&resolved))
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

/// One runtime's transport counters, kept by its reactor and copied
/// out by [`NodeRuntime::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Frames handed to peer queues.
    pub messages_sent: u64,
    /// Encoded bytes handed to peer queues.
    pub bytes_sent: u64,
    /// Frames dropped before enqueue (peer queue over its watermark,
    /// unknown peer, unencodable message).
    pub messages_dropped: u64,
    /// Frames accepted into a peer queue whose delivery then failed
    /// (peer unreachable past the retry budget). `messages_sent`
    /// already counted them, so sent − undeliverable ≈ on the wire.
    pub messages_undeliverable: u64,
    /// Timers fired (uncancelled).
    pub timers_fired: u64,
    /// Frames delivered to the hosted node.
    pub messages_delivered: u64,
    /// Inbound frames suppressed by a fault-injection filter
    /// ([`NodeRuntime::set_inbound_filter`]).
    pub messages_filtered: u64,
    /// Outbound dials beyond a peer's first attempt (reconnects after a
    /// failure or a dead connection).
    pub reconnects: u64,
    /// `SendMany` fan-outs staged (each encoded its payload once).
    pub broadcasts: u64,
    /// Payload serializations avoided by sharing one encoded body
    /// across a broadcast's destinations: a fan-out to `k` remote peers
    /// adds `k − 1`.
    pub encodes_saved: u64,
}

/// A telemetry route table: maps a request path (`"/metrics"`,
/// `"/trace"`) to `(content_type, body)`, or `None` for a 404. The
/// reactor calls it while it serves a scrape, with the hosted node and
/// the runtime's transport instruments.
pub type TelemetryRoutes<N> =
    fn(path: &str, node: &N, net: &NetTelemetry) -> Option<(String, String)>;

/// One runtime's transport instruments, rendered.
#[derive(Debug, Clone)]
pub struct NetTelemetry {
    /// The node id the runtime hosts.
    pub id: NodeId,
    /// [`NodeRuntime::metrics_json`].
    pub metrics_json: String,
    /// The connection-lifecycle event trace (reconnect attempts) as
    /// JSON lines.
    pub trace_jsonl: String,
}

/// How long [`NodeRuntime::shutdown`] waits for the reactor thread to
/// hand back the node before declaring the shutdown unclean.
/// The reactor never blocks (all I/O is nonblocking and every wait has
/// a bounded timeout), so in practice it exits within one poll
/// iteration; the bound guards against a wedged node state machine.
const SHUTDOWN_JOIN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Hosts one protocol node over TCP.
pub struct NodeRuntime<M: NetMsg, N: ProtocolNode<M> + Send + 'static> {
    id: NodeId,
    local_addr: SocketAddr,
    reactor: ReactorThread<M, N>,
}

impl<M, N> NodeRuntime<M, N>
where
    M: NetMsg,
    N: ProtocolNode<M> + Send + 'static,
{
    /// Starts hosting `node` as `id` on `listener`, reaching peers via
    /// `peers`, authenticating every frame with `auth` (all processes of
    /// one cluster must share the authenticator's seed). The listener
    /// must already be bound (bind with port 0 to let the kernel pick,
    /// then collect `local_addr` into the table). Spawns exactly one
    /// thread, the reactor, which verifies frames and runs the node.
    pub fn launch(
        id: NodeId,
        node: N,
        listener: TcpListener,
        peers: PeerTable,
        clock: Clock,
        auth: FrameAuth,
    ) -> std::io::Result<NodeRuntime<M, N>> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let reactor = ReactorThread::spawn(id, node, listener, peers, clock, auth)?;
        Ok(NodeRuntime {
            id,
            local_addr,
            reactor,
        })
    }

    /// The node id this runtime hosts.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lends the hosted node to `f` on the calling thread: the reactor
    /// hands the node over and pauses event processing until `f`
    /// returns it, so keep `f` short. Inside `f`, only `id` and
    /// `local_addr` of this runtime are safe to call: every other method
    /// asks the reactor, which cannot answer while it waits for the
    /// node.
    ///
    /// # Panics
    ///
    /// If the reactor thread has exited: its node panicked, or an
    /// earlier `f` panicked and never gave the node back. This and
    /// every other accessor that asks the reactor panic alike.
    pub fn with_node<R>(&self, f: impl FnOnce(&mut N) -> R) -> R {
        self.reactor.with_node(f)
    }

    /// Installs (or replaces) a content-aware inbound drop rule: every
    /// received frame for which `filter(from, &msg)` returns true is
    /// counted in `messages_filtered` and never delivered to the node.
    /// Pass-through for Hello frames (routing must keep working).
    /// Intended for fault-scenario tests; `clear_inbound_filter`
    /// restores normal delivery. The rule is in force when this
    /// returns.
    pub fn set_inbound_filter(&self, filter: impl Fn(NodeId, &M) -> bool + Send + 'static) {
        self.reactor.set_inbound_filter(Some(Box::new(filter)));
    }

    /// Removes an installed inbound drop rule; normal delivery is back
    /// when this returns.
    pub fn clear_inbound_filter(&self) {
        self.reactor.set_inbound_filter(None);
    }

    /// Snapshot of the transport counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.reactor.stats()
    }

    /// Transport-layer metrics as one stable JSON object: the
    /// [`NetStatsSnapshot`] counters plus reactor instrumentation
    /// (epoll-wait histogram, peer-queue high-water mark, backpressure
    /// hits, frame-reassembly stalls).
    pub fn metrics_json(&self) -> String {
        self.reactor.metrics_json()
    }

    /// [`NodeRuntime::metrics_json`] and the connection-lifecycle event
    /// trace, as telemetry routes receive them.
    pub fn net_telemetry(&self) -> NetTelemetry {
        self.reactor.net_telemetry()
    }

    /// Starts serving a minimal HTTP/1.0 scrape endpoint on `listener`,
    /// directly off the reactor's epoll loop (no extra thread). The
    /// reactor answers each GET with `routes`, called with the path,
    /// the hosted node and [`NodeRuntime::net_telemetry`]; unknown
    /// paths get a 404, non-GET requests a 405. Returns the bound
    /// address once the reactor listens on it.
    pub fn serve_telemetry(
        &self,
        listener: TcpListener,
        routes: TelemetryRoutes<N>,
    ) -> std::io::Result<SocketAddr> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        self.reactor.serve_telemetry(listener, routes)?;
        Ok(addr)
    }

    /// Batches the hosted node has executed.
    pub fn executed_batches(&self) -> u64 {
        self.reactor.executed().0
    }

    /// Transactions in those batches.
    pub fn executed_txns(&self) -> u64 {
        self.reactor.executed().1
    }

    /// Copy of the view-change log.
    pub fn view_log(&self) -> Vec<(Instant, u64)> {
        self.reactor.view_log()
    }

    /// Stops the reactor thread and returns the node it hands back.
    ///
    /// The mailbox is closed and the reactor's eventfd poked, so it
    /// exits on its very next poll return instead of waiting out a
    /// timeout. The wait is bounded (5 s): a reactor that fails to
    /// acknowledge in time (a wedged node state machine — reactor I/O
    /// itself never blocks) is abandoned and `None` is returned rather
    /// than hanging the caller. `None` also means a `with_node`
    /// borrower panicked and the node was lost.
    pub fn shutdown(self) -> Option<N> {
        self.reactor.stop(SHUTDOWN_JOIN_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::ClientId;

    #[test]
    fn route_resolves_aliases_and_reports_addresses_like_addr_of() {
        let peers = PeerTable::new();
        let host = NodeId::Client(ClientId(1_000));
        let client = NodeId::Client(ClientId(7));
        peers.insert(host, "127.0.0.1:4100".parse().unwrap());
        peers.add_alias(client, host);
        assert_eq!(peers.route(client), (host, true));
        assert_eq!(peers.route(host), (host, true));
        assert!(peers.addr_of(client).is_some());

        // An alias whose host has no address yet routes to the host
        // but reports no address, exactly as `addr_of` does.
        let orphan = NodeId::Client(ClientId(8));
        let gone = NodeId::Client(ClientId(2_000));
        peers.add_alias(orphan, gone);
        assert_eq!(peers.route(orphan), (gone, false));
        assert!(peers.addr_of(orphan).is_none());

        let unknown = NodeId::Client(ClientId(9));
        assert_eq!(peers.route(unknown), (unknown, false));
        assert!(peers.addr_of(unknown).is_none());
    }
}
