//! The simulation driver: owns nodes, the event queue, the network model,
//! timers, and fault injection.
//!
//! [`World`] is generic over the protocol's message type `M` and node type
//! `N`; protocols stay sans-io, and the entire run is a deterministic
//! function of `(topology, fault plan, nodes, seed)`.
//!
//! Two resources are modelled per node:
//!
//! * **Egress serialization** — a node's NIC transmits one message at a
//!   time; transmission delay is `bytes / bandwidth(link)`. Quadratic
//!   protocols saturate sender NICs exactly as on the paper's testbed.
//! * **CPU** — each delivered message occupies the receiving node for its
//!   [`SimMessage::cpu_cost`], so a node saturates when offered more work
//!   than it can process, reproducing the saturation knees of Fig 8.

use crate::faults::FaultPlan;
use crate::queue::EventQueue;
use crate::topology::Topology;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ringbft_types::{Action, Duration, Instant, NodeId, Region, TimerKind};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Messages carried by the simulator must report their wire size (for the
/// bandwidth model) and the CPU time their processing costs the receiver.
pub trait SimMessage: Clone {
    /// Serialized size in bytes (drives transmission delay).
    fn wire_bytes(&self) -> u64;

    /// CPU time the receiver spends handling the message (verification,
    /// state transitions). Default: 5 µs.
    fn cpu_cost(&self) -> Duration {
        Duration::from_micros(5)
    }
}

/// A sans-io protocol node drivable by the [`World`].
///
/// This is the workspace-wide driver contract from
/// [`ringbft_types::sansio::ProtocolNode`]; the simulator and the
/// real-network runtime (`ringbft-net`) host the exact same nodes.
pub use ringbft_types::sansio::ProtocolNode as SimNode;

/// A content-aware message drop predicate: `(now, from, to, &msg)`.
pub type DropFilter<M> = Box<dyn Fn(Instant, NodeId, NodeId, &M) -> bool>;

/// Record of an `Executed` action (throughput accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// When the batch executed.
    pub at: Instant,
    /// Executing node.
    pub node: NodeId,
    /// Shard-local sequence number.
    pub seq: u64,
    /// Transactions in the batch.
    pub txns: u32,
}

/// Record of a `ViewChanged` action (Fig 9 tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewRecord {
    /// When the node entered the view.
    pub at: Instant,
    /// The node.
    pub node: NodeId,
    /// New view number.
    pub view: u64,
}

/// Aggregate network statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages sent (after drop filtering).
    pub messages_sent: u64,
    /// Bytes sent (after drop filtering).
    pub bytes_sent: u64,
    /// Messages dropped by fault injection.
    pub messages_dropped: u64,
    /// Timers fired (uncancelled).
    pub timers_fired: u64,
    /// Events processed in total.
    pub events_processed: u64,
}

enum Event<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    TimerFired {
        node: NodeId,
        kind: TimerKind,
        token: u64,
        gen: u64,
    },
    Crash {
        node: NodeId,
    },
    Restart {
        node: NodeId,
    },
    /// A scheduled in-place node mutation (fault injection that needs
    /// access to live node state, e.g. corrupting one replica's store).
    Mutate {
        node: NodeId,
    },
}

/// A replacement queued for a scheduled restart: built eagerly at
/// schedule time, or lazily when the restart fires — the factory then
/// observes state the crash itself produced (e.g. the surviving
/// contents of a durable log).
enum Replacement<N> {
    Ready(N),
    Lazy(Box<dyn FnOnce() -> N>),
}

struct Slot<N> {
    node: N,
    region: Region,
    egress_free: Instant,
    busy_until: Instant,
    crashed: bool,
}

/// Queued in-place node mutations for one node, applied front-first.
type MutationQueue<N> = std::collections::VecDeque<Box<dyn FnOnce(&mut N)>>;

/// The deterministic discrete-event world.
pub struct World<M: SimMessage, N: SimNode<M>> {
    topology: Topology,
    faults: FaultPlan,
    queue: EventQueue<Event<M>>,
    slots: BTreeMap<NodeId, Slot<N>>,
    /// Alias routing: messages addressed to an alias are delivered to its
    /// target node (used to host many logical clients on one node).
    aliases: HashMap<NodeId, NodeId>,
    /// Replacement nodes for scheduled restarts, popped front-first when
    /// the matching `Restart` event fires.
    pending_restarts: HashMap<NodeId, std::collections::VecDeque<Replacement<N>>>,
    /// In-place mutations for scheduled `Mutate` events, popped
    /// front-first.
    pending_mutations: HashMap<NodeId, MutationQueue<N>>,
    timers: HashMap<(NodeId, TimerKind, u64), u64>,
    timer_gen: u64,
    now: Instant,
    rng: ChaCha12Rng,
    /// Content-aware drop rule: unlike [`FaultPlan`]'s link-level rules,
    /// this one sees the message payload, enabling *targeted* fault
    /// scenarios ("drop every Commit for sequence k addressed to
    /// replica r"). Deterministic — a matching message is always
    /// dropped, never coin-flipped.
    drop_filter: Option<DropFilter<M>>,
    /// Multiplicative latency jitter range `[1, 1 + jitter_frac]`.
    jitter_frac: f64,
    /// Executed-batch log (drained by the harness).
    pub exec_log: Vec<ExecRecord>,
    /// View-change log.
    pub view_log: Vec<ViewRecord>,
    /// Network statistics.
    pub stats: NetStats,
}

impl<M: SimMessage, N: SimNode<M>> World<M, N> {
    /// Creates a world with the given topology, fault plan and RNG seed.
    pub fn new(topology: Topology, faults: FaultPlan, seed: u64) -> Self {
        World {
            topology,
            faults,
            queue: EventQueue::new(),
            slots: BTreeMap::new(),
            aliases: HashMap::new(),
            pending_restarts: HashMap::new(),
            pending_mutations: HashMap::new(),
            timers: HashMap::new(),
            timer_gen: 0,
            now: Instant::ZERO,
            rng: ChaCha12Rng::seed_from_u64(seed),
            drop_filter: None,
            jitter_frac: 0.05,
            exec_log: Vec::new(),
            view_log: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Sets the latency jitter fraction (0 disables jitter).
    pub fn set_jitter(&mut self, frac: f64) {
        assert!(frac >= 0.0);
        self.jitter_frac = frac;
    }

    /// Installs a content-aware drop rule: every message for which
    /// `filter(now, from, to, &msg)` returns true is dropped (and
    /// counted in [`NetStats::messages_dropped`]). Complements the
    /// [`FaultPlan`]'s link-level rules with payload-targeted faults —
    /// e.g. suppressing one replica's Commit quorum for a single
    /// sequence number to force a commit hole.
    pub fn set_drop_filter(
        &mut self,
        filter: impl Fn(Instant, NodeId, NodeId, &M) -> bool + 'static,
    ) {
        self.drop_filter = Some(Box::new(filter));
    }

    /// Registers a node placed in `region`. Panics on duplicate ids.
    pub fn add_node(&mut self, id: NodeId, region: Region, node: N) {
        let prev = self.slots.insert(
            id,
            Slot {
                node,
                region,
                egress_free: Instant::ZERO,
                busy_until: Instant::ZERO,
                crashed: false,
            },
        );
        assert!(prev.is_none(), "duplicate node {id}");
    }

    /// Registers `alias` as an alternate address of `target`: deliveries
    /// to the alias reach the target node. The target must already be
    /// registered.
    pub fn add_alias(&mut self, alias: NodeId, target: NodeId) {
        assert!(
            self.slots.contains_key(&target),
            "alias target {target} missing"
        );
        assert!(
            !self.slots.contains_key(&alias),
            "alias {alias} clashes with a node"
        );
        self.aliases.insert(alias, target);
    }

    #[inline]
    fn resolve(&self, id: NodeId) -> NodeId {
        self.aliases.get(&id).copied().unwrap_or(id)
    }

    /// Schedules a restart of `node` at `at` with the given replacement
    /// state — a *blank* restart when `replacement` is a fresh node: the
    /// crashed incarnation's state, timers and in-flight deliveries are
    /// discarded, and the replacement's `on_start` runs at `at`. Used to
    /// drive the paper's A3 recovery path (a replica rejoining a live
    /// cluster with empty state).
    pub fn schedule_restart(&mut self, at: Instant, node: NodeId, replacement: N) {
        assert!(self.slots.contains_key(&node), "restart of unknown {node}");
        self.pending_restarts
            .entry(node)
            .or_default()
            .push_back(Replacement::Ready(replacement));
        self.queue.push(at, Event::Restart { node });
    }

    /// Like [`World::schedule_restart`], but the replacement is built
    /// by `factory` only when the restart fires — a *durable* restart:
    /// the factory observes whatever the crashed incarnation left
    /// behind (e.g. a shared write-ahead log handle) instead of the
    /// state known at schedule time.
    pub fn schedule_restart_with(
        &mut self,
        at: Instant,
        node: NodeId,
        factory: Box<dyn FnOnce() -> N>,
    ) {
        assert!(self.slots.contains_key(&node), "restart of unknown {node}");
        self.pending_restarts
            .entry(node)
            .or_default()
            .push_back(Replacement::Lazy(factory));
        self.queue.push(at, Event::Restart { node });
    }

    /// Schedules an in-place mutation of `node`'s live state at `at` —
    /// targeted fault injection (e.g. flipping a value in one replica's
    /// store to model a corrupt executor). No-op if the node is crashed
    /// when the event fires.
    pub fn schedule_mutation(&mut self, at: Instant, node: NodeId, f: Box<dyn FnOnce(&mut N)>) {
        assert!(self.slots.contains_key(&node), "mutation of unknown {node}");
        self.pending_mutations.entry(node).or_default().push_back(f);
        self.queue.push(at, Event::Mutate { node });
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Immutable access to a node (post-run inspection).
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.slots.get(&id).map(|s| &s.node)
    }

    /// Iterates all `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.slots.iter().map(|(id, s)| (*id, &s.node))
    }

    /// Starts the simulation: schedules crashes and fires `on_start` for
    /// every node (in deterministic id order).
    pub fn start(&mut self) {
        for (at, node) in self.faults.crashes.clone() {
            self.queue.push(at, Event::Crash { node });
        }
        let ids: Vec<NodeId> = self.slots.keys().copied().collect();
        for id in ids {
            let actions = self
                .slots
                .get_mut(&id)
                .expect("registered node")
                .node
                .on_start(Instant::ZERO);
            self.apply_actions(id, Instant::ZERO, actions);
        }
    }

    /// Runs events until the queue drains or simulated time passes
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Instant) -> u64 {
        let mut processed = 0u64;
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event");
            self.now = at;
            processed += 1;
            self.stats.events_processed += 1;
            self.dispatch(at, event);
        }
        self.now = self.now.max(deadline);
        processed
    }

    fn dispatch(&mut self, at: Instant, event: Event<M>) {
        match event {
            Event::Deliver { from, to, msg } => {
                let Some(slot) = self.slots.get_mut(&to) else {
                    return;
                };
                if slot.crashed {
                    return;
                }
                // CPU model: one core per node processes deliveries in
                // arrival order, each for its message's `cpu_cost`.
                let total = msg.cpu_cost();
                let finish = at.max(slot.busy_until) + total;
                slot.busy_until = finish;
                let actions = slot.node.on_message(finish, from, msg);
                self.apply_actions(to, finish, actions);
            }
            Event::TimerFired {
                node,
                kind,
                token,
                gen,
            } => {
                if self.timers.get(&(node, kind, token)) != Some(&gen) {
                    return; // cancelled or re-armed
                }
                self.timers.remove(&(node, kind, token));
                let Some(slot) = self.slots.get_mut(&node) else {
                    return;
                };
                if slot.crashed {
                    return;
                }
                self.stats.timers_fired += 1;
                let start = at.max(slot.busy_until);
                let finish = start + Duration::from_micros(1);
                slot.busy_until = finish;
                let actions = slot.node.on_timer(finish, kind, token);
                self.apply_actions(node, finish, actions);
            }
            Event::Crash { node } => {
                if let Some(slot) = self.slots.get_mut(&node) {
                    slot.crashed = true;
                }
            }
            Event::Mutate { node } => {
                let Some(f) = self
                    .pending_mutations
                    .get_mut(&node)
                    .and_then(|q| q.pop_front())
                else {
                    return;
                };
                if let Some(slot) = self.slots.get_mut(&node) {
                    if !slot.crashed {
                        f(&mut slot.node);
                    }
                }
            }
            Event::Restart { node } => {
                let Some(replacement) = self
                    .pending_restarts
                    .get_mut(&node)
                    .and_then(|q| q.pop_front())
                else {
                    return;
                };
                let replacement = match replacement {
                    Replacement::Ready(n) => n,
                    Replacement::Lazy(f) => f(),
                };
                let Some(slot) = self.slots.get_mut(&node) else {
                    return;
                };
                // The old incarnation's timers must never fire into the
                // new one.
                self.timers.retain(|(n, _, _), _| *n != node);
                slot.node = replacement;
                slot.crashed = false;
                slot.busy_until = at;
                slot.egress_free = at;
                let actions = slot.node.on_start(at);
                self.apply_actions(node, at, actions);
            }
        }
    }

    fn apply_actions(&mut self, from: NodeId, now: Instant, actions: Vec<Action<M>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.send(from, to, now, msg),
                // A broadcast expands into per-link sends in destination
                // order, exactly as the pre-SendMany world generated them —
                // fault-matrix runs stay byte-identical. The serialize-once
                // win is the real runtime's; the simulator still charges
                // every link its full egress bytes.
                Action::SendMany { tos, msg } => {
                    for to in tos {
                        self.send(from, to, now, msg.clone());
                    }
                }
                Action::SetTimer { kind, token, after } => {
                    self.timer_gen += 1;
                    let gen = self.timer_gen;
                    self.timers.insert((from, kind, token), gen);
                    self.queue.push(
                        now + after,
                        Event::TimerFired {
                            node: from,
                            kind,
                            token,
                            gen,
                        },
                    );
                }
                Action::CancelTimer { kind, token } => {
                    self.timers.remove(&(from, kind, token));
                }
                Action::Executed { seq, txns } => self.exec_log.push(ExecRecord {
                    at: now,
                    node: from,
                    seq,
                    txns,
                }),
                Action::ViewChanged { view } => self.view_log.push(ViewRecord {
                    at: now,
                    node: from,
                    view,
                }),
            }
        }
    }

    fn send(&mut self, from: NodeId, to: NodeId, now: Instant, msg: M) {
        let to = self.resolve(to);
        // Self-sends bypass the network (local enqueue).
        if from == to {
            self.queue.push(now, Event::Deliver { from, to, msg });
            return;
        }
        if let Some(filter) = &self.drop_filter {
            if filter(now, from, to, &msg) {
                self.stats.messages_dropped += 1;
                return;
            }
        }
        let p = self.faults.drop_probability(now, from, to);
        if p > 0.0 && self.rng.random::<f64>() < p {
            self.stats.messages_dropped += 1;
            return;
        }
        let (Some(src), Some(dst)) = (self.slots.get(&from), self.slots.get(&to)) else {
            return;
        };
        if src.crashed {
            return;
        }
        let (src_region, dst_region) = (src.region, dst.region);
        let bytes = msg.wire_bytes();
        let tx = self
            .topology
            .transmission_delay(src_region, dst_region, bytes);
        let base_latency = self.topology.latency(src_region, dst_region);
        let jitter = if self.jitter_frac > 0.0 {
            1.0 + self.rng.random::<f64>() * self.jitter_frac
        } else {
            1.0
        };
        let latency = Duration::from_nanos((base_latency.as_nanos() as f64 * jitter) as u64);

        let src_slot = self.slots.get_mut(&from).expect("checked above");
        let start = now.max(src_slot.egress_free);
        src_slot.egress_free = start + tx;
        let arrival = start + tx + latency;

        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes;
        self.queue.push(arrival, Event::Deliver { from, to, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::{ClientId, Outbox, ReplicaId, ShardId};

    #[derive(Clone)]
    struct Ping {
        hops_left: u32,
    }

    impl SimMessage for Ping {
        fn wire_bytes(&self) -> u64 {
            100
        }
    }

    /// A node that returns every ping to its sender until hops run out.
    struct Echo {
        received: Vec<(Instant, u32)>,
        peer: Option<NodeId>,
    }

    impl SimNode<Ping> for Echo {
        fn on_start(&mut self, _now: Instant) -> Vec<Action<Ping>> {
            let mut out = Outbox::new();
            if let Some(peer) = self.peer {
                out.send(peer, Ping { hops_left: 4 });
            }
            out.take()
        }

        fn on_message(&mut self, now: Instant, from: NodeId, msg: Ping) -> Vec<Action<Ping>> {
            self.received.push((now, msg.hops_left));
            let mut out = Outbox::new();
            if msg.hops_left > 0 {
                out.send(
                    from,
                    Ping {
                        hops_left: msg.hops_left - 1,
                    },
                );
            }
            out.take()
        }

        fn on_timer(&mut self, _: Instant, _: TimerKind, _: u64) -> Vec<Action<Ping>> {
            vec![]
        }
    }

    fn rep(s: u32, i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(s), i))
    }

    fn two_node_world(faults: FaultPlan, seed: u64) -> World<Ping, Echo> {
        let mut w = World::new(Topology::gcp(), faults, seed);
        w.set_jitter(0.0);
        w.add_node(
            rep(0, 0),
            Region::Oregon,
            Echo {
                received: vec![],
                peer: Some(rep(1, 0)),
            },
        );
        w.add_node(
            rep(1, 0),
            Region::Iowa,
            Echo {
                received: vec![],
                peer: None,
            },
        );
        w
    }

    #[test]
    fn ping_pong_over_wan_takes_latency() {
        let mut w = two_node_world(FaultPlan::none(), 1);
        w.start();
        w.run_until(Instant::ZERO + Duration::from_secs(5));
        // 5 deliveries total: 4,3,2,1,0 hops.
        let a = w.node(rep(0, 0)).unwrap();
        let b = w.node(rep(1, 0)).unwrap();
        assert_eq!(b.received.len(), 3); // hops 4, 2, 0
        assert_eq!(a.received.len(), 2); // hops 3, 1
                                         // First delivery no earlier than the one-way Oregon→Iowa latency.
        let one_way = Topology::gcp().latency(Region::Oregon, Region::Iowa);
        assert!(b.received[0].0 >= Instant::ZERO + one_way);
        assert_eq!(w.stats.messages_sent, 5);
        assert_eq!(w.stats.bytes_sent, 500);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut w = two_node_world(FaultPlan::none().with_loss(0.3), seed);
            w.start();
            w.run_until(Instant::ZERO + Duration::from_secs(5));
            (w.stats, w.node(rep(1, 0)).unwrap().received.clone())
        };
        let (s1, r1) = run(7);
        let (s2, r2) = run(7);
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
        // Some other seed behaves differently under 30% loss (any single
        // pair of seeds can coincide by luck over so few messages).
        assert!(
            (8..16).any(|seed| run(seed).0 != s1),
            "all seeds produced identical runs"
        );
    }

    #[test]
    fn total_blackout_drops_everything() {
        let faults = FaultPlan::none().with_loss(1.0);
        let mut w = two_node_world(faults, 1);
        w.start();
        w.run_until(Instant::ZERO + Duration::from_secs(5));
        assert_eq!(w.stats.messages_sent, 0);
        assert_eq!(w.stats.messages_dropped, 1); // the initial ping
        assert!(w.node(rep(1, 0)).unwrap().received.is_empty());
    }

    #[test]
    fn crashed_node_stops_responding() {
        let faults = FaultPlan::none().crash(rep(1, 0), Instant::ZERO + Duration::from_millis(1));
        let mut w = two_node_world(faults, 1);
        w.start();
        w.run_until(Instant::ZERO + Duration::from_secs(5));
        // Oregon→Iowa latency ≈ 18ms > 1ms crash time: ping arrives after
        // the crash and is never processed.
        assert!(w.node(rep(1, 0)).unwrap().received.is_empty());
        assert!(w.node(rep(0, 0)).unwrap().received.is_empty());
    }

    #[test]
    fn blank_restart_discards_state_and_reruns_on_start() {
        let faults = FaultPlan::none().crash(rep(1, 0), Instant::ZERO + Duration::from_millis(1));
        let mut w = two_node_world(faults, 1);
        // Restart the crashed node blank, now initiating its own ping.
        w.schedule_restart(
            Instant::ZERO + Duration::from_millis(200),
            rep(1, 0),
            Echo {
                received: vec![],
                peer: Some(rep(0, 0)),
            },
        );
        w.start();
        w.run_until(Instant::ZERO + Duration::from_secs(5));
        // The new incarnation's on_start pinged node 0, which echoed.
        let a = w.node(rep(0, 0)).unwrap();
        let b = w.node(rep(1, 0)).unwrap();
        assert!(!a.received.is_empty(), "restarted node never pinged");
        assert!(!b.received.is_empty(), "echo never returned");
        // The replacement is blank: everything it received postdates the
        // restart.
        let restart_at = Instant::ZERO + Duration::from_millis(200);
        assert!(b.received.iter().all(|(t, _)| *t >= restart_at));
    }

    struct TimerNode {
        fired: Vec<(TimerKind, u64)>,
        cancel_second: bool,
    }

    impl SimNode<Ping> for TimerNode {
        fn on_start(&mut self, _now: Instant) -> Vec<Action<Ping>> {
            let mut out = Outbox::new();
            out.set_timer(TimerKind::Local, 1, Duration::from_millis(10));
            out.set_timer(TimerKind::Remote, 2, Duration::from_millis(20));
            if self.cancel_second {
                out.cancel_timer(TimerKind::Remote, 2);
            }
            out.take()
        }
        fn on_message(&mut self, _: Instant, _: NodeId, _: Ping) -> Vec<Action<Ping>> {
            vec![]
        }
        fn on_timer(&mut self, _: Instant, kind: TimerKind, token: u64) -> Vec<Action<Ping>> {
            self.fired.push((kind, token));
            vec![]
        }
    }

    #[test]
    fn timers_fire_unless_cancelled() {
        for cancel in [false, true] {
            let mut w: World<Ping, TimerNode> = World::new(Topology::local(), FaultPlan::none(), 0);
            let id = NodeId::Client(ClientId(0));
            w.add_node(
                id,
                Region::Oregon,
                TimerNode {
                    fired: vec![],
                    cancel_second: cancel,
                },
            );
            w.start();
            w.run_until(Instant::ZERO + Duration::from_secs(1));
            let fired = &w.node(id).unwrap().fired;
            if cancel {
                assert_eq!(fired, &[(TimerKind::Local, 1)]);
            } else {
                assert_eq!(fired, &[(TimerKind::Local, 1), (TimerKind::Remote, 2)]);
            }
        }
    }

    #[test]
    fn egress_serializes_broadcasts() {
        // One sender bursts 10 large messages to one WAN peer; arrivals
        // must be spaced by at least the transmission delay.
        struct Burst;
        #[derive(Clone)]
        struct Big;
        impl SimMessage for Big {
            fn wire_bytes(&self) -> u64 {
                500_000 // 0.5 MB → 10 ms at 400 Mbps
            }
        }
        enum Node {
            Sender,
            Sink(Vec<Instant>),
        }
        impl SimNode<Big> for Node {
            fn on_start(&mut self, _now: Instant) -> Vec<Action<Big>> {
                match self {
                    Node::Sender => (0..10)
                        .map(|_| Action::Send {
                            to: rep(1, 0),
                            msg: Big,
                        })
                        .collect(),
                    Node::Sink(_) => vec![],
                }
            }
            fn on_message(&mut self, now: Instant, _: NodeId, _: Big) -> Vec<Action<Big>> {
                if let Node::Sink(times) = self {
                    times.push(now);
                }
                vec![]
            }
            fn on_timer(&mut self, _: Instant, _: TimerKind, _: u64) -> Vec<Action<Big>> {
                vec![]
            }
        }
        let _ = Burst;
        let mut w: World<Big, Node> = World::new(Topology::gcp(), FaultPlan::none(), 0);
        w.set_jitter(0.0);
        w.add_node(rep(0, 0), Region::Oregon, Node::Sender);
        w.add_node(rep(1, 0), Region::Tokyo, Node::Sink(vec![]));
        w.start();
        w.run_until(Instant::ZERO + Duration::from_secs(10));
        let Node::Sink(times) = w.node(rep(1, 0)).unwrap() else {
            panic!()
        };
        assert_eq!(times.len(), 10);
        let tx = Topology::gcp().transmission_delay(Region::Oregon, Region::Tokyo, 500_000);
        for pair in times.windows(2) {
            let gap = pair[1].since(pair[0]);
            // CPU cost shifts arrivals slightly; gap must be ≥ tx - ε.
            assert!(
                gap.as_nanos() + 10_000 >= tx.as_nanos(),
                "gap {gap} < tx {tx}"
            );
        }
    }
}
