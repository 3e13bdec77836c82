//! In-memory multi-shard test network for RingBFT: synchronous delivery,
//! manual timers, message filtering. Complements the WAN simulator — this
//! is for correctness tests, not performance.

use crate::messages::RingMsg;
use crate::node::RingReplica;
use crate::pipeline::ThreadedPipeline;
use ringbft_crypto::Digest;
use ringbft_types::txn::Transaction;
use ringbft_types::{
    Action, ClientId, Instant, NodeId, Outbox, ReplicaId, SystemConfig, TimerKind, TxnId,
};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Message filter: return true to drop.
pub type RingDropFilter = Box<dyn Fn(NodeId, NodeId, &RingMsg) -> bool>;

/// A reply observed at a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedReply {
    /// Responding replica.
    pub from: ReplicaId,
    /// The client.
    pub client: ClientId,
    /// Batch digest.
    pub digest: Digest,
    /// Executed transactions.
    pub txn_ids: Vec<TxnId>,
}

/// Synchronous multi-shard network of [`RingReplica`]s.
pub struct RingNet {
    /// System configuration.
    pub cfg: SystemConfig,
    /// All replicas.
    pub replicas: BTreeMap<ReplicaId, RingReplica>,
    queue: VecDeque<(NodeId, NodeId, RingMsg)>,
    /// Armed timers.
    pub timers: HashSet<(NodeId, TimerKind, u64)>,
    /// Replies delivered to clients.
    pub replies: Vec<ObservedReply>,
    /// Executed-batch records `(replica, seq, txns)`.
    pub exec_log: Vec<(ReplicaId, u64, u32)>,
    /// View-change records `(replica, view)`.
    pub view_log: Vec<(ReplicaId, u64)>,
    /// Optional drop filter.
    pub drop_filter: Option<RingDropFilter>,
    /// Messages delivered.
    pub delivered: u64,
}

impl RingNet {
    /// Builds the network, materializing each replica's key partition.
    /// `pipeline_workers > 0` gives every replica a blocking threaded
    /// execution stage, which keeps the in-place event order.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("valid config");
        let mut replicas = BTreeMap::new();
        for shard in &cfg.shards {
            for r in shard.replicas() {
                let mut replica = RingReplica::new(cfg.clone(), r, true);
                if cfg.pipeline_workers > 0 {
                    let stage = ThreadedPipeline::new("exec", cfg.pipeline_workers);
                    replica.install_pipeline(stage.blocking(true));
                }
                replicas.insert(r, replica);
            }
        }
        RingNet {
            cfg,
            replicas,
            queue: VecDeque::new(),
            timers: HashSet::new(),
            replies: Vec::new(),
            exec_log: Vec::new(),
            view_log: Vec::new(),
            drop_filter: None,
            delivered: 0,
        }
    }

    /// Sends `txn` from `client` to the replica `target` (normally the
    /// primary of the first involved shard, but tests may misdeliver).
    pub fn client_send_to(&mut self, client: ClientId, target: ReplicaId, txn: Transaction) {
        self.queue.push_back((
            NodeId::Client(client),
            NodeId::Replica(target),
            RingMsg::Request {
                txn: Arc::new(txn),
                relayed: false,
            },
        ));
    }

    /// Sends `txn` to the current primary of its first involved shard.
    pub fn client_send(&mut self, client: ClientId, txn: Transaction) {
        let involved = txn.involved_shards();
        let first = self.cfg.ring_order().first(&involved);
        // Find the current primary of that shard.
        let primary = self
            .replicas
            .values()
            .find(|r| r.id().shard == first && r.is_primary())
            .map(|r| r.id())
            .unwrap_or(ReplicaId::new(first, 0));
        self.client_send_to(client, primary, txn);
    }

    fn absorb(&mut self, from: NodeId, actions: Vec<Action<RingMsg>>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => self.queue.push_back((from, to, msg)),
                Action::SendMany { tos, msg } => {
                    for to in tos {
                        self.queue.push_back((from, to, msg.clone()));
                    }
                }
                Action::SetTimer { kind, token, .. } => {
                    self.timers.insert((from, kind, token));
                }
                Action::CancelTimer { kind, token } => {
                    self.timers.remove(&(from, kind, token));
                }
                Action::Executed { seq, txns } => {
                    if let NodeId::Replica(r) = from {
                        self.exec_log.push((r, seq, txns));
                    }
                }
                Action::ViewChanged { view } => {
                    if let NodeId::Replica(r) = from {
                        self.view_log.push((r, view));
                    }
                }
            }
        }
    }

    /// Delivers queued messages until quiescence.
    pub fn deliver_all(&mut self) {
        while self.step() {}
    }

    /// Delivers (or drops) the oldest queued message; false when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((from, to, msg)) = self.queue.pop_front() else {
            return false;
        };
        if self.drop_filter.as_ref().is_some_and(|f| f(from, to, &msg)) {
            return true;
        }
        match to {
            NodeId::Replica(r) => {
                let Some(node) = self.replicas.get_mut(&r) else {
                    return true;
                };
                self.delivered += 1;
                let mut out = Outbox::new();
                node.on_message(Instant::ZERO, from, msg, &mut out);
                self.absorb(to, out.take());
            }
            NodeId::Client(c) => {
                if let (
                    RingMsg::Reply {
                        client,
                        digest,
                        txn_ids,
                    },
                    NodeId::Replica(sender),
                ) = (msg, from)
                {
                    debug_assert_eq!(client, c);
                    self.replies.push(ObservedReply {
                        from: sender,
                        client,
                        digest,
                        txn_ids,
                    });
                }
            }
        }
        true
    }

    /// Fires one armed timer; returns false if not armed.
    pub fn fire_timer(&mut self, node: ReplicaId, kind: TimerKind, token: u64) -> bool {
        let key = (NodeId::Replica(node), kind, token);
        if !self.timers.remove(&key) {
            return false;
        }
        let Some(n) = self.replicas.get_mut(&node) else {
            return false;
        };
        let mut out = Outbox::new();
        n.on_timer(Instant::ZERO, kind, token, &mut out);
        self.absorb(NodeId::Replica(node), out.take());
        true
    }

    /// Fires every armed timer of `kind` in `(node, token)` order —
    /// sorted so two runs of the same workload fire identically (the
    /// determinism-twin test compares full event traces across runs).
    /// Returns how many fired.
    pub fn fire_all_timers(&mut self, kind: TimerKind) -> usize {
        let mut armed: Vec<(NodeId, TimerKind, u64)> = self
            .timers
            .iter()
            .filter(|(_, k, _)| *k == kind)
            .copied()
            .collect();
        armed.sort_unstable();
        let mut fired = 0;
        for (node, k, token) in armed {
            if let NodeId::Replica(r) = node {
                if self.fire_timer(r, k, token) {
                    fired += 1;
                }
            }
        }
        fired
    }

    /// Pumps: deliver, flush batch pools (Client timers), deliver — until
    /// no Client timers remain armed and the queue is empty.
    pub fn settle(&mut self) {
        loop {
            self.deliver_all();
            if self.fire_all_timers(TimerKind::Client) == 0 {
                break;
            }
        }
    }

    /// Flushes every replica's execution pipeline, absorbing the actions
    /// the deferred outcomes produce (replies, lock-release cascades).
    /// A no-op when every replica executes in place or on a blocking
    /// stage.
    pub fn pump_all(&mut self) {
        let ids: Vec<ReplicaId> = self.replicas.keys().copied().collect();
        for r in ids {
            let mut out = Outbox::new();
            self.replicas
                .get_mut(&r)
                .expect("known replica")
                .flush_pipeline(&mut out);
            self.absorb(NodeId::Replica(r), out.take());
        }
    }

    /// [`RingNet::settle`] for networks with *async* execution stages:
    /// alternates settling with pipeline flushes until neither produces
    /// new work, so outcomes finished off-thread re-enter the protocol.
    pub fn settle_pumped(&mut self) {
        for _ in 0..64 {
            self.settle();
            let before = (self.replies.len(), self.exec_log.len());
            self.pump_all();
            let quiet = self.queue.is_empty()
                && before == (self.replies.len(), self.exec_log.len())
                && !self.timers.iter().any(|(_, k, _)| *k == TimerKind::Client);
            if quiet {
                return;
            }
        }
        panic!("async pipeline failed to quiesce");
    }

    /// Number of f+1-confirmed replies a client holds for a given digest.
    pub fn confirmed(&self, client: ClientId, digest: &Digest) -> usize {
        self.replies
            .iter()
            .filter(|r| r.client == client && &r.digest == digest)
            .map(|r| r.from)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Distinct digests for which `client` holds at least `quorum`
    /// replies from distinct replicas.
    pub fn completed_digests(&self, client: ClientId, quorum: usize) -> Vec<Digest> {
        let mut by_digest: BTreeMap<Digest, HashSet<ReplicaId>> = BTreeMap::new();
        for r in self.replies.iter().filter(|r| r.client == client) {
            by_digest.entry(r.digest).or_default().insert(r.from);
        }
        by_digest
            .into_iter()
            .filter(|(_, v)| v.len() >= quorum)
            .map(|(d, _)| d)
            .collect()
    }
}
