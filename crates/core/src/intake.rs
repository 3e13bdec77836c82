//! Request intake (§4.1, attack A1 of §5), as two sans-io components.
//! [`ClientTable`] holds each client's last committed request with the
//! reply sent for it, and the requests this replica relayed to its
//! primary and watches. [`Batcher`] holds the primary's pools until a cut
//! turns them into batches. The host routes, proposes and sends, and
//! arms the timers whose tokens come from here.

use crate::node::TOKEN_BASE;
use ringbft_crypto::Digest;
use ringbft_types::txn::{Batch, Transaction};
use ringbft_types::{
    BatchId, ClientId, Duration, Instant, Outbox, ShardId, SystemConfig, TimerKind, TxnId,
};
use std::collections::{hash_map, BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// One client's replay state.
struct Entry {
    /// Highest request id a local commit covered: anything at or below
    /// it is a replay.
    last_id: TxnId,
    /// GC horizon: the highest sequence one of the client's commits
    /// finished at, ratcheted by its replays.
    gc_seq: u64,
    /// The reply for `last_id`'s batch (digest, the client's ids in it),
    /// once it executed.
    reply: Option<(Digest, Vec<TxnId>)>,
}

/// What to do with an incoming request.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Not committed here yet: route it.
    New,
    /// The client's last committed request: re-send the cached reply,
    /// if its batch has executed.
    Replay(Option<(Digest, Vec<TxnId>)>),
    /// Older than the last committed request (ids are monotone per
    /// client): drop it.
    Stale,
}

/// What an expired watch timer means.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WatchExpiry {
    /// Not a watch token.
    NotWatched,
    /// The request committed or the client moved past it: watch dropped.
    Settled,
    /// Still unordered: keep watching and suspect the primary.
    Stuck,
}

/// Per-client reply caches, O(active clients), and the A1 watches.
#[derive(Default)]
pub(crate) struct ClientTable {
    clients: HashMap<ClientId, Entry>,
    /// Watched requests by timer token; token order is relay order.
    watches: BTreeMap<u64, Arc<Transaction>>,
    watch_tokens: HashMap<TxnId, u64>,
}

impl ClientTable {
    /// Judges `txn` against its client's last committed id. A replay
    /// proves the client alive, so it ratchets the GC horizon to
    /// `watermark`: evicting a retransmitting client would let its
    /// committed request re-enter consensus and execute twice.
    pub(crate) fn admit(&mut self, txn: &Transaction, watermark: u64) -> Admission {
        let Some(e) = self.clients.get_mut(&txn.client) else {
            return Admission::New;
        };
        if txn.id > e.last_id {
            return Admission::New;
        }
        e.gc_seq = e.gc_seq.max(watermark);
        if txn.id < e.last_id {
            Admission::Stale
        } else {
            Admission::Replay(e.reply.clone())
        }
    }

    /// A commit at `seq` covered request `id` of `client`; a newer id
    /// drops the cached reply. Returns the token of the watch this ends.
    pub(crate) fn commit(&mut self, client: ClientId, id: TxnId, seq: u64) -> Option<u64> {
        let e = self.entry(client, id, seq);
        if id > e.last_id {
            e.last_id = id;
            e.reply = None;
        }
        e.gc_seq = e.gc_seq.max(seq);
        let token = self.watch_tokens.remove(&id)?;
        self.watches.remove(&token);
        Some(token)
    }

    /// Caches and returns the replies for executed `batch`, one per
    /// client. An out-of-order execution never replaces the reply for a
    /// newer committed request. `fallback_seq` is the GC horizon of a
    /// client not in the table.
    pub(crate) fn replies(
        &mut self,
        digest: Digest,
        batch: &Batch,
        fallback_seq: u64,
    ) -> BTreeMap<ClientId, Vec<TxnId>> {
        let mut by_client: BTreeMap<ClientId, Vec<TxnId>> = BTreeMap::new();
        for t in &batch.txns {
            by_client.entry(t.client).or_default().push(t.id);
        }
        for (client, txn_ids) in &by_client {
            let newest = *txn_ids.iter().max().expect("non-empty");
            let e = self.entry(*client, newest, fallback_seq);
            if newest >= e.last_id {
                e.last_id = newest;
                e.reply = Some((digest, txn_ids.clone()));
            }
        }
        by_client
    }

    fn entry(&mut self, client: ClientId, id: TxnId, seq: u64) -> &mut Entry {
        self.clients.entry(client).or_insert(Entry {
            last_id: id,
            gc_seq: seq,
            reply: None,
        })
    }

    /// Watches relayed `txn` under a token from the replica's shared
    /// allocator; `None` if it is already watched.
    pub(crate) fn watch(&mut self, txn: &Arc<Transaction>, next_token: &mut u64) -> Option<u64> {
        let hash_map::Entry::Vacant(slot) = self.watch_tokens.entry(txn.id) else {
            return None;
        };
        let token = crate::cst::take_token(next_token);
        slot.insert(token);
        self.watches.insert(token, Arc::clone(txn));
        Some(token)
    }

    /// Timer `token` expired. A request superseded by a later commit of
    /// its client counts as settled: the client moved on, and keeping the
    /// watch would re-relay a dead request to every new primary forever.
    pub(crate) fn watch_expired(&mut self, token: u64) -> WatchExpiry {
        let Some(txn) = self.watches.get(&token) else {
            return WatchExpiry::NotWatched;
        };
        let (client, id) = (txn.client, txn.id);
        if self.clients.get(&client).is_none_or(|e| e.last_id < id) {
            return WatchExpiry::Stuck;
        }
        self.watches.remove(&token);
        self.watch_tokens.remove(&id);
        WatchExpiry::Settled
    }

    /// The watched requests in relay order, for a new primary.
    pub(crate) fn watched(&self) -> impl Iterator<Item = &Arc<Transaction>> {
        self.watches.values()
    }

    /// Evicts the clients whose GC horizon is at or below `horizon`;
    /// returns how many.
    pub(crate) fn evict_idle(&mut self, horizon: u64) -> usize {
        let before = self.clients.len();
        self.clients.retain(|_, e| e.gc_seq > horizon);
        before - self.clients.len()
    }
}

const POOL_FLUSH_TOKEN: u64 = TOKEN_BASE - 1;

/// Requests for one involved-shard set.
#[derive(Default)]
struct Pool {
    txns: Vec<Transaction>,
    /// Arrival of the oldest request (the admission clock).
    since: Instant,
}

/// A batch cut from a pool.
pub(crate) struct Cut {
    pub(crate) batch: Arc<Batch>,
    /// How long the head of the pool waited. The clock restarts at each
    /// cut, so this is head-of-pool wait, not per-transaction wait.
    pub(crate) wait: Duration,
    /// Cut short of `batch_size` by the adaptive rule.
    pub(crate) adaptive: bool,
}

/// The primary's batching pools, keyed by involved-shard set.
pub(crate) struct Batcher {
    batch_size: usize,
    adaptive_batching: bool,
    flush_after: Duration,
    pools: BTreeMap<Vec<ShardId>, Pool>,
    /// Ids pooled, or cut and not yet committed: dedups re-relays.
    pooled: HashSet<TxnId>,
    next_batch_id: u64,
    timer_armed: bool,
}

impl Batcher {
    pub(crate) fn new(cfg: &SystemConfig, shard: ShardId) -> Batcher {
        Batcher {
            batch_size: cfg.batch_size,
            adaptive_batching: cfg.adaptive_batching,
            flush_after: cfg.timers.local / 4,
            pools: BTreeMap::new(),
            pooled: HashSet::new(),
            next_batch_id: (shard.0 as u64) << 40,
            timer_armed: false,
        }
    }

    /// Pools `txn` under the shards it involves; false if it is already
    /// pooled or in flight.
    pub(crate) fn push(&mut self, txn: &Transaction, involved: Vec<ShardId>, now: Instant) -> bool {
        if !self.pooled.insert(txn.id) {
            return false;
        }
        let pool = self.pools.entry(involved).or_default();
        if pool.txns.is_empty() {
            pool.since = now;
        }
        pool.txns.push(txn.clone());
        true
    }

    /// Cuts full batches from every pool, in pool order; `force` (the
    /// flush timer) also cuts partial ones. With `adaptive_batching`, a
    /// partial pool is cut when the pipe is idle (`pipe_idle`: no PBFT
    /// instance in flight, no batch queued for execution): batching
    /// amortises per-batch cost while the pipe is busy, and holding
    /// requests back when nothing is ahead of them only adds latency.
    pub(crate) fn cut(&mut self, force: bool, pipe_idle: bool, now: Instant) -> Vec<Cut> {
        let adaptive = self.adaptive_batching && !force && pipe_idle;
        let min = if adaptive { 1 } else { self.batch_size };
        let mut cuts = Vec::new();
        for pool in self.pools.values_mut() {
            while !pool.txns.is_empty() && (force || pool.txns.len() >= min) {
                let take = pool.txns.len().min(self.batch_size);
                let txns: Vec<Transaction> = pool.txns.drain(..take).collect();
                let id = BatchId(self.next_batch_id);
                self.next_batch_id += 1;
                cuts.push(Cut {
                    batch: Arc::new(Batch::new(id, txns)),
                    wait: now.since(pool.since),
                    adaptive: adaptive && take < self.batch_size,
                });
                pool.since = now;
            }
        }
        cuts
    }

    /// Arms the flush timer if requests wait and it is not armed.
    pub(crate) fn arm_timer<M>(&mut self, out: &mut Outbox<M>) {
        if !self.timer_armed && self.pools.values().any(|p| !p.txns.is_empty()) {
            self.timer_armed = true;
            out.set_timer(TimerKind::Client, POOL_FLUSH_TOKEN, self.flush_after);
        }
    }

    /// Whether `token` is the flush timer, which is then disarmed.
    pub(crate) fn on_timer(&mut self, token: u64) -> bool {
        let flush = token == POOL_FLUSH_TOKEN;
        self.timer_armed &= !flush;
        flush
    }

    /// `id` committed; the client table answers its replays.
    pub(crate) fn committed(&mut self, id: TxnId) {
        self.pooled.remove(&id);
    }

    /// The replica entered a view it is not primary of: drop the pools.
    /// The new primary may commit those requests, so proposing them on
    /// regaining the role would execute them twice; backup watches and
    /// client retransmissions still hold them.
    pub(crate) fn demote(&mut self) {
        let pools = std::mem::take(&mut self.pools);
        for txn in pools.into_values().flat_map(|p| p.txns) {
            self.pooled.remove(&txn.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_store::rmw_ops;
    use ringbft_types::{Action, ProtocolKind};

    fn txn(client: u64, id: u64, shards: &[u32]) -> Transaction {
        let ops: Vec<(ShardId, u64)> = shards.iter().map(|&s| (ShardId(s), id)).collect();
        Transaction::new(TxnId(id), ClientId(client), rmw_ops(&ops))
    }

    fn batch_of(txns: Vec<Transaction>) -> Batch {
        Batch::new(BatchId(0), txns)
    }

    fn cached(t: &mut ClientTable, client: u64, id: u64) -> Admission {
        t.admit(&txn(client, id, &[0]), 0)
    }

    #[test]
    fn replay_of_the_last_id_is_answered_from_the_cache() {
        let mut t = ClientTable::default();
        assert_eq!(cached(&mut t, 1, 5), Admission::New);
        assert_eq!(t.commit(ClientId(1), TxnId(5), 3), None);
        // Committed but not executed: nothing to re-send yet.
        assert_eq!(cached(&mut t, 1, 5), Admission::Replay(None));
        let sent = t.replies([5; 32], &batch_of(vec![txn(1, 5, &[0])]), 3);
        assert_eq!(sent, BTreeMap::from([(ClientId(1), vec![TxnId(5)])]));
        let reply = Some(([5; 32], vec![TxnId(5)]));
        assert_eq!(cached(&mut t, 1, 5), Admission::Replay(reply));
        assert_eq!(cached(&mut t, 1, 6), Admission::New);
    }

    #[test]
    fn an_older_id_is_dropped() {
        let mut t = ClientTable::default();
        t.commit(ClientId(1), TxnId(5), 3);
        assert_eq!(cached(&mut t, 1, 4), Admission::Stale);
        assert_eq!(
            cached(&mut t, 2, 4),
            Admission::New,
            "other clients unaffected"
        );
    }

    #[test]
    fn out_of_order_execution_keeps_the_newer_reply() {
        let mut t = ClientTable::default();
        t.commit(ClientId(1), TxnId(5), 3);
        t.commit(ClientId(1), TxnId(6), 4);
        t.replies([6; 32], &batch_of(vec![txn(1, 6, &[0])]), 4);
        // The older request executes late: its reply still goes out…
        let sent = t.replies([5; 32], &batch_of(vec![txn(1, 5, &[0])]), 4);
        assert_eq!(sent[&ClientId(1)], vec![TxnId(5)]);
        // …but the cache keeps answering the newer one.
        let reply = Some(([6; 32], vec![TxnId(6)]));
        assert_eq!(cached(&mut t, 1, 6), Admission::Replay(reply));
        // A newer commit drops the cached reply, which answered 6.
        t.commit(ClientId(1), TxnId(7), 5);
        assert_eq!(cached(&mut t, 1, 7), Admission::Replay(None));
    }

    #[test]
    fn a_replay_ratchets_the_horizon_so_eviction_keeps_the_client() {
        let mut t = ClientTable::default();
        t.commit(ClientId(1), TxnId(5), 10);
        t.commit(ClientId(2), TxnId(9), 10);
        // Client 1 retransmits while the watermark is at 300.
        assert_eq!(t.admit(&txn(1, 5, &[0]), 300), Admission::Replay(None));
        assert_eq!(t.evict_idle(256), 1);
        assert_eq!(
            cached(&mut t, 1, 5),
            Admission::Replay(None),
            "client 1 kept"
        );
        assert_eq!(
            cached(&mut t, 2, 9),
            Admission::New,
            "idle client 2 evicted"
        );
    }

    #[test]
    fn a_watch_ends_on_commit_and_on_supersession() {
        let mut t = ClientTable::default();
        let mut next_token = 100;
        let (a, b) = (Arc::new(txn(1, 5, &[0])), Arc::new(txn(2, 9, &[0])));
        assert_eq!(t.watch(&a, &mut next_token), Some(100));
        assert_eq!(t.watch(&a, &mut next_token), None, "already watched");
        assert_eq!(t.watch(&b, &mut next_token), Some(101));
        assert_eq!(next_token, 102);
        let ids: Vec<TxnId> = t.watched().map(|w| w.id).collect();
        assert_eq!(ids, [TxnId(5), TxnId(9)], "relay order");
        assert_eq!(t.watch_expired(100), WatchExpiry::Stuck);
        // Commit: the token comes back for cancelling.
        assert_eq!(t.commit(ClientId(1), TxnId(5), 3), Some(100));
        assert_eq!(t.watch_expired(100), WatchExpiry::NotWatched);
        // Supersession: client 2 moved on to request 10.
        assert_eq!(t.commit(ClientId(2), TxnId(10), 4), None);
        assert_eq!(t.watch_expired(101), WatchExpiry::Settled);
        assert_eq!(t.watched().count(), 0);
        assert_eq!(t.watch(&b, &mut next_token), Some(102));
    }

    fn batcher(adaptive: bool) -> Batcher {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        cfg.batch_size = 3;
        cfg.adaptive_batching = adaptive;
        Batcher::new(&cfg, ShardId(1))
    }

    fn push(b: &mut Batcher, id: u64, shards: &[u32], at: u64) -> bool {
        let t = txn(id, id, shards);
        b.push(&t, t.involved_shards(), Instant(at))
    }

    fn ids(cut: &Cut) -> Vec<u64> {
        cut.batch.txns.iter().map(|t| t.id.0).collect()
    }

    #[test]
    fn the_cut_happens_at_batch_size() {
        let mut b = batcher(false);
        push(&mut b, 1, &[1], 0);
        push(&mut b, 2, &[1], 0);
        push(&mut b, 3, &[1, 0], 0);
        assert!(b.cut(false, true, Instant(0)).is_empty());
        push(&mut b, 4, &[1], 0);
        push(&mut b, 5, &[1], 0);
        let cuts = b.cut(false, true, Instant(0));
        assert_eq!(cuts.len(), 1);
        assert_eq!(ids(&cuts[0]), [1, 2, 4]);
        assert_eq!(cuts[0].batch.id, BatchId(1 << 40), "shard-prefixed ids");
        assert!(!cuts[0].adaptive);
        // The remainder waits; the other pool was never full.
        assert!(b.cut(false, true, Instant(0)).is_empty());
    }

    #[test]
    fn a_forced_cut_takes_partial_pools() {
        let mut b = batcher(false);
        for id in 1..=4 {
            push(&mut b, id, &[1], 0);
        }
        push(&mut b, 5, &[0, 1], 0);
        let cuts = b.cut(true, false, Instant(0));
        let got: Vec<Vec<u64>> = cuts.iter().map(ids).collect();
        assert_eq!(
            got,
            [vec![5], vec![1, 2, 3], vec![4]],
            "pool order, then FIFO"
        );
        let batch_ids: Vec<u64> = cuts.iter().map(|c| c.batch.id.0 - (1 << 40)).collect();
        assert_eq!(batch_ids, [0, 1, 2]);
        assert!(cuts.iter().all(|c| !c.adaptive));
        assert!(b.cut(true, false, Instant(0)).is_empty());
    }

    #[test]
    fn the_adaptive_cut_happens_only_when_the_pipe_is_idle() {
        let mut b = batcher(true);
        push(&mut b, 1, &[1], 0);
        assert!(b.cut(false, false, Instant(0)).is_empty(), "pipe busy");
        let cuts = b.cut(false, true, Instant(0));
        assert_eq!(cuts.len(), 1);
        assert!(cuts[0].adaptive, "counted as adaptive");
        // A full batch cut while idle is not adaptive, nor a forced one.
        for id in 2..=4 {
            push(&mut b, id, &[1], 0);
        }
        assert!(!b.cut(false, true, Instant(0))[0].adaptive);
        push(&mut b, 5, &[1], 0);
        assert!(!b.cut(true, true, Instant(0))[0].adaptive);
        // Off by configuration: an idle pipe changes nothing.
        let mut off = batcher(false);
        push(&mut off, 1, &[1], 0);
        assert!(off.cut(false, true, Instant(0)).is_empty());
    }

    #[test]
    fn the_admission_clock_restarts_per_cut() {
        let mut b = batcher(false);
        for (id, at) in [
            (1, 10),
            (2, 20),
            (3, 30),
            (4, 40),
            (5, 50),
            (6, 60),
            (7, 70),
        ] {
            push(&mut b, id, &[1], at);
        }
        let waits: Vec<u64> = b
            .cut(false, false, Instant(100))
            .iter()
            .map(|c| c.wait.0)
            .collect();
        assert_eq!(waits, [90, 0], "head waited 90, then the clock restarted");
        assert_eq!(b.cut(true, false, Instant(130))[0].wait.0, 30);
        // An emptied pool's clock starts with its next request.
        push(&mut b, 8, &[1], 200);
        assert_eq!(b.cut(true, false, Instant(250))[0].wait.0, 50);
    }

    #[test]
    fn a_rerelayed_id_is_deduplicated() {
        let mut b = batcher(false);
        assert!(push(&mut b, 1, &[1], 0));
        assert!(!push(&mut b, 1, &[1], 0), "pooled");
        assert_eq!(b.cut(true, false, Instant(0)).len(), 1);
        assert!(!push(&mut b, 1, &[1], 0), "in flight");
        b.committed(TxnId(1));
        assert!(
            push(&mut b, 1, &[1], 0),
            "committed: the client table decides"
        );
        // Demotion drops the pool and forgets its ids, not in-flight ones.
        push(&mut b, 2, &[1], 0);
        b.cut(true, false, Instant(0));
        push(&mut b, 3, &[1], 0);
        b.demote();
        assert!(b.cut(true, false, Instant(0)).is_empty());
        assert!(!push(&mut b, 2, &[1], 0), "still in flight");
        assert!(push(&mut b, 3, &[1], 0), "dropped with the pool");
    }

    #[test]
    fn the_flush_timer_is_armed_once_until_it_fires() {
        let mut b = batcher(false);
        let mut out: Outbox<()> = Outbox::new();
        b.arm_timer(&mut out);
        assert!(out.is_empty(), "nothing pooled");
        push(&mut b, 1, &[1], 0);
        b.arm_timer(&mut out);
        b.arm_timer(&mut out);
        let armed = out.take();
        assert!(matches!(
            armed[..],
            [Action::SetTimer {
                kind: TimerKind::Client,
                token: POOL_FLUSH_TOKEN,
                ..
            }]
        ));
        assert!(!b.on_timer(POOL_FLUSH_TOKEN + 1));
        assert!(b.on_timer(POOL_FLUSH_TOKEN));
        b.arm_timer(&mut out);
        assert_eq!(out.take().len(), 1, "re-armed after firing");
    }
}
