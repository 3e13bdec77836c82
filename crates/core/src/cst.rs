//! Cross-shard transactions (csts) through the two ring rotations (Fig 5)
//! and their recovery (§5.1, Fig 6), as one sans-io component.
//! [`CstTracker`] holds each cst from its first sighting (a proposal, a
//! local commit or a Forward) until the initiator learns its fate, and its
//! digest in `done` after that. It applies the evidence rule, sends
//! Forwards, Executes, local shares and complaints, and owns every cst
//! timer. The host proposes, locks, executes fragments, reads owned
//! remote-read values, writes the ledger and replies.

use crate::dedup::WindowedDigestSet;
use crate::intake::WatchExpiry;
use crate::messages::{ExecuteMsg, ForwardMsg, RingMsg};
use ringbft_crypto::Digest;
use ringbft_types::txn::{Batch, Key, Value};
use ringbft_types::{
    Duration, Instant, NodeId, Outbox, ReplicaId, RingOrder, ShardId, SystemConfig, TimerKind,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Transmit-timer retransmissions per cst (the paper re-sends until the
/// fate is known).
const MAX_RETRANSMITS: u32 = 3;

/// Copies of one rotation message from the previous shard: processed
/// once `f + 1` distinct replicas sent it, so a correct one did.
#[derive(Debug, Default)]
struct Evidence {
    origins: HashSet<u32>,
    processed: bool,
}

impl Evidence {
    /// `None` once processed, else the distinct origins so far and
    /// whether they just reached `threshold`.
    fn add(&mut self, origin: u32, threshold: usize) -> Option<(usize, bool)> {
        self.origins.insert(origin);
        if self.processed {
            return None;
        }
        self.processed = self.origins.len() >= threshold;
        Some((self.origins.len(), self.processed))
    }
}

#[derive(Debug, Default)]
struct CstState {
    batch: Arc<Batch>,
    involved: Vec<ShardId>,
    /// Sequence this shard's PBFT committed the batch at.
    local_seq: Option<u64>,
    /// Locks held (rotation one passed through this shard).
    locked: bool,
    executed: bool,
    forward: Evidence,
    execute: Evidence,
    /// Ring position: the first Forward's hop + 1 (`None` = initiator).
    hop: Option<u32>,
    /// Accumulated dependency reads (rotation one) and `Σ` (rotation two).
    deps: Vec<(Key, Value)>,
    sigma: Vec<(Key, Value)>,
    /// Token of the Local watch and the Transmit/Remote timers.
    token: u64,
    retransmits: u32,
    proposed_here: bool,
    /// Phase clocks, opened by the initiator's commit, complete Forward
    /// evidence, and a complex cst's execution at the initiator.
    committed_at: Option<Instant>,
    forwarded_at: Option<Instant>,
    executed_at: Option<Instant>,
}

impl CstState {
    /// No cross-shard read dependencies: one rotation (§4.2.1).
    fn simple(&self) -> bool {
        self.batch.remote_read_count() == 0
    }

    /// This shard's part of rotation one is done (locked, or a simple
    /// fragment executed), so its Forward may go out.
    fn forwardable(&self) -> bool {
        self.locked || self.executed
    }
}

/// What the host does after a rotation message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Next {
    Wait,
    Execute,
    /// The fate reached the initiator: reply, closing the execute→reply
    /// clock if one runs.
    Reply(Arc<Batch>, Option<Instant>),
    /// Forward evidence is complete and this primary must order the
    /// batch (Fig 5 lines 38–39).
    Propose(Arc<Batch>),
}

/// A locked fragment, marked executed.
pub(crate) struct Fragment {
    pub(crate) seq: u64,
    pub(crate) batch: Arc<Batch>,
    /// Remote-read values from `deps ∪ Σ`.
    pub(crate) resolved: HashMap<Key, Value>,
    /// When Forward evidence completed (complex csts only).
    pub(crate) forwarded_at: Option<Instant>,
}

/// The tracker's gauges and running totals, for the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) csts_live: u64,
    pub(crate) complaints_live: u64,
    pub(crate) done_occupancy: u64,
    pub(crate) done_overwrites: u64,
    pub(crate) forwards_sent: u64,
    pub(crate) executes_sent: u64,
    pub(crate) remote_views_sent: u64,
    /// Forwards the transmit timer re-sent.
    pub(crate) forward_retransmits: u64,
}

pub(crate) struct CstTracker {
    me: ReplicaId,
    ring: RingOrder,
    cfg: SystemConfig,
    csts: BTreeMap<Digest, CstState>,
    tokens: HashMap<u64, Digest>,
    /// Finished digests (late-message dedup), kept two checkpoint windows.
    done: WindowedDigestSet,
    /// RemoteView complainers per digest, apart from `csts`: under a
    /// suppressing primary most replicas never built the state.
    complaints: HashMap<Digest, Evidence>,
    /// Digests whose complaints already forced a view change.
    forced: HashSet<Digest>,
    counts: Counts,
}

impl CstTracker {
    pub(crate) fn new(cfg: &SystemConfig, me: ReplicaId) -> CstTracker {
        CstTracker {
            me,
            ring: cfg.ring_order(),
            cfg: cfg.clone(),
            csts: BTreeMap::new(),
            tokens: HashMap::new(),
            done: WindowedDigestSet::with_window(cfg.checkpoint_interval),
            complaints: HashMap::new(),
            forced: HashSet::new(),
            counts: Counts::default(),
        }
    }

    pub(crate) fn counts(&self) -> Counts {
        Counts {
            csts_live: self.csts.len() as u64,
            complaints_live: self.complaints.len() as u64,
            done_occupancy: self.done.occupancy() as u64,
            done_overwrites: self.done.overwrites(),
            ..self.counts
        }
    }

    /// A checkpoint became stable.
    pub(crate) fn rotate_done(&mut self) {
        self.done.rotate();
    }

    /// This shard's ring position for `digest`, so every span it stamps
    /// for one transaction carries the same hop.
    pub(crate) fn hop(&self, digest: &Digest) -> u32 {
        self.csts.get(digest).and_then(|s| s.hop).unwrap_or(0)
    }

    /// The other replicas of this shard.
    fn peers(&self) -> Vec<NodeId> {
        let shard = self.cfg.shard(self.me.shard).replicas();
        shard
            .filter(|r| *r != self.me)
            .map(NodeId::Replica)
            .collect()
    }

    /// The state of `digest`, created under a fresh token if absent.
    fn entry(
        &mut self,
        digest: Digest,
        batch: &Arc<Batch>,
        proposed_here: bool,
        next_token: &mut u64,
    ) -> &mut CstState {
        let tokens = &mut self.tokens;
        self.csts.entry(digest).or_insert_with(|| {
            let token = take_token(next_token);
            tokens.insert(token, digest);
            CstState {
                batch: Arc::clone(batch),
                involved: batch.involved_shards(),
                token,
                proposed_here,
                ..CstState::default()
            }
        })
    }

    /// The initiator's primary proposes `digest`. A token is taken even
    /// if the state exists, so token values never depend on that.
    pub(crate) fn open(&mut self, digest: Digest, batch: &Arc<Batch>, next_token: &mut u64) {
        if self.csts.contains_key(&digest) {
            take_token(next_token);
        }
        self.entry(digest, batch, true, next_token);
    }

    /// This shard committed `digest` at `seq`. False for a duplicate
    /// (finished, or committed at another sequence after a view change
    /// re-proposed it), whose slot only advances lock order.
    pub(crate) fn commit(
        &mut self,
        seq: u64,
        digest: Digest,
        batch: &Arc<Batch>,
        now: Instant,
        next_token: &mut u64,
        out: &mut Outbox<RingMsg>,
    ) -> bool {
        let committed = self.csts.get(&digest).and_then(|s| s.local_seq).is_some();
        if committed || self.done.contains(&digest) {
            return false;
        }
        let (ring, me) = (self.ring, self.me.shard);
        let s = self.entry(digest, batch, true, next_token);
        s.local_seq = Some(seq);
        if ring.is_first(&s.involved, me) {
            s.committed_at = Some(now);
        }
        out.cancel_timer(TimerKind::Local, s.token);
        true
    }

    /// `digest` acquired its locks: is it simple? `None` without state
    /// or once executed (a late duplicate must not hold fresh locks).
    pub(crate) fn lock(&mut self, digest: &Digest) -> Option<bool> {
        let s = self.csts.get_mut(digest).filter(|s| !s.executed)?;
        s.locked = true;
        Some(s.simple())
    }

    /// Marks the locked fragment of `digest` executed. A simple cst gives
    /// its locks back: holding them would only stall the π list.
    pub(crate) fn start_execution(&mut self, digest: &Digest) -> Option<Fragment> {
        let s = self
            .csts
            .get_mut(digest)
            .filter(|s| s.locked && !s.executed)?;
        let simple = s.simple();
        s.executed = true;
        s.locked &= !simple;
        Some(Fragment {
            seq: s.local_seq.expect("locked implies committed locally"),
            batch: Arc::clone(&s.batch),
            resolved: s.deps.iter().chain(&s.sigma).copied().collect(),
            forwarded_at: if simple { None } else { s.forwarded_at.take() },
        })
    }

    /// A complex fragment executed and released its locks: `Σ` (the
    /// dependency reads when empty) gains `writes`, and the Execute goes
    /// down the ring (Fig 5 lines 35–37).
    pub(crate) fn executed(
        &mut self,
        digest: &Digest,
        writes: &[(Key, Value)],
        now: Instant,
        out: &mut Outbox<RingMsg>,
    ) {
        let Some(s) = self.csts.get_mut(digest) else {
            return;
        };
        if s.sigma.is_empty() {
            s.sigma = s.deps.clone();
        }
        s.sigma.extend_from_slice(writes);
        if self.ring.is_first(&s.involved, self.me.shard) {
            s.executed_at = Some(now);
        }
        self.send_execute(digest, out);
    }

    fn send_execute(&mut self, digest: &Digest, out: &mut Outbox<RingMsg>) {
        let (from_shard, sigma) = (self.me.shard, self.csts[digest].sigma.clone());
        let ex = RingMsg::Execute(ExecuteMsg {
            digest: *digest,
            from_shard,
            sigma,
        });
        self.counts.executes_sent += self.send_down(digest, ex, out);
    }

    /// Sends the Forward once this shard's part of rotation one is done,
    /// adding its remote-read values from `read` to the deps (§8.8).
    pub(crate) fn forward(
        &mut self,
        digest: &Digest,
        read: impl Fn(Key) -> Value,
        out: &mut Outbox<RingMsg>,
    ) {
        let me = self.me.shard;
        let Some(s) = self.csts.get(digest).filter(|s| s.forwardable()) else {
            return;
        };
        let mut deps = s.deps.clone();
        let reads = s.batch.txns.iter().flat_map(|t| t.remote_reads.iter());
        deps.extend(
            reads
                .filter(|rr| rr.owner == me)
                .map(|rr| (rr.key, read(rr.key))),
        );
        let fwd = ForwardMsg {
            batch: Arc::clone(&s.batch),
            digest: *digest,
            from_shard: me,
            cert_signers: (0..self.cfg.shard(me).nf() as u32).collect(),
            deps,
            hop: s.hop.unwrap_or(0),
        };
        self.counts.forwards_sent += self.send_down(digest, RingMsg::Forward(fwd), out);
    }

    /// Sends `msg` to the next involved shard, arming the transmit timer:
    /// to our counterpart, or (quadratic ablation) to every replica.
    fn send_down(&self, digest: &Digest, msg: RingMsg, out: &mut Outbox<RingMsg>) -> u64 {
        let s = &self.csts[digest];
        let next = self.cfg.shard(self.ring.next(&s.involved, self.me.shard));
        let sent = if self.cfg.ablation_quadratic_forward {
            out.multicast(next.replicas().map(NodeId::Replica), &msg);
            next.n as u64
        } else {
            out.send(self.counterpart(next.id), msg);
            1
        };
        out.set_timer(TimerKind::Transmit, s.token, self.cfg.timers.transmit);
        sent
    }

    /// The same-index replica in `shard`, folded by its size (§4.3.6).
    fn counterpart(&self, shard: ShardId) -> NodeId {
        let n = self.cfg.shard(shard).n as u32;
        NodeId::Replica(ReplicaId::new(shard, self.me.index % n))
    }

    /// Local sharing (Fig 5 lines 29–30) of a message received directly,
    /// which must come from the previous shard. False drops it.
    fn share(
        &self,
        from: ShardId,
        prev: ShardId,
        direct: bool,
        msg: impl FnOnce() -> RingMsg,
        out: &mut Outbox<RingMsg>,
    ) -> bool {
        if direct && from == prev {
            out.send_many(self.peers(), msg());
        }
        !direct || from == prev
    }

    /// Rotation one (Fig 5 lines 28–39): a Forward, direct or shared. The
    /// first evidence arms the remote timer (§5.1.2); complete evidence
    /// cancels it, and a backup not yet ordering the batch watches its
    /// primary for `watch` (`None` on the primary). Also returns the
    /// initiator's wait since its commit, for a wrap-around.
    pub(crate) fn on_forward(
        &mut self,
        from: ReplicaId,
        msg: &RingMsg,
        watch: Option<Duration>,
        now: Instant,
        next_token: &mut u64,
        out: &mut Outbox<RingMsg>,
    ) -> (Next, Option<Duration>) {
        let (RingMsg::Forward(fwd) | RingMsg::ForwardShare(fwd)) = msg else {
            return (Next::Wait, None);
        };
        let (digest, me, direct) = (
            fwd.digest,
            self.me.shard,
            matches!(msg, RingMsg::Forward(_)),
        );
        let involved = fwd.batch.involved_shards();
        // Involvement (Def 4.1): only involved shards act.
        if self.done.contains(&digest) || !involved.contains(&me) {
            return (Next::Wait, None);
        }
        // The modeled commit certificate: nf signers of the previous shard.
        let prev = self.ring.prev(&involved, me);
        if fwd.from_shard != prev || fwd.cert_signers.len() < self.cfg.shard(prev).nf() {
            return (Next::Wait, None);
        }
        // Initiator state is born from requests and local consensus,
        // never from Forwards: a wrap-around for a cst unknown here
        // replays work finished past the `done` window, and re-admitting
        // it would re-execute it on part of the shard. A replica that
        // missed the cst recovers its commit first. Checked before the
        // local sharing, so a zombie replay does not fan out.
        let initiator = self.ring.is_first(&involved, me);
        let share = || RingMsg::ForwardShare(fwd.clone());
        if (initiator && !self.csts.contains_key(&digest))
            || !self.share(from.shard, prev, direct, share, out)
        {
            return (Next::Wait, None);
        }
        let (threshold, remote) = (self.cfg.shard(prev).f() + 1, self.cfg.timers.remote);
        let s = self.entry(digest, &fwd.batch, false, next_token);
        if !initiator {
            s.hop.get_or_insert(fwd.hop.saturating_add(1));
        }
        let Some((seen, complete)) = s.forward.add(from.index, threshold) else {
            return (Next::Wait, None);
        };
        if seen == 1 {
            out.set_timer(TimerKind::Remote, s.token, remote);
        }
        if !complete {
            return (Next::Wait, None);
        }
        if fwd.deps.len() > s.deps.len() {
            s.deps = fwd.deps.clone();
        }
        let waited = s.committed_at.take().map(|t0| now.since(t0));
        s.forwarded_at = Some(now);
        out.cancel_timer(TimerKind::Remote, s.token);
        let next = match (s.locked, s.executed, watch) {
            // Second rotation begins at the initiator (Fig 5 line 32):
            // only complex csts still hold locks here. A later shard
            // holding them waits for Execute evidence, since its deps
            // lack the reads of the shards after it.
            (true, ..) if initiator || s.execute.processed => Next::Execute,
            // A simple cst's wrap-around tells the initiator that every
            // involved shard ordered, hence executed, it (§4.2.1).
            (false, true, _) if initiator => self.finish(&digest, out),
            (false, false, None) if !s.proposed_here => {
                s.proposed_here = true;
                Next::Propose(Arc::clone(&s.batch))
            }
            (false, false, Some(after)) if !s.proposed_here => {
                out.set_timer(TimerKind::Local, s.token, after);
                Next::Wait
            }
            _ => Next::Wait,
        };
        (next, waited)
    }

    /// Rotation two (Fig 5 lines 40–44), for a cst seen in rotation one.
    pub(crate) fn on_execute(
        &mut self,
        from: ReplicaId,
        msg: &RingMsg,
        out: &mut Outbox<RingMsg>,
    ) -> Next {
        let (RingMsg::Execute(ex) | RingMsg::ExecuteShare(ex)) = msg else {
            return Next::Wait;
        };
        let (me, direct) = (self.me.shard, matches!(msg, RingMsg::Execute(_)));
        let Some(s) = self.csts.get(&ex.digest) else {
            return Next::Wait;
        };
        let (prev, initiator) = (
            self.ring.prev(&s.involved, me),
            self.ring.is_first(&s.involved, me),
        );
        let share = || RingMsg::ExecuteShare(ex.clone());
        if self.done.contains(&ex.digest)
            || ex.from_shard != prev
            || !self.share(from.shard, prev, direct, share, out)
        {
            return Next::Wait;
        }
        let threshold = self.cfg.shard(prev).f() + 1;
        let s = self.csts.get_mut(&ex.digest).expect("checked above");
        let Some((_, true)) = s.execute.add(from.index, threshold) else {
            return Next::Wait;
        };
        if ex.sigma.len() > s.sigma.len() {
            s.sigma = ex.sigma.clone();
        }
        match (s.executed, initiator) {
            (false, _) => Next::Execute,
            // The Execute wrapped around: every shard executed (lines 41–42).
            (true, true) => self.finish(&ex.digest, out),
            (true, false) => Next::Wait,
        }
    }

    /// The fate reached the initiator: state and retransmission end.
    fn finish(&mut self, digest: &Digest, out: &mut Outbox<RingMsg>) -> Next {
        let s = self.csts.remove(digest).expect("finished cst has state");
        self.tokens.remove(&s.token);
        self.done.insert(digest);
        out.cancel_timer(TimerKind::Transmit, s.token);
        Next::Reply(s.batch, s.executed_at)
    }

    /// A Local watch expired: an uncommitted cst is stuck unless `hold`.
    pub(crate) fn watch_expired(
        &mut self,
        token: u64,
        hold: bool,
        timeout: Duration,
        out: &mut Outbox<RingMsg>,
    ) -> WatchExpiry {
        let Some(digest) = self.tokens.get(&token) else {
            return WatchExpiry::NotWatched;
        };
        if self.csts.get(digest).is_none_or(|s| s.local_seq.is_some()) {
            return WatchExpiry::Settled;
        }
        if !hold {
            return WatchExpiry::Stuck;
        }
        out.set_timer(TimerKind::Local, token, timeout);
        WatchExpiry::Settled
    }

    /// Re-sends an executed complex cst's Execute, else the Forward
    /// (§5.1.1), at most [`MAX_RETRANSMITS`] times.
    pub(crate) fn retransmit(
        &mut self,
        token: u64,
        read: impl Fn(Key) -> Value,
        out: &mut Outbox<RingMsg>,
    ) {
        let csts = &mut self.csts;
        let found = self
            .tokens
            .get(&token)
            .and_then(|d| Some((*d, csts.get_mut(d)?)));
        let Some((digest, s)) = found.filter(|(_, s)| s.retransmits < MAX_RETRANSMITS) else {
            return;
        };
        s.retransmits += 1;
        if s.executed && !s.simple() {
            self.send_execute(&digest, out);
        } else if s.forwardable() {
            self.counts.forward_retransmits += 1;
            self.forward(&digest, read, out);
        }
    }

    /// Without complete Forward evidence, complains to the previous
    /// shard (Fig 6 lines 1–2). Returns whether it did.
    pub(crate) fn remote_timer(&mut self, token: u64, out: &mut Outbox<RingMsg>) -> bool {
        let found = self
            .tokens
            .get(&token)
            .and_then(|d| self.csts.get_key_value(d));
        let Some((&digest, s)) = found.filter(|(_, s)| !s.forward.processed) else {
            return false;
        };
        let (prev, from_shard) = (self.ring.prev(&s.involved, self.me.shard), self.me.shard);
        out.send(
            self.counterpart(prev),
            RingMsg::RemoteView { digest, from_shard },
        );
        self.counts.remote_views_sent += 1;
        true
    }

    /// A RemoteView complaint (Fig 6), direct from a next-shard replica
    /// (shared here, lines 3–4) or as a share. At `f + 1` complainers, a
    /// cst this shard committed was lost on the way: re-send the Forward
    /// with one more retry (§5.1.1). Otherwise returns true to force a
    /// view change, once per digest and not during `grace`.
    pub(crate) fn complaint(
        &mut self,
        from: NodeId,
        msg: &RingMsg,
        grace: bool,
        read: impl Fn(Key) -> Value,
        out: &mut Outbox<RingMsg>,
    ) -> bool {
        let (digest, origin) = match (msg, from) {
            (&RingMsg::RemoteViewShare { digest, origin, .. }, _) => (digest, origin),
            (&RingMsg::RemoteView { digest, from_shard }, NodeId::Replica(r)) => {
                let origin = r.index;
                let share = RingMsg::RemoteViewShare {
                    digest,
                    from_shard,
                    origin,
                };
                out.send_many(self.peers(), share);
                (digest, origin)
            }
            _ => return false,
        };
        let quorum = self.cfg.shard(self.me.shard).f() + 1;
        let votes = self.complaints.entry(digest).or_default();
        let Some((_, true)) = votes.add(origin, quorum) else {
            return false;
        };
        self.complaints.remove(&digest);
        let state = self.csts.get_mut(&digest);
        if state.as_ref().is_some_and(|s| s.forwardable()) || self.done.contains(&digest) {
            if let Some(s) = state {
                s.retransmits = s.retransmits.saturating_sub(1);
            }
            self.forward(&digest, read, out);
            return false;
        }
        !grace && self.forced.insert(digest)
    }

    /// A new primary re-proposes csts with complete Forward evidence that
    /// are not committed here and it has not proposed (§5.1.2 discussion).
    pub(crate) fn take_stalled(&mut self) -> Vec<Arc<Batch>> {
        let stalled = self
            .csts
            .values_mut()
            .filter(|s| s.forward.processed && s.local_seq.is_none() && !s.proposed_here);
        stalled
            .map(|s| {
                s.proposed_here = true;
                Arc::clone(&s.batch)
            })
            .collect()
    }

    /// It then re-sends the Forward of every cst locked or executed here.
    pub(crate) fn forward_all(&mut self, read: impl Fn(Key) -> Value, out: &mut Outbox<RingMsg>) {
        let ready: Vec<Digest> = self
            .csts
            .iter()
            .filter(|(_, s)| s.forwardable())
            .map(|(d, _)| *d)
            .collect();
        for digest in ready {
            self.forward(&digest, &read, out);
        }
    }

    /// A snapshot at `seq` supersedes every cst not committed above it:
    /// one committed at or below `seq` is finished, so it enters `done`;
    /// one never committed here (never locked) is usually work finished
    /// while this replica was dark, whose watch would demand a view
    /// change no peer joins. A live one returns by retransmission.
    pub(crate) fn installed(&mut self, seq: u64, out: &mut Outbox<RingMsg>) {
        let stale = self
            .csts
            .extract_if(.., |_, s| s.local_seq.is_none_or(|s| s <= seq));
        for (digest, s) in stale {
            if s.local_seq.is_some() {
                self.done.insert(&digest);
            }
            self.tokens.remove(&s.token);
            out.cancel_timer(TimerKind::Local, s.token);
            out.cancel_timer(TimerKind::Remote, s.token);
            out.cancel_timer(TimerKind::Transmit, s.token);
        }
    }
}

pub(crate) fn take_token(next_token: &mut u64) -> u64 {
    let token = *next_token;
    *next_token += 1;
    token
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_store::rmw_ops;
    use ringbft_types::txn::{RemoteRead, Transaction};
    use ringbft_types::{Action, BatchId, ClientId, ProtocolKind, TxnId};

    const NOW: Instant = Instant(1_000);
    const WATCH: Option<Duration> = Some(Duration(500));

    fn r(shard: u32, index: u32) -> ReplicaId {
        ReplicaId::new(ShardId(shard), index)
    }

    /// A tracker at replica `me` of a 2-shard ring of `n`-replica shards.
    fn tracker(n: usize, me: ReplicaId) -> CstTracker {
        CstTracker::new(&SystemConfig::uniform(ProtocolKind::RingBft, 2, n), me)
    }

    /// A cst over shards 0 and 1; a complex one reads a shard-1 key at
    /// shard 0.
    fn cst(id: u8, complex: bool) -> (Digest, Arc<Batch>) {
        let key = id as u64;
        let mut txn = Transaction::new(
            TxnId(key),
            ClientId(key),
            rmw_ops(&[(ShardId(0), key), (ShardId(1), 1000 + key)]),
        );
        if complex {
            let (reader, owner) = (ShardId(0), ShardId(1));
            let read = RemoteRead {
                reader,
                owner,
                key: 1000 + key,
            };
            txn = txn.with_remote_reads(vec![read]);
        }
        let mut digest = [0; 32];
        digest[0] = id; // distinct `done` fingerprints
        (digest, Arc::new(Batch::new(BatchId(key), vec![txn])))
    }

    fn forward(digest: Digest, batch: &Arc<Batch>, from_shard: u32) -> ForwardMsg {
        ForwardMsg {
            batch: Arc::clone(batch),
            digest,
            from_shard: ShardId(from_shard),
            cert_signers: vec![0, 1, 2, 3, 4],
            deps: Vec::new(),
            hop: 0,
        }
    }

    fn execute(digest: Digest, from_shard: u32) -> ExecuteMsg {
        let from_shard = ShardId(from_shard);
        ExecuteMsg {
            digest,
            from_shard,
            sigma: Vec::new(),
        }
    }

    /// The actions queued so far, one short line each.
    fn log(out: &mut Outbox<RingMsg>) -> Vec<String> {
        let name = |m: &RingMsg| match m {
            RingMsg::Forward(_) => "forward",
            RingMsg::ForwardShare(_) => "forward-share",
            RingMsg::Execute(_) => "execute",
            RingMsg::ExecuteShare(_) => "execute-share",
            RingMsg::RemoteView { .. } => "remote-view",
            RingMsg::RemoteViewShare { .. } => "remote-view-share",
            _ => "other",
        };
        let line = |a: Action<RingMsg>| match a {
            Action::SetTimer { kind, token, .. } => format!("set {kind:?} {token}"),
            Action::CancelTimer { kind, token } => format!("cancel {kind:?} {token}"),
            Action::Send { to, msg } => format!("send {} to {to}", name(&msg)),
            Action::SendMany { tos, msg } => format!("share {} x{}", name(&msg), tos.len()),
            other => format!("{other:?}"),
        };
        out.take().into_iter().map(line).collect()
    }

    #[test]
    fn f_plus_one_distinct_origins_process_a_forward_and_an_execute() {
        // Replica 3 of shard 1 counts origins by the index of the local
        // replica that shared the message (f = 1: two are needed).
        let mut t = tracker(4, r(1, 3));
        let (d, b) = cst(1, true);
        let (mut token, mut out) = (100, Outbox::new());
        let fwd = RingMsg::ForwardShare(forward(d, &b, 0));
        let mut on_forward = |t: &mut CstTracker, from, out: &mut _| {
            t.on_forward(from, &fwd, WATCH, NOW, &mut token, out).0
        };
        assert_eq!(on_forward(&mut t, r(1, 0), &mut out), Next::Wait);
        assert_eq!(log(&mut out), ["set Remote 100"]);
        assert_eq!(on_forward(&mut t, r(1, 0), &mut out), Next::Wait);
        assert!(
            !log(&mut out).contains(&"cancel Remote 100".to_string()),
            "repeat counted"
        );
        // A second origin completes the evidence: this backup watches
        // its primary, which must propose the batch.
        assert_eq!(on_forward(&mut t, r(1, 1), &mut out), Next::Wait);
        assert_eq!(log(&mut out), ["cancel Remote 100", "set Local 100"]);
        assert_eq!(on_forward(&mut t, r(1, 2), &mut out), Next::Wait);
        assert!(out.is_empty(), "processed once");

        // Rotation two, after the commit and the locks.
        assert!(t.commit(7, d, &b, NOW, &mut token, &mut out));
        assert_eq!(t.lock(&d), Some(false), "complex");
        let ex = RingMsg::ExecuteShare(execute(d, 0));
        assert_eq!(t.on_execute(r(1, 0), &ex, &mut out), Next::Wait);
        assert_eq!(t.on_execute(r(1, 0), &ex, &mut out), Next::Wait, "repeat");
        assert_eq!(t.on_execute(r(1, 1), &ex, &mut out), Next::Execute);
        assert_eq!(t.on_execute(r(1, 2), &ex, &mut out), Next::Wait, "once");
    }

    #[test]
    fn a_later_shard_holding_locks_waits_for_execute_evidence() {
        // Shard 1 commits and locks a complex cst before its Forward
        // evidence completes: only Execute evidence starts its fragment.
        let mut t = tracker(4, r(1, 0));
        let (d, b) = cst(1, true);
        let (mut token, mut out) = (100, Outbox::new());
        assert!(t.commit(7, d, &b, NOW, &mut token, &mut out));
        assert_eq!(t.lock(&d), Some(false), "complex");
        let fwd = RingMsg::ForwardShare(forward(d, &b, 0));
        for from in [r(1, 1), r(1, 2)] {
            let next = t.on_forward(from, &fwd, WATCH, NOW, &mut token, &mut out);
            assert_eq!(next, (Next::Wait, None));
        }
        let ex = RingMsg::ExecuteShare(execute(d, 0));
        assert_eq!(t.on_execute(r(1, 1), &ex, &mut out), Next::Wait);
        assert_eq!(t.on_execute(r(1, 2), &ex, &mut out), Next::Execute);
    }

    #[test]
    fn the_remote_timer_is_armed_on_the_first_evidence_only() {
        // f = 2 at n = 7: three origins complete the evidence.
        let mut t = tracker(7, r(1, 6));
        let (d, b) = cst(1, false);
        let (mut token, mut out) = (100, Outbox::new());
        let fwd = RingMsg::ForwardShare(forward(d, &b, 0));
        t.on_forward(r(1, 0), &fwd, WATCH, NOW, &mut token, &mut out);
        assert_eq!(log(&mut out), ["set Remote 100"]);
        t.on_forward(r(1, 1), &fwd, WATCH, NOW, &mut token, &mut out);
        assert!(out.is_empty(), "re-armed by the second origin");
        // It fires: complain to the counterpart in the previous shard.
        assert!(t.remote_timer(100, &mut out));
        assert_eq!(log(&mut out), ["send remote-view to S0r6"]);
        t.on_forward(r(1, 2), &fwd, WATCH, NOW, &mut token, &mut out);
        assert_eq!(log(&mut out), ["cancel Remote 100", "set Local 100"]);
        assert!(!t.remote_timer(100, &mut out), "evidence arrived after all");
        assert_eq!(t.counts().remote_views_sent, 1);
    }

    #[test]
    fn the_initiator_drops_a_forward_for_a_cst_it_does_not_know() {
        // A wrap-around replayed after the cst left `done`.
        let mut t = tracker(4, r(0, 0));
        let (d, b) = cst(1, false);
        let (mut token, mut out) = (100, Outbox::new());
        let fwd = RingMsg::Forward(forward(d, &b, 1));
        let next = t.on_forward(r(1, 0), &fwd, None, NOW, &mut token, &mut out);
        assert_eq!(next, (Next::Wait, None));
        assert!(out.is_empty(), "neither shared nor watched");
        assert_eq!((t.counts().csts_live, token), (0, 100));
        // The same Forward counts once this replica proposed the cst.
        t.open(d, &b, &mut token);
        t.on_forward(r(1, 0), &fwd, None, NOW, &mut token, &mut out);
        assert_eq!(log(&mut out), ["share forward-share x3", "set Remote 100"]);
    }

    #[test]
    fn retransmits_stop_at_max_retransmits() {
        let mut t = tracker(4, r(1, 0));
        let (d, b) = cst(1, true);
        let (mut token, mut out) = (100, Outbox::new());
        assert!(t.commit(7, d, &b, NOW, &mut token, &mut out));
        t.lock(&d);
        t.forward(&d, |_| 9, &mut out);
        assert_eq!(
            log(&mut out),
            [
                "cancel Local 100",
                "send forward to S0r0",
                "set Transmit 100"
            ]
        );
        for _ in 0..MAX_RETRANSMITS {
            t.retransmit(100, |_| 9, &mut out);
            assert_eq!(log(&mut out), ["send forward to S0r0", "set Transmit 100"]);
        }
        t.retransmit(100, |_| 9, &mut out);
        assert!(out.is_empty(), "budget spent");
        let c = t.counts();
        assert_eq!((c.forwards_sent, c.forward_retransmits), (4, 3));
    }

    #[test]
    fn a_complaint_quorum_retransmits_or_forces_one_view_change() {
        // Shard 0 hears from shard 1, the next shard of every cst here.
        let mut t = tracker(4, r(0, 0));
        let (mut token, mut out) = (100, Outbox::new());
        let complain = |t: &mut CstTracker, d, origin, grace, out: &mut _| {
            let msg = RingMsg::RemoteViewShare {
                digest: d,
                from_shard: ShardId(1),
                origin,
            };
            t.complaint(NodeId::Replica(r(0, 1)), &msg, grace, |_| 0, out)
        };
        // Not replicated here: one view change per digest.
        let (a, _) = cst(1, false);
        let direct = RingMsg::RemoteView {
            digest: a,
            from_shard: ShardId(1),
        };
        assert!(!t.complaint(NodeId::Replica(r(1, 0)), &direct, false, |_| 0, &mut out));
        assert_eq!(log(&mut out), ["share remote-view-share x3"]);
        assert!(!complain(&mut t, a, 0, false, &mut out), "repeat");
        assert_eq!(t.counts().complaints_live, 1);
        assert!(complain(&mut t, a, 1, false, &mut out));
        assert_eq!(t.counts().complaints_live, 0);
        assert!(!complain(&mut t, a, 2, false, &mut out));
        assert!(!complain(&mut t, a, 3, false, &mut out), "once per digest");
        // A quorum during grace forces nothing, and is not remembered.
        let (g, _) = cst(2, false);
        assert!(!complain(&mut t, g, 0, true, &mut out));
        assert!(!complain(&mut t, g, 1, true, &mut out));
        assert!(!complain(&mut t, g, 0, false, &mut out));
        assert!(complain(&mut t, g, 1, false, &mut out));
        // Committed and locked here: the Forward was lost on the way.
        let (c, b) = cst(3, false);
        t.open(c, &b, &mut token);
        t.commit(7, c, &b, NOW, &mut token, &mut out);
        t.lock(&c);
        t.retransmit(100, |_| 0, &mut out);
        log(&mut out);
        assert!(!complain(&mut t, c, 0, false, &mut out));
        assert!(!complain(&mut t, c, 1, false, &mut out));
        assert_eq!(log(&mut out), ["send forward to S1r0", "set Transmit 100"]);
        // The complaint gave back one retry: three remain.
        for _ in 0..MAX_RETRANSMITS {
            t.retransmit(100, |_| 0, &mut out);
        }
        assert_eq!(t.counts().forward_retransmits, 4);
    }

    #[test]
    fn install_pruning_keeps_only_csts_committed_above_the_snapshot() {
        let mut t = tracker(4, r(1, 0));
        let (mut token, mut out) = (100, Outbox::new());
        let (below, b1) = cst(1, false);
        let (above, b2) = cst(2, false);
        let (uncommitted, b3) = cst(3, false);
        t.commit(5, below, &b1, NOW, &mut token, &mut out);
        t.commit(15, above, &b2, NOW, &mut token, &mut out);
        let fwd = RingMsg::Forward(forward(uncommitted, &b3, 0));
        t.on_forward(r(0, 0), &fwd, WATCH, NOW, &mut token, &mut out);
        log(&mut out);
        t.installed(10, &mut out);
        assert_eq!(
            log(&mut out),
            [
                "cancel Local 100",
                "cancel Remote 100",
                "cancel Transmit 100",
                "cancel Local 102",
                "cancel Remote 102",
                "cancel Transmit 102"
            ]
        );
        assert_eq!(t.csts.keys().collect::<Vec<_>>(), [&above]);
        assert!(t.done.contains(&below), "finished work is remembered");
        assert!(!t.done.contains(&uncommitted), "unfinished work is not");
        let expiry = t.watch_expired(102, false, Duration(500), &mut out);
        assert_eq!(expiry, WatchExpiry::NotWatched);
    }
}
