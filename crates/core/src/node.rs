//! The RingBFT replica: *process, forward, re-transmit* (§4.2–§5).
//!
//! Each replica composes four substrates:
//!
//! * a [`PbftCore`] for intra-shard consensus (RingBFT is a meta-protocol;
//!   PBFT is the paper's default engine),
//! * the sequence-ordered [`LockManager`] (`k_max` + π, §4.3.5),
//! * a [`KvStore`] partition for deterministic fragment execution,
//! * a [`Ledger`] (partial blockchain, §7).
//!
//! ### Transaction flows
//!
//! **Single-shard** (§4.1): client → primary → PBFT → lock in sequence
//! order → execute → release → reply.
//!
//! **Cross-shard** (Fig 5): the client sends to the primary of the *first
//! involved shard in ring order*. Rotation one: each involved shard runs
//! PBFT, locks the fragment in sequence order, and Forwards the batch
//! (with the commit certificate and accumulated dependency reads) to its
//! same-index counterpart in the next involved shard — the linear
//! communication primitive (§4.3.6).
//!
//! *Simple* csts (no cross-shard read dependencies) complete in **one
//! rotation** (§4.2.1): each shard executes its fragment and releases its
//! locks immediately after local consensus; the wrap-around Forward tells
//! the initiator every shard knows the transaction's fate, and it replies
//! to the client. *Complex* csts hold their locks through rotation one;
//! when the Forward wraps back to the initiator, rotation two propagates
//! Execute messages carrying `Σ`, each shard executing its fragment with
//! the resolved dependencies, releasing locks, and the initiator finally
//! replying to the client.
//!
//! ### Recovery (§5)
//!
//! * per-request **local timers** inside PBFT trigger view changes;
//! * the **transmit timer** re-sends Forward/Execute to the next shard;
//! * the **remote timer** detects starvation of a forwarded cst and sends
//!   `RemoteView` complaints that force a view change in the previous
//!   shard (Fig 6);
//! * clients that time out broadcast their request to the whole shard
//!   (A1); non-primary replicas relay to the primary and watchdog it.

use crate::cst::{CstTracker, Locked, Next};
use crate::exec::execute_batch;
use crate::intake::{Admission, Batcher, ClientTable, WatchExpiry};
use crate::messages::{batch_trace, RingMsg};
use crate::obs::{Phase, ReplicaObs, RingStats};
use ringbft_crypto::Digest;
use ringbft_ledger::{BlockBody, Ledger};
use ringbft_pbft::{PbftConfig, PbftCore, PbftEvent, PbftMsg};
use ringbft_recovery::{
    ChainTransfer, Checkpointer, Durable, HoleFetcher, HoleStats, Recovered, RecoveryEvent,
    RecoveryManager, RecoveryMsg, RecoveryStats, ReplicaWal, Snapshot, Stable, WalEntry,
    HOLE_PROBE_TOKEN, RECOVERY_PROBE_TOKEN,
};
use ringbft_store::{KvStore, LockManager};
use ringbft_types::hole::{HoleReply, HoleRequest};
use ringbft_types::txn::{Batch, Key, Transaction, Value};
use ringbft_types::{
    Action, Duration, Instant, NodeId, Outbox, ReplicaId, SeqNum, ShardId, SystemConfig, TimerKind,
    TraceContext,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// First token value used for RingBFT-level watchdogs, disjoint from PBFT
/// sequence-number tokens.
pub(crate) const TOKEN_BASE: u64 = 1 << 62;
/// Token of the write-ahead-ledger group-commit flush timer (batched
/// durability). `TOKEN_BASE - 1` is the batch-pool flush timer, `- 2` and
/// `- 3` belong to the recovery and hole-fetch probes.
const WAL_FLUSH_TOKEN: u64 = TOKEN_BASE - 4;

#[derive(Debug, Clone)]
enum Work {
    /// A single-shard batch and its committed digest, awaiting
    /// execution once admitted.
    Single(Arc<Batch>, Digest),
    /// A cross-shard batch (state lives in `csts`).
    Cst(Arc<Batch>, Digest),
    /// A duplicate commit of a batch that already committed at an earlier
    /// sequence number (possible when a view change re-proposes a cst the
    /// old primary had already sequenced): its locks are released on
    /// admission so π never wedges behind it.
    Duplicate,
}

/// A RingBFT replica.
pub struct RingReplica {
    cfg: SystemConfig,
    me: ReplicaId,
    pbft: PbftCore,
    locks: LockManager,
    kv: KvStore,
    ledger: Ledger,
    /// Batching pools (primary only).
    batcher: Batcher,
    /// Per-client reply caches and the A1 watches on relayed requests.
    clients: ClientTable,
    /// Locally committed work by sequence number.
    work: BTreeMap<u64, Work>,
    /// Cross-shard transaction state through both ring rotations.
    csts: CstTracker,
    /// Token allocator shared by cst watchdogs and client watches.
    next_token: u64,
    /// When this replica last installed a view (suppresses watchdog-driven
    /// view-change churn: give each new primary a grace period).
    last_view_entry: Instant,
    // --- checkpointing & recovery (§5 A3, `ringbft-recovery`) ---
    /// Execution watermark, checkpoint store, announced windows and
    /// divergence state, with the state-transfer machine they drive.
    ckpt: Checkpointer,
    /// The durable write-ahead ledger, when the host attached one
    /// ([`RingReplica::attach_wal`]). `None` runs exactly the
    /// pre-durability replica (tests, ephemeral sims).
    wal: Option<ReplicaWal>,
    /// Whether the batched-durability flush tick is currently armed
    /// (armed lazily on the first unsynced append, re-armed by the
    /// next one after it fires).
    wal_timer_armed: bool,
    /// The hole-fetch state machine: single-sequence commit-certificate
    /// recovery when the watermark stalls behind the commit frontier.
    hole: HoleFetcher,
    /// When the first watchdog expiry was swallowed while this replica
    /// had not yet committed a single batch (see `allow_solo_vc`).
    pre_commit_vc_defer: Option<Instant>,
    // --- observability (`crate::obs`) ---
    /// The current event time, cached at the public entry points so the
    /// internal paths (which predate wall-time plumbing and still drive
    /// PBFT with `Instant::ZERO`) can stamp phase timers without
    /// threading `now` through every signature.
    obs_now: Instant,
    /// Commit time per locally committed sequence (commit→execute), with
    /// the batch's sampled trace context at this shard's ring position.
    commit_at: HashMap<u64, (Instant, Option<TraceContext>)>,
    /// Registry counters/gauges, phase histograms, and the trace ring.
    obs: ReplicaObs,
}

impl RingReplica {
    /// Creates the replica `me` under system configuration `cfg`.
    /// `init_store` controls whether the key partition is materialized
    /// (large!) or left empty (tests that never execute reads).
    pub fn new(cfg: SystemConfig, me: ReplicaId, init_store: bool) -> Self {
        let shard_cfg = cfg.shard(me.shard);
        let shard_n = shard_cfg.n;
        let pbft = PbftCore::new(
            me,
            PbftConfig {
                n: shard_n,
                checkpoint_interval: cfg.checkpoint_interval,
                local_timeout: cfg.timers.local,
                external_checkpoints: true,
            },
        );
        let kv = if init_store {
            KvStore::init_partition(cfg.key_range(me.shard))
        } else {
            KvStore::new()
        };
        let ckpt = Checkpointer::new(&cfg, me, &kv);
        // Slightly tighter than the state-transfer probe: the first
        // hole request goes out after a third of a timeout (in-flight
        // commits close transient gaps well before that), so a single
        // missing certificate is repaired before any O(state) snapshot
        // transfer starts and before the per-request watchdog would
        // demand a (futile, solo) view change.
        let hole = HoleFetcher::new(me, shard_n, cfg.timers.local / 3);
        RingReplica {
            pbft,
            locks: LockManager::new(),
            kv,
            ledger: Ledger::new(me.shard),
            batcher: Batcher::new(&cfg, me.shard),
            clients: ClientTable::default(),
            work: BTreeMap::new(),
            csts: CstTracker::new(&cfg, me),
            next_token: TOKEN_BASE,
            last_view_entry: Instant::ZERO,
            ckpt,
            wal: None,
            wal_timer_armed: false,
            hole,
            pre_commit_vc_defer: None,
            obs_now: Instant::ZERO,
            commit_at: HashMap::new(),
            obs: ReplicaObs::new(),
            cfg,
            me,
        }
    }

    /// Attaches a durable write-ahead ledger and — when the replayed log
    /// holds a checkpoint chain — restores the replica to its tip:
    /// store, watermark, locks, ledger position and PBFT stable floor,
    /// exactly the state swap a verified snapshot install performs. The
    /// live tail beyond the recovered tip re-enters via the ordinary
    /// delta-chain transfer (O(gap), not O(state)).
    ///
    /// Must be called right after construction, before any traffic.
    pub fn attach_wal(&mut self, wal: ReplicaWal, recovered: &Recovered) {
        assert!(self.wal.is_none(), "wal attached twice");
        assert!(
            self.ckpt.watermark() == 0 && self.work.is_empty(),
            "wal attached after traffic"
        );
        if let Some(tip) = recovered.fold(self.me.shard) {
            let (seq, height, head) = (tip.seq, tip.ledger_height, tip.ledger_head);
            let kv = self.ckpt.restore_log(tip, recovered);
            self.restore_state(kv, seq, height, head);
            self.obs.trace.push(
                self.obs_now.as_nanos(),
                "wal_restore",
                &[("seq", seq), ("durable_seq", recovered.durable_seq)],
            );
        }
        self.wal = Some(wal);
    }

    /// Moves the live state to checkpoint `seq` after the checkpoint
    /// state was restored: the store copy, PBFT stable floor, lock
    /// admission and ledger position.
    fn restore_state(&mut self, kv: KvStore, seq: u64, ledger_height: u64, ledger_head: Digest) {
        self.kv = kv;
        // Sequences the checkpoint subsumes are settled: stand their
        // PBFT watchdogs down (a weak-certificate install can land
        // ahead of the engine's own stable observations).
        self.pbft.install_stable_floor(SeqNum(seq));
        self.locks = LockManager::starting_at(seq);
        self.ledger = Ledger::from_checkpoint(self.me.shard, ledger_height, ledger_head);
    }

    /// The attached write-ahead ledger, for diagnostics (bytes, syncs).
    pub fn wal(&self) -> Option<&ReplicaWal> {
        self.wal.as_ref()
    }

    /// True while this replica has rolled back a diverged checkpoint
    /// window and awaits quorum state.
    pub fn is_diverged(&self) -> bool {
        self.ckpt.is_diverged()
    }

    /// Clean shutdown: appends the close marker and syncs, so the next
    /// open replays with `clean_close == true` and no torn tail (and no
    /// flush tick to arm).
    pub fn close_wal(&mut self) {
        self.wal_write(|w| w.close(), &mut Outbox::new());
    }

    /// Test hook: corrupts this replica's executed and checkpoint
    /// state in place (modeling a bit-flipped or Byzantine executor),
    /// so the next checkpoint window announces a diverging digest.
    pub fn corrupt_store_for_test(&mut self, key: Key) {
        self.kv.put(key, 0xDEAD_BEEF);
        self.ckpt.corrupt_for_test(key, 0xDEAD_BEEF);
    }

    /// Runs one write against the durable log (no-op without one),
    /// tracing a failure and arming the group-commit flush tick when
    /// the write left unsynced bytes (a full-snapshot compaction syncs
    /// itself and leaves none).
    fn wal_write(
        &mut self,
        write: impl FnOnce(&mut ReplicaWal) -> std::io::Result<()>,
        out: &mut Outbox<RingMsg>,
    ) {
        let Some(w) = self.wal.as_mut() else { return };
        if write(w).is_err() {
            self.obs
                .trace
                .push(self.obs_now.as_nanos(), "wal_error", &[]);
            return;
        }
        if !self.wal_timer_armed && w.dirty() {
            if let Some(interval) = w.durability().batch_interval() {
                self.wal_timer_armed = true;
                out.set_timer(TimerKind::Client, WAL_FLUSH_TOKEN, interval);
            }
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// The shard's current PBFT view.
    pub fn view(&self) -> ringbft_types::ViewNum {
        self.pbft.view()
    }

    /// Is this replica its shard's current primary?
    pub fn is_primary(&self) -> bool {
        self.pbft.is_primary()
    }

    /// The ledger (post-run inspection).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The key-value store (post-run inspection).
    pub fn store(&self) -> &KvStore {
        &self.kv
    }

    /// The lock manager (post-run inspection).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    /// Highest sequence number through which every sequence has executed
    /// (the checkpoint watermark).
    pub fn exec_watermark(&self) -> u64 {
        self.ckpt.watermark()
    }

    /// The last stable checkpoint sequence of the embedded PBFT engine.
    pub fn last_stable_seq(&self) -> u64 {
        self.pbft.last_stable().0
    }

    /// The sequence of this replica's own checkpoint store (what its
    /// last announced checkpoint covered).
    pub fn checkpoint_seq(&self) -> u64 {
        self.ckpt.seq()
    }

    /// The state digest of the checkpoint store at its sequence — equal
    /// across replicas that announced the same checkpoint sequence
    /// (post-run convergence checks). Read off the digest accumulator:
    /// O(1) in the size of the store.
    pub fn checkpoint_digest(&self) -> Digest {
        self.ckpt.store().digest(self.me.shard, self.ckpt.seq())
    }

    /// State-transfer counters (installs, transfers served, …).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.ckpt.recovery().stats
    }

    /// Hole-fetch counters (requests, certificates served, holes
    /// filled, forged replies rejected).
    pub fn hole_stats(&self) -> HoleStats {
        self.hole.stats
    }

    /// Legacy counter snapshot, built from the metrics registry — the
    /// registry in [`RingReplica::obs`] is the source of truth; this
    /// shape survives for tests and existing call sites.
    pub fn stats(&self) -> RingStats {
        self.obs.stats()
    }

    /// Observability instruments: the metric registry, per-phase latency
    /// histograms, and the event-trace ring.
    pub fn obs(&self) -> &ReplicaObs {
        &self.obs
    }

    /// All instruments as one stable JSON object.
    pub fn metrics_json(&self) -> String {
        self.obs.reg.snapshot_json()
    }

    /// The event-trace ring as JSON-lines (oldest first).
    pub fn trace_jsonl(&self) -> String {
        self.obs.trace.dump_jsonl()
    }

    /// May a watchdog expiry demand a view change right now? A replica
    /// that has never committed a live batch cannot tell a dead primary
    /// from its own staleness (a blank restart into a live cluster sees
    /// stale forwarded work long before the first checkpoint vote
    /// arrives at low traffic), so it defers for two further timeout
    /// windows from the first swallowed expiry. By then it has either
    /// committed (gate lifts for good), observed a stable checkpoint it
    /// is behind (`grace` takes over), or the shard is genuinely
    /// stuck and the view change proceeds — bootstrap liveness against
    /// a dead initial primary is delayed, never lost.
    fn allow_solo_vc(&mut self, now: Instant) -> bool {
        if self.pbft.committed_batches > 0 {
            return true;
        }
        let first = *self.pre_commit_vc_defer.get_or_insert(now);
        now.since(first) >= self.pbft.request_timeout() * 2
    }

    /// Watchdogs and complaints hold off view changes for one timeout
    /// after a view entry (else stuck-request bursts churn views faster
    /// than any primary recovers), during one, and while this replica is
    /// behind its shard's stable checkpoint frontier: fetching state,
    /// installed but not yet re-executed past the last stable checkpoint,
    /// or (the restart window) without a single live commit while quorum
    /// checkpoints prove the shard ahead. The work they cover was then
    /// typically finished by the healthy quorum while this replica was
    /// dark, and a solo view-change demand can never gather a quorum — it
    /// would only wedge this replica in a view no peer joins. A fresh
    /// cluster (no stable checkpoint yet) is never behind, so
    /// view-changing a dead initial primary is unaffected.
    fn grace(&self, now: Instant) -> bool {
        (self.last_view_entry > Instant::ZERO
            && now.since(self.last_view_entry) < self.pbft.request_timeout())
            || self.pbft.in_view_change()
            || self.ckpt.recovery().target().is_some()
            || self.ckpt.watermark() < self.pbft.last_stable().0
            || (self.pbft.committed_batches == 0 && self.pbft.last_stable().0 > 0)
    }

    /// Lock sets this shard needs for `batch`: `(reads, writes)`.
    /// Declared write accesses take exclusive locks; owned remote-read
    /// keys take shared locks (their values must stay stable while the
    /// cst is in flight, but concurrent readers do not conflict).
    fn lock_keys(&self, batch: &Batch) -> (Vec<Key>, Vec<Key>) {
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        for t in &batch.txns {
            for op in t.ops.iter().filter(|o| o.shard == self.me.shard) {
                if op.kind.writes() {
                    writes.push(op.key);
                } else {
                    reads.push(op.key);
                }
            }
            for rr in &t.remote_reads {
                if rr.owner == self.me.shard {
                    reads.push(rr.key);
                }
            }
        }
        writes.sort_unstable();
        writes.dedup();
        reads.sort_unstable();
        reads.dedup();
        (reads, writes)
    }

    // ------------------------------------------------------------------
    // Entry points (called by the simulator adapter)
    // ------------------------------------------------------------------

    /// Handles a delivered message.
    pub fn on_message(
        &mut self,
        now: Instant,
        from: NodeId,
        msg: RingMsg,
        out: &mut Outbox<RingMsg>,
    ) {
        self.obs_now = now;
        // PBFT, local shares and state transfer are intra-shard only;
        // replicas ignore client replies.
        let local = matches!(from, NodeId::Replica(r) if r.shard == self.me.shard);
        match (msg, from) {
            (RingMsg::Request { txn, relayed }, _) => self.on_request(txn, relayed, out),
            // Fig 6: no solo-VC deferral here, since the f+1 complaint
            // quorum behind a view change is shared shard-wide.
            (m @ (RingMsg::RemoteView { .. } | RingMsg::RemoteViewShare { .. }), _) => {
                let grace = self.grace(now);
                if self.csts.complaint(from, &m, grace, reader(&self.kv), out) {
                    self.force_view_change(now, out);
                }
            }
            (RingMsg::Pbft(m), NodeId::Replica(r)) if local => {
                self.drive_pbft(
                    now,
                    |pbft, pout, ev| pbft.on_message(now, r, m, pout, ev),
                    out,
                );
            }
            (m @ (RingMsg::Forward(_) | RingMsg::Execute(_)), NodeId::Replica(r)) => {
                self.on_rotation(r, m, out);
            }
            (m @ (RingMsg::ForwardShare(_) | RingMsg::ExecuteShare(_)), NodeId::Replica(r))
                if local =>
            {
                self.on_rotation(r, m, out);
            }
            (RingMsg::Recovery(m), NodeId::Replica(r)) if local && r != self.me => match m {
                RecoveryMsg::HoleRequest(req) => self.on_hole_request(r, req, out),
                RecoveryMsg::HoleReply(reply) => self.on_hole_reply(reply, out),
                other => {
                    if matches!(other, RecoveryMsg::StateRequest { .. }) {
                        // Attach our stable-checkpoint vote to the answer:
                        // a requester that slept through the original vote
                        // traffic collects a weak certificate (§6.2.2) for
                        // the target we can actually serve as its rotating
                        // probe hits f + 1 donors — without it, a transfer
                        // toward our stable tip would never pass its
                        // quorum-anchor admission check.
                        self.revote_checkpoint(r, out);
                    }
                    self.drive_recovery(|mgr, rout| mgr.on_message(r, other, rout), out)
                }
            },
            _ => {}
        }
        self.obs.set_rotation(self.csts.counts());
    }

    /// Handles a timer expiry.
    pub fn on_timer(
        &mut self,
        now: Instant,
        kind: TimerKind,
        token: u64,
        out: &mut Outbox<RingMsg>,
    ) {
        self.obs_now = now;
        match kind {
            TimerKind::Local => {
                let (hold, timeout) = (self.grace(now), self.pbft.request_timeout());
                let expiry = match self.clients.watch_expired(token) {
                    // A1: the primary never ordered a relayed request.
                    // Keep watching: the re-relay on view entry hands it
                    // to the next primary.
                    WatchExpiry::Stuck => {
                        out.set_timer(TimerKind::Local, token, timeout);
                        if hold {
                            WatchExpiry::Settled
                        } else {
                            WatchExpiry::Stuck
                        }
                    }
                    // A forwarded cst the primary failed to propose?
                    WatchExpiry::NotWatched => self.csts.watch_expired(token, hold, timeout, out),
                    settled => settled,
                };
                match expiry {
                    // PBFT-owned token (per-seq watchdog or view-change timer).
                    WatchExpiry::NotWatched => {
                        self.drive_pbft(
                            now,
                            |pbft, pout, ev| pbft.on_timer(kind, token, pout, ev),
                            out,
                        );
                    }
                    WatchExpiry::Stuck if self.allow_solo_vc(now) => {
                        self.force_view_change(now, out);
                    }
                    _ => {}
                }
            }
            TimerKind::Transmit => self.csts.retransmit(token, reader(&self.kv), out),
            TimerKind::Remote => {
                if self.csts.remote_timer(token, out) {
                    self.obs
                        .trace
                        .push(self.obs_now.as_nanos(), "remote_view_sent", &[]);
                }
            }
            TimerKind::Client => {
                if self.batcher.on_timer(token) {
                    self.flush_pools(true, out);
                } else if token == WAL_FLUSH_TOKEN {
                    // Group commit: one sync covers every append since
                    // the tick was armed. The next unsynced append
                    // re-arms it.
                    self.wal_timer_armed = false;
                    self.wal_write(|w| w.flush(), out);
                } else if token == RECOVERY_PROBE_TOKEN {
                    self.drive_recovery(|mgr, rout| mgr.on_probe_timer(rout), out);
                } else if token == HOLE_PROBE_TOKEN {
                    // Re-validate against the live log before asking: the
                    // missing commit may have arrived (or been superseded
                    // by a stable checkpoint) since the last tick.
                    let hole = self.first_hole();
                    self.drive_hole(
                        |f, hout| {
                            match hole {
                                Some(s) => f.set_missing(s, hout),
                                None => f.all_present(),
                            }
                            f.on_probe_timer(hout);
                        },
                        out,
                    );
                }
            }
        }
        self.obs.set_rotation(self.csts.counts());
    }

    // ------------------------------------------------------------------
    // Client requests and batching
    // ------------------------------------------------------------------

    fn on_request(&mut self, txn: Arc<Transaction>, relayed: bool, out: &mut Outbox<RingMsg>) {
        // Per-client replay protection (C&L §4.1): a committed request
        // never re-enters consensus; the last one is answered from the
        // reply cache (the client's reply quorum may have been lost).
        match self.clients.admit(&txn, self.ckpt.watermark()) {
            Admission::New => {}
            Admission::Stale | Admission::Replay(None) => return,
            Admission::Replay(Some((digest, txn_ids))) => {
                let client = txn.client;
                let reply = RingMsg::Reply {
                    client,
                    digest,
                    txn_ids,
                };
                out.send(NodeId::Client(client), reply);
                self.obs.replies_sent(1);
                return;
            }
        }
        let involved = txn.involved_shards();
        let first = self.cfg.ring_order().first(&involved);
        if first != self.me.shard {
            // Fig 5 line 9: route to the first shard in ring order, at
            // its view-0 primary — cross-shard senders do not track remote
            // views and rely on relays (any replica relays client requests
            // to its current primary).
            if !relayed {
                relay(out, ReplicaId::new(first, 0), &txn);
            }
            return;
        }
        if self.pbft.is_primary() {
            if self.batcher.push(&txn, involved, self.obs_now) {
                self.flush_pools(false, out);
                self.batcher.arm_timer(out);
            }
        } else {
            // A1: relay to the primary and watch it.
            relay(
                out,
                ReplicaId::new(self.me.shard, self.pbft.primary_index()),
                &txn,
            );
            if let Some(token) = self.clients.watch(&txn, &mut self.next_token) {
                out.set_timer(TimerKind::Local, token, self.pbft.request_timeout());
            }
        }
    }

    /// Records a phase sample `d`, and a causal span when `trace` marks
    /// the batch as sampled, at this replica's ring position `hop`
    /// (0 = initiator/single-shard).
    fn record_phase(&mut self, p: Phase, d: Duration, trace: Option<TraceContext>, hop: u32) {
        self.obs.phase(p, d);
        if let Some(t) = trace {
            let ctx = TraceContext { hop, ..t };
            self.obs
                .span(self.obs_now, ctx, p, self.me.shard.0, self.me.index, d);
        }
    }

    /// Proposes the batches the batcher cuts (primary only). `force`
    /// flushes partial pools (timer).
    fn flush_pools(&mut self, force: bool, out: &mut Outbox<RingMsg>) {
        if !self.pbft.is_primary() {
            return;
        }
        let pipe_idle = self.pbft.in_flight() == 0;
        for cut in self.batcher.cut(force, pipe_idle, self.obs_now) {
            if cut.adaptive {
                self.obs.batch_adaptive_flushes(1);
            }
            self.record_phase(Phase::Admission, cut.wait, batch_trace(&cut.batch), 0);
            if cut.batch.involved_shards().len() > 1 {
                let digest = ringbft_pbft::batch_digest(&cut.batch);
                self.csts.open(digest, &cut.batch, &mut self.next_token);
            }
            self.propose(cut.batch, out);
        }
    }

    // ------------------------------------------------------------------
    // PBFT plumbing
    // ------------------------------------------------------------------

    /// Runs a closure against the PBFT core, translating its actions into
    /// `RingMsg`s and processing its events. Returns the closure's result.
    fn drive_pbft<R, F>(&mut self, now: Instant, f: F, out: &mut Outbox<RingMsg>) -> R
    where
        F: FnOnce(&mut PbftCore, &mut Outbox<PbftMsg>, &mut Vec<PbftEvent>) -> R,
    {
        let mut pout = Outbox::new();
        let mut events = Vec::new();
        let result = f(&mut self.pbft, &mut pout, &mut events);
        // Preprepare acceptance is internal to the engine; its outward
        // witness is the traffic. Log each ordered slot once.
        let actions = pout.take();
        let accepted = match self.wal {
            Some(_) => accepted_slots(&actions),
            None => Vec::new(),
        };
        lift(out, actions, RingMsg::Pbft);
        for (view, seq, digest) in accepted {
            self.wal_write(
                |w| w.append(&WalEntry::Preprepare { view, seq, digest }),
                out,
            );
        }
        for event in events {
            self.on_pbft_event(now, event, out);
        }
        result
    }

    /// Proposes `batch` through the PBFT core (primary only).
    fn propose(&mut self, batch: Arc<Batch>, out: &mut Outbox<RingMsg>) {
        // The PBFT core does not use wall time.
        self.drive_pbft(
            Instant::ZERO,
            |pbft, pout, ev| pbft.propose(batch, pout, ev),
            out,
        );
    }

    /// Demands a view change of the local PBFT instance.
    fn force_view_change(&mut self, now: Instant, out: &mut Outbox<RingMsg>) {
        self.drive_pbft(now, |pbft, pout, ev| pbft.force_view_change(pout, ev), out);
    }

    fn on_pbft_event(&mut self, now: Instant, event: PbftEvent, out: &mut Outbox<RingMsg>) {
        match event {
            PbftEvent::Committed {
                seq, digest, batch, ..
            } => self.on_local_commit(seq, digest, batch, out),
            PbftEvent::EnteredView { view } => {
                self.last_view_entry = now;
                self.obs
                    .trace
                    .push(now.as_nanos(), "view_entered", &[("view", view.0)]);
                out.view_changed(view.0);
                self.on_entered_view(out);
            }
            PbftEvent::CheckpointDue { seq } => {
                self.ckpt.checkpoint_due(seq.0);
                self.try_announce_checkpoints(out);
            }
            PbftEvent::StableCheckpoint { seq, state_digest } => {
                self.on_stable_checkpoint(seq.0, state_digest, out);
            }
            PbftEvent::CheckpointEvidence { seq, state_digest } => {
                self.on_checkpoint_evidence(seq.0, state_digest, out);
            }
        }
    }

    /// `f + 1` distinct replicas voted the same checkpoint digest — a
    /// weak certificate (Castro & Liskov §6.2.2): at least one voter is
    /// correct, so state carrying this digest is a correct replica's
    /// state and safe to fetch. Acted on only when this replica lags a
    /// full checkpoint window behind the evidenced boundary: closer
    /// gaps are hole-fetchable (donors retain one extra window of
    /// certificates), and a healthy mid-window replica must not start
    /// transfers on every passing vote. This unwedges the cadence
    /// deadlock where a crash exhausts `f` while this replica lags —
    /// no *new* checkpoint can then stabilize, the original votes are
    /// never retransmitted, and without the weak path the replica
    /// would never learn a fetchable target.
    fn on_checkpoint_evidence(&mut self, seq: u64, digest: Digest, out: &mut Outbox<RingMsg>) {
        let watermark = self.ckpt.watermark();
        if seq <= watermark {
            return;
        }
        self.obs.trace.push(
            self.obs_now.as_nanos(),
            "checkpoint_evidence",
            &[("seq", seq)],
        );
        if self.ckpt.voted(seq) == Some(digest) {
            return; // our own state reaches it; no transfer needed
        }
        // Register the weakly-certified digest unconditionally: inbound
        // transfers are verified against it, and a donor whose *stable*
        // tip trails the evidenced boundary serves chains toward the
        // tip — those must stay admissible. Only a full-window lag arms
        // the transfer probe (see above).
        self.ckpt.recovery_mut().note_stable(seq, digest);
        if seq - watermark >= self.cfg.checkpoint_interval {
            self.drive_recovery(|mgr, rout| mgr.set_behind(seq, watermark, rout), out);
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing and state transfer (§5 A3, `ringbft-recovery`)
    // ------------------------------------------------------------------

    /// Runs a closure against the recovery manager, lifting its actions
    /// into the RingBFT message space and applying install events.
    fn drive_recovery<F>(&mut self, f: F, out: &mut Outbox<RingMsg>)
    where
        F: FnOnce(&mut RecoveryManager, &mut Outbox<RecoveryMsg>),
    {
        let mut rout = Outbox::new();
        f(self.ckpt.recovery_mut(), &mut rout);
        lift(out, rout.take(), RingMsg::Recovery);
        for event in self.ckpt.recovery_mut().take_events() {
            match event {
                RecoveryEvent::InstallChain(transfer) => self.install_chain(transfer, out),
            }
        }
        // Mirror the transfer-byte accounting into the replica's own
        // gauges (full vs delta — surfaced by the bench harness).
        let stats = self.ckpt.recovery().stats;
        self.obs
            .set_state_bytes(stats.bytes_full, stats.bytes_delta);
    }

    // ------------------------------------------------------------------
    // Hole fetch: single-sequence commit-certificate recovery
    // ------------------------------------------------------------------

    /// Runs a closure against the hole fetcher, lifting its actions into
    /// the RingBFT message space.
    fn drive_hole<F>(&mut self, f: F, out: &mut Outbox<RingMsg>)
    where
        F: FnOnce(&mut HoleFetcher, &mut Outbox<RecoveryMsg>),
    {
        let mut hout = Outbox::new();
        f(&mut self.hole, &mut hout);
        lift(out, hout.take(), RingMsg::Recovery);
    }

    /// The earliest *hole*: a sequence above the execution watermark
    /// (and above the last stable checkpoint — donors prune their logs
    /// there, and state transfer owns everything a stable snapshot
    /// covers), below the local commit frontier, that never committed
    /// here. Such a sequence wedges sequence-ordered lock admission
    /// (and with it the checkpoint watermark) until it is filled —
    /// later commits prove the shard's quorum decided it, so the
    /// certificate exists at `f + 1` correct peers and can simply be
    /// fetched. Holes *above* the stable checkpoint are pursued even
    /// while a state transfer toward that checkpoint runs: one
    /// certificate is O(batch) where a snapshot is O(state), so the
    /// cheap repair races ahead and the state transfer cancels itself
    /// once the watermark catches up.
    fn first_hole(&self) -> Option<u64> {
        let frontier = self.pbft.max_committed_seq();
        // Holes at or below our own stable checkpoint are not holes:
        // the commit is subsumed by quorum-agreed state, the engine
        // refuses to install it, and state transfer covers it. (The
        // donor-side extra retention window exists for the converse
        // lag: a donor whose checkpoint stabilized *before* ours can
        // still serve sequences its GC would otherwise have pruned.)
        // Above that floor the earliest hole is simply the end of the
        // contiguous-commit prefix — O(1), so this can run on every
        // commit without making the hot path scale with the gap. Wide
        // gaps are fetched too (sequentially, burst-paced on install):
        // when more than `f` replicas gape, no checkpoint can stabilize
        // to trigger state transfer, and hole fetch is the only way the
        // cadence deadlock unwinds.
        let floor = self.ckpt.watermark().max(self.pbft.last_stable().0);
        let candidate = self.pbft.committed_through().max(floor) + 1;
        (candidate < frontier).then_some(candidate)
    }

    /// Re-points the hole fetcher at the current first hole (arming its
    /// probe), or stands it down when every sequence up to the frontier
    /// is committed locally. Called whenever the commit frontier or the
    /// watermark moves.
    fn update_hole_probe(&mut self, out: &mut Outbox<RingMsg>) {
        match self.first_hole() {
            Some(s) => self.drive_hole(|f, hout| f.set_missing(s, hout), out),
            None => self.hole.all_present(),
        }
    }

    /// A same-shard peer asked for the commit certificate of a sequence
    /// it is missing. Serve it straight from the PBFT message log (the
    /// log keeps every instance above the last stable checkpoint, so any
    /// hole a peer can legitimately have is still servable). No
    /// certificate — never committed here, or already GC'd — means we
    /// stay silent and the requester's probe rotates to the next donor.
    fn on_hole_request(&mut self, from: ReplicaId, req: HoleRequest, out: &mut Outbox<RingMsg>) {
        if let Some(reply) = self.pbft.commit_certificate(req.seq) {
            self.hole.stats.replies_served += 1;
            self.trace_hole("hole_serve", req.seq.0, batch_trace(&reply.batch));
            out.send(
                NodeId::Replica(from),
                RingMsg::Recovery(RecoveryMsg::HoleReply(reply)),
            );
        } else if req.seq.0 <= self.pbft.last_stable().0 {
            // The requested certificate is subsumed (and GC'd) by a
            // stable checkpoint the requester evidently missed the
            // votes for. Checkpoint votes are never retransmitted on
            // their own, so re-send ours: f + 1 donors answering the
            // rotating probe give the requester a weak certificate
            // (§6.2.2) to anchor a state transfer on — without this, a
            // shard whose cadence wedged (crash + laggard exhausting
            // `f`) leaves the laggard dark forever.
            self.revote_checkpoint(from, out);
        }
    }

    /// Re-sends our stable-checkpoint vote to `to` (votes are never
    /// retransmitted on their own).
    fn revote_checkpoint(&self, to: ReplicaId, out: &mut Outbox<RingMsg>) {
        if let Some((seq, state_digest)) = self.pbft.stable_checkpoint_revote() {
            let vote = PbftMsg::Checkpoint { seq, state_digest };
            out.send(NodeId::Replica(to), RingMsg::Pbft(vote));
        }
    }

    /// Traces a hole-fetch event at `seq`, correlated with the victim's
    /// cst timeline when the batch carries a sampled transaction.
    fn trace_hole(&mut self, event: &'static str, seq: u64, trace: Option<TraceContext>) {
        let now = self.obs_now.as_nanos();
        match trace {
            Some(t) => self
                .obs
                .trace
                .push(now, event, &[("seq", seq), ("trace", t.trace_id)]),
            None => self.obs.trace.push(now, event, &[("seq", seq)]),
        }
    }

    /// A donor answered with a certificate + batch: verify the
    /// `nf`-strong certificate and the batch digest, then install the
    /// commit through the PBFT engine so the normal admission path
    /// (locks in sequence order, execution, checkpoint watermark) runs
    /// exactly as if the quorum traffic had arrived live. A forged or
    /// corrupt reply is counted and dropped — never installed — and the
    /// probe keeps rotating donors.
    fn on_hole_reply(&mut self, reply: HoleReply, out: &mut Outbox<RingMsg>) {
        if self.hole.missing() != Some(reply.cert.seq.0) {
            return; // unsolicited or stale
        }
        let n = self.cfg.shard(self.me.shard).n;
        if ringbft_pbft::verify_hole_reply(n, &reply).is_err() {
            self.hole.stats.bad_replies += 1;
            return;
        }
        let reply_seq = reply.cert.seq.0;
        let reply_trace = batch_trace(&reply.batch);
        let installed = self.drive_pbft(
            Instant::ZERO,
            |pbft, pout, ev| pbft.install_certified_commit(reply, pout, ev),
            out,
        );
        if installed {
            self.hole.stats.holes_filled += 1;
            self.trace_hole("hole_filled", reply_seq, reply_trace);
        }
        self.update_hole_probe(out);
        // Burst pacing: a multi-sequence gap (partitioned replica whose
        // shard cannot stabilize a checkpoint while > f peers gape)
        // repairs at round-trip pace instead of one probe tick per
        // sequence.
        if installed && self.hole.missing().is_some() {
            self.drive_hole(|f, hout| f.fetch_now(hout), out);
        }
    }

    /// Records that `seq` executed with the given write effects, advances
    /// the contiguous watermark, and releases any checkpoint waiting on
    /// it.
    fn mark_executed(&mut self, seq: u64, writes: Vec<(Key, Value)>, out: &mut Outbox<RingMsg>) {
        if !self.ckpt.executed(seq, writes) {
            return;
        }
        if let Some((t0, trace)) = self.commit_at.remove(&seq) {
            let hop = trace.map_or(0, |t| t.hop);
            self.record_phase(Phase::CommitExecute, self.obs_now.since(t0), trace, hop);
        }
        self.try_announce_checkpoints(out);
    }

    /// Announces every due checkpoint the watermark has reached and
    /// votes its digest via the PBFT engine.
    fn try_announce_checkpoints(&mut self, out: &mut Outbox<RingMsg>) {
        loop {
            let started = std::time::Instant::now();
            let ledger = &self.ledger;
            let Some(vote) = self
                .ckpt
                .announce_next(|| (ledger.height() as u64, ledger.head_hash()))
            else {
                return;
            };
            let (seq, digest) = (vote.seq, vote.digest);
            self.obs
                .trace
                .push(self.obs_now.as_nanos(), "checkpoint_vote", &[("seq", seq)]);
            // Persist the vote (diagnostics: a diverged replica's log
            // shows exactly which window went wrong). The state itself
            // is persisted only once the window is quorum-stable.
            self.wal_write(|w| w.append(&WalEntry::CheckpointVote { seq, digest }), out);
            self.obs
                .checkpoint(started.elapsed().as_nanos() as u64, vote.dirty_keys);
            self.drive_pbft(
                Instant::ZERO,
                |pbft, pout, ev| pbft.announce_checkpoint(SeqNum(seq), digest, pout, ev),
                out,
            );
        }
    }

    /// A checkpoint gathered its `nf` matching votes: garbage-collect up
    /// to it when we hold the state, or start catch-up when we are the
    /// replica in the dark.
    fn on_stable_checkpoint(&mut self, seq: u64, digest: Digest, out: &mut Outbox<RingMsg>) {
        // The stable floor moved: holes at or below it are settled by
        // quorum state (the engine refuses their install; state
        // transfer covers them) — re-point or stand down.
        self.update_hole_probe(out);
        match self.ckpt.on_stable(seq, digest) {
            Stable::Won(windows) => {
                // Quorum-verified state goes durable here — never at
                // announce time, so a divergent window can never poison
                // the restart path.
                for window in windows {
                    match window {
                        Durable::Delta(d) => self.wal_write(|w| w.append_delta(&d), out),
                        Durable::Full(f) => self.wal_write(|w| w.append_full(&f), out),
                    }
                }
                self.ledger.prune_through_seq(seq);
                // The replay-dedup set keeps two extra checkpoint windows
                // of finished digests: peers' writer queues can redeliver
                // a just-finished cst's Forward shortly after the
                // boundary, and a fresh set would let it re-enter
                // consensus and re-execute.
                self.csts.rotate_done();
                self.obs.trace.push(
                    self.obs_now.as_nanos(),
                    "checkpoint_stable",
                    &[("seq", seq)],
                );
                // Reply-cache backstop: the cache is O(active clients),
                // but a client population that churns (hosts leaving,
                // id ranges rotating) would still accrete entries —
                // evict clients idle for two whole windows and count
                // the reclaims.
                let horizon = seq.saturating_sub(2 * self.cfg.checkpoint_interval);
                let evicted = self.clients.evict_idle(horizon);
                self.obs.reply_cache_evictions(evicted as u64);
            }
            Stable::Lost => {
                // Our digest lost the vote: this replica's executed state
                // disagrees with the checkpoint quorum. Deterministic
                // execution makes this unreachable for a correct replica,
                // so *everything* local is suspect. Roll the checkpoint
                // state back and force a full-snapshot transfer of the
                // quorum state that replaces the store wholesale.
                self.ckpt.roll_back();
                self.obs.checkpoint_divergences(1);
                self.obs.trace.push(
                    self.obs_now.as_nanos(),
                    "checkpoint_divergence",
                    &[("seq", seq)],
                );
                // Arm the transfer with a floor just below the quorum
                // checkpoint: the local watermark is meaningless now (it
                // counts corrupt executions), and it stops being reported
                // while diverged so the catch-up race cannot cancel the
                // refetch.
                let floor = seq.saturating_sub(1);
                self.drive_recovery(|mgr, rout| mgr.set_behind(seq, floor, rout), out);
            }
            // In the dark (blank restart, long partition): arm the probe.
            // The delay gives an in-flight replica time to catch up by
            // itself before any state is moved. A *small* hole above the
            // new stable floor stays with the hole fetcher (cheaper
            // repair); it races this state transfer and whichever
            // finishes first cancels the other.
            Stable::Behind(watermark) => {
                self.drive_recovery(|mgr, rout| mgr.set_behind(seq, watermark, rout), out);
            }
            Stable::Current => {} // a vote we did not join; state is current
        }
    }

    /// A state transfer finished reassembly: fold the chain onto this
    /// replica's own checkpoint store, verify every link's chained
    /// digest against the quorum anchors, and install the result. A
    /// corrupted or mismatched chain is rejected here — nothing of it
    /// ever reaches the store — and the next request falls back to the
    /// full-snapshot path while the probe rotates donors.
    fn install_chain(&mut self, transfer: ChainTransfer, out: &mut Outbox<RingMsg>) {
        let Some(snap) = self.ckpt.fold_chain(&transfer) else {
            return;
        };
        let delta_only = transfer.is_delta_only();
        if self.install_snapshot(snap, transfer.target_digest, out) {
            self.ckpt.recovery_mut().confirm_install(delta_only);
        } else {
            self.ckpt.recovery_mut().verified_not_installed();
        }
    }

    /// Installs a verified snapshot: replaces store, locks and ledger,
    /// fast-forwards the watermark, and replays the committed tail.
    /// `digest` is the snapshot's (quorum-stable) full-state digest.
    /// Returns false when the install was refused because it raced
    /// local progress.
    fn install_snapshot(
        &mut self,
        snap: Snapshot,
        digest: Digest,
        out: &mut Outbox<RingMsg>,
    ) -> bool {
        // Refuse while local progress reaches the snapshot or state
        // *beyond* it exists locally — the install would erase effects
        // later sequences already derived from. State at or below the
        // snapshot (including complex csts wedged holding locks because
        // their ring partners moved on — the exact laggards A3 is
        // about) is superseded and installs over it. A diverged replica
        // takes the quorum snapshot unconditionally: the progress these
        // checks protect is corrupt, and the install may legitimately
        // move the watermark *backward*.
        if !self.ckpt.is_diverged()
            && (self.ckpt.reached(snap.seq)
                || self.locks.max_held_seq().is_some_and(|s| s > snap.seq))
        {
            return false;
        }
        let seq = snap.seq;
        let kv = self.ckpt.restore_snapshot(&snap, digest);
        self.restore_state(kv, seq, snap.ledger_height, snap.ledger_head);
        self.csts.installed(seq, out);
        self.work.retain(|s, _| *s > seq);
        // Commit→execute clocks for subsumed sequences never close.
        self.commit_at.retain(|s, _| *s > seq);
        self.obs
            .trace
            .push(self.obs_now.as_nanos(), "snapshot_install", &[("seq", seq)]);
        // Replay the ledger tail: re-offer every committed-but-unadmitted
        // sequence above the checkpoint in order; execution follows the
        // normal admission path.
        let mut seqs: Vec<u64> = self.work.keys().copied().collect();
        seqs.sort_unstable();
        for s in seqs {
            let (reads, writes) = match self.work.get(&s) {
                Some(Work::Single(b, _) | Work::Cst(b, _)) => self.lock_keys(b),
                Some(Work::Duplicate) | None => (Vec::new(), Vec::new()),
            };
            let admitted = self.locks.commit_rw(s, reads, writes);
            for a in admitted.acquired {
                self.on_admitted(a, out);
            }
        }
        // The installed snapshot becomes servable to the next laggard (a
        // fresh chain base — future deltas chain onto it).
        let snap = Arc::new(snap);
        if self.ckpt.finish_install(Arc::clone(&snap), digest) {
            // Quorum state replaced the corrupt store wholesale: the
            // rollback is complete and normal admission resumes. The
            // window between the old (corrupt) frontier and this
            // checkpoint re-enters via the next stable window's delta
            // transfer, like any laggard.
            self.obs.trace.push(
                self.obs_now.as_nanos(),
                "divergence_repaired",
                &[("seq", seq)],
            );
        }
        // A verified quorum snapshot is the strongest restart point the
        // log can hold: compact down to it.
        self.wal_write(|w| w.append_full(&snap), out);
        self.try_announce_checkpoints(out);
        true
    }

    fn on_local_commit(
        &mut self,
        seq: SeqNum,
        digest: Digest,
        batch: Arc<Batch>,
        out: &mut Outbox<RingMsg>,
    ) {
        // The durable tail: a restart replays these markers to learn how
        // far past its last checkpoint this replica had committed.
        self.wal_write(|w| w.append(&WalEntry::Commit { seq: seq.0, digest }), out);
        // Cancel A1 watchdogs for the ordered transactions and advance
        // the per-client replay horizon.
        for t in &batch.txns {
            self.batcher.committed(t.id);
            if let Some(token) = self.clients.commit(t.client, t.id, seq.0) {
                out.cancel_timer(TimerKind::Local, token);
            }
        }
        // Consensus latency for this slot: first preprepare/vote seen →
        // local commit; the commit→execute clock starts here.
        let hop = self.csts.hop(&digest);
        if let Some(t0) = self.pbft.consensus_started_at(seq) {
            let d = self.obs_now.since(t0);
            self.record_phase(Phase::PreprepareCommit, d, batch_trace(&batch), hop);
        }
        // The sampled context (at this shard's ring position) rides with
        // the clock so `mark_executed` can stamp commit→execute.
        let trace = batch_trace(&batch).map(|t| TraceContext { hop, ..t });
        self.commit_at.insert(seq.0, (self.obs_now, trace));
        let work = if batch.involved_shards().len() <= 1 {
            Work::Single(Arc::clone(&batch), digest)
        } else if self.csts.commit(
            seq.0,
            digest,
            &batch,
            self.obs_now,
            &mut self.next_token,
            out,
        ) {
            Work::Cst(Arc::clone(&batch), digest)
        } else {
            // Already committed at another sequence number (view-change
            // double proposal): this slot only advances the lock order.
            Work::Duplicate
        };
        self.work.insert(seq.0, work);
        let (reads, writes) = self.lock_keys(&batch);
        let admitted = self.locks.commit_rw(seq.0, reads, writes);
        for s in admitted.acquired {
            self.on_admitted(s, out);
        }
        // The commit frontier moved: a gap below it (a sequence whose
        // quorum traffic we missed) is now observable — or a previously
        // detected hole just committed after all.
        self.update_hole_probe(out);
    }

    /// A sequence number acquired its locks: act on the work it carries.
    fn on_admitted(&mut self, seq: u64, out: &mut Outbox<RingMsg>) {
        let Some(work) = self.work.get(&seq).cloned() else {
            return;
        };
        let cst = match work {
            Work::Single(batch, digest) => return self.execute_single(seq, &batch, digest, out),
            Work::Cst(_, digest) => self.csts.lock(&digest).map(|locked| (digest, locked)),
            Work::Duplicate => None,
        };
        let Some((digest, locked)) = cst else {
            // A duplicate slot (or a late duplicate of an executed cst,
            // which must not hold fresh locks) has no new effects; it
            // still advances the checkpoint watermark.
            self.work.remove(&seq);
            self.mark_executed(seq, Vec::new(), out);
            return self.release(seq, out);
        };
        if locked == Locked::Simple {
            // §4.2.1 / §4.3.7: a *simple* cst needs a single rotation —
            // every shard can execute its fragment independently right
            // after locking. Only the fate notification (the Forward)
            // keeps travelling the ring.
            self.execute_cst(digest, out);
        }
        self.csts.forward(&digest, reader(&self.kv), out);
        if locked == Locked::Due {
            self.execute_cst(digest, out);
        }
    }

    /// `seq` is done with its locks: drop its work item, release them,
    /// and act on the sequences that acquire them next.
    fn release(&mut self, seq: u64, out: &mut Outbox<RingMsg>) {
        self.work.remove(&seq);
        for s in self.locks.release(seq).acquired {
            self.on_admitted(s, out);
        }
    }

    /// Executes this shard's locked fragment of `digest`: a simple cst's
    /// on locking, a complex cst's in rotation two (Fig 5 lines 33–37),
    /// which then sends the Execute on. Either way it releases its locks.
    fn execute_cst(&mut self, digest: Digest, out: &mut Outbox<RingMsg>) {
        let Some(frag) = self.csts.start_execution(&digest) else {
            return;
        };
        if let Some(t0) = frag.forwarded_at {
            let (d, hop) = (self.obs_now.since(t0), self.csts.hop(&digest));
            self.record_phase(Phase::CstExecute, d, batch_trace(&frag.batch), hop);
        }
        let writes = execute_batch(&mut self.kv, &frag.batch, self.me.shard, &frag.resolved);
        self.book(
            frag.seq,
            digest,
            &frag.batch,
            frag.batch.involved_shards(),
            out,
        );
        let complex = frag.batch.remote_read_count() > 0;
        let sigma = complex.then(|| writes.clone());
        self.mark_executed(frag.seq, writes, out);
        self.release(frag.seq, out);
        if let Some(writes) = sigma {
            self.csts.executed(&digest, &writes, self.obs_now, out);
        }
    }

    /// Books a batch executed at `seq`: counters, its ledger block and
    /// the `Executed` action.
    fn book(
        &mut self,
        seq: u64,
        digest: Digest,
        batch: &Batch,
        involved: Vec<ShardId>,
        out: &mut Outbox<RingMsg>,
    ) {
        let txns = batch.len() as u32;
        self.obs.executed(txns as u64);
        self.ledger.append(BlockBody {
            seq: SeqNum(seq),
            merkle_root: digest,
            proposer: ReplicaId::new(self.me.shard, self.pbft.primary_index()),
            txn_count: txns,
            involved,
        });
        out.executed(seq, txns);
    }

    /// Executes an admitted single-shard batch in place and books it:
    /// ledger block, checkpoint effects, client replies, and the lock
    /// release that admits successors.
    fn execute_single(
        &mut self,
        seq: u64,
        batch: &Batch,
        digest: Digest,
        out: &mut Outbox<RingMsg>,
    ) {
        self.obs.exec_jobs(1);
        let me = self.me.shard;
        let writes = execute_batch(&mut self.kv, batch, me, &HashMap::new());
        self.book(seq, digest, batch, vec![me], out);
        self.mark_executed(seq, writes, out);
        // Executed and replied at one instant: a zero-length sample.
        self.reply_clients(digest, batch, Some(self.obs_now), out);
        self.release(seq, out);
    }

    /// Replies to the clients of executed `batch`, closing the
    /// execute→reply clock opened at `executed_at` (none for simple
    /// csts, whose reply interval `phase.cst_forward` already times).
    fn reply_clients(
        &mut self,
        digest: Digest,
        batch: &Batch,
        executed_at: Option<Instant>,
        out: &mut Outbox<RingMsg>,
    ) {
        if let Some(t0) = executed_at {
            let d = self.obs_now.since(t0);
            self.record_phase(Phase::ExecuteReply, d, batch_trace(batch), 0);
        }
        for (client, txn_ids) in self.clients.replies(digest, batch, self.ckpt.watermark()) {
            let reply = RingMsg::Reply {
                client,
                digest,
                txn_ids,
            };
            out.send(NodeId::Client(client), reply);
            self.obs.replies_sent(1);
        }
    }

    // ------------------------------------------------------------------
    // Ring rotations (`crate::cst`)
    // ------------------------------------------------------------------

    /// A Forward or Execute, direct or as a local share.
    fn on_rotation(&mut self, from: ReplicaId, msg: RingMsg, out: &mut Outbox<RingMsg>) {
        let watch = (!self.pbft.is_primary()).then(|| self.pbft.request_timeout());
        let (digest, next) = match &msg {
            RingMsg::Forward(fwd) | RingMsg::ForwardShare(fwd) => {
                let (now, token) = (self.obs_now, &mut self.next_token);
                let (next, waited) = self.csts.on_forward(from, &msg, watch, now, token, out);
                if let Some(d) = waited {
                    // Wrap-around at the initiator: the span closes at ring
                    // position 0 even though the Forward travelled the ring.
                    self.record_phase(Phase::CstForward, d, batch_trace(&fwd.batch), 0);
                }
                (fwd.digest, next)
            }
            RingMsg::Execute(ex) | RingMsg::ExecuteShare(ex) => {
                (ex.digest, self.csts.on_execute(from, &msg, out))
            }
            _ => return,
        };
        match next {
            Next::Wait => {}
            Next::Execute => self.execute_cst(digest, out),
            Next::Reply(batch, at) => self.reply_clients(digest, &batch, at, out),
            Next::Propose(batch) => self.propose(batch, out),
        }
    }

    fn on_entered_view(&mut self, out: &mut Outbox<RingMsg>) {
        if !self.pbft.is_primary() {
            self.batcher.demote();
            // Hand every watched (stuck) request to the new primary — the
            // old primary's pool died with it (PBFT view changes carry
            // pending requests forward; here the backups re-relay).
            let primary = ReplicaId::new(self.me.shard, self.pbft.primary_index());
            for txn in self.clients.watched() {
                relay(out, primary, txn);
            }
            return;
        }
        for batch in self.csts.take_stalled() {
            self.propose(batch, out);
        }
        self.csts.forward_all(reader(&self.kv), out);
    }
}

/// Reads this shard's values of remote-read keys for a Forward's
/// dependencies (§8.8).
fn reader(kv: &KvStore) -> impl Fn(Key) -> Value + '_ {
    move |key| kv.get(key).map_or(0, |r| r.value)
}

/// The `(view, seq, digest)` slots PBFT traffic shows this replica
/// accepted — a primary multicasting Preprepare, a backup answering
/// with Prepare — each once, in order.
fn accepted_slots(actions: &[Action<PbftMsg>]) -> Vec<(u64, u64, Digest)> {
    let mut slots = Vec::new();
    for action in actions {
        let (Action::Send { msg, .. } | Action::SendMany { msg, .. }) = action else {
            continue;
        };
        if let PbftMsg::Preprepare {
            view, seq, digest, ..
        }
        | PbftMsg::Prepare { view, seq, digest } = msg
        {
            let slot = (view.0, seq.0, *digest);
            if !slots.contains(&slot) {
                slots.push(slot);
            }
        }
    }
    slots
}

/// Relays client request `txn` to primary `to`.
fn relay(out: &mut Outbox<RingMsg>, to: ReplicaId, txn: &Arc<Transaction>) {
    let txn = Arc::clone(txn);
    out.send(NodeId::Replica(to), RingMsg::Request { txn, relayed: true });
}

/// Lifts a sub-machine's actions (PBFT, state transfer, hole fetch) into
/// the RingBFT message space, in order.
fn lift<M>(out: &mut Outbox<RingMsg>, actions: Vec<Action<M>>, wrap: fn(M) -> RingMsg) {
    for action in actions {
        match action.map_msg(wrap) {
            Action::Send { to, msg } => out.send(to, msg),
            Action::SendMany { tos, msg } => out.send_many(tos, msg),
            Action::SetTimer { kind, token, after } => out.set_timer(kind, token, after),
            Action::CancelTimer { kind, token } => out.cancel_timer(kind, token),
            Action::Executed { seq, txns } => out.executed(seq, txns),
            Action::ViewChanged { view } => out.view_changed(view),
        }
    }
}
