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

use crate::dedup::WindowedDigestSet;
use crate::intake::{Admission, Batcher, ClientTable, WatchExpiry};
use crate::messages::{batch_trace, ExecuteMsg, ForwardMsg, RingMsg};
use crate::obs::{Phase, ReplicaObs};
use crate::pipeline::{InlinePipeline, Pipeline, PipelineJob, ThreadedPipeline};
use ringbft_crypto::Digest;
use ringbft_ledger::{BlockBody, Ledger};
use ringbft_pbft::{PbftConfig, PbftCore, PbftEvent, PbftMsg};
use ringbft_recovery::{
    ChainTransfer, Checkpointer, Durable, HoleFetcher, HoleStats, Recovered, RecoveryEvent,
    RecoveryManager, RecoveryMsg, RecoveryStats, ReplicaWal, Snapshot, Stable, WalEntry,
    HOLE_PROBE_TOKEN, RECOVERY_PROBE_TOKEN,
};
use ringbft_store::{KvStore, LockManager, Record};
use ringbft_types::hole::{HoleReply, HoleRequest};
use ringbft_types::txn::{Batch, Key, Transaction, Value};
use ringbft_types::{
    Action, Duration, Instant, NodeId, Outbox, ReplicaId, RingOrder, SeqNum, ShardId, SystemConfig,
    TimerKind, TraceContext,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// First token value used for RingBFT-level watchdogs, disjoint from PBFT
/// sequence-number tokens.
pub(crate) const TOKEN_BASE: u64 = 1 << 62;
/// Token of the write-ahead-ledger group-commit flush timer (batched
/// durability). `TOKEN_BASE - 1` is the batch-pool flush timer, `- 2` and
/// `- 3` belong to the recovery and hole-fetch probes.
const WAL_FLUSH_TOKEN: u64 = TOKEN_BASE - 4;
/// Maximum Forward/Execute retransmissions (the paper retransmits until
/// fate is known; we cap to bound simulated traffic — see DESIGN.md).
const MAX_RETRANSMITS: u32 = 3;

/// Per-cst replica-local state.
#[derive(Debug)]
struct CstState {
    batch: Arc<Batch>,
    involved: Vec<ShardId>,
    /// Sequence this shard's PBFT assigned the batch.
    local_seq: Option<u64>,
    committed_local: bool,
    /// Locks held (rotation one passed through this shard).
    locked: bool,
    executed: bool,
    /// Distinct previous-shard replica indices whose Forward we saw.
    forward_origins: HashSet<u32>,
    forward_processed: bool,
    /// First Forward payload (kept for sharing and proposal).
    forward_payload: Option<ForwardMsg>,
    /// Distinct previous-shard replica indices whose Execute we saw.
    execute_origins: HashSet<u32>,
    execute_processed: bool,
    /// Accumulated dependency reads (rotation one).
    deps: Vec<(Key, Value)>,
    /// Accumulated `Σ` (rotation two).
    sigma: Vec<(Key, Value)>,
    /// RingBFT-level watchdog token for this cst.
    token: u64,
    retransmits: u32,
    proposed_here: bool,
    /// Phase clocks, which end with the state: local commit at the
    /// initiator (`phase.cst_forward`), Forward evidence complete
    /// (`phase.cst_execute`), and a complex cst's execution at the
    /// initiator (`phase.execute_reply`).
    committed_at: Option<Instant>,
    forwarded_at: Option<Instant>,
    executed_at: Option<Instant>,
}

impl CstState {
    fn new(batch: Arc<Batch>, involved: Vec<ShardId>, token: u64, proposed_here: bool) -> Self {
        CstState {
            batch,
            involved,
            local_seq: None,
            committed_local: false,
            locked: false,
            executed: false,
            forward_origins: HashSet::new(),
            forward_processed: false,
            forward_payload: None,
            execute_origins: HashSet::new(),
            execute_processed: false,
            deps: Vec::new(),
            sigma: Vec::new(),
            token,
            retransmits: 0,
            proposed_here,
            committed_at: None,
            forwarded_at: None,
            executed_at: None,
        }
    }
}

#[derive(Debug, Clone)]
enum Work {
    /// A single-shard batch awaiting execution once admitted.
    Single(Arc<Batch>),
    /// A cross-shard batch (state lives in `csts`).
    Cst(Digest),
    /// A duplicate commit of a batch that already committed at an earlier
    /// sequence number (possible when a view change re-proposes a cst the
    /// old primary had already sequenced): its locks are released on
    /// admission so π never wedges behind it.
    Duplicate,
}

/// An admitted single-shard batch packaged for the execution stage:
/// the batch, the owning shard, and a snapshot of every record the
/// batch touches. The snapshot is stable while the job is in flight —
/// the sequence-ordered [`LockManager`] admits a conflicting sequence
/// only after this one releases — so the job is a pure function and can
/// run off-thread.
pub struct ExecJob {
    seq: u64,
    batch: Arc<Batch>,
    shard: ShardId,
    /// Touched records that exist in the store (missing keys behave as
    /// absent in the job's private store, exactly as inline execution
    /// would see them).
    base: Vec<(Key, Record)>,
    /// Primary index captured at submit: the ledger block records the
    /// proposer of the view the batch committed in.
    proposer: u32,
    /// Submission time: the execute→reply clock closes when the applied
    /// outcome's replies go out, so an async stage's latency shows.
    submitted: Instant,
}

/// Result of an [`ExecJob`]: the job (its snapshot consumed), the batch
/// digest (hashed off-thread) and the ordered write effects to replay
/// onto the authoritative store.
pub struct ExecOutcome {
    job: ExecJob,
    digest: Digest,
    writes: Vec<(Key, Value)>,
}

impl PipelineJob for ExecJob {
    type Output = ExecOutcome;
    fn run(mut self) -> ExecOutcome {
        let digest = ringbft_pbft::batch_digest(&self.batch);
        // A private store seeded with the snapshot: reads (including the
        // read half of RMW ops) observe exactly what inline execution
        // would, and the write effects replay onto the real store in
        // order — `put` bumps versions identically in both places.
        let mut kv = KvStore::new();
        for (k, r) in std::mem::take(&mut self.base) {
            kv.insert_record(k, r);
        }
        let mut writes = Vec::new();
        for txn in &self.batch.txns {
            let result = kv.execute_fragment(txn, self.shard, &[]);
            writes.extend(result.writes);
        }
        ExecOutcome {
            job: self,
            digest,
            writes,
        }
    }
}

/// Counters exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingStats {
    /// Transactions executed by this replica (all fragments).
    pub executed_txns: u64,
    /// Batches fully executed.
    pub executed_batches: u64,
    /// Forward messages sent (including retransmissions).
    pub forwards_sent: u64,
    /// Execute messages sent.
    pub executes_sent: u64,
    /// Remote view-change complaints sent.
    pub remote_views_sent: u64,
    /// Client replies sent.
    pub replies_sent: u64,
    /// Stable checkpoints whose quorum digest disagreed with the digest
    /// this replica announced — evidence of local state divergence
    /// (must stay 0 for correct replicas).
    pub checkpoint_divergences: u64,
    /// Modeled wire bytes of full-snapshot state-transfer chunks this
    /// replica accepted while recovering.
    pub state_bytes_full: u64,
    /// Modeled wire bytes of delta state-transfer chunks this replica
    /// accepted while recovering — under delta checkpointing a laggard's
    /// catch-up should move O(churn), so this stays far below what a
    /// full transfer would cost.
    pub state_bytes_delta: u64,
    /// Per-client reply-cache entries garbage-collected by the 2-window
    /// checkpoint backstop (clients idle for two whole checkpoint
    /// windows). The cache itself is O(active clients); this counts how
    /// often the backstop actually reclaimed a lapsed client.
    pub reply_cache_evictions: u64,
}

/// A RingBFT replica.
pub struct RingReplica {
    cfg: SystemConfig,
    me: ReplicaId,
    ring: RingOrder,
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
    /// Cross-shard transaction state by digest.
    csts: BTreeMap<Digest, CstState>,
    /// Completed digests (late-message dedup): a fixed-memory set whose
    /// generations rotate once per stable checkpoint, so entries survive
    /// at least two full checkpoint windows — the same horizon the old
    /// `HashMap<Digest, SeqNum>` retain-GC enforced, without the
    /// O(window-txns) footprint.
    done: WindowedDigestSet,
    /// Watchdog token → digest.
    token_digest: HashMap<u64, Digest>,
    /// Token allocator shared by cst watchdogs and client watches.
    next_token: u64,
    /// When this replica last installed a view (suppresses watchdog-driven
    /// view-change churn: give each new primary a grace period).
    last_view_entry: Instant,
    /// RemoteView complaints per digest (tracked outside `CstState`: a
    /// suppressing primary means most replicas never built the state).
    remote_complaints: HashMap<Digest, HashSet<u32>>,
    /// Digests whose complaints already forced a view change.
    remote_vc_done: HashSet<Digest>,
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
    // --- execution pipeline (`crate::pipeline`) ---
    /// The execution stage admitted single-shard batches run on. Inline
    /// (deterministic) by default; `cfg.pipeline_workers > 0` installs a
    /// blocking [`ThreadedPipeline`] (same observable event order), and
    /// the real runtime swaps in an async one wired to its reactor
    /// waker via [`RingReplica::install_pipeline`].
    exec_pipeline: Box<dyn Pipeline<ExecJob> + Send>,
    /// Submission order of in-flight exec jobs: outcomes apply strictly
    /// in this order, so conflicting sequences (never in flight
    /// together) retain strict order while disjoint ones overlap.
    exec_inflight: VecDeque<u64>,
    /// Finished outcomes waiting for their turn at the queue front.
    exec_ready: BTreeMap<u64, ExecOutcome>,
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
        let ckpt = Checkpointer::new(&cfg, me, kv.clone());
        // Slightly tighter than the state-transfer probe: the first
        // hole request goes out after a third of a timeout (in-flight
        // commits close transient gaps well before that), so a single
        // missing certificate is repaired before any O(state) snapshot
        // transfer starts and before the per-request watchdog would
        // demand a (futile, solo) view change.
        let hole = HoleFetcher::new(me, shard_n, cfg.timers.local / 3);
        let ring = cfg.ring_order();
        // Blocking mode keeps the observable event order identical to
        // the inline pipeline (the determinism twin test pins this);
        // drivers that can wake the core install an async stage later.
        let exec_pipeline: Box<dyn Pipeline<ExecJob> + Send> = if cfg.pipeline_workers > 0 {
            Box::new(ThreadedPipeline::new("exec", cfg.pipeline_workers).blocking(true))
        } else {
            Box::new(InlinePipeline::new())
        };
        RingReplica {
            ring,
            pbft,
            locks: LockManager::new(),
            kv,
            ledger: Ledger::new(me.shard),
            batcher: Batcher::new(&cfg, me.shard),
            clients: ClientTable::default(),
            work: BTreeMap::new(),
            csts: BTreeMap::new(),
            done: WindowedDigestSet::with_window(cfg.checkpoint_interval),
            token_digest: HashMap::new(),
            next_token: TOKEN_BASE,
            last_view_entry: Instant::ZERO,
            remote_complaints: HashMap::new(),
            remote_vc_done: HashSet::new(),
            ckpt,
            wal: None,
            wal_timer_armed: false,
            hole,
            pre_commit_vc_defer: None,
            obs_now: Instant::ZERO,
            commit_at: HashMap::new(),
            obs: ReplicaObs::new(),
            exec_pipeline,
            exec_inflight: VecDeque::new(),
            exec_ready: BTreeMap::new(),
            cfg,
            me,
        }
    }

    /// Replaces the execution stage. The real runtime installs an async
    /// [`ThreadedPipeline`] wired to its reactor waker right after
    /// construction — before any traffic, so nothing is in flight.
    pub fn install_pipeline(&mut self, p: Box<dyn Pipeline<ExecJob> + Send>) {
        assert!(
            self.exec_inflight.is_empty(),
            "pipeline swapped with work in flight"
        );
        self.exec_pipeline = p;
    }

    /// The execution stage's worker count (0 = inline).
    pub fn pipeline_workers(&self) -> usize {
        self.exec_pipeline.workers()
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

    /// Order-insensitive fingerprint of the checkpoint store — equal
    /// across replicas that announced the same checkpoint sequence
    /// (post-run convergence checks).
    pub fn checkpoint_fingerprint(&self) -> u64 {
        self.ckpt.store().state_fingerprint()
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

    /// Mutable instrument access for drivers that push stage accounting
    /// from outside the protocol (the network runtime's verify stage
    /// reports its queue depth and offload counters here).
    pub fn obs_mut(&mut self) -> &mut ReplicaObs {
        &mut self.obs
    }

    /// All instruments as one stable JSON object.
    pub fn metrics_json(&self) -> String {
        self.obs.reg.snapshot_json()
    }

    /// The event-trace ring as JSON-lines (oldest first).
    pub fn trace_jsonl(&self) -> String {
        self.obs.trace.dump_jsonl()
    }

    fn shard_replicas(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.me;
        let n = self.cfg.shard(me.shard).n as u32;
        (0..n)
            .filter(move |i| *i != me.index)
            .map(move |i| NodeId::Replica(ReplicaId::new(me.shard, i)))
    }

    /// Counterpart of this replica in `shard` under the linear
    /// communication primitive: the replica with the same index, folded
    /// modulo the target shard's size when shards are unequal (§4.3.6).
    fn counterpart(&self, shard: ShardId) -> NodeId {
        let n = self.cfg.shard(shard).n as u32;
        NodeId::Replica(ReplicaId::new(shard, self.me.index % n))
    }

    /// Is this replica behind its shard's stable checkpoint frontier —
    /// actively fetching state, installed but not yet re-executing past
    /// the last stable checkpoint, or (the restart window) not yet
    /// having committed a single live batch even though quorum
    /// checkpoints prove the shard is ahead of it? While catching up,
    /// watchdogs and remote complaints must not demand view changes:
    /// the work they cover was typically finished by the healthy quorum
    /// while this replica was dark, and a solo view-change demand can
    /// never gather a quorum — it would only wedge this replica in a
    /// view no peer joins. A fresh cluster (no stable checkpoint yet)
    /// is never "catching up", so bootstrap liveness — view-changing a
    /// dead initial primary — is unaffected.
    fn catching_up(&self) -> bool {
        self.ckpt.recovery().target().is_some()
            || self.ckpt.watermark() < self.pbft.last_stable().0
            || (self.pbft.committed_batches == 0 && self.pbft.last_stable().0 > 0)
    }

    /// May a watchdog expiry demand a view change right now? A replica
    /// that has never committed a live batch cannot tell a dead primary
    /// from its own staleness (a blank restart into a live cluster sees
    /// stale forwarded work long before the first checkpoint vote
    /// arrives at low traffic), so it defers for two further timeout
    /// windows from the first swallowed expiry. By then it has either
    /// committed (gate lifts for good), observed a stable checkpoint it
    /// is behind (`catching_up` takes over), or the shard is genuinely
    /// stuck and the view change proceeds — bootstrap liveness against
    /// a dead initial primary is delayed, never lost.
    fn allow_solo_vc(&mut self, now: Instant) -> bool {
        if self.pbft.committed_batches > 0 {
            return true;
        }
        let first = *self.pre_commit_vc_defer.get_or_insert(now);
        now.since(first) >= self.pbft.request_timeout() * 2
    }

    fn alloc_token(&mut self, digest: Digest) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        self.token_digest.insert(t, digest);
        t
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
        let msg = match msg {
            RingMsg::Request { txn, relayed } => return self.on_request(txn, relayed, out),
            RingMsg::RemoteViewShare { digest, origin, .. } => {
                return self.on_remote_view(now, digest, origin, out);
            }
            RingMsg::Reply { .. } => return, // replicas ignore client replies
            m => m,
        };
        let NodeId::Replica(r) = from else { return };
        // PBFT, local shares and state transfer are intra-shard only.
        let local = r.shard == self.me.shard;
        match msg {
            RingMsg::Pbft(m) if local => {
                self.drive_pbft(
                    now,
                    |pbft, pout, ev| pbft.on_message(now, r, m, pout, ev),
                    out,
                );
            }
            RingMsg::Forward(fwd) => self.on_forward(r, fwd, true, out),
            RingMsg::ForwardShare(fwd) if local => self.on_forward(r, fwd, false, out),
            RingMsg::Execute(ex) => self.on_execute(r, ex, true, out),
            RingMsg::ExecuteShare(ex) if local => self.on_execute(r, ex, false, out),
            RingMsg::RemoteView { digest, from_shard } => {
                // Locally share the complaint (Fig 6 lines 3–4).
                let share = RingMsg::RemoteViewShare {
                    digest,
                    from_shard,
                    origin: r.index,
                };
                out.multicast(self.shard_replicas(), &share);
                self.on_remote_view(now, digest, r.index, out);
            }
            RingMsg::Recovery(m) if local && r != self.me => match m {
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
                // Grace period: a freshly installed view gets one full
                // timeout to make progress before watchdogs escalate —
                // otherwise bursts of stuck-request watchdogs force
                // view-change churn faster than any primary can recover.
                // A replica catching up to a stable checkpoint gets the
                // same leniency (see `catching_up`).
                let grace = (self.last_view_entry > Instant::ZERO
                    && now.since(self.last_view_entry) < self.pbft.request_timeout())
                    || self.catching_up();
                match self.clients.watch_expired(token) {
                    WatchExpiry::NotWatched => {}
                    WatchExpiry::Settled => return,
                    WatchExpiry::Stuck => {
                        // A1: the primary never ordered a relayed
                        // request. Keep watching: the re-relay on view
                        // entry hands it to the next primary.
                        out.set_timer(TimerKind::Local, token, self.pbft.request_timeout());
                        if !grace && !self.pbft.in_view_change() && self.allow_solo_vc(now) {
                            self.force_view_change(now, out);
                        }
                        return;
                    }
                }
                if let Some(digest) = self.token_digest.get(&token).copied() {
                    // A forwarded cst the primary failed to propose.
                    let stalled = self
                        .csts
                        .get(&digest)
                        .map(|c| !c.committed_local)
                        .unwrap_or(false);
                    if stalled && (grace || self.pbft.in_view_change()) {
                        out.set_timer(TimerKind::Local, token, self.pbft.request_timeout());
                    } else if stalled && self.allow_solo_vc(now) {
                        self.force_view_change(now, out);
                    }
                    return;
                }
                // PBFT-owned token (per-seq watchdog or view-change timer).
                self.drive_pbft(
                    now,
                    |pbft, pout, ev| pbft.on_timer(kind, token, pout, ev),
                    out,
                );
            }
            TimerKind::Transmit => self.on_transmit_timer(token, out),
            TimerKind::Remote => self.on_remote_timer(token, out),
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
        let first = self.ring.first(&involved);
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

    /// This replica's ring position for cst `digest`: 0 at the initiator
    /// shard (even after the wrap-around Forward arrives), received-
    /// Forward hop + 1 downstream. Every span one shard stamps for one
    /// transaction therefore carries the same hop — the shard's position
    /// on the ring — which is what the collector's hop-relative ordering
    /// groups by.
    fn cst_hop(&self, digest: &Digest) -> u32 {
        let Some(s) = self.csts.get(digest) else {
            return 0;
        };
        if self.ring.first(&s.involved) == self.me.shard {
            return 0;
        }
        s.forward_payload
            .as_ref()
            .map(|f| f.hop.saturating_add(1))
            .unwrap_or(0)
    }

    /// Proposes the batches the batcher cuts (primary only). `force`
    /// flushes partial pools (timer).
    fn flush_pools(&mut self, force: bool, out: &mut Outbox<RingMsg>) {
        if !self.pbft.is_primary() {
            return;
        }
        let pipe_idle = self.pbft.in_flight() == 0 && self.exec_inflight.is_empty();
        for cut in self.batcher.cut(force, pipe_idle, self.obs_now) {
            if cut.adaptive {
                self.obs.batch_adaptive_flushes(1);
            }
            self.record_phase(Phase::Admission, cut.wait, batch_trace(&cut.batch), 0);
            let involved = cut.batch.involved_shards();
            if involved.len() > 1 {
                let digest = ringbft_pbft::batch_digest(&cut.batch);
                let token = self.alloc_token(digest);
                let state = CstState::new(Arc::clone(&cut.batch), involved, token, true);
                self.csts.entry(digest).or_insert(state);
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
        // tip — those must stay admissible.
        self.ckpt.recovery_mut().note_stable(seq, digest);
        // But only a full-window lag arms the transfer probe: closer
        // gaps are hole-fetchable (donors retain one extra window of
        // certificates), and a healthy mid-window replica must not
        // start transfers on every passing vote.
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
                self.done.rotate();
                self.obs
                    .set_done_set(self.done.occupancy() as u64, self.done.overwrites());
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
                // so *everything* local is suspect. Settle the execution
                // stage, roll the checkpoint state back, and force a
                // full-snapshot transfer of the quorum state that replaces
                // the store wholesale.
                self.flush_exec(out);
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
        // Settle the execution stage before judging the transfer: an
        // in-flight job may close the very gap this chain targets.
        self.flush_exec(out);
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
        // In-flight exec jobs hold base snapshots of the store this
        // install is about to replace: settle them first.
        self.flush_exec(out);
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
        // Cst state at or below the checkpoint is superseded. Forward
        // state never committed locally (`local_seq` None, no locks) is
        // dropped too, watchdogs included: it usually describes work the
        // shard finished while this replica was dark — and a watchdog
        // for it would demand a view change no healthy peer joins. A
        // genuinely live cst is rebuilt by the sender's retransmission.
        let stale = self.csts.extract_if(.., |_, c| {
            c.local_seq.is_some_and(|s| s <= seq)
                || (c.local_seq.is_none() && !c.locked && !c.executed)
        });
        for (d, c) in stale {
            if c.local_seq.is_some() {
                // Finished work: keep the replay-dedup entry.
                self.done.insert(&d);
            }
            self.token_digest.remove(&c.token);
            out.cancel_timer(TimerKind::Local, c.token);
            out.cancel_timer(TimerKind::Remote, c.token);
            out.cancel_timer(TimerKind::Transmit, c.token);
        }
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
                Some(Work::Single(b)) => self.lock_keys(b),
                Some(Work::Cst(d)) => match self.csts.get(d) {
                    Some(c) => self.lock_keys(&c.batch),
                    None => (Vec::new(), Vec::new()),
                },
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
        if let Some(t0) = self.pbft.consensus_started_at(seq) {
            let (d, hop) = (self.obs_now.since(t0), self.cst_hop(&digest));
            self.record_phase(Phase::PreprepareCommit, d, batch_trace(&batch), hop);
        }
        // The sampled context (at this shard's ring position) rides with
        // the clock so `mark_executed` can stamp commit→execute.
        let trace = batch_trace(&batch).map(|t| TraceContext {
            hop: self.cst_hop(&digest),
            ..t
        });
        self.commit_at.insert(seq.0, (self.obs_now, trace));
        let involved = batch.involved_shards();
        if involved.len() <= 1 {
            self.work.insert(seq.0, Work::Single(Arc::clone(&batch)));
        } else if self.done.contains(&digest)
            || self.csts.get(&digest).is_some_and(|c| c.committed_local)
        {
            // Already committed at another sequence number (view-change
            // double proposal): this slot only advances the lock order.
            self.work.insert(seq.0, Work::Duplicate);
        } else {
            let token = match self.csts.get(&digest) {
                Some(c) => c.token,
                None => self.alloc_token(digest),
            };
            let state = self.csts.entry(digest).or_insert_with(|| {
                CstState::new(Arc::clone(&batch), involved.clone(), token, true)
            });
            state.local_seq = Some(seq.0);
            state.committed_local = true;
            // Cst-forward clock (initiator only: the first shard is the
            // one whose commit opens the ring rotation).
            if self.ring.first(&involved) == self.me.shard {
                state.committed_at = Some(self.obs_now);
            }
            // Cancel the forwarded-request watchdog (primary proposed it).
            out.cancel_timer(TimerKind::Local, state.token);
            self.work.insert(seq.0, Work::Cst(digest));
        }
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
        match work {
            Work::Single(batch) => {
                self.execute_single_shard(seq, &batch, out);
            }
            Work::Duplicate => {
                self.work.remove(&seq);
                // No new effects at this sequence; it still advances the
                // checkpoint watermark.
                self.mark_executed(seq, Vec::new(), out);
                self.release(seq, out);
            }
            Work::Cst(digest) => {
                // Defensive: a cst whose fragment already executed (late
                // duplicate) must not hold fresh locks.
                if self.csts.get(&digest).is_none_or(|s| s.executed) {
                    self.work.remove(&seq);
                    self.mark_executed(seq, Vec::new(), out);
                    self.release(seq, out);
                    return;
                }
                let simple = self
                    .csts
                    .get_mut(&digest)
                    .map(|state| {
                        state.locked = true;
                        state.batch.remote_read_count() == 0
                    })
                    .unwrap_or(false);
                if simple {
                    // §4.2.1 / §4.3.7: a *simple* cst needs a single
                    // rotation — every shard can execute its fragment
                    // independently right after locking, releasing its
                    // locks immediately. Only the fate notification
                    // (the Forward) keeps travelling the ring.
                    self.execute_simple_fragment(digest, out);
                }
                self.send_forward(digest, out);
            }
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

    /// Executes a simple cst's local fragment immediately after locking
    /// (one-rotation path): no dependencies exist, so the fragment result
    /// cannot be affected by other shards, and holding locks through the
    /// ring rotation would only cause needless π-list stalls.
    fn execute_simple_fragment(&mut self, digest: Digest, out: &mut Outbox<RingMsg>) {
        let Some(state) = self.csts.get_mut(&digest) else {
            return;
        };
        if state.executed || !state.locked {
            return;
        }
        state.executed = true;
        state.locked = false;
        let (seq, writes) = self.run_fragment(digest, &HashMap::new(), out);
        self.mark_executed(seq, writes, out);
        self.release(seq, out);
    }

    /// Executes this shard's fragment of cst `digest` (locked here),
    /// reading remote keys from `resolved`, and books it: counters, the
    /// ledger block and the `Executed` action. Returns the sequence and
    /// the fragment's writes.
    fn run_fragment(
        &mut self,
        digest: Digest,
        resolved: &HashMap<Key, Value>,
        out: &mut Outbox<RingMsg>,
    ) -> (u64, Vec<(Key, Value)>) {
        let me_shard = self.me.shard;
        let state = &self.csts[&digest];
        let (batch, involved) = (Arc::clone(&state.batch), state.involved.clone());
        let seq = state.local_seq.expect("locked implies committed locally");
        let mut writes = Vec::new();
        for txn in &batch.txns {
            let remote: Vec<(Key, Value)> = txn
                .remote_reads
                .iter()
                .filter(|rr| rr.reader == me_shard)
                .map(|rr| (rr.key, resolved.get(&rr.key).copied().unwrap_or_default()))
                .collect();
            writes.extend(self.kv.execute_fragment(txn, me_shard, &remote).writes);
        }
        let txns = batch.len() as u32;
        self.obs.executed_txns(txns as u64);
        self.obs.executed_batches(1);
        self.ledger.append(BlockBody {
            seq: SeqNum(seq),
            merkle_root: digest,
            proposer: ReplicaId::new(me_shard, self.pbft.primary_index()),
            txn_count: txns,
            involved,
        });
        out.executed(seq, txns);
        (seq, writes)
    }

    /// Hands an admitted single-shard batch to the execution stage:
    /// snapshots the records it touches (stable until this sequence
    /// releases its locks), submits the job — digest hashing, fragment
    /// execution and reply assembly run on the stage — and pumps any
    /// outcomes that are ready to apply.
    fn execute_single_shard(&mut self, seq: u64, batch: &Arc<Batch>, out: &mut Outbox<RingMsg>) {
        let mut keys: Vec<Key> = batch
            .txns
            .iter()
            .flat_map(|t| t.ops.iter())
            .filter(|o| o.shard == self.me.shard)
            .map(|o| o.key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let base: Vec<(Key, Record)> = keys
            .into_iter()
            .filter_map(|k| self.kv.get(k).map(|r| (k, r)))
            .collect();
        self.obs.exec_jobs(1);
        if !self.exec_inflight.is_empty() {
            // Another disjoint sequence is already executing: the lock
            // manager guarantees their write sets cannot conflict.
            self.obs.exec_parallel_batches(1);
        }
        self.exec_inflight.push_back(seq);
        self.exec_pipeline.submit(ExecJob {
            seq,
            batch: Arc::clone(batch),
            shard: self.me.shard,
            base,
            proposer: self.pbft.primary_index(),
            submitted: self.obs_now,
        });
        self.pump_exec(out);
    }

    /// Collects finished execution outcomes and applies them strictly
    /// in submission order. Inline and blocking pipelines finish every
    /// job at submit time, so this empties the queue immediately —
    /// preserving the pre-pipeline event order exactly; an async stage
    /// leaves stragglers for the next wake.
    fn pump_exec(&mut self, out: &mut Outbox<RingMsg>) {
        let ps = self.exec_pipeline.stats();
        self.obs
            .set_pipeline_pool(self.exec_pipeline.workers() as u64, ps.busy_ns, ps.idle_ns);
        let done = self.exec_pipeline.drain();
        self.apply_in_order(done, out);
    }

    /// Blocks until the execution stage is empty and applies everything
    /// — state-install paths must not race in-flight jobs whose base
    /// snapshots came from the store they are about to replace.
    fn flush_exec(&mut self, out: &mut Outbox<RingMsg>) {
        while !self.exec_inflight.is_empty() {
            let done = self.exec_pipeline.flush();
            self.apply_in_order(done, out);
        }
    }

    /// Queues finished outcomes and applies those whose turn has come.
    fn apply_in_order(&mut self, done: Vec<ExecOutcome>, out: &mut Outbox<RingMsg>) {
        for o in done {
            self.exec_ready.insert(o.job.seq, o);
        }
        while let Some(&seq) = self.exec_inflight.front() {
            let Some(outcome) = self.exec_ready.remove(&seq) else {
                break;
            };
            self.exec_inflight.pop_front();
            self.apply_exec_outcome(outcome, out);
        }
    }

    /// Applies one finished outcome: replays the write effects onto the
    /// authoritative store, appends the ledger block, replies to the
    /// clients, and releases the sequence's locks (admitting successors).
    fn apply_exec_outcome(&mut self, o: ExecOutcome, out: &mut Outbox<RingMsg>) {
        let ExecOutcome {
            job,
            digest,
            writes,
        } = o;
        let txns = job.batch.len() as u32;
        for (k, v) in &writes {
            self.kv.put(*k, *v);
        }
        self.obs.executed_txns(txns as u64);
        self.obs.executed_batches(1);
        self.ledger.append(BlockBody {
            seq: SeqNum(job.seq),
            merkle_root: digest,
            proposer: ReplicaId::new(self.me.shard, job.proposer),
            txn_count: txns,
            involved: vec![self.me.shard],
        });
        out.executed(job.seq, txns);
        self.mark_executed(job.seq, writes, out);
        self.reply_clients(digest, &job.batch, Some(job.submitted), out);
        self.release(job.seq, out);
    }

    /// Drives the execution stage outside a message delivery: the real
    /// runtime calls this when the pipeline's waker fires. A no-op for
    /// inline/blocking stages (drained at submit time).
    pub fn pump(&mut self, now: Instant, out: &mut Outbox<RingMsg>) {
        self.obs_now = now;
        self.pump_exec(out);
    }

    /// Blocks until every in-flight execution job has been applied.
    /// Drivers call this at shutdown (and tests at settle points) so no
    /// outcome is stranded in an async stage.
    pub fn flush_pipeline(&mut self, out: &mut Outbox<RingMsg>) {
        self.flush_exec(out);
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
    // Rotation one: Forward
    // ------------------------------------------------------------------

    /// Sends (or re-sends) the Forward for `digest` to the next involved
    /// shard's counterpart replica.
    fn send_forward(&mut self, digest: Digest, out: &mut Outbox<RingMsg>) {
        let me_shard = self.me.shard;
        let Some(state) = self.csts.get(&digest) else {
            return;
        };
        // Forward once this shard's part of rotation one is done: locks
        // held (complex cst) or fragment already executed (simple cst).
        if !state.locked && !state.executed {
            return;
        }
        let next = self.ring.next(&state.involved, me_shard);
        // Accumulate this shard's remote-read contributions (§8.8).
        let mut deps = state.deps.clone();
        for t in &state.batch.txns {
            for rr in &t.remote_reads {
                if rr.owner == me_shard {
                    let v = self.kv.get(rr.key).map(|r| r.value).unwrap_or_default();
                    deps.push((rr.key, v));
                }
            }
        }
        let nf = self.cfg.shard(me_shard).nf();
        let fwd = ForwardMsg {
            batch: Arc::clone(&state.batch),
            digest,
            from_shard: me_shard,
            cert_signers: (0..nf as u32).collect(),
            deps,
            // Ring-hop counter for causal tracing: the initiator opens
            // the rotation at hop 0; downstream shards advance the hop
            // of the Forward they received.
            hop: self.cst_hop(&digest),
        };
        let token = state.token;
        let sent = self.send_to_shard(next, RingMsg::Forward(fwd), out);
        self.obs.forwards_sent(sent);
        out.set_timer(TimerKind::Transmit, token, self.cfg.timers.transmit);
    }

    /// Sends `msg` to shard `next` over the linear primitive (our
    /// counterpart there) and returns the number of copies sent. The
    /// quadratic ablation fans out all-to-all instead — what
    /// SharPer-style protocols pay and RingBFT's primitive avoids.
    fn send_to_shard(&self, next: ShardId, msg: RingMsg, out: &mut Outbox<RingMsg>) -> u64 {
        if !self.cfg.ablation_quadratic_forward {
            out.send(self.counterpart(next), msg);
            return 1;
        }
        let shard = self.cfg.shard(next);
        out.multicast(shard.replicas().map(NodeId::Replica), &msg);
        shard.n as u64
    }

    fn on_forward(
        &mut self,
        from: ReplicaId,
        fwd: ForwardMsg,
        direct: bool,
        out: &mut Outbox<RingMsg>,
    ) {
        let digest = fwd.digest;
        if self.done.contains(&digest) {
            return;
        }
        let involved = fwd.batch.involved_shards();
        if !involved.contains(&self.me.shard) {
            return; // Involvement (Def 4.1): only involved shards act
        }
        // Validate the modeled commit certificate: nf signers required.
        let prev = self.ring.prev(&involved, self.me.shard);
        if fwd.from_shard != prev || fwd.cert_signers.len() < self.cfg.shard(prev).nf() {
            return;
        }
        // A Forward reaching its *initiator* shard is the wrap-around
        // fate notification. Initiator-shard cst state is born from
        // client requests and local consensus, never from Forwards — so
        // a wrap-around for a cst unknown here is a replay of work
        // already finished and GC'd past the `done` window
        // (non-initiator shards retransmit the fate notification on a
        // capped timer that can outlive any bounded dedup memory).
        // Re-admitting it would re-run consensus and re-execute a
        // finished transaction on part of the shard — divergence, not
        // recovery. A replica that genuinely missed the cst first
        // recovers its *commit* (hole fetch / state transfer), after
        // which the state exists and the wrap-around is accepted.
        // Checked before the local sharing below so a zombie replay is
        // dropped at the boundary instead of fanning out shard-wide.
        if self.ring.first(&involved) == self.me.shard && !self.csts.contains_key(&digest) {
            return;
        }
        if direct {
            // Linear primitive: sender must be our counterpart.
            if from.shard != prev {
                return;
            }
            // Local sharing (Fig 5 lines 29–30).
            out.multicast(self.shard_replicas(), &RingMsg::ForwardShare(fwd.clone()));
        }
        let token = match self.csts.get(&digest) {
            Some(c) => c.token,
            None => self.alloc_token(digest),
        };
        let state = self
            .csts
            .entry(digest)
            .or_insert_with(|| CstState::new(Arc::clone(&fwd.batch), involved, token, false));
        state.forward_origins.insert(from.index);
        if state.forward_payload.is_none() {
            state.forward_payload = Some(fwd.clone());
        }
        if state.forward_processed {
            return;
        }
        // Arm the remote timer on first evidence (§5.1.2).
        if state.forward_origins.len() == 1 {
            out.set_timer(TimerKind::Remote, state.token, self.cfg.timers.remote);
        }
        let threshold = self.cfg.shard(fwd.from_shard).f() + 1;
        if state.forward_origins.len() < threshold {
            return;
        }
        state.forward_processed = true;
        // Merge the freshest dependency reads.
        if fwd.deps.len() > state.deps.len() {
            state.deps = fwd.deps.clone();
        }
        // A processed Forward closes the initiator's cst-forward clock
        // (wrap-around) and opens the forward→execute clock here.
        let committed_at = state.committed_at.take();
        state.forwarded_at = Some(self.obs_now);
        let (locked, executed, proposed_here, tok, batch) = (
            state.locked,
            state.executed,
            state.proposed_here,
            state.token,
            Arc::clone(&state.batch),
        );
        out.cancel_timer(TimerKind::Remote, tok);
        if let Some(t0) = committed_at {
            // Wrap-around at the initiator: the span closes at ring
            // position 0 even though the Forward travelled the ring.
            let d = self.obs_now.since(t0);
            self.record_phase(Phase::CstForward, d, batch_trace(&fwd.batch), 0);
        }
        if locked {
            // Second rotation begins at the initiator (Fig 5 line 32) —
            // only complex csts still hold locks here.
            self.execute_cst(digest, out);
        } else if executed {
            // Simple cst: the wrap-around Forward tells the initiator
            // that every involved shard ordered (and hence executed) the
            // transaction — one rotation completes it (§4.2.1).
            let involved = fwd.batch.involved_shards();
            if self.ring.first(&involved) == self.me.shard {
                self.finish_cst(digest, tok, &batch, out);
            }
        } else if !proposed_here {
            if self.pbft.is_primary() {
                // Fig 5 lines 38–39: primary initiates local consensus.
                if let Some(s) = self.csts.get_mut(&digest) {
                    s.proposed_here = true;
                }
                self.propose(batch, out);
            } else {
                // Watch the primary: it must propose this cst.
                out.set_timer(TimerKind::Local, tok, self.pbft.request_timeout());
            }
        }
    }

    // ------------------------------------------------------------------
    // Rotation two: Execute
    // ------------------------------------------------------------------

    /// Executes this shard's fragment of `digest` and passes the Execute
    /// message down the ring (Fig 5 lines 33–37).
    fn execute_cst(&mut self, digest: Digest, out: &mut Outbox<RingMsg>) {
        let me_shard = self.me.shard;
        let Some(state) = self.csts.get_mut(&digest) else {
            return;
        };
        if state.executed || !state.locked {
            return;
        }
        state.executed = true;
        let trace = batch_trace(&state.batch);
        let forwarded_at = state.forwarded_at.take();
        // Resolve remote reads from deps ∪ sigma.
        let mut resolved: HashMap<Key, Value> = HashMap::new();
        for (k, v) in state.deps.iter().chain(state.sigma.iter()) {
            resolved.insert(*k, *v);
        }
        let mut sigma = state.sigma.clone();
        if sigma.is_empty() {
            sigma = state.deps.clone();
        }
        if let Some(t0) = forwarded_at {
            let (d, hop) = (self.obs_now.since(t0), self.cst_hop(&digest));
            self.record_phase(Phase::CstExecute, d, trace, hop);
        }
        let (seq, writes) = self.run_fragment(digest, &resolved, out);
        sigma.extend(writes.iter().copied());
        let state = self.csts.get_mut(&digest).expect("state exists");
        state.sigma = sigma.clone();
        let (involved, token) = (state.involved.clone(), state.token);
        if self.ring.first(&involved) == me_shard {
            // Execute→reply clock; closed when the Execute wraps around.
            state.executed_at = Some(self.obs_now);
        }
        self.mark_executed(seq, writes, out);
        // Release locks (Fig 5 line 35) and admit successors.
        self.release(seq, out);
        // Forward the Execute to the next shard (line 36–37).
        let next = self.ring.next(&involved, me_shard);
        let ex = ExecuteMsg {
            digest,
            from_shard: me_shard,
            sigma,
        };
        let sent = self.send_to_shard(next, RingMsg::Execute(ex), out);
        self.obs.executes_sent(sent);
        out.cancel_timer(TimerKind::Transmit, token);
        out.set_timer(TimerKind::Transmit, token, self.cfg.timers.transmit);
    }

    fn on_execute(
        &mut self,
        from: ReplicaId,
        ex: ExecuteMsg,
        direct: bool,
        out: &mut Outbox<RingMsg>,
    ) {
        let digest = ex.digest;
        if self.done.contains(&digest) {
            return;
        }
        let Some(prev) = self
            .csts
            .get(&digest)
            .map(|s| self.ring.prev(&s.involved, self.me.shard))
        else {
            return; // never saw rotation one — cannot act yet
        };
        if ex.from_shard != prev {
            return;
        }
        if direct {
            if from.shard != prev {
                return;
            }
            out.multicast(self.shard_replicas(), &RingMsg::ExecuteShare(ex.clone()));
        }
        let threshold = self.cfg.shard(prev).f() + 1;
        let state = self.csts.get_mut(&digest).expect("checked above");
        state.execute_origins.insert(from.index);
        if state.execute_processed || state.execute_origins.len() < threshold {
            return;
        }
        state.execute_processed = true;
        if ex.sigma.len() > state.sigma.len() {
            state.sigma = ex.sigma.clone();
        }
        let (executed, token, batch, involved_first) = (
            state.executed,
            state.token,
            Arc::clone(&state.batch),
            self.ring.first(&state.involved),
        );
        if executed {
            // Fig 5 lines 41–42: the Execute wrapped around the ring —
            // every shard executed; the initiator answers the client.
            if involved_first == self.me.shard {
                self.finish_cst(digest, token, &batch, out);
            }
        } else {
            // Fig 5 lines 43–44: execute our fragment and keep rotating.
            self.execute_cst(digest, out);
        }
    }

    /// The initiator learned a cst's fate from the wrap-around: drop its
    /// state and answer the client.
    fn finish_cst(&mut self, digest: Digest, token: u64, batch: &Batch, out: &mut Outbox<RingMsg>) {
        self.token_digest.remove(&token);
        let executed_at = self.csts.remove(&digest).and_then(|c| c.executed_at);
        // Late messages hit the `done` filter until its rotating windows
        // (two-to-three checkpoint windows) age the entry out.
        self.done.insert(&digest);
        self.obs
            .set_done_set(self.done.occupancy() as u64, self.done.overwrites());
        self.reply_clients(digest, batch, executed_at, out);
        out.cancel_timer(TimerKind::Transmit, token);
    }

    // ------------------------------------------------------------------
    // Recovery: retransmission, remote view change, view entry
    // ------------------------------------------------------------------

    fn on_transmit_timer(&mut self, token: u64, out: &mut Outbox<RingMsg>) {
        let Some(digest) = self.token_digest.get(&token).copied() else {
            return;
        };
        let Some(state) = self.csts.get_mut(&digest) else {
            return;
        };
        if state.retransmits >= MAX_RETRANSMITS {
            return;
        }
        state.retransmits += 1;
        let simple = state.batch.remote_read_count() == 0;
        if state.executed && !simple {
            // Re-send the Execute (rotation two stalled downstream).
            let next = self.ring.next(&state.involved, self.me.shard);
            let ex = ExecuteMsg {
                digest,
                from_shard: self.me.shard,
                sigma: state.sigma.clone(),
            };
            out.send(self.counterpart(next), RingMsg::Execute(ex));
            self.obs.executes_sent(1);
            out.set_timer(TimerKind::Transmit, token, self.cfg.timers.transmit);
        } else if state.locked || state.executed {
            // §5.1.1: re-transmit the Forward (simple csts keep forwarding
            // their fate notification).
            self.send_forward(digest, out);
        }
    }

    fn on_remote_timer(&mut self, token: u64, out: &mut Outbox<RingMsg>) {
        let Some(digest) = self.token_digest.get(&token).copied() else {
            return;
        };
        let Some(state) = self.csts.get(&digest) else {
            return;
        };
        if state.forward_processed {
            return; // enough Forwards arrived after all
        }
        // Fig 6 lines 1–2: complain to our counterpart in the previous
        // shard.
        let prev = self.ring.prev(&state.involved, self.me.shard);
        out.send(
            self.counterpart(prev),
            RingMsg::RemoteView {
                digest,
                from_shard: self.me.shard,
            },
        );
        self.obs.remote_views_sent(1);
        self.obs
            .trace
            .push(self.obs_now.as_nanos(), "remote_view_sent", &[]);
    }

    fn on_remote_view(
        &mut self,
        now: Instant,
        digest: Digest,
        origin: u32,
        out: &mut Outbox<RingMsg>,
    ) {
        let f = self.cfg.shard(self.me.shard).f();
        let votes = self.remote_complaints.entry(digest).or_default();
        votes.insert(origin);
        if votes.len() <= f {
            return;
        }
        self.remote_complaints.remove(&digest);
        let committed = self
            .csts
            .get(&digest)
            .map(|c| c.committed_local && (c.locked || c.executed))
            .unwrap_or(false)
            || self.done.contains(&digest);
        if committed {
            // We replicated the cst — the next shard's starvation was a
            // network loss, not a suppressing primary. Re-transmit
            // (§5.1.1) instead of tearing the primary down.
            if let Some(state) = self.csts.get_mut(&digest) {
                state.retransmits = state.retransmits.saturating_sub(1);
            }
            self.send_forward(digest, out);
            return;
        }
        // Grace: a freshly installed view re-proposes every starving cst
        // itself (`on_entered_view`); complaints arriving during that
        // window must not tear it straight down again. A replica still
        // catching up to a stable checkpoint is equally exempt — the
        // complained-about cst is usually one the healthy quorum
        // finished while it was dark (covered by the snapshot), and its
        // solo view-change demand would wedge it in an unjoined view.
        let grace = (self.last_view_entry > Instant::ZERO
            && now.since(self.last_view_entry) < self.pbft.request_timeout())
            || self.pbft.in_view_change()
            || self.catching_up();
        // No solo-VC deferral here: the f+1 complaint quorum behind this
        // trigger is shared shard-wide, so every correct replica that
        // lacks the commit forces the view change *together* (Fig 6) —
        // only a replica still catching up (grace above) stands apart.
        if !grace && self.remote_vc_done.insert(digest) {
            // Fig 6 lines 5–6: f+1 complaints about a transaction this
            // shard failed to replicate force a local view change.
            self.force_view_change(now, out);
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
        // The new primary re-proposes forwarded csts that never reached
        // local consensus, and re-sends Forwards for stalled locked csts
        // (recovers from a Byzantine predecessor primary that kept the
        // shard in the dark, §5.1.2 discussion).
        let stalled_proposals: Vec<Arc<Batch>> = self
            .csts
            .values_mut()
            .filter(|c| c.forward_processed && !c.committed_local && !c.proposed_here)
            .map(|c| {
                c.proposed_here = true;
                Arc::clone(&c.batch)
            })
            .collect();
        for batch in stalled_proposals {
            self.propose(batch, out);
        }
        let resend: Vec<Digest> = self
            .csts
            .iter()
            .filter(|(_, c)| c.locked || c.executed)
            .map(|(d, _)| *d)
            .collect();
        for d in resend {
            self.send_forward(d, out);
        }
    }
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
