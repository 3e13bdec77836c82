//! The PBFT replica state machine (sans-io).
//!
//! Implements the paper's intra-shard consensus (Fig 5, lines 10–14):
//! pre-prepare → prepare (`nf` quorum) → commit (`nf` quorum), plus the
//! recovery machinery of §5: per-request local timers, PBFT view change
//! (A2), and periodic checkpoints for in-dark replicas (A3).
//!
//! Two deliberate properties match RingBFT rather than textbook PBFT:
//!
//! * **Out-of-order consensus** — a batch commits as soon as its quorum
//!   completes, regardless of lower sequence numbers; the *lock manager*
//!   re-serializes effects (§4.3.5). The [`PbftEvent::Committed`] event
//!   therefore may fire out of sequence order.
//! * **`nf` quorums** — the paper states quorums as `nf = n − f` matching
//!   messages from distinct replicas (counting the sender's own vote and
//!   the primary's pre-prepare as its prepare).

use crate::messages::{batch_digest, PbftMsg, PreparedProof};
use ringbft_crypto::Digest;
use ringbft_types::txn::Batch;
use ringbft_types::{
    Action, Duration, Instant, NodeId, Outbox, ReplicaId, SeqNum, TimerKind, ViewNum,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Timer token reserved for the view-change progress timer (sequence
/// numbers use their own value as token).
pub const VIEW_CHANGE_TOKEN: u64 = u64::MAX;

/// Configuration of a PBFT instance.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Replicas in the shard.
    pub n: usize,
    /// Checkpoint every this many sequence numbers.
    pub checkpoint_interval: u64,
    /// Local replication watchdog duration (§5: the shortest timer).
    pub local_timeout: Duration,
    /// When true, the engine does not vote a checkpoint by itself when a
    /// checkpoint-boundary sequence commits; it emits
    /// [`PbftEvent::CheckpointDue`] and the outer protocol calls
    /// [`PbftCore::announce_checkpoint`] once it can bind a real
    /// application-state digest (RingBFT waits until every sequence up
    /// to the boundary has *executed*, then digests the store — see
    /// `ringbft-recovery`). When false (the baselines), the engine votes
    /// immediately with the committed batch digest, which suffices for
    /// log truncation but is not transferable state.
    pub external_checkpoints: bool,
}

impl PbftConfig {
    /// Byzantine tolerance `f = ⌊(n−1)/3⌋`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Quorum size `nf = n − f`.
    pub fn nf(&self) -> usize {
        self.n - self.f()
    }
}

/// Protocol-visible outputs of the PBFT engine, consumed by the outer
/// protocol (RingBFT executes-or-forwards, AHL votes, …).
#[derive(Debug, Clone)]
pub enum PbftEvent {
    /// A batch gathered its commit quorum at `seq` (possibly out of
    /// order). `committers` lists the replica indices whose Commit
    /// messages formed the certificate — RingBFT forwards their signatures
    /// to the next shard (Fig 5 line 16).
    Committed {
        /// View the batch committed in.
        view: ViewNum,
        /// Sequence number.
        seq: SeqNum,
        /// Batch digest `Δ`.
        digest: Digest,
        /// The batch payload.
        batch: Arc<Batch>,
        /// Indices of replicas in the commit certificate.
        committers: Vec<u32>,
    },
    /// The replica installed a new view (primary possibly changed).
    EnteredView {
        /// The view now active.
        view: ViewNum,
    },
    /// A checkpoint boundary committed and the engine runs with
    /// `external_checkpoints`: the outer protocol must (eventually) call
    /// [`PbftCore::announce_checkpoint`] for `seq` with its state digest.
    CheckpointDue {
        /// The checkpoint-boundary sequence number.
        seq: SeqNum,
    },
    /// A checkpoint became stable; everything ≤ `seq` is garbage-collected.
    StableCheckpoint {
        /// Covered sequence number.
        seq: SeqNum,
        /// The digest a quorum of `nf` replicas agreed on — under
        /// `external_checkpoints` this is the application-state digest a
        /// lagging replica can fetch and verify a snapshot against.
        state_digest: Digest,
    },
    /// A *weak certificate* (Castro & Liskov §6.2.2) formed for a
    /// checkpoint: `f + 1` distinct replicas voted the same state
    /// digest — at least one of them is correct, so state carrying this
    /// digest is a correct replica's state and safe to fetch. Emitted
    /// below the `nf` stability threshold so a replica that missed the
    /// original vote traffic (and whose shard may no longer be able to
    /// form full checkpoint quorums) can still anchor a state transfer.
    CheckpointEvidence {
        /// Covered sequence number.
        seq: SeqNum,
        /// The digest `f + 1` replicas agree on.
        state_digest: Digest,
    },
}

#[derive(Debug, Default)]
struct Instance {
    view: ViewNum,
    digest: Option<Digest>,
    batch: Option<Arc<Batch>>,
    preprepared: bool,
    prepares: Votes,
    commits: Votes,
    prepared: bool,
    committed: bool,
    /// When this replica first saw consensus traffic for the slot (the
    /// pre-prepare, or the first vote to arrive — whichever came first).
    /// Anchors the preprepare→commit phase timer; on the primary the
    /// anchor is its first received vote, a one-delay approximation that
    /// avoids threading wall time through `propose`.
    first_seen: Option<Instant>,
}

/// One kind of vote (prepare or commit) at one slot: the distinct
/// replicas that voted for each digest. Honest traffic names one digest,
/// so its voters are a bitmask behind the first digest seen; conflicting
/// digests and replica indices past 63 go to a list. A slot of honest
/// traffic in a shard of up to 64 replicas allocates nothing.
#[derive(Debug, Default)]
struct Votes {
    first: Option<(Digest, u64)>,
    rest: Vec<(Digest, u32)>,
}

impl Votes {
    fn insert(&mut self, digest: Digest, voter: u32) {
        if voter < 64 {
            let (d, bits) = self.first.get_or_insert((digest, 0));
            if *d == digest {
                *bits |= 1 << voter;
                return;
            }
        }
        if !self.rest.contains(&(digest, voter)) {
            self.rest.push((digest, voter));
        }
    }

    /// Distinct voters for `digest`.
    fn count(&self, digest: &Digest) -> usize {
        let first = match &self.first {
            Some((d, bits)) if d == digest => bits.count_ones() as usize,
            _ => 0,
        };
        first + self.rest.iter().filter(|(d, _)| d == digest).count()
    }

    /// Voters for `digest`, ascending.
    fn voters(&self, digest: &Digest) -> Vec<u32> {
        let mut voters: Vec<u32> = match &self.first {
            Some((d, bits)) if d == digest => (0..64).filter(|i| bits >> i & 1 == 1).collect(),
            _ => Vec::new(),
        };
        voters.extend(
            self.rest
                .iter()
                .filter(|(d, _)| d == digest)
                .map(|&(_, v)| v),
        );
        voters.sort_unstable();
        voters
    }

    fn clear(&mut self) {
        *self = Votes::default();
    }
}

/// The PBFT replica core for one shard member.
pub struct PbftCore {
    me: ReplicaId,
    cfg: PbftConfig,
    view: ViewNum,
    in_view_change: bool,
    /// Primary's next sequence number to assign (starts at 1).
    next_seq: u64,
    /// Highest sequence number seen in any pre-prepare.
    max_seq_seen: u64,
    last_stable: u64,
    /// Our own checkpoint vote for `last_stable`, retained at stabilize
    /// when it matched the quorum digest — re-sendable to peers that ask
    /// for sequences the checkpoint subsumed (see
    /// [`PbftCore::stable_checkpoint_revote`]).
    last_stable_vote: Option<Digest>,
    instances: BTreeMap<u64, Instance>,
    checkpoint_votes: BTreeMap<u64, HashMap<u32, Digest>>,
    view_change_votes: BTreeMap<u64, BTreeMap<u32, Vec<PreparedProof>>>,
    /// Timeout backoff: doubles on every view change without progress
    /// (capped), resets when a batch commits. Prevents view-change churn
    /// under load (Castro & Liskov §4.5.2).
    backoff: u32,
    /// Escalation backoff for the view-change progress timer. Doubles
    /// without a low cap and resets only on a successful installation:
    /// replicas whose escalation timers are phase-shifted would otherwise
    /// leapfrog each other's target views forever; growing windows let
    /// the f+1 join rule align them.
    vc_backoff: u32,
    /// The view this replica was in before it started the current view
    /// change (resumed if the view change turns out to be unsupported).
    pre_vc_view: ViewNum,
    /// Did any peer send a ViewChange while our view change is pending?
    /// A view change nobody else wants can never reach its `nf` quorum:
    /// a stale replica (e.g. freshly recovered, watchdogging work the
    /// healthy quorum finished long ago) that forced one alone would
    /// wedge forever in a view no peer joins. Without support after two
    /// escalation windows, the view change is abandoned and the old —
    /// evidently still live — view resumed.
    vc_support_seen: bool,
    /// Escalation-timer expiries since the current view change began.
    vc_escalations: u32,
    /// Largest sequence such that every sequence up to it is committed
    /// locally (or covered by the stable checkpoint). Maintained
    /// incrementally so hole detection is O(1) per commit: the first
    /// *hole* — a missed commit wedging sequence-ordered admission —
    /// is always `committed_through + 1` when the frontier is beyond it.
    committed_through: u64,
    /// Count of batches committed by this replica (diagnostics).
    pub committed_batches: u64,
}

impl PbftCore {
    /// Creates the core for replica `me` of a shard with config `cfg`,
    /// starting in `view` instead of view 0. Used by multi-primary
    /// protocols (RCC) that run one PBFT instance stream per replica: the
    /// stream led by replica `j` starts in view `j`.
    pub fn new_with_view(me: ReplicaId, cfg: PbftConfig, view: ViewNum) -> Self {
        let mut core = Self::new(me, cfg);
        core.view = view;
        core
    }

    /// Creates the core for replica `me` of a shard with config `cfg`.
    pub fn new(me: ReplicaId, cfg: PbftConfig) -> Self {
        assert!(cfg.n >= 1);
        PbftCore {
            me,
            cfg,
            view: ViewNum(0),
            in_view_change: false,
            next_seq: 1,
            max_seq_seen: 0,
            last_stable: 0,
            last_stable_vote: None,
            instances: BTreeMap::new(),
            checkpoint_votes: BTreeMap::new(),
            view_change_votes: BTreeMap::new(),
            backoff: 1,
            vc_backoff: 1,
            pre_vc_view: ViewNum(0),
            vc_support_seen: false,
            vc_escalations: 0,
            committed_through: 0,
            committed_batches: 0,
        }
    }

    /// Current view.
    pub fn view(&self) -> ViewNum {
        self.view
    }

    /// Replica index of the current primary.
    pub fn primary_index(&self) -> u32 {
        self.view.primary_index(self.cfg.n)
    }

    /// Is this replica the current primary?
    pub fn is_primary(&self) -> bool {
        self.primary_index() == self.me.index
    }

    /// Is a view change in progress?
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// This replica's own checkpoint vote for the last stable boundary,
    /// when it matched the quorum digest: `(seq, state_digest)`,
    /// re-sendable as a fresh `PbftMsg::Checkpoint`. Donors answer
    /// hole requests for checkpoint-subsumed sequences with it, so a
    /// replica that slept through the original vote traffic can collect
    /// a weak certificate (§6.2.2) and start a state transfer even when
    /// the shard's checkpoint cadence is wedged.
    pub fn stable_checkpoint_revote(&self) -> Option<(SeqNum, Digest)> {
        self.last_stable_vote
            .filter(|_| self.last_stable > 0)
            .map(|d| (SeqNum(self.last_stable), d))
    }

    /// Last stable checkpoint sequence.
    pub fn last_stable(&self) -> SeqNum {
        SeqNum(self.last_stable)
    }

    /// The outer protocol installed a verified checkpoint snapshot at
    /// `seq` (fully- or weakly-certified, §6.2.2): fast-forward the
    /// engine's stable floor so sequences the snapshot subsumes are
    /// settled — their watchdogs stand down instead of demanding view
    /// changes for work the shard finished while this replica was dark.
    /// Prunes with the same one-extra-window retention policy as a
    /// locally observed stabilization. No-op when `seq` is not ahead of
    /// the floor (the common case: the install's target *was* the last
    /// observed stable checkpoint).
    pub fn install_stable_floor(&mut self, seq: SeqNum) {
        if seq.0 <= self.last_stable {
            return;
        }
        self.last_stable = seq.0;
        // Our retained re-vote described the previous boundary.
        self.last_stable_vote = None;
        self.max_seq_seen = self.max_seq_seen.max(seq.0);
        self.next_seq = self.next_seq.max(seq.0 + 1);
        let horizon = seq.0.saturating_sub(self.cfg.checkpoint_interval);
        self.instances.retain(|k, _| *k > horizon);
        self.checkpoint_votes.retain(|k, _| *k > seq.0);
        self.advance_committed_through();
    }

    /// Current per-request timeout, including view-change backoff.
    pub fn request_timeout(&self) -> Duration {
        self.cfg.local_timeout * self.backoff as u64
    }

    /// The digest committed at `seq`, if this replica committed it.
    pub fn committed_digest(&self, seq: SeqNum) -> Option<Digest> {
        self.instances
            .get(&seq.0)
            .filter(|i| i.committed)
            .and_then(|i| i.digest)
    }

    /// Highest sequence number this replica has committed (0 before the
    /// first commit). Sequences between the execution watermark and this
    /// frontier that never committed locally are *holes*.
    pub fn max_committed_seq(&self) -> u64 {
        self.instances
            .iter()
            .rev()
            .find(|(_, i)| i.committed)
            .map(|(s, _)| *s)
            .unwrap_or(self.last_stable)
    }

    /// Largest sequence such that every sequence up to it is committed
    /// locally (or covered by the stable checkpoint). The earliest hole
    /// in the log is `committed_through() + 1` whenever
    /// [`Self::max_committed_seq`] lies beyond it. O(1): maintained
    /// incrementally as commits, installs and checkpoints land.
    pub fn committed_through(&self) -> u64 {
        self.committed_through
    }

    /// Slots proposed (or observed) above the contiguous committed
    /// prefix: the consensus pipeline's in-flight depth. Zero means the
    /// pipe is idle — every slot this replica knows about has committed
    /// — which is the signal adaptive batching uses to cut a partial
    /// batch immediately instead of waiting for the pool to fill.
    pub fn in_flight(&self) -> u64 {
        (self.next_seq - 1).saturating_sub(self.committed_through)
    }

    /// When this replica first saw consensus traffic for `seq` (the
    /// pre-prepare or the earliest vote). `None` for unknown slots and for
    /// instances installed from a commit certificate (hole fetch), which
    /// never ran the local three-phase exchange — phase timers skip those.
    pub fn consensus_started_at(&self, seq: SeqNum) -> Option<Instant> {
        self.instances.get(&seq.0).and_then(|i| i.first_seen)
    }

    /// Advances the contiguous-commit prefix over freshly committed
    /// instances. Amortized O(1): each sequence is walked over once.
    fn advance_committed_through(&mut self) {
        self.committed_through = self.committed_through.max(self.last_stable);
        while self
            .instances
            .get(&(self.committed_through + 1))
            .is_some_and(|i| i.committed)
        {
            self.committed_through += 1;
        }
    }

    /// Exports the commit certificate and batch for `seq` from the
    /// message log, if this replica committed it and the instance has
    /// not yet been garbage-collected by a stable checkpoint. This is
    /// what a donor serves to a hole-fetching peer: everything the peer
    /// needs to verify and install the commit without other context.
    pub fn commit_certificate(&self, seq: SeqNum) -> Option<ringbft_types::hole::HoleReply> {
        let inst = self.instances.get(&seq.0).filter(|i| i.committed)?;
        let digest = inst.digest?;
        let batch = inst.batch.clone()?;
        let signers = inst.commits.voters(&digest);
        Some(ringbft_types::hole::HoleReply {
            cert: ringbft_types::hole::CommitCertificate {
                view: inst.view,
                seq,
                digest,
                signers,
            },
            batch,
        })
    }

    /// Installs an externally fetched, *already verified* commit
    /// certificate (hole fetch): marks the instance committed and emits
    /// the same [`PbftEvent::Committed`] a live quorum would have, so
    /// the outer protocol's admission path runs unchanged (checkpoint
    /// boundaries included). Returns false without side effects when the
    /// sequence is already committed locally or below the stable
    /// checkpoint. The caller must have verified the certificate with
    /// [`crate::verify_hole_reply`] first — this method trusts it.
    pub fn install_certified_commit(
        &mut self,
        reply: ringbft_types::hole::HoleReply,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) -> bool {
        let seq = reply.cert.seq;
        if seq.0 <= self.last_stable {
            return false;
        }
        let inst = self.instances.entry(seq.0).or_default();
        if inst.committed {
            return false;
        }
        let digest = reply.cert.digest;
        inst.view = reply.cert.view;
        inst.digest = Some(digest);
        inst.batch = Some(Arc::clone(&reply.batch));
        inst.preprepared = true;
        inst.prepared = true;
        inst.committed = true;
        for &signer in &reply.cert.signers {
            inst.commits.insert(digest, signer);
        }
        self.committed_batches += 1;
        self.max_seq_seen = self.max_seq_seen.max(seq.0);
        // A watchdog for this slot (armed if we saw its pre-prepare
        // before the quorum traffic was lost) is now satisfied.
        out.cancel_timer(TimerKind::Local, seq.0);
        events.push(PbftEvent::Committed {
            view: reply.cert.view,
            seq,
            digest,
            batch: reply.batch,
            committers: reply.cert.signers,
        });
        self.advance_committed_through();
        self.maybe_checkpoint(seq.0, digest, out, events);
        true
    }

    fn others(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.me;
        (0..self.cfg.n as u32)
            .filter(move |i| *i != me.index)
            .map(move |i| NodeId::Replica(ReplicaId::new(me.shard, i)))
    }

    /// Primary proposes a batch. Returns the sequence number it assigned,
    /// or `None` if this replica is not currently allowed to propose.
    pub fn propose(
        &mut self,
        batch: Arc<Batch>,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) -> Option<SeqNum> {
        if !self.is_primary() || self.in_view_change {
            return None;
        }
        let seq = SeqNum(self.next_seq);
        self.next_seq += 1;
        self.max_seq_seen = self.max_seq_seen.max(seq.0);
        let digest = batch_digest(&batch);
        let msg = PbftMsg::Preprepare {
            view: self.view,
            seq,
            digest,
            batch: Arc::clone(&batch),
        };
        out.multicast(self.others(), &msg);
        // The primary's pre-prepare doubles as its prepare vote.
        let inst = self.instances.entry(seq.0).or_default();
        inst.view = self.view;
        inst.digest = Some(digest);
        inst.batch = Some(batch);
        inst.preprepared = true;
        inst.prepares.insert(digest, self.me.index);
        out.set_timer(TimerKind::Local, seq.0, self.request_timeout());
        self.check_quorums(seq.0, out, events);
        Some(seq)
    }

    /// Handles an intra-shard message from replica `from`.
    pub fn on_message(
        &mut self,
        now: Instant,
        from: ReplicaId,
        msg: PbftMsg,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        match msg {
            PbftMsg::Preprepare {
                view,
                seq,
                digest,
                batch,
            } => self.on_preprepare(now, from, view, seq, digest, batch, out, events),
            PbftMsg::Prepare { view, seq, digest } => {
                self.on_vote(now, from, view, seq, digest, false, out, events)
            }
            PbftMsg::Commit { view, seq, digest } => {
                self.on_vote(now, from, view, seq, digest, true, out, events)
            }
            PbftMsg::Checkpoint { seq, state_digest } => {
                self.on_checkpoint(from, seq, state_digest, events)
            }
            PbftMsg::ViewChange {
                new_view,
                last_stable,
                prepared,
            } => self.on_view_change(from, new_view, last_stable, prepared, out, events),
            PbftMsg::NewView { view, preprepares } => {
                self.on_new_view(from, view, preprepares, out, events)
            }
        }
    }

    /// Handles an expired timer. Returns true if the timer was meaningful
    /// to PBFT (outer layers multiplex other tokens onto other kinds).
    pub fn on_timer(
        &mut self,
        kind: TimerKind,
        token: u64,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) -> bool {
        if kind != TimerKind::Local {
            return false;
        }
        if token == VIEW_CHANGE_TOKEN {
            // NewView never arrived: escalate to the next view — unless
            // nobody ever seconded this view change, in which case it
            // can never reach its quorum and is abandoned instead: the
            // old view is evidently still live, so resume it.
            if self.in_view_change {
                self.vc_escalations += 1;
                if !self.vc_support_seen {
                    // A full escalation window without one peer demanding
                    // any view change: we are alone, abandon.
                    self.abandon_view_change(out, events);
                } else {
                    let next = self.view.next();
                    self.start_view_change(next, out, events);
                }
            }
            return true;
        }
        // Per-request watchdog: request did not commit in time. A
        // sequence at or below the stable checkpoint is settled
        // whatever its instance says — with the extra retention window
        // an *uncommitted* instance can now survive below the
        // checkpoint, and its watchdog must not demand a view change
        // for work the quorum already subsumed.
        let committed = token <= self.last_stable
            || self
                .instances
                .get(&token)
                .map(|i| i.committed)
                .unwrap_or(false);
        if !committed && !self.in_view_change {
            // A hole below the local commit frontier is a delivery gap,
            // not a dead primary: later sequences committed here, so
            // the quorum demonstrably decided this slot too and the
            // hole fetcher repairs it from peers (O(batch)). A view
            // change could never recover the missed traffic — it would
            // only wedge this replica in a view no healthy peer joins,
            // dropping the live vote stream and tearing fresh holes.
            if token < self.max_committed_seq() {
                return true;
            }
            let next = self.view.next();
            self.start_view_change(next, out, events);
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn on_preprepare(
        &mut self,
        now: Instant,
        from: ReplicaId,
        view: ViewNum,
        seq: SeqNum,
        digest: Digest,
        batch: Arc<Batch>,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        if from.index != self.primary_index() {
            return; // only the primary proposes
        }
        if seq.0 <= self.last_stable {
            return;
        }
        let inst = self.instances.entry(seq.0).or_default();
        inst.first_seen.get_or_insert(now);
        if inst.preprepared && inst.view == view {
            // "r did not accept a k-th proposal from pS" (Fig 5 line 10):
            // a second, conflicting proposal at the same slot is ignored.
            if inst.digest != Some(digest) {
                return;
            }
            return; // duplicate
        }
        inst.view = view;
        inst.digest = Some(digest);
        inst.batch = Some(batch);
        inst.preprepared = true;
        // Primary's pre-prepare counts as its prepare vote.
        inst.prepares.insert(digest, from.index);
        self.max_seq_seen = self.max_seq_seen.max(seq.0);
        // Broadcast our Prepare and count our own vote.
        let prep = PbftMsg::Prepare { view, seq, digest };
        out.multicast(self.others(), &prep);
        self.instances
            .get_mut(&seq.0)
            .expect("just inserted")
            .prepares
            .insert(digest, self.me.index);
        out.set_timer(TimerKind::Local, seq.0, self.request_timeout());
        self.check_quorums(seq.0, out, events);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_vote(
        &mut self,
        now: Instant,
        from: ReplicaId,
        view: ViewNum,
        seq: SeqNum,
        digest: Digest,
        is_commit: bool,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        if view != self.view || self.in_view_change || seq.0 <= self.last_stable {
            return;
        }
        let inst = self.instances.entry(seq.0).or_default();
        inst.first_seen.get_or_insert(now);
        let votes = if is_commit {
            &mut inst.commits
        } else {
            &mut inst.prepares
        };
        votes.insert(digest, from.index);
        self.check_quorums(seq.0, out, events);
    }

    /// Advances prepare→commit→committed when quorums are met.
    fn check_quorums(&mut self, seq: u64, out: &mut Outbox<PbftMsg>, events: &mut Vec<PbftEvent>) {
        let nf = self.cfg.nf();
        let me = self.me.index;
        let others: Vec<NodeId> = self.others().collect();
        let Some(inst) = self.instances.get_mut(&seq) else {
            return;
        };
        let Some(digest) = inst.digest else {
            return; // votes arrived before the pre-prepare
        };
        if inst.preprepared && !inst.prepared && inst.prepares.count(&digest) >= nf {
            inst.prepared = true;
            let msg = PbftMsg::Commit {
                view: inst.view,
                seq: SeqNum(seq),
                digest,
            };
            inst.commits.insert(digest, me);
            out.multicast(others.iter().copied(), &msg);
        }
        if inst.prepared && !inst.committed && inst.commits.count(&digest) >= nf {
            inst.committed = true;
            self.committed_batches += 1;
            self.backoff = 1; // progress: reset view-change backoff
            let committers = inst.commits.voters(&digest);
            let batch = inst.batch.clone().expect("preprepared instance has batch");
            let view = inst.view;
            out.cancel_timer(TimerKind::Local, seq);
            events.push(PbftEvent::Committed {
                view,
                seq: SeqNum(seq),
                digest,
                batch,
                committers,
            });
            self.advance_committed_through();
            self.maybe_checkpoint(seq, digest, out, events);
        }
    }

    fn maybe_checkpoint(
        &mut self,
        seq: u64,
        digest: Digest,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        if !seq.is_multiple_of(self.cfg.checkpoint_interval) {
            return;
        }
        if self.cfg.external_checkpoints {
            // The outer protocol owns the state digest; it answers with
            // `announce_checkpoint` once the boundary has executed.
            events.push(PbftEvent::CheckpointDue { seq: SeqNum(seq) });
            return;
        }
        self.announce_checkpoint(SeqNum(seq), digest, out, events);
    }

    /// Broadcasts this replica's checkpoint vote for `seq` with
    /// `state_digest` and counts it toward stabilization. Under
    /// `external_checkpoints` the outer protocol calls this in response
    /// to [`PbftEvent::CheckpointDue`]; the non-external path calls it
    /// internally with the batch digest.
    pub fn announce_checkpoint(
        &mut self,
        seq: SeqNum,
        state_digest: Digest,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        if seq.0 <= self.last_stable {
            return;
        }
        let msg = PbftMsg::Checkpoint { seq, state_digest };
        out.multicast(self.others(), &msg);
        self.checkpoint_votes
            .entry(seq.0)
            .or_default()
            .insert(self.me.index, state_digest);
        self.try_stabilize(seq.0, events);
    }

    fn on_checkpoint(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        state_digest: Digest,
        events: &mut Vec<PbftEvent>,
    ) {
        if seq.0 <= self.last_stable {
            return;
        }
        self.checkpoint_votes
            .entry(seq.0)
            .or_default()
            .insert(from.index, state_digest);
        self.try_stabilize(seq.0, events);
    }

    fn try_stabilize(&mut self, seq: u64, events: &mut Vec<PbftEvent>) {
        let nf = self.cfg.nf();
        let Some(votes) = self.checkpoint_votes.get(&seq) else {
            return;
        };
        // Count agreement on the majority digest.
        let mut counts: HashMap<Digest, usize> = HashMap::new();
        for d in votes.values() {
            *counts.entry(*d).or_default() += 1;
        }
        let Some((winner, n_votes)) = counts.into_iter().max_by_key(|(_, n)| *n) else {
            return;
        };
        if n_votes < nf {
            // Below stability but already a weak certificate (§6.2.2):
            // surface it, so an in-dark replica can anchor a state
            // transfer even when the shard can no longer gather full
            // checkpoint quorums (e.g. a crash exhausted `f` while this
            // replica lags).
            if n_votes > self.cfg.f() {
                events.push(PbftEvent::CheckpointEvidence {
                    seq: SeqNum(seq),
                    state_digest: winner,
                });
            }
            return;
        }
        {
            // Retain re-vote metadata at stabilize: our own matching
            // vote for the stable boundary, re-sendable to a peer that
            // asks for a sequence this checkpoint already subsumed
            // (checkpoint votes are not otherwise retransmitted, so a
            // replica that slept through them could never learn the
            // stable digest once the shard's cadence wedges).
            self.last_stable_vote = votes.get(&self.me.index).filter(|d| **d == winner).copied();
            self.last_stable = self.last_stable.max(seq);
            // In-dark replicas fast-forward past work they missed.
            self.max_seq_seen = self.max_seq_seen.max(seq);
            self.next_seq = self.next_seq.max(seq + 1);
            // Keep one extra checkpoint window of committed instances:
            // a peer that missed a single commit near the boundary asks
            // for its certificate (hole fetch) shortly *after* the
            // checkpoint stabilizes here — pruning at the boundary
            // would force it into an O(state) snapshot transfer for one
            // lost message. (Same policy as the outer protocol's
            // replay-dedup map.)
            let horizon = seq.saturating_sub(self.cfg.checkpoint_interval);
            self.instances.retain(|k, _| *k > horizon);
            self.checkpoint_votes.retain(|k, _| *k > seq);
            self.advance_committed_through();
            events.push(PbftEvent::StableCheckpoint {
                seq: SeqNum(seq),
                state_digest: winner,
            });
        }
    }

    /// Collects this replica's prepared certificates above the stable
    /// checkpoint (the `P` set of a ViewChange message).
    fn prepared_proofs(&self) -> Vec<PreparedProof> {
        self.instances
            .iter()
            .filter(|(seq, i)| **seq > self.last_stable && i.prepared)
            .map(|(seq, i)| PreparedProof {
                view: i.view,
                seq: SeqNum(*seq),
                digest: i.digest.expect("prepared implies digest"),
                batch: i.batch.clone(),
            })
            .collect()
    }

    /// Abandons an unsupported view change: no peer ever demanded one,
    /// so the quorum can never form and the pre-change view is still
    /// the shard's live view. Safe to resume: this replica only sent
    /// ViewChange messages (which stay valid votes should the view
    /// change later find support) and dropped in-flight vote traffic,
    /// which retransmission and checkpoint recovery cover.
    fn abandon_view_change(&mut self, out: &mut Outbox<PbftMsg>, events: &mut Vec<PbftEvent>) {
        self.in_view_change = false;
        self.view = self.pre_vc_view;
        self.vc_backoff = 1;
        self.vc_escalations = 0;
        out.cancel_timer(TimerKind::Local, VIEW_CHANGE_TOKEN);
        events.push(PbftEvent::EnteredView { view: self.view });
    }

    fn start_view_change(
        &mut self,
        target: ViewNum,
        out: &mut Outbox<PbftMsg>,
        _events: &mut Vec<PbftEvent>,
    ) {
        if !self.in_view_change {
            // Remember where we came from and start tracking support.
            self.pre_vc_view = self.view;
            self.vc_support_seen = false;
            self.vc_escalations = 0;
        }
        self.in_view_change = true;
        self.view = target;
        self.backoff = (self.backoff * 2).min(4);
        let proofs = self.prepared_proofs();
        let msg = PbftMsg::ViewChange {
            new_view: target,
            last_stable: SeqNum(self.last_stable),
            prepared: proofs.clone(),
        };
        out.multicast(self.others(), &msg);
        self.view_change_votes
            .entry(target.0)
            .or_default()
            .insert(self.me.index, proofs);
        // If NewView does not arrive, escalate further — with unbounded
        // doubling so phase-shifted replicas eventually align.
        out.set_timer(
            TimerKind::Local,
            VIEW_CHANGE_TOKEN,
            self.cfg.local_timeout * 2 * self.vc_backoff as u64,
        );
        self.vc_backoff = (self.vc_backoff * 2).min(64);
        self.maybe_install_view(target, out, _events);
    }

    fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: ViewNum,
        _last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        // Any peer demanding any view change seconds ours (support in
        // the loosest sense: we are at least not alone).
        self.vc_support_seen = true;
        if new_view <= self.view && !(new_view == self.view && self.in_view_change) {
            return;
        }
        self.view_change_votes
            .entry(new_view.0)
            .or_default()
            .insert(from.index, prepared);
        let votes = self.view_change_votes[&new_view.0].len();
        // Join the view change once f+1 peers demand it (liveness boost —
        // a correct replica cannot be left behind by a Byzantine clique).
        if votes > self.cfg.f() && (!self.in_view_change || new_view > self.view) {
            self.start_view_change(new_view, out, events);
            return;
        }
        // Cross-view alignment (Castro & Liskov §4.5.2): replicas whose
        // escalation timers diverged can split their demands 1-1-1 over
        // consecutive views so no view ever reaches its quorum. If f+1
        // distinct peers demand views above ours, adopt a view at least
        // f+1 of them support — re-synchronising the shard.
        let mut sender_max: HashMap<u32, u64> = HashMap::new();
        for (v, senders) in &self.view_change_votes {
            if *v > self.view.0 || (*v == self.view.0 && !self.in_view_change) {
                for s in senders.keys() {
                    let e = sender_max.entry(*s).or_insert(*v);
                    *e = (*e).max(*v);
                }
            }
        }
        sender_max.remove(&self.me.index);
        if sender_max.len() > self.cfg.f() {
            let mut maxes: Vec<u64> = sender_max.values().copied().collect();
            maxes.sort_unstable_by(|a, b| b.cmp(a));
            // The (f+1)-th largest demand: at least f+1 replicas demand a
            // view ≥ this.
            let target = maxes[self.cfg.f()];
            if target > self.view.0 || (target == self.view.0 && !self.in_view_change) {
                self.start_view_change(ViewNum(target.max(self.view.0 + 1)), out, events);
                return;
            }
        }
        self.maybe_install_view(new_view, out, events);
    }

    /// If we are the primary of `target` and hold `nf` ViewChange votes,
    /// install the view and broadcast NewView with merged re-proposals.
    fn maybe_install_view(
        &mut self,
        target: ViewNum,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        if target.primary_index(self.cfg.n) != self.me.index {
            return;
        }
        if !self.in_view_change || self.view != target {
            return;
        }
        let Some(votes) = self.view_change_votes.get(&target.0) else {
            return;
        };
        if votes.len() < self.cfg.nf() {
            return;
        }
        // Merge prepared proofs: highest view wins per sequence number.
        let mut merged: BTreeMap<u64, PreparedProof> = BTreeMap::new();
        for proofs in votes.values() {
            for p in proofs {
                if p.seq.0 <= self.last_stable {
                    continue;
                }
                match merged.get(&p.seq.0) {
                    Some(existing) if existing.view >= p.view => {}
                    _ => {
                        merged.insert(p.seq.0, p.clone());
                    }
                }
            }
        }
        // Fill sequence gaps with null requests (Castro & Liskov §4.4):
        // a pre-prepare lost in the view change leaves a hole that would
        // stall sequence-ordered lock admission forever. If any replica
        // committed a sequence number, the quorum-intersection argument
        // guarantees a prepared proof for it reaches `merged`, so nulls
        // are only assigned to slots no correct replica decided.
        let horizon = merged
            .keys()
            .max()
            .copied()
            .unwrap_or(self.last_stable)
            .max(self.max_seq_seen);
        for seq in (self.last_stable + 1)..=horizon {
            if merged.contains_key(&seq) {
                continue;
            }
            if self.instances.get(&seq).is_some_and(|i| i.committed) {
                continue;
            }
            let null_batch = Arc::new(Batch::new_unchecked(
                ringbft_types::BatchId(u64::MAX ^ seq),
                Vec::new(),
            ));
            merged.insert(
                seq,
                PreparedProof {
                    view: target,
                    seq: SeqNum(seq),
                    digest: batch_digest(&null_batch),
                    batch: Some(null_batch),
                },
            );
        }
        let preprepares: Vec<PreparedProof> = merged.into_values().collect();
        let msg = PbftMsg::NewView {
            view: target,
            preprepares: preprepares.clone(),
        };
        out.multicast(self.others(), &msg);
        self.enter_view(target, preprepares, out, events);
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: ViewNum,
        preprepares: Vec<PreparedProof>,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        if from.index != view.primary_index(self.cfg.n) {
            return;
        }
        if view < self.view || (view == self.view && !self.in_view_change) {
            return;
        }
        self.view = view;
        self.enter_view(view, preprepares, out, events);
    }

    fn enter_view(
        &mut self,
        view: ViewNum,
        preprepares: Vec<PreparedProof>,
        out: &mut Outbox<PbftMsg>,
        events: &mut Vec<PbftEvent>,
    ) {
        self.in_view_change = false;
        self.vc_backoff = 1;
        out.cancel_timer(TimerKind::Local, VIEW_CHANGE_TOKEN);
        self.view_change_votes.retain(|v, _| *v > view.0);
        events.push(PbftEvent::EnteredView { view });
        let i_am_primary = self.is_primary();
        let others: Vec<NodeId> = self.others().collect();
        let mut max_reproposed = self.max_seq_seen;
        for proof in preprepares {
            let seq = proof.seq;
            if seq.0 <= self.last_stable {
                continue;
            }
            max_reproposed = max_reproposed.max(seq.0);
            let inst = self.instances.entry(seq.0).or_default();
            if inst.committed {
                continue; // already done; view change preserves it
            }
            // Reset the instance into the new view.
            inst.view = view;
            inst.digest = Some(proof.digest);
            if inst.batch.is_none() {
                inst.batch = proof.batch.clone();
            }
            inst.preprepared = true;
            inst.prepared = false;
            inst.prepares.clear();
            inst.commits.clear();
            // New primary's NewView counts as its prepare vote.
            inst.prepares
                .insert(proof.digest, view.primary_index(self.cfg.n));
            if !i_am_primary {
                let prep = PbftMsg::Prepare {
                    view,
                    seq,
                    digest: proof.digest,
                };
                out.multicast(others.iter().copied(), &prep);
                inst.prepares.insert(proof.digest, self.me.index);
            }
            out.set_timer(TimerKind::Local, seq.0, self.request_timeout());
        }
        self.max_seq_seen = max_reproposed;
        if i_am_primary {
            self.next_seq = self.next_seq.max(max_reproposed + 1);
        }
        // Re-check quorums for re-proposed instances.
        let seqs: Vec<u64> = self.instances.keys().copied().collect();
        for s in seqs {
            self.check_quorums(s, out, events);
        }
    }

    /// Drives a one-replica shard to completion instantly (degenerate but
    /// useful for tests of outer layers).
    pub fn single_replica(&self) -> bool {
        self.cfg.n == 1
    }

    /// Externally-triggered view change: used by RingBFT's remote view
    /// change (§5.1.2, Fig 6 line 6: "Initiate Local view-change
    /// protocol") and by the client-broadcast fallback (A1) when the
    /// primary sits on a forwarded request. No-op if already changing.
    pub fn force_view_change(&mut self, out: &mut Outbox<PbftMsg>, events: &mut Vec<PbftEvent>) {
        if self.in_view_change {
            return;
        }
        let next = self.view.next();
        self.start_view_change(next, out, events);
    }
}

/// Convenience: run `on_message` returning `(actions, events)` — handy in
/// tests and thin adapters.
pub fn step(
    core: &mut PbftCore,
    now: Instant,
    from: ReplicaId,
    msg: PbftMsg,
) -> (Vec<Action<PbftMsg>>, Vec<PbftEvent>) {
    let mut out = Outbox::new();
    let mut events = Vec::new();
    core.on_message(now, from, msg, &mut out, &mut events);
    (out.take(), events)
}

#[cfg(test)]
mod tests {
    use super::Votes;

    #[test]
    fn votes_count_distinct_voters_per_digest() {
        let (a, b) = ([1u8; 32], [2u8; 32]);
        let mut v = Votes::default();
        for voter in [3, 0, 3, 70, 2, 70] {
            v.insert(a, voter);
        }
        // A conflicting digest, including from replicas that voted `a`.
        for voter in [1, 0, 65] {
            v.insert(b, voter);
        }
        assert_eq!(v.count(&a), 4);
        assert_eq!(v.voters(&a), vec![0, 2, 3, 70]);
        assert_eq!(v.count(&b), 3);
        assert_eq!(v.voters(&b), vec![0, 1, 65]);
        assert_eq!(v.count(&[9u8; 32]), 0);
        v.clear();
        assert_eq!(v.count(&a), 0);
        v.insert(b, 5);
        assert_eq!(v.voters(&b), vec![5]);
    }
}
