//! The sans-io recovery state machine: serves checkpoints to lagging
//! same-shard peers and fetches them when this replica is the laggard.
//!
//! Transfers are negotiated as *chains* (PR 4, incremental snapshots):
//! a [`RecoveryMsg::StateRequest`] advertises the requester's last
//! checkpoint `(seq, digest)` base; a donor that recognizes that base
//! in its retained delta chain answers with the shortest chain of
//! O(churn) [`DeltaSnapshot`] links, and falls back to a full snapshot
//! link (plus any newer deltas) otherwise. The donor announces the plan
//! ([`RecoveryMsg::StatePlan`]), streams each link's records in
//! [`RecoveryMsg::StateChunk`] slices, and the receiver reassembles,
//! folds, and verifies every link's chained digest before anything is
//! installed ([`ChainTransfer::fold_verified`]).

use crate::snapshot::{ChainTransfer, DeltaSnapshot, PlanLink, RecordEntry, Snapshot};
use ringbft_crypto::Digest;
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::{wire, Action, Duration, Instant, NodeId, Outbox, ReplicaId, TimerKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Timer token of the recovery probe watchdog (on [`TimerKind::Client`]),
/// chosen from the RingBFT-level token space so it never collides with
/// PBFT sequence-number tokens or the replica's cst watchdogs.
pub const RECOVERY_PROBE_TOKEN: u64 = (1 << 62) - 2;

/// How many distinct stable-checkpoint digests the manager remembers for
/// validating inbound transfer offers — and how many checkpoint windows
/// of delta snapshots a donor retains for serving chains. Delta chains
/// longer than this lose their quorum anchors; `SystemConfig::validate`
/// caps `full_snapshot_every` at the same shared constant.
const KNOWN_STABLE_KEEP: usize = ringbft_types::DELTA_CHAIN_KEEP;

/// State-transfer messages, exchanged only between replicas of one shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryMsg {
    /// "Send me state newer than `from_seq`" — unicast to a single peer
    /// at a time (linear-primitive discipline; the probe timer rotates
    /// the donor). `base` names the checkpoint state the requester
    /// already holds verified, so the donor can answer with a delta
    /// chain instead of a full snapshot; `None` (blank restart, or a
    /// requester whose previous chain was rejected) forces the full
    /// fallback.
    StateRequest {
        /// The requester's current execution watermark.
        from_seq: u64,
        /// The requester's last checkpoint `(seq, digest)`, if any.
        base: Option<(u64, Digest)>,
    },
    /// Transfer header: the chain of links about to be streamed, the
    /// quorum-stable target they reach, and the donor's ledger base at
    /// the target (not part of the digest — see the crate docs' ledger
    /// trust note).
    StatePlan {
        /// Checkpoint sequence the chain reaches.
        target_seq: u64,
        /// The target's state digest (must match a quorum-stable
        /// checkpoint digest the receiver observed).
        target_digest: Digest,
        /// The chain links in application order.
        links: Vec<PlanLink>,
        /// Donor's ledger height at the target checkpoint.
        ledger_height: u64,
        /// Donor's chain head hash at the target checkpoint.
        ledger_head: Digest,
    },
    /// One slice of one chain link's record list.
    StateChunk {
        /// Checkpoint sequence the transfer's chain reaches.
        target_seq: u64,
        /// The transfer's quorum-stable target digest.
        target_digest: Digest,
        /// The chain link this slice belongs to (its endpoint seq).
        link_seq: u64,
        /// True when the link is a delta (used for byte accounting; the
        /// authoritative link metadata travels in the plan).
        delta: bool,
        /// Zero-based chunk index within the link (the link's chunk
        /// count travels authoritatively in the plan).
        chunk: u32,
        /// The records of this slice (ascending by key within the link).
        records: Vec<RecordEntry>,
    },
    /// Single-sequence commit-certificate fetch (see [`crate::hole`]):
    /// "send me the commit certificate and batch for this sequence".
    HoleRequest(ringbft_types::hole::HoleRequest),
    /// A donor's certificate + batch answer. The host verifies the
    /// `nf`-strong certificate and the batch digest before installing.
    HoleReply(ringbft_types::hole::HoleReply),
}

impl RecoveryMsg {
    /// Short tag for logging/metrics.
    pub fn tag(&self) -> &'static str {
        match self {
            RecoveryMsg::StateRequest { .. } => "state-request",
            RecoveryMsg::StatePlan { .. } => "state-plan",
            RecoveryMsg::StateChunk { .. } => "state-chunk",
            RecoveryMsg::HoleRequest(_) => "hole-request",
            RecoveryMsg::HoleReply(_) => "hole-reply",
        }
    }
}

/// Outputs of the manager for the hosting replica to act on.
#[derive(Debug)]
pub enum RecoveryEvent {
    /// A transfer arrived complete and admission-checked against a
    /// quorum-stable target: the host folds the chain onto its own
    /// checkpoint store, verifies every link
    /// ([`ChainTransfer::fold_verified`]), and installs the result —
    /// reporting back via [`RecoveryManager::confirm_install`] or
    /// [`RecoveryManager::chain_rejected`].
    InstallChain(ChainTransfer),
}

/// Counters for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// StateRequests this replica sent.
    pub requests_sent: u64,
    /// StateRequests this replica answered with a transfer.
    pub transfers_served: u64,
    /// Transfers served as pure delta chains (no full link shipped).
    pub delta_transfers_served: u64,
    /// Chunks received (accepted into an assembly).
    pub chunks_received: u64,
    /// Completed transfers whose folded chain verified (whether or not
    /// the host then installed — it may refuse a verified snapshot that
    /// races local state).
    pub transfers_verified: u64,
    /// Snapshots the *host* actually installed.
    pub installs: u64,
    /// Installs whose transfer was a pure delta chain.
    pub delta_installs: u64,
    /// Installs whose transfer shipped a full snapshot link.
    pub full_installs: u64,
    /// Completed transfers rejected for a digest/chain mismatch.
    pub bad_digests: u64,
    /// Honest transfers dropped because they raced this replica's own
    /// progress: the chain was built for a base the replica has since
    /// advanced past. Not an integrity failure — the next request
    /// advertises the new base.
    pub stale_chains: u64,
    /// Modeled wire bytes of accepted full-snapshot chunks.
    pub bytes_full: u64,
    /// Modeled wire bytes of accepted delta chunks.
    pub bytes_delta: u64,
}

impl RecoveryStats {
    /// Total modeled state-transfer bytes this replica accepted.
    pub fn transfer_bytes(&self) -> u64 {
        self.bytes_full + self.bytes_delta
    }
}

/// A transfer being reassembled.
#[derive(Debug)]
struct Assembly {
    target_seq: u64,
    target_digest: Digest,
    /// The plan, once it arrived: links + the donor's ledger base.
    plan: Option<(Vec<PlanLink>, u64, Digest)>,
    /// Received slices, keyed by `(link_seq, is_delta, chunk index)`.
    /// The delta flag keeps one donor's *full* link at a boundary from
    /// colliding with another donor's *delta* link at the same boundary
    /// when a stalled transfer is retried; honest same-kind slices are
    /// interchangeable (delta and full captures of one checkpoint are
    /// replica-deterministic, and the chunking stride is a cluster-wide
    /// knob).
    chunks: BTreeMap<(u64, bool, u32), Vec<RecordEntry>>,
}

impl Assembly {
    fn progress(&self) -> usize {
        self.chunks.len() + usize::from(self.plan.is_some())
    }
}

/// One retained chain entry on the donor side.
#[derive(Debug)]
struct RetainedDelta {
    delta: Arc<DeltaSnapshot>,
    /// Full-state digest after applying the delta.
    digest: Digest,
}

/// The recovery state machine of one shard replica. Sans-io: every
/// entry point takes an [`Outbox`] and the hosting replica performs the
/// sends/timers (directly, or lifted into its own message space).
pub struct RecoveryManager {
    me: ReplicaId,
    chunk_records: usize,
    probe_interval: Duration,
    /// The latest *full* snapshot this replica can serve (captured every
    /// `full_snapshot_every` windows, or installed), with its digest.
    base: Option<(Arc<Snapshot>, Digest)>,
    /// Verified delta snapshots of recent checkpoint windows, oldest
    /// first, each continuous with its predecessor (and with `base`
    /// where their ranges overlap). Bounded to [`KNOWN_STABLE_KEEP`]
    /// windows.
    deltas: VecDeque<RetainedDelta>,
    /// Quorum-stable `(seq, digest)` pairs observed via PBFT checkpoint
    /// stabilization — the only targets inbound transfers are accepted
    /// for.
    known_stable: BTreeMap<u64, Digest>,
    /// The stable checkpoint sequence this replica is trying to reach
    /// (None = caught up).
    target: Option<u64>,
    /// This replica's execution watermark as last reported by the host.
    local_floor: u64,
    /// The checkpoint `(seq, digest)` the host's canonical stable store
    /// currently holds — advertised as the delta base in StateRequests.
    local_base: Option<(u64, Digest)>,
    /// Set after a chain rejection: the *next* request omits the base
    /// so that donor falls back to a full snapshot (defence in depth if
    /// this replica's own base state is bad). One-shot — consumed by a
    /// single request — so a Byzantine peer forging rejected chains can
    /// only downgrade one probe at a time, never durably force a
    /// delta-capable laggard onto O(state) transfers.
    force_full: bool,
    assembly: Option<Assembly>,
    /// Assembly progress observed at the last probe tick, used to
    /// suppress redundant full retransfers while one is arriving.
    last_probe_progress: Option<(u64, usize)>,
    donors: crate::hole::DonorRotation,
    probing: bool,
    events: Vec<RecoveryEvent>,
    /// Counters.
    pub stats: RecoveryStats,
}

impl RecoveryManager {
    /// Creates the manager for replica `me` of a shard of `n` replicas.
    /// `chunk_records` bounds the records per [`RecoveryMsg::StateChunk`];
    /// `probe_interval` paces donor rotation while behind.
    pub fn new(me: ReplicaId, n: usize, chunk_records: usize, probe_interval: Duration) -> Self {
        RecoveryManager {
            me,
            chunk_records: chunk_records.max(1),
            probe_interval,
            base: None,
            deltas: VecDeque::new(),
            known_stable: BTreeMap::new(),
            target: None,
            local_floor: 0,
            local_base: None,
            force_full: false,
            assembly: None,
            last_probe_progress: None,
            donors: crate::hole::DonorRotation::new(me, n),
            probing: false,
            events: Vec::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// The `(seq, digest)` of the newest state this replica can serve.
    fn tip(&self) -> Option<(u64, Digest)> {
        let delta_tip = self.deltas.back().map(|d| (d.delta.seq, d.digest));
        let base_tip = self.base.as_ref().map(|(s, d)| (s.seq, *d));
        match (delta_tip, base_tip) {
            (Some(d), Some(b)) => Some(if d.0 >= b.0 { d } else { b }),
            (d, b) => d.or(b),
        }
    }

    /// Remembers `snap`, whose verified full-state digest is `digest`
    /// (the host voted it or installed against it — recomputing it here
    /// would be an O(keys) hash on the checkpoint path), as the full
    /// snapshot this replica serves to laggards whose base it does not
    /// recognize. Retained deltas stay servable when they are
    /// continuous with the new base (same tip); a jump (snapshot
    /// install) breaks the chain and drops them.
    pub fn retain(&mut self, snap: Arc<Snapshot>, digest: Digest) {
        let tip = self.tip();
        if tip.is_some_and(|(s, _)| s > snap.seq) {
            return; // older than what we already serve
        }
        if tip.is_some_and(|(s, _)| s < snap.seq) {
            // The full snapshot is ahead of every retained delta: the
            // chain no longer reaches it, so the deltas are useless.
            self.deltas.clear();
        }
        self.base = Some((snap, digest));
        self.trim_deltas();
    }

    /// Bounds the retained chain by windows and by size. Deltas at or
    /// below the full base exist to spare laggards the base: a laggard
    /// whose state is the oldest such delta's base receives all of them
    /// (plus the deltas above the base, which the full fallback ships
    /// too), so once they hold as many records as the base itself that
    /// chain cannot beat the fallback in bytes, and the oldest goes.
    /// Deltas above the base are never dropped for size — the fallback
    /// chain from the base to the tip runs through them.
    fn trim_deltas(&mut self) {
        while self.deltas.len() > KNOWN_STABLE_KEEP {
            self.deltas.pop_front();
        }
        let Some((base, _)) = &self.base else { return };
        let mut below: usize = self
            .deltas
            .iter()
            .take_while(|d| d.delta.seq <= base.seq)
            .map(|d| d.delta.records.len())
            .sum();
        while below >= base.records.len().max(1) {
            let oldest = self.deltas.pop_front().expect("counted above");
            below -= oldest.delta.records.len();
        }
    }

    /// Remembers a verified delta checkpoint (this replica's digest won
    /// the quorum vote, or the chain it arrived in verified against
    /// one). `resulting_digest` is the full-state digest after the
    /// delta. A delta that does not chain onto the current tip restarts
    /// the retained chain.
    pub fn retain_delta(&mut self, delta: Arc<DeltaSnapshot>, resulting_digest: Digest) {
        let tip = self.tip();
        if tip.is_some_and(|(s, _)| s >= delta.seq) {
            return; // stale
        }
        if tip != Some((delta.base_seq, delta.base_digest)) {
            // Chain break (divergence, missed window): older deltas can
            // no longer extend to this one.
            self.deltas.clear();
            // The full base can still anchor the new delta if it is the
            // delta's base; otherwise the delta is unservable alone.
            if self
                .base
                .as_ref()
                .is_none_or(|(s, d)| (s.seq, *d) != (delta.base_seq, delta.base_digest))
            {
                return;
            }
        }
        self.deltas.push_back(RetainedDelta {
            delta,
            digest: resulting_digest,
        });
        self.trim_deltas();
    }

    /// Checkpoint sequence of the newest retained state, if any.
    pub fn retained_seq(&self) -> Option<u64> {
        self.tip().map(|(s, _)| s)
    }

    /// Number of retained delta windows (diagnostics).
    pub fn retained_delta_windows(&self) -> usize {
        self.deltas.len()
    }

    /// Records a quorum-stable `(seq, digest)` pair (from the PBFT
    /// `StableCheckpoint` event) for transfer validation.
    pub fn note_stable(&mut self, seq: u64, digest: Digest) {
        self.known_stable.insert(seq, digest);
        while self.known_stable.len() > KNOWN_STABLE_KEEP {
            let oldest = *self.known_stable.keys().next().expect("non-empty");
            self.known_stable.remove(&oldest);
        }
    }

    /// The quorum-stable digest observed for checkpoint `seq`, if still
    /// remembered — the per-link anchor for chain verification.
    pub fn stable_digest(&self, seq: u64) -> Option<Digest> {
        self.known_stable.get(&seq).copied()
    }

    /// The host's canonical stable store advanced to checkpoint
    /// `(seq, digest)`: advertised as the delta base of future
    /// StateRequests. Clears any full-fallback override — the base is
    /// fresh again.
    pub fn set_local_base(&mut self, seq: u64, digest: Digest) {
        self.local_base = Some((seq, digest));
        self.force_full = false;
    }

    /// The host's own checkpoint state turned out to be corrupt (its
    /// announced digest lost a checkpoint quorum vote): stop
    /// advertising it as a delta base and force the next request onto
    /// the full-snapshot path. Unlike [`RecoveryManager::chain_rejected`]
    /// this counts no integrity failure — the donors did nothing wrong.
    pub fn invalidate_base(&mut self) {
        self.local_base = None;
        self.force_full = true;
    }

    /// The host fell behind the stable checkpoint `seq`: remember the
    /// catch-up target and make sure the probe timer is running. The
    /// probe fires after `probe_interval` — a healthy replica that was
    /// merely mid-flight catches up before then and the probe no-ops.
    pub fn set_behind(&mut self, seq: u64, watermark: u64, out: &mut Outbox<RecoveryMsg>) {
        self.local_floor = watermark;
        self.target = Some(self.target.unwrap_or(0).max(seq));
        if !self.probing {
            self.probing = true;
            out.set_timer(TimerKind::Client, RECOVERY_PROBE_TOKEN, self.probe_interval);
        }
    }

    /// The catch-up target, if the replica is behind.
    pub fn target(&self) -> Option<u64> {
        self.target
    }

    /// The host's execution watermark advanced: clears the target once
    /// caught up.
    pub fn caught_up_to(&mut self, watermark: u64) {
        self.local_floor = self.local_floor.max(watermark);
        if self.target.is_some_and(|t| watermark >= t) {
            self.target = None;
            self.assembly = None;
        }
    }

    /// Handles the probe timer: while still behind, ask the next donor
    /// and re-arm. A transfer that made progress since the previous tick
    /// suppresses the request — a large snapshot (hundreds of chunks)
    /// must not trigger a second full O(state) retransfer from another
    /// donor just because it outlasts one probe interval.
    pub fn on_probe_timer(&mut self, out: &mut Outbox<RecoveryMsg>) {
        if self.target.is_none() {
            self.probing = false;
            self.last_probe_progress = None;
            return;
        }
        let progress = self.assembly.as_ref().map(|a| (a.target_seq, a.progress()));
        let advancing = progress.is_some() && progress != self.last_probe_progress;
        self.last_probe_progress = progress;
        if !advancing {
            // A stalled assembly is abandoned before asking the next
            // donor: its plan (from a donor that may have died
            // mid-stream) would otherwise pin the transfer shape
            // forever — later donors may legitimately answer with a
            // different chain for the same target (e.g. a full fallback
            // after they cleared their own deltas), and `on_plan` keeps
            // only the first plan per target.
            self.assembly = None;
            self.last_probe_progress = None;
            if let Some(donor) = self.donors.next_donor() {
                let base = if std::mem::take(&mut self.force_full) {
                    None
                } else {
                    self.local_base
                };
                out.send(
                    donor,
                    RecoveryMsg::StateRequest {
                        from_seq: self.local_floor,
                        base,
                    },
                );
                self.stats.requests_sent += 1;
            }
        }
        out.set_timer(TimerKind::Client, RECOVERY_PROBE_TOKEN, self.probe_interval);
    }

    /// Handles a recovery message from same-shard replica `from`.
    pub fn on_message(&mut self, from: ReplicaId, msg: RecoveryMsg, out: &mut Outbox<RecoveryMsg>) {
        if from.shard != self.me.shard || from == self.me {
            return;
        }
        match msg {
            RecoveryMsg::StateRequest { from_seq, base } => self.serve(from, from_seq, base, out),
            RecoveryMsg::StatePlan {
                target_seq,
                target_digest,
                links,
                ledger_height,
                ledger_head,
            } => self.on_plan(target_seq, target_digest, links, ledger_height, ledger_head),
            RecoveryMsg::StateChunk {
                target_seq,
                target_digest,
                link_seq,
                delta,
                chunk,
                records,
            } => self.on_chunk(target_seq, target_digest, link_seq, delta, chunk, records),
            // Hole fetch is handled by the hosting replica (it owns the
            // PBFT log the certificates come from); see `crate::hole`.
            RecoveryMsg::HoleRequest(_) | RecoveryMsg::HoleReply(_) => {}
        }
    }

    /// Answers a state request with the shortest chain that reaches the
    /// retained tip: a pure delta chain when the requester's base is a
    /// point of our retained chain, the full snapshot plus newer deltas
    /// otherwise.
    fn serve(
        &mut self,
        to: ReplicaId,
        from_seq: u64,
        req_base: Option<(u64, Digest)>,
        out: &mut Outbox<RecoveryMsg>,
    ) {
        let Some((tip_seq, tip_digest)) = self.tip() else {
            return;
        };
        if tip_seq <= from_seq {
            return; // nothing newer to offer; the requester rotates on
        }
        // Delta path: the requester's base is a chain point we retain.
        let mut links: Vec<(PlanLink, &[RecordEntry])> = Vec::new();
        if let Some(b) = req_base {
            if let Some(idx) = self
                .deltas
                .iter()
                .position(|d| (d.delta.base_seq, d.delta.base_digest) == b)
            {
                for d in self.deltas.iter().skip(idx) {
                    links.push((
                        PlanLink {
                            seq: d.delta.seq,
                            digest: d.digest,
                            base: Some((d.delta.base_seq, d.delta.base_digest)),
                            chunks: chunk_count(d.delta.records.len(), self.chunk_records),
                        },
                        &d.delta.records,
                    ));
                }
            }
        }
        // Full fallback: the base snapshot plus every newer delta.
        let delta_only = !links.is_empty();
        if !delta_only {
            let Some((snap, digest)) = &self.base else {
                return; // only deltas retained and no usable base
            };
            links.push((
                PlanLink {
                    seq: snap.seq,
                    digest: *digest,
                    base: None,
                    chunks: chunk_count(snap.records.len(), self.chunk_records),
                },
                &snap.records,
            ));
            let mut prev = (snap.seq, *digest);
            let floor = snap.seq;
            for d in self.deltas.iter().filter(move |d| d.delta.seq > floor) {
                if (d.delta.base_seq, d.delta.base_digest) != prev {
                    break; // defensive: never ship a discontinuous chain
                }
                links.push((
                    PlanLink {
                        seq: d.delta.seq,
                        digest: d.digest,
                        base: Some(prev),
                        chunks: chunk_count(d.delta.records.len(), self.chunk_records),
                    },
                    &d.delta.records,
                ));
                prev = (d.delta.seq, d.digest);
            }
        }
        let (target_seq, target_digest) = links
            .last()
            .map(|(l, _)| (l.seq, l.digest))
            .expect("links non-empty");
        // Normally the chain reaches the retained tip; after a chain
        // break (divergence, or a full-capture cadence outliving the
        // delta memory) the longest continuous prefix is still a valid,
        // shorter offer — its endpoint was a stable checkpoint too.
        let _ = (tip_seq, tip_digest);
        // Ledger base of the chain's endpoint entry.
        let (ledger_height, ledger_head) = self
            .deltas
            .iter()
            .find(|d| d.delta.seq == target_seq)
            .map(|d| (d.delta.ledger_height, d.delta.ledger_head))
            .or_else(|| {
                self.base
                    .as_ref()
                    .map(|(s, _)| (s.ledger_height, s.ledger_head))
            })
            .expect("chain endpoint is a retained entry");
        let to = NodeId::Replica(to);
        out.send(
            to,
            RecoveryMsg::StatePlan {
                target_seq,
                target_digest,
                links: links.iter().map(|(l, _)| *l).collect(),
                ledger_height,
                ledger_head,
            },
        );
        for (link, records) in links {
            for (i, slice) in records.chunks(self.chunk_records).enumerate() {
                out.send(
                    to,
                    RecoveryMsg::StateChunk {
                        target_seq,
                        target_digest,
                        link_seq: link.seq,
                        delta: link.base.is_some(),
                        chunk: i as u32,
                        records: slice.to_vec(),
                    },
                );
            }
        }
        self.stats.transfers_served += 1;
        if delta_only {
            self.stats.delta_transfers_served += 1;
        }
    }

    /// Is a transfer toward `(seq, digest)` acceptable right now? Only
    /// state a checkpoint quorum (or weak certificate) vouched for, and
    /// only above the host's watermark. A transfer *below* the catch-up
    /// target is still progress — donors serve their verified stable
    /// tip, which may trail a weakly-evidenced boundary this replica
    /// learned about; refusing it would wedge recovery exactly when the
    /// shard's checkpoint cadence is wedged too.
    fn admissible(&self, target_seq: u64, target_digest: Digest) -> bool {
        if self.target.is_none() {
            return false; // not recovering
        }
        target_seq > self.local_floor && self.known_stable.get(&target_seq) == Some(&target_digest)
    }

    /// (Re)points the assembly at the given target, dropping a stale one.
    fn assembly_for(&mut self, target_seq: u64, target_digest: Digest) -> &mut Assembly {
        let restart = self
            .assembly
            .as_ref()
            .is_none_or(|a| a.target_seq != target_seq || a.target_digest != target_digest);
        if restart {
            self.assembly = Some(Assembly {
                target_seq,
                target_digest,
                plan: None,
                chunks: BTreeMap::new(),
            });
        }
        self.assembly.as_mut().expect("just ensured")
    }

    fn on_plan(
        &mut self,
        target_seq: u64,
        target_digest: Digest,
        links: Vec<PlanLink>,
        ledger_height: u64,
        ledger_head: Digest,
    ) {
        if !self.admissible(target_seq, target_digest) || links.is_empty() {
            return;
        }
        // The plan must actually end at its claimed target.
        if links.last().map(|l| (l.seq, l.digest)) != Some((target_seq, target_digest)) {
            return;
        }
        // Link sequences must be strictly ascending — in particular
        // distinct: reassembly keys chunks by (link seq, index), so a
        // forged plan with two links sharing a seq could otherwise pass
        // the per-link completion check against one shared chunk set
        // and panic the receiver when the second link finds the slots
        // already drained. Forged transfers are rejected, never fatal.
        if links.windows(2).any(|w| w[0].seq >= w[1].seq) {
            return;
        }
        let a = self.assembly_for(target_seq, target_digest);
        if a.plan.is_none() {
            a.plan = Some((links, ledger_height, ledger_head));
        }
        self.try_complete();
    }

    fn on_chunk(
        &mut self,
        target_seq: u64,
        target_digest: Digest,
        link_seq: u64,
        delta: bool,
        chunk: u32,
        records: Vec<RecordEntry>,
    ) {
        if !self.admissible(target_seq, target_digest) {
            return;
        }
        let bytes = wire::state_chunk_bytes(records.len());
        let a = self.assembly_for(target_seq, target_digest);
        if a.chunks.insert((link_seq, delta, chunk), records).is_none() {
            self.stats.chunks_received += 1;
            if delta {
                self.stats.bytes_delta += bytes;
            } else {
                self.stats.bytes_full += bytes;
            }
        }
        self.try_complete();
    }

    /// Completes the assembly once the plan and every link's chunks
    /// arrived, handing the chain to the host for fold + verification.
    fn try_complete(&mut self) {
        let done = {
            let Some(a) = &self.assembly else { return };
            match &a.plan {
                None => false,
                Some((links, _, _)) => links.iter().all(|l| {
                    (0..l.chunks).all(|i| a.chunks.contains_key(&(l.seq, l.base.is_some(), i)))
                }),
            }
        };
        if !done {
            return;
        }
        let mut a = self.assembly.take().expect("checked above");
        let (links, ledger_height, ledger_head) = a.plan.take().expect("checked above");
        let links = links
            .into_iter()
            .map(|l| {
                let mut records = Vec::new();
                for i in 0..l.chunks {
                    records.append(
                        &mut a
                            .chunks
                            .remove(&(l.seq, l.base.is_some(), i))
                            .expect("checked above"),
                    );
                }
                (l, records)
            })
            .collect();
        self.events.push(RecoveryEvent::InstallChain(ChainTransfer {
            target_seq: a.target_seq,
            target_digest: a.target_digest,
            links,
            ledger_height,
            ledger_head,
        }));
    }

    /// The host folded and verified an [`RecoveryEvent::InstallChain`]
    /// transfer and installed the result. `delta` reports whether the
    /// chain was delta-only.
    pub fn confirm_install(&mut self, delta: bool) {
        self.stats.transfers_verified += 1;
        self.stats.installs += 1;
        if delta {
            self.stats.delta_installs += 1;
        } else {
            self.stats.full_installs += 1;
        }
    }

    /// The host verified a transfer but refused to install it (it raced
    /// local progress).
    pub fn verified_not_installed(&mut self) {
        self.stats.transfers_verified += 1;
    }

    /// The host's fold + verification rejected a completed transfer on
    /// a digest or continuity check (corrupt or forged): count it and
    /// force the next request onto the full path — the probe timer
    /// keeps rotating donors.
    pub fn chain_rejected(&mut self) {
        self.stats.bad_digests += 1;
        self.force_full = true;
    }

    /// A completed transfer was chained onto a base this replica has
    /// since advanced past (its own checkpoint moved while the chunks
    /// were in flight). Honest and harmless — nothing installs, and the
    /// next request advertises the fresh base, so no full fallback is
    /// forced and no integrity counter moves.
    pub fn chain_stale(&mut self) {
        self.stats.stale_chains += 1;
    }

    /// Drains events produced by the last entry-point call.
    pub fn take_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.events)
    }
}

fn chunk_count(records: usize, per_chunk: usize) -> u32 {
    records.div_ceil(per_chunk) as u32
}

/// The manager is itself a driver-hostable protocol node, so it can be
/// unit-driven (or hosted standalone) through the same contract the
/// simulator and the TCP runtime speak.
impl ProtocolNode<RecoveryMsg> for RecoveryManager {
    fn on_start(&mut self, _now: Instant) -> Vec<Action<RecoveryMsg>> {
        Vec::new()
    }

    fn on_message(
        &mut self,
        _now: Instant,
        from: NodeId,
        msg: RecoveryMsg,
    ) -> Vec<Action<RecoveryMsg>> {
        let NodeId::Replica(r) = from else {
            return Vec::new();
        };
        let mut out = Outbox::new();
        self.on_message(r, msg, &mut out);
        out.take()
    }

    fn on_timer(&mut self, _now: Instant, kind: TimerKind, token: u64) -> Vec<Action<RecoveryMsg>> {
        let mut out = Outbox::new();
        if kind == TimerKind::Client && token == RECOVERY_PROBE_TOKEN {
            self.on_probe_timer(&mut out);
        }
        out.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckpointStore;
    use ringbft_store::KvStore;
    use ringbft_types::ShardId;

    fn rep(i: u32) -> ReplicaId {
        ReplicaId::new(ShardId(0), i)
    }

    fn mgr(i: u32, chunk: usize) -> RecoveryManager {
        RecoveryManager::new(rep(i), 4, chunk, Duration::from_millis(100))
    }

    fn store(keys: u64) -> KvStore {
        let mut kv = KvStore::new();
        for k in 0..keys {
            kv.put(k, k * 7 + 1);
        }
        kv
    }

    fn snapshot(seq: u64, keys: u64) -> Snapshot {
        Snapshot::capture(ShardId(0), seq, &store(keys), 3, [5; 32])
    }

    /// Retains `snap` under its from-scratch digest.
    fn retain_full(m: &mut RecoveryManager, snap: Arc<Snapshot>) {
        let digest = snap.digest();
        m.retain(snap, digest);
    }

    /// Routes every Send in `out` into `to`, collecting its own sends.
    fn route(from: u32, out: &mut Outbox<RecoveryMsg>, to: &mut RecoveryManager) {
        let mut sink = Outbox::new();
        for a in out.take() {
            if let Action::Send { msg, .. } = a {
                to.on_message(rep(from), msg, &mut sink);
            }
        }
    }

    /// Runs a full donor → laggard transfer through the two managers,
    /// returning the laggard and its events.
    fn transfer(chunk_records: usize, keys: u64) -> (RecoveryManager, Vec<RecoveryEvent>) {
        let snap = snapshot(8, keys);
        let digest = snap.digest();
        let mut donor = mgr(1, chunk_records);
        retain_full(&mut donor, Arc::new(snap));
        let mut laggard = mgr(2, chunk_records);
        laggard.note_stable(8, digest);
        let mut out = Outbox::new();
        laggard.set_behind(8, 0, &mut out);
        laggard.on_probe_timer(&mut out);
        let mut donor_out = Outbox::new();
        for a in out.take() {
            if let Action::Send { msg, .. } = a {
                donor.on_message(rep(2), msg, &mut donor_out);
            }
        }
        route(1, &mut donor_out, &mut laggard);
        let events = laggard.take_events();
        (laggard, events)
    }

    /// Folds + verifies an InstallChain event the way the host does.
    fn fold(events: &[RecoveryEvent]) -> Snapshot {
        let [RecoveryEvent::InstallChain(t)] = events else {
            panic!("expected one InstallChain, got {events:?}");
        };
        t.fold_verified(ShardId(0), None, |_| None)
            .expect("chain verifies")
    }

    #[test]
    fn chunked_transfer_assembles_verified_full_snapshot() {
        for chunk in [1usize, 3, 100] {
            let (laggard, events) = transfer(chunk, 10);
            let snap = fold(&events);
            assert_eq!(snap.seq, 8, "chunk size {chunk}");
            assert_eq!(snap.records.len(), 10);
            assert_eq!(snap.ledger_height, 3);
            assert_eq!(laggard.stats.bad_digests, 0);
            assert!(laggard.stats.bytes_full > 0);
            assert_eq!(laggard.stats.bytes_delta, 0);
        }
    }

    #[test]
    fn empty_store_transfers_with_plan_only() {
        let (_, events) = transfer(16, 0);
        let snap = fold(&events);
        assert!(snap.records.is_empty());
    }

    #[test]
    fn delta_chain_served_when_base_recognized() {
        let shard = ShardId(0);
        let mut kv = store(10);
        let base = Arc::new(Snapshot::capture(shard, 8, &kv, 1, [1; 32]));
        let d0 = base.digest();
        kv.put(3, 999);
        let delta = Arc::new(DeltaSnapshot::capture(
            shard,
            8,
            d0,
            16,
            [3u64],
            &kv,
            2,
            [2; 32],
        ));
        let d1 = Snapshot::digest_of_store(shard, 16, &kv);

        let mut donor = mgr(1, 4);
        retain_full(&mut donor, Arc::clone(&base));
        donor.retain_delta(Arc::clone(&delta), d1);
        assert_eq!(donor.retained_seq(), Some(16));
        assert_eq!(donor.retained_delta_windows(), 1);

        // The laggard holds the base state and advertises it.
        let mut laggard = mgr(2, 4);
        laggard.note_stable(16, d1);
        laggard.set_local_base(8, d0);
        let mut out = Outbox::new();
        laggard.set_behind(16, 8, &mut out);
        laggard.on_probe_timer(&mut out);
        let mut donor_out = Outbox::new();
        for a in out.take() {
            if let Action::Send { msg, .. } = a {
                assert!(
                    matches!(msg, RecoveryMsg::StateRequest { base: Some((8, d)), .. } if d == d0),
                    "request must advertise the base"
                );
                donor.on_message(rep(2), msg, &mut donor_out);
            }
        }
        route(1, &mut donor_out, &mut laggard);
        assert_eq!(donor.stats.delta_transfers_served, 1);

        let events = laggard.take_events();
        let [RecoveryEvent::InstallChain(t)] = events.as_slice() else {
            panic!("expected InstallChain, got {events:?}");
        };
        assert!(t.is_delta_only());
        assert_eq!(t.links.len(), 1);
        let base_store = CheckpointStore::from_records(base.records.clone());
        let folded = t
            .fold_verified(shard, Some((8, d0, &base_store)), |_| None)
            .expect("delta chain verifies");
        assert_eq!(folded.digest(), d1);
        assert_eq!(folded.ledger_height, 2);
        assert!(laggard.stats.bytes_delta > 0);
        assert_eq!(laggard.stats.bytes_full, 0);
    }

    #[test]
    fn unrecognized_base_falls_back_to_full_chain() {
        let shard = ShardId(0);
        let mut kv = store(6);
        let base = Arc::new(Snapshot::capture(shard, 8, &kv, 1, [1; 32]));
        let d0 = base.digest();
        kv.put(2, 222);
        let delta = Arc::new(DeltaSnapshot::capture(
            shard,
            8,
            d0,
            16,
            [2u64],
            &kv,
            2,
            [2; 32],
        ));
        let d1 = Snapshot::digest_of_store(shard, 16, &kv);
        let mut donor = mgr(1, 4);
        retain_full(&mut donor, Arc::clone(&base));
        donor.retain_delta(delta, d1);

        // Blank restart: no base to advertise.
        let mut laggard = mgr(2, 4);
        laggard.note_stable(16, d1);
        let mut out = Outbox::new();
        laggard.set_behind(16, 0, &mut out);
        laggard.on_probe_timer(&mut out);
        let mut donor_out = Outbox::new();
        for a in out.take() {
            if let Action::Send { msg, .. } = a {
                assert!(matches!(msg, RecoveryMsg::StateRequest { base: None, .. }));
                donor.on_message(rep(2), msg, &mut donor_out);
            }
        }
        route(1, &mut donor_out, &mut laggard);
        assert_eq!(donor.stats.transfers_served, 1);
        assert_eq!(donor.stats.delta_transfers_served, 0);

        let events = laggard.take_events();
        let [RecoveryEvent::InstallChain(t)] = events.as_slice() else {
            panic!("expected InstallChain, got {events:?}");
        };
        assert!(!t.is_delta_only(), "must ship a full link");
        assert_eq!(t.links.len(), 2, "full base + one delta");
        let folded = t
            .fold_verified(shard, None, |_| None)
            .expect("full chain verifies");
        assert_eq!(folded.digest(), d1);
        assert!(laggard.stats.bytes_full > 0);
    }

    #[test]
    fn unknown_digest_offers_are_ignored() {
        let snap = snapshot(8, 4);
        let mut donor = mgr(1, 2);
        retain_full(&mut donor, Arc::new(snap));
        let mut laggard = mgr(2, 2);
        // note_stable with a *different* digest: the quorum agreed on
        // something else, so the donor's offer must be dropped.
        laggard.note_stable(8, [0xAB; 32]);
        let mut out = Outbox::new();
        laggard.set_behind(8, 0, &mut out);
        laggard.on_probe_timer(&mut out);
        let mut donor_out = Outbox::new();
        for a in out.take() {
            if let Action::Send { msg, .. } = a {
                donor.on_message(rep(2), msg, &mut donor_out);
            }
        }
        route(1, &mut donor_out, &mut laggard);
        assert!(laggard.take_events().is_empty());
        assert_eq!(laggard.stats.chunks_received, 0);
    }

    #[test]
    fn rejected_chain_forces_full_fallback_request() {
        let mut m = mgr(2, 8);
        m.set_local_base(8, [1; 32]);
        let mut out = Outbox::new();
        m.set_behind(16, 8, &mut out);
        m.chain_rejected();
        assert_eq!(m.stats.bad_digests, 1);
        let mut o = Outbox::new();
        m.on_probe_timer(&mut o);
        let sends: Vec<_> = o
            .take()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        assert!(
            matches!(sends[0], RecoveryMsg::StateRequest { base: None, .. }),
            "after a rejection the request must omit the base: {sends:?}"
        );
        // A fresh local base re-enables the delta path.
        m.set_local_base(16, [2; 32]);
        let mut o = Outbox::new();
        m.on_probe_timer(&mut o);
        let sends: Vec<_> = o
            .take()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        assert!(matches!(
            sends[0],
            RecoveryMsg::StateRequest {
                base: Some((16, _)),
                ..
            }
        ));
    }

    #[test]
    fn probe_suppressed_while_transfer_progresses() {
        let snap = snapshot(8, 6);
        let digest = snap.digest();
        let mut m = mgr(2, 2);
        m.note_stable(8, digest);
        let mut out = Outbox::new();
        m.set_behind(8, 0, &mut out);
        let count_requests = |m: &mut RecoveryManager| {
            let mut o = Outbox::new();
            m.on_probe_timer(&mut o);
            o.take()
                .iter()
                .filter(|a| matches!(a, Action::Send { .. }))
                .count()
        };
        // No assembly yet: the probe requests.
        assert_eq!(count_requests(&mut m), 1);
        // A chunk arrives: the next probe sees progress and stays quiet.
        let mut sink = Outbox::new();
        m.on_message(
            rep(1),
            RecoveryMsg::StateChunk {
                target_seq: 8,
                target_digest: digest,
                link_seq: 8,
                delta: false,
                chunk: 0,
                records: snap.records[..2].to_vec(),
            },
            &mut sink,
        );
        assert_eq!(count_requests(&mut m), 0, "transfer advancing");
        // No further progress before the next tick: rotate and re-ask.
        assert_eq!(count_requests(&mut m), 1, "transfer stalled");
    }

    #[test]
    fn donors_rotate_and_skip_self() {
        let mut m = mgr(2, 8);
        let mut out = Outbox::new();
        m.set_behind(8, 0, &mut out);
        let mut donors = Vec::new();
        for _ in 0..6 {
            let mut o = Outbox::new();
            m.on_probe_timer(&mut o);
            for a in o.take() {
                if let Action::Send { to, .. } = a {
                    donors.push(to);
                }
            }
        }
        assert_eq!(donors.len(), 6);
        assert!(
            donors.iter().all(|d| *d != NodeId::Replica(rep(2))),
            "never asks itself"
        );
        // All three peers get asked within one rotation.
        let distinct: std::collections::HashSet<_> = donors.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn caught_up_clears_target_and_probe_stops() {
        let mut m = mgr(2, 8);
        let mut out = Outbox::new();
        m.set_behind(8, 0, &mut out);
        assert_eq!(m.target(), Some(8));
        m.caught_up_to(8);
        assert_eq!(m.target(), None);
        let mut o = Outbox::new();
        m.on_probe_timer(&mut o);
        // No request, no re-arm: the probe dies out.
        assert!(o.take().is_empty());
    }

    #[test]
    fn out_of_order_chunks_and_late_plan_assemble() {
        let snap = snapshot(8, 5);
        let digest = snap.digest();
        let mut m = mgr(2, 2);
        m.note_stable(8, digest);
        let mut out = Outbox::new();
        m.set_behind(8, 0, &mut out);
        let slices: Vec<Vec<RecordEntry>> = snap.records.chunks(2).map(|c| c.to_vec()).collect();
        let total = slices.len() as u32;
        let mut sink = Outbox::new();
        // Chunks first, in reverse order; the plan arrives last.
        for (i, records) in slices.into_iter().enumerate().rev() {
            m.on_message(
                rep(3),
                RecoveryMsg::StateChunk {
                    target_seq: 8,
                    target_digest: digest,
                    link_seq: 8,
                    delta: false,
                    chunk: i as u32,
                    records,
                },
                &mut sink,
            );
        }
        assert!(m.take_events().is_empty(), "no plan yet");
        m.on_message(
            rep(3),
            RecoveryMsg::StatePlan {
                target_seq: 8,
                target_digest: digest,
                links: vec![PlanLink {
                    seq: 8,
                    digest,
                    base: None,
                    chunks: total,
                }],
                ledger_height: 3,
                ledger_head: [5; 32],
            },
            &mut sink,
        );
        let events = m.take_events();
        let got = fold(&events);
        assert_eq!(got.digest(), digest);
    }

    #[test]
    fn forged_plan_with_duplicate_link_seqs_is_dropped_not_fatal() {
        let snap = snapshot(8, 4);
        let digest = snap.digest();
        let mut m = mgr(2, 100);
        m.note_stable(8, digest);
        let mut out = Outbox::new();
        m.set_behind(8, 0, &mut out);
        let mut sink = Outbox::new();
        // One chunk, claimed by two links sharing the same seq — the
        // completion check must not be satisfiable by the shared slot
        // (and must certainly not panic during reassembly).
        m.on_message(
            rep(1),
            RecoveryMsg::StateChunk {
                target_seq: 8,
                target_digest: digest,
                link_seq: 8,
                delta: false,
                chunk: 0,
                records: snap.records.clone(),
            },
            &mut sink,
        );
        m.on_message(
            rep(1),
            RecoveryMsg::StatePlan {
                target_seq: 8,
                target_digest: digest,
                links: vec![
                    PlanLink {
                        seq: 8,
                        digest: [1; 32],
                        base: None,
                        chunks: 1,
                    },
                    PlanLink {
                        seq: 8,
                        digest,
                        base: Some((8, [1; 32])),
                        chunks: 1,
                    },
                ],
                ledger_height: 0,
                ledger_head: [0; 32],
            },
            &mut sink,
        );
        assert!(m.take_events().is_empty(), "forged plan must be dropped");
    }

    #[test]
    fn retention_caps_delta_windows_and_survives_full_refresh() {
        let shard = ShardId(0);
        let mut kv = store(4);
        let mut donor = mgr(1, 8);
        let mut prev_seq = 8u64;
        retain_full(
            &mut donor,
            Arc::new(Snapshot::capture(shard, prev_seq, &kv, 0, [0; 32])),
        );
        let mut prev_digest = Snapshot::digest_of_store(shard, prev_seq, &kv);
        for w in 1..=12u64 {
            let seq = 8 + 8 * w;
            kv.put(w % 4, w * 100);
            let delta = Arc::new(DeltaSnapshot::capture(
                shard,
                prev_seq,
                prev_digest,
                seq,
                [w % 4],
                &kv,
                w,
                [0; 32],
            ));
            let digest = Snapshot::digest_of_store(shard, seq, &kv);
            donor.retain_delta(delta, digest);
            if w == 6 {
                // A full refresh at the current tip keeps the chain.
                retain_full(
                    &mut donor,
                    Arc::new(Snapshot::capture(shard, seq, &kv, 0, [0; 32])),
                );
                assert!(donor.retained_delta_windows() > 0, "chain survives");
            }
            prev_seq = seq;
            prev_digest = digest;
        }
        assert!(donor.retained_delta_windows() <= 8, "delta memory bounded");
        assert_eq!(donor.retained_seq(), Some(8 + 8 * 12));
    }

    #[test]
    fn retention_drops_deltas_the_full_fallback_would_beat() {
        let shard = ShardId(0);
        let mut kv = store(8);
        let mut donor = mgr(1, 64);
        retain_full(
            &mut donor,
            Arc::new(Snapshot::capture(shard, 8, &kv, 0, [0; 32])),
        );
        let mut prev = (8u64, Snapshot::digest_of_store(shard, 8, &kv));
        // Every window rewrites 5 of the 8 keys.
        let mut window = |donor: &mut RecoveryManager, w: u64| {
            let seq = 8 + 8 * w;
            let dirty: Vec<u64> = (0..5).map(|i| (w + i) % 8).collect();
            for &k in &dirty {
                kv.put(k, w * 100 + k);
            }
            let delta = DeltaSnapshot::capture(shard, prev.0, prev.1, seq, dirty, &kv, w, [0; 32]);
            let digest = Snapshot::digest_of_store(shard, seq, &kv);
            donor.retain_delta(Arc::new(delta), digest);
            prev = (seq, digest);
            Snapshot::capture(shard, seq, &kv, w, [0; 32])
        };
        // Above the base nothing is dropped for size: the fallback
        // chain from the base to the tip runs through every delta.
        let mut last = None;
        for w in 1..=4 {
            last = Some(window(&mut donor, w));
        }
        assert_eq!(donor.retained_delta_windows(), 4);
        // The full capture at window 4 puts all four deltas (20
        // records) at or below an 8-record base: two of them already
        // outweigh the base, so one stays.
        retain_full(&mut donor, Arc::new(last.expect("four windows")));
        assert_eq!(donor.retained_delta_windows(), 1);
        for w in 5..=7 {
            window(&mut donor, w);
        }
        assert_eq!(donor.retained_delta_windows(), 4);
        // A blank laggard is still served up to the tip: base + 3.
        let mut out = Outbox::new();
        donor.on_message(
            rep(2),
            RecoveryMsg::StateRequest {
                from_seq: 0,
                base: None,
            },
            &mut out,
        );
        let plan = out.take().into_iter().find_map(|a| match a {
            Action::Send {
                msg:
                    RecoveryMsg::StatePlan {
                        target_seq, links, ..
                    },
                ..
            } => Some((target_seq, links.len())),
            _ => None,
        });
        assert_eq!(plan, Some((8 + 8 * 7, 4)));
    }
}
