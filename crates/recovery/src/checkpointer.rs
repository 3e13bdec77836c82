//! A replica's checkpoint state (§5, attack A3): the execution
//! watermark, per-sequence write effects, the canonical checkpoint
//! store, announced windows awaiting their quorum vote, and the
//! divergence rollback. Sans-io like the [`RecoveryManager`] it owns:
//! the host reports executions and PBFT checkpoint events and acts on
//! what comes back. It alone sets the manager's local base and
//! retention, so the chain base is known in exactly one place.

use crate::checkpoint::CheckpointStore;
use crate::manager::RecoveryManager;
use crate::snapshot::{ChainError, ChainTransfer, DeltaSnapshot, Snapshot};
use crate::wal::{Recovered, RecoveredTip};
use ringbft_crypto::Digest;
use ringbft_store::KvStore;
use ringbft_types::txn::{Key, Value};
use ringbft_types::{ReplicaId, ShardId, SystemConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A checkpoint announced (voted) but whose quorum outcome is pending:
/// the voted digest, the O(churn) delta of the window, and — on the
/// `full_snapshot_every` cadence — a full snapshot.
#[derive(Debug)]
struct Announced {
    digest: Digest,
    delta: Option<Arc<DeltaSnapshot>>,
    full: Option<Arc<Snapshot>>,
}

/// A checkpoint vote for the host to announce through PBFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Checkpoint sequence.
    pub seq: u64,
    /// Full-state digest of the checkpoint store at `seq`.
    pub digest: Digest,
    /// Keys the window wrote (the delta's record count).
    pub dirty_keys: u64,
}

/// A quorum-verified window for the durable log: a full capture
/// compacts the log (and subsumes the same window's delta); a
/// delta-only window appends O(churn).
#[derive(Debug, Clone)]
pub enum Durable {
    /// Append this delta.
    Delta(Arc<DeltaSnapshot>),
    /// Compact the log down to this snapshot.
    Full(Arc<Snapshot>),
}

/// What a quorum-stable checkpoint means for this replica.
#[derive(Debug)]
pub enum Stable {
    /// Our vote won. Everything announced up to the checkpoint is
    /// retained for laggards and truncated; these windows, oldest
    /// first, go durable.
    Won(Vec<Durable>),
    /// Our vote lost: local state diverged from the quorum. Nothing has
    /// changed yet — the host settles in-flight execution, then calls
    /// [`Checkpointer::roll_back`].
    Lost,
    /// We did not vote for it and our watermark trails it: catch up
    /// from this watermark.
    Behind(u64),
    /// We did not vote for it but already executed past it.
    Current,
}

/// The checkpoint state of one shard replica.
pub struct Checkpointer {
    shard: ShardId,
    full_every: u64,
    /// Every sequence up to here has executed. Checkpoints wait for it,
    /// so digests agree even though complex csts execute out of order.
    watermark: u64,
    /// Executed sequence numbers above the watermark.
    executed_ahead: BTreeSet<u64>,
    /// Per-sequence write effects not yet folded into `store`.
    pending_effects: BTreeMap<u64, Vec<(Key, Value)>>,
    /// Checkpoint boundaries PBFT declared due, awaiting the watermark.
    due: BTreeSet<u64>,
    announced: BTreeMap<u64, Announced>,
    /// The store as of the last announced checkpoint, advanced strictly
    /// in sequence order, with its O(writes) digest accumulator.
    store: CheckpointStore,
    /// `(seq, digest)` of `store`: the chain base delta transfers fold
    /// onto (None until the first checkpoint).
    base: Option<(u64, Digest)>,
    /// Windows since the last full capture.
    windows_since_full: u64,
    /// Set when an announced digest *lost* a quorum vote: every piece
    /// of local state is suspect until quorum state is re-installed.
    diverged: bool,
    recovery: RecoveryManager,
}

impl Checkpointer {
    /// The checkpoint state of replica `me` whose store starts as a
    /// copy of `kv`.
    pub fn new(cfg: &SystemConfig, me: ReplicaId, kv: &KvStore) -> Checkpointer {
        Checkpointer {
            shard: me.shard,
            full_every: cfg.full_snapshot_every,
            watermark: 0,
            executed_ahead: BTreeSet::new(),
            pending_effects: BTreeMap::new(),
            due: BTreeSet::new(),
            announced: BTreeMap::new(),
            store: CheckpointStore::new(kv),
            base: None,
            windows_since_full: 0,
            diverged: false,
            // Probe after half a local timeout: long enough that a
            // merely in-flight replica catches up by itself, short
            // enough that a blank restart recovers within one timeout.
            recovery: RecoveryManager::new(
                me,
                cfg.shard(me.shard).n,
                cfg.state_chunk_records,
                cfg.timers.local / 2,
            ),
        }
    }

    /// The state-transfer state machine.
    pub fn recovery(&self) -> &RecoveryManager {
        &self.recovery
    }

    /// The state-transfer machine for messages, probes and outcomes.
    pub fn recovery_mut(&mut self) -> &mut RecoveryManager {
        &mut self.recovery
    }

    /// Highest sequence through which every sequence has executed.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The sequence the checkpoint store reflects.
    pub fn seq(&self) -> u64 {
        self.base.map_or(0, |(s, _)| s)
    }

    /// The checkpoint store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// True between a lost vote and the quorum install repairing it.
    pub fn is_diverged(&self) -> bool {
        self.diverged
    }

    /// The digest announced for `seq`, while its vote is pending.
    pub fn voted(&self, seq: u64) -> Option<Digest> {
        self.announced.get(&seq).map(|a| a.digest)
    }

    /// True when local execution reached `seq` or ran past it — an
    /// install at `seq` would erase or repeat local progress.
    pub fn reached(&self, seq: u64) -> bool {
        seq <= self.watermark || self.executed_ahead.iter().any(|s| *s > seq)
    }

    /// PBFT declared checkpoint `seq` due.
    pub fn checkpoint_due(&mut self, seq: u64) {
        self.due.insert(seq);
    }

    /// Records that `seq` executed with `writes`; false when it already
    /// had.
    pub fn executed(&mut self, seq: u64, writes: Vec<(Key, Value)>) -> bool {
        if seq <= self.watermark || self.executed_ahead.contains(&seq) {
            return false;
        }
        self.pending_effects.insert(seq, writes);
        self.executed_ahead.insert(seq);
        while self.executed_ahead.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        // A diverged watermark counts corrupt executions — reporting it
        // would cancel the very refetch that repairs the replica.
        if !self.diverged {
            self.recovery.caught_up_to(self.watermark);
        }
        true
    }

    /// Announces the next due checkpoint the watermark has reached, if
    /// any: folds the window's effects into the store, keeps its dirty
    /// records as a delta chained to the previous checkpoint, and on the
    /// `full_snapshot_every` cadence (or with no previous checkpoint)
    /// captures the whole store. `ledger` gives the ledger height and
    /// head the captures record.
    pub fn announce_next(&mut self, ledger: impl FnOnce() -> (u64, Digest)) -> Option<Vote> {
        let seq = *self.due.first()?;
        if seq > self.watermark {
            return None;
        }
        self.due.remove(&seq);
        let later = self.pending_effects.split_off(&(seq + 1));
        let window = std::mem::replace(&mut self.pending_effects, later);
        let records = self.store.fold_window(window.into_values().flatten());
        let dirty_keys = records.len() as u64;
        let digest = self.store.digest(self.shard, seq);
        let (ledger_height, ledger_head) = ledger();
        let delta = self.base.map(|(base_seq, base_digest)| {
            Arc::new(DeltaSnapshot {
                shard: self.shard,
                base_seq,
                base_digest,
                seq,
                records,
                ledger_height,
                ledger_head,
            })
        });
        self.base = Some((seq, digest));
        self.windows_since_full += 1;
        let full = (delta.is_none() || self.windows_since_full >= self.full_every).then(|| {
            self.windows_since_full = 0;
            let full = self
                .store
                .snapshot(self.shard, seq, ledger_height, ledger_head);
            // The one place the whole store is in hand anyway: check the
            // accumulator against a from-scratch digest in debug builds.
            debug_assert_eq!(full.digest(), digest, "digest accumulator drifted");
            Arc::new(full)
        });
        self.recovery.set_local_base(seq, digest);
        let announced = Announced {
            digest,
            delta,
            full,
        };
        self.announced.insert(seq, announced);
        Some(Vote {
            seq,
            digest,
            dirty_keys,
        })
    }

    /// Checkpoint `seq` gathered `nf` matching votes for `digest`.
    pub fn on_stable(&mut self, seq: u64, digest: Digest) -> Stable {
        self.recovery.note_stable(seq, digest);
        let Some(voted) = self.voted(seq) else {
            return if self.watermark >= seq {
                Stable::Current
            } else {
                Stable::Behind(self.watermark)
            };
        };
        if voted != digest {
            return Stable::Lost;
        }
        // A match at `seq` vouches for every earlier window too (the
        // digest chain is deterministic): the deltas become the
        // servable chain, the full captures anchor blank restarts.
        let keep = self.announced.split_off(&(seq + 1));
        let mut durable = Vec::new();
        for (_, a) in std::mem::replace(&mut self.announced, keep) {
            // Delta before full: a full capture at the same window must
            // not clear the chain it extends.
            if let Some(d) = a.delta {
                if a.full.is_none() {
                    durable.push(Durable::Delta(Arc::clone(&d)));
                }
                self.recovery.retain_delta(d, a.digest);
            }
            if let Some(f) = a.full {
                durable.push(Durable::Full(Arc::clone(&f)));
                self.recovery.retain(f, a.digest);
            }
        }
        Stable::Won(durable)
    }

    /// Rolls back after a lost vote: discards announced windows (they
    /// chain into the losing digest), effects and due checkpoints, and
    /// forces the next transfer onto a full snapshot of quorum state.
    pub fn roll_back(&mut self) {
        self.announced.clear();
        self.pending_effects.clear();
        self.due.clear();
        self.executed_ahead.clear();
        self.diverged = true;
        self.recovery.invalidate_base();
    }

    /// Folds a completed transfer onto the local base and verifies every
    /// link against the quorum anchors. `None` when it raced local
    /// catch-up or failed (a base that moved on is an honest race;
    /// anything else forces the full-snapshot fallback).
    pub fn fold_chain(&mut self, transfer: &ChainTransfer) -> Option<Snapshot> {
        if !self.diverged && transfer.target_seq <= self.watermark {
            return None;
        }
        // A diverged replica's own store is corrupt: never fold onto it.
        let local_base = match self.base {
            Some((seq, digest)) if !self.diverged => Some((seq, digest, &self.store)),
            _ => None,
        };
        let recovery = &self.recovery;
        match transfer.fold_verified(self.shard, local_base, |s| recovery.stable_digest(s)) {
            Ok(snap) => Some(snap),
            Err(ChainError::BaseMismatch | ChainError::Empty) => {
                self.recovery.chain_stale();
                None
            }
            Err(_) => {
                self.recovery.chain_rejected();
                None
            }
        }
    }

    /// Replaces the checkpoint state with verified snapshot `snap` whose
    /// quorum-stable digest is `digest`, returning the store for the
    /// host's live copy.
    pub fn restore_snapshot(&mut self, snap: &Snapshot, digest: Digest) -> KvStore {
        let store = CheckpointStore::from_records(snap.records.clone());
        self.restore(store, snap.seq, digest)
    }

    /// Replaces the checkpoint state with the tip of a replayed log and
    /// re-seeds retention from its chain, so the replica is servable
    /// immediately and its base is a valid fold target.
    pub fn restore_log(&mut self, tip: RecoveredTip, recovered: &Recovered) -> KvStore {
        let kv = self.restore(tip.store, tip.seq, tip.digest);
        let full = recovered.full.clone().expect("a tip folds from a full");
        self.recovery.retain(Arc::new(full), tip.chain[0]);
        for (d, digest) in recovered.deltas.iter().zip(&tip.chain[1..]) {
            self.recovery.retain_delta(Arc::new(d.clone()), *digest);
        }
        kv
    }

    /// The state swap both restores perform: the store, its base and the
    /// watermark jump to `seq`; windows and effects at or below it are
    /// settled (after a rollback, all of them — they were computed on
    /// the corrupt store).
    fn restore(&mut self, store: CheckpointStore, seq: u64, digest: Digest) -> KvStore {
        self.store = store;
        self.base = Some((seq, digest));
        self.windows_since_full = 0;
        self.recovery.set_local_base(seq, digest);
        self.watermark = seq;
        self.executed_ahead.clear();
        if self.diverged {
            self.pending_effects.clear();
            self.announced.clear();
        } else {
            self.pending_effects = self.pending_effects.split_off(&(seq + 1));
            self.announced.retain(|s, _| *s > seq);
        }
        self.due.retain(|s| *s > seq);
        self.store.to_kv()
    }

    /// The host replayed the committed tail on top of an installed
    /// snapshot: the snapshot becomes servable (a fresh chain base) and
    /// a rollback is complete. True when this repaired a divergence.
    pub fn finish_install(&mut self, snap: Arc<Snapshot>, digest: Digest) -> bool {
        let repaired = std::mem::take(&mut self.diverged);
        self.recovery.retain(snap, digest);
        self.recovery.caught_up_to(self.watermark);
        repaired
    }

    /// Test hook: overwrites `key` in the checkpoint store (a
    /// bit-flipped or Byzantine executor), so the next window announces
    /// a diverging digest.
    pub fn corrupt_for_test(&mut self, key: Key, value: Value) {
        self.store.fold_window([(key, value)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::RecoveryMsg;
    use ringbft_types::{Action, Outbox, ProtocolKind};

    const SHARD: ShardId = ShardId(0);
    const LEDGER: (u64, Digest) = (7, [9; 32]);

    /// A checkpointer over a 100-key store, capturing a full snapshot
    /// every `full_every` windows.
    fn checkpointer(full_every: u64) -> Checkpointer {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 1, 4);
        cfg.full_snapshot_every = full_every;
        let mut kv = KvStore::new();
        for k in 0..100 {
            kv.put(k, k);
        }
        Checkpointer::new(&cfg, ReplicaId::new(SHARD, 1), &kv)
    }

    /// Executes `seqs` in order, sequence `s` writing `s * 10` to key `s`.
    fn run(c: &mut Checkpointer, seqs: impl IntoIterator<Item = u64>) {
        for s in seqs {
            assert!(c.executed(s, vec![(s, s * 10)]), "seq {s} refused");
        }
    }

    /// Executes window `w` (sequences `8w - 7 ..= 8w`) and announces its
    /// checkpoint.
    fn window(c: &mut Checkpointer, w: u64) -> Vote {
        run(c, 8 * w - 7..=8 * w);
        c.checkpoint_due(8 * w);
        let vote = c.announce_next(|| LEDGER).expect("checkpoint due");
        assert!(c.announce_next(|| LEDGER).is_none());
        vote
    }

    /// The StateRequest the manager sends on its next probe.
    fn probe_request(c: &mut Checkpointer) -> RecoveryMsg {
        let mut out = Outbox::new();
        let watermark = c.watermark();
        c.recovery_mut().set_behind(64, watermark, &mut out);
        c.recovery_mut().on_probe_timer(&mut out);
        out.take()
            .into_iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .expect("a state request")
    }

    #[test]
    fn out_of_order_executions_announce_once_the_gap_closes() {
        let mut c = checkpointer(4);
        c.checkpoint_due(2);
        run(&mut c, [3]);
        assert!(c.announce_next(|| LEDGER).is_none());
        run(&mut c, [1]);
        assert_eq!(c.watermark(), 1);
        assert!(c.announce_next(|| LEDGER).is_none());
        run(&mut c, [2]);
        assert_eq!(c.watermark(), 3);
        let vote = c.announce_next(|| LEDGER).expect("1 and 2 executed");
        assert_eq!((vote.seq, vote.dirty_keys), (2, 2));
        // The window holds 1 and 2 only; 3's effect waits for the next.
        assert_eq!(c.store().get(2).unwrap().value, 20);
        assert_eq!(c.store().get(3).unwrap().value, 3);
        assert!(!c.executed(3, vec![(3, 0)]), "re-execution refused");
        assert!(c.announce_next(|| LEDGER).is_none());
    }

    #[test]
    fn announced_digest_is_the_from_scratch_digest_of_the_folded_store() {
        let mut c = checkpointer(4);
        for w in 1..=3 {
            let vote = window(&mut c, w);
            let capture = Snapshot::capture(SHARD, vote.seq, &c.store().to_kv(), 0, [0; 32]);
            assert_eq!(vote.digest, capture.digest());
            assert_eq!(c.voted(vote.seq), Some(vote.digest));
            assert_eq!(c.seq(), vote.seq);
        }
    }

    #[test]
    fn first_window_is_full_then_chained_deltas_with_a_full_every_nth() {
        let mut c = checkpointer(3);
        let votes: Vec<Vote> = (1..=7).map(|w| window(&mut c, w)).collect();
        for (i, vote) in votes.iter().enumerate() {
            let a = &c.announced[&vote.seq];
            match &a.delta {
                None => assert_eq!(i, 0, "only the first window lacks a base"),
                Some(d) => {
                    let prev = &votes[i - 1];
                    assert_eq!((d.base_seq, d.base_digest), (prev.seq, prev.digest));
                    assert_eq!((d.seq, d.records.len()), (vote.seq, 8));
                    assert_eq!((d.ledger_height, d.ledger_head), LEDGER);
                }
            }
            // Windows 1, 4 and 7: the first, then every third.
            assert_eq!(a.full.is_some(), i % 3 == 0, "window {}", i + 1);
            if let Some(f) = &a.full {
                assert_eq!((f.seq, f.digest()), (vote.seq, vote.digest));
            }
        }
    }

    #[test]
    fn won_vote_persists_windows_delta_before_full_and_truncates() {
        let mut c = checkpointer(4);
        let votes: Vec<Vote> = (1..=6).map(|w| window(&mut c, w)).collect();
        let Stable::Won(durable) = c.on_stable(votes[3].seq, votes[3].digest) else {
            panic!("our digest won");
        };
        let kinds: Vec<(bool, u64)> = durable
            .iter()
            .map(|d| match d {
                Durable::Full(f) => (true, f.seq),
                Durable::Delta(d) => (false, d.seq),
            })
            .collect();
        assert_eq!(kinds, [(true, 8), (false, 16), (false, 24), (false, 32)]);
        for v in &votes[..4] {
            assert_eq!(c.voted(v.seq), None, "truncated at or below 32");
        }
        assert_eq!(c.voted(40), Some(votes[4].digest));
        assert_eq!(c.recovery().retained_seq(), Some(32));
        assert_eq!(c.recovery().retained_delta_windows(), 3);
        // Window 5 holds a delta and a full capture: the log gets the
        // full, and the manager retains the delta first, so the chain
        // it extends survives the new base.
        let Stable::Won(durable) = c.on_stable(votes[4].seq, votes[4].digest) else {
            panic!("our digest won");
        };
        assert!(matches!(durable[..], [Durable::Full(ref f)] if f.seq == 40));
        assert_eq!(c.recovery().retained_seq(), Some(40));
        assert_eq!(c.recovery().retained_delta_windows(), 4);
        assert_eq!(c.voted(48), Some(votes[5].digest));
        // A vote we never cast: current or behind, by the watermark.
        assert!(matches!(c.on_stable(48, [0; 32]), Stable::Lost));
        assert!(matches!(c.on_stable(44, [0; 32]), Stable::Current));
        assert!(matches!(c.on_stable(64, [0; 32]), Stable::Behind(48)));
    }

    #[test]
    fn lost_vote_rolls_back_and_invalidates_the_recovery_base() {
        let mut healthy = checkpointer(4);
        let vote = window(&mut healthy, 1);
        let request = probe_request(&mut healthy);
        assert!(matches!(
            request,
            RecoveryMsg::StateRequest { base: Some(b), .. } if b == (8, vote.digest)
        ));

        let mut c = checkpointer(4);
        let vote = window(&mut c, 1);
        run(&mut c, [10]);
        c.checkpoint_due(16);
        assert!(matches!(c.on_stable(8, [0xEE; 32]), Stable::Lost));
        // Nothing moves until the host has settled execution.
        assert_eq!(c.voted(8), Some(vote.digest));
        assert!(!c.is_diverged());
        c.roll_back();
        assert!(c.is_diverged());
        assert_eq!(c.voted(8), None);
        assert!(c.pending_effects.is_empty() && c.executed_ahead.is_empty());
        run(&mut c, 9..=16);
        assert!(
            c.announce_next(|| LEDGER).is_none(),
            "due checkpoints dropped"
        );
        assert!(matches!(
            probe_request(&mut c),
            RecoveryMsg::StateRequest { base: None, .. }
        ));
        // The quorum install repairs it and restores a base.
        let snap = c.store().snapshot(SHARD, 16, 3, [1; 32]);
        let digest = snap.digest();
        c.restore_snapshot(&snap, digest);
        assert!(c.is_diverged(), "until the tail replay finished");
        assert!(c.finish_install(Arc::new(snap), digest));
        assert!(!c.is_diverged());
    }

    #[test]
    fn restore_resets_the_watermark_and_drops_settled_windows() {
        let mut c = checkpointer(4);
        window(&mut c, 1);
        window(&mut c, 2);
        run(&mut c, [17, 18, 20]);
        c.checkpoint_due(24);
        assert_eq!(c.watermark(), 18);
        assert!(c.reached(19) && !c.reached(20));
        let snap = c.store().snapshot(SHARD, 20, 3, [1; 32]);
        let digest = snap.digest();
        let kv = c.restore_snapshot(&snap, digest);
        assert_eq!((c.watermark(), c.seq()), (20, 20));
        assert_eq!(
            kv.state_fingerprint(),
            c.store().to_kv().state_fingerprint()
        );
        assert_eq!((c.voted(8), c.voted(16)), (None, None));
        assert!(c.pending_effects.is_empty() && c.executed_ahead.is_empty());
        assert!(!c.reached(21));
        // The next window chains onto the installed state.
        run(&mut c, 21..=24);
        let vote = c.announce_next(|| LEDGER).expect("24 stays due");
        let delta = c.announced[&24].delta.as_ref().expect("a base exists");
        assert_eq!((delta.base_seq, delta.base_digest), (20, digest));
        assert_eq!((vote.seq, vote.dirty_keys), (24, 4));
    }
}
