//! The checkpoint snapshot: one shard replica's application state at a
//! stable checkpoint, plus the state digest the PBFT checkpoint votes
//! agree on (defined in [`crate::checkpoint`]) — and the *delta*
//! snapshot, the incremental-checkpoint optimization (Castro & Liskov
//! §6.2): only the records written since the previous checkpoint,
//! chained to that checkpoint's digest, so both the capture hot path
//! and laggard state transfer are O(churn) instead of O(state).

use crate::checkpoint::{CheckpointStore, StateAcc};
use ringbft_crypto::Digest;
use ringbft_store::{KvStore, Record};
use ringbft_types::txn::{Key, Value};
use ringbft_types::ShardId;
use serde::{Deserialize, Serialize};

/// One key-value record as it travels inside a state-transfer chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordEntry {
    /// The key.
    pub key: Key,
    /// Current value.
    pub value: Value,
    /// Write-version of the record (bumped on every store write; carried
    /// so the restored store is bit-identical to the donor's, version
    /// counters included).
    pub version: u64,
}

impl RecordEntry {
    /// The entry carrying store record `r` of `key`.
    pub(crate) fn of(key: Key, r: Record) -> RecordEntry {
        RecordEntry {
            key,
            value: r.value,
            version: r.version,
        }
    }

    /// The store record this entry carries.
    pub(crate) fn record(&self) -> Record {
        Record {
            value: self.value,
            version: self.version,
        }
    }
}

/// A shard replica's state at a stable checkpoint.
///
/// `records` is sorted by key, giving the snapshot a canonical encoding:
/// two replicas that executed the same sequence prefix produce the same
/// record list and hence the same [`Snapshot::digest`], regardless of
/// the (allowed) differences in their execution interleaving of
/// non-conflicting transactions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The shard this state belongs to.
    pub shard: ShardId,
    /// The checkpoint sequence number: every consensus sequence ≤ `seq`
    /// is reflected in `records`, and none above it.
    pub seq: u64,
    /// The key-value partition, ascending by key.
    pub records: Vec<RecordEntry>,
    /// The donor's ledger height at the checkpoint (the installed
    /// ledger's base height — see the crate docs for the trust note).
    pub ledger_height: u64,
    /// The donor's chain head hash at the checkpoint.
    pub ledger_head: Digest,
}

impl Snapshot {
    /// Captures `kv` (plus ledger position) as the state at checkpoint
    /// `seq`, sorting its records by key. Only tools and tests that
    /// hold a plain [`KvStore`] still sort here: a replica captures its
    /// [`CheckpointStore`], whose records are already in this order, by
    /// copying them ([`CheckpointStore::snapshot`]).
    pub fn capture(
        shard: ShardId,
        seq: u64,
        kv: &KvStore,
        ledger_height: u64,
        ledger_head: Digest,
    ) -> Snapshot {
        let mut records: Vec<RecordEntry> =
            kv.iter().map(|(key, r)| RecordEntry::of(key, r)).collect();
        records.sort_unstable_by_key(|r| r.key);
        Snapshot {
            shard,
            seq,
            records,
            ledger_height,
            ledger_head,
        }
    }

    /// The state digest the shard's `Checkpoint` votes carry, computed
    /// from scratch over `(shard, seq, records)`: one leaf hash per
    /// record (see [`crate::checkpoint`] for the definition). Replicas
    /// maintain the same digest incrementally in a
    /// [`CheckpointStore`]; this is the verification path.
    ///
    /// The ledger fields are deliberately excluded: §7 lets replicas of
    /// one shard order non-conflicting cross-shard blocks differently,
    /// so chain heads are replica-local and must not block checkpoint
    /// agreement.
    pub fn digest(&self) -> Digest {
        StateAcc::of(self.records.iter().map(|r| (r.key, r.record()))).digest(self.shard, self.seq)
    }

    /// The digest [`Snapshot::capture`]`(shard, seq, kv, ..).digest()`
    /// would produce, computed straight off the store without
    /// materializing a record list. O(keys): for verifying a store
    /// that arrived from outside, never for the checkpoint path.
    pub fn digest_of_store(shard: ShardId, seq: u64, kv: &KvStore) -> Digest {
        StateAcc::of(kv.iter()).digest(shard, seq)
    }
}

/// An *incremental* checkpoint: only the records written since the
/// previous checkpoint, chained to that checkpoint's full-state digest.
///
/// Folding a delta onto the store its `(base_seq, base_digest)` names
/// reproduces the full state at `seq` exactly — including the
/// full-snapshot digest, because records carry their write-versions and
/// keys are never deleted. Capture and transfer are O(churn).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaSnapshot {
    /// The shard this delta belongs to.
    pub shard: ShardId,
    /// The checkpoint this delta applies on.
    pub base_seq: u64,
    /// The full-snapshot digest of the base state — the chain link.
    pub base_digest: Digest,
    /// The checkpoint sequence this delta advances the state to.
    pub seq: u64,
    /// Records written in `(base_seq, seq]`, ascending by key, with
    /// their post-window values and versions.
    pub records: Vec<RecordEntry>,
    /// The capturing replica's ledger height at `seq`.
    pub ledger_height: u64,
    /// The capturing replica's chain head hash at `seq`.
    pub ledger_head: Digest,
}

impl DeltaSnapshot {
    /// Captures the delta from checkpoint `(base_seq, base_digest)` to
    /// `seq`: the current records of `dirty` keys read out of `kv` (the
    /// canonical checkpoint store, already advanced to `seq`). `dirty`
    /// must be the exact key set written in the window — it comes from
    /// the replica's per-sequence write-effect log.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        shard: ShardId,
        base_seq: u64,
        base_digest: Digest,
        seq: u64,
        dirty: impl IntoIterator<Item = Key>,
        kv: &KvStore,
        ledger_height: u64,
        ledger_head: Digest,
    ) -> DeltaSnapshot {
        let mut records: Vec<RecordEntry> = dirty
            .into_iter()
            .filter_map(|key| kv.get(key).map(|r| RecordEntry::of(key, r)))
            .collect();
        records.sort_unstable_by_key(|r| r.key);
        records.dedup_by_key(|r| r.key);
        DeltaSnapshot {
            shard,
            base_seq,
            base_digest,
            seq,
            records,
            ledger_height,
            ledger_head,
        }
    }
}

/// Metadata of one link of a state-transfer chain, as announced in a
/// `StatePlan` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanLink {
    /// The checkpoint sequence this link advances the state to.
    pub seq: u64,
    /// The donor-claimed full-state digest after applying this link.
    /// Intermediate links are cross-checked against quorum-stable
    /// digests where the receiver knows them; the final link must match
    /// the quorum-stable target digest unconditionally.
    pub digest: Digest,
    /// Delta links: the `(seq, digest)` base this link applies on.
    /// `None` marks a full-snapshot link (a complete record list).
    pub base: Option<(u64, Digest)>,
    /// Number of `StateChunk` slices this link's records arrive in.
    pub chunks: u32,
}

/// A fully reassembled state transfer: the plan's links with their
/// records, ready to fold and verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainTransfer {
    /// The quorum-stable checkpoint the transfer targets.
    pub target_seq: u64,
    /// The quorum-stable digest of the target checkpoint.
    pub target_digest: Digest,
    /// The chain links in application order, each with its reassembled
    /// (globally key-ascending) record list.
    pub links: Vec<(PlanLink, Vec<RecordEntry>)>,
    /// The donor's ledger height at the target checkpoint.
    pub ledger_height: u64,
    /// The donor's chain head hash at the target checkpoint.
    pub ledger_head: Digest,
}

/// Why a chain transfer was refused before install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// The plan carried no links.
    Empty,
    /// The first link is a delta whose base does not match the state
    /// the receiver holds.
    BaseMismatch,
    /// A link's base does not match the digest of the state folded so
    /// far — the chain is not contiguous.
    Discontinuity { seq: u64 },
    /// A folded link's recomputed digest differs from the digest the
    /// plan claimed for it (corrupt or forged records).
    LinkDigestMismatch { seq: u64 },
    /// A folded link's digest contradicts a quorum-stable digest the
    /// receiver observed for that checkpoint.
    StableDigestMismatch { seq: u64 },
    /// The folded end state does not carry the quorum-stable target
    /// digest.
    TargetMismatch,
}

impl ChainTransfer {
    /// True when every link is a delta (no full record list shipped).
    pub fn is_delta_only(&self) -> bool {
        !self.links.is_empty() && self.links.iter().all(|(l, _)| l.base.is_some())
    }

    /// Folds the chain and verifies every link, returning the full
    /// snapshot at the target checkpoint.
    ///
    /// * A chain starting with a delta link folds onto `local_base`,
    ///   which must hold exactly the `(seq, digest)` state the link
    ///   names (the receiver's own last checkpoint store).
    /// * After each link the full-state digest is read off the folded
    ///   store's accumulator and checked against the plan's claim,
    ///   against `known_stable` (quorum-observed digests) where
    ///   available, and — for the final link — against the
    ///   quorum-stable target digest. A single flipped byte anywhere in
    ///   any link's records therefore fails verification before
    ///   anything is installed.
    ///
    /// Cost is O(keys + Σ link records): the accumulator makes each
    /// link's digest check independent of the store's size.
    pub fn fold_verified(
        &self,
        shard: ShardId,
        local_base: Option<(u64, Digest, &CheckpointStore)>,
        known_stable: impl Fn(u64) -> Option<Digest>,
    ) -> Result<Snapshot, ChainError> {
        if self.links.is_empty() {
            return Err(ChainError::Empty);
        }
        let mut store: Option<CheckpointStore> = None;
        let mut folded: Option<(u64, Digest)> = None;
        for (link, records) in &self.links {
            let store = match link.base {
                // A full link (re)starts the fold from scratch.
                None => store.insert(CheckpointStore::default()),
                Some(base) => match store.as_mut() {
                    // The chain's first delta folds onto the local base.
                    None => {
                        let Some((bseq, bdigest, bstore)) = local_base else {
                            return Err(ChainError::BaseMismatch);
                        };
                        if base != (bseq, bdigest) {
                            return Err(ChainError::BaseMismatch);
                        }
                        store.insert(bstore.clone())
                    }
                    // Later links must chain onto what we just folded.
                    Some(store) => {
                        if Some(base) != folded {
                            return Err(ChainError::Discontinuity { seq: link.seq });
                        }
                        store
                    }
                },
            };
            store.apply_records(records);
            let digest = store.digest(shard, link.seq);
            if digest != link.digest {
                return Err(ChainError::LinkDigestMismatch { seq: link.seq });
            }
            if known_stable(link.seq).is_some_and(|k| k != digest) {
                return Err(ChainError::StableDigestMismatch { seq: link.seq });
            }
            folded = Some((link.seq, digest));
        }
        if folded != Some((self.target_seq, self.target_digest)) {
            return Err(ChainError::TargetMismatch);
        }
        Ok(Snapshot {
            shard,
            seq: self.target_seq,
            records: store.expect("non-empty chain").into_records(),
            ledger_height: self.ledger_height,
            ledger_head: self.ledger_head,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(writes: &[(Key, Value)]) -> KvStore {
        let mut kv = KvStore::new();
        for &(k, v) in writes {
            kv.put(k, v);
        }
        kv
    }

    #[test]
    fn digest_is_insertion_order_independent() {
        let a = store_with(&[(1, 10), (2, 20), (3, 30)]);
        let b = store_with(&[(3, 30), (1, 10), (2, 20)]);
        let sa = Snapshot::capture(ShardId(0), 8, &a, 4, [7; 32]);
        let sb = Snapshot::capture(ShardId(0), 8, &b, 9, [9; 32]);
        // Same records → same digest, even though ledger metadata differs
        // (it is excluded on purpose).
        assert_eq!(sa.digest(), sb.digest());
    }

    #[test]
    fn digest_commits_to_state_seq_and_shard() {
        let kv = store_with(&[(1, 10)]);
        let base = Snapshot::capture(ShardId(0), 8, &kv, 0, [0; 32]);
        let other_value = Snapshot::capture(ShardId(0), 8, &store_with(&[(1, 11)]), 0, [0; 32]);
        assert_ne!(base.digest(), other_value.digest());
        let other_seq = Snapshot::capture(ShardId(0), 16, &kv, 0, [0; 32]);
        assert_ne!(base.digest(), other_seq.digest());
        let other_shard = Snapshot::capture(ShardId(1), 8, &kv, 0, [0; 32]);
        assert_ne!(base.digest(), other_shard.digest());
    }

    #[test]
    fn digest_of_store_matches_capture_digest() {
        let mut kv = store_with(&[(5, 50), (1, 10), (9, 90)]);
        kv.put(5, 51);
        let snap = Snapshot::capture(ShardId(3), 16, &kv, 2, [4; 32]);
        assert_eq!(
            Snapshot::digest_of_store(ShardId(3), 16, &kv),
            snap.digest()
        );
        assert_ne!(
            Snapshot::digest_of_store(ShardId(3), 17, &kv),
            snap.digest()
        );
    }

    #[test]
    fn delta_capture_and_fold_reproduce_the_full_state() {
        let mut kv = store_with(&[(1, 10), (2, 20), (3, 30)]);
        let base = Snapshot::capture(ShardId(0), 4, &kv, 0, [0; 32]);
        let base_digest = base.digest();
        // Window 4→8 writes two keys (one of them twice).
        kv.put(2, 21);
        kv.put(2, 22);
        kv.put(7, 70);
        let delta =
            DeltaSnapshot::capture(ShardId(0), 4, base_digest, 8, [2u64, 2, 7], &kv, 1, [1; 32]);
        assert_eq!(delta.records.len(), 2, "dirty keys dedup");
        let mut folded = CheckpointStore::from_records(base.records.clone());
        folded.apply_records(&delta.records);
        assert_eq!(
            folded.digest(ShardId(0), 8),
            Snapshot::capture(ShardId(0), 8, &kv, 1, [1; 32]).digest()
        );
    }

    #[test]
    fn chain_fold_verifies_and_rejects_tampering() {
        let shard = ShardId(0);
        let mut kv = store_with(&[(1, 10), (2, 20)]);
        let base = Snapshot::capture(shard, 4, &kv, 0, [0; 32]);
        let d0 = base.digest();
        kv.put(1, 11);
        let delta1 = DeltaSnapshot::capture(shard, 4, d0, 8, [1u64], &kv, 1, [1; 32]);
        let d1 = Snapshot::digest_of_store(shard, 8, &kv);
        kv.put(2, 21);
        kv.put(3, 30);
        let delta2 = DeltaSnapshot::capture(shard, 8, d1, 12, [2u64, 3], &kv, 2, [2; 32]);
        let d2 = Snapshot::digest_of_store(shard, 12, &kv);

        let transfer = ChainTransfer {
            target_seq: 12,
            target_digest: d2,
            links: vec![
                (
                    PlanLink {
                        seq: 8,
                        digest: d1,
                        base: Some((4, d0)),
                        chunks: 1,
                    },
                    delta1.records.clone(),
                ),
                (
                    PlanLink {
                        seq: 12,
                        digest: d2,
                        base: Some((8, d1)),
                        chunks: 1,
                    },
                    delta2.records.clone(),
                ),
            ],
            ledger_height: 2,
            ledger_head: [2; 32],
        };
        let base_store = CheckpointStore::from_records(base.records.clone());
        let folded = transfer
            .fold_verified(shard, Some((4, d0, &base_store)), |_| None)
            .expect("verified chain folds");
        assert_eq!(folded.digest(), d2);
        assert_eq!(folded.seq, 12);
        assert!(transfer.is_delta_only());

        // Tampered record in the middle link: rejected at that link.
        let mut bad = transfer.clone();
        bad.links[0].1[0].value ^= 1;
        assert_eq!(
            bad.fold_verified(shard, Some((4, d0, &base_store)), |_| None),
            Err(ChainError::LinkDigestMismatch { seq: 8 })
        );
        // Wrong local base: rejected before folding anything.
        assert_eq!(
            transfer.fold_verified(shard, Some((4, [9; 32], &base_store)), |_| None),
            Err(ChainError::BaseMismatch)
        );
        // A quorum-stable digest contradiction on an intermediate link.
        assert_eq!(
            transfer.fold_verified(shard, Some((4, d0, &base_store)), |s| (s == 8)
                .then_some([7; 32])),
            Err(ChainError::StableDigestMismatch { seq: 8 })
        );
    }

    #[test]
    fn chain_fold_full_link_needs_no_local_base() {
        let shard = ShardId(1);
        let mut kv = store_with(&[(1, 10)]);
        let full = Snapshot::capture(shard, 4, &kv, 0, [0; 32]);
        let d0 = full.digest();
        kv.put(4, 40);
        let delta = DeltaSnapshot::capture(shard, 4, d0, 8, [4u64], &kv, 1, [1; 32]);
        let d1 = Snapshot::digest_of_store(shard, 8, &kv);
        let transfer = ChainTransfer {
            target_seq: 8,
            target_digest: d1,
            links: vec![
                (
                    PlanLink {
                        seq: 4,
                        digest: d0,
                        base: None,
                        chunks: 1,
                    },
                    full.records.clone(),
                ),
                (
                    PlanLink {
                        seq: 8,
                        digest: d1,
                        base: Some((4, d0)),
                        chunks: 1,
                    },
                    delta.records.clone(),
                ),
            ],
            ledger_height: 1,
            ledger_head: [1; 32],
        };
        assert!(!transfer.is_delta_only());
        let folded = transfer
            .fold_verified(shard, None, |_| None)
            .expect("folds");
        assert_eq!(folded.digest(), d1);
    }

    #[test]
    fn restore_round_trips_including_versions() {
        let mut kv = store_with(&[(1, 10), (2, 20)]);
        kv.put(1, 11); // version bump
        let snap = Snapshot::capture(ShardId(0), 4, &kv, 1, [1; 32]);
        let restored = CheckpointStore::from_records(snap.records.clone()).to_kv();
        assert_eq!(restored.state_fingerprint(), kv.state_fingerprint());
        assert_eq!(restored.get(1).unwrap().version, 2);
        // Re-capturing the restored store reproduces the digest.
        let again = Snapshot::capture(ShardId(0), 4, &restored, 1, [1; 32]);
        assert_eq!(again.digest(), snap.digest());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// snapshot → digest → restore → re-snapshot is the identity on
        /// the digest, for arbitrary write histories applied in two
        /// different orders.
        #[test]
        fn snapshot_digest_install_deterministic(
            seed in 0u64..u64::MAX,
            n_writes in 1usize..200,
        ) {
            let mut rng = proptest::rng_for(&format!("snap-{seed}"));
            let writes: Vec<(Key, Value)> = (0..n_writes)
                .map(|_| {
                    let k = Strategy::generate(&(0u64..64), &mut rng);
                    let v = Strategy::generate(&(0u64..1_000_000), &mut rng);
                    (k, v)
                })
                .collect();
            // Applying the same per-key write sequences with interleaved
            // order of *distinct* keys must not change the digest. Build
            // store A in given order, store B keyed-grouped.
            let mut a = KvStore::new();
            for &(k, v) in &writes {
                a.put(k, v);
            }
            let mut b = KvStore::new();
            let mut keys: Vec<Key> = writes.iter().map(|w| w.0).collect();
            keys.sort_unstable();
            keys.dedup();
            for k in keys {
                for &(wk, v) in &writes {
                    if wk == k {
                        b.put(k, v);
                    }
                }
            }
            let sa = Snapshot::capture(ShardId(2), 32, &a, 0, [0; 32]);
            let sb = Snapshot::capture(ShardId(2), 32, &b, 0, [0; 32]);
            prop_assert_eq!(sa.digest(), sb.digest());

            // Install on a blank store and re-capture: digest preserved.
            let restored = CheckpointStore::from_records(sa.records.clone()).to_kv();
            let rs = Snapshot::capture(ShardId(2), 32, &restored, 0, [0; 32]);
            prop_assert_eq!(rs.digest(), sa.digest());
        }
    }

    /// Builds a random multi-window history: a base snapshot at window
    /// 0 plus one verified delta per later window, with the final full
    /// store returned for ground truth.
    fn churn_chain(
        seed: u64,
        windows: usize,
        writes_per_window: usize,
    ) -> (Snapshot, Vec<(PlanLink, Vec<RecordEntry>)>, KvStore) {
        let shard = ShardId(1);
        let interval = 8u64;
        let mut rng = proptest::rng_for(&format!("churn-{seed}"));
        let mut kv = KvStore::new();
        for k in 0..64u64 {
            kv.put(k, k * 3 + 1);
        }
        let base = Snapshot::capture(shard, interval, &kv, 0, [0; 32]);
        let mut prev = (interval, base.digest());
        let mut links = Vec::new();
        for w in 1..=windows {
            let seq = interval * (w as u64 + 1);
            let mut dirty = Vec::new();
            for _ in 0..writes_per_window {
                let k = Strategy::generate(&(0u64..96), &mut rng);
                let v = Strategy::generate(&(0u64..1_000_000), &mut rng);
                kv.put(k, v);
                dirty.push(k);
            }
            let delta = DeltaSnapshot::capture(
                shard,
                prev.0,
                prev.1,
                seq,
                dirty,
                &kv,
                w as u64,
                [w as u8; 32],
            );
            let digest = Snapshot::digest_of_store(shard, seq, &kv);
            links.push((
                PlanLink {
                    seq,
                    digest,
                    base: Some(prev),
                    chunks: 1,
                },
                delta.records,
            ));
            prev = (seq, digest);
        }
        (base, links, kv)
    }

    proptest! {
        /// Tentpole acceptance: for random write churn across ≥ 3
        /// checkpoint windows, folding the delta chain onto the base
        /// store reproduces `Snapshot::capture`'s digest exactly.
        #[test]
        fn delta_chain_fold_matches_full_capture(
            seed in 0u64..u64::MAX,
            windows in 3usize..7,
            writes in 1usize..40,
        ) {
            let (base, links, full_kv) = churn_chain(seed, windows, writes);
            let (tseq, tdigest) = {
                let last = &links.last().expect("windows >= 3").0;
                (last.seq, last.digest)
            };
            let transfer = ChainTransfer {
                target_seq: tseq,
                target_digest: tdigest,
                links,
                ledger_height: windows as u64,
                ledger_head: [windows as u8; 32],
            };
            let base_store = CheckpointStore::from_records(base.records.clone());
            let folded = transfer
                .fold_verified(
                    ShardId(1),
                    Some((base.seq, base.digest(), &base_store)),
                    |_| None,
                )
                .expect("honest chain verifies");
            let truth = Snapshot::capture(ShardId(1), tseq, &full_kv, 0, [0; 32]);
            prop_assert_eq!(folded.digest(), truth.digest());
            prop_assert_eq!(folded.records, truth.records);
        }

        /// Corruption-never-accepted, extended to chains: a single
        /// flipped byte in any record of any delta link fails
        /// verification before install.
        #[test]
        fn flipped_byte_in_any_delta_link_is_rejected(
            seed in 0u64..u64::MAX,
            windows in 3usize..6,
            writes in 1usize..24,
            victim in 0u64..1_000_000,
            field in 0u8..3,
            bit in 0u8..64,
        ) {
            let (base, links, _) = churn_chain(seed, windows, writes);
            let (tseq, tdigest) = {
                let last = &links.last().expect("windows >= 3").0;
                (last.seq, last.digest)
            };
            let mut transfer = ChainTransfer {
                target_seq: tseq,
                target_digest: tdigest,
                links,
                ledger_height: 0,
                ledger_head: [0; 32],
            };
            // Pick a record anywhere in the chain and flip one bit of
            // one of its fields.
            let link = (victim as usize) % transfer.links.len();
            let records = &mut transfer.links[link].1;
            prop_assume!(!records.is_empty());
            let idx = (victim as usize / 7) % records.len();
            let r = &mut records[idx];
            let mask = 1u64 << bit;
            match field {
                0 => r.key ^= mask,
                1 => r.value ^= mask,
                _ => r.version ^= mask,
            }
            let base_store = CheckpointStore::from_records(base.records.clone());
            let verdict = transfer.fold_verified(
                ShardId(1),
                Some((base.seq, base.digest(), &base_store)),
                |_| None,
            );
            prop_assert!(
                verdict.is_err(),
                "tampered link {link} was accepted: {verdict:?}"
            );
        }
    }
}
