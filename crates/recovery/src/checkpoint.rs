//! The checkpoint state digest and the store it is maintained over.
//!
//! The digest a shard's `Checkpoint` votes carry is a *set hash* of the
//! replica's records:
//!
//! ```text
//! leaf(r)  = SHA-256("ringbft-leaf-v2\0" ‖ key ‖ value ‖ version)   one block
//! acc      = Σ leaf(r), four 64-bit lanes, each summed mod 2^64
//! digest   = SHA-256("ringbft-state-v2" ‖ shard ‖ seq ‖ record_count ‖ acc)
//! ```
//!
//! A sum can be maintained incrementally: replacing a record subtracts
//! its old leaf and adds its new one, so a checkpoint costs two leaf
//! hashes per key *written in the window* and never touches the rest of
//! the store ([`CheckpointStore::fold_window`]). Computing the same
//! digest from scratch ([`crate::Snapshot::digest`],
//! [`crate::Snapshot::digest_of_store`]) is one leaf per record and is
//! only needed to verify state that arrives from outside: an installed
//! snapshot, a replayed log.
//!
//! The additive lane hash is a stated substitution, of the same kind as
//! this repository's HMACs standing in for signatures: it binds state
//! against corruption and honest divergence, which is what the fault
//! matrix exercises, but unlike a Merkle or lattice-based set hash it
//! does not resist an adversary who searches for colliding record sets
//! (Wagner's generalized-birthday attack applies to sums mod 2^64).

use crate::snapshot::RecordEntry;
use ringbft_crypto::{sha256_one_block, Digest, Sha256};
use ringbft_store::{KvStore, Record};
use ringbft_types::txn::{Key, Value};
use ringbft_types::ShardId;

const LEAF_TAG: &[u8; 16] = b"ringbft-leaf-v2\0";
const STATE_TAG: &[u8; 16] = b"ringbft-state-v2";

/// The incrementally maintainable part of the state digest: the
/// lane-wise sum of one leaf per record, and the record count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StateAcc {
    lanes: [u64; 4],
    records: u64,
}

fn leaf(key: Key, r: Record) -> [u64; 4] {
    let mut msg = [0u8; 40];
    msg[..16].copy_from_slice(LEAF_TAG);
    msg[16..24].copy_from_slice(&key.to_le_bytes());
    msg[24..32].copy_from_slice(&r.value.to_le_bytes());
    msg[32..].copy_from_slice(&r.version.to_le_bytes());
    let d = sha256_one_block(&msg);
    std::array::from_fn(|i| u64::from_le_bytes(d[i * 8..i * 8 + 8].try_into().expect("8 bytes")))
}

impl StateAcc {
    /// The accumulator of a record set, from scratch.
    pub(crate) fn of(records: impl IntoIterator<Item = (Key, Record)>) -> StateAcc {
        let mut acc = StateAcc::default();
        for (key, r) in records {
            acc.add(key, r);
        }
        acc
    }

    fn add(&mut self, key: Key, r: Record) {
        for (lane, l) in self.lanes.iter_mut().zip(leaf(key, r)) {
            *lane = lane.wrapping_add(l);
        }
        self.records += 1;
    }

    fn remove(&mut self, key: Key, r: Record) {
        for (lane, l) in self.lanes.iter_mut().zip(leaf(key, r)) {
            *lane = lane.wrapping_sub(l);
        }
        self.records -= 1;
    }

    /// `old` (if any) left the set and `new` joined it.
    fn replace(&mut self, key: Key, old: Option<Record>, new: Record) {
        if let Some(old) = old {
            self.remove(key, old);
        }
        self.add(key, new);
    }

    /// The state digest of this record set at checkpoint `(shard, seq)`.
    pub(crate) fn digest(&self, shard: ShardId, seq: u64) -> Digest {
        let mut h = Sha256::new();
        h.update(STATE_TAG);
        h.update(&shard.0.to_le_bytes());
        h.update(&seq.to_le_bytes());
        h.update(&self.records.to_le_bytes());
        for lane in self.lanes {
            h.update(&lane.to_le_bytes());
        }
        h.finalize()
    }
}

/// A replica's canonical checkpoint store together with the digest
/// accumulator over it. The two only change together, through the
/// methods here, so the accumulator cannot drift from the records.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    kv: KvStore,
    acc: StateAcc,
}

impl CheckpointStore {
    /// Takes ownership of `kv` and seeds the accumulator from it (one
    /// leaf per record — the only O(keys) step; every wholesale swap of
    /// the checkpoint store pays it once).
    pub fn new(kv: KvStore) -> CheckpointStore {
        let acc = StateAcc::of(kv.iter());
        CheckpointStore { kv, acc }
    }

    /// The records.
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The state digest at checkpoint `(shard, seq)`, from the
    /// accumulator: O(1) in the size of the store.
    pub fn digest(&self, shard: ShardId, seq: u64) -> Digest {
        self.acc.digest(shard, seq)
    }

    /// Applies one checkpoint window's write effects, in order, and
    /// returns the window's dirty records — each written key once, with
    /// its post-window value and version, ascending by key (the record
    /// list of the window's [`crate::DeltaSnapshot`]). Work is
    /// proportional to the writes; a key rewritten within the window
    /// costs its leaves once.
    pub fn fold_window(
        &mut self,
        writes: impl IntoIterator<Item = (Key, Value)>,
    ) -> Vec<RecordEntry> {
        // What each write replaced. After the stable sort a key's first
        // entry holds its pre-window record, and dedup keeps that one.
        let mut replaced: Vec<(Key, Option<Record>)> = writes
            .into_iter()
            .map(|(k, v)| (k, self.kv.put(k, v)))
            .collect();
        replaced.sort_by_key(|&(k, _)| k);
        replaced.dedup_by_key(|&mut (k, _)| k);
        // An exactly sized list: deltas are retained for several
        // windows, and collecting in place would keep the scratch
        // vector's larger allocation alive with each of them.
        let mut dirty = Vec::with_capacity(replaced.len());
        for (key, old) in replaced {
            let new = self.kv.get(key).expect("written above");
            self.acc.replace(key, old, new);
            dirty.push(RecordEntry::of(key, new));
        }
        dirty
    }

    /// Installs `records` verbatim, versions included (a snapshot or
    /// delta link being folded).
    pub fn apply_records(&mut self, records: &[RecordEntry]) {
        for r in records {
            let new = r.record();
            let old = self.kv.insert_record(r.key, new);
            self.acc.replace(r.key, old, new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;

    const SHARD: ShardId = ShardId(2);

    #[test]
    fn window_fold_matches_from_scratch_and_reports_dirty_records() {
        let mut kv = KvStore::new();
        for k in 0..10u64 {
            kv.put(k, k + 100);
        }
        let mut store = CheckpointStore::new(kv);
        assert_eq!(
            store.digest(SHARD, 8),
            Snapshot::digest_of_store(SHARD, 8, store.kv())
        );
        // Key 3 twice, key 40 new, key 7 once — out of key order.
        let dirty = store.fold_window([(7, 1), (3, 2), (40, 3), (3, 4)]);
        assert_eq!(
            dirty
                .iter()
                .map(|r| (r.key, r.value, r.version))
                .collect::<Vec<_>>(),
            vec![(3, 4, 3), (7, 1, 2), (40, 3, 1)]
        );
        assert_eq!(store.kv().len(), 11);
        assert_eq!(
            store.digest(SHARD, 16),
            Snapshot::digest_of_store(SHARD, 16, store.kv())
        );
        // An empty window moves nothing but the sequence.
        assert!(store.fold_window([]).is_empty());
        assert_ne!(store.digest(SHARD, 16), store.digest(SHARD, 24));
    }

    #[test]
    fn digest_commits_to_count_shard_and_seq() {
        let empty = CheckpointStore::default();
        let mut one = CheckpointStore::default();
        one.fold_window([(1, 1)]);
        assert_ne!(empty.digest(SHARD, 8), one.digest(SHARD, 8));
        assert_ne!(one.digest(SHARD, 8), one.digest(SHARD, 9));
        assert_ne!(one.digest(SHARD, 8), one.digest(ShardId(3), 8));
    }

    #[test]
    fn apply_records_replaces_and_inserts_consistently() {
        let mut store = CheckpointStore::default();
        store.fold_window([(1, 10), (2, 20)]);
        let rec = |key, value, version| RecordEntry {
            key,
            value,
            version,
        };
        // The same key twice in one list: the later entry wins, and
        // the accumulator follows the store.
        store.apply_records(&[rec(2, 21, 5), rec(9, 90, 1), rec(9, 91, 2)]);
        assert_eq!(store.kv().get(9).unwrap().value, 91);
        assert_eq!(
            store.digest(SHARD, 8),
            Snapshot::digest_of_store(SHARD, 8, store.kv())
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::{DeltaSnapshot, Snapshot};
    use proptest::prelude::*;

    const SHARD: ShardId = ShardId(1);

    fn entry(key: Key, value: Value, version: u64) -> RecordEntry {
        RecordEntry {
            key,
            value,
            version,
        }
    }

    /// `n` records with distinct keys and arbitrary values/versions.
    fn random_records(seed: u64, n: usize) -> Vec<RecordEntry> {
        let mut rng = proptest::rng_for(&format!("records-{seed}"));
        (0..n as u64)
            .map(|i| {
                let gap = Strategy::generate(&(0u64..1 << 40), &mut rng);
                let value = Strategy::generate(&(0u64..u64::MAX), &mut rng);
                let version = Strategy::generate(&(0u64..1 << 20), &mut rng);
                entry((i << 40) | gap, value, version)
            })
            .collect()
    }

    proptest! {
        /// Tentpole acceptance: over random write schedules across ≥ 3
        /// windows — a key space small enough that keys are rewritten
        /// within a window, and that widens every window so keys are
        /// first written mid-run — the incrementally maintained digest
        /// equals the from-scratch one at every checkpoint, and the
        /// window's dirty records are exactly its delta capture.
        #[test]
        fn incremental_digest_equals_from_scratch_every_window(
            seed in 0u64..u64::MAX,
            windows in 3usize..7,
            writes in 1usize..60,
        ) {
            let mut rng = proptest::rng_for(&format!("windows-{seed}"));
            let mut plain = KvStore::new();
            for k in 0..16u64 {
                plain.put(k, k * 5 + 1);
            }
            let mut store = CheckpointStore::new(plain.clone());
            for w in 1..=windows as u64 {
                let seq = 8 * w;
                let window: Vec<(Key, Value)> = (0..writes)
                    .map(|_| {
                        let k = Strategy::generate(&(0u64..16 + 8 * w), &mut rng);
                        let v = Strategy::generate(&(0u64..1_000_000), &mut rng);
                        (k, v)
                    })
                    .collect();
                let dirty = store.fold_window(window.iter().copied());
                for &(k, v) in &window {
                    plain.put(k, v);
                }
                let digest = store.digest(SHARD, seq);
                prop_assert_eq!(digest, Snapshot::digest_of_store(SHARD, seq, &plain));
                prop_assert_eq!(
                    digest,
                    Snapshot::capture(SHARD, seq, store.kv(), 0, [0; 32]).digest()
                );
                let delta = DeltaSnapshot::capture(
                    SHARD,
                    seq - 8,
                    [0; 32],
                    seq,
                    window.iter().map(|w| w.0),
                    &plain,
                    0,
                    [0; 32],
                );
                prop_assert_eq!(dirty, delta.records);
            }
        }

        /// The digest is a function of the record *set*: applying the
        /// records forward, backward, in two halves, or seeding the
        /// accumulator wholesale from a finished store all agree with
        /// the from-scratch digest of the list.
        #[test]
        fn digest_is_independent_of_fold_order(
            seed in 0u64..u64::MAX,
            n in 1usize..80,
            cut in any::<usize>(),
        ) {
            let records = random_records(seed, n);
            let truth = Snapshot {
                shard: SHARD,
                seq: 32,
                records: records.clone(),
                ledger_height: 0,
                ledger_head: [0; 32],
            };
            let mut forward = CheckpointStore::default();
            forward.apply_records(&records);
            let mut backward = CheckpointStore::default();
            let reversed: Vec<RecordEntry> = records.iter().rev().copied().collect();
            backward.apply_records(&reversed);
            let (a, b) = records.split_at(cut % (n + 1));
            let mut halves = CheckpointStore::default();
            halves.apply_records(b);
            halves.apply_records(a);
            let seeded = CheckpointStore::new(truth.restore_store());
            for store in [&forward, &backward, &halves, &seeded] {
                prop_assert_eq!(store.digest(SHARD, 32), truth.digest());
            }
        }

        /// Any single flipped bit of any field of any record changes
        /// the digest, on the from-scratch and the incremental path.
        #[test]
        fn any_flipped_bit_of_any_record_changes_the_digest(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            victim in any::<usize>(),
            field in 0u8..3,
            bit in 0u8..64,
        ) {
            let records = random_records(seed, n);
            let mut flipped = records.clone();
            let r = &mut flipped[victim % n];
            let mask = 1u64 << bit;
            match field {
                0 => r.key ^= mask,
                1 => r.value ^= mask,
                _ => r.version ^= mask,
            }
            let snap = |records: Vec<RecordEntry>| Snapshot {
                shard: SHARD,
                seq: 8,
                records,
                ledger_height: 0,
                ledger_head: [0; 32],
            };
            prop_assert_ne!(snap(records.clone()).digest(), snap(flipped.clone()).digest());
            let mut a = CheckpointStore::default();
            a.apply_records(&records);
            let mut b = CheckpointStore::default();
            b.apply_records(&flipped);
            prop_assert_ne!(a.digest(SHARD, 8), b.digest(SHARD, 8));
        }
    }
}
