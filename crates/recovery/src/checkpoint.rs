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
//! hashes per key *written in the window* and hashes nothing else
//! ([`CheckpointStore::fold_window`]). Computing the same digest from
//! scratch ([`crate::Snapshot::digest`],
//! [`crate::Snapshot::digest_of_store`]) is one leaf per record and is
//! only needed to verify state that arrives from outside: an installed
//! snapshot, a replayed log.
//!
//! The store keeps its records as one list ascending by key, the layout
//! of [`crate::Snapshot::records`], rather than as a second hash map
//! beside the replica's live one. A window's writes are sorted by key;
//! a key the store holds is updated in place, found by a galloping
//! search from the previous key's position, and keys new to the store
//! are merged in by one backward pass over the records above the first
//! of them. A full capture is then a copy of the list (no walk of a
//! hash map, no sort), a restore from a snapshot or a replayed log
//! adopts the snapshot's list, and a copy of the store for a
//! state-transfer fold is 24 bytes a record.
//!
//! The additive lane hash is a stated substitution, of the same kind as
//! this repository's HMACs standing in for signatures: it binds state
//! against corruption and honest divergence, which is what the fault
//! matrix exercises, but unlike a Merkle or lattice-based set hash it
//! does not resist an adversary who searches for colliding record sets
//! (Wagner's generalized-birthday attack applies to sums mod 2^64).

use crate::snapshot::{RecordEntry, Snapshot};
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
///
/// The records are held ascending by key, in [`Snapshot::records`]'
/// layout (24 bytes a record), so a full capture is a copy of the list
/// and a restore adopts a snapshot's list as it is.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    records: Vec<RecordEntry>,
    acc: StateAcc,
}

/// Sorts `records` by key; a key listed more than once keeps its last
/// entry.
fn sort_last_wins(records: &mut Vec<RecordEntry>) {
    // Stable, so a key's entries keep their list order.
    records.sort_by_key(|r| r.key);
    records.dedup_by(|later, kept| {
        let same = later.key == kept.key;
        if same {
            *kept = *later;
        }
        same
    });
}

fn strictly_ascending(records: &[RecordEntry]) -> bool {
    records.windows(2).all(|w| w[0].key < w[1].key)
}

/// The index of the first record at or after `from` whose key is not
/// below `key`, by galloping: probes at doubling distances past `from`
/// bound the answer, and a binary search inside that bound finds it.
/// An answer `d` records on costs O(log d) probes near `from`, so a run
/// of ascending lookups walks the list almost in order rather than
/// paying a binary search's cache misses over all of it each time.
fn seek(records: &[RecordEntry], from: usize, key: Key) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step <= records.len() && records[lo + step - 1].key < key {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(records.len());
    lo + records[lo..hi].partition_point(|r| r.key < key)
}

impl CheckpointStore {
    /// A store holding `kv`'s records: one sort, and one leaf per
    /// record to seed the accumulator.
    pub fn new(kv: &KvStore) -> CheckpointStore {
        let mut records: Vec<RecordEntry> =
            kv.iter().map(|(key, r)| RecordEntry::of(key, r)).collect();
        records.sort_unstable_by_key(|r| r.key);
        CheckpointStore::from_records(records)
    }

    /// A store holding `records`, a snapshot's record list, adopted as
    /// it is when ascending by key. A list that is not (corrupt or
    /// hostile input) is sorted, and a key listed more than once keeps
    /// its last entry. Seeding the accumulator costs one leaf per
    /// record: the only O(keys) step, paid once per wholesale swap of
    /// the checkpoint store.
    pub fn from_records(mut records: Vec<RecordEntry>) -> CheckpointStore {
        if !strictly_ascending(&records) {
            sort_last_wins(&mut records);
        }
        let acc = StateAcc::of(records.iter().map(|r| (r.key, r.record())));
        CheckpointStore { records, acc }
    }

    /// The records, ascending by key.
    pub fn records(&self) -> &[RecordEntry] {
        &self.records
    }

    /// The record of `key`, by binary search.
    pub fn get(&self, key: Key) -> Option<Record> {
        let at = self.records.binary_search_by_key(&key, |r| r.key).ok()?;
        Some(self.records[at].record())
    }

    /// A live key-value store holding these records.
    pub fn to_kv(&self) -> KvStore {
        self.records.iter().map(|r| (r.key, r.record())).collect()
    }

    /// The full snapshot of this store at checkpoint `(shard, seq)`: a
    /// copy of the record list.
    pub fn snapshot(
        &self,
        shard: ShardId,
        seq: u64,
        ledger_height: u64,
        ledger_head: Digest,
    ) -> Snapshot {
        Snapshot {
            shard,
            seq,
            records: self.records.clone(),
            ledger_height,
            ledger_head,
        }
    }

    /// The record list, without a copy.
    pub(crate) fn into_records(self) -> Vec<RecordEntry> {
        self.records
    }

    /// The state digest at checkpoint `(shard, seq)`, from the
    /// accumulator: O(1) in the size of the store.
    pub fn digest(&self, shard: ShardId, seq: u64) -> Digest {
        self.acc.digest(shard, seq)
    }

    /// Applies one checkpoint window's write effects, in order, and
    /// returns the window's dirty records — each written key once, with
    /// its post-window value and version, ascending by key (the record
    /// list of the window's [`crate::DeltaSnapshot`]). Hashing is
    /// proportional to the writes: a key rewritten within the window
    /// costs its leaves once. Keys already held are found by a
    /// galloping search; keys new to the store are merged in by one
    /// pass over the records above the first of them.
    pub fn fold_window(
        &mut self,
        writes: impl IntoIterator<Item = (Key, Value)>,
    ) -> Vec<RecordEntry> {
        let mut writes: Vec<(Key, Value)> = writes.into_iter().collect();
        // Stable, so a key's writes stay in execution order: the last
        // is its post-window value, and each one bumped its version.
        writes.sort_by_key(|&(k, _)| k);
        let per_key = || writes.chunk_by(|a, b| a.0 == b.0);
        // An exactly sized list: deltas are retained for several
        // windows, and a larger allocation would stay alive with each.
        let mut dirty = Vec::with_capacity(per_key().count());
        let updates = per_key().map(|w| (w[0].0, (w[w.len() - 1].1, w.len() as u64)));
        self.upsert(updates, |key, old, (value, writes)| {
            let new = Record {
                value,
                version: old.map_or(0, |o| o.version) + writes,
            };
            dirty.push(RecordEntry::of(key, new));
            new
        });
        dirty
    }

    /// Installs `records` verbatim, versions included (a snapshot or
    /// delta link being folded). A list that is not ascending by key is
    /// sorted first, and a key listed more than once takes its last
    /// entry.
    pub fn apply_records(&mut self, records: &[RecordEntry]) {
        let sorted;
        let records = if strictly_ascending(records) {
            records
        } else {
            sorted = {
                let mut copy = records.to_vec();
                sort_last_wins(&mut copy);
                copy
            };
            &sorted
        };
        self.upsert(records.iter().map(|r| (r.key, r.record())), |_, _, new| new);
    }

    /// Writes `updates`, strictly ascending by key, each key's new
    /// record made by `write` from its update and its old record. A key
    /// already held is updated in place, found by a galloping search
    /// above the previous update; new keys are merged in afterwards.
    /// The accumulator follows every change.
    fn upsert<U>(
        &mut self,
        updates: impl IntoIterator<Item = (Key, U)>,
        mut write: impl FnMut(Key, Option<Record>, U) -> Record,
    ) {
        let mut fresh = Vec::new();
        let mut from = 0;
        for (key, update) in updates {
            from = seek(&self.records, from, key);
            match self.records.get_mut(from) {
                Some(held) if held.key == key => {
                    let old = held.record();
                    let new = write(key, Some(old), update);
                    *held = RecordEntry::of(key, new);
                    self.acc.replace(key, Some(old), new);
                }
                _ => {
                    let new = write(key, None, update);
                    self.acc.replace(key, None, new);
                    fresh.push(RecordEntry::of(key, new));
                }
            }
        }
        self.merge(fresh);
    }

    /// Merges `fresh`, ascending by key and holding no key the store
    /// holds, into the records: one backward pass that moves each
    /// record above the first fresh key once.
    fn merge(&mut self, fresh: Vec<RecordEntry>) {
        let Some(&filler) = fresh.first() else {
            return;
        };
        if self.records.is_empty() {
            self.records = fresh;
            return;
        }
        let mut held = self.records.len();
        let mut next = fresh.len();
        self.records.resize(held + next, filler);
        let mut at = self.records.len();
        while next > 0 {
            at -= 1;
            if held > 0 && self.records[held - 1].key > fresh[next - 1].key {
                held -= 1;
                self.records[at] = self.records[held];
            } else {
                next -= 1;
                self.records[at] = fresh[next];
            }
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
        let mut store = CheckpointStore::new(&kv);
        assert_eq!(
            store.digest(SHARD, 8),
            Snapshot::digest_of_store(SHARD, 8, &store.to_kv())
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
        assert_eq!(store.records().len(), 11);
        assert_eq!(
            store.digest(SHARD, 16),
            Snapshot::digest_of_store(SHARD, 16, &store.to_kv())
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
        assert_eq!(store.get(9).unwrap().value, 91);
        assert_eq!(
            store.digest(SHARD, 8),
            Snapshot::digest_of_store(SHARD, 8, &store.to_kv())
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
            let mut store = CheckpointStore::new(&plain);
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
                    store.snapshot(SHARD, seq, 0, [0; 32]).digest()
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

        /// The sorted store against a `KvStore` model: windows that
        /// rewrite keys, write keys new to the store between, below and
        /// above the keys it holds, and keys at the ends of the key
        /// space. After every window the records ascend strictly and
        /// equal the model's, and the accumulated digest is the
        /// model's from-scratch one.
        #[test]
        fn sorted_store_tracks_a_kv_model_across_windows(
            seed in 0u64..u64::MAX,
            windows in 1usize..8,
            writes in 0usize..50,
        ) {
            let mut rng = proptest::rng_for(&format!("model-{seed}"));
            // Even keys in 40..80: odd keys inside that range, and every
            // key outside it, are new to the store.
            let mut model = KvStore::new();
            for k in (40..80u64).step_by(2) {
                model.put(k, k);
            }
            let mut store = CheckpointStore::new(&model);
            for w in 1..=windows as u64 {
                let window: Vec<(Key, Value)> = (0..writes)
                    .map(|_| {
                        let k = match Strategy::generate(&(0u64..20), &mut rng) {
                            0 => 0,
                            1 => u64::MAX,
                            _ => Strategy::generate(&(0u64..120), &mut rng),
                        };
                        (k, Strategy::generate(&(0u64..1_000), &mut rng))
                    })
                    .collect();
                let dirty = store.fold_window(window.iter().copied());
                for &(k, v) in &window {
                    model.put(k, v);
                }
                let truth = Snapshot::capture(SHARD, 8 * w, &model, 0, [0; 32]);
                prop_assert!(strictly_ascending(store.records()));
                prop_assert_eq!(store.records(), &truth.records[..]);
                prop_assert_eq!(
                    store.digest(SHARD, 8 * w),
                    Snapshot::digest_of_store(SHARD, 8 * w, &model)
                );
                prop_assert!(strictly_ascending(&dirty));
                prop_assert!(dirty.iter().all(|r| model.get(r.key) == Some(r.record())));
                let mut keys: Vec<Key> = window.iter().map(|w| w.0).collect();
                keys.sort_unstable();
                keys.dedup();
                prop_assert_eq!(dirty.iter().map(|r| r.key).collect::<Vec<_>>(), keys);
            }
        }

        /// A hostile record list — unsorted, with keys listed several
        /// times — never panics the store and is applied last write
        /// wins, whether applied to a populated store or adopted whole.
        #[test]
        fn unsorted_or_duplicated_records_apply_last_write_wins(
            seed in 0u64..u64::MAX,
            n in 0usize..60,
        ) {
            let mut rng = proptest::rng_for(&format!("hostile-{seed}"));
            let hostile: Vec<RecordEntry> = (0..n as u64)
                .map(|i| {
                    let key = Strategy::generate(&(0u64..24), &mut rng);
                    entry(key, i, Strategy::generate(&(0u64..5), &mut rng))
                })
                .collect();
            let mut held = KvStore::new();
            for k in (0..24u64).step_by(3) {
                held.put(k, k);
            }
            let mut store = CheckpointStore::new(&held);
            store.apply_records(&hostile);
            // Collecting installs records in order, a later one of a
            // key replacing an earlier one.
            let listed = || hostile.iter().map(|r| (r.key, r.record()));
            let model: KvStore = held.iter().chain(listed()).collect();
            let blank: KvStore = listed().collect();
            let adopted = CheckpointStore::from_records(hostile.clone());
            for (store, model) in [(&store, &model), (&adopted, &blank)] {
                prop_assert!(strictly_ascending(store.records()));
                prop_assert_eq!(
                    store.records(),
                    &Snapshot::capture(SHARD, 8, model, 0, [0; 32]).records[..]
                );
                prop_assert_eq!(
                    store.digest(SHARD, 8),
                    Snapshot::digest_of_store(SHARD, 8, model)
                );
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
            let adopted = CheckpointStore::from_records(truth.records.clone());
            let seeded = CheckpointStore::new(&adopted.to_kv());
            for store in [&forward, &backward, &halves, &seeded, &adopted] {
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
