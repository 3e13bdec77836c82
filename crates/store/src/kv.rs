//! The YCSB-style key-value table each shard manages (§8 "Benchmark").
//!
//! "Each client transaction queries a YCSB table with an active set of
//! 600k records ... transactions that read and modify existing records.
//! Prior to each experiment, each replica initializes an identical copy of
//! the YCSB table." A shard holds only its own partition of the key space.

use ringbft_types::txn::{Key, Operation, OperationKind, Transaction, Value};
use ringbft_types::ShardId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

/// A versioned record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Current value.
    pub value: Value,
    /// Monotonic version, bumped on every write (used to validate
    /// deterministic replay across replicas).
    pub version: u64,
}

/// One shard's partition of the table.
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    records: HashMap<Key, Record>,
}

/// Result of executing a transaction fragment: the updated write set this
/// shard contributes to `Σ` (§4.3.7), plus the values it read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragmentResult {
    /// Keys written with their new values (the shard's slice of `Σ`).
    pub writes: Vec<(Key, Value)>,
    /// Keys read with the values observed.
    pub reads: Vec<(Key, Value)>,
}

impl KvStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Initializes the shard's partition: every key in `range` gets a
    /// deterministic initial value, identical across replicas.
    pub fn init_partition(range: Range<Key>) -> Self {
        let mut records = HashMap::with_capacity((range.end - range.start) as usize);
        for key in range {
            records.insert(
                key,
                Record {
                    value: initial_value(key),
                    version: 0,
                },
            );
        }
        KvStore { records }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Reads a record.
    pub fn get(&self, key: Key) -> Option<Record> {
        self.records.get(&key).copied()
    }

    /// Iterates all `(key, record)` pairs in unspecified order (snapshot
    /// capture sorts; see `ringbft-recovery`).
    pub fn iter(&self) -> impl Iterator<Item = (Key, Record)> + '_ {
        self.records.iter().map(|(k, r)| (*k, *r))
    }

    /// Writes a record, bumping its version. Inserts if missing. Returns
    /// the record it replaced (`None` for a key first written here), so
    /// a caller maintaining a digest over the store can retire the old
    /// record without a second lookup.
    pub fn put(&mut self, key: Key, value: Value) -> Option<Record> {
        match self.records.entry(key) {
            Entry::Occupied(mut e) => {
                let rec = e.get_mut();
                let old = *rec;
                rec.value = value;
                rec.version += 1;
                Some(old)
            }
            Entry::Vacant(e) => {
                e.insert(Record { value, version: 1 });
                None
            }
        }
    }

    /// Executes the fragment of `txn` owned by `shard`, deterministically.
    ///
    /// * `Read` observes the current value.
    /// * `Write` stores a value derived from `(txn id, key)`.
    /// * `ReadModifyWrite` stores a value derived from the old value and
    ///   the transaction id — so all replicas that execute the same
    ///   transactions in the same order hold identical state.
    ///
    /// `remote_values` supplies values of remote keys for complex csts
    /// (resolved from `Σ`); fragment execution folds them into the written
    /// values so a dependency change propagates into state.
    pub fn execute_fragment(
        &mut self,
        txn: &Transaction,
        shard: ShardId,
        remote_values: &[(Key, Value)],
    ) -> FragmentResult {
        let remote_sum: Value = remote_values
            .iter()
            .map(|(k, v)| v.wrapping_add(*k))
            .fold(0, Value::wrapping_add);
        let mut result = FragmentResult::default();
        for op in txn.ops.iter().filter(|o| o.shard == shard) {
            match op.kind {
                OperationKind::Read => {
                    let v = self.get(op.key).map(|r| r.value).unwrap_or_default();
                    result.reads.push((op.key, v));
                }
                OperationKind::Write => {
                    let v = mix(txn.id.0, op.key).wrapping_add(remote_sum);
                    self.put(op.key, v);
                    result.writes.push((op.key, v));
                }
                OperationKind::ReadModifyWrite => {
                    let old = self.get(op.key).map(|r| r.value).unwrap_or_default();
                    result.reads.push((op.key, old));
                    let v = mix(txn.id.0, old).wrapping_add(remote_sum);
                    self.put(op.key, v);
                    result.writes.push((op.key, v));
                }
            }
        }
        result
    }

    /// A content digest input: deterministic fold over `(key, value,
    /// version)` for state-equality checks in tests. (Order-independent.)
    pub fn state_fingerprint(&self) -> u64 {
        self.records
            .iter()
            .map(|(k, r)| mix(mix(*k, r.value), r.version))
            .fold(0u64, u64::wrapping_add)
    }
}

impl FromIterator<(Key, Record)> for KvStore {
    /// Installs each record verbatim, version included — as when
    /// restoring a checkpoint snapshot, where the donor's version
    /// counters must be preserved exactly. A later record of a key
    /// replaces an earlier one.
    fn from_iter<I: IntoIterator<Item = (Key, Record)>>(records: I) -> Self {
        KvStore {
            records: records.into_iter().collect(),
        }
    }
}

/// Deterministic initial value of a key (same on every replica).
fn initial_value(key: Key) -> Value {
    mix(key, 0x9e3779b97f4a7c15)
}

/// A cheap deterministic 64-bit mixer (splitmix64 finalizer).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Convenience: build the operations of a read-modify-write transaction
/// over the given keys (the paper's standard workload).
pub fn rmw_ops(keys_by_shard: &[(ShardId, Key)]) -> Vec<Operation> {
    keys_by_shard
        .iter()
        .map(|&(shard, key)| Operation {
            shard,
            key,
            kind: OperationKind::ReadModifyWrite,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::{ClientId, TxnId};

    #[test]
    fn init_partition_is_deterministic() {
        let a = KvStore::init_partition(0..100);
        let b = KvStore::init_partition(0..100);
        assert_eq!(a.len(), 100);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        assert_eq!(a.get(7), b.get(7));
        assert!(a.get(100).is_none());
    }

    #[test]
    fn put_bumps_version_and_returns_the_replaced_record() {
        let mut kv = KvStore::init_partition(0..10);
        let before = kv.get(3).unwrap();
        assert_eq!(kv.put(3, 42), Some(before));
        let after = kv.get(3).unwrap();
        assert_eq!(after.value, 42);
        assert_eq!(after.version, before.version + 1);
        // A key first written here replaces nothing and starts at 1.
        assert_eq!(kv.put(77, 5), None);
        let fresh = Record {
            value: 5,
            version: 1,
        };
        assert_eq!(kv.get(77), Some(fresh));
    }

    #[test]
    fn rmw_execution_is_replica_deterministic() {
        let shard = ShardId(0);
        let txn = Transaction::new(TxnId(9), ClientId(1), rmw_ops(&[(shard, 1), (shard, 2)]));
        let mut kv1 = KvStore::init_partition(0..10);
        let mut kv2 = KvStore::init_partition(0..10);
        let r1 = kv1.execute_fragment(&txn, shard, &[]);
        let r2 = kv2.execute_fragment(&txn, shard, &[]);
        assert_eq!(r1, r2);
        assert_eq!(kv1.state_fingerprint(), kv2.state_fingerprint());
        assert_eq!(r1.writes.len(), 2);
        assert_eq!(r1.reads.len(), 2);
    }

    #[test]
    fn fragment_only_touches_own_shard() {
        let txn = Transaction::new(
            TxnId(1),
            ClientId(1),
            rmw_ops(&[(ShardId(0), 1), (ShardId(1), 5)]),
        );
        let mut kv = KvStore::init_partition(0..4); // shard 0's keys only
        let before = kv.get(1).unwrap();
        let r = kv.execute_fragment(&txn, ShardId(0), &[]);
        assert_eq!(r.writes.len(), 1);
        assert_eq!(r.writes[0].0, 1);
        assert_ne!(kv.get(1).unwrap().value, before.value);
    }

    #[test]
    fn remote_values_change_written_state() {
        let shard = ShardId(0);
        let txn = Transaction::new(TxnId(5), ClientId(2), rmw_ops(&[(shard, 1)]));
        let mut kv_a = KvStore::init_partition(0..4);
        let mut kv_b = KvStore::init_partition(0..4);
        let ra = kv_a.execute_fragment(&txn, shard, &[(99, 1000)]);
        let rb = kv_b.execute_fragment(&txn, shard, &[(99, 2000)]);
        assert_ne!(ra.writes, rb.writes, "dependency values must matter");
    }

    #[test]
    fn order_matters_for_state() {
        // Two conflicting RMW transactions applied in different orders
        // leave different state — exactly why consistence (§ Def 4.1)
        // requires identical ordering on all replicas.
        let shard = ShardId(0);
        let t1 = Transaction::new(TxnId(1), ClientId(1), rmw_ops(&[(shard, 1)]));
        let t2 = Transaction::new(TxnId(2), ClientId(2), rmw_ops(&[(shard, 1)]));
        let mut kv12 = KvStore::init_partition(0..4);
        kv12.execute_fragment(&t1, shard, &[]);
        kv12.execute_fragment(&t2, shard, &[]);
        let mut kv21 = KvStore::init_partition(0..4);
        kv21.execute_fragment(&t2, shard, &[]);
        kv21.execute_fragment(&t1, shard, &[]);
        assert_ne!(kv12.state_fingerprint(), kv21.state_fingerprint());
    }
}
