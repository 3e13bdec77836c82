//! The deterministic transaction model (§3 of the paper).
//!
//! A *deterministic transaction* declares the data items it will read or
//! write before consensus starts, so any replica can decide which of the
//! accessed items live in its own shard. A cross-shard transaction (`cst`)
//! accesses data in a subset `ℑ ⊆ 𝔖` of *involved shards*. A **simple** cst
//! is a collection of per-shard fragments that each shard can execute
//! independently; a **complex** cst carries cross-shard read dependencies
//! (remote reads) that are resolved during the second rotation via the
//! updated write sets `Σ` carried in Execute messages (§4.3.7, §8.8).

use crate::ids::{ClientId, ShardId};
use crate::trace::TraceContext;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// A 256-bit message digest. Produced by `ringbft-crypto`; carried here so
/// message types do not depend on the crypto crate.
pub type Digest = [u8; 32];

/// A key in the YCSB-style table. Keys are partitioned across shards.
pub type Key = u64;

/// A value stored in the table. The paper's YCSB records are fixed-size;
/// we model values as small integers plus a version for dependency checks.
pub type Value = u64;

/// Globally unique transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The kind of access an operation performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperationKind {
    /// Read the current value of the key.
    Read,
    /// Overwrite the key with a new value.
    Write,
    /// Read-modify-write, the paper's standard YCSB workload ("transactions
    /// that read and modify existing records", §8).
    ReadModifyWrite,
}

impl OperationKind {
    /// Does this operation acquire a write lock?
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, OperationKind::Write | OperationKind::ReadModifyWrite)
    }

    /// Does this operation read the key?
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, OperationKind::Read | OperationKind::ReadModifyWrite)
    }
}

/// One data access within a transaction. The owning shard is derived from
/// the key by the system's partitioning function, so the operation itself
/// stores the shard explicitly to keep transactions self-describing (the
/// client "specifies the information regarding all the involved shards...
/// and the necessary read-write sets of each shard", §4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    /// Shard owning `key`.
    pub shard: ShardId,
    /// The key accessed.
    pub key: Key,
    /// Access kind.
    pub kind: OperationKind,
}

/// A transaction's declared operations, dereferencing to
/// `[Operation]`. A workload transaction accesses one key per involved
/// shard and most involve one shard, so a single operation is stored
/// inline and longer lists are boxed: retained batches hold thousands of
/// transactions, and the inline case saves a heap allocation each. The
/// wire encoding is that of `Vec<Operation>`.
#[derive(Clone, PartialEq, Eq)]
pub struct Ops(OpsRepr);

/// Canonical: exactly one operation is always `One`, so the derived
/// equality is slice equality.
#[derive(Clone, PartialEq, Eq)]
enum OpsRepr {
    One(Operation),
    Many(Box<[Operation]>),
}

impl From<Vec<Operation>> for Ops {
    fn from(ops: Vec<Operation>) -> Ops {
        Ops(match *ops {
            [op] => OpsRepr::One(op),
            _ => OpsRepr::Many(ops.into_boxed_slice()),
        })
    }
}

impl Deref for Ops {
    type Target = [Operation];

    fn deref(&self) -> &[Operation] {
        match &self.0 {
            OpsRepr::One(op) => std::slice::from_ref(op),
            OpsRepr::Many(ops) => ops,
        }
    }
}

impl<'a> IntoIterator for &'a Ops {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Ops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Ops {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl Deserialize for Ops {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        Vec::<Operation>::deserialize(r).map(Ops::from)
    }
}

/// A cross-shard read dependency of a *complex* cst: while executing its
/// fragment, `reader` must see the value of `key` owned by `owner`. These
/// are satisfied by the `Σ` write-set updates carried in Execute messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RemoteRead {
    /// The shard whose fragment needs the remote value.
    pub reader: ShardId,
    /// The shard owning the remote key.
    pub owner: ShardId,
    /// The remote key.
    pub key: Key,
}

/// A deterministic (multi-shard) transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Unique id.
    pub id: TxnId,
    /// Issuing client (signs the request with a digital signature, §4.3.1).
    pub client: ClientId,
    /// Declared data accesses, the transaction's read-write set.
    pub ops: Ops,
    /// Cross-shard read dependencies (empty for simple transactions). A
    /// boxed slice, not a `Vec`: retained batches hold thousands of
    /// these, and a box has no spare capacity and one word less (the
    /// wire encoding is the same).
    pub remote_reads: Box<[RemoteRead]>,
    /// Causal trace context, present only on sampled transactions. The
    /// client assigns it at issue time; it rides the transaction through
    /// batches, consensus, and ring Forwards so every replica can stamp
    /// spans under one trace id.
    #[serde(default)]
    pub trace: Option<TraceContext>,
}

impl Transaction {
    /// Builds a transaction, normalising the op order (shard-major) so the
    /// involved-shard list is deterministic.
    pub fn new(id: TxnId, client: ClientId, mut ops: Vec<Operation>) -> Self {
        ops.sort_by_key(|o| (o.shard, o.key));
        Transaction {
            id,
            client,
            ops: Ops::from(ops),
            remote_reads: Box::default(),
            trace: None,
        }
    }

    /// This transaction with `remote_reads` as its cross-shard read
    /// dependencies (making it complex when non-empty).
    pub fn with_remote_reads(mut self, remote_reads: Vec<RemoteRead>) -> Self {
        self.remote_reads = remote_reads.into_boxed_slice();
        self
    }

    /// The set of involved shards `ℑ`, sorted by ring identifier,
    /// deduplicated. Includes shards referenced only by remote reads, since
    /// those shards must participate to supply their values.
    pub fn involved_shards(&self) -> Vec<ShardId> {
        let mut shards: Vec<ShardId> = self
            .ops
            .iter()
            .map(|o| o.shard)
            .chain(self.remote_reads.iter().flat_map(|r| [r.reader, r.owner]))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// True when the transaction touches a single shard only.
    pub fn is_single_shard(&self) -> bool {
        self.involved_shards().len() == 1
    }

    /// True when the transaction has cross-shard execution dependencies
    /// (a *complex* cst, §8.8).
    pub fn is_complex(&self) -> bool {
        !self.remote_reads.is_empty()
    }

    /// The read-write set restricted to one shard: the keys a replica of
    /// `shard` must lock for this transaction (§4.3.5).
    pub fn rw_set_for(&self, shard: ShardId) -> ReadWriteSet {
        let mut rw = ReadWriteSet::default();
        for op in &self.ops {
            if op.shard == shard {
                if op.kind.writes() {
                    rw.writes.push(op.key);
                } else {
                    rw.reads.push(op.key);
                }
            }
        }
        rw.reads.sort_unstable();
        rw.reads.dedup();
        rw.writes.sort_unstable();
        rw.writes.dedup();
        rw
    }

    /// All keys the transaction locks in `shard` (reads and writes; the
    /// paper locks "all the read-write sets that transaction Tℑ needs to
    /// access in shard S").
    pub fn keys_in(&self, shard: ShardId) -> Vec<Key> {
        let mut keys: Vec<Key> = self
            .ops
            .iter()
            .filter(|o| o.shard == shard)
            .map(|o| o.key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Do two transactions conflict at `shard` (access at least one common
    /// key there, at least one side writing)?
    pub fn conflicts_with_at(&self, other: &Transaction, shard: ShardId) -> bool {
        for a in self.ops.iter().filter(|o| o.shard == shard) {
            for b in other.ops.iter().filter(|o| o.shard == shard) {
                if a.key == b.key && (a.kind.writes() || b.kind.writes()) {
                    return true;
                }
            }
        }
        false
    }
}

/// Per-shard read/write key sets of a transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadWriteSet {
    /// Keys read (shared locks).
    pub reads: Vec<Key>,
    /// Keys written (exclusive locks).
    pub writes: Vec<Key>,
}

impl ReadWriteSet {
    /// Every key in the set, reads then writes, deduplicated.
    pub fn all_keys(&self) -> Vec<Key> {
        let mut keys = self.reads.clone();
        keys.extend_from_slice(&self.writes);
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// True when both read and write sets are empty.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// Identifier of a consensus batch: the primary of a shard aggregates
/// client transactions into batches and runs consensus per batch (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchId(pub u64);

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A batch of transactions — the consensus unit. "We expect each block to
/// include all the transactions that access the same shards" (§7), so a
/// batch is either all single-shard (for one shard) or all cross-shard with
/// an identical involved-shard set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// Unique id of the batch.
    pub id: BatchId,
    /// The transactions, in proposal order.
    pub txns: Vec<Transaction>,
}

impl Batch {
    /// Creates a batch. Panics in debug builds if the transactions do not
    /// share an identical involved-shard set (the block rule of §7).
    pub fn new(id: BatchId, txns: Vec<Transaction>) -> Self {
        debug_assert!(
            txns.windows(2)
                .all(|w| w[0].involved_shards() == w[1].involved_shards()),
            "batch must contain transactions with identical involved shards"
        );
        Batch { id, txns }
    }

    /// Creates a batch without the identical-involved-shards check. Used
    /// by fully-replicated protocols (Fig 1 baselines), where every
    /// replica holds all data and the block rule of §7 does not apply.
    pub fn new_unchecked(id: BatchId, txns: Vec<Transaction>) -> Self {
        Batch { id, txns }
    }

    /// Involved shards of the batch (from its first transaction).
    pub fn involved_shards(&self) -> Vec<ShardId> {
        self.txns
            .first()
            .map(|t| t.involved_shards())
            .unwrap_or_default()
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when the batch contains no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Union of all keys the batch locks at `shard`, deduplicated.
    pub fn keys_in(&self, shard: ShardId) -> Vec<Key> {
        let mut keys: Vec<Key> = self.txns.iter().flat_map(|t| t.keys_in(shard)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Total remote reads across the batch (complex-cst load, Fig 10).
    pub fn remote_read_count(&self) -> usize {
        self.txns.iter().map(|t| t.remote_reads.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(shard: u32, key: Key, kind: OperationKind) -> Operation {
        Operation {
            shard: ShardId(shard),
            key,
            kind,
        }
    }

    #[test]
    fn involved_shards_sorted_dedup() {
        let t = Transaction::new(
            TxnId(1),
            ClientId(1),
            vec![
                op(3, 30, OperationKind::Write),
                op(1, 10, OperationKind::Read),
                op(3, 31, OperationKind::Read),
                op(0, 5, OperationKind::ReadModifyWrite),
            ],
        );
        assert_eq!(
            t.involved_shards(),
            vec![ShardId(0), ShardId(1), ShardId(3)]
        );
        assert!(!t.is_single_shard());
        assert!(!t.is_complex());
    }

    #[test]
    fn remote_reads_extend_involvement_and_mark_complex() {
        let t = Transaction::new(TxnId(2), ClientId(1), vec![op(0, 1, OperationKind::Write)])
            .with_remote_reads(vec![RemoteRead {
                reader: ShardId(0),
                owner: ShardId(4),
                key: 99,
            }]);
        assert!(t.is_complex());
        assert_eq!(t.involved_shards(), vec![ShardId(0), ShardId(4)]);
    }

    #[test]
    fn ops_encode_like_a_vec_and_compare_as_slices() {
        for n in 0..4u64 {
            let list: Vec<Operation> = (0..n).map(|k| op(0, k, OperationKind::Write)).collect();
            let ops = Ops::from(list.clone());
            assert_eq!(*ops, *list);
            let bytes = bincode::serialize(&list).expect("encodes");
            assert_eq!(bincode::serialize(&ops).expect("encodes"), bytes);
            let back: Ops = bincode::deserialize(&bytes).expect("decodes");
            assert_eq!(back, ops);
        }
        assert!(std::mem::size_of::<Ops>() <= 24);
    }

    #[test]
    fn rw_set_partitions_reads_and_writes() {
        let t = Transaction::new(
            TxnId(3),
            ClientId(2),
            vec![
                op(1, 10, OperationKind::Read),
                op(1, 11, OperationKind::Write),
                op(1, 12, OperationKind::ReadModifyWrite),
                op(2, 20, OperationKind::Write),
            ],
        );
        let rw = t.rw_set_for(ShardId(1));
        assert_eq!(rw.reads, vec![10]);
        assert_eq!(rw.writes, vec![11, 12]);
        assert_eq!(rw.all_keys(), vec![10, 11, 12]);
        assert_eq!(t.keys_in(ShardId(2)), vec![20]);
        assert!(t.rw_set_for(ShardId(5)).is_empty());
    }

    #[test]
    fn conflict_requires_common_key_and_a_writer() {
        let a = Transaction::new(TxnId(1), ClientId(1), vec![op(0, 7, OperationKind::Write)]);
        let b = Transaction::new(TxnId(2), ClientId(2), vec![op(0, 7, OperationKind::Read)]);
        let c = Transaction::new(TxnId(3), ClientId(3), vec![op(0, 8, OperationKind::Write)]);
        let d = Transaction::new(TxnId(4), ClientId(4), vec![op(0, 7, OperationKind::Read)]);
        assert!(a.conflicts_with_at(&b, ShardId(0)));
        assert!(!a.conflicts_with_at(&c, ShardId(0)));
        // read-read never conflicts
        assert!(!b.conflicts_with_at(&d, ShardId(0)));
        // conflicts are per-shard
        assert!(!a.conflicts_with_at(&b, ShardId(1)));
    }

    #[test]
    fn batch_union_keys_and_counts() {
        let t1 = Transaction::new(TxnId(1), ClientId(1), vec![op(0, 1, OperationKind::Write)]);
        let t2 = Transaction::new(TxnId(2), ClientId(2), vec![op(0, 1, OperationKind::Write)]);
        let t3 = Transaction::new(TxnId(3), ClientId(3), vec![op(0, 2, OperationKind::Read)]);
        let b = Batch::new(BatchId(0), vec![t1, t2, t3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.keys_in(ShardId(0)), vec![1, 2]);
        assert_eq!(b.involved_shards(), vec![ShardId(0)]);
        assert_eq!(b.remote_read_count(), 0);
    }
}
