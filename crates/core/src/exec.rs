//! Fragment execution (§4.3.5): a shard processes a fragment once it
//! holds the fragment's locks in sequence order.
//!
//! [`execute_batch`] is the one execution loop. A simple cst's fragment
//! runs through it right after local consensus, a complex cst's in
//! rotation two, and a single-shard batch when [`ExecStage`] executes it.
//!
//! The stage runs each admitted single-shard batch *in place* on the live
//! store, at submission. Only a host that installs a [`ThreadedPipeline`]
//! gets the snapshot job instead: the stage copies the records the batch
//! touches, a worker executes on a private store seeded with them, and the
//! ordered writes replay onto the live store when the outcome's turn
//! comes. The sequence-ordered `LockManager` admits a conflicting sequence
//! only after this one releases, so the copy stays exact while the job is
//! in flight. Outcomes apply strictly in submission order: conflicting
//! sequences (never in flight together) keep their order, disjoint ones
//! overlap. Both forms hand back an [`ExecOutcome`].

use crate::pipeline::{PipelineJob, PoolStats, ThreadedPipeline};
use ringbft_crypto::Digest;
use ringbft_ledger::BlockBody;
use ringbft_store::{KvStore, Record};
use ringbft_types::txn::{Batch, Key, Value};
use ringbft_types::{Instant, ReplicaId, SeqNum, ShardId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Executes `shard`'s fragment of every transaction of `batch` on `kv`,
/// in order, and returns the ordered writes. `resolved` holds the values
/// of remote reads (`deps ∪ Σ`); a missing one reads as 0.
pub(crate) fn execute_batch(
    kv: &mut KvStore,
    batch: &Batch,
    shard: ShardId,
    resolved: &HashMap<Key, Value>,
) -> Vec<(Key, Value)> {
    let mut writes = Vec::new();
    for txn in &batch.txns {
        let remote: Vec<(Key, Value)> = txn
            .remote_reads
            .iter()
            .filter(|rr| rr.reader == shard)
            .map(|rr| (rr.key, resolved.get(&rr.key).copied().unwrap_or_default()))
            .collect();
        writes.extend(kv.execute_fragment(txn, shard, &remote).writes);
    }
    writes
}

/// An admitted single-shard batch with what its application needs: the
/// committed digest, the proposer for the ledger block, and the
/// submission time that starts the execute→reply clock.
pub struct ExecJob {
    pub(crate) seq: u64,
    pub(crate) batch: Arc<Batch>,
    /// The digest PBFT committed for `batch`.
    pub(crate) digest: Digest,
    shard: ShardId,
    /// Touched records present in the store, copied at submission to a
    /// threaded stage. Missing keys stay absent in the private store,
    /// exactly as the live store shows them.
    base: Vec<(Key, Record)>,
    /// Primary index at submission: the ledger block records the
    /// proposer of the view the batch committed in.
    proposer: u32,
    pub(crate) submitted: Instant,
}

/// A finished [`ExecJob`] and its ordered write effects.
pub struct ExecOutcome {
    pub(crate) job: ExecJob,
    pub(crate) writes: Vec<(Key, Value)>,
}

impl ExecJob {
    pub(crate) fn new(
        seq: u64,
        batch: Arc<Batch>,
        digest: Digest,
        shard: ShardId,
        proposer: u32,
        submitted: Instant,
    ) -> ExecJob {
        ExecJob {
            seq,
            batch,
            digest,
            shard,
            base: Vec::new(),
            proposer,
            submitted,
        }
    }

    /// The ledger block of the executed batch.
    pub(crate) fn block(&self) -> BlockBody {
        BlockBody {
            seq: SeqNum(self.seq),
            merkle_root: self.digest,
            proposer: ReplicaId::new(self.shard, self.proposer),
            txn_count: self.batch.len() as u32,
            involved: vec![self.shard],
        }
    }

    /// Copies the records of `kv` this batch touches into the job.
    fn snapshot(&mut self, kv: &KvStore) {
        let ops = self.batch.txns.iter().flat_map(|t| t.ops.iter());
        let keys: BTreeSet<Key> = ops
            .filter(|o| o.shard == self.shard)
            .map(|o| o.key)
            .collect();
        self.base = keys
            .into_iter()
            .filter_map(|k| Some((k, kv.get(k)?)))
            .collect();
    }

    fn execute_on(self, kv: &mut KvStore) -> ExecOutcome {
        let writes = execute_batch(kv, &self.batch, self.shard, &HashMap::new());
        ExecOutcome { job: self, writes }
    }
}

impl PipelineJob for ExecJob {
    type Output = ExecOutcome;
    /// Executes on a private store seeded with the snapshot: reads
    /// (including the read half of RMW ops) see what the live store
    /// holds, and `put` bumps versions the same way when the writes
    /// replay there.
    fn run(mut self) -> ExecOutcome {
        let mut kv = KvStore::new();
        for (k, r) in std::mem::take(&mut self.base) {
            kv.insert_record(k, r);
        }
        self.execute_on(&mut kv)
    }
}

/// The execution stage for single-shard batches: in place by default,
/// on a host-installed [`ThreadedPipeline`] otherwise.
#[derive(Default)]
pub(crate) struct ExecStage {
    threads: Option<ThreadedPipeline<ExecJob>>,
    /// Sequences submitted to `threads` and not yet applied, in order.
    inflight: VecDeque<u64>,
    /// Finished outcomes waiting for their turn at the queue front.
    ready: BTreeMap<u64, ExecOutcome>,
}

impl ExecStage {
    /// Moves execution onto `threads`. Hosts call this before traffic.
    pub(crate) fn install(&mut self, threads: ThreadedPipeline<ExecJob>) {
        assert!(
            self.inflight.is_empty(),
            "stage swapped with work in flight"
        );
        self.threads = Some(threads);
    }

    /// Worker count (0 = in place) and busy/idle accounting.
    pub(crate) fn pool(&self) -> (usize, PoolStats) {
        let pool = |t: &ThreadedPipeline<ExecJob>| (t.workers(), t.stats());
        self.threads
            .as_ref()
            .map_or((0, PoolStats::default()), pool)
    }

    /// No submitted job awaits application.
    pub(crate) fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Submits `job` against the live store `kv`. In place, returns the
    /// outcome with its writes already on `kv`. On threads, returns
    /// `None`; the outcome comes from [`ExecStage::next`].
    pub(crate) fn submit(&mut self, mut job: ExecJob, kv: &mut KvStore) -> Option<ExecOutcome> {
        let Some(threads) = self.threads.as_mut() else {
            return Some(job.execute_on(kv));
        };
        job.snapshot(kv);
        self.inflight.push_back(job.seq);
        threads.submit(job);
        None
    }

    /// The next outcome in submission order, its writes replayed onto
    /// `kv`, or `None` while it is unfinished. `wait` blocks for it.
    pub(crate) fn next(&mut self, kv: &mut KvStore, wait: bool) -> Option<ExecOutcome> {
        let (&seq, threads) = (self.inflight.front()?, self.threads.as_mut()?);
        let done = if wait && !self.ready.contains_key(&seq) {
            threads.flush()
        } else {
            threads.drain()
        };
        for o in done {
            self.ready.insert(o.job.seq, o);
        }
        let outcome = self.ready.remove(&seq)?;
        self.inflight.pop_front();
        for (k, v) in &outcome.writes {
            kv.put(*k, *v);
        }
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::txn::{Operation, OperationKind, Transaction};
    use ringbft_types::{BatchId, ClientId, TxnId};

    fn xorshift(s: &mut u64) -> u64 {
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x
    }

    /// A store holding about half of keys 0..16, with random values and
    /// versions.
    fn random_store(s: &mut u64) -> KvStore {
        let mut kv = KvStore::new();
        for key in 0..16 {
            if xorshift(s).is_multiple_of(2) {
                let (value, version) = (xorshift(s), xorshift(s) % 5);
                kv.insert_record(key, Record { value, version });
            }
        }
        kv
    }

    /// A single-shard batch of 1–5 transactions over keys 0..20: keys
    /// missing from the store, keys repeated within the batch, and every
    /// operation kind.
    fn random_batch(s: &mut u64) -> Arc<Batch> {
        let kinds = [
            OperationKind::Read,
            OperationKind::Write,
            OperationKind::ReadModifyWrite,
        ];
        let txns = (0..1 + xorshift(s) % 5)
            .map(|i| {
                let ops = (0..1 + xorshift(s) % 4)
                    .map(|_| Operation {
                        shard: ShardId(0),
                        key: xorshift(s) % 20,
                        kind: kinds[(xorshift(s) % 3) as usize],
                    })
                    .collect();
                Transaction::new(TxnId(i + 1), ClientId(i), ops)
            })
            .collect();
        Arc::new(Batch::new(BatchId(1), txns))
    }

    fn records(kv: &KvStore) -> BTreeMap<Key, Record> {
        kv.iter().collect()
    }

    /// The in-place form is the reference: the threaded form (snapshot,
    /// private store, replay) leaves identical records, versions
    /// included, and reports the identical ordered write list.
    #[test]
    fn threaded_snapshot_execution_matches_in_place() {
        let mut threaded = ExecStage::default();
        threaded.install(ThreadedPipeline::new("exec-diff", 1));
        let mut s = 0x9E37_79B9_7F4A_7C15;
        for seq in 1..=300 {
            let kv = random_store(&mut s);
            let batch = random_batch(&mut s);
            let job = || {
                ExecJob::new(
                    seq,
                    Arc::clone(&batch),
                    [0; 32],
                    ShardId(0),
                    0,
                    Instant::ZERO,
                )
            };

            let mut in_place = kv.clone();
            let a = ExecStage::default()
                .submit(job(), &mut in_place)
                .expect("in place");
            let mut replayed = kv.clone();
            assert!(threaded.submit(job(), &mut replayed).is_none());
            assert!(!threaded.is_idle());
            let b = threaded.next(&mut replayed, true).expect("flushed");

            assert_eq!(a.writes, b.writes, "seq {seq}: write lists differ");
            assert_eq!(records(&in_place), records(&replayed), "seq {seq}");
            assert!(threaded.is_idle());
        }
    }

    /// Outcomes apply in submission order, whatever order workers finish.
    #[test]
    fn threaded_outcomes_apply_in_submission_order() {
        let mut stage = ExecStage::default();
        stage.install(ThreadedPipeline::new("exec-order", 2));
        let mut kv = KvStore::init_partition(0..64);
        let mut s = 7;
        for seq in 1..=32 {
            let batch = random_batch(&mut s);
            stage.submit(
                ExecJob::new(seq, batch, [0; 32], ShardId(0), 0, Instant::ZERO),
                &mut kv,
            );
        }
        let applied: Vec<u64> = std::iter::from_fn(|| stage.next(&mut kv, true))
            .map(|o| o.job.seq)
            .collect();
        assert_eq!(applied, (1..=32).collect::<Vec<_>>());
        assert_eq!(stage.pool().0, 2);
    }
}
