//! RingBFT's message vocabulary (§4.3, Fig 5, Fig 6).
//!
//! Intra-shard consensus messages are the embedded [`PbftMsg`]s; the
//! cross-shard messages are `Forward` (rotation one), `Execute` (rotation
//! two) and `RemoteView` (the cross-shard recovery of §5.1.2). Messages
//! arriving from the previous shard over the linear primitive are
//! re-broadcast inside the receiving shard ("local sharing", Fig 5 lines
//! 29–30) as the corresponding `*Share` variants.

use ringbft_crypto::Digest;
use ringbft_pbft::PbftMsg;
use ringbft_recovery::RecoveryMsg;
use ringbft_types::txn::{Batch, Key, Transaction, Value};
use ringbft_types::{ClientId, ShardId, TraceContext, TxnId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The Forward message of Fig 5 line 19: carries the client batch, its
/// digest `Δ`, the commit certificate `A` (modeled as the signer indices
/// of the `nf` Commit signatures), and — for complex csts — the read
/// values accumulated along the ring (§8.8: "each shard sends its
/// read-write sets along with the Forward message").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardMsg {
    /// The cross-shard batch being forwarded.
    pub batch: Arc<Batch>,
    /// Batch digest `Δ`.
    pub digest: Digest,
    /// The shard whose replicas sent this Forward.
    pub from_shard: ShardId,
    /// Indices of the `nf` replicas whose signed Commits form the
    /// certificate `A` (Fig 5 line 16).
    pub cert_signers: Vec<u32>,
    /// Accumulated `(key, value)` reads resolving remote-read
    /// dependencies of complex csts.
    pub deps: Vec<(Key, Value)>,
    /// Ring-hop counter for causal tracing: 0 at the initiator shard,
    /// incremented by each shard that re-forwards the batch along the
    /// ring.
    pub hop: u32,
}

/// The Execute message of Fig 5 line 37: second-rotation message carrying
/// the updated write sets `Σℑ`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecuteMsg {
    /// Batch digest `Δ`.
    pub digest: Digest,
    /// The shard whose replicas sent this Execute.
    pub from_shard: ShardId,
    /// Accumulated `Σ`: resolved dependency reads plus updated writes.
    pub sigma: Vec<(Key, Value)>,
}

/// All messages a RingBFT replica sends or receives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RingMsg {
    /// A client's signed transaction request (§4.3.1), possibly relayed
    /// by a non-primary replica or a wrong-shard primary (Fig 5 line 9).
    Request {
        /// The transaction.
        txn: Arc<Transaction>,
        /// True when relayed by a replica rather than sent by the client
        /// (relays must not be re-relayed endlessly).
        relayed: bool,
    },
    /// Embedded intra-shard PBFT message.
    Pbft(PbftMsg),
    /// Cross-shard Forward over the linear communication primitive
    /// (same-index replica to same-index replica).
    Forward(ForwardMsg),
    /// Local re-broadcast of a received Forward (Fig 5 lines 29–30).
    ForwardShare(ForwardMsg),
    /// Cross-shard Execute (rotation two).
    Execute(ExecuteMsg),
    /// Local re-broadcast of a received Execute.
    ExecuteShare(ExecuteMsg),
    /// Cross-shard view-change complaint (Fig 6): sent by a replica of
    /// the *next* shard to its same-index counterpart in the previous
    /// shard after a remote-timer expiry.
    RemoteView {
        /// Digest of the starving transaction.
        digest: Digest,
        /// The complaining shard.
        from_shard: ShardId,
    },
    /// Local re-broadcast of a received RemoteView complaint.
    RemoteViewShare {
        /// Digest of the starving transaction.
        digest: Digest,
        /// The complaining shard.
        from_shard: ShardId,
        /// Index of the complaining replica in the next shard.
        origin: u32,
    },
    /// Checkpoint state transfer between replicas of one shard (§5, A3):
    /// a lagging or freshly restarted replica fetches the snapshot
    /// behind a quorum-stable checkpoint digest (`ringbft-recovery`).
    Recovery(RecoveryMsg),
    /// Response to the client: `Response(⟨Tℑ⟩c, k, r)` (client collects
    /// `f + 1` matching responses).
    Reply {
        /// The client being answered.
        client: ClientId,
        /// Digest of the executed batch.
        digest: Digest,
        /// Transactions executed (ids the client can match).
        txn_ids: Vec<TxnId>,
    },
}

/// First trace context carried by a batch's transactions, if any txn was
/// sampled by its client.
pub fn batch_trace(batch: &Batch) -> Option<TraceContext> {
    batch.txns.iter().find_map(|t| t.trace)
}

impl RingMsg {
    /// The causal trace context this message transports, if it carries a
    /// sampled transaction: the txn's own context for requests and
    /// pre-prepares, and the batch context advanced to the Forward's
    /// ring-hop counter for cross-shard rotation messages. The TCP
    /// runtime stamps this into the codec-v5 frame envelope.
    pub fn trace_context(&self) -> Option<TraceContext> {
        match self {
            RingMsg::Request { txn, .. } => txn.trace,
            RingMsg::Pbft(PbftMsg::Preprepare { batch, .. }) => batch_trace(batch),
            RingMsg::Forward(f) | RingMsg::ForwardShare(f) => {
                batch_trace(&f.batch).map(|t| TraceContext {
                    trace_id: t.trace_id,
                    hop: f.hop,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::txn::{Operation, OperationKind};
    use ringbft_types::BatchId;

    #[test]
    fn trace_context_carries_the_forward_hop() {
        let ctx = TraceContext {
            trace_id: 7,
            hop: 0,
        };
        let mut txn = Transaction::new(
            TxnId(1),
            ClientId(1),
            vec![Operation {
                shard: ShardId(0),
                key: 1,
                kind: OperationKind::Write,
            }],
        );
        txn.trace = Some(ctx);
        let batch = Arc::new(Batch::new(BatchId(1), vec![txn.clone()]));
        let fwd = ForwardMsg {
            batch,
            digest: [0; 32],
            from_shard: ShardId(0),
            cert_signers: vec![0, 1, 2],
            deps: vec![],
            hop: 2,
        };
        let request = RingMsg::Request {
            txn: Arc::new(txn),
            relayed: false,
        };
        assert_eq!(request.trace_context(), Some(ctx));
        let hop2 = Some(TraceContext { hop: 2, ..ctx });
        assert_eq!(RingMsg::Forward(fwd.clone()).trace_context(), hop2);
        assert_eq!(RingMsg::ForwardShare(fwd).trace_context(), hop2);
        let complaint = RingMsg::RemoteView {
            digest: [0; 32],
            from_shard: ShardId(1),
        };
        assert_eq!(complaint.trace_context(), None);
    }
}
