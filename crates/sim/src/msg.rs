//! The unified simulator message: every protocol's messages plus the wire
//! sizes (§8's reported message sizes, via `ringbft_types::wire`) and the
//! per-message CPU cost model.
//!
//! CPU costs approximate ResilientDB's verification work on the paper's
//! 16-core N1 machines: MAC checks are cheap (~2 µs), digital-signature
//! checks an order of magnitude more, batch hashing scales with batch
//! size. Absolute throughput depends on these constants; the cross-
//! protocol *shape* does not (all protocols share the model).

use ringbft_baselines::ShardedMsg;
use ringbft_core::RingMsg;
use ringbft_pbft::PbftMsg;
use ringbft_protocols::SsMsg;
use ringbft_recovery::RecoveryMsg;
use ringbft_simnet::SimMessage;
use ringbft_types::{wire, Duration, TraceContext, Traced};
use serde::{Deserialize, Serialize};

/// CPU time charged per delivered message for verifying the frame's
/// HMAC authenticator (§3 authenticated channels; the TCP runtime
/// rejects frames whose MAC fails, and the simulator charges the same
/// hash cost so both drivers model identical per-message overhead).
const FRAME_MAC_VERIFY: Duration = Duration::from_micros(2);

/// All messages flowing through a simulation (and, framed by
/// `ringbft-net`'s codec, over real sockets).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnyMsg {
    /// RingBFT traffic.
    Ring(RingMsg),
    /// AHL / SharPer traffic.
    Sharded(ShardedMsg),
    /// Figure 1 single-shard baseline traffic.
    Ss(SsMsg),
}

fn pbft_bytes(m: &PbftMsg) -> u64 {
    match m {
        PbftMsg::Preprepare { batch, .. } => wire::preprepare_bytes(batch.len()),
        PbftMsg::Prepare { .. } => wire::prepare_bytes(),
        PbftMsg::Commit { .. } => wire::commit_bytes(),
        PbftMsg::Checkpoint { .. } => wire::checkpoint_bytes(),
        PbftMsg::ViewChange { prepared, .. } => wire::view_change_bytes(prepared.len()),
        PbftMsg::NewView { preprepares, .. } => {
            // Re-proposals carry payloads.
            wire::new_view_bytes(preprepares.len())
                + preprepares
                    .iter()
                    .map(|p| {
                        p.batch
                            .as_ref()
                            .map_or(0, |b| wire::preprepare_bytes(b.len()))
                    })
                    .sum::<u64>()
        }
    }
}

fn pbft_cpu(m: &PbftMsg) -> Duration {
    match m {
        PbftMsg::Preprepare { batch, .. } => Duration::from_micros(10 + batch.len() as u64),
        PbftMsg::Prepare { .. } => Duration::from_micros(2),
        // Commits are signed in RingBFT (certificates cross shards).
        PbftMsg::Commit { .. } => Duration::from_micros(5),
        PbftMsg::Checkpoint { .. } => Duration::from_micros(3),
        PbftMsg::ViewChange { .. } => Duration::from_micros(50),
        PbftMsg::NewView { .. } => Duration::from_micros(80),
    }
}

impl SimMessage for AnyMsg {
    fn wire_bytes(&self) -> u64 {
        match self {
            AnyMsg::Ring(m) => match m {
                RingMsg::Request { txn, .. } => wire::client_request_bytes(txn.ops.len()),
                RingMsg::Pbft(p) => pbft_bytes(p),
                RingMsg::Forward(f) | RingMsg::ForwardShare(f) => {
                    wire::forward_bytes(f.batch.len(), f.cert_signers.len())
                        + f.deps.len() as u64 * wire::PER_WRITE_BYTES
                }
                RingMsg::Execute(e) | RingMsg::ExecuteShare(e) => {
                    132 + e.sigma.len() as u64 * wire::PER_WRITE_BYTES
                }
                RingMsg::RemoteView { .. } | RingMsg::RemoteViewShare { .. } => {
                    wire::remote_view_bytes()
                }
                RingMsg::Recovery(m) => match m {
                    RecoveryMsg::StateRequest { .. } => wire::state_request_bytes(),
                    RecoveryMsg::StatePlan { links, .. } => wire::state_plan_bytes(links.len()),
                    RecoveryMsg::StateChunk { records, .. } => {
                        wire::state_chunk_bytes(records.len())
                    }
                    RecoveryMsg::HoleRequest(_) => wire::hole_request_bytes(),
                    RecoveryMsg::HoleReply(r) => {
                        wire::hole_reply_bytes(r.batch.len(), r.cert.signers.len())
                    }
                },
                RingMsg::Reply { .. } => wire::client_response_bytes(),
            },
            AnyMsg::Sharded(m) => match m {
                ShardedMsg::Request { txn, .. } => wire::client_request_bytes(txn.ops.len()),
                ShardedMsg::Pbft(p) => pbft_bytes(p),
                ShardedMsg::PrepareReq { batch, .. } => wire::preprepare_bytes(batch.len()),
                ShardedMsg::Vote2pc { .. } => wire::commit_bytes(),
                ShardedMsg::Decision { .. } => wire::commit_bytes(),
                ShardedMsg::XPreprepare { batch, .. } => wire::preprepare_bytes(batch.len()),
                ShardedMsg::XPrepare { .. } => wire::prepare_bytes(),
                ShardedMsg::XCommit { .. } => wire::commit_bytes(),
                ShardedMsg::Reply { .. } => wire::client_response_bytes(),
            },
            AnyMsg::Ss(m) => match m {
                SsMsg::Request { txn, .. } => wire::client_request_bytes(txn.ops.len()),
                SsMsg::Pbft(p) | SsMsg::Rcc { msg: p, .. } => pbft_bytes(p),
                SsMsg::OrderReq { batch, .. } => wire::preprepare_bytes(batch.len()),
                SsMsg::Propose { batch, .. } => batch
                    .as_ref()
                    .map_or(wire::prepare_bytes(), |b| wire::preprepare_bytes(b.len())),
                SsMsg::Vote { .. } => wire::prepare_bytes(),
                SsMsg::Cert { .. } => wire::commit_bytes(),
                SsMsg::Support { .. } => wire::prepare_bytes(),
                SsMsg::Reply { .. } => wire::client_response_bytes(),
            },
        }
    }

    fn cpu_cost(&self) -> Duration {
        let protocol_cost = match self {
            AnyMsg::Ring(m) => match m {
                RingMsg::Request { .. } => Duration::from_micros(15), // client DS
                RingMsg::Pbft(p) => pbft_cpu(p),
                // Forward: validate nf commit attestations.
                RingMsg::Forward(f) | RingMsg::ForwardShare(f) => {
                    Duration::from_micros(15 + 2 * f.cert_signers.len() as u64)
                }
                RingMsg::Execute(_) | RingMsg::ExecuteShare(_) => Duration::from_micros(10),
                RingMsg::RemoteView { .. } | RingMsg::RemoteViewShare { .. } => {
                    Duration::from_micros(15)
                }
                // Installing/serving state scales with the records moved
                // (hashing for the digest check dominates).
                RingMsg::Recovery(m) => match m {
                    RecoveryMsg::StateRequest { .. } => Duration::from_micros(3),
                    // Plan validation scales with the chain length.
                    RecoveryMsg::StatePlan { links, .. } => {
                        Duration::from_micros(5 + links.len() as u64)
                    }
                    RecoveryMsg::StateChunk { records, .. } => {
                        Duration::from_micros(5 + records.len() as u64 / 8)
                    }
                    RecoveryMsg::HoleRequest(_) => Duration::from_micros(3),
                    // Validate nf commit attestations plus hash the batch.
                    RecoveryMsg::HoleReply(r) => Duration::from_micros(
                        10 + r.batch.len() as u64 + 2 * r.cert.signers.len() as u64,
                    ),
                },
                RingMsg::Reply { .. } => Duration::from_micros(2),
            },
            AnyMsg::Sharded(m) => match m {
                ShardedMsg::Request { .. } => Duration::from_micros(15),
                ShardedMsg::Pbft(p) => pbft_cpu(p),
                ShardedMsg::PrepareReq { batch, .. } => {
                    Duration::from_micros(15 + batch.len() as u64)
                }
                ShardedMsg::Vote2pc { .. } | ShardedMsg::Decision { .. } => {
                    Duration::from_micros(15) // DS across clusters
                }
                ShardedMsg::XPreprepare { batch, .. } => {
                    Duration::from_micros(15 + batch.len() as u64)
                }
                // Cross-shard votes are signed.
                ShardedMsg::XPrepare { .. } | ShardedMsg::XCommit { .. } => {
                    Duration::from_micros(15)
                }
                ShardedMsg::Reply { .. } => Duration::from_micros(2),
            },
            AnyMsg::Ss(m) => match m {
                SsMsg::Request { .. } => Duration::from_micros(15),
                SsMsg::Pbft(p) | SsMsg::Rcc { msg: p, .. } => pbft_cpu(p),
                SsMsg::OrderReq { batch, .. } => Duration::from_micros(10 + batch.len() as u64),
                SsMsg::Propose { batch, .. } => {
                    Duration::from_micros(10 + batch.as_ref().map_or(0, |b| b.len() as u64))
                }
                SsMsg::Vote { .. } | SsMsg::Support { .. } => Duration::from_micros(3),
                SsMsg::Cert { .. } => Duration::from_micros(5),
                SsMsg::Reply { .. } => Duration::from_micros(2),
            },
        };
        protocol_cost + FRAME_MAC_VERIFY
    }
}

impl Traced for AnyMsg {
    fn trace_context(&self) -> Option<TraceContext> {
        // Only RingBFT traffic is causally traced; the baselines run
        // without instrumentation (their numbers are comparison-only).
        match self {
            AnyMsg::Ring(m) => m.trace_context(),
            AnyMsg::Sharded(_) | AnyMsg::Ss(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::txn::{Batch, Operation, OperationKind, Transaction};
    use ringbft_types::{BatchId, ClientId, SeqNum, ShardId, TxnId, ViewNum};
    use std::sync::Arc;

    fn batch(n: usize) -> Arc<Batch> {
        let txns = (0..n as u64)
            .map(|i| {
                Transaction::new(
                    TxnId(i),
                    ClientId(i),
                    vec![Operation {
                        shard: ShardId(0),
                        key: i,
                        kind: OperationKind::ReadModifyWrite,
                    }],
                )
            })
            .collect();
        Arc::new(Batch::new_unchecked(BatchId(0), txns))
    }

    #[test]
    fn standard_settings_match_paper_sizes() {
        let b = batch(100);
        let pp = AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Preprepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: [0; 32],
            batch: Arc::clone(&b),
        }));
        assert_eq!(pp.wire_bytes(), 5408);
        let fwd = AnyMsg::Ring(RingMsg::Forward(ringbft_core::ForwardMsg {
            batch: b,
            digest: [0; 32],
            from_shard: ShardId(0),
            cert_signers: (0..19).collect(),
            deps: vec![],
            hop: 0,
        }));
        assert_eq!(fwd.wire_bytes(), 6147);
        let prep = AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Prepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: [0; 32],
        }));
        assert_eq!(prep.wire_bytes(), 216);
    }

    #[test]
    fn cpu_scales_with_batch() {
        let small = AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Preprepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: [0; 32],
            batch: batch(10),
        }));
        let big = AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Preprepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: [0; 32],
            batch: batch(1000),
        }));
        assert!(big.cpu_cost() > small.cpu_cost());
    }
}
