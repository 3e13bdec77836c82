//! Property test: arbitrary `AnyMsg` values survive a full
//! encode → frame → decode round trip bit-identically.
//!
//! Generators build messages bottom-up (transactions → batches →
//! protocol messages) over all three protocol families, covering every
//! enum variant the codec must carry, including nested `PbftMsg`s with
//! optional re-proposal payloads.

use proptest::prelude::*;
use proptest::TestRng;
use ringbft_baselines::ShardedMsg;
use ringbft_core::{ExecuteMsg, ForwardMsg, RingMsg};
use ringbft_net::codec::{
    decode_raw_frame, encode_body, encode_frame, frame_prefix, CodecError, Envelope, Frame,
    FrameAssembler, FrameAuth, ADDR_BYTES, HEADER_BYTES,
};
use ringbft_pbft::{PbftMsg, PreparedProof};
use ringbft_protocols::SsMsg;
use ringbft_recovery::{PlanLink, RecordEntry, RecoveryMsg};
use ringbft_sim::AnyMsg;
use ringbft_types::hole::{CommitCertificate, HoleReply, HoleRequest};
use ringbft_types::txn::{Batch, Operation, OperationKind, RemoteRead, Transaction};
use ringbft_types::{
    BatchId, ClientId, NodeId, ReplicaId, SeqNum, ShardId, TraceContext, TxnId, ViewNum,
};
use std::sync::Arc;

/// Decodes the first frame in `bytes` the way the reactor does: header
/// validation on extraction, then the deferred MAC check and decode.
/// `Ok(None)` when the bytes hold no complete frame.
fn decode(
    bytes: &[u8],
    auth: &FrameAuth,
    local: NodeId,
) -> Result<Option<Frame<AnyMsg>>, CodecError> {
    let mut asm = FrameAssembler::new();
    asm.extend(bytes);
    match asm.next_raw_frame()? {
        Some(raw) => decode_raw_frame(&raw, auth, local).map(Some),
        None => Ok(None),
    }
}

/// The data envelope of a complete, authentic frame.
fn decode_data(bytes: &[u8], auth: &FrameAuth, local: NodeId) -> Envelope<AnyMsg> {
    match decode(bytes, auth, local).expect("decode") {
        Some(Frame::Data(env)) => env,
        other => panic!("expected a data frame, got {other:?}"),
    }
}

fn arb_u64(rng: &mut TestRng, bound: u64) -> u64 {
    Strategy::generate(&(0..bound), rng)
}

/// Codec v5: about half the generated envelopes carry a trace context,
/// with hop counts stressed up to the saturation point (`u32::MAX`).
fn arb_trace(rng: &mut TestRng) -> Option<TraceContext> {
    match arb_u64(rng, 4) {
        0 => None,
        1 => Some(TraceContext {
            trace_id: 1 + arb_u64(rng, u64::MAX - 1),
            hop: u32::MAX,
        }),
        _ => Some(TraceContext {
            trace_id: ringbft_types::trace::trace_id_for(arb_u64(rng, 1 << 40)),
            hop: arb_u64(rng, 9) as u32,
        }),
    }
}

fn arb_operation(rng: &mut TestRng) -> Operation {
    Operation {
        shard: ShardId(arb_u64(rng, 4) as u32),
        key: arb_u64(rng, 1_000),
        kind: match arb_u64(rng, 3) {
            0 => OperationKind::Read,
            1 => OperationKind::Write,
            _ => OperationKind::ReadModifyWrite,
        },
    }
}

fn arb_txn(rng: &mut TestRng) -> Transaction {
    let ops = (0..1 + arb_u64(rng, 4))
        .map(|_| arb_operation(rng))
        .collect();
    let t = Transaction::new(
        TxnId(arb_u64(rng, u64::MAX - 1)),
        ClientId(arb_u64(rng, 1 << 40)),
        ops,
    );
    let remote_reads = (0..arb_u64(rng, 3))
        .map(|_| RemoteRead {
            reader: ShardId(arb_u64(rng, 4) as u32),
            owner: ShardId(arb_u64(rng, 4) as u32),
            key: arb_u64(rng, 1_000),
        })
        .collect();
    let mut t = t.with_remote_reads(remote_reads);
    t.trace = arb_trace(rng);
    t
}

fn arb_batch(rng: &mut TestRng) -> Arc<Batch> {
    let txns = (0..1 + arb_u64(rng, 5)).map(|_| arb_txn(rng)).collect();
    Arc::new(Batch::new_unchecked(BatchId(arb_u64(rng, 1 << 32)), txns))
}

fn arb_digest(rng: &mut TestRng) -> [u8; 32] {
    Strategy::generate(&any::<[u8; 32]>(), rng)
}

fn arb_pbft(rng: &mut TestRng) -> PbftMsg {
    let view = ViewNum(arb_u64(rng, 16));
    let seq = SeqNum(arb_u64(rng, 1 << 20));
    let digest = arb_digest(rng);
    match arb_u64(rng, 6) {
        0 => PbftMsg::Preprepare {
            view,
            seq,
            digest,
            batch: arb_batch(rng),
        },
        1 => PbftMsg::Prepare { view, seq, digest },
        2 => PbftMsg::Commit { view, seq, digest },
        3 => PbftMsg::Checkpoint {
            seq,
            state_digest: digest,
        },
        4 => PbftMsg::ViewChange {
            new_view: view,
            last_stable: seq,
            prepared: (0..arb_u64(rng, 3))
                .map(|_| PreparedProof {
                    view,
                    seq,
                    digest,
                    batch: if arb_u64(rng, 2) == 0 {
                        None
                    } else {
                        Some(arb_batch(rng))
                    },
                })
                .collect(),
        },
        _ => PbftMsg::NewView {
            view,
            preprepares: (0..arb_u64(rng, 3))
                .map(|_| PreparedProof {
                    view,
                    seq,
                    digest,
                    batch: Some(arb_batch(rng)),
                })
                .collect(),
        },
    }
}

fn arb_ring(rng: &mut TestRng) -> RingMsg {
    let digest = arb_digest(rng);
    let from_shard = ShardId(arb_u64(rng, 4) as u32);
    let forward = |rng: &mut TestRng| ForwardMsg {
        batch: arb_batch(rng),
        digest,
        from_shard,
        cert_signers: (0..arb_u64(rng, 8) as u32).collect(),
        deps: (0..arb_u64(rng, 4))
            .map(|_| (arb_u64(rng, 1_000), arb_u64(rng, 1 << 30)))
            .collect(),
        hop: arb_u64(rng, 5) as u32,
    };
    match arb_u64(rng, 10) {
        0 => RingMsg::Request {
            txn: Arc::new(arb_txn(rng)),
            relayed: arb_u64(rng, 2) == 1,
        },
        1 => RingMsg::Pbft(arb_pbft(rng)),
        2 => RingMsg::Forward(forward(rng)),
        3 => RingMsg::ForwardShare(forward(rng)),
        4 => RingMsg::Execute(ExecuteMsg {
            digest,
            from_shard,
            sigma: (0..arb_u64(rng, 5))
                .map(|_| (arb_u64(rng, 1_000), arb_u64(rng, 1 << 30)))
                .collect(),
        }),
        5 => RingMsg::ExecuteShare(ExecuteMsg {
            digest,
            from_shard,
            sigma: vec![],
        }),
        6 => RingMsg::RemoteView { digest, from_shard },
        7 => RingMsg::RemoteViewShare {
            digest,
            from_shard,
            origin: arb_u64(rng, 8) as u32,
        },
        8 => RingMsg::Recovery(arb_recovery(rng)),
        _ => RingMsg::Reply {
            client: ClientId(arb_u64(rng, 1 << 40)),
            digest,
            txn_ids: (0..arb_u64(rng, 6)).map(TxnId).collect(),
        },
    }
}

fn arb_records(rng: &mut TestRng) -> Vec<RecordEntry> {
    (0..arb_u64(rng, 50))
        .map(|_| RecordEntry {
            key: arb_u64(rng, 1 << 40),
            value: arb_u64(rng, u64::MAX - 1),
            version: arb_u64(rng, 1 << 20),
        })
        .collect()
}

fn arb_plan_link(rng: &mut TestRng) -> PlanLink {
    PlanLink {
        seq: arb_u64(rng, 1 << 30),
        digest: arb_digest(rng),
        base: if arb_u64(rng, 2) == 0 {
            None
        } else {
            Some((arb_u64(rng, 1 << 30), arb_digest(rng)))
        },
        chunks: arb_u64(rng, 64) as u32,
    }
}

fn arb_recovery(rng: &mut TestRng) -> RecoveryMsg {
    let digest = arb_digest(rng);
    match arb_u64(rng, 5) {
        0 => RecoveryMsg::StateRequest {
            from_seq: arb_u64(rng, 1 << 30),
            base: if arb_u64(rng, 2) == 0 {
                None
            } else {
                Some((arb_u64(rng, 1 << 30), arb_digest(rng)))
            },
        },
        3 => RecoveryMsg::HoleRequest(HoleRequest {
            seq: SeqNum(arb_u64(rng, 1 << 30)),
        }),
        4 => RecoveryMsg::HoleReply(HoleReply {
            cert: CommitCertificate {
                view: ViewNum(arb_u64(rng, 16)),
                seq: SeqNum(arb_u64(rng, 1 << 30)),
                digest,
                signers: (0..arb_u64(rng, 8) as u32).collect(),
            },
            batch: arb_batch(rng),
        }),
        1 => RecoveryMsg::StateChunk {
            target_seq: arb_u64(rng, 1 << 30),
            target_digest: digest,
            link_seq: arb_u64(rng, 1 << 30),
            delta: arb_u64(rng, 2) == 0,
            chunk: arb_u64(rng, 64) as u32,
            records: arb_records(rng),
        },
        _ => RecoveryMsg::StatePlan {
            target_seq: arb_u64(rng, 1 << 30),
            target_digest: digest,
            links: (0..arb_u64(rng, 6)).map(|_| arb_plan_link(rng)).collect(),
            ledger_height: arb_u64(rng, 1 << 30),
            ledger_head: arb_digest(rng),
        },
    }
}

fn arb_sharded(rng: &mut TestRng) -> ShardedMsg {
    let digest = arb_digest(rng);
    match arb_u64(rng, 9) {
        0 => ShardedMsg::Request {
            txn: Arc::new(arb_txn(rng)),
            relayed: arb_u64(rng, 2) == 1,
        },
        1 => ShardedMsg::Pbft(arb_pbft(rng)),
        2 => ShardedMsg::PrepareReq {
            digest,
            batch: arb_batch(rng),
        },
        3 => ShardedMsg::Vote2pc {
            digest,
            shard: ShardId(arb_u64(rng, 4) as u32),
            commit: arb_u64(rng, 2) == 1,
        },
        4 => ShardedMsg::Decision {
            digest,
            commit: arb_u64(rng, 2) == 1,
        },
        5 => ShardedMsg::XPreprepare {
            gseq: arb_u64(rng, 1 << 16),
            digest,
            batch: arb_batch(rng),
        },
        6 => ShardedMsg::XPrepare {
            gseq: arb_u64(rng, 1 << 16),
            digest,
            shard: ShardId(arb_u64(rng, 4) as u32),
        },
        7 => ShardedMsg::XCommit {
            gseq: arb_u64(rng, 1 << 16),
            digest,
            shard: ShardId(arb_u64(rng, 4) as u32),
        },
        _ => ShardedMsg::Reply {
            client: ClientId(arb_u64(rng, 1 << 40)),
            digest,
            txn_ids: (0..arb_u64(rng, 6)).map(TxnId).collect(),
        },
    }
}

fn arb_ss(rng: &mut TestRng) -> SsMsg {
    let digest = arb_digest(rng);
    let seq = SeqNum(arb_u64(rng, 1 << 16));
    let phase = arb_u64(rng, 3) as u8;
    match arb_u64(rng, 9) {
        0 => SsMsg::Request {
            txn: Arc::new(arb_txn(rng)),
            relayed: arb_u64(rng, 2) == 1,
        },
        1 => SsMsg::Pbft(arb_pbft(rng)),
        2 => SsMsg::Rcc {
            stream: arb_u64(rng, 4) as u32,
            msg: arb_pbft(rng),
        },
        3 => SsMsg::OrderReq {
            seq,
            digest,
            batch: arb_batch(rng),
        },
        4 => SsMsg::Propose {
            seq,
            phase,
            digest,
            batch: if arb_u64(rng, 2) == 0 {
                None
            } else {
                Some(arb_batch(rng))
            },
        },
        5 => SsMsg::Vote { seq, phase, digest },
        6 => SsMsg::Cert { seq, phase, digest },
        7 => SsMsg::Support { seq, digest },
        _ => SsMsg::Reply {
            client: ClientId(arb_u64(rng, 1 << 40)),
            digest,
            txn_ids: (0..arb_u64(rng, 6)).map(TxnId).collect(),
        },
    }
}

fn arb_any_msg(rng: &mut TestRng) -> AnyMsg {
    match arb_u64(rng, 3) {
        0 => AnyMsg::Ring(arb_ring(rng)),
        1 => AnyMsg::Sharded(arb_sharded(rng)),
        _ => AnyMsg::Ss(arb_ss(rng)),
    }
}

fn arb_node(rng: &mut TestRng) -> NodeId {
    if arb_u64(rng, 2) == 0 {
        NodeId::Replica(ReplicaId::new(
            ShardId(arb_u64(rng, 4) as u32),
            arb_u64(rng, 8) as u32,
        ))
    } else {
        NodeId::Client(ClientId(arb_u64(rng, 1 << 40)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode(frame(msg)) → decode is the identity on arbitrary traffic.
    #[test]
    fn any_msg_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = proptest::rng_for(&format!("codec-roundtrip-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let env = Envelope {
            from: arb_node(&mut rng),
            to: arb_node(&mut rng),
            msg: arb_any_msg(&mut rng),
            trace: arb_trace(&mut rng),
        };
        let frame = encode_frame(&env, &auth).expect("encode");
        let decoded = decode_data(&frame, &auth, env.to);
        prop_assert_eq!(&decoded, &env);

        // Re-encoding is deterministic (stable bytes for dedup/signing).
        let frame2 = encode_frame(&decoded, &auth).expect("re-encode");
        prop_assert_eq!(frame, frame2);
    }

    /// Recovery messages (state transfer) survive the codec verbatim.
    #[test]
    fn recovery_msgs_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = proptest::rng_for(&format!("codec-recovery-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let env = Envelope {
            from: arb_node(&mut rng),
            to: arb_node(&mut rng),
            msg: AnyMsg::Ring(RingMsg::Recovery(arb_recovery(&mut rng))),
            trace: arb_trace(&mut rng),
        };
        let frame = encode_frame(&env, &auth).expect("encode");
        let decoded = decode_data(&frame, &auth, env.to);
        prop_assert_eq!(&decoded, &env);
    }

    /// Codec v4: the delta state-transfer vocabulary — `StatePlan`
    /// chain headers (full and delta links, empty and multi-link
    /// chains) and link-framed `StateChunk`s with their delta flag —
    /// survives the codec verbatim.
    #[test]
    fn delta_transfer_msgs_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = proptest::rng_for(&format!("codec-delta-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let msg = if arb_u64(&mut rng, 2) == 0 {
            RecoveryMsg::StatePlan {
                target_seq: arb_u64(&mut rng, 1 << 30),
                target_digest: arb_digest(&mut rng),
                links: (0..arb_u64(&mut rng, 9))
                    .map(|_| arb_plan_link(&mut rng))
                    .collect(),
                ledger_height: arb_u64(&mut rng, 1 << 30),
                ledger_head: arb_digest(&mut rng),
            }
        } else {
            RecoveryMsg::StateChunk {
                target_seq: arb_u64(&mut rng, 1 << 30),
                target_digest: arb_digest(&mut rng),
                link_seq: arb_u64(&mut rng, 1 << 30),
                delta: arb_u64(&mut rng, 2) == 0,
                chunk: arb_u64(&mut rng, 64) as u32,
                records: arb_records(&mut rng),
            }
        };
        let env = Envelope {
            from: arb_node(&mut rng),
            to: arb_node(&mut rng),
            msg: AnyMsg::Ring(RingMsg::Recovery(msg)),
            trace: arb_trace(&mut rng),
        };
        let frame = encode_frame(&env, &auth).expect("encode");
        let decoded = decode_data(&frame, &auth, env.to);
        prop_assert_eq!(&decoded, &env);
    }

    /// Hole-fetch messages (commit-certificate recovery) survive the
    /// codec verbatim — certificate, signer set and batch payload.
    #[test]
    fn hole_msgs_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = proptest::rng_for(&format!("codec-hole-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let msg = if arb_u64(&mut rng, 2) == 0 {
            RecoveryMsg::HoleRequest(HoleRequest {
                seq: SeqNum(arb_u64(&mut rng, 1 << 30)),
            })
        } else {
            RecoveryMsg::HoleReply(HoleReply {
                cert: CommitCertificate {
                    view: ViewNum(arb_u64(&mut rng, 16)),
                    seq: SeqNum(arb_u64(&mut rng, 1 << 30)),
                    digest: arb_digest(&mut rng),
                    signers: (0..arb_u64(&mut rng, 12) as u32).collect(),
                },
                batch: arb_batch(&mut rng),
            })
        };
        let env = Envelope {
            from: arb_node(&mut rng),
            to: arb_node(&mut rng),
            msg: AnyMsg::Ring(RingMsg::Recovery(msg)),
            trace: arb_trace(&mut rng),
        };
        let frame = encode_frame(&env, &auth).expect("encode");
        let decoded = decode_data(&frame, &auth, env.to);
        prop_assert_eq!(&decoded, &env);
    }

    /// Codec v5: the envelope's optional trace context — absent,
    /// present at hop 0, and at the hop saturation point — survives
    /// the codec verbatim, independent of the body it rides on.
    #[test]
    fn trace_context_round_trips(seed in 0u64..u64::MAX, kind in 0u64..3) {
        let mut rng = proptest::rng_for(&format!("codec-trace-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let trace = match kind {
            0 => None,
            1 => Some(TraceContext::new(ringbft_types::trace::trace_id_for(
                arb_u64(&mut rng, 1 << 40),
            ))),
            _ => Some(TraceContext {
                trace_id: 1 + arb_u64(&mut rng, u64::MAX - 1),
                hop: u32::MAX,
            }),
        };
        let env = Envelope {
            from: arb_node(&mut rng),
            to: arb_node(&mut rng),
            msg: arb_any_msg(&mut rng),
            trace,
        };
        let frame = encode_frame(&env, &auth).expect("encode");
        let decoded = decode_data(&frame, &auth, env.to);
        prop_assert_eq!(decoded.trace, trace);
        // Saturating the hop counter must be a fixed point, so relay
        // loops cannot overflow it back to a plausible small value.
        if let Some(t) = decoded.trace {
            if t.hop == u32::MAX {
                prop_assert_eq!(t.next_hop().hop, u32::MAX);
            }
        }
    }

    /// Codec v6 serialize-once fan-out: one `encode_body` plus a
    /// per-destination `frame_prefix` yields byte-identical frames to
    /// the per-destination `encode_frame` path, for arbitrary traffic
    /// and arbitrary destination sets — so the zero-copy broadcast can
    /// never change what lands on the wire.
    #[test]
    fn shared_body_fanout_matches_unicast_frames(seed in 0u64..u64::MAX, fanout in 1u64..6) {
        let mut rng = proptest::rng_for(&format!("codec-fanout-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let from = arb_node(&mut rng);
        let msg = arb_any_msg(&mut rng);
        let trace = arb_trace(&mut rng);
        let body = encode_body(from, &msg, &trace).expect("encode body");
        for _ in 0..fanout {
            let to = arb_node(&mut rng);
            let prefix = frame_prefix(from, to, &body, &auth);
            let mut shared = prefix.to_vec();
            shared.extend_from_slice(&body);
            let env = Envelope { from, to, msg: msg.clone(), trace };
            let unicast = encode_frame(&env, &auth).expect("encode frame");
            prop_assert_eq!(&shared, &unicast, "fan-out frame diverged for {:?}", to);
            let decoded = decode_data(&shared, &auth, to);
            prop_assert_eq!(decoded, env);
        }
    }

    /// Codec v6 moved per-peer addressing out of the MAC'd body and
    /// into the authenticated header — so a frame captured for peer A
    /// and re-addressed to peer B (addr bytes spliced, everything else
    /// intact) must fail B's MAC check. Without this, a relay could
    /// redirect shared-body broadcast frames undetected.
    #[test]
    fn readdressed_frame_fails_mac(seed in 0u64..u64::MAX) {
        let mut rng = proptest::rng_for(&format!("codec-readdr-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let from = arb_node(&mut rng);
        let to_a = arb_node(&mut rng);
        let to_b = arb_node(&mut rng);
        prop_assume!(to_a != to_b);
        let msg = arb_any_msg(&mut rng);
        let trace = arb_trace(&mut rng);
        let frame_a = encode_frame(&Envelope { from, to: to_a, msg: msg.clone(), trace }, &auth)
            .expect("encode A");
        let frame_b = encode_frame(&Envelope { from, to: to_b, msg, trace }, &auth)
            .expect("encode B");
        // Splice B's addressing into A's frame, keeping A's MAC and body.
        let mut forged = frame_a;
        forged[HEADER_BYTES..HEADER_BYTES + ADDR_BYTES]
            .copy_from_slice(&frame_b[HEADER_BYTES..HEADER_BYTES + ADDR_BYTES]);
        let r = decode(&forged, &auth, to_b);
        prop_assert!(r.is_err(), "re-addressed frame accepted by {:?}", to_b);
    }

    /// Truncating a frame anywhere is detected, never mis-decoded: the
    /// assembler reports every strict prefix as incomplete.
    #[test]
    fn truncation_always_detected(seed in 0u64..u64::MAX) {
        let mut rng = proptest::rng_for(&format!("codec-trunc-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let env = Envelope {
            from: arb_node(&mut rng),
            to: arb_node(&mut rng),
            msg: arb_any_msg(&mut rng),
            trace: arb_trace(&mut rng),
        };
        let frame = encode_frame(&env, &auth).expect("encode");
        let mut asm = FrameAssembler::new();
        for (cut, byte) in frame.iter().enumerate() {
            let r = asm.next_frame::<AnyMsg>(&auth, env.to);
            prop_assert!(matches!(r, Ok(None)), "truncated frame decoded at {} bytes", cut);
            asm.extend(std::slice::from_ref(byte));
        }
        prop_assert!(matches!(asm.next_frame::<AnyMsg>(&auth, env.to), Ok(Some(_))));
    }

    /// Flipping any single byte of a frame is detected: the header
    /// checks, the MAC, or the body decoder must reject it (frames are
    /// never silently mis-delivered).
    #[test]
    fn single_byte_corruption_never_accepted_silently(
        seed in 0u64..u64::MAX,
        pos_frac in 0u64..1000,
        bit in 0u32..8,
    ) {
        let mut rng = proptest::rng_for(&format!("codec-flip-{seed}"));
        let auth = FrameAuth::from_seed(0);
        let env = Envelope {
            from: arb_node(&mut rng),
            to: arb_node(&mut rng),
            msg: arb_any_msg(&mut rng),
            trace: arb_trace(&mut rng),
        };
        let mut frame = encode_frame(&env, &auth).expect("encode");
        let pos = (frame.len() as u64 * pos_frac / 1000) as usize;
        prop_assume!(pos < frame.len());
        frame[pos] ^= 1 << bit;
        match decode(&frame, &auth, env.to) {
            // A flip inside the length field can leave the frame
            // incomplete; that is a stall, not an acceptance.
            Err(_) | Ok(None) => {}
            // An *accepted* frame must only ever be the original (the
            // MAC covers address and body).
            Ok(Some(decoded)) => prop_assert_eq!(decoded, Frame::Data(env)),
        }
    }
}
