//! Criterion micro-benchmarks of the hot kernels behind every figure:
//!
//! * `crypto/*` — SHA-256, HMAC, signatures, Merkle roots (§3's
//!   authenticated communication costs; the paper's MAC-vs-DS trade-off),
//!   and a small frame's MAC between a pair seen before (`mac_small_warm`,
//!   key schedule cached) and a pair never seen (`mac_small_cold`);
//! * `lockmgr/*` — sequence-ordered lock admission (§4.3.5's π list);
//! * `pbft/*` — a full intra-shard consensus round as a state-machine
//!   cost (the engine every protocol embeds);
//! * `codec/*` — the wire codec's egress/ingress hot path: body
//!   serialization, per-peer prefixes, the serialize-once broadcast
//!   against per-destination encoding, decode and frame reassembly;
//! * `recovery/*` — the checkpoint state digest: one window folded into
//!   the incrementally maintained digest against the from-scratch
//!   computation, at a small and a paper-sized store;
//! * `wire/*` — batch digests and message-size computation;
//! * `workload/*` — YCSB transaction generation;
//! * `simnet/*` — event-queue throughput (the simulator's own engine).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ringbft_crypto::hmac::HmacKey;
use ringbft_crypto::{sha256, KeyStore, MerkleTree};
use ringbft_pbft::batch_digest;
use ringbft_pbft::testing::{test_batch, TestCluster};
use ringbft_simnet::EventQueue;
use ringbft_store::LockManager;
use ringbft_types::{
    ClientId, Duration, Instant, NodeId, ProtocolKind, ReplicaId, ShardId, SystemConfig,
};
use ringbft_workload::WorkloadGen;
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let payload = vec![0xabu8; 5408]; // a Preprepare-sized message
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("sha256_preprepare", |b| {
        b.iter(|| sha256(black_box(&payload)))
    });

    let ks = KeyStore::from_seed(7);
    let me = NodeId::Replica(ReplicaId::new(ShardId(0), 0));
    let peer = NodeId::Replica(ReplicaId::new(ShardId(1), 0));
    g.throughput(Throughput::Elements(1));
    g.bench_function("mac_sign_verify", |b| {
        b.iter(|| {
            let tag = ks.mac(me, peer, black_box(&payload));
            assert!(ks.verify_mac(me, peer, &payload, &tag));
        })
    });
    g.bench_function("ds_sign_verify", |b| {
        let signer = ks.signer(me);
        b.iter(|| {
            let sig = signer.sign(black_box(&payload));
            assert!(ks.verify(&payload, &sig));
        })
    });

    // A data frame's MAC as the codec computes it (domain tag, 9 address
    // bytes, body), the body one SHA-256 block: repeated between one
    // pair, and to a client never seen before, which derives and
    // schedules the pair key first.
    let (addr, body) = ([0u8; 9], [0x5au8; 64]);
    g.bench_function("mac_small_warm", |b| {
        b.iter(|| ks.mac_parts(me, peer, &[b"rbft-data", &addr, black_box(&body)]))
    });
    let mut client = 0u64;
    g.bench_function("mac_small_cold", |b| {
        b.iter(|| {
            client += 1;
            let to = NodeId::Client(ClientId(client));
            ks.mac_parts(me, to, &[b"rbft-data", &addr, black_box(&body)])
        })
    });
    g.bench_function("hmac_key_new", |b| {
        b.iter(|| HmacKey::new(black_box(&[0x0bu8; 32])))
    });

    // Merkle root of a 100-transaction batch (§7's block root Δ).
    let leaves: Vec<Vec<u8>> = (0..100u64).map(|i| i.to_le_bytes().to_vec()).collect();
    g.throughput(Throughput::Elements(100));
    g.bench_function("merkle_root_100", |b| {
        b.iter(|| MerkleTree::from_payloads(leaves.iter().map(|l| l.as_slice())).root())
    });
    g.finish();
}

fn bench_lockmgr(c: &mut Criterion) {
    let mut g = c.benchmark_group("lockmgr");
    // In-order commit/release cycle: the common case.
    g.throughput(Throughput::Elements(1000));
    g.bench_function("in_order_1000", |b| {
        b.iter_batched(
            LockManager::new,
            |mut lm| {
                for seq in 1..=1000u64 {
                    lm.commit(seq, vec![seq % 97]);
                    lm.release(seq);
                }
                black_box(lm.k_max())
            },
            BatchSize::SmallInput,
        )
    });
    // Fully out-of-order commits: everything parks in π, one drain.
    g.bench_function("out_of_order_1000", |b| {
        b.iter_batched(
            LockManager::new,
            |mut lm| {
                for seq in (2..=1000u64).rev() {
                    lm.commit(seq, vec![seq % 97]);
                }
                let a = lm.commit(1, vec![1]);
                black_box(a.acquired.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_pbft_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("pbft");
    for n in [4usize, 16, 32] {
        g.throughput(Throughput::Elements(1));
        g.bench_function(format!("round_n{n}"), |b| {
            b.iter_batched(
                || TestCluster::new(ShardId(0), n),
                |mut cluster| {
                    cluster.propose(0, test_batch(ShardId(0), 1, 100));
                    cluster.deliver_all();
                    black_box(cluster.delivered)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    use ringbft_net::codec::{
        decode_raw_frame, encode_body, encode_frame, frame_prefix, Envelope, FrameAssembler,
        FrameAuth,
    };
    use ringbft_pbft::{batch_digest as digest_of, PbftMsg};
    use ringbft_sim::AnyMsg;
    use ringbft_types::{SeqNum, ViewNum};

    let mut g = c.benchmark_group("codec");
    let auth = FrameAuth::from_seed(7);
    let from = NodeId::Replica(ReplicaId::new(ShardId(0), 0));
    let peers: Vec<NodeId> = (1..4)
        .map(|i| NodeId::Replica(ReplicaId::new(ShardId(0), i)))
        .collect();
    // A Preprepare carrying a 100-transaction batch: the dominant
    // broadcast payload on the consensus hot path.
    let batch = test_batch(ShardId(0), 1, 100);
    let msg = AnyMsg::Ring(ringbft_core::RingMsg::Pbft(PbftMsg::Preprepare {
        view: ViewNum(0),
        seq: SeqNum(1),
        digest: digest_of(&batch),
        batch,
    }));
    let trace = None;
    let env = Envelope {
        from,
        to: peers[0],
        msg: msg.clone(),
        trace,
    };
    let frame = encode_frame(&env, &auth).expect("encode");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("encode_unicast_preprepare100", |b| {
        b.iter(|| encode_frame(black_box(&env), &auth).expect("encode"))
    });
    g.bench_function("encode_body_preprepare100", |b| {
        b.iter(|| encode_body(from, black_box(&msg), &trace).expect("encode body"))
    });
    let body = encode_body(from, &msg, &trace).expect("encode body");
    g.throughput(Throughput::Elements(1));
    g.bench_function("frame_prefix", |b| {
        b.iter(|| frame_prefix(from, black_box(peers[0]), &body, &auth))
    });
    // The tentpole comparison: fan one Preprepare out to 3 peers by
    // re-encoding per destination vs. sharing one encoded body.
    g.throughput(Throughput::Elements(3));
    g.bench_function("fanout3_per_destination", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &to in &peers {
                let e = Envelope {
                    from,
                    to,
                    msg: msg.clone(),
                    trace,
                };
                total += encode_frame(&e, &auth).expect("encode").len();
            }
            black_box(total)
        })
    });
    g.bench_function("fanout3_shared_body", |b| {
        b.iter(|| {
            let body = encode_body(from, black_box(&msg), &trace).expect("encode body");
            let mut total = 0usize;
            for &to in &peers {
                let prefix = frame_prefix(from, to, &body, &auth);
                total += prefix.len() + body.len();
            }
            black_box(total)
        })
    });
    g.throughput(Throughput::Bytes(frame.len() as u64));
    // MAC check + body decode of an extracted frame: the verify stage
    // of the reactor's ingress path.
    let raw = {
        let mut asm = FrameAssembler::new();
        asm.extend(&frame);
        asm.next_raw_frame().expect("header").expect("whole frame")
    };
    g.bench_function("decode_preprepare100", |b| {
        b.iter(|| decode_raw_frame::<AnyMsg>(black_box(&raw), &auth, env.to).expect("decode"))
    });
    // Reassembly from segmented reads (frames arrive in TCP-sized
    // chunks, each body handed back as the next scratch buffer).
    g.bench_function("assemble_preprepare100_1k_chunks", |b| {
        b.iter(|| {
            let mut asm = FrameAssembler::new();
            let mut scratch = Vec::new();
            let mut raws = 0usize;
            for chunk in frame.chunks(1024) {
                asm.extend(chunk);
                while let Some(raw) = asm.next_raw_frame_in(&mut scratch).expect("assemble") {
                    raws += 1;
                    scratch = raw.body;
                }
            }
            black_box(raws)
        })
    });
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    use ringbft_recovery::{CheckpointStore, Snapshot};
    use ringbft_store::KvStore;

    let mut g = c.benchmark_group("recovery");
    for keys in [8_000u64, 120_000] {
        let mut kv = KvStore::new();
        for k in 0..keys {
            kv.put(k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        // One checkpoint window of the wall-clock benchmark's traffic:
        // 128 sequences of 50 single-write transactions, keys uniformly
        // random (so the small store sees each dirty key ~1.5 times).
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let window: Vec<(u64, u64)> = (0..6_400u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % keys, i)
            })
            .collect();
        g.throughput(Throughput::Elements(window.len() as u64));
        // What a replica does per checkpoint: fold the window's writes
        // into the checkpoint store and read the digest off the
        // accumulator. The store carries over between iterations, as it
        // does between windows.
        let mut store = CheckpointStore::new(kv.clone());
        g.bench_function(format!("checkpoint_window_{keys}"), |b| {
            b.iter(|| {
                let dirty = store.fold_window(window.iter().copied());
                black_box((dirty.len(), store.digest(ShardId(0), 128)))
            })
        });
        // What it did before, and still does to verify an installed
        // snapshot or a replayed log: hash every record.
        g.throughput(Throughput::Elements(keys));
        g.bench_function(format!("digest_of_store_cold_{keys}"), |b| {
            b.iter(|| Snapshot::digest_of_store(ShardId(0), 128, black_box(&kv)))
        });
    }
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let batch = test_batch(ShardId(0), 1, 100);
    g.throughput(Throughput::Elements(1));
    g.bench_function("batch_digest_100", |b| {
        b.iter(|| batch_digest(black_box(&batch)))
    });
    g.bench_function("message_sizes", |b| {
        b.iter(|| {
            let a = ringbft_types::wire::preprepare_bytes(black_box(100));
            let f = ringbft_types::wire::forward_bytes(black_box(100), 19);
            let e = ringbft_types::wire::execute_bytes(black_box(100), 1);
            black_box(a + f + e)
        })
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    let cfg = {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 15, 4);
        cfg.cross_shard_rate = 0.3;
        cfg
    };
    g.throughput(Throughput::Elements(1000));
    g.bench_function("generate_1000_txns", |b| {
        b.iter_batched(
            || WorkloadGen::new(cfg.clone(), 1),
            |mut gen| {
                for i in 0..1000 {
                    black_box(gen.next_txn(ClientId(i)));
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_simnet(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("event_queue_100k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..100_000u64 {
                // Pseudo-random times to exercise heap reordering.
                let t = Instant::ZERO + Duration::from_nanos((i * 2_654_435_761) % 1_000_000);
                q.push(t, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_lockmgr,
    bench_pbft_round,
    bench_codec,
    bench_recovery,
    bench_wire,
    bench_workload,
    bench_simnet
);
criterion_main!(benches);
