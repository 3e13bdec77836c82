//! Layer probes: timed calls into public functions of each crate, single
//! threaded, on inputs generated from the workload's own seed and
//! configuration — its transactions, its batches of 50, the frames those
//! encode to, its per-shard key count. Each probe gathers at least
//! `budget` of samples and reports the median.

use crate::spans::SpanLog;
use crate::spec::Workload;
use crate::stats::median;
use ringbft_core::testing::RingNet;
use ringbft_core::RingMsg;
use ringbft_crypto::{merkle::MerkleTree, sha256, KeyStore};
use ringbft_ledger::{BlockBody, Ledger};
use ringbft_net::codec::{
    decode_raw_frame, encode_body, encode_frame, frame_prefix, Envelope, FrameAssembler, FrameAuth,
};
use ringbft_obs::Histogram;
use ringbft_pbft::testing::TestCluster;
use ringbft_pbft::{batch_digest, PbftMsg};
use ringbft_recovery::{DeltaSnapshot, ReplicaWal, Snapshot, WalEntry};
use ringbft_sim::{AnyMsg, Scenario};
use ringbft_store::{KvStore, LockManager};
use ringbft_types::txn::{Batch, Key, Transaction};
use ringbft_types::{
    BatchId, ClientId, Durability, NodeId, ReplicaId, SeqNum, ShardId, SystemConfig, ViewNum,
};
use ringbft_workload::WorkloadGen;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions generated per workload for the probes (and replayed
/// through `RingNet`).
const PROBE_TXNS: usize = 20_000;
const BATCH: usize = 50;

/// Times `f` in batches of `per_sample` calls until `budget` is spent and
/// at least five samples exist; returns the median nanoseconds per call.
fn time_ns(budget: Duration, per_sample: usize, mut f: impl FnMut()) -> f64 {
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || began.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_sample {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_sample as f64);
    }
    median(&samples)
}

/// The workload's first transactions, as its load generator draws them.
fn transactions(cfg: &SystemConfig, seed: u64) -> Vec<Transaction> {
    let mut gen = WorkloadGen::new(cfg.clone(), seed);
    gen.set_txn_namespace(crate::load::WORKLOAD_NS);
    (0..PROBE_TXNS as u64)
        .map(|i| gen.next_txn(ClientId(1 + i % cfg.clients as u64)))
        .collect()
}

/// Full batches of 50 as a primary would cut them: transactions pooled by
/// involved-shard set, in arrival order.
fn batches(txns: &[Transaction]) -> Vec<Arc<Batch>> {
    let mut pools: BTreeMap<Vec<ShardId>, Vec<Transaction>> = BTreeMap::new();
    let mut out = Vec::new();
    for t in txns {
        let pool = pools.entry(t.involved_shards()).or_default();
        pool.push(t.clone());
        if pool.len() == BATCH {
            let id = BatchId(out.len() as u64 + 1);
            out.push(Arc::new(Batch::new(id, std::mem::take(pool))));
        }
    }
    out
}

fn preprepare(seq: u64, batch: &Arc<Batch>) -> AnyMsg {
    AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Preprepare {
        view: ViewNum(0),
        seq: SeqNum(seq),
        digest: batch_digest(batch),
        batch: Arc::clone(batch),
    }))
}

fn prepare(seq: u64, batch: &Arc<Batch>) -> AnyMsg {
    AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Prepare {
        view: ViewNum(0),
        seq: SeqNum(seq),
        digest: batch_digest(batch),
    }))
}

/// Socket bytes to delivered message: reassembly, MAC check, decode.
fn ingress_ns(budget: Duration, frame: &[u8], auth: &FrameAuth, to: NodeId) -> f64 {
    let mut asm = FrameAssembler::new();
    let mut scratch = Vec::new();
    time_ns(budget, 200, || {
        asm.extend(frame);
        let raw = asm
            .next_raw_frame_in(&mut scratch)
            .expect("well-formed frame")
            .expect("complete frame");
        black_box(decode_raw_frame::<AnyMsg>(&raw, auth, to).expect("authentic frame"));
        scratch = raw.body;
    })
}

/// Every probe metric of `w`, by name. `wal_dir` is scratch space for the
/// file-WAL probes; each call batch is recorded as a span under `parent`.
pub fn run_probes(
    w: &Workload,
    seed: u64,
    budget: Duration,
    wal_dir: &Path,
    spans: &mut SpanLog,
    parent: Option<usize>,
) -> Vec<(&'static str, f64)> {
    let cfg = w.config(seed, false);
    let txns = transactions(&cfg, seed);
    let batches = batches(&txns);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut probe = |name: &'static str, spans: &mut SpanLog, f: &mut dyn FnMut() -> f64| {
        let v = spans.within(name, parent, f);
        out.push((name, v));
    };

    probe("workload.next_txn_ns", spans, &mut || {
        let mut gen = WorkloadGen::new(cfg.clone(), seed);
        let mut i = 0u64;
        time_ns(budget, 1_000, || {
            i += 1;
            black_box(gen.next_txn(ClientId(i % 512)));
        })
    });

    // Frames as they cross the wire between shard 0's primary and a backup.
    let (from, to) = (
        NodeId::Replica(ReplicaId::new(ShardId(0), 0)),
        NodeId::Replica(ReplicaId::new(ShardId(0), 1)),
    );
    let auth = FrameAuth::from_seed(cfg.auth_seed);
    let keys = KeyStore::from_seed(cfg.auth_seed);
    let (pp, small) = (preprepare(1, &batches[0]), prepare(1, &batches[0]));
    let pp_body = encode_body(from, &pp, &None).expect("preprepare encodes");
    let small_body = encode_body(from, &small, &None).expect("prepare encodes");
    let frame_of = |msg: &AnyMsg| {
        let env = Envelope {
            from,
            to,
            msg: msg.clone(),
            trace: None,
        };
        encode_frame(&env, &auth).expect("frame encodes")
    };
    let (pp_frame, small_frame) = (frame_of(&pp), frame_of(&small));

    probe("crypto.sha256_mb_s", spans, &mut || {
        let ns = time_ns(budget, 200, || {
            black_box(sha256(black_box(&pp_body)));
        });
        pp_body.len() as f64 / ns * 1e3
    });
    // The runtime tags a frame over (domain tag, 9 address bytes, body).
    let addr = [0u8; 9];
    probe("crypto.mac_pp50_ns", spans, &mut || {
        time_ns(budget, 200, || {
            black_box(keys.mac_parts(from, to, &[b"rbft-data", &addr, &pp_body]));
        })
    });
    probe("crypto.mac_small_ns", spans, &mut || {
        time_ns(budget, 1_000, || {
            black_box(keys.mac_parts(from, to, &[b"rbft-data", &addr, &small_body]));
        })
    });
    probe("crypto.merkle_root50_us", spans, &mut || {
        let payloads: Vec<Vec<u8>> = batches[0]
            .txns
            .iter()
            .map(|t| {
                let mut p = t.id.0.to_le_bytes().to_vec();
                p.extend_from_slice(&t.client.0.to_le_bytes());
                for op in &t.ops {
                    p.extend_from_slice(&op.key.to_le_bytes());
                }
                p
            })
            .collect();
        time_ns(budget, 50, || {
            let tree = MerkleTree::from_payloads(payloads.iter().map(Vec::as_slice));
            black_box(tree.root());
        }) / 1e3
    });

    probe("net.encode_body_pp50_ns", spans, &mut || {
        time_ns(budget, 200, || {
            black_box(encode_body(from, &pp, &None).expect("encodes"));
        })
    });
    probe("net.encode_body_small_ns", spans, &mut || {
        time_ns(budget, 1_000, || {
            black_box(encode_body(from, &small, &None).expect("encodes"));
        })
    });
    probe("net.frame_prefix_ns", spans, &mut || {
        time_ns(budget, 200, || {
            black_box(frame_prefix(from, to, &pp_body, &auth));
        })
    });
    probe("net.ingress_pp50_ns", spans, &mut || {
        ingress_ns(budget, &pp_frame, &auth, to)
    });
    probe("net.ingress_small_ns", spans, &mut || {
        ingress_ns(budget, &small_frame, &auth, to)
    });

    probe("pbft.batch_digest_b50_us", spans, &mut || {
        let mut i = 0;
        time_ns(budget, 100, || {
            i += 1;
            black_box(batch_digest(&batches[i % batches.len()]));
        }) / 1e3
    });
    probe("pbft.round_n4_b50_us", spans, &mut || {
        // One consensus round of four replicas, message passing in memory:
        // the state-machine cost of ordering one batch, no sockets, no MACs.
        let mut cluster = TestCluster::new(ShardId(0), 4);
        let mut i = 0;
        time_ns(budget, 20, || {
            i += 1;
            cluster.propose(0, Arc::clone(&batches[i % batches.len()]));
            cluster.deliver_all();
            cluster.events.clear();
        }) / 1e3
    });

    probe("core.ringnet_us_per_txn", spans, &mut || {
        // Every replica's state machine — consensus, locks, execution,
        // ledger, checkpoints — on the workload's first transactions, with
        // neither sockets nor MACs.
        let mut net = RingNet::new(cfg.clone());
        let t = Instant::now();
        for chunk in txns.chunks(10 * BATCH) {
            for txn in chunk {
                net.client_send(txn.client, txn.clone());
            }
            net.settle();
            net.replies.clear();
            net.exec_log.clear();
        }
        t.elapsed().as_nanos() as f64 / 1e3 / txns.len() as f64
    });

    // Batches whose keys all live on shard 0 (every batch of a one-shard
    // workload; the cross-shard ones keep their shard-0 fragment).
    let keys_of = |b: &Batch| b.keys_in(ShardId(0));
    probe("store.lock_commit_release_ns", spans, &mut || {
        let mut locks = LockManager::new();
        let mut seq = 0u64;
        time_ns(budget, 100, || {
            seq += 1;
            let b = &batches[seq as usize % batches.len()];
            black_box(locks.commit(seq, keys_of(b)));
            black_box(locks.release(seq));
        })
    });
    probe("store.kv_execute_ns", spans, &mut || {
        let mut kv = KvStore::new();
        let mut i = 0;
        time_ns(budget, 1_000, || {
            i += 1;
            let t = &txns[i % txns.len()];
            black_box(kv.execute_fragment(t, t.ops[0].shard, &[]));
        })
    });
    let commit = |seq: u64| WalEntry::Commit {
        seq,
        digest: [seq as u8; 32],
    };
    probe("store.wal_append_ns", spans, &mut || {
        let path = wal_dir.join("probe-append.wal");
        let (mut wal, _) = ReplicaWal::open_file(&path, Durability::None).expect("open wal");
        let mut seq = 0;
        time_ns(budget, 200, || {
            seq += 1;
            wal.append(&commit(seq)).expect("append");
        })
    });
    probe("store.wal_sync_ms", spans, &mut || {
        let path = wal_dir.join("probe-sync.wal");
        let (mut wal, _) = ReplicaWal::open_file(&path, Durability::None).expect("open wal");
        let mut seq = 0;
        time_ns(budget, 1, || {
            seq += 1;
            wal.append(&commit(seq)).expect("append");
            wal.flush().expect("fsync");
        }) / 1e6
    });

    // A shard's store once every key of its partition has been written.
    let range = cfg.key_range(ShardId(0));
    let mut kv = KvStore::new();
    for k in range.clone() {
        kv.put(k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    probe("recovery.digest_of_store_ms", spans, &mut || {
        time_ns(budget, 1, || {
            black_box(Snapshot::digest_of_store(ShardId(0), 128, &kv));
        }) / 1e6
    });
    probe("recovery.delta_capture_us", spans, &mut || {
        // One checkpoint window's writes: 128 sequences of 50.
        let dirty: Vec<Key> = batches
            .iter()
            .take(cfg.checkpoint_interval as usize)
            .flat_map(|b| keys_of(b))
            .collect();
        time_ns(budget, 5, || {
            black_box(DeltaSnapshot::capture(
                ShardId(0),
                0,
                [0; 32],
                128,
                dirty.iter().copied(),
                &kv,
                128,
                [0; 32],
            ));
        }) / 1e3
    });

    probe("ledger.append_b50_us", spans, &mut || {
        let mut ledger = Ledger::new(ShardId(0));
        let mut seq = 0;
        time_ns(budget, 200, || {
            seq += 1;
            let b = &batches[seq as usize % batches.len()];
            black_box(ledger.append(BlockBody {
                seq: SeqNum(seq),
                merkle_root: [seq as u8; 32],
                proposer: ReplicaId::new(ShardId(0), 0),
                txn_count: b.len() as u32,
                involved: b.involved_shards(),
            }));
            if seq % 4096 == 0 {
                ledger.prune_through_seq(seq); // as a stable checkpoint does
            }
        }) / 1e3
    });
    probe("obs.hist_record_ns", spans, &mut || {
        let mut h = Histogram::new();
        let mut v = 1u64;
        time_ns(budget, 10_000, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(black_box(v >> 40));
        })
    });
    out
}

/// Throughput the discrete-event simulator predicts for `w`'s
/// configuration on its in-datacenter topology (closed loop, the
/// config's client count). The calibration number of ROADMAP aim 1.
pub fn sim_predicted_tps(w: &Workload, seed: u64) -> f64 {
    Scenario::new(w.config(seed, false), seed)
        .local_topology(true)
        .warmup_secs(0.5)
        .measure_secs(1.5)
        .run()
        .throughput_tps
}
