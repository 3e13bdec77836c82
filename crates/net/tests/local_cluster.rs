//! End-to-end integration over real sockets: a full RingBFT shard
//! topology on loopback TCP commits single-shard, simple cross-shard,
//! and complex cross-shard transactions to client completion.
//!
//! These tests exercise the acceptance path of the `ringbft-net`
//! runtime: the same sans-io state machines the simulator drives, now
//! with real kernels, real clocks (timers against the monotonic clock)
//! and real sockets (framed `AnyMsg` traffic through the loopback
//! stack).

use ringbft_core::RingMsg;
use ringbft_net::codec::FrameAuth;
use ringbft_net::runtime::{Clock, NodeRuntime, PeerTable};
use ringbft_net::telemetry::{http_get, standard_routes};
use ringbft_net::LocalCluster;
use ringbft_pbft::PbftMsg;
use ringbft_sim::{AnyMsg, AnyNode, SimClient};
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::txn::{Digest, RemoteRead, Transaction};
use ringbft_types::{
    Action, ClientId, Duration, Instant, NodeId, Outbox, ProtocolKind, ReplicaId, RingOrder,
    ShardId, SystemConfig, TimerKind, TxnId,
};
use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// A deterministic test client: injects a fixed list of transactions at
/// start, collects replies, and marks a transaction complete once f+1
/// distinct replicas confirmed its batch digest. A per-transaction
/// timer rebroadcasts to the whole target shard (the paper's A1
/// fallback) so a lost request cannot hang the test.
struct Injector {
    cfg: SystemConfig,
    ring: RingOrder,
    quorum: usize,
    pending: HashMap<TxnId, Arc<Transaction>>,
    votes: HashMap<Digest, HashSet<ReplicaId>>,
    digest_txns: HashMap<Digest, HashSet<TxnId>>,
    confirmed_digests: HashSet<Digest>,
    completed: HashSet<TxnId>,
}

impl Injector {
    fn new(cfg: SystemConfig, txns: Vec<Transaction>) -> Injector {
        let quorum = cfg.shards[0].f() + 1;
        let ring = cfg.ring_order();
        Injector {
            cfg,
            ring,
            quorum,
            pending: txns.into_iter().map(|t| (t.id, Arc::new(t))).collect(),
            votes: HashMap::new(),
            digest_txns: HashMap::new(),
            confirmed_digests: HashSet::new(),
            completed: HashSet::new(),
        }
    }

    fn target_shard(&self, txn: &Transaction) -> ShardId {
        self.ring.first(&txn.involved_shards())
    }

    fn send_txn(&self, txn: &Arc<Transaction>, broadcast: bool, out: &mut Outbox<AnyMsg>) {
        let shard = self.target_shard(txn);
        let msg = AnyMsg::Ring(RingMsg::Request {
            txn: Arc::clone(txn),
            relayed: false,
        });
        if broadcast {
            for r in self.cfg.shard(shard).replicas() {
                out.send(NodeId::Replica(r), msg.clone());
            }
        } else {
            out.send(NodeId::Replica(ReplicaId::new(shard, 0)), msg);
        }
    }
}

impl ProtocolNode<AnyMsg> for Injector {
    fn on_start(&mut self, _now: Instant) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        for txn in self.pending.values() {
            self.send_txn(txn, false, &mut out);
            out.set_timer(TimerKind::Client, txn.id.0, Duration::from_millis(1500));
        }
        out.take()
    }

    fn on_message(&mut self, _now: Instant, from: NodeId, msg: AnyMsg) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        let AnyMsg::Ring(RingMsg::Reply {
            digest, txn_ids, ..
        }) = msg
        else {
            return out.take();
        };
        let NodeId::Replica(sender) = from else {
            return out.take();
        };
        self.digest_txns.entry(digest).or_default().extend(txn_ids);
        let votes = self.votes.entry(digest).or_default();
        votes.insert(sender);
        if votes.len() >= self.quorum {
            self.confirmed_digests.insert(digest);
        }
        if self.confirmed_digests.contains(&digest) {
            for id in self.digest_txns.get(&digest).cloned().unwrap_or_default() {
                if self.pending.remove(&id).is_some() {
                    out.cancel_timer(TimerKind::Client, id.0);
                    self.completed.insert(id);
                }
            }
        }
        out.take()
    }

    fn on_timer(&mut self, _now: Instant, kind: TimerKind, token: u64) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        if kind != TimerKind::Client {
            return out.take();
        }
        if let Some(txn) = self.pending.get(&TxnId(token)).cloned() {
            // A1: rebroadcast to every replica of the target shard.
            self.send_txn(&txn, true, &mut out);
            out.set_timer(TimerKind::Client, token, Duration::from_millis(1500));
        }
        out.take()
    }
}

/// Short timers so any loss recovers within the test budget; ordering
/// local < remote < transmit per §5.
fn quick_cfg(z: usize, n: usize) -> SystemConfig {
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, z, n);
    cfg.num_keys = 1_000 * z as u64;
    cfg.batch_size = 1;
    cfg.timers.local = Duration::from_millis(800);
    cfg.timers.remote = Duration::from_millis(1600);
    cfg.timers.transmit = Duration::from_millis(2400);
    cfg.timers.client = Duration::from_millis(3200);
    cfg
}

fn key_in(cfg: &SystemConfig, shard: u32, offset: u64) -> u64 {
    cfg.key_range(ShardId(shard)).start + offset
}

const DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);

/// Held by every test while its cluster runs: shared by most, exclusive
/// by the one that reads this process's thread names, because tests
/// running concurrently host runtimes with the same replica ids.
static RUNTIMES: RwLock<()> = RwLock::new(());

fn shared_runtimes() -> RwLockReadGuard<'static, ()> {
    RUNTIMES.read().unwrap_or_else(|e| e.into_inner())
}

/// Names of this process's live threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// Polls `pred` until it holds or [`DEADLINE`] passes.
fn eventually(mut pred: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + DEADLINE;
    while !pred() {
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    true
}

fn ring(node: &AnyNode) -> &ringbft_core::RingReplica {
    match node {
        AnyNode::Ring(r) => r,
        _ => panic!("ring replica expected"),
    }
}

/// Acceptance test: 2 shards × 4 replicas over loopback TCP commit a
/// single-shard transaction, a simple cst and a complex cst end-to-end.
#[test]
fn two_shards_commit_all_transaction_classes_over_tcp() {
    let _runtimes = shared_runtimes();
    let cfg = quick_cfg(2, 4);
    let mk_complex = |id: u64| {
        Transaction::new(
            TxnId(id),
            ClientId(id),
            ringbft_store::rmw_ops(&[
                (ShardId(0), key_in(&cfg, 0, 30)),
                (ShardId(1), key_in(&cfg, 1, 30)),
            ]),
        )
        .with_remote_reads(vec![RemoteRead {
            reader: ShardId(0),
            owner: ShardId(1),
            key: key_in(&cfg, 1, 77),
        }])
    };
    let txns = vec![
        // Single-shard on shard 0.
        Transaction::new(
            TxnId(1),
            ClientId(1),
            ringbft_store::rmw_ops(&[(ShardId(0), key_in(&cfg, 0, 10))]),
        ),
        // Simple cst over both shards.
        Transaction::new(
            TxnId(2),
            ClientId(2),
            ringbft_store::rmw_ops(&[
                (ShardId(0), key_in(&cfg, 0, 20)),
                (ShardId(1), key_in(&cfg, 1, 20)),
            ]),
        ),
        // Complex cst: shard 0's fragment reads a shard-1 key.
        mk_complex(3),
    ];
    let txn_ids: Vec<TxnId> = txns.iter().map(|t| t.id).collect();

    let cluster = LocalCluster::launch(cfg.clone()).expect("launch cluster");

    // Host the injector on its own runtime, sharing the cluster's peer
    // table and clock; replies to its client ids route back to it.
    let host = NodeId::Client(ClientId(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind injector");
    cluster
        .peers()
        .insert(host, listener.local_addr().expect("addr"));
    for c in 2..=3u64 {
        cluster.peers().add_alias(NodeId::Client(ClientId(c)), host);
    }
    let injector = NodeRuntime::launch(
        host,
        Injector::new(cfg.clone(), txns),
        listener,
        cluster.peers().clone(),
        cluster.clock().clone(),
        cluster.auth().clone(),
    )
    .expect("launch injector");

    // All three transactions reach f+1 confirmations.
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        let done = injector.with_node(|i| i.completed.len());
        if done == txn_ids.len() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {done}/{} transactions confirmed before the deadline",
            txn_ids.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    injector.with_node(|i| {
        for id in &txn_ids {
            assert!(i.completed.contains(id), "{id} unconfirmed");
        }
    });

    // Both shards executed the cross-shard work.
    let executed_shards: HashSet<ShardId> = cluster
        .replica_runtimes()
        .filter(|rt| rt.executed_batches() > 0)
        .filter_map(|rt| rt.id().as_replica().map(|r| r.shard))
        .collect();
    assert!(
        executed_shards.contains(&ShardId(0)) && executed_shards.contains(&ShardId(1)),
        "both shards must execute, saw {executed_shards:?}"
    );

    // Real frames crossed the loopback network.
    let mut total_sent = 0u64;
    for rt in cluster.replica_runtimes() {
        let s = rt.stats();
        total_sent += s.messages_sent;
        if s.messages_sent > 0 {
            assert!(s.bytes_sent > 0);
        }
    }
    assert!(total_sent > 0, "replicas exchanged no network traffic");

    // Serialize-once fan-out: every replica broadcast (Preprepare,
    // Commit, Forward, Execute) encoded its payload exactly once and
    // shared the bytes across destinations. In a 2×4 topology a
    // fan-out reaches 3 remote peers (the rest of the shard) or 4 (the
    // whole next shard), so the per-destination encodes the shared
    // body saved must land in [2, 3] per broadcast — anything below
    // means the egress path went back to encoding per peer.
    let (broadcasts, encodes_saved) =
        cluster.replica_runtimes().fold((0u64, 0u64), |(b, e), rt| {
            let s = rt.stats();
            (b + s.broadcasts, e + s.encodes_saved)
        });
    assert!(broadcasts > 0, "no broadcast fan-outs recorded");
    assert!(
        encodes_saved >= 2 * broadcasts && encodes_saved <= 3 * broadcasts,
        "{encodes_saved} encodes saved over {broadcasts} broadcasts: \
         per-destination re-encoding suspected"
    );

    // Replicas of each shard converge to identical stores once traffic
    // quiesces (laggards may apply the last Execute slightly later).
    let converged = cluster.wait_until(DEADLINE, |c| {
        (0..2u32).all(|s| {
            let prints: Vec<u64> = (0..4u32)
                .map(|i| {
                    c.with_replica(ReplicaId::new(ShardId(s), i), |n| match n {
                        ringbft_sim::AnyNode::Ring(r) => r.store().state_fingerprint(),
                        _ => panic!("ring replica expected"),
                    })
                })
                .collect();
            prints.windows(2).all(|w| w[0] == w[1])
        })
    });
    assert!(converged, "shard state diverged across replicas");

    assert!(
        injector.shutdown().is_some(),
        "injector shutdown was not clean"
    );
    assert!(cluster.shutdown(), "cluster shutdown was not clean");
}

/// Drives a fixed transaction list to f+1-confirmed completion through
/// a dedicated injector runtime, then tears the injector down.
fn run_phase(cluster: &LocalCluster, cfg: &SystemConfig, txns: Vec<Transaction>) {
    let client_ids: Vec<u64> = txns.iter().map(|t| t.client.0).collect();
    let host = NodeId::Client(ClientId(client_ids[0]));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind injector");
    cluster
        .peers()
        .insert(host, listener.local_addr().expect("addr"));
    for c in &client_ids[1..] {
        cluster
            .peers()
            .add_alias(NodeId::Client(ClientId(*c)), host);
    }
    let count = txns.len();
    let injector = NodeRuntime::launch(
        host,
        Injector::new(cfg.clone(), txns),
        listener,
        cluster.peers().clone(),
        cluster.clock().clone(),
        cluster.auth().clone(),
    )
    .expect("launch injector");
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        if injector.with_node(|i| i.completed.len()) == count {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "phase stalled before completing {count} txns"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(
        injector.shutdown().is_some(),
        "injector shutdown was not clean"
    );
}

/// Acceptance test (ISSUE 2, extended by ISSUE 4): a 3-shard ×
/// 4-replica TCP cluster kills one replica, restarts it with empty
/// state, and the replica catches up via checkpoint state transfer and
/// participates in committing new cross-shard transactions; ledger
/// memory is truncated to the last stable checkpoint. Under delta
/// checkpointing (`full_snapshot_every` = 2 here) this doubles as the
/// full-snapshot fallback twin of the sim test: the blank requester
/// advertises no base digest, no donor can recognize one, and the
/// catch-up must arrive as a chain with a full snapshot link — never a
/// dangling delta chain.
#[test]
fn replica_blank_restart_catches_up_via_state_transfer_over_tcp() {
    let _runtimes = shared_runtimes();
    let mut cfg = quick_cfg(3, 4);
    cfg.checkpoint_interval = 4;
    cfg.full_snapshot_every = 2;
    let victim = ReplicaId::new(ShardId(1), 2); // a backup, not a primary
    let cst = |id: u64, offset: u64| {
        Transaction::new(
            TxnId(id),
            ClientId(id),
            ringbft_store::rmw_ops(&[
                (ShardId(0), key_in(&cfg, 0, offset)),
                (ShardId(1), key_in(&cfg, 1, offset)),
                (ShardId(2), key_in(&cfg, 2, offset)),
            ]),
        )
    };
    let mut cluster = LocalCluster::launch(cfg.clone()).expect("launch cluster");

    // Phase 1: cross a checkpoint boundary with everyone alive.
    run_phase(&cluster, &cfg, (1..=6).map(|i| cst(i, 100 + i)).collect());

    // Phase 2: kill the victim; the shard keeps committing at quorum 3/4.
    cluster.kill_replica(victim);
    run_phase(&cluster, &cfg, (11..=16).map(|i| cst(i, 200 + i)).collect());

    // Phase 3: restart blank. New traffic pushes fresh checkpoints; the
    // revived replica learns a quorum-stable digest it is behind,
    // fetches the snapshot from a same-shard peer, installs it, and
    // replays the committed tail.
    cluster
        .restart_replica_blank(victim)
        .expect("restart victim");
    run_phase(&cluster, &cfg, (21..=30).map(|i| cst(i, 300 + i)).collect());

    // The revived replica installed a verified snapshot...
    let caught_up = cluster.wait_until(DEADLINE, |c| {
        c.with_replica(victim, |n| match n {
            ringbft_sim::AnyNode::Ring(r) => {
                r.recovery_stats().installs >= 1 && r.exec_watermark() > 0
            }
            _ => panic!("ring replica expected"),
        })
    });
    assert!(caught_up, "victim never installed a snapshot");
    cluster.with_replica(victim, |n| match n {
        ringbft_sim::AnyNode::Ring(r) => {
            let stats = r.recovery_stats();
            assert_eq!(stats.bad_digests, 0);
            // Full-snapshot fallback: a blank requester has no base any
            // donor recognizes, so its first install must ship a full
            // snapshot link (later top-ups may be delta chains).
            assert!(
                stats.full_installs >= 1,
                "blank restart did not receive a full snapshot: {stats:?}"
            );
        }
        _ => panic!("ring replica expected"),
    });

    // ...participates in committing new cross-shard transactions (its
    // own execution log advances past the snapshot it installed)...
    let participates = cluster.wait_until(DEADLINE, |c| {
        c.with_replica(victim, |n| match n {
            ringbft_sim::AnyNode::Ring(r) => {
                r.stats().executed_batches > 0 && r.exec_watermark() >= r.last_stable_seq()
            }
            _ => panic!("ring replica expected"),
        })
    });
    assert!(participates, "victim installed but never executed");

    // ...and converges to the same store as its shard peers once the
    // traffic quiesces.
    let converged = cluster.wait_until(DEADLINE, |c| {
        let prints: Vec<u64> = (0..4u32)
            .map(|i| {
                c.with_replica(ReplicaId::new(ShardId(1), i), |n| match n {
                    ringbft_sim::AnyNode::Ring(r) => r.store().state_fingerprint(),
                    _ => panic!("ring replica expected"),
                })
            })
            .collect();
        prints.windows(2).all(|w| w[0] == w[1])
    });
    assert!(converged, "revived replica's store diverged from its shard");

    // Ledger/log memory is truncated to the last stable checkpoint on
    // long-lived replicas.
    cluster.with_replica(ReplicaId::new(ShardId(0), 0), |n| match n {
        ringbft_sim::AnyNode::Ring(r) => {
            assert!(
                r.ledger().retained_blocks() < r.ledger().height(),
                "ledger never truncated ({} retained, height {})",
                r.ledger().retained_blocks(),
                r.ledger().height()
            );
            r.ledger().verify().expect("pruned chain verifies");
            assert!(r.last_stable_seq() > 0, "no stable checkpoint reached");
        }
        _ => panic!("ring replica expected"),
    });

    assert!(cluster.shutdown(), "cluster shutdown was not clean");
}

/// Acceptance test (ISSUE 3): one replica of a real-socket cluster is
/// made to miss the entire quorum traffic for a single sequence (every
/// Preprepare/Prepare/Commit for that sequence is suppressed at its
/// inbound boundary). The shard commits past it, the replica's
/// sequence-ordered admission wedges on the hole — and the hole-fetch
/// subsystem repairs it over TCP with a commit certificate from a
/// same-shard peer, with no checkpoint state transfer involved.
#[test]
fn commit_hole_repaired_via_certificate_fetch_over_tcp() {
    let _runtimes = shared_runtimes();
    let mut cfg = quick_cfg(2, 4);
    // A checkpoint window far wider than the traffic in this test: the
    // only repair path available is certificate fetch.
    cfg.checkpoint_interval = 512;
    let victim = ReplicaId::new(ShardId(0), 2); // a backup, not a primary
    let hole_seq = 3u64;
    let cluster = LocalCluster::launch(cfg.clone()).expect("launch cluster");
    cluster.set_inbound_filter(victim, move |_from, msg| {
        let AnyMsg::Ring(RingMsg::Pbft(p)) = msg else {
            return false;
        };
        matches!(
            p,
            PbftMsg::Preprepare { seq, .. }
            | PbftMsg::Prepare { seq, .. }
            | PbftMsg::Commit { seq, .. } if seq.0 == hole_seq
        )
    });

    // Single-shard traffic on shard 0 drives the sequence numbers past
    // the hole (the healthy 3/4 quorum confirms every transaction).
    let txns: Vec<Transaction> = (1..=8u64)
        .map(|i| {
            Transaction::new(
                TxnId(i),
                ClientId(i),
                ringbft_store::rmw_ops(&[(ShardId(0), key_in(&cfg, 0, 400 + i))]),
            )
        })
        .collect();
    run_phase(&cluster, &cfg, txns);

    // The fault injection actually engaged…
    let filtered = cluster
        .replica_runtimes()
        .find(|rt| rt.id() == NodeId::Replica(victim))
        .expect("victim runtime")
        .stats()
        .messages_filtered;
    assert!(filtered > 0, "no frames were suppressed at the victim");

    // …the victim repaired the hole with a fetched certificate and
    // resumed execution through it…
    let repaired = cluster.wait_until(DEADLINE, |c| {
        c.with_replica(victim, |n| match n {
            ringbft_sim::AnyNode::Ring(r) => {
                r.hole_stats().holes_filled >= 1 && r.exec_watermark() >= hole_seq
            }
            _ => panic!("ring replica expected"),
        })
    });
    assert!(repaired, "victim never repaired the hole via fetch");
    cluster.with_replica(victim, |n| match n {
        ringbft_sim::AnyNode::Ring(r) => {
            assert_eq!(r.hole_stats().bad_replies, 0, "a donor reply failed");
            assert_eq!(
                r.recovery_stats().installs,
                0,
                "fell back to snapshot transfer for a single lost sequence"
            );
        }
        _ => panic!("ring replica expected"),
    });

    // …and converges to the same store as its shard peers.
    let converged = cluster.wait_until(DEADLINE, |c| {
        let prints: Vec<u64> = (0..4u32)
            .map(|i| {
                c.with_replica(ReplicaId::new(ShardId(0), i), |n| match n {
                    ringbft_sim::AnyNode::Ring(r) => r.store().state_fingerprint(),
                    _ => panic!("ring replica expected"),
                })
            })
            .collect();
        prints.windows(2).all(|w| w[0] == w[1])
    });
    assert!(converged, "victim's store diverged after hole repair");

    assert!(cluster.shutdown(), "cluster shutdown was not clean");
}

/// Closed-loop workload over 3 shards: the simulator's own `SimClient`
/// drives sustained traffic through real sockets and completes
/// transactions continuously. Each replica runtime runs exactly one
/// thread, and every shard's replicas converge to identical stores.
#[test]
fn closed_loop_workload_sustains_throughput_over_tcp() {
    let _alone = RUNTIMES.write().unwrap_or_else(|e| e.into_inner());
    let mut cfg = quick_cfg(3, 4);
    cfg.clients = 24;
    cfg.cross_shard_rate = 0.3;
    let mut cluster = LocalCluster::launch(cfg).expect("launch cluster");
    let host = cluster
        .spawn_workload_host(42, 1_000_000, 24)
        .expect("spawn workload");

    let target = 60usize;
    let ok = cluster.wait_until(DEADLINE, |c| c.total_completions() >= target);
    let total = cluster.total_completions();
    assert!(
        ok,
        "workload stalled: {total}/{target} completions before the deadline"
    );

    // The ring forwarded cross-shard batches: some replica of shard 1
    // or 2 executed (cross-shard traffic visits shards in ring order).
    let executed_shards: HashSet<ShardId> = cluster
        .replica_runtimes()
        .filter(|rt| rt.executed_batches() > 0)
        .filter_map(|rt| rt.id().as_replica().map(|r| r.shard))
        .collect();
    assert!(
        executed_shards.len() >= 2,
        "expected cross-shard execution, saw {executed_shards:?}"
    );

    // Each runtime runs exactly one thread, its reactor, named as
    // `benchmark/` expects; checked under load, once every reactor has
    // started and named itself.
    let names = thread_names();
    for rt in cluster.replica_runtimes() {
        let id = rt.id();
        let own: Vec<&String> = names
            .iter()
            .filter(|name| name.starts_with(&format!("{id}-")))
            .collect();
        assert_eq!(
            own,
            [&format!("{id}-reactor0")],
            "{id}: threads of one runtime"
        );
    }

    // Once the load stops, the replicas of every shard hold identical
    // stores.
    assert!(cluster.shutdown_client(host), "workload host shutdown");
    let converged = cluster.wait_until(DEADLINE, |c| {
        (0..3u32).all(|s| {
            let prints: Vec<u64> = (0..4u32)
                .map(|i| {
                    c.with_replica(ReplicaId::new(ShardId(s), i), |n| {
                        ring(n).store().state_fingerprint()
                    })
                })
                .collect();
            prints.windows(2).all(|w| w[0] == w[1])
        })
    });
    assert!(converged, "a shard's stores diverged");
    assert!(cluster.shutdown(), "cluster shutdown was not clean");
}

/// Acceptance test (ISSUE 9): kill -9 with a durable write-ahead
/// ledger. A 3-shard × 4-replica TCP cluster runs with per-replica
/// file-backed WALs (`LocalCluster::launch_durable`, the in-process
/// twin of `ringbft-node --data-dir`); one replica is killed mid-run —
/// node state dropped, the on-disk log left exactly as the appends
/// landed, no clean-close record — and restarted from its log. The
/// replay must restore a durable stable checkpoint locally, the wire
/// top-up must stay under 25 % of the full-snapshot baseline a blank
/// restart would have moved, and the revived replica must reconverge
/// with its shard.
#[test]
fn replica_durable_restart_replays_wal_over_tcp() {
    let _runtimes = shared_runtimes();
    let mut cfg = quick_cfg(3, 4);
    cfg.checkpoint_interval = 4;
    let victim = ReplicaId::new(ShardId(1), 2); // a backup, not a primary
    let cst = |id: u64, offset: u64| {
        Transaction::new(
            TxnId(id),
            ClientId(id),
            ringbft_store::rmw_ops(&[
                (ShardId(0), key_in(&cfg, 0, offset)),
                (ShardId(1), key_in(&cfg, 1, offset)),
                (ShardId(2), key_in(&cfg, 2, offset)),
            ]),
        )
    };
    let dir = std::env::temp_dir().join(format!("ringbft-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = LocalCluster::launch_durable(cfg.clone(), &dir).expect("launch cluster");

    // Phase 1: cross checkpoint boundaries with everyone alive, so the
    // victim's log holds at least one durable stable checkpoint. Each
    // seed transaction touches a 40-key stripe per shard: the store the
    // durable checkpoint covers grows wide — the state a blank restart
    // would have to move over the wire and the local replay keeps off
    // it — without flooding consensus with hundreds of concurrent
    // transactions.
    let wide = |id: u64, base: u64| {
        let mut pairs = Vec::new();
        for s in 0..3u32 {
            for k in 0..40 {
                pairs.push((ShardId(s), key_in(&cfg, s, base + k)));
            }
        }
        Transaction::new(TxnId(id), ClientId(id), ringbft_store::rmw_ops(&pairs))
    };
    run_phase(
        &cluster,
        &cfg,
        (1..=8).map(|i| wide(i, 400 + (i - 1) * 40)).collect(),
    );
    run_phase(
        &cluster,
        &cfg,
        (101..=106).map(|i| cst(i, 100 + i)).collect(),
    );
    let stable_before_kill = cluster.wait_until(DEADLINE, |c| {
        c.with_replica(victim, |n| match n {
            ringbft_sim::AnyNode::Ring(r) => r.last_stable_seq() >= cfg.checkpoint_interval,
            _ => panic!("ring replica expected"),
        })
    });
    assert!(stable_before_kill, "no stable checkpoint before the kill");

    // Phase 2: kill -9 — the node state is dropped, the log is not
    // closed. The shard keeps committing at quorum 3/4.
    cluster.kill_replica(victim);
    run_phase(
        &cluster,
        &cfg,
        (111..=116).map(|i| cst(i, 200 + i)).collect(),
    );

    // Phase 3: restart from the on-disk log.
    let restart = cluster
        .restart_replica_durable(victim)
        .expect("durable restart");
    assert!(
        restart.recovered_seq >= cfg.checkpoint_interval,
        "replay restored no durable checkpoint: {restart:?}"
    );
    assert!(
        restart.bytes_replayed > 0,
        "nothing replayed from the log: {restart:?}"
    );
    assert!(
        !restart.clean_close,
        "a killed process must not leave a clean-close record: {restart:?}"
    );
    run_phase(
        &cluster,
        &cfg,
        (121..=130).map(|i| cst(i, 300 + i)).collect(),
    );

    // The revived replica rejoined and executed past its replayed
    // checkpoint.
    let caught_up = cluster.wait_until(DEADLINE, |c| {
        c.with_replica(victim, |n| match n {
            ringbft_sim::AnyNode::Ring(r) => r.exec_watermark() > restart.recovered_seq,
            _ => panic!("ring replica expected"),
        })
    });
    assert!(caught_up, "victim never executed past its replayed state");

    // The wire top-up stayed under 25 % of the blank-restart baseline
    // (a full-snapshot transfer of the victim's store), and nothing
    // unverified was ever accepted.
    cluster.with_replica(victim, |n| match n {
        ringbft_sim::AnyNode::Ring(r) => {
            let stats = r.recovery_stats();
            assert_eq!(stats.bad_digests, 0, "a verified chain failed: {stats:?}");
            let per = cfg.state_chunk_records.max(1);
            let mut baseline = ringbft_types::wire::state_plan_bytes(1);
            let mut left = r.store().len();
            while left > 0 {
                let take = left.min(per);
                baseline += ringbft_types::wire::state_chunk_bytes(take);
                left -= take;
            }
            let transferred = stats.bytes_delta + stats.bytes_full;
            assert!(
                4 * transferred < baseline,
                "durable restart transferred {transferred} bytes, \
                 ≥ 25% of the {baseline}-byte blank baseline: {stats:?}"
            );
        }
        _ => panic!("ring replica expected"),
    });

    // The shard's stores reconverge once the traffic quiesces — the
    // replayed state matches what the quorum agreed on.
    let converged = cluster.wait_until(DEADLINE, |c| {
        let prints: Vec<u64> = (0..4u32)
            .map(|i| {
                c.with_replica(ReplicaId::new(ShardId(1), i), |n| match n {
                    ringbft_sim::AnyNode::Ring(r) => r.store().state_fingerprint(),
                    _ => panic!("ring replica expected"),
                })
            })
            .collect();
        prints.windows(2).all(|w| w[0] == w[1])
    });
    assert!(converged, "revived replica's store diverged from its shard");

    // Clean shutdown closes every log: the victim's WAL replays with a
    // clean-close record and no torn tail.
    assert!(cluster.shutdown(), "cluster shutdown was not clean");
    let (_, recovered) =
        ringbft_recovery::ReplicaWal::open_file(dir.join(format!("{victim}.wal")), cfg.durability)
            .expect("reopen victim wal");
    assert!(
        recovered.clean_close,
        "clean shutdown did not close the log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The runtime contract now that the reactor owns its node: while a
/// workload runs, `with_node` lends the node to a closure that borrows
/// a local, both scrape routes answer off the reactor, `view_log`
/// answers, an inbound filter is in force from the moment
/// `set_inbound_filter` returns until `clear_inbound_filter` returns,
/// and `shutdown` hands the node back.
#[test]
fn reactor_owned_node_serves_every_accessor_under_load() {
    let _runtimes = shared_runtimes();
    let mut cfg = quick_cfg(1, 4);
    cfg.clients = 8;
    cfg.cross_shard_rate = 0.0;
    cfg.involved_shards = 1;
    let (peers, clock, auth) = (
        PeerTable::new(),
        Clock::start(),
        FrameAuth::from_seed(cfg.auth_seed),
    );
    let deployment = ringbft_sim::nodes::deployment(&cfg);
    let listeners: Vec<TcpListener> = deployment
        .iter()
        .map(|(r, _, _)| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
            peers.insert(NodeId::Replica(*r), listener.local_addr().expect("addr"));
            listener
        })
        .collect();
    let launch = |id: NodeId, node: AnyNode, listener: TcpListener| {
        NodeRuntime::launch(
            id,
            node,
            listener,
            peers.clone(),
            clock.clone(),
            auth.clone(),
        )
        .expect("launch runtime")
    };
    let replicas: Vec<NodeRuntime<AnyMsg, AnyNode>> = deployment
        .into_iter()
        .zip(listeners)
        .map(|((r, _, node), listener)| launch(NodeId::Replica(r), node, listener))
        .collect();
    let host = NodeId::Client(ClientId(3_000_000));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind host");
    peers.insert(host, listener.local_addr().expect("addr"));
    for c in 3_000_001..3_000_008 {
        peers.add_alias(NodeId::Client(ClientId(c)), host);
    }
    let client = SimClient::new(cfg.clone(), 11, 3_000_000, 8);
    let host = launch(host, AnyNode::Client(Box::new(client)), listener);
    let completions = || {
        host.with_node(|n| match n {
            AnyNode::Client(c) => c.completions.len(),
            _ => 0,
        })
    };
    assert!(eventually(|| completions() >= 20), "workload stalled");

    // A backup, so the shard keeps committing while it is filtered.
    let backup = &replicas[2];
    let mut executed = 0;
    backup.with_node(|n| executed = ring(n).stats().executed_batches);
    assert!(executed > 0, "the backup executed nothing");

    let addr = backup
        .serve_telemetry(
            TcpListener::bind("127.0.0.1:0").expect("bind telemetry"),
            standard_routes,
        )
        .expect("serve telemetry");
    let (status, body) = http_get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200, "/metrics: {body}");
    assert!(body.contains("\"id\":\"S0r2\""), "wrong node: {body}");
    let (status, body) = http_get(addr, "/trace").expect("scrape /trace");
    assert_eq!(status, 200, "/trace: {body}");

    let views = backup.view_log();
    assert!(views.windows(2).all(|w| w[0].0 <= w[1].0), "{views:?}");

    // From the return of `set_inbound_filter` on, nothing reaches the
    // node, so it cannot execute however much traffic it drops...
    backup.set_inbound_filter(|_, _| true);
    let (filtered, batches) = (backup.stats().messages_filtered, backup.executed_batches());
    assert!(
        eventually(|| backup.stats().messages_filtered >= filtered + 50),
        "the filter dropped nothing"
    );
    assert_eq!(
        backup.executed_batches(),
        batches,
        "the node executed behind a drop-everything filter"
    );
    // ...and from the return of `clear_inbound_filter` on, nothing is
    // filtered.
    backup.clear_inbound_filter();
    let (filtered, delivered) = (
        backup.stats().messages_filtered,
        backup.stats().messages_delivered,
    );
    assert!(
        eventually(|| backup.stats().messages_delivered >= delivered + 50),
        "delivery never resumed"
    );
    assert_eq!(backup.stats().messages_filtered, filtered);

    backup.with_node(|n| executed = ring(n).stats().executed_batches);
    assert!(host.shutdown().is_some(), "unclean workload host shutdown");
    for (i, rt) in replicas.into_iter().enumerate() {
        let node = rt.shutdown().expect("shutdown hands the node back");
        if i == 2 {
            assert!(ring(&node).stats().executed_batches >= executed);
        }
    }
}
