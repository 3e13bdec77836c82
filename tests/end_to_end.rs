//! End-to-end integration tests across crates: the full RingBFT stack
//! (types → crypto → pbft → store → ledger → core) driven through both
//! the synchronous test network and the WAN simulator.

use ringbft::core::testing::RingNet;
use ringbft::sim::Scenario;
use ringbft::store::rmw_ops;
use ringbft::types::txn::{RemoteRead, Transaction};
use ringbft::types::{ClientId, ProtocolKind, ShardId, SystemConfig, TxnId};

fn small_cfg(z: usize, n: usize) -> SystemConfig {
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, z, n);
    cfg.num_keys = 100 * z as u64;
    cfg.batch_size = 2;
    cfg
}

fn cst(cfg: &SystemConfig, id: u64, shards: &[u32], offset: u64) -> Transaction {
    let ops: Vec<(ShardId, u64)> = shards
        .iter()
        .map(|&s| (ShardId(s), cfg.key_range(ShardId(s)).start + offset))
        .collect();
    Transaction::new(TxnId(id), ClientId(id), rmw_ops(&ops))
}

#[test]
fn five_shards_seven_replicas_full_mix() {
    // Bigger shards (f = 2) with a mixed workload: every client confirmed,
    // state converges, chains verify.
    let cfg = small_cfg(5, 7);
    let mut net = RingNet::new(cfg.clone());
    let mut id = 1u64;
    for round in 0..3u64 {
        for s in 0..5u32 {
            let key = cfg.key_range(ShardId(s)).start + 50 + round;
            net.client_send(
                ClientId(id),
                Transaction::new(TxnId(id), ClientId(id), rmw_ops(&[(ShardId(s), key)])),
            );
            id += 1;
        }
        net.client_send(ClientId(id), cst(&cfg, id, &[0, 2, 4], 60 + round));
        id += 1;
        net.client_send(ClientId(id), cst(&cfg, id, &[1, 3], 70 + round));
        id += 1;
    }
    net.settle();
    for c in 1..id {
        assert_eq!(
            net.completed_digests(ClientId(c), 3).len(), // f+1 = 3
            1,
            "client {c} unconfirmed"
        );
    }
    for s in 0..5u32 {
        let prints: Vec<u64> = net
            .replicas
            .values()
            .filter(|r| r.id().shard == ShardId(s))
            .map(|r| r.store().state_fingerprint())
            .collect();
        assert!(
            prints.windows(2).all(|w| w[0] == w[1]),
            "shard {s} diverged"
        );
    }
    for r in net.replicas.values() {
        r.ledger().verify().unwrap();
        assert_eq!(r.lock_manager().held_len(), 0);
        assert_eq!(r.lock_manager().pending_len(), 0);
    }
}

#[test]
fn unequal_shard_sizes_are_supported() {
    // §4.3.6: shards may have different sizes; the linear primitive folds
    // replica indices modulo the target shard's size.
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
    cfg.shards[1].n = 7; // f = 2
    cfg.shards[2].n = 10; // f = 3
    cfg.num_keys = 300;
    cfg.batch_size = 2;
    cfg.validate().unwrap();
    let mut net = RingNet::new(cfg.clone());
    net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1, 2], 5));
    net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1, 2], 6));
    net.settle();
    assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    assert_eq!(net.completed_digests(ClientId(2), 2).len(), 1);
    for r in net.replicas.values() {
        assert_eq!(r.lock_manager().held_len(), 0);
    }
}

#[test]
fn complex_cst_dependency_values_agree_across_shards() {
    // A complex cst whose shard-0 fragment reads a shard-2 key: all
    // shard-0 replicas must fold the same remote value into their state.
    let cfg = small_cfg(3, 4);
    let mut net = RingNet::new(cfg.clone());
    let dep_key = cfg.key_range(ShardId(2)).start + 10;
    for id in 1..=2u64 {
        let t = cst(&cfg, id, &[0, 1, 2], 20).with_remote_reads(vec![RemoteRead {
            reader: ShardId(0),
            owner: ShardId(2),
            key: dep_key,
        }]);
        net.client_send(ClientId(id), t);
    }
    net.settle();
    assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    let prints: Vec<u64> = net
        .replicas
        .values()
        .filter(|r| r.id().shard == ShardId(0))
        .map(|r| r.store().state_fingerprint())
        .collect();
    assert!(prints.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn conflicting_csts_from_different_initiators_serialize() {
    // T1 over {0,1}, T2 over {1,2}: they conflict only at shard 1, whose
    // sequence numbers serialize them; replicas of shard 1 must converge.
    let cfg = small_cfg(3, 4);
    let hot = cfg.key_range(ShardId(1)).start + 3;
    let mut net = RingNet::new(cfg.clone());
    for id in 1..=4u64 {
        let shards: &[u32] = if id % 2 == 1 { &[0, 1] } else { &[1, 2] };
        let mut ops = vec![(
            ShardId(shards[0]),
            cfg.key_range(ShardId(shards[0])).start + id,
        )];
        ops.push((ShardId(1), hot)); // every txn hits the hot key
        if shards[1] != 1 {
            ops.push((
                ShardId(shards[1]),
                cfg.key_range(ShardId(shards[1])).start + id,
            ));
        }
        let t = Transaction::new(TxnId(id), ClientId(id), rmw_ops(&ops));
        net.client_send(ClientId(id), t);
    }
    net.settle();
    for c in 1..=4u64 {
        assert_eq!(net.completed_digests(ClientId(c), 2).len(), 1, "client {c}");
    }
    let prints: Vec<u64> = net
        .replicas
        .values()
        .filter(|r| r.id().shard == ShardId(1))
        .map(|r| r.store().state_fingerprint())
        .collect();
    assert!(prints.windows(2).all(|w| w[0] == w[1]), "shard 1 diverged");
    for r in net.replicas.values() {
        assert_eq!(r.lock_manager().held_len(), 0, "locks leak at {}", r.id());
    }
}

#[test]
fn wan_simulation_all_protocols_make_progress() {
    for kind in [
        ProtocolKind::RingBft,
        ProtocolKind::Sharper,
        ProtocolKind::Ahl,
    ] {
        let mut cfg = SystemConfig::uniform(kind, 3, 4);
        cfg.num_keys = 6_000;
        cfg.clients = 60;
        cfg.batch_size = 10;
        cfg.cross_shard_rate = 0.3;
        let r = Scenario::new(cfg, 5)
            .warmup_secs(1.0)
            .measure_secs(3.0)
            .run();
        assert!(r.completed_txns > 0, "{kind:?} stalled");
        assert!(
            r.avg_latency_s > 0.0 && r.avg_latency_s < 5.0,
            "{kind:?} latency {r:?}"
        );
    }
}

#[test]
fn open_loop_arrivals_drive_offered_load() {
    use ringbft::workload::arrivals::ArrivalProcess;
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
    cfg.num_keys = 2_000;
    cfg.clients = 40;
    cfg.batch_size = 5;
    cfg.cross_shard_rate = 0.2;
    let r = Scenario::new(cfg, 7)
        .warmup_secs(1.0)
        .measure_secs(4.0)
        .open_loop(ArrivalProcess::Poisson { rate_tps: 200.0 })
        .run();
    let ol = r.open_loop.expect("open-loop report");
    assert_eq!(ol.offered_tps, 200.0);
    // The realized offered load tracks the target: ~800 arrivals in a
    // 4 s window, Poisson-jittered.
    assert!(
        (600..=1000).contains(&(ol.issued_txns as i64)),
        "issued {}",
        ol.issued_txns
    );
    // Well under the knee, completions keep up with arrivals.
    assert!(
        r.completed_txns as f64 >= 0.7 * ol.issued_txns as f64,
        "only {} of {} completed",
        r.completed_txns,
        ol.issued_txns
    );
}

#[test]
fn adaptive_batching_cuts_partial_batches_when_pipe_is_idle() {
    // Two closed-loop clients against batch_size 50: the fixed policy
    // can only ship batches off the pool-flush timer, the adaptive
    // policy cuts immediately while the consensus pipe is idle. Same
    // seed, deterministic simulation — latency must drop, and the
    // controller's counter must show it fired.
    let base = {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        cfg.num_keys = 2_000;
        cfg.clients = 2;
        cfg.batch_size = 50;
        cfg.cross_shard_rate = 0.0;
        cfg
    };
    let fixed = Scenario::new(base.clone(), 11)
        .warmup_secs(1.0)
        .measure_secs(3.0)
        .run();
    let mut adaptive_cfg = base;
    adaptive_cfg.adaptive_batching = true;
    let adaptive = Scenario::new(adaptive_cfg, 11)
        .warmup_secs(1.0)
        .measure_secs(3.0)
        .run();
    assert!(fixed.completed_txns > 0 && adaptive.completed_txns > 0);
    assert_eq!(fixed.pipeline.batch_adaptive_flushes, 0);
    assert!(
        adaptive.pipeline.batch_adaptive_flushes > 0,
        "controller never fired"
    );
    assert!(
        adaptive.avg_latency_s < fixed.avg_latency_s,
        "adaptive {} >= fixed {}",
        adaptive.avg_latency_s,
        fixed.avg_latency_s
    );
}

#[test]
fn ring_order_invariance_under_shard_count() {
    // Same seed, growing ring: the system still completes work — sanity
    // across ring sizes (the rotation-hop count grows linearly).
    for z in [2usize, 4, 6] {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, z, 4);
        cfg.num_keys = 1_000 * z as u64;
        cfg.clients = 40;
        cfg.batch_size = 5;
        cfg.cross_shard_rate = 1.0;
        cfg.involved_shards = z;
        let r = Scenario::new(cfg, 2)
            .warmup_secs(1.0)
            .measure_secs(4.0)
            .run();
        assert!(r.completed_txns > 0, "z={z} stalled");
    }
}
