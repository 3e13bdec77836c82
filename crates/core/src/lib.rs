//! RingBFT — the paper's primary contribution.
//!
//! A meta-BFT protocol for sharded-replicated permissioned blockchains:
//! shards are arranged in a logical ring; every cross-shard transaction
//! visits its involved shards in ring order under the principle of
//! *process, forward, and re-transmit*, with strictly linear
//! shard-to-shard communication. See [`node::RingReplica`] for the replica
//! state machine and `crates/sim` for the WAN harness that drives it.

mod cst;
pub mod dedup;
mod intake;
pub mod messages;
pub mod node;
pub mod obs;
pub mod pipeline;
pub mod testing;

pub use messages::{ExecuteMsg, ForwardMsg, RingMsg};
pub use node::{ExecJob, ExecOutcome, RingReplica, RingStats};
pub use obs::{Phase, ReplicaObs};
pub use pipeline::{
    default_workers, InlinePipeline, Pipeline, PipelineJob, PoolStats, ThreadedPipeline, WorkerPool,
};

#[cfg(test)]
mod tests {
    use crate::messages::RingMsg;
    use crate::testing::RingNet;
    use ringbft_store::rmw_ops;
    use ringbft_types::txn::{RemoteRead, Transaction};
    use ringbft_types::{
        ClientId, NodeId, ProtocolKind, ReplicaId, ShardId, SystemConfig, TimerKind, TxnId,
    };

    /// Small, fast config: 3 shards × 4 replicas, 300 keys, batch 2.
    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.num_keys = 300;
        cfg.batch_size = 2;
        cfg
    }

    fn key_in(cfg: &SystemConfig, shard: u32, offset: u64) -> u64 {
        cfg.key_range(ShardId(shard)).start + offset
    }

    /// A single-shard RMW transaction on `shard`.
    fn single(cfg: &SystemConfig, id: u64, shard: u32, offset: u64) -> Transaction {
        Transaction::new(
            TxnId(id),
            ClientId(id),
            rmw_ops(&[(ShardId(shard), key_in(cfg, shard, offset))]),
        )
    }

    /// A cross-shard RMW transaction touching one key in each shard.
    fn cst(cfg: &SystemConfig, id: u64, shards: &[u32], offset: u64) -> Transaction {
        let ops: Vec<(ShardId, u64)> = shards
            .iter()
            .map(|&s| (ShardId(s), key_in(cfg, s, offset)))
            .collect();
        Transaction::new(TxnId(id), ClientId(id), rmw_ops(&ops))
    }

    #[test]
    fn single_shard_commits_and_replies() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.client_send(ClientId(1), single(&cfg, 1, 0, 1));
        net.client_send(ClientId(2), single(&cfg, 2, 0, 2));
        net.settle();
        // Both clients confirmed by ≥ f+1 = 2 replicas.
        let done1 = net.completed_digests(ClientId(1), 2);
        let done2 = net.completed_digests(ClientId(2), 2);
        assert_eq!(done1.len(), 1);
        assert_eq!(done1, done2, "batched together");
        // Only shard 0 executed anything.
        assert!(net.exec_log.iter().all(|(r, _, _)| r.shard == ShardId(0)));
        // Ledgers of shard 0 replicas grew and agree.
        let heads: Vec<_> = net
            .replicas
            .values()
            .filter(|r| r.id().shard == ShardId(0))
            .map(|r| r.ledger().head_hash())
            .collect();
        assert!(heads.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            net.replicas[&ReplicaId::new(ShardId(0), 0)]
                .ledger()
                .height(),
            2
        );
    }

    #[test]
    fn cross_shard_two_rotations_complete() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1, 2], 5));
        net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1, 2], 6));
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
        // Every involved shard executed the batch.
        for s in 0..3u32 {
            assert!(
                net.exec_log.iter().any(|(r, _, _)| r.shard == ShardId(s)),
                "shard {s} executed"
            );
        }
        // All locks released everywhere.
        for r in net.replicas.values() {
            assert_eq!(r.lock_manager().held_len(), 0, "{} locks leak", r.id());
        }
        // State is identical inside each shard.
        for s in 0..3u32 {
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
    }

    #[test]
    fn cross_shard_subset_of_shards() {
        // cst over shards {1, 2} — initiator is shard 1, not 0.
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.client_send(ClientId(7), cst(&cfg, 7, &[1, 2], 3));
        net.client_send(ClientId(8), cst(&cfg, 8, &[1, 2], 4));
        net.settle();
        assert_eq!(net.completed_digests(ClientId(7), 2).len(), 1);
        // Shard 0 executed nothing.
        assert!(net.exec_log.iter().all(|(r, _, _)| r.shard != ShardId(0)));
        // Replies come from shard 1 (the initiator).
        assert!(net.replies.iter().all(|r| r.from.shard == ShardId(1)));
    }

    #[test]
    fn conflicting_csts_serialize_identically() {
        // Two csts writing the same keys in shards 0 and 1, plus
        // interleaved single-shard traffic. All replicas of each shard
        // must converge to identical state (Consistence, Def 4.1).
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        for i in 0..4u64 {
            net.client_send(ClientId(10 + i), cst(&cfg, 10 + i, &[0, 1], 9));
        }
        for i in 0..4u64 {
            net.client_send(ClientId(20 + i), single(&cfg, 20 + i, 0, 9));
        }
        net.settle();
        for s in 0..2u32 {
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
            assert_eq!(r.lock_manager().held_len(), 0, "{} deadlocked", r.id());
            assert_eq!(r.lock_manager().pending_len(), 0, "{} stuck in π", r.id());
        }
        // All four cst clients confirmed.
        for i in 0..4u64 {
            assert_eq!(
                net.completed_digests(ClientId(10 + i), 2).len(),
                1,
                "cst client {i}"
            );
        }
    }

    #[test]
    fn complex_cst_resolves_remote_reads() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        // Shard 0's fragment depends on a key owned by shard 2.
        let dep_key = key_in(&cfg, 2, 42);
        let mk = |id: u64| {
            cst(&cfg, id, &[0, 1, 2], 11).with_remote_reads(vec![RemoteRead {
                reader: ShardId(0),
                owner: ShardId(2),
                key: dep_key,
            }])
        };
        net.client_send(ClientId(1), mk(1));
        net.client_send(ClientId(2), mk(2));
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
        // The written values at shard 0 depend on shard 2's key — state
        // still converges across replicas of shard 0.
        let prints: Vec<u64> = net
            .replicas
            .values()
            .filter(|r| r.id().shard == ShardId(0))
            .map(|r| r.store().state_fingerprint())
            .collect();
        assert!(prints.windows(2).all(|w| w[0] == w[1]));
        for r in net.replicas.values() {
            assert_eq!(r.lock_manager().held_len(), 0);
        }
    }

    #[test]
    fn request_to_wrong_shard_is_rerouted() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        // cst over {0,1,2} sent to shard 2's primary: must be relayed to
        // shard 0 (Fig 5 line 9).
        net.client_send_to(
            ClientId(1),
            ReplicaId::new(ShardId(2), 0),
            cst(&cfg, 1, &[0, 1, 2], 8),
        );
        net.client_send_to(
            ClientId(2),
            ReplicaId::new(ShardId(2), 0),
            cst(&cfg, 2, &[0, 1, 2], 7),
        );
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    }

    #[test]
    fn request_to_non_primary_is_relayed() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        // A1: send to a backup; it relays to the primary and watches it.
        net.client_send_to(
            ClientId(1),
            ReplicaId::new(ShardId(0), 2),
            single(&cfg, 1, 0, 1),
        );
        net.client_send_to(
            ClientId(2),
            ReplicaId::new(ShardId(0), 2),
            single(&cfg, 2, 0, 2),
        );
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    }

    /// A primary that is deposed drops its pool. Here a request pooled at
    /// r0 in view 0 is broadcast by its client, commits through r1 in
    /// view 1, and views advance until r0 is primary again (view 4): the
    /// stale pool must not be proposed, or the request executes twice.
    #[test]
    fn deposed_primary_does_not_repropose_its_pool() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 1, 4);
        cfg.num_keys = 100;
        cfg.batch_size = 2;
        let mut net = RingNet::new(cfg.clone());
        let r = |i: u64| ReplicaId::new(ShardId(0), (i % 4) as u32);
        // A commit in view 0, so the watchdogs below may demand view
        // changes.
        net.client_send(ClientId(10), single(&cfg, 10, 0, 10));
        net.client_send(ClientId(11), single(&cfg, 11, 0, 11));
        net.settle();
        // Request 1 reaches only r0 and waits in its pool.
        net.client_send_to(ClientId(1), r(0), single(&cfg, 1, 0, 1));
        net.deliver_all();
        // Each view's request is broadcast to the backups while the
        // primary hears none of it: their watches depose the primary and
        // the next one commits the re-relayed request.
        for view in 1..=4u64 {
            let deposed = NodeId::Replica(r(view - 1));
            net.drop_filter = Some(Box::new(move |_, to, m| {
                to == deposed && matches!(m, RingMsg::Request { .. })
            }));
            for i in view..view + 3 {
                net.client_send_to(ClientId(view), r(i), single(&cfg, view, 0, view));
            }
            net.deliver_all();
            net.fire_all_timers(TimerKind::Local);
            net.deliver_all();
            net.drop_filter = None;
            net.settle();
            assert!(
                net.replicas.values().all(|x| x.view().0 == view),
                "view {view} not entered: {:?}",
                net.view_log
            );
            assert_eq!(net.completed_digests(ClientId(view), 2).len(), 1);
        }
        assert!(net.replicas[&r(0)].is_primary());
        let key = key_in(&cfg, 0, 1);
        for x in net.replicas.values() {
            let version = x.store().get(key).map(|rec| rec.version);
            assert_eq!(version, Some(1), "{} executed request 1 twice", x.id());
        }
    }

    #[test]
    fn no_communication_recovered_by_retransmission() {
        // C1: all Forwards from shard 0 to shard 1 vanish initially; the
        // transmit timer re-sends them and the cst completes.
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.drop_filter = Some(Box::new(|from, _, m| {
            matches!(m, RingMsg::Forward(_))
                && matches!(from, NodeId::Replica(r) if r.shard == ShardId(0))
        }));
        net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1], 2));
        net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1], 3));
        net.settle();
        assert!(net.completed_digests(ClientId(1), 2).is_empty());
        // Heal the network; fire the transmit timers.
        net.drop_filter = None;
        assert!(net.fire_all_timers(TimerKind::Transmit) > 0);
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    }

    #[test]
    fn partial_communication_recovered_by_complaint_retransmission() {
        // C2 with an unreliable network: shard 0 *did* replicate, but only
        // one replica's Forward survives (f = 1 needs f+1 = 2 matching).
        // Shard 1's remote timers expire → RemoteView complaints → shard 0
        // recognises it holds the commit and re-transmits (§5.1.1); no
        // view change is needed.
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.drop_filter = Some(Box::new(|from, _, m| {
            matches!(m, RingMsg::Forward(_))
                && matches!(from, NodeId::Replica(r) if r.shard == ShardId(0) && r.index != 3)
        }));
        net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1], 2));
        net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1], 3));
        net.settle();
        assert!(net.completed_digests(ClientId(1), 2).is_empty());
        // Remote timers at shard 1 fire → complaints to shard 0 → heal
        // the network → retransmissions complete the cst without any view
        // change.
        net.drop_filter = None;
        let fired = net.fire_all_timers(TimerKind::Remote);
        assert!(fired > 0, "remote timers armed at shard 1");
        net.settle();
        assert!(
            net.view_log.iter().all(|(r, _)| r.shard != ShardId(0)),
            "needless view change at shard 0: {:?}",
            net.view_log
        );
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    }

    #[test]
    fn suppressed_replication_triggers_remote_view_change() {
        // C2 with a suppressing primary: at most f non-faulty replicas of
        // shard 0 commit (Commit messages reach only replica 3). The next
        // shard starves, complains, and — because shard 0's other replicas
        // do NOT hold the commit — shard 0 view-changes (Fig 6).
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.drop_filter = Some(Box::new(|_, to, m| {
            matches!(m, RingMsg::Pbft(ringbft_pbft::PbftMsg::Commit { .. }))
                && matches!(to, NodeId::Replica(r) if r.shard == ShardId(0) && r.index != 3)
        }));
        net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1], 2));
        net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1], 3));
        net.settle();
        assert!(net.completed_digests(ClientId(1), 2).is_empty());
        net.drop_filter = None;
        // Shard 1 received at most one Forward (< f+1): complaints flow.
        let fired = net.fire_all_timers(TimerKind::Remote);
        assert!(fired > 0, "remote timers armed at shard 1");
        net.settle();
        assert!(
            net.view_log
                .iter()
                .any(|(r, v)| r.shard == ShardId(0) && *v >= 1),
            "no view change at shard 0: {:?}",
            net.view_log
        );
        // Post view change the re-proposed cst commits and completes
        // (local timers of the uncommitted replicas may need to fire).
        net.fire_all_timers(TimerKind::Transmit);
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    }

    #[test]
    fn ledgers_contain_cross_shard_block_everywhere() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1, 2], 5));
        net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1, 2], 6));
        net.settle();
        let digest = net.completed_digests(ClientId(1), 2)[0];
        for r in net.replicas.values() {
            assert_eq!(
                r.ledger().find_by_root(&digest).len(),
                1,
                "{} missing the cst block",
                r.id()
            );
            r.ledger().verify().unwrap();
        }
    }

    #[test]
    fn mixed_workload_many_batches() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        let mut id = 1u64;
        for round in 0..5u64 {
            for s in 0..3u32 {
                net.client_send(ClientId(id), single(&cfg, id, s, 20 + round));
                id += 1;
            }
            net.client_send(ClientId(id), cst(&cfg, id, &[0, 1, 2], 30 + round));
            id += 1;
        }
        net.settle();
        // Every client eventually confirmed.
        for c in 1..id {
            assert_eq!(
                net.completed_digests(ClientId(c), 2).len(),
                1,
                "client {c} unconfirmed"
            );
        }
        for r in net.replicas.values() {
            assert_eq!(r.lock_manager().held_len(), 0);
            assert_eq!(r.lock_manager().pending_len(), 0);
        }
    }
    #[test]
    fn ablation_quadratic_forward_still_correct() {
        // The ablation changes the communication pattern, not semantics:
        // csts still complete and state still converges.
        let mut cfg = small_cfg();
        cfg.ablation_quadratic_forward = true;
        let mut net = RingNet::new(cfg.clone());
        net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1, 2], 5));
        net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1, 2], 6));
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
        for s in 0..3u32 {
            let prints: Vec<u64> = net
                .replicas
                .values()
                .filter(|r| r.id().shard == ShardId(s))
                .map(|r| r.store().state_fingerprint())
                .collect();
            assert!(prints.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn complex_cst_execute_loss_recovered_by_retransmission() {
        // Drop all Execute messages between shards initially (rotation
        // two stalls), then heal and fire transmit timers: the complex
        // cst completes.
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.drop_filter = Some(Box::new(|_, _, m| matches!(m, RingMsg::Execute(_))));
        let dep_key = cfg.key_range(ShardId(2)).start + 42;
        for id in 1..=2u64 {
            let t = cst(&cfg, id, &[0, 1, 2], 11).with_remote_reads(vec![RemoteRead {
                reader: ShardId(0),
                owner: ShardId(2),
                key: dep_key,
            }]);
            net.client_send(ClientId(id), t);
        }
        net.settle();
        assert!(net.completed_digests(ClientId(1), 2).is_empty());
        net.drop_filter = None;
        assert!(net.fire_all_timers(TimerKind::Transmit) > 0);
        net.settle();
        // One more retransmission round may be needed for the wrap-around.
        net.fire_all_timers(TimerKind::Transmit);
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
        for r in net.replicas.values() {
            assert_eq!(r.lock_manager().held_len(), 0);
        }
    }

    #[test]
    fn duplicate_and_late_forwards_are_ignored() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        net.client_send(ClientId(1), cst(&cfg, 1, &[0, 1], 2));
        net.client_send(ClientId(2), cst(&cfg, 2, &[0, 1], 3));
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
        let before = net.replies.len();
        // Fire any lingering transmit timers: retransmitted Forwards for
        // finished csts must not re-execute or re-reply.
        net.fire_all_timers(TimerKind::Transmit);
        net.settle();
        let exec_before = net.exec_log.len();
        net.fire_all_timers(TimerKind::Transmit);
        net.settle();
        assert_eq!(net.exec_log.len(), exec_before, "late forward re-executed");
        // Replies may be re-sent to clients (idempotent) but completions
        // per digest stay one.
        assert!(net.replies.len() >= before);
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
    }

    #[test]
    fn single_shard_only_workload_never_forwards() {
        let cfg = small_cfg();
        let mut net = RingNet::new(cfg.clone());
        for id in 1..=6u64 {
            net.client_send(ClientId(id), single(&cfg, id, (id % 3) as u32, id));
        }
        net.settle();
        for r in net.replicas.values() {
            assert_eq!(r.stats().forwards_sent, 0, "{} forwarded", r.id());
            assert_eq!(r.stats().executes_sent, 0);
        }
        for id in 1..=6u64 {
            assert_eq!(net.completed_digests(ClientId(id), 2).len(), 1);
        }
    }
}

#[cfg(test)]
mod ring_rotation_tests {
    use crate::testing::RingNet;
    use ringbft_store::rmw_ops;
    use ringbft_types::txn::Transaction;
    use ringbft_types::{ClientId, ProtocolKind, ShardId, SystemConfig, TxnId};

    #[test]
    fn rotated_ring_changes_initiator_and_still_completes() {
        // With ring_offset = 2, the ring order is 2,3,0,1 — the initiator
        // of a {0,2} cst becomes shard 2 instead of shard 0. §3: any
        // permutation of the ring preserves correctness.
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 4, 4);
        cfg.num_keys = 400;
        cfg.batch_size = 2;
        cfg.ring_offset = 2;
        cfg.validate().unwrap();
        let ring = cfg.ring_order();
        assert_eq!(ring.first(&[ShardId(0), ShardId(2)]), ShardId(2));

        let mut net = RingNet::new(cfg.clone());
        for id in 1..=2u64 {
            let t = Transaction::new(
                TxnId(id),
                ClientId(id),
                rmw_ops(&[
                    (ShardId(0), cfg.key_range(ShardId(0)).start + id),
                    (ShardId(2), cfg.key_range(ShardId(2)).start + id),
                ]),
            );
            net.client_send(ClientId(id), t);
        }
        net.settle();
        assert_eq!(net.completed_digests(ClientId(1), 2).len(), 1);
        // Replies come from the rotated initiator: shard 2.
        assert!(net.replies.iter().all(|r| r.from.shard == ShardId(2)));
        for r in net.replicas.values() {
            assert_eq!(r.lock_manager().held_len(), 0);
        }
    }

    #[test]
    fn invalid_ring_offset_rejected() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.ring_offset = 3;
        assert!(cfg.validate().is_err());
    }
}

#[cfg(test)]
mod pipeline_tests {
    //! The execution-stage contracts the CI gate relies on: a blocking
    //! threaded stage is observably identical to the inline one (the
    //! determinism twin), conflicting sequences retain strict order, and
    //! lock-disjoint sequences may execute off-thread in any completion
    //! order without changing final state.

    use crate::pipeline::ThreadedPipeline;
    use crate::testing::RingNet;
    use ringbft_crypto::Digest;
    use ringbft_store::rmw_ops;
    use ringbft_types::txn::Transaction;
    use ringbft_types::{ClientId, ProtocolKind, ReplicaId, ShardId, SystemConfig, TxnId};

    fn small_cfg(workers: usize) -> SystemConfig {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.num_keys = 300;
        cfg.batch_size = 2;
        cfg.pipeline_workers = workers;
        cfg
    }

    fn key_in(cfg: &SystemConfig, shard: u32, offset: u64) -> u64 {
        cfg.key_range(ShardId(shard)).start + offset
    }

    fn single(cfg: &SystemConfig, id: u64, shard: u32, offset: u64) -> Transaction {
        Transaction::new(
            TxnId(id),
            ClientId(id),
            rmw_ops(&[(ShardId(shard), key_in(cfg, shard, offset))]),
        )
    }

    fn cst(cfg: &SystemConfig, id: u64, shards: &[u32], offset: u64) -> Transaction {
        let ops: Vec<(ShardId, u64)> = shards
            .iter()
            .map(|&s| (ShardId(s), key_in(cfg, s, offset)))
            .collect();
        Transaction::new(TxnId(id), ClientId(id), rmw_ops(&ops))
    }

    fn fingerprints(net: &RingNet) -> Vec<(ReplicaId, u64)> {
        net.replicas
            .iter()
            .map(|(id, r)| (*id, r.store().state_fingerprint()))
            .collect()
    }

    fn ledger_heads(net: &RingNet) -> Vec<(ReplicaId, Digest)> {
        net.replicas
            .iter()
            .map(|(id, r)| (*id, r.ledger().head_hash()))
            .collect()
    }

    /// Drives the standard mixed workload (5 rounds of three singles and
    /// one 3-shard cst) and returns every observable artifact of the run.
    #[allow(clippy::type_complexity)]
    fn run_mixed(
        workers: usize,
    ) -> (
        Vec<(ReplicaId, u64, u32)>,
        Vec<(ReplicaId, u64)>,
        Vec<(ReplicaId, Digest)>,
        Vec<crate::testing::ObservedReply>,
    ) {
        let cfg = small_cfg(workers);
        let mut net = RingNet::new(cfg.clone());
        let mut id = 1u64;
        for round in 0..5u64 {
            for s in 0..3u32 {
                net.client_send(ClientId(id), single(&cfg, id, s, 20 + round));
                id += 1;
            }
            net.client_send(ClientId(id), cst(&cfg, id, &[0, 1, 2], 30 + round));
            id += 1;
        }
        net.settle();
        for c in 1..id {
            assert_eq!(
                net.completed_digests(ClientId(c), 2).len(),
                1,
                "client {c} unconfirmed at workers={workers}"
            );
        }
        (
            net.exec_log.clone(),
            fingerprints(&net),
            ledger_heads(&net),
            net.replies.clone(),
        )
    }

    /// The determinism twin: a blocking threaded stage finishes every job
    /// at submit time, so the full observable trace — execution order,
    /// store fingerprints, ledger heads, and the exact reply stream — is
    /// identical to the inline stage, at any worker count.
    #[test]
    fn blocking_threaded_twin_is_byte_identical_to_inline() {
        let inline = run_mixed(0);
        let one = run_mixed(1);
        let four = run_mixed(4);
        assert_eq!(inline, one, "workers=1 twin diverged from inline");
        assert_eq!(inline, four, "workers=4 twin diverged from inline");
    }

    /// Conflicting sequences are never in flight together (the lock
    /// manager admits a writer only after its predecessor's outcome is
    /// applied), so a hot key advances its version once per transaction
    /// in strict sequence order regardless of the stage behind it.
    #[test]
    fn conflicting_sequences_retain_strict_order() {
        let run = |workers: usize| {
            let cfg = small_cfg(workers);
            let mut net = RingNet::new(cfg.clone());
            for id in 1..=8u64 {
                net.client_send(ClientId(id), single(&cfg, id, 1, 7));
            }
            net.settle();
            for id in 1..=8u64 {
                assert_eq!(net.completed_digests(ClientId(id), 2).len(), 1);
            }
            let hot = key_in(&cfg, 1, 7);
            let rec = net.replicas[&ReplicaId::new(ShardId(1), 0)]
                .store()
                .get(hot)
                .expect("hot key written");
            assert_eq!(rec.version, 8, "one version bump per conflicting txn");
            for r in net.replicas.values() {
                assert_eq!(r.lock_manager().held_len(), 0);
                assert_eq!(r.lock_manager().pending_len(), 0);
            }
            (fingerprints(&net), rec)
        };
        let (inline_prints, inline_rec) = run(0);
        let (threaded_prints, threaded_rec) = run(2);
        assert_eq!(inline_prints, threaded_prints);
        assert_eq!(inline_rec, threaded_rec);
    }

    fn xorshift(s: &mut u64) -> u64 {
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x
    }

    /// Property test: under an *async* threaded stage (outcomes applied
    /// at pump time, not submit time), lock-disjoint workloads converge
    /// to exactly the inline final state for every seed — parallel
    /// completion order never leaks into the store.
    #[test]
    fn lock_disjoint_async_execution_matches_inline() {
        for seed in 1..=6u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            // Disjoint by construction: every txn gets a distinct offset,
            // and shards own disjoint key ranges.
            let picks: Vec<(u32, u64)> = (0..12u64)
                .map(|i| ((xorshift(&mut s) % 3) as u32, i))
                .collect();

            let cfg = small_cfg(0);
            let mut inline = RingNet::new(cfg.clone());
            let mut threaded = RingNet::new(cfg.clone());
            for r in threaded.replicas.values_mut() {
                r.install_pipeline(Box::new(ThreadedPipeline::new("texec", 2)));
                assert_eq!(r.pipeline_workers(), 2);
            }

            for (id0, (shard, offset)) in picks.iter().enumerate() {
                let id = id0 as u64 + 1;
                inline.client_send(ClientId(id), single(&cfg, id, *shard, *offset));
                threaded.client_send(ClientId(id), single(&cfg, id, *shard, *offset));
            }
            inline.settle();
            threaded.settle_pumped();

            assert_eq!(
                fingerprints(&inline),
                fingerprints(&threaded),
                "seed {seed}: async stage diverged"
            );
            for id in 1..=picks.len() as u64 {
                assert_eq!(
                    inline.completed_digests(ClientId(id), 2),
                    threaded.completed_digests(ClientId(id), 2),
                    "seed {seed}: client {id} confirmations differ"
                );
            }
            let mut a = inline.exec_log.clone();
            let mut b = threaded.exec_log.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed}: executed batches differ");
            for r in threaded.replicas.values() {
                assert_eq!(r.lock_manager().held_len(), 0);
                assert_eq!(r.lock_manager().pending_len(), 0);
            }
        }
    }

    /// The pipeline instruments surface through the replica registry:
    /// `pipeline.exec_jobs` counts this replica's pipelined batches and
    /// the pool gauges reflect the configured worker count.
    #[test]
    fn pipeline_metrics_exported() {
        let cfg = small_cfg(1);
        let mut net = RingNet::new(cfg.clone());
        for id in 1..=6u64 {
            net.client_send(ClientId(id), single(&cfg, id, 0, id));
        }
        net.settle();
        let primary = ReplicaId::new(ShardId(0), 0);
        let executed = net
            .exec_log
            .iter()
            .filter(|(r, _, _)| *r == primary)
            .count() as u64;
        assert!(executed > 0);
        let rep = &net.replicas[&primary];
        let jobs = rep.obs().reg.counter_by_name("pipeline.exec_jobs");
        let workers = rep.obs().reg.gauge_by_name("pipeline.workers");
        assert_eq!(jobs, Some(executed));
        assert_eq!(workers, Some(1));
        let snap = rep.obs().reg.snapshot_json();
        for name in [
            "pipeline.exec_jobs",
            "pipeline.exec_parallel_batches",
            "pipeline.worker_busy_ns",
        ] {
            assert!(snap.contains(name), "{name} missing from snapshot");
        }
    }
}
