//! Scenario harness: runs any of the nine protocols on the simulated
//! 15-region WAN and reports the metrics the paper plots.
//!
//! * [`msg`] — the unified message type with the paper's wire sizes and a
//!   CPU cost model.
//! * [`client`] — closed-loop clients with latency tracking and the A1
//!   timeout broadcast.
//! * [`nodes`] — adapters binding protocol state machines to the
//!   simulator.
//! * [`scenario`] — the [`Scenario`] builder / [`ScenarioReport`] output.

pub mod client;
pub mod msg;
pub mod nodes;
pub mod scenario;

pub use client::{Completion, SimClient};
pub use msg::AnyMsg;
pub use nodes::AnyNode;
pub use scenario::{
    scenario_quorum, DeltaTransferReport, DivergenceReport, DurableRestartReport, HoleReport,
    PhaseReport, PipelineReport, RecoveryReport, Scenario, ScenarioReport,
};

#[cfg(test)]
mod tests {
    use crate::Scenario;
    use ringbft_simnet::FaultPlan;
    use ringbft_types::{
        Duration, Instant, NodeId, ProtocolKind, ReplicaId, ShardId, SystemConfig,
    };

    fn quick(cfg: &mut SystemConfig) {
        cfg.num_keys = 6_000;
        cfg.clients = 40;
        cfg.batch_size = 10;
    }

    #[test]
    fn ringbft_single_shard_workload_progresses() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        quick(&mut cfg);
        cfg.cross_shard_rate = 0.0;
        let r = Scenario::new(cfg, 1)
            .warmup_secs(0.5)
            .measure_secs(2.0)
            .run();
        assert!(r.completed_txns > 0, "no txns completed: {r:?}");
        assert!(r.avg_latency_s > 0.0);
    }

    #[test]
    fn ringbft_cross_shard_workload_progresses() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        quick(&mut cfg);
        cfg.cross_shard_rate = 0.3;
        let r = Scenario::new(cfg, 1)
            .warmup_secs(0.5)
            .measure_secs(3.0)
            .run();
        assert!(r.completed_txns > 0, "no cst completed: {r:?}");
    }

    #[test]
    fn sharper_and_ahl_progress() {
        for kind in [ProtocolKind::Sharper, ProtocolKind::Ahl] {
            let mut cfg = SystemConfig::uniform(kind, 3, 4);
            quick(&mut cfg);
            cfg.cross_shard_rate = 0.3;
            let r = Scenario::new(cfg, 1)
                .warmup_secs(0.5)
                .measure_secs(3.0)
                .run();
            assert!(r.completed_txns > 0, "{kind:?} made no progress: {r:?}");
        }
    }

    #[test]
    fn single_shard_baselines_progress() {
        for kind in [
            ProtocolKind::Pbft,
            ProtocolKind::Zyzzyva,
            ProtocolKind::Sbft,
            ProtocolKind::Poe,
            ProtocolKind::HotStuff,
            ProtocolKind::Rcc,
        ] {
            let mut cfg = SystemConfig::uniform(kind, 1, 4);
            quick(&mut cfg);
            cfg.cross_shard_rate = 0.0;
            cfg.involved_shards = 1;
            let r = Scenario::new(cfg, 1)
                .warmup_secs(0.5)
                .measure_secs(2.0)
                .run();
            assert!(r.completed_txns > 0, "{kind:?} made no progress");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
            quick(&mut cfg);
            Scenario::new(cfg, 7)
                .warmup_secs(0.5)
                .measure_secs(1.5)
                .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed_txns, b.completed_txns);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.bytes_sent, b.bytes_sent);
    }

    #[test]
    fn primary_crash_recovers_via_view_change() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        quick(&mut cfg);
        cfg.cross_shard_rate = 0.0;
        // Tighter timers so recovery fits in the run.
        cfg.timers.local = Duration::from_millis(500);
        cfg.timers.remote = Duration::from_millis(1000);
        cfg.timers.transmit = Duration::from_millis(1500);
        cfg.timers.client = Duration::from_millis(2000);
        let crash_at = Instant::ZERO + Duration::from_secs(2);
        let faults =
            FaultPlan::none().crash(NodeId::Replica(ReplicaId::new(ShardId(0), 0)), crash_at);
        let r = Scenario::new(cfg, 3)
            .warmup_secs(1.0)
            .measure_secs(9.0)
            .with_faults(faults)
            .run();
        assert!(r.view_changes > 0, "no view change happened");
        // Throughput resumed after recovery: completions exist late in
        // the run.
        let late: f64 = r
            .timeline
            .iter()
            .filter(|(t, _)| *t >= 7.0)
            .map(|(_, n)| n)
            .sum();
        assert!(
            late > 0.0,
            "no completions after recovery: {:?}",
            r.timeline
        );
    }
}
