//! System configuration: shards, replication degree, fault thresholds,
//! workload knobs, and timer durations.
//!
//! Fault-tolerance requirement (§3): at each shard `S`, `n ≥ 3f + 1`.
//! Shards may have different sizes; the per-shard `f` is derived as
//! `⌊(n − 1) / 3⌋`.

use crate::ids::{ReplicaId, ShardId};
use crate::region::Region;
use crate::time::Duration;
use crate::txn::Key;
use serde::{Deserialize, Serialize};

/// Which consensus protocol the system runs. `RingBft`, `Ahl` and
/// `Sharper` are sharded protocols (Fig 8–10); the rest are single-shard
/// protocols used for the Figure 1 scalability comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// RingBFT — this paper's contribution.
    RingBft,
    /// AHL: reference committee + two-phase commit (Dang et al., SIGMOD'19).
    Ahl,
    /// Sharper: initiator primary + global all-to-all (Amiri et al.).
    Sharper,
    /// PBFT (Castro & Liskov).
    Pbft,
    /// Zyzzyva speculative BFT.
    Zyzzyva,
    /// SBFT collector-based BFT.
    Sbft,
    /// Proof-of-Execution.
    Poe,
    /// HotStuff linear 3-chain BFT.
    HotStuff,
    /// RCC: resilient concurrent consensus (multi-primary PBFT).
    Rcc,
}

impl ProtocolKind {
    /// Short display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::RingBft => "RingBFT",
            ProtocolKind::Ahl => "AHL",
            ProtocolKind::Sharper => "SharPer",
            ProtocolKind::Pbft => "PBFT",
            ProtocolKind::Zyzzyva => "Zyzzyva",
            ProtocolKind::Sbft => "SBFT",
            ProtocolKind::Poe => "PoE",
            ProtocolKind::HotStuff => "HotStuff",
            ProtocolKind::Rcc => "RCC",
        }
    }

    /// True for protocols that partition data across shards.
    pub fn is_sharded(self) -> bool {
        matches!(
            self,
            ProtocolKind::RingBft | ProtocolKind::Ahl | ProtocolKind::Sharper
        )
    }
}

/// Configuration of one shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Ring identifier.
    pub id: ShardId,
    /// Number of replicas `n` in this shard. Must satisfy `n ≥ 3f + 1`
    /// with `f ≥ 0`; meaningful Byzantine tolerance needs `n ≥ 4`.
    pub n: usize,
    /// GCP region hosting the shard's replicas.
    pub region: Region,
}

impl ShardConfig {
    /// Maximum tolerated Byzantine replicas: `f = ⌊(n − 1) / 3⌋`.
    #[inline]
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Number of non-faulty replicas assumed: `nf = n − f`. Quorums of
    /// `nf` matching messages drive the prepare/commit phases (Fig 5).
    #[inline]
    pub fn nf(&self) -> usize {
        self.n - self.f()
    }

    /// All replica ids of this shard.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.n as u32).map(move |i| ReplicaId::new(self.id, i))
    }
}

/// Timer durations (§5 "Triggering of Timers"): local < remote < transmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerConfig {
    /// Local replication watchdog (shortest; triggers view change).
    pub local: Duration,
    /// Remote watchdog on the previous shard (triggers remote view change).
    pub remote: Duration,
    /// Forward retransmission timer (longest).
    pub transmit: Duration,
    /// Client response watchdog.
    pub client: Duration,
}

impl Default for TimerConfig {
    fn default() -> Self {
        // Defaults sized for the simulated WAN (RTTs up to ~300 ms):
        // local 2 s < remote 4 s < transmit 6 s, client 8 s.
        TimerConfig {
            local: Duration::from_secs(2),
            remote: Duration::from_secs(4),
            transmit: Duration::from_secs(6),
            client: Duration::from_secs(8),
        }
    }
}

impl TimerConfig {
    /// Validates the paper's required ordering local < remote < transmit.
    pub fn is_well_ordered(&self) -> bool {
        self.local < self.remote && self.remote < self.transmit
    }
}

/// Checkpoint windows of delta snapshots (and quorum-stable digests)
/// the recovery subsystem retains per replica — and therefore the upper
/// bound on [`SystemConfig::full_snapshot_every`]: a sparser full-capture
/// cadence would break donor chain continuity between the full base and
/// the oldest retained delta. Defined here (rather than in
/// `ringbft-recovery`, which consumes it) so config validation and the
/// recovery manager's retention agree by compiler, not by comment.
pub const DELTA_CHAIN_KEEP: usize = 8;

/// When the replica's write-ahead log forces its records to durable
/// storage (`fsync`). Orthogonal to *what* is logged — commits,
/// checkpoint votes and checkpoint snapshots are always appended; the
/// knob only governs how much of the append tail a power-loss crash
/// may lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Durability {
    /// Never fsync explicitly. A process kill loses nothing (the OS
    /// holds the written bytes); a power loss may lose the whole
    /// un-synced tail. Restart then leans on the delta-chain transfer
    /// from the last record that did survive.
    None,
    /// Group commit: fsync at most once per this many milliseconds,
    /// driven by the replica's WAL flush timer. The paper-reproduction
    /// default — bounds the power-loss exposure window without paying
    /// an fsync per sequence.
    Batched(u64),
    /// fsync after every appended record. Crash-loss window of zero,
    /// at one fsync per append.
    Strict,
}

impl Default for Durability {
    /// Group commit every 50 ms.
    fn default() -> Self {
        Durability::Batched(50)
    }
}

impl Durability {
    /// The group-commit flush interval, if batching.
    pub fn batch_interval(self) -> Option<Duration> {
        match self {
            Durability::Batched(ms) => Some(Duration::from_millis(ms)),
            _ => None,
        }
    }
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Consensus protocol under test.
    pub protocol: ProtocolKind,
    /// Participating shards, indexed by ring position.
    pub shards: Vec<ShardConfig>,
    /// Transactions per consensus batch (paper standard: 100).
    pub batch_size: usize,
    /// Nagle-style adaptive batch flushing at the primary: while the
    /// consensus pipe is idle (no proposed-but-uncommitted slot and no
    /// in-flight execution job), a partial pool is cut and proposed
    /// immediately — batching only adds latency when there is nothing
    /// to amortize against. Once slots are in flight the pool grows
    /// toward `batch_size` exactly as with the fixed policy, so peak
    /// throughput is unchanged while light-load latency drops from the
    /// flush-timer bound to one round trip. Off (the default) keeps
    /// batch cuts byte-identical to the fixed `batch_size` + timer
    /// policy, which the fault-scenario seeds rely on.
    pub adaptive_batching: bool,
    /// Active YCSB key space (paper: 600 k records), partitioned across
    /// shards.
    pub num_keys: u64,
    /// Number of clients issuing transactions (paper standard: up to 50 k).
    pub clients: usize,
    /// Fraction of transactions that are cross-shard, `0.0..=1.0`
    /// (paper standard: 0.30).
    pub cross_shard_rate: f64,
    /// Number of involved shards per cross-shard transaction (paper
    /// standard: all shards).
    pub involved_shards: usize,
    /// Remote reads per complex cst (0 = simple csts only; Fig 10 varies
    /// 8–64).
    pub remote_reads: usize,
    /// Timer durations.
    pub timers: TimerConfig,
    /// Stable-checkpoint interval in consensus sequence numbers (§5,
    /// A3): every `checkpoint_interval`-th sequence triggers a
    /// checkpoint vote once executed, enabling log/ledger truncation and
    /// state transfer to in-dark replicas.
    pub checkpoint_interval: u64,
    /// Records per `StateChunk` during checkpoint state transfer
    /// (`ringbft-recovery`).
    pub state_chunk_records: usize,
    /// Checkpoint windows between *full* snapshot captures
    /// (`ringbft-recovery` delta checkpointing): in between, replicas
    /// capture only the records written since the previous checkpoint
    /// (O(churn) instead of O(state)), and state transfer ships the
    /// delta chain to laggards whose base the donor recognizes. `1`
    /// restores the pre-delta behaviour (every checkpoint is a full
    /// capture). Chains longer than the stable-digest memory
    /// (`ringbft-recovery`'s `KNOWN_STABLE_KEEP`) lose intermediate
    /// quorum anchors, so keep this ≤ 8.
    pub full_snapshot_every: u64,
    /// Seed of the deployment's key-distribution oracle
    /// (`ringbft_crypto::KeyStore`): every process of one cluster must
    /// share it so frame authenticators (HMACs, §3) verify.
    pub auth_seed: u64,
    /// Unused: nothing reads it, and [`SystemConfig::validate`] accepts
    /// only 1, because every `ringbft-net` runtime runs exactly one
    /// reactor thread per hosted node. The field stays only because the
    /// wall-clock benchmark assigns it; it goes with the benchmark
    /// change that ROADMAP P3 schedules.
    pub reactor_shards: usize,
    /// Unused: nothing reads it, and [`SystemConfig::validate`] accepts
    /// only 0, because a `ringbft-net` node runs one thread, its
    /// reactor, which verifies frames inline. Like `reactor_shards`,
    /// the field stays only because the wall-clock benchmark assigns
    /// it; it goes with the benchmark change that ROADMAP P3 schedules.
    pub pipeline_workers: usize,
    /// Ablation switch: send cross-shard Forward/Execute messages to
    /// *every* replica of the next shard instead of only the same-index
    /// counterpart. Quantifies the linear communication primitive's
    /// contribution (§4.3.6) — this is the communication pattern RingBFT
    /// explicitly avoids.
    pub ablation_quadratic_forward: bool,
    /// Ring-order rotation offset: the shard with this raw id occupies
    /// ring position 0. The paper's default policy is "lowest to highest
    /// identifier" (offset 0), but RingBFT "can also adopt other complex
    /// permutations of these identifiers" (§3); a rotation preserves the
    /// ring structure and hence every deadlock-freedom argument.
    pub ring_offset: u32,
    /// Causal-trace sampling rate: one in `trace_sample_rate`
    /// transactions carries a trace context and has spans stamped at
    /// every hop (`0` disables tracing, `1` traces everything). The
    /// decision is deterministic in the transaction id
    /// (`trace::sampled`), so both drivers and every replica agree on
    /// which transactions are traced.
    pub trace_sample_rate: u64,
    /// Write-ahead-log fsync policy (`ringbft-store`'s WAL): `none`,
    /// `batched(ms)` group commit, or `strict` per-record fsync. Only
    /// consulted when a replica actually runs with a WAL attached
    /// (`ringbft-node --data-dir`, durable sim scenarios).
    pub durability: Durability,
}

impl SystemConfig {
    /// A uniform system: `z` shards of `n` replicas each, placed in the
    /// paper's region order, with the paper's standard workload knobs.
    pub fn uniform(protocol: ProtocolKind, z: usize, n: usize) -> Self {
        assert!(z > 0, "need at least one shard");
        assert!(n >= 1, "need at least one replica per shard");
        let shards = (0..z)
            .map(|i| ShardConfig {
                id: ShardId(i as u32),
                n,
                region: Region::for_shard(i),
            })
            .collect();
        SystemConfig {
            protocol,
            shards,
            batch_size: 100,
            adaptive_batching: false,
            num_keys: 600_000,
            clients: 1_000,
            cross_shard_rate: 0.30,
            involved_shards: z,
            remote_reads: 0,
            timers: TimerConfig::default(),
            checkpoint_interval: 128,
            state_chunk_records: 4096,
            full_snapshot_every: 4,
            auth_seed: 0,
            reactor_shards: 1,
            pipeline_workers: 0,
            ablation_quadratic_forward: false,
            ring_offset: 0,
            trace_sample_rate: 64,
            durability: Durability::default(),
        }
    }

    /// Number of shards `z`.
    #[inline]
    pub fn z(&self) -> usize {
        self.shards.len()
    }

    /// Total replicas across all shards.
    pub fn total_replicas(&self) -> usize {
        self.shards.iter().map(|s| s.n).sum()
    }

    /// Shard configuration by id.
    #[inline]
    pub fn shard(&self, id: ShardId) -> &ShardConfig {
        &self.shards[id.index()]
    }

    /// The shard owning `key`: contiguous range partitioning of the key
    /// space, mirroring how the paper partitions the YCSB table so each
    /// shard "manages a unique partition of the data" (§3).
    pub fn shard_of_key(&self, key: Key) -> ShardId {
        let z = self.z() as u64;
        let per = self.num_keys.div_ceil(z);
        ShardId(((key % self.num_keys) / per) as u32)
    }

    /// Range of keys owned by `shard` (half-open).
    pub fn key_range(&self, shard: ShardId) -> std::ops::Range<Key> {
        let z = self.z() as u64;
        let per = self.num_keys.div_ceil(z);
        let lo = shard.0 as u64 * per;
        let hi = (lo + per).min(self.num_keys);
        lo..hi
    }

    /// The ring order in force (identity or rotated).
    pub fn ring_order(&self) -> crate::ring::RingOrder {
        crate::ring::RingOrder::rotated(self.z() as u32, self.ring_offset)
    }

    /// Validates structural invariants; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards.is_empty() {
            return Err("no shards configured".into());
        }
        if self.ring_offset as usize >= self.z().max(1) {
            return Err("ring_offset must be below the shard count".into());
        }
        for (i, s) in self.shards.iter().enumerate() {
            if s.id.index() != i {
                return Err(format!("shard at position {i} has id {}", s.id));
            }
            // Checked before anything computes `f = ⌊(n − 1) / 3⌋`; every
            // `n ≥ 1` then satisfies `n ≥ 3f + 1`.
            if s.n == 0 {
                return Err(format!("shard {} has no replicas", s.id));
            }
        }
        if !(0.0..=1.0).contains(&self.cross_shard_rate) {
            return Err("cross_shard_rate must be within [0, 1]".into());
        }
        if self.involved_shards == 0 || self.involved_shards > self.z() {
            return Err("involved_shards must be within 1..=z".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if !self.timers.is_well_ordered() {
            return Err("timers must satisfy local < remote < transmit".into());
        }
        if self.checkpoint_interval == 0 {
            return Err("checkpoint_interval must be positive".into());
        }
        if self.state_chunk_records == 0 {
            return Err("state_chunk_records must be positive".into());
        }
        if self.full_snapshot_every == 0 {
            return Err("full_snapshot_every must be positive".into());
        }
        if self.full_snapshot_every > DELTA_CHAIN_KEEP as u64 {
            return Err(format!(
                "full_snapshot_every must be within 1..={DELTA_CHAIN_KEEP} \
                 (the recovery subsystem's delta-chain memory)"
            ));
        }
        if self.num_keys < self.z() as u64 {
            return Err("need at least one key per shard".into());
        }
        if self.reactor_shards != 1 {
            return Err("reactor_shards must be 1 (one reactor thread per node)".into());
        }
        if self.pipeline_workers != 0 {
            return Err("pipeline_workers must be 0 (frames are verified on the reactor)".into());
        }
        if let Durability::Batched(ms) = self.durability {
            if ms == 0 || ms > 60_000 {
                return Err("durability batched interval must be within 1..=60000 ms".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_thresholds_match_paper() {
        // Paper standard: 28 replicas/shard → f = 9, nf = 19.
        let s = ShardConfig {
            id: ShardId(0),
            n: 28,
            region: Region::Oregon,
        };
        assert_eq!(s.f(), 9);
        assert_eq!(s.nf(), 19);
        // Classic 4-replica shard → f = 1, nf = 3.
        let s4 = ShardConfig {
            id: ShardId(0),
            n: 4,
            region: Region::Oregon,
        };
        assert_eq!(s4.f(), 1);
        assert_eq!(s4.nf(), 3);
    }

    #[test]
    fn uniform_config_is_valid_and_placed_in_order() {
        let cfg = SystemConfig::uniform(ProtocolKind::RingBft, 9, 28);
        cfg.validate().unwrap();
        assert_eq!(cfg.z(), 9);
        assert_eq!(cfg.total_replicas(), 252);
        assert_eq!(cfg.shard(ShardId(0)).region, Region::Oregon);
        assert_eq!(cfg.shard(ShardId(3)).region, Region::Netherlands);
    }

    #[test]
    fn key_partitioning_covers_space_disjointly() {
        let cfg = SystemConfig::uniform(ProtocolKind::RingBft, 7, 4);
        let mut counts = [0u64; 7];
        for key in (0..cfg.num_keys).step_by(1013) {
            let s = cfg.shard_of_key(key);
            counts[s.index()] += 1;
            assert!(cfg.key_range(s).contains(&key));
        }
        assert!(counts.iter().all(|&c| c > 0), "all shards own keys");
    }

    #[test]
    fn key_range_boundaries() {
        let cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        // 600k / 3 = 200k per shard.
        assert_eq!(cfg.key_range(ShardId(0)), 0..200_000);
        assert_eq!(cfg.key_range(ShardId(1)), 200_000..400_000);
        assert_eq!(cfg.key_range(ShardId(2)), 400_000..600_000);
        assert_eq!(cfg.shard_of_key(199_999), ShardId(0));
        assert_eq!(cfg.shard_of_key(200_000), ShardId(1));
    }

    #[test]
    fn reactor_shards_validated() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        assert_eq!(cfg.reactor_shards, 1);
        cfg.validate().unwrap();
        for bad in [0, 2, 65] {
            cfg.reactor_shards = bad;
            assert!(cfg.validate().is_err(), "{bad}");
        }
    }

    #[test]
    fn pipeline_workers_validated() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        assert_eq!(cfg.pipeline_workers, 0);
        cfg.validate().unwrap();
        for bad in [1, 4, 64] {
            cfg.pipeline_workers = bad;
            assert!(cfg.validate().is_err(), "{bad}");
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.cross_shard_rate = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.involved_shards = 4;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.batch_size = 0;
        assert!(cfg.validate().is_err());

        // A zero-replica shard, which must not reach `ShardConfig::f`.
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.shards[1].n = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.timers.local = Duration::from_secs(100);
        assert!(cfg.validate().is_err());

        // Delta checkpointing cadence: zero and beyond the recovery
        // manager's delta-chain memory are both rejected.
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.full_snapshot_every = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.full_snapshot_every = 9;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
        cfg.full_snapshot_every = 8;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn durability_knob_validated_and_defaulted() {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        assert_eq!(cfg.durability, Durability::Batched(50), "batched default");
        assert_eq!(
            cfg.durability.batch_interval(),
            Some(Duration::from_millis(50))
        );
        cfg.durability = Durability::Batched(0);
        assert!(cfg.validate().is_err());
        cfg.durability = Durability::Batched(60_001);
        assert!(cfg.validate().is_err());
        cfg.durability = Durability::Strict;
        assert!(Durability::Strict.batch_interval().is_none());
        cfg.validate().unwrap();
        cfg.durability = Durability::None;
        cfg.validate().unwrap();
    }

    #[test]
    fn timer_defaults_well_ordered() {
        assert!(TimerConfig::default().is_well_ordered());
    }

    #[test]
    fn protocol_names_match_legends() {
        assert_eq!(ProtocolKind::RingBft.name(), "RingBFT");
        assert_eq!(ProtocolKind::Sharper.name(), "SharPer");
        assert!(ProtocolKind::Ahl.is_sharded());
        assert!(!ProtocolKind::HotStuff.is_sharded());
    }
}
