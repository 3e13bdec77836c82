//! What the benchmark runs and what it reports: the four workloads and
//! the metric catalogue. `BENCHMARK.json` at the repository root repeats
//! the names, units and bounds; `tests/catalogue.rs` keeps the two equal.

use ringbft_types::{Duration, ProtocolKind, SystemConfig};

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `clients` logical clients, one request in flight each: the next is
    /// sent when the previous one reaches its reply quorum.
    Closed { clients: u64 },
    /// Poisson arrivals at `rate_tps` on an absolute schedule, whether or
    /// not earlier requests completed.
    Open { rate_tps: f64 },
}

/// One workload: a topology, a traffic mix and a state size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; the README has the paragraph).
    pub why: &'static str,
    pub shards: usize,
    pub cross_shard_rate: f64,
    pub num_keys: u64,
    pub load: Load,
    /// File-backed write-ahead ledger on every replica.
    pub durable: bool,
}

/// Logical clients of the closed-loop workload (= requests in flight).
pub const CLOSED_CLIENTS: u64 = 512;

/// Logical client ids an open-loop generator cycles through. Replicas
/// refuse a request older than the client's last committed one, so a
/// client must not have two requests racing through different shards:
/// at 12 000 tps a client id comes round every 340 ms, far beyond any
/// latency these workloads produce.
pub const OPEN_CLIENTS: u64 = 4096;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "single_sat",
        why: "1x4 closed loop, 512 clients, 8000 keys: saturates the primary (pbft, codec, MACs); capacity is read here",
        shards: 1,
        cross_shard_rate: 0.0,
        num_keys: 8_000,
        load: Load::Closed {
            clients: CLOSED_CLIENTS,
        },
        durable: false,
    },
    Workload {
        name: "single_open",
        why: "same cluster at a fixed Poisson 12000 tps (about 45% of capacity): batch-fill and queue-wait latency that saturation hides",
        shards: 1,
        cross_shard_rate: 0.0,
        num_keys: 8_000,
        load: Load::Open { rate_tps: 12_000.0 },
        durable: false,
    },
    Workload {
        name: "cst_open",
        why: "2x4, 30% cross-shard, Poisson 8000 tps: the only workload with the ring Forward hop and cross-shard locks on the path",
        shards: 2,
        cross_shard_rate: 0.30,
        num_keys: 8_000,
        load: Load::Open { rate_tps: 8_000.0 },
        durable: false,
    },
    Workload {
        name: "durable_big",
        why: "single_open traffic on 120000 keys with a file WAL: WAL appends, fsync and O(keys) checkpoint digests go from idle to busy",
        shards: 1,
        cross_shard_rate: 0.0,
        num_keys: 120_000,
        load: Load::Open { rate_tps: 12_000.0 },
        durable: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Causal-trace sampling of the traced run (one transaction in 64).
pub const TRACE_SAMPLE_RATE: u64 = 64;

impl Workload {
    /// The cluster configuration: RingBFT, n = 4 per shard, batches of 50,
    /// fixed batching, everything inline on one reactor per node, and the
    /// default 2/4/6/8 s timers so a fault-free run has no view change.
    pub fn config(&self, seed: u64, traced: bool) -> SystemConfig {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, self.shards, 4);
        cfg.batch_size = 50;
        cfg.adaptive_batching = false;
        cfg.num_keys = self.num_keys;
        cfg.clients = match self.load {
            Load::Closed { clients } => clients as usize,
            Load::Open { .. } => OPEN_CLIENTS as usize,
        };
        cfg.cross_shard_rate = self.cross_shard_rate;
        cfg.involved_shards = self.shards;
        cfg.timers.local = Duration::from_secs(2);
        cfg.timers.remote = Duration::from_secs(4);
        cfg.timers.transmit = Duration::from_secs(6);
        cfg.timers.client = Duration::from_secs(8);
        cfg.auth_seed = seed;
        cfg.reactor_shards = 1;
        cfg.pipeline_workers = 0;
        cfg.trace_sample_rate = if traced { TRACE_SAMPLE_RATE } else { 0 };
        cfg
    }

    pub fn nominal_tps(&self) -> Option<f64> {
        match self.load {
            Load::Open { rate_tps } => Some(rate_tps),
            Load::Closed { .. } => None,
        }
    }
}

/// The phases of one measured run, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Load runs, nothing is measured.
    pub warmup: f64,
    /// Requests due (open loop) or sent (closed loop) here are measured.
    pub window: f64,
    /// The generator keeps running this long after the window, so the
    /// window's last requests complete under the load they arrived in.
    pub cooldown: f64,
    /// Then no new requests: the last partial batch waits for the
    /// primary's pool-flush timer (`timers.local / 4` = 0.5 s).
    pub quiet: f64,
}

impl Phases {
    /// The untraced run measuring for `seconds`.
    pub fn untraced(seconds: f64) -> Phases {
        Phases {
            warmup: 2.0,
            window: seconds,
            cooldown: 0.3,
            quiet: 0.9,
        }
    }

    /// One arm of the traced run: both arms together measure `seconds`.
    pub fn traced_arm(seconds: f64) -> Phases {
        Phases {
            warmup: 1.5,
            window: seconds / 2.0,
            cooldown: 0.3,
            quiet: 0.9,
        }
    }

    /// When the generator stops, from client start.
    pub fn issue_until(&self) -> f64 {
        self.warmup + self.window + self.cooldown
    }

    pub fn total(&self) -> f64 {
        self.issue_until() + self.quiet
    }
}

/// Counted set-ups per untraced run (an uncounted rehearsal precedes
/// them); `setup_s` is their median.
pub const SETUP_TRIALS: usize = 5;

/// Measured metrics by catalogue name. `None` when the workload never
/// exercises what the metric measures (no cross-shard phase without
/// cross-shard traffic), which is different from measuring zero.
pub type Values = Vec<(&'static str, Option<f64>)>;

pub fn value(values: &Values, name: &str) -> Option<f64> {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, v)| *v)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the cluster sees. Measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("goodput_tps", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_p90_ms", "ms", Lower, 0.25),
    e2e("cpu_us_per_txn", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// One layer each (layer = crate name; `client` and `bench` are the
/// benchmark's own). Measured in the traced run. See the README for the
/// source of every metric and the end-to-end metric it should move.
pub const PER_LAYER: [MetricDef; 63] = [
    layer("client.offered_tps", "1/s", Higher),
    layer("client.failed_frac", "ratio", Lower),
    layer("client.gen_lag_p99_ms", "ms", Lower),
    layer("client.lat_p99_ms", "ms", Lower),
    layer("client.lat_p999_ms", "ms", Lower),
    layer("client.single_lat_p50_ms", "ms", Lower),
    layer("client.cst_lat_p50_ms", "ms", Lower),
    layer("client.cst_lat_p90_ms", "ms", Lower),
    layer("client.p50_drift_ratio", "ratio", Lower),
    layer("client.cpu_frac", "ratio", Lower),
    layer("workload.next_txn_ns", "ns", Lower),
    layer("crypto.sha256_mb_s", "MB/s", Higher),
    layer("crypto.mac_pp50_ns", "ns", Lower),
    layer("crypto.mac_small_ns", "ns", Lower),
    layer("crypto.merkle_root50_us", "us", Lower),
    layer("net.encode_body_pp50_ns", "ns", Lower),
    layer("net.encode_body_small_ns", "ns", Lower),
    layer("net.frame_prefix_ns", "ns", Lower),
    layer("net.ingress_pp50_ns", "ns", Lower),
    layer("net.ingress_small_ns", "ns", Lower),
    layer("net.frames_per_txn", "count", Lower),
    layer("net.bytes_per_txn", "B", Lower),
    layer("net.encodes_per_txn", "count", Lower),
    layer("net.epoll_waits_per_txn", "count", Lower),
    layer("net.epoll_wait_p50_us", "us", Higher),
    layer("net.peer_queue_hwm_bytes", "B", Lower),
    layer("net.backpressure_hits", "count", Lower),
    layer("net.reassembly_stalls_per_txn", "count", Lower),
    layer("net.dropped_frames", "count", Lower),
    layer("net.reconnects", "count", Lower),
    layer("net.primary_cpu_frac", "ratio", Lower),
    layer("net.backup_cpu_frac", "ratio", Lower),
    layer("net.ctx_switches_per_txn", "count", Lower),
    layer("pbft.round_n4_b50_us", "us", Lower),
    layer("pbft.batch_digest_b50_us", "us", Lower),
    layer("pbft.view_changes", "count", Lower),
    layer("pbft.batches_per_s", "1/s", Higher),
    layer("core.ringnet_us_per_txn", "us", Lower),
    layer("core.txns_per_batch", "count", Higher),
    layer("core.phase_admission_p50_ms", "ms", Lower),
    layer("core.phase_preprepare_commit_p50_ms", "ms", Lower),
    layer("core.phase_commit_execute_p50_ms", "ms", Lower),
    layer("core.phase_execute_reply_p50_ms", "ms", Lower),
    layer("core.phase_cst_forward_p50_ms", "ms", Lower),
    layer("core.phase_cst_execute_p50_ms", "ms", Lower),
    layer("core.forwards_per_cst", "count", Lower),
    layer("core.adaptive_flushes", "count", Higher),
    layer("store.lock_commit_release_ns", "ns", Lower),
    layer("store.kv_execute_ns", "ns", Lower),
    layer("store.wal_append_ns", "ns", Lower),
    layer("store.wal_sync_ms", "ms", Lower),
    layer("store.wal_bytes_per_txn", "B", Lower),
    layer("store.wal_syncs_per_s", "1/s", Lower),
    layer("recovery.digest_of_store_ms", "ms", Lower),
    layer("recovery.delta_capture_us", "us", Lower),
    layer("recovery.checkpoints_per_s", "1/s", Higher),
    layer("recovery.checkpoint_stall_frac", "ratio", Lower),
    layer("ledger.append_b50_us", "us", Lower),
    layer("obs.hist_record_ns", "ns", Lower),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("sim.tps_ratio", "ratio", Lower),
    layer("bench.cpu_unexplained_frac", "ratio", Lower),
    layer("bench.run_wall_s", "s", Lower),
];
