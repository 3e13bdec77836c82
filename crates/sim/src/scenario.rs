//! The scenario runner: builds a full deployment (replicas, AHL's
//! committee, client hosts), runs it on the simulated WAN, and reports
//! the metrics the paper's figures plot — throughput, average latency,
//! a per-second throughput timeline (Fig 9), and view-change counts.

use crate::client::{reply_quorum, SimClient};
use crate::msg::AnyMsg;
use crate::nodes::AnyNode;
use ringbft_core::{Phase, RingMsg, RingReplica};
use ringbft_obs::{Histogram, SpanCollector, SpanTimeline};
use ringbft_pbft::PbftMsg;
use ringbft_recovery::ReplicaWal;
use ringbft_simnet::{FaultPlan, Topology, World};
use ringbft_store::MemWalHandle;
use ringbft_types::{ClientId, Duration, Instant, NodeId, Region, ReplicaId, SystemConfig};

/// Metrics of a crash + blank-restart recovery pass (set when the
/// scenario was built with [`Scenario::with_blank_restart`]).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// When the replica was restarted blank (seconds into the run).
    pub restart_s: f64,
    /// Seconds from the blank restart to the replica's first post-restart
    /// execution (it installed a snapshot and re-entered the execution
    /// path); `None` if it never caught up within the run.
    pub catchup_s: Option<f64>,
    /// Client throughput over the window after the restart, txn/s.
    pub post_restart_tps: f64,
    /// Installs whose transfer shipped a full snapshot link. A blank
    /// restart advertises no base, so donors must answer with the full
    /// fallback — this stays ≥ 1 under delta checkpointing.
    pub full_installs: u64,
    /// Installs recovered via a pure delta chain.
    pub delta_installs: u64,
    /// Transfers the restarted replica rejected at verification (must
    /// stay 0 with correct donors).
    pub bad_digests: u64,
}

/// Metrics of a crash + *durable* restart pass (set when the scenario
/// was built with [`Scenario::with_durable_restart`]): the victim ran
/// with a write-ahead ledger, was killed mid-batch (its log's unsynced
/// tail lost — power-loss semantics, strictly harder than a process
/// kill), and restarted by replaying the local log and topping up only
/// the tail via the existing delta-chain transfer.
#[derive(Debug, Clone, Copy)]
pub struct DurableRestartReport {
    /// The replica that was killed and durably restarted.
    pub replica: ReplicaId,
    /// When it was restarted (seconds into the run).
    pub restart_s: f64,
    /// Seconds from the restart to its first post-restart execution;
    /// `None` if it never caught up within the run.
    pub catchup_s: Option<f64>,
    /// Bytes replayed from the local durable log at restart (what a
    /// blank restart would instead have pulled over the wire).
    pub restart_bytes_local: u64,
    /// Checkpoint sequence the local replay restored (0 = no durable
    /// checkpoint survived; blank-restart semantics applied).
    pub recovered_seq: u64,
    /// Modeled wire bytes of state transfer the restarted incarnation
    /// accepted — the tail top-up only.
    pub restart_bytes_transferred: u64,
    /// Modeled wire bytes a *blank* restart would have transferred (a
    /// full-snapshot chain over the victim's final store) — the
    /// baseline the tail top-up is gated against.
    pub blank_baseline_bytes: u64,
    /// Snapshot installs by the restarted incarnation.
    pub installs: u64,
    /// … of which pure delta chains (the expected tail top-up path).
    pub delta_installs: u64,
    /// … and full-snapshot fallbacks.
    pub full_installs: u64,
    /// Transfers the restarted replica rejected at verification.
    pub bad_digests: u64,
    /// Syncs the restarted incarnation's log performed (group-commit
    /// cadence under batched durability).
    pub wal_syncs: u64,
    /// Bytes in the log at the end of the run.
    pub wal_len_bytes: u64,
    /// The victim ended on a stable checkpoint whose store fingerprint
    /// matches a same-shard peer at the same checkpoint sequence.
    pub fingerprint_ok: bool,
    /// The victim's execution watermark at the end of the run.
    pub exec_watermark: u64,
    /// The highest same-shard peer watermark at the end of the run.
    pub peer_max_watermark: u64,
}

/// Post-run state of one checkpoint-divergence pass (set per
/// [`Scenario::with_divergence`]): one replica's store was corrupted in
/// place mid-run, its next checkpoint announcement lost the quorum
/// vote, and the rollback-and-refetch path must reconverge it onto
/// verified quorum state.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceReport {
    /// The replica whose store was corrupted.
    pub replica: ReplicaId,
    /// When the corruption was injected (seconds into the run).
    pub at_s: f64,
    /// Divergent checkpoint votes the victim observed (≥ 1 once the
    /// corrupt window reached a quorum decision).
    pub divergences: u64,
    /// Snapshot installs by the victim — the refetch path ran.
    pub installs: u64,
    /// Transfers the victim rejected at verification.
    pub bad_digests: u64,
    /// Still in rolled-back (diverged) mode at the end of the run.
    pub diverged_at_end: bool,
    /// The victim ended on a stable checkpoint whose store fingerprint
    /// matches a same-shard peer at the same checkpoint sequence.
    pub fingerprint_ok: bool,
    /// The victim's last stable checkpoint at the end of the run.
    pub stable_seq: u64,
    /// The victim's execution watermark at the end of the run.
    pub exec_watermark: u64,
    /// The highest same-shard peer watermark at the end of the run.
    pub peer_max_watermark: u64,
}

/// Post-run state of one delta state-transfer pass (set per
/// [`Scenario::with_delta_transfer`]): the victim was partitioned from
/// all inbound traffic for a window, fell behind its shard's stable
/// checkpoint frontier, and must catch up via a *delta chain* — moving
/// O(churn) bytes, not O(state).
#[derive(Debug, Clone, Copy)]
pub struct DeltaTransferReport {
    /// The replica that was made dark.
    pub replica: ReplicaId,
    /// Darkness start (seconds into the run).
    pub dark_from_s: f64,
    /// Darkness end.
    pub dark_until_s: f64,
    /// Installs recovered via a pure delta chain.
    pub delta_installs: u64,
    /// Installs that fell back to a full snapshot link (should stay 0
    /// when the victim's base is one window behind).
    pub full_installs: u64,
    /// Modeled wire bytes of delta chunks the victim accepted.
    pub delta_bytes: u64,
    /// Modeled wire bytes of full-snapshot chunks the victim accepted.
    pub full_bytes: u64,
    /// Modeled wire bytes a *full* snapshot transfer of the victim's
    /// final store would have moved (plan + chunked records) — the
    /// baseline the delta bytes are gated against.
    pub full_baseline_bytes: u64,
    /// Transfers rejected at verification (must stay 0 with correct
    /// donors).
    pub bad_digests: u64,
    /// The victim's execution watermark at the end of the run.
    pub exec_watermark: u64,
    /// The highest same-shard peer watermark at the end of the run.
    pub peer_max_watermark: u64,
    /// The victim's last stable checkpoint at the end of the run.
    pub stable_seq: u64,
}

impl DeltaTransferReport {
    /// Total modeled state-transfer bytes the victim accepted.
    pub fn transfer_bytes(&self) -> u64 {
        self.delta_bytes + self.full_bytes
    }
}

/// Post-run state of one injected commit hole (set per
/// [`Scenario::with_commit_hole`]): did the victim repair the missed
/// sequence via hole fetch (certificate recovery) rather than waiting
/// for checkpoint state transfer, and did checkpoint cadence survive?
#[derive(Debug, Clone, Copy)]
pub struct HoleReport {
    /// The replica whose quorum traffic was suppressed.
    pub replica: ReplicaId,
    /// The sequence number it was made to miss.
    pub seq: u64,
    /// Seconds into the run when the victim executed the held sequence
    /// (`None` = it never recovered within the run).
    pub resumed_s: Option<f64>,
    /// Commit certificates the victim fetched and installed.
    pub holes_filled: u64,
    /// HoleRequests the victim sent.
    pub hole_requests: u64,
    /// Forged/corrupt replies the victim rejected (must stay 0 with
    /// correct donors).
    pub bad_replies: u64,
    /// Checkpoint snapshots the victim installed (0 = it recovered via
    /// hole fetch alone, never falling back to full state transfer).
    pub snapshot_installs: u64,
    /// The victim's execution watermark at the end of the run.
    pub exec_watermark: u64,
    /// The victim's last stable checkpoint at the end of the run —
    /// cadence survived iff this advanced past `seq`.
    pub stable_seq: u64,
}

/// Latency summary of one consensus phase, merged across every
/// instrumented replica in the deployment.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Stable phase-timer name (e.g. `phase.preprepare_commit`).
    pub name: &'static str,
    /// Samples recorded across all replicas.
    pub count: u64,
    /// Mean phase latency in seconds.
    pub mean_s: f64,
    /// Median phase latency in seconds.
    pub p50_s: f64,
    /// 99th-percentile phase latency in seconds.
    pub p99_s: f64,
}

/// One sampled cross-shard transaction's assembled ring-hop timeline.
#[derive(Debug, Clone)]
pub struct CstTimeline {
    /// The transaction's 64-bit trace id.
    pub trace_id: u64,
    /// Client-observed end-to-end latency in seconds (`None` when the
    /// transaction completed outside the run or its completion record
    /// was not matched).
    pub client_s: Option<f64>,
    /// Highest ring-hop position stamped.
    pub hops: u32,
    /// Shards that stamped at least one span.
    pub shards: Vec<u64>,
    /// Ring-hop breakdown in causal order: per `(hop, phase)` step the
    /// worst duration any replica reported, in seconds.
    pub steps: Vec<(u32, &'static str, f64)>,
    /// Critical-path estimate (sum of the steps), seconds.
    pub critical_path_s: f64,
    /// The raw assembled spans, for callers wanting other cuts.
    pub timeline: SpanTimeline,
}

/// Cross-shard causal-tracing summary of one run.
#[derive(Debug, Clone, Default)]
pub struct TracingReport {
    /// Configured sample rate (`SystemConfig::trace_sample_rate`; 0 =
    /// tracing off, and the rest of this report is empty).
    pub sample_rate: u64,
    /// Completed transactions that carried a trace context.
    pub sampled_txns: u64,
    /// Sampled *cross-shard* transactions with an assembled timeline.
    pub sampled_csts: u64,
    /// Mean highest-hop across sampled cst timelines.
    pub mean_hops: f64,
    /// Duplicate span events dropped during assembly.
    pub duplicate_spans: u64,
    /// Assembled sampled-cst timelines, ordered by trace id.
    pub csts: Vec<CstTimeline>,
    /// Critical-path summary of the p99 client-latency bucket: per
    /// `(hop, phase)` step, the mean worst-replica duration (seconds)
    /// across the sampled csts at or above the p99 latency.
    pub p99_critical_path: Vec<(u32, &'static str, f64)>,
}

/// Registry name of a span's phase index (RingBFT pipeline order).
fn phase_name(idx: u64) -> &'static str {
    Phase::ALL
        .get(idx as usize)
        .map(|p| p.name())
        .unwrap_or("phase.unknown")
}

/// Ring-hop breakdown of one timeline: per `(hop, phase)` step the
/// worst duration any replica reported, in causal order.
fn timeline_steps(t: &SpanTimeline) -> Vec<(u32, &'static str, f64)> {
    let mut worst: std::collections::BTreeMap<(u32, u64), u64> = std::collections::BTreeMap::new();
    for s in &t.spans {
        let w = worst.entry((s.hop, s.phase)).or_insert(0);
        *w = (*w).max(s.dur_ns);
    }
    worst
        .into_iter()
        .map(|((hop, phase), ns)| (hop, phase_name(phase), ns as f64 / 1e9))
        .collect()
}

/// Pipeline accounting of one run: what the replicas counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineReport {
    /// Sub-`batch_size` batches cut early by the adaptive controller
    /// because the consensus pipe was idle, summed over replicas
    /// (stays 0 unless `adaptive_batching` is on).
    pub batch_adaptive_flushes: u64,
}

/// Metrics of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Completed transactions inside the measurement window.
    pub completed_txns: u64,
    /// Client-observed throughput, transactions per second.
    pub throughput_tps: f64,
    /// Average client latency in seconds.
    pub avg_latency_s: f64,
    /// Median client latency in seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile client latency in seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile client latency in seconds.
    pub p99_latency_s: f64,
    /// 99.9th-percentile client latency in seconds.
    pub p999_latency_s: f64,
    /// Mergeable log-bucketed histogram behind the quantiles above
    /// (nanosecond values), for callers that want other cuts.
    pub latency_hist: Histogram,
    /// Per-phase consensus latency breakdown, merged across replicas.
    /// Empty for protocols without phase instrumentation.
    pub phases: Vec<PhaseReport>,
    /// Per-node event traces (node label, JSON lines), one entry per
    /// instrumented replica with a non-empty ring. The fault matrix
    /// dumps these when a scenario assertion fails.
    pub traces: Vec<(String, String)>,
    /// Per-second throughput timeline over the whole run (Fig 9).
    pub timeline: Vec<(f64, f64)>,
    /// Distinct view-change events observed.
    pub view_changes: usize,
    /// Messages sent on the simulated network.
    pub messages_sent: u64,
    /// Bytes sent on the simulated network.
    pub bytes_sent: u64,
    /// Cross-shard causal-tracing summary (sampled-cst timelines and
    /// the p99 critical path). Empty when `trace_sample_rate` is 0.
    pub tracing: TracingReport,
    /// Crash/blank-restart recovery metrics, when configured.
    pub recovery: Option<RecoveryReport>,
    /// Crash/durable-restart recovery metrics, when configured.
    pub durable_restart: Option<DurableRestartReport>,
    /// Checkpoint-divergence repair metrics, one per corrupted replica.
    pub divergences: Vec<DivergenceReport>,
    /// Commit-hole repair metrics, one per injected hole.
    pub holes: Vec<HoleReport>,
    /// Delta state-transfer metrics, one per darkened replica.
    pub delta_transfers: Vec<DeltaTransferReport>,
    /// Pipeline accounting (executed batches, adaptive flushes).
    pub pipeline: PipelineReport,
    /// Open-loop arrival accounting, when the scenario was built with
    /// [`Scenario::open_loop`]. `None` for closed-loop runs.
    pub open_loop: Option<OpenLoopReport>,
}

/// Arrival accounting of an open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopReport {
    /// Configured target arrival rate, transactions per second.
    pub offered_tps: f64,
    /// Transactions the hosts actually injected inside the measurement
    /// window (the realized offered load — converges on
    /// `offered_tps × measure_secs` as the window grows).
    pub issued_txns: u64,
    /// Transactions still awaiting their reply quorum at the end of
    /// the run. Growth past the issue/completion balance point is the
    /// overload signature closed-loop clients cannot show.
    pub in_flight_at_end: u64,
}

/// A configurable experiment.
pub struct Scenario {
    cfg: SystemConfig,
    seed: u64,
    warmup: Duration,
    measure: Duration,
    faults: FaultPlan,
    local_topology: bool,
    clients_per_host: u64,
    bandwidth_divisor: u64,
    blank_restart: Option<(f64, f64, ReplicaId)>,
    durable_restart: Option<(f64, f64, ReplicaId)>,
    divergences: Vec<(ReplicaId, f64)>,
    commit_holes: Vec<(ReplicaId, u64)>,
    delta_transfers: Vec<(ReplicaId, f64, f64)>,
    open_loop: Option<ringbft_workload::arrivals::ArrivalProcess>,
}

impl Scenario {
    /// New scenario over `cfg` with a deterministic seed.
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        Scenario {
            cfg,
            seed,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(3),
            faults: FaultPlan::none(),
            local_topology: false,
            clients_per_host: 200,
            bandwidth_divisor: 1,
            blank_restart: None,
            durable_restart: None,
            divergences: Vec::new(),
            commit_holes: Vec::new(),
            delta_transfers: Vec::new(),
            open_loop: None,
        }
    }

    /// Drives the clients open-loop: transactions arrive on `process`'s
    /// schedule (its rate split evenly across the client hosts) instead
    /// of one-per-completion. The report's `open_loop` field records
    /// the realized offered load; sweeping the rate and reading where
    /// throughput stops tracking it locates the knee.
    pub fn open_loop(mut self, process: ringbft_workload::arrivals::ArrivalProcess) -> Self {
        self.open_loop = Some(process);
        self
    }

    /// Warmup phase length (completions here are discarded).
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.warmup = Duration::from_secs_f64(s);
        self
    }

    /// Measurement window length.
    pub fn measure_secs(mut self, s: f64) -> Self {
        self.measure = Duration::from_secs_f64(s);
        self
    }

    /// Inject faults (crashes, drops).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Crashes `replica` at `crash_s` and restarts it *blank* at
    /// `restart_s` (empty store, fresh consensus state): the replica must
    /// catch up via checkpoint state transfer. The report's `recovery`
    /// field measures the time to its first post-restart execution and
    /// the post-restart throughput.
    pub fn with_blank_restart(mut self, crash_s: f64, restart_s: f64, replica: ReplicaId) -> Self {
        assert!(crash_s < restart_s, "restart must follow the crash");
        self.faults = self.faults.crash(
            NodeId::Replica(replica),
            Instant::ZERO + Duration::from_secs_f64(crash_s),
        );
        self.blank_restart = Some((crash_s, restart_s, replica));
        self
    }

    /// Crashes `replica` at `crash_s` — kill -9 mid-batch: the replica
    /// runs with a write-ahead ledger under the config's `durability`
    /// policy, and the crash drops its log's unsynced tail (power-loss
    /// semantics) — and restarts it *durably* at `restart_s`: the new
    /// incarnation replays the surviving log, restores the last durable
    /// stable checkpoint locally, and fetches only the tail from peers.
    /// The report's `durable_restart` field gates the transferred bytes
    /// against the blank-restart baseline.
    pub fn with_durable_restart(
        mut self,
        crash_s: f64,
        restart_s: f64,
        replica: ReplicaId,
    ) -> Self {
        assert!(crash_s < restart_s, "restart must follow the crash");
        self.faults = self.faults.crash(
            NodeId::Replica(replica),
            Instant::ZERO + Duration::from_secs_f64(crash_s),
        );
        self.durable_restart = Some((crash_s, restart_s, replica));
        self
    }

    /// Corrupts `replica`'s live and checkpoint stores in place at
    /// `at_s` (a bit-flipped executor): its next checkpoint
    /// announcement loses the quorum vote, and the divergence
    /// rollback-and-refetch path must reconverge it onto verified
    /// quorum state. The report's `divergences` entries measure the
    /// repair.
    pub fn with_divergence(mut self, replica: ReplicaId, at_s: f64) -> Self {
        self.divergences.push((replica, at_s));
        self
    }

    /// Suppresses every Preprepare/Prepare/Commit for sequence `seq`
    /// addressed to `replica` — the replica misses that one commit
    /// entirely while its shard moves on, wedging its sequence-ordered
    /// admission until the hole-fetch subsystem repairs it. Call once
    /// per victim (up to `f` per shard keeps the shard live). The
    /// report's `holes` entries measure the repair.
    pub fn with_commit_hole(mut self, replica: ReplicaId, seq: u64) -> Self {
        self.commit_holes.push((replica, seq));
        self
    }

    /// Partitions `replica` from *all* inbound traffic during
    /// `[dark_from_s, dark_until_s)` — it keeps its state but misses at
    /// least one checkpoint window, so when the darkness lifts it is a
    /// laggard behind its shard's stable frontier and must catch up via
    /// state transfer. Under delta checkpointing the donors recognize
    /// its (pre-darkness) checkpoint base and ship a delta chain; the
    /// report's `delta_transfers` entries measure bytes moved and
    /// install kinds.
    pub fn with_delta_transfer(
        mut self,
        replica: ReplicaId,
        dark_from_s: f64,
        dark_until_s: f64,
    ) -> Self {
        assert!(dark_from_s < dark_until_s, "darkness must have an end");
        self.delta_transfers
            .push((replica, dark_from_s, dark_until_s));
        self
    }

    /// Use a single-datacenter topology instead of the 15-region WAN.
    pub fn local_topology(mut self, yes: bool) -> Self {
        self.local_topology = yes;
        self
    }

    /// Logical clients per client-host node.
    pub fn clients_per_host(mut self, k: u64) -> Self {
        self.clients_per_host = k.max(1);
        self
    }

    /// Divides every link's bandwidth by `d`. Used by quick-scale figure
    /// regeneration: with shard counts and replication scaled down ~7×,
    /// scaling bandwidth down keeps the saturation points — where the
    /// paper's quadratic baselines collapse — inside the scaled-down
    /// operating range (see DESIGN.md).
    pub fn bandwidth_divisor(mut self, d: u64) -> Self {
        self.bandwidth_divisor = d.max(1);
        self
    }

    /// The configuration under test.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs the scenario to completion and reports metrics.
    pub fn run(self) -> ScenarioReport {
        let cfg = self.cfg.clone();
        cfg.validate().expect("valid scenario config");
        let mut topology = if self.local_topology {
            Topology::local()
        } else {
            Topology::gcp()
        };
        topology.intra_region_bps /= self.bandwidth_divisor;
        topology.wan_bps /= self.bandwidth_divisor;
        let mut world: World<AnyMsg, AnyNode> =
            World::new(topology, self.faults.clone(), self.seed);

        // --- targeted faults: commit holes and darkness windows ---
        if !self.commit_holes.is_empty() || !self.delta_transfers.is_empty() {
            let holes = self.commit_holes.clone();
            let darks: Vec<(NodeId, Instant, Instant)> = self
                .delta_transfers
                .iter()
                .map(|(r, from, until)| {
                    (
                        NodeId::Replica(*r),
                        Instant::ZERO + Duration::from_secs_f64(*from),
                        Instant::ZERO + Duration::from_secs_f64(*until),
                    )
                })
                .collect();
            world.set_drop_filter(move |now, _from, to, msg| {
                // Darkness: the victim receives nothing at all.
                if darks
                    .iter()
                    .any(|(n, a, b)| to == *n && now >= *a && now < *b)
                {
                    return true;
                }
                // Commit holes: suppress one sequence's quorum traffic.
                let AnyMsg::Ring(RingMsg::Pbft(p)) = msg else {
                    return false;
                };
                let seq = match p {
                    PbftMsg::Preprepare { seq, .. }
                    | PbftMsg::Prepare { seq, .. }
                    | PbftMsg::Commit { seq, .. } => seq.0,
                    _ => return false,
                };
                holes
                    .iter()
                    .any(|(r, s)| *s == seq && to == NodeId::Replica(*r))
            });
        }

        // --- replicas (one factory shared with the ringbft-net runtime) ---
        // The durable-restart victim shares one in-memory log handle
        // across its incarnations (the sim twin of a `--data-dir`).
        let durable_wal = self
            .durable_restart
            .map(|(_, _, replica)| (replica, MemWalHandle::new()));
        for (r, region, mut node) in crate::nodes::deployment(&cfg) {
            if let Some((victim, handle)) = &durable_wal {
                if r == *victim {
                    if let AnyNode::Ring(ring) = &mut node {
                        let (wal, recovered) = ReplicaWal::open_mem(handle.clone(), cfg.durability);
                        ring.attach_wal(wal, recovered);
                    }
                }
            }
            world.add_node(NodeId::Replica(r), region, node);
        }

        // --- blank restart (recovery scenarios) ---
        if let Some((_, restart_s, replica)) = self.blank_restart {
            let (_, _, fresh) = crate::nodes::deployment(&cfg)
                .into_iter()
                .find(|(r, _, _)| *r == replica)
                .expect("restarted replica is part of the deployment");
            world.schedule_restart(
                Instant::ZERO + Duration::from_secs_f64(restart_s),
                NodeId::Replica(replica),
                fresh,
            );
        }

        // --- durable restart (crash-consistent recovery scenarios) ---
        // The replacement is built lazily when the restart fires, so it
        // opens the log exactly as the crash left it. `(bytes, seq)` of
        // the replay are smuggled out for the report.
        let durable_restored = std::rc::Rc::new(std::cell::Cell::new((0u64, 0u64)));
        if let Some((_, restart_s, replica)) = self.durable_restart {
            let (_, handle) = durable_wal.as_ref().expect("handle built above").clone();
            let cfg2 = cfg.clone();
            let restored = std::rc::Rc::clone(&durable_restored);
            world.schedule_restart_with(
                Instant::ZERO + Duration::from_secs_f64(restart_s),
                NodeId::Replica(replica),
                Box::new(move || {
                    // The kill dropped everything not yet synced: model
                    // power loss, strictly harder than a process kill
                    // (where OS-buffered appends survive).
                    handle.crash();
                    let (wal, recovered) = ReplicaWal::open_mem(handle, cfg2.durability);
                    let bytes = wal.len_bytes();
                    let mut r = RingReplica::new(cfg2.clone(), replica, false);
                    r.attach_wal(wal, recovered);
                    restored.set((bytes, r.checkpoint_seq()));
                    AnyNode::Ring(Box::new(r))
                }),
            );
        }

        // --- checkpoint divergence (corrupt-executor scenarios) ---
        for (replica, at_s) in &self.divergences {
            let key = cfg.key_range(replica.shard).start;
            world.schedule_mutation(
                Instant::ZERO + Duration::from_secs_f64(*at_s),
                NodeId::Replica(*replica),
                Box::new(move |n: &mut AnyNode| {
                    if let AnyNode::Ring(ring) = n {
                        ring.corrupt_store_for_test(key);
                    }
                }),
            );
        }

        // --- clients, spread equally over the regions in use (§8) ---
        let regions: Vec<Region> = if cfg.protocol.is_sharded() {
            cfg.shards.iter().map(|s| s.region).collect()
        } else {
            Region::ALL
                .iter()
                .copied()
                .take(cfg.shards[0].n.min(Region::ALL.len()))
                .collect()
        };
        let total_clients = cfg.clients as u64;
        let host_count = total_clients.div_ceil(self.clients_per_host).max(1);
        // Open loop: each host runs an independent arrival sampler at
        // an even share of the target rate (superposed Poisson streams
        // compose back to the target).
        let per_host_arrivals = self
            .open_loop
            .map(|p| p.with_rate(p.rate_tps() / host_count as f64));
        let mut assigned = 0u64;
        for h in 0..host_count {
            let count = self.clients_per_host.min(total_clients - assigned);
            if count == 0 {
                break;
            }
            let first_id = 1_000_000 + assigned;
            let mut client = SimClient::new(cfg.clone(), self.seed ^ (h + 1), first_id, count);
            if let Some(p) = per_host_arrivals {
                client.set_open_loop(p, self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(h));
            }
            let host = NodeId::Client(ClientId(first_id));
            world.add_node(
                host,
                regions[(h as usize) % regions.len()],
                AnyNode::Client(Box::new(client)),
            );
            // Replies address logical client ids; route them to the host.
            for c in first_id + 1..first_id + count {
                world.add_alias(NodeId::Client(ClientId(c)), host);
            }
            assigned += count;
        }

        // --- run ---
        let end = Instant::ZERO + self.warmup + self.measure;
        world.start();
        world.run_until(end);

        // --- collect ---
        let mut completions = Vec::new();
        let mut issued: Vec<Instant> = Vec::new();
        let mut in_flight_at_end = 0u64;
        for (_, node) in world.nodes() {
            if let AnyNode::Client(c) = node {
                completions.extend(c.completions.iter().copied());
                issued.extend(c.issued.iter().copied());
                in_flight_at_end += c.in_flight_len() as u64;
            }
        }
        let w_start = Instant::ZERO + self.warmup;
        // Exact sum for the average; a mergeable log-bucketed histogram
        // for the quantiles (bounded relative error, no full sort).
        let mut latency_hist = Histogram::new();
        let mut lat_sum = 0.0f64;
        for c in completions
            .iter()
            .filter(|c| c.done >= w_start && c.done <= end)
        {
            let d = c.done.since(c.sent);
            latency_hist.record(d.as_nanos());
            lat_sum += d.as_secs_f64();
        }
        let completed = latency_hist.count();
        let measure_s = self.measure.as_secs_f64();
        let throughput = completed as f64 / measure_s;
        let avg = if completed == 0 {
            0.0
        } else {
            lat_sum / completed as f64
        };
        let pct = |p: f64| -> f64 { latency_hist.value_at_quantile(p) as f64 / 1e9 };

        // Per-phase consensus timers, merged across every instrumented
        // replica so the report reflects the whole deployment.
        let mut phase_hists: Vec<(&'static str, Histogram)> = Phase::ALL
            .iter()
            .map(|p| (p.name(), Histogram::new()))
            .collect();
        for (_, node) in world.nodes() {
            if let Some(obs) = node.ring_obs() {
                for (i, p) in Phase::ALL.iter().enumerate() {
                    phase_hists[i].1.merge(obs.phase_hist(*p));
                }
            }
        }
        let mut traces = Vec::new();
        for (id, node) in world.nodes() {
            if let Some(t) = node.trace_jsonl() {
                if !t.is_empty() {
                    traces.push((id.to_string(), t));
                }
            }
        }

        // Cross-shard causal tracing: assemble per-transaction timelines
        // from every replica's trace ring (hop-relative ordering — the
        // collector never compares node-local clocks across replicas).
        let mut spans = SpanCollector::new();
        for (_, node) in world.nodes() {
            if let Some(obs) = node.ring_obs() {
                for (_, ev) in obs.trace.iter() {
                    spans.ingest_event(ev);
                }
            }
        }
        let mut client_lat: std::collections::HashMap<u64, (f64, bool)> =
            std::collections::HashMap::new();
        let mut sampled_txns = 0u64;
        for c in &completions {
            if let Some(t) = c.trace {
                sampled_txns += 1;
                client_lat.insert(
                    t.trace_id,
                    (c.done.since(c.sent).as_secs_f64(), c.cross_shard),
                );
            }
        }
        let csts: Vec<CstTimeline> = spans
            .timelines()
            .into_iter()
            .filter(|t| {
                // Cross-shard: either the client said so, or the spans
                // themselves straddle shards (completion may be missing
                // for txns still in flight at the end of the run).
                client_lat
                    .get(&t.trace_id)
                    .map(|(_, cs)| *cs)
                    .unwrap_or_else(|| t.shards().len() > 1)
            })
            .map(|t| CstTimeline {
                trace_id: t.trace_id,
                client_s: client_lat.get(&t.trace_id).map(|(s, _)| *s),
                hops: t.max_hop(),
                shards: t.shards(),
                steps: timeline_steps(&t),
                critical_path_s: t.critical_path_ns() as f64 / 1e9,
                timeline: t,
            })
            .collect();
        let mean_hops = if csts.is_empty() {
            0.0
        } else {
            csts.iter().map(|c| c.hops as f64).sum::<f64>() / csts.len() as f64
        };
        // p99 bucket: sampled csts at or above the p99 of their own
        // client latencies; summarize the mean worst-replica duration
        // per (hop, phase) step across the bucket.
        let mut lat_sorted: Vec<f64> = csts.iter().filter_map(|c| c.client_s).collect();
        lat_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p99_critical_path = if lat_sorted.is_empty() {
            Vec::new()
        } else {
            let thr = lat_sorted[(lat_sorted.len() - 1).min(lat_sorted.len() * 99 / 100)];
            let mut acc: std::collections::BTreeMap<(u32, &'static str), (f64, u64)> =
                std::collections::BTreeMap::new();
            for c in csts.iter().filter(|c| c.client_s.is_some_and(|s| s >= thr)) {
                for (hop, name, s) in &c.steps {
                    let e = acc.entry((*hop, name)).or_insert((0.0, 0));
                    e.0 += s;
                    e.1 += 1;
                }
            }
            acc.into_iter()
                .map(|((hop, name), (sum, n))| (hop, name, sum / n as f64))
                .collect()
        };
        let tracing = TracingReport {
            sample_rate: cfg.trace_sample_rate,
            sampled_txns,
            sampled_csts: csts.len() as u64,
            mean_hops,
            duplicate_spans: spans.duplicates(),
            csts,
            p99_critical_path,
        };
        let phases: Vec<PhaseReport> = phase_hists
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| PhaseReport {
                name,
                count: h.count(),
                mean_s: h.mean() / 1e9,
                p50_s: h.value_at_quantile(0.50) as f64 / 1e9,
                p99_s: h.value_at_quantile(0.99) as f64 / 1e9,
            })
            .collect();

        // Timeline: one-second buckets over the full run.
        let total_s = end.as_secs_f64().ceil() as usize;
        let mut buckets = vec![0u64; total_s.max(1)];
        for c in &completions {
            let b = (c.done.as_secs_f64() as usize).min(buckets.len() - 1);
            buckets[b] += 1;
        }
        let timeline: Vec<(f64, f64)> = buckets
            .iter()
            .enumerate()
            .map(|(i, n)| (i as f64, *n as f64))
            .collect();

        // Seconds from `restart_at` to `replica`'s first execution at or
        // after it, if any.
        let catchup_s_of = |replica: ReplicaId, restart_at: Instant| -> Option<f64> {
            world
                .exec_log
                .iter()
                .filter(|e| e.node == NodeId::Replica(replica) && e.at >= restart_at)
                .map(|e| e.at.since(restart_at).as_secs_f64())
                .next()
        };

        // Recovery metrics: first execution by the restarted replica
        // after its blank restart, and throughput since the restart.
        let recovery = self.blank_restart.map(|(_, restart_s, replica)| {
            let restart_at = Instant::ZERO + Duration::from_secs_f64(restart_s);
            let catchup_s = catchup_s_of(replica, restart_at);
            let window_s = (end.since(restart_at)).as_secs_f64().max(1e-9);
            let post = completions
                .iter()
                .filter(|c| c.done >= restart_at && c.done <= end)
                .count();
            let stats = match world.node(NodeId::Replica(replica)) {
                Some(AnyNode::Ring(r)) => r.recovery_stats(),
                _ => Default::default(),
            };
            RecoveryReport {
                restart_s,
                catchup_s,
                post_restart_tps: post as f64 / window_s,
                full_installs: stats.full_installs,
                delta_installs: stats.delta_installs,
                bad_digests: stats.bad_digests,
            }
        });

        // Checkpoint-store convergence: does `replica` end on the same
        // checkpoint store as a same-shard peer at the same checkpoint
        // sequence? (Checkpoints are quorum-agreed, so any two replicas
        // at one sequence must match.)
        let fingerprint_converged = |replica: ReplicaId| -> bool {
            let Some(AnyNode::Ring(v)) = world.node(NodeId::Replica(replica)) else {
                return false;
            };
            let (vseq, vdigest) = (v.checkpoint_seq(), v.checkpoint_digest());
            vseq > 0
                && cfg
                    .shard(replica.shard)
                    .replicas()
                    .filter(|r| *r != replica)
                    .any(|r| match world.node(NodeId::Replica(r)) {
                        Some(AnyNode::Ring(p)) => {
                            p.checkpoint_seq() == vseq && p.checkpoint_digest() == vdigest
                        }
                        _ => false,
                    })
        };
        let peer_max_watermark_of = |replica: ReplicaId| -> u64 {
            cfg.shard(replica.shard)
                .replicas()
                .filter(|r| *r != replica)
                .filter_map(|r| match world.node(NodeId::Replica(r)) {
                    Some(AnyNode::Ring(n)) => Some(n.exec_watermark()),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        // Modeled wire bytes of one full-snapshot transfer of a store
        // of `store_len` records (plan + chunked records) — what a
        // blank restart moves.
        let full_transfer_bytes = |store_len: usize| -> u64 {
            let per = cfg.state_chunk_records.max(1);
            let mut bytes = ringbft_types::wire::state_plan_bytes(1);
            let mut left = store_len;
            while left > 0 {
                let take = left.min(per);
                bytes += ringbft_types::wire::state_chunk_bytes(take);
                left -= take;
            }
            bytes
        };

        // Durable-restart metrics: what the local log replay saved over
        // a blank restart, and whether the tail top-up reconverged.
        let durable_restart = self.durable_restart.map(|(_, restart_s, replica)| {
            let restart_at = Instant::ZERO + Duration::from_secs_f64(restart_s);
            let catchup_s = catchup_s_of(replica, restart_at);
            let (restart_bytes_local, recovered_seq) = durable_restored.get();
            let (stats, watermark, store_len, wal_syncs, wal_len_bytes) =
                match world.node(NodeId::Replica(replica)) {
                    Some(AnyNode::Ring(r)) => (
                        r.recovery_stats(),
                        r.exec_watermark(),
                        r.store().len(),
                        r.wal().map(|w| w.syncs()).unwrap_or(0),
                        r.wal().map(|w| w.len_bytes()).unwrap_or(0),
                    ),
                    _ => (Default::default(), 0, 0, 0, 0),
                };
            DurableRestartReport {
                replica,
                restart_s,
                catchup_s,
                restart_bytes_local,
                recovered_seq,
                // The restarted incarnation's stats start at zero, so
                // its post-run transfer bytes are exactly the top-up.
                restart_bytes_transferred: stats.transfer_bytes(),
                blank_baseline_bytes: full_transfer_bytes(store_len),
                installs: stats.installs,
                delta_installs: stats.delta_installs,
                full_installs: stats.full_installs,
                bad_digests: stats.bad_digests,
                wal_syncs,
                wal_len_bytes,
                fingerprint_ok: fingerprint_converged(replica),
                exec_watermark: watermark,
                peer_max_watermark: peer_max_watermark_of(replica),
            }
        });

        // Divergence-repair metrics: did the corrupted replica roll
        // back, refetch quorum state, and reconverge?
        let divergences: Vec<DivergenceReport> = self
            .divergences
            .iter()
            .map(|(replica, at_s)| {
                let (stats, watermark, stable, diverged, obs_div) =
                    match world.node(NodeId::Replica(*replica)) {
                        Some(AnyNode::Ring(r)) => (
                            r.recovery_stats(),
                            r.exec_watermark(),
                            r.last_stable_seq(),
                            r.is_diverged(),
                            r.obs()
                                .reg
                                .counter_by_name("ring.checkpoint_divergences")
                                .unwrap_or(0),
                        ),
                        _ => (Default::default(), 0, 0, false, 0),
                    };
                DivergenceReport {
                    replica: *replica,
                    at_s: *at_s,
                    divergences: obs_div,
                    installs: stats.installs,
                    bad_digests: stats.bad_digests,
                    diverged_at_end: diverged,
                    fingerprint_ok: fingerprint_converged(*replica),
                    stable_seq: stable,
                    exec_watermark: watermark,
                    peer_max_watermark: peer_max_watermark_of(*replica),
                }
            })
            .collect();

        // Delta state-transfer metrics: per darkened victim, what the
        // catch-up actually moved (delta vs full bytes) against the
        // modeled cost of a full snapshot of its final store.
        let delta_transfers: Vec<DeltaTransferReport> = self
            .delta_transfers
            .iter()
            .map(|(replica, dark_from_s, dark_until_s)| {
                let (stats, watermark, stable, store_len) =
                    match world.node(NodeId::Replica(*replica)) {
                        Some(AnyNode::Ring(r)) => (
                            r.recovery_stats(),
                            r.exec_watermark(),
                            r.last_stable_seq(),
                            r.store().len(),
                        ),
                        _ => (Default::default(), 0, 0, 0),
                    };
                DeltaTransferReport {
                    replica: *replica,
                    dark_from_s: *dark_from_s,
                    dark_until_s: *dark_until_s,
                    delta_installs: stats.delta_installs,
                    full_installs: stats.full_installs,
                    delta_bytes: stats.bytes_delta,
                    full_bytes: stats.bytes_full,
                    // Modeled bytes of one full transfer of the final store.
                    full_baseline_bytes: full_transfer_bytes(store_len),
                    bad_digests: stats.bad_digests,
                    exec_watermark: watermark,
                    peer_max_watermark: peer_max_watermark_of(*replica),
                    stable_seq: stable,
                }
            })
            .collect();

        // Hole-repair metrics: per victim, whether the held sequence was
        // fetched (certificate recovery) and executed, and where the
        // victim's watermark and stable checkpoint ended up.
        let holes: Vec<HoleReport> = self
            .commit_holes
            .iter()
            .map(|(replica, seq)| {
                let resumed_s = world
                    .exec_log
                    .iter()
                    .filter(|e| e.node == NodeId::Replica(*replica) && e.seq == *seq)
                    .map(|e| e.at.as_secs_f64())
                    .next();
                let (hole_stats, installs, watermark, stable) =
                    match world.node(NodeId::Replica(*replica)) {
                        Some(AnyNode::Ring(r)) => (
                            r.hole_stats(),
                            r.recovery_stats().installs,
                            r.exec_watermark(),
                            r.last_stable_seq(),
                        ),
                        _ => Default::default(),
                    };
                HoleReport {
                    replica: *replica,
                    seq: *seq,
                    resumed_s,
                    holes_filled: hole_stats.holes_filled,
                    hole_requests: hole_stats.requests_sent,
                    bad_replies: hole_stats.bad_replies,
                    snapshot_installs: installs,
                    exec_watermark: watermark,
                    stable_seq: stable,
                }
            })
            .collect();

        // Pipeline accounting, summed over the instrumented replicas.
        let mut pipeline = PipelineReport::default();
        for (_, node) in world.nodes() {
            if let Some(obs) = node.ring_obs() {
                let c = |n: &str| obs.reg.counter_by_name(n).unwrap_or(0);
                pipeline.batch_adaptive_flushes += c("ring.batch_adaptive_flushes");
            }
        }

        let open_loop = self.open_loop.map(|p| OpenLoopReport {
            offered_tps: p.rate_tps(),
            issued_txns: issued
                .iter()
                .filter(|t| **t >= w_start && **t <= end)
                .count() as u64,
            in_flight_at_end,
        });

        ScenarioReport {
            completed_txns: completed,
            throughput_tps: throughput,
            avg_latency_s: avg,
            p50_latency_s: pct(0.50),
            p95_latency_s: pct(0.95),
            p99_latency_s: pct(0.99),
            p999_latency_s: pct(0.999),
            latency_hist,
            phases,
            traces,
            timeline,
            view_changes: world.view_log.len(),
            messages_sent: world.stats.messages_sent,
            bytes_sent: world.stats.bytes_sent,
            tracing,
            recovery,
            durable_restart,
            divergences,
            holes,
            delta_transfers,
            pipeline,
            open_loop,
        }
    }
}

/// Convenience: the reply quorum the scenario's clients use.
pub fn scenario_quorum(cfg: &SystemConfig) -> usize {
    reply_quorum(cfg)
}
