//! Per-replica observability: the registry instruments, consensus phase
//! timers, and the event-trace ring for one [`crate::RingReplica`].
//!
//! Besides counters and gauges, the registry holds the per-phase latency
//! histograms the paper's evaluation needs:
//!
//! | phase                    | opens at                          | closes at                 |
//! |--------------------------|-----------------------------------|---------------------------|
//! | `phase.admission`        | first request pooled for a batch  | batch proposed to PBFT    |
//! | `phase.preprepare_commit`| first consensus msg for the slot  | local commit              |
//! | `phase.commit_execute`   | local commit                      | execution applied         |
//! | `phase.execute_reply`    | execution submitted/applied       | client replies sent       |
//! | `phase.cst_forward`      | cst locally committed             | Forward evidence complete |
//! | `phase.cst_execute`      | Forward evidence complete         | cst executed              |
//!
//! `phase.execute_reply` opens at execution-stage *submission* for
//! single-shard batches (so an async pipeline's stage latency is
//! visible) and at initiator-shard execution for complex csts (closed
//! by the second rotation's wrap-around). Simple csts record nothing
//! here: their execute→reply interval is the wrap-around Forward that
//! `phase.cst_forward` already times, and recording it twice made the
//! two histograms byte-identical.
//!
//! Phase histogram samples are nanoseconds of simulated (or
//! reactor-clock) time. Trace events use the same clock; see the README
//! "Observability" section for the event schema. `ring.checkpoint_ns` is
//! the exception: it is wall-clock time the consensus thread spent
//! inside one checkpoint announce (fold, digest, capture), under either
//! driver — the stall itself, which no protocol clock sees.

use crate::cst::Counts;
use crate::pipeline::PoolStats;
use ringbft_obs::{CounterId, GaugeId, HistId, Registry, TraceRing};
use ringbft_types::{Duration, Instant, TraceContext};

/// Retained trace events per replica; old events are dropped (and counted)
/// beyond this. Sized for causal-span volume, not just sparse fault
/// events: at full sampling (`trace_sample_rate = 1`) a replica stamps
/// up to six spans per transaction, and correlation tests need the
/// repair events (`hole_serve` / `hole_filled`) to survive a couple of
/// simulated seconds of span traffic alongside them.
const TRACE_CAPACITY: usize = 4096;

/// The consensus pipeline phases timed by [`ReplicaObs::phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Request arrival → batch proposed.
    Admission,
    /// First consensus message for a slot → local commit.
    PreprepareCommit,
    /// Local commit → execution applied to the store.
    CommitExecute,
    /// Execution submitted (single-shard) or applied (complex cst) →
    /// client replies sent. Simple csts record under
    /// [`Phase::CstForward`] only.
    ExecuteReply,
    /// Cst locally committed → Forward evidence complete (ring hop).
    CstForward,
    /// Forward evidence complete → cst executed.
    CstExecute,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Admission,
        Phase::PreprepareCommit,
        Phase::CommitExecute,
        Phase::ExecuteReply,
        Phase::CstForward,
        Phase::CstExecute,
    ];

    /// Registry/bench name of this phase's histogram.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "phase.admission",
            Phase::PreprepareCommit => "phase.preprepare_commit",
            Phase::CommitExecute => "phase.commit_execute",
            Phase::ExecuteReply => "phase.execute_reply",
            Phase::CstForward => "phase.cst_forward",
            Phase::CstExecute => "phase.cst_execute",
        }
    }
}

/// Instruments owned by one replica.
#[derive(Debug)]
pub struct ReplicaObs {
    /// The replica's metric registry (snapshot via
    /// [`Registry::snapshot_json`]).
    pub reg: Registry,
    /// Event-trace ring, dumped on fault-scenario failure and shutdown.
    pub trace: TraceRing,
    c_executed_txns: CounterId,
    c_executed_batches: CounterId,
    c_forwards_sent: CounterId,
    c_executes_sent: CounterId,
    c_remote_views_sent: CounterId,
    c_replies_sent: CounterId,
    c_checkpoint_divergences: CounterId,
    c_reply_cache_evictions: CounterId,
    c_done_overwrites: CounterId,
    c_forward_retransmits: CounterId,
    c_batch_adaptive_flushes: CounterId,
    c_exec_jobs: CounterId,
    c_exec_parallel_batches: CounterId,
    g_state_bytes_full: GaugeId,
    g_state_bytes_delta: GaugeId,
    g_done_occupancy: GaugeId,
    g_csts_live: GaugeId,
    g_complaints_live: GaugeId,
    g_pipeline_workers: GaugeId,
    g_worker_busy_ns: GaugeId,
    g_worker_idle_ns: GaugeId,
    g_checkpoint_dirty_keys: GaugeId,
    h_checkpoint_ns: HistId,
    phases: [HistId; 6],
}

impl Default for ReplicaObs {
    fn default() -> Self {
        ReplicaObs::new()
    }
}

impl ReplicaObs {
    /// Registers every replica instrument.
    pub fn new() -> ReplicaObs {
        let mut reg = Registry::new();
        let c_executed_txns = reg.counter("ring.executed_txns");
        let c_executed_batches = reg.counter("ring.executed_batches");
        let c_forwards_sent = reg.counter("ring.forwards_sent");
        let c_executes_sent = reg.counter("ring.executes_sent");
        let c_remote_views_sent = reg.counter("ring.remote_views_sent");
        let c_replies_sent = reg.counter("ring.replies_sent");
        let c_checkpoint_divergences = reg.counter("ring.checkpoint_divergences");
        let c_reply_cache_evictions = reg.counter("ring.reply_cache_evictions");
        let c_done_overwrites = reg.counter("ring.done_set_overwrites");
        let c_forward_retransmits = reg.counter("ring.forward_retransmits");
        let c_batch_adaptive_flushes = reg.counter("ring.batch_adaptive_flushes");
        let c_exec_jobs = reg.counter("pipeline.exec_jobs");
        let c_exec_parallel_batches = reg.counter("pipeline.exec_parallel_batches");
        let g_state_bytes_full = reg.gauge("ring.state_bytes_full");
        let g_state_bytes_delta = reg.gauge("ring.state_bytes_delta");
        let g_done_occupancy = reg.gauge("ring.done_set_occupancy");
        let g_csts_live = reg.gauge("ring.csts_live");
        let g_complaints_live = reg.gauge("ring.remote_complaints_live");
        let g_pipeline_workers = reg.gauge("pipeline.workers");
        let g_worker_busy_ns = reg.gauge("pipeline.worker_busy_ns");
        let g_worker_idle_ns = reg.gauge("pipeline.worker_idle_ns");
        let g_checkpoint_dirty_keys = reg.gauge("ring.checkpoint_dirty_keys");
        let h_checkpoint_ns = reg.histogram("ring.checkpoint_ns");
        let phases = Phase::ALL.map(|p| reg.histogram(p.name()));
        ReplicaObs {
            reg,
            trace: TraceRing::new(TRACE_CAPACITY),
            c_executed_txns,
            c_executed_batches,
            c_forwards_sent,
            c_executes_sent,
            c_remote_views_sent,
            c_replies_sent,
            c_checkpoint_divergences,
            c_reply_cache_evictions,
            c_done_overwrites,
            c_forward_retransmits,
            c_batch_adaptive_flushes,
            c_exec_jobs,
            c_exec_parallel_batches,
            g_state_bytes_full,
            g_state_bytes_delta,
            g_done_occupancy,
            g_csts_live,
            g_complaints_live,
            g_pipeline_workers,
            g_worker_busy_ns,
            g_worker_idle_ns,
            g_checkpoint_dirty_keys,
            h_checkpoint_ns,
            phases,
        }
    }

    /// Records a phase latency sample.
    pub fn phase(&mut self, p: Phase, d: Duration) {
        let idx = Phase::ALL.iter().position(|&q| q == p).expect("known");
        self.reg.record(self.phases[idx], d.as_nanos());
    }

    /// Stamps a causal span into the trace ring: one timed pipeline
    /// phase of a *sampled* transaction, closing at `now` after lasting
    /// `d`. Start/duration are node-local monotonic nanoseconds —
    /// cross-shard assembly orders spans by `(hop, phase)`
    /// ([`ringbft_obs::SpanCollector`]), never by comparing these
    /// clocks across nodes.
    pub fn span(
        &mut self,
        now: Instant,
        trace: TraceContext,
        p: Phase,
        shard: u32,
        replica: u32,
        d: Duration,
    ) {
        let idx = Phase::ALL.iter().position(|&q| q == p).expect("known");
        let dur = d.as_nanos();
        self.trace.push(
            now.as_nanos(),
            "span",
            &[
                ("trace", trace.trace_id),
                ("hop", trace.hop as u64),
                ("phase", idx as u64),
                ("shard", shard as u64),
                ("replica", replica as u64),
                ("start_ns", now.as_nanos().saturating_sub(dur)),
                ("dur_ns", dur),
            ],
        );
    }

    /// Read access to one phase histogram.
    pub fn phase_hist(&self, p: Phase) -> &ringbft_obs::Histogram {
        let idx = Phase::ALL.iter().position(|&q| q == p).expect("known");
        self.reg.hist(self.phases[idx])
    }

    /// One batch of `txns` transactions executed.
    pub(crate) fn executed(&mut self, txns: u64) {
        self.reg.add(self.c_executed_txns, txns);
        self.reg.add(self.c_executed_batches, 1);
    }
    pub(crate) fn replies_sent(&mut self, n: u64) {
        self.reg.add(self.c_replies_sent, n);
    }
    pub(crate) fn checkpoint_divergences(&mut self, n: u64) {
        self.reg.add(self.c_checkpoint_divergences, n);
    }
    pub(crate) fn reply_cache_evictions(&mut self, n: u64) {
        self.reg.add(self.c_reply_cache_evictions, n);
    }
    pub(crate) fn set_state_bytes(&mut self, full: u64, delta: u64) {
        self.reg.set_gauge(self.g_state_bytes_full, full);
        self.reg.set_gauge(self.g_state_bytes_delta, delta);
    }
    /// Ring-rotation gauges and totals, read from the cst tracker at the
    /// end of each event.
    pub(crate) fn set_rotation(&mut self, c: Counts) {
        self.reg.set_gauge(self.g_csts_live, c.csts_live);
        self.reg
            .set_gauge(self.g_complaints_live, c.complaints_live);
        self.reg.set_gauge(self.g_done_occupancy, c.done_occupancy);
        for (id, total) in [
            (self.c_forwards_sent, c.forwards_sent),
            (self.c_executes_sent, c.executes_sent),
            (self.c_remote_views_sent, c.remote_views_sent),
            (self.c_forward_retransmits, c.forward_retransmits),
            (self.c_done_overwrites, c.done_overwrites),
        ] {
            let seen = self.reg.counter_value(id);
            self.reg.add(id, total - seen);
        }
    }
    /// One checkpoint announce: wall-clock nanoseconds the consensus
    /// thread spent in it, and the keys the window wrote.
    pub(crate) fn checkpoint(&mut self, wall_ns: u64, dirty_keys: u64) {
        self.reg.record(self.h_checkpoint_ns, wall_ns);
        self.reg.set_gauge(self.g_checkpoint_dirty_keys, dirty_keys);
    }
    pub(crate) fn exec_jobs(&mut self, n: u64) {
        self.reg.add(self.c_exec_jobs, n);
    }
    pub(crate) fn batch_adaptive_flushes(&mut self, n: u64) {
        self.reg.add(self.c_batch_adaptive_flushes, n);
    }
    pub(crate) fn exec_parallel_batches(&mut self, n: u64) {
        self.reg.add(self.c_exec_parallel_batches, n);
    }

    /// Execution-stage worker-pool accounting (cumulative busy/idle
    /// nanoseconds across the pool's workers).
    pub fn set_pipeline_pool(&mut self, (workers, pool): (usize, PoolStats)) {
        self.reg.set_gauge(self.g_pipeline_workers, workers as u64);
        self.reg.set_gauge(self.g_worker_busy_ns, pool.busy_ns);
        self.reg.set_gauge(self.g_worker_idle_ns, pool.idle_ns);
    }

    /// Compatibility snapshot in the legacy `RingStats` shape.
    pub fn stats(&self) -> RingStats {
        RingStats {
            executed_txns: self.reg.counter_value(self.c_executed_txns),
            executed_batches: self.reg.counter_value(self.c_executed_batches),
            forwards_sent: self.reg.counter_value(self.c_forwards_sent),
            executes_sent: self.reg.counter_value(self.c_executes_sent),
        }
    }
}

/// The registry counters that tests and the benchmark read directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingStats {
    /// Transactions executed by this replica (all fragments).
    pub executed_txns: u64,
    /// Batches fully executed.
    pub executed_batches: u64,
    /// Forward messages sent (including retransmissions).
    pub forwards_sent: u64,
    /// Execute messages sent.
    pub executes_sent: u64,
}
