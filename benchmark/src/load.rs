//! The benchmark's own load generator: one [`ProtocolNode`] hosted on
//! one reactor thread, dialling only shard primaries.
//!
//! `SimClient::set_open_loop` cannot drive the real runtime — it arms one
//! millisecond-granularity timer per arrival, so it tops out near
//! 1 500 tps. This client holds an *absolute* arrival schedule and, on a
//! 1 ms tick, issues every arrival that is due. A late tick therefore
//! issues its backlog at once, and because latency is counted from the
//! due time, the stall is charged to the requests it delayed.

use ringbft_core::RingMsg;
use ringbft_crypto::Digest;
use ringbft_obs::Histogram;
use ringbft_sim::AnyMsg;
use ringbft_types::sansio::ProtocolNode;
use ringbft_types::txn::{Key, Operation, OperationKind, Transaction};
use ringbft_types::{
    trace, Action, ClientId, Duration, Instant, NodeId, Outbox, ReplicaId, RingOrder, SystemConfig,
    TimerKind, TraceContext, TxnId,
};
use ringbft_workload::arrivals::{ArrivalGen, ArrivalProcess};
use ringbft_workload::WorkloadGen;
use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use crate::spec::Load;

/// First logical client id; the runtime hosting the generator is
/// `NodeId::Client(ClientId(FIRST_CLIENT))` and the rest alias to it.
pub const FIRST_CLIENT: u64 = 1;

/// Transaction-id namespaces (`ns << 24 | counter`): the prefill's ids
/// sort below the workload's, so per-client replay protection sees one
/// ascending id stream per client.
const PREFILL_NS: u64 = 1;
pub const WORKLOAD_NS: u64 = 2;

/// Prefill requests in flight.
const PREFILL_CLIENTS: u64 = 50;
/// Requests the prefill is spread over, each writing its share of the
/// keys: 160 full batches whatever the key count, so that set-up is the
/// same amount of consensus work on every workload and long enough
/// (0.3 s and up) to stand above connection-establishment jitter.
const PREFILL_TXNS: u64 = 8_000;

/// Most requests an open-loop generator keeps outstanding. Far above
/// what these workloads hold in flight (60 to 1 500), so it only engages
/// when the cluster — or the whole machine — stalls for most of a second.
/// Arrivals beyond it wait at the generator and keep their due time, so
/// the wait is charged to them as latency and shows as generator lag,
/// instead of overflowing a 2 MiB peer queue, whose dropped frames an
/// open-loop client (which cannot retransmit an old request id) would
/// never recover.
const MAX_OUTSTANDING: usize = 8_192;

const TICK_TOKEN: u64 = 0;
const TICK: Duration = Duration::from_millis(1);

/// The absolute open-loop schedule: due times in nanoseconds from the
/// client's start. A pure function of `(rate, seed)`.
pub struct Schedule {
    arrivals: ArrivalGen,
    next_due_ns: u64,
}

impl Schedule {
    pub fn poisson(rate_tps: f64, seed: u64) -> Schedule {
        let mut arrivals = ArrivalGen::new(ArrivalProcess::Poisson { rate_tps }, seed);
        let next_due_ns = arrivals.next_interarrival().as_nanos();
        Schedule {
            arrivals,
            next_due_ns,
        }
    }

    /// The next arrival's due time, if it is due by `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        if self.next_due_ns > now_ns {
            return None;
        }
        let due = self.next_due_ns;
        self.next_due_ns += self.arrivals.next_interarrival().as_nanos();
        Some(due)
    }
}

/// One request, times in nanoseconds from the client's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// When it was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    /// When its reply quorum completed; `None` if it never did.
    pub done_ns: Option<u64>,
    /// True when it involved more than one shard.
    pub cst: bool,
    /// Shards that execute a fragment of it.
    pub shards: u8,
}

struct InFlight {
    /// Index into `records`; `None` for a prefill request.
    record: Option<usize>,
    client: ClientId,
    /// Distinct repliers and the batch digest each vouched for.
    votes: Vec<(ReplicaId, Digest)>,
}

enum Mode {
    Open {
        schedule: Schedule,
        next_client: u64,
    },
    Closed,
}

pub struct LoadClient {
    cfg: SystemConfig,
    gen: WorkloadGen,
    ring: RingOrder,
    quorum: usize,
    clients: u64,
    mode: Mode,
    /// No request is issued at or after this offset from start.
    issue_until_ns: u64,
    /// Keys not yet written by the prefill, which ends when it is empty
    /// and nothing is in flight.
    prefill: std::ops::Range<Key>,
    prefill_txns: u64,
    /// When the workload's own traffic began (`None` during the prefill).
    start: Option<Instant>,
    in_flight: HashMap<TxnId, InFlight>,
    /// Told when the workload's traffic begins (cluster-clock time).
    started: Option<Sender<Instant>>,
    /// Every request issued, in issue order.
    pub records: Vec<Record>,
    /// How late each open-loop arrival was issued (ns behind its due time).
    pub gen_lag: Histogram,
    /// Replies that arrived for a request already complete (or unknown).
    pub late_replies: u64,
    /// Repeated replies from one replica for one pending request.
    pub duplicate_replies: u64,
}

impl LoadClient {
    pub fn new(
        cfg: SystemConfig,
        load: Load,
        seed: u64,
        issue_until: Duration,
        started: Option<Sender<Instant>>,
    ) -> LoadClient {
        let mut gen = WorkloadGen::new(cfg.clone(), seed);
        gen.set_txn_namespace(WORKLOAD_NS);
        let (mode, clients) = match load {
            Load::Open { rate_tps } => (
                Mode::Open {
                    // A different stream from the key generator's.
                    schedule: Schedule::poisson(rate_tps, seed ^ 0x9E37_79B9_7F4A_7C15),
                    next_client: 0,
                },
                cfg.clients as u64,
            ),
            Load::Closed { clients } => (Mode::Closed, clients),
        };
        LoadClient {
            ring: cfg.ring_order(),
            quorum: cfg.shards[0].f() + 1,
            gen,
            clients,
            mode,
            issue_until_ns: issue_until.as_nanos(),
            prefill: 0..cfg.num_keys,
            prefill_txns: 0,
            start: None,
            in_flight: HashMap::new(),
            started,
            records: Vec::new(),
            gen_lag: Histogram::new(),
            late_replies: 0,
            duplicate_replies: 0,
            cfg,
        }
    }

    /// Starts the workload's traffic at once, on an empty store.
    #[cfg(test)]
    fn without_prefill(mut self) -> LoadClient {
        self.prefill = 0..0;
        self
    }

    /// Every logical client id served, for alias routing.
    pub fn logical_clients(&self) -> impl Iterator<Item = ClientId> {
        (FIRST_CLIENT..FIRST_CLIENT + self.clients).map(ClientId)
    }

    /// Requests still waiting for their quorum.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Prefill requests issued (each executes on one shard).
    pub fn prefill_txns(&self) -> u64 {
        self.prefill_txns
    }

    fn offset_ns(&self, now: Instant) -> u64 {
        now.since(self.start.expect("workload started")).as_nanos()
    }

    fn send(&mut self, txn: Transaction, record: Option<usize>, out: &mut Outbox<AnyMsg>) {
        let primary = ReplicaId::new(self.ring.first(&txn.involved_shards()), 0);
        self.in_flight.insert(
            txn.id,
            InFlight {
                record,
                client: txn.client,
                votes: Vec::new(),
            },
        );
        out.send(
            NodeId::Replica(primary),
            AnyMsg::Ring(RingMsg::Request {
                txn: Arc::new(txn),
                relayed: false,
            }),
        );
    }

    /// Writes the next few unwritten keys of one shard in one request, so
    /// the measured traffic meets a store of the workload's full size
    /// however short the run is. Returns false when no key is left.
    fn issue_prefill(&mut self, client: ClientId, out: &mut Outbox<AnyMsg>) -> bool {
        let Some(first) = self.prefill.next() else {
            return false;
        };
        let shard = self.cfg.shard_of_key(first);
        let share = self.cfg.num_keys.div_ceil(PREFILL_TXNS);
        let last = (first + share).min(self.cfg.key_range(shard).end);
        self.prefill.start = last.min(self.prefill.end);
        self.prefill_txns += 1;
        let ops = (first..last)
            .map(|key| Operation {
                shard,
                key,
                kind: OperationKind::ReadModifyWrite,
            })
            .collect();
        let id = TxnId((PREFILL_NS << 24) | self.prefill_txns);
        self.send(Transaction::new(id, client, ops), None, out);
        true
    }

    /// The prefill is over: the workload's schedule starts now.
    fn begin(&mut self, now: Instant, out: &mut Outbox<AnyMsg>) {
        self.start = Some(now);
        if let Some(tx) = self.started.take() {
            let _ = tx.send(now);
        }
        match self.mode {
            Mode::Open { .. } => self.tick(now, out),
            Mode::Closed => {
                for c in self.logical_clients() {
                    self.issue(0, c, out);
                }
            }
        }
    }

    fn issue(&mut self, due_ns: u64, client: ClientId, out: &mut Outbox<AnyMsg>) {
        let mut txn = self.gen.next_txn(client);
        if trace::sampled(txn.id.0, self.cfg.trace_sample_rate) {
            txn.trace = Some(TraceContext::new(trace::trace_id_for(txn.id.0)));
        }
        let involved = txn.involved_shards();
        self.records.push(Record {
            due_ns,
            done_ns: None,
            cst: involved.len() > 1,
            shards: involved.len() as u8,
        });
        self.send(txn, Some(self.records.len() - 1), out);
    }

    fn tick(&mut self, now: Instant, out: &mut Outbox<AnyMsg>) {
        let now_ns = self.offset_ns(now);
        let horizon = now_ns.min(self.issue_until_ns.saturating_sub(1));
        while self.in_flight.len() < MAX_OUTSTANDING {
            let Mode::Open {
                schedule,
                next_client,
            } = &mut self.mode
            else {
                return;
            };
            let Some(due_ns) = schedule.pop_due(horizon) else {
                break;
            };
            let client = ClientId(FIRST_CLIENT + *next_client % self.clients);
            *next_client += 1;
            self.gen_lag.record(now_ns - due_ns);
            self.issue(due_ns, client, out);
        }
        // Keep ticking until every arrival due before the horizon is out,
        // so a backlog held back by the cap is issued, not forgotten.
        let backlog = matches!(&self.mode, Mode::Open { schedule, .. }
            if schedule.next_due_ns < self.issue_until_ns);
        if now_ns < self.issue_until_ns || backlog {
            out.set_timer(TimerKind::Client, TICK_TOKEN, TICK);
        }
    }

    fn on_reply(
        &mut self,
        now: Instant,
        from: ReplicaId,
        digest: Digest,
        ids: Vec<TxnId>,
        out: &mut Outbox<AnyMsg>,
    ) {
        for id in ids {
            let Some(fl) = self.in_flight.get_mut(&id) else {
                self.late_replies += 1;
                continue;
            };
            if fl.votes.iter().any(|(r, _)| *r == from) {
                self.duplicate_replies += 1;
                continue;
            }
            fl.votes.push((from, digest));
            if fl.votes.iter().filter(|(_, d)| *d == digest).count() < self.quorum {
                continue;
            }
            let fl = self.in_flight.remove(&id).expect("present above");
            let Some(record) = fl.record else {
                if !self.issue_prefill(fl.client, out) && self.in_flight.is_empty() {
                    self.begin(now, out);
                }
                continue;
            };
            let now_ns = self.offset_ns(now);
            self.records[record].done_ns = Some(now_ns);
            if matches!(self.mode, Mode::Closed) && now_ns < self.issue_until_ns {
                self.issue(now_ns, fl.client, out);
            }
        }
    }
}

impl ProtocolNode<AnyMsg> for LoadClient {
    fn on_start(&mut self, now: Instant) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        for c in self.logical_clients().take(PREFILL_CLIENTS as usize) {
            self.issue_prefill(c, &mut out);
        }
        if self.in_flight.is_empty() {
            self.begin(now, &mut out);
        }
        out.take()
    }

    fn on_message(&mut self, now: Instant, from: NodeId, msg: AnyMsg) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        if let (
            NodeId::Replica(from),
            AnyMsg::Ring(RingMsg::Reply {
                digest, txn_ids, ..
            }),
        ) = (from, msg)
        {
            self.on_reply(now, from, digest, txn_ids, &mut out);
        }
        out.take()
    }

    fn on_timer(&mut self, now: Instant, kind: TimerKind, token: u64) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        if kind == TimerKind::Client && token == TICK_TOKEN {
            self.tick(now, &mut out);
        }
        out.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, Load};

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    fn requests(actions: &[Action<AnyMsg>]) -> Vec<TxnId> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: AnyMsg::Ring(RingMsg::Request { txn, .. }),
                    ..
                } => Some(txn.id),
                _ => None,
            })
            .collect()
    }

    fn reply(id: TxnId, digest: Digest) -> AnyMsg {
        AnyMsg::Ring(RingMsg::Reply {
            client: ClientId(FIRST_CLIENT),
            digest,
            txn_ids: vec![id],
        })
    }

    fn replica(i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ringbft_types::ShardId(0), i))
    }

    fn open_client(seed: u64) -> LoadClient {
        let w = workload("single_open").unwrap();
        let cfg = w.config(seed, false);
        LoadClient::new(cfg, w.load, seed, Duration::from_secs(10), None).without_prefill()
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let dues = |seed| {
            let mut s = Schedule::poisson(12_000.0, seed);
            (0..1_000)
                .map(|_| s.pop_due(u64::MAX).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(dues(7), dues(7));
        assert_ne!(dues(7), dues(8));
        assert!(dues(7).windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // Whatever the tick pattern, the same requests are issued.
        let issue = |ticks: &[u64]| {
            let mut c = open_client(7);
            let mut ids = requests(&c.on_start(at(0)));
            for &t in ticks {
                ids.extend(requests(&c.on_timer(at(t), TimerKind::Client, TICK_TOKEN)));
            }
            (ids, c.records.iter().map(|r| r.due_ns).collect::<Vec<_>>())
        };
        assert_eq!(issue(&[1, 2, 3, 40]), issue(&[40]));
    }

    #[test]
    fn stalled_tick_issues_backlog_and_charges_the_stall() {
        let mut c = open_client(3);
        c.on_start(at(0));
        // The reactor stalls: the next tick comes 50 ms late.
        let sent = requests(&c.on_timer(at(50), TimerKind::Client, TICK_TOKEN));
        // 12 000 tps for 50 ms is 600 arrivals, give or take Poisson noise.
        assert!((450..750).contains(&sent.len()), "backlog {}", sent.len());
        assert!(c.records.iter().all(|r| r.due_ns <= 50_000_000));
        assert!(c.gen_lag.max() > 40_000_000, "lateness is recorded");
        // The first request was due near 0; its reply quorum at 52 ms is
        // 52 ms of latency, although it was sent at 50 ms.
        let d = [1u8; 32];
        c.on_message(at(51), replica(0), reply(sent[0], d));
        c.on_message(at(52), replica(1), reply(sent[0], d));
        let r = c.records[0];
        assert_eq!(r.done_ns, Some(52_000_000));
        assert!(r.done_ns.unwrap() - r.due_ns > 51_000_000);
    }

    #[test]
    fn a_long_stall_queues_arrivals_at_the_generator() {
        let mut c = open_client(4);
        c.on_start(at(0));
        // Nothing answers for a second: 12 000 arrivals are due, only
        // MAX_OUTSTANDING of them go out.
        let sent = requests(&c.on_timer(at(1_000), TimerKind::Client, TICK_TOKEN));
        assert_eq!(sent.len(), MAX_OUTSTANDING);
        assert!(requests(&c.on_timer(at(1_001), TimerKind::Client, TICK_TOKEN)).is_empty());
        // One completes; the next tick issues the oldest waiting arrival,
        // still timed from when it was due.
        let d = [1u8; 32];
        c.on_message(at(1_002), replica(0), reply(sent[0], d));
        c.on_message(at(1_002), replica(1), reply(sent[0], d));
        let next = requests(&c.on_timer(at(1_003), TimerKind::Client, TICK_TOKEN));
        assert_eq!(next.len(), 1);
        let r = c.records.last().unwrap();
        assert!(
            r.due_ns < 800_000_000,
            "due {} ns, issued at 1 003 ms",
            r.due_ns
        );
    }

    #[test]
    fn duplicate_and_late_replies_never_double_count() {
        let mut c = open_client(5);
        c.on_start(at(0));
        let sent = requests(&c.on_timer(at(5), TimerKind::Client, TICK_TOKEN));
        let (a, b) = ([1u8; 32], [2u8; 32]);
        // One replica repeating itself is one vote.
        c.on_message(at(6), replica(0), reply(sent[0], a));
        c.on_message(at(7), replica(0), reply(sent[0], a));
        assert_eq!(c.records[0].done_ns, None);
        assert_eq!(c.duplicate_replies, 1);
        // Two replicas that disagree are no quorum.
        c.on_message(at(8), replica(1), reply(sent[0], b));
        assert_eq!(c.records[0].done_ns, None);
        // A second matching digest completes it, once.
        c.on_message(at(9), replica(2), reply(sent[0], a));
        assert_eq!(c.records[0].done_ns, Some(9_000_000));
        c.on_message(at(30), replica(3), reply(sent[0], a));
        assert_eq!(c.records[0].done_ns, Some(9_000_000));
        assert_eq!(c.late_replies, 1);
        assert_eq!(c.records.iter().filter(|r| r.done_ns.is_some()).count(), 1);
    }

    #[test]
    fn prefill_writes_every_key_once_then_starts_the_workload() {
        let w = workload("cst_open").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = w.config(1, false);
        let mut c = LoadClient::new(cfg.clone(), w.load, 1, Duration::from_secs(1), Some(tx));
        let mut written = Vec::new();
        let mut pending: Vec<Action<AnyMsg>> = c.on_start(at(0));
        let d = [3u8; 32];
        let mut now = 0;
        while c.start.is_none() {
            assert!(!pending.is_empty(), "prefill stalled");
            for a in std::mem::take(&mut pending) {
                let Action::Send {
                    to: NodeId::Replica(to),
                    msg: AnyMsg::Ring(RingMsg::Request { txn, .. }),
                } = a
                else {
                    continue;
                };
                assert_eq!(
                    txn.involved_shards(),
                    vec![to.shard],
                    "sent to its shard's primary"
                );
                assert_eq!(to.index, 0);
                written.extend(txn.ops.iter().map(|op| op.key));
                now += 1;
                let r = |i| NodeId::Replica(ReplicaId::new(to.shard, i));
                pending.extend(c.on_message(at(now), r(1), reply(txn.id, d)));
                pending.extend(c.on_message(at(now), r(2), reply(txn.id, d)));
            }
        }
        assert_eq!(written, (0..cfg.num_keys).collect::<Vec<_>>());
        assert_eq!(c.prefill_txns(), PREFILL_TXNS);
        assert_eq!(rx.try_recv(), Ok(at(now)));
        assert!(c.records.is_empty(), "prefill requests are not measured");
        assert!(
            pending.iter().any(|a| matches!(a, Action::SetTimer { .. })),
            "the open-loop tick is armed"
        );
    }

    #[test]
    fn closed_loop_keeps_one_request_per_client_in_flight() {
        let w = workload("single_sat").unwrap();
        let mut c = LoadClient::new(
            w.config(1, false),
            Load::Closed { clients: 8 },
            1,
            Duration::from_millis(100),
            None,
        )
        .without_prefill();
        let first = requests(&c.on_start(at(0)));
        assert_eq!(first.len(), 8);
        let d = [9u8; 32];
        c.on_message(at(1), replica(0), reply(first[0], d));
        let next = requests(&c.on_message(at(2), replica(1), reply(first[0], d)));
        assert_eq!(next.len(), 1, "completion issues the client's next request");
        assert_eq!(c.in_flight_len(), 8);
        assert_eq!(c.records[8].due_ns, 2_000_000, "timed from its send");
        // Past the issue horizon a completion issues nothing.
        c.on_message(at(200), replica(0), reply(first[1], d));
        let none = requests(&c.on_message(at(201), replica(1), reply(first[1], d)));
        assert!(none.is_empty());
        assert_eq!(c.in_flight_len(), 7);
    }
}
