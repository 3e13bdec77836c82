//! RCC — Resilient Concurrent Consensus (Gupta et al., ICDE'21) as a
//! Figure 1 baseline.
//!
//! RCC parallelizes PBFT wait-free: *every* replica acts as the primary of
//! its own instance stream, so incoming client load is spread over `n`
//! concurrent PBFT instances instead of funneling through one primary.
//! Each stream is an ordinary PBFT; stream `j` is led by replica `j`
//! (implemented by starting the embedded [`PbftCore`] in view `j`).

use crate::common::{reply_clients, Pooler, SsMsg};
use ringbft_pbft::{PbftConfig, PbftCore, PbftEvent, PbftMsg};
use ringbft_types::txn::Transaction;
use ringbft_types::{Action, Duration, Instant, NodeId, Outbox, ReplicaId, TimerKind, ViewNum};
use std::sync::Arc;

const FLUSH_TOKEN: u64 = (1 << 62) - 1;

/// A RCC replica: `n` embedded PBFT streams, leading its own.
pub struct RccReplica {
    me: ReplicaId,
    streams: Vec<PbftCore>,
    pool: Pooler,
    flush_armed: bool,
    /// Batches committed across all streams (diagnostics).
    pub committed: u64,
}

impl RccReplica {
    /// Creates replica `me` of an `n`-replica group.
    pub fn new(me: ReplicaId, n: usize, batch_size: usize, local_timeout: Duration) -> Self {
        let streams = (0..n as u64)
            .map(|j| {
                PbftCore::new_with_view(
                    me,
                    PbftConfig {
                        n,
                        checkpoint_interval: 128,
                        external_checkpoints: false,
                        local_timeout,
                    },
                    ViewNum(j),
                )
            })
            .collect();
        RccReplica {
            me,
            streams,
            pool: Pooler::new(batch_size, me.index as u64 + 1),
            flush_armed: false,
            committed: 0,
        }
    }

    fn own_stream(&self) -> usize {
        self.me.index as usize
    }

    fn drive<F>(&mut self, stream: usize, f: F, out: &mut Outbox<SsMsg>)
    where
        F: FnOnce(&mut PbftCore, &mut Outbox<PbftMsg>, &mut Vec<PbftEvent>),
    {
        let mut pout = Outbox::new();
        let mut events = Vec::new();
        f(&mut self.streams[stream], &mut pout, &mut events);
        let s = stream as u32;
        for a in pout.take() {
            match a.map_msg(|m| SsMsg::Rcc { stream: s, msg: m }) {
                Action::Send { to, msg } => out.send(to, msg),
                Action::SendMany { tos, msg } => out.send_many(tos, msg),
                // Namespace timer tokens by stream so streams don't
                // cancel each other's timers.
                Action::SetTimer { kind, token, after } => {
                    out.set_timer(kind, token ^ ((s as u64) << 48), after)
                }
                Action::CancelTimer { kind, token } => {
                    out.cancel_timer(kind, token ^ ((s as u64) << 48))
                }
                Action::Executed { seq, txns } => out.executed(seq, txns),
                Action::ViewChanged { view } => out.view_changed(view),
            }
        }
        for e in events {
            if let PbftEvent::Committed {
                seq, digest, batch, ..
            } = e
            {
                self.committed += 1;
                out.executed(seq.0, batch.len() as u32);
                // Only the stream leader answers the client (one reply
                // set per decision; the client still waits for f+1, which
                // RCC provides by having all replicas of the stream reply
                // — we model replies from every replica).
                reply_clients(out, digest, &batch);
            }
        }
    }

    /// Handles a message.
    pub fn on_message(&mut self, now: Instant, from: NodeId, msg: SsMsg, out: &mut Outbox<SsMsg>) {
        match msg {
            SsMsg::Request { txn, .. } => self.on_request(txn, out),
            SsMsg::Rcc { stream, msg } => {
                let NodeId::Replica(r) = from else { return };
                let stream = stream as usize;
                if stream >= self.streams.len() {
                    return;
                }
                self.drive(stream, |p, po, ev| p.on_message(now, r, msg, po, ev), out);
            }
            _ => {}
        }
    }

    fn on_request(&mut self, txn: Arc<Transaction>, out: &mut Outbox<SsMsg>) {
        // Multi-primary: pool locally and propose into our own stream.
        if let Some(batch) = self.pool.push((*txn).clone()) {
            let stream = self.own_stream();
            self.drive(
                stream,
                |p, po, ev| {
                    p.propose(batch, po, ev);
                },
                out,
            );
        }
        if !self.pool.is_empty() && !self.flush_armed {
            self.flush_armed = true;
            out.set_timer(TimerKind::Client, FLUSH_TOKEN, Duration::from_millis(100));
        }
    }

    /// Handles a timer.
    pub fn on_timer(
        &mut self,
        _now: Instant,
        kind: TimerKind,
        token: u64,
        out: &mut Outbox<SsMsg>,
    ) {
        if kind == TimerKind::Client && token == FLUSH_TOKEN {
            self.flush_armed = false;
            if let Some(batch) = self.pool.cut() {
                let stream = self.own_stream();
                self.drive(
                    stream,
                    |p, po, ev| {
                        p.propose(batch, po, ev);
                    },
                    out,
                );
            }
            return;
        }
        if kind == TimerKind::Local {
            // Route back to the owning stream via the token namespace.
            let stream = ((token >> 48) & 0xffff) as usize;
            let inner = token ^ ((stream as u64) << 48);
            if stream < self.streams.len() {
                self.drive(
                    stream,
                    |p, po, ev| {
                        p.on_timer(kind, inner, po, ev);
                    },
                    out,
                );
            }
        }
    }
}
