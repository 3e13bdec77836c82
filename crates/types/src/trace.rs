//! Causal trace context for cross-shard transactions.
//!
//! RingBFT's defining cost is the ring-order journey of a cross-shard
//! transaction — process, forward, re-transmit across every involved
//! shard (§4). A sampled transaction carries a [`TraceContext`] from the
//! issuing client through every consensus and Forward hop, so each
//! replica can stamp *spans* (phase, shard, replica, node-local start
//! and duration) into its local trace ring keyed by the trace id.
//!
//! Timelines are assembled *hop-relatively*: replicas never compare
//! wall clocks across nodes. The hop counter — incremented each time
//! the transaction is forwarded along the ring — gives every span an
//! unambiguous position on the ring journey even when ring dumps arrive
//! out of order or from skewed clocks.

use serde::{Deserialize, Serialize};

/// Trace context attached to a sampled transaction: a 64-bit trace id
/// plus the ring-hop counter at the point the carrying message was sent.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TraceContext {
    /// Globally unique (per run) trace identifier.
    pub trace_id: u64,
    /// Ring-hop counter: 0 at the initiator shard, incremented by each
    /// Forward along the ring (first and second rotation alike).
    pub hop: u32,
}

impl TraceContext {
    /// A fresh trace at hop 0.
    pub fn new(trace_id: u64) -> TraceContext {
        TraceContext { trace_id, hop: 0 }
    }

    /// The context one Forward hop later.
    pub fn next_hop(self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            hop: self.hop.saturating_add(1),
        }
    }
}

/// A message that may carry a sampled transaction's [`TraceContext`].
/// The TCP runtime copies it into each frame envelope, so traffic can be
/// correlated by trace id without decoding bodies.
pub trait Traced {
    /// The trace context this message transports. Default: none.
    fn trace_context(&self) -> Option<TraceContext> {
        None
    }
}

/// Deterministic sampling decision: transaction `id` is traced at a
/// `1 / rate` sampling rate. `rate = 0` disables tracing entirely,
/// `rate = 1` traces everything. Deterministic in the id so every
/// driver (simulator, TCP cluster, bench) samples the same
/// transactions and tests can pick ids they know are sampled.
#[inline]
pub fn sampled(id: u64, rate: u64) -> bool {
    rate > 0 && id.is_multiple_of(rate)
}

/// Derives the trace id for a sampled transaction from its id. A
/// Fibonacci-hash spread keeps trace ids well-distributed even though
/// transaction ids are sequential per namespace, while staying
/// deterministic across drivers.
#[inline]
pub fn trace_id_for(txn_id: u64) -> u64 {
    // Never 0: collectors use 0 as "absent" in compact field encodings.
    txn_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_gated() {
        assert!(!sampled(10, 0), "rate 0 disables tracing");
        assert!(sampled(10, 1));
        assert!(sampled(64, 64));
        assert!(!sampled(65, 64));
        assert_eq!(sampled(42, 7), sampled(42, 7));
    }

    #[test]
    fn hop_advances_and_saturates() {
        let t = TraceContext::new(9);
        assert_eq!(t.hop, 0);
        assert_eq!(t.next_hop().hop, 1);
        let max = TraceContext {
            trace_id: 9,
            hop: u32::MAX,
        };
        assert_eq!(max.next_hop().hop, u32::MAX);
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        assert_ne!(trace_id_for(0), 0);
        assert_ne!(trace_id_for(1), trace_id_for(2));
    }
}
