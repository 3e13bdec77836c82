//! Ring-order arithmetic (§3 "Ring Order", §4.2.1).
//!
//! Shards are logically arranged in a ring; each shard has a position
//! `id(S)`. For every cross-shard transaction the *initiator shard* is the
//! involved shard with the lowest ring position, and the transaction flows
//! through the involved shards in increasing ring order, wrapping back to
//! the initiator ("at most two rotations around the ring").
//!
//! The paper notes RingBFT "can also adopt other complex permutations of
//! these identifiers"; [`RingOrder`] therefore supports an optional
//! rotation offset, which permutes positions while preserving the ring
//! structure (and hence all deadlock-freedom arguments).

use crate::ids::ShardId;
use serde::{Deserialize, Serialize};

/// The ring order over a system of `z` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingOrder {
    /// Total number of shards `z = |𝔖|`.
    z: u32,
    /// Rotation offset applied to raw shard ids to obtain ring positions.
    /// `0` yields the paper's "lowest to highest identifier" policy.
    offset: u32,
}

impl RingOrder {
    /// The identity ring order over `z` shards (increasing identifiers).
    pub fn new(z: u32) -> Self {
        assert!(z > 0, "ring requires at least one shard");
        RingOrder { z, offset: 0 }
    }

    /// A rotated ring order: shard with raw id `offset` occupies position 0.
    pub fn rotated(z: u32, offset: u32) -> Self {
        assert!(z > 0, "ring requires at least one shard");
        RingOrder {
            z,
            offset: offset % z,
        }
    }

    /// Number of shards in the ring.
    #[inline]
    pub fn len(&self) -> u32 {
        self.z
    }

    /// Rings are never empty (constructors assert `z > 0`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Ring position of a shard under this order.
    #[inline]
    pub fn position(&self, s: ShardId) -> u32 {
        debug_assert!(s.0 < self.z, "shard {s} outside ring of {} shards", self.z);
        (s.0 + self.z - self.offset) % self.z
    }

    /// `FirstInRingOrder(ℑ)` — the initiator shard of an involved set:
    /// the involved shard with the smallest ring position (§4.2.1).
    ///
    /// `involved` must be non-empty; every member must be a valid shard.
    pub fn first(&self, involved: &[ShardId]) -> ShardId {
        *involved
            .iter()
            .min_by_key(|s| self.position(**s))
            .expect("involved-shard set must be non-empty")
    }

    /// The last involved shard in ring order (the one that wraps back to
    /// the initiator at the end of the first rotation).
    pub fn last(&self, involved: &[ShardId]) -> ShardId {
        *involved
            .iter()
            .max_by_key(|s| self.position(**s))
            .expect("involved-shard set must be non-empty")
    }

    /// `NextInRingOrder(ℑ)` from `current`: the involved shard with the
    /// smallest ring position strictly greater than `current`'s, wrapping
    /// to the initiator when `current` is last.
    pub fn next(&self, involved: &[ShardId], current: ShardId) -> ShardId {
        let cur = self.position(current);
        involved
            .iter()
            .filter(|s| self.position(**s) > cur)
            .min_by_key(|s| self.position(**s))
            .copied()
            .unwrap_or_else(|| self.first(involved))
    }

    /// `PrevInRingOrder(ℑ)` from `current`: the involved shard preceding
    /// `current`, wrapping to the last shard when `current` is the
    /// initiator.
    pub fn prev(&self, involved: &[ShardId], current: ShardId) -> ShardId {
        let cur = self.position(current);
        involved
            .iter()
            .filter(|s| self.position(**s) < cur)
            .max_by_key(|s| self.position(**s))
            .copied()
            .unwrap_or_else(|| self.last(involved))
    }

    /// Is `s` the initiator (first in ring order) of `involved`?
    pub fn is_first(&self, involved: &[ShardId], s: ShardId) -> bool {
        self.first(involved) == s
    }

    /// The full traversal order of an involved set, starting at the
    /// initiator: the path a cst takes during one rotation.
    pub fn traversal(&self, involved: &[ShardId]) -> Vec<ShardId> {
        let mut order: Vec<ShardId> = involved.to_vec();
        order.sort_by_key(|s| self.position(*s));
        order.dedup();
        order
    }

    /// Number of ring hops (Forward messages sent shard-to-shard) for one
    /// full rotation over `involved`, i.e. the path length including the
    /// wrap-around edge back to the initiator.
    pub fn rotation_hops(&self, involved: &[ShardId]) -> usize {
        let t = self.traversal(involved);
        if t.len() <= 1 {
            0
        } else {
            t.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(ids: &[u32]) -> Vec<ShardId> {
        ids.iter().map(|&i| ShardId(i)).collect()
    }

    #[test]
    fn identity_order_first_next_prev() {
        let ring = RingOrder::new(6);
        let inv = sh(&[1, 3, 5]);
        assert_eq!(ring.first(&inv), ShardId(1));
        assert_eq!(ring.last(&inv), ShardId(5));
        assert_eq!(ring.next(&inv, ShardId(1)), ShardId(3));
        assert_eq!(ring.next(&inv, ShardId(3)), ShardId(5));
        // wrap-around: last forwards to initiator
        assert_eq!(ring.next(&inv, ShardId(5)), ShardId(1));
        assert_eq!(ring.prev(&inv, ShardId(1)), ShardId(5));
        assert_eq!(ring.prev(&inv, ShardId(5)), ShardId(3));
    }

    #[test]
    fn single_shard_involved_set() {
        let ring = RingOrder::new(4);
        let inv = sh(&[2]);
        assert_eq!(ring.first(&inv), ShardId(2));
        assert_eq!(ring.last(&inv), ShardId(2));
        assert_eq!(ring.next(&inv, ShardId(2)), ShardId(2));
        assert_eq!(ring.rotation_hops(&inv), 0);
    }

    #[test]
    fn traversal_follows_ring_positions() {
        let ring = RingOrder::new(15);
        let inv = sh(&[9, 2, 14, 0]);
        assert_eq!(ring.traversal(&inv), sh(&[0, 2, 9, 14]));
        assert_eq!(ring.rotation_hops(&inv), 4);
    }

    #[test]
    fn rotation_changes_initiator() {
        // Rotate so shard 3 occupies position 0: ring order 3,4,0,1,2.
        let ring = RingOrder::rotated(5, 3);
        let inv = sh(&[0, 4]);
        assert_eq!(ring.position(ShardId(3)), 0);
        assert_eq!(ring.first(&inv), ShardId(4)); // position 1 < position 2
        assert_eq!(ring.traversal(&inv), sh(&[4, 0]));
        assert_eq!(ring.next(&inv, ShardId(0)), ShardId(4));
    }

    #[test]
    fn example_4_3_flow() {
        // Paper Example 4.3: ring S→U→V→W as shards 0..3; T over {S,U,V}.
        let ring = RingOrder::new(4);
        let inv = sh(&[0, 1, 2]);
        assert_eq!(ring.first(&inv), ShardId(0)); // S initiates
        assert_eq!(ring.next(&inv, ShardId(0)), ShardId(1)); // S → U
        assert_eq!(ring.next(&inv, ShardId(1)), ShardId(2)); // U → V
        assert_eq!(ring.next(&inv, ShardId(2)), ShardId(0)); // V wraps to S
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn first_of_empty_involved_panics() {
        RingOrder::new(3).first(&[]);
    }
}
