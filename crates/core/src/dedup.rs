//! Bounded cross-shard-transaction dedup: a rotating-window digest set.
//!
//! Replicas must recognise a cst they already finished so that late
//! retransmits (zombie Forwards, duplicate Executes, stale RemoteViews) are
//! absorbed instead of re-executed. This set keeps them for two checkpoint
//! windows in fixed memory:
//!
//! * digests are folded to nonzero 64-bit fingerprints stored in three
//!   fixed-capacity open-addressing generations;
//! * [`WindowedDigestSet::rotate`] is called once per stable checkpoint and
//!   clears the oldest generation, so any inserted digest survives at least
//!   two full checkpoint windows;
//! * on pathological overflow (more live csts than capacity in one window)
//!   the probe chain's first slot is overwritten and counted, never
//!   allocated — the counter is surfaced as a registry metric so a capacity
//!   squeeze is visible instead of silent.
//!
//! A fingerprint collision makes a *new* cst look finished (dropped, then
//! re-driven by client/watchdog retransmission) — at 2⁻⁶⁴ per pair this is
//! far below the network's own duplicate/drop rates that those watchdogs
//! already absorb.

use ringbft_crypto::Digest;

/// Linear-probe bound; membership and insertion scan the same window.
const PROBE_LIMIT: usize = 64;

/// Number of generations kept: current + two predecessors, giving every
/// entry at least two full checkpoint windows of retention.
const GENERATIONS: usize = 3;

#[derive(Debug, Clone)]
struct FpSet {
    slots: Box<[u64]>,
    mask: usize,
    len: usize,
}

impl FpSet {
    fn new(cap: usize) -> FpSet {
        FpSet {
            slots: vec![0u64; cap].into_boxed_slice(),
            mask: cap - 1,
            len: 0,
        }
    }

    fn contains(&self, fp: u64) -> bool {
        let start = fp as usize & self.mask;
        for i in 0..PROBE_LIMIT {
            let s = self.slots[(start + i) & self.mask];
            if s == fp {
                return true;
            }
            if s == 0 {
                return false;
            }
        }
        false
    }

    /// Inserts `fp`; returns true when an occupied slot had to be
    /// overwritten (probe window exhausted).
    fn insert(&mut self, fp: u64) -> bool {
        let start = fp as usize & self.mask;
        for i in 0..PROBE_LIMIT {
            let idx = (start + i) & self.mask;
            if self.slots[idx] == fp {
                return false;
            }
            if self.slots[idx] == 0 {
                self.slots[idx] = fp;
                self.len += 1;
                return false;
            }
        }
        self.slots[start] = fp; // probe window full: overwrite, keep len
        true
    }

    fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }
}

/// Fixed-memory set of "finished" cst digests spanning the last two-to-three
/// checkpoint windows. See the module docs for the retention contract.
#[derive(Debug, Clone)]
pub struct WindowedDigestSet {
    gens: Vec<FpSet>,
    cur: usize,
    overwrites: u64,
}

impl WindowedDigestSet {
    /// A set sized for roughly `expected_per_window` insertions per
    /// checkpoint window (rounded up to a power of two, floor 1024, with
    /// 4× headroom to keep probe chains short).
    pub fn with_window(expected_per_window: u64) -> WindowedDigestSet {
        let cap = (expected_per_window.saturating_mul(4).max(1024) as usize)
            .next_power_of_two()
            .min(1 << 16);
        WindowedDigestSet {
            gens: (0..GENERATIONS).map(|_| FpSet::new(cap)).collect(),
            cur: 0,
            overwrites: 0,
        }
    }

    fn fingerprint(d: &Digest) -> u64 {
        let mut fp = 0u64;
        for chunk in d.chunks_exact(8) {
            fp ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if fp == 0 {
            fp = 0x9e37_79b9_7f4a_7c15; // reserve 0 as the empty-slot marker
        }
        fp
    }

    /// Marks `d` as finished.
    pub fn insert(&mut self, d: &Digest) {
        let fp = Self::fingerprint(d);
        if self.gens.iter().any(|g| g.contains(fp)) {
            return;
        }
        if self.gens[self.cur].insert(fp) {
            self.overwrites += 1;
        }
    }

    /// True when `d` was marked finished within the retained windows.
    pub fn contains(&self, d: &Digest) -> bool {
        let fp = Self::fingerprint(d);
        self.gens.iter().any(|g| g.contains(fp))
    }

    /// Advances one checkpoint window: the oldest generation is cleared and
    /// becomes the new current one. Call once per stable checkpoint.
    pub fn rotate(&mut self) {
        self.cur = (self.cur + 1) % self.gens.len();
        self.gens[self.cur].clear();
    }

    /// Fingerprints currently stored across all generations (the occupancy
    /// gauge; duplicates across generations are impossible by construction).
    pub fn occupancy(&self) -> usize {
        self.gens.iter().map(|g| g.len).sum()
    }

    /// Times an insert had to overwrite a live slot (capacity pressure).
    pub fn overwrites(&self) -> u64 {
        self.overwrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(i: u64) -> Digest {
        let mut d = [0u8; 32];
        d[..8].copy_from_slice(&i.to_le_bytes());
        d[8..16].copy_from_slice(&(i.wrapping_mul(0x9e3779b97f4a7c15)).to_le_bytes());
        d
    }

    #[test]
    fn survives_two_rotations_evicted_after_three() {
        let mut s = WindowedDigestSet::with_window(16);
        s.insert(&digest(1));
        assert!(s.contains(&digest(1)));
        s.rotate();
        assert!(s.contains(&digest(1)), "must survive one rotation");
        s.rotate();
        assert!(s.contains(&digest(1)), "must survive two rotations");
        s.rotate();
        assert!(
            !s.contains(&digest(1)),
            "evicted once its generation is cleared"
        );
    }

    #[test]
    fn reinsert_after_rotation_refreshes_lifetime() {
        let mut s = WindowedDigestSet::with_window(16);
        s.insert(&digest(7));
        s.rotate();
        // Still visible, so insert dedups — but a *fresh* insert after
        // eviction lands in the new current generation.
        s.rotate();
        s.rotate();
        assert!(!s.contains(&digest(7)));
        s.insert(&digest(7));
        assert!(s.contains(&digest(7)));
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn occupancy_tracks_distinct_inserts() {
        let mut s = WindowedDigestSet::with_window(16);
        for i in 0..100 {
            s.insert(&digest(i));
        }
        for i in 0..100 {
            s.insert(&digest(i)); // duplicates don't grow occupancy
        }
        assert_eq!(s.occupancy(), 100);
        assert_eq!(s.overwrites(), 0);
        for i in 0..100 {
            assert!(s.contains(&digest(i)));
        }
        assert!(!s.contains(&digest(1000)));
    }

    #[test]
    fn overflow_overwrites_and_counts_instead_of_growing() {
        let mut s = WindowedDigestSet::with_window(1); // floor: 1024 per gen
        let per_gen = s.gens[0].slots.len();
        for i in 0..(per_gen as u64 * 2) {
            s.insert(&digest(i));
        }
        assert!(s.occupancy() <= per_gen);
        assert!(s.overwrites() > 0, "squeeze must be counted");
    }
}
