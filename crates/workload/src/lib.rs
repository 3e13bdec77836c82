//! YCSB-style workload generation (§8 "Benchmark").
//!
//! The paper drives every experiment with the Yahoo Cloud Serving
//! Benchmark from the BlockBench suite: a 600 k-record table of
//! read-modify-write transactions. The knobs the evaluation varies are all
//! here:
//!
//! * the fraction of cross-shard transactions (Fig 8 V–VI),
//! * the number of involved shards per cst (Fig 8 IX–X) — involved shards
//!   are chosen *consecutively* in ring order, as in §8.5 ("our clients
//!   select consecutive shards"),
//! * the number of remote-read dependencies per complex cst (Fig 10),
//! * key skew (uniform or zipfian, the YCSB default).

pub mod arrivals;
pub mod zipf;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use ringbft_types::txn::{Operation, OperationKind, RemoteRead, Transaction};
use ringbft_types::{ClientId, ShardId, SystemConfig, TxnId};
use zipf::Zipf;

/// Key-selection skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over each shard's partition.
    Uniform,
    /// Zipfian with the given exponent (YCSB default 0.99). Higher skew
    /// raises conflict rates between concurrent transactions.
    Zipfian(f64),
}

/// Deterministic transaction generator.
pub struct WorkloadGen {
    cfg: SystemConfig,
    rng: ChaCha12Rng,
    dist: KeyDistribution,
    zipf: Option<Zipf>,
    next_txn: u64,
}

impl WorkloadGen {
    /// Creates a generator for `cfg` with the given seed.
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        Self::with_distribution(cfg, seed, KeyDistribution::Uniform)
    }

    /// Creates a generator with an explicit key distribution.
    pub fn with_distribution(cfg: SystemConfig, seed: u64, dist: KeyDistribution) -> Self {
        let per_shard = cfg.num_keys.div_ceil(cfg.z() as u64);
        let zipf = match dist {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian(theta) => Some(Zipf::new(per_shard, theta)),
        };
        WorkloadGen {
            cfg,
            rng: ChaCha12Rng::seed_from_u64(seed),
            dist,
            zipf,
            next_txn: 1,
        }
    }

    /// Namespaces transaction ids: subsequent transactions get ids
    /// starting at `ns << 24`. Needed when several generators feed one
    /// system (e.g. one per client host) — replica-side duplicate
    /// filtering requires globally unique transaction ids.
    pub fn set_txn_namespace(&mut self, ns: u64) {
        self.next_txn = (ns << 24) | 1;
    }

    fn pick_key(&mut self, shard: ShardId) -> u64 {
        let range = self.cfg.key_range(shard);
        let span = range.end - range.start;
        let off = match self.dist {
            KeyDistribution::Uniform => self.rng.random_range(0..span),
            KeyDistribution::Zipfian(_) => {
                self.zipf
                    .as_mut()
                    .expect("zipf sampler")
                    .sample(&mut self.rng)
                    % span
            }
        };
        range.start + off
    }

    /// Generates the next transaction for `client`: cross-shard with
    /// probability `cfg.cross_shard_rate`, single-shard otherwise.
    pub fn next_txn(&mut self, client: ClientId) -> Transaction {
        let is_cst = self.cfg.z() > 1
            && self.cfg.involved_shards > 1
            && self.rng.random::<f64>() < self.cfg.cross_shard_rate;
        if is_cst {
            self.next_cst(client)
        } else {
            self.next_single(client)
        }
    }

    /// A single-shard read-modify-write transaction on a random shard.
    pub fn next_single(&mut self, client: ClientId) -> Transaction {
        let shard = ShardId(self.rng.random_range(0..self.cfg.z() as u32));
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let key = self.pick_key(shard);
        Transaction::new(
            id,
            client,
            vec![Operation {
                shard,
                key,
                kind: OperationKind::ReadModifyWrite,
            }],
        )
    }

    /// A cross-shard transaction over `cfg.involved_shards` *consecutive*
    /// shards (§8.5), one key-value pair per involved shard (§8: "if a
    /// transaction accesses three regions, then it accesses three
    /// key-value pairs"), plus `cfg.remote_reads` random dependencies for
    /// complex csts (§8.8).
    pub fn next_cst(&mut self, client: ClientId) -> Transaction {
        let z = self.cfg.z() as u32;
        let m = self.cfg.involved_shards.min(self.cfg.z()) as u32;
        let start = self.rng.random_range(0..z);
        let shards: Vec<ShardId> = (0..m).map(|i| ShardId((start + i) % z)).collect();
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let ops: Vec<Operation> = shards
            .iter()
            .map(|&shard| Operation {
                shard,
                key: self.pick_key(shard),
                kind: OperationKind::ReadModifyWrite,
            })
            .collect();
        let txn = Transaction::new(id, client, ops);
        let mut remote_reads = Vec::new();
        // Remote reads: a random involved shard reads a key owned by a
        // different random involved shard ("distributed randomly across
        // shards", §8.8).
        for _ in 0..self.cfg.remote_reads {
            if shards.len() < 2 {
                break;
            }
            let ri = self.rng.random_range(0..shards.len());
            let mut oi = self.rng.random_range(0..shards.len());
            while oi == ri {
                oi = self.rng.random_range(0..shards.len());
            }
            let owner = shards[oi];
            let key = self.pick_key(owner);
            remote_reads.push(RemoteRead {
                reader: shards[ri],
                owner,
                key,
            });
        }
        txn.with_remote_reads(remote_reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::ProtocolKind;

    fn cfg(z: usize, rate: f64, involved: usize, remote: usize) -> SystemConfig {
        let mut c = SystemConfig::uniform(ProtocolKind::RingBft, z, 4);
        c.cross_shard_rate = rate;
        c.involved_shards = involved;
        c.remote_reads = remote;
        c.num_keys = 6_000;
        c
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = WorkloadGen::new(cfg(5, 0.3, 5, 0), 42);
        let mut b = WorkloadGen::new(cfg(5, 0.3, 5, 0), 42);
        for i in 0..100 {
            assert_eq!(a.next_txn(ClientId(i)), b.next_txn(ClientId(i)));
        }
        let mut c = WorkloadGen::new(cfg(5, 0.3, 5, 0), 43);
        let diffs = (0..100)
            .filter(|i| a.next_txn(ClientId(*i)) != c.next_txn(ClientId(*i)))
            .count();
        assert!(diffs > 0);
    }

    #[test]
    fn cross_shard_rate_respected() {
        let mut g = WorkloadGen::new(cfg(5, 0.3, 5, 0), 1);
        let n = 10_000;
        let cst = (0..n)
            .filter(|i| !g.next_txn(ClientId(*i)).is_single_shard())
            .count();
        let rate = cst as f64 / n as f64;
        assert!((0.27..0.33).contains(&rate), "rate {rate}");
    }

    #[test]
    fn zero_and_full_rates() {
        let mut g0 = WorkloadGen::new(cfg(5, 0.0, 5, 0), 1);
        assert!((0..500).all(|i| g0.next_txn(ClientId(i)).is_single_shard()));
        let mut g1 = WorkloadGen::new(cfg(5, 1.0, 5, 0), 1);
        assert!((0..500).all(|i| !g1.next_txn(ClientId(i)).is_single_shard()));
    }

    #[test]
    fn involved_shards_are_consecutive() {
        let mut g = WorkloadGen::new(cfg(7, 1.0, 3, 0), 9);
        for i in 0..200 {
            let t = g.next_cst(ClientId(i));
            let inv = t.involved_shards();
            assert_eq!(inv.len(), 3);
            // Consecutive mod 7: the set {s, s+1, s+2} for some s.
            let ids: std::collections::BTreeSet<u32> = inv.iter().map(|s| s.0).collect();
            let ok = (0..7u32).any(|s| {
                let want: std::collections::BTreeSet<u32> = (0..3).map(|k| (s + k) % 7).collect();
                want == ids
            });
            assert!(ok, "not consecutive: {ids:?}");
            // One key-value pair per involved shard.
            assert_eq!(t.ops.len(), 3);
        }
    }

    #[test]
    fn keys_belong_to_declared_shards() {
        let c = cfg(5, 1.0, 4, 0);
        let mut g = WorkloadGen::new(c.clone(), 3);
        for i in 0..200 {
            let t = g.next_txn(ClientId(i));
            for op in &t.ops {
                assert_eq!(c.shard_of_key(op.key), op.shard);
            }
        }
    }

    #[test]
    fn remote_reads_generated_for_complex_csts() {
        let mut g = WorkloadGen::new(cfg(5, 1.0, 5, 8), 4);
        for i in 0..50 {
            let t = g.next_cst(ClientId(i));
            assert_eq!(t.remote_reads.len(), 8);
            assert!(t.is_complex());
            for rr in &t.remote_reads {
                assert_ne!(rr.reader, rr.owner);
            }
        }
    }

    #[test]
    fn zipfian_skews_towards_low_offsets() {
        let c = cfg(1, 0.0, 1, 0);
        let mut g = WorkloadGen::with_distribution(c.clone(), 5, KeyDistribution::Zipfian(0.99));
        let mut low = 0usize;
        let n = 5_000;
        for i in 0..n {
            let t = g.next_txn(ClientId(i));
            let off = t.ops[0].key - c.key_range(ShardId(0)).start;
            if off < c.num_keys / 100 {
                low += 1;
            }
        }
        // Zipf(0.99): the hottest 1% of keys should draw far more than 1%
        // of accesses.
        assert!(low as f64 / n as f64 > 0.10, "zipf not skewed: {low}/{n}");
    }
}
