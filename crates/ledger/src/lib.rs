//! The immutable append-only ledger of §7.
//!
//! Fully-replicated protocols keep one blockchain; sharded protocols keep
//! a **partial blockchain** `𝔏ₛ` per shard, and the complete system state
//! is the union `𝔏S₁ ∪ … ∪ 𝔏S_z`. Each block is
//! `𝔅ₖ = {k, Δ, p_Sᵢ, H(𝔅ₖ₋₁)}` (eq. 3): the sequence number, the Merkle
//! root of the batch, the proposing primary, and the hash of the previous
//! block. Chains start from an agreed-upon genesis block.
//!
//! A block containing cross-shard transactions is appended to the ledger
//! of *every* involved shard; the relative order of two such blocks may
//! differ across ledgers **unless** the blocks conflict, in which case all
//! involved shards must order them identically — checked by
//! [`consistent_conflict_order`].

use ringbft_crypto::{Digest, MerkleTree};
use ringbft_types::ShardId;

pub mod block;

pub use block::{Block, BlockBody};

/// The partial blockchain maintained by the replicas of one shard.
///
/// To keep memory bounded on a long-running replica, the chain prefix up
/// to the last stable checkpoint can be pruned
/// ([`Ledger::prune_through_seq`]): pruned blocks are discarded but their
/// place in the chain is remembered as `(base_height, base_hash)`, so
/// `verify` still proves the retained tail chains onto the pruned
/// history and `height` keeps counting absolutely.
#[derive(Debug, Clone)]
pub struct Ledger {
    shard: ShardId,
    /// Number of pruned blocks preceding `blocks[0]`.
    base_height: u64,
    /// Hash of the last pruned block (all-zero for an unpruned chain,
    /// matching genesis's `prev_hash`).
    base_hash: Digest,
    blocks: Vec<Block>,
}

/// Errors raised when appending or validating blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The block's `prev_hash` does not match the current head.
    BrokenChain {
        /// Height at which the mismatch occurred.
        height: usize,
    },
    /// A block's stored hash does not match its recomputed hash.
    CorruptBlock {
        /// Height of the corrupt block.
        height: usize,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::BrokenChain { height } => {
                write!(f, "prev-hash mismatch at height {height}")
            }
            LedgerError::CorruptBlock { height } => {
                write!(f, "block hash mismatch at height {height}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

impl Ledger {
    /// Creates the ledger of `shard`, containing only the genesis block
    /// (the "agreed upon dummy block" of §7, identical across replicas).
    pub fn new(shard: ShardId) -> Self {
        Ledger {
            shard,
            base_height: 0,
            base_hash: [0u8; 32],
            blocks: vec![Block::genesis(shard)],
        }
    }

    /// Creates a ledger whose history up to `base_height` is opaque —
    /// used when a recovering replica installs a checkpoint snapshot:
    /// the chain resumes from the donor's head hash at the checkpoint.
    pub fn from_checkpoint(shard: ShardId, base_height: u64, base_hash: Digest) -> Self {
        Ledger {
            shard,
            base_height,
            base_hash,
            blocks: Vec::new(),
        }
    }

    /// The shard this ledger belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Absolute chain height including pruned blocks (and genesis).
    pub fn height(&self) -> usize {
        self.base_height as usize + self.blocks.len()
    }

    /// Number of blocks actually retained in memory.
    pub fn retained_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Height of the pruned (or snapshot-installed) prefix.
    pub fn base_height(&self) -> u64 {
        self.base_height
    }

    /// The chain contains at least genesis (possibly pruned away).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The newest retained block, if any survives pruning.
    pub fn head(&self) -> Option<&Block> {
        self.blocks.last()
    }

    /// Hash of the chain head: the newest retained block's hash, or the
    /// pruned base hash when everything up to the checkpoint was pruned.
    pub fn head_hash(&self) -> Digest {
        self.blocks.last().map_or(self.base_hash, |b| b.hash())
    }

    /// Block at absolute `height` (0 = genesis), if still retained.
    pub fn block(&self, height: usize) -> Option<&Block> {
        height
            .checked_sub(self.base_height as usize)
            .and_then(|i| self.blocks.get(i))
    }

    /// The retained blocks, oldest first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Appends a block built from `body`, chaining it to the current head.
    /// Returns the appended block's hash.
    pub fn append(&mut self, body: BlockBody) -> Digest {
        let prev_hash = self.head_hash();
        let block = Block::new(body, prev_hash);
        let h = block.hash();
        self.blocks.push(block);
        h
    }

    /// Verifies the retained chain: the first retained block chains onto
    /// the pruned base, and every later block onto its predecessor.
    pub fn verify(&self) -> Result<(), LedgerError> {
        if let Some(first) = self.blocks.first() {
            if first.prev_hash != self.base_hash {
                return Err(LedgerError::BrokenChain {
                    height: self.base_height as usize,
                });
            }
        }
        for i in 1..self.blocks.len() {
            if self.blocks[i].prev_hash != self.blocks[i - 1].hash() {
                return Err(LedgerError::BrokenChain {
                    height: self.base_height as usize + i,
                });
            }
        }
        Ok(())
    }

    /// Drops the longest retained prefix of blocks whose consensus
    /// sequence number is at or below the stable checkpoint `seq`,
    /// remembering the pruned head so the chain still verifies. Blocks
    /// executed ahead of the checkpoint (out-of-order complex csts) stop
    /// the prune and are retained.
    pub fn prune_through_seq(&mut self, seq: u64) -> usize {
        let cut = self
            .blocks
            .iter()
            .position(|b| b.body.seq.0 > seq)
            .unwrap_or(self.blocks.len());
        if cut == 0 {
            return 0;
        }
        self.base_hash = self.blocks[cut - 1].hash();
        self.base_height += cut as u64;
        self.blocks.drain(..cut);
        cut
    }

    /// Positions (absolute heights) of the retained blocks whose Merkle
    /// root is `delta`.
    pub fn find_by_root(&self, delta: &Digest) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| &b.body.merkle_root == delta)
            .map(|(i, _)| self.base_height as usize + i)
            .collect()
    }

    /// Test-only hook: mutable block access for tamper-evidence tests.
    #[doc(hidden)]
    pub fn block_mut(&mut self, height: usize) -> Option<&mut Block> {
        height
            .checked_sub(self.base_height as usize)
            .and_then(|i| self.blocks.get_mut(i))
    }
}

/// §7's cross-ledger consistency rule: "if two blocks 𝔅ₓ and 𝔅ᵧ include
/// conflicting transactions that access intersecting sets of shards, and
/// consensus on 𝔅ₓ happens before 𝔅ᵧ, then in each ledger 𝔅ₓ is appended
/// before 𝔅ᵧ." Given two ledgers and two block roots, checks that both
/// ledgers order them the same way (when both contain both).
pub fn consistent_conflict_order(a: &Ledger, b: &Ledger, x: &Digest, y: &Digest) -> bool {
    let order_in = |l: &Ledger| -> Option<std::cmp::Ordering> {
        let px = *l.find_by_root(x).first()?;
        let py = *l.find_by_root(y).first()?;
        Some(px.cmp(&py))
    };
    match (order_in(a), order_in(b)) {
        (Some(oa), Some(ob)) => oa == ob,
        // If either ledger lacks one of the blocks, no violation is proven.
        _ => true,
    }
}

/// Builds the Merkle root `Δ` of a batch from its transaction payload
/// encodings (§7: "a Merkle Root helps to optimize the size of each
/// block").
pub fn batch_merkle_root<'a, I: IntoIterator<Item = &'a [u8]>>(payloads: I) -> Digest {
    MerkleTree::from_payloads(payloads).root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::{ReplicaId, SeqNum};

    fn body(shard: u32, seq: u64, root_seed: u8) -> BlockBody {
        BlockBody {
            seq: SeqNum(seq),
            merkle_root: [root_seed; 32],
            proposer: ReplicaId::new(ShardId(shard), 0),
            txn_count: 100,
            involved: vec![ShardId(shard)],
        }
    }

    #[test]
    fn genesis_identical_across_replicas() {
        let a = Ledger::new(ShardId(3));
        let b = Ledger::new(ShardId(3));
        assert_eq!(a.head_hash(), b.head_hash());
        // Different shards have different genesis blocks.
        let c = Ledger::new(ShardId(4));
        assert_ne!(a.head_hash(), c.head_hash());
    }

    #[test]
    fn append_chains_blocks() {
        let mut l = Ledger::new(ShardId(0));
        let h1 = l.append(body(0, 1, 1));
        let h2 = l.append(body(0, 2, 2));
        assert_ne!(h1, h2);
        assert_eq!(l.height(), 3);
        assert_eq!(l.block(2).unwrap().prev_hash, h1);
        l.verify().unwrap();
    }

    #[test]
    fn tampering_breaks_verification() {
        let mut l = Ledger::new(ShardId(0));
        l.append(body(0, 1, 1));
        l.append(body(0, 2, 2));
        // Tamper with the middle block's root.
        l.block_mut(1).unwrap().body.merkle_root = [0xff; 32];
        assert_eq!(l.verify(), Err(LedgerError::BrokenChain { height: 2 }));
    }

    #[test]
    fn find_by_root() {
        let mut l = Ledger::new(ShardId(0));
        l.append(body(0, 1, 7));
        l.append(body(0, 2, 8));
        l.append(body(0, 3, 7));
        assert_eq!(l.find_by_root(&[7u8; 32]), vec![1, 3]);
        assert_eq!(l.find_by_root(&[9u8; 32]), Vec::<usize>::new());
    }

    #[test]
    fn conflict_order_detection() {
        let x = [1u8; 32];
        let y = [2u8; 32];
        let mk = |first: &Digest, second: &Digest, shard: u32| {
            let mut l = Ledger::new(ShardId(shard));
            l.append(BlockBody {
                seq: SeqNum(1),
                merkle_root: *first,
                proposer: ReplicaId::new(ShardId(shard), 0),
                txn_count: 1,
                involved: vec![ShardId(0), ShardId(1)],
            });
            l.append(BlockBody {
                seq: SeqNum(2),
                merkle_root: *second,
                proposer: ReplicaId::new(ShardId(shard), 0),
                txn_count: 1,
                involved: vec![ShardId(0), ShardId(1)],
            });
            l
        };
        let a = mk(&x, &y, 0);
        let b = mk(&x, &y, 1);
        assert!(consistent_conflict_order(&a, &b, &x, &y));
        let c = mk(&y, &x, 1);
        assert!(!consistent_conflict_order(&a, &c, &x, &y));
        // Missing blocks prove nothing.
        let empty = Ledger::new(ShardId(2));
        assert!(consistent_conflict_order(&a, &empty, &x, &y));
    }

    #[test]
    fn pruning_keeps_height_and_verification() {
        let mut l = Ledger::new(ShardId(0));
        for seq in 1..=6 {
            l.append(body(0, seq, seq as u8));
        }
        assert_eq!(l.height(), 7);
        let head = l.head_hash();
        // Prune everything at or below the stable checkpoint seq 4
        // (genesis has seq 0, so 5 blocks go).
        let dropped = l.prune_through_seq(4);
        assert_eq!(dropped, 5);
        assert_eq!(l.height(), 7, "absolute height unchanged");
        assert_eq!(l.retained_blocks(), 2);
        assert_eq!(l.base_height(), 5);
        assert_eq!(l.head_hash(), head, "head untouched by pruning");
        l.verify().unwrap();
        // Appending still chains onto the retained tail.
        l.append(body(0, 7, 9));
        l.verify().unwrap();
        assert_eq!(l.find_by_root(&[6u8; 32]), vec![6]);
        assert!(l.block(3).is_none(), "pruned blocks are gone");
        assert!(l.block(6).is_some());
        // Pruning again at the same checkpoint is a no-op prefix-wise
        // (remaining blocks have seq > 4).
        assert_eq!(l.prune_through_seq(4), 0);
    }

    #[test]
    fn prune_stops_at_out_of_order_tail() {
        // A complex cst executed ahead: block order seq 1, 3, 2. Pruning
        // through seq 2 must stop before the seq-3 block.
        let mut l = Ledger::new(ShardId(0));
        l.append(body(0, 1, 1));
        l.append(body(0, 3, 3));
        l.append(body(0, 2, 2));
        let dropped = l.prune_through_seq(2);
        assert_eq!(dropped, 2, "genesis + seq-1 block only");
        assert_eq!(l.retained_blocks(), 2);
        l.verify().unwrap();
    }

    #[test]
    fn fully_pruned_ledger_supports_append_from_base() {
        let mut l = Ledger::new(ShardId(0));
        l.append(body(0, 1, 1));
        let head = l.head_hash();
        l.prune_through_seq(10);
        assert!(l.head().is_none());
        assert_eq!(l.head_hash(), head);
        l.append(body(0, 2, 2));
        l.verify().unwrap();
        assert_eq!(l.blocks()[0].prev_hash, head);
    }

    #[test]
    fn checkpoint_installed_ledger_chains_from_donor_head() {
        let installed = Ledger::from_checkpoint(ShardId(1), 12, [7u8; 32]);
        assert_eq!(installed.height(), 12);
        assert_eq!(installed.head_hash(), [7u8; 32]);
        let mut l = installed;
        l.append(body(1, 13, 1));
        l.verify().unwrap();
        assert_eq!(l.height(), 13);
    }

    #[test]
    fn batch_root_is_order_sensitive() {
        let r1 = batch_merkle_root([b"t1".as_slice(), b"t2".as_slice()]);
        let r2 = batch_merkle_root([b"t2".as_slice(), b"t1".as_slice()]);
        assert_ne!(r1, r2);
    }
}
