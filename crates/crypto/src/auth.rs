//! Authenticated communication: MACs for intra-shard messages and digital
//! signatures for cross-shard messages (§3 "Authenticated Communication").
//!
//! The paper uses cheap symmetric MACs inside a shard (each pair of nodes
//! shares a secret key) and asymmetric digital signatures across shards,
//! because cross-shard communication requires *non-repudiation*: a Forward
//! message must prove that `nf` distinct replicas really committed.
//!
//! **Substitution note (see DESIGN.md §2):** instead of a real asymmetric
//! scheme we use a deterministic HMAC-based scheme with a central
//! [`KeyStore`] acting as the trusted key-distribution oracle of the
//! simulation. Every node's signing key is derived from a master secret and
//! the node identity; verification recomputes the tag through the oracle.
//! Within the simulation, forging is impossible for the same reason it is
//! with real signatures: the protocol code only ever signs *as itself*
//! (the simulator hands each node a [`Signer`] bound to its identity), so a
//! Byzantine node cannot produce a valid tag for another identity. CPU
//! costs of sign/verify are charged separately by the simulator's cost
//! model, so performance shapes are unaffected by the substitution.
//!
//! **Key schedule.** The store schedules its master secret once, so
//! deriving a pair or signing key costs two SHA-256 compressions; a
//! [`Signer`] schedules its signing key once. Pair keys used by
//! [`KeyStore::mac`] / [`KeyStore::mac_parts`] / [`KeyStore::verify_mac`]
//! are scheduled once per thread and kept in a bounded per-thread cache
//! (at most 4096 entries of 96 bytes in 8-way sets, LRU within a set), so
//! a small frame's MAC between a warm pair costs three compressions
//! instead of nine.

use crate::hmac::{digest_eq, HmacKey};
use crate::sha256::Digest;
use ringbft_types::{ClientId, NodeId, ReplicaId, ShardId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A message authentication tag (intra-shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacTag(pub Digest);

/// A digital signature (cross-shard); identifies its signer, mirroring the
/// paper's `⟨m⟩r` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Identity the signature claims.
    pub signer: NodeId,
    /// Authentication tag.
    pub tag: Digest,
}

fn encode_node(node: NodeId, out: &mut [u8; 13]) {
    match node {
        NodeId::Replica(ReplicaId {
            shard: ShardId(s),
            index,
        }) => {
            out[0] = 0;
            out[1..5].copy_from_slice(&s.to_le_bytes());
            out[5..9].copy_from_slice(&index.to_le_bytes());
        }
        NodeId::Client(ClientId(c)) => {
            out[0] = 1;
            out[1..9].copy_from_slice(&c.to_le_bytes());
        }
    }
}

/// Source of [`KeyStore`] ids; 0 marks an empty pair-cache slot.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// Central key-distribution oracle of the simulation. Derives pairwise MAC
/// keys and per-node signing keys deterministically from a master secret,
/// so two [`KeyStore`]s created with the same seed agree on every key.
#[derive(Debug, Clone)]
pub struct KeyStore {
    /// The master secret, scheduled.
    master: HmacKey,
    /// Process-unique id keying this store's pair-cache entries, so two
    /// stores never share one. Clones keep it: they hold the same master.
    id: u64,
}

impl KeyStore {
    /// Creates a key store from a 32-byte master secret.
    pub fn new(master: [u8; 32]) -> Self {
        KeyStore {
            master: HmacKey::new(&master),
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Creates a key store from a seed integer (tests, simulations).
    pub fn from_seed(seed: u64) -> Self {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&seed.to_le_bytes());
        KeyStore::new(crate::sha256::sha256(&master))
    }

    /// The symmetric key shared by the pair `{lo, hi}`, `lo <= hi`,
    /// derived and scheduled without the cache (four compressions).
    fn pair_key(&self, lo: NodeId, hi: NodeId) -> HmacKey {
        let mut ea = [0u8; 13];
        let mut eb = [0u8; 13];
        encode_node(lo, &mut ea);
        encode_node(hi, &mut eb);
        HmacKey::new(&self.master.mac_parts(&[b"mac-pair", &ea, &eb]))
    }

    /// The key shared by the unordered pair `{a, b}`, from this thread's
    /// pair cache.
    fn cached_pair_key(&self, a: NodeId, b: NodeId) -> HmacKey {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let tag = PairTag::new(self.id, lo, hi);
        // Fails only while the thread's locals are being torn down.
        PAIR_CACHE
            .try_with(|cache| cache.borrow_mut().get(tag, || self.pair_key(lo, hi)))
            .unwrap_or_else(|_| self.pair_key(lo, hi))
    }

    /// The signing key of `node` (kept "private" by construction: protocol
    /// code receives only a [`Signer`] bound to its own identity).
    fn signing_key(&self, node: NodeId) -> HmacKey {
        let mut e = [0u8; 13];
        encode_node(node, &mut e);
        HmacKey::new(&self.master.mac_parts(&[b"sign", &e]))
    }

    /// Computes the MAC `from → to` over `msg`.
    pub fn mac(&self, from: NodeId, to: NodeId, msg: &[u8]) -> MacTag {
        self.mac_parts(from, to, &[msg])
    }

    /// Computes the MAC `from → to` over the concatenation of `parts`
    /// without copying them into one buffer — used by the frame codec
    /// to prepend a domain tag to large bodies.
    pub fn mac_parts(&self, from: NodeId, to: NodeId, parts: &[&[u8]]) -> MacTag {
        MacTag(self.cached_pair_key(from, to).mac_parts(parts))
    }

    /// Verifies a MAC received by `to` from claimed sender `from`.
    pub fn verify_mac(&self, from: NodeId, to: NodeId, msg: &[u8], tag: &MacTag) -> bool {
        digest_eq(&self.mac(from, to, msg).0, &tag.0)
    }

    /// Signs `msg` as `signer`. Prefer handing protocol code a [`Signer`]
    /// so it cannot sign under foreign identities.
    pub fn sign(&self, signer: NodeId, msg: &[u8]) -> Signature {
        Signature {
            signer,
            tag: self.signing_key(signer).mac(msg),
        }
    }

    /// Verifies a signature against the identity it claims.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        digest_eq(&self.signing_key(sig.signer).mac(msg), &sig.tag)
    }

    /// Derives a signer handle bound to `id` — the per-node "private key".
    pub fn signer(&self, id: NodeId) -> Signer {
        Signer {
            id,
            key: self.signing_key(id),
        }
    }
}

/// A signing handle bound to a single identity. This is what protocol code
/// receives; it mirrors a node holding its own private key and makes
/// cross-identity forgery impossible by construction.
#[derive(Debug, Clone)]
pub struct Signer {
    id: NodeId,
    key: HmacKey,
}

impl Signer {
    /// Identity this signer is bound to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Signs `msg` under this node's identity.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature {
            signer: self.id,
            tag: self.key.mac(msg),
        }
    }
}

/// Ways per set of a thread's pair cache. Eight make a set overflow rare
/// at half load, so occupancy tracks the pairs in use.
const PAIR_CACHE_WAYS: usize = 8;

/// Sets a thread's pair cache starts with (64 entries, 6 KiB).
const PAIR_CACHE_MIN_SETS: usize = 8;

/// Sets a thread's pair cache grows to at most: 4096 pair keys, 384 KiB.
/// A table more than 3/4 full doubles until it reaches this size, so a
/// node of a 512-client closed loop (≈2k pairs) keeps every pair it
/// uses; past it, a pair's set — fixed by a hash of its tag — evicts its
/// least recently used way.
const PAIR_CACHE_MAX_SETS: usize = 512;

thread_local! {
    static PAIR_CACHE: RefCell<PairCache> = const { RefCell::new(PairCache::new()) };
}

/// Identity of a cached pair key: the owning store's id and the ordered
/// pair, each node packed into one word plus a client bit in `clients`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PairTag {
    store: u64,
    lo: u64,
    hi: u64,
    clients: u8,
}

impl PairTag {
    /// Tag of a free slot (store ids start at 1).
    const FREE: PairTag = PairTag {
        store: 0,
        lo: 0,
        hi: 0,
        clients: 0,
    };

    fn new(store: u64, lo: NodeId, hi: NodeId) -> PairTag {
        let word = |n: NodeId| match n {
            NodeId::Replica(ReplicaId {
                shard: ShardId(s),
                index,
            }) => ((s as u64) << 32 | index as u64, 0),
            NodeId::Client(ClientId(c)) => (c, 1),
        };
        let ((lo, lo_client), (hi, hi_client)) = (word(lo), word(hi));
        PairTag {
            store,
            lo,
            hi,
            clients: lo_client | hi_client << 1,
        }
    }

    /// The set this tag lives in among `sets` (a power of two). Fibonacci
    /// hashing, so consecutive client ids spread over all sets; the top
    /// bits are used, so doubling `sets` splits set `s` into `2s` and
    /// `2s + 1`.
    fn set(&self, sets: usize) -> usize {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = (self.lo ^ self.store.rotate_left(32)).wrapping_mul(PHI)
            ^ self.hi
            ^ (self.clients as u64) << 62;
        (h.wrapping_mul(PHI) >> (64 - sets.trailing_zeros())) as usize
    }
}

/// One cached pair key.
#[derive(Debug, Clone)]
struct PairEntry {
    tag: PairTag,
    key: HmacKey,
}

/// A thread's pair keys: set-associative, each set in most-recently-used
/// order, allocated on the first MAC.
struct PairCache {
    slots: Vec<PairEntry>,
    /// Slots holding a key.
    live: usize,
}

impl PairCache {
    const fn new() -> PairCache {
        PairCache {
            slots: Vec::new(),
            live: 0,
        }
    }

    fn set_range(&self, tag: PairTag) -> std::ops::Range<usize> {
        let start = tag.set(self.slots.len() / PAIR_CACHE_WAYS) * PAIR_CACHE_WAYS;
        start..start + PAIR_CACHE_WAYS
    }

    fn set_mut(&mut self, tag: PairTag) -> &mut [PairEntry] {
        let range = self.set_range(tag);
        &mut self.slots[range]
    }

    /// The key under `tag`, scheduled by `derive` on a miss. A hit moves
    /// to the front of its set; a miss is inserted there.
    fn get(&mut self, tag: PairTag, derive: impl FnOnce() -> HmacKey) -> HmacKey {
        if self.slots.is_empty() {
            self.resize(PAIR_CACHE_MIN_SETS);
        }
        let set = self.set_mut(tag);
        if let Some(way) = set.iter().position(|e| e.tag == tag) {
            set[..=way].rotate_right(1);
            return set[0].key.clone();
        }
        let key = derive();
        self.insert(tag, key.clone());
        let sets = self.slots.len() / PAIR_CACHE_WAYS;
        if self.live * 4 > self.slots.len() * 3 && sets < PAIR_CACHE_MAX_SETS {
            self.resize(2 * sets);
        }
        key
    }

    /// Puts `key` at the front of its set, evicting the set's last way.
    fn insert(&mut self, tag: PairTag, key: HmacKey) {
        let set = self.set_mut(tag);
        let filled_free_way = set[PAIR_CACHE_WAYS - 1].tag == PairTag::FREE;
        set.rotate_right(1);
        set[0] = PairEntry { tag, key };
        self.live += filled_free_way as usize;
    }

    /// Rehashes into `sets` sets. Growing splits every set in two, so no
    /// key is lost; least recently used keys go in first, keeping each
    /// set's order.
    fn resize(&mut self, sets: usize) {
        let free = PairEntry {
            tag: PairTag::FREE,
            key: HmacKey::new(&[]),
        };
        let old = std::mem::replace(&mut self.slots, vec![free; sets * PAIR_CACHE_WAYS]);
        self.live = 0;
        for e in old.into_iter().rev().filter(|e| e.tag != PairTag::FREE) {
            self.insert(e.tag, e.key);
        }
    }

    #[cfg(test)]
    fn contains(&self, tag: PairTag) -> bool {
        !self.slots.is_empty() && self.slots[self.set_range(tag)].iter().any(|e| e.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;
    use proptest::prelude::*;

    fn replica(s: u32, i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(s), i))
    }

    #[test]
    fn mac_roundtrip_and_symmetry() {
        let ks = KeyStore::from_seed(7);
        let a = replica(0, 1);
        let b = replica(1, 1);
        let tag = ks.mac(a, b, b"forward");
        assert!(ks.verify_mac(a, b, b"forward", &tag));
        // The pair key is symmetric: b can MAC back to a with same key.
        let tag_ba = ks.mac(b, a, b"forward");
        assert_eq!(tag.0, tag_ba.0);
        // Tampered message fails.
        assert!(!ks.verify_mac(a, b, b"forwarD", &tag));
        // Wrong claimed sender fails.
        assert!(!ks.verify_mac(replica(0, 2), b, b"forward", &tag));
    }

    #[test]
    fn signatures_verify_and_bind_identity() {
        let ks = KeyStore::from_seed(42);
        let r = replica(2, 3);
        let sig = ks.sign(r, b"commit k=5");
        assert!(ks.verify(b"commit k=5", &sig));
        assert!(!ks.verify(b"commit k=6", &sig));
        // A signature claiming a different signer does not verify.
        let forged = Signature {
            signer: replica(2, 4),
            tag: sig.tag,
        };
        assert!(!ks.verify(b"commit k=5", &forged));
    }

    #[test]
    fn signer_handle_matches_keystore() {
        let ks = KeyStore::from_seed(1);
        let r = replica(0, 0);
        let signer = ks.signer(r);
        assert_eq!(signer.id(), r);
        let sig = signer.sign(b"x");
        assert_eq!(sig, ks.sign(r, b"x"));
        assert!(ks.verify(b"x", &sig));
    }

    #[test]
    fn keystores_with_same_seed_agree() {
        let a = KeyStore::from_seed(9);
        let b = KeyStore::from_seed(9);
        let r = replica(1, 1);
        assert_eq!(a.sign(r, b"m"), b.sign(r, b"m"));
        assert_eq!(a.mac(r, replica(0, 0), b"m"), b.mac(r, replica(0, 0), b"m"));
        let c = KeyStore::from_seed(10);
        assert_ne!(a.sign(r, b"m"), c.sign(r, b"m"));
        assert_ne!(a.mac(r, replica(0, 0), b"m"), c.mac(r, replica(0, 0), b"m"));
    }

    /// Tags computed before key schedules were cached: the wire format
    /// (frame MACs, signatures) must not move.
    #[test]
    fn tags_match_known_answers() {
        let ks = KeyStore::from_seed(42);
        let data = ks.mac_parts(
            replica(0, 0),
            replica(0, 1),
            &[b"rbft-data", &[0u8; 9], b"body"],
        );
        assert_eq!(
            to_hex(&data.0),
            "cdb3c90174b6041a3311b74b14e005942b6a29e2fe463af0874a9012c05a9abf"
        );
        let reply = ks.mac(NodeId::Client(ClientId(1_000_003)), replica(2, 3), b"reply");
        assert_eq!(
            to_hex(&reply.0),
            "65ee4acb795380c15f34856cfc86fdaf1cc4f07746652589c08ce1f545e8dafe"
        );
        assert_eq!(
            to_hex(&ks.signer(replica(1, 2)).sign(b"commit").tag),
            "3baedc64a5c6f6c2739518d858970be4ce8e599cd5dcefca5a4049ef1cd3560e"
        );
    }

    /// The MAC with the pair key derived and scheduled from scratch.
    fn cold_mac(ks: &KeyStore, a: NodeId, b: NodeId, parts: &[&[u8]]) -> MacTag {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        MacTag(ks.pair_key(lo, hi).mac_parts(parts))
    }

    fn cached(ks: &KeyStore, a: NodeId, b: NodeId) -> bool {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        PAIR_CACHE.with(|c| c.borrow().contains(PairTag::new(ks.id, lo, hi)))
    }

    #[test]
    fn pair_cache_entry_fits_96_bytes() {
        assert!(std::mem::size_of::<PairEntry>() <= 96);
    }

    /// Distinct pairs, more than one thread caches: replica–client pairs
    /// (the reply traffic) with a replica–replica pair every tenth.
    fn pair_pool(n: u64) -> Vec<(NodeId, NodeId)> {
        (0..n)
            .map(|i| match i % 10 {
                0 => (replica(0, i as u32), replica(1, i as u32)),
                _ => (
                    NodeId::Client(ClientId(i)),
                    replica((i % 3) as u32, (i % 4) as u32),
                ),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Cached MACs equal cold ones on random pairs — first uses, warm
        /// repeats, and pairs scheduled again after their eviction.
        #[test]
        fn cached_macs_match_cold_macs_across_evictions(
            seed in any::<u64>(),
            picks in proptest::collection::vec(0usize..5_000, 10_000),
        ) {
            let pool = pair_pool(5_000);
            prop_assert!(pool.len() > PAIR_CACHE_MAX_SETS * PAIR_CACHE_WAYS);
            let ks = KeyStore::from_seed(seed);
            let mut seen = vec![false; pool.len()];
            let (mut hits, mut misses, mut rescheduled) = (0, 0, 0);
            for (n, &i) in picks.iter().enumerate() {
                let (a, b) = pool[i];
                let (from, to) = if n % 2 == 0 { (a, b) } else { (b, a) };
                let warm = cached(&ks, from, to);
                match (warm, seen[i]) {
                    (true, _) => hits += 1,
                    (false, false) => misses += 1,
                    (false, true) => rescheduled += 1,
                }
                seen[i] = true;
                let body = (n as u64).to_le_bytes();
                let parts: [&[u8]; 3] = [b"rbft-data", &[7u8; 9], &body];
                prop_assert_eq!(ks.mac_parts(from, to, &parts), cold_mac(&ks, from, to, &parts));
                prop_assert!(cached(&ks, a, b));
            }
            prop_assert!(hits > 0 && misses > 0 && rescheduled > 0, "{hits}/{misses}/{rescheduled}");
        }
    }

    /// A thread's table grows with the pairs it uses, to the cap and no
    /// further.
    #[test]
    fn pair_cache_grows_to_its_cap() {
        std::thread::spawn(|| {
            let ks = KeyStore::from_seed(5);
            let slots = || PAIR_CACHE.with(|c| c.borrow().slots.len());
            assert_eq!(slots(), 0);
            // A replica replying to 512 clients and talking to 3 peers: a
            // quarter of the cap holds every pair.
            let me = replica(0, 1);
            let mut pairs: Vec<NodeId> = (1..=512).map(|c| NodeId::Client(ClientId(c))).collect();
            pairs.extend([replica(0, 0), replica(0, 2), replica(0, 3)]);
            for &peer in &pairs {
                ks.mac(me, peer, b"m");
            }
            assert_eq!(slots(), 1024);
            assert!(pairs.iter().all(|&peer| cached(&ks, me, peer)));
            for &(a, b) in &pair_pool(5_000) {
                ks.mac(a, b, b"m");
            }
            assert_eq!(slots(), PAIR_CACHE_MAX_SETS * PAIR_CACHE_WAYS);
        })
        .join()
        .expect("cache thread");
    }

    /// Stores are told apart by instance, not by a prefix of the master:
    /// masters equal in their first 8 bytes share no cache entry.
    #[test]
    fn masters_differing_after_byte_8_give_different_tags() {
        let m1 = [0x5au8; 32];
        let mut m2 = m1;
        m2[31] ^= 1;
        let (k1, k2) = (KeyStore::new(m1), KeyStore::new(m2));
        let (a, b) = (replica(0, 0), replica(0, 1));
        let t1 = k1.mac(a, b, b"m");
        assert!(cached(&k1, a, b));
        let t2 = k2.mac(a, b, b"m");
        assert_ne!(t1, t2);
        assert_eq!(t2, cold_mac(&k2, a, b, &[b"m"]));
        assert!(k2.verify_mac(a, b, b"m", &t2) && !k2.verify_mac(a, b, b"m", &t1));
    }

    #[test]
    fn client_and_replica_keys_distinct() {
        let ks = KeyStore::from_seed(3);
        // Client 0 and replica S0r0 encode differently; their signatures
        // must differ even for equal numeric ids.
        let c = NodeId::Client(ClientId(0));
        let r = replica(0, 0);
        assert_ne!(ks.sign(c, b"m").tag, ks.sign(r, b"m").tag);
    }
}
