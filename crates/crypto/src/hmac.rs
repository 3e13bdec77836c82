//! HMAC-SHA256 (RFC 2104), built on our own SHA-256.
//!
//! HMACs back both authentication schemes in this reproduction: the
//! pairwise MACs used for intra-shard messages and the deterministic
//! signature scheme used for cross-shard messages (see [`crate::auth`]).
//!
//! A key is scheduled once: [`HmacKey`] holds the SHA-256 midstates after
//! the padded key blocks `K ⊕ ipad` and `K ⊕ opad`, so a MAC under it
//! hashes only the message blocks plus one outer block.

use crate::sha256::{sha256, Digest, Sha256, DIGEST_LEN};
use std::fmt;

const BLOCK_LEN: usize = 64;

/// An HMAC-SHA256 key with its schedule precomputed. Building one costs
/// two compressions (three when the key is longer than a block); every
/// MAC under it then costs the message's blocks plus one, where a MAC
/// from the raw key costs two more.
#[derive(Clone)]
pub struct HmacKey {
    /// Midstate after absorbing `K ⊕ ipad`.
    inner: [u32; 8],
    /// Midstate after absorbing `K ⊕ opad`.
    outer: [u32; 8],
}

impl HmacKey {
    /// Schedules `key` (RFC 2104: keys longer than the block size are
    /// hashed first, shorter ones zero-padded).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut block = [pad; BLOCK_LEN];
            for (b, k) in block.iter_mut().zip(k) {
                *b ^= k;
            }
            let mut h = Sha256::new();
            h.update(&block);
            h.midstate()
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// `HMAC-SHA256(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> Digest {
        self.mac_parts(&[msg])
    }

    /// `HMAC-SHA256(key, msg₀ ‖ msg₁ ‖ …)` without concatenating.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::from_midstate(self.inner, BLOCK_LEN as u64);
        for p in parts {
            inner.update(p);
        }
        let mut outer = Sha256::from_midstate(self.outer, BLOCK_LEN as u64);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Key material stays out of logs.
impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

/// Computes `HMAC-SHA256(key, msg)` under a key used once; hold an
/// [`HmacKey`] to MAC repeatedly.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(msg)
}

/// Constant-time equality for digests. The simulator is not subject to real
/// timing attacks, but verification code should still model the correct
/// comparison discipline.
pub fn digest_eq(a: &Digest, b: &Digest) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;
    use proptest::prelude::*;

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key larger than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn parts_equal_concat() {
        let key = HmacKey::new(b"secret");
        let whole = hmac_sha256(b"secret", b"hello world");
        let split = key.mac_parts(&[b"hello", b" ", b"world"]);
        assert!(digest_eq(&whole, &split));
    }

    #[test]
    fn digest_eq_detects_difference() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(digest_eq(&a, &b));
        b[31] ^= 1;
        assert!(!digest_eq(&a, &b));
    }

    /// RFC 2104 written out from scratch over one-shot SHA-256:
    /// `H((K' ⊕ opad) ‖ H((K' ⊕ ipad) ‖ msg))`, with `K'` the key (hashed
    /// when longer than a block) zero-padded to the block size.
    fn reference_hmac(key: &[u8], msg: &[u8]) -> Digest {
        let mut k = if key.len() > BLOCK_LEN {
            sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(BLOCK_LEN, 0);
        let padded = |pad: u8| k.iter().map(|b| b ^ pad).collect::<Vec<u8>>();
        let mut inner = padded(0x36);
        inner.extend_from_slice(msg);
        let mut outer = padded(0x5c);
        outer.extend_from_slice(&sha256(&inner));
        sha256(&outer)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The scheduled key agrees with the reference for keys on both
        /// sides of the block size and for any split of the message.
        #[test]
        fn scheduled_key_matches_rfc2104_reference(
            key in proptest::collection::vec(any::<u8>(), 0..=200),
            msg in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..5),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(msg.len())).collect();
            cuts.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut start = 0;
            for c in cuts.into_iter().chain([msg.len()]) {
                parts.push(&msg[start..c]);
                start = c;
            }
            let expected = reference_hmac(&key, &msg);
            prop_assert_eq!(HmacKey::new(&key).mac_parts(&parts), expected);
            prop_assert_eq!(hmac_sha256(&key, &msg), expected);
        }
    }
}
