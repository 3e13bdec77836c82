//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! The paper assumes a collision-resistant cryptographic hash `H(·)` that
//! maps arbitrary values to constant-sized digests (§3). We implement
//! SHA-256 directly rather than pulling a crypto dependency; the
//! implementation is validated against the official NIST test vectors.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered, waiting for a full 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Resumes a hasher from a midstate captured by [`Sha256::midstate`]
    /// after `len` bytes (a multiple of the 64-byte block) were absorbed.
    /// HMAC keys store their post-ipad/post-opad midstates this way, so a
    /// MAC skips re-hashing the padded key block.
    ///
    /// # Panics
    /// If `len` is not a multiple of 64.
    pub fn from_midstate(state: [u32; 8], len: u64) -> Self {
        assert!(
            len.is_multiple_of(64),
            "midstate length is not a block multiple"
        );
        Sha256 {
            state,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: len,
        }
    }

    /// The chaining state after the whole blocks absorbed so far: the
    /// value [`Sha256::from_midstate`] resumes from.
    ///
    /// # Panics
    /// If the bytes absorbed so far do not end on a block boundary.
    pub fn midstate(&self) -> [u32; 8] {
        assert!(self.buf_len == 0, "midstate taken off a block boundary");
        self.state
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while input.len() >= 64 {
            let (block, rest) = input.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte split"));
            input = rest;
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
        self
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80 then zeros until 56 mod 64, then 64-bit length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        self.update(&pad[..pad_len]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        state_bytes(&self.state)
    }
}

fn state_bytes(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of a message that pads into a single block (at most
/// 55 bytes): one compression, no buffering. Equal to [`sha256`] of the
/// same bytes — the fast path for fixed-size leaf hashes.
///
/// # Panics
/// If `msg` is longer than 55 bytes.
pub fn sha256_one_block(msg: &[u8]) -> Digest {
    assert!(msg.len() <= 55, "message does not pad into one block");
    let mut block = [0u8; 64];
    block[..msg.len()].copy_from_slice(msg);
    block[msg.len()] = 0x80;
    block[56..].copy_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &block);
    state_bytes(&state)
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several slices (avoids
/// building an intermediate buffer).
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Render a digest as lowercase hex (for logs and tests).
pub fn to_hex(d: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in d {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST FIPS 180-4 test vectors.
    #[test]
    fn nist_vectors() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn one_block_fast_path_equals_generic() {
        let data: Vec<u8> = (0..55u8).map(|i| i.wrapping_mul(37)).collect();
        for len in 0..=55 {
            assert_eq!(
                sha256_one_block(&data[..len]),
                sha256(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one block")]
    fn one_block_fast_path_rejects_longer_messages() {
        sha256_one_block(&[0u8; 56]);
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = sha256(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 7, 63, 64, 65, 129] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
        assert_eq!(sha256_concat(&[&data[..100], &data[100..]]), oneshot);
    }

    #[test]
    fn resumed_midstate_equals_oneshot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let mut h = Sha256::new();
        h.update(&data[..128]);
        let mut resumed = Sha256::from_midstate(h.midstate(), 128);
        resumed.update(&data[128..]);
        assert_eq!(resumed.finalize(), sha256(&data));
    }

    #[test]
    #[should_panic(expected = "block boundary")]
    fn midstate_rejects_partial_block() {
        let mut h = Sha256::new();
        h.update(b"abc");
        h.midstate();
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all work.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
