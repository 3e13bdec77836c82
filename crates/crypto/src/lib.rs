//! Cryptographic primitives for the RingBFT reproduction.
//!
//! Everything is implemented from scratch on top of our own SHA-256:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (validated against NIST vectors).
//! * [`hmac`] — HMAC-SHA256 (validated against RFC 4231 vectors).
//! * [`auth`] — the paper's two authentication schemes: pairwise MACs for
//!   intra-shard messages, signature scheme with non-repudiation for
//!   cross-shard messages (§3), plus the [`auth::KeyStore`] oracle.
//! * [`merkle`] — Merkle trees for block roots (§7).
//!
//! See DESIGN.md for the signature-scheme substitution note.

pub mod auth;
pub mod hmac;
pub mod merkle;
pub mod sha256;

pub use auth::{KeyStore, MacTag, Signature, Signer};
pub use merkle::{verify_proof, MerkleProof, MerkleTree};
pub use sha256::{sha256, sha256_concat, sha256_one_block, to_hex, Digest, Sha256};

/// Digest of a batch/transaction identified by `(shard, seq, payload)` —
/// the `Δ := H(⟨T⟩c)` of Fig 5 line 6. Helper used across protocol crates.
pub fn digest_of(parts: &[&[u8]]) -> Digest {
    sha256_concat(parts)
}
