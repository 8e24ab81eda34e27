//! The workspace's fingerprint hash.

/// 64-bit FNV-1a over `u64` words — the workspace's golden-fingerprint
/// hash. The router uses it for route-table fingerprints; the planner
/// reuses it for topology / commodity-set / solution cache keys so that
/// every fingerprint in the system is the same deterministic function.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV-1a 64-bit offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one `u64` word into the digest, byte by byte (little-endian).
    pub fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
