//! Tenant → shard placement: a small consistent-hash ring.
//!
//! Placement must be a pure function of the tenant's *name* and the
//! shard count — never of list position — so that adding a tenant moves
//! only ~`1/N` of the keys (the consistent-hashing property) and so the
//! mapping can be documented and recomputed by hand. Each shard owns
//! [`ShardRing::VNODES`] points on a `u64` ring; a tenant hashes to a
//! point and is owned by the first shard point at or after it
//! (wrapping).

/// SplitMix64 finalizer: cheap, seedable, excellent diffusion. The same
/// mix `ne-sgx`'s chaos RNG uses; duplicated here (it is three lines) to
/// keep the placement function self-contained and documentable.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-shard seed stream: shard 0 inherits the base seed
/// **unchanged** — that convention is what makes a one-shard cluster
/// bit-compatible with the unsharded path — and every higher shard gets
/// an independent SplitMix64-derived stream. Only shard-local machinery
/// (e.g. per-shard chaos plans) draws from this; tenant-visible state is
/// seeded by `(base seed, global tenant id)` instead, so it cannot
/// depend on shard layout.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        seed
    } else {
        splitmix64(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// FNV-1a over the key bytes, finished with [`splitmix64`] to spread the
/// low-entropy tails FNV leaves on short ASCII names.
fn key_point(key: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

/// A consistent-hash ring over `shards` shards.
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// `(point, shard)` sorted by point; ties broken by shard index so
    /// construction is deterministic regardless of sort stability.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRing {
    /// Virtual nodes per shard — enough to keep the expected imbalance
    /// for tens of tenants within a factor of ~2.
    pub const VNODES: usize = 16;

    /// A ring with [`ShardRing::VNODES`] points per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> ShardRing {
        assert!(shards > 0, "a ring needs at least one shard");
        let mut points = Vec::with_capacity(shards * Self::VNODES);
        for shard in 0..shards {
            for v in 0..Self::VNODES {
                // Mix shard and vnode ids far apart so consecutive ids do
                // not land on consecutive points.
                let point = splitmix64(((shard as u64) << 32) | v as u64);
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        ShardRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first ring point at or after the
    /// key's hash, wrapping past the top of the `u64` range.
    pub fn shard_of(&self, key: &str) -> usize {
        let h = key_point(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let ring = ShardRing::new(1);
        for name in ["tenant0", "tenant1", "a", ""] {
            assert_eq!(ring.shard_of(name), 0);
        }
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let a = ShardRing::new(4);
        let b = ShardRing::new(4);
        for i in 0..100 {
            let name = format!("tenant{i}");
            let s = a.shard_of(&name);
            assert_eq!(s, b.shard_of(&name));
            assert!(s < 4);
        }
    }

    #[test]
    fn every_shard_gets_tenants_eventually() {
        let ring = ShardRing::new(4);
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[ring.shard_of(&format!("tenant{i}"))] = true;
        }
        assert!(seen.iter().all(|&s| s), "empty shard across 64 tenants");
    }

    #[test]
    fn growing_the_ring_moves_few_keys() {
        // The consistent-hashing property: going from N to N+1 shards
        // moves roughly 1/(N+1) of the keys, not all of them.
        let before = ShardRing::new(4);
        let after = ShardRing::new(5);
        let total = 200;
        let moved = (0..total)
            .filter(|i| {
                let name = format!("tenant{i}");
                before.shard_of(&name) != after.shard_of(&name)
            })
            .count();
        assert!(
            moved < total / 2,
            "{moved}/{total} keys moved on a 4→5 resize"
        );
    }

    #[test]
    fn shard_seed_convention() {
        assert_eq!(shard_seed(7, 0), 7, "shard 0 inherits the base seed");
        let s1 = shard_seed(7, 1);
        let s2 = shard_seed(7, 2);
        assert_ne!(s1, 7);
        assert_ne!(s1, s2);
        assert_eq!(s1, shard_seed(7, 1), "streams are deterministic");
    }
}
