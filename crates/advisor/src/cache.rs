//! The sharded content-addressed verdict cache.
//!
//! A striped `RwLock` map: the top bits of the [`QueryKey`] pick one of
//! `shards` independent stripes, so concurrent fleet evaluation mostly
//! takes uncontended locks. Each stripe is a bounded LRU — entries carry
//! an atomic last-touched stamp so a read-locked hit can bump recency
//! without upgrading to a write lock; inserts past capacity evict the
//! stalest entry (ties broken by key, so eviction is deterministic for a
//! deterministic query order).
//!
//! Hits never alias: the stored [`Query`] is compared on every lookup, so
//! even a full 128-bit content-hash collision reads as a miss (counted in
//! [`CacheStats::collisions`]) rather than returning another query's
//! verdict.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::query::{Query, QueryKey};
use crate::service::Verdict;

/// Default number of lock stripes.
pub const DEFAULT_SHARDS: usize = 16;
/// Default per-stripe entry bound (total default capacity = 16 × 4096).
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Lookups whose 128-bit key matched but whose query did not — the
    /// "this should never happen" counter.
    pub collisions: u64,
    /// Entries resident right now.
    pub len: usize,
}

struct Entry {
    query: Query,
    verdict: Verdict,
    touched: AtomicU64,
}

struct Shard {
    map: HashMap<u128, Entry>,
}

/// Sharded bounded-LRU map from query content hash to verdict.
pub struct VerdictCache {
    shards: Vec<RwLock<Shard>>,
    shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
}

/// Recover from a poisoned lock instead of propagating the panic: the
/// protected state is a plain map mutated in small all-or-nothing steps,
/// so the worst a panicking peer can leave behind is a missing entry.
fn read_lock(l: &RwLock<Shard>) -> std::sync::RwLockReadGuard<'_, Shard> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock(l: &RwLock<Shard>) -> std::sync::RwLockWriteGuard<'_, Shard> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

impl VerdictCache {
    pub fn new(shards: usize, shard_capacity: usize) -> VerdictCache {
        let shards = shards.max(1);
        VerdictCache {
            shards: (0..shards)
                .map(|_| {
                    RwLock::new(Shard {
                        map: HashMap::new(),
                    })
                })
                .collect(),
            shard_capacity: shard_capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: QueryKey) -> &RwLock<Shard> {
        let i = (key.shard_bits() % self.shards.len() as u64) as usize;
        &self.shards[i]
    }

    /// Look `query` up under `key`. A hit bumps the entry's recency.
    pub fn get(&self, key: QueryKey, query: &Query) -> Option<Verdict> {
        let shard = read_lock(self.shard_of(key));
        match shard.map.get(&key.0) {
            Some(e) if e.query == *query => {
                let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                e.touched.store(stamp, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.verdict)
            }
            Some(_) => {
                self.collisions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used
    /// entry of the stripe if it is full. A key collision with a
    /// different query leaves the resident entry in place — first writer
    /// wins, and the counter records that the slot was contested.
    pub fn insert(&self, key: QueryKey, query: Query, verdict: Verdict) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = write_lock(self.shard_of(key));
        if let Some(e) = shard.map.get_mut(&key.0) {
            if e.query == query {
                e.verdict = verdict;
                e.touched.store(stamp, Ordering::Relaxed);
            } else {
                self.collisions.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if shard.map.len() >= self.shard_capacity {
            // Evict the stalest entry; ties (possible when stamps race)
            // break toward the smaller key so the choice is stable.
            if let Some(&victim) = shard
                .map
                .iter()
                .min_by_key(|(k, e)| (e.touched.load(Ordering::Relaxed), **k))
                .map(|(k, _)| k)
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key.0,
            Entry {
                query,
                verdict,
                touched: AtomicU64::new(stamp),
            },
        );
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            len: self.len(),
        }
    }

    /// Resident entries across all stripes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All resident `(query, verdict)` pairs sorted by content key — the
    /// deterministic iteration order snapshots are written in.
    pub fn entries_sorted(&self) -> Vec<(Query, Verdict)> {
        let mut all: Vec<(u128, Query, Verdict)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = read_lock(s);
            all.extend(shard.map.iter().map(|(k, e)| (*k, e.query, e.verdict)));
        }
        all.sort_by_key(|(k, _, _)| *k);
        all.into_iter().map(|(_, q, v)| (q, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{PlatformId, WorkloadId};
    use workloads::{Class, Kernel};

    fn q(np: u32, seed: u64) -> Query {
        Query::new(
            WorkloadId::Npb {
                kernel: Kernel::Ep,
                class: Class::S,
            },
            PlatformId::Vayu,
            np,
        )
        .with_seed(seed)
    }

    fn v(x: f64) -> Verdict {
        Verdict {
            elapsed_secs: x,
            nodes: 1,
            on_demand_cost: 0.0,
            spot_cost: 0.0,
            comm_pct: 0.0,
            io_pct: 0.0,
            collective_frac: 0.0,
            imbalance_pct: 0.0,
            result_digest: x.to_bits(),
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = VerdictCache::new(4, 16);
        let a = q(2, 1);
        assert_eq!(c.get(a.key(), &a), None);
        c.insert(a.key(), a, v(1.0));
        assert_eq!(c.get(a.key(), &a), Some(v(1.0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.len), (1, 1, 1, 1));
    }

    #[test]
    fn lru_evicts_stalest_within_a_stripe() {
        // Single stripe, capacity 2: insert three, touching the first in
        // between — the untouched second entry must be the victim.
        let c = VerdictCache::new(1, 2);
        let (a, b, d) = (q(2, 1), q(4, 2), q(8, 3));
        c.insert(a.key(), a, v(1.0));
        c.insert(b.key(), b, v(2.0));
        assert_eq!(c.get(a.key(), &a), Some(v(1.0))); // bump a
        c.insert(d.key(), d, v(3.0));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.get(a.key(), &a), Some(v(1.0)));
        assert_eq!(c.get(b.key(), &b), None, "b was stalest");
        assert_eq!(c.get(d.key(), &d), Some(v(3.0)));
    }

    #[test]
    fn entries_sorted_is_deterministic() {
        let c = VerdictCache::new(8, 64);
        let queries: Vec<Query> = (1..=32).map(|i| q(i, i as u64)).collect();
        for (i, query) in queries.iter().enumerate() {
            c.insert(query.key(), *query, v(i as f64));
        }
        let a = c.entries_sorted();
        let b = c.entries_sorted();
        assert_eq!(a.len(), 32);
        assert_eq!(a, b);
        let mut keys: Vec<u128> = a.iter().map(|(q, _)| q.key().0).collect();
        let sorted = keys.clone();
        keys.sort_unstable();
        assert_eq!(keys, sorted, "entries come out key-ordered");
    }
}
