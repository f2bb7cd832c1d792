//! Content-addressed TED result cache.
//!
//! Tree edit distance dominates the analysis service's cost (§VII calls
//! TED the scaling bottleneck), and the same pairs recur constantly: every
//! `compare`, `matrix` and `cluster` request over the same codebase DB
//! re-derives the same pairwise distances.  Instead of caching per request
//! we cache per *pair*: results are keyed by the two artefacts' content
//! fingerprints (`svtree` structural hashes for trees) plus the metric,
//! variant and cost model that produced them — so two DBs holding
//! structurally identical trees share cache entries, and a re-indexed DB
//! whose trees did not change costs nothing to re-analyse.
//!
//! Eviction is LRU under a byte budget; hits, misses, insertions and
//! evictions are counted on a per-cache `svtrace::Registry` — the same
//! handles feed the `stats` report (via [`TedCache::stats`], unchanged
//! format) and the live `metrics` endpoint (via [`TedCache::registry`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use svtrace::{Counter, Gauge, Registry};

/// Lock the cache tolerating poisoning: a handler panic while holding the
/// lock (the critical sections never call user code, but panics can be
/// injected anywhere in tests) must degrade to a stale-recency cache, not
/// wedge every later request.
fn lock_ip<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Content address of one pairwise computation.
///
/// `fp_lo <= fp_hi` always holds (see [`CacheKey::pair`]): the unit cost
/// model makes TED symmetric, so both orientations of a pair share one
/// entry, with [`CachedPair`] weights stored in fingerprint order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Smaller fingerprint of the pair.
    pub fp_lo: u64,
    /// Larger fingerprint of the pair.
    pub fp_hi: u64,
    /// Discriminant of the metric that was computed.
    pub metric: u8,
    /// Variant bits: 1 = preprocessor, 2 = inlining, 4 = coverage.
    pub variant: u8,
    /// TED cost model discriminant (0 = unit costs).
    pub cost_model: u8,
}

impl CacheKey {
    /// Canonicalise a fingerprint pair into a key (orientation-free).
    pub fn pair(fp_a: u64, fp_b: u64, metric: u8, variant: u8, cost_model: u8) -> CacheKey {
        let (fp_lo, fp_hi) = if fp_a <= fp_b { (fp_a, fp_b) } else { (fp_b, fp_a) };
        CacheKey { fp_lo, fp_hi, metric, variant, cost_model }
    }
}

/// A cached pairwise result: the raw distance plus both artefacts'
/// weights (tree sizes or line counts), in `fp_lo`/`fp_hi` order.
///
/// Storing the un-normalised triple lets every consumer re-derive its own
/// form bit-identically: `compare` divides by the target's weight (Eq. 7's
/// `dmax`), matrix cells divide by the pair maximum (or sum, for the
/// source metric) — all from the same integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedPair {
    /// Raw distance (TED or line edit distance).
    pub distance: u64,
    /// Weight of the `fp_lo` artefact.
    pub weight_lo: u64,
    /// Weight of the `fp_hi` artefact.
    pub weight_hi: u64,
}

/// Approximate resident bytes per entry: key + value + the `HashMap` and
/// recency-index bookkeeping around them.  A fixed estimate is fine — all
/// entries have the same shape.
pub const ENTRY_BYTES: usize = std::mem::size_of::<CacheKey>()
    + std::mem::size_of::<CachedPair>()
    + 2 * std::mem::size_of::<(u64, CacheKey)>()
    + 48;

/// Counter snapshot for the `stats` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub entries: usize,
    pub bytes: usize,
    pub byte_budget: usize,
}

struct Inner {
    map: HashMap<CacheKey, (CachedPair, u64)>,
    /// Last-access tick → key; the smallest tick is the LRU entry.
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
}

/// Thread-safe LRU cache of pairwise distances under a byte budget.
///
/// Counters live on a cache-owned [`Registry`] (so independent caches —
/// e.g. in tests — never share counts); `entries`/`bytes` occupancy is
/// mirrored onto gauges whenever the map changes.
pub struct TedCache {
    inner: Mutex<Inner>,
    byte_budget: usize,
    registry: Registry,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    entries_gauge: Arc<Gauge>,
    bytes_gauge: Arc<Gauge>,
}

impl TedCache {
    /// Create a cache that holds at most `byte_budget` bytes of entries
    /// (at least one entry is always kept, so a tiny budget degenerates to
    /// a single-entry cache rather than caching nothing).
    pub fn new(byte_budget: usize) -> TedCache {
        let registry = Registry::new();
        let hits = registry.counter("cache.hits");
        let misses = registry.counter("cache.misses");
        let insertions = registry.counter("cache.insertions");
        let evictions = registry.counter("cache.evictions");
        let entries_gauge = registry.gauge("cache.entries");
        let bytes_gauge = registry.gauge("cache.bytes");
        registry.gauge("cache.byte_budget").set(byte_budget as f64);
        TedCache {
            inner: Mutex::new(Inner { map: HashMap::new(), recency: BTreeMap::new(), tick: 0 }),
            byte_budget,
            registry,
            hits,
            misses,
            insertions,
            evictions,
            entries_gauge,
            bytes_gauge,
        }
    }

    /// The cache's metrics registry, for the live `metrics` endpoint.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Maximum number of entries the byte budget admits (minimum 1).
    pub fn capacity(&self) -> usize {
        (self.byte_budget / ENTRY_BYTES).max(1)
    }

    /// Look up a pair, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &CacheKey) -> Option<CachedPair> {
        let mut inner = lock_ip(&self.inner);
        let inner = &mut *inner;
        match inner.map.get_mut(key) {
            Some((val, tick)) => {
                let val = *val;
                inner.recency.remove(tick);
                inner.tick += 1;
                *tick = inner.tick;
                inner.recency.insert(inner.tick, *key);
                self.hits.inc();
                Some(val)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert a pair, evicting least-recently-used entries past the budget.
    pub fn put(&self, key: CacheKey, val: CachedPair) {
        let cap = self.capacity();
        let mut inner = lock_ip(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((_, old_tick)) = inner.map.insert(key, (val, tick)) {
            // Overwrite (e.g. two threads raced the same miss): not an
            // insertion, just refresh recency.
            inner.recency.remove(&old_tick);
            inner.recency.insert(tick, key);
            return;
        }
        inner.recency.insert(tick, key);
        self.insertions.inc();
        while inner.map.len() > cap {
            let (&lru_tick, &lru_key) =
                inner.recency.iter().next().expect("recency tracks every entry");
            inner.recency.remove(&lru_tick);
            inner.map.remove(&lru_key);
            self.evictions.inc();
        }
        self.entries_gauge.set(inner.map.len() as f64);
        self.bytes_gauge.set((inner.map.len() * ENTRY_BYTES) as f64);
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_ip(&self.inner);
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: inner.map.len(),
            bytes: inner.map.len() * ENTRY_BYTES,
            byte_budget: self.byte_budget,
        }
    }
}

/// FNV-1a over an iterator of byte chunks — the fingerprint for artefacts
/// that are not trees (normalised source lines).  Trees use
/// `svtree::Tree::structural_hash` instead.
pub fn fnv1a<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Chunk separator so ["ab","c"] and ["a","bc"] differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey::pair(n, n + 1, 0, 0, 0)
    }

    fn val(d: u64) -> CachedPair {
        CachedPair { distance: d, weight_lo: 10, weight_hi: 20 }
    }

    #[test]
    fn pair_key_is_orientation_free() {
        assert_eq!(CacheKey::pair(7, 3, 1, 2, 0), CacheKey::pair(3, 7, 1, 2, 0));
        assert_ne!(CacheKey::pair(3, 7, 1, 2, 0), CacheKey::pair(3, 7, 2, 2, 0));
        assert_ne!(CacheKey::pair(3, 7, 1, 2, 0), CacheKey::pair(3, 7, 1, 3, 0));
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = TedCache::new(1 << 16);
        assert_eq!(c.get(&key(1)), None);
        c.put(key(1), val(5));
        assert_eq!(c.get(&key(1)), Some(val(5)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_eviction_under_budget() {
        let c = TedCache::new(3 * ENTRY_BYTES);
        assert_eq!(c.capacity(), 3);
        for n in 0..3 {
            c.put(key(n * 10), val(n));
        }
        // Touch key(0): key(10) becomes LRU.
        assert!(c.get(&key(0)).is_some());
        c.put(key(30), val(9));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(&key(10)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(0)).is_some(), "recently-touched entry kept");
        assert!(c.get(&key(30)).is_some());
        assert_eq!(c.stats().entries, 3);
    }

    #[test]
    fn tiny_budget_keeps_one_entry() {
        let c = TedCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.put(key(1), val(1));
        c.put(key(2), val(2));
        assert_eq!(c.stats().entries, 1);
        assert!(c.get(&key(2)).is_some());
    }

    #[test]
    fn overwrite_does_not_double_count_entries() {
        let c = TedCache::new(1 << 16);
        c.put(key(1), val(1));
        c.put(key(1), val(2));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.insertions, 1);
        assert_eq!(c.get(&key(1)), Some(val(2)));
    }

    #[test]
    fn fnv_separates_chunk_boundaries() {
        assert_ne!(fnv1a([b"ab".as_slice(), b"c"]), fnv1a([b"a".as_slice(), b"bc"]));
        assert_eq!(fnv1a([b"ab".as_slice()]), fnv1a([b"ab".as_slice()]));
        assert_ne!(fnv1a([]), fnv1a([b"".as_slice()]));
    }
}
