//! Cached pairwise divergence: the bridge between [`crate::cache`] and the
//! `svmetrics` comparison kernels.
//!
//! Only the metrics whose pair cost is super-linear go through the cache —
//! the tree metrics (`T_src`/`T_sem`/`T_ir`, one TED per pair) and the
//! line-based `source` metric (O(NP) edit distance).  `SLOC`/`LLOC`/
//! `code_divergence` pairs are cheaper to recompute than to fingerprint,
//! so [`supports`] excludes them and callers fall back to the direct path.
//!
//! Every served row and matrix resolves its pairs through one batch solver,
//! [`pairs_cached`]: hits are answered inline, misses are deduplicated by
//! cache key and fanned out largest-first.
//!
//! The approximate-first matrix engine (`svmetrics::divergence_matrix_approx`,
//! exposed as the opt-in `approx` request flag in the silvervale service)
//! bypasses this cache entirely: its threshold kernel can report cutoff
//! sentinels instead of exact pair distances, and those must never be
//! stored where an exact request would read them back.

use crate::cache::{fnv1a, CacheKey, CachedPair, TedCache};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use svdist::{edit_distance_onp, ted_shared, CostModel, SharedTree, Strategy};
use svmetrics::{lines_of, tree_of, Divergence, Measured, Metric, Variant};

/// Discriminant of the (only) TED cost model in use: unit costs.
pub const COST_UNIT: u8 = 0;

/// Stable small discriminant of a metric for cache keying.
pub fn metric_code(metric: Metric) -> u8 {
    match metric {
        Metric::Sloc => 0,
        Metric::Lloc => 1,
        Metric::Source => 2,
        Metric::TSrc => 3,
        Metric::TSem => 4,
        Metric::TIr => 5,
        Metric::CodeDivergence => 6,
    }
}

/// Variant bits for cache keying.
pub fn variant_code(v: Variant) -> u8 {
    (v.preprocessor as u8) | (v.inlining as u8) << 1 | (v.coverage as u8) << 2
}

/// True when pairs of this metric are worth caching.
pub fn supports(metric: Metric) -> bool {
    matches!(metric, Metric::TSrc | Metric::TSem | Metric::TIr | Metric::Source)
}

/// The comparison artefact of one unit under a cacheable metric, carrying
/// its content fingerprint and normalisation weight.
///
/// Extracting this once per unit (instead of once per pair) is what makes
/// an all-hits matrix request O(n) instead of O(n²) in tree masking work.
pub enum FpArtifact {
    Tree { fp: u64, tree: SharedTree },
    Lines { fp: u64, lines: Vec<String> },
}

impl FpArtifact {
    /// Extract and fingerprint the artefact `metric`/`v` compares.
    ///
    /// # Panics
    /// Panics if `metric` is not cacheable (see [`supports`]).
    pub fn of(m: &Measured<'_>, metric: Metric, v: Variant) -> FpArtifact {
        match metric {
            Metric::TSrc | Metric::TSem | Metric::TIr => {
                // `SharedTree::structural_hash` is memoised: repeated
                // requests over the same stored artefact fingerprint it
                // without re-walking the tree.
                let tree = tree_of(m, metric, v);
                FpArtifact::Tree { fp: tree.structural_hash(), tree }
            }
            Metric::Source => {
                let lines = lines_of(m, v);
                let fp = fnv1a(lines.iter().map(|l| l.as_bytes()));
                FpArtifact::Lines { fp, lines }
            }
            other => panic!("metric {other:?} is not cacheable"),
        }
    }

    /// Content fingerprint.
    pub fn fp(&self) -> u64 {
        match self {
            FpArtifact::Tree { fp, .. } | FpArtifact::Lines { fp, .. } => *fp,
        }
    }

    /// Normalisation weight: tree size or line count.
    pub fn weight(&self) -> u64 {
        match self {
            FpArtifact::Tree { tree, .. } => tree.size() as u64,
            FpArtifact::Lines { lines, .. } => lines.len() as u64,
        }
    }
}

/// Estimated compute cost of an artefact pair, used to run a batch's
/// cache misses largest-first (LPT).  Fingerprint-equal pairs are
/// answered by the equal-artefact short-circuit without any distance
/// computation, so they cost 0; everything else scales with the DP table
/// (tree pairs) or the edit-distance working set (line pairs).  Purely an
/// ordering hint — it never changes a value.
pub fn pair_cost(a: &FpArtifact, b: &FpArtifact) -> u64 {
    if a.fp() == b.fp() {
        return 0;
    }
    match (a, b) {
        (FpArtifact::Tree { .. }, FpArtifact::Tree { .. }) => a.weight().saturating_mul(b.weight()),
        _ => a.weight().saturating_add(b.weight()),
    }
}

/// Raw pairwise distance — exactly what `svmetrics::divergence` computes
/// for this metric, with no cache involved.
fn raw_distance(a: &FpArtifact, b: &FpArtifact) -> u64 {
    match (a, b) {
        (FpArtifact::Tree { tree: ta, .. }, FpArtifact::Tree { tree: tb, .. }) => {
            let _s = svtrace::span!("ted.compute", a = ta.size(), b = tb.size());
            ted_shared(ta, tb, CostModel::UNIT, Strategy::Auto)
        }
        (FpArtifact::Lines { lines: la, .. }, FpArtifact::Lines { lines: lb, .. }) => {
            let _s = svtrace::span!("source.edit_distance", a = la.len(), b = lb.len());
            edit_distance_onp(la, lb) as u64
        }
        _ => unreachable!("artefact kinds are uniform per metric"),
    }
}

/// Key of an artefact pair under `metric`/`v` (orientation-free).
fn key_of(metric: Metric, v: Variant, a: &FpArtifact, b: &FpArtifact) -> CacheKey {
    CacheKey::pair(a.fp(), b.fp(), metric_code(metric), variant_code(v), COST_UNIT)
}

/// Compute a pair's cache entry: the distance plus both weights in
/// fingerprint order, as [`CacheKey`] canonicalises the pair.
fn compute_entry(a: &FpArtifact, b: &FpArtifact) -> CachedPair {
    let (w_lo, w_hi) =
        if a.fp() <= b.fp() { (a.weight(), b.weight()) } else { (b.weight(), a.weight()) };
    CachedPair { distance: raw_distance(a, b), weight_lo: w_lo, weight_hi: w_hi }
}

/// Re-orient a stored entry's weights to the caller's (a, b) order.
fn orient(a: &FpArtifact, b: &FpArtifact, entry: CachedPair) -> CachedPair {
    if a.fp() <= b.fp() {
        entry
    } else {
        CachedPair { weight_lo: entry.weight_hi, weight_hi: entry.weight_lo, ..entry }
    }
}

/// Distances and weights of a batch of (ordered) artefact pairs, served
/// cache-first — the one pair solver behind every served row and matrix.
///
/// Three passes:
/// 1. every pair whose fingerprints differ is looked up once (one
///    [`TedCache::get`], so an all-hit batch counts exactly that many
///    hits); fingerprint-equal pairs are content-identical, at distance 0
///    by construction, and touch neither the cache nor the DP;
/// 2. the misses are deduplicated by [`CacheKey`], so each distinct key is
///    computed exactly once per batch — `compute_count` grows by the
///    number of distinct missed keys, whatever the thread count;
/// 3. the distinct misses run largest-[`pair_cost`]-first on
///    `svpar::par_tasks` and are `put` into the cache.  With at most one
///    miss `par_tasks` runs it inline, so a warm request starts no threads.
///
/// Results come back in `pairs` order with weights in each pair's
/// (a, b) orientation: `weight_lo` is `a`'s weight, `weight_hi` is `b`'s.
///
/// Misses are computed outside the cache lock, so two concurrent batches
/// missing the same key may both compute it (benign: same value); the job
/// scheduler's in-flight dedup is what prevents duplicated request work.
pub fn pairs_cached(
    cache: &TedCache,
    metric: Metric,
    v: Variant,
    pairs: &[(&FpArtifact, &FpArtifact)],
    compute_count: &AtomicU64,
) -> Vec<CachedPair> {
    let mut out: Vec<Option<CachedPair>> = Vec::with_capacity(pairs.len());
    let mut missed: HashSet<CacheKey> = HashSet::new();
    let mut misses: Vec<(&FpArtifact, &FpArtifact)> = Vec::new();
    for &(a, b) in pairs {
        if a.fp() == b.fp() {
            out.push(Some(CachedPair {
                distance: 0,
                weight_lo: a.weight(),
                weight_hi: b.weight(),
            }));
            continue;
        }
        let key = key_of(metric, v, a, b);
        let hit = cache.get(&key);
        if hit.is_none() && missed.insert(key) {
            misses.push((a, b));
        }
        out.push(hit.map(|entry| orient(a, b, entry)));
    }
    if misses.is_empty() {
        return out.into_iter().map(|p| p.expect("all pairs resolved")).collect();
    }
    // Stable: equal-cost misses keep request order.
    misses.sort_by_key(|&(a, b)| std::cmp::Reverse(pair_cost(a, b)));
    let solved = svpar::par_tasks(&misses, |&(a, b)| compute_entry(a, b));
    compute_count.fetch_add(misses.len() as u64, Ordering::Relaxed);
    let mut fresh: HashMap<CacheKey, CachedPair> = HashMap::with_capacity(misses.len());
    for (&(a, b), entry) in misses.iter().zip(solved) {
        let key = key_of(metric, v, a, b);
        cache.put(key, entry);
        fresh.insert(key, entry);
    }
    pairs
        .iter()
        .zip(out)
        .map(|(&(a, b), p)| p.unwrap_or_else(|| orient(a, b, fresh[&key_of(metric, v, a, b)])))
        .collect()
}

/// Distance and weights of one (ordered) artefact pair: [`pairs_cached`]
/// on a batch of one.
pub fn pair_cached(
    cache: &TedCache,
    metric: Metric,
    v: Variant,
    a: &FpArtifact,
    b: &FpArtifact,
    compute_count: &AtomicU64,
) -> CachedPair {
    pairs_cached(cache, metric, v, &[(a, b)], compute_count)[0]
}

/// Divergence of every target from `base`, cache-served through
/// [`pairs_cached`]: identical `Divergence`s (Eq. 6 distance, Eq. 7 dmax)
/// to `svmetrics::divergence`, but a resident pair costs a hash lookup
/// instead of a TED.  A target whose fingerprint equals the base's is at
/// distance 0 (the paper's self-comparison correctness check).
pub fn divergences_cached(
    cache: &TedCache,
    metric: Metric,
    v: Variant,
    base: &FpArtifact,
    targets: &[FpArtifact],
    compute_count: &AtomicU64,
) -> Vec<Divergence> {
    let pairs: Vec<(&FpArtifact, &FpArtifact)> = targets.iter().map(|t| (base, t)).collect();
    pairs_cached(cache, metric, v, &pairs, compute_count)
        .iter()
        .map(|pair| {
            // Weights are in (base, target) order; dmax matches
            // svmetrics::divergence exactly: tb.size().max(1) for trees,
            // (la + lb).max(1) for source lines.
            let dmax = match metric {
                Metric::Source => (pair.weight_lo + pair.weight_hi).max(1),
                _ => pair.weight_hi.max(1),
            };
            Divergence { distance: pair.distance, dmax }
        })
        .collect()
}

/// Cached divergence of one artefact pair: [`divergences_cached`] with a
/// single target.
pub fn divergence_cached_arts(
    cache: &TedCache,
    metric: Metric,
    v: Variant,
    a: &FpArtifact,
    b: &FpArtifact,
    compute_count: &AtomicU64,
) -> Divergence {
    divergences_cached(cache, metric, v, a, std::slice::from_ref(b), compute_count)[0]
}

/// Matrix-cell value for an artefact pair — bit-identical to the
/// corresponding `svmetrics::divergence_matrix` cell (same integer inputs,
/// same f64 expression).
pub fn matrix_cell(metric: Metric, pair: &CachedPair) -> f64 {
    match metric {
        Metric::Source => pair.distance as f64 / (pair.weight_lo + pair.weight_hi).max(1) as f64,
        _ => pair.distance as f64 / pair.weight_lo.max(pair.weight_hi).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use svdist::ted;
    use svtree::Tree;

    fn tree_a() -> Tree {
        Tree::node("f", vec![Tree::leaf("x"), Tree::node("g", vec![Tree::leaf("y")])])
    }

    fn tree_b() -> Tree {
        Tree::node("f", vec![Tree::node("g", vec![Tree::leaf("y"), Tree::leaf("z")])])
    }

    fn fp_art(t: &Tree) -> FpArtifact {
        let tree = SharedTree::new(t.clone());
        FpArtifact::Tree { fp: tree.structural_hash(), tree }
    }

    #[test]
    fn pair_cached_matches_direct_ted_and_counts_computes() {
        let cache = TedCache::new(1 << 16);
        let computes = AtomicU64::new(0);
        let (a, b) = (fp_art(&tree_a()), fp_art(&tree_b()));
        let p1 = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        assert_eq!(p1.distance, ted(&tree_a(), &tree_b()));
        assert_eq!(p1.weight_lo, tree_a().size() as u64);
        assert_eq!(p1.weight_hi, tree_b().size() as u64);
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        // Second call: served from cache, no recompute.
        let p2 = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        assert_eq!(p1, p2);
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn reversed_pair_shares_the_entry_with_swapped_weights() {
        let cache = TedCache::new(1 << 16);
        let computes = AtomicU64::new(0);
        let (a, b) = (fp_art(&tree_a()), fp_art(&tree_b()));
        let ab = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        let ba = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &b, &a, &computes);
        assert_eq!(computes.load(Ordering::Relaxed), 1, "symmetric pair computed once");
        assert_eq!(ab.distance, ba.distance);
        assert_eq!(ab.weight_lo, ba.weight_hi);
        assert_eq!(ab.weight_hi, ba.weight_lo);
    }

    #[test]
    fn metric_and_variant_separate_cache_entries() {
        let cache = TedCache::new(1 << 16);
        let computes = AtomicU64::new(0);
        let (a, b) = (fp_art(&tree_a()), fp_art(&tree_b()));
        pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        pair_cached(&cache, Metric::TSrc, Variant::PLAIN, &a, &b, &computes);
        pair_cached(&cache, Metric::TSem, Variant::INLINED, &a, &b, &computes);
        assert_eq!(computes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn supports_covers_exactly_the_expensive_metrics() {
        for m in Metric::ALL {
            let expect = matches!(m, Metric::TSrc | Metric::TSem | Metric::TIr | Metric::Source);
            assert_eq!(supports(m), expect, "{m:?}");
        }
    }

    #[test]
    fn metric_codes_are_distinct() {
        let mut codes: Vec<u8> = Metric::ALL.iter().map(|&m| metric_code(m)).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Metric::ALL.len());
    }
}
