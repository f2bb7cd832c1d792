//! Property-based tests over the core data structures and algorithms.

use proptest::prelude::*;
use std::sync::Arc;
use svdist::ted::{
    cell_width, naive_ted, ted_with, ted_with_mode, ted_within_with_mode, CellWidth, CostModel,
    KernelMode, Strategy as TedStrategy,
};
use svdist::{
    edit_distance_onp, label_histogram_lb, lcs_len, levenshtein, pqgram_lb, ted_shared, ted_within,
    ted_within_shared, SharedTree, TreeProfile,
};
use svtree::pack::{compress, decompress, read_tree, write_tree, write_tree_v1};
use svtree::{Interner, NodeId, Span, Tree, TreeBuilder};

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// A small random labelled tree (≤ `max_nodes` nodes, labels a..e).
fn arb_tree(max_nodes: usize) -> impl Strategy<Value = Tree> {
    // Pre-order label+arity encoding drives a deterministic builder.
    proptest::collection::vec((0u8..5, 0usize..3), 1..max_nodes).prop_map(|spec| {
        let mut tree = Tree::leaf(format!("n{}", spec[0].0));
        let mut frontier = vec![(tree.root().unwrap(), spec[0].1)];
        for &(label, arity) in &spec[1..] {
            // Attach to the first frontier node with remaining capacity.
            while let Some(&(node, remaining)) = frontier.last() {
                if remaining == 0 {
                    frontier.pop();
                } else {
                    frontier.last_mut().unwrap().1 -= 1;
                    let id = tree.push_child(node, format!("n{label}"), None);
                    frontier.push((id, arity));
                    break;
                }
            }
        }
        tree
    })
}

/// A tree of a shape that stresses the kernels' live-row forest table:
/// `0` left comb (spine through the first child), `1` right comb (spine
/// through the last child; every leaf row stays live under left paths),
/// `2` wide fan, `3` caterpillar (a spine with legs on both sides), `4`
/// random attachment to one of the eight newest nodes (`picks` cycled).
/// `n` bounds the node count; `labels` cycles a three-letter alphabet.
fn shaped_tree(shape: usize, n: usize, labels: &[u8], picks: &[u8]) -> Tree {
    let lab = |k: usize| format!("n{}", labels[k % labels.len()]);
    let mut t = Tree::leaf(lab(0));
    let mut spine = t.root().unwrap();
    let mut nodes = vec![spine];
    while t.size() < n {
        let k = t.size();
        match shape {
            0 => {
                let next = t.push_child(spine, lab(k), None);
                t.push_child(spine, lab(k + 1), None);
                spine = next;
            }
            1 => {
                t.push_child(spine, lab(k), None);
                spine = t.push_child(spine, lab(k + 1), None);
            }
            2 => {
                t.push_child(spine, lab(k), None);
            }
            3 => {
                t.push_child(spine, lab(k), None);
                let next = t.push_child(spine, lab(k + 1), None);
                t.push_child(spine, lab(k + 2), None);
                spine = next;
            }
            _ => {
                let back = usize::from(picks[k % picks.len()]) % nodes.len().min(8);
                let parent = nodes[nodes.len() - 1 - back];
                nodes.push(t.push_child(parent, lab(k), None));
            }
        }
    }
    t
}

/// [`shaped_tree`] of a random shape with at most `max_nodes` nodes
/// (a comb step may add one node past a small bound).
fn arb_shaped(max_nodes: usize) -> impl Strategy<Value = Tree> {
    let labels = proptest::collection::vec(0u8..3, 1..16);
    let picks = proptest::collection::vec(any::<u8>(), 1..32);
    (0usize..5, 1usize..max_nodes, labels, picks)
        .prop_map(|(shape, n, labels, picks)| shaped_tree(shape, n, &labels, &picks))
}

/// A random tree with spans for serialisation tests.
fn arb_spanned_tree() -> impl Strategy<Value = Tree> {
    (arb_tree(20), any::<u32>()).prop_map(|(t, seed)| {
        let mut i = seed % 97;
        let _ = t.map_labels(|l| l.to_string()).prune(|_, _| true).filter_splice(|_, _| true);
        // Rebuild with spans through the builder API.
        let mut b = svtree::TreeBuilder::new("root");
        for n in t.preorder() {
            i = (i * 31 + 7) % 997;
            b.leaf_span(t.label(n), Some(Span::line(i % 5, 1 + i % 100)));
        }
        b.finish()
    })
}

/// Rebuild `t` label-for-label onto `table`, so both operands of a TED sit
/// on one interner and the comparison takes the same-table `Sym` fast path.
fn reinterned_onto(table: &Arc<Interner>, t: &Tree) -> Tree {
    fn go(b: &mut TreeBuilder, t: &Tree, n: NodeId) {
        if t.arity(n) == 0 {
            b.leaf_span(t.label(n), t.span(n));
        } else {
            b.open_span(t.label(n), t.span(n));
            for &c in t.children(n) {
                go(b, t, c);
            }
            b.close();
        }
    }
    match t.root() {
        None => Tree::empty_in(Arc::clone(table)),
        Some(r) => {
            let mut b = TreeBuilder::with_span_in(Arc::clone(table), t.label(r), t.span(r));
            for &c in t.children(r) {
                go(&mut b, t, c);
            }
            b.finish()
        }
    }
}

// ---------------------------------------------------------------------------
// TED metric axioms (cross-validated against the independent oracle)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ted_matches_oracle(a in arb_tree(9), b in arb_tree(9)) {
        let expect = naive_ted(&a, &b, CostModel::UNIT);
        for s in [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto] {
            prop_assert_eq!(ted_with(&a, &b, CostModel::UNIT, s), expect);
        }
    }

    #[test]
    fn ted_matches_oracle_under_random_cost_models(
        a in arb_tree(8),
        b in arb_tree(8),
        del in 1u32..50,
        ins in 1u32..50,
        rel in 1u32..50,
    ) {
        // Non-unit weights exercise the widened u64 DP cells: every
        // strategy must agree with the independent recursive oracle.
        let costs = CostModel { delete: del, insert: ins, relabel: rel };
        let expect = naive_ted(&a, &b, costs);
        for s in [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto] {
            prop_assert_eq!(ted_with(&a, &b, costs, s), expect);
        }
    }

    #[test]
    fn kernel_modes_match_oracle_under_boundary_cost_models(
        a in arb_tree(8),
        b in arb_tree(8),
        del_i in 0usize..7,
        ins_i in 0usize..7,
        rel_i in 0usize..7,
    ) {
        // Weight palette mixing tiny values (narrow kernel) with boundary
        // values near u32::MAX (u64 fallback) and zero-cost operations
        // (degenerate ramps/scans in the vector kernel).
        const DEL: [u32; 7] = [1, 2, 49, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        const INS: [u32; 7] = [1, 3, 47, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        const REL: [u32; 7] = [1, 5, 43, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        let (del, ins, rel) = (DEL[del_i], INS[ins_i], REL[rel_i]);
        // Every ablation stage of the kernel — allocating baseline, arena,
        // arena + width-adaptive cells, and the full branch-split kernel —
        // must agree with the oracle, including near-u32::MAX weights that
        // force the u64 fallback (the adaptive selection is what keeps the
        // narrow kernel from ever wrapping).
        let costs = CostModel { delete: del, insert: ins, relabel: rel };
        let expect = naive_ted(&a, &b, costs);
        for mode in KernelMode::ABLATION {
            for s in [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto] {
                prop_assert_eq!(ted_with_mode(&a, &b, costs, s, mode), expect);
            }
        }
        // Small weights must actually exercise the narrow kernel; huge
        // weights must be classified as needing u64 cells.
        if del <= 49 && ins <= 49 && rel <= 49 {
            prop_assert_eq!(cell_width(a.size(), b.size(), costs), CellWidth::U32);
        }
        if del >= u32::MAX - 1 || ins >= u32::MAX - 1 {
            prop_assert_eq!(cell_width(a.size(), b.size(), costs), CellWidth::U64);
        }
    }

    #[test]
    fn hash_equal_short_circuit_matches_full_dp(
        a in arb_tree(10),
        b in arb_tree(10),
        duplicate in any::<bool>(),
    ) {
        // `ted_with` short-circuits hash-equal pairs to 0 without any DP;
        // `ted_with_mode` bypasses that and always runs the kernel.  On
        // randomly duplicated trees (and on arbitrary pairs) both answers
        // must coincide — the short-circuit is an optimisation, never an
        // approximation.
        let b = if duplicate { a.clone() } else { b };
        let fast = ted_with(&a, &b, CostModel::UNIT, TedStrategy::Auto);
        let full = ted_with_mode(&a, &b, CostModel::UNIT, TedStrategy::Auto, KernelMode::Full);
        prop_assert_eq!(fast, full);
        if duplicate {
            prop_assert_eq!(fast, 0);
        }
        // Shared trees take the same short-circuit through memoized hashes.
        let (sa, sb) = (SharedTree::new(a), SharedTree::new(b));
        prop_assert_eq!(ted_shared(&sa, &sb, CostModel::UNIT, TedStrategy::Auto), full);
    }

    #[test]
    fn interned_ted_matches_string_oracle_under_random_cost_models(
        a in arb_tree(8),
        b in arb_tree(8),
        del in 1u32..50,
        ins in 1u32..50,
        rel in 1u32..50,
    ) {
        // The interned-symbol comparison has two code paths — same-table
        // `Sym` equality and cross-table memoised label hashes — and both
        // must agree with the string-labelled recursive oracle, memoised
        // views or not.
        let costs = CostModel { delete: del, insert: ins, relabel: rel };
        let expect = naive_ted(&a, &b, costs);
        // Cross-table: each arb tree has its own interner.
        let (sa, sb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));
        // Same-table: rebuild b onto a's interner.
        let b_same = SharedTree::new(reinterned_onto(a.interner(), &b));
        for s in [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto] {
            prop_assert_eq!(ted_shared(&sa, &sb, costs, s), expect);
            prop_assert_eq!(ted_shared(&sa, &b_same, costs, s), expect);
        }
    }

    #[test]
    fn shared_divergence_matches_plain(a in arb_tree(10), b in arb_tree(10)) {
        // The artifact layer must be invisible: memoised decompositions
        // give bit-identical distances to the fresh-build path.
        let (sa, sb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));
        let plain = svdist::ted(&a, &b);
        // Twice: the first call populates the memos, the second reuses them.
        for _ in 0..2 {
            prop_assert_eq!(
                ted_shared(&sa, &sb, CostModel::UNIT, TedStrategy::Auto),
                plain
            );
        }
    }

    #[test]
    fn ted_identity_and_symmetry(a in arb_tree(12), b in arb_tree(12)) {
        prop_assert_eq!(svdist::ted(&a, &a), 0);
        prop_assert_eq!(svdist::ted(&a, &b), svdist::ted(&b, &a));
    }

    #[test]
    fn ted_bounded_by_sizes(a in arb_tree(12), b in arb_tree(12)) {
        let d = svdist::ted(&a, &b);
        prop_assert!(d <= (a.size() + b.size()) as u64);
        prop_assert!(d >= a.size().abs_diff(b.size()) as u64);
    }

    #[test]
    fn ted_triangle_inequality(a in arb_tree(7), b in arb_tree(7), c in arb_tree(7)) {
        // TED is a true metric on ordered labelled trees.
        let ab = svdist::ted(&a, &b);
        let bc = svdist::ted(&b, &c);
        let ac = svdist::ted(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    }

    #[test]
    fn lower_bound_chain_is_admissible(
        a in arb_tree(9),
        b in arb_tree(9),
        del_i in 0usize..6,
        ins_i in 0usize..6,
        rel_i in 0usize..6,
    ) {
        // The approximate engine's prefilter chain: the label-histogram
        // bound never exceeds the pq-gram bound, and neither ever exceeds
        // the true TED — under unit and boundary cost models alike.
        const DEL: [u32; 6] = [1, 2, 49, 1 << 27, u32::MAX - 1, u32::MAX];
        const INS: [u32; 6] = [1, 3, 47, 1 << 27, u32::MAX - 1, u32::MAX];
        const REL: [u32; 6] = [1, 5, 43, 1 << 27, u32::MAX - 1, u32::MAX];
        for costs in [
            CostModel::UNIT,
            CostModel { delete: DEL[del_i], insert: INS[ins_i], relabel: REL[rel_i] },
        ] {
            let (pa, pb) = (TreeProfile::build(&a), TreeProfile::build(&b));
            let hist = label_histogram_lb(&pa, &pb, costs);
            let pq = pqgram_lb(&pa, &pb, costs);
            let exact = ted_with(&a, &b, costs, TedStrategy::Auto);
            prop_assert!(hist <= pq, "hist lb {hist} > pqgram lb {pq}");
            prop_assert!(pq <= exact, "pqgram lb {pq} > ted {exact} ({costs:?})");
        }
    }

    #[test]
    fn ted_within_agrees_with_exact_at_every_threshold(
        a in arb_tree(9),
        b in arb_tree(9),
        del_i in 0usize..7,
        ins_i in 0usize..7,
        rel_i in 0usize..7,
    ) {
        // `ted_within(tau)` returns `Some(d)` iff the exact distance is
        // `d <= tau` — at tau right below, at, and above the distance,
        // under boundary cost models, in every strategy, and in both the
        // allocating baseline and the vector banded kernels.
        const DEL: [u32; 7] = [1, 2, 49, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        const INS: [u32; 7] = [1, 3, 47, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        const REL: [u32; 7] = [1, 5, 43, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        let costs = CostModel { delete: DEL[del_i], insert: INS[ins_i], relabel: REL[rel_i] };
        let exact = ted_with(&a, &b, costs, TedStrategy::Auto);
        let taus = [
            0,
            exact.saturating_sub(1),
            exact,
            exact.saturating_add(1),
            exact.saturating_mul(2).saturating_add(3),
        ];
        for tau in taus {
            let want = (exact <= tau).then_some(exact);
            for s in [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto] {
                prop_assert_eq!(
                    ted_within(&a, &b, costs, s, tau), want,
                    "tau={} exact={} {:?} {:?}", tau, exact, s, costs
                );
            }
            prop_assert_eq!(
                ted_within_with_mode(&a, &b, costs, TedStrategy::Auto, tau, KernelMode::Baseline),
                want,
                "baseline kernel disagrees at tau={}", tau
            );
            // The Simd mode routes through the vector banded kernel where
            // the width checks admit the pair (and must agree either way).
            prop_assert_eq!(
                ted_within_with_mode(&a, &b, costs, TedStrategy::Auto, tau, KernelMode::Simd),
                want,
                "simd banded kernel disagrees at tau={} {:?}", tau, costs
            );
        }
        // The shared-tree entry point (profile prefilter + memoized
        // decompositions) answers identically.
        let (sa, sb) = (SharedTree::new(a), SharedTree::new(b));
        prop_assert_eq!(
            ted_within_shared(&sa, &sb, costs, TedStrategy::Auto, exact),
            Some(exact)
        );
    }

    #[test]
    fn live_row_kernels_match_oracle_on_slot_stressing_shapes(
        a in arb_shaped(11),
        b in arb_shaped(11),
        near_max in any::<bool>(),
    ) {
        // Combs (no row reuse one way, heavy reuse the other), fans,
        // caterpillars and random trees: the scalar and vector exact
        // kernels address forest rows through the live-row slot table and
        // must agree with the recursive oracle and the allocating
        // baseline, whose table keeps every row — under unit costs and
        // near-u32::MAX costs (u64 cells).
        let costs = if near_max {
            CostModel { delete: u32::MAX - 1, insert: u32::MAX, relabel: u32::MAX - 2 }
        } else {
            CostModel::UNIT
        };
        let expect = naive_ted(&a, &b, costs);
        for s in [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto] {
            for mode in [KernelMode::Baseline, KernelMode::Full, KernelMode::Simd] {
                prop_assert_eq!(ted_with_mode(&a, &b, costs, s, mode), expect, "{:?} {:?}", s, mode);
            }
        }
    }

    #[test]
    fn live_row_kernels_match_baseline_on_larger_shapes(
        a in arb_shaped(90),
        b in arb_shaped(90),
        cost_i in 0usize..4,
    ) {
        // Shapes too big for the oracle, pinned to the baseline under
        // unit costs, u64 cells, and the largest equal weights that keep
        // u32 cells (scalar kernel) or leave the vector scan its headroom
        // (SIMD kernel).
        let span = 2 * (a.size() + b.size()) as u32;
        let costs = match cost_i {
            0 => CostModel::UNIT,
            1 => CostModel { delete: u32::MAX, insert: u32::MAX - 1, relabel: u32::MAX },
            2 => {
                let w = (u32::MAX - 1) / span;
                CostModel { delete: w, insert: w, relabel: 1 }
            }
            _ => {
                let w = (u32::MAX - 1) / (span + 16);
                CostModel { delete: w, insert: w, relabel: 1 }
            }
        };
        for s in [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto] {
            let expect = ted_with_mode(&a, &b, costs, s, KernelMode::Baseline);
            for mode in [KernelMode::Full, KernelMode::Simd] {
                prop_assert_eq!(ted_with_mode(&a, &b, costs, s, mode), expect, "{:?} {:?}", s, mode);
            }
        }
    }

    // -----------------------------------------------------------------------
    // serialisation roundtrips
    // -----------------------------------------------------------------------

    #[test]
    fn svpack_tree_roundtrip(t in arb_spanned_tree()) {
        let bytes = write_tree(&t);
        prop_assert_eq!(bytes[4], 2, "writer emits the v2 columnar format");
        let back = read_tree(&bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn svpack_v1_payloads_decode_identically(t in arb_spanned_tree()) {
        // Legacy v1 payloads (interleaved records, string table rebuilt
        // from labels) must decode to the same tree as the v2 writer.
        let v1 = write_tree_v1(&t);
        prop_assert_eq!(v1[4], 1);
        let from_v1 = read_tree(&v1).unwrap();
        let from_v2 = read_tree(&write_tree(&t)).unwrap();
        prop_assert_eq!(&from_v1, &t);
        prop_assert_eq!(&from_v1, &from_v2);
        prop_assert_eq!(from_v1.structural_hash(), t.structural_hash());
    }

    #[test]
    fn svz_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn svz_roundtrip_repetitive(pattern in proptest::collection::vec(any::<u8>(), 1..32),
                                reps in 1usize..256) {
        let data: Vec<u8> = pattern.iter().copied().cycle().take(pattern.len() * reps).collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    // -----------------------------------------------------------------------
    // sequence distances
    // -----------------------------------------------------------------------

    #[test]
    fn onp_equals_lcs_identity(a in proptest::collection::vec(0u8..4, 0..64),
                               b in proptest::collection::vec(0u8..4, 0..64)) {
        let d = edit_distance_onp(&a, &b);
        let l = lcs_len(&a, &b);
        prop_assert_eq!(d, a.len() + b.len() - 2 * l);
    }

    #[test]
    fn levenshtein_sandwich(a in proptest::collection::vec(0u8..4, 0..48),
                            b in proptest::collection::vec(0u8..4, 0..48)) {
        let lev = levenshtein(&a, &b);
        let onp = edit_distance_onp(&a, &b);
        prop_assert!(lev <= onp);
        prop_assert!(onp <= 2 * lev);
    }

    #[test]
    fn sequence_metric_axioms(a in proptest::collection::vec(0u8..4, 0..48),
                              b in proptest::collection::vec(0u8..4, 0..48)) {
        prop_assert_eq!(edit_distance_onp(&a, &a), 0);
        prop_assert_eq!(edit_distance_onp(&a, &b), edit_distance_onp(&b, &a));
    }

    // -----------------------------------------------------------------------
    // JSON roundtrip
    // -----------------------------------------------------------------------

    #[test]
    fn json_string_roundtrip(s in "\\PC*") {
        use silvervale::svjson::{parse, Json};
        let doc = Json::Str(s.clone()).to_string_compact();
        prop_assert_eq!(parse(&doc).unwrap(), Json::Str(s));
    }

    #[test]
    fn json_number_roundtrip(v in -1.0e12f64..1.0e12) {
        use silvervale::svjson::{parse, Json};
        let doc = Json::Num(v).to_string_compact();
        let back = parse(&doc).unwrap().as_f64().unwrap();
        prop_assert!((back - v).abs() <= v.abs() * 1e-12 + 1e-9);
    }

    // -----------------------------------------------------------------------
    // clustering invariants
    // -----------------------------------------------------------------------

    #[test]
    fn clustering_invariants(dists in proptest::collection::vec(0.0f64..10.0, 6)) {
        use svcluster::{cluster, Linkage};
        use svdist::DistanceMatrix;
        // 4 items, 6 condensed entries.
        let mut m = DistanceMatrix::new(
            (0..4).map(|i| format!("m{i}")).collect()
        );
        let mut k = 0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                m.set(i, j, dists[k]);
                k += 1;
            }
        }
        let d = cluster(&m, Linkage::Complete);
        prop_assert_eq!(d.merges.len(), 3);
        // Complete-linkage merge heights are monotone non-decreasing.
        for w in d.merges.windows(2) {
            prop_assert!(w[0].height <= w[1].height + 1e-12);
        }
        // Leaf order is a permutation.
        let mut order = d.leaf_order();
        order.sort_unstable();
        prop_assert_eq!(order, vec![0, 1, 2, 3]);
        // Flat cuts partition the items.
        for k in 1..=4usize {
            let cuts = d.cut(k);
            let total: usize = cuts.iter().map(Vec::len).sum();
            prop_assert_eq!(total, 4);
        }
    }

    #[test]
    fn nn_chain_matches_greedy_on_random_matrices(
        vals in proptest::collection::vec(0u32..1000, 10)
    ) {
        use svcluster::{cluster, cluster_greedy, Linkage};
        use svdist::DistanceMatrix;
        // 5 items, 10 condensed entries — distinct by construction (the
        // `k * 1e-7` tilt breaks every tie even after shrinking), so the
        // canonicalised dendrograms of the O(n³) greedy scan and the
        // O(n²) NN-chain must coincide exactly for the combinatorial
        // linkages.
        let labels: Vec<String> = (0..5).map(|i| format!("m{i}")).collect();
        let mut m = DistanceMatrix::new(labels.clone());
        let mut k = 0;
        for i in 0..5 {
            for j in (i + 1)..5 {
                m.set(i, j, vals[k] as f64 + k as f64 * 1e-7);
                k += 1;
            }
        }
        for linkage in [Linkage::Single, Linkage::Complete] {
            let chain = cluster(&m, linkage);
            let greedy = cluster_greedy(&m, linkage);
            prop_assert_eq!(&chain, &greedy, "{:?}", linkage);
        }
        // Average linkage computes each height as a differently-ordered
        // f64 sum in the two algorithms, so heights may differ in final
        // ulps; compare the induced ultrametric instead (skipping the
        // measure-zero near-tie inputs where an ulp can flip a merge).
        let chain = cluster(&m, Linkage::Average);
        let greedy = cluster_greedy(&m, Linkage::Average);
        let mut heights: Vec<f64> = greedy.merges.iter().map(|mg| mg.height).collect();
        heights.sort_by(f64::total_cmp);
        if heights.windows(2).all(|w| w[1] - w[0] > 1e-6) {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    let (ca, cg) = (
                        chain.cophenetic(&labels[i], &labels[j]).unwrap(),
                        greedy.cophenetic(&labels[i], &labels[j]).unwrap(),
                    );
                    prop_assert!(
                        (ca - cg).abs() <= 1e-9,
                        "cophenetic({}, {}) chain {} vs greedy {}", i, j, ca, cg
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// frontend robustness: arbitrary input must never panic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cpp_frontend_never_panics(src in "[a-z0-9 \\n\\t{}()\\[\\];,.*+<>=&|!#\"'/-]{0,200}") {
        use svlang::source::SourceSet;
        use svlang::unit::{compile_unit, UnitOptions};
        let mut ss = SourceSet::new();
        let m = ss.add("fuzz.cpp", src);
        // Ok or Err are both fine; panics are not.
        let _ = compile_unit(&ss, m, &UnitOptions::default());
    }

    #[test]
    fn fortran_frontend_never_panics(src in "[a-z0-9 \\n(),:=+*!$.-]{0,200}") {
        use svlang::fortran::parse_fortran;
        use svlang::source::FileId;
        let _ = parse_fortran(&src, FileId(0), "fuzz.f90");
    }

    #[test]
    fn compile_commands_parser_never_panics(src in "[\\[\\]{}\",:a-z0-9 .\\\\/-]{0,200}") {
        let _ = silvervale::parse_compile_commands(&src);
    }

    #[test]
    fn db_loader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = silvervale::CodebaseDb::from_bytes(&bytes);
    }

    #[test]
    fn tree_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_tree(&bytes);
        let _ = decompress(&bytes);
    }
}
