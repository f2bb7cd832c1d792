//! `large_pairs`: the real SYCL (USM) × SYCL (acc) `T_src+pp` pair of
//! each app, cut to its last k top-level declarations, solved by
//! `svdist`'s public pair solver with the production kernel.
//!
//! The uncut pairs (≈32k nodes a side, ≈1.3e10 DP cells) take minutes
//! each, so every timed loop skips them; their predicted cells are
//! reported instead.  The cuts keep the pairs real near-duplicates: every
//! difference sits in the app code at the tail, so each app's distance is
//! the same at every cut size.

use crate::common::{expected, median, timed, Rng};
use crate::frontend::{index_parallel, index_timed};
use crate::paper::{CellBook, LARGE_CELLS};
use crate::{Opts, Outcome};
use silvervale::CodebaseDb;
use std::collections::BTreeMap;
use svcorpus::App;
use svdist::ted::{dp_cell_estimate, ted_with, ted_with_mode, KernelMode};
use svdist::{CostModel, DistanceMatrix, SharedTree, Strategy};
use svtree::Tree;

/// Cut sizes (nodes of the USM side).
const CUTS: [usize; 3] = [1500, 3000, 4500];

struct Pair {
    key: String,
    a: Tree,
    b: Tree,
}

/// The root of `t` with only its last `k` children's subtrees.
fn cut(t: &Tree, k: usize) -> Tree {
    let root = t.root().expect("non-empty tree");
    let kids = t.children(root);
    let mut out = Tree::leaf(t.label(root));
    let r = out.root().expect("root");
    for &c in &kids[kids.len() - k..] {
        out.graft(r, &t.extract_subtree(c));
    }
    out
}

fn sycl_pair(db: &CodebaseDb) -> (Tree, Tree) {
    let tree = |label: &str| {
        db.entry(label)
            .unwrap_or_else(|| panic!("{label} in {}", db.name))
            .artifacts
            .t_src_pp
            .tree()
            .clone()
    };
    (tree("SYCL (USM)"), tree("SYCL (acc)"))
}

/// The cut pairs of every app, smallest k reaching each target size.
fn cut_pairs(dbs: &[CodebaseDb]) -> Vec<Pair> {
    let mut out = Vec::new();
    for db in dbs {
        let (usm, acc) = sycl_pair(db);
        let kids = usm.children(usm.root().expect("root"));
        for target in CUTS {
            let (mut k, mut size) = (0, 1);
            while size < target && k < kids.len() {
                k += 1;
                size += usm.subtree_size(kids[kids.len() - k]);
            }
            out.push(Pair {
                key: format!("{}.{target}", db.name),
                a: cut(&usm, k),
                b: cut(&acc, k),
            });
        }
    }
    out
}

fn solve(p: &Pair) -> u64 {
    ted_with(&p.a, &p.b, CostModel::UNIT, Strategy::Auto)
}

/// Per-app predicted DP cells of the full `T_src+pp` model matrix and of
/// its SYCL × SYCL pair: the cost no timed loop runs.
fn excluded_cost(out: &mut Outcome, dbs: &[CodebaseDb]) {
    let mut book = CellBook::default();
    for db in dbs {
        let t: Vec<SharedTree> = db.entries.iter().map(|e| e.artifacts.t_src_pp.clone()).collect();
        let matrix: u64 = DistanceMatrix::upper_pairs(t.len())
            .iter()
            .map(|&(i, j)| book.pair(&t[i], &t[j]).cells)
            .sum();
        let (usm, acc) = sycl_pair(db);
        let pair = dp_cell_estimate(&usm, &acc, Strategy::Auto);
        out.note(format!(
            "excluded: {} T_src+pp matrix {matrix} predicted DP cells, of which SYCL (USM) x SYCL (acc) {pair} \
             ({}x{} nodes)",
            db.name,
            usm.size(),
            acc.size()
        ));
    }
}

fn set_counts(out: &mut Outcome, oracle: &BTreeMap<String, String>, pairs: &[Pair]) {
    let eq = pairs
        .iter()
        .filter(|p| p.a.size() == p.b.size() && p.a.structural_hash() == p.b.structural_hash())
        .count() as u64;
    let cells: u64 = pairs.iter().map(|p| dp_cell_estimate(&p.a, &p.b, Strategy::Auto)).sum();
    for (name, v) in [
        ("svdist.pairs", pairs.len() as u64),
        ("svdist.pairs_hash_equal", eq),
        ("svdist.dp_cells", cells),
    ] {
        out.stored_count(oracle, &format!("large_pairs.count.{name}"), name, v);
    }
}

/// Solve every pair in `order`; returns per-pair (index, seconds, distance).
fn job(pairs: &[Pair], order: &[usize]) -> Vec<(usize, f64, u64)> {
    order
        .iter()
        .map(|&i| {
            let (dt, d) = timed(|| solve(&pairs[i]));
            (i, dt, d)
        })
        .collect()
}

fn check_job(
    out: &mut Outcome,
    oracle: &BTreeMap<String, String>,
    pairs: &[Pair],
    solved: &[(usize, f64, u64)],
) {
    for &(i, _, d) in solved {
        out.checks.expect(
            oracle,
            &format!("large_pairs.distance.{}", pairs[i].key),
            &d.to_string(),
        );
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let oracle = expected();
    let index = || index_parallel(&App::ALL, false, false);
    let mut setups = Vec::new();
    let mut dbs = Vec::new();
    for _ in 0..if opts.trace { 1 } else { 5 } {
        drop(std::mem::take(&mut dbs));
        let (dt, d) = timed(index);
        setups.push(dt);
        dbs = d;
    }
    let pairs = cut_pairs(&dbs);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    Rng(opts.seed ^ 0x6c61_7267_6570_6169).shuffle(&mut order);
    out.note(format!(
        "pairs: {}",
        pairs
            .iter()
            .map(|p| format!("{} {}x{}", p.key, p.a.size(), p.b.size()))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    if opts.trace {
        let (wall_plain, plain) = timed(|| job(&pairs, &order));
        let (_, fe) = index_timed(&App::ALL, false, false);
        fe.report(setups[0], &mut out);
        svtrace::reset_spans();
        svtrace::set_enabled(true);
        let (wall, solved) = timed(|| job(&pairs, &order));
        svtrace::set_enabled(false);
        svtrace::reset_spans();
        // The traced job runs between two untraced ones.
        let (wall_after, after) = timed(|| job(&pairs, &order));
        let wall_plain = (wall_plain + wall_after) / 2.0;
        check_job(&mut out, &oracle, &pairs, &after);
        check_job(&mut out, &oracle, &pairs, &plain);
        check_job(&mut out, &oracle, &pairs, &solved);
        let (mut t_small, mut t_large, mut c_small, mut c_large) = (0.0, 0.0, 0u64, 0u64);
        for &(i, dt, _) in &solved {
            let cells = dp_cell_estimate(&pairs[i].a, &pairs[i].b, Strategy::Auto);
            if cells >= LARGE_CELLS {
                t_large += dt;
                c_large += cells;
            } else {
                t_small += dt;
                c_small += cells;
            }
        }
        out.set("svdist.ted_s.large", t_large);
        out.set("svdist.cells_per_s.large", c_large as f64 / t_large);
        if c_small > 0 {
            out.note(format!(
                "{c_small} cells in pairs below the large threshold ({t_small:.3} s)"
            ));
        }
        let attributed: f64 = solved.iter().map(|s| s.1).sum();
        out.set("bench.unattributed_frac", 1.0 - attributed / wall);
        out.set("svtrace.overhead_frac", wall / wall_plain - 1.0);
        set_counts(&mut out, &oracle, &pairs);
        return out;
    }

    let mut walls = Vec::new();
    while walls.len() < 5 || (walls.iter().sum::<f64>() < opts.seconds && walls.len() < 50) {
        let (wall, solved) = timed(|| job(&pairs, &order));
        check_job(&mut out, &oracle, &pairs, &solved);
        walls.push(wall);
        if walls.len() == 1 {
            out.set("peak_rss_mb", crate::common::peak_rss_mb());
        }
    }
    excluded_cost(&mut out, &dbs);
    set_counts(&mut out, &oracle, &pairs);
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.note(format!(
        "set-ups: {} (cold index of 4 apps); jobs: {} x {} pair solves",
        setups.len(),
        walls.len(),
        pairs.len()
    ));
    // One request is the whole job: the median of twelve pair solves of
    // three sizes falls between two different pairs, not on a latency.
    out.request_metrics(&walls, walls.iter().sum(), "jobs (the pair solves are one request)");
    out
}

/// Oracle distances from the allocating `Baseline` kernel, and the counts.
pub fn expected_lines() -> Vec<String> {
    let dbs = index_parallel(&App::ALL, false, false);
    let pairs = cut_pairs(&dbs);
    let mut lines = Vec::new();
    for p in &pairs {
        let d = ted_with_mode(&p.a, &p.b, CostModel::UNIT, Strategy::Auto, KernelMode::Baseline);
        lines.push(format!("large_pairs.distance.{} {d}", p.key));
    }
    let mut probe = Outcome::default();
    set_counts(&mut probe, &BTreeMap::new(), &pairs);
    lines.extend(probe.counts.iter().map(|(k, v)| format!("large_pairs.count.{k} {v}")));
    lines
}
