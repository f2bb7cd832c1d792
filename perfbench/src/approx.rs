//! `approx_corpus`: the synthetic corpus of `bench/benches/approx_matrix.rs`
//! scaled to 3000 units, through `svmetrics::approx_tree_matrix` and then
//! complete-linkage `svcluster::cluster` on the result.
//!
//! The lower bounds, the banded `ted_within` and many tiny DPs dominate
//! here and the frontend is absent.  Set-up parses the corpus into fresh
//! `SharedTree`s (cold memos) before every job.

use crate::common::{median, timed, Fnv, Rng};
use crate::{Opts, Outcome};
use svcluster::{cluster, Dendrogram, Linkage};
use svdist::{ted_shared, CostModel, DistanceMatrix, SharedTree, Strategy};
use svmetrics::ApproxStats;
use svtree::Tree;

const FAMILIES: usize = 240;
const UNITS: usize = 3000;
/// Base tree plus five small relabel mutants per family.
const VARIANTS: usize = 6;

/// A flat random tree: labels index a family palette.
#[derive(Clone)]
struct SynTree {
    label: Vec<usize>,
    children: Vec<Vec<usize>>,
}

impl SynTree {
    /// `size` nodes, each attached to one of the eight most recent nodes,
    /// so depth grows the way an AST's does.
    fn random(rng: &mut Rng, size: usize, palette: usize) -> SynTree {
        let mut t = SynTree { label: vec![rng.below(palette)], children: vec![Vec::new()] };
        for id in 1..size {
            let lo = id.saturating_sub(8);
            let parent = lo + rng.below(id - lo);
            t.label.push(rng.below(palette));
            t.children.push(Vec::new());
            t.children[parent].push(id);
        }
        t
    }

    fn mutated(&self, rng: &mut Rng, edits: usize, palette: usize) -> SynTree {
        let mut t = self.clone();
        for _ in 0..edits {
            let node = rng.below(t.label.len());
            let l = rng.below(palette);
            t.label[node] = if l == t.label[node] { (l + 1) % palette } else { l };
        }
        t
    }

    fn sexpr(&self, palette: &[String]) -> String {
        fn rec(t: &SynTree, id: usize, palette: &[String], out: &mut String) {
            if t.children[id].is_empty() {
                out.push_str(&palette[t.label[id]]);
                return;
            }
            out.push('(');
            out.push_str(&palette[t.label[id]]);
            for &k in &t.children[id] {
                out.push(' ');
                rec(t, k, palette, out);
            }
            out.push(')');
        }
        let mut s = String::new();
        rec(self, 0, palette, &mut s);
        s
    }
}

/// The corpus as s-expressions: unit `u` is variant `(u / FAMILIES) %
/// VARIANTS` of family `u % FAMILIES`, so distinct trees recur and every
/// family keeps near neighbours.
fn corpus(seed: u64) -> Vec<String> {
    let shared = ["seq", "add", "mul", "cmp", "ld", "st", "br", "phi"];
    let mut rng = Rng(0x5eed_a99c_0ffe_e001 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut families: Vec<Vec<String>> = Vec::with_capacity(FAMILIES);
    for f in 0..FAMILIES {
        let mut palette: Vec<String> = shared.iter().map(|s| s.to_string()).collect();
        palette.extend((0..12).map(|s| format!("f{f}x{s}")));
        let size = 40 + rng.below(41);
        let base = SynTree::random(&mut rng, size, palette.len());
        let mut family = vec![base.sexpr(&palette)];
        for _ in 1..VARIANTS {
            let edits = 1 + rng.below(3);
            family.push(base.mutated(&mut rng, edits, palette.len()).sexpr(&palette));
        }
        families.push(family);
    }
    (0..UNITS).map(|u| families[u % FAMILIES][(u / FAMILIES) % VARIANTS].clone()).collect()
}

fn parse(corpus: &[String]) -> Vec<SharedTree> {
    corpus
        .iter()
        .map(|s| SharedTree::new(Tree::from_sexpr(s).expect("corpus s-expression")))
        .collect()
}

struct Job {
    wall: f64,
    matrix_s: f64,
    cluster_s: f64,
    matrix: DistanceMatrix,
    stats: ApproxStats,
    dendrogram: Dendrogram,
}

fn job(labels: &[String], trees: &[SharedTree]) -> Job {
    let (wall, ((matrix_s, (matrix, stats)), (cluster_s, dendrogram))) = timed(|| {
        let m = timed(|| svmetrics::approx_tree_matrix(labels, trees));
        let d = timed(|| cluster(&m.1 .0, Linkage::Complete));
        (m, d)
    });
    Job { wall, matrix_s, cluster_s, matrix, stats, dendrogram }
}

fn stat_counts(s: &ApproxStats) -> [(&'static str, u64); 5] {
    [
        ("svdist.approx.pairs", s.pairs),
        ("svdist.approx.bucketed", s.bucketed),
        ("svdist.approx.lb_pruned", s.lb_pruned),
        ("svdist.approx.cutoff", s.cutoff),
        ("svdist.approx.exact_solves", s.exact_solves),
    ]
}

/// Accounting identity, and a seeded sample of cells against `ted_shared`:
/// every cell admissible, in-frontier cells exact.
fn check(out: &mut Outcome, trees: &[SharedTree], job: &Job, seed: u64) {
    let s = &job.stats;
    let n = trees.len() as u64;
    out.checks
        .check(s.pairs == n * (n - 1) / 2, || format!("approx pairs {} != n(n-1)/2", s.pairs));
    out.checks.check(s.bucketed + s.lb_pruned + s.cutoff + s.exact_solves == s.pairs, || {
        format!("approx accounting {s:?} does not sum to its pairs")
    });
    let mut rng = Rng(seed ^ 0x6170_7072_6f78);
    let (mut in_frontier, mut bad) = (0, Vec::new());
    for k in 0..400 {
        // Half the sample pairs units of one family, where the frontier
        // lies; half are uniform.
        let i = rng.below(UNITS);
        let j = if k % 2 == 0 {
            (i + FAMILIES * (1 + rng.below(VARIANTS - 1))) % UNITS
        } else {
            rng.below(UNITS)
        };
        if i == j {
            continue;
        }
        let (a, b) = (&trees[i], &trees[j]);
        let d = ted_shared(a, b, CostModel::UNIT, Strategy::Auto);
        let exact = d as f64 / a.size().max(b.size()).max(1) as f64;
        let got = job.matrix.get(i, j);
        if got > exact + 1e-12 {
            bad.push(format!("cell ({i},{j}) {got} over exact {exact}"));
        }
        if got <= s.frontier {
            in_frontier += 1;
            if got != exact {
                bad.push(format!("in-frontier cell ({i},{j}) {got} != exact {exact}"));
            }
        }
    }
    out.checks.check(bad.is_empty(), || bad.join("; "));
    out.checks.check(in_frontier > 0, || "the sample held no in-frontier cell".to_string());
}

fn dendrogram_digest(d: &Dendrogram) -> String {
    Fnv::new().str(&d.render()).hex()
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let sexprs = corpus(opts.seed);
    let labels: Vec<String> = (0..UNITS).map(|u| format!("u{u:04}")).collect();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut first: Option<(ApproxStats, String)> = None;
    let mut traced: Option<(Job, Vec<SharedTree>)> = None;
    loop {
        let enough = if opts.trace {
            walls.len() == 3
        } else {
            walls.len() >= 5 && walls.iter().sum::<f64>() >= opts.seconds || walls.len() >= 100
        };
        if enough {
            break;
        }
        let (dt, trees) = timed(|| parse(&sexprs));
        setups.push(dt);
        // In the traced run the second job runs with spans on.
        let trace_this = opts.trace && walls.len() == 1;
        svtrace::reset_spans();
        svtrace::set_enabled(trace_this);
        let j = job(&labels, &trees);
        svtrace::set_enabled(false);
        svtrace::reset_spans();
        check(&mut out, &trees, &j, opts.seed);
        let digest = dendrogram_digest(&j.dendrogram);
        match &first {
            None => {
                out.set("peak_rss_mb", crate::common::peak_rss_mb());
                first = Some((j.stats, digest));
            }
            Some((s0, d0)) => out.checks.check(*s0 == j.stats && *d0 == digest, || {
                format!("repeated job differs: {s0:?} vs {:?}", j.stats)
            }),
        }
        walls.push(j.wall);
        if trace_this {
            traced = Some((j, trees));
        }
    }
    let (stats, _) = first.expect("at least one job");
    for (name, v) in stat_counts(&stats) {
        out.count(name, v);
    }
    out.set(
        "svdist.approx.prefilter_frac",
        (stats.bucketed + stats.lb_pruned) as f64 / stats.pairs as f64,
    );
    out.note(format!("corpus: {UNITS} units, {FAMILIES} families x {VARIANTS} variants, 40-80 nodes; frontier {}", stats.frontier));
    if let Some((j, trees)) = traced {
        // The traced job ran between two untraced ones.
        let wall_plain = (walls[0] + walls[2]) / 2.0;
        let unreplayed = replay_distance(&mut out, &trees, &j.stats);
        out.set("svmetrics.matrix_s", j.matrix_s);
        out.set("svcluster.hac_s", j.cluster_s);
        out.set("svcluster.leaves", UNITS as f64);
        let attributed = j.matrix_s * (1.0 - unreplayed) + j.cluster_s;
        out.set("bench.unattributed_frac", 1.0 - attributed / j.wall);
        out.set("svtrace.overhead_frac", j.wall / wall_plain - 1.0);
        return out;
    }
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.note(format!("jobs: {}, each on corpus trees parsed just before it (set-up)", walls.len()));
    out.request_metrics(
        &walls,
        walls.iter().sum(),
        "jobs (matrix + clustering of the corpus is one request)",
    );
    out
}

/// The distance layer of the approximate engine, replayed call by call
/// on the traced job's trees: the pq-gram lower bounds between bucket
/// representatives, then the threshold solves of every pair inside the
/// frontier.  The replay follows the engine's bucketing, frontier and τ
/// as they are today; where its pair counts differ from the engine's, it
/// no longer describes the engine.  That is noted, not failed, and the
/// returned share (0 when the replay matches) of the matrix time counts as
/// unattributed.
fn replay_distance(out: &mut Outcome, trees: &[SharedTree], stats: &ApproxStats) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let reps: Vec<usize> = (0..trees.len())
        .filter(|&i| seen.insert((trees[i].size(), trees[i].structural_hash())))
        .collect();
    let g = reps.len();
    let rows: Vec<usize> = (0..g).collect();
    let (lb_s, lb_rows) = timed(|| {
        svpar::par_tasks(&rows, |&gi| {
            (gi + 1..g)
                .map(|gj| {
                    svdist::pqgram_lb(
                        trees[reps[gi]].profile(),
                        trees[reps[gj]].profile(),
                        CostModel::UNIT,
                    )
                })
                .collect::<Vec<u64>>()
        })
    });
    out.set("svdist.lb_s", lb_s);
    let mut cands = Vec::new();
    for gi in 0..g {
        for gj in gi + 1..g {
            let (a, b) = (&trees[reps[gi]], &trees[reps[gj]]);
            let dmax = a.size().max(b.size()).max(1) as u64;
            if lb_rows[gi][gj - gi - 1] as f64 / dmax as f64 <= stats.frontier {
                cands.push((a, b, (stats.frontier * dmax as f64).floor() as u64));
            }
        }
    }
    let (mut ted_s, mut cells, mut solved) = (0.0, 0u64, 0u64);
    for &(a, b, tau) in &cands {
        let (dt, d) =
            timed(|| svdist::ted_within_shared(a, b, CostModel::UNIT, Strategy::Auto, tau));
        ted_s += dt;
        solved += u64::from(d.is_some());
        cells += svdist::ted::dp_cell_estimate(a.tree(), b.tree(), Strategy::Auto);
    }
    let share = |replay: u64, engine: u64| {
        replay.abs_diff(engine) as f64 / replay.max(engine).max(1) as f64
    };
    let engine_in_frontier = stats.cutoff + stats.exact_solves;
    let unreplayed =
        f64::max(share(cands.len() as u64, engine_in_frontier), share(solved, stats.exact_solves));
    if unreplayed > 0.0 {
        out.note(format!(
            "replay found {} in-frontier pairs and solved {solved} exactly; the engine {} and {}",
            cands.len(),
            engine_in_frontier,
            stats.exact_solves
        ));
    }
    out.count("svdist.pairs", cands.len() as u64);
    out.count("svdist.pairs_hash_equal", 0);
    out.count("svdist.dp_cells", cells);
    out.set("svdist.ted_s.small", ted_s);
    out.set("svdist.cells_per_s.small", cells as f64 / ted_s);
    out.note(format!(
        "svdist: {} representatives; {} in-frontier pairs through ted_within ({cells} full-DP cells)",
        g,
        cands.len()
    ));
    unreplayed
}
