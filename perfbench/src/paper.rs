//! `paper_cold`: the paper's Fig. 2 workflow in one process, cold, over
//! the Table II corpus.
//!
//! Set-up indexes the four C++ apps with coverage plus Fortran
//! BabelStream.  The measured job is 48 public pipeline calls in a
//! seed-shuffled order: the Fig. 7 (miniBUDE) and Fig. 8 (CloverLeaf)
//! 16-row heatmap columns from Serial, the Fig. 5 (TeaLeaf) and Fig. 6
//! (Fortran) model matrices over six metrics, each clustered with NN-chain
//! HAC, and the Fig. 13/14 navigation charts of all four apps.  Every job
//! runs on a freshly indexed corpus, so every artefact memo is cold.

use crate::common::{expected, median, timed, Fnv, Rng};
use crate::frontend::{index_parallel, index_timed, Frontend};
use crate::{Opts, Outcome};
use silvervale::{divergence_from, model_matrix, navigation_chart, CodebaseDb, DbEntry};
use std::collections::{BTreeMap, HashMap};
use svcorpus::App;
use svdist::{DistanceMatrix, SharedTree, Strategy};
use svmetrics::{Measured, Metric, Variant};

/// Index of the Fortran DB in a set (after the four apps).
const FORTRAN: usize = 4;

/// The Fig. 7/8 heatmap rows.
const ROWS: [(Metric, Variant); 16] = [
    (Metric::Sloc, Variant::PLAIN),
    (Metric::Sloc, Variant::PP),
    (Metric::Sloc, Variant::COVERAGE),
    (Metric::Lloc, Variant::PLAIN),
    (Metric::Lloc, Variant::PP),
    (Metric::Source, Variant::PLAIN),
    (Metric::Source, Variant::PP),
    (Metric::Source, Variant::COVERAGE),
    (Metric::TSrc, Variant::PLAIN),
    (Metric::TSrc, Variant::PP),
    (Metric::TSrc, Variant::COVERAGE),
    (Metric::TSem, Variant::PLAIN),
    (Metric::TSem, Variant::INLINED),
    (Metric::TSem, Variant::COVERAGE),
    (Metric::TIr, Variant::PLAIN),
    (Metric::TIr, Variant::COVERAGE),
];

/// The Fig. 5/6 dendrogram metrics.
const SIX: [Metric; 6] =
    [Metric::Lloc, Metric::Sloc, Metric::Source, Metric::TSrc, Metric::TSem, Metric::TIr];

/// One unit of the measured job.
#[derive(Clone, Copy)]
enum Item {
    /// Heatmap column: DB index, row.
    Column(usize, usize),
    /// Model matrix then its clustering: DB index, metric.
    Dendrogram(usize, Metric),
    /// Navigation chart of an app.
    Chart(usize),
}

fn items() -> Vec<Item> {
    let mut v = Vec::new();
    for db in [1, 3] {
        v.extend((0..ROWS.len()).map(|r| Item::Column(db, r)));
    }
    for db in [2, FORTRAN] {
        v.extend(SIX.iter().map(|&m| Item::Dendrogram(db, m)));
    }
    v.extend((0..App::ALL.len()).map(Item::Chart));
    v
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Column,
    Matrix,
    Cluster,
    Chart,
}

/// One timed call: its layer, latency and span-clock window.
struct Call {
    kind: Kind,
    item: Item,
    dur: f64,
    start_ns: u64,
    end_ns: u64,
}

struct Job {
    wall: f64,
    calls: Vec<Call>,
    /// Output digest per call key.
    digests: BTreeMap<String, String>,
}

fn row_name(r: usize) -> String {
    format!("{}{}", ROWS[r].0.name(), ROWS[r].1.label())
}

fn column_digest(col: &[(String, f64)]) -> String {
    col.iter().fold(Fnv::new(), |h, (l, d)| h.str(l).f64(*d)).hex()
}

fn matrix_digest(m: &DistanceMatrix) -> String {
    let h = m.labels().iter().fold(Fnv::new(), |h, l| h.str(l));
    m.condensed().iter().fold(h, |h, &(_, _, d)| h.f64(d)).hex()
}

fn str_digest(s: &str) -> String {
    Fnv::new().str(s).hex()
}

/// Run the job's calls in `order`.  With `oracle`, matrices come from the
/// sequential `divergence_matrix_seq` instead of the parallel production
/// path (everything else the job calls is sequential already).
fn run_job(dbs: &[CodebaseDb], order: &[Item], oracle: bool) -> Job {
    let mut calls = Vec::new();
    let mut outputs: Vec<(String, String)> = Vec::new();
    let mut record = |kind: Kind, item: Item, t0: u64, dur: f64| {
        calls.push(Call { kind, item, dur, start_ns: t0, end_ns: svtrace::now_ns() });
    };
    let (wall, ()) = timed(|| {
        for &item in order {
            match item {
                Item::Column(db, r) => {
                    let (metric, v) = ROWS[r];
                    let t0 = svtrace::now_ns();
                    let (dt, col) = timed(|| divergence_from(&dbs[db], metric, v, "Serial"));
                    let key = format!("column.{}.{}", dbs[db].name, row_name(r));
                    record(Kind::Column, item, t0, dt);
                    outputs.push((key, column_digest(&col.expect("heatmap column"))));
                }
                Item::Dendrogram(db, metric) => {
                    let t0 = svtrace::now_ns();
                    let (dt, m) = timed(|| {
                        if oracle {
                            let measured: Vec<Measured<'_>> = dbs[db]
                                .entries
                                .iter()
                                .map(|e| measured(e, Variant::PLAIN))
                                .collect();
                            svmetrics::divergence_matrix_seq(
                                metric,
                                Variant::PLAIN,
                                &dbs[db].labels(),
                                &measured,
                            )
                        } else {
                            model_matrix(&dbs[db], metric, Variant::PLAIN)
                        }
                    });
                    let key = format!("matrix.{}.{}", dbs[db].name, metric.name());
                    record(Kind::Matrix, item, t0, dt);
                    let t0 = svtrace::now_ns();
                    let (dt, d) = timed(|| svcluster::cluster_rows(&m));
                    let dkey = format!("dendrogram.{}.{}", dbs[db].name, metric.name());
                    record(Kind::Cluster, item, t0, dt);
                    outputs.push((key, matrix_digest(&m)));
                    outputs.push((dkey, str_digest(&d.render())));
                }
                Item::Chart(a) => {
                    let t0 = svtrace::now_ns();
                    let (dt, c) = timed(|| navigation_chart(App::ALL[a], &dbs[a]));
                    let key = format!("chart.{}", App::ALL[a].name());
                    record(Kind::Chart, item, t0, dt);
                    outputs.push((key, str_digest(&c.expect("navigation chart").render())));
                }
            }
        }
    });
    Job { wall, calls, digests: outputs.into_iter().collect() }
}

fn measured(e: &DbEntry, v: Variant) -> Measured<'_> {
    match (&e.coverage, v.coverage) {
        (Some(c), true) => Measured::of_with_coverage(&e.artifacts, c),
        _ => Measured::of(&e.artifacts),
    }
}

fn is_tree(m: Metric) -> bool {
    matches!(m, Metric::TSrc | Metric::TSem | Metric::TIr)
}

/// One TED the job asks `svdist` for: hash-equal pairs short-circuit,
/// the rest run the DP over `cells` cells.
#[derive(Clone, Copy)]
pub struct PairInfo {
    pub hash_equal: bool,
    pub cells: u64,
}

/// Predicted DP cells per tree pair, memoised on (size, hash) of both.
#[derive(Default)]
pub struct CellBook(HashMap<(usize, u64, usize, u64), PairInfo>);

impl CellBook {
    pub fn pair(&mut self, a: &SharedTree, b: &SharedTree) -> PairInfo {
        let key = (a.size(), a.structural_hash(), b.size(), b.structural_hash());
        *self.0.entry(key).or_insert_with(|| {
            if a.size() == b.size() && a.structural_hash() == b.structural_hash() {
                PairInfo { hash_equal: true, cells: 0 }
            } else {
                let cells = svdist::ted::dp_cell_estimate(a.tree(), b.tree(), Strategy::Auto);
                PairInfo { hash_equal: false, cells }
            }
        })
    }
}

fn trees(db: &CodebaseDb, metric: Metric, v: Variant) -> Vec<SharedTree> {
    db.entries.iter().map(|e| svmetrics::tree_of(&measured(e, v), metric, v)).collect()
}

/// The TED pairs one job item asks for, in the order a sequential caller
/// computes them (column and chart calls) or upper-triangle order
/// (matrices).
fn item_pairs(dbs: &[CodebaseDb], item: Item, book: &mut CellBook) -> Vec<PairInfo> {
    let column = |db: &CodebaseDb, metric, v, book: &mut CellBook| -> Vec<PairInfo> {
        if !is_tree(metric) {
            return Vec::new();
        }
        let t = trees(db, metric, v);
        let base = db.labels().iter().position(|l| l == "Serial").expect("Serial entry");
        t.iter().map(|x| book.pair(&t[base], x)).collect()
    };
    match item {
        Item::Column(db, r) => column(&dbs[db], ROWS[r].0, ROWS[r].1, book),
        Item::Chart(a) => {
            let mut v = column(&dbs[a], Metric::TSem, Variant::PLAIN, book);
            v.extend(column(&dbs[a], Metric::TSrc, Variant::PLAIN, book));
            v
        }
        Item::Dendrogram(db, metric) => {
            if !is_tree(metric) {
                return Vec::new();
            }
            let t = trees(&dbs[db], metric, Variant::PLAIN);
            DistanceMatrix::upper_pairs(t.len())
                .iter()
                .map(|&(i, j)| book.pair(&t[i], &t[j]))
                .collect()
        }
    }
}

/// Pairs, hash-equal pairs and DP cells of one whole job.
fn job_counts(dbs: &[CodebaseDb], book: &mut CellBook) -> (u64, u64, u64) {
    let (mut pairs, mut eq, mut cells) = (0, 0, 0);
    for item in items() {
        for p in item_pairs(dbs, item, book) {
            pairs += 1;
            eq += u64::from(p.hash_equal);
            cells += p.cells;
        }
    }
    (pairs, eq, cells)
}

fn index_digests(dbs: &[CodebaseDb]) -> Vec<(String, String)> {
    dbs.iter()
        .map(|db| (format!("paper_cold.index.{}", db.name), Fnv::new().bytes(&db.to_bytes()).hex()))
        .collect()
}

fn check_outputs(out: &mut Outcome, oracle: &BTreeMap<String, String>, job: &Job) {
    for (k, d) in &job.digests {
        out.checks.expect(oracle, &format!("paper_cold.{k}"), d);
    }
}

fn check_index(out: &mut Outcome, oracle: &BTreeMap<String, String>, dbs: &[CodebaseDb]) {
    for (k, d) in index_digests(dbs) {
        out.checks.expect(oracle, &k, &d);
    }
}

fn shuffled_items(seed: u64) -> Vec<Item> {
    let mut order = items();
    Rng(seed ^ 0x7061_7065_725f_636f).shuffle(&mut order);
    order
}

fn set_counts(out: &mut Outcome, oracle: &BTreeMap<String, String>, dbs: &[CodebaseDb]) {
    let mut book = CellBook::default();
    let (pairs, eq, cells) = job_counts(dbs, &mut book);
    for (name, v) in
        [("svdist.pairs", pairs), ("svdist.pairs_hash_equal", eq), ("svdist.dp_cells", cells)]
    {
        out.stored_count(oracle, &format!("paper_cold.count.{name}"), name, v);
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let oracle = expected();
    let order = shuffled_items(opts.seed);
    let index = || index_parallel(&App::ALL, true, true);
    if opts.trace {
        return run_traced(&order, &oracle);
    }
    // Each job runs on a corpus indexed just before it (one set-up
    // sample per job), so every artefact memo starts cold.
    let (mut setups, mut jobs) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<CodebaseDb>, Job)> = None;
    while jobs.len() < 3 || (jobs.iter().sum::<f64>() < opts.seconds && jobs.len() < 10) {
        let (dt, dbs) = timed(index);
        setups.push(dt);
        let job = run_job(&dbs, &order, false);
        jobs.push(job.wall);
        match &first {
            None => {
                out.set("peak_rss_mb", crate::common::peak_rss_mb());
                first = Some((dbs, job));
            }
            Some((_, j0)) => out.checks.check(j0.digests == job.digests, || {
                "a repeated job produced different outputs".to_string()
            }),
        }
    }
    let (dbs, job) = first.expect("at least one job");
    check_index(&mut out, &oracle, &dbs);
    check_outputs(&mut out, &oracle, &job);
    set_counts(&mut out, &oracle, &dbs);
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&jobs));
    out.note(format!(
        "jobs: {} x {} calls, each on a fresh cold index of 4 apps + Fortran (set-up)",
        jobs.len(),
        job.calls.len()
    ));
    out.request_metrics(&jobs, jobs.iter().sum(), "jobs (the whole figure set is one request)");
    out
}

/// Traced run: the set-up call by call (frontend layers), then the
/// parallel set-up and an untraced job, the job with spans on
/// (distance, matrix, clustering and charting layers), and a second
/// untraced job.  The two untraced jobs bracket the traced one for
/// `svtrace.overhead_frac`.
fn run_traced(order: &[Item], oracle: &BTreeMap<String, String>) -> Outcome {
    let mut out = Outcome::default();
    // Frontend layers, call by call; this corpus is only checked, since
    // its sequential allocation order would give the jobs below a
    // different memory layout from the production parallel index.
    let (dbs_seq, fe): (Vec<CodebaseDb>, Frontend) = index_timed(&App::ALL, true, true);
    check_index(&mut out, oracle, &dbs_seq);
    drop(dbs_seq);
    let untraced = |out: &mut Outcome| {
        let (index_wall, dbs) = timed(|| index_parallel(&App::ALL, true, true));
        let job = run_job(&dbs, order, false);
        check_index(out, oracle, &dbs);
        check_outputs(out, oracle, &job);
        (index_wall, job.wall)
    };
    let (index_wall, before) = untraced(&mut out);
    fe.report(index_wall, &mut out);
    let dbs = index_parallel(&App::ALL, true, true);
    svtrace::reset_spans();
    svtrace::set_enabled(true);
    let job = run_job(&dbs, order, false);
    svtrace::set_enabled(false);
    let spans = svtrace::take_spans();
    let (_, after) = untraced(&mut out);

    check_index(&mut out, oracle, &dbs);
    check_outputs(&mut out, oracle, &job);
    set_counts(&mut out, oracle, &dbs);

    let sum = |k: Kind| job.calls.iter().filter(|c| c.kind == k).map(|c| c.dur).sum::<f64>();
    out.set("svmetrics.column_s", sum(Kind::Column));
    out.set("svmetrics.matrix_s", sum(Kind::Matrix));
    out.set("svcluster.hac_s", sum(Kind::Cluster));
    out.set("silvervale.chart_s", sum(Kind::Chart));
    let leaves: usize = job
        .calls
        .iter()
        .filter(|c| c.kind == Kind::Cluster)
        .map(|c| match c.item {
            Item::Dendrogram(db, _) => dbs[db].entries.len(),
            _ => 0,
        })
        .sum();
    out.set("svcluster.leaves", leaves as f64);
    // Φ for every chart point, timed by the benchmark.
    let (phi_s, _) = timed(|| {
        for app in App::ALL {
            for model in svcorpus::Model::ALL {
                std::hint::black_box(svperf::phi_all(app, model));
            }
        }
    });
    out.set("svperf.phi_s", phi_s);

    let unattributed_ted = distance_layer(&mut out, &dbs, &job, &spans);
    let attributed: f64 = job.calls.iter().map(|c| c.dur).sum::<f64>() - unattributed_ted;
    out.set("bench.unattributed_frac", 1.0 - attributed / job.wall);
    out.set("svtrace.overhead_frac", 2.0 * job.wall / (before + after) - 1.0);
    out.note(format!(
        "traced job {:.3} s between untraced {before:.3} s and {after:.3} s; {} spans collected",
        job.wall,
        spans.len()
    ));
    out
}

/// Pairs at or above this many DP cells count as large.
pub const LARGE_CELLS: u64 = 30_000_000;

/// What the `ted.compute` span of each column or chart pair names: the
/// target unit and the metric, in `item_pairs` order.
fn span_keys(dbs: &[CodebaseDb], item: Item) -> Vec<(String, String)> {
    let column = |db: &CodebaseDb, metric: Metric| -> Vec<(String, String)> {
        if !is_tree(metric) {
            return Vec::new();
        }
        db.entries.iter().map(|e| (e.artifacts.name.clone(), metric.name().to_string())).collect()
    };
    match item {
        Item::Column(db, r) => column(&dbs[db], ROWS[r].0),
        Item::Chart(a) => {
            let mut v = column(&dbs[a], Metric::TSem);
            v.extend(column(&dbs[a], Metric::TSrc));
            v
        }
        Item::Dendrogram(..) => Vec::new(),
    }
}

/// Attribute the `ted.compute` spans of the traced job to the pairs each
/// call asked for, and split DP time and cells into small and large.
/// Column and chart spans are matched by the unit and metric they name,
/// matrix spans through their `matrix.pair` parents.  A span that no pair
/// claims, or a DP pair that no span claims, only weakens the attribution:
/// it is reported in a note, and the span's time is returned as
/// unattributed seconds (at most the call's own time).
fn distance_layer(
    out: &mut Outcome,
    dbs: &[CodebaseDb],
    job: &Job,
    spans: &[svtrace::SpanRecord],
) -> f64 {
    let mut book = CellBook::default();
    let teds: Vec<&svtrace::SpanRecord> =
        spans.iter().filter(|s| s.name == "ted.compute").collect();
    let pair_spans: Vec<&svtrace::SpanRecord> =
        spans.iter().filter(|s| s.name == "matrix.pair").collect();
    let (mut t_small, mut t_large, mut c_small, mut c_large) = (0.0, 0.0, 0u64, 0u64);
    let (mut pair_busy, mut matrix_wall) = (0.0, 0.0);
    let (mut unclaimed_spans, mut unmatched_pairs, mut unattributed) = (0, 0, 0.0);
    for call in job.calls.iter().filter(|c| c.kind != Kind::Cluster) {
        let inside =
            |s: &&&svtrace::SpanRecord| s.start_ns >= call.start_ns && s.end_ns <= call.end_ns;
        let mut mine: Vec<&svtrace::SpanRecord> = teds.iter().filter(inside).copied().collect();
        mine.sort_by_key(|s| s.start_ns);
        let infos = item_pairs(dbs, call.item, &mut book);
        let mut used = vec![false; infos.len()];
        // The pair each span belongs to, if any.
        let claims: Vec<Option<usize>> = if let Item::Dendrogram(db, _) = call.item {
            let pairs = DistanceMatrix::upper_pairs(dbs[db].entries.len());
            let cell_spans: Vec<&svtrace::SpanRecord> =
                pair_spans.iter().filter(inside).copied().collect();
            pair_busy += cell_spans.iter().map(|s| s.dur_ns() as f64 * 1e-9).sum::<f64>();
            matrix_wall += call.dur;
            mine.iter()
                .map(|t| {
                    let parent = cell_spans.iter().find(|p| {
                        p.tid == t.tid && p.start_ns <= t.start_ns && p.end_ns >= t.end_ns
                    })?;
                    let (i, j) = parse_ij(&parent.detail)?;
                    pairs.iter().position(|&p| p == (i, j))
                })
                .collect()
        } else {
            let keys = span_keys(dbs, call.item);
            let mut taken = vec![false; keys.len()];
            mine.iter()
                .map(|t| {
                    let (unit, metric) = t.detail.strip_prefix("unit=")?.rsplit_once(" metric=")?;
                    let k = (0..keys.len())
                        .find(|&k| !taken[k] && keys[k].0 == unit && keys[k].1 == metric)?;
                    taken[k] = true;
                    Some(k)
                })
                .collect()
        };
        let mut lost = 0.0;
        for (t, claim) in mine.iter().zip(claims) {
            let dt = t.dur_ns() as f64 * 1e-9;
            let Some(k) = claim.filter(|&k| !used[k]) else {
                unclaimed_spans += 1;
                lost += dt;
                continue;
            };
            used[k] = true;
            let p = infos[k];
            if p.hash_equal {
                continue;
            }
            if p.cells >= LARGE_CELLS {
                t_large += dt;
                c_large += p.cells;
            } else {
                t_small += dt;
                c_small += p.cells;
            }
        }
        unmatched_pairs += infos.iter().zip(&used).filter(|(p, &u)| !u && !p.hash_equal).count();
        unattributed += f64::min(lost, call.dur);
    }
    out.set("svdist.ted_s.small", t_small);
    out.set("svdist.ted_s.large", t_large);
    out.set("svdist.cells_per_s.small", c_small as f64 / t_small);
    out.set("svdist.cells_per_s.large", c_large as f64 / t_large);
    out.set("svmetrics.parallel_eff", pair_busy / (matrix_wall * crate::common::nproc()));
    out.note(format!(
        "svdist: {c_small} cells in small pairs, {c_large} in large (>= {LARGE_CELLS} cells); \
         {unmatched_pairs} DP pairs without a ted.compute span, {unclaimed_spans} spans \
         without a pair ({unattributed:.3} s unattributed)"
    ));
    unattributed
}

fn parse_ij(detail: &str) -> Option<(usize, usize)> {
    let mut i = None;
    let mut j = None;
    for kv in detail.split_whitespace() {
        match kv.split_once('=') {
            Some(("i", v)) => i = v.parse().ok(),
            Some(("j", v)) => j = v.parse().ok(),
            _ => {}
        }
    }
    Some((i?, j?))
}

/// Oracle digests: the corpus indexed by `index_app_seq`, every output of
/// the job with matrices from `divergence_matrix_seq`, and the job's
/// counts.
pub fn expected_lines() -> Vec<String> {
    let mut dbs: Vec<CodebaseDb> = App::ALL
        .iter()
        .map(|&a| silvervale::index_app_seq(a, true).expect("index_app_seq"))
        .collect();
    dbs.push(silvervale::index_fortran().expect("index Fortran"));
    let mut lines: Vec<String> =
        index_digests(&dbs).into_iter().map(|(k, d)| format!("{k} {d}")).collect();
    let job = run_job(&dbs, &items(), true);
    lines.extend(job.digests.iter().map(|(k, d)| format!("paper_cold.{k} {d}")));
    let (pairs, eq, cells) = job_counts(&dbs, &mut CellBook::default());
    lines.push(format!("paper_cold.count.svdist.pairs {pairs}"));
    lines.push(format!("paper_cold.count.svdist.pairs_hash_equal {eq}"));
    lines.push(format!("paper_cold.count.svdist.dp_cells {cells}"));
    lines
}
