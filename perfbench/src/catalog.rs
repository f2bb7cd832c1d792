//! Every metric the benchmark reports.  Names and units come from
//! `BENCHMARK.json` (compiled in), the one list of them; this module adds
//! the workloads each metric applies to and, for per-layer metrics, the
//! end-to-end metric it should move.  [`load`] refuses a `BENCHMARK.json`
//! whose metric names differ from the ones listed here.
//!
//! Every run prints every metric of its mode (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`).  A per-layer metric on a workload outside
//! its `workloads` reads 0 and is marked "not exercised" in the report.

use silvervale::svjson::{self, Json};

/// A metric as the report prints it.
pub struct Spec {
    pub name: &'static str,
    pub unit: String,
    pub workloads: &'static str,
    /// End-to-end metric(s) a change in this per-layer metric should move.
    pub moves: &'static str,
}

/// A metric's workloads and what it should move, by name.
type Entry = (&'static str, &'static str, &'static str);

const fn s(name: &'static str, workloads: &'static str, moves: &'static str) -> Entry {
    (name, workloads, moves)
}

const ALL: &str = "all";
const PC: &str = "paper_cold";
const PC_LP_SM: &str = "paper_cold large_pairs serve_mixed";
const PC_LP: &str = "paper_cold large_pairs";
const PC_LP_AC: &str = "paper_cold large_pairs approx_corpus";
const PC_AC: &str = "paper_cold approx_corpus";
const AC: &str = "approx_corpus";
const SM: &str = "serve_mixed";

/// End-to-end metrics, measured with tracing off.  Timings are medians
/// over the run's repetitions.  A "request" is what a caller waits for:
/// a wire request on serve_mixed, the whole job (every figure; every cut
/// pair; the corpus clustering) on paper_cold, large_pairs and
/// approx_corpus.  `req_p99_ms` is the highest percentile with at least
/// ten samples beyond it (the maximum below twenty samples); the report
/// states which.  `peak_rss_mb` is the process high-water mark through
/// the first repetition (set-up included), before any check runs.
const END_TO_END: &[Entry] = &[
    s("setup_s", ALL, ""),
    s("wall_s", ALL, ""),
    s("req_per_s", ALL, ""),
    s("req_p50_ms", ALL, ""),
    s("req_p99_ms", ALL, ""),
    s("peak_rss_mb", ALL, ""),
];

const SETUP: &str = "setup_s";
const WALL: &str = "wall_s";
const SERVE: &str = "req_p50_ms req_p99_ms req_per_s";

/// Per-layer metrics, from the traced run.
const PER_LAYER: &[Entry] = &[
    // frontend: svlang, svir, svexec, svtree via svmetrics::Artifacts
    s("svlang.compile_s", PC_LP_SM, SETUP),
    s("svlang.nodes_per_s", PC_LP_SM, SETUP),
    s("svlang.preprocess_s", PC_LP_SM, SETUP),
    s("svlang.lex_s", PC_LP_SM, SETUP),
    s("svlang.normalise_s", PC_LP_SM, SETUP),
    s("svlang.parse_s", PC_LP_SM, SETUP),
    s("svlang.lower_s", PC_LP_SM, SETUP),
    s("svlang.inline_s", PC_LP_SM, SETUP),
    s("svexec.run_s", "paper_cold serve_mixed", SETUP),
    s("svmetrics.artifacts_s", PC_LP_SM, SETUP),
    s("svpar.index_eff", PC_LP_SM, SETUP),
    // distance: svdist
    s("svdist.pairs", PC_LP_AC, WALL),
    s("svdist.pairs_hash_equal", PC_LP_AC, WALL),
    s("svdist.dp_cells", PC_LP_AC, WALL),
    s("svdist.ted_s.small", PC_AC, WALL),
    s("svdist.ted_s.large", PC_LP, WALL),
    s("svdist.cells_per_s.small", PC_AC, WALL),
    s("svdist.cells_per_s.large", PC_LP, WALL),
    s("svdist.lb_s", AC, WALL),
    s("svdist.approx.bucketed", AC, WALL),
    s("svdist.approx.lb_pruned", AC, WALL),
    s("svdist.approx.cutoff", AC, WALL),
    s("svdist.approx.exact_solves", AC, WALL),
    s("svdist.approx.prefilter_frac", AC, WALL),
    // matrix scheduling: svmetrics, svpar
    s("svmetrics.matrix_s", PC_AC, WALL),
    s("svmetrics.column_s", PC, WALL),
    s("svmetrics.parallel_eff", PC, WALL),
    // clustering: svcluster
    s("svcluster.hac_s", PC_AC, WALL),
    s("svcluster.leaves", PC_AC, WALL),
    // charting: svperf, silvervale::pipeline
    s("silvervale.chart_s", PC, WALL),
    s("svperf.phi_s", PC, WALL),
    // serving: svserve, silvervale::serve, svport
    s("svserve.compare.p50_ms", SM, SERVE),
    s("svserve.compare.p99_ms", SM, SERVE),
    s("svserve.matrix.p50_ms", SM, SERVE),
    s("svserve.matrix.p99_ms", SM, SERVE),
    s("svserve.cluster.p50_ms", SM, SERVE),
    s("svserve.cluster.p99_ms", SM, SERVE),
    s("svserve.chart.p50_ms", SM, SERVE),
    s("svserve.chart.p99_ms", SM, SERVE),
    s("svserve.tree.p50_ms", SM, SERVE),
    s("svserve.tree.p99_ms", SM, SERVE),
    s("svserve.inventory.p50_ms", SM, SERVE),
    s("svserve.inventory.p99_ms", SM, SERVE),
    s("svserve.index.p50_ms", SM, SERVE),
    s("svserve.index.p99_ms", SM, SERVE),
    s("svserve.evaluate.p50_ms", SM, SERVE),
    s("svserve.evaluate.p99_ms", SM, SERVE),
    s("svserve.queue_wait_p50_us", SM, SERVE),
    s("svserve.queue_wait_p99_us", SM, SERVE),
    s("svserve.overhead_ms", SM, "req_p50_ms"),
    s("svserve.cache_hit_frac", SM, SERVE),
    s("svserve.pair_computes", SM, SERVE),
    s("svserve.store_hit_frac", SM, SERVE),
    s("svserve.jobs_shed", SM, SERVE),
    s("svport.cand_builds", SM, SERVE),
    s("svport.cand_memo_hits", SM, SERVE),
    // the instrument itself
    s("svtrace.overhead_frac", ALL, "none (checks the instrument)"),
    s("bench.unattributed_frac", ALL, "none (checks the instrument)"),
    s("failed_frac", ALL, "none (correctness; also in attempted/failed)"),
];

/// The end-to-end and the per-layer metrics, with their units from
/// `BENCHMARK.json`.
pub fn load() -> (Vec<Spec>, Vec<Spec>) {
    let doc = svjson::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    (specs(&doc, "end_to_end", END_TO_END), specs(&doc, "per_layer", PER_LAYER))
}

fn specs(doc: &Json, key: &str, entries: &[Entry]) -> Vec<Spec> {
    let listed: Vec<(&str, &str)> = doc
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let names: Vec<&str> = listed.iter().map(|&(n, _)| n).collect();
    let known: Vec<&str> = entries.iter().map(|e| e.0).collect();
    assert!(
        names == known,
        "BENCHMARK.json {key} lists {names:?}, the benchmark reports {known:?}"
    );
    entries
        .iter()
        .zip(&listed)
        .map(|(&(name, workloads, moves), &(_, unit))| Spec {
            name,
            unit: unit.to_string(),
            workloads,
            moves,
        })
        .collect()
}

pub fn applies(spec: &Spec, workload: &str) -> bool {
    spec.workloads == ALL || spec.workloads.split(' ').any(|w| w == workload)
}
