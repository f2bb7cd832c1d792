//! `serve_mixed`: a closed loop of one client connection on the binary
//! wire against one in-process server with two workers.
//!
//! Every round starts a fresh server and indexes the four apps with
//! coverage over the wire (set-up).  The reads are not a chosen mix: they
//! are the request set of the paper's figure generators in
//! `crates/bench/benches/`, each artefact requested from the service
//! instead of computed in process, in figure order:
//!
//! - Table II (`table2_corpus`): `inventory` of every app, and `tree`
//!   under T_src, T_sem and T_ir for every BabelStream model (the
//!   per-model tree sizes);
//! - Fig. 4 (`fig04_tealeaf_tsem_cluster`): TeaLeaf `matrix` and
//!   `cluster` under T_sem;
//! - Fig. 5 (`fig05_tealeaf_dendrograms`): TeaLeaf `cluster` under the six
//!   metrics;
//! - Figs. 7–8 (`fig07_minibude_heatmap`, `fig08_cloverleaf_heatmap`):
//!   miniBUDE and CloverLeaf `compare` from Serial over the 16 heatmap
//!   rows, less T_src+pp (one such pair runs for minutes; `large_pairs`
//!   covers it);
//! - Figs. 9–10 (`fig09_fig10_migration`): TeaLeaf `compare` from Serial
//!   and from CUDA under Source, T_src, T_sem and T_ir;
//! - Figs. 13–14 (`fig13_fig14_navigation`): CloverLeaf and TeaLeaf
//!   `chart`.
//!
//! Fig. 6 is left out: set-up indexes the C++ apps only.  The client first
//! sends the figure requests in that order (the cold phase: first touches
//! pay the TED-cache misses).  It then re-opens figures: eight passes'
//! worth of repeats drawn Zipf(1) over the distinct requests of each app
//! pair (BabelStream with TeaLeaf, miniBUDE with CloverLeaf), each pair
//! ranked by its own fixed shuffle, mixed with the writes the CLI sends
//! (`client index` under a new name, and a small `evaluate --addr`
//! fan-out) in an order shuffled anew from the seed in every round.  The
//! exponent is the plain Zipf law and the ranking is not chosen per
//! method; the repeat count only makes lookups most of the requests.
//!
//! The median is a cache hit of a tenth of a millisecond, most of it
//! hand-offs between the client, reactor and worker threads, so it is
//! measured with as few threads as possible wanting the two cores:
//!
//! - One connection.  With two closed loops, the five client, reactor and
//!   worker threads contended for two cores, and a round's median moved by
//!   up to ±20% with how the two loops' long requests happened to line
//!   up; with one, by up to ±10%.  Over ten seeds the middle half of
//!   `req_p50_ms` spread 18% of its median with two connections; over
//!   five seeds in the same hour, 9% with one.
//! - [`KeepAwake`] keeps both cores out of the idle state while the client
//!   runs, so that a hand-off does not pay the virtual machine's wake-up,
//!   which follows the load of other tenants of the host.  With two
//!   connections, five seeds on a 2-vCPU host gave `req_p50_ms`
//!   0.175–0.223 ms without it and 0.141–0.150 ms with it, in the same
//!   hour.
//! - The repeat order changes every round, so that a run's median does not
//!   rest on one ordering.
//!
//! The server still has two workers: `matrix` and `cluster` misses spread
//! their pair computations over both cores.

use crate::common::{median, nproc, quantile, tail, timed, KeepAwake, Rng};
use crate::frontend::{index_parallel, index_timed};
use crate::{Opts, Outcome};
use silvervale::serve::{parse_metric, AnalysisService};
use silvervale::svjson::Json;
use silvervale::{divergence_from, model_matrix, navigation_chart, pipeline, CodebaseDb};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use svcorpus::{App, Model};
use svmetrics::{divergence, Measured, Metric, Variant};
use svserve::{serve_with, ArtifactStore, Client, Router, ServeConfig};

/// The app pairs whose figures are ranked by popularity separately.
const APP_GROUPS: [[App; 2]; 2] =
    [[App::BabelStream, App::TeaLeaf], [App::MiniBude, App::CloverLeaf]];
/// The Fig. 7/8 heatmap rows, as wire metric and variant.
const HEATMAP_ROWS: [(&str, &str); 16] = [
    ("sloc", "plain"),
    ("sloc", "pp"),
    ("sloc", "cov"),
    ("lloc", "plain"),
    ("lloc", "pp"),
    ("source", "plain"),
    ("source", "pp"),
    ("source", "cov"),
    ("t_src", "plain"),
    ("t_src", "pp"),
    ("t_src", "cov"),
    ("t_sem", "plain"),
    ("t_sem", "inline"),
    ("t_sem", "cov"),
    ("t_ir", "plain"),
    ("t_ir", "cov"),
];
const SIX: [&str; 6] = ["lloc", "sloc", "source", "t_src", "t_sem", "t_ir"];
/// Repeats per app pair and round, in passes over its distinct requests:
/// enough that lookups are nine in ten requests, so the median is a
/// lookup and the tail the cold misses.
const REPEAT_PASSES: f64 = 8.0;
const EVAL_CANDIDATES: usize = 4;
const EVAL_SEED: u64 = 11;
/// TED-cache budget: large enough that nothing is evicted.
const CACHE_BYTES: usize = 256 << 20;

#[derive(Clone)]
struct Req {
    key: String,
    method: &'static str,
    params: Json,
}

fn req(method: &'static str, fields: Vec<(&str, Json)>) -> Req {
    let params = Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    let key = format!("{method} {}", params.to_string_compact());
    Req { key, method, params }
}

fn variant_fields(v: &str) -> Vec<(&'static str, Json)> {
    match v {
        "cov" => vec![("cov", Json::Bool(true))],
        "inline" => vec![("inline", Json::Bool(true))],
        "pp" => vec![("pp", Json::Bool(true))],
        _ => Vec::new(),
    }
}

fn db(app: App) -> (&'static str, Json) {
    ("db", Json::str(app.name()))
}

fn compare(app: App, from: &str, metric: &str, v: &str) -> Req {
    let mut f = vec![db(app), ("metric", Json::str(metric)), ("from", Json::str(from))];
    f.extend(variant_fields(v));
    req("compare", f)
}

/// The figure generators' requests, in figure order, each with its app.
fn figure_requests() -> Vec<(App, Req)> {
    let mut out = Vec::new();
    // Table II
    for app in App::ALL {
        out.push((app, req("inventory", vec![db(app)])));
    }
    let bs = App::BabelStream;
    for model in Model::ALL {
        for m in ["t_src", "t_sem", "t_ir"] {
            let f = vec![db(bs), ("label", Json::str(model.name())), ("metric", Json::str(m))];
            out.push((bs, req("tree", f)));
        }
    }
    // Figs. 4 and 5
    let tl = App::TeaLeaf;
    out.push((tl, req("matrix", vec![db(tl), ("metric", Json::str("t_sem"))])));
    out.push((tl, req("cluster", vec![db(tl), ("metric", Json::str("t_sem"))])));
    for m in SIX {
        out.push((tl, req("cluster", vec![db(tl), ("metric", Json::str(m))])));
    }
    // Figs. 7 and 8
    for app in [App::MiniBude, App::CloverLeaf] {
        for (m, v) in HEATMAP_ROWS {
            if (m, v) != ("t_src", "pp") {
                out.push((app, compare(app, "Serial", m, v)));
            }
        }
    }
    // Figs. 9 and 10
    for from in ["Serial", "CUDA"] {
        for m in ["source", "t_src", "t_sem", "t_ir"] {
            out.push((tl, compare(tl, from, m, "plain")));
        }
    }
    // Figs. 13 and 14
    for app in [App::CloverLeaf, App::TeaLeaf] {
        out.push((app, req("chart", vec![db(app), ("app", Json::str(app.name()))])));
    }
    out
}

/// What the client sends in a round: the figure requests in figure
/// order (the same requests pay the cache misses under every seed), then
/// the Zipf repeats and the writes in an order shuffled by seed and round.
struct Plan {
    cold: Vec<Req>,
    warm: Vec<Req>,
}

fn plan(seed: u64, round: usize) -> Plan {
    let figures = figure_requests();
    let mut warm = Vec::new();
    for (g, apps) in APP_GROUPS.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        let mut ranked: Vec<Req> = figures
            .iter()
            .filter(|(app, r)| apps.contains(app) && seen.insert(r.key.clone()))
            .map(|(_, r)| r.clone())
            .collect();
        // The popularity ranking is the same for every seed, so every
        // seed does the same work; the seed only orders it.
        Rng(0x7365_7276_655f_6d78 + g as u64).shuffle(&mut ranked);
        let n = ranked.len();
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let draws = REPEAT_PASSES * n as f64;
        for (r, q) in ranked.into_iter().enumerate() {
            let k = (draws / ((r + 1) as f64 * harmonic)).round() as usize;
            warm.extend(std::iter::repeat_n(q, k));
        }
        let app = apps[0].name();
        warm.push(req(
            "index",
            vec![("app", Json::str(app)), ("name", Json::str(format!("{app}-copy")))],
        ));
        warm.push(req(
            "evaluate",
            vec![
                ("db", Json::str(app)),
                ("app", Json::str(app)),
                ("candidates", Json::Num(EVAL_CANDIDATES as f64)),
                ("seed", Json::Num(EVAL_SEED as f64)),
            ],
        ));
    }
    Rng(seed ^ 0x636c_6965_6e74 ^ ((round as u64) << 40)).shuffle(&mut warm);
    let cold = figures.into_iter().map(|(_, r)| r).collect();
    Plan { cold, warm }
}

/// A reply as the client saw it: the JSON result plus any blob payloads.
type Reply = Result<(Json, Vec<Vec<u8>>), String>;

struct Sample {
    method: &'static str,
    key: String,
    secs: f64,
    reply: Reply,
}

struct Round {
    setup: f64,
    wall: f64,
    samples: Vec<Sample>,
    counters: BTreeMap<String, f64>,
    queue_wait_us: (f64, f64),
    store_appends_in_phase: f64,
    awake: usize,
}

fn counters(m: &Json) -> BTreeMap<String, f64> {
    match m.get("counters") {
        Some(Json::Object(c)) => {
            c.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
        }
        _ => BTreeMap::new(),
    }
}

fn hist_q(m: &Json, name: &str, q: &str) -> f64 {
    m.get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(q))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// One round: fresh server, set-up over the wire, the client's sequence
/// with the cores kept awake.  The server's artifact store lives under
/// `.perfbench/` and is removed afterwards.
fn round(plan: &Plan, n: usize, traced: bool) -> Round {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir).expect("create .perfbench");
    let store_path = dir.join(format!("store-{}-{n}.svas", std::process::id()));
    let store = ArtifactStore::open(&store_path).expect("open artifact store");
    let service = AnalysisService::with_store(CACHE_BYTES, Some(std::sync::Arc::new(store)));
    let mut router = Router::new();
    service.register_on(&mut router);
    let t0 = Instant::now();
    let handle =
        serve_with("127.0.0.1:0", router, ServeConfig { workers: 2, ..ServeConfig::default() })
            .expect("start server");
    let mut admin = Client::connect_negotiated(handle.addr()).expect("connect");
    for app in App::ALL {
        admin
            .call(
                "index",
                Json::obj([("app", Json::str(app.name())), ("coverage", Json::Bool(true))]),
            )
            .expect("index over the wire");
    }
    let setup = t0.elapsed().as_secs_f64();
    let before = counters(&admin.call("metrics", Json::Null).expect("metrics"));

    let addr = handle.addr();
    svtrace::reset_spans();
    svtrace::set_enabled(traced);
    let awake = KeepAwake::start();
    let t1 = Instant::now();
    let mut c = Client::connect_negotiated(addr).expect("connect");
    let samples: Vec<Sample> = plan
        .cold
        .iter()
        .chain(&plan.warm)
        .map(|r| {
            let t = Instant::now();
            let reply = c
                .call_blob(r.method, r.params.clone())
                .map_err(|e| format!("{}: {}", e.code, e.message));
            Sample { method: r.method, key: r.key.clone(), secs: t.elapsed().as_secs_f64(), reply }
        })
        .collect();
    let wall = t1.elapsed().as_secs_f64();
    let awake = awake.stop();
    svtrace::set_enabled(false);
    svtrace::reset_spans();

    let metrics = admin.call("metrics", Json::Null).expect("metrics");
    let after = counters(&metrics);
    let appends = |c: &BTreeMap<String, f64>| c.get("store.appends").copied().unwrap_or(0.0);
    let queue_wait_us = (
        hist_q(&metrics, "pool.queue_wait_us", "p50"),
        hist_q(&metrics, "pool.queue_wait_us", "p99"),
    );
    drop((c, admin));
    handle.shutdown();
    drop(service);
    let _ = std::fs::remove_file(&store_path);
    Round {
        setup,
        wall,
        samples,
        store_appends_in_phase: appends(&after) - appends(&before),
        counters: after,
        queue_wait_us,
        awake,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    loop {
        let enough = if opts.trace {
            rounds.len() == 3
        } else {
            // At least three rounds, so that the tail percentile has the
            // cold misses of several rounds beyond it.
            rounds.len() >= 3
                && rounds.iter().map(|r: &Round| r.setup + r.wall).sum::<f64>() >= opts.seconds
                || rounds.len() >= 20
        };
        if enough {
            break;
        }
        let n = rounds.len();
        rounds.push(round(&plan(opts.seed, n), n, opts.trace && n == 1));
        if rounds.len() == 1 {
            out.set("peak_rss_mb", crate::common::peak_rss_mb());
        }
    }

    // Correctness: every reply succeeds, repeats of a key answer
    // identically across rounds, and each key's reply equals the
    // in-process pipeline's on the same DBs.
    let mut first: HashMap<String, &Sample> = HashMap::new();
    for s in rounds.iter().flat_map(|r| &r.samples) {
        out.checks.check(s.reply.is_ok(), || format!("{}: {:?}", s.key, s.reply.as_ref().err()));
        match first.get(&s.key) {
            None => {
                first.insert(s.key.clone(), s);
            }
            Some(f) => out
                .checks
                .check(f.reply == s.reply, || format!("{}: replies differ between repeats", s.key)),
        }
    }
    let (dbs, fe) = if opts.trace {
        let (dbs, fe) = index_timed(&App::ALL, true, false);
        (dbs, Some(fe))
    } else {
        (index_parallel(&App::ALL, true, false), None)
    };
    let oracle = Oracle::new(&dbs);
    let mut keys: Vec<&String> = first.keys().collect();
    keys.sort();
    for k in keys {
        let s = first[k];
        let want = oracle.reply(s.method, k);
        out.checks.check(s.reply.as_ref().ok() == Some(&want), || {
            format!("{k}: served reply differs from the in-process pipeline")
        });
    }

    // Counts that must repeat: identical in every round.
    let count = |r: &Round, k: &str| r.counters.get(k).copied().unwrap_or(0.0) as u64;
    let computes: Vec<u64> = rounds.iter().map(|r| count(r, "service.pair_computes")).collect();
    out.checks.check(computes.windows(2).all(|w| w[0] == w[1]), || {
        format!("pair computes differ across rounds: {computes:?}")
    });
    out.count("svserve.pair_computes", computes[0]);
    let n_req = rounds[0].samples.len();
    out.note(format!("rounds: {} x {n_req} requests over 1 connection, 2 workers", rounds.len()));
    let awake: Vec<usize> = rounds.iter().map(|r| r.awake).collect();
    out.note(format!("cores kept awake per round: {awake:?} of {}", nproc()));

    let lat: Vec<f64> = rounds.iter().flat_map(|r| r.samples.iter().map(|s| s.secs)).collect();
    let quartiles: Vec<String> = [0.25, 0.4, 0.5, 0.6, 0.75]
        .iter()
        .map(|&q| format!("{:.3}", quantile(&lat, q) * 1e3))
        .collect();
    let round_p50: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!("{:.3}", median(&r.samples.iter().map(|s| s.secs * 1e3).collect::<Vec<_>>()))
        })
        .collect();
    out.note(format!(
        "latency ms at p25/p40/p50/p60/p75: {}; p50 per round: {}",
        quartiles.join(" "),
        round_p50.join(" ")
    ));
    let mut per_method: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for s in &rounds[0].samples {
        let e = per_method.entry(s.method).or_default();
        e.0 += 1;
        e.1 += s.secs;
    }
    out.note(format!(
        "round 1 by method (requests, seconds): {}",
        per_method
            .iter()
            .map(|(m, (n, t))| format!("{m} {n} {t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if let Some(fe) = fe {
        fe.report(rounds[0].setup, &mut out);
        let (plain, traced) = (&rounds[0], &rounds[1]);
        serving_layer(&mut out, &rounds, &oracle, plain);
        let plain_wall = (rounds[0].wall + rounds[2].wall) / 2.0;
        out.set("svtrace.overhead_frac", traced.wall / plain_wall - 1.0);
        let busy: f64 = traced.samples.iter().map(|s| s.secs).sum();
        out.set("bench.unattributed_frac", 1.0 - busy / traced.wall);
        return out;
    }
    let mut slow: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    slow.sort_by(|a, b| b.secs.total_cmp(&a.secs));
    let mid = &slow[slow.len() * 2 / 5..slow.len() * 3 / 5];
    let mut at_mid: BTreeMap<&str, usize> = BTreeMap::new();
    for s in mid {
        *at_mid.entry(s.method).or_default() += 1;
    }
    let at_mid: Vec<String> = at_mid.iter().map(|(m, n)| format!("{m} {n}")).collect();
    out.note(format!("requests between p40 and p60 by method: {}", at_mid.join(", ")));
    out.note(format!(
        "slowest 12 requests: {}",
        slow.iter()
            .take(12)
            .map(|s| format!("{:.0}ms {}", s.secs * 1e3, s.key))
            .collect::<Vec<_>>()
            .join(" | ")
    ));
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.request_metrics(&lat, walls.iter().sum(), "wire requests");
    out
}

/// Per-method client latencies and the server's own counters.
fn serving_layer(out: &mut Outcome, rounds: &[Round], oracle: &Oracle<'_>, plain: &Round) {
    let mut by_method: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in rounds.iter().flat_map(|r| &r.samples) {
        by_method.entry(s.method).or_default().push(s.secs * 1e3);
    }
    for (m, v) in &by_method {
        out.set(&format!("svserve.{m}.p50_ms"), median(v));
        out.set(&format!("svserve.{m}.p99_ms"), tail(v).0);
        out.note(format!("svserve.{m}: {} samples, tail at p{:.1}", v.len(), tail(v).1));
    }
    out.set("svserve.queue_wait_p50_us", plain.queue_wait_us.0);
    out.set("svserve.queue_wait_p99_us", plain.queue_wait_us.1);
    // Wire + queue + dispatch cost: inventory is pure rendering, so its
    // client latency minus the same rendering in process is overhead.
    let inv = &by_method.get("inventory").cloned().unwrap_or_default();
    let local: Vec<f64> = (0..48)
        .map(|i| timed(|| pipeline::inventory(&oracle.dbs[i % oracle.dbs.len()])).0 * 1e3)
        .collect();
    if !inv.is_empty() {
        out.set("svserve.overhead_ms", median(inv) - median(&local));
    }
    let c = |k: &str| plain.counters.get(k).copied().unwrap_or(0.0);
    out.set(
        "svserve.cache_hit_frac",
        c("cache.hits") / (c("cache.hits") + c("cache.misses")).max(1.0),
    );
    let trees = plain.samples.iter().filter(|s| s.method == "tree").count() as f64;
    out.set("svserve.store_hit_frac", 1.0 - plain.store_appends_in_phase / trees.max(1.0));
    out.set("svserve.jobs_shed", c("pool.shed"));
    out.set("svport.cand_builds", c("service.cand_builds"));
    out.set("svport.cand_memo_hits", c("service.cand_memo_hits"));
}

/// In-process answers for every served request, on DBs indexed in this
/// process; matrices are computed once per (db, metric, variant).
struct Oracle<'a> {
    dbs: &'a [CodebaseDb],
    matrices: std::cell::RefCell<HashMap<String, svdist::DistanceMatrix>>,
}

impl<'a> Oracle<'a> {
    fn new(dbs: &'a [CodebaseDb]) -> Oracle<'a> {
        Oracle { dbs, matrices: Default::default() }
    }

    fn db(&self, name: &str) -> &CodebaseDb {
        self.dbs.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("db {name}"))
    }

    fn reply(&self, method: &str, key: &str) -> (Json, Vec<Vec<u8>>) {
        let p = silvervale::svjson::parse(key.split_once(' ').expect("key").1).expect("key params");
        let s = |k: &str| p.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let b = |k: &str| p.get(k).and_then(Json::as_bool).unwrap_or(false);
        let v = Variant { preprocessor: b("pp"), inlining: b("inline"), coverage: b("cov") };
        let metric = || parse_metric(&s("metric")).expect("metric");
        let app = |name: &str| App::ALL.iter().copied().find(|a| a.name() == name).expect("app");
        match method {
            "compare" => {
                let db = self.db(&s("db"));
                let mut divs = divergence_from(db, metric(), v, &s("from")).expect("compare");
                divs.sort_by(|a, b| a.1.total_cmp(&b.1));
                let rows = divs
                    .into_iter()
                    .map(|(l, d)| {
                        Json::obj([("label", Json::Str(l)), ("divergence", Json::Num(d))])
                    })
                    .collect();
                let j = Json::obj([
                    ("metric", Json::str(metric().name())),
                    ("variant", Json::str(v.label())),
                    ("from", Json::str(s("from"))),
                    ("divergences", Json::Array(rows)),
                ]);
                (j, Vec::new())
            }
            "matrix" => (
                self.with_matrix(&s("db"), metric(), v, |m| matrix_json(metric(), v, m)),
                Vec::new(),
            ),
            "cluster" => {
                let j = self.with_matrix(&s("db"), metric(), v, |m| {
                    let d = svcluster::cluster_rows(m);
                    Json::obj([
                        ("metric", Json::str(metric().name())),
                        ("variant", Json::str(v.label())),
                        ("dendrogram", Json::str(d.render())),
                        ("heatmap", Json::str(svcluster::Heatmap::ordered_by(m, &d).render())),
                    ])
                });
                (j, Vec::new())
            }
            "chart" => {
                let c = navigation_chart(app(&s("app")), self.db(&s("db"))).expect("chart");
                (Json::obj([("text", Json::str(c.render()))]), Vec::new())
            }
            "inventory" => (
                Json::obj([("text", Json::str(pipeline::inventory(self.db(&s("db")))))]),
                Vec::new(),
            ),
            "tree" => {
                let db = self.db(&s("db"));
                let e = db.entry(&s("label")).expect("label");
                let t = svmetrics::tree_of(&Measured::of(&e.artifacts), metric(), v);
                let bytes = svtree::pack::write_tree(t.tree());
                let meta = Json::obj([
                    ("db", Json::str(s("db"))),
                    ("label", Json::str(s("label"))),
                    ("metric", Json::str(metric().name())),
                    ("variant", Json::str(v.label())),
                    ("fp", Json::str(format!("{:016x}", t.structural_hash()))),
                    ("bytes", Json::Num(bytes.len() as f64)),
                    ("nodes", Json::Num(t.size() as f64)),
                ]);
                (meta, vec![bytes])
            }
            "index" => {
                let units = self.db(&s("app")).entries.len();
                (
                    Json::obj([("db", Json::str(s("name"))), ("units", Json::Num(units as f64))]),
                    Vec::new(),
                )
            }
            "evaluate" => (evaluate(self.db(&s("db")), app(&s("app"))), Vec::new()),
            other => panic!("no oracle for {other}"),
        }
    }

    fn with_matrix(
        &self,
        db: &str,
        metric: Metric,
        v: Variant,
        f: impl FnOnce(&svdist::DistanceMatrix) -> Json,
    ) -> Json {
        let key = format!("{db} {} {}", metric.name(), v.label());
        let mut cache = self.matrices.borrow_mut();
        let m = cache.entry(key).or_insert_with(|| model_matrix(self.db(db), metric, v));
        f(m)
    }
}

fn matrix_json(metric: Metric, v: Variant, m: &svdist::DistanceMatrix) -> Json {
    let rows = (0..m.len())
        .map(|i| Json::Array(m.row(i).iter().map(|&d| Json::Num(d)).collect()))
        .collect();
    Json::obj([
        ("metric", Json::str(metric.name())),
        ("variant", Json::str(v.label())),
        ("labels", Json::Array(m.labels().iter().map(|l| Json::str(l.clone())).collect())),
        ("rows", Json::Array(rows)),
    ])
}

/// The `evaluate` ranking computed in process: generate, gate and score
/// every candidate against the DB's Serial unit with `svmetrics`.
fn evaluate(db: &CodebaseDb, app: App) -> Json {
    let base = Measured::of(&db.entry("Serial").expect("Serial").artifacts);
    let baseline = svport::baseline_run(app).expect("baseline run");
    let cands = svport::generate(app, EVAL_CANDIDATES, EVAL_SEED);
    let mut rows: Vec<svport::ScoredCandidate> = cands
        .iter()
        .map(|c| {
            let g = svport::gate(app, c, &baseline);
            let (sem, src) = match g.unit.as_ref() {
                Some(u) => {
                    let m = Measured::new(u);
                    (
                        Some(divergence(Metric::TSem, Variant::PLAIN, &base, &m).normalized()),
                        Some(divergence(Metric::TSrc, Variant::PLAIN, &base, &m).normalized()),
                    )
                }
                None => (None, None),
            };
            let phi = svperf::phi_all(app, c.model);
            svport::ScoredCandidate {
                id: c.id,
                label: c.label.clone(),
                model: c.model,
                class: g.class,
                detail: g.detail,
                fingerprint: svport::source_fingerprint(&c.source),
                edits: c.edits.clone(),
                tbmd_sem: sem,
                tbmd_src: src,
                phi,
                score: svport::score_value(g.class, phi, sem),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    let board = svport::Leaderboard { app, seed: EVAL_SEED, rows };
    let counts = Json::Object(
        board
            .class_counts()
            .iter()
            .map(|(c, k)| (c.name().to_string(), Json::Num(*k as f64)))
            .collect(),
    );
    let rows = board
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("label", Json::str(r.label.clone())),
                ("model", Json::str(r.model.name())),
                ("class", Json::str(r.class.name())),
                ("score", Json::Num(r.score)),
                ("phi", Json::Num(r.phi)),
                ("tbmd_sem", r.tbmd_sem.map(Json::Num).unwrap_or(Json::Null)),
                ("tbmd_src", r.tbmd_src.map(Json::Num).unwrap_or(Json::Null)),
                ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
                ("edits", Json::str(r.edits.join("; "))),
            ])
        })
        .collect();
    Json::obj([
        ("app", Json::str(app.name())),
        ("seed", Json::Num(EVAL_SEED as f64)),
        ("candidates", Json::Num(board.rows.len() as f64)),
        ("counts", counts),
        ("rows", Json::Array(rows)),
        ("text", Json::str(board.render())),
        ("chart", Json::str(board.nav_chart().render())),
    ])
}
