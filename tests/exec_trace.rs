//! Interpreter tracing: indexing with coverage runs every model's unit
//! under `svexec`, and a traced index must show that layer as one
//! `exec.run` span per unit, naming the same unit as its `unit.compile`
//! span.  Indexing without coverage runs nothing.  A traced `index`
//! request to a live server records the same spans in its trace, though
//! the units are indexed on worker threads.
//!
//! Span collection is process-global, so everything lives in ONE test
//! function — a second concurrently-running test would interleave its
//! spans into ours.

use silvervale::index_app;
use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use std::collections::BTreeSet;
use svcorpus::{App, Model};
use svserve::{id_hex, serve, Client, Router};

#[test]
fn traced_index_with_coverage_has_one_exec_run_span_per_unit() {
    svtrace::reset_spans();
    svtrace::set_enabled(true);
    index_app(App::TeaLeaf, false).expect("index tealeaf");
    let plain = svtrace::take_spans();
    index_app(App::TeaLeaf, true).expect("index tealeaf with coverage");
    svtrace::set_enabled(false);
    let spans = svtrace::take_spans();

    assert!(plain.iter().any(|s| s.name == "unit.compile"), "plain index was traced");
    assert!(!plain.iter().any(|s| s.name == "exec.run"), "no coverage, no interpreter runs");

    let details = |name: &str| -> Vec<String> {
        spans.iter().filter(|s| s.name == name).map(|s| s.detail.clone()).collect()
    };
    let runs = details("exec.run");
    assert_eq!(runs.len(), Model::ALL.len(), "one exec.run per model: {runs:?}");
    let run_units: BTreeSet<String> = runs.into_iter().collect();
    let compiled_units: BTreeSet<String> = details("unit.compile").into_iter().collect();
    assert_eq!(run_units, compiled_units, "exec.run names the units that were compiled");
    assert!(run_units.iter().all(|d| d.starts_with("unit=")), "{run_units:?}");

    // Each run follows its unit's compile on the same thread and takes
    // measurable time.
    for run in spans.iter().filter(|s| s.name == "exec.run") {
        assert!(run.end_ns > run.start_ns, "{}", run.detail);
        let compile = spans
            .iter()
            .find(|s| s.name == "unit.compile" && s.detail == run.detail)
            .expect("a unit.compile span for the same unit");
        assert_eq!(compile.tid, run.tid, "{}", run.detail);
        assert!(compile.end_ns <= run.start_ns, "{}: compile ends before the run", run.detail);
    }

    // Served: the request's own trace record, with the global collector off.
    let service = AnalysisService::new(1 << 22);
    let mut router = Router::new();
    service.register_on(&mut router);
    let handle = serve("127.0.0.1:0", router, 2).expect("bind test server");
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_tracing(true);
    let params = Json::obj([("app", Json::str("babelstream")), ("coverage", Json::Bool(true))]);
    client.call("index", params).unwrap();
    let tid = client.last_trace_id().expect("index call was traced");
    let record = client.call("trace", Json::obj([("id", Json::str(id_hex(tid)))])).unwrap();
    assert_eq!(record.get("method").and_then(Json::as_str), Some("index"));
    let served: Vec<&Json> = record
        .get("spans")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("exec.run"))
        .collect();
    assert_eq!(served.len(), Model::ALL.len(), "one exec.run per model in the request trace");
    for span in served {
        assert_eq!(span.get("trace").and_then(Json::as_str), Some(id_hex(tid).as_str()));
    }
    handle.shutdown();
}
