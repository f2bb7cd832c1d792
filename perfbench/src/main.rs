//! perfbench — the repository benchmark: the paper's Fig. 2 workflow,
//! large near-duplicate pairs, a served request mix and the approximate
//! corpus, measured end to end and, in a separate traced run, layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root.  The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  Everything above it is the human-readable report.
//! `--write-expected` regenerates `perfbench/expected.txt` from the
//! sequential and `Baseline`-kernel oracles.

mod approx;
mod catalog;
mod common;
mod frontend;
mod pairs;
mod paper;
mod served;

use common::Checks;
use std::collections::BTreeMap;

/// How one run is measured.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: metric values, correctness checks, count
/// metrics that must repeat per seed, and report lines.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub checks: Checks,
    pub counts: Vec<(String, u64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn count(&mut self, name: &str, v: u64) {
        self.counts.push((name.to_string(), v));
        self.set(name, v as f64);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a count and note where it differs from the value stored in
    /// `expected.txt`.  A count describes the work the code does, not
    /// whether its output is right, so a changed count is reported, not
    /// failed; only its repetition per seed is checked.
    pub fn stored_count(
        &mut self,
        oracle: &BTreeMap<String, String>,
        key: &str,
        name: &str,
        v: u64,
    ) {
        self.count(name, v);
        let want = oracle.get(key).map(String::as_str);
        if want != Some(v.to_string().as_str()) {
            self.note(format!("{name} = {v}; expected.txt stores {}", want.unwrap_or("nothing")));
        }
    }

    /// The end-to-end request metrics over per-request latencies (s).
    pub fn request_metrics(&mut self, latencies: &[f64], busy_s: f64, what: &str) {
        let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
        let (p_hi, q) = common::tail(&ms);
        self.set("req_per_s", latencies.len() as f64 / busy_s);
        self.set("req_p50_ms", common::median(&ms));
        self.set("req_p99_ms", p_hi);
        self.note(format!(
            "requests: {} {what}; req_p99_ms is the p{q:.1} latency of {} samples",
            ms.len(),
            ms.len()
        ));
    }
}

const WORKLOADS: [&str; 4] = ["paper_cold", "large_pairs", "serve_mixed", "approx_corpus"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --write-expected",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--write-expected") {
        write_expected();
        return;
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = val == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let specs = catalog::load();
    let opts = Opts { seed, seconds, trace };
    let mut out = match workload.as_str() {
        "paper_cold" => paper::run(&opts),
        "large_pairs" => pairs::run(&opts),
        "serve_mixed" => served::run(&opts),
        "approx_corpus" => approx::run(&opts),
        _ => usage(),
    };
    let digest = common::source_digest();
    let counts = std::mem::take(&mut out.counts);
    common::check_count_record(&workload, seed, &digest.0, &counts, &mut out.checks);
    let failed_frac = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    out.set("failed_frac", failed_frac);
    let specs = if opts.trace { specs.1 } else { specs.0 };
    report(&workload, &opts, &out, failed_frac, &specs, &digest);
}

/// Print the report, then the result line.
fn report(
    workload: &str,
    opts: &Opts,
    out: &Outcome,
    failed_frac: f64,
    specs: &[catalog::Spec],
    digest: &(String, usize),
) {
    println!(
        "== perfbench workload={workload} seed={} seconds={} trace={}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    for (k, v) in common::host_block(digest) {
        println!("host.{k:<14} {v}");
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    println!(
        "{:<30} {:>6} {:>16}  {:<38} moves",
        if opts.trace { "per-layer metric" } else { "end-to-end metric" },
        "unit",
        "value",
        "applies to"
    );
    let mut metrics = Vec::new();
    for s in specs {
        let applies = catalog::applies(s, workload);
        let v = out.values.get(s.name).copied().filter(|_| applies);
        let shown = match v {
            Some(v) => format!("{v:>16.6}"),
            None if applies => format!("{:>16}", "MISSING"),
            None => format!("{:>16}", "not exercised"),
        };
        println!("{:<30} {:>6} {shown}  {:<38} {}", s.name, s.unit, s.workloads, s.moves);
        let v = v.unwrap_or(0.0);
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            s.name,
            json_num(v),
            s.unit
        ));
    }
    if !opts.trace {
        println!("{:<30} {:>6} {failed_frac:>16.6}  {:<38}", "failed_frac", "ratio", "all");
    }
    let mut correct = out.checks.failed == 0;
    for s in specs {
        if catalog::applies(s, workload) && !out.values.contains_key(s.name) {
            println!("FAIL: metric {} was not measured", s.name);
            correct = false;
        }
    }
    println!(
        "correctness: {} checks, {} failed, failed_frac {failed_frac}",
        out.checks.attempted, out.checks.failed
    );
    for f in &out.checks.failures {
        println!("FAIL: {f}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Regenerate `perfbench/expected.txt` from the oracles.
fn write_expected() {
    let mut lines = vec![
        "# Oracle values for perfbench, one `key value` per line.".to_string(),
        "# Generated by `perfbench --write-expected` from the sequential".to_string(),
        "# oracles (index_app_seq, divergence_matrix_seq) and the allocating".to_string(),
        "# Baseline TED kernel; never from the code paths under measurement.".to_string(),
    ];
    lines.extend(paper::expected_lines());
    lines.extend(pairs::expected_lines());
    let text = lines.join("\n") + "\n";
    std::fs::write("perfbench/expected.txt", text).expect("write perfbench/expected.txt");
    println!("wrote perfbench/expected.txt");
}
