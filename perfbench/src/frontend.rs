//! The frontend layer, timed call by call: the same per-model work as
//! `silvervale::index_app_seq` (compile with `svlang`, run with `svexec`
//! for coverage, extract `svmetrics::Artifacts`, which lowers `svir`), but
//! each call timed by the benchmark, with the `unit.*` stage spans that
//! `svlang` already exports collected alongside.

use crate::common::timed;
use silvervale::CodebaseDb;
use std::collections::BTreeMap;
use svcorpus::{App, FortranModel, Model};
use svmetrics::Artifacts;

/// Per-layer frontend totals over every unit indexed.
#[derive(Default)]
pub struct Frontend {
    pub compile_s: f64,
    pub run_s: f64,
    pub artifacts_s: f64,
    /// Nodes of every `T_src+pp` the parser produced.
    pub nodes: u64,
    /// `unit.<stage>` span totals, seconds.
    pub stages: BTreeMap<&'static str, f64>,
}

impl Frontend {
    /// Busy time of the per-model tasks `index_app` fans out.
    pub fn busy_s(&self) -> f64 {
        self.compile_s + self.run_s + self.artifacts_s
    }

    /// Record the frontend per-layer metrics; `index_wall_s` is the wall
    /// time of the parallel index the workload's set-up ran.
    pub fn report(&self, index_wall_s: f64, out: &mut crate::Outcome) {
        out.set("svlang.compile_s", self.compile_s);
        out.set("svlang.nodes_per_s", self.nodes as f64 / self.compile_s);
        for stage in ["preprocess", "lex", "normalise", "parse", "lower", "inline"] {
            let v = self.stages.get(stage).copied().unwrap_or(0.0);
            out.set(&format!("svlang.{stage}_s"), v);
        }
        out.set("svexec.run_s", self.run_s);
        out.set("svmetrics.artifacts_s", self.artifacts_s);
        out.set("svpar.index_eff", self.busy_s() / (index_wall_s * crate::common::nproc()));
    }
}

/// Index `apps` (and the Fortran BabelStream variants when `fortran`) one
/// call at a time with tracing on.  The DBs equal `index_app_seq`'s.
pub fn index_timed(apps: &[App], coverage: bool, fortran: bool) -> (Vec<CodebaseDb>, Frontend) {
    let mut f = Frontend::default();
    svtrace::reset_spans();
    svtrace::set_enabled(true);
    let mut dbs = Vec::new();
    for &app in apps {
        let mut db = CodebaseDb::new(app.name());
        for model in Model::ALL {
            let (dt, unit) = timed(|| svcorpus::unit(app, model));
            let unit = unit.unwrap_or_else(|e| panic!("{}/{}: {e}", app.name(), model.name()));
            f.compile_s += dt;
            let cov = if coverage {
                let (dt, run) = timed(|| svexec::run_unit(&unit));
                f.run_s += dt;
                let run = run.unwrap_or_else(|e| panic!("{}/{}: {e}", app.name(), model.name()));
                assert_eq!(run.exit_code, 0, "{}/{} self-check", app.name(), model.name());
                Some(run.coverage)
            } else {
                None
            };
            let (dt, art) = timed(|| Artifacts::from_unit(&unit));
            f.artifacts_s += dt;
            f.nodes += art.t_src_pp.size() as u64;
            db.push(model.name(), art, cov);
        }
        dbs.push(db);
    }
    if fortran {
        let mut db = CodebaseDb::new("babelstream-fortran");
        for model in FortranModel::ALL {
            let (dt, unit) = timed(|| svcorpus::fortran_unit(model));
            let unit = unit.unwrap_or_else(|e| panic!("fortran/{}: {e}", model.name()));
            f.compile_s += dt;
            let (dt, art) = timed(|| Artifacts::from_unit(&unit));
            f.artifacts_s += dt;
            f.nodes += art.t_src_pp.size() as u64;
            db.push(model.name(), art, None);
        }
        dbs.push(db);
    }
    svtrace::set_enabled(false);
    for span in svtrace::take_spans() {
        if let Some(stage) = span.name.strip_prefix("unit.") {
            if stage != "compile" {
                *f.stages.entry(stage).or_default() += span.dur_ns() as f64 * 1e-9;
            }
        }
    }
    (dbs, f)
}

/// The workloads' untraced set-up: the production parallel indexers.
pub fn index_parallel(apps: &[App], coverage: bool, fortran: bool) -> Vec<CodebaseDb> {
    let mut dbs: Vec<CodebaseDb> = apps
        .iter()
        .map(|&app| silvervale::index_app(app, coverage).expect("index corpus app"))
        .collect();
    if fortran {
        dbs.push(silvervale::index_fortran().expect("index Fortran BabelStream"));
    }
    dbs
}
