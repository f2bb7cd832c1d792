//! The `+coverage` workflow of Fig. 2's grey boxes: compile with coverage,
//! run on a reduced problem, feed the line profile back into the index and
//! measure masked variants.

use silvervale::{divergence_from, index_app, model_matrix, navigation_chart};
use svcorpus::{unit, App, Model};
use svmetrics::{divergence, tree_of, Measured, Metric, Variant};

#[test]
fn indexing_with_coverage_runs_and_stores_profiles() {
    let db = index_app(App::MiniBude, true).unwrap();
    for e in &db.entries {
        let cov = e.coverage.as_ref().unwrap_or_else(|| panic!("{} missing coverage", e.label));
        assert!(cov.total_lines() > 10, "{}: {} lines covered", e.label, cov.total_lines());
    }
}

#[test]
fn coverage_masking_prunes_semantic_trees() {
    let db = index_app(App::MiniBude, true).unwrap();
    for e in &db.entries {
        let cov = e.coverage.as_ref().unwrap();
        let full = Measured::of(&e.artifacts);
        let masked = Measured::of_with_coverage(&e.artifacts, cov);
        let t_full = tree_of(&full, Metric::TSem, Variant::PLAIN);
        let t_masked = tree_of(&masked, Metric::TSem, Variant::COVERAGE);
        assert!(t_masked.size() <= t_full.size(), "{}", e.label);
        assert!(t_masked.size() > t_full.size() / 4, "{}: over-pruned", e.label);
    }
}

#[test]
fn coverage_variant_divergences_still_well_formed() {
    let db = index_app(App::BabelStream, true).unwrap();
    let v = Variant::COVERAGE;
    for metric in [Metric::Source, Metric::TSrc, Metric::TSem, Metric::TIr] {
        let divs = divergence_from(&db, metric, v, "Serial").unwrap();
        let serial = divs.iter().find(|(l, _)| l == "Serial").unwrap();
        assert_eq!(serial.1, 0.0, "{metric:?} self-divergence under coverage");
        assert!(divs.iter().filter(|(l, _)| l != "Serial").all(|(_, d)| *d > 0.0), "{metric:?}");
    }
}

#[test]
fn coverage_reduces_pp_noise() {
    // The SYCL giant header never executes; with coverage masking the
    // post-pp Source divergence collapses back toward the plain view —
    // the paper's motivation for the coverage modifier.
    let serial = unit(App::BabelStream, Model::Serial).unwrap();
    let sycl = unit(App::BabelStream, Model::SyclUsm).unwrap();
    let run_serial = svexec::run_unit(&serial).unwrap();
    let run_sycl = svexec::run_unit(&sycl).unwrap();

    let pp = Variant::PP;
    let pp_cov = Variant { preprocessor: true, coverage: true, inlining: false };
    let plain_pp = divergence(Metric::Source, pp, &Measured::new(&serial), &Measured::new(&sycl));
    let masked_pp = divergence(
        Metric::Source,
        pp_cov,
        &Measured::with_coverage(&serial, &run_serial.coverage),
        &Measured::with_coverage(&sycl, &run_sycl.coverage),
    );
    assert!(
        masked_pp.distance < plain_pp.distance / 2,
        "coverage must strip the dead header: {} vs {}",
        masked_pp.distance,
        plain_pp.distance
    );
}

#[test]
fn coverage_matrix_stays_clusterable() {
    let db = index_app(App::BabelStream, true).unwrap();
    let m = model_matrix(&db, Metric::TSem, Variant::COVERAGE);
    assert_eq!(m.len(), 10);
    let cuda_hip = m.get_by_label("CUDA", "HIP").unwrap();
    let cuda_sycl = m.get_by_label("CUDA", "SYCL (acc)").unwrap();
    assert!(cuda_hip < cuda_sycl, "CUDA-HIP {cuda_hip} vs CUDA-SYCL {cuda_sycl}");
}

#[test]
fn dead_code_invisible_under_coverage() {
    // Two units identical except for an uncalled function must have zero
    // T_sem+coverage divergence.
    use svlang::source::SourceSet;
    use svlang::unit::{compile_unit, UnitOptions};
    let base = "int live() { return 1; }\nint main() { return live() - 1; }";
    let extra =
        "int live() { return 1; }\nint dead() { return 9; }\nint main() { return live() - 1; }";
    let mut ss = SourceSet::new();
    let a = ss.add("a.cpp", base);
    let b = ss.add("b.cpp", extra);
    let ua = compile_unit(&ss, a, &UnitOptions::default()).unwrap();
    let ub = compile_unit(&ss, b, &UnitOptions::default()).unwrap();
    let ra = svexec::run_unit(&ua).unwrap();
    let rb = svexec::run_unit(&ub).unwrap();

    let plain = divergence(Metric::TSem, Variant::PLAIN, &Measured::new(&ua), &Measured::new(&ub));
    assert!(plain.distance > 0, "dead code visible without coverage");

    let covered = divergence(
        Metric::TSem,
        Variant::COVERAGE,
        &Measured::with_coverage(&ua, &ra.coverage),
        &Measured::with_coverage(&ub, &rb.coverage),
    );
    assert_eq!(covered.distance, 0, "dead code must vanish under coverage");
}

#[test]
fn heatmap_rows_and_chart_equal_a_plain_per_pair_loop() {
    // Heatmap columns and chart rows fan their tree pairs out over worker
    // threads, largest DP first.  Every Fig. 7/8 row (the +cov rows
    // included) and the navigation chart must equal a sequential
    // per-pair `divergence` loop, entry for entry in DB order, at one
    // and at two threads.
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
    let app = App::MiniBude;
    let db = index_app(app, true).unwrap();
    let plain = |metric: Metric, v: Variant| -> Vec<(String, f64)> {
        let measured: Vec<Measured<'_>> = db
            .entries
            .iter()
            .map(|e| match (&e.coverage, v.coverage) {
                (Some(c), true) => Measured::of_with_coverage(&e.artifacts, c),
                _ => Measured::of(&e.artifacts),
            })
            .collect();
        let base = db.entries.iter().position(|e| e.label == "Serial").unwrap();
        db.entries
            .iter()
            .zip(&measured)
            .map(|(e, to)| {
                (e.label.clone(), divergence(metric, v, &measured[base], to).normalized())
            })
            .collect()
    };
    let expect: Vec<Vec<(String, f64)>> = ROWS.iter().map(|&(m, v)| plain(m, v)).collect();
    let (sem, src) = (plain(Metric::TSem, Variant::PLAIN), plain(Metric::TSrc, Variant::PLAIN));
    let of = |row: &[(String, f64)], model: Model| {
        row.iter().find(|(l, _)| l == model.name()).map(|(_, d)| *d).unwrap()
    };
    for threads in [1, 2] {
        svpar::set_threads(threads);
        for (&(metric, v), want) in ROWS.iter().zip(&expect) {
            let got = divergence_from(&db, metric, v, "Serial").unwrap();
            assert_eq!(&got, want, "{}{} at {threads} threads", metric.name(), v.label());
        }
        let chart = navigation_chart(app, &db).unwrap();
        let models: Vec<Model> = chart.points.iter().map(|p| p.model).collect();
        let others: Vec<Model> = Model::ALL.into_iter().filter(|&m| m != Model::Serial).collect();
        assert_eq!(models, others, "chart points in model order at {threads} threads");
        for p in &chart.points {
            assert_eq!(p.div_t_sem, of(&sem, p.model), "{} T_sem at {threads}", p.model.name());
            assert_eq!(p.div_t_src, of(&src, p.model), "{} T_src at {threads}", p.model.name());
        }
    }
    svpar::set_threads(0);
}
