//! # svport — port-candidate evaluation harness
//!
//! The paper's end-game is *navigating* the space of parallel ports of a
//! serial baseline: TBMD measures how far a port strays from the code you
//! already trust, Φ measures how much performance portability the port
//! buys.  This crate supplies the missing population to navigate over —
//! the ParEval-style workload (Nichols et al., "Can Large Language Models
//! Write Parallel Code?") of *many candidate ports of the same app*:
//!
//! * [`gen`] — a seeded candidate generator that mutates the corpus
//!   mini-apps' parallel ports (directive insertion/removal/retuning,
//!   loop-variable renames, dead-store noise, and deliberately broken
//!   arithmetic/bounds/braces) into populations of 100+ deterministic
//!   variants per seed;
//! * [`gate`] — a correctness gate that recompiles each candidate,
//!   interprets it under `svexec` with a step budget, and classifies it
//!   build-fail / runtime-fail / wrong-answer / correct against the serial
//!   baseline's checksum;
//! * [`score`] — the scoring pipeline: TBMD against the baseline through
//!   `svmetrics::divergence_matrix` (shared-tree artefacts, LPT-scheduled
//!   TED fan-out), Φ from the `svperf` fleet simulator, combined into a
//!   ranked leaderboard (text + CSV) and placed on the existing
//!   `NavigationChart`.
//!
//! The `evaluate` service handler in `svserve`/`silvervale` drives the
//! same pipeline as one request fanning out to per-candidate jobs on the
//! `JobPool`, which is the realistic heavy-traffic driver for the cache,
//! in-flight dedup, deadline, and shedding machinery.

pub mod gate;
pub mod gen;
pub mod score;

pub use gate::{
    baseline_run, compile_candidate, gate, sum_token, BaselineRun, GateClass, Gated, PortError,
    STEP_LIMIT,
};
pub use gen::{generate, parallel_models, source_fingerprint, Candidate, Dialect};
pub use score::{
    evaluate, score_population, score_population_with, score_value, Leaderboard, ScoredCandidate,
};

#[cfg(test)]
mod proptests {
    use crate::gate::{baseline_run, gate, GateClass};
    use crate::gen::generate;
    use proptest::prelude::*;
    use svcorpus::App;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The satellite property: every seeded mutant either fails
        /// cleanly at parse/lower (build-fail) or runs to completion
        /// under `svexec` — runtime traps and wrong answers are *results*,
        /// not panics.  `gate` would propagate any interpreter panic and
        /// fail the test.
        #[test]
        fn mutants_fail_cleanly_or_run(seed in 0u64..1_000_000, n in 4usize..10) {
            let baseline = baseline_run(App::BabelStream).expect("baseline");
            for c in generate(App::BabelStream, n, seed) {
                let g = gate(App::BabelStream, &c, &baseline);
                prop_assert!(GateClass::ALL.contains(&g.class));
                prop_assert!(!g.detail.is_empty());
            }
        }

        /// Generation is a pure function of (app, n, seed).
        #[test]
        fn generation_deterministic_per_seed(seed in 0u64..1_000_000, n in 1usize..24) {
            let a = generate(App::BabelStream, n, seed);
            let b = generate(App::BabelStream, n, seed);
            prop_assert_eq!(a.len(), n);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.source, &y.source);
                prop_assert_eq!(&x.edits, &y.edits);
                prop_assert_eq!(x.model, y.model);
            }
        }
    }
}
