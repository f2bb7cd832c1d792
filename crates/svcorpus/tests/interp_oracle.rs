//! Interpreter oracle: pins, for every C++ corpus unit, what running it
//! under `svexec` observably produces — the exit code, the `printf`
//! output, the line coverage and the number of interpreter steps (the
//! count the step limit gates on).  Outputs and coverage are pinned as
//! FNV-1a fingerprints; coverage is serialised as `file:line,line,…;` in
//! file order.  Any change to the interpreter must leave every row as is.

use svcorpus::{unit, App, Model};
use svexec::Interp;

/// `(app, model, exit code, FNV of output, FNV of coverage, steps)`.
const EXPECTED: &[(&str, &str, i64, u64, u64, u64)] = &[
    ("babelstream", "Serial", 0, 0x1c4d2752b248a0ed, 0x7fe1debe42f15e25, 7600),
    ("babelstream", "OpenMP", 0, 0x2d9c2db324bacaef, 0x83628a63c7729953, 7626),
    ("babelstream", "OpenMP target", 0, 0x15a8c1ac50ef9737, 0xe023ee09b8aae060, 7627),
    ("babelstream", "CUDA", 0, 0x286d1ef2fff3cc44, 0x5184beff226902f0, 15494),
    ("babelstream", "HIP", 0, 0x2589404f1241bf44, 0xc4dc3ad33d3fc92e, 15497),
    ("babelstream", "SYCL (USM)", 0, 0x632bbb2e00137936, 0x55b7c524a60215a4, 5514),
    ("babelstream", "SYCL (acc)", 0, 0xb44a8a6f31693b04, 0xf6488c4ecf55d3b7, 5592),
    ("babelstream", "Kokkos", 0, 0x16b9d8fd4498497b, 0x791bf4b28a509210, 4195),
    ("babelstream", "StdPar", 0, 0xd1c77c0b14469c81, 0x993b0145d892f66a, 4185),
    ("babelstream", "TBB", 0, 0x1801b64b528ef92f, 0x61cc86107c0fa079, 4185),
    ("minibude", "Serial", 0, 0x38d95fe6c538c5d7, 0xe937f8c1a997f405, 65502),
    ("minibude", "OpenMP", 0, 0xdb47b249b445f9ab, 0x9168f5fe6d1dba8f, 65503),
    ("minibude", "OpenMP target", 0, 0x5c543e9b387b1361, 0xe3de1b5859376a0c, 65503),
    ("minibude", "CUDA", 0, 0x3b316f11643a1c6c, 0xb72acca535cd91c5, 65537),
    ("minibude", "HIP", 0, 0x656908194d210736, 0xd412ccec250aad45, 65540),
    ("minibude", "SYCL (USM)", 0, 0x18d7d8b033d7c65e, 0xb28455c405cd0f0e, 65485),
    ("minibude", "SYCL (acc)", 0, 0x79cd4be9a67ac61c, 0x5429069a43551449, 65488),
    ("minibude", "Kokkos", 0, 0x6c3040030eb5f5d1, 0x83ab84d58b88e997, 65485),
    ("minibude", "StdPar", 0, 0xf7e94ac079729a07, 0x96c2689c9f133d5e, 65483),
    ("minibude", "TBB", 0, 0x5bf38db60dd1fc1b, 0x14b25dac7a7b5314, 65483),
    ("tealeaf", "Serial", 0, 0x12aae21e1fcf0be4, 0xcf410be57d20e11a, 156249),
    ("tealeaf", "OpenMP", 0, 0x62acdc7dd2995e3e, 0x37d0b31c7023df62, 156433),
    ("tealeaf", "OpenMP target", 0, 0xc91760d5ace5c25a, 0x0b213604c01100fc, 156435),
    ("tealeaf", "CUDA", 0, 0x87d497859df86957, 0x3f51411ecccecf17, 486227),
    ("tealeaf", "HIP", 0, 0x241173d71833582f, 0x328800b27464ea8c, 486230),
    ("tealeaf", "SYCL (USM)", 0, 0x722ad713aed1caf1, 0xc2c185638403d07c, 255691),
    ("tealeaf", "SYCL (acc)", 0, 0x9c22545044b4febb, 0xa921c6019d2ddb6a, 256185),
    ("tealeaf", "Kokkos", 0, 0xd3c077ea5b163782, 0x04033d82dd0221a8, 197642),
    ("tealeaf", "StdPar", 0, 0x37aa4863d25d4718, 0x225707a0e83263e3, 237081),
    ("tealeaf", "TBB", 0, 0x6394827e3d2b0422, 0x4ea2e1145f2a2bd2, 217317),
    ("cloverleaf", "Serial", 0, 0xeb911980ed81cb1d, 0x4dbcc41c3f3e0db4, 15096),
    ("cloverleaf", "OpenMP", 0, 0xde1e4d6fb7d57bf9, 0x0ca03861e6448ae4, 15117),
    ("cloverleaf", "OpenMP target", 0, 0xb77d5a4cd743fe1b, 0x6a316dbe5b8b2665, 15119),
    ("cloverleaf", "CUDA", 0, 0x7c6f8232dc2af15c, 0x071ba97bde0fdc8e, 33092),
    ("cloverleaf", "HIP", 0, 0x52fed56cfbf31da2, 0xe4bd92a28423d88c, 33095),
    ("cloverleaf", "SYCL (USM)", 0, 0x868fa9a0b76e1552, 0x4a32cffe579205ba, 20737),
    ("cloverleaf", "SYCL (acc)", 0, 0x790d088cde3ef2ec, 0x261789d32bcf6925, 20802),
    ("cloverleaf", "Kokkos", 0, 0xbb443ad2dac03183, 0x94257d010726cf46, 18351),
    ("cloverleaf", "StdPar", 0, 0xba6538e70c00600d, 0x8c70db283bfb9169, 19913),
    ("cloverleaf", "TBB", 0, 0x82d00ea0f7aa5d51, 0xcd4a146938a76984, 19129),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn coverage_text(cov: &svtree::mask::CoverageMask) -> String {
    let mut s = String::new();
    for (file, mask) in cov.iter_files() {
        let lines: Vec<String> = mask.iter().map(|l| l.to_string()).collect();
        s.push_str(&format!("{file}:{};", lines.join(",")));
    }
    s
}

#[test]
fn every_cpp_unit_runs_exactly_as_pinned() {
    let mut actual = Vec::new();
    for app in App::ALL {
        for model in Model::ALL {
            let u = unit(app, model).unwrap_or_else(|e| panic!("{app:?}/{model:?}: {e}"));
            let mut it = Interp::new(u.program.as_ref().unwrap()).unwrap();
            let exit = it.run_main().unwrap_or_else(|e| panic!("{app:?}/{model:?}: {e}"));
            actual.push((
                app.name(),
                model.name(),
                exit,
                fnv(it.output.as_bytes()),
                fnv(coverage_text(&it.coverage).as_bytes()),
                it.steps(),
            ));
        }
    }
    let listing: String = actual
        .iter()
        .map(|(a, m, e, o, c, s)| format!("    ({a:?}, {m:?}, {e}, {o:#018x}, {c:#018x}, {s}),\n"))
        .collect();
    assert_eq!(actual.len(), EXPECTED.len(), "rows:\n{listing}");
    for (got, want) in actual.iter().zip(EXPECTED) {
        assert_eq!(got, want, "rows:\n{listing}");
    }
}
