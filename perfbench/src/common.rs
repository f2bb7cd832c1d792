//! Shared measurement helpers: timers, order statistics, peak RSS, the
//! keep-awake threads, the host block, FNV digests, the stored oracle
//! values and the per-seed count record.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Median (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Linearly interpolated quantile `q` in `[0, 1]`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample count supports: the highest percentile
/// with at least ten samples beyond it, capped at p99.  Below twenty
/// samples no percentile above the median qualifies, and the maximum is
/// reported instead.  Returns `(value, percentile)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    if n < 20.0 {
        return (v.iter().copied().fold(f64::MIN, f64::max), 100.0);
    }
    let q = (1.0 - 10.0 / n).min(0.99);
    (quantile(v, q), q * 100.0)
}

/// Process high-water resident set, in MiB (`getrusage`, Linux reports KiB).
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut u = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `Rusage` matches the 64-bit Linux `struct rusage` layout
    // (two timevals followed by fourteen longs) and outlives the call.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Keeps every core busy while alive: one busy-wait thread per core under
/// `SCHED_IDLE`, the policy that runs only when nothing else wants the
/// core and gives it up at once to any waking thread.  Sub-millisecond
/// request latencies are mostly thread hand-offs; a hand-off to a core
/// that has gone idle pays the virtual machine's wake-up, whose cost
/// follows the other load on the host.  With the cores kept awake a
/// hand-off costs what the program makes it cost.  A thread that cannot
/// take the policy exits instead of competing with the program.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<bool>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        #[repr(C)]
        struct SchedParam {
            priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let threads = (0..nproc() as usize)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: pid 0 is the calling thread and the
                    // parameter outlives the call.
                    let rc =
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
                    if rc != 0 {
                        return false;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    true
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Stops and joins the threads; returns how many kept a core awake.
    pub fn stop(mut self) -> usize {
        self.halt()
    }

    fn halt(&mut self) -> usize {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.threads.drain(..).filter_map(|t| t.join().ok()).filter(|&awake| awake).count()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.halt();
    }
}

/// 64-bit FNV-1a over a byte stream.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, b: &[u8]) -> Fnv {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn str(self, s: &str) -> Fnv {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn f64(self, x: f64) -> Fnv {
        self.bytes(&x.to_bits().to_le_bytes())
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// splitmix64: every generated input is a pure function of the seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Oracle values stored with the benchmark (`expected.txt`): output
/// digests from the sequential oracles, `Baseline`-kernel distances, and
/// the seed-independent counts (only noted when they differ).  Regenerate
/// with `--write-expected`.
pub fn expected() -> BTreeMap<String, String> {
    include_str!("../expected.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect()
}

/// Correctness bookkeeping of one run: checks attempted and failed, with
/// a line per failure for the report.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Compare a value with its stored oracle entry.
    pub fn expect(&mut self, oracle: &BTreeMap<String, String>, key: &str, got: &str) {
        let want = oracle.get(key).map(String::as_str);
        self.check(want == Some(got), || {
            format!("{key}: got {got}, expected {}", want.unwrap_or("<missing>"))
        });
    }
}

/// Counts that must repeat exactly for a seed: compared with the record
/// earlier runs of the same workload and seed left under `.perfbench/`
/// (either trace mode), and added to it when new.  The record is keyed by
/// the source digest, so only runs of the same code are compared: a change
/// to the program that changes a count starts a record of its own.
pub fn check_count_record(
    workload: &str,
    seed: u64,
    digest: &str,
    counts: &[(String, u64)],
    checks: &mut Checks,
) {
    let dir = Path::new(".perfbench");
    let path = dir.join(format!("counts-{workload}-{seed}-{digest}.txt"));
    let mut record: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect();
    let mut changed = false;
    for (k, v) in counts {
        match record.get(k) {
            Some(prev) => checks.check(prev == v, || {
                format!("{k} = {v}, but an earlier run of seed {seed} counted {prev}")
            }),
            None => {
                record.insert(k.clone(), *v);
                changed = true;
            }
        }
    }
    if changed {
        let text: String = record.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(&path, text);
    }
}

/// CPU model string (CPUID brand string on x86-64).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: CPUID is available on every x86-64 processor, and the
        // extended leaves are only read after leaf 0x8000_0000 reports them.
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                return "unknown x86-64".to_string();
            }
            let mut b = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    b.extend_from_slice(&w.to_le_bytes());
                }
            }
            b
        };
        String::from_utf8_lossy(&brand).trim_matches(char::from(0)).trim().to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Commit of the checkout when it is a git work tree (read from `.git`
/// directly), else `none`.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// FNV digest over every file under `crates/`, `vendor/` and
/// `perfbench/src/` (sorted paths), identifying the measured source when
/// no commit exists.  Returns the digest and the file count.
pub fn source_digest() -> (String, usize) {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        h = h.str(&f.to_string_lossy());
        if let Ok(b) = std::fs::read(f) {
            h = h.bytes(&b);
        }
    }
    (h.hex(), files.len())
}

/// The report's host block; `digest` is [`source_digest`].
pub fn host_block(digest: &(String, usize)) -> Vec<(&'static str, String)> {
    vec![
        ("cpu", cpu_model()),
        ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
        ("simd_tier", svdist::active_kernel_name().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", commit()),
        ("source_digest", format!("{} ({} files)", digest.0, digest.1)),
    ]
}

/// Number of worker threads the parallel layers use.
pub fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}
