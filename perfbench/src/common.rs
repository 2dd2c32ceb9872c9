//! Pieces the workloads share: the input generator, the exact work
//! counters, and the sample statistics.

use det_kernel::KernelStats;

/// SplitMix64: the seeded input generator. Inputs are a pure function
/// of the seed, so one seed always gives the same programs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn words(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }
}

/// Where a program's root hands its final state back to the benchmark.
pub type Handoff<T> = std::sync::Arc<std::sync::Mutex<Option<T>>>;

/// One program's exact work counters, by per-layer metric name. They
/// are deterministic, so every program of a run must report the same
/// vector; a host-only speed-up must leave them unchanged.
pub type Counters = Vec<(&'static str, u64)>;

/// The kernel and memory counters every workload reports.
pub fn kernel_counters(s: &KernelStats, out: &mut Counters) {
    let m = &s.merge_totals.0;
    out.extend([
        ("kernel.puts", s.puts + s.put_gets),
        ("kernel.gets", s.gets + s.put_gets),
        ("kernel.threads_spawned", s.threads_spawned),
        ("memory.merges", s.merges),
        ("memory.pages_scanned", m.pages_scanned),
        ("memory.pages_skipped_clean", m.pages_skipped_clean),
        ("memory.words_compared", m.words_compared),
        ("memory.bytes_copied", m.bytes_copied),
        ("memory.leaves_cloned", s.leaves_cloned),
        ("memory.pages_snapped", s.pages_snapped),
    ]);
}

/// Adds `more` into `total`, counter by counter.
pub fn add_counters(total: &mut Counters, more: &Counters) {
    for &(name, v) in more {
        match total.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => *t += v,
            None => total.push((name, v)),
        }
    }
}

/// What one program produced, for the checks.
pub struct Outcome {
    /// Why the program failed on its own terms: an error exit, or a
    /// result that differs from the reference.
    pub error: Option<String>,
    pub vclock_ns: u64,
    /// Content digest of the program's final memory.
    pub digest: u64,
    pub counters: Counters,
}

/// The `q`-quantile of `xs` (nearest rank on the sorted samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
