//! The repository benchmark.
//!
//! One process runs one workload as a closed loop: a single client runs
//! programs back to back, each one `Kernel::run` or `ClusterSpec::run`,
//! and checks every program's output. See `README.md` for the metrics,
//! the workloads and what each layer metric should move.
//!
//! A run first times the workload's set-up (input generation, VM
//! assembly and the plain-Rust reference result), many times back to
//! back on each CPU the programs use, then runs programs for the
//! requested time.
//! A program fails if it exits with an error, if its result
//! differs from the reference, or if its virtual clock, content digest or
//! exact work counters differ from the run's first program.
//!
//! With tracing on, every other program records spans around the
//! benchmark's calls into each layer, which become the per-layer
//! metrics; the untraced programs in between are the baseline for the
//! tracing overhead.

pub mod spans;

mod common;
mod fork_merge;
mod replay_ckpt;
mod shard_pages;

use std::time::{Duration, Instant};

use det_kernel::wire;
use det_memory::SpaceDelta;

use common::{Outcome, median, peak_rss_mib, quantile};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["shard_pages", "fork_merge", "replay_ckpt"];

/// Input sizes: `Full` for measurement, `Tiny` for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One workload: how to set it up and how to run one program.
trait Workload: Sized {
    /// Generates the inputs from `seed`, assembles any VM code and
    /// computes the reference result. The programs use at most `nproc`
    /// shards or threads.
    fn setup(seed: u64, scale: Scale, nproc: usize) -> Self;

    /// Runs one program whose root span id is `program`.
    fn program(&self, program: u32) -> Outcome;

    /// A delta of the workload's pages per leaf, for the codec row, if
    /// the workload's programs use the wire codec.
    fn codec_delta(&self) -> Option<SpaceDelta> {
        None
    }
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "shard_pages" => Ok(run_workload::<shard_pages::ShardPages>(opts)),
        "fork_merge" => Ok(run_workload::<fork_merge::ForkMerge>(opts)),
        "replay_ckpt" => Ok(run_workload::<replay_ckpt::ReplayCkpt>(opts)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?} or all)"
        )),
    }
}

/// Before the first program, set-ups are timed back to back on each CPU
/// the programs use (at most two), in this many batches of at least
/// `SETUP_BATCH` each; `setup_s` is the median of every batch's mean
/// set-up time. On a shared host each CPU flips between a fast and a
/// slow state on its own, and a state can last seconds, so one CPU's
/// set-ups measure mostly which state it was in, and their median jumps
/// between the two from run to run. The programs run on every CPU, and
/// so are the set-ups timed.
const SETUP_BATCHES: usize = 5;
const SETUP_BATCH: Duration = Duration::from_millis(400);

/// Times set-ups as `SETUP_BATCHES` says: the median batch mean in
/// seconds, and the number of set-ups timed.
fn time_setups<W: Workload>(opts: &Options, nproc: usize) -> (f64, usize) {
    let per_cpu: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc.min(2))
            .map(|_| {
                s.spawn(|| {
                    let mut means = Vec::new();
                    let mut count = 0;
                    for _ in 0..SETUP_BATCHES {
                        let t0 = Instant::now();
                        let mut n = 0;
                        while n == 0 || t0.elapsed() < SETUP_BATCH {
                            std::hint::black_box(W::setup(opts.seed, opts.scale, nproc));
                            n += 1;
                        }
                        means.push(t0.elapsed().as_secs_f64() / n as f64);
                        count += n;
                    }
                    (means, count)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread"))
            .collect()
    });
    let means: Vec<f64> = per_cpu
        .iter()
        .flat_map(|(m, _)| m.iter().copied())
        .collect();
    (median(&means), per_cpu.iter().map(|(_, n)| n).sum())
}

/// The program times of a run: untraced, and traced when tracing
/// alternates with untraced programs.
#[derive(Default)]
struct Phase {
    program_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    wall_s: f64,
}

/// The checks that span programs: the first program's outcome is the
/// run's yardstick.
#[derive(Default)]
struct Checker {
    first: Option<Outcome>,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Checker {
    fn check(&mut self, o: Outcome) {
        self.attempted += 1;
        let first = self.first.get_or_insert_with(|| Outcome {
            error: None,
            vclock_ns: o.vclock_ns,
            digest: o.digest,
            counters: o.counters.clone(),
        });
        let why = if let Some(e) = o.error {
            Some(e)
        } else if o.vclock_ns != first.vclock_ns {
            Some(format!(
                "vclock {} ns, first program {} ns",
                o.vclock_ns, first.vclock_ns
            ))
        } else if o.digest != first.digest {
            Some("content digest differs from the first program".into())
        } else if o.counters != first.counters {
            Some(format!(
                "work counters differ from the first program: {:?}",
                o.counters
            ))
        } else {
            None
        };
        if let Some(why) = why {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons
                    .push(format!("program {}: {why}", self.attempted));
            }
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.first
            .as_ref()
            .and_then(|o| o.counters.iter().find(|(n, _)| *n == name))
            .map_or(0.0, |&(_, v)| v as f64)
    }
}

/// Runs programs back to back for `seconds`. With `trace`, every other
/// program records spans, so traced and untraced programs share the
/// host's conditions and their difference is the tracing overhead.
fn run_phase<W: Workload>(w: &W, seconds: f64, trace: bool, checker: &mut Checker) -> Phase {
    let limit = Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut n = 0u64;
    while phase.traced_ms.len() < trace as usize || n == 0 || start.elapsed() < limit {
        let traced = trace && n % 2 == 1;
        spans::set_on(traced);
        let id = spans::alloc();
        let span_start = spans::clock();
        let t0 = Instant::now();
        let outcome = w.program(id);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        spans::record(id, 0, id, "program", span_start);
        spans::set_on(false);
        if traced {
            phase.traced_ms.push(ms);
        } else {
            phase.program_ms.push(ms);
        }
        checker.check(outcome);
        n += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

fn run_workload<W: Workload>(opts: &Options) -> Report {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (setup_s, setups) = time_setups::<W>(opts, nproc);
    let w = W::setup(opts.seed, opts.scale, nproc);
    let mut checker = Checker::default();
    let phase = run_phase(&w, opts.seconds, opts.trace, &mut checker);

    let mut notes = Vec::new();
    let mut metrics = Vec::new();
    if !opts.trace {
        let n = phase.program_ms.len();
        notes.push(format!(
            "{}: {n} programs in {:.2} s on {nproc} CPUs; p50 and p90 over {n} samples; \
             setup_s over {setups} set-ups in {SETUP_BATCHES} batches per CPU",
            opts.workload, phase.wall_s,
        ));
        metrics.extend([
            metric("setup_s", setup_s, "s"),
            metric("program_ms_p50", median(&phase.program_ms), "ms"),
            metric("program_ms_p90", quantile(&phase.program_ms, 0.9), "ms"),
            metric("programs_per_s", n as f64 / phase.wall_s, "1/s"),
            metric(
                "vclock_ms",
                checker
                    .first
                    .as_ref()
                    .map_or(0.0, |o| o.vclock_ns as f64 / 1e6),
                "ms",
            ),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]);
    } else {
        let spans = spans::drain();
        let path = spans_path(opts);
        match spans::write_jsonl(&path, &spans) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
        }
        notes.push(format!(
            "{}: {} untraced and {} traced programs, alternating, on {nproc} CPUs",
            opts.workload,
            phase.program_ms.len(),
            phase.traced_ms.len()
        ));
        let overhead = 100.0 * (median(&phase.traced_ms) / median(&phase.program_ms) - 1.0);
        layer_metrics(&spans, &checker, &mut metrics, &mut notes);
        // The decode row, and its per-page cost against a one-page delta's:
        // about 1 for a linear decoder, about the page count for a
        // quadratic one.
        let (enc, dec, scaling) = match w.codec_delta() {
            Some(d) => {
                let (enc, dec) = codec_row(&d);
                let one = SpaceDelta {
                    pages: d.pages[..1].to_vec(),
                    unmapped: Vec::new(),
                };
                (enc, dec, ratio(dec, codec_row(&one).1))
            }
            None => (0.0, 0.0, 0.0),
        };
        metrics.extend([
            metric("codec.encode_ns_per_page", enc, "ns"),
            metric("codec.decode_ns_per_page", dec, "ns"),
            metric("codec.decode_scaling", scaling, "ratio"),
            metric("tracing.overhead_pct", overhead, "%"),
            metric(
                "error_rate",
                checker.failed as f64 / checker.attempted as f64,
                "ratio",
            ),
        ]);
    }
    notes.extend(checker.reasons.iter().map(|r| format!("FAILED {r}")));
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        notes,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Where the traced run's spans go: the build directory, which is
/// inside the checkout and ignored by git.
fn spans_path(opts: &Options) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed))
}

/// Span names whose per-program time is reported, with the metric each
/// feeds. `self` picks the span's self time over its duration.
const TIMED: [(&str, &str, bool); 17] = [
    ("cluster.fork", "cluster.fork_ms", false),
    ("cluster.start_wait", "cluster.start_wait_ms", false),
    ("cluster.job", "cluster.job_ms", false),
    ("cluster.join", "cluster.join_ms", false),
    ("cluster.join", "cluster.join_self_ms", true),
    ("kernel.record", "kernel.record_ms", false),
    ("trace.encode", "trace.encode_ms", false),
    ("trace.decode", "trace.decode_ms", false),
    ("trace.replay", "trace.replay_ms", false),
    ("checkpoint.capture", "checkpoint.capture_ms", false),
    ("checkpoint.decode", "checkpoint.decode_ms", false),
    ("checkpoint.restore", "checkpoint.restore_ms", false),
    ("runtime.fork", "runtime.fork_ms", false),
    ("runtime.barrier", "runtime.barrier_ms", false),
    ("runtime.barrier", "runtime.barrier_self_ms", true),
    ("runtime.join", "runtime.join_ms", false),
    ("vm.run", "vm.run_ms", false),
];

/// Exact counters reported as they are.
const COUNTED: [(&str, &str); 17] = [
    ("cluster.page_pulls", "count"),
    ("cluster.messages", "count"),
    ("cluster.wire_bytes", "bytes"),
    ("cluster.cache_hits", "count"),
    ("trace.json_bytes", "bytes"),
    ("trace.events", "count"),
    ("checkpoint.bytes", "bytes"),
    ("kernel.puts", "count"),
    ("kernel.gets", "count"),
    ("kernel.threads_spawned", "count"),
    ("memory.merges", "count"),
    ("memory.pages_scanned", "count"),
    ("memory.words_compared", "count"),
    ("memory.bytes_copied", "bytes"),
    ("memory.leaves_cloned", "count"),
    ("memory.pages_snapped", "count"),
    ("vm.instructions", "count"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 { 0.0 } else { num / den }
}

/// Per-layer metrics from the traced programs' spans and the exact
/// counters, plus a table of where program time went.
fn layer_metrics(
    spans: &[spans::Span],
    c: &Checker,
    out: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) {
    let programs = spans::analyse(spans);
    let per_program = |f: &dyn Fn(&spans::ProgramSpans) -> u64| -> f64 {
        let v: Vec<f64> = programs.iter().map(|p| f(p) as f64 / 1e6).collect();
        median(&v)
    };
    let program_ms = per_program(&|p| p.program_ns);
    for (span, name, own) in TIMED {
        let ms = per_program(&|p| {
            p.by_name
                .get(span)
                .map_or(0, |t| if own { t.self_ns } else { t.dur_ns })
        });
        out.push(metric(name, ms, "ms"));
    }
    let uncovered = 100.0 * ratio(per_program(&|p| p.uncovered_ns), program_ms);
    out.push(metric("tracing.uncovered_pct", uncovered, "%"));

    for (name, unit) in COUNTED {
        out.push(metric(name, c.counter(name), unit));
    }
    let vm_ms = out
        .iter()
        .find(|m| m.name == "vm.run_ms")
        .map_or(0.0, |m| m.value);
    let insns = c.counter("vm.instructions");
    let scanned = c.counter("memory.pages_scanned");
    let clean = c.counter("memory.pages_skipped_clean");
    out.extend([
        metric(
            "cluster.wire_bytes_per_page",
            ratio(
                c.counter("cluster.wire_bytes"),
                c.counter("cluster.page_pulls"),
            ),
            "bytes",
        ),
        metric(
            "memory.clean_skip_ratio",
            ratio(clean, clean + scanned),
            "ratio",
        ),
        metric("vm.mips", ratio(insns, vm_ms * 1e3), "Minsn/s"),
        metric(
            "vm.tlb_hit_rate",
            ratio(c.counter("vm.tlb_hits"), c.counter("vm.tlb_probes")),
            "ratio",
        ),
        metric(
            "vm.pages_walked_per_kinsn",
            1e3 * ratio(c.counter("vm.pages_walked"), insns),
            "1/kinsn",
        ),
    ]);

    // Where the traced programs' time went: each span name's median
    // time per program and self time, as a share of program time. Spans
    // on other threads overlap the root's, so shares can sum past 100%.
    notes.push(format!(
        "traced program time {program_ms:.3} ms (median of {}); uncovered {uncovered:.1}%",
        programs.len()
    ));
    let mut names: Vec<&'static str> = programs
        .iter()
        .flat_map(|p| p.by_name.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let get = |own: bool| {
            per_program(&|p| {
                p.by_name
                    .get(name)
                    .map_or(0, |t| if own { t.self_ns } else { t.dur_ns })
            })
        };
        let (dur, own) = (get(false), get(true));
        notes.push(format!(
            "  {name:<20} {dur:>10.3} ms  self {own:>10.3} ms  {:>5.1}% of program",
            100.0 * ratio(own, program_ms)
        ));
    }
}

/// Median encode and decode cost per page of `delta` through the shard
/// wire codec.
fn codec_row(delta: &SpaceDelta) -> (f64, f64) {
    let pages = delta.pages.len().max(1) as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while enc.len() < 3 || (enc.len() < 50 && start.elapsed() < Duration::from_millis(500)) {
        let t0 = Instant::now();
        let json = std::hint::black_box(wire::delta_to_json(delta));
        enc.push(t0.elapsed().as_nanos() as f64 / pages);
        let t0 = Instant::now();
        let back = std::hint::black_box(wire::delta_from_json(&json));
        dec.push(t0.elapsed().as_nanos() as f64 / pages);
        assert!(back.as_ref() == Ok(delta), "wire codec round-trips");
    }
    (median(&enc), median(&dec))
}
