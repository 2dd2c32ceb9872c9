//! In-memory span recorder for the traced run.
//!
//! A span is one timed call from the benchmark's own code into a layer
//! of the system: a name, a start and end on one process-wide clock, the
//! span that caused it (its parent) and the program it belongs to.
//! Recording is off by default and switched on only for the traced half
//! of a `--trace 1` run, so the end-to-end figures never pay for it.
//!
//! Spans that run on other threads for a waiting call — a cluster job
//! for the `Remote::join` that collects it, a thread's VM round for the
//! barrier that merges it — take that waiting span as their parent, so
//! the waiting span's self time is exactly its own work.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the process epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for a program's root span.
    pub parent: u32,
    /// The id of the program's root span.
    pub program: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch.
pub fn clock() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

pub fn set_on(on: bool) {
    clock();
    ON.store(on, Ordering::SeqCst);
}

/// A fresh span id, for a span whose children are recorded before it
/// ends (or on other threads).
pub fn alloc() -> u32 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Records a finished span; a no-op while recording is off.
pub fn record(id: u32, parent: u32, program: u32, name: &'static str, start_ns: u64) {
    if !on() {
        return;
    }
    let end_ns = clock();
    SPANS.lock().expect("span log lock").push(Span {
        id,
        parent,
        program,
        name,
        start_ns,
        end_ns,
    });
}

/// Runs `f` inside a span named `name` under `parent`.
pub fn scope<T>(name: &'static str, parent: u32, program: u32, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    let start = clock();
    let out = f();
    record(alloc(), parent, program, name, start);
    out
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log lock"))
}

/// Total length of the union of `[start, end)` intervals, clipped to
/// `[lo, hi)`.
pub fn covered(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-program totals of one span name: summed duration and summed
/// self time (duration minus the part its children cover).
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// The spans of one program, analysed.
pub struct ProgramSpans {
    pub program_ns: u64,
    /// Program time that no other span of the program covers.
    pub uncovered_ns: u64,
    pub by_name: std::collections::BTreeMap<&'static str, Totals>,
}

/// Groups `spans` by program and computes self times and coverage.
/// Programs without a root span (none recorded) are skipped.
pub fn analyse(spans: &[Span]) -> Vec<ProgramSpans> {
    use std::collections::BTreeMap;
    let mut by_program: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_program.entry(s.program).or_default().push(s);
    }
    let mut out = Vec::new();
    for (program, group) in by_program {
        let Some(root) = group.iter().find(|s| s.id == program) else {
            continue;
        };
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &group {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in group.iter().filter(|s| s.id != program) {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            let busy = covered(kids, s.start_ns, s.end_ns);
            let t = by_name.entry(s.name).or_default();
            t.dur_ns += s.dur_ns();
            t.self_ns += s.dur_ns() - busy;
        }
        let all: Vec<(u64, u64)> = group
            .iter()
            .filter(|s| s.id != program)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let busy = covered(all, root.start_ns, root.end_ns);
        out.push(ProgramSpans {
            program_ns: root.dur_ns(),
            uncovered_ns: root.dur_ns() - busy,
            by_name,
        });
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"program\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.program, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_the_clipped_union() {
        assert_eq!(covered(vec![], 0, 10), 0);
        assert_eq!(covered(vec![(2, 4), (3, 6), (8, 20)], 0, 10), 6);
        assert_eq!(covered(vec![(0, 100)], 10, 20), 10);
    }
}
