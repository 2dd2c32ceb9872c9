//! `replay_ckpt`: the debugging and recovery loop.
//!
//! Each program runs one session per CPU (at most two), each on its own
//! inputs. A session records a traced fork/merge run with checkpoint
//! marks, round-trips the trace through JSON and replays it, then
//! captures a checkpoint at the first mark, round-trips it through its
//! byte form, restores it and resumes the trace suffix. Both the replay
//! and the resumed run must reproduce the recording exactly. It covers
//! the kernel's trace and checkpoint layers, which nothing else reaches,
//! and uses the codec unlike `shard_pages`: many small events, with
//! encode beside decode.
//!
//! The recordings run one after another, each kernel on its own threads;
//! the sessions then debug and recover in parallel, one thread each, so
//! the program's time follows every CPU the host lends the benchmark,
//! as the other workloads' does, rather than the one CPU a single thread
//! stays on.

use det_kernel::{
    Checkpoint, KernelConfig, ReplayOutcome, RunOutcome, Trace, TraceEvent, TraceSink,
    latest_restorable_boundary,
};

use crate::common::{Counters, Outcome, add_counters, kernel_counters};
use crate::fork_merge::{ForkMerge, Run};
use crate::spans;
use crate::{Scale, Workload};

pub struct ReplayCkpt {
    /// One fork/merge program per session, each on its own inputs.
    sessions: Vec<ForkMerge>,
}

/// A session's recording, before it is debugged and recovered.
struct Recorded {
    run: Run,
    trace: Option<Trace>,
}

/// Why `got` is not the recorded run, if it is not.
fn mismatch(what: &str, got: &ReplayOutcome, want: &RunOutcome) -> Option<String> {
    let same = got.exit == want.exit
        && got.vclock_ns == want.vclock_ns
        && got.stats == want.stats
        && got.outputs == want.outputs
        && got.spaces == want.spaces;
    (!same).then(|| format!("{what} differs from the recording"))
}

fn record(fm: &ForkMerge, p: u32) -> Recorded {
    let sink = TraceSink::new();
    let cfg = KernelConfig::builder().trace(sink.clone()).build();
    let run = spans::scope("kernel.record", p, p, || fm.run(p, cfg, true));
    Recorded {
        run,
        trace: sink.collect(),
    }
}

/// Round-trips and replays one recording, then checkpoints, restores
/// and resumes it, and checks both against the recording.
fn debug_and_recover(fm: &ForkMerge, rec: Recorded, p: u32) -> Outcome {
    let run = rec.run;
    let mut counters = Counters::new();
    kernel_counters(&run.outcome.stats, &mut counters);
    run.vm.counters(&mut counters);
    let mut out = Outcome {
        error: fm.error(&run),
        vclock_ns: run.outcome.vclock_ns,
        digest: run.data.as_ref().map_or(0, |d| d.1),
        counters: Vec::new(),
    };
    let Some(trace) = rec.trace else {
        out.error = Some("no trace recorded".into());
        return out;
    };
    let json = spans::scope("trace.encode", p, p, || trace.to_json());
    let decoded = match spans::scope("trace.decode", p, p, || Trace::from_json(&json)) {
        Ok(t) if t == trace => t,
        Ok(_) => {
            out.error = Some("trace changed in its JSON round trip".into());
            return out;
        }
        Err(e) => {
            out.error = Some(format!("trace decode: {e}"));
            return out;
        }
    };
    let replayed = spans::scope("trace.replay", p, p, || decoded.replay());

    let mark = decoded
        .events
        .iter()
        .position(|e| matches!(e, TraceEvent::Checkpoint { .. }))
        .map_or(0, |i| i + 1);
    let boundary = latest_restorable_boundary(&decoded, mark);
    let bytes = spans::scope("checkpoint.capture", p, p, || {
        Checkpoint::capture(&decoded, boundary).map(|c| c.to_bytes())
    });
    let resumed = bytes.as_ref().map_err(Clone::clone).and_then(|bytes| {
        let ckpt = spans::scope("checkpoint.decode", p, p, || Checkpoint::from_bytes(bytes))?;
        spans::scope("checkpoint.restore", p, p, || {
            ckpt.restore()?.resume(&decoded.events[boundary..])
        })
    });

    counters.extend([
        ("trace.events", decoded.len() as u64),
        ("trace.json_bytes", json.len() as u64),
        ("checkpoint.boundary", boundary as u64),
        (
            "checkpoint.bytes",
            bytes.as_ref().map_or(0, |b| b.len() as u64),
        ),
    ]);
    out.counters = counters;
    if out.error.is_none() {
        out.error = match (replayed, resumed) {
            (Ok(r), Ok(c)) => mismatch("replay", &r, &run.outcome)
                .or_else(|| mismatch("checkpoint resume", &c, &run.outcome)),
            (Err(e), _) => Some(format!("replay: {e:?}")),
            (_, Err(e)) => Some(format!("checkpoint: {e:?}")),
        };
    }
    out
}

impl Workload for ReplayCkpt {
    fn setup(seed: u64, scale: Scale, nproc: usize) -> ReplayCkpt {
        let threads = nproc.min(2);
        let sessions = (0..threads as u64)
            .map(|s| {
                let seed = seed.wrapping_add(s.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                match scale {
                    Scale::Full => ForkMerge::new(seed, threads, 128, 2),
                    Scale::Tiny => ForkMerge::new(seed, threads, 64, 1),
                }
            })
            .collect();
        ReplayCkpt { sessions }
    }

    /// The sessions' outcomes combined: the first error, the virtual
    /// times summed, the digests folded, the counters summed by name.
    fn program(&self, p: u32) -> Outcome {
        let recorded: Vec<Recorded> = self.sessions.iter().map(|fm| record(fm, p)).collect();
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .sessions
                .iter()
                .zip(recorded)
                .map(|(fm, rec)| s.spawn(move || debug_and_recover(fm, rec, p)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| Outcome {
                        error: Some("session panicked".into()),
                        vclock_ns: 0,
                        digest: 0,
                        counters: Vec::new(),
                    })
                })
                .collect()
        });
        let mut out = Outcome {
            error: None,
            vclock_ns: 0,
            digest: 0,
            counters: Counters::new(),
        };
        for (i, o) in outcomes.into_iter().enumerate() {
            out.error = out.error.or(o.error.map(|e| format!("session {i}: {e}")));
            out.vclock_ns += o.vclock_ns;
            out.digest = out.digest.rotate_left(17) ^ o.digest;
            add_counters(&mut out.counters, &o.counters);
        }
        out
    }
}
