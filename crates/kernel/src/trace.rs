//! Syscall-trace record and replay.
//!
//! With tracing enabled ([`crate::KernelConfig::builder`]'s
//! `trace()`), the shell records every event it feeds the pure core —
//! each rendezvous, check-in, device access, and the root exit — into
//! a [`TraceSink`]. The collected [`Trace`] is a complete, serializable
//! account of the run: [`Trace::replay`] re-applies it to a fresh
//! [`KState`](crate::state::KState) **without running any program
//! code** — no threads, no VM interpretation, no host devices — and
//! reproduces the original run's exit status, virtual clock, kernel
//! statistics, device outputs, and per-space memory digests
//! bit-identically.
//!
//! This is the paper's determinism thesis made mechanically checkable:
//! if the kernel state really is a pure function of the explicit event
//! sequence, then folding the recorded events through
//! [`apply`](crate::apply) must land on the same state the live run
//! reached. The `trace_roundtrip` integration tests assert exactly
//! that, through a JSON round-trip for good measure.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use det_memory::{ConflictPolicy, MemError, PageDelta, PageDeltaOp, Perm, Region, SpaceDelta};
use det_vm::Regs;
use serde::{DeError, Deserialize, Serialize, Value, field};

use crate::apply::{EntryRec, PutRec, TraceEvent, VmCounters, apply};
use crate::cost::{CostModel, ps_to_ns};
use crate::device::DeviceId;
use crate::error::{KernelError, Result, TrapKind};
use crate::hex::{hex, unhex};
use crate::state::{KState, ProgramKind, RunState, SpaceState};
use crate::stats::KernelStats;
use crate::syscall::{CopySpec, GetSpec, StartSpec, StopReason};

/// Shared event collector the shell records into.
///
/// Clone it, hand one clone to
/// [`KernelConfigBuilder::trace`](crate::KernelConfigBuilder::trace),
/// and call [`TraceSink::collect`] after the run.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
    meta: Arc<Mutex<Option<TraceMeta>>>,
}

impl TraceSink {
    /// A fresh, empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Appends one event (shell-side).
    pub(crate) fn push(&self, ev: TraceEvent) {
        lock_recover(&self.events).push(ev);
    }

    /// Stamps the run parameters (shell-side, at kernel build).
    pub(crate) fn set_meta(&self, meta: TraceMeta) {
        *lock_recover(&self.meta) = Some(meta);
    }

    /// Number of events recorded so far (a crash log's length).
    pub fn len(&self) -> usize {
        lock_recover(&self.events).len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the recorded trace out of the sink, leaving it empty.
    ///
    /// Returns `None` if the sink was never attached to a kernel.
    pub fn collect(&self) -> Option<Trace> {
        let meta = lock_recover(&self.meta).take()?;
        let events = std::mem::take(&mut *lock_recover(&self.events));
        Some(Trace { meta, events })
    }
}

/// Locks a sink mutex, recovering from poisoning: a vehicle that
/// panicked mid-run (including a deliberately injected panic) must not
/// cascade into every later recorder — the sink holds plain event data
/// that is never left half-written by a panic, so the poison flag
/// carries no information here.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The run parameters a replay must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Virtual-time cost model of the recorded run.
    pub costs: CostModel,
    /// Default merge conflict policy.
    pub policy: ConflictPolicy,
}

/// A recorded run: parameters plus the full event sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Run parameters.
    pub meta: TraceMeta,
    /// The events, in recorded order.
    pub events: Vec<TraceEvent>,
}

/// The per-space slice of a run's final state — what the conformance
/// harness compares across replicas, and what a replay must reproduce.
///
/// Spaces are named by their deterministic lineage [`path`] in any
/// cross-run artifact; the table [`id`] is an allocation-order detail
/// carried along for diagnostics only.
///
/// [`path`]: SpaceArtifact::path
/// [`id`]: SpaceArtifact::id
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceArtifact {
    /// Space table id (allocation order; may differ across runs).
    pub id: u32,
    /// Deterministic lineage path (`"/"` for the root, `"/7"` for
    /// child number 7 of the root, `"/7/3@1"` for the second space
    /// ever bound at number 3 under it, and so on).
    pub path: String,
    /// Final virtual clock in picoseconds.
    pub vclock_ps: u64,
    /// VM instructions retired.
    pub insn_count: u64,
    /// Whole-space content digest (permissions + bytes of every
    /// mapped page).
    pub digest: u64,
    /// Per-page `(vpn, digest)` pairs, ascending by vpn — fine-grained
    /// enough for a divergence report to name the first differing page.
    pub page_digests: Vec<(u64, u64)>,
}

impl SpaceArtifact {
    pub(crate) fn of(id: u32, path: String, st: &SpaceState) -> SpaceArtifact {
        SpaceArtifact {
            id,
            path,
            vclock_ps: st.vclock_ps,
            insn_count: st.insn_count,
            digest: st.mem.content_digest().value(),
            page_digests: st.mem.page_digests(),
        }
    }
}

/// What a replay reproduces — the deterministic face of
/// [`RunOutcome`](crate::RunOutcome). (The host-I/O log is not part of
/// it: device *inputs* are already baked into the recorded deltas.)
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The root program's exit status, or the trap that ended it.
    pub exit: std::result::Result<i32, TrapKind>,
    /// The root space's final virtual clock (nanoseconds).
    pub vclock_ns: u64,
    /// Kernel operation counters; every field matches the live run
    /// exactly. (Host scheduling noise lives in
    /// [`HostStats`](crate::HostStats), outside this struct.)
    pub stats: KernelStats,
    /// Device output buffers, ordered by device.
    pub outputs: BTreeMap<DeviceId, Vec<u8>>,
    /// Per-space artifacts at end of run, ascending by space id
    /// (spaces whose state was still checked out to an abandoned
    /// vehicle at shutdown are not observable and not listed).
    pub spaces: Vec<SpaceArtifact>,
    /// Every space's `(id, lineage path)`, including spaces with no
    /// artifact — the complete map for projecting trace events onto
    /// path-named streams.
    pub space_paths: Vec<(u32, String)>,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compact JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization is infallible")
    }

    /// Pretty-printed JSON encoding.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization is infallible")
    }

    /// Parses a JSON-encoded trace.
    pub fn from_json(s: &str) -> std::result::Result<Trace, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Re-applies the recorded events to a fresh kernel state, running
    /// no program code, and returns the reproduced outcome.
    ///
    /// Fails with [`KernelError::ReplayDivergence`] only if the trace
    /// is structurally impossible (truncated, reordered across a slot,
    /// or forged); errors the recorded programs observed live are part
    /// of history and replay silently.
    pub fn replay(&self) -> Result<ReplayOutcome> {
        let mut ks = KState::new(self.meta.costs, self.meta.policy);
        for ev in &self.events {
            apply(&mut ks, ev)?;
        }
        outcome_of(ks, true)
    }

    /// Replays a possibly-truncated trace — the crash log of a run
    /// killed mid-flight (e.g. by an injected
    /// [`KernelError::Killed`] fault).
    ///
    /// Identical to [`Trace::replay`], except a missing `RootExit`
    /// event is tolerated: the outcome then reports a
    /// `Fault("run truncated before root exit")` trap in place of an
    /// exit status. Structural divergence still fails — a crash
    /// truncates a trace, it never corrupts it.
    pub fn replay_prefix(&self) -> Result<ReplayOutcome> {
        let mut ks = KState::new(self.meta.costs, self.meta.policy);
        for ev in &self.events {
            apply(&mut ks, ev)?;
        }
        outcome_of(ks, false)
    }
}

/// Extracts the reproduced outcome from a stepped kernel state.
///
/// With `require_exit`, a state whose trace never recorded a `RootExit`
/// is structural divergence; without it (crash logs, checkpoint
/// resumes over partial suffixes) the missing exit is reported as a
/// deterministic truncation trap.
pub(crate) fn outcome_of(ks: KState, require_exit: bool) -> Result<ReplayOutcome> {
    let exit = match ks.root_exit {
        Some(exit) => exit,
        None if require_exit => {
            return Err(KernelError::ReplayDivergence("trace has no RootExit"));
        }
        None => Err(TrapKind::Fault("run truncated before root exit")),
    };
    let vclock_ns = match ks.slots.get(&0).and_then(|s| s.state.as_ref()) {
        Some(st) => ps_to_ns(st.vclock_ps),
        None => return Err(KernelError::ReplayDivergence("root state missing at exit")),
    };
    let mut spaces = Vec::new();
    let mut space_paths = Vec::new();
    for (&id, slot) in &ks.slots {
        space_paths.push((id, slot.path.clone()));
        // A non-root slot still `Running` was checked out to an
        // abandoned vehicle at shutdown; its memory was not
        // observable live either.
        if id != 0 && matches!(slot.run, RunState::Running) {
            continue;
        }
        if let Some(st) = slot.state.as_ref() {
            spaces.push(SpaceArtifact::of(id, slot.path.clone(), st));
        }
    }
    Ok(ReplayOutcome {
        exit,
        vclock_ns,
        stats: ks.stats,
        outputs: ks.outputs,
        spaces,
        space_paths,
    })
}

// ---------------------------------------------------------------------------
// Serialization.
//
// The kernel's substrate types (`Region`, `Perm`, `Regs`, …) live in
// other crates and do not implement the vendored serde traits, so the
// encoding is written out here as plain functions over `Value`.
// ---------------------------------------------------------------------------

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn tag(v: &Value) -> std::result::Result<&str, DeError> {
    match v.get("k") {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(DeError::msg("missing `k` tag")),
    }
}

pub(crate) fn v_opt<T>(o: &Option<T>, enc: impl Fn(&T) -> Value) -> Value {
    match o {
        Some(t) => enc(t),
        None => Value::Null,
    }
}

pub(crate) fn p_opt<T>(
    v: &Value,
    dec: impl Fn(&Value) -> std::result::Result<T, DeError>,
) -> std::result::Result<Option<T>, DeError> {
    match v {
        Value::Null => Ok(None),
        other => dec(other).map(Some),
    }
}

pub(crate) fn req<'a>(v: &'a Value, name: &str) -> std::result::Result<&'a Value, DeError> {
    v.get(name)
        .ok_or_else(|| DeError::msg(format!("missing field `{name}`")))
}

fn v_region(r: &Region) -> Value {
    obj(vec![
        ("start", Value::UInt(r.start)),
        ("end", Value::UInt(r.end)),
    ])
}

fn p_region(v: &Value) -> std::result::Result<Region, DeError> {
    Ok(Region {
        start: field(v, "start")?,
        end: field(v, "end")?,
    })
}

fn v_perm(p: Perm) -> Value {
    obj(vec![
        ("r", Value::Bool(p.allows(Perm::R))),
        ("w", Value::Bool(p.allows(Perm::W))),
    ])
}

fn p_perm(v: &Value) -> std::result::Result<Perm, DeError> {
    let r: bool = field(v, "r")?;
    let w: bool = field(v, "w")?;
    Ok(match (r, w) {
        (false, false) => Perm::NONE,
        (true, false) => Perm::R,
        (false, true) => Perm::W,
        (true, true) => Perm::RW,
    })
}

pub(crate) fn v_regs(r: &Regs) -> Value {
    obj(vec![
        ("pc", Value::UInt(r.pc)),
        ("gpr", r.gpr.to_vec().to_value()),
    ])
}

pub(crate) fn p_regs(v: &Value) -> std::result::Result<Regs, DeError> {
    let gpr: Vec<u64> = field(v, "gpr")?;
    let gpr: [u64; Regs::NUM_GPR] = gpr
        .try_into()
        .map_err(|_| DeError::msg("regs need exactly 16 gprs"))?;
    Ok(Regs {
        pc: field(v, "pc")?,
        gpr,
    })
}

pub(crate) fn v_policy(p: ConflictPolicy) -> Value {
    Value::Str(
        match p {
            ConflictPolicy::Strict => "strict",
            ConflictPolicy::BenignSameValue => "benign_same_value",
            ConflictPolicy::ChildWins => "child_wins",
        }
        .to_string(),
    )
}

pub(crate) fn p_policy(v: &Value) -> std::result::Result<ConflictPolicy, DeError> {
    match v {
        Value::Str(s) => match s.as_str() {
            "strict" => Ok(ConflictPolicy::Strict),
            "benign_same_value" => Ok(ConflictPolicy::BenignSameValue),
            "child_wins" => Ok(ConflictPolicy::ChildWins),
            _ => Err(DeError::msg("unknown conflict policy")),
        },
        _ => Err(DeError::msg("expected conflict policy string")),
    }
}

pub(crate) fn v_program_kind(p: ProgramKind) -> Value {
    Value::Str(
        match p {
            ProgramKind::Native => "native",
            ProgramKind::Vm => "vm",
        }
        .to_string(),
    )
}

pub(crate) fn p_program_kind(v: &Value) -> std::result::Result<ProgramKind, DeError> {
    match v {
        Value::Str(s) => match s.as_str() {
            "native" => Ok(ProgramKind::Native),
            "vm" => Ok(ProgramKind::Vm),
            _ => Err(DeError::msg("unknown program kind")),
        },
        _ => Err(DeError::msg("expected program kind string")),
    }
}

fn v_mem_error(e: &MemError) -> Value {
    match e {
        MemError::Unmapped { addr } => obj(vec![
            ("k", Value::Str("unmapped".into())),
            ("addr", Value::UInt(*addr)),
        ]),
        MemError::PermDenied { addr, need } => obj(vec![
            ("k", Value::Str("perm_denied".into())),
            ("addr", Value::UInt(*addr)),
            ("need", v_perm(*need)),
        ]),
        MemError::Misaligned { addr } => obj(vec![
            ("k", Value::Str("misaligned".into())),
            ("addr", Value::UInt(*addr)),
        ]),
        MemError::Conflict { addr } => obj(vec![
            ("k", Value::Str("conflict".into())),
            ("addr", Value::UInt(*addr)),
        ]),
        MemError::AddressOverflow => obj(vec![("k", Value::Str("overflow".into()))]),
    }
}

fn p_mem_error(v: &Value) -> std::result::Result<MemError, DeError> {
    Ok(match tag(v)? {
        "unmapped" => MemError::Unmapped {
            addr: field(v, "addr")?,
        },
        "perm_denied" => MemError::PermDenied {
            addr: field(v, "addr")?,
            need: p_perm(req(v, "need")?)?,
        },
        "misaligned" => MemError::Misaligned {
            addr: field(v, "addr")?,
        },
        "conflict" => MemError::Conflict {
            addr: field(v, "addr")?,
        },
        "overflow" => MemError::AddressOverflow,
        _ => return Err(DeError::msg("unknown mem error")),
    })
}

pub(crate) fn v_trap(t: &TrapKind) -> Value {
    match t {
        TrapKind::Mem(e) => obj(vec![
            ("k", Value::Str("mem".into())),
            ("err", v_mem_error(e)),
        ]),
        TrapKind::DivideByZero => obj(vec![("k", Value::Str("div0".into()))]),
        TrapKind::IllegalInstruction(op) => obj(vec![
            ("k", Value::Str("illegal".into())),
            ("op", Value::UInt(*op as u64)),
        ]),
        TrapKind::PcMisaligned(pc) => obj(vec![
            ("k", Value::Str("pc_misaligned".into())),
            ("pc", Value::UInt(*pc)),
        ]),
        TrapKind::Panic => obj(vec![("k", Value::Str("panic".into()))]),
        TrapKind::Conflict(addr) => obj(vec![
            ("k", Value::Str("conflict".into())),
            ("addr", Value::UInt(*addr)),
        ]),
        TrapKind::Fault(msg) => obj(vec![
            ("k", Value::Str("fault".into())),
            ("msg", Value::Str((*msg).to_string())),
        ]),
    }
}

pub(crate) fn p_trap(v: &Value) -> std::result::Result<TrapKind, DeError> {
    Ok(match tag(v)? {
        "mem" => TrapKind::Mem(p_mem_error(req(v, "err")?)?),
        "div0" => TrapKind::DivideByZero,
        "illegal" => TrapKind::IllegalInstruction(field(v, "op")?),
        "pc_misaligned" => TrapKind::PcMisaligned(field(v, "pc")?),
        "panic" => TrapKind::Panic,
        "conflict" => TrapKind::Conflict(field(v, "addr")?),
        // `TrapKind::Fault` holds a `&'static str`; a parsed trace's
        // message is interned for the process lifetime. Traces are
        // few and small, so this leak is bounded and deliberate.
        "fault" => TrapKind::Fault(Box::leak(field::<String>(v, "msg")?.into_boxed_str())),
        _ => return Err(DeError::msg("unknown trap kind")),
    })
}

pub(crate) fn v_stop(s: StopReason) -> Value {
    match s {
        StopReason::Unstarted => obj(vec![("k", Value::Str("unstarted".into()))]),
        StopReason::Ret => obj(vec![("k", Value::Str("ret".into()))]),
        StopReason::Halted => obj(vec![("k", Value::Str("halted".into()))]),
        StopReason::LimitReached => obj(vec![("k", Value::Str("limit".into()))]),
        StopReason::Trap(t) => obj(vec![("k", Value::Str("trap".into())), ("trap", v_trap(&t))]),
    }
}

pub(crate) fn p_stop(v: &Value) -> std::result::Result<StopReason, DeError> {
    Ok(match tag(v)? {
        "unstarted" => StopReason::Unstarted,
        "ret" => StopReason::Ret,
        "halted" => StopReason::Halted,
        "limit" => StopReason::LimitReached,
        "trap" => StopReason::Trap(p_trap(req(v, "trap")?)?),
        _ => return Err(DeError::msg("unknown stop reason")),
    })
}

pub(crate) fn v_delta(d: &SpaceDelta) -> Value {
    let pages = d
        .pages
        .iter()
        .map(|p| {
            let op = match &p.op {
                PageDeltaOp::Write(bytes) => obj(vec![
                    ("k", Value::Str("write".into())),
                    ("data", hex(bytes)),
                ]),
                PageDeltaOp::WriteZero => obj(vec![("k", Value::Str("zero".into()))]),
                PageDeltaOp::SetPerm => obj(vec![("k", Value::Str("perm".into()))]),
                PageDeltaOp::MarkDirty => obj(vec![("k", Value::Str("dirty".into()))]),
            };
            obj(vec![
                ("vpn", Value::UInt(p.vpn)),
                ("perm", v_perm(p.perm)),
                ("op", op),
            ])
        })
        .collect();
    obj(vec![
        ("pages", Value::Array(pages)),
        ("unmapped", d.unmapped.to_value()),
    ])
}

pub(crate) fn p_delta(v: &Value) -> std::result::Result<SpaceDelta, DeError> {
    let pages = match req(v, "pages")? {
        Value::Array(items) => items
            .iter()
            .map(|pv| {
                let opv = req(pv, "op")?;
                let op = match tag(opv)? {
                    "write" => PageDeltaOp::Write(unhex(req(opv, "data")?)?),
                    "zero" => PageDeltaOp::WriteZero,
                    "perm" => PageDeltaOp::SetPerm,
                    "dirty" => PageDeltaOp::MarkDirty,
                    _ => return Err(DeError::msg("unknown page delta op")),
                };
                Ok(PageDelta {
                    vpn: field(pv, "vpn")?,
                    perm: p_perm(req(pv, "perm")?)?,
                    op,
                })
            })
            .collect::<std::result::Result<Vec<_>, DeError>>()?,
        _ => return Err(DeError::msg("expected page delta array")),
    };
    Ok(SpaceDelta {
        pages,
        unmapped: field(v, "unmapped")?,
    })
}

fn v_entry(e: &EntryRec) -> Value {
    obj(vec![
        ("advance_ps", Value::UInt(e.advance_ps)),
        ("limit_ps", e.limit_ps.to_value()),
        ("delta", v_delta(&e.delta)),
    ])
}

fn p_entry(v: &Value) -> std::result::Result<EntryRec, DeError> {
    Ok(EntryRec {
        advance_ps: field(v, "advance_ps")?,
        limit_ps: field(v, "limit_ps")?,
        delta: p_delta(req(v, "delta")?)?,
    })
}

fn v_copy(c: &CopySpec) -> Value {
    obj(vec![("src", v_region(&c.src)), ("dst", Value::UInt(c.dst))])
}

fn p_copy(v: &Value) -> std::result::Result<CopySpec, DeError> {
    Ok(CopySpec {
        src: p_region(req(v, "src")?)?,
        dst: field(v, "dst")?,
    })
}

fn v_region_perm(rp: &(Region, Perm)) -> Value {
    obj(vec![("region", v_region(&rp.0)), ("perm", v_perm(rp.1))])
}

fn p_region_perm(v: &Value) -> std::result::Result<(Region, Perm), DeError> {
    Ok((p_region(req(v, "region")?)?, p_perm(req(v, "perm")?)?))
}

fn v_put_rec(p: &PutRec) -> Value {
    obj(vec![
        ("regs", v_opt(&p.regs, v_regs)),
        ("program", v_opt(&p.program, |k| v_program_kind(*k))),
        ("copy", v_opt(&p.copy, v_copy)),
        ("zero", v_opt(&p.zero, v_region)),
        ("perm", v_opt(&p.perm, v_region_perm)),
        ("snap", Value::Bool(p.snap)),
        ("tree_from", p.tree_from.to_value()),
        (
            "start",
            v_opt(&p.start, |s: &StartSpec| {
                obj(vec![("limit_ns", s.limit_ns.to_value())])
            }),
        ),
    ])
}

fn p_put_rec(v: &Value) -> std::result::Result<PutRec, DeError> {
    Ok(PutRec {
        regs: p_opt(req(v, "regs")?, p_regs)?,
        program: p_opt(req(v, "program")?, p_program_kind)?,
        copy: p_opt(req(v, "copy")?, p_copy)?,
        zero: p_opt(req(v, "zero")?, p_region)?,
        perm: p_opt(req(v, "perm")?, p_region_perm)?,
        snap: field(v, "snap")?,
        tree_from: field(v, "tree_from")?,
        start: p_opt(req(v, "start")?, |sv| {
            Ok(StartSpec {
                limit_ns: field(sv, "limit_ns")?,
            })
        })?,
    })
}

fn v_get_spec(g: &GetSpec) -> Value {
    obj(vec![
        ("regs", Value::Bool(g.regs)),
        ("copy", v_opt(&g.copy, v_copy)),
        ("merge", v_opt(&g.merge, v_region)),
        ("merge_policy", v_opt(&g.merge_policy, |p| v_policy(*p))),
        ("zero", v_opt(&g.zero, v_region)),
        ("perm", v_opt(&g.perm, v_region_perm)),
    ])
}

fn p_get_spec(v: &Value) -> std::result::Result<GetSpec, DeError> {
    Ok(GetSpec {
        regs: field(v, "regs")?,
        copy: p_opt(req(v, "copy")?, p_copy)?,
        merge: p_opt(req(v, "merge")?, p_region)?,
        merge_policy: p_opt(req(v, "merge_policy")?, p_policy)?,
        zero: p_opt(req(v, "zero")?, p_region)?,
        perm: p_opt(req(v, "perm")?, p_region_perm)?,
    })
}

fn v_vm_counters(c: &VmCounters) -> Value {
    obj(vec![
        ("instructions", Value::UInt(c.instructions)),
        ("tlb_hits", Value::UInt(c.tlb_hits)),
        ("pages_walked", Value::UInt(c.pages_walked)),
        ("icache_hits", Value::UInt(c.icache_hits)),
        ("icache_fills", Value::UInt(c.icache_fills)),
    ])
}

fn p_vm_counters(v: &Value) -> std::result::Result<VmCounters, DeError> {
    Ok(VmCounters {
        instructions: field(v, "instructions")?,
        tlb_hits: field(v, "tlb_hits")?,
        pages_walked: field(v, "pages_walked")?,
        icache_hits: field(v, "icache_hits")?,
        icache_fills: field(v, "icache_fills")?,
    })
}

fn v_event(ev: &TraceEvent) -> Value {
    match ev {
        TraceEvent::Put {
            caller,
            child,
            child_id,
            fused,
            entry,
            put,
            tree_new_ids,
        } => obj(vec![
            ("k", Value::Str("put".into())),
            ("caller", Value::UInt(*caller as u64)),
            ("child", Value::UInt(*child)),
            ("child_id", Value::UInt(*child_id as u64)),
            ("fused", Value::Bool(*fused)),
            ("entry", v_entry(entry)),
            ("put", v_put_rec(put)),
            ("tree_new_ids", tree_new_ids.to_value()),
        ]),
        TraceEvent::Get {
            caller,
            child,
            child_id,
            fused,
            entry,
            get,
        } => obj(vec![
            ("k", Value::Str("get".into())),
            ("caller", Value::UInt(*caller as u64)),
            ("child", Value::UInt(*child)),
            ("child_id", Value::UInt(*child_id as u64)),
            ("fused", Value::Bool(*fused)),
            ("entry", v_opt(entry, v_entry)),
            ("get", v_get_spec(get)),
        ]),
        TraceEvent::CheckIn {
            space,
            reason,
            final_stop,
            lost_state,
            regs,
            advance_ps,
            limit_ps,
            insn_delta,
            vm,
            delta,
        } => obj(vec![
            ("k", Value::Str("check_in".into())),
            ("space", Value::UInt(*space as u64)),
            ("reason", v_stop(*reason)),
            ("final", Value::Bool(*final_stop)),
            ("lost_state", Value::Bool(*lost_state)),
            ("regs", v_regs(regs)),
            ("advance_ps", Value::UInt(*advance_ps)),
            ("limit_ps", limit_ps.to_value()),
            ("insn_delta", Value::UInt(*insn_delta)),
            ("vm", v_vm_counters(vm)),
            ("delta", v_delta(delta)),
        ]),
        TraceEvent::DevRead { entry, dev, data } => obj(vec![
            ("k", Value::Str("dev_read".into())),
            ("entry", v_entry(entry)),
            ("dev", dev.to_value()),
            ("data", v_opt(data, |d| hex(d))),
        ]),
        TraceEvent::DevWrite { entry, dev, data } => obj(vec![
            ("k", Value::Str("dev_write".into())),
            ("entry", v_entry(entry)),
            ("dev", dev.to_value()),
            ("data", hex(data)),
        ]),
        TraceEvent::Checkpoint { entry, leaves } => obj(vec![
            ("k", Value::Str("checkpoint".into())),
            ("entry", v_entry(entry)),
            ("leaves", Value::UInt(*leaves)),
        ]),
        TraceEvent::RootExit { entry, regs, exit } => obj(vec![
            ("k", Value::Str("root_exit".into())),
            ("entry", v_entry(entry)),
            ("regs", v_regs(regs)),
            ("exit", v_exit(exit)),
        ]),
    }
}

pub(crate) fn v_exit(exit: &std::result::Result<i32, TrapKind>) -> Value {
    match exit {
        Ok(code) => obj(vec![("ok", Value::Int(*code as i64))]),
        Err(t) => obj(vec![("trap", v_trap(t))]),
    }
}

pub(crate) fn p_exit(
    v: &Value,
) -> std::result::Result<std::result::Result<i32, TrapKind>, DeError> {
    match (v.get("ok"), v.get("trap")) {
        (Some(code), None) => Ok(Ok(i32::from_value(code)?)),
        (None, Some(t)) => Ok(Err(p_trap(t)?)),
        _ => Err(DeError::msg("bad exit encoding")),
    }
}

fn p_event(v: &Value) -> std::result::Result<TraceEvent, DeError> {
    Ok(match tag(v)? {
        "put" => TraceEvent::Put {
            caller: field(v, "caller")?,
            child: field(v, "child")?,
            child_id: field(v, "child_id")?,
            fused: field(v, "fused")?,
            entry: p_entry(req(v, "entry")?)?,
            put: p_put_rec(req(v, "put")?)?,
            tree_new_ids: field(v, "tree_new_ids")?,
        },
        "get" => TraceEvent::Get {
            caller: field(v, "caller")?,
            child: field(v, "child")?,
            child_id: field(v, "child_id")?,
            fused: field(v, "fused")?,
            entry: p_opt(req(v, "entry")?, p_entry)?,
            get: p_get_spec(req(v, "get")?)?,
        },
        "check_in" => TraceEvent::CheckIn {
            space: field(v, "space")?,
            reason: p_stop(req(v, "reason")?)?,
            final_stop: field(v, "final")?,
            lost_state: field(v, "lost_state")?,
            regs: p_regs(req(v, "regs")?)?,
            advance_ps: field(v, "advance_ps")?,
            limit_ps: field(v, "limit_ps")?,
            insn_delta: field(v, "insn_delta")?,
            vm: p_vm_counters(req(v, "vm")?)?,
            delta: p_delta(req(v, "delta")?)?,
        },
        "dev_read" => TraceEvent::DevRead {
            entry: p_entry(req(v, "entry")?)?,
            dev: DeviceId::from_value(req(v, "dev")?)?,
            data: p_opt(req(v, "data")?, unhex)?,
        },
        "dev_write" => TraceEvent::DevWrite {
            entry: p_entry(req(v, "entry")?)?,
            dev: DeviceId::from_value(req(v, "dev")?)?,
            data: unhex(req(v, "data")?)?,
        },
        "checkpoint" => TraceEvent::Checkpoint {
            entry: p_entry(req(v, "entry")?)?,
            leaves: field(v, "leaves")?,
        },
        "root_exit" => TraceEvent::RootExit {
            entry: p_entry(req(v, "entry")?)?,
            regs: p_regs(req(v, "regs")?)?,
            exit: p_exit(req(v, "exit")?)?,
        },
        _ => return Err(DeError::msg("unknown trace event")),
    })
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        v_event(self)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> std::result::Result<TraceEvent, DeError> {
        p_event(v)
    }
}

impl Serialize for Trace {
    fn to_value(&self) -> Value {
        obj(vec![
            (
                "meta",
                obj(vec![
                    ("costs", self.meta.costs.to_value()),
                    ("policy", v_policy(self.meta.policy)),
                ]),
            ),
            (
                "events",
                Value::Array(self.events.iter().map(v_event).collect()),
            ),
        ])
    }
}

impl Deserialize for Trace {
    fn from_value(v: &Value) -> std::result::Result<Trace, DeError> {
        let mv = req(v, "meta")?;
        let meta = TraceMeta {
            costs: field(mv, "costs")?,
            policy: p_policy(req(mv, "policy")?)?,
        };
        let events = match req(v, "events")? {
            Value::Array(items) => items
                .iter()
                .map(p_event)
                .collect::<std::result::Result<Vec<_>, DeError>>()?,
            _ => return Err(DeError::msg("expected event array")),
        };
        Ok(Trace { meta, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_roundtrip() {
        let trace = Trace {
            meta: TraceMeta {
                costs: CostModel::default(),
                policy: ConflictPolicy::Strict,
            },
            events: vec![
                TraceEvent::Put {
                    caller: 0,
                    child: 7,
                    child_id: 1,
                    fused: false,
                    entry: EntryRec {
                        advance_ps: 123,
                        limit_ps: Some(99),
                        delta: SpaceDelta {
                            pages: vec![
                                PageDelta {
                                    vpn: 4,
                                    perm: Perm::RW,
                                    op: PageDeltaOp::Write(vec![0xde, 0xad, 0x00]),
                                },
                                PageDelta {
                                    vpn: 5,
                                    perm: Perm::R,
                                    op: PageDeltaOp::WriteZero,
                                },
                                PageDelta {
                                    vpn: 6,
                                    perm: Perm::NONE,
                                    op: PageDeltaOp::SetPerm,
                                },
                            ],
                            unmapped: vec![42],
                        },
                    },
                    put: PutRec {
                        regs: Some(Regs::default()),
                        program: Some(ProgramKind::Vm),
                        copy: Some(CopySpec {
                            src: Region::new(0x1000, 0x2000),
                            dst: 0x1000,
                        }),
                        zero: None,
                        perm: Some((Region::new(0, 0x1000), Perm::R)),
                        snap: true,
                        tree_from: None,
                        start: Some(StartSpec {
                            limit_ns: Some(1_000),
                        }),
                    },
                    tree_new_ids: vec![2, 3],
                },
                TraceEvent::Get {
                    caller: 0,
                    child: 7,
                    child_id: 1,
                    fused: true,
                    entry: None,
                    get: GetSpec {
                        regs: true,
                        merge: Some(Region::new(0x1000, 0x2000)),
                        merge_policy: Some(ConflictPolicy::ChildWins),
                        ..GetSpec::default()
                    },
                },
                TraceEvent::CheckIn {
                    space: 1,
                    reason: StopReason::Trap(TrapKind::Fault("undefined syscall")),
                    final_stop: true,
                    lost_state: false,
                    regs: Regs::default(),
                    advance_ps: 55,
                    limit_ps: None,
                    insn_delta: 9,
                    vm: VmCounters {
                        instructions: 9,
                        tlb_hits: 8,
                        pages_walked: 1,
                        icache_hits: 7,
                        icache_fills: 2,
                    },
                    delta: SpaceDelta::default(),
                },
                TraceEvent::DevRead {
                    entry: EntryRec::default(),
                    dev: DeviceId::Clock,
                    data: Some(vec![1, 2, 3]),
                },
                TraceEvent::DevWrite {
                    entry: EntryRec::default(),
                    dev: DeviceId::ConsoleOut,
                    data: b"hi".to_vec(),
                },
                TraceEvent::Checkpoint {
                    entry: EntryRec {
                        advance_ps: 77,
                        limit_ps: None,
                        delta: SpaceDelta::default(),
                    },
                    leaves: 3,
                },
                TraceEvent::RootExit {
                    entry: EntryRec::default(),
                    regs: Regs::default(),
                    exit: Err(TrapKind::Mem(MemError::PermDenied {
                        addr: 0x4001,
                        need: Perm::W,
                    })),
                },
            ],
        };
        let json = trace.to_json_pretty();
        let back = Trace::from_json(&json).expect("parses back");
        assert_eq!(back, trace);
        // Compact form too.
        assert_eq!(Trace::from_json(&trace.to_json()).unwrap(), trace);
    }

    #[test]
    fn empty_trace_has_no_root_exit() {
        let trace = Trace {
            meta: TraceMeta {
                costs: CostModel::zero(),
                policy: ConflictPolicy::Strict,
            },
            events: Vec::new(),
        };
        assert!(trace.is_empty());
        assert!(matches!(
            trace.replay(),
            Err(KernelError::ReplayDivergence(_))
        ));
    }

    /// Traces written before VM spaces lost their vehicle choice carry
    /// a `vm_dispatch` meta key. Decoding ignores it — whatever its
    /// value — and yields a typed result, never a panic.
    #[test]
    fn legacy_vm_dispatch_key_decodes() {
        let trace = Trace {
            meta: TraceMeta {
                costs: CostModel::zero(),
                policy: ConflictPolicy::Strict,
            },
            events: Vec::new(),
        };
        let json = trace.to_json();
        for legacy in [r#""inline""#, r#""threaded""#, "7", "null"] {
            let old = json.replacen(
                r#""policy":"#,
                &format!(r#""vm_dispatch":{legacy},"policy":"#),
                1,
            );
            assert_ne!(old, json);
            assert_eq!(Trace::from_json(&old).unwrap(), trace, "{legacy}");
        }
    }
}
