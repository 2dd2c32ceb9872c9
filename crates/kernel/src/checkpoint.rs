//! Deterministic checkpoint/restore bundles.
//!
//! A [`Checkpoint`] is a byte-stable snapshot of the pure kernel state
//! at a *rendezvous boundary* — an index into a recorded trace's event
//! sequence. The bundle serializes the whole
//! [`KState`](crate::state::KState) (every slot, its checked-in space
//! state, device outputs, deterministic stats) with each space's
//! memory encoded through the existing delta machinery
//! ([`AddressSpace::delta_since`] / [`AddressSpace::apply_delta`]):
//!
//! * **Full** encoding — the delta against an empty space, partitioned
//!   into clean and dirty pages so the restored space reproduces not
//!   just bytes and permissions but the exact dirty write-set and
//!   zero-frame sharing (both observable downstream, by merges and by
//!   checkpoint-cost accounting). Cost: O(touched leaves).
//! * **Incremental** encoding — the delta against the same space's
//!   image at the *previous* checkpoint, linked to it by digest
//!   ([`Checkpoint::parent`]). Cost: O(dirty leaves since the parent).
//!
//! Restoring a checkpoint and resuming the trace suffix is, by
//! construction, the same computation as replaying the whole trace:
//! both fold the identical event sequence through the pure
//! [`apply`](crate::apply) — the restore merely enters the fold at
//! event `boundary` with the serialized intermediate state instead of
//! at event 0 with the initial state. The crash-recovery conformance
//! scenarios (`crates/conform`) check the resulting bundle equality
//! byte-for-byte; DESIGN.md §9 gives the argument in full.
//!
//! Integrity: the bundle carries a format version and an FNV-1a
//! digest over the payload. A stale version fails with
//! [`KernelError::CheckpointVersion`] before anything is parsed; any
//! bit flip in the payload fails with
//! [`KernelError::CheckpointCorrupt`].
//!
//! One subtlety — *restorable* boundaries: a space's merge snapshot
//! (`snap`) is deliberately **not** serialized (a snapshot is an alias
//! web into the live frame graph; serializing it would destroy the
//! sharing that makes merges O(dirty)). A boundary is therefore
//! restorable only if no suffix merge depends on a prefix snapshot,
//! i.e. every merge-bearing `Get` in the suffix is preceded *within
//! the suffix* by a snap-bearing `Put` for the same child.
//! [`latest_restorable_boundary`] computes the latest such boundary at
//! or below a requested cut; boundary 0 (full replay) always
//! qualifies.

use std::collections::{BTreeMap, BTreeSet};

use det_memory::{AddressSpace, MergeStats, SpaceDelta};
use serde::{DeError, Deserialize, Serialize, Value, field};

use crate::apply::{TraceEvent, apply};
use crate::error::{KernelError, Result};
use crate::hex::{hex, unhex};
use crate::state::{KSlot, KState, RunState, SpaceState};
use crate::stats::KernelStats;
use crate::trace::{
    ReplayOutcome, Trace, TraceMeta, obj, outcome_of, p_delta, p_exit, p_opt, p_policy,
    p_program_kind, p_regs, p_stop, req, tag, v_delta, v_exit, v_opt, v_policy, v_program_kind,
    v_regs, v_stop,
};

/// The checkpoint bundle format this build writes and reads.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

const MAGIC: &str = "detckpt";

/// FNV-1a over the payload bytes — the bundle's integrity digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A serialized kernel state at a rendezvous boundary.
///
/// Produce one with [`Checkpoint::capture`] (one-shot, full) or a
/// [`Checkpointer`] (streaming, incremental); turn it back into a
/// running point with [`Checkpoint::restore`] /
/// [`restore_chain`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    version: u32,
    boundary: u64,
    parent: Option<u64>,
    digest: u64,
    payload: String,
}

impl Checkpoint {
    /// The bundle format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The trace-event index this checkpoint was taken at: events
    /// `[0, boundary)` are baked in; resume feeds `[boundary, ..)`.
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// The digest of the parent checkpoint an incremental bundle's
    /// memory deltas are relative to; `None` for a full bundle.
    pub fn parent(&self) -> Option<u64> {
        self.parent
    }

    /// The FNV-1a integrity digest over the payload.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Captures a *full* checkpoint of `trace` at event index
    /// `boundary` by replaying the prefix through the pure core.
    ///
    /// The caller is responsible for picking a restorable boundary
    /// (see [`latest_restorable_boundary`]); capture itself succeeds
    /// at any structurally-valid prefix.
    pub fn capture(trace: &Trace, boundary: usize) -> Result<Checkpoint> {
        let events = trace
            .events
            .get(..boundary)
            .ok_or(KernelError::CheckpointMalformed(
                "boundary beyond trace end",
            ))?;
        let mut cp = Checkpointer::new(&trace.meta);
        for ev in events {
            cp.feed(ev)?;
        }
        Ok(cp.capture())
    }

    /// The canonical byte encoding: one ASCII header line
    /// (`detckpt <version> <digest>`), then the JSON payload.
    ///
    /// Byte-stable: two captures of the same trace prefix produce
    /// identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!(
            "{MAGIC} {} {:016x}\n{}",
            self.version, self.digest, self.payload
        )
        .into_bytes()
    }

    /// Parses and *verifies* a bundle: magic and header shape, then
    /// format version, then the integrity digest, then payload
    /// structure (boundary and parent link).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| KernelError::CheckpointMalformed("bundle is not utf-8"))?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or(KernelError::CheckpointMalformed("missing header line"))?;
        let mut parts = header.split(' ');
        if parts.next() != Some(MAGIC) {
            return Err(KernelError::CheckpointMalformed("bad magic"));
        }
        let version: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(KernelError::CheckpointMalformed("bad version field"))?;
        // Version gates everything downstream: a future format may
        // change the digest basis or payload shape, so it must fail
        // here, cleanly, not as corruption.
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(KernelError::CheckpointVersion {
                found: version,
                supported: CHECKPOINT_FORMAT_VERSION,
            });
        }
        let expected = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or(KernelError::CheckpointMalformed("bad digest field"))?;
        if parts.next().is_some() {
            return Err(KernelError::CheckpointMalformed("trailing header fields"));
        }
        let actual = fnv1a64(payload.as_bytes());
        if actual != expected {
            return Err(KernelError::CheckpointCorrupt { expected, actual });
        }
        // Digest verified; the payload is authentic, so structural
        // errors past this point mean a producer bug, not tampering.
        let v: Value = serde_json::from_str(payload)
            .map_err(|_| KernelError::CheckpointMalformed("payload is not valid JSON"))?;
        let boundary: u64 = field(&v, "boundary")
            .map_err(|_| KernelError::CheckpointMalformed("payload missing boundary"))?;
        let parent: Option<u64> = field(&v, "parent")
            .map_err(|_| KernelError::CheckpointMalformed("payload missing parent link"))?;
        Ok(Checkpoint {
            version,
            boundary,
            parent,
            digest: expected,
            payload: payload.to_string(),
        })
    }

    /// Restores this bundle into a resumable kernel state.
    ///
    /// Only full bundles restore standalone; an incremental bundle
    /// needs its ancestry — use [`restore_chain`].
    pub fn restore(&self) -> Result<RestoredKernel> {
        restore_chain(std::slice::from_ref(self))
    }
}

/// Restores a full checkpoint followed by its incremental descendants
/// (each linked to its predecessor by [`Checkpoint::parent`]).
pub fn restore_chain(chain: &[Checkpoint]) -> Result<RestoredKernel> {
    let first = chain
        .first()
        .ok_or(KernelError::CheckpointMalformed("empty checkpoint chain"))?;
    if first.parent.is_some() {
        return Err(KernelError::CheckpointMalformed(
            "chain does not start at a full checkpoint",
        ));
    }
    let mut ks: Option<KState> = None;
    let mut prev_digest = None;
    for ckpt in chain {
        if ckpt.parent != prev_digest {
            return Err(KernelError::CheckpointMalformed(
                "broken parent link in checkpoint chain",
            ));
        }
        let v: Value = serde_json::from_str(&ckpt.payload)
            .map_err(|_| KernelError::CheckpointMalformed("payload is not valid JSON"))?;
        ks = Some(
            p_kstate(&v, ks.as_ref())
                .map_err(|_| KernelError::CheckpointMalformed("payload does not decode"))?,
        );
        prev_digest = Some(ckpt.digest);
    }
    let last = chain.last().expect("nonempty");
    Ok(RestoredKernel {
        ks: ks.expect("nonempty chain decoded"),
        boundary: last.boundary,
    })
}

/// A kernel state restored from a checkpoint, ready to resume.
pub struct RestoredKernel {
    ks: KState,
    boundary: u64,
}

impl RestoredKernel {
    /// The event index the state was captured at (resume feeds the
    /// trace's events from this index on).
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// The run parameters baked into the restored state.
    pub fn meta(&self) -> TraceMeta {
        TraceMeta {
            costs: self.ks.costs,
            policy: self.ks.policy,
        }
    }

    /// Resumes by folding the trace suffix through the pure core —
    /// the second half of the recovery ≡ replay identity. The suffix
    /// must reach the root exit (it is the tail of a complete run).
    pub fn resume(self, suffix: &[TraceEvent]) -> Result<ReplayOutcome> {
        let mut ks = self.ks;
        for ev in suffix {
            apply(&mut ks, ev)?;
        }
        outcome_of(ks, true)
    }
}

impl crate::Kernel {
    /// Captures a full [`Checkpoint`] of a recorded trace at
    /// `boundary` (convenience alias of [`Checkpoint::capture`]).
    pub fn checkpoint(trace: &Trace, boundary: usize) -> Result<Checkpoint> {
        Checkpoint::capture(trace, boundary)
    }

    /// Restores a checkpoint into a resumable kernel state
    /// (convenience alias of [`Checkpoint::restore`]).
    pub fn restore(ckpt: &Checkpoint) -> Result<RestoredKernel> {
        ckpt.restore()
    }
}

/// The latest restorable boundary at or below `at_most`.
///
/// A boundary `j` is restorable iff no merge-bearing `Get` at suffix
/// index `m >= j` depends on a snap-bearing `Put` at prefix index
/// `s < j` (checkpoints do not serialize merge snapshots — see the
/// module docs). For each merge at `m` whose child's latest snapshot
/// was taken at `s`, the interval `(s, m]` is excluded; a merge with
/// no prior snapshot excludes nothing (it faulted `NoSnapshot` live,
/// and re-derives the same fault from any restore point). Boundary 0
/// is always restorable.
pub fn latest_restorable_boundary(trace: &Trace, at_most: usize) -> usize {
    let mut last_snap: BTreeMap<u32, usize> = BTreeMap::new();
    let mut excluded: Vec<(usize, usize)> = Vec::new();
    for (i, ev) in trace.events.iter().enumerate() {
        match ev {
            TraceEvent::Put { child_id, put, .. } if put.snap => {
                last_snap.insert(*child_id, i);
            }
            TraceEvent::Get { child_id, get, .. } if get.merge.is_some() => {
                if let Some(&s) = last_snap.get(child_id) {
                    excluded.push((s + 1, i));
                }
            }
            _ => {}
        }
    }
    let mut j = at_most.min(trace.events.len());
    loop {
        match excluded
            .iter()
            .filter(|&&(lo, hi)| j >= lo && j <= hi)
            .map(|&(lo, _)| lo)
            .min()
        {
            // Jump below the lowest excluding interval in one step.
            Some(lo) => j = lo - 1,
            None => return j,
        }
    }
}

/// Streaming checkpoint producer: feed it the trace events in order
/// and capture bundles at chosen boundaries. The first capture is
/// full; later captures are incremental — each space's memory encoded
/// as a delta against its image at the previous capture (cost
/// proportional to the dirty leaves since then), except spaces whose
/// delta basis was invalidated in between (created, snapshotted,
/// merged into, or state-replaced), which are re-encoded in full.
pub struct Checkpointer {
    ks: KState,
    fed: u64,
    /// Capture count (first capture emits a full bundle).
    captures: u64,
    /// Digest of the previous capture — the next bundle's parent link.
    parent: Option<u64>,
    /// Per-space memory image at the previous capture. Present iff the
    /// space can be delta-encoded against it; invalidated (removed)
    /// when an event breaks `delta_since`'s preconditions.
    bases: BTreeMap<u32, AddressSpace>,
}

impl Checkpointer {
    /// A checkpointer over a run with these parameters, positioned
    /// before the first event.
    pub fn new(meta: &TraceMeta) -> Checkpointer {
        Checkpointer {
            ks: KState::new(meta.costs, meta.policy),
            fed: 0,
            captures: 0,
            parent: None,
            bases: BTreeMap::new(),
        }
    }

    /// The number of events fed so far — the boundary the next
    /// [`Checkpointer::capture`] stamps.
    pub fn boundary(&self) -> u64 {
        self.fed
    }

    /// Advances the shadow state by one recorded event.
    pub fn feed(&mut self, ev: &TraceEvent) -> Result<()> {
        // Invalidate delta bases *before* applying: a snapshot clears
        // the dirty set (breaking `delta_since`'s precondition
        // outright); a merge adopts foreign frames into the caller and
        // a lost-state check-in replaces the image wholesale (both
        // delta-encodable in principle, invalidated out of caution —
        // correctness over compactness).
        match ev {
            TraceEvent::Put { child_id, put, .. } if put.snap || put.tree_from.is_some() => {
                self.bases.remove(child_id);
            }
            TraceEvent::Get { caller, get, .. } if get.merge.is_some() => {
                self.bases.remove(caller);
            }
            TraceEvent::CheckIn {
                space,
                lost_state: true,
                ..
            } => {
                self.bases.remove(space);
            }
            _ => {}
        }
        apply(&mut self.ks, ev)?;
        self.fed += 1;
        Ok(())
    }

    /// Captures a bundle at the current boundary: full on the first
    /// call, incremental (delta against the previous capture) after.
    pub fn capture(&mut self) -> Checkpoint {
        let incremental = self.captures > 0;
        let parent = if incremental { self.parent } else { None };
        let payload_v = v_kstate(
            &self.ks,
            self.fed,
            parent,
            if incremental { Some(&self.bases) } else { None },
        );
        let payload = serde_json::to_string(&payload_v).expect("checkpoint encoding is infallible");
        let digest = fnv1a64(payload.as_bytes());
        // Re-base every space on this capture's image.
        self.bases = self
            .ks
            .slots
            .iter()
            .filter_map(|(&id, slot)| slot.state.as_ref().map(|st| (id, st.mem.clone())))
            .collect();
        self.captures += 1;
        self.parent = Some(digest);
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            boundary: self.fed,
            parent,
            digest,
            payload,
        }
    }
}

// ---------------------------------------------------------------------------
// KState codec.
//
// Same hand-written Value encoding style as the trace codec (the
// substrate types implement no serde traits); field order is fixed, so
// the rendered payload is byte-stable.
// ---------------------------------------------------------------------------

fn v_mem_full(mem: &AddressSpace) -> Value {
    // Against an empty base, every mapped page appears as a
    // Write/WriteZero op; partitioning by the live dirty set lets the
    // decoder reproduce the exact dirty write-set (clean pages applied
    // first, marks cleared, dirty pages applied after).
    let full = mem.delta_since(&AddressSpace::new());
    let dirty: BTreeSet<u64> = mem.dirty_vpns().into_iter().collect();
    let mut clean = SpaceDelta::default();
    let mut dirt = SpaceDelta::default();
    for p in full.pages {
        if dirty.contains(&p.vpn) {
            dirt.pages.push(p);
        } else {
            clean.pages.push(p);
        }
    }
    obj(vec![
        ("k", Value::Str("full".into())),
        ("clean", v_delta(&clean)),
        ("dirty", v_delta(&dirt)),
    ])
}

fn v_mem_delta(delta: &SpaceDelta) -> Value {
    obj(vec![
        ("k", Value::Str("delta".into())),
        ("delta", v_delta(delta)),
    ])
}

fn p_mem(v: &Value, prev: Option<&AddressSpace>) -> std::result::Result<AddressSpace, DeError> {
    match tag(v)? {
        "full" => {
            let clean = p_delta(req(v, "clean")?)?;
            let dirt = p_delta(req(v, "dirty")?)?;
            let mut mem = AddressSpace::new();
            mem.apply_delta(&clean)
                .map_err(|_| DeError::msg("bad clean delta"))?;
            mem.clear_dirty();
            mem.apply_delta(&dirt)
                .map_err(|_| DeError::msg("bad dirty delta"))?;
            Ok(mem)
        }
        "delta" => {
            let delta = p_delta(req(v, "delta")?)?;
            let mut mem = prev
                .ok_or_else(|| DeError::msg("incremental memory without a parent image"))?
                .clone();
            mem.apply_delta(&delta)
                .map_err(|_| DeError::msg("bad incremental delta"))?;
            Ok(mem)
        }
        _ => Err(DeError::msg("unknown memory encoding")),
    }
}

fn v_space_state(st: &SpaceState, mem: Value) -> Value {
    // `snap` is intentionally absent — see the module docs on
    // restorable boundaries.
    obj(vec![
        ("regs", v_regs(&st.regs)),
        ("mem", mem),
        ("vclock_ps", Value::UInt(st.vclock_ps)),
        ("limit_ps", st.limit_ps.to_value()),
        ("insn_count", Value::UInt(st.insn_count)),
        ("home_node", Value::UInt(st.home_node as u64)),
        ("cur_node", Value::UInt(st.cur_node as u64)),
    ])
}

fn p_space_state(
    v: &Value,
    prev_mem: Option<&AddressSpace>,
) -> std::result::Result<SpaceState, DeError> {
    Ok(SpaceState {
        regs: p_regs(req(v, "regs")?)?,
        mem: p_mem(req(v, "mem")?, prev_mem)?,
        snap: None,
        vclock_ps: field(v, "vclock_ps")?,
        limit_ps: field(v, "limit_ps")?,
        insn_count: field(v, "insn_count")?,
        home_node: field(v, "home_node")?,
        cur_node: field(v, "cur_node")?,
    })
}

fn v_run(r: &RunState) -> Value {
    match r {
        RunState::Idle(stop) => obj(vec![
            ("k", Value::Str("idle".into())),
            ("stop", v_stop(*stop)),
        ]),
        RunState::Runnable => obj(vec![("k", Value::Str("runnable".into()))]),
        RunState::Running => obj(vec![("k", Value::Str("running".into()))]),
        RunState::Destroyed => obj(vec![("k", Value::Str("destroyed".into()))]),
    }
}

fn p_run(v: &Value) -> std::result::Result<RunState, DeError> {
    Ok(match tag(v)? {
        "idle" => RunState::Idle(p_stop(req(v, "stop")?)?),
        "runnable" => RunState::Runnable,
        "running" => RunState::Running,
        "destroyed" => RunState::Destroyed,
        _ => return Err(DeError::msg("unknown run state")),
    })
}

fn v_pairs<K: Copy + Into<u64>, V2: Copy + Into<u64>>(map: &BTreeMap<K, V2>) -> Value {
    Value::Array(
        map.iter()
            .map(|(&k, &v)| Value::Array(vec![Value::UInt(k.into()), Value::UInt(v.into())]))
            .collect(),
    )
}

fn p_pairs<K: Ord + TryFrom<u64>, V2: TryFrom<u64>>(
    v: &Value,
) -> std::result::Result<BTreeMap<K, V2>, DeError> {
    let items = match v {
        Value::Array(items) => items,
        _ => return Err(DeError::msg("expected pair array")),
    };
    let mut map = BTreeMap::new();
    for item in items {
        let pair: Vec<u64> = Vec::from_value(item)?;
        if pair.len() != 2 {
            return Err(DeError::msg("expected [key, value] pair"));
        }
        let k = K::try_from(pair[0]).map_err(|_| DeError::msg("pair key out of range"))?;
        let val = V2::try_from(pair[1]).map_err(|_| DeError::msg("pair value out of range"))?;
        map.insert(k, val);
    }
    Ok(map)
}

fn v_slot(slot: &KSlot, mem: Option<Value>) -> Value {
    let state = match (slot.state.as_deref(), mem) {
        (Some(st), Some(mem)) => v_space_state(st, mem),
        _ => Value::Null,
    };
    obj(vec![
        ("children", v_pairs(&slot.children)),
        ("path", Value::Str(slot.path.clone())),
        ("child_gens", v_pairs(&slot.child_gens)),
        ("run", v_run(&slot.run)),
        ("state", state),
        ("pending", v_opt(&slot.pending, |p| v_program_kind(*p))),
        ("has_vehicle", Value::Bool(slot.has_vehicle)),
        ("inline_vm", Value::Bool(slot.inline_vm)),
        ("terminal", Value::Bool(slot.terminal)),
    ])
}

fn p_slot(v: &Value, prev_mem: Option<&AddressSpace>) -> std::result::Result<KSlot, DeError> {
    let state = match req(v, "state")? {
        Value::Null => None,
        sv => Some(Box::new(p_space_state(sv, prev_mem)?)),
    };
    Ok(KSlot {
        children: p_pairs(req(v, "children")?)?,
        path: field(v, "path")?,
        child_gens: p_pairs(req(v, "child_gens")?)?,
        run: p_run(req(v, "run")?)?,
        state,
        pending: p_opt(req(v, "pending")?, p_program_kind)?,
        has_vehicle: field(v, "has_vehicle")?,
        inline_vm: field(v, "inline_vm")?,
        terminal: field(v, "terminal")?,
    })
}

fn v_merge_stats(m: &MergeStats) -> Value {
    obj(vec![
        ("pages_scanned", Value::UInt(m.pages_scanned)),
        ("pages_skipped_clean", Value::UInt(m.pages_skipped_clean)),
        ("pages_unchanged", Value::UInt(m.pages_unchanged)),
        ("pages_skipped_shared", Value::UInt(m.pages_skipped_shared)),
        ("pages_aliased", Value::UInt(m.pages_aliased)),
        ("pages_diffed", Value::UInt(m.pages_diffed)),
        ("words_compared", Value::UInt(m.words_compared)),
        ("bytes_compared", Value::UInt(m.bytes_compared)),
        ("bytes_copied", Value::UInt(m.bytes_copied)),
        ("pages_mapped", Value::UInt(m.pages_mapped)),
    ])
}

fn p_merge_stats(v: &Value) -> std::result::Result<MergeStats, DeError> {
    Ok(MergeStats {
        pages_scanned: field(v, "pages_scanned")?,
        pages_skipped_clean: field(v, "pages_skipped_clean")?,
        pages_unchanged: field(v, "pages_unchanged")?,
        pages_skipped_shared: field(v, "pages_skipped_shared")?,
        pages_aliased: field(v, "pages_aliased")?,
        pages_diffed: field(v, "pages_diffed")?,
        words_compared: field(v, "words_compared")?,
        bytes_compared: field(v, "bytes_compared")?,
        bytes_copied: field(v, "bytes_copied")?,
        pages_mapped: field(v, "pages_mapped")?,
    })
}

/// Encodes the whole kernel state. `bases` selects incremental memory
/// encoding: spaces with a base image are delta-encoded against it,
/// everything else (and everything, when `bases` is `None`) in full.
fn v_kstate(
    ks: &KState,
    boundary: u64,
    parent: Option<u64>,
    bases: Option<&BTreeMap<u32, AddressSpace>>,
) -> Value {
    let slots = ks
        .slots
        .iter()
        .map(|(&id, slot)| {
            let mem = slot
                .state
                .as_deref()
                .map(|st| match bases.and_then(|b| b.get(&id)) {
                    Some(base) => v_mem_delta(&st.mem.delta_since(base)),
                    None => v_mem_full(&st.mem),
                });
            Value::Array(vec![Value::UInt(id as u64), v_slot(slot, mem)])
        })
        .collect();
    let outputs = ks
        .outputs
        .iter()
        .map(|(dev, bytes)| Value::Array(vec![dev.to_value(), hex(bytes)]))
        .collect();
    obj(vec![
        ("boundary", Value::UInt(boundary)),
        ("parent", parent.to_value()),
        (
            "meta",
            obj(vec![
                ("costs", ks.costs.to_value()),
                ("policy", v_policy(ks.policy)),
            ]),
        ),
        ("slots", Value::Array(slots)),
        ("stats", ks.stats.to_value()),
        ("merge_totals", v_merge_stats(&ks.stats.merge_totals.0)),
        ("outputs", Value::Array(outputs)),
        ("root_exit", v_opt(&ks.root_exit, v_exit)),
    ])
}

/// Decodes a payload into a kernel state; `prev` supplies the parent
/// images incremental memory deltas apply to.
fn p_kstate(v: &Value, prev: Option<&KState>) -> std::result::Result<KState, DeError> {
    let mv = req(v, "meta")?;
    let costs = field(mv, "costs")?;
    let policy = p_policy(req(mv, "policy")?)?;
    let mut slots = BTreeMap::new();
    match req(v, "slots")? {
        Value::Array(items) => {
            for item in items {
                let pair = match item {
                    Value::Array(p) if p.len() == 2 => p,
                    _ => return Err(DeError::msg("expected [id, slot] pair")),
                };
                let id = u32::from_value(&pair[0])?;
                let prev_mem = prev
                    .and_then(|p| p.slots.get(&id))
                    .and_then(|s| s.state.as_deref())
                    .map(|st| &st.mem);
                slots.insert(id, p_slot(&pair[1], prev_mem)?);
            }
        }
        _ => return Err(DeError::msg("expected slot array")),
    }
    let mut stats: KernelStats = field(v, "stats")?;
    stats.merge_totals.0 = p_merge_stats(req(v, "merge_totals")?)?;
    let mut outputs = BTreeMap::new();
    match req(v, "outputs")? {
        Value::Array(items) => {
            for item in items {
                let pair = match item {
                    Value::Array(p) if p.len() == 2 => p,
                    _ => return Err(DeError::msg("expected [device, bytes] pair")),
                };
                let dev = crate::device::DeviceId::from_value(&pair[0])?;
                outputs.insert(dev, unhex(&pair[1])?);
            }
        }
        _ => return Err(DeError::msg("expected output array")),
    }
    Ok(KState {
        costs,
        policy,
        slots,
        stats,
        outputs,
        root_exit: p_opt(req(v, "root_exit")?, p_exit)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use det_memory::{Perm, Region};

    #[test]
    fn digest_rejects_single_bit_corruption() {
        let trace = Trace {
            meta: TraceMeta {
                costs: crate::CostModel::default(),
                policy: det_memory::ConflictPolicy::Strict,
            },
            events: Vec::new(),
        };
        let ckpt = Checkpoint::capture(&trace, 0).unwrap();
        let mut bytes = ckpt.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), ckpt);
        // Flip one bit somewhere inside the payload.
        let n = bytes.len();
        bytes[n - 10] ^= 0x01;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(KernelError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn stale_format_version_errors_cleanly() {
        let trace = Trace {
            meta: TraceMeta {
                costs: crate::CostModel::zero(),
                policy: det_memory::ConflictPolicy::Strict,
            },
            events: Vec::new(),
        };
        let bytes = Checkpoint::capture(&trace, 0).unwrap().to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        // Version 1 bundles still carried the removed `vm_dispatch`
        // meta key; they are rejected before anything is parsed.
        let current = format!("{MAGIC} {CHECKPOINT_FORMAT_VERSION} ");
        let stale = text.replacen(&current, "detckpt 1 ", 1);
        assert_ne!(stale, text);
        match Checkpoint::from_bytes(stale.as_bytes()) {
            Err(KernelError::CheckpointVersion { found, supported }) => {
                assert_eq!(found, 1);
                assert_eq!(supported, CHECKPOINT_FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bundles_error_cleanly() {
        assert!(matches!(
            Checkpoint::from_bytes(b"\xff\xfe"),
            Err(KernelError::CheckpointMalformed(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"nope 1 0\n{}"),
            Err(KernelError::CheckpointMalformed(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"detckpt x 0\n{}"),
            Err(KernelError::CheckpointMalformed(_))
        ));
    }

    #[test]
    fn full_memory_encoding_roundtrips_dirty_and_zero_pages() {
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0x1000, 0x4000), Perm::RW).unwrap();
        mem.write_u64(0x1000, 0xdead_beef).unwrap();
        // Page at 0x2000 stays a clean zero page; 0x3000 a dirty one.
        mem.write_u8(0x3000, 0).unwrap();
        let v = v_mem_full(&mem);
        let back = p_mem(&v, None).unwrap();
        assert_eq!(back.content_digest(), mem.content_digest());
        assert_eq!(back.dirty_vpns(), mem.dirty_vpns());
        assert_eq!(back.dirty_leaf_count(), mem.dirty_leaf_count());
        assert_eq!(back.page_digests(), mem.page_digests());
    }

    #[test]
    fn restorable_boundary_excludes_snap_to_merge_windows() {
        use crate::apply::{EntryRec, PutRec};
        use crate::syscall::GetSpec;
        let put = |snap: bool| TraceEvent::Put {
            caller: 0,
            child: 1,
            child_id: 1,
            fused: false,
            entry: EntryRec::default(),
            put: PutRec {
                regs: None,
                program: None,
                copy: None,
                zero: None,
                perm: None,
                snap,
                tree_from: None,
                start: None,
            },
            tree_new_ids: Vec::new(),
        };
        let get = |merge: bool| TraceEvent::Get {
            caller: 0,
            child: 1,
            child_id: 1,
            fused: false,
            entry: Some(EntryRec::default()),
            get: GetSpec {
                merge: merge.then(|| Region::new(0x1000, 0x2000)),
                ..GetSpec::default()
            },
        };
        let trace = Trace {
            meta: TraceMeta {
                costs: crate::CostModel::zero(),
                policy: det_memory::ConflictPolicy::Strict,
            },
            // 0: snap-put, 1: plain get, 2: merge-get, 3: plain put.
            events: vec![put(true), get(false), get(true), put(false)],
        };
        // Boundaries 1 and 2 sit inside the snapshot→merge window.
        assert_eq!(latest_restorable_boundary(&trace, 4), 4);
        assert_eq!(latest_restorable_boundary(&trace, 3), 3);
        assert_eq!(latest_restorable_boundary(&trace, 2), 0);
        assert_eq!(latest_restorable_boundary(&trace, 1), 0);
        assert_eq!(latest_restorable_boundary(&trace, 0), 0);
    }
}
