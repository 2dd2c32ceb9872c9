//! Kernel operation counters.

use det_memory::MergeStats;
use serde::{Deserialize, Serialize};

/// Counts of kernel operations over a run.
///
/// Every field is deterministic: its final value is a pure function
/// of the kernel-mediated event history, so trace replay, checkpoint
/// restore and the conformance harness compare the whole vector
/// byte-for-byte. The counters are returned in [`crate::RunOutcome`]
/// and not exposed to unprivileged spaces (only their *final* values
/// are deterministic; a space sampling them mid-run would observe
/// other spaces' progress). The benchmark harness uses them to report
/// the real operation counts behind every virtual-time figure.
#[derive(Clone, PartialEq, Eq, Default, Debug, Serialize, Deserialize)]
pub struct KernelStats {
    /// `Put` calls.
    pub puts: u64,
    /// `Get` calls.
    pub gets: u64,
    /// Fused `PutGet` exchange calls ([`crate::SpaceCtx::put_get`]):
    /// one kernel entry performing a resume and the collection of the
    /// child's next stop. Not double-counted in `puts`/`gets`.
    pub put_gets: u64,
    /// `Ret` calls (explicit).
    pub rets: u64,
    /// Traps (implicit rets).
    pub traps: u64,
    /// Limit preemptions.
    pub limit_preemptions: u64,
    /// Spaces created.
    pub spaces_created: u64,
    /// Host threads spawned as execution vehicles.
    pub threads_spawned: u64,
    /// Pages virtually copied (COW) by `Copy`/`Zero` options.
    pub pages_copied: u64,
    /// Pages cloned into snapshots by `Snap`.
    pub pages_snapped: u64,
    /// Page-table leaves shared structurally by `Copy` and `Snap`
    /// (each covers up to `det_memory::PAGES_PER_LEAF` pages in O(1));
    /// `leaves_cloned` vs `pages_copied + pages_snapped` is the
    /// page-table-work reduction the structurally-shared table buys.
    pub leaves_cloned: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// Accumulated merge statistics.
    #[serde(skip)]
    pub merge_totals: MergeStatsSerde,
    /// Merge conflicts detected.
    pub conflicts: u64,
    /// Cross-node space migrations.
    pub migrations: u64,
    /// Device input events consumed.
    pub device_reads: u64,
    /// Device output bytes written.
    pub device_write_bytes: u64,
    /// VM instructions retired across all spaces.
    pub vm_instructions: u64,
    /// VM software-TLB hits (loads + stores served from a cached
    /// translation, skipping the page-table walk).
    pub vm_tlb_hits: u64,
    /// Page-table walks performed on the VM's behalf (TLB fills plus
    /// slow-path accesses). `vm_pages_walked / vm_instructions` is the
    /// per-instruction translation overhead the TLB exists to crush.
    pub vm_pages_walked: u64,
    /// VM decoded-instruction cache hits (fetch + decode skipped).
    pub vm_icache_hits: u64,
    /// VM decoded-instruction cache fills (full fetch + decode).
    pub vm_icache_fills: u64,
    /// Condvar notifications issued by the rendezvous engine on the
    /// park / resume / final-check-in paths (shutdown broadcasts are
    /// not counted). Every notify targets exactly one known waiter, so
    /// this is bounded by rendezvous *events* — independent of how
    /// many other spaces sit parked. A deterministic count: it is a
    /// pure function of the kernel-mediated event history, and the
    /// `targeted_wakeups_*` tests lock in the exact value so a
    /// broadcast (thundering-herd) wakeup can't silently return.
    pub condvar_wakeups: u64,
    /// Times a leaf VM space was executed inline on the thread waiting
    /// for it (zero-context-switch rendezvous; see DESIGN.md §6).
    pub vm_inline_runs: u64,
    /// Checkpoint marks taken (the root `Checkpoint` syscall).
    pub checkpoints: u64,
    /// Dirty page-table leaves persisted across all checkpoint marks —
    /// the incremental-checkpoint work metric the per-leaf virtual-time
    /// charge is proportional to.
    pub checkpoint_leaves: u64,
}

/// Counters that depend on *host* scheduling, segregated from
/// [`KernelStats`] so the latter is fully deterministic — every field
/// of `KernelStats` is a pure function of the kernel-mediated event
/// history and is compared without carve-outs by trace replay and the
/// conformance harness. `HostStats` is observability only: two
/// identical runs may legitimately differ here.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug, Serialize, Deserialize)]
pub struct HostStats {
    /// Waits that woke without their predicate holding (spurious or
    /// raced wakeups).
    pub spurious_wakeups: u64,
}

/// Wrapper keeping [`MergeStats`] (an external type) inside the
/// serializable stats without requiring serde on `det-memory`.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct MergeStatsSerde(pub MergeStats);

impl KernelStats {
    /// Adds one merge's statistics.
    pub fn record_merge(&mut self, s: &MergeStats) {
        self.merges += 1;
        self.merge_totals.0.accumulate(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulation() {
        let mut k = KernelStats::default();
        let s = MergeStats {
            pages_scanned: 2,
            pages_skipped_clean: 5,
            words_compared: 16,
            bytes_copied: 10,
            ..Default::default()
        };
        k.record_merge(&s);
        k.record_merge(&s);
        assert_eq!(k.merges, 2);
        assert_eq!(k.merge_totals.0.pages_scanned, 4);
        assert_eq!(k.merge_totals.0.pages_skipped_clean, 10);
        assert_eq!(k.merge_totals.0.words_compared, 32);
        assert_eq!(k.merge_totals.0.bytes_copied, 20);
    }
}
