//! Cross-node distribution via space migration (§3.3), on a simulated
//! homogeneous cluster.
//!
//! The paper runs Determinator on up to 32 machines connected by
//! Ethernet; we have one machine, so the cluster is simulated (see
//! DESIGN.md): nodes are bookkeeping, and the network is a cost model.
//! What is *not* simulated is the protocol behaviour — the operation
//! counts driving Figures 11–12 are reproduced move-for-move:
//!
//! * migrating a space transfers only its register state and an
//!   address-space summary (one message);
//! * memory pages are pulled **on demand**, one request/response round
//!   trip per page, with no prefetching, streaming, or delta
//!   compression (the paper's "simplistic page copying protocol");
//! * pages a space only reads stay cached on each node it visits;
//!   writing a page invalidates the stale copies on other nodes;
//! * virtually copied pages (fork's `Put`+Copy) share frames, so the
//!   child's pages are resident wherever the parent's were — the
//!   child's first access on its own node pays the pull, which is
//!   exactly why distributed matmult levels off (Fig. 11).
//!
//! [`SimCluster`] implements [`det_kernel::ClusterHooks`]; plug it in
//! with [`det_kernel::Kernel::with_cluster`], then address children on
//! other nodes with [`det_kernel::child_on_node`].
//!
//! # Real-thread shards
//!
//! [`ClusterSpec`] promotes the simulation to N kernel *shards* that
//! run in parallel: every logical node is homed on shard
//! `node % shards`, each migrated job runs in its own `det-kernel`
//! instance on its own OS thread under its node's shard permit, and a
//! migrated space materializes O(touched) by pulling *leaves* of the
//! structurally shared page table over the (still simulated-latency)
//! link. All deterministic quantities — virtual clocks, digests,
//! kernel stats, traffic counters — are functions of the workload and
//! the logical node count only, so they are bit-identical on 1 shard
//! or 16 (see DESIGN.md §10 and `tests/determinism.rs`).

mod controller;
mod net;
mod protocol;
mod residency;
mod shard;

pub use controller::{ClusterOutcome, ClusterSpec, JobArtifact, JobOutcome, JobSpec, Remote};
pub use net::NetworkModel;
pub use protocol::JobFn;
pub use residency::ResidencyStats;

use std::sync::Arc;

use parking_lot::Mutex;

use det_kernel::{ClusterHooks, SpaceId};
use det_memory::{AccessTracker, AddressSpace};

use residency::Residency;

/// Aggregate statistics of simulated cluster traffic.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ClusterStats {
    /// Space migrations (summary messages).
    pub migrations: u64,
    /// Demand page pulls (request/response round trips).
    pub page_pulls: u64,
    /// Bytes moved across the network.
    pub bytes_transferred: u64,
    /// Messages sent (2 per pull, 1 per migration summary).
    pub messages: u64,
    /// Page pulls avoided by the per-node read-only cache.
    pub cache_hits: u64,
}

/// A simulated homogeneous cluster: node bookkeeping, per-(space,
/// node) page residency, and a network cost model.
pub struct SimCluster {
    nodes: u16,
    net: NetworkModel,
    inner: Mutex<Residency>,
}

impl SimCluster {
    /// Creates a cluster of `nodes` nodes with the given network.
    pub fn new(nodes: u16, net: NetworkModel) -> Arc<SimCluster> {
        Arc::new(SimCluster {
            nodes,
            net,
            inner: Mutex::new(Residency::default()),
        })
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> ClusterStats {
        self.inner.lock().stats
    }

    /// The network model in use.
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// Harvests a space's tracker: charges demand pulls for pages
    /// touched on `node` that were not resident there, applies write
    /// invalidations, and returns picoseconds of network time.
    fn harvest(&self, space: SpaceId, node: u16, mem: &mut AddressSpace) -> u64 {
        let mut inner = self.inner.lock();
        let Some(tracker) = mem.tracker().cloned() else {
            // First sighting: install a tracker and seed residency
            // with the currently mapped pages (created locally).
            let t = AccessTracker::new();
            mem.set_tracker(Some(t));
            let vpns: Vec<u64> = mem.iter_pages().map(|p| p.vpn).collect();
            inner.seed(space, node, &vpns);
            return 0;
        };
        let read = tracker.pages_read();
        let written = tracker.pages_written();
        tracker.reset();
        inner.harvest(space, node, &read, &written, &self.net)
    }
}

impl ClusterHooks for SimCluster {
    fn node_count(&self) -> u16 {
        self.nodes
    }

    fn on_migrate(&self, space: SpaceId, from: u16, to: u16, mem: &mut AddressSpace) -> u64 {
        // Settle the leg that just ended, then pay the summary message.
        let mut ps = self.harvest(space, from, mem);
        let mut inner = self.inner.lock();
        inner.stats.migrations += 1;
        inner.stats.messages += 1;
        let summary_bytes = 64 + 16 * mem.page_count() as u64;
        inner.stats.bytes_transferred += summary_bytes;
        ps += self.net.message_ps(summary_bytes);
        let _ = to;
        ps
    }

    fn on_rendezvous(
        &self,
        child: SpaceId,
        child_node: u16,
        parent_node: u16,
        child_mem: &mut AddressSpace,
    ) -> u64 {
        let mut ps = self.harvest(child, child_node, child_mem);
        // The caller is about to read/merge the child's freshly
        // written pages; if the caller is on another node, those
        // pages cross the wire (this is the merge-traffic term).
        if child_node != parent_node {
            let written: Vec<u64> = child_mem
                .tracker()
                .map(|t| t.pages_written())
                .unwrap_or_default();
            let mut inner = self.inner.lock();
            ps += inner.pull_absent(child, parent_node, &written, &self.net);
        }
        ps
    }

    fn on_copy(
        &self,
        src: SpaceId,
        dst: SpaceId,
        src_start_vpn: u64,
        dst_start_vpn: u64,
        pages: u64,
    ) {
        self.inner
            .lock()
            .inherit(src, dst, src_start_vpn, dst_start_vpn, pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use det_kernel::{
        CopySpec, GetSpec, Kernel, KernelConfig, Program, PutSpec, Region, child_on_node,
    };
    use det_memory::Perm;

    const SHARED: Region = Region {
        start: 0x10000,
        end: 0x20000,
    };

    fn cluster_kernel(nodes: u16) -> (Kernel, Arc<SimCluster>) {
        let sim = SimCluster::new(nodes, NetworkModel::ethernet_1g());
        let k = Kernel::with_cluster(KernelConfig::default(), sim.clone());
        (k, sim)
    }

    #[test]
    fn remote_child_roundtrip() {
        let (k, sim) = cluster_kernel(4);
        let out = k.run(|ctx| {
            ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
            ctx.mem_mut().write_u64(SHARED.start, 7)?;
            // Fork a worker on node 2: the caller migrates there.
            let c = child_on_node(2, 1);
            ctx.put(
                c,
                PutSpec::new()
                    .program(Program::native(|cc| {
                        let v = cc.mem().read_u64(0x10000)?;
                        cc.mem_mut().write_u64(0x10008, v * 6)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(SHARED))
                    .snap()
                    .start(),
            )?;
            assert_eq!(ctx.cur_node(), 2);
            ctx.get(c, GetSpec::new().merge(SHARED))?;
            assert_eq!(ctx.mem().read_u64(SHARED.start + 8)?, 42);
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0));
        let stats = sim.stats();
        assert!(stats.migrations >= 1, "{stats:?}");
        assert!(stats.page_pulls >= 1, "worker must demand-pull data");
        assert!(stats.bytes_transferred > 4096);
    }

    #[test]
    fn home_return_on_ret() {
        let (k, _sim) = cluster_kernel(3);
        let out = k.run(|ctx| {
            assert_eq!(ctx.home_node(), 0);
            let c = child_on_node(1, 0);
            ctx.put(
                c,
                PutSpec::new()
                    .program(Program::native(|cc| {
                        // The child's home is node 1.
                        assert_eq!(cc.home_node(), 1);
                        cc.ret(5)?;
                        Ok(0)
                    }))
                    .start(),
            )?;
            let r = ctx.get(c, GetSpec::new())?;
            assert_eq!(r.code, 5);
            // Caller stays on node 1 until it addresses elsewhere.
            assert_eq!(ctx.cur_node(), 1);
            // Node-0 child: migrates back... node field 0 = home (0).
            ctx.put(0, PutSpec::new())?;
            assert_eq!(ctx.cur_node(), 0);
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0));
    }

    #[test]
    fn read_only_pages_cached_across_visits() {
        let (k, sim) = cluster_kernel(2);
        let out = k.run(|ctx| {
            ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
            for i in 0..16 {
                ctx.mem_mut().write_u64(SHARED.start + i * 8, i)?;
            }
            // Two sequential workers on node 1 reading the same data.
            for round in 0..2u64 {
                let c = child_on_node(1, round);
                ctx.put(
                    c,
                    PutSpec::new()
                        .program(Program::native(|cc| {
                            let mut sum = 0u64;
                            for i in 0..16 {
                                sum += cc.mem().read_u64(0x10000 + i * 8)?;
                            }
                            cc.mem_mut().write_u64(0x10080, sum)?;
                            Ok(0)
                        }))
                        .copy(CopySpec::mirror(SHARED))
                        .snap()
                        .start(),
                )?;
                ctx.get(c, GetSpec::new().merge(SHARED))?;
            }
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0));
        let stats = sim.stats();
        assert!(
            stats.cache_hits > 0,
            "second worker re-reads cached pages: {stats:?}"
        );
    }

    #[test]
    fn written_pages_invalidate_remote_caches() {
        let (k, sim) = cluster_kernel(2);
        let out = k.run(|ctx| {
            ctx.mem_mut()
                .map_zero(Region::new(0x10000, 0x11000), Perm::RW)?;
            ctx.mem_mut().write_u64(0x10000, 1)?;
            let region = Region::new(0x10000, 0x11000);
            // Worker on node 1 reads the page (cached there), master
            // rewrites it at home, second worker must re-pull.
            for round in 0..2u64 {
                let c = child_on_node(1, 10 + round);
                ctx.put(
                    c,
                    PutSpec::new()
                        .program(Program::native(|cc| {
                            cc.mem().read_u64(0x10000)?;
                            Ok(0)
                        }))
                        .copy(CopySpec::mirror(region))
                        .snap()
                        .start(),
                )?;
                ctx.get(c, GetSpec::new())?;
                // Master returns home and dirties the page.
                ctx.put(0, PutSpec::new())?;
                ctx.mem_mut().write_u64(0x10000, round + 2)?;
            }
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0));
        let stats = sim.stats();
        assert!(
            stats.page_pulls >= 2,
            "invalidated page must be pulled again: {stats:?}"
        );
    }

    #[test]
    fn node_out_of_range_rejected() {
        let (k, _sim) = cluster_kernel(2);
        let out = k.run(|ctx| match ctx.put(child_on_node(7, 0), PutSpec::new()) {
            Err(det_kernel::KernelError::NodeUnreachable(7)) => Ok(0),
            other => panic!("expected unreachable, got {other:?}"),
        });
        assert_eq!(out.exit, Ok(0));
    }
}
