//! `shard_pages`: a fan-out on the real-thread shard cluster.
//!
//! The root writes one slice of pages per logical node and forks a job
//! onto every node. Each job pulls its slice (several pages in one
//! page-table leaf) over the link, reads every word, rewrites one page
//! of its slice, and comes home to a root merge. There are more logical
//! nodes than shards, and node 0 is the root's own, so one job takes the
//! same-node (cache-hit) path. This puts the link, the wire codec, and
//! delta apply and merge on the critical path, with reads beside writes.

use std::sync::Arc;

use det_cluster::{ClusterSpec, JobSpec};
use det_kernel::{KernelError, Perm, Region};
use det_memory::{AddressSpace, PAGE_SIZE, SpaceDelta};

use crate::common::{Counters, Handoff, Outcome, Rng, kernel_counters};
use crate::spans;
use crate::{Scale, Workload};

/// Leaf-aligned base of the data region (a leaf maps 512 pages).
const BASE: u64 = 0x4000_0000;
const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;

pub struct ShardPages {
    nodes: u16,
    shards: usize,
    /// Pages in each job's slice.
    pages: usize,
    input: Arc<Vec<u64>>,
    expect: Vec<u64>,
}

/// What one job does to its slice: pick a page from the slice's sum and
/// scramble that page's odd words. Returns the page index and the
/// number of words changed, which sets the job's declared compute.
fn rewrite(slice: &mut [u64]) -> (usize, u64) {
    let sum = slice.iter().fold(0u64, |a, &w| a.wrapping_add(w));
    let pages = slice.len() / WORDS_PER_PAGE;
    let page = (sum % pages as u64) as usize;
    let mut changed = 0;
    for w in &mut slice[page * WORDS_PER_PAGE..(page + 1) * WORDS_PER_PAGE] {
        if *w & 1 == 1 {
            *w = w.rotate_left(17) ^ sum;
            changed += 1;
        }
    }
    (page, changed)
}

impl ShardPages {
    fn slice_words(&self) -> usize {
        self.pages * WORDS_PER_PAGE
    }

    fn slice_region(&self, job: usize) -> Region {
        let start = BASE + (job * self.pages * PAGE_SIZE) as u64;
        Region::new(start, start + (self.pages * PAGE_SIZE) as u64)
    }
}

impl Workload for ShardPages {
    fn setup(seed: u64, scale: Scale, nproc: usize) -> ShardPages {
        let (nodes, pages) = match scale {
            Scale::Full => (4, 4),
            Scale::Tiny => (3, 1),
        };
        let input = Rng::new(seed).words(nodes * pages * WORDS_PER_PAGE);
        let mut expect = input.clone();
        for slice in expect.chunks_mut(pages * WORDS_PER_PAGE) {
            rewrite(slice);
        }
        ShardPages {
            nodes: nodes as u16,
            shards: nproc.min(2),
            pages,
            input: Arc::new(input),
            expect,
        }
    }

    fn program(&self, program: u32) -> Outcome {
        let nodes = self.nodes;
        let words = self.slice_words();
        let regions: Vec<Region> = (0..nodes as usize).map(|j| self.slice_region(j)).collect();
        let all = Region::new(BASE, regions[regions.len() - 1].end);
        let input = Arc::clone(&self.input);
        let result: Handoff<(Vec<u64>, u64)> = Arc::default();
        let sink = Arc::clone(&result);

        let out = ClusterSpec::new(nodes, self.shards).run(move |ctx, remote| {
            spans::scope("memory.io", program, program, || {
                ctx.mem_mut().map_zero(all, Perm::RW)?;
                ctx.mem_mut().write_u64s(BASE, &input)
            })?;
            let mut joins = Vec::with_capacity(regions.len());
            for (j, &region) in regions.iter().enumerate() {
                // The job's spans belong to the join that waits for it.
                let join_id = spans::alloc();
                let fork_start = spans::clock();
                let job = JobSpec::native(region, move |c, _| {
                    let job_start = spans::clock();
                    spans::record(
                        spans::alloc(),
                        join_id,
                        program,
                        "cluster.start_wait",
                        fork_start,
                    );
                    let mut slice = c.mem().read_u64s(region.start, words)?;
                    let (page, changed) = rewrite(&mut slice);
                    let at = page * WORDS_PER_PAGE;
                    c.mem_mut().write_u64s(
                        region.start + (at * 8) as u64,
                        &slice[at..at + WORDS_PER_PAGE],
                    )?;
                    // Declared compute: a nanosecond per word read, four
                    // per word rewritten.
                    c.charge(words as u64 + 4 * changed)?;
                    spans::record(spans::alloc(), join_id, program, "cluster.job", job_start);
                    Ok(0)
                });
                remote.fork(ctx, j as u64, j as u16, job)?;
                spans::record(spans::alloc(), program, program, "cluster.fork", fork_start);
                joins.push(join_id);
            }
            for (j, &join_id) in joins.iter().enumerate() {
                let start = spans::clock();
                let done = remote.join(ctx, j as u64)?;
                spans::record(join_id, program, program, "cluster.join", start);
                if done.exit != Ok(0) {
                    return Err(KernelError::InvalidSpec("job did not exit cleanly"));
                }
            }
            let seen = spans::scope("memory.io", program, program, || {
                ctx.mem().read_u64s(BASE, words * regions.len())
            })?;
            let digest = ctx.mem().content_digest().value();
            *sink.lock().expect("result lock") = Some((seen, digest));
            Ok(0)
        });

        let mut counters = Counters::new();
        let c = out.cluster;
        counters.extend([
            ("cluster.page_pulls", c.page_pulls),
            ("cluster.messages", c.messages),
            ("cluster.wire_bytes", c.bytes_transferred),
            ("cluster.cache_hits", c.cache_hits),
            ("cluster.migrations", c.migrations),
        ]);
        kernel_counters(&out.stats, &mut counters);
        let (error, digest) = match (out.exit, result.lock().expect("result lock").take()) {
            (Ok(0), Some((seen, digest))) if seen == self.expect => (None, digest),
            (Ok(0), Some((_, digest))) => {
                (Some("result differs from the reference".into()), digest)
            }
            (exit, _) => (Some(format!("root exit {exit:?}")), 0),
        };
        Outcome {
            error,
            vclock_ns: out.vclock_ns,
            digest,
            counters,
        }
    }

    fn codec_delta(&self) -> Option<SpaceDelta> {
        // Exactly what one leaf pull carries: one job's slice.
        let region = self.slice_region(1);
        let mut mem = AddressSpace::new();
        mem.map_zero(region, Perm::RW).expect("map slice");
        let words = &self.input[self.slice_words()..2 * self.slice_words()];
        mem.write_u64s(region.start, words).expect("write slice");
        Some(mem.leaf_image(mem.leaf_summary()[0].first_vpn))
    }
}
