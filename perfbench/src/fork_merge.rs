//! `fork_merge`: barrier rounds of a `ThreadGroup` in one kernel.
//!
//! Each thread runs a det-vm kernel over its own slice of the shared
//! region, mixing every word with the same word of its neighbour's
//! slice, then meets the others at a barrier where the master merges
//! everyone's writes and redistributes the merged image. This is the
//! paper's fine-grained case, where determinism costs: it loads the VM,
//! the rendezvous and snapshot/merge, and never touches the cluster or
//! the wire codec, so it is the control for changes to those.

use std::sync::{Arc, Mutex};

use det_kernel::{CostModel, Kernel, KernelConfig, KernelError, Perm, Region, RunOutcome};
use det_memory::PAGE_SIZE;
use det_runtime::{ThreadGroup, barrier};
use det_vm::{Cpu, CpuCacheStats, Regs, VmExit};

use crate::common::{Counters, Handoff, Outcome, Rng, kernel_counters};
use crate::spans;
use crate::{Scale, Workload};

/// The code page sits at `BASE`; the slices follow it, packed, from
/// `DATA`. Data never shares the code page: a store there would flush
/// the interpreter's decoded-instruction cache.
const BASE: u64 = 0x10_0000;
const DATA: u64 = BASE + PAGE_SIZE as u64;

/// One round of the thread kernel: `r5`..`r12` is the thread's slice,
/// `r11` the offset to its neighbour's, `r10` the round key. Odd
/// neighbour words cost two extra instructions, so the instruction
/// count (and with it the virtual clock) depends on the data.
const KERNEL: &str = "
loop:
    add  r6, r5, r11
    ldd  r2, [r5+0]        ; x = own[i]
    ldd  r3, [r6+0]        ; y = neighbour[i]
    xor  r4, r2, r3
    shri r7, r4, 7
    add  r4, r4, r10
    xor  r2, r4, r7        ; x' = ((x^y) + key) ^ ((x^y) >> 7)
    andi r8, r3, 1
    beq  r8, r0, even
    muli r2, r2, 3         ; odd y: x' = 3x' + 1
    addi r2, r2, 1
even:
    std  r2, [r5+0]
    addi r5, r5, 8
    bltu r5, r12, loop
    halt
";

/// The kernel's effect on one word, in plain Rust (the reference).
fn mix(x: u64, y: u64, key: u64) -> u64 {
    let v = x ^ y;
    let m = v.wrapping_add(key) ^ (v >> 7);
    if y & 1 == 1 {
        m.wrapping_mul(3).wrapping_add(1)
    } else {
        m
    }
}

/// The shape and inputs of a fork/merge program, shared with
/// `replay_ckpt`, which records a smaller one.
pub struct ForkMerge {
    threads: usize,
    /// Words in each thread's slice.
    words: usize,
    rounds: usize,
    code: Arc<Vec<u8>>,
    input: Arc<Vec<u64>>,
    keys: Arc<Vec<u64>>,
    expect: Vec<u64>,
    costs: CostModel,
}

/// The VM work of one program, from each `Cpu`'s own counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct VmTotals {
    pub instructions: u64,
    pub cache: CpuCacheStats,
}

impl VmTotals {
    fn add(&mut self, insns: u64, d: &CpuCacheStats) {
        self.instructions += insns;
        let c = &mut self.cache;
        c.icache_hits += d.icache_hits;
        c.icache_fills += d.icache_fills;
        c.icache_flushes += d.icache_flushes;
        c.tlb_read_hits += d.tlb_read_hits;
        c.tlb_read_fills += d.tlb_read_fills;
        c.tlb_write_hits += d.tlb_write_hits;
        c.tlb_write_fills += d.tlb_write_fills;
        c.slow_accesses += d.slow_accesses;
        c.pages_walked += d.pages_walked;
    }

    pub fn counters(&self, out: &mut Counters) {
        let c = &self.cache;
        // The TLB alone: the decoded-instruction cache, probed once per
        // instruction, would swamp it.
        let tlb_hits = c.tlb_read_hits + c.tlb_write_hits;
        let tlb_misses = c.tlb_read_fills + c.tlb_write_fills + c.slow_accesses;
        out.extend([
            ("vm.instructions", self.instructions),
            ("vm.tlb_hits", tlb_hits),
            ("vm.tlb_probes", tlb_hits + tlb_misses),
            ("vm.pages_walked", c.pages_walked),
        ]);
    }
}

/// What a fork/merge kernel run produced.
pub struct Run {
    pub outcome: RunOutcome,
    /// The data region and the root's content digest at exit, if the
    /// root got that far.
    pub data: Option<(Vec<u64>, u64)>,
    pub vm: VmTotals,
}

impl ForkMerge {
    pub fn new(seed: u64, threads: usize, words: usize, rounds: usize) -> ForkMerge {
        let code = det_vm::assemble(KERNEL).expect("thread kernel assembles");
        assert!(
            BASE + code.bytes.len() as u64 <= DATA,
            "code fits below the data"
        );
        let mut rng = Rng::new(seed);
        let input = rng.words(threads * words);
        let keys = rng.words(rounds);
        let mut expect = input.clone();
        for &key in &keys {
            let old = expect.clone();
            for t in 0..threads {
                let nb = (t + 1) % threads;
                for i in 0..words {
                    expect[t * words + i] = mix(old[t * words + i], old[nb * words + i], key);
                }
            }
        }
        ForkMerge {
            threads,
            words,
            rounds,
            code: Arc::new(code.bytes),
            input: Arc::new(input),
            keys: Arc::new(keys),
            expect,
            costs: CostModel::default(),
        }
    }

    fn slice_start(&self, t: usize) -> u64 {
        DATA + (t * self.words * 8) as u64
    }

    /// Code and slices, rounded out to whole pages.
    fn region(&self) -> Region {
        let end = self
            .slice_start(self.threads)
            .next_multiple_of(PAGE_SIZE as u64);
        Region::new(BASE, end)
    }

    /// Runs the program in a kernel built from `cfg`. With `marks`, the
    /// root takes a checkpoint mark once its inputs are written and
    /// another after the last join.
    pub fn run(&self, program: u32, cfg: KernelConfig, marks: bool) -> Run {
        let threads = self.threads;
        let rounds = self.rounds;
        let slice_words = self.words;
        let data_start = self.slice_start(0);
        let region = self.region();
        let ts: Vec<u64> = (0..threads as u64).collect();
        // The span that waits for each thread's round: a barrier for all
        // but the last round, that thread's join for the last.
        let barrier_ids: Vec<u32> = (1..rounds).map(|_| spans::alloc()).collect();
        let join_ids: Vec<u32> = (0..threads).map(|_| spans::alloc()).collect();
        let vm = Arc::new(Mutex::new(VmTotals::default()));
        let data: Handoff<(Vec<u64>, u64)> = Arc::default();

        let bodies: Vec<_> = (0..threads)
            .map(|t| {
                let own = self.slice_start(t);
                let nb = self.slice_start((t + 1) % threads);
                let mut waits = barrier_ids.clone();
                waits.push(join_ids[t]);
                let keys = Arc::clone(&self.keys);
                let vm = Arc::clone(&vm);
                let costs = self.costs;
                let end = own + (slice_words * 8) as u64;
                // Bounds a runaway kernel; a round needs at most 14 per word.
                let budget = 16 * slice_words as u64 + 16;
                move |c: &mut det_kernel::SpaceCtx| -> Result<i32, KernelError> {
                    let mut cpu = Cpu::new();
                    let mut mine = VmTotals::default();
                    for (r, &key) in keys.iter().enumerate() {
                        if r > 0 {
                            barrier(c)?;
                        }
                        cpu.regs = Regs::at_entry(BASE);
                        cpu.regs.gpr[5] = own;
                        cpu.regs.gpr[12] = end;
                        cpu.regs.gpr[11] = nb.wrapping_sub(own);
                        cpu.regs.gpr[10] = key;
                        let (insns, cache) = (cpu.insn_count, cpu.cache_stats);
                        let start = spans::clock();
                        let exit = cpu.run(c.mem_mut(), Some(budget));
                        spans::record(spans::alloc(), waits[r], program, "vm.run", start);
                        if exit != VmExit::Halt {
                            return Err(KernelError::InvalidSpec("thread kernel did not halt"));
                        }
                        let d = cpu.cache_stats.since(&cache);
                        let n = cpu.insn_count - insns;
                        mine.add(n, &d);
                        // The same charge the kernel makes for its own VM
                        // spaces: an instruction each, plus each walk.
                        c.charge_ps(n * costs.vm_insn_ps + d.pages_walked * costs.vm_tlb_fill_ps)?;
                    }
                    let mut all = vm.lock().expect("vm totals lock");
                    all.add(mine.instructions, &mine.cache);
                    Ok(0)
                }
            })
            .collect();

        let code = Arc::clone(&self.code);
        let input = Arc::clone(&self.input);
        let sink = Arc::clone(&data);
        let outcome = Kernel::new(cfg).run(move |ctx| {
            spans::scope("memory.io", program, program, || {
                ctx.mem_mut().map_zero(region, Perm::RW)?;
                ctx.mem_mut().write(BASE, &code)?;
                ctx.mem_mut().write_u64s(data_start, &input)
            })?;
            if marks {
                ctx.checkpoint()?;
            }
            let mut group = ThreadGroup::new(ctx, region, 0);
            for (t, body) in bodies.into_iter().enumerate() {
                spans::scope("runtime.fork", program, program, || {
                    group.fork(t as u64, body)
                })?;
            }
            for &id in &barrier_ids {
                let start = spans::clock();
                let statuses = group.barrier_cycle(&ts)?;
                spans::record(id, program, program, "runtime.barrier", start);
                if statuses.iter().any(Option::is_some) {
                    return Err(KernelError::InvalidSpec(
                        "thread halted before the last round",
                    ));
                }
            }
            for (t, &id) in join_ids.iter().enumerate() {
                let start = spans::clock();
                let joined = group.join(t as u64)?;
                spans::record(id, program, program, "runtime.join", start);
                if joined.code != 0 {
                    return Err(KernelError::InvalidSpec("thread exited with an error"));
                }
            }
            if marks {
                ctx.checkpoint()?;
            }
            let seen = spans::scope("memory.io", program, program, || {
                ctx.mem().read_u64s(data_start, threads * slice_words)
            })?;
            let digest = ctx.mem().content_digest().value();
            *sink.lock().expect("data lock") = Some((seen, digest));
            Ok(0)
        });
        let vm = *vm.lock().expect("vm totals lock");
        let data = data.lock().expect("data lock").take();
        Run { outcome, data, vm }
    }

    /// Checks a run's exit and data against the reference.
    pub fn error(&self, run: &Run) -> Option<String> {
        match (&run.outcome.exit, &run.data) {
            (Ok(0), Some((seen, _))) if *seen == self.expect => None,
            (Ok(0), _) => Some("result differs from the reference".into()),
            (exit, _) => Some(format!("root exit {exit:?}")),
        }
    }
}

impl Workload for ForkMerge {
    fn setup(seed: u64, scale: Scale, nproc: usize) -> ForkMerge {
        let threads = nproc.min(2);
        match scale {
            Scale::Full => ForkMerge::new(seed, threads, 2048, 48),
            Scale::Tiny => ForkMerge::new(seed, threads, 256, 3),
        }
    }

    fn program(&self, program: u32) -> Outcome {
        let run = self.run(program, KernelConfig::default(), false);
        let mut counters = Counters::new();
        kernel_counters(&run.outcome.stats, &mut counters);
        run.vm.counters(&mut counters);
        Outcome {
            error: self.error(&run),
            vclock_ns: run.outcome.vclock_ns,
            digest: run.data.as_ref().map_or(0, |d| d.1),
            counters,
        }
    }
}
