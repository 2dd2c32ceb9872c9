//! Criterion benches of the substrate's *real* performance on this
//! host: the unit costs the virtual-time model parameterizes
//! (page-table COW work, merge diffing throughput, syscall rendezvous,
//! VM interpretation rate). Compare these against
//! `CostModel::calibrated()` to audit the calibration.

use criterion::{Criterion, criterion_group, criterion_main};
use std::hint::black_box;

use det_kernel::{CopySpec, GetSpec, Kernel, KernelConfig, Program, PutSpec};
use det_memory::{AddressSpace, ConflictPolicy, Perm, Region};
use det_vm::{Cpu, VmExit, assemble};

const MB4: Region = Region {
    start: 0x10000,
    end: 0x10000 + 4 * 1024 * 1024,
};

fn bench_cow_copy(c: &mut Criterion) {
    let mut src = AddressSpace::new();
    src.map_zero(MB4, Perm::RW).unwrap();
    for i in 0..1024u64 {
        src.write_u64(MB4.start + i * 4096, i).unwrap();
    }
    c.bench_function("cow_virtual_copy_4MiB", |b| {
        b.iter(|| {
            let mut dst = AddressSpace::new();
            dst.copy_from(black_box(&src), MB4, MB4.start).unwrap();
            black_box(dst.page_count())
        })
    });
    c.bench_function("snapshot_4MiB", |b| {
        b.iter(|| black_box(src.snapshot().page_count()))
    });
}

/// The structural-clone bench group: the paper's claim that fork and
/// snapshot cost O(pages-touched), not O(pages-mapped) (PAPER.md §3.2,
/// §8), measured on this substrate. With the two-level shared page
/// table a leaf-congruent clone is O(leaves): sharing one `Arc` per
/// `det_memory::PAGES_PER_LEAF` (512) pages.
fn bench_clone(c: &mut Criterion) {
    use det_memory::PAGES_PER_LEAF;
    const LEAF_BYTES: u64 = (PAGES_PER_LEAF * 4096) as u64;
    // A leaf-aligned 4 MiB region (2 whole leaves), fully written.
    let aligned = Region {
        start: 4 * LEAF_BYTES,
        end: 4 * LEAF_BYTES + 4 * 1024 * 1024,
    };
    let mut src = AddressSpace::new();
    src.map_zero(aligned, Perm::RW).unwrap();
    for i in 0..1024u64 {
        src.write_u64(aligned.start + i * 4096, i).unwrap();
    }

    let mut g = c.benchmark_group("clone");
    // Snapshot: clones the root spine only (2 Arc bumps for 4 MiB).
    g.bench_function("snapshot_4MiB_aligned", |b| {
        b.iter(|| black_box(src.snapshot().page_count()))
    });
    // Leaf-congruent virtual copy: zero boundary pages.
    g.bench_function("virtual_copy_4MiB_aligned", |b| {
        b.iter(|| {
            let mut dst = AddressSpace::new();
            let stats = dst
                .copy_from_counted(black_box(&src), aligned, aligned.start)
                .unwrap();
            assert_eq!(stats.leaves_shared, 2);
            black_box(stats)
        })
    });
    // Deep fork chain: 64 generations, each forking from the last and
    // dirtying one page — the cost each generation pays must track the
    // single touched page, not the 1024 mapped ones.
    g.bench_function("deep_fork_chain_64", |b| {
        b.iter(|| {
            let mut gen0 = src.clone();
            for i in 0..64u64 {
                let mut child = AddressSpace::new();
                child.copy_from(&gen0, aligned, aligned.start).unwrap();
                child
                    .write_u64(aligned.start + (i % 1024) * 4096, i)
                    .unwrap();
                gen0 = child;
            }
            black_box(gen0.page_count())
        })
    });
    // 64-way fan-out: the fork half of the paper's fork/join pattern at
    // high fan-out, each child touching one private page.
    g.bench_function("fanout_64_children", |b| {
        b.iter(|| {
            let children: Vec<AddressSpace> = (0..64u64)
                .map(|i| {
                    let mut ch = AddressSpace::new();
                    ch.copy_from(&src, aligned, aligned.start).unwrap();
                    ch.write_u64(aligned.start + i * 4096, i + 1).unwrap();
                    ch
                })
                .collect();
            black_box(children.len())
        })
    });
    g.finish();
}

/// Builds a 4 MiB parent, a forked child with snapshot, and applies
/// `dirty` to the child (the fork idiom of PAPER.md §3.2: virtual copy
/// plus reference snapshot).
fn fork_4mib(dirty: impl Fn(&mut AddressSpace)) -> (AddressSpace, AddressSpace, AddressSpace) {
    let mut parent = AddressSpace::new();
    parent.map_zero(MB4, Perm::RW).unwrap();
    let mut child = AddressSpace::new();
    child.copy_from(&parent, MB4, MB4.start).unwrap();
    let snap = child.snapshot();
    dirty(&mut child);
    (parent, child, snap)
}

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge");

    // Sparse-dirty: 16 of 1024 pages touched — the fork/join common
    // case the dirty write-set exists for.
    let (parent, child, snap) = fork_4mib(|ch| {
        for i in 0..16u64 {
            ch.write_u64(MB4.start + i * 64 * 4096 + 64, i + 1).unwrap();
        }
    });
    g.bench_function("sparse_dirty_16_of_1024", |b| {
        b.iter(|| {
            let mut p = parent.clone();
            black_box(
                p.merge_from(&child, &snap, MB4, ConflictPolicy::Strict)
                    .unwrap(),
            )
        })
    });
    // The naive oracle on the same inputs: the pre-optimization engine.
    g.bench_function("sparse_dirty_16_of_1024_reference", |b| {
        b.iter(|| {
            let mut p = parent.clone();
            black_box(
                det_memory::reference::merge_from_reference(
                    &mut p,
                    &child,
                    &snap,
                    MB4,
                    ConflictPolicy::Strict,
                )
                .unwrap(),
            )
        })
    });

    // Dense-dirty: every page touched (worst-case diff volume).
    let (parent, child, snap) = fork_4mib(|ch| {
        for vpn in 0..1024u64 {
            ch.write_u64(MB4.start + vpn * 4096 + 64, vpn + 1).unwrap();
        }
    });
    g.bench_function("dense_dirty_1024_of_1024", |b| {
        b.iter(|| {
            let mut p = parent.clone();
            black_box(
                p.merge_from(&child, &snap, MB4, ConflictPolicy::Strict)
                    .unwrap(),
            )
        })
    });

    // Conflict-early: both sides wrote the first page; the scan must
    // stop at the lowest conflicting address instead of diffing the
    // remaining 1023 dirty pages.
    let (parent, child, snap) = fork_4mib(|ch| {
        for vpn in 0..1024u64 {
            ch.write_u64(MB4.start + vpn * 4096 + 64, vpn + 1).unwrap();
        }
    });
    let mut parent = parent;
    parent.write_u64(MB4.start + 64, 0xDEAD).unwrap();
    g.bench_function("conflict_early_first_page", |b| {
        b.iter(|| {
            let mut p = parent.clone();
            let (stats, conflict) = p
                .try_merge_from(&child, &snap, MB4, ConflictPolicy::Strict)
                .unwrap();
            assert!(conflict.is_some());
            black_box(stats)
        })
    });

    // Zero-page: the child mapped 1024 fresh zero pages it never
    // wrote — dirty candidates that still alias the global zero frame
    // and merge with no byte work.
    let (parent, child, snap) = fork_4mib(|ch| {
        ch.map_zero(
            Region {
                start: MB4.end,
                end: MB4.end + 4 * 1024 * 1024,
            },
            Perm::RW,
        )
        .unwrap();
    });
    let wide = Region {
        start: MB4.start,
        end: MB4.end + 4 * 1024 * 1024,
    };
    g.bench_function("zero_page_1024_mapped_unwritten", |b| {
        b.iter(|| {
            let mut p = parent.clone();
            black_box(
                p.merge_from(&child, &snap, wide, ConflictPolicy::Strict)
                    .unwrap(),
            )
        })
    });

    // Clean child: empty dirty set, O(dirty)=O(0) page examination.
    let (parent, child, snap) = fork_4mib(|_| {});
    g.bench_function("unchanged_0_of_1024", |b| {
        b.iter(|| {
            let mut p = parent.clone();
            black_box(
                p.merge_from(&child, &snap, MB4, ConflictPolicy::Strict)
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// The rendezvous bench group: the put/get/park hot path under the
/// targeted-wakeup engine (DESIGN.md §6).
///
/// The headline `put_get_rendezvous_roundtrip` keeps its PR 1 name so
/// the trajectory stays comparable (PR 4 baseline on the build host:
/// ~7.7 µs/roundtrip, notify-all engine, native child). Since PR 5 it
/// drives a VM child — the mode in which the kernel enforces
/// determinism on arbitrary code — which the engine executes *inline*
/// on the waiting parent, so a roundtrip pays zero host context
/// switches. The native variant below keeps the context-switch-bound
/// path measured.
fn bench_syscall_rendezvous(c: &mut Criterion) {
    use det_kernel::Regs;
    use det_memory::Perm;

    // Two VM instructions per rendezvous roundtrip.
    const RET_LOOP: &str = "
    loop:
        sys 0
        beq r0, r0, loop
    ";
    let code = Region::new(0, 0x1000);
    let image = assemble(RET_LOOP).unwrap();
    let vm_child =
        move |image: &det_vm::Image, ctx: &mut det_kernel::SpaceCtx| -> det_kernel::Result<()> {
            ctx.mem_mut().map_zero(code, Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(code))
                    .regs(Regs::at_entry(0))
                    .start(),
            )?;
            Ok(())
        };

    {
        let image = image.clone();
        c.bench_function("put_get_rendezvous_roundtrip", move |b| {
            b.iter_custom(|iters| {
                let image = image.clone();
                let start = std::time::Instant::now();
                Kernel::new(KernelConfig::default()).run(move |ctx| {
                    vm_child(&image, ctx)?;
                    for _ in 0..iters {
                        ctx.get(0, GetSpec::new())?;
                        ctx.put(0, PutSpec::new().start())?;
                    }
                    ctx.get(0, GetSpec::new())?;
                    Ok(0)
                });
                start.elapsed()
            })
        });
    }

    let mut g = c.benchmark_group("rendezvous");
    // The fused exchange: one kernel entry per roundtrip.
    {
        let image = image.clone();
        g.bench_function("vm_fused_put_get", move |b| {
            b.iter_custom(|iters| {
                let image = image.clone();
                let start = std::time::Instant::now();
                Kernel::new(KernelConfig::default()).run(move |ctx| {
                    vm_child(&image, ctx)?;
                    ctx.get(0, GetSpec::new())?;
                    for _ in 0..iters {
                        ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
                    }
                    Ok(0)
                });
                start.elapsed()
            })
        });
    }
    // Native-closure child (the pre-PR 5 headline shape): park/wake
    // context switches bound this one.
    g.bench_function("native_thread_roundtrip", |b| {
        b.iter_custom(|iters| {
            let start = std::time::Instant::now();
            Kernel::new(KernelConfig::default()).run(move |ctx| {
                ctx.put(
                    0,
                    PutSpec::new()
                        .program(Program::native(move |cc| {
                            for _ in 0..iters {
                                cc.ret(0)?;
                            }
                            Ok(0)
                        }))
                        .start(),
                )?;
                for _ in 0..iters {
                    ctx.get(0, GetSpec::new())?;
                    ctx.put(0, PutSpec::new().start())?;
                }
                ctx.get(0, GetSpec::new())?;
                Ok(0)
            });
            start.elapsed()
        })
    });
    // Parked bystanders must be invisible: with targeted wakeups a
    // roundtrip wakes only its own participants, so this must track
    // the bystander-free number (the notify-all engine woke every
    // parked space per event).
    {
        let image = image.clone();
        g.bench_function("vm_roundtrip_8_parked_bystanders", move |b| {
            b.iter_custom(|iters| {
                let image = image.clone();
                let start = std::time::Instant::now();
                Kernel::new(KernelConfig::default()).run(move |ctx| {
                    for i in 1..=8u64 {
                        ctx.put(
                            i,
                            PutSpec::new()
                                .program(Program::native(|cc| {
                                    cc.ret(0)?;
                                    Ok(0)
                                }))
                                .start(),
                        )?;
                        ctx.get(i, GetSpec::new())?;
                    }
                    vm_child(&image, ctx)?;
                    for _ in 0..iters {
                        ctx.get(0, GetSpec::new())?;
                        ctx.put(0, PutSpec::new().start())?;
                    }
                    ctx.get(0, GetSpec::new())?;
                    Ok(0)
                });
                start.elapsed()
            })
        });
    }
    g.finish();
}

fn bench_vm(c: &mut Criterion) {
    let image = assemble(det_bench::vmwork::ALU_LOOP).unwrap();
    // The headline number, same name since PR 1 so the trajectory is
    // comparable across PRs (PR 2 baseline on the original build host:
    // ~16 ns/iter; the software TLB + icache target is ≥5× that).
    c.bench_function("vm_interpreter_mips", |b| {
        b.iter_custom(|iters| {
            let mut mem = AddressSpace::new();
            mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
            mem.write(0, &image.bytes).unwrap();
            let mut cpu = Cpu::new();
            let start = std::time::Instant::now();
            let exit = cpu.run(&mut mem, Some(iters));
            assert_eq!(exit, VmExit::OutOfBudget);
            start.elapsed()
        })
    });

    let mut g = c.benchmark_group("vm");
    // TLB-hit vs TLB-miss microbenches: the same interpreter, a loop
    // whose working set fits the TLB vs one built to alias every probe
    // to the same set with different pages.
    let hit_loop = "
        li r5, 0x8000
    loop:
        ldd r1, [r5+0]
        ldd r2, [r5+8]
        beq r0, r0, loop
    ";
    for (name, src, fast) in [
        ("tlb_hit_loads", hit_loop, true),
        (
            "tlb_miss_stride_loads",
            det_bench::vmwork::TLB_MISS_STRIDE,
            true,
        ),
        ("slow_path_reference", hit_loop, false),
    ] {
        let image = assemble(src).unwrap();
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let (mut cpu, mut mem) = det_bench::vmwork::sandbox("nop");
                mem.write(0, &image.bytes).unwrap();
                cpu.fast_path = fast;
                let start = std::time::Instant::now();
                let exit = cpu.run(&mut mem, Some(iters));
                assert_eq!(exit, VmExit::OutOfBudget);
                start.elapsed()
            })
        });
    }
    // Per-workload throughput: the paper kernels in VM code.
    for k in det_bench::vmwork::KERNELS {
        let image = assemble(k.src).unwrap();
        g.bench_function(format!("{}_kernel", k.name), |b| {
            b.iter_custom(|iters| {
                let (mut cpu, mut mem) = det_bench::vmwork::sandbox("nop");
                mem.write(0, &image.bytes).unwrap();
                let start = std::time::Instant::now();
                let exit = cpu.run(&mut mem, Some(iters));
                assert_eq!(exit, VmExit::OutOfBudget);
                start.elapsed()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = substrate;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_cow_copy, bench_clone, bench_merge, bench_syscall_rendezvous, bench_vm
}
criterion_main!(substrate);
