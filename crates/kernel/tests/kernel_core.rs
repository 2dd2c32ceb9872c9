//! Kernel lifecycle, rendezvous, and determinism tests.

use det_kernel::{
    ConflictPolicy, CopySpec, DeviceId, GetSpec, IoMode, Kernel, KernelConfig, KernelError,
    MemError, Perm, Program, PutSpec, Region, Regs, RunOutcome, SpaceCtx, StopReason, TrapKind,
};

fn kernel() -> Kernel {
    Kernel::new(KernelConfig::default())
}

/// Runs a kernel scenario on a helper thread and fails the test if it
/// does not finish within the deadline — liveness regressions in the
/// rendezvous protocol must show up as test failures, not CI hangs.
fn with_watchdog<F>(f: F) -> RunOutcome
where
    F: FnOnce() -> RunOutcome + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("rendezvous deadlock: scenario did not finish under the watchdog")
}

const R: Region = Region {
    start: 0x1000,
    end: 0x3000,
};

/// Sets up a two-page RW region in the root with a few markers.
fn setup_root(ctx: &mut SpaceCtx) -> det_kernel::Result<()> {
    ctx.mem_mut().map_zero(R, Perm::RW)?;
    ctx.mem_mut().write_u64(0x1000, 0xAAAA)?;
    Ok(())
}

#[test]
fn child_halts_with_exit_code() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new().program(Program::native(|_| Ok(42))).start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Halted);
        assert_eq!(r.code, 42);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 1);
    assert_eq!(out.stats.threads_spawned, 1);
}

#[test]
fn get_on_unstarted_child_sees_zero_state() {
    let out = kernel().run(|ctx| {
        let r = ctx.get(5, GetSpec::new().regs())?;
        assert_eq!(r.stop, StopReason::Unstarted);
        assert_eq!(r.regs.unwrap(), Regs::default());
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 1);
}

#[test]
fn start_without_program_fails() {
    let out = kernel().run(|ctx| {
        let e = ctx.put(0, PutSpec::new().start()).unwrap_err();
        assert_eq!(e, KernelError::NoProgram);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn copy_into_child_and_back() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    let v = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x1008, v + 1)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .start(),
        )?;
        ctx.get(
            0,
            GetSpec::new().copy(CopySpec {
                src: Region::new(0x1000, 0x2000),
                dst: 0x8000,
            }),
        )?;
        assert_eq!(ctx.mem().read_u64(0x8008)?, 0xAAAB);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.stats.pages_copied >= 3);
}

#[test]
fn ret_rendezvous_roundtrips() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.ret(1)?; // First checkpoint.
                    c.ret(2)?; // Second.
                    Ok(3)
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 1));
        // Resume; child rets again.
        ctx.put(0, PutSpec::new().start())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 2));
        // Resume to completion.
        ctx.put(0, PutSpec::new().start())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 3));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.rets, 2);
}

#[test]
fn snapshot_merge_joins_disjoint_writes() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        for i in 0..4u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        c.mem_mut().write_u64(0x2000 + i * 8, 100 + i)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(R))
                    .snap()
                    .start(),
            )?;
        }
        for i in 0..4u64 {
            let r = ctx.get(i, GetSpec::new().merge(R))?;
            assert!(r.merge.is_some());
        }
        for i in 0..4u64 {
            assert_eq!(ctx.mem().read_u64(0x2000 + i * 8)?, 100 + i);
        }
        // Root's own marker survived.
        assert_eq!(ctx.mem().read_u64(0x1000)?, 0xAAAA);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.merges, 4);
    assert_eq!(out.stats.conflicts, 0);
}

#[test]
fn write_write_conflict_detected_at_second_join() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        c.mem_mut().write_u64(0x2000, 100 + i)?; // Same address!
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(R))
                    .snap()
                    .start(),
            )?;
        }
        ctx.get(0, GetSpec::new().merge(R))?;
        let e = ctx.get(1, GetSpec::new().merge(R)).unwrap_err();
        match e {
            KernelError::Conflict(c) => assert_eq!(c.addr, 0x2000),
            other => panic!("expected conflict, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.conflicts, 1);
}

#[test]
fn merge_over_unaligned_region_fails_and_parent_is_intact() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.mem_mut().write_u64(0x2000, 0xBEEF)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        // Wait for the child, then attempt a misaligned merge.
        ctx.get(0, GetSpec::new())?;
        let before = ctx.mem().content_digest();
        let e = ctx
            .get(0, GetSpec::new().merge(Region::new(0x1000, 0x1800)))
            .unwrap_err();
        assert!(matches!(
            e,
            KernelError::Mem(MemError::Misaligned { addr: 0x1800 })
        ));
        // The failed join left the parent byte-identical, and the
        // child is still joinable over the aligned region.
        assert_eq!(ctx.mem().content_digest(), before);
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0xBEEF);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn merge_into_read_only_parent_mapping_fails_and_parent_is_intact() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.mem_mut().write_u64(0x2000, 0xF00D)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new())?;
        // The parent downgrades the page the child wrote to read-only:
        // the join must fail up front (validate-before-write) instead
        // of silently writing through the protection.
        ctx.mem_mut()
            .set_perm(Region::new(0x2000, 0x3000), Perm::R)?;
        let before = ctx.mem().content_digest();
        let e = ctx.get(0, GetSpec::new().merge(R)).unwrap_err();
        assert!(matches!(
            e,
            KernelError::Mem(MemError::PermDenied { addr: 0x2000, .. })
        ));
        assert_eq!(ctx.mem().content_digest(), before);
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0);
        // Restoring the mapping lets the same join complete.
        ctx.mem_mut()
            .set_perm(Region::new(0x2000, 0x3000), Perm::RW)?;
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0xF00D);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn merge_without_snapshot_is_rejected() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_| Ok(0)))
                .copy(CopySpec::mirror(R))
                .start(),
        )?;
        let e = ctx.get(0, GetSpec::new().merge(R)).unwrap_err();
        assert_eq!(e, KernelError::NoSnapshot);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn child_trap_reported_to_parent() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    // Unmapped access faults.
                    c.mem().read_u8(0xdead_0000)?;
                    Ok(0)
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        match r.stop {
            StopReason::Trap(TrapKind::Mem(MemError::Unmapped { .. })) => {}
            other => panic!("expected unmapped trap, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.traps, 1);
}

#[test]
fn child_panic_reported_as_trap() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_| panic!("boom")))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Trap(TrapKind::Panic));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn grandchildren_compose() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    // The child forks its own children.
                    for i in 0..2u64 {
                        c.put(
                            i,
                            PutSpec::new()
                                .program(Program::native(move |cc| {
                                    cc.mem_mut().write_u64(0x2100 + i * 8, 7 + i)?;
                                    Ok(0)
                                }))
                                .copy(CopySpec::mirror(R))
                                .snap()
                                .start(),
                        )?;
                    }
                    for i in 0..2u64 {
                        c.get(i, GetSpec::new().merge(R))?;
                    }
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2100)?, 7);
        assert_eq!(ctx.mem().read_u64(0x2108)?, 8);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 3);
}

#[test]
fn vclock_rendezvous_takes_max() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.charge(1_000_000)?; // 1 ms of work.
                    Ok(0)
                }))
                .start(),
        )?;
        let before = ctx.vclock_ns();
        ctx.get(0, GetSpec::new())?;
        let after = ctx.vclock_ns();
        assert!(after >= 1_000_000, "parent absorbed child's clock: {after}");
        assert!(after >= before);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.vclock_ns >= 1_000_000);
}

#[test]
fn parallel_children_overlap_in_virtual_time() {
    // Two children, 1ms each: makespan ~1ms (parallel), not 2ms.
    let out = kernel().run(|ctx| {
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.charge(1_000_000)?;
                        Ok(0)
                    }))
                    .start(),
            )?;
        }
        for i in 0..2u64 {
            ctx.get(i, GetSpec::new())?;
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.vclock_ns >= 1_000_000);
    assert!(
        out.vclock_ns < 1_200_000,
        "children should overlap: {}",
        out.vclock_ns
    );
}

#[test]
fn sequential_children_accumulate_virtual_time() {
    // Fork-join one at a time: makespan ~2ms.
    let out = kernel().run(|ctx| {
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.charge(1_000_000)?;
                        Ok(0)
                    }))
                    .start(),
            )?;
            ctx.get(i, GetSpec::new())?;
        }
        Ok(0)
    });
    assert!(out.vclock_ns >= 2_000_000);
}

#[test]
fn native_limit_preempts_at_charge_points() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    for _ in 0..10 {
                        c.charge(1_000)?; // 10 µs total.
                    }
                    Ok(0)
                }))
                .start_limited(3_500),
        )?;
        let mut preemptions = 0;
        loop {
            let r = ctx.get(0, GetSpec::new())?;
            match r.stop {
                StopReason::LimitReached => {
                    preemptions += 1;
                    ctx.put(0, PutSpec::new().start_limited(3_500))?;
                }
                StopReason::Halted => break,
                other => panic!("unexpected stop {other:?}"),
            }
        }
        assert!(preemptions >= 2, "got {preemptions}");
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.stats.limit_preemptions >= 2);
}

#[test]
fn vm_child_runs_and_halts() {
    let image = det_vm::assemble(
        "
        ldi r2, 21
        add r2, r2, r2
        li  r5, 0x2000
        std r2, [r5+0]
        ldi r1, 9
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x3000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x3000)))
                .regs(Regs::at_entry(0))
                .snap()
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new().merge(Region::new(0, 0x3000)))?;
        assert_eq!(r.stop, StopReason::Halted);
        assert_eq!(r.code, 9);
        assert_eq!(ctx.mem().read_u64(0x2000)?, 42);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.vm_instructions, 7); // li = 2 insns here.
}

#[test]
fn vm_sys_ret_and_resume() {
    let image = det_vm::assemble(
        "
        ldi r1, 5
        sys 0
        addi r1, r1, 1
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 5));
        ctx.put(0, PutSpec::new().start())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 6));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn vm_tlb_stats_lock_in_translation_reduction() {
    // A workload-shaped loop (fetch + load + store per iteration) run
    // under the kernel: the software TLB must turn per-access page
    // walks into a handful of fills, and the reduction is locked in at
    // the stat level, not by wall-clock. Counters are deterministic —
    // asserted by the exact-equality replay below.
    let image = det_vm::assemble(
        "
        ldi r1, 0
        li  r5, 0x2000
        li  r6, 30000
    loop:
        addi r1, r1, 1
        std r1, [r5+0]
        ldd r2, [r5+0]
        blt r1, r6, loop
        halt
        ",
    )
    .unwrap();
    let run = || {
        let image = image.clone();
        kernel().run(move |ctx| {
            ctx.mem_mut().map_zero(Region::new(0, 0x3000), Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(Region::new(0, 0x3000)))
                    .regs(Regs::at_entry(0))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Halted);
            Ok(0)
        })
    };
    let out = run();
    let s = &out.stats;
    assert!(s.vm_instructions > 100_000, "{s:?}");
    // Pages walked per retired instruction: a fraction of a percent
    // (one fill per page per generation epoch, not one per access).
    assert!(
        s.vm_pages_walked * 200 < s.vm_instructions,
        "walked {} of {} instructions",
        s.vm_pages_walked,
        s.vm_instructions
    );
    // Fetches decode once; loads and stores hit their TLBs.
    assert!(s.vm_icache_hits > s.vm_instructions - 32);
    assert!(s.vm_tlb_hits > 2 * (s.vm_instructions / 6) - 32);
    // The counters are deterministic state: a replay reproduces them
    // exactly (the cost model charges virtual time by them).
    let again = run();
    assert_eq!(s.vm_pages_walked, again.stats.vm_pages_walked);
    assert_eq!(s.vm_tlb_hits, again.stats.vm_tlb_hits);
    assert_eq!(s.vm_icache_hits, again.stats.vm_icache_hits);
    assert_eq!(out.vclock_ns, again.vclock_ns);
}

#[test]
fn vm_instruction_limit_is_exact() {
    // A counting loop; 1 ns per instruction in the default model, so a
    // limit of N ns runs exactly N instructions.
    let image = det_vm::assemble(
        "
        ldi r2, 0
    loop:
        addi r2, r2, 1
        beq r0, r0, loop
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start_limited(101),
        )?;
        let r = ctx.get(0, GetSpec::new().regs())?;
        assert_eq!(r.stop, StopReason::LimitReached);
        // 101 instructions: ldi + 50 × (addi, beq) = 101.
        assert_eq!(r.regs.unwrap().gpr[2], 50);
        // Resume for 10 more instructions: 5 more increments.
        ctx.put(0, PutSpec::new().start_limited(10))?;
        let r = ctx.get(0, GetSpec::new().regs())?;
        assert_eq!(r.regs.unwrap().gpr[2], 55);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.vm_instructions, 111);
}

#[test]
fn vm_trap_is_implicit_ret() {
    let image = det_vm::assemble(
        "
        ldi r1, 1
        ldi r2, 0
        div r3, r1, r2
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Trap(TrapKind::DivideByZero));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn tree_copy_clones_child_subtree() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        // Build child 0 with some state and a grandchild.
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.mem_mut().write_u64(0x1100, 77)?;
                    c.put(9, PutSpec::new().zero(Region::new(0x4000, 0x5000)))?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .start(),
        )?;
        ctx.get(0, GetSpec::new())?;
        // Clone child 0's subtree into child 1.
        ctx.put(1, PutSpec::new().tree_from(0))?;
        let r = ctx.get(
            1,
            GetSpec::new().copy(CopySpec {
                src: Region::new(0x1000, 0x2000),
                dst: 0x9000,
            }),
        )?;
        assert_eq!(r.stop, StopReason::Unstarted);
        assert_eq!(ctx.mem().read_u64(0x9100)?, 77);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    // Root + child0 + grandchild + clone + cloned grandchild.
    assert_eq!(out.stats.spaces_created, 4);
}

#[test]
fn device_access_is_root_only() {
    let out = kernel().run(|ctx| {
        assert!(ctx.is_root());
        ctx.dev_write(DeviceId::ConsoleOut, b"root writes\n")?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    assert!(!c.is_root());
                    match c.dev_write(DeviceId::ConsoleOut, b"child writes") {
                        Err(KernelError::NotRoot) => Ok(0),
                        other => panic!("expected NotRoot, got {other:?}"),
                    }
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Halted);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console(), b"root writes\n");
}

#[test]
fn console_input_and_record_replay() {
    let run = |io: IoMode, push: bool| {
        let k = Kernel::new(KernelConfig::builder().io(io).build());
        if push {
            k.push_input(DeviceId::ConsoleIn, b"hello".to_vec());
        }
        k.run(|ctx| {
            let input = ctx.dev_read(DeviceId::ConsoleIn)?.unwrap_or_default();
            let clock = ctx.dev_read(DeviceId::Clock)?.unwrap();
            let rand = ctx.dev_read(DeviceId::Random)?.unwrap();
            ctx.dev_write(DeviceId::ConsoleOut, &input)?;
            ctx.dev_write(DeviceId::ConsoleOut, &clock)?;
            ctx.dev_write(DeviceId::ConsoleOut, &rand)?;
            Ok(0)
        })
    };
    let first = run(IoMode::Record, true);
    assert_eq!(first.io_log.events.len(), 3);
    // Replay without pushing input: identical output.
    let second = run(IoMode::Replay(first.io_log.clone()), false);
    assert_eq!(first.console(), second.console());
}

#[test]
fn replay_divergence_detected() {
    let first = kernel().run(|ctx| {
        ctx.dev_read(DeviceId::Clock)?;
        Ok(0)
    });
    let replayed = Kernel::new(
        KernelConfig::builder()
            .io(IoMode::Replay(first.io_log))
            .build(),
    )
    .run(|ctx| {
        // Ask for a different device than the log has.
        match ctx.dev_read(DeviceId::Random) {
            Err(KernelError::ReplayDivergence(_)) => Ok(0),
            other => panic!("expected divergence, got {other:?}"),
        }
    });
    assert_eq!(replayed.exit, Ok(0));
}

#[test]
fn conflict_policy_benign_same_value() {
    let k = Kernel::new(
        KernelConfig::builder()
            .policy(ConflictPolicy::BenignSameValue)
            .build(),
    );
    let out = k.run(|ctx| {
        setup_root(ctx)?;
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.mem_mut().write_u64(0x2000, 555)?; // Same value.
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(R))
                    .snap()
                    .start(),
            )?;
        }
        for i in 0..2u64 {
            ctx.get(i, GetSpec::new().merge(R))?;
        }
        assert_eq!(ctx.mem().read_u64(0x2000)?, 555);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.conflicts, 0);
}

#[test]
fn results_identical_across_host_schedules() {
    // Race-prone structure: many children writing disjoint slots with
    // varying compute times. The final memory digest and virtual time
    // must be identical across runs regardless of host scheduling.
    let run = |spin: bool| {
        kernel().run(move |ctx| {
            setup_root(ctx)?;
            for i in 0..8u64 {
                ctx.put(
                    i,
                    PutSpec::new()
                        .program(Program::native(move |c| {
                            if spin && i % 2 == 0 {
                                // Perturb host timing without touching
                                // virtual state.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                            c.charge(1_000 * (i + 1))?;
                            c.mem_mut().write_u64(0x2000 + i * 8, i * i)?;
                            Ok(0)
                        }))
                        .copy(CopySpec::mirror(R))
                        .snap()
                        .start(),
                )?;
            }
            for i in 0..8u64 {
                ctx.get(i, GetSpec::new().merge(R))?;
            }
            Ok(ctx.mem().content_digest().value() as i32)
        })
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.exit, b.exit);
    assert_eq!(a.vclock_ns, b.vclock_ns);
}

#[test]
fn many_sequential_spaces_no_leak() {
    // Exercise slot reuse: 100 forks into the same child number.
    let out = kernel().run(|ctx| {
        for i in 0..100 {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(move |_| Ok(i)))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.code, i as u64);
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 1);
    assert_eq!(out.stats.threads_spawned, 100);
}

#[test]
fn unjoined_running_child_is_cleaned_up() {
    // The root exits while a child still computes; shutdown must not
    // hang (the child hits a charge() and observes destruction).
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    loop {
                        c.charge(1)?;
                        std::thread::yield_now();
                    }
                }))
                .start(),
        )?;
        Ok(0) // Exit immediately without joining.
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn node_field_without_cluster_is_unreachable() {
    let out = kernel().run(|ctx| {
        let c = det_kernel::child_on_node(3, 1);
        match ctx.put(c, PutSpec::new()) {
            Err(KernelError::NodeUnreachable(3)) => Ok(0),
            other => panic!("expected NodeUnreachable, got {other:?}"),
        }
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn root_cannot_ret() {
    let out = kernel().run(|ctx| match ctx.ret(0) {
        Err(KernelError::InvalidSpec(_)) => Ok(0),
        other => panic!("expected InvalidSpec, got {other:?}"),
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn root_trap_reported_in_outcome() {
    let out = kernel().run(|ctx| {
        ctx.mem().read_u8(0x1)?;
        Ok(0)
    });
    assert!(matches!(out.exit, Err(TrapKind::Mem(_))));
}

// ---------------------------------------------------------------------
// Targeted-wakeup rendezvous engine (DESIGN.md §6)
// ---------------------------------------------------------------------

/// A space thread that dies without checking in — here by fabricating
/// the kernel's own `Destroyed` error — must trap its waiting parent
/// deterministically instead of leaving the slot stuck in `Running`
/// and the parent deadlocked in `wait_idle` forever.
#[test]
fn fabricated_destroyed_return_traps_parent_not_deadlock() {
    let out = with_watchdog(|| {
        kernel().run(|ctx| {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(|_| Err(KernelError::Destroyed)))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            match r.stop {
                StopReason::Trap(TrapKind::Fault(_)) => Ok(0),
                other => panic!("expected fault trap, got {other:?}"),
            }
        })
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.traps, 1);
}

/// A child that panics mid-rendezvous-protocol (after a successful
/// `Ret` round trip) must surface as a trap at the parent's next
/// rendezvous, never as a hang.
#[test]
fn panicking_child_mid_rendezvous_traps_parent() {
    let out = with_watchdog(|| {
        kernel().run(|ctx| {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.ret(1)?;
                        panic!("child dies between rendezvous");
                    }))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!((r.stop, r.code), (StopReason::Ret, 1));
            ctx.put(0, PutSpec::new().start())?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Trap(TrapKind::Panic));
            Ok(0)
        })
    });
    assert_eq!(out.exit, Ok(0));
}

/// A native program's trap is terminal (the closure has unwound;
/// there is no vehicle left to resume): `Start` must fail cleanly
/// instead of marking the slot `Running` with nobody to wake — which
/// would deadlock the next `wait_idle`.
#[test]
fn resume_after_terminal_native_trap_fails_cleanly() {
    let out = with_watchdog(|| {
        kernel().run(|ctx| {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(|_| panic!("boom")))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Trap(TrapKind::Panic));
            match ctx.put(0, PutSpec::new().start()) {
                Err(KernelError::NoProgram) => {}
                other => panic!("expected NoProgram, got {other:?}"),
            }
            // The slot is reusable with a fresh program.
            ctx.put(
                0,
                PutSpec::new().program(Program::native(|_| Ok(5))).start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!((r.stop, r.code), (StopReason::Halted, 5));
            Ok(0)
        })
    });
    assert_eq!(out.exit, Ok(0));
}

/// The lazy-inline contract: a started VM child that nobody waits on
/// is never driven. It retires no instruction (its program would spin
/// forever), shutdown does not hang on it, and the abandoned child
/// leaves the outcome exactly reproducible.
#[test]
fn unwaited_vm_child_retires_nothing() {
    let image = det_vm::assemble(
        "
    loop:
        addi r2, r2, 1
        beq r0, r0, loop
        ",
    )
    .unwrap();
    let run = || {
        let image = image.clone();
        kernel().run(move |ctx| {
            ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                    .regs(Regs::at_entry(0))
                    .start(),
            )?;
            Ok(0) // Exit without ever waiting on the child.
        })
    };
    let first = run();
    assert_eq!(first.exit, Ok(0));
    assert_eq!(first.stats.vm_instructions, 0);
    assert_eq!(first.stats.vm_inline_runs, 0);
    assert_eq!(first.stats.threads_spawned, 0);
    let second = run();
    assert_eq!(
        (second.exit, second.vclock_ns, &second.stats),
        (first.exit, first.vclock_ns, &first.stats)
    );
}

/// The targeted-wakeup lock-in: every park/resume/final check-in
/// issues exactly one condvar notify aimed at its one known waiter,
/// so the total is an exact deterministic function of the rendezvous
/// history — and, critically, *independent of how many other spaces
/// sit parked*. A broadcast engine (the old `notify_all` herd) cannot
/// reproduce these counts.
#[test]
fn targeted_wakeups_exact_and_independent_of_parked_population() {
    const R: u64 = 50; // Roundtrips on the active child.
    let run = |bystanders: u64| {
        kernel().run(move |ctx| {
            // Park `bystanders` children at a Ret rendezvous.
            for b in 0..bystanders {
                ctx.put(
                    b,
                    PutSpec::new()
                        .program(Program::native(|c| {
                            c.ret(0)?;
                            Ok(0)
                        }))
                        .start(),
                )?;
                ctx.get(b, GetSpec::new())?;
            }
            // Drive R rendezvous roundtrips on one more child.
            ctx.put(
                100,
                PutSpec::new()
                    .program(Program::native(|c| {
                        for _ in 0..R {
                            c.ret(0)?;
                        }
                        Ok(0)
                    }))
                    .start(),
            )?;
            for _ in 0..R {
                ctx.get(100, GetSpec::new())?;
                ctx.put(100, PutSpec::new().start())?;
            }
            ctx.get(100, GetSpec::new())?;
            Ok(0)
        })
    };
    // Per roundtrip: one park notify + one resume notify. Plus one
    // park notify per bystander and one final check-in notify for the
    // active child's halt.
    let expect = |b: u64| 2 * R + b + 1;
    for b in [0u64, 6] {
        let out = run(b);
        assert_eq!(out.exit, Ok(0));
        assert_eq!(
            out.stats.condvar_wakeups,
            expect(b),
            "wakeups for {b} parked bystanders"
        );
        // Deterministic: an identical rerun reproduces the count.
        assert_eq!(run(b).stats.condvar_wakeups, expect(b));
    }
}

/// Inline VM dispatch: a leaf VM space is executed by the waiting
/// parent, so its rendezvous issues no condvar traffic and spawns no
/// vehicle at all.
#[test]
fn vm_inline_rendezvous_issues_no_wakeups() {
    let image = det_vm::assemble(
        "
    loop:
        sys 0
        beq r0, r0, loop
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        for _ in 0..40 {
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Ret);
            ctx.put(0, PutSpec::new().start())?;
        }
        ctx.get(0, GetSpec::new())?;
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(
        out.stats.condvar_wakeups, 0,
        "inline rendezvous must not touch condvars"
    );
    assert_eq!(
        out.stats.threads_spawned, 0,
        "leaf VM spaces need no vehicle"
    );
    assert!(out.stats.vm_inline_runs > 40);
    assert_eq!(out.stats.rets, 41);
}

/// Installing a program over a child parked at a *resumable* trap is
/// `ChildActive` — the live inline VM state must not be replaced out
/// from under a possible resume.
#[test]
fn program_replacement_over_resumable_trap_is_child_active() {
    let image = det_vm::assemble(
        "
        ldi r1, 1
        ldi r2, 0
        div r3, r1, r2
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Trap(TrapKind::DivideByZero));
        match ctx.put(0, PutSpec::new().program(Program::Vm)) {
            Err(KernelError::ChildActive) => Ok(0),
            other => panic!("expected ChildActive, got {other:?}"),
        }
    });
    assert_eq!(out.exit, Ok(0));
}

/// The fused `PutGet` exchange: applies the Put at the current stop,
/// restarts the child, and collects its *next* stop in one kernel
/// entry.
#[test]
fn put_get_exchange_resumes_and_collects_next_stop() {
    let out = kernel().run(|ctx| {
        // Without Start the exchange has no next stop to collect.
        match ctx.put_get(0, PutSpec::new(), GetSpec::new()) {
            Err(KernelError::InvalidSpec(_)) => {}
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    for i in 1..=3u64 {
                        c.ret(i)?;
                    }
                    Ok(9)
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 1));
        let r = ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 2));
        let r = ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 3));
        let r = ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 9));
        // Nothing left to resume.
        match ctx.put_get(0, PutSpec::new().start(), GetSpec::new()) {
            Err(KernelError::NoProgram) => {}
            other => panic!("expected NoProgram, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    // Counted at kernel entry, like puts/gets: 3 successful exchanges
    // plus the final NoProgram attempt.
    assert_eq!(out.stats.put_gets, 4);
    assert_eq!(out.stats.puts, 1);
    assert_eq!(out.stats.gets, 1);
    assert_eq!(out.stats.rets, 3);
}

/// `PutGet` carries the full option set through both rendezvous: the
/// Put stages state into the child, the Get merges the child's writes
/// out of its next stop.
#[test]
fn put_get_stages_and_merges_like_split_calls() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    // Round 1: publish what we inherited, then stop.
                    let seen = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x2000, seen)?;
                    c.ret(0)?;
                    // Round 2 (after the parent's PutGet restaged us):
                    let seen = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x2008, seen)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0xAAAA);
        // Re-stage a changed input and collect the next round's merge
        // in one exchange.
        ctx.mem_mut().write_u64(0x1000, 0xBBBB)?;
        let r = ctx.put_get(
            0,
            PutSpec::new().copy(CopySpec::mirror(R)).snap().start(),
            GetSpec::new().merge(R),
        )?;
        assert_eq!(r.stop, StopReason::Halted);
        assert!(r.merge.is_some());
        assert_eq!(ctx.mem().read_u64(0x2008)?, 0xBBBB);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.merges, 2);
}

#[test]
fn fork_charges_leaves_not_pages() {
    // The structural-clone cost rule: a Put with Copy+Snap over a
    // leaf-congruent 4 MiB region charges per shared page-table leaf
    // (2 for 4 MiB), not per mapped page (1024) — the O(touched) fork
    // of PAPER.md §3.2/§8. The stats expose the split so the reduction
    // is locked in as deterministic counters.
    use det_memory::PAGES_PER_LEAF;
    let leaf_bytes = (PAGES_PER_LEAF * 4096) as u64;
    let big = Region::sized(4 * leaf_bytes, 4 * 1024 * 1024);
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(big, Perm::RW)?;
        for vpn in 0..big.page_count() {
            ctx.mem_mut().write_u64(big.start + vpn * 4096, vpn)?;
        }
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_| Ok(0)))
                .copy(CopySpec::mirror(big))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new())?;
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    // Copy shared 2 leaves; Snap cloned the child's 2-leaf spine.
    assert_eq!(out.stats.leaves_cloned, 4);
    assert_eq!(out.stats.pages_copied, 1024);
    assert_eq!(out.stats.pages_snapped, 1024);
    // The virtual-time charge for the whole fork must be far below the
    // per-page cost it replaced (1024 pages × page_map_ps twice).
    let costs = det_kernel::CostModel::calibrated();
    assert!(costs.clone_cost_ps(4) * 5 < costs.map_cost_ps(2 * 1024));
}

#[test]
fn analyze_footprint_predicts_and_charges_deterministically() {
    let image = det_vm::assemble(det_vm::corpus::FFT_KERNEL).unwrap();
    let len = image.bytes.len() as u64;
    let run_once = || {
        let img = image.bytes.clone();
        kernel().run(move |ctx| {
            ctx.mem_mut().map_zero(Region::new(0, 0x10000), Perm::RW)?;
            ctx.mem_mut().write(0, &img)?;
            let before_ps = ctx.vclock_ps();
            let fp = ctx.analyze_footprint(0, len)?;
            let charged = ctx.vclock_ps() - before_ps;
            // The fft kernel marches two pointers over one data page:
            // the analysis recovers exactly page 8.
            assert_eq!(fp.writes, det_kernel::PageSet::Ranges(vec![(8, 8)]));
            assert!(!fp.reads.is_unbounded());
            // The charge is the fused syscall + per-step cost, priced
            // by the analyzer's own deterministic step count.
            let costs = det_kernel::CostModel::calibrated();
            assert_eq!(charged, costs.syscall_ps + costs.analyze_cost_ps(fp.steps));
            assert!(fp.steps > 0);
            Ok(fp.steps as i32)
        })
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.exit, b.exit, "analysis step count must be deterministic");
    assert_eq!(a.vclock_ns, b.vclock_ns);
}
