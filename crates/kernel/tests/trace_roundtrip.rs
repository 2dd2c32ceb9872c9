//! Trace record/replay lock-in: a recorded run re-applied through the
//! pure core — **no vehicles, no VM interpretation, no host devices**
//! — must land on the same exit status, virtual clock, kernel stats,
//! device outputs, and per-space memory digests as the live run.
//!
//! Every scenario also pushes the trace through its JSON serialization
//! before replaying, so the on-disk form is covered by the same
//! bit-identity guarantee.

use det_kernel::{
    CopySpec, DeviceId, GetSpec, Kernel, KernelConfig, KernelError, Program, PutSpec, Region,
    RunOutcome, StopReason, Trace, TraceSink,
};
use det_memory::Perm;
use det_vm::Regs;

/// Replays `sink`'s recording (through JSON) and asserts it matches
/// the live outcome bit-for-bit. Host-scheduling noise lives in
/// `RunOutcome::host`, outside the comparison; everything the kernel
/// itself produced must be identical — no carve-outs.
fn assert_replay_matches(live: &RunOutcome, sink: &TraceSink) {
    let trace = sink.collect().expect("sink recorded a trace");
    let json = trace.to_json();
    let trace = Trace::from_json(&json).expect("trace survives JSON round-trip");
    let rep = trace.replay().expect("trace replays cleanly");

    assert_eq!(rep.exit, live.exit, "exit status must replay");
    assert_eq!(rep.vclock_ns, live.vclock_ns, "virtual clock must replay");
    assert_eq!(rep.outputs, live.outputs, "device outputs must replay");
    assert_eq!(
        rep.spaces, live.spaces,
        "per-space artifacts (paths, clocks, digests) must replay"
    );
    assert_eq!(
        rep.space_paths, live.space_paths,
        "lineage paths must replay"
    );
    assert_eq!(rep.stats, live.stats, "kernel stats must replay");
}

/// The PR 5 rendezvous storm — fork-join plus rounds of the fused
/// put_get exchange with merges and restaging — recorded and replayed.
/// This is the acceptance-criteria scenario: the dominant runtime
/// pattern, covering Put (program install, copy, snap, start), fused
/// PutGet, merge, Ret and Halted check-ins.
#[test]
fn put_get_storm_replays_bit_identically() {
    let sink = TraceSink::new();
    let region = Region::new(0x1000, 0x5000);
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        const N: u64 = 4;
        const ROUNDS: u64 = 6;
        for i in 0..N {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        for round in 0..ROUNDS {
                            c.mem_mut().write_u64(0x2000 + i * 8, round * N + i)?;
                            c.ret(round)?;
                        }
                        Ok(i as i32)
                    }))
                    .copy(CopySpec::mirror(region))
                    .snap()
                    .start(),
            )?;
        }
        for round in 0..ROUNDS {
            for i in 0..N {
                let r = if round == 0 {
                    ctx.get(i, GetSpec::new().merge(region))?
                } else {
                    ctx.put_get(
                        i,
                        PutSpec::new().copy(CopySpec::mirror(region)).snap().start(),
                        GetSpec::new().merge(region),
                    )?
                };
                assert_eq!(r.stop, StopReason::Ret);
            }
        }
        for i in 0..N {
            let r = ctx.put_get(
                i,
                PutSpec::new().copy(CopySpec::mirror(region)).snap().start(),
                GetSpec::new().merge(region),
            )?;
            assert_eq!((r.stop, r.code), (StopReason::Halted, i));
        }
        Ok(ctx.mem().content_digest().value() as i32)
    });
    assert!(out.exit.is_ok(), "storm must not trap: {:?}", out.exit);
    assert!(out.stats.put_gets > 0, "storm exercises the fused path");
    assert!(out.stats.merges > 0, "storm exercises merges");
    assert_replay_matches(&out, &sink);
}

/// VM children, run inline on the waiting parent: the replay
/// reproduces exact instruction counts, VM cache counters, and
/// vclock charges without interpreting a single instruction.
#[test]
fn inline_vm_children_replay_bit_identically() {
    let image = det_vm::assemble(
        "
        ldi r1, 0
        li  r5, 0x2000
    loop:
        addi r1, r1, 1
        std r1, [r5+0]
        sys 0
        li  r6, 4
        blt r1, r6, loop
        halt
        ",
    )
    .unwrap();
    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x3000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(Region::new(0, 0x3000)))
                    .regs(Regs::at_entry(0))
                    .start(),
            )?;
        }
        for i in 0..2u64 {
            loop {
                let r = ctx.get(
                    i,
                    GetSpec::new().copy(CopySpec {
                        src: Region::new(0x2000, 0x3000),
                        dst: 0x8000 + i * 0x1000,
                    }),
                )?;
                match r.stop {
                    StopReason::Ret => ctx.put(i, PutSpec::new().start())?,
                    StopReason::Halted => break,
                    other => panic!("unexpected stop {other:?}"),
                };
            }
        }
        Ok(ctx.mem().content_digest().value() as i32)
    });
    assert!(out.exit.is_ok());
    assert!(out.stats.vm_instructions > 0, "VM children really ran");
    assert!(out.stats.vm_inline_runs > 0, "inline dispatch exercised");
    assert_replay_matches(&out, &sink);
}

/// Root device I/O: pushed inputs consumed by `dev_read` and console
/// bytes from `dev_write` both appear identically in the replay —
/// inputs via the recorded deltas, outputs via replayed effects.
#[test]
fn device_io_replays_bit_identically() {
    let sink = TraceSink::new();
    let k = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
    k.push_input(DeviceId::ConsoleIn, b"deterministic".to_vec());
    let out = k.run(|ctx| {
        let data = ctx.dev_read(DeviceId::ConsoleIn)?.expect("input queued");
        ctx.dev_write(DeviceId::ConsoleOut, &data)?;
        ctx.dev_write(DeviceId::ConsoleOut, b" echo")?;
        // A read past the queue returns None; that, too, must replay.
        assert!(ctx.dev_read(DeviceId::ConsoleIn)?.is_none());
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console(), b"deterministic echo");
    assert_replay_matches(&out, &sink);
}

/// Error paths replay: a write/write merge conflict traps the second
/// join deterministically, and the recorded trace reproduces the
/// conflict counter, the caller's charge, and the final digests.
#[test]
fn merge_conflict_replays_bit_identically() {
    let sink = TraceSink::new();
    let region = Region::new(0x1000, 0x2000);
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        c.mem_mut().write_u64(0x1800, 100 + i)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(region))
                    .snap()
                    .start(),
            )?;
        }
        ctx.get(0, GetSpec::new().merge(region))?;
        match ctx.get(1, GetSpec::new().merge(region)) {
            Err(KernelError::Conflict(c)) => assert_eq!(c.addr, 0x1800),
            other => panic!("expected conflict, got {other:?}"),
        }
        Ok(9)
    });
    assert_eq!(out.exit, Ok(9));
    assert_eq!(out.stats.conflicts, 1);
    assert_replay_matches(&out, &sink);
}

/// A panicking native child mid-rendezvous: the vehicle dies without
/// state, the shell synthesizes a terminal trap (PR 5's liveness fix),
/// and the lost-state check-in replays to the same trap and stats.
#[test]
fn lost_state_trap_replays_bit_identically() {
    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_c| panic!("vehicle dies")))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert!(matches!(r.stop, StopReason::Trap(_)), "got {:?}", r.stop);
        Ok(1)
    });
    assert_eq!(out.exit, Ok(1));
    assert_replay_matches(&out, &sink);
}

/// Deep hierarchies replay: a child that itself forks grandchildren
/// (native programs calling Put/Get from inside their own space).
#[test]
fn nested_fork_join_replays_bit_identically() {
    let sink = TraceSink::new();
    let region = Region::new(0x1000, 0x2000);
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(move |c| {
                    for j in 0..2u64 {
                        c.put(
                            j,
                            PutSpec::new()
                                .program(Program::native(move |g| {
                                    g.mem_mut().write_u64(0x1000 + j * 8, j + 1)?;
                                    Ok(0)
                                }))
                                .copy(CopySpec::mirror(region))
                                .snap()
                                .start(),
                        )?;
                    }
                    for j in 0..2u64 {
                        c.get(j, GetSpec::new().merge(region))?;
                    }
                    Ok(0)
                }))
                .copy(CopySpec::mirror(region))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new().merge(region))?;
        assert_eq!(ctx.mem().read_u64(0x1000)?, 1);
        assert_eq!(ctx.mem().read_u64(0x1008)?, 2);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_replay_matches(&out, &sink);
}

/// Without a sink the kernel records nothing and pays nothing:
/// `spaces` stays empty and `collect` returns `None`.
#[test]
fn no_sink_means_no_trace() {
    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::default()).run(|_ctx| Ok(0));
    assert_eq!(out.exit, Ok(0));
    assert!(out.spaces.is_empty());
    assert!(out.space_paths.is_empty());
    assert!(sink.collect().is_none());
}
