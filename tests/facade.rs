//! Lock-in for the curated facade: the `determinator::prelude` and
//! the domain modules must keep exposing the promised names. A rename
//! or a dropped re-export fails this suite at compile time — the
//! public surface is intentional, not accidental.

use determinator::prelude::*;

/// Every name the prelude promises, mentioned by path so a dropped
/// re-export is a compile error here (not a surprise downstream).
#[test]
fn prelude_exposes_the_expected_names() {
    // Construction surface.
    let _cfg: KernelConfig = KernelConfig::default();
    let _builder: KernelConfigBuilder = KernelConfig::builder();
    let _costs: CostModel = CostModel::default();
    let _policy: ConflictPolicy = ConflictPolicy::default();

    // Syscall vocabulary.
    let _put: PutSpec = PutSpec::new();
    let _get: GetSpec = GetSpec::new();
    let _copy: CopySpec = CopySpec::mirror(Region::new(0, 0x1000));
    let _start: StartSpec = StartSpec::default();
    let _stop: StopReason = StopReason::Unstarted;
    let _perm: Perm = Perm::RW;

    // Error surface.
    let err: KernelError = KernelError::NoSnapshot;
    let _trap: TrapKind = err.as_trap();

    // Devices.
    let _dev: DeviceId = DeviceId::ConsoleOut;
    let _io: IoMode = IoMode::default();

    // Trace record/replay surface.
    let _sink: TraceSink = TraceSink::new();
}

/// The prelude runs a kernel end to end: `Kernel`, `SpaceCtx`,
/// `Program`, `RunOutcome`, `PutResult`/`GetResult`, and `KernelStats`
/// are all reachable without naming any inner crate.
#[test]
fn prelude_drives_a_kernel() {
    let out: RunOutcome = Kernel::new(KernelConfig::default()).run(|ctx: &mut SpaceCtx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        let put: PutResult = ctx.put(
            0,
            PutSpec::new().program(Program::native(|_c| Ok(5))).start(),
        )?;
        assert_eq!(put.child_was, StopReason::Unstarted);
        let got: GetResult = ctx.get(0, GetSpec::new())?;
        assert_eq!(got.stop, StopReason::Halted);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    let stats: KernelStats = out.stats.clone();
    assert_eq!(stats.puts, 1);
    assert_eq!(stats.gets, 1);
}

/// Trace types round-trip through the prelude: record a run, collect
/// the `Trace`, replay to a `ReplayOutcome`, serialize via
/// `TraceMeta`-carrying JSON.
#[test]
fn prelude_trace_surface_round_trips() {
    let sink = TraceSink::new();
    let cfg = KernelConfig::builder().trace(sink.clone()).build();
    let live = Kernel::new(cfg).run(|ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write_u64(0, 42)?;
        Ok(3)
    });
    assert_eq!(live.exit, Ok(3));
    let trace: Trace = sink.collect().expect("sink records a trace");
    let json = trace.to_json();
    let trace2 = Trace::from_json(&json).expect("trace json round-trips");
    let rep: ReplayOutcome = trace2.replay().expect("trace replays");
    assert_eq!(rep.exit, live.exit);
    assert_eq!(rep.vclock_ns, live.vclock_ns);
}

/// The domain modules stay reachable with their curated contents.
#[test]
fn domain_modules_expose_their_names() {
    let _r: determinator::memory::Region = determinator::memory::Region::new(0, 0x1000);
    let _d = determinator::memory::ContentDigest::default();
    let _space = determinator::memory::AddressSpace::new();
    let _regs = determinator::vm::Regs::default();
    let _decode = determinator::vm::decode;
    let _reg: determinator::runtime::ProgramRegistry =
        determinator::runtime::ProgramRegistry::new();
    let _mode: determinator::workloads::Mode = determinator::workloads::Mode::Determinator;
    let _net = determinator::cluster::NetworkModel::ethernet_1g();
    // Headline types are also unqualified at the crate root.
    let _k: determinator::KernelConfig = determinator::KernelConfig::default();
    let _s: determinator::TraceSink = determinator::TraceSink::new();
}
