//! Figure/table regeneration harness for the paper's evaluation (PAPER.md §6).
//!
//! Each `fig*` function computes one figure's series in virtual time
//! and returns printable rows; the `report` binary drives them. The
//! Criterion benches (in `benches/`) measure the *real* throughput of
//! the substrate on the host, validating the cost-model calibration.

use det_workloads::blackscholes::{self, BsConfig};
use det_workloads::dist::{self, DistConfig};
use det_workloads::fft::{self, FftConfig};
use det_workloads::lu::{self, Layout, LuConfig};
use det_workloads::matmult::{self, MatmultConfig};
use det_workloads::md5::{self, Md5Config};
use det_workloads::qsort::{self, QsortConfig};
use det_workloads::{Mode, speedup};

pub mod vmwork;

/// One printable table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table id and caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("\n### {}\n\n", self.title);
        out += &format!("| {} |\n", self.headers.join(" | "));
        out += &format!("|{}\n", "---|".repeat(self.headers.len()));
        for row in &self.rows {
            out += &format!("| {} |\n", row.join(" | "));
        }
        out
    }
}

/// Problem scale for report runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Seconds-per-figure sizes for CI and quick checks.
    Quick,
    /// Paper-comparable sizes (minutes).
    Full,
}

fn thread_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 12],
    }
}

/// The seven single-node benchmarks at given thread count and scale.
/// Returns (name, det_ns, base_ns).
fn bench_pair(name: &str, threads: usize, scale: Scale) -> (u64, u64) {
    let run = |mode: Mode| -> u64 {
        match (name, scale) {
            ("md5", Scale::Quick) => md5::run(mode, Md5Config::quick(threads)).vclock_ns,
            ("md5", Scale::Full) => {
                md5::run(
                    mode,
                    Md5Config {
                        threads,
                        keyspace: 200_000,
                        target: 173_210,
                    },
                )
                .vclock_ns
            }
            ("matmult", Scale::Quick) => {
                matmult::run(mode, MatmultConfig { threads, n: 128 }).vclock_ns
            }
            ("matmult", Scale::Full) => {
                matmult::run(mode, MatmultConfig { threads, n: 512 }).vclock_ns
            }
            ("qsort", Scale::Quick) => {
                qsort::run(
                    mode,
                    QsortConfig {
                        depth: threads.next_power_of_two().trailing_zeros(),
                        n: 65_536,
                    },
                )
                .vclock_ns
            }
            ("qsort", Scale::Full) => {
                qsort::run(
                    mode,
                    QsortConfig {
                        depth: threads.next_power_of_two().trailing_zeros(),
                        n: 1 << 20,
                    },
                )
                .vclock_ns
            }
            ("blackscholes", Scale::Quick) => {
                blackscholes::run(
                    mode,
                    BsConfig {
                        threads,
                        options: 16_384,
                        quantum_ns: 1_000_000,
                    },
                )
                .vclock_ns
            }
            ("blackscholes", Scale::Full) => {
                blackscholes::run(
                    mode,
                    BsConfig {
                        threads,
                        options: 65_536,
                        quantum_ns: blackscholes::PAPER_QUANTUM_NS,
                    },
                )
                .vclock_ns
            }
            ("fft", Scale::Quick) => fft::run(mode, FftConfig { threads, log2n: 13 }).vclock_ns,
            ("fft", Scale::Full) => fft::run(mode, FftConfig { threads, log2n: 16 }).vclock_ns,
            ("lu_cont", Scale::Quick) => {
                lu::run(
                    mode,
                    LuConfig {
                        threads,
                        n: 128,
                        layout: Layout::Contiguous,
                    },
                )
                .vclock_ns
            }
            ("lu_cont", Scale::Full) => {
                lu::run(
                    mode,
                    LuConfig {
                        threads,
                        n: 320,
                        layout: Layout::Contiguous,
                    },
                )
                .vclock_ns
            }
            ("lu_noncont", Scale::Quick) => {
                lu::run(
                    mode,
                    LuConfig {
                        threads,
                        n: 128,
                        layout: Layout::NonContiguous,
                    },
                )
                .vclock_ns
            }
            ("lu_noncont", Scale::Full) => {
                lu::run(
                    mode,
                    LuConfig {
                        threads,
                        n: 320,
                        layout: Layout::NonContiguous,
                    },
                )
                .vclock_ns
            }
            _ => unreachable!("unknown benchmark {name}"),
        }
    };
    (run(Mode::Determinator), run(Mode::Baseline))
}

/// All Figure 7/8 benchmark names.
pub const BENCHMARKS: &[&str] = &[
    "md5",
    "matmult",
    "qsort",
    "blackscholes",
    "fft",
    "lu_cont",
    "lu_noncont",
];

/// Figure 7: Determinator performance relative to the conventional
/// baseline (1.0 = parity, higher = Determinator faster).
pub fn fig7(scale: Scale) -> Table {
    let threads = thread_counts(scale);
    let mut rows = Vec::new();
    for &name in BENCHMARKS {
        let mut row = vec![name.to_string()];
        for &t in &threads {
            let (d, b) = bench_pair(name, t, scale);
            row.push(format!("{:.2}", b as f64 / d as f64));
        }
        rows.push(row);
    }
    let mut headers = vec!["benchmark".into()];
    headers.extend(threads.iter().map(|t| format!("{t} cpus")));
    Table {
        title: "Figure 7 — speed relative to the nondeterministic baseline (1.0 = parity)".into(),
        headers,
        rows,
    }
}

/// Figure 8: parallel speedup over Determinator's own 1-CPU run.
pub fn fig8(scale: Scale) -> Table {
    let threads = thread_counts(scale);
    let mut rows = Vec::new();
    for &name in BENCHMARKS {
        let (base, _) = bench_pair(name, 1, scale);
        let mut row = vec![name.to_string()];
        for &t in &threads {
            let (d, _) = bench_pair(name, t, scale);
            row.push(format!("{:.2}", speedup(base, d)));
        }
        rows.push(row);
    }
    let mut headers = vec!["benchmark".into()];
    headers.extend(threads.iter().map(|t| format!("{t} cpus")));
    Table {
        title: "Figure 8 — Determinator speedup over its own single-CPU run".into(),
        headers,
        rows,
    }
}

/// Figure 9: matmult baseline-relative speed vs matrix size.
pub fn fig9(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![16, 32, 64, 128, 256],
        Scale::Full => vec![16, 32, 64, 128, 256, 512, 1024],
    };
    let rows = sizes
        .iter()
        .map(|&n| {
            let cfg = MatmultConfig { threads: 8, n };
            let d = matmult::run(Mode::Determinator, cfg).vclock_ns;
            let b = matmult::run(Mode::Baseline, cfg).vclock_ns;
            vec![n.to_string(), format!("{:.2}", b as f64 / d as f64)]
        })
        .collect();
    Table {
        title: "Figure 9 — matmult relative speed vs matrix size (8 threads)".into(),
        headers: vec!["N".into(), "relative speed".into()],
        rows,
    }
}

/// Figure 10: qsort baseline-relative speed vs array size.
pub fn fig10(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18],
        Scale::Full => vec![
            1 << 10,
            1 << 12,
            1 << 14,
            1 << 16,
            1 << 18,
            1 << 20,
            1 << 22,
        ],
    };
    let rows = sizes
        .iter()
        .map(|&n| {
            let cfg = QsortConfig { depth: 3, n };
            let d = qsort::run(Mode::Determinator, cfg).vclock_ns;
            let b = qsort::run(Mode::Baseline, cfg).vclock_ns;
            vec![n.to_string(), format!("{:.2}", b as f64 / d as f64)]
        })
        .collect();
    Table {
        title: "Figure 10 — qsort relative speed vs array size (depth-3 fork tree)".into(),
        headers: vec!["elements".into(), "relative speed".into()],
        rows,
    }
}

fn node_counts(scale: Scale) -> Vec<u16> {
    match scale {
        Scale::Quick => vec![1, 2, 4, 8, 16],
        Scale::Full => vec![1, 2, 4, 8, 16, 32],
    }
}

/// Figure 11: distributed speedup over 1-node execution (log-log in
/// the paper; we print the series).
pub fn fig11(scale: Scale) -> Table {
    let nodes = node_counts(scale);
    let md5_size = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 400_000,
    };
    let mm_size = match scale {
        Scale::Quick => 256,
        Scale::Full => 512,
    };
    let circuit1 = dist::md5_circuit(DistConfig {
        nodes: 1,
        size: md5_size,
        tcp_like: false,
    })
    .vclock_ns;
    let tree1 = dist::md5_tree(DistConfig {
        nodes: 1,
        size: md5_size,
        tcp_like: false,
    })
    .vclock_ns;
    let mm1 = dist::matmult_tree(DistConfig {
        nodes: 1,
        size: mm_size,
        tcp_like: false,
    })
    .vclock_ns;
    let mut rows = Vec::new();
    for &k in &nodes {
        let c = dist::md5_circuit(DistConfig {
            nodes: k,
            size: md5_size,
            tcp_like: false,
        })
        .vclock_ns;
        let t = dist::md5_tree(DistConfig {
            nodes: k,
            size: md5_size,
            tcp_like: false,
        })
        .vclock_ns;
        let m = dist::matmult_tree(DistConfig {
            nodes: k,
            size: mm_size,
            tcp_like: false,
        })
        .vclock_ns;
        rows.push(vec![
            k.to_string(),
            format!("{:.2}", speedup(circuit1, c)),
            format!("{:.2}", speedup(tree1, t)),
            format!("{:.2}", speedup(mm1, m)),
        ]);
    }
    Table {
        title: "Figure 11 — distributed speedup over 1-node run".into(),
        headers: vec![
            "nodes".into(),
            "md5-circuit".into(),
            "md5-tree".into(),
            "matmult-tree".into(),
        ],
        rows,
    }
}

/// Figure 12: deterministic shared-memory benchmarks vs
/// message-passing equivalents, plus the TCP-like ablation.
pub fn fig12(scale: Scale) -> Table {
    let nodes = node_counts(scale);
    let md5_size = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 400_000,
    };
    let mm_size = match scale {
        Scale::Quick => 256,
        Scale::Full => 512,
    };
    let mut rows = Vec::new();
    for &k in &nodes {
        let cfg = DistConfig {
            nodes: k,
            size: md5_size,
            tcp_like: false,
        };
        let det_md5 = dist::md5_tree(cfg).vclock_ns;
        let mp_md5 = dist::mp_md5_ns(cfg);
        let det_md5_tcp = dist::md5_tree(DistConfig {
            tcp_like: true,
            ..cfg
        })
        .vclock_ns;
        let mm_cfg = DistConfig {
            nodes: k,
            size: mm_size,
            tcp_like: false,
        };
        let det_mm = dist::matmult_tree(mm_cfg).vclock_ns;
        let mp_mm = dist::mp_matmult_ns(mm_cfg);
        rows.push(vec![
            k.to_string(),
            format!("{:.2}", mp_md5 as f64 / det_md5 as f64),
            format!("{:.2}", mp_mm as f64 / det_mm as f64),
            format!(
                "{:+.2}%",
                (det_md5_tcp as f64 / det_md5 as f64 - 1.0) * 100.0
            ),
        ]);
    }
    Table {
        title:
            "Figure 12 — Determinator shared-memory speed relative to message-passing equivalents \
             (>1.0 = Determinator faster), with TCP-like RTT ablation"
                .into(),
        headers: vec![
            "nodes".into(),
            "md5 det/mp".into(),
            "matmult det/mp".into(),
            "TCP ablation".into(),
        ],
        rows,
    }
}

/// The blackscholes quantum ablation (PAPER.md §6.2's fixed ~35 % cost at the
/// 10 M-instruction quantum, falling with larger quanta).
pub fn quantum_ablation(scale: Scale) -> Table {
    let options = match scale {
        Scale::Quick => 16_384,
        Scale::Full => 65_536,
    };
    let base = blackscholes::run(
        Mode::Baseline,
        BsConfig {
            threads: 4,
            options,
            quantum_ns: 0,
        },
    )
    .vclock_ns as f64;
    let quanta: &[u64] = &[100_000, 300_000, 1_000_000, 3_000_000, 10_000_000];
    let rows = quanta
        .iter()
        .map(|&q| {
            let d = blackscholes::run(
                Mode::Determinator,
                BsConfig {
                    threads: 4,
                    options,
                    quantum_ns: q,
                },
            )
            .vclock_ns as f64;
            vec![
                format!("{:.1} ms", q as f64 / 1e6),
                format!("{:+.1}%", (d / base - 1.0) * 100.0),
            ]
        })
        .collect();
    Table {
        title: "Quantum ablation — blackscholes dsched overhead vs quantum size (PAPER.md §6.2)"
            .into(),
        headers: vec!["quantum".into(), "overhead vs pthreads".into()],
        rows,
    }
}

/// Figure 4: the parallel-make scheduling scenario. Three tasks of 6,
/// 2 and 4 virtual ms with a 2-worker quota: Unix `wait()` (first
/// completion) packs them in 6 ms; Determinator's deterministic
/// `wait()` (earliest fork) needs 8 ms.
pub fn fig4() -> Table {
    use det_kernel::KernelConfig;
    use det_runtime::proc::{ProgramRegistry, run_process_tree};

    let durations_ms = [6u64, 2, 4];
    // Determinator: measured with the real runtime (quota 2).
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), move |p| {
        let t1 = p.fork(move |c| {
            c.charge(durations_ms[0] * 1_000_000)?;
            Ok(1)
        })?;
        let _t2 = p.fork(move |c| {
            c.charge(durations_ms[1] * 1_000_000)?;
            Ok(2)
        })?;
        // Quota of 2: wait for "any" child before starting task 3.
        // Deterministic wait() returns t1 (earliest fork), even though
        // t2 finished long before.
        let (first, _) = p.wait()?;
        assert_eq!(first, t1);
        let _t3 = p.fork(move |c| {
            c.charge(durations_ms[2] * 1_000_000)?;
            Ok(3)
        })?;
        while p.has_children() {
            p.wait()?;
        }
        Ok(0)
    });
    let det_ms = out.vclock_ns as f64 / 1e6;
    // Unix: wait() returns the 2 ms task first, so task 3 starts at
    // 2 ms and the makespan is max(6, 2+4) = 6 ms.
    let unix_ms = 6.0;
    Table {
        title: "Figure 4 — `make -j2` schedule: 3 tasks (6/2/4 ms), 2-worker quota".into(),
        headers: vec!["system".into(), "makespan".into(), "schedule".into()],
        rows: vec![
            vec![
                "Unix (first-completion wait)".into(),
                format!("{unix_ms:.1} ms"),
                "t3 starts when t2 (2 ms) finishes".into(),
            ],
            vec![
                "Determinator (earliest-fork wait)".into(),
                format!("{det_ms:.1} ms"),
                "t3 starts only when t1 (6 ms) finishes".into(),
            ],
        ],
    }
}

/// Per-workload VM interpreter throughput: host MIPS of each VM-coded
/// workload kernel with the software TLB + decoded-instruction cache
/// on, against the pre-TLB reference interpreter, plus the exact
/// (deterministic) cache statistics behind the speedup. Wall-clock
/// numbers are indicative; the hit rates and walk counts are not.
pub fn vm_mips(scale: Scale) -> Table {
    let budget = match scale {
        Scale::Quick => 2_000_000,
        Scale::Full => 20_000_000,
    };
    let mut rows = Vec::new();
    let mut kernels: Vec<(&str, &str)> = vec![("alu_loop", vmwork::ALU_LOOP)];
    kernels.extend(vmwork::KERNELS.iter().map(|k| (k.name, k.src)));
    for (name, src) in kernels {
        let fast = vmwork::run_kernel(src, budget, true);
        let slow = vmwork::run_kernel(src, budget, false);
        let s = fast.stats;
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", fast.mips()),
            format!("{:.1}", slow.mips()),
            format!("{:.2}x", slow.ns_per_insn() / fast.ns_per_insn()),
            format!("{:.4}", s.hit_rate()),
            format!("{:.4}", s.pages_walked as f64 * 1e3 / fast.insns as f64),
        ]);
    }
    Table {
        title: "VM interpreter throughput — per-workload MIPS, software TLB vs pre-TLB reference"
            .into(),
        headers: vec![
            "kernel".into(),
            "MIPS (tlb)".into(),
            "MIPS (reference)".into(),
            "speedup".into(),
            "cache hit rate".into(),
            "walks / kinsn".into(),
        ],
        rows,
    }
}

/// The structural-clone cost table (`report -- clone`): how much
/// page-table work fork/snapshot actually performs under the two-level
/// shared table, per operation shape. The work counts (leaves shared,
/// boundary pages) are deterministic; the host ns column is indicative
/// (shim criterion caveat) and the virtual-time column is what the
/// kernel charges via `CostModel::calibrated()` — the O(touched)
/// fork/snapshot cost of PAPER.md §3.2/§8.
pub fn clone_table(scale: Scale) -> Table {
    use det_kernel::CostModel;
    use det_memory::{AddressSpace, PAGES_PER_LEAF, Perm, Region};

    const PAGE: u64 = 4096;
    let leaf_bytes = PAGES_PER_LEAF as u64 * PAGE;
    let costs = CostModel::calibrated();
    let reps = match scale {
        Scale::Quick => 200,
        Scale::Full => 2_000,
    };

    let build = |bytes: u64, start: u64| -> AddressSpace {
        let mut s = AddressSpace::new();
        let r = Region::sized(start, bytes);
        s.map_zero(r, Perm::RW).unwrap();
        for vpn in 0..bytes / PAGE {
            s.write_u64(start + vpn * PAGE, vpn + 1).unwrap();
        }
        s
    };

    let mut rows = Vec::new();
    let mut add = |name: &str, src: &mut AddressSpace, region: Region, dst: Option<u64>| {
        // One counted run for the deterministic work split…
        let (stats, pages) = match dst {
            Some(d) => {
                let mut t = AddressSpace::new();
                let cs = t.copy_from_counted(src, region, d).unwrap();
                (Some(cs), cs.pages)
            }
            None => (None, src.snapshot().page_count() as u64),
        };
        // …then repeated runs for an indicative host cost.
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            match dst {
                Some(d) => {
                    let mut t = AddressSpace::new();
                    std::hint::black_box(t.copy_from_counted(src, region, d).unwrap());
                }
                None => {
                    std::hint::black_box(src.snapshot().page_count());
                }
            }
        }
        let host_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
        // A snapshot's structural work is its spine: all leaves
        // shared, no boundary pages. Using CloneStats + the kernel's
        // own copy_cost_ps keeps this column equal to what the kernel
        // actually charges.
        let cs = stats.unwrap_or(det_memory::CloneStats {
            pages,
            leaves_shared: src.leaf_count() as u64,
            boundary_pages: 0,
        });
        let virt_ps = costs.copy_cost_ps(&cs);
        rows.push(vec![
            name.to_string(),
            pages.to_string(),
            cs.leaves_shared.to_string(),
            cs.boundary_pages.to_string(),
            format!("{host_ns:.0}"),
            format!("{:.1}", virt_ps as f64 / 1000.0),
        ]);
    };

    let mb4 = 4 * 1024 * 1024;
    let mut aligned = build(mb4, 4 * leaf_bytes);
    let aligned_r = Region::sized(4 * leaf_bytes, mb4);
    add("snapshot 4 MiB", &mut aligned, aligned_r, None);
    add(
        "virtual copy 4 MiB, leaf-congruent",
        &mut aligned,
        aligned_r,
        Some(4 * leaf_bytes),
    );
    add(
        "virtual copy 4 MiB, page-shifted (no sharing)",
        &mut aligned,
        aligned_r,
        Some(4 * leaf_bytes + PAGE),
    );
    let mut unaligned = build(mb4, 4 * leaf_bytes + 16 * PAGE);
    add(
        "virtual copy 4 MiB, mid-leaf range",
        &mut unaligned,
        Region::sized(4 * leaf_bytes + 16 * PAGE, mb4),
        Some(4 * leaf_bytes + 16 * PAGE),
    );
    let mb64 = 64 * 1024 * 1024;
    let mut big = build(mb64, 8 * leaf_bytes);
    let big_r = Region::sized(8 * leaf_bytes, mb64);
    add("snapshot 64 MiB", &mut big, big_r, None);
    add(
        "virtual copy 64 MiB, leaf-congruent",
        &mut big,
        big_r,
        Some(8 * leaf_bytes),
    );

    Table {
        title: "Structural clone — fork/snapshot page-table work under the shared two-level \
                table (PAPER.md §3.2, §8)"
            .into(),
        headers: vec![
            "operation".into(),
            "pages".into(),
            "leaves shared".into(),
            "boundary pages".into(),
            "host ns/op".into(),
            "virtual ns/op".into(),
        ],
        rows,
    }
}

/// The rendezvous cost table (`report -- rendezvous`): what a
/// put/get/park roundtrip actually costs on this host under the
/// targeted-wakeup engine (DESIGN.md §6), per execution-vehicle
/// pattern. The wakeup and spurious-wake columns come straight from
/// the kernel's engine counters: wakeups are a deterministic function
/// of the rendezvous history (and exactly 0 for inline VM children);
/// spurious wakes are host-timing observability. Host ns/roundtrip is
/// indicative (shim criterion caveat); the virtual column is what the
/// cost model charges for the same roundtrip.
pub fn rendezvous_table(scale: Scale) -> Table {
    use det_kernel::{
        CopySpec, GetSpec, Kernel, KernelConfig, Perm, Program, PutSpec, Region, Regs, RunOutcome,
    };

    let rounds: u64 = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    // Two VM instructions per rendezvous roundtrip.
    let image = det_vm::assemble(
        "
    loop:
        sys 0
        beq r0, r0, loop
    ",
    )
    .unwrap();
    let code = Region::new(0, 0x1000);

    #[derive(Clone, Copy, PartialEq)]
    enum Pattern {
        VmInline,
        VmInlineFused,
        NativeThreaded,
    }
    let run = |p: Pattern| -> (f64, RunOutcome) {
        let image = image.clone();
        let t0 = std::time::Instant::now();
        let out = Kernel::new(KernelConfig::default()).run(move |ctx| {
            if p == Pattern::NativeThreaded {
                ctx.put(
                    0,
                    PutSpec::new()
                        .program(Program::native(move |cc| {
                            for _ in 0..rounds {
                                cc.ret(0)?;
                            }
                            Ok(0)
                        }))
                        .start(),
                )?;
            } else {
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
            }
            if p == Pattern::VmInlineFused {
                ctx.get(0, GetSpec::new())?;
                for _ in 0..rounds {
                    ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
                }
            } else {
                for _ in 0..rounds {
                    ctx.get(0, GetSpec::new())?;
                    ctx.put(0, PutSpec::new().start())?;
                }
                ctx.get(0, GetSpec::new())?;
            }
            Ok(0)
        });
        let host_ns = t0.elapsed().as_nanos() as f64 / rounds as f64;
        (host_ns, out)
    };

    let mut rows = Vec::new();
    for (name, p) in [
        ("vm child, inline dispatch (put + get)", Pattern::VmInline),
        (
            "vm child, inline dispatch (fused put_get)",
            Pattern::VmInlineFused,
        ),
        ("native child, dedicated thread", Pattern::NativeThreaded),
    ] {
        let (host_ns, out) = run(p);
        let s = &out.stats;
        rows.push(vec![
            name.to_string(),
            rounds.to_string(),
            format!("{host_ns:.0}"),
            s.condvar_wakeups.to_string(),
            format!("{:.3}", s.condvar_wakeups as f64 / rounds as f64),
            out.host.spurious_wakeups.to_string(),
            format!("{:.1}", out.vclock_ns as f64 / rounds as f64),
        ]);
    }
    Table {
        title: "Rendezvous — put/get/park roundtrip cost under the targeted-wakeup engine \
                (DESIGN.md §6; PAPER.md §3.2)"
            .into(),
        headers: vec![
            "pattern".into(),
            "roundtrips".into(),
            "host ns/rt".into(),
            "wakeups".into(),
            "wakeups/rt".into(),
            "spurious".into(),
            "virtual ns/rt".into(),
        ],
        rows,
    }
}

/// Shard scaling of the real-thread cluster runtime (§6.3): the same
/// logical workload — an 8-node md5-scan fan-out — on 1/2/4/8 host
/// shards. Wall-clock time must fall with the shard count while every
/// deterministic quantity (checksum, virtual clock, the whole
/// conformance bundle) stays bit-identical; the function asserts the
/// invariance and reports the measured speedups. Wall-clock numbers
/// are host-dependent; everything else in the table is not.
pub fn scaling(scale: Scale) -> Table {
    use det_workloads::sharded::{ShardedConfig, md5_scan};
    let size = match scale {
        Scale::Quick => 400_000,
        Scale::Full => 1_600_000,
    };
    let cfg = |shards| ShardedConfig {
        size,
        ..ShardedConfig::quick(8, shards)
    };
    let mut rows = Vec::new();
    let mut base: Option<(f64, Vec<u8>, u64)> = None;
    for shards in [1usize, 2, 4, 8] {
        let t0 = std::time::Instant::now();
        let r = md5_scan(cfg(shards));
        let wall = t0.elapsed().as_secs_f64();
        let bundle = r.outcome.bundle_bytes();
        let (wall1, bundle1, vclock1) =
            base.get_or_insert_with(|| (wall, bundle.clone(), r.outcome.vclock_ns));
        assert_eq!(&bundle, bundle1, "bundle diverged at {shards} shards");
        assert_eq!(
            r.outcome.vclock_ns, *vclock1,
            "vclock moved at {shards} shards"
        );
        rows.push(vec![
            shards.to_string(),
            format!("{:.1}", wall * 1e3),
            format!("{:.2}", *wall1 / wall),
            format!("{:.3}", r.outcome.vclock_ns as f64 / 1e6),
            "identical".into(),
        ]);
    }
    Table {
        title: "Shard scaling — md5-scan fan-out, 8 logical nodes on 1/2/4/8 host shards \
                (DESIGN.md §10; PAPER.md §6.3). Wall-clock falls; the bundle does not move"
            .into(),
        headers: vec![
            "shards".into(),
            "wall ms".into(),
            "speedup".into(),
            "vclock ms".into(),
            "bundle".into(),
        ],
        rows,
    }
}

/// The static analyzer's cost table (`report -- analyze`): host time
/// of one [`det_analyze::analyze`] pass per corpus kernel, amortized
/// per kilo-instruction of the soundness gate's execution budget,
/// next to the predicted write footprint. Host nanoseconds are
/// indicative; `steps` is the deterministic work measure the kernel
/// charges via `CostModel::analyze_step_ps`.
pub fn analyze_cost(scale: Scale) -> Table {
    use std::time::Instant;
    let iters = match scale {
        Scale::Quick => 20u32,
        Scale::Full => 200,
    };
    let cfg = det_analyze::AnalyzeConfig::default();
    let mut rows = Vec::new();
    for p in det_vm::corpus::PROGRAMS {
        let image = det_vm::assemble(p.src).expect("corpus program assembles");
        let segs = [det_analyze::Segment {
            base: 0,
            bytes: &image.bytes,
        }];
        let mut analysis = det_analyze::analyze(&segs, 0, &cfg);
        let start = Instant::now();
        for _ in 0..iters {
            analysis = det_analyze::analyze(&segs, 0, &cfg);
        }
        let ns = (start.elapsed().as_nanos() / u128::from(iters)) as u64;
        rows.push(vec![
            p.name.to_string(),
            analysis.footprint.steps.to_string(),
            format!("{:.1}", ns as f64 / 1e3),
            format!("{:.1}", ns as f64 * 1e3 / p.budget as f64),
            format!("{}", analysis.footprint.writes),
        ]);
    }
    Table {
        title: "Static footprint analysis — cost per corpus kernel and predicted write set".into(),
        headers: vec![
            "kernel".into(),
            "abs steps".into(),
            "analysis µs".into(),
            "ns / exec kinsn".into(),
            "pred write pages".into(),
        ],
        rows,
    }
}

/// Footprint-hinted vs unhinted leaf-pull migration
/// (`report -- analyze`): the `vm_prefetch` sharded workload run both
/// ways. The hint must leave the checksum untouched while cutting
/// page pulls and bytes on the wire; virtual time differs only by the
/// root's charged analysis work.
pub fn analyze_prefetch(scale: Scale) -> Table {
    use det_workloads::sharded::{ShardedConfig, vm_prefetch};
    let size = match scale {
        Scale::Quick => 1_600,
        Scale::Full => 2_048,
    };
    let mut rows = Vec::new();
    for (label, hint) in [("unhinted", false), ("footprint hint", true)] {
        let r = vm_prefetch(
            ShardedConfig {
                size,
                ..ShardedConfig::quick(4, 3)
            },
            hint,
        );
        let c = &r.outcome.cluster;
        rows.push(vec![
            label.to_string(),
            c.page_pulls.to_string(),
            c.bytes_transferred.to_string(),
            c.messages.to_string(),
            format!("{:.3}", r.outcome.vclock_ns as f64 / 1e6),
            format!("{:#x}", r.checksum),
        ]);
    }
    Table {
        title: "Leaf-pull migration with and without the analyzer's prefetch hint".into(),
        headers: vec![
            "mode".into(),
            "page pulls".into(),
            "bytes on wire".into(),
            "messages".into(),
            "vclock ms".into(),
            "checksum".into(),
        ],
        rows,
    }
}

/// Table 3: implementation size of this repository, in semicolon
/// lines per component (the paper's metric).
pub fn table3(repo_root: &std::path::Path) -> Table {
    let count = |sub: &str| -> u64 {
        let mut total = 0u64;
        let dir = repo_root.join(sub);
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&d) else {
                continue;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    if let Ok(text) = std::fs::read_to_string(&p) {
                        total += text.lines().filter(|l| l.contains(';')).count() as u64;
                    }
                }
            }
        }
        total
    };
    let components = [
        ("Paged memory (det-memory)", "crates/memory/src"),
        ("Deterministic VM (det-vm)", "crates/vm/src"),
        ("Kernel core (det-kernel)", "crates/kernel/src"),
        ("User-level runtime (det-runtime)", "crates/runtime/src"),
        ("Cluster simulation (det-cluster)", "crates/cluster/src"),
        ("Workloads (det-workloads)", "crates/workloads/src"),
        ("Bench harness (det-bench)", "crates/bench/src"),
    ];
    let mut rows = Vec::new();
    let mut total = 0;
    for (name, path) in components {
        let n = count(path);
        total += n;
        rows.push(vec![name.to_string(), n.to_string()]);
    }
    rows.push(vec!["**Total**".into(), total.to_string()]);
    Table {
        title: "Table 3 — implementation size (semicolon lines, the paper's metric)".into(),
        headers: vec!["component".into(), "semicolons".into()],
        rows,
    }
}
