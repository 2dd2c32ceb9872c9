//! System-enforced determinism on untrusted code (PAPER.md §3.2): an assembly
//! program runs inside a VM space under an exact instruction limit —
//! it cannot observe time, scheduling, or anything nondeterministic,
//! and the kernel preempts it mid-loop at a precise instruction count.
//!
//! The guest and its quantum-by-quantum audit live in the conformance
//! registry as the `vm_sandbox` scenario (`det_conform::scenario`);
//! the harness replays it as N replicas.
//!
//! ```sh
//! cargo run --release --example vm_sandbox
//! ```

use determinator::conform::{ScenarioConfig, find};

fn main() {
    let sc = find("vm_sandbox").expect("registered scenario");
    let run = (sc.run)(&ScenarioConfig {
        trace: false,
        faults: determinator::kernel::FaultPlan::default(),
    });
    let out = run.outcome;
    assert_eq!(out.exit, Ok(0));
    // Per-quantum preemption audit (exact r5 iteration counts).
    print!("{}", out.console_string());
    println!(
        "total guest instructions: {} (exact, replayable; host time is invisible to the guest)",
        out.stats.vm_instructions
    );
}
