//! Figure 4 + PAPER.md §4.2: a parallel `make` on the process runtime — forked
//! compiler processes write .o files into private file-system
//! replicas, reconciled at wait(); the deterministic wait() schedule
//! trade-off is printed.
//!
//! The build graph lives in the conformance registry as the
//! `parallel_make` scenario (`det_conform::scenario`), so the same
//! fork/wait/fs behaviour is byte-compared across N replicas in CI.
//!
//! ```sh
//! cargo run --release --example parallel_make
//! ```

use determinator::conform::{ScenarioConfig, find};

fn main() {
    let sc = find("parallel_make").expect("registered scenario");
    let run = (sc.run)(&ScenarioConfig {
        trace: false,
        faults: determinator::kernel::FaultPlan::default(),
    });
    let out = run.outcome;
    assert_eq!(out.exit, Ok(0));
    print!("{}", out.console_string());
    println!(
        "\nmakespan: {:.1} ms under Determinator's deterministic wait()",
        out.vclock_ns as f64 / 1e6
    );
    println!("(Unix first-completion wait() would pack the same tasks into 6.0 ms —");
    println!(" the paper's advice: leave scheduling to the system, `make -j` not `-j2`)");
}
