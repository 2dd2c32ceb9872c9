//! The scripted Determinator shell (PAPER.md §5): pipelines, redirection, and
//! byte-identical reruns (PAPER.md §4.3).
//!
//! The script and the exec'd `upper` program live in the conformance
//! registry as the `shell_pipeline` scenario
//! (`det_conform::scenario`). This wrapper runs it twice and checks
//! the reruns are byte-identical — the same property the N-replica
//! harness enforces for the whole artifact bundle in CI.
//!
//! ```sh
//! cargo run --release --example shell_demo
//! ```

use determinator::conform::{ScenarioConfig, find};

fn main() {
    let sc = find("shell_pipeline").expect("registered scenario");
    let run = || {
        (sc.run)(&ScenarioConfig {
            trace: false,
            faults: determinator::kernel::FaultPlan::default(),
        })
        .outcome
    };
    let first = run();
    assert_eq!(first.exit, Ok(0));
    print!("{}", first.console_string());

    let second = run();
    assert_eq!(
        first.console(),
        second.console(),
        "reruns must be byte-identical"
    );
    println!(
        "\n(rerun produced byte-identical console output: {} bytes)",
        first.console().len()
    );
}
