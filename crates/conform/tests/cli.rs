//! The `conform` binary's argument gate: a run that would compare
//! nothing is a usage error, never a pass.

use std::process::Command;

/// Fewer than two replicas leave no second bundle to compare
/// against, so `--replicas 0` and `--replicas 1` must exit 64
/// (EX_USAGE) instead of printing `PASS`.
#[test]
fn fewer_than_two_replicas_is_a_usage_error() {
    for n in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_conform"))
            .args(["--replicas", n, "--scenario", "quickstart_swap"])
            .output()
            .expect("conform binary runs");
        assert_eq!(out.status.code(), Some(64), "--replicas {n}: {out:?}");
        assert!(
            out.stdout.is_empty(),
            "--replicas {n} ran a scenario: {out:?}"
        );
    }
}
