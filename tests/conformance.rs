//! Workspace-level conformance acceptance: N replicas of real
//! scenarios produce byte-identical artifact bundles under chaotic
//! host load, and seeded faults are localized to the correct category
//! at the exact first divergent byte.

use determinator::conform::{
    Artifacts, ConformConfig, DivergenceCategory, compare, conform_scenario, find, first_diff,
    registry,
};

fn artifacts(name: &str) -> Artifacts {
    let sc = find(name).expect("registered scenario");
    let run = (sc.run)(&determinator::conform::ScenarioConfig {
        trace: sc.traceable,
        faults: determinator::kernel::FaultPlan::default(),
    });
    Artifacts::collect(sc.name, &run)
}

/// Every registered scenario is named and runnable; the registry is
/// the single source of truth for CI.
#[test]
fn registry_covers_examples_and_workloads() {
    let names: Vec<_> = registry().iter().map(|s| s.name).collect();
    for expected in [
        "quickstart_swap",
        "actors_grid",
        "vm_sandbox",
        "vm_counter_stream",
        "parallel_make",
        "shell_pipeline",
        "rendezvous_storm",
        "device_io",
        "wl_md5",
        "wl_matmult",
        "wl_qsort",
        "wl_fft",
        "wl_lu",
        "wl_blackscholes",
        "dist_md5_tree",
    ] {
        assert!(names.contains(&expected), "missing scenario {expected}");
    }
}

/// N=3 replica conformance under chaos for a cross-section of
/// scenario kinds (native fork/join, VM guests, process tree,
/// workload).
#[test]
fn replica_conformance_under_chaos() {
    let cfg = ConformConfig {
        replicas: 3,
        chaos: true,
        ..ConformConfig::default()
    };
    for name in ["actors_grid", "vm_sandbox", "parallel_make", "wl_qsort"] {
        let r = conform_scenario(&find(name).expect("registered"), &cfg);
        assert!(r.conforms(), "{}", r.report());
    }
}

/// Acceptance: a seeded 1-byte page corruption produces a divergence
/// report naming the page-content category and the exact first
/// divergent byte offset, with hex context from both replicas.
#[test]
fn page_corruption_report_names_category_and_offset() {
    let a = artifacts("actors_grid");
    let mut b = a.clone();
    assert!(b.corrupt_page_digest());
    let d = compare(&a, &b).expect("diverges");
    assert_eq!(d.category, DivergenceCategory::PageContent);

    // Independent offset check straight from the serialized bytes.
    let (ba, bb) = (a.to_bytes(), b.to_bytes());
    assert_ne!(ba, bb);
    assert_eq!(d.offset, first_diff(&ba, &bb));
    assert_eq!(ba[..d.offset], bb[..d.offset]);
    assert_ne!(ba[d.offset], bb[d.offset]);

    let report = d.report("actors_grid", "replica 0", "replica 1");
    assert!(report.contains("page-content"), "{report}");
    assert!(
        report.contains(&format!("offset: {}", d.offset)),
        "{report}"
    );
    assert!(report.contains('['), "hex context marks the byte: {report}");
}

/// Acceptance: a seeded 1-event trace reorder is classified as a
/// schedule/trace divergence with the exact offset.
#[test]
fn trace_reorder_report_names_category_and_offset() {
    let a = artifacts("vm_counter_stream");
    let mut b = a.clone();
    assert!(b.reorder_trace());
    let d = compare(&a, &b).expect("diverges");
    assert_eq!(d.category, DivergenceCategory::ScheduleTrace);

    let (ba, bb) = (a.to_bytes(), b.to_bytes());
    assert_eq!(d.offset, first_diff(&ba, &bb));

    let report = d.report("vm_counter_stream", "replica 0", "replica 1");
    assert!(report.contains("schedule-trace"), "{report}");
}

/// The canonical byte encoding is stable across serializations of the
/// same bundle (regression guard for ordered containers everywhere in
/// the outcome surface).
#[test]
fn bundle_serialization_is_deterministic() {
    let a = artifacts("shell_pipeline");
    assert_eq!(a.to_bytes(), a.to_bytes());
    let b = artifacts("shell_pipeline");
    assert!(
        compare(&a, &b).is_none(),
        "re-running the scenario must reproduce identical bytes"
    );
}
