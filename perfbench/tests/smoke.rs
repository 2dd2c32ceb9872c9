//! Smoke test: every workload at tiny sizes, traced and untraced, must
//! print every metric `BENCHMARK.json` names, with its unit, and fail no
//! program.

use perfbench::{Options, Report, Scale, WORKLOADS};

/// `(section, name, unit)` for every metric in `BENCHMARK.json`, which
/// lists one metric object per line.
fn declared() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..].split('"').next()?.to_string())
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["end_to_end", "per_layer", "workloads"] {
            if line.contains(&format!("\"{s}\":")) {
                section = s.to_string();
            }
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            out.push((section.clone(), name, unit));
        }
    }
    out
}

fn run(workload: &str, trace: bool) -> Report {
    perfbench::run(&Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
    })
    .expect("known workload")
}

#[test]
fn every_metric_prints_with_its_unit_and_nothing_fails() {
    let declared = declared();
    assert!(
        declared
            .iter()
            .any(|(s, n, _)| s == "end_to_end" && n == "setup_s")
    );
    assert!(
        declared
            .iter()
            .any(|(s, n, _)| s == "per_layer" && n == "error_rate")
    );
    for w in WORKLOADS {
        for trace in [false, true] {
            let report = run(w, trace);
            assert_eq!(report.failed, 0, "{w} trace={trace}: {:?}", report.notes);
            assert!(report.attempted >= 1);
            let section = if trace { "per_layer" } else { "end_to_end" };
            let wanted: Vec<_> = declared.iter().filter(|(s, _, _)| s == section).collect();
            assert_eq!(report.metrics.len(), wanted.len(), "{w}: metric count");
            for (_, name, unit) in wanted {
                let m = report
                    .metric(name)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: {name} missing"));
                assert_eq!(m.unit, unit, "{w}: unit of {name}");
                assert!(m.value.is_finite(), "{w}: {name} = {}", m.value);
            }
            if trace {
                assert_eq!(report.metric("error_rate").expect("error_rate").value, 0.0);
            } else {
                for name in ["program_ms_p50", "vclock_ms", "setup_s"] {
                    assert!(report.metric(name).expect(name).value > 0.0, "{w}: {name}");
                }
            }
            let json = report.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(
        perfbench::run(&Options {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.1,
            trace: false,
            scale: Scale::Tiny,
        })
        .is_err()
    );
}
