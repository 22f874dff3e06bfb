//! Smoke test of the benchmark itself: every workload, untraced and
//! traced, at a tiny size, must pass all of its output checks; and
//! `BENCHMARK.json` must list exactly the metrics the harness prints.

use perfbench::{run, RunSpec, Scale, Workload, END_TO_END, PER_LAYER};

#[test]
fn every_workload_passes_its_checks_at_a_tiny_size() {
    // One test, run in sequence: the workloads share process-wide caches,
    // the thread-count override and the journal directory.
    for workload in Workload::ALL {
        for trace in [false, true] {
            let spec = RunSpec {
                workload,
                seed: 7,
                seconds: 0.01,
                trace,
                scale: Scale::smoke(),
            };
            let out = run(&spec).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
            let label = format!("{} trace={trace}", workload.name());
            assert!(out.attempted > 0, "{label}: nothing attempted");
            assert_eq!(
                out.failed, 0,
                "{label}: {} of {} failed",
                out.failed, out.attempted
            );
            assert_eq!(out.fail_frac(), 0.0, "{label}");
            let table = if trace { PER_LAYER } else { END_TO_END };
            let line = out.json(trace);
            assert!(line.starts_with("{\"correct\": true, "), "{label}: {line}");
            for (name, unit) in table {
                let value = out.metrics.get(name).copied().unwrap_or(0.0);
                assert!(value.is_finite(), "{label}: {name} = {value}");
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{label}: {name}"
                );
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{label}: {unit}"
                );
                if !trace {
                    assert!(value > 0.0, "{label}: end-to-end {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_harness_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "workload {}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let names = text.matches("\"name\": ").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
