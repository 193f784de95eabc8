//! Tiny-size self-test: every workload end to end, traced and untraced,
//! emits exactly the metrics `BENCHMARK.json` declares with no failed
//! check; a corrupted MTTKRP value makes a check fail.

use std::path::PathBuf;

use perfbench::{run, Config, Scale, Workload};

fn config(workload: Workload, trace: bool, tag: &str) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}")),
        corrupt_mttkrp: false,
    }
}

/// Metric names of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("section is an array")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_and_reports_the_declared_metrics() {
    let workloads: Vec<String> = declared("workloads");
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()).to_vec()
    );
    for trace in [false, true] {
        let want = declared(if trace { "per_layer" } else { "end_to_end" });
        for w in Workload::ALL {
            let out = run(&config(w, trace, &format!("{}-{trace}", w.name())))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(
                out.checks.failures.is_empty(),
                "{} trace={trace}: {:?}",
                w.name(),
                out.checks.failures
            );
            assert!(out.checks.attempted > 5);
            let got: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
            let line = out.json_line();
            let parsed = serde_json::from_str(&line).expect("result line is JSON");
            assert_eq!(parsed.get("failed").and_then(|v| v.as_f64()), Some(0.0));
            if trace {
                let attributed = out.metric("trace.attributed_share").unwrap();
                assert!(attributed > 0.0 && attributed <= 1.0, "{attributed}");
                assert!(out.trace_file.as_ref().is_some_and(|p| p.exists()));
            }
        }
    }
}

#[test]
fn a_corrupted_mttkrp_value_fails_a_check() {
    for w in [Workload::DarpaCpd, Workload::Nell2Ingest] {
        let mut cfg = config(w, false, &format!("corrupt-{}", w.name()));
        cfg.corrupt_mttkrp = true;
        let out = run(&cfg).unwrap();
        assert_eq!(
            out.checks.failed(),
            1,
            "{}: {:?}",
            w.name(),
            out.checks.failures
        );
        assert!(out.checks.failures[0].contains("mode 0 replayed MTTKRP"));
        assert!(out.json_line().contains("\"correct\": false"));
    }
}
