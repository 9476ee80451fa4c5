//! Runs the benchmark binary at its smoke size: every workload must pass
//! its output checks, and a traced run must repeat its counts exactly.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["scale_heal", "contended_configure", "dataplane_churn"];

/// Units whose values are deterministic for a seed.
const EXACT_UNITS: [&str; 5] = ["count", "ratio", "sim_s", "sim_ms", "1/sim_s"];

struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value as printed, unit)
    metrics: BTreeMap<String, (String, String)>,
}

/// Runs the benchmark and parses its last line. The format is the
/// benchmark's own, so a small scanner suffices.
fn bench(workload: &str, seed: u64, trace: bool) -> Result {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args([
            "--spans",
            &format!(
                "{}/smoke-{workload}.spans.jsonl",
                env!("CARGO_TARGET_TMPDIR")
            ),
        ])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let field = |key: &str| {
        let rest = &last[last.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
        rest[..rest.find([',', '}']).expect("field end")].to_string()
    };
    let mut metrics = BTreeMap::new();
    let body = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .expect("value")
            .split(',')
            .next()
            .unwrap()
            .to_string();
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .expect("unit")
            .split('"')
            .next()
            .unwrap()
            .to_string();
        metrics.insert(name, (value, unit));
    }
    Result {
        correct: field("correct") == "true",
        attempted: field("attempted").parse().expect("attempted"),
        failed: field("failed").parse().expect("failed"),
        metrics,
    }
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for w in WORKLOADS {
        let r = bench(w, 3, false);
        assert!(r.correct, "{w}: wrong output");
        assert!(r.attempted > 0, "{w}: no checks ran");
        assert_eq!(r.failed, 0, "{w}: a check failed");
        let names: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
        assert_eq!(names, ["peak_rss_mb", "setup_s", "wall_s"], "{w}");
        for (name, (value, _)) in &r.metrics {
            assert!(
                value.parse::<f64>().expect("a number") > 0.0,
                "{w}: {name} is {value}"
            );
        }
    }
}

#[test]
fn traced_runs_repeat_their_counts_exactly() {
    for w in WORKLOADS {
        let a = bench(w, 5, true);
        let b = bench(w, 5, true);
        // A traced run also checks that it did exactly the untraced
        // run's work; `correct` carries that verdict.
        assert!(a.correct && b.correct, "{w}: wrong output");
        assert_eq!(a.metrics.len(), b.metrics.len());
        let exact: Vec<_> = a
            .metrics
            .iter()
            .filter(|(_, (_, u))| EXACT_UNITS.contains(&u.as_str()))
            .collect();
        assert!(exact.len() > 30, "{w}: only {} exact metrics", exact.len());
        for (name, (value, _)) in exact {
            assert_eq!(
                value, &b.metrics[name].0,
                "{w}: {name} differs between two traced runs"
            );
        }
        assert_eq!(
            a.metrics["engine.events"], a.metrics["work.events"],
            "{w}: traced steps != events"
        );
    }
}
