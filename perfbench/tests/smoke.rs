//! Runs every workload at a tiny size, untraced and traced, and checks that
//! each run passes its own correctness checks and prints every metric that
//! BENCHMARK.json names, with its unit. Then compares the two result sets.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .args(["--scale", "0.02"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let bench = benchmark();
    let mut results = [String::new(), String::new()];
    for w in bench.get("workloads").and_then(Json::as_arr).unwrap() {
        let workload = w.get("name").and_then(Json::as_str).unwrap();
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, trace);
            let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = last
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                last.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                last.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = last.get("metrics").unwrap();
            let declared = bench.get(section).and_then(Json::as_arr).unwrap();
            assert_eq!(
                metrics.as_obj().unwrap().len(),
                declared.len(),
                "{workload} {section}"
            );
            for m in declared {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                let printed = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    printed.get("unit"),
                    m.get("unit"),
                    "{workload}: unit of {name}"
                );
                assert!(printed
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
            }
            results[trace as usize].push_str(&stdout);
        }
    }

    // Compare mode reads appended run outputs and the bounds.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).unwrap();
    let (old, new) = (dir.join("smoke-old.jsonl"), dir.join("smoke-new.jsonl"));
    std::fs::write(&old, results.concat()).unwrap();
    std::fs::write(&new, results.concat()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("compare")
        .args([
            &old,
            &new,
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&old);
    let _ = std::fs::remove_file(&new);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    for w in [
        "batch-rows",
        "batch-wide",
        "serve-mixed",
        "discover_s",
        "sampler.pairs_compared",
    ] {
        assert!(text.contains(w), "compare output lacks {w}:\n{text}");
    }
    assert!(
        text.contains("\n0 end-to-end metric(s) worse than their bound"),
        "{text}"
    );
}

#[test]
fn an_unknown_workload_fails_without_printing_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
