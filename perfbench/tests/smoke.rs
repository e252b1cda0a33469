//! Smoke mode of every workload: small inputs, two seconds of load. Each
//! run must print every metric `BENCHMARK.json` declares, with its unit,
//! and check every reply correct (`error_rate = 0`).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! The test builds `pathcover-cli` from the repository first.

use pcservice::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository")
        .to_path_buf()
}

/// Builds the daemon binary into a target directory of its own (the outer
/// `cargo test` may still hold the lock on the benchmark's).
fn build_cli() -> PathBuf {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("target/<profile>/perfbench")
        .join("smoke-cli");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "pcservice",
        ])
        .args(["--bin", "pathcover-cli", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("running cargo");
    assert!(status.success(), "building pathcover-cli failed");
    target.join("release").join("pathcover-cli")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(items)) = json.get(list) else {
        panic!("BENCHMARK.json lacks '{list}'");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(cli: &Path, workload: &str, trace: bool) {
    let out = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--cli")
        .arg(cli)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains(&format!("{workload} error_rate = 0 ")),
        "{workload}: nonzero error_rate\n{stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    let summary = Json::parse(last).expect("last line is JSON");
    assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = summary.get("metrics").expect("metrics");
    let list = if trace { "per_layer" } else { "end_to_end" };
    let Json::Obj(fields) = metrics else {
        panic!("metrics is not an object")
    };
    let wanted = declared(list);
    assert_eq!(
        fields.len(),
        wanted.len(),
        "{workload}: exactly the {list} metrics"
    );
    for (name, unit) in wanted {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            matches!(m.get("value"), Some(Json::Num(_))),
            "{name} has no value"
        );
        assert!(
            stdout.contains(&format!("{workload} {name} = ")),
            "{workload}: {name} not printed by name"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn every_workload_prints_every_metric_and_answers_correctly() {
    let cli = build_cli();
    for workload in ["warm_dense_http", "large_sparse_cover", "small_mixed"] {
        smoke(&cli, workload, false);
        smoke(&cli, workload, true);
    }
}
