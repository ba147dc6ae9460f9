//! A short run of every workload, untraced and traced, against a
//! `--tiny` server: each must pass the oracle and report exactly the
//! metrics `BENCHMARK.json` lists.
//!
//! The server binary comes from `$LOADBENCH_SERVER`, or is built in
//! release mode into the repository's `target/`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root")
}

fn server_bin() -> PathBuf {
    if let Ok(p) = std::env::var("LOADBENCH_SERVER") {
        return PathBuf::from(p);
    }
    let target = repo().join("target");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "chatiyp",
            "--target-dir",
        ])
        .arg(&target)
        .current_dir(repo())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the server failed");
    target.join("release").join("chatiyp")
}

fn listed(kind: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    v[kind]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

fn smoke(workload: &str, trace: &str) {
    let out = repo()
        .join("loadbench/out")
        .join(format!("smoke-{workload}-{trace}"));
    let run = Command::new(env!("CARGO_BIN_EXE_loadbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .arg("--server")
        .arg(server_bin())
        .arg("--out")
        .arg(&out)
        .output()
        .expect("loadbench runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last: serde_json::Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last["correct"].as_bool(), Some(true), "{stdout}");
    assert_eq!(last["failed"].as_u64(), Some(0));
    assert!(last["attempted"].as_u64().unwrap_or(0) > 0);
    let got: Vec<String> = match &last["metrics"] {
        serde_json::Value::Map(m) => m.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other}"),
    };
    let want = listed(if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    });
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn ask_hot_passes_the_oracle() {
    smoke("ask-hot", "0");
    smoke("ask-hot", "1");
}

#[test]
fn ask_cold_fresh_passes_the_oracle() {
    smoke("ask-cold-fresh", "0");
    smoke("ask-cold-fresh", "1");
}

#[test]
fn ingest_read_passes_the_oracle() {
    smoke("ingest-read", "0");
    smoke("ingest-read", "1");
}
