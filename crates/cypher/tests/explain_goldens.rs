//! Golden tests for `EXPLAIN` output.
//!
//! Every parity-corpus query is explained against the deterministic
//! default IYP dataset and the rendered plan text is pinned byte for byte,
//! so moving or rewriting the plan renderer cannot change what `EXPLAIN`
//! (and the plan lines of `PROFILE`) print.
//!
//! To re-record after an intentional change:
//! `cargo test -p iyp-cypher --test explain_goldens -- --ignored regenerate_explain_goldens`

use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_cypher::explain;
use iyp_data::{generate, IypConfig};
use iyp_graphdb::Graph;
use std::path::PathBuf;

fn dataset_graph() -> Graph {
    generate(&IypConfig::default()).graph
}

fn goldens_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("explain_corpus.json")
}

fn explain_corpus(g: &Graph) -> Vec<(&'static str, String)> {
    PARITY_QUERIES
        .iter()
        .map(|q| {
            let plan = explain(g, q).unwrap_or_else(|e| panic!("explain failed: {q}\n{e}"));
            (*q, plan)
        })
        .collect()
}

#[test]
fn explain_matches_recorded_goldens() {
    let text = std::fs::read_to_string(goldens_path())
        .expect("goldens missing; run the ignored regenerate_explain_goldens test first");
    let recorded: serde_json::Value = serde_json::from_str(&text).expect("parse goldens");
    let entries = recorded.as_array().expect("goldens must be an array");
    assert_eq!(
        entries.len(),
        PARITY_QUERIES.len(),
        "corpus size changed; re-record"
    );
    let mut mismatches = Vec::new();
    for (entry, (q, plan)) in entries.iter().zip(explain_corpus(&dataset_graph())) {
        assert_eq!(entry["query"].as_str(), Some(q), "golden order changed");
        let want = entry["plan"].as_str().expect("golden plan text");
        if want != plan {
            mismatches.push(format!(
                "{q}\n--- golden ---\n{want}\n--- actual ---\n{plan}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} EXPLAIN goldens diverged:\n{}",
        mismatches.len(),
        PARITY_QUERIES.len(),
        mismatches.join("\n")
    );
}

/// Records the current `EXPLAIN` output as the golden baseline.
#[test]
#[ignore = "writes the golden file; run explicitly to re-record"]
fn regenerate_explain_goldens() {
    let entries = explain_corpus(&dataset_graph())
        .into_iter()
        .map(|(q, plan)| serde_json::json!({"query": q, "plan": plan}))
        .collect();
    let text = serde_json::to_string_pretty(&serde_json::Value::Seq(entries)).unwrap() + "\n";
    std::fs::write(goldens_path(), text).unwrap();
}
