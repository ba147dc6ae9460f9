//! The parity corpus at 4x scale, pinned by digest.
//!
//! `parity_corpus.rs` pins every result on the default dataset, where a
//! label scan touches a few thousand nodes. Fast paths that skip work
//! (ordered-index walks that stop at `LIMIT`, seeks keyed by bound
//! values) only pay off, and only go wrong, on bigger graphs. This test
//! grows the default dataset to 4x its node count with seeded
//! [`iyp_data::grow_to`] batches, runs the whole corpus, and compares an
//! FNV-1a 64 digest of each serialized result against
//! `tests/goldens/parity_4x_digests.json`.
//!
//! To re-record after an intentional semantic change:
//! `cargo test -p iyp-cypher --test scale_parity -- --ignored regenerate_scale_digests`

use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_cypher::query;
use iyp_data::{generate, grow_to, IypConfig};
use iyp_graphdb::Graph;
use std::path::PathBuf;

/// Target size as a multiple of the default node count.
const SCALE: usize = 4;
/// Seed of the first growth batch.
const GROW_SEED: u64 = 4_000;

fn scaled_graph() -> Graph {
    let mut g = generate(&IypConfig::default()).graph;
    let target = SCALE * g.node_count();
    grow_to(&mut g, target, GROW_SEED);
    g
}

fn digests_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("parity_4x_digests.json")
}

/// FNV-1a, 64 bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_digests(g: &Graph) -> Vec<(&'static str, String)> {
    PARITY_QUERIES
        .iter()
        .map(|q| {
            let result = query(g, q).unwrap_or_else(|e| panic!("corpus query failed: {q}\n{e}"));
            let json = serde_json::to_string(&result).expect("serialize result");
            (*q, format!("{:016x}", fnv1a64(json.as_bytes())))
        })
        .collect()
}

#[test]
fn corpus_at_4x_matches_recorded_digests() {
    let text = std::fs::read_to_string(digests_path())
        .expect("digests missing; run the ignored regenerate_scale_digests test first");
    let recorded: serde_json::Value = serde_json::from_str(&text).expect("parse digests");
    let entries = recorded["queries"].as_array().expect("digest list");
    assert_eq!(
        entries.len(),
        PARITY_QUERIES.len(),
        "corpus size changed; re-record"
    );
    let g = scaled_graph();
    assert_eq!(
        recorded["nodes"].as_u64(),
        Some(g.node_count() as u64),
        "the scaled graph changed size; the digests describe another graph"
    );
    let mut mismatches = Vec::new();
    for (i, (entry, (q, digest))) in entries.iter().zip(run_digests(&g)).enumerate() {
        assert_eq!(
            entry["query"].as_str(),
            Some(q),
            "corpus order changed at #{i}"
        );
        let want = entry["digest"].as_str().expect("golden digest");
        if want != digest {
            mismatches.push(format!("query #{i}: {q}\n  golden {want}, actual {digest}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} corpus results at {SCALE}x diverged:\n{}",
        mismatches.len(),
        PARITY_QUERIES.len(),
        mismatches.join("\n")
    );
}

/// Records the current executor's 4x digests as the golden baseline.
#[test]
#[ignore = "writes the golden file; run explicitly to re-record"]
fn regenerate_scale_digests() {
    let g = scaled_graph();
    let queries: Vec<serde_json::Value> = run_digests(&g)
        .into_iter()
        .map(|(q, digest)| serde_json::json!({"query": q, "digest": digest}))
        .collect();
    let doc = serde_json::json!({
        "scale": SCALE as u64,
        "nodes": g.node_count() as u64,
        "queries": queries,
    });
    let text = serde_json::to_string_pretty(&doc).unwrap() + "\n";
    std::fs::write(digests_path(), text).unwrap();
}
