//! Differential tests for the snapshot read path: executing the parity
//! corpus through a [`GraphStore`] snapshot handle must be byte-identical
//! to executing directly against the owned `Graph` at every supported
//! worker count, and a handle acquired before a publish must keep
//! answering from its own version afterwards.

use iyp_cypher::corpus::PARITY_QUERIES as QUERIES;
use iyp_cypher::{execute_read_with_limits, parse, ExecLimits, Params};
use iyp_data::{generate, growth_batch, IypConfig};
use iyp_graphdb::{Graph, GraphStore};

fn run_json(g: &Graph, src: &str, limits: ExecLimits) -> String {
    let q = parse(src).unwrap_or_else(|e| panic!("corpus query failed to parse: {src}\n{e}"));
    let r = execute_read_with_limits(g, &q, &Params::new(), limits)
        .unwrap_or_else(|e| panic!("corpus query failed: {src}\n{e}"));
    serde_json::to_string(&r).expect("serialize result")
}

fn modes() -> Vec<(&'static str, ExecLimits)> {
    vec![
        ("parallel=1", ExecLimits::none().with_parallelism(1)),
        ("parallel=2", ExecLimits::none().with_parallelism(2)),
        ("parallel=4", ExecLimits::none().with_parallelism(4)),
    ]
}

/// The snapshot handle is a pure indirection: every corpus query, in
/// every execution mode, returns the same bytes through `store.load()`
/// as against the graph the store was built from.
#[test]
fn corpus_via_snapshot_matches_direct_execution() {
    let graph = generate(&IypConfig::default()).graph;
    let store = GraphStore::new(graph.clone());
    let snap = store.load();
    assert_eq!(snap.version(), 1);
    for q in QUERIES {
        for (name, limits) in modes() {
            let direct = run_json(&graph, q, limits);
            let via_snapshot = run_json(snap.graph(), q, limits);
            assert_eq!(via_snapshot, direct, "{name} diverged via snapshot on: {q}");
        }
    }
}

/// Snapshot isolation proper: a handle acquired before a publish keeps
/// answering the whole corpus byte-identically after the store moves on,
/// while a freshly loaded handle sees the new world.
#[test]
fn held_snapshot_survives_a_publish_unchanged() {
    let store = GraphStore::new(generate(&IypConfig::default()).graph);
    let old = store.load();
    let baseline: Vec<String> = QUERIES
        .iter()
        .map(|q| run_json(old.graph(), q, ExecLimits::none()))
        .collect();

    let batch = growth_batch(old.graph(), 99, 8);
    let report = store.ingest(&batch).expect("batch applies");
    assert_eq!(report.old_version, 1);
    assert_eq!(report.new_version, 2);

    // The held handle is frozen at version 1 ...
    assert_eq!(old.version(), 1);
    for (q, want) in QUERIES.iter().zip(&baseline) {
        let got = run_json(old.graph(), q, ExecLimits::none());
        assert_eq!(&got, want, "held snapshot changed under a publish on: {q}");
    }
    // ... while a fresh load sees the grown graph.
    let new = store.load();
    assert_eq!(new.version(), 2);
    let count_q = "MATCH (a:AS) RETURN count(a)";
    let before = run_json(old.graph(), count_q, ExecLimits::none());
    let after = run_json(new.graph(), count_q, ExecLimits::none());
    assert_ne!(after, before, "publish did not grow the AS count");
}
