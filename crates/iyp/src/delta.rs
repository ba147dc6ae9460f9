//! Deterministic ingest batches for the synthetic IYP dataset.
//!
//! [`growth_batch`] builds a [`DeltaBatch`] that grows a generated graph
//! the way the real IYP grows between weekly dumps: new ASes appear,
//! register in a country, peer with existing networks, and a few
//! existing ASes change their announced name. The batch is a pure
//! function of `(graph schema state, seed, n_new_as)`, so replaying the
//! same batch against equal graphs yields equal graphs — the property
//! the snapshot stress tests and the `cow_ingest` bench rely on.

use crate::schema::{labels, rels};
use iyp_graphdb::{props, DeltaBatch, Graph, NodeId, Props, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Highest `asn` property among live `AS` nodes (0 when none exist).
/// New ASes are numbered above this so ingest never collides with a
/// generated ASN.
pub fn max_asn(graph: &Graph) -> i64 {
    graph
        .nodes_with_label(labels::AS)
        .filter_map(|id| graph.node(id))
        .filter_map(|n| match n.props.get("asn") {
            Some(Value::Int(a)) => Some(*a),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Builds a deterministic growth batch against `graph`.
///
/// Each of the `n_new_as` new ASes gets:
/// * an `AS` node with a fresh ASN above [`max_asn`] and a `Name` node
///   linked via `NAME`;
/// * a `COUNTRY` relationship to an existing country;
/// * 1–3 `PEERS_WITH` relationships to existing ASes.
///
/// The batch also renames one existing AS per three new ones —
/// property churn, so ingest exercises in-place updates and not just
/// appends.
pub fn growth_batch(graph: &Graph, seed: u64, n_new_as: usize) -> DeltaBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = DeltaBatch::new();

    let existing_as: Vec<NodeId> = graph.nodes_with_label(labels::AS).collect();
    let countries: Vec<NodeId> = graph.nodes_with_label(labels::COUNTRY).collect();
    let base_asn = max_asn(graph);

    for i in 0..n_new_as {
        let asn = base_asn + 1 + i as i64;
        let name = format!("Ingest Networks {asn}");
        let node = batch.add_node([labels::AS], props!("asn" => asn, "name" => name.as_str()));
        let name_node = batch.add_node([labels::NAME], props!("name" => name.as_str()));
        batch.add_rel(node, rels::NAME, name_node, Props::new());

        if !countries.is_empty() {
            let c = countries[rng.random_range(0..countries.len())];
            batch.add_rel(node, rels::COUNTRY, c, Props::new());
        }
        if !existing_as.is_empty() {
            let peers = 1 + rng.random_range(0..3usize);
            for _ in 0..peers {
                let p = existing_as[rng.random_range(0..existing_as.len())];
                batch.add_rel(node, rels::PEERS_WITH, p, Props::new());
            }
        }
    }

    // Property churn: rename one existing AS per three new ones.
    if !existing_as.is_empty() {
        for k in 0..n_new_as.div_ceil(3) {
            let target = existing_as[rng.random_range(0..existing_as.len())];
            batch.set_node_prop(
                target,
                "name",
                Value::from(format!("Renamed Networks {}", base_asn + 1 + k as i64)),
            );
        }
    }

    batch
}

/// Most new ASes one [`grow_to`] batch adds.
pub const GROWTH_BATCH_MAX_AS: usize = 1000;

/// Grows `graph` in place with [`growth_batch`]es of at most
/// [`GROWTH_BATCH_MAX_AS`] new ASes until it holds at least
/// `target_nodes` nodes. Batch `k` is drawn with seed `seed + k`, so the
/// result is a pure function of the starting graph, the target and the
/// seed: the scaled graphs of the executor tests and benches.
pub fn grow_to(graph: &mut Graph, target_nodes: usize, seed: u64) {
    let mut k = 0;
    while graph.node_count() < target_nodes {
        // Each new AS contributes an AS node and a Name node.
        let n_as = (target_nodes - graph.node_count())
            .div_ceil(2)
            .min(GROWTH_BATCH_MAX_AS);
        growth_batch(graph, seed + k, n_as)
            .apply(graph)
            .expect("a growth batch drawn from the graph applies to it");
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, IypConfig};

    fn small() -> IypConfig {
        IypConfig {
            n_as: 40,
            n_ixps: 4,
            n_facilities: 6,
            n_domains: 10,
            ..IypConfig::default()
        }
    }

    #[test]
    fn growth_batch_is_deterministic() {
        let g = generate(&small()).graph;
        let a = growth_batch(&g, 7, 5);
        let b = growth_batch(&g, 7, 5);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // A different seed wires different peers.
        let c = growth_batch(&g, 8, 5);
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }

    #[test]
    fn applying_grows_the_graph_without_asn_collisions() {
        let mut g = generate(&small()).graph;
        let before_max = max_asn(&g);
        let before_as = g.nodes_with_label(labels::AS).count();
        let batch = growth_batch(&g, 1, 6);
        batch.apply(&mut g).unwrap();
        assert_eq!(g.nodes_with_label(labels::AS).count(), before_as + 6);
        assert_eq!(max_asn(&g), before_max + 6);

        // ASNs stay unique.
        let mut asns: Vec<i64> = g
            .nodes_with_label(labels::AS)
            .filter_map(|id| g.node(id))
            .filter_map(|n| match n.props.get("asn") {
                Some(Value::Int(a)) => Some(*a),
                _ => None,
            })
            .collect();
        asns.sort_unstable();
        let len = asns.len();
        asns.dedup();
        assert_eq!(asns.len(), len, "duplicate ASN after ingest");
    }

    #[test]
    fn batches_chain_across_publishes() {
        let g = generate(&small()).graph;
        let store = iyp_graphdb::GraphStore::new(g);
        for round in 0..4 {
            let snap = store.load();
            let batch = growth_batch(&snap, round, 3);
            let report = store.ingest(&batch).unwrap();
            assert_eq!(report.new_version, round + 2);
        }
        assert_eq!(store.version(), 5);
    }
}
