//! Tests for the extended Cypher features: UNION / UNION ALL,
//! `shortestPath(...)`, and range-predicate index seeks.

use iyp_cypher::plan::{extract_range_predicates, plan_match, Anchor};
use iyp_cypher::{parse, query};
use iyp_graphdb::{props, Graph, Props, Value};

fn chain_graph() -> Graph {
    // a -> b -> c -> d plus a direct shortcut a -> c.
    let mut g = Graph::new();
    let a = g.add_node(["AS"], props!("asn" => 1i64));
    let b = g.add_node(["AS"], props!("asn" => 2i64));
    let c = g.add_node(["AS"], props!("asn" => 3i64));
    let d = g.add_node(["AS"], props!("asn" => 4i64));
    g.add_rel(a, "DEPENDS_ON", b, Props::new()).unwrap();
    g.add_rel(b, "DEPENDS_ON", c, Props::new()).unwrap();
    g.add_rel(c, "DEPENDS_ON", d, Props::new()).unwrap();
    g.add_rel(a, "DEPENDS_ON", c, Props::new()).unwrap();
    g.create_index("AS", "asn");
    g
}

// ----------------------------------------------------------------------
// UNION
// ----------------------------------------------------------------------

#[test]
fn union_merges_and_dedups() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS) WHERE a.asn <= 2 RETURN a.asn \
         UNION MATCH (a:AS) WHERE a.asn >= 2 RETURN a.asn",
    )
    .unwrap();
    let mut vals: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    vals.sort();
    assert_eq!(vals, vec![1, 2, 3, 4], "duplicate 2 not deduplicated");
}

#[test]
fn union_all_keeps_duplicates() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS) WHERE a.asn <= 2 RETURN a.asn \
         UNION ALL MATCH (a:AS) WHERE a.asn >= 2 RETURN a.asn",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 5); // 1,2 + 2,3,4
}

#[test]
fn union_three_branches() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 1}) RETURN a.asn \
         UNION MATCH (a:AS {asn: 2}) RETURN a.asn \
         UNION MATCH (a:AS {asn: 1}) RETURN a.asn",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn union_column_mismatch_is_an_error() {
    let g = chain_graph();
    let err = query(
        &g,
        "MATCH (a:AS) RETURN a.asn UNION MATCH (a:AS) RETURN a.asn, a.asn",
    )
    .unwrap_err();
    assert!(err.message.contains("column"), "{err}");
}

#[test]
fn union_roundtrips_through_pretty() {
    let src = "MATCH (a:AS) RETURN a.asn UNION ALL MATCH (b:AS) RETURN b.asn";
    let q1 = parse(src).unwrap();
    let rendered = iyp_cypher::query_to_string(&q1);
    assert!(rendered.contains("UNION ALL"));
    assert_eq!(parse(&rendered).unwrap(), q1);
}

// ----------------------------------------------------------------------
// shortestPath
// ----------------------------------------------------------------------

#[test]
fn shortest_path_picks_the_shortcut() {
    let g = chain_graph();
    // a→c exists directly (length 1) and via b (length 2).
    let r = query(
        &g,
        "MATCH p = shortestPath((a:AS {asn: 1})-[:DEPENDS_ON*1..4]->(c:AS {asn: 3})) \
         RETURN length(p)",
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(1)));
}

#[test]
fn shortest_path_per_endpoint_pair() {
    let g = chain_graph();
    // From a to every reachable AS: one row per endpoint, each minimal.
    let r = query(
        &g,
        "MATCH p = shortestPath((a:AS {asn: 1})-[:DEPENDS_ON*1..4]->(x:AS)) \
         RETURN x.asn, length(p) ORDER BY x.asn",
    )
    .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1)], // shortcut, not via b
            vec![Value::Int(4), Value::Int(2)], // a→c→d
        ]
    );
}

#[test]
fn shortest_path_no_route_is_empty() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH p = shortestPath((a:AS {asn: 4})-[:DEPENDS_ON*1..4]->(x:AS {asn: 1})) \
         RETURN length(p)",
    )
    .unwrap();
    assert!(r.is_empty());
}

#[test]
fn shortest_path_requires_binding_and_single_hop() {
    assert!(parse("MATCH shortestPath((a)-[*]->(b)) RETURN a").is_err());
    assert!(parse("MATCH p = shortestPath((a)-[*]->(b)-[*]->(c)) RETURN p").is_err());
    assert!(parse("MATCH p = shortestPath((a)-[:R*1..3]->(b)) RETURN p").is_ok());
}

#[test]
fn shortest_path_pretty_roundtrip() {
    let src = "MATCH p = shortestPath((a:AS {asn: 1})-[:DEPENDS_ON*1..4]->(b:AS)) RETURN length(p)";
    let q1 = parse(src).unwrap();
    let rendered = iyp_cypher::query_to_string(&q1);
    assert!(rendered.contains("shortestPath("));
    assert_eq!(parse(&rendered).unwrap(), q1);
}

// ----------------------------------------------------------------------
// Range index seeks
// ----------------------------------------------------------------------

fn big_indexed_graph() -> Graph {
    let mut g = Graph::new();
    for asn in 1..=200i64 {
        g.add_node(["AS"], props!("asn" => asn));
    }
    g.create_index("AS", "asn");
    g
}

#[test]
fn range_predicates_are_extracted_and_merged() {
    let e = iyp_cypher::parse_expression("a.asn > 10 AND a.asn <= 20 AND b.x < 5").unwrap();
    let preds = extract_range_predicates(&e);
    assert_eq!(preds.len(), 2);
    let a = preds.iter().find(|p| p.var == "a").unwrap();
    assert!(a.lo.is_some() && a.hi.is_some());
    assert!(!a.lo.as_ref().unwrap().1); // strict >
    assert!(a.hi.as_ref().unwrap().1); // inclusive <=
    let b = preds.iter().find(|p| p.var == "b").unwrap();
    assert!(b.lo.is_none() && b.hi.is_some());
}

#[test]
fn flipped_operands_extract_correctly() {
    let e = iyp_cypher::parse_expression("10 < a.asn AND 20 >= a.asn").unwrap();
    let preds = extract_range_predicates(&e);
    assert_eq!(preds.len(), 1);
    assert!(!preds[0].lo.as_ref().unwrap().1);
    assert!(preds[0].hi.as_ref().unwrap().1);
}

#[test]
fn planner_chooses_range_seek() {
    let g = big_indexed_graph();
    let q = parse("MATCH (a:AS) WHERE a.asn > 190 RETURN a.asn").unwrap();
    let m = match &q.clauses[0] {
        iyp_cypher::ast::Clause::Match(m) => m,
        other => panic!("{other:?}"),
    };
    let plans = plan_match(&g, m, &mut Vec::new(), None);
    assert!(
        matches!(plans[0].anchor, Anchor::RangeSeek { .. }),
        "got {:?}",
        plans[0].anchor
    );
}

#[test]
fn range_seek_results_match_label_scan() {
    let g = big_indexed_graph();
    // Both bounded and half-open ranges give the same answers as the
    // equivalent filtered scan over an unindexed property would.
    for (pred, expected) in [
        ("a.asn > 195", vec![196i64, 197, 198, 199, 200]),
        ("a.asn >= 199", vec![199, 200]),
        ("a.asn > 3 AND a.asn <= 6", vec![4, 5, 6]),
        ("a.asn < 3", vec![1, 2]),
        ("198 <= a.asn AND a.asn < 200", vec![198, 199]),
    ] {
        let r = query(
            &g,
            &format!("MATCH (a:AS) WHERE {pred} RETURN a.asn ORDER BY a.asn"),
        )
        .unwrap();
        let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
        assert_eq!(got, expected, "predicate {pred}");
    }
}

#[test]
fn range_seek_still_applies_residual_filters() {
    let g = big_indexed_graph();
    // The WHERE clause is still evaluated in full: the range seek is an
    // access path, not a replacement for filtering.
    let r = query(
        &g,
        "MATCH (a:AS) WHERE a.asn > 100 AND a.asn % 50 = 0 RETURN a.asn ORDER BY a.asn",
    )
    .unwrap();
    let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    assert_eq!(got, vec![150, 200]);
}

// ----------------------------------------------------------------------
// exists(pattern)
// ----------------------------------------------------------------------

#[test]
fn exists_pattern_filters_by_relationship() {
    let g = chain_graph();
    // Only nodes with an outgoing DEPENDS_ON edge: 1, 2, 3 (4 is the sink).
    let r = query(
        &g,
        "MATCH (a:AS) WHERE exists((a)-[:DEPENDS_ON]->(:AS)) RETURN a.asn ORDER BY a.asn",
    )
    .unwrap();
    let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    assert_eq!(got, vec![1, 2, 3]);
}

#[test]
fn not_exists_pattern() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS) WHERE NOT exists((a)-[:DEPENDS_ON]->(:AS)) RETURN a.asn",
    )
    .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
}

#[test]
fn exists_pattern_with_far_end_bound() {
    let g = chain_graph();
    // Chain reversed internally: the bound endpoint is on the right.
    let r = query(
        &g,
        "MATCH (a:AS) WHERE exists((:AS {asn: 1})-[:DEPENDS_ON]->(a)) RETURN a.asn ORDER BY a.asn",
    )
    .unwrap();
    let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    assert_eq!(got, vec![2, 3]); // direct edges 1→2 and the shortcut 1→3
}

#[test]
fn exists_two_hop_pattern() {
    let g = chain_graph();
    // Nodes two DEPENDS_ON hops away from something: 1 and 2 (and 1 via shortcut? 1→3→4 also).
    let r = query(
        &g,
        "MATCH (a:AS) WHERE exists((a)-[:DEPENDS_ON]->(:AS)-[:DEPENDS_ON]->(:AS)) \
         RETURN a.asn ORDER BY a.asn",
    )
    .unwrap();
    let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    assert_eq!(got, vec![1, 2]);
}

#[test]
fn exists_pattern_between_two_bound_vars() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 1}), (b:AS) WHERE exists((a)-[:DEPENDS_ON]->(b)) \
         RETURN b.asn ORDER BY b.asn",
    )
    .unwrap();
    let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    assert_eq!(got, vec![2, 3]);
}

#[test]
fn exists_pattern_roundtrips_through_pretty() {
    let src = "MATCH (a:AS) WHERE exists((a)-[:DEPENDS_ON]->(:AS)) RETURN a.asn";
    let q1 = parse(src).unwrap();
    let rendered = iyp_cypher::query_to_string(&q1);
    assert!(
        rendered.contains("exists((a)-[:DEPENDS_ON]->(:AS))"),
        "{rendered}"
    );
    assert_eq!(parse(&rendered).unwrap(), q1);
}

#[test]
fn exists_pattern_without_bound_endpoint_errors() {
    let g = chain_graph();
    let err = query(
        &g,
        "MATCH (a:AS) WHERE exists((x)-[:DEPENDS_ON]->(y)) RETURN a.asn",
    )
    .unwrap_err();
    assert!(err.message.contains("bound endpoint"), "{err}");
}

#[test]
fn bare_pattern_predicate_in_where() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS) WHERE (a)-[:DEPENDS_ON]->(:AS) RETURN a.asn ORDER BY a.asn",
    )
    .unwrap();
    let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    assert_eq!(got, vec![1, 2, 3]);
}

#[test]
fn negated_bare_pattern_predicate() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS) WHERE NOT (a)-[:DEPENDS_ON]->(:AS) RETURN a.asn",
    )
    .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
}

#[test]
fn pattern_predicate_combines_with_boolean_logic() {
    let g = chain_graph();
    let r = query(
        &g,
        "MATCH (a:AS) WHERE (a)-[:DEPENDS_ON]->(:AS) AND a.asn > 1 RETURN a.asn ORDER BY a.asn",
    )
    .unwrap();
    let got: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
    assert_eq!(got, vec![2, 3]);
}

#[test]
fn parenthesized_arithmetic_still_works() {
    let g = chain_graph();
    // `(a.asn + 1)` must not be mistaken for a pattern.
    let r = query(&g, "MATCH (a:AS {asn: 1}) RETURN (a.asn + 1) * 2").unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(4)));
}

#[test]
fn deadline_cuts_off_pathological_queries() {
    use std::time::{Duration, Instant};
    // A dense-ish mesh where unconstrained double var-length expansion
    // explodes combinatorially.
    let mut g = Graph::new();
    let ids: Vec<_> = (0..60)
        .map(|i| g.add_node(["N"], props!("i" => i as i64)))
        .collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in ids.iter().skip(i + 1).take(6) {
            g.add_rel(a, "R", b, Props::new()).unwrap();
            g.add_rel(b, "R", a, Props::new()).unwrap();
        }
    }
    let started = Instant::now();
    let err = iyp_cypher::query_with_deadline(
        &g,
        "MATCH (a)-[:R*1..6]-(b)-[:R*1..6]-(c) RETURN count(*)",
        &iyp_cypher::Params::new(),
        Duration::from_millis(150),
    )
    .unwrap_err();
    assert!(err.message.contains("deadline"), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline not enforced promptly: {:?}",
        started.elapsed()
    );
}

#[test]
fn deadline_does_not_affect_normal_queries() {
    let g = chain_graph();
    let r = iyp_cypher::query_with_deadline(
        &g,
        "MATCH (a:AS) RETURN count(a)",
        &iyp_cypher::Params::new(),
        std::time::Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(4)));
}
