//! End-to-end tests of the Cypher executor against a small, hand-built
//! Internet-shaped graph.

use iyp_cypher::{query, query_with, update, Params, QueryResult};
use iyp_graphdb::{props, Graph, Props, Value};

/// Builds a miniature IYP-shaped graph:
///
/// - 4 ASes (2497 IIJ/JP, 15169 Google/US, 7018 ATT/US, 64500 Small/JP)
/// - 2 countries (JP, US)
/// - 3 prefixes originated by the ASes
/// - 1 IXP with members
/// - POPULATION edges with `percent`
/// - DEPENDS_ON chain for multi-hop tests
fn mini_iyp() -> Graph {
    let mut g = Graph::new();
    let jp = g.add_node(
        ["Country"],
        props!("country_code" => "JP", "name" => "Japan"),
    );
    let us = g.add_node(
        ["Country"],
        props!("country_code" => "US", "name" => "United States"),
    );

    let iij = g.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
    let goog = g.add_node(["AS"], props!("asn" => 15169i64, "name" => "Google"));
    let att = g.add_node(["AS"], props!("asn" => 7018i64, "name" => "ATT"));
    let small = g.add_node(["AS"], props!("asn" => 64500i64, "name" => "SmallISP"));

    g.add_rel(iij, "COUNTRY", jp, Props::new()).unwrap();
    g.add_rel(goog, "COUNTRY", us, Props::new()).unwrap();
    g.add_rel(att, "COUNTRY", us, Props::new()).unwrap();
    g.add_rel(small, "COUNTRY", jp, Props::new()).unwrap();

    g.add_rel(iij, "POPULATION", jp, props!("percent" => 33.3))
        .unwrap();
    g.add_rel(small, "POPULATION", jp, props!("percent" => 1.2))
        .unwrap();

    let p1 = g.add_node(
        ["Prefix"],
        props!("prefix" => "203.0.113.0/24", "af" => 4i64),
    );
    let p2 = g.add_node(
        ["Prefix"],
        props!("prefix" => "198.51.100.0/24", "af" => 4i64),
    );
    let p3 = g.add_node(
        ["Prefix"],
        props!("prefix" => "2001:db8::/32", "af" => 6i64),
    );
    g.add_rel(iij, "ORIGINATE", p1, Props::new()).unwrap();
    g.add_rel(goog, "ORIGINATE", p2, Props::new()).unwrap();
    g.add_rel(goog, "ORIGINATE", p3, Props::new()).unwrap();

    let ixp = g.add_node(["IXP"], props!("name" => "JPIX"));
    g.add_rel(iij, "MEMBER_OF", ixp, Props::new()).unwrap();
    g.add_rel(small, "MEMBER_OF", ixp, Props::new()).unwrap();

    // small -> iij -> att dependency chain; google depends on att too.
    g.add_rel(small, "DEPENDS_ON", iij, Props::new()).unwrap();
    g.add_rel(iij, "DEPENDS_ON", att, Props::new()).unwrap();
    g.add_rel(goog, "DEPENDS_ON", att, Props::new()).unwrap();

    g.add_rel(iij, "PEERS_WITH", goog, Props::new()).unwrap();

    g.create_index("AS", "asn");
    g.create_index("Country", "country_code");
    g
}

fn col0(r: &QueryResult) -> Vec<String> {
    r.rows.iter().map(|row| row[0].to_string()).collect()
}

#[test]
fn single_node_by_indexed_property() {
    let g = mini_iyp();
    let r = query(&g, "MATCH (a:AS {asn: 2497}) RETURN a.name").unwrap();
    assert_eq!(r.columns, vec!["a.name"]);
    assert_eq!(col0(&r), vec!["IIJ"]);
}

#[test]
fn one_hop_pattern() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS)-[:COUNTRY]->(c:Country {country_code: 'JP'}) RETURN a.name ORDER BY a.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["IIJ", "SmallISP"]);
}

#[test]
fn the_paper_example_population_query() {
    // "What is the percentage of Japan's population in AS2497?"
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 2497})-[p:POPULATION]->(c:Country {country_code: 'JP'}) \
         RETURN p.percent",
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::Float(33.3)));
}

#[test]
fn incoming_direction() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (c:Country {country_code: 'US'})<-[:COUNTRY]-(a:AS) RETURN count(a)",
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(2)));
}

#[test]
fn undirected_pattern() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b:AS) RETURN b.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["Google"]);
    // And from the other side.
    let r = query(
        &g,
        "MATCH (a:AS {asn: 15169})-[:PEERS_WITH]-(b:AS) RETURN b.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["IIJ"]);
}

#[test]
fn multi_hop_chain() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 64500})-[:DEPENDS_ON]->(m:AS)-[:DEPENDS_ON]->(t:AS) RETURN t.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["ATT"]);
}

#[test]
fn variable_length_paths() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 64500})-[:DEPENDS_ON*1..2]->(b:AS) RETURN b.name ORDER BY b.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["ATT", "IIJ"]);
    // Exactly two hops.
    let r = query(
        &g,
        "MATCH (a:AS {asn: 64500})-[:DEPENDS_ON*2]->(b:AS) RETURN b.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["ATT"]);
}

#[test]
fn variable_length_zero_min_includes_start() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 2497})-[:DEPENDS_ON*0..1]->(b:AS) RETURN b.name ORDER BY b.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["ATT", "IIJ"]);
}

#[test]
fn path_variable_and_length() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH p = (a:AS {asn: 64500})-[:DEPENDS_ON*1..3]->(b:AS {asn: 7018}) RETURN length(p)",
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(2)));
}

#[test]
fn where_filtering() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS) WHERE a.asn > 10000 AND a.name CONTAINS 'o' RETURN a.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["Google"]);
}

#[test]
fn aggregation_count_group_by() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) \
         RETURN c.country_code AS cc, count(a) AS n ORDER BY cc",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Value::from("JP"), Value::Int(2)]);
    assert_eq!(r.rows[1], vec![Value::from("US"), Value::Int(2)]);
}

#[test]
fn aggregation_sum_avg_min_max_collect() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS) RETURN sum(a.asn), avg(a.asn), min(a.name), max(a.asn), count(*)",
    )
    .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], Value::Int(2497 + 15169 + 7018 + 64500));
    assert_eq!(row[2], Value::from("ATT"));
    assert_eq!(row[3], Value::Int(64500));
    assert_eq!(row[4], Value::Int(4));
    let r = query(&g, "MATCH (p:Prefix) RETURN collect(p.af)").unwrap();
    match r.single_value().unwrap() {
        Value::List(items) => assert_eq!(items.len(), 3),
        other => panic!("{other:?}"),
    }
}

#[test]
fn aggregation_over_empty_input() {
    let g = mini_iyp();
    let r = query(&g, "MATCH (x:Nonexistent) RETURN count(x), sum(x.v)").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Int(0));
}

#[test]
fn count_distinct() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN count(DISTINCT c.country_code)",
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(2)));
}

#[test]
fn mixed_aggregate_expression() {
    let g = mini_iyp();
    // Percentage arithmetic around an aggregate.
    let r = query(&g, "MATCH (a:AS) RETURN 100.0 * count(a) / 4 AS pct").unwrap();
    assert_eq!(r.single_value(), Some(&Value::Float(100.0)));
}

#[test]
fn with_chaining_filters_groups() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS)-[:MEMBER_OF]->(x:IXP) \
         WITH x, count(a) AS members WHERE members >= 2 \
         RETURN x.name, members",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::from("JPIX"));
    assert_eq!(r.rows[0][1], Value::Int(2));
}

#[test]
fn with_preserves_entities() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 2497}) WITH a MATCH (a)-[:ORIGINATE]->(p:Prefix) RETURN p.prefix",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["203.0.113.0/24"]);
}

#[test]
fn order_by_aggregate() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) \
         RETURN c.country_code, count(a) AS n ORDER BY count(a) DESC, c.country_code",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::from("JP"));
}

#[test]
fn order_by_original_variable_after_projection() {
    let g = mini_iyp();
    let r = query(&g, "MATCH (a:AS) RETURN a.name ORDER BY a.asn DESC").unwrap();
    assert_eq!(col0(&r), vec!["SmallISP", "Google", "ATT", "IIJ"]);
}

#[test]
fn skip_and_limit() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS) RETURN a.asn ORDER BY a.asn SKIP 1 LIMIT 2",
    )
    .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(7018)], vec![Value::Int(15169)]]
    );
}

#[test]
fn distinct_rows() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code ORDER BY c.country_code",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["JP", "US"]);
}

#[test]
fn optional_match_yields_nulls() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS) OPTIONAL MATCH (a)-[p:POPULATION]->(:Country) \
         RETURN a.name, p.percent ORDER BY a.name",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 4);
    // ATT and Google have no POPULATION edge.
    let att = r
        .rows
        .iter()
        .find(|row| row[0] == Value::from("ATT"))
        .unwrap();
    assert!(att[1].is_null());
    let iij = r
        .rows
        .iter()
        .find(|row| row[0] == Value::from("IIJ"))
        .unwrap();
    assert_eq!(iij[1], Value::Float(33.3));
}

#[test]
fn unwind_rows() {
    let g = mini_iyp();
    let r = query(
        &g,
        "UNWIND [2497, 7018] AS asn MATCH (a:AS {asn: asn}) RETURN a.name ORDER BY a.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["ATT", "IIJ"]);
}

#[test]
fn parameters() {
    let g = mini_iyp();
    let mut params = Params::new();
    params.insert("asn".into(), Value::Int(15169));
    let r = query_with(&g, "MATCH (a:AS {asn: $asn}) RETURN a.name", &params).unwrap();
    assert_eq!(col0(&r), vec!["Google"]);
}

#[test]
fn cartesian_product_of_disjoint_patterns() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 2497}), (c:Country) RETURN a.name, c.country_code ORDER BY c.country_code",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn shared_variable_joins_patterns() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS)-[:COUNTRY]->(c:Country {country_code: 'JP'}), (a)-[:MEMBER_OF]->(x:IXP) \
         RETURN a.name ORDER BY a.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["IIJ", "SmallISP"]);
}

#[test]
fn relationship_uniqueness_within_pattern() {
    let g = mini_iyp();
    // a-[:PEERS_WITH]-b-[:PEERS_WITH]-c cannot reuse the same edge, so no
    // row where a = c via the single IIJ<->Google edge.
    let r = query(
        &g,
        "MATCH (a:AS)-[:PEERS_WITH]-(b:AS)-[:PEERS_WITH]-(c:AS) RETURN a.name, c.name",
    )
    .unwrap();
    assert!(r.is_empty());
}

#[test]
fn labels_and_type_functions() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 2497})-[r]->(x) RETURN DISTINCT type(r) ORDER BY type(r)",
    )
    .unwrap();
    assert_eq!(
        col0(&r),
        vec![
            "COUNTRY",
            "DEPENDS_ON",
            "MEMBER_OF",
            "ORIGINATE",
            "PEERS_WITH",
            "POPULATION"
        ]
    );
    let r = query(
        &g,
        "MATCH (c:Country {country_code: 'JP'}) RETURN labels(c)",
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::from(vec!["Country"])));
}

#[test]
fn case_and_string_functions_in_projection() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS) RETURN toUpper(a.name) AS up, \
         CASE WHEN a.asn < 10000 THEN 'low' ELSE 'high' END AS band \
         ORDER BY a.asn LIMIT 2",
    )
    .unwrap();
    assert_eq!(r.rows[0], vec![Value::from("IIJ"), Value::from("low")]);
    assert_eq!(r.rows[1], vec![Value::from("ATT"), Value::from("low")]);
}

#[test]
fn return_star() {
    let g = mini_iyp();
    let r = query(&g, "MATCH (c:Country {country_code: 'JP'}) RETURN *").unwrap();
    assert_eq!(r.columns, vec!["c"]);
    match &r.rows[0][0] {
        Value::Map(m) => assert_eq!(m["country_code"], Value::from("JP")),
        other => panic!("{other:?}"),
    }
}

#[test]
fn write_create_then_read_back() {
    let mut g = mini_iyp();
    update(
        &mut g,
        "CREATE (a:AS {asn: 65000, name: 'NewNet'})-[:COUNTRY]->(c:Country {country_code: 'DE'})",
    )
    .unwrap();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 65000})-[:COUNTRY]->(c) RETURN c.country_code",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["DE"]);
}

#[test]
fn write_match_create_links_existing() {
    let mut g = mini_iyp();
    update(
        &mut g,
        "MATCH (a:AS {asn: 7018}), (x:IXP {name: 'JPIX'}) CREATE (a)-[:MEMBER_OF]->(x)",
    )
    .unwrap();
    let r = query(
        &g,
        "MATCH (:IXP {name: 'JPIX'})<-[:MEMBER_OF]-(a) RETURN count(a)",
    )
    .unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(3)));
}

#[test]
fn merge_is_idempotent() {
    let mut g = mini_iyp();
    let before = g.node_count();
    update(&mut g, "MERGE (c:Country {country_code: 'JP'})").unwrap();
    assert_eq!(g.node_count(), before);
    update(&mut g, "MERGE (c:Country {country_code: 'FR'})").unwrap();
    assert_eq!(g.node_count(), before + 1);
}

#[test]
fn set_updates_properties() {
    let mut g = mini_iyp();
    update(
        &mut g,
        "MATCH (a:AS {asn: 2497}) SET a.name = 'Internet Initiative Japan'",
    )
    .unwrap();
    let r = query(&g, "MATCH (a:AS {asn: 2497}) RETURN a.name").unwrap();
    assert_eq!(col0(&r), vec!["Internet Initiative Japan"]);
}

#[test]
fn detach_delete_removes_node_and_edges() {
    let mut g = mini_iyp();
    update(&mut g, "MATCH (a:AS {asn: 64500}) DETACH DELETE a").unwrap();
    let r = query(&g, "MATCH (a:AS) RETURN count(a)").unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(3)));
    // Plain DELETE on a connected node errors.
    let err = update(&mut g, "MATCH (a:AS {asn: 2497}) DELETE a").unwrap_err();
    assert!(err.message.contains("DETACH"));
}

/// A deleted node's binding has no record left: `count` sees it as null,
/// exactly as the value it would project (`RETURN t` gives null).
#[test]
fn count_of_a_deleted_node_counts_it_as_null() {
    let mut g = mini_iyp();
    for k in 0..3i64 {
        update(&mut g, &format!("CREATE (t:Tmp {{k: {k}}})")).unwrap();
    }
    let r = update(&mut g, "MATCH (t:Tmp) DETACH DELETE t RETURN count(t)").unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(0)));
    update(&mut g, "CREATE (t:Tmp {k: 9})").unwrap();
    let r = update(
        &mut g,
        "MATCH (t:Tmp) DETACH DELETE t RETURN count(DISTINCT t), count(*)",
    )
    .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Int(1)]]);
    let r = query(&g, "MATCH (t:Tmp) RETURN count(t)").unwrap();
    assert_eq!(r.single_value(), Some(&Value::Int(0)));
}

#[test]
fn read_only_execution_rejects_writes() {
    let g = mini_iyp();
    let err = query(&g, "CREATE (x:AS {asn: 1})").unwrap_err();
    assert!(err.message.contains("read-only"));
}

#[test]
fn runtime_errors_surface() {
    let g = mini_iyp();
    assert!(query(&g, "MATCH (a:AS) RETURN ghost.name").is_err());
    assert!(query(&g, "MATCH (a:AS) RETURN frob(a)").is_err());
    assert!(query(&g, "RETURN 1 / 0").is_err());
}

#[test]
fn return_must_be_last() {
    let g = mini_iyp();
    assert!(query(&g, "RETURN 1 RETURN 2").is_err());
}

#[test]
fn optional_match_null_then_rematch_fails_gracefully() {
    let g = mini_iyp();
    // ATT/Google have no POPULATION edge; reusing the null p in MATCH
    // produces no rows for them rather than an error.
    let r = query(
        &g,
        "MATCH (a:AS) OPTIONAL MATCH (a)-[:POPULATION]->(c:Country) \
         WITH a, c MATCH (c)<-[:COUNTRY]-(b:AS) \
         RETURN DISTINCT a.name ORDER BY a.name",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["IIJ", "SmallISP"]);
}

#[test]
fn with_star_keeps_bindings() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS {asn: 2497}) WITH * MATCH (a)-[:COUNTRY]->(c) RETURN c.country_code",
    )
    .unwrap();
    assert_eq!(col0(&r), vec!["JP"]);
}

#[test]
fn percentile_and_stdev() {
    let g = mini_iyp();
    let r = query(
        &g,
        "MATCH (a:AS) RETURN percentileCont(a.asn, 0.5) AS med, stdev(a.asn) AS sd",
    )
    .unwrap();
    let med = r.rows[0][0].as_f64().unwrap();
    assert!(med > 7018.0 && med < 15169.0, "median was {med}");
    assert!(r.rows[0][1].as_f64().unwrap() > 0.0);
}

#[test]
fn chain_reversal_gives_same_answer() {
    let g = mini_iyp();
    // Anchor on the indexed far end; results must match the forward form.
    let a = query(
        &g,
        "MATCH (p:Prefix)<-[:ORIGINATE]-(a:AS {asn: 15169}) RETURN p.prefix ORDER BY p.prefix",
    )
    .unwrap();
    let b = query(
        &g,
        "MATCH (a:AS {asn: 15169})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix ORDER BY p.prefix",
    )
    .unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn fingerprint_equivalence_across_alias_and_order() {
    let g = mini_iyp();
    let a = query(&g, "MATCH (a:AS) RETURN a.asn AS x ORDER BY x").unwrap();
    let b = query(&g, "MATCH (a:AS) RETURN a.asn AS y ORDER BY y DESC").unwrap();
    assert_eq!(a.fingerprint(false), b.fingerprint(false));
    assert_ne!(a.fingerprint(true), b.fingerprint(true));
}
