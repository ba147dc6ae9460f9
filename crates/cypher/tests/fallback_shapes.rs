//! Golden tests for the query shapes outside the read corpus: every write
//! clause, `exists(pattern)` predicates, and the plan errors the executor
//! raises (aggregates in `WITH … WHERE`, an empty projection, a `RETURN`
//! that is not the final clause, a write in read-only execution).
//!
//! Each shape runs on the deterministic default IYP dataset and on a small
//! hand-built graph. The golden records the result or error, the `EXPLAIN`
//! text and, for writes, the graph's node and relationship counts plus a
//! probe query run after the write. The goldens were captured from the AST
//! interpreter that preceded the single compiled executor, so they pin its
//! values, its error messages, and the order in which a query's effects
//! and errors happen.
//!
//! To re-record after an intentional semantic change:
//! `cargo test -p iyp-cypher --test fallback_shapes -- --ignored regenerate_fallback_goldens`

use iyp_cypher::{execute, execute_read, explain, parse, Params};
use iyp_data::{generate, IypConfig};
use iyp_graphdb::{props, Graph, Props};
use std::path::PathBuf;

/// How a shape executes.
enum Mode {
    /// Read-only execution.
    Read,
    /// Read-write execution; the probe query runs afterwards.
    Write(&'static str),
}
use Mode::{Read, Write};

const SHAPES: &[(&str, Mode)] = &[
    // -- CREATE ------------------------------------------------------------
    (
        "CREATE (a:AS {asn: 99001, name: 'New'})",
        Write("MATCH (a:AS {asn: 99001}) RETURN a.name, labels(a)"),
    ),
    (
        "CREATE (a:AS {asn: 99002})-[:COUNTRY {src: 'test'}]->(c:Country {country_code: 'ZZ'}) RETURN a.asn, c.country_code",
        Write("MATCH (a:AS {asn: 99002})-[r:COUNTRY]->(c) RETURN r.src, c.country_code"),
    ),
    (
        "CREATE (c:Country {country_code: 'YY'})<-[r:COUNTRY]-(a:AS {asn: 99005}) RETURN type(r), a.asn",
        Write("MATCH (a:AS {asn: 99005})-[:COUNTRY]->(c:Country) RETURN c.country_code"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) CREATE (a)-[:PEERS_WITH]->(b:AS {asn: 99003}) RETURN count(*)",
        Write("MATCH (a:AS {asn: 2497})-[:PEERS_WITH]->(b:AS {asn: 99003}) RETURN a.name, b.asn"),
    ),
    (
        "UNWIND [1, 2, 3] AS i CREATE (:Tmp {i: i, sq: i * i})",
        Write("MATCH (t:Tmp) RETURN t.i, t.sq ORDER BY t.i"),
    ),
    (
        "CREATE (:Tmp {i: 7}) WITH 1 AS one MATCH (t:Tmp) RETURN count(t)",
        Write("MATCH (t:Tmp) RETURN t.i"),
    ),
    (
        "CREATE p = (a:Tmp {i: 1})-[:R]->(b:Tmp {i: 2}) RETURN a.i, b.i, p",
        Write("MATCH (a:Tmp)-[:R]->(b:Tmp) RETURN a.i, b.i"),
    ),
    (
        "CREATE (a:Tmp {i: 1}), (a)-[:R]->(b:Tmp {i: a.i + 1}) RETURN b.i",
        Write("MATCH (a:Tmp)-[:R]->(b:Tmp) RETURN a.i, b.i"),
    ),
    (
        "CREATE (a:Tmp)-[:R*1..2]->(b:Tmp)",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    (
        "CREATE (a:Tmp)-[:R]-(b:Tmp)",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    (
        "CREATE (a:Tmp)-[]->(b:Tmp)",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    (
        "WITH 1 AS a CREATE (a)-[:R]->(b:Tmp)",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    (
        "CREATE (:Tmp {v: ghost})",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    // -- MERGE -------------------------------------------------------------
    (
        "MERGE (a:AS {asn: 2497}) RETURN a.name",
        Write("MATCH (a:AS {asn: 2497}) RETURN count(a)"),
    ),
    (
        "MERGE (a:AS {asn: 99004}) RETURN a.asn",
        Write("MATCH (a:AS {asn: 99004}) RETURN count(a)"),
    ),
    (
        "MERGE (:Tag {label: 'Fresh'})",
        Write("MATCH (t:Tag {label: 'Fresh'}) RETURN count(t)"),
    ),
    (
        "UNWIND [5, 5, 6] AS x MERGE (t:Tmp {x: x}) RETURN t.x, id(t) - id(t)",
        Write("MATCH (t:Tmp) RETURN t.x ORDER BY t.x"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) MERGE (a) RETURN a.asn",
        Write("MATCH (a:AS {asn: 2497}) RETURN count(a)"),
    ),
    (
        "MERGE (n {asn: 15169}) RETURN n.asn",
        Write("MATCH (n {asn: 15169}) RETURN count(n)"),
    ),
    // -- SET and REMOVE ----------------------------------------------------
    (
        "MATCH (a:AS {asn: 2497}) SET a.name = 'IIJ2', a.flag = true RETURN a.name, a.flag",
        Write("MATCH (a:AS {asn: 2497}) RETURN a.name, a.flag"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) SET a += {x: 1, y: 'two'} RETURN a.x, a.y",
        Write("MATCH (a:AS {asn: 2497}) RETURN a.x, a.y"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) SET a += null RETURN a.name",
        Write("MATCH (a:AS {asn: 2497}) RETURN a.name"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) SET a += 5",
        Write("MATCH (a:AS {asn: 2497}) RETURN a.name"),
    ),
    (
        "MATCH (a:AS {asn: 2497})-[r:COUNTRY]->() SET r.checked = 1 RETURN count(r)",
        Write("MATCH (:AS {asn: 2497})-[r:COUNTRY]->() RETURN r.checked"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) SET ghost.x = 1",
        Write("MATCH (a:AS {asn: 2497}) RETURN a.x"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) SET a.first = 1, ghost.x = 2",
        Write("MATCH (a:AS {asn: 2497}) RETURN a.first"),
    ),
    (
        "WITH 1 AS v SET v.x = 1",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    (
        "OPTIONAL MATCH (a:AS {asn: -1}) SET a.x = 1 RETURN a",
        Write("MATCH (n) WHERE n.x = 1 RETURN count(n)"),
    ),
    (
        "MATCH (a:AS) WHERE a.asn IN [2497, 15169] SET a.seen = a.asn * 2 RETURN a.asn, a.seen ORDER BY a.asn",
        Write("MATCH (a:AS) WHERE a.seen IS NOT NULL RETURN a.asn, a.seen ORDER BY a.asn"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) REMOVE a.name RETURN a.name",
        Write("MATCH (a:AS {asn: 2497}) RETURN a.name, keys(a)"),
    ),
    // -- DELETE and DETACH DELETE -----------------------------------------
    (
        "MATCH (a:AS {asn: 2497}) DELETE a",
        Write("MATCH (a:AS {asn: 2497}) RETURN count(a)"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) DETACH DELETE a",
        Write("MATCH (a:AS {asn: 2497}) RETURN count(a)"),
    ),
    (
        "MATCH (a:AS {asn: 2497})-[r:PEERS_WITH]-() DELETE r RETURN count(*)",
        Write("MATCH (a:AS {asn: 2497})-[r:PEERS_WITH]-() RETURN count(r)"),
    ),
    (
        "MATCH (a:AS {asn: 2497})-[r]-(b) DELETE r, a RETURN count(*)",
        Write("MATCH (a:AS {asn: 2497}) RETURN count(a)"),
    ),
    (
        "CREATE (t:Tmp {k: 1}) DELETE t RETURN t",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    (
        "WITH 1 AS v DELETE v",
        Write("MATCH (t:Tmp) RETURN count(t)"),
    ),
    (
        "MATCH (a:AS {asn: 2497}) DELETE ghost",
        Write("MATCH (a:AS {asn: 2497}) RETURN count(a)"),
    ),
    (
        "OPTIONAL MATCH (a:AS {asn: -1}) DETACH DELETE a RETURN a",
        Write("MATCH (a:AS) RETURN count(a)"),
    ),
    // -- Writes interleaved with errors ------------------------------------
    (
        "CREATE (:Tmp {k: 2}) RETURN 1 AS one CREATE (:Tmp {k: 3})",
        Write("MATCH (t:Tmp) RETURN t.k ORDER BY t.k"),
    ),
    (
        "CREATE (:Tmp {k: 4}) WITH 1 AS x WHERE count(x) > 0 RETURN x",
        Write("MATCH (t:Tmp) RETURN t.k"),
    ),
    (
        "CREATE (:Tmp {k: 5}) RETURN *",
        Write("MATCH (t:Tmp) RETURN t.k"),
    ),
    (
        "UNWIND [1, 0] AS z CREATE (:Tmp {q: 10 / z})",
        Write("MATCH (t:Tmp) RETURN t.q"),
    ),
    (
        "CREATE (:Tmp {k: 6}) UNION CREATE (:Tmp {k: 7})",
        Write("MATCH (t:Tmp) RETURN t.k ORDER BY t.k"),
    ),
    (
        "CREATE (:Tmp {k: 8}) RETURN 1 AS x UNION RETURN 2 AS x, 3 AS y",
        Write("MATCH (t:Tmp) RETURN t.k"),
    ),
    // -- Writes in read-only execution -------------------------------------
    ("CREATE (:Tmp)", Read),
    ("MERGE (a:AS {asn: 2497}) RETURN a.name", Read),
    ("MATCH (a:AS {asn: 2497}) SET a.name = 'x' RETURN a.name", Read),
    ("MATCH (a:AS {asn: -1}) SET a.name = 'x' RETURN count(*)", Read),
    ("OPTIONAL MATCH (a:AS {asn: -1}) SET a.name = 'x' RETURN a", Read),
    ("MATCH (a:AS {asn: -1}) DELETE a", Read),
    ("MATCH (a:AS {asn: 2497}) REMOVE a.name", Read),
    ("RETURN 1 AS x UNION CREATE (:Tmp)", Read),
    ("UNWIND [1, 0] AS z WITH 10 / z AS q CREATE (:Tmp {q: q})", Read),
    // -- exists(pattern) ---------------------------------------------------
    (
        "MATCH (a:AS) WHERE exists((a)-[:PEERS_WITH]->(:AS)) RETURN count(a)",
        Read,
    ),
    (
        "MATCH (a:AS) WHERE NOT exists((a)-[:DEPENDS_ON]->()) RETURN count(a)",
        Read,
    ),
    (
        "MATCH (a:AS) WHERE a.asn < 3000 AND NOT exists((a)<-[:DEPENDS_ON]-(:AS)) RETURN a.asn ORDER BY a.asn",
        Read,
    ),
    (
        "MATCH (c:Country) RETURN c.country_code, exists((:AS)-[:COUNTRY]->(c)) AS e ORDER BY c.country_code",
        Read,
    ),
    (
        "MATCH (c:Country {country_code: 'JP'}) RETURN exists((x:AS {asn: 2497})-[:COUNTRY]->(c)) AS e",
        Read,
    ),
    (
        "MATCH (p:Prefix) WITH p ORDER BY p.prefix LIMIT 5 RETURN p.prefix, exists((:AS)-[:ORIGINATE]->(p)) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((a)-[:PEERS_WITH]-(:AS)-[:COUNTRY]->(:Country {country_code: 'US'})) AS e",
        Read,
    ),
    (
        "MATCH (c:Country {country_code: 'US'}) RETURN exists((:AS {asn: 2497})-[:PEERS_WITH]-(:AS)-[:COUNTRY]->(c)) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}), (b:AS {asn: 15169}) RETURN exists((a)-[:PEERS_WITH]-(b)) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}), (b:AS {asn: 15169}) RETURN exists((a)-[:PEERS_WITH]-(:AS)-[:PEERS_WITH]-(b)) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((x)-[:PEERS_WITH]->(y)) AS e",
        Read,
    ),
    ("RETURN exists((x)-[:PEERS_WITH]->()) AS e", Read),
    (
        "MATCH (a:AS) RETURN count(a) AS n, exists((a)-[:PEERS_WITH]-()) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((a)-[:PEERS_WITH*1..2]->()) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((a)-[:NO_SUCH_TYPE]->()-[:PEERS_WITH*1..2]->()) AS e",
        Read,
    ),
    (
        "MATCH (a:AS) WHERE a.asn IN [2497, 15169] RETURN a.asn, exists((a)-[:RANK {rank: 1}]->()) AS top, exists((a)-[:POPULATION]->(:Country {country_code: 'JP'})) AS jp ORDER BY a.asn",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((a)-[:COUNTRY]->(:Country {country_code: a.name})) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((a:Country)-[:COUNTRY]->()) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN [x IN [1, 2] WHERE exists((a)-[:COUNTRY]->()) | x * 10] AS xs",
        Read,
    ),
    ("WITH 1 AS a RETURN exists((a)-[:R]->()) AS e", Read),
    (
        "OPTIONAL MATCH (a:AS {asn: -1}) RETURN exists((a)-[:PEERS_WITH]-()) AS e",
        Read,
    ),
    (
        "OPTIONAL MATCH (a:AS {asn: -1}) MATCH (c:Country {country_code: 'JP'}) RETURN exists((a)-[:COUNTRY]->(c)) AS e",
        Read,
    ),
    (
        "MATCH (a:AS) WITH a WHERE exists((a)-[:ORIGINATE]->()) RETURN count(a)",
        Read,
    ),
    (
        "MATCH (a:AS) WHERE a.asn < 3000 RETURN a.asn ORDER BY exists((a)-[:DEPENDS_ON]->()), a.asn LIMIT 6",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((a)) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b) WHERE exists((b)-[:PEERS_WITH]-(a)) RETURN count(b)",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN exists((a)-[:PEERS_WITH]-({asn: 1 / 0})) AS e",
        Read,
    ),
    (
        "MATCH (a:AS {asn: 2497}) RETURN CASE WHEN exists((a)-[:COUNTRY]->()) THEN 'yes' ELSE 'no' END AS e",
        Read,
    ),
    // -- Plan errors -------------------------------------------------------
    (
        "MATCH (a:AS) WITH a.asn AS asn WHERE count(a) > 1 RETURN asn",
        Read,
    ),
    (
        "MATCH (a:AS) WITH a.asn AS asn, count(*) AS n WHERE n > 1 RETURN asn",
        Read,
    ),
    (
        "UNWIND [0] AS z WITH 1 / z AS y WHERE count(z) > 0 RETURN y",
        Read,
    ),
    (
        "UNWIND [] AS z WITH z AS y WHERE count(z) > 0 RETURN y",
        Read,
    ),
    ("RETURN *", Read),
    ("MATCH () RETURN *", Read),
    ("UNWIND [1, 0] AS z WITH 1 / z AS q MATCH () WITH * RETURN 1", Read),
    ("UNWIND [1] AS x WITH * RETURN *", Read),
    ("RETURN 1 AS x WITH x RETURN x", Read),
    ("MATCH (a:AS {asn: 2497}) RETURN a.name MATCH (b:AS) RETURN b", Read),
    ("UNWIND [1, 0] AS z RETURN 1 / z AS q RETURN q", Read),
    ("MATCH (a:AS) WHERE count(a) > 1 RETURN a", Read),
    ("RETURN 1 AS x UNION RETURN 2 AS x, 3 AS y", Read),
    ("RETURN 1 AS x UNION ALL RETURN 1 AS x", Read),
    ("RETURN 1 AS x UNION", Read),
    ("RETURN 1 / 0 AS x UNION RETURN 1 AS x, 2 AS y", Read),
];

/// A small hand-built graph sharing the dataset's labels, relationship
/// types and a few of its well-known ASNs.
fn small_graph() -> Graph {
    let mut g = Graph::new();
    let jp = g.add_node(
        ["Country"],
        props!("country_code" => "JP", "name" => "Japan"),
    );
    let us = g.add_node(
        ["Country"],
        props!("country_code" => "US", "name" => "United States"),
    );
    g.add_node(
        ["Country"],
        props!("country_code" => "FR", "name" => "France"),
    );
    let ranking = g.add_node(["Ranking"], props!("name" => "CAIDA ASRank"));
    let mut ases = Vec::new();
    for (asn, name, country) in [
        (2497i64, "IIJ", jp),
        (15169, "Google", us),
        (7018, "AT&T", us),
        (2914, "NTT", jp),
        (64500, "Stub", us),
    ] {
        let a = g.add_node(["AS"], props!("asn" => asn, "name" => name));
        g.add_rel(a, "COUNTRY", country, Props::new()).unwrap();
        ases.push(a);
    }
    for (x, y) in [(0, 1), (0, 3), (1, 2), (2, 3)] {
        g.add_rel(ases[x], "PEERS_WITH", ases[y], Props::new())
            .unwrap();
    }
    for (x, y) in [(4, 2), (0, 3)] {
        g.add_rel(ases[x], "DEPENDS_ON", ases[y], Props::new())
            .unwrap();
    }
    for (rank, i) in [2usize, 1, 3, 0, 4].into_iter().enumerate() {
        g.add_rel(
            ases[i],
            "RANK",
            ranking,
            props!("rank" => (rank + 1) as i64),
        )
        .unwrap();
    }
    g.add_rel(ases[0], "POPULATION", jp, props!("percent" => 12.5))
        .unwrap();
    for (i, prefix) in ["192.0.2.0/24", "198.51.100.0/24", "203.0.113.0/24"]
        .into_iter()
        .enumerate()
    {
        let p = g.add_node(["Prefix"], props!("prefix" => prefix, "af" => 4i64));
        g.add_rel(ases[i], "ORIGINATE", p, Props::new()).unwrap();
    }
    g.add_node(
        ["Prefix"],
        props!("prefix" => "2001:db8::/32", "af" => 6i64),
    );
    g.add_node(["Tag"], props!("label" => "Transit"));
    g.create_index("AS", "asn");
    g.create_index("Country", "country_code");
    g
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("default", generate(&IypConfig::default()).graph),
        ("small", small_graph()),
    ]
}

fn outcome<E: std::fmt::Display>(r: Result<iyp_cypher::QueryResult, E>) -> String {
    match r {
        Ok(r) => format!("ok: {}", serde_json::to_string(&r).expect("serialize")),
        Err(e) => format!("err: {e}"),
    }
}

/// Runs one shape on `g` and renders everything the golden pins.
fn record(g: &Graph, src: &str, mode: &Mode) -> Vec<(String, serde_json::Value)> {
    let params = Params::new();
    let mut out = vec![(
        "explain".to_string(),
        serde_json::to_value(&explain(g, src).unwrap_or_else(|e| format!("err: {e}"))),
    )];
    let q = match parse(src) {
        Ok(q) => q,
        Err(e) => {
            out.push(("outcome".into(), serde_json::to_value(&format!("err: {e}"))));
            return out;
        }
    };
    match mode {
        Read => out.push((
            "outcome".into(),
            serde_json::to_value(&outcome(execute_read(g, &q, &params))),
        )),
        Write(probe) => {
            let mut after = g.clone();
            let result = outcome(execute(&mut after, &q, &params));
            let probe = outcome(iyp_cypher::query(&after, probe));
            out.push(("outcome".into(), serde_json::to_value(&result)));
            out.push(("probe".into(), serde_json::to_value(&probe)));
            out.push((
                "counts".into(),
                serde_json::to_value(&format!(
                    "{} nodes, {} rels",
                    after.node_count(),
                    after.rel_count()
                )),
            ));
        }
    }
    out
}

fn goldens_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("fallback_shapes.json")
}

#[test]
fn fallback_shapes_match_recorded_goldens() {
    let text = std::fs::read_to_string(goldens_path())
        .expect("goldens missing; run the ignored regenerate_fallback_goldens test first");
    let recorded: serde_json::Value = serde_json::from_str(&text).expect("parse goldens");
    let entries = recorded.as_array().expect("goldens must be an array");
    let graphs = graphs();
    assert_eq!(
        entries.len(),
        SHAPES.len() * graphs.len(),
        "shape list changed; re-record"
    );
    let mut mismatches = Vec::new();
    let mut entries = entries.iter();
    for (name, g) in &graphs {
        for (src, mode) in SHAPES {
            let entry = entries.next().expect("counted above");
            assert_eq!(entry["graph"].as_str(), Some(*name), "golden order changed");
            assert_eq!(entry["query"].as_str(), Some(*src), "golden order changed");
            for (field, actual) in record(g, src, mode) {
                let want = entry[field.as_str()].as_str().expect("golden field");
                let got = actual.as_str().expect("string field");
                if want != got {
                    mismatches.push(format!(
                        "[{name}] {src}\n  {field} golden: {want}\n  {field} actual: {got}"
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} fallback-shape fields diverged from the goldens:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Records the current executor's behaviour on every shape.
#[test]
#[ignore = "writes the golden file; run explicitly to re-record"]
fn regenerate_fallback_goldens() {
    let mut entries = Vec::new();
    for (name, g) in graphs() {
        for (src, mode) in SHAPES {
            let mut fields = vec![
                ("graph".to_string(), serde_json::to_value(&name)),
                ("query".to_string(), serde_json::to_value(src)),
            ];
            fields.extend(record(&g, src, mode));
            entries.push(serde_json::Value::Map(fields));
        }
    }
    let text = serde_json::to_string_pretty(&serde_json::Value::Seq(entries)).unwrap() + "\n";
    std::fs::write(goldens_path(), text).unwrap();
}
