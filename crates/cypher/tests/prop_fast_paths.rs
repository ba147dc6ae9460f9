//! Differential tests for the executor's work-skipping paths, over small
//! random graphs. Each fast path is checked against the same engine run
//! on a query (or graph) that cannot take it:
//!
//! * an ordered index walk that stops at `SKIP + LIMIT` returns exactly
//!   the rows of the same query without `SKIP`/`LIMIT`, sliced; and it is
//!   planned only when the index holds every label member under keys that
//!   order like their values (otherwise `EXPLAIN` shows the label scan);
//! * `count(x)` of an entity equals `count(*)` over the rows where `x` is
//!   not null, with and without `DISTINCT`;
//! * an index seek keyed by a bound value returns the rows of the same
//!   seek keyed by a literal, and of a label scan on an unindexed graph.

use iyp_cypher::{
    explain, profile_with_limits, query, query_with, ExecLimits, Params, QueryResult,
};
use iyp_graphdb::{Graph, Props, Value};
use proptest::prelude::*;

/// The key class a random graph draws its `k` values from.
#[derive(Debug, Clone, Copy)]
enum Keys {
    Int,
    Str,
    /// Integers, whole and fractional floats, strings and integers past
    /// 2^53.
    Mixed,
}

const WORDS: [&str; 6] = ["", "a", "ab", "b", "B", "\u{e4}"];

/// One `N` node: whether it has `k`, and the draw its `k` comes from.
type NodeSpec = (bool, u8, i64);

fn key_value(keys: Keys, class: u8, n: i64) -> Value {
    let word = || Value::from(WORDS[n.rem_euclid(WORDS.len() as i64) as usize]);
    match (keys, class % 5) {
        (Keys::Int, _) => Value::Int(n),
        (Keys::Str, _) => word(),
        (Keys::Mixed, 0) => Value::Int(n),
        (Keys::Mixed, 1) => Value::Float(n as f64 + 0.5),
        (Keys::Mixed, 2) => word(),
        // A whole float keys as an integer and compares like one.
        (Keys::Mixed, 3) => Value::Float(n as f64),
        (Keys::Mixed, _) => Value::Int((1 << 53) + n),
    }
}

/// `N` nodes with a unique `v` (their position) and, when drawn, a `k`,
/// interleaved with unlabelled-by-`N` `M` nodes; `R` edges from `N` nodes
/// to the node `hops` positions on; an index on `(N, k)` when `indexed`.
fn graph(keys: Keys, nodes: &[NodeSpec], hops: &[usize], indexed: bool) -> Graph {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for (v, &(has_key, class, n)) in nodes.iter().enumerate() {
        let mut p = Props::new();
        p.set("v", v as i64);
        if has_key {
            p.set("k", key_value(keys, class, n));
        }
        ids.push(g.add_node(["N"], p));
        if v % 3 == 0 {
            g.add_node(["M"], iyp_graphdb::props!("k" => v as i64));
        }
    }
    for (i, &h) in hops.iter().enumerate() {
        if !ids.is_empty() {
            let (s, d) = (ids[i % ids.len()], ids[(i + h) % ids.len()]);
            g.add_rel(s, "R", d, Props::new()).unwrap();
        }
    }
    if indexed {
        g.create_index("N", "k");
    }
    g
}

/// Would a walk of the `(N, k)` index visit every `N` node in `ORDER BY
/// n.k` order? Computed from the drawn values, not from the index.
fn walkable(keys: Keys, nodes: &[NodeSpec]) -> bool {
    if nodes.iter().any(|(has_key, _, _)| !has_key) {
        return false;
    }
    let vals: Vec<Value> = nodes
        .iter()
        .map(|&(_, class, n)| key_value(keys, class, n))
        .collect();
    let exact_int = |v: &Value| match v {
        Value::Int(i) => i.unsigned_abs() <= 1 << 53,
        Value::Float(f) => f.fract() == 0.0 && f.abs() <= (1u64 << 53) as f64,
        _ => false,
    };
    vals.iter().all(exact_int) || vals.iter().all(|v| matches!(v, Value::Str(_)))
}

fn keys_strategy() -> impl Strategy<Value = Keys> {
    prop_oneof![Just(Keys::Int), Just(Keys::Str), Just(Keys::Mixed)]
}

/// Mostly keyed nodes, so many graphs qualify for the walk.
fn nodes_strategy() -> impl Strategy<Value = Vec<NodeSpec>> {
    proptest::collection::vec(
        (0u8..12, 0u8..5, -3i64..6).prop_map(|(miss, class, n)| (miss != 0, class, n)),
        0..24,
    )
}

fn slice(r: &QueryResult, skip: usize, limit: usize) -> Vec<Vec<Value>> {
    r.rows.iter().skip(skip).take(limit).cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn ordered_walk_returns_the_sorted_slice(
        keys in keys_strategy(),
        nodes in nodes_strategy(),
        desc in any::<bool>(),
        skip in 0usize..6,
        limit in 0usize..8,
        floor in -1i64..12,
    ) {
        let g = graph(keys, &nodes, &[], true);
        let dir = if desc { "DESC" } else { "ASC" };
        let page = format!("SKIP {skip} LIMIT {limit}");
        let shapes = [
            (
                format!("MATCH (a:N) RETURN a.k, a.v ORDER BY a.k {dir}"),
                "",
            ),
            (
                format!("MATCH (a:N) WHERE a.v >= {floor} RETURN a.v AS v, a.k AS key ORDER BY key {dir}"),
                "",
            ),
            (
                format!("MATCH (a:N) WITH a AS b ORDER BY b.k {dir}"),
                " RETURN b.v, b.k",
            ),
        ];
        for (head, tail) in &shapes {
            let full = query(&g, &format!("{head}{tail}")).unwrap();
            let paged_src = format!("{head} {page}{tail}");
            let paged = query(&g, &paged_src).unwrap();
            prop_assert_eq!(&paged.rows, &slice(&full, skip, limit), "{}", paged_src);
            let plan = explain(&g, &paged_src).unwrap();
            prop_assert_eq!(
                plan.contains("OrderedIndex(:N.k"),
                walkable(keys, &nodes),
                "{}\n{}",
                paged_src,
                plan
            );
        }
        // A parameter LIMIT walks the same way.
        let mut params = Params::new();
        params.insert("n".into(), Value::Int(limit as i64));
        let src = format!("MATCH (a:N) RETURN a.k, a.v ORDER BY a.k {dir} SKIP {skip} LIMIT $n");
        let full = query(&g, &format!("MATCH (a:N) RETURN a.k, a.v ORDER BY a.k {dir}")).unwrap();
        prop_assert_eq!(query_with(&g, &src, &params).unwrap().rows, slice(&full, skip, limit));
        // The walk costs one db hit plus one per id it takes.
        if walkable(keys, &nodes) {
            let src = format!("MATCH (a:N) RETURN a.v ORDER BY a.k {dir} {page}");
            let (_, prof) = profile_with_limits(&g, &src, &Params::new(), ExecLimits::none()).unwrap();
            prop_assert_eq!(prof.total_db_hits(), 1 + (skip + limit).min(nodes.len()) as u64);
        }
    }

    #[test]
    fn count_of_an_entity_counts_its_non_null_rows(
        nodes in nodes_strategy(),
        hops in proptest::collection::vec(0usize..5, 0..30),
    ) {
        let g = graph(Keys::Int, &nodes, &hops, true);
        let optional = "MATCH (a:N) OPTIONAL MATCH (a)-[r:R]->(b)";
        let counted = query(
            &g,
            &format!("{optional} RETURN count(b), count(DISTINCT b), count(r), count(a)"),
        )
        .unwrap();
        let star = |tail: &str| -> Value {
            let r = query(&g, &format!("{optional} {tail} RETURN count(*)")).unwrap();
            r.rows[0][0].clone()
        };
        prop_assert_eq!(
            counted.rows,
            vec![vec![
                star("WITH b WHERE b IS NOT NULL"),
                star("WITH DISTINCT b WHERE b IS NOT NULL"),
                star("WITH r WHERE r IS NOT NULL"),
                star(""),
            ]]
        );
        // Grouped: per `a`, identity counts match the non-null rows (`v`
        // is unique per node, so distinct `b.v`s are distinct `b`s).
        let grouped = query(
            &g,
            &format!("{optional} RETURN a.v, count(b), count(DISTINCT b) ORDER BY a.v"),
        )
        .unwrap();
        let by_value = query(
            &g,
            &format!(
                "{optional} WITH a, b, CASE WHEN b IS NULL THEN 0 ELSE 1 END AS one \
                 RETURN a.v, sum(one), size(collect(DISTINCT b.v)) ORDER BY a.v"
            ),
        )
        .unwrap();
        prop_assert_eq!(grouped.rows, by_value.rows);
    }

    #[test]
    fn bound_value_seek_matches_literal_seek_and_scan(
        keys in keys_strategy(),
        nodes in nodes_strategy(),
        class in 0u8..5,
        // Non-negative: `-3` parses as a negation, which no seek keys on.
        n in 0i64..6,
    ) {
        let indexed = graph(keys, &nodes, &[], true);
        let scanned = graph(keys, &nodes, &[], false);
        let lit = key_value(keys, class, n);
        let lit_text = match &lit {
            Value::Str(s) => format!("'{s}'"),
            Value::Float(f) => format!("{f:?}"),
            other => other.to_string(),
        };
        let tail = "RETURN a.v ORDER BY a.v";
        let literal = format!("MATCH (a:N {{k: {lit_text}}}) {tail}");
        let want = query(&indexed, &literal).unwrap();
        prop_assert!(explain(&indexed, &literal).unwrap().contains("IndexSeek(:N.k ="));
        prop_assert_eq!(&query(&scanned, &literal).unwrap().rows, &want.rows);
        for bound in [
            format!("UNWIND [{lit_text}] AS x MATCH (a:N {{k: x}}) {tail}"),
            format!("WITH {lit_text} AS x MATCH (a:N) WHERE a.k = x {tail}"),
            format!("WITH {{k: {lit_text}}} AS m MATCH (a:N {{k: m.k}}) {tail}"),
        ] {
            prop_assert!(
                explain(&indexed, &bound).unwrap().contains("IndexSeek(:N.k ="),
                "{}",
                bound
            );
            prop_assert_eq!(&query(&indexed, &bound).unwrap().rows, &want.rows, "{}", bound);
            prop_assert_eq!(&query(&scanned, &bound).unwrap().rows, &want.rows, "{}", bound);
        }
    }
}

/// The planner never keys a seek on a variable of the part it is
/// planning: there is nothing to evaluate it against yet.
#[test]
fn seek_never_keys_on_a_variable_of_its_own_part() {
    let g = graph(Keys::Int, &[(true, 0, 1), (true, 0, 2)], &[], true);
    let plan = explain(&g, "MATCH (a:N) WHERE a.k = a.v RETURN a").unwrap();
    assert!(plan.contains("LabelScan(:N"), "{plan}");
    let plan = explain(&g, "MATCH (a:N)-[:R]->(b:N {k: a.v}) RETURN b").unwrap();
    assert!(plan.contains("LabelScan(:N"), "{plan}");
    // An earlier part's variable is bound by then.
    let plan = explain(&g, "MATCH (a:M), (b:N {k: a.k}) RETURN b").unwrap();
    assert!(plan.contains("part 1: IndexSeek(:N.k = a.k)"), "{plan}");
}
