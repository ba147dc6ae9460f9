//! Property tests for the Cypher engine: pretty-printer round-trips over
//! generated expressions, and executor invariants over random graphs.

use iyp_cypher::ast::{BinOp, Expr, UnOp};
use iyp_cypher::{parse_expression, pretty, query, ExecLimits, Params};
use iyp_graphdb::{Graph, Props, Value};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::OnceLock;

// ----------------------------------------------------------------------
// Expression round-trip: render(parse(render(e))) == render(e)
// ----------------------------------------------------------------------

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<i32>().prop_map(|i| Expr::Lit(Value::Int(i64::from(i)))),
        (-1000i32..1000).prop_map(|i| Expr::Lit(Value::Float(f64::from(i) / 8.0))),
        "[a-z][a-z0-9]{0,6}".prop_map(Expr::Var),
        "[a-z]{1,8}".prop_map(|s| Expr::Lit(Value::Str(s))),
        Just(Expr::Lit(Value::Bool(true))),
        Just(Expr::Lit(Value::Null)),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(3, 24, 4, |inner| {
        let bin_ops = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Eq),
            Just(BinOp::Lt),
            Just(BinOp::And),
            Just(BinOp::Or),
            Just(BinOp::In),
            Just(BinOp::Contains),
        ];
        prop_oneof![
            (bin_ops, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner
                .clone()
                .prop_map(|a| Expr::Un(UnOp::Not, Box::new(Expr::IsNull(Box::new(a), false)))),
            (inner.clone(), "[a-z]{1,6}").prop_map(|(a, k)| Expr::Prop(Box::new(a), k)),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Expr::List),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Case {
                operand: None,
                arms: vec![(Expr::Lit(Value::Bool(true)), a)],
                default: Some(Box::new(b)),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expression_pretty_parse_roundtrip(e in expr_strategy()) {
        let rendered = pretty::expr_to_string(&e);
        let reparsed = parse_expression(&rendered)
            .unwrap_or_else(|err| panic!("render produced unparseable text {rendered:?}: {err}"));
        // Idempotence: rendering the reparsed tree gives the same text.
        prop_assert_eq!(pretty::expr_to_string(&reparsed), rendered);
    }
}

// ----------------------------------------------------------------------
// Differential: expression evaluation vs recorded goldens
// ----------------------------------------------------------------------
//
// The two proptests below compare the executor against goldens recorded
// from the AST interpreter that preceded the single compiled executor
// (`goldens/prop_expressions.json`). Their inputs are fixed: the in-tree
// proptest shim seeds each case from the test name and the case index,
// so the ignored `regenerate_expression_goldens` test replays exactly the
// cases the proptests draw. Renaming either proptest changes its inputs.
//
// To re-record after an intentional semantic change:
// `cargo test -p iyp-cypher --test prop_cypher -- --ignored regenerate_expression_goldens`

const CASES: u32 = 256;
const CLOSED: &str = "compiled_expression_matches_interpreted";
const PER_ROW: &str = "compiled_expression_matches_interpreted_per_row";

/// Runs `src` through the engine, normalizing both results and errors to
/// strings so error parity is checked too (evaluation errors are part of
/// the contract, not just values).
fn run_with(g: &Graph, src: &str, limits: ExecLimits) -> Result<String, String> {
    let q = iyp_cypher::parse(src).map_err(|e| format!("parse: {e}"))?;
    iyp_cypher::execute_read_with_limits(g, &q, &Params::new(), limits)
        .map(|r| serde_json::to_string(&r).expect("serialize"))
        .map_err(|e| e.to_string())
}

/// Rewrites every variable reference to `x` so generated expressions can
/// be evaluated against a row binding instead of erroring as unbound.
fn bind_vars_to_x(e: &Expr) -> Expr {
    match e {
        Expr::Var(_) => Expr::Var("x".into()),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(bind_vars_to_x(a)),
            Box::new(bind_vars_to_x(b)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(bind_vars_to_x(a))),
        Expr::IsNull(a, neg) => Expr::IsNull(Box::new(bind_vars_to_x(a)), *neg),
        Expr::Prop(a, k) => Expr::Prop(Box::new(bind_vars_to_x(a)), k.clone()),
        Expr::List(items) => Expr::List(items.iter().map(bind_vars_to_x).collect()),
        Expr::Case {
            operand,
            arms,
            default,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(bind_vars_to_x(o))),
            arms: arms
                .iter()
                .map(|(c, v)| (bind_vars_to_x(c), bind_vars_to_x(v)))
                .collect(),
            default: default.as_ref().map(|d| Box::new(bind_vars_to_x(d))),
        },
        other => other.clone(),
    }
}

/// The query a closed-expression case runs.
fn closed_query(e: &Expr) -> String {
    format!("RETURN {} AS v", pretty::expr_to_string(e))
}

/// The query a per-row case runs: `e` over an `UNWIND`-bound `x`.
fn per_row_query(e: &Expr, vals: &[i64]) -> String {
    let list = vals
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let rendered = pretty::expr_to_string(&bind_vars_to_x(e));
    format!("UNWIND [{list}] AS x RETURN {rendered} AS v")
}

fn vals_strategy() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-5i64..5, 1..4)
}

fn goldens_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("prop_expressions.json")
}

/// A recorded outcome: the serialized result or the error message.
type Outcome = Result<String, String>;

/// The recorded outcome of `src` in the golden set of proptest `test`.
fn golden(test: &str, src: &str) -> Outcome {
    static GOLDENS: OnceLock<HashMap<String, HashMap<String, Outcome>>> = OnceLock::new();
    let goldens = GOLDENS.get_or_init(|| {
        let text = std::fs::read_to_string(goldens_path())
            .expect("goldens missing; run the ignored regenerate_expression_goldens test");
        let recorded: serde_json::Value = serde_json::from_str(&text).expect("parse goldens");
        [CLOSED, PER_ROW]
            .into_iter()
            .map(|name| {
                let entries = recorded[name].as_array().expect("golden case list");
                assert_eq!(entries.len(), CASES as usize, "{name}: case count changed");
                let cases = entries
                    .iter()
                    .map(|e| {
                        let query = e["query"].as_str().expect("golden query").to_string();
                        let outcome = match e["error"].as_str() {
                            Some(err) => Err(err.to_string()),
                            None => Ok(e["result"].as_str().expect("golden result").to_string()),
                        };
                        (query, outcome)
                    })
                    .collect();
                (name.to_string(), cases)
            })
            .collect()
    });
    goldens[test]
        .get(src)
        .unwrap_or_else(|| panic!("{test}: no golden for {src:?}; re-record the goldens"))
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Random (mostly closed) expressions: identical value or identical
    /// error to the recorded golden. Unbound variables stay unbound so
    /// the unbound-variable error path is part of the contract.
    #[test]
    fn compiled_expression_matches_interpreted(e in expr_strategy()) {
        let src = closed_query(&e);
        prop_assert_eq!(run_with(&Graph::new(), &src, ExecLimits::none()), golden(CLOSED, &src));
    }

    /// Random expressions over a bound row: every variable resolves to a
    /// slot, exercising slot loads, per-row evaluation order, and the
    /// projection pipeline at parallelism 1 and 4.
    #[test]
    fn compiled_expression_matches_interpreted_per_row(
        e in expr_strategy(),
        vals in vals_strategy(),
    ) {
        let g = Graph::new();
        let src = per_row_query(&e, &vals);
        let want = golden(PER_ROW, &src);
        prop_assert_eq!(run_with(&g, &src, ExecLimits::none()), want.clone());
        // Parallelism must not change results or errors either.
        prop_assert_eq!(run_with(&g, &src, ExecLimits::none().with_parallelism(4)), want);
    }
}

/// Records the executor's outcome for every case the two differential
/// proptests draw, replaying the shim's per-case seeding.
#[test]
#[ignore = "writes the golden file; run explicitly to re-record"]
fn regenerate_expression_goldens() {
    let g = Graph::new();
    let mut out = Vec::new();
    for name in [CLOSED, PER_ROW] {
        let cases: Vec<serde_json::Value> = (0..CASES)
            .map(|case| {
                let mut rng = TestRng::from_name_and_case(name, u64::from(case));
                let e = expr_strategy().generate(&mut rng);
                let src = if name == CLOSED {
                    closed_query(&e)
                } else {
                    per_row_query(&e, &vals_strategy().generate(&mut rng))
                };
                match run_with(&g, &src, ExecLimits::none()) {
                    Ok(result) => serde_json::json!({"query": src, "result": result}),
                    Err(error) => serde_json::json!({"query": src, "error": error}),
                }
            })
            .collect();
        out.push((name.to_string(), serde_json::Value::Seq(cases)));
    }
    let text = serde_json::to_string_pretty(&serde_json::Value::Map(out)).unwrap() + "\n";
    std::fs::write(goldens_path(), text).unwrap();
}

// ----------------------------------------------------------------------
// Executor invariants on random graphs
// ----------------------------------------------------------------------

fn random_graph(seedish: &[(u8, i64)], edges: &[(usize, usize)]) -> Graph {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for (label, key) in seedish {
        let mut p = Props::new();
        p.set("key", *key);
        let label = ["A", "B", "C"][*label as usize % 3];
        ids.push(g.add_node([label], p));
    }
    for (s, d) in edges {
        if !ids.is_empty() {
            let s = ids[s % ids.len()];
            let d = ids[d % ids.len()];
            g.add_rel(s, "R", d, Props::new()).unwrap();
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn limit_caps_rows(
        nodes in proptest::collection::vec((0u8..3, -50i64..50), 0..40),
        limit in 0usize..20,
    ) {
        let g = random_graph(&nodes, &[]);
        let r = query(&g, &format!("MATCH (n) RETURN n.key LIMIT {limit}")).unwrap();
        prop_assert!(r.rows.len() <= limit);
        prop_assert!(r.rows.len() <= g.node_count());
    }

    #[test]
    fn count_star_equals_node_count(
        nodes in proptest::collection::vec((0u8..3, -50i64..50), 0..40),
    ) {
        let g = random_graph(&nodes, &[]);
        let r = query(&g, "MATCH (n) RETURN count(*)").unwrap();
        prop_assert_eq!(r.single_value(), Some(&Value::Int(g.node_count() as i64)));
    }

    #[test]
    fn distinct_never_increases_and_dedups(
        nodes in proptest::collection::vec((0u8..3, -5i64..5), 0..40),
    ) {
        let g = random_graph(&nodes, &[]);
        let all = query(&g, "MATCH (n) RETURN n.key").unwrap();
        let distinct = query(&g, "MATCH (n) RETURN DISTINCT n.key").unwrap();
        prop_assert!(distinct.rows.len() <= all.rows.len());
        // Re-applying DISTINCT is a fixpoint.
        let mut seen = std::collections::HashSet::new();
        for row in &distinct.rows {
            prop_assert!(seen.insert(format!("{:?}", row)), "duplicate after DISTINCT");
        }
    }

    #[test]
    fn order_by_sorts(
        nodes in proptest::collection::vec((0u8..3, -50i64..50), 0..40),
    ) {
        let g = random_graph(&nodes, &[]);
        let r = query(&g, "MATCH (n) RETURN n.key ORDER BY n.key").unwrap();
        let keys: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        prop_assert_eq!(keys, sorted);
        // DESC is the exact reverse ordering.
        let rd = query(&g, "MATCH (n) RETURN n.key ORDER BY n.key DESC").unwrap();
        let keys_desc: Vec<i64> = rd.rows.iter().filter_map(|row| row[0].as_int()).collect();
        let mut rev = keys_desc.clone();
        rev.sort();
        let mut expect: Vec<i64> = rev;
        expect.reverse();
        prop_assert_eq!(keys_desc, expect);
    }

    #[test]
    fn where_partition_is_exhaustive(
        nodes in proptest::collection::vec((0u8..3, -50i64..50), 0..40),
        pivot in -50i64..50,
    ) {
        let g = random_graph(&nodes, &[]);
        let total = query(&g, "MATCH (n) RETURN count(*)").unwrap();
        let lo = query(&g, &format!("MATCH (n) WHERE n.key < {pivot} RETURN count(*)")).unwrap();
        let hi = query(&g, &format!("MATCH (n) WHERE n.key >= {pivot} RETURN count(*)")).unwrap();
        let t = total.single_value().unwrap().as_int().unwrap();
        let l = lo.single_value().unwrap().as_int().unwrap();
        let h = hi.single_value().unwrap().as_int().unwrap();
        prop_assert_eq!(t, l + h, "WHERE partition lost rows");
    }

    #[test]
    fn expand_matches_adjacency(
        nodes in proptest::collection::vec((0u8..3, -50i64..50), 1..25),
        edges in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..60),
    ) {
        let g = random_graph(&nodes, &edges);
        let r = query(&g, "MATCH (a)-[r:R]->(b) RETURN count(r)").unwrap();
        prop_assert_eq!(
            r.single_value(),
            Some(&Value::Int(g.rel_count() as i64))
        );
        // Undirected traversal sees each edge from both sides except
        // self-loops, which appear once per side but bind distinct rows.
        let undirected = query(&g, "MATCH (a)-[r:R]-(b) RETURN count(r)").unwrap();
        let u = undirected.single_value().unwrap().as_int().unwrap();
        prop_assert!(u >= g.rel_count() as i64);
        prop_assert!(u <= 2 * g.rel_count() as i64);
    }

    #[test]
    fn aggregate_sum_matches_manual(
        nodes in proptest::collection::vec((0u8..3, -50i64..50), 0..40),
    ) {
        let g = random_graph(&nodes, &[]);
        let manual: i64 = g
            .all_nodes()
            .filter_map(|id| g.node(id).unwrap().props.get("key").and_then(Value::as_int))
            .sum();
        let r = query(&g, "MATCH (n) RETURN sum(n.key)").unwrap();
        prop_assert_eq!(r.single_value(), Some(&Value::Int(manual)));
    }

    #[test]
    fn skip_plus_limit_tile_the_results(
        nodes in proptest::collection::vec((0u8..3, -50i64..50), 0..30),
        chunk in 1usize..7,
    ) {
        let g = random_graph(&nodes, &[]);
        let all = query(&g, "MATCH (n) RETURN n.key ORDER BY n.key, id(n)").unwrap();
        let mut tiled = Vec::new();
        let mut skip = 0;
        loop {
            let page = query(
                &g,
                &format!("MATCH (n) RETURN n.key ORDER BY n.key, id(n) SKIP {skip} LIMIT {chunk}"),
            )
            .unwrap();
            if page.rows.is_empty() {
                break;
            }
            tiled.extend(page.rows);
            skip += chunk;
        }
        prop_assert_eq!(tiled, all.rows);
    }
}
