//! `EXPLAIN`-style plan introspection: compiles the query and renders each
//! operator's plan — for match operators, the access path the planner
//! chose (index seek, range seek, label scan, full scan, bound-variable
//! anchor) and the expansion order — without executing anything. `PROFILE`
//! prints the same per-operator plan text.

use crate::compile::{compile, CExpr, CMatch, COrder, CompiledOp};
use crate::error::CypherError;
use crate::parser::parse_statement;
use crate::plan::{self, Anchor};
use crate::pretty;
use iyp_graphdb::Graph;
use std::fmt::Write;

/// Parses `src` and renders its execution plan against `graph`. A
/// leading `EXPLAIN` (or `PROFILE`) keyword is accepted and ignored —
/// this function always renders the plan without executing.
pub fn explain(graph: &Graph, src: &str) -> Result<String, CypherError> {
    let (_mode, q) = parse_statement(src)?;
    let mut out = String::new();
    let mut bound: Vec<String> = Vec::new();
    let mut idx = 0;
    for (i, ops) in compile(&q).segments.iter().enumerate() {
        if i > 0 {
            writeln!(out, "{idx:>2}. UNION").expect("write to string");
            idx += 1;
        }
        for op in ops {
            op.explain_into(graph, &mut bound, idx, &mut out);
            idx += 1;
        }
    }
    Ok(out)
}

impl CompiledOp {
    /// Renders this operator's plan lines, numbered `idx`. `bound`
    /// accumulates the variables match operators bind, so later operators
    /// can show bound-variable anchors.
    pub(crate) fn explain_into(
        &self,
        graph: &Graph,
        bound: &mut Vec<String>,
        idx: usize,
        out: &mut String,
    ) {
        // Other clauses print their leading keyword (`DETACH` for
        // `DETACH DELETE`).
        let keyword = match self {
            CompiledOp::Match(m) => return explain_match(graph, m, self.name(), bound, idx, out),
            // Later seeks may key on the unwound or projected variables.
            CompiledOp::Unwind(u) => {
                if !bound.contains(&u.var) {
                    bound.push(u.var.clone());
                }
                "UNWIND"
            }
            CompiledOp::Project(p) => {
                bound.clone_from(&p.out_names);
                "WITH"
            }
            CompiledOp::Return(_) => "RETURN",
            CompiledOp::Create(_) => "CREATE",
            CompiledOp::Merge(_) => "MERGE",
            CompiledOp::Set(_) => "SET",
            CompiledOp::Delete(d) if d.detach => "DETACH",
            CompiledOp::Delete(_) => "DELETE",
        };
        writeln!(out, "{idx:>2}. {keyword}").expect("write to string");
    }
}

fn explain_match(
    graph: &Graph,
    cm: &CMatch,
    name: &str,
    bound: &mut Vec<String>,
    idx: usize,
    out: &mut String,
) {
    writeln!(out, "{idx:>2}. {name}").expect("write to string");
    let m = &cm.clause;
    let plans = plan::plan_match(graph, m, bound, cm.order.as_ref().map(|o| &o.by));
    for (j, plan) in plans.iter().enumerate() {
        let anchor = match &plan.anchor {
            Anchor::Bound(v) => format!("BoundVariable({v})"),
            Anchor::IndexSeek { label, key, expr } => format!(
                "IndexSeek(:{label}.{key} = {})",
                pretty::expr_to_string(expr)
            ),
            Anchor::RangeSeek { label, key, lo, hi } => {
                let mut bounds: Vec<String> = Vec::new();
                if let Some((e, inc)) = lo {
                    bounds.push(format!(
                        "{} {}",
                        if *inc { ">=" } else { ">" },
                        pretty::expr_to_string(e)
                    ));
                }
                if let Some((e, inc)) = hi {
                    bounds.push(format!(
                        "{} {}",
                        if *inc { "<=" } else { "<" },
                        pretty::expr_to_string(e)
                    ));
                }
                format!("RangeSeek(:{label}.{key} {})", bounds.join(" and "))
            }
            Anchor::OrderedIndex {
                label,
                key,
                descending,
            } => format!(
                "OrderedIndex(:{label}.{key} {}, stop after {})",
                if *descending { "DESC" } else { "ASC" },
                cm.order.as_ref().map_or_else(String::new, stop_text)
            ),
            Anchor::LabelScan(label) => {
                format!("LabelScan(:{label}, ~{} nodes)", graph.label_count(label))
            }
            Anchor::AllNodes => {
                format!("AllNodesScan(~{} nodes)", graph.node_count())
            }
        };
        let mut line = format!("      part {j}: {anchor}");
        if plan.reversed {
            line.push_str(" [chain reversed]");
        }
        if plan.shortest {
            line.push_str(" [shortestPath]");
        }
        writeln!(out, "{line}").expect("write to string");
        for (k, (rel, node)) in plan.steps.iter().enumerate() {
            let types = if rel.types.is_empty() {
                "*any*".to_string()
            } else {
                rel.types.join("|")
            };
            let hops = if rel.hops.is_single() {
                String::new()
            } else {
                format!(
                    " x{}..{}",
                    rel.hops.min,
                    rel.hops
                        .max
                        .map(|m| m.to_string())
                        .unwrap_or_else(|| "∞".into())
                )
            };
            let target = node
                .labels
                .first()
                .map(|l| format!(":{l}"))
                .unwrap_or_else(|| "(any)".into());
            writeln!(out, "        expand {k}: -[:{types}{hops}]- -> {target}")
                .expect("write to string");
        }
    }
    if m.where_clause.is_some() {
        writeln!(out, "      filter: WHERE …").expect("write to string");
    }
}

/// `SKIP + LIMIT` as written: their sum when both are integer literals,
/// otherwise e.g. `5 + $n`.
fn stop_text(o: &COrder) -> String {
    let terms: Vec<&CExpr> = o.skip.iter().chain([&o.limit]).collect();
    let ints: Option<Vec<i64>> = terms
        .iter()
        .map(|e| match e {
            CExpr::Const(v) => v.as_int(),
            _ => None,
        })
        .collect();
    if let Some(ints) = ints {
        return ints
            .iter()
            .fold(0i64, |a, b| a.saturating_add(*b))
            .to_string();
    }
    let text: Vec<String> = terms
        .iter()
        .map(|e| match e {
            CExpr::Param(name) => format!("${name}"),
            CExpr::Const(v) => v.to_string(),
            _ => "?".to_string(),
        })
        .collect();
    text.join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_graphdb::props;

    fn g() -> Graph {
        let mut g = Graph::new();
        for asn in 1..=30i64 {
            g.add_node(["AS"], props!("asn" => asn));
        }
        g.add_node(["Country"], props!("country_code" => "JP"));
        g.create_index("AS", "asn");
        g
    }

    #[test]
    fn explain_shows_index_seek() {
        let plan = explain(&g(), "MATCH (a:AS {asn: 7}) RETURN a.asn").unwrap();
        assert!(plan.contains("IndexSeek(:AS.asn = 7)"), "{plan}");
    }

    #[test]
    fn explain_shows_range_seek_and_filter() {
        let plan = explain(&g(), "MATCH (a:AS) WHERE a.asn > 25 RETURN a.asn").unwrap();
        assert!(plan.contains("RangeSeek(:AS.asn > 25)"), "{plan}");
        assert!(plan.contains("filter: WHERE"), "{plan}");
    }

    #[test]
    fn explain_shows_label_scan_and_expansion() {
        let plan = explain(&g(), "MATCH (c:Country)<-[:COUNTRY]-(a:AS) RETURN count(a)").unwrap();
        assert!(plan.contains("LabelScan(:Country"), "{plan}");
        assert!(plan.contains("expand 0: -[:COUNTRY]- -> :AS"), "{plan}");
        assert!(plan.contains("RETURN"), "{plan}");
    }

    #[test]
    fn explain_shows_bound_anchor_on_second_part() {
        let plan = explain(
            &g(),
            "MATCH (a:AS {asn: 1}) MATCH (a)-[:PEERS_WITH]-(b) RETURN b",
        )
        .unwrap();
        assert!(plan.contains("BoundVariable(a)"), "{plan}");
    }

    #[test]
    fn explain_rejects_invalid_queries() {
        assert!(explain(&g(), "MATCH (a RETURN a").is_err());
    }
}
