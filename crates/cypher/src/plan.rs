//! Pattern planning: choosing where to start matching a pattern chain and
//! in which order to expand it.
//!
//! The planner scores the two ends of each linear pattern chain and anchors
//! at the cheaper one: a variable that is already bound beats an indexed
//! property seek, which beats a label scan, which beats a full node scan.
//! If the right end wins, the chain is reversed (flipping every hop's
//! direction) so the executor always expands left to right.
//!
//! A seek's key may be a literal, a parameter, or a variable (or its
//! property) bound before the part being planned. When the compiler
//! proves that a lone `(a:L)` pattern feeds an `ORDER BY a.k … LIMIT`
//! that discards all but a prefix of its rows ([`OrderBy`]), a label scan
//! becomes an [`Anchor::OrderedIndex`] walk, provided the index's key
//! order is the `ORDER BY` order for every member of `L`.

use crate::ast::{Expr, MatchClause, NodePattern, PatternPart, RelDir, RelPattern};
use iyp_graphdb::Graph;

/// How candidate anchor nodes are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Anchor {
    /// The anchor variable is already bound in the incoming rows.
    Bound(String),
    /// Seek `label.key = expr` through a property index.
    IndexSeek {
        /// Indexed label.
        label: String,
        /// Indexed property key.
        key: String,
        /// Equality expression: a literal, a parameter, or a variable
        /// bound before this part (or a property of one), evaluated
        /// against each incoming row.
        expr: Expr,
    },
    /// Range scan `lo <(=) label.key <(=) hi` through an ordered index.
    RangeSeek {
        /// Indexed label.
        label: String,
        /// Indexed property key.
        key: String,
        /// Lower bound `(expr, inclusive)`, if any.
        lo: Option<(Expr, bool)>,
        /// Upper bound `(expr, inclusive)`, if any.
        hi: Option<(Expr, bool)>,
    },
    /// Walk the `(label, key)` index in key order and stop once the
    /// `ORDER BY … LIMIT` that follows has all the rows it keeps (see
    /// [`OrderBy`]). Chosen in place of a label scan only when the index
    /// holds every node of `label` and its key order is the value order
    /// ([`iyp_graphdb::IndexKeyStats::orders_like_values`]).
    OrderedIndex {
        /// Indexed label.
        label: String,
        /// Indexed property key.
        key: String,
        /// Walk from the largest key down.
        descending: bool,
    },
    /// Scan all nodes with a label.
    LabelScan(String),
    /// Scan every node.
    AllNodes,
}

/// The order a `MATCH`'s rows are consumed in, when only a prefix of them
/// survives: the compiler attaches it to a first, lone `(var:L)` pattern
/// whose projection sorts by `var.key` alone and then applies `LIMIT`,
/// with nothing in between that could fail on a row a walk skips.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// The pattern variable.
    pub var: String,
    /// The property the projection sorts by.
    pub key: String,
    /// `ORDER BY … DESC`.
    pub descending: bool,
}

/// An executable plan for one pattern part: the anchor, its node pattern,
/// and the expansion steps in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct PartPlan {
    /// Candidate generation strategy.
    pub anchor: Anchor,
    /// Pattern checks applied to anchor candidates.
    pub anchor_node: NodePattern,
    /// Hops to expand, in order.
    pub steps: Vec<(RelPattern, NodePattern)>,
    /// Path variable, if the part is bound to one.
    pub path_var: Option<String>,
    /// `shortestPath(...)`: keep only the minimal-length path per
    /// distinct endpoint pair.
    pub shortest: bool,
    /// True if the chain was reversed relative to source order (paths are
    /// un-reversed before binding).
    pub reversed: bool,
}

/// Plans every pattern part of a MATCH clause.
///
/// `bound` lists variables bound by earlier clauses/parts; it is extended
/// with the variables each planned part will bind, so later parts can
/// anchor on them. `order`, when given, is how the clause's rows will be
/// consumed (see [`OrderBy`]).
pub fn plan_match(
    graph: &Graph,
    clause: &MatchClause,
    bound: &mut Vec<String>,
    order: Option<&OrderBy>,
) -> Vec<PartPlan> {
    let t0 = std::time::Instant::now();
    let mut plans = plan_match_inner(graph, clause, bound);
    if let (Some(order), [plan]) = (order, plans.as_mut_slice()) {
        order_anchor(graph, plan, order);
    }
    PLAN_NS.with(|c| c.set(c.get().wrapping_add(t0.elapsed().as_nanos() as u64)));
    plans
}

thread_local! {
    static PLAN_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The current thread's monotonic total of nanoseconds spent planning
/// (in [`plan_match`]). Planning happens lazily inside `MATCH` execution,
/// so stage timers measure it by taking a delta around an execute call —
/// the same before/after idiom as [`iyp_graphdb::dbhits::current`].
pub fn plan_time_ns() -> u64 {
    PLAN_NS.with(|c| c.get())
}

fn plan_match_inner(graph: &Graph, clause: &MatchClause, bound: &mut Vec<String>) -> Vec<PartPlan> {
    let eq_preds = clause
        .where_clause
        .as_ref()
        .map(extract_equality_predicates)
        .unwrap_or_default();
    let range_preds = clause
        .where_clause
        .as_ref()
        .map(extract_range_predicates)
        .unwrap_or_default();
    let mut plans = Vec::with_capacity(clause.patterns.len());
    for part in &clause.patterns {
        let plan = plan_part(graph, part, bound, &eq_preds, &range_preds);
        collect_part_vars(part, bound);
        plans.push(plan);
    }
    plans
}

/// Replaces a lone node pattern's label scan with an ordered index walk
/// when the `(label, order.key)` index holds every member of the label
/// under keys that order like their values — otherwise the walk would
/// miss members without the key or visit them in a different order than
/// the projection's sort.
fn order_anchor(graph: &Graph, plan: &mut PartPlan, order: &OrderBy) {
    let Anchor::LabelScan(label) = &plan.anchor else {
        return;
    };
    let lone = plan.steps.is_empty() && plan.path_var.is_none() && !plan.shortest;
    if !lone || plan.anchor_node.var.as_deref() != Some(order.var.as_str()) {
        return;
    }
    let covered = graph
        .index_key_stats(label, &order.key)
        .is_some_and(|s| s.ids == graph.label_count(label) && s.orders_like_values());
    if covered {
        plan.anchor = Anchor::OrderedIndex {
            label: label.clone(),
            key: order.key.clone(),
            descending: order.descending,
        };
    }
}

/// Plans a single pattern part given the currently bound variables.
pub fn plan_part(
    graph: &Graph,
    part: &PatternPart,
    bound: &[String],
    eq_preds: &[(String, String, Expr)],
    range_preds: &[RangePred],
) -> PartPlan {
    let start_score = score_node(graph, &part.start, bound, eq_preds, range_preds);
    let end_node = part.hops.last().map(|(_, n)| n).unwrap_or(&part.start);
    let end_score = score_node(graph, end_node, bound, eq_preds, range_preds);

    // Reverse only when the far end is strictly better and there are hops.
    let reverse = !part.hops.is_empty() && end_score.0 < start_score.0;
    let (anchor_node, steps) = if reverse {
        reverse_chain(part)
    } else {
        (part.start.clone(), part.hops.clone())
    };
    let score = if reverse { end_score } else { start_score };
    PartPlan {
        anchor: score.1,
        anchor_node,
        steps,
        path_var: part.path_var.clone(),
        shortest: part.shortest,
        reversed: reverse,
    }
}

/// Lower score = cheaper anchor.
fn score_node(
    graph: &Graph,
    node: &NodePattern,
    bound: &[String],
    eq_preds: &[(String, String, Expr)],
    range_preds: &[RangePred],
) -> (u64, Anchor) {
    if let Some(var) = &node.var {
        if bound.contains(var) {
            return (0, Anchor::Bound(var.clone()));
        }
    }
    // Indexed equality: inline props or WHERE predicates on this node's var.
    for label in &node.labels {
        for (key, expr) in &node.props {
            if graph.has_index(label, key) && is_seekable(expr, bound) {
                return (
                    1,
                    Anchor::IndexSeek {
                        label: label.clone(),
                        key: key.clone(),
                        expr: expr.clone(),
                    },
                );
            }
        }
        if let Some(var) = &node.var {
            for (pvar, key, expr) in eq_preds {
                if pvar == var && graph.has_index(label, key) && is_seekable(expr, bound) {
                    return (
                        1,
                        Anchor::IndexSeek {
                            label: label.clone(),
                            key: key.clone(),
                            expr: expr.clone(),
                        },
                    );
                }
            }
            // Indexed range: cheaper than a label scan, dearer than an
            // exact seek.
            for rp in range_preds {
                if rp.var == *var && graph.has_index(label, &rp.key) {
                    return (
                        2,
                        Anchor::RangeSeek {
                            label: label.clone(),
                            key: rp.key.clone(),
                            lo: rp.lo.clone(),
                            hi: rp.hi.clone(),
                        },
                    );
                }
            }
        }
    }
    if let Some(label) = node.labels.first() {
        // Prefer the most selective label when several are present.
        let best = node
            .labels
            .iter()
            .min_by_key(|l| graph.label_count(l))
            .unwrap_or(label);
        return (
            2 + graph.label_count(best) as u64,
            Anchor::LabelScan(best.clone()),
        );
    }
    (2 + graph.node_count() as u64 * 4, Anchor::AllNodes)
}

/// An expression a seek can key on: a literal or parameter, or a
/// variable bound before the part (or a property of one), which the
/// anchor evaluates against each incoming row. None of these can fail,
/// and `bound` never holds the part's own variables, which do not exist
/// yet when its anchor runs.
fn is_seekable(expr: &Expr, bound: &[String]) -> bool {
    match expr {
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Var(v) => bound.contains(v),
        Expr::Prop(base, _) => matches!(&**base, Expr::Var(v) if bound.contains(v)),
        _ => false,
    }
}

fn reverse_chain(part: &PatternPart) -> (NodePattern, Vec<(RelPattern, NodePattern)>) {
    // Chain: n0 -r1- n1 -r2- ... -rk- nk  reversed to
    //        nk -rk'- n(k-1) ... -r1'- n0  with each rel direction flipped.
    let mut nodes: Vec<&NodePattern> = Vec::with_capacity(part.hops.len() + 1);
    nodes.push(&part.start);
    let mut rels: Vec<&RelPattern> = Vec::with_capacity(part.hops.len());
    for (r, n) in &part.hops {
        rels.push(r);
        nodes.push(n);
    }
    let anchor = nodes.last().expect("chain has at least one node");
    let mut steps = Vec::with_capacity(rels.len());
    for i in (0..rels.len()).rev() {
        let mut rel = rels[i].clone();
        rel.dir = match rel.dir {
            RelDir::Right => RelDir::Left,
            RelDir::Left => RelDir::Right,
            RelDir::Undirected => RelDir::Undirected,
        };
        steps.push((rel, nodes[i].clone()));
    }
    ((*anchor).clone(), steps)
}

/// A range constraint `lo <(=) var.key <(=) hi` usable by an ordered
/// index. Either bound may be absent.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePred {
    /// Constrained variable.
    pub var: String,
    /// Constrained property key.
    pub key: String,
    /// Lower bound `(expr, inclusive)`.
    pub lo: Option<(Expr, bool)>,
    /// Upper bound `(expr, inclusive)`.
    pub hi: Option<(Expr, bool)>,
}

/// Collects `var.key = <expr>` conjuncts from a WHERE tree; whether a
/// seek can key on `expr` depends on what is bound when each part is
/// planned.
pub fn extract_equality_predicates(expr: &Expr) -> Vec<(String, String, Expr)> {
    let mut out = Vec::new();
    collect_eq(expr, &mut out);
    out
}

/// Collects range conjuncts (`<`, `<=`, `>`, `>=` against seekable
/// expressions), merged per `(var, key)`.
pub fn extract_range_predicates(expr: &Expr) -> Vec<RangePred> {
    let mut out: Vec<RangePred> = Vec::new();
    let mut add =
        |var: String, key: String, lo: Option<(Expr, bool)>, hi: Option<(Expr, bool)>| match out
            .iter_mut()
            .find(|r| r.var == var && r.key == key)
        {
            Some(r) => {
                if r.lo.is_none() {
                    r.lo = lo;
                }
                if r.hi.is_none() {
                    r.hi = hi;
                }
            }
            None => out.push(RangePred { var, key, lo, hi }),
        };
    fn walk(
        expr: &Expr,
        add: &mut impl FnMut(String, String, Option<(Expr, bool)>, Option<(Expr, bool)>),
    ) {
        use crate::ast::BinOp::*;
        match expr {
            Expr::Bin(And, a, b) => {
                walk(a, add);
                walk(b, add);
            }
            Expr::Bin(op @ (Lt | Le | Gt | Ge), a, b) => {
                // `var.key OP bound`
                if let (Expr::Prop(base, key), rhs) = (&**a, &**b) {
                    if let Expr::Var(v) = &**base {
                        if matches!(rhs, Expr::Lit(_) | Expr::Param(_)) {
                            let (lo, hi) = match op {
                                Lt => (None, Some((rhs.clone(), false))),
                                Le => (None, Some((rhs.clone(), true))),
                                Gt => (Some((rhs.clone(), false)), None),
                                Ge => (Some((rhs.clone(), true)), None),
                                _ => unreachable!(),
                            };
                            add(v.clone(), key.clone(), lo, hi);
                        }
                    }
                }
                // `bound OP var.key` (operator flips)
                if let (lhs, Expr::Prop(base, key)) = (&**a, &**b) {
                    if let Expr::Var(v) = &**base {
                        if matches!(lhs, Expr::Lit(_) | Expr::Param(_)) {
                            let (lo, hi) = match op {
                                Lt => (Some((lhs.clone(), false)), None),
                                Le => (Some((lhs.clone(), true)), None),
                                Gt => (None, Some((lhs.clone(), false))),
                                Ge => (None, Some((lhs.clone(), true))),
                                _ => unreachable!(),
                            };
                            add(v.clone(), key.clone(), lo, hi);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    walk(expr, &mut add);
    out
}

fn collect_eq(expr: &Expr, out: &mut Vec<(String, String, Expr)>) {
    use crate::ast::BinOp;
    match expr {
        Expr::Bin(BinOp::And, a, b) => {
            collect_eq(a, out);
            collect_eq(b, out);
        }
        Expr::Bin(BinOp::Eq, a, b) => {
            if let (Expr::Prop(base, key), rhs) = (&**a, &**b) {
                if let Expr::Var(v) = &**base {
                    out.push((v.clone(), key.clone(), rhs.clone()));
                }
            }
            if let (lhs, Expr::Prop(base, key)) = (&**a, &**b) {
                if let Expr::Var(v) = &**base {
                    out.push((v.clone(), key.clone(), lhs.clone()));
                }
            }
        }
        _ => {}
    }
}

/// Appends the variables a pattern part binds (nodes, rels, path).
pub fn collect_part_vars(part: &PatternPart, out: &mut Vec<String>) {
    let mut push = |v: &Option<String>| {
        if let Some(v) = v {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
    };
    push(&part.path_var);
    push(&part.start.var);
    for (rel, node) in &part.hops {
        push(&rel.var);
        push(&node.var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use iyp_graphdb::{props, Props};

    fn graph_with_index() -> Graph {
        let mut g = Graph::new();
        for asn in 1..=50i64 {
            g.add_node(["AS"], props!("asn" => asn));
        }
        g.add_node(["Country"], props!("country_code" => "JP"));
        g.create_index("AS", "asn");
        g
    }

    fn first_match(src: &str) -> MatchClause {
        match parse(src).unwrap().clauses.into_iter().next().unwrap() {
            crate::ast::Clause::Match(m) => m,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_prop_uses_index() {
        let g = graph_with_index();
        let m = first_match("MATCH (a:AS {asn: 7}) RETURN a");
        let mut bound = Vec::new();
        let plans = plan_match(&g, &m, &mut bound, None);
        assert!(matches!(plans[0].anchor, Anchor::IndexSeek { .. }));
        assert_eq!(bound, vec!["a"]);
    }

    #[test]
    fn where_equality_uses_index() {
        let g = graph_with_index();
        let m = first_match("MATCH (a:AS) WHERE a.asn = 7 RETURN a");
        let plans = plan_match(&g, &m, &mut Vec::new(), None);
        assert!(matches!(plans[0].anchor, Anchor::IndexSeek { .. }));
    }

    #[test]
    fn reversal_picks_cheaper_end() {
        let g = graph_with_index();
        // Start node is unlabeled (expensive), end is indexed: reverse.
        let m = first_match("MATCH (x)-[:COUNTRY]->(a:AS {asn: 7}) RETURN x");
        let plans = plan_match(&g, &m, &mut Vec::new(), None);
        assert!(plans[0].reversed);
        assert!(matches!(plans[0].anchor, Anchor::IndexSeek { .. }));
        // The reversed step's direction flips.
        assert_eq!(plans[0].steps[0].0.dir, RelDir::Left);
    }

    #[test]
    fn bound_variable_beats_index() {
        let g = graph_with_index();
        let m = first_match("MATCH (a:AS {asn: 7}) RETURN a");
        let plans = plan_match(&g, &m, &mut vec!["a".to_string()], None);
        assert!(matches!(&plans[0].anchor, Anchor::Bound(v) if v == "a"));
    }

    #[test]
    fn label_scan_fallback() {
        let g = graph_with_index();
        let m = first_match("MATCH (c:Country) RETURN c");
        let plans = plan_match(&g, &m, &mut Vec::new(), None);
        assert!(matches!(&plans[0].anchor, Anchor::LabelScan(l) if l == "Country"));
    }

    #[test]
    fn all_nodes_last_resort() {
        let g = Graph::new();
        let m = first_match("MATCH (n) RETURN n");
        let plans = plan_match(&g, &m, &mut Vec::new(), None);
        assert_eq!(plans[0].anchor, Anchor::AllNodes);
    }

    #[test]
    fn later_part_anchors_on_earlier_binding() {
        let mut g = graph_with_index();
        let c = g.nodes_with_label("Country").next().unwrap();
        let a = g.nodes_with_label("AS").next().unwrap();
        g.add_rel(a, "COUNTRY", c, Props::new()).unwrap();
        let m = first_match("MATCH (a:AS {asn: 1}), (a)-[:COUNTRY]->(c) RETURN c");
        let plans = plan_match(&g, &m, &mut Vec::new(), None);
        assert!(matches!(&plans[1].anchor, Anchor::Bound(v) if v == "a"));
    }
}
