//! The write operators used by the dataset loader and tests: `CREATE`,
//! `MERGE`, `SET` (and `REMOVE`, which desugars to it), `DELETE`. These
//! are the only operators that request mutable graph access from the
//! context; in read-only execution that request fails with a plan error.

use crate::ast::RelDir;
use crate::compile::{CCreate, CCreateNode, CDelete, CExpr, CMerge, CSet, Evaluator};
use crate::error::CypherError;
use crate::eval::{Entry, Env, Params, Row};
use iyp_graphdb::{Direction, Graph, NodeId, Props, RelId, Value};

use super::context::ExecContext;
use super::env_mismatch;

fn eval_props(
    graph: &Graph,
    params: &Params,
    row: &Row,
    props: &[(String, CExpr)],
) -> Result<Props, CypherError> {
    let cev = Evaluator { graph, params };
    let mut out = Props::new();
    for (k, e) in props {
        out.set(k.clone(), cev.eval_c_value(e, row)?);
    }
    Ok(out)
}

impl CCreate {
    pub(crate) fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        if env.names != self.env_before {
            return Err(env_mismatch());
        }
        for v in &self.new_vars {
            env.push(v.clone());
        }
        let width = env.names.len();
        let params = cx.params;
        let graph = cx.graph_mut()?;
        let mut out = Vec::with_capacity(rows.len());
        for mut row in rows {
            row.resize(width, Entry::Val(Value::Null));
            for part in &self.parts {
                let mut cur = create_node_or_reuse(graph, params, &mut row, &part.start)?;
                for (rel, node) in &part.hops {
                    if !rel.single {
                        return Err(CypherError::plan(
                            "CREATE does not allow variable-length relationships",
                        ));
                    }
                    let next = create_node_or_reuse(graph, params, &mut row, node)?;
                    let ty = rel.rel_type.as_ref().ok_or_else(|| {
                        CypherError::plan("CREATE relationships must have a type")
                    })?;
                    let (src, dst) = match rel.dir {
                        RelDir::Right => (cur, next),
                        RelDir::Left => (next, cur),
                        RelDir::Undirected => {
                            return Err(CypherError::plan("CREATE relationships must be directed"))
                        }
                    };
                    let props = eval_props(graph, params, &row, &rel.props)?;
                    let rid = graph.add_rel(src, ty, dst, props)?;
                    if let Some(slot) = rel.slot {
                        row[slot] = Entry::Rel(rid);
                    }
                    cur = next;
                }
            }
            out.push(row);
        }
        Ok(out)
    }
}

fn create_node_or_reuse(
    graph: &mut Graph,
    params: &Params,
    row: &mut Row,
    node: &CCreateNode,
) -> Result<NodeId, CypherError> {
    if let Some((name, slot)) = &node.var {
        if let Entry::Node(id) = &row[*slot] {
            // Reuse a node bound earlier (by MATCH or earlier in CREATE).
            return Ok(*id);
        }
        if node.pre_bound && !row[*slot].is_null() {
            return Err(CypherError::runtime(format!(
                "variable '{name}' is bound to a non-node value"
            )));
        }
    }
    let props = eval_props(graph, params, row, &node.props)?;
    let id = graph.add_node(node.labels.iter().map(String::as_str), props);
    if let Some((_, slot)) = &node.var {
        row[*slot] = Entry::Node(id);
    }
    Ok(id)
}

impl CMerge {
    pub(crate) fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        if env.names != self.env_before {
            return Err(env_mismatch());
        }
        if let Some(v) = &self.new_var {
            env.push(v.clone());
        }
        let width = env.names.len();
        let params = cx.params;
        let graph = cx.graph_mut()?;
        let mut out = Vec::new();
        for mut row in rows {
            row.resize(width, Entry::Val(Value::Null));
            let props = eval_props(graph, params, &row, &self.props)?;
            // Find all nodes carrying every label with exactly-equal listed props.
            let candidates: Vec<NodeId> = match self.labels.first() {
                Some(first) => graph.nodes_with_label(first).collect(),
                None => graph.all_nodes().collect(),
            };
            let matches: Vec<NodeId> = candidates
                .into_iter()
                .filter(|&id| {
                    self.labels.iter().all(|l| graph.node_has_label(id, l))
                        && props.iter().all(|(k, v)| {
                            graph
                                .node(id)
                                .map(|n| n.props.get_or_null(k).cypher_eq(v) == Some(true))
                                .unwrap_or(false)
                        })
                })
                .collect();
            if matches.is_empty() {
                let id = graph.add_node(self.labels.iter().map(String::as_str), props);
                if let Some(slot) = self.slot {
                    row[slot] = Entry::Node(id);
                }
                out.push(row);
            } else {
                for id in matches {
                    let mut r = row.clone();
                    if let Some(slot) = self.slot {
                        r[slot] = Entry::Node(id);
                    }
                    out.push(r);
                }
            }
        }
        Ok(out)
    }
}

impl CSet {
    pub(crate) fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        if env.names != self.env_before {
            return Err(env_mismatch());
        }
        for row in &rows {
            for item in &self.items {
                let value = Evaluator {
                    graph: cx.graph(),
                    params: cx.params,
                }
                .eval_c_value(&item.expr, row)?;
                let updates = match (&item.key, value) {
                    (Some(key), value) => vec![(key.clone(), value)],
                    (None, Value::Map(m)) => m.into_iter().collect(),
                    (None, Value::Null) => Vec::new(),
                    (None, other) => {
                        return Err(CypherError::runtime(format!(
                            "SET += expects a map, got {}",
                            other.type_name()
                        )))
                    }
                };
                let var = &item.var;
                let slot = item.slot.ok_or_else(|| {
                    CypherError::runtime(format!("variable '{var}' is not defined"))
                })?;
                for (key, value) in updates {
                    match &row[slot] {
                        Entry::Node(id) => cx.graph_mut()?.set_node_prop(*id, &key, value)?,
                        Entry::Rel(id) => cx.graph_mut()?.set_rel_prop(*id, &key, value)?,
                        Entry::Val(Value::Null) => {}
                        _ => {
                            return Err(CypherError::runtime(format!(
                                "SET target '{var}' is not an entity"
                            )))
                        }
                    }
                }
            }
        }
        Ok(rows)
    }
}

impl CDelete {
    pub(crate) fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        if env.names != self.env_before {
            return Err(env_mismatch());
        }
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut rels: Vec<RelId> = Vec::new();
        for row in &rows {
            for (var, slot) in &self.vars {
                let slot = slot.ok_or_else(|| {
                    CypherError::runtime(format!("variable '{var}' is not defined"))
                })?;
                match &row[slot] {
                    Entry::Node(id) => nodes.push(*id),
                    Entry::Rel(id) => rels.push(*id),
                    Entry::Val(Value::Null) => {}
                    _ => {
                        return Err(CypherError::runtime(format!(
                            "cannot DELETE non-entity '{var}'"
                        )))
                    }
                }
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        rels.sort_unstable();
        rels.dedup();
        let g = cx.graph_mut()?;
        for r in rels {
            if g.rel(r).is_some() {
                g.remove_rel(r)?;
            }
        }
        for n in nodes {
            if g.node(n).is_some() {
                if !self.detach && g.degree(n, Direction::Both) > 0 {
                    return Err(CypherError::runtime(
                        "cannot delete a node with relationships; use DETACH DELETE",
                    ));
                }
                g.remove_node(n)?;
            }
        }
        Ok(rows)
    }
}
