//! The projection operator (`WITH` / `RETURN`): item evaluation, star
//! expansion (done at compile time), grouped aggregation, DISTINCT, and
//! the post-projection environment in which `WHERE` and `ORDER BY` see
//! both aliases and the original variables, followed by `SKIP` / `LIMIT`.

use crate::compile::{CExpr, CProject, Evaluator};
use crate::error::CypherError;
use crate::eval::{Entry, Env, Row};
use iyp_graphdb::{Value, ValueKey};
use std::collections::{HashMap, HashSet};

use super::aggregate::AggAccum;
use super::context::ExecContext;
use super::env_mismatch;

/// A stable identity key for a projected entry, used for DISTINCT,
/// aggregation grouping and `count(DISTINCT entity)`.
pub(super) fn entry_key(e: &Entry) -> ValueKey {
    match e {
        Entry::Node(id) => ValueKey::List(vec![
            ValueKey::Str("#node".into()),
            ValueKey::Int(id.0 as i64),
        ]),
        Entry::Rel(id) => ValueKey::List(vec![
            ValueKey::Str("#rel".into()),
            ValueKey::Int(id.0 as i64),
        ]),
        Entry::Path(nodes, rels) => ValueKey::List(
            std::iter::once(ValueKey::Str("#path".into()))
                .chain(nodes.iter().map(|n| ValueKey::Int(n.0 as i64)))
                .chain(rels.iter().map(|r| ValueKey::Int(r.0 as i64)))
                .collect(),
        ),
        Entry::Val(v) => ValueKey::of(v),
    }
}

/// The projected row extended with the non-shadowed evaluation-context
/// entries: the row `WHERE` and `ORDER BY` evaluate against, where
/// aliases shadow the original variables.
fn extend(p: &CProject, proj: &Row, ctx_row: &Row) -> Row {
    let mut r = proj.clone();
    for &i in &p.appended {
        r.push(ctx_row.get(i).cloned().unwrap_or(Entry::Val(Value::Null)));
    }
    r
}

impl CProject {
    pub(crate) fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        if self.empty {
            return Err(CypherError::plan("projection with no items"));
        }
        if env.names != self.env_before {
            return Err(env_mismatch());
        }
        project(cx, env, rows, self)
    }
}

fn project(
    cx: &mut ExecContext<'_>,
    env: &mut Env,
    rows: Vec<Row>,
    p: &CProject,
) -> Result<Vec<Row>, CypherError> {
    let cev = Evaluator {
        graph: cx.graph(),
        params: cx.params,
    };
    let mut projected: Vec<(Row, Row)> = if p.use_agg {
        aggregate_rows(&cev, &rows, p)?
    } else {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let mut out_row = Vec::with_capacity(p.rewritten.len());
            for rexpr in &p.rewritten {
                out_row.push(cev.eval_c(rexpr, &row)?);
            }
            out.push((out_row, row));
        }
        out
    };

    if p.distinct {
        let mut seen = HashSet::new();
        projected.retain(|(r, _)| {
            let key: Vec<ValueKey> = r.iter().map(entry_key).collect();
            seen.insert(key)
        });
    }

    if p.where_agg {
        return Err(CypherError::plan(
            "aggregate functions are not allowed in WITH ... WHERE; project them first",
        ));
    }
    if let Some(w) = &p.where_c {
        let mut kept = Vec::with_capacity(projected.len());
        for (proj, ctx_row) in projected {
            let ext = extend(p, &proj, &ctx_row);
            if cev.eval_c_value(w, &ext)?.is_true() {
                kept.push((proj, ctx_row));
            }
        }
        projected = kept;
    }

    if !p.order_c.is_empty() {
        let mut keyed: Vec<(Vec<Value>, (Row, Row))> = Vec::with_capacity(projected.len());
        for (proj, ctx_row) in projected {
            let ext = extend(p, &proj, &ctx_row);
            let mut keys = Vec::with_capacity(p.order_c.len());
            for (oe, _) in &p.order_c {
                keys.push(cev.eval_c_value(oe, &ext)?);
            }
            keyed.push((keys, (proj, ctx_row)));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, (_, ascending)) in p.order_c.iter().enumerate() {
                let c = ka[i].order_key_cmp(&kb[i]);
                let c = if *ascending { c } else { c.reverse() };
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
        projected = keyed.into_iter().map(|(_, v)| v).collect();
    }

    // SKIP / LIMIT: evaluated row-free.
    let eval_count = |e: &CExpr| -> Result<usize, CypherError> {
        let v = cev.eval_c_value(e, &Vec::new())?;
        v.as_int()
            .filter(|i| *i >= 0)
            .map(|i| i as usize)
            .ok_or_else(|| CypherError::runtime("SKIP/LIMIT must be a non-negative integer"))
    };
    if let Some(e) = &p.skip_c {
        let n = eval_count(e)?;
        projected = projected.into_iter().skip(n).collect();
    }
    if let Some(e) = &p.limit_c {
        let n = eval_count(e)?;
        projected.truncate(n);
    }

    *env = Env {
        names: p.out_names.clone(),
    };
    Ok(projected.into_iter().map(|(r, _)| r).collect())
}

fn aggregate_rows(
    cev: &Evaluator<'_>,
    rows: &[Row],
    p: &CProject,
) -> Result<Vec<(Row, Row)>, CypherError> {
    let mut groups: HashMap<Vec<ValueKey>, usize> = HashMap::new();
    let mut group_data: Vec<(Row, Vec<AggAccum>)> = Vec::new();
    for row in rows {
        let mut key = Vec::with_capacity(p.keys_c.len());
        for ke in &p.keys_c {
            key.push(entry_key(&cev.eval_c(ke, row)?));
        }
        let gi = match groups.get(&key) {
            Some(&i) => i,
            None => {
                let mut states = Vec::with_capacity(p.specs.len());
                for spec in &p.specs {
                    let pval = match &spec.extra {
                        Some(e) => cev.eval_c_value(e, row)?.as_f64().unwrap_or(0.5),
                        None => 0.5,
                    };
                    states.push(AggAccum::new(&spec.name, spec.distinct, pval));
                }
                group_data.push((row.clone(), states));
                groups.insert(key, group_data.len() - 1);
                group_data.len() - 1
            }
        };
        for (si, spec) in p.specs.iter().enumerate() {
            let acc = &mut group_data[gi].1[si];
            match &spec.arg {
                None => acc.update(None)?,
                // `count` needs only null-ness and identity: never build
                // an entity's property map for it.
                Some(e) if spec.name == "count" => {
                    acc.count_entry(cev.graph, &cev.eval_c(e, row)?)?
                }
                Some(e) => acc.update(Some(cev.eval_c_value(e, row)?))?,
            }
        }
    }
    // Global aggregation over zero rows still yields one group.
    if group_data.is_empty() && p.keys_c.is_empty() {
        let states = p
            .specs
            .iter()
            .map(|s| AggAccum::new(&s.name, s.distinct, 0.5))
            .collect();
        let null_row: Row = vec![Entry::Val(Value::Null); p.env_len];
        group_data.push((null_row, states));
    }
    let mut projected = Vec::with_capacity(group_data.len());
    for (rep_row, states) in group_data {
        let mut ext = rep_row.clone();
        for st in states {
            ext.push(Entry::Val(st.finish()));
        }
        let mut out_row = Vec::with_capacity(p.rewritten.len());
        for rexpr in &p.rewritten {
            out_row.push(cev.eval_c(rexpr, &ext)?);
        }
        projected.push((out_row, ext));
    }
    Ok(projected)
}
