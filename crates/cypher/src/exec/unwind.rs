//! The unwind operator: `UNWIND expr AS var` — expands a list-valued
//! expression into one row per element.

use crate::compile::{CUnwind, Evaluator};
use crate::error::CypherError;
use crate::eval::{Entry, Env, Row};
use iyp_graphdb::Value;

use super::context::ExecContext;
use super::env_mismatch;

impl CUnwind {
    pub(crate) fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        if env.names != self.env_before {
            return Err(env_mismatch());
        }
        let cev = Evaluator {
            graph: cx.graph(),
            params: cx.params,
        };
        let mut values: Vec<(Row, Value)> = Vec::with_capacity(rows.len());
        for row in rows {
            let v = cev.eval_c_value(&self.expr_c, &row)?;
            values.push((row, v));
        }
        env.push(self.var.clone());
        let mut out = Vec::new();
        for (row, v) in values {
            match v {
                Value::Null => {}
                Value::List(items) => {
                    for item in items {
                        let mut r = row.clone();
                        r.push(Entry::Val(item));
                        out.push(r);
                    }
                }
                other => {
                    let mut r = row;
                    r.push(Entry::Val(other));
                    out.push(r);
                }
            }
        }
        Ok(out)
    }
}
