//! Aggregation support for projections: aggregate-call extraction (done
//! at compile time) and the per-group accumulators (`count`, `sum`, `avg`,
//! `min`, `max`, `collect`, `stdev`, `percentileCont`).

use super::project::entry_key;
use crate::ast::{is_aggregate_fn, Expr};
use crate::error::CypherError;
use crate::eval::Entry;
use iyp_graphdb::{Graph, Value, ValueKey};
use std::collections::HashSet;

/// One aggregate call instance found in a projection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggSpec {
    pub name: String,
    pub distinct: bool,
    /// `None` = `count(*)`.
    pub arg: Option<Expr>,
    /// Second argument (percentileCont's p).
    pub extra: Option<Expr>,
}

/// Rewrites aggregate calls in `expr` into `__aggN` variable references,
/// collecting each distinct call into `specs`.
pub(crate) fn extract_aggs(expr: &Expr, specs: &mut Vec<AggSpec>) -> Expr {
    match expr {
        Expr::Call {
            name,
            distinct,
            args,
        } if is_aggregate_fn(name) => {
            let spec = AggSpec {
                name: name.clone(),
                distinct: *distinct,
                arg: match args.first() {
                    Some(Expr::Star) | None => None,
                    Some(e) => Some(e.clone()),
                },
                extra: args.get(1).cloned(),
            };
            let idx = match specs.iter().position(|s| *s == spec) {
                Some(i) => i,
                None => {
                    specs.push(spec);
                    specs.len() - 1
                }
            };
            Expr::Var(format!("__agg{idx}"))
        }
        Expr::Prop(e, k) => Expr::Prop(Box::new(extract_aggs(e, specs)), k.clone()),
        Expr::Index(a, b) => Expr::Index(
            Box::new(extract_aggs(a, specs)),
            Box::new(extract_aggs(b, specs)),
        ),
        Expr::Slice(a, lo, hi) => Expr::Slice(
            Box::new(extract_aggs(a, specs)),
            lo.as_ref().map(|e| Box::new(extract_aggs(e, specs))),
            hi.as_ref().map(|e| Box::new(extract_aggs(e, specs))),
        ),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(extract_aggs(a, specs)),
            Box::new(extract_aggs(b, specs)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(extract_aggs(a, specs))),
        Expr::IsNull(a, n) => Expr::IsNull(Box::new(extract_aggs(a, specs)), *n),
        Expr::Call {
            name,
            distinct,
            args,
        } => Expr::Call {
            name: name.clone(),
            distinct: *distinct,
            args: args.iter().map(|a| extract_aggs(a, specs)).collect(),
        },
        Expr::List(items) => Expr::List(items.iter().map(|e| extract_aggs(e, specs)).collect()),
        Expr::Map(items) => Expr::Map(
            items
                .iter()
                .map(|(k, e)| (k.clone(), extract_aggs(e, specs)))
                .collect(),
        ),
        Expr::Case {
            operand,
            arms,
            default,
        } => Expr::Case {
            operand: operand.as_ref().map(|e| Box::new(extract_aggs(e, specs))),
            arms: arms
                .iter()
                .map(|(w, t)| (extract_aggs(w, specs), extract_aggs(t, specs)))
                .collect(),
            default: default.as_ref().map(|e| Box::new(extract_aggs(e, specs))),
        },
        other => other.clone(),
    }
}

/// One aggregate accumulator: optional DISTINCT dedup in front of the
/// kind-specific state (every aggregate supports DISTINCT, as in Neo4j).
#[derive(Debug)]
pub(crate) struct AggAccum {
    seen: Option<HashSet<ValueKey>>,
    state: AggState,
}

impl AggAccum {
    /// Accumulator for aggregate `name`; `p` is percentileCont's
    /// percentile.
    pub fn new(name: &str, distinct: bool, p: f64) -> AggAccum {
        AggAccum {
            seen: distinct.then(HashSet::new),
            state: AggState::new_named(name, p),
        }
    }

    pub fn update(&mut self, value: Option<Value>) -> Result<(), CypherError> {
        if let (Some(seen), Some(v)) = (self.seen.as_mut(), value.as_ref()) {
            if !v.is_null() && !seen.insert(ValueKey::of(v)) {
                return Ok(()); // duplicate under DISTINCT
            }
        }
        self.state.update(value)
    }

    /// `count(arg)` of an unconverted entry. A node or relationship
    /// counts by identity (`DISTINCT` keys on its id) unless its record
    /// is gone, which makes it null, as its value would be; paths and
    /// plain values go through [`AggAccum::update`].
    pub fn count_entry(&mut self, graph: &Graph, e: &Entry) -> Result<(), CypherError> {
        let live = match e {
            Entry::Node(id) => graph.node(*id).is_some(),
            Entry::Rel(id) => graph.rel(*id).is_some(),
            Entry::Path(..) | Entry::Val(_) => return self.update(Some(e.to_value(graph))),
        };
        if !live {
            return Ok(());
        }
        if let Some(seen) = self.seen.as_mut() {
            if !seen.insert(entry_key(e)) {
                return Ok(());
            }
        }
        match &mut self.state {
            AggState::Count { n } => *n += 1,
            _ => unreachable!("count_entry is only called for count()"),
        }
        Ok(())
    }

    pub fn finish(self) -> Value {
        self.state.finish()
    }
}

#[derive(Debug)]
enum AggState {
    Count {
        n: i64,
    },
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
    },
    Avg {
        sum: f64,
        n: usize,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Collect {
        items: Vec<Value>,
    },
    Stdev {
        n: usize,
        mean: f64,
        m2: f64,
    },
    Percentile {
        values: Vec<f64>,
        p: f64,
    },
}

impl AggState {
    fn new_named(name: &str, p: f64) -> AggState {
        match name {
            "count" => AggState::Count { n: 0 },
            "sum" => AggState::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
            },
            "avg" => AggState::Avg { sum: 0.0, n: 0 },
            "min" => AggState::Min(None),
            "max" => AggState::Max(None),
            "collect" => AggState::Collect { items: Vec::new() },
            "stdev" => AggState::Stdev {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            },
            "percentilecont" => AggState::Percentile {
                values: Vec::new(),
                p,
            },
            other => unreachable!("not an aggregate: {other}"),
        }
    }

    fn update(&mut self, value: Option<Value>) -> Result<(), CypherError> {
        match self {
            AggState::Count { n } => match value {
                None => *n += 1, // count(*)
                Some(Value::Null) => {}
                Some(_) => *n += 1,
            },
            AggState::Sum {
                int,
                float,
                saw_float,
            } => match value {
                Some(Value::Int(i)) => *int += i,
                Some(Value::Float(f)) => {
                    *float += f;
                    *saw_float = true;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(CypherError::runtime(format!(
                        "sum() expects numbers, got {}",
                        other.type_name()
                    )))
                }
            },
            AggState::Avg { sum, n } => {
                if let Some(v) = value {
                    if let Some(f) = v.as_f64() {
                        *sum += f;
                        *n += 1;
                    } else if !v.is_null() {
                        return Err(CypherError::runtime(format!(
                            "avg() expects numbers, got {}",
                            v.type_name()
                        )));
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match cur {
                            None => true,
                            Some(c) => v.order_key_cmp(c) == std::cmp::Ordering::Less,
                        };
                        if replace {
                            *cur = Some(v);
                        }
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match cur {
                            None => true,
                            Some(c) => v.order_key_cmp(c) == std::cmp::Ordering::Greater,
                        };
                        if replace {
                            *cur = Some(v);
                        }
                    }
                }
            }
            AggState::Collect { items } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        items.push(v);
                    }
                }
            }
            AggState::Stdev { n, mean, m2 } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *n += 1;
                        let delta = x - *mean;
                        *mean += delta / *n as f64;
                        *m2 += delta * (x - *mean);
                    }
                }
            }
            AggState::Percentile { values, .. } => {
                if let Some(v) = value {
                    if let Some(f) = v.as_f64() {
                        values.push(f);
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count { n } => Value::Int(n),
            AggState::Sum {
                int,
                float,
                saw_float,
            } => {
                if saw_float {
                    Value::Float(float + int as f64)
                } else {
                    Value::Int(int)
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Collect { items } => Value::List(items),
            AggState::Stdev { n, m2, .. } => {
                if n < 2 {
                    Value::Float(0.0)
                } else {
                    Value::Float((m2 / (n as f64 - 1.0)).sqrt())
                }
            }
            AggState::Percentile { mut values, p } => {
                if values.is_empty() {
                    return Value::Null;
                }
                values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let rank = p.clamp(0.0, 1.0) * (values.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let frac = rank - lo as f64;
                Value::Float(values[lo] * (1.0 - frac) + values[hi] * frac)
            }
        }
    }
}
