//! Compile-once, execute-many: lowering parsed queries to the slot-resolved
//! form the executor runs.
//!
//! [`compile_expr`] lowers an AST [`Expr`] to a [`CompiledExpr`]: variable
//! names become row-slot indices resolved once against the environment,
//! literal subtrees are constant-folded (only when pure evaluation
//! succeeds, so lazily-reached runtime errors stay lazy), and [`Evaluator`]
//! evaluates the result with three-valued logic and short-circuiting.
//!
//! [`compile_query`] lowers a whole parsed query to a [`CompiledQuery`]:
//! one compiled operator per clause, produced by simulating the environment
//! the executor will build (environment evolution is a pure function of
//! the AST). Lowering is total: every clause, `exists(pattern)` and every
//! write clause compile. Plan errors (`RETURN` before the final clause, an
//! empty projection, aggregates in `WITH … WHERE`) are carried into the
//! compiled operator and raised when execution reaches it, so a query's
//! earlier clauses run — and their effects and errors happen — first.

use crate::ast::{
    is_aggregate_fn, BinOp, Clause, Expr, MatchClause, NodePattern, PatternPart, ProjectionClause,
    ProjectionItem, Query, RelDir, SetItem, UnOp,
};
use crate::error::CypherError;
use crate::eval::{self, Entry, Env, Params, Row};
use iyp_graphdb::{Direction, Graph, NodeId, Value};
use std::collections::BTreeMap;

/// A compiled expression: variables resolved to row slots, constants
/// folded. Produced by [`compile_expr`], evaluated by [`Evaluator`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr(pub(crate) CExpr);

/// The compiled expression tree. Kept crate-private so the public surface
/// stays `compile → eval`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CExpr {
    /// A constant (literal or successfully folded subtree).
    Const(Value),
    /// Environment variable resolved to a row slot.
    Slot(usize),
    /// Comprehension-bound variable resolved to a locals-stack index.
    Local(usize),
    /// A variable not bound anywhere at compile time; errors at eval.
    Unbound(String),
    Param(String),
    Prop(Box<CExpr>, String),
    Index(Box<CExpr>, Box<CExpr>),
    Slice(Box<CExpr>, Option<Box<CExpr>>, Option<Box<CExpr>>),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Not(Box<CExpr>),
    Neg(Box<CExpr>),
    IsNull(Box<CExpr>, bool),
    ExistsProp(Box<CExpr>, String),
    /// `exists(pattern)`.
    ExistsPattern(Box<CPattern>),
    /// Non-aggregate function call.
    Call {
        name: String,
        args: Vec<CExpr>,
    },
    /// Aggregate call outside a projection rewrite: always errors at eval.
    AggErr(String),
    Star,
    List(Vec<CExpr>),
    Map(Vec<(String, CExpr)>),
    Case {
        operand: Option<Box<CExpr>>,
        arms: Vec<(CExpr, CExpr)>,
        default: Option<Box<CExpr>>,
    },
    ListComp {
        list: Box<CExpr>,
        pred: Option<Box<CExpr>>,
        map: Option<Box<CExpr>>,
    },
}

/// A compiled `exists(pattern)`: the chain as written and reversed, so
/// evaluation can start from whichever endpoint the row binds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CPattern {
    forward: CChain,
    reversed: CChain,
}

#[derive(Debug, Clone, PartialEq)]
struct CChain {
    start: CPatNode,
    hops: Vec<(CPatRel, CPatNode)>,
}

#[derive(Debug, Clone, PartialEq)]
struct CPatNode {
    /// The node's variable, resolved like any variable reference.
    var: Option<CExpr>,
    labels: Vec<String>,
    props: Vec<(String, CExpr)>,
}

#[derive(Debug, Clone, PartialEq)]
struct CPatRel {
    types: Vec<String>,
    dir: Direction,
    single: bool,
    props: Vec<(String, CExpr)>,
}

pub(crate) fn direction(dir: RelDir) -> Direction {
    match dir {
        RelDir::Right => Direction::Outgoing,
        RelDir::Left => Direction::Incoming,
        RelDir::Undirected => Direction::Both,
    }
}

fn compile_pattern_node(env: &[String], locals: &mut Vec<String>, n: &NodePattern) -> CPatNode {
    CPatNode {
        var: n.var.as_ref().map(|v| resolve_var(env, locals, v)),
        labels: n.labels.clone(),
        props: compile_props(env, locals, &n.props),
    }
}

fn compile_pattern(env: &[String], locals: &mut Vec<String>, part: &PatternPart) -> CPattern {
    let mut nodes = vec![compile_pattern_node(env, locals, &part.start)];
    let mut rels = Vec::with_capacity(part.hops.len());
    for (r, n) in &part.hops {
        nodes.push(compile_pattern_node(env, locals, n));
        rels.push(CPatRel {
            types: r.types.clone(),
            dir: direction(r.dir),
            single: r.hops.is_single(),
            props: compile_props(env, locals, &r.props),
        });
    }
    // `rels[i]` joins `nodes[i]` and `nodes[i + 1]`. Reversed: the last
    // node first, then each relationship, flipped, leading back to the
    // node before it.
    let reversed = CChain {
        start: nodes.last().expect("a start node").clone(),
        hops: rels
            .iter()
            .zip(&nodes)
            .rev()
            .map(|(r, n)| {
                let flipped = CPatRel {
                    dir: r.dir.reverse(),
                    ..r.clone()
                };
                (flipped, n.clone())
            })
            .collect(),
    };
    let start = nodes.remove(0);
    let forward = CChain {
        start,
        hops: rels.into_iter().zip(nodes).collect(),
    };
    CPattern { forward, reversed }
}

/// Compiles `expr` against the environment, resolving variable names to
/// row slots and folding constant subtrees.
pub fn compile_expr(env: &Env, expr: &Expr) -> CompiledExpr {
    CompiledExpr(compile_scoped(&env.names, &mut Vec::new(), expr))
}

/// Compiles `expr` against an environment given as slot-ordered names,
/// with `locals` the comprehension variables in scope (innermost last).
pub(crate) fn compile_scoped(env: &[String], locals: &mut Vec<String>, expr: &Expr) -> CExpr {
    match expr {
        Expr::Lit(v) => CExpr::Const(v.clone()),
        Expr::Var(name) => resolve_var(env, locals, name),
        Expr::Param(name) => CExpr::Param(name.clone()),
        Expr::Prop(base, key) => fold_prop(compile_scoped(env, locals, base), key.clone()),
        Expr::Index(base, idx) => {
            let base = compile_scoped(env, locals, base);
            let idx = compile_scoped(env, locals, idx);
            match (&base, &idx) {
                (CExpr::Const(b), CExpr::Const(i)) => CExpr::Const(eval::index_value(b, i)),
                _ => CExpr::Index(Box::new(base), Box::new(idx)),
            }
        }
        Expr::Slice(base, lo, hi) => {
            let base = compile_scoped(env, locals, base);
            let lo = opt_compile(env, locals, lo.as_deref());
            let hi = opt_compile(env, locals, hi.as_deref());
            match (&base, &lo, &hi) {
                (CExpr::Const(b), lo, hi) if all_const(lo) && all_const(hi) => {
                    CExpr::Const(eval::slice_value(b, const_of(lo), const_of(hi)))
                }
                _ => CExpr::Slice(Box::new(base), lo.map(Box::new), hi.map(Box::new)),
            }
        }
        Expr::Bin(op, a, b) => {
            let a = compile_scoped(env, locals, a);
            let b = compile_scoped(env, locals, b);
            fold_bin(*op, a, b)
        }
        Expr::Un(UnOp::Not, a) => {
            let a = compile_scoped(env, locals, a);
            match &a {
                CExpr::Const(v) => match not_value(v) {
                    Ok(out) => CExpr::Const(out),
                    Err(_) => CExpr::Not(Box::new(a)),
                },
                _ => CExpr::Not(Box::new(a)),
            }
        }
        Expr::Un(UnOp::Neg, a) => {
            let a = compile_scoped(env, locals, a);
            match &a {
                CExpr::Const(v) => match v.neg() {
                    Ok(out) => CExpr::Const(out),
                    Err(_) => CExpr::Neg(Box::new(a)),
                },
                _ => CExpr::Neg(Box::new(a)),
            }
        }
        Expr::IsNull(a, negated) => {
            let a = compile_scoped(env, locals, a);
            match &a {
                CExpr::Const(v) => CExpr::Const(Value::Bool(v.is_null() != *negated)),
                _ => CExpr::IsNull(Box::new(a), *negated),
            }
        }
        Expr::ExistsProp(base, key) => {
            let base = compile_scoped(env, locals, base);
            match &base {
                CExpr::Const(v) => CExpr::Const(Value::Bool(!const_get_prop(v, key).is_null())),
                _ => CExpr::ExistsProp(Box::new(base), key.clone()),
            }
        }
        Expr::ExistsPattern(part) => {
            CExpr::ExistsPattern(Box::new(compile_pattern(env, locals, part)))
        }
        // Aggregates outside projection rewrites error at runtime.
        Expr::Call { name, .. } if is_aggregate_fn(name) => CExpr::AggErr(name.clone()),
        // Function results may depend on the graph; never folded.
        Expr::Call { name, args, .. } => CExpr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| compile_scoped(env, locals, a))
                .collect(),
        },
        Expr::Star => CExpr::Star,
        Expr::List(items) => {
            let items: Vec<CExpr> = items
                .iter()
                .map(|e| compile_scoped(env, locals, e))
                .collect();
            if items.iter().all(|e| matches!(e, CExpr::Const(_))) {
                CExpr::Const(Value::List(items.into_iter().map(unwrap_const).collect()))
            } else {
                CExpr::List(items)
            }
        }
        Expr::Map(items) => {
            let items: Vec<(String, CExpr)> = items
                .iter()
                .map(|(k, e)| (k.clone(), compile_scoped(env, locals, e)))
                .collect();
            if items.iter().all(|(_, e)| matches!(e, CExpr::Const(_))) {
                CExpr::Const(Value::Map(
                    items
                        .into_iter()
                        .map(|(k, e)| (k, unwrap_const(e)))
                        .collect(),
                ))
            } else {
                CExpr::Map(items)
            }
        }
        Expr::Case {
            operand,
            arms,
            default,
        } => CExpr::Case {
            operand: opt_compile(env, locals, operand.as_deref()).map(Box::new),
            arms: arms
                .iter()
                .map(|(w, t)| {
                    (
                        compile_scoped(env, locals, w),
                        compile_scoped(env, locals, t),
                    )
                })
                .collect(),
            default: opt_compile(env, locals, default.as_deref()).map(Box::new),
        },
        Expr::ListComp {
            var,
            list,
            pred,
            map,
        } => {
            let list = compile_scoped(env, locals, list);
            locals.push(var.clone());
            let pred = opt_compile(env, locals, pred.as_deref());
            let map = opt_compile(env, locals, map.as_deref());
            locals.pop();
            CExpr::ListComp {
                list: Box::new(list),
                pred: pred.map(Box::new),
                map: map.map(Box::new),
            }
        }
    }
}

/// A variable reference: the innermost comprehension binder, else the
/// environment slot, else unbound.
fn resolve_var(env: &[String], locals: &[String], name: &str) -> CExpr {
    match locals.iter().rposition(|n| n == name) {
        Some(i) => CExpr::Local(i),
        None => match env.iter().position(|n| n == name) {
            Some(i) => CExpr::Slot(i),
            None => CExpr::Unbound(name.to_string()),
        },
    }
}

fn opt_compile(env: &[String], locals: &mut Vec<String>, e: Option<&Expr>) -> Option<CExpr> {
    e.map(|e| compile_scoped(env, locals, e))
}

fn compile_props(
    env: &[String],
    locals: &mut Vec<String>,
    props: &[(String, Expr)],
) -> Vec<(String, CExpr)> {
    props
        .iter()
        .map(|(k, e)| (k.clone(), compile_scoped(env, locals, e)))
        .collect()
}

fn all_const(e: &Option<CExpr>) -> bool {
    matches!(e, None | Some(CExpr::Const(_)))
}

fn const_of(e: &Option<CExpr>) -> Option<&Value> {
    match e {
        Some(CExpr::Const(v)) => Some(v),
        _ => None,
    }
}

fn unwrap_const(e: CExpr) -> Value {
    match e {
        CExpr::Const(v) => v,
        _ => unreachable!("caller checked all children are const"),
    }
}

/// Property access on a plain value (the constant-folding subset of
/// [`Entry::get_prop`]: maps resolve, everything else is null).
fn const_get_prop(v: &Value, key: &str) -> Value {
    match v {
        Value::Map(m) => m.get(key).cloned().unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

fn fold_prop(base: CExpr, key: String) -> CExpr {
    match &base {
        CExpr::Const(v) => CExpr::Const(const_get_prop(v, &key)),
        _ => CExpr::Prop(Box::new(base), key),
    }
}

/// `NOT` on a value.
fn not_value(v: &Value) -> Result<Value, CypherError> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Bool(b) => Ok(Value::Bool(!b)),
        other => Err(CypherError::runtime(format!(
            "NOT expects a boolean, got {}",
            other.type_name()
        ))),
    }
}

/// Binary operation over two already-evaluated values — the shared
/// semantics behind both the compiled runtime and constant folding.
/// `And`/`Or` short-circuiting does not change the result once both
/// operands are known, so the full truth table applies here.
pub(crate) fn bin_values(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, CypherError> {
    let out = match op {
        BinOp::And => match (lhs, rhs) {
            (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
            (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Or => match (lhs, rhs) {
            (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
            (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        BinOp::Xor => match (lhs, rhs) {
            (Value::Bool(x), Value::Bool(y)) => Value::Bool(x != y),
            _ => Value::Null,
        },
        BinOp::Add => lhs.add(&rhs)?,
        BinOp::Sub => lhs.sub(&rhs)?,
        BinOp::Mul => lhs.mul(&rhs)?,
        BinOp::Div => lhs.div(&rhs)?,
        BinOp::Mod => lhs.rem(&rhs)?,
        BinOp::Pow => match (lhs.as_f64(), rhs.as_f64()) {
            (Some(x), Some(y)) => Value::Float(x.powf(y)),
            _ => Value::Null,
        },
        BinOp::Eq => eval::tri(lhs.cypher_eq(&rhs)),
        BinOp::Neq => eval::tri(lhs.cypher_eq(&rhs).map(|b| !b)),
        BinOp::Lt => eval::tri(lhs.cypher_cmp(&rhs).map(|o| o == std::cmp::Ordering::Less)),
        BinOp::Le => eval::tri(
            lhs.cypher_cmp(&rhs)
                .map(|o| o != std::cmp::Ordering::Greater),
        ),
        BinOp::Gt => eval::tri(
            lhs.cypher_cmp(&rhs)
                .map(|o| o == std::cmp::Ordering::Greater),
        ),
        BinOp::Ge => eval::tri(lhs.cypher_cmp(&rhs).map(|o| o != std::cmp::Ordering::Less)),
        BinOp::In => match (&lhs, &rhs) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (x, Value::List(items)) => {
                let mut saw_null = false;
                let mut found = false;
                for item in items {
                    match x.cypher_eq(item) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if found {
                    Value::Bool(true)
                } else if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                }
            }
            _ => {
                return Err(CypherError::runtime(format!(
                    "IN expects a list on the right, got {}",
                    rhs.type_name()
                )))
            }
        },
        BinOp::StartsWith => eval::str_pred(&lhs, &rhs, |s, p| s.starts_with(p)),
        BinOp::EndsWith => eval::str_pred(&lhs, &rhs, |s, p| s.ends_with(p)),
        BinOp::Contains => eval::str_pred(&lhs, &rhs, |s, p| s.contains(p)),
        BinOp::RegexMatch => eval::str_pred(&lhs, &rhs, eval::wildcard_match),
    };
    Ok(out)
}

fn fold_bin(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    if let (CExpr::Const(x), CExpr::Const(y)) = (&a, &b) {
        // Fold only when pure evaluation succeeds; an erroring constant
        // subtree stays a tree so lazily-unreached errors never surface
        // (e.g. `false AND (1 + 'a')`).
        if let Ok(v) = bin_values(op, x.clone(), y.clone()) {
            return CExpr::Const(v);
        }
    }
    CExpr::Bin(op, Box::new(a), Box::new(b))
}

/// Evaluation context for compiled expressions: only the graph and the
/// parameters — variables come pre-resolved as slots.
pub struct Evaluator<'a> {
    /// The graph being queried.
    pub graph: &'a Graph,
    /// Query parameters.
    pub params: &'a Params,
}

impl<'a> Evaluator<'a> {
    /// Evaluates a compiled expression against `row`, producing an entry
    /// (entities are preserved when the expression is a bare variable).
    pub fn eval(&self, expr: &CompiledExpr, row: &Row) -> Result<Entry, CypherError> {
        let mut locals = Vec::new();
        self.eval_inner(&expr.0, row, &mut locals)
    }

    /// Evaluates to a plain `Value`.
    pub fn eval_value(&self, expr: &CompiledExpr, row: &Row) -> Result<Value, CypherError> {
        Ok(self.eval(expr, row)?.to_value(self.graph))
    }

    pub(crate) fn eval_c(&self, expr: &CExpr, row: &Row) -> Result<Entry, CypherError> {
        let mut locals = Vec::new();
        self.eval_inner(expr, row, &mut locals)
    }

    pub(crate) fn eval_c_value(&self, expr: &CExpr, row: &Row) -> Result<Value, CypherError> {
        Ok(self.eval_c(expr, row)?.to_value(self.graph))
    }

    fn eval_inner(
        &self,
        expr: &CExpr,
        row: &Row,
        locals: &mut Vec<Entry>,
    ) -> Result<Entry, CypherError> {
        match expr {
            CExpr::Const(v) => Ok(Entry::Val(v.clone())),
            // Rows are always as wide as the environment they were
            // compiled against, so a slot is always in range.
            CExpr::Slot(i) => Ok(row[*i].clone()),
            CExpr::Local(i) => Ok(locals[*i].clone()),
            CExpr::Unbound(name) => Err(CypherError::runtime(format!(
                "variable '{name}' is not defined"
            ))),
            CExpr::Param(name) => {
                Ok(Entry::Val(self.params.get(name).cloned().ok_or_else(
                    || CypherError::runtime(format!("missing parameter '${name}'")),
                )?))
            }
            CExpr::Prop(base, key) => {
                let base = self.eval_inner(base, row, locals)?;
                Ok(Entry::Val(base.get_prop(self.graph, key)))
            }
            CExpr::Index(base, idx) => {
                let base = self.eval_inner(base, row, locals)?.to_value(self.graph);
                let idx = self.eval_inner(idx, row, locals)?.to_value(self.graph);
                Ok(Entry::Val(eval::index_value(&base, &idx)))
            }
            CExpr::Slice(base, lo, hi) => {
                let base = self.eval_inner(base, row, locals)?.to_value(self.graph);
                let lo = match lo {
                    Some(e) => Some(self.eval_inner(e, row, locals)?.to_value(self.graph)),
                    None => None,
                };
                let hi = match hi {
                    Some(e) => Some(self.eval_inner(e, row, locals)?.to_value(self.graph)),
                    None => None,
                };
                Ok(Entry::Val(eval::slice_value(
                    &base,
                    lo.as_ref(),
                    hi.as_ref(),
                )))
            }
            CExpr::Bin(op, a, b) => {
                // Short-circuit logical operators (three-valued logic).
                match op {
                    BinOp::And => {
                        let lhs = self.eval_inner(a, row, locals)?.to_value(self.graph);
                        if lhs == Value::Bool(false) {
                            return Ok(Entry::Val(Value::Bool(false)));
                        }
                        let rhs = self.eval_inner(b, row, locals)?.to_value(self.graph);
                        return Ok(Entry::Val(bin_values(BinOp::And, lhs, rhs)?));
                    }
                    BinOp::Or => {
                        let lhs = self.eval_inner(a, row, locals)?.to_value(self.graph);
                        if lhs == Value::Bool(true) {
                            return Ok(Entry::Val(Value::Bool(true)));
                        }
                        let rhs = self.eval_inner(b, row, locals)?.to_value(self.graph);
                        return Ok(Entry::Val(bin_values(BinOp::Or, lhs, rhs)?));
                    }
                    _ => {}
                }
                let lhs = self.eval_inner(a, row, locals)?.to_value(self.graph);
                let rhs = self.eval_inner(b, row, locals)?.to_value(self.graph);
                Ok(Entry::Val(bin_values(*op, lhs, rhs)?))
            }
            CExpr::Not(a) => {
                let v = self.eval_inner(a, row, locals)?.to_value(self.graph);
                Ok(Entry::Val(not_value(&v)?))
            }
            CExpr::Neg(a) => {
                let v = self.eval_inner(a, row, locals)?.to_value(self.graph);
                Ok(Entry::Val(v.neg()?))
            }
            CExpr::IsNull(a, negated) => {
                let v = self.eval_inner(a, row, locals)?;
                Ok(Entry::Val(Value::Bool(v.is_null() != *negated)))
            }
            CExpr::ExistsProp(base, key) => {
                let base = self.eval_inner(base, row, locals)?;
                Ok(Entry::Val(Value::Bool(
                    !base.get_prop(self.graph, key).is_null(),
                )))
            }
            CExpr::ExistsPattern(p) => Ok(Entry::Val(Value::Bool(
                self.pattern_exists(p, row, locals)?,
            ))),
            CExpr::Call { name, args } => {
                let mut arg_entries = Vec::with_capacity(args.len());
                for a in args {
                    arg_entries.push(self.eval_inner(a, row, locals)?);
                }
                crate::functions::call_function(self.graph, name, &arg_entries).map(Entry::Val)
            }
            CExpr::AggErr(name) => Err(CypherError::runtime(format!(
                "aggregate function {name}() is only allowed in WITH/RETURN projections"
            ))),
            CExpr::Star => Err(CypherError::runtime("'*' is only valid inside count()")),
            CExpr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval_inner(e, row, locals)?.to_value(self.graph));
                }
                Ok(Entry::Val(Value::List(out)))
            }
            CExpr::Map(items) => {
                let mut out = BTreeMap::new();
                for (k, e) in items {
                    out.insert(
                        k.clone(),
                        self.eval_inner(e, row, locals)?.to_value(self.graph),
                    );
                }
                Ok(Entry::Val(Value::Map(out)))
            }
            CExpr::Case {
                operand,
                arms,
                default,
            } => {
                let operand_val = match operand {
                    Some(e) => Some(self.eval_inner(e, row, locals)?.to_value(self.graph)),
                    None => None,
                };
                for (when, then) in arms {
                    let matched = match &operand_val {
                        Some(op) => {
                            let w = self.eval_inner(when, row, locals)?.to_value(self.graph);
                            op.cypher_eq(&w) == Some(true)
                        }
                        None => self
                            .eval_inner(when, row, locals)?
                            .to_value(self.graph)
                            .is_true(),
                    };
                    if matched {
                        return self.eval_inner(then, row, locals);
                    }
                }
                match default {
                    Some(e) => self.eval_inner(e, row, locals),
                    None => Ok(Entry::Val(Value::Null)),
                }
            }
            CExpr::ListComp { list, pred, map } => {
                let list = self.eval_inner(list, row, locals)?.to_value(self.graph);
                let Value::List(items) = list else {
                    if list.is_null() {
                        return Ok(Entry::Val(Value::Null));
                    }
                    return Err(CypherError::runtime(
                        "list comprehension expects a list".to_string(),
                    ));
                };
                let mut out = Vec::new();
                for item in items {
                    locals.push(Entry::Val(item.clone()));
                    let keep = match pred {
                        Some(p) => self
                            .eval_inner(p, row, locals)?
                            .to_value(self.graph)
                            .is_true(),
                        None => true,
                    };
                    if keep {
                        let mapped = match map {
                            Some(m) => self.eval_inner(m, row, locals)?.to_value(self.graph),
                            None => item,
                        };
                        out.push(mapped);
                    }
                    locals.pop();
                }
                Ok(Entry::Val(Value::List(out)))
            }
        }
    }

    /// `exists(pattern)`: starts from a bound endpoint (the reversed chain
    /// when only the far end is bound) and walks single hops; bound node
    /// variables pin identities, unbound ones are purely existential.
    fn pattern_exists(
        &self,
        p: &CPattern,
        row: &Row,
        locals: &mut Vec<Entry>,
    ) -> Result<bool, CypherError> {
        let chain =
            if bound_node(&p.forward.start, row, locals).is_some() || p.forward.hops.is_empty() {
                &p.forward
            } else {
                &p.reversed
            };
        let Some(start) = bound_node(&chain.start, row, locals) else {
            return Err(CypherError::runtime(
                "exists(pattern) requires a bound endpoint variable",
            ));
        };
        if !self.pattern_node_matches(start, &chain.start, row, locals)? {
            return Ok(false);
        }
        self.exists_dfs(start, &chain.hops, row, locals)
    }

    fn exists_dfs(
        &self,
        cur: NodeId,
        hops: &[(CPatRel, CPatNode)],
        row: &Row,
        locals: &mut Vec<Entry>,
    ) -> Result<bool, CypherError> {
        let Some((rel, node)) = hops.first() else {
            return Ok(true);
        };
        if !rel.single {
            return Err(CypherError::runtime(
                "exists(pattern) does not support variable-length relationships",
            ));
        }
        let types: Option<Vec<&str>> =
            (!rel.types.is_empty()).then(|| rel.types.iter().map(String::as_str).collect());
        for (rid, nbr) in self.graph.neighbors(cur, rel.dir, types.as_deref()) {
            let mut ok = true;
            for (key, expr) in &rel.props {
                let want = self.eval_inner(expr, row, locals)?.to_value(self.graph);
                let have = self
                    .graph
                    .rel(rid)
                    .map(|r| r.props.get_or_null(key))
                    .unwrap_or(Value::Null);
                if have.cypher_eq(&want) != Some(true) {
                    ok = false;
                    break;
                }
            }
            if !ok || !self.pattern_node_matches(nbr, node, row, locals)? {
                continue;
            }
            if self.exists_dfs(nbr, &hops[1..], row, locals)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn pattern_node_matches(
        &self,
        node: NodeId,
        pat: &CPatNode,
        row: &Row,
        locals: &mut Vec<Entry>,
    ) -> Result<bool, CypherError> {
        if bound_node(pat, row, locals).is_some_and(|bound| bound != node) {
            return Ok(false);
        }
        for label in &pat.labels {
            if !self.graph.node_has_label(node, label) {
                return Ok(false);
            }
        }
        for (key, expr) in &pat.props {
            let want = self.eval_inner(expr, row, locals)?.to_value(self.graph);
            let have = self
                .graph
                .node(node)
                .map(|n| n.props.get_or_null(key))
                .unwrap_or(Value::Null);
            if have.cypher_eq(&want) != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The node a pattern node's variable is bound to in this row, if any.
fn bound_node(pat: &CPatNode, row: &Row, locals: &[Entry]) -> Option<NodeId> {
    let entry = match pat.var.as_ref()? {
        CExpr::Slot(i) => &row[*i],
        CExpr::Local(i) => &locals[*i],
        _ => return None,
    };
    match entry {
        Entry::Node(id) => Some(*id),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Whole-query compilation
// ---------------------------------------------------------------------------

/// A query compiled for repeated execution: one compiled operator per
/// clause, grouped into `UNION` segments. Produced by [`compile_query`],
/// run by the executor, and cached alongside the parsed AST by
/// [`crate::PlanCache`].
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// One operator list per `UNION` segment, 1:1 with its clauses.
    pub(crate) segments: Vec<Vec<CompiledOp>>,
    /// Some separator is `UNION ALL`: the merged rows keep duplicates.
    pub(crate) keep_duplicates: bool,
}

/// One clause, compiled.
#[derive(Debug, Clone)]
pub(crate) enum CompiledOp {
    Match(CMatch),
    Unwind(CUnwind),
    /// `WITH`.
    Project(CProject),
    Return(CProject),
    Create(CCreate),
    Merge(CMerge),
    Set(CSet),
    Delete(CDelete),
}

/// A compiled `MATCH`: the clause is kept for apply-time planning (anchor
/// scoring must see the live graph) while the `WHERE` predicate is
/// compiled once; pattern plans are lowered to symbol/slot form once per
/// apply, never per row.
#[derive(Debug, Clone)]
pub(crate) struct CMatch {
    pub clause: MatchClause,
    /// Environment expected before this clause runs (defensive check).
    pub env_before: Vec<String>,
    /// `WHERE`, compiled against the extended environment.
    pub where_c: Option<CExpr>,
    /// Set when only a sorted prefix of this clause's rows can reach the
    /// result (see [`order_hint`]).
    pub order: Option<COrder>,
}

/// How a `MATCH`'s rows are consumed when the projection right after it
/// keeps only the first `SKIP + LIMIT` of them in `ORDER BY var.key`
/// order: the planner may then walk the key's index and stop early.
#[derive(Debug, Clone)]
pub(crate) struct COrder {
    pub by: crate::plan::OrderBy,
    /// `SKIP` and `LIMIT`, each a constant or a parameter.
    pub skip: Option<CExpr>,
    pub limit: CExpr,
    /// Parameters the `WHERE`, items, sort key, `SKIP` and `LIMIT` read.
    /// A missing one would fail on some row, so it disables the walk.
    pub params: Vec<String>,
}

impl COrder {
    /// How many rows the walk must produce, `SKIP + LIMIT`: `None` (no
    /// walk) when a parameter is missing or a count is not a
    /// non-negative integer, which the full path reports.
    pub(crate) fn stop(&self, params: &Params) -> Option<usize> {
        if !self.params.iter().all(|p| params.contains_key(p)) {
            return None;
        }
        let count = |e: &CExpr| {
            let v = match e {
                CExpr::Const(v) => v,
                CExpr::Param(name) => params.get(name)?,
                _ => return None,
            };
            v.as_int().and_then(|i| usize::try_from(i).ok())
        };
        let skip = match &self.skip {
            Some(e) => count(e)?,
            None => 0,
        };
        Some(skip.saturating_add(count(&self.limit)?))
    }
}

/// A compiled `UNWIND`.
#[derive(Debug, Clone)]
pub(crate) struct CUnwind {
    pub var: String,
    pub env_before: Vec<String>,
    pub expr_c: CExpr,
}

/// One compiled aggregate call instance.
#[derive(Debug, Clone)]
pub(crate) struct CAggSpec {
    pub name: String,
    pub distinct: bool,
    /// `None` = `count(*)`; compiled against the pre-projection env.
    pub arg: Option<CExpr>,
    /// percentileCont's p, compiled against the pre-projection env.
    pub extra: Option<CExpr>,
}

/// A compiled `WITH` / `RETURN` projection: items (aggregate-rewritten),
/// grouping keys, aggregate arguments, `WHERE`, `ORDER BY`, `SKIP` and
/// `LIMIT`, each compiled once against the environment it runs in.
#[derive(Debug, Clone, Default)]
pub(crate) struct CProject {
    pub env_before: Vec<String>,
    /// False when a `RETURN` is not the final clause (errors at apply).
    pub is_last: bool,
    /// The projection has no items (`*` over an empty environment):
    /// errors at apply.
    pub empty: bool,
    pub out_names: Vec<String>,
    /// Item expressions with aggregates rewritten to `__aggN` slots,
    /// compiled against `env + __aggN`.
    pub rewritten: Vec<CExpr>,
    /// Grouping keys (non-aggregate items), compiled against env.
    pub keys_c: Vec<CExpr>,
    pub specs: Vec<CAggSpec>,
    /// Take the aggregation path: some item or `ORDER BY` key aggregates.
    pub use_agg: bool,
    pub distinct: bool,
    /// `WITH ... WHERE` calls an aggregate: errors once the items are
    /// projected, before filtering.
    pub where_agg: bool,
    /// `WITH ... WHERE`, compiled against the post-projection env.
    pub where_c: Option<CExpr>,
    /// `ORDER BY` keys (compiled against post env) and ascending flags.
    pub order_c: Vec<(CExpr, bool)>,
    /// `SKIP`/`LIMIT`, compiled against the pre-projection env and
    /// evaluated row-free.
    pub skip_c: Option<CExpr>,
    pub limit_c: Option<CExpr>,
    /// Post-projection appended indices into the evaluation row.
    pub appended: Vec<usize>,
    /// Pre-projection environment width (zero-row aggregation null row).
    pub env_len: usize,
}

/// A compiled `CREATE`.
#[derive(Debug, Clone)]
pub(crate) struct CCreate {
    pub env_before: Vec<String>,
    /// Variables this clause adds to the environment, in slot order.
    pub new_vars: Vec<String>,
    pub parts: Vec<CCreatePart>,
}

#[derive(Debug, Clone)]
pub(crate) struct CCreatePart {
    pub start: CCreateNode,
    pub hops: Vec<(CCreateRel, CCreateNode)>,
}

/// A node to create, or to reuse when its variable is already bound.
#[derive(Debug, Clone)]
pub(crate) struct CCreateNode {
    /// The variable's name and slot.
    pub var: Option<(String, usize)>,
    /// The variable was bound before this clause (a non-node binding is
    /// an error rather than a fresh slot).
    pub pre_bound: bool,
    pub labels: Vec<String>,
    pub props: Vec<(String, CExpr)>,
}

#[derive(Debug, Clone)]
pub(crate) struct CCreateRel {
    pub slot: Option<usize>,
    pub single: bool,
    pub rel_type: Option<String>,
    pub dir: RelDir,
    pub props: Vec<(String, CExpr)>,
}

/// A compiled single-node `MERGE`.
#[derive(Debug, Clone)]
pub(crate) struct CMerge {
    pub env_before: Vec<String>,
    /// The variable, when it is new to the environment.
    pub new_var: Option<String>,
    pub slot: Option<usize>,
    pub labels: Vec<String>,
    pub props: Vec<(String, CExpr)>,
}

/// A compiled `SET` (and `REMOVE`, which desugars to `SET … = null`).
#[derive(Debug, Clone)]
pub(crate) struct CSet {
    pub env_before: Vec<String>,
    pub items: Vec<CSetItem>,
}

#[derive(Debug, Clone)]
pub(crate) struct CSetItem {
    pub var: String,
    /// `None` when the variable is not defined (errors at apply).
    pub slot: Option<usize>,
    /// The property key, or `None` for `var += map`.
    pub key: Option<String>,
    pub expr: CExpr,
}

/// A compiled `DELETE` / `DETACH DELETE`.
#[derive(Debug, Clone)]
pub(crate) struct CDelete {
    pub env_before: Vec<String>,
    /// Each variable with its slot (`None` errors at apply).
    pub vars: Vec<(String, Option<usize>)>,
    pub detach: bool,
}

/// Compiles a parsed query into a [`CompiledQuery`].
///
/// Lowering is total, so this always returns `Some`: plan errors are
/// raised when execution reaches the offending clause (see the module
/// docs).
pub fn compile_query(q: &Query) -> Option<CompiledQuery> {
    Some(compile(q))
}

/// [`compile_query`] without the `Option`, timed into
/// [`compile_time_ns`].
pub(crate) fn compile(q: &Query) -> CompiledQuery {
    let t0 = std::time::Instant::now();
    let out = compile_inner(q);
    COMPILE_NS.with(|c| c.set(c.get().wrapping_add(t0.elapsed().as_nanos() as u64)));
    out
}

thread_local! {
    static COMPILE_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The current thread's monotonic total of nanoseconds spent compiling
/// queries. Stage timers measure compilation by taking a delta around a
/// prepare call — the same before/after idiom as
/// [`crate::plan::plan_time_ns`].
pub fn compile_time_ns() -> u64 {
    COMPILE_NS.with(|c| c.get())
}

fn compile_inner(q: &Query) -> CompiledQuery {
    let mut segments = vec![Vec::new()];
    let mut keep_duplicates = false;
    // Simulated environment: evolution is a pure function of the AST,
    // mirroring the executor's env step for step.
    let mut env: Vec<String> = Vec::new();
    for (i, clause) in q.clauses.iter().enumerate() {
        let is_last = q
            .clauses
            .get(i + 1)
            .is_none_or(|c| matches!(c, Clause::Union { .. }));
        let op = match clause {
            Clause::Union { all } => {
                keep_duplicates |= *all;
                segments.push(Vec::new());
                env.clear();
                continue;
            }
            Clause::Match(m) => {
                let env_before = env.clone();
                for part in &m.patterns {
                    extend_with_part(&mut env, part);
                }
                CompiledOp::Match(CMatch {
                    clause: m.clone(),
                    env_before,
                    where_c: m
                        .where_clause
                        .as_ref()
                        .map(|w| compile_scoped(&env, &mut Vec::new(), w)),
                    order: None,
                })
            }
            Clause::Unwind { expr, var } => {
                let op = CUnwind {
                    var: var.clone(),
                    env_before: env.clone(),
                    expr_c: compile_scoped(&env, &mut Vec::new(), expr),
                };
                env.push(var.clone());
                CompiledOp::Unwind(op)
            }
            Clause::With(p) | Clause::Return(p) => {
                let env_in = env.clone();
                let is_with = matches!(clause, Clause::With(_));
                let proj = compile_project(&mut env, p, is_with || is_last);
                if let [CompiledOp::Match(m)] =
                    segments.last_mut().expect("nonempty").as_mut_slice()
                {
                    m.order = order_hint(m, &env_in, &proj);
                }
                if is_with {
                    CompiledOp::Project(proj)
                } else {
                    CompiledOp::Return(proj)
                }
            }
            Clause::Create { patterns } => CompiledOp::Create(compile_create(&mut env, patterns)),
            Clause::Merge { node } => {
                let env_before = env.clone();
                let new_var = node.var.clone().filter(|v| !env.contains(v));
                env.extend(new_var.clone());
                CompiledOp::Merge(CMerge {
                    slot: node.var.as_ref().and_then(|v| slot_of(&env, v)),
                    new_var,
                    labels: node.labels.clone(),
                    props: compile_props(&env, &mut Vec::new(), &node.props),
                    env_before,
                })
            }
            Clause::Set { items } => CompiledOp::Set(CSet {
                env_before: env.clone(),
                items: items
                    .iter()
                    .map(|item| {
                        let (var, key, expr) = match item {
                            SetItem::Prop { var, key, expr } => (var, Some(key.clone()), expr),
                            SetItem::MergeMap { var, expr } => (var, None, expr),
                        };
                        CSetItem {
                            var: var.clone(),
                            slot: slot_of(&env, var),
                            key,
                            expr: compile_scoped(&env, &mut Vec::new(), expr),
                        }
                    })
                    .collect(),
            }),
            Clause::Delete { vars, detach } => CompiledOp::Delete(CDelete {
                env_before: env.clone(),
                vars: vars.iter().map(|v| (v.clone(), slot_of(&env, v))).collect(),
                detach: *detach,
            }),
        };
        segments.last_mut().expect("nonempty").push(op);
    }
    CompiledQuery {
        segments,
        keep_duplicates,
    }
}

/// The [`COrder`] of a segment's first clause `m`, given the projection
/// `p` that directly follows it (`env` is the environment between them).
///
/// Requires a non-optional `MATCH` of one bare `(var:Label)` pattern, a
/// projection without aggregation, `DISTINCT` or `WHERE` that sorts by
/// `var.key` alone (written out, or through an alias or a renamed `var`)
/// and has a constant or parameter `LIMIT`. The walk evaluates only the
/// rows it keeps, so the `MATCH`'s `WHERE` and every item must be unable
/// to fail on a row it skips: see [`infallible`].
fn order_hint(m: &CMatch, env: &[String], p: &CProject) -> Option<COrder> {
    let part = match m.clause.patterns.as_slice() {
        [part] if !m.clause.optional => part,
        _ => return None,
    };
    let node = &part.start;
    let simple = part.hops.is_empty()
        && part.path_var.is_none()
        && !part.shortest
        && node.labels.len() == 1
        && node.props.is_empty();
    let var = node.var.as_ref()?;
    if !simple || p.empty || p.use_agg || p.distinct || p.where_agg || p.where_c.is_some() {
        return None;
    }
    let var_slot = slot_of(env, var)?;
    let [(sort_key, ascending)] = p.order_c.as_slice() else {
        return None;
    };
    // The sort key is evaluated in the post-projection row: the items,
    // then the evaluation slots the items do not shadow.
    let is_var = |post_slot: usize| match p.rewritten.get(post_slot) {
        Some(item) => *item == CExpr::Slot(var_slot),
        None => p.appended.get(post_slot - p.rewritten.len()) == Some(&var_slot),
    };
    let key = match sort_key {
        CExpr::Prop(base, key) if matches!(**base, CExpr::Slot(i) if is_var(i)) => key,
        CExpr::Slot(i) => match p.rewritten.get(*i)? {
            CExpr::Prop(base, key) if **base == CExpr::Slot(var_slot) => key,
            _ => return None,
        },
        _ => return None,
    };
    let count_expr = |e: &CExpr| matches!(e, CExpr::Const(_) | CExpr::Param(_));
    let limit = p.limit_c.clone().filter(count_expr)?;
    if !p.skip_c.as_ref().is_none_or(count_expr) {
        return None;
    }
    let mut params = Vec::new();
    let checked = m
        .where_c
        .iter()
        .chain(&p.rewritten)
        .chain([sort_key, &limit]);
    for e in checked.chain(&p.skip_c) {
        if !infallible(e, &mut params) {
            return None;
        }
    }
    Some(COrder {
        by: crate::plan::OrderBy {
            var: var.clone(),
            key: key.clone(),
            descending: !ascending,
        },
        skip: p.skip_c.clone(),
        limit,
        params,
    })
}

/// Can evaluating `e` never fail, given its parameters (collected into
/// `params`) are present? True for constants, bound slots, parameters,
/// property reads, null tests, comparisons, string predicates and boolean
/// connectives over such expressions; everything else (arithmetic,
/// functions, `NOT` of a non-boolean, unbound names, …) may fail.
fn infallible(e: &CExpr, params: &mut Vec<String>) -> bool {
    use BinOp::*;
    match e {
        CExpr::Const(_) | CExpr::Slot(_) => true,
        CExpr::Param(name) => {
            params.push(name.clone());
            true
        }
        CExpr::Prop(b, _) | CExpr::IsNull(b, _) => infallible(b, params),
        CExpr::Bin(
            Eq | Neq | Lt | Le | Gt | Ge | StartsWith | EndsWith | Contains | And | Or | Xor,
            a,
            b,
        ) => infallible(a, params) && infallible(b, params),
        _ => false,
    }
}

fn slot_of(env: &[String], var: &str) -> Option<usize> {
    env.iter().position(|n| n == var)
}

/// Appends the variables `part` binds that `env` lacks.
fn extend_with_part(env: &mut Vec<String>, part: &PatternPart) {
    let mut vars = Vec::new();
    crate::plan::collect_part_vars(part, &mut vars);
    for v in vars {
        if !env.contains(&v) {
            env.push(v);
        }
    }
}

fn compile_create(env: &mut Vec<String>, patterns: &[PatternPart]) -> CCreate {
    let env_before = env.clone();
    for part in patterns {
        extend_with_part(env, part);
    }
    let env: &[String] = env;
    let node = |n: &NodePattern| CCreateNode {
        var: n
            .var
            .as_ref()
            .map(|v| (v.clone(), slot_of(env, v).expect("extended above"))),
        pre_bound: n.var.as_ref().is_some_and(|v| env_before.contains(v)),
        labels: n.labels.clone(),
        props: compile_props(env, &mut Vec::new(), &n.props),
    };
    let parts = patterns
        .iter()
        .map(|part| CCreatePart {
            start: node(&part.start),
            hops: part
                .hops
                .iter()
                .map(|(r, n)| {
                    let rel = CCreateRel {
                        slot: r.var.as_ref().and_then(|v| slot_of(env, v)),
                        single: r.hops.is_single(),
                        rel_type: r.types.first().cloned(),
                        dir: r.dir,
                        props: compile_props(env, &mut Vec::new(), &r.props),
                    };
                    (rel, node(n))
                })
                .collect(),
        })
        .collect();
    CCreate {
        new_vars: env[env_before.len()..].to_vec(),
        env_before,
        parts,
    }
}

fn compile_project(env: &mut Vec<String>, p: &ProjectionClause, is_last: bool) -> CProject {
    // Expand `*` into explicit items.
    let mut items: Vec<ProjectionItem> = Vec::new();
    if p.star {
        for name in env.iter() {
            items.push(ProjectionItem {
                expr: Expr::Var(name.clone()),
                alias: Some(name.clone()),
            });
        }
    }
    items.extend(p.items.iter().cloned());
    if items.is_empty() {
        return CProject {
            env_before: std::mem::take(env),
            is_last,
            empty: true,
            ..CProject::default()
        };
    }

    let has_agg = items.iter().any(|it| it.expr.contains_aggregate())
        || p.order_by.iter().any(|k| k.expr.contains_aggregate());

    let mut specs_ast: Vec<crate::exec::aggregate::AggSpec> = Vec::new();
    let rewritten_ast: Vec<Expr> = items
        .iter()
        .map(|it| crate::exec::aggregate::extract_aggs(&it.expr, &mut specs_ast))
        .collect();
    let order_rewritten_ast: Vec<Expr> = p
        .order_by
        .iter()
        .map(|k| crate::exec::aggregate::extract_aggs(&k.expr, &mut specs_ast))
        .collect();

    let out_names: Vec<String> = items.iter().map(|it| it.name()).collect();

    let mut eval_env: Vec<String> = env.clone();
    for i in 0..specs_ast.len() {
        eval_env.push(format!("__agg{i}"));
    }
    let compile_in = |names: &[String], e: &Expr| compile_scoped(names, &mut Vec::new(), e);

    let rewritten = rewritten_ast
        .iter()
        .map(|e| compile_in(&eval_env, e))
        .collect();

    let keys_c = items
        .iter()
        .filter(|it| !it.expr.contains_aggregate())
        .map(|it| compile_in(env, &it.expr))
        .collect();

    let specs = specs_ast
        .iter()
        .map(|s| CAggSpec {
            name: s.name.clone(),
            distinct: s.distinct,
            arg: s.arg.as_ref().map(|e| compile_in(env, e)),
            extra: s.extra.as_ref().map(|e| compile_in(env, e)),
        })
        .collect();

    // Post-projection environment: projected names, then non-shadowed
    // evaluation-context names.
    let appended: Vec<usize> = eval_env
        .iter()
        .enumerate()
        .filter(|(_, n)| !out_names.contains(n))
        .map(|(i, _)| i)
        .collect();
    let mut post_names = out_names.clone();
    for &i in &appended {
        post_names.push(eval_env[i].clone());
    }

    let mut where_agg = false;
    let where_c = p.where_clause.as_ref().and_then(|w| {
        let mut w_specs = Vec::new();
        let w_re = crate::exec::aggregate::extract_aggs(w, &mut w_specs);
        where_agg = !w_specs.is_empty();
        (!where_agg).then(|| compile_in(&post_names, &w_re))
    });

    let order_c = order_rewritten_ast
        .iter()
        .zip(p.order_by.iter())
        .map(|(e, k)| (compile_in(&post_names, e), k.ascending))
        .collect();

    let out = CProject {
        env_before: env.clone(),
        is_last,
        empty: false,
        out_names: out_names.clone(),
        rewritten,
        keys_c,
        specs,
        use_agg: has_agg || !specs_ast.is_empty(),
        distinct: p.distinct,
        where_agg,
        where_c,
        order_c,
        skip_c: p.skip.as_ref().map(|e| compile_in(env, e)),
        limit_c: p.limit.as_ref().map(|e| compile_in(env, e)),
        appended,
        env_len: env.len(),
    };
    *env = out_names;
    out
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledQuery>();
    assert_send_sync::<CompiledExpr>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn eval(src: &str) -> Result<Value, CypherError> {
        let graph = Graph::new();
        let params = Params::new();
        let c = compile_expr(&Env::new(), &parse_expression(src).unwrap());
        Evaluator {
            graph: &graph,
            params: &params,
        }
        .eval_value(&c, &Vec::new())
    }

    #[test]
    fn constant_folding_keeps_values() {
        for (src, want) in [
            ("1 + 2 * 3", Value::Int(7)),
            ("2 ^ 10", Value::Float(1024.0)),
            ("null AND false", Value::Bool(false)),
            ("null OR true", Value::Bool(true)),
            ("NOT null", Value::Null),
            ("[10, 20, 30][-1]", Value::Int(30)),
            ("[10, 20, 30][0..2]", Value::from(vec![10i64, 20])),
            ("'AS2497' =~ 'AS.*'", Value::Bool(true)),
            ("CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END", Value::from("b")),
            ("{a: 1, b: [2, 3]}.b[0]", Value::Int(2)),
            ("2 IN [1, 2, 3]", Value::Bool(true)),
            ("4 IN [1, null]", Value::Null),
        ] {
            assert_eq!(eval(src).unwrap(), want, "{src}");
        }
    }

    #[test]
    fn folded_constants_are_const_nodes() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(compile_expr(&Env::new(), &e).0, CExpr::Const(Value::Int(7)));
    }

    #[test]
    fn failed_folds_stay_lazy() {
        // `NOT 1` errors; the fold must not surface it eagerly, and
        // short-circuiting must still hide it at runtime.
        let e = parse_expression("false AND (NOT 1)").unwrap();
        assert_ne!(
            compile_expr(&Env::new(), &e).0,
            CExpr::Const(Value::Bool(false)),
            "erroring subtree must not fold"
        );
        assert_eq!(eval("false AND (NOT 1)").unwrap(), Value::Bool(false));
        // And when reached, the error surfaces.
        assert_eq!(
            eval("true AND (NOT 1)").unwrap_err().message,
            "NOT expects a boolean, got INTEGER"
        );
    }

    #[test]
    fn unbound_variable_errors_at_eval() {
        assert_eq!(
            eval("ghost + 1").unwrap_err().message,
            "variable 'ghost' is not defined"
        );
    }

    #[test]
    fn slots_resolve_against_env() {
        let mut env = Env::new();
        env.push("a");
        env.push("b");
        let e = parse_expression("b").unwrap();
        assert_eq!(compile_expr(&env, &e).0, CExpr::Slot(1));
    }

    #[test]
    fn listcomp_binder_shadows_env_slot() {
        let mut env = Env::new();
        env.push("x");
        let e = parse_expression("[x IN [1, 2, 3] | x * 10]").unwrap();
        let c = compile_expr(&env, &e);
        let graph = Graph::new();
        let params = Params::new();
        let ctx = Evaluator {
            graph: &graph,
            params: &params,
        };
        // Row binds env's x to 99; the comprehension variable shadows it.
        let row = vec![Entry::Val(Value::Int(99))];
        assert_eq!(
            ctx.eval_value(&c, &row).unwrap(),
            Value::from(vec![10i64, 20, 30])
        );
    }

    #[test]
    fn exists_pattern_compiles() {
        let mut env = Env::new();
        env.push("a");
        let e = parse_expression("exists((a)-[:PEERS_WITH]->(b))").unwrap();
        assert!(matches!(compile_expr(&env, &e).0, CExpr::ExistsPattern(_)));
    }

    #[test]
    fn compile_query_covers_reads_and_writes() {
        for src in [
            "MATCH (a:AS) WHERE a.asn > 1 RETURN a.asn ORDER BY a.asn",
            "CREATE (a:AS {asn: 1})",
            "MATCH (a:AS) WHERE exists((a)-[:PEERS_WITH]->()) RETURN a",
            "MATCH (a:AS) WITH a WHERE count(a) > 1 RETURN a",
            "RETURN 1 AS x UNION ALL RETURN 2 AS x",
        ] {
            let q = crate::parser::parse(src).unwrap();
            let c = compile_query(&q).expect("lowering is total");
            let ops: usize = c.segments.iter().map(Vec::len).sum();
            let separators = q
                .clauses
                .iter()
                .filter(|c| matches!(c, Clause::Union { .. }))
                .count();
            assert_eq!(ops + separators, q.clauses.len(), "{src}");
        }
    }
}
