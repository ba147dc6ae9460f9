//! The query executor: runs a [`CompiledQuery`] as a pipeline of compiled
//! operators over materialized row sets, with index-aware pattern
//! matching planned by [`crate::plan`].
//!
//! Every entry point lowers the parsed query with
//! [`crate::compile::compile_query`] (or takes a form lowered earlier), so
//! reads and writes, `PROFILE` and `EXPLAIN` all run the same operators.
//! Each clause of a `UNION` segment is one `CompiledOp`; the driver
//! threads a row set through them, all of which draw on a shared
//! `ExecContext` for graph access, parameters, wall-clock limits, and the
//! intermediate-row budget.
//!
//! Module map:
//!
//! | module        | operators |
//! |---------------|-----------|
//! | `context`   | [`ExecLimits`] and the shared `ExecContext` |
//! | `expand`    | `MATCH` / `OPTIONAL MATCH`: anchor access paths, pattern and variable-length expansion, `shortestPath`, `WHERE` pushdown, morsel-parallel fan-out |
//! | `project`   | `WITH` / `RETURN` projection, grouping, DISTINCT, `ORDER BY`, `SKIP`, `LIMIT` |
//! | `aggregate` | aggregate-call extraction and accumulators |
//! | `unwind`    | `UNWIND` |
//! | `union`     | `UNION` result merging |
//! | [`write`]     | `CREATE`, `MERGE`, `SET`, `DELETE` |

pub(crate) mod aggregate;
pub(crate) mod context;
pub(crate) mod expand;
pub(crate) mod project;
pub(crate) mod union;
pub(crate) mod unwind;
pub(crate) mod write;

use crate::ast::Query;
use crate::compile::{compile, CompiledOp, CompiledQuery};
use crate::error::CypherError;
use crate::eval::{Env, Params, Row};
use crate::profile::{ProfileCollector, QueryProfile};
use crate::result::QueryResult;
use iyp_graphdb::Graph;

use context::ExecContext;
pub use context::ExecLimits;

/// Hard cap on intermediate row counts — protects against pattern
/// explosions on dense graphs.
pub const MAX_ROWS: usize = 2_000_000;

/// Default cap for unbounded variable-length patterns (`*` / `*2..`).
pub const VARLEN_CAP: u32 = 8;

/// Parses and executes a read-only query with no parameters.
pub fn query(graph: &Graph, src: &str) -> Result<QueryResult, CypherError> {
    let q = crate::parser::parse(src)?;
    execute_read(graph, &q, &Params::new())
}

/// Parses and executes a read-only query under a wall-clock deadline —
/// the entry point for services executing untrusted Cypher.
pub fn query_with_deadline(
    graph: &Graph,
    src: &str,
    params: &Params,
    timeout: std::time::Duration,
) -> Result<QueryResult, CypherError> {
    let q = crate::parser::parse(src)?;
    let mut src_graph = ReadOnly(graph);
    run(&mut src_graph, &q, params, ExecLimits::timeout(timeout))
}

/// Parses and executes a read-only query with parameters.
pub fn query_with(graph: &Graph, src: &str, params: &Params) -> Result<QueryResult, CypherError> {
    let q = crate::parser::parse(src)?;
    execute_read(graph, &q, params)
}

/// Parses and executes a query that may contain write clauses.
pub fn update(graph: &mut Graph, src: &str) -> Result<QueryResult, CypherError> {
    let q = crate::parser::parse(src)?;
    execute(graph, &q, &Params::new())
}

/// Executes a parsed read-only query. Write clauses produce a plan error.
pub fn execute_read(graph: &Graph, q: &Query, params: &Params) -> Result<QueryResult, CypherError> {
    execute_read_with_limits(graph, q, params, ExecLimits::none())
}

/// Executes a parsed read-only query under explicit limits — the entry
/// point for callers that cache parsed queries (see [`crate::cache`]) and
/// still need per-execution deadlines.
pub fn execute_read_with_limits(
    graph: &Graph,
    q: &Query,
    params: &Params,
    limits: ExecLimits,
) -> Result<QueryResult, CypherError> {
    let mut src = ReadOnly(graph);
    run(&mut src, q, params, limits)
}

/// Executes a parsed query, allowing writes.
pub fn execute(graph: &mut Graph, q: &Query, params: &Params) -> Result<QueryResult, CypherError> {
    let mut src = ReadWrite(graph);
    run(&mut src, q, params, ExecLimits::none())
}

/// Executes a read-only query whose compiled form was produced earlier
/// (typically by [`crate::cache::PlanCache::prepare`]), skipping the
/// per-execution compilation that [`execute_read_with_limits`] performs.
/// `compiled` must come from `q`; given `None`, `q` is compiled here.
pub fn execute_prepared_with_limits(
    graph: &Graph,
    q: &Query,
    compiled: Option<&CompiledQuery>,
    params: &Params,
    limits: ExecLimits,
) -> Result<QueryResult, CypherError> {
    let mut src = ReadOnly(graph);
    match compiled {
        Some(c) => run_compiled(&mut src, c, params, limits, None),
        None => run(&mut src, q, params, limits),
    }
}

/// Read-only or read-write access to the graph under execution.
pub(crate) trait GraphSource {
    fn g(&self) -> &Graph;
    fn g_mut(&mut self) -> Result<&mut Graph, CypherError>;
}

struct ReadOnly<'a>(&'a Graph);
impl GraphSource for ReadOnly<'_> {
    fn g(&self) -> &Graph {
        self.0
    }
    fn g_mut(&mut self) -> Result<&mut Graph, CypherError> {
        Err(CypherError::plan(
            "write clause not allowed in read-only execution",
        ))
    }
}

struct ReadWrite<'a>(&'a mut Graph);
impl GraphSource for ReadWrite<'_> {
    fn g(&self) -> &Graph {
        self.0
    }
    fn g_mut(&mut self) -> Result<&mut Graph, CypherError> {
        Ok(self.0)
    }
}

pub(crate) fn env_mismatch() -> CypherError {
    CypherError::plan("internal: compiled environment mismatch")
}

impl CompiledOp {
    /// Operator name, as shown in `PROFILE`.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            CompiledOp::Match(m) if m.clause.optional => "OptionalMatch",
            CompiledOp::Match(_) => "Match",
            CompiledOp::Unwind(_) => "Unwind",
            CompiledOp::Project(_) => "Project",
            CompiledOp::Return(_) => "Return",
            CompiledOp::Create(_) => "Create",
            CompiledOp::Merge(_) => "Merge",
            CompiledOp::Set(_) => "Set",
            CompiledOp::Delete(_) => "Delete",
        }
    }

    /// Transforms the row set, possibly extending or replacing `env`.
    fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        match self {
            CompiledOp::Match(m) => m.apply(cx, env, rows),
            CompiledOp::Unwind(u) => u.apply(cx, env, rows),
            CompiledOp::Project(p) => p.apply(cx, env, rows),
            CompiledOp::Return(p) if !p.is_last => {
                Err(CypherError::plan("RETURN must be the final clause"))
            }
            CompiledOp::Return(p) => p.apply(cx, env, rows),
            CompiledOp::Create(c) => c.apply(cx, env, rows),
            CompiledOp::Merge(m) => m.apply(cx, env, rows),
            CompiledOp::Set(s) => s.apply(cx, env, rows),
            CompiledOp::Delete(d) => d.apply(cx, env, rows),
        }
    }
}

/// Executes a parsed read-only query with per-operator measurement,
/// returning the result alongside the [`QueryProfile`]. Prefer the
/// convenience wrappers in [`crate::profile`].
pub(crate) fn profile_read(
    graph: &Graph,
    q: &Query,
    params: &Params,
    limits: ExecLimits,
) -> Result<(QueryResult, QueryProfile), CypherError> {
    let mut src = ReadOnly(graph);
    let mut collector = ProfileCollector::new();
    let compiled = compile(q);
    let t0 = std::time::Instant::now();
    let result = run_compiled(&mut src, &compiled, params, limits, Some(&mut collector))?;
    let total = t0.elapsed();
    let rows = result.rows.len() as u64;
    Ok((result, collector.finish(total, rows)))
}

fn run<G: GraphSource>(
    src: &mut G,
    q: &Query,
    params: &Params,
    limits: ExecLimits,
) -> Result<QueryResult, CypherError> {
    run_compiled(src, &compile(q), params, limits, None)
}

fn run_compiled<G: GraphSource>(
    src: &mut G,
    compiled: &CompiledQuery,
    params: &Params,
    limits: ExecLimits,
    prof: Option<&mut ProfileCollector>,
) -> Result<QueryResult, CypherError> {
    match compiled.segments.as_slice() {
        [ops] => run_single(src, ops, params, limits, prof),
        _ => union::run_segments(src, compiled, params, limits, prof),
    }
}

pub(crate) fn run_single<G: GraphSource>(
    src: &mut G,
    ops: &[CompiledOp],
    params: &Params,
    limits: ExecLimits,
    mut prof: Option<&mut ProfileCollector>,
) -> Result<QueryResult, CypherError> {
    let mut cx = ExecContext::new(src, params, limits);
    let mut env = Env::new();
    let mut rows: Vec<Row> = vec![Vec::new()];
    let mut result = QueryResult::empty();
    for op in ops {
        // When profiling, bracket the operator with the clock and the
        // thread-local db-hit counter and record the deltas.
        let before = prof
            .as_ref()
            .map(|_| (std::time::Instant::now(), iyp_graphdb::dbhits::current()));
        rows = op.apply(&mut cx, &mut env, rows)?;
        if let (Some(p), Some((t0, h0))) = (prof.as_deref_mut(), before) {
            let hits = iyp_graphdb::dbhits::current().wrapping_sub(h0);
            p.record(op, cx.graph(), rows.len() as u64, hits, t0.elapsed());
        }
        if matches!(op, CompiledOp::Return(_)) {
            // RETURN: convert the projected entries into result values.
            result.columns = env.names;
            result.rows = rows
                .into_iter()
                .map(|r| r.into_iter().map(|e| e.to_value(cx.graph())).collect())
                .collect();
            return Ok(result);
        }
        cx.check_intermediate(rows.len())?;
    }
    // No RETURN: a write-only query; report affected row count as shape.
    Ok(result)
}
