//! `PROFILE` support: execute a query and report, per operator, the rows
//! it emitted, the db hits it cost, and the wall-clock time it took.
//!
//! Where [`crate::explain()`] predicts a plan without running it, `PROFILE`
//! runs the pipeline with the driver bracketing every operator: rows come
//! from the operator's output, db hits from the thread-local
//! [`iyp_graphdb::dbhits`] counter, and time from the monotonic clock.
//! The plan text per operator is the same text `EXPLAIN` renders, so the
//! two read identically — `PROFILE` just adds the measured columns.
//!
//! Rendering comes in two flavors: [`QueryProfile::render`] includes
//! timings (for humans), [`QueryProfile::render_deterministic`] omits
//! them (rows and db hits are reproducible on a fixed dataset, so golden
//! tests pin that form).

use crate::compile::CompiledOp;
use crate::error::CypherError;
use crate::eval::Params;
use crate::exec::{self, ExecLimits};
use crate::parser::{parse_statement, QueryMode};
use crate::result::QueryResult;
use iyp_graphdb::Graph;
use std::fmt::Write as _;
use std::time::Duration;

/// Measured execution of one operator in the pipeline.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Operator name (e.g. `"MATCH"`, `"RETURN"`).
    pub name: String,
    /// The operator's plan text, as `EXPLAIN` would render it: first line
    /// is the numbered operator header, further lines are access-path and
    /// expansion details.
    pub plan: String,
    /// Rows the operator emitted.
    pub rows: u64,
    /// Db hits (storage accesses — see [`iyp_graphdb::dbhits`]) the
    /// operator cost.
    pub db_hits: u64,
    /// Wall-clock time spent inside the operator.
    pub elapsed: Duration,
}

/// The result of profiling one query: the executed operators in pipeline
/// order plus end-to-end totals.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Per-operator measurements, in execution order. `UNION` queries
    /// list every segment's operators, then a final `Union` merge entry.
    pub ops: Vec<OpProfile>,
    /// End-to-end execution wall clock.
    pub total: Duration,
    /// Rows in the final [`QueryResult`].
    pub result_rows: u64,
}

impl QueryProfile {
    /// Total db hits across all operators.
    pub fn total_db_hits(&self) -> u64 {
        self.ops.iter().map(|o| o.db_hits).sum()
    }

    /// Renders the profile as text: each operator's plan lines with
    /// `rows=… dbHits=… time=…` appended to its header line, then a
    /// totals line. Includes wall-clock times — for humans, not goldens.
    pub fn render(&self) -> String {
        self.render_inner(true)
    }

    /// Renders like [`render`](Self::render) but without wall-clock
    /// times, so output is reproducible on a fixed dataset. Golden tests
    /// pin this form.
    pub fn render_deterministic(&self) -> String {
        self.render_inner(false)
    }

    fn render_inner(&self, with_time: bool) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let mut lines = op.plan.lines();
            let header = lines.next().unwrap_or(&op.name);
            write!(out, "{header}  (rows={} dbHits={}", op.rows, op.db_hits).unwrap();
            if with_time {
                write!(out, " time={:?}", op.elapsed).unwrap();
            }
            out.push_str(")\n");
            for line in lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        write!(
            out,
            "returned {} row{}, {} db hits total",
            self.result_rows,
            if self.result_rows == 1 { "" } else { "s" },
            self.total_db_hits()
        )
        .unwrap();
        if with_time {
            write!(out, ", {:?}", self.total).unwrap();
        }
        out.push('\n');
        out
    }
}

/// Accumulates per-operator measurements while the driver runs a
/// profiled pipeline.
pub(crate) struct ProfileCollector {
    ops: Vec<OpProfile>,
    /// Variables bound so far, threaded through `explain_into` so later
    /// operators render bound-variable anchors correctly.
    bound: Vec<String>,
    idx: usize,
}

impl ProfileCollector {
    pub(crate) fn new() -> ProfileCollector {
        ProfileCollector {
            ops: Vec::new(),
            bound: Vec::new(),
            idx: 0,
        }
    }

    /// Records one operator's measured execution. Renders its plan text
    /// via `explain_into`, which also advances the bound-variable state.
    pub(crate) fn record(
        &mut self,
        op: &CompiledOp,
        graph: &Graph,
        rows: u64,
        db_hits: u64,
        elapsed: Duration,
    ) {
        let mut plan = String::new();
        op.explain_into(graph, &mut self.bound, self.idx, &mut plan);
        self.idx += 1;
        self.ops.push(OpProfile {
            name: op.name().to_string(),
            plan,
            rows,
            db_hits,
            elapsed,
        });
    }

    /// Records a synthetic pipeline step that is not a clause operator
    /// (the `UNION` merge).
    pub(crate) fn record_synthetic(&mut self, name: &str, rows: u64, elapsed: Duration) {
        let idx = self.idx;
        self.idx += 1;
        self.ops.push(OpProfile {
            name: name.to_string(),
            plan: format!("{idx:>2}. {name}\n"),
            rows,
            db_hits: 0,
            elapsed,
        });
    }

    /// Resets per-segment state at a `UNION` boundary: each segment is an
    /// independent pipeline with no variables bound.
    pub(crate) fn segment_boundary(&mut self) {
        self.bound.clear();
    }

    pub(crate) fn finish(self, total: Duration, result_rows: u64) -> QueryProfile {
        QueryProfile {
            ops: self.ops,
            total,
            result_rows,
        }
    }
}

/// Parses and profiles a read-only query: executes it with per-operator
/// measurement and returns the result alongside the profile. A leading
/// `PROFILE` keyword in `src` is accepted and ignored (the call itself
/// asks for profiling).
///
/// ```
/// use iyp_cypher::profile::profile;
/// use iyp_graphdb::{Graph, props};
///
/// let mut g = Graph::new();
/// for asn in 1..=5i64 {
///     g.add_node(["AS"], props!("asn" => asn));
/// }
/// let (result, prof) = profile(&g, "MATCH (a:AS) RETURN count(a)", &Default::default()).unwrap();
/// assert_eq!(result.rows.len(), 1);
/// assert_eq!(prof.result_rows, 1);
/// assert!(prof.total_db_hits() > 0);
/// assert!(prof.render_deterministic().contains("dbHits="));
/// ```
pub fn profile(
    graph: &Graph,
    src: &str,
    params: &Params,
) -> Result<(QueryResult, QueryProfile), CypherError> {
    profile_with_limits(graph, src, params, ExecLimits::none())
}

/// Like [`profile`], with execution limits — the entry point for services
/// profiling untrusted Cypher under a deadline.
pub fn profile_with_limits(
    graph: &Graph,
    src: &str,
    params: &Params,
    limits: ExecLimits,
) -> Result<(QueryResult, QueryProfile), CypherError> {
    let (mode, q) = parse_statement(src)?;
    if mode == QueryMode::Explain {
        return Err(CypherError::plan(
            "EXPLAIN renders a plan without executing; use explain() instead of profile()",
        ));
    }
    exec::profile_read(graph, &q, params, limits)
}
