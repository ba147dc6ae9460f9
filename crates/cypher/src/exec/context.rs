//! Shared execution state: the graph source, parameters, limits, and the
//! row budget every operator draws from.

use crate::error::CypherError;
use crate::eval::Params;
use iyp_graphdb::Graph;

use super::{GraphSource, MAX_ROWS};

/// How many deadline checks elapse between `Instant::now()` calls.
///
/// Reading the clock on every expansion step costs more than the step
/// itself on hot paths; polling once per stride keeps the overhead
/// negligible while still bounding detection latency to a few hundred
/// steps. The counter starts at zero so an already-expired deadline is
/// caught on the very first check.
pub(crate) const DEADLINE_CHECK_STRIDE: u32 = 256;

/// Execution limits and tuning: a wall-clock deadline checked during
/// pattern expansion (protecting services that execute untrusted Cypher)
/// and the worker count for morsel-parallel `MATCH`.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Abort with a runtime error once this instant passes.
    pub deadline: Option<std::time::Instant>,
    /// Worker threads for morsel-parallel `MATCH` expansion. `1` (the
    /// default) executes sequentially; results are byte-identical at any
    /// setting.
    pub parallelism: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            deadline: None,
            parallelism: 1,
        }
    }
}

impl ExecLimits {
    /// No limits (library default).
    pub fn none() -> Self {
        ExecLimits::default()
    }

    /// A deadline `timeout` from now.
    pub fn timeout(timeout: std::time::Duration) -> Self {
        ExecLimits {
            deadline: Some(std::time::Instant::now() + timeout),
            ..ExecLimits::default()
        }
    }

    /// Sets the morsel-parallel worker count (`0` is treated as `1`).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Reads the clock and compares against the deadline. Pattern
    /// expansion calls this through a per-worker check that amortizes the
    /// clock read over [`DEADLINE_CHECK_STRIDE`] calls.
    #[inline]
    pub(crate) fn check_now(&self) -> Result<(), CypherError> {
        if let Some(d) = self.deadline {
            if std::time::Instant::now() > d {
                return Err(CypherError::runtime(
                    "query exceeded its execution deadline",
                ));
            }
        }
        Ok(())
    }
}

/// The context shared by every operator in a query's pipeline: the graph
/// source (read-only or read-write), query parameters, execution limits,
/// and the intermediate-row budget.
pub(crate) struct ExecContext<'e> {
    src: &'e mut (dyn GraphSource + 'e),
    /// Query parameters (`$name` bindings).
    pub params: &'e Params,
    /// Wall-clock limits.
    pub limits: ExecLimits,
    /// Hard cap on intermediate row counts.
    pub max_rows: usize,
}

impl<'e> ExecContext<'e> {
    pub fn new(
        src: &'e mut (dyn GraphSource + 'e),
        params: &'e Params,
        limits: ExecLimits,
    ) -> Self {
        ExecContext {
            src,
            params,
            limits,
            max_rows: MAX_ROWS,
        }
    }

    /// The graph, for reading.
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.src.g()
    }

    /// The graph, for writing. Errors in read-only execution.
    pub fn graph_mut(&mut self) -> Result<&mut Graph, CypherError> {
        self.src.g_mut()
    }

    /// Charges one clause's output row count against the budget.
    pub fn check_intermediate(&self, len: usize) -> Result<(), CypherError> {
        if len > self.max_rows {
            let max = self.max_rows;
            return Err(CypherError::runtime(format!(
                "intermediate result exceeded {max} rows"
            )));
        }
        Ok(())
    }
}
