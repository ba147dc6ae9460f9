//! `UNION` execution: runs each segment of a compiled query as its own
//! pipeline and merges the results — deduplicating unless some separator
//! was `UNION ALL`.

use crate::compile::CompiledQuery;
use crate::error::CypherError;
use crate::eval::Params;
use crate::profile::ProfileCollector;
use crate::result::QueryResult;
use iyp_graphdb::ValueKey;
use std::collections::HashSet;

use super::context::ExecLimits;
use super::GraphSource;

/// Runs each segment and merges the results. When profiling, each
/// segment's operators are recorded in order and a final synthetic
/// `Union` entry covers the merge/dedup step.
pub(crate) fn run_segments<G: GraphSource>(
    src: &mut G,
    compiled: &CompiledQuery,
    params: &Params,
    limits: ExecLimits,
    mut prof: Option<&mut ProfileCollector>,
) -> Result<QueryResult, CypherError> {
    let mut combined = QueryResult::empty();
    for (i, ops) in compiled.segments.iter().enumerate() {
        if ops.is_empty() {
            return Err(CypherError::plan("empty UNION branch"));
        }
        if let Some(p) = prof.as_deref_mut() {
            if i > 0 {
                p.segment_boundary();
            }
        }
        let result = super::run_single(src, ops, params, limits, prof.as_deref_mut())?;
        if i == 0 {
            combined.columns = result.columns;
        } else if combined.columns.len() != result.columns.len() {
            return Err(CypherError::plan(format!(
                "UNION branches return different column counts ({} vs {})",
                combined.columns.len(),
                result.columns.len()
            )));
        }
        combined.rows.extend(result.rows);
    }
    let merge_start = prof.as_ref().map(|_| std::time::Instant::now());
    if !compiled.keep_duplicates {
        let mut seen = HashSet::new();
        combined
            .rows
            .retain(|row| seen.insert(row.iter().map(ValueKey::of).collect::<Vec<_>>()));
    }
    if let (Some(p), Some(t0)) = (prof, merge_start) {
        p.record_synthetic("Union", combined.rows.len() as u64, t0.elapsed());
    }
    Ok(combined)
}
