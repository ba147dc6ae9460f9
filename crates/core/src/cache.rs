//! The two-tier query cache: plan reuse + epoch-invalidated result reuse.
//!
//! Text-to-Cypher traffic is dominated by repeated, templated queries over
//! a slowly changing graph, so both fixed per-query costs are cacheable:
//!
//! * **Tier 1 — plan cache** ([`iyp_cypher::PlanCache`]): normalized query
//!   text → parsed query, shared as `Arc<Query>` across threads. Hit on
//!   any repeat of the text, even when the result tier misses.
//! * **Tier 2 — result cache** (this module): `(normalized query, params)`
//!   → materialized [`QueryResult`], bounded LRU.
//!
//! Correctness rests on the graph's monotonic **write epoch**
//! ([`iyp_graphdb::Graph::epoch`]), read off the immutable
//! [`GraphSnapshot`] every query executes against: each entry records
//! the epoch it was computed at, and a lookup whose recorded epoch
//! differs from the snapshot's epoch discards the entry instead of
//! serving it. Any CREATE/MERGE/SET/DELETE bumps the epoch, and
//! [`iyp_graphdb::GraphStore`] keeps the epoch strictly increasing
//! across snapshot swaps, so a stale result can never be returned — not
//! within a snapshot's lifetime and not across an ingest — with no
//! invalidation bookkeeping to get wrong, at the cost of a full logical
//! flush on any write (the right trade for a read-mostly graph).
//!
//! Hits return the result behind an [`Arc`] so heavy rows are never
//! copied on the hot path; counters (hits, misses, evictions, epoch
//! invalidations) are exported via [`QueryCache::stats`] and surfaced by
//! the server's `/stats` endpoint.

use crate::obs::STAGE_METRIC;
use iyp_cypher::cache::Lru;
use iyp_cypher::{CypherError, ExecLimits, Params, PlanCache, QueryResult};
use iyp_graphdb::GraphSnapshot;
use iyp_obs::{Histogram, Registry};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of the query cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum resident results (tier 2).
    pub capacity: usize,
    /// Maximum resident parsed plans (tier 1).
    pub plan_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            plan_capacity: 512,
        }
    }
}

/// Counter snapshot of a [`QueryCache`], serialized into `/stats`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CacheStats {
    /// Result-tier lookups answered from the cache.
    pub hits: u64,
    /// Result-tier lookups that executed the query.
    pub misses: u64,
    /// Result entries dropped to make room.
    pub evictions: u64,
    /// Result entries discarded because the graph epoch moved.
    pub invalidations: u64,
    /// Live result entries.
    pub len: usize,
    /// Result-tier capacity.
    pub capacity: usize,
    /// Plan-tier counters.
    pub plan: iyp_cypher::PlanCacheStats,
}

struct CachedResult {
    result: Arc<QueryResult>,
    /// Graph epoch the result was computed at.
    epoch: u64,
}

/// Pre-resolved histogram handles for the per-query stages, so the hot
/// path records latencies without a registry probe.
struct StageTimers {
    cache_lookup: Arc<Histogram>,
    parse: Arc<Histogram>,
    compile: Arc<Histogram>,
    plan: Arc<Histogram>,
    execute: Arc<Histogram>,
}

impl StageTimers {
    fn new(registry: &Registry) -> StageTimers {
        let h = |stage| registry.histogram(STAGE_METRIC, &[("stage", stage)]);
        StageTimers {
            cache_lookup: h("cache_lookup"),
            parse: h("parse"),
            compile: h("compile"),
            plan: h("plan"),
            execute: h("execute"),
        }
    }
}

/// The two-tier cache. One instance is shared by the pipeline's `ask`
/// path and the server's `/cypher` endpoint, so both workloads warm the
/// same entries.
pub struct QueryCache {
    config: CacheConfig,
    plans: PlanCache,
    results: Mutex<Lru<CachedResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    /// Stage latency histograms, when a metric registry is attached.
    timers: Option<StageTimers>,
}

// Shared by server workers alongside the pipeline.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryCache>();
};

impl QueryCache {
    /// Builds a cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        QueryCache {
            plans: PlanCache::new(config.plan_capacity),
            results: Mutex::new(Lru::new(config.capacity)),
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            timers: None,
        }
    }

    /// Attaches a metric registry: the cache records per-query stage
    /// latencies (`cache_lookup`, `parse`, `plan`, `execute`) into
    /// [`STAGE_METRIC`] histograms resolved once here.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.timers = Some(StageTimers::new(registry));
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, Lru<CachedResult>> {
        self.results.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cache key: normalized query text plus canonically serialized
    /// parameters (`Params` is a `BTreeMap`, so serialization is
    /// deterministic). A NUL separates the parts — it cannot appear in
    /// the JSON params rendering, so keys never collide across the split.
    fn key(src: &str, params: &Params) -> String {
        let mut key = iyp_cypher::normalize_query(src);
        if !params.is_empty() {
            key.push('\0');
            key.push_str(&serde_json::to_string(params).expect("params serialize"));
        }
        key
    }

    /// Executes `src` read-only against `snap`, serving a cached result
    /// when one exists for the snapshot's write epoch.
    pub fn get_or_execute(
        &self,
        snap: &GraphSnapshot,
        src: &str,
        params: &Params,
    ) -> Result<Arc<QueryResult>, CypherError> {
        self.get_or_execute_with_limits(snap, src, params, ExecLimits::none())
    }

    /// [`QueryCache::get_or_execute`] with a wall-clock deadline applied
    /// to cold executions — the server's untrusted-Cypher entry point.
    pub fn get_or_execute_with_deadline(
        &self,
        snap: &GraphSnapshot,
        src: &str,
        params: &Params,
        timeout: Duration,
    ) -> Result<Arc<QueryResult>, CypherError> {
        self.get_or_execute_with_limits(snap, src, params, ExecLimits::timeout(timeout))
    }

    /// The general form: cold executions run under `limits`.
    pub fn get_or_execute_with_limits(
        &self,
        snap: &GraphSnapshot,
        src: &str,
        params: &Params,
        limits: ExecLimits,
    ) -> Result<Arc<QueryResult>, CypherError> {
        let key = Self::key(src, params);
        // The snapshot is immutable, so its epoch is the one the whole
        // query runs at — entries recorded here can only ever be served
        // to readers holding a snapshot with the same epoch.
        let epoch = snap.epoch();

        {
            let lookup_start = self.timers.as_ref().map(|_| Instant::now());
            let mut lru = self.lock();
            let verdict = lru
                .get(&key)
                .map(|entry| (entry.epoch == epoch).then(|| Arc::clone(&entry.result)));
            if let (Some(t), Some(t0)) = (&self.timers, lookup_start) {
                t.cache_lookup.observe(t0.elapsed());
            }
            match verdict {
                Some(Some(result)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(result);
                }
                Some(None) => {
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    lru.remove(&key);
                }
                None => {}
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let p = self.prepare_timed(src)?;
        let result = self.execute_timed(snap, &p, params, limits)?;
        let entry = CachedResult {
            result: Arc::clone(&result),
            epoch,
        };
        if self.lock().insert(key, entry) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(result)
    }

    /// Parses and compiles through the plan cache, splitting the wall
    /// clock into the `parse` and `compile` stages. Compilation happens
    /// inside [`iyp_cypher::PlanCache::prepare`] on plan-tier misses, so
    /// the split takes a delta of the compiler's thread-local clock
    /// ([`iyp_cypher::compile_time_ns`]); plan-tier hits record a
    /// zero-length `compile` observation (the compiled form is reused).
    fn prepare_timed(&self, src: &str) -> Result<iyp_cypher::Prepared, CypherError> {
        let Some(t) = &self.timers else {
            return self.plans.prepare(src);
        };
        let c0 = iyp_cypher::compile_time_ns();
        let t0 = Instant::now();
        let p = self.plans.prepare(src);
        let total_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let compile_ns = iyp_cypher::compile_time_ns().wrapping_sub(c0);
        t.compile.observe_ns(compile_ns);
        t.parse.observe_ns(total_ns.saturating_sub(compile_ns));
        p
    }

    /// Executes a cold query through its cached compiled form, splitting
    /// its wall clock into the `plan` and `execute` stages. Planning
    /// happens lazily inside `MATCH` execution, so the split takes a
    /// delta of the executor's thread-local planning clock
    /// ([`iyp_cypher::plan::plan_time_ns`]).
    fn execute_timed(
        &self,
        snap: &GraphSnapshot,
        prepared: &iyp_cypher::Prepared,
        params: &Params,
        limits: ExecLimits,
    ) -> Result<Arc<QueryResult>, CypherError> {
        let compiled = Some(prepared.compiled.as_ref());
        let Some(t) = &self.timers else {
            return Ok(Arc::new(iyp_cypher::execute_prepared_with_limits(
                snap.graph(),
                &prepared.query,
                compiled,
                params,
                limits,
            )?));
        };
        let plan0 = iyp_cypher::plan::plan_time_ns();
        let t0 = Instant::now();
        let result = iyp_cypher::execute_prepared_with_limits(
            snap.graph(),
            &prepared.query,
            compiled,
            params,
            limits,
        );
        let total_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let plan_ns = iyp_cypher::plan::plan_time_ns().wrapping_sub(plan0);
        t.plan.observe_ns(plan_ns);
        t.execute.observe_ns(total_ns.saturating_sub(plan_ns));
        Ok(Arc::new(result?))
    }

    /// Current counters and occupancy for both tiers.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            len: lru.len(),
            capacity: lru.capacity(),
            plan: self.plans.stats(),
        }
    }

    /// Drops every cached result and plan (counters are retained).
    pub fn clear(&self) {
        self.lock().clear();
        self.plans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_graphdb::{props, Graph, Props, Value};

    fn tiny_graph() -> GraphSnapshot {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
        let b = g.add_node(["AS"], props!("asn" => 15169i64, "name" => "Google"));
        let c = g.add_node(["Country"], props!("country_code" => "JP"));
        g.add_rel(a, "COUNTRY", c, Props::new()).unwrap();
        g.add_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        GraphSnapshot::new(g, 1)
    }

    #[test]
    fn hit_returns_same_allocation_and_counts() {
        let g = tiny_graph();
        let cache = QueryCache::new(CacheConfig::default());
        let q = "MATCH (a:AS) RETURN count(a)";
        let first = cache.get_or_execute(&g, q, &Params::new()).unwrap();
        let second = cache.get_or_execute(&g, q, &Params::new()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert_eq!(s.plan.misses, 1);
    }

    #[test]
    fn whitespace_variants_share_an_entry() {
        let g = tiny_graph();
        let cache = QueryCache::new(CacheConfig::default());
        let a = cache
            .get_or_execute(&g, "MATCH (a:AS) RETURN count(a)", &Params::new())
            .unwrap();
        let b = cache
            .get_or_execute(&g, "MATCH  (a:AS)\n RETURN count(a)", &Params::new())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn params_are_part_of_the_key() {
        let g = tiny_graph();
        let cache = QueryCache::new(CacheConfig::default());
        let q = "MATCH (a:AS) WHERE a.asn = $asn RETURN a.name";
        let mut p1 = Params::new();
        p1.insert("asn".into(), Value::Int(2497));
        let mut p2 = Params::new();
        p2.insert("asn".into(), Value::Int(15169));
        let r1 = cache.get_or_execute(&g, q, &p1).unwrap();
        let r2 = cache.get_or_execute(&g, q, &p2).unwrap();
        assert_eq!(r1.rows[0][0].to_string(), "IIJ");
        assert_eq!(r2.rows[0][0].to_string(), "Google");
        // Both miss (different keys), but share one cached plan.
        let s = cache.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.plan.misses, 1);
        assert_eq!(s.plan.hits, 1);
    }

    #[test]
    fn write_bumps_epoch_and_invalidates() {
        let snap = tiny_graph();
        let cache = QueryCache::new(CacheConfig::default());
        let q = "MATCH (a:AS) RETURN count(a)";
        let before = cache.get_or_execute(&snap, q, &Params::new()).unwrap();
        assert_eq!(before.rows[0][0], Value::Int(2));

        let mut g = snap.into_graph();
        iyp_cypher::update(&mut g, "CREATE (x:AS {asn: 64512})").unwrap();
        let snap = GraphSnapshot::new(g, 2);

        let after = cache.get_or_execute(&snap, q, &Params::new()).unwrap();
        assert_eq!(
            after.rows[0][0],
            Value::Int(3),
            "stale cached count served after a write"
        );
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn capacity_bounds_and_eviction_counts() {
        let g = tiny_graph();
        let cache = QueryCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        });
        for q in [
            "MATCH (a:AS) RETURN count(a)",
            "MATCH (c:Country) RETURN count(c)",
            "RETURN 1",
        ] {
            cache.get_or_execute(&g, q, &Params::new()).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn write_queries_are_refused_not_cached() {
        let g = tiny_graph();
        let cache = QueryCache::new(CacheConfig::default());
        assert!(cache
            .get_or_execute(&g, "CREATE (x:AS {asn: 1})", &Params::new())
            .is_err());
        assert_eq!(cache.stats().len, 0);
    }
}
