//! Plan caching: normalized query text → parsed query, shared across
//! threads.
//!
//! Parsing is the per-query fixed cost every execution pays before any row
//! is produced, and text-to-Cypher workloads repeat a small set of
//! templated queries heavily. The [`PlanCache`] stores the parsed
//! [`Query`] behind an [`Arc`] so concurrent executions share one plan
//! with no copying; parsing is side-effect-free and the AST is immutable,
//! which is what makes the shared plan safe (asserted `Send + Sync` at
//! compile time below).
//!
//! The cache also exports the building blocks the result cache in
//! `chatiyp-core` composes: the bounded [`Lru`] map and the
//! [`normalize_query`] keying function, so both tiers agree on what "the
//! same query text" means.

use crate::ast::Query;
use crate::compile::{compile, CompiledQuery};
use crate::error::CypherError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

// A cached plan is handed to arbitrary worker threads; the AST must be
// freely shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Query>();
    assert_send_sync::<PlanCache>();
};

/// Normalizes query text for cache keying: runs of ASCII whitespace
/// collapse to one space and surrounding whitespace is trimmed.
///
/// This is deliberately cheaper than full canonicalization (which would
/// require the very parse the plan cache exists to avoid): queries that
/// differ in keyword case or clause formatting key separately, which
/// costs a duplicate entry but never correctness.
pub fn normalize_query(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut in_ws = true; // leading whitespace is dropped
    for ch in src.chars() {
        if ch.is_ascii_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(ch);
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// A bounded least-recently-used map with string keys.
///
/// Recency is a monotonic tick stamped on every access; eviction scans for
/// the minimum stamp, which is O(len) but runs only when the map is full
/// and capacities are small (hundreds to a few thousand entries).
#[derive(Debug)]
pub struct Lru<V> {
    map: HashMap<String, Slot<V>>,
    capacity: usize,
    tick: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

impl<V> Lru<V> {
    /// An empty LRU holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            &slot.value
        })
    }

    /// Inserts (or replaces) an entry, evicting the least recently used
    /// one when full. Returns `true` when an eviction happened.
    pub fn insert(&mut self, key: String, value: V) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(
            key,
            Slot {
                value,
                last_used: self.tick,
            },
        );
        evicted
    }

    /// Removes an entry, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        self.map.remove(key).map(|slot| slot.value)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to parse.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Queries lowered to compiled form on a cache miss. Lowering is
    /// total, so this equals `misses`.
    pub compiled: u64,
    /// Live entries.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// A parsed query together with its compiled form, as cached by
/// [`PlanCache::prepare`].
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The parsed AST.
    pub query: Arc<Query>,
    /// The compiled pipeline.
    pub compiled: Arc<CompiledQuery>,
}

/// A bounded, thread-safe cache of parsed queries keyed by normalized
/// source text. Parse errors are not cached: a failing query re-parses
/// (and re-fails) on each attempt, keeping error reporting fresh.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Lru<Prepared>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compiled: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` parsed queries.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compiled: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru<Prepared>> {
        // A panic while holding the lock leaves only a cache (safe to
        // reuse: entries are immutable Arcs), so poisoning is ignored.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the parsed form of `src`, parsing at most once per
    /// normalized text while the entry stays resident.
    pub fn parse(&self, src: &str) -> Result<Arc<Query>, CypherError> {
        Ok(self.prepare(src)?.query)
    }

    /// Returns the parsed *and compiled* form of `src`, parsing and
    /// compiling at most once per normalized text while the entry stays
    /// resident.
    pub fn prepare(&self, src: &str) -> Result<Prepared, CypherError> {
        let key = normalize_query(src);
        if let Some(p) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let parsed = Arc::new(crate::parser::parse(src)?);
        let compiled = Arc::new(compile(&parsed));
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let prepared = Prepared {
            query: parsed,
            compiled,
        };
        if self.lock().insert(key, prepared.clone()) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(prepared)
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compiled: self.compiled.load(Ordering::Relaxed),
            len: inner.len(),
            capacity: inner.capacity(),
        }
    }

    /// Drops every cached plan (counters are retained).
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize_query("  MATCH (a:AS)\n\t RETURN  a.asn "),
            "MATCH (a:AS) RETURN a.asn"
        );
        // Case differences key separately (no parse, no case folding).
        assert_ne!(
            normalize_query("match (a) return a"),
            normalize_query("MATCH (a) RETURN a")
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<i32> = Lru::new(2);
        assert!(!lru.insert("a".into(), 1));
        assert!(!lru.insert("b".into(), 2));
        assert_eq!(lru.get("a"), Some(&1)); // refresh a; b is now oldest
        assert!(lru.insert("c".into(), 3));
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("c"), Some(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn plan_cache_hits_on_equivalent_whitespace() {
        let cache = PlanCache::new(8);
        let a = cache.parse("MATCH (a:AS) RETURN a.asn").unwrap();
        let b = cache.parse("MATCH   (a:AS)\n RETURN a.asn").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "whitespace variant missed the cache");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn plan_cache_does_not_cache_errors() {
        let cache = PlanCache::new(8);
        assert!(cache.parse("MATCH (").is_err());
        assert!(cache.parse("MATCH (").is_err());
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(s.len, 0);
    }

    #[test]
    fn plan_cache_bounded_and_counts_evictions() {
        let cache = PlanCache::new(2);
        cache.parse("RETURN 1").unwrap();
        cache.parse("RETURN 2").unwrap();
        cache.parse("RETURN 3").unwrap();
        let s = cache.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn cached_plan_executes_identically() {
        use iyp_graphdb::{props, Graph, Props};
        let mut g = Graph::new();
        let a = g.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
        let c = g.add_node(["Country"], props!("country_code" => "JP"));
        g.add_rel(a, "COUNTRY", c, Props::new()).unwrap();

        let src = "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN a.name, c.country_code";
        let fresh = crate::query(&g, src).unwrap();
        let cache = PlanCache::new(4);
        for _ in 0..3 {
            let plan = cache.parse(src).unwrap();
            let via_cache = crate::execute_read(&g, &plan, &crate::eval::Params::new()).unwrap();
            assert_eq!(fresh, via_cache);
        }
        assert_eq!(cache.stats().hits, 2);
    }
}
