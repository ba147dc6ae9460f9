//! The ChatIYP pipeline: user query → retrieval (symbolic, with semantic
//! fallback and reranking) → generation, with transparency output.

use crate::cache::QueryCache;
use crate::config::ChatIypConfig;
use crate::durability::{
    CheckpointReport, Durability, DurabilityConfig, DurabilityError, DurabilityStats,
    RecoveryReport,
};
use crate::index::RetrievalIndex;
use crate::obs::{
    CHECKPOINT_METRIC, INDEX_METRIC, STAGE_METRIC, SWAP_METRIC, WAL_APPEND_METRIC, WAL_FSYNC_METRIC,
};
use crate::resilience::{
    DegradedReason, FaultError, FaultPoint, ResilienceCounters, ResilienceCtx, ResilienceStats,
    RETRIEVE_BUDGET_SHARE,
};
use crate::response::{ChatResponse, ContextChunk, Route, Timings};
use crate::retriever::{StructuredRetrieval, TextToCypherRetriever};
use iyp_cypher::QueryResult;
use iyp_data::IypDataset;
use iyp_embed::tokenize::words;
use iyp_graphdb::wal::Wal;
use iyp_graphdb::{snapshot, DeltaBatch, DeltaError, GraphSnapshot, GraphStore, SwapReport};
use iyp_llm::{generate_answer, EntityCatalog, Intent, Reranker, SimLm, Translator};
use iyp_obs::{Registry, RingSink, Trace, TraceSink, TraceTree};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request's consistent view of the world: the graph snapshot and
/// the retrieval index derived from it, resolved together by
/// [`ChatIyp::resolve`]. Both halves describe the same published
/// version, and holding the handle keeps that version alive — later
/// ingests never mutate it.
#[derive(Clone, Debug)]
pub struct RetrievalHandle {
    /// The immutable graph snapshot the symbolic path reads.
    pub snapshot: Arc<GraphSnapshot>,
    /// The retrieval index (doc corpus + entity catalog) derived from
    /// exactly that snapshot.
    pub index: Arc<RetrievalIndex>,
}

/// What one [`ChatIyp::ingest`] did: the graph swap plus the paired
/// retrieval-index refresh.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The graph-side publish (versions, counts, apply/swap timings).
    pub graph: SwapReport,
    /// The version stamped into the refreshed retrieval index — always
    /// equal to `graph.new_version`, reported so callers can assert the
    /// pair stayed in lockstep.
    pub index_version: u64,
    /// Time deriving the document/catalog delta from the applied batch.
    pub derive: Duration,
    /// Time cloning the current index and patching it, off-lock.
    pub index_apply: Duration,
    /// Time publishing the `(snapshot, index)` pair — the only window a
    /// reader's [`ChatIyp::resolve`] can wait on.
    pub index_swap: Duration,
}

/// The assembled ChatIYP system.
///
/// The graph lives inside a [`GraphStore`] and the retrieval state (doc
/// corpus + entity catalog) inside a [`RetrievalIndex`] behind the same
/// publish discipline: readers resolve one consistent
/// `(snapshot, index)` pair per request ([`ChatIyp::resolve`]) and run
/// the whole request against it, while [`ChatIyp::ingest`] applies a
/// [`DeltaBatch`] off to the side, patches a copy of the index from the
/// delta, and publishes both with one paired swap — queries in flight
/// keep their pair, new queries see the new version on every path
/// (Cypher, semantic fallback, entity linking). Every stage takes
/// `&self`, so one instance answers concurrent [`ChatIyp::ask`] calls
/// from many threads.
pub struct ChatIyp {
    store: Arc<GraphStore>,
    /// The published retrieval index. Readers clone the `Arc` under the
    /// read lock *and load the graph snapshot inside the same critical
    /// section* ([`ChatIyp::resolve`]); the ingest path publishes the
    /// graph while holding the write lock, so a reader observes either
    /// (old graph, old index) or (new graph, new index), never a torn
    /// pair.
    index: RwLock<Arc<RetrievalIndex>>,
    /// Serializes ingests end-to-end (prepare → publish). The store has
    /// its own writer lock, but the index refresh is prepared off-lock
    /// from the *current* pair; two interleaved prepares would lose the
    /// first one's refresh.
    ingest_lock: Mutex<()>,
    config: ChatIypConfig,
    lm: SimLm,
    text2cypher: TextToCypherRetriever,
    reranker: Reranker,
    cache: QueryCache,
    registry: Arc<Registry>,
    traces: Arc<RingSink>,
    resilience: ResilienceStats,
    /// The WAL + checkpoint handle when the pipeline was opened over a
    /// data directory ([`ChatIyp::open_durable`]); `None` for the
    /// in-memory-only constructors.
    durability: Option<Durability>,
}

/// Why an [`ChatIyp::ingest`] was refused: a bad batch (the client's
/// fault, a `400`), or a durability failure (the WAL could not persist
/// the batch — nothing was published, the client should retry, a `503`).
#[derive(Debug)]
pub enum IngestError {
    /// The batch failed to apply — nothing published, request invalid.
    Delta(DeltaError),
    /// The WAL append failed or was fault-injected down — nothing
    /// published, safe to retry once the substrate recovers.
    Durability(DurabilityError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Delta(e) => e.fmt(f),
            IngestError::Durability(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<DeltaError> for IngestError {
    fn from(e: DeltaError) -> Self {
        IngestError::Delta(e)
    }
}

/// Why a raw Cypher execution (the `/cypher` path) did not produce a
/// result: a transient outage the caller should retry later, or a real
/// query error the caller must fix.
#[derive(Debug)]
pub enum CypherExecError {
    /// The resilience layer's `exec` fault point reported the execution
    /// substrate down — maps to `503 + Retry-After`, not a query error.
    Unavailable(FaultError),
    /// The engine rejected or failed the query — maps to `400`.
    Query(iyp_cypher::CypherError),
}

impl fmt::Display for CypherExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CypherExecError::Unavailable(e) => write!(f, "execution unavailable: {e}"),
            CypherExecError::Query(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CypherExecError {}

// The pipeline is shared read-only across server workers and bench
// threads; keep it that way.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ChatIyp>();
};

impl ChatIyp {
    /// Builds the pipeline over a generated dataset.
    pub fn new(dataset: IypDataset, config: ChatIypConfig) -> Self {
        let catalog = EntityCatalog::from_dataset(&dataset);
        let store = Arc::new(GraphStore::new(dataset.graph));
        let seed = store.load();
        let index = RetrievalIndex::from_graph_at(seed.graph(), seed.version(), seed.epoch())
            .with_catalog(catalog);
        Self::assemble(store, index, config, None)
    }

    /// Assembles the pipeline around an already-built store and index.
    fn assemble(
        store: Arc<GraphStore>,
        index: RetrievalIndex,
        config: ChatIypConfig,
        durability: Option<Durability>,
    ) -> Self {
        let lm = SimLm::new(config.lm.clone());
        let translator = Translator::new(lm.clone(), index.catalog().clone());
        let registry = Arc::new(Registry::new());
        let mut cache = QueryCache::new(config.cache.clone());
        cache.attach_registry(&registry);
        let traces = Arc::new(RingSink::new(config.trace_ring_capacity));
        ChatIyp {
            store,
            index: RwLock::new(Arc::new(index)),
            ingest_lock: Mutex::new(()),
            config,
            lm: lm.clone(),
            text2cypher: TextToCypherRetriever::new(translator),
            reranker: Reranker::new(lm),
            cache,
            registry,
            traces,
            resilience: ResilienceStats::default(),
            durability,
        }
    }

    /// Opens (or creates) a durable pipeline over a data directory:
    /// recovers the latest checkpoint, replays the WAL tail through the
    /// store's ingest path, rebuilds the retrieval index once from the
    /// recovered graph, and leaves the WAL open for the ingest path to
    /// append to.
    ///
    /// `base` produces the initial dataset when the directory holds no
    /// checkpoint — a first boot (or a post-checkpoint-loss rebuild); it
    /// must be deterministic for crash recovery to reproduce the same
    /// world (the CLI passes the seeded generator).
    ///
    /// Recovery tolerates a torn final WAL frame (the crash-mid-append
    /// signature; reported in [`RecoveryReport::torn_tail_bytes`]) but
    /// refuses interior corruption — see `iyp_graphdb::wal`.
    pub fn open_durable(
        config: ChatIypConfig,
        dcfg: &DurabilityConfig,
        base: impl FnOnce() -> IypDataset,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let t0 = Instant::now();
        let opened = Wal::open(&dcfg.data_dir, dcfg.wal_config())?;
        let checkpoint_path = dcfg.checkpoint_path();

        // Base world: the checkpoint if one exists, else the generated
        // dataset (which publishes as version 1, same as a fresh serve).
        let (store, checkpoint_version, catalog) = if checkpoint_path.exists() {
            let snap = snapshot::load_snapshot(&checkpoint_path)?;
            let version = snap.version();
            (GraphStore::from_snapshot(snap), Some(version), None)
        } else {
            let dataset = base();
            let catalog = EntityCatalog::from_dataset(&dataset);
            (GraphStore::new(dataset.graph), None, Some(catalog))
        };
        let load = t0.elapsed();

        // Replay the WAL tail: records at or below the base version are
        // already inside it; everything above must form a gapless
        // continuation. All surviving records apply to ONE working copy
        // of the base graph and land in ONE publish — replay cost is
        // O(total delta), not O(records) page-table clones, which is
        // half of why recovery beats re-ingesting batch by batch.
        let t1 = Instant::now();
        let mut replayed = 0u64;
        let base_snap = store.load();
        let mut graph = base_snap.graph().clone();
        let mut version = base_snap.version();
        for record in &opened.records {
            if record.version <= version {
                continue;
            }
            if record.version != version + 1 {
                return Err(DurabilityError::VersionGap {
                    expected: version + 1,
                    got: record.version,
                });
            }
            record
                .batch
                .apply(&mut graph)
                .map_err(|error| DurabilityError::Replay {
                    version: record.version,
                    error,
                })?;
            version += 1;
            replayed += 1;
        }
        let store = if replayed > 0 {
            GraphStore::from_snapshot(GraphSnapshot::new(graph, version))
        } else {
            store
        };
        let replay = t1.elapsed();

        // One index build over the final graph — this is what makes
        // replay an order of magnitude cheaper than re-ingesting each
        // batch through the HTTP path, which pays an incremental index
        // refresh (re-embedding affected docs) per batch.
        let t2 = Instant::now();
        let final_snap = store.load();
        let index = match catalog {
            Some(catalog) if replayed == 0 => RetrievalIndex::from_graph_at(
                final_snap.graph(),
                final_snap.version(),
                final_snap.epoch(),
            )
            .with_catalog(catalog),
            _ => RetrievalIndex::from_snapshot(&final_snap),
        };
        let index_build = t2.elapsed();

        let report = RecoveryReport {
            checkpoint_version,
            base_version: checkpoint_version.unwrap_or(1),
            replayed,
            torn_tail_bytes: opened
                .torn_tail
                .as_ref()
                .map(|t| t.dropped_bytes)
                .unwrap_or(0),
            load,
            replay,
            index_build,
        };
        let durability = Durability::new(opened.wal, checkpoint_path, checkpoint_version, replayed);
        let chat = Self::assemble(Arc::new(store), index, config, Some(durability));
        chat.registry
            .observe(STAGE_METRIC, &[("stage", "recovery")], t0.elapsed());
        Ok((chat, report))
    }

    /// Checkpoints the current snapshot: atomically writes it to
    /// `checkpoint.json` in the data directory (temp file + fsync +
    /// rename), then deletes WAL segments the checkpoint covers. Takes
    /// the ingest lock, so the saved version is exact — no publish can
    /// land between the save and the truncation.
    ///
    /// Errors with [`DurabilityError::NotConfigured`] on a pipeline
    /// without a data directory. Records [`CHECKPOINT_METRIC`].
    pub fn checkpoint(&self) -> Result<CheckpointReport, DurabilityError> {
        let Some(dur) = &self.durability else {
            return Err(DurabilityError::NotConfigured);
        };
        let _g = self.ingest_lock.lock();
        let t0 = Instant::now();
        let snap = self.store.load();
        snapshot::save_snapshot(&snap, dur.checkpoint_path())?;
        let snapshot_bytes = std::fs::metadata(dur.checkpoint_path())
            .map(|m| m.len())
            .unwrap_or(0);
        let (truncated_segments, wal) = dur.note_checkpoint(snap.version())?;
        let duration = t0.elapsed();
        self.registry.observe(CHECKPOINT_METRIC, &[], duration);
        Ok(CheckpointReport {
            version: snap.version(),
            snapshot_bytes,
            truncated_segments,
            wal,
            duration,
        })
    }

    /// Durability counters for `/stats` and `/metrics` — `None` when the
    /// pipeline runs without a data directory.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.durability.as_ref().map(Durability::stats)
    }

    /// The versioned store the pipeline reads through.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.store
    }

    /// Resolves the current graph snapshot. Callers should resolve once
    /// per request and use the returned handle throughout — it is
    /// immutable, so every read within the request is consistent even
    /// while an ingest publishes a newer version. Requests that also
    /// touch the semantic path should use [`ChatIyp::resolve`] to get
    /// the paired retrieval index from the same version.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.store.load()
    }

    /// Resolves one consistent `(snapshot, index)` pair. The graph load
    /// happens inside the index read critical section, and the ingest
    /// path publishes the graph while holding the index write lock, so
    /// the returned halves always describe the same published version —
    /// a request can interleave Cypher execution, entity linking and
    /// semantic retrieval without ever mixing worlds.
    pub fn resolve(&self) -> RetrievalHandle {
        let index = self.index.read();
        let snapshot = self.store.load();
        RetrievalHandle {
            snapshot,
            index: Arc::clone(&index),
        }
    }

    /// The retrieval index paired with the current snapshot.
    pub fn retrieval_index(&self) -> Arc<RetrievalIndex> {
        Arc::clone(&self.index.read())
    }

    /// Applies a mutation batch and publishes the resulting graph **and**
    /// a refreshed retrieval index as the next version, atomically as a
    /// pair. In-flight requests keep the pair they resolved; the
    /// epoch-keyed query cache invalidates lazily (entries recorded
    /// against the old snapshot can never validate against the new one).
    ///
    /// The expensive work happens off-lock: the batch is applied to a
    /// copy of the graph, the document/catalog delta is derived from the
    /// applied ops (`iyp_data::describe_delta`) and patched into a clone
    /// of the current index — only affected nodes are re-embedded, not
    /// the corpus. Readers are blocked only for the paired pointer swap.
    /// Records `clone`/`apply`/`swap` into [`SWAP_METRIC`] and
    /// `derive`/`apply`/`swap` into [`INDEX_METRIC`].
    ///
    /// On a durable pipeline ([`ChatIyp::open_durable`]), the validated
    /// batch is appended to the WAL (and fsynced per policy) **before**
    /// anything is published: a successful return means the batch is on
    /// disk, and a WAL failure ([`IngestError::Durability`]) publishes
    /// nothing — readers never see a version the log doesn't hold. WAL
    /// timings go to [`WAL_APPEND_METRIC`] / [`WAL_FSYNC_METRIC`].
    pub fn ingest(&self, batch: &DeltaBatch) -> Result<IngestReport, IngestError> {
        let _g = self.ingest_lock.lock();
        let base = self.store.load();

        // Graph: COW clone (pointer-copy of page tables) + O(delta)
        // apply, tracking which nodes changed.
        let t0 = Instant::now();
        let mut next_graph = base.graph().clone();
        let cloned = t0.elapsed();
        let applied = batch.apply_tracked(&mut next_graph)?;
        let apply = t0.elapsed() - cloned;

        // Durable write, now that the batch is known-valid: invalid
        // batches never enter the log, and a crash after this point is
        // recoverable by replay. The WAL is also a fault point — an
        // injected outage fails the ingest exactly like a real disk
        // error, with nothing published.
        if let Some(dur) = &self.durability {
            let res = &self.config.resilience;
            if res.enabled {
                if let Some(plan) = &res.faults {
                    if let Err(fault) = plan.check(FaultPoint::Wal) {
                        return Err(IngestError::Durability(DurabilityError::Fault(fault)));
                    }
                }
            }
            let info = dur
                .append(base.version() + 1, batch)
                .map_err(|e| IngestError::Durability(DurabilityError::Wal(e)))?;
            self.registry.observe(WAL_APPEND_METRIC, &[], info.append);
            if let Some(fsync) = info.fsync {
                self.registry.observe(WAL_FSYNC_METRIC, &[], fsync);
            }
        }

        // Derive the retrieval-side consequences of the batch.
        let t0 = Instant::now();
        let delta = iyp_data::describe_delta(&next_graph, &applied);
        let derive = t0.elapsed();

        // Patch a private copy of the index — readers keep searching the
        // published one the whole time.
        let t0 = Instant::now();
        let mut next_index = (**self.index.read()).clone();
        next_index.apply_delta(base.graph(), &next_graph, &delta);
        let index_apply = t0.elapsed();

        // Publish the pair. Holding the index write lock across the
        // graph publish is what makes the pair atomic for `resolve`.
        let t0 = Instant::now();
        let mut index_slot = self.index.write();
        let graph_report =
            self.store
                .publish_prepared(next_graph, applied.ops_applied, cloned, apply);
        let published = self.store.load();
        next_index.stamp(published.version(), published.epoch());
        *index_slot = Arc::new(next_index);
        drop(index_slot);
        let index_swap = t0.elapsed();

        for (stage, d) in [
            ("clone", graph_report.clone),
            ("apply", graph_report.apply),
            ("swap", graph_report.swap),
        ] {
            self.registry.observe(SWAP_METRIC, &[("stage", stage)], d);
        }
        for (stage, d) in [
            ("derive", derive),
            ("apply", index_apply),
            ("swap", index_swap),
        ] {
            self.registry.observe(INDEX_METRIC, &[("stage", stage)], d);
        }
        Ok(IngestReport {
            index_version: graph_report.new_version,
            graph: graph_report,
            derive,
            index_apply,
            index_swap,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ChatIypConfig {
        &self.config
    }

    /// The shared two-tier query cache. The `ask` path executes its
    /// generated Cypher through it, and the server routes `/cypher`
    /// queries through the same instance so both workloads warm the
    /// same entries.
    pub fn query_cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The metric registry every stage records into. The server renders
    /// it at `GET /metrics`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The newest `n` request traces, most recent first (empty unless
    /// [`ChatIypConfig::trace_requests`] is on).
    pub fn recent_traces(&self, n: usize) -> Vec<Arc<TraceTree>> {
        self.traces.recent(n)
    }

    /// Lifetime resilience counters (fault retries performed, degraded
    /// responses served) — surfaced in `/stats` and as
    /// `chatiyp_retries_total` / `chatiyp_degraded_total` in `/metrics`.
    pub fn resilience_stats(&self) -> ResilienceCounters {
        self.resilience.snapshot()
    }

    /// Executes a raw read-only Cypher query through the shared query
    /// cache, passing the resilience layer's `exec` fault point first —
    /// the `/cypher` endpoint's entry. An injected execution outage
    /// returns [`CypherExecError::Unavailable`] (serve `503` +
    /// `Retry-After`); engine errors come back as
    /// [`CypherExecError::Query`] (serve `400`); an injected
    /// [`FaultPoint::Panic`] panics. With the layer disabled or no fault
    /// plan configured, this is exactly a cache execution.
    pub fn execute_cypher_with_limits(
        &self,
        snap: &GraphSnapshot,
        query: &str,
        limits: iyp_cypher::ExecLimits,
    ) -> Result<Arc<QueryResult>, CypherExecError> {
        let res = &self.config.resilience;
        if res.enabled {
            if let Some(plan) = &res.faults {
                if let Err(fault) = plan.check(FaultPoint::Panic) {
                    panic!("{fault}");
                }
                if let Err(fault) = plan.check(FaultPoint::Exec) {
                    return Err(CypherExecError::Unavailable(fault));
                }
            }
        }
        self.cache
            .get_or_execute_with_limits(snap, query, &iyp_cypher::Params::new(), limits)
            .map_err(CypherExecError::Query)
    }

    /// Answers a natural-language question.
    pub fn ask(&self, question: &str) -> ChatResponse {
        self.ask_traced(question).0
    }

    /// Like [`ask`](Self::ask), returning the request's span tree
    /// alongside the response. The tree is empty when
    /// [`ChatIypConfig::trace_requests`] is off; when on, it is also
    /// recorded into the trace ring (see [`Self::recent_traces`]) —
    /// shared, not copied: the returned [`Arc`] and the ring alias the
    /// same tree.
    pub fn ask_traced(&self, question: &str) -> (ChatResponse, Arc<TraceTree>) {
        let trace = if self.config.trace_requests {
            Trace::new()
        } else {
            Trace::disabled()
        };
        let response = self.ask_inner(question, &trace);
        let tree = Arc::new(trace.finish());
        if !tree.spans.is_empty() {
            self.traces.record(Arc::clone(&tree));
        }
        (response, tree)
    }

    fn ask_inner(&self, question: &str, trace: &Trace) -> ChatResponse {
        let t_start = Instant::now();
        let ask_span = trace.span("ask");

        // Resilience context for this request: the end-to-end budget
        // starts now; stages receive `Option<&_>` so the disabled path
        // costs one branch.
        let res = &self.config.resilience;
        let ctx: Option<ResilienceCtx<'_>> = if res.enabled {
            Some(ResilienceCtx {
                budget: crate::resilience::Budget::new(res.ask_deadline),
                retry: &res.retry,
                faults: res.faults.as_deref(),
                stats: &self.resilience,
            })
        } else {
            None
        };
        // The first degradation that shaped this response, if any.
        let mut degraded: Option<DegradedReason> = None;

        // Stage 2a: TextToCypherRetriever (with optional self-correction
        // retries on failed/empty executions).
        // One resolved (snapshot, index) pair for the whole request: the
        // symbolic path, entity linking and the semantic fallback below
        // all read the same published version, even if an ingest swaps in
        // a newer pair mid-ask.
        let handle = self.resolve();
        let snap = &handle.snapshot;
        let structured: Option<StructuredRetrieval> = if self.config.enable_text2cypher {
            let _s = trace.span("text2cypher");
            Some(self.text2cypher.retrieve_resilient(
                snap,
                question,
                self.config.max_retries,
                Some(&self.cache),
                iyp_cypher::ExecLimits::none().with_parallelism(self.config.query_parallelism),
                handle.index.catalog(),
                ctx.as_ref(),
            ))
        } else {
            None
        };
        if let Some(reason) = structured.as_ref().and_then(|s| s.degraded) {
            degraded = Some(reason);
        }

        let structured_ok = structured
            .as_ref()
            .map(StructuredRetrieval::has_rows)
            .unwrap_or(false);

        // Stage 2b/2c: semantic fallback when the symbolic path failed or
        // came back empty. The embedder is a fault point of its own, and
        // the stage respects the retrieval share of the request budget —
        // an unavailable index degrades to answering from the structured
        // stage alone (or a marked failure), never an abort.
        let mut contexts: Vec<ContextChunk> = Vec::new();
        if !structured_ok && self.config.enable_vector_fallback {
            let skip_retrieval = match &ctx {
                Some(c) if !c.budget.within_share(RETRIEVE_BUDGET_SHARE) => {
                    degraded.get_or_insert(DegradedReason::BudgetExhausted);
                    true
                }
                Some(c) if c.check(FaultPoint::Embed).is_err() => {
                    degraded.get_or_insert(DegradedReason::RetrievalUnavailable);
                    true
                }
                _ => false,
            };
            if !skip_retrieval {
                let retrieve_span = trace.span("embed_retrieve");
                let t0 = Instant::now();
                let mut candidates = handle.index.retrieve(question, self.config.vector_top_k);
                self.registry
                    .observe(STAGE_METRIC, &[("stage", "embed_retrieve")], t0.elapsed());
                retrieve_span.field("candidates", candidates.len());
                drop(retrieve_span);
                if self.config.enable_reranker && !candidates.is_empty() {
                    let _s = trace.span("rerank");
                    let t0 = Instant::now();
                    let texts: Vec<String> = candidates
                        .iter()
                        .map(|c| format!("{} {}", c.title, c.text))
                        .collect();
                    let ranked = self
                        .reranker
                        .rerank(question, &texts, self.config.rerank_top_k);
                    self.registry
                        .observe(STAGE_METRIC, &[("stage", "rerank")], t0.elapsed());
                    contexts = ranked
                        .into_iter()
                        .map(|r| {
                            let mut c = candidates[r.index].clone();
                            c.score = r.score;
                            c
                        })
                        .collect();
                } else {
                    candidates.truncate(self.config.rerank_top_k);
                    contexts = candidates;
                }
            }
        }
        let t_retrieval = t_start.elapsed();

        // Stage 3: generation.
        let generate_span = trace.span("generate");
        let t_gen_start = Instant::now();
        // Did the structured stage run a query that legitimately returned
        // nothing? Then the truthful core of the answer is "no data", and
        // the semantic context is supplementary — not a replacement fact.
        let structured_empty = structured
            .as_ref()
            .map(|s| s.result.as_ref().map(|r| r.is_empty()).unwrap_or(false))
            .unwrap_or(false);
        let (answer, route) = if structured_ok {
            let s = structured.as_ref().expect("structured_ok implies Some");
            let result = s.result.as_ref().expect("has_rows implies result");
            (
                self.generate_resilient(
                    ctx.as_ref(),
                    &mut degraded,
                    question,
                    s.translation.intent.as_ref(),
                    result,
                ),
                Route::Cypher,
            )
        } else if structured_empty {
            let s = structured.as_ref().expect("structured_empty implies Some");
            let refusal = self.generate_resilient(
                ctx.as_ref(),
                &mut degraded,
                question,
                s.translation.intent.as_ref(),
                &iyp_cypher::QueryResult::empty(),
            );
            match contexts.first() {
                Some(best) => (
                    format!("{refusal} Closest related IYP entity: {}.", best.title),
                    Route::VectorFallback,
                ),
                // No fallback configured: the empty answer is still a
                // legitimate outcome of the structured route.
                None => (refusal, Route::Cypher),
            }
        } else if let Some(best) = contexts.first() {
            (answer_from_context(question, best), Route::VectorFallback)
        } else {
            (
                self.generate_resilient(
                    ctx.as_ref(),
                    &mut degraded,
                    question,
                    structured
                        .as_ref()
                        .and_then(|s| s.translation.intent.as_ref()),
                    &iyp_cypher::QueryResult::empty(),
                ),
                Route::Failed,
            )
        };
        let t_generation = t_gen_start.elapsed();
        self.registry
            .observe(STAGE_METRIC, &[("stage", "llm_generate")], t_generation);
        drop(generate_span);

        if degraded.is_some() {
            self.resilience.note_degraded();
        }

        ask_span.field("route", route);
        ask_span.field("question_len", question.len());
        drop(ask_span);
        self.registry
            .observe(STAGE_METRIC, &[("stage", "ask_total")], t_start.elapsed());

        let (cypher, query_result, intent, injected_error) = match structured {
            Some(s) => (
                s.translation.cypher,
                s.result,
                s.translation.intent,
                s.translation.injected_error,
            ),
            None => (None, None, None, None),
        };

        ChatResponse {
            question: question.to_string(),
            answer,
            cypher,
            query_result,
            contexts,
            route,
            intent,
            injected_error,
            degraded: degraded.map(DegradedReason::as_str),
            timings: Timings {
                retrieval: t_retrieval,
                generation: t_generation,
                total: t_start.elapsed(),
            },
        }
    }

    /// Runs answer generation under the resilience layer: the LM call is
    /// the [`FaultPoint::LlmGenerate`] fault point, retried with backoff
    /// within the remaining budget. When retries exhaust (or the budget
    /// already expired), the pipeline still answers — with a plain,
    /// LM-free rendering of the retrieved rows, marked
    /// [`DegradedReason::GenerationUnavailable`] (or
    /// [`DegradedReason::BudgetExhausted`]) — rather than aborting.
    fn generate_resilient(
        &self,
        ctx: Option<&ResilienceCtx<'_>>,
        degraded: &mut Option<DegradedReason>,
        question: &str,
        intent: Option<&Intent>,
        result: &QueryResult,
    ) -> String {
        let Some(ctx) = ctx else {
            return generate_answer(&self.lm, question, intent, result);
        };
        if ctx.budget.expired() {
            degraded.get_or_insert(DegradedReason::BudgetExhausted);
            return plain_answer(question, result);
        }
        let mut fault_retries = 0u32;
        loop {
            match ctx.check(FaultPoint::LlmGenerate) {
                Ok(()) => return generate_answer(&self.lm, question, intent, result),
                Err(_) if ctx.retry_after_fault(fault_retries, question, 1.0) => {
                    fault_retries += 1;
                }
                Err(_) => {
                    degraded.get_or_insert(DegradedReason::GenerationUnavailable);
                    return plain_answer(question, result);
                }
            }
        }
    }
}

/// The LM-free degraded answer: a plain rendering of the retrieved rows
/// (or an honest "no rows"), deterministic and clearly mechanical — a
/// degraded response reads degraded rather than imitating fluent prose
/// the generation stage could not produce.
fn plain_answer(question: &str, result: &QueryResult) -> String {
    if result.is_empty() {
        return format!("IYP returned no rows for this question: {question}");
    }
    let shown = result.rows.len().min(3);
    let rendered: Vec<String> = result.rows[..shown]
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect();
    let more = result.rows.len() - shown;
    let suffix = if more > 0 {
        format!(" (and {more} more rows)")
    } else {
        String::new()
    };
    format!(
        "IYP query result ({}): {}{suffix}",
        result.columns.join(", "),
        rendered.join("; ")
    )
}

/// Builds an answer from the best semantic context: the sentence of the
/// context most lexically aligned with the question, attributed to IYP.
fn answer_from_context(question: &str, ctx: &ContextChunk) -> String {
    let q_tokens = words(question);
    let best_sentence = ctx
        .text
        .split('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .max_by_key(|s| {
            let s_tokens = words(s);
            q_tokens.iter().filter(|t| s_tokens.contains(t)).count()
        })
        .unwrap_or(ctx.text.as_str());
    format!(
        "Based on related IYP records about {}: {best_sentence}.",
        ctx.title
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_data::{generate, IypConfig};
    use iyp_llm::LmConfig;

    fn perfect() -> ChatIyp {
        let config = ChatIypConfig {
            lm: LmConfig {
                seed: 42,
                skill: 1.0,
                variety: 0.0,
            },
            ..Default::default()
        };
        ChatIyp::new(generate(&IypConfig::tiny()), config)
    }

    #[test]
    fn answers_the_paper_example_via_cypher_route() {
        let chat = perfect();
        let r = chat.ask("What is the percentage of Japan's population in AS2497?");
        assert_eq!(r.route, Route::Cypher);
        let cy = r.cypher.as_deref().unwrap();
        assert!(cy.contains("POPULATION"), "cypher: {cy}");
        assert!(cy.contains("2497"));
        // The answer carries the actual percent from the graph.
        let snap = chat.snapshot();
        let gold = iyp_cypher::query(
            snap.graph(),
            "MATCH (a:AS {asn: 2497})-[p:POPULATION]->(c:Country {country_code: 'JP'}) RETURN p.percent",
        )
        .unwrap();
        let expect = gold.single_value().unwrap().as_f64().unwrap();
        assert!(
            r.answer.contains(&format!("{expect}")) || r.answer.contains(&format!("{expect:.2}")),
            "answer '{}' lacks {expect}",
            r.answer
        );
    }

    #[test]
    fn unparseable_question_falls_back_to_vector() {
        let chat = perfect();
        let r = chat.ask("Tell me everything interesting about IIJ in Japan");
        // This phrasing has no intent template; the vector path answers.
        assert_eq!(r.route, Route::VectorFallback);
        assert!(!r.contexts.is_empty());
        assert!(r.answer.contains("IYP"));
    }

    #[test]
    fn fallback_disabled_yields_failed_route() {
        let config = ChatIypConfig {
            lm: LmConfig {
                seed: 42,
                skill: 1.0,
                variety: 0.0,
            },
            ..ChatIypConfig::cypher_only()
        };
        let chat = ChatIyp::new(generate(&IypConfig::tiny()), config);
        let r = chat.ask("Tell me everything interesting please");
        assert_eq!(r.route, Route::Failed);
        assert!(r.contexts.is_empty());
    }

    #[test]
    fn timings_are_recorded() {
        let chat = perfect();
        let r = chat.ask("What is the name of AS2497?");
        assert!(r.timings.total >= r.timings.generation);
        assert!(r.timings.total.as_nanos() > 0);
    }

    #[test]
    fn responses_are_deterministic() {
        let a = perfect().ask("How many ASes are registered in Japan?");
        let b = perfect().ask("How many ASes are registered in Japan?");
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.cypher, b.cypher);
        assert_eq!(a.route, b.route);
    }

    /// One pipeline instance answers concurrent `ask` calls: every thread
    /// shares `&ChatIyp` and gets the same answer as a sequential run.
    #[test]
    fn concurrent_asks_match_sequential() {
        let chat = perfect();
        let questions = [
            "What is the name of AS2497?",
            "How many ASes are registered in Japan?",
            "In which country is AS2497 registered?",
            "Tell me everything interesting about IIJ in Japan",
        ];
        let sequential: Vec<_> = questions.iter().map(|q| chat.ask(q)).collect();
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = questions.iter().map(|q| s.spawn(|| chat.ask(q))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (a, b) in sequential.iter().zip(&concurrent) {
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.cypher, b.cypher);
            assert_eq!(a.route, b.route);
        }
    }

    /// Repeating a question answers through the result cache, and the
    /// cached answer is identical to the cold one.
    #[test]
    fn repeated_ask_hits_the_cache_with_identical_answer() {
        let chat = perfect();
        let q = "What is the name of AS2497?";
        let cold = chat.ask(q);
        assert_eq!(chat.query_cache().stats().hits, 0);
        let warm = chat.ask(q);
        let s = chat.query_cache().stats();
        assert!(s.hits >= 1, "second ask did not hit: {s:?}");
        assert_eq!(cold.answer, warm.answer);
        assert_eq!(cold.cypher, warm.cypher);
        assert_eq!(cold.query_result, warm.query_result);
    }

    /// Snapshot handles alias the pipeline's own current snapshot until
    /// an ingest publishes a new one.
    #[test]
    fn snapshot_shares_the_pipeline_graph_until_ingest() {
        let chat = perfect();
        let a = chat.snapshot();
        let b = chat.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.version(), 1);

        let mut batch = DeltaBatch::new();
        batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64512i64));
        let report = chat.ingest(&batch).unwrap();
        assert_eq!((report.graph.old_version, report.graph.new_version), (1, 2));
        assert_eq!(report.index_version, 2);

        let c = chat.snapshot();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.version(), 2);
        assert_eq!(c.node_count(), a.node_count() + 1);
        // The pre-ingest handle is untouched.
        assert_eq!(a.version(), 1);
    }

    /// Ingest invalidates cached answers: a count computed against the
    /// old snapshot is never served against the new one.
    #[test]
    fn ingest_invalidates_cached_cypher_results() {
        let chat = perfect();
        let q = "MATCH (a:AS) RETURN count(a)";
        let snap = chat.snapshot();
        let before = chat
            .query_cache()
            .get_or_execute(&snap, q, &iyp_cypher::Params::new())
            .unwrap();

        let mut batch = DeltaBatch::new();
        batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64513i64));
        chat.ingest(&batch).unwrap();

        let snap = chat.snapshot();
        let after = chat
            .query_cache()
            .get_or_execute(&snap, q, &iyp_cypher::Params::new())
            .unwrap();
        let n = |v: &iyp_cypher::QueryResult| match v.rows[0][0] {
            iyp_graphdb::Value::Int(n) => n,
            _ => panic!("count not an int"),
        };
        assert_eq!(n(&after), n(&before) + 1, "stale count served after ingest");
        assert!(chat.query_cache().stats().invalidations >= 1);
    }

    /// At a low skill, self-correction retries should answer strictly
    /// more questions correctly over a batch than no retries.
    fn count_correct_with_retries(max_retries: u32) -> usize {
        let data = generate(&IypConfig::tiny());
        let gold_answers: Vec<(String, String)> = (0..30)
            .map(|i| {
                let asn = data.ases[i % data.ases.len()].asn;
                (
                    // A non-aggregating question: a mistranslation usually
                    // returns nothing, which is what arms the retry.
                    format!("In which country is AS{asn} registered?"),
                    format!(
                        "MATCH (a:AS {{asn: {asn}}})-[:COUNTRY]->(c:Country) RETURN c.country_code"
                    ),
                )
            })
            .collect();
        let golds: Vec<_> = gold_answers
            .iter()
            .map(|(_, cy)| iyp_cypher::query(&data.graph, cy).unwrap())
            .collect();
        let chat = ChatIyp::new(
            data,
            ChatIypConfig {
                lm: LmConfig {
                    seed: 9,
                    skill: 0.2,
                    variety: 0.0,
                },
                max_retries,
                ..Default::default()
            },
        );
        gold_answers
            .iter()
            .zip(&golds)
            .filter(|((q, _), gold)| {
                chat.ask(q)
                    .query_result
                    .map(|got| got.fingerprint(false) == gold.fingerprint(false))
                    .unwrap_or(false)
            })
            .count()
    }

    #[test]
    fn retry_recovers_failed_translations() {
        let without = count_correct_with_retries(0);
        let with = count_correct_with_retries(2);
        assert!(with > without, "retries did not help: {with} vs {without}");
    }

    /// The previously-stale path, now fixed: after an ingest, a
    /// semantic-fallback question about the new node returns its context
    /// — while a handle resolved *before* the ingest still answers from
    /// the old index (snapshot isolation cuts both ways).
    #[test]
    fn semantic_fallback_sees_ingested_nodes_and_held_handles_do_not() {
        let chat = perfect();
        let pre = chat.resolve();
        assert_eq!(pre.snapshot.version(), pre.index.version());

        let batch = iyp_data::growth_batch(pre.snapshot.graph(), 77, 5);
        let report = chat.ingest(&batch).unwrap();
        assert_eq!(report.index_version, report.graph.new_version);

        let new_asn = iyp_data::max_asn(chat.snapshot().graph());
        // This phrasing has no intent template, so it takes the vector
        // fallback — the route that used to answer from a stale corpus.
        let q = format!("Tell me everything interesting about Ingest Networks {new_asn}");
        let r = chat.ask(&q);
        assert_eq!(r.route, Route::VectorFallback);
        assert!(
            r.contexts
                .iter()
                .any(|c| c.title.contains(&new_asn.to_string())),
            "fallback missed the ingested AS; contexts: {:?}",
            r.contexts.iter().map(|c| &c.title).collect::<Vec<_>>()
        );

        // The pre-ingest handle still describes the old world, pair-wise:
        // same stamped version, and no document for the new node.
        assert_eq!(pre.snapshot.version(), pre.index.version());
        assert!(pre
            .index
            .retrieve(&q, 10)
            .iter()
            .all(|c| !c.title.contains(&new_asn.to_string())));
        // While the freshly resolved pair is the new world.
        let post = chat.resolve();
        assert_eq!(post.snapshot.version(), post.index.version());
        assert_eq!(post.snapshot.version(), report.graph.new_version);
    }

    /// Entity linking tracks the ingest too: a question naming a
    /// freshly ingested network by *name* routes through Cypher, because
    /// the refreshed catalog resolves the name to its ASN.
    #[test]
    fn catalog_refresh_routes_new_names_through_cypher() {
        let chat = perfect();
        let batch = iyp_data::growth_batch(chat.snapshot().graph(), 31, 4);
        chat.ingest(&batch).unwrap();
        let new_asn = iyp_data::max_asn(chat.snapshot().graph());
        let q = format!("What is the ASN of Ingest Networks {new_asn}?");
        let r = chat.ask(&q);
        assert_eq!(r.route, Route::Cypher, "answer: {}", r.answer);
        assert!(
            r.answer.contains(&new_asn.to_string()),
            "answer '{}' lacks {new_asn}",
            r.answer
        );
    }

    /// Concurrent resolvers never observe a torn pair while ingests
    /// publish: snapshot version and index stamp always agree.
    #[test]
    fn resolve_never_returns_a_torn_pair_under_concurrent_ingest() {
        let chat = std::sync::Arc::new(perfect());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let mut readers = Vec::new();
            for _ in 0..4 {
                let chat = std::sync::Arc::clone(&chat);
                let stop = std::sync::Arc::clone(&stop);
                readers.push(s.spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let h = chat.resolve();
                        assert_eq!(
                            h.snapshot.version(),
                            h.index.version(),
                            "torn (snapshot, index) pair"
                        );
                        assert_eq!(h.snapshot.epoch(), h.index.epoch());
                        seen = seen.max(h.snapshot.version());
                    }
                    seen
                }));
            }
            for _ in 0..20 {
                let batch = iyp_data::growth_batch(chat.snapshot().graph(), 5, 2);
                chat.ingest(&batch).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(chat.snapshot().version(), 21);
        assert_eq!(chat.retrieval_index().version(), 21);
    }

    #[test]
    fn vector_only_config_never_emits_cypher() {
        let config = ChatIypConfig {
            lm: LmConfig {
                seed: 42,
                skill: 1.0,
                variety: 0.0,
            },
            ..ChatIypConfig::vector_only()
        };
        let chat = ChatIyp::new(generate(&IypConfig::tiny()), config);
        let r = chat.ask("What is the name of AS2497?");
        assert!(r.cypher.is_none());
        assert_eq!(r.route, Route::VectorFallback);
    }
}
