//! The ChatIYP JSON API: request/response types and the route handlers.
//!
//! Endpoints:
//! * `POST /ask` — `{"question": "..."}` → full pipeline response;
//!   `?trace=1` adds the request's span tree to the response
//! * `GET  /health` — liveness + graph size
//! * `GET  /healthz` — readiness: 200 once a snapshot is published,
//!   503 + `Retry-After` while the initial dataset is still loading
//! * `GET  /schema` — the IYP schema summary
//! * `POST /cypher` — `{"query": "..."}` → direct read-only Cypher
//!   (the expert escape hatch); `PROFILE`/`EXPLAIN` query prefixes
//!   return per-operator statistics / the plan instead of plain rows
//! * `POST /admin/ingest` — a `DeltaBatch` in JSON → applies it and
//!   swaps in the next `(snapshot, retrieval index)` pair, reporting
//!   old/new version, the published `index_version`, the new graph's
//!   node/edge counts, and the apply/derive/swap timings. With a data
//!   directory configured the batch is WAL-appended before the publish;
//!   a WAL failure answers 503 + `Retry-After` (nothing published),
//!   while an invalid batch stays a 400
//! * `POST /admin/checkpoint` — saves the current snapshot atomically
//!   and truncates WAL segments it covers; 400 without `--data-dir`
//! * `GET  /stats` — graph shape + live snapshot version + paired
//!   retrieval-index version + cache counters + a `durability` block
//!   (`null` unless serving with a data directory) (JSON)
//! * `GET  /metrics` — Prometheus text exposition (stage + HTTP
//!   histograms, cache counters, graph + index gauges, WAL/recovery
//!   series when durability is configured)
//!
//! Every request resolves the pipeline's current
//! `(GraphSnapshot, RetrievalIndex)` pair **once** in [`handle`] (via
//! [`ChatIyp::resolve`]) and serves entirely from it, so a concurrent
//! ingest can never tear a response — the graph version and the
//! retrieval-index version a request reports always match.

use crate::http::{Request, Response};
use chatiyp_core::{ChatIyp, CypherExecError, IngestError, RetrievalHandle};
use iyp_graphdb::{DeltaBatch, GraphSnapshot};
use iyp_obs::TraceTree;
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Shared server state: the pipeline, published once ready.
///
/// The server can start accepting connections before the dataset is
/// generated/loaded ([`AppState::deferred`] + [`AppState::publish`]);
/// until then every endpoint answers 503 with a `Retry-After`, and
/// `GET /healthz` is the probe that flips to 200 on readiness.
pub struct AppState {
    chat: OnceLock<Arc<ChatIyp>>,
    /// Connections refused with `429` because the admission queue was
    /// full. Lives here (not in the pipeline's registry) because sheds
    /// can happen before any pipeline is published.
    shed: AtomicU64,
    /// Requests whose handler panicked (answered `500`).
    panics: AtomicU64,
}

impl AppState {
    /// A state that is ready from the start.
    pub fn ready(chat: Arc<ChatIyp>) -> Self {
        let state = AppState::deferred();
        state.publish(chat);
        state
    }

    /// A state with no pipeline yet; serve 503s until [`publish`].
    ///
    /// [`publish`]: AppState::publish
    pub fn deferred() -> Self {
        AppState {
            chat: OnceLock::new(),
            shed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Publishes the pipeline, flipping readiness. Returns false when a
    /// pipeline was already published (the first one wins).
    pub fn publish(&self, chat: Arc<ChatIyp>) -> bool {
        self.chat.set(chat).is_ok()
    }

    /// The pipeline, once published.
    pub fn chat(&self) -> Option<&Arc<ChatIyp>> {
        self.chat.get()
    }

    /// Counts one shed connection (admission queue full → `429`).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// How many connections have been shed since startup.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Counts one request whose handler panicked.
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// How many request handlers have panicked since startup.
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

/// Histogram family for HTTP request latencies (`path` label).
pub const HTTP_METRIC: &str = "chatiyp_http_request_seconds";

/// Counter family for served requests (`path` + `status` labels).
pub const HTTP_REQUESTS_METRIC: &str = "chatiyp_http_requests_total";

/// Body of `POST /ask`.
#[derive(Debug, Deserialize)]
pub struct AskRequest {
    /// The natural-language question.
    pub question: String,
}

/// Body of `POST /cypher`.
#[derive(Debug, Deserialize)]
pub struct CypherRequest {
    /// A read-only Cypher query.
    pub query: String,
}

/// Serialized answer of `POST /ask`.
#[derive(Debug, Serialize)]
pub struct AskResponse<'a> {
    /// The generated answer text.
    pub answer: &'a str,
    /// The generated Cypher (transparency), if any.
    pub cypher: Option<&'a str>,
    /// The route that answered (`cypher`, `vector-fallback`, `failed`).
    pub route: String,
    /// Retrieved context titles (vector route).
    pub contexts: Vec<&'a str>,
    /// Why the response is degraded (stable marker such as
    /// `"text2cypher-unavailable"`), or `null` for full service.
    pub degraded: Option<&'a str>,
    /// End-to-end latency in microseconds.
    pub latency_us: u64,
}

/// Handles one request: resolves readiness and the current graph
/// snapshot, dispatches to the route handler, then records the request
/// into the pipeline's metric registry (latency histogram per path,
/// request counter per path + status) so `GET /metrics` sees HTTP
/// traffic alongside the pipeline stages. Before the pipeline is
/// published, every endpoint answers 503 + `Retry-After` (and nothing
/// is recorded — there is no registry yet).
pub fn handle(state: &AppState, req: &Request) -> Response {
    let Some(chat) = state.chat() else {
        return not_ready();
    };
    let t0 = Instant::now();
    // One paired resolve per request: every read below sees one
    // (graph, retrieval index) pair, even while `/admin/ingest`
    // publishes the next one concurrently.
    let handle = chat.resolve();
    let resp = dispatch(state, chat, &handle, req);
    let path = metric_path(req.path());
    let registry = chat.registry();
    registry.observe(HTTP_METRIC, &[("path", path)], t0.elapsed());
    registry.inc(
        HTTP_REQUESTS_METRIC,
        &[("path", path), ("status", status_label(resp.status))],
        1,
    );
    resp
}

/// The 503 every route serves while the initial snapshot is loading.
/// `Retry-After: 1` keeps well-behaved probes cheap.
fn not_ready() -> Response {
    Response::json(
        503,
        json!({"status": "loading", "error": "snapshot not yet published"}).to_string(),
    )
    .with_header("retry-after", "1")
}

/// Dispatches one request. Graph-reading endpoints (`/cypher`,
/// `/health`, `/stats`) serve from the request's resolved handle — the
/// same immutable graph + retrieval index the pipeline queries — so
/// they never see a half-applied ingest or a torn pair.
fn dispatch(state: &AppState, chat: &ChatIyp, handle: &RetrievalHandle, req: &Request) -> Response {
    let snap = &handle.snapshot;
    match (req.method.as_str(), req.path()) {
        ("POST", "/ask") => handle_ask(chat, req),
        ("POST", "/cypher") => handle_cypher(chat, snap, req),
        ("POST", "/admin/ingest") => handle_ingest(chat, req),
        ("POST", "/admin/checkpoint") => handle_checkpoint(chat),
        ("GET", "/health") => handle_health(snap),
        ("GET", "/healthz") => handle_healthz(snap),
        ("GET", "/stats") => handle_stats(state, chat, handle),
        ("GET", "/metrics") => handle_metrics(state, chat, handle),
        ("GET", "/schema") => Response::text(200, iyp_data::schema::schema_summary()),
        ("GET", _) | ("POST", _) => Response::json(
            404,
            json!({"error": "unknown endpoint", "endpoints": ["/admin/checkpoint", "/admin/ingest", "/ask", "/cypher", "/health", "/healthz", "/metrics", "/schema", "/stats"]})
                .to_string(),
        ),
        (method, _) => Response::json(
            405,
            json!({"error": format!("method {method} not allowed")}).to_string(),
        ),
    }
}

/// Maps a request path to a bounded metric label: known endpoints keep
/// their path, everything else collapses to `"other"` so arbitrary
/// request targets cannot grow the label set.
fn metric_path(path: &str) -> &'static str {
    match path {
        "/admin/checkpoint" => "/admin/checkpoint",
        "/admin/ingest" => "/admin/ingest",
        "/ask" => "/ask",
        "/cypher" => "/cypher",
        "/health" => "/health",
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/schema" => "/schema",
        "/stats" => "/stats",
        _ => "other",
    }
}

/// The status codes the API emits, as static label values.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        413 => "413",
        429 => "429",
        500 => "500",
        503 => "503",
        504 => "504",
        _ => "other",
    }
}

/// Is the `trace` query parameter asking for a trace? Presence counts
/// (`?trace`), and any value other than `0`/`false` enables it.
fn wants_trace(req: &Request) -> bool {
    matches!(req.query_param("trace"),
        Some(v) if v != "0" && !v.eq_ignore_ascii_case("false"))
}

/// Serializes a span tree for the `?trace=1` response: span ids, parent
/// links, microsecond offsets/durations, and the key/value fields.
fn trace_json(tree: &TraceTree) -> serde_json::Value {
    let spans: Vec<serde_json::Value> = tree
        .spans
        .iter()
        .map(|s| {
            let fields: Vec<(String, serde_json::Value)> = s
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), serde_json::to_value(v)))
                .collect();
            serde_json::Value::Map(vec![
                ("id".to_string(), serde_json::to_value(&(s.id.0 as u64))),
                (
                    "parent".to_string(),
                    match s.parent {
                        Some(p) => serde_json::to_value(&(p.0 as u64)),
                        None => serde_json::Value::Null,
                    },
                ),
                ("name".to_string(), serde_json::to_value(&s.name.as_ref())),
                (
                    "start_us".to_string(),
                    serde_json::to_value(&(s.start.as_micros() as u64)),
                ),
                (
                    "elapsed_us".to_string(),
                    serde_json::to_value(&(s.elapsed.as_micros() as u64)),
                ),
                ("fields".to_string(), serde_json::Value::Map(fields)),
            ])
        })
        .collect();
    serde_json::Value::Map(vec![
        (
            "total_us".to_string(),
            serde_json::to_value(&(tree.total.as_micros() as u64)),
        ),
        ("spans".to_string(), serde_json::Value::Seq(spans)),
    ])
}

fn handle_ask(chat: &ChatIyp, req: &Request) -> Response {
    let parsed: Result<AskRequest, _> = serde_json::from_slice(&req.body);
    match parsed {
        Err(e) => Response::json(
            400,
            json!({"error": format!("invalid JSON body: {e}")}).to_string(),
        ),
        Ok(ask) if ask.question.trim().is_empty() => Response::json(
            400,
            json!({"error": "question must not be empty"}).to_string(),
        ),
        Ok(ask) => {
            let (r, tree) = chat.ask_traced(&ask.question);
            let body = AskResponse {
                answer: &r.answer,
                cypher: r.cypher.as_deref(),
                route: r.route.to_string(),
                contexts: r.contexts.iter().map(|c| c.title.as_str()).collect(),
                degraded: r.degraded,
                latency_us: r.timings.total.as_micros() as u64,
            };
            let mut value = serde_json::to_value(&body);
            if wants_trace(req) {
                if let serde_json::Value::Map(entries) = &mut value {
                    entries.push(("trace".to_string(), trace_json(&tree)));
                }
            }
            Response::json(200, value.to_string())
        }
    }
}

/// The leading statement modifier of a `/cypher` query, if any.
#[derive(PartialEq)]
enum CypherRoute {
    Plain,
    Explain,
    Profile,
}

/// Detects a leading `PROFILE` / `EXPLAIN` word (case-insensitive,
/// followed by more query text). Full token-level handling lives in the
/// parser; this only decides which executor entry point to call, so the
/// cached plain-query hot path stays untouched.
fn cypher_route(query: &str) -> CypherRoute {
    let trimmed = query.trim_start();
    let word = trimmed.split_whitespace().next().unwrap_or("");
    if word.eq_ignore_ascii_case("PROFILE") {
        CypherRoute::Profile
    } else if word.eq_ignore_ascii_case("EXPLAIN") {
        CypherRoute::Explain
    } else {
        CypherRoute::Plain
    }
}

fn handle_cypher(chat: &ChatIyp, snap: &GraphSnapshot, req: &Request) -> Response {
    let parsed: Result<CypherRequest, _> = serde_json::from_slice(&req.body);
    let c = match parsed {
        Err(e) => {
            return Response::json(
                400,
                json!({"error": format!("invalid JSON body: {e}")}).to_string(),
            )
        }
        Ok(c) => c,
    };
    match cypher_route(&c.query) {
        // `EXPLAIN <query>`: render the plan, execute nothing.
        CypherRoute::Explain => match iyp_cypher::explain(snap.graph(), &c.query) {
            Ok(plan) => Response::json(200, json!({"plan": plan}).to_string()),
            Err(e) => Response::json(400, json!({"error": e.to_string()}).to_string()),
        },
        // `PROFILE <query>`: execute with per-operator measurement.
        // Profiled runs bypass the result cache on purpose — a cached
        // result has no operator execution to measure. Parallel workers'
        // db hits are credited back to the profiled operators, so the
        // reported totals are worker-count independent.
        CypherRoute::Profile => match iyp_cypher::profile_with_limits(
            snap.graph(),
            &c.query,
            &iyp_cypher::Params::new(),
            iyp_cypher::ExecLimits::timeout(std::time::Duration::from_secs(2))
                .with_parallelism(chat.config().query_parallelism),
        ) {
            Ok((result, prof)) => {
                let mut value = serde_json::to_value(&result);
                if let serde_json::Value::Map(entries) = &mut value {
                    entries.push(("profile".to_string(), profile_json(&prof)));
                }
                Response::json(200, value.to_string())
            }
            Err(e) => Response::json(400, json!({"error": e.to_string()}).to_string()),
        },
        // Plain queries run through the shared query cache (repeated
        // queries skip parse + execution) and under a deadline so a
        // pathological pattern cannot pin a worker; cold executions use
        // the configured morsel parallelism. An injected execution-stage
        // fault answers 503 + `Retry-After` — transient unavailability,
        // not a query error — while a bad query stays a 400.
        CypherRoute::Plain => match chat.execute_cypher_with_limits(
            snap,
            &c.query,
            iyp_cypher::ExecLimits::timeout(std::time::Duration::from_secs(2))
                .with_parallelism(chat.config().query_parallelism),
        ) {
            Ok(result) => Response::json(
                200,
                serde_json::to_string(&*result).expect("result serializes"),
            ),
            Err(CypherExecError::Unavailable(e)) => Response::json(
                503,
                json!({"error": format!("execution temporarily unavailable: {e}")}).to_string(),
            )
            .with_header("retry-after", "1"),
            Err(CypherExecError::Query(e)) => {
                Response::json(400, json!({"error": e.to_string()}).to_string())
            }
        },
    }
}

/// Serializes a [`iyp_cypher::QueryProfile`] for the `PROFILE` response:
/// per-operator stats plus the rendered text (with timings — the JSON
/// numbers carry the machine-readable copy).
fn profile_json(prof: &iyp_cypher::QueryProfile) -> serde_json::Value {
    let ops: Vec<serde_json::Value> = prof
        .ops
        .iter()
        .map(|op| {
            serde_json::Value::Map(vec![
                ("name".to_string(), serde_json::to_value(&op.name)),
                ("rows".to_string(), serde_json::to_value(&op.rows)),
                ("db_hits".to_string(), serde_json::to_value(&op.db_hits)),
                (
                    "time_us".to_string(),
                    serde_json::to_value(&(op.elapsed.as_micros() as u64)),
                ),
                (
                    "plan".to_string(),
                    serde_json::to_value(&op.plan.trim_end()),
                ),
            ])
        })
        .collect();
    serde_json::Value::Map(vec![
        ("ops".to_string(), serde_json::Value::Seq(ops)),
        (
            "total_db_hits".to_string(),
            serde_json::to_value(&prof.total_db_hits()),
        ),
        (
            "total_us".to_string(),
            serde_json::to_value(&(prof.total.as_micros() as u64)),
        ),
        (
            "result_rows".to_string(),
            serde_json::to_value(&prof.result_rows),
        ),
        ("rendered".to_string(), serde_json::to_value(&prof.render())),
    ])
}

/// Renders `GET /metrics`: the registry's histogram + counter series in
/// Prometheus text format, followed by cache counters and graph gauges
/// read at scrape time (they live outside the registry, so they are
/// appended by hand — see docs/OBSERVABILITY.md).
fn handle_metrics(state: &AppState, chat: &ChatIyp, handle: &RetrievalHandle) -> Response {
    let snap = &handle.snapshot;
    let mut out = chat.registry().render_prometheus();
    let cs = chat.query_cache().stats();
    let rc = chat.resilience_stats();
    let mem = snap.graph().memory_stats();

    for (name, help, v) in [
        (
            "chatiyp_retries_total",
            "Transient-fault retries performed by the pipeline.",
            rc.retries,
        ),
        (
            "chatiyp_degraded_total",
            "Responses served with a degraded marker.",
            rc.degraded,
        ),
        (
            "chatiyp_shed_total",
            "Connections shed with 429 because the admission queue was full.",
            state.shed_count(),
        ),
        (
            "chatiyp_panics_total",
            "Requests whose handler panicked; each was answered 500 and its connection closed.",
            state.panic_count(),
        ),
    ] {
        writeln!(
            out,
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}"
        )
        .expect("write");
    }

    out.push_str("# HELP chatiyp_cache_events_total Result-tier query cache events.\n");
    out.push_str("# TYPE chatiyp_cache_events_total counter\n");
    for (kind, v) in [
        ("hits", cs.hits),
        ("misses", cs.misses),
        ("evictions", cs.evictions),
        ("invalidations", cs.invalidations),
    ] {
        writeln!(out, "chatiyp_cache_events_total{{kind=\"{kind}\"}} {v}").expect("write");
    }
    out.push_str("# HELP chatiyp_plan_cache_events_total Plan-tier query cache events.\n");
    out.push_str("# TYPE chatiyp_plan_cache_events_total counter\n");
    for (kind, v) in [
        ("hits", cs.plan.hits),
        ("misses", cs.plan.misses),
        ("evictions", cs.plan.evictions),
        ("compiled", cs.plan.compiled),
    ] {
        writeln!(
            out,
            "chatiyp_plan_cache_events_total{{kind=\"{kind}\"}} {v}"
        )
        .expect("write");
    }

    for (name, help, v) in [
        (
            "chatiyp_cache_entries",
            "Live result-cache entries.",
            cs.len as u64,
        ),
        (
            "chatiyp_cache_capacity",
            "Configured result-cache capacity.",
            cs.capacity as u64,
        ),
        (
            "chatiyp_graph_nodes",
            "Nodes in the graph.",
            snap.node_count() as u64,
        ),
        (
            "chatiyp_graph_relationships",
            "Relationships in the graph.",
            snap.rel_count() as u64,
        ),
        (
            "chatiyp_graph_epoch",
            "Graph write epoch (bumps on mutation).",
            snap.epoch(),
        ),
        (
            "chatiyp_graph_version",
            "Published snapshot version (bumps on ingest/publish).",
            snap.version(),
        ),
        (
            "chatiyp_index_version",
            "Retrieval-index version paired with the snapshot (equal to chatiyp_graph_version unless a pair is mid-publish).",
            handle.index.version(),
        ),
        (
            "chatiyp_query_workers",
            "Configured morsel-parallel MATCH worker count.",
            chat.config().query_parallelism as u64,
        ),
        (
            "chatiyp_snapshot_bytes",
            "Approximate heap bytes retained by the published graph snapshot (shared pages counted once).",
            mem.retained_bytes as u64,
        ),
    ] {
        writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}").expect("write");
    }

    // Durability series exist only when the server persists (the WAL
    // append/fsync/checkpoint histograms come from the registry above;
    // these are the scrape-time counters and gauges beside them).
    if let Some(d) = chat.durability_stats() {
        writeln!(
            out,
            "# HELP chatiyp_recovery_replayed_total WAL records replayed by this process's boot-time recovery.\n\
             # TYPE chatiyp_recovery_replayed_total counter\n\
             chatiyp_recovery_replayed_total {}",
            d.replayed
        )
        .expect("write");
        for (name, help, v) in [
            (
                "chatiyp_wal_segments",
                "WAL segment files on disk.",
                d.wal_segments as u64,
            ),
            ("chatiyp_wal_bytes", "Total WAL bytes on disk.", d.wal_bytes),
            (
                "chatiyp_checkpoint_version",
                "Version of the last checkpoint (0 = never checkpointed).",
                d.last_checkpoint_version,
            ),
        ] {
            writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}").expect("write");
        }
    }
    Response::text(200, out)
}

fn handle_stats(state: &AppState, chat: &ChatIyp, handle: &RetrievalHandle) -> Response {
    let snap = &handle.snapshot;
    let stats = iyp_graphdb::GraphStats::compute(snap.graph());
    let mut body = serde_json::to_value(&stats);
    // Graft the cache counters, the write epoch, and the live snapshot +
    // retrieval-index versions onto the GraphStats object so operators
    // see hit rates and ingest progress next to graph shape. The two
    // versions come from one paired resolve, so they always match.
    if let serde_json::Value::Map(entries) = &mut body {
        entries.push(("epoch".to_string(), serde_json::to_value(&snap.epoch())));
        entries.push((
            "graph_version".to_string(),
            serde_json::to_value(&snap.version()),
        ));
        entries.push((
            "index_version".to_string(),
            serde_json::to_value(&handle.index.version()),
        ));
        entries.push((
            "cache".to_string(),
            serde_json::to_value(&chat.query_cache().stats()),
        ));
        entries.push((
            "query_parallelism".to_string(),
            serde_json::to_value(&chat.config().query_parallelism),
        ));
        let rc = chat.resilience_stats();
        entries.push((
            "resilience".to_string(),
            json!({
                "retries": rc.retries,
                "degraded": rc.degraded,
                "shed": state.shed_count(),
            }),
        ));
        // Copy-on-write storage accounting: how much heap the snapshot
        // retains and how much of its paged storage is shared with other
        // live clones (older snapshots readers still pin, in-flight
        // ingest copies) versus privately owned.
        let mem = snap.graph().memory_stats();
        entries.push((
            "snapshot_retained_bytes".to_string(),
            serde_json::to_value(&mem.retained_bytes),
        ));
        // Durability is always present so dashboards can key on it:
        // `null` when serving purely in memory, otherwise the WAL shape
        // and checkpoint/recovery progress.
        entries.push((
            "durability".to_string(),
            match chat.durability_stats() {
                Some(d) => json!({
                    "wal_segments": d.wal_segments,
                    "wal_bytes": d.wal_bytes,
                    "last_checkpoint_version": d.last_checkpoint_version,
                    "replayed": d.replayed,
                }),
                None => serde_json::Value::Null,
            },
        ));
        entries.push((
            "pages".to_string(),
            json!({
                "node_pages": mem.node_pages,
                "node_pages_shared": mem.node_pages_shared,
                "rel_pages": mem.rel_pages,
                "rel_pages_shared": mem.rel_pages_shared,
                "label_shards": mem.label_shards,
                "label_shards_shared": mem.label_shards_shared,
                "index_partitions": mem.index_partitions,
                "index_partitions_shared": mem.index_partitions_shared,
            }),
        ));
    }
    Response::json(200, body.to_string())
}

fn handle_health(snap: &GraphSnapshot) -> Response {
    Response::json(
        200,
        json!({
            "status": "ok",
            "nodes": snap.node_count(),
            "relationships": snap.rel_count(),
        })
        .to_string(),
    )
}

/// Readiness. Reaching this handler means a snapshot is published (the
/// deferred path answers 503 in [`handle`] before dispatch), so it
/// reports ready plus the live version for probes that log it.
fn handle_healthz(snap: &GraphSnapshot) -> Response {
    Response::json(
        200,
        json!({"status": "ready", "graph_version": snap.version()}).to_string(),
    )
}

/// `POST /admin/ingest`: applies a [`DeltaBatch`] and publishes the
/// next `(snapshot, retrieval index)` pair. Readers in flight keep the
/// pair they resolved; the response reports the version transition, the
/// published retrieval-index version (always equal to `new_version`),
/// the new graph's size, and the graph clone/apply/swap plus index
/// derive/apply/swap timings in microseconds.
fn handle_ingest(chat: &ChatIyp, req: &Request) -> Response {
    let batch: DeltaBatch = match serde_json::from_slice(&req.body) {
        Err(e) => {
            return Response::json(
                400,
                json!({"error": format!("invalid ingest batch: {e}")}).to_string(),
            )
        }
        Ok(b) => b,
    };
    match chat.ingest(&batch) {
        Ok(report) => Response::json(
            200,
            json!({
                "old_version": report.graph.old_version,
                "new_version": report.graph.new_version,
                "index_version": report.index_version,
                "ops_applied": report.graph.ops_applied,
                "nodes": report.graph.nodes,
                "rels": report.graph.rels,
                "clone_us": report.graph.clone.as_micros() as u64,
                "apply_us": report.graph.apply.as_micros() as u64,
                "swap_us": report.graph.swap.as_micros() as u64,
                "index_derive_us": report.derive.as_micros() as u64,
                "index_apply_us": report.index_apply.as_micros() as u64,
                "index_swap_us": report.index_swap.as_micros() as u64,
            })
            .to_string(),
        ),
        // An invalid batch is the caller's fault; a WAL append failure
        // (real or fault-injected) is the substrate's. Keeping the
        // status codes apart lets ingest clients retry 503s blindly
        // without ever retrying a batch that can never apply.
        Err(IngestError::Delta(e)) => {
            Response::json(400, json!({"error": e.to_string()}).to_string())
        }
        Err(IngestError::Durability(e)) => Response::json(
            503,
            json!({"error": format!("ingest not persisted: {e}")}).to_string(),
        )
        .with_header("retry-after", "1"),
    }
}

/// `POST /admin/checkpoint`: atomically saves the current snapshot to
/// the data directory and deletes WAL segments it fully covers. Answers
/// 400 when the server runs without durability (no `--data-dir`), 500
/// when the save or truncation itself fails.
fn handle_checkpoint(chat: &ChatIyp) -> Response {
    use chatiyp_core::DurabilityError;
    match chat.checkpoint() {
        Ok(report) => Response::json(
            200,
            json!({
                "version": report.version,
                "snapshot_bytes": report.snapshot_bytes,
                "truncated_segments": report
                    .truncated_segments
                    .iter()
                    .map(|p| p.display().to_string())
                    .collect::<Vec<_>>(),
                "wal_segments": report.wal.segments,
                "wal_bytes": report.wal.bytes,
                "duration_us": report.duration.as_micros() as u64,
            })
            .to_string(),
        ),
        Err(DurabilityError::NotConfigured) => Response::json(
            400,
            json!({"error": DurabilityError::NotConfigured.to_string()}).to_string(),
        ),
        Err(e) => Response::json(
            500,
            json!({"error": format!("checkpoint failed: {e}")}).to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatiyp_core::ChatIypConfig;
    use iyp_data::{generate, IypConfig};
    use iyp_llm::LmConfig;

    fn chat() -> AppState {
        AppState::ready(Arc::new(ChatIyp::new(
            generate(&IypConfig::tiny()),
            ChatIypConfig {
                lm: LmConfig {
                    seed: 42,
                    skill: 1.0,
                    variety: 0.0,
                },
                ..Default::default()
            },
        )))
    }

    /// A scratch data directory under the OS temp dir, wiped per test.
    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("chatiyp_server_api_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A durable pipeline over `dir` (recovers whatever is there).
    fn durable_chat(dir: &std::path::Path) -> AppState {
        let dcfg = chatiyp_core::DurabilityConfig::new(dir);
        let (chat, _report) = ChatIyp::open_durable(
            ChatIypConfig {
                lm: LmConfig {
                    seed: 42,
                    skill: 1.0,
                    variety: 0.0,
                },
                ..Default::default()
            },
            &dcfg,
            || generate(&IypConfig::tiny()),
        )
        .expect("open durable pipeline");
        AppState::ready(Arc::new(chat))
    }

    fn ingest_two_nodes(c: &AppState) -> Response {
        let mut batch = DeltaBatch::new();
        batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64512i64));
        batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64513i64));
        let body = serde_json::to_string(&batch).unwrap();
        handle(c, &req("POST", "/admin/ingest", &body))
    }

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            target: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
            http11: true,
        }
    }

    #[test]
    fn ask_endpoint_answers() {
        let c = chat();
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(body["answer"].as_str().unwrap().contains("IIJ"));
        assert_eq!(body["route"], "cypher");
        assert!(body["cypher"].as_str().unwrap().contains("2497"));
    }

    #[test]
    fn ask_rejects_bad_json_and_empty_question() {
        let c = chat();
        assert_eq!(handle(&c, &req("POST", "/ask", "not json")).status, 400);
        assert_eq!(
            handle(&c, &req("POST", "/ask", r#"{"question":"  "}"#)).status,
            400
        );
    }

    #[test]
    fn cypher_endpoint_runs_readonly_queries() {
        let c = chat();
        let r = handle(
            &c,
            &req(
                "POST",
                "/cypher",
                r#"{"query":"MATCH (a:AS) RETURN count(a)"}"#,
            ),
        );
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(body["rows"][0][0].as_i64().unwrap() > 0);
        // Write queries are refused.
        let r = handle(
            &c,
            &req("POST", "/cypher", r#"{"query":"CREATE (x:AS {asn: 1})"}"#),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn health_and_schema() {
        let c = chat();
        let r = handle(&c, &req("GET", "/health", ""));
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["status"], "ok");
        assert!(body["nodes"].as_u64().unwrap() > 0);

        let r = handle(&c, &req("GET", "/schema", ""));
        assert_eq!(r.status, 200);
        assert!(String::from_utf8_lossy(&r.body).contains("ORIGINATE"));
    }

    #[test]
    fn stats_endpoint_reports_graph_shape() {
        let c = chat();
        let r = handle(&c, &req("GET", "/stats", ""));
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(body["nodes"].as_u64().unwrap() > 0);
        assert!(body["nodes_by_label"]["AS"].as_u64().unwrap() > 0);
        assert!(body["rels_by_type"]["ORIGINATE"].as_u64().unwrap() > 0);
        assert!(body["degree"]["mean"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn stats_endpoint_exposes_cache_counters_and_epoch() {
        let c = chat();
        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        // Existing graph-shape keys survive the merge.
        assert!(body["nodes"].as_u64().unwrap() > 0);
        assert!(body["epoch"].as_u64().is_some());
        assert_eq!(body["cache"]["hits"].as_u64(), Some(0));
        assert_eq!(body["cache"]["misses"].as_u64(), Some(0));

        // Two identical /cypher calls: the second is a hit, visible in /stats.
        let q = r#"{"query":"MATCH (a:AS) RETURN count(a)"}"#;
        assert_eq!(handle(&c, &req("POST", "/cypher", q)).status, 200);
        assert_eq!(handle(&c, &req("POST", "/cypher", q)).status, 200);
        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["cache"]["misses"].as_u64(), Some(1));
        assert_eq!(body["cache"]["hits"].as_u64(), Some(1));
        assert_eq!(body["cache"]["len"].as_u64(), Some(1));
    }

    #[test]
    fn cypher_responses_identical_across_cache_hit() {
        let c = chat();
        let q = r#"{"query":"MATCH (a:AS) RETURN a.asn ORDER BY a.asn"}"#;
        let cold = handle(&c, &req("POST", "/cypher", q));
        let warm = handle(&c, &req("POST", "/cypher", q));
        assert_eq!(cold.status, 200);
        assert_eq!(cold.body, warm.body, "cache hit changed the wire bytes");
    }

    #[test]
    fn ask_with_trace_param_returns_span_tree() {
        let c = chat();
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask?trace=1",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(body["trace"]["total_us"].as_u64().is_some());
        let spans = body["trace"]["spans"].as_array().unwrap();
        assert!(!spans.is_empty());
        // The root span is "ask" with no parent; children link back to it.
        assert_eq!(spans[0]["name"].as_str(), Some("ask"));
        assert!(spans[0]["parent"].is_null());
        assert_eq!(spans[1]["parent"].as_u64(), Some(0));
        // Without the flag, no trace key is grafted on.
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(body["trace"].is_null());
    }

    #[test]
    fn trace_zero_and_false_disable_the_tree() {
        let c = chat();
        for target in ["/ask?trace=0", "/ask?trace=false"] {
            let r = handle(
                &c,
                &req(
                    "POST",
                    target,
                    r#"{"question":"What is the name of AS2497?"}"#,
                ),
            );
            assert_eq!(r.status, 200);
            let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
            assert!(body["trace"].is_null(), "{target} grafted a trace");
        }
    }

    #[test]
    fn cypher_profile_returns_per_operator_stats() {
        let c = chat();
        let r = handle(
            &c,
            &req(
                "POST",
                "/cypher",
                r#"{"query":"PROFILE MATCH (a:AS) RETURN count(a)"}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        // The query result itself still comes back...
        assert!(body["rows"][0][0].as_i64().unwrap() > 0);
        // ...plus the profile: per-op rows/db hits/time and the totals.
        let ops = body["profile"]["ops"].as_array().unwrap();
        assert_eq!(ops.len(), 2, "Match + Return");
        assert_eq!(ops[0]["name"].as_str(), Some("Match"));
        assert!(ops[0]["db_hits"].as_u64().unwrap() > 0);
        assert!(ops[0]["time_us"].as_u64().is_some());
        assert!(body["profile"]["total_db_hits"].as_u64().unwrap() > 0);
        assert_eq!(body["profile"]["result_rows"].as_u64(), Some(1));
        assert!(body["profile"]["rendered"]
            .as_str()
            .unwrap()
            .contains("dbHits="));
    }

    #[test]
    fn cypher_explain_returns_plan_without_executing() {
        let c = chat();
        let r = handle(
            &c,
            &req(
                "POST",
                "/cypher",
                r#"{"query":"explain MATCH (a:AS) RETURN count(a)"}"#,
            ),
        );
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let plan = body["plan"].as_str().unwrap();
        assert!(plan.contains("LabelScan(:AS"), "{plan}");
        assert!(body["rows"].is_null(), "EXPLAIN must not execute");
    }

    #[test]
    fn cypher_profile_rejects_bad_queries() {
        let c = chat();
        let r = handle(
            &c,
            &req(
                "POST",
                "/cypher",
                r#"{"query":"PROFILE MATCH (a RETURN a"}"#,
            ),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let c = chat();
        // Warm the pipeline so stage histograms exist.
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        assert_eq!(r.status, 200);
        let r = handle(&c, &req("GET", "/metrics", ""));
        assert_eq!(r.status, 200);
        let text = String::from_utf8(r.body).unwrap();
        // Pipeline stage histograms.
        assert!(
            text.contains("# TYPE chatiyp_stage_seconds histogram"),
            "{text}"
        );
        assert!(text.contains("chatiyp_stage_seconds_bucket{stage=\"parse\",le="));
        assert!(text.contains("chatiyp_stage_seconds_count{stage=\"ask_total\"} 1"));
        // HTTP series from the /ask call above.
        assert!(text.contains("chatiyp_http_request_seconds_bucket{path=\"/ask\",le="));
        assert!(text.contains("chatiyp_http_requests_total{path=\"/ask\",status=\"200\"} 1"));
        // Cache counters and graph gauges are appended at scrape time.
        assert!(text.contains("chatiyp_cache_events_total{kind=\"misses\"}"));
        assert!(text.contains("# TYPE chatiyp_graph_nodes gauge"));
        assert!(text.contains("\nchatiyp_graph_epoch "));
    }

    #[test]
    fn metrics_text_is_well_formed() {
        let c = chat();
        handle(
            &c,
            &req(
                "POST",
                "/ask",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        // Every non-comment line is `<series> <number>`.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!series.is_empty(), "bad line: {line}");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
        }
        // Each metric name gets exactly one HELP and one TYPE header.
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let name = line.split_whitespace().nth(2).unwrap();
            assert!(seen.insert(name.to_string()), "duplicate TYPE for {name}");
        }
    }

    #[test]
    fn unknown_requests_are_counted_under_other() {
        let c = chat();
        handle(&c, &req("GET", "/not-a-route", ""));
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("chatiyp_http_requests_total{path=\"other\",status=\"404\"} 1"),
            "{text}"
        );
    }

    /// `GET /stats` serves exactly the fields README.md documents — this
    /// is the contract test that keeps the docs and the endpoint in sync.
    /// If you add a field here, document it in README.md (and vice versa).
    #[test]
    fn stats_serves_exactly_the_documented_fields() {
        let c = chat();
        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let serde_json::Value::Map(entries) = &body else {
            panic!("stats body is not an object")
        };
        let mut got: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        got.sort_unstable();
        let documented = [
            "cache",
            "degree",
            "durability",
            "epoch",
            "graph_version",
            "index_version",
            "nodes",
            "nodes_by_label",
            "pages",
            "query_parallelism",
            "rels",
            "rels_by_type",
            "resilience",
            "snapshot_retained_bytes",
        ];
        assert_eq!(
            got, documented,
            "stats fields drifted from the documented set"
        );
        // In-memory pipelines report durability explicitly as null, so
        // dashboards can tell "not persisting" from "field missing".
        assert!(body["durability"].is_null(), "{body}");
        // The paged-storage accounting object carries exactly the
        // documented counters, and the retained-bytes figure is a real
        // (nonzero for a generated dataset) number.
        let serde_json::Value::Map(pages) = &body["pages"] else {
            panic!("pages is not an object")
        };
        let mut page_keys: Vec<&str> = pages.iter().map(|(k, _)| k.as_str()).collect();
        page_keys.sort_unstable();
        assert_eq!(
            page_keys,
            [
                "index_partitions",
                "index_partitions_shared",
                "label_shards",
                "label_shards_shared",
                "node_pages",
                "node_pages_shared",
                "rel_pages",
                "rel_pages_shared",
            ],
            "page accounting drifted from the documented set"
        );
        assert!(body["snapshot_retained_bytes"].as_u64().unwrap_or(0) > 0);
        assert!(body["pages"]["node_pages"].as_u64().unwrap_or(0) > 0);
        // The nested cache object too: these counters are documented.
        let serde_json::Value::Map(cache) = &body["cache"] else {
            panic!("cache is not an object")
        };
        let mut cache_keys: Vec<&str> = cache.iter().map(|(k, _)| k.as_str()).collect();
        cache_keys.sort_unstable();
        assert_eq!(
            cache_keys,
            [
                "capacity",
                "evictions",
                "hits",
                "invalidations",
                "len",
                "misses",
                "plan"
            ],
            "cache counters drifted from the documented set"
        );
        // Plan-cache sub-counters include the compiled count (PlanCache
        // entries that carry a slot-compiled form alongside the AST).
        assert!(
            body["cache"]["plan"]["compiled"].as_u64().is_some(),
            "plan cache stats missing the compiled counter"
        );
        // The configured worker count is an honest number, never zero.
        assert!(
            body["query_parallelism"].as_u64().unwrap_or(0) >= 1,
            "query_parallelism must be at least 1"
        );
        // The resilience object carries exactly the documented counters.
        let serde_json::Value::Map(res) = &body["resilience"] else {
            panic!("resilience is not an object")
        };
        let mut res_keys: Vec<&str> = res.iter().map(|(k, _)| k.as_str()).collect();
        res_keys.sort_unstable();
        assert_eq!(
            res_keys,
            ["degraded", "retries", "shed"],
            "resilience counters drifted from the documented set"
        );
    }

    /// A pipeline with a permanent injected fault at one point.
    fn faulty_chat(point: chatiyp_core::FaultPoint) -> AppState {
        use chatiyp_core::{FaultPlan, FaultRule, ResilienceConfig, RetryPolicy};
        let plan = FaultPlan::new(7).rule(point, FaultRule::window(0, u64::MAX));
        AppState::ready(Arc::new(ChatIyp::new(
            generate(&IypConfig::tiny()),
            ChatIypConfig {
                lm: LmConfig {
                    seed: 42,
                    skill: 1.0,
                    variety: 0.0,
                },
                resilience: ResilienceConfig {
                    faults: Some(plan.into_arc()),
                    retry: RetryPolicy {
                        base: std::time::Duration::ZERO,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        )))
    }

    #[test]
    fn ask_surfaces_the_degraded_marker() {
        // Healthy pipeline: degraded is null on the wire.
        let c = chat();
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(body["degraded"].is_null(), "{body}");

        // Translator outage: still 200, but marked degraded and served
        // from the vector fallback.
        let c = faulty_chat(chatiyp_core::FaultPoint::LlmTranslate);
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(
            body["degraded"].as_str(),
            Some("text2cypher-unavailable"),
            "{body}"
        );
        assert_eq!(body["route"], "vector-fallback", "{body}");
    }

    #[test]
    fn cypher_answers_503_with_retry_after_during_exec_outage() {
        let c = faulty_chat(chatiyp_core::FaultPoint::Exec);
        let q = r#"{"query":"MATCH (a:AS) RETURN count(a)"}"#;
        let r = handle(&c, &req("POST", "/cypher", q));
        assert_eq!(r.status, 503, "{}", String::from_utf8_lossy(&r.body));
        assert!(
            r.extra_headers
                .iter()
                .any(|(n, v)| *n == "retry-after" && v == "1"),
            "503 lacks retry-after"
        );
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(
            body["error"]
                .as_str()
                .unwrap()
                .contains("temporarily unavailable"),
            "{body}"
        );
        // A bad query is still a 400, not a 503 — error classes stay apart.
        let c = chat();
        let r = handle(
            &c,
            &req("POST", "/cypher", r#"{"query":"MATCH (a RETURN a"}"#),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn stats_and_metrics_expose_resilience_counters() {
        let c = faulty_chat(chatiyp_core::FaultPoint::LlmTranslate);
        c.note_shed();
        c.note_shed();
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask",
                r#"{"question":"What is the name of AS2497?"}"#,
            ),
        );
        assert_eq!(r.status, 200);

        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["resilience"]["shed"].as_u64(), Some(2), "{body}");
        assert!(
            body["resilience"]["degraded"].as_u64().unwrap() >= 1,
            "{body}"
        );
        assert!(
            body["resilience"]["retries"].as_u64().unwrap() >= 1,
            "{body}"
        );

        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("# TYPE chatiyp_retries_total counter"),
            "{text}"
        );
        assert!(text.contains("# TYPE chatiyp_degraded_total counter"));
        assert!(text.contains("# TYPE chatiyp_shed_total counter"));
        assert!(text.contains("\nchatiyp_shed_total 2"), "{text}");
    }

    #[test]
    fn checkpoint_without_data_dir_is_a_400() {
        let c = chat();
        let r = handle(&c, &req("POST", "/admin/checkpoint", ""));
        assert_eq!(r.status, 400, "{}", String::from_utf8_lossy(&r.body));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(
            body["error"].as_str().unwrap().contains("not configured"),
            "{body}"
        );
    }

    #[test]
    fn durable_stats_expose_the_wal_shape() {
        let dir = fresh_dir("durable_stats");
        let c = durable_chat(&dir);
        assert_eq!(ingest_two_nodes(&c).status, 200);

        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let d = &body["durability"];
        assert!(!d.is_null(), "{body}");
        assert_eq!(d["wal_segments"].as_u64(), Some(1), "{body}");
        assert!(d["wal_bytes"].as_u64().unwrap() > 0, "{body}");
        assert_eq!(d["last_checkpoint_version"].as_u64(), Some(0), "{body}");
        assert_eq!(d["replayed"].as_u64(), Some(0), "{body}");
    }

    #[test]
    fn checkpoint_endpoint_saves_and_truncates() {
        let dir = fresh_dir("checkpoint_endpoint");
        let c = durable_chat(&dir);
        assert_eq!(ingest_two_nodes(&c).status, 200);

        let r = handle(&c, &req("POST", "/admin/checkpoint", ""));
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["version"].as_u64(), Some(2), "{body}");
        assert!(body["snapshot_bytes"].as_u64().unwrap() > 0, "{body}");
        // The active segment was fully covered, so it went away.
        assert_eq!(
            body["truncated_segments"].as_array().unwrap().len(),
            1,
            "{body}"
        );
        assert_eq!(body["wal_segments"].as_u64(), Some(0), "{body}");
        assert!(body["duration_us"].as_u64().is_some(), "{body}");
        assert!(dir.join("checkpoint.json").exists());

        // /stats reflects the checkpoint.
        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(
            body["durability"]["last_checkpoint_version"].as_u64(),
            Some(2),
            "{body}"
        );
        assert_eq!(body["durability"]["wal_bytes"].as_u64(), Some(0), "{body}");
    }

    #[test]
    fn durable_recovery_replays_and_reports_in_metrics() {
        let dir = fresh_dir("durable_recovery_metrics");
        {
            let c = durable_chat(&dir);
            assert_eq!(ingest_two_nodes(&c).status, 200);
        }
        // A second boot over the same directory replays the WAL record.
        let c = durable_chat(&dir);
        let r = handle(&c, &req("GET", "/healthz", ""));
        let hz: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(hz["graph_version"].as_u64(), Some(2), "{hz}");

        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("# TYPE chatiyp_recovery_replayed_total counter"),
            "{text}"
        );
        assert!(
            text.contains("\nchatiyp_recovery_replayed_total 1"),
            "{text}"
        );
        assert!(text.contains("# TYPE chatiyp_wal_segments gauge"), "{text}");
        assert!(text.contains("# TYPE chatiyp_wal_bytes gauge"), "{text}");
        assert!(
            text.contains("# TYPE chatiyp_checkpoint_version gauge"),
            "{text}"
        );

        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["durability"]["replayed"].as_u64(), Some(1), "{body}");
    }

    #[test]
    fn durable_ingest_records_wal_histograms() {
        let dir = fresh_dir("durable_ingest_histograms");
        let c = durable_chat(&dir);
        assert_eq!(ingest_two_nodes(&c).status, 200);
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("chatiyp_wal_append_seconds_count 1"),
            "{text}"
        );
        // fsync=always: every append synced.
        assert!(text.contains("chatiyp_wal_fsync_seconds_count 1"), "{text}");

        assert_eq!(
            handle(&c, &req("POST", "/admin/checkpoint", "")).status,
            200
        );
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("chatiyp_checkpoint_seconds_count 1"),
            "{text}"
        );
    }

    #[test]
    fn memory_only_metrics_omit_durability_series() {
        let c = chat();
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(!text.contains("chatiyp_recovery_replayed_total"), "{text}");
        assert!(!text.contains("chatiyp_wal_segments"), "{text}");
    }

    #[test]
    fn wal_outage_answers_503_and_publishes_nothing() {
        use chatiyp_core::{DurabilityConfig, FaultPlan, FaultPoint, FaultRule};
        let dir = fresh_dir("wal_outage_503");
        let plan = FaultPlan::new(7).rule(FaultPoint::Wal, FaultRule::window(0, u64::MAX));
        let (chat, _report) = ChatIyp::open_durable(
            ChatIypConfig {
                lm: LmConfig {
                    seed: 42,
                    skill: 1.0,
                    variety: 0.0,
                },
                resilience: chatiyp_core::ResilienceConfig {
                    faults: Some(plan.into_arc()),
                    ..Default::default()
                },
                ..Default::default()
            },
            &DurabilityConfig::new(&dir),
            || generate(&IypConfig::tiny()),
        )
        .unwrap();
        let c = AppState::ready(Arc::new(chat));

        let r = ingest_two_nodes(&c);
        assert_eq!(r.status, 503, "{}", String::from_utf8_lossy(&r.body));
        assert!(
            r.extra_headers
                .iter()
                .any(|(n, v)| *n == "retry-after" && v == "1"),
            "503 lacks retry-after"
        );
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(
            body["error"].as_str().unwrap().contains("not persisted"),
            "{body}"
        );
        // Nothing published, nothing on disk to replay.
        let r = handle(&c, &req("GET", "/healthz", ""));
        let hz: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(hz["graph_version"].as_u64(), Some(1), "{hz}");
        let r = handle(&c, &req("GET", "/stats", ""));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["durability"]["wal_bytes"].as_u64(), Some(0), "{body}");
        // A bad batch on the same durable pipeline is still a 400.
        let mut bad = DeltaBatch::new();
        bad.remove_node(iyp_graphdb::NodeId(u64::MAX));
        let r = handle(
            &c,
            &req(
                "POST",
                "/admin/ingest",
                &serde_json::to_string(&bad).unwrap(),
            ),
        );
        assert_eq!(r.status, 400, "{}", String::from_utf8_lossy(&r.body));
    }

    #[test]
    fn unknown_paths_and_methods() {
        let c = chat();
        assert_eq!(handle(&c, &req("GET", "/nope", "")).status, 404);
        assert_eq!(handle(&c, &req("DELETE", "/ask", "")).status, 405);
    }

    #[test]
    fn healthz_reports_ready_with_version() {
        let c = chat();
        let r = handle(&c, &req("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["status"], "ready");
        assert_eq!(body["graph_version"].as_u64(), Some(1));
    }

    #[test]
    fn deferred_state_serves_503_until_published() {
        let state = AppState::deferred();
        for (method, path) in [
            ("GET", "/healthz"),
            ("GET", "/health"),
            ("GET", "/stats"),
            ("POST", "/ask"),
        ] {
            let r = handle(&state, &req(method, path, "{}"));
            assert_eq!(r.status, 503, "{method} {path}");
            assert!(
                r.extra_headers
                    .iter()
                    .any(|(n, v)| *n == "retry-after" && v == "1"),
                "{method} {path} lacks retry-after"
            );
        }
        // Publish flips readiness; a second publish is refused.
        let built = chat();
        let chat = Arc::clone(built.chat().unwrap());
        assert!(state.publish(Arc::clone(&chat)));
        assert!(!state.publish(chat));
        assert_eq!(handle(&state, &req("GET", "/healthz", "")).status, 200);
    }

    #[test]
    fn ingest_endpoint_swaps_versions_and_updates_reads() {
        let c = chat();
        let count_q = r#"{"query":"MATCH (a:AS) RETURN count(a)"}"#;
        let count = |c: &AppState| -> i64 {
            let r = handle(c, &req("POST", "/cypher", count_q));
            assert_eq!(r.status, 200);
            let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
            body["rows"][0][0].as_i64().unwrap()
        };
        let before = count(&c);

        let mut batch = DeltaBatch::new();
        let x = batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64512i64));
        batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64513i64));
        batch.set_node_prop(x, "name", iyp_graphdb::Value::from("Ingested"));
        let body = serde_json::to_string(&batch).unwrap();
        let r = handle(&c, &req("POST", "/admin/ingest", &body));
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let rep: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(rep["old_version"].as_u64(), Some(1));
        assert_eq!(rep["new_version"].as_u64(), Some(2));
        assert_eq!(rep["index_version"].as_u64(), Some(2));
        assert_eq!(rep["ops_applied"].as_u64(), Some(3));
        assert!(rep["nodes"].as_u64().unwrap() > 0);
        assert!(rep["clone_us"].as_u64().is_some());
        assert!(rep["apply_us"].as_u64().is_some());
        assert!(rep["swap_us"].as_u64().is_some());
        assert!(rep["index_derive_us"].as_u64().is_some());
        assert!(rep["index_apply_us"].as_u64().is_some());
        assert!(rep["index_swap_us"].as_u64().is_some());

        // Reads see the new snapshot — including through the cache.
        assert_eq!(count(&c), before + 2);
        let r = handle(&c, &req("GET", "/stats", ""));
        let stats: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(stats["graph_version"].as_u64(), Some(2));
        assert_eq!(stats["index_version"].as_u64(), Some(2));
        let r = handle(&c, &req("GET", "/healthz", ""));
        let hz: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(hz["graph_version"].as_u64(), Some(2));
    }

    #[test]
    fn ingest_rejects_bad_batches_without_swapping() {
        let c = chat();
        // Not JSON at all.
        assert_eq!(
            handle(&c, &req("POST", "/admin/ingest", "not json")).status,
            400
        );
        // A structurally valid batch with an invalid op: nothing publishes.
        let mut batch = DeltaBatch::new();
        batch.remove_node(iyp_graphdb::NodeId(u64::MAX));
        let body = serde_json::to_string(&batch).unwrap();
        assert_eq!(handle(&c, &req("POST", "/admin/ingest", &body)).status, 400);
        let r = handle(&c, &req("GET", "/healthz", ""));
        let hz: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(
            hz["graph_version"].as_u64(),
            Some(1),
            "failed batch swapped"
        );
    }

    #[test]
    fn metrics_exposes_graph_version_gauge() {
        let c = chat();
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("# TYPE chatiyp_graph_version gauge"),
            "{text}"
        );
        assert!(text.contains("\nchatiyp_graph_version 1"));

        let batch = DeltaBatch::new();
        let body = serde_json::to_string(&batch).unwrap();
        assert_eq!(handle(&c, &req("POST", "/admin/ingest", &body)).status, 200);
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("\nchatiyp_graph_version 2"));
        // The swap histograms are recorded under the snapshot metric,
        // with the COW clone stage broken out from the batch apply.
        for stage in ["clone", "apply", "swap"] {
            assert!(
                text.contains(&format!(
                    "chatiyp_snapshot_swap_seconds_count{{stage=\"{stage}\"}} 1"
                )),
                "missing snapshot swap stage {stage}: {text}"
            );
        }
    }

    #[test]
    fn metrics_exposes_snapshot_bytes_gauge() {
        let c = chat();
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("# TYPE chatiyp_snapshot_bytes gauge"),
            "{text}"
        );
        let line = text
            .lines()
            .find(|l| l.starts_with("chatiyp_snapshot_bytes "))
            .expect("gauge sample missing");
        let bytes: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(bytes > 0, "snapshot bytes gauge is zero");
    }

    #[test]
    fn metrics_exposes_index_version_gauge_and_refresh_histograms() {
        let c = chat();
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        assert!(
            text.contains("# TYPE chatiyp_index_version gauge"),
            "{text}"
        );
        assert!(text.contains("\nchatiyp_index_version 1"));

        let batch = DeltaBatch::new();
        let body = serde_json::to_string(&batch).unwrap();
        assert_eq!(handle(&c, &req("POST", "/admin/ingest", &body)).status, 200);
        let r = handle(&c, &req("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        // The index version moves in lockstep with the graph version.
        assert!(text.contains("\nchatiyp_index_version 2"));
        assert!(text.contains("\nchatiyp_graph_version 2"));
        // The refresh stages are recorded under the index metric.
        for stage in ["derive", "apply", "swap"] {
            assert!(
                text.contains(&format!(
                    "chatiyp_index_refresh_seconds_count{{stage=\"{stage}\"}} 1"
                )),
                "missing index refresh stage {stage}: {text}"
            );
        }
    }

    /// The acceptance e2e: a node added through `POST /admin/ingest` is
    /// retrievable by the semantic fallback immediately afterwards — on
    /// a stale index the fallback would serve pre-ingest context and
    /// this test fails.
    #[test]
    fn ingest_endpoint_refreshes_semantic_fallback_and_catalog() {
        let c = chat();
        let name = "Ingest Networks 64512";
        let fallback_q =
            json!({"question": format!("Tell me everything interesting about {name}")}).to_string();

        // Before the ingest the fallback cannot surface the node.
        let r = handle(&c, &req("POST", "/ask", &fallback_q));
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(
            !body["contexts"]
                .as_array()
                .unwrap()
                .iter()
                .any(|t| t.as_str().unwrap().contains(name)),
            "new node retrieved before it was ingested: {body}"
        );

        let mut batch = DeltaBatch::new();
        let x = batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64512i64));
        batch.set_node_prop(x, "name", iyp_graphdb::Value::from(name));
        let r = handle(
            &c,
            &req(
                "POST",
                "/admin/ingest",
                &serde_json::to_string(&batch).unwrap(),
            ),
        );
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));

        // The semantic fallback now retrieves the freshly ingested node.
        let r = handle(&c, &req("POST", "/ask", &fallback_q));
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["route"], "vector-fallback", "{body}");
        assert!(
            body["contexts"]
                .as_array()
                .unwrap()
                .iter()
                .any(|t| t.as_str().unwrap().contains(name)),
            "semantic fallback missed the ingested node: {body}"
        );

        // The entity catalog refreshed too: the new name now routes
        // through Cypher and resolves to the ingested ASN.
        let r = handle(
            &c,
            &req(
                "POST",
                "/ask",
                &json!({"question": format!("What is the ASN of {name}?")}).to_string(),
            ),
        );
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body["route"], "cypher", "{body}");
        assert!(body["answer"].as_str().unwrap().contains("64512"), "{body}");
    }
}
