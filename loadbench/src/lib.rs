//! `loadbench`: the load benchmark for `chatiyp serve`.
//!
//! One load generator spawns the release server binary with its existing
//! flags, drives it over loopback TCP from this single process (at most
//! two client threads and connections), checks every answer against an
//! in-process reference, and reports end-to-end metrics. A traced run of
//! the same workload attributes time to the workspace crates from
//! outside the program: spans around the benchmark's own calls into each
//! crate, plus `/metrics` and `/stats` deltas. See `README.md`.

pub mod ask;
pub mod http;
pub mod ingest;
pub mod inputs;
pub mod report;
pub mod server;
pub mod stats;
pub mod trace;

use http::Response;
use report::{Metrics, Outcome};
use server::{hist_delta_ms, Scrape, Server};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over keep-alive connections on the cached question set.
    AskHot,
    /// Open loop at fixed rates, one fresh connection per request, on a
    /// question set larger than the result cache.
    AskColdFresh,
    /// Paced ingests beside a closed loop of parity-corpus reads on a
    /// durable server at 4x scale.
    IngestRead,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::AskHot,
        Workload::AskColdFresh,
        Workload::IngestRead,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AskHot => "ask-hot",
            Workload::AskColdFresh => "ask-cold-fresh",
            Workload::IngestRead => "ingest-read",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics every workload reports, as listed in the
/// repository's `BENCHMARK.json`.
pub const E2E_METRICS: [&str; 3] = ["setup_s", "read_ms", "server_rss_mb"];

/// Per-layer metrics every traced run reports (0 where a layer is not
/// exercised), as listed in `BENCHMARK.json`. The report also prints
/// `graphdb.nodes`, which no optimisation moves.
pub const LAYER_METRICS: [&str; 35] = [
    "server.wait_ms",
    "server.handler_ms",
    "server.conns_per_req",
    "server.shed",
    "server.queue_timeouts",
    "core.ask_ms",
    "core.ask_self_ms",
    "core.cache_hit_ratio",
    "core.plan_cache_hit_ratio",
    "core.cache_invalidations",
    "core.fallback_share",
    "core.ingest_ms",
    "core.index_derive_ms",
    "core.index_apply_ms",
    "llm.translate_ms",
    "llm.generate_ms",
    "llm.rerank_ms",
    "llm.translation_error_ratio",
    "cypher.parse_ms",
    "cypher.compile_ms",
    "cypher.execute_ms",
    "cypher.db_hits_per_row",
    "cypher.worst_query_ms",
    "embed.embed_ms",
    "embed.retrieve_ms",
    "graphdb.clone_ms",
    "graphdb.apply_ms",
    "graphdb.swap_us",
    "graphdb.wal_append_ms",
    "graphdb.wal_fsync_ms",
    "graphdb.wal_bytes_per_ingest",
    "graphdb.snapshot_mb",
    "ledger.e2e_ms",
    "ledger.residual_ms",
    "trace.overhead_ms",
];

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `chatiyp` release binary.
    pub server_bin: PathBuf,
    /// Directory for logs, spans, reports and the durable server's data.
    pub out_dir: PathBuf,
    /// Serve and mirror the tiny dataset (smoke tests).
    pub tiny: bool,
}

impl Opts {
    /// The generator config the server boots from (mirrored in-process).
    pub fn iyp_config(&self) -> iyp_data::IypConfig {
        if self.tiny {
            iyp_data::IypConfig::tiny()
        } else {
            iyp_data::IypConfig::default()
        }
    }

    /// Extra server flags implied by the options.
    pub fn base_flags(&self) -> Vec<String> {
        if self.tiny {
            vec!["--tiny".to_string()]
        } else {
            Vec::new()
        }
    }

    /// How many times a run sets the server up: several in the
    /// end-to-end run (the median is `setup_s`; fewer for the slow
    /// durable scale-up, where each set-up also gets its own measured
    /// trial), once when tracing.
    pub fn setup_reps(&self) -> usize {
        match (self.trace, self.workload) {
            (true, _) => 1,
            (false, Workload::IngestRead) => 3,
            (false, _) => 5,
        }
    }

    /// Server stderr log for this run.
    pub fn log_path(&self) -> PathBuf {
        self.out_dir.join(format!(
            "server-{}-seed{}-trace{}.log",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        ))
    }

    /// Path stem for this run's report and spans.
    pub fn out_stem(&self) -> PathBuf {
        self.out_dir.join(format!(
            "{}-seed{}-trace{}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        ))
    }
}

/// Logs a progress line to stderr, stamped with seconds since start.
pub fn note(msg: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("[loadbench {t:7.2}s] {msg}");
}

/// Client threads and connections: at most the core count, at most two.
pub fn clients() -> usize {
    nproc().min(2)
}

/// Online cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `git rev-parse HEAD` when run from a git
/// checkout, else `unknown`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Spawns the server and waits for readiness.
pub fn spawn_ready(opts: &Opts, flags: &[String]) -> io::Result<Server> {
    let mut server = Server::spawn(&opts.server_bin, flags, &opts.log_path())?;
    server.wait_ready(Duration::from_secs(60))?;
    Ok(server)
}

/// What the repeated set-ups measured.
#[derive(Debug, Default)]
pub struct SetUps {
    /// Seconds from spawn to ready-for-measurement, per set-up.
    pub seconds: Vec<f64>,
    /// Peak RSS (MiB) at the end of each set-up.
    pub rss_mb: Vec<f64>,
}

impl SetUps {
    /// Adds `setup_s` and `setup_rss_mb`: medians over the set-ups.
    pub fn put(&self, e: &mut Metrics) {
        let n = self.seconds.len();
        e.put_n("setup_s", stats::median(&self.seconds), "s", n);
        e.put_n("setup_rss_mb", stats::median(&self.rss_mb), "MiB", n);
    }

    /// One set-up: spawns the server with `flags`, waits for readiness and
    /// runs `prepare`, recording the time from spawn to
    /// ready-for-measurement and the peak RSS.
    pub fn one(
        &mut self,
        opts: &Opts,
        flags: &[String],
        prepare: &mut dyn FnMut(&Server) -> io::Result<()>,
    ) -> io::Result<Server> {
        let t0 = Instant::now();
        let server = spawn_ready(opts, flags)?;
        prepare(&server)?;
        let secs = t0.elapsed().as_secs_f64();
        self.seconds.push(secs);
        self.rss_mb.push(server.peak_rss_mb()?);
        note(&format!("set-up {}: {secs:.3}s", self.seconds.len()));
        Ok(server)
    }
}

/// One request as the generator saw it. `item` indexes the workload's
/// inputs: the question set for `/ask`, the parity corpus for `/cypher`,
/// the paced batches for `/admin/ingest`.
pub struct Sample {
    /// Which input was sent.
    pub item: usize,
    /// When the request was due (the send time in a closed loop).
    pub due: Instant,
    /// When it went out.
    pub sent: Instant,
    /// When the reply (or the transport error) arrived.
    pub done: Instant,
    /// The reply, or the transport error.
    pub resp: Result<Response, String>,
}

impl Sample {
    /// Latency from send (ms).
    pub fn since_send_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// Latency from due time (ms).
    pub fn since_due_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it (ms past the due time).
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// The reply if it is a 200; otherwise counts the failure in `o`
    /// (`transport` or `status-<code>`).
    pub fn ok_reply(&self, o: &mut Outcome) -> Option<&Response> {
        match &self.resp {
            Err(_) => o.fail("transport"),
            Ok(r) if r.status != 200 => o.fail(format!("status-{}", r.status)),
            Ok(r) => return Some(r),
        }
        None
    }
}

/// What a measured phase produced.
pub struct Batch {
    /// The workload's reads: `/ask` or `/cypher` requests.
    pub reads: Vec<Sample>,
    /// Paced `/admin/ingest` requests (empty on the ask workloads).
    pub ingests: Vec<Sample>,
    /// Connections the client opened.
    pub conns: u64,
    /// Wall-clock seconds the phase ran.
    pub elapsed: f64,
    /// Client spans recorded during the phase.
    pub tracer: Tracer,
}

impl Batch {
    /// An empty batch recording into `tracer`.
    pub fn new(tracer: Tracer) -> Batch {
        Batch {
            reads: Vec::new(),
            ingests: Vec::new(),
            conns: 0,
            elapsed: 0.0,
            tracer,
        }
    }

    /// Pools several segments of one phase.
    pub fn concat(parts: Vec<Batch>) -> Batch {
        let mut out = Batch::new(Tracer::new(Instant::now(), false));
        for p in parts {
            out.reads.extend(p.reads);
            out.ingests.extend(p.ingests);
            out.conns += p.conns;
            out.elapsed += p.elapsed;
            out.tracer.merge(p.tracer);
        }
        out
    }
}

/// The traced run's schedule: untraced (U) and traced (T) segments in the
/// order U T T U U T T U. Each kind samples the whole run evenly, so drift
/// over the run (the graph growing, the host changing speed) cancels out
/// of `trace.overhead_ms`.
pub const TRACED_SCHEDULE: [bool; 8] = [false, true, true, false, false, true, true, false];

/// Runs [`TRACED_SCHEDULE`] over `seconds`; `drive(seconds, segment,
/// traced)` runs one segment. Returns the pooled untraced and traced
/// batches, and `/metrics` + `/stats` scrapes taken before the first
/// segment and after the last.
pub fn traced_schedule(
    server: &Server,
    seconds: f64,
    drive: &mut dyn FnMut(f64, usize, bool) -> Batch,
) -> io::Result<(Batch, Batch, Scrape, Scrape)> {
    let before = server.scrape()?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (segment, &on) in TRACED_SCHEDULE.iter().enumerate() {
        let b = drive(seconds / TRACED_SCHEDULE.len() as f64, segment, on);
        if on {
            traced.push(b);
        } else {
            untraced.push(b);
        }
    }
    let after = server.scrape()?;
    Ok((
        Batch::concat(untraced),
        Batch::concat(traced),
        before,
        after,
    ))
}

/// Maps `f` over `items` on [`clients`] scoped threads, keeping order:
/// the off-clock reference work.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(clients()).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Adds the per-layer metrics every workload reads off the server between
/// the two scrapes around the traced schedule (`server.*`, the `core`
/// cache counters, `graphdb.snapshot_mb`, `graphdb.nodes`) and the
/// client-side ledger totals (`ledger.e2e_ms`, `trace.overhead_ms`). The
/// server cannot tell the segments apart, so the server-side figures and
/// `ledger.e2e_ms` cover both kinds; `trace.overhead_ms` is the typical
/// read latency (mean of per-input medians) of the traced segments minus
/// that of the untraced ones. `path` is the read path whose handler
/// histogram is used. Returns the mean handler time (ms) and the
/// plan-cache hit ratio, for the workload's residual.
pub fn put_server_layers(
    m: &mut Metrics,
    path: &str,
    untraced: &Batch,
    traced: &Batch,
    before: &Scrape,
    after: &Scrape,
) -> (f64, f64) {
    let e2e: Vec<f64> = untraced
        .reads
        .iter()
        .chain(&traced.reads)
        .map(Sample::since_send_ms)
        .collect();
    let e2e_ms = stats::mean(&e2e);
    let typical = |b: &Batch| {
        stats::mean_of_class_medians(b.reads.iter().map(|s| (s.item, s.since_send_ms())))
    };
    let labels = format!("{{path=\"{path}\"}}");
    let (handler, _) = hist_delta_ms(before, after, "chatiyp_http_request_seconds", &labels);
    let delta = |path: &[&str]| after.stat(path) - before.stat(path);
    let hit_ratio = |kind: &[&str]| {
        let hits = delta(&[kind, &["hits"]].concat());
        let misses = delta(&[kind, &["misses"]].concat());
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let requests = [untraced, traced]
        .iter()
        .map(|b| b.reads.len() + b.ingests.len())
        .sum::<usize>() as u64;
    let timeouts = [untraced, traced]
        .iter()
        .flat_map(|b| b.reads.iter().chain(&b.ingests))
        .filter(|s| matches!(&s.resp, Ok(r) if r.status == 504))
        .count();
    let plan_hit = hit_ratio(&["cache", "plan"]);

    m.put_n("server.wait_ms", e2e_ms - handler, "ms", e2e.len());
    m.put("server.handler_ms", handler, "ms");
    m.put(
        "server.conns_per_req",
        report::ratio(untraced.conns + traced.conns, requests),
        "ratio",
    );
    m.put("server.shed", delta(&["resilience", "shed"]), "count");
    m.put("server.queue_timeouts", timeouts as f64, "count");
    m.put("core.cache_hit_ratio", hit_ratio(&["cache"]), "ratio");
    m.put("core.plan_cache_hit_ratio", plan_hit, "ratio");
    m.put(
        "core.cache_invalidations",
        delta(&["cache", "invalidations"]),
        "count",
    );
    m.put(
        "graphdb.snapshot_mb",
        after.series("chatiyp_snapshot_bytes") / 1048576.0,
        "MiB",
    );
    m.put(
        "graphdb.nodes",
        after.series("chatiyp_graph_nodes"),
        "count",
    );
    m.put("ledger.e2e_ms", e2e_ms, "ms");
    m.put(
        "trace.overhead_ms",
        typical(traced) - typical(untraced),
        "ms",
    );
    (handler, plan_hit)
}

/// Sets the server up `opts.setup_reps()` times and keeps the last
/// server.
pub fn set_up(
    opts: &Opts,
    flags: &[String],
    prepare: &mut dyn FnMut(&Server) -> io::Result<()>,
) -> io::Result<(Server, SetUps)> {
    let mut done = SetUps::default();
    let mut server = done.one(opts, flags, prepare)?;
    for _ in 1..opts.setup_reps() {
        drop(server);
        server = done.one(opts, flags, prepare)?;
    }
    Ok((server, done))
}

/// `(nodes, relationships)` from `GET /health`.
pub fn graph_size(server: &Server) -> io::Result<(u64, u64)> {
    let v: serde_json::Value = serde_json::from_str(&http::get_ok(server.addr, "/health")?)
        .map_err(|e| io::Error::other(format!("bad /health JSON: {e}")))?;
    let n = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    Ok((n("nodes"), n("relationships")))
}

/// Stamps the provenance every result carries.
pub fn stamp_common(o: &mut Outcome, opts: &Opts, flags: &[String]) {
    o.stamp("workload", serde_json::json!(opts.workload.name()));
    o.stamp("seed", serde_json::json!(opts.seed));
    o.stamp("trace", serde_json::json!(opts.trace));
    o.stamp("seconds", serde_json::json!(opts.seconds));
    o.stamp("nproc", serde_json::json!(nproc()));
    o.stamp("clients", serde_json::json!(clients()));
    o.stamp("git_rev", serde_json::json!(git_rev()));
    o.stamp("server_flags", serde_json::json!(flags.join(" ")));
}

/// Runs one workload.
pub fn run(opts: &Opts) -> io::Result<Outcome> {
    note(&format!(
        "{} seed {} trace {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::create_dir_all(&opts.out_dir)?;
    match opts.workload {
        Workload::AskHot => ask::run(opts, false),
        Workload::AskColdFresh => ask::run(opts, true),
        Workload::IngestRead => ingest::run(opts),
    }
}

/// Adds each span name's mean self time (`span.<name>.self_ms`): its
/// duration minus the time its child spans cover. Reported, not listed
/// in `BENCHMARK.json`.
pub fn put_span_self_times(m: &mut Metrics, tracer: &trace::Tracer) {
    for (name, s) in tracer.summary() {
        let n = s.count as usize;
        m.put_n(
            format!("span.{name}.self_ms"),
            s.self_ms / n.max(1) as f64,
            "ms",
            n,
        );
    }
}

/// Fills every per-layer metric a workload left unset with 0, so each
/// traced run reports the full list.
pub fn complete_layers(o: &mut Outcome) {
    for name in LAYER_METRICS {
        if o.layers.get(name).is_none() {
            let unit = layer_unit(name);
            o.layers.put(name, 0.0, unit);
        }
    }
}

/// The unit of a per-layer metric, from its name.
pub fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ratio") || name.ends_with("_share") || name.ends_with("_per_req") {
        "ratio"
    } else if name.ends_with("_mb") {
        "MiB"
    } else if name.ends_with("_per_ingest") {
        "bytes"
    } else {
        "count"
    }
}
