//! The two `/ask` workloads.
//!
//! * **ask-hot**: a closed loop over keep-alive connections, asking the
//!   312-question CypherEval set again and again in a seeded order. The
//!   set fits the server's result cache, so after warm-up every
//!   structured answer is a cache hit.
//! * **ask-cold-fresh**: an open loop at fixed rates, one new TCP
//!   connection per request and at most two in flight, over a seeded
//!   CypherEval set asked in cyclic order. Its distinct Cypher outnumbers
//!   the result cache, so the LRU never hits.
//!
//! Both check every reply against an in-process [`ChatIyp`] built from
//! the same generated dataset and configuration as the server, off the
//! clock.

use crate::http::{self, Conn, KeepAlive};
use crate::report::{self, Metrics, Outcome, Phase};
use crate::server::Scrape;
use crate::trace::Tracer;
use crate::{clients, inputs, stats, Batch, Opts, Sample};
use chatiyp_core::{ChatIyp, ChatIypConfig};
use cypher_eval::{results_match, EvalItem, Validator};
use iyp_cypher::{ExecLimits, Params, QueryResult};
use iyp_llm::{generate_answer, Reranker, SimLm, TranslationError, Translator};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Questions in the ask-cold-fresh set: its distinct generated Cypher
/// (well over 1024) outnumbers the server's 1024-entry result cache.
const COLD_SET: usize = 4096;
/// The cold set on the tiny dataset (smoke runs).
const TINY_COLD_SET: usize = 600;
/// Warm-up requests before ask-cold-fresh is timed (a fixed set, so the
/// set-up and its memory footprint do not vary with the seed).
const COLD_WARMUP: usize = 64;
/// The fixed open-loop rate (req/s) at which ask-cold-fresh's end-to-end
/// latency is measured.
const BASE_RATE: f64 = 100.0;
/// The rate ladder (req/s) climbed after the base rate for `ask_slo_rps`.
const LADDER: [f64; 4] = [150.0, 200.0, 300.0, 400.0];
/// The latency objective: the rung's p95 latency (from due time) must stay
/// within [`SLO_LIMIT_MS`]. A p99 would need 1000 samples per rung.
const SLO_PERCENTILE: f64 = 95.0;
/// The latency limit of the objective.
const SLO_LIMIT_MS: f64 = 25.0;
/// Requests of the traced segments replayed in-process for attribution.
const REPLAY_MAX: usize = 600;

/// The reference reply for one question.
struct Reference {
    answer: String,
    cypher: Option<String>,
    route: String,
    accurate: bool,
}

/// Runs ask-hot (`cold == false`) or ask-cold-fresh.
pub fn run(opts: &Opts, cold: bool) -> io::Result<Outcome> {
    let dataset = iyp_data::generate(&opts.iyp_config());
    // The measured questions come first; ask-cold-fresh appends its
    // fixed warm-up questions after them.
    let (items, measured) = if cold {
        let size = if opts.tiny { TINY_COLD_SET } else { COLD_SET };
        let mut items = inputs::cold_set(&dataset, opts.seed, size);
        items.extend(inputs::warmup_set(&dataset, COLD_WARMUP));
        (items, size)
    } else {
        let items = inputs::hot_set(&dataset);
        let n = items.len();
        (items, n)
    };
    let chat = ChatIyp::new(dataset, ChatIypConfig::default());
    let bodies: Vec<Vec<u8>> = items
        .iter()
        .map(|it| format!("{{\"question\":{}}}", http::json_string(&it.question)).into_bytes())
        .collect();
    let order: Vec<usize> = if cold {
        (0..measured).collect()
    } else {
        inputs::repeated_order(measured, opts.seed, "hot-order", measured * 200)
    };
    let warm: Vec<usize> = if cold {
        (measured..items.len()).collect()
    } else {
        (0..measured).collect()
    };

    crate::note("client inputs and reference ready");
    let flags = opts.base_flags();
    let mut o = Outcome::default();
    crate::stamp_common(&mut o, opts, &flags);
    o.stamp("scale", serde_json::json!("1x"));
    o.stamp("fsync", serde_json::json!("none (in-memory server)"));
    o.stamp("question_set", serde_json::json!(measured));
    let (server, setups) =
        crate::set_up(opts, &flags, &mut |srv| warm_up(srv.addr, &warm, &bodies))?;
    let (n0, r0) = crate::graph_size(&server)?;

    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let secs = opts.seconds;
    let mut batches: Vec<(String, f64, Batch)> = Vec::new();
    let mut scrapes: Option<(Scrape, Scrape)> = None;
    let drive = |rate: Option<f64>, dur: f64, phase: usize, traced: bool| {
        let tracer = Tracer::new(epoch, traced);
        match rate {
            Some(r) => {
                let arrivals = inputs::stream_seed(opts.seed, "arrivals", phase as u64);
                open_loop(
                    server.addr,
                    &order,
                    &next,
                    &bodies,
                    r,
                    dur,
                    arrivals,
                    tracer,
                )
            }
            None => closed_loop(server.addr, &order, &next, &bodies, dur, tracer),
        }
    };
    let rate0 = cold.then_some(BASE_RATE);
    if !opts.trace {
        if cold {
            // Base-rate segments alternate with the ladder's rungs, so the
            // base rate samples the whole run, not just its first half.
            let dur = secs / 2.0 / LADDER.len() as f64;
            let mut base = Vec::new();
            for (i, &r) in LADDER.iter().enumerate() {
                base.push(drive(rate0, dur, 2 * i, false));
                batches.push((
                    format!("rung-{r}"),
                    r,
                    drive(Some(r), dur, 2 * i + 1, false),
                ));
            }
            batches.insert(0, ("base".into(), BASE_RATE, Batch::concat(base)));
        } else {
            batches.push(("closed".into(), 0.0, drive(None, secs, 0, false)));
        }
    } else {
        let r = rate0.unwrap_or(0.0);
        let (untraced, traced, before, after) =
            crate::traced_schedule(&server, secs, &mut |dur, segment, traced| {
                drive(rate0, dur, segment, traced)
            })?;
        batches.push(("untraced".into(), r, untraced));
        batches.push(("traced".into(), r, traced));
        scrapes = Some((before, after));
    }
    // Peak RSS over set-up and the measured run.
    let rss = server.peak_rss_mb()?;
    let (n1, r1) = crate::graph_size(&server)?;
    drop(server);
    crate::note("measured; checking replies off the clock");
    o.stamp(
        "graph_start",
        serde_json::json!({"nodes": n0, "relationships": r0}),
    );
    o.stamp(
        "graph_end",
        serde_json::json!({"nodes": n1, "relationships": r1}),
    );

    // Attribution replay first: the reference pipeline then mirrors the
    // server's cache state (warmed the same way, nothing else asked yet).
    let mut tracer = Tracer::new(epoch, opts.trace);
    for (_, _, b) in &mut batches {
        tracer.merge(std::mem::replace(&mut b.tracer, Tracer::new(epoch, false)));
    }
    let replayed = if opts.trace {
        let traced = &batches[1].2.reads;
        let seq: Vec<usize> = traced.iter().take(REPLAY_MAX).map(|s| s.item).collect();
        Some(replay(&chat, &items, &seq, &warm, &mut tracer))
    } else {
        None
    };

    // The oracle, off the clock.
    let mut asked: Vec<usize> = batches
        .iter()
        .flat_map(|(_, _, b)| b.reads.iter().map(|s| s.item))
        .collect();
    asked.sort_unstable();
    asked.dedup();
    let refs = references(&chat, &items, &asked);
    crate::note("references computed");
    let mut accurate = 0u64;
    let mut fallback = 0u64;
    let mut phase_ok = vec![0u64; batches.len()];
    for (pi, (_, _, b)) in batches.iter().enumerate() {
        for s in &b.reads {
            o.attempted += 1;
            let r = &refs[&s.item];
            if check(&mut o, s, r) {
                phase_ok[pi] += 1;
                accurate += u64::from(r.accurate);
                if opts.trace && pi == 1 && r.route == "vector-fallback" {
                    fallback += 1;
                }
            }
        }
    }

    for ((name, rate, b), ok) in batches.iter().zip(&phase_ok) {
        let lateness: Vec<f64> = b.reads.iter().map(Sample::lateness_ms).collect();
        let latency: Vec<f64> = b.reads.iter().map(Sample::since_due_ms).collect();
        let failed = b.reads.len() as u64 - ok;
        o.phases
            .push(Phase::new(name.clone(), *rate, failed, &latency, &lateness));
    }

    if !opts.trace {
        let b = &batches[0].2;
        let lat: Vec<f64> = if cold {
            b.reads.iter().map(Sample::since_due_ms).collect()
        } else {
            b.reads.iter().map(Sample::since_send_ms).collect()
        };
        let failed_ratio = report::ratio(o.failed(), o.attempted);
        let e = &mut o.e2e;
        setups.put(e);
        e.put_latency("ask", &lat);
        let rps = phase_ok[0] as f64 / b.elapsed;
        if cold {
            e.put("ask_slo_rps", slo_rps(&o.phases, &batches), "1/s");
        } else {
            e.put("ask_rps", rps, "1/s");
        }
        e.put(
            "answer_accuracy",
            report::ratio(accurate, o.attempted),
            "ratio",
        );
        e.put("failed_ratio", failed_ratio, "ratio");
        e.put("server_rss_mb", rss, "MiB");
        let by_kind = b
            .reads
            .iter()
            .zip(&lat)
            .map(|(s, &ms)| (std::mem::discriminant(&items[s.item].intent), ms));
        e.put_n(
            "read_ms",
            stats::mean_of_class_medians(by_kind),
            "ms",
            lat.len(),
        );
    } else {
        let (before, after) = scrapes.expect("traced run scrapes");
        let (untraced, traced) = (&batches[0].2, &batches[1].2);
        let replayed = replayed.expect("traced run replays");
        layers(
            &mut o.layers,
            untraced,
            traced,
            &before,
            &after,
            &tracer,
            &replayed,
            fallback,
        );
        tracer.write_jsonl(&opts.out_stem().with_extension("spans.jsonl"))?;
    }
    Ok(o)
}

/// The highest offered rate whose rung met the objective with no
/// failures and no growing backlog (0 when none did).
fn slo_rps(phases: &[Phase], batches: &[(String, f64, Batch)]) -> f64 {
    phases
        .iter()
        .zip(batches)
        .filter(|(p, (_, _, b))| {
            let lat: Vec<f64> = b.reads.iter().map(Sample::since_due_ms).collect();
            p.rate > 0.0
                && p.failed == 0
                && !p.backlogged
                && stats::percentile(&lat, SLO_PERCENTILE).is_some_and(|v| v <= SLO_LIMIT_MS)
        })
        .map(|(p, _)| p.rate)
        .fold(0.0, f64::max)
}

fn warm_up(addr: SocketAddr, warm: &[usize], bodies: &[Vec<u8>]) -> io::Result<()> {
    let mut c = KeepAlive::new(addr);
    for &q in warm {
        let r = c.request("POST", "/ask", &bodies[q])?;
        if r.status != 200 {
            return Err(io::Error::other(format!(
                "warm-up /ask answered {}",
                r.status
            )));
        }
    }
    Ok(())
}

/// Closed loop: each client thread sends its next request as soon as the
/// previous reply arrives, over one keep-alive connection.
fn closed_loop(
    addr: SocketAddr,
    order: &[usize],
    next: &AtomicUsize,
    bodies: &[Vec<u8>],
    secs: f64,
    tracer: Tracer,
) -> Batch {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let mut batch = Batch::new(tracer);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                let mut t = batch.tracer.fork();
                s.spawn(move || {
                    let mut c = KeepAlive::new(addr);
                    let mut out = Vec::new();
                    while Instant::now() < until {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let q = order[i % order.len()];
                        let root = t.open("client.request", None, i as u64);
                        let sent = Instant::now();
                        let resp = c
                            .request("POST", "/ask", &bodies[q])
                            .map_err(|e| e.to_string());
                        let done = Instant::now();
                        t.close(root);
                        out.push(Sample {
                            item: q,
                            due: sent,
                            sent,
                            done,
                            resp,
                        });
                    }
                    (out, c.opened, t)
                })
            })
            .collect();
        for h in handles {
            let (out, opened, t) = h.join().expect("client thread");
            batch.reads.extend(out);
            batch.conns += opened;
            batch.tracer.merge(t);
        }
    });
    batch.elapsed = t0.elapsed().as_secs_f64();
    batch
}

/// Open loop at a fixed rate: request `k` is due at a seeded point of
/// its own `1 / rate` slot whatever happened before it (the jitter keeps
/// the schedule from locking onto the server's accept poll); each goes
/// out on a fresh connection as soon as a client thread is free, and its
/// latency counts from the due time.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    addr: SocketAddr,
    order: &[usize],
    next: &AtomicUsize,
    bodies: &[Vec<u8>],
    rate: f64,
    secs: f64,
    arrival_seed: u64,
    tracer: Tracer,
) -> Batch {
    let dues = inputs::slotted_arrivals(rate, secs, arrival_seed);
    let count = dues.len();
    let first = next.fetch_add(count, Ordering::Relaxed);
    let slot = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(1);
    let mut batch = Batch::new(tracer);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                let mut t = batch.tracer.fork();
                let (slot, dues) = (&slot, &dues);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut opened = 0u64;
                    loop {
                        let k = slot.fetch_add(1, Ordering::Relaxed);
                        if k >= count {
                            break;
                        }
                        let due = start + dues[k];
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let i = first + k;
                        let q = order[i % order.len()];
                        let root = t.open("client.request", None, i as u64);
                        let sent = Instant::now();
                        let c = t.time("client.connect", root, i as u64, || Conn::connect(addr));
                        opened += 1;
                        let resp = c
                            .and_then(|mut c| {
                                t.time("client.exchange", root, i as u64, || {
                                    c.send("POST", "/ask", &bodies[q], false)
                                })
                            })
                            .map_err(|e| e.to_string());
                        let done = Instant::now();
                        t.close(root);
                        out.push(Sample {
                            item: q,
                            due,
                            sent,
                            done,
                            resp,
                        });
                    }
                    (out, opened, t)
                })
            })
            .collect();
        for h in handles {
            let (out, opened, t) = h.join().expect("client thread");
            batch.reads.extend(out);
            batch.conns += opened;
            batch.tracer.merge(t);
        }
    });
    batch.elapsed = start.elapsed().as_secs_f64();
    batch
}

/// Reference replies for the asked questions, plus whether each
/// reference Cypher reproduces the gold result (CypherEval's notion of a
/// correct answer), computed on the client's threads.
fn references(chat: &ChatIyp, items: &[EvalItem], asked: &[usize]) -> HashMap<usize, Reference> {
    let validator = Validator::new(42);
    let snap = chat.snapshot();
    crate::par_map(asked, |&q| {
        let item = &items[q];
        let r = chat.ask(&item.question);
        let accurate = match (&r.cypher, validator.validate(snap.graph(), item)) {
            (Some(cy), Ok(gold)) => iyp_cypher::query(snap.graph(), cy)
                .is_ok_and(|got| results_match(&gold.gold_result, &got)),
            _ => false,
        };
        let reference = Reference {
            answer: r.answer,
            cypher: r.cypher,
            route: r.route.to_string(),
            accurate,
        };
        (q, reference)
    })
    .into_iter()
    .collect()
}

/// Checks one reply against its reference, counting a failure by cause.
fn check(o: &mut Outcome, s: &Sample, r: &Reference) -> bool {
    let Some(resp) = s.ok_reply(o) else {
        return false;
    };
    let Ok(v) = serde_json::from_slice::<serde_json::Value>(&resp.body) else {
        o.fail("mismatch-body");
        return false;
    };
    let cause = if v["answer"].as_str() != Some(r.answer.as_str()) {
        "mismatch-answer"
    } else if v["cypher"].as_str() != r.cypher.as_deref() {
        "mismatch-cypher"
    } else if v["route"].as_str() != Some(r.route.as_str()) {
        "mismatch-route"
    } else if !v["degraded"].is_null() {
        "degraded"
    } else {
        return true;
    };
    o.fail(cause);
    false
}

/// Counts from the in-process replay.
struct Replayed {
    requests: usize,
    translations: u64,
    injected: u64,
}

/// Replays `seq` in-process: the real [`ChatIyp::ask`] (span `core.ask`),
/// then the crate calls that ask makes, each timed on its own under a
/// `replay.ask` span. Cypher runs cold (parse, compile, execute) only
/// when the reference cache missed, as it did on the server.
fn replay(
    chat: &ChatIyp,
    items: &[EvalItem],
    seq: &[usize],
    warm: &[usize],
    t: &mut Tracer,
) -> Replayed {
    for &q in warm {
        chat.ask(&items[q].question);
    }
    let cfg = chat.config();
    let handle = chat.resolve();
    let lm = SimLm::new(cfg.lm.clone());
    let translator = Translator::new(lm.clone(), handle.index.catalog().clone());
    let reranker = Reranker::new(lm.clone());
    let limits = ExecLimits::none().with_parallelism(cfg.query_parallelism);
    let empty = QueryResult::empty();
    let mut out = Replayed {
        requests: seq.len(),
        translations: 0,
        injected: 0,
    };
    for (req, &q) in seq.iter().enumerate() {
        let req = req as u64;
        let question = items[q].question.as_str();
        let hits = chat.query_cache().stats().hits;
        let t0 = Instant::now();
        let resp = chat.ask(question);
        t.record("core.ask", None, req, t0, Instant::now());
        let hit = chat.query_cache().stats().hits > hits;

        let root = t.open("replay.ask", None, req);
        let tr = t.time("llm.translate", root, req, || {
            translator.translate_attempt_with(question, 0, handle.index.catalog())
        });
        out.translations += 1;
        if tr
            .injected_error
            .is_some_and(|e| e != TranslationError::NoQuery)
        {
            out.injected += 1;
        }
        if let (Some(cy), false) = (&tr.cypher, hit) {
            if let Ok(parsed) = t.time("cypher.parse", root, req, || iyp_cypher::parse(cy)) {
                let compiled = t.time("cypher.compile", root, req, || {
                    iyp_cypher::compile_query(&parsed)
                });
                let _ = t.time("cypher.execute", root, req, || {
                    iyp_cypher::execute_prepared_with_limits(
                        handle.snapshot.graph(),
                        &parsed,
                        compiled.as_ref(),
                        &Params::new(),
                        limits,
                    )
                });
            }
        }
        let rows = resp.query_result.as_ref().map(|r| r.rows.len());
        if rows.unwrap_or(0) == 0 {
            t.time("embed.embed", root, req, || {
                handle.index.docs().embedder().embed(question)
            });
            let cands = t.time("embed.retrieve", root, req, || {
                handle.index.retrieve(question, cfg.vector_top_k)
            });
            if cfg.enable_reranker && !cands.is_empty() {
                let texts: Vec<String> = cands
                    .iter()
                    .map(|c| format!("{} {}", c.title, c.text))
                    .collect();
                t.time("llm.rerank", root, req, || {
                    reranker.rerank(question, &texts, cfg.rerank_top_k)
                });
            }
        }
        if rows.is_some() || resp.contexts.is_empty() {
            let result = resp.query_result.as_ref().unwrap_or(&empty);
            t.time("llm.generate", root, req, || {
                generate_answer(&lm, question, tr.intent.as_ref(), result)
            });
        }
        t.close(root);
    }
    out
}

/// Span names whose time the ask ledger attributes to a crate. The
/// separate `embed.embed` call repeats work `embed.retrieve` already
/// contains, so it is reported but not summed.
const ATTRIBUTED: [&str; 7] = [
    "llm.translate",
    "cypher.parse",
    "cypher.compile",
    "cypher.execute",
    "embed.retrieve",
    "llm.rerank",
    "llm.generate",
];

#[allow(clippy::too_many_arguments)]
fn layers(
    m: &mut Metrics,
    untraced: &Batch,
    traced: &Batch,
    before: &Scrape,
    after: &Scrape,
    tracer: &Tracer,
    replayed: &Replayed,
    fallback: u64,
) {
    let (handler, _) = crate::put_server_layers(m, "/ask", untraced, traced, before, after);
    let sum = tracer.summary();
    let mean = |name: &str| sum.get(name).map_or(0.0, |s| s.mean_ms());
    let core_ask = mean("core.ask");
    let attributed: f64 = ATTRIBUTED
        .iter()
        .map(|name| sum.get(name).map_or(0.0, |s| s.total_ms))
        .sum::<f64>()
        / replayed.requests.max(1) as f64;
    m.put_n("core.ask_ms", core_ask, "ms", replayed.requests);
    m.put("core.ask_self_ms", core_ask - attributed, "ms");
    m.put(
        "core.fallback_share",
        report::ratio(fallback, traced.reads.len() as u64),
        "ratio",
    );
    for name in [
        "llm.translate",
        "llm.generate",
        "llm.rerank",
        "cypher.parse",
        "cypher.compile",
        "cypher.execute",
        "embed.embed",
        "embed.retrieve",
    ] {
        let count = sum.get(name).map_or(0, |s| s.count as usize);
        m.put_n(format!("{name}_ms"), mean(name), "ms", count);
    }
    m.put(
        "llm.translation_error_ratio",
        report::ratio(replayed.injected, replayed.translations),
        "ratio",
    );
    m.put("ledger.residual_ms", handler - core_ask, "ms");
    crate::put_span_self_times(m, tracer);
}
