//! The writes-beside-reads workload, **ingest-read**.
//!
//! A durable server (`--data-dir`, CLI-default fsync policy) is grown to
//! 4x the default node count with seeded `growth_batch` ingests of at
//! most 1000 ASes each. Then one connection sends small paced
//! `/admin/ingest` batches while another runs a closed loop of `/cypher`
//! over the parity corpus. Every ingest bumps the epoch, so reads run
//! cold at scale.
//!
//! The client keeps an in-process replica in lock-step: it draws every
//! batch from the replica, ingests it there first, and keeps each
//! published snapshot, so each `/cypher` reply can be checked against
//! `iyp_cypher::query` at every version live while it was in flight.

use crate::http::{self, KeepAlive};
use crate::report::{self, Metrics, Outcome, Phase};
use crate::server::{hist_delta_ms, Scrape, Server};
use crate::trace::Tracer;
use crate::{inputs, stats, Batch, Opts, Sample};
use chatiyp_core::{ChatIyp, ChatIypConfig, IngestReport};
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_cypher::{ExecLimits, Params};
use iyp_graphdb::GraphSnapshot;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Target graph size as a multiple of the default node count.
const SCALE: usize = 4;
/// Seed of the scale-up batches. It is fixed, like the generator's own
/// seed, so every run measures the same 4x graph; the workload seed
/// drives the traffic (paced batches and read order).
const SCALE_SEED: u64 = 42;
/// New ASes per scale-up batch (keeps bodies under the 1 MiB cap).
const SCALE_BATCH_AS: usize = 1000;
/// New ASes per paced ingest.
const PACED_AS: usize = 1;
/// Paced ingest period.
const INGEST_EVERY: Duration = Duration::from_millis(100);
/// Reads of the traced segments replayed in-process for attribution.
const REPLAY_MAX: usize = 300;

/// One paced batch, pre-applied to the replica.
struct Paced {
    body: Vec<u8>,
    report: IngestReport,
    ingest_ms: f64,
}

/// The in-process replica and every batch a run sends. Each batch is
/// drawn against the replica and then ingested into it, so the replica
/// holds every version the server will publish.
pub struct Inputs {
    chat: ChatIyp,
    /// Scale-up batch bodies, drawn with [`SCALE_SEED`].
    pub scale: Vec<Vec<u8>>,
    paced: Vec<Paced>,
    /// `versions[k]` is the replica after `k` paced batches.
    versions: Vec<Arc<GraphSnapshot>>,
}

impl Inputs {
    /// Grows a replica of `config`'s dataset to [`SCALE`]x its node count,
    /// then draws `n_paced` paced batches from the workload `seed`.
    pub fn draw(config: &iyp_data::IypConfig, seed: u64, n_paced: usize) -> io::Result<Inputs> {
        let chat = ChatIyp::new(iyp_data::generate(config), ChatIypConfig::default());
        let target = SCALE * chat.snapshot().node_count();
        let mut scale = Vec::new();
        while chat.snapshot().node_count() < target {
            let snap = chat.snapshot();
            let n_as = (target - snap.node_count()).div_ceil(2).min(SCALE_BATCH_AS);
            let batch_seed = inputs::stream_seed(SCALE_SEED, "scale-up", scale.len() as u64);
            let batch = iyp_data::growth_batch(snap.graph(), batch_seed, n_as);
            scale.push(to_body(&batch));
            chat.ingest(&batch).map_err(io::Error::other)?;
        }
        let mut versions = vec![chat.snapshot()];
        let mut paced = Vec::with_capacity(n_paced);
        for j in 0..n_paced {
            let snap = chat.snapshot();
            let batch_seed = inputs::stream_seed(seed, "paced", j as u64);
            let batch = iyp_data::growth_batch(snap.graph(), batch_seed, PACED_AS);
            let t0 = Instant::now();
            let report = chat.ingest(&batch).map_err(io::Error::other)?;
            let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
            paced.push(Paced {
                body: to_body(&batch),
                report,
                ingest_ms,
            });
            versions.push(chat.snapshot());
        }
        Ok(Inputs {
            chat,
            scale,
            paced,
            versions,
        })
    }

    /// The paced batch bodies, in send order.
    pub fn paced_bodies(&self) -> impl Iterator<Item = &[u8]> {
        self.paced.iter().map(|p| p.body.as_slice())
    }
}

/// Runs ingest-read. Each set-up is followed by its own measured trial of
/// `seconds / set-ups` on that server, so the run's figures pool (or take
/// the median over) independent servers: one server's peak RSS depends
/// on how its allocator happened to lay out the graph versions.
pub fn run(opts: &Opts) -> io::Result<Outcome> {
    let trials = opts.setup_reps();
    let trial_secs = opts.seconds / trials as f64;
    // Each segment of the traced schedule restarts the ingest schedule, so
    // it may send one batch more than its share.
    let segments = if opts.trace {
        crate::TRACED_SCHEDULE.len()
    } else {
        1
    };
    let n_paced = (trial_secs / INGEST_EVERY.as_secs_f64()).ceil() as usize + segments + 1;
    let inputs = Inputs::draw(&opts.iyp_config(), opts.seed, n_paced)?;
    let read_bodies: Vec<Vec<u8>> = PARITY_QUERIES
        .iter()
        .map(|q| format!("{{\"query\":{}}}", http::json_string(q)).into_bytes())
        .collect();
    let order = inputs::repeated_order(PARITY_QUERIES.len(), opts.seed, "parity-order", 100_000);

    crate::note("replica scaled and paced batches drawn");
    // A fresh data directory per trial.
    let data_dir = |t: usize| {
        opts.out_dir
            .join(format!("data-{}-{t}", std::process::id()))
    };
    let flags_for = |t: usize| {
        let mut f = opts.base_flags();
        f.push("--data-dir".into());
        f.push(data_dir(t).display().to_string());
        f
    };
    let discard = |t: usize| {
        let _ = std::fs::remove_dir_all(data_dir(t));
    };
    let mut o = Outcome::default();
    crate::stamp_common(&mut o, opts, &flags_for(0));
    o.stamp("scale", serde_json::json!(format!("{SCALE}x")));
    o.stamp(
        "ingest_every_ms",
        serde_json::json!(INGEST_EVERY.as_millis() as u64),
    );
    o.stamp("ingest_as_per_batch", serde_json::json!(PACED_AS));
    o.stamp("trials", serde_json::json!(trials));
    let drive = Drive {
        paced: &inputs.paced,
        read_bodies: &read_bodies,
        order: &order,
        epoch: Instant::now(),
    };
    let mut setups = crate::SetUps::default();
    let mut next_read = 0;
    let mut done = Vec::with_capacity(trials);
    for t in 0..trials {
        discard(t);
        let trial = setups
            .one(opts, &flags_for(t), &mut |srv| {
                scale_up(srv.addr, &inputs.scale, &read_bodies)
            })
            .and_then(|server| drive.trial(opts, &server, trial_secs, &mut next_read));
        discard(t);
        done.push(trial?);
    }
    o.stamp("fsync", serde_json::json!(fsync_policy(&opts.log_path())));
    let (n0, r0) = done[0].start;
    let (n1, r1) = done[trials - 1].end;
    o.stamp(
        "graph_start",
        serde_json::json!({"nodes": n0, "relationships": r0}),
    );
    o.stamp(
        "graph_end",
        serde_json::json!({"nodes": n1, "relationships": r1}),
    );
    measure(opts, &mut o, done, &setups, &inputs, drive.epoch)?;
    Ok(o)
}

fn to_body(batch: &iyp_graphdb::DeltaBatch) -> Vec<u8> {
    serde_json::to_string(batch)
        .expect("batches serialize")
        .into_bytes()
}

/// Grows the server with the scale-up batches, checking each publish,
/// then warms the read path with one pass of the parity corpus.
fn scale_up(addr: SocketAddr, scale: &[Vec<u8>], reads: &[Vec<u8>]) -> io::Result<()> {
    let mut c = KeepAlive::new(addr);
    for (k, body) in scale.iter().enumerate() {
        let r = c.request("POST", "/admin/ingest", body)?;
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap_or_default();
        if r.status != 200 || v["new_version"].as_u64() != Some(k as u64 + 2) {
            return Err(io::Error::other(format!(
                "scale-up ingest {k} answered {}: {}",
                r.status,
                r.text()
            )));
        }
    }
    for body in reads {
        let r = c.request("POST", "/cypher", body)?;
        if r.status != 200 {
            return Err(io::Error::other(format!(
                "warm-up /cypher answered {}",
                r.status
            )));
        }
    }
    Ok(())
}

/// One set-up's measured trial.
struct Trial {
    /// Measured phases: `mixed`, or `untraced` and `traced` when tracing.
    phases: Vec<(String, Batch)>,
    /// `/metrics` + `/stats` around the traced schedule (traced run only).
    scrapes: Option<(Scrape, Scrape)>,
    /// Peak RSS (MiB) over the set-up and the trial.
    rss_mb: f64,
    /// Graph `(nodes, relationships)` before and after the trial.
    start: (u64, u64),
    end: (u64, u64),
}

/// What every trial sends.
struct Drive<'a> {
    paced: &'a [Paced],
    read_bodies: &'a [Vec<u8>],
    order: &'a [usize],
    epoch: Instant,
}

impl Drive<'_> {
    /// Measures `secs` on a set-up server: the mixed phase, or the traced
    /// schedule. Every trial sends the paced batches from the first one,
    /// so the replica's versions serve all trials; the read order goes on
    /// from `next_read`.
    fn trial(
        &self,
        opts: &Opts,
        server: &Server,
        secs: f64,
        next_read: &mut usize,
    ) -> io::Result<Trial> {
        let start = crate::graph_size(server)?;
        let mut next_ingest = 0;
        let mut drive = |secs: f64, _segment: usize, traced: bool| {
            let b = mixed(
                server.addr,
                secs,
                *next_read,
                next_ingest,
                self.paced,
                self.read_bodies,
                self.order,
                Tracer::new(self.epoch, traced),
            );
            *next_read += b.reads.len();
            next_ingest += b.ingests.len();
            b
        };
        let mut phases = Vec::new();
        let mut scrapes = None;
        if !opts.trace {
            phases.push(("mixed".to_string(), drive(secs, 0, false)));
        } else {
            let (untraced, traced, before, after) =
                crate::traced_schedule(server, secs, &mut drive)?;
            phases.push(("untraced".to_string(), untraced));
            phases.push(("traced".to_string(), traced));
            scrapes = Some((before, after));
        }
        Ok(Trial {
            phases,
            scrapes,
            rss_mb: server.peak_rss_mb()?,
            start,
            end: crate::graph_size(server)?,
        })
    }
}

/// Checks every reply off the clock and fills in the metrics.
fn measure(
    opts: &Opts,
    o: &mut Outcome,
    mut trials: Vec<Trial>,
    setups: &crate::SetUps,
    inputs: &Inputs,
    epoch: Instant,
) -> io::Result<()> {
    let (paced, versions, chat) = (&inputs.paced, &inputs.versions, &inputs.chat);
    let base_version = versions[0].version();
    crate::note("measured; checking replies off the clock");

    let mut tracer = Tracer::new(epoch, opts.trace);
    for trial in &mut trials {
        for (_, b) in &mut trial.phases {
            tracer.merge(std::mem::replace(&mut b.tracer, Tracer::new(epoch, false)));
        }
    }
    // Every phase with its trial, in order.
    let phases: Vec<(usize, &str, &Batch)> = trials
        .iter()
        .enumerate()
        .flat_map(|(t, trial)| trial.phases.iter().map(move |(n, b)| (t, n.as_str(), b)))
        .collect();

    // Oracle, off the clock. Ingest acks first: version and size.
    let trial_ingests: Vec<Vec<&Sample>> = trials
        .iter()
        .map(|trial| trial.phases.iter().flat_map(|(_, b)| &b.ingests).collect())
        .collect();
    let mut phase_failed: Vec<(u64, u64)> = vec![(0, 0); phases.len()];
    for (pi, (_, _, b)) in phases.iter().enumerate() {
        for s in &b.ingests {
            o.attempted += 1;
            if !check_ingest(o, s, base_version, &versions[s.item + 1]) {
                phase_failed[pi].0 += 1;
            }
        }
    }
    // Then reads: each must equal the reference at some version its
    // server had live between the read's send and its reply.
    let reads: Vec<(usize, &Sample)> = phases
        .iter()
        .enumerate()
        .flat_map(|(pi, (_, _, b))| b.reads.iter().map(move |s| (pi, s)))
        .collect();
    let ranges: Vec<(u64, u64)> = reads
        .iter()
        .map(|&(pi, s)| {
            let ingests = &trial_ingests[phases[pi].0];
            let acked = ingests.iter().filter(|i| i.done <= s.sent).count() as u64;
            let begun = ingests.iter().filter(|i| i.sent < s.done).count() as u64;
            (base_version + acked, base_version + begun.max(acked))
        })
        .collect();
    // The newest live version first; older ones only for replies that
    // did not match it (a read that overlapped an ingest).
    let newest: Vec<(usize, u64)> = reads
        .iter()
        .zip(&ranges)
        .map(|((_, s), r)| (s.item, r.1))
        .collect();
    let mut refs: HashMap<(usize, u64), u64> = reference_hashes(newest, versions, base_version)
        .into_iter()
        .collect();
    let older: Vec<(usize, u64)> = reads
        .iter()
        .zip(&ranges)
        .filter(|((_, s), &(lo, hi))| matched(&refs, s, lo, hi).is_none())
        .flat_map(|((_, s), &(lo, hi))| (lo..hi).map(move |v| (s.item, v)))
        .collect();
    refs.extend(reference_hashes(older, versions, base_version));
    crate::note("references computed");
    let mut matched_at: Vec<Option<u64>> = Vec::with_capacity(reads.len());
    for ((pi, s), &(lo, hi)) in reads.iter().zip(&ranges) {
        o.attempted += 1;
        let ok = s.ok_reply(o).and_then(|_| {
            let m = matched(&refs, s, lo, hi);
            if m.is_none() {
                o.fail("mismatch-cypher");
            }
            m
        });
        if ok.is_none() {
            phase_failed[*pi].1 += 1;
        }
        matched_at.push(ok);
    }

    for (&(t, name, b), &(ing_failed, read_failed)) in phases.iter().zip(&phase_failed) {
        let name = if trials.len() > 1 {
            format!("{name}-{}", t + 1)
        } else {
            name.to_string()
        };
        let lateness: Vec<f64> = b.ingests.iter().map(Sample::lateness_ms).collect();
        let latency: Vec<f64> = b.ingests.iter().map(Sample::since_send_ms).collect();
        let rate = 1.0 / INGEST_EVERY.as_secs_f64();
        o.phases.push(Phase::new(
            format!("{name}/ingest"),
            rate,
            ing_failed,
            &latency,
            &lateness,
        ));
        let latency: Vec<f64> = b.reads.iter().map(Sample::since_send_ms).collect();
        let on_time = vec![0.0; latency.len()];
        o.phases.push(Phase::new(
            format!("{name}/cypher-closed"),
            0.0,
            read_failed,
            &latency,
            &on_time,
        ));
    }

    if !opts.trace {
        // Every trial's reads and ingests, pooled.
        let all_reads: Vec<&Sample> = phases.iter().flat_map(|(_, _, b)| &b.reads).collect();
        let lat: Vec<f64> = all_reads.iter().map(|s| s.since_send_ms()).collect();
        let ing: Vec<f64> = trial_ingests
            .iter()
            .flatten()
            .map(|s| s.since_send_ms())
            .collect();
        let read_failed: u64 = phase_failed.iter().map(|f| f.1).sum();
        let elapsed: f64 = phases.iter().map(|(_, _, b)| b.elapsed).sum();
        let rps = (lat.len() as u64 - read_failed) as f64 / elapsed;
        let rss: Vec<f64> = trials.iter().map(|t| t.rss_mb).collect();
        let failed_ratio = report::ratio(o.failed(), o.attempted);
        let e = &mut o.e2e;
        setups.put(e);
        e.put_latency("cypher", &lat);
        e.put_latency("ingest", &ing);
        e.put("cypher_rps", rps, "1/s");
        e.put("failed_ratio", failed_ratio, "ratio");
        e.put_n("server_rss_mb", stats::median(&rss), "MiB", rss.len());
        let read_ms =
            stats::mean_of_class_medians(all_reads.iter().zip(&lat).map(|(s, &ms)| (s.item, ms)));
        e.put_n(
            "cypher_corpus_ms",
            read_ms * PARITY_QUERIES.len() as f64,
            "ms",
            lat.len(),
        );
        e.put_n("read_ms", read_ms, "ms", lat.len());
    } else {
        let (untraced, traced) = (phases[0].2, phases[1].2);
        let (before, after) = trials[0].scrapes.as_ref().expect("traced run scrapes");
        let traced_from = untraced.reads.len();
        let replay: Vec<(usize, u64)> = reads[traced_from..]
            .iter()
            .zip(&matched_at[traced_from..])
            .filter_map(|((_, s), v)| v.map(|v| (s.item, v)))
            .take(REPLAY_MAX)
            .collect();
        replay_reads(&replay, versions, base_version, &mut tracer);
        let traced_paced: Vec<&Paced> = traced.ingests.iter().map(|s| &paced[s.item]).collect();
        layers(
            &mut o.layers,
            untraced,
            traced,
            before,
            after,
            &tracer,
            &traced_paced,
            versions.last().expect("versions"),
            chat,
        );
        tracer.write_jsonl(&opts.out_stem().with_extension("spans.jsonl"))?;
    }
    Ok(())
}

/// The fsync policy the server reported at recovery (from its log).
fn fsync_policy(log: &PathBuf) -> String {
    std::fs::read_to_string(log)
        .ok()
        .and_then(|text| {
            text.lines().rev().find_map(|l| {
                l.split("fsync=")
                    .nth(1)
                    .map(|p| p.trim_end_matches(')').to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the paced ingest connection beside the closed read loop.
#[allow(clippy::too_many_arguments)]
fn mixed(
    addr: SocketAddr,
    secs: f64,
    first_read: usize,
    first_ingest: usize,
    paced: &[Paced],
    read_bodies: &[Vec<u8>],
    order: &[usize],
    tracer: Tracer,
) -> Batch {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let mut ti = tracer.fork();
    let mut tr = tracer.fork();
    let (ingests, (reads, conns_r), conns_i) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut c = KeepAlive::new(addr);
            let mut out = Vec::new();
            for (k, p) in paced.iter().enumerate().skip(first_ingest) {
                let due = start + INGEST_EVERY * (k - first_ingest) as u32;
                if due >= until {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let root = ti.open("client.ingest", None, k as u64);
                let sent = Instant::now();
                let resp = c
                    .request("POST", "/admin/ingest", &p.body)
                    .map_err(|e| e.to_string());
                let done = Instant::now();
                ti.close(root);
                out.push(Sample {
                    item: k,
                    due,
                    sent,
                    done,
                    resp,
                });
            }
            (out, c.opened)
        });
        let reader = s.spawn(|| {
            let mut c = KeepAlive::new(addr);
            let mut out = Vec::new();
            let mut i = first_read;
            while Instant::now() < until {
                let q = order[i % order.len()];
                let root = tr.open("client.request", None, i as u64);
                let sent = Instant::now();
                let resp = c
                    .request("POST", "/cypher", &read_bodies[q])
                    .map_err(|e| e.to_string());
                let done = Instant::now();
                tr.close(root);
                out.push(Sample {
                    item: q,
                    due: sent,
                    sent,
                    done,
                    resp,
                });
                i += 1;
            }
            (out, c.opened)
        });
        let (ingests, conns_i) = writer.join().expect("ingest thread");
        (ingests, reader.join().expect("read thread"), conns_i)
    });
    let mut tracer = tracer;
    tracer.merge(ti);
    tracer.merge(tr);
    Batch {
        reads,
        ingests,
        conns: conns_r + conns_i,
        elapsed: start.elapsed().as_secs_f64(),
        tracer,
    }
}

fn check_ingest(o: &mut Outcome, s: &Sample, base_version: u64, expect: &GraphSnapshot) -> bool {
    let Some(r) = s.ok_reply(o) else {
        return false;
    };
    let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap_or_default();
    let ok = v["new_version"].as_u64() == Some(base_version + 1 + s.item as u64)
        && v["nodes"].as_u64() == Some(expect.node_count() as u64)
        && v["rels"].as_u64() == Some(expect.rel_count() as u64);
    if !ok {
        o.fail("mismatch-ingest");
    }
    ok
}

/// The first version in `lo..=hi` (newest first) whose reference result
/// hashes like the reply, if computed.
fn matched(refs: &HashMap<(usize, u64), u64>, s: &Sample, lo: u64, hi: u64) -> Option<u64> {
    let got = fnv1a(&s.resp.as_ref().ok()?.body);
    (lo..=hi)
        .rev()
        .find(|&v| refs.get(&(s.item, v)) == Some(&got))
}

/// Hashes of the reference serialization of (query, version) pairs,
/// computed on the client's threads.
fn reference_hashes(
    mut need: Vec<(usize, u64)>,
    versions: &[Arc<GraphSnapshot>],
    base_version: u64,
) -> Vec<((usize, u64), u64)> {
    need.sort_unstable();
    need.dedup();
    crate::par_map(&need, |&(q, v)| {
        let snap = &versions[(v - base_version) as usize];
        let body = match iyp_cypher::query(snap.graph(), PARITY_QUERIES[q]) {
            Ok(r) => serde_json::to_string(&r).expect("results serialize"),
            Err(e) => format!("error: {e}"),
        };
        ((q, v), fnv1a(body.as_bytes()))
    })
}

/// FNV-1a over bytes: replies are compared by hash, not kept whole.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Replays reads in-process at the version each reply matched: `parse`,
/// `compile_query` and `execute_prepared_with_limits`, each under its own
/// span inside a `replay.read` span.
fn replay_reads(
    reads: &[(usize, u64)],
    versions: &[Arc<GraphSnapshot>],
    base: u64,
    t: &mut Tracer,
) {
    let limits = ExecLimits::none().with_parallelism(ChatIypConfig::default().query_parallelism);
    for (req, &(q, v)) in reads.iter().enumerate() {
        let req = req as u64;
        let graph = versions[(v - base) as usize].graph();
        let root = t.open("replay.read", None, req);
        if let Ok(parsed) = t.time("cypher.parse", root, req, || {
            iyp_cypher::parse(PARITY_QUERIES[q])
        }) {
            let compiled = t.time("cypher.compile", root, req, || {
                iyp_cypher::compile_query(&parsed)
            });
            let _ = t.time("cypher.execute", root, req, || {
                iyp_cypher::execute_prepared_with_limits(
                    graph,
                    &parsed,
                    compiled.as_ref(),
                    &Params::new(),
                    limits,
                )
            });
        }
        t.close(root);
    }
}

#[allow(clippy::too_many_arguments)]
fn layers(
    m: &mut Metrics,
    untraced: &Batch,
    traced: &Batch,
    before: &Scrape,
    after: &Scrape,
    tracer: &Tracer,
    paced: &[&Paced],
    last: &GraphSnapshot,
    chat: &ChatIyp,
) {
    let (handler, plan_hit) =
        crate::put_server_layers(m, "/cypher", untraced, traced, before, after);
    let sum = tracer.summary();
    let mean = |name: &str| sum.get(name).map_or(0.0, |s| s.mean_ms());

    let per_batch =
        |f: &dyn Fn(&Paced) -> f64| stats::mean(&paced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    m.put_n(
        "core.ingest_ms",
        per_batch(&|p| p.ingest_ms),
        "ms",
        paced.len(),
    );
    m.put(
        "core.index_derive_ms",
        per_batch(&|p| ms(p.report.derive)),
        "ms",
    );
    m.put(
        "core.index_apply_ms",
        per_batch(&|p| ms(p.report.index_apply)),
        "ms",
    );
    m.put(
        "graphdb.clone_ms",
        per_batch(&|p| ms(p.report.graph.clone)),
        "ms",
    );
    m.put(
        "graphdb.apply_ms",
        per_batch(&|p| ms(p.report.graph.apply)),
        "ms",
    );
    m.put(
        "graphdb.swap_us",
        per_batch(&|p| ms(p.report.graph.swap) * 1e3),
        "us",
    );

    for name in ["cypher.parse", "cypher.compile", "cypher.execute"] {
        let count = sum.get(name).map_or(0, |s| s.count as usize);
        m.put_n(format!("{name}_ms"), mean(name), "ms", count);
    }
    let (hits, rows, worst) = profile_corpus(last, chat);
    m.put(
        "cypher.db_hits_per_row",
        if rows > 0 {
            hits as f64 / rows as f64
        } else {
            0.0
        },
        "count",
    );
    m.put("cypher.worst_query_ms", worst, "ms");

    let (wal_append, _) = hist_delta_ms(before, after, "chatiyp_wal_append_seconds", "");
    let (wal_fsync, _) = hist_delta_ms(before, after, "chatiyp_wal_fsync_seconds", "");
    let ingests = (untraced.ingests.len() + traced.ingests.len()).max(1) as f64;
    m.put("graphdb.wal_append_ms", wal_append, "ms");
    m.put("graphdb.wal_fsync_ms", wal_fsync, "ms");
    m.put(
        "graphdb.wal_bytes_per_ingest",
        (after.series("chatiyp_wal_bytes") - before.series("chatiyp_wal_bytes")) / ingests,
        "bytes",
    );

    let attributed =
        mean("cypher.execute") + (1.0 - plan_hit) * (mean("cypher.parse") + mean("cypher.compile"));
    m.put("ledger.residual_ms", handler - attributed, "ms");
    crate::put_span_self_times(m, tracer);
}

/// `PROFILE`s every parity query at `last`: total db hits, total result
/// rows, and the slowest query's time (ms).
fn profile_corpus(last: &GraphSnapshot, chat: &ChatIyp) -> (u64, u64, f64) {
    let limits = ExecLimits::none().with_parallelism(chat.config().query_parallelism);
    let mut out = (0u64, 0u64, 0f64);
    for q in PARITY_QUERIES {
        if let Ok((_, prof)) =
            iyp_cypher::profile_with_limits(last.graph(), q, &Params::new(), limits)
        {
            out.0 += prof.total_db_hits();
            out.1 += prof.result_rows;
            out.2 = out.2.max(prof.total.as_secs_f64() * 1e3);
        }
    }
    out
}
