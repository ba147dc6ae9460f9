//! Prices the durability subsystem and proves recovery earns its keep:
//!
//! * **Ingest overhead** — median end-to-end `ChatIyp::ingest` latency
//!   at batch 100, in-memory vs WAL-backed under each fsync policy. The
//!   gate: `fsync=every_n` durable ingest must stay within **2x** the
//!   non-durable path — the WAL append is one serialized frame and an
//!   amortized fsync, not a second ingest.
//! * **Recovery speed** — WAL replay + one index rebuild vs re-ingesting
//!   the same batches through the real HTTP `/admin/ingest` endpoint
//!   (the operator's only alternative after a crash). The gate: replay
//!   must be at least **10x** faster — it skips HTTP, JSON decode, and
//!   the per-batch index refresh, paying one index build at the end.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin wal_overhead [-- ROUNDS]
//! ```
//!
//! Results are written to `BENCH_wal.json` at the repository root.

use chatiyp_bench::{count_arg, percentile, write_report};
use chatiyp_core::{ChatIyp, ChatIypConfig, DurabilityConfig};
use iyp_data::{generate, growth_batch, IypConfig};
use iyp_graphdb::{DeltaBatch, FsyncPolicy};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

/// New ASes per ingest batch in the overhead arms (the ISSUE gate's
/// batch size).
const OVERHEAD_BATCH: usize = 100;
/// New ASes per batch in the recovery arm — smaller batches, more of
/// them: recovery cost scales with records, re-ingest with requests.
const RECOVERY_BATCH: usize = 20;
/// Recovery-arm records per overhead round: the recovery question is
/// about a WAL with real history behind it, so this arm writes several
/// records per round (120 at the default 30 rounds).
const RECOVERY_RECORDS_PER_ROUND: usize = 4;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatiyp_wal_overhead_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pipeline_config() -> ChatIypConfig {
    ChatIypConfig::default()
}

/// `rounds` timed ingests of `batch_size` new ASes through `chat`;
/// per-ingest seconds.
fn timed_ingests(chat: &ChatIyp, rounds: usize, batch_size: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let batch = {
            let handle = chat.resolve();
            growth_batch(handle.snapshot.graph(), 7000 + i as u64, batch_size)
        };
        let t0 = Instant::now();
        chat.ingest(&batch).expect("ingest");
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples
}

struct OverheadArm {
    label: String,
    ingest_ms_median: f64,
    ingest_ms_p99: f64,
}

/// Median/p99 durable-ingest latency under one fsync policy.
fn durable_arm(rounds: usize, fsync: FsyncPolicy) -> OverheadArm {
    let dir = fresh_dir(&format!("overhead_{}", fsync.as_str().replace(':', "_")));
    let dcfg = DurabilityConfig::new(&dir).with_fsync(fsync);
    let (chat, _) =
        ChatIyp::open_durable(pipeline_config(), &dcfg, || generate(&IypConfig::tiny()))
            .expect("open durable pipeline");
    let mut samples = timed_ingests(&chat, rounds, OVERHEAD_BATCH);
    OverheadArm {
        label: format!("durable fsync={}", fsync.as_str()),
        ingest_ms_median: percentile(&mut samples, 0.50) * 1e3,
        ingest_ms_p99: percentile(&mut samples, 0.99) * 1e3,
    }
}

/// One HTTP/1.1 POST over a fresh connection; returns the status code.
fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> u16 {
    let mut s = TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes()).expect("write request");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read reply");
    reply
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status")
}

struct RecoveryNumbers {
    records: usize,
    wal_bytes: u64,
    apply_ms: f64,
    index_build_ms: f64,
    replay_ms: f64,
    recovery_total_ms: f64,
    http_reingest_ms: f64,
    speedup: f64,
}

/// Writes `rounds` batches into a WAL, then prices both ways of getting
/// the graph back: recovery (replay + one index build) vs POSTing the
/// same batches to a fresh server's `/admin/ingest`.
fn recovery_arm(rounds: usize) -> RecoveryNumbers {
    let dir = fresh_dir("recovery");
    let dcfg = DurabilityConfig::new(&dir);
    let mut bodies = Vec::with_capacity(rounds);
    let wal_bytes;
    {
        let (chat, _) =
            ChatIyp::open_durable(pipeline_config(), &dcfg, || generate(&IypConfig::tiny()))
                .expect("open durable pipeline");
        for i in 0..rounds {
            let batch: DeltaBatch = {
                let handle = chat.resolve();
                growth_batch(handle.snapshot.graph(), 8000 + i as u64, RECOVERY_BATCH)
            };
            bodies.push(serde_json::to_string(&batch).expect("batch serializes"));
            chat.ingest(&batch).expect("ingest");
        }
        wal_bytes = chat.durability_stats().expect("durable").wal_bytes;
        // Dropped without a checkpoint: the WAL holds every record.
    }

    // Recovery: open the directory again and let replay do the work.
    let t0 = Instant::now();
    let (_chat, report) =
        ChatIyp::open_durable(pipeline_config(), &dcfg, || generate(&IypConfig::tiny()))
            .expect("recover");
    let recovery_total = t0.elapsed();
    assert_eq!(report.replayed as usize, rounds, "recovery missed records");
    let replay = report.replay + report.index_build;

    // The alternative: boot a fresh *durable* server (an in-memory one
    // would just lose the data again) and POST the very same batches to
    // `/admin/ingest` (captured pre-serialized — the timer covers the
    // wire, the decode, the per-batch index refresh, and the per-batch
    // WAL fsync, not the client-side JSON encoding).
    let reingest_dir = fresh_dir("reingest");
    let (reingest_chat, _) = ChatIyp::open_durable(
        pipeline_config(),
        &DurabilityConfig::new(&reingest_dir),
        || generate(&IypConfig::tiny()),
    )
    .expect("open re-ingest pipeline");
    let server = chatiyp_server::Server::start(
        reingest_chat,
        chatiyp_server::ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..Default::default()
        },
    )
    .expect("bind bench server");
    let t0 = Instant::now();
    for body in &bodies {
        assert_eq!(http_post(server.addr(), "/admin/ingest", body), 200);
    }
    let http_reingest = t0.elapsed();
    server.shutdown();

    RecoveryNumbers {
        records: rounds,
        wal_bytes,
        apply_ms: report.replay.as_secs_f64() * 1e3,
        index_build_ms: report.index_build.as_secs_f64() * 1e3,
        replay_ms: replay.as_secs_f64() * 1e3,
        recovery_total_ms: recovery_total.as_secs_f64() * 1e3,
        http_reingest_ms: http_reingest.as_secs_f64() * 1e3,
        speedup: http_reingest.as_secs_f64() / replay.as_secs_f64(),
    }
}

fn main() {
    let rounds = count_arg(30);

    // In-memory baseline: the same ingest path with no WAL behind it.
    let plain = ChatIyp::new(generate(&IypConfig::tiny()), pipeline_config());
    let mut plain_samples = timed_ingests(&plain, rounds, OVERHEAD_BATCH);
    let plain_median_ms = percentile(&mut plain_samples, 0.50) * 1e3;
    let plain_p99_ms = percentile(&mut plain_samples, 0.99) * 1e3;
    drop(plain);

    let arms = [
        durable_arm(rounds, FsyncPolicy::EveryN(8)),
        durable_arm(rounds, FsyncPolicy::Always),
        durable_arm(rounds, FsyncPolicy::Off),
    ];

    println!("rounds per arm:        {rounds} (batch {OVERHEAD_BATCH} new ASes)");
    println!("in-memory ingest:      median {plain_median_ms:.3}ms  p99 {plain_p99_ms:.3}ms");
    for a in &arms {
        println!(
            "{:<22} median {:.3}ms  p99 {:.3}ms  ({:.2}x baseline)",
            format!("{}:", a.label),
            a.ingest_ms_median,
            a.ingest_ms_p99,
            a.ingest_ms_median / plain_median_ms
        );
    }

    let rec = recovery_arm(rounds * RECOVERY_RECORDS_PER_ROUND);
    println!(
        "recovery:              {} records ({} wal bytes) replayed in {:.1}ms \
         (apply {:.1}ms + index build {:.1}ms; boot total {:.1}ms); \
         HTTP re-ingest {:.1}ms → {:.1}x",
        rec.records,
        rec.wal_bytes,
        rec.replay_ms,
        rec.apply_ms,
        rec.index_build_ms,
        rec.recovery_total_ms,
        rec.http_reingest_ms,
        rec.speedup
    );

    let report = serde_json::json!({
        "bench": "wal_overhead",
        "rounds": rounds as u64,
        "overhead_batch_size": OVERHEAD_BATCH as u64,
        "in_memory_ingest_ms_median": plain_median_ms,
        "in_memory_ingest_ms_p99": plain_p99_ms,
        "arms": arms.iter().map(|a| serde_json::json!({
            "label": a.label,
            "ingest_ms_median": a.ingest_ms_median,
            "ingest_ms_p99": a.ingest_ms_p99,
            "overhead_vs_in_memory": a.ingest_ms_median / plain_median_ms,
        })).collect::<Vec<_>>(),
        "recovery": serde_json::json!({
            "records": rec.records as u64,
            "recovery_batch_size": RECOVERY_BATCH as u64,
            "wal_bytes": rec.wal_bytes,
            "replay_ms": rec.replay_ms,
            "recovery_total_ms": rec.recovery_total_ms,
            "http_reingest_ms": rec.http_reingest_ms,
            "replay_speedup_vs_http": rec.speedup,
        }),
    });
    write_report("BENCH_wal.json", &report);

    // Gate 1: amortized-fsync durability costs at most 2x in-memory.
    let every_n = &arms[0];
    assert!(
        every_n.ingest_ms_median <= 2.0 * plain_median_ms,
        "durable ingest ({}) median {:.3}ms exceeds 2x the in-memory \
         median {:.3}ms — the WAL append is supposed to be one frame \
         write, not a second ingest",
        every_n.label,
        every_n.ingest_ms_median,
        plain_median_ms
    );
    // Gate 2: replay beats HTTP re-ingest by at least 10x.
    assert!(
        rec.speedup >= 10.0,
        "WAL replay ({:.1}ms) is only {:.1}x faster than HTTP re-ingest \
         ({:.1}ms) — recovery must skip the per-batch index refresh, \
         not repeat it",
        rec.replay_ms,
        rec.speedup,
        rec.http_reingest_ms
    );
}
