//! The server under test: spawns the release `chatiyp serve` binary with
//! its existing flags, waits for readiness, scrapes `/metrics` and
//! `/stats`, reads peak RSS, and always kills and reaps the process.

use crate::http;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `chatiyp serve` process, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Loopback address the server listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bin serve <port> <flags>` on a free loopback port, with
    /// stderr appended to `log`.
    pub fn spawn(bin: &Path, flags: &[String], log: &Path) -> io::Result<Server> {
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let child = Command::new(bin)
            .arg("serve")
            .arg(port.to_string())
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::options().create(true).append(true).open(log)?)
            .spawn()?;
        Ok(Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        })
    }

    /// Polls `GET /healthz` until it answers 200 (the graph is
    /// published), failing if the process exits or `timeout` passes.
    pub fn wait_ready(&mut self, timeout: Duration) -> io::Result<()> {
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!("server exited early: {status}")));
            }
            if http::get_ok(self.addr, "/healthz").is_ok() {
                return Ok(());
            }
            if t0.elapsed() > timeout {
                return Err(io::Error::other("server not ready in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// One scrape of `/metrics` and `/stats`.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let metrics = parse_prometheus(&http::get_ok(self.addr, "/metrics")?);
        let stats = serde_json::from_str(&http::get_ok(self.addr, "/stats")?)
            .map_err(|e| io::Error::other(format!("bad /stats JSON: {e}")))?;
        Ok(Scrape { metrics, stats })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `/metrics` series (name plus braced labels, exactly as rendered) and
/// the `/stats` document, read at one moment.
pub struct Scrape {
    metrics: HashMap<String, f64>,
    stats: serde_json::Value,
}

impl Scrape {
    /// A series value by its rendered key, 0 when absent.
    pub fn series(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(0.0)
    }

    /// A numeric `/stats` field by path (`["cache", "plan", "hits"]`), 0
    /// when absent.
    pub fn stat(&self, path: &[&str]) -> f64 {
        let mut v = &self.stats;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    }

    /// `(sum seconds, count)` of a histogram series; `labels` is the
    /// braced label set or empty.
    pub fn histogram(&self, name: &str, labels: &str) -> (f64, f64) {
        (
            self.series(&format!("{name}_sum{labels}")),
            self.series(&format!("{name}_count{labels}")),
        )
    }
}

/// Mean milliseconds per observation of a histogram between two scrapes
/// (0 when nothing was observed).
pub fn hist_delta_ms(before: &Scrape, after: &Scrape, name: &str, labels: &str) -> (f64, f64) {
    let (s0, c0) = before.histogram(name, labels);
    let (s1, c1) = after.histogram(name, labels);
    let n = c1 - c0;
    let mean = if n > 0.0 { (s1 - s0) * 1e3 / n } else { 0.0 };
    (mean, n)
}

fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}
