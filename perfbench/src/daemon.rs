//! Starting, probing and stopping `pathcover-cli serve`.

use crate::net;
use pcservice::json::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Option<Child>,
    pub http: String,
    pub socket: String,
    /// The daemon's stderr, kept only when it did not stop cleanly.
    log: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral TCP port and a unix socket in
    /// `run_dir`, returning once both listeners are bound (the daemon
    /// prints the resolved addresses to stderr, captured in a file).
    pub fn spawn(cli: &Path, run_dir: &Path, tag: &str) -> io::Result<Daemon> {
        let socket = run_dir.join(format!("{tag}.sock"));
        let _ = fs::remove_file(&socket);
        let err_path: PathBuf = run_dir.join(format!("{tag}.err"));
        let child = Command::new(cli)
            .args(["serve", "--http", "127.0.0.1:0", "--socket"])
            .arg(&socket)
            .args(["--log-level", "warn"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(fs::File::create(&err_path)?)
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            http: String::new(),
            socket: socket.to_string_lossy().into_owned(),
            log: err_path.clone(),
        };
        let started = Instant::now();
        loop {
            let text = fs::read_to_string(&err_path).unwrap_or_default();
            // Only a complete line: the file may be read mid-write.
            if let Some((line, _)) = text
                .split("serving http on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'))
            {
                daemon.http = line.split_whitespace().next().unwrap_or("").to_string();
                return Ok(daemon);
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(io::Error::other(format!(
                    "daemon exited ({status}) before binding: {text}"
                )));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err(io::Error::other("daemon did not bind within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(|c| c.id()).unwrap_or(0)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    /// `GET path` as JSON.
    pub fn get_json(&self, path: &str) -> io::Result<Json> {
        let (status, body) = net::http_call(&self.http, "GET", path)?;
        if status != 200 {
            return Err(io::Error::other(format!("GET {path}: HTTP {status}")));
        }
        Json::parse(&String::from_utf8_lossy(&body)).map_err(io::Error::other)
    }

    /// Graceful shutdown through the public route, then wait for exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let _ = net::http_call(&self.http, "POST", "/v1/shutdown");
        self.reap(Duration::from_secs(20))
    }

    fn reap(&mut self, grace: Duration) -> io::Result<()> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let started = Instant::now();
        while started.elapsed() < grace {
            if child.try_wait()?.is_some() {
                let _ = fs::remove_file(&self.socket);
                let _ = fs::remove_file(&self.log);
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        child.kill()?;
        child.wait()?;
        let _ = fs::remove_file(&self.socket);
        Err(io::Error::other("daemon ignored shutdown; killed"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = fs::remove_file(&self.socket);
        }
    }
}

/// The daemon counters the benchmark reads before and after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub requests_total: f64,
    pub stats_requests_total: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_evictions: f64,
    pub pool_rounds: f64,
    pub pool_steals: f64,
    pub pool_barrier_p99_us: f64,
    pub overload_rejects: f64,
    pub session_mutations: f64,
    pub session_incremental: f64,
    pub session_rebuild: f64,
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    match cur {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

impl Counters {
    pub fn read(daemon: &Daemon) -> io::Result<Counters> {
        let metrics = daemon.get_json("/v1/metrics?format=json")?;
        let m = metrics.get("metrics").unwrap_or(&metrics);
        let stats = daemon.get_json("/v1/stats")?;
        let s = stats.get("stats").unwrap_or(&stats);
        Ok(Counters {
            requests_total: num(m, &["requests_total"]),
            stats_requests_total: num(s, &["requests_total"]),
            cache_hits: num(m, &["cache", "hits"]),
            cache_misses: num(m, &["cache", "misses"]),
            cache_evictions: num(m, &["cache", "evictions"]),
            pool_rounds: num(m, &["pool", "rounds"]),
            pool_steals: num(m, &["pool", "steals"]),
            pool_barrier_p99_us: num(m, &["pool", "barrier_wait_p99_us"]),
            overload_rejects: num(m, &["resilience", "rejected_overload"]),
            session_mutations: num(m, &["sessions", "mutations"]),
            session_incremental: num(m, &["sessions", "recognize_incremental"]),
            session_rebuild: num(m, &["sessions", "recognize_rebuild"]),
        })
    }

    /// `after - before` for every cumulative counter (gauges keep `after`).
    pub fn delta(before: &Counters, after: &Counters) -> Counters {
        Counters {
            requests_total: after.requests_total - before.requests_total,
            stats_requests_total: after.stats_requests_total - before.stats_requests_total,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            cache_evictions: after.cache_evictions - before.cache_evictions,
            pool_rounds: after.pool_rounds - before.pool_rounds,
            pool_steals: after.pool_steals - before.pool_steals,
            pool_barrier_p99_us: after.pool_barrier_p99_us,
            overload_rejects: after.overload_rejects - before.overload_rejects,
            session_mutations: after.session_mutations - before.session_mutations,
            session_incremental: after.session_incremental - before.session_incremental,
            session_rebuild: after.session_rebuild - before.session_rebuild,
        }
    }
}
