//! The `cme serve` process under test: spawn, readiness, resource usage
//! and shutdown.

use cme_serve::HttpClient;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// A running server and the thread draining its standard error.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `cme serve` with two workers on an ephemeral port over
    /// `cache_dir`, and wait until it answers `/healthz`. Returns the
    /// server and the spawn-to-ready time.
    pub fn spawn(cme: &Path, cache_dir: &Path) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(cme)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cme.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = match stderr.read_line(&mut line) {
            Ok(n) if n > 0 => parse_addr(&line),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("`cme serve` did not announce its address: {line:?}"));
        };
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let server = Server { child, addr, drain: Some(drain) };
        let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        match client.get("/healthz") {
            Ok((200, _)) => Ok((server, started.elapsed())),
            other => Err(format!("/healthz answered {other:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time the server has used so far, in ms.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |k: usize| -> Result<f64, String> {
            fields.get(k).and_then(|f| f.parse::<f64>().ok()).ok_or("malformed /proc stat".into())
        };
        Ok((ticks(11)? + ticks(12)?) * 1000.0 / USER_HZ)
    }

    /// High-water resident set size, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// `POST /shutdown` (which flushes the disk tier), then wait for the
    /// process to exit; kill it if it does not within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = HttpClient::connect(self.addr).and_then(|mut c| c.post("/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break None,
            }
        };
        if exited.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        match (asked, exited) {
            (Ok((200, _)), Some(status)) if status.success() => Ok(()),
            (asked, exited) => Err(format!("shutdown: answer {asked:?}, exit {exited:?}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached when a run aborts early: never leave a server
        // behind.
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(drain) = self.drain.take() {
                let _ = drain.join();
            }
        }
    }
}

/// The `http://HOST:PORT` address `cme serve` announces on start-up.
fn parse_addr(line: &str) -> Option<SocketAddr> {
    let rest = &line[line.find("http://")? + "http://".len()..];
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_announced_address() {
        let line = "cme serve listening on http://127.0.0.1:40123  (2 workers, queue 64)\n";
        assert_eq!(parse_addr(line), Some("127.0.0.1:40123".parse().unwrap()));
        assert_eq!(parse_addr("garbage"), None);
    }
}
