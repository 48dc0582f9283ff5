//! Closed-loop load: each client sends its next request only after the
//! previous answer arrived, over one keep-alive connection.

use crate::gen::Workload;
use cme_serve::HttpClient;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one client observed for one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the workload's measured stream.
    pub index: usize,
    /// Send to full response.
    pub latency: Duration,
    /// HTTP status, or the IO error that replaced the answer.
    pub status: Result<u16, String>,
}

/// Everything a measured phase produced.
pub struct LoadResult {
    pub samples: Vec<Sample>,
    /// First send to last answer.
    pub wall: Duration,
    /// Distinct bodies of the `200` answers per measured-stream item,
    /// with how often each came back. Items are stream indices, except for `hot_mixed`,
    /// whose items are working-set entries (its answers repeat).
    pub bodies: HashMap<usize, HashMap<String, u64>>,
}

/// Drive `w` against `addr` until `seconds` have passed: requests are
/// taken from the stream in order, no request starts after the
/// deadline, and every started request is awaited.
pub fn run(w: &Workload, addr: SocketAddr, seconds: f64) -> LoadResult {
    let next = AtomicUsize::new(0);
    let bodies: Mutex<HashMap<usize, HashMap<String, u64>>> = Mutex::new(HashMap::new());
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..w.clients {
            s.spawn(|| {
                let mut mine = Vec::new();
                let mut seen: HashMap<usize, HashMap<String, u64>> = HashMap::new();
                let mut client = HttpClient::connect(addr).ok();
                while Instant::now() < deadline {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= w.len() {
                        break;
                    }
                    let req = w.request(index);
                    let sent = Instant::now();
                    let answer = match client.as_mut() {
                        Some(c) => c.post(req.typed.path(), &req.body).map_err(|e| e.to_string()),
                        None => Err("not connected".to_string()),
                    };
                    let latency = sent.elapsed();
                    let status = match answer {
                        Ok((status, body)) if status == 200 => {
                            let item = w.item(index);
                            let per_item = seen.entry(item).or_default();
                            match per_item.get_mut(body.as_str()) {
                                Some(count) => *count += 1,
                                None => {
                                    per_item.insert(body, 1);
                                }
                            }
                            Ok(status)
                        }
                        Ok((status, _)) => Ok(status),
                        Err(e) => {
                            // Start over on a fresh connection.
                            client = HttpClient::connect(addr).ok();
                            Err(e)
                        }
                    };
                    mine.push(Sample { index, latency, status });
                }
                samples.lock().expect("samples lock").extend(mine);
                let mut all = bodies.lock().expect("bodies lock");
                for (item, per_item) in seen {
                    let into = all.entry(item).or_default();
                    for (body, count) in per_item {
                        *into.entry(body).or_default() += count;
                    }
                }
            });
        }
    });
    let wall = started.elapsed();
    let mut samples = samples.into_inner().expect("samples lock");
    samples.sort_by_key(|s| s.index);
    LoadResult { samples, wall, bodies: bodies.into_inner().expect("bodies lock") }
}
