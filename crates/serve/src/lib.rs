//! `cme-serve` — the network service layer over [`cme_api`]: a
//! dependency-free HTTP/1.1 JSON server on `std::net` that turns the
//! PR-1 `Session` seam into `POST /optimize`, `POST /analyze`,
//! `POST /lint`, `POST /batch`, `GET /healthz`, `GET /metrics` and
//! `POST /shutdown`.
//!
//! The design goals, in order:
//!
//! * **Readiness, not blocking reads.** A single IO driver thread owns
//!   every connection between requests, reads nonblockingly, and frames
//!   complete requests ([`server`], [`http::frame_request`]); workers
//!   only ever see fully-read requests, so a slow or stalled sender
//!   cannot occupy a worker.
//! * **Bounded everything.** A fixed worker pool drains a fixed-capacity
//!   queue of *ready* requests; when the queue is full the driver
//!   answers `503` immediately ([`pool`]). Arrival rate can never grow
//!   memory, and write timeouts bound the send side too.
//! * **Shared runtime state.** Cross-request evaluation state — the
//!   tiered outcome cache (optionally disk-backed via `cache_dir`), the
//!   process-wide displacement cache, in-flight request coalescing and
//!   the request-body alias — lives in [`cme_runtime`] and is owned by
//!   the [`router::App`]. Cache hits are served from the stored answer
//!   text. All of it is visible in `GET /metrics` ([`metrics`]).
//! * **Layers testable without sockets.** HTTP framing ([`http`]),
//!   routing ([`router`]), the queue/pool and the caches are all plain
//!   data-in/data-out modules; only [`server`] owns a `TcpListener`.
//!
//! ```
//! use cme_serve::{HttpClient, ServeConfig};
//!
//! let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() };
//! let handle = cme_serve::start(&config).unwrap();
//!
//! let mut client = HttpClient::connect(handle.addr()).unwrap();
//! let (status, body) = client.get("/healthz").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"status\":\"ok\""));
//!
//! handle.shutdown_and_join();
//! ```

pub mod client;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod server;

pub use client::HttpClient;
pub use http::{frame_request, Frame, HttpRequest, HttpResponse};
pub use metrics::Metrics;
pub use pool::{BoundedQueue, WorkerPool};
pub use router::App;
pub use server::{install_signal_handlers, start, ServerHandle};

use cme_runtime::RuntimeConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Server configuration; the defaults suit an interactive `cme serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads handling requests (≥ 1).
    pub workers: usize,
    /// Ready requests that may wait for a worker before `503`s begin
    /// (≥ 1).
    pub queue_depth: usize,
    /// Outcome- and lint-cache capacity in entries (the compare cache
    /// gets a quarter, at most 256); 0 disables caching.
    pub cache_entries: usize,
    /// Process-wide displacement-cache capacity in entries; 0 disables
    /// cross-request sharing of the Diophantine half of CME evaluation.
    pub displacement_entries: usize,
    /// Directory for the persistent outcome tier; `None` keeps the
    /// outcome cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Per-connection IO timeout: a peer silent for this long while a
    /// request is incomplete is dropped, and response writes give up
    /// after it, so a stalled peer cannot hold a worker.
    pub read_timeout: Duration,
}

impl ServeConfig {
    /// The [`cme_runtime`] configuration this server config implies.
    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            outcome_entries: self.cache_entries,
            displacement_entries: self.displacement_entries,
            cache_dir: self.cache_dir.clone(),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_depth: 64,
            cache_entries: 1024,
            displacement_entries: 4096,
            cache_dir: None,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
        }
    }
}
