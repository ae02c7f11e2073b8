//! `ampsched serve`: the scheduling-as-a-service daemon.
//!
//! A long-running process that answers experiment requests over a
//! strict HTTP/1.1 subset ([`http`]), keyed by a canonical hash of the
//! resolved parameters ([`protocol`]), backed by a bounded coalescing
//! result cache ([`cache`]), computed by a fixed worker pool
//! ([`queue`]), and observable through `serve.*` instruments
//! ([`metrics`]). DESIGN.md §14 is the architecture document;
//! EXPERIMENTS.md is the operator reference.
//!
//! Routes:
//!
//! | route | meaning |
//! |---|---|
//! | `POST /run` | run (or re-serve) one experiment; body = job JSON |
//! | `GET /healthz` | liveness + queue/cache gauges |
//! | `GET /metrics` | `serve.*` instrument snapshot + latency quantiles |
//! | `GET /requestz` | last N completed requests with phase timelines |
//! | `GET /statusz` | the in-flight request set |
//! | `GET /debugz/flight` | flight-recorder ring dump (JSONL) |
//! | `POST /shutdown` | stop accepting, drain, exit |
//!
//! Every accepted request gets a deterministic id (`r-` + accept
//! sequence number) and a per-phase timeline
//! (parse → cache-claim → queue-wait → sim → serialize → write for a
//! cache miss) recorded in `ampsched_obs::request`; `--access-log`
//! writes one JSONL line per request from the same records ([`reqlog`]).
//!
//! Two guarantees the tests enforce end to end:
//!
//! - **Byte identity.** A `/run` response body is byte-for-byte the
//!   file `ampsched --json` would write for the same resolved
//!   parameters (`serve_e2e` compares against the `golden_compat`
//!   goldens; CI re-checks over a real socket with `cmp`).
//! - **Read-only service.** Serving never mutates experiment state:
//!   results come from a pure function of the request, cached by
//!   content address. The only writes the daemon performs are its own
//!   cache spills under `--cache-dir`.

pub mod bench;
pub mod cache;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod reqlog;

use crate::common::Params;
use ampsched_obs::{request as obs_request, ring as obs_ring};
use ampsched_util::Json;
use cache::{Claim, ResultCache, WaitOutcome};
use queue::{Job, JobQueue, WorkerPool};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything `ampsched serve` needs to come up, resolved from CLI
/// flags (defaults in parentheses).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7199`). Use port 0 for an ephemeral
    /// port — the bound address is printed and available via
    /// [`Server::local_addr`].
    pub addr: String,
    /// Worker threads draining the job queue (`2`).
    pub workers: usize,
    /// In-memory result-cache capacity in cells (`64`).
    pub cache_entries: usize,
    /// Disk spill directory for the result cache (none).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Per-request deadline in milliseconds (`600_000`); an elapsed
    /// deadline answers 504 but the job still completes and caches.
    pub deadline_ms: u64,
    /// Base parameters requests resolve against — in practice the
    /// trace-cache directory from `--trace-cache`.
    pub base: Params,
    /// Access-log file (`--access-log`): one JSONL line per completed
    /// request (none).
    pub access_log: Option<std::path::PathBuf>,
    /// Flight-recorder dump file (`--flight-recorder`): the obs event
    /// ring is written here on a worker panic or a 504 (none). The ring
    /// itself records regardless — `GET /debugz/flight` always works.
    pub flight_recorder: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7199".to_string(),
            workers: 2,
            cache_entries: 64,
            cache_dir: None,
            deadline_ms: 600_000,
            base: Params::default(),
            access_log: None,
            flight_recorder: None,
        }
    }
}

/// A bound (but not yet serving) daemon. `bind` then `run`; tests use
/// [`Server::local_addr`] between the two to learn the ephemeral port.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    shutdown: ShutdownHandle,
    access_log: Option<Arc<reqlog::AccessLog>>,
}

/// Stops a running [`Server`]. The accept loop blocks in `accept`, so
/// [`ShutdownHandle::trigger`] sets the flag and then connects to the
/// listen address itself, which wakes the loop to see the flag.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    wake_addr: SocketAddr,
}

impl ShutdownHandle {
    /// Stop accepting and start the drain (what `POST /shutdown` does).
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Fails harmlessly when the listener is already gone.
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The in-flight connection count; the drain waits for it to reach zero.
#[derive(Default)]
struct ActiveConns {
    count: Mutex<usize>,
    idle: Condvar,
}

/// One connection's share of [`ActiveConns`], released on drop (also
/// when the handler panics).
struct ConnGuard(Arc<ActiveConns>);

impl ActiveConns {
    fn enter(self: &Arc<Self>) -> ConnGuard {
        *self.count.lock().unwrap_or_else(|p| p.into_inner()) += 1;
        ConnGuard(Arc::clone(self))
    }

    /// Block until no connection is in flight, or `cap` has elapsed.
    fn wait_idle(&self, cap: Duration) {
        let count = self.count.lock().unwrap_or_else(|p| p.into_inner());
        let _ = self.idle.wait_timeout_while(count, cap, |n| *n > 0);
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(|p| p.into_inner());
        *count -= 1;
        if *count == 0 {
            self.0.idle.notify_all();
        }
    }
}

impl Server {
    /// Bind the listen socket and construct the cache + queue. No
    /// thread is spawned yet. Binding also switches on the process-wide
    /// request registry and flight recorder — both are observation-only
    /// (served bytes stay byte-identical; `serve_obs` enforces it).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = Arc::new(ResultCache::new(
            config.cache_entries,
            config.cache_dir.clone(),
        ));
        let access_log = match &config.access_log {
            Some(path) => Some(Arc::new(reqlog::AccessLog::create(path)?)),
            None => None,
        };
        obs_request::set_enabled(true);
        obs_ring::set_enabled(true);
        obs_ring::set_dump_path(config.flight_recorder.clone());
        // The shutdown wake-up connects here; a wildcard bind is reached
        // through loopback.
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Server {
            listener,
            queue: Arc::new(JobQueue::new()),
            cache,
            shutdown: ShutdownHandle {
                flag: Arc::new(AtomicBool::new(false)),
                wake_addr,
            },
            access_log,
            config,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle whose [`ShutdownHandle::trigger`] makes [`Server::run`]
    /// drain and return — what `POST /shutdown` does. For embedding the
    /// server in tests.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serve until shutdown, then drain: stop accepting, let queued
    /// jobs finish, wait for in-flight connections, join the pool.
    pub fn run(self) -> std::io::Result<()> {
        let pool = WorkerPool::spawn(
            self.config.workers,
            Arc::clone(&self.queue),
            Arc::clone(&self.cache),
        );
        let active = Arc::new(ActiveConns::default());
        // Blocking accept: a connection is handed off the moment it
        // arrives, and a shutdown trigger wakes the loop with a
        // connection of its own, which is dropped unanswered.
        for conn in self.listener.incoming() {
            if self.shutdown.is_triggered() {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                // The peer gave up before the accept completed.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            let ctx = ConnCtx {
                queue: Arc::clone(&self.queue),
                cache: Arc::clone(&self.cache),
                shutdown: self.shutdown.clone(),
                deadline: Duration::from_millis(self.config.deadline_ms.max(1)),
                workers: self.config.workers,
                base: self.config.base.clone(),
                access_log: self.access_log.clone(),
            };
            let guard = active.enter();
            std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || {
                    handle_connection(stream, &ctx);
                    drop(guard);
                })
                .expect("spawn connection handler");
        }
        // Drain: connections first (they may still enqueue), then the
        // queue and pool. A stuck connection cannot wedge shutdown
        // forever — its cache wait is bounded by the deadline.
        active.wait_idle(
            Duration::from_millis(self.config.deadline_ms.max(1)) + Duration::from_secs(5),
        );
        pool.join();
        Ok(())
    }
}

/// What a connection handler needs from the server.
struct ConnCtx {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    shutdown: ShutdownHandle,
    deadline: Duration,
    workers: usize,
    base: Params,
    access_log: Option<Arc<reqlog::AccessLog>>,
}

/// Per-request observability handle: the request-registry id (when
/// tracing is on) plus the timestamps the phase timeline hangs off.
/// Everything here is measurement — dropping all of it changes no
/// served byte.
struct RequestObs {
    id: Option<String>,
    started: Instant,
    route_hist: &'static str,
}

impl RequestObs {
    /// Open a record for a request on `path` labelled `route`
    /// (`"POST /run"`); `started` is when the connection began reading.
    fn begin(route: &str, path: &str, started: Instant) -> RequestObs {
        RequestObs {
            id: obs_request::begin(route),
            started,
            route_hist: metrics::route_hist(path),
        }
    }

    /// Record one phase duration against this request.
    fn phase(&self, name: &'static str, took: Duration) {
        if let Some(id) = &self.id {
            obs_request::phase(id, name, took.as_micros() as u64);
        }
    }

    /// Attach a metadata field (cache key, etc.) to this request.
    fn annotate(&self, key: &'static str, value: Json) {
        if let Some(id) = &self.id {
            obs_request::annotate(id, key, value);
        }
    }

    /// Seal the request: record total latency in the per-route and
    /// per-outcome histogram families, move the record to the completed
    /// history, and write the access-log line.
    fn finish(self, ctx: &ConnCtx, outcome: &str, status: u16, bytes: usize) {
        let total_us = self.started.elapsed().as_micros() as u64;
        ampsched_obs::metrics::hist(self.route_hist).record(total_us);
        ampsched_obs::metrics::hist(metrics::outcome_hist(outcome)).record(total_us);
        if let Some(id) = &self.id {
            obs_request::annotate(id, "status", Json::from(status as u64));
            obs_request::annotate(id, "bytes", Json::from(bytes));
            if let Some(rec) = obs_request::finish(id, outcome, total_us) {
                if let Some(log) = &ctx.access_log {
                    log.write(&rec);
                }
            }
        }
    }
}

/// Serve exactly one request on `stream` (the protocol is one request
/// per connection, `Connection: close`).
fn handle_connection(mut stream: TcpStream, ctx: &ConnCtx) {
    let started = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok();
    let request = match http::parse_request(&mut stream, &http::Limits::default()) {
        Ok(r) => r,
        Err(e) => {
            ampsched_obs::counter!("serve.error.bad_request");
            let obs = RequestObs::begin("-", "-", started);
            obs.phase("parse", started.elapsed());
            let (status, reason) = e.status();
            let body = error_body(&e.detail());
            let wt = Instant::now();
            let _ = http::write_response(
                &mut stream,
                status,
                reason,
                "application/json",
                &[],
                body.as_bytes(),
            );
            obs.phase("write", wt.elapsed());
            obs.finish(ctx, "bad-request", status, body.len());
            return;
        }
    };
    ampsched_obs::counter!("serve.request");
    let route = format!("{} {}", request.method, request.path);
    let obs = RequestObs::begin(&route, &request.path, started);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/run") => handle_run(&mut stream, &request.body, ctx, obs),
        ("GET", "/healthz") => {
            obs.phase("parse", started.elapsed());
            let body =
                metrics::healthz_json(ctx.queue.depth(), &ctx.cache.stats(), ctx.workers)
                    .render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/metrics") => {
            obs.phase("parse", started.elapsed());
            let body =
                metrics::metrics_json(ctx.queue.depth(), &ctx.cache.stats()).render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/requestz") => {
            obs.phase("parse", started.elapsed());
            let records: Vec<Json> =
                obs_request::completed().iter().map(|r| r.to_json()).collect();
            let body = Json::obj([
                ("capacity", Json::from(obs_request::DEFAULT_CAPACITY)),
                ("requests", Json::Arr(records)),
            ])
            .render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/statusz") => {
            obs.phase("parse", started.elapsed());
            let inflight: Vec<Json> =
                obs_request::inflight().iter().map(|r| r.to_json()).collect();
            let body = Json::obj([
                ("inflight", Json::Arr(inflight)),
                ("queue_depth", Json::from(ctx.queue.depth())),
                ("workers", Json::from(ctx.workers)),
            ])
            .render_pretty();
            respond_ok(&mut stream, ctx, obs, "application/json", body.as_bytes());
        }
        ("GET", "/debugz/flight") => {
            obs.phase("parse", started.elapsed());
            let body = obs_ring::to_jsonl();
            respond_ok(&mut stream, ctx, obs, "application/x-ndjson", body.as_bytes());
        }
        ("POST", "/shutdown") => {
            obs.phase("parse", started.elapsed());
            ctx.shutdown.trigger();
            let body: &[u8] = b"{\"status\": \"draining\"}\n";
            let wt = Instant::now();
            let _ = http::write_response(
                &mut stream,
                200,
                "OK",
                "application/json",
                &[],
                body,
            );
            obs.phase("write", wt.elapsed());
            obs.finish(ctx, "draining", 200, body.len());
        }
        (
            _,
            "/run" | "/healthz" | "/metrics" | "/requestz" | "/statusz" | "/debugz/flight"
            | "/shutdown",
        ) => {
            ampsched_obs::counter!("serve.error.bad_request");
            respond_error(
                &mut stream,
                ctx,
                obs,
                405,
                "Method Not Allowed",
                "method not allowed for this route",
                "bad-request",
            );
        }
        _ => {
            ampsched_obs::counter!("serve.error.bad_request");
            respond_error(
                &mut stream,
                ctx,
                obs,
                404,
                "Not Found",
                "no such route",
                "bad-request",
            );
        }
    }
}

/// Write a 200 response and seal the request with outcome `ok`.
fn respond_ok(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    obs: RequestObs,
    content_type: &str,
    body: &[u8],
) {
    let wt = Instant::now();
    let _ = http::write_response(stream, 200, "OK", content_type, &[], body);
    obs.phase("write", wt.elapsed());
    obs.finish(ctx, "ok", 200, body.len());
}

/// Write a JSON error response and seal the request.
fn respond_error(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    obs: RequestObs,
    status: u16,
    reason: &str,
    message: &str,
    outcome: &str,
) {
    let body = error_body(message);
    let wt = Instant::now();
    let _ = http::write_response(
        stream,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
    );
    obs.phase("write", wt.elapsed());
    obs.finish(ctx, outcome, status, body.len());
}

/// The `/run` path: validate, claim the cache cell, compute or wait,
/// answer. The `X-Cache` header says which way the request went.
///
/// Phase timeline by path (visible in `/requestz` and the access log):
/// hit/disk-hit → `parse, cache-claim, write`; miss →
/// `parse, cache-claim, queue-wait, sim, serialize, write` (the middle
/// three recorded by the worker against this request's id); coalesced →
/// `parse, cache-claim, wait, write`.
fn handle_run(stream: &mut TcpStream, body: &[u8], ctx: &ConnCtx, obs: RequestObs) {
    let spec = match protocol::parse_request(body, &ctx.base) {
        Ok(spec) => spec,
        Err(msg) => {
            ampsched_obs::counter!("serve.error.bad_request");
            obs.phase("parse", obs.started.elapsed());
            respond_error(stream, ctx, obs, 400, "Bad Request", &msg, "bad-request");
            return;
        }
    };
    ampsched_obs::counter!("serve.run");
    obs.phase("parse", obs.started.elapsed());
    let key = protocol::canonical_hash(&spec);
    let key_header = format!("{key:016x}");
    obs.annotate("cache_key", Json::from(key_header.as_str()));
    let claim_start = Instant::now();
    let first_claim = ctx.cache.claim(key);
    obs.phase("cache-claim", claim_start.elapsed());
    let (claim, cache_state) = match first_claim {
        Claim::Hit(bytes) => {
            ampsched_obs::counter!("serve.cache.hit");
            (Some(bytes), "hit")
        }
        Claim::DiskHit(bytes) => {
            ampsched_obs::counter!("serve.cache.disk_hit");
            (Some(bytes), "disk-hit")
        }
        Claim::Owner => {
            ampsched_obs::counter!("serve.cache.miss");
            if !ctx.queue.push(Job::new(key, spec, obs.id.clone())) {
                ctx.cache.fail(key, "server is draining".to_string());
                respond_error(
                    stream,
                    ctx,
                    obs,
                    503,
                    "Service Unavailable",
                    "server is draining",
                    "draining",
                );
                return;
            }
            (None, "miss")
        }
        Claim::Wait(_) => {
            ampsched_obs::counter!("serve.coalesce");
            (None, "coalesced")
        }
    };
    let outcome = match claim {
        Some(bytes) => WaitOutcome::Ready(bytes),
        // Owner and coalescer alike wait on the pending slot (the
        // owner's job is in the queue; re-claiming yields its slot, or
        // the finished bytes if a worker already got to it). The owner's
        // wait is accounted by the worker-recorded queue-wait/sim/
        // serialize phases; a coalescer records it as one `wait` phase.
        None => {
            let wait_start = Instant::now();
            let outcome = match ctx.cache.claim(key) {
                Claim::Hit(bytes) | Claim::DiskHit(bytes) => WaitOutcome::Ready(bytes),
                Claim::Wait(slot) => slot.wait(ctx.deadline),
                Claim::Owner => {
                    // The job failed between push and re-claim; don't run a
                    // second attempt inside a connection thread.
                    ctx.cache.fail(key, "job failed".to_string());
                    WaitOutcome::Failed("job failed; retry the request".to_string())
                }
            };
            if cache_state == "coalesced" {
                obs.phase("wait", wait_start.elapsed());
            }
            outcome
        }
    };
    let latency_us = obs.started.elapsed().as_micros() as u64;
    ampsched_obs::hist!("serve.latency_us", latency_us);
    match outcome {
        WaitOutcome::Ready(bytes) => {
            let wt = Instant::now();
            let _ = http::write_response(
                stream,
                200,
                "OK",
                "application/json",
                &[("X-Cache", cache_state), ("X-Cache-Key", &key_header)],
                &bytes,
            );
            obs.phase("write", wt.elapsed());
            obs.finish(ctx, cache_state, 200, bytes.len());
        }
        WaitOutcome::Failed(msg) => {
            ampsched_obs::counter!("serve.error.failed");
            let body = error_body(&msg);
            let wt = Instant::now();
            let _ = http::write_response(
                stream,
                500,
                "Internal Server Error",
                "application/json",
                &[("X-Cache", cache_state)],
                body.as_bytes(),
            );
            obs.phase("write", wt.elapsed());
            obs.finish(ctx, "failed", 500, body.len());
        }
        WaitOutcome::TimedOut => {
            ampsched_obs::counter!("serve.error.timeout");
            // Deadline expiry is a "what was going on?" moment: dump the
            // flight recorder (no-op without --flight-recorder).
            obs_ring::dump_now("request deadline expired (504)");
            let body = error_body("deadline elapsed; the job continues and will be cached");
            let wt = Instant::now();
            let _ = http::write_response(
                stream,
                504,
                "Gateway Timeout",
                "application/json",
                &[("X-Cache", cache_state)],
                body.as_bytes(),
            );
            obs.phase("write", wt.elapsed());
            obs.finish(ctx, "timeout", 504, body.len());
        }
    }
}

/// A JSON error body: `{"error": "<message>"}`.
fn error_body(message: &str) -> String {
    ampsched_util::Json::obj([("error", ampsched_util::Json::from(message))]).render_pretty()
}
