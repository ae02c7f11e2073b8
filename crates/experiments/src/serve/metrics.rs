//! The daemon's own observability: `serve.*` instruments and the
//! `/healthz` + `/metrics` endpoint bodies.
//!
//! Everything here rides on `ampsched-obs` — the same registry the
//! simulator's `sim.*` instruments live in — so `/metrics` is one
//! filtered snapshot, not a second bookkeeping system. The `serve.*`
//! prefix keeps daemon counters out of report `telemetry` blocks
//! (which filter on `sim.`), and vice versa.
//!
//! Instrument glossary (also documented for operators in
//! EXPERIMENTS.md):
//!
//! | instrument | meaning |
//! |---|---|
//! | `serve.request` | HTTP requests accepted (any route) |
//! | `serve.run` | `/run` requests that parsed and validated |
//! | `serve.cache.hit` | `/run` answered from the in-memory cache |
//! | `serve.cache.disk_hit` | `/run` answered from the disk spill |
//! | `serve.cache.miss` | `/run` that enqueued a new computation |
//! | `serve.coalesce` | `/run` that joined an in-flight computation |
//! | `serve.job.execute` | jobs a worker actually ran |
//! | `serve.job.panic` | jobs that panicked (answered 500, not cached) |
//! | `serve.profile.memo_hit` | predictor jobs whose offline profiling phase came from the in-process memo |
//! | `serve.error.bad_request` | 400s (protocol or validation errors) |
//! | `serve.error.timeout` | 504s (deadline elapsed; job continues) |
//! | `serve.error.failed` | 500s (job failed) |
//! | `serve.latency_us` | `/run` wall time, microseconds (histogram) |

use super::cache::CacheStats;
use ampsched_obs::metrics;
use ampsched_util::Json;

/// Gauges shared by `/healthz` and `/metrics`: live queue/cache state,
/// with cache *bytes* (memory and disk) alongside entry counts so
/// capacity pressure is visible before an eviction storm.
fn gauge_fields(queue_depth: usize, cache: &CacheStats) -> Vec<(&'static str, Json)> {
    vec![
        ("queue_depth", Json::from(queue_depth)),
        ("cache_entries", Json::from(cache.entries)),
        ("cache_pending", Json::from(cache.pending)),
        ("cache_bytes", Json::from(cache.bytes)),
        ("cache_disk_cells", Json::from(cache.disk_cells)),
        ("cache_disk_bytes", Json::from(cache.disk_bytes)),
    ]
}

/// The `/healthz` body: liveness plus just enough state to see a wedged
/// daemon from the outside (queue depth growing without `job.execute`
/// moving, cache bytes climbing toward an eviction storm).
pub fn healthz_json(queue_depth: usize, cache: &CacheStats, workers: usize) -> Json {
    let mut fields = vec![
        ("status", Json::from("ok")),
        ("workers", Json::from(workers)),
    ];
    fields.extend(gauge_fields(queue_depth, cache));
    Json::obj(fields)
}

/// p50/p90/p99 summaries for every `serve.*` histogram in `snap`,
/// estimated from the 65-bucket power-of-two layout (worst-case ~2×
/// relative error above bucket 1; see `obs::metrics::quantile`).
fn latency_json(snap: &metrics::Snapshot) -> Json {
    let per_hist: Vec<(&str, Json)> = snap
        .hists
        .iter()
        .map(|h| {
            (
                h.name.as_str(),
                Json::obj([
                    ("count", Json::from(h.count)),
                    ("p50_us", Json::from(h.quantile(0.50).unwrap_or(0))),
                    ("p90_us", Json::from(h.quantile(0.90).unwrap_or(0))),
                    ("p99_us", Json::from(h.quantile(0.99).unwrap_or(0))),
                ]),
            )
        })
        .collect();
    Json::obj(per_hist)
}

/// The `/metrics` body: every `serve.*` instrument as a snapshot,
/// quantile summaries for every `serve.*` histogram (the per-route and
/// per-outcome latency families included), plus the same live-state
/// gauges `/healthz` reports.
pub fn metrics_json(queue_depth: usize, cache: &CacheStats) -> Json {
    let snap = metrics::snapshot().filtered("serve.");
    let latency = latency_json(&snap);
    Json::obj([
        ("serve", snap.to_json()),
        ("latency", latency),
        ("gauges", Json::obj(gauge_fields(queue_depth, cache))),
    ])
}

/// Resolve the per-outcome latency histogram for a finished `/run`.
/// `hist!` needs literal names, so the family is spelled out here; an
/// unknown outcome falls into the `other` member rather than minting
/// dynamic instrument names.
pub fn outcome_hist(outcome: &str) -> &'static str {
    match outcome {
        "hit" => "serve.latency.outcome.hit_us",
        "disk-hit" => "serve.latency.outcome.disk_hit_us",
        "miss" => "serve.latency.outcome.miss_us",
        "coalesced" => "serve.latency.outcome.coalesced_us",
        "timeout" => "serve.latency.outcome.timeout_us",
        "failed" => "serve.latency.outcome.failed_us",
        "bad-request" => "serve.latency.outcome.bad_request_us",
        "draining" => "serve.latency.outcome.draining_us",
        _ => "serve.latency.outcome.other_us",
    }
}

/// Resolve the per-route latency histogram for a finished request.
pub fn route_hist(path: &str) -> &'static str {
    match path {
        "/run" => "serve.latency.route.run_us",
        "/healthz" => "serve.latency.route.healthz_us",
        "/metrics" => "serve.latency.route.metrics_us",
        "/requestz" => "serve.latency.route.requestz_us",
        "/statusz" => "serve.latency.route.statusz_us",
        "/debugz/flight" => "serve.latency.route.debugz_flight_us",
        "/shutdown" => "serve.latency.route.shutdown_us",
        _ => "serve.latency.route.other_us",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CacheStats {
        CacheStats {
            entries: 7,
            pending: 1,
            bytes: 4096,
            disk_cells: 3,
            disk_bytes: 5000,
        }
    }

    #[test]
    fn healthz_shape() {
        let j = healthz_json(3, &stats(), 2);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(j.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("cache_entries").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("cache_bytes").and_then(Json::as_u64), Some(4096));
        assert_eq!(j.get("cache_disk_cells").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("cache_disk_bytes").and_then(Json::as_u64), Some(5000));
        assert_eq!(j.get("workers").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn metrics_includes_serve_counters_and_gauges() {
        ampsched_obs::counter!("serve.test.metrics_probe");
        let j = metrics_json(0, &CacheStats::default());
        let counters = j
            .get("serve")
            .and_then(|s| s.get("counters"))
            .and_then(Json::as_obj)
            .expect("serve.counters object");
        assert!(
            counters.iter().any(|(n, _)| n == "serve.test.metrics_probe"),
            "serve.* counters must appear in /metrics"
        );
        assert!(
            counters.iter().all(|(n, _)| n.starts_with("serve.")),
            "sim.* instruments must not leak into /metrics"
        );
        assert!(j.get("gauges").is_some());
        assert!(j.get("gauges").and_then(|g| g.get("cache_bytes")).is_some());
    }

    #[test]
    fn latency_section_reports_quantiles_per_hist() {
        for v in [100u64, 200, 400, 800] {
            ampsched_obs::hist!("serve.test.latency_probe_us", v);
        }
        let j = metrics_json(0, &CacheStats::default());
        let probe = j
            .get("latency")
            .and_then(|l| l.get("serve.test.latency_probe_us"))
            .expect("latency entry for the probe histogram");
        assert_eq!(probe.get("count").and_then(Json::as_u64), Some(4));
        let p50 = probe.get("p50_us").and_then(Json::as_u64).unwrap();
        let p99 = probe.get("p99_us").and_then(Json::as_u64).unwrap();
        // Power-of-two buckets: estimates stay within bucket bounds.
        assert!((128..=255).contains(&p50), "p50 {p50} in bucket of 200");
        assert!((512..=1023).contains(&p99), "p99 {p99} in bucket of 800");
    }

    #[test]
    fn hist_name_resolvers_cover_known_and_unknown() {
        assert_eq!(outcome_hist("hit"), "serve.latency.outcome.hit_us");
        assert_eq!(outcome_hist("timeout"), "serve.latency.outcome.timeout_us");
        assert_eq!(outcome_hist("???"), "serve.latency.outcome.other_us");
        assert_eq!(route_hist("/run"), "serve.latency.route.run_us");
        assert_eq!(route_hist("/nope"), "serve.latency.route.other_us");
    }
}
