//! The flight recorder: a fixed-capacity ring buffer of recent
//! observability events.
//!
//! Metrics answer "how much"; the flight recorder answers "what happened
//! just before it went wrong". Producers push short events ([`event`]) —
//! log lines, span edges, request transitions, job executions — into a
//! process-global ring that keeps only the most recent `capacity`
//! entries. When something goes wrong (a worker panic, a deadline
//! expiry) the ring is dumped as JSONL to a configured path
//! ([`set_dump_path`] + [`dump_now`]); `ampsched serve` also exposes it
//! on demand at `GET /debugz/flight`.
//!
//! Recording is off by default — [`event`] is then a single relaxed
//! atomic load — and enabled by the serve daemon (and tests) via
//! [`set_enabled`]. Like every `ampsched-obs` facility, the ring is
//! read-only with respect to simulation state: it observes, it never
//! feeds back.
//!
//! ## Determinism
//!
//! Event payloads carry no wall-clock-derived values except the `ts_us`
//! field itself: two identical serve runs produce identical dumps once
//! `ts_us` is masked out (enforced by `serve_obs` in
//! `ampsched-experiments`). Keep it that way — a producer that embeds a
//! duration or a timestamp in `detail` breaks the property.

use ampsched_util::Json;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Default number of events the ring retains.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One recorded event. `seq` is a monotone per-process sequence number
/// (it keeps counting across wraps, so gaps reveal how much history the
/// ring has already shed); `ts_us` is host microseconds since the obs
/// epoch and is the only non-deterministic field.
#[derive(Debug, Clone)]
pub struct RingEvent {
    /// Monotone sequence number (never reused until [`reset`]).
    pub seq: u64,
    /// Host microseconds since the process obs epoch.
    pub ts_us: u64,
    /// Event category (`"log"`, `"span"`, `"request.begin"`, ...).
    pub kind: &'static str,
    /// Short free-form payload. Must not embed clock-derived values.
    pub detail: String,
}

impl RingEvent {
    /// Render as one compact JSON object (always a single line: JSON
    /// string escaping removes raw newlines).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("ts_us", Json::from(self.ts_us)),
            ("kind", Json::from(self.kind)),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }
}

struct Ring {
    events: VecDeque<RingEvent>,
    capacity: usize,
    next_seq: u64,
    dump_path: Option<PathBuf>,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            next_seq: 0,
            dump_path: None,
        })
    })
}

/// Enable or disable recording process-wide. Disabled, [`event`] is a
/// single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Resize the ring (minimum 1); oldest events are shed immediately if
/// the new capacity is smaller.
pub fn set_capacity(capacity: usize) {
    let mut r = ring().lock().expect("flight recorder lock");
    r.capacity = capacity.max(1);
    while r.events.len() > r.capacity {
        r.events.pop_front();
    }
}

/// Configure (or clear) the file [`dump_now`] writes to on a panic or
/// deadline-expiry trigger. The file holds the *latest* dump — each
/// trigger overwrites it whole.
pub fn set_dump_path(path: Option<PathBuf>) {
    ring().lock().expect("flight recorder lock").dump_path = path;
}

/// Record one event. A no-op (one atomic load) when recording is off.
pub fn event(kind: &'static str, detail: String) {
    if !enabled() {
        return;
    }
    let ts_us = crate::span::micros_since_epoch();
    let mut r = ring().lock().expect("flight recorder lock");
    let seq = r.next_seq;
    r.next_seq += 1;
    if r.events.len() >= r.capacity {
        r.events.pop_front();
    }
    r.events.push_back(RingEvent {
        seq,
        ts_us,
        kind,
        detail,
    });
}

/// Copy of the buffered events, oldest first.
pub fn snapshot() -> Vec<RingEvent> {
    ring()
        .lock()
        .expect("flight recorder lock")
        .events
        .iter()
        .cloned()
        .collect()
}

/// Render the whole ring as JSONL (one compact object per line, oldest
/// first). Empty string when nothing is buffered.
pub fn to_jsonl() -> String {
    let mut out = String::new();
    for ev in snapshot() {
        out.push_str(&ev.to_json().render());
        out.push('\n');
    }
    out
}

/// Dump the ring to the configured path (see [`set_dump_path`]),
/// recording a `flight.dump` event with the trigger `reason` first so
/// the file is self-describing. Returns the number of events written,
/// `None` when no dump path is configured. Best-effort by design: an
/// I/O failure is logged, never propagated into the failing request.
pub fn dump_now(reason: &str) -> Option<usize> {
    let path = ring().lock().expect("flight recorder lock").dump_path.clone()?;
    event("flight.dump", reason.to_string());
    let body = to_jsonl();
    let count = body.lines().count();
    if let Err(e) = std::fs::write(&path, body) {
        crate::error!("flight", "cannot write dump to {}: {}", path.display(), e);
        return None;
    }
    Some(count)
}

/// Discard all buffered events and restart the sequence counter (the
/// capacity, enable flag, and dump path are preserved). For tests and
/// the serve determinism harness.
pub fn reset() {
    let mut r = ring().lock().expect("flight recorder lock");
    r.events.clear();
    r.next_seq = 0;
}

/// Serializes the unit test that enables the ring with the tests that
/// emit into it (log lines, request lifecycles and spans are all ring
/// events).
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the ring is process-global, so parallel test functions
    // would interleave events.
    #[test]
    fn ring_lifecycle_wrap_and_dump() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        event("test", "ignored while disabled".to_string());
        assert!(snapshot().is_empty());

        set_enabled(true);
        set_capacity(3);
        for i in 0..5u64 {
            event("test.ring", format!("e{i}"));
        }
        let evs = snapshot();
        assert_eq!(evs.len(), 3, "capacity bounds the ring");
        // Oldest events shed; seq keeps counting so the gap is visible.
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(evs[0].detail, "e2");

        // JSONL form: one parseable object per line, newline-free.
        let jsonl = to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let doc = ampsched_util::Json::parse(line).expect("line parses");
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some("test.ring"));
        }

        // Dump: no path configured → None; with a path → file written
        // with the trigger event appended.
        assert_eq!(dump_now("test-trigger"), None);
        let path = std::env::temp_dir().join(format!(
            "ampsched-flight-test-{}.jsonl",
            std::process::id()
        ));
        set_dump_path(Some(path.clone()));
        let n = dump_now("test-trigger").expect("dump with a path");
        assert_eq!(n, 3, "capacity 3: dump event displaced the oldest");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().last().unwrap().contains("flight.dump"));
        assert!(text.lines().last().unwrap().contains("test-trigger"));

        set_dump_path(None);
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(false);
        reset();
        let _ = std::fs::remove_file(&path);
    }
}
