//! Sampled per-cycle pipeline profiler.
//!
//! Every Nth *simulated* cycle the system run loops record one
//! [`PipeSample`] per core: structure occupancies, the cumulative
//! committed count, and a stall-cause code (the caller defines the code
//! space — `ampsched-cpu`'s `StallCause` — this crate only buckets it).
//! Sampling is process-global like the [span](mod@crate::span) collector:
//! off by default, enabled by the experiments CLI for `--profile` runs.
//!
//! The cadence is deterministic in simulated time: samples land at exact
//! multiples of the configured interval regardless of host speed, skip
//! jumps, or scheduler behavior, so two runs of the same experiment
//! produce identical sample streams. Skip-ahead regions are quiescent by
//! construction (no commit, dispatch, issue, or memory traffic), so the
//! run loops re-emit the then-current snapshot at each crossed sample
//! point — the stream looks exactly as if every cycle had been ticked.
//!
//! Like every other instrument in this crate the profiler is read-only
//! with respect to simulation state: it observes values the pipeline
//! already maintains and feeds nothing back, so enabling it leaves
//! `--json` reports byte-identical (enforced by
//! `differential_telemetry` in `ampsched-experiments`).

use ampsched_util::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on caller-defined stall-cause codes (inclusive cap on
/// distinct causes; `ampsched-cpu` uses 5).
pub const MAX_STALL_CODES: usize = 8;

/// Cap on buffered samples: ~96 MiB of samples at most, after which the
/// profiler degrades to a drop counter instead of exhausting memory.
const MAX_SAMPLES: usize = 1 << 21;

/// One sampled pipeline observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeSample {
    /// Simulated cycle the sample was taken at (a multiple of the
    /// configured interval).
    pub cycle: u64,
    /// Core index the sample describes.
    pub core: u8,
    /// Caller-defined stall-cause code, `< MAX_STALL_CODES`.
    pub stall: u8,
    /// Occupied reorder-buffer slots.
    pub rob: u32,
    /// Integer issue-queue entries.
    pub isq_int: u32,
    /// Floating-point issue-queue entries.
    pub isq_fp: u32,
    /// Load-queue entries.
    pub lq: u32,
    /// Store-queue entries.
    pub sq: u32,
    /// Cumulative committed instructions on the core at the sample.
    pub committed: u64,
    /// Peak sustainable issue slots per cycle on the core.
    pub issue_slots: u32,
}

/// Sampling interval in simulated cycles; 0 = disabled.
static INTERVAL: AtomicU64 = AtomicU64::new(0);

fn samples() -> &'static Mutex<Vec<PipeSample>> {
    static SAMPLES: OnceLock<Mutex<Vec<PipeSample>>> = OnceLock::new();
    SAMPLES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Enable sampling every `interval` simulated cycles (0 disables).
pub fn set_interval(interval: u64) {
    INTERVAL.store(interval, Ordering::Relaxed);
}

/// Current sampling interval; 0 when disabled. Run loops read this once
/// at run start — the disabled cost is one relaxed load per run, not
/// per cycle.
pub fn interval() -> u64 {
    INTERVAL.load(Ordering::Relaxed)
}

/// Record one sample. Drops (and counts) past the buffer cap.
pub fn record(sample: PipeSample) {
    debug_assert!((sample.stall as usize) < MAX_STALL_CODES);
    let mut buf = samples().lock().expect("profiler buffer lock");
    if buf.len() >= MAX_SAMPLES {
        crate::counter!("obs.profiler.dropped");
        return;
    }
    buf.push(sample);
}

/// How many more samples [`record`] buffers before it starts dropping.
/// A caller that holds samples back to record them later can stop
/// holding at this many: the rest would be dropped anyway.
pub fn remaining() -> usize {
    MAX_SAMPLES.saturating_sub(sample_count())
}

/// Count `n` samples as dropped without offering them to [`record`]:
/// for callers that stopped holding samples at [`remaining`].
pub fn count_dropped(n: u64) {
    if n > 0 {
        crate::counter!("obs.profiler.dropped", n);
    }
}

/// Copy of every buffered sample, in recording order.
pub fn snapshot() -> Vec<PipeSample> {
    samples().lock().expect("profiler buffer lock").clone()
}

/// Number of buffered samples.
pub fn sample_count() -> usize {
    samples().lock().expect("profiler buffer lock").len()
}

/// Discard all buffered samples.
pub fn clear() {
    samples().lock().expect("profiler buffer lock").clear();
}

/// Aggregated view of one core's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSummary {
    /// Core index.
    pub core: u8,
    /// Samples aggregated.
    pub samples: u64,
    /// Mean occupancies over all samples.
    pub mean_rob: f64,
    /// Mean integer issue-queue occupancy.
    pub mean_isq_int: f64,
    /// Mean floating-point issue-queue occupancy.
    pub mean_isq_fp: f64,
    /// Mean load-queue occupancy.
    pub mean_lq: f64,
    /// Mean store-queue occupancy.
    pub mean_sq: f64,
    /// Committed instructions per issue slot per cycle over the sampled
    /// span (committed delta / (cycle delta × issue slots)) — the
    /// steady-state issue-width utilization.
    pub issue_utilization: f64,
    /// Sample counts per stall-cause code. Sums to `samples` — every
    /// sample lands in exactly one bucket (cause totality).
    pub stall_counts: [u64; MAX_STALL_CODES],
}

/// Aggregate the buffered samples per core, sorted by core index.
pub fn summarize() -> Vec<CoreSummary> {
    let buf = samples().lock().expect("profiler buffer lock");
    let mut out: Vec<CoreSummary> = Vec::new();
    for s in buf.iter() {
        let entry = match out.iter_mut().find(|c| c.core == s.core) {
            Some(e) => e,
            None => {
                out.push(CoreSummary {
                    core: s.core,
                    samples: 0,
                    mean_rob: 0.0,
                    mean_isq_int: 0.0,
                    mean_isq_fp: 0.0,
                    mean_lq: 0.0,
                    mean_sq: 0.0,
                    issue_utilization: 0.0,
                    stall_counts: [0; MAX_STALL_CODES],
                });
                out.last_mut().expect("just pushed")
            }
        };
        // Accumulate sums first; divide into means below.
        entry.samples += 1;
        entry.mean_rob += s.rob as f64;
        entry.mean_isq_int += s.isq_int as f64;
        entry.mean_isq_fp += s.isq_fp as f64;
        entry.mean_lq += s.lq as f64;
        entry.mean_sq += s.sq as f64;
        entry.stall_counts[(s.stall as usize).min(MAX_STALL_CODES - 1)] += 1;
    }
    for c in &mut out {
        let n = c.samples as f64;
        c.mean_rob /= n;
        c.mean_isq_int /= n;
        c.mean_isq_fp /= n;
        c.mean_lq /= n;
        c.mean_sq /= n;
        // Utilization needs first/last samples of this core.
        let first = buf.iter().find(|s| s.core == c.core).expect("core seen");
        let last = buf.iter().rev().find(|s| s.core == c.core).expect("core seen");
        let cycles = last.cycle.saturating_sub(first.cycle);
        let slots = first.issue_slots as f64;
        c.issue_utilization = if cycles > 0 && slots > 0.0 {
            (last.committed.saturating_sub(first.committed)) as f64 / (cycles as f64 * slots)
        } else {
            0.0
        };
    }
    out.sort_by_key(|c| c.core);
    out
}

/// Render the per-core summaries as JSON. `cause_names` maps stall codes
/// to display names (shorter tables leave trailing codes as `cause<N>`).
pub fn summary_json(cause_names: &[&str]) -> Json {
    let summaries = summarize();
    Json::arr(summaries.iter().map(|c| {
        let named = |i: usize| -> String {
            cause_names
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("cause{i}"))
        };
        Json::obj([
            ("core", Json::from(c.core as u64)),
            ("samples", Json::from(c.samples)),
            ("mean_rob", Json::from(c.mean_rob)),
            ("mean_isq_int", Json::from(c.mean_isq_int)),
            ("mean_isq_fp", Json::from(c.mean_isq_fp)),
            ("mean_lq", Json::from(c.mean_lq)),
            ("mean_sq", Json::from(c.mean_sq)),
            ("issue_utilization", Json::from(c.issue_utilization)),
            (
                "stalls",
                Json::Obj(
                    c.stall_counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, n)| *n > 0)
                        .map(|(i, n)| (named(i), Json::from(*n)))
                        .collect(),
                ),
            ),
        ])
    }))
}

/// Chrome trace-event counter tracks for the buffered samples: one
/// `"ph":"C"` event per sample with the occupancies as series, under a
/// synthetic pid so the simulated-time axis does not interleave with
/// host-time spans. Returns the events as JSON values for
/// [`span::write_trace_events`](crate::span::write_trace_events) to
/// splice into its output.
pub fn trace_counter_events() -> Vec<Json> {
    let buf = samples().lock().expect("profiler buffer lock");
    buf.iter()
        .map(|s| {
            Json::obj([
                ("name", Json::from(format!("pipeline core{}", s.core))),
                ("cat", Json::from("ampsched.pipeline")),
                ("ph", Json::from("C")),
                // Counter tracks use the simulated cycle as the
                // timestamp; pid 0 keeps them on their own process row.
                ("ts", Json::from(s.cycle)),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(s.core as u64)),
                (
                    "args",
                    Json::obj([
                        ("rob", Json::from(s.rob as u64)),
                        ("isq_int", Json::from(s.isq_int as u64)),
                        ("isq_fp", Json::from(s.isq_fp as u64)),
                        ("lq", Json::from(s.lq as u64)),
                        ("sq", Json::from(s.sq as u64)),
                    ]),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the interval switch and sample buffer are process-global,
    // so parallel test functions would race.
    #[test]
    fn profiler_lifecycle() {
        clear();
        assert_eq!(interval(), 0, "sampling starts disabled");
        set_interval(64);
        assert_eq!(interval(), 64);
        for cycle in [64u64, 128, 192] {
            for core in 0..2u8 {
                record(PipeSample {
                    cycle,
                    core,
                    stall: core, // distinct causes per core
                    rob: 10 * (core as u32 + 1),
                    isq_int: 4,
                    isq_fp: 2,
                    lq: 1,
                    sq: 0,
                    committed: cycle * (core as u64 + 1) / 2,
                    issue_slots: 5,
                });
            }
        }
        set_interval(0);
        assert_eq!(sample_count(), 6);
        assert_eq!(remaining(), MAX_SAMPLES - 6);
        let summaries = summarize();
        assert_eq!(summaries.len(), 2);
        for (i, c) in summaries.iter().enumerate() {
            assert_eq!(c.core, i as u8);
            assert_eq!(c.samples, 3);
            assert_eq!(c.mean_rob, 10.0 * (i as f64 + 1.0));
            // Totality: every sample lands in exactly one stall bucket.
            assert_eq!(c.stall_counts.iter().sum::<u64>(), c.samples);
            assert_eq!(c.stall_counts[i], 3);
            // committed delta / (cycle delta × slots):
            // core0: (96-32)/(128×5) = 0.1; core1: (192-64)/(128×5) = 0.2.
            let want = 0.1 * (i as f64 + 1.0);
            assert!((c.issue_utilization - want).abs() < 1e-12);
        }
        let json = summary_json(&["a", "b"]).render();
        assert!(json.contains("\"a\"") && json.contains("\"b\""));
        let events = trace_counter_events();
        assert_eq!(events.len(), 6);
        assert!(events[0].render().contains("\"ph\":\"C\""));
        clear();
        assert_eq!(sample_count(), 0);
    }
}
