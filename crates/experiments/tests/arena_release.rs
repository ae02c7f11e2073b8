//! Trace-arena retention around the offline profiling phase: profile
//! streams are freed as soon as their two runs finish, so the arena holds
//! no more after the phase than before it.
//!
//! One test per binary on purpose: the arena is process-global, and a
//! concurrently running simulation would move its resident total.

use ampsched_experiments::common::Params;
use ampsched_experiments::profiling;
use ampsched_obs::metrics;
use ampsched_trace::arena;

fn materialized_chunks() -> u64 {
    metrics::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == "trace.arena.chunk.materialize")
        .map_or(0, |(_, v)| *v)
}

#[test]
fn profiling_leaves_the_arena_as_it_found_it() {
    let params = Params {
        profile_insts: 200_000,
        profile_interval_cycles: 50_000,
        ..Params::quick()
    };
    let before = arena::stats();
    let chunks_before = materialized_chunks();
    let profiles = profiling::profile_representatives(&params);
    assert_eq!(profiles.len(), 9);
    assert!(
        materialized_chunks() > chunks_before,
        "the phase replays its streams from the arena"
    );
    assert_eq!(
        arena::stats(),
        before,
        "profile streams must be released after their runs"
    );
}
