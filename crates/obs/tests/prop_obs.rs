//! Property tests for the observability primitives: histogram bucket
//! boundaries are total and contiguous over `u64`, snapshot deltas split
//! and re-merge exactly, and JSONL telemetry records always render as a
//! single parseable line, no matter what bytes end up in string fields
//! (workload labels, error messages). Runs on the in-tree `util::check`
//! harness with a fixed seed.

use ampsched_obs::metrics::{bucket_bounds, bucket_index, HistSnapshot, Snapshot, BUCKETS};
use std::collections::BTreeMap;
use ampsched_util::check::{Checker, Source};
use ampsched_util::{prop_assert, prop_assert_eq, Json};

const SEED: u64 = 0x5c4e_0b50;

fn checker() -> Checker {
    Checker::new(SEED).cases(128).suite("obs")
}

/// Spread samples across all magnitudes: draw an exponent first so high
/// buckets are exercised as often as low ones.
fn arb_sample(s: &mut Source) -> u64 {
    let exp = s.u32_in(0, 63);
    let base = 1u64 << exp;
    base.saturating_add(s.u64_in(0, base.saturating_sub(1).max(1)))
}

#[test]
fn hist_bucket_boundaries() {
    checker().run(
        "hist_bucket_boundaries",
        |s: &mut Source| {
            let v = if s.bool() { arb_sample(s) } else { s.u64_in(0, 8) };
            let delta = s.u64_in(0, 1 << 40);
            (v, delta)
        },
        |&(v, delta)| {
            // The sample lands inside its bucket's inclusive bounds.
            let idx = bucket_index(v);
            prop_assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let (lo, hi) = bucket_bounds(idx);
            prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}] (bucket {idx})");
            // Buckets tile u64 with no gap or overlap.
            if idx + 1 < BUCKETS {
                let (next_lo, _) = bucket_bounds(idx + 1);
                prop_assert_eq!(next_lo, hi + 1, "gap after bucket {}", idx);
            }
            // Index is monotone in the sample value.
            let w = v.saturating_add(delta);
            prop_assert!(
                bucket_index(w) >= idx,
                "bucket_index not monotone: {} -> {}",
                v,
                w
            );
            Ok(())
        },
    );
}

/// Instrument names the delta/merge property draws from (mixed
/// namespaces, so the interleaved name order is exercised).
const COUNTERS: [&str; 4] = ["serve.x", "sim.a", "sim.b", "sim.swap"];
const HISTS: [&str; 3] = ["sim.h", "sim.run.cycles", "trace.bytes"];

/// One registry event: `(is_hist, instrument index, value)`. Counter
/// increments of 0 register an instrument without moving it.
type Event = (bool, usize, u64);

fn arb_events(s: &mut Source) -> Vec<Event> {
    s.vec_with(0, 12, |s| {
        if s.bool() {
            (false, s.usize_in(0, COUNTERS.len()), s.u64_in(0, 5))
        } else {
            let v = if s.bool() { arb_sample(s) } else { s.u64_in(0, 8) };
            (true, s.usize_in(0, HISTS.len()), v)
        }
    })
}

/// A model registry that snapshots the way `metrics::snapshot` does:
/// names sorted, only registered instruments, only non-empty buckets.
#[derive(Default)]
struct Model {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, (u64, u64, [u64; BUCKETS])>,
}

impl Model {
    fn apply(&mut self, events: &[Event]) {
        for &(is_hist, i, v) in events {
            if is_hist {
                let h = self.hists.entry(HISTS[i]).or_insert((0, 0, [0; BUCKETS]));
                h.0 += 1;
                h.1 = h.1.wrapping_add(v);
                h.2[bucket_index(v)] += 1;
            } else {
                *self.counters.entry(COUNTERS[i]).or_insert(0) += v;
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, (count, sum, buckets))| HistSnapshot {
                    name: n.to_string(),
                    count: *count,
                    sum: *sum,
                    buckets: (0..BUCKETS)
                        .filter(|&i| buckets[i] > 0)
                        .map(|i| {
                            let (lo, hi) = bucket_bounds(i);
                            (lo, hi, buckets[i])
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

#[test]
fn delta_splits_and_merges_exactly() {
    checker().run(
        "delta_splits_and_merges_exactly",
        |s: &mut Source| (arb_events(s), arb_events(s), arb_events(s)),
        |(before, first, second)| {
            // Snapshots a, b, c around two windows of activity.
            let mut m = Model::default();
            m.apply(before);
            let a = m.snapshot();
            m.apply(first);
            let b = m.snapshot();
            m.apply(second);
            let c = m.snapshot();
            let whole = c.delta(&a);
            let merged = b.delta(&a).merge(&c.delta(&b));
            prop_assert_eq!(&merged, &whole);
            prop_assert_eq!(merged.to_json().render(), whole.to_json().render());
            Ok(())
        },
    );
}

/// Arbitrary string including JSON-hostile content: quotes, backslashes,
/// newlines, control characters, multi-byte and astral code points.
fn arb_string(s: &mut Source) -> String {
    s.vec_with(0, 24, |s| {
        *s.choice(&[
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1b}', '\u{7f}', 'a', 'Z', '0', ' ', 'é',
            'µ', '中', '\u{1F600}', '\u{2028}', '\u{2029}',
        ])
    })
    .into_iter()
    .collect()
}

/// A telemetry-record-shaped document with hostile strings and the full
/// numeric range the audit trail emits (including null for NaN-free
/// optional fields).
fn arb_record(s: &mut Source) -> Json {
    let mispredict = if s.bool() {
        Json::from(s.f64_in(-10.0, 10.0))
    } else {
        Json::Null
    };
    Json::obj([
        ("type", Json::from("decision")),
        ("pair", Json::from(arb_string(s))),
        ("scheduler", Json::from(arb_string(s))),
        ("cycle", Json::from(s.u64_in(0, u64::MAX - 1))),
        ("swap", Json::from(s.bool())),
        ("mispredict", mispredict),
        (
            "threads",
            Json::arr((0..2).map(|_| {
                Json::obj([
                    ("int_pct", Json::from(s.f64_in(0.0, 100.0))),
                    ("ipc_per_watt", Json::from(s.f64_in(0.0, 1e6))),
                ])
            })),
        ),
    ])
}

#[test]
fn jsonl_records_are_single_line_and_round_trip() {
    checker().run(
        "jsonl_records_are_single_line_and_round_trip",
        arb_record,
        |doc| {
            let line = doc.render();
            // JSONL invariant: the compact rendering never contains a raw
            // line terminator, whatever the input strings held.
            prop_assert!(!line.contains('\n'), "raw newline in {line:?}");
            prop_assert!(!line.contains('\r'), "raw carriage return in {line:?}");
            // And the line parses back to the same document.
            let parsed = Json::parse(&line).map_err(|e| {
                ampsched_util::check::Failure::Fail(format!("reparse failed: {e:?} for {line:?}"))
            })?;
            prop_assert_eq!(&parsed, doc);
            Ok(())
        },
    );
}
