//! Offline profiling (Section V steps 1–3): run the nine representative
//! benchmarks on both core types, sample every 2 ms, and build the
//! Figure 3 ratio matrix and Figure 4 regression surface.
//!
//! The phase's output is a pure function of a few parameters, so
//! [`profile`] memoizes it per process: the CLI, the serve workers and
//! the test helpers all profile once per parameter set.

use ampsched_core::{ProfilePoint, RatioMatrix, RatioSurface};
use ampsched_cpu::CoreConfig;
use ampsched_mem::MemConfig;
use ampsched_obs::metrics::{self, Snapshot};
use ampsched_system::{SimPath, SingleCoreRunner};
use ampsched_trace::{arena, suite, TracePath};
use std::sync::{Arc, Mutex, OnceLock};

use crate::common::{Params, Predictors};
use crate::runner::parallel_map;

/// Raw per-interval profile of one benchmark on both cores, interval-
/// aligned so each index pairs the same program region on both cores.
#[derive(Debug, Clone)]
pub struct BenchmarkProfile {
    /// Benchmark name.
    pub name: String,
    /// Interval-aligned observations.
    pub points: Vec<ProfilePoint>,
}

/// Profile one benchmark on both core types.
///
/// Intervals are *committed-instruction aligned*: the composition of
/// instruction window k is (statistically) the same on both cores, so
/// pairing by index compares like with like, as the paper's fixed-time
/// profiling does at epoch scale.
pub fn profile_benchmark(name: &str, params: &Params) -> BenchmarkProfile {
    let spec = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let run = |core_cfg: CoreConfig| {
        let mut w = params.workload_for_thread(spec.clone(), params.seed, 0);
        let mut runner =
            SingleCoreRunner::new(core_cfg, params.system.mem).with_sim_path(params.system.sim_path);
        runner.run(
            &mut *w,
            params.profile_insts,
            params.profile_interval_cycles,
            params.max_cycles,
        )
    };
    let fp = run(CoreConfig::fp_core());
    let int = run(CoreConfig::int_core());
    // Nothing reads a profile stream after its two runs: free it now
    // instead of leaving it resident until budget pressure evicts it.
    arena::release_for_thread(&spec, params.seed, 0);
    let n = fp.samples.len().min(int.samples.len());
    let points = (0..n)
        .filter_map(|k| {
            let sf = &fp.samples[k];
            let si = &int.samples[k];
            let (pf, pi) = (sf.ipc_per_watt(), si.ipc_per_watt());
            if pf <= 0.0 || pi <= 0.0 {
                return None;
            }
            Some(ProfilePoint {
                // Composition as observed (identical distribution on both
                // cores; use the FP-core observation).
                int_pct: sf.int_pct,
                fp_pct: sf.fp_pct,
                ppw_int_core: pi,
                ppw_fp_core: pf,
            })
        })
        .collect();
    BenchmarkProfile {
        name: name.to_string(),
        points,
    }
}

/// Profile the paper's nine representative benchmarks.
pub fn profile_representatives(params: &Params) -> Vec<BenchmarkProfile> {
    let names: Vec<String> = suite::representative_nine()
        .iter()
        .map(|b| b.name.to_string())
        .collect();
    parallel_map(&names, |n| profile_benchmark(n, params))
}

/// Build the HPE predictors (matrix + surface) from profiles.
///
/// # Panics
/// Panics if the profiles are empty or degenerate.
pub fn build_predictors(profiles: &[BenchmarkProfile]) -> Predictors {
    let points: Vec<ProfilePoint> = profiles.iter().flat_map(|p| p.points.clone()).collect();
    assert!(
        points.len() >= 8,
        "need several profile points to fit predictors, got {}",
        points.len()
    );
    Predictors {
        matrix: RatioMatrix::from_points(&points),
        surface: RatioSurface::from_points(&points),
    }
}

/// Convenience: the memoized predictors for `params` (see [`profile`]).
pub fn predictors(params: &Params) -> Predictors {
    profile(params).predictors.clone()
}

/// Predictors for [`Params::quick`], shared for the process lifetime —
/// tests and benches use this to avoid re-profiling.
pub fn quick_predictors() -> &'static Predictors {
    static CELL: OnceLock<Arc<ProfileCell>> = OnceLock::new();
    &CELL.get_or_init(|| profile(&Params::quick())).predictors
}

/// The output of one profiling phase.
#[derive(Debug)]
pub struct ProfileCell {
    /// The fitted matrix and surface.
    pub predictors: Predictors,
    /// The `sim.*` counters and histograms the phase recorded. A process
    /// that serves the cell from the memo merges this into its report's
    /// telemetry ([`Snapshot::merge`]), so the block equals a fresh
    /// run's, which profiles before it simulates.
    pub telemetry: Snapshot,
}

/// Cells the memo keeps; the least recently used is evicted beyond this.
/// A cell is a few kilobytes, so the bound only matters for a daemon
/// serving many distinct seeds.
pub const MEMO_CAPACITY: usize = 16;

/// Exactly the [`Params`] fields the profiling phase reads.
#[derive(Debug, Clone, PartialEq)]
struct ProfileKey {
    seed: u64,
    profile_insts: u64,
    profile_interval_cycles: u64,
    max_cycles: u64,
    mem: MemConfig,
    sim_path: SimPath,
    trace_path: TracePath,
}

impl ProfileKey {
    fn of(params: &Params) -> ProfileKey {
        ProfileKey {
            seed: params.seed,
            profile_insts: params.profile_insts,
            profile_interval_cycles: params.profile_interval_cycles,
            max_cycles: params.max_cycles,
            mem: params.system.mem,
            sim_path: params.system.sim_path,
            trace_path: params.trace_path,
        }
    }
}

/// A lazily computed memo value: concurrent callers for one key wait
/// for a single computation while other keys proceed.
type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// A fixed-capacity LRU of `(key, last use, slot)`.
struct Memo<V> {
    clock: u64,
    slots: Vec<(ProfileKey, u64, Slot<V>)>,
}

impl<V> Memo<V> {
    const fn new() -> Memo<V> {
        Memo {
            clock: 0,
            slots: Vec::new(),
        }
    }

    /// The value for `key`, computing it with `compute` on a miss.
    /// Returns whether the call was a hit (nothing was computed).
    fn get(
        memo: &Mutex<Memo<V>>,
        key: ProfileKey,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        let slot = {
            let mut m = memo.lock().unwrap_or_else(|p| p.into_inner());
            m.clock += 1;
            let now = m.clock;
            match m.slots.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, last_use, slot)) => {
                    *last_use = now;
                    Arc::clone(slot)
                }
                None => {
                    let slot = Arc::new(OnceLock::new());
                    m.slots.push((key, now, Arc::clone(&slot)));
                    if m.slots.len() > MEMO_CAPACITY {
                        let lru = (0..m.slots.len())
                            .min_by_key(|&i| m.slots[i].1)
                            .expect("memo is non-empty");
                        m.slots.remove(lru);
                    }
                    slot
                }
            }
        };
        let mut computed = false;
        let value = slot.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        });
        (Arc::clone(value), !computed)
    }
}

fn memo() -> &'static Mutex<Memo<ProfileCell>> {
    static MEMO: Mutex<Memo<ProfileCell>> = Mutex::new(Memo::new());
    &MEMO
}

/// The profiling phase for `params`, run at most once per parameter set
/// while its cell stays in the memo.
///
/// The cell's telemetry is the `sim.*` delta across the phase, so it is
/// exact only when nothing else simulates meanwhile: a CLI process, or a
/// serve worker holding its simulation lock.
pub fn profile(params: &Params) -> Arc<ProfileCell> {
    profile_memoized(params).0
}

/// [`profile`], also reporting whether the cell came from the memo.
pub(crate) fn profile_memoized(params: &Params) -> (Arc<ProfileCell>, bool) {
    Memo::get(memo(), ProfileKey::of(params), || {
        let before = metrics::snapshot();
        let predictors = build_predictors(&profile_representatives(params));
        let telemetry = metrics::snapshot().delta(&before).filtered("sim.");
        ProfileCell {
            predictors,
            telemetry,
        }
    })
}

/// Serialize the Figure 3 matrix for the `--json` report path: one entry
/// per bin center, with the looked-up ratio and whether the cell was
/// directly profiled.
pub fn matrix_to_json(m: &RatioMatrix) -> ampsched_util::Json {
    use ampsched_util::Json;
    let mut cells = Vec::new();
    for i in 0..5u32 {
        for j in 0..5u32 {
            let int_pct = f64::from(i) * 20.0 + 10.0;
            let fp_pct = f64::from(j) * 20.0 + 10.0;
            cells.push(Json::obj([
                ("int_pct", Json::from(int_pct)),
                ("fp_pct", Json::from(fp_pct)),
                ("ratio", Json::from(m.lookup(int_pct, fp_pct))),
                ("profiled", Json::from(m.cell_was_profiled(int_pct, fp_pct))),
            ]));
        }
    }
    Json::arr(cells)
}

/// Serialize the Figure 4 surface (its coefficient vector) for `--json`.
pub fn surface_to_json(su: &RatioSurface) -> ampsched_util::Json {
    use ampsched_util::Json;
    Json::obj([(
        "beta",
        Json::arr(su.beta.iter().map(|&b| Json::from(b))),
    )])
}

/// Render Figure 3: the binned IPC/Watt ratio matrix (INT ÷ FP core).
pub fn render_matrix(m: &RatioMatrix) -> String {
    use ampsched_metrics::Table;
    let bins = ["0-20%", ">20-40%", ">40-60%", ">60-80%", ">80-100%"];
    let mut headers: Vec<String> = vec!["INT\\FP".to_string()];
    headers.extend(bins.iter().map(|b| b.to_string()));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);
    for (i, label) in bins.iter().enumerate() {
        let mut row = vec![label.to_string()];
        for j in 0..bins.len() {
            let int_pct = i as f64 * 20.0 + 10.0;
            let fp_pct = j as f64 * 20.0 + 10.0;
            let mark = if m.cell_was_profiled(int_pct, fp_pct) { "" } else { "*" };
            row.push(format!("{:.2}{}", m.lookup(int_pct, fp_pct), mark));
        }
        t.row(&row);
    }
    let mut s = t.render();
    s.push_str("\n(* = cell not directly profiled; filled from nearest neighbor)\n");
    s
}

/// Render Figure 4: the fitted regression surface, as its coefficient
/// vector plus a coarse grid of predictions.
pub fn render_surface(su: &RatioSurface) -> String {
    use ampsched_metrics::Table;
    let b = su.beta;
    let mut s = format!(
        "ln ratio = {:.3} + {:.3}*x1 + {:.3}*x2 + {:.3}*x1^2 + {:.3}*x2^2 + {:.3}*x1*x2   (x = pct/100)\n\n",
        b[0], b[1], b[2], b[3], b[4], b[5]
    );
    let mut t = Table::new(&["%INT \\ %FP", "0", "20", "40", "60"]);
    for int_pct in [0.0f64, 20.0, 40.0, 60.0, 80.0] {
        let mut row = vec![format!("{int_pct:.0}")];
        for fp_pct in [0.0f64, 20.0, 40.0, 60.0] {
            row.push(format!("{:.2}", su.predict(int_pct, fp_pct)));
        }
        t.row(&row);
    }
    s.push_str(&t.render());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_capture_flavor_affinity() {
        let params = Params::quick();
        let int_heavy = profile_benchmark("intstress", &params);
        let fp_heavy = profile_benchmark("fpstress", &params);
        assert!(!int_heavy.points.is_empty());
        assert!(!fp_heavy.points.is_empty());
        // Every intstress interval should favor the INT core.
        for p in &int_heavy.points {
            assert!(p.ratio() > 1.2, "intstress interval ratio {}", p.ratio());
            assert!(p.int_pct > 50.0);
        }
        for p in &fp_heavy.points {
            assert!(p.ratio() < 0.85, "fpstress interval ratio {}", p.ratio());
            assert!(p.fp_pct > 30.0);
        }
    }

    #[test]
    fn memo_key_is_exactly_the_profiled_params() {
        let base = Params::quick();
        let key = ProfileKey::of(&base);
        let memo: Mutex<Memo<u32>> = Mutex::new(Memo::new());
        let (first, hit) = Memo::get(&memo, key.clone(), || 1);
        assert!(!hit, "the first lookup computes");
        let lookup = |p: &Params| Memo::get(&memo, ProfileKey::of(p), || 2);

        // Every field the phase reads is part of the key: a miss.
        let key_changes: [fn(&mut Params); 7] = [
            |p| p.seed += 1,
            |p| p.profile_insts += 1,
            |p| p.profile_interval_cycles += 1,
            |p| p.max_cycles += 1,
            |p| p.system.mem.l2_latency += 1,
            |p| p.system.sim_path = SimPath::Reference,
            |p| p.trace_path = TracePath::Stream,
        ];
        for (i, change) in key_changes.iter().enumerate() {
            let mut p = base.clone();
            change(&mut p);
            assert_ne!(ProfileKey::of(&p), key, "key field {i}");
            assert!(!lookup(&p).1, "changing key field {i} must miss");
        }

        // Fields the phase never reads are not: a hit on the same cell.
        let other_changes: [fn(&mut Params); 7] = [
            |p| p.run_insts += 1,
            |p| p.num_pairs += 1,
            |p| p.system.epoch_cycles += 1,
            |p| p.system.swap_overhead_cycles += 1,
            |p| p.trace_cache = Some("cache-dir".into()),
            |p| p.telemetry = Some("decisions.jsonl".into()),
            |p| p.trace_events = Some("trace.json".into()),
        ];
        for (i, change) in other_changes.iter().enumerate() {
            let mut p = base.clone();
            change(&mut p);
            let (cell, hit) = lookup(&p);
            assert!(hit, "changing non-key field {i} must hit");
            assert!(Arc::ptr_eq(&cell, &first));
        }
    }

    #[test]
    fn memo_evicts_the_least_recently_used_cell() {
        let memo: Mutex<Memo<u64>> = Mutex::new(Memo::new());
        let key = |seed: u64| ProfileKey::of(&Params { seed, ..Params::quick() });
        let get = |seed: u64| Memo::get(&memo, key(seed), || seed).1;
        for seed in 0..MEMO_CAPACITY as u64 {
            assert!(!get(seed));
        }
        // Touch seed 0, so seed 1 is now the least recently used.
        assert!(get(0));
        assert!(!get(1000), "a new key beyond capacity");
        assert!(get(0), "the recently used cell survives");
        assert!(!get(1), "the least recently used cell was evicted");
        // Re-inserting 1 evicted the next-oldest, 2; 3.. are still there.
        assert!(get(3));
        assert!(!get(2));
    }

    #[test]
    fn profile_is_memoized_and_matches_a_fresh_build() {
        let params = Params {
            seed: 0x6d65_6d6f,
            profile_insts: 100_000,
            profile_interval_cycles: 20_000,
            ..Params::quick()
        };
        let (a, hit_a) = profile_memoized(&params);
        let (b, hit_b) = profile_memoized(&params);
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let fresh = build_predictors(&profile_representatives(&params));
        assert_eq!(a.predictors.surface.beta, fresh.surface.beta);
        assert!(a.telemetry.counters.iter().all(|(n, _)| n.starts_with("sim.")));
        assert!(!a.telemetry.hists.is_empty(), "the phase records sim.* histograms");
    }

    #[test]
    fn predictors_learn_the_affinity() {
        let _params = Params::quick();
        let preds = quick_predictors();
        assert!(preds.matrix.lookup(70.0, 1.0) > 1.1);
        assert!(preds.matrix.lookup(8.0, 45.0) < 0.9);
        assert!(preds.surface.predict(70.0, 1.0) > 1.0);
        assert!(preds.surface.predict(8.0, 45.0) < 1.0);
    }
}
