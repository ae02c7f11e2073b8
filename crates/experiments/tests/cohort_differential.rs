//! Cohort differential: a k-member cohort run
//! ([`MulticoreSystem::run_cohort`], and `DualCoreSystem::run_cohort_from`
//! behind the fig7/8/9 sweep) must equal k solo runs from identical fresh systems, bit for bit —
//! every result field (f64s compared through their exact `Debug`
//! rendering), every decision record, the process-wide `sim.*` counter
//! and histogram delta, and the pipeline-profiler sample stream.
//!
//! Inputs: the quick fig7 pairs under the paper's three schemes, and
//! topology-fuzzed shapes under the full scheduler zoo. Adversaries:
//! members reassigning to the same placement in one cycle (they share a
//! fork), a window reassignment followed by an epoch decision in the
//! same cycle (the fork is changed again before anyone else could join
//! it), `max_cycles` hit mid-epoch, the reference kernel, profiler sampling
//! on (also with the profiler nearly full, so samples are dropped), and
//! a workload that cannot fork.
//!
//! The metrics registry and the profiler are process-global, so every
//! test here holds [`LOCK`] while it simulates.

use std::sync::Mutex;

use ampsched_core::{AssignmentMap, TopoDecision, TopoScheduler, TopoSnapshot, TopoStatic};
use ampsched_cpu::{CoreConfig, FuSpec};
use ampsched_experiments::common::{run_pair, run_pair_cohort, sample_pairs, Params, SchedKind};
use ampsched_experiments::profiling;
use ampsched_isa::MicroOp;
use ampsched_obs::metrics::{self, Snapshot};
use ampsched_obs::profiler::{self, PipeSample};
use ampsched_system::{
    DecisionKind, MulticoreSystem, SimPath, SystemConfig, Topology, TopoRunResult,
};
use ampsched_trace::{suite, TraceGenerator, Workload};
use ampsched_util::check::{Checker, Source};
use ampsched_util::prop_assert;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// What one side of a comparison observed: its results rendered
/// exactly, its `sim.*` delta, its profiler samples, and how many forks
/// it made.
struct Observed {
    results: Vec<String>,
    sim: Snapshot,
    samples: Vec<PipeSample>,
    forks: u64,
}

fn forks_in(delta: &Snapshot) -> u64 {
    delta
        .counters
        .iter()
        .find(|(n, _)| n == "system.cohort.fork")
        .map_or(0, |(_, v)| *v)
}

fn observe<R: std::fmt::Debug>(f: impl FnOnce() -> Vec<R>) -> Observed {
    profiler::clear();
    let before = metrics::snapshot();
    let results = f();
    let delta = metrics::snapshot().delta(&before);
    Observed {
        // Debug renders every f64 in its shortest exact round-trip form,
        // so equal strings mean bit-equal values.
        results: results.iter().map(|r| format!("{r:?}")).collect(),
        sim: delta.filtered("sim."),
        samples: profiler::snapshot(),
        forks: forks_in(&delta),
    }
}

fn assert_same(cohort: &Observed, solo: &Observed, ctx: &str) {
    assert_eq!(cohort.results.len(), solo.results.len(), "{ctx}: result count");
    for (i, (c, s)) in cohort.results.iter().zip(&solo.results).enumerate() {
        assert!(c == s, "{ctx}: member {i} diverged\ncohort: {c}\nsolo:   {s}");
    }
    assert_eq!(cohort.sim, solo.sim, "{ctx}: sim.* delta diverged");
    assert!(cohort.samples == solo.samples, "{ctx}: profiler samples diverged");
}

fn generators(benches: &[&str], seed: u64) -> Vec<Box<dyn Workload>> {
    benches
        .iter()
        .enumerate()
        .map(|(t, name)| {
            Box::new(TraceGenerator::for_thread(suite::by_name(name).expect("bench"), seed, t))
                as Box<dyn Workload>
        })
        .collect()
}

/// A stream that cannot fork.
struct NoFork(TraceGenerator);

impl Workload for NoFork {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn next_op(&mut self) -> MicroOp {
        self.0.next_op()
    }
    fn current_phase(&self) -> usize {
        self.0.current_phase()
    }
}

/// Swaps the two lowest-indexed running threads at the first window at
/// or after each multiple of `every` cycles, and at every epoch when
/// `on_epochs` is set. Two instances reassign to the same placement in
/// the same cycle; with `every` equal to the epoch length and a window
/// of one instruction, the window swap lands in the epoch's cycle.
struct Swapper {
    every: u64,
    next: u64,
    on_epochs: bool,
}

impl Swapper {
    fn new(every: u64, on_epochs: bool) -> Swapper {
        Swapper { every, next: every, on_epochs }
    }

    /// Swap once, at the first window at or after `cycle`.
    fn once_at(cycle: u64) -> Swapper {
        Swapper { every: u64::MAX / 2, next: cycle, on_epochs: false }
    }

    fn swap(snap: &TopoSnapshot) -> TopoDecision {
        let running: Vec<usize> =
            (0..snap.threads.len()).filter(|&t| snap.assignment.core_of(t).is_some()).collect();
        if running.len() < 2 {
            return TopoDecision::Stay;
        }
        let mut next: AssignmentMap = snap.assignment.clone();
        next.swap_threads(running[0], running[1]);
        TopoDecision::Reassign(next)
    }
}

impl TopoScheduler for Swapper {
    fn name(&self) -> &'static str {
        "swapper"
    }
    fn window_insts(&self) -> Option<u64> {
        Some(1)
    }
    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        if snap.cycle < self.next {
            return TopoDecision::Stay;
        }
        self.next = (snap.cycle / self.every + 1) * self.every;
        Swapper::swap(snap)
    }
    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        if self.on_epochs {
            Swapper::swap(snap)
        } else {
            TopoDecision::Stay
        }
    }
}

/// Run `make()`'s schedulers once as a cohort and once solo, each member
/// on its own fresh `build()` system, and compare. Also checks that the
/// cohort leaves its system in member 0's final state, ready to run on.
fn cohort_vs_solo(
    ctx: &str,
    build: &dyn Fn() -> MulticoreSystem,
    make: &dyn Fn() -> Vec<Box<dyn TopoScheduler>>,
    target: u64,
    max_cycles: u64,
) -> Observed {
    let mut cohort_sys = build();
    let cohort = observe(|| {
        let mut scheds = make();
        let mut members: Vec<&mut dyn TopoScheduler> =
            scheds.iter_mut().map(|s| &mut **s as &mut dyn TopoScheduler).collect();
        cohort_sys.run_cohort(&mut members, target, max_cycles)
    });
    let mut first_solo = None;
    let solo = observe(|| {
        make()
            .into_iter()
            .map(|mut s| {
                let mut sys = build();
                let r: TopoRunResult = sys.run(&mut *s, target, max_cycles);
                first_solo.get_or_insert(sys);
                r
            })
            .collect()
    });
    assert_same(&cohort, &solo, ctx);
    let mut first = first_solo.expect("at least one member");
    assert_eq!(cohort_sys.cycle(), first.cycle(), "{ctx}: final cycle");
    assert_eq!(cohort_sys.core_digests(), first.core_digests(), "{ctx}: final machine");
    assert_eq!(cohort_sys.swaps(), first.swaps(), "{ctx}: final ledger");
    assert_eq!(
        cohort_sys.accounted_joules().to_bits(),
        first.accounted_joules().to_bits(),
        "{ctx}: final energy"
    );
    // The system stays re-entrant after a cohort: it continues exactly
    // where member 0's solo system does.
    let more = |sys: &mut MulticoreSystem| format!("{:?}", sys.run(&mut TopoStatic, target, 20_000));
    assert_eq!(more(&mut cohort_sys), more(&mut first), "{ctx}: run after the cohort");
    cohort
}

fn duo_cfg(epoch_cycles: u64, sim_path: SimPath) -> SystemConfig {
    SystemConfig {
        epoch_cycles,
        sim_path,
        ..SystemConfig::default()
    }
}

#[test]
fn quick_fig7_pairs_match_solo_runs() {
    let _guard = lock();
    let preds = profiling::quick_predictors();
    let params = Params::quick();
    let kinds = [
        SchedKind::proposed_default(&params),
        SchedKind::HpeMatrix,
        SchedKind::RoundRobin(1),
    ];
    let mut forks = 0;
    for pair in sample_pairs(params.num_pairs, params.seed) {
        let cohort =
            observe(|| run_pair_cohort(&pair, &[&kinds[0], &kinds[1], &kinds[2]], preds, &params));
        let solo = observe(|| kinds.iter().map(|k| run_pair(&pair, k, preds, &params)).collect());
        assert_same(&cohort, &solo, &pair.label());
        forks += cohort.forks;
    }
    assert!(forks > 0, "the sweep's schedulers diverge on some pair");
}

#[test]
fn same_cycle_same_placement_members_share_one_fork() {
    let _guard = lock();
    let build = || {
        MulticoreSystem::new(
            duo_cfg(50_000, SimPath::Fast),
            &Topology::duo(),
            generators(&["intstress", "fpstress"], 3),
        )
    };
    // Two identical swappers move at the same window to the same
    // placement; static stays behind. One fork serves both swappers.
    let make = || -> Vec<Box<dyn TopoScheduler>> {
        vec![
            Box::new(TopoStatic),
            Box::new(Swapper::once_at(30_000)),
            Box::new(Swapper::once_at(30_000)),
        ]
    };
    // Sampling on: the joining member records the fork's samples too.
    profiler::set_interval(301);
    let cohort = cohort_vs_solo("shared fork", &build, &make, u64::MAX / 2, 120_000);
    profiler::set_interval(0);
    assert_eq!(cohort.forks, 1, "members adopting one placement in one cycle share a fork");
    assert!(!cohort.samples.is_empty());
}

#[test]
fn window_reassignment_then_epoch_decision_in_one_cycle() {
    let _guard = lock();
    let epoch = 20_000;
    // max_cycles ends the run mid-epoch.
    let max_cycles = 5 * epoch + 7_321;
    for sim_path in [SimPath::Fast, SimPath::Reference] {
        let build = || {
            MulticoreSystem::new(
                duo_cfg(epoch, sim_path),
                &Topology::duo(),
                generators(&["intstress", "intstress"], 9),
            )
        };
        let make = || -> Vec<Box<dyn TopoScheduler>> {
            vec![
                Box::new(TopoStatic),
                Box::new(Swapper::new(epoch, true)),
                Box::new(Swapper::new(epoch, true)),
            ]
        };
        let cohort = cohort_vs_solo(
            &format!("window+epoch {sim_path:?}"),
            &build,
            &make,
            u64::MAX / 2,
            max_cycles,
        );
        // The adversary really happened: some cycle holds a window
        // reassignment followed by an epoch decision of the same member.
        let mut sys = build();
        let r = sys.run(&mut Swapper::new(epoch, true), u64::MAX / 2, max_cycles);
        assert_eq!(r.cycles, max_cycles);
        let both = r.decisions.windows(2).any(|w| {
            w[0].kind == DecisionKind::Window
                && w[0].changed
                && w[1].kind == DecisionKind::Epoch
                && w[1].cycle == w[0].cycle
        });
        assert!(both, "{sim_path:?}: no window reassignment shared a cycle with an epoch");
        assert!(cohort.forks >= 2, "each swapper forks at its first reassignment");
    }
}

#[test]
fn profiler_samples_are_recorded_once_per_member() {
    let _guard = lock();
    profiler::set_interval(257);
    let build = || {
        MulticoreSystem::new(
            duo_cfg(30_000, SimPath::Fast),
            &Topology::big_little(1, 1, 3),
            generators(&["gcc", "mcf", "equake"], 5),
        )
    };
    let make = || -> Vec<Box<dyn TopoScheduler>> {
        vec![
            Box::new(TopoStatic),
            SchedKind::RoundRobin(1).build_topo(3, None),
            SchedKind::Tpe.build_topo(3, None),
        ]
    };
    let cohort = cohort_vs_solo("profiler on", &build, &make, 150_000, 200_000);
    profiler::set_interval(0);
    assert!(!cohort.samples.is_empty(), "sampling was on");
}

/// A stand-in sample for filling the profiler.
const FILLER: PipeSample = PipeSample {
    cycle: 0,
    core: 0,
    stall: 0,
    rob: 0,
    isq_int: 0,
    isq_fp: 0,
    lq: 0,
    sq: 0,
    committed: 0,
    issue_slots: 0,
};

/// With the profiler `room` samples short of full, run `f` and return
/// what it recorded (the last `room` buffered samples) and how many
/// samples it dropped.
fn near_full_profiler<R>(room: usize, f: impl FnOnce() -> R) -> (Vec<PipeSample>, u64) {
    profiler::clear();
    for _ in room..profiler::remaining() {
        profiler::record(FILLER);
    }
    assert_eq!(profiler::remaining(), room);
    let before = metrics::snapshot();
    f();
    let dropped = metrics::snapshot()
        .delta(&before)
        .counters
        .iter()
        .find(|(n, _)| n == "obs.profiler.dropped")
        .map_or(0, |(_, v)| *v);
    let mut all = profiler::snapshot();
    let recorded = all.split_off(all.len() - room);
    drop(all);
    profiler::clear();
    (recorded, dropped)
}

#[test]
fn a_capped_profiler_drops_the_same_samples_in_a_cohort() {
    let _guard = lock();
    profiler::set_interval(97);
    let build = || {
        MulticoreSystem::new(
            duo_cfg(30_000, SimPath::Fast),
            &Topology::big_little(1, 1, 3),
            generators(&["gcc", "mcf", "equake"], 5),
        )
    };
    let make = || -> Vec<Box<dyn TopoScheduler>> {
        vec![
            Box::new(TopoStatic),
            SchedKind::RoundRobin(1).build_topo(3, None),
            SchedKind::Tpe.build_topo(3, None),
        ]
    };
    // Member 0 alone overflows the room, so the cohort stops holding
    // samples and the profiler drops the later members' held ones.
    let room = 1_000;
    let mut forks = 0;
    let cohort = near_full_profiler(room, || {
        let before = metrics::snapshot();
        let mut scheds = make();
        let mut members: Vec<&mut dyn TopoScheduler> =
            scheds.iter_mut().map(|s| &mut **s as &mut dyn TopoScheduler).collect();
        build().run_cohort(&mut members, 150_000, 200_000);
        forks = forks_in(&metrics::snapshot().delta(&before));
    });
    let solo = near_full_profiler(room, || {
        for mut s in make() {
            build().run(&mut *s, 150_000, 200_000);
        }
    });
    profiler::set_interval(0);
    assert!(forks > 0, "the members diverge, so held samples are shared with forks");
    assert!(cohort.1 > 0, "the capped run reports drops");
    assert_eq!(cohort.1, solo.1, "dropped-sample count");
    assert!(cohort.0 == solo.0, "recorded samples diverged");
    assert!(cohort.0.iter().any(|s| *s != FILLER), "the runs recorded into the room");
}

#[test]
fn workloads_that_cannot_fork_run_their_members_solo() {
    let _guard = lock();
    let preds = profiling::quick_predictors();
    let build = || {
        let workloads = ["gcc", "swim"]
            .iter()
            .enumerate()
            .map(|(t, name)| {
                Box::new(NoFork(TraceGenerator::for_thread(suite::by_name(name).unwrap(), 4, t)))
                    as Box<dyn Workload>
            })
            .collect();
        MulticoreSystem::new(duo_cfg(40_000, SimPath::Fast), &Topology::duo(), workloads)
    };
    assert!(!build().can_fork());
    let params = Params::quick();
    let make = || -> Vec<Box<dyn TopoScheduler>> {
        vec![
            SchedKind::proposed_default(&params).build_topo(2, Some(preds)),
            SchedKind::RoundRobin(1).build_topo(2, Some(preds)),
        ]
    };
    let cohort = observe(|| {
        let mut scheds = make();
        let mut members: Vec<&mut dyn TopoScheduler> =
            scheds.iter_mut().map(|s| &mut **s as &mut dyn TopoScheduler).collect();
        MulticoreSystem::run_cohort_from(build, &mut members, 200_000, 400_000)
    });
    let solo = observe(|| {
        make().into_iter().map(|mut s| build().run(&mut *s, 200_000, 400_000)).collect()
    });
    assert_same(&cohort, &solo, "no fork");
    assert_eq!(cohort.forks, 0);
}

const BENCHES: [&str; 8] =
    ["gcc", "equake", "mcf", "swim", "gsm", "intstress", "fpstress", "branchstress"];

/// A random valid core: Table I shapes with fuzzed structure sizes.
fn random_core(s: &mut Source) -> CoreConfig {
    let mut c = if s.bool() { CoreConfig::fp_core() } else { CoreConfig::int_core() };
    if s.bool() {
        c.name = "FUZZ";
        c.dispatch_width = s.u8_in(1, 5);
        c.commit_width = s.u8_in(1, 7);
        c.rob_size = s.u64_in(c.dispatch_width as u64, 48) as u16;
        c.int_isq = s.u64_in(1, 24) as u16;
        c.fp_isq = s.u64_in(1, 16) as u16;
        c.lsq_loads = s.u64_in(1, 12) as u16;
        c.lsq_stores = s.u64_in(1, 12) as u16;
        let i = s.usize_in(0, c.fu.len());
        c.fu[i] = FuSpec::new(s.u8_in(1, 3), s.u8_in(1, 16), s.bool());
        c.validate();
    }
    c
}

#[derive(Debug)]
struct Shape {
    cores: Vec<CoreConfig>,
    benches: Vec<&'static str>,
    seed: u64,
    epoch_cycles: u64,
    target: u64,
    max_cycles: u64,
}

fn gen_shape(s: &mut Source) -> Shape {
    let n_cores = s.usize_in(1, 6);
    let n_threads = s.usize_in(1, 8);
    Shape {
        cores: (0..n_cores).map(|_| random_core(s)).collect(),
        benches: (0..n_threads).map(|_| *s.choice(&BENCHES)).collect(),
        seed: s.u64_in(1, 1 << 32),
        epoch_cycles: s.u64_in(5_000, 20_000),
        target: s.u64_in(20_000, 80_000),
        max_cycles: s.u64_in(30_000, 90_000),
    }
}

#[test]
fn fuzzed_topologies_with_the_full_zoo_match_solo_runs() {
    let _guard = lock();
    let preds = profiling::quick_predictors();
    let params = Params::quick();
    let zoo = [
        SchedKind::proposed_default(&params),
        SchedKind::HpeMatrix,
        SchedKind::RoundRobin(1),
        SchedKind::Static,
        SchedKind::Tpe,
        SchedKind::CampStatic,
        SchedKind::CampDynamic,
    ];
    Checker::new(0xC0_4087)
        .cases(if cfg!(debug_assertions) { 10 } else { 24 })
        .run("cohort_vs_solo", gen_shape, |sh| {
            let topo = Topology::new(sh.cores.clone(), sh.benches.len());
            let build = || {
                MulticoreSystem::new(
                    duo_cfg(sh.epoch_cycles, SimPath::Fast),
                    &topo,
                    generators(&sh.benches, sh.seed),
                )
            };
            let make = || -> Vec<Box<dyn TopoScheduler>> {
                zoo.iter().map(|k| k.build_topo(sh.benches.len(), Some(preds))).collect()
            };
            let mut solo_sys = None;
            let solo = observe(|| {
                make()
                    .into_iter()
                    .map(|mut s| {
                        let mut sys = build();
                        let r = sys.run(&mut *s, sh.target, sh.max_cycles);
                        solo_sys.get_or_insert(sys);
                        r
                    })
                    .collect()
            });
            let mut sys = build();
            let cohort = observe(|| {
                let mut scheds = make();
                let mut members: Vec<&mut dyn TopoScheduler> =
                    scheds.iter_mut().map(|s| &mut **s as &mut dyn TopoScheduler).collect();
                sys.run_cohort(&mut members, sh.target, sh.max_cycles)
            });
            for (i, (c, s)) in cohort.results.iter().zip(&solo.results).enumerate() {
                prop_assert!(c == s, "member {i} diverged\ncohort: {c}\nsolo:   {s}");
            }
            prop_assert!(cohort.sim == solo.sim, "sim.* delta diverged");
            let first = solo_sys.expect("seven members");
            prop_assert!(
                sys.core_digests() == first.core_digests(),
                "cohort must end on member 0's machine"
            );
            Ok(())
        });
}
