//! Traced per-layer probe for `perfbench/run.py`.
//!
//! Every subcommand runs in a fresh process, so the trace arena and the
//! obs registry start empty. It times calls into the public functions of
//! the ampsched crates with spans of its own (nothing inside the program
//! is instrumented) and prints one JSON object as its last stdout line:
//! `{"metrics": {...}, "spans": [...], "failures": [...]}`.
//!
//! ```text
//! perfbench-probe micro                       # trace, mem, cpu, power, system, core layers
//! perfbench-probe fig7 --seed S --json OUT    # replica of `ampsched --quick --seed S --json OUT fig7`
//! perfbench-probe scaling [--insts N] --seed S --json OUT
//!                                             # replica of `ampsched --quick [--insts N] --seed S --json OUT scaling`
//! ```
//!
//! The replicas write the same report bytes the CLI writes; the caller
//! compares them. Layer microbenchmarks re-implement the stream set of
//! `crates/cpu/examples/tick_bench.rs` and the pair loop of
//! `crates/experiments/examples/kernel_bench.rs` here, so the benchmark
//! does not depend on those dev examples.

use ampsched_core::{
    Decision, DecisionExplain, Scheduler, TopoDecision, TopoScheduler, TopoSnapshot, WindowSnapshot,
};
use ampsched_cpu::{Core, CoreConfig};
use ampsched_experiments::common::{sample_pairs, Params, SchedKind};
use ampsched_experiments::{fig78, profiling, report, scaling, telemetry};
use ampsched_isa::{ArchReg, MicroOp, OpClass};
use ampsched_mem::{AccessKind, MemConfig, MemSystem};
use ampsched_power::EnergyModel;
use ampsched_system::{DualCoreSystem, MulticoreSystem, SingleCoreRunner, SystemConfig, Topology};
use ampsched_trace::arena::{self, decode_stream, encode_stream};
use ampsched_trace::{suite, ReplaySource, Workload};
use ampsched_util::Json;
use std::hint::black_box;
use std::time::Instant;

/// One timed call: name, start and end (ns since probe start), and the
/// index of the enclosing span.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans, metrics and failed output checks, kept in memory and printed
/// once at exit.
struct Probe {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    metrics: Vec<(String, f64)>,
    failures: Vec<String>,
}

impl Probe {
    fn new() -> Self {
        Probe {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            metrics: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns its result and the span's seconds.
    fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Probe) -> R) -> (R, f64) {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    fn finish(self) {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
            ])
        });
        let doc = Json::obj([
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .into_iter()
                        .map(|(k, v)| (k, Json::from(v)))
                        .collect(),
                ),
            ),
            ("spans", Json::arr(spans)),
            (
                "failures",
                Json::arr(self.failures.into_iter().map(Json::from)),
            ),
        ]);
        println!("{}", doc.render());
    }
}

/// User+system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in 100 Hz clock ticks).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    // Fields 14/15 of the full line are 11/12 after `pid (comm)`.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

// ---------------------------------------------------------------- micro

/// A fixed op vector replayed cyclically (the synthetic streams).
struct VecWorkload {
    ops: Vec<MicroOp>,
    i: usize,
}

impl Workload for VecWorkload {
    fn name(&self) -> &str {
        "vec"
    }
    fn next_op(&mut self) -> MicroOp {
        let op = self.ops[self.i % self.ops.len()];
        self.i += 1;
        op
    }
    fn current_phase(&self) -> usize {
        0
    }
}

/// The synthetic kernel streams: dispatch-bound int ALU ops, long FP
/// dependency chains, and a load/store mix on shared words.
fn synthetic_stream(kind: &str) -> Vec<MicroOp> {
    match kind {
        "int" => (0..32)
            .map(|i| {
                let mut op = MicroOp::arith(
                    OpClass::IntAlu,
                    None,
                    None,
                    Some(ArchReg::Int(1 + (i % 16) as u8)),
                );
                op.pc = 4 * i as u64;
                op
            })
            .collect(),
        "fpchain" => (0..8)
            .flat_map(|c| {
                (0..4).map(move |i| {
                    let r = ArchReg::Fp(1 + c as u8);
                    let mut op = MicroOp::arith(OpClass::FpMul, Some(r), None, Some(r));
                    op.pc = 4 * (c * 4 + i) as u64;
                    op
                })
            })
            .collect(),
        "mem" => (0..16)
            .flat_map(|i| {
                let a = 0x1000 + 8 * (i % 4) as u64;
                [
                    MicroOp::store(a, 8, None, ArchReg::Int(1 + (i % 8) as u8)),
                    MicroOp::load(a, 8, None, ArchReg::Int(9 + (i % 8) as u8)),
                ]
            })
            .collect(),
        other => unreachable!("unknown synthetic stream {other}"),
    }
}

/// A stream of the tick set: synthetic, or a suite benchmark replayed
/// through the arena (decode included, as a simulation pays it).
fn tick_workload(kind: &str) -> Box<dyn Workload> {
    match suite::by_name(kind) {
        Some(spec) => Box::new(ReplaySource::for_thread(spec, 42, 0)),
        None => Box::new(VecWorkload {
            ops: synthetic_stream(kind),
            i: 0,
        }),
    }
}

/// Host ns per simulated cycle of one kernel on one stream, and the
/// committed-instruction count (fast and reference must agree).
fn tick_run(fast: bool, kind: &str, cycles: u64) -> (f64, u64, Core) {
    let mut core = Core::new(CoreConfig::int_core(), 0);
    let mut mem = MemSystem::new(MemConfig::default(), 1);
    let mut w = tick_workload(kind);
    let t = Instant::now();
    for now in 0..cycles {
        if fast {
            core.tick(now, &mut *w, &mut mem);
        } else {
            core.reference_tick(now, &mut *w, &mut mem);
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / cycles as f64;
    let committed = core.stats.committed.total();
    (ns, committed, core)
}

/// Host ns per `MemSystem::access` over `footprint` bytes, visiting the
/// lines in a fixed odd-stride order so next-line prefetch cannot hide
/// the misses of the large footprints. One untimed pass warms the caches.
fn mem_access_ns(footprint: u64, accesses: u64) -> (f64, MemSystem) {
    let mut m = MemSystem::new(MemConfig::default(), 1);
    let lines = footprint / 64;
    let addr = |i: u64| 0x10_0000 + ((i * 40_503) % lines) * 64;
    let mut now = 0u64;
    for i in 0..lines {
        now += u64::from(m.access(0, AccessKind::Load, addr(i), now));
    }
    m.reset_stats();
    let t = Instant::now();
    for i in 0..accesses {
        now += u64::from(m.access(0, AccessKind::Load, black_box(addr(i)), now));
    }
    (t.elapsed().as_nanos() as f64 / accesses as f64, m)
}

/// Drain `n` ops, returning a checksum of the stream.
fn drain(w: &mut dyn Workload, n: usize) -> u64 {
    let mut sum = 0u64;
    for _ in 0..n {
        let op = w.next_op();
        sum = sum.wrapping_mul(31).wrapping_add(op.pc ^ op.addr);
    }
    sum
}

/// A `Scheduler` that delegates to `inner` and times its decision calls.
struct TimedPair {
    inner: Box<dyn Scheduler>,
    ns: u64,
    calls: u64,
}

impl Scheduler for TimedPair {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn window_insts(&self) -> Option<u64> {
        self.inner.window_insts()
    }
    fn on_window(&mut self, snap: &WindowSnapshot) -> Decision {
        let t = Instant::now();
        let d = self.inner.on_window(snap);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }
    fn on_epoch(&mut self, snap: &WindowSnapshot) -> Decision {
        let t = Instant::now();
        let d = self.inner.on_epoch(snap);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }
    fn explain_last(&self) -> Option<DecisionExplain> {
        self.inner.explain_last()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// A `TopoScheduler` that delegates to `inner` and times its decision calls.
struct TimedTopo {
    inner: Box<dyn TopoScheduler>,
    ns: u64,
    calls: u64,
}

impl TopoScheduler for TimedTopo {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn window_insts(&self) -> Option<u64> {
        self.inner.window_insts()
    }
    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        let t = Instant::now();
        let d = self.inner.on_window(snap);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }
    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        let t = Instant::now();
        let d = self.inner.on_epoch(snap);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }
    fn explain_last(&self) -> Option<DecisionExplain> {
        self.inner.explain_last()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// `n` threads' workloads for a multicore run, drawn in suite order.
fn suite_workloads(n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    let pool = suite::all();
    (0..n)
        .map(|t| {
            let spec = pool[(t * 5) % pool.len()].clone();
            Box::new(ReplaySource::for_thread(spec, seed, t)) as Box<dyn Workload>
        })
        .collect()
}

const TRACE_OPS: usize = 1_000_000;
const DECODE_PASSES: usize = 4;
const MEM_ACCESSES: u64 = 1_000_000;
const TICK_CYCLES: u64 = 400_000;
const TICK_STREAMS: [&str; 6] = ["int", "fpchain", "mem", "gcc", "equake", "mcf"];
const ENERGY_CALLS: u64 = 1_000_000;
const ZOO_INSTS: u64 = 200_000;
const PAIR_EPOCH_CYCLES: u64 = 50_000;

fn micro(p: &mut Probe) {
    // trace: materialize on an empty arena, replay, then raw decode.
    let spec = suite::by_name("gcc").expect("gcc is in the suite");
    let (mat_sum, mat_s) = p.span("trace.materialize", |_| {
        drain(&mut ReplaySource::for_thread(spec.clone(), 7, 0), TRACE_OPS)
    });
    let (rep_sum, rep_s) = p.span("trace.replay", |_| {
        drain(&mut ReplaySource::for_thread(spec.clone(), 7, 0), TRACE_OPS)
    });
    p.check(
        mat_sum == rep_sum,
        "trace: replay differs from first materialization",
    );
    p.metric(
        "trace.materialize_ns_per_op",
        mat_s * 1e9 / TRACE_OPS as f64,
    );
    p.metric("trace.replay_ns_per_op", rep_s * 1e9 / TRACE_OPS as f64);
    let mut src = ReplaySource::for_thread(spec, 7, 0);
    let ops: Vec<MicroOp> = (0..TRACE_OPS).map(|_| src.next_op()).collect();
    let chunks: Vec<(Vec<u8>, usize)> = ops
        .chunks(8192)
        .map(|c| {
            let mut buf = Vec::new();
            encode_stream(c, &mut buf);
            (buf, c.len())
        })
        .collect();
    let mut out = Vec::with_capacity(TRACE_OPS);
    let (decoded_ok, dec_s) = p.span("trace.decode", |_| {
        let mut ok = true;
        for _ in 0..DECODE_PASSES {
            out.clear();
            for (buf, n) in &chunks {
                ok &= decode_stream(black_box(buf), *n, &mut out).is_some();
            }
        }
        ok
    });
    p.check(
        decoded_ok && out == ops,
        "trace: decode_stream does not round-trip",
    );
    p.metric(
        "trace.decode_ns_per_op",
        dec_s * 1e9 / (TRACE_OPS * DECODE_PASSES) as f64,
    );

    // mem: footprints that fit the 4 KB DL1, the 128 KB L2, and neither.
    for (level, footprint) in [("l1", 2 << 10), ("l2", 64 << 10), ("dram", 4 << 20)] {
        let ((ns, m), _) = p.span(&format!("mem.access.{level}"), |_| {
            mem_access_ns(footprint, MEM_ACCESSES)
        });
        let (l1, l2) = (m.l1d_stats(0), m.l2_stats());
        let l1_hit = l1.hits as f64 / l1.accesses().max(1) as f64;
        let l2_hit = l2.hits as f64 / l2.accesses().max(1) as f64;
        let placed = match level {
            "l1" => l1_hit > 0.99,
            "l2" => l1_hit < 0.5 && l2_hit > 0.99,
            _ => l1_hit < 0.5 && l2_hit < 0.5,
        };
        p.check(
            placed,
            format!("mem: {level} footprint is not served by {level}"),
        );
        p.metric(format!("mem.access_ns.{level}"), ns);
    }

    // cpu: both kernels on every stream; committed counts must agree.
    let mut last_core = None;
    for kind in TICK_STREAMS {
        let ((fast_ns, fast_c, core), _) = p.span(&format!("cpu.tick.fast.{kind}"), |_| {
            tick_run(true, kind, TICK_CYCLES)
        });
        let ((ref_ns, ref_c, _), _) = p.span(&format!("cpu.tick.reference.{kind}"), |_| {
            tick_run(false, kind, TICK_CYCLES)
        });
        p.check(
            fast_c == ref_c,
            format!(
                "cpu: kernels diverged on {kind}: fast {fast_c} vs reference {ref_c} committed"
            ),
        );
        p.metric(format!("cpu.tick_ns.fast.{kind}"), fast_ns);
        p.metric(format!("cpu.tick_ns.reference.{kind}"), ref_ns);
        last_core = Some(core);
    }

    // power: energy settlement over the last stream's activity counters.
    let activity = last_core.expect("at least one tick stream").activity;
    let model = EnergyModel::new(&CoreConfig::int_core(), &MemConfig::default());
    let (joules, energy_s) = p.span("power.energy", |_| {
        let mut sum = 0.0;
        for _ in 0..ENERGY_CALLS {
            sum += model.energy(black_box(&activity));
        }
        sum
    });
    p.check(
        joules.is_finite() && joules > 0.0,
        "power: energy is not positive",
    );
    p.metric("power.energy_ns", energy_s * 1e9 / ENERGY_CALLS as f64);

    // system: single-core runner and the N-core machine, ns per cycle.
    let params = Params::quick();
    let spec = suite::by_name("equake").expect("equake is in the suite");
    let (single, single_s) = p.span("system.single", |_| {
        let mut w = ReplaySource::for_thread(spec, 3, 0);
        SingleCoreRunner::new(CoreConfig::int_core(), params.system.mem).run(
            &mut w,
            1_000_000,
            params.profile_interval_cycles,
            params.max_cycles,
        )
    });
    p.metric(
        "system.single_ns_per_cycle",
        single_s * 1e9 / single.totals.cycles.max(1) as f64,
    );
    let sweep_cfg = scaling::sweep_system(&params);
    let topo = Topology::big_little(4, 4, 8);
    let (multi, multi_s) = p.span("system.multicore", |_| {
        let mut sys = MulticoreSystem::new(sweep_cfg, &topo, suite_workloads(8, 5));
        let mut sched = SchedKind::Static.build_topo(8, None);
        sys.run(&mut *sched, 400_000, params.max_cycles)
    });
    p.metric(
        "system.multicore_ns_per_cycle",
        multi_s * 1e9 / multi.cycles.max(1) as f64,
    );

    // core: the six-policy zoo behind a timing wrapper on a 2+2x4
    // machine, with the scaling sweep's epoch densified for this budget.
    let zoo_params = Params {
        run_insts: ZOO_INSTS,
        ..Params::quick()
    };
    let zoo_cfg = scaling::sweep_system(&zoo_params);
    let topo = Topology::big_little(2, 2, 4);
    let mut decisions = 0;
    for (name, kind) in scaling::default_schedulers(&params) {
        let mut timed = TimedTopo {
            inner: kind.build_topo(4, None),
            ns: 0,
            calls: 0,
        };
        p.span(&format!("core.topo_sched.{name}"), |_| {
            let mut sys = MulticoreSystem::new(zoo_cfg, &topo, suite_workloads(4, 11));
            sys.run(&mut timed, ZOO_INSTS, params.max_cycles)
        });
        p.metric(
            format!("core.topo_sched_ns_per_call.{name}"),
            timed.ns as f64 / timed.calls.max(1) as f64,
        );
        decisions += timed.calls;
    }
    p.metric("core.topo_decisions", decisions as f64);
}

// ------------------------------------------------------------- replicas

/// Parse `[--insts N] --seed S --json OUT` and return quick-scale params
/// (with the CLI's `--insts` override) and the output path.
fn replica_args(args: &[String]) -> (Params, String) {
    let mut params = Params::quick();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => params.seed = args[i + 1].parse().expect("--seed takes an integer"),
            "--insts" => params.run_insts = args[i + 1].parse().expect("--insts takes an integer"),
            "--json" => out = Some(args[i + 1].clone()),
            other => panic!("unknown argument {other}"),
        }
        i += 2;
    }
    (params, out.expect("--json OUT is required"))
}

fn fig7(p: &mut Probe, params: &Params, out: &str) {
    let cpu0 = process_cpu_s();
    let (bytes, total_s) = p.span("replica.fig7", |p| {
        let c = process_cpu_s();
        let (profiles, phase_s) = p.span("profiling.phase", |_| {
            profiling::profile_representatives(params)
        });
        p.metric("profiling.phase_s", phase_s);
        p.metric("profiling.thread_s", process_cpu_s() - c);
        let (preds, fit_s) = p.span("core.predictor_fit", |_| {
            profiling::build_predictors(&profiles)
        });
        p.metric("core.predictor_fit_ms", fit_s * 1e3);
        let c = process_cpu_s();
        let (sweep, sweep_s) = p.span("fig78.sweep", |_| fig78::run_sweep(params, &preds));
        p.metric("fig78.sweep_s", sweep_s);
        p.metric("fig78.thread_s", process_cpu_s() - c);
        let (bytes, render_s) = p.span("report.render", |_| {
            let sections = vec![("sweep".to_string(), fig78::to_json(&sweep))];
            report::assemble("fig7", params, sections, telemetry::summary_json()).render_pretty()
        });
        p.metric("report.render_ms", render_s * 1e3);
        p.metric("report.bytes", bytes.len() as f64);
        (bytes, preds)
    });
    let (bytes, preds) = bytes;
    p.metric("replica.total_s", total_s);
    p.metric("replica.cpu_s", process_cpu_s() - cpu0);
    p.metric("trace.arena_mb", arena::stats().1 as f64 / (1 << 20) as f64);
    std::fs::write(out, &bytes).expect("write replica report");

    // After the report is rendered (these runs add to the sim.*
    // counters): the pair loop with each fig7 scheduler behind a timing
    // wrapper, on the sweep's first two pairs, with a denser epoch so the
    // epoch-cadence schedulers decide several times per run.
    let pairs = sample_pairs(2, params.seed);
    let system = SystemConfig {
        epoch_cycles: PAIR_EPOCH_CYCLES,
        ..params.system
    };
    let kinds = [
        ("proposed", SchedKind::proposed_default(params)),
        ("hpe", SchedKind::HpeMatrix),
        ("rr", SchedKind::RoundRobin(1)),
    ];
    let (mut duo_ns, mut duo_cycles, mut decisions) = (0.0, 0u64, 0u64);
    for (name, kind) in kinds {
        let mut timed = TimedPair {
            inner: kind.build(&preds),
            ns: 0,
            calls: 0,
        };
        for pair in &pairs {
            let (r, s) = p.span(&format!("system.duo.{name}"), |_| {
                let mut sys = DualCoreSystem::new(system, pair.workloads(params));
                sys.run(&mut timed, params.run_insts, params.max_cycles)
            });
            duo_ns += s * 1e9;
            duo_cycles += r.cycles;
        }
        p.metric(
            format!("core.sched_ns_per_call.{name}"),
            timed.ns as f64 / timed.calls.max(1) as f64,
        );
        decisions += timed.calls;
    }
    p.metric("system.duo_ns_per_cycle", duo_ns / duo_cycles.max(1) as f64);
    p.metric("core.decisions", decisions as f64);
}

fn scaling_replica(p: &mut Probe, params: &Params, out: &str) {
    let cpu0 = process_cpu_s();
    let schedulers = scaling::default_schedulers(params);
    let (bytes, total_s) = p.span("replica.scaling", |p| {
        let mut shapes = Vec::new();
        let mut epoch_cycles = 0;
        for shape in scaling::default_shapes() {
            let label = format!("{}-{}-{}", shape.fp, shape.int, shape.threads);
            let (r, s) = p.span(&format!("scaling.shape.{label}"), |_| {
                scaling::run_grid(params, &[shape], &schedulers)
            });
            p.metric(format!("scaling.shape_s.{label}"), s);
            epoch_cycles = r.epoch_cycles;
            shapes.extend(r.shapes);
        }
        let result = scaling::ScalingResult {
            epoch_cycles,
            shapes,
        };
        let (bytes, render_s) = p.span("report.render", |_| {
            let sections = vec![("scaling".to_string(), scaling::to_json(&result))];
            report::assemble("scaling", params, sections, telemetry::summary_json()).render_pretty()
        });
        p.metric("report.render_ms", render_s * 1e3);
        p.metric("report.bytes", bytes.len() as f64);
        bytes
    });
    p.metric("replica.total_s", total_s);
    p.metric("replica.cpu_s", process_cpu_s() - cpu0);
    std::fs::write(out, &bytes).expect("write replica report");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut p = Probe::new();
    match args.first().map(String::as_str) {
        Some("micro") => micro(&mut p),
        Some("fig7") => {
            let (params, out) = replica_args(&args[1..]);
            fig7(&mut p, &params, &out);
        }
        Some("scaling") => {
            let (params, out) = replica_args(&args[1..]);
            scaling_replica(&mut p, &params, &out);
        }
        _ => {
            eprintln!(
                "usage: perfbench-probe micro | fig7 --seed S --json OUT | scaling [--insts N] --seed S --json OUT"
            );
            std::process::exit(2);
        }
    }
    p.finish();
}
