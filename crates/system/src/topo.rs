//! The generalized N-core × M-thread asymmetric multicore.
//!
//! [`Topology`] describes an arbitrary machine shape — any mix of
//! [`CoreConfig`]s sharing one L2, co-running any number of threads —
//! and [`MulticoreSystem`] is the scheduling loop over it: per-core
//! quiescence skip-ahead, committed-instruction monitoring windows, OS
//! epochs, and per-assignment migration costs (each reassignment
//! flushes + stalls exactly the cores whose occupant changed).
//!
//! The loop runs a *cohort*: several schedulers from one starting state
//! share one simulated machine until a decision changes a member's
//! placement, which forks the machine for that member
//! ([`MulticoreSystem::run_cohort`]). A solo [`MulticoreSystem::run`] is
//! the one-member cohort.
//!
//! The paper's fixed shapes are thin constructors over this machine:
//! [`DualCoreSystem`](crate::DualCoreSystem) is `Topology::duo()` driven
//! through a [`PairAdapter`](ampsched_core::PairAdapter), and its
//! byte-for-byte behavior is locked
//! by the compatibility and differential suites. The loop below is a
//! line-by-line generalization of the frozen duo loop — arithmetic
//! order, counter cadence, and profiler cadence are deliberately
//! identical so the N=2 specialization stays bit-exact.

use ampsched_core::{
    AssignmentMap, CoreTraits, DecisionExplain, TopoDecision, TopoScheduler, TopoSnapshot,
    TopoThreadObs, ThreadWindow,
};
use ampsched_cpu::{ActivityCounters, Core, CoreConfig, CoreFlavor};
use ampsched_isa::{MixCounts, OpClass};
use ampsched_mem::MemSystem;
use ampsched_metrics::ThreadMetrics;
use ampsched_obs::metrics::LocalHist;
use ampsched_obs::profiler::PipeSample;
use ampsched_power::{EnergyAccount, EnergyModel};
use ampsched_trace::Workload;
use std::rc::Rc;

use crate::duo::{DecisionKind, SimPath, SystemConfig};

/// An arbitrary machine shape: heterogeneous cores over a shared L2,
/// co-running `threads` software threads.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Per-core microarchitectural configurations, by core index.
    pub cores: Vec<CoreConfig>,
    /// Number of software threads (may exceed the core count; the
    /// overflow is parked and scheduled in by epoch decisions).
    pub threads: usize,
}

impl Topology {
    /// Build and validate an explicit shape.
    pub fn new(cores: Vec<CoreConfig>, threads: usize) -> Self {
        let topo = Topology { cores, threads };
        topo.validate();
        topo
    }

    /// The paper's dual-core AMP: FP core 0, INT core 1, two threads.
    pub fn duo() -> Self {
        Topology::new(vec![CoreConfig::fp_core(), CoreConfig::int_core()], 2)
    }

    /// One core, one thread (the Figure 1 substrate).
    pub fn single(core: CoreConfig) -> Self {
        Topology::new(vec![core], 1)
    }

    /// big.LITTLE-style shape: `fp` FP-flavored cores then `int`
    /// INT-flavored cores, co-running `threads` threads.
    pub fn big_little(fp: usize, int: usize, threads: usize) -> Self {
        let mut cores = Vec::with_capacity(fp + int);
        cores.extend(std::iter::repeat_n(CoreConfig::fp_core(), fp));
        cores.extend(std::iter::repeat_n(CoreConfig::int_core(), int));
        Topology::new(cores, threads)
    }

    /// Sanity-check the shape (panics on a nonsensical topology, matching
    /// [`CoreConfig::validate`]'s contract).
    pub fn validate(&self) {
        assert!(!self.cores.is_empty(), "topology needs at least one core");
        assert!(self.cores.len() <= 64, "at most 64 cores supported");
        assert!(self.threads >= 1, "topology needs at least one thread");
        assert!(self.threads <= 1024, "at most 1024 threads supported");
        for c in &self.cores {
            c.validate();
        }
    }

    /// Short label for reports, e.g. `2fp+2int-4t`.
    pub fn label(&self) -> String {
        let fp = self.cores.iter().filter(|c| c.flavor == CoreFlavor::Fp).count();
        let int = self.cores.len() - fp;
        format!("{fp}fp+{int}int-{}t", self.threads)
    }

    /// Capability descriptors the scheduler zoo ranks against.
    pub fn traits(&self) -> Vec<CoreTraits> {
        self.cores.iter().enumerate().map(|(i, c)| derive_traits(i, c)).collect()
    }
}

/// Derive the scheduler-visible capability descriptor of one core from
/// its microarchitectural configuration.
pub fn derive_traits(index: usize, cfg: &CoreConfig) -> CoreTraits {
    CoreTraits {
        index,
        fp_flavored: cfg.flavor == CoreFlavor::Fp,
        frequency_ghz: cfg.frequency_ghz,
        int_throughput: cfg.fu_for(OpClass::IntAlu).peak_throughput()
            + cfg.fu_for(OpClass::IntMul).peak_throughput(),
        fp_throughput: cfg.fu_for(OpClass::FpAlu).peak_throughput()
            + cfg.fu_for(OpClass::FpMul).peak_throughput(),
        dispatch_width: cfg.dispatch_width,
    }
}

/// Observed per-thread counters behind one generalized decision point
/// (the N×M form of [`DecisionThread`](crate::DecisionThread)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TopoDecisionThread {
    /// Percentage of committed instructions that were INT ops.
    pub int_pct: f64,
    /// Percentage of committed instructions that were FP ops.
    pub fp_pct: f64,
    /// Instructions the thread committed in the period.
    pub instructions: u64,
    /// Observed IPC over the period.
    pub ipc: f64,
    /// Observed IPC/Watt over the period.
    pub ipc_per_watt: f64,
    /// Core the thread occupied when the decision fired (`None` =
    /// parked) — the decision audit trail's assignment dimension.
    pub core: Option<usize>,
}

/// One generalized decision point with its full audit trail, including
/// the assignment dimension: where every thread sat after the decision
/// and which threads migrated.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoDecisionRecord {
    /// Cycle at which the decision point fired.
    pub cycle: u64,
    /// Window or epoch boundary.
    pub kind: DecisionKind,
    /// Whether the scheduler changed the assignment.
    pub changed: bool,
    /// Threads whose core changed (including park↔run), ascending.
    pub migrated: Vec<usize>,
    /// Thread→core table after the decision (`None` = parked).
    pub assignment: Vec<Option<usize>>,
    /// Observed per-thread counters over the decision period.
    pub threads: Vec<TopoDecisionThread>,
    /// Predictor state behind the decision.
    pub explain: Option<DecisionExplain>,
    /// Cycles charged per migrated core (0 when nothing moved).
    pub swap_cost_cycles: u64,
    /// Post-hoc: mean per-thread IPC/Watt ratio of the following period
    /// over this one (`None` where undefined).
    pub realized_speedup: Option<f64>,
    /// Post-hoc: predicted minus realized speedup for reassignments
    /// whose scheme published a prediction.
    pub mispredict: Option<f64>,
    /// Post-hoc: the oracle's post-decision thread→core table at the
    /// same epoch decision point (`None` outside regret attribution and
    /// on window records; see [`attribute_regret`]).
    pub oracle_action: Option<Vec<Option<usize>>>,
    /// Post-hoc: the oracle's epoch IPC/Watt value minus this run's —
    /// how much the scheduler left on the table at this decision
    /// (`None` where unattributed; never NaN).
    pub regret: Option<f64>,
}

/// Outcome of one generalized multiprogrammed run.
#[derive(Debug, Clone)]
pub struct TopoRunResult {
    /// Scheduler name the run used.
    pub scheduler: String,
    /// Total cycles simulated by this call.
    pub cycles: u64,
    /// Per-thread metrics, by thread id.
    pub threads: Vec<ThreadMetrics>,
    /// Reassignment events performed so far (cumulative over the
    /// system's lifetime, like [`RunResult::swaps`](crate::RunResult)).
    pub swaps: u64,
    /// Individual thread migrations so far (one reassignment can move
    /// several threads).
    pub migrations: u64,
    /// Window decision points evaluated in this call.
    pub window_decisions: u64,
    /// Epoch decision points evaluated in this call.
    pub epoch_decisions: u64,
    /// Every decision point in order.
    pub decisions: Vec<TopoDecisionRecord>,
}

impl TopoRunResult {
    /// Per-thread IPC/Watt values, by thread id.
    pub fn ipc_per_watt(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.ipc_per_watt()).collect()
    }

    /// Sum of per-thread IPC values (system throughput).
    pub fn total_ipc(&self) -> f64 {
        self.threads.iter().map(|t| t.ipc()).sum()
    }
}

/// Baseline of one accounting period (window or epoch).
#[derive(Debug, Clone)]
struct PeriodBase {
    cycle: u64,
    /// Per-thread committed instructions at period start.
    insts: Vec<u64>,
    /// Committed instructions summed over all threads at period start.
    total_insts: u64,
    /// Per-thread attributed joules at period start.
    joules: Vec<f64>,
    /// Per-core cumulative committed mixes at period start.
    mix: Vec<MixCounts>,
}

/// The simulated hardware one run drives: cores, memory, thread streams,
/// placement and progress. A cohort run shares one machine among its
/// members and forks it where their decisions diverge.
struct Machine {
    cores: Vec<Core>,
    mem: MemSystem,
    /// Workloads indexed by *thread id*.
    workloads: Vec<Box<dyn Workload>>,
    assignment: AssignmentMap,
    cycle: u64,
    thread_insts: Vec<u64>,
    /// Sum of `thread_insts`, so the window test is O(1).
    total_insts: u64,
}

impl Machine {
    /// An independent copy that simulates identically from here on
    /// (`None` when a workload cannot fork).
    fn fork(&self) -> Option<Machine> {
        let workloads = self
            .workloads
            .iter()
            .map(|w| w.fork())
            .collect::<Option<Vec<_>>>()?;
        Some(Machine {
            cores: self.cores.clone(),
            mem: self.mem.clone(),
            workloads,
            assignment: self.assignment.clone(),
            cycle: self.cycle,
            thread_insts: self.thread_insts.clone(),
            total_insts: self.total_insts,
        })
    }

    /// Swap each workload for its fork, which replays identically and
    /// decodes again only if read: a stopped machine kept while other
    /// machines of its cohort simulate holds no decoded trace buffers.
    fn park(&mut self) {
        for w in &mut self.workloads {
            *w = w.fork().expect("cohort workloads fork");
        }
    }

    fn period_base(&self, ledger: &Ledger) -> PeriodBase {
        PeriodBase {
            cycle: self.cycle,
            insts: self.thread_insts.clone(),
            total_insts: self.total_insts,
            joules: ledger.thread_joules.clone(),
            mix: self.cores.iter().map(|c| c.stats.committed).collect(),
        }
    }

    /// Take one profiler sample per core at `cycle`.
    fn pipe_samples(&self, cycle: u64, log: &mut SampleLog) {
        for (c, core) in self.cores.iter().enumerate() {
            let s = core.pipe_snapshot(cycle);
            log.push(PipeSample {
                cycle,
                core: c as u8,
                stall: s.stall.code(),
                rob: s.rob,
                isq_int: s.isq_int,
                isq_fp: s.isq_fp,
                lq: s.lq,
                sq: s.sq,
                committed: s.committed,
                issue_slots: s.issue_slots,
            });
        }
    }
}

/// One run's energy and migration accounting over a [`Machine`].
///
/// Cores keep cumulative activity counters; a ledger settles the integer
/// delta since its own last settlement. Those are the integers
/// `ActivityCounters::take` yields when one run owns the cores, so
/// ledgers settling one shared machine at different cadences each get
/// bit-identical joules to a run of their own.
#[derive(Debug, Clone)]
struct Ledger {
    energy: Vec<EnergyAccount>,
    /// Each core's cumulative activity at this ledger's last settlement.
    settled: Vec<ActivityCounters>,
    thread_joules: Vec<f64>,
    /// Joules accounted on cores with no occupant (always 0 with the
    /// current energy model — idle cores are never ticked — but kept so
    /// conservation checks would catch a model change).
    unattributed_joules: f64,
    swaps: u64,
    migrations: u64,
}

impl Ledger {
    /// Convert the cores' activity since the last settlement into
    /// attributed joules. Must be called before reading `thread_joules`
    /// or migrating threads.
    fn settle(&mut self, m: &Machine) {
        for (c, core) in m.cores.iter().enumerate() {
            let act = core.activity.since(&self.settled[c]);
            self.settled[c] = core.activity;
            let j = self.energy[c].account(&act);
            match m.assignment.thread_on(c) {
                Some(t) => self.thread_joules[t] += j,
                None => self.unattributed_joules += j,
            }
        }
    }

    /// Book a reassignment of `m` to `next`. Energy up to the migration
    /// belongs to the old assignment.
    fn charge_migration(&mut self, m: &Machine, next: &AssignmentMap) {
        self.settle(m);
        self.swaps += 1;
        self.migrations += next.moved_threads(&m.assignment).len() as u64;
        ampsched_obs::counter!("sim.swap");
    }
}

/// Pipeline-profiler samples taken on one machine. A one-member run
/// records them as they are taken. A cohort holds them back and records
/// them once per member when the run ends, in member order, as solo runs
/// one after another would.
#[derive(Clone)]
struct SampleLog {
    /// Record each sample as it is taken.
    direct: bool,
    /// Held samples taken before the last fork, shared with that fork.
    frozen: Vec<Rc<Vec<PipeSample>>>,
    /// Held samples taken since the last fork.
    tail: Vec<PipeSample>,
    /// Samples in `frozen` and `tail`.
    held: usize,
    /// The profiler's room at run start: no member can record more
    /// samples than this, so none past it are held.
    room: usize,
    /// Samples past `room`, counted as dropped once per member.
    dropped: u64,
}

impl SampleLog {
    fn new(members: usize) -> SampleLog {
        let direct = members == 1;
        SampleLog {
            direct,
            frozen: Vec::new(),
            tail: Vec::new(),
            held: 0,
            room: if direct { 0 } else { ampsched_obs::profiler::remaining() },
            dropped: 0,
        }
    }

    fn push(&mut self, sample: PipeSample) {
        if self.direct {
            ampsched_obs::profiler::record(sample);
        } else if self.held < self.room {
            self.tail.push(sample);
            self.held += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Move the tail into a shared segment, so that a copy made next
    /// shares the held samples instead of copying them.
    fn freeze(&mut self) {
        if !self.tail.is_empty() {
            self.frozen.push(Rc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// Record the held samples and count the dropped ones, for one member.
    fn record(&self) {
        for &s in self.frozen.iter().flat_map(|seg| seg.iter()).chain(&self.tail) {
            ampsched_obs::profiler::record(s);
        }
        ampsched_obs::profiler::count_dropped(self.dropped);
    }
}

/// Loop state of one machine in a cohort run. A fork copies it with the
/// machine, so the skips and profiler samples of the shared prefix count
/// for every member that lived through it.
#[derive(Clone)]
struct Track {
    /// Per-core quiescence bounds (see the tick loop).
    quiet_until: Vec<u64>,
    /// Per-core scan gates.
    idle_streak: Vec<bool>,
    next_sample: u64,
    next_epoch: u64,
    /// Some thread has committed the run's instruction target.
    reached: bool,
    /// Joint skips, flushed to `sim.skip.joint*` once per member.
    skips: LocalHist,
    /// Profiler samples, recorded once per member.
    samples: SampleLog,
    /// Members simulating on this machine, ascending.
    members: Vec<usize>,
}

impl Track {
    /// The loop state of a fork of this track's machine for member `m`.
    fn fork(&mut self, m: usize) -> Track {
        self.samples.freeze();
        Track {
            members: vec![m],
            ..self.clone()
        }
    }
}

/// One cohort member's own run state.
struct MemberRun {
    window: Option<u64>,
    ledger: Ledger,
    window_base: PeriodBase,
    epoch_base: PeriodBase,
    start_joules: Vec<f64>,
    window_decisions: u64,
    epoch_decisions: u64,
    decisions: Vec<TopoDecisionRecord>,
    /// Set when the member's machine stops: the result and the index of
    /// the member's final [`Track`].
    result: Option<(TopoRunResult, usize)>,
}

/// Where a member simulates while one cycle's decisions are taken: on
/// the lane's own machine, or on a fork made during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Here,
    Fork(usize),
}

/// The machines one cycle's decisions can touch.
struct Lane<'a> {
    machine: &'a mut Machine,
    track: &'a mut Track,
    /// Forks made during the run and not simulated yet.
    forks: &'a mut Vec<(Machine, Track)>,
    /// Forks of `machine` made this cycle and not changed since, with
    /// the assignment they adopted: a member adopting the same one joins
    /// instead of forking again.
    shared: Vec<(AssignmentMap, usize)>,
}

impl Lane<'_> {
    fn at(&mut self, loc: Loc) -> (&mut Machine, &mut Track) {
        match loc {
            Loc::Here => (&mut *self.machine, &mut *self.track),
            Loc::Fork(f) => {
                let (m, t) = &mut self.forks[f];
                (m, t)
            }
        }
    }
}

/// The fixed inputs of one cohort run.
struct RunCtx<'a> {
    cfg: &'a SystemConfig,
    traits: &'a [CoreTraits],
    frequency_hz: f64,
    prof_interval: u64,
    start_cycle: u64,
    start_insts: Vec<u64>,
    target_insts: u64,
    max_cycles: u64,
}

/// The generalized asymmetric multicore and its scheduling loop.
pub struct MulticoreSystem {
    cfg: SystemConfig,
    traits: Vec<CoreTraits>,
    frequency_hz: f64,
    machine: Machine,
    ledger: Ledger,
}

impl MulticoreSystem {
    /// Build a system over `topology`, running `workloads[t]` as thread
    /// `t`. Threads start on the OS baseline assignment (thread `t` on
    /// core `t`, overflow parked).
    pub fn new(cfg: SystemConfig, topology: &Topology, workloads: Vec<Box<dyn Workload>>) -> Self {
        topology.validate();
        assert_eq!(
            workloads.len(),
            topology.threads,
            "one workload per thread required"
        );
        // Unit conversions use core 0's clock (the whole topology runs
        // one clock domain, as in the paper).
        let frequency_hz = topology.cores[0].frequency_ghz * 1e9;
        let n_cores = topology.cores.len();
        MulticoreSystem {
            machine: Machine {
                cores: topology
                    .cores
                    .iter()
                    .enumerate()
                    .map(|(i, c)| Core::new(c.clone(), i))
                    .collect(),
                mem: MemSystem::new(cfg.mem, n_cores),
                workloads,
                assignment: AssignmentMap::baseline(n_cores, topology.threads),
                cycle: 0,
                thread_insts: vec![0; topology.threads],
                total_insts: 0,
            },
            ledger: Ledger {
                energy: topology
                    .cores
                    .iter()
                    .map(|c| EnergyAccount::new(EnergyModel::new(c, &cfg.mem)))
                    .collect(),
                settled: vec![ActivityCounters::new(); n_cores],
                thread_joules: vec![0.0; topology.threads],
                unattributed_joules: 0.0,
                swaps: 0,
                migrations: 0,
            },
            traits: topology.traits(),
            frequency_hz,
            cfg,
        }
    }

    /// Build a system like [`MulticoreSystem::new`] but starting from an
    /// explicit assignment instead of the OS baseline — the replay hook
    /// the offline oracle uses to measure each pinned placement from
    /// cycle 0 without paying a migration to reach it. Thread `t` still
    /// runs `workloads[t]`, so per-thread trace streams are unaffected.
    pub fn with_assignment(
        cfg: SystemConfig,
        topology: &Topology,
        workloads: Vec<Box<dyn Workload>>,
        initial: AssignmentMap,
    ) -> Self {
        assert_eq!(initial.cores(), topology.cores.len(), "assignment core count mismatch");
        assert_eq!(initial.threads(), topology.threads, "assignment thread count mismatch");
        initial.validate().expect("initial assignment must be valid");
        let mut sys = MulticoreSystem::new(cfg, topology, workloads);
        sys.machine.assignment = initial;
        sys
    }

    /// Current thread→core assignment.
    pub fn assignment(&self) -> &AssignmentMap {
        &self.machine.assignment
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.machine.cycle
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.machine.cores.len()
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.machine.workloads.len()
    }

    /// Per-thread committed instructions so far.
    pub fn thread_instructions(&self) -> &[u64] {
        &self.machine.thread_insts
    }

    /// Reassignment events so far.
    pub fn swaps(&self) -> u64 {
        self.ledger.swaps
    }

    /// Individual thread migrations so far.
    pub fn migrations(&self) -> u64 {
        self.ledger.migrations
    }

    /// Per-core microarchitectural state digests (differential-testing
    /// hook, as on the dual-core system).
    pub fn core_digests(&self) -> Vec<u64> {
        self.machine.cores.iter().map(|c| c.state_digest()).collect()
    }

    /// Total joules accounted across all cores (conservation checks:
    /// equals the sum of thread-attributed joules plus
    /// [`unattributed`](Self::unattributed_joules)).
    pub fn accounted_joules(&self) -> f64 {
        self.ledger.energy.iter().map(|e| e.total_joules()).sum()
    }

    /// Joules accounted on occupant-less cores (0 with the current
    /// model).
    pub fn unattributed_joules(&self) -> f64 {
        self.ledger.unattributed_joules
    }

    /// Whether every workload can [fork](Workload::fork), which a
    /// [`run_cohort`](Self::run_cohort) of several members needs.
    pub fn can_fork(&self) -> bool {
        self.machine.workloads.iter().all(|w| w.can_fork())
    }

    /// Run under `scheduler` until one thread commits `target_insts`
    /// instructions or `max_cycles` elapses. Re-entrant: window/epoch
    /// bookkeeping restarts per call while core, memory, and counter
    /// state persist (the lockstep soak drives this in chunks).
    ///
    /// This is the one-member [`run_cohort`](Self::run_cohort).
    pub fn run(
        &mut self,
        scheduler: &mut dyn TopoScheduler,
        target_insts: u64,
        max_cycles: u64,
    ) -> TopoRunResult {
        self.run_cohort(&mut [scheduler], target_insts, max_cycles)
            .pop()
            .expect("one member, one result")
    }

    /// Run every member from this system's current state, as if each ran
    /// alone via [`run`](Self::run) on its own copy of the system, and
    /// return their results in member order — equal bit for bit,
    /// decision records, `sim.*` counters and profiler samples included.
    ///
    /// The members share one simulated machine for as long as their
    /// placements agree. A member whose decision changes the assignment
    /// continues on a fork of the machine (members adopting the same
    /// assignment in the same cycle share one fork), while the others
    /// keep going. Each member keeps its own scheduler, window/epoch
    /// bases, energy ledger and swap counts. Afterwards the system holds
    /// member 0's final machine and ledger.
    ///
    /// # Panics
    /// With more than one member, if a workload cannot fork
    /// ([`can_fork`](Self::can_fork)); [`run_cohort_from`](Self::run_cohort_from)
    /// falls back to solo runs instead.
    pub fn run_cohort(
        &mut self,
        members: &mut [&mut dyn TopoScheduler],
        target_insts: u64,
        max_cycles: u64,
    ) -> Vec<TopoRunResult> {
        if members.is_empty() {
            return Vec::new();
        }
        let _span = ampsched_obs::span!("system.run");
        assert!(
            members.len() == 1 || self.can_fork(),
            "a cohort of several members needs forkable workloads"
        );
        let ctx = RunCtx {
            cfg: &self.cfg,
            traits: &self.traits,
            frequency_hz: self.frequency_hz,
            prof_interval: ampsched_obs::profiler::interval(),
            start_cycle: self.machine.cycle,
            start_insts: self.machine.thread_insts.clone(),
            target_insts,
            max_cycles,
        };
        let mut runs: Vec<MemberRun> = members
            .iter()
            .map(|sched| {
                let mut ledger = self.ledger.clone();
                let base = self.machine.period_base(&ledger);
                ledger.settle(&self.machine);
                MemberRun {
                    window: sched.window_insts(),
                    start_joules: ledger.thread_joules.clone(),
                    ledger,
                    window_base: base.clone(),
                    epoch_base: base,
                    window_decisions: 0,
                    epoch_decisions: 0,
                    decisions: Vec::new(),
                    result: None,
                }
            })
            .collect();
        // Sampled pipeline profiler cadence: a sample at cycle X reflects
        // the state at the *start* of X, re-emitted at each boundary a
        // quiescent skip crosses.
        let n_cores = self.machine.cores.len();
        let mut track = Track {
            quiet_until: vec![0; n_cores],
            idle_streak: vec![false; n_cores],
            next_sample: match ctx.prof_interval {
                0 => u64::MAX,
                n => (self.machine.cycle / n + 1) * n,
            },
            next_epoch: self.machine.cycle + self.cfg.epoch_cycles,
            reached: target_insts == 0,
            skips: LocalHist::default(),
            samples: SampleLog::new(members.len()),
            members: (0..members.len()).collect(),
        };
        let mut forks = Vec::new();
        let mut finished = Vec::new();
        ctx.run_lane(&mut self.machine, &mut track, &mut runs, members, &mut forks);
        ctx.finish_lane(&self.machine, track, &mut runs, members, &mut finished);
        let mut member0_fork = None;
        if !forks.is_empty() {
            self.machine.park();
        }
        while let Some((mut machine, mut track)) = forks.pop() {
            ctx.run_lane(&mut machine, &mut track, &mut runs, members, &mut forks);
            let holds_member0 = track.members.first() == Some(&0);
            ctx.finish_lane(&machine, track, &mut runs, members, &mut finished);
            if holds_member0 {
                machine.park();
                member0_fork = Some(machine);
            }
        }
        if let Some(machine) = member0_fork {
            self.machine = machine;
        }
        self.ledger = runs[0].ledger.clone();
        runs.into_iter()
            .map(|run| {
                let (result, t) = run.result.expect("every member's machine stopped");
                let track = &finished[t];
                track.skips.flush("sim.skip.joint", "sim.skip.joint_cycles");
                track.samples.record();
                ampsched_obs::counter!("sim.run");
                ampsched_obs::hist!("sim.run.cycles", result.cycles);
                result
            })
            .collect()
    }

    /// Run every member from identical fresh systems built by `build`:
    /// one [`run_cohort`](Self::run_cohort) when the workloads fork,
    /// otherwise one solo [`run`](Self::run) per member on its own
    /// `build()` system. The results are the same either way.
    pub fn run_cohort_from(
        mut build: impl FnMut() -> MulticoreSystem,
        members: &mut [&mut dyn TopoScheduler],
        target_insts: u64,
        max_cycles: u64,
    ) -> Vec<TopoRunResult> {
        let mut sys = build();
        if members.len() <= 1 || sys.can_fork() {
            return sys.run_cohort(members, target_insts, max_cycles);
        }
        let mut results = Vec::with_capacity(members.len());
        for (i, sched) in members.iter_mut().enumerate() {
            if i > 0 {
                sys = build();
            }
            results.push(sys.run(&mut **sched, target_insts, max_cycles));
        }
        results
    }
}

impl RunCtx<'_> {
    /// Simulate one machine until the run's stop condition or until all
    /// of its members have forked away. Forks go to `forks`.
    fn run_lane(
        &self,
        machine: &mut Machine,
        track: &mut Track,
        runs: &mut [MemberRun],
        scheds: &mut [&mut dyn TopoScheduler],
        forks: &mut Vec<(Machine, Track)>,
    ) {
        let n_cores = machine.cores.len();
        // Per-core quiescence bounds and scan gates, exactly as on the
        // single-core runner. A core with no occupant is never ticked (its
        // pipeline is empty after the migration flush), so it reports an
        // unbounded quiescence certificate.
        while !track.reached
            && machine.cycle - self.start_cycle < self.max_cycles
            && !track.members.is_empty()
        {
            if self.cfg.sim_path == SimPath::Fast {
                // Joint skip: every occupied core certified quiescent.
                let q = (0..n_cores)
                    .map(|c| {
                        if machine.assignment.thread_on(c).is_some() {
                            track.quiet_until[c]
                        } else {
                            u64::MAX
                        }
                    })
                    .min()
                    .expect("at least one core");
                if q > machine.cycle {
                    let target = q
                        .min(track.next_epoch - 1)
                        .min(self.start_cycle + self.max_cycles - 1);
                    if target > machine.cycle {
                        let n = target - machine.cycle;
                        for c in 0..n_cores {
                            if machine.assignment.thread_on(c).is_some() {
                                machine.cores[c].fast_forward(machine.cycle, n);
                            }
                        }
                        machine.cycle = target;
                        track.skips.record(n);
                        while track.next_sample <= machine.cycle {
                            machine.pipe_samples(track.next_sample, &mut track.samples);
                            track.next_sample += self.prof_interval;
                        }
                    }
                }
            }

            // One cycle on every occupied core.
            for c in 0..n_cores {
                let Some(t) = machine.assignment.thread_on(c) else {
                    continue;
                };
                let cycle = machine.cycle;
                let n = match self.cfg.sim_path {
                    SimPath::Fast => {
                        if track.quiet_until[c] > cycle {
                            machine.cores[c].fast_forward(cycle, 1);
                            0
                        } else {
                            let n = machine.cores[c].tick(
                                cycle,
                                &mut *machine.workloads[t],
                                &mut machine.mem,
                            );
                            if n == 0 {
                                if track.idle_streak[c] {
                                    track.quiet_until[c] =
                                        machine.cores[c].next_event_at_or_after(cycle + 1);
                                } else {
                                    track.idle_streak[c] = true;
                                }
                            } else {
                                track.idle_streak[c] = false;
                            }
                            n
                        }
                    }
                    SimPath::Reference => machine.cores[c].reference_tick(
                        cycle,
                        &mut *machine.workloads[t],
                        &mut machine.mem,
                    ),
                };
                if n > 0 {
                    machine.thread_insts[t] += n as u64;
                    machine.total_insts += n as u64;
                    track.reached |=
                        machine.thread_insts[t] - self.start_insts[t] >= self.target_insts;
                }
            }
            machine.cycle += 1;
            if machine.cycle == track.next_sample {
                machine.pipe_samples(track.next_sample, &mut track.samples);
                track.next_sample += self.prof_interval;
            }
            self.decide_cycle(machine, track, runs, scheds, forks);
        }
    }

    /// The decision points of the cycle just simulated: for each member
    /// in order, its window check (committed instructions summed over
    /// all threads), then its epoch check.
    fn decide_cycle(
        &self,
        machine: &mut Machine,
        track: &mut Track,
        runs: &mut [MemberRun],
        scheds: &mut [&mut dyn TopoScheduler],
        forks: &mut Vec<(Machine, Track)>,
    ) {
        let window_due = |run: &MemberRun, m: &Machine| {
            run.window
                .is_some_and(|w| m.total_insts - run.window_base.total_insts >= w)
        };
        let epoch_due = machine.cycle >= track.next_epoch;
        if !epoch_due && !track.members.iter().any(|&i| window_due(&runs[i], machine)) {
            return;
        }
        if epoch_due {
            track.next_epoch += self.cfg.epoch_cycles;
        }
        let ids = track.members.clone();
        let mut lane = Lane {
            machine,
            track,
            forks,
            shared: Vec::new(),
        };
        for m in ids {
            let mut loc = Loc::Here;
            if window_due(&runs[m], lane.machine) {
                loc = self.decide(&mut lane, loc, DecisionKind::Window, m, &mut runs[m], &mut *scheds[m]);
            }
            if epoch_due {
                self.decide(&mut lane, loc, DecisionKind::Epoch, m, &mut runs[m], &mut *scheds[m]);
            }
        }
    }

    /// One decision point of member `m`, simulating at `loc`. Returns
    /// where the member simulates afterwards.
    fn decide(
        &self,
        lane: &mut Lane,
        loc: Loc,
        kind: DecisionKind,
        m: usize,
        run: &mut MemberRun,
        sched: &mut dyn TopoScheduler,
    ) -> Loc {
        let (machine, _) = lane.at(loc);
        run.ledger.settle(machine);
        let snap = match kind {
            DecisionKind::Window => self.snapshot(machine, &run.ledger, &run.window_base),
            DecisionKind::Epoch => self.snapshot(machine, &run.ledger, &run.epoch_base),
        };
        let decision = match kind {
            DecisionKind::Window => {
                run.window_decisions += 1;
                ampsched_obs::counter!("sim.decision.window");
                sched.on_window(&snap)
            }
            DecisionKind::Epoch => {
                run.epoch_decisions += 1;
                ampsched_obs::counter!("sim.decision.epoch");
                sched.on_epoch(&snap)
            }
        };
        let mut loc = loc;
        let (changed, migrated) = match decision {
            TopoDecision::Reassign(next) if next != snap.assignment => {
                let migrated = next.moved_threads(&snap.assignment);
                loc = self.reassign(lane, loc, m, next, kind, &mut run.ledger);
                // A migration restarts the other period too.
                let base = lane.at(loc).0.period_base(&run.ledger);
                match kind {
                    DecisionKind::Window => run.epoch_base = base,
                    DecisionKind::Epoch => run.window_base = base,
                }
                (true, migrated)
            }
            _ => (false, Vec::new()),
        };
        let (machine, _) = lane.at(loc);
        run.decisions.push(self.decision_record(
            machine,
            kind,
            changed,
            migrated,
            &snap,
            sched.explain_last(),
        ));
        let base = machine.period_base(&run.ledger);
        match kind {
            DecisionKind::Window => run.window_base = base,
            DecisionKind::Epoch => run.epoch_base = base,
        }
        loc
    }

    /// Move member `m`, simulating at `from`, to the assignment `next`.
    /// A sole member changes its machine in place; otherwise the member
    /// joins a fork that adopted `next` this cycle or forks the machine.
    fn reassign(
        &self,
        lane: &mut Lane,
        from: Loc,
        m: usize,
        next: AssignmentMap,
        kind: DecisionKind,
        ledger: &mut Ledger,
    ) -> Loc {
        let (machine, track) = lane.at(from);
        assert_eq!(next.cores(), machine.cores.len(), "reassignment changes the core count");
        assert_eq!(
            next.threads(),
            machine.workloads.len(),
            "reassignment changes the thread count"
        );
        next.validate().expect("scheduler produced an invalid assignment");
        if kind == DecisionKind::Window {
            assert!(
                next.same_parked_set(&machine.assignment),
                "window decisions must not change the parked set (epoch-boundary contract)"
            );
        }
        ledger.charge_migration(machine, &next);
        if track.members.len() == 1 {
            self.migrate(machine, track, next);
            if let Loc::Fork(f) = from {
                lane.shared.retain(|&(_, g)| g != f);
            }
            return from;
        }
        track.members.retain(|&i| i != m);
        if from == Loc::Here {
            if let Some(&(_, f)) = lane.shared.iter().find(|(a, _)| *a == next) {
                lane.forks[f].1.members.push(m);
                return Loc::Fork(f);
            }
        }
        let (machine, track) = lane.at(from);
        let mut fork_machine = machine.fork().expect("cohort workloads fork");
        let mut fork_track = track.fork(m);
        self.migrate(&mut fork_machine, &mut fork_track, next.clone());
        ampsched_obs::counter!("system.cohort.fork");
        lane.forks.push((fork_machine, fork_track));
        let f = lane.forks.len() - 1;
        if from == Loc::Here {
            lane.shared.push((next, f));
        }
        Loc::Fork(f)
    }

    /// Adopt `next` on `machine`, charging the per-assignment migration
    /// cost: every core whose occupant changed is flushed and stalled for
    /// the swap overhead (and optionally loses its L1) and loses its
    /// quiescence certificate. Cores untouched by the reassignment keep
    /// running undisturbed.
    fn migrate(&self, machine: &mut Machine, track: &mut Track, next: AssignmentMap) {
        let mut affected: Vec<usize> = next
            .moved_threads(&machine.assignment)
            .iter()
            .flat_map(|&t| [machine.assignment.core_of(t), next.core_of(t)])
            .flatten()
            .collect();
        affected.sort_unstable();
        affected.dedup();
        for &c in &affected {
            machine.cores[c].flush_pipeline();
            machine.cores[c].stall_until(machine.cycle + self.cfg.swap_overhead_cycles);
            track.quiet_until[c] = 0;
        }
        if self.cfg.flush_l1_on_swap {
            for &c in &affected {
                machine.mem.flush_core_l1s(c);
            }
        }
        machine.assignment = next;
    }

    /// Close the members of a stopped machine: settle their energy and
    /// build their results. The track is kept for the end-of-run flush.
    fn finish_lane(
        &self,
        machine: &Machine,
        track: Track,
        runs: &mut [MemberRun],
        scheds: &[&mut dyn TopoScheduler],
        finished: &mut Vec<Track>,
    ) {
        let cycles = machine.cycle - self.start_cycle;
        for &m in &track.members {
            let run = &mut runs[m];
            run.ledger.settle(machine);
            let mut decisions = std::mem::take(&mut run.decisions);
            attribute_mispredictions(&mut decisions);
            let threads = (0..machine.workloads.len())
                .map(|t| ThreadMetrics {
                    instructions: machine.thread_insts[t] - self.start_insts[t],
                    cycles,
                    joules: run.ledger.thread_joules[t] - run.start_joules[t],
                    frequency_hz: self.frequency_hz,
                })
                .collect();
            let result = TopoRunResult {
                scheduler: scheds[m].name().to_string(),
                cycles,
                threads,
                swaps: run.ledger.swaps,
                migrations: run.ledger.migrations,
                window_decisions: run.window_decisions,
                epoch_decisions: run.epoch_decisions,
                decisions,
            };
            run.result = Some((result, finished.len()));
        }
        finished.push(track);
    }

    /// Build the decision-point snapshot for the period since `base`.
    /// Energy must be settled first. The assignment is constant within a
    /// period (every reassignment re-bases both periods), so each
    /// running thread's mix window reads the core it currently occupies.
    fn snapshot(&self, machine: &Machine, ledger: &Ledger, base: &PeriodBase) -> TopoSnapshot {
        let threads = (0..machine.workloads.len())
            .map(|t| {
                let window = match machine.assignment.core_of(t) {
                    Some(c) => {
                        let mix = machine.cores[c].stats.committed.since(&base.mix[c]);
                        ThreadWindow {
                            int_pct: mix.int_pct(),
                            fp_pct: mix.fp_pct(),
                            mem_pct: mix.mem_pct(),
                            branch_pct: mix.branch_pct(),
                            instructions: machine.thread_insts[t] - base.insts[t],
                            cycles: machine.cycle - base.cycle,
                            joules: ledger.thread_joules[t] - base.joules[t],
                        }
                    }
                    // Parked the whole period: no committed mix, no core
                    // energy; the window spans the period regardless.
                    None => ThreadWindow {
                        cycles: machine.cycle - base.cycle,
                        ..ThreadWindow::default()
                    },
                };
                TopoThreadObs {
                    window,
                    total_instructions: machine.thread_insts[t],
                    core: machine.assignment.core_of(t),
                }
            })
            .collect();
        TopoSnapshot {
            cycle: machine.cycle,
            assignment: machine.assignment.clone(),
            cores: self.traits.to_vec(),
            threads,
        }
    }

    /// Build the audit-trail record for one decision point.
    fn decision_record(
        &self,
        machine: &Machine,
        kind: DecisionKind,
        changed: bool,
        migrated: Vec<usize>,
        snap: &TopoSnapshot,
        explain: Option<DecisionExplain>,
    ) -> TopoDecisionRecord {
        let threads = snap
            .threads
            .iter()
            .map(|obs| {
                let w = &obs.window;
                let ipc = if w.cycles > 0 {
                    w.instructions as f64 / w.cycles as f64
                } else {
                    0.0
                };
                // Same formula as ThreadMetrics::ipc_per_watt —
                // (insts/cycles) / (joules·f/cycles) = insts / (f·joules).
                let denom = self.frequency_hz * w.joules;
                let ipc_per_watt = if w.cycles > 0 && denom > 0.0 {
                    w.instructions as f64 / denom
                } else {
                    0.0
                };
                TopoDecisionThread {
                    int_pct: w.int_pct,
                    fp_pct: w.fp_pct,
                    instructions: w.instructions,
                    ipc,
                    ipc_per_watt,
                    core: obs.core,
                }
            })
            .collect();
        TopoDecisionRecord {
            cycle: machine.cycle,
            kind,
            changed,
            migrated,
            assignment: (0..machine.workloads.len())
                .map(|t| machine.assignment.core_of(t))
                .collect(),
            threads,
            explain,
            swap_cost_cycles: if changed { self.cfg.swap_overhead_cycles } else { 0 },
            realized_speedup: None,
            mispredict: None,
            oracle_action: None,
            regret: None,
        }
    }
}

/// Post-hoc misprediction attribution over generalized records: the mean
/// per-thread IPC/Watt ratio of period `i+1` over period `i`, defined
/// only when every thread observed energy in both periods (for N=2 this
/// reduces bit-exactly to the dual-core formula).
fn attribute_mispredictions(decisions: &mut [TopoDecisionRecord]) {
    for i in 0..decisions.len() {
        let realized = match decisions.get(i + 1) {
            Some(next)
                if decisions[i].threads.iter().all(|t| t.ipc_per_watt > 0.0)
                    && next.threads.iter().all(|t| t.ipc_per_watt > 0.0) =>
            {
                let mut sum = 0.0;
                for (n, c) in next.threads.iter().zip(decisions[i].threads.iter()) {
                    sum += n.ipc_per_watt / c.ipc_per_watt;
                }
                Some(sum / decisions[i].threads.len() as f64)
            }
            _ => None,
        };
        let rec = &mut decisions[i];
        rec.realized_speedup = realized;
        rec.mispredict = match (
            rec.changed,
            rec.explain.and_then(|e| e.predicted_speedup),
            realized,
        ) {
            (true, Some(predicted), Some(realized)) => Some(predicted - realized),
            _ => None,
        };
    }
}

/// Post-hoc regret attribution: pair each *epoch* record of a
/// scheduler's run with the same-index epoch record of the oracle's run
/// over the same workloads, and charge the scheduler the difference in
/// total per-thread IPC/Watt over that epoch. Window records (and epoch
/// records past the shorter run) stay `None`, matching the
/// `realized_speedup` convention — `Option`, never NaN.
///
/// The fields are filled in place so the enriched records flow through
/// the existing `--telemetry` JSONL path unchanged.
pub fn attribute_regret(decisions: &mut [TopoDecisionRecord], oracle: &[TopoDecisionRecord]) {
    let oracle_epochs: Vec<&TopoDecisionRecord> =
        oracle.iter().filter(|d| d.kind == DecisionKind::Epoch).collect();
    let mut k = 0usize;
    for rec in decisions.iter_mut() {
        if rec.kind != DecisionKind::Epoch {
            continue;
        }
        if let Some(orc) = oracle_epochs.get(k) {
            let mine: f64 = rec.threads.iter().map(|t| t.ipc_per_watt).sum();
            let theirs: f64 = orc.threads.iter().map(|t| t.ipc_per_watt).sum();
            rec.oracle_action = Some(orc.assignment.clone());
            rec.regret = Some(theirs - mine);
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsched_core::{TopoRoundRobin, TopoStatic, TpeScheduler};
    use ampsched_trace::{suite, TraceGenerator};

    fn workloads(names: &[&str]) -> Vec<Box<dyn Workload>> {
        names
            .iter()
            .enumerate()
            .map(|(t, name)| {
                Box::new(TraceGenerator::for_thread(
                    suite::by_name(name).expect("benchmark exists"),
                    42,
                    t,
                )) as Box<dyn Workload>
            })
            .collect()
    }

    fn quick_cfg() -> SystemConfig {
        SystemConfig {
            epoch_cycles: 100_000,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn topology_labels_and_traits() {
        let t = Topology::big_little(2, 2, 4);
        assert_eq!(t.label(), "2fp+2int-4t");
        let traits = t.traits();
        assert_eq!(traits.len(), 4);
        assert!(traits[0].fp_flavored && !traits[3].fp_flavored);
        assert!(traits[0].int_bias() < 0.0 && traits[3].int_bias() > 0.0);
        assert!(traits.iter().all(|c| c.strength() > 0.0));
    }

    #[test]
    fn four_core_static_run_commits_on_all_threads() {
        let topo = Topology::big_little(2, 2, 4);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["intstress", "fpstress", "gcc", "equake"]),
        );
        let mut sched = TopoStatic;
        let r = sys.run(&mut sched, 50_000, 5_000_000);
        assert_eq!(r.threads.len(), 4);
        assert!(r.threads.iter().all(|t| t.instructions > 0));
        assert!(r.threads.iter().all(|t| t.joules > 0.0));
        assert_eq!(r.swaps, 0);
        assert_eq!(sys.core_digests().len(), 4);
    }

    #[test]
    fn oversubscribed_round_robin_runs_every_thread() {
        // 2 cores × 4 threads: rotation must get all four threads time.
        let topo = Topology::big_little(1, 1, 4);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf", "swim", "gsm"]),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 1_000_000, 900_000);
        assert!(r.epoch_decisions >= 8);
        assert!(r.swaps >= 8, "rotation every epoch, got {}", r.swaps);
        assert!(
            r.threads.iter().all(|t| t.instructions > 0),
            "every thread must make progress: {:?}",
            r.threads.iter().map(|t| t.instructions).collect::<Vec<_>>()
        );
        // Two run, two wait at any instant.
        assert_eq!(sys.assignment().parked().len(), 2);
    }

    #[test]
    fn energy_is_conserved_across_attribution() {
        let topo = Topology::big_little(2, 1, 3);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["pi", "sha", "equake"]),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 100_000, 1_000_000);
        let attributed: f64 = r.threads.iter().map(|t| t.joules).sum();
        let accounted = sys.accounted_joules();
        assert!(
            (attributed + sys.unattributed_joules() - accounted).abs() < 1e-9,
            "thread-attributed + unattributed energy must equal core-accounted energy"
        );
        assert_eq!(sys.unattributed_joules(), 0.0, "idle cores burn nothing");
    }

    #[test]
    fn tpe_equalizes_progress_against_static() {
        // A fast thread and a slow thread on asymmetric cores: TPE must
        // end with a smaller progress gap than static placement.
        let spread = |r: &TopoRunResult| {
            let insts: Vec<u64> = r.threads.iter().map(|t| t.instructions).collect();
            *insts.iter().max().unwrap() as f64 / (*insts.iter().min().unwrap()).max(1) as f64
        };
        let run = |tpe: bool| {
            let topo = Topology::big_little(1, 1, 2);
            let mut sys = MulticoreSystem::new(
                quick_cfg(),
                &topo,
                workloads(&["intstress", "intstress"]),
            );
            if tpe {
                sys.run(&mut TpeScheduler::new(), 2_000_000, 1_000_000)
            } else {
                sys.run(&mut TopoStatic, 2_000_000, 1_000_000)
            }
        };
        let equalized = spread(&run(true));
        let fixed = spread(&run(false));
        assert!(
            equalized <= fixed,
            "TPE should not widen the progress gap: {equalized} vs {fixed}"
        );
    }

    #[test]
    fn migration_cost_is_charged_per_affected_core() {
        let topo = Topology::big_little(2, 2, 4);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf", "swim", "gsm"]),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 500_000, 500_000);
        assert!(r.swaps >= 1);
        // A full 4-thread rotation moves every thread.
        assert_eq!(r.migrations, 4 * r.swaps);
        for d in r.decisions.iter().filter(|d| d.changed) {
            assert_eq!(d.swap_cost_cycles, quick_cfg().swap_overhead_cycles);
            assert!(!d.migrated.is_empty());
            assert_eq!(d.assignment.len(), 4);
        }
    }

    #[test]
    fn deterministic_across_reruns() {
        let run = || {
            let topo = Topology::big_little(2, 2, 6);
            let mut sys = MulticoreSystem::new(
                quick_cfg(),
                &topo,
                workloads(&["gcc", "mcf", "swim", "gsm", "intstress", "fpstress"]),
            );
            let mut sched = TpeScheduler::new();
            sys.run(&mut sched, 200_000, 600_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.swaps, b.swaps);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(
            a.threads.iter().map(|t| t.instructions).collect::<Vec<_>>(),
            b.threads.iter().map(|t| t.instructions).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "one workload per thread")]
    fn workload_count_must_match_threads() {
        let topo = Topology::big_little(1, 1, 3);
        MulticoreSystem::new(quick_cfg(), &topo, workloads(&["gcc"]));
    }

    #[test]
    fn with_assignment_starts_in_the_given_state() {
        let topo = Topology::big_little(1, 1, 2);
        let swapped = AssignmentMap::pair(true);
        let mut sys = MulticoreSystem::with_assignment(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf"]),
            swapped.clone(),
        );
        assert_eq!(sys.assignment(), &swapped);
        assert_eq!(sys.swaps(), 0, "adopting the start state is not a migration");
        let r = sys.run(&mut TopoStatic, 50_000, 500_000);
        assert_eq!(r.swaps, 0);
        assert_eq!(sys.assignment(), &swapped, "static keeps the pinned placement");
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn with_assignment_rejects_shape_mismatch() {
        let topo = Topology::big_little(1, 1, 2);
        MulticoreSystem::with_assignment(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf"]),
            AssignmentMap::baseline(3, 2),
        );
    }

    /// Synthetic decision record with uniform per-thread IPC/Watt.
    fn record(kind: DecisionKind, ppw: f64) -> TopoDecisionRecord {
        TopoDecisionRecord {
            cycle: 0,
            kind,
            changed: false,
            migrated: Vec::new(),
            assignment: vec![Some(0), Some(1)],
            threads: (0..2)
                .map(|_| TopoDecisionThread { ipc_per_watt: ppw, ..Default::default() })
                .collect(),
            explain: None,
            swap_cost_cycles: 0,
            realized_speedup: None,
            mispredict: None,
            oracle_action: None,
            regret: None,
        }
    }

    #[test]
    fn final_decision_has_no_realized_followup() {
        // The last decision of a run has no follow-up window, so its
        // realized_speedup (and hence mispredict) must stay None — not
        // zero, not a stale value (ISSUE 9 satellite audit).
        let mut decisions = vec![
            record(DecisionKind::Epoch, 2.0),
            record(DecisionKind::Epoch, 3.0),
            record(DecisionKind::Epoch, 1.5),
        ];
        attribute_mispredictions(&mut decisions);
        assert_eq!(decisions[0].realized_speedup, Some(1.5));
        assert_eq!(decisions[1].realized_speedup, Some(0.5));
        assert_eq!(decisions[2].realized_speedup, None, "no follow-up period");
        assert_eq!(decisions[2].mispredict, None);
        // Attribution is also refused when either side saw no energy
        // (zero IPC/Watt) — never a division by zero.
        let mut degenerate = vec![record(DecisionKind::Epoch, 0.0), record(DecisionKind::Epoch, 2.0)];
        attribute_mispredictions(&mut degenerate);
        assert_eq!(degenerate[0].realized_speedup, None);
        assert!(degenerate.iter().all(|d| d.realized_speedup.is_none_or(f64::is_finite)));
    }

    #[test]
    fn regret_attribution_pairs_epochs_and_skips_windows() {
        let mut sched = vec![
            record(DecisionKind::Window, 1.0),
            record(DecisionKind::Epoch, 2.0),
            record(DecisionKind::Epoch, 3.0),
            record(DecisionKind::Epoch, 4.0),
        ];
        let mut oracle_run = vec![
            record(DecisionKind::Epoch, 2.5),
            record(DecisionKind::Epoch, 3.0),
        ];
        oracle_run[0].assignment = vec![Some(1), Some(0)];
        attribute_regret(&mut sched, &oracle_run);
        // Window records untouched.
        assert_eq!(sched[0].regret, None);
        assert_eq!(sched[0].oracle_action, None);
        // Epoch k pairs with oracle epoch k: 2 threads × Δppw.
        assert_eq!(sched[1].regret, Some(1.0));
        assert_eq!(sched[1].oracle_action, Some(vec![Some(1), Some(0)]));
        assert_eq!(sched[2].regret, Some(0.0));
        // Past the shorter oracle run: unattributed.
        assert_eq!(sched[3].regret, None);
        assert_eq!(sched[3].oracle_action, None);
        assert!(sched.iter().all(|d| d.regret.is_none_or(f64::is_finite)));
    }
}
