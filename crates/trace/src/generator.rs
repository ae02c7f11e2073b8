//! Deterministic micro-op stream generation from a [`BenchmarkSpec`].

use ampsched_isa::{ArchReg, MicroOp, OpClass};
use ampsched_util::rng::StdRng;

use crate::benchmark::BenchmarkSpec;
use crate::workload::Workload;

/// Number of recent destination registers remembered per register file for
/// dependency weaving.
const DEP_RING: usize = 48;

/// Ring of recently written registers in one register file.
#[derive(Debug, Clone)]
struct RecentDsts {
    regs: [u8; DEP_RING],
    head: usize,
}

impl RecentDsts {
    fn new(fp: bool) -> Self {
        // Seed the ring so early instructions have producers to depend on.
        let mut regs = [0u8; DEP_RING];
        for (i, r) in regs.iter_mut().enumerate() {
            // Skip the integer zero register.
            *r = if fp { (i % 32) as u8 } else { 1 + (i % 31) as u8 };
        }
        RecentDsts { regs, head: 0 }
    }

    #[inline]
    fn push(&mut self, reg: u8) {
        // `head` stays < DEP_RING, so wrap-around is a compare, not a
        // hardware divide (this runs 1–4 times per generated op).
        self.head += 1;
        if self.head == DEP_RING {
            self.head = 0;
        }
        self.regs[self.head] = reg;
    }

    /// The register written `distance` instructions ago (clamped to ring).
    #[inline]
    fn at_distance(&self, distance: usize) -> u8 {
        let d = distance.clamp(1, DEP_RING) - 1;
        let mut i = self.head + DEP_RING - d; // in [1, 2*DEP_RING)
        if i >= DEP_RING {
            i -= DEP_RING;
        }
        self.regs[i]
    }
}

/// Deterministic trace generator: the reference [`Workload`] implementation.
///
/// Two generators with the same spec and seed produce identical streams;
/// distinct `addr_base`/`code_base` values give co-scheduled threads
/// disjoint address spaces (separate virtual memory), so a freshly swapped
/// thread finds the new core's L1s cold — the cache-warmup component of the
/// paper's swap penalty emerges naturally.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    spec: BenchmarkSpec,
    rng: StdRng,
    phase_idx: usize,
    left_in_phase: u64,
    cdf: [f64; ampsched_isa::ops::NUM_OP_CLASSES],
    fp_dst_fraction: f64,
    recent_int: RecentDsts,
    recent_fp: RecentDsts,
    addr_base: u64,
    code_base: u64,
    seq_ptr: u64,
    /// Base of the current hot code region within the footprint.
    region_base: u64,
    /// Offset within the hot region.
    local_off: u64,
    /// Recently visited region bases (call-graph locality: most far jumps
    /// return to a recently used function).
    region_ring: [u64; REGION_RING],
    region_head: usize,
    generated: u64,
}

/// Number of recent code regions remembered for call-graph locality.
const REGION_RING: usize = 6;

/// Size of the hot code region (the "current function + loop") the
/// program counter dwells in between far jumps. Chosen to fit the 4 KB
/// L1I with room for a co-resident region, so loops hit the I-cache and
/// only far jumps (calls across a large footprint) miss — the behaviour
/// that separates big-code workloads (gcc, vortex) from kernels.
const HOT_REGION: u64 = 2048;

/// Fraction of taken branches that are far jumps relocating the hot
/// region (calls/returns across the footprint).
const FAR_JUMP_FRACTION: f64 = 0.05;

/// `x % m` that skips the hardware divide when `x` is already in range —
/// the common case for the generator's wrap-around updates, where the
/// operand only leaves `[0, m)` on a wrap or after a phase change shrank
/// `m`. Exactly equivalent to `%` for every input.
#[inline]
fn fast_mod(x: u64, m: u64) -> u64 {
    if x >= m {
        x % m
    } else {
        x
    }
}

impl TraceGenerator {
    /// Build a generator for `spec`, deterministic in `seed`, with data at
    /// `addr_base` and code at `code_base`.
    pub fn new(spec: BenchmarkSpec, seed: u64, addr_base: u64, code_base: u64) -> Self {
        let mut g = TraceGenerator {
            rng: StdRng::seed_from_u64(seed ^ 0x05ee_d0fa_17e5),
            phase_idx: 0,
            left_in_phase: spec.phases[0].duration,
            cdf: [0.0; ampsched_isa::ops::NUM_OP_CLASSES],
            fp_dst_fraction: 0.0,
            recent_int: RecentDsts::new(false),
            recent_fp: RecentDsts::new(true),
            addr_base,
            code_base,
            seq_ptr: 0,
            region_base: 0,
            region_ring: [0; REGION_RING],
            region_head: 0,
            local_off: 0,
            generated: 0,
            spec,
        };
        g.load_phase();
        g
    }

    /// Convenience constructor for a single-thread setup (thread 0 bases).
    pub fn for_thread(spec: BenchmarkSpec, seed: u64, thread: usize) -> Self {
        // 1 GiB apart: address spaces never alias between threads.
        let base = (thread as u64 + 1) << 30;
        TraceGenerator::new(spec, seed.wrapping_add(thread as u64), base, base + (1 << 28))
    }

    /// The spec driving this generator.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Total micro-ops generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    fn load_phase(&mut self) {
        let p = &self.spec.phases[self.phase_idx];
        self.cdf = p.mix.cdf();
        let int_f = p.mix.int_fraction();
        let fp_f = p.mix.fp_fraction();
        self.fp_dst_fraction = if int_f + fp_f > 0.0 {
            fp_f / (int_f + fp_f)
        } else {
            0.0
        };
        self.left_in_phase = p.duration;
    }

    #[inline]
    fn advance_phase_counter(&mut self) {
        self.left_in_phase -= 1;
        if self.left_in_phase == 0 {
            self.phase_idx = (self.phase_idx + 1) % self.spec.phases.len();
            self.load_phase();
        }
    }

    #[inline]
    fn sample_class(&mut self) -> OpClass {
        let u: f64 = self.rng.gen();
        for (i, &c) in self.cdf.iter().enumerate() {
            if u <= c {
                return ampsched_isa::ops::ALL_OP_CLASSES[i];
            }
        }
        OpClass::Branch
    }

    /// Sample a producer distance from an exponential with the phase mean.
    #[inline]
    fn dep_distance(&mut self, mean: f64) -> usize {
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        (-(mean) * u.ln()).ceil().max(1.0) as usize
    }

    #[inline]
    fn int_src(&mut self, mean_dep: f64) -> ArchReg {
        let d = self.dep_distance(mean_dep);
        ArchReg::Int(self.recent_int.at_distance(d))
    }

    #[inline]
    fn fp_src(&mut self, mean_dep: f64) -> ArchReg {
        let d = self.dep_distance(mean_dep);
        ArchReg::Fp(self.recent_fp.at_distance(d))
    }

    #[inline]
    fn fresh_int_dst(&mut self) -> u8 {
        1 + self.rng.gen_range(0..31u8)
    }

    #[inline]
    fn fresh_fp_dst(&mut self) -> u8 {
        self.rng.gen_range(0..32u8)
    }

    #[inline]
    fn data_addr(&mut self, ws: u64, stride_fraction: f64) -> u64 {
        let off = if self.rng.gen::<f64>() < stride_fraction {
            self.seq_ptr = fast_mod(self.seq_ptr + 8, ws);
            self.seq_ptr
        } else {
            (self.rng.gen::<u64>() % ws) & !7
        };
        self.addr_base + off
    }
}

impl Workload for TraceGenerator {
    fn name(&self) -> &str {
        self.spec.name
    }

    fn current_phase(&self) -> usize {
        self.phase_idx
    }

    fn fork(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn can_fork(&self) -> bool {
        true
    }

    fn next_op(&mut self) -> MicroOp {
        // Copy the phase parameters we need (cheap, avoids borrow issues).
        let p = &self.spec.phases[self.phase_idx];
        let mean_dep = p.mean_dep_distance;
        let mispredict = p.mispredict_rate;
        let taken = p.taken_rate;
        let ws = p.data_working_set;
        let stride = p.stride_fraction;
        let code = p.code_footprint;

        let class = self.sample_class();
        let mut op = match class {
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                let s1 = self.int_src(mean_dep);
                let s2 = if self.rng.gen::<f64>() < 0.6 {
                    Some(self.int_src(mean_dep))
                } else {
                    None
                };
                let d = self.fresh_int_dst();
                self.recent_int.push(d);
                MicroOp::arith(class, Some(s1), s2, Some(ArchReg::Int(d)))
            }
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => {
                let s1 = self.fp_src(mean_dep);
                let s2 = if self.rng.gen::<f64>() < 0.8 {
                    Some(self.fp_src(mean_dep))
                } else {
                    None
                };
                let d = self.fresh_fp_dst();
                self.recent_fp.push(d);
                MicroOp::arith(class, Some(s1), s2, Some(ArchReg::Fp(d)))
            }
            OpClass::Load => {
                let addr = self.data_addr(ws, stride);
                let base = if self.rng.gen::<f64>() < 0.5 {
                    Some(self.int_src(mean_dep))
                } else {
                    None
                };
                if self.rng.gen::<f64>() < self.fp_dst_fraction {
                    let d = self.fresh_fp_dst();
                    self.recent_fp.push(d);
                    MicroOp::load(addr, 8, base, ArchReg::Fp(d))
                } else {
                    let d = self.fresh_int_dst();
                    self.recent_int.push(d);
                    MicroOp::load(addr, 8, base, ArchReg::Int(d))
                }
            }
            OpClass::Store => {
                let addr = self.data_addr(ws, stride);
                let base = if self.rng.gen::<f64>() < 0.5 {
                    Some(self.int_src(mean_dep))
                } else {
                    None
                };
                let data = if self.rng.gen::<f64>() < self.fp_dst_fraction {
                    self.fp_src(mean_dep)
                } else {
                    self.int_src(mean_dep)
                };
                MicroOp::store(addr, 8, base, data)
            }
            OpClass::Branch => {
                let cond = Some(self.int_src(mean_dep));
                let correct = self.rng.gen::<f64>() >= mispredict;
                MicroOp::branch(cond, correct)
            }
        };

        // Program counter walk: the PC dwells in a hot region (function +
        // loop) where sequential fetch and local backward jumps keep the
        // L1I warm; a small fraction of taken branches are far jumps that
        // relocate the region — the I-cache misses of big-code workloads
        // (gcc, vortex) come from these relocations.
        let span = HOT_REGION.min(code);
        op.pc = self.code_base + fast_mod(self.region_base + self.local_off, code);
        if class.is_branch() && self.rng.gen::<f64>() < taken {
            if code > span && self.rng.gen::<f64>() < FAR_JUMP_FRACTION {
                // Call-graph locality: 75% of far jumps revisit a recent
                // region (whose lines are likely still cached); 25% open a
                // fresh one.
                if self.rng.gen::<f64>() < 0.75 {
                    let pick = self.rng.gen_range(0..REGION_RING);
                    self.region_base = self.region_ring[pick];
                } else {
                    self.region_base = (self.rng.gen::<u64>() % code) & !63;
                    self.region_head = (self.region_head + 1) % REGION_RING;
                    self.region_ring[self.region_head] = self.region_base;
                }
                self.local_off = 0;
            } else {
                let back = (self.rng.gen::<u64>() % span) & !3;
                self.local_off = fast_mod(self.local_off + span - back, span);
            }
        } else {
            self.local_off = fast_mod(self.local_off + 4, span);
        }

        self.generated += 1;
        self.advance_phase_counter();
        op
    }
}

#[cfg(test)]
mod tests {
    use ampsched_isa::InstMix;
    use super::*;
    use crate::phase::PhaseSpec;
    use crate::benchmark::Suite;
    use ampsched_isa::MixCounts;

    fn two_phase_spec() -> BenchmarkSpec {
        let int_mix = InstMix::from_weights(&[
            (OpClass::IntAlu, 0.55),
            (OpClass::IntMul, 0.05),
            (OpClass::Load, 0.2),
            (OpClass::Store, 0.08),
            (OpClass::Branch, 0.12),
        ]);
        let fp_mix = InstMix::from_weights(&[
            (OpClass::FpAlu, 0.35),
            (OpClass::FpMul, 0.15),
            (OpClass::IntAlu, 0.15),
            (OpClass::Load, 0.22),
            (OpClass::Store, 0.08),
            (OpClass::Branch, 0.05),
        ]);
        BenchmarkSpec::new(
            "two-phase",
            Suite::Synthetic,
            vec![
                PhaseSpec::new("int", int_mix, 4.0, 0.05, 0.4, 8192, 0.8, 4096, 20_000),
                PhaseSpec::new("fp", fp_mix, 6.0, 0.02, 0.3, 65_536, 0.5, 4096, 20_000),
            ],
        )
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TraceGenerator::new(two_phase_spec(), 42, 0, 1 << 20);
        let mut b = TraceGenerator::new(two_phase_spec(), 42, 0, 1 << 20);
        for _ in 0..5000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TraceGenerator::new(two_phase_spec(), 1, 0, 1 << 20);
        let mut b = TraceGenerator::new(two_phase_spec(), 2, 0, 1 << 20);
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 1000, "streams with different seeds must diverge");
    }

    #[test]
    fn observed_mix_matches_phase_spec() {
        let spec = two_phase_spec();
        let mut g = TraceGenerator::new(spec.clone(), 7, 0, 1 << 20);
        let mut counts = MixCounts::new();
        // Stay inside phase 0.
        for _ in 0..20_000 {
            if g.current_phase() != 0 {
                break;
            }
            counts.record(g.next_op().class);
        }
        let want_int = 100.0 * spec.phases[0].mix.int_fraction();
        let want_fp = 100.0 * spec.phases[0].mix.fp_fraction();
        assert!(
            (counts.int_pct() - want_int).abs() < 2.5,
            "observed %INT {} vs spec {}",
            counts.int_pct(),
            want_int
        );
        assert!((counts.fp_pct() - want_fp).abs() < 2.5);
    }

    #[test]
    fn phases_cycle() {
        let mut g = TraceGenerator::new(two_phase_spec(), 3, 0, 1 << 20);
        assert_eq!(g.current_phase(), 0);
        for _ in 0..20_000 {
            g.next_op();
        }
        assert_eq!(g.current_phase(), 1);
        for _ in 0..20_000 {
            g.next_op();
        }
        assert_eq!(g.current_phase(), 0, "phase sequence is cyclic");
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let spec = two_phase_spec();
        let ws = spec.phases[0].data_working_set;
        let base = 1 << 30;
        let mut g = TraceGenerator::new(spec, 9, base, (1 << 30) + (1 << 28));
        for _ in 0..20_000 {
            if g.current_phase() != 0 {
                break;
            }
            let op = g.next_op();
            if op.class.is_mem() {
                assert!(op.addr >= base && op.addr < base + ws, "addr {:x}", op.addr);
            }
        }
    }

    #[test]
    fn pcs_stay_in_code_footprint() {
        let spec = two_phase_spec();
        let code = spec.phases[0].code_footprint;
        let cbase = 1 << 28;
        let mut g = TraceGenerator::new(spec, 9, 0, cbase);
        for _ in 0..10_000 {
            if g.current_phase() != 0 {
                break;
            }
            let op = g.next_op();
            assert!(op.pc >= cbase && op.pc < cbase + code);
            assert_eq!(op.pc % 4, 0, "pc must be 4-aligned");
        }
    }

    #[test]
    fn mispredict_rate_is_respected() {
        let spec = two_phase_spec();
        let want = spec.phases[0].mispredict_rate;
        let mut g = TraceGenerator::new(spec, 11, 0, 1 << 20);
        let (mut branches, mut wrong) = (0u64, 0u64);
        for _ in 0..20_000 {
            if g.current_phase() != 0 {
                break;
            }
            let op = g.next_op();
            if op.class.is_branch() {
                branches += 1;
                if !op.predicted_correctly {
                    wrong += 1;
                }
            }
        }
        assert!(branches > 500);
        let observed = wrong as f64 / branches as f64;
        assert!(
            (observed - want).abs() < 0.03,
            "observed mispredict {observed} vs spec {want}"
        );
    }

    #[test]
    fn thread_address_spaces_are_disjoint() {
        let a = TraceGenerator::for_thread(two_phase_spec(), 5, 0);
        let b = TraceGenerator::for_thread(two_phase_spec(), 5, 1);
        assert_ne!(a.addr_base, b.addr_base);
        let mut a = a;
        let mut b = b;
        for _ in 0..2000 {
            let (oa, ob) = (a.next_op(), b.next_op());
            if oa.class.is_mem() && ob.class.is_mem() {
                assert_ne!(oa.addr >> 30, ob.addr >> 30);
            }
        }
    }

    #[test]
    fn stores_have_no_destination() {
        let mut g = TraceGenerator::new(two_phase_spec(), 13, 0, 1 << 20);
        for _ in 0..5000 {
            let op = g.next_op();
            if op.class == OpClass::Store {
                assert!(op.dst.is_none());
                assert!(op.src2.is_some(), "store needs a data source");
            }
        }
    }
}
