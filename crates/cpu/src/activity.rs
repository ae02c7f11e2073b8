//! Microarchitectural activity counters consumed by the power model.
//!
//! `ampsched-power` follows the Wattch methodology: per-structure access
//! counts × per-access energies (scaled by structure size) + leakage.
//! This struct is the "per-structure access counts" half.

use ampsched_isa::ops::NUM_OP_CLASSES;

/// Event tallies since the last [`ActivityCounters::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Cycles elapsed (for leakage and clock power).
    pub cycles: u64,
    /// L1I line fetch accesses.
    pub icache_accesses: u64,
    /// Instructions renamed/dispatched (map-table + ROB write).
    pub dispatches: u64,
    /// Insertions into the integer issue queue.
    pub isq_int_inserts: u64,
    /// Insertions into the FP issue queue.
    pub isq_fp_inserts: u64,
    /// Wakeup/select operations performed on the integer queue
    /// (CAM activity ∝ occupancy each cycle).
    pub isq_int_wakeups: u64,
    /// Wakeup/select operations performed on the FP queue.
    pub isq_fp_wakeups: u64,
    /// Ops started per functional-unit class (indexed by `OpClass::index`;
    /// loads/stores/branches count their datapath usage here too).
    pub fu_ops: [u64; NUM_OP_CLASSES],
    /// Integer register-file reads.
    pub int_reg_reads: u64,
    /// Integer register-file writes.
    pub int_reg_writes: u64,
    /// FP register-file reads.
    pub fp_reg_reads: u64,
    /// FP register-file writes.
    pub fp_reg_writes: u64,
    /// Load-queue plus store-queue insertions.
    pub lsq_inserts: u64,
    /// L1D accesses (loads issued + stores committed).
    pub dcache_accesses: u64,
    /// Branch-predictor lookups.
    pub bpred_lookups: u64,
    /// Instructions committed (ROB read + retirement bookkeeping).
    pub commits: u64,
}

impl ActivityCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the current tallies and reset to zero — used by the power
    /// model at the end of each accounting window.
    pub fn take(&mut self) -> ActivityCounters {
        std::mem::take(self)
    }

    /// The tallies accumulated since `earlier`, a past copy of these
    /// counters — exactly what [`take`](Self::take) would have returned
    /// had it been called at `earlier` and again now. Lets several
    /// readers settle one core's cumulative counters independently.
    pub fn since(&self, earlier: &ActivityCounters) -> ActivityCounters {
        ActivityCounters {
            cycles: self.cycles - earlier.cycles,
            icache_accesses: self.icache_accesses - earlier.icache_accesses,
            dispatches: self.dispatches - earlier.dispatches,
            isq_int_inserts: self.isq_int_inserts - earlier.isq_int_inserts,
            isq_fp_inserts: self.isq_fp_inserts - earlier.isq_fp_inserts,
            isq_int_wakeups: self.isq_int_wakeups - earlier.isq_int_wakeups,
            isq_fp_wakeups: self.isq_fp_wakeups - earlier.isq_fp_wakeups,
            fu_ops: std::array::from_fn(|i| self.fu_ops[i] - earlier.fu_ops[i]),
            int_reg_reads: self.int_reg_reads - earlier.int_reg_reads,
            int_reg_writes: self.int_reg_writes - earlier.int_reg_writes,
            fp_reg_reads: self.fp_reg_reads - earlier.fp_reg_reads,
            fp_reg_writes: self.fp_reg_writes - earlier.fp_reg_writes,
            lsq_inserts: self.lsq_inserts - earlier.lsq_inserts,
            dcache_accesses: self.dcache_accesses - earlier.dcache_accesses,
            bpred_lookups: self.bpred_lookups - earlier.bpred_lookups,
            commits: self.commits - earlier.commits,
        }
    }

    /// Accumulate another counter set (e.g. totals across windows).
    pub fn merge(&mut self, other: &ActivityCounters) {
        self.cycles += other.cycles;
        self.icache_accesses += other.icache_accesses;
        self.dispatches += other.dispatches;
        self.isq_int_inserts += other.isq_int_inserts;
        self.isq_fp_inserts += other.isq_fp_inserts;
        self.isq_int_wakeups += other.isq_int_wakeups;
        self.isq_fp_wakeups += other.isq_fp_wakeups;
        for i in 0..NUM_OP_CLASSES {
            self.fu_ops[i] += other.fu_ops[i];
        }
        self.int_reg_reads += other.int_reg_reads;
        self.int_reg_writes += other.int_reg_writes;
        self.fp_reg_reads += other.fp_reg_reads;
        self.fp_reg_writes += other.fp_reg_writes;
        self.lsq_inserts += other.lsq_inserts;
        self.dcache_accesses += other.dcache_accesses;
        self.bpred_lookups += other.bpred_lookups;
        self.commits += other.commits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_resets() {
        let mut a = ActivityCounters::new();
        a.cycles = 10;
        a.commits = 5;
        let t = a.take();
        assert_eq!(t.cycles, 10);
        assert_eq!(a, ActivityCounters::default());
    }

    #[test]
    fn since_equals_take_at_the_same_points() {
        let mut taken = ActivityCounters::new();
        let mut cumulative = ActivityCounters::new();
        let bump = |a: &mut ActivityCounters, k: u64| {
            a.cycles += k;
            a.fu_ops[2] += 2 * k;
            a.commits += k + 1;
        };
        bump(&mut taken, 3);
        bump(&mut cumulative, 3);
        let mark = cumulative;
        assert_eq!(cumulative.since(&ActivityCounters::new()), taken.take());
        bump(&mut taken, 5);
        bump(&mut cumulative, 5);
        assert_eq!(cumulative.since(&mark), taken.take());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ActivityCounters::new();
        a.fu_ops[0] = 3;
        a.commits = 1;
        let mut b = ActivityCounters::new();
        b.fu_ops[0] = 4;
        b.commits = 2;
        a.merge(&b);
        assert_eq!(a.fu_ops[0], 7);
        assert_eq!(a.commits, 3);
    }
}
