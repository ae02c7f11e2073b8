//! The interface between workload models and the core timing model.

use ampsched_isa::MicroOp;

/// An endless, deterministic instruction stream.
///
/// Workloads never terminate: the paper runs each multiprogrammed pair
/// "until one of the threads completed 5 million instructions", so the
/// driver decides when to stop, and benchmarks conceptually loop over
/// their inputs.
pub trait Workload {
    /// Name of the underlying benchmark (e.g. `"equake"`).
    fn name(&self) -> &str;

    /// Produce the next micro-op of the stream.
    fn next_op(&mut self) -> MicroOp;

    /// Index of the phase the *next* op belongs to (for instrumentation
    /// and tests; schedulers never see this).
    fn current_phase(&self) -> usize;

    /// An independent copy of this stream at its current position: the
    /// fork yields exactly the ops the original would yield from here on,
    /// and consuming either leaves the other untouched. `None` when the
    /// stream cannot be copied (the default). A multicore cohort run
    /// shares one simulated machine between several schedulers and needs
    /// forkable workloads to split it where their placements diverge.
    fn fork(&self) -> Option<Box<dyn Workload>> {
        None
    }

    /// Whether [`fork`](Workload::fork) returns `Some`. The default asks
    /// `fork` itself; streams that always fork answer without copying.
    fn can_fork(&self) -> bool {
        self.fork().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsched_isa::OpClass;

    /// A trivial workload for driver tests elsewhere in the workspace.
    struct Constant;

    impl Workload for Constant {
        fn name(&self) -> &str {
            "constant"
        }
        fn next_op(&mut self) -> MicroOp {
            MicroOp::arith(OpClass::IntAlu, None, None, None)
        }
        fn current_phase(&self) -> usize {
            0
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut w: Box<dyn Workload> = Box::new(Constant);
        assert_eq!(w.name(), "constant");
        assert_eq!(w.next_op().class, OpClass::IntAlu);
        assert_eq!(w.current_phase(), 0);
        assert!(w.fork().is_none(), "streams do not fork unless they opt in");
        assert!(!w.can_fork());
    }
}
