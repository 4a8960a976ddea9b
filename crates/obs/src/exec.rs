//! The unified execution model shared by every pipeline driver.

use std::thread;

/// How a pipeline stage should be executed.
///
/// This single enum replaces the forked `X` / `X_threaded` driver pairs:
/// every driver takes an `ExecPolicy` and decides internally whether to run
/// inline or fork scoped worker threads. Output is bit-identical for any
/// policy; only wall-clock time differs.
///
/// Batch ingest (`Dataset::ingest` in the analysis crate) is the one driver
/// that uses a second thread: with more than one worker it runs its flow
/// reassembly pass on a scoped thread beside its protocol pass. Every other
/// stage runs on the calling thread under any policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// Run on the calling thread. Deterministic baseline, zero thread setup.
    Sequential,
    /// Use `n` workers. `Threads(0)` and `Threads(1)` both clamp to one
    /// worker and run exactly like `Sequential`; any `n > 1` runs the same
    /// two-thread ingest (there are only two passes to overlap).
    Threads(usize),
    /// One worker per available core, as reported by
    /// [`std::thread::available_parallelism`]; falls back to a single worker
    /// when the parallelism cannot be queried. This is the default.
    #[default]
    Auto,
}

impl ExecPolicy {
    /// Number of worker threads this policy resolves to. Always `>= 1`.
    pub fn workers(self) -> usize {
        match self {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// True when the policy resolves to a single worker, in which case
    /// drivers take the inline (non-forking) path.
    pub fn is_sequential(self) -> bool {
        self.workers() == 1
    }

    /// Map the CLI `--threads N` flag onto a policy: `0` means "one worker
    /// per core" (`Auto`, clamped to at least one worker), `1` means
    /// `Sequential`, and any other value pins the worker count.
    pub fn from_threads_flag(n: usize) -> Self {
        match n {
            0 => ExecPolicy::Auto,
            1 => ExecPolicy::Sequential,
            n => ExecPolicy::Threads(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_is_always_at_least_one() {
        assert_eq!(ExecPolicy::Sequential.workers(), 1);
        assert_eq!(ExecPolicy::Threads(0).workers(), 1);
        assert_eq!(ExecPolicy::Threads(1).workers(), 1);
        assert_eq!(ExecPolicy::Threads(7).workers(), 7);
        assert!(ExecPolicy::Auto.workers() >= 1);
    }

    #[test]
    fn threads_flag_zero_means_auto_one_per_core() {
        let policy = ExecPolicy::from_threads_flag(0);
        assert_eq!(policy, ExecPolicy::Auto);
        assert!(policy.workers() >= 1);
    }

    #[test]
    fn threads_flag_one_means_sequential() {
        let policy = ExecPolicy::from_threads_flag(1);
        assert_eq!(policy, ExecPolicy::Sequential);
        assert!(policy.is_sequential());
    }

    #[test]
    fn threads_flag_n_pins_worker_count() {
        assert_eq!(ExecPolicy::from_threads_flag(4), ExecPolicy::Threads(4));
        assert_eq!(ExecPolicy::from_threads_flag(4).workers(), 4);
        assert!(!ExecPolicy::from_threads_flag(4).is_sequential());
    }
}
