//! Execution statistics and per-tag task timing.
//!
//! [`Runtime::run`](crate::exec::Runtime::run) returns these aggregates
//! from every graph execution, so a caller sees where a graph's time
//! went, by task tag, without instrumenting the algorithms by hand.

use std::collections::HashMap;
use std::time::Duration;

/// Accumulated timing for one task tag.
#[derive(Clone, Copy, Debug, Default)]
pub struct TagStats {
    /// Number of tasks that ran with this tag.
    pub count: usize,
    /// Sum of their execution times.
    pub total: Duration,
}

/// Statistics of one [`Runtime::run`](crate::exec::Runtime::run) call.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock duration of the whole graph execution.
    pub wall: Duration,
    /// Number of tasks executed.
    pub tasks_run: usize,
    /// Number of worker threads used.
    pub workers: usize,
    /// Per-tag aggregates.
    pub per_tag: HashMap<&'static str, TagStats>,
    /// Total busy time summed over workers (compare against
    /// `wall * workers` for utilization).
    pub busy: Duration,
    /// Accesses validated by the footprint shadow checker
    /// ([`crate::shadow`]). Always 0 in release builds (the checker
    /// compiles out); in debug a zero count on a scheduled run means the
    /// task bodies are not instrumented — itself a signal.
    pub shadow_touches: u64,
}

impl RunStats {
    /// Merge a finished task's timing into the aggregates.
    pub(crate) fn record(&mut self, tag: &'static str, took: Duration) {
        let e = self.per_tag.entry(tag).or_default();
        e.count += 1;
        e.total += took;
        self.busy += took;
        self.tasks_run += 1;
    }

    /// Fold one *worker's* log into this run's aggregates. The two merge
    /// directions have different semantics, so they are separate methods:
    /// a worker log carries only task timings (`wall`/`workers` are a
    /// whole-run property the executor sets once at the top level), and
    /// this method deliberately ignores the other side's `wall`/`workers`.
    /// Debug builds assert the argument really is a worker log; merging a
    /// finished top-level run through this method would silently produce
    /// a nonsense [`Self::utilization`]. For that, use
    /// [`Self::merge_sequential`].
    pub(crate) fn merge_worker(&mut self, other: &RunStats) {
        debug_assert_eq!(
            (other.wall, other.workers),
            (Duration::ZERO, 0),
            "merge_worker expects a per-worker log (wall/workers unset); \
             merging a top-level run here would corrupt utilization",
        );
        for (tag, s) in &other.per_tag {
            let e = self.per_tag.entry(tag).or_default();
            e.count += s.count;
            e.total += s.total;
        }
        self.busy += other.busy;
        self.tasks_run += other.tasks_run;
        self.shadow_touches += other.shadow_touches;
    }

    /// Combine two finished top-level runs executed back to back (a
    /// batch driver aggregating per-request runs): wall times add, the
    /// worker count is the widest pool seen, and busy/task aggregates
    /// sum — so [`Self::utilization`] stays the busy share of the total
    /// `wall * workers` area, exactly as for a single run.
    pub fn merge_sequential(&mut self, other: &RunStats) {
        for (tag, s) in &other.per_tag {
            let e = self.per_tag.entry(tag).or_default();
            e.count += s.count;
            e.total += s.total;
        }
        self.busy += other.busy;
        self.tasks_run += other.tasks_run;
        self.shadow_touches += other.shadow_touches;
        self.wall += other.wall;
        self.workers = self.workers.max(other.workers);
    }

    /// Parallel efficiency: busy time / (wall * workers). 1.0 is perfect.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        if denom == 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / denom).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = RunStats::default();
        a.record("x", Duration::from_millis(10));
        a.record("x", Duration::from_millis(5));
        a.record("y", Duration::from_millis(1));
        assert_eq!(a.tasks_run, 3);
        assert_eq!(a.per_tag["x"].count, 2);

        let mut b = RunStats::default();
        b.record("x", Duration::from_millis(4));
        a.merge_worker(&b);
        assert_eq!(a.per_tag["x"].count, 3);
        assert_eq!(a.tasks_run, 4);
    }

    #[test]
    fn sequential_merge_keeps_utilization_meaningful() {
        // Two back-to-back single-worker runs, each fully busy: the
        // combined run must still report ~100% utilization, not 200%
        // (busy doubled against one run's wall) or 50% (wall doubled
        // against dropped busy) — the bug the old single `merge` invited.
        let mut a = RunStats {
            wall: Duration::from_millis(10),
            workers: 1,
            ..Default::default()
        };
        a.record("x", Duration::from_millis(10));
        let mut b = RunStats {
            wall: Duration::from_millis(30),
            workers: 1,
            ..Default::default()
        };
        b.record("x", Duration::from_millis(30));
        a.merge_sequential(&b);
        assert_eq!(a.wall, Duration::from_millis(40));
        assert_eq!(a.workers, 1);
        assert_eq!(a.tasks_run, 2);
        assert!((a.utilization() - 1.0).abs() < 1e-12);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "merge_worker expects a per-worker log")]
    fn worker_merge_rejects_top_level_runs() {
        let mut a = RunStats::default();
        let b = RunStats {
            wall: Duration::from_millis(10),
            workers: 2,
            ..Default::default()
        };
        a.merge_worker(&b);
    }

    #[test]
    fn utilization_bounds() {
        let mut s = RunStats {
            workers: 2,
            wall: Duration::from_millis(10),
            ..Default::default()
        };
        s.record("x", Duration::from_millis(20));
        assert!((s.utilization() - 1.0).abs() < 1e-12);
        let empty = RunStats::default();
        assert_eq!(empty.utilization(), 0.0);
    }
}
