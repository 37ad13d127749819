//! Summary statistics, the metric record and the counter ledger: the
//! arithmetic every workload shares.

use bots::runtime::RuntimeStats;

/// One reported number: name, value and unit, printed as-is.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median; the mean of the middle two for an even count. `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values. `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentiles the tail metric may report, highest first.
const TAIL_GRID: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail rule: the highest percentile of [`TAIL_GRID`] that has at
/// least ten samples beyond it, with its nearest-rank value. With fewer
/// than twenty samples no grid point qualifies, and the maximum is
/// reported as percentile 100. Returns `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (100.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    for p in TAIL_GRID {
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9 {
            let rank = ((p / 100.0) * n).ceil().max(1.0) as usize;
            return (p, v[rank - 1]);
        }
    }
    (100.0, v[v.len() - 1])
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts a workload's verified operations and its failures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one verified operation: `check` is its verification
    /// outcome. A failure is counted and reported on stderr, never raised.
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {why}");
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the benchmark itself counted while driving a workload, for the
/// ledger checks against the runtime's own counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Submitted {
    /// Regions the benchmark caused (one per kernel call, one per submit).
    pub regions: u64,
    /// Replay-token submits that the runtime armed (phase `Recording` or
    /// `Replaying` at submit time); a token busy in another in-flight
    /// region runs plain and is not armed.
    pub replay_armed: u64,
    /// Every submit made with a replay token.
    pub replay_submits: u64,
}

impl Submitted {
    pub fn add(&mut self, other: Submitted) {
        self.regions += other.regions;
        self.replay_armed += other.replay_armed;
        self.replay_submits += other.replay_submits;
    }
}

/// The standing counter invariants, checked on a quiescent `stats()`
/// delta. Returns one message per violated invariant.
pub fn ledger(d: &RuntimeStats, sub: &Submitted) -> Vec<String> {
    let mut bad = Vec::new();
    if d.cont_suspends != d.cont_resumes {
        bad.push(format!(
            "cont_suspends {} != cont_resumes {}",
            d.cont_suspends, d.cont_resumes
        ));
    }
    if d.deps_deferred != d.deps_released {
        bad.push(format!(
            "deps_deferred {} != deps_released {}",
            d.deps_deferred, d.deps_released
        ));
    }
    let replays = d.replays_recorded + d.replays_hit + d.replays_diverged;
    if replays != sub.replay_armed {
        bad.push(format!(
            "replays recorded+hit+diverged {replays} != armed replay submits {}",
            sub.replay_armed
        ));
    }
    let regions = d.regions_fresh + d.regions_recycled;
    if regions != sub.regions {
        bad.push(format!(
            "regions fresh+recycled {regions} != regions submitted {}",
            sub.regions
        ));
    }
    bad
}

/// Tasks created: deferred plus inlined for any reason. A runtime change
/// that inlines more moves tasks between the terms, not the total, so
/// this is the per-task denominator where a cut-off may inline.
pub fn created(d: &RuntimeStats) -> u64 {
    d.spawned
        + d.inlined_if
        + d.inlined_cutoff
        + d.inlined_final
        + d.inlined_budget
        + d.inlined_shed
}

/// Adds two stats deltas field by field (a workload that runs on several
/// teams reports their sum; `RuntimeStats` only offers the difference).
pub fn sum_stats(a: &RuntimeStats, b: &RuntimeStats) -> RuntimeStats {
    let mut out = *a;
    macro_rules! add {
        ($($f:ident),*) => { $( out.$f += b.$f; )* };
    }
    add!(
        spawned,
        inlined_if,
        inlined_cutoff,
        inlined_final,
        inlined_budget,
        executed,
        stolen,
        steal_misses,
        parks,
        taskwaits,
        group_waits,
        switched_in_wait,
        tied_steal_denied,
        slab_fresh,
        slab_recycled,
        slab_cross_freed,
        closure_spilled,
        wake_propagations,
        regions_fresh,
        regions_recycled,
        groups_fresh,
        groups_recycled,
        deps_registered,
        deps_deferred,
        deps_released,
        skipped,
        inlined_shed,
        regions_cancelled,
        submissions_shed,
        replays_recorded,
        replays_hit,
        replays_diverged,
        graphs_evicted,
        loops_fresh,
        loops_recycled,
        ws_participations,
        ws_chunks,
        conts_fresh,
        conts_recycled,
        cont_suspends,
        cont_resumes,
        cont_migrations
    );
    out
}

/// `a / b`, or `0.0` when `b` is zero (a ratio over a layer the workload
/// never entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_reports_highest_percentile_with_ten_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 leaves exactly ten beyond it.
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        // 999 samples: p99 would leave 9.99; p95 leaves 49.95.
        assert_eq!(tail(&v(999)).0, 95.0);
        assert_eq!(tail(&v(200)), (95.0, 190.0));
        assert_eq!(tail(&v(100)), (90.0, 90.0));
        assert_eq!(tail(&v(40)), (75.0, 30.0));
        assert_eq!(tail(&v(20)), (50.0, 10.0));
        // Too few for any grid point: the maximum, as percentile 100.
        assert_eq!(tail(&v(9)), (100.0, 9.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
    }

    #[test]
    fn tally_counts_failures_without_panicking() {
        let mut t = Tally::default();
        t.record("ok", Ok(()));
        t.record("corrupted", Err("checksum mismatch".into()));
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn ledger_flags_each_broken_invariant() {
        let sub = Submitted {
            regions: 3,
            replay_armed: 2,
            replay_submits: 3,
        };
        let good = RuntimeStats {
            cont_suspends: 5,
            cont_resumes: 5,
            deps_deferred: 7,
            deps_released: 7,
            replays_recorded: 1,
            replays_hit: 1,
            regions_fresh: 1,
            regions_recycled: 2,
            ..Default::default()
        };
        assert!(ledger(&good, &sub).is_empty());
        let bad = RuntimeStats {
            cont_resumes: 4,
            deps_released: 6,
            replays_hit: 0,
            regions_recycled: 1,
            ..good
        };
        assert_eq!(ledger(&bad, &sub).len(), 4);
    }

    #[test]
    fn created_counts_inlined_tasks_too() {
        let d = RuntimeStats {
            spawned: 10,
            inlined_if: 1,
            inlined_cutoff: 2,
            inlined_final: 3,
            inlined_budget: 4,
            inlined_shed: 5,
            executed: 10,
            ..Default::default()
        };
        assert_eq!(created(&d), 25);
    }

    #[test]
    fn sum_stats_adds_fields() {
        let a = RuntimeStats {
            executed: 3,
            cont_migrations: 1,
            ..Default::default()
        };
        let s = sum_stats(&a, &a);
        assert_eq!((s.executed, s.cont_migrations), (6, 2));
    }
}
