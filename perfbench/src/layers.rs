//! Per-layer metrics of a traced pass: from its `stats()` delta, its
//! allocation count and set-up timings ([`common`]), and from its spans
//! ([`from_spans`]). Ratios over a layer the workload never entered read 0.

use crate::kernels::APPS;
use crate::measure::{median, metric, ratio, Metric};
use crate::serve::KINDS;
use crate::trace::{self_times, Span};
use crate::Pass;

pub fn common(p: &Pass) -> Vec<Metric> {
    let d = &p.stats;
    let f = |v: u64| v as f64;
    let executed = f(d.executed);
    let regions = f(d.regions_fresh + d.regions_recycled);
    let leases = f(d.conts_fresh + d.conts_recycled);
    vec![
        metric("setup.runtime_s", p.setup.runtime_s, "s"),
        metric("setup.inputs_s", p.setup.inputs_s, "s"),
        // pool: dispatch, steal, park
        metric("pool.executed", executed, "count"),
        metric("pool.stolen", f(d.stolen), "count"),
        metric("pool.steal_misses", f(d.steal_misses), "count"),
        metric(
            "pool.steal_hit_ratio",
            ratio(f(d.stolen), f(d.stolen + d.steal_misses)),
            "ratio",
        ),
        metric("pool.parks", f(d.parks), "count"),
        metric("pool.wake_propagations", f(d.wake_propagations), "count"),
        // slab / task: the record lease
        metric("slab.fresh", f(d.slab_fresh), "count"),
        metric("slab.recycled", f(d.slab_recycled), "count"),
        metric("slab.cross_freed", f(d.slab_cross_freed), "count"),
        metric("task.closure_spilled", f(d.closure_spilled), "count"),
        metric(
            "task.inlined",
            f(d.inlined_if
                + d.inlined_cutoff
                + d.inlined_final
                + d.inlined_budget
                + d.inlined_shed),
            "count",
        ),
        // cont: fibers
        metric("cont.leases", leases, "count"),
        metric("cont.lease_per_task", ratio(leases, executed), "ratio"),
        metric("cont.suspends", f(d.cont_suspends), "count"),
        metric(
            "cont.suspend_per_task",
            ratio(f(d.cont_suspends), executed),
            "ratio",
        ),
        metric("cont.migrations", f(d.cont_migrations), "count"),
        metric(
            "cont.migration_ratio",
            ratio(f(d.cont_migrations), f(d.cont_resumes)),
            "ratio",
        ),
        // group
        metric("group.waits", f(d.group_waits), "count"),
        metric("group.fresh", f(d.groups_fresh), "count"),
        metric("group.recycled", f(d.groups_recycled), "count"),
        // deps
        metric("deps.registered", f(d.deps_registered), "count"),
        metric("deps.deferred", f(d.deps_deferred), "count"),
        metric("deps.released", f(d.deps_released), "count"),
        // replay
        metric("replay.recorded", f(d.replays_recorded), "count"),
        metric("replay.hit", f(d.replays_hit), "count"),
        metric("replay.diverged", f(d.replays_diverged), "count"),
        metric(
            "replay.hit_ratio",
            ratio(f(d.replays_hit), f(p.submitted.replay_submits)),
            "ratio",
        ),
        // wsloop
        metric("wsloop.chunks", f(d.ws_chunks), "count"),
        metric("wsloop.participations", f(d.ws_participations), "count"),
        metric("wsloop.recycled", f(d.loops_recycled), "count"),
        // region / injector
        metric("region.fresh", f(d.regions_fresh), "count"),
        metric("region.recycled", f(d.regions_recycled), "count"),
        // allocator, counted in the traced pass's timed phase
        metric("alloc.per_task", ratio(f(p.allocs), executed), "ratio"),
        metric("alloc.per_region", ratio(f(p.allocs), regions), "ratio"),
        metric("alloc.warm_total", f(p.allocs), "count"),
    ]
}

/// Per-layer metrics read off the traced pass's spans: self times, the
/// counter deltas recorded at span boundaries, and span durations.
/// Spans a workload never opens read 0.
pub fn from_spans(spans: &[Span]) -> Vec<Metric> {
    let selfs = self_times(spans);
    let named = |name: &str| -> Vec<(&Span, u64)> {
        spans
            .iter()
            .zip(selfs.iter().copied())
            .filter(|(s, _)| s.name == name)
            .collect()
    };
    let self_s =
        |name: &str| -> Vec<f64> { named(name).iter().map(|&(_, t)| t as f64 / 1e9).collect() };
    let mut out = Vec::new();
    for app in APPS {
        let name = format!("kernel.{app}");
        out.push(metric(format!("{name}_s"), median(&self_s(&name)), "s"));
    }
    for app in APPS {
        let name = format!("kernel.{app}");
        let tasks: Vec<f64> = named(&name)
            .iter()
            .map(|(s, _)| s.counts.executed as f64)
            .collect();
        out.push(metric(format!("{name}_tasks"), median(&tasks), "count"));
    }
    let nodes_per_s: Vec<f64> = named("kernel.floorplan")
        .iter()
        .map(|&(s, t)| s.counts.work as f64 / (t as f64 / 1e9))
        .collect();
    out.push(metric(
        "kernel.floorplan_nodes_per_s",
        median(&nodes_per_s),
        "1/s",
    ));
    let total = |name: &str| self_s(name).iter().fold(0.0, |a, b| a + b);
    out.push(metric("suite.serial_s", total("suite.serial"), "s"));
    out.push(metric("suite.verify_s", total("suite.verify"), "s"));
    let submit_ns: Vec<f64> = self_s("region.submit").iter().map(|t| t * 1e9).collect();
    out.push(metric("region.submit_ns_p50", median(&submit_ns), "ns"));
    for kind in KINDS {
        // Submit → on_complete: the region span's whole duration.
        let name = format!("region.{kind}");
        let lat: Vec<f64> = named(&name)
            .iter()
            .map(|(s, _)| s.dur_ns as f64 / 1e3)
            .collect();
        out.push(metric(format!("{name}_p50_us"), median(&lat), "us"));
    }
    out
}
