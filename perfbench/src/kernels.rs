//! The kernel workloads, driven through `Benchmark::run_parallel` and
//! `Benchmark::run_serial`:
//!
//! * `suite-medium` — every kernel's Fig. 3 best version at the medium
//!   class on a team of nproc, each beside its serial reference (the
//!   paper's own experiment; kernel bodies dominate);
//! * `fine-grain` — Fib and NQueens `nocutoff-untied` at the small class
//!   on a team of 1, then of nproc (task bodies of a few ns, so the
//!   per-task runtime path dominates).

use std::time::{Duration, Instant};

use bots::profile::alloc_calls;
use bots::runtime::{Runtime, RuntimeConfig, RuntimeStats};
use bots::suite::{
    Benchmark, CutoffMode, InputClass, RunOutput, Tiedness, Verification, VersionSpec,
};

use crate::measure::{created, geomean, median, metric, sum_stats, tail, Submitted, Tally};
use crate::trace::{Counts, Tracer};
use crate::{repeat_setup, shuffled, Ctx, Pass};

/// Kernel names in registry (Table I) order, and their span names.
pub const APPS: [&str; 9] = [
    "alignment",
    "fft",
    "fib",
    "floorplan",
    "health",
    "nqueens",
    "sort",
    "sparselu",
    "strassen",
];
const SPANS: [&str; 9] = [
    "kernel.alignment",
    "kernel.fft",
    "kernel.fib",
    "kernel.floorplan",
    "kernel.health",
    "kernel.nqueens",
    "kernel.sort",
    "kernel.sparselu",
    "kernel.strassen",
];
const FIB: usize = 2;
const NQUEENS: usize = 5;

/// Checks a parallel output: self-checking kernels by their own test,
/// `AgainstSerial` ones against the serial output of the same run.
pub fn verify(
    bench: &dyn Benchmark,
    class: InputClass,
    out: &RunOutput,
    serial: Option<&RunOutput>,
) -> Result<(), String> {
    match bench.verify(class, out) {
        Verification::SelfChecked => Ok(()),
        Verification::Failed(why) => Err(why),
        Verification::AgainstSerial => match serial {
            Some(s) if s.checksum == out.checksum => Ok(()),
            Some(s) => Err(format!(
                "checksum {:#x} != serial {:#x} ({} vs {})",
                out.checksum, s.checksum, out.summary, s.summary
            )),
            None => Err("no serial reference in this run".into()),
        },
    }
}

/// Per-kernel samples over a pass.
#[derive(Default, Clone)]
struct KernelRec {
    /// `run_parallel` wall times, s.
    parallel: Vec<f64>,
    /// The same, Floorplan normalised to the serial node count.
    normalised: Vec<f64>,
    /// `run_serial` wall times, s.
    serial: Vec<f64>,
}

/// One timed `run_parallel` call.
struct Call {
    wall_s: f64,
    out: RunOutput,
    d: RuntimeStats,
    /// Allocation calls inside it (counted in the traced pass only).
    allocs: u64,
}

fn call_parallel(
    rt: &Runtime,
    bench: &dyn Benchmark,
    k: usize,
    class: InputClass,
    version: VersionSpec,
    tracer: &mut Tracer,
) -> Call {
    let s0 = rt.stats();
    let a0 = alloc_calls();
    let t0 = Instant::now();
    let out = bench.run_parallel(rt, class, version);
    let t1 = Instant::now();
    let allocs = alloc_calls() - a0;
    let d = rt.stats().since(&s0);
    let counts = Counts {
        executed: d.executed,
        stolen: d.stolen,
        cont_suspends: d.cont_suspends,
        allocs,
        work: out.work.unwrap_or(0),
    };
    tracer.record(SPANS[k], k as u64, 0, 0, t0, t1, counts);
    Call {
        wall_s: (t1 - t0).as_secs_f64(),
        out,
        d,
        allocs,
    }
}

fn timed_serial(bench: &dyn Benchmark, class: InputClass, tracer: &mut Tracer) -> (RunOutput, f64) {
    let t0 = Instant::now();
    let out = bench.run_serial(class);
    let t1 = Instant::now();
    tracer.record("suite.serial", 0, 0, 0, t0, t1, Counts::default());
    (out, (t1 - t0).as_secs_f64())
}

/// Builds a team and warms it (and the kernels' lazy state) with one
/// verified test-class call of each kernel in `warm`. Returns the team
/// with its construction time.
fn warm_team(
    team: usize,
    benches: &[Box<dyn Benchmark>],
    warm: &[(usize, VersionSpec)],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Runtime, f64) {
    let t0 = Instant::now();
    let rt = Runtime::new(RuntimeConfig::new(team));
    let t1 = Instant::now();
    tracer.record(
        "setup.runtime",
        team as u64,
        0,
        0,
        t0,
        t1,
        Counts::default(),
    );
    for &(k, version) in warm {
        let b = benches[k].as_ref();
        let out = b.run_parallel(&rt, InputClass::Test, version);
        let serial = b.run_serial(InputClass::Test);
        tally.record(APPS[k], verify(b, InputClass::Test, &out, Some(&serial)));
    }
    tracer.record(
        "setup.warmup",
        team as u64,
        0,
        0,
        t1,
        Instant::now(),
        Counts::default(),
    );
    (rt, (t1 - t0).as_secs_f64())
}

/// Times the seeded input generation: here, the order calls are made in.
fn seeded_order(seed: u64, n: usize, tracer: &mut Tracer) -> (Vec<usize>, f64) {
    let t0 = Instant::now();
    let order = shuffled(seed, n);
    let t1 = Instant::now();
    tracer.record("setup.inputs", seed, 0, 0, t0, t1, Counts::default());
    (order, (t1 - t0).as_secs_f64())
}

pub fn suite_medium(ctx: &Ctx, tracer: &mut Tracer) -> Pass {
    let class = InputClass::Medium;
    let benches = bots::registry();
    let best: Vec<(usize, VersionSpec)> = benches
        .iter()
        .enumerate()
        .map(|(k, b)| (k, b.best_version()))
        .collect();
    let mut tally = Tally::default();
    let ((rt, order), setup) = repeat_setup(|| {
        let (rt, runtime_s) = warm_team(ctx.nproc, &benches, &best, tracer, &mut tally);
        let (order, inputs_s) = seeded_order(ctx.seed, benches.len(), tracer);
        ((rt, order), runtime_s, inputs_s)
    });

    let mut recs = vec![KernelRec::default(); APPS.len()];
    let (mut calls, mut par_wall, mut ser_wall, mut passes) = (0, 0.0, 0.0, 0);
    // The first pass also pays first-touch costs of the medium inputs.
    let mut last_pass_wall;
    let (before, mut allocs) = (rt.stats(), 0);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // Whole passes over the nine kernels, at least `min_passes`, until the
    // budget is spent. Each kernel's serial reference runs right before its
    // parallel call, so drift in the machine's speed hits both sides of its
    // speed-up alike.
    loop {
        last_pass_wall = 0.0;
        for &k in &order {
            let (b, version) = (benches[k].as_ref(), best[k].1);
            let (serial, ser_s) = timed_serial(b, class, tracer);
            let call = call_parallel(&rt, b, k, class, version, tracer);
            let t0 = Instant::now();
            tally.record(APPS[k], verify(b, class, &call.out, Some(&serial)));
            tracer.record(
                "suite.verify",
                k as u64,
                0,
                0,
                t0,
                Instant::now(),
                Counts::default(),
            );

            let r = &mut recs[k];
            r.parallel.push(call.wall_s);
            r.serial.push(ser_s);
            // Floorplan's pruning differs run to run: its time enters
            // scaled to the serial run's node count (nodes/s ratio).
            r.normalised.push(match (serial.work, call.out.work) {
                (Some(sn), Some(pn)) if pn > 0 => call.wall_s * sn as f64 / pn as f64,
                _ => call.wall_s,
            });
            calls += 1;
            allocs += call.allocs;
            par_wall += call.wall_s;
            ser_wall += ser_s;
            last_pass_wall += call.wall_s;
        }
        passes += 1;
        if passes >= ctx.min_passes && Instant::now() >= deadline {
            break;
        }
    }
    let stats = rt.stats().since(&before);
    drop(rt);

    // Latencies are taken over each kernel's median call, Floorplan
    // normalised as in `suite_s`. Over single calls the tail would be the
    // one slowest call, set by a kernel's worst pass or by Floorplan's
    // pruning luck, and the middle-ranked call is one of the memory-bound
    // kernels, picked by rank; both swing far more than `suite_s` when
    // the machine slows. The typical call is the geometric mean instead.
    let kernel_us: Vec<f64> = recs.iter().map(|r| median(&r.normalised) * 1e6).collect();
    // Tasks created, not executed: a cut-off that inlines more must not
    // shrink the denominator.
    let tasks = created(&stats) as f64;
    let e2e = vec![
        metric(
            "suite_s",
            recs.iter().map(|r| median(&r.normalised)).sum(),
            "s",
        ),
        metric(
            "speedup_geomean",
            geomean(
                &recs
                    .iter()
                    .map(|r| median(&r.serial) / median(&r.normalised))
                    .collect::<Vec<_>>(),
            ),
            "x",
        ),
        metric("ns_per_task_t1", ser_wall * 1e9 / tasks, "ns"),
        metric("ns_per_task_tn", par_wall * 1e9 / tasks, "ns"),
        metric(
            "regions_per_s",
            (stats.regions_fresh + stats.regions_recycled) as f64 / par_wall,
            "1/s",
        ),
        metric("region_p50_us", geomean(&kernel_us), "us"),
        metric("region_p99_us", tail(&kernel_us).1, "us"),
    ];
    Pass {
        setup,
        teams: vec![ctx.nproc],
        in_flight: vec![1],
        tally,
        submitted: Submitted {
            regions: calls,
            ..Default::default()
        },
        stats,
        allocs,
        cost_s: last_pass_wall / order.len() as f64,
        e2e,
        tail: (tail(&kernel_us).0, kernel_us.len()),
    }
}

/// What one team's phase of `fine-grain` measured.
struct Phase {
    setup: crate::Setup,
    /// ns per executed task, one value per round.
    round_ns_per_task: Vec<f64>,
    recs: Vec<KernelRec>,
    latencies_us: Vec<f64>,
    wall_s: f64,
    calls: u64,
    stats: RuntimeStats,
    allocs: u64,
    tally: Tally,
}

/// One round calls Fib once and NQueens twice (NQueens calls are half as
/// long), in a seeded order; on the nproc team each round also times both
/// serial references.
const ROUND: [usize; 3] = [FIB, NQUEENS, NQUEENS];
/// Least time each serial reference runs per round, s.
const SERIAL_MIN_S: f64 = 0.2;

/// One round on a new team.
fn fine_phase(
    ctx: &Ctx,
    tracer: &mut Tracer,
    benches: &[Box<dyn Benchmark>],
    team: usize,
    with_serial: bool,
) -> Phase {
    let class = InputClass::Small;
    let version = VersionSpec::default()
        .cutoff(CutoffMode::NoCutoff)
        .tied(Tiedness::Untied);
    let warm = [(FIB, version), (NQUEENS, version)];
    let mut tally = Tally::default();
    let ((rt, order), setup) = repeat_setup(|| {
        let (rt, runtime_s) = warm_team(team, benches, &warm, tracer, &mut tally);
        let (order, inputs_s) = seeded_order(ctx.seed ^ team as u64, ROUND.len(), tracer);
        ((rt, order), runtime_s, inputs_s)
    });

    let mut p = Phase {
        setup,
        round_ns_per_task: Vec::new(),
        recs: vec![KernelRec::default(); APPS.len()],
        latencies_us: Vec::new(),
        wall_s: 0.0,
        calls: 0,
        stats: RuntimeStats::default(),
        allocs: 0,
        tally,
    };
    let before = rt.stats();
    let (mut wall, mut tasks) = (0.0, 0u64);
    for &i in &order {
        let k = ROUND[i];
        let b = benches[k].as_ref();
        let call = call_parallel(&rt, b, k, class, version, tracer);
        let t0 = Instant::now();
        p.tally.record(APPS[k], verify(b, class, &call.out, None));
        tracer.record(
            "suite.verify",
            k as u64,
            0,
            0,
            t0,
            Instant::now(),
            Counts::default(),
        );
        wall += call.wall_s;
        tasks += call.d.executed;
        p.allocs += call.allocs;
        p.recs[k].parallel.push(call.wall_s);
        p.latencies_us.push(call.wall_s * 1e6);
        p.calls += 1;
    }
    p.round_ns_per_task.push(wall * 1e9 / tasks as f64);
    p.wall_s += wall;
    if with_serial {
        // Serial Fib takes milliseconds: repeat each reference until
        // it has run for SERIAL_MIN_S and keep the mean per call.
        for k in [FIB, NQUEENS] {
            let (mut total, mut calls) = (0.0, 0);
            while total < SERIAL_MIN_S {
                total += timed_serial(benches[k].as_ref(), class, tracer).1;
                calls += 1;
            }
            p.recs[k].serial.push(total / calls as f64);
        }
    }
    p.stats = rt.stats().since(&before);
    p
}

impl Phase {
    /// Pools another phase's samples and counts into this one.
    fn absorb(&mut self, o: Phase) {
        for (mine, theirs) in self.recs.iter_mut().zip(o.recs) {
            mine.parallel.extend(theirs.parallel);
            mine.serial.extend(theirs.serial);
        }
        self.round_ns_per_task.extend(o.round_ns_per_task);
        self.latencies_us.extend(o.latencies_us);
        self.wall_s += o.wall_s;
        self.calls += o.calls;
        self.stats = sum_stats(&self.stats, &o.stats);
        self.allocs += o.allocs;
        self.tally.add(o.tally);
    }
}

/// Rounds on each team size per run, at least; more while the budget
/// lasts. Every round runs on a team built for it, so that the thread
/// placement of one team, which moves its speed by 10–20% on a small
/// machine, does not decide the result.
const MIN_CYCLES: usize = 2;

pub fn fine_grain(ctx: &Ctx, tracer: &mut Tracer) -> Pass {
    let benches = bots::registry();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // Spans describe the nproc teams; the teams of 1 are untraced.
    let mut one = fine_phase(ctx, &mut Tracer::off(), &benches, 1, false);
    let mut many = fine_phase(ctx, tracer, &benches, ctx.nproc, true);
    let mut setups = vec![one.setup.plus(many.setup)];
    while setups.len() < MIN_CYCLES || Instant::now() < deadline {
        let a = fine_phase(ctx, &mut Tracer::off(), &benches, 1, false);
        let b = fine_phase(ctx, tracer, &benches, ctx.nproc, true);
        setups.push(a.setup.plus(b.setup));
        one.absorb(a);
        many.absorb(b);
    }

    let per_kernel = |k: usize| median(&many.recs[k].parallel);
    let speedups: Vec<f64> = [FIB, NQUEENS]
        .iter()
        .map(|&k| median(&many.recs[k].serial) / per_kernel(k))
        .collect();
    let e2e = vec![
        metric("suite_s", per_kernel(FIB) + per_kernel(NQUEENS), "s"),
        metric("speedup_geomean", geomean(&speedups), "x"),
        metric("ns_per_task_t1", median(&one.round_ns_per_task), "ns"),
        metric("ns_per_task_tn", median(&many.round_ns_per_task), "ns"),
        metric("regions_per_s", many.calls as f64 / many.wall_s, "1/s"),
        metric("region_p50_us", median(&many.latencies_us), "us"),
        metric("region_p99_us", tail(&many.latencies_us).1, "us"),
    ];
    let mut tally = one.tally;
    tally.add(many.tally);
    let calls = one.calls + many.calls;
    Pass {
        setup: crate::Setup::median_of(&setups),
        teams: vec![1, ctx.nproc],
        in_flight: vec![1, 1],
        tally,
        submitted: Submitted {
            regions: calls,
            ..Default::default()
        },
        stats: sum_stats(&one.stats, &many.stats),
        allocs: one.allocs + many.allocs,
        cost_s: (one.wall_s + many.wall_s) / calls as f64,
        e2e,
        tail: (tail(&many.latencies_us).0, many.latencies_us.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_kernel_result_is_a_counted_failure() {
        let benches = bots::registry();
        let rt = Runtime::new(RuntimeConfig::new(1));
        let mut tally = Tally::default();
        for k in [FIB, 1 /* FFT: checked against serial */] {
            let b = benches[k].as_ref();
            let serial = b.run_serial(InputClass::Test);
            let mut out = b.run_parallel(&rt, InputClass::Test, b.best_version());
            tally.record("good", verify(b, InputClass::Test, &out, Some(&serial)));
            out.checksum ^= 1;
            out.summary.push_str(" (corrupted)");
            tally.record(
                "corrupted",
                verify(b, InputClass::Test, &out, Some(&serial)),
            );
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
    }

    #[test]
    fn against_serial_without_a_reference_fails() {
        let benches = bots::registry();
        let b = benches[1].as_ref();
        let out = b.run_serial(InputClass::Test);
        assert!(verify(b, InputClass::Test, &out, None).is_err());
    }

    #[test]
    fn span_names_follow_the_registry() {
        let names: Vec<String> = bots::registry()
            .iter()
            .map(|b| b.meta().name.to_lowercase())
            .collect();
        assert_eq!(names, APPS);
        for (app, span) in APPS.iter().zip(SPANS) {
            assert_eq!(span, format!("kernel.{app}"));
        }
    }
}
