//! `serve-mixed`: a closed loop in which one client thread keeps regions in
//! flight through `rt.region(..).submit()`: 16 on a team of 1 (the
//! one-thread reference), then W = 2 × nproc on a team of nproc, both
//! teams built afresh [`CYCLES`] times. Each region is one of five bodies,
//! in a seeded order:
//!
//! * `tree` — a spawn tree shaped like fib(14), each node joining its two
//!   children with `taskwait`;
//! * `dag-live` — an 8×8 tile wavefront of `after_read`/`after_write` tasks;
//! * `dag-replay` — the same body under one replay token;
//! * `loop` — a worksharing `for_each` of 4096 iterations, chunk 64;
//! * `empty` — a root that only returns its input.
//!
//! Every result is checked against a value computed serially in set-up.
//! Latency runs from the start of the submit call until the region's
//! `on_complete` callback fires on the completing worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bots::profile::alloc_calls;
use bots::runtime::{
    LoopMode, RegionError, ReplayPhase, Runtime, RuntimeConfig, RuntimeStats, Scope,
};

use crate::measure::{median, metric, sum_stats, tail, Submitted, Tally};
use crate::trace::{Counts, Tracer};
use crate::{repeat_setup, Ctx, Pass, Setup};

pub const KINDS: [&str; 5] = ["tree", "dag-live", "dag-replay", "loop", "empty"];
const KIND_SPANS: [&str; 5] = [
    "region.tree",
    "region.dag-live",
    "region.dag-replay",
    "region.loop",
    "region.empty",
];
const TREE: usize = 0;
const DAG_LIVE: usize = 1;
const DAG_REPLAY: usize = 2;
const LOOP: usize = 3;
const EMPTY: usize = 4;

const TREE_N: u32 = 14;
const SIDE: usize = 8;
const LOOP_N: usize = 4096;
const LOOP_CHUNK: usize = 64;
const REPLAY_TOKEN: u64 = 0xDA6_5EED;
/// Region specs generated per set-up; the loop cycles through them.
const SPECS: usize = 4096;
/// A closed loop that sees no completion for this long has lost a region.
const STALL: Duration = Duration::from_secs(10);
/// Trace ids of regions, unique over the whole run (each team's loop
/// restarts the spec sequence).
static REGION_IDS: AtomicU64 = AtomicU64::new(0);
/// Regions of the untimed warm-up loop in set-up.
const WARM_REGIONS: u64 = 1000;

/// One region to submit: its body kind, its input and its expected result.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: usize,
    input: u64,
    want: u64,
}

/// The data a region's tasks write, one per in-flight slot. Leaked at
/// set-up so that `'static` region bodies can borrow it.
struct Slot {
    tiles: [AtomicU64; SIDE * SIDE],
    acc: AtomicU64,
}

fn leak_slot() -> &'static Slot {
    Box::leak(Box::new(Slot {
        tiles: std::array::from_fn(|_| AtomicU64::new(0)),
        acc: AtomicU64::new(0),
    }))
}

fn tile(i: usize, j: usize, up: u64, left: u64, input: u64) -> u64 {
    up.wrapping_add(left)
        .wrapping_add(input ^ (i * SIDE + j) as u64)
}

fn loop_term(i: usize, input: u64) -> u64 {
    // Non-linear in `input`, so the sum depends on it.
    let x = (i as u64)
        .wrapping_add(input)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

fn tree_serial(n: u32) -> u64 {
    if n < 2 {
        n as u64
    } else {
        tree_serial(n - 1) + tree_serial(n - 2)
    }
}

fn dag_serial(input: u64) -> u64 {
    let mut t = [0u64; SIDE * SIDE];
    for i in 0..SIDE {
        for j in 0..SIDE {
            let up = if i > 0 { t[(i - 1) * SIDE + j] } else { 0 };
            let left = if j > 0 { t[i * SIDE + j - 1] } else { 0 };
            t[i * SIDE + j] = tile(i, j, up, left, input);
        }
    }
    t[SIDE * SIDE - 1]
}

fn loop_serial(input: u64) -> u64 {
    (0..LOOP_N).fold(0u64, |a, i| a.wrapping_add(loop_term(i, input)))
}

/// The serial computation of one body: its expected result.
fn expected(kind: usize, input: u64) -> u64 {
    match kind {
        TREE => tree_serial(TREE_N).wrapping_add(input),
        DAG_LIVE | DAG_REPLAY => dag_serial(input),
        LOOP => loop_serial(input),
        EMPTY => input,
        _ => unreachable!("region kind {kind} out of range"),
    }
}

/// Seeded region specs with their expected results: every kind equally
/// often, in a seeded order, with seeded inputs.
fn specs(seed: u64) -> Vec<Spec> {
    let mut rng = bots::inputs::Rng::new(seed);
    let mut kinds: Vec<usize> = (0..SPECS).map(|i| i % KINDS.len()).collect();
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|kind| {
            let input = rng.next_u64();
            Spec {
                kind,
                input,
                want: expected(kind, input),
            }
        })
        .collect()
}

fn tree(s: &Scope<'_>, n: u32, acc: &'static AtomicU64) {
    if n < 2 {
        acc.fetch_add(n as u64, Ordering::Relaxed);
        return;
    }
    s.spawn(move |s| tree(s, n - 1, acc));
    s.spawn(move |s| tree(s, n - 2, acc));
    s.taskwait();
}

fn dag(s: &Scope<'static>, slot: &'static Slot, input: u64) {
    for i in 0..SIDE {
        for j in 0..SIDE {
            let mut task = s.task(move |_| {
                let up = if i > 0 {
                    slot.tiles[(i - 1) * SIDE + j].load(Ordering::Relaxed)
                } else {
                    0
                };
                let left = if j > 0 {
                    slot.tiles[i * SIDE + j - 1].load(Ordering::Relaxed)
                } else {
                    0
                };
                slot.tiles[i * SIDE + j].store(tile(i, j, up, left, input), Ordering::Relaxed);
            });
            if i > 0 {
                task = task.after_read(&slot.tiles[(i - 1) * SIDE + j]);
            }
            if j > 0 {
                task = task.after_read(&slot.tiles[i * SIDE + j - 1]);
            }
            task.after_write(&slot.tiles[i * SIDE + j]).spawn();
        }
    }
}

/// A completion, sent by the `on_complete` callback.
struct Done {
    slot: usize,
    at: Instant,
    value: Result<u64, String>,
}

/// A region in flight.
struct InFlight {
    spec: Spec,
    id: u64,
    start: Instant,
    submitted: Instant,
}

/// One measurement window of a timed closed loop.
#[derive(Debug, Clone, Copy)]
struct Window {
    regions_per_s: f64,
    p50_us: f64,
    tail_us: f64,
    /// The percentile `tail_us` is, and the samples it came from.
    tail_of: (f64, usize),
    ns_per_task: f64,
}

/// What a closed loop measured.
#[derive(Default)]
struct LoopOut {
    /// Latency of every region, by kind.
    per_kind_us: [Vec<f64>; 5],
    /// Timed loops only: one entry per [`WINDOW`] before the deadline.
    windows: Vec<Window>,
    wall_s: f64,
    submitted: Submitted,
    tally: Tally,
}

/// When a closed loop stops submitting.
enum Stop {
    After(u64),
    At(Instant),
}

/// Timed loops report medians over windows of this length, so a burst
/// of interference on the machine moves one window, not the result.
const WINDOW: Duration = Duration::from_millis(250);

impl LoopOut {
    /// Pools another loop's samples and counts into this one.
    fn absorb(&mut self, o: LoopOut) {
        for (mine, theirs) in self.per_kind_us.iter_mut().zip(o.per_kind_us) {
            mine.extend(theirs);
        }
        self.windows.extend(o.windows);
        self.wall_s += o.wall_s;
        self.submitted.add(o.submitted);
        self.tally.add(o.tally);
    }
}

/// Submits `spec` into `slot` and arranges for its completion to be sent
/// on `done`. Returns the in-flight record and the replay phase the
/// runtime armed.
fn submit(
    rt: &Runtime,
    spec: Spec,
    id: u64,
    slot: usize,
    data: &'static Slot,
    done: &mpsc::Sender<Done>,
) -> (InFlight, ReplayPhase) {
    let input = spec.input;
    let start = Instant::now();
    let handle = match spec.kind {
        TREE => rt
            .region(move |s| {
                data.acc.store(0, Ordering::Relaxed);
                tree(s, TREE_N, &data.acc);
                data.acc.load(Ordering::Relaxed).wrapping_add(input)
            })
            .submit(),
        DAG_LIVE => rt
            .region(move |s| {
                dag(s, data, input);
                0
            })
            .submit(),
        DAG_REPLAY => rt
            .region(move |s| {
                dag(s, data, input);
                0
            })
            .replay(REPLAY_TOKEN)
            .submit(),
        LOOP => rt
            .region(move |s| {
                data.acc.store(0, Ordering::Relaxed);
                s.for_each(0..LOOP_N, move |i, _| {
                    data.acc.fetch_add(loop_term(i, input), Ordering::Relaxed);
                })
                .chunk(LOOP_CHUNK)
                .mode(LoopMode::Worksharing)
                .run();
                data.acc.load(Ordering::Relaxed)
            })
            .submit(),
        _ => rt.region(move |_| input).submit(),
    };
    let submitted = Instant::now();
    let phase = handle.stats().replay;
    let dag = matches!(spec.kind, DAG_LIVE | DAG_REPLAY);
    let done = done.clone();
    handle.on_complete(move |out: Result<u64, RegionError>| {
        let at = Instant::now();
        // A DAG's result is its last tile, final once the region quiesced.
        let value = out
            .map(|v| {
                if dag {
                    data.tiles[SIDE * SIDE - 1].load(Ordering::Relaxed)
                } else {
                    v
                }
            })
            .map_err(|e| e.to_string());
        // The receiver outlives every region: the client drains all
        // completions before it drops it.
        let _ = done.send(Done { slot, at, value });
    });
    (
        InFlight {
            spec,
            id,
            start,
            submitted,
        },
        phase,
    )
}

/// Checks one completed region.
fn check(spec: &Spec, value: &Result<u64, String>) -> Result<(), String> {
    match value {
        Ok(v) if *v == spec.want => Ok(()),
        Ok(v) => Err(format!(
            "{} region returned {v:#x}, expected {:#x}",
            KINDS[spec.kind], spec.want
        )),
        Err(e) => Err(format!("{} region failed: {e}", KINDS[spec.kind])),
    }
}

/// Runs the closed loop: `slots.len()` regions in flight, drawn in order
/// from `specs` starting at `*next`, until `stop`; then drains.
fn closed_loop(
    rt: &Runtime,
    specs: &[Spec],
    next: &mut usize,
    slots: &[&'static Slot],
    stop: Stop,
    tracer: &mut Tracer,
) -> LoopOut {
    let mut out = LoopOut::default();
    let (tx, rx) = mpsc::channel::<Done>();
    let mut inflight: Vec<Option<InFlight>> = slots.iter().map(|_| None).collect();
    let mut issue = |slot: usize, out: &mut LoopOut| {
        let spec = specs[*next % specs.len()];
        let id = REGION_IDS.fetch_add(1, Ordering::Relaxed);
        *next += 1;
        let (f, phase) = submit(rt, spec, id, slot, slots[slot], &tx);
        out.submitted.regions += 1;
        if spec.kind == DAG_REPLAY {
            out.submitted.replay_submits += 1;
            if phase != ReplayPhase::Off {
                out.submitted.replay_armed += 1;
            }
        }
        f
    };
    let t0 = Instant::now();
    for (slot, f) in inflight.iter_mut().enumerate() {
        *f = Some(issue(slot, &mut out));
    }
    let timed = matches!(stop, Stop::At(_));
    let (mut win_start, mut win_stats, mut win_lat) = (t0, rt.stats(), Vec::new());
    let mut live = slots.len();
    while live > 0 {
        let Ok(d) = rx.recv_timeout(STALL) else {
            // No region completed for STALL: the runtime lost one. It can
            // be neither finished nor dropped (dropping waits for it), so
            // report the stuck regions as failures and stop the run here.
            for f in inflight.iter().flatten() {
                out.tally.record(
                    KINDS[f.spec.kind],
                    Err(format!("region {} did not complete within {STALL:?}", f.id)),
                );
            }
            let st = rt.stats();
            eprintln!(
                "perfbench: STALL with {live} regions in flight; executed {} cont suspends/resumes {}/{} \
                 deps deferred/released {}/{}",
                st.executed, st.cont_suspends, st.cont_resumes, st.deps_deferred, st.deps_released
            );
            crate::exit_stalled(out.tally);
        };
        let f = inflight[d.slot]
            .take()
            .expect("a completion for an in-flight slot");
        let t = Instant::now();
        out.tally
            .record(KINDS[f.spec.kind], check(&f.spec, &d.value));

        let lat_us = (d.at - f.start).as_secs_f64() * 1e6;
        out.per_kind_us[f.spec.kind].push(lat_us);
        win_lat.push(lat_us);
        // A loop shorter than one window still closes one, at its end.
        let past = matches!(stop, Stop::At(deadline) if t >= deadline);
        if timed
            && live == slots.len()
            && (t - win_start >= WINDOW || (past && out.windows.is_empty()))
        {
            let st = rt.stats();
            let secs = (t - win_start).as_secs_f64();
            let (p, tail_us) = tail(&win_lat);
            out.windows.push(Window {
                regions_per_s: win_lat.len() as f64 / secs,
                p50_us: median(&win_lat),
                tail_us,
                tail_of: (p, win_lat.len()),
                ns_per_task: secs * 1e9 / st.since(&win_stats).executed as f64,
            });
            (win_start, win_stats) = (t, st);
            win_lat.clear();
        }
        let lane = d.slot as u32 + 1;
        let parent = tracer.record(
            KIND_SPANS[f.spec.kind],
            f.id,
            0,
            lane,
            f.start,
            d.at,
            Counts::default(),
        );
        tracer.record(
            "region.submit",
            f.id,
            parent,
            lane,
            f.start,
            f.submitted,
            Counts::default(),
        );

        let more = match stop {
            Stop::After(n) => out.submitted.regions < n,
            Stop::At(deadline) => t < deadline,
        };
        if more {
            inflight[d.slot] = Some(issue(d.slot, &mut out));
        } else {
            live -= 1;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// What one team's phase of `serve-mixed` measured.
struct Phase {
    setup: Setup,
    out: LoopOut,
    stats: RuntimeStats,
    allocs: u64,
}

fn serve_phase(
    ctx: &Ctx,
    tracer: &mut Tracer,
    team: usize,
    in_flight: usize,
    budget_s: f64,
) -> Phase {
    let mut warm_tally = Tally::default();
    let ((rt, specs, slots, mut next), setup) = repeat_setup(|| {
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
        let specs = specs(ctx.seed);
        let slots: Vec<&'static Slot> = (0..in_flight).map(|_| leak_slot()).collect();
        let t2 = Instant::now();
        tracer.record("setup.inputs", ctx.seed, 0, 0, t1, t2, Counts::default());
        // Warm pools, fibers, the replay cache and the injector; the
        // timed loop continues the spec sequence where this one stops.
        let mut next = 0;
        let warm = closed_loop(
            &rt,
            &specs,
            &mut next,
            &slots,
            Stop::After(WARM_REGIONS),
            &mut Tracer::off(),
        );
        warm_tally.add(warm.tally);
        tracer.record(
            "setup.warmup",
            team as u64,
            0,
            0,
            t2,
            Instant::now(),
            Counts::default(),
        );
        (
            (rt, specs, slots, next),
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
        )
    });
    let before = rt.stats();
    let a0 = alloc_calls();
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut out = closed_loop(&rt, &specs, &mut next, &slots, Stop::At(deadline), tracer);
    let allocs = alloc_calls() - a0;
    let stats = rt.stats().since(&before);
    out.tally.add(warm_tally);
    Phase {
        setup,
        out,
        stats,
        allocs,
    }
}

/// Median over the windows of one field.
fn over_windows(out: &LoopOut, field: impl Fn(&Window) -> f64) -> f64 {
    median(&out.windows.iter().map(field).collect::<Vec<_>>())
}

/// Regions in flight on the team of 1: enough that its worker never waits
/// on the client, so the phase measures per-task cost, not wake-up
/// latency (which dominates at W = 2 and varies run to run).
const ONE_IN_FLIGHT: usize = 16;

/// Team pairs built per run. A team's speed depends on where its threads
/// land, which varies from team to team by 10–20% on a small machine; the
/// windows of several teams are pooled so that no one placement decides.
const CYCLES: usize = 4;

/// Each cycle runs the closed loop on a new team of 1 — the program's
/// one-thread reference — for a third of its share of the budget, then on
/// a new team of nproc for the rest.
pub fn serve_mixed(ctx: &Ctx, tracer: &mut Tracer) -> Pass {
    let share = ctx.seconds / CYCLES as f64;
    let (mut one, mut many) = (LoopOut::default(), LoopOut::default());
    let (mut setups, mut stats, mut allocs) = (Vec::new(), RuntimeStats::default(), 0);
    for _ in 0..CYCLES {
        // Spans describe the nproc teams; the teams of 1 are untraced.
        let a = serve_phase(ctx, &mut Tracer::off(), 1, ONE_IN_FLIGHT, share / 3.0);
        let b = serve_phase(ctx, tracer, ctx.nproc, 2 * ctx.nproc, share * 2.0 / 3.0);
        setups.push(a.setup.plus(b.setup));
        stats = sum_stats(&sum_stats(&stats, &a.stats), &b.stats);
        allocs += a.allocs + b.allocs;
        one.absorb(a.out);
        many.absorb(b.out);
    }

    let t1 = over_windows(&one, |w| w.ns_per_task);
    let tn = over_windows(&many, |w| w.ns_per_task);
    let e2e = vec![
        metric(
            "suite_s",
            (0..KINDS.len())
                .map(|k| median(&many.per_kind_us[k]) / 1e6)
                .sum(),
            "s",
        ),
        // A mixed loop has no per-kind throughput: one ratio, per task.
        metric("speedup_geomean", t1 / tn, "x"),
        metric("ns_per_task_t1", t1, "ns"),
        metric("ns_per_task_tn", tn, "ns"),
        metric(
            "regions_per_s",
            over_windows(&many, |w| w.regions_per_s),
            "1/s",
        ),
        metric("region_p50_us", over_windows(&many, |w| w.p50_us), "us"),
        metric("region_p99_us", over_windows(&many, |w| w.tail_us), "us"),
    ];
    let mut tally = one.tally;
    tally.add(many.tally);
    let mut submitted = one.submitted;
    submitted.add(many.submitted);
    // Every submitted region completed: the loops drain before returning.
    let regions = submitted.regions;
    Pass {
        setup: Setup::median_of(&setups),
        teams: vec![1, ctx.nproc],
        in_flight: vec![ONE_IN_FLIGHT, 2 * ctx.nproc],
        tally,
        submitted,
        stats,
        allocs,
        cost_s: (one.wall_s + many.wall_s) / regions as f64,
        e2e,
        // The least percentile and sample count over the windows.
        tail: many.windows.iter().fold((100.0, usize::MAX), |(p, n), w| {
            (p.min(w.tail_of.0), n.min(w.tail_of.1))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_their_recurrences() {
        assert_eq!(expected(TREE, 0), 377, "fib(14)");
        assert_eq!(expected(EMPTY, 9), 9);
        assert_eq!(expected(DAG_LIVE, 5), expected(DAG_REPLAY, 5));
        assert_ne!(expected(LOOP, 1), expected(LOOP, 2));
    }

    #[test]
    fn every_kind_verifies_on_a_small_team() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let specs: Vec<Spec> = (0..KINDS.len() * 4)
            .map(|i| {
                let (kind, input) = (i % KINDS.len(), i as u64 * 7919);
                Spec {
                    kind,
                    input,
                    want: expected(kind, input),
                }
            })
            .collect();
        let slots: Vec<&'static Slot> = (0..3).map(|_| leak_slot()).collect();
        let mut next = 0;
        let before = rt.stats();
        let out = closed_loop(
            &rt,
            &specs,
            &mut next,
            &slots,
            Stop::After(60),
            &mut Tracer::off(),
        );
        let d = rt.stats().since(&before);
        assert_eq!(
            out.tally,
            Tally {
                attempted: 60,
                failed: 0
            }
        );
        assert!(crate::measure::ledger(&d, &out.submitted).is_empty());
        assert!(out.submitted.replay_submits > 0);
    }

    #[test]
    fn corrupted_region_result_is_a_counted_failure() {
        let spec = Spec {
            kind: LOOP,
            input: 3,
            want: expected(LOOP, 3),
        };
        let mut tally = Tally::default();
        tally.record("good", check(&spec, &Ok(spec.want)));
        tally.record("corrupted", check(&spec, &Ok(spec.want ^ 1)));
        tally.record("cancelled", check(&spec, &Err("cancelled".into())));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
