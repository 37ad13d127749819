//! The layer ladder: one public call per rung, on a warm team of 1, each
//! rung adding a layer to the one below it. A rung's increase over the
//! rung below prices the layer it adds, as finely as public calls allow:
//!
//! | rung | one operation | adds |
//! |---|---|---|
//! | `deque_ns` | `TaskDeque::push` + `pop` | deque |
//! | `steal_ns` | `push` + `Stealer::steal` | steal path |
//! | `if0_ns` | `task(..).if_clause(false).spawn()` | record lease, undeferred dispatch |
//! | `spawn_ns` | `spawn` + share of `taskwait` | deque, pool dispatch, fiber lease |
//! | `group_ns` | `spawn` inside one `taskgroup` | group membership |
//! | `group1_ns` | `taskgroup` holding one `spawn` | group lease + wait |
//! | `dep_ns` | `task().after_write(distinct)` | deps registration |
//! | `chain_edge_ns` | `after_write(same)`, per edge | deps defer/release |
//! | `replay_edge_ns` | the chain under `.replay(token)`, per edge | replay |
//! | `task_iter_ns` | `for_each` `Tasks` mode, chunk 1, per iteration | task-per-chunk loop |
//! | `ws_iter_ns` | `for_each` `Worksharing`, chunk 1, per iteration | wsloop claims |
//! | `region_ns` | `region(..).join()` of an empty body | region/injector |

use std::hint::black_box;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bots::runtime::deque::{deque, Steal};
use bots::runtime::{LoopMode, Runtime, RuntimeConfig, Scope};

use crate::measure::{median, metric, Metric, Tally};
use crate::trace::{Counts, Tracer};

/// Operations per batch, and batches per rung (after two warm batches).
const OPS: usize = 4096;
const BATCHES: usize = 15;
const WARM: usize = 2;
const REPLAY_TOKEN: u64 = 0x1ADD;

/// Times one rung: `batch` performs `ops` operations and checks them.
fn rung(
    name: &'static str,
    ops: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut batch: impl FnMut() -> Result<(), String>,
) -> Metric {
    let mut per_op = Vec::with_capacity(BATCHES);
    for b in 0..WARM + BATCHES {
        let t0 = Instant::now();
        let check = batch();
        let t1 = Instant::now();
        if b >= WARM {
            per_op.push((t1 - t0).as_secs_f64() * 1e9 / ops as f64);
            tracer.record(name, b as u64, 0, 0, t0, t1, Counts::default());
        }
        tally.record(name, check);
    }
    metric(name, median(&per_op), "ns")
}

/// `count` must equal `want` after a batch whose tasks each bump it.
fn drained(count: &AtomicU64, want: usize) -> Result<(), String> {
    match count.swap(0, Ordering::Relaxed) {
        n if n == want as u64 => Ok(()),
        n => Err(format!("{n} task bodies ran, expected {want}")),
    }
}

/// A write-after-write chain of `OPS` tasks on `obj`: task `i` finds
/// `i - 1` there and stores `i`, so any broken edge shows in `misordered`.
fn chain<'e>(s: &Scope<'e>, obj: &'e AtomicU64, misordered: &'e AtomicU64) {
    for i in 0..OPS as u64 {
        s.task(move |_| {
            if obj.load(Ordering::Relaxed) != i.saturating_sub(1) {
                misordered.fetch_add(1, Ordering::Relaxed);
            }
            obj.store(i, Ordering::Relaxed);
        })
        .after_write(obj)
        .spawn();
    }
}

pub fn run(tracer: &mut Tracer, tally: &mut Tally) -> Vec<Metric> {
    let rt = Runtime::new(RuntimeConfig::new(1));
    let ran = AtomicU64::new(0);
    let bump = || {
        ran.fetch_add(1, Ordering::Relaxed);
    };
    let mut out = Vec::new();

    let (owner, thief) = deque::<u64>();
    let mut cell = 0u64;
    let item = NonNull::from(&mut cell);
    out.push(rung("ladder.deque_ns", OPS, tracer, tally, || {
        for _ in 0..OPS {
            owner.push(item);
            if black_box(owner.pop()) != Some(item) {
                return Err("pop lost the pushed item".into());
            }
        }
        Ok(())
    }));
    out.push(rung("ladder.steal_ns", OPS, tracer, tally, || {
        for _ in 0..OPS {
            owner.push(item);
            if black_box(thief.steal()) != Steal::Success(item) {
                return Err("steal lost the pushed item".into());
            }
        }
        Ok(())
    }));

    out.push(rung("ladder.if0_ns", OPS, tracer, tally, || {
        rt.region(|s| {
            for _ in 0..OPS {
                s.task(|_| bump()).if_clause(false).spawn();
            }
        })
        .join();
        drained(&ran, OPS)
    }));
    out.push(rung("ladder.spawn_ns", OPS, tracer, tally, || {
        rt.region(|s| {
            for _ in 0..OPS {
                s.spawn(|_| bump());
            }
            s.taskwait();
        })
        .join();
        drained(&ran, OPS)
    }));
    out.push(rung("ladder.group_ns", OPS, tracer, tally, || {
        rt.region(|s| {
            s.taskgroup(|s| {
                for _ in 0..OPS {
                    s.spawn(|_| bump());
                }
            })
        })
        .join();
        drained(&ran, OPS)
    }));
    out.push(rung("ladder.group1_ns", OPS, tracer, tally, || {
        rt.region(|s| {
            for _ in 0..OPS {
                s.taskgroup(|s| s.spawn(|_| bump()));
            }
        })
        .join();
        drained(&ran, OPS)
    }));

    let objs: Vec<AtomicU64> = (0..OPS).map(|_| AtomicU64::new(0)).collect();
    out.push(rung("ladder.dep_ns", OPS, tracer, tally, || {
        rt.region(|s| {
            for o in &objs {
                s.task(|_| bump()).after_write(o).spawn();
            }
        })
        .join();
        drained(&ran, OPS)
    }));
    let (obj, misordered) = (AtomicU64::new(0), AtomicU64::new(0));
    let chain_end = || match (
        obj.swap(0, Ordering::Relaxed),
        misordered.swap(0, Ordering::Relaxed),
    ) {
        (end, 0) if end == OPS as u64 - 1 => Ok(()),
        (end, bad) => Err(format!(
            "chain ended at {end} with {bad} tasks out of order"
        )),
    };
    out.push(rung("ladder.chain_edge_ns", OPS - 1, tracer, tally, || {
        rt.region(|s| chain(s, &obj, &misordered)).join();
        chain_end()
    }));
    let before = rt.stats();
    out.push(rung(
        "ladder.replay_edge_ns",
        OPS - 1,
        tracer,
        tally,
        || {
            rt.region(|s| chain(s, &obj, &misordered))
                .replay(REPLAY_TOKEN)
                .join();
            chain_end()
        },
    ));
    let d = rt.stats().since(&before);
    // Two warm batches: the first records, every later one replays.
    tally.record(
        "ladder.replay_edge_ns hits",
        match d.replays_hit {
            n if n == (WARM + BATCHES - 1) as u64 => Ok(()),
            n => Err(format!("{n} replay hits, expected {}", WARM + BATCHES - 1)),
        },
    );

    for (name, mode) in [
        ("ladder.task_iter_ns", LoopMode::Tasks),
        ("ladder.ws_iter_ns", LoopMode::Worksharing),
    ] {
        out.push(rung(name, OPS, tracer, tally, || {
            rt.region(|s| s.for_each(0..OPS, |_, _| bump()).chunk(1).mode(mode).run())
                .join();
            drained(&ran, OPS)
        }));
    }
    out.push(rung("ladder.region_ns", OPS, tracer, tally, || {
        for _ in 0..OPS {
            rt.region(|_| bump()).join();
        }
        drained(&ran, OPS)
    }));
    out
}
