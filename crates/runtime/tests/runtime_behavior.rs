//! Behavioural tests for the tasking runtime: OpenMP-model semantics
//! (taskwait, if-clause, final, cut-offs, tied constraint), correctness
//! across team sizes and policies, and panic propagation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bots_runtime::{
    LocalOrder, Runtime, RuntimeConfig, RuntimeCutoff, Scope, TaskAttrs, WorkerCounter,
};

/// Reference Fibonacci.
fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

/// Task-parallel Fibonacci with a depth cut-off, writing results through
/// parent-frame slots (the OpenMP idiom: results return through shared
/// variables, guarded by a task barrier — here a `taskgroup`).
fn fib_task(s: &Scope<'_>, n: u64, depth: u32, cutoff: u32, out: &AtomicU64) {
    if n < 2 {
        out.store(n, Ordering::Relaxed);
        return;
    }
    if depth >= cutoff {
        out.store(fib_seq(n), Ordering::Relaxed);
        return;
    }
    let a = AtomicU64::new(0);
    let b = AtomicU64::new(0);
    s.taskgroup(|s| {
        s.spawn(|s| fib_task(s, n - 1, depth + 1, cutoff, &a));
        s.spawn(|s| fib_task(s, n - 2, depth + 1, cutoff, &b));
    });
    out.store(
        a.load(Ordering::Relaxed) + b.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
}

fn run_fib(rt: &Runtime, n: u64, cutoff: u32) -> u64 {
    rt.parallel(move |s| {
        let out = AtomicU64::new(0);
        fib_task(s, n, 0, cutoff, &out);
        out.load(Ordering::Relaxed)
    })
}

#[test]
fn fib_correct_across_team_sizes() {
    for threads in [1, 2, 4, 8] {
        let rt = Runtime::with_threads(threads);
        assert_eq!(run_fib(&rt, 22, 8), fib_seq(22), "threads={threads}");
    }
}

#[test]
fn fib_correct_under_fifo_policy() {
    let rt = Runtime::new(RuntimeConfig::new(4).with_local_order(LocalOrder::Fifo));
    assert_eq!(run_fib(&rt, 20, 6), fib_seq(20));
}

#[test]
fn fib_correct_without_tied_constraint() {
    let rt = Runtime::new(RuntimeConfig::new(4));
    assert_eq!(run_fib(&rt, 20, 6), fib_seq(20));
}

#[test]
fn fib_correct_with_untied_tasks() {
    let rt = Runtime::with_threads(4);
    let expected = fib_seq(20);
    let got = rt.parallel(|s| {
        fn go(s: &Scope<'_>, n: u64, out: &AtomicU64) {
            if n < 2 {
                out.store(n, Ordering::Relaxed);
                return;
            }
            if n < 12 {
                out.store(fib_seq(n), Ordering::Relaxed);
                return;
            }
            let a = AtomicU64::new(0);
            let b = AtomicU64::new(0);
            s.taskgroup(|s| {
                s.spawn_with(TaskAttrs::untied(), |s| go(s, n - 1, &a));
                s.spawn_with(TaskAttrs::untied(), |s| go(s, n - 2, &b));
            });
            out.store(
                a.load(Ordering::Relaxed) + b.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        let out = AtomicU64::new(0);
        go(s, 20, &out);
        out.load(Ordering::Relaxed)
    });
    assert_eq!(got, expected);
}

#[test]
fn region_returns_closure_value() {
    let rt = Runtime::with_threads(2);
    let v = rt.parallel(|_| 42usize);
    assert_eq!(v, 42);
}

#[test]
fn region_waits_for_detached_children() {
    // Tasks with no taskwait: the region barrier must still wait for them.
    let rt = Runtime::with_threads(4);
    let counter = Arc::new(AtomicUsize::new(0));
    let c = counter.clone();
    rt.parallel(move |s| {
        for _ in 0..64 {
            let c = c.clone();
            s.spawn(move |_| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // no taskwait
    });
    assert_eq!(counter.load(Ordering::Relaxed), 64);
}

#[test]
fn taskwait_waits_direct_children_only() {
    // A child spawns a slow grandchild and returns; taskwait in the root
    // must return once the *child* is done, even if the grandchild is not.
    let rt = Runtime::with_threads(4);
    let grandchild_done = Arc::new(AtomicUsize::new(0));
    let observed_at_taskwait = rt.parallel({
        let gd = grandchild_done.clone();
        move |s| {
            let gd2 = gd.clone();
            s.spawn(move |s| {
                let gd3 = gd2.clone();
                s.spawn(move |_| {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    gd3.fetch_add(1, Ordering::Relaxed);
                });
                // child returns immediately, grandchild still running
            });
            s.taskwait();
            gd.load(Ordering::Relaxed)
        }
    });
    // The taskwait can only have seen the grandchild unfinished or finished;
    // both are legal. But the region end must have waited for it:
    assert_eq!(grandchild_done.load(Ordering::Relaxed), 1);
    assert!(observed_at_taskwait <= 1);
}

#[test]
fn nested_taskwaits_synchronize_levels() {
    let rt = Runtime::with_threads(4);
    let total = AtomicU64::new(0);
    let sum = rt.parallel(|s| {
        for i in 0..8u64 {
            let total = &total;
            s.spawn(move |s| {
                let inner = AtomicU64::new(0);
                s.taskgroup(|s| {
                    for j in 0..8u64 {
                        let inner = &inner;
                        s.spawn(move |_| {
                            inner.fetch_add(i * j, Ordering::Relaxed);
                        });
                    }
                });
                total.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
            });
        }
        s.taskwait();
        total.load(Ordering::Relaxed)
    });
    let expected: u64 = (0..8u64).flat_map(|i| (0..8u64).map(move |j| i * j)).sum();
    assert_eq!(sum, expected);
}

#[test]
fn if_clause_false_is_undeferred_but_counted() {
    let rt = Runtime::with_threads(2);
    rt.parallel(|s| {
        for _ in 0..10 {
            s.spawn_with(TaskAttrs::default().with_if(false), |_| {});
        }
        s.taskwait();
    });
    let stats = rt.stats();
    assert_eq!(stats.inlined_if, 10);
    // Only the region root was deferred through the queues.
    assert_eq!(stats.spawned, 0);
    assert_eq!(stats.creation_points(), 10);
}

#[test]
fn if_clause_false_runs_on_encountering_thread() {
    let rt = Runtime::with_threads(4);
    let ran_on = AtomicUsize::new(usize::MAX);
    let spawner = rt.parallel(|s| {
        let spawner = s.worker_id();
        let ran_on = &ran_on;
        s.spawn_with(TaskAttrs::default().with_if(false), move |inner| {
            ran_on.store(inner.worker_id(), Ordering::Relaxed);
        });
        spawner
    });
    // Undeferred: must have executed synchronously, on the same worker.
    assert_eq!(ran_on.load(Ordering::Relaxed), spawner);
}

#[test]
fn final_task_inlines_descendants() {
    let rt = Runtime::with_threads(2);
    rt.parallel(|s| {
        s.spawn_with(TaskAttrs::default().with_final(true), |s| {
            assert!(s.in_final());
            // These must all be inlined (included tasks).
            for _ in 0..5 {
                s.spawn(|s| {
                    assert!(s.in_final(), "descendant of final must be final");
                });
            }
            s.taskwait();
        });
        s.taskwait();
    });
    let stats = rt.stats();
    assert_eq!(stats.inlined_final, 5);
    assert_eq!(stats.spawned, 1); // only the final task itself was deferred
}

#[test]
fn depth_cutoff_serialises_below_bound() {
    let rt =
        Runtime::new(RuntimeConfig::new(2).with_cutoff(RuntimeCutoff::MaxDepth { max_depth: 2 }));
    assert_eq!(run_fib(&rt, 16, 32), fib_seq(16));
    let stats = rt.stats();
    // Tasks at depth 0 and 1 defer children (depths 1, 2); anything deeper
    // is inlined by the runtime.
    assert!(stats.inlined_cutoff > 0, "cutoff never tripped: {stats}");
    assert!(stats.spawned <= 6, "too many deferred tasks: {stats}");
}

#[test]
fn max_tasks_cutoff_bounds_queue_depth() {
    let rt =
        Runtime::new(RuntimeConfig::new(2).with_cutoff(RuntimeCutoff::MaxTasks { per_worker: 4 }));
    assert_eq!(run_fib(&rt, 20, 32), fib_seq(20));
    let stats = rt.stats();
    assert!(
        stats.inlined_cutoff > 0,
        "MaxTasks cutoff never tripped: {stats}"
    );
}

#[test]
fn adaptive_cutoff_still_correct() {
    let rt = Runtime::new(
        RuntimeConfig::new(4).with_cutoff(RuntimeCutoff::Adaptive { low: 1, high: 2 }),
    );
    assert_eq!(run_fib(&rt, 22, 32), fib_seq(22));
    let stats = rt.stats();
    assert!(
        stats.inlined_cutoff > 0,
        "adaptive cutoff never engaged: {stats}"
    );
}

#[test]
fn max_local_queue_cutoff_still_correct() {
    let rt = Runtime::new(
        RuntimeConfig::new(2).with_cutoff(RuntimeCutoff::MaxLocalQueue { max_len: 8 }),
    );
    assert_eq!(run_fib(&rt, 20, 32), fib_seq(20));
    assert!(rt.stats().inlined_cutoff > 0);
}

#[test]
fn parallel_for_covers_every_index_once() {
    let rt = Runtime::with_threads(4);
    let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
    rt.parallel(|s| {
        let hits = &hits;
        s.parallel_for(0..1000, move |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn parallel_for_chunked_covers_every_index_once() {
    let rt = Runtime::with_threads(3);
    let hits: Vec<AtomicUsize> = (0..237).map(|_| AtomicUsize::new(0)).collect();
    rt.parallel(|s| {
        let hits = &hits;
        s.parallel_for_chunked(0..237, 10, move |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn parallel_for_barrier_waits_for_spawned_tasks() {
    // Tasks created inside the loop body must be complete when parallel_for
    // returns (the omp-for end barrier).
    let rt = Runtime::with_threads(4);
    let counter = AtomicUsize::new(0);
    let done = rt.parallel(|s| {
        let counter = &counter;
        s.parallel_for(0..32, move |_, s| {
            s.spawn(move |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        // Barrier: all 32 inner tasks must have finished.
        counter.load(Ordering::Relaxed)
    });
    assert_eq!(done, 32);
}

#[test]
fn parallel_for_empty_and_tiny_ranges() {
    let rt = Runtime::with_threads(4);
    let hits = AtomicUsize::new(0);
    rt.parallel(|s| {
        s.parallel_for(5..5, |_, _| panic!("must not run"));
        let hits = &hits;
        s.parallel_for(0..1, move |i, _| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

#[test]
fn worker_ids_are_in_range_and_stable() {
    let rt = Runtime::with_threads(4);
    rt.parallel(|s| {
        for _ in 0..100 {
            s.spawn(|s| {
                let id = s.worker_id();
                assert!(id < s.num_workers());
                std::hint::black_box(id);
                // Still on the same worker after some work:
                assert_eq!(s.worker_id(), id);
            });
        }
        s.taskwait();
    });
}

#[test]
fn depth_tracking() {
    let rt = Runtime::with_threads(2);
    rt.parallel(|s| {
        assert_eq!(s.depth(), 0);
        s.spawn(|s| {
            assert_eq!(s.depth(), 1);
            s.spawn(|s| {
                assert_eq!(s.depth(), 2);
            });
            s.taskwait();
            // Inline tasks get a depth too.
            s.spawn_with(TaskAttrs::default().with_if(false), |s| {
                assert_eq!(s.depth(), 2);
            });
        });
        s.taskwait();
    });
}

#[test]
fn panic_in_task_propagates_to_region_caller() {
    let rt = Runtime::with_threads(2);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel(|s| {
            s.spawn(|_| panic!("boom from task"));
            s.taskwait();
        });
    }));
    assert!(outcome.is_err(), "panic must propagate out of parallel()");
    // The runtime must still be usable afterwards.
    assert_eq!(run_fib(&rt, 15, 6), fib_seq(15));
}

#[test]
fn panic_in_root_propagates() {
    let rt = Runtime::with_threads(2);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel(|_| -> usize { panic!("root boom") });
    }));
    assert!(outcome.is_err());
    assert_eq!(rt.parallel(|_| 7), 7);
}

#[test]
fn tied_waits_suspend_instead_of_denying_steals() {
    // The staging that used to force a tied-steal denial: worker 0 runs
    // tied task A, which spawns H and blocks at taskwait; worker 1 steals
    // H, parks visible work D in its own deque and lingers. With
    // continuation stealing, A's blocked frame suspends off worker 0
    // entirely — the worker is free to take D (or anything else), so the
    // scenario that used to produce `tied_steal_denied` now produces
    // suspends/resumes and zero denials.
    let rt = Runtime::new(RuntimeConfig::new(2));
    rt.parallel(|s| {
        let d_spawned = AtomicU64::new(0);
        let a_waiting = AtomicU64::new(0);
        s.taskgroup(|s| {
            // Tied task A (parent = root task; the old constraint would
            // have applied to it).
            s.spawn(|s| {
                s.spawn(|h| {
                    // Child H: runs on the *other* worker (this worker is
                    // spinning below, so only a thief can pick H up). Park
                    // some visible work in the thief's deque, then linger
                    // until A is provably inside its taskwait.
                    h.spawn(|_| {}); // D: stays queued while H lingers.
                    d_spawned.store(1, Ordering::Release);
                    while a_waiting.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                    // Give A's host time to dispatch D with H still live.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                });
                // Don't taskwait until H has been stolen and D is visible.
                while d_spawned.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                a_waiting.store(1, Ordering::Release);
                s.taskwait();
            });
        });
    });
    let stats = rt.stats();
    assert_eq!(
        stats.tied_steal_denied, 0,
        "tied waits must no longer deny steals: {stats}"
    );
    assert!(
        stats.cont_suspends > 0,
        "A's blocked taskwait must have suspended its continuation: {stats}"
    );
    assert_eq!(
        stats.cont_suspends, stats.cont_resumes,
        "every suspend resumes exactly once by quiescence: {stats}"
    );
}

#[test]
fn untied_tasks_allow_stealing_at_taskwait() {
    let rt = Runtime::new(RuntimeConfig::new(8));
    rt.parallel(|s| {
        fn go(s: &Scope<'_>, n: u64, out: &AtomicU64) {
            if n < 2 {
                out.store(n, Ordering::Relaxed);
                return;
            }
            let a = AtomicU64::new(0);
            let b = AtomicU64::new(0);
            s.taskgroup(|s| {
                s.spawn_with(TaskAttrs::untied(), |s| go(s, n - 1, &a));
                s.spawn_with(TaskAttrs::untied(), |s| go(s, n - 2, &b));
            });
            out.store(
                a.load(Ordering::Relaxed) + b.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        let out = AtomicU64::new(0);
        go(s, 18, &out);
        assert_eq!(out.load(Ordering::Relaxed), fib_seq(18));
    });
    let stats = rt.stats();
    assert_eq!(
        stats.tied_steal_denied, 0,
        "untied waits must not be constrained: {stats}"
    );
}

#[test]
fn stats_account_for_all_tasks() {
    let rt = Runtime::with_threads(4);
    let before = rt.stats();
    rt.parallel(|s| {
        for _ in 0..500 {
            s.spawn(|_| {});
        }
        s.taskwait();
    });
    let d = rt.stats().since(&before);
    assert_eq!(d.spawned, 500);
    // executed counts deferred tasks only: 500 children + 1 root.
    assert_eq!(d.executed, 501);
    assert_eq!(d.taskwaits, 1);
}

#[test]
fn worker_counter_threadprivate_reduction() {
    let rt = Runtime::with_threads(8);
    let counter = WorkerCounter::new(rt.num_threads());
    rt.parallel(|s| {
        for i in 0..1000u64 {
            let counter = &counter;
            s.spawn(move |s| counter.add(s, i));
        }
        s.taskwait();
    });
    assert_eq!(counter.sum(), (0..1000).sum::<u64>());
}

#[test]
fn sequential_team_of_one_runs_everything() {
    let rt = Runtime::with_threads(1);
    assert_eq!(run_fib(&rt, 18, 6), fib_seq(18));
    let stats = rt.stats();
    assert_eq!(stats.stolen, 0, "nobody to steal from in a team of one");
}

#[test]
fn many_regions_back_to_back() {
    let rt = Runtime::with_threads(4);
    for i in 0..50u64 {
        let acc = AtomicU64::new(0);
        let got = rt.parallel(|s| {
            for j in 0..16u64 {
                let acc = &acc;
                s.spawn(move |_| {
                    acc.fetch_add(i + j, Ordering::Relaxed);
                });
            }
            s.taskwait();
            acc.load(Ordering::Relaxed)
        });
        assert_eq!(got, (0..16).map(|j| i + j).sum::<u64>());
    }
}

#[test]
fn borrows_from_enclosing_environment() {
    let rt = Runtime::with_threads(4);
    let data: Vec<u64> = (0..1024).collect();
    let acc = AtomicU64::new(0);
    let sum = rt.parallel(|s| {
        let acc = &acc;
        let data = &data;
        for chunk in 0..8 {
            s.spawn(move |_| {
                let part: u64 = data[chunk * 128..(chunk + 1) * 128].iter().sum();
                acc.fetch_add(part, Ordering::Relaxed);
            });
        }
        s.taskwait();
        acc.load(Ordering::Relaxed)
    });
    assert_eq!(sum, (0..1024).sum::<u64>());
}

#[test]
fn deep_serial_chain_of_tasks() {
    // A degenerate chain: each task spawns exactly one child and waits.
    let rt = Runtime::with_threads(2);
    let max_depth = AtomicUsize::new(0);
    let depth_reached = rt.parallel(|s| {
        fn chain(s: &Scope<'_>, left: u32, max_depth: &AtomicUsize) {
            max_depth.fetch_max(s.depth() as usize, Ordering::Relaxed);
            if left == 0 {
                return;
            }
            s.taskgroup(|s| {
                s.spawn(move |s| chain(s, left - 1, max_depth));
            });
        }
        chain(s, 512, &max_depth);
        max_depth.load(Ordering::Relaxed)
    });
    assert_eq!(depth_reached, 512);
}

#[test]
fn stress_many_tiny_tasks() {
    let rt = Runtime::with_threads(8);
    let acc = AtomicU64::new(0);
    let total = rt.parallel(|s| {
        let acc = &acc;
        s.parallel_for_chunked(0..100_000, 64, move |i, _| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        acc.load(Ordering::Relaxed)
    });
    assert_eq!(total, (0..100_000u64).sum::<u64>());
}

#[test]
fn taskgroup_waits_deeply_unlike_taskwait() {
    // A child spawns a slow grandchild; taskgroup must wait for BOTH.
    let rt = Runtime::with_threads(4);
    let grandchild_done = AtomicUsize::new(0);
    rt.parallel(|s| {
        let gd = &grandchild_done;
        s.taskgroup(|s| {
            s.spawn(move |s| {
                s.spawn(move |_| {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    gd.fetch_add(1, Ordering::Relaxed);
                });
                // child returns without waiting
            });
        });
        // Deep wait: the grandchild must be complete here.
        assert_eq!(
            gd.load(Ordering::Relaxed),
            1,
            "taskgroup must wait transitively"
        );
    });
}

#[test]
fn nested_taskgroups_scope_their_members() {
    let rt = Runtime::with_threads(4);
    let order = parking_lot_free_log();
    rt.parallel(|s| {
        let order = &order;
        s.taskgroup(|s| {
            s.spawn(move |s| {
                s.taskgroup(|s| {
                    s.spawn(move |_| {
                        order.lock().unwrap().push("inner");
                    });
                });
                // Inner group done before the outer task finishes.
                order.lock().unwrap().push("after-inner-group");
            });
        });
        order.lock().unwrap().push("after-outer-group");
    });
    let log = order.lock().unwrap().clone();
    assert_eq!(log, vec!["inner", "after-inner-group", "after-outer-group"]);
}

fn parking_lot_free_log() -> std::sync::Mutex<Vec<&'static str>> {
    std::sync::Mutex::new(Vec::new())
}

#[test]
fn taskyield_runs_pending_local_work() {
    let rt = Runtime::with_threads(1);
    let ran = AtomicUsize::new(0);
    rt.parallel(|s| {
        let ran = &ran;
        s.taskgroup(|s| {
            s.spawn(move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            // One worker: the spawned task sits in our deque until a
            // scheduling point. taskyield is one.
            assert_eq!(ran.load(Ordering::Relaxed), 0);
            assert!(s.taskyield(), "there was a task to run");
            assert_eq!(ran.load(Ordering::Relaxed), 1);
            assert!(!s.taskyield(), "nothing left");
        });
    });
}

#[test]
fn taskgroup_returns_body_value() {
    let rt = Runtime::with_threads(2);
    let v = rt.parallel(|s| s.taskgroup(|_| 99usize));
    assert_eq!(v, 99);
}

/// The tied-wait livelock regression, staged deterministically on one
/// worker:
///
/// * root (constraint-exempt) spawns `W` (tied) then `S1`; the FIFO local
///   order makes root's taskwait run `W` first, leaving `S1` queued.
/// * `W` opens a taskgroup and spawns `G` (untied). `W`'s group wait is
///   constrained, pops `G` — a descendant — and runs it.
/// * `G` spawns `H` (which joins `W`'s group), then taskyields. The yield
///   is unconstrained (`G` is untied) and FIFO-pops `S1`, running it under
///   `G`'s frame. `S1` spawns `F` and returns *without* waiting.
/// * The deque is now `[H (top), F (bottom)]` and `G` completes. `W`'s
///   group still has member `H`, but the LIFO end holds `F`, which does
///   not descend from `W`.
///
/// Historically a constrained wait that re-pushed the popped
/// non-descendant re-popped `F` forever (the tied-wait livelock), and a
/// bounded probe past the deque bottom was the workaround. Continuation
/// stealing supersedes the probe: `W`'s blocked group wait suspends off
/// the worker, which then runs `F` and `H` like any other queue items —
/// the scenario stays as a single-worker liveness regression.
#[test]
fn tied_wait_probes_past_foreign_deque_bottom() {
    let rt = Runtime::new(RuntimeConfig::new(1).with_local_order(LocalOrder::Fifo));
    let h_ran = AtomicUsize::new(0);
    let f_ran = AtomicUsize::new(0);
    rt.parallel(|s| {
        let (h_ran, f_ran) = (&h_ran, &f_ran);
        // W: tied child of the root, so its waits are constrained.
        s.spawn(move |w| {
            w.taskgroup(|wg| {
                wg.spawn_with(TaskAttrs::untied(), move |g| {
                    // H: joins W's group; ends up above F in the deque.
                    g.spawn(move |_| {
                        h_ran.fetch_add(1, Ordering::Relaxed);
                    });
                    // Adopt S1 (a non-descendant) under this frame; its
                    // spawn F becomes the foreign record at the LIFO end.
                    g.taskyield();
                });
            });
            // Returning at all is the regression: the group wait drained H
            // despite the foreign blocker at the bottom of the deque.
        });
        // S1: sibling of W; spawns F and returns without waiting, so F
        // stays queued when S1's frame is popped.
        s.spawn(move |s1| {
            s1.spawn(move |_| {
                f_ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        s.taskwait();
    });
    assert_eq!(h_ran.load(Ordering::Relaxed), 1);
    assert_eq!(f_ran.load(Ordering::Relaxed), 1, "region barrier ran F");
}

#[test]
fn group_waits_counted_apart_from_taskwaits() {
    // The Table II skew regression: `taskgroup` used to bump `taskwaits`
    // for its wait, inflating the reported taskwait counts of every kernel
    // built on taskgroups.
    let rt = Runtime::with_threads(2);
    let before = rt.stats();
    rt.parallel(|s| {
        s.taskgroup(|s| {
            s.spawn(|_| {});
        });
        s.taskwait();
    });
    let d = rt.stats().since(&before);
    assert_eq!(d.taskwaits, 1, "only the explicit taskwait counts");
    assert_eq!(d.group_waits, 1, "the group wait has its own counter");
}

#[test]
fn taskgroups_recycle_descriptors() {
    // Deterministic on one worker: after a warm-up pass, every taskgroup
    // must lease a recycled descriptor — a fresh allocation in the steady
    // state is the regression the group pool exists to prevent.
    let rt = Runtime::with_threads(1);
    let run = || {
        rt.parallel(|s| {
            s.taskgroup(|s| {
                for _ in 0..4 {
                    s.spawn(|s| {
                        s.taskgroup(|s| {
                            s.spawn(|s| {
                                s.taskgroup(|_| {});
                            });
                        });
                    });
                }
            });
        })
    };
    run();
    let before = rt.stats();
    run();
    run();
    let d = rt.stats().since(&before);
    assert_eq!(d.groups_fresh, 0, "steady-state taskgroups must recycle");
    assert!(d.groups_recycled > 0, "recycling telemetry must move");
}

#[test]
fn parallel_for_body_panic_is_contained() {
    // A cut-off-inlined generator panics *through* the parallel_for frame
    // (deferred generators' panics are caught by the executor instead);
    // either way the construct must drain its generators — which borrow
    // the body — before the frame unwinds, re-raise at the region joiner,
    // and leave the runtime healthy.
    let rt = Runtime::new(
        RuntimeConfig::new(2).with_cutoff(RuntimeCutoff::MaxLocalQueue { max_len: 1 }),
    );
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel(|s| {
            s.parallel_for_chunked(0..8, 1, |_, _| panic!("generator boom"));
        });
    }));
    assert!(outcome.is_err(), "the body panic must reach the joiner");
    assert_eq!(run_fib(&rt, 15, 6), fib_seq(15), "team must stay usable");
}

#[test]
fn taskgroup_body_panic_still_drains_members() {
    // A panic in the taskgroup *body* (not in a member task) must not pop
    // the frame while members — which may borrow it — are outstanding.
    let rt = Runtime::with_threads(4);
    let members_done = AtomicUsize::new(0);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel(|s| {
            let members_done = &members_done;
            s.taskgroup(|s| {
                for _ in 0..16 {
                    s.spawn(move |_| {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        members_done.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body boom");
            });
        });
    }));
    assert!(outcome.is_err());
    // The unwind path waited for every member before leaving the frame.
    assert_eq!(members_done.load(Ordering::Relaxed), 16);
    assert_eq!(rt.parallel(|_| 7), 7);
}
