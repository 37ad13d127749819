//! Integration tests for continuation stealing: blocked waits suspend
//! their pooled cactus-stack frames, any worker resumes them, and the
//! books balance afterwards.
//!
//! The invariants pinned here:
//!
//! * **exactly-once resumption** — `cont_suspends == cont_resumes` at
//!   quiescence, whatever the schedule: no lost wakeup (the region would
//!   hang), no double wakeup (two workers would run one stack);
//! * **migration really happens** — a staged wait whose children finish
//!   on another worker resumes *there* (`cont_migrations`), and post-wait
//!   code observes every child done even so;
//! * **lease accounting** — continuations leased are released: the pool's
//!   created count is bounded by live suspension depth, not by how many
//!   waits ran, and warm waits lease recycled frames;
//! * **TSC-2 regression** — a *tied* task's wait on a child with a
//!   cross-subtree dependence completes on a one-thread team, the exact
//!   shape that deadlocked when tied waits pinned their worker;
//! * **panics and cancellation unwind through suspension points** —
//!   a body that suspended earlier (or whose children panic) still
//!   settles to balanced counters and a reusable team.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bots_runtime::{Runtime, RuntimeConfig, Scope};

/// A spawn-then-wait ladder `depth` rungs tall: every rung defers exactly
/// one child and immediately `taskwait`s, so on a single thread *every*
/// rung's wait finds the child pending and must suspend.
fn wait_ladder(s: &Scope<'_>, depth: u32, ticks: &'static AtomicU64) {
    ticks.fetch_add(1, Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    s.spawn(move |s| wait_ladder(s, depth - 1, ticks));
    s.taskwait();
}

/// Every rung of a one-thread ladder suspends, every suspend resumes
/// exactly once, and the ladder completes: the tightest deterministic
/// exercise of the suspend/wake/resume protocol (no thief can drain a
/// child before its parent reaches the wait).
#[test]
fn single_thread_ladder_suspends_every_rung() {
    static TICKS: AtomicU64 = AtomicU64::new(0);
    let rt = Runtime::with_threads(1);
    let before = rt.stats();
    rt.parallel(|s| wait_ladder(s, 64, &TICKS));
    assert_eq!(TICKS.load(Ordering::Relaxed), 65);
    let d = rt.stats().since(&before);
    assert!(
        d.cont_suspends >= 64,
        "every rung's taskwait must suspend on one thread, saw {}",
        d.cont_suspends
    );
    assert_eq!(
        d.cont_suspends, d.cont_resumes,
        "every suspend must resume exactly once"
    );
    assert_eq!(d.cont_migrations, 0, "one thread has nowhere to migrate to");
}

/// Suspends equal resumes at quiescence across team widths and repeated
/// regions — no lost or double wakeups survive the full-team schedule
/// noise of many concurrent ladders.
#[test]
fn suspends_equal_resumes_at_quiescence() {
    static TICKS: AtomicU64 = AtomicU64::new(0);
    for workers in [1usize, 2, 4] {
        let rt = Runtime::with_threads(workers);
        for _ in 0..8 {
            rt.parallel(|s| {
                for _ in 0..8 {
                    s.spawn(|s| wait_ladder(s, 24, &TICKS));
                }
            });
            let stats = rt.stats();
            assert_eq!(
                stats.cont_suspends, stats.cont_resumes,
                "quiescent team with unbalanced suspend/resume books at {workers} workers"
            );
        }
        let stats = rt.stats();
        assert!(
            stats.cont_suspends > 0,
            "ladders must actually suspend at {workers} workers"
        );
    }
}

/// A staged migration: the waiter's group member is stolen by the other
/// worker, which retires it only once the waiter's own worker is provably
/// busy elsewhere. The wake then queues the waiter on the thief's deque and
/// the thief resumes it — a migration by construction, not by luck. Wide
/// waves then check that resumed group waits observe every member.
#[test]
fn blocked_waiters_migrate_to_the_waking_worker() {
    static DONE: AtomicU64 = AtomicU64::new(0);
    static MEMBER_STARTED: AtomicBool = AtomicBool::new(false);
    static BLOCKER_STARTED: AtomicBool = AtomicBool::new(false);
    static WAITER_RESUMED: AtomicBool = AtomicBool::new(false);
    let rt = Runtime::with_threads(2);
    let before = rt.stats();
    rt.parallel(|s| {
        let home = s.worker_id();
        s.taskgroup(|g| {
            // The member: this frame keeps its worker busy until the
            // other worker has stolen and started it.
            g.spawn(|_| {
                MEMBER_STARTED.store(true, Ordering::SeqCst);
                while !BLOCKER_STARTED.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
            while !MEMBER_STARTED.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // The blocker (not a group member) sits on this worker's deque:
            // the worker can only run it once the group wait below has
            // suspended, and it holds the worker until the waiter resumed.
            s.spawn(|_| {
                BLOCKER_STARTED.store(true, Ordering::SeqCst);
                while !WAITER_RESUMED.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
        });
        WAITER_RESUMED.store(true, Ordering::SeqCst);
        assert_ne!(s.worker_id(), home, "the waiter resumed on its own worker");
    });
    let d = rt.stats().since(&before);
    assert!(d.cont_migrations > 0, "the staged waiter did not migrate");
    assert_eq!(d.cont_suspends, d.cont_resumes);

    // Wide waves: every resumed group wait observes all its members.
    let rt = Runtime::with_threads(4);
    for _ in 0..64 {
        rt.parallel(|s| {
            for _ in 0..4 {
                s.spawn(|s| {
                    let local = AtomicU64::new(0);
                    s.taskgroup(|s| {
                        let local = &local;
                        for _ in 0..16 {
                            s.spawn(move |_| {
                                local.fetch_add(1, Ordering::Relaxed);
                                DONE.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                    assert_eq!(
                        local.load(Ordering::Relaxed),
                        16,
                        "a resumed group wait must observe every member"
                    );
                });
            }
        });
    }
    assert_eq!(DONE.load(Ordering::Relaxed), 64 * 4 * 16);
    let d = rt.stats();
    assert_eq!(d.cont_suspends, d.cont_resumes);
}

/// A frame unwinding through a group wait must not suspend: the panic in
/// flight is counted per thread, so finishing the unwind on another worker
/// would corrupt both workers' panic state. The unwinding wait helps in
/// place instead, and every member still runs before the frame is left.
#[test]
fn unwinding_waits_help_instead_of_suspending() {
    static MEMBERS_DONE: AtomicU64 = AtomicU64::new(0);
    let rt = Runtime::with_threads(4);
    let before = rt.stats();
    for _ in 0..8 {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.parallel(|s| {
                s.taskgroup(|s| {
                    for _ in 0..16 {
                        s.spawn(|_| {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            MEMBERS_DONE.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    panic!("body boom");
                });
            });
        }));
        assert!(outcome.is_err());
    }
    assert_eq!(MEMBERS_DONE.load(Ordering::Relaxed), 8 * 16);
    let d = rt.stats().since(&before);
    assert_eq!(d.cont_suspends, 0, "an unwinding frame suspended");
}

/// The TSC-2 regression: a **tied** task taskwaits on a child that
/// depends on a task *outside* the waiting subtree, on one thread. Under
/// worker-pinned tied waits this deadlocked (the waiter could not legally
/// run the cross-subtree predecessor); with suspension the worker is
/// freed, runs the predecessor, and the graph drains — no untied
/// attribute, no config escape hatch.
#[test]
fn cross_subtree_dependence_completes_with_tied_waiter() {
    static DONE: AtomicU64 = AtomicU64::new(0);
    static OBJ: AtomicU64 = AtomicU64::new(0);
    let rt = Runtime::with_threads(1);
    rt.parallel(|s| {
        // The predecessor: a sibling of the waiter, outside its subtree.
        s.task(move |_| {
            DONE.fetch_add(1, Ordering::Relaxed);
        })
        .after_write(&OBJ)
        .spawn();
        // The waiter is deliberately plain `spawn` — tied, the default.
        s.spawn(move |s| {
            s.task(move |_| {
                DONE.fetch_add(10, Ordering::Relaxed);
            })
            .after_read(&OBJ)
            .spawn();
            s.taskwait();
            assert_eq!(DONE.load(Ordering::Relaxed), 11);
        });
    });
    assert_eq!(DONE.load(Ordering::Relaxed), 11);
}

/// Lease accounting: the pool's created population tracks peak concurrent
/// suspension depth, not wait volume — thousands of warm waits lease
/// recycled frames and create (almost) nothing new.
#[test]
fn warm_waits_lease_recycled_continuations() {
    static TICKS: AtomicU64 = AtomicU64::new(0);
    let rt = Runtime::with_threads(2);
    let run = || {
        rt.parallel(|s| {
            for _ in 0..4 {
                s.spawn(|s| wait_ladder(s, 16, &TICKS));
            }
        });
    };
    for _ in 0..4 {
        run();
    }
    let created_warm = rt.conts_created();
    let before = rt.stats();
    for _ in 0..32 {
        run();
    }
    let d = rt.stats().since(&before);
    let created_after = rt.conts_created();
    assert!(
        d.conts_recycled > 0,
        "warm ladders must lease from the free lists"
    );
    assert!(
        d.conts_recycled > d.conts_fresh,
        "recycling never took over: fresh={} recycled={}",
        d.conts_fresh,
        d.conts_recycled
    );
    // 32 more regions of identical shape may grow the pool a little
    // (schedule noise shifts which worker leases), but never in
    // proportion to the waits served.
    assert!(
        created_after <= created_warm * 2 + 8,
        "pool population exploded: {created_warm} warm, {created_after} after"
    );
}

/// A panicking child unwinds through its parent's suspended wait: the
/// wait still completes (panics count as completion), the region reports
/// the payload, the books balance, and the team is reusable.
#[test]
fn child_panics_unwind_through_suspended_waits() {
    static TICKS: AtomicU64 = AtomicU64::new(0);
    let rt = Runtime::with_threads(2);
    for round in 0..8 {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.parallel(|s| {
                s.spawn(|s| {
                    for i in 0..8 {
                        s.spawn(move |_| {
                            TICKS.fetch_add(1, Ordering::Relaxed);
                            if i == 3 {
                                panic!("child fault");
                            }
                        });
                    }
                    // On one side of the race this wait suspends before
                    // the faulting child runs; either way it must return.
                    s.taskwait();
                });
            });
        }));
        assert!(outcome.is_err(), "round {round}: the panic must surface");
        let stats = rt.stats();
        assert_eq!(
            stats.cont_suspends, stats.cont_resumes,
            "round {round}: unbalanced books after a panicking child"
        );
    }
    // The team survived eight faulted regions: an ordinary region still
    // runs to completion afterwards.
    static AFTER: AtomicU64 = AtomicU64::new(0);
    rt.parallel(|s| wait_ladder(s, 16, &AFTER));
    assert_eq!(AFTER.load(Ordering::Relaxed), 17);
}

/// Mid-wait cancellation: a region cancelled while frames sit suspended
/// in group waits still drains to a typed `Cancelled` outcome with
/// balanced suspend/resume books — a cancel must wake suspended waiters,
/// not strand them.
#[test]
fn cancellation_drains_suspended_waiters() {
    static TICKS: AtomicU64 = AtomicU64::new(0);

    fn storm(s: &Scope<'_>, depth: u32) {
        if depth == 0 || s.is_cancelled() {
            return;
        }
        TICKS.fetch_add(1, Ordering::Relaxed);
        s.taskgroup(|s| {
            for _ in 0..2 {
                s.spawn(move |s| storm(s, depth - 1));
            }
        });
    }

    let rt = Runtime::with_threads(4);
    for _ in 0..8 {
        let before = TICKS.load(Ordering::Relaxed);
        let mut h = rt.submit(|s| {
            storm(s, 40);
            s.taskwait();
        });
        while TICKS.load(Ordering::Relaxed) - before < 500 && !h.is_finished() {
            std::hint::spin_loop();
        }
        h.cancel();
        let outcome = loop {
            if let Some(o) = h.try_join(std::time::Duration::from_millis(50)) {
                break o;
            }
        };
        assert!(
            outcome.is_err(),
            "an effectively unbounded storm quiesces only by cancellation"
        );
        let stats = rt.stats();
        assert_eq!(
            stats.cont_suspends, stats.cont_resumes,
            "cancellation stranded suspended waiters"
        );
    }
}

/// Deep suspension on small stacks: a 512-rung ladder (512 concurrently
/// suspended frames) on a one-thread team with the smallest permitted
/// continuation stacks — the cactus stack grows by pooled frames, never
/// by worker-stack recursion.
#[test]
fn deep_suspension_chains_fit_small_stacks() {
    static TICKS: AtomicU64 = AtomicU64::new(0);
    let rt = Runtime::new(RuntimeConfig::new(1).with_cont_stack(16 * 1024));
    rt.parallel(|s| wait_ladder(s, 512, &TICKS));
    assert_eq!(TICKS.load(Ordering::Relaxed), 513);
    let stats = rt.stats();
    assert!(stats.cont_suspends >= 512);
    assert_eq!(stats.cont_suspends, stats.cont_resumes);
}
