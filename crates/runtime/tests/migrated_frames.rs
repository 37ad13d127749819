//! Regression test for frames that suspend on one worker and resume on
//! another: taskgroup trees in flight beside worksharing loops.
//!
//! A taskgroup wait or a loop drain can park its fiber on worker A and be
//! resumed by worker B. Everything the frame does afterwards — returning
//! its group or loop descriptor to the pool, bumping counters — must act
//! as worker B. If a thread-local read is inlined, an optimised build may
//! keep the thread-local address computed before the suspend and act as
//! worker A from B's thread, pushing onto A's owner-only free list
//! concurrently with A: a descriptor is lost or handed out twice, a
//! continuation is never resumed, and the region never completes.
//!
//! The bug only shows in optimised builds, so CI runs this test with
//! `cargo test --release -p bots-runtime --test migrated_frames`. A
//! debug build runs a shorter version of the same workload.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bots_runtime::{LoopMode, RegionHandle, Runtime, Scope};

/// Regions in the release-mode run (about 10 s on a 2-CPU machine).
const REGIONS: u64 = if cfg!(debug_assertions) {
    5_000
} else {
    200_000
};
/// Regions kept in flight at once.
const IN_FLIGHT: usize = 4;
/// A region that takes longer than this has stalled.
const STALL: Duration = Duration::from_secs(10);
const TREE_DEPTH: u64 = 6;
const LOOP_N: usize = 4096;
const LOOP_CHUNK: usize = 64;

/// Fibonacci-shaped task tree whose every level joins with a taskgroup.
fn tree(s: &Scope<'_>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = (AtomicU64::new(0), AtomicU64::new(0));
    s.taskgroup(|s| {
        s.spawn(|s| a.store(tree(s, n - 1), Ordering::Relaxed));
        s.spawn(|s| b.store(tree(s, n - 2), Ordering::Relaxed));
    });
    a.load(Ordering::Relaxed) + b.load(Ordering::Relaxed)
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

fn submit(rt: &Runtime, i: u64) -> (RegionHandle<'_, u64>, u64) {
    if i.is_multiple_of(2) {
        (rt.region(|s| tree(s, TREE_DEPTH)).submit(), fib(TREE_DEPTH))
    } else {
        let handle = rt
            .region(|s| {
                let sum = Arc::new(AtomicU64::new(0));
                let acc = Arc::clone(&sum);
                s.for_each(0..LOOP_N, move |k, _| {
                    acc.fetch_add(k as u64, Ordering::Relaxed);
                })
                .chunk(LOOP_CHUNK)
                .mode(LoopMode::Worksharing)
                .run();
                sum.load(Ordering::Relaxed)
            })
            .submit();
        (handle, (LOOP_N as u64 * (LOOP_N as u64 - 1)) / 2)
    }
}

#[test]
fn taskgroup_trees_beside_worksharing_loops_never_stall() {
    let rt = Runtime::with_threads(2);
    let before = rt.stats();
    let collect = |(mut handle, want): (RegionHandle<'_, u64>, u64)| match handle.try_join(STALL) {
        Some(outcome) => assert_eq!(outcome.unwrap(), want),
        None => {
            // A panic would unwind into the in-flight handles' drop, which
            // joins the stalled region and hangs: report and leave the
            // process instead. Written to stderr directly, because the test
            // harness's output capture is lost on `exit`.
            let _ = writeln!(
                std::io::stderr(),
                "a region stalled for {STALL:?}: {:?}",
                rt.stats().since(&before)
            );
            std::process::exit(1);
        }
    };
    let mut in_flight = VecDeque::new();
    for i in 0..REGIONS {
        in_flight.push_back(submit(&rt, i));
        if in_flight.len() == IN_FLIGHT {
            collect(in_flight.pop_front().unwrap());
        }
    }
    in_flight.into_iter().for_each(collect);
    let d = rt.stats().since(&before);
    assert_eq!(
        d.cont_suspends, d.cont_resumes,
        "a suspended frame was lost"
    );
}
