//! Stress tests: concurrent region submission, rapid region churn, and
//! large imbalanced task trees under every policy combination.

use std::sync::atomic::{AtomicU64, Ordering};

use bots_runtime::{LocalOrder, Runtime, RuntimeConfig, RuntimeCutoff, Scope};

#[test]
fn concurrent_parallel_calls_overlap_safely() {
    // `parallel` takes &self; callers on different threads run their
    // regions concurrently on the one team and must all complete correctly.
    let rt = Runtime::with_threads(4);
    let total = AtomicU64::new(0);
    std::thread::scope(|ts| {
        for caller in 0..4u64 {
            let rt = &rt;
            let total = &total;
            ts.spawn(move || {
                for i in 0..8u64 {
                    let got = rt.parallel(|s| {
                        let acc = AtomicU64::new(0);
                        s.taskgroup(|s| {
                            for j in 0..32u64 {
                                let acc = &acc;
                                s.spawn(move |_| {
                                    acc.fetch_add(caller * 1000 + i * 10 + j, Ordering::Relaxed);
                                });
                            }
                        });
                        acc.load(Ordering::Relaxed)
                    });
                    total.fetch_add(got, Ordering::Relaxed);
                }
            });
        }
    });
    let expect: u64 = (0..4u64)
        .flat_map(|c| (0..8u64).flat_map(move |i| (0..32u64).map(move |j| c * 1000 + i * 10 + j)))
        .sum();
    assert_eq!(total.load(Ordering::Relaxed), expect);
}

#[test]
fn region_churn() {
    // Thousands of tiny regions: lifecycle bookkeeping must not leak or
    // wedge.
    let rt = Runtime::with_threads(3);
    for i in 0..2000u64 {
        let got = rt.parallel(move |_| i * 2);
        assert_eq!(got, i * 2);
    }
}

/// A deliberately imbalanced tree: left spine spawns heavy subtrees.
fn skewed(s: &Scope<'_>, depth: u32, acc: &AtomicU64) {
    acc.fetch_add(1, Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    s.taskgroup(|s| {
        // One heavy child, several trivial ones.
        s.spawn(move |s| skewed(s, depth - 1, acc));
        for _ in 0..3 {
            s.spawn(move |_| {
                acc.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
}

#[test]
fn imbalanced_trees_under_all_policies() {
    let expect = {
        // nodes(d) = 1 + 3 + nodes(d-1); nodes(0) = 1
        let mut n = 1u64;
        for _ in 0..64 {
            n += 4;
        }
        n
    };
    for order in [LocalOrder::Lifo, LocalOrder::Fifo] {
        for cutoff in [
            RuntimeCutoff::None,
            RuntimeCutoff::MaxTasks { per_worker: 4 },
            RuntimeCutoff::Adaptive { low: 1, high: 4 },
        ] {
            let rt = Runtime::new(
                RuntimeConfig::new(6)
                    .with_local_order(order)
                    .with_cutoff(cutoff),
            );
            let acc = AtomicU64::new(0);
            rt.parallel(|s| skewed(s, 64, &acc));
            assert_eq!(
                acc.load(Ordering::Relaxed),
                expect,
                "order={order:?} cutoff={cutoff:?}"
            );
        }
    }
}

#[test]
fn wide_flat_fanout() {
    // 200k sibling tasks from a single generator (the single-generator
    // bottleneck pattern): stresses deque growth and the injector path.
    let rt = Runtime::with_threads(8);
    let acc = AtomicU64::new(0);
    rt.parallel(|s| {
        let acc = &acc;
        s.taskgroup(|s| {
            for _ in 0..200_000u64 {
                s.spawn(move |_| {
                    acc.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(acc.load(Ordering::Relaxed), 200_000);
}

/// Fib-shaped spawn tree with no cut-off: every call below `n` is a real
/// deferred task.
fn fib_tree(s: &Scope<'_>, n: u64, out: &AtomicU64) {
    if n < 2 {
        out.fetch_add(n, Ordering::Relaxed);
        return;
    }
    s.taskgroup(|s| {
        s.spawn(move |s| fib_tree(s, n - 1, out));
        s.spawn(move |s| fib_tree(s, n - 2, out));
    });
}

/// Call-tree size of `fib_tree(n)`: `2 * fib(n + 1) - 1` nodes.
fn fib_tree_nodes(n: u64) -> u64 {
    let (mut a, mut b) = (1u64, 1u64); // fib(1), fib(2)
    for _ in 1..=n {
        let c = a + b;
        a = b;
        b = c;
    }
    2 * a - 1
}

#[test]
fn million_task_tree_recycles_records() {
    // The record-pool acceptance test: a fib-shaped tree of ~1.66M tasks at
    // every small team size. Exact task accounting must hold, and the slab
    // must serve almost every spawn from a free list — the pool high-water
    // mark (fresh records) is bounded by the tree depth and steal traffic,
    // not by the task count.
    let n = 29u64; // 1_664_079 nodes
    let total_nodes = fib_tree_nodes(n);
    assert!(total_nodes > 1_000_000);
    let spawned_tasks = total_nodes - 1; // every node but the region root

    let fib_value = {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..n {
            let c = a + b;
            a = b;
            b = c;
        }
        a
    };

    for threads in [1usize, 2, 4] {
        let rt = Runtime::with_threads(threads);
        let before = rt.stats();
        let out = AtomicU64::new(0);
        rt.parallel(|s| fib_tree(s, n, &out));
        assert_eq!(out.load(Ordering::Relaxed), fib_value, "threads={threads}");

        let d = rt.stats().since(&before);
        assert_eq!(d.spawned, spawned_tasks, "threads={threads}");
        // `executed` counts the region root task too (it runs through the
        // same worker execute path, off the injector).
        assert_eq!(d.executed, spawned_tasks + 1, "threads={threads}");
        assert_eq!(
            d.slab_fresh + d.slab_recycled,
            spawned_tasks,
            "every spawn drew exactly one record (threads={threads})"
        );
        // Steady state must run off the free lists: the pool never grows
        // anywhere near the task count.
        assert!(
            d.slab_fresh < spawned_tasks / 100,
            "pool grew {} records for {} tasks (threads={threads})",
            d.slab_fresh,
            spawned_tasks
        );
        assert!(
            d.slab_recycled > spawned_tasks * 95 / 100,
            "only {} of {} spawns recycled (threads={threads})",
            d.slab_recycled,
            spawned_tasks
        );
        if threads == 1 {
            assert_eq!(d.slab_cross_freed, 0, "no thieves on a team of one");
        }
    }
}
