//! Runtime-policy exploration: what the tasking-model knobs do to one
//! workload, observed through the runtime's own counters.
//!
//! Runs no-cutoff Fibonacci — the suite's overhead stress test — under
//! different runtime cut-off strategies and queue disciplines, printing
//! tasks deferred vs inlined, steals and parks. This is §IV-B/§IV-D of the
//! paper turned into an API tour.
//!
//! ```sh
//! cargo run --release --example runtime_policies
//! ```

use bots::fib::{fib_fast, fib_parallel, FibMode};
use bots::{LocalOrder, Runtime, RuntimeConfig, RuntimeCutoff};

fn main() {
    let n = 27;
    let threads = 4;
    let expected = fib_fast(n);

    let configs: Vec<(&str, RuntimeConfig)> = vec![
        ("no runtime cutoff", RuntimeConfig::new(threads)),
        (
            "max-tasks cutoff",
            RuntimeConfig::new(threads).with_cutoff(RuntimeCutoff::MaxTasks { per_worker: 8 }),
        ),
        (
            "max-depth cutoff",
            RuntimeConfig::new(threads).with_cutoff(RuntimeCutoff::MaxDepth { max_depth: 8 }),
        ),
        (
            "adaptive cutoff",
            RuntimeConfig::new(threads).with_cutoff(RuntimeCutoff::Adaptive { low: 2, high: 8 }),
        ),
        (
            "breadth-first queues",
            RuntimeConfig::new(threads).with_local_order(LocalOrder::Fifo),
        ),
    ];

    println!("fib({n}) with unbounded task creation, {threads} threads\n");
    println!(
        "{:<22} {:>9} {:>10} {:>10} {:>8} {:>7}",
        "configuration", "time", "deferred", "inlined", "stolen", "parks"
    );
    for (label, config) in configs {
        let rt = Runtime::new(config);
        let before = rt.stats();
        let t0 = std::time::Instant::now();
        let got = fib_parallel(&rt, n, FibMode::NoCutoff, false, 0);
        let elapsed = t0.elapsed();
        assert_eq!(got, expected);
        let d = rt.stats().since(&before);
        println!(
            "{:<22} {:>9.1?} {:>10} {:>10} {:>8} {:>7}",
            label,
            elapsed,
            d.spawned,
            d.inlined_if + d.inlined_cutoff + d.inlined_final,
            d.stolen,
            d.parks
        );
    }

    println!("\nreading the table: runtime cut-offs trade deferred tasks for");
    println!("inlined ones, shrinking overhead exactly as §IV-B describes —");
    println!("and the manual application cut-off (not shown) avoids even the");
    println!("bookkeeping of the inlined spawns.");
}
