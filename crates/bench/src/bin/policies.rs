//! §IV-D analysis — **scheduling policies and runtime cut-offs**: the
//! knobs OpenMP leaves to the implementation, measured on a fine-grain
//! kernel (Fib, no-cutoff version — the overhead stress test) and a
//! coarse-grain one (SparseLU).
//!
//! Varies: local queue discipline (depth-first LIFO vs breadth-first
//! FIFO) and the runtime cut-off strategy. Reports time and the runtime's
//! own counters.

use bots::fib::{fib_parallel, FibMode};
use bots::sparselu::{sparselu_parallel, BlockMatrix, LuGenerator};
use bots::{fib, sparselu};
use bots_bench::{emit, parse_args};
use bots_runtime::{LocalOrder, Runtime, RuntimeConfig, RuntimeCutoff};
use bots_suite::Table;

fn configs(threads: usize) -> Vec<(&'static str, RuntimeConfig)> {
    vec![
        ("lifo (depth-first)", RuntimeConfig::new(threads)),
        (
            "fifo (breadth-first)",
            RuntimeConfig::new(threads).with_local_order(LocalOrder::Fifo),
        ),
        (
            "max-tasks cutoff",
            RuntimeConfig::new(threads).with_cutoff(RuntimeCutoff::MaxTasks { per_worker: 8 }),
        ),
        (
            "max-queue cutoff",
            RuntimeConfig::new(threads).with_cutoff(RuntimeCutoff::MaxLocalQueue { max_len: 16 }),
        ),
        (
            "adaptive cutoff",
            RuntimeConfig::new(threads).with_cutoff(RuntimeCutoff::Adaptive { low: 2, high: 8 }),
        ),
    ]
}

fn main() {
    let args = parse_args();
    let threads = *args.threads.last().unwrap_or(&4);
    println!(
        "Scheduling policies — {} threads, {} class\n",
        threads, args.class
    );

    // Fine-grain: fib without application cut-off (tied tasks).
    let n = fib::n_for(args.class).min(34); // unbounded spawning: keep sane
    let mut table = Table::new(vec![
        "policy", "fib time", "deferred", "inlined", "stolen", "denied",
    ]);
    for (label, config) in configs(threads) {
        eprintln!("[policies] fib under {label} ...");
        let rt = Runtime::new(config);
        let before = rt.stats();
        let (_, t) = bots_profile::timed(|| fib_parallel(&rt, n, FibMode::NoCutoff, false, 0));
        let d = rt.stats().since(&before);
        table.row(vec![
            label.to_string(),
            format!("{:.3}s", t.as_secs_f64()),
            d.spawned.to_string(),
            (d.inlined_if + d.inlined_cutoff).to_string(),
            d.stolen.to_string(),
            d.tied_steal_denied.to_string(),
        ]);
    }
    println!("fib({n}), no application cut-off:");
    emit(&table);

    // Coarse-grain: SparseLU (for-generator).
    let (nb, bs) = sparselu::dims_for(args.class);
    let mut table = Table::new(vec!["policy", "sparselu time", "stolen", "parks"]);
    for (label, config) in configs(threads) {
        eprintln!("[policies] sparselu under {label} ...");
        let rt = Runtime::new(config);
        let before = rt.stats();
        let m = BlockMatrix::generate(nb, bs, 0x51A45E);
        let (_, t) = bots_profile::timed(|| sparselu_parallel(&rt, &m, LuGenerator::For, false));
        let d = rt.stats().since(&before);
        table.row(vec![
            label.to_string(),
            format!("{:.3}s", t.as_secs_f64()),
            d.stolen.to_string(),
            d.parks.to_string(),
        ]);
    }
    println!("\nsparselu {nb}x{nb} blocks of {bs}x{bs}:");
    emit(&table);

    println!("\nExpected shape: policies barely move the coarse-grain kernel;");
    println!("the fine-grain kernel lives or dies by the cut-off strategy.");
}
