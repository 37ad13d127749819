//! Thorough (slow) verification sweep on the `small` class: every app ×
//! every version × several runtime configurations. Ignored by default;
//! run with `cargo test --release -- --ignored` before releases.

use bots::suite::runner;
use bots::{registry, InputClass, LocalOrder, Runtime, RuntimeConfig, RuntimeCutoff};

#[test]
#[ignore = "minutes-long; run with --ignored for release validation"]
fn small_class_every_version_verifies() {
    let rt = Runtime::with_threads(bots::runtime::default_threads());
    for bench in registry() {
        for version in bench.versions() {
            let out = bench.run_parallel(&rt, InputClass::Small, version);
            runner::verify(bench.as_ref(), InputClass::Small, &out)
                .unwrap_or_else(|e| panic!("{} {version}: {e}", bench.meta().name));
        }
    }
}

#[test]
#[ignore = "minutes-long; run with --ignored for release validation"]
fn small_class_exotic_runtime_configs() {
    let configs = [
        RuntimeConfig::new(2).with_local_order(LocalOrder::Fifo),
        RuntimeConfig::new(16).with_cutoff(RuntimeCutoff::MaxLocalQueue { max_len: 4 }),
        RuntimeConfig::new(3).with_cutoff(RuntimeCutoff::Adaptive { low: 1, high: 2 }),
    ];
    for config in configs {
        let rt = Runtime::new(config);
        for bench in registry() {
            let out = bench.run_parallel(&rt, InputClass::Small, bench.best_version());
            runner::verify(bench.as_ref(), InputClass::Small, &out)
                .unwrap_or_else(|e| panic!("{} under {config:?}: {e}", bench.meta().name));
        }
    }
}
