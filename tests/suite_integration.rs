//! Cross-crate integration tests: every application × every version ×
//! verification, through the public suite API, on the `test` input class.

use bots::suite::runner;
use bots::{registry, InputClass, Runtime, RuntimeConfig};

#[test]
fn every_app_serial_run_verifies() {
    for bench in registry() {
        let out = bench.run_serial(InputClass::Test);
        runner::verify(bench.as_ref(), InputClass::Test, &out)
            .unwrap_or_else(|e| panic!("{} serial: {e}", bench.meta().name));
    }
}

#[test]
fn every_app_every_version_verifies_in_parallel() {
    let rt = Runtime::with_threads(4);
    for bench in registry() {
        for version in bench.versions() {
            let out = bench.run_parallel(&rt, InputClass::Test, version);
            runner::verify(bench.as_ref(), InputClass::Test, &out)
                .unwrap_or_else(|e| panic!("{} {version}: {e}", bench.meta().name));
        }
    }
}

#[test]
fn every_app_every_version_verifies_with_overlapped_regions() {
    // The concurrent-regions suite mode: all application × version
    // combinations submit their verification regions onto one team at
    // once. Every combination must still verify — regions are isolated.
    let rt = Runtime::with_threads(4);
    let benches = registry();
    let outcomes = runner::verify_overlapping(&benches, &rt, InputClass::Test);
    let expected: usize = benches.iter().map(|b| b.versions().len()).sum();
    assert_eq!(outcomes.len(), expected, "every combination reports back");
    for o in &outcomes {
        assert!(
            o.result.is_ok(),
            "{} {} failed under overlapped regions: {:?}",
            o.name,
            o.version,
            o.result
        );
    }
}

#[test]
fn every_app_works_on_a_single_thread_team() {
    let rt = Runtime::with_threads(1);
    for bench in registry() {
        let version = bench.best_version();
        let out = bench.run_parallel(&rt, InputClass::Test, version);
        runner::verify(bench.as_ref(), InputClass::Test, &out)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.meta().name));
    }
}

#[test]
fn best_versions_are_listed_versions() {
    for bench in registry() {
        let best = bench.best_version();
        assert!(
            bench.versions().contains(&best),
            "{}: best version {best} not in its version list",
            bench.meta().name
        );
    }
}

#[test]
fn characterization_produces_tasks_for_every_app() {
    for bench in registry() {
        let counts = bench.characterize(InputClass::Test);
        assert!(
            counts.tasks > 0,
            "{}: no potential tasks",
            bench.meta().name
        );
        assert!(counts.ops > 0, "{}: no operations", bench.meta().name);
    }
}

#[test]
fn input_descriptions_exist_for_all_classes() {
    for bench in registry() {
        for class in InputClass::ALL {
            let desc = bench.input_desc(class);
            assert!(!desc.is_empty(), "{} {class}", bench.meta().name);
        }
    }
}

#[test]
fn table1_metadata_is_complete() {
    for bench in registry() {
        let m = bench.meta();
        assert!(!m.name.is_empty());
        assert!(!m.domain.is_empty());
        assert!(
            ["Iterative", "At each node", "At leafs"].contains(&m.structure),
            "{}",
            m.name
        );
        assert!(m.task_directives >= 1);
        assert!(
            ["for", "single", "single/for", "single/for/deps"].contains(&m.tasks_inside),
            "{}",
            m.name
        );
        assert!(
            ["none", "depth-based"].contains(&m.app_cutoff),
            "{}",
            m.name
        );
    }
}

#[test]
fn runs_verify_under_fifo_policy_and_runtime_cutoffs() {
    use bots::{LocalOrder, RuntimeCutoff};
    let configs = [
        RuntimeConfig::new(4).with_local_order(LocalOrder::Fifo),
        RuntimeConfig::new(4).with_cutoff(RuntimeCutoff::MaxTasks { per_worker: 16 }),
        RuntimeConfig::new(4).with_cutoff(RuntimeCutoff::Adaptive { low: 4, high: 32 }),
    ];
    for config in configs {
        let rt = Runtime::new(config);
        for bench in registry() {
            let out = bench.run_parallel(&rt, InputClass::Test, bench.best_version());
            runner::verify(bench.as_ref(), InputClass::Test, &out)
                .unwrap_or_else(|e| panic!("{} under {config:?}: {e}", bench.meta().name));
        }
    }
}

#[test]
fn repeated_parallel_runs_have_stable_checksums() {
    let rt = Runtime::with_threads(8);
    for bench in registry() {
        let v = bench.best_version();
        let a = bench.run_parallel(&rt, InputClass::Test, v);
        let b = bench.run_parallel(&rt, InputClass::Test, v);
        assert_eq!(
            a.checksum,
            b.checksum,
            "{}: results must be deterministic across runs",
            bench.meta().name
        );
    }
}

#[test]
fn thread_sweep_api_works_end_to_end() {
    let bench = bots::find_benchmark("fib").unwrap();
    let (serial, points) = runner::thread_sweep(
        bench.as_ref(),
        InputClass::Test,
        bench.best_version(),
        &[1, 2, 4],
        1,
        RuntimeConfig::new,
    );
    assert!(serial.time.as_nanos() > 0);
    assert_eq!(points.len(), 3);
    for p in &points {
        assert!(p.speedup > 0.0);
    }
}
