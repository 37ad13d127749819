//! Self-tests for the interleaving explorer: the harness must be
//! deterministic, must find deliberately seeded bugs within budget, must
//! replay what it found, and the real-protocol tiny configurations must
//! hold their invariants over every schedule.

use modelcheck::explore::{
    explore_exhaustive, explore_random, replay_seed, replay_trace, Schedule,
};
use modelcheck::scenarios;

const MAX_SCHEDULES: u64 = 200_000;
const MAX_STEPS: usize = 400;

// --- the harness finds seeded bugs -------------------------------------

/// The buggy toy protocols must be caught by exhaustive exploration well
/// within budget, each with a non-empty replayable trace.
#[test]
fn buggy_toys_are_found_within_budget() {
    for name in ["toy_lost_task", "toy_double_exec"] {
        let s = scenarios::find(name).unwrap();
        let v = explore_exhaustive(&s, MAX_SCHEDULES, MAX_STEPS)
            .expect_err("the seeded bug must be found");
        assert!(!v.trace.is_empty(), "violation must carry a trace");
        assert!(
            v.message.contains("violated"),
            "violation must name the broken invariant: {}",
            v.message
        );
    }
}

/// A violating trace must reproduce the violation when replayed — the
/// whole point of `BOTS_SCHEDULE`.
#[test]
fn violations_replay_deterministically() {
    let s = scenarios::find("toy_lost_task").unwrap();
    let v = explore_exhaustive(&s, MAX_SCHEDULES, MAX_STEPS).expect_err("bug expected");
    for _ in 0..3 {
        let replayed = replay_trace(&s, &v.trace, MAX_STEPS);
        assert_eq!(
            replayed.trace(),
            v.trace,
            "replay must follow the recorded decisions exactly"
        );
        assert!(
            replayed.error.is_some(),
            "replaying a violating schedule must reproduce the violation"
        );
    }
}

/// The same seed must produce the identical schedule (decision-for-
/// decision) on repeated runs: seeds are names for schedules.
#[test]
fn same_seed_means_identical_trace() {
    let s = scenarios::find("injector_small").unwrap();
    for seed in [1u64, 7, 42, 0xDEADBEEF] {
        let a = replay_seed(&s, seed, MAX_STEPS);
        let b = replay_seed(&s, seed, MAX_STEPS);
        assert!(
            a.error.is_none(),
            "protocol scenario must pass: {:?}",
            a.error
        );
        assert_eq!(
            a.trace(),
            b.trace(),
            "seed {seed} produced two different schedules"
        );
        // The full step records (sites included) must agree too.
        let sites = |o: &modelcheck::RunOutcome| {
            o.steps
                .iter()
                .map(|st| st.enabled.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(sites(&a), sites(&b), "seed {seed}: enabled sets diverged");
    }
}

// --- pinned historical regressions --------------------------------------

/// PR-4's tied-wait livelock: with the fix modeled out, no schedule makes
/// progress and the explorer reports it; with the fix in, every schedule
/// passes.
#[test]
fn pr4_tied_wait_regression_is_pinned() {
    let buggy = scenarios::find("pr4_tied_wait").unwrap();
    let v = explore_exhaustive(&buggy, MAX_SCHEDULES, MAX_STEPS)
        .expect_err("the reverted fix must be caught");
    assert!(v.message.contains("livelock"), "got: {}", v.message);

    let fixed = scenarios::find("pr4_tied_wait_fixed").unwrap();
    explore_exhaustive(&fixed, MAX_SCHEDULES, MAX_STEPS)
        .expect("the fixed variant must pass every schedule");
}

/// PR-5's per-clause-locking mutual wait: T1:[A,B] / T2:[B,A] interleaved
/// per-clause forms a dependency cycle; whole-task registration cannot.
#[test]
fn pr5_per_clause_regression_is_pinned() {
    let buggy = scenarios::find("pr5_per_clause").unwrap();
    let v = explore_exhaustive(&buggy, MAX_SCHEDULES, MAX_STEPS)
        .expect_err("the reverted fix must be caught");
    assert!(v.message.contains("cycle"), "got: {}", v.message);
    // The classic alternation T1:A, T2:B, T1:B, T2:A must itself violate.
    let replayed = replay_trace(&buggy, &v.trace, MAX_STEPS);
    assert!(replayed.error.is_some(), "pinned cycle trace must replay");

    let fixed = scenarios::find("pr5_per_clause_fixed").unwrap();
    explore_exhaustive(&fixed, MAX_SCHEDULES, MAX_STEPS)
        .expect("atomic whole-task registration must pass every schedule");
}

// --- the real protocols hold their invariants ---------------------------

/// Every tiny real-protocol configuration must survive exhaustive
/// exploration. This is the model-checking claim of the crate: all
/// schedules of the real injector / free-list / deps / group code on these
/// configurations uphold W1 (nothing lost), W2 (nothing doubled), and the
/// exact-ledger bookkeeping.
#[test]
fn real_protocols_pass_exhaustive_tiny_configs() {
    for name in [
        "injector_tiny",
        "slab_reclaim",
        "pool_migrated_release",
        "deps_closed_swap",
        "deps_fanout",
        "group_lease_leave",
    ] {
        let s = scenarios::find(name).unwrap();
        let stats = explore_exhaustive(&s, MAX_SCHEDULES, MAX_STEPS).unwrap_or_else(|v| {
            panic!(
                "`{name}` violated: {} (replay: {})",
                v.message,
                v.replay_hint()
            )
        });
        assert!(
            stats.schedules > 1,
            "`{name}` explored only {} schedule(s) — the harness is not interleaving",
            stats.schedules
        );
    }
}

/// A random sweep over the larger injector configuration.
#[test]
fn injector_small_random_sweep_passes() {
    let s = scenarios::find("injector_small").unwrap();
    let stats = explore_random(&s, 1, 500, MAX_STEPS)
        .unwrap_or_else(|v| panic!("violated: {} (replay: {})", v.message, v.replay_hint()));
    assert_eq!(stats.schedules, 500);
}

// --- BOTS_SCHEDULE parsing ----------------------------------------------

#[test]
fn schedule_env_parses() {
    assert_eq!(
        Schedule::parse("trace:0,1,2").unwrap(),
        Schedule::Trace(vec![0, 1, 2])
    );
    assert_eq!(Schedule::parse("seed:42").unwrap(), Schedule::Seed(42));
    assert!(Schedule::parse("bogus").is_err());
    assert!(Schedule::parse("trace:a,b").is_err());
}
