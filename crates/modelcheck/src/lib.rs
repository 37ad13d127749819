//! Deterministic interleaving model checker for the runtime's lock-free
//! protocols.
//!
//! The runtime's five protocols — the injector's swap-drain, the free-list
//! pool's home-routed reclaim, the taskgroup lease/leave drain claim, the dep
//! tracker's CLOSED-swap release, and the continuation state machine —
//! carry `bots_failpoint!` instrumentation at every linearization point.
//! This crate runs **the real protocol code** (via `bots-runtime`'s
//! `modelcheck` feature) on tiny configurations under a virtual scheduler
//! that owns every interleaving decision, explores the schedule tree
//! (exhaustively for tiny configs, sleep-set pruned, plus seeded random
//! sweeps), checks conservation invariants after every schedule, and
//! prints a replayable `BOTS_SCHEDULE=...` trace on any violation.
//!
//! The module split:
//!
//! - [`sched`] — the virtual scheduler: park-at-failpoint controller,
//!   deciders (replay, seeded random), determinism guarantees.
//! - [`explore`] — bounded systematic exploration: DFS with sleep-set
//!   pruning, random sweeps, `BOTS_SCHEDULE` parsing.
//! - [`scenarios`] — the scenario library: real-protocol configurations,
//!   deliberately buggy toys, and the PR-4/PR-5 pinned regressions.
//!
//! The TLA+ side of the same protocols lives in `specs/tla/`; the
//! ordering-justification lint that guards the implementation's atomics
//! lives in `crates/xtask`.

#![warn(missing_docs)]

pub mod explore;
pub mod scenarios;
pub mod sched;

pub use explore::{
    explore_exhaustive, explore_random, replay_seed, replay_trace, Schedule, Stats, Violation,
    DEFAULT_MAX_STEPS,
};
pub use scenarios::{all, find, Scenario};
pub use sched::{run_schedule, Decider, RunOutcome, ScenarioRun, StepRec};
