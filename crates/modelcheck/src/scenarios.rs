//! Scenario library: tiny configurations of the real protocol code, plus
//! deliberately buggy toys and the two pinned historical regressions.
//!
//! Every scenario builds fresh shared state, a script per virtual thread,
//! and a post-run invariant check. Scripts must be **finite** (bounded
//! loops only) and must never spin-wait across a yield point — a parked
//! sibling cannot make progress until the controller grants it, so an
//! unbounded wait inside one granted step is a watchdog hang, not a
//! schedule. Work a script could not get to (e.g. a retirer that finished
//! before the registrant produced work) is drained deterministically by
//! the check, so the invariants are still total.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bots_runtime::failpoint::fire;
use bots_runtime::mc;

use crate::sched::ScenarioRun;

/// A named, self-describing scenario.
pub struct Scenario {
    /// Registry name (`--scenario <name>`).
    pub name: &'static str,
    /// One line shown by `--list`.
    pub about: &'static str,
    /// Whether the explorer is *expected* to find a violation (buggy toys
    /// and reverted-fix regressions). `--ci` fails if it does not.
    pub expect_violation: bool,
    /// Explore exhaustively in `--ci` (tiny configurations only).
    pub ci_exhaustive: bool,
    /// Also run the seeded-random sweep in `--ci`.
    pub ci_random: bool,
    /// Builds one fresh run: state + scripts + check.
    pub build: fn() -> ScenarioRun,
}

/// Every registered scenario.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "injector_tiny",
            about: "swap-drain injector, 1 shard, 2 workers, 3 records (exhaustive)",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: false,
            build: build_injector_tiny,
        },
        Scenario {
            name: "injector_small",
            about: "swap-drain injector, 2 shards, 3 workers, 4 records (random sweep)",
            expect_violation: false,
            ci_exhaustive: false,
            ci_random: true,
            build: build_injector_small,
        },
        Scenario {
            name: "slab_reclaim",
            about: "record-pool owner allocs vs two cross-thread frees on the Treiber reclaim stack",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: true,
            build: build_slab_reclaim,
        },
        Scenario {
            name: "pool_migrated_release",
            about: "migrated frames return home-0 descriptors from workers 1 and 2 while worker 0 leases",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: true,
            build: build_pool_migrated_release,
        },
        Scenario {
            name: "deps_closed_swap",
            about: "dep chain on one address: edge CAS vs concurrent CLOSED-swap retire",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: true,
            build: build_deps_closed_swap,
        },
        Scenario {
            name: "deps_fanout",
            about: "write-read-read-write diamond: reader lists vs retire",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: true,
            build: build_deps_fanout,
        },
        Scenario {
            name: "group_lease_leave",
            about: "taskgroup waiter registration vs the drain claim (exactly-one-wake)",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: false,
            build: build_group_lease_leave,
        },
        Scenario {
            name: "toy_lost_task",
            about: "BUGGY toy: stale top read across the pop — loses and duplicates a task",
            expect_violation: true,
            ci_exhaustive: true,
            ci_random: false,
            build: build_toy_lost_task,
        },
        Scenario {
            name: "toy_double_exec",
            about: "BUGGY toy: check-then-act claim flag — two workers run the same task",
            expect_violation: true,
            ci_exhaustive: true,
            ci_random: false,
            build: build_toy_double_exec,
        },
        Scenario {
            name: "pr4_tied_wait",
            about: "PINNED REGRESSION (fix reverted): tied waiter refuses foreign deque bottom",
            expect_violation: true,
            ci_exhaustive: true,
            ci_random: false,
            build: || build_pr4_tied_wait(false),
        },
        Scenario {
            name: "pr4_tied_wait_fixed",
            about: "PR-4 fix in place: waiter probes past the tied constraint and progresses",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: false,
            build: || build_pr4_tied_wait(true),
        },
        Scenario {
            name: "pr5_per_clause",
            about: "PINNED REGRESSION (fix reverted): per-clause locking lets T1:[A,B]/T2:[B,A] deadlock",
            expect_violation: true,
            ci_exhaustive: true,
            ci_random: false,
            build: || build_pr5_per_clause(false),
        },
        Scenario {
            name: "pr5_per_clause_fixed",
            about: "PR-5 fix in place: whole-task registration order is total — no mutual wait",
            expect_violation: false,
            ci_exhaustive: true,
            ci_random: false,
            build: || build_pr5_per_clause(true),
        },
    ]
}

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Injector: the swap-drain protocol (injector.rs).
// ---------------------------------------------------------------------------

fn check_injector_conservation(
    inj: &mc::Injector,
    popped: &[mc::Rec],
    pushed: &[mc::Rec],
    shards: usize,
) -> Result<(), String> {
    let mut all = popped.to_vec();
    for s in 0..shards {
        while let Some(r) = inj.pop(s) {
            all.push(r);
        }
    }
    let mut uniq = all.clone();
    uniq.sort();
    uniq.dedup();
    if uniq.len() != all.len() {
        return Err(format!(
            "W2 violated: a record was popped twice ({} pops, {} distinct)",
            all.len(),
            uniq.len()
        ));
    }
    let mut want = pushed.to_vec();
    want.sort();
    if uniq != want {
        return Err(format!(
            "W1 violated: pushed {} records, recovered {}",
            want.len(),
            uniq.len()
        ));
    }
    if !inj.is_probably_empty() {
        return Err("W6 violated: drained injector still reports non-empty".into());
    }
    for r in all {
        mc::free_record(r);
    }
    Ok(())
}

fn build_injector_tiny() -> ScenarioRun {
    let inj = Arc::new(mc::Injector::new(1));
    let recs: Vec<mc::Rec> = (0..3).map(|_| mc::new_record()).collect();
    let popped = Arc::new(Mutex::new(Vec::new()));

    let (a, b, c) = (recs[0], recs[1], recs[2]);
    let i0 = Arc::clone(&inj);
    let p0 = Arc::clone(&popped);
    let i1 = Arc::clone(&inj);
    let p1 = Arc::clone(&popped);
    ScenarioRun {
        scripts: vec![
            Box::new(move || {
                i0.push(a, 0);
                i0.push(b, 0);
                if let Some(r) = i0.pop(0) {
                    p0.lock().unwrap().push(r);
                }
            }),
            Box::new(move || {
                i1.push(c, 0);
                if let Some(r) = i1.pop(0) {
                    p1.lock().unwrap().push(r);
                }
            }),
        ],
        check: Box::new(move || {
            let popped = popped.lock().unwrap().clone();
            check_injector_conservation(&inj, &popped, &recs, 1)
        }),
    }
}

fn build_injector_small() -> ScenarioRun {
    let inj = Arc::new(mc::Injector::new(2));
    let recs: Vec<mc::Rec> = (0..4).map(|_| mc::new_record()).collect();
    let popped = Arc::new(Mutex::new(Vec::new()));

    let scripts: Vec<Box<dyn FnOnce() + Send>> = vec![
        {
            let (inj, popped, r0, r1) = (Arc::clone(&inj), Arc::clone(&popped), recs[0], recs[1]);
            Box::new(move || {
                inj.push(r0, 0);
                inj.push(r1, 1);
                if let Some(r) = inj.pop(0) {
                    popped.lock().unwrap().push(r);
                }
            })
        },
        {
            let (inj, popped, r2) = (Arc::clone(&inj), Arc::clone(&popped), recs[2]);
            Box::new(move || {
                inj.push(r2, 0);
                if let Some(r) = inj.pop(1) {
                    popped.lock().unwrap().push(r);
                }
            })
        },
        {
            let (inj, popped, r3) = (Arc::clone(&inj), Arc::clone(&popped), recs[3]);
            Box::new(move || {
                inj.push(r3, 1);
                if let Some(r) = inj.pop(0) {
                    popped.lock().unwrap().push(r);
                }
            })
        },
    ];
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            let popped = popped.lock().unwrap().clone();
            check_injector_conservation(&inj, &popped, &recs, 2)
        }),
    }
}

// ---------------------------------------------------------------------------
// Free list: owner allocation vs cross-thread Treiber reclaim
// (freelist.rs, through the task-record pool).
// ---------------------------------------------------------------------------

fn build_slab_reclaim() -> ScenarioRun {
    // Two shards: worker 0 owns the records, the two releasers play
    // worker 1 (any non-home worker takes the reclaim path).
    let slab = Arc::new(mc::Slab::new(2, 2));
    // Setup runs on the harness thread (the hook passes it through): carve
    // two records the remote threads will free back concurrently.
    let (a, _) = unsafe { slab.alloc_init(0) };
    let (b, _) = unsafe { slab.alloc_init(0) };
    // Every address alloc() ever returned, in order. a and b may each
    // reappear at most once (they are freed exactly once).
    let returned = Arc::new(Mutex::new(Vec::<mc::Rec>::new()));

    let scripts: Vec<Box<dyn FnOnce() + Send>> = vec![
        {
            // The owner: allocates twice mid-race (may drain the reclaim
            // stack, may carve fresh chunks).
            let (slab, returned) = (Arc::clone(&slab), Arc::clone(&returned));
            Box::new(move || {
                for _ in 0..2 {
                    let (r, _) = unsafe { slab.alloc_init(0) };
                    returned.lock().unwrap().push(r);
                }
            })
        },
        {
            let slab = Arc::clone(&slab);
            Box::new(move || assert!(unsafe { slab.release(a, 1) }))
        },
        {
            let slab = Arc::clone(&slab);
            Box::new(move || assert!(unsafe { slab.release(b, 1) }))
        },
    ];
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            let mut seen = returned.lock().unwrap().clone();
            // Drain: keep allocating until both freed records resurfaced;
            // the reclaim stack is drained at least every other alloc, so
            // a bounded number of attempts suffices — or a record was lost.
            for _ in 0..10 {
                if seen.contains(&a) && seen.contains(&b) {
                    break;
                }
                let (r, _) = unsafe { slab.alloc_init(0) };
                seen.push(r);
            }
            let mut uniq = seen.clone();
            uniq.sort();
            uniq.dedup();
            if uniq.len() != seen.len() {
                return Err(format!(
                    "W2 violated: an address was allocated twice while live \
                     (double reclaim); {} allocs, {} distinct",
                    seen.len(),
                    uniq.len()
                ));
            }
            if !seen.contains(&a) || !seen.contains(&b) {
                return Err(
                    "W1 violated: a remotely-freed record never resurfaced (lost reclaim)".into(),
                );
            }
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------------
// Free list: releases from a worker that is not the item's home.
// ---------------------------------------------------------------------------

/// Who holds which pooled descriptor, as the scripts saw it.
#[derive(Default)]
struct PoolLedger {
    /// Descriptors currently leased out (→ leasing worker).
    live: HashMap<mc::GroupRef, usize>,
    /// First protocol violation a script observed.
    violation: Option<String>,
}

impl PoolLedger {
    fn leased(&mut self, g: mc::GroupRef, worker: usize, homes: &HashMap<mc::GroupRef, usize>) {
        if let Some(prev) = self.live.insert(g, worker) {
            self.violation.get_or_insert(format!(
                "W2 violated: {g:?} leased by worker {worker} while still leased by worker {prev}"
            ));
        }
        if let Some(&home) = homes.get(&g) {
            if home != worker {
                self.violation.get_or_insert(format!(
                    "{g:?} of home {home} handed out by worker {worker}'s shard"
                ));
            }
        }
    }

    fn released(&mut self, g: mc::GroupRef) {
        self.live.remove(&g);
    }
}

fn build_pool_migrated_release() -> ScenarioRun {
    // Three workers' shards. Worker 0 leased `g` and `h` for two taskgroup
    // frames that then suspended and resumed on workers 1 and 2: each
    // returns its descriptor from a non-home worker, racing worker 0's own
    // leases (which may drain the reclaim stack or carve fresh).
    let pool = Arc::new(mc::Groups::new(3));
    let (g, _) = unsafe { pool.lease(0) };
    let (h, _) = unsafe { pool.lease(0) };
    let homes: Arc<HashMap<mc::GroupRef, usize>> = Arc::new([(g, 0), (h, 0)].into());
    let ledger = Arc::new(Mutex::new(PoolLedger::default()));
    {
        let mut l = ledger.lock().unwrap();
        l.leased(g, 0, &homes);
        l.leased(h, 0, &homes);
    }

    let scripts: Vec<Box<dyn FnOnce() + Send>> = vec![
        {
            // Worker 0: two nested taskgroups lease and return at home.
            let (pool, ledger, homes) =
                (Arc::clone(&pool), Arc::clone(&ledger), Arc::clone(&homes));
            Box::new(move || {
                let mut held = Vec::new();
                for _ in 0..2 {
                    let (x, _) = unsafe { pool.lease(0) };
                    ledger.lock().unwrap().leased(x, 0, &homes);
                    held.push(x);
                }
                for x in held.into_iter().rev() {
                    ledger.lock().unwrap().released(x);
                    assert!(!unsafe { pool.release(x, 0) }, "home release went remote");
                }
            })
        },
        {
            // Worker 1: the migrated frame returns `g`, then runs a
            // taskgroup of its own on its own shard.
            let (pool, ledger, homes) =
                (Arc::clone(&pool), Arc::clone(&ledger), Arc::clone(&homes));
            Box::new(move || {
                ledger.lock().unwrap().released(g);
                assert!(
                    unsafe { pool.release(g, 1) },
                    "migrated release stayed local"
                );
                let (x, _) = unsafe { pool.lease(1) };
                ledger.lock().unwrap().leased(x, 1, &homes);
                ledger.lock().unwrap().released(x);
                unsafe { pool.release(x, 1) };
            })
        },
        {
            // Worker 2: the other migrated frame returns `h`.
            let (pool, ledger) = (Arc::clone(&pool), Arc::clone(&ledger));
            Box::new(move || {
                ledger.lock().unwrap().released(h);
                assert!(
                    unsafe { pool.release(h, 2) },
                    "migrated release stayed local"
                );
            })
        },
    ];
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            let mut l = ledger.lock().unwrap();
            if let Some(v) = l.violation.take() {
                return Err(v);
            }
            if !l.live.is_empty() {
                return Err(format!(
                    "{} descriptor(s) still leased after every script",
                    l.live.len()
                ));
            }
            // Exact ledger: every descriptor ever created is free, on some
            // shard's local list or reclaim stack.
            let (created, free) = (pool.created(), unsafe { pool.free_len() });
            if created != free {
                return Err(format!(
                    "ledger violated: {created} descriptors created, {free} free at quiescence"
                ));
            }
            // W1: both migrated descriptors flow back to worker 0. Its
            // shard holds at most `created` items, so a bounded number of
            // leases must surface them — or one was lost.
            let mut drained = Vec::new();
            for _ in 0..created {
                let (x, fresh) = unsafe { pool.lease(0) };
                if fresh {
                    break;
                }
                drained.push(x);
            }
            for x in [g, h] {
                if !drained.contains(&x) {
                    return Err(format!(
                        "W1 violated: migrated descriptor {x:?} never returned to its home shard"
                    ));
                }
            }
            let uniq: std::collections::HashSet<_> = drained.iter().collect();
            if uniq.len() != drained.len() {
                return Err("W2 violated: worker 0's shard handed a descriptor out twice".into());
            }
            for x in drained {
                unsafe { pool.release(x, 0) };
            }
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------------
// Deps: edge CAS vs CLOSED-swap retire (deps.rs).
// ---------------------------------------------------------------------------

struct DepsWorld {
    deps: mc::Deps,
    ready: Mutex<VecDeque<mc::Rec>>,
    queued: Mutex<HashMap<mc::Rec, usize>>,
    retired: Mutex<Vec<mc::Rec>>,
}

impl DepsWorld {
    fn enqueue(&self, r: mc::Rec) {
        *self.queued.lock().unwrap().entry(r).or_insert(0) += 1;
        self.ready.lock().unwrap().push_back(r);
    }

    fn retire_next(&self) -> bool {
        let next = self.ready.lock().unwrap().pop_front();
        match next {
            Some(r) => {
                self.deps.retire(r, |s| self.enqueue(s));
                self.retired.lock().unwrap().push(r);
                true
            }
            None => false,
        }
    }

    fn check(&self, tasks: &[mc::Rec]) -> Result<(), String> {
        // Drain whatever the retirer's bounded loop did not get to.
        while self.retire_next() {}
        let retired = self.retired.lock().unwrap().clone();
        if retired.len() != tasks.len() {
            return Err(format!(
                "W1 violated: {} of {} tasks retired — the rest were stranded \
                 (lost release)",
                retired.len(),
                tasks.len()
            ));
        }
        let queued = self.queued.lock().unwrap();
        for t in tasks {
            match queued.get(t).copied().unwrap_or(0) {
                1 => {}
                0 => return Err("W1 violated: a task was never queued".into()),
                n => {
                    return Err(format!(
                        "W2 violated: a task was queued {n} times (double release)"
                    ))
                }
            }
        }
        drop(queued);
        self.deps.reset();
        for t in tasks {
            mc::free_record(*t);
        }
        Ok(())
    }
}

/// Registrant + retirer over `clauses_of`: the registrant registers every
/// task in order (registration holds the map mutex, so exactly one
/// registrant thread — see `mc::Deps::register`); the retirer races
/// retires against the in-flight edge CASes.
fn build_deps_scenario(clause_sets: Vec<Vec<mc::Clause>>) -> ScenarioRun {
    let world = Arc::new(DepsWorld {
        deps: mc::Deps::new(),
        ready: Mutex::new(VecDeque::new()),
        queued: Mutex::new(HashMap::new()),
        retired: Mutex::new(Vec::new()),
    });
    let tasks: Vec<mc::Rec> = (0..clause_sets.len()).map(|_| mc::new_record()).collect();

    let scripts: Vec<Box<dyn FnOnce() + Send>> = vec![
        {
            let (world, tasks) = (Arc::clone(&world), tasks.clone());
            Box::new(move || {
                for (t, clauses) in tasks.iter().zip(&clause_sets) {
                    if world.deps.register(*t, clauses) {
                        world.enqueue(*t);
                    }
                }
            })
        },
        {
            let world = Arc::clone(&world);
            Box::new(move || {
                // Bounded: empty polls cost nothing and the check drains
                // the remainder.
                for _ in 0..12 {
                    world.retire_next();
                }
            })
        },
    ];
    ScenarioRun {
        scripts,
        check: Box::new(move || world.check(&tasks)),
    }
}

fn build_deps_closed_swap() -> ScenarioRun {
    const A: usize = 0x1000;
    // Three writers on one address: a dense chain, maximal CLOSED-swap
    // pressure (every edge CAS races the predecessor's retire).
    build_deps_scenario(vec![
        vec![mc::dep_write(A)],
        vec![mc::dep_write(A)],
        vec![mc::dep_write(A)],
    ])
}

fn build_deps_fanout() -> ScenarioRun {
    const A: usize = 0x2000;
    // Write, two readers, write: exercises the reader-list edges and the
    // writer that must wait for the whole reader generation.
    build_deps_scenario(vec![
        vec![mc::dep_write(A)],
        vec![mc::dep_read(A)],
        vec![mc::dep_read(A)],
        vec![mc::dep_write(A)],
    ])
}

// ---------------------------------------------------------------------------
// Group: waiter registration vs the drain claim (group.rs + scope.rs's
// wait_group shape).
// ---------------------------------------------------------------------------

#[derive(Default)]
struct GroupObs {
    owner_last: bool,
    drained_pre_register: bool,
    refused: bool,
    took_back: bool,
    wake_token: bool,
    parked: bool,
    member_drained: bool,
    /// `Some(claim result)` once the member ran its drain claim.
    member_claim: Option<Option<usize>>,
}

fn build_group_lease_leave() -> ScenarioRun {
    let pool = Arc::new(mc::Groups::new(1));
    let (g, _) = unsafe { pool.lease(0) };
    g.reset();
    g.join(); // the "owner" role
    g.join(); // the "member" role
    let obs = Arc::new(Mutex::new(GroupObs::default()));
    let tok = mc::waiter_token(0);

    let scripts: Vec<Box<dyn FnOnce() + Send>> = vec![
        {
            // The owner mirrors scope.rs wait_group's first iteration,
            // straight-line. Explicit `vt_*` fires between protocol calls
            // make each read/CAS its own schedulable step.
            let obs = Arc::clone(&obs);
            Box::new(move || {
                if g.leave() {
                    // Last out: the drain claim is this thread's duty.
                    let claimed = g.claim_waiter();
                    let mut o = obs.lock().unwrap();
                    o.owner_last = true;
                    assert!(claimed.is_none(), "claim found a token nobody registered");
                    return;
                }
                fire("vt_owner_probe");
                if g.outstanding() == 0 {
                    obs.lock().unwrap().drained_pre_register = true;
                    return;
                }
                fire("vt_owner_register");
                if !g.try_register_waiter(tok) {
                    obs.lock().unwrap().refused = true;
                    return;
                }
                fire("vt_owner_recheck");
                if g.outstanding() == 0 {
                    fire("vt_owner_unregister");
                    if g.unregister_waiter(tok) {
                        obs.lock().unwrap().took_back = true;
                    } else {
                        obs.lock().unwrap().wake_token = true;
                    }
                } else {
                    // The real code suspends here; the registration stays
                    // and the member's claim must deliver the wake.
                    obs.lock().unwrap().parked = true;
                }
            })
        },
        {
            let obs = Arc::clone(&obs);
            Box::new(move || {
                if g.leave() {
                    {
                        obs.lock().unwrap().member_drained = true;
                    }
                    fire("vt_member_claim");
                    let claim = g.claim_waiter();
                    obs.lock().unwrap().member_claim = Some(claim);
                }
            })
        },
    ];
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            let o = obs.lock().unwrap();
            let member_claim = o.member_claim;
            if o.owner_last == o.member_drained {
                return Err(format!(
                    "exactly one leaver must see the drain (owner_last={}, member_drained={})",
                    o.owner_last, o.member_drained
                ));
            }
            let wake_via_claim = member_claim == Some(Some(tok));
            if o.parked && !wake_via_claim {
                return Err(format!(
                    "W1 violated (lost wake-up): waiter stayed registered but the \
                     drain claim delivered {member_claim:?}, not the token"
                ));
            }
            if o.took_back && wake_via_claim {
                return Err(
                    "W2 violated (double wake): waiter took its registration back AND \
                     the claim delivered the token"
                        .into(),
                );
            }
            if o.wake_token && !wake_via_claim {
                return Err(
                    "unregister lost to the claim, but the claim did not hold the token".into(),
                );
            }
            if (o.refused || o.drained_pre_register) && member_claim == Some(Some(tok)) {
                return Err("claim delivered a token that was never left registered".into());
            }
            // The drain-claim rendezvous: whoever drained has stamped
            // CLAIMED by now; the lease owner's reuse spin must terminate.
            g.await_drain_claim();
            drop(o);
            unsafe { pool.release(g, 0) };
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------------
// Toys: deliberately buggy protocols the explorer must catch.
// ---------------------------------------------------------------------------

fn build_toy_lost_task() -> ScenarioRun {
    // The classic stale-read pop: read the top, yield, then pop whatever
    // is there now but account for what was read. Two workers lose one
    // task and double-claim another.
    let stack = Arc::new(Mutex::new(vec![1u32, 2u32]));
    let claimed = Arc::new(Mutex::new(Vec::<u32>::new()));

    let scripts: Vec<Box<dyn FnOnce() + Send>> = (0..2)
        .map(|_| {
            let (stack, claimed) = (Arc::clone(&stack), Arc::clone(&claimed));
            Box::new(move || {
                let top = stack.lock().unwrap().last().copied();
                fire("toy_pop"); // the buggy window: top may be stale now
                if let Some(top) = top {
                    let taken = stack.lock().unwrap().pop();
                    if taken.is_some() {
                        claimed.lock().unwrap().push(top);
                    }
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            let mut got = claimed.lock().unwrap().clone();
            got.sort_unstable();
            if got != vec![1, 2] {
                return Err(format!(
                    "W1/W2 violated: claimed {got:?}, expected [1, 2] exactly once each"
                ));
            }
            Ok(())
        }),
    }
}

fn build_toy_double_exec() -> ScenarioRun {
    // Check-then-act on a claim flag: both workers observe unclaimed,
    // both run the task.
    let flag = Arc::new(AtomicBool::new(false));
    let execs = Arc::new(AtomicUsize::new(0));

    let scripts: Vec<Box<dyn FnOnce() + Send>> = (0..2)
        .map(|_| {
            let (flag, execs) = (Arc::clone(&flag), Arc::clone(&execs));
            Box::new(move || {
                if !flag.load(Ordering::SeqCst) {
                    fire("toy_claim"); // the buggy window
                    flag.store(true, Ordering::SeqCst);
                    execs.fetch_add(1, Ordering::SeqCst);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            let n = execs.load(Ordering::SeqCst);
            if n != 1 {
                return Err(format!("W2 violated: task executed {n} times"));
            }
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------------
// Pinned regressions: the two interleaving bugs this repo actually shipped
// and fixed, modelled so the explorer demonstrably catches each with the
// fix reverted and passes with it in place.
// ---------------------------------------------------------------------------

/// PR-4's tied-wait livelock: a tied task blocked in `wait_group` could
/// only legally resume work from its own depth, but the only runnable task
/// sat at the *bottom* of a foreign deque — which the buggy scheduling
/// constraint refused to take. Nobody else could run it either (its owner
/// was blocked in the same wait), so the system spun forever. The fix let
/// a blocked waiter probe past the tied constraint for foreign bottoms.
fn build_pr4_tied_wait(fixed: bool) -> ScenarioRun {
    let foreign_task = Arc::new(AtomicBool::new(true)); // sits at T1's deque bottom
    let progressed = Arc::new(AtomicBool::new(false));

    let scripts: Vec<Box<dyn FnOnce() + Send>> = vec![
        {
            let (foreign_task, progressed) = (Arc::clone(&foreign_task), Arc::clone(&progressed));
            Box::new(move || {
                // The blocked tied waiter: a bounded stand-in for the
                // production help-loop (which re-probed forever).
                for _ in 0..4 {
                    fire("pr4_probe");
                    if foreign_task.load(Ordering::SeqCst) && fixed {
                        // The fix: take the foreign deque's bottom.
                        foreign_task.store(false, Ordering::SeqCst);
                        progressed.store(true, Ordering::SeqCst);
                        return;
                    }
                    // Buggy: the tied constraint rejects the only task.
                }
            })
        },
        {
            Box::new(move || {
                // The foreign deque's owner: blocked in the same group
                // wait, never returns to its own bottom.
                fire("pr4_owner_blocked");
            })
        },
    ];
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            if !progressed.load(Ordering::SeqCst) {
                return Err(
                    "livelock: the waiter never ran the foreign bottom task and its \
                     owner is blocked — no schedule makes progress"
                        .into(),
                );
            }
            Ok(())
        }),
    }
}

/// PR-5's per-clause registration deadlock: registering each dependence
/// clause under its own per-address lock let T1:[A,B] and T2:[B,A]
/// interleave into a mutual-wait cycle (T1 waits on T2 via B, T2 waits on
/// T1 via A). The fix made whole-task registration atomic — registration
/// order is total, so the waits-for graph is acyclic by construction.
fn build_pr5_per_clause(fixed: bool) -> ScenarioRun {
    struct Pr5 {
        writers: [Mutex<Option<usize>>; 2],
        pending: [AtomicUsize; 2],
        succ: [Mutex<Vec<usize>>; 2],
        reg: Mutex<()>, // the fix: one lock for the whole registration
    }
    impl Pr5 {
        fn apply(&self, task: usize, addr: usize) {
            let mut w = self.writers[addr].lock().unwrap();
            if let Some(prev) = *w {
                if prev != task {
                    self.pending[task].fetch_add(1, Ordering::SeqCst);
                    self.succ[prev].lock().unwrap().push(task);
                }
            }
            *w = Some(task);
        }
    }
    let st = Arc::new(Pr5 {
        writers: [Mutex::new(None), Mutex::new(None)],
        pending: [AtomicUsize::new(0), AtomicUsize::new(0)],
        succ: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
        reg: Mutex::new(()),
    });

    // T1 declares [A, B]; T2 declares [B, A].
    let clause_orders = [[0usize, 1], [1usize, 0]];
    let scripts: Vec<Box<dyn FnOnce() + Send>> = (0..2)
        .map(|task| {
            let st = Arc::clone(&st);
            let order = clause_orders[task];
            Box::new(move || {
                if fixed {
                    fire("pr5_register");
                    // Whole-task registration under one lock: no yield
                    // point inside, so clause application is atomic.
                    let _guard = st.reg.lock().unwrap();
                    st.apply(task, order[0]);
                    st.apply(task, order[1]);
                } else {
                    // Buggy: each clause locks only its own address, with
                    // a linearization point between them.
                    st.apply(task, order[0]);
                    fire("pr5_clause_gap");
                    st.apply(task, order[1]);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    ScenarioRun {
        scripts,
        check: Box::new(move || {
            // Execute the declared graph worklist-style; a cycle strands
            // both tasks with pending > 0.
            let mut pending = [
                st.pending[0].load(Ordering::SeqCst),
                st.pending[1].load(Ordering::SeqCst),
            ];
            let mut ready: Vec<usize> = (0..2).filter(|&t| pending[t] == 0).collect();
            let mut executed = 0usize;
            while let Some(t) = ready.pop() {
                executed += 1;
                for &s in st.succ[t].lock().unwrap().iter() {
                    pending[s] -= 1;
                    if pending[s] == 0 {
                        ready.push(s);
                    }
                }
            }
            if executed != 2 {
                return Err(format!(
                    "W1 violated: dependency cycle — only {executed} of 2 tasks could \
                     ever run (mutual wait via per-clause registration)"
                ));
            }
            Ok(())
        }),
    }
}
