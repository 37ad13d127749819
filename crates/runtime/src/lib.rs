//! # bots-runtime — a work-stealing tasking runtime modelling OpenMP 3.0 tasks
//!
//! This crate is the execution substrate of the BOTS reproduction: a
//! from-scratch work-stealing runtime whose surface mirrors the OpenMP 3.0
//! tasking model that the Barcelona OpenMP Tasks Suite was written against —
//! grown into a **concurrent multi-region runtime** with a **server-grade
//! region lifecycle**: one worker team serves any number of parallel
//! regions at once, fed by any number of client threads, with pooled
//! region descriptors (a steady-state submission allocates nothing),
//! per-region cut-off budgets, and completions that can be joined, polled
//! as a `Future`, or delivered through a callback — no blocked thread per
//! in-flight region.
//!
//! ```
//! use bots_runtime::{Runtime, RuntimeConfig, TaskAttrs};
//!
//! let rt = Runtime::new(RuntimeConfig::new(4));
//! let total = rt.parallel(|s| {
//!     // `parallel` is an OpenMP parallel region + single construct: this
//!     // closure is the region's root task.
//!     s.spawn(|_| { /* #pragma omp task */ });
//!     s.spawn_with(TaskAttrs::untied(), |s| { /* untied task */ });
//!     s.taskwait();                       // #pragma omp taskwait
//!     1 + 2
//! });
//! assert_eq!(total, 3);
//! ```
//!
//! ## The async region lifecycle: a server frontend in three shapes
//!
//! [`Runtime::submit`] publishes a region and returns a [`RegionHandle`]
//! without blocking. The handle completes three ways — pick per request,
//! on one shared team:
//!
//! ```
//! use bots_runtime::{RegionBudget, Runtime, RuntimeConfig};
//! use std::future::Future;
//! use std::pin::pin;
//! use std::sync::Arc;
//! use std::task::{Context, Poll, Wake, Waker};
//!
//! // A minimal single-future executor, standing in for tokio & friends:
//! // parks the thread, and the region's completion wakes it — the waker is
//! // fired by the quiescence transition itself, nothing polls or spins.
//! fn block_on<F: Future>(fut: F) -> F::Output {
//!     struct Unpark(std::thread::Thread);
//!     impl Wake for Unpark {
//!         fn wake(self: Arc<Self>) {
//!             self.0.unpark()
//!         }
//!     }
//!     let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
//!     let mut cx = Context::from_waker(&waker);
//!     let mut fut = pin!(fut);
//!     loop {
//!         match fut.as_mut().poll(&mut cx) {
//!             Poll::Ready(v) => return v,
//!             Poll::Pending => std::thread::park(),
//!         }
//!     }
//! }
//!
//! let rt = Runtime::new(RuntimeConfig::new(4));
//!
//! // 1. Executor-polled: the handle IS a Future.
//! let sum = block_on(rt.submit(|s| {
//!     let acc = std::sync::atomic::AtomicU64::new(0);
//!     s.taskgroup(|s| {
//!         for i in 1..=100u64 {
//!             let acc = &acc;
//!             s.spawn(move |_| {
//!                 acc.fetch_add(i, std::sync::atomic::Ordering::Relaxed);
//!             });
//!         }
//!     });
//!     acc.load(std::sync::atomic::Ordering::Relaxed)
//! }));
//! assert_eq!(sum, 5050);
//!
//! // 2. Callback: detach the region, get the result pushed to you the
//! //    moment it quiesces (here into a channel a reply loop would drain).
//! let (reply_tx, reply_rx) = std::sync::mpsc::channel();
//! rt.submit(|_| 40 + 2).on_complete(move |result| {
//!     reply_tx.send(result.expect("region panicked")).unwrap();
//! });
//! assert_eq!(reply_rx.recv().unwrap(), 42);
//!
//! // 3. Blocking join — now a thin shim over the same machinery — with a
//! //    per-region budget: this request may queue at most 64 of its own
//! //    tasks before spawning serially; other requests are unaffected.
//! let h = rt.submit_with_budget(RegionBudget::MaxQueued(64), |s| {
//!     let acc = std::sync::atomic::AtomicU64::new(0);
//!     s.taskgroup(|s| {
//!         for _ in 0..1000 {
//!             let acc = &acc;
//!             s.spawn(move |_| {
//!                 acc.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!             });
//!         }
//!     });
//!     acc.load(std::sync::atomic::Ordering::Relaxed)
//! });
//! assert_eq!(h.join(), 1000);
//! ```
//!
//! ## Cancellation, deadlines and overload shedding
//!
//! The server lifecycle is **cancellation-grade**: regions can be cut
//! short cooperatively (OpenMP 4.0 `cancel` semantics — task scheduling
//! points observe a per-region flag; running bodies are never interrupted),
//! bounded by a deadline, and admission-controlled under overload. A
//! deadline-bounded server that sheds gracefully:
//!
//! ```
//! use bots_runtime::{Runtime, RuntimeConfig, SubmitError};
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // Admission control: at most 2 regions in flight at once.
//! let rt = Runtime::new(RuntimeConfig::new(2).with_max_live_regions(2));
//!
//! // Two slow requests occupy the team...
//! let gate = Arc::new(AtomicBool::new(false));
//! let slow: Vec<_> = (0..2)
//!     .map(|_| {
//!         let gate = Arc::clone(&gate);
//!         rt.submit(move |_| while !gate.load(Ordering::Acquire) {})
//!     })
//!     .collect();
//!
//! // ...so the next one is refused outright, with the load observed:
//! match rt.try_submit(|_| unreachable!("shed submissions never run")) {
//!     Err(SubmitError::Shed { live, limit }) => assert_eq!((live, limit), (2, 2)),
//!     Ok(_) => panic!("watermark should have shed this"),
//! }
//!
//! gate.store(true, Ordering::Release);
//! for h in slow {
//!     h.outcome().expect("slow request completed");
//! }
//!
//! // Deadline-bounded serving: a runaway request is cancelled by the
//! // team's coarse clock and its joiner sees a typed error, not a hang.
//! let h = rt.submit_with_deadline(Duration::from_millis(5), |s| {
//!     fn storm(s: &bots_runtime::Scope<'_>, depth: u32) {
//!         if depth > 0 && !s.is_cancelled() {
//!             for _ in 0..2 {
//!                 s.spawn(move |s| storm(s, depth - 1));
//!             }
//!         }
//!     }
//!     storm(s, 40); // far more work than 5 ms allows
//!     s.taskwait();
//! });
//! let outcome = h.outcome();
//! assert!(
//!     matches!(outcome, Err(bots_runtime::RegionError::Cancelled)) || outcome.is_ok(),
//!     "a deadline either cancels the region or it finished in time"
//! );
//! ```
//!
//! ## Record-and-replay for repetitive task graphs
//!
//! A solver that factorises the same sparsity pattern every timestep pays
//! the dependency tracker (mutex, hash buckets, clause matching) for a
//! graph it already discovered last round.
//! [`submit_replay`](Runtime::submit_replay) /
//! [`parallel_replay`](Runtime::parallel_replay) key a region body by a
//! caller-chosen *shape token*: the first run records the task DAG and
//! freezes it; later runs under the same token re-execute the frozen
//! graph — preresolved successor lists, **no tracker traffic, zero warm
//! allocations**. Every spawn is checked against the recording (clause
//! hash, with object addresses renamed by first occurrence, so fresh
//! buffers replay fine); a divergent body falls back to live registration
//! mid-region and re-records, never computing a wrong answer.
//!
//! ```
//! use bots_runtime::Runtime;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! static A: AtomicU64 = AtomicU64::new(0);
//! static B: AtomicU64 = AtomicU64::new(0);
//!
//! let rt = Runtime::with_threads(2);
//! let step = |s: &bots_runtime::Scope<'_>| {
//!     s.task(|_| { A.store(7, Ordering::Release); })
//!         .after_write(&A)
//!         .spawn();
//!     s.task(|_| { B.store(A.load(Ordering::Acquire) + 1, Ordering::Release); })
//!         .after_read(&A)
//!         .after_write(&B)
//!         .spawn();
//! };
//!
//! rt.parallel_replay(0xCAFE, step); // records the two-task DAG
//! rt.parallel_replay(0xCAFE, step); // replays it, tracker untouched
//! assert_eq!(B.load(Ordering::Acquire), 8);
//! let d = rt.stats();
//! assert_eq!((d.replays_recorded, d.replays_hit), (1, 1));
//! ```
//!
//! ## One submit surface: `Runtime::region`
//!
//! Every named entry point above — `parallel`, `submit`, `try_submit`,
//! `submit_with_budget`, `submit_with_deadline`, `submit_replay`,
//! `parallel_replay` — is a thin wrapper over one builder.
//! [`Runtime::region`] chains `.budget(..)`, `.deadline(..)` and
//! `.replay(..)` freely, then finishes with `.submit()`, `.try_submit()`
//! or `.join()`: a budgeted *and* deadlined *and* replayed region is one
//! chain, not a missing method.
//!
//! ```
//! use bots_runtime::{RegionBudget, Runtime};
//! use std::time::Duration;
//!
//! let rt = Runtime::with_threads(2);
//! let h = rt
//!     .region(|_| 6 * 7)
//!     .budget(RegionBudget::MaxQueued(64))
//!     .deadline(Duration::from_secs(1))
//!     .submit();
//! assert_eq!(h.join(), 42);
//! ```
//!
//! ## Worksharing-task loops
//!
//! [`Scope::for_each`] is the loop surface: chain `.chunk(n)` and
//! `.mode(..)`, then `.run()`. [`LoopMode::Tasks`] — the default, and what
//! [`Scope::parallel_for`] does — spawns one task per chunk: maximal
//! stealing, one pooled record per chunk. [`LoopMode::Worksharing`] models
//! the worksharing-task loops of Maroñas et al.: **one** pooled loop
//! descriptor is published to the team and participants *claim* grain-sized
//! chunks from an atomic cursor — no per-chunk task record, so fine grains
//! stop paying per-task overhead. Claims happen at task scheduling points,
//! so cancellation, deadlines and budgets compose unchanged.
//!
//! ```
//! use bots_runtime::{LoopMode, Runtime};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let rt = Runtime::with_threads(4);
//! let sum = AtomicUsize::new(0);
//! rt.parallel(|s| {
//!     s.for_each(0..10_000, |i, _| {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     })
//!     .chunk(32)
//!     .mode(LoopMode::Worksharing)
//!     .run();
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 49_995_000);
//! ```
//!
//! ## What is modelled, and how faithfully
//!
//! * **Tasks** are pooled, refcounted 128-byte records (closure stored
//!   inline, recycled through the per-worker free-list pool that also
//!   holds fibers, group, loop and dependency descriptors — a steady-state
//!   spawn makes **zero heap allocations**, and
//!   [`RuntimeStats::closure_spilled`] counts the exceptions) queued on
//!   per-worker [Chase-Lev deques](deque); idle
//!   workers steal the oldest task from a random victim.
//! * **Whole kernel bodies are allocation-free**: `taskgroup` leases a
//!   pooled group descriptor instead of an `Arc` per use
//!   ([`RuntimeStats::groups_recycled`] tracks reuse, and the wait counts
//!   in [`RuntimeStats::group_waits`], apart from `taskwaits`), and
//!   [`Scope::parallel_for`] stores a *borrow* of its body in the
//!   generator tasks instead of boxing it. Once the pools are warm, a
//!   region body built from `spawn` / `taskwait` / `taskgroup` /
//!   `parallel_for` touches the allocator **zero** times; the only
//!   remaining spills are closures or results larger than the 64-byte
//!   inline slots, both visible in `closure_spilled`.
//! * **Data-flow tasking** ([`Scope::task`] + [`TaskBuilder`]): OpenMP
//!   4.0-style `depend(in/out)` clauses — `after_read(&x)` /
//!   `after_write(&x)` key a per-region, pooled dependency tracker by
//!   object address (a task's whole clause list registers atomically, so
//!   the declared graph is acyclic even with concurrent spawners); a task
//!   whose predecessors have not all retired is held in a *Deferred*
//!   state and released — lock-free — from the completing worker on the
//!   task-exit path. Kernels express *which*
//!   tasks wait instead of barriering everyone (`sparselu deps` runs with
//!   no `taskwait` at all), warm dependency chains allocate nothing, and
//!   [`RuntimeStats::deps_registered`] /
//!   [`RuntimeStats::deps_deferred`] / [`RuntimeStats::deps_released`]
//!   account for every clause, hold and release.
//! * **Regions** are first-class, concurrent and pooled: each
//!   [`submit`](Runtime::submit)/[`parallel`](Runtime::parallel) call
//!   leases a recycled region descriptor (embedded root record, inline
//!   result slot, completion slot, quiescence refcount, panic slot, budget
//!   and stats attribution — a steady-state submission performs **zero
//!   heap allocations**), its root enters the team through a sharded
//!   lock-free injector, and a panic stays inside the region that raised
//!   it. Completion is event-driven: the quiescence transition fires the
//!   region's `Waker` or `on_complete` callback, so joins need not block.
//! * **Per-region budgets** ([`RegionBudget`]): on top of the global
//!   [`RuntimeCutoff`], each region can carry its own queued-task budget;
//!   a region that trips it spawns serially ([`RegionStats::serialized`]
//!   counts how often) while its siblings keep deferring freely.
//! * **Continuation stealing** ([`cont`](RuntimeStats::cont_suspends)):
//!   every deferred task body runs on a pooled **fiber** (a recycled
//!   heap stack + saved context). A wait that cannot complete —
//!   `taskwait`, taskgroup wait, loop drain — suspends the fiber into a
//!   waiter slot and the worker moves on; whichever worker drives the
//!   condition's zero transition (last child retiring, last group member
//!   leaving) requeues the continuation on its *own* deque, so blocked
//!   waiters migrate, including onto thieves. Warm suspend/resume cycles
//!   allocate nothing ([`RuntimeStats::conts_recycled`]), worker stacks
//!   stay small (waits no longer nest native frames), and at quiescence
//!   `cont_suspends == cont_resumes` — every suspend resumed exactly once.
//! * **Tied vs untied** ([`TaskAttrs`]): a task always runs start-to-finish
//!   on one OS *fiber*; what migrates at a wait is the whole suspended
//!   frame, never a partially-run body. Because a blocked waiter leaves
//!   its worker instead of pinning it, the tied-task scheduling
//!   constraint is vacuous at waits: the worker under a blocked tied
//!   `taskwait` is simply free, and drains or steals whatever is next.
//!   The tied/untied attribute is retained for API compatibility (and
//!   for the paper's version matrices) but no longer restricts stealing.
//! * **Cut-offs**: the `if` clause makes a spawn undeferred but still does
//!   runtime bookkeeping; [`RuntimeCutoff`] implements runtime-side
//!   strategies (max tasks, max local queue, max depth, adaptive) — the
//!   paper's §IV-B taxonomy. A *manual* cut-off is simply not calling
//!   `spawn`, which the runtime never sees.
//! * **Cancellation** ([`RegionHandle::cancel`], [`Scope::cancel_region`],
//!   [`Scope::cancel_group`]): cooperative, checked at task scheduling
//!   points — cancelled regions *drain* (spawns suppressed, queued tasks
//!   dispatched with their bodies skipped but every piece of bookkeeping —
//!   dependency retire, group leave, refcounts, pooled frees — still
//!   performed), so they reach ordinary quiescence with all pools intact.
//!   Joiners observe a typed [`RegionError`]; [`RegionStats::cancelled`] /
//!   [`RegionStats::skipped_tasks`] attribute the damage. Deadlines
//!   ([`Runtime::submit_with_deadline`]) cancel through the same flag off
//!   a coarse worker-stamped clock, and overload shedding
//!   ([`RuntimeConfig::with_max_live_regions`], [`Runtime::try_submit`])
//!   refuses or serialises new regions when too many are in flight.
//! * **Fault injection** (`--features failpoints`): deterministic
//!   [`bots_failpoint!`] sites on the scheduler's trickiest edges
//!   (injector push/pop, cross-thread slab frees, group leave, dependency
//!   retire, steal, task invoke), driven by the `BOTS_FAILPOINTS` env var
//!   or `failpoint::cfg` — compiled to nothing by default.
//! * **Generators**: [`Scope::parallel_for`] reproduces the `omp for`
//!   multiple-generator construct; a plain loop in the region root is the
//!   `single` generator.
//! * **Worksharing-task loops** ([`Scope::for_each`] with
//!   [`LoopMode::Worksharing`]): the hybrid loop construct of Maroñas et
//!   al. — one pooled descriptor per loop, chunks claimed off an atomic
//!   cursor, **zero warm allocations** ([`RuntimeStats::ws_chunks`] counts
//!   the claims, [`RuntimeStats::loops_recycled`] the descriptor reuse).
//! * **Scheduling policy** ([`LocalOrder`]): depth-first (LIFO) or
//!   breadth-first (FIFO) local queues.
//!
//! ## Structure
//!
//! | module | contents |
//! |---|---|
//! | [`deque`] | Chase-Lev work-stealing deque |
//! | `task` | pooled single-block task records, refcounted lifecycle |
//! | `freelist` | the one pool: owner free list + cross-thread reclaim stack, sharded per worker, home-routed release |
//! | `slab` | task records as pool items (chunked carving) |
//! | `injector` | sharded lock-free injector feeding region roots to the team |
//! | `region` | pooled region descriptors: root, result, completion, budget, attribution |
//! | `deps` | per-region task-dependency tracker (`depend(in/out)` clauses, pooled) |
//! | `replay` | token-keyed record-and-replay: frozen dependency DAGs, warm re-execution |
//! | `group` | pooled `taskgroup` descriptors (waiter-owned lease, member raw pointers) |
//! | `cont` | pooled cactus-stack continuations: fibers, suspend/wake state machine |
//! | `wsloop` | pooled worksharing-loop descriptors (atomic claim cursor, chunk invoker) |
//! | `event` | sleeper-gated event count (no shared writes to notify) |
//! | [`pool`](Runtime) | worker threads, submit/join, region lifecycle |
//! | [`cancel`](RegionError) | typed region outcomes & shed errors |
//! | [`failpoint`] | compile-time-gated fault injection sites |
//! | [`scope`](Scope) | `spawn` / `taskwait` / `for_each` / `parallel_for` |
//! | [`config`](RuntimeConfig) | policy, cut-off & pool-sizing knobs |
//! | [`stats`](RuntimeStats) | per-worker counters (steals, parks, spills, wake propagation) |
//! | [`local`](WorkerLocal) | `threadprivate`-style per-worker storage |
//!
//! [`RuntimeStats::closure_spilled`]: crate::RuntimeStats::closure_spilled

#![warn(missing_docs)]

pub mod deque;
mod event;
mod rng;

mod cancel;
mod config;
mod cont;
mod deps;
pub mod failpoint;
mod freelist;
mod group;
mod injector;
mod local;
#[cfg(feature = "modelcheck")]
pub mod mc;
mod pool;
mod region;
mod replay;
mod scope;
mod slab;
mod stats;
mod task;
mod wsloop;

pub use cancel::{RegionError, SubmitError};
pub use config::{default_threads, LocalOrder, RegionBudget, RuntimeConfig, RuntimeCutoff};
pub use local::{CacheAligned, WorkerCounter, WorkerLocal};
pub use pool::{RegionBuilder, RegionHandle, Runtime};
pub use region::RegionStats;
pub use replay::ReplayPhase;
pub use scope::{ForBuilder, LoopMode, Scope, TaskBuilder, MAX_TASK_DEPS};
pub use stats::RuntimeStats;
pub use task::TaskAttrs;
