//! The task-creation API handed to code running inside a parallel region.
//!
//! A [`Scope`] is the Rust-side stand-in for "being inside an OpenMP task":
//! it knows the executing worker and the current task's record. Its methods
//! map one-to-one onto the constructs the BOTS kernels use:
//!
//! | OpenMP | here |
//! |---|---|
//! | `#pragma omp task` | [`Scope::spawn`] |
//! | `#pragma omp task untied if(c) final(d)` | [`Scope::spawn_with`] + [`TaskAttrs`] |
//! | `#pragma omp task depend(in: x) depend(inout: y)` | [`Scope::task`] + [`TaskBuilder::after_read`]/[`TaskBuilder::after_write`] |
//! | `#pragma omp taskwait` | [`Scope::taskwait`] |
//! | `#pragma omp taskgroup` (3.1) | [`Scope::taskgroup`] |
//! | `#pragma omp taskyield` (3.1) | [`Scope::taskyield`] |
//! | `#pragma omp for` (task generator loop) | [`Scope::parallel_for`] |
//! | worksharing-task loop (Maroñas et al.) | [`Scope::for_each`] + [`LoopMode::Worksharing`] |
//! | `omp_get_thread_num()` | [`Scope::worker_id`] |
//! | `omp_get_num_threads()` | [`Scope::num_workers`] |
//! | `omp_in_final()` | [`Scope::in_final`] |
//!
//! A deferred spawn is the hot path of the whole suite and performs **zero
//! heap allocations** in the steady state: the task record comes from the
//! worker's slab and the closure is stored inline in the record (see
//! [`crate::task`] and [`crate::slab`]). The same now holds for the rest of
//! the constructs a kernel body uses: `taskgroup` leases a pooled group
//! descriptor ([`crate::group`]) and `parallel_for` stores a *borrow* of
//! its body in the generator tasks — whole kernel bodies run
//! allocation-free once the pools are warm.

use std::marker::PhantomData;
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;

use crate::cont::{self, Continuation};
use crate::deps::{DepAccess, DepClause};
use crate::group::Group;
use crate::pool::{self, ExecCtx, Shared, WorkerCtx, CLOCK_STRIDE};
use crate::region::Region;
use crate::replay;
use crate::stats::WorkerCounters;
use crate::task::{TaskAttrs, TaskRecord};
use crate::wsloop::WsLoop;

/// `depend` clauses a [`TaskBuilder`] holds **inline** (and so
/// allocation-free). Eight covers every kernel in the suite — SparseLU's
/// `bmod`, the widest, uses three. Wider clause sets are supported too:
/// the builder spills to a thread-pooled vector, so the first 9+-clause
/// task on a thread pays one allocation and later ones reuse it.
pub const MAX_TASK_DEPS: usize = 8;

/// Spill vectors kept per thread for clause lists wider than
/// [`MAX_TASK_DEPS`]; see [`DepSpill`].
const SPILL_POOL_CAP: usize = 4;

thread_local! {
    /// Recycled clause-spill vectors (capacity retained), so oversized
    /// clause sets stop allocating once a thread's pool is warm.
    static SPILL_POOL: std::cell::RefCell<Vec<Vec<DepClause>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Overflow storage for a [`TaskBuilder`]'s clause list past
/// [`MAX_TASK_DEPS`]: a vector leased from [`SPILL_POOL`] and returned —
/// cleared, capacity intact — on drop.
struct DepSpill(Vec<DepClause>);

// Not inlined, like every thread-local access: a builder may outlive a
// suspend that moved its frame (see the note above `pool::cur_worker_ptr`).
impl DepSpill {
    #[inline(never)]
    fn lease() -> DepSpill {
        SPILL_POOL.with(|p| DepSpill(p.borrow_mut().pop().unwrap_or_default()))
    }
}

impl Drop for DepSpill {
    #[inline(never)]
    fn drop(&mut self) {
        self.0.clear();
        SPILL_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < SPILL_POOL_CAP {
                pool.push(std::mem::take(&mut self.0));
            }
        });
    }
}

/// How long the *helping* wait loop (deadline-armed regions, replay
/// drains) sleeps between re-probes when it finds nothing to run (safety
/// net; normal wake-ups are eventful). Suspending waits never park — they
/// leave the worker entirely.
const WAIT_PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(2);

/// Why a spawn runs undeferred (the inline cascade's verdict), in
/// precedence order. Computed once per spawn by `Scope::inline_reason`;
/// attribution to the matching counters happens separately so
/// clause-carrying spawns can hold the verdict until registration has
/// answered ready-vs-deferred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InlineReason {
    /// An ancestor was `final`: included tasks are undeferred by the spec.
    Final,
    /// The spawn's `if(false)` clause requested undeferred execution.
    If,
    /// The global runtime cut-off ([`crate::RuntimeCutoff`]) tripped.
    Cutoff,
    /// The region was admitted in shed mode (overload admission control).
    Shed,
    /// The region's own task budget ([`crate::RegionBudget`]) tripped.
    Budget,
}

/// Execution context of one running task; see the module-level docs for
/// the OpenMP construct mapping.
///
/// `'scope` bounds the data that spawned tasks may borrow; it is the region
/// body's environment lifetime, enforced exactly like `std::thread::scope` /
/// `rayon::scope`: [`crate::Runtime::parallel`] does not return until every
/// task has finished, so `'scope` borrows stay valid for as long as any task
/// can observe them.
pub struct Scope<'scope> {
    /// The current task's record. Guaranteed live for the lifetime of the
    /// scope: the executing fiber holds the record's queue handle for the
    /// whole task body, and `Scope` is neither `Send` nor longer-lived than
    /// the body. (The scope deliberately holds no worker pointer: a blocked
    /// wait suspends the fiber, which may resume on *any* worker, so the
    /// executing worker is re-read from thread-local state on every use.)
    rec: NonNull<TaskRecord>,
    /// Innermost active `taskgroup`, inherited by spawned tasks. A raw
    /// pointer into the pooled group descriptors; valid for the life of the
    /// scope because the owning `taskgroup` frame (which holds the lease)
    /// waits for this task — a member — before returning.
    group: Option<NonNull<Group>>,
    /// Invariant in `'scope`.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    pub(crate) fn from_exec(ec: &ExecCtx) -> Scope<'scope> {
        let group = unsafe { ec.rec.as_ref() }.group();
        Scope {
            rec: ec.rec,
            group,
            _marker: PhantomData,
        }
    }

    /// The worker currently mounting this frame. Resolved per call, never
    /// cached across a wait: a suspending scheduling point can resume the
    /// frame on a different worker.
    #[inline]
    fn worker(&self) -> &WorkerCtx {
        pool::current_worker()
    }

    #[inline]
    fn rec(&self) -> &TaskRecord {
        // Safety: see the field docs — the record outlives the scope.
        unsafe { self.rec.as_ref() }
    }

    /// Index of the worker executing the current task, in `0..num_workers`.
    /// Stable until the next task scheduling point: a wait that blocks
    /// (`taskwait`, `taskgroup`, loop barriers) suspends the frame, and a
    /// different worker may resume it. Code that partitions by worker must
    /// re-read this after any wait.
    #[inline]
    pub fn worker_id(&self) -> usize {
        self.worker().index
    }

    /// Team size.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.worker().shared.config.num_threads
    }

    /// Recursion depth of the current task (region root = 0).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.rec().depth
    }

    /// Is the current task tied?
    #[inline]
    pub fn is_tied(&self) -> bool {
        self.rec().tied
    }

    /// Is the current task final (OpenMP 3.1 `omp_in_final()`)? Children of
    /// a final task are executed inline, unconditionally.
    #[inline]
    pub fn in_final(&self) -> bool {
        self.rec().final_
    }

    /// `#pragma omp task`: spawns a tied, deferred child task.
    ///
    /// A thin wrapper over [`task`](Self::task) — equivalent to
    /// `self.task(f).spawn()` — kept as *the* hot no-attribute path.
    #[inline]
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.spawn_impl(TaskAttrs::default(), &[], f);
    }

    /// Spawns a child task with explicit attributes (`untied`, `if`,
    /// `final`); a thin wrapper over [`task`](Self::task), equivalent to
    /// `self.task(f).with_attrs(attrs).spawn()`. The decision cascade
    /// mirrors an OpenMP runtime:
    ///
    /// 1. inside a final task → run inline (included task);
    /// 2. `if(false)` → run inline, undeferred, but *through* the runtime
    ///    (bookkeeping happens — this is the paper's if-clause cut-off);
    /// 3. runtime cut-off trips → run inline;
    /// 4. otherwise initialise a pooled record, link it to the parent, and
    ///    push it on the local deque — no heap allocation unless the
    ///    closure outgrows the record's inline storage or the slab needs a
    ///    fresh chunk.
    #[inline]
    pub fn spawn_with<F>(&self, attrs: TaskAttrs, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.spawn_impl(attrs, &[], f);
    }

    /// Starts a [`TaskBuilder`] for `body`: the chainable spawn surface
    /// behind every task-creating construct. `spawn`/`spawn_with` are thin
    /// wrappers over it; what the builder adds is OpenMP 4.0-style
    /// **`depend` clauses**:
    ///
    /// ```
    /// use bots_runtime::Runtime;
    /// use std::sync::atomic::{AtomicU64, Ordering};
    ///
    /// let rt = Runtime::with_threads(2);
    /// let x = AtomicU64::new(0);
    /// let y = AtomicU64::new(0);
    /// rt.parallel(|s| {
    ///     let (x, y) = (&x, &y);
    ///     // produce(x) → transform(x → y) → consume(y): a data-flow
    ///     // chain with no taskwait anywhere.
    ///     s.task(move |_| x.store(21, Ordering::Relaxed))
    ///         .after_write(x)
    ///         .spawn();
    ///     s.task(move |_| y.store(x.load(Ordering::Relaxed) * 2, Ordering::Relaxed))
    ///         .after_read(x)
    ///         .after_write(y)
    ///         .spawn();
    ///     s.task(move |_| assert_eq!(y.load(Ordering::Relaxed), 42))
    ///         .after_read(y)
    ///         .spawn();
    /// });
    /// assert_eq!(y.load(Ordering::Relaxed), 42);
    /// ```
    ///
    /// Dependences are **address-identity**: `after_read(&x)` /
    /// `after_write(&x)` never dereference `x`, they key the per-region
    /// dependency tracker by its address (see [`crate::TaskBuilder`] for
    /// the full semantics).
    #[inline]
    pub fn task<'s, F>(&'s self, body: F) -> TaskBuilder<'s, 'scope, F>
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        TaskBuilder {
            scope: self,
            body,
            attrs: TaskAttrs::default(),
            deps: [DepClause::default(); MAX_TASK_DEPS],
            n_deps: 0,
            spill: None,
        }
    }

    /// The one spawn path behind `spawn`, `spawn_with` and
    /// [`TaskBuilder::spawn`]. With no clauses this is the classic cascade
    /// (inline-or-defer, lock-free); with clauses the task registers with
    /// the region's dependency tracker — or, when the region carries a
    /// replay token, with the frozen graph ([`crate::replay`]) — and is
    /// either queued immediately (all predecessors retired) or held in the
    /// **Deferred** state until the last predecessor's exit releases it.
    ///
    /// An *unready* dependency task cannot run inline (its predecessors
    /// have not finished), so for clause-carrying spawns the cascade's
    /// verdict is computed up front but acted on only when registration
    /// reports the task ready: a ready task with a tripped `final` /
    /// `if(false)` / cut-off / budget executes synchronously right here —
    /// through the full dispatch path, so dependency retirement and
    /// attribution stay exact — instead of being queued (documented on
    /// [`TaskBuilder`]).
    fn spawn_impl<F>(&self, attrs: TaskAttrs, deps: &[DepClause], f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let worker = self.worker();
        let shared = &*worker.shared;
        let counters = worker.counters();

        let region = unsafe { self.rec().region().as_ref() };
        // Task creation is a cancellation point (OpenMP `cancellation
        // point` at task scheduling points): a spawn inside a cancelled
        // region — or a cancelled taskgroup — creates nothing at all. No
        // record, no group join, no dep registration; the task is counted
        // as skipped and the cancelled subtree stops growing, which is
        // also what bounds the inline cascade below under cancellation.
        if let Some(region) = region {
            if region.is_cancelled()
                || self
                    .group
                    .is_some_and(|g| unsafe { g.as_ref() }.is_cancelled())
            {
                WorkerCounters::bump(&counters.skipped);
                WorkerCounters::bump(&region.shard(worker.index).skipped);
                return;
            }
        }
        // One predicate pass for every spawn. Clause-free tasks act on the
        // verdict immediately; clause-carrying tasks hold it until
        // registration has answered ready-vs-Deferred (an unready task
        // cannot run inline), then honor it on the ready path below.
        let inline = self.inline_reason(attrs, region);
        if deps.is_empty() {
            if let Some(reason) = inline {
                self.bump_inline_counters(reason, region);
                return self.run_inline(attrs, f);
            }
        }

        let rec = worker.new_record(Some(self.rec), self.group, attrs);
        self.rec().add_child();
        if let Some(g) = self.group {
            // Safety: this frame is (transitively) inside the group's
            // taskgroup, whose wait keeps the descriptor leased.
            unsafe { g.as_ref() }.join();
        }
        shared.queued_delta(worker.index, 1);
        WorkerCounters::bump(&counters.spawned);
        // Region attribution: this worker's private (single-writer) shard
        // of the region's counters, so the bumps stay contention-free.
        if let Some(region) = region {
            WorkerCounters::bump(&region.shard(worker.index).spawned);
            region.queued_delta(worker.index, 1);
        }

        // Store the user closure (wrapped to rebuild a scope) in the
        // record. The `'scope` lifetime is erased by the raw storage —
        // sound for the same reason as `rayon::Scope`: the region joiner
        // blocks until the region quiesces, which happens-after this task's
        // closure has returned, so the `'scope` environment outlives every
        // access the closure can make.
        let spilled = unsafe {
            TaskRecord::store_closure(rec, move |ec: &ExecCtx| {
                let scope = Scope::from_exec(ec);
                f(&scope);
            })
        };
        if spilled {
            // Spill telemetry: the zero-allocation property just leaked one
            // box; the counter lets kernels assert it never happens to them.
            WorkerCounters::bump(&counters.closure_spilled);
        }

        if !deps.is_empty() {
            let region = region.expect("depend clauses require a region task");
            let ready = self.register_deps(region, rec, deps);
            if !ready {
                // Deferred: predecessors hold the record; the retiring
                // worker that drops its release count to zero queues it.
                WorkerCounters::bump(&counters.deps_deferred);
                return;
            }
            // Ready at registration — every predecessor already retired —
            // so the inline cascade applies after all: execute the task
            // synchronously through the full dispatch path (dependency
            // retire, group leave, attribution) instead of queueing it.
            // Unlike the clause-free inline path above, the task was
            // counted as spawned (it has a real record); `execute`'s
            // bookkeeping is symmetric with that.
            if let Some(reason) = inline {
                self.bump_inline_counters(reason, Some(region));
                worker.execute(rec);
                return;
            }
        }

        worker.deque.push(rec);
        // One task → at most one extra pair of hands.
        shared.work.notify_one();
    }

    /// The inline cascade's predicate half: why — if at all — would this
    /// spawn run undeferred? Ordered exactly like the classic cascade:
    /// `final` ancestry, `if(false)`, the global runtime cut-off, shed
    /// mode, then the region's own budget (checked against *this region's*
    /// queued count, so a greedy region serialises itself without slowing
    /// a sibling's spawns). Counter attribution is separate
    /// ([`bump_inline_counters`](Self::bump_inline_counters)) so
    /// clause-carrying spawns can compute the verdict without committing
    /// to it.
    fn inline_reason(&self, attrs: TaskAttrs, region: Option<&Region>) -> Option<InlineReason> {
        let worker = self.worker();
        if self.rec().final_ {
            return Some(InlineReason::Final);
        }
        if !attrs.if_clause {
            return Some(InlineReason::If);
        }
        if worker
            .shared
            .cutoff_trips(worker.deque.len(), self.rec().depth)
        {
            return Some(InlineReason::Cutoff);
        }
        if let Some(region) = region {
            // Shed mode (admitted over the in-flight watermark): the
            // region degrades to serial execution instead of piling more
            // deferred work onto an overloaded team.
            if region.shed_mode() {
                return Some(InlineReason::Shed);
            }
            if region.budget_trips() {
                return Some(InlineReason::Budget);
            }
        }
        None
    }

    /// Attributes one acted-on inline decision to the matching counters.
    fn bump_inline_counters(&self, reason: InlineReason, region: Option<&Region>) {
        let worker = self.worker();
        let counters = worker.counters();
        match reason {
            InlineReason::Final => WorkerCounters::bump(&counters.inlined_final),
            InlineReason::If => WorkerCounters::bump(&counters.inlined_if),
            InlineReason::Cutoff => WorkerCounters::bump(&counters.inlined_cutoff),
            InlineReason::Shed => {
                WorkerCounters::bump(&counters.inlined_shed);
                if let Some(region) = region {
                    WorkerCounters::bump(&region.shard(worker.index).shed);
                }
            }
            InlineReason::Budget => {
                WorkerCounters::bump(&counters.inlined_budget);
                if let Some(region) = region {
                    WorkerCounters::bump(&region.shard(worker.index).serialized);
                }
            }
        }
    }

    /// Registers a clause-carrying task with the region, routed by the
    /// region's replay mode ([`crate::replay`]): plain live registration,
    /// live + recording, warm replay off the frozen graph, or the
    /// post-divergence live fallback. Returns ready-vs-Deferred like
    /// [`crate::deps::DepTracker::register`].
    ///
    /// `deps_registered` counts *tracker* traffic, so it is bumped here on
    /// the live paths only — a warm replayed spawn never touches the
    /// tracker and must not count (it is exactly the traffic replay
    /// exists to remove).
    fn register_deps(&self, region: &Region, rec: NonNull<TaskRecord>, deps: &[DepClause]) -> bool {
        let counters = self.worker().counters();
        match region.replay().mode() {
            replay::MODE_RECORDING => {
                // The recorder's own lock (taken before the tracker mutex,
                // consistently) keeps the `&mut GraphRecorder` exclusive
                // even with concurrent registrants. Cold path: once per
                // token.
                let mut guard = region
                    .replay()
                    .recorder()
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                WorkerCounters::add(&counters.deps_registered, deps.len() as u64);
                match guard.as_deref_mut() {
                    // Safety: the record is initialised, closure stored,
                    // and not yet published to any queue.
                    Some(r) => unsafe { region.deps().register_recording(rec, deps, r) },
                    None => unsafe { region.deps().register(rec, deps) },
                }
            }
            replay::MODE_REPLAYING => self.replay_register(region, rec, deps),
            replay::MODE_DIVERGED => {
                // A no-op once the diverging spawn's drain finished; kept
                // here so racing spawners that lose the divergence CAS
                // also wait before touching the (empty) tracker.
                self.drain_replayed(region);
                WorkerCounters::add(&counters.deps_registered, deps.len() as u64);
                // Safety: as above.
                unsafe { region.deps().register(rec, deps) }
            }
            _ => {
                WorkerCounters::add(&counters.deps_registered, deps.len() as u64);
                // Safety: as above.
                unsafe { region.deps().register(rec, deps) }
            }
        }
    }

    /// The warm replay spawn: claims the next frozen index, checks the
    /// renamed clause hash against the recording, and wires the record
    /// into the preresolved graph — no tracker mutex, no map buckets, no
    /// allocation. A mismatch (or overrunning the recorded task count)
    /// diverges the region and falls back to live registration.
    fn replay_register(
        &self,
        region: &Region,
        rec: NonNull<TaskRecord>,
        deps: &[DepClause],
    ) -> bool {
        let rp = region.replay();
        let g = rp.graph().expect("replaying region without a leased graph");
        let idx = rp.claim_idx();
        let matched =
            (idx as usize) < g.n_tasks() && g.hash_clauses(deps) == Some(g.task_hash(idx));
        if !matched {
            self.diverge(region);
            let counters = self.worker().counters();
            WorkerCounters::add(&counters.deps_registered, deps.len() as u64);
            // Safety: initialised, closure stored, unpublished.
            return unsafe { region.deps().register(rec, deps) };
        }
        // Count the spawn before publishing the record: a divergence
        // waiter must never observe a drained count while a matched task
        // is still about to run.
        rp.inc_outstanding();
        let slot = g.slot(idx);
        // Safety: initialised, closure stored, unpublished; the tag bit
        // routes the post-execute retire to the frozen graph.
        unsafe { rec.as_ref().set_dep_state(replay::tag_slot(slot)) };
        slot.store_rec(rec);
        // Drop the spawn guard: a zero transition means every frozen
        // predecessor has already retired — the task is ready.
        slot.drop_guard()
    }

    /// A replayed spawn stopped matching the recording: flip the region to
    /// Diverged and drain the matched prefix, after which live
    /// registration starts from an *empty* tracker — sound because frozen
    /// edges always point from earlier spawns to later ones, so the
    /// matched prefix is closed under predecessors and completes on its
    /// own.
    #[cold]
    fn diverge(&self, region: &Region) {
        crate::bots_failpoint!("replay_diverge");
        region.replay().mark_diverged();
        self.drain_replayed(region);
    }

    /// Waits (help-executing, like any task scheduling point) until every
    /// matched replayed spawn has retired. When the *current* task is
    /// itself one of them its own retire only happens after its body
    /// returns, so the drain target is one, not zero.
    fn drain_replayed(&self, region: &Region) {
        let rp = region.replay();
        let me = self.rec();
        let target = (me.parent().is_some() && me.dep_state_is_replay()) as usize;
        self.wait_until_helping(|| rp.outstanding() <= target);
    }

    /// Runs an undeferred (inline / included) task: full record bookkeeping
    /// so `depth`, tiedness and `final` propagation stay correct, executed
    /// synchronously on the current stack. The record carries no closure —
    /// it exists so children of the inline task see a correct parent chain.
    fn run_inline<F>(&self, attrs: TaskAttrs, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        // No group join/leave: an inline task completes before this returns,
        // so it can never be outstanding at a group wait. (The record still
        // carries the group pointer so deferred children inherit it — they
        // join individually at spawn time.)
        let worker = self.worker();
        let rec = worker.new_record(Some(self.rec), self.group, attrs);

        // Release the creator handle even on unwind: deferred children may
        // outlive the inline task, and their parent-chain references (and
        // ultimately region quiescence) hinge on this release happening.
        // The slab slot index is resolved at drop time, not captured: the
        // body may suspend at a wait and resume on a different worker, and
        // `release_record` must route frees through the *releasing*
        // thread's slab shard.
        struct ReleaseGuard<'a> {
            shared: &'a Shared,
            rec: NonNull<TaskRecord>,
        }
        impl Drop for ReleaseGuard<'_> {
            fn drop(&mut self) {
                self.shared
                    .release_record(self.rec, Some(pool::current_worker().index));
            }
        }
        let _guard = ReleaseGuard {
            shared: &worker.shared,
            rec,
        };

        let child = Scope {
            rec,
            group: self.group,
            _marker: PhantomData,
        };
        f(&child);
    }

    /// `#pragma omp taskwait`: blocks until every *direct* child of the
    /// current task has completed.
    ///
    /// This is a task scheduling point. A wait that cannot complete
    /// immediately does not nest other tasks under the blocked frame and
    /// does not spin: the frame **suspends** — its pooled continuation
    /// parks in a waiter slot on the task record — and the worker returns
    /// to its dispatch loop, free to run *anything*, tied or not. The
    /// child whose completion drains the count requeues the continuation
    /// on its own worker's deque, so the waiter resumes wherever its wake
    /// happened (possibly a different worker: see
    /// [`worker_id`](Self::worker_id)). Tied and untied tasks behave
    /// identically here; the classic tied-task scheduling restriction is
    /// moot because a blocked wait no longer borrows its worker's stack.
    pub fn taskwait(&self) {
        WorkerCounters::bump(&self.worker().counters().taskwaits);
        self.wait_children();
    }

    /// Has the current region — or the innermost enclosing `taskgroup` —
    /// been cancelled? The poll half of cooperative cancellation: long
    /// task bodies (and the generator loops of [`parallel_for`]) check
    /// this to stop early; everything else (spawns, dispatch) checks it
    /// automatically at task scheduling points.
    ///
    /// [`parallel_for`]: Self::parallel_for
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        unsafe { self.rec().region().as_ref() }.is_some_and(|r| r.is_cancelled())
            || self
                .group
                .is_some_and(|g| unsafe { g.as_ref() }.is_cancelled())
    }

    /// Cancels the current region from inside one of its tasks — OpenMP's
    /// `#pragma omp cancel parallel`. Cooperative: already-running task
    /// bodies finish (or poll [`is_cancelled`](Self::is_cancelled)), new
    /// spawns are suppressed, and queued tasks of the region are
    /// dispatched with their bodies skipped. The region still reaches
    /// quiescence and returns every pooled resource; its joiner observes
    /// [`RegionError::Cancelled`](crate::RegionError::Cancelled).
    pub fn cancel_region(&self) {
        if let Some(region) = unsafe { self.rec().region().as_ref() } {
            self.worker().shared.cancel_region(region);
        }
    }

    /// Cancels the innermost enclosing `taskgroup` — OpenMP's
    /// `#pragma omp cancel taskgroup`. Spawns into the cancelled group
    /// (by any member, transitively) are suppressed from here on; the
    /// group wait still drains members already created. Returns `false`
    /// when the current task is not inside a `taskgroup`.
    pub fn cancel_group(&self) -> bool {
        match self.group {
            Some(g) => {
                // Safety: this frame is (transitively) inside the group's
                // taskgroup, whose wait keeps the descriptor leased.
                unsafe { g.as_ref() }.cancel();
                self.worker().shared.progress.notify();
                true
            }
            None => false,
        }
    }

    /// `#pragma omp taskgroup` (OpenMP 3.1 extension): runs `body` inline and
    /// then waits for **all** tasks spawned within it, transitively — a deep
    /// wait, unlike `taskwait`'s direct-children-only wait.
    ///
    /// Because the wait is deep, tasks spawned through the inner scope may
    /// safely borrow locals of the *current* frame (like `rayon::scope` /
    /// `std::thread::scope`); the compiler picks `'inner` to cover them. This
    /// is the construct the recursive kernels use to return results through
    /// parent-frame variables, which the paper's C code does with plain
    /// shared variables + `taskwait`.
    ///
    /// Zero-allocation: the group descriptor is leased from a per-worker
    /// pool ([`crate::group`]) instead of `Arc`-allocated per use; the wait
    /// counts in [`RuntimeStats::group_waits`], not `taskwaits`.
    ///
    /// [`RuntimeStats::group_waits`]: crate::RuntimeStats::group_waits
    pub fn taskgroup<'inner, F, R>(&'inner self, body: F) -> R
    where
        F: FnOnce(&Scope<'inner>) -> R,
    {
        let worker = self.worker();
        let shared = &*worker.shared;
        // Zero-allocation construct: the group descriptor is leased from
        // the worker's pooled free list, not Arc-allocated per use.
        // Safety: this is worker `worker.index`'s thread.
        let (group, fresh) = unsafe { shared.group_pool.lease(worker.index) };
        // Re-arm the cancel flag: the pool only hands out drained
        // descriptors, so no member of a previous use can observe this.
        unsafe { group.as_ref() }.reset();
        // Owner-as-member: the waiting frame joins its own group for the
        // whole body, so the member count hits zero **exactly once** per
        // lease — at the final leave — and the drain claim (which wakes a
        // suspended waiter) has a unique transition to fire on.
        unsafe { group.as_ref() }.join();
        let counters = worker.counters();
        WorkerCounters::bump(if fresh {
            &counters.groups_fresh
        } else {
            &counters.groups_recycled
        });

        // The drain-and-release obligation rides a guard so it holds on
        // unwind too: members may borrow this very frame *and* hold raw
        // pointers to the leased descriptor, so a body panic must not pop
        // the frame (or return the lease) while members are outstanding.
        struct GroupGuard<'s, 'scope> {
            scope: &'s Scope<'scope>,
            group: NonNull<Group>,
        }
        impl Drop for GroupGuard<'_, '_> {
            fn drop(&mut self) {
                // The group wait is a task scheduling point like taskwait,
                // but counted separately: folding it into `taskwaits` would
                // silently inflate the Table II taskwait column.
                WorkerCounters::bump(&self.scope.worker().counters().group_waits);
                let group = unsafe { self.group.as_ref() };
                // Give up our own membership first. If *our* leave drained
                // the group, no member ever drove a zero transition: the
                // waiter slot was never claimed and the wait is already
                // over. Otherwise wait — suspending when allowed — and
                // then rendezvous with the zero-driving member's claim
                // stamp, whose landing is its final descriptor access.
                if !group.leave() {
                    self.scope.wait_group(group);
                    group.await_drain_claim();
                }
                // Re-resolve the worker: the wait may have migrated us (the
                // release routes home). Safety: drained, claim landed.
                let worker = self.scope.worker();
                unsafe { worker.shared.group_pool.release(self.group, worker.index) };
            }
        }
        let guard = GroupGuard { scope: self, group };

        let inner: Scope<'inner> = Scope {
            rec: self.rec,
            group: Some(group),
            _marker: PhantomData,
        };
        let r = body(&inner);
        // Wait for every member (transitively) and return the lease.
        drop(guard);
        r
    }

    /// `#pragma omp taskyield` (OpenMP 3.1 extension): a task scheduling
    /// point where the current task allows the worker to run at most one
    /// other task before continuing. Returns whether anything was
    /// executed. (Other work runs on its *own* pooled fiber, not nested
    /// under this frame, so there is nothing the tied-task scheduling
    /// constraint could protect — any queued item is fair game.)
    pub fn taskyield(&self) -> bool {
        self.try_run_one()
    }

    /// Acquires and dispatches one queue item, if any is visible: own
    /// deque first, then one steal round. The item is mounted on its own
    /// fiber (or resumed on the one it already has), never nested under
    /// the calling frame, so no scheduling restriction applies.
    fn try_run_one(&self) -> bool {
        let worker = self.worker();
        if let Some(t) = worker.pop_local().or_else(|| worker.try_steal()) {
            WorkerCounters::bump(&worker.counters().switched_in_wait);
            worker.dispatch(t);
            return true;
        }
        false
    }

    /// May a blocked wait suspend its continuation? Not while the frame
    /// unwinds: the panic in flight is counted per *thread*, and finishing
    /// the unwind on another worker corrupts both workers' counts (one
    /// then poisons every mutex it unlocks). Deadline-armed regions keep
    /// the helping/park loop too: its parked re-probe stamps the coarse
    /// clock and trips the deadline when no task dispatch advances it.
    fn can_suspend(&self) -> bool {
        let region = unsafe { self.rec().region().as_ref() };
        !std::thread::panicking() && region.is_none_or(|r| r.deadline_ms() == 0)
    }

    /// Suspends the calling fiber: `RUNNING → SUSPENDING → switch out`.
    /// The caller must already have parked `c` in a waiter slot; a wake
    /// that claimed the registration before the park finished shows up as
    /// a `QUEUED` stamp, which is consumed here without unmounting.
    /// Returns once the continuation is resumed (or the token was eaten).
    fn suspend(&self, c: &Continuation) {
        match c.state.compare_exchange(
            cont::RUNNING,
            cont::SUSPENDING,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                WorkerCounters::bump(&self.worker().counters().cont_suspends);
                crate::bots_failpoint!("cont_suspend");
                // Safety: called on this fiber's own stack; the host
                // finalises the park (or requeues on a raced wake) the
                // moment the switch lands back in `mount`.
                unsafe { c.switch_out() };
                // Resumed: the dispatching worker stored RUNNING before
                // mounting us, and we may be on a different thread now.
            }
            Err(actual) => {
                // The wake won the race to our state word: absorb it as a
                // token and carry on running — no queue round-trip.
                debug_assert_eq!(actual, cont::QUEUED);
                c.state.store(cont::RUNNING, Ordering::Relaxed);
            }
        }
    }

    /// Suspending wait for `outstanding() == 0` on the current task's own
    /// record (taskwait, generator drains). The registration/recheck pair
    /// and the completing child's decrement/claim pair are both SeqCst, so
    /// one side always observes the other: a lost-wakeup would need the
    /// recheck to miss the decrement *and* the claim to miss the
    /// registration, which no interleaving of two SeqCst store/load pairs
    /// permits (the store-buffering argument).
    fn wait_children(&self) {
        let rec = self.rec();
        if rec.outstanding() == 0 {
            return;
        }
        if !self.can_suspend() {
            return self.wait_until_helping(|| rec.outstanding() == 0);
        }
        let cont = pool::current_cont().expect("task body running off-fiber");
        let c = unsafe { cont.as_ref() };
        loop {
            if rec.outstanding() == 0 {
                return;
            }
            rec.register_waiter(cont);
            if rec.outstanding() == 0 {
                // Drained while we registered. Either the registration is
                // still ours to take back, or the zero-driving child
                // already claimed it — then its wake (a token, since we
                // never parked) must be consumed before the slot can be
                // considered quiet.
                if rec.claim_waiter().is_none() {
                    consume_wake_token(c);
                }
                return;
            }
            self.suspend(c);
        }
    }

    /// Suspending wait for a taskgroup to drain, called by the lease owner
    /// *after* its own leave (see the `GroupGuard`). Same shape as
    /// [`wait_children`](Self::wait_children) with one twist: the drain
    /// claim always stamps the [`crate::group`] CLAIMED sentinel, so a
    /// raced unregistration reports "claim won" rather than handing the
    /// slot back.
    fn wait_group(&self, group: &Group) {
        if !self.can_suspend() {
            return self.wait_until_helping(|| group.outstanding() == 0);
        }
        let cont = pool::current_cont().expect("task body running off-fiber");
        let c = unsafe { cont.as_ref() };
        loop {
            if group.outstanding() == 0 {
                return;
            }
            if !group.try_register_waiter(cont) {
                // The zero-driving member's drain claim landed between our
                // outstanding() read and the registration: the group is
                // drained, no wake is coming, and the CLAIMED stamp stays
                // put for `await_drain_claim`.
                return;
            }
            if group.outstanding() == 0 {
                if !group.unregister_waiter(cont) {
                    consume_wake_token(c);
                }
                return;
            }
            self.suspend(c);
        }
    }

    /// The legacy helping wait: run other tasks (each on its own fiber)
    /// until `done`. Retained for the two waits that cannot suspend —
    /// deadline-armed regions (see [`can_suspend`](Self::can_suspend)) and
    /// replay drains, whose retire path signals the progress channel but
    /// has no waiter slot to claim a continuation from. Helping never
    /// migrates the calling frame: nested dispatch always returns to this
    /// stack on this thread.
    fn wait_until_helping(&self, done: impl Fn() -> bool) {
        loop {
            if done() {
                return;
            }
            if self.try_run_one() {
                continue;
            }
            let worker = self.worker();
            let shared = &*worker.shared;
            // Register on the progress channel and park until the waited
            // counter drains. New *work* does not wake a parked waiter (the
            // 2 ms re-probe picks it up); only its own completion signal
            // does — which is exactly once per wait, not once per task.
            let token = shared.progress.prepare();
            if done() {
                shared.progress.cancel();
                return;
            }
            // About to park: stamp the coarse clock and enforce a region
            // deadline even when no task dispatch is advancing it. This
            // only *cancels* — the wait itself must still run to `done()`:
            // outstanding children may borrow this very frame, so an early
            // return here would be unsound. Cancellation instead empties
            // the region (spawn suppression + skip-dispatch), after which
            // `done()` flips on its own.
            shared.stamp_clock();
            if let Some(region) = unsafe { self.rec().region().as_ref() } {
                if !region.is_cancelled() && shared.deadline_passed(region) {
                    shared.cancel_region(region);
                }
            }
            if worker.work_visible() {
                shared.progress.cancel();
                continue;
            }
            shared.progress.wait_timeout(token, WAIT_PARK_TIMEOUT);
        }
    }

    /// `#pragma omp for` used as a *multiple-generator* construct: splits
    /// `range` into one contiguous chunk per worker, runs each chunk as an
    /// untied generator task, and ends with a barrier.
    ///
    /// `body` runs once per index, on the generator task's scope, so tasks
    /// it spawns are children of the generator — multiple workers create
    /// tasks concurrently, which is exactly the single-vs-multiple-generator
    /// experiment of the paper (§IV-D, SparseLU). The closing barrier waits
    /// for the iterations *and* the tasks they spawned (each generator ends
    /// with a `taskwait`).
    ///
    /// Zero-allocation: generator tasks store a **borrow** of `body` (the
    /// old implementation boxed it in an `Arc` per call). Sound because the
    /// construct cannot return — normally or by unwind — while any
    /// generator is outstanding (see [`GeneratorDrainGuard`]), and each
    /// generator's own closing `taskwait` means `body` is never called
    /// after the generators complete.
    /// A thin wrapper over [`for_each`](Self::for_each) — equivalent to
    /// `self.for_each(range, body).run()` (task-per-chunk mode, one chunk
    /// per worker). Kept as the familiar name; the builder is where chunk
    /// sizes and [`LoopMode::Worksharing`] live.
    pub fn parallel_for<F>(&self, range: Range<usize>, body: F)
    where
        F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
    {
        self.for_each(range, body).run();
    }

    /// Like [`parallel_for`](Self::parallel_for) but with an explicit chunk
    /// size (an `omp for schedule(dynamic, chunk)` generator): a thin
    /// wrapper over [`for_each`](Self::for_each), equivalent to
    /// `self.for_each(range, body).chunk(chunk).run()`.
    pub fn parallel_for_chunked<F>(&self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
    {
        self.for_each(range, body).chunk(chunk).run();
    }

    /// Starts a [`ForBuilder`] over `range`: the unified loop surface
    /// behind `parallel_for`/`parallel_for_chunked`, and the only way to
    /// pick the dispatch mode:
    ///
    /// * [`LoopMode::Tasks`] (the default) — the multiple-generator
    ///   construct: one untied generator task per chunk, idle workers
    ///   steal whole chunks.
    /// * [`LoopMode::Worksharing`] — one pooled descriptor for the whole
    ///   iteration space; the team *claims* grain-sized strides off a
    ///   shared atomic cursor, paying one task record per **worker**
    ///   instead of one per chunk (Maroñas et al., *Worksharing Tasks*).
    ///
    /// ```
    /// use bots_runtime::{LoopMode, Runtime};
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    ///
    /// let rt = Runtime::with_threads(2);
    /// let sum = AtomicUsize::new(0);
    /// rt.parallel(|s| {
    ///     s.for_each(0..1000, |i, _| {
    ///         sum.fetch_add(i, Ordering::Relaxed);
    ///     })
    ///     .chunk(16)
    ///     .mode(LoopMode::Worksharing)
    ///     .run();
    /// });
    /// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
    /// ```
    ///
    /// Both modes end with a barrier (the iterations *and* the tasks they
    /// spawned), observe cancellation between chunks/iterations, and store
    /// only a **borrow** of `body` — no allocation per call.
    #[inline]
    pub fn for_each<'s, F>(&'s self, range: Range<usize>, body: F) -> ForBuilder<'s, 'scope, F>
    where
        F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
    {
        ForBuilder {
            scope: self,
            range,
            body,
            chunk: None,
            mode: LoopMode::Tasks,
        }
    }

    /// [`LoopMode::Tasks`] with the default chunking: one contiguous chunk
    /// per worker, each run as an untied generator task, closed by a
    /// barrier. This is the single-vs-multiple-generator experiment of the
    /// paper (§IV-D, SparseLU): `body` runs on the generator's scope, so
    /// tasks it spawns are children of the generator and multiple workers
    /// create tasks concurrently.
    ///
    /// Zero-allocation: generator tasks store a **borrow** of `body`.
    /// Sound because the construct cannot return — normally or by unwind —
    /// while any generator is outstanding (see [`GeneratorDrainGuard`]),
    /// and each generator's own closing `taskwait` means `body` is never
    /// called after the generators complete.
    fn run_tasks_for<F>(&self, range: Range<usize>, body: F)
    where
        F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        let chunks = self.num_workers().min(len);
        let chunk_size = len.div_ceil(chunks);
        // Safety: the guard (and the closing taskwait) drain every
        // generator before this frame — which owns `body` — is popped.
        let body: &'scope F = unsafe { std::mem::transmute(&body) };
        let guard = self.generator_drain_guard();
        for c in 0..chunks {
            let lo = range.start + c * chunk_size;
            let hi = (lo + chunk_size).min(range.end);
            if lo >= hi {
                break;
            }
            // Task scheduling points: stop generating on cancellation,
            // both between chunk spawns and between iterations inside a
            // generator. The closing taskwait still drains what exists.
            if self.is_cancelled() {
                break;
            }
            self.spawn_with(TaskAttrs::untied(), move |s| {
                for i in lo..hi {
                    if s.is_cancelled() {
                        break;
                    }
                    body(i, s);
                }
                s.taskwait();
            });
        }
        self.taskwait();
        std::mem::forget(guard);
    }

    /// [`LoopMode::Tasks`] with an explicit chunk size: spawns
    /// `ceil(len / chunk)` generator tasks that idle workers steal. Same
    /// borrow/drain soundness story as [`run_tasks_for`](Self::run_tasks_for).
    fn run_tasks_chunked<F>(&self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        // Safety: as in `run_tasks_for` — drained before the frame is left.
        let body: &'scope F = unsafe { std::mem::transmute(&body) };
        let guard = self.generator_drain_guard();
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + chunk).min(range.end);
            // Cancellation checks mirror `run_tasks_for`: stop generating
            // chunks and stop iterating inside a generator.
            if self.is_cancelled() {
                break;
            }
            self.spawn_with(TaskAttrs::untied(), move |s| {
                for i in lo..hi {
                    if s.is_cancelled() {
                        break;
                    }
                    body(i, s);
                }
                s.taskwait();
            });
            lo = hi;
        }
        self.taskwait();
        std::mem::forget(guard);
    }

    /// [`LoopMode::Worksharing`]: publish one pooled [`WsLoop`] descriptor
    /// for the whole iteration space and let the team claim grain-sized
    /// strides cooperatively. Spawns at most `num_workers - 1` *helper*
    /// tasks (one per extra pair of hands, not one per chunk), then the
    /// generating frame participates itself and closes with a barrier.
    ///
    /// Soundness mirrors the generator loops, with the descriptor lease
    /// layered on the [`crate::group`] protocol:
    ///
    /// * helpers hold a raw pointer to the descriptor and a borrow of
    ///   `body`; both stay valid because this frame cannot be left —
    ///   normally or by unwind — while any helper is outstanding (the
    ///   drain guard / closing `taskwait`), and a helper's last descriptor
    ///   access precedes its own completion;
    /// * the lease returns only after the drain (guard declaration order:
    ///   the release guard is declared *before* the drain guard, so on
    ///   unwind the helpers drain first, then the lease goes home);
    /// * tasks spawned by `body` are children of whichever participant ran
    ///   the iteration and never touch the descriptor.
    fn run_worksharing<F>(&self, range: Range<usize>, grain: usize, body: F)
    where
        F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
    {
        debug_assert!(grain > 0, "worksharing grain must be positive");
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        let worker = self.worker();
        let shared = &*worker.shared;
        let counters = worker.counters();
        // Safety: this is worker `worker.index`'s thread.
        let (lp, fresh) = unsafe { shared.loop_pool.lease(worker.index) };
        WorkerCounters::bump(if fresh {
            &counters.loops_fresh
        } else {
            &counters.loops_recycled
        });
        unsafe { lp.as_ref() }.arm(
            range.start,
            range.end,
            grain,
            &body as *const F as *const (),
            invoke_chunk::<F>,
        );

        // Declared before the drain guard: drops *after* it, so on unwind
        // the helpers (which hold raw descriptor pointers) drain before
        // the lease returns to the pool.
        let _release = LoopReleaseGuard { scope: self, lp };
        // Safety: drained before the frame owning `body` is left.
        let guard = self.generator_drain_guard();

        let helpers = self
            .num_workers()
            .min(len.div_ceil(grain))
            .saturating_sub(1);
        for _ in 0..helpers {
            // Task scheduling point: stop recruiting on cancellation (the
            // claim loops observe the flag too).
            if self.is_cancelled() {
                break;
            }
            let ptr = LoopPtr(lp);
            self.spawn_with(TaskAttrs::untied(), move |s| {
                let ptr = ptr;
                s.ws_participate(ptr.0);
                // Barrier half: tasks spawned by claimed iterations are
                // children of this helper; drain them before completing.
                s.taskwait();
            });
        }
        // The generating frame is a participant too — worksharing needs no
        // idle generator blocked behind the claim cursor.
        self.ws_participate(lp);
        self.taskwait();
        std::mem::forget(guard);
    }

    /// One participant's claim cycle: claim grain-sized strides off the
    /// descriptor's cursor and run them against this scope until the space
    /// drains (or the region/group is cancelled — the claim loop is a
    /// cancellation point like the generator loops' iteration checks).
    fn ws_participate(&self, lp: NonNull<WsLoop>) {
        let worker = self.worker();
        let shared = &*worker.shared;
        WorkerCounters::bump(&worker.counters().ws_participations);
        // Safety: the descriptor stays leased (and the body alive) until
        // the generating frame's barrier has seen this participant finish.
        let l = unsafe { lp.as_ref() };
        let mut claims: u32 = 0;
        loop {
            // A chunk claim is a task scheduling point, and a participant
            // dispatches no tasks while it loops here — so it must keep
            // the deadline machinery honest itself: periodically re-stamp
            // the coarse clock and enforce the region's deadline, exactly
            // as task dispatch does.
            claims = claims.wrapping_add(1);
            if claims.is_multiple_of(CLOCK_STRIDE) {
                shared.stamp_clock();
                if let Some(region) = unsafe { self.rec().region().as_ref() } {
                    if !region.is_cancelled() && shared.deadline_passed(region) {
                        shared.cancel_region(region);
                    }
                }
            }
            if self.is_cancelled() {
                break;
            }
            let Some((lo, hi)) = l.claim() else {
                break;
            };
            // Per-iteration counter resolution: the body may spawn an
            // inline task whose wait suspends and migrates this frame, and
            // the single-writer counter bump must land on the worker the
            // frame is *currently* mounted on.
            WorkerCounters::bump(&self.worker().counters().ws_chunks);
            // Safety: claimed strides are disjoint; the scope pointer is
            // this participant's own live frame.
            unsafe { l.run_chunk(lo, hi, self as *const Scope<'scope> as *const ()) };
        }
        // Fault injection at the drain edge: perturb the window between a
        // participant's last claim and the owner observing completion.
        crate::bots_failpoint!("loop_drain");
    }

    /// The unwind half of the borrow-based `parallel_for` soundness story:
    /// generator tasks hold a frame-lifetime borrow of the loop body, so if
    /// spawning panics midway (an inlined generator's body can unwind into
    /// the spawner), the frame must not be popped while any direct child is
    /// outstanding. The guard drains on drop; the normal path drains via
    /// the closing `taskwait` and forgets it.
    fn generator_drain_guard<'s>(&'s self) -> GeneratorDrainGuard<'s, 'scope> {
        GeneratorDrainGuard(self)
    }
}

/// Spin-consumes a wake token whose delivery is guaranteed but possibly
/// still in flight: a waiter that lost its registration to a claimant
/// knows a `QUEUED` stamp is coming (or has come) and must revert it to
/// `RUNNING` before the continuation's state can carry another wait. The
/// claimant's stamp is one CAS away, so the spin is effectively instant.
fn consume_wake_token(c: &Continuation) {
    loop {
        if c.state
            .compare_exchange(
                cont::QUEUED,
                cont::RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            return;
        }
        std::hint::spin_loop();
    }
}

/// See [`Scope::generator_drain_guard`].
struct GeneratorDrainGuard<'s, 'scope>(&'s Scope<'scope>);

impl Drop for GeneratorDrainGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.wait_children();
    }
}

/// The monomorphised trampoline a [`WsLoop`] descriptor dispatches claimed
/// chunks through: rebuilds the typed body/scope references and runs
/// iterations `lo..hi`, observing cancellation between iterations like the
/// generator loops. Coerces to [`ChunkInvoke`] — the signature types carry
/// no lifetimes, so the fn pointer is fully erased.
unsafe fn invoke_chunk<'scope, F>(body: *const (), lo: usize, hi: usize, scope: *const ())
where
    F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
{
    let body = &*(body as *const F);
    let scope = &*(scope as *const Scope<'scope>);
    for i in lo..hi {
        if scope.is_cancelled() {
            break;
        }
        body(i, scope);
    }
}

/// Send wrapper for the pooled loop-descriptor pointer captured by helper
/// tasks (the [`crate::pool`] `RegionPtr` pattern): the pointee is all
/// atomics and outlives the helpers by the lease protocol.
struct LoopPtr(NonNull<WsLoop>);
unsafe impl Send for LoopPtr {}

/// Returns a worksharing lease to the pool on scope exit — declared before
/// the drain guard so the drain (which keeps helper-held descriptor
/// pointers valid) happens first on unwind. See [`Scope::run_worksharing`].
struct LoopReleaseGuard<'s, 'scope> {
    scope: &'s Scope<'scope>,
    lp: NonNull<WsLoop>,
}

impl Drop for LoopReleaseGuard<'_, '_> {
    fn drop(&mut self) {
        // The worker is resolved at drop time: the barrier may have
        // migrated the frame (the release routes home). Safety: drained.
        let worker = self.scope.worker();
        unsafe { worker.shared.loop_pool.release(self.lp, worker.index) };
    }
}

/// How a [`ForBuilder`] dispatches its iteration space to the team.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoopMode {
    /// Task-per-chunk (the classic multiple-generator construct): each
    /// chunk is an untied task idle workers steal whole. Best when
    /// iterations are coarse or spawn subtrees of their own.
    #[default]
    Tasks,
    /// One shared descriptor for the whole space; participants claim
    /// grain-sized strides off an atomic cursor, paying one task record
    /// per worker instead of one per chunk. Best for fine-grained loops
    /// where per-chunk task protocol would dominate the body.
    Worksharing,
}

/// The chainable loop surface started by [`Scope::for_each`]:
/// `s.for_each(range, body).chunk(n).mode(LoopMode::Worksharing).run()`.
/// [`Scope::parallel_for`] and [`Scope::parallel_for_chunked`] are thin
/// wrappers over it.
///
/// Both modes compose with the rest of the runtime the same way the
/// generator loops always have: cancellation (and therefore deadlines) is
/// observed between chunks and between iterations, budgets/shed mode apply
/// to the tasks the modes create (per chunk for `Tasks`, per helper for
/// `Worksharing`), and tasks spawned *by* the body are ordinary children
/// of whichever task ran the iteration. The loop always closes with a
/// barrier covering the iterations and everything they spawned.
#[must_use = "a ForBuilder does nothing until .run() is called"]
pub struct ForBuilder<'s, 'scope, F> {
    scope: &'s Scope<'scope>,
    range: Range<usize>,
    body: F,
    chunk: Option<usize>,
    mode: LoopMode,
}

impl<'s, 'scope, F> ForBuilder<'s, 'scope, F>
where
    F: Fn(usize, &Scope<'scope>) + Send + Sync + 'scope,
{
    /// Sets the chunk size (`Tasks` mode: iterations per generator task;
    /// `Worksharing` mode: the claim grain). Without it, `Tasks` splits
    /// one chunk per worker and `Worksharing` picks a grain of
    /// `len / (4 × workers)` (at least 1), overridable team-wide with
    /// [`RuntimeConfig::with_loop_grain`](crate::RuntimeConfig::with_loop_grain).
    pub fn chunk(mut self, n: usize) -> Self {
        assert!(n > 0, "chunk size must be positive");
        self.chunk = Some(n);
        self
    }

    /// Picks the dispatch mode (default [`LoopMode::Tasks`]).
    pub fn mode(mut self, mode: LoopMode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the loop to its closing barrier.
    pub fn run(self) {
        let ForBuilder {
            scope,
            range,
            body,
            chunk,
            mode,
        } = self;
        match mode {
            LoopMode::Tasks => match chunk {
                None => scope.run_tasks_for(range, body),
                Some(c) => scope.run_tasks_chunked(range, c, body),
            },
            LoopMode::Worksharing => {
                let len = range.end.saturating_sub(range.start);
                if len == 0 {
                    return;
                }
                let grain = chunk.unwrap_or_else(|| {
                    let configured = scope.worker().shared.config.loop_grain;
                    if configured > 0 {
                        configured
                    } else {
                        len.div_ceil(4 * scope.num_workers()).max(1)
                    }
                });
                scope.run_worksharing(range, grain, body);
            }
        }
    }
}

/// The chainable spawn surface started by [`Scope::task`]: attributes
/// (`tied`/`untied`/`final`/`if`) and OpenMP 4.0-style `depend` clauses,
/// ending in [`spawn`](Self::spawn). `Scope::spawn`/`spawn_with` are thin
/// wrappers over a clause-free builder.
///
/// ## Dependence semantics (address identity)
///
/// A clause names an **object address** — `after_read(&x)` and
/// `after_write(&x)` key the region's dependency tracker by `&x`'s address
/// and never dereference it:
///
/// * `after_read(&x)` — `depend(in: x)`: runs after the last task that
///   declared `after_write(&x)`;
/// * `after_write(&x)` — `depend(out/inout: x)`: runs after the last
///   writer of `x` *and* every reader declared since.
///
/// Two tasks are ordered only if both declare a clause on the same
/// address; dependences are scoped to the spawning task's **region**. A
/// task's whole clause list registers **atomically** (one tracker lock),
/// so registrations are totally ordered — every edge points from an
/// earlier registrant to a later one and the declared graph is always
/// acyclic, even when several tasks spawn dependency tasks concurrently
/// (concurrent registrants serialise briefly on that lock; a single
/// generator never contends). The object must outlive `'scope` — the
/// compiler enforces it, which also rules out dangling addresses being
/// recycled mid-region by an unrelated allocation.
///
/// A task whose predecessors have all retired is queued immediately; one
/// that must wait is held in the **Deferred** state — in no queue, costing
/// no scheduler attention — and is queued by the retiring predecessor that
/// releases its last dependence, on that worker's own deque. Steady-state
/// dependency chains allocate nothing: dep blocks, map entries and list
/// nodes are pooled per region (see `RuntimeStats::{deps_registered,
/// deps_deferred, deps_released}`).
///
/// ## Interaction with the inline cascade
///
/// A task carrying clauses honors the inline cascade (`final` ancestry,
/// `if(false)`, the runtime cut-off, shed mode, region budgets) exactly
/// when it is **ready at registration** — every predecessor has already
/// retired. A ready spawn that the cascade would undefer executes
/// synchronously before `spawn()` returns, through the full dispatch path
/// (its own retire releases successors as usual). A spawn with an
/// unretired predecessor is always deferred, whatever its attributes:
/// running it inline would execute a task whose inputs are still being
/// produced, or reorder the declared graph. The attributes still apply to
/// the deferred task itself (tiedness constrains its taskwaits; `final`
/// propagates to its clause-free descendants).
///
/// ## Synchronisation
///
/// `taskwait`/`taskgroup` interact with dependency tasks like with any
/// other child: a deferred child counts as outstanding until it has
/// actually run, so a `taskwait` is also a dependence barrier for the
/// waiting task's own children. Kernels that fully order themselves with
/// clauses need no barrier at all — region quiescence is the final join.
///
/// **Tied waits and cross-subtree dependences**: in runtimes that block
/// a tied task's wait on its worker's stack, the OpenMP task scheduling
/// constraint (the wait may only execute descendants) famously deadlocks
/// when a Deferred child's predecessor lives *outside* the waiting
/// subtree and no other worker is free — the TSC-2 / `depend` interplay.
/// Here a blocked wait **suspends its continuation** and frees the
/// worker entirely, so the out-of-subtree predecessor runs, retires, and
/// releases the Deferred child no matter how narrow the team; the
/// pattern completes on one thread with tied tasks and needs no untied
/// workaround.
#[must_use = "a TaskBuilder does nothing until .spawn() is called"]
pub struct TaskBuilder<'s, 'scope, F> {
    scope: &'s Scope<'scope>,
    body: F,
    attrs: TaskAttrs,
    deps: [DepClause; MAX_TASK_DEPS],
    n_deps: usize,
    /// Engaged by the clause past [`MAX_TASK_DEPS`]: a pooled overflow
    /// list holding *all* clauses (the inline array is copied in first),
    /// so wide dependence fans need no spawn-path special case.
    spill: Option<DepSpill>,
}

impl<'s, 'scope, F> TaskBuilder<'s, 'scope, F>
where
    F: FnOnce(&Scope<'scope>) + Send + 'scope,
{
    /// `depend(in: obj)`: run after the last task that declared a write on
    /// `obj`'s address. Identity only — `obj` is never dereferenced.
    pub fn after_read<T: ?Sized>(self, obj: &'scope T) -> Self {
        self.clause(obj as *const T as *const () as usize, DepAccess::Read)
    }

    /// `depend(out: obj)` / `depend(inout: obj)`: run after the last
    /// writer of `obj`'s address *and* every reader declared since; later
    /// clauses on the same address order themselves after this task.
    /// Identity only — `obj` is never dereferenced (which is why a shared
    /// reference suffices to declare a write *intent*).
    pub fn after_write<T: ?Sized>(self, obj: &'scope T) -> Self {
        self.clause(obj as *const T as *const () as usize, DepAccess::Write)
    }

    fn clause(mut self, addr: usize, access: DepAccess) -> Self {
        let clause = DepClause { addr, access };
        if let Some(sp) = self.spill.as_mut() {
            sp.0.push(clause);
        } else if self.n_deps < MAX_TASK_DEPS {
            self.deps[self.n_deps] = clause;
            self.n_deps += 1;
        } else {
            // Clause `MAX_TASK_DEPS + 1`: promote to a pooled spill list.
            // The common (narrow) case never reaches here and stays
            // allocation-free; a wide fan reuses a thread-local vector.
            let mut sp = DepSpill::lease();
            sp.0.extend_from_slice(&self.deps);
            sp.0.push(clause);
            self.spill = Some(sp);
        }
        self
    }

    /// Marks the task tied (the OpenMP default): its taskwaits may only
    /// pick up descendants.
    pub fn tied(mut self) -> Self {
        self.attrs.tied = true;
        self
    }

    /// Marks the task untied: its taskwaits drain and steal freely.
    pub fn untied(mut self) -> Self {
        self.attrs.tied = false;
        self
    }

    /// Applies the `final` clause: the task's clause-free descendants run
    /// inline, unconditionally (OpenMP 3.1 `final(true)`).
    pub fn finalize(mut self) -> Self {
        self.attrs.final_clause = true;
        self
    }

    /// Sets the `if` clause value; `false` makes a clause-free task
    /// undeferred (inline with bookkeeping — the paper's if-clause
    /// cut-off).
    pub fn if_clause(mut self, cond: bool) -> Self {
        self.attrs.if_clause = cond;
        self
    }

    /// Replaces the whole attribute set (for call sites that compute a
    /// [`TaskAttrs`] once and reuse it across spawns).
    pub fn with_attrs(mut self, attrs: TaskAttrs) -> Self {
        self.attrs = attrs;
        self
    }

    /// Creates the task: registers its clauses (if any) and queues it —
    /// immediately when every predecessor has retired, otherwise the
    /// moment the last one does. Returns as soon as the task is created,
    /// like [`Scope::spawn`].
    pub fn spawn(self) {
        let TaskBuilder {
            scope,
            body,
            attrs,
            deps,
            n_deps,
            spill,
        } = self;
        match spill {
            // The spill's Drop returns the vector to the pool after the
            // clauses have been registered (spawn_impl copies them out).
            Some(sp) => scope.spawn_impl(attrs, &sp.0, body),
            None => scope.spawn_impl(attrs, &deps[..n_deps], body),
        }
    }
}
