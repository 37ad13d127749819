//! The worker pool and execution engine.
//!
//! A [`Runtime`] owns a team of worker threads, one Chase-Lev deque per
//! worker, one record slab per worker, and a sharded lock-free injector
//! (one shard per worker). The team serves an **arbitrary number of
//! parallel regions concurrently**: any thread may call
//! [`Runtime::submit`], which hashes the submitter onto an injector shard,
//! publishes the region's root task there, and returns a [`RegionHandle`]
//! immediately — no lock is taken, no worker is parked, and no other
//! region is affected. [`Runtime::parallel`] is exactly
//! `submit(f).join()`: it blocks the calling thread (never a worker) until
//! the region quiesces and returns the root closure's value.
//!
//! ## Region descriptors
//!
//! Everything scoped to one region lives in a [`Region`]
//! descriptor, not in the team-wide `Shared` block: the root record (whose
//! refcount is the quiescence signal), the panic slot (a panic in region A
//! is re-raised by A's joiner and invisible to region B), and per-worker
//! attribution counters. Tasks find their region through a pointer carried
//! by every record, so the worker loop itself is region-agnostic: it pops
//! whatever task is next, whichever region it belongs to.
//!
//! ## The zero-allocation, low-contention spawn path
//!
//! A deferred spawn on the steady state touches **no global shared state**:
//!
//! 1. a [`TaskRecord`] is popped from the spawning worker's free-list slab
//!    ([`crate::slab`]) — no `malloc`;
//! 2. the closure is written inline into the record (or spilled to one box
//!    when it exceeds [`crate::task::INLINE_BYTES`] — counted in
//!    [`RuntimeStats::closure_spilled`] so kernels can assert they never
//!    spill);
//! 3. parent/child counters are updated on the *record*, whose cache lines
//!    are private to the spawning task's lineage;
//! 4. the record is pushed on the worker's own deque;
//! 5. [`EventCount::notify_one`] checks for sleepers with a fence + load
//!    and issues no wake (and no shared write) when everyone is busy.
//!
//! ## Region quiescence without a global live counter
//!
//! Liveness is derived from the record refcounts themselves: each child
//! record holds one reference on its parent for as long as the *child
//! record* exists, so a root record's count can only fall to the joiner's
//! lone handle once every descendant record has been destroyed — i.e.
//! exactly at quiescence. The joiner polls its own region's root (wake-ups
//! arrive through the progress event count); concurrent regions quiesce
//! independently because each has its own root. The `queued` count
//! survives only for the `MaxTasks`/`Adaptive` cut-offs, sharded per
//! worker and summed on demand — and is deliberately *global across
//! regions*: it is a machine-load heuristic, so tasks from every region
//! count against the same budget.
//!
//! ## Wake-ups: one at a time, then geometric ramp-up
//!
//! A spawn wakes at most one sleeper. A worker that was just woken and
//! finds work checks whether *more* work is still visible (non-empty
//! injector shards or a non-empty victim deque) and if so wakes the next
//! sleeper before executing — each wake can fan out to one more, giving a
//! herd-free geometric ramp-up instead of a thundering herd or a one-task
//! trickle.
//!
//! ## Scheduling points and continuation stealing
//!
//! Like an OpenMP runtime, workers switch tasks at task completion (the
//! worker loop) and at the scheduling-point waits (`taskwait`, taskgroup
//! wait, loop drains — see [`crate::scope`]). Every deferred task body
//! runs on a pooled **fiber** ([`crate::cont`]), so a wait that cannot
//! complete does not nest frames on the worker stack: the fiber parks
//! itself in a waiter slot and the worker returns to its dispatch loop.
//! The worker that later drives the waited condition to its zero
//! transition claims the slot and queues the continuation on its *own*
//! deque — a blocked waiter migrates to wherever its wake happened,
//! including onto a thief. Queued continuations share the deques with
//! fresh records, distinguished by a low pointer tag ([`Work`]).
//!
//! [`RuntimeStats::closure_spilled`]: crate::RuntimeStats::closure_spilled

use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cancel::{RegionError, SubmitError};
use crate::config::{LocalOrder, RegionBudget, RuntimeConfig, RuntimeCutoff};
use crate::cont::{self, Continuation};
use crate::deque::{deque, Steal, Stealer, TaskDeque};
use crate::event::EventCount;
use crate::freelist::{ShardedPool, REMOTE};
use crate::group::Group;
use crate::injector::Injector;
use crate::local::CacheAligned;
use crate::region::{Completion, Region, RegionPool, RegionStats};
use crate::replay::{self, ArmOutcome, FrozenGraph, GraphCache};
use crate::rng::XorShift64;
use crate::scope::Scope;
use crate::stats::{RuntimeStats, WorkerCounters};
use crate::task::{TaskAttrs, TaskRecord, HOME_BOXED, HOME_REGION};
use crate::wsloop::WsLoop;

/// Worker-thread stack size. Task bodies run on pooled fiber stacks
/// ([`crate::cont`]) and blocked waits suspend instead of nesting, so the
/// worker's native stack only hosts the dispatch loop plus one layer of
/// runtime bookkeeping — pages, not megabytes.
const WORKER_STACK: usize = 512 * 1024;

/// How long a parked worker sleeps before re-probing, as a lost-wakeup
/// safety net. Wake-ups normally arrive via the event count.
const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(2);

/// `Steal::Retry` attempts against one victim before moving on. A contended
/// victim is not worth spinning on: another victim (or the injector) likely
/// has work, and the parked-worker safety net catches the rest.
const MAX_STEAL_RETRIES: usize = 4;

/// State shared by the team and every region submitter/joiner. Everything
/// here is *team-scoped*; region-scoped state lives in [`Region`].
pub(crate) struct Shared {
    pub(crate) config: RuntimeConfig,
    /// Thief handles, indexed by worker.
    pub(crate) stealers: Vec<Stealer<TaskRecord>>,
    /// Sharded lock-free injector; region root tasks enter here.
    pub(crate) injector: Injector,
    /// Work-availability channel: notified on every deferred-task push (and
    /// shutdown). Idle workers park here.
    pub(crate) work: EventCount,
    /// Progress channel: notified only on *zero transitions* — a task's last
    /// child completing, a taskgroup draining, a root record's refcount
    /// falling to the joiner's handle — plus shutdown. Taskwaiters and
    /// region joiners park here, so a completion storm costs no wakes until
    /// the final one that matters.
    pub(crate) progress: EventCount,
    /// Deferred-but-unstarted task count, sharded per worker (spawners add
    /// on their own shard, executors subtract on theirs, so any shard may go
    /// negative; the sum is the true count). Only maintained when
    /// `track_queued` — i.e. when the cut-off policy needs it.
    pub(crate) queued_shards: Vec<CacheAligned<AtomicIsize>>,
    /// Does the configured cut-off need the global queued count?
    pub(crate) track_queued: bool,
    /// Hysteresis state for the adaptive cut-off (global across regions,
    /// like the queued count it watches).
    pub(crate) adaptive_serializing: AtomicBool,
    /// Root closures that outgrew the record's inline payload (submitting
    /// threads have no worker counter block; folded into
    /// `RuntimeStats::closure_spilled`).
    pub(crate) root_spilled: AtomicU64,
    /// Team shutdown flag (checked by parked workers).
    pub(crate) shutdown: AtomicBool,
    /// Per-worker statistics.
    pub(crate) counters: Vec<WorkerCounters>,
    /// Pooled region descriptors (see [`crate::region`]): a steady-state
    /// submission leases one instead of allocating.
    pub(crate) region_pool: RegionPool,
    // The free-list pools ([`crate::freelist`]), one shard per worker, that
    // make steady-state spawns, taskgroups, waits (every deferred body runs
    // on a pooled fiber) and worksharing loops allocation-free.
    pub(crate) records: ShardedPool<TaskRecord>,
    pub(crate) group_pool: ShardedPool<Group>,
    pub(crate) cont_pool: ShardedPool<Continuation>,
    pub(crate) loop_pool: ShardedPool<WsLoop>,
    /// Regions submitted but not yet quiescent, detached ones included.
    /// `Runtime::drop` waits for this to drain before shutting the team
    /// down, so an `on_complete` callback can never be silently abandoned.
    pub(crate) live_regions: AtomicUsize,
    /// Region descriptors allocated fresh vs recycled (submitting threads
    /// have no worker counter block, like `root_spilled`).
    pub(crate) regions_fresh: AtomicU64,
    pub(crate) regions_recycled: AtomicU64,
    /// Origin of the team's coarse clock: deadlines are expressed as
    /// milliseconds since this instant.
    pub(crate) epoch: std::time::Instant,
    /// Coarse monotone clock, in milliseconds since `epoch`, stamped by
    /// workers at dispatch boundaries (every few executes, at parks, at
    /// waits) and by submitters arming a deadline. A deadline check is one
    /// relaxed load — no syscall on the hot path.
    pub(crate) clock_ms: AtomicU64,
    /// Regions cancelled (explicitly or by deadline) over the team's life.
    pub(crate) regions_cancelled: AtomicU64,
    /// Submissions shed — rejected by `try_submit` or admitted in
    /// serialising shed mode — because the in-flight region watermark was
    /// exceeded.
    pub(crate) submissions_shed: AtomicU64,
    /// Frozen dependency DAGs keyed by shape token (see
    /// [`Runtime::submit_replay`]); the cache doubles as the graphs' pool —
    /// a warm replay leases the graph out and returns it at finish, so the
    /// replay path itself allocates nothing.
    pub(crate) replay_cache: GraphCache,
    /// Replay-token submits that recorded (and froze) a new graph.
    pub(crate) replays_recorded: AtomicU64,
    /// Replay-token submits served entirely off a frozen graph.
    pub(crate) replays_hit: AtomicU64,
    /// Replays that diverged from their recording and fell back to live
    /// registration (the cached graph is invalidated).
    pub(crate) replays_diverged: AtomicU64,
    /// Cached graphs evicted to admit a new token past capacity.
    pub(crate) graphs_evicted: AtomicU64,
}

// Safety: `Shared` is shared across worker threads by design. The raw task
// pointers in the injector are exclusively-owned queue handles of live
// `TaskRecord`s whose closures are `Send`; the deque stealers hand the same
// kind of pointer over with the Chase-Lev protocol guaranteeing each is
// received exactly once. The pools' owner-only halves are only touched by
// their owning worker threads (see `crate::freelist`).
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Shared {
    /// Re-stamps the coarse clock from a real time read and returns the
    /// new value. Workers call this at dispatch boundaries; anything
    /// needing "now" cheaply reads `clock_ms` instead.
    pub(crate) fn stamp_clock(&self) -> u64 {
        let now = self.epoch.elapsed().as_millis() as u64;
        // Monotone publish: racing stampers may reorder, but the clock
        // only ever needs to be a lower bound on real elapsed time.
        self.clock_ms.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// The coarse clock's last stamped value, in ms since `epoch`.
    #[inline]
    pub(crate) fn now_ms(&self) -> u64 {
        self.clock_ms.load(Ordering::Relaxed)
    }

    /// Cancels `region`, counting the transition and waking both channels
    /// so parked workers and waiters re-observe the flag promptly.
    pub(crate) fn cancel_region(&self, region: &Region) {
        if region.cancel() {
            self.regions_cancelled.fetch_add(1, Ordering::Relaxed);
            self.work.notify();
            self.progress.notify();
        }
    }

    /// Has `region`'s armed deadline passed on the coarse clock? Cheap
    /// enough for dispatch loops: two relaxed loads.
    #[inline]
    pub(crate) fn deadline_passed(&self, region: &Region) -> bool {
        let deadline = region.deadline_ms();
        deadline != 0 && self.now_ms() >= deadline
    }

    /// Sum of the queued-count shards, clamped at zero (individual shards
    /// may be transiently negative; the total is approximate by design —
    /// it drives heuristics, not correctness).
    pub(crate) fn queued_estimate(&self) -> usize {
        self.queued_shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum::<isize>()
            .max(0) as usize
    }

    /// Should a spawn at `depth` be serialised by the runtime cut-off?
    pub(crate) fn cutoff_trips(&self, local_len: usize, depth: u32) -> bool {
        let workers = self.config.num_threads;
        match self.config.cutoff {
            RuntimeCutoff::None => false,
            RuntimeCutoff::MaxTasks { per_worker } => {
                self.queued_estimate() >= per_worker * workers
            }
            RuntimeCutoff::MaxLocalQueue { max_len } => local_len >= max_len,
            RuntimeCutoff::MaxDepth { max_depth } => depth >= max_depth,
            RuntimeCutoff::Adaptive { low, high } => {
                let queued = self.queued_estimate();
                if self.adaptive_serializing.load(Ordering::Relaxed) {
                    if queued < low * workers {
                        self.adaptive_serializing.store(false, Ordering::Relaxed);
                        false
                    } else {
                        true
                    }
                } else if queued > high * workers {
                    self.adaptive_serializing.store(true, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Adjusts the caller's queued-count shard (no-op unless the cut-off
    /// policy consumes the count). `shard` is a worker index, or any hash
    /// for submitting threads — the sum is what counts.
    #[inline]
    pub(crate) fn queued_delta(&self, shard: usize, delta: isize) {
        if self.track_queued {
            self.queued_shards[shard % self.queued_shards.len()]
                .0
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Drops one reference on `rec`, destroying it (and cascading up the
    /// parent chain) when it was the last. `worker_index` is the calling
    /// worker, or `None` when called from a region joiner.
    ///
    /// Destruction routes the record home: to the owner's local free list
    /// when the caller *is* the owner, onto the owner's cross-thread reclaim
    /// stack otherwise, back to the region pool for region-root records
    /// (which are embedded in their descriptor), or to the heap for
    /// individually boxed test records.
    pub(crate) fn release_record(&self, rec: NonNull<TaskRecord>, worker_index: Option<usize>) {
        let mut cur = rec;
        loop {
            let r = unsafe { cur.as_ref() };
            // Snapshot before releasing: `parent` and `region` are immutable
            // after init, but once our reference is gone the remaining
            // holder may destroy the record concurrently (for a root, the
            // spin-polling region joiner frees it the instant it observes
            // refs == 1), so `r` must not be touched after a release that
            // was not the last.
            let parent = r.parent();
            let region = r.region();
            match r.release_ref() {
                1 => {}
                // Root records: the drop to the joiner's lone handle is the
                // region-quiescence signal. Fire the region's completion
                // slot (waker or detached callback), then wake blocking
                // joiners through the progress channel. The descriptor is
                // still safe to dereference here even though refs == 1
                // already: every finishing path gates the lease return on
                // the completion slot having fired (see
                // `RegionHandle::finish_lease`), which happens inside
                // `region_quiesced`.
                2 if parent.is_none() => {
                    self.region_quiesced(region);
                    return;
                }
                _ => return,
            }
            // Sole owner now. A group pointer the record may still hold
            // (inline bookkeeping records reach here with theirs attached;
            // executed records gave theirs up at completion) is plain data:
            // the record never joined on its own behalf, so there is
            // nothing to leave and nothing to dereference — `init`
            // overwrites the cell on the next lease.
            let home = r.home;
            if home == HOME_BOXED {
                unsafe {
                    drop(Box::from_raw(
                        cur.as_ptr().cast::<MaybeUninit<TaskRecord>>(),
                    ));
                }
            } else if home == HOME_REGION {
                // The record is embedded in its region descriptor; its final
                // release is the whole region's lifecycle end. The releasing
                // path has already taken the result and panic out, so the
                // descriptor — root storage included — goes back to the pool
                // for the next submission to lease.
                debug_assert!(!region.is_null(), "region root without a region");
                let slot = worker_index.unwrap_or_else(submitter_slot);
                self.region_pool
                    .release(unsafe { NonNull::new_unchecked(region.cast_mut()) }, slot);
            } else {
                // Safety: a pool record with no reference left.
                let remote = unsafe { self.records.release(cur, worker_index.unwrap_or(REMOTE)) };
                if let (true, Some(i)) = (remote, worker_index) {
                    WorkerCounters::bump(&self.counters[i].slab_cross_freed);
                }
            }
            match parent {
                Some(p) => cur = p,
                None => return,
            }
        }
    }

    /// The region-quiescence zero-transition: fires the completion slot
    /// exactly once, retires the region from the live count, and notifies
    /// the progress channel for blocking joiners. A detached completion
    /// runs right here, on the completing thread (almost always a worker) —
    /// it finishes the region (result, panic, final root release) and
    /// invokes the user callback, whose panics are swallowed so they cannot
    /// tear a worker thread down.
    fn region_quiesced(&self, region: *const Region) {
        if !region.is_null() {
            // Safety: the region stays leased at least until its root's
            // final release, which is downstream of this call.
            match unsafe { (*region).complete() } {
                Some(Completion::Waker(w)) => w.wake(),
                Some(Completion::Detached(finish)) => {
                    // A panicking on_complete callback must not unwind into
                    // the worker loop; the panic is discarded like one from
                    // a detached thread.
                    drop(catch_unwind(AssertUnwindSafe(finish)));
                }
                None => {}
            }
            self.live_regions.fetch_sub(1, Ordering::Release);
        }
        self.progress.notify();
    }

    /// Settles a region's replay state at finish time (post-quiescence,
    /// sole-finisher exclusivity; called from `finish_lease` before the
    /// lease is returned): freezes and deposits a finished recording,
    /// returns a cleanly-replayed graph to the cache, and invalidates the
    /// token after a divergence or a cancelled recording.
    fn replay_finish(&self, region: &Region, cancelled: bool) {
        let rp = region.replay();
        match rp.mode() {
            replay::MODE_RECORDING => {
                let token = rp.token();
                match rp.take_recorder() {
                    // A cancelled recording suppressed spawns: the recorded
                    // shape is truncated, not the region's — drop the
                    // placeholder so the next submit records afresh.
                    Some(_) if cancelled => self.replay_cache.invalidate(token),
                    Some(recorder) => {
                        crate::bots_failpoint!("replay_freeze");
                        self.replay_cache
                            .deposit(token, FrozenGraph::freeze(*recorder));
                        self.replays_recorded.fetch_add(1, Ordering::Relaxed);
                    }
                    None => self.replay_cache.invalidate(token),
                }
            }
            replay::MODE_REPLAYING => {
                // Cancelled replays still count as hits: every dispatched
                // task retired through the frozen slots, so the graph's
                // per-execution state is clean and re-armable.
                if let Some(graph) = rp.take_graph() {
                    self.replay_cache.give_back(rp.token(), graph);
                }
                self.replays_hit.fetch_add(1, Ordering::Relaxed);
            }
            replay::MODE_DIVERGED => {
                // The recording no longer describes this token's shape:
                // drop the leased graph and the cache entry with it.
                drop(rp.take_graph());
                self.replay_cache.invalidate(rp.token());
                self.replays_diverged.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// One deque/injector item, decoded. Fresh task records and suspended
/// continuations share the queues: both blocks are 128-byte aligned, so a
/// set low bit tags a pointer as a [`Continuation`] to resume. The deque
/// itself never dereferences its pointers, making the tag safe to thread
/// through steals.
pub(crate) enum Work {
    Fresh(NonNull<TaskRecord>),
    Resume(NonNull<Continuation>),
}

const RESUME_TAG: usize = 1;

/// Decodes a queue item (see [`Work`]).
#[inline]
pub(crate) fn decode(item: NonNull<TaskRecord>) -> Work {
    let raw = item.as_ptr() as usize;
    if raw & RESUME_TAG != 0 {
        // Safety: only `encode_resume` sets the tag, on a valid pool-owned
        // continuation pointer.
        Work::Resume(unsafe { NonNull::new_unchecked((raw & !RESUME_TAG) as *mut Continuation) })
    } else {
        Work::Fresh(item)
    }
}

/// Tags a continuation for the deques (see [`Work`]).
#[inline]
fn encode_resume(c: NonNull<Continuation>) -> NonNull<TaskRecord> {
    // Safety: tagging cannot produce null (the tag sets a bit).
    unsafe { NonNull::new_unchecked(((c.as_ptr() as usize) | RESUME_TAG) as *mut TaskRecord) }
}

thread_local! {
    /// The worker context of the current thread, if it is a worker. Read by
    /// fibers instead of caching a `&WorkerCtx`: a suspended frame may be
    /// resumed by *any* worker, so "my worker" is a property of the moment,
    /// not of the frame.
    static CUR_WORKER: std::cell::Cell<*const WorkerCtx> =
        const { std::cell::Cell::new(std::ptr::null()) };
    /// The continuation mounted on the current thread (null in the bare
    /// worker loop). Maintained by `WorkerCtx::mount`, nestable: a fiber
    /// that help-executes mounts an inner fiber and restores on return.
    static CUR_CONT: std::cell::Cell<*mut Continuation> =
        const { std::cell::Cell::new(std::ptr::null_mut()) };
}

// Every thread-local access in this crate sits in an `#[inline(never)]`
// function (`cargo xtask lint` enforces it): a fiber may suspend on one
// worker and resume on another, and an inlined access may reuse the
// thread-local address computed before the switch, i.e. the previous
// thread's slot. A real call recomputes it on the running thread.

/// The calling thread's worker context (null off-team).
#[inline(never)]
fn cur_worker_ptr() -> *const WorkerCtx {
    CUR_WORKER.with(|w| w.get())
}

/// The calling thread's worker context. Panics off-team; task code can
/// only run on workers, so the unwrap documents an invariant.
#[inline]
pub(crate) fn current_worker() -> &'static WorkerCtx {
    let p = cur_worker_ptr();
    debug_assert!(!p.is_null(), "current_worker() called off a worker thread");
    // Safety: set once at worker start to the worker loop's frame-local
    // context, which outlives everything the thread ever executes; the
    // 'static is a lie only past team shutdown, by which point no task
    // code runs.
    unsafe { &*p }
}

/// The continuation mounted on the calling thread, if any.
#[inline(never)]
pub(crate) fn current_cont() -> Option<NonNull<Continuation>> {
    NonNull::new(CUR_CONT.with(|c| c.get()))
}

/// Is the calling thread a worker of the team owning `shared`? Blocking
/// entry points reject that: a worker parked in a join could deadlock it.
fn on_team(shared: &Shared) -> bool {
    let p = cur_worker_ptr();
    // Safety: a non-null context is the live worker loop's own.
    !p.is_null() && std::ptr::eq(unsafe { &*(*p).shared }, shared)
}

/// The hook `bots_fiber_main` (see [`crate::cont`]) runs a handed-off
/// task through: resolves the mounting worker and executes.
pub(crate) fn fiber_execute(task: NonNull<TaskRecord>) {
    current_worker().execute(task);
}

/// Per-worker context. Owned by the worker thread; tasks reach it through
/// the [`Scope`] they are handed.
pub(crate) struct WorkerCtx {
    pub(crate) index: usize,
    pub(crate) deque: TaskDeque<TaskRecord>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) rng: std::cell::RefCell<XorShift64>,
    /// Executes since this worker last re-stamped the coarse clock; every
    /// [`CLOCK_STRIDE`]th dispatch pays the real time read.
    pub(crate) tick: std::cell::Cell<u32>,
}

/// A worker re-stamps the team's coarse clock once per this many task
/// dispatches (and at every park/wait), bounding deadline-detection
/// latency without a syscall per task.
pub(crate) const CLOCK_STRIDE: u32 = 16;

impl WorkerCtx {
    #[inline]
    pub(crate) fn counters(&self) -> &WorkerCounters {
        &self.shared.counters[self.index]
    }

    /// Allocates and initialises a record from this worker's slab. The
    /// record inherits its region from `parent`.
    #[inline]
    pub(crate) fn new_record(
        &self,
        parent: Option<NonNull<TaskRecord>>,
        group: Option<NonNull<Group>>,
        attrs: TaskAttrs,
    ) -> NonNull<TaskRecord> {
        // Safety: this is the owning worker thread.
        let (rec, fresh) = unsafe { self.shared.records.lease(self.index) };
        let counters = self.counters();
        WorkerCounters::bump(if fresh {
            &counters.slab_fresh
        } else {
            &counters.slab_recycled
        });
        // Safety: the slot came from our slab and is free; parent is live
        // (and carries the region pointer the child inherits).
        unsafe {
            TaskRecord::init(
                rec,
                parent,
                group,
                std::ptr::null(),
                self.index as u16,
                attrs,
            )
        };
        rec
    }

    /// Pops a local task according to the configured discipline.
    pub(crate) fn pop_local(&self) -> Option<NonNull<TaskRecord>> {
        match self.shared.config.local_order {
            LocalOrder::Lifo => self.deque.pop(),
            LocalOrder::Fifo => self.deque.pop_fifo(),
        }
    }

    /// Takes one region root from the injector (own shard probed first).
    /// Only the worker main loop calls this — roots never enter through the
    /// task-switching pops of a blocked taskwait, so a waiting task cannot
    /// nest a foreign region under its own frame. Lock-free end to end; the
    /// per-shard length mirrors keep the common case (empty injector) to a
    /// handful of loads.
    pub(crate) fn pop_injector(&self) -> Option<NonNull<TaskRecord>> {
        self.shared.injector.pop(self.index)
    }

    /// One round of stealing: probes every other worker once, starting at a
    /// random victim. Retries against a contended victim are bounded by
    /// [`MAX_STEAL_RETRIES`]; past that the worker gives up on the victim
    /// (counting a miss) and moves to the next.
    pub(crate) fn try_steal(&self) -> Option<NonNull<TaskRecord>> {
        // A delay/yield here perturbs thief-vs-owner Chase-Lev timing.
        crate::bots_failpoint!("steal");
        let n = self.shared.stealers.len();
        if n <= 1 {
            return None;
        }
        let start = self.rng.borrow_mut().below(n);
        let counters = self.counters();
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == self.index {
                continue;
            }
            let mut retries = 0;
            loop {
                match self.shared.stealers[victim].steal() {
                    Steal::Success(t) => {
                        WorkerCounters::bump(&counters.stolen);
                        return Some(t);
                    }
                    Steal::Retry => {
                        retries += 1;
                        if retries >= MAX_STEAL_RETRIES {
                            WorkerCounters::bump(&counters.steal_misses);
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    Steal::Empty => {
                        WorkerCounters::bump(&counters.steal_misses);
                        break;
                    }
                }
            }
        }
        None
    }

    /// Is any work visible anywhere? Used to re-check before parking.
    /// Entirely lock-free: own deque length, the injector shards' length
    /// mirrors, and the other deques' stealer-side lengths.
    pub(crate) fn work_visible(&self) -> bool {
        if !self.deque.is_empty() {
            return true;
        }
        if !self.shared.injector.is_probably_empty() {
            return true;
        }
        self.shared
            .stealers
            .iter()
            .enumerate()
            .any(|(i, s)| i != self.index && !s.is_empty())
    }

    /// Wake propagation: a worker that was just woken and found work wakes
    /// the next sleeper if more work is still visible, so a burst of
    /// submissions ramps the team up geometrically (1 → 2 → 4 → ...)
    /// instead of waking one worker per event or the whole herd at once.
    #[inline]
    fn propagate_wake(&self, just_woke: &mut bool) {
        if !*just_woke {
            return;
        }
        *just_woke = false;
        let shared = &*self.shared;
        if !shared.config.wake_propagation {
            return;
        }
        // Cheapest check first: with nobody left asleep there is nothing to
        // propagate, whatever the queues look like.
        if shared.work.sleepers() > 0 && self.work_visible() {
            shared.work.notify_one();
            WorkerCounters::bump(&self.counters().wake_propagations);
        }
    }

    /// Dispatches one queue item: a fresh task is mounted on a pooled
    /// fiber; a tagged continuation is resumed where it left off. Callable
    /// from the worker loop and from inside a fiber (helping waits mount
    /// nested fibers), on the thread that owns this context.
    pub(crate) fn dispatch(&self, item: NonNull<TaskRecord>) {
        let counters = self.counters();
        match decode(item) {
            Work::Fresh(task) => {
                // Safety: this is the owning worker thread.
                let (c, fresh) = unsafe { self.shared.cont_pool.lease(self.index) };
                WorkerCounters::bump(if fresh {
                    &counters.conts_fresh
                } else {
                    &counters.conts_recycled
                });
                // Safety: a leased fiber is exclusively ours (a recycled one
                // still reads DONE; the deque push that publishes it orders
                // the re-arm); the task's queue handle transfers to it.
                unsafe {
                    c.as_ref().state.store(cont::RUNNING, Ordering::Relaxed);
                    c.as_ref().last_worker.set(self.index as u16);
                    c.as_ref().task.set(Some(task));
                    self.mount(c);
                }
            }
            Work::Resume(c) => {
                WorkerCounters::bump(&counters.cont_resumes);
                // Safety: a queued continuation's pointer is valid for the
                // pool's whole life; the queue handle makes us the sole
                // resumer.
                unsafe {
                    if c.as_ref().last_worker.get() != self.index as u16 {
                        WorkerCounters::bump(&counters.cont_migrations);
                    }
                    c.as_ref().last_worker.set(self.index as u16);
                    c.as_ref().state.store(cont::RUNNING, Ordering::Release);
                    self.mount(c);
                }
            }
        }
    }

    /// Switches into `c` and settles its state when it switches back out:
    /// `DONE` recycles the fiber; a suspend finalises to `SUSPENDED` — or,
    /// when a waker already claimed the continuation mid-park, requeues it
    /// right here on our own deque.
    ///
    /// Not inlined, like every thread-local access (see the note above
    /// `cur_worker_ptr`); the switch returns on the calling thread.
    ///
    /// # Safety
    /// Caller must hold exclusive mount rights on `c` (fresh lease with a
    /// task set, or a popped `Resume` item), on this context's own thread.
    #[inline(never)]
    unsafe fn mount(&self, c: NonNull<Continuation>) {
        let prev = CUR_CONT.with(|cur| cur.replace(c.as_ptr()));
        c.as_ref().switch_in();
        CUR_CONT.with(|cur| cur.set(prev));
        if c.as_ref().state.load(Ordering::Acquire) == cont::DONE {
            self.shared.cont_pool.release(c, self.index);
        } else if c
            .as_ref()
            .state
            .compare_exchange(
                cont::SUSPENDING,
                cont::SUSPENDED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            // A waker stamped QUEUED between the fiber's suspend decision
            // and our detach: the wake could not push (the fiber was still
            // mounted), so the push obligation is ours.
            self.deque.push(encode_resume(c));
            self.shared.work.notify_one();
        }
    }

    /// Delivers a claimed wake ticket to `c` (see [`crate::cont`]): a
    /// still-running or mid-suspend fiber absorbs it as a `QUEUED` token;
    /// a fully parked one is pushed on *this* worker's deque — which is
    /// what migrates waiters to the thread that unblocked them.
    pub(crate) fn wake(&self, c: NonNull<Continuation>) {
        crate::bots_failpoint!("cont_resume");
        let state = unsafe { &c.as_ref().state };
        loop {
            let cur = state.load(Ordering::Acquire);
            debug_assert_ne!(cur, cont::DONE, "wake ticket outlived its wait");
            if state
                .compare_exchange_weak(cur, cont::QUEUED, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            match cur {
                // The waiter (RUNNING) eats the token in its unregister
                // path; a mid-park fiber (SUSPENDING) is requeued by its
                // detaching host when its SUSPENDED finalise fails.
                cont::RUNNING | cont::SUSPENDING => {}
                cont::SUSPENDED => {
                    self.deque.push(encode_resume(c));
                    self.shared.work.notify_one();
                }
                _ => unreachable!("woke a continuation in state {cur}"),
            }
            return;
        }
    }

    /// Executes a deferred task to completion and performs end-of-task
    /// bookkeeping (parent child-count, group membership, region
    /// attribution, record release, wake-ups). The body may suspend and
    /// resume on another worker, so everything after the invoke re-resolves
    /// the executing worker from thread-local state.
    pub(crate) fn execute(&self, rec: NonNull<TaskRecord>) {
        let shared = &*self.shared;
        shared.queued_delta(self.index, -1);
        let counters = self.counters();
        WorkerCounters::bump(&counters.executed);

        // Safety: we hold the queue handle; the record is live until we
        // release it below, and its region outlives it (see crate::region).
        let r = unsafe { rec.as_ref() };
        let region = unsafe { r.region().as_ref() };

        // Task dispatch is a cancellation point: re-stamp the coarse clock
        // every CLOCK_STRIDE dispatches, enforce the region's deadline, and
        // decide whether this task's body is skipped. A skipped dispatch
        // still performs every piece of bookkeeping below (dep retire,
        // group leave, child-done, record release) — cancellation drains
        // the region, it never strands protocol state.
        let tick = self.tick.get().wrapping_add(1);
        self.tick.set(tick);
        if tick.is_multiple_of(CLOCK_STRIDE) {
            shared.stamp_clock();
        }
        let skip = match region {
            Some(region) => {
                if !region.is_cancelled() && shared.deadline_passed(region) {
                    shared.cancel_region(region);
                }
                region.is_cancelled()
            }
            None => false,
        };

        let invoke = r.take_invoke().expect("task executed twice");
        let ec = ExecCtx { rec, skip };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The one site where a `panic` failpoint action is sound: it
            // unwinds into this catch like any task panic would.
            crate::bots_failpoint!("task_invoke");
            unsafe { invoke(rec, &ec) }
        }));
        // The body may have suspended at a wait and been resumed by another
        // worker: from here on, `self` is the *mounting* worker, not
        // necessarily the executing one. Everything below — counters, deque
        // pushes, slab routing — goes through the thread's actual context.
        let worker = current_worker();
        let counters = worker.counters();
        if let Err(payload) = outcome {
            match region {
                // Per-region capture: the payload is re-raised by this
                // region's joiner and nobody else's.
                Some(region) => region.store_panic(payload),
                // Only synthetic unit-test records have no region; they
                // never execute user closures.
                None => drop(payload),
            }
        }
        if let Some(region) = region {
            WorkerCounters::bump(&region.shard(worker.index).executed);
            // Per-region queued accounting mirrors the global one: explicit
            // spawns added on the spawner's shard, executions subtract here.
            // Roots are not queued-by-spawn, so they do not subtract.
            if r.parent().is_some() {
                region.queued_delta(worker.index, -1);
                if skip {
                    WorkerCounters::bump(&counters.skipped);
                    WorkerCounters::bump(&region.shard(worker.index).skipped);
                }
            }
        }

        // Dependency retire (release-on-exit): if this task carried depend
        // clauses, close its successor list and release every Deferred
        // task whose last unretired predecessor it was — each is pushed on
        // *this* worker's deque, so releases ride the same queue/wake
        // machinery as spawns, with no dedicated thread. Runs even when
        // the task panicked: its completion (exceptional or not) is what
        // successors wait on, and skipping it would wedge them forever.
        // Roots never carry deps; their `next` link belongs to the
        // injector (see TaskRecord::set_dep_state).
        if r.parent().is_some() {
            if let Some(state) = r.take_dep_state() {
                let region = region.expect("dependency task without a region");
                if replay::is_tagged(state) {
                    // A replayed task: its successors live in the frozen
                    // graph, not the tracker. Safety: the tagged state was
                    // set by the replay spawn for this record, taken exactly
                    // once; the region's graph lease outlives every
                    // replayed task.
                    unsafe {
                        replay::retire_replay(
                            region.replay(),
                            replay::untag_slot(state),
                            |released| {
                                WorkerCounters::bump(&counters.deps_released);
                                worker.deque.push(released);
                                shared.work.notify_one();
                            },
                        );
                    }
                    // Divergence waiters watch the outstanding count drain
                    // through the progress channel; the pre-decrement value
                    // covers both wait targets (1 when the waiter is itself
                    // a replayed task, 0 otherwise).
                    if region.replay().dec_outstanding() <= 2 {
                        shared.progress.notify();
                    }
                } else {
                    // Safety: `state` is the block registered for this
                    // record, taken exactly once, on the thread that just
                    // ran the task.
                    unsafe {
                        region.deps().retire(state.cast(), |released| {
                            WorkerCounters::bump(&counters.deps_released);
                            worker.deque.push(released);
                            shared.work.notify_one();
                        });
                    }
                }
            }
        }

        // Completion: a task does *not* wait for its children (that is what
        // taskwait is for); it only reports its own termination. Waiters are
        // woken only on the transitions they block on: the group draining,
        // the parent's child count reaching zero, a root refcount falling to
        // the joiner's handle (inside `release_record`). Each notify follows
        // its counter update; a suspended waiter's continuation is claimed
        // from the waited object's slot on the same zero transition.
        if let Some(group) = r.take_group() {
            // Safety: this task is a member until the `leave()` RMW; a
            // zero-driving leave's claim is covered by the CLAIMED
            // rendezvous — the lease owner cannot recycle the descriptor
            // until our claim has stamped the slot (see crate::group).
            let group = unsafe { group.as_ref() };
            if group.leave() {
                shared.progress.notify();
                if let Some(w) = group.claim_waiter() {
                    worker.wake(w);
                }
            }
        }
        if let Some(parent) = r.parent() {
            // Safety: our record's parent-reference pins the parent record
            // until `release_record` below — the claim must stay ordered
            // before it.
            let parent = unsafe { parent.as_ref() };
            if parent.child_done() {
                shared.progress.notify();
                if let Some(w) = parent.claim_waiter() {
                    worker.wake(w);
                }
            }
        }
        // Consume the queue handle; may destroy the record and cascade.
        shared.release_record(rec, Some(worker.index));
    }
}

/// Execution context handed to a task's stored closure: enough to rebuild a
/// [`Scope`] on the executing worker.
pub(crate) struct ExecCtx {
    pub(crate) rec: NonNull<TaskRecord>,
    /// Skip dispatch: the region was cancelled, so the invoke shim drops
    /// the closure (releasing captures and any spill box) instead of
    /// running the body. All other bookkeeping proceeds normally.
    pub(crate) skip: bool,
}

impl ExecCtx {
    /// Is this a skip dispatch? Read by the invoke shims.
    #[inline]
    pub(crate) fn skip(&self) -> bool {
        self.skip
    }
}

/// A `Send` wrapper for the raw region-descriptor pointer that the root
/// shim and detached-completion closures capture.
///
/// Safety: the descriptor is `Sync`, and the lease protocol
/// ([`crate::region`]) keeps it valid for as long as the capturing closure
/// can run. Closures must capture the *whole wrapper* (bind `let p = p;`
/// first): 2021 disjoint capture would otherwise grab the raw-pointer
/// field alone and un-`Send` the closure.
struct RegionPtr(NonNull<Region>);
unsafe impl Send for RegionPtr {}

/// Injector shard affinity for the calling (submitting) thread: a cached
/// hash of the thread id, so concurrent clients land on different shards
/// with high probability and a thread's submissions stay on one shard.
/// Not inlined: see the thread-local note above `cur_worker_ptr`.
#[inline(never)]
fn submitter_slot() -> usize {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SLOT.with(|cached| {
        let mut slot = cached.get();
        if slot == usize::MAX {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            // Cast before shifting so the top bit is cleared at every
            // pointer width — the result can never hit the sentinel.
            slot = (h.finish() as usize) >> 1;
            cached.set(slot);
        }
        slot
    })
}

/// A team of worker threads implementing the OpenMP 3.0 task execution
/// model, serving any number of concurrent parallel regions. See the
/// [crate docs](crate) for an overview, [`Runtime::parallel`] for the
/// blocking entry point and [`Runtime::submit`] for the non-blocking one.
pub struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Builds a team from an explicit configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        // Construction is the cold path: populate the failpoint registry
        // here so first-fire insertions never happen on a warm path.
        #[cfg(feature = "failpoints")]
        crate::failpoint::prewarm();
        let n = config.num_threads;
        // `TaskRecord::home` is a u16 with HOME_BOXED and HOME_REGION
        // reserved: a worker index that aliased either would misroute
        // record frees.
        assert!(
            n < HOME_REGION as usize,
            "team size {n} exceeds the record home-index range"
        );
        let track_queued = matches!(
            config.cutoff,
            RuntimeCutoff::MaxTasks { .. } | RuntimeCutoff::Adaptive { .. }
        );
        let mut owners = Vec::with_capacity(n);
        let mut stealers = Vec::with_capacity(n);
        for _ in 0..n {
            let (owner, stealer) = deque::<TaskRecord>();
            owners.push(owner);
            stealers.push(stealer);
        }
        let shared = Arc::new(Shared {
            stealers,
            injector: Injector::new(n),
            work: EventCount::new(),
            progress: EventCount::new(),
            queued_shards: (0..n).map(|_| CacheAligned(AtomicIsize::new(0))).collect(),
            track_queued,
            adaptive_serializing: AtomicBool::new(false),
            root_spilled: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            counters: (0..n).map(|_| WorkerCounters::default()).collect(),
            records: ShardedPool::new(n, config.record_chunk, ()),
            region_pool: RegionPool::new(n),
            group_pool: ShardedPool::new(n, 1, ()),
            cont_pool: ShardedPool::new(n, 1, config.cont_stack),
            loop_pool: ShardedPool::new(n, 1, ()),
            live_regions: AtomicUsize::new(0),
            regions_fresh: AtomicU64::new(0),
            regions_recycled: AtomicU64::new(0),
            epoch: std::time::Instant::now(),
            clock_ms: AtomicU64::new(0),
            regions_cancelled: AtomicU64::new(0),
            submissions_shed: AtomicU64::new(0),
            replay_cache: GraphCache::new(config.replay_cache),
            replays_recorded: AtomicU64::new(0),
            replays_hit: AtomicU64::new(0),
            replays_diverged: AtomicU64::new(0),
            graphs_evicted: AtomicU64::new(0),
            config,
        });

        let mut handles = Vec::with_capacity(n);
        for (index, owner) in owners.into_iter().enumerate() {
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("bots-worker-{index}"))
                .stack_size(WORKER_STACK)
                .spawn(move || {
                    let ctx = WorkerCtx {
                        index,
                        deque: owner,
                        shared,
                        rng: std::cell::RefCell::new(XorShift64::new(
                            0x9E37_79B9 ^ ((index as u64 + 1) << 17),
                        )),
                        tick: std::cell::Cell::new(0),
                    };
                    worker_loop(&ctx);
                })
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }

        Runtime { shared, handles }
    }

    /// Team with `n` threads and default policy.
    pub fn with_threads(n: usize) -> Self {
        Runtime::new(RuntimeConfig::new(n))
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.shared.config.num_threads
    }

    /// The configuration this team was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// Aggregated statistics since the team started (monotonic; diff
    /// snapshots with [`RuntimeStats::since`] to scope them to a window, or
    /// use [`RegionHandle::stats`] for per-region attribution).
    pub fn stats(&self) -> RuntimeStats {
        let mut s = RuntimeStats::default();
        for w in &self.shared.counters {
            s.accumulate(w);
        }
        s.closure_spilled += self.shared.root_spilled.load(Ordering::Relaxed);
        s.regions_fresh = self.shared.regions_fresh.load(Ordering::Relaxed);
        s.regions_recycled = self.shared.regions_recycled.load(Ordering::Relaxed);
        s.regions_cancelled = self.shared.regions_cancelled.load(Ordering::Relaxed);
        s.submissions_shed = self.shared.submissions_shed.load(Ordering::Relaxed);
        s.replays_recorded = self.shared.replays_recorded.load(Ordering::Relaxed);
        s.replays_hit = self.shared.replays_hit.load(Ordering::Relaxed);
        s.replays_diverged = self.shared.replays_diverged.load(Ordering::Relaxed);
        s.graphs_evicted = self.shared.graphs_evicted.load(Ordering::Relaxed);
        s
    }

    /// High-water mark of pooled continuations (fibers) ever created by
    /// this team — equivalently, the most fibers that were ever live at
    /// once. Steady-state workloads should see this plateau while
    /// [`RuntimeStats::cont_suspends`] keeps climbing: that gap is the
    /// recycling the pool exists for, and leak tests pin it down.
    pub fn conts_created(&self) -> usize {
        self.shared.cont_pool.created()
    }

    /// Runs `f` as the root task of a parallel region (OpenMP
    /// `parallel` + `single`) and returns its result once the region has
    /// quiesced — i.e. after every task spawned inside, transitively, has
    /// completed. Panics from any task of *this* region are re-raised here;
    /// other regions running on the same team are unaffected.
    ///
    /// Equivalent to [`submit`](Self::submit) followed by an immediate
    /// [`RegionHandle::join`] — which is also why, unlike `submit`, it can
    /// accept non-`'static` borrows: the calling frame provably outlives
    /// the region.
    ///
    /// Must not be called from inside a task of the same runtime (the
    /// nested join panics rather than deadlock the team).
    ///
    /// A thin wrapper over `self.region(f).join()` — see
    /// [`region`](Self::region) for the composable builder surface.
    pub fn parallel<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R + Send + 'env,
        R: Send + 'env,
    {
        // Reject nested calls *before* the root is published: the root may
        // borrow this very frame, and the nested-join panic fires after
        // submission — unwinding past a published borrowing region would
        // leave tasks reading a freed stack frame.
        assert!(
            !on_team(&self.shared),
            "Runtime::parallel called from inside a task of the same runtime; \
             spawn a task instead, or submit from a client thread"
        );
        // Sound for the same reason as `std::thread::scope`: join() blocks
        // this frame until the region quiesces, so everything `f` borrows
        // outlives every task that can observe it.
        self.region(f).join()
    }

    /// Submits `f` as the root task of a new parallel region and returns a
    /// [`RegionHandle`] **without blocking**: the submission path is a
    /// record initialisation, one lock-free push onto an injector shard
    /// picked by hashing the submitting thread, and a sleeper-gated wake —
    /// no lock, no waiting for other regions, no worker parked on the
    /// submitter's behalf. Any number of client threads may feed regions to
    /// one team concurrently.
    ///
    /// The handle joins its region on drop (discarding result and panic),
    /// so an unjoined handle cannot leak task records; call
    /// [`RegionHandle::join`] to collect the result and re-raise the
    /// region's panic, if any. Submitting from inside a task of this
    /// runtime is allowed (it never blocks), but the handle must be joined
    /// — or dropped — on a client thread: a blocking join on a worker
    /// cannot task-switch and could deadlock the team, so it panics
    /// instead.
    ///
    /// ```
    /// use bots_runtime::Runtime;
    ///
    /// // A server: one team, many client threads, each feeding requests
    /// // as regions and collecting results without ever blocking another
    /// // client's submission.
    /// let rt = Runtime::with_threads(4);
    /// std::thread::scope(|clients| {
    ///     for client in 0..3u64 {
    ///         let rt = &rt;
    ///         clients.spawn(move || {
    ///             // Submit a batch of requests, then harvest: the regions
    ///             // run concurrently, on one shared worker team.
    ///             let handles: Vec<_> = (0..8u64)
    ///                 .map(|req| {
    ///                     rt.submit(move |s| {
    ///                         let total = std::sync::atomic::AtomicU64::new(0);
    ///                         s.taskgroup(|s| {
    ///                             for part in 0..4 {
    ///                                 let total = &total;
    ///                                 s.spawn(move |_| {
    ///                                     let work = client * 100 + req * 4 + part;
    ///                                     total.fetch_add(
    ///                                         work,
    ///                                         std::sync::atomic::Ordering::Relaxed,
    ///                                     );
    ///                                 });
    ///                             }
    ///                         });
    ///                         total.load(std::sync::atomic::Ordering::Relaxed)
    ///                     })
    ///                 })
    ///                 .collect();
    ///             for (req, h) in handles.into_iter().enumerate() {
    ///                 let got = h.join();
    ///                 let req = req as u64;
    ///                 let want = (0..4).map(|p| client * 100 + req * 4 + p).sum::<u64>();
    ///                 assert_eq!(got, want);
    ///             }
    ///         });
    ///     }
    /// });
    /// ```
    ///
    /// A thin wrapper over `self.region(f).submit()` — see
    /// [`region`](Self::region) for the composable builder surface.
    pub fn submit<F, R>(&self, f: F) -> RegionHandle<'_, R>
    where
        F: FnOnce(&Scope<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.region(f).submit()
    }

    /// [`submit`](Self::submit) with admission control: refuses the
    /// submission outright — before leasing anything — when the team
    /// already has [`RuntimeConfig::max_live_regions`] regions in flight,
    /// returning [`SubmitError::Shed`] so the caller can retry, queue or
    /// degrade at *its* layer. With no watermark configured this is plain
    /// `submit`.
    ///
    /// The check is advisory (two racing submitters may both observe room);
    /// the watermark bounds load, it does not ration slots exactly.
    ///
    /// A thin wrapper over `self.region(f).try_submit()` — see
    /// [`region`](Self::region) for the composable builder surface.
    pub fn try_submit<F, R>(&self, f: F) -> Result<RegionHandle<'_, R>, SubmitError>
    where
        F: FnOnce(&Scope<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.region(f).try_submit()
    }

    /// [`submit`](Self::submit) with a deadline, measured from now: once it
    /// passes, the region is cancelled exactly as by
    /// [`RegionHandle::cancel`] — spawns are suppressed, queued tasks are
    /// dispatched body-skipped, and the joiner observes
    /// [`RegionError::Cancelled`] unless the region quiesced before the
    /// deadline. Enforcement rides the team's coarse clock (stamped by
    /// workers at dispatch boundaries and parks), so detection latency is
    /// a few milliseconds, not microseconds — deadlines bound *service
    /// time*, they are not a profiling instrument.
    ///
    /// A thin wrapper over `self.region(f).deadline(d).submit()` — see
    /// [`region`](Self::region) for the composable builder surface.
    pub fn submit_with_deadline<F, R>(
        &self,
        deadline: std::time::Duration,
        f: F,
    ) -> RegionHandle<'_, R>
    where
        F: FnOnce(&Scope<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.region(f).deadline(deadline).submit()
    }

    /// [`submit`](Self::submit) with an explicit per-region cut-off budget,
    /// overriding the team default
    /// ([`RuntimeConfig::with_region_budget`]). Pass
    /// [`RegionBudget::Inherit`] to keep the default; a budget makes *this*
    /// region's spawns run inline once its own queued-task count trips the
    /// limit, leaving every other region's spawn behaviour untouched (see
    /// [`RegionStats::serialized`]).
    ///
    /// A thin wrapper over `self.region(f).budget(b).submit()` — see
    /// [`region`](Self::region) for the composable builder surface.
    pub fn submit_with_budget<F, R>(&self, budget: RegionBudget, f: F) -> RegionHandle<'_, R>
    where
        F: FnOnce(&Scope<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.region(f).budget(budget).submit()
    }

    /// [`submit`](Self::submit) under a **shape token**: the first region
    /// submitted with `token` runs live and *records* the dependency DAG
    /// its `depend` clauses produce (spawn order, clause edges); the frozen
    /// graph is cached, and every later submit with the same token
    /// *replays* it — tasks carry preresolved successor lists and a release
    /// counter seeded from the frozen in-degree, so the warm path touches
    /// **no tracker mutex, no map buckets, and allocates nothing**.
    ///
    /// The token is a promise that the region's *shape* is a pure function
    /// of it: same spawn sequence, same clause structure (addresses may
    /// differ — clauses are compared by first-occurrence order, so a
    /// structurally identical region over different data replays fine).
    /// The promise is **checked, not trusted**: every replayed spawn's
    /// clause list is hashed against the recording, and a mismatch
    /// *diverges* the region — it drains the matched prefix, falls back to
    /// live registration for the rest, invalidates the cached graph, and
    /// still produces exactly the results a live run would have
    /// ([`RuntimeStats::replays_diverged`] counts these). Spawn the
    /// dependency graph from a single clause-free generator task (the
    /// SparseLU pattern); see the crate README's replay section for the
    /// precise contract.
    ///
    /// Works with any number of concurrent regions: a token whose graph is
    /// already leased to another in-flight region simply runs live this
    /// time. Cache capacity is [`RuntimeConfig::replay_cache`].
    ///
    /// A thin wrapper over `self.region(f).replay(token).submit()` — see
    /// [`region`](Self::region) for the composable builder surface.
    pub fn submit_replay<F, R>(&self, token: u64, f: F) -> RegionHandle<'_, R>
    where
        F: FnOnce(&Scope<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.region(f).replay(token).submit()
    }

    /// [`parallel`](Self::parallel) under a shape token: exactly
    /// [`submit_replay`](Self::submit_replay) followed by an immediate
    /// join, with the same non-`'static` borrow allowance as `parallel`
    /// (the calling frame provably outlives the region).
    ///
    /// A thin wrapper over `self.region(f).replay(token).join()` — see
    /// [`region`](Self::region) for the composable builder surface.
    pub fn parallel_replay<'env, F, R>(&self, token: u64, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R + Send + 'env,
        R: Send + 'env,
    {
        assert!(
            !on_team(&self.shared),
            "Runtime::parallel_replay called from inside a task of the same \
             runtime; spawn a task instead, or submit from a client thread"
        );
        self.region(f).replay(token).join()
    }

    /// Starts building a parallel region around `body`: chain any of
    /// [`budget`](RegionBuilder::budget), [`deadline`](RegionBuilder::deadline)
    /// and [`replay`](RegionBuilder::replay), then finish with
    /// [`submit`](RegionBuilder::submit), [`try_submit`](RegionBuilder::try_submit)
    /// or [`join`](RegionBuilder::join).
    ///
    /// This is the one submit surface; the named methods (`parallel`,
    /// `submit`, `submit_with_budget`, `submit_with_deadline`,
    /// `submit_replay`, `parallel_replay`, `try_submit`) are thin wrappers
    /// over it, kept for familiarity. Unlike them, the builder composes:
    /// a region with a budget *and* a deadline *and* a replay token is one
    /// chain, not a missing method.
    ///
    /// ```
    /// use bots_runtime::{RegionBudget, Runtime};
    /// use std::time::Duration;
    ///
    /// let rt = Runtime::with_threads(2);
    /// // Blocking, like `parallel`, but with a budget and a deadline too.
    /// let sum = rt
    ///     .region(|s| {
    ///         let total = std::sync::atomic::AtomicU64::new(0);
    ///         s.taskgroup(|s| {
    ///             for i in 0..10u64 {
    ///                 let total = &total;
    ///                 s.spawn(move |_| {
    ///                     total.fetch_add(i, std::sync::atomic::Ordering::Relaxed);
    ///                 });
    ///             }
    ///         });
    ///         total.load(std::sync::atomic::Ordering::Relaxed)
    ///     })
    ///     .budget(RegionBudget::MaxQueued(64))
    ///     .deadline(Duration::from_secs(5))
    ///     .join();
    /// assert_eq!(sum, 45);
    ///
    /// // Non-blocking, like `submit`: same chain, `.submit()` instead.
    /// let handle = rt.region(|_| 7u32).submit();
    /// assert_eq!(handle.join(), 7);
    /// ```
    // The bound is not used here — it exists so the closure literal's
    // `&Scope` lifetimes are inferred exactly as `parallel`'s would be
    // (outer reference higher-ranked, inner pinned to `'env`); without it
    // a plain `|s| ...` closure fails to unify with the finishers' bounds.
    pub fn region<'env, F, R>(&self, body: F) -> RegionBuilder<'_, F>
    where
        F: FnOnce(&Scope<'env>) -> R + Send + 'env,
        R: Send + 'env,
    {
        RegionBuilder {
            rt: self,
            body,
            budget: RegionBudget::Inherit,
            deadline: None,
            replay: None,
        }
    }

    /// The shared submission path behind [`region`](Self::region) and every
    /// named wrapper. **Zero heap allocations in the steady
    /// state**: the region descriptor (root record, result slot, shards
    /// included) is leased from the pool, and the root closure is stored
    /// inline in the embedded root record.
    ///
    /// Lifetime contract (private; upheld by the public wrappers): the
    /// `'env` lifetime is erased by the record's raw closure storage, so the
    /// returned handle must quiesce — via `join`, poll-to-ready or drop —
    /// before `'env` ends. `submit` instantiates `'env = 'static`;
    /// `parallel` joins before returning.
    fn submit_inner<'env, F, R>(
        &self,
        f: F,
        budget: RegionBudget,
        deadline: Option<std::time::Duration>,
        replay_token: Option<u64>,
    ) -> RegionHandle<'_, R>
    where
        F: FnOnce(&Scope<'env>) -> R + Send + 'env,
        R: Send + 'env,
    {
        let shared = &self.shared;
        let budget = match budget {
            RegionBudget::Inherit => shared.config.region_budget,
            explicit => explicit,
        };
        let slot = submitter_slot();
        let (region, fresh) = shared.region_pool.lease(slot, budget);
        if fresh {
            shared.regions_fresh.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.regions_recycled.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(d) = deadline {
            // Deadlines are absolute coarse-clock values; 0 means "none",
            // so a zero-duration deadline still arms (at >= 1 ms).
            let at = shared
                .stamp_clock()
                .saturating_add(d.as_millis() as u64)
                .max(1);
            unsafe { region.as_ref() }.set_deadline_ms(at);
        }
        // Overload shedding for the infallible submit paths: over the
        // watermark the region is still admitted — refusal belongs to
        // `try_submit` — but in *shed mode*, where its clause-free spawns
        // serialise inline so overload stops growing the queues.
        let limit = shared.config.max_live_regions;
        if limit > 0 && shared.live_regions.load(Ordering::Relaxed) >= limit {
            shared.submissions_shed.fetch_add(1, Ordering::Relaxed);
            unsafe { region.as_ref() }.set_shed_mode();
        }
        // Arm record-and-replay while the lease is still exclusively ours:
        // the injector handoff below is the publication edge the region's
        // tasks synchronise on, so plain stores suffice here.
        if let Some(token) = replay_token {
            let r = unsafe { region.as_ref() };
            match shared.replay_cache.arm(token) {
                ArmOutcome::Replay(graph) => r.replay().arm_replay(token, graph),
                ArmOutcome::Record { evicted } => {
                    if evicted {
                        shared.graphs_evicted.fetch_add(1, Ordering::Relaxed);
                    }
                    r.replay().arm_record(token);
                }
                // Graph leased to another in-flight region (or still being
                // recorded): run plain live, uncounted — the token gets its
                // replay next time.
                ArmOutcome::Busy => {}
            }
        }

        // Root record: embedded in the descriptor, held by two handles —
        // the injector queue's and the joiner's.
        let root = unsafe { region.as_ref() }.root();
        unsafe {
            TaskRecord::init(
                root,
                None,
                None,
                region.as_ptr(),
                HOME_REGION,
                TaskAttrs::tied(),
            );
            root.as_ref().add_ref();
        }

        // Root shim: run the user closure, store the result in the region's
        // inline slot. The raw descriptor pointer crosses into the closure
        // behind [`RegionPtr`]; it stays valid because the lease outlives
        // the root task (see crate::region).
        let regp = RegionPtr(region);
        let spilled = unsafe {
            TaskRecord::store_closure(root, move |ec: &ExecCtx| {
                // Whole-wrapper capture; see `RegionPtr`.
                let regp = regp;
                let scope = Scope::from_exec(ec);
                let out = f(&scope);
                if regp.0.as_ref().store_result(out) {
                    // An oversized result is a spill like an oversized
                    // closure: one box, visible in the same counter.
                    WorkerCounters::bump(&current_worker().counters().closure_spilled);
                }
            })
        };
        if spilled {
            shared.root_spilled.fetch_add(1, Ordering::Relaxed);
        }

        shared.live_regions.fetch_add(1, Ordering::Relaxed);
        shared.queued_delta(slot, 1);
        shared.injector.push(root, slot);
        // One region root → at most one extra pair of hands; wake
        // propagation fans further wakes out as the region unfolds.
        shared.work.notify_one();

        RegionHandle {
            rt: self,
            region,
            quiesced: false,
            final_stats: None,
            _result: std::marker::PhantomData,
        }
    }
}

/// A parallel region under construction: the single submit surface behind
/// every [`Runtime`] entry point. Obtained from [`Runtime::region`]; holds
/// the root closure and the region's knobs (budget, deadline, replay
/// token), all defaulted to "inherit the team configuration", until one of
/// the three finishers runs it:
///
/// * [`submit`](Self::submit) — non-blocking, returns a [`RegionHandle`]
///   (requires `'static`, like [`Runtime::submit`]);
/// * [`try_submit`](Self::try_submit) — `submit` behind the
///   [`RuntimeConfig::max_live_regions`] admission watermark;
/// * [`join`](Self::join) — blocking, returns the root's result and may
///   borrow the calling frame (like [`Runtime::parallel`]).
///
/// Building is free: no lease, no queue traffic, nothing observable happens
/// until a finisher is called.
///
/// [`RuntimeConfig::max_live_regions`]: crate::RuntimeConfig::max_live_regions
#[must_use = "a RegionBuilder does nothing until .submit(), .try_submit() or .join() is called"]
pub struct RegionBuilder<'rt, F> {
    rt: &'rt Runtime,
    body: F,
    budget: RegionBudget,
    deadline: Option<std::time::Duration>,
    replay: Option<u64>,
}

impl<'rt, F> RegionBuilder<'rt, F> {
    /// Overrides the team's default cut-off budget for this region alone
    /// (see [`Runtime::submit_with_budget`] for the semantics).
    /// [`RegionBudget::Inherit`] — the default — keeps the team setting.
    pub fn budget(mut self, budget: RegionBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms a deadline, measured from submission (see
    /// [`Runtime::submit_with_deadline`] for semantics and clock
    /// granularity). Once it passes, the region is cancelled as by
    /// [`RegionHandle::cancel`].
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Runs the region under a dependency-replay **shape token** (see
    /// [`Runtime::submit_replay`] for the recording/replay contract the
    /// token promises).
    pub fn replay(mut self, token: u64) -> Self {
        self.replay = Some(token);
        self
    }

    /// Submits the region without blocking, returning its
    /// [`RegionHandle`]. Exactly [`Runtime::submit`] plus whatever knobs
    /// were chained.
    pub fn submit<R>(self) -> RegionHandle<'rt, R>
    where
        F: FnOnce(&Scope<'static>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.rt
            .submit_inner(self.body, self.budget, self.deadline, self.replay)
    }

    /// [`submit`](Self::submit) behind the admission watermark: refuses
    /// with [`SubmitError::Shed`] — before leasing anything — when the team
    /// already has [`RuntimeConfig::max_live_regions`] regions in flight.
    /// The check is advisory, exactly as in [`Runtime::try_submit`].
    ///
    /// [`RuntimeConfig::max_live_regions`]: crate::RuntimeConfig::max_live_regions
    pub fn try_submit<R>(self) -> Result<RegionHandle<'rt, R>, SubmitError>
    where
        F: FnOnce(&Scope<'static>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let limit = self.rt.shared.config.max_live_regions;
        if limit > 0 {
            let live = self.rt.shared.live_regions.load(Ordering::Relaxed);
            if live >= limit {
                self.rt
                    .shared
                    .submissions_shed
                    .fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Shed { live, limit });
            }
        }
        Ok(self
            .rt
            .submit_inner(self.body, self.budget, self.deadline, self.replay))
    }

    /// Submits the region and blocks until it quiesces, returning the
    /// root's result and re-raising its panic, if any. Like
    /// [`Runtime::parallel`], the calling frame provably outlives the
    /// region, so the body may borrow it — and like `parallel`, this must
    /// not be called from inside a task of the same runtime (it panics
    /// rather than deadlock the team).
    pub fn join<'env, R>(self) -> R
    where
        F: FnOnce(&Scope<'env>) -> R + Send + 'env,
        R: Send + 'env,
    {
        // Same ordering rationale as `Runtime::parallel`: reject nested
        // calls before the (possibly borrowing) root is published.
        assert!(
            !on_team(&self.rt.shared),
            "RegionBuilder::join called from inside a task of the same \
             runtime; spawn a task instead, or submit from a client thread"
        );
        self.rt
            .submit_inner(self.body, self.budget, self.deadline, self.replay)
            .join()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Wait for in-flight regions — detached `on_complete` ones included
        // — to quiesce before shutting the team down: every registered
        // completion fires before the workers exit. (Joined regions are
        // already quiescent here: their handles borrow the runtime.)
        loop {
            if self.shared.live_regions.load(Ordering::Acquire) == 0 {
                break;
            }
            let token = self.shared.progress.prepare();
            if self.shared.live_regions.load(Ordering::Acquire) == 0 {
                self.shared.progress.cancel();
                break;
            }
            self.shared.progress.wait_timeout(token, PARK_TIMEOUT);
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify();
        self.shared.progress.notify();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Default for Runtime {
    /// Team sized by `BOTS_NUM_THREADS` or the machine's parallelism.
    fn default() -> Self {
        Runtime::new(RuntimeConfig::default())
    }
}

/// A handle on one submitted, in-flight parallel region. Obtained from
/// [`Runtime::submit`]; borrows the runtime, so the team provably outlives
/// every region it serves.
///
/// Three ways to consume a region's completion:
///
/// * [`join`](Self::join) — park the calling thread until quiescence (the
///   classic blocking shim);
/// * **poll it as a [`Future`]** — the handle registers the task's `Waker`
///   in the region descriptor's completion slot and is woken exactly once,
///   on the quiescence zero-transition, so an async server never burns a
///   blocked thread per in-flight region;
/// * [`on_complete`](Self::on_complete) — detach the region and run a
///   callback (with the result or the region's panic payload) on the
///   completing worker the moment it quiesces.
///
/// Dropping the handle **joins the region** (blocking until quiescence and
/// discarding the result and any panic), mirroring how
/// [`Runtime::parallel`] would behave if its caller ignored the result —
/// a region can therefore never outlive its handle or leak task records.
/// Leaking the handle itself (`std::mem::forget`) strands the region's
/// pooled descriptor, exactly like forgetting any owning handle.
#[must_use = "a RegionHandle joins (blocks) on drop; join(), poll or on_complete() it"]
pub struct RegionHandle<'rt, R> {
    rt: &'rt Runtime,
    /// The leased descriptor. Valid for the whole life of the handle: the
    /// pool never frees descriptors before the runtime drops, and the lease
    /// is only returned by this handle's own finishing path.
    region: NonNull<Region>,
    /// Has the final root reference been released (the lease returned)?
    quiesced: bool,
    /// Attribution snapshot taken at finish time, so `stats` keeps
    /// answering for *this* region after the descriptor has been returned
    /// (and possibly re-leased by an unrelated submission).
    final_stats: Option<RegionStats>,
    _result: std::marker::PhantomData<fn() -> R>,
}

// Safety: the handle is a lease token plus a borrow of the (Sync) runtime;
// the descriptor it points to is Sync and remains valid wherever the handle
// travels. Result values only move through it when `R: Send`.
unsafe impl<R: Send> Send for RegionHandle<'_, R> {}

/// Takes panic and result out of a quiescent region and returns the lease
/// to the pool — the one finishing sequence, shared by `join`/poll/drop
/// (through [`RegionHandle::finish`]) and the detached `on_complete` path.
///
/// Gates on the completion slot having *fired*: quiescence may have been
/// observed through the root refcount, and the thread that performed the
/// 2→1 drop is still about to dereference the descriptor inside its
/// completion fire, a few instructions behind the refcount store. The
/// lease must not be touched for finishing — let alone returned — until
/// that fire has landed.
///
/// # Safety
/// `region` must be a live lease whose region has quiesced, `R` must be
/// the submission's result type, and the caller must be the lease's sole
/// finisher.
unsafe fn finish_lease<R>(shared: &Shared, region: &Region) -> Result<R, RegionError> {
    // Yield, don't pure-spin: on an oversubscribed host the firing thread
    // may hold the only CPU this wait needs.
    while !region.completion_fired() {
        std::thread::yield_now();
    }
    let panic = region.take_panic();
    let result = if region.result_written() {
        Some(region.take_result::<R>())
    } else {
        None
    };
    // Read the cancel flag *before* releasing the root: the release
    // returns the lease, after which the descriptor may immediately serve
    // an unrelated submission.
    let cancelled = region.is_cancelled();
    // Settle replay state while the lease is still ours: deposit or give
    // back the graph (or invalidate the token) before the descriptor can
    // serve — and re-arm under — its next submission.
    shared.replay_finish(region, cancelled);
    shared.release_record(region.root(), None);
    match (panic, result) {
        // A panic outranks a stored result (the result is dropped): the
        // region did not complete normally, whatever the root managed to
        // write before another task blew up.
        (Some(payload), result) => {
            drop(result);
            Err(RegionError::Panicked(payload))
        }
        // Cancellation outranks it too: a cancelled region may well have
        // stored a root value (the root body runs to completion unless it
        // was still queued — cancellation is cooperative), but that value
        // was computed over skipped children and must not masquerade as a
        // completed result.
        (None, result) if cancelled => {
            drop(result);
            Err(RegionError::Cancelled)
        }
        (None, Some(value)) => Ok(value),
        (None, None) => panic!("root task did not record a result"),
    }
}

impl<R> RegionHandle<'_, R> {
    #[inline]
    fn region(&self) -> &Region {
        // Safety: leased for the life of the handle (see the field docs).
        unsafe { self.region.as_ref() }
    }

    /// Has the region quiesced? Non-blocking; `true` means `join` will
    /// return without waiting.
    pub fn is_finished(&self) -> bool {
        self.quiesced || self.region().root_refs() == 1
    }

    /// Cancels the region — `#pragma omp cancel parallel` from outside:
    /// the caller's half of cooperative cancellation. Already-running task
    /// bodies finish (or poll [`Scope::is_cancelled`]); spawns are
    /// suppressed and queued tasks dispatch body-skipped from here on, so
    /// the region drains to quiescence instead of finishing its work.
    /// Idempotent, non-blocking, callable from any thread. Join with
    /// [`outcome`](Self::outcome) (or [`try_join`](Self::try_join)) to
    /// observe [`RegionError::Cancelled`] without a panic.
    ///
    /// [`Scope::is_cancelled`]: crate::Scope::is_cancelled
    pub fn cancel(&self) {
        if !self.quiesced {
            self.rt.shared.cancel_region(self.region());
        }
    }

    /// Task-traffic attribution for this region so far: tasks spawned,
    /// executed and budget-serialised on its behalf, regardless of which
    /// worker ran them. After the handle has completed (e.g. polled to
    /// `Ready`), returns the final snapshot.
    pub fn stats(&self) -> RegionStats {
        match self.final_stats {
            Some(s) => s,
            None => self.region().stats(),
        }
    }

    /// Blocks until the region has quiesced — every task spawned inside it,
    /// transitively, has completed — then returns the root closure's value.
    /// A panic from any task of the region is re-raised here, and only
    /// here: concurrent regions are isolated from it.
    ///
    /// This is a thin blocking shim over the completion machinery: prefer
    /// polling the handle as a [`Future`] or [`on_complete`](Self::on_complete)
    /// when a blocked thread per region is too expensive.
    pub fn join(self) -> R {
        match self.outcome() {
            Ok(value) => value,
            Err(RegionError::Panicked(payload)) => resume_unwind(payload),
            // A cancelled region has no value to return: joining it with
            // the infallible API is a contract violation, reported as a
            // typed panic payload (`RegionError::Cancelled`) rather than
            // an opaque string. Cancellation-aware callers use `outcome`.
            Err(e @ RegionError::Cancelled) => std::panic::panic_any(e),
        }
    }

    /// Blocks until quiescence like [`join`](Self::join), but returns the
    /// region's outcome as a value: `Ok` with the root closure's result,
    /// [`RegionError::Cancelled`] when the region was cancelled (by
    /// [`cancel`](Self::cancel), [`Scope::cancel_region`] or a missed
    /// deadline — a root value stored mid-cancellation is discarded: it
    /// was computed over skipped children), or
    /// [`RegionError::Panicked`] carrying the payload of the first task
    /// panic. This is the join for cancellation-aware callers — nothing in
    /// it ever panics on a cancelled or panicked region.
    ///
    /// [`Scope::cancel_region`]: crate::Scope::cancel_region
    pub fn outcome(mut self) -> Result<R, RegionError> {
        self.wait_quiescence();
        self.finish()
    }

    /// Bounded join: waits up to `timeout` for quiescence. `None` means
    /// the region is still running — the handle is untouched and may be
    /// waited again (or cancelled, or dropped, which blocks to quiescence).
    /// `Some` carries the same outcome [`outcome`](Self::outcome) would
    /// have returned; after `Some`, the handle is finished and its drop is
    /// a no-op. The cancel-latency pattern is `cancel()` followed by
    /// `try_join` in a loop.
    pub fn try_join(&mut self, timeout: std::time::Duration) -> Option<Result<R, RegionError>> {
        if self.quiesced {
            // Contract violation, like polling a completed future: the
            // prior Some() consumed the result.
            panic!("RegionHandle waited after it already completed");
        }
        if !self.wait_quiescence_timeout(timeout) {
            return None;
        }
        Some(self.finish())
    }

    /// Detaches the region: `callback` runs the moment the region quiesces,
    /// **on the completing worker thread**, receiving the region's outcome
    /// — the root closure's value, or a [`RegionError`] when the region
    /// panicked or was cancelled (see [`outcome`](Self::outcome)). If the
    /// region has already quiesced the callback runs immediately on the
    /// calling thread.
    ///
    /// The callback should be short and must not block the worker (hand the
    /// result to a channel, wake an executor, bump a counter). A panic
    /// inside it is swallowed, like a panic in a detached thread.
    /// [`Runtime`]'s destructor waits for detached regions, so a registered
    /// callback always fires before the team shuts down.
    pub fn on_complete<F>(self, callback: F)
    where
        F: FnOnce(Result<R, RegionError>) + Send + 'static,
        R: Send + 'static,
    {
        let shared = Arc::clone(&self.rt.shared);
        let region = self.region;
        // The handle's obligations transfer to the detached finisher; its
        // own Drop must not run.
        std::mem::forget(self);
        let regp = RegionPtr(region);
        let finish = Box::new(move || {
            // Whole-wrapper capture; see `RegionPtr`.
            let regp = regp;
            // Safety: fired from (or after) the quiescence transition, as
            // the lease's sole finisher; the lease is returned inside
            // `finish_lease` — *before* the callback, which may run
            // arbitrarily long while the descriptor serves its next lease.
            let outcome = unsafe { finish_lease::<R>(&shared, regp.0.as_ref()) };
            callback(outcome);
        });
        if let Some(Completion::Detached(finish)) =
            unsafe { region.as_ref() }.register_completion(Completion::Detached(finish))
        {
            // Already quiescent: fire on the calling thread (panics here
            // propagate to the caller, who is not a worker mid-loop —
            // unless the caller *is* a worker, where execute()'s
            // catch_unwind contains them like any task panic).
            finish();
        }
    }

    /// Takes result and panic out of the quiescent region and returns the
    /// lease (after which the descriptor may be re-used by any submitter),
    /// keeping a final stats snapshot for late `stats` calls. Caller must
    /// have established quiescence.
    fn finish(&mut self) -> Result<R, RegionError> {
        assert!(!self.quiesced, "region finished twice");
        self.final_stats = Some(self.region().stats());
        // Safety: quiescent, sole finisher (guarded by `quiesced`), and `R`
        // is this handle's submission result type.
        let outcome = unsafe { finish_lease::<R>(&self.rt.shared, self.region()) };
        self.quiesced = true;
        outcome
    }

    /// Parks the calling thread until the root's refcount falls to this
    /// handle's own reference. Does **not** release the lease — callers
    /// follow up with [`finish`](Self::finish), which takes result/panic
    /// out and returns the lease.
    /// Panics when the calling thread is a worker of this handle's own
    /// team. Joining from a task of the same team would park this worker
    /// without task-switching: if every worker ends up here (trivially
    /// so on a team of one), nobody is left to run the awaited region —
    /// a permanent deadlock. Fail loudly instead (for an explicit join
    /// *and* for a handle dropped inside a task — the silent-block
    /// variant of the same bug). The region keeps running detached:
    /// `quiesced` is set so Drop does not re-enter (a double panic would
    /// abort), and the descriptor lease is deliberately never returned —
    /// its memory stays valid for the in-flight records because the pool
    /// owns it until the runtime drops.
    fn assert_off_team(&mut self) {
        let shared = &*self.rt.shared;
        if on_team(shared) {
            self.quiesced = true;
            panic!(
                "RegionHandle joined (or dropped) from inside a task of the same \
                 runtime; join regions from client threads only, or use \
                 on_complete() to finish them without blocking"
            );
        }
    }

    fn wait_quiescence(&mut self) {
        if self.quiesced {
            return;
        }
        self.assert_off_team();
        let shared = &*self.rt.shared;
        loop {
            if self.region().root_refs() == 1 {
                break;
            }
            let token = shared.progress.prepare();
            if self.region().root_refs() == 1 {
                shared.progress.cancel();
                break;
            }
            shared.progress.wait_timeout(token, PARK_TIMEOUT);
        }
    }

    /// Bounded [`wait_quiescence`](Self::wait_quiescence): `true` means
    /// quiescent (finish may proceed), `false` means the timeout elapsed
    /// first. Same worker-thread restriction as the unbounded wait — the
    /// park is finite here, but a worker that cannot task-switch stalls
    /// the team for the whole timeout, which is the same bug in slow
    /// motion.
    fn wait_quiescence_timeout(&mut self, timeout: std::time::Duration) -> bool {
        if self.quiesced {
            return true;
        }
        self.assert_off_team();
        let shared = &*self.rt.shared;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.region().root_refs() == 1 {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let token = shared.progress.prepare();
            if self.region().root_refs() == 1 {
                shared.progress.cancel();
                return true;
            }
            shared
                .progress
                .wait_timeout(token, (deadline - now).min(PARK_TIMEOUT));
        }
    }
}

impl<R> std::future::Future for RegionHandle<'_, R> {
    type Output = R;

    /// Completes with the root closure's value once the region quiesces.
    /// The waker is stored in the region descriptor's completion slot and
    /// woken exactly once, by the quiescence zero-transition — no thread is
    /// parked, no polling loop spins. A panic from any task of the region
    /// is re-raised by the completing `poll`.
    ///
    /// Polling never blocks and is safe from any thread, workers included.
    /// Polling again after `Ready` panics, like most futures.
    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> std::task::Poll<R> {
        // The handle is plain data (no self-references): safe to unpin.
        let this = self.get_mut();
        assert!(
            !this.quiesced,
            "RegionHandle polled after it already completed"
        );
        match this
            .region()
            .register_completion(Completion::Waker(cx.waker().clone()))
        {
            // Stored: the zero-transition will wake us (replacing any waker
            // from an earlier poll). Re-registration on every poll keeps
            // the slot current when the future migrates between tasks.
            None => std::task::Poll::Pending,
            // Already quiescent: finish inline. Cancellation surfaces as a
            // typed panic payload, mirroring `join`.
            Some(_stale) => match this.finish() {
                Ok(value) => std::task::Poll::Ready(value),
                Err(RegionError::Panicked(payload)) => resume_unwind(payload),
                Err(e @ RegionError::Cancelled) => std::panic::panic_any(e),
            },
        }
    }
}

impl<R> Drop for RegionHandle<'_, R> {
    fn drop(&mut self) {
        if !self.quiesced {
            self.wait_quiescence();
            // An unobserved region's result and panic are deliberately
            // discarded, like a panic in a detached std thread.
            let _ = self.finish();
        }
    }
}

/// The worker main loop: local pop → injector → steal rounds → park, with
/// wake propagation after a successful wake (see the module docs).
#[inline(never)]
fn worker_loop(ctx: &WorkerCtx) {
    // Publish this thread's context before touching any work: everything
    // popped below may be a tagged continuation whose fiber reads
    // `current_worker()` the instant it lands.
    CUR_WORKER.with(|w| w.set(ctx));
    let shared = &*ctx.shared;
    // Carve this worker's first record chunk and fiber before it takes
    // work, so a warm region stays allocation-free whichever worker runs
    // it. Safety: this is worker `ctx.index`'s thread; both items unused.
    unsafe {
        let (rec, _) = shared.records.lease(ctx.index);
        shared.records.release(rec, ctx.index);
        let (c, _) = shared.cont_pool.lease(ctx.index);
        shared.cont_pool.release(c, ctx.index);
    }
    let mut just_woke = false;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = ctx.pop_local().or_else(|| ctx.pop_injector()) {
            ctx.propagate_wake(&mut just_woke);
            ctx.dispatch(task);
            continue;
        }
        let mut found = false;
        for _ in 0..shared.config.steal_rounds {
            if let Some(task) = ctx.try_steal() {
                ctx.propagate_wake(&mut just_woke);
                ctx.dispatch(task);
                found = true;
                break;
            }
            for _ in 0..shared.config.spin_before_park {
                std::hint::spin_loop();
            }
        }
        if found {
            continue;
        }
        just_woke = false;
        // An idle worker is the cheapest clock stamper there is: re-stamp
        // on the way into (and out of) the park so armed deadlines keep
        // advancing even when no task dispatch is ticking the clock.
        shared.stamp_clock();
        // Nothing anywhere: register as a sleeper, re-check, park until an
        // event or the safety timeout.
        let token = shared.work.prepare();
        if shared.shutdown.load(Ordering::Acquire) || ctx.work_visible() {
            shared.work.cancel();
            continue;
        }
        WorkerCounters::bump(&ctx.counters().parks);
        shared.work.wait_timeout(token, PARK_TIMEOUT);
        shared.stamp_clock();
        just_woke = true;
    }
}
