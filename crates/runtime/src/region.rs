//! Per-region descriptors and the descriptor pool: the state of one
//! parallel region, extracted out of the team-wide [`Shared`] block so that
//! an arbitrary number of regions can run concurrently on a single worker
//! team — and **recycled** through a free list so a steady-state
//! [`Runtime::submit`] performs zero heap allocations.
//!
//! One [`Region`] is leased per [`Runtime::submit`] / [`Runtime::parallel`]
//! call and holds everything whose scope is *that region*, nothing else:
//!
//! * the **root record** — the region's implicit task, embedded in the
//!   descriptor itself (no per-submit box), whose refcount is the
//!   quiescence signal (it falls back to the joiner's lone handle exactly
//!   when every descendant record has been destroyed);
//! * the **result slot** — inline storage for the root closure's return
//!   value (spilled to one box past [`RESULT_INLINE_BYTES`]), consumed by
//!   whoever finishes the region;
//! * the **completion slot** — a parked `Waker` or a detached completion
//!   callback, fired exactly once on the quiescence zero-transition, so a
//!   server frontend never has to burn a blocked thread per in-flight
//!   region;
//! * the **panic slot** — the first panic raised by any task of the region,
//!   re-raised by the region's own joiner and invisible to every other
//!   region;
//! * the **cut-off budget** ([`RegionBudget`]) plus the per-worker queued
//!   count it is checked against, so one greedy region falls back to serial
//!   execution without starving its siblings' spawns;
//! * **stats attribution** — per-worker sharded spawned/executed/serialized
//!   counters, so a server can tell which region generated which task
//!   traffic without the global per-worker counters losing their meaning.
//!
//! ## Descriptor lifetime
//!
//! Records reach their region through a raw pointer stored in every
//! [`TaskRecord`] at init (children inherit it from their parent). The
//! pointer stays valid for as long as any record of the region is live: a
//! leased descriptor is only returned to the pool by the final release of
//! its root record, which happens-after quiescence (every descendant record
//! destroyed) *and* after the joiner/completion path has taken the result
//! and panic out. Descriptor memory itself is never freed before the
//! runtime drops — the pool owns every descriptor it ever created — so even
//! a deliberately leaked lease (see the join-on-worker panic path) leaves
//! no dangling pointer behind.
//!
//! The pool mirrors the free-list pool ([`crate::freelist`]) in spirit and
//! the sharded injector ([`crate::injector`]) in mechanism: one Treiber
//! shard per worker, submitter-hashed, with ABA-free swap-drain pops.
//!
//! [`Shared`]: crate::pool::Runtime
//! [`Runtime::submit`]: crate::pool::Runtime::submit
//! [`Runtime::parallel`]: crate::pool::Runtime::parallel

use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::config::RegionBudget;
use crate::deps::DepTracker;
use crate::local::CacheAligned;
use crate::replay::{RegionReplay, ReplayPhase};
use crate::task::TaskRecord;

/// A panic payload captured from a task.
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send>;

/// Inline capacity of the region result slot, in bytes. Root closures
/// returning anything larger (or more aligned than
/// [`RESULT_INLINE_ALIGN`]) spill the value to one heap box.
pub(crate) const RESULT_INLINE_BYTES: usize = 64;

/// Maximum supported alignment for inline result storage.
pub(crate) const RESULT_INLINE_ALIGN: usize = 16;

#[repr(align(16))]
struct ResultPayload(#[allow(dead_code)] [MaybeUninit<u8>; RESULT_INLINE_BYTES]);

/// What fires when a region quiesces: a parked future's waker, or a
/// detached cleanup/callback that owns the rest of the region's lifecycle.
pub(crate) enum Completion {
    /// Wake a future that registered interest via `poll`.
    Waker(std::task::Waker),
    /// Run a detached completion: takes result and panic, releases the
    /// final root reference (returning the descriptor to the pool), and
    /// invokes the user callback, all on the completing thread.
    Detached(Box<dyn FnOnce() + Send>),
}

/// The completion slot: fired exactly once per lease, on the quiescence
/// zero-transition.
#[derive(Default)]
struct CompletionSlot {
    /// Has the region quiesced (the zero-transition already ran)?
    fired: bool,
    /// What to fire when it does.
    pending: Option<Completion>,
}

/// Per-worker attribution shard: padded so two workers bumping counters for
/// the same region never share a cache line (the spawn path must stay
/// contention-free). Every field is single-writer: only the worker the
/// shard is indexed by touches it.
#[derive(Default)]
pub(crate) struct RegionShard {
    /// Tasks deferred (queued) on behalf of this region by this worker.
    pub(crate) spawned: AtomicU64,
    /// Deferred tasks of this region executed by this worker (the region
    /// root counts too — it runs through the same execute path).
    pub(crate) executed: AtomicU64,
    /// Spawns of this region this worker ran inline because the region's
    /// own budget tripped.
    pub(crate) serialized: AtomicU64,
    /// Tasks of this region whose bodies this worker skipped (suppressed
    /// at spawn, or dispatched with the closure dropped) because the
    /// region was cancelled.
    pub(crate) skipped: AtomicU64,
    /// Spawns of this region this worker ran inline because the runtime
    /// was shedding load (the in-flight region watermark was exceeded at
    /// submit time).
    pub(crate) shed: AtomicU64,
    /// Queued-but-unstarted tasks of this region, this worker's
    /// contribution (spawners add on their own shard, executors subtract on
    /// theirs, so a shard may go negative; the sum is the true count).
    pub(crate) queued: AtomicIsize,
}

/// State of one in-flight parallel region. See the module docs.
pub(crate) struct Region {
    /// Pool free-list link. Only touched while the descriptor is free (its
    /// lease has been returned), so it cannot race with live-region use.
    next: AtomicPtr<Region>,
    /// The region's root (implicit-task) record, embedded so a submission
    /// allocates nothing. Initialised at lease time, before the root is
    /// published to the injector.
    root: UnsafeCell<MaybeUninit<TaskRecord>>,
    /// First panic payload raised by any task of this region. Isolated here
    /// so a panic in region A can never be re-raised into region B's caller.
    panic: Mutex<Option<PanicPayload>>,
    /// Completion slot; see [`Completion`].
    completion: Mutex<CompletionSlot>,
    /// Effective cut-off budget for this lease. Written once at lease time
    /// (exclusive access, before the root is published) and read on every
    /// spawn; the publish-subscribe edge is the injector/deque handoff.
    budget: UnsafeCell<RegionBudget>,
    /// Hysteresis state for [`RegionBudget::Adaptive`].
    serializing: AtomicBool,
    /// Cooperative cancel flag: raised by `RegionHandle::cancel`,
    /// `Scope::cancel_region` or a tripped deadline; observed at task
    /// scheduling points. Never lowered while the lease is live.
    cancelled: AtomicBool,
    /// Deadline on the runtime's coarse millisecond clock
    /// ([`crate::pool`]'s `clock_ms`), or `0` for none. Written once at
    /// lease time; workers compare it against the stamped clock at
    /// dispatch points and cancel the region when it passes.
    deadline_ms: AtomicU64,
    /// Shed mode: the region was admitted while the runtime was over its
    /// in-flight watermark, so its clause-free spawns run inline instead
    /// of queueing (graceful degradation rather than rejection).
    shed_mode: AtomicBool,
    /// Root-closure result, written in place by the root task. The
    /// write happens-before any reader: readers only run after observing
    /// quiescence, which is downstream of the root's release-sequence.
    result: UnsafeCell<ResultPayload>,
    /// Has a result been stored (and not yet taken)? Distinguishes "root
    /// panicked before returning" from "result ready", and tells cleanup
    /// paths whether there is a value left to drop.
    result_written: AtomicBool,
    /// Per-worker attribution counters, indexed by worker.
    shards: Box<[CacheAligned<RegionShard>]>,
    /// The region's task-dependency tracker ([`crate::deps`]): address
    /// entries, dep blocks and nodes, all pooled inside and reset on
    /// re-lease — deps are region-scoped, and a recycled descriptor keeps
    /// its dependency pools warm.
    deps: DepTracker,
    /// Record-and-replay state ([`crate::replay`]): armed at submit time
    /// for leases carrying a shape token, `Off` otherwise.
    replay: RegionReplay,
}

// Safety: the embedded root record is governed by the record refcount
// protocol (and only initialised while the descriptor is exclusively
// leased); the result/budget cells are written under exclusivity and read
// happens-after publication edges documented on the fields; everything else
// is atomics or mutexes.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// A fresh descriptor for a team of `workers`, in reset state.
    pub(crate) fn new(workers: usize) -> Region {
        Region {
            next: AtomicPtr::new(std::ptr::null_mut()),
            root: UnsafeCell::new(MaybeUninit::uninit()),
            panic: Mutex::new(None),
            completion: Mutex::new(CompletionSlot::default()),
            budget: UnsafeCell::new(RegionBudget::Inherit),
            serializing: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_ms: AtomicU64::new(0),
            shed_mode: AtomicBool::new(false),
            result: UnsafeCell::new(ResultPayload([MaybeUninit::uninit(); RESULT_INLINE_BYTES])),
            result_written: AtomicBool::new(false),
            shards: (0..workers).map(|_| CacheAligned::default()).collect(),
            deps: DepTracker::new(),
            replay: RegionReplay::new(),
        }
    }

    /// Re-arms a recycled descriptor for a new lease.
    ///
    /// # Safety
    /// The caller must have exclusive access (the descriptor is freshly
    /// popped from the pool and not yet published anywhere).
    pub(crate) unsafe fn reset(&self, budget: RegionBudget) {
        for shard in self.shards.iter() {
            shard.0.spawned.store(0, Ordering::Relaxed);
            shard.0.executed.store(0, Ordering::Relaxed);
            shard.0.serialized.store(0, Ordering::Relaxed);
            shard.0.skipped.store(0, Ordering::Relaxed);
            shard.0.shed.store(0, Ordering::Relaxed);
            shard.0.queued.store(0, Ordering::Relaxed);
        }
        self.serializing.store(false, Ordering::Relaxed);
        self.cancelled.store(false, Ordering::Relaxed);
        self.deadline_ms.store(0, Ordering::Relaxed);
        self.shed_mode.store(false, Ordering::Relaxed);
        *self.budget.get() = budget;
        self.result_written.store(false, Ordering::Relaxed);
        *self.panic.lock().unwrap_or_else(|e| e.into_inner()) = None;
        *self.completion.lock().unwrap_or_else(|e| e.into_inner()) = CompletionSlot::default();
        // Drop the previous lease's dependency entries (exclusive here,
        // and happens-after that region's quiescence); the tracker's pools
        // keep their capacity, so the next lease's dep chains stay warm.
        self.deps.reset();
        self.replay.reset();
    }

    /// The embedded root record's slot. Always a valid address; the record
    /// itself is only initialised while the descriptor is leased.
    pub(crate) fn root(&self) -> NonNull<TaskRecord> {
        // Safety: the address of an embedded field is never null.
        unsafe { NonNull::new_unchecked(self.root.get().cast::<TaskRecord>()) }
    }

    /// Current reference count of the root record: the joiner's quiescence
    /// probe. `1` means every descendant record has been destroyed and only
    /// the joiner's handle remains.
    pub(crate) fn root_refs(&self) -> usize {
        unsafe { self.root().as_ref() }.refs()
    }

    /// Stores `payload` if this is the first panic of the region.
    pub(crate) fn store_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Takes the region's panic, if any (called by the joiner).
    pub(crate) fn take_panic(&self) -> Option<PanicPayload> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Registers a completion to fire at quiescence. Returns `None` when
    /// stored (the zero-transition will fire it, replacing any completion
    /// registered earlier — e.g. a stale waker from a previous poll), or
    /// gives `c` back when the region has **already** quiesced: the caller
    /// must then finish the region itself.
    pub(crate) fn register_completion(&self, c: Completion) -> Option<Completion> {
        let mut slot = self.completion.lock().unwrap_or_else(|e| e.into_inner());
        if slot.fired {
            return Some(c);
        }
        slot.pending = Some(c);
        None
    }

    /// Marks the region complete and takes whatever was registered. Called
    /// exactly once per lease, by the quiescence zero-transition; the
    /// returned completion must be fired *after* the lock is dropped.
    pub(crate) fn complete(&self) -> Option<Completion> {
        let mut slot = self.completion.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(!slot.fired, "region quiescence fired twice");
        slot.fired = true;
        slot.pending.take()
    }

    /// Has the quiescence transition fired the completion slot yet?
    ///
    /// Finishing paths that observed quiescence through the root *refcount*
    /// must gate on this before touching result/panic or returning the
    /// lease: the thread that performed the 2→1 drop is still about to
    /// dereference the descriptor inside its completion fire, a few
    /// instructions behind the refcount store.
    pub(crate) fn completion_fired(&self) -> bool {
        self.completion
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .fired
    }

    /// Stores the root closure's result in the inline slot (or one spill
    /// box past the inline capacity — returns `true` in that case).
    ///
    /// # Safety
    /// Called at most once per lease, by the root task, with no concurrent
    /// reader (readers wait for quiescence).
    pub(crate) unsafe fn store_result<R>(&self, value: R) -> bool {
        let payload = self.result.get().cast::<u8>();
        let spilled =
            if size_of::<R>() <= RESULT_INLINE_BYTES && align_of::<R>() <= RESULT_INLINE_ALIGN {
                payload.cast::<R>().write(value);
                false
            } else {
                payload
                    .cast::<*mut R>()
                    .write(Box::into_raw(Box::new(value)));
                true
            };
        // Release pairs with the Acquire in `result_written`: a reader that
        // sees `true` sees the payload bytes. (Quiescence alone already
        // orders the common paths; this covers direct probes.)
        self.result_written.store(true, Ordering::Release);
        spilled
    }

    /// Did the root store a result it has not been relieved of yet?
    pub(crate) fn result_written(&self) -> bool {
        self.result_written.load(Ordering::Acquire)
    }

    /// Moves the stored result out.
    ///
    /// # Safety
    /// `R` must be the type passed to [`store_result`](Self::store_result),
    /// [`result_written`](Self::result_written) must have returned `true`,
    /// and the caller must have exclusive post-quiescence access.
    pub(crate) unsafe fn take_result<R>(&self) -> R {
        self.result_written.store(false, Ordering::Relaxed);
        let payload = self.result.get().cast::<u8>();
        if size_of::<R>() <= RESULT_INLINE_BYTES && align_of::<R>() <= RESULT_INLINE_ALIGN {
            payload.cast::<R>().read()
        } else {
            *Box::from_raw(payload.cast::<*mut R>().read())
        }
    }

    /// Raises the cooperative cancel flag. Returns `true` when this call
    /// was the transition (the region was not cancelled before).
    #[inline]
    pub(crate) fn cancel(&self) -> bool {
        !self.cancelled.swap(true, Ordering::Relaxed)
    }

    /// Has the region been cancelled? Checked at task scheduling points;
    /// Relaxed is enough — cancellation is a monotone flag and the
    /// quiescence protocol supplies the eventual synchronisation.
    #[inline]
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Arms the region's deadline, in runtime coarse-clock milliseconds.
    /// Written once at lease time, before the root is published.
    #[inline]
    pub(crate) fn set_deadline_ms(&self, at: u64) {
        self.deadline_ms.store(at, Ordering::Relaxed);
    }

    /// The armed deadline in coarse-clock milliseconds (`0` = none).
    #[inline]
    pub(crate) fn deadline_ms(&self) -> u64 {
        self.deadline_ms.load(Ordering::Relaxed)
    }

    /// Puts the region in shed mode (set at submit time, before the root
    /// is published, when the runtime is over its in-flight watermark).
    #[inline]
    pub(crate) fn set_shed_mode(&self) {
        self.shed_mode.store(true, Ordering::Relaxed);
    }

    /// Is the region shedding (serialising its clause-free spawns)?
    #[inline]
    pub(crate) fn shed_mode(&self) -> bool {
        self.shed_mode.load(Ordering::Relaxed)
    }

    /// The region's dependency tracker.
    #[inline]
    pub(crate) fn deps(&self) -> &DepTracker {
        &self.deps
    }

    /// The region's record-and-replay state.
    #[inline]
    pub(crate) fn replay(&self) -> &RegionReplay {
        &self.replay
    }

    /// This worker's attribution shard.
    #[inline]
    pub(crate) fn shard(&self, worker: usize) -> &RegionShard {
        &self.shards[worker].0
    }

    /// Sum of the per-worker queued shards, clamped at zero (shards may be
    /// transiently negative; the total drives a heuristic, not correctness).
    pub(crate) fn queued_estimate(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.0.queued.load(Ordering::Relaxed))
            .sum::<isize>()
            .max(0) as usize
    }

    /// Should a spawn of this region be serialised by the region's own
    /// budget? Checked against the region's private queued count, so a
    /// tripping budget slows *this* region down and nobody else.
    #[inline]
    pub(crate) fn budget_trips(&self) -> bool {
        // Safety: written once at lease time, before the region was
        // published; spawners observed the publication edge.
        match unsafe { *self.budget.get() } {
            RegionBudget::Inherit => false,
            RegionBudget::MaxQueued(n) => self.queued_estimate() >= n,
            RegionBudget::Adaptive { low, high } => {
                let queued = self.queued_estimate();
                if self.serializing.load(Ordering::Relaxed) {
                    if queued < low {
                        self.serializing.store(false, Ordering::Relaxed);
                        false
                    } else {
                        true
                    }
                } else if queued > high {
                    self.serializing.store(true, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Adjusts this worker's queued-count shard for the region.
    #[inline]
    pub(crate) fn queued_delta(&self, worker: usize, delta: isize) {
        let shard = &self.shards[worker].0.queued;
        // Single-writer per shard: a plain load+store cannot lose updates.
        shard.store(shard.load(Ordering::Relaxed) + delta, Ordering::Relaxed);
    }

    /// Aggregated attribution snapshot.
    pub(crate) fn stats(&self) -> RegionStats {
        let mut s = RegionStats::default();
        for shard in self.shards.iter() {
            s.spawned += shard.0.spawned.load(Ordering::Relaxed);
            s.executed += shard.0.executed.load(Ordering::Relaxed);
            s.serialized += shard.0.serialized.load(Ordering::Relaxed);
            s.skipped_tasks += shard.0.skipped.load(Ordering::Relaxed);
            s.shed += shard.0.shed.load(Ordering::Relaxed);
        }
        s.cancelled = self.is_cancelled();
        s.replay = self.replay.phase();
        s
    }
}

/// Task-traffic attribution for one region, summed across workers. Exposed
/// through [`RegionHandle::stats`](crate::pool::RegionHandle::stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Tasks deferred (queued) inside this region.
    pub spawned: u64,
    /// Deferred tasks of this region executed so far, including the region
    /// root itself.
    pub executed: u64,
    /// Spawns of this region run inline because the region's own
    /// [`RegionBudget`](crate::RegionBudget) tripped. Always zero for
    /// unbudgeted regions, however greedy their siblings are — that is the
    /// isolation the per-region budget buys.
    pub serialized: u64,
    /// Task bodies of this region that did **not** run because the region
    /// was cancelled: spawns suppressed at creation plus already-queued
    /// tasks dispatched with their closure discarded. Skipped tasks still
    /// perform full bookkeeping (dependency release, group leave, record
    /// reclaim), so a cancelled region drains rather than leaks.
    pub skipped_tasks: u64,
    /// Spawns run inline because the region was admitted in shed mode
    /// (the runtime was over its in-flight watermark at submit time).
    pub shed: u64,
    /// Was the region cancelled (explicitly or by its deadline)?
    pub cancelled: bool,
    /// Where record-and-replay stood at snapshot time: recording its first
    /// run under a shape token, replaying the frozen graph, diverged back
    /// to live registration, or not submitted through the replay API at
    /// all. See [`Runtime::submit_replay`](crate::Runtime::submit_replay).
    pub replay: ReplayPhase,
}

/// The descriptor free list: one Treiber shard per worker, submitter-hashed
/// on lease, with the same ABA-free swap-drain pop as the injector (the
/// swapped-out chain is exclusively owned, so re-publishing the remainder
/// is a plain push). Descriptors are never freed while the runtime lives:
/// `all` owns every descriptor ever created and frees them on drop,
/// including leases that were deliberately never returned.
pub(crate) struct RegionPool {
    shards: Box<[CacheAligned<AtomicPtr<Region>>]>,
    /// Every descriptor ever allocated (cold path; guarded by a mutex).
    all: Mutex<Vec<NonNull<Region>>>,
    /// Team size, for constructing fresh descriptors.
    workers: usize,
}

// Safety: shards are atomics; `all` is mutex-guarded; `Region` is Sync.
unsafe impl Send for RegionPool {}
unsafe impl Sync for RegionPool {}

impl RegionPool {
    pub(crate) fn new(workers: usize) -> RegionPool {
        RegionPool {
            shards: (0..workers.max(1))
                .map(|_| CacheAligned::default())
                .collect(),
            all: Mutex::new(Vec::new()),
            workers,
        }
    }

    /// Leases a descriptor, reset and armed with `budget`. Returns the
    /// descriptor and whether it had to be freshly allocated (`true`) or
    /// came recycled from the free list (`false`).
    pub(crate) fn lease(&self, slot: usize, budget: RegionBudget) -> (NonNull<Region>, bool) {
        let (region, fresh) = match self.pop(slot) {
            Some(r) => (r, false),
            None => {
                let r = NonNull::from(Box::leak(Box::new(Region::new(self.workers))));
                self.all.lock().unwrap_or_else(|e| e.into_inner()).push(r);
                (r, true)
            }
        };
        // Safety: popped or fresh — either way exclusively ours.
        unsafe { region.as_ref().reset(budget) };
        (region, fresh)
    }

    /// Returns a descriptor to the free list. The caller must be completely
    /// done with it: the next `lease` may hand it to another submitter.
    pub(crate) fn release(&self, region: NonNull<Region>, slot: usize) {
        let shard = &self.shards[slot % self.shards.len()].0;
        let mut head = shard.load(Ordering::Relaxed);
        loop {
            unsafe { region.as_ref().next.store(head, Ordering::Relaxed) };
            match shard.compare_exchange_weak(
                head,
                region.as_ptr(),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(cur) => head = cur,
            }
        }
    }

    /// Pops one free descriptor, probing shards from `slot`. ABA-free: the
    /// whole shard chain is swapped out (exclusively owned thereafter), the
    /// head is kept, and the remainder is spliced back with a push-side CAS.
    fn pop(&self, slot: usize) -> Option<NonNull<Region>> {
        let n = self.shards.len();
        for k in 0..n {
            let shard = &self.shards[(slot + k) % n].0;
            let head = NonNull::new(shard.swap(std::ptr::null_mut(), Ordering::Acquire));
            let Some(head) = head else { continue };
            let rest = unsafe { head.as_ref() }.next.load(Ordering::Relaxed);
            if let Some(rest) = NonNull::new(rest) {
                // Walk to the chain's tail, then splice the remainder under
                // whatever has been pushed meanwhile.
                let mut tail = rest;
                while let Some(next) =
                    NonNull::new(unsafe { tail.as_ref() }.next.load(Ordering::Relaxed))
                {
                    tail = next;
                }
                let mut cur = shard.load(Ordering::Relaxed);
                loop {
                    unsafe { tail.as_ref().next.store(cur, Ordering::Relaxed) };
                    match shard.compare_exchange_weak(
                        cur,
                        rest.as_ptr(),
                        Ordering::Release,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(now) => cur = now,
                    }
                }
            }
            return Some(head);
        }
        None
    }

    /// Free descriptors currently pooled (diagnostics/tests only; racy).
    #[cfg(test)]
    pub(crate) fn free_len(&self) -> usize {
        let mut n = 0;
        for shard in self.shards.iter() {
            let mut cur = shard.0.load(Ordering::Acquire);
            while let Some(r) = NonNull::new(cur) {
                n += 1;
                cur = unsafe { r.as_ref() }.next.load(Ordering::Relaxed);
            }
        }
        n
    }
}

impl Drop for RegionPool {
    fn drop(&mut self) {
        // Owns every descriptor ever created, leased-and-forgotten ones
        // included (their memory stayed valid precisely because of this).
        let all = std::mem::take(&mut *self.all.lock().unwrap_or_else(|e| e.into_inner()));
        for region in all {
            drop(unsafe { Box::from_raw(region.as_ptr()) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegionBudget;

    #[test]
    fn panic_slot_keeps_first_payload() {
        let region = Region::new(2);
        assert!(region.take_panic().is_none());
        region.store_panic(Box::new("first"));
        region.store_panic(Box::new("second"));
        let got = region.take_panic().expect("payload stored");
        assert_eq!(*got.downcast_ref::<&str>().unwrap(), "first");
        assert!(region.take_panic().is_none(), "take drains the slot");
    }

    #[test]
    fn stats_sum_across_shards() {
        let region = Region::new(3);
        region.shard(0).spawned.store(5, Ordering::Relaxed);
        region.shard(2).spawned.store(7, Ordering::Relaxed);
        region.shard(1).executed.store(11, Ordering::Relaxed);
        region.shard(2).serialized.store(3, Ordering::Relaxed);
        let s = region.stats();
        assert_eq!(s.spawned, 12);
        assert_eq!(s.executed, 11);
        assert_eq!(s.serialized, 3);
    }

    #[test]
    fn result_round_trips_inline_and_spilled() {
        let region = Region::new(1);
        assert!(!region.result_written());
        let spilled = unsafe { region.store_result(41u64) };
        assert!(!spilled, "a u64 result stays inline");
        assert!(region.result_written());
        assert_eq!(unsafe { region.take_result::<u64>() }, 41);
        assert!(!region.result_written());

        let big = [7u8; 200];
        let spilled = unsafe { region.store_result(big) };
        assert!(spilled, "a 200-byte result spills");
        assert_eq!(unsafe { region.take_result::<[u8; 200]>() }, big);
    }

    #[test]
    fn completion_fires_registered_waker_once() {
        let region = Region::new(1);
        // Nothing registered: complete() returns None, later registration
        // hands the completion straight back.
        assert!(region.complete().is_none());
        let returned = region.register_completion(Completion::Detached(Box::new(|| {})));
        assert!(
            matches!(returned, Some(Completion::Detached(_))),
            "registration after completion must bounce back to the caller"
        );
    }

    #[test]
    fn registration_before_completion_is_taken_by_complete() {
        let region = Region::new(1);
        let fired = std::sync::Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        assert!(region
            .register_completion(Completion::Detached(Box::new(move || {
                f.store(true, Ordering::Relaxed)
            })))
            .is_none());
        match region.complete() {
            Some(Completion::Detached(cb)) => cb(),
            other => panic!(
                "expected the registered callback, got {:?}",
                other.is_some()
            ),
        }
        assert!(fired.load(Ordering::Relaxed));
    }

    #[test]
    fn budget_trips_on_own_queue_only() {
        let region = Region::new(2);
        unsafe { region.reset(RegionBudget::MaxQueued(4)) };
        assert!(!region.budget_trips());
        region.queued_delta(0, 3);
        assert!(!region.budget_trips());
        region.queued_delta(1, 1);
        assert!(region.budget_trips());
        region.queued_delta(0, -2);
        assert!(!region.budget_trips());
    }

    #[test]
    fn adaptive_budget_hysteresis() {
        let region = Region::new(1);
        unsafe { region.reset(RegionBudget::Adaptive { low: 2, high: 6 }) };
        region.queued_delta(0, 7);
        assert!(region.budget_trips(), "above high: serialise");
        region.queued_delta(0, -3); // 4: between low and high
        assert!(region.budget_trips(), "hysteresis holds until low");
        region.queued_delta(0, -3); // 1: below low
        assert!(!region.budget_trips(), "below low: defer again");
    }

    #[test]
    fn pool_recycles_descriptors() {
        let pool = RegionPool::new(2);
        let (a, fresh) = pool.lease(0, RegionBudget::Inherit);
        assert!(fresh, "empty pool allocates");
        let (b, fresh) = pool.lease(0, RegionBudget::Inherit);
        assert!(fresh);
        assert_ne!(a.as_ptr(), b.as_ptr());
        pool.release(a, 0);
        let (a2, fresh) = pool.lease(0, RegionBudget::MaxQueued(1));
        assert!(!fresh, "released descriptor must be recycled");
        assert_eq!(a2.as_ptr(), a.as_ptr());
        pool.release(a2, 0);
        pool.release(b, 1);
        assert_eq!(pool.free_len(), 2);
        // Drop frees everything (asan/miri would flag a double- or no-free).
    }

    #[test]
    fn pool_pop_republishes_remainder() {
        let pool = RegionPool::new(1);
        let leased: Vec<_> = (0..4)
            .map(|_| pool.lease(0, RegionBudget::Inherit).0)
            .collect();
        for &r in &leased {
            pool.release(r, 0);
        }
        assert_eq!(pool.free_len(), 4);
        let (_one, fresh) = pool.lease(0, RegionBudget::Inherit);
        assert!(!fresh);
        assert_eq!(pool.free_len(), 3, "pop takes exactly one descriptor");
    }
}
