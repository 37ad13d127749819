//! Pooled worksharing-loop descriptors: team-wide chunk dispatch without
//! one task record per chunk.
//!
//! A generator-task loop (`parallel_for`'s `Tasks` mode) pays a pooled
//! [`TaskRecord`](crate::task::TaskRecord) per chunk — cheap, but on
//! fine-grained loops the per-chunk spawn/dispatch protocol dominates the
//! body. The worksharing mode (Maroñas et al., *Worksharing Tasks*)
//! publishes **one** descriptor for the whole iteration space and lets the
//! participating workers *claim* grain-sized strides off a shared atomic
//! cursor: the per-chunk cost collapses to one `fetch_add`, and the number
//! of task records is bounded by the team size (one helper task per
//! worker), not by the chunk count.
//!
//! ## Claim protocol
//!
//! [`WsLoop::claim`] is one unconditional `fetch_add(grain)` on the
//! cursor; a claimer whose start lands at or past `end` observes the loop
//! as drained and stops. The cursor may overshoot `end` by at most
//! `participants × grain` — bounded, because every participant stops at
//! its first failed claim — and overshoot is harmless: indices past `end`
//! are never executed. A claimed `[lo, hi)` chunk is executed by exactly
//! one participant (fetch_add hands out disjoint strides), which is the
//! exactly-once property the loop proptest pins down.
//!
//! All descriptor accesses are `Relaxed`: the descriptor and the borrowed
//! loop body are published to helpers through the deque push of the
//! participant tasks (a release/acquire edge the work-stealing protocol
//! already provides), and the owner's closing `taskwait` orders every
//! helper's last access before the lease is returned.
//!
//! ## Lifetime protocol
//!
//! The lease is owned by the **generating frame** ([`Scope::for_each`]
//! with `LoopMode::Worksharing`): it arms the descriptor, spawns the
//! helper tasks (which hold raw pointers, never counted references),
//! participates itself, and returns the lease only after its `taskwait`
//! has observed every helper's completion — on unwind too, via a guard
//! that drains the helpers before the frame's locals (which the body
//! borrows) are popped. This is the [`crate::group`] protocol verbatim:
//! the waiter is the owner, and an ex-participant never looks back. Like a
//! group, the descriptor records its `home` pool shard, because the
//! generating frame's drain can suspend and resume on another worker.
//!
//! [`Scope::for_each`]: crate::Scope::for_each

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use crate::freelist::Pooled;

/// The signature every erased loop body is invoked through: `(body, lo,
/// hi, scope)` runs iterations `lo..hi` of the borrowed body against the
/// participant's scope. Monomorphised per body type in `scope.rs` and
/// stored type-erased in the descriptor.
pub(crate) type ChunkInvoke = unsafe fn(*const (), usize, usize, *const ());

/// One worksharing loop: the whole iteration space as a single shared
/// descriptor, claimed in grain-sized strides by the participating
/// workers.
pub(crate) struct WsLoop {
    /// Pool free-list link. Only touched while the descriptor is free (the
    /// owner has drained its helpers and returned the lease), so it cannot
    /// race with live-loop use.
    next: AtomicPtr<WsLoop>,
    /// The pool shard this descriptor belongs to (immutable).
    home: u16,
    /// Next unclaimed iteration index. The only contended word; lives in
    /// its own descriptor so claims from different loops never false-share.
    cursor: AtomicUsize,
    /// One past the last iteration index.
    end: AtomicUsize,
    /// Stride handed out per claim. Invariant: non-zero while armed.
    grain: AtomicUsize,
    /// The borrowed loop body, type-erased (`*const F`). Valid for the
    /// whole arm→drain window: the owner's frame keeps `F` alive until
    /// every participant has finished.
    body: AtomicPtr<()>,
    /// The monomorphised trampoline for `body`, stored as a bare pointer
    /// (`ChunkInvoke` transmuted) so the descriptor stays type-free.
    invoke: AtomicPtr<()>,
}

// Safety: `next` is only the pool's while the descriptor is free, and
// `home` is immutable after `fresh`.
unsafe impl Pooled for WsLoop {
    type Arg = ();

    unsafe fn fresh(slot: *mut Self, home: usize, _: ()) {
        slot.write(WsLoop::new(home));
    }

    fn link(&self) -> &AtomicPtr<Self> {
        &self.next
    }

    fn home(&self) -> usize {
        self.home as usize
    }
}

impl WsLoop {
    fn new(home: usize) -> WsLoop {
        WsLoop {
            next: AtomicPtr::new(std::ptr::null_mut()),
            home: home as u16,
            cursor: AtomicUsize::new(0),
            end: AtomicUsize::new(0),
            grain: AtomicUsize::new(1),
            body: AtomicPtr::new(std::ptr::null_mut()),
            invoke: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Arms a just-leased descriptor for one loop (exclusive: the pool
    /// only hands out drained descriptors, and the owner arms before any
    /// helper is spawned — the helpers' deque push is the publication
    /// edge, so plain `Relaxed` stores suffice here).
    pub(crate) fn arm(
        &self,
        start: usize,
        end: usize,
        grain: usize,
        body: *const (),
        invoke: ChunkInvoke,
    ) {
        debug_assert!(grain > 0, "worksharing grain must be positive");
        self.cursor.store(start, Ordering::Relaxed);
        self.end.store(end, Ordering::Relaxed);
        self.grain.store(grain, Ordering::Relaxed);
        self.body.store(body.cast_mut(), Ordering::Relaxed);
        // A fn pointer is thin; round-trip through `*mut ()` for storage.
        self.invoke.store(invoke as *mut (), Ordering::Relaxed);
    }

    /// Claims the next grain-sized chunk, or `None` once the space is
    /// drained. One unconditional `fetch_add` — see the module docs for
    /// the (bounded, harmless) overshoot analysis.
    #[inline]
    pub(crate) fn claim(&self) -> Option<(usize, usize)> {
        // Fault injection at the claim edge: a delay/yield here perturbs
        // which participant wins which stride.
        crate::bots_failpoint!("loop_claim");
        let grain = self.grain.load(Ordering::Relaxed);
        let end = self.end.load(Ordering::Relaxed);
        let lo = self.cursor.fetch_add(grain, Ordering::Relaxed);
        if lo >= end {
            None
        } else {
            Some((lo, (lo + grain).min(end)))
        }
    }

    /// Runs one claimed chunk through the armed trampoline. Caller (a
    /// participant) guarantees the descriptor is still armed — i.e. the
    /// owner's frame, which keeps the body alive, has not been left.
    #[inline]
    pub(crate) unsafe fn run_chunk(&self, lo: usize, hi: usize, scope: *const ()) {
        let body = self.body.load(Ordering::Relaxed).cast_const();
        let invoke = self.invoke.load(Ordering::Relaxed);
        debug_assert!(!invoke.is_null(), "chunk run on an unarmed loop descriptor");
        let invoke: ChunkInvoke = std::mem::transmute(invoke);
        invoke(body, lo, hi, scope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freelist::ShardedPool;

    unsafe fn count_invoke(body: *const (), lo: usize, hi: usize, _scope: *const ()) {
        let sum = &*(body as *const AtomicUsize);
        for i in lo..hi {
            sum.fetch_add(i, Ordering::Relaxed);
        }
    }

    #[test]
    fn claims_cover_the_space_exactly_once() {
        let l = WsLoop::new(0);
        let sum = AtomicUsize::new(0);
        l.arm(
            0,
            100,
            7,
            &sum as *const AtomicUsize as *const (),
            count_invoke,
        );
        let mut chunks = 0;
        while let Some((lo, hi)) = l.claim() {
            assert!(lo < hi && hi <= 100);
            unsafe { l.run_chunk(lo, hi, std::ptr::null()) };
            chunks += 1;
        }
        assert_eq!(chunks, 100usize.div_ceil(7));
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<usize>());
        assert!(l.claim().is_none(), "a drained loop stays drained");
    }

    #[test]
    fn empty_space_yields_no_chunks() {
        let l = WsLoop::new(0);
        let sum = AtomicUsize::new(0);
        l.arm(
            5,
            5,
            4,
            &sum as *const AtomicUsize as *const (),
            count_invoke,
        );
        assert!(l.claim().is_none());
        assert_eq!(sum.load(Ordering::Relaxed), 0);
    }

    fn pool(workers: usize) -> ShardedPool<WsLoop> {
        ShardedPool::new(workers, 1, ())
    }

    #[test]
    fn lease_recycles_released_descriptors() {
        let pool = pool(2);
        unsafe {
            let (a, fresh) = pool.lease(0);
            assert!(fresh, "empty pool allocates");
            let (b, fresh) = pool.lease(0);
            assert!(fresh);
            assert_ne!(a.as_ptr(), b.as_ptr());
            pool.release(a, 0);
            let (a2, fresh) = pool.lease(0);
            assert!(!fresh, "released descriptor must be recycled");
            assert_eq!(a2.as_ptr(), a.as_ptr());
            pool.release(a2, 0);
            // A migrated generating frame returns the lease home.
            assert!(pool.release(b, 1));
            assert_eq!(pool.free_len(), 2);
        }
    }

    #[test]
    fn shards_do_not_alias_across_workers() {
        let pool = pool(2);
        unsafe {
            let (a, _) = pool.lease(0);
            pool.release(a, 0);
            // Worker 1's shard is empty: it allocates fresh rather than
            // raid worker 0's shard (per-worker population stays local).
            let (b, fresh) = pool.lease(1);
            assert!(fresh);
            assert_ne!(a.as_ptr(), b.as_ptr());
            pool.release(b, 1);
        }
    }
}
