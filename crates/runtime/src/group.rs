//! Pooled `taskgroup` descriptors: the last per-construct heap allocation
//! on the region hot path, eliminated.
//!
//! A [`Group`] is the membership counter behind [`Scope::taskgroup`]: every
//! task spawned while the group is active joins it (transitively), and the
//! group wait blocks until the count drains. It used to live behind an
//! `Arc<Group>` — one `malloc` per `taskgroup`, which is one per *frame* in
//! every recursive BOTS kernel, so no kernel body was actually
//! allocation-free. Groups are now plain descriptors recycled through the
//! runtime's per-worker pool ([`crate::freelist`]): a steady-state
//! `taskgroup` touches no allocator at all.
//!
//! ## Lifetime protocol (who frees, and why it is sound)
//!
//! The descriptor's lease is owned by the **waiting frame**, not by the
//! members:
//!
//! * [`Scope::taskgroup`] leases a descriptor, runs the body, waits for
//!   `outstanding() == 0`, and only then returns the lease — on unwind as
//!   well (a guard drains the group before the frame's locals, which
//!   members may borrow, are popped).
//! * Members hold a **raw pointer**, not a counted reference. A member only
//!   dereferences it while it is still a member: `join()` happens on the
//!   spawning thread before the parent's own `leave()` (so the count can
//!   never transiently drain under a live subtree), and `leave()` — a
//!   single atomic RMW — is the member's *last* access. The waiter cannot
//!   observe zero, and therefore cannot recycle the descriptor, before
//!   that final RMW has completed.
//!
//! This sidesteps the hazard a member-frees design would have (the waiter
//! still reading `outstanding()` after the zero transition, the same race
//! the region completion slot has to gate on): here the reader *is* the
//! owner, and the ex-member never looks back. The post-`leave()`
//! completion wake goes through the team-wide progress channel, which does
//! not touch the group.
//!
//! The wait may suspend on one worker and resume on another, so the lease
//! is not always returned on the worker that took it: the descriptor
//! records its `home` shard, and the release routes it there (through the
//! home's reclaim stack from any other worker). The pool owns every
//! descriptor ever created and frees them when the team shuts down.
//!
//! [`Scope::taskgroup`]: crate::Scope::taskgroup

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

use crate::cont::Continuation;
use crate::freelist::Pooled;

/// A `taskgroup` membership counter: counts every task spawned while the
/// group is active, transitively. The group wait blocks until it drains —
/// this is the *deep* wait OpenMP 3.1's `taskgroup` provides, and it is
/// what makes borrowing the spawning frame's locals sound (the frame
/// cannot be left while group members still run).
pub(crate) struct Group {
    /// Pool free-list link. Only touched while the descriptor is free (the
    /// waiter has observed `outstanding() == 0` and returned the lease), so
    /// it cannot race with live-group use.
    next: AtomicPtr<Group>,
    /// The pool shard this descriptor belongs to (immutable).
    home: u16,
    members: AtomicUsize,
    /// Cooperative `cancel taskgroup` flag: raised by
    /// [`Scope::cancel_group`](crate::Scope::cancel_group), observed by
    /// members' spawns (suppressed) and poll points. Reset at lease time.
    cancelled: AtomicBool,
    /// The group wait's suspended [`Continuation`], when the waiting frame
    /// parked instead of pinning its worker. Claimed (swapped out) either
    /// by the member whose `leave()` drained the group or by the waiter
    /// unregistering after a successful recheck — the swap is the
    /// exclusive wake ticket. The drain claim leaves the [`CLAIMED`]
    /// sentinel behind as a rendezvous: the lease owner must observe it
    /// before recycling the descriptor, because the draining member's
    /// claim is its true final access (after the `leave()` RMW).
    ///
    /// The lease owner is itself a member (joined at lease time, left at
    /// the top of the wait), so the count reaches zero **exactly once**
    /// per lease and at most one drain claim can ever be in flight.
    waiter: AtomicPtr<u8>,
}

/// Rendezvous sentinel the drain claim swaps into the waiter slot.
const CLAIMED: usize = 1;

// Safety: `next` is only the pool's while the descriptor is free, and
// `home` is immutable after `fresh`.
unsafe impl Pooled for Group {
    type Arg = ();

    unsafe fn fresh(slot: *mut Self, home: usize, _: ()) {
        slot.write(Group {
            next: AtomicPtr::new(std::ptr::null_mut()),
            home: home as u16,
            members: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            waiter: AtomicPtr::new(std::ptr::null_mut()),
        });
    }

    fn link(&self) -> &AtomicPtr<Self> {
        &self.next
    }

    fn home(&self) -> usize {
        self.home as usize
    }
}

impl Group {
    /// Raises the group's cancel flag; returns `true` on the transition.
    #[inline]
    pub(crate) fn cancel(&self) -> bool {
        // relaxed-ok: monotone advisory flag; cancellation is cooperative
        // and carries no data, so no ordering is required.
        !self.cancelled.swap(true, Ordering::Relaxed)
    }

    /// Has this taskgroup been cancelled? Monotone flag, Relaxed is
    /// enough (the group drain supplies the synchronisation).
    #[inline]
    pub(crate) fn is_cancelled(&self) -> bool {
        // relaxed-ok: monotone advisory flag, see `cancel`.
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Re-arms a just-leased descriptor (exclusive: the pool only hands
    /// out drained descriptors, and the lease owner calls this before any
    /// member can join).
    #[inline]
    pub(crate) fn reset(&self) {
        // relaxed-ok: exclusive access — the pool only hands out drained
        // descriptors and no member has joined yet; the lease owner's
        // later `join()` (AcqRel) orders these writes for members.
        self.cancelled.store(false, Ordering::Relaxed);
        debug_assert!(
            // relaxed-ok: exclusive access during reset, see above.
            self.waiter.load(Ordering::Relaxed).is_null(),
            "a group was recycled with a registered waiter"
        );
        // relaxed-ok: exclusive access during reset, see above.
        self.waiter.store(std::ptr::null_mut(), Ordering::Relaxed);
    }

    /// Registers the group wait's suspending continuation. SeqCst for the
    /// same store-buffering reason as the taskwait slot: the registration
    /// must be globally ordered against the waiter's `outstanding()`
    /// recheck and a leaving member's `leave`/`claim_waiter` pair.
    ///
    /// Returns `false` when the zero-driving member's drain claim landed
    /// between the waiter's `outstanding()` read and this registration:
    /// the group is already drained, no wake is coming, and the [`CLAIMED`]
    /// stamp must stay in the slot for `await_drain_claim` — a blind swap
    /// here would destroy the rendezvous and hang the lease return.
    #[inline]
    pub(crate) fn try_register_waiter(&self, cont: NonNull<Continuation>) -> bool {
        // transition: group.waiter: null -> cont (waiter registered; a
        // CLAIMED sentinel already in the slot refuses the registration).
        match self.waiter.compare_exchange(
            std::ptr::null_mut(),
            cont.as_ptr().cast(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => true,
            Err(prev) => {
                debug_assert_eq!(prev as usize, CLAIMED, "group waiter slot was occupied");
                false
            }
        }
    }

    /// The drain claim: called exactly once per drained lease, by the
    /// member whose [`leave`](Self::leave) returned `true`. Swaps the
    /// [`CLAIMED`] rendezvous sentinel in and returns the registered
    /// waiter, if any — the exclusive wake ticket.
    #[inline]
    pub(crate) fn claim_waiter(&self) -> Option<NonNull<Continuation>> {
        // The drain-claim window: between the zero-driving `leave()` and
        // this swap the waiter may register, recheck, or unregister.
        crate::bots_failpoint!("group_claim");
        let prev = self.waiter.swap(CLAIMED as *mut u8, Ordering::SeqCst);
        debug_assert_ne!(prev as usize, CLAIMED, "double drain claim on one lease");
        NonNull::new(prev.cast())
    }

    /// Waiter-side unregistration after a successful condition recheck:
    /// takes the registration back if the drain claim has not fired yet.
    /// Returns the continuation when the waiter got itself back (no wake
    /// will arrive); `None` means the claim won and a wake (token or
    /// queued resume) is in flight for this registration.
    #[inline]
    pub(crate) fn unregister_waiter(&self, cont: NonNull<Continuation>) -> bool {
        let prev = self.waiter.swap(std::ptr::null_mut(), Ordering::SeqCst);
        if prev as usize == CLAIMED {
            // Preserve the rendezvous for `await_drain_claim`.
            // relaxed-ok: once CLAIMED is in the slot the drainer is done
            // with it; only this thread (the lease owner) reads it again.
            self.waiter.store(CLAIMED as *mut u8, Ordering::Relaxed);
            return false;
        }
        debug_assert_eq!(prev.cast::<Continuation>(), cont.as_ptr().cast());
        true
    }

    /// Rendezvous with the draining member before the lease is recycled.
    /// Call only when some *other* member's `leave()` drained the group
    /// (the owner's own leave was not last): that member will perform its
    /// drain claim — possibly *after* the waiter already observed
    /// `outstanding() == 0`. Spinning until the [`CLAIMED`] sentinel
    /// appears guarantees the drainer's last access to this descriptor
    /// has happened before it is reused. The window is two instructions
    /// wide on the drainer; the spin is effectively instant.
    #[inline]
    pub(crate) fn await_drain_claim(&self) {
        while self.waiter.load(Ordering::Acquire) as usize != CLAIMED {
            std::hint::spin_loop();
        }
        // relaxed-ok: the Acquire load above synchronised with the
        // drainer's final access; the slot is now exclusively ours.
        self.waiter.store(std::ptr::null_mut(), Ordering::Relaxed);
    }

    /// Registers one member. Called on the spawning thread *before* the
    /// spawner's own `leave()` can run, so the count never transiently
    /// drains while the subtree is still growing.
    #[inline]
    pub(crate) fn join(&self) {
        self.members.fetch_add(1, Ordering::AcqRel);
    }

    /// Leaves the group; returns `true` when this was the last member out
    /// (the transition a group waiter needs to be woken for). This RMW is
    /// the member's **final access** to the descriptor: the moment it
    /// completes, the waiter may observe zero and recycle the lease.
    #[inline]
    pub(crate) fn leave(&self) -> bool {
        // Fault injection inside the member's final-access window: a delay
        // here widens the race against the waiter's zero observation.
        crate::bots_failpoint!("group_leave");
        // SeqCst (not AcqRel): globally ordered against the leaver's
        // `claim_waiter` read and the waiter's register/recheck pair.
        self.members.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Outstanding members. Only the lease-owning waiter may call this (a
    /// non-owner has no liveness guarantee to read through). SeqCst so the
    /// recheck after `register_waiter` cannot float above the registration.
    #[inline]
    pub(crate) fn outstanding(&self) -> usize {
        self.members.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freelist::ShardedPool;

    fn pool(workers: usize) -> ShardedPool<Group> {
        ShardedPool::new(workers, 1, ())
    }

    #[test]
    fn join_leave_counts_members() {
        let pool = pool(1);
        let (g, fresh) = unsafe { pool.lease(0) };
        assert!(fresh);
        let g = unsafe { g.as_ref() };
        g.join();
        g.join();
        assert_eq!(g.outstanding(), 2);
        assert!(!g.leave());
        assert!(g.leave(), "last leaver reports the zero transition");
        assert_eq!(g.outstanding(), 0);
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
            // A frame that migrated to worker 1 returns worker 0's
            // descriptor through shard 0's reclaim stack.
            assert!(pool.release(b, 1));
            assert_eq!(pool.free_len(), 2);
        }
        // Drop frees everything (asan/miri would flag a double- or no-free).
    }

    #[test]
    fn lease_pops_exactly_one() {
        let pool = pool(1);
        unsafe {
            let leased: Vec<_> = (0..4).map(|_| pool.lease(0).0).collect();
            for &g in &leased {
                pool.release(g, 0);
            }
            assert_eq!(pool.free_len(), 4);
            let (_one, fresh) = pool.lease(0);
            assert!(!fresh);
            assert_eq!(pool.free_len(), 3, "pop takes exactly one descriptor");
        }
    }

    /// The register/claim race: the zero-driving member's drain claim can
    /// land between the waiter's `outstanding()` read and its
    /// registration. Registration must then back off and leave the
    /// CLAIMED rendezvous in the slot — overwriting it would hang the
    /// lease owner's `await_drain_claim` spin.
    #[test]
    fn raced_registration_preserves_the_drain_claim() {
        let pool = pool(1);
        let (g, _) = unsafe { pool.lease(0) };
        let g_ref = unsafe { g.as_ref() };
        let cont = NonNull::<Continuation>::dangling();
        // Clean slot: registration wins, take-back returns it.
        assert!(g_ref.try_register_waiter(cont));
        assert!(g_ref.unregister_waiter(cont));
        // Claim first (member drained the group), then the raced
        // registration: it must refuse and keep CLAIMED in place.
        assert!(g_ref.claim_waiter().is_none());
        assert!(!g_ref.try_register_waiter(cont));
        g_ref.await_drain_claim();
        unsafe { pool.release(g, 0) };
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
