//! Model-checking surface: thin, documented wrappers re-exposing the
//! runtime's internal lock-free protocol types so `crates/modelcheck` can
//! drive them under a deterministic virtual scheduler.
//!
//! Only compiled with `--features modelcheck` (which implies
//! `failpoints`, so every protocol's `bots_failpoint!` sites are live and
//! the harness can install a [schedule hook](crate::failpoint::set_schedule_hook)
//! to own each interleaving decision). `crates/modelcheck` is excluded
//! from the workspace default-members precisely so this feature — and the
//! failpoint instrumentation it implies — can never unify into a tier-1
//! or benchmarked build.
//!
//! The wrappers are handles, not abstractions: each method is a direct
//! call into the same code path production uses, so an interleaving the
//! explorer enumerates here is an interleaving the real runtime can
//! execute. Task records are surfaced as opaque [`Rec`] handles (the
//! record's address) so scenarios can assert set-equality invariants —
//! no record lost, none duplicated — without touching record internals.

use std::mem::MaybeUninit;
use std::ptr::NonNull;

use crate::cont::Continuation;
use crate::deps::{DepAccess, DepBlock, DepClause, DepTracker};
use crate::freelist::ShardedPool;
use crate::group::Group;
use crate::injector::Injector as RawInjector;
use crate::task::{TaskAttrs, TaskRecord, HOME_BOXED};

/// Opaque handle to a heap-boxed [`TaskRecord`]: the record's address,
/// stable for the record's whole life, usable as a set-membership key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rec(usize);

impl Rec {
    fn ptr(self) -> NonNull<TaskRecord> {
        NonNull::new(self.0 as *mut TaskRecord).expect("null Rec handle")
    }

    /// The record's address, for trace labels.
    pub fn addr(self) -> usize {
        self.0
    }
}

/// Boxes and initialises one task record (refcount 1, no parent, no
/// body). Free it with [`free_record`] exactly once, after it has left
/// every queue.
pub fn new_record() -> Rec {
    let slot = NonNull::new(Box::into_raw(Box::new(MaybeUninit::<TaskRecord>::uninit())))
        .unwrap()
        .cast::<TaskRecord>();
    unsafe {
        TaskRecord::init(
            slot,
            None,
            None,
            std::ptr::null(),
            HOME_BOXED,
            TaskAttrs::tied(),
        )
    };
    Rec(slot.as_ptr() as usize)
}

/// Releases the final reference and frees a record made by
/// [`new_record`]. Panics if anything else still holds a reference.
pub fn free_record(rec: Rec) {
    let rec = rec.ptr();
    assert_eq!(unsafe { rec.as_ref() }.release_ref(), 1);
    unsafe {
        drop(Box::from_raw(
            rec.as_ptr().cast::<MaybeUninit<TaskRecord>>(),
        ))
    };
}

/// The sharded lock-free injector (swap-drain protocol). See
/// `crate::injector` for the protocol description.
pub struct Injector(RawInjector);

impl Injector {
    /// One shard per worker.
    pub fn new(workers: usize) -> Injector {
        Injector(RawInjector::new(workers))
    }

    /// Pushes a record onto the shard for `slot`. Transfers the record's
    /// queue handle to the injector.
    pub fn push(&self, rec: Rec, slot: usize) {
        self.0.push(rec.ptr(), slot);
    }

    /// Pops the oldest root from the first non-empty shard from `start`.
    pub fn pop(&self, start: usize) -> Option<Rec> {
        self.0.pop(start).map(|p| Rec(p.as_ptr() as usize))
    }

    /// Lock-free idle probe.
    pub fn is_probably_empty(&self) -> bool {
        self.0.is_probably_empty()
    }
}

/// The task-record pool (`crate::freelist` over `crate::slab` records):
/// one shard per worker, releases routed by each record's home.
pub struct Slab(ShardedPool<TaskRecord>);

impl Slab {
    /// `workers` shards, carving `chunk_records` records per fresh chunk.
    pub fn new(workers: usize, chunk_records: usize) -> Slab {
        Slab(ShardedPool::new(workers, chunk_records, ()))
    }

    /// Leases and initialises one record homed on `worker`; `true` means
    /// it came recycled (local list or reclaim stack) rather than fresh.
    ///
    /// # Safety
    /// Only the virtual thread playing worker `worker`.
    pub unsafe fn alloc_init(&self, worker: usize) -> (Rec, bool) {
        let (rec, fresh) = self.0.lease(worker);
        TaskRecord::init(
            rec,
            None,
            None,
            std::ptr::null(),
            worker as u16,
            TaskAttrs::tied(),
        );
        (Rec(rec.as_ptr() as usize), !fresh)
    }

    /// Releases the record's reference and returns it from worker
    /// `worker`; `true` means it went onto the home's reclaim stack.
    ///
    /// # Safety
    /// Only the virtual thread playing worker `worker`.
    pub unsafe fn release(&self, rec: Rec, worker: usize) -> bool {
        assert_eq!(rec.ptr().as_ref().release_ref(), 1);
        self.0.release(rec.ptr(), worker)
    }
}

/// A dependency clause for [`Deps::register`].
#[derive(Debug, Clone, Copy)]
pub struct Clause(DepClause);

/// `depend(in: addr)`.
pub fn dep_read(addr: usize) -> Clause {
    Clause(DepClause {
        addr,
        access: DepAccess::Read,
    })
}

/// `depend(out: addr)` / `depend(inout: addr)`.
pub fn dep_write(addr: usize) -> Clause {
    Clause(DepClause {
        addr,
        access: DepAccess::Write,
    })
}

/// The per-region dependency tracker (CLOSED-swap release protocol). See
/// `crate::deps`.
pub struct Deps(DepTracker);

impl Default for Deps {
    fn default() -> Self {
        Self::new()
    }
}

impl Deps {
    /// An empty tracker.
    pub fn new() -> Deps {
        Deps(DepTracker::new())
    }

    /// Registers `rec`'s clauses atomically; `true` means the task is
    /// immediately ready (no unretired predecessor), `false` means it is
    /// Deferred and will be handed to some predecessor's retire sink.
    ///
    /// Careful: registration holds the tracker's map mutex across the
    /// `dep_edge_cas` yield point — scenarios must not run two virtual
    /// registrants concurrently or the harness deadlocks on a lock the
    /// scheduler cannot see. Retires are lock-free and race freely.
    pub fn register(&self, rec: Rec, clauses: &[Clause]) -> bool {
        let raw: Vec<DepClause> = clauses.iter().map(|c| c.0).collect();
        unsafe { self.0.register(rec.ptr(), &raw) }
    }

    /// Retires `rec` (its body finished): closes the successor list and
    /// hands every task this retire released to `sink`.
    pub fn retire(&self, rec: Rec, mut sink: impl FnMut(Rec)) {
        let block: NonNull<DepBlock> = unsafe { rec.ptr().as_ref() }
            .take_dep_state()
            .expect("retire on a record with no dep state")
            .cast();
        unsafe { self.0.retire(block, |r| sink(Rec(r.as_ptr() as usize))) };
    }

    /// Drops every entry and recycles all pool items (the region
    /// re-lease path).
    pub fn reset(&self) {
        self.0.reset();
    }
}

/// A fake waiter token for [`GroupRef`] registration calls: a non-null,
/// non-CLAIMED pointer value the protocol stores but never dereferences.
/// Distinct ids give distinct tokens.
pub fn waiter_token(id: usize) -> usize {
    // The CLAIMED sentinel is 1; stay clear of 0 and 1 and keep pointer
    // alignment plausible.
    (id + 2) * 128
}

/// Borrowed handle to a pooled [`Group`] descriptor (compares by address).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GroupRef(NonNull<Group>);

// SAFETY: every `Group` field is an atomic; the methods documented as
// owner-only are serialized by the scenario script under the virtual
// scheduler, exactly as the lease owner serializes them in production.
unsafe impl Send for GroupRef {}
unsafe impl Sync for GroupRef {}

impl GroupRef {
    fn g(&self) -> &Group {
        unsafe { self.0.as_ref() }
    }

    /// Registers one member.
    pub fn join(&self) {
        self.g().join();
    }

    /// Leaves; `true` on the zero transition (caller must then
    /// [`claim_waiter`](Self::claim_waiter) exactly once).
    pub fn leave(&self) -> bool {
        self.g().leave()
    }

    /// Outstanding members (lease owner only).
    pub fn outstanding(&self) -> usize {
        self.g().outstanding()
    }

    /// Registers a waiter token; `false` means the drain claim already
    /// landed (CLAIMED stays in the slot).
    pub fn try_register_waiter(&self, token: usize) -> bool {
        self.g()
            .try_register_waiter(NonNull::new(token as *mut Continuation).expect("zero token"))
    }

    /// The drain claim: swaps CLAIMED in, returns the registered token.
    pub fn claim_waiter(&self) -> Option<usize> {
        self.g().claim_waiter().map(|p| p.as_ptr() as usize)
    }

    /// Takes a registration back; `false` means the claim won.
    pub fn unregister_waiter(&self, token: usize) -> bool {
        self.g()
            .unregister_waiter(NonNull::new(token as *mut Continuation).expect("zero token"))
    }

    /// Spins until the drain claim's CLAIMED stamp lands, then clears it.
    /// NOT a yield point: the stamp is at most two instructions away on
    /// the draining thread, and scenarios must schedule the drainer to
    /// completion before (or while) calling this.
    pub fn await_drain_claim(&self) {
        self.g().await_drain_claim();
    }

    /// Re-arms a just-leased descriptor.
    pub fn reset(&self) {
        self.g().reset();
    }
}

/// The taskgroup descriptor pool: one shard per worker, releases routed by
/// each descriptor's home. See `crate::group` and `crate::freelist`.
pub struct Groups(ShardedPool<Group>);

impl Groups {
    /// One shard per worker.
    pub fn new(workers: usize) -> Groups {
        Groups(ShardedPool::new(workers, 1, ()))
    }

    /// Leases a descriptor homed on `worker`; `true` = freshly allocated.
    ///
    /// # Safety
    /// Only the virtual thread playing worker `worker`.
    pub unsafe fn lease(&self, worker: usize) -> (GroupRef, bool) {
        let (g, fresh) = self.0.lease(worker);
        (GroupRef(g), fresh)
    }

    /// Returns a drained descriptor from worker `worker`, which need not
    /// be its home; `true` = routed onto the home's reclaim stack.
    ///
    /// # Safety
    /// Only the virtual thread playing worker `worker`.
    pub unsafe fn release(&self, group: GroupRef, worker: usize) -> bool {
        self.0.release(group.0, worker)
    }

    /// Descriptors ever created.
    pub fn created(&self) -> usize {
        self.0.created()
    }

    /// Free descriptors over every shard, both halves.
    ///
    /// # Safety
    /// No concurrent lease or release.
    pub unsafe fn free_len(&self) -> usize {
        self.0.free_len()
    }
}
