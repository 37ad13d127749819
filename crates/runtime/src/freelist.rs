//! The runtime's one recycling primitive. Task records, fibers, taskgroup
//! and worksharing-loop descriptors and dependency blocks/nodes/entries
//! all cycle through it, so a warm steady state allocates nothing and the
//! protocol is linted and model-checked once.
//!
//! * [`FreeList`] — a `local` list only its *owner* pops and pushes (plain
//!   loads and stores), plus a `reclaim` Treiber stack any thread may push
//!   onto. When `local` runs dry the owner takes the whole reclaim stack
//!   with one Acquire swap.
//! * [`ShardedPool`] — one cache-aligned [`FreeList`] per worker plus a
//!   registry of every chunk ever carved, freed when the pool drops. Each
//!   item records its **home** shard, and [`ShardedPool::release`] pushes
//!   locally when the releasing worker is the home and onto the home's
//!   reclaim stack otherwise — so a frame that suspended on one worker and
//!   resumed on another returns its descriptor without ever touching a
//!   shard's owner half from the wrong thread.
//!
//! The region-descriptor pool is not built on this: any client thread may
//! lease from it, which needs a multi-consumer pop ([`crate::region`]).

use std::cell::Cell;
use std::mem::MaybeUninit;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

use crate::local::CacheAligned;

/// The `worker` argument of a release from a thread that owns no shard of
/// the pool (a region joiner, a dependency retire): always a reclaim push.
pub(crate) const REMOTE: usize = usize::MAX;

/// An item a [`FreeList`] can hold.
///
/// # Safety
/// `link` must return a field that nothing but the pool touches while the
/// item is free, and `home` must return the shard index the item was
/// carved for ([`fresh`](Self::fresh)'s `home`) for the item's whole life.
pub(crate) unsafe trait Pooled: Sized {
    /// Construction argument shared by every item of one pool.
    type Arg: Copy;

    /// Initialises a freshly carved slot (valid, uninitialised memory) as
    /// an item homed on `home`.
    unsafe fn fresh(slot: *mut Self, home: usize, arg: Self::Arg);

    /// The intrusive free-list link.
    fn link(&self) -> &AtomicPtr<Self>;

    /// The shard that owns this item.
    fn home(&self) -> usize;

    /// Frees whatever a carved slot owns beyond its own memory, once per
    /// slot when the pool drops; the slot is never used again.
    unsafe fn teardown(_slot: *mut Self) {}
}

/// Owner-exclusive free list plus cross-thread reclaim stack.
struct FreeList<T: Pooled> {
    local: Cell<*mut T>,
    reclaim: AtomicPtr<T>,
}

impl<T: Pooled> FreeList<T> {
    /// Pops one free item: the local list first; when it is dry, the
    /// whole reclaim stack becomes the local list.
    ///
    /// # Safety
    /// Owner only.
    #[inline]
    unsafe fn pop(&self) -> Option<NonNull<T>> {
        let mut head = NonNull::new(self.local.get());
        if head.is_none() {
            // A delay here holds the owner between its dry local list and
            // the reclaim swap while remote frees keep landing.
            crate::bots_failpoint!("slab_drain");
            head = NonNull::new(self.reclaim.swap(std::ptr::null_mut(), Ordering::Acquire));
        }
        let head = head?;
        // relaxed-ok: the local list is owner-only (its links were written
        // by this thread), and a chain taken by the Acquire swap above is
        // exclusively ours; either way nothing else can change the link.
        self.local.set(head.as_ref().link().load(Ordering::Relaxed));
        Some(head)
    }

    /// Returns an item to the local list.
    ///
    /// # Safety
    /// Owner only; `item` is free and belongs to this list.
    #[inline]
    unsafe fn push(&self, item: NonNull<T>) {
        // relaxed-ok: owner-only list; a free item is unreachable to any
        // other thread.
        item.as_ref()
            .link()
            .store(self.local.get(), Ordering::Relaxed);
        self.local.set(item.as_ptr());
    }

    /// Returns an item from any thread: pushes it onto the reclaim stack
    /// for the owner to take.
    ///
    /// # Safety
    /// `item` is free and belongs to this list.
    unsafe fn push_remote(&self, item: NonNull<T>) {
        crate::bots_failpoint!("slab_free_remote");
        // relaxed-ok: `head` is only the CAS expectation; a stale read
        // fails the CAS and retries with the witnessed value.
        let mut head = self.reclaim.load(Ordering::Relaxed);
        loop {
            // relaxed-ok: the link is published by the Release CAS below;
            // the owner's Acquire swap is the only reader.
            item.as_ref().link().store(head, Ordering::Relaxed);
            // The remote-free linearization point.
            crate::bots_failpoint!("slab_reclaim_cas");
            // transition: reclaim: head -> item (the item re-enters its
            // home list; Release publishes the link and the item's final
            // state to the owner's Acquire swap).
            match self.reclaim.compare_exchange_weak(
                head,
                item.as_ptr(),
                Ordering::Release,
                Ordering::Relaxed, // relaxed-ok: failure path only retries
            ) {
                Ok(_) => return,
                Err(cur) => head = cur,
            }
        }
    }
}

/// One [`FreeList`] per worker, routed by each item's home, plus the
/// chunk registry that owns the items' memory. See the module docs.
pub(crate) struct ShardedPool<T: Pooled> {
    shards: Box<[CacheAligned<FreeList<T>>]>,
    /// Items carved per fresh chunk (the pool-growth granularity).
    chunk: usize,
    arg: T::Arg,
    /// Every chunk ever carved (cold; freed on drop).
    chunks: Mutex<Vec<Box<[MaybeUninit<T>]>>>,
}

// Safety: each shard's `local` half is only touched by its owner (the
// `unsafe` contracts on `lease`/`release`), the reclaim stacks are built
// for cross-thread pushes (items change threads, hence `T: Send`), and
// the registry is mutex-guarded. The teardown in `Drop` happens-after
// every user has finished.
unsafe impl<T: Pooled + Send> Send for ShardedPool<T> where T::Arg: Send {}
unsafe impl<T: Pooled + Send> Sync for ShardedPool<T> where T::Arg: Sync {}

impl<T: Pooled> ShardedPool<T> {
    /// A pool of `shards` free lists, growing `chunk` items at a time.
    pub(crate) fn new(shards: usize, chunk: usize, arg: T::Arg) -> Self {
        ShardedPool {
            shards: (0..shards.max(1))
                .map(|_| {
                    CacheAligned(FreeList {
                        local: Cell::new(std::ptr::null_mut()),
                        reclaim: AtomicPtr::new(std::ptr::null_mut()),
                    })
                })
                .collect(),
            chunk: chunk.max(1),
            arg,
            chunks: Mutex::new(Vec::new()),
        }
    }

    /// Leases an item homed on `worker`. Returns it and whether a fresh
    /// chunk had to be carved (`true`) rather than a free item recycled.
    /// A recycled item holds whatever its last user left in it.
    ///
    /// # Safety
    /// Only shard `worker`'s owner may call this.
    #[inline]
    pub(crate) unsafe fn lease(&self, worker: usize) -> (NonNull<T>, bool) {
        match self.shards[worker].0.pop() {
            Some(item) => (item, false),
            None => (self.grow(worker), true),
        }
    }

    /// Returns an item to its home shard: onto the local list when
    /// `worker` (the caller's own shard index, or [`REMOTE`]) is the home,
    /// onto the home's reclaim stack otherwise. Returns `true` for the
    /// cross-thread push.
    ///
    /// # Safety
    /// `item` came from this pool and is no longer used by anyone; the
    /// caller owns shard `worker` (if any).
    #[inline]
    pub(crate) unsafe fn release(&self, item: NonNull<T>, worker: usize) -> bool {
        let home = item.as_ref().home();
        let shard = &self.shards[home].0;
        if home == worker {
            shard.push(item);
            false
        } else {
            shard.push_remote(item);
            true
        }
    }

    /// Carves a fresh chunk homed on `worker`: the first item is returned,
    /// the rest seed the (empty) local list in address order.
    ///
    /// # Safety
    /// Shard `worker`'s owner only.
    #[cold]
    unsafe fn grow(&self, worker: usize) -> NonNull<T> {
        let mut chunk: Box<[MaybeUninit<T>]> =
            (0..self.chunk).map(|_| MaybeUninit::uninit()).collect();
        let base = chunk.as_mut_ptr().cast::<T>();
        for i in 0..self.chunk {
            T::fresh(base.add(i), worker, self.arg);
        }
        let shard = &self.shards[worker].0;
        for i in (1..self.chunk).rev() {
            shard.push(NonNull::new_unchecked(base.add(i)));
        }
        self.chunks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(chunk);
        NonNull::new_unchecked(base)
    }

    /// Items ever carved: the pool's high-water mark, for leak checks.
    pub(crate) fn created(&self) -> usize {
        self.chunks.lock().unwrap_or_else(|e| e.into_inner()).len() * self.chunk
    }

    /// Free items over every shard, local and reclaim halves
    /// (diagnostics).
    ///
    /// # Safety
    /// No concurrent lease or release.
    #[cfg(any(test, feature = "modelcheck"))]
    pub(crate) unsafe fn free_len(&self) -> usize {
        let heads = self
            .shards
            .iter()
            .flat_map(|s| [s.0.local.get(), s.0.reclaim.load(Ordering::Acquire)]);
        let mut n = 0;
        for mut cur in heads {
            while let Some(item) = NonNull::new(cur) {
                n += 1;
                // relaxed-ok: quiescent walk (caller contract).
                cur = item.as_ref().link().load(Ordering::Relaxed);
            }
        }
        n
    }
}

impl<T: Pooled> Drop for ShardedPool<T> {
    fn drop(&mut self) {
        for chunk in self.chunks.get_mut().unwrap_or_else(|e| e.into_inner()) {
            for slot in chunk.iter_mut() {
                unsafe { T::teardown(slot.as_mut_ptr()) };
            }
        }
    }
}
