//! Task records as [`Pooled`] items: the allocation side of the
//! zero-allocation spawn fast path. A spawn pops a record from its
//! worker's shard of the team's [`ShardedPool`](crate::freelist::ShardedPool)
//! — a plain pointer pop, no `malloc`. A record freed anywhere but its home
//! worker (a thief ran it, a release cascade or a region joiner dropped
//! it) goes onto the home shard's reclaim stack. Fresh records are carved
//! [`RuntimeConfig::record_chunk`] at a time (one 64-record chunk is
//! 8 KiB). The link is [`TaskRecord::next`], touched by the pool only while
//! the record is free.
//!
//! [`RuntimeConfig::record_chunk`]: crate::RuntimeConfig::record_chunk

use std::ptr::NonNull;
use std::sync::atomic::AtomicPtr;

use crate::freelist::Pooled;
use crate::task::{TaskAttrs, TaskRecord};

// Safety: `next` is only the pool's while the record is free, and `home`
// is written at carve time and rewritten only by `TaskRecord::init` with
// the leasing worker's index — the shard the record was carved for.
unsafe impl Pooled for TaskRecord {
    type Arg = ();

    unsafe fn fresh(slot: *mut Self, home: usize, _: ()) {
        // A rootless placeholder; every lease re-initialises the record.
        let slot = NonNull::new_unchecked(slot);
        TaskRecord::init(
            slot,
            None,
            None,
            std::ptr::null(),
            home as u16,
            TaskAttrs::default(),
        );
    }

    #[inline]
    fn link(&self) -> &AtomicPtr<Self> {
        &self.next
    }

    #[inline]
    fn home(&self) -> usize {
        self.home as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freelist::{ShardedPool, REMOTE};
    use std::sync::Arc;

    /// One worker's record pool, carving `chunk` records at a time.
    fn slab(chunk: usize) -> ShardedPool<TaskRecord> {
        ShardedPool::new(1, chunk, ())
    }

    /// Leases `n` records the owner expects to come recycled.
    unsafe fn take_recycled(slab: &ShardedPool<TaskRecord>, n: usize) -> Vec<NonNull<TaskRecord>> {
        (0..n)
            .map(|_| {
                let (r, fresh) = slab.lease(0);
                assert!(!fresh);
                r
            })
            .collect()
    }

    /// Leases a record and runs it through a real (rootless) lifecycle up
    /// to its final release; returns its address for another thread.
    unsafe fn spent_record(slab: &ShardedPool<TaskRecord>) -> (usize, bool) {
        let (r, fresh) = slab.lease(0);
        TaskRecord::init(r, None, None, std::ptr::null(), 0, TaskAttrs::default());
        assert_eq!(r.as_ref().release_ref(), 1);
        (r.as_ptr() as usize, fresh)
    }

    #[test]
    fn alloc_recycles_after_free() {
        let slab = slab(4);
        unsafe {
            let (a, fresh) = slab.lease(0);
            assert!(fresh);
            // The rest of the chunk is on the free list already.
            let b = take_recycled(&slab, 1)[0];
            slab.release(a, 0);
            let a2 = take_recycled(&slab, 1)[0];
            assert_eq!(a2.as_ptr(), a.as_ptr(), "LIFO reuse of the last free");
            slab.release(a2, 0);
            slab.release(b, 0);
        }
    }

    #[test]
    fn grow_threads_whole_chunk() {
        let slab = slab(8);
        unsafe {
            let (first, fresh) = slab.lease(0);
            assert!(fresh);
            assert_eq!(slab.free_len(), 7);
            // Drain the rest of the chunk without touching the heap.
            let rest = take_recycled(&slab, 7);
            assert_eq!(slab.free_len(), 0);
            assert!(slab.lease(0).1, "second chunk after exhaustion");
            for r in rest.into_iter().chain([first]) {
                slab.release(r, 0);
            }
        }
        assert_eq!(slab.created(), 16);
    }

    #[test]
    fn remote_frees_flow_back_to_owner() {
        let slab = Arc::new(slab(2));
        let records: Vec<usize> = (0..8).map(|_| unsafe { spent_record(&slab) }.0).collect();
        // Four remote threads free two records each.
        let handles: Vec<_> = records
            .chunks(2)
            .map(|pair| {
                let (slab, pair) = (slab.clone(), pair.to_vec());
                std::thread::spawn(move || {
                    for p in pair {
                        let rec = NonNull::new(p as *mut TaskRecord).unwrap();
                        assert!(unsafe { slab.release(rec, REMOTE) });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Owner drains the reclaim stack: all 8 come back recycled.
        unsafe {
            for r in take_recycled(&slab, 8) {
                slab.release(r, 0);
            }
        }
        assert_eq!(slab.created(), 8);
    }

    /// Interleaved producer/consumer on the reclaim stack: a remote thread
    /// pushes frees *while* the owner keeps allocating and draining. The
    /// pool must stay bounded — the owner's fresh-chunk fallback only fires
    /// when both lists are momentarily empty, never because reclaimed
    /// records were lost.
    #[test]
    fn reclaim_stack_interleaves_with_alloc() {
        const CYCLES: usize = 10_000;
        const CHUNK: usize = 4;
        // Bound in-flight records so the fresh-allocation count is provably
        // small: the owner can only be starved of `IN_FLIGHT` records plus
        // whatever sits unseen in the reclaim stack for one probe.
        const IN_FLIGHT: usize = 8;
        let slab = Arc::new(slab(CHUNK));
        let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(IN_FLIGHT);
        let remote = {
            let slab = slab.clone();
            std::thread::spawn(move || {
                let mut freed = 0;
                for p in rx {
                    unsafe { slab.release(NonNull::new(p as *mut TaskRecord).unwrap(), REMOTE) };
                    freed += 1;
                }
                freed
            })
        };
        let mut fresh = 0usize;
        for _ in 0..CYCLES {
            // Safety: this thread plays the owner for the whole test.
            let (rec, carved) = unsafe { spent_record(&slab) };
            fresh += carved as usize;
            tx.send(rec).unwrap();
        }
        drop(tx);
        assert_eq!(remote.join().unwrap(), CYCLES);
        // Every record the owner was ever starved into creating is bounded
        // by the in-flight window (rounded up to whole chunks), not by the
        // cycle count: reclaimed records really do come back.
        let bound = (IN_FLIGHT + 1) * CHUNK + CHUNK;
        assert!(
            fresh <= bound,
            "fresh grew to {fresh} (bound {bound}) over {CYCLES} cycles"
        );
        // And after the dust settles, everything is back in the pool.
        assert_eq!(unsafe { slab.free_len() }, slab.created());
    }
}
