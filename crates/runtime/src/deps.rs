//! The task-dependency subsystem: OpenMP 4.0-style `depend(in/out/inout)`
//! clauses underneath the [`TaskBuilder`] spawn API.
//!
//! BOTS predates OpenMP 4.0, so its kernels over-synchronise with
//! `taskwait` barriers: SparseLU stalls every outer iteration on two full
//! barriers even though only a sparse subset of `bmod` blocks depends on
//! each `fwd`/`bdiv`. A depend clause lets a kernel express *which* tasks
//! wait instead of *everyone* waiting: a task declaring `in(&x)` runs
//! after the last task that declared `out(&x)`, and a task declaring
//! `out(&x)` runs after the last writer *and* every reader registered
//! since — the classic last-writer / reader-set protocol, keyed by
//! **object address** (identity, never dereferenced).
//!
//! ## Shape
//!
//! One [`DepTracker`] lives in every pooled region descriptor
//! ([`crate::region`]), so dependences are region-scoped: concurrent
//! regions using the same addresses never interact, and the tracker's
//! pools come back warm when the descriptor is re-leased. Inside a
//! tracker:
//!
//! * the **address map** — one mutex-guarded open-chained hash table of
//!   [`ObjEntry`]s (last-writer block + reader list per address);
//! * **dep blocks** ([`DepBlock`]) — one per *task spawned with clauses*:
//!   the release counter (`pending`), the successor list (`succ`), and the
//!   back-pointer to the task record. Carried by the record in its
//!   intrusive `next` link (unused while a non-root record is live — see
//!   [`TaskRecord::set_dep_state`]);
//! * **dep nodes** ([`DepNode`]) — the list cells of reader sets and
//!   successor lists.
//!
//! A task's **whole clause list registers atomically** under the map
//! mutex. This is what makes the declared graph acyclic even with
//! concurrent registrants: registrations are totally ordered by the lock,
//! and every edge points from an earlier registrant to a later one. (A
//! per-clause locking scheme — one shard lock per clause — admits the
//! interleaving T1:apply(A), T2:apply(B), T1:apply(B), T2:apply(A), a
//! mutual-wait cycle that deadlocks the region; the
//! `opposite_clause_orders_cannot_cycle` and
//! `concurrent_registrants_never_cycle` tests pin the property down.)
//! Concurrent registrants serialise on the mutex; the common kernels
//! register from a single generator, where the lock is uncontended.
//!
//! Blocks, nodes and entries are recycled through one-shard free-list
//! pools ([`crate::freelist`]): a local list popped/pushed only under the
//! map mutex (registration and reset, the only allocating paths, hold it
//! anyway), plus a lock-free reclaim stack for the retire path's
//! cross-thread frees, adopted whole (one swap) when the local list runs
//! dry — so a **warm dependency chain
//! performs zero heap allocations** (asserted end to end by
//! `tests/zero_alloc.rs`) and recycling stays O(1) however large the pool
//! grows (a splice-back pop here was measurably quadratic on long
//! chains).
//!
//! ## The Deferred state and release-on-exit
//!
//! Registration pushes one edge onto each unretired predecessor's
//! successor list and counts it in the task's own `pending`. `pending`
//! starts at 1 — a registration guard — so a predecessor retiring
//! mid-registration can never release the task early. When the guard is
//! dropped:
//!
//! * `pending == 0` → the task is **ready**: the spawner pushes it on its
//!   deque like any plain spawn;
//! * `pending > 0` → the task is **Deferred**: its record is held back —
//!   in no deque, visible to no thief — until its predecessors retire.
//!
//! A completing task *retires* on the task-exit path of
//! [`crate::pool::WorkerCtx::execute`], **without touching the map or its
//! lock**: one atomic swap closes its successor list (the `CLOSED`
//! sentinel turns future edge attempts into no-ops), and the completing
//! worker walks the drained list, decrementing each successor's
//! `pending`; a successor hitting zero is pushed on the **retiring
//! worker's own deque** — no extra threads, releases ride the same
//! deque/wake machinery as spawns.
//!
//! Tasks *without* clauses never touch any of this: the dep-free spawn
//! path is completely unchanged (and lock-free).
//!
//! ## Liveness of block pointers
//!
//! Entries and edges hold raw block pointers. Blocks are refcounted: one
//! reference for the task itself (dropped at retire) and one per entry
//! mention (writer slot or reader node, dropped when a later writer
//! displaces the mention, or at tracker reset). Successor-list edges do
//! *not* hold references: an edge exists only while the successor is
//! unreleased, the successor cannot retire — let alone die — before its
//! final `pending` decrement, and that decrement is the predecessor's last
//! access. The tracker is reset when its region descriptor is re-leased,
//! which happens-after region quiescence, so reset never races live tasks.
//!
//! [`TaskBuilder`]: crate::TaskBuilder
//! [`TaskRecord::set_dep_state`]: crate::task::TaskRecord

use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::freelist::{Pooled, ShardedPool, REMOTE};
use crate::task::TaskRecord;

/// Initial bucket count of the address map (first use only; the map
/// doubles past a 0.75 load factor and keeps its capacity across leases).
const INITIAL_BUCKETS: usize = 64;

/// Items carved per fresh pool chunk.
const POOL_CHUNK: usize = 64;

/// Multiplicative (Fibonacci) address hash. Only the *high* bits of the
/// product are well-mixed; index with [`bucket_of`], never the low bits.
fn addr_hash(addr: usize) -> u64 {
    (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Bucket index for `hash` in a power-of-two table of `len` buckets: a
/// bit window ending at bit 52, well clear of the low product bits. Low
/// bits depend only on low address bits, so stride-allocated tokens —
/// e.g. SparseLU's consecutive 16-byte-apart slots — would cluster into a
/// fraction of the buckets and inflate every chain walk under the map
/// lock; the bit-52 window spreads power-of-two strides from 8 to 4096
/// over the table (asserted by
/// `stride_allocated_addresses_spread_across_buckets`).
fn bucket_of(hash: u64, len: usize) -> usize {
    debug_assert!(len.is_power_of_two());
    ((hash >> (52 - len.trailing_zeros())) as usize) & (len - 1)
}

/// The `succ`-list sentinel marking a retired task: edges can no longer be
/// added, the predecessor is gone. Never dereferenced (a dangling
/// well-aligned marker, distinguishable from both null and real nodes).
fn closed() -> *mut DepNode {
    std::ptr::dangling_mut::<u8>().cast()
}

/// How a clause accesses its object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum DepAccess {
    /// `depend(in: x)` — runs after the last writer of `x`.
    #[default]
    Read,
    /// `depend(out: x)` / `depend(inout: x)` — runs after the last writer
    /// *and* every reader registered since.
    Write,
}

/// One `depend` clause: an object address (identity only) plus the access.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DepClause {
    pub(crate) addr: usize,
    pub(crate) access: DepAccess,
}

/// Per-task dependency state: the release counter, the successor list and
/// the record to enqueue on release. Pooled; pointed to by the record's
/// intrusive `next` link for the task's whole life.
pub(crate) struct DepBlock {
    /// Pool free-list link. Only touched while the block is free.
    pool: AtomicPtr<DepBlock>,
    /// Liveness: 1 for the task itself + 1 per entry mention.
    refs: AtomicUsize,
    /// Unretired predecessors + the registration guard. The task is held
    /// back (Deferred) until this reaches zero.
    pending: AtomicUsize,
    /// Successors to release at retire ([`DepNode`] list), or [`closed`].
    succ: AtomicPtr<DepNode>,
    /// The task to enqueue when `pending` drains. Valid until the task
    /// executes, which cannot happen before the release that reads it.
    rec: Cell<*mut TaskRecord>,
    /// Frozen-graph index while a recording is in flight (set under the
    /// map mutex by the recording registration; meaningless otherwise).
    idx: Cell<u32>,
}

impl Default for DepBlock {
    fn default() -> Self {
        DepBlock {
            pool: AtomicPtr::new(std::ptr::null_mut()),
            refs: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            succ: AtomicPtr::new(std::ptr::null_mut()),
            rec: Cell::new(std::ptr::null_mut()),
            idx: Cell::new(0),
        }
    }
}

/// A list cell: one reader-set member or one successor edge.
pub(crate) struct DepNode {
    /// List link: reader list (under the map lock), successor list (CAS
    /// push / exclusive drain), or the pool free list.
    next: AtomicPtr<DepNode>,
    /// Reader lists: the reading task's block (holds a reference).
    /// Successor lists: the successor's block (no reference; see the
    /// module docs).
    block: Cell<*mut DepBlock>,
}

impl Default for DepNode {
    fn default() -> Self {
        DepNode {
            next: AtomicPtr::new(std::ptr::null_mut()),
            block: Cell::new(std::ptr::null_mut()),
        }
    }
}

/// One tracked object address: the last writer and the readers since.
/// Lives in the map's bucket chains; only touched under the map lock.
struct ObjEntry {
    /// Bucket chain link, or the pool free list.
    next: AtomicPtr<ObjEntry>,
    addr: Cell<usize>,
    /// Last task that declared a write on this address (owns a block ref).
    writer: Cell<*mut DepBlock>,
    /// Tasks that declared reads since the last writer ([`DepNode`] list;
    /// each node owns a block ref).
    readers: Cell<*mut DepNode>,
}

impl Default for ObjEntry {
    fn default() -> Self {
        ObjEntry {
            next: AtomicPtr::new(std::ptr::null_mut()),
            addr: Cell::new(0),
            writer: Cell::new(std::ptr::null_mut()),
            readers: Cell::new(std::ptr::null_mut()),
        }
    }
}

/// Implements [`Pooled`] for a dependency item: default-constructed,
/// linked through `$link`, and homed on the tracker's single shard.
macro_rules! pooled_dep_item {
    ($t:ty, $link:ident) => {
        // Safety: `$link` is only the pool's while the item is free (see
        // its field docs), and every item lives on shard 0.
        unsafe impl Pooled for $t {
            type Arg = ();
            unsafe fn fresh(slot: *mut Self, _home: usize, _: ()) {
                slot.write(<$t>::default());
            }
            fn link(&self) -> &AtomicPtr<Self> {
                &self.$link
            }
            fn home(&self) -> usize {
                0
            }
        }
    };
}
pooled_dep_item!(DepBlock, pool);
pooled_dep_item!(DepNode, next);
pooled_dep_item!(ObjEntry, next);

/// The address map: an open-chained hash table whose entries come from
/// the tracker's entry pool. Only touched under the tracker's mutex.
#[derive(Default)]
struct AddrMap {
    buckets: Vec<*mut ObjEntry>,
    len: usize,
}

// Safety: the raw pointers in the map target pool-owned entries whose
// memory outlives the tracker; the map itself is only accessed under its
// mutex.
unsafe impl Send for AddrMap {}

/// The per-region dependency tracker. See the module docs. The owner of
/// each pool's single shard is whichever thread holds the map mutex.
pub(crate) struct DepTracker {
    map: Mutex<AddrMap>,
    blocks: ShardedPool<DepBlock>,
    nodes: ShardedPool<DepNode>,
    entries: ShardedPool<ObjEntry>,
}

// Safety: the map is mutex-guarded and the pools' owner halves are only
// touched while holding that same mutex (see above); the reclaim stacks
// are lock-free structures over pool-owned memory, and the block/node
// protocols (module docs) govern the raw pointers that cross threads.
unsafe impl Send for DepTracker {}
unsafe impl Sync for DepTracker {}

impl DepTracker {
    pub(crate) fn new() -> DepTracker {
        DepTracker {
            map: Mutex::new(AddrMap::default()),
            blocks: ShardedPool::new(1, POOL_CHUNK, ()),
            nodes: ShardedPool::new(1, POOL_CHUNK, ()),
            entries: ShardedPool::new(1, POOL_CHUNK, ()),
        }
    }

    /// Registers `rec`'s depend clauses and attaches its dep block (through
    /// the record's intrusive link). The whole clause list registers
    /// atomically under the map mutex — the total registration order is
    /// what keeps every declared graph acyclic with concurrent
    /// registrants. Returns `true` when every predecessor has already
    /// retired — the caller must then queue the task itself — and `false`
    /// when the task is now **Deferred**: it will be queued by the
    /// retiring predecessor that drops its `pending` count to zero.
    ///
    /// # Safety
    /// `rec` must be a live, initialised, *unpublished* record (no queue
    /// holds it yet) with its closure already stored.
    pub(crate) unsafe fn register(&self, rec: NonNull<TaskRecord>, deps: &[DepClause]) -> bool {
        self.register_inner(rec, deps, None)
    }

    /// [`register`](Self::register), additionally mirroring the task and
    /// its *logical* edges into `recorder` (the region is executing its
    /// first run under a replay token — see [`crate::replay`]). Recorded
    /// under the map mutex so frozen indices follow the total registration
    /// order, which is what keeps every frozen edge pointing from a lower
    /// index to a higher one.
    ///
    /// # Safety
    /// As [`register`](Self::register); additionally every clause-carrying
    /// task of the region must register through this variant while the
    /// recording is in flight (edges are recorded against predecessor
    /// blocks' indices, which only this path assigns).
    pub(crate) unsafe fn register_recording(
        &self,
        rec: NonNull<TaskRecord>,
        deps: &[DepClause],
        recorder: &mut crate::replay::GraphRecorder,
    ) -> bool {
        self.register_inner(rec, deps, Some(recorder))
    }

    unsafe fn register_inner(
        &self,
        rec: NonNull<TaskRecord>,
        deps: &[DepClause],
        mut sink: Option<&mut crate::replay::GraphRecorder>,
    ) -> bool {
        debug_assert!(!deps.is_empty());
        let block;
        {
            let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            block = self.alloc_block(rec);
            if let Some(r) = sink.as_deref_mut() {
                block.as_ref().idx.set(r.begin_task());
                for clause in deps {
                    r.clause(clause);
                }
            }
            rec.as_ref().set_dep_state(block.cast());
            for clause in deps {
                self.apply(&mut map, block, clause, sink.as_deref_mut());
            }
        }
        // Drop the registration guard outside the lock. Release/Acquire
        // so the releasing side (whichever predecessor — or this very
        // decrement — takes pending to zero) observes the fully-stored
        // record and clauses.
        block.as_ref().pending.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Retires a completed task: closes its successor list and releases
    /// every successor whose last pending predecessor this was, handing
    /// each released record to `enqueue` (called on the retiring thread).
    /// Lock-free: never touches the map or its mutex.
    ///
    /// # Safety
    /// `block` must be the dep state registered for a task that has just
    /// finished executing on this thread; called exactly once per block.
    pub(crate) unsafe fn retire(
        &self,
        block: NonNull<DepBlock>,
        mut enqueue: impl FnMut(NonNull<TaskRecord>),
    ) {
        let b = block.as_ref();
        // A delay here holds the CLOSED-swap open while predecessors keep
        // pushing edges — the interleaving the protocol is built around.
        crate::bots_failpoint!("dep_retire");
        // Terminal close: later edge attempts see CLOSED and skip us.
        // Acquire pairs with the edge-push Release so the drain sees every
        // published node.
        let mut cur = b.succ.swap(closed(), Ordering::AcqRel);
        while let Some(node) = NonNull::new(cur) {
            let n = node.as_ref();
            // relaxed-ok: the AcqRel swap above drained the list
            // exclusively; its links can no longer change.
            cur = n.next.load(Ordering::Relaxed);
            let succ = n.block.get();
            self.nodes.release(node, REMOTE);
            // Safety: an unreleased successor's block is kept alive by the
            // successor itself (its own reference is dropped only at its
            // retire, which cannot precede this release).
            let s = &*succ;
            if s.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let rec = NonNull::new(s.rec.get()).expect("released dep task without a record");
                enqueue(rec);
            }
        }
        // The task's own reference; entry mentions may keep the block
        // alive (and pooled) until a later writer displaces them or the
        // tracker resets.
        if let Some(dead) = Self::unref_block(block.as_ptr()) {
            self.blocks.release(dead, REMOTE);
        }
    }

    /// Drops every entry, reader node and block reference, returning all
    /// pool items to their free lists. Called when the owning region
    /// descriptor is re-leased — exclusive by the lease protocol, and
    /// happens-after region quiescence, so no task is concurrently
    /// registering or retiring. Dep-free regions pay one uncontended lock
    /// and a length check.
    pub(crate) fn reset(&self) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len == 0 {
            return;
        }
        for slot in map.buckets.iter_mut() {
            let mut cur = std::mem::replace(slot, std::ptr::null_mut());
            while let Some(entry) = NonNull::new(cur) {
                let e = unsafe { entry.as_ref() };
                // relaxed-ok: bucket chains are only touched under the map
                // mutex, which this method holds.
                cur = e.next.load(Ordering::Relaxed);
                let w = e.writer.replace(std::ptr::null_mut());
                if !w.is_null() {
                    if let Some(dead) = Self::unref_block(w) {
                        unsafe { self.blocks.release(dead, 0) };
                    }
                }
                let mut r = e.readers.replace(std::ptr::null_mut());
                while let Some(node) = NonNull::new(r) {
                    let n = unsafe { node.as_ref() };
                    // relaxed-ok: reader lists are map-mutex-guarded.
                    r = n.next.load(Ordering::Relaxed);
                    if let Some(dead) = Self::unref_block(n.block.get()) {
                        unsafe { self.blocks.release(dead, 0) };
                    }
                    unsafe { self.nodes.release(node, 0) };
                }
                unsafe { self.entries.release(entry, 0) };
            }
        }
        map.len = 0;
    }

    /// Arms a pooled block for a fresh registration.
    ///
    /// # Safety
    /// Caller must hold the map mutex.
    unsafe fn alloc_block(&self, rec: NonNull<TaskRecord>) -> NonNull<DepBlock> {
        let block = self.blocks.lease(0).0;
        let b = block.as_ref();
        // relaxed-ok: the block is exclusively ours until registration
        // publishes it; the guard drop's AcqRel fetch_sub (and the map
        // mutex) order these initial stores for every later observer.
        b.refs.store(1, Ordering::Relaxed);
        // relaxed-ok: exclusive init, see above.
        b.pending.store(1, Ordering::Relaxed); // the registration guard
                                               // relaxed-ok: exclusive init, see above.
        b.succ.store(std::ptr::null_mut(), Ordering::Relaxed); // clear CLOSED
        b.rec.set(rec.as_ptr());
        block
    }

    /// Drops one block reference; returns the block when the caller took
    /// the last one and must route it back to a pool free list.
    fn unref_block(block: *mut DepBlock) -> Option<NonNull<DepBlock>> {
        // Safety: the caller owns one reference; Release/Acquire mirrors
        // Arc so the recycler observes every prior use.
        let b = unsafe { &*block };
        if b.refs.fetch_sub(1, Ordering::Release) == 1 {
            std::sync::atomic::fence(Ordering::Acquire);
            Some(unsafe { NonNull::new_unchecked(block) })
        } else {
            None
        }
    }

    /// Applies one clause: order this task after the entry's predecessors,
    /// then update the entry's writer/reader state. When a recording is in
    /// flight (`sink`), every *logical* edge is mirrored into it — at the
    /// [`edge`](Self::edge) call sites, not after the CLOSED check inside:
    /// an edge to an already-retired predecessor is a timing no-op live,
    /// but the frozen graph captures logical dependence, and in replay the
    /// predecessor's retire really does decrement it.
    ///
    /// # Safety
    /// Caller must hold the map mutex (`map` is its guard's contents).
    unsafe fn apply(
        &self,
        map: &mut AddrMap,
        block: NonNull<DepBlock>,
        clause: &DepClause,
        mut sink: Option<&mut crate::replay::GraphRecorder>,
    ) {
        let entry = self.lookup_or_insert(map, clause.addr);
        let e = unsafe { entry.as_ref() };
        let me = block.as_ptr();
        let my_idx = block.as_ref().idx.get();
        match clause.access {
            DepAccess::Read => {
                let w = e.writer.get();
                if w == me {
                    // Reading an address we already wrote: our own write
                    // clause orders us (and future writers) already.
                    return;
                }
                if !w.is_null() {
                    if let Some(r) = sink.as_deref_mut() {
                        r.edge(unsafe { &*w }.idx.get(), my_idx);
                    }
                    self.edge(unsafe { &*w }, block);
                }
                let node = self.nodes.lease(0).0;
                // relaxed-ok: ref increments need no ordering (Arc-style);
                // only the final decrement synchronises (Release + fence).
                unsafe { block.as_ref() }
                    .refs
                    .fetch_add(1, Ordering::Relaxed);
                let n = unsafe { node.as_ref() };
                n.block.set(me);
                // relaxed-ok: reader lists are map-mutex-guarded.
                n.next.store(e.readers.get(), Ordering::Relaxed);
                e.readers.set(node.as_ptr());
            }
            DepAccess::Write => {
                let w = e.writer.get();
                if w == me {
                    return;
                }
                if !w.is_null() {
                    if let Some(rec) = sink.as_deref_mut() {
                        rec.edge(unsafe { &*w }.idx.get(), my_idx);
                    }
                    self.edge(unsafe { &*w }, block);
                    if let Some(dead) = Self::unref_block(w) {
                        self.blocks.release(dead, 0);
                    }
                }
                // A writer follows every reader registered since the last
                // writer (write-after-read), and starts a fresh reader set.
                let mut r = e.readers.replace(std::ptr::null_mut());
                while let Some(node) = NonNull::new(r) {
                    let n = unsafe { node.as_ref() };
                    // relaxed-ok: reader lists are map-mutex-guarded.
                    r = n.next.load(Ordering::Relaxed);
                    let rb = n.block.get();
                    if rb != me {
                        if let Some(rec) = sink.as_deref_mut() {
                            rec.edge(unsafe { &*rb }.idx.get(), my_idx);
                        }
                        self.edge(unsafe { &*rb }, block);
                    }
                    if let Some(dead) = Self::unref_block(rb) {
                        self.blocks.release(dead, 0);
                    }
                    self.nodes.release(node, 0);
                }
                // relaxed-ok: ref increment, see the Read arm.
                unsafe { block.as_ref() }
                    .refs
                    .fetch_add(1, Ordering::Relaxed);
                e.writer.set(me);
            }
        }
    }

    /// Orders `succ` after `pred`: counts the edge in `succ.pending`
    /// *first* (so a concurrent retire cannot release early), then pushes
    /// it onto `pred`'s successor list; a predecessor that already retired
    /// (CLOSED) takes the count back — nothing to wait for.
    ///
    /// # Safety
    /// Caller must hold the map mutex (node allocation).
    unsafe fn edge(&self, pred: &DepBlock, succ: NonNull<DepBlock>) {
        let s = unsafe { succ.as_ref() };
        s.pending.fetch_add(1, Ordering::AcqRel);
        let node = self.nodes.lease(0).0;
        unsafe { node.as_ref() }.block.set(succ.as_ptr());
        let mut head = pred.succ.load(Ordering::Acquire);
        // The count-then-push window the protocol is built around: a
        // predecessor retiring here swaps in CLOSED and the push must
        // observe it and take the count back.
        crate::bots_failpoint!("dep_edge_cas");
        loop {
            if head == closed() {
                self.nodes.release(node, 0);
                // Cannot release the task: the registration guard in
                // `pending` holds until every clause is applied.
                s.pending.fetch_sub(1, Ordering::AcqRel);
                return;
            }
            // relaxed-ok: the edge node's link is published by the Release
            // CAS below; the retire drain's AcqRel swap is the only reader.
            unsafe { node.as_ref() }.next.store(head, Ordering::Relaxed);
            // transition: pred.succ: head -> node (edge published; racing
            // retire either drains it or this CAS fails on CLOSED).
            match pred.succ.compare_exchange_weak(
                head,
                node.as_ptr(),
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(cur) => head = cur,
            }
        }
    }

    /// Finds the entry for `addr` in the (locked) map, inserting a fresh
    /// pooled entry — growing the bucket table past a 0.75 load factor —
    /// when the address is new.
    ///
    /// # Safety
    /// Caller must hold the map mutex.
    unsafe fn lookup_or_insert(&self, map: &mut AddrMap, addr: usize) -> NonNull<ObjEntry> {
        if map.buckets.is_empty() {
            map.buckets = vec![std::ptr::null_mut(); INITIAL_BUCKETS];
        } else if map.len * 4 >= map.buckets.len() * 3 {
            Self::grow_buckets(map);
        }
        let idx = bucket_of(addr_hash(addr), map.buckets.len());
        let mut cur = map.buckets[idx];
        while let Some(entry) = NonNull::new(cur) {
            let e = unsafe { entry.as_ref() };
            if e.addr.get() == addr {
                return entry;
            }
            // relaxed-ok: bucket chains are map-mutex-guarded.
            cur = e.next.load(Ordering::Relaxed);
        }
        let entry = self.entries.lease(0).0;
        let e = unsafe { entry.as_ref() };
        e.addr.set(addr);
        e.writer.set(std::ptr::null_mut());
        e.readers.set(std::ptr::null_mut());
        // relaxed-ok: bucket chains are map-mutex-guarded.
        e.next.store(map.buckets[idx], Ordering::Relaxed);
        map.buckets[idx] = entry.as_ptr();
        map.len += 1;
        entry
    }

    #[cold]
    fn grow_buckets(map: &mut AddrMap) {
        let doubled = map.buckets.len() * 2;
        let old = std::mem::replace(&mut map.buckets, vec![std::ptr::null_mut(); doubled]);
        for mut cur in old {
            while let Some(entry) = NonNull::new(cur) {
                let e = unsafe { entry.as_ref() };
                // relaxed-ok: bucket chains are map-mutex-guarded.
                cur = e.next.load(Ordering::Relaxed);
                let idx = bucket_of(addr_hash(e.addr.get()), doubled);
                // relaxed-ok: bucket chains are map-mutex-guarded.
                e.next.store(map.buckets[idx], Ordering::Relaxed);
                map.buckets[idx] = entry.as_ptr();
            }
        }
    }

    /// Free pooled blocks currently recycled (tests only; racy).
    #[cfg(test)]
    fn pooled_blocks(&self) -> usize {
        unsafe { self.blocks.free_len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskAttrs, HOME_BOXED};
    use std::mem::MaybeUninit;

    fn boxed_record() -> NonNull<TaskRecord> {
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
                TaskAttrs::default(),
            )
        };
        slot
    }

    fn free_record(rec: NonNull<TaskRecord>) {
        assert_eq!(unsafe { rec.as_ref() }.release_ref(), 1);
        unsafe {
            drop(Box::from_raw(
                rec.as_ptr().cast::<MaybeUninit<TaskRecord>>(),
            ))
        };
    }

    fn block_of(rec: NonNull<TaskRecord>) -> NonNull<DepBlock> {
        unsafe { rec.as_ref() }
            .take_dep_state()
            .expect("dep state attached")
            .cast()
    }

    /// Retires `rec`'s block, collecting released records.
    fn retire_collect(t: &DepTracker, rec: NonNull<TaskRecord>) -> Vec<NonNull<TaskRecord>> {
        let mut out = Vec::new();
        unsafe { t.retire(block_of(rec), |r| out.push(r)) };
        out
    }

    const A: usize = 0x1000;
    const B: usize = 0x2000;

    fn write(addr: usize) -> DepClause {
        DepClause {
            addr,
            access: DepAccess::Write,
        }
    }

    fn read(addr: usize) -> DepClause {
        DepClause {
            addr,
            access: DepAccess::Read,
        }
    }

    #[test]
    fn chain_releases_in_order() {
        let t = DepTracker::new();
        let (r1, r2, r3) = (boxed_record(), boxed_record(), boxed_record());
        assert!(unsafe { t.register(r1, &[write(A)]) }, "no predecessor");
        assert!(!unsafe { t.register(r2, &[write(A)]) }, "waits for r1");
        assert!(!unsafe { t.register(r3, &[write(A)]) }, "waits for r2");
        let released = retire_collect(&t, r1);
        assert_eq!(released, vec![r2], "retiring r1 releases exactly r2");
        let released = retire_collect(&t, r2);
        assert_eq!(released, vec![r3]);
        assert!(retire_collect(&t, r3).is_empty());
        t.reset();
        for r in [r1, r2, r3] {
            free_record(r);
        }
    }

    #[test]
    fn readers_run_concurrently_and_gate_the_next_writer() {
        let t = DepTracker::new();
        let w1 = boxed_record();
        let (a, b) = (boxed_record(), boxed_record());
        let w2 = boxed_record();
        assert!(unsafe { t.register(w1, &[write(A)]) });
        assert!(!unsafe { t.register(a, &[read(A)]) });
        assert!(!unsafe { t.register(b, &[read(A)]) });
        assert!(!unsafe { t.register(w2, &[write(A)]) }, "w2 waits for all");
        // w1 retires: both readers release together (no serialisation).
        let released = retire_collect(&t, w1);
        assert_eq!(released.len(), 2);
        assert!(released.contains(&a) && released.contains(&b));
        // w2 needs *both* readers: one is not enough.
        assert!(retire_collect(&t, a).is_empty());
        assert_eq!(retire_collect(&t, b), vec![w2]);
        assert!(retire_collect(&t, w2).is_empty());
        t.reset();
        for r in [w1, a, b, w2] {
            free_record(r);
        }
    }

    #[test]
    fn diamond_fan_in() {
        // top writes A and B; left reads A writes A; right reads B writes
        // B; bottom reads both → waits for left and right.
        let t = DepTracker::new();
        let (top, left, right, bottom) = (
            boxed_record(),
            boxed_record(),
            boxed_record(),
            boxed_record(),
        );
        assert!(unsafe { t.register(top, &[write(A), write(B)]) });
        assert!(!unsafe { t.register(left, &[write(A)]) });
        assert!(!unsafe { t.register(right, &[write(B)]) });
        assert!(!unsafe { t.register(bottom, &[read(A), read(B)]) });
        let released = retire_collect(&t, top);
        assert_eq!(released.len(), 2);
        assert!(retire_collect(&t, left).is_empty(), "bottom still waits");
        assert_eq!(retire_collect(&t, right), vec![bottom]);
        assert!(retire_collect(&t, bottom).is_empty());
        t.reset();
        for r in [top, left, right, bottom] {
            free_record(r);
        }
    }

    #[test]
    fn registering_after_retire_is_ready() {
        let t = DepTracker::new();
        let r1 = boxed_record();
        assert!(unsafe { t.register(r1, &[write(A)]) });
        assert!(retire_collect(&t, r1).is_empty());
        // r1 retired but still the entry's last writer: the CLOSED succ
        // list makes the edge a no-op, so r2 is immediately ready.
        let r2 = boxed_record();
        assert!(unsafe { t.register(r2, &[read(A)]) });
        assert!(retire_collect(&t, r2).is_empty());
        t.reset();
        free_record(r1);
        free_record(r2);
    }

    #[test]
    fn in_and_out_on_the_same_address_is_one_task() {
        let t = DepTracker::new();
        let r1 = boxed_record();
        assert!(unsafe { t.register(r1, &[write(A), read(A), write(A)]) });
        let r2 = boxed_record();
        assert!(!unsafe { t.register(r2, &[write(A)]) });
        assert_eq!(retire_collect(&t, r1), vec![r2]);
        assert!(retire_collect(&t, r2).is_empty());
        t.reset();
        free_record(r1);
        free_record(r2);
    }

    /// The per-clause-locking cycle regression: T1 declares [A, B] and T2
    /// declares [B, A]. Because a task's whole clause list registers
    /// atomically, the later registrant depends on the earlier one on
    /// *both* addresses — duplicate edges, never a mutual wait — and the
    /// earlier one's retire releases it.
    #[test]
    fn opposite_clause_orders_cannot_cycle() {
        let t = DepTracker::new();
        let (r1, r2) = (boxed_record(), boxed_record());
        assert!(unsafe { t.register(r1, &[write(A), write(B)]) });
        assert!(!unsafe { t.register(r2, &[write(B), write(A)]) });
        assert_eq!(
            retire_collect(&t, r1),
            vec![r2],
            "r2 must be released by r1 alone (both edges drain on one retire)"
        );
        assert!(retire_collect(&t, r2).is_empty());
        t.reset();
        free_record(r1);
        free_record(r2);
    }

    /// Deadlock-freedom under genuinely concurrent registrants: threads
    /// race to register tasks with opposite clause orders on a shared
    /// address pair, the main thread retires released tasks worklist-style,
    /// and every task must come out exactly once — a cycle would strand
    /// the worklist with tasks still pending.
    #[test]
    fn concurrent_registrants_never_cycle() {
        const PER_THREAD: usize = 200;
        let t = DepTracker::new();
        let ready = Mutex::new(Vec::new());
        let all = Mutex::new(Vec::new());
        std::thread::scope(|threads| {
            for flip in [false, true] {
                let (t, ready, all) = (&t, &ready, &all);
                threads.spawn(move || {
                    for _ in 0..PER_THREAD {
                        let rec = boxed_record();
                        let clauses = if flip {
                            [write(A), write(B)]
                        } else {
                            [write(B), write(A)]
                        };
                        let is_ready = unsafe { t.register(rec, &clauses) };
                        all.lock().unwrap().push(rec.as_ptr() as usize);
                        if is_ready {
                            ready.lock().unwrap().push(rec.as_ptr() as usize);
                        }
                    }
                });
            }
        });
        // Worklist: retire released tasks until quiet; a registration
        // cycle would leave tasks no retire can ever reach.
        let mut worklist = std::mem::take(&mut *ready.lock().unwrap());
        let mut retired = 0usize;
        while let Some(p) = worklist.pop() {
            retired += 1;
            let rec = NonNull::new(p as *mut TaskRecord).unwrap();
            for released in retire_collect(&t, rec) {
                worklist.push(released.as_ptr() as usize);
            }
        }
        assert_eq!(
            retired,
            2 * PER_THREAD,
            "a registration cycle stranded {} tasks",
            2 * PER_THREAD - retired
        );
        t.reset();
        for p in all.lock().unwrap().drain(..) {
            free_record(NonNull::new(p as *mut TaskRecord).unwrap());
        }
    }

    #[test]
    fn reset_returns_blocks_to_the_pool() {
        let t = DepTracker::new();
        let recs: Vec<_> = (0..8).map(|_| boxed_record()).collect();
        for (i, &r) in recs.iter().enumerate() {
            unsafe { t.register(r, &[write(A + i * 8)]) };
        }
        for &r in &recs {
            retire_collect(&t, r);
        }
        // Entries still hold the writer mentions; reset drops them.
        t.reset();
        assert!(
            t.pooled_blocks() >= 8,
            "reset must recycle every block, found {}",
            t.pooled_blocks()
        );
        // A second lease-equivalent round reuses pooled state.
        let r = boxed_record();
        assert!(unsafe { t.register(r, &[write(A)]) });
        retire_collect(&t, r);
        t.reset();
        for rec in recs {
            free_record(rec);
        }
        free_record(r);
    }

    #[test]
    fn stride_allocated_addresses_spread_across_buckets() {
        // SparseLU dep tokens are consecutive slots 16 bytes apart; an
        // index built from the product's *low* bits would cluster them
        // into 1/16 of the buckets (low product bits depend only on low
        // address bits), inflating every chain walk under the map lock.
        let len = INITIAL_BUCKETS;
        for stride in [8usize, 16, 64, 128, 4096] {
            let used: std::collections::HashSet<usize> = (0..len)
                .map(|i| bucket_of(addr_hash(0x7f00_1000 + stride * i), len))
                .collect();
            assert!(
                used.len() > len / 2,
                "stride-{stride} addresses hit only {} of {len} buckets",
                used.len()
            );
        }
    }

    #[test]
    fn distinct_addresses_do_not_interact() {
        let t = DepTracker::new();
        let (r1, r2) = (boxed_record(), boxed_record());
        assert!(unsafe { t.register(r1, &[write(A)]) });
        assert!(unsafe { t.register(r2, &[write(B)]) }, "different object");
        retire_collect(&t, r1);
        retire_collect(&t, r2);
        t.reset();
        free_record(r1);
        free_record(r2);
    }
}
