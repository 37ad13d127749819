//! Pooled cactus-stack continuations: the mechanism that lets a blocked
//! wait leave its worker.
//!
//! Every deferred task body runs on a **fiber** — a heap-allocated stack
//! plus a saved register context — rather than on the worker's native
//! stack. When a scheduling-point wait (`taskwait`, taskgroup wait, loop
//! drain) cannot complete, the frame does not spin or nest: it parks its
//! fiber ([`Continuation`]) in a waiter slot on the thing it is waiting
//! for and switches back to the worker's dispatch loop, which moves on to
//! other work. Whichever worker later drives the wait's condition to its
//! zero transition (last child retiring, last group member leaving)
//! claims the slot and queues the continuation on its *own* deque — so a
//! blocked waiter migrates to wherever its wake happened, including onto
//! a thief. This is the continuation-stealing shape TraceForge uses for
//! its simulated threads, applied to OpenMP-style waits.
//!
//! Continuations are pooled like every other runtime object
//! ([`crate::freelist`]): per-worker owner-only free lists plus a
//! lock-free Treiber reclaim stack for cross-thread release, so a warm
//! suspend/resume cycle
//! performs **zero heap allocations**. A recycled fiber is *live*: it
//! sits parked inside [`bots_fiber_main`]'s loop at the switch-out point
//! after finishing its previous task, so re-entering it needs no stack
//! re-crafting — just a task hand-off and a context switch.
//!
//! Fiber stacks default to [`RuntimeConfig::cont_stack`] bytes (256 KiB)
//! of *uninitialised* memory: untouched pages are never committed, so a
//! parked deep-wait costs pages, not megabytes. There is no guard page —
//! a body that out-recurses its fiber stack is undefined behaviour; raise
//! `cont_stack` for unusually deep inline cascades.
//!
//! ## The suspend/wake state machine
//!
//! A continuation's [`state`](Continuation::state) moves through:
//!
//! * `RUNNING` — mounted on some worker, executing.
//! * `SUSPENDING` — the fiber decided to park and is switching out; the
//!   hosting worker has not yet finished detaching it.
//! * `SUSPENDED` — fully parked; a waker owns requeueing it.
//! * `QUEUED` — a waker claimed it. If the claim landed before the park
//!   finished (`RUNNING`/`SUSPENDING`), the wake is a *token* the
//!   suspend path consumes without a queue round-trip; from `SUSPENDED`
//!   the waker pushes the tagged pointer itself.
//! * `DONE` — the task body finished; the host recycles the fiber.
//!
//! The waker is made exclusive by the waiter *slot* (an atomic pointer
//! swap claims it), so exactly one wake per suspend can ever fire: at
//! quiescence `cont_suspends == cont_resumes`.
//!
//! [`RuntimeConfig::cont_stack`]: crate::RuntimeConfig::cont_stack

use std::alloc::Layout;
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};

use crate::freelist::Pooled;
use crate::task::TaskRecord;

/// Mounted on a worker, executing.
pub(crate) const RUNNING: u8 = 0;
/// Switching out; the host has not finished detaching it.
pub(crate) const SUSPENDING: u8 = 1;
/// Fully parked; the claiming waker queues it.
pub(crate) const SUSPENDED: u8 = 2;
/// Claimed by a waker (queued, or a wake token the suspend path eats).
pub(crate) const QUEUED: u8 = 3;
/// Task body finished; the host recycles the fiber.
pub(crate) const DONE: u8 = 4;

// The context switch. `bots_cont_switch(save, to)` pushes the SysV
// callee-saved registers, stores the old stack pointer through `save`,
// installs `to` as the new stack pointer, pops the callee-saved set the
// target context pushed when *it* switched out, and returns into the
// target. A freshly crafted stack (see `Continuation::craft`) fakes that
// frame so the first switch-in "returns" into `bots_fiber_boot`, which
// moves the continuation pointer parked in r12 into rdi and calls
// `bots_fiber_main`.
//
// Alignment: `craft` leaves the saved rsp 56 bytes below the 16-aligned
// stack top, so after six 8-byte pops and the 8-byte `ret`, `boot` runs
// with rsp ≡ 0 (mod 16) and its `call` gives `bots_fiber_main` the
// standard post-call rsp ≡ 8 (mod 16).
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".globl bots_cont_switch",
    ".type bots_cont_switch, @function",
    "bots_cont_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".globl bots_fiber_boot",
    ".type bots_fiber_boot, @function",
    "bots_fiber_boot:",
    "mov rdi, r12",
    "xor ebp, ebp",
    "call bots_fiber_main",
    "ud2",
);

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "continuation stealing is implemented for x86_64 SysV only; \
     port bots_cont_switch/bots_fiber_boot for this architecture"
);

extern "C" {
    fn bots_cont_switch(save: *mut *mut u8, to: *mut u8);
    fn bots_fiber_boot();
}

/// Offsets (in 8-byte words, from the saved rsp) of the fake
/// callee-saved frame `craft` writes: r15 r14 r13 r12 rbx rbp ret.
const FRAME_WORDS: usize = 7;
const R12_WORD: usize = 3;
const RET_WORD: usize = 6;

/// A pooled fiber: heap stack + saved contexts + pool linkage.
///
/// Cache-line aligned so the low pointer bit is free for the deque's
/// resume tag and so `state` does not false-share with neighbours.
#[repr(align(128))]
pub(crate) struct Continuation {
    /// Intrusive pool link (free list / reclaim stack), only touched while
    /// the continuation is released.
    pub(crate) next: AtomicPtr<Continuation>,
    /// Suspend/wake state machine (see module docs).
    pub(crate) state: AtomicU8,
    /// Index of the worker whose pool shard owns this continuation.
    pub(crate) home: u16,
    /// Worker the fiber last ran on; a resume elsewhere is a migration.
    pub(crate) last_worker: Cell<u16>,
    /// The fiber's saved stack pointer while it is switched out.
    pub(crate) ctx: Cell<*mut u8>,
    /// The host's saved stack pointer while the fiber runs. Overwritten at
    /// every switch-in, so a continuation may be resumed from a different
    /// host each time (worker loop or a nested fiber).
    pub(crate) parent_ctx: Cell<*mut u8>,
    /// Task hand-off slot: set by the dispatcher before the first
    /// switch-in of a lease, taken by `bots_fiber_main`.
    pub(crate) task: Cell<Option<NonNull<TaskRecord>>>,
    /// Base of the fiber stack allocation.
    stack: NonNull<u8>,
    /// Size of the fiber stack allocation in bytes.
    stack_size: usize,
}

// Safety: a continuation is only ever *mounted* on one thread at a time
// (the state machine plus the single-claimant waiter slot enforce the
// hand-offs); `next` and `state` are atomics; the Cells are only touched
// by the mounting/dispatching thread.
unsafe impl Send for Continuation {}
unsafe impl Sync for Continuation {}

impl Continuation {
    fn stack_layout(size: usize) -> Layout {
        Layout::from_size_align(size, 16).expect("fiber stack layout")
    }

    /// Writes the fake switch-out frame a first switch-in "returns"
    /// through: r12 = self (moved to rdi by `bots_fiber_boot`), return
    /// address = `bots_fiber_boot`. Only fresh fibers need this — a
    /// recycled fiber is parked live inside `bots_fiber_main`'s loop.
    fn craft(&self) {
        unsafe {
            let top = self.stack.as_ptr().add(self.stack_size);
            let top = top.sub(top as usize % 16);
            let sp = top.sub(FRAME_WORDS * 8).cast::<u64>();
            for w in 0..FRAME_WORDS {
                sp.add(w).write(0);
            }
            sp.add(R12_WORD).write(self as *const Continuation as u64);
            sp.add(RET_WORD)
                .write(bots_fiber_boot as *const () as usize as u64);
            self.ctx.set(sp.cast());
        }
    }

    /// Mounts the fiber on the calling thread. Returns when the fiber
    /// switches out (suspending or done); inspect `state` to learn which.
    ///
    /// # Safety
    /// The caller must hold exclusive dispatch rights (fresh lease, or a
    /// `QUEUED` continuation it popped), and `task` must be set if the
    /// fiber has none pending.
    pub(crate) unsafe fn switch_in(&self) {
        bots_cont_switch(self.parent_ctx.as_ptr(), self.ctx.get());
    }

    /// Parks the fiber and returns control to its current host. Called
    /// from *inside* the fiber; returns when somebody resumes it.
    ///
    /// # Safety
    /// Must be called on the fiber's own stack.
    pub(crate) unsafe fn switch_out(&self) {
        bots_cont_switch(self.ctx.as_ptr(), self.parent_ctx.get());
    }
}

/// The fiber trampoline target: runs tasks handed to `cont` forever.
///
/// Never returns — on task completion it marks the continuation `DONE`
/// and switches out; the host recycles the (still-live) fiber, and the
/// next lease switches back in right here to take the next task. Panics
/// must not unwind through the crafted base frame (that would be UB), so
/// anything escaping the execution hook aborts; task-body panics are
/// already contained as region outcomes inside the hook.
#[no_mangle]
unsafe extern "C" fn bots_fiber_main(cont: *mut Continuation) -> ! {
    loop {
        let c = &*cont;
        let task = c.task.take().expect("fiber switched in without a task");
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::pool::fiber_execute(task);
        }))
        .is_err()
        {
            std::process::abort();
        }
        c.state.store(DONE, Ordering::Release);
        // Nothing with a destructor may be live across this switch-out:
        // the stack below is freed without unwinding at pool teardown.
        c.switch_out();
    }
}

// Safety: `next` is only the pool's while the fiber is released (`DONE`
// and detached), and `home` is immutable after `fresh`.
unsafe impl Pooled for Continuation {
    /// Fiber stack size in bytes.
    type Arg = usize;

    /// Allocates the fiber stack and crafts the entry context. The stack
    /// is freed by [`teardown`](Self::teardown) when the pool drops.
    unsafe fn fresh(slot: *mut Self, home: usize, stack_size: usize) {
        let stack = std::alloc::alloc(Self::stack_layout(stack_size));
        let stack = NonNull::new(stack).expect("fiber stack allocation failed");
        slot.write(Continuation {
            next: AtomicPtr::new(std::ptr::null_mut()),
            state: AtomicU8::new(RUNNING),
            home: home as u16,
            last_worker: Cell::new(home as u16),
            ctx: Cell::new(std::ptr::null_mut()),
            parent_ctx: Cell::new(std::ptr::null_mut()),
            task: Cell::new(None),
            stack,
            stack_size,
        });
        (*slot).craft();
    }

    #[inline]
    fn link(&self) -> &AtomicPtr<Self> {
        &self.next
    }

    #[inline]
    fn home(&self) -> usize {
        self.home as usize
    }

    /// Parked fibers are freed without unwinding their stacks;
    /// `bots_fiber_main` keeps nothing droppable live across its park.
    unsafe fn teardown(slot: *mut Self) {
        let c = &*slot;
        std::alloc::dealloc(c.stack.as_ptr(), Self::stack_layout(c.stack_size));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freelist::ShardedPool;

    fn pool(workers: usize) -> ShardedPool<Continuation> {
        ShardedPool::new(workers, 1, 32 * 1024)
    }

    #[test]
    fn lease_recycles_after_release() {
        let pool = pool(2);
        unsafe {
            let (a, fresh) = pool.lease(0);
            assert!(fresh);
            let a_ptr = a.as_ptr();
            pool.release(a, 0);
            let (b, fresh) = pool.lease(0);
            assert!(!fresh);
            assert_eq!(b.as_ptr(), a_ptr, "LIFO reuse");
            pool.release(b, 0);
        }
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn cross_worker_release_flows_home() {
        let pool = pool(2);
        unsafe {
            let (a, _) = pool.lease(0);
            // Worker 1 finished worker 0's fiber: it lands on shard 0's
            // reclaim stack, and worker 0's next lease drains it back.
            assert!(pool.release(a, 1));
            let (b, fresh) = pool.lease(0);
            assert!(!fresh);
            assert_eq!(b.as_ptr(), a.as_ptr());
            pool.release(b, 0);
        }
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn crafted_frame_is_aligned() {
        let pool = pool(1);
        unsafe {
            let (c, _) = pool.lease(0);
            let sp = c.as_ref().ctx.get() as usize;
            // Saved rsp + frame = 16-aligned boot entry.
            assert_eq!((sp + FRAME_WORDS * 8) % 16, 0);
            let ret = (c.as_ref().ctx.get() as *const u64).add(RET_WORD).read();
            assert_eq!(ret, bots_fiber_boot as *const () as usize as u64);
            pool.release(c, 0);
        }
    }
}
