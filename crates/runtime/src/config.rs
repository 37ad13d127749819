//! Runtime configuration: thread count, scheduling policy and runtime-side
//! cut-off strategy.
//!
//! These knobs are the experimental variables of the BOTS paper's evaluation:
//! §IV-B compares application cut-offs against *runtime* cut-offs (the Intel
//! runtime used a max-task-count cut-off), §IV-C compares tied vs untied
//! scheduling constraints, and §IV-D points at scheduling-policy studies.

/// Local queue discipline: where the owning worker takes its next task from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalOrder {
    /// Depth-first: pop the youngest task (own deque bottom). Best cache
    /// locality for recursive kernels; this is what Cilk-style runtimes do.
    #[default]
    Lifo,
    /// Breadth-first: take the oldest local task, like a FIFO queue. Exposes
    /// more parallelism early but grows the working set; equivalent to the
    /// "breadth-first" schedulers studied around OpenMP 3.0.
    Fifo,
}

/// Runtime-implemented cut-off: when to serialise task creation regardless of
/// what the application asked for. `#pragma omp task` in the application maps
/// to `Scope::spawn` here; when the cut-off trips, the spawn runs inline
/// (undeferred) instead of being queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeCutoff {
    /// Never serialise: queue every task the application creates.
    #[default]
    None,
    /// Serialise while the total number of queued-but-unstarted tasks exceeds
    /// `per_worker × workers` (the strategy the paper attributes to the Intel
    /// runtime: "a cut-off based on the number of tasks").
    MaxTasks {
        /// Queued-task budget per worker.
        per_worker: usize,
    },
    /// Serialise while the *local* deque holds more than this many tasks.
    MaxLocalQueue {
        /// Maximum local queue length before spawns inline.
        max_len: usize,
    },
    /// Serialise any task whose recursion depth exceeds this bound
    /// (runtime-side equivalent of the applications' depth cut-offs).
    MaxDepth {
        /// Maximum depth at which tasks are still deferred.
        max_depth: u32,
    },
    /// Adaptive hysteresis (after Duran et al., "An Adaptive Cut-off for Task
    /// Parallelism", SC'08): serialise when the global queued-task count
    /// rises above `high × workers`, resume deferring once it falls below
    /// `low × workers`.
    Adaptive {
        /// Lower watermark per worker (resume deferring below this).
        low: usize,
        /// Upper watermark per worker (serialise above this).
        high: usize,
    },
}

/// Per-region task-creation budget: a cut-off checked against **one
/// region's own** queued-task count, so a greedy region serialises *its
/// own* spawns instead of starving its siblings'.
///
/// This is the per-region counterpart of [`RuntimeCutoff`]'s
/// `MaxTasks`/`Adaptive`, which are deliberately global (machine-load
/// backpressure): a latency-sensitive server sets a global cut-off for the
/// machine *and* a region budget for fairness. The two compose — a spawn is
/// serialised when either trips.
///
/// Set a team-wide default with
/// [`RuntimeConfig::with_region_budget`]; override per submission with
/// [`Runtime::submit_with_budget`](crate::Runtime::submit_with_budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionBudget {
    /// No per-region limit. As a per-submission override this means "use
    /// the team default"; as the team default it means unbudgeted (only the
    /// global [`RuntimeCutoff`] applies).
    #[default]
    Inherit,
    /// Serialise this region's spawns while it has at least this many
    /// queued-but-unstarted tasks of its own.
    MaxQueued(usize),
    /// Per-region adaptive hysteresis (the region-scoped analogue of
    /// [`RuntimeCutoff::Adaptive`]): serialise once the region's queued
    /// count rises above `high`, resume deferring when it falls below
    /// `low`.
    Adaptive {
        /// Lower watermark (resume deferring below this).
        low: usize,
        /// Upper watermark (serialise above this).
        high: usize,
    },
}

/// Full runtime configuration. Build with [`RuntimeConfig::new`] and the
/// `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads in the team.
    pub num_threads: usize,
    /// Local queue discipline.
    pub local_order: LocalOrder,
    /// Runtime-side cut-off strategy.
    pub cutoff: RuntimeCutoff,
    /// Default per-region task budget for every submitted region (override
    /// per submission with
    /// [`Runtime::submit_with_budget`](crate::Runtime::submit_with_budget)).
    pub region_budget: RegionBudget,
    /// Steal attempts across the whole team before a worker considers
    /// parking (each attempt probes every other worker once, in a random
    /// rotation).
    pub steal_rounds: usize,
    /// Wake propagation: a worker that was woken and found work wakes the
    /// next sleeper while more work stays visible, so bursts ramp the team
    /// up geometrically instead of one wake per spawn. Disable to measure
    /// the single-wake baseline.
    pub wake_propagation: bool,
    /// Spin iterations between failed steal rounds before blocking.
    pub spin_before_park: usize,
    /// Pool-growth granularity: task records per slab chunk. Each worker's
    /// record pool grows by this many 128-byte records at a time when its
    /// free list and reclaim stack are both empty (64 records = one 8 KiB
    /// chunk). Larger values amortise growth for spawn-storm workloads;
    /// smaller ones keep tiny teams lean.
    pub record_chunk: usize,
    /// Overload-shedding watermark: maximum concurrently live (submitted,
    /// not yet quiesced) regions before admission control engages. `0`
    /// (the default) disables the watermark. At or above it,
    /// [`Runtime::try_submit`](crate::Runtime::try_submit) refuses with
    /// [`SubmitError::Shed`](crate::SubmitError::Shed) and the infallible
    /// submit paths admit the region in *shed mode* — clause-free spawns
    /// serialise inline, bounding the queue footprint of overload instead
    /// of growing it.
    pub max_live_regions: usize,
    /// Capacity of the record-and-replay graph cache (frozen dependency
    /// DAGs keyed by shape token — see
    /// [`Runtime::submit_replay`](crate::Runtime::submit_replay)).
    /// Admitting a token past capacity evicts the least-recently-armed
    /// cached graph (tokens whose graph is currently leased out or still
    /// recording are never evicted). Floors at 1.
    pub replay_cache: usize,
    /// Team-wide default claim grain for worksharing loops
    /// ([`LoopMode::Worksharing`](crate::LoopMode::Worksharing)) whose
    /// [`ForBuilder`](crate::ForBuilder) did not set an explicit
    /// `.chunk(n)`. `0` (the default) means auto: `len / (4 × workers)`,
    /// at least 1.
    pub loop_grain: usize,
    /// Fiber stack size in bytes for pooled continuations (every deferred
    /// task body runs on one — see [`crate::cont`]). The memory is
    /// allocated uninitialised, so untouched pages are never committed: a
    /// parked deep wait costs pages, not the full reservation. There is no
    /// guard page; raise this for bodies with unusually deep inline
    /// recursion. Floors at 16 KiB.
    pub cont_stack: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_threads: default_threads(),
            local_order: LocalOrder::Lifo,
            cutoff: RuntimeCutoff::None,
            region_budget: RegionBudget::Inherit,
            steal_rounds: 4,
            wake_propagation: true,
            spin_before_park: 64,
            record_chunk: 64,
            max_live_regions: 0,
            replay_cache: 64,
            loop_grain: 0,
            cont_stack: 256 * 1024,
        }
    }
}

/// Reads the default team size from `BOTS_NUM_THREADS` (mirroring
/// `OMP_NUM_THREADS`), falling back to the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("BOTS_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl RuntimeConfig {
    /// Configuration with an explicit team size and defaults elsewhere.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "a team needs at least one thread");
        RuntimeConfig {
            num_threads,
            ..Default::default()
        }
    }

    /// Sets the local queue discipline.
    pub fn with_local_order(mut self, order: LocalOrder) -> Self {
        self.local_order = order;
        self
    }

    /// Sets the runtime cut-off strategy.
    pub fn with_cutoff(mut self, cutoff: RuntimeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the default per-region task budget.
    pub fn with_region_budget(mut self, budget: RegionBudget) -> Self {
        self.region_budget = budget;
        self
    }

    /// Sets the number of steal rounds before parking.
    pub fn with_steal_rounds(mut self, rounds: usize) -> Self {
        self.steal_rounds = rounds.max(1);
        self
    }

    /// Enables or disables wake propagation.
    pub fn with_wake_propagation(mut self, enable: bool) -> Self {
        self.wake_propagation = enable;
        self
    }

    /// Sets the slab pool-growth granularity (records per chunk).
    pub fn with_record_chunk(mut self, records: usize) -> Self {
        self.record_chunk = records.max(1);
        self
    }

    /// Sets the overload-shedding watermark (`0` disables it). See
    /// [`RuntimeConfig::max_live_regions`].
    pub fn with_max_live_regions(mut self, regions: usize) -> Self {
        self.max_live_regions = regions;
        self
    }

    /// Sets the replay graph-cache capacity (floors at one graph). See
    /// [`RuntimeConfig::replay_cache`].
    pub fn with_replay_cache(mut self, graphs: usize) -> Self {
        self.replay_cache = graphs.max(1);
        self
    }

    /// Sets the team-wide default worksharing claim grain (`0` restores
    /// the auto heuristic). See [`RuntimeConfig::loop_grain`].
    pub fn with_loop_grain(mut self, grain: usize) -> Self {
        self.loop_grain = grain;
        self
    }

    /// Sets the fiber stack size for pooled continuations (floors at
    /// 16 KiB). See [`RuntimeConfig::cont_stack`].
    pub fn with_cont_stack(mut self, bytes: usize) -> Self {
        self.cont_stack = bytes.max(16 * 1024);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = RuntimeConfig::default();
        assert!(c.num_threads >= 1);
        assert_eq!(c.local_order, LocalOrder::Lifo);
        assert_eq!(c.cutoff, RuntimeCutoff::None);
        assert_eq!(c.region_budget, RegionBudget::Inherit);
        assert!(c.wake_propagation);
        assert_eq!(c.max_live_regions, 0, "shedding is opt-in");
        assert_eq!(c.replay_cache, 64);
        assert_eq!(c.loop_grain, 0, "worksharing grain defaults to auto");
        assert_eq!(c.cont_stack, 256 * 1024, "fiber stacks default to 256 KiB");
    }

    #[test]
    fn builder_chain() {
        let c = RuntimeConfig::new(3)
            .with_local_order(LocalOrder::Fifo)
            .with_cutoff(RuntimeCutoff::MaxTasks { per_worker: 8 })
            .with_region_budget(RegionBudget::MaxQueued(32))
            .with_steal_rounds(2)
            .with_wake_propagation(false);
        assert!(!c.wake_propagation);
        assert_eq!(c.num_threads, 3);
        assert_eq!(c.local_order, LocalOrder::Fifo);
        assert_eq!(c.cutoff, RuntimeCutoff::MaxTasks { per_worker: 8 });
        assert_eq!(c.region_budget, RegionBudget::MaxQueued(32));
        assert_eq!(c.steal_rounds, 2);
        let c = c.with_record_chunk(0);
        assert_eq!(c.record_chunk, 1, "chunk size floors at one record");
        let c = c.with_record_chunk(256);
        assert_eq!(c.record_chunk, 256);
        let c = c.with_max_live_regions(7);
        assert_eq!(c.max_live_regions, 7);
        let c = c.with_replay_cache(0);
        assert_eq!(c.replay_cache, 1, "cache capacity floors at one graph");
        let c = c.with_replay_cache(16);
        assert_eq!(c.replay_cache, 16);
        let c = c.with_loop_grain(32);
        assert_eq!(c.loop_grain, 32);
        let c = c.with_loop_grain(0);
        assert_eq!(c.loop_grain, 0, "zero restores the auto heuristic");
        let c = c.with_cont_stack(0);
        assert_eq!(c.cont_stack, 16 * 1024, "fiber stacks floor at 16 KiB");
        let c = c.with_cont_stack(1 << 20);
        assert_eq!(c.cont_stack, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = RuntimeConfig::new(0);
    }

    #[test]
    fn steal_rounds_floor_is_one() {
        let c = RuntimeConfig::new(1).with_steal_rounds(0);
        assert_eq!(c.steal_rounds, 1);
    }
}
