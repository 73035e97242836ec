//! The unified execution engine: one scheduling loop per engine kind,
//! composed from orthogonal capability hooks.
//!
//! Four PRs of capability growth (cancellation, per-worker workspace
//! indexing, span capture, communication counting, fault injection) had
//! each grafted a new entry point onto the runtime, so the paper's single
//! PaRSEC-style engine had become a matrix of near-duplicate functions
//! whose capabilities could not be combined. This module restores the
//! PaRSEC architecture — scheduling, resilience and instrumentation are
//! orthogonal *services* over one DAG engine:
//!
//! * [`Engine`] — the shared-memory work-stealing engine. Exactly one
//!   scheduling loop, generic over a [`Cancel`] hook (external
//!   cancellation token) and an [`Observe`] hook (span capture). The
//!   no-op implementations ([`NoCancel`], [`NoObserve`]) are zero-sized
//!   and their inlined methods compile away, so an unobserved run pays
//!   nothing — the `trace_overhead` bench's ≤5 % and zero-allocation
//!   gates hold on this loop.
//! * [`DistEngine`] — the distributed-memory engine (message-passing
//!   emulation). Exactly one deterministic virtual-time event loop; a
//!   perfect network is simply the fault-free [`FtConfig`], so the fault
//!   layer is a *configuration* of the one loop, not a second engine.
//!   Communication volume is always counted ([`DistOutcome::comm`]) and
//!   a virtual-time [`Trace`] can be captured
//!   ([`DistConfig::record_trace`]) — capabilities compose freely
//!   (FT + trace + comm counting in one run).
//!
//! The zero-cost story differs by engine on purpose: the shared-memory
//! hot path is wall-clock critical, so its hooks are monomorphized
//! traits; the distributed loop runs in virtual time where a branch is
//! free, so its capabilities are plain config data.

use crate::des::CommStats;
use crate::fault::{FaultStats, FtConfig, FtError, IntegrityError};
use crate::graph::{DataRef, TaskGraph, TaskId};
use crate::obs::registry::{Counter, Gauge, Registry};
use crate::obs::RunEvent;
use crate::scheduler::{
    dist_priority_order, LookaheadScheduler, SchedPlan, SchedPolicy, Scheduler, StaticScheduler,
};
use crate::trace::{TaskRecord, Trace};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ===================== capability hooks =====================

/// Cancellation capability of a shared-memory run.
///
/// The engine polls [`Cancel::is_cancelled`] before invoking each kernel
/// and calls [`Cancel::cancel`] when a kernel panics, so an external
/// token observes the panic-drain. [`NoCancel`] is the zero-cost no-op;
/// [`AtomicBool`] is the standard token.
pub trait Cancel: Sync {
    /// Should the remaining kernels be skipped?
    fn is_cancelled(&self) -> bool;
    /// Request cancellation (kernels stop, bookkeeping still drains).
    fn cancel(&self);
}

/// No cancellation token: `is_cancelled` is a constant `false` that the
/// optimizer removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCancel;

impl Cancel for NoCancel {
    #[inline]
    fn is_cancelled(&self) -> bool {
        false
    }
    #[inline]
    fn cancel(&self) {}
}

impl Cancel for AtomicBool {
    #[inline]
    fn is_cancelled(&self) -> bool {
        self.load(Ordering::Acquire)
    }
    #[inline]
    fn cancel(&self) {
        self.store(true, Ordering::Release);
    }
}

impl<C: Cancel + ?Sized> Cancel for &C {
    #[inline]
    fn is_cancelled(&self) -> bool {
        (**self).is_cancelled()
    }
    #[inline]
    fn cancel(&self) {
        (**self).cancel()
    }
}

/// Observation capability of a shared-memory run (span capture).
///
/// Every method defaults to an inline no-op, so [`NoObserve`] (and an
/// absent [`ExecObs`], via the `Option<&O>` impl) compiles to nothing on
/// the hot path.
pub trait Observe: Sync {
    /// Current time on the observation clock, integer nanoseconds.
    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }
    /// Task `_t` just became ready (pushed to a deque / the injector).
    #[inline]
    fn on_enqueue(&self, _t: TaskId) {}
    /// Worker `_wid` finished task `_t` which started at `_start_ns`.
    #[inline]
    fn on_retire(&self, _wid: usize, _t: TaskId, _start_ns: u64) {}
    /// Worker `_wid` successfully stole from a peer's deque.
    #[inline]
    fn on_steal(&self, _wid: usize) {}
}

/// No span capture: every hook is an inline no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserve;

impl Observe for NoObserve {}

impl<O: Observe> Observe for &O {
    #[inline]
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }
    #[inline]
    fn on_enqueue(&self, t: TaskId) {
        (**self).on_enqueue(t)
    }
    #[inline]
    fn on_retire(&self, wid: usize, t: TaskId, start_ns: u64) {
        (**self).on_retire(wid, t, start_ns)
    }
    #[inline]
    fn on_steal(&self, wid: usize) {
        (**self).on_steal(wid)
    }
}

/// `None` observes nothing; `Some(o)` forwards — lets callers thread an
/// optional [`ExecObs`] (`obs.as_ref()`) straight into the engine.
impl<O: Observe> Observe for Option<&O> {
    #[inline]
    fn now_ns(&self) -> u64 {
        match self {
            Some(o) => o.now_ns(),
            None => 0,
        }
    }
    #[inline]
    fn on_enqueue(&self, t: TaskId) {
        if let Some(o) = self {
            o.on_enqueue(t);
        }
    }
    #[inline]
    fn on_retire(&self, wid: usize, t: TaskId, start_ns: u64) {
        if let Some(o) = self {
            o.on_retire(wid, t, start_ns);
        }
    }
    #[inline]
    fn on_steal(&self, wid: usize) {
        if let Some(o) = self {
            o.on_steal(wid);
        }
    }
}

// ===================== observation facade =====================

/// Span and steal data harvested from one observed execution.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// One record per executed task (retirement order sorted by end time).
    pub trace: Trace,
    /// Successful steals per worker (tasks this worker took from a peer's
    /// deque; injector grabs are not steals).
    pub steals: Vec<u64>,
}

impl ExecReport {
    /// Total steal count over all workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }
}

/// Observation hooks for one engine run.
///
/// Captures, per task, the enqueue (ready) time, the execute start/end
/// times, and the executing worker, plus per-worker steal counters —
/// everything [`crate::obs::RunMetrics`] and the Chrome-trace exporter
/// need. Span capture is opt-in per run: callers build an `ExecObs`
/// only when a trace is asked for and pass `None` otherwise, so an
/// untraced run's hot path is untouched. All span storage is
/// preallocated in [`ExecObs::new`], so the per-task hooks never
/// allocate (the counting-allocator harness in `tests/alloc_free.rs`
/// holds on a traced run too).
#[derive(Debug)]
pub struct ExecObs {
    t0: Instant,
    /// Nanoseconds since `t0` at which each task became ready.
    enqueue_ns: Vec<AtomicU64>,
    /// Per-worker span logs; each mutex is only ever taken by its own
    /// worker during the run (uncontended), then drained in `finish`.
    logs: Vec<Mutex<Vec<(TaskId, u64, u64)>>>,
    /// Successful deque steals per worker.
    steals: Vec<AtomicU64>,
}

impl ExecObs {
    /// Prepare storage for a graph of `ntasks` tasks on `nthreads`
    /// workers. All vectors are sized up front: the per-task hooks never
    /// allocate (each worker's log reserves room for every task, since in
    /// the worst case one worker runs the whole graph).
    pub fn new(ntasks: usize, nthreads: usize) -> Self {
        ExecObs {
            t0: Instant::now(),
            enqueue_ns: (0..ntasks).map(|_| AtomicU64::new(0)).collect(),
            logs: (0..nthreads.max(1))
                .map(|_| Mutex::new(Vec::with_capacity(ntasks)))
                .collect(),
            steals: (0..nthreads.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Harvest the captured spans into an [`ExecReport`], resolving task
    /// class and tile coordinates against `graph`.
    pub fn finish(&self, graph: &TaskGraph) -> ExecReport {
        let mut trace = Trace::default();
        for (wid, log) in self.logs.iter().enumerate() {
            let log = log.lock().unwrap_or_else(|e| e.into_inner());
            for &(t, start_ns, end_ns) in log.iter() {
                let spec = graph.spec(t);
                let queued_ns = self.enqueue_ns[t].load(Ordering::Relaxed).min(start_ns);
                trace.push_record(TaskRecord {
                    task: t,
                    class: spec.class,
                    proc: wid,
                    data: spec.writes,
                    queued: queued_ns as f64 * 1e-9,
                    start: start_ns as f64 * 1e-9,
                    end: end_ns as f64 * 1e-9,
                });
            }
        }
        trace.records.sort_by(|a, b| a.end.total_cmp(&b.end));
        ExecReport {
            trace,
            steals: self.steals.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Record an explicit span for `task` on worker `wid`, with both
    /// endpoints in [`Observe::now_ns`] time.
    ///
    /// This is the span-splitting entry used by the panel-batching layer:
    /// a fused engine task measures each member kernel itself and reports
    /// the members here (suppressing the fused task's own
    /// [`Observe::on_retire`]), so per-task attribution, `RunMetrics`,
    /// and trace exports keep seeing individual kernels. Allocation-free:
    /// the per-worker logs are preallocated.
    #[inline]
    pub fn record_span(&self, wid: usize, task: TaskId, start_ns: u64, end_ns: u64) {
        let mut log = self.logs[wid].lock().unwrap_or_else(|e| e.into_inner());
        log.push((task, start_ns, end_ns));
    }
}

impl Observe for ExecObs {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    fn on_enqueue(&self, t: TaskId) {
        self.enqueue_ns[t].store(self.now_ns(), Ordering::Relaxed);
    }

    #[inline]
    fn on_retire(&self, wid: usize, t: TaskId, start_ns: u64) {
        let end = self.now_ns();
        self.record_span(wid, t, start_ns, end);
    }

    #[inline]
    fn on_steal(&self, wid: usize) {
        self.steals[wid].fetch_add(1, Ordering::Relaxed);
    }
}

// ===================== errors =====================

/// A kernel panicked during an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The task whose kernel panicked (the first one, if several raced).
    pub task: TaskId,
    /// The panic payload rendered as text, when it was a string.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Typed failure of an engine run — malformed inputs are reported, not
/// `assert!`ed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The task graph has a cycle (no valid schedule exists).
    Cycle,
    /// A kernel panicked; the pool drained before reporting.
    Panic(TaskPanic),
    /// `exec_rank` does not assign exactly one rank per task.
    RankMapLength {
        /// Tasks in the graph.
        expected: usize,
        /// Entries in the rank map.
        got: usize,
    },
    /// The initial stores do not cover exactly one store per rank.
    StoreCount {
        /// `nprocs`.
        expected: usize,
        /// Stores provided.
        got: usize,
    },
    /// A task is mapped to a rank outside `0..nprocs`.
    InvalidRank {
        /// The offending task.
        task: TaskId,
        /// Its mapped rank.
        rank: usize,
        /// The rank count.
        nprocs: usize,
    },
    /// A fault plan schedules the crash of a nonexistent rank.
    InvalidCrashRank {
        /// The scheduled rank.
        rank: usize,
        /// The rank count.
        nprocs: usize,
    },
    /// A scheduling key (or cost estimate) is NaN or infinite. Ordered
    /// ready queues cannot place such a task, so the key is rejected as
    /// a typed error where it used to panic inside a
    /// `partial_cmp().unwrap()` sort.
    NonFiniteKey {
        /// The task whose key is unusable.
        task: TaskId,
        /// The offending key value.
        key: f64,
    },
    /// A precomputed execution order supplied to
    /// [`DistEngine::run_planned`] is unusable: wrong length, not a
    /// permutation of the task ids, or not topological for the graph.
    /// Running it anyway would deadlock the front-only rank queues, so
    /// it is rejected up front.
    InvalidOrder {
        /// What check the order failed.
        reason: &'static str,
    },
    /// The fault layer could not recover (all ranks dead, retries
    /// exhausted, or the run stalled).
    Fault(FtError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Cycle => write!(f, "task graph has a cycle"),
            EngineError::Panic(p) => write!(f, "{p}"),
            EngineError::RankMapLength { expected, got } => {
                write!(
                    f,
                    "rank map has {got} entries for {expected} tasks (one rank per task)"
                )
            }
            EngineError::StoreCount { expected, got } => {
                write!(
                    f,
                    "{got} initial stores for {expected} ranks (one store per rank)"
                )
            }
            EngineError::InvalidRank { task, rank, nprocs } => {
                write!(
                    f,
                    "task {task} mapped to invalid rank {rank} (nprocs {nprocs})"
                )
            }
            EngineError::InvalidCrashRank { rank, nprocs } => {
                write!(
                    f,
                    "fault plan crashes invalid rank {rank} (nprocs {nprocs})"
                )
            }
            EngineError::NonFiniteKey { task, key } => {
                write!(f, "non-finite scheduling key {key} for task {task}")
            }
            EngineError::InvalidOrder { reason } => {
                write!(f, "precomputed execution order rejected: {reason}")
            }
            EngineError::Fault(e) => write!(f, "unrecoverable runtime fault: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FtError> for EngineError {
    fn from(e: FtError) -> Self {
        EngineError::Fault(e)
    }
}

impl From<TaskPanic> for EngineError {
    fn from(p: TaskPanic) -> Self {
        EngineError::Panic(p)
    }
}

// ===================== shared-memory engine =====================

/// Capability configuration of a shared-memory [`Engine`] run.
///
/// Build one with [`EngineConfig::new`], then layer capabilities with
/// [`with_cancel`](EngineConfig::with_cancel) /
/// [`with_obs`](EngineConfig::with_obs). Each capability is a type
/// parameter, so a run without a capability monomorphizes to code with
/// no trace of it.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig<'m, C = NoCancel, O = NoObserve> {
    /// Worker threads of the pool (clamped to ≥ 1).
    pub nthreads: usize,
    /// Cancellation hook.
    pub cancel: C,
    /// Observation hook.
    pub obs: O,
    /// Ready-queue scheduling policy (default
    /// [`SchedPolicy::PanelPriority`]). The engine builds the matching
    /// [`Scheduler`] itself, pricing tasks by their planned flops; to
    /// supply a custom implementation use
    /// [`Engine::run_with_scheduler`].
    pub sched: SchedPolicy,
    /// Always-on metrics sink: per-class task durations, enqueue/steal
    /// counters, and the scheduler's end-of-run EMA corrections land in
    /// the registry's per-worker shards (`None` skips all recording).
    pub metrics: Option<&'m Registry>,
}

impl EngineConfig<'_> {
    /// A plain run on `nthreads` workers: no cancellation token, no span
    /// capture, panel-priority scheduling, no metrics sink.
    pub fn new(nthreads: usize) -> Self {
        EngineConfig {
            nthreads,
            cancel: NoCancel,
            obs: NoObserve,
            sched: SchedPolicy::PanelPriority,
            metrics: None,
        }
    }
}

impl<'m, C, O> EngineConfig<'m, C, O> {
    /// Layer a cancellation token (e.g. `&AtomicBool`) onto the run.
    pub fn with_cancel<C2>(self, cancel: C2) -> EngineConfig<'m, C2, O> {
        EngineConfig {
            nthreads: self.nthreads,
            cancel,
            obs: self.obs,
            sched: self.sched,
            metrics: self.metrics,
        }
    }

    /// Layer span capture (e.g. `&ExecObs` or `obs.as_ref()`) onto the
    /// run.
    pub fn with_obs<O2>(self, obs: O2) -> EngineConfig<'m, C, O2> {
        EngineConfig {
            nthreads: self.nthreads,
            cancel: self.cancel,
            obs,
            sched: self.sched,
            metrics: self.metrics,
        }
    }

    /// Select the ready-queue scheduling policy.
    pub fn with_sched(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }

    /// Attach a metrics registry (shard per worker).
    pub fn with_metrics(mut self, metrics: &'m Registry) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// The shared-memory work-stealing engine.
///
/// Runs a [`TaskGraph`] with real kernel closures on a pool of OS
/// threads. The scheduling discipline mirrors PaRSEC's node-level
/// scheduler: per-worker LIFO deques (locality: a task's just-released
/// successor runs on the releasing worker while its inputs are
/// cache-hot) with random stealing, seeded from the graph sources in
/// priority order. Dependency tracking is a per-task atomic in-degree
/// counter: the worker that retires the last predecessor pushes the
/// successor into its own deque — the "release" path of any dataflow
/// runtime.
///
/// Kernel panics never hang the pool: the first panic flips an internal
/// drain flag (and the [`Cancel`] hook), remaining tasks retire without
/// running their kernels, and the panic is reported as
/// [`EngineError::Panic`] once every worker has stopped.
pub struct Engine<'g> {
    graph: &'g TaskGraph,
}

impl<'g> Engine<'g> {
    /// An engine over `graph`. Cheap: all state is per-run.
    pub fn new(graph: &'g TaskGraph) -> Self {
        Engine { graph }
    }

    /// Execute every task exactly once, respecting all dependencies,
    /// calling `kernel(worker_index, task)` concurrently from the pool.
    ///
    /// The worker index is stable for the lifetime of the pool
    /// (`0..nthreads`), so callers can give every worker an exclusive
    /// slot of per-worker state (the TLR factorization hands each worker
    /// its own `KernelWorkspace` arena). Exclusive access to the data a
    /// task writes is guaranteed by the graph, not the engine.
    ///
    /// `kernel` is invoked under [`catch_unwind`]: shared state it
    /// mutates must tolerate a kernel dying mid-update (the TLR
    /// factorizations qualify — a poisoned run's output is discarded
    /// wholesale).
    pub fn run<C, O, F>(&self, cfg: &EngineConfig<'_, C, O>, kernel: F) -> Result<(), EngineError>
    where
        C: Cancel,
        O: Observe,
        F: Fn(usize, TaskId) + Sync,
    {
        let mut sched = policy_scheduler(self.graph, cfg.sched)?;
        self.run_with_scheduler(cfg, sched.as_mut(), kernel)
    }

    /// [`run`](Engine::run) consuming a precomputed [`SchedPlan`]
    /// instead of rebuilding the scheduler from
    /// [`EngineConfig::sched`]: the plan's stored tables are
    /// instantiated (O(tasks), no graph walk) and the run proceeds
    /// exactly as an unplanned run with the same policy would — the
    /// plan only moves *when* the pricing happens, never what it is, so
    /// planned and unplanned runs are bit-identical.
    pub fn run_planned<C, O, F>(
        &self,
        cfg: &EngineConfig<'_, C, O>,
        plan: &SchedPlan,
        kernel: F,
    ) -> Result<(), EngineError>
    where
        C: Cancel,
        O: Observe,
        F: Fn(usize, TaskId) + Sync,
    {
        if plan.len() != self.graph.len() {
            return Err(EngineError::RankMapLength {
                expected: self.graph.len(),
                got: plan.len(),
            });
        }
        let mut sched = plan.instantiate()?;
        self.run_with_scheduler(cfg, sched.as_mut(), kernel)
    }

    /// [`run`](Engine::run) consulting an explicit [`Scheduler`]
    /// implementation instead of building one from
    /// [`EngineConfig::sched`].
    ///
    /// The engine calls `on_task_ready` for every task that becomes
    /// ready (under an internal mutex — the callbacks must be cheap) and
    /// orders the ready work by the returned key: sources are seeded
    /// best-first and each retirement pushes its newly-released
    /// successors onto the releasing worker's LIFO deque worst-first, so
    /// the best key is popped next while locality is preserved.
    /// `on_task_finished` fires at every retirement with the measured
    /// wall-clock seconds of the kernel — the feedback a dynamic policy
    /// ([`crate::scheduler::LookaheadScheduler`]) learns from. A
    /// non-finite key fails the run with [`EngineError::NonFiniteKey`]
    /// (remaining tasks drain without executing, as on a kernel panic).
    pub fn run_with_scheduler<C, O, F>(
        &self,
        cfg: &EngineConfig<'_, C, O>,
        sched: &mut dyn Scheduler,
        kernel: F,
    ) -> Result<(), EngineError>
    where
        C: Cancel,
        O: Observe,
        F: Fn(usize, TaskId) + Sync,
    {
        let graph = self.graph;
        let n = graph.len();
        if n == 0 {
            return Ok(());
        }
        if graph.topological_order().is_none() {
            return Err(EngineError::Cycle);
        }
        let nthreads = cfg.nthreads.max(1);

        let indegree: Vec<AtomicUsize> = graph
            .indegrees()
            .into_iter()
            .map(AtomicUsize::new)
            .collect();
        let completed = AtomicUsize::new(0);
        let first_panic: Mutex<Option<TaskPanic>> = Mutex::new(None);
        let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
        // Internal drain flag: a panic must stop the kernels even when the
        // caller supplied no cancellation token ([`NoCancel`]).
        let draining = AtomicBool::new(false);

        let injector = Injector::new();
        // Seed sources best-key-first (critical path first under the
        // default policy). Keys are validated before any kernel runs.
        let mut sources: Vec<(f64, TaskId)> = Vec::new();
        for t in graph.sources() {
            let key = sched.on_task_ready(t, graph);
            if !key.is_finite() {
                return Err(EngineError::NonFiniteKey { task: t, key });
            }
            sources.push((key, t));
        }
        sources.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, t) in sources {
            cfg.obs.on_enqueue(t);
            if let Some(reg) = cfg.metrics {
                reg.incr(0, Counter::TasksEnqueued);
            }
            injector.push(t);
        }
        // Shared by the workers: the policy's state is updated on every
        // ready/finished callback, so it lives under one mutex.
        let sched = Mutex::new(sched);

        let workers: Vec<Worker<TaskId>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<TaskId>> = workers.iter().map(Worker::stealer).collect();

        std::thread::scope(|scope| {
            for (wid, local) in workers.into_iter().enumerate() {
                let injector = &injector;
                let stealers = &stealers;
                let indegree = &indegree;
                let completed = &completed;
                let first_panic = &first_panic;
                let first_error = &first_error;
                let draining = &draining;
                let kernel = &kernel;
                let sched = &sched;
                scope.spawn(move || {
                    let mut rng: u64 = 0x9E3779B97F4A7C15 ^ (wid as u64);
                    // Reused per-retire scratch for released successors.
                    let mut released: Vec<(f64, TaskId)> = Vec::new();
                    loop {
                        if completed.load(Ordering::Acquire) == n {
                            return;
                        }
                        let task = find_task(
                            &local,
                            injector,
                            stealers,
                            wid,
                            &mut rng,
                            &cfg.obs,
                            cfg.metrics,
                        );
                        match task {
                            Some(t) => {
                                let start_ns = cfg.obs.now_ns();
                                let wall_start = std::time::Instant::now();
                                let mut ran = false;
                                if !draining.load(Ordering::Acquire) && !cfg.cancel.is_cancelled() {
                                    ran = true;
                                    if let Err(payload) =
                                        catch_unwind(AssertUnwindSafe(|| kernel(wid, t)))
                                    {
                                        draining.store(true, Ordering::Release);
                                        cfg.cancel.cancel();
                                        let message = payload
                                            .downcast_ref::<&str>()
                                            .map(|s| s.to_string())
                                            .or_else(|| payload.downcast_ref::<String>().cloned())
                                            .unwrap_or_else(|| "non-string panic payload".into());
                                        let mut slot =
                                            first_panic.lock().unwrap_or_else(|e| e.into_inner());
                                        if slot.is_none() {
                                            *slot = Some(TaskPanic { task: t, message });
                                        }
                                    }
                                }
                                let measured_s =
                                    if ran { wall_start.elapsed().as_secs_f64() } else { 0.0 };
                                cfg.obs.on_retire(wid, t, start_ns);
                                if ran {
                                    if let Some(reg) = cfg.metrics {
                                        reg.incr(wid, Counter::TasksExecuted);
                                        reg.record_class_seconds(
                                            wid,
                                            graph.spec(t).class,
                                            measured_s,
                                        );
                                    }
                                }
                                // Release successors even when draining: the
                                // completion count must reach `n` to stop.
                                released.clear();
                                for e in graph.successors(t) {
                                    if indegree[e.dst].fetch_sub(1, Ordering::AcqRel) == 1 {
                                        released.push((0.0, e.dst));
                                    }
                                }
                                {
                                    let mut s =
                                        sched.lock().unwrap_or_else(|e| e.into_inner());
                                    s.on_task_finished(t, graph, measured_s);
                                    for slot in released.iter_mut() {
                                        slot.0 = s.on_task_ready(slot.1, graph);
                                    }
                                }
                                for &(key, dst) in released.iter() {
                                    if !key.is_finite() {
                                        // Typed failure, same drain protocol
                                        // as a kernel panic: remaining tasks
                                        // retire without executing.
                                        draining.store(true, Ordering::Release);
                                        cfg.cancel.cancel();
                                        let mut slot = first_error
                                            .lock()
                                            .unwrap_or_else(|e| e.into_inner());
                                        if slot.is_none() {
                                            *slot = Some(EngineError::NonFiniteKey {
                                                task: dst,
                                                key,
                                            });
                                        }
                                    }
                                }
                                // Worst key first onto the LIFO deque, so
                                // the best key is what this worker pops
                                // next (total_cmp: NaNs cannot panic the
                                // sort even on the drain path).
                                released.sort_by(|a, b| b.0.total_cmp(&a.0));
                                for &(_, dst) in released.iter() {
                                    cfg.obs.on_enqueue(dst);
                                    if let Some(reg) = cfg.metrics {
                                        reg.incr(wid, Counter::TasksEnqueued);
                                    }
                                    local.push(dst);
                                }
                                completed.fetch_add(1, Ordering::AcqRel);
                            }
                            None => std::hint::spin_loop(),
                        }
                    }
                });
            }
        });

        // Publish the scheduler's learned per-class EMA corrections so
        // drift reports can inspect the calibration state it ended with.
        if let Some(reg) = cfg.metrics {
            let s = sched.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(corr) = s.class_corrections() {
                for (k, &v) in corr.iter().enumerate() {
                    reg.gauge_max(0, Gauge::correction(k), v);
                }
            }
        }

        debug_assert_eq!(
            completed.load(Ordering::Acquire),
            n,
            "not all tasks executed"
        );
        if let Some(e) = first_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        match first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(p) => Err(EngineError::Panic(p)),
            None => Ok(()),
        }
    }
}

/// Build the [`Scheduler`] for a policy in an engine that has no
/// machine model: tasks are priced by their planned flops at a nominal
/// 1 Gflop/s (only relative magnitudes matter for ordering, but the
/// lookahead's online correction works best when the estimates are in
/// seconds-like units).
fn policy_scheduler(
    graph: &TaskGraph,
    policy: SchedPolicy,
) -> Result<Box<dyn Scheduler>, EngineError> {
    let cost = |t: TaskId| graph.spec(t).flops * 1e-9;
    Ok(match policy {
        SchedPolicy::RankAwareLookahead => Box::new(LookaheadScheduler::new(graph, cost)?),
        p => Box::new(StaticScheduler::from_policy(graph, cost, p)?),
    })
}

/// Pop local → steal from injector → steal from a random victim.
fn find_task<O: Observe>(
    local: &Worker<TaskId>,
    injector: &Injector<TaskId>,
    stealers: &[Stealer<TaskId>],
    self_id: usize,
    rng: &mut u64,
    obs: &O,
    metrics: Option<&Registry>,
) -> Option<TaskId> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    // Random-order steal attempt over all other workers.
    let k = stealers.len();
    if k > 1 {
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let start = (*rng >> 33) as usize % k;
        for off in 0..k {
            let victim = (start + off) % k;
            if victim == self_id {
                continue;
            }
            loop {
                match stealers[victim].steal_batch_and_pop(local) {
                    Steal::Success(t) => {
                        obs.on_steal(self_id);
                        if let Some(reg) = metrics {
                            reg.incr(self_id, Counter::Steals);
                        }
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
    }
    None
}

// ===================== distributed engine =====================

/// Context handed to the task body on its executing rank.
pub struct RankCtx<'a, P> {
    rank: usize,
    store: &'a mut HashMap<DataRef, P>,
    /// inputs received from remote producers for the current task
    remote_inputs: HashMap<(TaskId, DataRef), P>,
}

impl<P> RankCtx<'_, P> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Borrow a datum: a remote input shipped for this task if one
    /// exists, otherwise the rank-local store.
    ///
    /// # Panics
    /// Panics when the datum is neither local nor shipped — i.e. the
    /// graph is missing a dependency edge (exactly the bug class this
    /// engine exists to catch).
    pub fn get(&self, producer: Option<TaskId>, data: DataRef) -> &P {
        if let Some(pid) = producer {
            if let Some(p) = self.remote_inputs.get(&(pid, data)) {
                return p;
            }
        }
        self.store.get(&data).unwrap_or_else(|| {
            panic!(
                "rank {}: datum ({}, {}) neither local nor shipped — missing dependency edge?",
                self.rank, data.i, data.j
            )
        })
    }

    /// Store (or overwrite) a datum in the rank-local store.
    pub fn put(&mut self, data: DataRef, payload: P) {
        self.store.insert(data, payload);
    }

    /// Take a datum out of the local store (for in-place mutation).
    pub fn take(&mut self, data: DataRef) -> Option<P> {
        self.store.remove(&data)
    }

    /// Take a shipped remote input (consuming it).
    pub fn take_remote(&mut self, producer: TaskId, data: DataRef) -> Option<P> {
        self.remote_inputs.remove(&(producer, data))
    }
}

/// Capability configuration of a [`DistEngine`] run.
///
/// The distributed engine runs in virtual time, so its capabilities are
/// plain data rather than monomorphized traits (a branch per event is
/// free there): `Default` is a perfect network with no trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistConfig<'a> {
    /// Fault layer: the fault plan, retry policy and virtual-time cost
    /// model. `None` runs the same event loop over a perfect network
    /// ([`FtConfig::fault_free`]).
    pub ft: Option<&'a FtConfig>,
    /// Capture a virtual-time [`Trace`] of task execution (one record
    /// per *successful* task completion; crash re-executions append a
    /// second record, mirroring what a real tracer would see).
    pub record_trace: bool,
    /// Ready-queue scheduling policy. The distributed engine executes
    /// each rank's queue front-only, so an arbitrary per-rank reorder
    /// can deadlock across ranks; a policy is therefore applied as a
    /// *priority-driven topological order*
    /// ([`crate::scheduler::priority_topo_order`]) shared by every rank
    /// — always deadlock-free. `None` (the default) keeps the plain
    /// creation-order topological sort, the engine's historical
    /// behavior. Tasks are priced by planned flops at a nominal
    /// 1 Gflop/s; [`SchedPolicy::CommAwareUpwardRank`] additionally
    /// prices cross-rank edges at a nominal 1 GB/s.
    pub sched: Option<SchedPolicy>,
    /// Always-on metrics sink: per-class virtual task durations land in
    /// per-rank shards, and the run's comm/fault/integrity totals are
    /// folded in at the end (`None` skips all recording).
    pub metrics: Option<&'a Registry>,
}

/// Payload integrity hooks for [`DistEngine::run_with_integrity`].
///
/// The engine is generic over its payload type, so corruption injection
/// and checksum verification are supplied as callbacks rather than baked
/// in: `corrupt` flips payload bits chosen by a seeded word **without**
/// refreshing any attached checksum (returning `false` when the payload
/// has nothing corruptible, e.g. a null tile), and `verify` re-derives
/// the checksum and compares it against the sealed one. The engine calls
/// `verify` at every read boundary: message delivery, local task input
/// consumption, and a final store sweep before releasing the result.
#[derive(Clone, Copy)]
pub struct IntegrityHooks<'a, P> {
    /// Flip payload bits selected by the seeded word; `true` if anything
    /// was actually mutated.
    pub corrupt: &'a dyn Fn(&mut P, u64) -> bool,
    /// Recompute the payload's checksum and compare; `false` on mismatch.
    pub verify: &'a dyn Fn(&P) -> bool,
}

/// Result of a distributed engine run.
#[derive(Debug)]
pub struct DistOutcome<P> {
    /// Final per-rank stores (dead ranks are empty).
    pub stores: Vec<HashMap<DataRef, P>>,
    /// Final task → rank assignment after crash migrations.
    pub exec_rank: Vec<usize>,
    /// Cross-rank communication volume actually incurred, including
    /// retransmissions — the real-run counterpart of the DES's modeled
    /// [`CommStats`]. On a fault-free run this equals the dataflow-edge
    /// count/bytes of the placement.
    pub comm: CommStats,
    /// What the fault plan actually did and what recovery cost (all
    /// zeros on a fault-free run).
    pub stats: FaultStats,
    /// Virtual makespan of the run (seconds).
    pub makespan: f64,
    /// Crash, recovery, and integrity events in virtual-time order.
    /// Every [`RunEvent::Crash`] that the engine survives is
    /// immediately followed by its matching [`RunEvent::Recovery`]
    /// naming the survivor that absorbed the dead rank's work; with
    /// [`IntegrityHooks`] armed, every caught checksum mismatch appends
    /// a [`RunEvent::CorruptionDetected`] and every completed lineage
    /// heal a [`RunEvent::Healed`].
    pub events: Vec<RunEvent>,
    /// Virtual-time execution trace, when
    /// [`DistConfig::record_trace`] was set.
    pub trace: Option<Trace>,
}

/// Sender-side log entry for one logical message (producer → consumer
/// for one datum). Attempts share the entry; the payload is retained
/// for crash replay.
struct MsgRec<P> {
    src: TaskId,
    dst: TaskId,
    data: DataRef,
    payload: P,
    /// Payload size (the dataflow edge's `bytes`) for volume accounting.
    bytes: u64,
    /// Send attempts so far (acks and timeouts are tagged with this).
    attempts: u32,
    /// Latest attempt was acknowledged.
    acked: bool,
    /// Gave up after `max_send_attempts`.
    abandoned: bool,
}

enum EvKind {
    /// Wake a rank: start its next ready task if idle.
    TryStart { rank: usize },
    /// A task's virtual execution time elapsed.
    TaskDone {
        rank: usize,
        task: TaskId,
        epoch: u32,
    },
    /// A message copy reaches its consumer's current rank. `copy`
    /// distinguishes a duplicated delivery (1) from the original (0) so
    /// in-flight corruption fates are rolled per copy.
    Deliver { msg: usize, attempt: u32, copy: u32 },
    /// An acknowledgement reaches the sender.
    AckArrive { msg: usize, attempt: u32 },
    /// A negative acknowledgement (checksum mismatch at delivery)
    /// reaches the sender: retransmit without waiting for the timeout.
    NackArrive { msg: usize, attempt: u32 },
    /// Retransmission timer for an attempt fired.
    Timeout { msg: usize, attempt: u32 },
    /// A scheduled at-rest bit flip (index into the plan's
    /// `store_corruptions`) strikes its target store.
    CorruptStore { idx: usize },
    /// Fail-stop crash of a rank.
    Crash { rank: usize },
}

/// Heap entry ordered by (time, insertion sequence) — the sequence makes
/// simultaneous events deterministic.
struct Ev {
    time: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest event
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

fn push_ev(heap: &mut BinaryHeap<Ev>, seq: &mut u64, time: f64, kind: EvKind) {
    *seq += 1;
    heap.push(Ev {
        time,
        seq: *seq,
        kind,
    });
}

/// Roll the fates for one send attempt of `recs[id]` and schedule its
/// delivery (possibly duplicated, possibly dropped) and its
/// retransmission timeout.
#[allow(clippy::too_many_arguments)]
fn schedule_send<P>(
    id: usize,
    recs: &mut [MsgRec<P>],
    now: f64,
    cfg: &FtConfig,
    stats: &mut FaultStats,
    heap: &mut BinaryHeap<Ev>,
    seq: &mut u64,
) {
    let rec = &mut recs[id];
    if rec.attempts >= cfg.retry.max_send_attempts {
        if !rec.abandoned {
            rec.abandoned = true;
            stats.sends_abandoned += 1;
        }
        return;
    }
    rec.attempts += 1;
    let attempt = rec.attempts;
    if attempt == 1 {
        stats.messages_sent += 1;
    } else {
        stats.retransmissions += 1;
    }
    // Every attempt puts the payload on the wire (even if it is then
    // dropped in flight), so each one counts toward volume.
    stats.bytes_sent += rec.bytes;
    let mid = id as u64;
    if cfg.plan.drops_message(mid, attempt) {
        stats.messages_dropped += 1;
    } else {
        let dt = cfg.latency + cfg.plan.delay(mid, attempt, 0);
        push_ev(
            heap,
            seq,
            now + dt,
            EvKind::Deliver {
                msg: id,
                attempt,
                copy: 0,
            },
        );
        if cfg.plan.duplicates_message(mid, attempt) {
            stats.messages_duplicated += 1;
            let dt2 = cfg.latency + cfg.plan.delay(mid, attempt, 1);
            push_ev(
                heap,
                seq,
                now + dt2,
                EvKind::Deliver {
                    msg: id,
                    attempt,
                    copy: 1,
                },
            );
        }
    }
    push_ev(
        heap,
        seq,
        now + cfg.retry.timeout_for(attempt),
        EvKind::Timeout { msg: id, attempt },
    );
}

/// Lineage healing of a corrupted datum `d` detected on live rank
/// `rank`: roll the datum back to its checkpoint (or discard it if it is
/// a produced-only value with no checkpoint), un-done its writer chain
/// so the value is recomputed in topological order from verified inputs,
/// replay the writers' logged remote inputs, and re-wake the affected
/// ranks after a backed-off detection window. Escalates to
/// [`FtError::Integrity`] once the same datum has been healed
/// `max_heal_retries` times without sticking (heal attempts are counted
/// cumulatively per datum, so repeated strikes on one tile escalate).
#[allow(clippy::too_many_arguments)]
fn heal_datum<P: Clone>(
    d: DataRef,
    rank: usize,
    now: f64,
    graph: &TaskGraph,
    ft: &FtConfig,
    checkpoint: &[HashMap<DataRef, P>],
    stores: &mut [HashMap<DataRef, P>],
    done: &mut [bool],
    done_count: &mut usize,
    cur_exec: &[usize],
    busy: &[Option<TaskId>],
    topo_pos: &[usize],
    queue: &mut [VecDeque<TaskId>],
    recs: &mut [MsgRec<P>],
    seen: &mut [HashSet<usize>],
    heal_attempts: &mut HashMap<(usize, usize), u32>,
    heal_final_writer: &mut HashMap<TaskId, DataRef>,
    stats: &mut FaultStats,
    events: &mut Vec<RunEvent>,
    heap: &mut BinaryHeap<Ev>,
    seq: &mut u64,
) -> Result<(), EngineError> {
    stats.corruptions_detected += 1;
    events.push(RunEvent::CorruptionDetected {
        rank,
        i: d.i,
        j: d.j,
        at: now,
    });
    let att = heal_attempts.entry((d.i, d.j)).or_insert(0);
    *att += 1;
    let attempts = *att;
    if attempts > ft.retry.max_heal_retries {
        return Err(EngineError::Fault(FtError::Integrity(IntegrityError {
            rank,
            data: (d.i, d.j),
            attempts: attempts - 1,
        })));
    }
    // Roll the datum back to the initial checkpoint; produced-only data
    // have no checkpoint entry and are simply discarded — the writer
    // chain regenerates them from scratch.
    let restored = match checkpoint.iter().find_map(|c| c.get(&d)).cloned() {
        Some(v) => {
            stores[rank].insert(d, v);
            true
        }
        None => {
            stores[rank].remove(&d);
            false
        }
    };
    let ntasks = graph.len();
    let mut undone: Vec<TaskId> = (0..ntasks)
        .filter(|&t| graph.spec(t).writes == Some(d) && done[t])
        .collect();
    undone.sort_unstable_by_key(|&t| topo_pos[t]);
    if let Some(&last) = undone.last() {
        heal_final_writer.insert(last, d);
    } else if restored {
        // a never-written input: the checkpoint restore *is* the heal
        stats.corruptions_healed += 1;
        events.push(RunEvent::Healed {
            rank,
            i: d.i,
            j: d.j,
            at: now,
        });
    }
    // Writers of a datum are co-located (the engine's placement
    // invariant), so the chain re-executes on one rank; the detecting
    // rank is always re-woken because its interrupted reader task must
    // be re-queued too.
    let undone_set: HashSet<TaskId> = undone.iter().copied().collect();
    let mut affected: HashSet<usize> = HashSet::new();
    affected.insert(rank);
    for &t in &undone {
        done[t] = false;
        *done_count -= 1;
        stats.tasks_reexecuted += 1;
        affected.insert(cur_exec[t]);
    }
    for &r in &affected {
        let mut q: Vec<TaskId> = (0..ntasks)
            .filter(|&t| cur_exec[t] == r && !done[t] && busy[r] != Some(t))
            .collect();
        q.sort_unstable_by_key(|&t| topo_pos[t]);
        queue[r] = q.into();
    }
    // Replay logged remote inputs into the re-executing writers: their
    // inboxes were consumed on the first run, and the receiver-side
    // dedup filter must forget the old deliveries or the replay would
    // be discarded as duplicates.
    for id in 0..recs.len() {
        let (src, dst) = (recs[id].src, recs[id].dst);
        if undone_set.contains(&dst) && !done[dst] && done[src] {
            seen[cur_exec[dst]].remove(&id);
            recs[id].acked = false;
            recs[id].abandoned = false;
            schedule_send(id, recs, now, ft, stats, heap, seq);
        }
    }
    // Detection + rollback window, backed off per heal attempt.
    let delay = ft.retry.timeout_for(attempts);
    for &r in &affected {
        push_ev(heap, seq, now + delay, EvKind::TryStart { rank: r });
    }
    Ok(())
}

/// Check that `order` is a topological permutation of `graph`'s task
/// ids. A plan computed against a *different* graph (stale cache entry,
/// wrong trim) fails here instead of deadlocking the rank queues.
fn validate_topo_order(graph: &TaskGraph, order: &[TaskId]) -> Result<(), EngineError> {
    let ntasks = graph.len();
    if order.len() != ntasks {
        return Err(EngineError::InvalidOrder {
            reason: "length does not match task count",
        });
    }
    let mut pos = vec![usize::MAX; ntasks];
    for (p, &t) in order.iter().enumerate() {
        if t >= ntasks || pos[t] != usize::MAX {
            return Err(EngineError::InvalidOrder {
                reason: "not a permutation of the task ids",
            });
        }
        pos[t] = p;
    }
    for src in 0..ntasks {
        for e in graph.successors(src) {
            if pos[src] >= pos[e.dst] {
                return Err(EngineError::InvalidOrder {
                    reason: "order violates a dependency edge",
                });
            }
        }
    }
    Ok(())
}

/// The distributed-memory engine (message-passing emulation).
///
/// Each rank owns a **private** payload store (no shared data), and every
/// dataflow edge whose producer and consumer live on different ranks
/// becomes a message carrying a *copy* of the produced payload. A wrong
/// owner function, a missing dependency edge, or an execution remap that
/// forgets to ship a tile produces a stall or a wrong answer here, not
/// silent success.
///
/// The engine is a deterministic virtual-time event loop. Each rank
/// executes its tasks in a global topological order; messages are
/// sequence-numbered, logged by the sender, deduplicated by the
/// receiver, and retransmitted on timeout with capped exponential
/// backoff; fail-stop crashes are recovered by task migration,
/// checkpoint restore and logged-message replay (see
/// [`crate::fault`]). With no fault layer configured the same loop runs
/// a perfect network: every message arrives on the first attempt and
/// the recovery machinery is dormant.
///
/// Determinism argument (the produced data must match a fault-free
/// shared-memory run *bit for bit*): kernels are deterministic, each
/// rank executes its queue in a fixed topological order, and every task
/// consumes either the rank-local version chain (writers of a datum are
/// co-located and replay from the checkpoint in order) or an exact
/// logged copy of its producer's output. Message timing, loss,
/// duplication and crashes therefore change *when* a task runs, never
/// *what* it reads. Edge locality is decided **statically** from the
/// original placement: an edge whose endpoints started on different
/// ranks stays message-carried even if a migration makes them
/// co-resident — a migrated consumer must see its producer's logged
/// payload, not whatever newer version of that datum the survivor's
/// store holds.
pub struct DistEngine<'g, 'r> {
    graph: &'g TaskGraph,
    nprocs: usize,
    exec_rank: &'r [usize],
}

impl<'g, 'r> DistEngine<'g, 'r> {
    /// An engine over `graph` with `nprocs` emulated ranks and the given
    /// task → rank execution map. Validation happens in
    /// [`run`](DistEngine::run) (so misconfiguration is a typed
    /// [`EngineError`], not a panic).
    pub fn new(graph: &'g TaskGraph, nprocs: usize, exec_rank: &'r [usize]) -> Self {
        DistEngine {
            graph,
            nprocs,
            exec_rank,
        }
    }

    /// Execute the graph: `initial[r]` is rank `r`'s initial datum store
    /// (the data distribution); `body(task, ctx)` runs the kernel on the
    /// executing rank and must `put` the produced datum into the store;
    /// its return value is the payload shipped to remote consumers
    /// (usually a clone of the written datum). `body` must be
    /// deterministic for the fault-recovery equivalence to hold.
    ///
    /// Without [`IntegrityHooks`] the corruption entries of a
    /// [`FaultPlan`](crate::fault::FaultPlan) are inert (there is no way
    /// to flip or verify bits of an opaque payload); use
    /// [`run_with_integrity`](DistEngine::run_with_integrity) to arm
    /// them.
    pub fn run<P, F>(
        &self,
        initial: Vec<HashMap<DataRef, P>>,
        cfg: &DistConfig<'_>,
        body: F,
    ) -> Result<DistOutcome<P>, EngineError>
    where
        P: Clone,
        F: Fn(TaskId, &mut RankCtx<'_, P>) -> P,
    {
        self.run_with_integrity(initial, cfg, None, body)
    }

    /// [`run`](DistEngine::run) with a silent-data-corruption integrity
    /// layer armed.
    ///
    /// When `hooks` is `Some`, the engine injects the fault plan's
    /// corruption entries (in-flight payload flips with probability
    /// `corrupt_msg_prob` per delivered copy, and the scheduled at-rest
    /// `store_corruptions`) through `hooks.corrupt`, and verifies
    /// payloads through `hooks.verify` at every read boundary:
    ///
    /// * **message delivery** — a corrupted copy is discarded before the
    ///   dedup/ack step and NACKed back to the sender, which retransmits
    ///   immediately (the attempt timeout stays armed as a backstop);
    /// * **task read boundary** — before a kernel consumes its local
    ///   inputs, every datum it reads from the rank store is verified; a
    ///   mismatch triggers lineage healing: checkpoint rollback, writer
    ///   chain re-execution with logged-message replay, and a backed-off
    ///   re-wake, escalating to [`FtError::Integrity`] after
    ///   `max_heal_retries` failed passes on the same datum;
    /// * **final sweep** — after the last task completes, every
    ///   surviving store is verified (a tile corrupted after its last
    ///   read would otherwise escape) and healed before the outcome is
    ///   released.
    ///
    /// Detection and healing are reported as
    /// [`RunEvent::CorruptionDetected`] / [`RunEvent::Healed`] and in
    /// the corruption counters of [`FaultStats`].
    pub fn run_with_integrity<P, F>(
        &self,
        initial: Vec<HashMap<DataRef, P>>,
        cfg: &DistConfig<'_>,
        hooks: Option<&IntegrityHooks<'_, P>>,
        body: F,
    ) -> Result<DistOutcome<P>, EngineError>
    where
        P: Clone,
        F: Fn(TaskId, &mut RankCtx<'_, P>) -> P,
    {
        self.run_inner(initial, cfg, None, hooks, body)
    }

    /// [`run_with_integrity`](DistEngine::run_with_integrity) with a
    /// precomputed execution order, skipping the per-run priority-key
    /// computation entirely (the numeric half of a plan-then-run
    /// split). `order` must be a topological permutation of the task
    /// ids — typically the output of
    /// [`dist_priority_order`] over the same graph, policy and rank
    /// map, computed once at plan
    /// time. The order is validated (length, permutation, edge
    /// direction) and rejected as [`EngineError::InvalidOrder`] rather
    /// than risking a front-queue deadlock. `cfg.sched` is ignored:
    /// the supplied order *is* the schedule.
    pub fn run_planned<P, F>(
        &self,
        initial: Vec<HashMap<DataRef, P>>,
        cfg: &DistConfig<'_>,
        order: &[TaskId],
        hooks: Option<&IntegrityHooks<'_, P>>,
        body: F,
    ) -> Result<DistOutcome<P>, EngineError>
    where
        P: Clone,
        F: Fn(TaskId, &mut RankCtx<'_, P>) -> P,
    {
        self.run_inner(initial, cfg, Some(order), hooks, body)
    }

    fn run_inner<P, F>(
        &self,
        initial: Vec<HashMap<DataRef, P>>,
        cfg: &DistConfig<'_>,
        precomputed: Option<&[TaskId]>,
        hooks: Option<&IntegrityHooks<'_, P>>,
        body: F,
    ) -> Result<DistOutcome<P>, EngineError>
    where
        P: Clone,
        F: Fn(TaskId, &mut RankCtx<'_, P>) -> P,
    {
        let graph = self.graph;
        let nprocs = self.nprocs;
        let exec_rank = self.exec_rank;
        let ntasks = graph.len();

        if exec_rank.len() != ntasks {
            return Err(EngineError::RankMapLength {
                expected: ntasks,
                got: exec_rank.len(),
            });
        }
        if initial.len() != nprocs {
            return Err(EngineError::StoreCount {
                expected: nprocs,
                got: initial.len(),
            });
        }
        // A precomputed order replaces both the cycle check and the
        // policy keying; otherwise apply the scheduling policy as a
        // priority-driven topological order (front-only rank queues
        // deadlock under any order that is not globally topological —
        // see [`DistConfig::sched`]).
        let order = match precomputed {
            Some(order) => {
                validate_topo_order(graph, order)?;
                order.to_vec()
            }
            None => match cfg.sched {
                None => graph.topological_order().ok_or(EngineError::Cycle)?,
                Some(policy) => dist_priority_order(graph, policy, exec_rank)?,
            },
        };
        for (t, &r) in exec_rank.iter().enumerate() {
            if r >= nprocs {
                return Err(EngineError::InvalidRank {
                    task: t,
                    rank: r,
                    nprocs,
                });
            }
        }
        let fault_free;
        let ft = match cfg.ft {
            Some(ft) => ft,
            None => {
                fault_free = FtConfig::fault_free();
                &fault_free
            }
        };
        for c in &ft.plan.crashes {
            if c.rank >= nprocs {
                return Err(EngineError::InvalidCrashRank {
                    rank: c.rank,
                    nprocs,
                });
            }
        }
        for c in &ft.plan.store_corruptions {
            if c.rank >= nprocs {
                return Err(EngineError::InvalidCrashRank {
                    rank: c.rank,
                    nprocs,
                });
            }
        }

        let mut topo_pos = vec![0usize; ntasks];
        for (pos, &t) in order.iter().enumerate() {
            topo_pos[t] = pos;
        }

        // Static edge classification (see type-level docs: locality is
        // the *original* placement, by design).
        let mut local_preds: Vec<Vec<TaskId>> = vec![Vec::new(); ntasks];
        // Data each task reads from its rank-local store (the integrity
        // layer verifies these at the task's read boundary).
        let mut local_reads: Vec<Vec<DataRef>> = vec![Vec::new(); ntasks];
        let mut remote_preds: Vec<Vec<(TaskId, DataRef)>> = vec![Vec::new(); ntasks];
        let mut remote_sends: Vec<Vec<(TaskId, DataRef, u64)>> = vec![Vec::new(); ntasks];
        for src in 0..ntasks {
            for e in graph.successors(src) {
                if exec_rank[e.dst] == exec_rank[src] {
                    local_preds[e.dst].push(src);
                    if !local_reads[e.dst].contains(&e.data) {
                        local_reads[e.dst].push(e.data);
                    }
                } else {
                    remote_preds[e.dst].push((src, e.data));
                    remote_sends[src].push((e.dst, e.data, e.bytes));
                }
            }
        }

        // Mutable run state.
        let mut cur_exec = exec_rank.to_vec();
        let mut alive = vec![true; nprocs];
        let mut epoch = vec![0u32; nprocs];
        let mut busy: Vec<Option<TaskId>> = vec![None; nprocs];
        let mut done = vec![false; ntasks];
        let mut done_count = 0usize;
        let mut kernel_attempts = vec![0u32; ntasks];
        let mut inbox: Vec<HashMap<(TaskId, DataRef), P>> =
            (0..ntasks).map(|_| HashMap::new()).collect();
        let mut seen: Vec<HashSet<usize>> = vec![HashSet::new(); nprocs];
        let mut queue: Vec<VecDeque<TaskId>> = vec![VecDeque::new(); nprocs];
        for &t in &order {
            queue[cur_exec[t]].push_back(t);
        }

        // Checkpoint of every rank's initial data — the recovery source
        // for data whose owner dies (a real deployment would re-generate
        // or re-load it; the cost model charges the re-execution
        // instead).
        let checkpoint: Vec<HashMap<DataRef, P>> = initial.clone();
        let mut owned_ckpt: Vec<Vec<usize>> = (0..nprocs).map(|r| vec![r]).collect();
        let mut stores = initial;

        let mut recs: Vec<MsgRec<P>> = Vec::new();
        let mut rec_index: HashMap<(TaskId, TaskId, DataRef), usize> = HashMap::new();

        let mut stats = FaultStats::default();
        let mut events: Vec<RunEvent> = Vec::new();
        let mut trace = if cfg.record_trace {
            Some(Trace::default())
        } else {
            None
        };
        let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
        let mut seq = 0u64;
        // Heal attempts per datum and the pending heal's final writer
        // (whose re-completion marks the datum healed).
        let mut heal_attempts: HashMap<(usize, usize), u32> = HashMap::new();
        let mut heal_final_writer: HashMap<TaskId, DataRef> = HashMap::new();
        for c in &ft.plan.crashes {
            push_ev(&mut heap, &mut seq, c.at, EvKind::Crash { rank: c.rank });
        }
        for (idx, c) in ft.plan.store_corruptions.iter().enumerate() {
            push_ev(&mut heap, &mut seq, c.at, EvKind::CorruptStore { idx });
        }
        for r in 0..nprocs {
            push_ev(&mut heap, &mut seq, 0.0, EvKind::TryStart { rank: r });
        }

        let mut now = 0.0_f64;
        'event_loop: loop {
            while let Some(ev) = heap.pop() {
                if done_count == ntasks {
                    break;
                }
                now = ev.time;
                match ev.kind {
                    EvKind::TryStart { rank } => {
                        if !alive[rank] || busy[rank].is_some() {
                            continue;
                        }
                        while queue[rank]
                            .front()
                            .is_some_and(|&t| done[t] || cur_exec[t] != rank)
                        {
                            queue[rank].pop_front();
                        }
                        let Some(&t) = queue[rank].front() else {
                            continue;
                        };
                        let ready = local_preds[t].iter().all(|&p| done[p])
                            && remote_preds[t].iter().all(|key| inbox[t].contains_key(key));
                        if !ready {
                            continue; // re-woken by the delivery that unblocks it
                        }
                        queue[rank].pop_front();
                        busy[rank] = Some(t);
                        push_ev(
                            &mut heap,
                            &mut seq,
                            now + ft.task_time,
                            EvKind::TaskDone {
                                rank,
                                task: t,
                                epoch: epoch[rank],
                            },
                        );
                    }
                    EvKind::TaskDone {
                        rank,
                        task: t,
                        epoch: e,
                    } => {
                        if !alive[rank] || e != epoch[rank] {
                            continue; // the rank died mid-execution
                        }
                        busy[rank] = None;
                        if ft.plan.kernel_fails(t, kernel_attempts[t]) {
                            kernel_attempts[t] += 1;
                            stats.kernel_failures += 1;
                            if kernel_attempts[t] > ft.retry.max_kernel_retries {
                                return Err(EngineError::Fault(FtError::KernelRetriesExhausted {
                                    task: t,
                                }));
                            }
                            queue[rank].push_front(t); // retry in place
                            push_ev(&mut heap, &mut seq, now, EvKind::TryStart { rank });
                            continue;
                        }
                        // Read-boundary integrity check: verify every datum
                        // this task is about to consume from the local
                        // store (including the tile it updates in place)
                        // before the kernel runs on it.
                        if let Some(h) = hooks {
                            let bad = local_reads[t]
                                .iter()
                                .copied()
                                .chain(graph.spec(t).writes)
                                .find(|d| stores[rank].get(d).is_some_and(|p| !(h.verify)(p)));
                            if let Some(d) = bad {
                                heal_datum(
                                    d,
                                    rank,
                                    now,
                                    graph,
                                    ft,
                                    &checkpoint,
                                    &mut stores,
                                    &mut done,
                                    &mut done_count,
                                    &cur_exec,
                                    &busy,
                                    &topo_pos,
                                    &mut queue,
                                    &mut recs,
                                    &mut seen,
                                    &mut heal_attempts,
                                    &mut heal_final_writer,
                                    &mut stats,
                                    &mut events,
                                    &mut heap,
                                    &mut seq,
                                )?;
                                continue;
                            }
                        }
                        let remote_in = std::mem::take(&mut inbox[t]);
                        let mut ctx = RankCtx {
                            rank,
                            store: &mut stores[rank],
                            remote_inputs: remote_in,
                        };
                        let produced = body(t, &mut ctx);
                        done[t] = true;
                        done_count += 1;
                        if let Some(reg) = cfg.metrics {
                            reg.incr(rank, Counter::TasksExecuted);
                            reg.record_class_seconds(rank, graph.spec(t).class, ft.task_time);
                        }
                        if let Some(hd) = heal_final_writer.remove(&t) {
                            stats.corruptions_healed += 1;
                            events.push(RunEvent::Healed {
                                rank,
                                i: hd.i,
                                j: hd.j,
                                at: now,
                            });
                        }
                        if let Some(tr) = trace.as_mut() {
                            let spec = graph.spec(t);
                            let start = now - ft.task_time;
                            tr.push_record(TaskRecord {
                                task: t,
                                class: spec.class,
                                proc: rank,
                                data: spec.writes,
                                // Readiness is not tracked per attempt in
                                // virtual time; queued == start means zero
                                // reported queue-wait, which Trace documents.
                                queued: start,
                                start,
                                end: now,
                            });
                        }
                        for &(dst, data, bytes) in &remote_sends[t] {
                            if done[dst] {
                                continue; // re-execution; the consumer already has it
                            }
                            // A task with several logical outputs (a fused
                            // panel batch writes one tile per member) returns
                            // only one payload, so each edge ships the datum
                            // it actually names: the store holds every
                            // member's `put`, and the returned payload covers
                            // the task's own `writes` (the single-output case
                            // and every pre-batching caller, bit-for-bit).
                            let payload = if graph.spec(t).writes.is_some_and(|w| w != data) {
                                stores[rank]
                                    .get(&data)
                                    .cloned()
                                    .unwrap_or_else(|| produced.clone())
                            } else {
                                produced.clone()
                            };
                            let key = (t, dst, data);
                            let id = match rec_index.get(&key) {
                                Some(&id) => {
                                    // re-send through the existing log entry
                                    recs[id].payload = payload;
                                    recs[id].acked = false;
                                    recs[id].abandoned = false;
                                    id
                                }
                                None => {
                                    recs.push(MsgRec {
                                        src: t,
                                        dst,
                                        data,
                                        payload,
                                        bytes,
                                        attempts: 0,
                                        acked: false,
                                        abandoned: false,
                                    });
                                    rec_index.insert(key, recs.len() - 1);
                                    recs.len() - 1
                                }
                            };
                            schedule_send(id, &mut recs, now, ft, &mut stats, &mut heap, &mut seq);
                        }
                        push_ev(&mut heap, &mut seq, now, EvKind::TryStart { rank });
                    }
                    EvKind::Deliver { msg, attempt, copy } => {
                        let (src, dst, data) = (recs[msg].src, recs[msg].dst, recs[msg].data);
                        let dst_rank = cur_exec[dst];
                        if !alive[dst_rank] {
                            continue; // delivered into a dead NIC; replay handles it
                        }
                        // In-flight corruption: flip a payload bit on this
                        // copy and let the receiver's checksum decide. A
                        // detected mismatch is discarded before the dedup/
                        // ack step and NACKed back to the sender (integrity
                        // control messages are modeled as loss-free; the
                        // attempt timeout stays armed as a backstop).
                        let mut incoming: Option<P> = None;
                        if let Some(h) = hooks {
                            if ft.plan.corrupts_message(msg as u64, attempt, copy) {
                                let mut p = recs[msg].payload.clone();
                                if (h.corrupt)(&mut p, ft.plan.corruption_bits(msg as u64)) {
                                    stats.messages_corrupted += 1;
                                    if !(h.verify)(&p) {
                                        stats.corruptions_detected += 1;
                                        stats.nacks_sent += 1;
                                        events.push(RunEvent::CorruptionDetected {
                                            rank: dst_rank,
                                            i: data.i,
                                            j: data.j,
                                            at: now,
                                        });
                                        push_ev(
                                            &mut heap,
                                            &mut seq,
                                            now + ft.latency,
                                            EvKind::NackArrive { msg, attempt },
                                        );
                                        continue;
                                    }
                                    // an undetected flip is delivered as-is
                                    // (unreachable with exact digests; a
                                    // weaker checksum would pay for it with
                                    // a wrong result)
                                    incoming = Some(p);
                                }
                            }
                        }
                        if seen[dst_rank].contains(&msg) {
                            stats.duplicates_ignored += 1;
                        } else {
                            seen[dst_rank].insert(msg);
                            if !done[dst] {
                                let payload = incoming.unwrap_or_else(|| recs[msg].payload.clone());
                                inbox[dst].insert((src, data), payload);
                                push_ev(
                                    &mut heap,
                                    &mut seq,
                                    now,
                                    EvKind::TryStart { rank: dst_rank },
                                );
                            }
                        }
                        // every verified delivery (even a dedup'd one) is
                        // acknowledged
                        if ft.plan.drops_ack(msg as u64, attempt) {
                            stats.acks_dropped += 1;
                        } else {
                            push_ev(
                                &mut heap,
                                &mut seq,
                                now + ft.latency,
                                EvKind::AckArrive { msg, attempt },
                            );
                        }
                    }
                    EvKind::AckArrive { msg, attempt } => {
                        // attempt-tagged: a stale ack must not cancel the timer
                        // of a newer attempt (e.g. after a crash replay)
                        if attempt == recs[msg].attempts {
                            recs[msg].acked = true;
                        }
                    }
                    EvKind::NackArrive { msg, attempt } => {
                        let rec = &recs[msg];
                        if rec.acked || rec.abandoned || attempt != rec.attempts || done[rec.dst] {
                            continue; // a newer attempt is already in flight (or moot)
                        }
                        let src_rank = cur_exec[rec.src];
                        if !alive[src_rank] || !done[rec.src] {
                            continue; // sender died; its re-execution re-sends
                        }
                        schedule_send(msg, &mut recs, now, ft, &mut stats, &mut heap, &mut seq);
                    }
                    EvKind::Timeout { msg, attempt } => {
                        let rec = &recs[msg];
                        if rec.acked || rec.abandoned || attempt != rec.attempts || done[rec.dst] {
                            continue;
                        }
                        let src_rank = cur_exec[rec.src];
                        if !alive[src_rank] || !done[rec.src] {
                            continue; // sender died; its re-execution re-sends
                        }
                        schedule_send(msg, &mut recs, now, ft, &mut stats, &mut heap, &mut seq);
                    }
                    EvKind::CorruptStore { idx } => {
                        let c = ft.plan.store_corruptions[idx];
                        if !alive[c.rank] {
                            continue; // the crash already destroyed the store
                        }
                        // Without hooks there is no way to flip bits of an
                        // opaque payload: the strike is inert.
                        let Some(h) = hooks else { continue };
                        let d = DataRef { i: c.i, j: c.j };
                        if let Some(p) = stores[c.rank].get_mut(&d) {
                            if (h.corrupt)(p, ft.plan.corruption_bits((1u64 << 32) + idx as u64)) {
                                stats.store_corruptions_injected += 1;
                            }
                        }
                    }
                    EvKind::Crash { rank: c } => {
                        if !alive[c] {
                            continue;
                        }
                        alive[c] = false;
                        stats.crashes += 1;
                        events.push(RunEvent::Crash { rank: c, at: now });
                        epoch[c] += 1; // invalidates the in-flight TaskDone
                        busy[c] = None;
                        let Some(d) = (1..nprocs).map(|k| (c + k) % nprocs).find(|&r| alive[r])
                        else {
                            return Err(EngineError::Fault(FtError::AllRanksCrashed));
                        };
                        events.push(RunEvent::Recovery {
                            failed: c,
                            survivor: d,
                            at: now,
                        });
                        // migrate every task of the dead rank to the survivor
                        let mut migrated: HashSet<TaskId> = HashSet::new();
                        for t in 0..ntasks {
                            if cur_exec[t] == c {
                                cur_exec[t] = d;
                                migrated.insert(t);
                                if done[t] {
                                    done[t] = false;
                                    done_count -= 1;
                                    stats.tasks_reexecuted += 1;
                                }
                                inbox[t].clear(); // received inputs died with c
                            }
                        }
                        stats.tasks_migrated += migrated.len();
                        stores[c].clear();
                        seen[c].clear();
                        queue[c].clear();
                        // the survivor restores the dead rank's initial data
                        // (including any it had itself inherited earlier)
                        let inherited = std::mem::take(&mut owned_ckpt[c]);
                        for &o in &inherited {
                            for (k, v) in &checkpoint[o] {
                                stores[d].insert(*k, v.clone());
                            }
                        }
                        owned_ckpt[d].extend(inherited);
                        // rebuild the survivor's queue in topological order
                        let mut q: Vec<TaskId> = (0..ntasks)
                            .filter(|&t| cur_exec[t] == d && !done[t] && busy[d] != Some(t))
                            .collect();
                        q.sort_unstable_by_key(|&t| topo_pos[t]);
                        queue[d] = q.into();
                        // replay logged messages from surviving completed
                        // producers to the wiped, migrated consumers
                        for id in 0..recs.len() {
                            let (src, dst) = (recs[id].src, recs[id].dst);
                            if migrated.contains(&dst) && !done[dst] && done[src] {
                                recs[id].acked = false;
                                recs[id].abandoned = false;
                                schedule_send(
                                    id, &mut recs, now, ft, &mut stats, &mut heap, &mut seq,
                                );
                            }
                        }
                        push_ev(&mut heap, &mut seq, now, EvKind::TryStart { rank: d });
                    }
                }
            }

            if done_count < ntasks {
                return Err(EngineError::Fault(FtError::Stalled {
                    pending: ntasks - done_count,
                }));
            }
            // Final integrity sweep: a tile corrupted *after* its last
            // read has no later read boundary to catch it, so verify
            // every surviving store and heal before releasing the
            // result. Healing re-enters the event loop.
            let Some(h) = hooks else { break 'event_loop };
            let mut bad: Vec<(usize, DataRef)> = Vec::new();
            for r in 0..nprocs {
                if !alive[r] {
                    continue;
                }
                for (d, p) in &stores[r] {
                    if !(h.verify)(p) {
                        bad.push((r, *d));
                    }
                }
            }
            if bad.is_empty() {
                break 'event_loop;
            }
            bad.sort_unstable_by_key(|&(r, d)| (r, d.i, d.j)); // deterministic heal order
            for (r, d) in bad {
                heal_datum(
                    d,
                    r,
                    now,
                    graph,
                    ft,
                    &checkpoint,
                    &mut stores,
                    &mut done,
                    &mut done_count,
                    &cur_exec,
                    &busy,
                    &topo_pos,
                    &mut queue,
                    &mut recs,
                    &mut seen,
                    &mut heal_attempts,
                    &mut heal_final_writer,
                    &mut stats,
                    &mut events,
                    &mut heap,
                    &mut seq,
                )?;
            }
        }

        let comm = CommStats {
            bytes: stats.bytes_sent,
            messages: (stats.messages_sent + stats.retransmissions) as u64,
        };
        // Fold the run's communication / fault / integrity totals into
        // the registry (shard 0: these are whole-run aggregates).
        if let Some(reg) = cfg.metrics {
            reg.add(0, Counter::CommBytes, comm.bytes);
            reg.add(0, Counter::CommMessages, comm.messages);
            reg.add(0, Counter::Retransmissions, stats.retransmissions as u64);
            reg.add(0, Counter::MessagesDropped, stats.messages_dropped as u64);
            reg.add(0, Counter::DuplicatesIgnored, stats.duplicates_ignored as u64);
            reg.add(0, Counter::Crashes, stats.crashes as u64);
            reg.add(0, Counter::TasksMigrated, stats.tasks_migrated as u64);
            reg.add(0, Counter::TasksReexecuted, stats.tasks_reexecuted as u64);
            reg.add(0, Counter::KernelFailures, stats.kernel_failures as u64);
            reg.add(0, Counter::CorruptionsDetected, stats.corruptions_detected as u64);
            reg.add(0, Counter::CorruptionsHealed, stats.corruptions_healed as u64);
            reg.add(0, Counter::NacksSent, stats.nacks_sent as u64);
        }
        Ok(DistOutcome {
            stores,
            exec_rank: cur_exec,
            comm,
            stats,
            makespan: now,
            events,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::graph::{TaskClass, TaskSpec};
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    use std::sync::Mutex;

    fn spec(priority: usize) -> TaskSpec {
        TaskSpec {
            class: TaskClass::Other,
            priority,
            writes: None,
            flops: 0.0,
        }
    }

    fn chain(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..n {
            g.add_task(spec(i));
        }
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, DataRef { i: 0, j: 0 }, 0);
        }
        g
    }

    /// Chain 0 → 1 → … → n−1 must execute in exact order.
    #[test]
    fn chain_executes_in_order() {
        let g = chain(100);
        let order = Mutex::new(Vec::new());
        Engine::new(&g)
            .run(&EngineConfig::new(4), |_w, t| order.lock().unwrap().push(t))
            .unwrap();
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// Every task runs exactly once, even with wide fan-out.
    #[test]
    fn fanout_runs_each_task_once() {
        let width = 500;
        let mut g = TaskGraph::new();
        let root = g.add_task(spec(0));
        let sink = g.add_task(spec(2));
        for _ in 0..width {
            let mid = g.add_task(spec(1));
            g.add_edge(root, mid, DataRef { i: 0, j: 0 }, 0);
            g.add_edge(mid, sink, DataRef { i: 0, j: 0 }, 0);
        }
        let counts: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        Engine::new(&g)
            .run(&EngineConfig::new(8), |_w, t| {
                counts[t].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        for (t, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "task {t} ran wrong number of times"
            );
        }
    }

    /// Dependencies are respected: a parent's effect is visible to children.
    #[test]
    fn dependency_happens_before() {
        // Layered graph: each layer sums the previous layer's value + 1.
        let layers = 50;
        let width = 8;
        let mut g = TaskGraph::new();
        let mut prev: Vec<TaskId> = (0..width).map(|_| g.add_task(spec(0))).collect();
        for l in 1..layers {
            let cur: Vec<TaskId> = (0..width).map(|_| g.add_task(spec(l))).collect();
            for &p in &prev {
                for &c in &cur {
                    g.add_edge(p, c, DataRef { i: 0, j: 0 }, 0);
                }
            }
            prev = cur;
        }
        let level = AtomicU64::new(0);
        let violations = AtomicUsize::new(0);
        // Record the maximum "wave" seen; a child running before any parent
        // would observe a lower wave than required.
        let task_layer: Vec<usize> = (0..g.len()).map(|t| g.spec(t).priority).collect();
        Engine::new(&g)
            .run(&EngineConfig::new(8), |_w, t| {
                let seen = level.load(Ordering::SeqCst);
                if (task_layer[t] as u64) < seen.saturating_sub(1) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                level.fetch_max(task_layer[t] as u64, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_graph_ok() {
        let g = TaskGraph::new();
        Engine::new(&g)
            .run(&EngineConfig::new(4), |_w, _t| panic!("no tasks"))
            .unwrap();
    }

    #[test]
    fn single_thread_ok() {
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(0));
        let b = g.add_task(spec(1));
        g.add_edge(a, b, DataRef { i: 0, j: 0 }, 0);
        let order = Mutex::new(Vec::new());
        Engine::new(&g)
            .run(&EngineConfig::new(1), |_w, t| order.lock().unwrap().push(t))
            .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec![a, b]);
    }

    /// A panicking kernel must not hang the pool: the run drains, every
    /// task is retired, and the first panic is reported — with and
    /// without an external cancellation token, which observes the drain.
    #[test]
    fn panic_cancels_and_drains() {
        let g = chain(64);
        let ran = AtomicUsize::new(0);
        let cancel = AtomicBool::new(false);
        let err = Engine::new(&g)
            .run(&EngineConfig::new(4).with_cancel(&cancel), |_w, t| {
                ran.fetch_add(1, Ordering::SeqCst);
                if t == 5 {
                    panic!("kernel exploded on task {t}");
                }
            })
            .unwrap_err();
        let EngineError::Panic(p) = err else {
            panic!("expected a panic error, got {err:?}")
        };
        assert_eq!(p.task, 5);
        assert!(p.message.contains("exploded"), "{}", p.message);
        assert!(
            cancel.load(Ordering::SeqCst),
            "the external token must observe the panic"
        );
        // Tasks after the panic drained without running their kernels.
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    /// Without a token ([`NoCancel`]) a panic still drains via the
    /// engine's internal flag.
    #[test]
    fn panic_drains_without_external_token() {
        let g = chain(64);
        let ran = AtomicUsize::new(0);
        let err = Engine::new(&g)
            .run(&EngineConfig::new(4), |_w, t| {
                ran.fetch_add(1, Ordering::SeqCst);
                if t == 5 {
                    panic!("kernel exploded on task {t}");
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Panic(ref p) if p.task == 5),
            "{err:?}"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    /// Caller-side cancellation stops kernels but still terminates Ok.
    #[test]
    fn caller_cancel_skips_remaining_kernels() {
        let g = chain(64);
        let ran = AtomicUsize::new(0);
        let cancel = AtomicBool::new(false);
        Engine::new(&g)
            .run(&EngineConfig::new(4).with_cancel(&cancel), |_w, t| {
                ran.fetch_add(1, Ordering::SeqCst);
                if t == 9 {
                    cancel.store(true, Ordering::SeqCst);
                }
            })
            .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 10);
    }

    /// Observed execution: every task gets a span with sane timestamps,
    /// and the run itself is unaffected.
    #[test]
    fn observed_execution_captures_spans() {
        let g = chain(32);
        let obs = ExecObs::new(g.len(), 2);
        let ran = AtomicUsize::new(0);
        Engine::new(&g)
            .run(&EngineConfig::new(2).with_obs(&obs), |_wid, _t| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 32);
        let rep = obs.finish(&g);
        assert_eq!(rep.trace.records.len(), 32);
        for r in &rep.trace.records {
            assert!(r.queued <= r.start + 1e-12);
            assert!(r.start <= r.end);
            assert!(r.proc < 2);
        }
        // Records come back sorted by end time.
        for w in rep.trace.records.windows(2) {
            assert!(w[0].end <= w[1].end);
        }
        assert_eq!(rep.steals.len(), 2);
    }

    /// An optional observer threads through as `Option<&ExecObs>`.
    #[test]
    fn optional_observer_composes() {
        let g = chain(16);
        let obs: Option<ExecObs> = None;
        Engine::new(&g)
            .run(&EngineConfig::new(2).with_obs(obs.as_ref()), |_w, _t| {})
            .unwrap();
    }

    #[test]
    fn cycle_is_a_typed_error() {
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(0));
        let b = g.add_task(spec(0));
        g.add_edge(a, b, DataRef { i: 0, j: 0 }, 0);
        g.add_edge(b, a, DataRef { i: 0, j: 0 }, 0);
        let err = Engine::new(&g)
            .run(&EngineConfig::new(2), |_w, _t| {})
            .unwrap_err();
        assert_eq!(err, EngineError::Cycle);
        assert!(format!("{err}").contains("cycle"));
    }

    // ---------------- distributed engine ----------------

    fn dspec(priority: usize, writes: DataRef) -> TaskSpec {
        TaskSpec {
            class: TaskClass::Other,
            priority,
            writes: Some(writes),
            flops: 0.0,
        }
    }

    fn dist_chain(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        for k in 0..n {
            g.add_task(dspec(k, DataRef { i: k, j: 0 }));
        }
        for k in 0..n - 1 {
            g.add_edge(k, k + 1, DataRef { i: k, j: 0 }, 8);
        }
        g
    }

    fn run_chain(
        n: usize,
        nprocs: usize,
        cfg: &DistConfig<'_>,
    ) -> Result<DistOutcome<i64>, EngineError> {
        let g = dist_chain(n);
        let exec: Vec<usize> = (0..n).map(|k| k % nprocs).collect();
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
        DistEngine::new(&g, nprocs, &exec).run(initial, cfg, |t, ctx| {
            let v = if t == 0 {
                1
            } else {
                *ctx.get(Some(t - 1), DataRef { i: t - 1, j: 0 }) + 1
            };
            ctx.put(DataRef { i: t, j: 0 }, v);
            v
        })
    }

    fn chain_result(out: &DistOutcome<i64>, n: usize) -> i64 {
        let last = n - 1;
        out.stores[out.exec_rank[last]][&DataRef { i: last, j: 0 }]
    }

    /// Perfect-network run: correct data, exact comm accounting (one
    /// message per cross-rank edge), zero fault activity.
    #[test]
    fn fault_free_chain_counts_comm() {
        let n = 12;
        let out = run_chain(n, 4, &DistConfig::default()).unwrap();
        assert_eq!(chain_result(&out, n), n as i64);
        assert_eq!(out.comm.messages, (n - 1) as u64);
        assert_eq!(out.comm.bytes, 8 * (n - 1) as u64);
        assert_eq!(out.stats.retransmissions, 0);
        assert_eq!(out.stats.crashes, 0);
        assert!(out.makespan > 0.0);
        assert!(out.trace.is_none(), "trace must be opt-in");
    }

    /// The virtual-time trace capability records one span per task on
    /// the executing rank, compatible with the shared Trace toolkit.
    #[test]
    fn dist_trace_capability_records_every_task() {
        let n = 12;
        let nprocs = 4;
        let cfg = DistConfig {
            ft: None,
            record_trace: true,
            sched: None,
            metrics: None,
        };
        let out = run_chain(n, nprocs, &cfg).unwrap();
        let trace = out.trace.expect("trace was requested");
        assert_eq!(trace.records.len(), n);
        for r in &trace.records {
            assert!(r.proc < nprocs);
            assert!(r.start <= r.end);
            assert!(r.end <= out.makespan + 1e-12);
        }
        // Busy time partitions across ranks like any other trace.
        let busy: f64 = trace.busy_per_proc(nprocs).iter().sum();
        assert!(
            (busy - n as f64).abs() < 1e-9,
            "1s per task in virtual time, got {busy}"
        );
    }

    /// FT + trace compose: a crashed-and-recovered run records spans for
    /// the re-executions too.
    #[test]
    fn dist_trace_composes_with_fault_layer() {
        use crate::fault::FaultPlan;
        let ft = FtConfig::with_plan(FaultPlan::new(1).with_crash(1, 6.0));
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: true,
            sched: None,
            metrics: None,
        };
        let n = 12;
        let out = run_chain(n, 4, &cfg).unwrap();
        assert_eq!(chain_result(&out, n), n as i64);
        assert_eq!(out.stats.crashes, 1);
        let trace = out.trace.expect("trace was requested");
        assert!(
            trace.records.len() >= n,
            "re-executed tasks add records: {} < {n}",
            trace.records.len()
        );
        assert!(
            out.comm.messages > out.stats.messages_sent as u64 - 1,
            "comm counts include retransmissions"
        );
    }

    // ---------------- integrity layer ----------------

    /// Self-checking payload for integrity tests: value + mirror. A
    /// corruption flips a bit of the value only, so `verify` (value ==
    /// mirror) catches every injected flip — the engine-level analogue
    /// of a sealed tile digest.
    fn flip_value(p: &mut (i64, i64), r: u64) -> bool {
        p.0 ^= 1 << (r % 63);
        true
    }

    fn mirror_ok(p: &(i64, i64)) -> bool {
        p.0 == p.1
    }

    fn run_sealed_chain(
        n: usize,
        nprocs: usize,
        cfg: &DistConfig<'_>,
    ) -> Result<DistOutcome<(i64, i64)>, EngineError> {
        let g = dist_chain(n);
        let exec: Vec<usize> = (0..n).map(|k| k % nprocs).collect();
        let initial: Vec<HashMap<DataRef, (i64, i64)>> = vec![HashMap::new(); nprocs];
        let hooks = IntegrityHooks {
            corrupt: &flip_value,
            verify: &mirror_ok,
        };
        DistEngine::new(&g, nprocs, &exec).run_with_integrity(
            initial,
            cfg,
            Some(&hooks),
            |t, ctx| {
                let v = if t == 0 {
                    1
                } else {
                    ctx.get(Some(t - 1), DataRef { i: t - 1, j: 0 }).0 + 1
                };
                ctx.put(DataRef { i: t, j: 0 }, (v, v));
                (v, v)
            },
        )
    }

    /// A store strike between a writer and its local reader is caught at
    /// the reader's read boundary and healed by re-executing the writer;
    /// the final data matches the fault-free run bit for bit.
    #[test]
    fn store_corruption_is_detected_at_read_boundary_and_healed() {
        let n = 4;
        let clean = run_sealed_chain(n, 1, &DistConfig::default()).unwrap();
        let ft = FtConfig::with_plan(FaultPlan::new(5).with_store_corruption(0, 1, 0, 2.5));
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: false,
            sched: None,
            metrics: None,
        };
        let out = run_sealed_chain(n, 1, &cfg).unwrap();
        assert_eq!(out.stats.store_corruptions_injected, 1);
        assert_eq!(out.stats.corruptions_detected, 1);
        assert_eq!(out.stats.corruptions_healed, 1);
        assert_eq!(out.stats.tasks_reexecuted, 1);
        assert_eq!(
            out.stores, clean.stores,
            "healed data must be bit-identical"
        );
        assert!(out.makespan > clean.makespan, "healing costs virtual time");
        assert!(out.events.iter().any(|e| matches!(
            e,
            RunEvent::CorruptionDetected {
                rank: 0,
                i: 1,
                j: 0,
                ..
            }
        )));
        assert!(out.events.iter().any(|e| matches!(
            e,
            RunEvent::Healed {
                rank: 0,
                i: 1,
                j: 0,
                ..
            }
        )));
    }

    /// A tile corrupted after its last read has no later read boundary;
    /// the final store sweep catches and heals it before the outcome is
    /// released.
    #[test]
    fn final_sweep_heals_corruption_after_last_read() {
        let n = 4;
        let nprocs = 2;
        let clean = run_sealed_chain(n, nprocs, &DistConfig::default()).unwrap();
        // (0, 0) on rank 0 is only ever read remotely (by task 1 via a
        // logged message), so a strike after task 0 completes is
        // invisible to every read boundary.
        let ft = FtConfig::with_plan(FaultPlan::new(9).with_store_corruption(0, 0, 0, 1.5));
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: false,
            sched: None,
            metrics: None,
        };
        let out = run_sealed_chain(n, nprocs, &cfg).unwrap();
        assert_eq!(out.stats.store_corruptions_injected, 1);
        assert_eq!(out.stats.corruptions_detected, 1);
        assert_eq!(out.stats.corruptions_healed, 1);
        assert_eq!(out.stores, clean.stores, "swept data must be bit-identical");
        assert!(out.events.iter().any(|e| matches!(
            e,
            RunEvent::Healed {
                rank: 0,
                i: 0,
                j: 0,
                ..
            }
        )));
    }

    /// Corrupted message copies are rejected at delivery (never reach an
    /// inbox), NACKed, and retransmitted until a clean copy lands; the
    /// chain still computes the exact result.
    #[test]
    fn message_corruption_is_nacked_and_retransmitted() {
        let n = 12;
        let ft = FtConfig::with_plan(FaultPlan::new(21).with_message_corruption(0.5));
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: false,
            sched: None,
            metrics: None,
        };
        let out = run_sealed_chain(n, 4, &cfg).unwrap();
        let last = DataRef { i: n - 1, j: 0 };
        assert_eq!(
            out.stores[out.exec_rank[n - 1]][&last],
            (n as i64, n as i64)
        );
        assert!(
            out.stats.messages_corrupted > 0,
            "p=0.5 over 11 edges must strike"
        );
        assert_eq!(
            out.stats.corruptions_detected, out.stats.messages_corrupted,
            "zero false negatives: every injected flip is caught"
        );
        assert_eq!(out.stats.nacks_sent, out.stats.corruptions_detected);
        assert!(out.stats.retransmissions >= 1);
        assert_eq!(out.stats.sends_abandoned, 0);
        assert_eq!(
            out.comm.messages,
            (out.stats.messages_sent + out.stats.retransmissions) as u64
        );
        // Determinism: the same seed reproduces the identical fault
        // sequence and counters.
        let again = run_sealed_chain(n, 4, &cfg).unwrap();
        assert_eq!(again.stats.messages_corrupted, out.stats.messages_corrupted);
        assert_eq!(again.makespan, out.makespan);
    }

    /// A lossy-but-uncorrupted network never trips the checksum layer:
    /// zero false positives across drops, duplicates and lost acks.
    #[test]
    fn integrity_layer_has_zero_false_positives() {
        let n = 12;
        let plan = FaultPlan::new(3)
            .with_drops(0.3)
            .with_duplicates(0.3)
            .with_ack_drops(0.3);
        let ft = FtConfig::with_plan(plan);
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: false,
            sched: None,
            metrics: None,
        };
        let out = run_sealed_chain(n, 4, &cfg).unwrap();
        let last = DataRef { i: n - 1, j: 0 };
        assert_eq!(
            out.stores[out.exec_rank[n - 1]][&last],
            (n as i64, n as i64)
        );
        assert_eq!(out.stats.messages_corrupted, 0);
        assert_eq!(out.stats.corruptions_detected, 0);
        assert_eq!(out.stats.nacks_sent, 0);
        assert_eq!(out.stats.corruptions_healed, 0);
    }

    /// Healing is bounded: with retries disabled the first detection
    /// escalates to a typed [`FtError::Integrity`], never a panic.
    #[test]
    fn heal_escalation_is_a_typed_error() {
        let mut ft = FtConfig::with_plan(FaultPlan::new(5).with_store_corruption(0, 1, 0, 2.5));
        ft.retry.max_heal_retries = 0;
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: false,
            sched: None,
            metrics: None,
        };
        let err = run_sealed_chain(4, 1, &cfg).unwrap_err();
        match err {
            EngineError::Fault(FtError::Integrity(e)) => {
                assert_eq!(e.rank, 0);
                assert_eq!(e.data, (1, 0));
                assert_eq!(e.attempts, 0);
            }
            other => panic!("expected integrity escalation, got {other:?}"),
        }
    }

    /// Without hooks the corruption entries of a plan are inert: the
    /// engine has no way to flip bits of an opaque payload.
    #[test]
    fn corruption_plan_is_inert_without_hooks() {
        let n = 6;
        let plan = FaultPlan::new(4)
            .with_message_corruption(0.9)
            .with_store_corruption(0, 1, 0, 2.5);
        let ft = FtConfig::with_plan(plan);
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: false,
            sched: None,
            metrics: None,
        };
        let out = run_chain(n, 2, &cfg).unwrap();
        assert_eq!(chain_result(&out, n), n as i64);
        assert_eq!(out.stats.messages_corrupted, 0);
        assert_eq!(out.stats.store_corruptions_injected, 0);
        assert_eq!(out.stats.corruptions_detected, 0);
    }

    /// Integrity composes with the crash fault layer and the trace
    /// capability in one run.
    #[test]
    fn integrity_composes_with_crashes_and_trace() {
        let n = 12;
        let plan = FaultPlan::new(13)
            .with_message_corruption(0.3)
            .with_store_corruption(0, 0, 0, 1.5)
            .with_crash(1, 6.0);
        let ft = FtConfig::with_plan(plan);
        let cfg = DistConfig {
            ft: Some(&ft),
            record_trace: true,
            sched: None,
            metrics: None,
        };
        let out = run_sealed_chain(n, 4, &cfg).unwrap();
        let last = DataRef { i: n - 1, j: 0 };
        assert_eq!(
            out.stores[out.exec_rank[n - 1]][&last],
            (n as i64, n as i64)
        );
        assert_eq!(out.stats.crashes, 1);
        assert!(out.trace.is_some());
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Crash { .. })));
    }

    /// Behaviour of the distributed loop: message routing, parking of
    /// early arrivals, and the fault layer.
    mod dist_behaviour {
        use super::*;
        use super::dspec as spec;
        use crate::fault::RetryConfig;

        fn run_dist<P: Clone, F: Fn(TaskId, &mut RankCtx<'_, P>) -> P>(
            graph: &TaskGraph,
            nprocs: usize,
            exec: &[usize],
            initial: Vec<HashMap<DataRef, P>>,
            body: F,
        ) -> Vec<HashMap<DataRef, P>> {
            DistEngine::new(graph, nprocs, exec)
                .run(initial, &DistConfig::default(), body)
                .expect("run must succeed")
                .stores
        }

        /// Sum-chain across ranks: task k computes v_k = v_{k-1} + 1, each on
        /// a different rank; the payload must travel through every rank.
        #[test]
        fn chain_across_ranks() {
            let n = 12usize;
            let nprocs = 4usize;
            let mut g = TaskGraph::new();
            for k in 0..n {
                g.add_task(spec(k, DataRef { i: k, j: 0 }));
            }
            for k in 0..n - 1 {
                g.add_edge(k, k + 1, DataRef { i: k, j: 0 }, 8);
            }
            let exec: Vec<usize> = (0..n).map(|k| k % nprocs).collect();
            let mut initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
            initial[0].insert(DataRef { i: 0, j: 0 }, 0); // seed... overwritten by task 0
            let stores = run_dist(&g, nprocs, &exec, initial, |t, ctx| {
                let v = if t == 0 {
                    1
                } else {
                    // the predecessor's payload was shipped (or is local)
                    *ctx.get(Some(t - 1), DataRef { i: t - 1, j: 0 }) + 1
                };
                ctx.put(DataRef { i: t, j: 0 }, v);
                v
            });
            // task n−1 ran on rank (n−1)%nprocs and stored v = n
            let last_rank = (n - 1) % nprocs;
            assert_eq!(stores[last_rank][&DataRef { i: n - 1, j: 0 }], n as i64);
        }

        /// Broadcast: one producer, many consumers on all ranks; every
        /// consumer must observe the produced value.
        #[test]
        fn broadcast_to_all_ranks() {
            let nprocs = 5usize;
            let consumers = 16usize;
            let mut g = TaskGraph::new();
            let root = g.add_task(spec(0, DataRef { i: 0, j: 0 }));
            let data = DataRef { i: 0, j: 0 };
            for c in 0..consumers {
                let t = g.add_task(spec(1, DataRef { i: 1 + c, j: 0 }));
                g.add_edge(root, t, data, 8);
            }
            let mut exec = vec![0usize];
            exec.extend((0..consumers).map(|c| c % nprocs));
            let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
            let stores = run_dist(&g, nprocs, &exec, initial, move |t, ctx| {
                if t == 0 {
                    ctx.put(data, 42);
                    42
                } else {
                    let v = *ctx.get(Some(0), data);
                    ctx.put(DataRef { i: t, j: 0 }, v * 2);
                    v * 2
                }
            });
            let mut seen = 0;
            for s in &stores {
                for (d, v) in s {
                    if d.i >= 1 {
                        assert_eq!(*v, 84);
                        seen += 1;
                    }
                }
            }
            assert_eq!(seen, consumers);
        }

        /// Out-of-order arrivals: two producers on different ranks feed one
        /// consumer; deliveries land in whatever virtual-time order the
        /// latencies dictate and must be held per consumer until it is ready.
        #[test]
        fn out_of_order_messages_parked() {
            let mut g = TaskGraph::new();
            let a = g.add_task(spec(0, DataRef { i: 0, j: 0 }));
            let b = g.add_task(spec(0, DataRef { i: 1, j: 0 }));
            let c = g.add_task(spec(1, DataRef { i: 2, j: 0 }));
            g.add_edge(a, c, DataRef { i: 0, j: 0 }, 8);
            g.add_edge(b, c, DataRef { i: 1, j: 0 }, 8);
            let exec = vec![0, 1, 2];
            let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 3];
            let stores = run_dist(&g, 3, &exec, initial, move |t, ctx| match t {
                0 => {
                    ctx.put(DataRef { i: 0, j: 0 }, 7);
                    7
                }
                1 => {
                    ctx.put(DataRef { i: 1, j: 0 }, 11);
                    11
                }
                _ => {
                    let x = *ctx.get(Some(0), DataRef { i: 0, j: 0 });
                    let y = *ctx.get(Some(1), DataRef { i: 1, j: 0 });
                    ctx.put(DataRef { i: 2, j: 0 }, x * y);
                    x * y
                }
            });
            assert_eq!(stores[2][&DataRef { i: 2, j: 0 }], 77);
        }

        /// Two consumers of the same datum on one rank, with one consumer
        /// gated behind a slower producer: each consumer's copy must be held
        /// independently. (Under the old thread engine the shared parking
        /// table was a multiset for exactly this scenario; the unified
        /// engine's per-consumer inboxes make it structural.)
        #[test]
        fn duplicate_parked_messages_are_not_lost() {
            let mut g = TaskGraph::new();
            let fast = g.add_task(spec(0, DataRef { i: 0, j: 0 })); // rank 1
            let slow = g.add_task(spec(0, DataRef { i: 1, j: 0 })); // rank 2
            // rank 0's first task waits on `slow`, so both copies of `fast`'s
            // payload arrive before their consumers run.
            let gate = g.add_task(spec(1, DataRef { i: 2, j: 0 }));
            let c1 = g.add_task(spec(2, DataRef { i: 3, j: 0 }));
            let c2 = g.add_task(spec(3, DataRef { i: 4, j: 0 }));
            let d_fast = DataRef { i: 0, j: 0 };
            let d_slow = DataRef { i: 1, j: 0 };
            g.add_edge(slow, gate, d_slow, 8);
            g.add_edge(fast, c1, d_fast, 8);
            g.add_edge(fast, c2, d_fast, 8);
            g.add_edge(gate, c1, DataRef { i: 2, j: 0 }, 0);

            let exec = vec![1, 2, 0, 0, 0];
            let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 3];
            let stores = run_dist(&g, 3, &exec, initial, move |t, ctx| match t {
                0 => {
                    ctx.put(d_fast, 5);
                    5
                }
                1 => {
                    ctx.put(d_slow, 7);
                    7
                }
                2 => {
                    let v = *ctx.get(Some(1), d_slow);
                    ctx.put(DataRef { i: 2, j: 0 }, v);
                    v
                }
                3 => {
                    let v = *ctx.get(Some(0), d_fast) * 10;
                    ctx.put(DataRef { i: 3, j: 0 }, v);
                    v
                }
                _ => {
                    let v = *ctx.get(Some(0), d_fast) * 100;
                    ctx.put(DataRef { i: 4, j: 0 }, v);
                    v
                }
            });
            assert_eq!(stores[0][&DataRef { i: 3, j: 0 }], 50);
            assert_eq!(stores[0][&DataRef { i: 4, j: 0 }], 500);
        }

        // ---------------- fault layer ----------------

        fn run_chain_ft(
            n: usize,
            nprocs: usize,
            cfg: &FtConfig,
        ) -> Result<DistOutcome<i64>, EngineError> {
            let dcfg = DistConfig { ft: Some(cfg), record_trace: false, sched: None, metrics: None };
            run_chain(n, nprocs, &dcfg)
        }

        #[test]
        fn ft_fault_free_matches_default_config() {
            let out = run_chain_ft(12, 4, &FtConfig::fault_free()).unwrap();
            assert_eq!(chain_result(&out, 12), 12);
            assert_eq!(out.stats.retransmissions, 0);
            assert_eq!(out.stats.crashes, 0);
            assert!(out.makespan > 0.0);
        }

        #[test]
        fn ft_survives_drops_duplicates_and_jitter() {
            let plan = FaultPlan::new(42)
                .with_drops(0.35)
                .with_duplicates(0.30)
                .with_ack_drops(0.25)
                .with_jitter(2.0);
            let cfg = FtConfig::with_plan(plan);
            let out = run_chain_ft(16, 4, &cfg).unwrap();
            assert_eq!(chain_result(&out, 16), 16, "faults must not corrupt the data");
            assert!(out.stats.retransmissions > 0, "drops at 35% must force retransmits");
            assert!(out.stats.messages_dropped > 0);
        }

        #[test]
        fn ft_recovers_from_mid_run_crash() {
            // By t = 6.0 rank 1 has completed task 1 (and its message);
            // killing it forces migration to rank 2 and re-execution.
            let cfg = FtConfig::with_plan(FaultPlan::new(1).with_crash(1, 6.0));
            let out = run_chain_ft(12, 4, &cfg).unwrap();
            assert_eq!(chain_result(&out, 12), 12, "crash recovery must preserve the data");
            assert_eq!(out.stats.crashes, 1);
            assert!(out.stats.tasks_migrated >= 3, "rank 1 owned tasks 1, 5, 9");
            assert!(out.stats.tasks_reexecuted >= 1, "task 1 was already done");
            assert!(out.exec_rank.iter().all(|&r| r != 1), "nothing may stay on the dead rank");
            // Re-execution happens in parallel on the survivor, so a chain's
            // makespan may be unchanged — but it can never shrink.
            let baseline = run_chain_ft(12, 4, &FtConfig::fault_free()).unwrap();
            assert!(out.makespan >= baseline.makespan);
        }

        #[test]
        fn ft_crash_plus_lossy_network() {
            let plan = FaultPlan::new(9)
                .with_drops(0.25)
                .with_duplicates(0.2)
                .with_jitter(1.0)
                .with_crash(2, 8.0);
            let out = run_chain_ft(16, 4, &FtConfig::with_plan(plan)).unwrap();
            assert_eq!(chain_result(&out, 16), 16);
            assert_eq!(out.stats.crashes, 1);
        }

        #[test]
        fn ft_double_crash_still_recovers() {
            let plan = FaultPlan::new(4).with_crash(1, 5.0).with_crash(2, 11.0);
            let out = run_chain_ft(12, 4, &FtConfig::with_plan(plan)).unwrap();
            assert_eq!(chain_result(&out, 12), 12);
            assert_eq!(out.stats.crashes, 2);
        }

        /// Every surviving crash is paired with a recovery event naming a
        /// live survivor, in virtual-time order; bytes are accounted.
        #[test]
        fn ft_events_pair_crashes_with_recoveries() {
            let plan = FaultPlan::new(4).with_drops(0.2).with_crash(1, 5.0).with_crash(2, 11.0);
            let out = run_chain_ft(12, 4, &FtConfig::with_plan(plan)).unwrap();
            assert_eq!(out.events.len(), 2 * out.stats.crashes);
            let mut last_at = 0.0_f64;
            for pair in out.events.chunks(2) {
                let RunEvent::Crash { rank, at } = pair[0] else {
                    panic!("even-index event must be a crash: {:?}", pair[0]);
                };
                let RunEvent::Recovery { failed, survivor, at: rat } = pair[1] else {
                    panic!("odd-index event must be a recovery: {:?}", pair[1]);
                };
                assert_eq!(failed, rank, "recovery must name the crashed rank");
                assert_ne!(survivor, rank);
                assert_eq!(at, rat, "recovery is immediate in virtual time");
                assert!(at >= last_at);
                last_at = at;
            }
            assert!(out.stats.bytes_sent >= 8 * out.stats.messages_sent as u64);
        }

        #[test]
        fn ft_all_ranks_crashed_is_an_error() {
            let plan = FaultPlan::new(0).with_crash(0, 2.0).with_crash(1, 3.0);
            let err = run_chain_ft(8, 2, &FtConfig::with_plan(plan)).unwrap_err();
            assert_eq!(err, EngineError::Fault(FtError::AllRanksCrashed));
        }

        #[test]
        fn ft_kernel_failures_retry_then_succeed() {
            let cfg = FtConfig::with_plan(FaultPlan::new(0).with_kernel_failure(3, 2));
            let out = run_chain_ft(8, 2, &cfg).unwrap();
            assert_eq!(chain_result(&out, 8), 8);
            assert_eq!(out.stats.kernel_failures, 2);
        }

        #[test]
        fn ft_kernel_retries_exhaust() {
            let mut cfg = FtConfig::with_plan(FaultPlan::new(0).with_kernel_failure(3, 99));
            cfg.retry = RetryConfig { max_kernel_retries: 3, ..RetryConfig::default() };
            let err = run_chain_ft(8, 2, &cfg).unwrap_err();
            assert_eq!(err, EngineError::Fault(FtError::KernelRetriesExhausted { task: 3 }));
        }

        #[test]
        fn ft_is_deterministic() {
            let mk = || {
                FtConfig::with_plan(
                    FaultPlan::new(77)
                        .with_drops(0.3)
                        .with_duplicates(0.25)
                        .with_ack_drops(0.2)
                        .with_jitter(1.5)
                        .with_crash(1, 7.0),
                )
            };
            let a = run_chain_ft(14, 4, &mk()).unwrap();
            let b = run_chain_ft(14, 4, &mk()).unwrap();
            assert_eq!(chain_result(&a, 14), chain_result(&b, 14));
            assert_eq!(a.stats, b.stats, "same seed must replay the same faults");
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.exec_rank, b.exec_rank);
        }

        #[test]
        fn ft_fan_out_fan_in_under_faults() {
            // root → 10 middles (round-robin ranks) → sink summing them all;
            // exercises broadcast replay and many-input gathering.
            let width = 10usize;
            let nprocs = 4usize;
            let mut g = TaskGraph::new();
            let root = g.add_task(spec(0, DataRef { i: 0, j: 0 }));
            let sink_data = DataRef { i: 99, j: 0 };
            let mut mids = Vec::new();
            for m in 0..width {
                let t = g.add_task(spec(1, DataRef { i: 1 + m, j: 0 }));
                g.add_edge(root, t, DataRef { i: 0, j: 0 }, 8);
                mids.push(t);
            }
            let sink = g.add_task(spec(2, sink_data));
            for (m, &t) in mids.iter().enumerate() {
                g.add_edge(t, sink, DataRef { i: 1 + m, j: 0 }, 8);
            }
            let mut exec = vec![0usize];
            exec.extend((0..width).map(|m| m % nprocs));
            exec.push(0);
            let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
            let plan = FaultPlan::new(5)
                .with_drops(0.3)
                .with_duplicates(0.3)
                .with_jitter(1.0)
                .with_crash(2, 3.0);
            let ft = FtConfig::with_plan(plan);
            let dcfg = DistConfig { ft: Some(&ft), record_trace: false, sched: None, metrics: None };
            let out = DistEngine::new(&g, nprocs, &exec)
                .run(initial, &dcfg, |t, ctx| {
                    if t == root {
                        ctx.put(DataRef { i: 0, j: 0 }, 7);
                        7
                    } else if t == sink {
                        let mut sum = 0;
                        for m in 0..width {
                            sum += *ctx.get(Some(1 + m), DataRef { i: 1 + m, j: 0 });
                        }
                        ctx.put(sink_data, sum);
                        sum
                    } else {
                        let v = *ctx.get(Some(root), DataRef { i: 0, j: 0 }) * 2;
                        ctx.put(DataRef { i: t, j: 0 }, v);
                        v
                    }
                })
                .unwrap();
            let v = out.stores[out.exec_rank[sink]][&sink_data];
            assert_eq!(v, (7 * 2) * width as i64);
        }

        #[test]
        fn ft_many_seeds_never_corrupt() {
            for seed in 0..25u64 {
                let plan = FaultPlan::new(seed)
                    .with_drops(0.3)
                    .with_duplicates(0.25)
                    .with_ack_drops(0.2)
                    .with_jitter(1.5)
                    .with_crash((seed % 3) as usize + 1, 4.0 + (seed % 7) as f64);
                let out = run_chain_ft(12, 4, &FtConfig::with_plan(plan))
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert_eq!(chain_result(&out, 12), 12, "seed {seed} corrupted the chain");
            }
        }

        /// A task whose input was never wired panics with the diagnostic.
        #[test]
        fn missing_edge_panics_with_diagnostic() {
            let mut g = TaskGraph::new();
            let _a = g.add_task(spec(0, DataRef { i: 0, j: 0 }));
            let _b = g.add_task(spec(1, DataRef { i: 1, j: 0 }));
            // no edge a → b although b reads a's datum
            let exec = vec![0, 1];
            let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 2];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = DistEngine::new(&g, 2, &exec).run(initial, &DistConfig::default(), |t, ctx| {
                    if t == 0 {
                        ctx.put(DataRef { i: 0, j: 0 }, 1);
                        1
                    } else {
                        *ctx.get(None, DataRef { i: 0, j: 0 }) // not local on rank 1!
                    }
                });
            }));
            assert!(result.is_err(), "missing dependency must be caught");
        }
    }

    /// Misconfiguration is a typed error ([`EngineError`]), not a panic.
    #[test]
    fn invalid_configs_are_typed_errors() {
        let g = dist_chain(4);
        let initial4: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 4];
        let body = |_t: TaskId, _ctx: &mut RankCtx<'_, i64>| 0i64;

        // Wrong rank-map length.
        let err = DistEngine::new(&g, 4, &[0, 1])
            .run(initial4.clone(), &DistConfig::default(), body)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RankMapLength {
                expected: 4,
                got: 2
            }
        );

        // Wrong store count.
        let err = DistEngine::new(&g, 4, &[0, 1, 2, 3])
            .run(vec![HashMap::new(); 2], &DistConfig::default(), body)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::StoreCount {
                expected: 4,
                got: 2
            }
        );

        // Rank out of range.
        let err = DistEngine::new(&g, 4, &[0, 1, 2, 9])
            .run(initial4.clone(), &DistConfig::default(), body)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::InvalidRank {
                task: 3,
                rank: 9,
                nprocs: 4
            }
        );

        // Crash of a nonexistent rank.
        use crate::fault::FaultPlan;
        let ft = FtConfig::with_plan(FaultPlan::new(0).with_crash(7, 1.0));
        let err = DistEngine::new(&g, 4, &[0, 1, 2, 3])
            .run(
                initial4,
                &DistConfig {
                    ft: Some(&ft),
                    record_trace: false,
                    sched: None,
                    metrics: None,
                },
                body,
            )
            .unwrap_err();
        assert_eq!(err, EngineError::InvalidCrashRank { rank: 7, nprocs: 4 });
    }

    /// All errors render a useful message.
    #[test]
    fn engine_errors_display() {
        let cases: Vec<(EngineError, &str)> = vec![
            (EngineError::Cycle, "cycle"),
            (
                EngineError::Panic(TaskPanic {
                    task: 3,
                    message: "boom".into(),
                }),
                "task 3 panicked: boom",
            ),
            (
                EngineError::RankMapLength {
                    expected: 4,
                    got: 2,
                },
                "one rank per task",
            ),
            (
                EngineError::StoreCount {
                    expected: 4,
                    got: 2,
                },
                "one store per rank",
            ),
            (
                EngineError::InvalidRank {
                    task: 1,
                    rank: 9,
                    nprocs: 4,
                },
                "invalid rank 9",
            ),
            (
                EngineError::InvalidCrashRank { rank: 7, nprocs: 4 },
                "invalid rank 7",
            ),
            (
                EngineError::Fault(FtError::AllRanksCrashed),
                "unrecoverable",
            ),
        ];
        for (e, needle) in cases {
            let msg = format!("{e}");
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }
}
