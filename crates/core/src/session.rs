//! One factorization session over the unified runtime engines.
//!
//! [`Session`] is the single entry point behind every TLR Cholesky
//! front-end in this crate. A session owns the whole per-attempt
//! pipeline — DAG build, tile placement (`plan_distribution` on
//! distributed runs), kernel dispatch, engine execution, and tile
//! gathering — plus the diagonal-shift retry driver that used to live
//! only on the shared-memory path. [`factorize`](crate::factorize::factorize)
//! is a one-call wrapper over a shared session.
//!
//! Capabilities compose instead of multiplying entry points: a
//! distributed session layers a fault plan with
//! [`with_fault_layer`](Session::with_fault_layer) and still reports
//! communication volume and (with
//! [`collect_trace`](FactorConfig::collect_trace)) a virtual-time trace,
//! all from one run. Every mode returns the same [`RunOutcome`]; absent
//! capabilities are `None`.
//!
//! The per-attempt pipeline is split into a *symbolic* phase — DAG
//! build, distribution mapping, batching, scheduler precomputation,
//! packaged as an immutable [`SymbolicPlan`] — and a *numeric* phase
//! that consumes a `&SymbolicPlan` ([`Session::run_with_plan`]).
//! [`Session::run`] remains the one-shot shim: plan (or fetch from an
//! attached [`PlanCache`]) then run. Repeated solves on one tile
//! structure therefore pay the symbolic cost once.

use crate::dag::TaskKind;
use crate::distributed::{gather_tiles, kernel_env, scatter_tiles, FtFactorOutcome};
use crate::drift::{DriftReport, DriftSpec};
use crate::factorize::{FactorConfig, FactorMetrics, FactorReport, IntegrityMode};
use crate::plan::{self, CacheEvents, PlanCache, PlanKey, SymbolicPlan};
use distribution::TileDistribution;
use parking_lot::{Mutex, RwLock};
use runtime::critical_path::critical_path;
use runtime::des::CommStats;
use runtime::engine::{
    DistConfig, DistEngine, DistOutcome, Engine, EngineConfig, EngineError, ExecObs,
    IntegrityHooks, Observe,
};
use runtime::fault::{FtConfig, FtError, IntegrityError};
use runtime::graph::{DataRef, TaskClass};
use runtime::obs::registry::{Counter, Gauge, Registry, RegistrySnapshot};
use runtime::trace::{ClassBreakdown, Trace};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tlr_compress::kernels::{
    gemm_kernel_ws, potrf_kernel, syrk_kernel_ws, trsm_kernel, KernelWorkspace,
};
use tlr_compress::{RankEvolution, RankSnapshot, SealedTile, Tile, TileDigest, TlrMatrix};
use tlr_linalg::CholeskyError;

/// Where a session executes.
enum Mode<'a> {
    /// Work-stealing thread pool in one address space
    /// ([`runtime::engine::Engine`]).
    Shared,
    /// Emulated distributed-memory ranks in virtual time
    /// ([`runtime::engine::DistEngine`]), optionally under a fault plan.
    Distributed {
        nprocs: usize,
        exec: &'a dyn TileDistribution,
        ft: Option<&'a FtConfig>,
    },
}

/// A configured TLR Cholesky run (shared-memory or distributed).
///
/// Build one with [`Session::shared`] or [`Session::distributed`],
/// optionally layer capabilities
/// ([`with_fault_layer`](Session::with_fault_layer)), then
/// [`run`](Session::run) it against a
/// matrix. The session is reusable: `run` borrows it immutably, so the
/// same configuration can factor many matrices.
pub struct Session<'a> {
    cfg: FactorConfig,
    mode: Mode<'a>,
    drift: Option<DriftSpec>,
    cache: Option<&'a PlanCache>,
    replan_slack: Option<f64>,
}

impl<'a> Session<'a> {
    /// A shared-memory session on the work-stealing engine.
    pub fn shared(cfg: FactorConfig) -> Self {
        Session {
            cfg,
            mode: Mode::Shared,
            drift: None,
            cache: None,
            replan_slack: None,
        }
    }

    /// A distributed session across `nprocs` emulated ranks. `exec` maps
    /// each tile to the rank executing the tasks that write it (pass the
    /// data distribution itself for owner-computes, or a remapping
    /// distribution for §VII-B execution dissociation).
    pub fn distributed(cfg: FactorConfig, nprocs: usize, exec: &'a dyn TileDistribution) -> Self {
        Session {
            cfg,
            mode: Mode::Distributed { nprocs, exec, ft: None },
            drift: None,
            cache: None,
            replan_slack: None,
        }
    }

    /// Layer a fault plan + retry policy onto a distributed session: the
    /// run then injects the plan's message loss, duplication, delay
    /// jitter, rank crashes, kernel failures and silent data corruption
    /// (bit-flips in store tiles or message payloads — these arm the
    /// tile-integrity layer automatically), recovers from them, and
    /// reports the accounting in [`RunOutcome::ft`]. The factor stays
    /// bit-identical to the fault-free run for any survivable plan.
    ///
    /// Fault injection is a distributed-memory concept; on a shared
    /// session this is a documented no-op.
    pub fn with_fault_layer(mut self, ft_cfg: &'a FtConfig) -> Self {
        if let Mode::Distributed { ft, .. } = &mut self.mode {
            *ft = Some(ft_cfg);
        }
        self
    }

    /// Embed a comm-feedback re-planner in the session's plan: the
    /// [`CommReplanner`](crate::replan::CommReplanner) (with the given
    /// compute-imbalance `slack`, see
    /// [`CommReplanner::with_slack`](crate::replan::CommReplanner::with_slack))
    /// is created at plan-build time and
    /// travels *with* the [`SymbolicPlan`] — when the plan is cached,
    /// converged placement overrides persist across runs and sessions
    /// sharing the cache. After each successful run the measured [`CommStats`]
    /// feed back and, if the re-planner moves a tile chain, the plan's
    /// distribution mapping is refreshed in place (the DAG is not
    /// rebuilt).
    ///
    /// Re-planning is a distributed-memory concept; on a shared session
    /// this is a documented no-op.
    pub fn with_replanning(mut self, slack: f64) -> Self {
        if matches!(self.mode, Mode::Distributed { .. }) {
            self.replan_slack = Some(slack);
        }
        self
    }

    /// Attach a [`PlanCache`]: [`run`](Session::run) then fetches its
    /// [`SymbolicPlan`] by structural fingerprint instead of re-running
    /// the symbolic phase, and inserts freshly built plans for later
    /// runs. Cache activity is reported in the run's metrics registry
    /// (`plan_cache_hits` / `plan_cache_misses` / `plan_cache_evictions`).
    pub fn with_plan_cache(mut self, cache: &'a PlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Layer a cost-model drift report onto the session: after a
    /// successful run, [`RunOutcome::drift`] compares the machine
    /// model's per-class predicted busy time (and, on distributed runs,
    /// the exact comm model) against what the run's metrics registry
    /// measured. Requires
    /// [`collect_metrics`](FactorConfig::collect_metrics) — with the
    /// registry off there is nothing to compare against and the report
    /// stays `None`.
    pub fn with_drift(mut self, spec: DriftSpec) -> Self {
        self.drift = Some(spec);
        self
    }

    /// The factorization options this session runs with.
    pub fn config(&self) -> &FactorConfig {
        &self.cfg
    }

    /// Factor `matrix = L·Lᵀ` in place (lower tiles become `L`).
    ///
    /// Owns the diagonal-shift retry driver for *every* mode: on a pivot
    /// failure, and if `cfg.max_shift_retries > 0`, the original matrix
    /// is restored and re-factored as `A + εI` with `ε` escalating ×10
    /// from `mean|diag| · max(accuracy, 1e-12)`. The shift that rescued
    /// the run is reported in [`FactorReport::diagonal_shift`]. If every
    /// attempt fails the error carries the *smallest* failing pivot seen
    /// and the matrix is restored to its input state (without retries it
    /// keeps the partial factor, as before).
    ///
    /// Engine faults ([`RunError::Engine`]) are not retried — a kernel
    /// panic or an unsurvivable fault plan is deterministic, so a replay
    /// would fail identically. After an engine fault on a distributed
    /// run the matrix contents are unspecified (tiles may be stranded on
    /// dead emulated ranks).
    pub fn run(&self, matrix: &mut TlrMatrix) -> Result<RunOutcome, RunError> {
        let t0 = std::time::Instant::now();
        let snapshot = matrix.rank_snapshot();
        let (plan, ev) = match self.cache {
            Some(cache) => {
                let key = plan::plan_key(&self.cfg, &snapshot, self.dist_inputs().as_ref());
                cache.get_or_build(&key, || self.build_plan(&snapshot))?
            }
            None => (Arc::new(self.build_plan(&snapshot)?), CacheEvents::default()),
        };
        // Cold runs report the symbolic-phase cost here; warm-cache runs
        // report the (near-zero) key fold + lookup instead.
        let analysis_seconds = t0.elapsed().as_secs_f64();
        self.run_driver(&plan, matrix, ev, analysis_seconds)
    }

    /// Run the symbolic phase alone: build the [`SymbolicPlan`] this
    /// session would execute `matrix` with, without factoring anything.
    /// The plan is self-contained (no borrow of the matrix or the
    /// distribution survives) and reusable across any number of
    /// [`run_with_plan`](Session::run_with_plan) calls and matrices that
    /// share the same structural fingerprint.
    pub fn plan(&self, matrix: &TlrMatrix) -> Result<SymbolicPlan, RunError> {
        self.build_plan(&matrix.rank_snapshot())
    }

    /// The numeric phase alone: factor `matrix` through a prebuilt
    /// [`SymbolicPlan`], skipping DAG construction, distribution
    /// mapping, batching and scheduler precomputation entirely. The
    /// plan's [`PlanKey`] must match this matrix and session
    /// configuration — a mismatch is rejected as
    /// [`RunError::PlanMismatch`] (running a stale plan would misplace
    /// tiles or deadlock rank queues). The produced factor is
    /// bit-identical to [`run`](Session::run) without a plan.
    pub fn run_with_plan(
        &self,
        plan: &SymbolicPlan,
        matrix: &mut TlrMatrix,
    ) -> Result<RunOutcome, RunError> {
        let t0 = std::time::Instant::now();
        let key = plan::plan_key(&self.cfg, &matrix.rank_snapshot(), self.dist_inputs().as_ref());
        if key != plan.key {
            return Err(RunError::PlanMismatch {
                plan: Box::new(plan.key),
                requested: Box::new(key),
            });
        }
        let analysis_seconds = t0.elapsed().as_secs_f64();
        self.run_driver(plan, matrix, CacheEvents::default(), analysis_seconds)
    }

    /// The distributed-plan inputs of this session's mode (`None` for
    /// shared memory).
    fn dist_inputs(&self) -> Option<plan::DistPlanInputs<'_>> {
        match &self.mode {
            Mode::Shared => None,
            Mode::Distributed { nprocs, exec, ft } => {
                let verify = self.cfg.integrity != IntegrityMode::Off
                    || ft.is_some_and(|f| f.plan.injects_corruption());
                Some(plan::DistPlanInputs {
                    nprocs: *nprocs,
                    exec: *exec,
                    ft: ft.is_some(),
                    verify,
                    trace: self.cfg.collect_trace,
                    replan_slack: self.replan_slack,
                })
            }
        }
    }

    fn build_plan(&self, snapshot: &RankSnapshot) -> Result<SymbolicPlan, RunError> {
        plan::build_plan(&self.cfg, snapshot, self.dist_inputs()).map_err(RunError::Engine)
    }

    /// Diagonal-shift retry driver over one plan. The shift perturbs
    /// values, never the rank structure, so one symbolic plan serves
    /// every attempt. Cache activity is recorded on the first attempt
    /// only.
    fn run_driver(
        &self,
        plan: &SymbolicPlan,
        matrix: &mut TlrMatrix,
        ev: CacheEvents,
        analysis_seconds: f64,
    ) -> Result<RunOutcome, RunError> {
        let cfg = &self.cfg;
        let pristine = if cfg.max_shift_retries > 0 {
            Some(matrix.clone())
        } else {
            None
        };
        let first_err = match self.attempt(plan, matrix, ev, analysis_seconds) {
            Ok(out) => return Ok(out),
            Err(RunError::Numeric(e)) => e,
            Err(e) => return Err(e),
        };
        let Some(pristine) = pristine else {
            return Err(RunError::Numeric(first_err));
        };
        let base = pristine.diagonal_mean_abs() * cfg.accuracy.max(1e-12);
        let mut shift = base;
        // Keep the *smallest* failing pivot across attempts — the caller
        // must see a deterministic (earliest) pivot, not whichever
        // attempt failed last.
        let mut best_err = first_err;
        for attempt in 1..=cfg.max_shift_retries {
            *matrix = pristine.clone();
            matrix.shift_diagonal(shift);
            match self.attempt(plan, matrix, CacheEvents::default(), analysis_seconds) {
                Ok(mut out) => {
                    out.report.diagonal_shift = shift;
                    out.report.shift_attempts = attempt;
                    return Ok(out);
                }
                Err(RunError::Numeric(e)) => {
                    if e.pivot < best_err.pivot {
                        best_err = e;
                    }
                }
                Err(e) => return Err(e),
            }
            shift *= 10.0;
        }
        *matrix = pristine;
        Err(RunError::Numeric(best_err))
    }

    /// One factorization attempt on the matrix as-is, through the plan.
    fn attempt(
        &self,
        plan: &SymbolicPlan,
        matrix: &mut TlrMatrix,
        ev: CacheEvents,
        analysis_seconds: f64,
    ) -> Result<RunOutcome, RunError> {
        let drift = self.drift.as_ref();
        match self.mode {
            Mode::Shared => shared_attempt(matrix, &self.cfg, plan, drift, ev, analysis_seconds),
            Mode::Distributed { nprocs, ft, .. } => distributed_attempt(
                matrix,
                &self.cfg,
                nprocs,
                ft,
                plan,
                drift,
                ev,
                analysis_seconds,
            ),
        }
    }
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Session");
        d.field("cfg", &self.cfg);
        match &self.mode {
            Mode::Shared => d.field("mode", &"shared"),
            Mode::Distributed { nprocs, exec, ft } => d
                .field("mode", &"distributed")
                .field("nprocs", nprocs)
                .field("exec", &exec.name())
                .field("fault_layer", &ft.is_some()),
        };
        d.field("plan_cache", &self.cache.is_some());
        d.field("replanning", &self.replan_slack.is_some());
        d.finish()
    }
}

/// Everything a [`Session::run`] produced. Capabilities the session did
/// not have are `None`; everything else comes from the same single run —
/// no combination requires a second factorization.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The factor report (always present). On distributed runs the
    /// kernel-class [`FactorReport::breakdown`] is zero (kernels execute
    /// inside a virtual-time event loop, where wall-clock attribution
    /// would be misleading) and [`FactorReport::metrics`] is `None` —
    /// the virtual-time trace lives in [`RunOutcome::trace`] instead.
    pub report: FactorReport,
    /// Cross-rank communication actually incurred, retransmissions
    /// included (distributed sessions; `None` on shared-memory runs,
    /// which have no wire).
    pub comm: Option<CommStats>,
    /// Fault-injection and recovery accounting, when a fault layer was
    /// configured with [`Session::with_fault_layer`].
    pub ft: Option<FtFactorOutcome>,
    /// Virtual-time execution trace of a distributed run, when
    /// [`FactorConfig::collect_trace`] is set.
    /// Shared-memory traces live in [`FactorReport::metrics`].
    pub trace: Option<Trace>,
    /// Merged always-on metrics registry snapshot, when
    /// [`FactorConfig::collect_metrics`] is set.
    pub registry: Option<RegistrySnapshot>,
    /// Cost-model drift report, when the session was configured with
    /// [`Session::with_drift`] *and* the registry was collected.
    pub drift: Option<DriftReport>,
}

/// Why a [`Session::run`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The matrix is numerically not positive definite (pivot failure
    /// after any configured shift retries).
    Numeric(CholeskyError),
    /// The engine could not complete the run: a kernel panicked, the
    /// graph/configuration was invalid, or a fault plan was not
    /// survivable. Not retried — see [`Session::run`].
    Engine(EngineError),
    /// A prebuilt [`SymbolicPlan`] handed to
    /// [`Session::run_with_plan`] was built for a different matrix
    /// structure or session configuration. Running it anyway would
    /// misplace tiles or deadlock rank queues, so the mismatch is
    /// rejected up front with both fingerprints.
    PlanMismatch {
        /// Fingerprint the plan was built for.
        plan: Box<PlanKey>,
        /// Fingerprint of the requested run.
        requested: Box<PlanKey>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Numeric(e) => write!(f, "matrix is not positive definite: {e:?}"),
            RunError::Engine(e) => write!(f, "engine failure: {e}"),
            RunError::PlanMismatch { plan, requested } => write!(
                f,
                "symbolic plan does not match this matrix/session configuration \
                 (plan {plan:?}, requested {requested:?})"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CholeskyError> for RunError {
    fn from(e: CholeskyError) -> Self {
        RunError::Numeric(e)
    }
}

impl From<EngineError> for RunError {
    fn from(e: EngineError) -> Self {
        RunError::Engine(e)
    }
}

/// One shared-memory attempt on the work-stealing [`Engine`].
///
/// Kernel panics are drained by the engine (no hung pool) and surface
/// as [`RunError::Engine`]; the tiles are moved back into the matrix
/// first, so locks are released, but mid-kernel tile state is
/// unspecified after a panic.
fn shared_attempt(
    matrix: &mut TlrMatrix,
    cfg: &FactorConfig,
    plan: &SymbolicPlan,
    drift: Option<&DriftSpec>,
    ev: CacheEvents,
    analysis_seconds: f64,
) -> Result<RunOutcome, RunError> {
    let nt = matrix.nt();
    let memory_before_f64 = matrix.memory_f64();
    // The symbolic phase already ran: the trimmed DAG, the contracted
    // panel-batch graph and the scheduler tables all come off the plan.
    let dag = &plan.dag;
    let pb = plan.batch.as_ref();
    let sched_plan = plan
        .sched
        .as_ref()
        .expect("shared plans carry scheduler state");

    // Move the tiles into lock cells for concurrent kernel execution.
    let tile_size = matrix.tile_size();
    let lower = |i: usize, j: usize| i * (i + 1) / 2 + j;
    let mut cells: Vec<RwLock<Tile>> = Vec::with_capacity(nt * (nt + 1) / 2);
    for i in 0..nt {
        for j in 0..=i {
            cells.push(RwLock::new(matrix.take_tile(i, j)));
        }
    }

    // Exact-digest side array for the integrity layer (off by default):
    // one digest per packed-lower tile, sealed at load time. Under
    // `Maintain` a tile is resealed only at its *finalizing* write — the
    // POTRF (diagonal) or TRSM (off-diagonal) that produces its factor
    // value — because nothing ever reads the digest of an in-progress
    // GEMM/SYRK version: the end-of-run sweep only sees final states, so
    // intermediate reseals would cost a digest per update and buy zero
    // detection. Under `VerifyReads` every write reseals and each
    // version is verified at its first read boundary, before it can
    // propagate. There is no lineage store on the shared path — every
    // tile version lives exactly once behind its lock — so a mismatch
    // cancels the run and surfaces as a typed integrity error instead of
    // healing.
    struct DigestSlot {
        d: TileDigest,
        /// Whether the current version already passed its first-read
        /// check (`VerifyReads` verifies each version once — later reads
        /// see the same just-verified bytes).
        checked: bool,
    }
    let digests: Option<Vec<Mutex<DigestSlot>>> =
        (cfg.integrity != IntegrityMode::Off).then(|| {
            cells
                .iter()
                .map(|c| {
                    Mutex::new(DigestSlot {
                        d: TileDigest::of(&c.read()),
                        checked: false,
                    })
                })
                .collect()
        });
    let verify_reads = cfg.integrity == IntegrityMode::VerifyReads;

    let compression = cfg.compression();
    let error: Mutex<Option<CholeskyError>> = Mutex::new(None);
    // Flipped on the first pivot failure: the engine then drains the
    // remaining tasks without invoking their kernels at all.
    let cancel = AtomicBool::new(false);
    // Record a pivot failure keeping the *smallest* pivot — several POTRFs
    // can fail concurrently before the cancellation flag propagates, and
    // the caller must see a deterministic (earliest) pivot, not whichever
    // failure happened to be stored last.
    let record_error = |e: CholeskyError| {
        let mut slot = error.lock();
        match &*slot {
            Some(prev) if prev.pivot <= e.pivot => {}
            _ => *slot = Some(e),
        }
        cancel.store(true, Ordering::Release);
    };
    // First corrupted tile, kept at the smallest packed index so
    // concurrent detections report deterministically (same discipline as
    // the pivot error above).
    let integrity_bad: Mutex<Option<(usize, usize)>> = Mutex::new(None);
    let record_corruption = |i: usize, j: usize| {
        let mut slot = integrity_bad.lock();
        match &*slot {
            Some(prev) if *prev <= (i, j) => {}
            _ => *slot = Some((i, j)),
        }
        cancel.store(true, Ordering::Release);
    };
    let check = |i: usize, j: usize, t: &Tile| -> bool {
        if !verify_reads {
            return true;
        }
        let Some(ds) = &digests else { return true };
        let mut slot = ds[lower(i, j)].lock();
        if slot.checked {
            return true;
        }
        if slot.d.verify(t) {
            slot.checked = true;
            return true;
        }
        drop(slot);
        record_corruption(i, j);
        false
    };
    let reseal = |i: usize, j: usize, t: &Tile| {
        if let Some(ds) = &digests {
            *ds[lower(i, j)].lock() = DigestSlot {
                d: TileDigest::of(t),
                checked: false,
            };
        }
    };
    // Per-class busy nanoseconds (atomic adds via mutex; kernel times are
    // micro-to-milliseconds, contention is negligible).
    let class_nanos: Mutex<[u128; 5]> = Mutex::new([0; 5]);
    // One workspace arena per engine worker, indexed by the worker id the
    // engine hands us — exclusive by construction, so the Mutex is never
    // contended (it only satisfies the `Sync` bound of the kernel
    // closure). Buffers grow to their high-water mark over the first few
    // updates and the recompression hot path then runs allocation-free
    // for the rest of the factorization.
    let nthreads = cfg.nthreads.max(1);
    let workspaces: Vec<Mutex<KernelWorkspace>> = (0..nthreads)
        .map(|_| Mutex::new(KernelWorkspace::new()))
        .collect();

    // Span recorder, built only when a trace is asked for. The
    // per-worker logs are preallocated here, so tracing costs no
    // steady-state allocations on the kernel hot path.
    let obs = cfg
        .collect_trace
        .then(|| ExecObs::new(dag.graph.len(), nthreads));
    // Always-on metrics registry, one shard per worker. Recording is a
    // few relaxed atomic adds per task.
    let registry = cfg.collect_metrics.then(|| Registry::new(nthreads));
    if let Some(reg) = &registry {
        reg.add(0, Counter::PlanCacheHits, ev.hits);
        reg.add(0, Counter::PlanCacheMisses, ev.misses);
        reg.add(0, Counter::PlanCacheEvictions, ev.evictions);
    }

    let exec_t0 = std::time::Instant::now();
    // One kernel dispatch per *original* task — both the plain and the
    // batched engine run below call this, so batching can never change
    // what a task computes.
    let run_task = |wid: usize, t: usize| {
        if cancel.load(Ordering::Acquire) {
            return; // in-flight task raced with the cancellation flag
        }
        let started = std::time::Instant::now();
        let class = dag.graph.spec(t).class;
        match dag.kinds[t] {
            TaskKind::Potrf { k } => {
                let mut c = cells[lower(k, k)].write();
                if !check(k, k, &c) {
                    return;
                }
                if let Err(e) = potrf_kernel(&mut c) {
                    record_error(CholeskyError {
                        pivot: k * tile_size + e.pivot,
                    });
                    return;
                }
                reseal(k, k, &c);
            }
            TaskKind::Trsm { k, m } => {
                // lock order: (k,k) < (m,k) in packed order (k < m)
                let l = cells[lower(k, k)].read();
                let mut a = cells[lower(m, k)].write();
                if !(check(k, k, &l) && check(m, k, &a)) {
                    return;
                }
                trsm_kernel(&l, &mut a);
                reseal(m, k, &a);
            }
            TaskKind::Syrk { k, m } => {
                let a = cells[lower(m, k)].read();
                let mut c = cells[lower(m, m)].write();
                if !(check(m, k, &a) && check(m, m, &c)) {
                    return;
                }
                syrk_kernel_ws(&mut workspaces[wid].lock(), &a, &mut c);
                // Intermediate version: POTRF {m} reseals the final one.
                if verify_reads {
                    reseal(m, m, &c);
                }
            }
            TaskKind::Gemm { k, m, n } => {
                // packed order: (n,k) < (m,k) < (m,n) since k < n < m
                let bt = cells[lower(n, k)].read();
                let at = cells[lower(m, k)].read();
                let mut c = cells[lower(m, n)].write();
                if !(check(n, k, &bt) && check(m, k, &at) && check(m, n, &c)) {
                    return;
                }
                gemm_kernel_ws(&mut workspaces[wid].lock(), &at, &bt, &mut c, &compression);
                // Intermediate version: TRSM {n, m} reseals the final one.
                if verify_reads {
                    reseal(m, n, &c);
                }
            }
        }
        #[cfg(debug_assertions)]
        if !cancel.load(Ordering::Acquire) {
            // Pin down the first kernel that produces a non-finite value
            // (skipped once cancelled: a failed POTRF leaves its tile in a
            // legitimately half-factored state).
            let w = dag
                .graph
                .spec(t)
                .writes
                .expect("every Cholesky task writes its tile");
            let idx = lower(w.i, w.j);
            let tile = cells[idx].read();
            let d = tile.to_dense();
            assert!(
                d.as_slice().iter().all(|v| v.is_finite()),
                "non-finite output from {:?} (tile {},{} rank {})",
                dag.kinds[t],
                w.i,
                w.j,
                tile.rank()
            );
        }
        let nanos = started.elapsed().as_nanos();
        let idx = match class {
            TaskClass::Potrf => 0,
            TaskClass::Trsm => 1,
            TaskClass::Syrk => 2,
            TaskClass::Gemm => 3,
            TaskClass::Other => 4,
        };
        class_nanos.lock()[idx] += nanos;
    };
    // Both paths run the plan's precomputed scheduler tables
    // (`Engine::run_planned`): no per-run priority computation, and
    // `EngineConfig::sched` is irrelevant — the plan carries the policy.
    let exec_result = if let Some(pb) = pb {
        // Batched run: the engine schedules the contracted graph, the
        // closure loops the fused members, and the BatchObs shim plus
        // per-member `record_span` keep the trace at kernel granularity
        // against the original-sized ExecObs.
        let bobs = crate::batch::BatchObs::new(obs.as_ref(), &pb.members);
        let mut engine_cfg = EngineConfig::new(nthreads)
            .with_cancel(&cancel)
            .with_obs(&bobs);
        if let Some(reg) = &registry {
            engine_cfg = engine_cfg.with_metrics(reg);
        }
        Engine::new(&pb.graph).run_planned(&engine_cfg, sched_plan, |wid, b| {
            for &t in &pb.members[b] {
                match obs.as_ref() {
                    Some(o) => {
                        let s = o.now_ns();
                        run_task(wid, t);
                        o.record_span(wid, t, s, o.now_ns());
                    }
                    None => run_task(wid, t),
                }
            }
        })
    } else {
        let mut engine_cfg = EngineConfig::new(nthreads)
            .with_cancel(&cancel)
            .with_obs(obs.as_ref());
        if let Some(reg) = &registry {
            engine_cfg = engine_cfg.with_metrics(reg);
        }
        Engine::new(&dag.graph).run_planned(&engine_cfg, sched_plan, run_task)
    };
    let factorization_seconds = exec_t0.elapsed().as_secs_f64();

    // Move tiles back into the matrix regardless of success (a panicked
    // kernel released its lock on unwind, so the cells are readable).
    let mut idx = 0;
    for i in 0..nt {
        for j in 0..=i {
            matrix.put_tile(i, j, cells[idx].read().clone());
            idx += 1;
        }
    }
    exec_result?;

    let integrity_error = |i: usize, j: usize| {
        RunError::Engine(EngineError::Fault(FtError::Integrity(IntegrityError {
            rank: 0,
            data: (i, j),
            attempts: 0,
        })))
    };
    // A digest mismatch outranks the numeric error: corrupted inputs can
    // manufacture a spurious pivot failure.
    if let Some((i, j)) = integrity_bad.into_inner() {
        return Err(integrity_error(i, j));
    }
    if let Some(e) = error.into_inner() {
        return Err(RunError::Numeric(e));
    }
    // End-of-run sweep: verify every tile of the finished factor against
    // its seal once, so a flip between a tile's last write and here can
    // never leave the session silently. One digest per tile, O(n²) total
    // — negligible next to the O(n³)-ish factorization. (Skipped after a
    // pivot failure above: a half-factored tile legitimately no longer
    // matches its seal.)
    if let Some(ds) = &digests {
        let mut idx = 0;
        for i in 0..nt {
            for j in 0..=i {
                if !ds[idx].lock().d.verify(&cells[idx].read()) {
                    return Err(integrity_error(i, j));
                }
                idx += 1;
            }
        }
    }

    let n = class_nanos.into_inner();
    let breakdown = ClassBreakdown {
        potrf: n[0] as f64 * 1e-9,
        trsm: n[1] as f64 * 1e-9,
        syrk: n[2] as f64 * 1e-9,
        gemm: n[3] as f64 * 1e-9,
        other: n[4] as f64 * 1e-9,
    };

    // Rank evolution, buffer-growth counts and arena high-water marks
    // live in the per-worker workspaces; drain them once now that the
    // workers are done. Both the always-on registry and the traced
    // metrics consume the same drained state.
    let mut rank_evolution = RankEvolution::default();
    let mut workspace_alloc_events = 0u64;
    for (wid, ws) in workspaces.iter().enumerate() {
        let mut w = ws.lock();
        rank_evolution.merge(&w.take_rank_log());
        workspace_alloc_events += w.alloc_events();
        if let Some(reg) = &registry {
            reg.gauge_max(wid, Gauge::ArenaHighWaterBytes, w.high_water_bytes() as f64);
        }
    }
    if let Some(reg) = &registry {
        reg.add(0, Counter::WorkspaceGrowth, workspace_alloc_events);
        for (rank, &count) in rank_evolution.histogram().iter().enumerate() {
            reg.record_rank_counts(0, rank, count);
        }
    }
    let registry = registry.map(|r| r.snapshot());
    let drift = match (drift, &registry) {
        (Some(spec), Some(snap)) => Some(DriftReport::compute(spec, &dag.graph, snap, None)),
        _ => None,
    };

    let metrics = obs.map(|o| {
        let exec = o.finish(&dag.graph);
        let flops_executed: f64 = (0..dag.graph.len()).map(|t| dag.graph.spec(t).flops).sum();
        // Critical path priced with the durations this run actually
        // measured (not the model), so efficiency compares like to like.
        let mut dur = vec![0.0_f64; dag.graph.len()];
        for r in &exec.trace.records {
            dur[r.task] = r.duration();
        }
        let critical_path_seconds = critical_path(&dag.graph, |t| dur[t]).length;
        let makespan = exec.trace.makespan();
        let efficiency_vs_critical_path = if makespan > 0.0 {
            (critical_path_seconds / makespan).clamp(0.0, 1.0)
        } else {
            0.0
        };
        FactorMetrics {
            queue_wait_seconds: exec.trace.total_queue_wait(),
            per_worker_busy: exec.trace.busy_per_proc(nthreads),
            idle_fraction: exec.trace.idle_fraction(nthreads),
            load_imbalance: exec.trace.load_imbalance(nthreads),
            trace: exec.trace,
            steals: exec.steals,
            rank_evolution,
            workspace_alloc_events,
            flops_executed,
            critical_path_seconds,
            efficiency_vs_critical_path,
        }
    });

    let report = FactorReport {
        factorization_seconds,
        analysis_seconds,
        dag_tasks: dag.graph.len(),
        dense_dag_tasks: dag.analysis.dense_tasks(),
        final_snapshot: matrix.rank_snapshot(),
        memory_before_f64,
        memory_after_f64: matrix.memory_f64(),
        breakdown,
        diagonal_shift: 0.0,
        shift_attempts: 0,
        metrics,
    };
    Ok(RunOutcome {
        report,
        comm: None,
        ft: None,
        trace: None,
        registry,
        drift,
    })
}

/// One distributed attempt on the virtual-time [`DistEngine`]:
/// `scatter_tiles` → `kernel_env` → planned engine run → `gather_tiles`.
///
/// All placement and ordering decisions come off the [`SymbolicPlan`]'s
/// [`DistStatic`](crate::plan) machinery; this function only moves
/// tiles, runs kernels, and feeds measured traffic back into the plan's
/// embedded re-planner, if any.
#[allow(clippy::too_many_arguments)]
fn distributed_attempt(
    matrix: &mut TlrMatrix,
    cfg: &FactorConfig,
    nprocs: usize,
    ft: Option<&FtConfig>,
    plan: &SymbolicPlan,
    drift: Option<&DriftSpec>,
    ev: CacheEvents,
    analysis_seconds: f64,
) -> Result<RunOutcome, RunError> {
    let tile_size = matrix.tile_size();
    let memory_before_f64 = matrix.memory_f64();
    let ds = plan
        .dist
        .as_ref()
        .expect("distributed plans carry placement state");
    let dag = &plan.dag;
    // Hold the mapping read-locked across the whole attempt: an embedded
    // re-planner refreshing it mid-run (another session sharing the
    // cached plan) must wait until this run has gathered its tiles.
    let map = ds.mapping.read();
    let initial = scatter_tiles(matrix, &map.placement, nprocs);
    let env = kernel_env(dag, &ds.preds, cfg, tile_size);

    // The metrics registry shards per emulated rank: task counts and
    // virtual per-class durations land in the executing rank's shard,
    // comm/fault/integrity totals fold into shard 0 at end of run.
    let registry = cfg.collect_metrics.then(|| Registry::new(nprocs));
    if let Some(reg) = &registry {
        reg.add(0, Counter::PlanCacheHits, ev.hits);
        reg.add(0, Counter::PlanCacheMisses, ev.misses);
        reg.add(0, Counter::PlanCacheEvictions, ev.evictions);
    }
    let dist_cfg = DistConfig {
        ft,
        record_trace: cfg.collect_trace,
        // Every path below runs `run_planned`: the plan's precomputed
        // order *is* the schedule, so no policy is passed down.
        sched: None,
        metrics: registry.as_ref(),
    };
    // The integrity layer arms when asked for explicitly, or whenever
    // the fault plan injects corruption — silent corruption with the
    // detector off would violate the bit-identical-factor contract.
    // The plan was keyed on the same predicate, so `map.batch` is
    // guaranteed `None` whenever `verify` holds.
    let verify =
        cfg.integrity != IntegrityMode::Off || ft.is_some_and(|f| f.plan.injects_corruption());
    let exec_t0 = std::time::Instant::now();
    let out: DistOutcome<Tile> =
        if verify {
            // Seal every tile with its exact content digest; kernels reseal
            // what they write (`TilePayload::from_tile`), and the engine
            // verifies at each read boundary, healing from lineage on a
            // mismatch. Unsealing afterwards keeps gathering and all
            // post-processing on the one plain-`Tile` code path.
            let sealed: Vec<HashMap<DataRef, SealedTile>> = initial
                .into_iter()
                .map(|m| {
                    m.into_iter()
                        .map(|(d, t)| (d, SealedTile::seal(t)))
                        .collect()
                })
                .collect();
            let corrupt = |p: &mut SealedTile, bits: u64| p.corrupt(bits);
            let check = |p: &SealedTile| p.verify();
            let hooks = IntegrityHooks {
                corrupt: &corrupt,
                verify: &check,
            };
            let out = DistEngine::new(&dag.graph, nprocs, &map.exec_rank).run_planned(
                sealed,
                &dist_cfg,
                &map.order,
                Some(&hooks),
                |t, ctx| env.run(t, ctx),
            )?;
            DistOutcome {
                stores: out
                    .stores
                    .into_iter()
                    .map(|m| m.into_iter().map(|(d, s)| (d, s.into_tile())).collect())
                    .collect(),
                exec_rank: out.exec_rank,
                comm: out.comm,
                stats: out.stats,
                makespan: out.makespan,
                events: out.events,
                trace: out.trace,
            }
        } else if let Some(db) = &map.batch {
            // Batched run: the engine schedules and ships at fused-task
            // granularity; the body replays the members in per-tile
            // program order, translating producer ids for inbox lookups.
            // The returned payload is the first member's tile (the fused
            // spec's `writes`); the other members' outputs travel via the
            // rank store (the engine ships non-`writes` edge data from
            // there).
            DistEngine::new(&db.pb.graph, nprocs, &db.exec_rank).run_planned(
                initial,
                &dist_cfg,
                &db.order,
                None,
                |b, ctx| {
                    let mut first = None;
                    for &t in &db.pb.members[b] {
                        let out = env.run_mapped(t, ctx, &db.pb.of);
                        if first.is_none() {
                            first = Some(out);
                        }
                    }
                    first.expect("batched task has at least one member")
                },
            )?
        } else {
            DistEngine::new(&dag.graph, nprocs, &map.exec_rank).run_planned(
                initial,
                &dist_cfg,
                &map.order,
                None,
                |t, ctx| env.run(t, ctx),
            )?
        };
    let factorization_seconds = exec_t0.elapsed().as_secs_f64();

    // A batched run's final rank assignment is indexed by fused-task ids;
    // project it back to original tasks for gathering.
    let final_exec: Vec<usize> = match &map.batch {
        Some(db) => db.pb.of.iter().map(|&b| out.exec_rank[b]).collect(),
        None => out.exec_rank.clone(),
    };
    gather_tiles(matrix, &ds.last_writer, &map.placement, &final_exec, &out.stores);
    if let Some(e) = env.error.into_inner() {
        return Err(RunError::Numeric(e));
    }
    // Feed the measured traffic back into the re-planner (successful
    // runs only — a failed attempt's comm is not a usable signal). The
    // planned (pre-fault) ranks and current overrides are cloned out so
    // the read guard can drop before an embedded re-planner refreshes
    // the mapping in place.
    let planned_exec = map.exec_rank.clone();
    let old_overrides = map.overrides.clone();
    drop(map);
    if let Some(rp) = &ds.replan {
        let mut r = rp.lock();
        r.observe(&dag.graph, &planned_exec, &out.comm);
        if *r.overrides() != old_overrides {
            let overrides = r.overrides().clone();
            drop(r);
            // Re-derive placement/orders from the existing DAG. The only
            // failure mode is a scheduler-key defect, which the original
            // derivation already ruled out — on the (unreachable) error
            // the old mapping simply stays in force.
            let _ = ds.refresh(dag, plan.nt, cfg.sched, overrides);
        }
    }
    let registry = registry.map(|r| r.snapshot());
    // Drift compares at original-task granularity: the model prices
    // `dag.graph` and the comm model uses the projected-back final
    // mapping, so batched and unbatched runs report comparably.
    let drift = match (drift, &registry) {
        (Some(spec), Some(snap)) => Some(DriftReport::compute(
            spec,
            &dag.graph,
            snap,
            Some((&final_exec, out.comm)),
        )),
        _ => None,
    };

    let report = FactorReport {
        factorization_seconds,
        analysis_seconds,
        dag_tasks: dag.graph.len(),
        dense_dag_tasks: dag.analysis.dense_tasks(),
        final_snapshot: matrix.rank_snapshot(),
        memory_before_f64,
        memory_after_f64: matrix.memory_f64(),
        breakdown: ClassBreakdown::default(),
        diagonal_shift: 0.0,
        shift_attempts: 0,
        metrics: None,
    };
    Ok(RunOutcome {
        report,
        comm: Some(out.comm),
        ft: ft.map(|_| FtFactorOutcome {
            stats: out.stats,
            makespan: out.makespan,
            events: out.events,
        }),
        trace: out.trace,
        registry,
        drift,
    })
}
