//! Shared-memory TLR Cholesky with real numerics.
//!
//! This is the validation path of the reproduction: the same task graph
//! the distributed simulator prices is executed for real by the
//! work-stealing executor, calling the HiCMA-style tile kernels on a
//! [`TlrMatrix`]. Running trimmed and untrimmed graphs must produce the
//! same factor (trimming only removes numeric no-ops), which the tests
//! check — that is the correctness argument for §VI.

use crate::plan::SymbolicPlan;
use crate::session::{RunError, Session};
use runtime::engine::EngineError;
use runtime::obs::RunMetrics;
use runtime::scheduler::SchedPolicy;
use runtime::trace::{ClassBreakdown, Trace};
use tlr_compress::{CompressionConfig, RankEvolution, RankSnapshot, TlrMatrix};
use tlr_linalg::CholeskyError;

/// Options of the shared-memory factorization.
#[derive(Debug, Clone, Copy)]
pub struct FactorConfig {
    /// Recompression accuracy used inside the GEMM kernels (normally the
    /// same threshold the matrix was compressed with).
    pub accuracy: f64,
    /// Rank cap (HiCMA `maxrank`).
    pub max_rank: usize,
    /// Run with the Algorithm-1-trimmed DAG.
    pub trimmed: bool,
    /// Worker threads for the executor.
    ///
    /// Oversubscription rule: the tile kernels run *serial* BLAS, so total
    /// concurrency is `nthreads` — never executor threads × pool threads.
    /// The rayon pool only serves the pre-factorization phases (assembly,
    /// compression, top-level dense BLAS), which is why the default tracks
    /// the same `RAYON_NUM_THREADS`/`available_parallelism` resolution as
    /// the pool: both layers see one consistent hardware budget.
    pub nthreads: usize,
    /// On a pivot failure, retry up to this many times on `A + εI` with an
    /// escalating shift `ε` (LDLᵀ-style regularization for borderline
    /// matrices). `0` disables the retry; a strongly indefinite matrix
    /// fails regardless because the shifts stay near the working accuracy.
    pub max_shift_retries: usize,
    /// Collect a per-task execution trace and derived metrics
    /// ([`FactorReport::metrics`]): span capture in the executor (shared
    /// memory) or a virtual-time trace (distributed). When off, no
    /// observer is built, the hot path pays nothing, and `metrics` stays
    /// `None`. Defaults to `false`.
    pub collect_trace: bool,
    /// Storage-payoff threshold for tiles *recompressed during the
    /// factorization*: a rank-`k` update result stays low-rank only when
    /// `k · (rows + cols) ≤ keep_dense_ratio · rows · cols`, otherwise it
    /// is stored dense. `1.0` (the default, matching
    /// [`CompressionConfig`]) densifies only when the factors would be
    /// strictly larger than the dense tile; smaller values trade memory
    /// for dense-BLAS-friendly tiles, and `0.0` densifies every
    /// recompressed tile. Threaded to the update kernels on every path
    /// (shared-memory and distributed) via [`FactorConfig::compression`].
    pub keep_dense_ratio: f64,
    /// Collect always-available runtime metrics into a
    /// [`runtime::obs::registry::Registry`]: per-class task durations,
    /// enqueue/steal counters, workspace arena high-water marks,
    /// recompression-rank histograms (shared-memory runs) and comm /
    /// fault / integrity totals (distributed runs). Unlike
    /// [`collect_trace`](FactorConfig::collect_trace) this costs only a
    /// handful of relaxed atomic adds per task — the `trace_overhead`
    /// bench gates it at ≤5 %. The merged snapshot lands in
    /// [`RunOutcome::registry`](crate::session::RunOutcome::registry).
    /// Defaults to `true`.
    pub collect_metrics: bool,
    /// Tile-integrity policy: whether (and how eagerly) every tile is
    /// sealed with an exact content digest ([`tlr_compress::TileDigest`])
    /// and checked against silent data corruption. See
    /// [`IntegrityMode`] for the cost/coverage ladder. Defaults to
    /// [`IntegrityMode::Off`] (zero overhead); a distributed fault plan
    /// that injects corruption arms the layer automatically.
    pub integrity: IntegrityMode,
    /// Ready-queue scheduling policy consulted by the executor (and, on
    /// the distributed path, applied as a priority-driven topological
    /// reordering of each rank's queue). Policies change execution
    /// *order* and makespan, never the factor values — the proptests in
    /// `tests/engine_composition.rs` hold every policy to bit-identical
    /// results. Defaults to [`SchedPolicy::PanelPriority`], the paper's
    /// static panel-index order.
    pub sched: SchedPolicy,
    /// Fuse each panel step's trailing-column GEMMs into single batched
    /// engine tasks ([`crate::batch::batch_panel_gemms`]), amortizing
    /// per-task scheduling overhead and sharing the packed `(n, k)`
    /// operand across a fused group. The factor is bit-identical with
    /// batching on or off — the pass never reorders any tile's update
    /// sequence — and per-kernel attribution survives through the
    /// [`crate::batch::BatchObs`] span-splitting shim. Defaults to `true`.
    ///
    /// On distributed runs batching additionally requires a plain engine
    /// configuration: it is skipped automatically under a fault layer, an
    /// armed integrity mode, or virtual-time tracing, all of which reason
    /// about single-tile tasks.
    pub batch_panels: bool,
}

/// How much silent-data-corruption protection a factorization buys.
///
/// The ladder trades detection latency for hot-path cost:
///
/// * [`Off`](IntegrityMode::Off) — no checksums, zero overhead.
/// * [`Maintain`](IntegrityMode::Maintain) — the classical ABFT shape:
///   every tile is sealed at load, resealed at its *finalizing* write
///   (the POTRF or TRSM that produces its factor value — intermediate
///   GEMM/SYRK versions are never digest-checked by this mode, so
///   resealing them would buy zero detection), and the whole factor is
///   verified once before it is returned. One digest per factor tile,
///   ≤5 % on the factorize hot path — gated by the `integrity_overhead`
///   bench. Any at-rest bit flip between a tile's finalizing write and
///   the end of the run is caught; a corrupted factor can never be
///   returned silently.
/// * [`VerifyReads`](IntegrityMode::VerifyReads) — reseal after *every*
///   kernel write and verify each tile version at its first read
///   boundary, catching a flip before it propagates into downstream
///   kernels and localizing it to the producing task. Costs roughly two
///   digests per task.
///
/// On distributed runs any mode other than `Off` seals the message and
/// store payloads ([`tlr_compress::SealedTile`]), where the engine
/// verifies at every read boundary and heals from lineage — the
/// shared-memory ladder above only governs the work-stealing path,
/// which has no lineage store to heal from and instead surfaces a
/// typed integrity error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No integrity checking (zero overhead).
    #[default]
    Off,
    /// Seal on load, reseal at each tile's finalizing write, verify the
    /// factor once at the end.
    Maintain,
    /// `Maintain` plus verification of each tile version at its first
    /// read boundary.
    VerifyReads,
}

impl FactorConfig {
    /// Sensible defaults at the given accuracy.
    ///
    /// `nthreads` defaults to the machine's available parallelism (as seen
    /// by the rayon pool, so `RAYON_NUM_THREADS` caps it too) — it is *not*
    /// a hardcoded constant, which used to leave large machines mostly
    /// idle and oversubscribe small ones.
    pub fn with_accuracy(accuracy: f64) -> Self {
        Self {
            accuracy,
            max_rank: usize::MAX,
            trimmed: true,
            nthreads: rayon::current_num_threads(),
            max_shift_retries: 3,
            collect_trace: false,
            collect_metrics: true,
            keep_dense_ratio: 1.0,
            integrity: IntegrityMode::Off,
            sched: SchedPolicy::PanelPriority,
            batch_panels: true,
        }
    }

    /// The [`CompressionConfig`] the update kernels recompress with —
    /// accuracy, rank cap and
    /// [`keep_dense_ratio`](FactorConfig::keep_dense_ratio)
    /// all come from this config (the
    /// ratio used to be silently pinned to `1.0` on every path).
    pub fn compression(&self) -> CompressionConfig {
        CompressionConfig {
            accuracy: self.accuracy,
            max_rank: self.max_rank,
            keep_dense_ratio: self.keep_dense_ratio,
        }
    }
}

/// Execution metrics of a traced factorization.
///
/// Everything here is derived from the observed run itself: the span
/// trace from the executor, the rank log from the kernel workspaces, and
/// the DAG the tasks came from.
#[derive(Debug, Clone)]
pub struct FactorMetrics {
    /// Per-task spans (class, tile, worker, queue-wait, execute window).
    pub trace: Trace,
    /// Successful steals per worker.
    pub steals: Vec<u64>,
    /// Total seconds tasks spent ready-but-waiting in queues.
    pub queue_wait_seconds: f64,
    /// Recompression rank evolution merged over all kernel workspaces.
    pub rank_evolution: RankEvolution,
    /// Workspace buffer growth events after warm-up would indicate the
    /// recompression hot path allocating; steady state is 0 per worker
    /// once buffers reach their high-water mark.
    pub workspace_alloc_events: u64,
    /// Model flops of the executed DAG (priced by `flops::*` at analysis
    /// time — ranks evolve during the run, so this is the planned count).
    pub flops_executed: f64,
    /// Critical-path length through the DAG using the *measured* per-task
    /// durations, i.e. the makespan an infinitely parallel machine would
    /// have achieved on this run.
    pub critical_path_seconds: f64,
    /// `critical_path_seconds / makespan` — 1.0 means the run was as fast
    /// as its longest dependency chain allows.
    pub efficiency_vs_critical_path: f64,
    /// Busy seconds per worker.
    pub per_worker_busy: Vec<f64>,
    /// Idle fraction per worker, in `[0, 1]`.
    pub idle_fraction: Vec<f64>,
    /// `max(busy)/mean(busy)` over workers (1.0 = perfectly balanced).
    pub load_imbalance: f64,
}

impl FactorMetrics {
    /// Summarize as a [`RunMetrics`] record (shared with the simulator
    /// paths, so shared-memory and DES runs can be tabulated side by
    /// side by [`RunMetrics::comparison_table`]).
    pub fn run_metrics(&self, label: &str) -> RunMetrics {
        RunMetrics::from_trace(label, &self.trace, self.per_worker_busy.len())
            .with_critical_path(self.critical_path_seconds)
    }
}

/// What happened during a factorization.
#[derive(Debug, Clone)]
pub struct FactorReport {
    /// Wall-clock seconds of the task execution phase.
    pub factorization_seconds: f64,
    /// Wall-clock seconds of the Algorithm-1 analysis + DAG build.
    pub analysis_seconds: f64,
    /// Tasks in the executed DAG.
    pub dag_tasks: usize,
    /// Tasks of the equivalent untrimmed (dense) DAG.
    pub dense_dag_tasks: usize,
    /// Rank snapshot after the factorization (the "final" panel of Fig. 1).
    pub final_snapshot: RankSnapshot,
    /// TLR storage before the factorization, in f64 words.
    pub memory_before_f64: usize,
    /// TLR storage after the factorization (fill-in growth), f64 words.
    pub memory_after_f64: usize,
    /// Busy seconds per kernel class (wall-clock, summed over workers).
    pub breakdown: ClassBreakdown,
    /// Diagonal shift `ε` of the attempt that succeeded (`0.0` when the
    /// matrix factored without regularization).
    pub diagonal_shift: f64,
    /// How many shifted retries were needed (`0` = first try succeeded).
    pub shift_attempts: usize,
    /// Execution trace and derived metrics, when tracing was on
    /// ([`FactorConfig::collect_trace`]).
    pub metrics: Option<FactorMetrics>,
}

/// Factor `matrix = L·Lᵀ` in place (lower tiles become `L`).
///
/// On success the diagonal tiles hold lower-triangular Cholesky factors
/// and the off-diagonal tiles the corresponding solved panels, all still
/// in TLR format.
///
/// On a pivot failure, and if `cfg.max_shift_retries > 0`, the original
/// matrix is restored and re-factored as `A + εI` with `ε` escalating
/// ×10 from `mean|diag| · max(accuracy, 1e-12)` — a rounding-level
/// regularization that rescues borderline matrices (e.g. SPD operators
/// pushed slightly indefinite by compression error) while leaving truly
/// indefinite ones to fail. The shift that succeeded is reported in
/// [`FactorReport::diagonal_shift`]. If every attempt fails, the error
/// reports the *smallest* failing pivot seen and the matrix is restored
/// to its input state (without retries it keeps the partial factor, as
/// before).
/// This is a one-call wrapper over [`Session::shared`] — the shift-retry
/// driver and the per-attempt pipeline live in [`crate::session`], shared
/// with the distributed paths. Kernel panics are drained by the engine
/// and re-raised here once every worker has stopped.
pub fn factorize(
    matrix: &mut TlrMatrix,
    cfg: &FactorConfig,
) -> Result<FactorReport, CholeskyError> {
    match Session::shared(*cfg).run(matrix) {
        Ok(out) => Ok(out.report),
        Err(RunError::Numeric(e)) => Err(e),
        Err(RunError::Engine(EngineError::Panic(p))) => {
            // A kernel died (not a pivot failure — those cancel cleanly).
            // The pool has drained, locks are released; re-raise with
            // context, as this entry point always has.
            panic!("factorization kernel panicked: {p}")
        }
        Err(e) => panic!("{e}"),
    }
}

/// Run the symbolic phase of [`factorize`] alone: build the reusable
/// [`SymbolicPlan`] (trimmed DAG, fused panel batches, scheduler tables)
/// for `matrix` under `cfg`, without touching any tile values. Feed the
/// plan to [`factorize_with_plan`] — or hold a
/// [`PlanCache`](crate::plan::PlanCache) and let
/// [`Session`] manage the split implicitly.
pub fn plan_factorization(matrix: &TlrMatrix, cfg: &FactorConfig) -> SymbolicPlan {
    Session::shared(*cfg)
        .plan(matrix)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`factorize`] consuming a prebuilt [`SymbolicPlan`]: the numeric
/// phase alone, skipping DAG construction, batching and scheduler
/// precomputation. The factor is bit-identical to [`factorize`]; the
/// plan must come from [`plan_factorization`] (or a
/// [`PlanCache`](crate::plan::PlanCache)) with the same config and tile
/// structure — a mismatched plan panics with both fingerprints, like
/// every other invalid-configuration error at this entry point.
pub fn factorize_with_plan(
    matrix: &mut TlrMatrix,
    cfg: &FactorConfig,
    plan: &SymbolicPlan,
) -> Result<FactorReport, CholeskyError> {
    match Session::shared(*cfg).run_with_plan(plan, matrix) {
        Ok(out) => Ok(out.report),
        Err(RunError::Numeric(e)) => Err(e),
        Err(RunError::Engine(EngineError::Panic(p))) => {
            panic!("factorization kernel panicked: {p}")
        }
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_linalg::norms::relative_diff;
    use tlr_linalg::{gemm, Matrix, Trans};

    /// Gaussian-kernel SPD generator on a 1D grid (RBF-like structure).
    fn gaussian_gen(n: usize, corr: f64) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64) / (n as f64 / corr);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-3
            } else {
                v
            }
        }
    }

    fn check_factorization(n: usize, b: usize, acc: f64, corr: f64, trimmed: bool) -> RankSnapshot {
        let gen = gaussian_gen(n, corr);
        let dense = Matrix::from_fn(n, n, &gen);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let mut m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut fcfg = FactorConfig::with_accuracy(acc);
        fcfg.trimmed = trimmed;
        let report = factorize(&mut m, &fcfg).expect("SPD matrix must factor");
        assert!(report.dag_tasks <= report.dense_dag_tasks);
        // ‖A − L·Lᵀ‖/‖A‖ small
        let l = m.to_dense_lower();
        let mut recon = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
        let err = relative_diff(&recon, &dense);
        let tol = acc * (m.nt() * m.nt()) as f64 / tlr_linalg::frobenius_norm(&dense);
        assert!(
            err <= tol.max(1e-11) * 20.0,
            "residual {err} too large (tol {tol}, trimmed={trimmed})"
        );
        report.final_snapshot
    }

    #[test]
    fn factorizes_trimmed_moderate_accuracy() {
        check_factorization(128, 32, 1e-6, 8.0, true);
    }

    #[test]
    fn factorizes_untrimmed_matches_trimmed() {
        let snap_t = check_factorization(96, 24, 1e-7, 6.0, true);
        let snap_u = check_factorization(96, 24, 1e-7, 6.0, false);
        // same final structure
        assert_eq!(snap_t.nt(), snap_u.nt());
        for i in 0..snap_t.nt() {
            for j in 0..i {
                assert_eq!(
                    snap_t.rank(i, j) == 0,
                    snap_u.rank(i, j) == 0,
                    "structure mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn sparse_case_trims_hard() {
        // short correlation ⇒ most tiles null ⇒ trimmed DAG much smaller
        let n = 160;
        let b = 16;
        let gen = gaussian_gen(n, 40.0);
        let ccfg = CompressionConfig::with_accuracy(1e-5);
        let mut m = TlrMatrix::from_generator(n, b, gen, &ccfg);
        assert!(
            m.density() < 0.6,
            "test premise: sparse, got {}",
            m.density()
        );
        let report = factorize(&mut m, &FactorConfig::with_accuracy(1e-5)).unwrap();
        assert!(
            (report.dag_tasks as f64) < 0.7 * report.dense_dag_tasks as f64,
            "{} vs {}",
            report.dag_tasks,
            report.dense_dag_tasks
        );
    }

    #[test]
    fn tighter_accuracy_higher_ranks() {
        let s_loose = check_factorization(96, 24, 1e-3, 6.0, true);
        let s_tight = check_factorization(96, 24, 1e-9, 6.0, true);
        assert!(s_tight.stats().avg_nonzero >= s_loose.stats().avg_nonzero);
    }

    #[test]
    fn non_spd_rejected() {
        let n = 64;
        // indefinite: strong negative diagonal block
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i == 40 {
                    -5.0
                } else {
                    2.0
                }
            } else {
                0.01 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let mut m = TlrMatrix::from_dense(&dense, 16, &ccfg);
        let err = factorize(&mut m, &FactorConfig::with_accuracy(1e-8)).unwrap_err();
        // pivot is reported in global coordinates
        assert!(err.pivot <= 40 + 16, "pivot {}", err.pivot);
    }

    /// A matrix that is SPD except for a perturbation near the working
    /// accuracy must be rescued by the diagonal-shift retry, and the
    /// rescue must be visible in the report.
    #[test]
    fn borderline_indefinite_recovers_with_diagonal_shift() {
        let n = 96;
        let gen = gaussian_gen(n, 6.0);
        // `gen` adds 1e-3 to the diagonal of a PSD Gaussian kernel whose
        // smallest eigenvalue is ~0 at rounding scale; cancelling the bump
        // and 1e-7 more leaves λ_min ≈ −1e-7: barely indefinite.
        let dense = Matrix::from_fn(n, n, |i, j| {
            gen(i, j) - if i == j { 1e-3 + 1e-7 } else { 0.0 }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);

        // Without retries: a clean pivot failure.
        let mut m0 = TlrMatrix::from_dense(&dense, 24, &ccfg);
        let mut cfg = FactorConfig::with_accuracy(1e-8);
        cfg.max_shift_retries = 0;
        factorize(&mut m0, &cfg).expect_err("test premise: matrix is indefinite");

        // With retries: recovered, and the shift is reported.
        let mut m = TlrMatrix::from_dense(&dense, 24, &ccfg);
        cfg.max_shift_retries = 5;
        let report = factorize(&mut m, &cfg).expect("shift retry must rescue the matrix");
        assert!(
            report.shift_attempts >= 1,
            "recovery must have used a retry"
        );
        assert!(
            report.diagonal_shift > 0.0 && report.diagonal_shift <= 1e-3,
            "shift {} should be a rounding-scale regularization",
            report.diagonal_shift
        );
        // The factor is a usable Cholesky of the (shifted) matrix.
        let l = m.to_dense_lower();
        let mut recon = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
        assert!(relative_diff(&recon, &dense) < 1e-5);
    }

    /// A hopelessly indefinite matrix still fails after the bounded
    /// retries, with the matrix restored to its input state.
    #[test]
    fn strongly_indefinite_fails_despite_retries() {
        let n = 64;
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i == 40 {
                    -5.0
                } else {
                    2.0
                }
            } else {
                0.01 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let mut m = TlrMatrix::from_dense(&dense, 16, &ccfg);
        let before = m.to_dense();
        let err = factorize(&mut m, &FactorConfig::with_accuracy(1e-8)).unwrap_err();
        assert!(err.pivot <= 40 + 16, "pivot {}", err.pivot);
        // With retries enabled the input is restored on failure.
        assert!(relative_diff(&m.to_dense(), &before) == 0.0);
    }

    #[test]
    fn multithreaded_matches_single_thread() {
        let n = 96;
        let b = 24;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let dense = Matrix::from_fn(n, n, &gen);
        let mut m1 = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut m8 = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut cfg = FactorConfig::with_accuracy(1e-8);
        cfg.nthreads = 1;
        factorize(&mut m1, &cfg).unwrap();
        cfg.nthreads = 8;
        factorize(&mut m8, &cfg).unwrap();
        // The DAG fixes the per-tile kernel order and every kernel is
        // deterministic, so the factors must agree *bitwise* — not just to
        // rounding. Any nondeterministic reduction order would show here.
        let l1 = m1.to_dense_lower();
        let l8 = m8.to_dense_lower();
        assert_eq!(
            l1.as_slice(),
            l8.as_slice(),
            "factor differs across thread counts"
        );
    }

    /// A traced run populates self-consistent derived metrics.
    #[test]
    fn traced_run_populates_metrics() {
        let n = 96;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(1e-6);
        let mut m = TlrMatrix::from_generator(n, 24, gen, &ccfg);
        let mut cfg = FactorConfig::with_accuracy(1e-6);
        cfg.nthreads = 2;
        cfg.collect_trace = true;
        let report = factorize(&mut m, &cfg).unwrap();
        let metrics = report.metrics.expect("a traced run must report metrics");
        assert_eq!(metrics.trace.records.len(), report.dag_tasks);
        assert_eq!(metrics.per_worker_busy.len(), 2);
        assert!(metrics
            .idle_fraction
            .iter()
            .all(|f| (0.0..=1.0).contains(f)));
        assert!(metrics.load_imbalance >= 1.0);
        assert!(metrics.flops_executed > 0.0);
        assert!(metrics.critical_path_seconds > 0.0);
        assert!(metrics.critical_path_seconds <= metrics.trace.makespan() + 1e-12);
        assert!((0.0..=1.0).contains(&metrics.efficiency_vs_critical_path));
        assert!(
            metrics.rank_evolution.events() > 0,
            "GEMMs must log recompressions"
        );
        // The span breakdown must roughly agree with the unconditional
        // class_nanos breakdown (same kernels, measured two ways).
        let from_trace = metrics.trace.breakdown().total();
        let from_nanos = report.breakdown.total();
        assert!(
            (from_trace - from_nanos).abs() <= 0.5 * from_nanos.max(1e-6),
            "trace {from_trace} vs class_nanos {from_nanos}"
        );
    }

    /// With `collect_trace` off no trace is built and `metrics` stays
    /// `None`.
    #[test]
    fn untraced_run_has_no_metrics() {
        let n = 96;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(1e-6);
        let mut m = TlrMatrix::from_generator(n, 24, gen, &ccfg);
        let mut cfg = FactorConfig::with_accuracy(1e-6);
        cfg.collect_trace = false;
        let report = factorize(&mut m, &cfg).unwrap();
        assert!(report.metrics.is_none());
    }

    /// The configured `keep_dense_ratio` reaches the shared-memory update
    /// kernels: `0.0` densifies every recompressed tile, so the factored
    /// matrix stores more words than the default payoff rule, while the
    /// numbers stay correct.
    #[test]
    fn keep_dense_ratio_threads_through_kernels() {
        let n = 120;
        let b = 24;
        let acc = 1e-8;
        let gen = gaussian_gen(n, 8.0);
        let dense = Matrix::from_fn(n, n, &gen);
        let ccfg = CompressionConfig::with_accuracy(acc);

        let mut lr = TlrMatrix::from_dense(&dense, b, &ccfg);
        let rep_lr = factorize(&mut lr, &FactorConfig::with_accuracy(acc)).unwrap();

        let mut dense_m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut cfg0 = FactorConfig::with_accuracy(acc);
        cfg0.keep_dense_ratio = 0.0;
        let rep_dense = factorize(&mut dense_m, &cfg0).unwrap();

        assert!(
            rep_dense.memory_after_f64 > rep_lr.memory_after_f64,
            "ratio 0.0 must densify recompressed tiles ({} vs {} words)",
            rep_dense.memory_after_f64,
            rep_lr.memory_after_f64
        );
        let diff = relative_diff(&dense_m.to_dense_lower(), &lr.to_dense_lower());
        assert!(diff < 100.0 * acc, "factor drifted: {diff}");
    }

    #[test]
    fn breakdown_is_populated() {
        let n = 96;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(1e-6);
        let mut m = TlrMatrix::from_generator(n, 24, gen, &ccfg);
        let report = factorize(&mut m, &FactorConfig::with_accuracy(1e-6)).unwrap();
        assert!(report.breakdown.potrf > 0.0);
        assert!(report.breakdown.total() > 0.0);
        assert!(report.factorization_seconds > 0.0);
    }
}
