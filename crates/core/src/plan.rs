//! Symbolic planning split from numeric execution.
//!
//! PaRSEC separates a factorization into a *symbolic* phase (unroll the
//! PTG, trim the execution space, map tasks to ranks, precompute
//! scheduling priorities) and a *numeric* phase (run kernels over the
//! planned graph). Until this module the two were fused: every
//! [`Session::run`](crate::session::Session::run) rebuilt the DAG,
//! distribution mapping, fused-batch groups and scheduler keys from
//! scratch — pure overhead on workloads that factor the *same tile
//! structure* repeatedly (the RBF mesh-deformation timestep loop, or a
//! multi-tenant solver service).
//!
//! [`SymbolicPlan`] is the reusable artifact of the symbolic phase: an
//! immutable, self-contained bundle of
//!
//! * the trimmed [`CholeskyDag`],
//! * precomputed scheduler state ([`SchedPlan`] key/lookahead tables on
//!   shared-memory plans, priority-driven topological orders on
//!   distributed ones),
//! * the fused panel-batch groups ([`crate::batch::PanelBatch`]),
//! * on distributed plans, the full placement machinery (task→rank map,
//!   per-tile initial placement, predecessor lookup, writer maps) plus
//!   the comm-feedback re-planner state, so converged placement
//!   overrides persist *with the plan* across runs.
//!
//! Plans are keyed by a structural fingerprint ([`PlanKey`]) folded with
//! the same FNV-1a chain as the tile-integrity digests
//! ([`tlr_compress::WordFold`]): tile grid, per-tile rank structure,
//! accuracy/rank caps, layout owner map, rank count, scheduling policy
//! and capability flags. Two matrices with the same key plan
//! identically, so a [`PlanCache`] can hand out one `Arc<SymbolicPlan>`
//! to every request that matches — a warm-cache run skips the symbolic
//! phase entirely. The factor is bit-identical either way: planning
//! decides *where and in what order* kernels run, never what they
//! compute (`tests/plan_cache.rs` holds every capability subset, policy
//! and batching mode to that).

use crate::batch::{batch_panel_gemms, PanelBatch};
use crate::dag::{build_cholesky_dag, CholeskyDag, DagConfig};
use crate::factorize::FactorConfig;
use crate::replan::CommReplanner;
use distribution::TileDistribution;
use parking_lot::{Mutex, RwLock};
use runtime::engine::EngineError;
use runtime::graph::{DataRef, TaskId};
use runtime::scheduler::{dist_priority_order, SchedPlan, SchedPolicy};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tlr_compress::{RankSnapshot, WordFold};

/// Packed lower-triangular tile index.
#[inline]
fn lower(i: usize, j: usize) -> usize {
    i * (i + 1) / 2 + j
}

/// Where a plan executes — part of the cache key, because shared and
/// distributed plans carry different artifacts, and distributed plans
/// bake capability flags into batching and payload decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanMode {
    /// Shared-memory work-stealing engine.
    Shared,
    /// Emulated distributed-memory ranks.
    Distributed {
        /// Emulated rank count (changes every mapping).
        nprocs: usize,
        /// A fault layer is configured (disables panel batching).
        ft: bool,
        /// The tile-integrity layer is armed, explicitly or by a
        /// corruption-injecting fault plan (sealed payloads, no
        /// batching).
        verify: bool,
        /// A virtual-time trace is recorded (no batching).
        trace: bool,
        /// A comm-feedback re-planner is embedded in the plan.
        replan: bool,
    },
}

/// Structural fingerprint of a factorization plan.
///
/// Two (matrix, session-config) pairs with equal keys produce the same
/// symbolic plan, so the key is what a [`PlanCache`] hashes on. The
/// `structure` field folds the per-tile rank snapshot (and, on
/// distributed plans, the layout's owner map) through the FNV-1a word
/// chain of the tile-integrity layer ([`tlr_compress::WordFold`]).
///
/// Worker-thread count is deliberately *not* part of the key: the DAG,
/// batching and scheduler tables are all thread-count independent, and
/// the factor is bit-identical across thread counts, so one plan serves
/// any pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Execution mode plus the capability flags that alter planning.
    pub mode: PlanMode,
    /// Tile-grid dimension.
    pub nt: usize,
    /// Tile size in rows.
    pub tile_size: usize,
    /// Whether the DAG is Algorithm-1 trimmed.
    pub trimmed: bool,
    /// Rank cap (HiCMA `maxrank`) used for fill-in estimates.
    pub max_rank: usize,
    /// Bit pattern of the recompression accuracy.
    pub accuracy_bits: u64,
    /// Ready-queue scheduling policy the plan precomputes keys for.
    pub sched: SchedPolicy,
    /// Whether panel batching was requested.
    pub batch_panels: bool,
    /// FNV-1a fold of the rank structure (and distributed owner map).
    pub structure: u64,
}

/// Everything a distributed plan needs beyond the DAG, split into the
/// immutable skeleton (here) and the override-dependent mapping
/// ([`DistMapping`], behind the `RwLock` so an embedded re-planner can
/// refresh placement between runs without rebuilding the plan).
pub(crate) struct DistStatic {
    pub(crate) nprocs: usize,
    /// Baseline owner rank per packed-lower tile (the layout's owner
    /// map, clamped to `nprocs`), baked in so the plan stays
    /// self-contained — no `&dyn TileDistribution` borrow outlives
    /// planning.
    base_owner: Vec<usize>,
    /// Task → (producer, datum) lookup for the kernel dispatch.
    pub(crate) preds: Vec<Vec<(TaskId, DataRef)>>,
    first_writer: HashMap<(usize, usize), TaskId>,
    pub(crate) last_writer: HashMap<(usize, usize), TaskId>,
    /// Whether this plan's capability flags permit panel batching.
    batchable: bool,
    /// Embedded comm-feedback re-planner: its converged overrides live
    /// with the cached plan, so repeated solves through the cache keep
    /// improving (and keep) their placement.
    pub(crate) replan: Option<Mutex<CommReplanner>>,
    /// The override-dependent half of the plan.
    pub(crate) mapping: RwLock<DistMapping>,
}

/// The parts of a distributed plan that depend on the current per-tile
/// rank overrides: task→rank mapping, initial tile placement, the
/// precomputed execution order, and (when batching applies) the fused
/// graph with its own rank map and order.
pub(crate) struct DistMapping {
    pub(crate) overrides: HashMap<(usize, usize), usize>,
    pub(crate) exec_rank: Vec<usize>,
    pub(crate) placement: HashMap<(usize, usize), usize>,
    /// Priority-driven topological order over the original DAG
    /// ([`dist_priority_order`]), computed once here instead of per run.
    pub(crate) order: Vec<TaskId>,
    pub(crate) batch: Option<DistBatch>,
}

/// Batched-execution artifacts of a distributed mapping.
pub(crate) struct DistBatch {
    pub(crate) pb: PanelBatch,
    pub(crate) exec_rank: Vec<usize>,
    pub(crate) order: Vec<TaskId>,
}

impl DistStatic {
    /// Rank of tile `(i, j)` under `overrides`, falling back to the
    /// baked-in layout owner.
    fn rank_of_tile(
        &self,
        overrides: &HashMap<(usize, usize), usize>,
        i: usize,
        j: usize,
    ) -> usize {
        overrides
            .get(&(i, j))
            .copied()
            .unwrap_or(self.base_owner[lower(i, j)])
            .min(self.nprocs - 1)
    }

    /// Derive the override-dependent mapping: exec ranks, placement,
    /// precomputed orders, and the batched graph when applicable. Called
    /// at plan build and again whenever the embedded re-planner moves a
    /// tile chain — a refresh re-derives from the existing DAG, never
    /// rebuilds it.
    pub(crate) fn derive_mapping(
        &self,
        dag: &CholeskyDag,
        nt: usize,
        policy: SchedPolicy,
        overrides: HashMap<(usize, usize), usize>,
    ) -> Result<DistMapping, EngineError> {
        let exec_rank: Vec<usize> = (0..dag.graph.len())
            .map(|t| {
                let w = dag
                    .graph
                    .spec(t)
                    .writes
                    .expect("every Cholesky task writes its tile");
                self.rank_of_tile(&overrides, w.i, w.j)
            })
            .collect();
        let mut placement: HashMap<(usize, usize), usize> = HashMap::new();
        for i in 0..nt {
            for j in 0..=i {
                let rank = self
                    .first_writer
                    .get(&(i, j))
                    .map(|&t| exec_rank[t])
                    .unwrap_or_else(|| self.rank_of_tile(&overrides, i, j));
                placement.insert((i, j), rank);
            }
        }
        let order = dist_priority_order(&dag.graph, policy, &exec_rank)?;
        let batch = if self.batchable {
            let pb = batch_panel_gemms(dag, Some(&exec_rank));
            let exec_rank_b = pb.exec_ranks(&exec_rank);
            let order_b = dist_priority_order(&pb.graph, policy, &exec_rank_b)?;
            Some(DistBatch {
                pb,
                exec_rank: exec_rank_b,
                order: order_b,
            })
        } else {
            None
        };
        Ok(DistMapping {
            overrides,
            exec_rank,
            placement,
            order,
            batch,
        })
    }

    /// Refresh the mapping in place for a new override set (re-planner
    /// feedback, or a cache hit from a session seeding different
    /// overrides).
    pub(crate) fn refresh(
        &self,
        dag: &CholeskyDag,
        nt: usize,
        policy: SchedPolicy,
        overrides: HashMap<(usize, usize), usize>,
    ) -> Result<(), EngineError> {
        let mapping = self.derive_mapping(dag, nt, policy, overrides)?;
        *self.mapping.write() = mapping;
        Ok(())
    }
}

/// The immutable artifact of the symbolic phase: trimmed DAG, scheduler
/// tables, fused-batch groups and (on distributed plans) the placement
/// machinery, built once and consumed by any number of numeric runs.
///
/// Build one with [`Session::plan`](crate::session::Session::plan) (or
/// implicitly through a [`PlanCache`]), execute it with
/// [`Session::run_with_plan`](crate::session::Session::run_with_plan).
/// A plan is tied to its [`PlanKey`]: running it against a matrix or
/// session configuration with a different key is rejected as
/// [`RunError::PlanMismatch`](crate::session::RunError::PlanMismatch)
/// instead of deadlocking or silently misplacing tiles.
pub struct SymbolicPlan {
    pub(crate) key: PlanKey,
    pub(crate) nt: usize,
    pub(crate) dag: CholeskyDag,
    /// Precomputed scheduler state for shared-memory runs (`None` on
    /// distributed plans, whose orders live in the mapping). Built over
    /// the *engine-visible* graph: the contracted batch graph when
    /// batching is on, the original DAG otherwise.
    pub(crate) sched: Option<SchedPlan>,
    /// Fused panel-batch groups for shared-memory runs.
    pub(crate) batch: Option<PanelBatch>,
    /// Distributed-plan machinery.
    pub(crate) dist: Option<DistStatic>,
    pub(crate) planning_seconds: f64,
}

impl SymbolicPlan {
    /// The structural fingerprint this plan was built for.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// Tasks in the (trimmed) DAG the plan executes.
    pub fn tasks(&self) -> usize {
        self.dag.graph.len()
    }

    /// Wall-clock seconds the symbolic phase took to build this plan.
    /// A warm-cache run pays a key fold and a map lookup instead.
    pub fn planning_seconds(&self) -> f64 {
        self.planning_seconds
    }

    /// Whether this is a distributed-memory plan.
    pub fn is_distributed(&self) -> bool {
        self.dist.is_some()
    }
}

impl std::fmt::Debug for SymbolicPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicPlan")
            .field("key", &self.key)
            .field("tasks", &self.tasks())
            .field("batched", &self.batch.is_some())
            .field("distributed", &self.dist.is_some())
            .field("planning_seconds", &self.planning_seconds)
            .finish()
    }
}

/// Inputs of a distributed plan build (everything
/// [`Session`](crate::session::Session) knows beyond the
/// [`FactorConfig`]).
pub(crate) struct DistPlanInputs<'a> {
    pub(crate) nprocs: usize,
    pub(crate) exec: &'a dyn TileDistribution,
    /// A fault layer is configured.
    pub(crate) ft: bool,
    /// The integrity layer is armed (explicitly or by the fault plan).
    pub(crate) verify: bool,
    /// A virtual-time trace will be recorded.
    pub(crate) trace: bool,
    /// Embed a [`CommReplanner`] with this imbalance slack.
    pub(crate) replan_slack: Option<f64>,
}

/// Compute the cache key for a (config, structure, mode) triple.
pub(crate) fn plan_key(
    cfg: &FactorConfig,
    snapshot: &RankSnapshot,
    dist: Option<&DistPlanInputs<'_>>,
) -> PlanKey {
    let nt = snapshot.nt();
    let mut fold = WordFold::new();
    for &r in snapshot.as_flat() {
        fold.push_usize(r);
    }
    let mode = match dist {
        None => PlanMode::Shared,
        Some(d) => {
            // The owner map is part of the structure: two layouts that
            // place tiles differently must not share a plan.
            for i in 0..nt {
                for j in 0..=i {
                    fold.push_usize(d.exec.owner(i, j).min(d.nprocs - 1));
                }
            }
            PlanMode::Distributed {
                nprocs: d.nprocs,
                ft: d.ft,
                verify: d.verify,
                trace: d.trace,
                replan: d.replan_slack.is_some(),
            }
        }
    };
    PlanKey {
        mode,
        nt,
        tile_size: snapshot.tile_size(),
        trimmed: cfg.trimmed,
        max_rank: cfg.max_rank,
        accuracy_bits: cfg.accuracy.to_bits(),
        sched: cfg.sched,
        batch_panels: cfg.batch_panels,
        structure: fold.finish(),
    }
}

/// Run the symbolic phase once: DAG build + batching + scheduler tables
/// (+ distribution mapping on distributed plans).
pub(crate) fn build_plan(
    cfg: &FactorConfig,
    snapshot: &RankSnapshot,
    dist: Option<DistPlanInputs<'_>>,
) -> Result<SymbolicPlan, EngineError> {
    let t0 = std::time::Instant::now();
    let key = plan_key(cfg, snapshot, dist.as_ref());
    let nt = snapshot.nt();
    let dag = build_cholesky_dag(
        snapshot,
        &DagConfig {
            trimmed: cfg.trimmed,
            rank_cap: cfg.max_rank,
        },
    );
    let (sched, batch, dist) = match dist {
        None => {
            let batch = cfg.batch_panels.then(|| batch_panel_gemms(&dag, None));
            // The scheduler runs over the graph the engine sees: the
            // contracted batch graph when batching is on.
            let sched = match &batch {
                Some(pb) => SchedPlan::build(&pb.graph, cfg.sched)?,
                None => SchedPlan::build(&dag.graph, cfg.sched)?,
            };
            (Some(sched), batch, None)
        }
        Some(d) => {
            let mut base_owner = vec![0usize; nt * (nt + 1) / 2];
            for i in 0..nt {
                for j in 0..=i {
                    base_owner[lower(i, j)] = d.exec.owner(i, j).min(d.nprocs - 1);
                }
            }
            let mut preds: Vec<Vec<(TaskId, DataRef)>> = vec![Vec::new(); dag.graph.len()];
            for src in 0..dag.graph.len() {
                for e in dag.graph.successors(src) {
                    preds[e.dst].push((src, e.data));
                }
            }
            let mut first_writer: HashMap<(usize, usize), TaskId> = HashMap::new();
            let mut last_writer: HashMap<(usize, usize), TaskId> = HashMap::new();
            for t in 0..dag.graph.len() {
                let w = dag
                    .graph
                    .spec(t)
                    .writes
                    .expect("every Cholesky task writes its tile");
                first_writer.entry((w.i, w.j)).or_insert(t);
                last_writer.insert((w.i, w.j), t);
            }
            // Batching composes with plain distributed runs only: fault
            // recovery, integrity healing and the virtual-time trace all
            // reason about single-tile tasks.
            let batchable = cfg.batch_panels && !d.ft && !d.verify && !d.trace;
            let ds = DistStatic {
                nprocs: d.nprocs,
                base_owner,
                preds,
                first_writer,
                last_writer,
                batchable,
                replan: d
                    .replan_slack
                    .map(|s| Mutex::new(CommReplanner::with_slack(d.nprocs, s))),
                mapping: RwLock::new(DistMapping {
                    overrides: HashMap::new(),
                    exec_rank: Vec::new(),
                    placement: HashMap::new(),
                    order: Vec::new(),
                    batch: None,
                }),
            };
            let mapping = ds.derive_mapping(&dag, nt, cfg.sched, HashMap::new())?;
            *ds.mapping.write() = mapping;
            (None, None, Some(ds))
        }
    };
    Ok(SymbolicPlan {
        key,
        nt,
        dag,
        sched,
        batch,
        dist,
        planning_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Cache-activity delta of one plan acquisition, recorded into the run's
/// metrics registry (`plan_cache_hits` / `plan_cache_misses` /
/// `plan_cache_evictions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheEvents {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// A keyed, LRU-evicting cache of [`SymbolicPlan`]s.
///
/// Safe to share across threads and sessions (the
/// [`SolveService`](crate::service::SolveService) holds one for all
/// tenants): lookups hand out `Arc` clones, hit/miss/eviction totals are
/// relaxed atomics, and the LRU list sits behind a mutex that is only
/// held for the (cheap) key comparison — plan *building* happens outside
/// the lock. Two threads racing on the same cold key may both build; the
/// second insert wins and the loser's plan simply drops, which is
/// correct because equal keys build identical plans.
pub struct PlanCache {
    cap: usize,
    /// Front = most recently used.
    inner: Mutex<Vec<(PlanKey, Arc<SymbolicPlan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            cap: capacity.max(1),
            inner: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that built a plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Look up a plan, marking it most-recently-used.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<SymbolicPlan>> {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.iter().position(|(k, _)| k == key) {
            let entry = inner.remove(pos);
            let plan = entry.1.clone();
            inner.insert(0, entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(plan)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Insert a plan, evicting least-recently-used entries beyond
    /// capacity. Returns how many entries were evicted.
    pub fn insert(&self, plan: Arc<SymbolicPlan>) -> u64 {
        let mut inner = self.inner.lock();
        inner.retain(|(k, _)| k != &plan.key);
        inner.insert(0, (plan.key, plan));
        let mut evicted = 0u64;
        while inner.len() > self.cap {
            inner.pop();
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Look up `key` or build-and-insert via `build`, reporting the
    /// cache activity of this acquisition.
    pub fn get_or_build<E>(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> Result<SymbolicPlan, E>,
    ) -> Result<(Arc<SymbolicPlan>, CacheEvents), E> {
        if let Some(plan) = self.lookup(key) {
            return Ok((
                plan,
                CacheEvents {
                    hits: 1,
                    ..CacheEvents::default()
                },
            ));
        }
        let plan = Arc::new(build()?);
        let evictions = self.insert(plan.clone());
        Ok((
            plan,
            CacheEvents {
                hits: 0,
                misses: 1,
                evictions,
            },
        ))
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("cap", &self.cap)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}
