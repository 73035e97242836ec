//! Comm-avoiding re-planning: feed a completed run's measured
//! communication back into the next run's tile placement.
//!
//! The paper's distributions (band/diamond/Lorapo/2D-block-cyclic) are
//! static: the mapping is fixed before rank structure is known. But the
//! RBF mesh-deformation workload solves on the *same geometry* many
//! times, and after the first factorization the DAG — which tiles talk
//! to which, and how many bytes each edge really carries after
//! compression — is fully known. [`CommReplanner`] exploits that: after
//! every distributed run it rebuilds a tile-level communication graph
//! from the DAG and the mapping the run actually used, then greedily
//! migrates whole tile write-chains between ranks wherever that strictly
//! reduces modeled cross-rank traffic without unbalancing compute beyond
//! a slack factor. The proposal drives the next run through per-tile
//! rank overrides ([`Session::with_replanning`]); moving *all* writers of
//! a tile together preserves the engine's writers-co-located placement
//! invariant by construction, so the factor stays bit-identical — only
//! the traffic changes.
//!
//! The model is exact, not heuristic: on a fault-free run the
//! distributed engine sends exactly one message of `edge.bytes` per
//! cross-rank dataflow edge, which is precisely what [`modeled_comm`]
//! counts (the tests pin this equality). Measured feedback still gates
//! every step — if a proposal ever measures *worse* (e.g. under a fault
//! plan whose retransmissions distort volume), the replanner reverts to
//! the best mapping seen and converges there, so repeated solves never
//! regress.
//!
//! [`Session::with_replanning`]: crate::session::Session::with_replanning

use runtime::des::CommStats;
use runtime::graph::TaskGraph;
use std::collections::HashMap;

/// Modeled communication of executing `graph` under the task→rank
/// mapping `exec_rank`: one message of `edge.bytes` per dataflow edge
/// whose producer and consumer ranks differ. This is exactly the
/// fault-free accounting of the distributed engine, so on a clean run
/// it equals the measured [`CommStats`] bit for bit.
pub fn modeled_comm(graph: &TaskGraph, exec_rank: &[usize]) -> CommStats {
    let mut bytes = 0u64;
    let mut messages = 0u64;
    for src in 0..graph.len() {
        for e in graph.successors(src) {
            if exec_rank[src] != exec_rank[e.dst] {
                bytes += e.bytes;
                messages += 1;
            }
        }
    }
    CommStats { bytes, messages }
}

/// Greedy comm-feedback re-planner for repeated distributed solves on
/// one geometry. Embed one in a session's plan with
/// [`Session::with_replanning`](crate::session::Session::with_replanning);
/// each completed run calls [`observe`](CommReplanner::observe), which
/// accepts or reverts the last proposal on *measured* traffic and then
/// hill-climbs the tile→rank mapping on the exact comm model.
#[derive(Debug, Clone)]
pub struct CommReplanner {
    nprocs: usize,
    /// Allowed compute imbalance: a rank may carry up to
    /// `(1 + slack) · total_flops / nprocs`.
    slack: f64,
    overrides: HashMap<(usize, usize), usize>,
    /// The last mapping whose measured traffic was accepted.
    accepted: HashMap<(usize, usize), usize>,
    best_bytes: Option<u64>,
    rounds: usize,
    converged: bool,
}

impl CommReplanner {
    /// A re-planner for `nprocs` ranks with the default 20 % compute
    /// imbalance slack.
    pub fn new(nprocs: usize) -> Self {
        Self::with_slack(nprocs, 0.2)
    }

    /// A re-planner with an explicit imbalance slack (`0.0` forbids any
    /// move that pushes a rank above the perfectly balanced load).
    pub fn with_slack(nprocs: usize, slack: f64) -> Self {
        CommReplanner {
            nprocs: nprocs.max(1),
            slack: slack.max(0.0),
            overrides: HashMap::new(),
            accepted: HashMap::new(),
            best_bytes: None,
            rounds: 0,
            converged: false,
        }
    }

    /// The per-tile rank overrides the *next* run should plan with.
    pub fn overrides(&self) -> &HashMap<(usize, usize), usize> {
        &self.overrides
    }

    /// Completed observe/propose rounds so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether the replanner has stopped proposing (no improving move
    /// left, or a proposal measured worse and was rolled back).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Smallest measured cross-rank byte volume accepted so far.
    pub fn best_bytes(&self) -> Option<u64> {
        self.best_bytes
    }

    /// Feed back one completed run: `graph`/`exec_rank` are the DAG and
    /// mapping the run planned with, `measured` its counted traffic.
    ///
    /// If the run measured worse than the best accepted mapping, the
    /// proposal that produced it is discarded and the best mapping is
    /// restored — the next run can therefore never exceed a volume
    /// already measured. Otherwise the mapping is accepted and a new
    /// proposal is hill-climbed from it.
    pub fn observe(&mut self, graph: &TaskGraph, exec_rank: &[usize], measured: &CommStats) {
        self.rounds += 1;
        if let Some(best) = self.best_bytes {
            if measured.bytes > best {
                // The proposal regressed on real traffic: roll back and
                // stop — re-proposing from the same model would just
                // reproduce the same rejected move.
                self.overrides = self.accepted.clone();
                self.converged = true;
                return;
            }
        }
        self.best_bytes = Some(measured.bytes);
        self.accepted = self.overrides.clone();
        if self.converged {
            return;
        }
        if !self.propose(graph, exec_rank) {
            self.converged = true;
        }
    }

    /// Hill-climb whole-tile migrations on the exact comm model.
    /// Returns whether any improving move was found.
    fn propose(&mut self, graph: &TaskGraph, exec_rank: &[usize]) -> bool {
        let n = graph.len();
        // Group tasks by written tile; writers share a rank by the
        // placement invariant, so the group rank is any writer's rank.
        let mut tiles: Vec<(usize, usize)> = Vec::new();
        let mut tile_idx: HashMap<(usize, usize), usize> = HashMap::new();
        let mut tile_of_task = vec![usize::MAX; n];
        let mut rank = Vec::new();
        let mut load = vec![0.0f64; self.nprocs];
        for t in 0..n {
            let w = graph
                .spec(t)
                .writes
                .expect("every Cholesky task writes its tile");
            let key = (w.i, w.j);
            let u = *tile_idx.entry(key).or_insert_with(|| {
                tiles.push(key);
                rank.push(exec_rank[t]);
                tiles.len() - 1
            });
            tile_of_task[t] = u;
            load[rank[u]] += graph.spec(t).flops;
        }
        // Tile-level traffic: adjacency with summed edge bytes. Edges
        // inside one tile's write-chain are always local and drop out.
        let ntiles = tiles.len();
        let mut adj: Vec<HashMap<usize, u64>> = vec![HashMap::new(); ntiles];
        for src in 0..n {
            let u = tile_of_task[src];
            for e in graph.successors(src) {
                let v = tile_of_task[e.dst];
                if u != v && e.bytes > 0 {
                    *adj[u].entry(v).or_insert(0) += e.bytes;
                    *adj[v].entry(u).or_insert(0) += e.bytes;
                }
            }
        }
        let total: f64 = load.iter().sum();
        let cap = (1.0 + self.slack) * total / self.nprocs as f64;
        let tile_flops: Vec<f64> = {
            let mut f = vec![0.0; ntiles];
            for t in 0..n {
                f[tile_of_task[t]] += graph.spec(t).flops;
            }
            f
        };

        let mut improved = false;
        // Each applied move strictly decreases modeled cross bytes, so
        // the loop terminates; the pass bound keeps worst cases linear.
        for _pass in 0..4 {
            let mut moved = false;
            for u in 0..ntiles {
                let cur = rank[u];
                // Cross bytes incident to `u` per candidate rank.
                let mut cross: Vec<u64> = vec![0; self.nprocs];
                let mut incident = 0u64;
                for (&v, &b) in &adj[u] {
                    incident += b;
                    cross[rank[v]] += b;
                }
                if incident == 0 {
                    continue;
                }
                // At rank r the tile pays `incident - cross[r]`.
                let mut best_r = cur;
                let mut best_cost = incident - cross[cur];
                for r in 0..self.nprocs {
                    if r == cur {
                        continue;
                    }
                    let cost = incident - cross[r];
                    if cost < best_cost && load[r] + tile_flops[u] <= cap {
                        best_cost = cost;
                        best_r = r;
                    }
                }
                if best_r != cur {
                    load[cur] -= tile_flops[u];
                    load[best_r] += tile_flops[u];
                    rank[u] = best_r;
                    moved = true;
                    improved = true;
                }
            }
            if !moved {
                break;
            }
        }
        if improved {
            self.overrides = tiles
                .iter()
                .zip(&rank)
                .map(|(&(i, j), &r)| ((i, j), r))
                .collect();
        }
        improved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::plan_distribution;
    use crate::factorize::{factorize, FactorConfig};
    use crate::session::Session;
    use distribution::TwoDBlockCyclic;
    use tlr_compress::{CompressionConfig, TlrMatrix};
    use tlr_linalg::norms::relative_diff;
    use tlr_linalg::Matrix;

    fn gaussian_dense(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / (n as f64 / 8.0);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-3
            } else {
                v
            }
        })
    }

    /// The model is the engine: on a fault-free run the measured
    /// cross-rank traffic equals [`modeled_comm`] on the planned
    /// mapping, byte for byte and message for message.
    #[test]
    fn model_matches_measured_distengine_comm() {
        let n = 120;
        let b = 24;
        let acc = 1e-8;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let fcfg = FactorConfig::with_accuracy(acc);
        let dist = TwoDBlockCyclic::new(4);

        let for_plan = TlrMatrix::from_dense(&dense, b, &ccfg);
        let plan = plan_distribution(&for_plan, &fcfg, 4, &dist);
        let modeled = modeled_comm(&plan.dag.graph, &plan.exec_rank);

        let mut m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let measured = Session::distributed(fcfg, 4, &dist)
            .run(&mut m)
            .unwrap()
            .comm
            .unwrap();
        assert_eq!(measured.bytes, modeled.bytes);
        assert_eq!(measured.messages, modeled.messages);
    }

    /// Repeated solves on one geometry through the embedded re-planner
    /// (`with_replanning`) and a shared `PlanCache`: traffic never
    /// increases round over round, strictly drops from the static
    /// baseline, and the factor stays bit-identical to the shared-memory
    /// run throughout. The converged overrides live *in the cached
    /// plan*, so every round after the first is a cache hit.
    #[test]
    fn replanner_reduces_comm_and_preserves_the_factor() {
        let n = 120;
        let b = 24;
        let acc = 1e-8;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let fcfg = FactorConfig::with_accuracy(acc);
        let dist = TwoDBlockCyclic::new(4);

        let mut reference = TlrMatrix::from_dense(&dense, b, &ccfg);
        factorize(&mut reference, &fcfg).unwrap();
        let l_ref = reference.to_dense_lower();

        let cache = crate::plan::PlanCache::new(4);
        let session = Session::distributed(fcfg, 4, &dist)
            .with_replanning(0.2)
            .with_plan_cache(&cache);
        let mut bytes = Vec::new();
        for _round in 0..3 {
            let mut m = TlrMatrix::from_dense(&dense, b, &ccfg);
            let out = session.run(&mut m).unwrap();
            bytes.push(out.comm.unwrap().bytes);
            assert_eq!(
                relative_diff(&m.to_dense_lower(), &l_ref),
                0.0,
                "replanned factor must stay bit-identical"
            );
        }
        // One plan built, then hits whose refreshed mapping carries the
        // re-planner's accepted overrides forward.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        for w in bytes.windows(2) {
            assert!(w[1] <= w[0], "comm volume regressed: {bytes:?}");
        }
        assert!(
            bytes.last().unwrap() < &bytes[0],
            "replanner found no improvement over the static mapping: {bytes:?}"
        );
    }

    /// The measured-feedback gate: a round that measures worse than the
    /// best accepted volume rolls the proposal back and converges.
    #[test]
    fn worse_measurement_reverts_the_proposal() {
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let fcfg = FactorConfig::with_accuracy(acc);
        let dist = TwoDBlockCyclic::new(4);
        let m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let plan = plan_distribution(&m, &fcfg, 4, &dist);

        let mut r = CommReplanner::new(4);
        let base = modeled_comm(&plan.dag.graph, &plan.exec_rank);
        r.observe(&plan.dag.graph, &plan.exec_rank, &base);
        assert!(!r.overrides().is_empty(), "a proposal must exist");
        let proposed = r.overrides().clone();

        // Pretend the proposal measured catastrophically worse.
        let worse = CommStats {
            bytes: base.bytes * 2 + 1,
            messages: base.messages,
        };
        r.observe(&plan.dag.graph, &plan.exec_rank, &worse);
        assert_ne!(r.overrides(), &proposed, "the bad proposal must be dropped");
        assert!(r.converged(), "a rejected proposal ends the search");
        assert_eq!(r.best_bytes(), Some(base.bytes));
    }
}
