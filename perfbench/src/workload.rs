//! The three workloads: their seeded inputs, the timed pipeline, and the
//! checks of its outputs.

use distribution::{BandDistribution, DiamondDistribution, TileDistribution};
use hicma_core::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_core::{
    simulate_cholesky, solve_tlr_multi, FactorConfig, FactorReport, RunError, RunOutcome, Session,
    SimReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rbf_mesh::geometry::{spiked_sphere, Point3, VirusConfig};
use rbf_mesh::hilbert::{apply_permutation, hilbert_sort};
use rbf_mesh::{GaussianRbf, MaternKernel, MaternNu};
use runtime::des::CommStats;
use runtime::MachineModel;
use std::time::Instant;
use tlr_bench::{paper_sizes, scaled_machine, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE};
use tlr_compress::{CompressionConfig, RankSnapshot, Tile, TlrMatrix};
use tlr_linalg::Matrix;

use crate::trace::Spans;

/// Compression and recompression threshold of every workload.
pub const ACCURACY: f64 = 1e-6;
/// A solve whose sampled relative residual exceeds this counts as failed.
pub const RESIDUAL_BOUND: f64 = 1e-5;
/// Rows in the seeded residual sample.
pub const SAMPLE_ROWS: usize = 256;
/// Executor threads (the rayon pool is sized to match by `run.py`).
pub const THREADS: usize = 2;
/// Emulated ranks of the distributed sessions.
pub const RANKS: usize = 16;

/// Points per synthetic virus surface.
const POINTS_PER_VIRUS: usize = 500;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Gaussian RBF over a virus population: assembly-bound.
    VirusRbf,
    /// Matérn 3/2 over uniform points in a cube: factorization-bound.
    MaternCube,
    /// Distributed sessions plus the Fig. 9 DES point.
    ShaheenDist,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::VirusRbf,
        Workload::MaternCube,
        Workload::ShaheenDist,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VirusRbf => "virus_rbf",
            Workload::MaternCube => "matern_cube",
            Workload::ShaheenDist => "shaheen_dist",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Downscale of the simulated Fig. 9 point: the paper's 1/16 where the
    /// DES is part of the timed pipeline, otherwise the default scale of
    /// the `fig09_shaheen` bench, which is cheap beside the pipeline.
    fn fig9_scale(self) -> usize {
        match self {
            Workload::ShaheenDist => 16,
            Workload::VirusRbf | Workload::MaternCube => 64,
        }
    }

    fn tile_size(self) -> usize {
        match self {
            Workload::VirusRbf => 400,
            Workload::MaternCube | Workload::ShaheenDist => 250,
        }
    }
}

/// The kernel of a workload's operator.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    Gaussian(GaussianRbf),
    Matern(MaternKernel),
}

impl Kernel {
    /// Exact operator entry, for the residual check.
    pub fn entry(&self, points: &[Point3], i: usize, j: usize) -> f64 {
        match self {
            Kernel::Gaussian(k) => k.matrix_entry(points, i, j),
            Kernel::Matern(k) => k.matrix_entry(points, i, j),
        }
    }
}

/// Hands the kernel's public generator closure to `f`, monomorphized per
/// kernel so the generator is called exactly as the library calls it.
macro_rules! with_generator {
    ($kernel:expr, $points:expr, |$g:ident| $body:expr) => {
        match $kernel {
            Kernel::Gaussian(k) => {
                let $g = k.generator($points);
                $body
            }
            Kernel::Matern(k) => {
                let $g = k.generator($points);
                $body
            }
        }
    };
}
pub(crate) use with_generator;

/// Everything a workload builds before the timed region.
pub struct Inputs {
    pub workload: Workload,
    /// Hilbert-ordered points.
    pub points: Vec<Point3>,
    pub kernel: Kernel,
    /// `n × 3` right-hand sides.
    pub rhs: Matrix,
    pub tile_size: usize,
    /// Rows of the residual sample.
    pub sample: Vec<usize>,
    /// Seconds spent in `hilbert_sort`.
    pub hilbert_s: f64,
    /// `shaheen_dist`: the assembled operator and its assembly seconds.
    pub assembled: Option<(TlrMatrix, f64)>,
    /// The simulated Fig. 9 point.
    pub fig9: Fig9,
}

/// The Fig. 9 operating point, 1.49M unknowns on 512 Shaheen II nodes,
/// downscaled by `1/scale` (see `scaled_problem`).
pub struct Fig9 {
    pub snapshot: RankSnapshot,
    pub machine: MachineModel,
    pub nodes: usize,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: seeds that differ in a few bits map to unrelated
/// ones.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the `index`-th instance a run builds from the benchmark seed.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    mix(seed.wrapping_add((index as u64 + 1).wrapping_mul(GOLDEN)))
}

/// Independent streams derived from an instance seed.
fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ salt.wrapping_mul(GOLDEN)))
}

/// Clearance between the spike envelopes of two neighbouring viruses on
/// the lattice, before jitter.
const LATTICE_GAP: f64 = 0.006;
/// Each virus center moves by up to this much along each axis. Less than
/// half of `LATTICE_GAP`, so bodies never overlap.
const LATTICE_JITTER: f64 = 0.002;
/// Coordinate of the first lattice center on each axis. The lattice sits
/// at a fixed place among the cells of the Hilbert curve, so every
/// instance is ordered alike; centering it instead put the middle virus
/// on the curve's coarsest cell boundary, and the fill-in then varied
/// three times as much between seeds.
const LATTICE_ORIGIN: f64 = 0.1;

/// A population of `nx·ny·nz` viruses on a jittered lattice in the unit
/// cube: neighbouring spike envelopes are `LATTICE_GAP` apart,
/// and each center moves by a seeded offset of up to `LATTICE_JITTER` per
/// axis. The seed also draws every virus's spike axes.
///
/// Centers drawn uniformly at random (as `virus_population` draws them)
/// put a varying number of viruses almost in contact, and the fill-in of
/// the factorization then swings by a factor of 2.7 between seeds
/// (4.4–11.9 Gflop over 16 seeds at N = 20k). On the lattice every
/// instance has the same neighbours, and the fill-in varies by a few
/// percent, so the seed no longer decides the cost of a run.
fn lattice_viruses(dims: [usize; 3], cfg: &VirusConfig, seed: u64) -> Vec<Point3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let reach = cfg.radius * (1.0 + 1.5 * cfg.spike_height);
    let spacing = 2.0 * reach + LATTICE_GAP;
    let mut points = Vec::with_capacity(dims.iter().product::<usize>() * cfg.points_per_virus);
    for i in 0..dims[0] {
        for j in 0..dims[1] {
            for k in 0..dims[2] {
                let mut at = |cell: usize| {
                    LATTICE_ORIGIN
                        + cell as f64 * spacing
                        + rng.gen_range(-LATTICE_JITTER..LATTICE_JITTER)
                };
                let c = Point3 {
                    x: at(i),
                    y: at(j),
                    z: at(k),
                };
                points.extend(spiked_sphere(c, cfg, &mut rng));
            }
        }
    }
    points
}

/// Shape parameter of the virus workloads: half the mean point spacing
/// on one virus surface, `½·√(4πR²/p)`. It depends on the virus
/// template only, not on the seeded placement.
fn virus_delta(cfg: &VirusConfig) -> f64 {
    0.5 * (4.0 * std::f64::consts::PI * cfg.radius * cfg.radius / cfg.points_per_virus as f64)
        .sqrt()
}

impl Inputs {
    /// Build the workload's inputs from the seed.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let vcfg = VirusConfig {
            points_per_virus: POINTS_PER_VIRUS,
            ..VirusConfig::default()
        };
        let mut rhs_rng = stream(seed, 1);
        let (raw, kernel, raw_rhs): (Vec<Point3>, Kernel, Vec<[f64; 3]>) = match workload {
            Workload::VirusRbf | Workload::ShaheenDist => {
                let dims = if workload == Workload::VirusRbf {
                    [5, 4, 2]
                } else {
                    [5, 2, 2]
                };
                let viruses: usize = dims.iter().product();
                let raw = lattice_viruses(dims, &vcfg, seed);
                // Each body translates rigidly: one seeded displacement per
                // virus, so every row of the right-hand sides is non-zero.
                let moves: Vec<[f64; 3]> = (0..viruses)
                    .map(|_| std::array::from_fn(|_| rhs_rng.gen_range(-0.01..0.01)))
                    .collect();
                let rhs = (0..raw.len())
                    .map(|i| moves[i / vcfg.points_per_virus])
                    .collect();
                (
                    raw,
                    Kernel::Gaussian(GaussianRbf::new(virus_delta(&vcfg))),
                    rhs,
                )
            }
            Workload::MaternCube => {
                let mut rng = stream(seed, 2);
                let raw: Vec<Point3> = (0..10_000)
                    .map(|_| Point3 {
                        x: rng.gen(),
                        y: rng.gen(),
                        z: rng.gen(),
                    })
                    .collect();
                let kernel = MaternKernel {
                    nugget: 1e-4,
                    ..MaternKernel::new(0.02, MaternNu::ThreeHalves)
                };
                let rhs = (0..raw.len())
                    .map(|_| std::array::from_fn(|_| rhs_rng.gen_range(-1.0..1.0)))
                    .collect();
                (raw, Kernel::Matern(kernel), rhs)
            }
        };
        let t = Instant::now();
        let order = hilbert_sort(&raw);
        let hilbert_s = t.elapsed().as_secs_f64();
        let points = apply_permutation(&raw, &order);
        let n = points.len();
        let rhs = Matrix::from_fn(n, 3, |i, c| raw_rhs[order[i]][c]);
        let mut sample_rng = stream(seed, 3);
        let mut sample: Vec<usize> = (0..SAMPLE_ROWS)
            .map(|_| sample_rng.gen_range(0..n))
            .collect();
        sample.sort_unstable();
        sample.dedup();

        let mut inputs = Inputs {
            workload,
            points,
            kernel,
            rhs,
            tile_size: workload.tile_size(),
            sample,
            hilbert_s,
            assembled: None,
            fig9: Fig9::build(seed, workload.fig9_scale()),
        };
        if workload == Workload::ShaheenDist {
            let t = Instant::now();
            let a = inputs.assemble();
            inputs.assembled = Some((a, t.elapsed().as_secs_f64()));
        }
        inputs
    }

    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Dense assembly + compression through the library's generator path.
    pub fn assemble(&self) -> TlrMatrix {
        let ccfg = CompressionConfig::with_accuracy(ACCURACY);
        with_generator!(self.kernel, &self.points, |g| {
            TlrMatrix::from_generator(self.n(), self.tile_size, g, &ccfg)
        })
    }

    /// Relative residual `‖(K·X − B)_S‖_F / ‖B_S‖_F` over the sampled rows,
    /// with the exact kernel (no dense `n × n` matrix).
    pub fn residual(&self, x: &Matrix) -> f64 {
        let n = self.n();
        let (num, den) = self
            .sample
            .par_iter()
            .map(|&i| {
                let mut kx = [0.0; 3];
                for j in 0..n {
                    let k = self.kernel.entry(&self.points, i, j);
                    for (c, acc) in kx.iter_mut().enumerate() {
                        *acc += k * x.col(c)[j];
                    }
                }
                let mut num = 0.0;
                let mut den = 0.0;
                for (c, v) in kx.iter().enumerate() {
                    let b = self.rhs.col(c)[i];
                    num += (v - b) * (v - b);
                    den += b * b;
                }
                (num, den)
            })
            .collect::<Vec<(f64, f64)>>()
            .into_iter()
            .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        (num / den).sqrt()
    }
}

impl Fig9 {
    /// The application rank model at the Fig. 9 point, with every
    /// non-null off-diagonal rank scaled by a seeded factor in
    /// `[0.9, 1.1]`: the seed stands for the mesh the ranks would be
    /// measured on.
    fn build(seed: u64, scale: usize) -> Fig9 {
        let (_, n_paper, b_paper) = paper_sizes()[0];
        let (p, mut snapshot) =
            scaled_snapshot(n_paper, b_paper, 512, scale, PAPER_SHAPE, PAPER_ACCURACY);
        let mut rng = stream(seed, 4);
        let cap = p.tile_size / 2;
        for i in 0..p.nt {
            for j in 0..i {
                let r = snapshot.rank(i, j);
                if r > 0 {
                    let f: f64 = rng.gen_range(0.9..1.1);
                    snapshot.set_rank(i, j, ((r as f64 * f).round() as usize).clamp(1, cap));
                }
            }
        }
        Fig9 {
            snapshot,
            machine: scaled_machine(MachineModel::shaheen_ii(), scale),
            nodes: p.nodes,
        }
    }
}

/// Factor configuration of every session.
pub fn factor_config(threads: usize) -> FactorConfig {
    FactorConfig {
        nthreads: threads,
        ..FactorConfig::with_accuracy(ACCURACY)
    }
}

/// Band data distribution with diamond execution remapping off the band
/// (the paper's full HiCMA-PaRSEC placement).
pub struct BandDiamond {
    band: BandDistribution,
    diamond: DiamondDistribution,
}

impl BandDiamond {
    pub fn new(nprocs: usize) -> Self {
        Self {
            band: BandDistribution::new(nprocs),
            diamond: DiamondDistribution::new(nprocs),
        }
    }
}

impl TileDistribution for BandDiamond {
    fn owner(&self, i: usize, j: usize) -> usize {
        if i - j < self.band.band_width {
            self.band.owner(i, j)
        } else {
            self.diamond.owner(i, j)
        }
    }
    fn nprocs(&self) -> usize {
        self.band.nprocs()
    }
    fn name(&self) -> &'static str {
        "band+diamond"
    }
}

/// HiCMA-PaRSEC and Lorapo simulated on one rank snapshot.
pub struct SimPair {
    pub hicma: SimReport,
    pub lorapo: SimReport,
}

impl SimPair {
    pub fn run(fig9: &Fig9, spans: &mut Spans) -> SimPair {
        let Fig9 {
            snapshot,
            machine,
            nodes,
        } = fig9;
        let hicma = spans.time("des.hicma", || {
            simulate_cholesky(snapshot, &hicma_parsec_config(machine.clone(), *nodes))
        });
        let lorapo = spans.time("des.lorapo", || {
            simulate_cholesky(snapshot, &lorapo_config(machine.clone(), *nodes))
        });
        SimPair { hicma, lorapo }
    }

    pub fn speedup(&self) -> f64 {
        self.lorapo.factorization_seconds / self.hicma.factorization_seconds
    }

    /// The simulated schedule can never beat its own critical path.
    pub fn is_sane(&self) -> bool {
        [&self.hicma, &self.lorapo].iter().all(|r| {
            r.factorization_seconds.is_finite()
                && r.factorization_seconds >= r.critical_path_seconds
                && r.critical_path_seconds > 0.0
        })
    }
}

/// One distributed session's outcome.
pub struct DistRun {
    pub factor: TlrMatrix,
    pub report: FactorReport,
    pub comm: CommStats,
}

/// Factor `a` across `RANKS` emulated ranks with the given placement.
pub fn distributed(mut a: TlrMatrix, exec: &dyn TileDistribution) -> Result<DistRun, RunError> {
    let out = Session::distributed(factor_config(THREADS), RANKS, exec).run(&mut a)?;
    Ok(DistRun {
        factor: a,
        report: out.report,
        comm: out.comm.expect("distributed runs count their traffic"),
    })
}

/// The shared-memory pipeline after assembly: plan, factor, solve.
pub struct Solved {
    pub factor: TlrMatrix,
    pub outcome: RunOutcome,
    pub plan_tasks: usize,
    pub x: Matrix,
}

pub fn plan_factor_solve(
    mut a: TlrMatrix,
    rhs: &Matrix,
    threads: usize,
    spans: &mut Spans,
) -> Result<Solved, RunError> {
    let session = Session::shared(factor_config(threads));
    let plan = spans.time("plan", || session.plan(&a))?;
    let outcome = spans.time("factor", || session.run_with_plan(&plan, &mut a))?;
    let mut x = rhs.clone();
    spans.time("solve", || solve_tlr_multi(&a, &mut x));
    Ok(Solved {
        factor: a,
        outcome,
        plan_tasks: plan.tasks(),
        x,
    })
}

/// Whether two factors are bit-identical, tile by tile.
pub fn bit_identical(a: &TlrMatrix, b: &TlrMatrix) -> bool {
    fn same(x: &Matrix, y: &Matrix) -> bool {
        x.rows() == y.rows()
            && x.cols() == y.cols()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    }
    a.nt() == b.nt()
        && (0..a.nt()).all(|i| {
            (0..=i).all(|j| match (a.tile(i, j), b.tile(i, j)) {
                (Tile::Dense(x), Tile::Dense(y)) => same(x, y),
                (Tile::LowRank { u: u1, v: v1 }, Tile::LowRank { u: u2, v: v2 }) => {
                    same(u1, u2) && same(v1, v2)
                }
                (Tile::Null { rows: r1, cols: c1 }, Tile::Null { rows: r2, cols: c2 }) => {
                    r1 == r2 && c1 == c2
                }
                _ => false,
            })
        })
}
