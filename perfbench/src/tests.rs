//! Guards on the workloads themselves: each stays in its intended
//! sparsity band, and the exact counts the benchmark reports repeat
//! exactly for a seed. Run with `cargo test --release`.

use crate::probes::compress_pass;
use crate::trace::Spans;
use crate::workload::{
    distributed, factor_config, BandDiamond, Inputs, SimPair, Workload, RANKS, THREADS,
};
use distribution::BandDistribution;
use hicma_core::Session;
use std::ops::Range;

/// The exact counts of one workload instance.
#[derive(Debug, PartialEq)]
struct Counts {
    kernel_evals: u64,
    null_tiles: u64,
    plan_tasks: usize,
    /// Bytes and messages of the `band` and `band+diamond` sessions.
    comm: Option<[(u64, u64); 2]>,
    /// Bits of the simulated HiCMA-PaRSEC makespan.
    sim_makespan_bits: u64,
}

/// Density of the operator and its exact counts.
fn measure(w: Workload, seed: u64) -> (f64, Counts) {
    let inp = Inputs::build(w, seed);
    let a = match &inp.assembled {
        Some((a, _)) => a.clone(),
        None => inp.assemble(),
    };
    let cp = compress_pass(&inp);
    let plan = Session::shared(factor_config(THREADS))
        .plan(&a)
        .expect("plan");
    let comm = (w == Workload::ShaheenDist).then(|| {
        let band = distributed(a.clone(), &BandDistribution::new(RANKS)).expect("band");
        let diamond = distributed(a.clone(), &BandDiamond::new(RANKS)).expect("band+diamond");
        [
            (band.comm.bytes, band.comm.messages),
            (diamond.comm.bytes, diamond.comm.messages),
        ]
    });
    let sim = SimPair::run(&inp.fig9, &mut Spans::new(false));
    let counts = Counts {
        kernel_evals: cp.evals,
        null_tiles: cp.null_tiles,
        plan_tasks: plan.tasks(),
        comm,
        sim_makespan_bits: sim.hicma.factorization_seconds.to_bits(),
    };
    (a.density(), counts)
}

fn check(w: Workload, density_band: Range<f64>) {
    let (density, first) = measure(w, 7);
    assert!(
        density_band.contains(&density),
        "{}: density {density} left {density_band:?}",
        w.name()
    );
    let (_, second) = measure(w, 7);
    assert_eq!(
        first,
        second,
        "{}: exact counts differ between two runs",
        w.name()
    );
}

#[test]
fn virus_rbf_is_mostly_null_and_repeatable() {
    check(Workload::VirusRbf, 0.02..0.25);
}

#[test]
fn matern_cube_is_denser_and_repeatable() {
    check(Workload::MaternCube, 0.25..0.6);
}

#[test]
fn shaheen_dist_is_mostly_null_and_repeatable() {
    check(Workload::ShaheenDist, 0.02..0.35);
}
