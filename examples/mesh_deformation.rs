//! 3D unstructured mesh deformation, end to end (the paper's application).
//!
//! One virus of a packed population moves; the boundary displacement is
//! interpolated to volume probe points via Gaussian RBF. The interpolation
//! coefficients come from the TLR Cholesky solve; the dense pipeline of
//! `rbf-mesh` provides the reference.
//!
//! Run with: `cargo run --release --example mesh_deformation`

use hicma_parsec::cholesky::{factorize, solve_tlr_multi, FactorConfig};
use hicma_parsec::linalg::Matrix;
use hicma_parsec::mesh::deform::{solve_dense, Displacements};
use hicma_parsec::mesh::geometry::{virus_population, Point3, VirusConfig};
use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
use hicma_parsec::mesh::{GaussianRbf, RadialProfile};
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};

fn main() {
    // Boundary mesh: a population of viruses; virus 0 translates.
    let vcfg = VirusConfig { points_per_virus: 300, ..Default::default() };
    let n_viruses = 5;
    let raw = virus_population(n_viruses, &vcfg, 7);
    let order = hilbert_sort(&raw);
    let points = apply_permutation(&raw, &order);
    let n = points.len();

    // Displacement: the nodes of virus 0 (pre-permutation indices
    // 0..points_per_virus) translate by (0.02, 0.01, 0); other bodies hold.
    let moving: Vec<bool> = order.iter().map(|&orig| orig < vcfg.points_per_virus).collect();
    let mut d_b = Displacements::zeros(n);
    for (i, &mv) in moving.iter().enumerate() {
        if mv {
            d_b.dx[i] = 0.02;
            d_b.dy[i] = 0.01;
        }
    }

    let kernel = GaussianRbf::from_min_distance(&points);
    println!("boundary nodes        : {n} ({n_viruses} bodies), δ = {:.3e}", kernel.delta);

    // ------------------------------------------------------------------
    // TLR path: compress, factorize, solve the three RHS.
    // ------------------------------------------------------------------
    let accuracy = 1e-7;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a = TlrMatrix::from_generator(n, 128, kernel.generator(&points), &ccfg);
    println!(
        "TLR operator          : NT={} density={:.2} mem={:.1}% of dense",
        a.nt(),
        a.density(),
        100.0 * a.memory_f64() as f64 / ((n * (n + 1) / 2) as f64)
    );
    let fcfg = FactorConfig { accuracy, ..FactorConfig::with_accuracy(accuracy) };
    let rep = factorize(&mut a, &fcfg).expect("SPD");
    println!(
        "TLR factorization     : {:.3}s ({} tasks, {} trimmed away)",
        rep.factorization_seconds,
        rep.dag_tasks,
        rep.dense_dag_tasks - rep.dag_tasks
    );
    // One blocked solve for all three displacement components (BLAS-3).
    let mut rhs = Matrix::zeros(n, 3);
    rhs.col_mut(0).copy_from_slice(&d_b.dx);
    rhs.col_mut(1).copy_from_slice(&d_b.dy);
    rhs.col_mut(2).copy_from_slice(&d_b.dz);
    solve_tlr_multi(&a, &mut rhs);
    let (ax, ay, az) = (rhs.col(0).to_vec(), rhs.col(1).to_vec(), rhs.col(2).to_vec());

    // ------------------------------------------------------------------
    // Dense reference (assemble + dpotrf + solves).
    // ------------------------------------------------------------------
    let reference = solve_dense(&points, kernel, &d_b).expect("SPD");
    println!("boundary residual     : {:.3e} (dense reference)", reference.boundary_residual(&d_b));

    // ------------------------------------------------------------------
    // Interpolate volume probes with the TLR coefficients and compare.
    // ------------------------------------------------------------------
    let probes: Vec<Point3> = (0..200)
        .map(|i| {
            let f = i as f64 / 200.0;
            Point3 {
                x: 0.1 + 0.8 * (f * 13.7).fract(),
                y: 0.1 + 0.8 * (f * 7.3).fract(),
                z: 0.1 + 0.8 * (f * 3.1).fract(),
            }
        })
        .collect();
    let mut worst = 0.0_f64;
    for p in &probes {
        let mut tlr_d = (0.0, 0.0, 0.0);
        for (i, q) in points.iter().enumerate() {
            let w = kernel.eval(p.dist(q));
            tlr_d.0 += ax[i] * w;
            tlr_d.1 += ay[i] * w;
            tlr_d.2 += az[i] * w;
        }
        let dense_d = reference.displacement(p);
        worst = worst
            .max((tlr_d.0 - dense_d.0).abs())
            .max((tlr_d.1 - dense_d.1).abs())
            .max((tlr_d.2 - dense_d.2).abs());
    }
    println!("max TLR-vs-dense displacement error over {} probes: {worst:.3e}", probes.len());
    assert!(worst < 1e-4, "TLR deformation must match the dense reference");

    // ------------------------------------------------------------------
    // Mesh-quality check: apply the interpolated displacement to the
    // boundary nodes themselves and verify no local spacing collapsed.
    // ------------------------------------------------------------------
    let displaced: Vec<Point3> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut d = (0.0, 0.0, 0.0);
            for (j, q) in points.iter().enumerate() {
                let w = kernel.eval(p.dist(q));
                d.0 += ax[j] * w;
                d.1 += ay[j] * w;
                d.2 += az[j] * w;
            }
            let _ = i;
            Point3 { x: p.x + d.0, y: p.y + d.1, z: p.z + d.2 }
        })
        .collect();
    let quality = hicma_parsec::mesh::assess(&points, &displaced);
    println!(
        "mesh quality          : spacing ratio [{:.3}, {:.3}], max disp {:.4}, rms {:.4}",
        quality.min_spacing_ratio,
        quality.max_spacing_ratio,
        quality.max_displacement,
        quality.rms_displacement
    );
    assert!(quality.is_safe(2.0), "deformation must not collapse the mesh");
    println!("mesh deformation OK");
}
