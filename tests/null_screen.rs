//! The geometric null-tile screen is conservative and invisible.
//!
//! Over clustered (virus) and uniform point clouds, all three radial
//! kernels, random shape parameters and accuracies, tile sizes with a
//! ragged last tile, and duplicate points placed in different tiles:
//!
//! * every tile's bound is at least its true Frobenius norm, and every
//!   tile [`proven_null`] screens compresses to `Null` under dense
//!   `compress_tile` — the screen never drops a tile dense QRCP keeps;
//! * dense assembly from the kernel's generator (which bounds tiles) is
//!   bit-identical, tile by tile, to assembly from its bare entry closure
//!   `*g` (which bounds nothing);
//! * ACA assembly stores every screened tile null, builds every other
//!   tile bit-identically to the unscreened ACA path, and reports fewer
//!   kernel evaluations exactly when it screened a tile.

use hicma_parsec::linalg::{frobenius_norm, Matrix};
use hicma_parsec::mesh::geometry::{min_pairwise_distance, virus_population, VirusConfig};
use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
use hicma_parsec::mesh::{
    radial_generator, GaussianRbf, MaternKernel, MaternNu, Point3, RadialProfile, WendlandRbf,
};
use hicma_parsec::tlr::{
    compress_tile, proven_null, screen_census, CompressionConfig, TileDigest, TileGenerator,
    TlrMatrix,
};
use proptest::prelude::*;

/// `n` points uniform in the unit cube.
fn uniform_cloud(n: usize, seed: u64) -> Vec<Point3> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point3 {
            x: next(),
            y: next(),
            z: next(),
        })
        .collect()
}

/// Hilbert-ordered cloud of `n` points.
fn cloud(virus: bool, n: usize, seed: u64) -> Vec<Point3> {
    let raw = if virus {
        let cfg = VirusConfig {
            points_per_virus: n.div_ceil(4),
            ..Default::default()
        };
        let mut pts = virus_population(4, &cfg, seed);
        pts.truncate(n);
        pts
    } else {
        uniform_cloud(n, seed)
    };
    apply_permutation(&raw, &hilbert_sort(&raw))
}

/// Check the properties for one kernel.
fn check<P: RadialProfile>(
    kernel: P,
    points: &[Point3],
    tile: usize,
    config: &CompressionConfig,
) -> Result<(), TestCaseError> {
    let n = points.len();
    let g = radial_generator(kernel, points);
    let screened = TlrMatrix::from_generator(n, tile, g, config);
    let plain = TlrMatrix::from_generator(n, tile, *g, config);
    let (aca_screened, aca_evals) = TlrMatrix::from_generator_aca(n, tile, g, config);
    let (aca_plain, plain_evals) = TlrMatrix::from_generator_aca(n, tile, *g, config);
    let span = |k: usize| k * tile..n.min((k + 1) * tile);
    let digest = |m: &TlrMatrix, i: usize, j: usize| TileDigest::of(m.tile(i, j));
    let mut any_screened = false;
    for i in 0..n.div_ceil(tile) {
        for j in 0..=i {
            prop_assert_eq!(
                digest(&screened, i, j),
                digest(&plain, i, j),
                "dense tile ({}, {})",
                i,
                j
            );
            if i == j {
                continue;
            }
            let block = Matrix::from_fn(span(i).len(), span(j).len(), |r, c| {
                g.entry(i * tile + r, j * tile + c)
            });
            let norm = frobenius_norm(&block);
            let bound = g.frobenius_bound(span(i), span(j));
            prop_assert!(
                bound.is_some_and(|b| b >= norm),
                "tile ({}, {}): bound {:?} below norm {:e}",
                i,
                j,
                bound,
                norm
            );
            if proven_null(&g, span(i), span(j), config) {
                any_screened = true;
                prop_assert!(
                    compress_tile(block, config).is_null(),
                    "tile ({}, {}) screened but not null",
                    i,
                    j
                );
                prop_assert!(aca_screened.tile(i, j).is_null());
            } else {
                prop_assert_eq!(
                    digest(&aca_screened, i, j),
                    digest(&aca_plain, i, j),
                    "ACA tile ({}, {})",
                    i,
                    j
                );
            }
        }
    }
    // ACA spends at least one row of evaluations on every tile it sees.
    if any_screened {
        prop_assert!(aca_evals < plain_evals, "{} vs {}", aca_evals, plain_evals);
    } else {
        prop_assert_eq!(aca_evals, plain_evals);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn screen_is_conservative_and_bit_identical(
        seed in 0u64..10_000,
        virus in 0u8..2,
        kernel in 0u8..3,
        shape in 0.5f64..12.0,
        tile in 2usize..48,
        tight in 0u8..3,
        acc_exp in 3i32..10,
        dups in 0usize..4,
    ) {
        let mut points = cloud(virus == 1, 180 + (seed % 60) as usize, seed);
        let n = points.len();
        // Tiles of 2–4 points make the bound nearly tight, so a predicate
        // without its margin would screen tiles that are not null.
        let tile = if tight == 0 { 2 + tile % 3 } else { tile };
        let tile = if n.is_multiple_of(tile) { tile + 1 } else { tile };
        let h = min_pairwise_distance(&points);
        // Duplicate points into other tiles: a zero distance between a
        // row and a column of an off-diagonal tile.
        for d in 0..dups {
            let src = (seed as usize * 7 + d * 31) % n;
            let dst = (src + tile * (1 + d)) % n;
            points[dst] = points[src];
        }
        let config = CompressionConfig::with_accuracy(10f64.powi(-acc_exp));
        match kernel {
            0 => check(GaussianRbf { delta: shape * h, nugget: 0.0 }, &points, tile, &config)?,
            1 => check(WendlandRbf { radius: 2.0 * shape * h, nugget: 1e-6 }, &points, tile, &config)?,
            _ => {
                let nu = [MaternNu::Half, MaternNu::ThreeHalves, MaternNu::FiveHalves][seed as usize % 3];
                check(MaternKernel::new(shape * h, nu), &points, tile, &config)?
            }
        };
    }
}

/// The screen is not vacuous: on separated viruses it catches most of
/// the null tiles dense compression finds.
#[test]
fn screen_catches_most_null_tiles_on_separated_viruses() {
    let cfg = VirusConfig {
        points_per_virus: 120,
        ..Default::default()
    };
    let raw = virus_population(6, &cfg, 3);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let n = points.len();
    let kernel = GaussianRbf::from_min_distance(&points);
    let config = CompressionConfig::with_accuracy(1e-6);
    let tile = 40;
    let a = TlrMatrix::from_generator(n, tile, kernel.generator(&points), &config);
    let nt = a.nt();
    let nulls = (0..nt)
        .map(|i| (0..i).filter(|&j| a.tile(i, j).is_null()).count())
        .sum::<usize>();
    let census = screen_census(n, tile, &kernel.generator(&points), &config);
    assert!(
        2 * census.screened > nulls,
        "screened {} of {nulls} null tiles",
        census.screened
    );
}
