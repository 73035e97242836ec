//! Measurements made once per traced run, beside the timed pipeline.

use crate::workload::{with_generator, Inputs, Kernel, ACCURACY};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use tlr_compress::{compress_tile, CompressionConfig};
use tlr_linalg::{gemm, Matrix, Trans};

/// The assembly of `TlrMatrix::from_generator`, split into its two layers:
/// every tile filled through the kernel's public generator, then every
/// off-diagonal tile compressed with `compress_tile`.
pub struct CompressPass {
    /// Kernel evaluations (every entry of every generated tile).
    pub evals: u64,
    /// Busy seconds filling tiles, summed over tiles.
    pub fill_s: f64,
    /// Busy seconds in `compress_tile`, summed over off-diagonal tiles.
    pub qrcp_s: f64,
    /// Off-diagonal tiles generated dense and compressed.
    pub tiles: u64,
    /// Of those, tiles that compressed to null.
    pub null_tiles: u64,
}

pub fn compress_pass(inp: &Inputs) -> CompressPass {
    let n = inp.n();
    let b = inp.tile_size;
    let nt = n.div_ceil(b);
    let ccfg = CompressionConfig::with_accuracy(ACCURACY);
    let coords: Vec<(usize, usize)> = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
    let per_tile = with_generator!(inp.kernel, &inp.points, |g| {
        coords
            .par_iter()
            .map(|&(i, j)| {
                let (r0, c0) = (i * b, j * b);
                let (rows, cols) = (b.min(n - r0), b.min(n - c0));
                let t = Instant::now();
                let block = black_box(Matrix::from_fn(rows, cols, |bi, bj| g(r0 + bi, c0 + bj)));
                let fill = t.elapsed().as_secs_f64();
                let (qrcp, null) = if i == j {
                    (0.0, false)
                } else {
                    let t = Instant::now();
                    let tile = black_box(compress_tile(block, &ccfg));
                    (t.elapsed().as_secs_f64(), tile.is_null())
                };
                (
                    (rows * cols) as u64,
                    fill,
                    qrcp,
                    u64::from(i != j),
                    u64::from(null),
                )
            })
            .collect::<Vec<_>>()
    });
    per_tile.iter().fold(
        CompressPass {
            evals: 0,
            fill_s: 0.0,
            qrcp_s: 0.0,
            tiles: 0,
            null_tiles: 0,
        },
        |acc, &(e, f, q, t, z)| CompressPass {
            evals: acc.evals + e,
            fill_s: acc.fill_s + f,
            qrcp_s: acc.qrcp_s + q,
            tiles: acc.tiles + t,
            null_tiles: acc.null_tiles + z,
        },
    )
}

/// Best rate of the library's parallel dense GEMM on square operands,
/// in Gflop/s: the peak the factorization's achieved rate is read against.
pub fn gemm_peak_gflops() -> f64 {
    const N: usize = 512;
    let a = Matrix::from_fn(N, N, |i, j| ((i * 7 + j * 13) % 17) as f64 / 17.0);
    let b = Matrix::from_fn(N, N, |i, j| ((i * 5 + j * 3) % 11) as f64 / 11.0);
    let mut c = Matrix::zeros(N, N);
    let mut best = f64::INFINITY;
    for _ in 0..12 {
        let t = Instant::now();
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            black_box(&a),
            black_box(&b),
            0.0,
            &mut c,
        );
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&c);
    }
    2.0 * (N * N * N) as f64 / best / 1e9
}
