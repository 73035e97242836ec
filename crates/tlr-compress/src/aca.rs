//! Adaptive Cross Approximation: build low-rank tiles **directly** from a
//! kernel evaluation function, without ever forming the dense tile.
//!
//! This implements the paper's stated future work (§IX: "we plan to
//! generate the matrix directly in compressed format (ref. 38 of the paper), without having
//! to generate the full dense structure") — after the factorization
//! optimizations, the dense-generation + compression phase dominates
//! (Fig. 11), and ACA removes it: a rank-`k` tile costs `O(k·(m + n))`
//! kernel evaluations instead of `m·n`.
//!
//! ACA with partial pivoting (Bebendorf): repeatedly pick a pivot entry of
//! the current residual, and add the crossing row/column as a rank-1
//! term. The result is recompressed (QR + SVD) into the canonical
//! orthonormal-`U` form so downstream kernels see exactly the same tile
//! format as threshold compression produces.

use crate::compress::CompressionConfig;
use crate::kernels::subtract_lowrank;
use crate::tile::Tile;
use tlr_linalg::Matrix;

/// Outcome of one ACA run, including the evaluation count (the quantity
/// the optimization exists to shrink).
pub struct AcaResult {
    /// The assembled tile (Null / LowRank / Dense per the usual rules).
    pub tile: Tile,
    /// Number of kernel evaluations spent.
    pub evaluations: usize,
}

/// Safety cap on ACA iterations relative to `min(m, n)`.
const MAX_RANK_FRACTION: f64 = 0.5;

/// Consecutive non-decreasing cross-term norms tolerated before ACA
/// declares the pivot sequence stagnant and falls back to dense
/// evaluation. On healthy low-rank blocks the term norms decay roughly
/// geometrically; a flat or growing sequence means partial pivoting is
/// chasing noise and the accuracy target will not be met.
const STAGNATION_STRIKES: usize = 3;

/// Approximate an `rows × cols` kernel block `A[i][j] = eval(i, j)` at the
/// configured accuracy using ACA with partial pivoting.
///
/// `eval` receives *local* indices (`0..rows`, `0..cols`); the caller
/// closes over the global offsets. Returns `Null` when the first pivot
/// row is already below threshold, `Dense` when the block refuses to
/// compress (rank would exceed the pay-off point — the block is then
/// evaluated densely, costing the full `m·n`).
pub fn aca_compress<F>(rows: usize, cols: usize, eval: F, config: &CompressionConfig) -> AcaResult
where
    F: Fn(usize, usize) -> f64,
{
    let mut evaluations = 0usize;
    let mut eval_counted = |i: usize, j: usize| -> f64 {
        evaluations += 1;
        eval(i, j)
    };

    if rows == 0 || cols == 0 {
        return AcaResult { tile: Tile::Null { rows, cols }, evaluations: 0 };
    }

    let max_rank = ((rows.min(cols) as f64 * MAX_RANK_FRACTION) as usize)
        .clamp(1, config.max_rank.min(rows.min(cols)));

    // Cross vectors: A ≈ Σ_k u_k · v_kᵀ.
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();
    let mut row_used = vec![false; rows];
    let mut col_used = vec![false; cols];

    // Partial pivoting can stall on blocks whose mass lies away from the
    // probed rows (cluster-pair tiles are zero in whole corners). Before
    // declaring convergence we probe up to MAX_PROBES rows spread evenly
    // across the block; a truly-null tile therefore costs only
    // MAX_PROBES·cols evaluations, while no populated region is missed.
    const MAX_PROBES: usize = 8;
    let probe_stride = (rows / MAX_PROBES).max(1);
    let mut probes_left = MAX_PROBES;
    let mut next_probe = 0usize;
    let take_probe_row = |row_used: &[bool], next_probe: &mut usize| -> Option<usize> {
        // strided sweep over not-yet-used rows
        for _ in 0..rows {
            let cand = *next_probe % rows;
            *next_probe = (*next_probe + probe_stride + 1) % rows.max(1);
            if !row_used[cand] {
                return Some(cand);
            }
        }
        None
    };

    let mut next_row = 0usize;
    // Stagnation detector: norms of accepted cross terms must (mostly)
    // decrease. `strikes` counts consecutive non-decreasing terms.
    let mut prev_term_norm = f64::INFINITY;
    let mut strikes = 0usize;
    loop {
        if us.len() >= max_rank {
            // Not compressible at this accuracy: fall back to dense
            // evaluation of the whole block.
            let dense = Matrix::from_fn(rows, cols, &eval);
            return AcaResult {
                tile: crate::compress::compress_tile(dense, config),
                evaluations: evaluations + rows * cols,
            };
        }
        // Residual row at `next_row`: r = A[next_row, :] − Σ u_k[next_row]·v_k
        let mut r: Vec<f64> = (0..cols).map(|j| eval_counted(next_row, j)).collect();
        for (u, v) in us.iter().zip(&vs) {
            let w = u[next_row];
            if w != 0.0 {
                for (rj, vj) in r.iter_mut().zip(v) {
                    *rj -= w * vj;
                }
            }
        }
        row_used[next_row] = true;
        // Pivot column: largest residual entry in an unused column.
        let mut jstar = None;
        let mut best = 0.0_f64;
        for (j, &rj) in r.iter().enumerate() {
            if !col_used[j] && rj.abs() > best {
                best = rj.abs();
                jstar = Some(j);
            }
        }
        // A zero residual row (or no unused column left) does not prove
        // the whole block converged — probe other rows before giving up.
        let Some(jstar) = jstar else {
            if probes_left == 0 {
                break;
            }
            probes_left -= 1;
            match take_probe_row(&row_used, &mut next_probe) {
                Some(rp) => {
                    next_row = rp;
                    continue;
                }
                None => break,
            }
        };
        let _ = best;
        let pivot = r[jstar];
        let v: Vec<f64> = r.iter().map(|&x| x / pivot).collect();
        // Residual column at jstar.
        let mut u: Vec<f64> = (0..rows).map(|i| eval_counted(i, jstar)).collect();
        for (uk, vk) in us.iter().zip(&vs) {
            let w = vk[jstar];
            if w != 0.0 {
                for (ui, uki) in u.iter_mut().zip(uk) {
                    *ui -= w * uki;
                }
            }
        }
        col_used[jstar] = true;

        let unorm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let term_norm = unorm * vnorm;
        // The cross-term norm only estimates the true residual; stop one
        // order below the requested threshold and let the final QR+SVD
        // recompression truncate back to it exactly.
        if term_norm <= 0.1 * config.accuracy {
            // This cross is below the threshold — but other regions of
            // the block may still hold mass: probe before stopping.
            if probes_left == 0 {
                break;
            }
            probes_left -= 1;
            match take_probe_row(&row_used, &mut next_probe) {
                Some(rp) => {
                    next_row = rp;
                    continue;
                }
                None => break,
            }
        }
        // Stagnation: a residual that refuses to shrink across several
        // pivots means the block is effectively full-rank at this
        // accuracy (or the pivot walk is stuck in a noise floor). Paying
        // for more crosses only to hit the rank cap — or worse, to
        // converge to a wrong answer — is strictly dominated by the
        // dense fallback.
        // A cross that overflowed (a pivot far below the residual's
        // rounding noise) cannot be repaired by more crosses: fall back at
        // once.
        let overflowed = !term_norm.is_finite();
        if overflowed || term_norm >= prev_term_norm {
            strikes += 1;
            if overflowed || strikes >= STAGNATION_STRIKES {
                let dense = Matrix::from_fn(rows, cols, &eval);
                return AcaResult {
                    tile: crate::compress::compress_tile(dense, config),
                    evaluations: evaluations + rows * cols,
                };
            }
        } else {
            strikes = 0;
        }
        prev_term_norm = term_norm;

        probes_left = MAX_PROBES; // progress made: reset the probe budget
        us.push(u);
        vs.push(v);

        // Next pivot row: the largest entry of the just-added column term
        // in an unused row (standard partial pivoting heuristic).
        let last_u = us.last().unwrap();
        let mut best_row = None;
        let mut best_val = 0.0;
        for (i, &ui) in last_u.iter().enumerate() {
            if !row_used[i] && ui.abs() > best_val {
                best_val = ui.abs();
                best_row = Some(i);
            }
        }
        match best_row {
            Some(i) => next_row = i,
            None => break, // all rows used
        }
    }

    // ----------------------------------------------------------------
    // Verification sampling: cross pivoting can miss "needle" patches —
    // a handful of large entries between otherwise-uncoupled clusters
    // (sharp kernels produce them). Sample O(rows + cols) random entries
    // of the residual; any sample above the threshold triggers the dense
    // fallback. This bounds the failure probability at negligible cost.
    // ----------------------------------------------------------------
    {
        // Cap so small tiles never pay more than a fraction of dense.
        let samples = (8 * (rows + cols)).min(rows * cols / 4);
        let mut state: u64 = 0x9E3779B97F4A7C15 ^ ((rows * 31 + cols) as u64);
        let mut bad = false;
        for _ in 0..samples {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = ((state >> 33) as usize) % rows;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % cols;
            let mut approx = 0.0;
            for (u, v) in us.iter().zip(&vs) {
                approx += u[i] * v[j];
            }
            if (eval_counted(i, j) - approx).abs() > config.accuracy {
                bad = true;
                break;
            }
        }
        if bad {
            let dense = Matrix::from_fn(rows, cols, &eval);
            return AcaResult {
                tile: crate::compress::compress_tile(dense, config),
                evaluations: evaluations + rows * cols,
            };
        }
    }

    if us.is_empty() {
        return AcaResult { tile: Tile::Null { rows, cols }, evaluations };
    }

    // Pack the cross vectors into factor matrices and recompress into the
    // canonical truncated form via the shared QR+SVD path.
    let k = us.len();
    let mut u_mat = Matrix::zeros(rows, k);
    let mut v_mat = Matrix::zeros(cols, k);
    for (p, (u, v)) in us.iter().zip(&vs).enumerate() {
        u_mat.col_mut(p).copy_from_slice(u);
        v_mat.col_mut(p).copy_from_slice(v);
    }
    // subtract_lowrank(-U, V) into a null tile yields the recompressed +UVᵀ.
    let mut tile = Tile::Null { rows, cols };
    let mut neg_u = u_mat;
    neg_u.scale(-1.0);
    subtract_lowrank(&mut tile, &neg_u, &v_mat, config);
    AcaResult { tile, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_linalg::norms::{frobenius_norm, relative_diff};

    fn gaussian_eval(b: usize, shift: f64) -> impl Fn(usize, usize) -> f64 {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64 + shift) / (b as f64 / 3.0);
            (-d * d).exp()
        }
    }

    #[test]
    fn aca_matches_dense_compression() {
        let b = 64;
        let eval = gaussian_eval(b, 80.0);
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let dense = Matrix::from_fn(b, b, &eval);
        let res = aca_compress(b, b, &eval, &cfg);
        let err = {
            let mut diff = res.tile.to_dense();
            diff.axpy(-1.0, &dense);
            frobenius_norm(&diff)
        };
        assert!(err <= 20.0 * 1e-6, "ACA error {err}");
        assert!(res.tile.rank() > 0 && res.tile.rank() < b / 2);
    }

    #[test]
    fn aca_saves_evaluations() {
        let b = 96;
        let eval = gaussian_eval(b, 120.0);
        let cfg = CompressionConfig::with_accuracy(1e-5);
        let res = aca_compress(b, b, &eval, &cfg);
        assert!(
            res.evaluations < 3 * b * b / 4,
            "ACA used {} of {} evaluations",
            res.evaluations,
            b * b
        );
        assert!(!res.tile.is_null());
    }

    #[test]
    fn aca_null_for_tiny_blocks() {
        let cfg = CompressionConfig::with_accuracy(1e-4);
        let res = aca_compress(32, 32, |_, _| 1e-12, &cfg);
        assert!(res.tile.is_null());
        // probe rows + verification samples only — below the dense 32·32
        assert!(res.evaluations < 32 * 32, "evals {}", res.evaluations);
    }

    #[test]
    fn aca_dense_fallback_for_incompressible() {
        // A pseudo-random block has full rank: ACA must fall back.
        let eval = |i: usize, j: usize| {
            let mut s = ((i * 131 + j * 7919) as u64 | 1).wrapping_mul(6364136223846793005);
            s ^= s >> 33;
            s = s.wrapping_mul(0xFF51AFD7ED558CCD);
            s ^= s >> 33;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let cfg = CompressionConfig::with_accuracy(1e-10);
        let res = aca_compress(24, 24, eval, &cfg);
        assert_eq!(res.tile.format(), crate::tile::TileFormat::Dense);
    }

    #[test]
    fn aca_stagnation_falls_back_dense_early() {
        // White-noise block: cross-term norms never decay, so the
        // 3-strike stagnation detector must bail to dense long before
        // the rank cap is reached.
        let b = 64;
        let eval = |i: usize, j: usize| {
            let mut s =
                ((i * 2654435761 + j * 40503 + 17) as u64 | 1).wrapping_mul(6364136223846793005);
            s ^= s >> 33;
            s = s.wrapping_mul(0xFF51AFD7ED558CCD);
            s ^= s >> 33;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let cfg = CompressionConfig::with_accuracy(1e-12);
        let res = aca_compress(b, b, eval, &cfg);
        assert_eq!(res.tile.format(), crate::tile::TileFormat::Dense);
        // Riding to the rank cap would cost ≈ (b/2)·2b + b² = 2b²
        // evaluations; stagnation stops after a handful of crosses.
        assert!(res.evaluations < 3 * b * b / 2, "evals {}", res.evaluations);
    }

    #[test]
    fn aca_rectangular() {
        let eval = |i: usize, j: usize| {
            let d = (i as f64 / 40.0 - j as f64 / 20.0 + 2.0) / 0.7;
            (-d * d).exp()
        };
        let cfg = CompressionConfig::with_accuracy(1e-7);
        let dense = Matrix::from_fn(40, 20, eval);
        let res = aca_compress(40, 20, eval, &cfg);
        assert!(relative_diff(&res.tile.to_dense(), &dense) < 1e-4);
    }

    #[test]
    fn aca_empty() {
        let cfg = CompressionConfig::default();
        let res = aca_compress(0, 8, |_, _| 1.0, &cfg);
        assert!(res.tile.is_null());
        assert_eq!(res.evaluations, 0);
    }

    #[test]
    fn aca_debug_block_structured() {
        let b = 64;
        let eval = |i: usize, j: usize| {
            if i >= 40 && j < 24 {
                let d = ((i as f64 - 52.0).powi(2) + (j as f64 - 12.0).powi(2)) / 50.0;
                (-d).exp()
            } else { 0.0 }
        };
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let dense = Matrix::from_fn(b, b, eval);
        let res = aca_compress(b, b, eval, &cfg);
        let mut diff = res.tile.to_dense();
        diff.axpy(-1.0, &dense);
        let err = frobenius_norm(&diff);
        println!("err={err:.3e} rank={} evals={}", res.tile.rank(), res.evaluations);
        assert!(err < 1e-4, "err {err}");
    }
}
