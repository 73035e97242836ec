//! The matrix of a radial kernel over a point cloud, and the tile-norm
//! bound that lets assembly skip tiles the geometry proves null
//! (DESIGN.md §4l).

use crate::geometry::Point3;
use crate::kernel::RadialProfile;
use std::ops::{Deref, Range};
use tlr_compress::TileGenerator;

/// Matrix entry `(i, j)` of the radial kernel `k` over `points`.
#[inline]
pub(crate) fn entry<P: RadialProfile>(k: &P, points: &[Point3], i: usize, j: usize) -> f64 {
    if i == j {
        k.diagonal()
    } else {
        k.eval(points[i].dist(&points[j]))
    }
}

/// Target points per Hilbert-contiguous chunk of the chunked tile bound.
const CHUNK: usize = 50;
/// Most chunks per tile side; longer sides get longer chunks, so the bound
/// needs no heap.
const MAX_CHUNKS: usize = 32;

/// The matrix of a radial kernel over a point cloud, as a
/// [`TileGenerator`]: it evaluates entries and bounds tile norms from the
/// points' bounding boxes. It also dereferences to its entry closure, so
/// `g(i, j)` evaluates entry `(i, j)`.
#[derive(Clone, Copy)]
pub struct KernelGenerator<'a, P, F> {
    profile: P,
    points: &'a [Point3],
    /// Whether the bound applies: the profile decays and every point is
    /// finite.
    screenable: bool,
    entry: F,
}

/// The matrix of any radial kernel over `points` (what each kernel's
/// `generator` returns).
pub fn radial_generator<'a, P: RadialProfile + 'a>(
    profile: P,
    points: &'a [Point3],
) -> KernelGenerator<'a, P, impl Fn(usize, usize) -> f64 + Sync + Copy + 'a> {
    let finite = |p: &Point3| p.x.is_finite() && p.y.is_finite() && p.z.is_finite();
    KernelGenerator {
        profile,
        points,
        screenable: profile.decays() && points.iter().all(finite),
        entry: move |i: usize, j: usize| entry(&profile, points, i, j),
    }
}

impl<P, F> Deref for KernelGenerator<'_, P, F> {
    type Target = F;

    fn deref(&self) -> &F {
        &self.entry
    }
}

impl<P: RadialProfile, F: Fn(usize, usize) -> f64 + Sync> TileGenerator
    for KernelGenerator<'_, P, F>
{
    #[inline]
    fn entry(&self, i: usize, j: usize) -> f64 {
        (self.entry)(i, j)
    }

    /// With `d_ab` the smallest distance between the bounding boxes of
    /// point sets `a` and `b`, monotone decay gives `|A[a, b]| ≤ φ(d_ab)`
    /// entrywise. The bound tries the whole tile's boxes first (exactly 0
    /// when they lie beyond a compact support or where `φ` underflows),
    /// then `√(Σ n_a·n_b·φ(d_ab)²)` over Hilbert-contiguous chunks of
    /// about 50 points, which follow the geometry far more tightly.
    fn frobenius_bound(&self, rows: Range<usize>, cols: Range<usize>) -> Option<f64> {
        let disjoint = rows.end <= cols.start || cols.end <= rows.start;
        if !self.screenable || !disjoint {
            return None;
        }
        let (row_boxes, nr) = chunk_boxes(&self.points[rows.clone()]);
        let (col_boxes, nc) = chunk_boxes(&self.points[cols.clone()]);
        let (row_boxes, col_boxes) = (&row_boxes[..nr], &col_boxes[..nc]);
        let hull = |boxes: &[Aabb]| boxes.iter().fold(Aabb::EMPTY, |h, b| h.union(b));
        let whole_phi = self.profile.eval(hull(row_boxes).gap(&hull(col_boxes)));
        if whole_phi == 0.0 {
            return Some(0.0);
        }
        let whole = whole_phi * ((rows.len() * cols.len()) as f64).sqrt();
        // The sum is scaled by φ at the closest chunk pair, the largest
        // term, so squaring a tiny φ cannot underflow the bound to 0.
        let pairs = || {
            row_boxes
                .iter()
                .flat_map(|a| col_boxes.iter().map(move |b| (a.count * b.count, a.gap(b))))
        };
        let scale = self
            .profile
            .eval(pairs().fold(f64::INFINITY, |m, (_, d)| m.min(d)));
        if scale == 0.0 {
            return Some(0.0);
        }
        let sum2: f64 = pairs()
            .map(|(count, d)| count as f64 * (self.profile.eval(d) / scale).powi(2))
            .sum();
        Some(whole.min(scale * sum2.sqrt()))
    }
}

/// An axis-aligned bounding box of `count` points.
#[derive(Debug, Clone, Copy)]
struct Aabb {
    lo: [f64; 3],
    hi: [f64; 3],
    count: usize,
}

impl Aabb {
    const EMPTY: Aabb = Aabb {
        lo: [f64::INFINITY; 3],
        hi: [f64::NEG_INFINITY; 3],
        count: 0,
    };

    fn of(points: &[Point3]) -> Self {
        points.iter().fold(Self::EMPTY, |b, p| {
            b.union(&Aabb {
                lo: [p.x, p.y, p.z],
                hi: [p.x, p.y, p.z],
                count: 1,
            })
        })
    }

    fn union(&self, o: &Aabb) -> Self {
        Aabb {
            lo: std::array::from_fn(|k| self.lo[k].min(o.lo[k])),
            hi: std::array::from_fn(|k| self.hi[k].max(o.hi[k])),
            count: self.count + o.count,
        }
    }

    /// Smallest distance between a point of `self` and a point of `o`.
    /// Summed in the order of [`Point3::dist`], so the rounded gap never
    /// exceeds the rounded distance of any pair it covers.
    fn gap(&self, o: &Aabb) -> f64 {
        let mut d2 = 0.0;
        for k in 0..3 {
            let d = (o.lo[k] - self.hi[k]).max(self.lo[k] - o.hi[k]).max(0.0);
            d2 += d * d;
        }
        d2.sqrt()
    }
}

/// Bounding boxes of near-equal contiguous chunks of `points`, about
/// [`CHUNK`] points each and at most [`MAX_CHUNKS`] of them.
fn chunk_boxes(points: &[Point3]) -> ([Aabb; MAX_CHUNKS], usize) {
    let len = points.len();
    let chunks = len.div_ceil(CHUNK).clamp(1, MAX_CHUNKS);
    let mut boxes = [Aabb::EMPTY; MAX_CHUNKS];
    for (c, b) in boxes[..chunks].iter_mut().enumerate() {
        *b = Aabb::of(&points[c * len / chunks..(c + 1) * len / chunks]);
    }
    (boxes, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{min_pairwise_distance, virus_population, VirusConfig};
    use crate::kernel::{GaussianRbf, MaternKernel, MaternNu, WendlandRbf};

    /// Two 8-point clusters on the x axis, `gap` apart.
    fn two_clusters(gap: f64) -> Vec<Point3> {
        (0..16)
            .map(|i| {
                let off = if i < 8 { 0.0 } else { 0.01 + gap };
                Point3 {
                    x: off + 0.01 * (i % 8) as f64 / 7.0,
                    y: 0.001 * i as f64,
                    z: 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn wendland_bound_is_zero_past_the_support() {
        let k = WendlandRbf::new(0.05);
        let far = two_clusters(0.05);
        assert_eq!(k.generator(&far).frobenius_bound(8..16, 0..8), Some(0.0));
        let near = two_clusters(0.04);
        let b = k.generator(&near).frobenius_bound(8..16, 0..8).unwrap();
        assert!(b > 0.0, "within the support the bound is positive: {b}");
    }

    #[test]
    fn bound_is_never_below_the_true_tile_norm() {
        let cfg = VirusConfig {
            points_per_virus: 90,
            ..Default::default()
        };
        let raw = virus_population(3, &cfg, 5);
        let pts = crate::hilbert::apply_permutation(&raw, &crate::hilbert::hilbert_sort(&raw));
        let h = min_pairwise_distance(&pts);
        fn check<P: RadialProfile>(k: P, pts: &[Point3], b: usize) {
            let g = radial_generator(k, pts);
            let n = pts.len();
            for i in 0..n.div_ceil(b) {
                for j in 0..i {
                    let (rows, cols) = (i * b..n.min((i + 1) * b), j * b..(j + 1) * b);
                    let block = tlr_linalg::Matrix::from_fn(rows.len(), cols.len(), |r, c| {
                        g(rows.start + r, cols.start + c)
                    });
                    let norm = tlr_linalg::frobenius_norm(&block);
                    let bound = g
                        .frobenius_bound(rows, cols)
                        .expect("radial kernels bound tiles");
                    assert!(
                        bound >= norm,
                        "tile ({i}, {j}): bound {bound:e} < norm {norm:e}"
                    );
                }
            }
        }
        let b = 37; // ragged last tile
        assert!(!pts.len().is_multiple_of(b));
        check(GaussianRbf::new(4.0 * h), &pts, b);
        check(WendlandRbf::new(6.0 * h), &pts, b);
        for nu in [MaternNu::Half, MaternNu::ThreeHalves, MaternNu::FiveHalves] {
            check(
                MaternKernel {
                    sigma2: 2.0,
                    ..MaternKernel::new(0.02, nu)
                },
                &pts,
                b,
            );
        }
    }

    #[test]
    fn bound_declines_what_it_cannot_prove() {
        let pts = two_clusters(0.5);
        let g = GaussianRbf::new(0.01).generator(&pts);
        assert!(g.frobenius_bound(8..16, 0..8).unwrap() < 1e-300);
        // overlapping ranges would contain the diagonal
        assert_eq!(g.frobenius_bound(4..12, 0..8), None);
        // a profile that does not decay
        assert_eq!(
            GaussianRbf::new(-0.01)
                .generator(&pts)
                .frobenius_bound(8..16, 0..8),
            None
        );
        assert_eq!(
            WendlandRbf::new(0.0)
                .generator(&pts)
                .frobenius_bound(8..16, 0..8),
            None
        );
        // a non-finite point
        let mut bad = pts.clone();
        bad[3].y = f64::NAN;
        assert_eq!(
            GaussianRbf::new(0.01)
                .generator(&bad)
                .frobenius_bound(8..16, 0..8),
            None
        );
    }

    #[test]
    fn generator_derefs_to_the_matrix_entries() {
        let pts = two_clusters(0.02);
        let k = MaternKernel::new(0.05, MaternNu::FiveHalves);
        let g = k.generator(&pts);
        for (i, j) in [(0, 0), (3, 11), (15, 2)] {
            assert_eq!(g(i, j), k.matrix_entry(&pts, i, j));
            assert_eq!(g.entry(i, j), k.matrix_entry(&pts, i, j));
        }
    }
}
