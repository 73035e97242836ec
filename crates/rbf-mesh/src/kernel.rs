//! Radial kernels and their kernel matrices.
//!
//! §IV-C: the paper uses the global-support Gaussian `φ(r) = exp(−r²)`,
//! scaled by a shape parameter `δ`: `φ_δ(r) = φ(r/δ)`, with the default
//! `δ = ½ · min‖x − x_bᵢ‖`. A small `δ` makes correlations die off within
//! a few neighbor distances (sparse compressed operator, well
//! conditioned); a large `δ` couples the whole domain (dense operator,
//! ill conditioned) — the entire §VIII-B study is a sweep of this knob.
//!
//! Every kernel here is a [`RadialProfile`]: a decaying `φ(r)` and a
//! diagonal value. [`crate::generator`] turns any of them into the matrix
//! over a point cloud.

use crate::geometry::{min_pairwise_distance, Point3};
use crate::generator::{entry, radial_generator, KernelGenerator};

/// A radially symmetric kernel: entry `(i, j)` of its matrix is
/// `φ(‖xᵢ − xⱼ‖)` for `i ≠ j` and [`RadialProfile::diagonal`] for `i = j`.
pub trait RadialProfile: Copy + Sync {
    /// `φ(r)` at distance `r ≥ 0`.
    fn eval(&self, r: f64) -> f64;

    /// The diagonal entry: `φ(0)` plus any nugget.
    fn diagonal(&self) -> f64;

    /// Whether `φ` is non-negative and non-increasing on `r ≥ 0` with these
    /// parameters — the monotone decay the null-tile bound rests on.
    fn decays(&self) -> bool;
}

/// A scaled Gaussian RBF kernel.
#[derive(Debug, Clone, Copy)]
pub struct GaussianRbf {
    /// Shape parameter δ (cube-edge units).
    pub delta: f64,
    /// Diagonal regularization ("nugget") added at `r = 0`; keeps the
    /// factorization comfortably positive definite at large δ. 0 disables.
    pub nugget: f64,
}

impl GaussianRbf {
    /// Kernel with an explicit shape parameter, no nugget.
    pub fn new(delta: f64) -> Self {
        Self { delta, nugget: 0.0 }
    }

    /// The paper's default: `δ = ½ · min‖xᵢ − xⱼ‖` over the point cloud.
    pub fn from_min_distance(points: &[Point3]) -> Self {
        Self::new(0.5 * min_pairwise_distance(points))
    }
}

impl RadialProfile for GaussianRbf {
    /// `φ_δ(r) = exp(−(r/δ)²)`.
    #[inline]
    fn eval(&self, r: f64) -> f64 {
        let s = r / self.delta;
        (-s * s).exp()
    }

    fn diagonal(&self) -> f64 {
        1.0 + self.nugget
    }

    fn decays(&self) -> bool {
        self.delta > 0.0
    }
}

/// The C² Wendland compact-support RBF `ψ(r) = (1 − r)⁴·(4r + 1)` for
/// `r < 1`, **exactly zero** beyond the support radius.
///
/// §IV-C contrasts the two RBF families: global support (Gaussian)
/// couples everything and produces a dense operator; compact support
/// produces exact zeros outside the radius — a *genuinely sparse*
/// operator before any compression. Wendland's ψ₃,₁ is positive definite
/// in 3D, so the Cholesky path applies unchanged. This is the substrate
/// for the sparse end of the paper's data-structure spectrum
/// ("from dense and data-sparse to sparse").
#[derive(Debug, Clone, Copy)]
pub struct WendlandRbf {
    /// Support radius ρ (cube-edge units); `ψ(r/ρ)` vanishes at `r ≥ ρ`.
    pub radius: f64,
    /// Diagonal regularization, as in [`GaussianRbf`].
    pub nugget: f64,
}

impl WendlandRbf {
    /// Kernel with the given support radius, no nugget.
    pub fn new(radius: f64) -> Self {
        Self { radius, nugget: 0.0 }
    }

    /// Support radius as a multiple of the minimum point spacing
    /// (compact-support practice: a handful of neighbor shells).
    pub fn from_min_distance(points: &[Point3], shells: f64) -> Self {
        Self::new(shells * min_pairwise_distance(points))
    }
}

impl RadialProfile for WendlandRbf {
    /// `ψ₃,₁(r/ρ)`; exactly 0 for `r ≥ ρ`.
    #[inline]
    fn eval(&self, r: f64) -> f64 {
        let s = r / self.radius;
        if s >= 1.0 {
            0.0
        } else {
            let t = 1.0 - s;
            let t2 = t * t;
            t2 * t2 * (4.0 * s + 1.0)
        }
    }

    fn diagonal(&self) -> f64 {
        1.0 + self.nugget
    }

    fn decays(&self) -> bool {
        self.radius > 0.0
    }
}

/// Matérn smoothness parameter (the half-integer cases with closed
/// forms — the ones used in practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaternNu {
    /// ν = 1/2: the exponential covariance `exp(−r/ℓ)`.
    Half,
    /// ν = 3/2: `(1 + √3·r/ℓ)·exp(−√3·r/ℓ)`.
    ThreeHalves,
    /// ν = 5/2: `(1 + √5·r/ℓ + 5r²/3ℓ²)·exp(−√5·r/ℓ)`.
    FiveHalves,
}

/// The Matérn covariance family — the kernel of the paper's predecessor
/// applications (refs. 8–9 of the paper: climate/weather geostatistics), provided so
/// the same TLR Cholesky stack serves the spatial-statistics workload
/// the HiCMA line of work was originally built for.
#[derive(Debug, Clone, Copy)]
pub struct MaternKernel {
    /// Correlation length ℓ (cube-edge units).
    pub length: f64,
    /// Smoothness ν.
    pub nu: MaternNu,
    /// Marginal variance σ² (diagonal value before the nugget).
    pub sigma2: f64,
    /// Nugget added on the diagonal.
    pub nugget: f64,
}

impl MaternKernel {
    /// Matérn-ν kernel with unit variance and a conditioning nugget.
    pub fn new(length: f64, nu: MaternNu) -> Self {
        Self { length, nu, sigma2: 1.0, nugget: 1e-6 }
    }
}

impl RadialProfile for MaternKernel {
    /// The covariance at distance `r`.
    #[inline]
    fn eval(&self, r: f64) -> f64 {
        let s = r / self.length;
        self.sigma2
            * match self.nu {
                MaternNu::Half => (-s).exp(),
                MaternNu::ThreeHalves => {
                    let t = 3f64.sqrt() * s;
                    (1.0 + t) * (-t).exp()
                }
                MaternNu::FiveHalves => {
                    let t = 5f64.sqrt() * s;
                    (1.0 + t + t * t / 3.0) * (-t).exp()
                }
            }
    }

    fn diagonal(&self) -> f64 {
        self.sigma2 + self.nugget
    }

    fn decays(&self) -> bool {
        self.length > 0.0 && self.sigma2 >= 0.0
    }
}

macro_rules! kernel_matrix_methods {
    ($($kernel:ty),*) => {$(
        impl $kernel {
            /// Kernel matrix entry for points `i`, `j` of `points` (with
            /// the nugget on the diagonal).
            #[inline]
            pub fn matrix_entry(&self, points: &[Point3], i: usize, j: usize) -> f64 {
                entry(self, points, i, j)
            }

            /// The kernel matrix over `points`, for
            /// `TlrMatrix::from_generator`: entries, null-tile bounds, and
            /// `g(i, j)` through `Deref`.
            pub fn generator<'a>(
                &self,
                points: &'a [Point3],
            ) -> KernelGenerator<'a, Self, impl Fn(usize, usize) -> f64 + Sync + Copy + 'a> {
                radial_generator(*self, points)
            }
        }
    )*};
}

kernel_matrix_methods!(GaussianRbf, WendlandRbf, MaternKernel);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{virus_population, VirusConfig};

    #[test]
    fn eval_basics() {
        let k = GaussianRbf::new(0.1);
        assert_eq!(k.eval(0.0), 1.0);
        assert!((k.eval(0.1) - (-1.0_f64).exp()).abs() < 1e-15);
        assert!(k.eval(1.0) < 1e-40, "far values vanish");
    }

    #[test]
    fn shape_parameter_controls_decay() {
        let sharp = GaussianRbf::new(0.01);
        let smooth = GaussianRbf::new(0.1);
        let r = 0.05;
        assert!(sharp.eval(r) < smooth.eval(r));
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diag() {
        let cfg = VirusConfig { points_per_virus: 50, ..Default::default() };
        let pts = virus_population(2, &cfg, 3);
        let k = GaussianRbf::from_min_distance(&pts);
        assert!(k.delta > 0.0);
        for i in (0..pts.len()).step_by(13) {
            assert_eq!(k.matrix_entry(&pts, i, i), 1.0);
            for j in (0..pts.len()).step_by(7) {
                let a = k.matrix_entry(&pts, i, j);
                let b = k.matrix_entry(&pts, j, i);
                assert_eq!(a, b);
                assert!((0.0..=1.0).contains(&a));
            }
        }
    }

    #[test]
    fn default_delta_gives_diagonally_dominant_like_matrix() {
        // δ = ½·min distance ⇒ off-diagonal entries ≤ e^{−4} ≈ 0.018:
        // strongly diagonally concentrated, hence comfortably SPD.
        let cfg = VirusConfig { points_per_virus: 60, ..Default::default() };
        let pts = virus_population(1, &cfg, 9);
        let k = GaussianRbf::from_min_distance(&pts);
        let mut max_off = 0.0_f64;
        for i in 0..pts.len() {
            for j in 0..i {
                max_off = max_off.max(k.matrix_entry(&pts, i, j));
            }
        }
        assert!(max_off <= (-4.0_f64).exp() + 1e-12, "max off-diag {max_off}");
    }

    #[test]
    fn matern_closed_forms() {
        let m12 = MaternKernel::new(0.5, MaternNu::Half);
        assert!((m12.eval(0.5) - (-1.0f64).exp()).abs() < 1e-15);
        let m32 = MaternKernel::new(1.0, MaternNu::ThreeHalves);
        let t = 3f64.sqrt();
        assert!((m32.eval(1.0) - (1.0 + t) * (-t).exp()).abs() < 1e-15);
        let m52 = MaternKernel::new(1.0, MaternNu::FiveHalves);
        let t5 = 5f64.sqrt();
        assert!((m52.eval(1.0) - (1.0 + t5 + t5 * t5 / 3.0) * (-t5).exp()).abs() < 1e-15);
        // all are 1 at the origin with unit variance
        for k in [m12, m32, m52] {
            assert!((k.eval(0.0) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn matern_smoothness_orders_tails() {
        // at moderate distance the smoother kernels keep more correlation
        let r = 1.0;
        let ell = 1.0;
        let half = MaternKernel::new(ell, MaternNu::Half).eval(r);
        let three = MaternKernel::new(ell, MaternNu::ThreeHalves).eval(r);
        let five = MaternKernel::new(ell, MaternNu::FiveHalves).eval(r);
        assert!(half < three && three < five, "{half} {three} {five}");
    }

    #[test]
    fn matern_matrix_spd() {
        let cfg = VirusConfig { points_per_virus: 50, ..Default::default() };
        let pts = virus_population(2, &cfg, 41);
        let k = MaternKernel::new(0.05, MaternNu::ThreeHalves);
        let n = pts.len();
        let a = tlr_linalg::Matrix::from_fn(n, n, |i, j| k.matrix_entry(&pts, i, j));
        let mut l = a.clone();
        assert!(tlr_linalg::potrf(&mut l).is_ok(), "Matérn covariance must be SPD");
    }

    #[test]
    fn wendland_exact_zero_outside_support() {
        let k = WendlandRbf::new(0.1);
        assert_eq!(k.eval(0.0), 1.0);
        assert_eq!(k.eval(0.1), 0.0);
        assert_eq!(k.eval(0.5), 0.0);
        assert!(k.eval(0.05) > 0.0 && k.eval(0.05) < 1.0);
    }

    #[test]
    fn wendland_is_smooth_and_monotone_decreasing() {
        let k = WendlandRbf::new(1.0);
        let mut prev = k.eval(0.0);
        for i in 1..=100 {
            let v = k.eval(i as f64 / 100.0);
            assert!(v <= prev + 1e-15, "must decrease");
            prev = v;
        }
        // ψ(1⁻) → 0 continuously
        assert!(k.eval(0.999) < 1e-8);
    }

    #[test]
    fn wendland_matrix_spd_at_moderate_radius() {
        // Positive definiteness check via dense Cholesky.
        let cfg = VirusConfig { points_per_virus: 60, ..Default::default() };
        let pts = virus_population(2, &cfg, 31);
        let k = WendlandRbf::from_min_distance(&pts, 3.0);
        let n = pts.len();
        let a = tlr_linalg::Matrix::from_fn(n, n, |i, j| k.matrix_entry(&pts, i, j));
        let mut l = a.clone();
        assert!(tlr_linalg::potrf(&mut l).is_ok(), "Wendland matrix must be SPD");
    }

    #[test]
    fn wendland_sparser_than_gaussian() {
        let cfg = VirusConfig { points_per_virus: 50, ..Default::default() };
        let pts = virus_population(3, &cfg, 37);
        let w = WendlandRbf::from_min_distance(&pts, 3.0);
        let g = GaussianRbf::from_min_distance(&pts);
        let n = pts.len();
        let zeros = |f: &dyn Fn(usize, usize) -> f64| -> usize {
            let mut z = 0;
            for i in 0..n {
                for j in 0..i {
                    if f(i, j) == 0.0 {
                        z += 1;
                    }
                }
            }
            z
        };
        let wg = w.generator(&pts);
        let gg = g.generator(&pts);
        let zw = zeros(&|i, j| wg(i, j));
        let zg = zeros(&|i, j| gg(i, j));
        assert!(zw > zg, "Wendland must have exact zeros: {zw} vs {zg}");
        assert!(zw > n * (n - 1) / 4, "most entries vanish at 3 shells");
    }

    #[test]
    fn nugget_applies_on_diagonal_only() {
        let k = GaussianRbf { delta: 0.1, nugget: 0.5 };
        let pts = vec![
            Point3 { x: 0.0, y: 0.0, z: 0.0 },
            Point3 { x: 0.05, y: 0.0, z: 0.0 },
        ];
        assert_eq!(k.matrix_entry(&pts, 0, 0), 1.5);
        assert!(k.matrix_entry(&pts, 0, 1) < 1.0);
    }

    #[test]
    fn profiles_decay_monotonically() {
        let kernels: [&dyn Fn(f64) -> f64; 5] = [
            &|r| GaussianRbf::new(0.3).eval(r),
            &|r| WendlandRbf::new(0.7).eval(r),
            &|r| MaternKernel::new(0.2, MaternNu::Half).eval(r),
            &|r| MaternKernel::new(0.2, MaternNu::ThreeHalves).eval(r),
            &|r| MaternKernel::new(0.2, MaternNu::FiveHalves).eval(r),
        ];
        for phi in kernels {
            let mut prev = phi(0.0);
            for i in 1..=400 {
                let v = phi(i as f64 / 200.0);
                assert!((0.0..=prev).contains(&v), "φ must decay: {v} after {prev}");
                prev = v;
            }
        }
    }
}
