//! The mapping from a relative neighbor position onto the 3-sphere.
//!
//! §4.3: "the relative distances between atoms are mapped onto a
//! hypersphere". The point `(x, y, z, z0)` on the 3-sphere is encoded
//! in the Cayley-Klein parameters
//!
//! ```text
//! a = r0⁻¹ (z0 − i·z),   b = r0⁻¹ (y − i·x),   r0² = r² + z0²,
//! z0 = r / tan(θ0),      θ0 = rfac0·π·(r − rmin0)/(rcut − rmin0),
//! ```
//!
//! together with the smooth switching function `fc(r)` that takes each
//! neighbor's weight to zero at the cutoff. This module also provides
//! the Cartesian derivatives `da/dx_k`, `db/dx_k`, `dfc/dx_k` that feed
//! ComputeDuidrj.

/// Cayley-Klein parameters of one neighbor, plus the cutoff weight.
#[derive(Debug, Clone, Copy, Default)]
pub struct CayleyKlein {
    pub a_r: f64,
    pub a_i: f64,
    pub b_r: f64,
    pub b_i: f64,
    /// fc(r) · w (the neighbor's accumulated weight).
    pub sfac: f64,
}

/// `CayleyKlein` plus the Cartesian derivatives Deidrj contracts the
/// reverse sweep's `∂/∂(a, b)` with.
#[derive(Debug, Clone, Copy)]
pub struct CayleyKleinDeriv {
    pub ck: CayleyKlein,
    pub da_r: [f64; 3],
    pub da_i: [f64; 3],
    pub db_r: [f64; 3],
    pub db_i: [f64; 3],
    /// d(fc·w)/dx_k.
    pub dsfac: [f64; 3],
}

/// The reusable geometry of one neighbor's hypersphere map: the
/// Cayley-Klein parameters plus the scalar intermediates (`r`, `z0`,
/// `r0⁻¹`) the derivative formulas need. ComputeUi caches one of these
/// per neighbor so ComputeDeidrj can derive `da/db/dsfac` without
/// re-running the trigonometry.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapCore {
    pub ck: CayleyKlein,
    pub r: f64,
    pub rsq: f64,
    pub z0: f64,
    pub r0inv: f64,
}

/// Geometry parameters of the hypersphere map.
#[derive(Debug, Clone, Copy)]
pub struct HyperParams {
    pub rcut: f64,
    pub rmin0: f64,
    pub rfac0: f64,
    /// Neighbor weight `w_j` (element-dependent in general).
    pub weight: f64,
}

impl Default for HyperParams {
    fn default() -> Self {
        // The standard LAMMPS SNAP defaults.
        HyperParams {
            rcut: 4.7,
            rmin0: 0.0,
            rfac0: 0.99363,
            weight: 1.0,
        }
    }
}

impl HyperParams {
    /// Switching function `fc(r)`: 1 at `rmin0`, 0 at `rcut`.
    pub fn fc(&self, r: f64) -> f64 {
        if r >= self.rcut {
            return 0.0;
        }
        if r <= self.rmin0 {
            return 1.0;
        }
        let t = (r - self.rmin0) / (self.rcut - self.rmin0);
        0.5 * ((std::f64::consts::PI * t).cos() + 1.0)
    }

    /// d fc / dr.
    pub fn dfc_dr(&self, r: f64) -> f64 {
        if r >= self.rcut || r <= self.rmin0 {
            return 0.0;
        }
        let w = std::f64::consts::PI / (self.rcut - self.rmin0);
        -0.5 * w * (w * (r - self.rmin0)).sin()
    }

    /// Map one relative position onto the 3-sphere, keeping the scalar
    /// intermediates so the derivative pass can reuse them. This is the
    /// single source of truth for `θ0`/`z0`/`r0⁻¹`: the energy and
    /// force paths see exactly the same Cayley-Klein bits.
    pub fn map_core(&self, d: [f64; 3]) -> MapCore {
        let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let r = rsq.sqrt();
        let theta0 =
            self.rfac0 * std::f64::consts::PI * (r - self.rmin0) / (self.rcut - self.rmin0);
        let z0 = r / theta0.tan();
        let r0inv = 1.0 / (rsq + z0 * z0).sqrt();
        MapCore {
            ck: CayleyKlein {
                a_r: r0inv * z0,
                a_i: -r0inv * d[2],
                b_r: r0inv * d[1],
                b_i: -r0inv * d[0],
                sfac: self.fc(r) * self.weight,
            },
            r,
            rsq,
            z0,
            r0inv,
        }
    }

    /// Map one relative position to Cayley-Klein parameters.
    pub fn map(&self, d: [f64; 3]) -> CayleyKlein {
        self.map_core(d).ck
    }

    /// The Cartesian derivatives for a neighbor whose [`MapCore`] was
    /// already computed (by ComputeUi). Pure arithmetic on the cached
    /// scalars — no `sqrt`/`tan` re-evaluation.
    pub fn derivatives_from(&self, d: [f64; 3], core: &MapCore) -> CayleyKleinDeriv {
        let (r, rsq, z0, r0inv) = (core.r, core.rsq, core.z0, core.r0inv);
        let rinv = 1.0 / r;
        let uhat = [d[0] * rinv, d[1] * rinv, d[2] * rinv];
        let rscale0 = self.rfac0 * std::f64::consts::PI / (self.rcut - self.rmin0);
        let dz0dr = z0 / r - r * rscale0 * (rsq + z0 * z0) / rsq;
        let dr0invdr = -r0inv.powi(3) * (r + z0 * dz0dr);

        let mut out = CayleyKleinDeriv {
            ck: core.ck,
            da_r: [0.0; 3],
            da_i: [0.0; 3],
            db_r: [0.0; 3],
            db_i: [0.0; 3],
            dsfac: [0.0; 3],
        };
        let dsfac_dr = self.dfc_dr(r) * self.weight;
        for (k, &uk) in uhat.iter().enumerate() {
            let dr0inv = dr0invdr * uk;
            let dz0 = dz0dr * uk;
            out.da_r[k] = dz0 * r0inv + z0 * dr0inv;
            out.da_i[k] = -d[2] * dr0inv;
            out.db_r[k] = d[1] * dr0inv;
            out.db_i[k] = -d[0] * dr0inv;
            out.dsfac[k] = dsfac_dr * uk;
        }
        out.da_i[2] -= r0inv;
        out.db_r[1] += r0inv;
        out.db_i[0] -= r0inv;
        out
    }

    /// Map with full Cartesian derivatives.
    pub fn map_with_derivatives(&self, d: [f64; 3]) -> CayleyKleinDeriv {
        self.derivatives_from(d, &self.map_core(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cayley_klein_is_unit_quaternion() {
        let p = HyperParams::default();
        for d in [[1.0, 0.5, -0.3], [2.0, -1.0, 1.5], [0.1, 0.0, 0.0]] {
            let ck = p.map(d);
            let norm = ck.a_r * ck.a_r + ck.a_i * ck.a_i + ck.b_r * ck.b_r + ck.b_i * ck.b_i;
            assert!((norm - 1.0).abs() < 1e-12, "|a|²+|b|² = {norm}");
        }
    }

    #[test]
    fn cutoff_function_limits() {
        let p = HyperParams {
            rcut: 4.0,
            rmin0: 1.0,
            ..Default::default()
        };
        assert_eq!(p.fc(0.5), 1.0);
        assert_eq!(p.fc(4.0), 0.0);
        assert_eq!(p.fc(5.0), 0.0);
        assert!((p.fc(2.5) - 0.5).abs() < 1e-12); // midpoint
                                                  // Monotone decreasing.
        let mut prev = 1.0;
        let mut r = 1.0;
        while r < 4.0 {
            let v = p.fc(r);
            assert!(v <= prev + 1e-15);
            prev = v;
            r += 0.05;
        }
    }

    #[test]
    fn dfc_matches_finite_difference() {
        let p = HyperParams::default();
        for &r in &[0.5f64, 1.7, 3.3, 4.5] {
            let h = 1e-6;
            let fd = (p.fc(r + h) - p.fc(r - h)) / (2.0 * h);
            assert!((p.dfc_dr(r) - fd).abs() < 1e-8, "r = {r}");
        }
    }

    #[test]
    fn cayley_klein_derivatives_match_finite_difference() {
        let p = HyperParams::default();
        let d0 = [1.3, -0.7, 2.1];
        let full = p.map_with_derivatives(d0);
        let h = 1e-6;
        for k in 0..3 {
            let mut dp = d0;
            let mut dm = d0;
            dp[k] += h;
            dm[k] -= h;
            let cp = p.map(dp);
            let cm = p.map(dm);
            let checks = [
                (full.da_r[k], (cp.a_r - cm.a_r) / (2.0 * h), "da_r"),
                (full.da_i[k], (cp.a_i - cm.a_i) / (2.0 * h), "da_i"),
                (full.db_r[k], (cp.b_r - cm.b_r) / (2.0 * h), "db_r"),
                (full.db_i[k], (cp.b_i - cm.b_i) / (2.0 * h), "db_i"),
                (full.dsfac[k], (cp.sfac - cm.sfac) / (2.0 * h), "dsfac"),
            ];
            for (analytic, fd, name) in checks {
                assert!(
                    (analytic - fd).abs() < 1e-7,
                    "{name}[{k}]: analytic {analytic} vs fd {fd}"
                );
            }
        }
    }
}
