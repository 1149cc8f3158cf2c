//! 2-D density heatmap helpers for the Figure 2/3/4 reproductions.

use nofis_prob::Proposal;
use serde::Serialize;

/// The density `q(x) = exp(ln q(x))` of `q` at every point, scored in one
/// batched call — the rasterizer for [`Heatmap::from_points`].
pub fn density(q: &impl Proposal, points: &[Vec<f64>]) -> Vec<f64> {
    q.log_density_batch(points)
        .into_iter()
        .map(f64::exp)
        .collect()
}

/// A rasterized 2-D scalar field over `[-extent, extent]²`.
#[derive(Debug, Clone, Serialize)]
pub struct Heatmap {
    /// Grid resolution per axis.
    pub resolution: usize,
    /// Half-extent of the square domain.
    pub extent: f64,
    /// Row-major values, `resolution²` entries; row 0 is the smallest `y`.
    pub values: Vec<f64>,
}

impl Heatmap {
    /// Rasterizes `f(x, y)` on a `resolution × resolution` grid.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 2` or `extent <= 0`.
    pub fn from_fn(resolution: usize, extent: f64, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        Heatmap::from_points(resolution, extent, |points| {
            points.iter().map(|p| f(p[0], p[1])).collect()
        })
    }

    /// Rasterizes a batch evaluator: `f` receives every grid point `[x, y]`
    /// at once, row by row from the smallest `y`, and returns one value per
    /// point (e.g. a flow proposal's batched `ln q`).
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 2`, `extent <= 0`, or `f` returns a value
    /// count other than `resolution²`.
    pub fn from_points(
        resolution: usize,
        extent: f64,
        f: impl FnOnce(&[Vec<f64>]) -> Vec<f64>,
    ) -> Self {
        assert!(resolution >= 2, "need at least a 2x2 grid");
        assert!(extent > 0.0, "extent must be positive");
        let step = 2.0 * extent / (resolution - 1) as f64;
        let points: Vec<Vec<f64>> = (0..resolution * resolution)
            .map(|i| {
                let (iy, ix) = (i / resolution, i % resolution);
                vec![-extent + ix as f64 * step, -extent + iy as f64 * step]
            })
            .collect();
        let values = f(&points);
        assert_eq!(values.len(), points.len(), "one value per grid point");
        Heatmap {
            resolution,
            extent,
            values,
        }
    }

    /// Largest value in the map.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total mass (sum × cell area) — useful to sanity check normalized
    /// densities.
    pub fn mass(&self) -> f64 {
        let step = 2.0 * self.extent / (self.resolution - 1) as f64;
        self.values.iter().sum::<f64>() * step * step
    }

    /// Renders an ASCII-art view (darker glyph = larger value), suitable
    /// for terminal inspection of learned proposals.
    pub fn to_ascii(&self, width: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.max().max(1e-300);
        let stride = (self.resolution / width.max(1)).max(1);
        let mut out = String::new();
        // Render top-to-bottom as decreasing y.
        for iy in (0..self.resolution).step_by(stride).rev() {
            for ix in (0..self.resolution).step_by(stride) {
                let v = self.values[iy * self.resolution + ix] / max;
                let idx = ((v.max(0.0)).sqrt() * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Normalized cross-correlation with another map of the same shape —
    /// used to quantify how well the learned `q_MK` matches the optimal
    /// `q*` in the Figure 2 reproduction (1.0 = identical shapes).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn correlation(&self, other: &Heatmap) -> f64 {
        assert_eq!(self.resolution, other.resolution, "resolution mismatch");
        let n = self.values.len() as f64;
        let ma = self.values.iter().sum::<f64>() / n;
        let mb = other.values.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for (a, b) in self.values.iter().zip(&other.values) {
            num += (a - ma) * (b - mb);
            da += (a - ma) * (a - ma);
            db += (b - mb) * (b - mb);
        }
        num / (da.sqrt() * db.sqrt()).max(1e-300)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rasterizes_gaussian() {
        let h = Heatmap::from_fn(41, 4.0, |x, y| (-0.5 * (x * x + y * y)).exp());
        // Peak at center.
        let c = h.resolution / 2;
        assert!((h.values[c * h.resolution + c] - 1.0).abs() < 1e-12);
        // Mass ≈ 2π for the unnormalized Gaussian.
        assert!((h.mass() - std::f64::consts::TAU).abs() < 0.05);
    }

    #[test]
    fn self_correlation_is_one() {
        let h = Heatmap::from_fn(21, 3.0, |x, y| x * y + 1.0);
        assert!((h.correlation(&h) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_maps_correlate_poorly() {
        let a = Heatmap::from_fn(31, 3.0, |x, _| if x > 1.0 { 1.0 } else { 0.0 });
        let b = Heatmap::from_fn(31, 3.0, |x, _| if x < -1.0 { 1.0 } else { 0.0 });
        assert!(a.correlation(&b) < 0.0);
    }

    #[test]
    fn ascii_render_has_rows() {
        let h = Heatmap::from_fn(32, 2.0, |x, y| (-(x * x + y * y)).exp());
        let art = h.to_ascii(32);
        assert_eq!(art.lines().count(), 32);
        assert!(art.contains('@'));
    }
}
