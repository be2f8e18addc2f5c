//! Packed coordinate columns for the halo kernels.
//!
//! The k-d tree build, FOF linking, neighbour queries, and MBP potential
//! sums all work in `f64` analysis precision over particle positions, and
//! all of them take [`Coords`]: three packed columns, widened from `f32`
//! exactly once, so the hot loops sweep contiguous lanes.
//!
//! The widening is the same `as f64` conversion per component as
//! [`Particle::pos_f64`], and the distance and summation expressions keep
//! the row references' association, so every column kernel is
//! bit-identical to its reference. The layout conformance suite compares
//! them over the adversarial corpus.

use nbody::particle::Particle;
use nbody::soa::ParticleSoA;

/// Three packed `f64` coordinate columns (one per axis).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Coords {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl Coords {
    /// An empty column set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from row-major positions.
    pub fn from_rows(positions: &[[f64; 3]]) -> Self {
        Coords {
            xs: positions.iter().map(|p| p[0]).collect(),
            ys: positions.iter().map(|p| p[1]).collect(),
            zs: positions.iter().map(|p| p[2]).collect(),
        }
    }

    /// Build from AoS particles, widening each component with the same
    /// `as f64` conversion as [`Particle::pos_f64`].
    pub fn from_particles(particles: &[Particle]) -> Self {
        Coords {
            xs: particles.iter().map(|p| p.pos[0] as f64).collect(),
            ys: particles.iter().map(|p| p.pos[1] as f64).collect(),
            zs: particles.iter().map(|p| p.pos[2] as f64).collect(),
        }
    }

    /// Build from SoA particle columns (same widening, column sweeps).
    pub fn from_soa(soa: &ParticleSoA) -> Self {
        Coords {
            xs: soa.pos_x().iter().map(|&v| v as f64).collect(),
            ys: soa.pos_y().iter().map(|&v| v as f64).collect(),
            zs: soa.pos_z().iter().map(|&v| v as f64).collect(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, p: [f64; 3]) {
        self.xs.push(p[0]);
        self.ys.push(p[1]);
        self.zs.push(p[2]);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Reassemble point `i` as a row (panics when out of bounds).
    pub fn get(&self, i: usize) -> [f64; 3] {
        [self.xs[i], self.ys[i], self.zs[i]]
    }

    /// Packed x column.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Packed y column.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Packed z column.
    pub fn zs(&self) -> &[f64] {
        &self.zs
    }

    /// The packed column for axis `d` (0 = x, 1 = y, 2 = z).
    pub fn axis(&self, d: usize) -> &[f64] {
        match d {
            0 => &self.xs,
            1 => &self.ys,
            2 => &self.zs,
            _ => panic!("axis {d} out of range"),
        }
    }

    /// Convert back to row-major positions.
    pub fn to_rows(&self) -> Vec<[f64; 3]> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let rows = vec![[1.0, 2.0, 3.0], [-0.0, f64::NAN, 4.5], [7.0, 8.0, 9.0]];
        let c = Coords::from_rows(&rows);
        assert_eq!(c.len(), 3);
        let back = c.to_rows();
        for (a, b) in rows.iter().zip(&back) {
            for d in 0..3 {
                assert_eq!(a[d].to_bits(), b[d].to_bits());
            }
        }
        assert!(std::ptr::eq(c.axis(0), c.xs()));
        assert!(std::ptr::eq(c.axis(1), c.ys()));
        assert!(std::ptr::eq(c.axis(2), c.zs()));
    }

    #[test]
    fn particle_widening_matches_pos_f64() {
        let parts = vec![
            Particle::at_rest([1.5, -0.0, f32::NAN], 1.0, 0),
            Particle::at_rest([f32::MIN_POSITIVE, 2.25, -7.125], 1.0, 1),
        ];
        let c = Coords::from_particles(&parts);
        let soa = ParticleSoA::from_aos(&parts);
        let cs = Coords::from_soa(&soa);
        for (i, p) in parts.iter().enumerate() {
            let r = p.pos_f64();
            for d in 0..3 {
                assert_eq!(c.get(i)[d].to_bits(), r[d].to_bits());
                assert_eq!(cs.get(i)[d].to_bits(), r[d].to_bits());
            }
        }
    }

    #[test]
    fn push_and_empty() {
        let mut c = Coords::new();
        assert!(c.is_empty());
        c.push([1.0, 2.0, 3.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0), [1.0, 2.0, 3.0]);
    }
}
