//! Structure-of-arrays particle storage.
//!
//! The 36-byte AoS [`Particle`] record is the
//! paper's I/O unit, but the analysis kernels (CIC deposit, FOF linking, MBP
//! potential sums) read one or two fields across *every* particle. Splitting
//! the record into packed per-field columns lets those inner loops issue
//! contiguous loads and autovectorize, instead of striding 36 bytes per
//! element and unpacking a struct.
//!
//! Conversion is bit-preserving in both directions for every field,
//! including NaN position payloads and the full 64-bit `tag` — the
//! round-trip is property-tested, and the conformance layout suite requires
//! every kernel to produce byte-identical results on either layout.

use crate::particle::Particle;

/// Structure-of-arrays particle store: one packed column per field.
///
/// All eight columns always have the same length. Columns are exposed as
/// borrowed slices (see [`ParticleSoA::pos_x`] and friends) so kernels can
/// sweep them without holding the whole struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleSoA {
    pos_x: Vec<f32>,
    pos_y: Vec<f32>,
    pos_z: Vec<f32>,
    vel_x: Vec<f32>,
    vel_y: Vec<f32>,
    vel_z: Vec<f32>,
    mass: Vec<f32>,
    tag: Vec<u64>,
}

/// Borrowed view of the three position columns (the shape every geometric
/// kernel consumes).
#[derive(Debug, Clone, Copy)]
pub struct PosColumns<'a> {
    /// Packed x positions.
    pub x: &'a [f32],
    /// Packed y positions.
    pub y: &'a [f32],
    /// Packed z positions.
    pub z: &'a [f32],
}

impl ParticleSoA {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `n` particles per column.
    pub fn with_capacity(n: usize) -> Self {
        ParticleSoA {
            pos_x: Vec::with_capacity(n),
            pos_y: Vec::with_capacity(n),
            pos_z: Vec::with_capacity(n),
            vel_x: Vec::with_capacity(n),
            vel_y: Vec::with_capacity(n),
            vel_z: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            tag: Vec::with_capacity(n),
        }
    }

    /// Convert from the AoS layout. Bit-preserving for every field.
    pub fn from_aos(particles: &[Particle]) -> Self {
        let mut soa = Self::with_capacity(particles.len());
        for p in particles {
            soa.push(*p);
        }
        soa
    }

    /// Convert back to the AoS layout. Bit-preserving for every field.
    pub fn to_aos(&self) -> Vec<Particle> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Append one particle.
    pub fn push(&mut self, p: Particle) {
        self.pos_x.push(p.pos[0]);
        self.pos_y.push(p.pos[1]);
        self.pos_z.push(p.pos[2]);
        self.vel_x.push(p.vel[0]);
        self.vel_y.push(p.vel[1]);
        self.vel_z.push(p.vel[2]);
        self.mass.push(p.mass);
        self.tag.push(p.tag);
    }

    /// Reassemble particle `i` (panics when out of bounds).
    pub fn get(&self, i: usize) -> Particle {
        Particle {
            pos: [self.pos_x[i], self.pos_y[i], self.pos_z[i]],
            vel: [self.vel_x[i], self.vel_y[i], self.vel_z[i]],
            mass: self.mass[i],
            tag: self.tag[i],
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos_x.len()
    }

    /// True when the store holds no particles.
    pub fn is_empty(&self) -> bool {
        self.pos_x.is_empty()
    }

    /// Packed x positions.
    pub fn pos_x(&self) -> &[f32] {
        &self.pos_x
    }

    /// Packed y positions.
    pub fn pos_y(&self) -> &[f32] {
        &self.pos_y
    }

    /// Packed z positions.
    pub fn pos_z(&self) -> &[f32] {
        &self.pos_z
    }

    /// Packed x velocities.
    pub fn vel_x(&self) -> &[f32] {
        &self.vel_x
    }

    /// Packed y velocities.
    pub fn vel_y(&self) -> &[f32] {
        &self.vel_y
    }

    /// Packed z velocities.
    pub fn vel_z(&self) -> &[f32] {
        &self.vel_z
    }

    /// Packed masses.
    pub fn mass(&self) -> &[f32] {
        &self.mass
    }

    /// Packed tags.
    pub fn tag(&self) -> &[u64] {
        &self.tag
    }

    /// Borrowed view of the three position columns.
    pub fn positions(&self) -> PosColumns<'_> {
        PosColumns {
            x: &self.pos_x,
            y: &self.pos_y,
            z: &self.pos_z,
        }
    }

    /// Position of particle `i` widened to `f64` (the analysis precision),
    /// component-for-component identical to
    /// [`Particle::pos_f64`](crate::particle::Particle::pos_f64).
    pub fn pos_f64(&self, i: usize) -> [f64; 3] {
        [
            self.pos_x[i] as f64,
            self.pos_y[i] as f64,
            self.pos_z[i] as f64,
        ]
    }
}

impl From<&[Particle]> for ParticleSoA {
    fn from(particles: &[Particle]) -> Self {
        ParticleSoA::from_aos(particles)
    }
}

impl FromIterator<Particle> for ParticleSoA {
    fn from_iter<I: IntoIterator<Item = Particle>>(iter: I) -> Self {
        let mut soa = ParticleSoA::new();
        for p in iter {
            soa.push(p);
        }
        soa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Particle {
                    pos: [f * 0.37, f * 0.71, f * 0.13],
                    vel: [-f, f * 2.0, 0.5],
                    mass: 1.0 + f * 0.01,
                    tag: u64::MAX - i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let aos = sample(257);
        let soa = ParticleSoA::from_aos(&aos);
        assert_eq!(soa.len(), 257);
        assert_eq!(soa.to_aos(), aos);
    }

    #[test]
    fn round_trip_preserves_nan_payloads_and_signed_zero() {
        let specials = vec![
            Particle {
                pos: [f32::NAN, -f32::NAN, -0.0],
                vel: [0.0, -0.0, f32::INFINITY],
                mass: f32::from_bits(1), // denormal
                tag: 0xDEAD_BEEF_CAFE_F00D,
            },
            Particle {
                pos: [f32::NEG_INFINITY, f32::MIN_POSITIVE, 0.0],
                vel: [f32::NAN, 1.0, -1.0],
                mass: -0.0,
                tag: u64::MAX,
            },
        ];
        let soa = ParticleSoA::from_aos(&specials);
        let back = soa.to_aos();
        for (a, b) in specials.iter().zip(&back) {
            for d in 0..3 {
                assert_eq!(a.pos[d].to_bits(), b.pos[d].to_bits());
                assert_eq!(a.vel[d].to_bits(), b.vel[d].to_bits());
            }
            assert_eq!(a.mass.to_bits(), b.mass.to_bits());
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn columns_are_packed_and_consistent() {
        let aos = sample(64);
        let soa = ParticleSoA::from_aos(&aos);
        let cols = soa.positions();
        for (i, p) in aos.iter().enumerate() {
            assert_eq!(cols.x[i], p.pos[0]);
            assert_eq!(cols.y[i], p.pos[1]);
            assert_eq!(cols.z[i], p.pos[2]);
            assert_eq!(soa.mass()[i], p.mass);
            assert_eq!(soa.tag()[i], p.tag);
            assert_eq!(soa.get(i), *p);
            assert_eq!(soa.pos_f64(i), p.pos_f64());
        }
    }

    #[test]
    fn empty_and_builders() {
        let soa = ParticleSoA::new();
        assert!(soa.is_empty());
        assert!(soa.to_aos().is_empty());
        let from_iter: ParticleSoA = sample(5).into_iter().collect();
        assert_eq!(from_iter.len(), 5);
        let via_from: ParticleSoA = sample(5).as_slice().into();
        assert_eq!(via_from, from_iter);
    }
}
