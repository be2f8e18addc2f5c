//! Subhalo finding (paper §3.3.1, after Refs. [24, 35]).
//!
//! Pipeline per parent FOF halo:
//! 1. estimate each particle's local density from its k nearest neighbours
//!    with an SPH kernel (tree-accelerated),
//! 2. walk particles in descending density, growing *candidate* subhalos:
//!    a particle with no denser neighbour seeds a new candidate; one whose
//!    denser neighbours lie in a single candidate joins it; one bridging two
//!    candidates is a saddle — the smaller candidate is merged into the
//!    larger unless it is big enough to stand alone,
//! 3. unbind: iteratively remove particles with positive total energy, at
//!    most one quarter of the positive-energy particles per pass.

use crate::columns::Coords;
use crate::kdtree::KdTree;
use nbody::particle::Particle;

/// Subhalo finder parameters.
#[derive(Debug, Clone)]
pub struct SubhaloParams {
    /// Neighbours used for the density estimate.
    pub n_neighbors: usize,
    /// Minimum particle count for a candidate to survive as a subhalo.
    pub min_size: usize,
    /// Gravitational softening for binding energies.
    pub softening: f64,
    /// Maximum unbinding passes.
    pub max_unbind_passes: usize,
}

impl Default for SubhaloParams {
    fn default() -> Self {
        SubhaloParams {
            n_neighbors: 24,
            min_size: 20,
            softening: 1e-3,
            max_unbind_passes: 8,
        }
    }
}

/// A subhalo: indices into the parent halo's particle array.
#[derive(Debug, Clone)]
pub struct Subhalo {
    /// Member indices (into the parent's member array), densest first.
    pub members: Vec<u32>,
    /// Peak (seed) density.
    pub peak_density: f64,
}

/// SPH-kernel local densities from k-nearest neighbours.
///
/// Uses the standard cubic-spline–like estimate: mass of the k neighbours
/// over the kernel volume set by the distance to the k-th.
pub fn local_densities(particles: &[Particle], k: usize) -> Vec<f64> {
    let n = particles.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let coords = Coords::from_particles(particles);
    let tree = KdTree::build(&coords, None);
    let mut rho = vec![0.0f64; n];
    for i in 0..n {
        let nn = tree.k_nearest(&coords, coords.get(i), k);
        let h2 = nn.last().map(|&(_, d2)| d2).unwrap_or(0.0);
        if h2 <= 0.0 {
            rho[i] = f64::INFINITY; // coincident points: formally infinite
            continue;
        }
        let h = h2.sqrt();
        // Mass within the smoothing sphere over its volume, kernel-weighted.
        let mut mass = 0.0;
        for &(j, d2) in &nn {
            let u = (d2.sqrt() / h).min(1.0);
            // Simple quartic kernel weight (1-u²)², normalized away below.
            let w = (1.0 - u * u).powi(2);
            mass += particles[j as usize].mass as f64 * w;
        }
        let vol = 4.0 / 3.0 * std::f64::consts::PI * h * h * h;
        rho[i] = mass / vol;
    }
    rho
}

/// Find subhalos within one parent halo. Returns subhalos sorted by size
/// (largest first).
pub fn find_subhalos(particles: &[Particle], params: &SubhaloParams) -> Vec<Subhalo> {
    let n = particles.len();
    if n < params.min_size {
        return Vec::new();
    }
    let coords = Coords::from_particles(particles);
    let rho = local_densities(particles, params.n_neighbors);
    let tree = KdTree::build(&coords, None);

    // Process in descending density.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        rho[b as usize]
            .partial_cmp(&rho[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut rank_of = vec![0usize; n]; // density rank per particle
    for (r, &i) in order.iter().enumerate() {
        rank_of[i as usize] = r;
    }

    // Candidate assignment per particle (usize::MAX = unassigned).
    const NONE: u32 = u32::MAX;
    let mut cand_of = vec![NONE; n];
    let mut cands: Vec<Vec<u32>> = Vec::new(); // member lists
    let mut peak: Vec<f64> = Vec::new();
    // Candidate redirection after merges (union-find-ish chain).
    let mut merged_into: Vec<u32> = Vec::new();
    let resolve = |mut c: u32, merged_into: &[u32]| -> u32 {
        while merged_into[c as usize] != c {
            c = merged_into[c as usize];
        }
        c
    };

    for &i in &order {
        let iu = i as usize;
        // Denser neighbours among the k nearest.
        let nn = tree.k_nearest(&coords, coords.get(iu), params.n_neighbors);
        let mut attached: Vec<u32> = Vec::new();
        for &(j, _) in &nn {
            if j == i {
                continue;
            }
            if rank_of[j as usize] < rank_of[iu] && cand_of[j as usize] != NONE {
                let c = resolve(cand_of[j as usize], &merged_into);
                if !attached.contains(&c) {
                    attached.push(c);
                }
            }
        }
        match attached.len() {
            0 => {
                // Local density maximum: seed a new candidate.
                let c = cands.len() as u32;
                cands.push(vec![i]);
                peak.push(rho[iu]);
                merged_into.push(c);
                cand_of[iu] = c;
            }
            1 => {
                let c = attached[0];
                cands[c as usize].push(i);
                cand_of[iu] = c;
            }
            _ => {
                // Saddle point: keep the largest candidate, merge the rest
                // into it if they are too small to stand alone.
                attached.sort_by_key(|&c| std::cmp::Reverse(cands[c as usize].len()));
                let main = attached[0];
                for &c in &attached[1..] {
                    if cands[c as usize].len() < params.min_size {
                        let moved = std::mem::take(&mut cands[c as usize]);
                        cands[main as usize].extend(moved);
                        merged_into[c as usize] = main;
                    }
                }
                cands[main as usize].push(i);
                cand_of[iu] = main;
            }
        }
    }

    // Unbind and filter.
    let mut out = Vec::new();
    for (ci, members) in cands.into_iter().enumerate() {
        if merged_into[ci] != ci as u32 || members.len() < params.min_size {
            continue;
        }
        let bound = unbind(particles, members, params);
        if bound.len() >= params.min_size {
            out.push(Subhalo {
                members: bound,
                peak_density: peak[ci],
            });
        }
    }
    out.sort_by_key(|s| std::cmp::Reverse(s.members.len()));
    out
}

/// Iteratively remove unbound particles (positive total energy in the
/// candidate's center-of-momentum frame), at most a quarter of the
/// positive-energy set per pass (paper §3.3.1).
fn unbind(particles: &[Particle], mut members: Vec<u32>, params: &SubhaloParams) -> Vec<u32> {
    for _ in 0..params.max_unbind_passes {
        if members.len() < params.min_size {
            break;
        }
        // Center-of-momentum velocity.
        let mut vcm = [0.0f64; 3];
        let mut mtot = 0.0;
        for &i in &members {
            let p = &particles[i as usize];
            let m = p.mass as f64;
            for d in 0..3 {
                vcm[d] += m * p.vel[d] as f64;
            }
            mtot += m;
        }
        for v in &mut vcm {
            *v /= mtot;
        }
        // Energies: KE in COM frame + PE over the member set (O(m²): member
        // sets are small after density segmentation).
        let mut energies: Vec<(u32, f64)> = members
            .iter()
            .map(|&i| {
                let p = &particles[i as usize];
                let mut ke = 0.0;
                for d in 0..3 {
                    let dv = p.vel[d] as f64 - vcm[d];
                    ke += dv * dv;
                }
                ke *= 0.5 * p.mass as f64;
                let qi = p.pos_f64();
                let mut pe = 0.0;
                for &j in &members {
                    if j == i {
                        continue;
                    }
                    let q = particles[j as usize].pos_f64();
                    let d =
                        ((q[0] - qi[0]).powi(2) + (q[1] - qi[1]).powi(2) + (q[2] - qi[2]).powi(2))
                            .sqrt();
                    pe -=
                        p.mass as f64 * particles[j as usize].mass as f64 / (d + params.softening);
                }
                (i, ke + pe)
            })
            .collect();
        let positive: Vec<usize> = energies
            .iter()
            .enumerate()
            .filter(|(_, (_, e))| *e > 0.0)
            .map(|(k, _)| k)
            .collect();
        if positive.is_empty() {
            break;
        }
        // Remove at most a quarter of the positive-energy particles, most
        // unbound first.
        let remove_n = (positive.len().div_ceil(4)).max(1);
        energies.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let to_remove: std::collections::HashSet<u32> = energies
            .iter()
            .take(remove_n)
            .filter(|(_, e)| *e > 0.0)
            .map(|(i, _)| *i)
            .collect();
        members.retain(|i| !to_remove.contains(i));
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A gravitationally plausible clump: tight positions, small velocities.
    fn clump(center: [f64; 3], n: usize, spread: f64, vel_scale: f32, seed: u64) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = seed as f64 * 31.7 + i as f64;
                Particle {
                    pos: [
                        (center[0] + ((t * 0.618).fract() - 0.5) * spread) as f32,
                        (center[1] + ((t * 0.414).fract() - 0.5) * spread) as f32,
                        (center[2] + ((t * 0.732).fract() - 0.5) * spread) as f32,
                    ],
                    vel: [
                        (((t * 0.317).fract() - 0.5) as f32) * vel_scale,
                        (((t * 0.553).fract() - 0.5) as f32) * vel_scale,
                        (((t * 0.871).fract() - 0.5) as f32) * vel_scale,
                    ],
                    mass: 1.0,
                    tag: i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn densities_are_higher_in_denser_regions() {
        let mut parts = clump([0.0; 3], 200, 0.5, 0.0, 1); // dense
        parts.extend(clump([10.0, 0.0, 0.0], 50, 5.0, 0.0, 2)); // diffuse
        let rho = local_densities(&parts, 16);
        let dense_mean: f64 = rho[..200].iter().sum::<f64>() / 200.0;
        let diffuse_mean: f64 = rho[200..].iter().sum::<f64>() / 50.0;
        assert!(
            dense_mean > 10.0 * diffuse_mean,
            "dense {dense_mean} vs diffuse {diffuse_mean}"
        );
    }

    #[test]
    fn two_clumps_give_two_subhalos() {
        let mut parts = clump([0.0; 3], 150, 0.6, 0.01, 3);
        parts.extend(clump([4.0, 0.0, 0.0], 120, 0.6, 0.01, 4));
        let subs = find_subhalos(&parts, &SubhaloParams::default());
        assert!(
            subs.len() >= 2,
            "expected at least two subhalos, got {}",
            subs.len()
        );
        // The two largest should roughly carve up the two clumps.
        assert!(subs[0].members.len() >= 80);
        assert!(subs[1].members.len() >= 80);
    }

    #[test]
    fn single_clump_is_one_subhalo() {
        let parts = clump([0.0; 3], 200, 0.6, 0.01, 5);
        let subs = find_subhalos(&parts, &SubhaloParams::default());
        assert_eq!(subs.len(), 1, "got {}", subs.len());
        assert!(subs[0].members.len() >= 150);
    }

    #[test]
    fn tiny_parent_yields_nothing() {
        let parts = clump([0.0; 3], 10, 0.5, 0.0, 6);
        assert!(find_subhalos(&parts, &SubhaloParams::default()).is_empty());
    }

    #[test]
    fn unbinding_removes_fast_interlopers() {
        // A bound clump plus a handful of particles moving at huge velocity:
        // the interlopers must be unbound.
        let mut parts = clump([0.0; 3], 150, 0.5, 0.01, 7);
        for k in 0..10 {
            parts.push(Particle {
                pos: [0.1 * k as f32 - 0.5, 0.0, 0.0],
                vel: [1000.0, 0.0, 0.0],
                mass: 1.0,
                tag: 10_000 + k,
            });
        }
        let subs = find_subhalos(&parts, &SubhaloParams::default());
        assert!(!subs.is_empty());
        let main = &subs[0];
        for &m in &main.members {
            assert!(
                parts[m as usize].vel[0] < 100.0,
                "fast interloper {m} survived unbinding"
            );
        }
    }

    #[test]
    fn subhalos_are_disjoint() {
        let mut parts = clump([0.0; 3], 120, 0.6, 0.01, 8);
        parts.extend(clump([3.5, 0.0, 0.0], 100, 0.6, 0.01, 9));
        parts.extend(clump([0.0, 4.0, 0.0], 80, 0.6, 0.01, 10));
        let subs = find_subhalos(&parts, &SubhaloParams::default());
        let mut seen = std::collections::HashSet::new();
        for s in &subs {
            for &m in &s.members {
                assert!(seen.insert(m), "particle {m} in two subhalos");
            }
        }
    }

    /// Pins the exact bits of the density estimate and the subhalo member
    /// lists on a fixed multi-clump parent, so a change of tree layout or
    /// query order that moves any neighbour set shows up here.
    #[test]
    fn outputs_are_bit_pinned_on_a_multi_clump_parent() {
        let mut parts = clump([0.0; 3], 140, 0.6, 0.01, 11);
        parts.extend(clump([3.0, 0.5, 0.0], 110, 0.5, 0.01, 12));
        parts.extend(clump([0.5, 3.5, 1.0], 90, 0.7, 0.01, 13));
        parts.extend(clump([1.5, 1.5, 1.5], 60, 6.0, 0.05, 14));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for rho in local_densities(&parts, 24) {
            eat(rho.to_bits());
        }
        let subs = find_subhalos(&parts, &SubhaloParams::default());
        assert!(subs.len() >= 2, "got {}", subs.len());
        for s in &subs {
            eat(s.members.len() as u64);
            s.members.iter().for_each(|&m| eat(m as u64));
            eat(s.peak_density.to_bits());
        }
        assert_eq!(h, 0x8b3a_f963_733b_1a38, "subhalo output digest moved");
    }

    #[test]
    fn empty_input() {
        assert!(local_densities(&[], 8).is_empty());
        assert!(find_subhalos(&[], &SubhaloParams::default()).is_empty());
    }
}
