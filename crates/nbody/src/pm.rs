//! Particle-mesh gravity: CIC deposit, k-space Poisson solve, CIC force
//! interpolation. All mesh quantities live in *grid units* (cell = 1).

use crate::particle::Particle;
use crate::soa::ParticleSoA;
use dpp::Backend;
use fft::{freq_index, Complex, Fft3d, Grid3};
use parking_lot::Mutex;

/// Convert a position in box units (Mpc/h) to grid units for mesh size `ng`.
#[inline]
pub fn to_grid_units(pos: f32, box_size: f64, ng: usize) -> f64 {
    let u = pos as f64 / box_size * ng as f64;
    // Wrap defensively: positions should already be in [0, box_size).
    u.rem_euclid(ng as f64)
}

/// Bit-identical form of [`to_grid_units`]' wrap for an already-scaled grid
/// coordinate: `fmod(u, ngf) == u` exactly whenever `0 ≤ u < ngf` (including
/// −0.0 and denormals), and NaN fails the range test into the slow path, so
/// both branches return the same bits as an unconditional `rem_euclid` for
/// every possible input. The SoA deposit uses this to keep the `fmod`
/// libcall off its hot path.
#[inline]
fn wrap_grid(u: f64, ngf: f64) -> f64 {
    if (0.0..ngf).contains(&u) {
        u
    } else {
        u.rem_euclid(ngf)
    }
}

/// Cloud-in-cell deposit of particle mass onto an `ng³` mesh. Returns the
/// *overdensity* field `δ = ρ/ρ̄ − 1`, where the mean is taken over the mesh.
pub fn cic_deposit(
    backend: &dyn Backend,
    particles: &[Particle],
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    let ncell = ng * ng * ng;
    // Partial grids are collected per chunk and merged in chunk order so the
    // floating-point result is identical run-to-run and backend-to-backend.
    let partials: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    let grain = (particles.len() / backend.concurrency().max(1)).max(4096);
    backend.dispatch(particles.len(), grain, &|r| {
        let start = r.start;
        let mut local = vec![0.0f64; ncell];
        for p in &particles[r] {
            let u = [
                to_grid_units(p.pos[0], box_size, ng),
                to_grid_units(p.pos[1], box_size, ng),
                to_grid_units(p.pos[2], box_size, ng),
            ];
            let i = [u[0] as usize % ng, u[1] as usize % ng, u[2] as usize % ng];
            let d = [u[0] - i[0] as f64, u[1] - i[1] as f64, u[2] - i[2] as f64];
            let m = p.mass as f64;
            for (dx, wx) in [(0usize, 1.0 - d[0]), (1, d[0])] {
                for (dy, wy) in [(0usize, 1.0 - d[1]), (1, d[1])] {
                    for (dz, wz) in [(0usize, 1.0 - d[2]), (1, d[2])] {
                        let x = (i[0] + dx) % ng;
                        let y = (i[1] + dy) % ng;
                        let z = (i[2] + dz) % ng;
                        local[(x * ng + y) * ng + z] += m * wx * wy * wz;
                    }
                }
            }
        }
        partials.lock().push((start, local));
    });
    let mut partials = partials.into_inner();
    partials.sort_by_key(|(s, _)| *s);
    let mut rho = vec![0.0f64; ncell];
    for (_, local) in partials {
        for (gv, lv) in rho.iter_mut().zip(&local) {
            *gv += lv;
        }
    }
    let total: f64 = particles.iter().map(|p| p.mass as f64).sum();
    let mean = total / ncell as f64;
    if mean > 0.0 {
        for v in &mut rho {
            *v = *v / mean - 1.0;
        }
    }
    Grid3::from_vec([ng, ng, ng], rho)
}

/// Particles per block in the two-phase SoA deposit. Sized so the per-block
/// scratch (seven 8-byte lanes) stays within a fraction of L1.
const CIC_BLOCK: usize = 64;

/// Cache-blocked cloud-in-cell deposit over the SoA layout. Byte-identical
/// to [`cic_deposit`] on the converted particle set.
///
/// The kernel is restructured, not renumbered: each chunk walks its
/// particles in blocks of `CIC_BLOCK` (64). Phase one sweeps the packed
/// position/mass columns in three vectorizable passes: (a) the pure
/// `pos / box · ng` arithmetic over fixed-size column windows, (b) a
/// block-level range check that only falls back to the scalar `rem_euclid`
/// wrap when some lane is out of `[0, ng)` (bit-identical either way — see
/// `wrap_grid`), and (c) truncation to cell indices plus fractional
/// offsets. Indices truncate through `i32` (`u as i32` equals `u as usize`
/// for every wrapped value including NaN→0, and ng is asserted to fit), so
/// the cast vectorizes on plain SSE2 where a 64-bit cast would not. Phase
/// two scatters the eight corner contributions per particle with
/// straight-line adds in the same `(dx, dy, dz)` order and the same
/// `((m·wx)·wy)·wz` association as the AoS kernel, replacing the 24 integer
/// modulos per particle with three compare-and-wrap increments. Chunk
/// partials are merged in chunk order exactly as in [`cic_deposit`], so the
/// result is bit-equal across layouts and backends — the layout conformance
/// suite enforces this over the adversarial corpus.
pub fn cic_deposit_soa(
    backend: &dyn Backend,
    particles: &ParticleSoA,
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    let ncell = ng * ng * ng;
    assert!(ng <= i32::MAX as usize, "mesh size must fit i32 indices");
    let (px, py, pz) = (particles.pos_x(), particles.pos_y(), particles.pos_z());
    let masses = particles.mass();
    let partials: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    let grain = (particles.len() / backend.concurrency().max(1)).max(4096);
    backend.dispatch(particles.len(), grain, &|r| {
        let start = r.start;
        let mut local = vec![0.0f64; ncell];
        deposit_chunk_soa(px, py, pz, masses, r, ng, box_size, &mut local);
        partials.lock().push((start, local));
    });
    merge_and_normalize(partials.into_inner(), masses, ng)
}

/// Deposit particles `[r.start, r.end)` of the SoA columns into `local`
/// (length `ng³`, zero-initialized by the caller). This is the exact chunk
/// body of [`cic_deposit_soa`], factored out so the fixed-chunk deterministic
/// variant ([`cic_deposit_soa_det`]) runs byte-for-byte the same per-chunk
/// arithmetic.
#[allow(clippy::too_many_arguments)]
fn deposit_chunk_soa(
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    masses: &[f32],
    r: std::ops::Range<usize>,
    ng: usize,
    box_size: f64,
    local: &mut [f64],
) {
    {
        let ngf = ng as f64;
        // Per-block scratch lanes (stack-resident).
        let mut ux = [0.0f64; CIC_BLOCK];
        let mut uy = [0.0f64; CIC_BLOCK];
        let mut uz = [0.0f64; CIC_BLOCK];
        let mut ix = [0i32; CIC_BLOCK];
        let mut iy = [0i32; CIC_BLOCK];
        let mut iz = [0i32; CIC_BLOCK];
        let mut fx = [0.0f64; CIC_BLOCK];
        let mut fy = [0.0f64; CIC_BLOCK];
        let mut fz = [0.0f64; CIC_BLOCK];
        let mut mm = [0.0f64; CIC_BLOCK];
        let mut base = r.start;
        while base + CIC_BLOCK <= r.end {
            let pxw: &[f32; CIC_BLOCK] = px[base..base + CIC_BLOCK].try_into().unwrap();
            let pyw: &[f32; CIC_BLOCK] = py[base..base + CIC_BLOCK].try_into().unwrap();
            let pzw: &[f32; CIC_BLOCK] = pz[base..base + CIC_BLOCK].try_into().unwrap();
            let mw: &[f32; CIC_BLOCK] = masses[base..base + CIC_BLOCK].try_into().unwrap();
            // Phase 1a: scale to grid units (convert/divide/multiply lanes).
            for k in 0..CIC_BLOCK {
                ux[k] = pxw[k] as f64 / box_size * ngf;
                uy[k] = pyw[k] as f64 / box_size * ngf;
                uz[k] = pzw[k] as f64 / box_size * ngf;
                mm[k] = mw[k] as f64;
            }
            // Phase 1b: the periodic wrap. In-range lanes pass through
            // unchanged (exactly what `rem_euclid` would return), so the
            // whole block is checked with vector compares and the `fmod`
            // fix-up only runs for out-of-box or non-finite positions.
            let mut in_range = true;
            for k in 0..CIC_BLOCK {
                in_range &= (ux[k] >= 0.0)
                    & (ux[k] < ngf)
                    & (uy[k] >= 0.0)
                    & (uy[k] < ngf)
                    & (uz[k] >= 0.0)
                    & (uz[k] < ngf);
            }
            if !in_range {
                for k in 0..CIC_BLOCK {
                    ux[k] = wrap_grid(ux[k], ngf);
                    uy[k] = wrap_grid(uy[k], ngf);
                    uz[k] = wrap_grid(uz[k], ngf);
                }
            }
            // Phase 1c: cell indices and fractional offsets. Every lane is
            // now in `[0, ng)` or NaN (→ 0 under Rust's saturating cast), so
            // the AoS kernel's `% ng` after the cast is the identity.
            for k in 0..CIC_BLOCK {
                ix[k] = ux[k] as i32;
                iy[k] = uy[k] as i32;
                iz[k] = uz[k] as i32;
                fx[k] = ux[k] - ix[k] as f64;
                fy[k] = uy[k] - iy[k] as f64;
                fz[k] = uz[k] - iz[k] as f64;
            }
            // Phase 2: scatter eight corners per particle. Same visit order
            // and product association as the AoS kernel; the `% ng` wraps
            // become compare-and-reset since the base cell is already < ng.
            for k in 0..CIC_BLOCK {
                let (x0, y0, z0) = (ix[k] as usize, iy[k] as usize, iz[k] as usize);
                let x1 = if x0 + 1 == ng { 0 } else { x0 + 1 };
                let y1 = if y0 + 1 == ng { 0 } else { y0 + 1 };
                let z1 = if z0 + 1 == ng { 0 } else { z0 + 1 };
                let (dx, dy, dz) = (fx[k], fy[k], fz[k]);
                let m = mm[k];
                let mwx0 = m * (1.0 - dx);
                let mwx1 = m * dx;
                let a00 = mwx0 * (1.0 - dy);
                let a01 = mwx0 * dy;
                let a10 = mwx1 * (1.0 - dy);
                let a11 = mwx1 * dy;
                let (wz0, wz1) = (1.0 - dz, dz);
                let b00 = (x0 * ng + y0) * ng;
                let b01 = (x0 * ng + y1) * ng;
                let b10 = (x1 * ng + y0) * ng;
                let b11 = (x1 * ng + y1) * ng;
                local[b00 + z0] += a00 * wz0;
                local[b00 + z1] += a00 * wz1;
                local[b01 + z0] += a01 * wz0;
                local[b01 + z1] += a01 * wz1;
                local[b10 + z0] += a10 * wz0;
                local[b10 + z1] += a10 * wz1;
                local[b11 + z0] += a11 * wz0;
                local[b11 + z1] += a11 * wz1;
            }
            base += CIC_BLOCK;
        }
        // Tail (< CIC_BLOCK particles): same math per particle, scalar.
        for j in base..r.end {
            let u0 = wrap_grid(px[j] as f64 / box_size * ngf, ngf);
            let u1 = wrap_grid(py[j] as f64 / box_size * ngf, ngf);
            let u2 = wrap_grid(pz[j] as f64 / box_size * ngf, ngf);
            let (x0, y0, z0) = (u0 as usize, u1 as usize, u2 as usize);
            let x1 = if x0 + 1 == ng { 0 } else { x0 + 1 };
            let y1 = if y0 + 1 == ng { 0 } else { y0 + 1 };
            let z1 = if z0 + 1 == ng { 0 } else { z0 + 1 };
            let (dx, dy, dz) = (u0 - x0 as f64, u1 - y0 as f64, u2 - z0 as f64);
            let m = masses[j] as f64;
            let mwx0 = m * (1.0 - dx);
            let mwx1 = m * dx;
            let a00 = mwx0 * (1.0 - dy);
            let a01 = mwx0 * dy;
            let a10 = mwx1 * (1.0 - dy);
            let a11 = mwx1 * dy;
            let (wz0, wz1) = (1.0 - dz, dz);
            let b00 = (x0 * ng + y0) * ng;
            let b01 = (x0 * ng + y1) * ng;
            let b10 = (x1 * ng + y0) * ng;
            let b11 = (x1 * ng + y1) * ng;
            local[b00 + z0] += a00 * wz0;
            local[b00 + z1] += a00 * wz1;
            local[b01 + z0] += a01 * wz0;
            local[b01 + z1] += a01 * wz1;
            local[b10 + z0] += a10 * wz0;
            local[b10 + z1] += a10 * wz1;
            local[b11 + z0] += a11 * wz0;
            local[b11 + z1] += a11 * wz1;
        }
    }
}

/// Merge per-chunk partial grids in ascending chunk-start order, then convert
/// mass density to overdensity `δ = ρ/ρ̄ − 1` (identity when total mass is
/// zero). Shared tail of every deposit variant.
fn merge_and_normalize(
    mut partials: Vec<(usize, Vec<f64>)>,
    masses: &[f32],
    ng: usize,
) -> Grid3<f64> {
    let ncell = ng * ng * ng;
    partials.sort_by_key(|(s, _)| *s);
    let mut rho = vec![0.0f64; ncell];
    for (_, local) in partials {
        for (gv, lv) in rho.iter_mut().zip(&local) {
            *gv += lv;
        }
    }
    let total: f64 = masses.iter().map(|&m| m as f64).sum();
    let mean = total / ncell as f64;
    if mean > 0.0 {
        for v in &mut rho {
            *v = *v / mean - 1.0;
        }
    }
    Grid3::from_vec([ng, ng, ng], rho)
}

/// Backend-independent deterministic variant of [`cic_deposit_soa`].
///
/// [`cic_deposit_soa`] sizes its chunks from `backend.concurrency()` (and
/// `StaticThreaded::dispatch` ignores the grain entirely, pre-partitioning one
/// block per worker), so the float-addition association of the chunk merge —
/// and hence the low bits of the result — can differ between backends once an
/// input spans multiple chunks. This variant partitions the particle range
/// itself into fixed `grain`-sized chunks and dispatches over *chunk indices*,
/// so the chunk set, each chunk's sequential arithmetic, and the sorted merge
/// order are functions of `(n, grain)` only: every backend produces the same
/// grid down to the last bit. The render pipeline deposits through this entry
/// point so projected images byte-agree across Serial/Threaded/StaticThreaded
/// (the `conformance::render` battery enforces it over the adversarial
/// corpus).
///
/// The chunk count is additionally capped at 64 (`grain` is raised to
/// `n/64` when needed) so partial-grid memory stays bounded on large inputs;
/// the cap depends only on `n`, never on the backend.
pub fn cic_deposit_soa_det(
    backend: &dyn Backend,
    particles: &ParticleSoA,
    ng: usize,
    box_size: f64,
    grain: usize,
) -> Grid3<f64> {
    let ncell = ng * ng * ng;
    assert!(ng <= i32::MAX as usize, "mesh size must fit i32 indices");
    let n = particles.len();
    let (px, py, pz) = (particles.pos_x(), particles.pos_y(), particles.pos_z());
    let masses = particles.mass();
    let grain = grain.max(1).max(n / 64);
    let nchunks = n.div_ceil(grain);
    let partials: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    backend.dispatch(nchunks, 1, &|chunks| {
        for c in chunks {
            let lo = c * grain;
            let hi = ((c + 1) * grain).min(n);
            let mut local = vec![0.0f64; ncell];
            deposit_chunk_soa(px, py, pz, masses, lo..hi, ng, box_size, &mut local);
            partials.lock().push((lo, local));
        }
    });
    merge_and_normalize(partials.into_inner(), masses, ng)
}

/// Solve `∇²φ = (3 Ω/2a) δ` on the periodic mesh and return the acceleration
/// components `g = −∇φ` as three real grids (grid units).
///
/// `prefactor` is `(3 Ω/2a)`; the Poisson kernel uses the continuum `k²` in
/// grid angular frequencies.
pub fn poisson_accel(backend: &dyn Backend, delta: &Grid3<f64>, prefactor: f64) -> [Grid3<f64>; 3] {
    let dims = delta.dims();
    let ng = dims[0];
    assert!(dims[1] == ng && dims[2] == ng, "mesh must be cubic");
    let plan = Fft3d::new(dims).expect("mesh dims must be powers of two");

    // Forward transform of δ.
    let mut dk = Grid3::from_vec(
        dims,
        delta
            .as_slice()
            .iter()
            .map(|&r| Complex::from_real(r))
            .collect(),
    );
    plan.forward(backend, &mut dk).expect("forward FFT");

    let two_pi = 2.0 * std::f64::consts::PI;
    let mut out: Vec<Grid3<f64>> = Vec::with_capacity(3);
    for axis in 0..3 {
        let mut gk = Grid3::filled(dims, Complex::ZERO);
        for x in 0..ng {
            let kx = two_pi * freq_index(x, ng) as f64 / ng as f64;
            for y in 0..ng {
                let ky = two_pi * freq_index(y, ng) as f64 / ng as f64;
                for z in 0..ng {
                    let kz = two_pi * freq_index(z, ng) as f64 / ng as f64;
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 == 0.0 {
                        continue;
                    }
                    let kd = [kx, ky, kz][axis];
                    // φ_k = −prefactor δ_k / k²; g_k = −i k_d φ_k
                    //     = i k_d prefactor δ_k / k².
                    let phi_factor = prefactor / k2;
                    let d = *dk.get(x, y, z);
                    *gk.get_mut(x, y, z) = Complex::new(-d.im, d.re).scale(kd * phi_factor);
                }
            }
        }
        plan.inverse(backend, &mut gk).expect("inverse FFT");
        out.push(Grid3::from_vec(
            dims,
            gk.as_slice().iter().map(|z| z.re).collect(),
        ));
    }
    let mut it = out.into_iter();
    [it.next().unwrap(), it.next().unwrap(), it.next().unwrap()]
}

/// Trilinear (CIC) interpolation of a mesh field at a position given in box
/// units.
#[inline]
pub fn cic_interpolate(field: &Grid3<f64>, pos: [f32; 3], box_size: f64) -> f64 {
    let ng = field.dims()[0];
    let u = [
        to_grid_units(pos[0], box_size, ng),
        to_grid_units(pos[1], box_size, ng),
        to_grid_units(pos[2], box_size, ng),
    ];
    let i = [u[0] as usize % ng, u[1] as usize % ng, u[2] as usize % ng];
    let d = [u[0] - i[0] as f64, u[1] - i[1] as f64, u[2] - i[2] as f64];
    let mut acc = 0.0;
    for (dx, wx) in [(0usize, 1.0 - d[0]), (1, d[0])] {
        for (dy, wy) in [(0usize, 1.0 - d[1]), (1, d[1])] {
            for (dz, wz) in [(0usize, 1.0 - d[2]), (1, d[2])] {
                let x = (i[0] + dx) % ng;
                let y = (i[1] + dy) % ng;
                let z = (i[2] + dz) % ng;
                acc += field.get(x, y, z) * wx * wy * wz;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::{Serial, Threaded};

    fn one_particle_at(pos: [f32; 3]) -> Vec<Particle> {
        vec![Particle::at_rest(pos, 1.0, 0)]
    }

    #[test]
    fn deposit_conserves_mass() {
        let t = Threaded::new(4);
        let box_size = 16.0;
        let parts: Vec<Particle> = (0..1000)
            .map(|i| {
                let f = i as f32 * 0.618;
                Particle::at_rest(
                    [(f * 3.1) % 16.0, (f * 7.7) % 16.0, (f * 1.3) % 16.0],
                    1.0,
                    i,
                )
            })
            .collect();
        let delta = cic_deposit(&t, &parts, 8, box_size);
        // δ sums to zero when mass is conserved (Σρ = N·mass, mean removed).
        let sum: f64 = delta.as_slice().iter().sum();
        assert!(sum.abs() < 1e-9, "Σδ = {sum}");
    }

    #[test]
    fn deposit_particle_at_cell_center_hits_one_cell() {
        // Grid unit = 2.0 box units; particle at cell (1,1,1) corner exactly.
        let delta = cic_deposit(&Serial, &one_particle_at([2.0, 2.0, 2.0]), 4, 8.0);
        // All mass lands in cell (1,1,1): δ there is max.
        let mut max_idx = (0, 0, 0);
        let mut max = f64::MIN;
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    if *delta.get(x, y, z) > max {
                        max = *delta.get(x, y, z);
                        max_idx = (x, y, z);
                    }
                }
            }
        }
        assert_eq!(max_idx, (1, 1, 1));
    }

    #[test]
    fn deposit_splits_mass_between_cells() {
        // Particle halfway between cells 0 and 1 in x.
        let delta = cic_deposit(&Serial, &one_particle_at([1.0, 0.0, 0.0]), 4, 8.0);
        // grid unit = pos/2 → u = (0.5, 0, 0): half mass each to x=0 and x=1.
        let v0 = *delta.get(0, 0, 0);
        let v1 = *delta.get(1, 0, 0);
        assert!((v0 - v1).abs() < 1e-12, "{v0} vs {v1}");
    }

    #[test]
    fn backends_agree_on_deposit() {
        let t = Threaded::new(4);
        let parts: Vec<Particle> = (0..5000)
            .map(|i| {
                let f = i as f32;
                Particle::at_rest(
                    [(f * 0.37) % 32.0, (f * 0.71) % 32.0, (f * 0.13) % 32.0],
                    1.0,
                    i,
                )
            })
            .collect();
        let a = cic_deposit(&Serial, &parts, 16, 32.0);
        let b = cic_deposit(&t, &parts, 16, 32.0);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn soa_deposit_is_byte_identical_to_aos() {
        let t = Threaded::new(4);
        let parts: Vec<Particle> = (0..5000)
            .map(|i| {
                let f = i as f32;
                Particle::at_rest(
                    [(f * 0.37) % 32.0, (f * 0.71) % 32.0, (f * 0.13) % 32.0],
                    1.0 + (i % 7) as f32 * 0.25,
                    i,
                )
            })
            .collect();
        let soa = ParticleSoA::from_aos(&parts);
        for backend in [&Serial as &dyn Backend, &t] {
            let a = cic_deposit(backend, &parts, 16, 32.0);
            let b = cic_deposit_soa(backend, &soa, 16, 32.0);
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn soa_deposit_handles_non_finite_positions_identically() {
        // NaN (both sign bits), infinities, and signed zeros must flow
        // through the SoA fast path exactly as through the AoS kernel.
        let parts = vec![
            Particle::at_rest([f32::NAN, 1.0, 2.0], 1.0, 0),
            Particle::at_rest([-f32::NAN, -0.0, 0.0], 1.0, 1),
            Particle::at_rest([f32::INFINITY, 3.0, 1.0], 1.0, 2),
            Particle::at_rest([f32::NEG_INFINITY, 0.5, 7.9], 1.0, 3),
            Particle::at_rest([1.25, 2.5, 3.75], 2.0, 4),
        ];
        let soa = ParticleSoA::from_aos(&parts);
        let a = cic_deposit(&Serial, &parts, 4, 8.0);
        let b = cic_deposit_soa(&Serial, &soa, 4, 8.0);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn det_deposit_matches_serial_soa_single_chunk() {
        // With one chunk the det variant is literally the same computation as
        // the dynamic-grain deposit on Serial.
        let parts: Vec<Particle> = (0..1000)
            .map(|i| {
                let f = i as f32;
                Particle::at_rest(
                    [(f * 0.37) % 32.0, (f * 0.71) % 32.0, (f * 0.13) % 32.0],
                    1.0 + (i % 5) as f32 * 0.5,
                    i,
                )
            })
            .collect();
        let soa = ParticleSoA::from_aos(&parts);
        let a = cic_deposit_soa(&Serial, &soa, 16, 32.0);
        let b = cic_deposit_soa_det(&Serial, &soa, 16, 32.0, 4096);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn det_deposit_is_byte_identical_across_backends_multi_chunk() {
        use crate::soa::ParticleSoA;
        use dpp::StaticThreaded;
        // 4097 particles with grain 512 → 9 chunks: the case where dynamic
        // chunking diverges between backends. The det variant must not.
        let parts: Vec<Particle> = (0..4097)
            .map(|i| {
                let f = i as f32;
                Particle::at_rest(
                    [(f * 0.619) % 32.0, (f * 0.283) % 32.0, (f * 0.997) % 32.0],
                    0.5 + (i % 11) as f32 * 0.125,
                    i,
                )
            })
            .collect();
        let soa = ParticleSoA::from_aos(&parts);
        let reference = cic_deposit_soa_det(&Serial, &soa, 16, 32.0, 512);
        for backend in [
            &Threaded::new(4) as &dyn Backend,
            &Threaded::new(1),
            &StaticThreaded::new(3),
        ] {
            let got = cic_deposit_soa_det(backend, &soa, 16, 32.0, 512);
            for (x, y) in reference.as_slice().iter().zip(got.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "det deposit differs on {}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn det_deposit_empty_input_is_zero_grid() {
        let soa = ParticleSoA::new();
        let g = cic_deposit_soa_det(&Serial, &soa, 4, 8.0, 4096);
        assert!(g.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn point_mass_accel_points_toward_mass() {
        // A single overdense point at the center: acceleration at a probe
        // point to its +x side must point in −x (toward the mass).
        let ng = 16;
        let mut delta = Grid3::filled([ng, ng, ng], 0.0);
        *delta.get_mut(8, 8, 8) = 100.0;
        let g = poisson_accel(&Serial, &delta, 1.5);
        let box_size = ng as f64;
        let probe = [11.0f32, 8.0, 8.0];
        let gx = cic_interpolate(&g[0], probe, box_size);
        let gy = cic_interpolate(&g[1], probe, box_size);
        assert!(gx < 0.0, "gx = {gx} should point toward the mass");
        assert!(gy.abs() < gx.abs() * 0.2, "gy = {gy} should be ~0 on axis");
        // Mirror probe on the other side.
        let gx2 = cic_interpolate(&g[0], [5.0, 8.0, 8.0], box_size);
        assert!(gx2 > 0.0);
    }

    #[test]
    fn accel_falls_off_with_distance() {
        let ng = 32;
        let mut delta = Grid3::filled([ng, ng, ng], 0.0);
        *delta.get_mut(16, 16, 16) = 1000.0;
        let g = poisson_accel(&Serial, &delta, 1.0);
        let l = ng as f64;
        let near = cic_interpolate(&g[0], [19.0, 16.0, 16.0], l).abs();
        let far = cic_interpolate(&g[0], [26.0, 16.0, 16.0], l).abs();
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn uniform_density_gives_zero_force() {
        let delta = Grid3::filled([8, 8, 8], 0.0);
        let g = poisson_accel(&Serial, &delta, 1.5);
        for axis in &g {
            for v in axis.as_slice() {
                assert!(v.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn interpolation_at_grid_point_returns_grid_value() {
        let mut f = Grid3::filled([4, 4, 4], 0.0);
        *f.get_mut(2, 1, 3) = 7.0;
        // box_size = 4 → grid units == box units.
        let v = cic_interpolate(&f, [2.0, 1.0, 3.0], 4.0);
        assert!((v - 7.0).abs() < 1e-12);
    }
}
