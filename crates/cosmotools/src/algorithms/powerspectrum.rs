//! In-situ density-fluctuation power spectrum (paper §1): CIC density
//! estimation on a uniform grid followed by large FFTs — the canonical
//! *well load-balanced* in-situ task.

use crate::config::{Config, ConfigError};
use crate::insitu::{AnalysisContext, InSituAlgorithm, Product};
use dpp::Backend;
use fft::{freq_index, Complex, Fft3d, Grid3};
use nbody::particle::Particle;
use nbody::pm::cic_deposit_soa;
use nbody::ParticleSoA;

/// One spectrum bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBin {
    /// Bin-average wavenumber (h/Mpc).
    pub k: f64,
    /// Power (arbitrary but consistent normalization: `V·|δ_k|²/N_cells²`).
    pub power: f64,
    /// Modes in the bin.
    pub modes: u64,
}

/// Measure the matter power spectrum of a particle set.
pub fn compute_power_spectrum(
    backend: &dyn Backend,
    particles: &[Particle],
    ng: usize,
    box_size: f64,
    nbins: usize,
) -> Vec<PowerBin> {
    assert!(ng.is_power_of_two(), "mesh must be a power of two");
    assert!(nbins > 0);
    // Convert once to the column layout; the SoA deposit is byte-identical
    // to `cic_deposit`. The conversion costs about what the deposit saves
    // (a wash at 32³, slower at 64³), so this pays only once the simulation
    // state itself is SoA.
    let soa = ParticleSoA::from_aos(particles);
    let delta = cic_deposit_soa(backend, &soa, ng, box_size);
    power_spectrum_of_field(backend, &delta, box_size, nbins)
}

/// Measure the power spectrum of an existing overdensity field.
pub fn power_spectrum_of_field(
    backend: &dyn Backend,
    delta: &Grid3<f64>,
    box_size: f64,
    nbins: usize,
) -> Vec<PowerBin> {
    let dims = delta.dims();
    let ng = dims[0];
    let plan = Fft3d::new(dims).expect("power-of-two mesh");
    let mut dk = Grid3::from_vec(
        dims,
        delta
            .as_slice()
            .iter()
            .map(|&v| Complex::from_real(v))
            .collect(),
    );
    plan.forward(backend, &mut dk).expect("fft");

    let kfund = 2.0 * std::f64::consts::PI / box_size;
    let knyq = kfund * (ng as f64) / 2.0;
    let ncells = (ng * ng * ng) as f64;
    let volume = box_size.powi(3);
    // Log-spaced bins from k_fund to k_nyquist.
    let lmin = kfund.ln();
    let lmax = knyq.ln();
    let mut k_sum = vec![0.0f64; nbins];
    let mut p_sum = vec![0.0f64; nbins];
    let mut count = vec![0u64; nbins];
    for x in 0..ng {
        for y in 0..ng {
            for z in 0..ng {
                if (x, y, z) == (0, 0, 0) {
                    continue;
                }
                let kx = kfund * freq_index(x, ng) as f64;
                let ky = kfund * freq_index(y, ng) as f64;
                let kz = kfund * freq_index(z, ng) as f64;
                let k = (kx * kx + ky * ky + kz * kz).sqrt();
                if k > knyq {
                    continue;
                }
                let b = (((k.ln() - lmin) / (lmax - lmin) * nbins as f64) as usize).min(nbins - 1);
                let amp2 = dk.get(x, y, z).norm_sqr() / (ncells * ncells);
                k_sum[b] += k;
                p_sum[b] += amp2 * volume;
                count[b] += 1;
            }
        }
    }
    (0..nbins)
        .filter(|&b| count[b] > 0)
        .map(|b| PowerBin {
            k: k_sum[b] / count[b] as f64,
            power: p_sum[b] / count[b] as f64,
            modes: count[b],
        })
        .collect()
}

/// Distributed (rank-parallel) power spectrum: slab CIC deposit, slab FFT,
/// local binning of each rank's y-slab of the spectrum, and an allreduce of
/// the bin sums — the form the in-situ task takes inside the distributed
/// main loop ("density estimation on a regular grid via CIC and very large
/// FFTs", §1). Every rank returns the same full spectrum.
pub fn distributed_power_spectrum(
    comm: &comm::Communicator,
    locals: &[Particle],
    ng: usize,
    box_size: f64,
    nbins: usize,
) -> Vec<PowerBin> {
    assert!(ng.is_power_of_two() && nbins > 0);
    let delta = nbody::distributed::slab_deposit(comm, locals, ng, box_size);
    let plan = fft::SlabFft::new(ng, comm.size()).expect("validated");
    let s = ng / comm.size();
    let dk = plan
        .forward(
            comm,
            Grid3::from_vec(
                [s, ng, ng],
                delta
                    .as_slice()
                    .iter()
                    .map(|&v| Complex::from_real(v))
                    .collect(),
            ),
        )
        .expect("planned dims");

    let kfund = 2.0 * std::f64::consts::PI / box_size;
    let knyq = kfund * (ng as f64) / 2.0;
    let ncells = (ng * ng * ng) as f64;
    let volume = box_size.powi(3);
    let (lmin, lmax) = (kfund.ln(), knyq.ln());
    let mut k_sum = vec![0.0f64; nbins];
    let mut p_sum = vec![0.0f64; nbins];
    let mut count = vec![0.0f64; nbins];
    for yl in 0..s {
        for x in 0..ng {
            for z in 0..ng {
                let (fx, fy, fz) = plan.freqs_b(comm.rank(), yl, x, z);
                if (fx, fy, fz) == (0, 0, 0) {
                    continue;
                }
                let kx = kfund * fx as f64;
                let ky = kfund * fy as f64;
                let kz = kfund * fz as f64;
                let k = (kx * kx + ky * ky + kz * kz).sqrt();
                if k > knyq {
                    continue;
                }
                let b = (((k.ln() - lmin) / (lmax - lmin) * nbins as f64) as usize).min(nbins - 1);
                k_sum[b] += k;
                p_sum[b] += dk.get(yl, x, z).norm_sqr() / (ncells * ncells) * volume;
                count[b] += 1.0;
            }
        }
    }
    // Global bin reduction.
    let k_sum = comm.allreduce_sum_vec_f64(k_sum);
    let p_sum = comm.allreduce_sum_vec_f64(p_sum);
    let count = comm.allreduce_sum_vec_f64(count);
    (0..nbins)
        .filter(|&b| count[b] > 0.0)
        .map(|b| PowerBin {
            k: k_sum[b] / count[b],
            power: p_sum[b] / count[b],
            modes: count[b] as u64,
        })
        .collect()
}

/// The in-situ power-spectrum task: cheap, well balanced, runs every few
/// steps throughout the run.
pub struct PowerSpectrumTask {
    enabled: bool,
    every: usize,
    bins: usize,
    ng: usize,
}

impl Default for PowerSpectrumTask {
    fn default() -> Self {
        PowerSpectrumTask {
            enabled: true,
            every: 10,
            bins: 32,
            ng: 0, // 0 = infer from particle count
        }
    }
}

impl PowerSpectrumTask {
    /// New task with defaults (configure via `set_parameters`).
    pub fn new() -> Self {
        Self::default()
    }
}

impl InSituAlgorithm for PowerSpectrumTask {
    fn name(&self) -> &str {
        "powerspectrum"
    }

    fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError> {
        if !config.has_section(self.name()) {
            return Ok(());
        }
        self.enabled = config.get_bool(self.name(), "enabled").unwrap_or(true);
        if let Ok(e) = config.get_usize(self.name(), "every") {
            self.every = e.max(1);
        }
        if let Ok(b) = config.get_usize(self.name(), "bins") {
            self.bins = b.max(1);
        }
        if let Ok(ng) = config.get_usize(self.name(), "mesh") {
            self.ng = ng;
        }
        Ok(())
    }

    fn should_execute(&self, step: usize, total_steps: usize, _z: f64) -> bool {
        self.enabled && (step.is_multiple_of(self.every) || step == total_steps)
    }

    fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
        let ng = if self.ng > 0 {
            self.ng
        } else {
            // Mesh matched to the particle lattice.
            (ctx.particles.len() as f64).cbrt().round() as usize
        };
        let ng = ng.max(8).next_power_of_two();
        let spec = compute_power_spectrum(ctx.backend, ctx.particles, ng, ctx.box_size, self.bins);
        vec![Product::PowerSpectrum {
            step: ctx.step,
            bins: spec.iter().map(|b| (b.k, b.power)).collect(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Serial;

    #[test]
    fn uniform_lattice_has_negligible_power() {
        // Particles exactly on the mesh: δ = 0 everywhere → zero power.
        let mut parts = Vec::new();
        let n = 8;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    parts.push(Particle::at_rest(
                        [x as f32, y as f32, z as f32],
                        1.0,
                        (x * 64 + y * 8 + z) as u64,
                    ));
                }
            }
        }
        let spec = compute_power_spectrum(&Serial, &parts, 8, 8.0, 8);
        for b in &spec {
            assert!(b.power.abs() < 1e-20, "bin {b:?}");
        }
    }

    #[test]
    fn plane_wave_peaks_at_its_wavenumber() {
        // Density modulation at mode m=2 along x.
        let ng = 16;
        let l = 32.0f64;
        let mut delta = Grid3::filled([ng, ng, ng], 0.0);
        for x in 0..ng {
            let v = (2.0 * std::f64::consts::PI * 2.0 * x as f64 / ng as f64).cos();
            for y in 0..ng {
                for z in 0..ng {
                    *delta.get_mut(x, y, z) = v;
                }
            }
        }
        let spec = power_spectrum_of_field(&Serial, &delta, l, 16);
        let k_expect = 2.0 * std::f64::consts::PI / l * 2.0;
        let peak = spec
            .iter()
            .max_by(|a, b| a.power.partial_cmp(&b.power).unwrap())
            .unwrap();
        assert!(
            (peak.k / k_expect - 1.0).abs() < 0.3,
            "peak at k={}, expected ~{k_expect}",
            peak.k
        );
    }

    #[test]
    fn zeldovich_ics_follow_input_spectrum_shape() {
        use nbody::{realize_linear_field, Cosmology, IcConfig};
        let cosmo = Cosmology {
            box_size: 64.0,
            ..Cosmology::default()
        };
        let cfg = IcConfig {
            np: 32,
            seed: 11,
            z_init: 50.0,
        };
        let field = realize_linear_field(&Serial, &cosmo, &cfg);
        let spec = power_spectrum_of_field(&Serial, &field.delta, cosmo.box_size, 12);
        // Compare measured P(k) with the theory shape: the *ratio* should be
        // roughly k-independent (one overall normalization).
        let ratios: Vec<f64> = spec
            .iter()
            .filter(|b| b.modes > 20)
            .map(|b| b.power / cosmo.power_unnormalized(b.k))
            .collect();
        assert!(ratios.len() >= 5);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        for r in &ratios {
            assert!(
                (r / mean - 1.0).abs() < 0.6,
                "ratio {r} deviates from mean {mean}: realization scatter should be the only source"
            );
        }
    }

    #[test]
    fn distributed_spectrum_matches_single_image() {
        use comm::World;
        // A deterministic clustered particle set.
        let parts: Vec<Particle> = (0..4096)
            .map(|i| {
                let h = |mut x: u64| {
                    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
                    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    (x >> 11) as f64 / (1u64 << 53) as f64
                };
                let s = i as u64 * 3 + 1;
                // Mix of clustered and uniform particles for structure.
                let cluster = i % 3 == 0;
                let (cx, w) = if cluster { (8.0, 4.0) } else { (16.0, 32.0) };
                Particle::at_rest(
                    [
                        ((cx + (h(s) - 0.5) * w).rem_euclid(32.0)) as f32,
                        ((cx + (h(s * 7) - 0.5) * w).rem_euclid(32.0)) as f32,
                        ((cx + (h(s * 13) - 0.5) * w).rem_euclid(32.0)) as f32,
                    ],
                    1.0,
                    i as u64,
                )
            })
            .collect();
        let reference = compute_power_spectrum(&Serial, &parts, 16, 32.0, 10);
        for nranks in [1usize, 2, 4] {
            let world = World::new(nranks);
            let spectra = world.run(|c| {
                let slab = 32.0 / c.size() as f64;
                let locals: Vec<Particle> = parts
                    .iter()
                    .filter(|p| {
                        let r = ((p.pos[0] as f64 / slab) as usize).min(c.size() - 1);
                        r == c.rank()
                    })
                    .copied()
                    .collect();
                distributed_power_spectrum(c, &locals, 16, 32.0, 10)
            });
            for spec in &spectra {
                assert_eq!(spec.len(), reference.len(), "nranks={nranks}");
                for (a, b) in spec.iter().zip(&reference) {
                    assert!((a.k - b.k).abs() < 1e-9, "nranks={nranks}");
                    assert!(
                        (a.power - b.power).abs() < 1e-9 * b.power.abs().max(1e-12),
                        "nranks={nranks}: {} vs {}",
                        a.power,
                        b.power
                    );
                    assert_eq!(a.modes, b.modes);
                }
            }
        }
    }

    #[test]
    fn task_respects_schedule_and_final_step() {
        let task = PowerSpectrumTask::default();
        assert!(task.should_execute(10, 60, 1.0));
        assert!(!task.should_execute(11, 60, 1.0));
        assert!(task.should_execute(60, 60, 0.0));
        assert!(
            task.should_execute(57, 57, 0.0),
            "always runs at the final step"
        );
    }

    #[test]
    fn task_emits_product() {
        let mut task = PowerSpectrumTask::default();
        let cfg = Config::parse("[powerspectrum]\nbins = 8\nmesh = 16\n").unwrap();
        task.set_parameters(&cfg).unwrap();
        let parts: Vec<Particle> = (0..512)
            .map(|i| {
                let t = i as f32;
                Particle::at_rest(
                    [(t * 0.37) % 32.0, (t * 0.73) % 32.0, (t * 0.13) % 32.0],
                    1.0,
                    i as u64,
                )
            })
            .collect();
        let ctx = AnalysisContext {
            step: 10,
            total_steps: 60,
            redshift: 1.0,
            particles: &parts,
            box_size: 32.0,
            backend: &Serial,
            catalog: None,
        };
        let prods = task.execute(&ctx);
        assert_eq!(prods.len(), 1);
        match &prods[0] {
            Product::PowerSpectrum { step, bins } => {
                assert_eq!(*step, 10);
                assert!(!bins.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_task_never_runs() {
        let mut task = PowerSpectrumTask::default();
        let cfg = Config::parse("[powerspectrum]\nenabled = false\n").unwrap();
        task.set_parameters(&cfg).unwrap();
        assert!(!task.should_execute(10, 60, 1.0));
        assert!(!task.should_execute(60, 60, 0.0));
    }
}
