//! Rank-parallel FOF halo finding over a Cartesian decomposition with
//! overload regions (paper §3.3.1).
//!
//! Each rank runs the serial k-d tree finder on its local particles plus the
//! replicated overload shell. With the overload width at least the largest
//! halo extent, every halo is found *in its entirety* by each rank that owns
//! at least one of its particles; the halo is then *assigned* to exactly one
//! rank by a deterministic rule (the rank owning the halo's minimum-tag
//! particle), so the union over ranks is an exact, duplicate-free catalog.

use crate::catalog::{Halo, HaloCatalog};
use crate::columns::Coords;
use crate::fof::{fof_kdtree, members_by_group};
use comm::{exchange_overload, CartDecomp, Communicator};
use nbody::particle::Particle;

/// Parameters for the distributed FOF run.
#[derive(Debug, Clone)]
pub struct FofConfig {
    /// FOF linking length (same units as positions).
    pub link_length: f64,
    /// Discard halos with fewer members (the paper uses 40).
    pub min_size: usize,
    /// Overload shell width; must be ≥ the largest halo extent and ≤ the
    /// smallest block width.
    pub overload_width: f64,
}

/// Run distributed FOF. `locals` must be the particles owned by this rank
/// (their positions inside the rank's block). Returns the halos assigned to
/// this rank.
pub fn parallel_fof(
    comm: &Communicator,
    decomp: &CartDecomp,
    locals: &[Particle],
    cfg: &FofConfig,
) -> HaloCatalog {
    assert!(cfg.link_length > 0.0);
    assert!(
        cfg.overload_width >= cfg.link_length,
        "overload width must cover at least one linking length"
    );
    let nlocal = locals.len();
    let ghosts = exchange_overload(comm, decomp, cfg.overload_width, locals);

    // Combined particle set; ghost positions unwrapped to be contiguous with
    // this rank's block (a ghost from a periodic neighbor may sit across the
    // box seam).
    let (lo, hi) = decomp.local_bounds(comm.rank());
    let block_center = [
        (lo[0] + hi[0]) / 2.0,
        (lo[1] + hi[1]) / 2.0,
        (lo[2] + hi[2]) / 2.0,
    ];
    // Two parallel views of the extended particle set:
    //  * `positions` — f64, with unwrapping/image shifts applied exactly
    //    (±L in f64 is lossless), used for the linking decisions so the
    //    distributed result is bit-identical to a single-domain periodic run;
    //  * `all` — the Particle records with f32-rounded unwrapped positions,
    //    kept for the catalog (center finding tolerates the f32 rounding).
    let l = decomp.box_size();
    let mut all: Vec<Particle> = Vec::with_capacity(nlocal + ghosts.len());
    let mut positions: Vec<[f64; 3]> = Vec::with_capacity(nlocal + ghosts.len());
    all.extend_from_slice(locals);
    positions.extend(locals.iter().map(|p| p.pos_f64()));
    for g in ghosts {
        let mut q = g.pos_f64();
        for d in 0..3 {
            if q[d] - block_center[d] > l / 2.0 {
                q[d] -= l;
            } else if q[d] - block_center[d] < -l / 2.0 {
                q[d] += l;
            }
        }
        let mut p = g;
        p.pos = [q[0] as f32, q[1] as f32, q[2] as f32];
        all.push(p);
        positions.push(q);
    }

    // Axes with a single block have no neighbor to exchange with, but the
    // box is still periodic there: add self-image copies of particles within
    // one overload width of the seam, shifted by ±L. Images count as ghosts
    // (index ≥ nlocal), so ownership logic is unaffected.
    for d in 0..3 {
        if decomp.dims()[d] != 1 {
            continue;
        }
        let n_now = all.len();
        for i in 0..n_now {
            let x = positions[i][d];
            let shift = if x - lo[d] < cfg.overload_width {
                l
            } else if hi[d] - x <= cfg.overload_width {
                -l
            } else {
                continue;
            };
            let mut q = positions[i];
            q[d] = x + shift;
            let mut img = all[i];
            img.pos[d] = q[d] as f32;
            all.push(img);
            positions.push(q);
        }
    }

    // Serial FOF on the extended patch (non-periodic: the shell covers the
    // seams).
    let labels = fof_kdtree(&Coords::from_rows(&positions), cfg.link_length);
    let groups = members_by_group(&labels);

    let mut catalog = HaloCatalog::new();
    for members in groups {
        if members.len() < cfg.min_size {
            continue;
        }
        // Ownership: the halo's minimum tag must be present as one of this
        // rank's *local* particles (not a ghost or periodic image). Exactly
        // one rank satisfies this, so the union over ranks is duplicate-free.
        let min_tag = members
            .iter()
            .map(|&i| all[i as usize].tag)
            .min()
            .expect("non-empty group");
        let owned = members
            .iter()
            .any(|&i| (i as usize) < nlocal && all[i as usize].tag == min_tag);
        if owned {
            // Deduplicate by tag: a halo may contain both a particle and its
            // periodic image when images were added above.
            let mut parts: Vec<Particle> = members.iter().map(|&i| all[i as usize]).collect();
            parts.sort_by_key(|p| p.tag);
            parts.dedup_by_key(|p| p.tag);
            if parts.len() >= cfg.min_size {
                catalog.halos.push(Halo::from_particles(parts));
            }
        }
    }
    catalog
}

/// Per-rank timing of distributed halo analysis, the quantity behind the
/// paper's Table 2 ("Max/Min Find" and "Max/Min Center").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankTiming {
    /// Seconds in halo identification (FOF).
    pub find_seconds: f64,
    /// Seconds in MBP center finding.
    pub center_seconds: f64,
}

/// Run FOF + brute-force MBP centers on this rank, timing each phase.
/// `center_threshold` limits center finding to halos with at most that many
/// particles (`usize::MAX` = all), which is exactly the paper's in-situ /
/// off-line split.
pub fn fof_and_centers_timed(
    comm: &Communicator,
    decomp: &CartDecomp,
    locals: &[Particle],
    cfg: &FofConfig,
    backend: &dyn dpp::Backend,
    softening: f64,
    center_threshold: usize,
) -> (HaloCatalog, RankTiming) {
    let t0 = std::time::Instant::now();
    let mut catalog = parallel_fof(comm, decomp, locals, cfg);
    let find_seconds = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    for halo in &mut catalog.halos {
        if halo.count() <= center_threshold {
            let r = crate::mbp::mbp_brute(backend, &halo.particles, softening);
            halo.mbp_center = Some(halo.particles[r.index].pos_f64());
        }
    }
    let center_seconds = t1.elapsed().as_secs_f64();
    (
        catalog,
        RankTiming {
            find_seconds,
            center_seconds,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fof::{canonical_partition, fof_grid};
    use comm::World;

    /// Deterministic blob helper.
    fn blob(center: [f64; 3], n: usize, spread: f64, tag0: u64, box_size: f64) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = tag0 as f64 * 3.33 + i as f64;
                let pos = [
                    (center[0] + ((t * 0.618).fract() - 0.5) * spread).rem_euclid(box_size),
                    (center[1] + ((t * 0.414).fract() - 0.5) * spread).rem_euclid(box_size),
                    (center[2] + ((t * 0.732).fract() - 0.5) * spread).rem_euclid(box_size),
                ];
                Particle::at_rest(
                    [pos[0] as f32, pos[1] as f32, pos[2] as f32],
                    1.0,
                    tag0 + i as u64,
                )
            })
            .collect()
    }

    /// A synthetic box with blobs, one straddling a block boundary and one
    /// straddling the periodic seam.
    fn test_universe(box_size: f64) -> Vec<Particle> {
        let mut all = Vec::new();
        all.extend(blob([10.0, 10.0, 10.0], 80, 1.0, 0, box_size)); // interior of rank block
        all.extend(blob([16.0, 10.0, 10.0], 60, 1.0, 1000, box_size)); // straddles x=16 boundary (2 ranks @ 32)
        all.extend(blob([0.2, 20.0, 20.0], 50, 1.0, 2000, box_size)); // straddles periodic seam x=0
        all.extend(blob([25.0, 25.0, 25.0], 40, 1.0, 3000, box_size)); // another interior
        all
    }

    fn distribute(all: &[Particle], decomp: &CartDecomp, rank: usize) -> Vec<Particle> {
        all.iter()
            .filter(|p| decomp.owner_of(p.pos_f64()) == rank)
            .copied()
            .collect()
    }

    #[test]
    fn parallel_fof_matches_single_domain_periodic_fof() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let link = 0.45;
        // Reference: single-domain periodic FOF.
        let positions: Vec<[f64; 3]> = all.iter().map(|p| p.pos_f64()).collect();
        let ref_labels = fof_grid(&positions, link, box_size);
        let ref_groups: Vec<usize> = canonical_partition(&ref_labels)
            .into_iter()
            .map(|g| g.len())
            .filter(|&s| s >= 20)
            .collect();

        for nranks in [1usize, 2, 4, 8] {
            let decomp = CartDecomp::new(nranks, box_size);
            let world = World::new(nranks);
            let cfg = FofConfig {
                link_length: link,
                min_size: 20,
                overload_width: 4.0,
            };
            let catalogs = world.run(|c| {
                let locals = distribute(&all, &decomp, c.rank());
                parallel_fof(c, &decomp, &locals, &cfg)
            });
            let mut sizes: Vec<usize> = catalogs
                .iter()
                .flat_map(|cat| cat.halos.iter().map(|h| h.count()))
                .collect();
            let mut expect = ref_groups.clone();
            sizes.sort_unstable();
            expect.sort_unstable();
            assert_eq!(sizes, expect, "nranks={nranks}");
            // Each halo id appears exactly once across ranks.
            let mut ids: Vec<u64> = catalogs
                .iter()
                .flat_map(|cat| cat.halos.iter().map(|h| h.id))
                .collect();
            let total = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                total,
                "duplicate halo assignment, nranks={nranks}"
            );
        }
    }

    #[test]
    fn boundary_halo_particles_are_complete() {
        // The halo straddling a block boundary must come out whole, with
        // unwrapped contiguous positions.
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(2, box_size);
        let world = World::new(2);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 20,
            overload_width: 4.0,
        };
        let catalogs = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            parallel_fof(c, &decomp, &locals, &cfg)
        });
        // Find the seam halo (tags 2000..2050).
        let seam: Vec<&Halo> = catalogs
            .iter()
            .flat_map(|c| c.halos.iter())
            .filter(|h| (2000..2050).contains(&h.id))
            .collect();
        assert_eq!(seam.len(), 1, "seam halo found exactly once");
        assert_eq!(seam[0].count(), 50, "seam halo complete");
        // Contiguity: max pairwise x-extent under 3 (unwrapped), not ~32.
        let xs: Vec<f64> = seam[0].particles.iter().map(|p| p.pos[0] as f64).collect();
        let extent = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(extent < 3.0, "unwrapped extent {extent}");
    }

    #[test]
    fn min_size_filter_applies() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(4, box_size);
        let world = World::new(4);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 55, // only the 80- and 60-particle blobs survive
            overload_width: 4.0,
        };
        let catalogs = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            parallel_fof(c, &decomp, &locals, &cfg)
        });
        let total: usize = catalogs.iter().map(|c| c.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn timed_run_reports_phases_and_centers() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(2, box_size);
        let world = World::new(2);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 20,
            overload_width: 4.0,
        };
        let results = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            fof_and_centers_timed(c, &decomp, &locals, &cfg, &dpp::Serial, 1e-3, usize::MAX)
        });
        let nhalos: usize = results.iter().map(|(cat, _)| cat.len()).sum();
        assert_eq!(nhalos, 4);
        for (cat, timing) in &results {
            assert!(timing.find_seconds >= 0.0 && timing.center_seconds >= 0.0);
            for h in &cat.halos {
                assert!(h.mbp_center.is_some(), "centers computed for all halos");
            }
        }
    }

    #[test]
    fn center_threshold_skips_large_halos() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(1, box_size);
        let world = World::new(1);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 20,
            overload_width: 4.0,
        };
        let results = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            fof_and_centers_timed(c, &decomp, &locals, &cfg, &dpp::Serial, 1e-3, 60)
        });
        let cat = &results[0].0;
        for h in &cat.halos {
            if h.count() <= 60 {
                assert!(h.mbp_center.is_some());
            } else {
                assert!(h.mbp_center.is_none(), "large halo must be deferred");
            }
        }
    }
}
