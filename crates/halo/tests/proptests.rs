//! Property tests for the halo analysis algorithms.

use halo::{
    fof_brute, fof_kdtree, mbp_astar, mbp_brute, members_by_group, potential_of, so_mass, Coords,
    KdTree, MassFunction,
};
use nbody::particle::Particle;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Random particle cloud strategy: n points in a box of the given side.
fn cloud(n: std::ops::Range<usize>, side: f64) -> impl Strategy<Value = Vec<[f64; 3]>> {
    proptest::collection::vec(
        (0.0..side, 0.0..side, 0.0..side).prop_map(|(x, y, z)| [x, y, z]),
        n,
    )
}

fn particles_from(positions: &[[f64; 3]]) -> Vec<Particle> {
    positions
        .iter()
        .enumerate()
        .map(|(i, p)| Particle::at_rest([p[0] as f32, p[1] as f32, p[2] as f32], 1.0, i as u64))
        .collect()
}

fn kd(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
    fof_kdtree(&Coords::from_rows(positions), link)
}

fn canon(labels: &[u32]) -> Vec<Vec<u32>> {
    let mut groups = members_by_group(labels);
    groups.sort_by_key(|g| g.first().copied().unwrap_or(u32::MAX));
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fof_kdtree_equals_brute(positions in cloud(0..220, 20.0), link in 0.3f64..3.0) {
        prop_assert_eq!(
            canon(&kd(&positions, link)),
            canon(&fof_brute(&positions, link))
        );
    }

    #[test]
    fn fof_is_permutation_invariant(positions in cloud(2..150, 15.0), link in 0.5f64..2.0) {
        let base = kd(&positions, link);
        let rev: Vec<[f64; 3]> = positions.iter().rev().copied().collect();
        let rev_labels = kd(&rev, link);
        let n = positions.len();
        // Same-group relation must be identical under reversal.
        for i in 0..n.min(40) {
            for j in (i + 1)..n.min(40) {
                let same_base = base[i] == base[j];
                let same_rev = rev_labels[n - 1 - i] == rev_labels[n - 1 - j];
                prop_assert_eq!(same_base, same_rev, "pair ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn fof_groups_respect_link_distance(positions in cloud(2..120, 10.0), link in 0.4f64..1.5) {
        // Any two particles within `link` must share a group.
        let labels = kd(&positions, link);
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let d2: f64 = (0..3).map(|d| (positions[i][d] - positions[j][d]).powi(2)).sum();
                if d2 <= link * link {
                    prop_assert_eq!(labels[i], labels[j]);
                }
            }
        }
    }

    #[test]
    fn fof_and_mbp_permutation_invariant(
        positions in cloud(2..120, 10.0), seed in any::<u64>()
    ) {
        let n = positions.len();
        // Deterministic Fisher–Yates permutation from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let permuted: Vec<[f64; 3]> = perm.iter().map(|&k| positions[k]).collect();
        let link = 0.9;

        let labels = kd(&positions, link);
        let labels_p = kd(&permuted, link);

        // The catalog (the partition into groups, named by original
        // particle identity) is invariant under the permutation.
        let partition = |labels: &[u32], back: Option<&[usize]>| -> BTreeSet<Vec<usize>> {
            members_by_group(labels)
                .into_iter()
                .map(|g| {
                    let mut members: Vec<usize> = g
                        .into_iter()
                        .map(|i| back.map_or(i as usize, |p| p[i as usize]))
                        .collect();
                    members.sort_unstable();
                    members
                })
                .collect()
        };
        prop_assert_eq!(partition(&labels, None), partition(&labels_p, Some(&perm)));

        // The MBP center (by particle identity) is invariant under the
        // permutation; only the argmin's tie-break and the
        // summation association may move, and random clouds have no ties.
        let parts = particles_from(&positions);
        let parts_p: Vec<Particle> = perm.iter().map(|&k| parts[k]).collect();
        let base = mbp_brute(&dpp::Serial, &parts, 1e-3);
        let permd = mbp_brute(&dpp::Serial, &parts_p, 1e-3);
        prop_assert_eq!(parts[base.index].tag, parts_p[permd.index].tag);
        prop_assert!((base.potential - permd.potential).abs()
            <= 1e-9 * base.potential.abs().max(1.0));
    }

    #[test]
    fn mbp_astar_equals_brute(positions in cloud(2..150, 6.0)) {
        let parts = particles_from(&positions);
        let b = mbp_brute(&dpp::Serial, &parts, 1e-3);
        let a = mbp_astar(&parts, 1e-3);
        prop_assert_eq!(a.index, b.index);
        prop_assert!((a.potential - b.potential).abs() < 1e-9);
        prop_assert!(a.exact_evaluations <= parts.len());
    }

    #[test]
    fn mbp_is_the_argmin_of_exact_potentials(positions in cloud(2..100, 5.0)) {
        let parts = particles_from(&positions);
        let r = mbp_brute(&dpp::Serial, &parts, 1e-3);
        for i in 0..parts.len() {
            prop_assert!(potential_of(&parts, i, 1e-3) >= r.potential - 1e-12);
        }
    }

    #[test]
    fn knn_matches_brute_force(positions in cloud(1..250, 30.0), qi in any::<prop::sample::Index>(), k in 1usize..20) {
        let q = positions[qi.index(positions.len())];
        let coords = Coords::from_rows(&positions);
        let tree = KdTree::build(&coords, None);
        let got = tree.k_nearest(&coords, q, k);
        let mut all: Vec<(u32, f64)> = (0..positions.len() as u32)
            .map(|i| {
                let p = positions[i as usize];
                let d2: f64 = (0..3).map(|d| (p[d] - q[d]).powi(2)).sum();
                (i, d2)
            })
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        prop_assert_eq!(got.len(), all.len());
        for (g, e) in got.iter().zip(&all) {
            prop_assert!((g.1 - e.1).abs() < 1e-9);
        }
    }

    #[test]
    fn so_mass_monotone_in_threshold(seed in 0u64..300) {
        // Build a deterministic dense ball from the seed.
        let positions: Vec<[f64; 3]> = (0..400)
            .map(|i| {
                let t = seed as f64 * 3.1 + i as f64;
                let r = ((t * 0.618).fract()).powf(1.0 / 3.0);
                let th = std::f64::consts::PI * (t * 0.414).fract();
                let ph = 2.0 * std::f64::consts::PI * (t * 0.732).fract();
                [r * th.sin() * ph.cos(), r * th.sin() * ph.sin(), r * th.cos()]
            })
            .collect();
        let parts = particles_from(&positions);
        let ball_density = 400.0 / (4.0 / 3.0 * std::f64::consts::PI);
        let mean = ball_density / 500.0;
        let mut last_mass = f64::INFINITY;
        for delta in [100.0, 200.0, 400.0, 800.0] {
            if let Some(r) = so_mass(&parts, [0.0; 3], delta, mean) {
                prop_assert!(r.mass <= last_mass + 1e-9, "SO mass must shrink as Δ grows");
                last_mass = r.mass;
            } else {
                last_mass = 0.0;
            }
        }
    }

    #[test]
    fn mass_function_tail_consistency(alpha in 1.2f64..2.5, log_cut in 4.0f64..7.0) {
        let mf = MassFunction::new(alpha, 10f64.powf(log_cut), 40.0, 1e9);
        // fraction_above is a valid survival function.
        let mut last = 1.0;
        for m in [40.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8] {
            let f = mf.fraction_above(m);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
            prop_assert!(f <= last + 1e-12);
            last = f;
        }
        // Sampling respects the floor.
        let mut rng = rand::rngs::StdRng::seed_from_u64((alpha * 1000.0) as u64);
        use rand::SeedableRng;
        for _ in 0..50 {
            prop_assert!(mf.sample(&mut rng) >= 40);
        }
    }
}
