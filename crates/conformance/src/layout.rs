//! Layout differential: every kernel rewritten for the SoA / packed-column
//! layout must agree **bit-for-bit** with its retained row-layout (or
//! scalar) reference, on every backend, over the adversarial corpus from
//! [`crate::inputs`].
//!
//! The references are deliberately independent implementations — kept in
//! `dpp`/`nbody`/`halo` as documented oracles or in [`crate::reference`],
//! not re-expressed in terms of the new code — so a disagreement here means
//! the rewrite changed semantics, not that both sides drifted together:
//!
//! * `cic-soa` — [`nbody::pm::cic_deposit_soa`] (cache-blocked, column
//!   sweep) vs [`nbody::pm::cic_deposit`] (scalar AoS), every backend,
//!   over [`inputs::particle_cases`] including NaN/±inf positions.
//! * `fof-cols` — [`halo::fof_kdtree`] (packed leaf lanes) vs
//!   [`reference::fof_kdtree_rows`] (row traversal of the same tree), plus
//!   [`halo::KdTree::k_nearest`] vs the exhaustive
//!   [`reference::distances2_brute`], over [`inputs::coord_cases`].
//! * `mbp-cols` — [`halo::potential_at`] / [`halo::mbp_brute_cols`]
//!   (blocked lane sweep, fixed summation order) vs
//!   [`halo::mbp::potential_of`] (scalar AoS), every backend.
//! * `radix-u64` — [`dpp::ops::radix_sort_u64`] (specialized flat-key
//!   engine) vs [`dpp::ops::radix_sort_by_key`] (generic reference),
//!   every backend, over [`inputs::u64_cases`].
//! * `histogram-blocked` — [`dpp::ops::histogram_counted`] (two-phase
//!   blocked binning) vs an inline scalar reference, every backend, over
//!   [`inputs::f64_cases`] including NaN scatter.
//!
//! Everything is [`Cmp::BitEq`]: the rewrites fix their summation order to
//! the reference order by construction (see DESIGN.md §12), so there is no
//! tolerance anywhere in this module.

use crate::differential::{roster, Cmp, DiffReport};
use crate::{inputs, reference};
use dpp::{ops, Serial};
use halo::{fof_kdtree, mbp_brute_cols, potential_at, Coords, KdTree};
use nbody::pm::{cic_deposit, cic_deposit_soa};
use nbody::ParticleSoA;

/// The rewritten-kernel families the layout differential must cover; each
/// must contribute more than zero checks to a passing run.
pub const REQUIRED_KERNELS: [&str; 5] = [
    "cic-soa",
    "fof-cols",
    "mbp-cols",
    "radix-u64",
    "histogram-blocked",
];

/// Scalar histogram reference: the pre-blocking loop, kept inline here so
/// the blocked rewrite in `dpp` is checked against code it cannot share.
fn histogram_scalar_ref(values: &[f64], lo: f64, hi: f64, nbins: usize) -> (Vec<u64>, u64) {
    let width = (hi - lo) / nbins as f64;
    let mut bins = vec![0u64; nbins];
    let mut skipped = 0u64;
    for &v in values {
        if v.is_nan() {
            skipped += 1;
            continue;
        }
        let b = ((v - lo) / width).floor();
        let b = if b < 0.0 {
            0
        } else if b as usize >= nbins {
            nbins - 1
        } else {
            b as usize
        };
        bins[b] += 1;
    }
    (bins, skipped)
}

/// Run the layout differential and collect every mismatch.
pub fn run_layout_differential() -> DiffReport {
    let mut rep = DiffReport::default();
    let backends = roster();
    rep.backends = backends.iter().map(|(n, _)| n.clone()).collect();

    let (ng, box_size) = (16usize, 32.0f64);

    // --- cic-soa ---------------------------------------------------------
    rep.op("cic-soa");
    for case in inputs::particle_cases() {
        let reference = cic_deposit(&Serial, &case.data, ng, box_size);
        let soa = ParticleSoA::from_aos(&case.data);
        // SoA on Serial against AoS on Serial (the layout change itself) …
        let got = cic_deposit_soa(&Serial, &soa, ng, box_size);
        rep.check_f64_slice(
            Cmp::BitEq,
            "cic-soa",
            &format!("serial/{}", case.name),
            "serial-soa",
            reference.as_slice(),
            got.as_slice(),
        );
        // … and both layouts on every parallel backend. The layout claim
        // proper — SoA ≡ AoS *on the same backend* — is bit-exact
        // everywhere. The cross-backend comparison inherits the documented
        // reduction semantics: `static-*` reassociates the per-chunk grid
        // merge, so it gets tolerance-level agreement (with NaN as a
        // class), exactly like float `reduce`.
        for (name, b) in &backends {
            let aos = cic_deposit(b.as_ref(), &case.data, ng, box_size);
            let soa_grid = cic_deposit_soa(b.as_ref(), &soa, ng, box_size);
            rep.check_f64_slice(
                Cmp::BitEq,
                "cic-soa",
                &format!("soa-vs-aos/{}", case.name),
                name,
                aos.as_slice(),
                soa_grid.as_slice(),
            );
            let cross = if crate::differential::reassociates_reductions(name) {
                Cmp::Approx
            } else {
                Cmp::BitEq
            };
            rep.check_f64_slice(
                cross,
                "cic-soa",
                &format!("vs-serial/{}", case.name),
                name,
                reference.as_slice(),
                aos.as_slice(),
            );
        }
    }

    // --- fof-cols --------------------------------------------------------
    rep.op("fof-cols");
    for case in inputs::coord_cases() {
        let cols = Coords::from_rows(&case.data);
        for link in [0.25f64, 0.7] {
            rep.check_eq(
                "fof-cols",
                &format!("labels/{}/link={link}", case.name),
                "cols-engine",
                &reference::fof_kdtree_rows(&case.data, link),
                &fof_kdtree(&cols, link),
            );
        }
        // Neighbour queries against the exhaustive oracle: the distances
        // bit for bit, and each returned index at its reported distance (a
        // tie at the k-th distance may pick any of the tied indices).
        let tree = KdTree::build(&cols, None);
        if !case.data.is_empty() {
            let queries = [
                case.data[0],
                case.data[case.data.len() / 2],
                [4.0, 4.0, 4.0],
            ];
            for (qi, q) in queries.iter().enumerate() {
                let all = reference::distances2_brute(&cols, *q);
                let mut want = all.clone();
                want.sort_by(f64::total_cmp);
                want.truncate(8);
                let got = tree.k_nearest(&cols, *q, 8);
                let reported: Vec<u64> = got.iter().map(|&(_, d)| d.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|d| d.to_bits()).collect();
                let at_index: Vec<u64> = got
                    .iter()
                    .map(|&(i, _)| all[i as usize].to_bits())
                    .collect();
                let case = format!("k_nearest/{}/q{qi}", case.name);
                rep.check_eq("fof-cols", &case, "cols-engine", &want, &reported);
                rep.check_eq("fof-cols", &case, "cols-index", &at_index, &reported);
            }
        }
    }

    // --- mbp-cols --------------------------------------------------------
    rep.op("mbp-cols");
    let softening = 1e-3;
    for case in inputs::particle_cases() {
        if case.data.is_empty() || case.data.len() > 1025 {
            continue; // O(n²); the grain cases are plenty.
        }
        let coords = Coords::from_particles(&case.data);
        let masses: Vec<f64> = case.data.iter().map(|p| p.mass as f64).collect();
        // Per-particle potentials: blocked column sweep vs scalar loop.
        let stride = (case.data.len() / 64).max(1);
        for i in (0..case.data.len()).step_by(stride) {
            let scalar = halo::mbp::potential_of(&case.data, i, softening);
            let blocked = potential_at(&coords, &masses, i, softening);
            rep.check_f64_scalar(
                Cmp::BitEq,
                "mbp-cols",
                &format!("potential/{}/i={i}", case.name),
                "cols-engine",
                scalar,
                blocked,
            );
        }
        // Full argmin on every backend (indices and potential bits).
        let reference = mbp_brute_cols(&Serial, &coords, &masses, softening);
        for (name, b) in &backends {
            let got = mbp_brute_cols(b.as_ref(), &coords, &masses, softening);
            rep.check_eq(
                "mbp-cols",
                &format!("argmin/{}", case.name),
                name,
                &(reference.index, reference.potential.to_bits()),
                &(got.index, got.potential.to_bits()),
            );
        }
    }

    // --- radix-u64 -------------------------------------------------------
    rep.op("radix-u64");
    for case in inputs::u64_cases() {
        let mut reference = case.data.clone();
        ops::radix_sort_by_key(&Serial, &mut reference, |&k| k);
        let mut serial_fast = case.data.clone();
        ops::radix_sort_u64(&Serial, &mut serial_fast);
        rep.check_eq(
            "radix-u64",
            &format!("u64/{}", case.name),
            "serial-specialized",
            &reference,
            &serial_fast,
        );
        for (name, b) in &backends {
            let mut fast = case.data.clone();
            ops::radix_sort_u64(b.as_ref(), &mut fast);
            rep.check_eq(
                "radix-u64",
                &format!("u64/{}", case.name),
                name,
                &reference,
                &fast,
            );
        }
    }

    // --- histogram-blocked -----------------------------------------------
    rep.op("histogram-blocked");
    for case in inputs::f64_cases() {
        for (lo, hi, nbins) in [(-1.0e3, 1.0e3, 16usize), (-0.5, 0.5, 7)] {
            let reference = histogram_scalar_ref(&case.data, lo, hi, nbins);
            for (name, b) in &backends {
                let got = ops::histogram_counted(b.as_ref(), &case.data, lo, hi, nbins);
                rep.check_eq(
                    "histogram-blocked",
                    &format!("counted/{}/bins={nbins}", case.name),
                    name,
                    &reference,
                    &got,
                );
            }
            let got = ops::histogram_counted(&Serial, &case.data, lo, hi, nbins);
            rep.check_eq(
                "histogram-blocked",
                &format!("counted/{}/bins={nbins}", case.name),
                "serial-blocked",
                &reference,
                &got,
            );
        }
    }

    rep
}

/// Convenience wrapper asserting a clean, fully covering layout run with
/// more than zero checks per rewritten kernel.
pub fn assert_layout_conformance() -> DiffReport {
    let rep = run_layout_differential();
    rep.assert_clean_and_covering(&REQUIRED_KERNELS);
    for kernel in REQUIRED_KERNELS {
        let n = rep.checks_by_op.get(kernel).copied().unwrap_or(0);
        assert!(n > 0, "layout differential ran zero checks for `{kernel}`");
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_histogram_reference_matches_documented_semantics() {
        let v = vec![f64::NAN, 0.1, f64::NAN, 0.9, -1.0, f64::NAN];
        let (bins, skipped) = histogram_scalar_ref(&v, 0.0, 1.0, 2);
        assert_eq!(bins, vec![2, 1]);
        assert_eq!(skipped, 3);
    }

    #[test]
    fn required_kernels_all_have_checks() {
        let rep = assert_layout_conformance();
        assert!(rep.checks > 100, "layout corpus collapsed: {}", rep.checks);
    }
}
