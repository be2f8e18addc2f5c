//! Friends-of-friends halo finding (paper §3.3.1).
//!
//! One engine, the paper's: a balanced k-d tree over packed [`Coords`]
//! traversed recursively, using bounding boxes to merge or exclude whole
//! subtrees at once. It has two entry points:
//!
//! * [`fof_kdtree`] — non-periodic. The rank-parallel driver calls it on a
//!   block plus its overload shell, which already covers the seams.
//! * [`fof_periodic`] — a whole periodic box, the engine of the in-situ
//!   halo finder. Points within one linking length of a face get ghost
//!   images across it (the overload-region idea applied inside one box),
//!   the tree links the extended set, and each image is merged with its
//!   origin.
//!
//! [`fof_brute`] is the O(n²) reference, with no production caller; the
//! tests hold both entry points to its partition. A periodic linked-cell
//! engine lives in the `conformance` crate as the label oracle for
//! [`fof_periodic`].

use crate::columns::Coords;
use crate::kdtree::{KdTree, LEAF_SIZE};
use crate::unionfind::UnionFind;

#[inline]
fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

/// O(n²) reference FOF (non-periodic). Returns group labels.
pub fn fof_brute(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
    let n = positions.len();
    let mut uf = UnionFind::new(n);
    let b2 = link * link;
    for i in 0..n {
        for j in (i + 1)..n {
            if dist2(positions[i], positions[j]) <= b2 {
                uf.union(i, j);
            }
        }
    }
    uf.labels().0
}

/// k-d tree FOF (non-periodic) over packed coordinates: dual-tree
/// traversal with bounding-box pruning and whole-subtree linking. Returns
/// group labels (dense, numbered by first appearance in input order).
///
/// Leaves are gathered once into contiguous stack lanes (bounded by
/// [`LEAF_SIZE`]) so the O(k²) pair loops run over packed `f64` arrays the
/// compiler can vectorize, instead of chasing the tree's index indirection
/// per pair.
pub fn fof_kdtree(coords: &Coords, link: f64) -> Vec<u32> {
    let mut uf = UnionFind::new(coords.len());
    link_within(coords, link, &mut uf);
    uf.labels().0
}

/// Periodic FOF over a box of side `box_size`: the [`fof_kdtree`] engine
/// run over the points plus their ghost images across every face within
/// `link` (edge and corner images included), with each image merged into
/// its origin. Returns group labels, dense and numbered by first
/// appearance in input order.
///
/// Coordinates must lie in `[0, box_size]`, where the face images are
/// complete: a pair closer than `link` through a seam always has an image
/// of one member on the other side. `box_size` itself is the seam image of
/// `0.0` (an `f32` rounding of a coordinate just below the box side can
/// land there), so it is accepted.
pub fn fof_periodic(coords: &Coords, link: f64, box_size: f64) -> Vec<u32> {
    assert!(
        link > 0.0 && link <= box_size / 2.0,
        "linking length {link} must be positive and at most half the box {box_size}"
    );
    debug_assert!(
        (0..3).all(|d| coords.axis(d).iter().all(|x| (0.0..=box_size).contains(x))),
        "fof_periodic: coordinates outside the box [0, {box_size}]"
    );
    let n = coords.len();
    let mut extended = coords.clone();
    let origins = append_seam_images(
        &mut extended,
        &[0, 1, 2],
        [0.0; 3],
        [box_size; 3],
        link,
        box_size,
    );
    let mut uf = UnionFind::new(extended.len());
    link_within(&extended, link, &mut uf);
    for (k, &o) in origins.iter().enumerate() {
        uf.union(n + k, o as usize);
    }
    // Every group holds an original, and labels number groups by their
    // first member, so the first `n` labels are already dense.
    let mut labels = uf.labels().0;
    labels.truncate(n);
    labels
}

/// Append periodic self-images along each of `axes` in turn: a point (an
/// image from an earlier axis included) with `x - lo < width` gets a copy
/// at `x + box_size`, otherwise one with `hi - x <= width` gets a copy at
/// `x - box_size`. Returns the index each appended point was copied from,
/// in append order.
pub(crate) fn append_seam_images(
    coords: &mut Coords,
    axes: &[usize],
    lo: [f64; 3],
    hi: [f64; 3],
    width: f64,
    box_size: f64,
) -> Vec<u32> {
    let mut origins = Vec::new();
    for &d in axes {
        for i in 0..coords.len() {
            let mut q = coords.get(i);
            q[d] += if q[d] - lo[d] < width {
                box_size
            } else if hi[d] - q[d] <= width {
                -box_size
            } else {
                continue;
            };
            coords.push(q);
            origins.push(i as u32);
        }
    }
    origins
}

/// Union every pair of `coords` within `link` (k-d tree traversal).
fn link_within(coords: &Coords, link: f64, uf: &mut UnionFind) {
    if !coords.is_empty() {
        let tree = KdTree::build(coords, None);
        process(&tree, coords, tree.root(), link, uf);
    }
}

/// A leaf's coordinates gathered into contiguous lanes.
struct LeafLanes {
    x: [f64; LEAF_SIZE],
    y: [f64; LEAF_SIZE],
    z: [f64; LEAF_SIZE],
    len: usize,
}

impl LeafLanes {
    fn gather(coords: &Coords, idx: &[u32]) -> Self {
        debug_assert!(idx.len() <= LEAF_SIZE);
        let (xs, ys, zs) = (coords.xs(), coords.ys(), coords.zs());
        let mut lanes = LeafLanes {
            x: [0.0; LEAF_SIZE],
            y: [0.0; LEAF_SIZE],
            z: [0.0; LEAF_SIZE],
            len: idx.len(),
        };
        for (k, &i) in idx.iter().enumerate() {
            let i = i as usize;
            lanes.x[k] = xs[i];
            lanes.y[k] = ys[i];
            lanes.z[k] = zs[i];
        }
        lanes
    }

    #[inline]
    fn dist2(&self, a: usize, other: &LeafLanes, b: usize) -> f64 {
        (self.x[a] - other.x[b]).powi(2)
            + (self.y[a] - other.y[b]).powi(2)
            + (self.z[a] - other.z[b]).powi(2)
    }
}

/// Recursive per-node processing: resolve children, then link across them.
fn process(tree: &KdTree, coords: &Coords, id: usize, link: f64, uf: &mut UnionFind) {
    let node = tree.node(id);
    match node.children {
        None => {
            let idx = tree.indices(node);
            let lanes = LeafLanes::gather(coords, idx);
            let b2 = link * link;
            for a in 0..lanes.len {
                for b in (a + 1)..lanes.len {
                    if lanes.dist2(a, &lanes, b) <= b2 {
                        uf.union(idx[a] as usize, idx[b] as usize);
                    }
                }
            }
        }
        Some((l, r)) => {
            process(tree, coords, l, link, uf);
            process(tree, coords, r, link, uf);
            connect(tree, coords, l, r, link, uf);
        }
    }
}

/// Link pairs spanning two disjoint subtrees, pruning on box distance.
fn connect(tree: &KdTree, coords: &Coords, a: usize, b: usize, link: f64, uf: &mut UnionFind) {
    let na = tree.node(a);
    let nb = tree.node(b);
    if na.bbox.min_dist2_box(&nb.bbox) > link * link {
        return; // exclusion: no pair can be within the linking length
    }
    match (na.children, nb.children) {
        (None, None) => {
            let b2 = link * link;
            let ia = tree.indices(na);
            let ib = tree.indices(nb);
            let la = LeafLanes::gather(coords, ia);
            let lb = LeafLanes::gather(coords, ib);
            for i in 0..la.len {
                for j in 0..lb.len {
                    if la.dist2(i, &lb, j) <= b2 {
                        uf.union(ia[i] as usize, ib[j] as usize);
                    }
                }
            }
        }
        (Some((l, r)), _) if na.end - na.start >= nb.end - nb.start => {
            connect(tree, coords, l, b, link, uf);
            connect(tree, coords, r, b, link, uf);
        }
        (_, Some((l, r))) => {
            connect(tree, coords, a, l, link, uf);
            connect(tree, coords, a, r, link, uf);
        }
        (Some((l, r)), None) => {
            connect(tree, coords, l, b, link, uf);
            connect(tree, coords, r, b, link, uf);
        }
    }
}

/// Group labels → per-group member lists (groups in label order).
pub fn members_by_group(labels: &[u32]) -> Vec<Vec<u32>> {
    let ngroups = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut out = vec![Vec::new(); ngroups];
    for (i, &l) in labels.iter().enumerate() {
        out[l as usize].push(i as u32);
    }
    out
}

/// Normalize a labeling so two labelings can be compared for identical
/// partitions regardless of label numbering.
pub fn canonical_partition(labels: &[u32]) -> Vec<Vec<u32>> {
    let mut groups = members_by_group(labels);
    groups.sort_by_key(|g| g.first().copied().unwrap_or(u32::MAX));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kd(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
        fof_kdtree(&Coords::from_rows(positions), link)
    }

    fn blob(center: [f64; 3], n: usize, spread: f64, seed: u64) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| {
                let t = (seed as f64) * 17.17 + i as f64;
                [
                    center[0] + ((t * 0.618).fract() - 0.5) * spread,
                    center[1] + ((t * 0.414).fract() - 0.5) * spread,
                    center[2] + ((t * 0.732).fract() - 0.5) * spread,
                ]
            })
            .collect()
    }

    #[test]
    fn two_separated_blobs_are_two_groups() {
        let mut pos = blob([10.0, 10.0, 10.0], 50, 1.0, 1);
        pos.extend(blob([30.0, 30.0, 30.0], 30, 1.0, 2));
        let labels = kd(&pos, 1.0);
        let groups = members_by_group(&labels);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 50);
        assert_eq!(groups[1].len(), 30);
    }

    #[test]
    fn chain_links_into_one_group() {
        // Particles spaced 0.9 apart in a line with link 1.0 → one group.
        let pos: Vec<[f64; 3]> = (0..100).map(|i| [i as f64 * 0.9, 0.0, 0.0]).collect();
        let labels = kd(&pos, 1.0);
        assert!(labels.iter().all(|&l| l == 0));
        // With link 0.8 every particle is isolated.
        let labels = kd(&pos, 0.8);
        let groups = members_by_group(&labels);
        assert_eq!(groups.len(), 100);
    }

    #[test]
    fn kdtree_matches_brute_force() {
        let mut pos = blob([5.0, 5.0, 5.0], 120, 3.0, 3);
        pos.extend(blob([8.0, 5.0, 5.0], 80, 2.5, 4));
        pos.extend(blob([20.0, 20.0, 20.0], 60, 4.0, 5));
        for link in [0.3, 0.7, 1.5] {
            let a = canonical_partition(&kd(&pos, link));
            let b = canonical_partition(&fof_brute(&pos, link));
            assert_eq!(a, b, "link={link}");
        }
    }

    fn periodic(positions: &[[f64; 3]], link: f64, box_size: f64) -> Vec<u32> {
        fof_periodic(&Coords::from_rows(positions), link, box_size)
    }

    #[test]
    fn periodic_matches_brute_force_in_interior() {
        // Keep everything far from the boundary so periodic wrap is inert.
        let mut pos = blob([40.0, 40.0, 40.0], 150, 5.0, 6);
        pos.extend(blob([60.0, 60.0, 60.0], 100, 5.0, 7));
        for link in [0.5, 1.0, 2.0] {
            let a = canonical_partition(&periodic(&pos, link, 100.0));
            let b = canonical_partition(&fof_brute(&pos, link));
            assert_eq!(a, b, "link={link}");
        }
    }

    #[test]
    fn periodic_links_across_the_seam() {
        let pos = vec![
            [0.2, 5.0, 5.0],
            [9.9, 5.0, 5.0], // 0.3 away across the wrap
            [5.0, 5.0, 5.0],
        ];
        assert_eq!(periodic(&pos, 0.5, 10.0), vec![0, 0, 1]);
    }

    #[test]
    fn periodic_links_at_exactly_link_across_each_face() {
        // 0.25 + 10 − 9.75 = 0.5 exactly: the `<=` rule links the pair;
        // one 1/256 step further does not.
        for d in 0..3 {
            let (mut a, mut b, mut far) = ([5.0; 3], [5.0; 3], [5.0; 3]);
            a[d] = 0.25;
            b[d] = 9.75;
            far[d] = 9.75 - 1.0 / 256.0;
            assert_eq!(periodic(&[a, b], 0.5, 10.0), vec![0, 0], "axis {d}");
            assert_eq!(periodic(&[b, a], 0.5, 10.0), vec![0, 0], "axis {d}");
            assert_eq!(periodic(&[a, far], 0.5, 10.0), vec![0, 1], "axis {d}");
            assert_eq!(periodic(&[far, a], 0.5, 10.0), vec![0, 1], "axis {d}");
        }
    }

    #[test]
    fn periodic_links_across_an_edge() {
        // 0.25 apart in x and y through the x = y = 0 edge: distance √0.125.
        let pos = [[0.125, 9.875, 5.0], [9.875, 0.125, 5.0], [5.0, 5.0, 5.0]];
        assert_eq!(periodic(&pos, 0.5, 10.0), vec![0, 0, 1]);
        // Each axis alone is 9.75 apart, so nothing links without the wrap.
        assert_eq!(kd(&pos, 0.5), vec![0, 1, 2]);
    }

    #[test]
    fn eight_corner_particles_form_one_group() {
        let mut pos = Vec::new();
        for c in 0..8 {
            pos.push([0, 1, 2].map(|d| if c >> d & 1 == 0 { 0.125 } else { 9.875 }));
        }
        pos.push([5.0; 3]);
        let labels = periodic(&pos, 0.3, 10.0);
        assert_eq!(labels, [vec![0; 8], vec![1]].concat());
        // Without the wrap all nine are alone.
        assert_eq!(members_by_group(&kd(&pos, 0.3)).len(), 9);
    }

    #[test]
    fn periodic_handles_both_ends_of_the_box() {
        // 0.0 and the largest f32 below L are one f32 ulp apart through the
        // seam; L itself is accepted as the seam image of 0.0.
        let l = 10.0f64;
        let top = f32::from_bits((l as f32).to_bits() - 1) as f64;
        let pos = [[0.0, 5.0, 5.0], [top, 5.0, 5.0], [5.0, 5.0, 5.0]];
        assert_eq!(periodic(&pos, 0.5, l), vec![0, 0, 1]);
        let pos = [[l, 5.0, 5.0], [0.25, 5.0, 5.0], [5.0, 5.0, 5.0]];
        assert_eq!(periodic(&pos, 0.5, l), vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at most half the box")]
    fn periodic_rejects_a_link_over_half_the_box() {
        periodic(&[[1.0; 3]], 5.5, 10.0);
    }

    #[test]
    fn kdtree_does_not_link_across_boundary() {
        // The non-periodic engine must NOT wrap.
        let pos = vec![[0.2, 5.0, 5.0], [9.9, 5.0, 5.0]];
        let labels = kd(&pos, 0.5);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn label_invariance_under_permutation() {
        let pos = {
            let mut p = blob([5.0, 5.0, 5.0], 100, 2.0, 8);
            p.extend(blob([15.0, 15.0, 15.0], 50, 2.0, 9));
            p
        };
        let base = canonical_partition(&kd(&pos, 0.8));
        // Reverse the input order; partitions (as index sets mapped back)
        // must be identical.
        let rev: Vec<[f64; 3]> = pos.iter().rev().copied().collect();
        let labels_rev = kd(&rev, 0.8);
        let n = pos.len();
        // Map reversed labels back to original indices.
        let mut mapped = vec![0u32; n];
        for (ri, &l) in labels_rev.iter().enumerate() {
            mapped[n - 1 - ri] = l;
        }
        let remapped = canonical_partition(&mapped);
        assert_eq!(base, remapped);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(fof_kdtree(&Coords::new(), 1.0).is_empty());
        assert_eq!(kd(&[[0.0; 3]], 1.0), vec![0]);
        assert!(periodic(&[], 1.0, 10.0).is_empty());
        assert_eq!(periodic(&[[0.0; 3]], 1.0, 10.0), vec![0]);
    }

    #[test]
    fn large_cloud_kdtree_consistency_with_periodic() {
        // A denser random cloud in the box interior.
        let mut pos = Vec::new();
        for c in 0..12 {
            pos.extend(blob(
                [
                    20.0 + (c % 3) as f64 * 15.0,
                    20.0 + ((c / 3) % 2) as f64 * 20.0,
                    25.0 + (c / 6) as f64 * 12.0,
                ],
                100,
                6.0,
                c as u64 + 10,
            ));
        }
        let a = canonical_partition(&kd(&pos, 1.1));
        let b = canonical_partition(&periodic(&pos, 1.1, 100.0));
        assert_eq!(a, b);
    }
}
