//! Independent references the batteries and the kernel bench hold the
//! production kernels to. Nothing here has a production caller.
//!
//! * [`fof_kdtree_rows`] — the k-d tree FOF traversal over row-major
//!   positions: the same tree as [`halo::fof_kdtree`], with every pair
//!   distance loaded from a 24-byte row instead of gathered leaf lanes.
//! * [`fof_grid`] — the periodic linked-cell FOF: the label oracle for
//!   [`halo::fof_periodic`].
//! * [`distances2_brute`] — the exhaustive neighbour oracle for
//!   [`halo::KdTree::k_nearest`].

use halo::unionfind::UnionFind;
use halo::{Coords, KdTree};

#[inline]
fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

/// Squared distance from `query` to every point, by index, in the same
/// expression as the tree's leaf scan (so the same bits).
pub fn distances2_brute(coords: &Coords, query: [f64; 3]) -> Vec<f64> {
    (0..coords.len())
        .map(|i| dist2(coords.get(i), query))
        .collect()
}

/// Row-layout k-d tree FOF (non-periodic). Same tree, traversal and union
/// sequence as [`halo::fof_kdtree`], so the labels must match exactly.
pub fn fof_kdtree_rows(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
    let mut uf = UnionFind::new(positions.len());
    if !positions.is_empty() {
        let tree = KdTree::build(&Coords::from_rows(positions), None);
        process(&tree, positions, tree.root(), link, &mut uf);
    }
    uf.labels().0
}

/// Recursive per-node processing: resolve children, then link across them.
fn process(tree: &KdTree, pos: &[[f64; 3]], id: usize, link: f64, uf: &mut UnionFind) {
    let node = tree.node(id);
    match node.children {
        None => {
            let idx = tree.indices(node);
            for (a, &i) in idx.iter().enumerate() {
                for &j in &idx[a + 1..] {
                    if dist2(pos[i as usize], pos[j as usize]) <= link * link {
                        uf.union(i as usize, j as usize);
                    }
                }
            }
        }
        Some((l, r)) => {
            process(tree, pos, l, link, uf);
            process(tree, pos, r, link, uf);
            connect(tree, pos, l, r, link, uf);
        }
    }
}

/// Link pairs spanning two disjoint subtrees, pruning on box distance.
fn connect(tree: &KdTree, pos: &[[f64; 3]], a: usize, b: usize, link: f64, uf: &mut UnionFind) {
    let (na, nb) = (tree.node(a), tree.node(b));
    if na.bbox.min_dist2_box(&nb.bbox) > link * link {
        return;
    }
    match (na.children, nb.children) {
        (None, None) => {
            for &i in tree.indices(na) {
                for &j in tree.indices(nb) {
                    if dist2(pos[i as usize], pos[j as usize]) <= link * link {
                        uf.union(i as usize, j as usize);
                    }
                }
            }
        }
        (Some((l, r)), _) if na.end - na.start >= nb.end - nb.start => {
            connect(tree, pos, l, b, link, uf);
            connect(tree, pos, r, b, link, uf);
        }
        (_, Some((l, r))) => {
            connect(tree, pos, a, l, link, uf);
            connect(tree, pos, a, r, link, uf);
        }
        (Some((l, r)), None) => {
            connect(tree, pos, l, b, link, uf);
            connect(tree, pos, r, b, link, uf);
        }
    }
}

/// Linked-cell FOF with periodic boundary conditions in a box of side
/// `box_size`: cells at least one linking length wide, each scanned
/// against itself and its 26 wrapped neighbours with minimum-image
/// distances. Returns group labels (dense, numbered by first appearance).
/// The label oracle for [`halo::fof_periodic`], which must return the
/// same `Vec` on coordinates in `[0, box_size]`.
pub fn fof_grid(positions: &[[f64; 3]], link: f64, box_size: f64) -> Vec<u32> {
    assert!(link > 0.0 && box_size > 0.0);
    assert!(
        link <= box_size / 2.0,
        "linking length {link} too large for box {box_size}"
    );
    let n = positions.len();
    let mut uf = UnionFind::new(n);
    if n == 0 {
        return Vec::new();
    }
    // Cells at least one linking length wide.
    let ncell = ((box_size / link).floor() as usize).clamp(1, 256);
    let cell_w = box_size / ncell as f64;
    let cell_of = |p: [f64; 3]| -> [usize; 3] {
        let mut c = [0usize; 3];
        for d in 0..3 {
            let mut v = (p[d].rem_euclid(box_size) / cell_w) as usize;
            if v >= ncell {
                v = ncell - 1;
            }
            c[d] = v;
        }
        c
    };
    // Bucket particles.
    let mut heads: Vec<Vec<u32>> = vec![Vec::new(); ncell * ncell * ncell];
    for (i, &p) in positions.iter().enumerate() {
        let c = cell_of(p);
        heads[(c[0] * ncell + c[1]) * ncell + c[2]].push(i as u32);
    }
    let b2 = link * link;
    let pd2 = |a: [f64; 3], b: [f64; 3]| -> f64 {
        let mut s = 0.0;
        for d in 0..3 {
            let mut v = (a[d] - b[d]).abs();
            if v > box_size / 2.0 {
                v = box_size - v;
            }
            s += v * v;
        }
        s
    };
    // For each cell, scan itself + 26 neighbors (half to avoid double work).
    for cx in 0..ncell {
        for cy in 0..ncell {
            for cz in 0..ncell {
                let me = (cx * ncell + cy) * ncell + cz;
                let mine = &heads[me];
                // Within-cell pairs.
                for (a, &i) in mine.iter().enumerate() {
                    for &j in &mine[a + 1..] {
                        if pd2(positions[i as usize], positions[j as usize]) <= b2 {
                            uf.union(i as usize, j as usize);
                        }
                    }
                }
                // Cross-cell pairs (each unordered neighbor pair once).
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            if (dx, dy, dz) <= (0, 0, 0) {
                                continue; // lexicographic half-shell
                            }
                            let ox = (cx as i64 + dx).rem_euclid(ncell as i64) as usize;
                            let oy = (cy as i64 + dy).rem_euclid(ncell as i64) as usize;
                            let oz = (cz as i64 + dz).rem_euclid(ncell as i64) as usize;
                            let other = (ox * ncell + oy) * ncell + oz;
                            if other == me {
                                continue; // wrapped back (ncell small)
                            }
                            for &i in mine {
                                for &j in &heads[other] {
                                    if pd2(positions[i as usize], positions[j as usize]) <= b2 {
                                        uf.union(i as usize, j as usize);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    uf.labels().0
}
