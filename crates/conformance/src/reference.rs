//! Independent references the batteries and the kernel bench hold the
//! production kernels to. Nothing here has a production caller.
//!
//! * [`fof_kdtree_rows`] — the k-d tree FOF traversal over row-major
//!   positions: the same tree as [`halo::fof_kdtree`], with every pair
//!   distance loaded from a 24-byte row instead of gathered leaf lanes.
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
