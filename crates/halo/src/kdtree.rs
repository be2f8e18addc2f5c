//! Balanced k-d tree over particle positions, with per-node bounding boxes
//! and masses. Used by the FOF finder (dual-tree linking), the subhalo
//! finder (k-nearest-neighbour densities), and the A* center finder
//! (optimistic potential bounds).
//!
//! The tree is built and queried over packed [`Coords`] columns: the
//! median select compares single packed lanes of the split axis instead of
//! loading 24-byte rows, and leaf scans read the three coordinate lanes.
//! Row-layout callers convert once with [`Coords::from_rows`] or
//! [`Coords::from_particles`].

use crate::columns::Coords;

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Per-axis minima.
    pub lo: [f64; 3],
    /// Per-axis maxima.
    pub hi: [f64; 3],
}

impl Aabb {
    /// The empty box (inverted bounds).
    pub fn empty() -> Self {
        Aabb {
            lo: [f64::INFINITY; 3],
            hi: [f64::NEG_INFINITY; 3],
        }
    }

    /// Grow to include `p`.
    pub fn include(&mut self, p: [f64; 3]) {
        for d in 0..3 {
            self.lo[d] = self.lo[d].min(p[d]);
            self.hi[d] = self.hi[d].max(p[d]);
        }
    }

    /// Minimum squared distance from `p` to this box (0 if inside).
    pub fn min_dist2_point(&self, p: [f64; 3]) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let v = if p[d] < self.lo[d] {
                self.lo[d] - p[d]
            } else if p[d] > self.hi[d] {
                p[d] - self.hi[d]
            } else {
                0.0
            };
            d2 += v * v;
        }
        d2
    }

    /// Maximum squared distance from `p` to any point of this box.
    pub fn max_dist2_point(&self, p: [f64; 3]) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let v = (p[d] - self.lo[d]).abs().max((p[d] - self.hi[d]).abs());
            d2 += v * v;
        }
        d2
    }

    /// Minimum squared distance between two boxes (0 if overlapping).
    pub fn min_dist2_box(&self, other: &Aabb) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let v = if other.hi[d] < self.lo[d] {
                self.lo[d] - other.hi[d]
            } else if other.lo[d] > self.hi[d] {
                other.lo[d] - self.hi[d]
            } else {
                0.0
            };
            d2 += v * v;
        }
        d2
    }

    /// Longest side length.
    pub fn longest_side(&self) -> f64 {
        (0..3).map(|d| self.hi[d] - self.lo[d]).fold(0.0, f64::max)
    }
}

/// A node of the tree: either a leaf holding a contiguous slice of reordered
/// particle indices, or an internal node with two children.
#[derive(Debug, Clone)]
pub struct KdNode {
    /// Bounding box of all particles below this node.
    pub bbox: Aabb,
    /// Total mass below this node.
    pub mass: f64,
    /// Range into the reordered index array.
    pub start: usize,
    /// One past the end of the range.
    pub end: usize,
    /// Children `(left, right)` node ids, or `None` for leaves.
    pub children: Option<(usize, usize)>,
}

/// Balanced k-d tree. Points are referenced by index into the caller's
/// [`Coords`]; the tree stores a reordering.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    /// Particle indices, reordered so each node's range is contiguous.
    order: Vec<u32>,
}

/// Leaf capacity: below this, nodes stay leaves.
pub const LEAF_SIZE: usize = 24;

impl KdTree {
    /// Build over packed coordinate columns (with unit masses when `masses`
    /// is `None`). The median select touches only the split axis' column.
    pub fn build(coords: &Coords, masses: Option<&[f64]>) -> Self {
        let n = coords.len();
        if let Some(m) = masses {
            assert_eq!(m.len(), n, "one mass per position");
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        if n > 0 {
            Self::build_node(coords, masses, &mut order, 0, n, &mut nodes);
        }
        KdTree { nodes, order }
    }

    fn build_node(
        coords: &Coords,
        masses: Option<&[f64]>,
        order: &mut [u32],
        start: usize,
        end: usize,
        nodes: &mut Vec<KdNode>,
    ) -> usize {
        let (xs, ys, zs) = (coords.xs(), coords.ys(), coords.zs());
        let mut bbox = Aabb::empty();
        let mut mass = 0.0;
        for &i in &order[start..end] {
            let i = i as usize;
            bbox.include([xs[i], ys[i], zs[i]]);
            mass += masses.map_or(1.0, |m| m[i]);
        }
        let id = nodes.len();
        nodes.push(KdNode {
            bbox,
            mass,
            start,
            end,
            children: None,
        });
        if end - start > LEAF_SIZE {
            // Split on the widest axis at the median (balanced tree).
            let axis = (0..3)
                .max_by(|&a, &b| {
                    (bbox.hi[a] - bbox.lo[a])
                        .partial_cmp(&(bbox.hi[b] - bbox.lo[b]))
                        .unwrap()
                })
                .unwrap();
            let ax = coords.axis(axis);
            let mid = (start + end) / 2;
            order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
                ax[a as usize].partial_cmp(&ax[b as usize]).unwrap()
            });
            let left = Self::build_node(coords, masses, order, start, mid, nodes);
            let right = Self::build_node(coords, masses, order, mid, end, nodes);
            nodes[id].children = Some((left, right));
        }
        id
    }

    /// Number of indexed particles.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the tree indexes no particles.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Root node id (panics on empty tree).
    pub fn root(&self) -> usize {
        assert!(!self.nodes.is_empty(), "empty tree has no root");
        0
    }

    /// Node accessor.
    pub fn node(&self, id: usize) -> &KdNode {
        &self.nodes[id]
    }

    /// The particle indices under `node`, in tree order.
    pub fn indices(&self, node: &KdNode) -> &[u32] {
        &self.order[node.start..node.end]
    }

    /// The `k` nearest neighbours of `query` (including the query point
    /// itself if it is in the tree). Returns `(index, dist²)` sorted by
    /// distance, ties broken by index among the neighbours found.
    pub fn k_nearest(&self, coords: &Coords, query: [f64; 3], k: usize) -> Vec<(u32, f64)> {
        if self.nodes.is_empty() || k == 0 {
            return Vec::new();
        }
        let (xs, ys, zs) = (coords.xs(), coords.ys(), coords.zs());
        // Max-heap of current best k (keyed on dist²).
        let mut heap: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
        let worst = |h: &Vec<(f64, u32)>| {
            if h.len() < k {
                f64::INFINITY
            } else {
                h.iter().map(|e| e.0).fold(0.0, f64::max)
            }
        };
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            if node.bbox.min_dist2_point(query) > worst(&heap) {
                continue;
            }
            match node.children {
                Some((l, r)) => {
                    // Visit the closer child first for better pruning.
                    let dl = self.nodes[l].bbox.min_dist2_point(query);
                    let dr = self.nodes[r].bbox.min_dist2_point(query);
                    if dl < dr {
                        stack.push(r);
                        stack.push(l);
                    } else {
                        stack.push(l);
                        stack.push(r);
                    }
                }
                None => {
                    for &i in self.indices(node) {
                        let j = i as usize;
                        let d2 = (xs[j] - query[0]).powi(2)
                            + (ys[j] - query[1]).powi(2)
                            + (zs[j] - query[2]).powi(2);
                        if d2 < worst(&heap) || heap.len() < k {
                            heap.push((d2, i));
                            if heap.len() > k {
                                // Drop the farthest.
                                let (mi, _) = heap
                                    .iter()
                                    .enumerate()
                                    .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                                    .unwrap();
                                heap.swap_remove(mi);
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<(u32, f64)> = heap.into_iter().map(|(d2, i)| (i, d2)).collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize) -> Coords {
        let rows: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let t = i as f64;
                [
                    (t * 0.618_034).fract() * 100.0,
                    (t * 0.414_214).fract() * 100.0,
                    (t * 0.732_051).fract() * 100.0,
                ]
            })
            .collect();
        Coords::from_rows(&rows)
    }

    #[test]
    fn aabb_distances() {
        let mut b = Aabb::empty();
        b.include([0.0, 0.0, 0.0]);
        b.include([2.0, 2.0, 2.0]);
        assert_eq!(b.min_dist2_point([1.0, 1.0, 1.0]), 0.0);
        assert_eq!(b.min_dist2_point([4.0, 1.0, 1.0]), 4.0);
        assert_eq!(b.max_dist2_point([0.0, 0.0, 0.0]), 12.0);
        assert_eq!(b.longest_side(), 2.0);
        let mut c = Aabb::empty();
        c.include([5.0, 0.0, 0.0]);
        c.include([6.0, 2.0, 2.0]);
        assert_eq!(b.min_dist2_box(&c), 9.0);
        assert_eq!(c.min_dist2_box(&b), 9.0);
    }

    #[test]
    fn builds_balanced_over_random_cloud() {
        let pos = cloud(10_000);
        let tree = KdTree::build(&pos, None);
        assert_eq!(tree.len(), 10_000);
        let root = tree.node(tree.root());
        assert_eq!(root.start, 0);
        assert_eq!(root.end, 10_000);
        assert_eq!(root.mass, 10_000.0);
        // Every index appears exactly once.
        let mut idx: Vec<u32> = tree.indices(root).to_vec();
        idx.sort_unstable();
        assert_eq!(idx, (0..10_000u32).collect::<Vec<_>>());
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let pos = cloud(1500);
        let tree = KdTree::build(&pos, None);
        let q = pos.get(42);
        let k = 16;
        let got = tree.k_nearest(&pos, q, k);
        let mut all: Vec<(u32, f64)> = (0..pos.len() as u32)
            .map(|i| {
                let p = pos.get(i as usize);
                let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
                (i, d2)
            })
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        assert_eq!(got.len(), k);
        for (g, e) in got.iter().zip(&all) {
            assert!((g.1 - e.1).abs() < 1e-12);
        }
        // The query point itself is the nearest (distance 0).
        assert_eq!(got[0].0, 42);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let pos = cloud(5);
        let tree = KdTree::build(&pos, None);
        let got = tree.k_nearest(&pos, pos.get(0), 10);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn empty_tree_queries() {
        let tree = KdTree::build(&Coords::new(), None);
        assert!(tree.is_empty());
        assert!(tree.k_nearest(&Coords::new(), [0.0; 3], 3).is_empty());
    }

    #[test]
    fn masses_accumulate_up_the_tree() {
        let pos = cloud(100);
        let masses: Vec<f64> = (0..100).map(|i| (i % 3 + 1) as f64).collect();
        let total: f64 = masses.iter().sum();
        let tree = KdTree::build(&pos, Some(&masses));
        assert!((tree.node(tree.root()).mass - total).abs() < 1e-9);
        if let Some((l, r)) = tree.node(tree.root()).children {
            let sum = tree.node(l).mass + tree.node(r).mass;
            assert!((sum - total).abs() < 1e-9);
        }
    }
}
