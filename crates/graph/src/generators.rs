//! Synthetic graph generators.
//!
//! The paper's Figure 3 uses the California road network. Road networks are
//! characterised by low average degree (≈2.5), near-planar structure and large
//! diameter, which is what makes SSSP on them priority-queue-bound. Lacking
//! the original data set (see the substitution table in `DESIGN.md`), we
//! generate graphs with the same characteristics:
//!
//! * [`grid_graph`] — a √N×√N grid with random weights: planar, degree ≤ 4,
//!   diameter Θ(√N); the closest simple analogue of a road network.
//! * [`random_geometric_graph`] — nodes scattered in the unit square and
//!   connected when within a radius: the standard road-network surrogate.
//! * [`random_graph`] — an Erdős–Rényi-style graph used by tests and by the
//!   low-diameter contrast experiments.

use rank_stats::rng::{RandomSource, Xoshiro256};

use crate::graph::{Graph, GraphBuilder, NodeId, Weight};

/// Generates a `width × height` grid graph with undirected edges between
/// horizontal/vertical neighbours and weights uniform in `[1, max_weight]`.
///
/// # Panics
///
/// Panics if `width`, `height` or `max_weight` is zero.
pub fn grid_graph(width: usize, height: usize, max_weight: Weight, seed: u64) -> Graph {
    assert!(width > 0 && height > 0, "grid dimensions must be positive");
    assert!(max_weight > 0, "max weight must be positive");
    let mut rng = Xoshiro256::seeded(seed);
    let mut builder = GraphBuilder::new(width * height);
    let id = |x: usize, y: usize| (y * width + x) as NodeId;
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                let w = 1 + rng.next_below(max_weight as u64) as Weight;
                builder.add_undirected_edge(id(x, y), id(x + 1, y), w);
            }
            if y + 1 < height {
                let w = 1 + rng.next_below(max_weight as u64) as Weight;
                builder.add_undirected_edge(id(x, y), id(x, y + 1), w);
            }
        }
    }
    builder.build()
}

/// Generates a random geometric graph: `nodes` points uniform in the unit
/// square, connected (undirected) when within Euclidean distance `radius`,
/// with the edge weight equal to the rounded distance scaled to
/// `[1, max_weight]`.
///
/// A radius around `sqrt(3 / nodes)` gives average degree ≈ 9·π/3 ≈ 9 before
/// thinning; road-like sparsity is obtained with `radius ≈ sqrt(1.5/nodes)`.
///
/// # Panics
///
/// Panics if `nodes == 0`, `radius` is not in `(0, 1]`, or `max_weight == 0`.
pub fn random_geometric_graph(nodes: usize, radius: f64, max_weight: Weight, seed: u64) -> Graph {
    assert!(nodes > 0, "need at least one node");
    assert!(radius > 0.0 && radius <= 1.0, "radius must be in (0, 1]");
    assert!(max_weight > 0, "max weight must be positive");
    let mut rng = Xoshiro256::seeded(seed);
    let points: Vec<(f64, f64)> = (0..nodes)
        .map(|_| (rng.next_f64(), rng.next_f64()))
        .collect();
    // Bucket points into a grid of cell size `radius` so neighbour search is
    // near-linear instead of quadratic.
    let cells_per_side = (1.0 / radius).ceil().max(1.0) as usize;
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 * cells_per_side as f64) as usize).min(cells_per_side - 1);
        let cy = ((p.1 * cells_per_side as f64) as usize).min(cells_per_side - 1);
        (cx, cy)
    };
    let mut buckets = vec![Vec::new(); cells_per_side * cells_per_side];
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        buckets[cy * cells_per_side + cx].push(i);
    }
    let mut builder = GraphBuilder::new(nodes);
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        // Scan the 3x3 neighbourhood of the point's cell.
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                let nx = cx as isize + dx;
                let ny = cy as isize + dy;
                if nx < 0
                    || ny < 0
                    || nx >= cells_per_side as isize
                    || ny >= cells_per_side as isize
                {
                    continue;
                }
                for &j in &buckets[ny as usize * cells_per_side + nx as usize] {
                    if j <= i {
                        continue; // add each undirected edge once
                    }
                    let q = points[j];
                    let dist = ((p.0 - q.0).powi(2) + (p.1 - q.1).powi(2)).sqrt();
                    if dist <= radius {
                        let w = 1 + ((dist / radius) * (max_weight - 1) as f64).round() as Weight;
                        builder.add_undirected_edge(i as NodeId, j as NodeId, w);
                    }
                }
            }
        }
    }
    builder.build()
}

/// Generates a directed Erdős–Rényi-style graph with `nodes` nodes and
/// `edges` uniformly random directed edges (self-loops excluded) with weights
/// uniform in `[1, max_weight]`.
///
/// # Panics
///
/// Panics if `nodes < 2` or `max_weight == 0`.
pub fn random_graph(nodes: usize, edges: usize, max_weight: Weight, seed: u64) -> Graph {
    assert!(nodes >= 2, "need at least two nodes");
    assert!(max_weight > 0, "max weight must be positive");
    let mut rng = Xoshiro256::seeded(seed);
    let mut builder = GraphBuilder::new(nodes);
    for _ in 0..edges {
        let (u, v) = rng.next_two_distinct(nodes);
        let w = 1 + rng.next_below(max_weight as u64) as Weight;
        builder.add_edge(u as NodeId, v as NodeId, w);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(g: &Graph) -> impl Iterator<Item = Weight> + '_ {
        (0..g.nodes() as NodeId).flat_map(|u| g.neighbors(u).map(|(_, w)| w))
    }

    #[test]
    fn grid_graph_shape() {
        let g = grid_graph(10, 8, 100, 1);
        assert_eq!(g.nodes(), 80);
        // Undirected edges: horizontal 9*8 + vertical 10*7 = 142, doubled.
        assert_eq!(g.edges(), 2 * (9 * 8 + 10 * 7));
        // Interior nodes have degree 4, corners 2.
        assert_eq!(g.degree(0), 2);
        assert!(weights(&g).all(|w| (1..=100).contains(&w)));
    }

    #[test]
    fn grid_graph_is_deterministic() {
        assert_eq!(grid_graph(5, 5, 10, 3), grid_graph(5, 5, 10, 3));
        assert_ne!(grid_graph(5, 5, 10, 3), grid_graph(5, 5, 10, 4));
    }

    #[test]
    fn geometric_graph_is_road_like() {
        let nodes = 2_000;
        let g = random_geometric_graph(nodes, (1.5 / nodes as f64).sqrt(), 50, 7);
        assert_eq!(g.nodes(), nodes);
        let avg_degree = g.edges() as f64 / nodes as f64;
        assert!(
            avg_degree > 0.5 && avg_degree < 12.0,
            "average degree {avg_degree} should be sparse/road-like"
        );
        assert!(weights(&g).all(|w| (1..=50).contains(&w)));
    }

    #[test]
    fn geometric_graph_edges_are_symmetric() {
        let g = random_geometric_graph(300, 0.1, 10, 11);
        for u in 0..g.nodes() as NodeId {
            for (v, w) in g.neighbors(u) {
                assert!(
                    g.neighbors(v).any(|(back, bw)| back == u && bw == w),
                    "edge {u}->{v} missing its reverse"
                );
            }
        }
    }

    #[test]
    fn random_graph_counts() {
        let g = random_graph(50, 400, 20, 9);
        assert_eq!(g.nodes(), 50);
        assert_eq!(g.edges(), 400);
        // No self loops.
        for u in 0..50u32 {
            assert!(g.neighbors(u).all(|(v, _)| v != u));
        }
    }

    #[test]
    #[should_panic(expected = "radius must be in (0, 1]")]
    fn bad_radius_panics() {
        let _ = random_geometric_graph(10, 0.0, 5, 0);
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn zero_grid_panics() {
        let _ = grid_graph(0, 5, 5, 0);
    }

    #[test]
    #[should_panic(expected = "need at least two nodes")]
    fn tiny_random_graph_panics() {
        let _ = random_graph(1, 5, 5, 0);
    }
}
