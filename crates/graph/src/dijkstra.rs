//! Sequential shortest-path references.
//!
//! These are the two exact oracles the parallel relaxed-queue SSSP is
//! validated against: classic Dijkstra with a binary heap, and Bellman–Ford
//! as an independent, queue-free cross-check used by the property tests.

use seq_pq::{BinaryHeap, SequentialPriorityQueue};

use crate::graph::{Graph, NodeId};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: u64 = u64::MAX;

/// Classic Dijkstra with a binary heap. Returns the distance from `source` to
/// every node (`UNREACHABLE` for nodes not reachable from `source`).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn dijkstra(graph: &Graph, source: NodeId) -> Vec<u64> {
    assert!((source as usize) < graph.nodes(), "source out of range");
    let mut dist = vec![UNREACHABLE; graph.nodes()];
    let mut heap: BinaryHeap<NodeId> = BinaryHeap::with_capacity(graph.nodes());
    dist[source as usize] = 0;
    heap.push(0, source);
    while let Some((d, node)) = heap.pop() {
        if d > dist[node as usize] {
            continue; // stale entry
        }
        for (next, weight) in graph.neighbors(node) {
            let candidate = d + weight as u64;
            if candidate < dist[next as usize] {
                dist[next as usize] = candidate;
                heap.push(candidate, next);
            }
        }
    }
    dist
}

/// Bellman–Ford; `O(V·E)` but queue-free, used as an independent oracle.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bellman_ford(graph: &Graph, source: NodeId) -> Vec<u64> {
    assert!((source as usize) < graph.nodes(), "source out of range");
    let mut dist = vec![UNREACHABLE; graph.nodes()];
    dist[source as usize] = 0;
    for _ in 0..graph.nodes() {
        let mut changed = false;
        for u in 0..graph.nodes() as NodeId {
            let du = dist[u as usize];
            if du == UNREACHABLE {
                continue;
            }
            for (v, w) in graph.neighbors(u) {
                let candidate = du + w as u64;
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_graph;
    use crate::graph::Graph;
    use proptest::prelude::*;

    fn diamond() -> Graph {
        Graph::from_edges(4, &[(0, 1, 1), (0, 2, 4), (1, 2, 2), (1, 3, 6), (2, 3, 3)])
    }

    #[test]
    fn dijkstra_on_known_graph() {
        let g = diamond();
        assert_eq!(dijkstra(&g, 0), vec![0, 1, 3, 6]);
        assert_eq!(
            dijkstra(&g, 3),
            vec![UNREACHABLE, UNREACHABLE, UNREACHABLE, 0]
        );
    }

    #[test]
    fn bellman_ford_matches_dijkstra() {
        let g = random_graph(60, 400, 25, 3);
        assert_eq!(bellman_ford(&g, 0), dijkstra(&g, 0));
    }

    #[test]
    fn unreachable_nodes_are_marked() {
        // Node 2 has no incoming edges from node 0's component.
        let g = Graph::from_edges(3, &[(0, 1, 5)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0, 5, UNREACHABLE]);
    }

    #[test]
    fn zero_weight_edges_are_handled() {
        let g = Graph::from_edges(3, &[(0, 1, 0), (1, 2, 0)]);
        assert_eq!(dijkstra(&g, 0), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_panics() {
        let _ = dijkstra(&diamond(), 9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_all_variants_agree(nodes in 2usize..40, extra_edges in 0usize..200, seed in 0u64..500) {
            let g = random_graph(nodes, nodes + extra_edges, 20, seed);
            prop_assert_eq!(dijkstra(&g, 0), bellman_ford(&g, 0));
        }

        #[test]
        fn prop_triangle_inequality(nodes in 2usize..30, seed in 0u64..500) {
            // For every edge (u, v, w): dist[v] <= dist[u] + w.
            let g = random_graph(nodes, nodes * 3, 15, seed);
            let dist = dijkstra(&g, 0);
            for u in 0..nodes as NodeId {
                if dist[u as usize] == UNREACHABLE { continue; }
                for (v, w) in g.neighbors(u) {
                    prop_assert!(dist[v as usize] <= dist[u as usize] + w as u64);
                }
            }
        }
    }
}
