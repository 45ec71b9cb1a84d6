//! Compressed-sparse-row weighted directed graph.

/// Node identifier (index into the graph's node range).
pub type NodeId = u32;

/// Edge weight. Weights are non-negative integers, as in road networks where
/// they encode travel times or distances.
pub type Weight = u32;

/// A weighted directed graph in CSR form.
///
/// Construction goes through [`GraphBuilder`] (or [`Graph::from_edges`]);
/// the finished graph is immutable and cheap to share across threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`/`weights` for node `v`.
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
}

impl Graph {
    /// Builds a graph from an edge list over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn from_edges(nodes: usize, edges: &[(NodeId, NodeId, Weight)]) -> Self {
        let mut builder = GraphBuilder::new(nodes);
        for &(u, v, w) in edges {
            builder.add_edge(u, v, w);
        }
        builder.build()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// Iterates over the outgoing `(target, weight)` pairs of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let node = node as usize;
        assert!(node < self.nodes(), "node {node} out of range");
        let range = self.offsets[node]..self.offsets[node + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        let node = node as usize;
        self.offsets[node + 1] - self.offsets[node]
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|&w| w as u64).sum()
    }
}

/// Incremental builder for [`Graph`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    nodes: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Adds a directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: Weight) -> &mut Self {
        assert!(
            (from as usize) < self.nodes && (to as usize) < self.nodes,
            "edge ({from},{to}) out of range for {} nodes",
            self.nodes
        );
        self.edges.push((from, to, weight));
        self
    }

    /// Adds an undirected edge (two directed edges).
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId, weight: Weight) -> &mut Self {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight)
    }

    /// Number of directed edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the CSR representation.
    pub fn build(&self) -> Graph {
        let mut degree = vec![0usize; self.nodes];
        for &(u, _, _) in &self.edges {
            degree[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.nodes + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; self.edges.len()];
        let mut weights = vec![0 as Weight; self.edges.len()];
        for &(u, v, w) in &self.edges {
            let slot = cursor[u as usize];
            targets[slot] = v;
            weights[slot] = w;
            cursor[u as usize] += 1;
        }
        Graph {
            offsets,
            targets,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 1 -> 3 (6), 2 -> 3 (3)
        Graph::from_edges(4, &[(0, 1, 1), (0, 2, 4), (1, 2, 2), (1, 3, 6), (2, 3, 3)])
    }

    #[test]
    fn csr_structure() {
        let g = diamond();
        assert_eq!(g.nodes(), 4);
        assert_eq!(g.edges(), 5);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        let n0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 1), (2, 4)]);
        let n3: Vec<_> = g.neighbors(3).collect();
        assert!(n3.is_empty());
        assert_eq!(g.total_weight(), 16);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(3, &[]);
        assert_eq!(g.nodes(), 3);
        assert_eq!(g.edges(), 0);
        assert_eq!(g.neighbors(2).count(), 0);
    }

    #[test]
    fn builder_undirected_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(0, 1, 5).add_undirected_edge(1, 2, 7);
        assert_eq!(b.edge_count(), 4);
        let g = b.build();
        assert_eq!(g.degree(1), 2);
        let mut n1: Vec<_> = g.neighbors(1).collect();
        n1.sort_unstable();
        assert_eq!(n1, vec![(0, 5), (2, 7)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_neighbors_panics() {
        let g = diamond();
        let _ = g.neighbors(10).count();
    }

    #[test]
    fn parallel_edges_and_self_loops_are_allowed() {
        let g = Graph::from_edges(2, &[(0, 1, 1), (0, 1, 2), (1, 1, 3)]);
        assert_eq!(g.edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![(1, 3)]);
    }
}
