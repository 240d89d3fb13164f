//! Connected components over edge lists (undirected semantics).
//!
//! The final Exa.TrkX stage removes edges the GNN classified as fake and
//! labels each remaining component as one candidate particle track.

use crate::union_find::UnionFind;

/// Component label per vertex via union-find.
pub fn connected_components(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut uf = UnionFind::new(n);
    for &(a, b) in edges {
        uf.union(a, b);
    }
    uf.labels()
}

/// BFS reference implementation (used to cross-check union-find in tests
/// and small inputs).
pub fn connected_components_bfs(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        labels[start] = next;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v as usize] {
                if labels[w as usize] == u32::MAX {
                    labels[w as usize] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_components() {
        let labels = connected_components(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[4]);
    }

    #[test]
    fn agrees_with_bfs() {
        let edges = [(0u32, 3u32), (3, 7), (1, 2), (5, 6), (6, 1)];
        let a = connected_components(9, &edges);
        let b = connected_components_bfs(9, &edges);
        // Same partition up to relabelling: compare pairwise equivalence.
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(a[i] == a[j], b[i] == b[j], "vertices {i},{j}");
            }
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(connected_components(0, &[]), Vec::<u32>::new());
        let labels = connected_components(3, &[]);
        assert_eq!(labels, vec![0, 1, 2]);
    }
}
