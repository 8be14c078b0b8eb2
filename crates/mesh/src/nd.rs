//! Geometric nested-dissection orderings.
//!
//! A sparse Cholesky factor of a Q2 operator fills in along the natural
//! ordering's full `nx·ny` bandwidth. Nested dissection numbers each half
//! of the node box before the node plane that separates them, so the fill
//! of one half never reaches the other (DESIGN.md §15). On the structured
//! node grid the separators come from the geometry: a node plane at an even
//! index is an element boundary, so no Q2 element couples the two halves.

use crate::StructuredMesh;

/// Boxes with at most this many nodes are numbered in natural order.
const LEAF_NODES: usize = 8;

/// Nested-dissection order of the mesh dofs, `bs` interleaved dofs per
/// node: `order[new] = old`. Dof order is kept within each node.
pub fn nested_dissection_order(mesh: &StructuredMesh, bs: usize) -> Vec<u32> {
    let (nx, ny, nz) = mesh.node_dims();
    assert!(
        nx * ny * nz * bs <= u32::MAX as usize,
        "dof count exceeds u32"
    );
    nested_dissection_nodes([nx, ny, nz])
        .into_iter()
        .flat_map(|n| (0..bs).map(move |c| (bs * n + c) as u32))
        .collect()
}

/// Nested-dissection order of an x-fastest node grid of `dims` nodes:
/// `order[new] = old` node index.
fn nested_dissection_nodes(dims: [usize; 3]) -> Vec<usize> {
    let mut order = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
    dissect(dims, [0; 3], dims, &mut order);
    order
}

/// The even node index nearest the middle of `lo..hi` that leaves nodes on
/// both sides, if any.
fn separator_index(lo: usize, hi: usize) -> Option<usize> {
    let mid = (lo + hi - 1) / 2;
    let even = mid - mid % 2;
    [even, even + 2].into_iter().find(|&s| lo < s && s + 1 < hi)
}

fn dissect(dims: [usize; 3], lo: [usize; 3], hi: [usize; 3], out: &mut Vec<usize>) {
    let count = (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
    // Longest axis that has a separator plane; ties go to the later axis.
    let split = (0..3)
        .filter_map(|a| separator_index(lo[a], hi[a]).map(|s| (hi[a] - lo[a], a, s)))
        .max();
    match split {
        Some((_, a, s)) if count > LEAF_NODES => {
            let (mut left_hi, mut right_lo, mut sep_lo, mut sep_hi) = (hi, lo, lo, hi);
            left_hi[a] = s;
            right_lo[a] = s + 1;
            (sep_lo[a], sep_hi[a]) = (s, s + 1);
            dissect(dims, lo, left_hi, out);
            dissect(dims, right_lo, hi, out);
            dissect_leaf(dims, sep_lo, sep_hi, out);
        }
        _ => dissect_leaf(dims, lo, hi, out),
    }
}

/// Natural (x-fastest) order of the nodes of a box.
fn dissect_leaf(dims: [usize; 3], lo: [usize; 3], hi: [usize; 3], out: &mut Vec<usize>) {
    for k in lo[2]..hi[2] {
        for j in lo[1]..hi[1] {
            out.extend((lo[0]..hi[0]).map(|i| i + dims[0] * (j + dims[1] * k)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `order` back into the dissection it claims to be: either the
    /// natural order of the box, or left half, right half, then a full node
    /// plane at an interior even index. Returns the number of separators.
    fn check_box(dims: [usize; 3], lo: [usize; 3], hi: [usize; 3], order: &[usize]) -> usize {
        let ijk = |n: usize| {
            [
                n % dims[0],
                (n / dims[0]) % dims[1],
                n / (dims[0] * dims[1]),
            ]
        };
        let len = |a: usize| hi[a] - lo[a];
        assert_eq!(order.len(), len(0) * len(1) * len(2));
        for a in 0..3 {
            let plane = order.len() / len(a);
            let tail = &order[order.len() - plane..];
            let s = ijk(tail[0])[a];
            let Some(sep) = separator_index(lo[a], hi[a]).filter(|&sep| sep == s) else {
                continue;
            };
            if !tail.iter().all(|&n| ijk(n)[a] == sep) {
                continue;
            }
            assert_eq!(sep % 2, 0, "separator off an element boundary");
            let (mut left_hi, mut right_lo) = (hi, lo);
            left_hi[a] = sep;
            right_lo[a] = sep + 1;
            let nleft = order.len() / len(a) * (sep - lo[a]);
            return 1
                + check_box(dims, lo, left_hi, &order[..nleft])
                + check_box(dims, right_lo, hi, &order[nleft..order.len() - plane]);
        }
        let mut natural = Vec::new();
        dissect_leaf(dims, lo, hi, &mut natural);
        assert_eq!(order, &natural[..], "leaf box not in natural order");
        0
    }

    #[test]
    fn order_is_a_dissection_with_element_boundary_separators() {
        // Odd node counts (any mesh), even node counts (a bare node grid),
        // and a one-element-thick coarse mesh.
        for dims in [
            [9, 9, 9],
            [17, 3, 9],
            [9, 3, 9],
            [7, 5, 11],
            [8, 6, 10],
            [4, 9, 2],
        ] {
            let order = nested_dissection_nodes(dims);
            let mut seen = vec![false; dims[0] * dims[1] * dims[2]];
            for &n in &order {
                assert!(!seen[n], "{dims:?}: node {n} numbered twice");
                seen[n] = true;
            }
            assert!(seen.iter().all(|&s| s), "{dims:?}: not a permutation");
            let seps = check_box(dims, [0; 3], dims, &order);
            assert!(seps > 0, "{dims:?}: no dissection happened");
        }
    }

    #[test]
    fn dof_order_expands_each_node_in_place() {
        let mesh = StructuredMesh::new_box(2, 1, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let nodes = nested_dissection_nodes([5, 3, 7]);
        let dofs = nested_dissection_order(&mesh, 3);
        assert_eq!(dofs.len(), 3 * mesh.num_nodes());
        for (k, &n) in nodes.iter().enumerate() {
            for c in 0..3 {
                assert_eq!(dofs[3 * k + c] as usize, 3 * n + c);
            }
        }
    }
}
