//! Plan-DAG validation.
//!
//! Encoded plans carry their operator tree twice: as explicit child
//! lists (consumed by the node-aware attention layer) and as signed
//! adjacency rows inside the structure-embedding block (children `+1`,
//! parent `−1`). The model silently mispredicts — or panics inside a
//! kernel — if either is corrupt, so this module checks the invariants
//! the encoding relies on:
//!
//! * every child index is in range and **precedes** its parent
//!   (bottom-up topological order, which also rules out cycles),
//! * no duplicated child edges, no node with two parents,
//! * exactly one root (a node that is nobody's child), and it is the
//!   last node — the execution order the LSTM consumes ends at the root,
//! * every `+1` child entry in a signed adjacency row has the matching
//!   `−1` entry in the child's row, and no stray non-zero entries exist.
//!
//! [`validate_children`] checks the child lists alone;
//! [`validate_signed_rows`] additionally cross-checks the structure
//! block against them (entries beyond the encoder's `max_nodes`
//! truncation are exempt, matching how the encoder emits them).

use std::fmt;
use std::ops::Range;

/// A structural defect in a plan DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// The plan has no nodes.
    Empty,
    /// A child index is not a valid node id.
    ChildOutOfRange {
        /// Referring node.
        node: usize,
        /// Offending child id.
        child: usize,
        /// Number of nodes in the plan.
        len: usize,
    },
    /// A child does not precede its parent — a forward reference or a
    /// cycle; either way execution order is undefined.
    NotTopological {
        /// Referring node.
        node: usize,
        /// Offending child id (`>= node`).
        child: usize,
    },
    /// The same child appears twice under one parent.
    DuplicateChild {
        /// Referring node.
        node: usize,
        /// Duplicated child id.
        child: usize,
    },
    /// A node is claimed as a child by two different parents.
    MultipleParents {
        /// The contested node.
        node: usize,
        /// First claiming parent.
        first: usize,
        /// Second claiming parent.
        second: usize,
    },
    /// More than one node has no parent (an orphan subtree).
    MultipleRoots {
        /// First parentless node.
        first: usize,
        /// Second parentless node.
        second: usize,
    },
    /// The unique root is not the last node in execution order.
    RootNotLast {
        /// The parentless node.
        root: usize,
        /// Index of the last node.
        last: usize,
    },
    /// A signed adjacency row has `+1` at a column that is not one of
    /// the node's children (an orphan child entry).
    OrphanChildEntry {
        /// Row (node) index.
        node: usize,
        /// Offending column.
        col: usize,
    },
    /// A child's row is missing the `−1` entry pointing back at its
    /// parent (every `+1` must be mirrored by a `−1`).
    MissingParentEntry {
        /// The child whose row is wrong.
        child: usize,
        /// The parent the row should point at.
        parent: usize,
    },
    /// The number of signed adjacency rows differs from the number of
    /// nodes.
    RowCount {
        /// Rows given.
        rows: usize,
        /// Nodes in the child lists.
        nodes: usize,
    },
    /// A signed adjacency entry is neither `0`, `+1` nor `−1`.
    BadEntry {
        /// Row (node) index.
        node: usize,
        /// Offending column.
        col: usize,
        /// The value found.
        value: f32,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "plan has no nodes"),
            DagError::ChildOutOfRange { node, child, len } => {
                write!(f, "node {node} lists child {child}, but the plan has {len} nodes")
            }
            DagError::NotTopological { node, child } => write!(
                f,
                "node {node} lists child {child} which does not precede it \
                 (forward reference or cycle breaks topological order)"
            ),
            DagError::DuplicateChild { node, child } => {
                write!(f, "node {node} lists child {child} twice")
            }
            DagError::MultipleParents { node, first, second } => {
                write!(f, "node {node} has two parents: {first} and {second}")
            }
            DagError::MultipleRoots { first, second } => {
                write!(f, "plan has multiple roots: nodes {first} and {second} are parentless")
            }
            DagError::RootNotLast { root, last } => write!(
                f,
                "root is node {root} but execution order ends at node {last} \
                 (the root must be last)"
            ),
            DagError::OrphanChildEntry { node, col } => write!(
                f,
                "signed adjacency row {node} has +1 at column {col}, \
                 which is not one of its children"
            ),
            DagError::MissingParentEntry { child, parent } => write!(
                f,
                "signed adjacency row {child} is missing the -1 entry for its parent {parent}"
            ),
            DagError::RowCount { rows, nodes } => {
                write!(f, "{rows} signed adjacency rows for a plan of {nodes} nodes")
            }
            DagError::BadEntry { node, col, value } => write!(
                f,
                "signed adjacency row {node} column {col} holds {value}, expected 0, +1 or -1"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// Validates the child lists of a plan: in-range, strictly preceding,
/// duplicate-free, single-parent, and a unique root that is the last
/// node. `children[i]` lists the ids of node `i`'s inputs.
pub fn validate_children(children: &[Vec<usize>]) -> Result<(), DagError> {
    parent_map(children).map(drop)
}

/// [`validate_children`], returning each node's parent on success.
fn parent_map(children: &[Vec<usize>]) -> Result<Vec<Option<usize>>, DagError> {
    let n = children.len();
    if n == 0 {
        return Err(DagError::Empty);
    }
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for (node, kids) in children.iter().enumerate() {
        for (i, &child) in kids.iter().enumerate() {
            if child >= n {
                return Err(DagError::ChildOutOfRange { node, child, len: n });
            }
            if child >= node {
                return Err(DagError::NotTopological { node, child });
            }
            if kids.iter().take(i).any(|&earlier| earlier == child) {
                return Err(DagError::DuplicateChild { node, child });
            }
            if let Some(slot) = parent.get_mut(child) {
                if let Some(first) = *slot {
                    return Err(DagError::MultipleParents { node: child, first, second: node });
                }
                *slot = Some(node);
            }
        }
    }
    // Edges only point backwards, so the last node is always parentless
    // and `roots` yields at least one node.
    let mut roots = parent.iter().enumerate().filter(|(_, p)| p.is_none()).map(|(i, _)| i);
    match (roots.next(), roots.next()) {
        (Some(first), Some(second)) => Err(DagError::MultipleRoots { first, second }),
        (Some(root), None) if root != n - 1 => Err(DagError::RootNotLast { root, last: n - 1 }),
        _ => Ok(parent),
    }
}

/// Cross-checks signed adjacency rows against the child lists.
///
/// Node `i`'s structure row is `rows[i].as_ref()[cols]`, clipped to the
/// row's length, so the rows may be whole feature rows with the
/// structure block at some offset, checked in place. Only that window
/// is inspected: the encoder truncates plans longer than its
/// `max_nodes` to it, so out-of-window relations legitimately vanish.
/// The child lists must also satisfy [`validate_children`].
pub fn validate_signed_rows<R: AsRef<[f32]>>(
    children: &[Vec<usize>],
    rows: &[R],
    cols: Range<usize>,
) -> Result<(), DagError> {
    let parent = parent_map(children)?;
    if rows.len() != children.len() {
        return Err(DagError::RowCount { rows: rows.len(), nodes: children.len() });
    }
    let width = cols.len();

    for ((node, row), (kids, &up)) in rows.iter().enumerate().zip(children.iter().zip(&parent)) {
        for (col, &v) in clip(row.as_ref(), &cols).iter().enumerate() {
            let is_child = kids.contains(&col);
            if v == 1.0 {
                if !is_child {
                    return Err(DagError::OrphanChildEntry { node, col });
                }
            } else if v == -1.0 {
                if up != Some(col) {
                    // A -1 at a non-parent column means the rows and the
                    // child lists disagree about who points at whom.
                    return Err(DagError::OrphanChildEntry { node, col });
                }
            } else if v != 0.0 {
                return Err(DagError::BadEntry { node, col, value: v });
            } else if is_child {
                // The child edge exists but the row says nothing: the +1
                // entry was lost (within the visible window).
                return Err(DagError::OrphanChildEntry { node, col });
            }
        }
        // Every +1 child entry must be mirrored by the child's -1: check
        // from the child lists so a zeroed child row is caught.
        if node < width {
            for &c in kids {
                let entry = rows.get(c).and_then(|crow| clip(crow.as_ref(), &cols).get(node));
                if entry.is_some_and(|&v| v != -1.0) {
                    return Err(DagError::MissingParentEntry { child: c, parent: node });
                }
            }
        }
    }
    Ok(())
}

/// `row[cols]`, clipped to the row's length.
fn clip<'a>(row: &'a [f32], cols: &Range<usize>) -> &'a [f32] {
    row.get(cols.start.min(row.len())..cols.end.min(row.len()))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// scan -> filter -> agg chain plus a two-child join root.
    fn valid_children() -> Vec<Vec<usize>> {
        vec![vec![], vec![0], vec![], vec![1, 2]]
    }

    fn rows_for(children: &[Vec<usize>], width: usize) -> Vec<Vec<f32>> {
        let n = children.len();
        let mut parent = vec![None; n];
        for (i, kids) in children.iter().enumerate() {
            for &c in kids {
                parent[c] = Some(i);
            }
        }
        (0..n)
            .map(|i| {
                let mut row = vec![0.0f32; width];
                for &c in &children[i] {
                    if c < width {
                        row[c] = 1.0;
                    }
                }
                if let Some(p) = parent[i] {
                    if p < width {
                        row[p] = -1.0;
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn valid_tree_passes() {
        validate_children(&valid_children()).unwrap();
        let rows = rows_for(&valid_children(), 8);
        validate_signed_rows(&valid_children(), &rows, 0..8).unwrap();
    }

    #[test]
    fn single_node_plan_passes() {
        validate_children(&[vec![]]).unwrap();
    }

    #[test]
    fn empty_plan_rejected() {
        assert_eq!(validate_children(&[]), Err(DagError::Empty));
    }

    #[test]
    fn cycle_rejected_as_topology_violation() {
        // 0 -> 1 -> 0: node 0 references the later node 1.
        let children = vec![vec![1], vec![0]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::NotTopological { node: 0, child: 1 })
        );
    }

    #[test]
    fn self_loop_rejected() {
        let children = vec![vec![], vec![1]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::NotTopological { node: 1, child: 1 })
        );
    }

    #[test]
    fn out_of_range_child_rejected() {
        let children = vec![vec![], vec![7]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::ChildOutOfRange { node: 1, child: 7, len: 2 })
        );
    }

    #[test]
    fn duplicated_root_rejected() {
        // Nodes 1 and 2 are both parentless: two roots.
        let children = vec![vec![], vec![0], vec![]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::MultipleRoots { first: 1, second: 2 })
        );
    }

    #[test]
    fn double_parent_rejected() {
        let children = vec![vec![], vec![0], vec![0, 1]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::MultipleParents { node: 0, first: 1, second: 2 })
        );
    }

    #[test]
    fn duplicate_child_rejected() {
        let children = vec![vec![], vec![0, 0]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::DuplicateChild { node: 1, child: 0 })
        );
    }

    #[test]
    fn orphan_adjacency_entry_rejected() {
        let children = valid_children();
        let mut rows = rows_for(&children, 8);
        rows[0][2] = 1.0; // claims a child it does not have
        assert_eq!(
            validate_signed_rows(&children, &rows, 0..8),
            Err(DagError::OrphanChildEntry { node: 0, col: 2 })
        );
    }

    #[test]
    fn missing_parent_entry_rejected() {
        let children = valid_children();
        let mut rows = rows_for(&children, 8);
        rows[1][3] = 0.0; // child 1 forgets its parent 3
        assert_eq!(
            validate_signed_rows(&children, &rows, 0..8),
            Err(DagError::MissingParentEntry { child: 1, parent: 3 })
        );
    }

    #[test]
    fn non_unit_entry_rejected() {
        let children = valid_children();
        let mut rows = rows_for(&children, 8);
        rows[3][0] = 0.5;
        assert_eq!(
            validate_signed_rows(&children, &rows, 0..8),
            Err(DagError::BadEntry { node: 3, col: 0, value: 0.5 })
        );
    }

    #[test]
    fn truncated_rows_are_exempt_beyond_window() {
        // Width-2 window: node 3's edges to 1 and 2 fall partly outside.
        let children = valid_children();
        let rows = rows_for(&children, 2);
        validate_signed_rows(&children, &rows, 0..2).unwrap();
    }

    #[test]
    fn structure_block_is_checked_in_place_at_an_offset() {
        // Whole feature rows: 3 leading features, the width-8 block, 2
        // trailing ones; the check must read only the block.
        let children = valid_children();
        let mut rows: Vec<Vec<f32>> = rows_for(&children, 8)
            .into_iter()
            .map(|block| [vec![0.5; 3], block, vec![7.0; 2]].concat())
            .collect();
        let slices: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        validate_signed_rows(&children, &slices, 3..11).unwrap();
        rows[1][3 + 3] = 0.0; // child 1 forgets its parent 3
        assert_eq!(
            validate_signed_rows(&children, &rows, 3..11),
            Err(DagError::MissingParentEntry { child: 1, parent: 3 })
        );
    }

    #[test]
    fn row_count_mismatch_is_an_error_not_a_panic() {
        let children = valid_children();
        let rows = rows_for(&children, 8);
        assert_eq!(
            validate_signed_rows(&children, &rows[..3], 0..8),
            Err(DagError::RowCount { rows: 3, nodes: 4 })
        );
    }

    #[test]
    fn errors_render_precise_messages() {
        let e = DagError::NotTopological { node: 0, child: 1 };
        assert!(e.to_string().contains("cycle"));
        let e = DagError::MultipleRoots { first: 1, second: 2 };
        assert!(e.to_string().contains("multiple roots"));
    }
}
