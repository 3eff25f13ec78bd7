//! The clustering output: the event-space partition `S_1..S_n` plus the
//! catch-all `S_0`.

use pubsub_geom::{CellId, Grid, Point};

use crate::ClusterError;

/// A partition of the event space into `n` group regions and the implicit
/// remainder `S_0 = Ω \ ∪S_q`.
///
/// Each region `S_q` is a union of grid cells; a published event maps to a
/// group by locating its cell. Events outside the grid, or in cells not
/// assigned to any group, belong to `S_0` (delivered by unicast).
#[derive(Debug, Clone, PartialEq)]
pub struct SpacePartition {
    grid: Grid,
    /// Per cell: group index, or `u32::MAX` for `S_0`.
    assignment: Vec<u32>,
    groups: usize,
}

const UNASSIGNED: u32 = u32::MAX;

impl SpacePartition {
    /// Builds a partition from per-group cell lists.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if a cell id is out of range
    /// for the grid or appears in more than one group (the `S_q` must be
    /// non-overlapping).
    pub fn from_clusters(grid: Grid, clusters: &[Vec<CellId>]) -> Result<Self, ClusterError> {
        let mut assignment = vec![UNASSIGNED; grid.cell_count()];
        for (q, cells) in clusters.iter().enumerate() {
            for &cell in cells {
                if cell.0 >= assignment.len() {
                    return Err(ClusterError::InvalidConfig {
                        parameter: "clusters",
                        constraint: "cell ids must be within the grid",
                    });
                }
                if assignment[cell.0] != UNASSIGNED {
                    return Err(ClusterError::InvalidConfig {
                        parameter: "clusters",
                        constraint: "groups must be disjoint",
                    });
                }
                assignment[cell.0] = q as u32;
            }
        }
        Ok(SpacePartition {
            grid,
            assignment,
            groups: clusters.len(),
        })
    }

    /// The grid the partition is defined over.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of groups `n` (not counting `S_0`).
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// The group whose region contains the event, or `None` for `S_0`.
    pub fn group_of_point(&self, p: &Point) -> Option<usize> {
        let cell = self.grid.cell_of_point(p)?;
        self.group_of_cell(cell)
    }

    /// The group a cell is assigned to, or `None` for `S_0`.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of range.
    pub fn group_of_cell(&self, cell: CellId) -> Option<usize> {
        match self.assignment[cell.0] {
            UNASSIGNED => None,
            q => Some(q as usize),
        }
    }

    /// The cells of group `q`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.group_count()`.
    pub fn cells_of_group(&self, q: usize) -> Vec<CellId> {
        assert!(q < self.groups, "group index out of range");
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == q as u32)
            .map(|(i, _)| CellId(i))
            .collect()
    }

    /// Number of cells assigned to any group (the rest are `S_0`).
    pub fn assigned_cell_count(&self) -> usize {
        self.assignment.iter().filter(|&&a| a != UNASSIGNED).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_geom::Rect;

    fn grid() -> Grid {
        Grid::uniform(Rect::from_corners(&[0.0, 0.0], &[4.0, 4.0]).unwrap(), 2).unwrap()
    }

    #[test]
    fn point_lookup_respects_assignment() {
        let g = grid();
        let c00 = g.id_of_coords(&[0, 0]);
        let c11 = g.id_of_coords(&[1, 1]);
        let part = SpacePartition::from_clusters(g, &[vec![c00], vec![c11]]).unwrap();
        assert_eq!(part.group_count(), 2);
        let p = Point::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(part.group_of_point(&p), Some(0));
        let p2 = Point::new(vec![3.0, 3.0]).unwrap();
        assert_eq!(part.group_of_point(&p2), Some(1));
        // Unassigned cell -> S0.
        let p3 = Point::new(vec![3.0, 1.0]).unwrap();
        assert_eq!(part.group_of_point(&p3), None);
        // Outside the grid -> S0.
        let p4 = Point::new(vec![100.0, 100.0]).unwrap();
        assert_eq!(part.group_of_point(&p4), None);
    }

    #[test]
    fn overlap_and_range_checks() {
        let g = grid();
        let c = g.id_of_coords(&[0, 0]);
        assert!(SpacePartition::from_clusters(g.clone(), &[vec![c], vec![c]]).is_err());
        assert!(SpacePartition::from_clusters(g, &[vec![CellId(999)]]).is_err());
    }

    #[test]
    fn cells_of_group_and_counts() {
        let g = grid();
        let cells = vec![g.id_of_coords(&[0, 0]), g.id_of_coords(&[0, 1])];
        let part = SpacePartition::from_clusters(g, &[cells.clone(), vec![]]).unwrap();
        let mut want = cells;
        want.sort();
        assert_eq!(part.cells_of_group(0), want);
        assert!(part.cells_of_group(1).is_empty());
        assert_eq!(part.assigned_cell_count(), 2);
    }

    #[test]
    #[should_panic(expected = "group index out of range")]
    fn cells_of_group_out_of_range_panics() {
        let part = SpacePartition::from_clusters(grid(), &[]).unwrap();
        let _ = part.cells_of_group(0);
    }
}
