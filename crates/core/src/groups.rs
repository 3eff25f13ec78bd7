//! Multicast group materialization: `M_q = {v ∈ V_S : ∃j b_vj ∩ S_q ≠ ∅}`.

use pubsub_clustering::{GridModel, SpacePartition};
use pubsub_netsim::NodeId;

/// The multicast groups induced by a space partition: group `q` contains
/// every subscriber with a subscription intersecting region `S_q`.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastGroups {
    groups: Vec<Vec<NodeId>>,
}

impl MulticastGroups {
    /// Builds the groups from the clustering model and partition.
    ///
    /// `node_of` maps the model's dense subscriber indices back to
    /// topology nodes.
    ///
    /// # Panics
    ///
    /// Panics if a subscriber index has no mapping (the caller built both
    /// structures, so this is a programming error, not an input error).
    pub fn from_partition(
        model: &GridModel,
        partition: &SpacePartition,
        node_of: &[NodeId],
    ) -> Self {
        let mut groups = Vec::with_capacity(partition.group_count());
        for q in 0..partition.group_count() {
            let mut members = pubsub_clustering::SubscriberSet::new(model.subscriber_count());
            for cell in partition.cells_of_group(q) {
                members.union_with(model.members(cell));
            }
            let mut nodes: Vec<NodeId> = members.iter().map(|i| node_of[i]).collect();
            nodes.sort_unstable();
            nodes.dedup();
            groups.push(nodes);
        }
        MulticastGroups { groups }
    }

    /// Builds the groups from raw member lists (one per group); members
    /// are sorted and deduplicated. This is the churn-maintenance
    /// constructor: the broker re-materializes only the groups whose
    /// membership changed and reuses the rest.
    pub fn from_members(members: Vec<Vec<NodeId>>) -> Self {
        let mut groups = members;
        for nodes in &mut groups {
            nodes.sort_unstable();
            nodes.dedup();
        }
        MulticastGroups { groups }
    }

    /// Number of groups `n`.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` if there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Members of group `q`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn members(&self, q: usize) -> &[NodeId] {
        &self.groups[q]
    }

    /// Sizes of all groups.
    pub fn sizes(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_clustering::GridModel;
    use pubsub_geom::{Grid, Rect};

    #[test]
    fn groups_union_cell_memberships() {
        let grid = Grid::uniform(Rect::from_corners(&[0.0], &[4.0]).unwrap(), 4).unwrap();
        // Subscriber 0 -> cells 0-1, subscriber 1 -> cells 2-3, subscriber
        // 2 -> everything.
        let subs = vec![
            (0usize, Rect::from_corners(&[0.0], &[2.0]).unwrap()),
            (1usize, Rect::from_corners(&[2.0], &[4.0]).unwrap()),
            (2usize, Rect::from_corners(&[0.0], &[4.0]).unwrap()),
        ];
        let model = GridModel::build(grid.clone(), 3, &subs, |_| 0.25).unwrap();
        let clusters = vec![
            vec![grid.id_of_coords(&[0]), grid.id_of_coords(&[1])],
            vec![grid.id_of_coords(&[2]), grid.id_of_coords(&[3])],
        ];
        let partition = SpacePartition::from_clusters(grid, &clusters).unwrap();
        let node_of = [NodeId(10), NodeId(20), NodeId(30)];
        let groups = MulticastGroups::from_partition(&model, &partition, &node_of);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.members(0), &[NodeId(10), NodeId(30)]);
        assert_eq!(groups.members(1), &[NodeId(20), NodeId(30)]);
        assert_eq!(groups.sizes(), vec![2, 2]);
        assert!(!groups.is_empty());
    }

    #[test]
    fn duplicate_nodes_are_merged() {
        // Two subscriber indices mapping to the same node appear once.
        let grid = Grid::uniform(Rect::from_corners(&[0.0], &[2.0]).unwrap(), 2).unwrap();
        let subs = vec![
            (0usize, Rect::from_corners(&[0.0], &[2.0]).unwrap()),
            (1usize, Rect::from_corners(&[0.0], &[2.0]).unwrap()),
        ];
        let model = GridModel::build(grid.clone(), 2, &subs, |_| 0.5).unwrap();
        let clusters = vec![vec![grid.id_of_coords(&[0]), grid.id_of_coords(&[1])]];
        let partition = SpacePartition::from_clusters(grid, &clusters).unwrap();
        let groups = MulticastGroups::from_partition(&model, &partition, &[NodeId(5), NodeId(5)]);
        assert_eq!(groups.members(0), &[NodeId(5)]);
    }
}
