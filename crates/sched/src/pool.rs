//! The shared node pool: racks, free sets and placement policies.
//!
//! Rack structure comes from the platform's interconnect topology
//! ([`sim_net::Shape`]): a fat tree's leaf radix partitions nodes into
//! racks behind shared uplinks; a single switch is one big rack. The pool
//! is a thin stateful wrapper over a [`Hierarchy`] and a free
//! [`ProcSet`]; placement decides which free nodes a job gets, which in
//! turn decides which jobs share links — and therefore who pays
//! contention (see [`crate::site`]).

use crate::error::SchedError;
use crate::hierarchy::Hierarchy;
use crate::slot::ProcSet;
use sim_net::topology::Shape;
use sim_platform::ClusterSpec;

/// How a job's nodes are chosen from the free pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Lowest-numbered free nodes first. Dense, cache-friendly for the
    /// scheduler, incidentally rack-local for small jobs.
    Packed,
    /// One node per rack, round-robin — the worst case for link sharing,
    /// kept as the contention foil (and as what naive load balancers do).
    Scattered,
    /// Topology-aware: an idle rack that fits first (no co-tenants on the
    /// leaf switch at all), else the best-fitting single rack, else the
    /// fewest racks. Minimizes shared links.
    RackAware,
    /// Single rack or nothing: like `RackAware` but refuses to spill, so a
    /// fragmented free set can fail a request that raw capacity admits.
    /// The only policy for which placement constrains feasibility.
    RackStrict,
}

impl PlacementPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Packed => "packed",
            PlacementPolicy::Scattered => "scattered",
            PlacementPolicy::RackAware => "rack-aware",
            PlacementPolicy::RackStrict => "rack-strict",
        }
    }
}

/// A pool of identical nodes grouped into racks of `rack_size`.
#[derive(Debug, Clone)]
pub struct NodePool {
    hier: Hierarchy,
    free: ProcSet,
}

impl NodePool {
    pub fn new(nodes: usize, rack_size: usize) -> NodePool {
        let hier = Hierarchy::new(nodes.max(1), rack_size.max(1), 1);
        let free = hier.site();
        NodePool { hier, free }
    }

    /// Derive the pool from a platform preset: fat-tree leaf radix =
    /// rack size; a single switch is one rack. Cores per node ride along
    /// from the node spec so the hierarchy's leaf level is real.
    pub fn from_cluster(cluster: &ClusterSpec) -> NodePool {
        let rack_size = match cluster.topology.shape {
            Shape::SingleSwitch => cluster.nodes.max(1),
            Shape::FatTree { radix, .. } => radix.max(1),
        };
        let hier = Hierarchy::new(
            cluster.nodes.max(1),
            rack_size,
            cluster.node.logical_cores().max(1),
        );
        let free = hier.site();
        NodePool { hier, free }
    }

    /// A modeled partition of `nodes` nodes with the cluster's rack
    /// granularity: fat-tree leaf radix racks, or one big rack behind a
    /// single switch. Not capped at the preset's testbed size — schedulers
    /// are studied on partitions scaled to the job mix, keeping only the
    /// platform's topology *character*.
    pub fn partition_of(cluster: &ClusterSpec, nodes: usize) -> NodePool {
        let rack_size = match cluster.topology.shape {
            Shape::SingleSwitch => nodes.max(1),
            Shape::FatTree { radix, .. } => radix.max(1),
        };
        let hier = Hierarchy::new(nodes.max(1), rack_size, cluster.node.logical_cores().max(1));
        let free = hier.site();
        NodePool { hier, free }
    }

    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    pub fn nodes(&self) -> usize {
        self.hier.nodes()
    }

    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    pub fn rack_of(&self, node: usize) -> usize {
        self.hier.rack_of(node)
    }

    pub fn n_racks(&self) -> usize {
        self.hier.n_racks()
    }

    /// Sorted, deduplicated rack ids spanned by a node set.
    pub fn racks_of(&self, nodes: &[usize]) -> Vec<usize> {
        self.hier.racks_of(nodes)
    }

    /// Allocate `n` free nodes under `policy`. For the preference-shaping
    /// policies this succeeds whenever `free_count >= n`; `RackStrict` can
    /// additionally fail on fragmentation, and every failure is a typed
    /// [`SchedError`] instead of a panic in the caller.
    pub fn alloc(&mut self, n: usize, policy: PlacementPolicy) -> Result<Vec<usize>, SchedError> {
        let candidates = self.free.clone();
        self.alloc_from(n, policy, &candidates)
    }

    /// Allocate `n` nodes under `policy`, restricted to `candidates` — the
    /// slot-set engine passes the hard availability intersected over the
    /// job's whole window here. `candidates` not currently free are
    /// ignored.
    pub fn alloc_from(
        &mut self,
        n: usize,
        policy: PlacementPolicy,
        candidates: &ProcSet,
    ) -> Result<Vec<usize>, SchedError> {
        let avail = self.free.intersect(candidates);
        let picked = self.hier.select(&avail, n, policy)?;
        self.free = self.free.difference(&ProcSet::from_ids(&picked));
        Ok(picked)
    }

    pub fn release(&mut self, nodes: &[usize]) {
        let released = ProcSet::from_ids(nodes);
        debug_assert!(self.free.intersect(&released).is_empty());
        self.free = self.free.union(&released);
    }
}

/// Whether two placements contend for interconnect links: they share a
/// rack (its leaf switch), or both span racks (both load the spine).
pub fn share_links(racks_a: &[usize], racks_b: &[usize]) -> bool {
    if racks_a.len() > 1 && racks_b.len() > 1 {
        return true;
    }
    // Both sorted: linear intersection test.
    let (mut i, mut j) = (0, 0);
    while i < racks_a.len() && j < racks_b.len() {
        match racks_a[i].cmp(&racks_b[j]) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_fills_low_nodes() {
        let mut p = NodePool::new(16, 4);
        assert_eq!(p.alloc(3, PlacementPolicy::Packed).unwrap(), vec![0, 1, 2]);
        assert_eq!(p.alloc(2, PlacementPolicy::Packed).unwrap(), vec![3, 4]);
        assert_eq!(p.free_count(), 11);
    }

    #[test]
    fn scattered_spreads_one_per_rack_first() {
        let mut p = NodePool::new(16, 4);
        let got = p.alloc(4, PlacementPolicy::Scattered).unwrap();
        assert_eq!(got, vec![0, 4, 8, 12]);
        assert_eq!(p.racks_of(&got).len(), 4);
    }

    #[test]
    fn rack_aware_prefers_an_idle_rack() {
        let mut p = NodePool::new(16, 4);
        // Occupy half of rack 0: racks 1..3 are idle, rack 0 has a hole.
        let first = p.alloc(2, PlacementPolicy::Packed).unwrap();
        let got = p.alloc(3, PlacementPolicy::RackAware).unwrap();
        assert_eq!(p.racks_of(&got), vec![1]);
        // The next small job avoids both occupied racks: fresh leaf switch.
        let small = p.alloc(2, PlacementPolicy::RackAware).unwrap();
        assert_eq!(p.racks_of(&small), vec![2]);
        // With no idle rack left that fits 4, best-fit lands in rack 3 and
        // then the next job must reuse rack 0's hole.
        let wide = p.alloc(4, PlacementPolicy::RackAware).unwrap();
        assert_eq!(p.racks_of(&wide), vec![3]);
        let hole = p.alloc(2, PlacementPolicy::RackAware).unwrap();
        assert_eq!(p.racks_of(&hole), vec![0]);
        p.release(&first);
        p.release(&got);
        p.release(&small);
        p.release(&wide);
        p.release(&hole);
        assert_eq!(p.free_count(), 16);
    }

    #[test]
    fn rack_aware_spills_over_fewest_racks() {
        let mut p = NodePool::new(16, 4);
        let wide = p.alloc(6, PlacementPolicy::RackAware).unwrap();
        assert_eq!(p.racks_of(&wide).len(), 2);
    }

    #[test]
    fn alloc_always_succeeds_when_nodes_suffice() {
        for policy in [
            PlacementPolicy::Packed,
            PlacementPolicy::Scattered,
            PlacementPolicy::RackAware,
        ] {
            let mut p = NodePool::new(13, 4); // ragged final rack
            let a = p.alloc(7, policy).unwrap();
            let b = p.alloc(6, policy).unwrap();
            assert!(p.alloc(1, policy).is_err());
            p.release(&a);
            p.release(&b);
            assert_eq!(p.free_count(), 13);
        }
    }

    #[test]
    fn rack_strict_errors_on_fragmentation_instead_of_spilling() {
        let mut p = NodePool::new(8, 4);
        // Leave holes of 2 in each rack: 4 free total, no rack has 3.
        let a = p.alloc(2, PlacementPolicy::Packed).unwrap(); // [0, 1]
        let b = p
            .alloc_from(3, PlacementPolicy::Packed, &ProcSet::range(4, 7))
            .unwrap(); // [4, 5, 6]
        assert_eq!(p.free_count(), 3);
        // RackAware happily spills; RackStrict reports the fragmentation.
        let err = p.alloc(3, PlacementPolicy::RackStrict).unwrap_err();
        assert_eq!(
            err,
            SchedError::PlacementUnsatisfiable {
                need: 3,
                policy: "rack-strict",
                free: 3,
            }
        );
        let ok = p.alloc(2, PlacementPolicy::RackStrict).unwrap();
        assert_eq!(p.racks_of(&ok).len(), 1);
        p.release(&a);
        p.release(&b);
        p.release(&ok);
        assert_eq!(p.free_count(), 8);
    }

    #[test]
    fn alloc_from_respects_the_candidate_set() {
        let mut p = NodePool::new(16, 4);
        let got = p
            .alloc_from(2, PlacementPolicy::Packed, &ProcSet::range(8, 15))
            .unwrap();
        assert_eq!(got, vec![8, 9]);
        let err = p
            .alloc_from(9, PlacementPolicy::Packed, &ProcSet::range(8, 15))
            .unwrap_err();
        assert!(matches!(
            err,
            SchedError::PlacementUnsatisfiable { free: 6, .. }
        ));
    }

    #[test]
    fn link_sharing_rules() {
        assert!(share_links(&[0], &[0]));
        assert!(!share_links(&[0], &[1]));
        assert!(share_links(&[0, 1], &[2, 3]), "both span the spine");
        assert!(share_links(&[0, 1], &[1]));
        assert!(!share_links(&[2], &[3]));
    }
}
