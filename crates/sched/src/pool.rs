//! The site's static rack map and its placement policies.
//!
//! Rack structure comes from the platform's interconnect topology
//! ([`sim_net::Shape`]): a fat tree's leaf radix partitions nodes into
//! racks behind shared uplinks; a single switch is one big rack. A
//! [`ProcSet`] id is a node index.
//!
//! The pool holds no availability. The slot set ([`crate::slot::SlotSet`])
//! is the scheduler's only record of which nodes are free when; a
//! placement policy chooses concrete nodes *from a `ProcSet`* of
//! candidates the slot-set engine hands it (the availability intersected
//! over the job's whole window), so a choice made now can never collide
//! with a maintenance window or a pinned reservation later. Placement
//! decides which jobs share links, and therefore who pays contention
//! (see [`crate::site`]).

use crate::error::SchedError;
use crate::slot::ProcSet;
use sim_net::topology::Shape;
use sim_platform::ClusterSpec;

/// How a job's nodes are chosen from its candidate nodes.
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

/// The static shape of one site: `nodes` identical nodes in racks of
/// `rack_size` (the final rack may be ragged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePool {
    nodes: usize,
    rack_size: usize,
}

impl NodePool {
    pub fn new(nodes: usize, rack_size: usize) -> NodePool {
        NodePool {
            nodes: nodes.max(1),
            rack_size: rack_size.max(1),
        }
    }

    /// A modeled partition of `nodes` nodes with the cluster's rack
    /// granularity: fat-tree leaf radix racks, or one big rack behind a
    /// single switch. Not capped at the preset's testbed size — schedulers
    /// are studied on partitions scaled to the job mix, keeping only the
    /// platform's topology *character*.
    pub fn partition_of(cluster: &ClusterSpec, nodes: usize) -> NodePool {
        let rack_size = match cluster.topology.shape {
            Shape::SingleSwitch => nodes,
            Shape::FatTree { radix, .. } => radix,
        };
        NodePool::new(nodes, rack_size)
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn rack_size(&self) -> usize {
        self.rack_size
    }

    /// The whole site as a proc set.
    pub fn site(&self) -> ProcSet {
        ProcSet::range(0, self.nodes - 1)
    }

    pub fn rack_of(&self, node: usize) -> usize {
        node / self.rack_size
    }

    pub fn n_racks(&self) -> usize {
        self.nodes.div_ceil(self.rack_size)
    }

    /// Physical width of rack `r` (the final rack may be ragged).
    pub fn rack_capacity(&self, r: usize) -> usize {
        (self.nodes - r * self.rack_size).min(self.rack_size)
    }

    /// The nodes of rack `r` as a proc set.
    pub fn rack_set(&self, r: usize) -> ProcSet {
        let lo = r * self.rack_size;
        let hi = (lo + self.rack_size).min(self.nodes) - 1;
        ProcSet::range(lo, hi)
    }

    /// Sorted, deduplicated rack ids spanned by a node list.
    pub fn racks_of(&self, nodes: &[usize]) -> Vec<usize> {
        let mut racks: Vec<usize> = nodes.iter().map(|&n| self.rack_of(n)).collect();
        racks.sort_unstable();
        racks.dedup();
        racks
    }

    /// Whether `policy` can carve `n` nodes out of `avail` at all. For the
    /// preference-shaping policies this is just `avail.len() >= n`; only
    /// [`PlacementPolicy::RackStrict`] turns preference into feasibility
    /// (the job must fit inside one rack's available nodes).
    pub fn feasible(&self, avail: &ProcSet, n: usize, policy: PlacementPolicy) -> bool {
        if n == 0 || avail.len() < n {
            return n == 0;
        }
        match policy {
            PlacementPolicy::RackStrict => {
                (0..self.n_racks()).any(|r| avail.intersect(&self.rack_set(r)).len() >= n)
            }
            _ => true,
        }
    }

    /// Choose `n` nodes from `avail` under `policy`. Preference orders are
    /// byte-identical to the historical free-list pickers; only
    /// `RackStrict` can fail when `avail.len() >= n` (fragmentation), and
    /// then it fails typed instead of panicking.
    pub fn select(
        &self,
        avail: &ProcSet,
        n: usize,
        policy: PlacementPolicy,
    ) -> Result<Vec<usize>, SchedError> {
        if n == 0 || n > avail.len() {
            return Err(SchedError::PlacementUnsatisfiable {
                need: n,
                policy: policy.name(),
                free: avail.len(),
            });
        }
        let picked = match policy {
            PlacementPolicy::Packed => avail.iter().take(n).collect(),
            PlacementPolicy::Scattered => self.pick_scattered(avail, n),
            PlacementPolicy::RackAware => self.pick_rack_aware(avail, n),
            PlacementPolicy::RackStrict => {
                self.pick_rack_strict(avail, n)
                    .ok_or(SchedError::PlacementUnsatisfiable {
                        need: n,
                        policy: policy.name(),
                        free: avail.len(),
                    })?
            }
        };
        debug_assert_eq!(picked.len(), n);
        Ok(picked)
    }

    fn pick_scattered(&self, avail: &ProcSet, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        // Round-robin across racks: offset-major traversal takes at most
        // one node per rack per sweep.
        for offset in 0..self.rack_size {
            for rack in 0..self.n_racks() {
                let node = rack * self.rack_size + offset;
                if node < self.nodes && avail.contains(node) {
                    out.push(node);
                    if out.len() == n {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn free_per_rack(&self, avail: &ProcSet) -> Vec<usize> {
        let mut free = vec![0usize; self.n_racks()];
        for node in avail.iter() {
            free[self.rack_of(node)] += 1;
        }
        free
    }

    /// The one rack that takes all `n` nodes, if any. An idle rack avoids
    /// leaf-switch co-tenancy entirely; failing that, best-fit into an
    /// occupied rack (the fullest one that still takes the whole job,
    /// keeping big holes intact for wide jobs).
    fn single_rack(&self, free_per_rack: &[usize], n: usize) -> Option<usize> {
        let fits = || (0..self.n_racks()).filter(|&r| free_per_rack[r] >= n);
        fits()
            .filter(|&r| free_per_rack[r] == self.rack_capacity(r))
            .min_by_key(|&r| free_per_rack[r])
            .or_else(|| fits().min_by_key(|&r| free_per_rack[r]))
    }

    fn pick_rack_aware(&self, avail: &ProcSet, n: usize) -> Vec<usize> {
        let n_racks = self.n_racks();
        let free_per_rack = self.free_per_rack(avail);
        let rack_order: Vec<usize> = match self.single_rack(&free_per_rack, n) {
            Some(r) => {
                let mut order = vec![r];
                order.extend((0..n_racks).filter(|&x| x != r));
                order
            }
            None => {
                // Spill across the fewest racks: emptiest racks first.
                let mut order: Vec<usize> = (0..n_racks).collect();
                order.sort_by_key(|&r| std::cmp::Reverse(free_per_rack[r]));
                order
            }
        };
        let mut out = Vec::with_capacity(n);
        for rack in rack_order {
            let lo = rack * self.rack_size;
            let hi = (lo + self.rack_size).min(self.nodes);
            for node in lo..hi {
                if avail.contains(node) {
                    out.push(node);
                    if out.len() == n {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Single-rack-or-nothing: the [`NodePool::single_rack`] choice.
    /// `None` when no single rack holds `n` available nodes — the
    /// fragmentation case `RackAware` spills over and this policy refuses.
    fn pick_rack_strict(&self, avail: &ProcSet, n: usize) -> Option<Vec<usize>> {
        let rack = self.single_rack(&self.free_per_rack(avail), n)?;
        Some(
            avail
                .intersect(&self.rack_set(rack))
                .iter()
                .take(n)
                .collect(),
        )
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

    /// Pick `n` nodes from `avail` and take them out of it, as a start
    /// takes them out of the slot set.
    fn take(p: &NodePool, avail: &mut ProcSet, n: usize, policy: PlacementPolicy) -> Vec<usize> {
        let got = p.select(avail, n, policy).unwrap();
        *avail = avail.difference(&ProcSet::from_ids(&got));
        got
    }

    #[test]
    fn rack_map_shape() {
        let p = NodePool::new(13, 4);
        assert_eq!(p.n_racks(), 4);
        assert_eq!(p.rack_capacity(0), 4);
        assert_eq!(p.rack_capacity(3), 1, "ragged final rack");
        assert_eq!(p.rack_set(1), ProcSet::range(4, 7));
        assert_eq!(p.site().len(), 13);
        assert_eq!(p.racks_of(&[0, 5, 6, 12]), vec![0, 1, 3]);
    }

    #[test]
    fn packed_fills_low_nodes() {
        let p = NodePool::new(16, 4);
        let mut avail = p.site();
        assert_eq!(take(&p, &mut avail, 3, PlacementPolicy::Packed), [0, 1, 2]);
        assert_eq!(take(&p, &mut avail, 2, PlacementPolicy::Packed), [3, 4]);
    }

    #[test]
    fn scattered_spreads_one_per_rack_first() {
        let p = NodePool::new(16, 4);
        let got = p.select(&p.site(), 4, PlacementPolicy::Scattered).unwrap();
        assert_eq!(got, vec![0, 4, 8, 12]);
        assert_eq!(p.racks_of(&got).len(), 4);
    }

    #[test]
    fn rack_aware_prefers_an_idle_rack() {
        let p = NodePool::new(16, 4);
        let mut avail = p.site();
        // Occupy half of rack 0: racks 1..3 are idle, rack 0 has a hole.
        take(&p, &mut avail, 2, PlacementPolicy::Packed);
        let got = take(&p, &mut avail, 3, PlacementPolicy::RackAware);
        assert_eq!(p.racks_of(&got), vec![1]);
        // The next small job avoids both occupied racks: fresh leaf switch.
        let small = take(&p, &mut avail, 2, PlacementPolicy::RackAware);
        assert_eq!(p.racks_of(&small), vec![2]);
        // With no idle rack left that fits 4, best-fit lands in rack 3 and
        // then the next job must reuse rack 0's hole.
        let wide = take(&p, &mut avail, 4, PlacementPolicy::RackAware);
        assert_eq!(p.racks_of(&wide), vec![3]);
        let hole = take(&p, &mut avail, 2, PlacementPolicy::RackAware);
        assert_eq!(p.racks_of(&hole), vec![0]);
    }

    #[test]
    fn rack_aware_spills_over_fewest_racks() {
        let p = NodePool::new(16, 4);
        let wide = p.select(&p.site(), 6, PlacementPolicy::RackAware).unwrap();
        assert_eq!(p.racks_of(&wide).len(), 2);
    }

    #[test]
    fn select_succeeds_whenever_the_candidates_suffice() {
        for policy in [
            PlacementPolicy::Packed,
            PlacementPolicy::Scattered,
            PlacementPolicy::RackAware,
        ] {
            let p = NodePool::new(13, 4); // ragged final rack
            let mut avail = p.site();
            take(&p, &mut avail, 7, policy);
            take(&p, &mut avail, 6, policy);
            assert!(p.select(&avail, 1, policy).is_err());
        }
    }

    #[test]
    fn rack_strict_fails_typed_on_fragmentation() {
        let p = NodePool::new(8, 4);
        // Two free nodes in each rack: capacity admits 3, no rack does.
        let avail = ProcSet::from_ids(&[2, 3, 6, 7]);
        assert!(p.feasible(&avail, 2, PlacementPolicy::RackStrict));
        assert!(!p.feasible(&avail, 3, PlacementPolicy::RackStrict));
        assert!(p.feasible(&avail, 3, PlacementPolicy::RackAware));
        assert_eq!(
            p.select(&avail, 3, PlacementPolicy::RackStrict),
            Err(SchedError::PlacementUnsatisfiable {
                need: 3,
                policy: "rack-strict",
                free: 4,
            })
        );
        assert_eq!(
            p.select(&avail, 2, PlacementPolicy::RackStrict).unwrap(),
            vec![2, 3],
            "best-fit lands in the fuller rack's hole"
        );
        // RackAware spills over the same holes.
        let spilled = p.select(&avail, 3, PlacementPolicy::RackAware).unwrap();
        assert_eq!(p.racks_of(&spilled).len(), 2);
    }

    #[test]
    fn select_picks_only_from_its_candidates() {
        let p = NodePool::new(16, 4);
        let cand = ProcSet::range(8, 15);
        assert_eq!(
            p.select(&cand, 2, PlacementPolicy::Packed).unwrap(),
            vec![8, 9]
        );
        assert_eq!(
            p.select(&cand, 9, PlacementPolicy::Packed),
            Err(SchedError::PlacementUnsatisfiable {
                need: 9,
                policy: "packed",
                free: 8,
            })
        );
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
