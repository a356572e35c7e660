//! Models of the four systems used in the paper's evaluation (Table 2),
//! plus the heterogeneous island fat tree the schedule-synthesis layer is
//! exercised on.

use bine_net::topology::Topology;

/// Which modelled system a configuration targets: the paper's four plus
/// the synthetic heterogeneous island fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// LUMI: 24-group Slingshot Dragonfly, 124 nodes per group (Sec. 5.1).
    Lumi,
    /// Leonardo: 23-group Dragonfly+, 180 nodes per group (Sec. 5.2).
    Leonardo,
    /// MareNostrum 5: 2:1 oversubscribed fat tree, 160-node subtrees (Sec. 5.3).
    MareNostrum5,
    /// Fugaku: 6D torus, evaluated on 3D sub-tori (Sec. 5.4).
    Fugaku,
    /// HeteroFat: 16-node islands with thin shared uplinks
    /// ([`bine_net::topology::FatTree::hetero_island`]) — the committed
    /// heterogeneous target of the schedule synthesizers.
    HeteroFat,
}

/// An evaluation target: node counts, vector sizes and a topology factory.
#[derive(Debug, Clone)]
pub struct System {
    /// Display name.
    pub name: &'static str,
    /// Which machine this models.
    pub kind: SystemKind,
    /// Node counts to sweep (power-of-two, as reported in the paper).
    pub node_counts: Vec<usize>,
    /// Vector sizes in bytes to sweep.
    pub vector_sizes: Vec<u64>,
}

/// The vector sizes used throughout Sec. 5: 32 B to 512 MiB.
pub fn paper_vector_sizes() -> Vec<u64> {
    vec![
        32,
        256,
        2 * 1024,
        16 * 1024,
        128 * 1024,
        1024 * 1024,
        8 * 1024 * 1024,
        64 * 1024 * 1024,
        512 * 1024 * 1024,
    ]
}

impl System {
    /// The LUMI configuration of Sec. 5.1 (16–1024 nodes).
    pub fn lumi() -> Self {
        Self {
            name: "LUMI",
            kind: SystemKind::Lumi,
            node_counts: vec![16, 32, 64, 128, 256, 512, 1024],
            vector_sizes: paper_vector_sizes(),
        }
    }

    /// The Leonardo configuration of Sec. 5.2 (16–2048 nodes).
    pub fn leonardo() -> Self {
        Self {
            name: "Leonardo",
            kind: SystemKind::Leonardo,
            node_counts: vec![16, 32, 64, 128, 256, 512, 1024, 2048],
            vector_sizes: paper_vector_sizes(),
        }
    }

    /// The MareNostrum 5 configuration of Sec. 5.3 (4–64 nodes).
    pub fn marenostrum5() -> Self {
        Self {
            name: "MareNostrum 5",
            kind: SystemKind::MareNostrum5,
            node_counts: vec![4, 8, 16, 32, 64],
            vector_sizes: paper_vector_sizes(),
        }
    }

    /// The Fugaku configuration of Sec. 5.4: 2x2x2, 4x4x4, 8x8x8, 64x64 and
    /// 32x256-node 3D/2D sub-tori.
    pub fn fugaku() -> Self {
        Self {
            name: "Fugaku",
            kind: SystemKind::Fugaku,
            node_counts: vec![8, 64, 512, 4096, 8192],
            vector_sizes: paper_vector_sizes(),
        }
    }

    /// The heterogeneous island fat tree the schedule synthesizers target:
    /// small jobs on a fabric whose 20:1 local/global bandwidth gap the
    /// fixed catalog cannot see. Kept out of [`System::all`] (the paper
    /// sweeps iterate that); tuning and the synthesis smoke sweep use
    /// [`System::tuned`].
    pub fn heterofat() -> Self {
        Self {
            name: "HeteroFat",
            kind: SystemKind::HeteroFat,
            node_counts: vec![16, 32, 64],
            vector_sizes: paper_vector_sizes(),
        }
    }

    /// The paper's four evaluation systems.
    pub fn all() -> Vec<System> {
        vec![
            Self::lumi(),
            Self::leonardo(),
            Self::marenostrum5(),
            Self::fugaku(),
        ]
    }

    /// Every system with a committed decision table: the paper's four plus
    /// the heterogeneous synthesis target. This is the list the tuner and
    /// the drift gate sweep.
    pub fn tuned() -> Vec<System> {
        let mut systems = Self::all();
        systems.push(Self::heterofat());
        systems
    }

    /// The torus shape used for a Fugaku job of `nodes` nodes.
    pub fn fugaku_dims(nodes: usize) -> Vec<usize> {
        bine_net::view::fugaku_dims(nodes)
    }

    /// File-name slug of this system (`"MareNostrum 5"` → `"marenostrum5"`),
    /// the key of [`bine_net::view::system_topology`] and of the committed
    /// `tuning/{slug}.json` table.
    pub fn slug(&self) -> String {
        bine_tune::slug(self.name)
    }

    /// Builds the topology model hosting a job of `nodes` nodes.
    ///
    /// Delegates to [`bine_net::view::system_topology`] — the same factory
    /// the serving layer's view derivation uses, so benches and the tuner
    /// can never disagree with serving about what a system looks like.
    pub fn topology(&self, nodes: usize) -> Box<dyn Topology + Send + Sync> {
        bine_net::view::system_topology(&self.slug(), nodes)
            .unwrap_or_else(|| panic!("no topology factory for {}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_are_large_enough_for_every_node_count() {
        for system in System::all() {
            for &nodes in &system.node_counts {
                let topo = system.topology(nodes);
                assert!(
                    topo.num_nodes() >= nodes,
                    "{}: topology {} too small for {nodes} nodes",
                    system.name,
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn fugaku_dims_match_the_paper() {
        assert_eq!(System::fugaku_dims(8), vec![2, 2, 2]);
        assert_eq!(System::fugaku_dims(512), vec![8, 8, 8]);
        assert_eq!(System::fugaku_dims(8192), vec![32, 256]);
        assert_eq!(System::fugaku_dims(128).iter().product::<usize>(), 128);
    }

    #[test]
    fn heterofat_rides_along_for_tuning_but_not_the_paper_sweeps() {
        assert!(System::all()
            .iter()
            .all(|s| s.kind != SystemKind::HeteroFat));
        let tuned = System::tuned();
        assert!(tuned.iter().any(|s| s.kind == SystemKind::HeteroFat));
        assert_eq!(tuned.len(), System::all().len() + 1);
        let hf = System::heterofat();
        assert_eq!(hf.slug(), "heterofat");
        for &nodes in &hf.node_counts {
            assert!(hf.topology(nodes).num_nodes() >= nodes);
        }
        // The fabric is genuinely heterogeneous: distinct link bandwidths.
        let topo = hf.topology(32);
        let bws: std::collections::BTreeSet<u64> = (0..topo.num_links())
            .map(|l| topo.link(l).bandwidth_gib_s.to_bits())
            .collect();
        assert!(bws.len() >= 2, "expected >1 distinct link bandwidth");
    }

    #[test]
    fn vector_sizes_span_32b_to_512mib() {
        let sizes = paper_vector_sizes();
        assert_eq!(sizes.first(), Some(&32));
        assert_eq!(sizes.last(), Some(&(512 * 1024 * 1024)));
        assert_eq!(sizes.len(), 9);
    }
}
