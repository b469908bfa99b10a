//! Datacenter topology: racks of nodes behind top-of-rack switches, joined
//! by an aggregation layer.
//!
//! The topology gives the cluster simulator two things: a stable enumeration
//! of every failable component (§4.5 — disks, NICs, switches, whole nodes),
//! and network paths with hop latency and bottleneck bandwidth, including
//! the ToR-uplink oversubscription that makes inter-rack transfers the
//! scarce resource (§4.2's locality example: a transfer within a rack only
//! touches the two nodes and the ToR switch).

use crate::net::SwitchSpec;
use crate::node::NodeSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a node (server) within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifies one disk slot on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DiskId {
    /// Owning node.
    pub node: NodeId,
    /// Slot index within the node.
    pub slot: u8,
}

/// Identifies a switch. ToR switches come first (one per rack), then the
/// aggregation switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SwitchId(pub u32);

/// Any failable hardware component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ComponentId {
    /// A whole server.
    Node(NodeId),
    /// One disk.
    Disk(DiskId),
    /// One server's NIC.
    Nic(NodeId),
    /// A ToR or aggregation switch.
    Switch(SwitchId),
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentId::Node(n) => write!(f, "node{}", n.0),
            ComponentId::Disk(d) => write!(f, "node{}.disk{}", d.node.0, d.slot),
            ComponentId::Nic(n) => write!(f, "node{}.nic", n.0),
            ComponentId::Switch(s) => write!(f, "switch{}", s.0),
        }
    }
}

/// Declarative description of a datacenter build-out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Number of racks.
    pub racks: usize,
    /// Servers per rack.
    pub nodes_per_rack: usize,
    /// The (homogeneous) server model.
    pub node: NodeSpec,
    /// Top-of-rack switch model.
    pub tor: SwitchSpec,
    /// Aggregation switch model (joins the ToRs; single logical device).
    pub agg: SwitchSpec,
    /// ToR uplink oversubscription factor: 1.0 = full bisection, 4.0 means
    /// the uplink carries 1/4 of the rack's aggregate edge bandwidth.
    pub oversubscription: f64,
}

impl TopologySpec {
    /// Instantiates the topology, assigning stable component IDs. Panics
    /// on a build-out [`validate`](Self::validate) rejects.
    pub fn build(&self) -> Topology {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        Topology { spec: self.clone() }
    }

    /// Checks what [`build`](Self::build) asserts: at least one rack of
    /// at least one node, oversubscription of at least 1, and racks that
    /// fit their ToR switch's ports.
    pub fn validate(&self) -> Result<(), String> {
        if self.racks == 0 || self.nodes_per_rack == 0 {
            return Err(format!(
                "a topology needs at least one rack of at least one node, got {} × {}",
                self.racks, self.nodes_per_rack
            ));
        }
        if self.oversubscription.is_nan() || self.oversubscription < 1.0 {
            return Err(format!(
                "oversubscription must be at least 1.0, got {}",
                self.oversubscription
            ));
        }
        if self.nodes_per_rack > self.tor.ports as usize {
            return Err(format!(
                "rack of {} nodes exceeds ToR ports ({})",
                self.nodes_per_rack, self.tor.ports
            ));
        }
        Ok(())
    }

    /// Total number of servers.
    pub fn node_count(&self) -> usize {
        self.racks * self.nodes_per_rack
    }
}

/// A built topology: ID assignment plus path/locality queries.
///
/// Node IDs are dense `0..node_count`, rack-major: node `i` lives in rack
/// `i / nodes_per_rack`. Switch IDs `0..racks` are the ToRs, `racks` is the
/// aggregation switch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    spec: TopologySpec,
}

/// A network path between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Switches traversed, in order.
    pub hops: Vec<SwitchId>,
    /// One-way propagation + switching latency, seconds (NIC latency at
    /// both ends included).
    pub latency_s: f64,
    /// Bottleneck bandwidth along the path, Gbit/s (NIC line rate capped by
    /// the oversubscribed uplink for inter-rack paths).
    pub bottleneck_gbps: f64,
}

impl Path {
    /// Time to move `bytes` over this path, unloaded.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 * 8.0 / (self.bottleneck_gbps * 1e9)
    }
}

/// The scalar facts of a path — latency and bottleneck — without the hop
/// list. `Copy`, so hot loops (the perf engine prices every NIC transfer)
/// get path answers with no heap allocation; [`Topology::path`] layers the
/// hop vector on top for callers that need the route itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathInfo {
    /// One-way propagation + switching latency, seconds (NIC latency at
    /// both ends included).
    pub latency_s: f64,
    /// Bottleneck bandwidth along the path, Gbit/s.
    pub bottleneck_gbps: f64,
}

impl PathInfo {
    /// Time to move `bytes` over this path, unloaded.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 * 8.0 / (self.bottleneck_gbps * 1e9)
    }
}

impl Topology {
    /// The spec this topology was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Total number of servers.
    pub fn node_count(&self) -> usize {
        self.spec.node_count()
    }

    /// All node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The rack housing `node`.
    pub fn rack_of(&self, node: NodeId) -> usize {
        assert!((node.0 as usize) < self.node_count(), "unknown {node:?}");
        node.0 as usize / self.spec.nodes_per_rack
    }

    /// True if both nodes share a rack (and hence a ToR).
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// The ToR switch of `rack`.
    pub fn tor_of_rack(&self, rack: usize) -> SwitchId {
        assert!(rack < self.spec.racks);
        SwitchId(rack as u32)
    }

    /// The aggregation switch.
    pub fn agg_switch(&self) -> SwitchId {
        SwitchId(self.spec.racks as u32)
    }

    /// Number of switches (ToRs + aggregation).
    pub fn switch_count(&self) -> usize {
        self.spec.racks + 1
    }

    /// Disk IDs of one node.
    pub fn disks_of(&self, node: NodeId) -> impl Iterator<Item = DiskId> + '_ {
        let slots = self.spec.node.disks.len() as u8;
        (0..slots).map(move |slot| DiskId { node, slot })
    }

    /// Every failable component, in a stable order: nodes, disks, NICs,
    /// switches. Streaming form of [`components`](Self::components) — at
    /// million-component scale, callers that only scan (fault pickers,
    /// census counters) should not materialize the whole census.
    pub fn components_iter(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.nodes()
            .map(ComponentId::Node)
            .chain(
                self.nodes()
                    .flat_map(|n| self.disks_of(n).map(ComponentId::Disk)),
            )
            .chain(self.nodes().map(ComponentId::Nic))
            .chain((0..self.switch_count() as u32).map(|s| ComponentId::Switch(SwitchId(s))))
    }

    /// [`components_iter`](Self::components_iter), collected.
    pub fn components(&self) -> Vec<ComponentId> {
        self.components_iter().collect()
    }

    /// Effective uplink bandwidth from a rack to the aggregation layer,
    /// after oversubscription.
    pub fn uplink_gbps(&self) -> f64 {
        let edge = self.spec.nodes_per_rack as f64 * self.spec.node.nic.bandwidth_gbps;
        edge / self.spec.oversubscription
    }

    /// Latency and bottleneck bandwidth from `src` to `dst`, without
    /// materializing the hop list. Same node → free path. Same rack → one
    /// ToR hop. Otherwise ToR → agg → ToR with the oversubscribed uplink.
    pub fn path_info(&self, src: NodeId, dst: NodeId) -> PathInfo {
        let nic = &self.spec.node.nic;
        if src == dst {
            return PathInfo {
                latency_s: 0.0,
                bottleneck_gbps: f64::INFINITY,
            };
        }
        if self.rack_of(src) == self.rack_of(dst) {
            PathInfo {
                latency_s: 2.0 * nic.latency_s + self.spec.tor.latency_s,
                bottleneck_gbps: nic.bandwidth_gbps.min(self.spec.tor.port_bandwidth_gbps),
            }
        } else {
            PathInfo {
                latency_s: 2.0 * nic.latency_s
                    + 2.0 * self.spec.tor.latency_s
                    + self.spec.agg.latency_s,
                bottleneck_gbps: nic
                    .bandwidth_gbps
                    .min(self.spec.tor.port_bandwidth_gbps)
                    .min(self.uplink_gbps()),
            }
        }
    }

    /// The network path from `src` to `dst`, hops included. The scalar
    /// facts come from [`path_info`](Self::path_info), so the two views
    /// cannot drift.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Path {
        let info = self.path_info(src, dst);
        let hops = if src == dst {
            Vec::new()
        } else {
            let r_src = self.rack_of(src);
            let r_dst = self.rack_of(dst);
            if r_src == r_dst {
                vec![self.tor_of_rack(r_src)]
            } else {
                vec![
                    self.tor_of_rack(r_src),
                    self.agg_switch(),
                    self.tor_of_rack(r_dst),
                ]
            }
        };
        Path {
            hops,
            latency_s: info.latency_s,
            bottleneck_gbps: info.bottleneck_gbps,
        }
    }

    /// Appends the components involved in a transfer from `src` to `dst`
    /// to `out` (not cleared) — the allocation-free form of
    /// [`transfer_footprint`](Self::transfer_footprint).
    pub fn transfer_footprint_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<ComponentId>) {
        out.push(ComponentId::Node(src));
        out.push(ComponentId::Node(dst));
        out.push(ComponentId::Nic(src));
        out.push(ComponentId::Nic(dst));
        if src != dst {
            let r_src = self.rack_of(src);
            let r_dst = self.rack_of(dst);
            if r_src == r_dst {
                out.push(ComponentId::Switch(self.tor_of_rack(r_src)));
            } else {
                out.push(ComponentId::Switch(self.tor_of_rack(r_src)));
                out.push(ComponentId::Switch(self.agg_switch()));
                out.push(ComponentId::Switch(self.tor_of_rack(r_dst)));
            }
        }
    }

    /// The set of components involved in a transfer from `src` to `dst`
    /// (the paper's §4.2 interaction example: the two nodes, the two NICs,
    /// and the switches on the path — everything else is unaffected).
    pub fn transfer_footprint(&self, src: NodeId, dst: NodeId) -> Vec<ComponentId> {
        let mut out = Vec::with_capacity(7);
        self.transfer_footprint_into(src, dst, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn spec(racks: usize, per_rack: usize) -> TopologySpec {
        TopologySpec {
            racks,
            nodes_per_rack: per_rack,
            node: catalog::node_storage_server(catalog::hdd_7200_4t(), 4, catalog::nic_10g()),
            tor: catalog::switch_tor_48x10g(),
            agg: catalog::switch_agg_32x40g(),
            oversubscription: 4.0,
        }
    }

    #[test]
    fn rack_assignment_is_dense_rack_major() {
        let t = spec(3, 10).build();
        assert_eq!(t.node_count(), 30);
        assert_eq!(t.rack_of(NodeId(0)), 0);
        assert_eq!(t.rack_of(NodeId(9)), 0);
        assert_eq!(t.rack_of(NodeId(10)), 1);
        assert_eq!(t.rack_of(NodeId(29)), 2);
        assert!(t.same_rack(NodeId(3), NodeId(7)));
        assert!(!t.same_rack(NodeId(9), NodeId(10)));
    }

    #[test]
    fn intra_rack_path_is_one_hop() {
        let t = spec(3, 10).build();
        let p = t.path(NodeId(0), NodeId(5));
        assert_eq!(p.hops, vec![SwitchId(0)]);
        assert_eq!(p.bottleneck_gbps, 10.0);
    }

    #[test]
    fn inter_rack_path_crosses_agg_and_is_oversubscribed() {
        let t = spec(3, 10).build();
        let p = t.path(NodeId(0), NodeId(25));
        assert_eq!(p.hops, vec![SwitchId(0), SwitchId(3), SwitchId(2)]);
        // Uplink: 10 nodes × 10G / 4 = 25G, NIC bottleneck 10G still wins.
        assert_eq!(p.bottleneck_gbps, 10.0);
        assert!(p.latency_s > t.path(NodeId(0), NodeId(5)).latency_s);
    }

    #[test]
    fn heavy_oversubscription_throttles_inter_rack() {
        let mut s = spec(2, 20);
        s.oversubscription = 40.0; // uplink: 20×10G/40 = 5G < NIC 10G
        let t = s.build();
        let p = t.path(NodeId(0), NodeId(39));
        assert_eq!(p.bottleneck_gbps, 5.0);
        // Intra-rack unaffected.
        assert_eq!(t.path(NodeId(0), NodeId(1)).bottleneck_gbps, 10.0);
    }

    #[test]
    fn local_path_is_free() {
        let t = spec(1, 4).build();
        let p = t.path(NodeId(2), NodeId(2));
        assert!(p.hops.is_empty());
        assert_eq!(p.latency_s, 0.0);
        assert_eq!(p.transfer_time(1 << 30), 0.0);
    }

    #[test]
    fn component_enumeration_is_complete_and_stable() {
        let t = spec(2, 3).build();
        let comps = t.components();
        // 6 nodes + 6*4 disks + 6 NICs + 3 switches.
        assert_eq!(comps.len(), 6 + 24 + 6 + 3);
        assert_eq!(comps, t.components(), "enumeration must be stable");
        assert!(comps.contains(&ComponentId::Switch(t.agg_switch())));
    }

    #[test]
    fn transfer_footprint_matches_paper_example() {
        // §4.2: an intra-rack transfer touches the two nodes, their
        // disks/NICs and the ToR — nothing in other racks.
        let t = spec(2, 5).build();
        let fp = t.transfer_footprint(NodeId(0), NodeId(1));
        assert!(fp.contains(&ComponentId::Switch(SwitchId(0))));
        assert!(!fp
            .iter()
            .any(|c| matches!(c, ComponentId::Switch(s) if *s == t.agg_switch())));
        let fp2 = t.transfer_footprint(NodeId(0), NodeId(5));
        assert!(fp2
            .iter()
            .any(|c| matches!(c, ComponentId::Switch(s) if *s == t.agg_switch())));
    }

    #[test]
    fn transfer_time_unloaded() {
        let t = spec(1, 2).build();
        let p = t.path(NodeId(0), NodeId(1));
        // 1 GB over 10G ≈ 0.8 s.
        let secs = p.transfer_time(1_000_000_000);
        assert!((secs - 0.8).abs() < 0.01, "got {secs}");
    }

    #[test]
    #[should_panic(expected = "exceeds ToR ports")]
    fn too_many_nodes_per_rack_rejected() {
        let _ = spec(1, 60).build();
    }

    #[test]
    fn path_info_and_footprint_into_agree_with_allocating_forms() {
        let t = spec(3, 4).build();
        for src in t.nodes() {
            for dst in t.nodes() {
                let p = t.path(src, dst);
                let info = t.path_info(src, dst);
                assert_eq!(p.latency_s, info.latency_s);
                assert_eq!(p.bottleneck_gbps, info.bottleneck_gbps);
                assert_eq!(p.transfer_time(1 << 20), info.transfer_time(1 << 20));
                let mut fp = Vec::new();
                t.transfer_footprint_into(src, dst, &mut fp);
                assert_eq!(fp, t.transfer_footprint(src, dst));
            }
        }
    }

    #[test]
    fn components_iter_streams_the_same_census() {
        let t = spec(2, 3).build();
        assert_eq!(t.components_iter().collect::<Vec<_>>(), t.components());
        assert_eq!(t.components_iter().count(), 6 + 24 + 6 + 3);
    }

    #[test]
    fn display_component_ids() {
        assert_eq!(format!("{}", ComponentId::Node(NodeId(3))), "node3");
        assert_eq!(
            format!(
                "{}",
                ComponentId::Disk(DiskId {
                    node: NodeId(1),
                    slot: 2
                })
            ),
            "node1.disk2"
        );
    }
}
