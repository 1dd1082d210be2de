//! N-domain link fabric: the full-mesh topology the multi-domain session
//! runner routes over.
//!
//! The paper's channel joins exactly two domains; an N-domain co-emulation
//! (NoC prototypes, emulation farms) needs a link **per pair of domains**
//! that exchange traffic. This module owns the topology bookkeeping — which
//! undirected edge joins which domains, which [`Side`] each domain plays on
//! that edge — and builds the whole mesh over any of the crate's endpoint
//! types in one call: in-process queues ([`Fabric::threaded_mesh`]), TCP
//! loopback sockets ([`Fabric::tcp_mesh`]), or shared-memory rings packed
//! into a *single* region ([`Fabric::shm_mesh`] /
//! [`Fabric::shm_file_mesh`]).
//!
//! ## Topology and routing
//!
//! A fabric over `n` domains is the complete graph: `n·(n−1)/2` undirected
//! edges, each carrying one bidirectional channel — so `n·(n−1)` directed
//! links in total. Routing is single-hop by construction: a packet for
//! domain `d` goes out on the one edge that joins the sender to `d`; no
//! domain ever forwards another pair's traffic (multi-hop routing is a
//! deliberate non-goal — see the ROADMAP).
//!
//! On edge `{a, b}` (stored with `a < b`), domain `a` plays
//! [`Side::Simulator`] and domain `b` plays [`Side::Accelerator`]. The
//! assignment is arbitrary but **fixed**, so every backend and every run
//! wires the same protocol roles to the same domains — a precondition for
//! the bit-identical conformance the session layer asserts.
//!
//! Per-link composition (loss, reliable delivery) stays orthogonal:
//! [`Fabric::map`] rebuilds the fabric with every endpoint wrapped, keeping
//! the edge list intact.

use crate::cost::Side;
use crate::shm::ShmTransport;
use crate::tcp::TcpTransport;
use crate::threaded::{ThreadedEndpoint, ThreadedTransport};
use std::io;

/// One undirected edge of the fabric: the channel joining domains `a` and
/// `b` (always stored with `a < b`). Domain `a` plays [`Side::Simulator`]
/// on this edge's channel, domain `b` plays [`Side::Accelerator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FabricEdge {
    a: usize,
    b: usize,
}

impl FabricEdge {
    /// Builds the edge joining `a` and `b` (order-insensitive).
    ///
    /// # Panics
    ///
    /// When `a == b` — a domain never links to itself.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "a fabric edge joins two distinct domains");
        FabricEdge {
            a: a.min(b),
            b: a.max(b),
        }
    }

    /// The lower-numbered domain (plays [`Side::Simulator`] on this edge).
    pub fn a(&self) -> usize {
        self.a
    }

    /// The higher-numbered domain (plays [`Side::Accelerator`]).
    pub fn b(&self) -> usize {
        self.b
    }

    /// Whether `domain` is one of this edge's ends.
    pub fn involves(&self, domain: usize) -> bool {
        self.a == domain || self.b == domain
    }

    /// The protocol side `domain` plays on this edge's channel.
    ///
    /// # Panics
    ///
    /// When `domain` is not an end of this edge.
    pub fn role_of(&self, domain: usize) -> Side {
        if domain == self.a {
            Side::Simulator
        } else if domain == self.b {
            Side::Accelerator
        } else {
            panic!("domain {domain} is not on edge {self:?}")
        }
    }

    /// The domain at the other end from `domain`.
    ///
    /// # Panics
    ///
    /// When `domain` is not an end of this edge.
    pub fn peer_of(&self, domain: usize) -> usize {
        if domain == self.a {
            self.b
        } else if domain == self.b {
            self.a
        } else {
            panic!("domain {domain} is not on edge {self:?}")
        }
    }
}

/// The complete graph over `domains` domains in lexicographic edge order:
/// `{0,1}, {0,2}, …, {0,n−1}, {1,2}, …` — the canonical ordering every
/// fabric constructor and the session layer's per-domain merges rely on.
pub fn full_mesh(domains: usize) -> Vec<FabricEdge> {
    let mut edges = Vec::with_capacity(domains.saturating_sub(1) * domains / 2);
    for a in 0..domains {
        for b in (a + 1)..domains {
            edges.push(FabricEdge::new(a, b));
        }
    }
    edges
}

/// A full mesh of channels over `domains` domains: the edge list plus one
/// endpoint pair per edge, index-aligned (`links[i]` carries `edges[i]`).
/// Within each pair, `.0` is the endpoint domain `a` drives (as
/// [`Side::Simulator`]) and `.1` the endpoint domain `b` drives (as
/// [`Side::Accelerator`]).
///
/// The fabric is pure topology + endpoints; the session layer
/// (`predpkt-core`) owns the protocol engines, routing, and the N-way
/// boundary-halt run loop.
#[derive(Debug)]
pub struct Fabric<E> {
    domains: usize,
    edges: Vec<FabricEdge>,
    links: Vec<(E, E)>,
}

impl Fabric<ThreadedEndpoint> {
    /// Builds the mesh over in-process mpsc channels — the deterministic
    /// default, and the baseline every other backend is conformance-checked
    /// against.
    pub fn threaded_mesh(domains: usize) -> Self {
        let edges = full_mesh(domains);
        let links = edges.iter().map(|_| ThreadedTransport::pair()).collect();
        Fabric {
            domains,
            edges,
            links,
        }
    }
}

impl Fabric<crate::tcp::TcpEndpoint> {
    /// Builds the mesh over TCP loopback socket pairs — one real socket per
    /// edge, the shape a cross-host fabric would take (with loopback
    /// standing in for the wire).
    ///
    /// # Errors
    ///
    /// Any socket-setup failure while building an edge's pair.
    pub fn tcp_mesh(domains: usize) -> io::Result<Self> {
        let edges = full_mesh(domains);
        let links = edges
            .iter()
            .map(|_| TcpTransport::loopback_pair())
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Fabric {
            domains,
            edges,
            links,
        })
    }
}

impl Fabric<crate::shm::ShmEndpoint> {
    /// Builds the mesh over shared-memory rings, all edges packed into
    /// **one** [`ShmRegion`](crate::shm::ShmRegion) — N×(N−1) directed rings
    /// in a single allocation.
    pub fn shm_mesh(domains: usize, ring_words: u32) -> Self {
        let edges = full_mesh(domains);
        let links = if edges.is_empty() {
            Vec::new()
        } else {
            ShmTransport::mesh(edges.len(), ring_words)
        };
        Fabric {
            domains,
            edges,
            links,
        }
    }

    /// The file-backed form of [`shm_mesh`](Self::shm_mesh): one `/dev/shm`
    /// region file carries every edge's ring pair.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or attaching the region file.
    #[cfg(unix)]
    pub fn shm_file_mesh(domains: usize, ring_words: u32) -> io::Result<Self> {
        let edges = full_mesh(domains);
        let links = if edges.is_empty() {
            Vec::new()
        } else {
            ShmTransport::file_mesh(edges.len(), ring_words)?
        };
        Ok(Fabric {
            domains,
            edges,
            links,
        })
    }
}

impl<E> Fabric<E> {
    /// How many domains the fabric joins.
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// The edge list, index-aligned with the links.
    pub fn edges(&self) -> &[FabricEdge] {
        &self.edges
    }

    /// Rebuilds the fabric with every endpoint passed through `wrap` — the
    /// per-link composition hook (loss injection, reliable delivery). The
    /// closure receives the edge index, the edge, and the [`Side`] the
    /// endpoint plays on it.
    pub fn map<E2>(self, mut wrap: impl FnMut(usize, FabricEdge, Side, E) -> E2) -> Fabric<E2> {
        let edges = self.edges;
        let links = self
            .links
            .into_iter()
            .zip(edges.iter())
            .enumerate()
            .map(|(i, ((sim, acc), &edge))| {
                (
                    wrap(i, edge, Side::Simulator, sim),
                    wrap(i, edge, Side::Accelerator, acc),
                )
            })
            .collect();
        Fabric {
            domains: self.domains,
            edges,
            links,
        }
    }

    /// Tears the fabric into its edge list and endpoint pairs (the session
    /// layer consumes these to build per-domain ports).
    pub fn into_parts(self) -> (usize, Vec<FabricEdge>, Vec<(E, E)>) {
        (self.domains, self.edges, self.links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Packet, PacketTag};
    use crate::transport::Transport;
    use crate::transport::WaitTransport;
    use std::time::Duration;

    #[test]
    fn full_mesh_counts_and_order() {
        assert!(full_mesh(0).is_empty());
        assert!(full_mesh(1).is_empty());
        assert_eq!(full_mesh(2), vec![FabricEdge::new(0, 1)]);
        let m4 = full_mesh(4);
        assert_eq!(m4.len(), 6);
        assert_eq!(m4[0], FabricEdge::new(0, 1));
        assert_eq!(m4[5], FabricEdge::new(2, 3));
        // n·(n−1)/2 edges → n·(n−1) directed links.
        assert_eq!(full_mesh(8).len(), 8 * 7 / 2);
    }

    #[test]
    fn edge_roles_are_fixed_by_domain_order() {
        let e = FabricEdge::new(5, 2);
        assert_eq!((e.a(), e.b()), (2, 5));
        assert_eq!(e.role_of(2), Side::Simulator);
        assert_eq!(e.role_of(5), Side::Accelerator);
        assert_eq!(e.peer_of(2), 5);
        assert_eq!(e.peer_of(5), 2);
        assert!(e.involves(2) && e.involves(5) && !e.involves(3));
    }

    #[test]
    #[should_panic(expected = "distinct domains")]
    fn self_edge_is_rejected() {
        let _ = FabricEdge::new(3, 3);
    }

    #[test]
    fn threaded_mesh_carries_cross_edge_traffic_independently() {
        let fabric = Fabric::threaded_mesh(3);
        assert_eq!(fabric.domains(), 3);
        let (_, edges, mut links) = fabric.into_parts();
        assert_eq!(edges.len(), 3);
        // Send a distinct payload down each edge in the a→b direction.
        for (i, (sim, _)) in links.iter_mut().enumerate() {
            sim.send(
                Side::Simulator,
                Packet::new(PacketTag::CycleOutputs, vec![i as u32]),
            );
        }
        for (i, (_, acc)) in links.iter_mut().enumerate() {
            assert!(acc.wait_for_packet(Duration::from_secs(5)));
            assert_eq!(acc.recv(Side::Accelerator).unwrap().payload(), &[i as u32]);
            assert_eq!(acc.pending(Side::Accelerator), 0, "no cross-edge leakage");
        }
    }

    #[test]
    fn shm_mesh_builds_one_region_for_all_edges() {
        let fabric = Fabric::shm_mesh(4, 256);
        let (_, edges, mut links) = fabric.into_parts();
        assert_eq!(edges.len(), 6);
        for (i, (sim, acc)) in links.iter_mut().enumerate() {
            sim.send(
                Side::Simulator,
                Packet::new(PacketTag::Burst, vec![i as u32; 3]),
            );
            assert!(acc.wait_for_packet(Duration::from_secs(5)));
            assert_eq!(
                acc.recv(Side::Accelerator).unwrap().payload(),
                vec![i as u32; 3].as_slice()
            );
        }
    }

    #[test]
    fn map_preserves_edges_and_wraps_every_endpoint() {
        let fabric = Fabric::threaded_mesh(3);
        let mut seen = Vec::new();
        let wrapped = fabric.map(|i, edge, side, end| {
            seen.push((i, edge, side));
            end
        });
        assert_eq!(wrapped.edges().len(), 3);
        assert_eq!(seen.len(), 6, "both sides of every edge pass through");
        assert_eq!(seen[0], (0, FabricEdge::new(0, 1), Side::Simulator));
        assert_eq!(seen[1], (0, FabricEdge::new(0, 1), Side::Accelerator));
    }
}
