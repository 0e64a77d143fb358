//! Inter-node communication topologies for the cluster balancing tier.
//!
//! The diffusion layer (Demirel & Sbalzarini: load balancing on
//! arbitrary networks) only ever moves work between *neighbouring*
//! nodes; the topology decides who neighbours whom. Three shapes cover
//! the interesting regimes:
//!
//! * [`Topology::Full`] — every node can migrate to every other node
//!   (one Ethernet switch; the paper's four-machine cluster).
//! * [`Topology::Ring`] — node `i` talks to `i±1 (mod n)`; diffusion
//!   takes multiple hops to equalize, exercising gradual re-balance.
//! * [`Topology::Star`] — node 0 is the hub; leaves only reach each
//!   other through it. A hub partition is a worst-case fault.

use serde::{Deserialize, Serialize};

/// Which node pairs may exchange migrations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Topology {
    /// Complete graph: every pair is adjacent.
    #[default]
    Full,
    /// Cycle: node `i` is adjacent to `(i ± 1) mod n`.
    Ring,
    /// Hub-and-spoke: node 0 is adjacent to every leaf; leaves are not
    /// adjacent to each other.
    Star,
}

impl Topology {
    /// Parse the CLI spelling used by `plb run --topology`.
    pub fn parse(s: &str) -> Result<Topology, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "full" | "mesh" => Ok(Topology::Full),
            "ring" => Ok(Topology::Ring),
            "star" => Ok(Topology::Star),
            other => Err(format!("unknown topology `{other}` (full, ring, star)")),
        }
    }

    /// True when nodes `a` and `b` are directly connected in an
    /// `n`-node cluster. A node is never adjacent to itself, and ids
    /// at or beyond `n` are adjacent to nothing.
    pub(crate) fn adjacent(&self, a: usize, b: usize, n: usize) -> bool {
        if a == b || a >= n || b >= n || n < 2 {
            return false;
        }
        match self {
            Topology::Full => true,
            Topology::Ring => {
                let d = a.abs_diff(b);
                d == 1 || d == n - 1
            }
            Topology::Star => a == 0 || b == 0,
        }
    }

    /// Node `a`'s neighbours in an `n`-node cluster, ascending.
    pub fn neighbors(&self, a: usize, n: usize) -> Vec<usize> {
        (0..n).filter(|&b| self.adjacent(a, b, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_connects_every_distinct_pair() {
        let t = Topology::Full;
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.adjacent(a, b, 4), a != b);
            }
        }
    }

    #[test]
    fn ring_wraps_around() {
        let t = Topology::Ring;
        assert_eq!(t.neighbors(0, 5), vec![1, 4]);
        assert_eq!(t.neighbors(2, 5), vec![1, 3]);
        assert_eq!(t.neighbors(4, 5), vec![0, 3]);
        assert!(!t.adjacent(0, 2, 5));
    }

    #[test]
    fn two_node_ring_has_one_edge_not_two() {
        // n=2: abs_diff is 1 and also n-1; must not double-count or
        // self-connect.
        let t = Topology::Ring;
        assert_eq!(t.neighbors(0, 2), vec![1]);
        assert_eq!(t.neighbors(1, 2), vec![0]);
    }

    #[test]
    fn star_routes_through_the_hub() {
        let t = Topology::Star;
        assert_eq!(t.neighbors(0, 4), vec![1, 2, 3]);
        assert_eq!(t.neighbors(2, 4), vec![0]);
        assert!(!t.adjacent(1, 3, 4));
    }

    #[test]
    fn out_of_range_and_self_edges_are_never_adjacent() {
        for t in [Topology::Full, Topology::Ring, Topology::Star] {
            assert!(!t.adjacent(1, 1, 4));
            assert!(!t.adjacent(0, 7, 4));
            assert!(!t.adjacent(0, 1, 1));
        }
    }

    #[test]
    fn parse_accepts_known_names_and_rejects_others() {
        assert_eq!(Topology::parse(" Ring ").unwrap(), Topology::Ring);
        assert_eq!(Topology::parse("full").unwrap(), Topology::Full);
        assert_eq!(Topology::parse("star").unwrap(), Topology::Star);
        assert!(Topology::parse("torus").unwrap_err().contains("torus"));
    }
}
