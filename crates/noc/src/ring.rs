//! The logical unidirectional ring embedded in the physical network.

use serde::{Deserialize, Serialize};

use crate::topology::{NodeId, Torus};

/// A logical unidirectional ring embedded in a torus: a cyclic order over
/// all nodes. `r` messages (and, in Eager/Flexible Snooping, `R` messages)
/// travel node-to-node in this order; each logical hop is routed over the
/// physical network.
///
/// Two embeddings are provided:
///
/// - [`RingEmbedding::boustrophedon`] — a snake path (row 0 left-to-right,
///   row 1 right-to-left, …) closed back to node 0, the natural embedding
///   for a torus and the one used for all paper experiments. With an even
///   height every logical hop is exactly one physical link, the closing
///   hop included (the y wrap link). With an odd height the last row runs
///   left-to-right, so the closing hop from its last node to node 0
///   crosses two links (one x wrap, one y wrap): on 5×3 the 15 hops of a
///   lap take 16 links.
/// - [`RingEmbedding::row_major`] — naive row-major order, in which the
///   end-of-row hop crosses two links. Used by the embedding ablation
///   bench.
///
/// # Examples
///
/// ```
/// use ring_noc::{NodeId, RingEmbedding, Torus};
///
/// let t = Torus::new(8, 8);
/// let ring = RingEmbedding::boustrophedon(&t);
/// assert_eq!(ring.len(), 64);
/// // Following successors visits every node once and returns to the start.
/// let mut n = NodeId(0);
/// for _ in 0..64 { n = ring.successor(n); }
/// assert_eq!(n, NodeId(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingEmbedding {
    /// order[i] = node at ring position i.
    order: Vec<NodeId>,
    /// position[node.0] = ring position of node.
    position: Vec<usize>,
}

impl RingEmbedding {
    fn from_order(order: Vec<NodeId>) -> Self {
        let mut position = vec![usize::MAX; order.len()];
        for (i, n) in order.iter().enumerate() {
            assert!(
                position[n.0] == usize::MAX,
                "node {n} appears twice in ring order"
            );
            position[n.0] = i;
        }
        assert!(
            position.iter().all(|&p| p != usize::MAX),
            "ring order must cover every node"
        );
        RingEmbedding { order, position }
    }

    /// Builds the snake (boustrophedon) embedding over `torus`. Every
    /// logical ring hop traverses exactly one physical link, except on an
    /// odd height, where the closing hop (last node → node 0) traverses
    /// two.
    pub fn boustrophedon(torus: &Torus) -> Self {
        let mut order = Vec::with_capacity(torus.nodes());
        for y in 0..torus.height() {
            if y % 2 == 0 {
                for x in 0..torus.width() {
                    order.push(torus.node_at(x, y));
                }
            } else {
                for x in (0..torus.width()).rev() {
                    order.push(torus.node_at(x, y));
                }
            }
        }
        Self::from_order(order)
    }

    /// Builds the naive row-major embedding over `torus` (ablation only).
    pub fn row_major(torus: &Torus) -> Self {
        Self::from_order(torus.iter().collect())
    }

    /// Builds a ring from an explicit node order.
    ///
    /// # Panics
    ///
    /// Panics if the order is not a permutation of `0..order.len()`.
    pub fn from_custom_order(order: Vec<NodeId>) -> Self {
        Self::from_order(order)
    }

    /// The same ring traversed in the opposite direction — the paper's
    /// §2.1 load-balancing option ("the same ring with different
    /// directions") for spreading lines across two logical rings.
    pub fn reversed(&self) -> Self {
        // `self` is already a validated permutation, so build the
        // reversed order and its position index directly instead of
        // cloning and re-validating through `from_order`.
        let n = self.order.len();
        let order: Vec<NodeId> = self.order.iter().rev().copied().collect();
        let mut position = vec![0; n];
        for (i, node) in order.iter().enumerate() {
            position[node.0] = i;
        }
        RingEmbedding { order, position }
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ring is empty (never true for a valid embedding).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The node after `n` in ring order.
    pub fn successor(&self, n: NodeId) -> NodeId {
        let p = self.position[n.0] + 1;
        self.order[if p == self.order.len() { 0 } else { p }]
    }

    /// The node before `n` in ring order.
    pub fn predecessor(&self, n: NodeId) -> NodeId {
        let p = self.position[n.0];
        self.order[if p == 0 { self.order.len() - 1 } else { p - 1 }]
    }

    /// Ring position of `n` (0-based).
    pub fn position(&self, n: NodeId) -> usize {
        self.position[n.0]
    }

    /// Number of ring hops from `from` to `to` following ring order
    /// (0 when equal).
    pub fn ring_distance(&self, from: NodeId, to: NodeId) -> usize {
        let (f, t) = (self.position[from.0], self.position[to.0]);
        if t >= f {
            t - f
        } else {
            t + self.order.len() - f
        }
    }

    /// Whether `x` lies strictly between `from` and `to` in ring order
    /// (exclusive on both ends).
    pub fn is_between(&self, from: NodeId, x: NodeId, to: NodeId) -> bool {
        let dx = self.ring_distance(from, x);
        let dt = self.ring_distance(from, to);
        dx > 0 && dx < dt
    }

    /// Iterates nodes in ring order starting at position 0.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().copied()
    }

    /// Total physical links traversed by one full lap of the ring.
    pub fn lap_physical_hops(&self, torus: &Torus) -> usize {
        (0..self.order.len())
            .map(|i| {
                let a = self.order[i];
                let b = self.order[(i + 1) % self.order.len()];
                torus.distance(a, b)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boustrophedon_hops_are_single_links() {
        let t = Torus::new(8, 8);
        let ring = RingEmbedding::boustrophedon(&t);
        for n in t.iter() {
            let s = ring.successor(n);
            assert_eq!(t.distance(n, s), 1, "hop {n} -> {s} not adjacent");
        }
        assert_eq!(ring.lap_physical_hops(&t), 64);
    }

    #[test]
    fn row_major_lap_is_longer() {
        let t = Torus::new(8, 8);
        let snake = RingEmbedding::boustrophedon(&t);
        let naive = RingEmbedding::row_major(&t);
        assert!(naive.lap_physical_hops(&t) > snake.lap_physical_hops(&t));
    }

    #[test]
    fn successor_predecessor_inverse() {
        let t = Torus::new(8, 8);
        let ring = RingEmbedding::boustrophedon(&t);
        for n in t.iter() {
            assert_eq!(ring.predecessor(ring.successor(n)), n);
        }
    }

    #[test]
    fn ring_distance_properties() {
        let t = Torus::new(4, 4);
        let ring = RingEmbedding::boustrophedon(&t);
        for a in t.iter() {
            assert_eq!(ring.ring_distance(a, a), 0);
            for b in t.iter() {
                if a != b {
                    let d1 = ring.ring_distance(a, b);
                    let d2 = ring.ring_distance(b, a);
                    assert_eq!(d1 + d2, 16);
                }
            }
        }
    }

    #[test]
    fn is_between_matches_order() {
        let t = Torus::new(4, 4);
        let ring = RingEmbedding::boustrophedon(&t);
        let a = ring.iter().next().unwrap();
        let b = ring.successor(a);
        let c = ring.successor(b);
        assert!(ring.is_between(a, b, c));
        assert!(!ring.is_between(a, c, b));
        assert!(!ring.is_between(a, a, c));
    }

    #[test]
    fn visits_all_nodes_once() {
        let t = Torus::new(8, 8);
        let ring = RingEmbedding::boustrophedon(&t);
        let mut seen = std::collections::HashSet::new();
        let mut n = NodeId(0);
        for _ in 0..64 {
            assert!(seen.insert(n));
            n = ring.successor(n);
        }
        assert_eq!(seen.len(), 64);
        assert_eq!(n, NodeId(0));
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_order_rejected() {
        let _ = RingEmbedding::from_custom_order(vec![NodeId(0), NodeId(0)]);
    }

    #[test]
    fn reversed_ring_swaps_successor_and_predecessor() {
        let t = Torus::new(8, 8);
        let ring = RingEmbedding::boustrophedon(&t);
        let rev = ring.reversed();
        for n in t.iter() {
            assert_eq!(rev.successor(n), ring.predecessor(n));
            assert_eq!(rev.predecessor(n), ring.successor(n));
        }
        assert_eq!(rev.lap_physical_hops(&t), ring.lap_physical_hops(&t));
    }

    #[test]
    fn custom_order_roundtrips() {
        let order = vec![NodeId(2), NodeId(0), NodeId(1)];
        let ring = RingEmbedding::from_custom_order(order);
        assert_eq!(ring.successor(NodeId(2)), NodeId(0));
        assert_eq!(ring.successor(NodeId(1)), NodeId(2));
        assert_eq!(ring.position(NodeId(0)), 1);
    }
}
