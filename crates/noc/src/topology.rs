//! 2D torus topology, node/link identifiers, and xy routing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (core + caches + protocol agent) in the machine.
///
/// Nodes are numbered row-major: node `y * width + x` sits at `(x, y)`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// One of the four directed link directions out of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards +x (wrapping).
    East,
    /// Towards -x (wrapping).
    West,
    /// Towards +y (wrapping).
    South,
    /// Towards -y (wrapping).
    North,
}

impl Direction {
    /// All four directions, in a fixed order.
    pub const ALL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::South,
        Direction::North,
    ];

    fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::South => 2,
            Direction::North => 3,
        }
    }
}

/// Identifier of a directed link: the out-link of `node` in `direction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// An 8×8 (by default; any size ≥ 2×2) 2D torus.
///
/// # Examples
///
/// ```
/// use ring_noc::{NodeId, Torus};
///
/// let t = Torus::new(8, 8);
/// assert_eq!(t.nodes(), 64);
/// assert_eq!(t.coords(NodeId(9)), (1, 1));
/// assert_eq!(t.node_at(1, 1), NodeId(9));
/// // Wrap-around makes opposite corners close:
/// assert_eq!(t.distance(NodeId(0), NodeId(63)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus {
    width: usize,
    height: usize,
    /// `xy[n]` = coordinates of node `n`, computed once so that routing
    /// never divides by the extents.
    xy: Vec<(usize, usize)>,
}

impl Torus {
    /// Creates a `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 2.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "torus must be at least 2x2");
        let xy = (0..height)
            .flat_map(|y| (0..width).map(move |x| (x, y)))
            .collect();
        Torus { width, height, xy }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Torus width (x extent).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Torus height (y extent).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of directed links (4 per node).
    pub fn links(&self) -> usize {
        self.nodes() * 4
    }

    /// Coordinates `(x, y)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn coords(&self, n: NodeId) -> (usize, usize) {
        assert!(n.0 < self.xy.len(), "node {n} out of range");
        self.xy[n.0]
    }

    /// Node at coordinates `(x, y)` (taken modulo the torus extents).
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId((y % self.height) * self.width + (x % self.width))
    }

    /// The out-link of `n` in direction `d`.
    pub fn link(&self, n: NodeId, d: Direction) -> LinkId {
        LinkId(n.0 * 4 + d.index())
    }

    /// The neighbor reached by following direction `d` from `n`.
    pub fn neighbor(&self, n: NodeId, d: Direction) -> NodeId {
        let (x, y) = self.coords(n);
        match d {
            Direction::East => self.node_at(x + 1, y),
            Direction::West => self.node_at(x + self.width - 1, y),
            Direction::South => self.node_at(x, y + 1),
            Direction::North => self.node_at(x, y + self.height - 1),
        }
    }

    /// Signed minimal offset along one torus dimension of extent `len`,
    /// from `a` to `b` (both below `len`): positive means move in the +
    /// direction.
    fn min_offset(a: usize, b: usize, len: usize) -> isize {
        let fwd = if b >= a { b - a } else { b + len - a };
        let bwd = len - fwd;
        if fwd <= bwd {
            fwd as isize
        } else {
            -(bwd as isize)
        }
    }

    /// The xy (dimension-ordered) minimal route from `from` to `to`:
    /// the sequence of directed links traversed. Empty if `from == to`.
    ///
    /// xy routing resolves the x offset fully before the y offset, matching
    /// the paper's "2D torus with xy routing".
    pub fn route(&self, from: NodeId, to: NodeId) -> Vec<LinkId> {
        self.route_iter(from, to).collect()
    }

    /// Iterator form of [`Torus::route`] — walks the same links without
    /// allocating or dividing, for the per-message hot path.
    pub fn route_iter(&self, from: NodeId, to: NodeId) -> RouteIter<'_> {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        RouteIter {
            torus: self,
            x: fx,
            y: fy,
            dx: Self::min_offset(fx, tx, self.width),
            dy: Self::min_offset(fy, ty, self.height),
        }
    }

    /// Minimal hop distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (Self::min_offset(ax, bx, self.width).unsigned_abs())
            + (Self::min_offset(ay, by, self.height).unsigned_abs())
    }

    /// Iterator over all node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }
}

/// Lazily walks the links of an xy route (see [`Torus::route_iter`]).
///
/// Carries the current coordinates and steps them with compare-and-wrap,
/// so a hop costs no division.
#[derive(Debug, Clone)]
pub struct RouteIter<'a> {
    torus: &'a Torus,
    /// Coordinates of the node the next link leaves from.
    x: usize,
    y: usize,
    /// Remaining signed x offset (resolved first, per xy routing).
    dx: isize,
    /// Remaining signed y offset.
    dy: isize,
}

impl Iterator for RouteIter<'_> {
    type Item = LinkId;

    fn next(&mut self) -> Option<LinkId> {
        let (w, h) = (self.torus.width, self.torus.height);
        let (x, y) = (self.x, self.y);
        let d = if self.dx > 0 {
            self.dx -= 1;
            self.x = if x + 1 == w { 0 } else { x + 1 };
            Direction::East
        } else if self.dx < 0 {
            self.dx += 1;
            self.x = if x == 0 { w - 1 } else { x - 1 };
            Direction::West
        } else if self.dy > 0 {
            self.dy -= 1;
            self.y = if y + 1 == h { 0 } else { y + 1 };
            Direction::South
        } else if self.dy < 0 {
            self.dy += 1;
            self.y = if y == 0 { h - 1 } else { y - 1 };
            Direction::North
        } else {
            return None;
        };
        // `Torus::link` of node `y * w + x`.
        Some(LinkId((y * w + x) * 4 + d.index()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.dx.unsigned_abs() + self.dy.unsigned_abs();
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteIter<'_> {}

impl ring_snapshot::Snap for NodeId {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&(self.0 as u64));
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(NodeId(r.get::<u64>()? as usize))
    }
}

impl ring_snapshot::Snap for LinkId {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&(self.0 as u64));
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(LinkId(r.get::<u64>()? as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = Torus::new(8, 8);
        for n in t.iter() {
            let (x, y) = t.coords(n);
            assert_eq!(t.node_at(x, y), n);
        }
    }

    #[test]
    fn neighbors_wrap() {
        let t = Torus::new(8, 8);
        assert_eq!(t.neighbor(NodeId(0), Direction::West), NodeId(7));
        assert_eq!(t.neighbor(NodeId(0), Direction::North), NodeId(56));
        assert_eq!(t.neighbor(NodeId(7), Direction::East), NodeId(0));
        assert_eq!(t.neighbor(NodeId(63), Direction::South), NodeId(7));
    }

    #[test]
    fn route_length_equals_distance() {
        let t = Torus::new(8, 8);
        for a in t.iter() {
            for b in t.iter() {
                assert_eq!(t.route(a, b).len(), t.distance(a, b));
            }
        }
    }

    #[test]
    fn max_distance_on_8x8_torus_is_8() {
        let t = Torus::new(8, 8);
        let max = t
            .iter()
            .flat_map(|a| t.iter().map(move |b| (a, b)))
            .map(|(a, b)| t.distance(a, b))
            .max()
            .unwrap();
        assert_eq!(max, 8); // 4 + 4 with wrap-around
    }

    #[test]
    fn distance_is_symmetric() {
        let t = Torus::new(8, 8);
        for a in t.iter() {
            for b in t.iter() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let t = Torus::new(4, 4);
        assert!(t.route(NodeId(5), NodeId(5)).is_empty());
        assert_eq!(t.distance(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn route_follows_links() {
        let t = Torus::new(8, 8);
        // From (0,0) to (2,1): x first (2 east), then y (1 south).
        let r = t.route(NodeId(0), t.node_at(2, 1));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], t.link(NodeId(0), Direction::East));
        assert_eq!(r[1], t.link(NodeId(1), Direction::East));
        assert_eq!(r[2], t.link(NodeId(2), Direction::South));
    }

    #[test]
    fn route_iter_matches_route_and_is_exact_size() {
        let t = Torus::new(8, 8);
        for a in t.iter() {
            for b in t.iter() {
                let it = t.route_iter(a, b);
                assert_eq!(it.len(), t.distance(a, b));
                assert_eq!(it.collect::<Vec<_>>(), t.route(a, b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "torus must be at least 2x2")]
    fn tiny_torus_rejected() {
        let _ = Torus::new(1, 8);
    }

    #[test]
    fn link_ids_unique() {
        let t = Torus::new(4, 4);
        let mut seen = std::collections::HashSet::new();
        for n in t.iter() {
            for d in Direction::ALL {
                assert!(seen.insert(t.link(n, d)));
            }
        }
        assert_eq!(seen.len(), t.links());
    }

    #[test]
    fn rectangular_torus_works() {
        let t = Torus::new(4, 2);
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 2);
    }
}
