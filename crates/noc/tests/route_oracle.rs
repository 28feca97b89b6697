//! Exhaustive oracle for xy routing and ring order on every torus from
//! 2×2 to 12×12.
//!
//! The reference below is the straightforward modulo formulation of the
//! torus: coordinates by division, neighbours and wrapped offsets by `%`.
//! `Torus::route_iter` instead steps precomputed coordinates and wraps
//! them with compares, and `RingEmbedding` wraps ring positions the same
//! way; both must agree with the reference link for link and hop for hop.

use ring_noc::{Direction, LinkId, NodeId, RingEmbedding, Torus};

/// The modulo formulation of a `w × h` torus.
struct Reference<'a> {
    torus: &'a Torus,
    w: usize,
    h: usize,
}

impl Reference<'_> {
    fn coords(&self, n: NodeId) -> (usize, usize) {
        (n.0 % self.w, n.0 / self.w)
    }

    fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId((y % self.h) * self.w + (x % self.w))
    }

    fn neighbor(&self, n: NodeId, d: Direction) -> NodeId {
        let (x, y) = self.coords(n);
        match d {
            Direction::East => self.node_at(x + 1, y),
            Direction::West => self.node_at(x + self.w - 1, y),
            Direction::South => self.node_at(x, y + 1),
            Direction::North => self.node_at(x, y + self.h - 1),
        }
    }

    fn min_offset(a: usize, b: usize, len: usize) -> isize {
        let fwd = (b + len - a) % len;
        let bwd = len - fwd;
        if fwd <= bwd {
            fwd as isize
        } else {
            -(bwd as isize)
        }
    }

    /// The xy route: the x offset fully, then the y offset, following
    /// neighbours one link at a time.
    fn route(&self, from: NodeId, to: NodeId) -> Vec<LinkId> {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        let mut dx = Self::min_offset(fx, tx, self.w);
        let mut dy = Self::min_offset(fy, ty, self.h);
        let mut cur = from;
        let mut links = Vec::new();
        while dx != 0 || dy != 0 {
            let d = if dx > 0 {
                dx -= 1;
                Direction::East
            } else if dx < 0 {
                dx += 1;
                Direction::West
            } else if dy > 0 {
                dy -= 1;
                Direction::South
            } else {
                dy += 1;
                Direction::North
            };
            links.push(self.torus.link(cur, d));
            cur = self.neighbor(cur, d);
        }
        assert_eq!(cur, to, "the reference route must end at its target");
        links
    }
}

/// Every shape the oracle walks.
fn shapes() -> impl Iterator<Item = (usize, usize)> {
    (2..=12).flat_map(|w| (2..=12).map(move |h| (w, h)))
}

#[test]
fn route_iter_matches_the_modulo_reference_on_every_shape() {
    for (w, h) in shapes() {
        let t = Torus::new(w, h);
        let reference = Reference { torus: &t, w, h };
        for n in t.iter() {
            let (x, y) = t.coords(n);
            assert_eq!((x, y), reference.coords(n), "{w}x{h}: coords of {n}");
            assert_eq!(t.node_at(x, y), n, "{w}x{h}: node_at(coords({n}))");
            assert_eq!(t.node_at(x + w, y + 2 * h), n, "{w}x{h}: node_at wraps");
        }
        for a in t.iter() {
            for b in t.iter() {
                let it = t.route_iter(a, b);
                assert_eq!(it.len(), t.distance(a, b), "{w}x{h}: {a} -> {b} length");
                let got: Vec<LinkId> = it.collect();
                assert_eq!(got, reference.route(a, b), "{w}x{h}: {a} -> {b} links");
            }
        }
    }
}

/// A deterministic shuffle of `0..n` (xorshift64, Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<NodeId> {
    let mut s = seed | 1;
    let mut order: Vec<NodeId> = (0..n).map(NodeId).collect();
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order
}

#[test]
fn ring_order_matches_the_modulo_formulas_on_every_shape() {
    for (w, h) in shapes() {
        let t = Torus::new(w, h);
        let snake = RingEmbedding::boustrophedon(&t);
        let rings = [
            ("reversed snake", snake.reversed()),
            ("row-major", RingEmbedding::row_major(&t)),
            (
                "shuffled",
                RingEmbedding::from_custom_order(shuffled(t.nodes(), (w * 16 + h) as u64)),
            ),
            ("snake", snake),
        ];
        for (name, ring) in &rings {
            let order: Vec<NodeId> = ring.iter().collect();
            let len = order.len();
            assert_eq!(len, t.nodes());
            for a in t.iter() {
                let p = ring.position(a);
                assert_eq!(order[p], a, "{w}x{h} {name}: position of {a}");
                assert_eq!(
                    ring.successor(a),
                    order[(p + 1) % len],
                    "{w}x{h} {name}: successor of {a}"
                );
                assert_eq!(
                    ring.predecessor(a),
                    order[(p + len - 1) % len],
                    "{w}x{h} {name}: predecessor of {a}"
                );
                for b in t.iter() {
                    assert_eq!(
                        ring.ring_distance(a, b),
                        (ring.position(b) + len - p) % len,
                        "{w}x{h} {name}: ring distance {a} -> {b}"
                    );
                }
            }
        }
    }
}
