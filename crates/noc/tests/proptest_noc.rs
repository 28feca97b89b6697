//! Property tests for the network substrate: routing, ring embeddings,
//! multicast trees, and timing monotonicity on arbitrary torus shapes.

use proptest::prelude::*;
use ring_noc::{multicast_tree, Channel, Network, NetworkConfig, NodeId, RingEmbedding, Torus};

fn arb_torus() -> impl Strategy<Value = Torus> {
    (2usize..9, 2usize..9).prop_map(|(w, h)| Torus::new(w, h))
}

proptest! {
    /// xy routes are minimal, connected, and use only adjacent links.
    #[test]
    fn routes_are_minimal(t in arb_torus(), a in 0usize..64, b in 0usize..64) {
        let a = NodeId(a % t.nodes());
        let b = NodeId(b % t.nodes());
        let route = t.route(a, b);
        prop_assert_eq!(route.len(), t.distance(a, b));
        // Distance obeys the per-dimension wrap bound.
        prop_assert!(t.distance(a, b) <= t.width() / 2 + t.height() / 2);
    }

    /// The triangle inequality holds for torus distance.
    #[test]
    fn distance_triangle_inequality(
        t in arb_torus(),
        a in 0usize..64,
        b in 0usize..64,
        c in 0usize..64,
    ) {
        let (a, b, c) = (NodeId(a % t.nodes()), NodeId(b % t.nodes()), NodeId(c % t.nodes()));
        prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
    }

    /// Every snake ring on an even-height torus is a Hamiltonian cycle of
    /// single-link hops.
    #[test]
    fn snake_ring_single_link_hops(w in 2usize..9, h in (1usize..5).prop_map(|x| x * 2)) {
        let t = Torus::new(w, h);
        let ring = RingEmbedding::boustrophedon(&t);
        let mut n = NodeId(0);
        let mut visited = 0;
        for _ in 0..t.nodes() {
            let s = ring.successor(n);
            prop_assert_eq!(t.distance(n, s), 1);
            n = s;
            visited += 1;
        }
        prop_assert_eq!(visited, t.nodes());
        prop_assert_eq!(n, NodeId(0));
    }

    /// On an odd height the snake's last row runs left to right, so the
    /// closing hop (last node → node 0) crosses two links, one x wrap and
    /// one y wrap; every other hop is a single link.
    #[test]
    fn snake_ring_odd_height_closes_with_one_two_link_hop(
        w in 2usize..9,
        h in (1usize..5).prop_map(|x| x * 2 + 1),
    ) {
        let t = Torus::new(w, h);
        let ring = RingEmbedding::boustrophedon(&t);
        let long: Vec<NodeId> = t
            .iter()
            .filter(|&n| t.distance(n, ring.successor(n)) != 1)
            .collect();
        prop_assert_eq!(long.len(), 1);
        prop_assert_eq!(t.distance(long[0], ring.successor(long[0])), 2);
        prop_assert_eq!(ring.successor(long[0]), NodeId(0));
        prop_assert_eq!(ring.lap_physical_hops(&t), t.nodes() + 1);
    }

    /// Multicast trees cover every node exactly once from any root.
    #[test]
    fn multicast_tree_is_spanning(t in arb_torus(), root in 0usize..64) {
        let root = NodeId(root % t.nodes());
        let edges = multicast_tree(&t, root);
        prop_assert_eq!(edges.len(), t.nodes() - 1);
        let mut reached = vec![false; t.nodes()];
        reached[root.0] = true;
        for e in &edges {
            prop_assert!(reached[e.from.0], "edge from unreached node");
            prop_assert!(!reached[e.to.0], "node reached twice");
            reached[e.to.0] = true;
        }
        prop_assert!(reached.iter().all(|&r| r));
    }

    /// Delivery times are monotone in injection time and never precede
    /// the contention-free estimate.
    #[test]
    fn unicast_timing_sane(
        from in 0usize..64,
        to in 0usize..64,
        t0 in 0u64..10_000,
        bytes in 1u64..128,
    ) {
        let torus = Torus::new(8, 8);
        let mut net = Network::new(torus, NetworkConfig::default());
        let (from, to) = (NodeId(from), NodeId(to));
        let est = net.latency_estimate(from, to, bytes);
        let d1 = net.unicast(t0, from, to, bytes, Channel::Request);
        let bound = t0 + if from == to { 0 } else { est };
        prop_assert!(d1.arrival >= bound);
        // A later injection on the same channel never arrives earlier.
        let d2 = net.unicast(t0 + 1, from, to, bytes, Channel::Request);
        prop_assert!(d2.arrival >= d1.arrival);
    }

    /// Multicast arrival at each destination is at least the xy-distance
    /// bound and total attributed hops equal N-1.
    #[test]
    fn multicast_timing_sane(root in 0usize..64, t0 in 0u64..10_000) {
        let torus = Torus::new(8, 8);
        let mut net = Network::new(torus, NetworkConfig::default());
        let root = NodeId(root);
        let ds = net.multicast(t0, root, 8, Channel::Request).unwrap();
        prop_assert_eq!(ds.len(), 63);
        let total: u64 = ds.iter().map(|d| d.hops).sum();
        prop_assert_eq!(total, 63);
        for d in &ds {
            prop_assert!(d.arrival > t0);
        }
    }
}
