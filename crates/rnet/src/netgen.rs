//! Seeded synthetic road-network generators.
//!
//! The paper evaluates on three real maps (Table I): North-West Atlanta
//! (USGS), West San Jose (USGS) and Miami-Dade (TIGER/Line). Those
//! shapefiles are not redistributable here, so this module generates
//! *perturbed-grid* networks calibrated to reproduce each map's published
//! statistics — junction count, segment count, total length, average
//! segment length and junction degree. NEAT's behaviour depends on the
//! topology and scale statistics of the network, not on exact GIS geometry,
//! so this substitution preserves the experiments (see DESIGN.md §1).
//!
//! Generation is fully deterministic given the seed.

use crate::geometry::Point;
use crate::graph::{NetworkStats, RoadNetwork, RoadNetworkBuilder};
use crate::ids::NodeId;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Miles-per-hour to metres-per-second conversion for readable speed limits.
pub const MPH: f64 = 0.44704;

/// Configuration for the perturbed-grid generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GridNetworkConfig {
    /// Grid rows (junction rows).
    pub rows: usize,
    /// Grid columns (junction columns).
    pub cols: usize,
    /// Nominal spacing between adjacent junctions in metres; also the
    /// expected segment length.
    pub spacing_m: f64,
    /// Node-position jitter as a fraction of `spacing_m` (uniform in
    /// `[-j, j]` per axis).
    pub jitter_frac: f64,
    /// Target ratio of segments to junctions (controls average degree:
    /// `avg_degree = 2 × ratio`).
    pub segment_ratio: f64,
    /// Number of hub junctions that receive diagonal segments, raising the
    /// maximum degree above the grid's natural 4.
    pub hub_count: usize,
    /// Diagonal segments added per hub (max degree ≈ 4 + this).
    pub hub_extra_degree: usize,
    /// Every `arterial_period`-th row and column is an arterial with the
    /// higher speed limit. `0` disables arterials.
    pub arterial_period: usize,
    /// Speed limit of local streets in m/s.
    pub local_speed: f64,
    /// Speed limit of arterial streets in m/s.
    pub arterial_speed: f64,
}

impl GridNetworkConfig {
    /// A small fully-kept grid for unit tests and examples: no edge
    /// deletion (ratio high enough to keep every grid edge), mild jitter.
    pub fn small_test(rows: usize, cols: usize) -> Self {
        GridNetworkConfig {
            rows,
            cols,
            spacing_m: 100.0,
            jitter_frac: 0.1,
            segment_ratio: 2.0, // keep all grid edges
            hub_count: 0,
            hub_extra_degree: 0,
            arterial_period: 4,
            local_speed: 30.0 * MPH,
            arterial_speed: 55.0 * MPH,
        }
    }
}

/// The three road networks of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapPreset {
    /// North-West Atlanta, GA (USGS): 6 979 junctions, 9 187 segments,
    /// 1 384.4 km, avg 150.7 m, degree avg 2.6 / max 6.
    Atlanta,
    /// West San Jose, CA (USGS): 10 929 junctions, 14 600 segments,
    /// 1 821.2 km, avg 124.7 m, degree avg 2.7 / max 6.
    SanJose,
    /// Miami-Dade, FL (TIGER/Line): 103 377 junctions, 154 681 segments,
    /// 26 148.3 km, avg 169.0 m, degree avg 3.0 / max 9.
    Miami,
}

impl MapPreset {
    /// Short name used in dataset labels ("ATL", "SJ", "MIA").
    pub fn code(self) -> &'static str {
        match self {
            MapPreset::Atlanta => "ATL",
            MapPreset::SanJose => "SJ",
            MapPreset::Miami => "MIA",
        }
    }

    /// All three presets, in the paper's order.
    pub fn all() -> [MapPreset; 3] {
        [MapPreset::Atlanta, MapPreset::SanJose, MapPreset::Miami]
    }

    /// The statistics the paper reports for the real map (Table I).
    pub fn paper_stats(self) -> NetworkStats {
        match self {
            MapPreset::Atlanta => NetworkStats {
                junctions: 6979,
                segments: 9187,
                total_length_km: 1384.4,
                avg_segment_length_m: 150.7,
                avg_degree: 2.6,
                max_degree: 6,
            },
            MapPreset::SanJose => NetworkStats {
                junctions: 10929,
                segments: 14600,
                total_length_km: 1821.2,
                avg_segment_length_m: 124.7,
                avg_degree: 2.7,
                max_degree: 6,
            },
            MapPreset::Miami => NetworkStats {
                junctions: 103377,
                segments: 154681,
                total_length_km: 26148.3,
                avg_segment_length_m: 169.0,
                avg_degree: 3.0,
                max_degree: 9,
            },
        }
    }

    /// Generator configuration calibrated to [`MapPreset::paper_stats`].
    pub fn config(self) -> GridNetworkConfig {
        let paper = self.paper_stats();
        // Pick a near-square grid with about the right junction count and
        // hub parameters reaching the paper's max degree.
        let (rows, cols, hubs, hub_extra) = match self {
            MapPreset::Atlanta => (83, 84, 30, 2),
            MapPreset::SanJose => (104, 105, 40, 2),
            MapPreset::Miami => (321, 322, 200, 5),
        };
        // Jitter elongates segments slightly (E[len] ≈ spacing·(1+j²/3) for
        // per-axis jitter j·spacing); shrink the spacing to compensate.
        let jitter = 0.12f64;
        let spacing = paper.avg_segment_length_m / (1.0 + jitter * jitter / 2.0);
        GridNetworkConfig {
            rows,
            cols,
            spacing_m: spacing,
            jitter_frac: jitter,
            segment_ratio: paper.segments as f64 / paper.junctions as f64,
            hub_count: hubs,
            hub_extra_degree: hub_extra,
            arterial_period: 8,
            local_speed: 30.0 * MPH,
            arterial_speed: 55.0 * MPH,
        }
    }

    /// Generates the calibrated synthetic stand-in network.
    pub fn generate(self, seed: u64) -> RoadNetwork {
        generate_grid_network(&self.config(), seed)
    }
}

/// Disjoint-set forest used to keep the generated network connected.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

/// Generates a perturbed-grid road network.
///
/// The generator:
/// 1. places `rows × cols` junctions on a jittered grid,
/// 2. builds a random spanning tree from the 4-neighbour grid edges
///    (guaranteeing connectivity),
/// 3. adds further shuffled grid edges until `segment_ratio × junctions`
///    segments exist,
/// 4. adds diagonal segments at `hub_count` randomly chosen interior hubs
///    (raising the maximum junction degree), and
/// 5. marks every `arterial_period`-th row/column as an arterial with the
///    higher speed limit.
///
/// Deterministic for a given `(config, seed)` pair.
///
/// # Panics
///
/// Panics if the grid has fewer than 2×2 junctions.
pub fn generate_grid_network(config: &GridNetworkConfig, seed: u64) -> RoadNetwork {
    assert!(
        config.rows >= 2 && config.cols >= 2,
        "grid must be at least 2x2"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = config.rows * config.cols;
    let mut b = RoadNetworkBuilder::with_capacity(n, (config.segment_ratio * n as f64) as usize);

    // 1. Jittered junctions.
    let jitter = config.jitter_frac * config.spacing_m;
    let mut ids = Vec::with_capacity(n);
    for r in 0..config.rows {
        for c in 0..config.cols {
            let dx = rng.gen_range(-jitter..=jitter);
            let dy = rng.gen_range(-jitter..=jitter);
            ids.push(b.add_node(Point::new(
                c as f64 * config.spacing_m + dx,
                r as f64 * config.spacing_m + dy,
            )));
        }
    }
    let at = |r: usize, c: usize| ids[r * config.cols + c];

    // Candidate 4-neighbour edges, tagged with whether they lie on an
    // arterial row/column.
    let is_arterial =
        |i: usize| config.arterial_period > 0 && i.is_multiple_of(config.arterial_period);
    let mut candidates: Vec<(NodeId, NodeId, bool)> = Vec::with_capacity(2 * n);
    for r in 0..config.rows {
        for c in 0..config.cols {
            if c + 1 < config.cols {
                candidates.push((at(r, c), at(r, c + 1), is_arterial(r)));
            }
            if r + 1 < config.rows {
                candidates.push((at(r, c), at(r + 1, c), is_arterial(c)));
            }
        }
    }
    candidates.shuffle(&mut rng);

    let speed = |arterial: bool, cfg: &GridNetworkConfig| {
        if arterial {
            cfg.arterial_speed
        } else {
            cfg.local_speed
        }
    };

    // 2. Random spanning tree.
    let mut uf = UnionFind::new(n);
    let mut extras = Vec::new();
    for (a, c, arterial) in candidates {
        // lint:allow(L4) reason=node ids wrap u32, so index() round-trips losslessly
        if uf.union(a.index() as u32, c.index() as u32) {
            b.add_segment(a, c, speed(arterial, config))
                .expect("grid edge is valid"); // lint:allow(L1) reason=grid edges connect distinct freshly created nodes
        } else {
            extras.push((a, c, arterial));
        }
    }

    // 4. Hub diagonals (added before the fill so they always fit within the
    // segment budget).
    let mut target = ((config.segment_ratio * n as f64).round() as usize).max(n - 1);
    let mut hub_cells: Vec<(usize, usize)> = (1..config.rows.saturating_sub(1))
        .flat_map(|r| (1..config.cols.saturating_sub(1)).map(move |c| (r, c)))
        .collect();
    hub_cells.shuffle(&mut rng);
    for &(r, c) in hub_cells.iter().take(config.hub_count) {
        let diagonals = [
            (r + 1, c + 1),
            (r.wrapping_sub(1), c.wrapping_sub(1)),
            (r + 1, c.wrapping_sub(1)),
            (r.wrapping_sub(1), c + 1),
            // A fifth, longer spoke for very-high-degree hubs.
            (r + 1, c + 2),
        ];
        for &(rr, cc) in diagonals.iter().take(config.hub_extra_degree) {
            if rr < config.rows && cc < config.cols && b.segment_count() < target {
                b.add_segment(at(r, c), at(rr, cc), config.local_speed)
                    .expect("diagonal edge is valid"); // lint:allow(L1) reason=diagonal edges connect distinct freshly created nodes
            }
        }
    }

    // 3. Fill with leftover grid edges until the target segment count.
    target = target.max(b.segment_count());
    for (a, c, arterial) in extras {
        if b.segment_count() >= target {
            break;
        }
        b.add_segment(a, c, speed(arterial, config))
            .expect("grid edge is valid"); // lint:allow(L1) reason=grid edges connect distinct freshly created nodes
    }

    b.build().expect("generated network is valid") // lint:allow(L1) reason=build fails only past 2^31 segments, far beyond any generated map
}

/// Configuration of the radial (ring-and-spoke) generator — a different
/// topology family from the perturbed grid, useful for testing that the
/// clustering algorithms do not overfit grid structure.
#[derive(Debug, Clone, PartialEq)]
pub struct RadialNetworkConfig {
    /// Number of concentric rings (≥ 1).
    pub rings: usize,
    /// Junctions per ring (≥ 3).
    pub spokes: usize,
    /// Radial spacing between rings in metres.
    pub ring_spacing_m: f64,
    /// Node-position jitter as a fraction of the ring spacing.
    pub jitter_frac: f64,
    /// Speed limit of ring roads in m/s.
    pub ring_speed: f64,
    /// Speed limit of spoke (radial) roads in m/s.
    pub spoke_speed: f64,
}

impl Default for RadialNetworkConfig {
    fn default() -> Self {
        RadialNetworkConfig {
            rings: 6,
            spokes: 12,
            ring_spacing_m: 300.0,
            jitter_frac: 0.08,
            ring_speed: 30.0 * MPH,
            spoke_speed: 45.0 * MPH,
        }
    }
}

/// Generates a ring-and-spoke road network: a centre junction, `rings`
/// concentric rings of `spokes` junctions each, ring roads joining
/// neighbours on a ring and spoke roads joining consecutive rings.
/// Always connected; deterministic for a given `(config, seed)`.
///
/// # Panics
///
/// Panics when `rings == 0` or `spokes < 3`.
pub fn generate_radial_network(config: &RadialNetworkConfig, seed: u64) -> RoadNetwork {
    assert!(config.rings >= 1, "need at least one ring");
    assert!(config.spokes >= 3, "need at least three spokes");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = RoadNetworkBuilder::new();
    let jitter = config.jitter_frac * config.ring_spacing_m;
    let jit = |rng: &mut ChaCha8Rng| rng.gen_range(-jitter..=jitter);

    let centre = b.add_node(Point::new(jit(&mut rng), jit(&mut rng)));
    let mut rings: Vec<Vec<NodeId>> = Vec::with_capacity(config.rings);
    for r in 1..=config.rings {
        let radius = r as f64 * config.ring_spacing_m;
        let ring: Vec<NodeId> = (0..config.spokes)
            .map(|s| {
                let angle = std::f64::consts::TAU * s as f64 / config.spokes as f64;
                b.add_node(Point::new(
                    radius * angle.cos() + jit(&mut rng),
                    radius * angle.sin() + jit(&mut rng),
                ))
            })
            .collect();
        rings.push(ring);
    }
    // Ring roads.
    for ring in &rings {
        for i in 0..ring.len() {
            b.add_segment(ring[i], ring[(i + 1) % ring.len()], config.ring_speed)
                .expect("ring segment valid"); // lint:allow(L1) reason=ring edges connect distinct freshly created nodes
        }
    }
    // Spokes: centre to the first ring, then ring to ring.
    for (i, &n) in rings[0].iter().enumerate() {
        // Connect every other innermost junction to the centre so the
        // centre's degree stays road-like rather than `spokes`.
        if i % 2 == 0 {
            b.add_segment(centre, n, config.spoke_speed)
                .expect("spoke segment valid"); // lint:allow(L1) reason=spoke edges connect distinct freshly created nodes
        }
    }
    for w in rings.windows(2) {
        for (inner, outer) in w[0].iter().zip(&w[1]) {
            b.add_segment(*inner, *outer, config.spoke_speed)
                .expect("spoke segment valid"); // lint:allow(L1) reason=spoke edges connect distinct freshly created nodes
        }
    }
    b.build().expect("radial network valid") // lint:allow(L1) reason=build fails only past 2^31 segments, far beyond any generated map
}

/// Builds a simple linear chain network of `n` junctions spaced
/// `spacing_m` apart — handy for tests and examples.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn chain_network(n: usize, spacing_m: f64, speed: f64) -> RoadNetwork {
    assert!(n >= 2, "chain needs at least two junctions");
    let mut b = RoadNetworkBuilder::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(Point::new(i as f64 * spacing_m, 0.0)))
        .collect();
    for w in ids.windows(2) {
        b.add_segment(w[0], w[1], speed).expect("chain edge valid"); // lint:allow(L1) reason=chain edges connect consecutive distinct nodes
    }
    b.build().expect("chain network valid") // lint:allow(L1) reason=build fails only past 2^31 segments, far beyond any generated map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let cfg = GridNetworkConfig::small_test(10, 10);
        let a = generate_grid_network(&cfg, 7);
        let b = generate_grid_network(&cfg, 7);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.segment_count(), b.segment_count());
        for (sa, sb) in a.segments().zip(b.segments()) {
            assert_eq!(sa, sb);
        }
        let c = generate_grid_network(&cfg, 8);
        // Different seed gives different jitter.
        let pa = a.position(NodeId::new(0));
        let pc = c.position(NodeId::new(0));
        assert!(pa != pc);
    }

    #[test]
    fn generated_network_is_connected() {
        for seed in 0..5 {
            let net = generate_grid_network(&GridNetworkConfig::small_test(8, 12), seed);
            assert!(net.is_connected(), "seed {seed} disconnected");
        }
    }

    #[test]
    fn ratio_controls_segment_count() {
        let mut cfg = GridNetworkConfig::small_test(20, 20);
        cfg.segment_ratio = 1.3;
        let net = generate_grid_network(&cfg, 1);
        assert_eq!(net.node_count(), 400);
        assert_eq!(net.segment_count(), 520);
        assert!(net.is_connected());
    }

    #[test]
    fn atlanta_preset_matches_table1_within_tolerance() {
        let net = MapPreset::Atlanta.generate(42);
        let got = net.stats();
        let want = MapPreset::Atlanta.paper_stats();
        assert!(
            (got.junctions as f64 - want.junctions as f64).abs() / (want.junctions as f64) < 0.01,
            "junctions {got:?}"
        );
        assert!((got.segments as f64 - want.segments as f64).abs() / (want.segments as f64) < 0.01);
        assert!((got.avg_segment_length_m - want.avg_segment_length_m).abs() < 8.0);
        assert!((got.avg_degree - want.avg_degree).abs() < 0.15);
        assert!(got.max_degree >= 5 && got.max_degree <= 7);
        assert!((got.total_length_km - want.total_length_km).abs() / want.total_length_km < 0.06);
        assert!(net.is_connected());
    }

    #[test]
    fn san_jose_preset_matches_table1_within_tolerance() {
        let net = MapPreset::SanJose.generate(42);
        let got = net.stats();
        let want = MapPreset::SanJose.paper_stats();
        assert!(
            (got.junctions as f64 - want.junctions as f64).abs() / (want.junctions as f64) < 0.01
        );
        assert!((got.segments as f64 - want.segments as f64).abs() / (want.segments as f64) < 0.01);
        assert!((got.avg_degree - want.avg_degree).abs() < 0.15);
        assert!(net.is_connected());
    }

    #[test]
    fn miami_preset_matches_table1_within_tolerance() {
        let net = MapPreset::Miami.generate(42);
        let got = net.stats();
        let want = MapPreset::Miami.paper_stats();
        assert!(
            (got.junctions as f64 - want.junctions as f64).abs() / (want.junctions as f64) < 0.01
        );
        assert!((got.segments as f64 - want.segments as f64).abs() / (want.segments as f64) < 0.01);
        assert!((got.avg_degree - want.avg_degree).abs() < 0.15);
        assert!((got.avg_segment_length_m - want.avg_segment_length_m).abs() < 8.0);
        assert!(got.max_degree >= 8 && got.max_degree <= 11);
        assert!(net.is_connected());
    }

    #[test]
    fn preset_codes() {
        assert_eq!(MapPreset::Atlanta.code(), "ATL");
        assert_eq!(MapPreset::SanJose.code(), "SJ");
        assert_eq!(MapPreset::Miami.code(), "MIA");
        assert_eq!(MapPreset::all().len(), 3);
    }

    #[test]
    fn chain_network_shape() {
        let net = chain_network(5, 100.0, 10.0);
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.segment_count(), 4);
        assert_eq!(net.degree(NodeId::new(0)), 1);
        assert_eq!(net.degree(NodeId::new(2)), 2);
        assert!(net.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn chain_too_short_panics() {
        let _ = chain_network(1, 100.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn tiny_grid_panics() {
        let cfg = GridNetworkConfig::small_test(1, 5);
        let _ = generate_grid_network(&cfg, 0);
    }

    #[test]
    fn arterials_have_higher_speed() {
        let cfg = GridNetworkConfig::small_test(9, 9);
        let net = generate_grid_network(&cfg, 3);
        let speeds: Vec<f64> = net.segments().map(|s| s.speed_limit).collect();
        assert!(speeds.contains(&cfg.local_speed));
        assert!(speeds.contains(&cfg.arterial_speed));
    }

    #[test]
    fn radial_network_is_connected_and_sized() {
        let cfg = RadialNetworkConfig::default();
        let net = generate_radial_network(&cfg, 3);
        // 1 centre + rings × spokes junctions.
        assert_eq!(net.node_count(), 1 + cfg.rings * cfg.spokes);
        // Segments: rings × spokes ring roads + spokes/2 centre spokes +
        // (rings−1) × spokes radial roads.
        let expect = cfg.rings * cfg.spokes + cfg.spokes.div_ceil(2) + (cfg.rings - 1) * cfg.spokes;
        assert_eq!(net.segment_count(), expect);
        assert!(net.is_connected());
    }

    #[test]
    fn radial_network_deterministic() {
        let cfg = RadialNetworkConfig::default();
        let a = generate_radial_network(&cfg, 7);
        let b = generate_radial_network(&cfg, 7);
        assert!(a.segments().zip(b.segments()).all(|(x, y)| x == y));
        let c = generate_radial_network(&cfg, 8);
        assert!(a.position(NodeId::new(0)) != c.position(NodeId::new(0)));
    }

    #[test]
    fn radial_speeds_differ_between_rings_and_spokes() {
        let cfg = RadialNetworkConfig::default();
        let net = generate_radial_network(&cfg, 1);
        let speeds: std::collections::BTreeSet<u64> = net
            .segments()
            .map(|s| (s.speed_limit * 1000.0) as u64)
            .collect();
        assert_eq!(speeds.len(), 2);
    }

    #[test]
    #[should_panic(expected = "three spokes")]
    fn radial_too_few_spokes_panics() {
        let cfg = RadialNetworkConfig {
            spokes: 2,
            ..RadialNetworkConfig::default()
        };
        let _ = generate_radial_network(&cfg, 0);
    }

    #[test]
    fn hubs_raise_max_degree() {
        let mut cfg = GridNetworkConfig::small_test(20, 20);
        cfg.segment_ratio = 1.6;
        cfg.hub_count = 10;
        cfg.hub_extra_degree = 4;
        let net = generate_grid_network(&cfg, 5);
        assert!(net.stats().max_degree > 4);
    }
}
