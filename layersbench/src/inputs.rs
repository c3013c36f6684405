//! Input generation. The program under test only ever sees what these
//! functions build from the run seed.
//!
//! Each workload has a fixed *scenario* — a Table-II road network and
//! trip population generated from [`SCENARIO_SEED`] — and the run seed
//! draws a replicate of it: GPS noise, trip order, which trips form each
//! streamed batch or pushed payload. Drawing the scenario itself from the
//! run seed would re-place the hotspots and destinations, which moved
//! SJ5000 map matching plus opt-NEAT between 0.35 s and 1.18 s over ten
//! seeds and would bury any change the benchmark is meant to see.

use neat_core::{NeatConfig, Weights};
use neat_mobisim::presets::DatasetPreset;
use neat_mobisim::{generate_dataset_labeled, SimConfig};
use neat_rnet::location::RawSample;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig, MapPreset};
use neat_rnet::{RoadLocation, RoadNetwork};
use neat_traj::{Dataset, Trajectory, TrajectoryId};
use std::collections::BTreeMap;
use std::path::Path;

/// Seed of every scenario: the repository's experiment seed, so the
/// road networks are the ones the Table-II experiments use.
pub const SCENARIO_SEED: u64 = 42;

/// GPS noise (per-axis σ, metres) of the raw traces the map-matching
/// workload starts from.
pub const GPS_NOISE_STD_M: f64 = 10.0;

/// Input size: the Table-II scale, or the 4×4-grid fixture the smoke
/// test runs in a few seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table-II networks and populations.
    Full,
    /// The 4×4 grid with a few dozen trips.
    Smoke,
}

/// The opt-NEAT configuration of the paper's evaluation (traffic
/// monitoring weights, β = +∞, minCard 5, ε = 6500 m) at `threads`; the
/// smoke fixture uses minCard 3 and ε = 600 m so its few trips still form
/// flows.
pub fn neat_config(scale: Scale, threads: usize) -> NeatConfig {
    let (min_card, epsilon) = match scale {
        Scale::Full => (5, 6500.0),
        Scale::Smoke => (3, 600.0),
    };
    NeatConfig {
        weights: Weights::traffic_monitoring(),
        beta: f64::INFINITY,
        min_card,
        epsilon,
        use_elb: true,
        threads,
        ..NeatConfig::default()
    }
}

/// The road network of `map` at `scale`.
pub fn network(map: MapPreset, scale: Scale) -> RoadNetwork {
    match scale {
        Scale::Full => map.generate(SCENARIO_SEED),
        Scale::Smoke => generate_grid_network(&GridNetworkConfig::small_test(4, 4), 7),
    }
}

/// A trip population and its origin–destination classes: trips that
/// started in the same hotspot and drove to the same destination.
#[derive(Debug, Clone)]
pub struct Population {
    /// The trips.
    pub trips: Dataset,
    /// Indices into `trips`, one list per class, classes in a fixed order.
    pub classes: Vec<Vec<usize>>,
}

/// The trip population of `map`: the Table-II 5000-object dataset, or 60
/// trips on the smoke grid.
pub fn population(map: MapPreset, net: &RoadNetwork, scale: Scale) -> Population {
    let (sim, name) = match scale {
        Scale::Full => {
            let preset = DatasetPreset::new(map, 5000);
            (preset.sim_config(), preset.label())
        }
        Scale::Smoke => (
            SimConfig {
                num_objects: 60,
                num_hotspots: 2,
                num_destinations: 2,
                sample_period_s: 4.0,
                ..SimConfig::default()
            },
            "grid4x4-smoke".to_string(),
        ),
    };
    let (trips, truth) = generate_dataset_labeled(net, &sim, SCENARIO_SEED + 1, name);
    let mut by_class: BTreeMap<Option<(usize, usize)>, Vec<usize>> = BTreeMap::new();
    for (i, t) in trips.trajectories().iter().enumerate() {
        by_class
            .entry(truth.macro_class(t.id()))
            .or_default()
            .push(i);
    }
    Population {
        trips,
        classes: by_class.into_values().collect(),
    }
}

/// Writes `net` in the `rnet::io` text format, for set-up to read back.
///
/// # Errors
///
/// Serialization or file-system failure, as text.
pub fn write_network_file(net: &RoadNetwork, path: &Path) -> Result<(), String> {
    let mut buf = Vec::new();
    neat_rnet::io::write_network(net, &mut buf).map_err(|e| format!("encode network: {e}"))?;
    std::fs::write(path, buf).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Deterministic generator for the seeded draws (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// Raw GPS traces of `data` under Gaussian noise drawn from `seed`.
pub fn gps_traces(data: &Dataset, seed: u64) -> Vec<Vec<RawSample>> {
    neat_mobisim::noise::to_raw_traces(data, GPS_NOISE_STD_M, seed)
        .expect("GPS_NOISE_STD_M is a positive constant")
}

/// `data` with its trajectories in a seeded random order.
pub fn shuffled(data: &Dataset, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed, 1);
    let trs = data.trajectories();
    let order = rng.sample(trs.len(), trs.len());
    Dataset::from_trajectories(
        data.name(),
        order.into_iter().map(|i| trs[i].clone()).collect(),
    )
}

/// `tr` under a new id with every timestamp shifted by `dt` seconds.
fn shifted(tr: &Trajectory, id: u64, dt: f64) -> Trajectory {
    let pts = tr
        .points()
        .iter()
        .map(|p| RoadLocation::new(p.segment, p.position, p.time + dt))
        .collect();
    Trajectory::new(TrajectoryId::new(id), pts).expect("a uniform shift keeps timestamps ordered")
}

/// A stream of `count` batches of `per_batch` trips drawn from `pop`.
/// Trip `j` of the stream is drawn from class `j mod classes`, so every
/// batch carries a near-equal share of each origin–destination class and
/// only the trips within a class depend on `seed`; drawing classes at
/// random too made the retained flows, and with them the per-batch cost,
/// swing between seeds. Batch `k` departs `k · stride_s` seconds after
/// batch 0, and trip ids run on across batches, so every id is unique.
pub fn batch_stream(
    pop: &Population,
    count: usize,
    per_batch: usize,
    stride_s: f64,
    seed: u64,
) -> Vec<Dataset> {
    let mut rng = Rng::new(seed, 2);
    let trs = pop.trips.trajectories();
    (0..count)
        .map(|k| {
            let mut batch = Dataset::new(format!("b-{k:05}"));
            for j in k * per_batch..(k + 1) * per_batch {
                let class = &pop.classes[j % pop.classes.len()];
                let trip = &trs[class[rng.below(class.len())]];
                batch.push(shifted(trip, j as u64, k as f64 * stride_s));
            }
            batch
        })
        .collect()
}

/// A batch serialized as a spool file / push payload.
pub fn encode_batch(batch: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    neat_traj::io::write_dataset(batch, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_sample_is_distinct_and_seeded() {
        let a = Rng::new(5, 0).sample(100, 40);
        let b = Rng::new(5, 0).sample(100, 40);
        let c = Rng::new(6, 0).sample(100, 40);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
        assert!(sorted.iter().all(|&i| i < 100));
    }

    #[test]
    fn batch_stream_shifts_times_and_keeps_ids_unique() {
        let net = network(MapPreset::SanJose, Scale::Smoke);
        let pop = population(MapPreset::SanJose, &net, Scale::Smoke);
        let pool = &pop.trips;
        let batches = batch_stream(&pop, 4, 5, 60.0, 9);
        assert_eq!(batches.len(), 4);
        let mut ids: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.trajectories().iter().map(|t| t.id().value()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        // Every trip of batch 3 is a pool trip moved 180 s later.
        for t in batches[3].trajectories() {
            let moved = |p: &Trajectory| {
                p.len() == t.len()
                    && p.points().iter().zip(t.points()).all(|(a, b)| {
                        a.segment == b.segment
                            && a.position == b.position
                            && (b.time - a.time - 180.0).abs() < 1e-9
                    })
            };
            assert!(pool.trajectories().iter().any(moved));
        }
        assert_eq!(batch_stream(&pop, 4, 5, 60.0, 9), batches, "seeded");
    }

    #[test]
    fn batches_take_equal_shares_of_every_class() {
        let net = network(MapPreset::SanJose, Scale::Smoke);
        let pop = population(MapPreset::SanJose, &net, Scale::Smoke);
        assert!(pop.classes.len() > 1);
        let total: usize = pop.classes.iter().map(Vec::len).sum();
        assert_eq!(total, pop.trips.len());
        // Streamed trips are time-shifted copies: match them on the path.
        let same_path = |a: &Trajectory, b: &Trajectory| {
            a.len() == b.len()
                && a.points()
                    .iter()
                    .zip(b.points())
                    .all(|(p, q)| p.segment == q.segment && p.position == q.position)
        };
        let class_of = |t: &Trajectory| {
            let trips = pop.trips.trajectories();
            pop.classes
                .iter()
                .position(|c| c.iter().any(|&i| same_path(&trips[i], t)))
                .unwrap()
        };
        let per_batch = 2 * pop.classes.len() + 1;
        for batch in batch_stream(&pop, 3, per_batch, 60.0, 4) {
            let mut counts = vec![0; pop.classes.len()];
            for t in batch.trajectories() {
                counts[class_of(t)] += 1;
            }
            let (lo, hi) = (counts.iter().min(), counts.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "{counts:?}");
        }
    }

    #[test]
    fn shuffle_keeps_the_multiset() {
        let net = network(MapPreset::SanJose, Scale::Smoke);
        let pool = population(MapPreset::SanJose, &net, Scale::Smoke).trips;
        let s = shuffled(&pool, 3);
        assert_eq!(s.len(), pool.len());
        assert_eq!(s.total_points(), pool.total_points());
        assert_ne!(s.trajectories()[..5], pool.trajectories()[..5]);
    }
}
