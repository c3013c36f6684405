//! Configuration of the NEAT pipeline.

use crate::error::NeatError;
use serde::{Deserialize, Serialize};

/// Merging-selectivity weights `(wq, wk, wv)` of Definition 10.
///
/// `wq` weighs the flow factor, `wk` the density factor and `wv` the
/// speed-limit factor. All weights are non-negative and sum to 1.
///
/// ```
/// use neat_core::Weights;
/// let w = Weights::new(0.5, 0.5, 0.0).unwrap();
/// assert_eq!(w.wq(), 0.5);
/// assert!(Weights::new(0.9, 0.9, 0.9).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    wq: f64,
    wk: f64,
    wv: f64,
}

impl Weights {
    /// Creates a weight triple.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::InvalidConfig`] when a weight is negative or
    /// the weights do not sum to 1 (tolerance `1e-9`).
    pub fn new(wq: f64, wk: f64, wv: f64) -> Result<Self, NeatError> {
        if wq < 0.0 || wk < 0.0 || wv < 0.0 {
            return Err(NeatError::InvalidConfig(
                "selectivity weights must be non-negative".into(),
            ));
        }
        if ((wq + wk + wv) - 1.0).abs() > 1e-9 {
            return Err(NeatError::InvalidConfig(format!(
                "selectivity weights must sum to 1, got {}",
                wq + wk + wv
            )));
        }
        Ok(Weights { wq, wk, wv })
    }

    /// Equal weights `(1/3, 1/3, 1/3)` — the paper's "favour all three
    /// factors equally" setting.
    pub fn balanced() -> Self {
        Weights {
            wq: 1.0 / 3.0,
            wk: 1.0 / 3.0,
            wv: 1.0 / 3.0,
        }
    }

    /// `(1, 0, 0)`: pure flow — selects the maxFlow-neighbour
    /// (Definition 7).
    pub fn flow_only() -> Self {
        Weights {
            wq: 1.0,
            wk: 0.0,
            wv: 0.0,
        }
    }

    /// `(0, 1, 0)`: merge with the densest f-neighbour; flows describe
    /// routes where traffic is most concentrated.
    pub fn density_only() -> Self {
        Weights {
            wq: 0.0,
            wk: 1.0,
            wv: 0.0,
        }
    }

    /// `(0, 0, 1)`: flows describe the routes where objects travel fastest.
    pub fn speed_only() -> Self {
        Weights {
            wq: 0.0,
            wk: 0.0,
            wv: 1.0,
        }
    }

    /// `(1/2, 1/2, 0)`: the paper's suggested setting for traffic
    /// monitoring (flow and density matter most).
    pub fn traffic_monitoring() -> Self {
        Weights {
            wq: 0.5,
            wk: 0.5,
            wv: 0.0,
        }
    }

    /// Flow-factor weight.
    pub fn wq(&self) -> f64 {
        self.wq
    }

    /// Density-factor weight.
    pub fn wk(&self) -> f64 {
        self.wk
    }

    /// Speed-limit-factor weight.
    pub fn wv(&self) -> f64 {
        self.wv
    }

    /// The merging selectivity `SF = wq·q + wk·k + wv·v` (Definition 10).
    pub fn selectivity(&self, q: f64, k: f64, v: f64) -> f64 {
        self.wq * q + self.wk * k + self.wv * v
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::balanced()
    }
}

/// Which points of two representative routes the Phase-3 distance
/// compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteDistance {
    /// The paper's first prototype (Definition 11): only the two route
    /// endpoints on each side.
    Endpoints,
    /// Full modified Hausdorff over every junction of both routes —
    /// stricter (two routes must track each other along their whole
    /// length), costlier, and mentioned by the paper as the natural
    /// generalisation of its endpoint measure.
    FullRoute,
}

/// Shortest-path strategy used by Phase 3 (the Figure-7 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpStrategy {
    /// A* with the admissible Euclidean heuristic (default).
    AStar,
    /// Plain Dijkstra network expansion — the paper's
    /// `opt-NEAT-Dijkstra` baseline.
    Dijkstra,
}

/// Full configuration of a NEAT run.
///
/// Defaults mirror the paper's first prototype: balanced selectivity
/// weights, `β = +∞` (pure maxFlow selection, Definition 7), `minCard = 5`
/// (the ATL500 experiment's filter), `ε = 6500 m` (Figure 3) and the ELB
/// optimisation enabled.
///
/// Phase 3's output-preserving accelerations are not options: ALT
/// landmarks tighten the bound whenever `use_elb` is set, and endpoint
/// distances under [`SpStrategy::AStar`] always come from one-to-many
/// tables (see [`crate::phase3`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeatConfig {
    /// Merging-selectivity weights (Definition 10).
    pub weights: Weights,
    /// Netflow domination threshold β (Section III-B2): a netflow `f1`
    /// dominates `f2` when `f1/f2 ≥ β`. `+∞` disables domination restarts.
    pub beta: f64,
    /// Minimum trajectory cardinality of a flow cluster; smaller flows are
    /// filtered out after Phase 2.
    pub min_card: usize,
    /// Distance threshold ε (metres) for the Phase-3 density-based merge.
    pub epsilon: f64,
    /// Whether Phase 3 uses the Euclidean-lower-bound filter, tightened
    /// by ALT landmarks, before computing network distances.
    pub use_elb: bool,
    /// Shortest-path algorithm for Phase 3.
    pub sp_strategy: SpStrategy,
    /// Which route points the Phase-3 distance compares.
    pub route_distance: RouteDistance,
    /// Whether Phase 1 inserts junction points between consecutive samples
    /// on different segments (including shortest-path gap repair for
    /// non-contiguous segments). Disable only for pre-fragmented input.
    pub insert_junctions: bool,
    /// Worker threads for Phase-1 fragment extraction; `0` and `1` both
    /// mean sequential. Phases 2 and 3 always run on the calling thread.
    /// The parallel path is bit-identical to the sequential one, for any
    /// thread count, even under budget or cancellation interrupts.
    pub threads: usize,
}

impl Default for NeatConfig {
    fn default() -> Self {
        NeatConfig {
            weights: Weights::balanced(),
            beta: f64::INFINITY,
            min_card: 5,
            epsilon: 6500.0,
            use_elb: true,
            sp_strategy: SpStrategy::AStar,
            route_distance: RouteDistance::Endpoints,
            insert_junctions: true,
            threads: 1,
        }
    }
}

impl NeatConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::InvalidConfig`] when `beta < 1`, `epsilon` is
    /// negative or not finite-or-+∞ constraints are violated.
    pub fn validate(&self) -> Result<(), NeatError> {
        if self.beta < 1.0 {
            return Err(NeatError::InvalidConfig(format!(
                "beta must be ≥ 1 (got {})",
                self.beta
            )));
        }
        // NaN must fail too, hence the negated comparison.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.epsilon >= 0.0) {
            return Err(NeatError::InvalidConfig(format!(
                "epsilon must be non-negative (got {})",
                self.epsilon
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_must_sum_to_one() {
        assert!(Weights::new(0.2, 0.3, 0.5).is_ok());
        assert!(Weights::new(0.2, 0.3, 0.6).is_err());
        assert!(Weights::new(-0.1, 0.6, 0.5).is_err());
    }

    #[test]
    fn named_presets_are_valid() {
        for w in [
            Weights::balanced(),
            Weights::flow_only(),
            Weights::density_only(),
            Weights::speed_only(),
            Weights::traffic_monitoring(),
            Weights::default(),
        ] {
            assert!(((w.wq() + w.wk() + w.wv()) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn selectivity_formula() {
        let w = Weights::new(0.5, 0.3, 0.2).unwrap();
        let sf = w.selectivity(1.0, 0.5, 0.25);
        assert!((sf - (0.5 + 0.15 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn flow_only_reduces_to_maxflow() {
        let w = Weights::flow_only();
        // With wq=1, selectivity is exactly the flow factor.
        assert_eq!(w.selectivity(0.7, 0.1, 0.9), 0.7);
    }

    #[test]
    fn default_config_is_valid() {
        assert!(NeatConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = NeatConfig {
            beta: 0.5,
            ..NeatConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NeatConfig {
            epsilon: -1.0,
            ..NeatConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NeatConfig {
            epsilon: f64::NAN,
            ..NeatConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
