//! Phase 3 — flow cluster refinement (Section III-C).
//!
//! Flow clusters whose representative routes end near each other (in
//! *network* distance) are merged into final trajectory clusters:
//!
//! * the distance between two flows is a modified Hausdorff distance over
//!   the two endpoint pairs of their representative routes
//!   (Definition 11), computed with undirected shortest paths;
//! * merging uses a deterministic adaptation of DBSCAN: the data units are
//!   flow clusters, there is no minimum cardinality, and each round is
//!   seeded by the unprocessed flow with the longest representative route;
//! * the Euclidean lower bound (ELB) `d_E(a,b) ≤ d_N(a,b)` filters
//!   candidate pairs before any shortest-path computation: if the minimum
//!   Euclidean distance between the endpoint sets exceeds ε, the network
//!   distance must too (Section III-C3).
//!
//! On top of the paper's design this implementation layers two
//! output-preserving optimisations:
//!
//! * **ALT landmark bounds** ([`AltLandmarks`]): the pre-filter becomes
//!   `max(euclidean, alt)`, which is still a lower bound on the network
//!   distance, so it only ever skips *more* pairs — never different ones.
//! * **Endpoint one-to-many tables**: in the default
//!   [`RouteDistance::Endpoints`] + [`SpStrategy::AStar`] configuration,
//!   each neighbourhood scan runs one bounded one-to-many Dijkstra per
//!   scanned endpoint and answers every candidate pair from the resulting
//!   tables. A node absent from a table is provably farther than ε, so
//!   the decisions equal the per-pair bounded searches they replace.
//!
//! Every neighbourhood scan runs on the calling thread, one cancel point
//! per candidate pair, whatever `config.threads` says. In the default
//! table mode a candidate costs a few geometry operations, too little
//! for a thread fan-out to pay. The table-less ablations (full routes,
//! pairwise searches, Dijkstra) run bounded searches per pair and scan
//! slower than a fan-out would; DESIGN §12 has the measurement. The
//! output and the op index of any interrupt cannot depend on the thread
//! count.

use crate::config::{NeatConfig, RouteDistance, SpStrategy};
use crate::control::PhaseStatus;
use crate::error::NeatError;
use crate::model::{FlowCluster, TrajectoryCluster};
use neat_rnet::alt::AltLandmarks;
use neat_rnet::path::{NodeDistances, TravelMode};
use neat_rnet::{NodeId, RoadNetwork, ShortestPathEngine};
use neat_runctl::{Control, Interrupt, OverrunMode};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Instrumentation counters for the Figure-7 ablation (ELB vs Dijkstra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Phase3Stats {
    /// Ordered flow pairs examined while retrieving ε-neighbourhoods.
    pub pairs_considered: u64,
    /// Pairs eliminated by the Euclidean lower bound before any
    /// shortest-path computation.
    pub elb_skips: u64,
    /// Pairs that survived the Euclidean bound but were eliminated by
    /// the ALT landmark bound (still before any shortest path).
    pub alt_skips: u64,
    /// Individual point-to-point shortest-path computations performed
    /// (up to four per surviving pair, minus cache hits).
    pub sp_computations: u64,
    /// Node-pair distance lookups answered by a memo table — the pair
    /// memo or a one-to-many endpoint table.
    pub sp_cache_hits: u64,
    /// Bounded one-to-many Dijkstra expansions run to build endpoint
    /// distance tables (each replaces up to `4 × candidates` bounded
    /// point-to-point searches).
    pub one_to_many_scans: u64,
}

impl Phase3Stats {
    /// Folds `other` into `self`, e.g. the stats of successive
    /// refinements.
    pub fn absorb(&mut self, other: &Phase3Stats) {
        self.pairs_considered += other.pairs_considered;
        self.elb_skips += other.elb_skips;
        self.alt_skips += other.alt_skips;
        self.sp_computations += other.sp_computations;
        self.sp_cache_hits += other.sp_cache_hits;
        self.one_to_many_scans += other.one_to_many_scans;
    }
}

/// Output of Phase 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase3Output {
    /// Final trajectory clusters, in formation order.
    pub clusters: Vec<TrajectoryCluster>,
    /// Instrumentation counters.
    pub stats: Phase3Stats,
}

/// The two point sets a flow-pair distance compares under `points`.
fn point_sets(
    fi: &FlowCluster,
    fj: &FlowCluster,
    points: RouteDistance,
) -> (Vec<NodeId>, Vec<NodeId>) {
    match points {
        RouteDistance::Endpoints => {
            let (a1, a2) = fi.endpoints();
            let (b1, b2) = fj.endpoints();
            (vec![a1, a2], vec![b1, b2])
        }
        RouteDistance::FullRoute => (fi.node_chain().to_vec(), fj.node_chain().to_vec()),
    }
}

/// Network-distance oracle of one refinement: the flow list, a
/// symmetric node-pair memo, optional ALT landmark tables and optional
/// per-endpoint one-to-many tables. Everything is owned by the calling
/// thread; the memos are only ever looked up by key, never iterated.
struct DistanceOracle<'a> {
    net: &'a RoadNetwork,
    flows: &'a [FlowCluster],
    engine: ShortestPathEngine,
    strategy: SpStrategy,
    points: RouteDistance,
    epsilon: f64,
    use_elb: bool,
    /// Whether exact decisions come from endpoint tables instead of
    /// per-pair searches.
    use_tables: bool,
    /// Symmetric `(lo, hi) → Option<distance>` memo.
    pair_cache: HashMap<(NodeId, NodeId), Option<f64>>,
    /// `NodeId → bounded one-to-many table`, reused across scans that
    /// share an endpoint.
    tables: HashMap<NodeId, NodeDistances>,
    /// Landmark tables for the ALT lower bound (`None` when disabled).
    alt: Option<AltLandmarks>,
}

/// The one-to-many tables of one scanned flow's two endpoints.
struct EndpointTables<'t> {
    ends: (NodeId, NodeId),
    t1: &'t NodeDistances,
    t2: &'t NodeDistances,
}

impl<'a> DistanceOracle<'a> {
    /// Undirected network distance `d_N(a, b)`, memoised symmetrically.
    ///
    /// Phase 3 only needs to decide `d_N ≤ ε`, so the A* strategy bounds
    /// its search at ε and returns `None` for anything farther (or
    /// unreachable); the Dijkstra strategy reproduces the paper's
    /// unbounded network-expansion baseline. An interrupted search
    /// memoises nothing.
    fn network_distance(
        &mut self,
        a: NodeId,
        b: NodeId,
        ctl: Option<&Control>,
        stats: &mut Phase3Stats,
    ) -> Result<Option<f64>, Interrupt> {
        if a == b {
            return Ok(Some(0.0));
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&d) = self.pair_cache.get(&key) {
            stats.sp_cache_hits += 1;
            return Ok(d);
        }
        let (lo, hi) = key;
        let d = match self.strategy {
            SpStrategy::AStar => {
                self.engine
                    .distance(self.net, lo, hi, TravelMode::Undirected, self.epsilon, ctl)?
            }
            // Plain unbounded network expansion: the paper's
            // opt-NEAT-Dijkstra baseline (Figure 7).
            SpStrategy::Dijkstra => self.engine.distance_plain(self.net, lo, hi, ctl)?,
        };
        self.pair_cache.insert(key, d);
        stats.sp_computations += 1;
        Ok(d)
    }

    /// Modified Hausdorff distance between two representative routes:
    /// over the endpoint pairs (Definition 11, the paper's first
    /// prototype) or over every junction of both routes
    /// ([`RouteDistance::FullRoute`]). `None` when some required distance
    /// exceeds ε (A* strategy) or is unreachable.
    fn flow_distance(
        &mut self,
        fi: &FlowCluster,
        fj: &FlowCluster,
        ctl: Option<&Control>,
        stats: &mut Phase3Stats,
    ) -> Result<Option<f64>, Interrupt> {
        let (xs, ys) = point_sets(fi, fj, self.points);
        let mut h = 0.0f64;
        for (from, to) in [(&xs, &ys), (&ys, &xs)] {
            for &a in from {
                let mut m = f64::INFINITY;
                for &b in to {
                    if let Some(d) = self.network_distance(a, b, ctl, stats)? {
                        m = m.min(d);
                    }
                }
                if !m.is_finite() {
                    return Ok(None);
                }
                h = h.max(m);
            }
        }
        Ok(Some(h))
    }

    /// The ELB-only decision of the degraded continuation: `true` when
    /// the minimum Euclidean distance between the compared point sets is
    /// within ε (Section III-C3). The point sets match the route-distance
    /// setting, so when every cross Euclidean distance exceeds ε, every
    /// network distance does too, and so does the Hausdorff.
    fn elb_near(&self, fi: &FlowCluster, fj: &FlowCluster) -> bool {
        let (xs, ys) = point_sets(fi, fj, self.points);
        let mut m = f64::INFINITY;
        for &a in &xs {
            for &b in &ys {
                m = m.min(self.net.euclidean_distance(a, b));
            }
        }
        m <= self.epsilon
    }

    /// `true` when the lower-bound pre-filter proves the pair distance
    /// exceeds ε, charging the skip to the right counter: `elb_skips`
    /// when the Euclidean bound alone suffices, `alt_skips` when the
    /// landmark-tightened bound `max(euclidean, alt)` was needed. Both
    /// bounds never exceed the true network distance, so a filtered pair
    /// could never have merged — filtering is output-preserving.
    fn bound_filters_out(
        &self,
        fi: &FlowCluster,
        fj: &FlowCluster,
        stats: &mut Phase3Stats,
    ) -> bool {
        if !self.use_elb {
            return false;
        }
        let (xs, ys) = point_sets(fi, fj, self.points);
        let mut min_e = f64::INFINITY;
        let mut min_combined = f64::INFINITY;
        for &a in &xs {
            for &b in &ys {
                let e = self.net.euclidean_distance(a, b);
                min_e = min_e.min(e);
                let c = match &self.alt {
                    Some(alt) => e.max(alt.lower_bound(a, b)),
                    None => e,
                };
                min_combined = min_combined.min(c);
            }
        }
        if min_e > self.epsilon {
            stats.elb_skips += 1;
            true
        } else if min_combined > self.epsilon {
            stats.alt_skips += 1;
            true
        } else {
            false
        }
    }

    /// Every flow endpoint a table from `src` may ever be asked about:
    /// those whose combined lower bound (Euclidean, tightened by ALT
    /// when landmarks are loaded) does not already prove `d > ε`. The
    /// one-to-many expansion stops once all of them are settled, which
    /// on large networks is far earlier than the full ε-ball. The set
    /// depends only on `src` and the fixed flow list — never on which
    /// scan requests the table — so cached tables stay coherent.
    fn table_targets(&self, src: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for f in self.flows {
            let (b1, b2) = f.endpoints();
            for b in [b1, b2] {
                let e = self.net.euclidean_distance(src, b);
                let lb = match &self.alt {
                    Some(alt) => e.max(alt.lower_bound(src, b)),
                    None => e,
                };
                if lb <= self.epsilon {
                    out.push(b);
                }
            }
        }
        out.sort_unstable_by_key(|n| n.index());
        out.dedup();
        out
    }

    /// Builds the bounded one-to-many table from `src` unless it is
    /// already cached. The expansion is charged to `ctl` one settlement
    /// per finalised node, exactly like the point-to-point searches it
    /// replaces.
    fn build_table(
        &mut self,
        src: NodeId,
        ctl: Option<&Control>,
        stats: &mut Phase3Stats,
    ) -> Result<(), Interrupt> {
        if self.tables.contains_key(&src) {
            return Ok(());
        }
        let targets = self.table_targets(src);
        let table = self.engine.distances_within(
            self.net,
            src,
            TravelMode::Undirected,
            self.epsilon,
            Some(&targets),
            ctl,
        )?;
        self.tables.insert(src, table);
        stats.one_to_many_scans += 1;
        Ok(())
    }

    /// The tables of flow `cur`'s two endpoints, building the missing
    /// ones.
    fn endpoint_tables(
        &mut self,
        cur: usize,
        ctl: Option<&Control>,
        stats: &mut Phase3Stats,
    ) -> Result<EndpointTables<'_>, Interrupt> {
        let (a1, a2) = self.flows[cur].endpoints();
        self.build_table(a1, ctl, stats)?;
        self.build_table(a2, ctl, stats)?;
        // lint:allow(L1) reason=both tables were inserted by the build_table calls just above
        let table = |n| self.tables.get(&n).expect("endpoint table built above");
        Ok(EndpointTables {
            ends: (a1, a2),
            t1: table(a1),
            t2: table(a2),
        })
    }
}

impl EndpointTables<'_> {
    /// Endpoint-pair Hausdorff decision (`d ≤ epsilon`) answered entirely
    /// from the scanned flow's one-to-many tables. A node absent from a
    /// table is strictly farther than ε from its source: either its
    /// lower bound already proved `d > ε` (so it was never a table
    /// target) or the target-pruned expansion ran the full ε-ball.
    /// Either way the decision is identical to the bounded
    /// point-to-point searches of [`DistanceOracle::flow_distance`].
    fn near(&self, fj: &FlowCluster, epsilon: f64, stats: &mut Phase3Stats) -> bool {
        let (b1, b2) = fj.endpoints();
        let mut look = |t: &NodeDistances, a: NodeId, b: NodeId| -> Option<f64> {
            if a == b {
                return Some(0.0);
            }
            stats.sp_cache_hits += 1;
            t.get(b)
        };
        let d11 = look(self.t1, self.ends.0, b1);
        let d12 = look(self.t1, self.ends.0, b2);
        let d21 = look(self.t2, self.ends.1, b1);
        let d22 = look(self.t2, self.ends.1, b2);
        let min2 = |x: Option<f64>, y: Option<f64>| match (x, y) {
            (Some(p), Some(q)) => Some(p.min(q)),
            (Some(p), None) | (None, Some(p)) => Some(p),
            (None, None) => None,
        };
        // Forward terms pair each endpoint of the scanned flow with its
        // nearest endpoint of `fj`; backward terms are read from the same
        // four distances (the undirected metric is symmetric).
        let mut h = 0.0f64;
        for term in [
            min2(d11, d12),
            min2(d21, d22),
            min2(d11, d21),
            min2(d12, d22),
        ] {
            match term {
                Some(d) => h = h.max(d),
                // Some min-term exceeds ε or is unreachable: not near.
                None => return false,
            }
        }
        h <= epsilon
    }
}

/// Runs Phase 3: merges flow clusters whose modified Hausdorff network
/// distance is within `config.epsilon`, using the deterministic DBSCAN
/// adaptation described in the module docs.
///
/// # Errors
///
/// Returns [`NeatError::InvalidConfig`] when the configuration fails
/// validation.
pub fn refine_flow_clusters(
    net: &RoadNetwork,
    flows: Vec<FlowCluster>,
    config: &NeatConfig,
) -> Result<Phase3Output, NeatError> {
    refine_flow_clusters_ctl(net, flows, config, None).map(|c| c.output)
}

/// Result of a controlled Phase 3.
#[derive(Debug, Clone)]
pub struct ControlledRefinement {
    /// The refinement output: always covers *every* input flow (flows
    /// not reached before a stop become singleton clusters).
    pub output: Phase3Output,
    /// How the phase ended.
    pub status: PhaseStatus,
    /// `true` when the ELB-only continuation decided some suffix of the
    /// pair comparisons (degradation ladder rung between "exhaustive"
    /// and "skip refinement").
    pub elb_only: bool,
}

/// Switches the phase to the ELB-only continuation when `why` is a
/// budget-style interrupt under [`OverrunMode::Degrade`] and the phase is
/// not degraded yet; otherwise hands `why` back as the stop.
fn degrade(
    why: Interrupt,
    ctl: Option<&Control>,
    degraded: &mut Option<Interrupt>,
) -> Result<(), Interrupt> {
    match ctl {
        Some(c)
            if degraded.is_none()
                && !why.is_cancellation()
                && c.overrun() == OverrunMode::Degrade =>
        {
            *degraded = Some(why);
            c.degrade(DEGRADE_NOTE);
            Ok(())
        }
        _ => Err(why),
    }
}

/// Degradation note recorded when exact distances are abandoned.
const DEGRADE_NOTE: &str = "phase3: exact network distances -> ELB-only";

/// One ε-neighbourhood scan of flow `cur` over the unlabelled `cands`,
/// in index order; `join` receives every flow found near, in discovery
/// order.
///
/// Each candidate costs exactly one poll — [`Control::check`], or
/// [`Control::check_cancel`] once degraded — and is then decided by the
/// ELB-only rule when degraded, else by the ELB/ALT bound filter and
/// then either the endpoint tables (table mode) or
/// [`DistanceOracle::flow_distance`]. Table-mode survivors wait for the
/// tables, which build after the loop and only when survivors exist: a
/// scan whose candidates are all bound-filtered never pays for an
/// expansion, which is where the ALT skips turn into saved Dijkstras.
///
/// A budget interrupt under [`OverrunMode::Degrade`] switches the rest
/// of the scan to ELB-only. The survivors found so far join first: with
/// the ELB filter on they passed the lower bound, which is exactly the
/// ELB-only decision. (With `use_elb` off every candidate survives, so
/// they all join — a quirk kept as recorded.)
///
/// # Errors
///
/// Returns the interrupt that stops refinement outright; table-mode
/// survivors not yet decided are then dropped.
fn scan(
    oracle: &mut DistanceOracle,
    cur: usize,
    cands: &[usize],
    ctl: Option<&Control>,
    stats: &mut Phase3Stats,
    degraded: &mut Option<Interrupt>,
    mut join: impl FnMut(usize),
) -> Result<(), Interrupt> {
    let flows = oracle.flows;
    let fi = &flows[cur];
    let mut survivors: Vec<usize> = Vec::new();
    for &other in cands {
        let fj = &flows[other];
        if let Some(c) = ctl {
            let verdict = if degraded.is_some() {
                c.check_cancel()
            } else {
                c.check()
            };
            if let Err(why) = verdict {
                degrade(why, ctl, degraded)?;
                survivors.drain(..).for_each(&mut join);
            }
        }
        stats.pairs_considered += 1;
        let near = if degraded.is_some() {
            oracle.elb_near(fi, fj)
        } else if oracle.bound_filters_out(fi, fj, stats) {
            false
        } else if oracle.use_tables {
            survivors.push(other);
            false
        } else {
            match oracle.flow_distance(fi, fj, ctl, stats) {
                Ok(d) => d.is_some_and(|d| d <= oracle.epsilon),
                // A shortest path hit the budget mid-pair: the lower
                // bound decides this pair.
                Err(why) => {
                    degrade(why, ctl, degraded)?;
                    oracle.elb_near(fi, fj)
                }
            }
        };
        if near {
            join(other);
        }
    }
    if survivors.is_empty() {
        return Ok(());
    }
    let epsilon = oracle.epsilon;
    match oracle.endpoint_tables(cur, ctl, stats) {
        Ok(tabs) => {
            // Exact decisions from table lookups: no cancel points left.
            for k in survivors {
                if tabs.near(&flows[k], epsilon, stats) {
                    join(k);
                }
            }
        }
        // An expansion hit the budget. Every pair of this scan is
        // already bound-decided; the survivors join under ELB-only.
        Err(why) => {
            degrade(why, ctl, degraded)?;
            survivors.into_iter().for_each(join);
        }
    }
    Ok(())
}

/// Phase 3 under an optional [`Control`], walking the in-phase
/// degradation ladder:
///
/// 1. **Exhaustive** — exact network distances (with the ELB/ALT
///    pre-filter when configured), one cancel point per candidate pair
///    and per settled node inside each shortest path or one-to-many
///    expansion.
/// 2. **ELB-only** — on budget exhaustion under [`OverrunMode::Degrade`]
///    the remaining pairs are decided by the Euclidean lower bound alone
///    (`d_E ≤ ε`), which costs no shortest paths. Only cancellation is
///    polled from here on: the budget is knowingly spent.
/// 3. **Stop** — on cancellation (any rung) or any interrupt under
///    [`OverrunMode::Partial`], refinement stops; flows not yet grouped
///    are emitted as singleton clusters so the output stays a valid
///    partition of the input.
///
/// `ctl == None` is a free run: it never stops early. The phase runs on
/// the calling thread whatever `config.threads` says.
///
/// # Errors
///
/// Same as [`refine_flow_clusters`] — interrupts are reported in the
/// returned status, never as errors.
pub fn refine_flow_clusters_ctl(
    net: &RoadNetwork,
    flows: Vec<FlowCluster>,
    config: &NeatConfig,
    ctl: Option<&Control>,
) -> Result<ControlledRefinement, NeatError> {
    config.validate()?;
    let n = flows.len();
    if n == 0 {
        return Ok(ControlledRefinement {
            output: Phase3Output {
                clusters: Vec::new(),
                stats: Phase3Stats::default(),
            },
            status: PhaseStatus::Complete,
            elb_only: false,
        });
    }

    // Deterministic processing order: longest representative route first
    // (ties by fewer members, then original index).
    let mut order: Vec<usize> = (0..n).collect();
    let lengths: Vec<f64> = flows.iter().map(|f| f.route_length(net)).collect();
    order.sort_by(|&i, &j| {
        lengths[j]
            .total_cmp(&lengths[i])
            .then_with(|| flows[i].members().len().cmp(&flows[j].members().len()))
            .then_with(|| i.cmp(&j))
    });

    let mut engine = ShortestPathEngine::new(net);
    let mut stats = Phase3Stats::default();
    // Some(why) once the ELB-only continuation took over.
    let mut degraded: Option<Interrupt> = None;
    // Some(why) once refinement stopped outright.
    let mut stopped: Option<Interrupt> = None;

    // ALT landmark preprocessing: exactly `alt_landmarks` full Dijkstra
    // expansions, charged to `ctl` like the query-time searches whose
    // skips pay for them. Only worthwhile when the ELB filter runs.
    let alt = if config.use_elb && config.alt_landmarks > 0 && n >= 2 {
        match AltLandmarks::build(
            net,
            &mut engine,
            config.alt_landmarks,
            TravelMode::Undirected,
            ctl,
        ) {
            Ok(a) => Some(a),
            Err(why) => {
                if let Err(why) = degrade(why, ctl, &mut degraded) {
                    stopped = Some(why);
                }
                None
            }
        }
    } else {
        None
    };

    let mut oracle = DistanceOracle {
        net,
        flows: &flows,
        engine,
        strategy: config.sp_strategy,
        points: config.route_distance,
        epsilon: config.epsilon,
        use_elb: config.use_elb,
        // Endpoint tables replace bounded point-to-point searches only
        // where both are defined: endpoint distances under the bounded
        // strategy.
        use_tables: config.endpoint_tables
            && config.route_distance == RouteDistance::Endpoints
            && config.sp_strategy == SpStrategy::AStar,
        pair_cache: HashMap::new(),
        tables: HashMap::new(),
        alt,
    };

    let mut label: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();

    if stopped.is_none() {
        'outer: for &seed in &order {
            if label[seed].is_some() {
                continue;
            }
            let gid = groups.len();
            groups.push(Vec::new());
            // DBSCAN-style expansion with a FIFO frontier; no minPts — every
            // ε-reachable flow joins the cluster (Section III-C2, mod. 3).
            let mut queue = VecDeque::from([seed]);
            label[seed] = Some(gid);
            while let Some(cur) = queue.pop_front() {
                groups[gid].push(cur);
                // ε-neighbourhood of `cur` among unlabelled flows, scanned
                // in index order for determinism (queued flows are already
                // labelled, so each pair is examined at most once).
                let cands: Vec<usize> = (0..n).filter(|&o| label[o].is_none()).collect();
                if cands.is_empty() {
                    continue;
                }
                let scanned = scan(
                    &mut oracle,
                    cur,
                    &cands,
                    ctl,
                    &mut stats,
                    &mut degraded,
                    |o| {
                        label[o] = Some(gid);
                        queue.push_back(o);
                    },
                );
                if let Err(why) = scanned {
                    stopped = Some(why);
                    // Flows still queued were already judged ε-reachable:
                    // group them before stopping.
                    groups[gid].extend(queue.iter().copied());
                    break 'outer;
                }
            }
        }
    }
    // The oracle borrows `flows`, which the clusters below consume.
    drop(oracle);

    // On a stop, flows never reached become singleton clusters (in
    // seeding order) so the output remains a partition of the input.
    let grouped: usize = groups.iter().map(Vec::len).sum();
    if stopped.is_some() {
        for &i in &order {
            if label[i].is_none() {
                label[i] = Some(groups.len());
                groups.push(vec![i]);
            }
        }
    }

    // Materialise clusters, preserving in-group discovery order.
    let mut flows_opt: Vec<Option<FlowCluster>> = flows.into_iter().map(Some).collect();
    let clusters = groups
        .into_iter()
        .map(|members| {
            TrajectoryCluster::new(
                members
                    .into_iter()
                    .map(|i| flows_opt[i].take().expect("each flow used once")) // lint:allow(L1) reason=each flow index appears in exactly one cluster's member list
                    .collect(),
            )
        })
        .collect();
    let status = match (stopped, degraded) {
        (Some(why), _) => PhaseStatus::Partial {
            done: grouped,
            total: n,
            why,
        },
        (None, Some(why)) => PhaseStatus::Degraded { why },
        (None, None) => PhaseStatus::Complete,
    };
    Ok(ControlledRefinement {
        output: Phase3Output { clusters, stats },
        status,
        elb_only: degraded.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouteDistance;
    use crate::model::BaseCluster;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{TFragment, TrajectoryId};

    fn frag(tr: u64, seg: usize) -> TFragment {
        let loc = RoadLocation::new(SegmentId::new(seg), Point::new(0.0, 0.0), 0.0);
        TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: SegmentId::new(seg),
            first: loc,
            last: loc,
            point_count: 2,
        }
    }

    fn frag2(tr: u64, seg: neat_rnet::SegmentId) -> neat_traj::TFragment {
        let loc = RoadLocation::new(seg, Point::new(0.0, 0.0), 0.0);
        neat_traj::TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: seg,
            first: loc,
            last: loc,
            point_count: 2,
        }
    }

    fn flow_on(net: &RoadNetwork, segs: &[usize], tr: u64) -> FlowCluster {
        let mut it = segs.iter();
        let first = *it.next().expect("non-empty");
        let mut f = FlowCluster::from_base(
            net,
            BaseCluster::new(SegmentId::new(first), vec![frag(tr, first)]).unwrap(),
        )
        .unwrap();
        for &s in it {
            f.push_back(
                net,
                BaseCluster::new(SegmentId::new(s), vec![frag(tr, s)]).unwrap(),
            )
            .unwrap();
        }
        f
    }

    fn cfg(epsilon: f64, use_elb: bool) -> NeatConfig {
        NeatConfig {
            epsilon,
            use_elb,
            ..NeatConfig::default()
        }
    }

    #[test]
    fn nearby_flows_merge() {
        // Chain of 10 segments (100 m each). Flow A = s0..s3 (ends n0,
        // n4), flow B = s5..s8 (ends n5, n9). Definition 11 pairs each
        // endpoint with its nearest counterpart: max-min = 500 m (the
        // n0↔n5 / n4↔n9 correspondence).
        let net = chain_network(11, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1, 2, 3], 1);
        let b = flow_on(&net, &[5, 6, 7, 8], 2);
        let out =
            refine_flow_clusters(&net, vec![a.clone(), b.clone()], &cfg(500.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].flows().len(), 2);
        // Just below the Hausdorff distance they stay apart.
        let out = refine_flow_clusters(&net, vec![a, b], &cfg(499.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn far_flows_stay_apart() {
        let net = chain_network(30, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1], 1);
        let b = flow_on(&net, &[27, 28], 2);
        let out = refine_flow_clusters(&net, vec![a, b], &cfg(500.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn hausdorff_uses_max_not_min() {
        // Flow A = s0..s1 (endpoints n0, n2); flow B = s2 (endpoints n2,
        // n3). Nearest endpoints coincide (n2) but the far ends are 300 m /
        // 200 m away. dist = max over maxmin = 300 (n0's nearest B endpoint
        // is n2 at 200m? n0→n2=200, n0→n3=300 → min 200; n2→{n0,n2}: 0;
        // n3→{n0,n2} = min(300,100)=100; A side: n0:200, n2:0 → max 200;
        // B side: max(0, 100) = 100; overall 200.
        let net = chain_network(5, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1], 1);
        let b = flow_on(&net, &[2], 2);
        // ε just below 200 keeps them apart…
        let out =
            refine_flow_clusters(&net, vec![a.clone(), b.clone()], &cfg(199.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 2);
        // …and ε at 200 merges them.
        let out = refine_flow_clusters(&net, vec![a, b], &cfg(200.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
    }

    #[test]
    fn elb_and_dijkstra_agree() {
        let net = chain_network(20, 100.0, 10.0);
        let flows = vec![
            flow_on(&net, &[0, 1, 2], 1),
            flow_on(&net, &[4, 5], 2),
            flow_on(&net, &[10, 11, 12, 13], 3),
            flow_on(&net, &[16, 17], 4),
        ];
        let with_elb = refine_flow_clusters(&net, flows.clone(), &cfg(250.0, true)).unwrap();
        let mut dij = cfg(250.0, false);
        dij.sp_strategy = SpStrategy::Dijkstra;
        let without = refine_flow_clusters(&net, flows, &dij).unwrap();
        let shape = |o: &Phase3Output| {
            let mut v: Vec<usize> = o.clusters.iter().map(|c| c.flows().len()).collect();
            v.sort();
            v
        };
        assert_eq!(shape(&with_elb), shape(&without));
        // ELB actually skipped work.
        assert!(with_elb.stats.elb_skips > 0);
        assert!(with_elb.stats.sp_computations < without.stats.sp_computations);
    }

    #[test]
    fn seeded_by_longest_route() {
        let net = chain_network(12, 100.0, 10.0);
        let short = flow_on(&net, &[0], 1);
        let long = flow_on(&net, &[3, 4, 5, 6], 2);
        let out = refine_flow_clusters(&net, vec![short, long], &cfg(50.0, true)).unwrap();
        // Longest route seeds the first cluster.
        assert_eq!(out.clusters[0].flows()[0].members().len(), 4);
    }

    #[test]
    fn transitive_chain_merges_via_density_connectivity() {
        // A–B within ε (400 m), B–C within ε, A–C beyond ε (800 m): all
        // three join one cluster through B (density-connected set).
        let net = chain_network(16, 100.0, 10.0);
        let a = flow_on(&net, &[0, 1], 1); // ends n0,n2
        let b = flow_on(&net, &[4, 5], 2); // ends n4,n6
        let c = flow_on(&net, &[8, 9], 3); // ends n8,n10
        let out = refine_flow_clusters(&net, vec![a, b, c], &cfg(400.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].flows().len(), 3);
    }

    #[test]
    fn empty_input() {
        let net = chain_network(3, 100.0, 10.0);
        let out = refine_flow_clusters(&net, vec![], &cfg(100.0, true)).unwrap();
        assert!(out.clusters.is_empty());
        assert_eq!(out.stats, Phase3Stats::default());
    }

    #[test]
    fn single_flow_single_cluster() {
        let net = chain_network(4, 100.0, 10.0);
        let out =
            refine_flow_clusters(&net, vec![flow_on(&net, &[1, 2], 1)], &cfg(10.0, true)).unwrap();
        assert_eq!(out.clusters.len(), 1);
    }

    #[test]
    fn cache_avoids_recomputation() {
        let net = chain_network(12, 100.0, 10.0);
        // Flows sharing endpoints → repeated node pairs.
        let flows = vec![
            flow_on(&net, &[0, 1], 1),
            flow_on(&net, &[2, 3], 2),
            flow_on(&net, &[4, 5], 3),
        ];
        let out = refine_flow_clusters(&net, flows, &cfg(1e6, true)).unwrap();
        assert!(out.stats.sp_cache_hits > 0);
    }

    #[test]
    fn full_route_distance_is_stricter_than_endpoints() {
        // Two parallel-ish flows sharing endpoints-region but diverging in
        // the middle cannot be built on a chain; instead compare a long
        // flow against a short one whose endpoints sit near the long
        // flow's ends via the chain: endpoints measure sees distance 200,
        // full-route sees the far interior nodes too.
        let net = chain_network(12, 100.0, 10.0);
        let long = flow_on(&net, &[0, 1, 2, 3, 4, 5], 1); // ends n0, n6
        let short = flow_on(&net, &[7, 8], 2); // ends n7, n9
                                               // Endpoint Hausdorff: n0→{n7,n9}=700; n6→100; n7→100; n9→300 → 700.
                                               // Full-route Hausdorff: same max (n0 is farthest) → equal here;
                                               // verify both settings agree on the decision at ε = 700.
        for (rd, expect_merge) in [
            (RouteDistance::Endpoints, true),
            (RouteDistance::FullRoute, true),
        ] {
            let mut c = cfg(700.0, true);
            c.route_distance = rd;
            let out = refine_flow_clusters(&net, vec![long.clone(), short.clone()], &c).unwrap();
            assert_eq!(out.clusters.len() == 1, expect_merge, "{rd:?}");
        }
        // At ε = 300 the endpoint measure keeps them apart too (700 > 300).
        let mut c = cfg(300.0, true);
        c.route_distance = RouteDistance::FullRoute;
        let out = refine_flow_clusters(&net, vec![long, short], &c).unwrap();
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn full_route_separates_what_endpoints_merge() {
        // A horseshoe: flow A runs along the bottom, flow B is a short
        // stub near both of A's endpoints but far from A's middle… on a
        // ring network. Build a loop of 12 nodes (100 m apart).
        let mut b = neat_rnet::RoadNetworkBuilder::new();
        let n: Vec<_> = (0..12)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / 12.0;
                b.add_node(neat_rnet::Point::new(200.0 * ang.cos(), 200.0 * ang.sin()))
            })
            .collect();
        let mut segs = Vec::new();
        for i in 0..12 {
            segs.push(b.add_segment(n[i], n[(i + 1) % 12], 10.0).unwrap());
        }
        let net = b.build().unwrap();
        // Flow A: half the ring (segments 0..5, endpoints n0 and n6).
        // Flow B: one segment on the other side (segment 8: n8-n9).
        let mk = |sids: &[neat_rnet::SegmentId], tr: u64| {
            let mut it = sids.iter();
            let mut f = FlowCluster::from_base(
                &net,
                BaseCluster::new(*it.next().unwrap(), vec![frag2(tr, *sids.first().unwrap())])
                    .unwrap(),
            )
            .unwrap();
            for &s in it {
                f.push_back(&net, BaseCluster::new(s, vec![frag2(tr, s)]).unwrap())
                    .unwrap();
            }
            f
        };
        let a = mk(&segs[0..6], 1);
        let b_flow = mk(&segs[8..9], 2);
        // Endpoint distances (along the ring): A ends at n0/n6; B at n8/n9.
        // n6→n8 = 2 hops ≈ 207 m; n0→n9 = 3 hops ≈ 310 m; endpoint
        // Hausdorff ≈ 311. Full-route adds A's middle nodes (n3 is 5 hops
        // from B) → ≈ 518. ε between the two separates the settings.
        let seg_len = net.segment(segs[0]).unwrap().length;
        let eps = 4.0 * seg_len; // between 3 and 5 hops
        let mut c = cfg(eps, true);
        c.route_distance = RouteDistance::Endpoints;
        let merged = refine_flow_clusters(&net, vec![a.clone(), b_flow.clone()], &c).unwrap();
        assert_eq!(merged.clusters.len(), 1, "endpoints should merge");
        c.route_distance = RouteDistance::FullRoute;
        let apart = refine_flow_clusters(&net, vec![a, b_flow], &c).unwrap();
        assert_eq!(apart.clusters.len(), 2, "full route should separate");
    }

    #[test]
    fn deterministic_output() {
        let net = chain_network(20, 100.0, 10.0);
        let mk = || {
            vec![
                flow_on(&net, &[0, 1, 2], 1),
                flow_on(&net, &[5, 6], 2),
                flow_on(&net, &[9, 10, 11], 3),
                flow_on(&net, &[15], 4),
            ]
        };
        let a = refine_flow_clusters(&net, mk(), &cfg(300.0, true)).unwrap();
        let b = refine_flow_clusters(&net, mk(), &cfg(300.0, true)).unwrap();
        assert_eq!(a.clusters, b.clusters);
    }

    /// A ring network where Euclidean chords undercut path distances, so
    /// the ALT bound has room to beat the ELB.
    fn ring_net() -> (RoadNetwork, Vec<neat_rnet::SegmentId>) {
        let mut b = neat_rnet::RoadNetworkBuilder::new();
        let n: Vec<_> = (0..16)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / 16.0;
                b.add_node(neat_rnet::Point::new(400.0 * ang.cos(), 400.0 * ang.sin()))
            })
            .collect();
        let mut segs = Vec::new();
        for i in 0..16 {
            segs.push(b.add_segment(n[i], n[(i + 1) % 16], 10.0).unwrap());
        }
        (b.build().unwrap(), segs)
    }

    fn ring_flow(
        net: &RoadNetwork,
        segs: &[neat_rnet::SegmentId],
        range: std::ops::Range<usize>,
        tr: u64,
    ) -> FlowCluster {
        let mut it = segs[range].iter();
        let first = *it.next().unwrap();
        let mut f = FlowCluster::from_base(
            net,
            BaseCluster::new(first, vec![frag2(tr, first)]).unwrap(),
        )
        .unwrap();
        for &s in it {
            f.push_back(net, BaseCluster::new(s, vec![frag2(tr, s)]).unwrap())
                .unwrap();
        }
        f
    }

    #[test]
    fn alt_bound_skips_pairs_elb_cannot_without_changing_output() {
        let (net, segs) = ring_net();
        // Flows on opposite arcs: endpoint chords (Euclidean) are much
        // shorter than the around-the-ring network distances. Per-hop
        // chord ≈ 156 m, so the nearest endpoints (6 hops) are ≈ 936 m
        // apart on the network while every straight-line chord is at most
        // the diameter (800 m).
        let a = ring_flow(&net, &segs, 0..2, 1);
        let b = ring_flow(&net, &segs, 8..10, 2);
        let flows = vec![a, b];
        // ε above every chord but below the shortest path distance.
        let eps = 900.0;
        // With every node a landmark the ALT bound is exact, so any pair
        // with network distance > ε ≥ its chord must be alt-skipped.
        // Pairwise searches (no per-seed tables) so the saving is visible
        // directly in `sp_computations`.
        let mut with_alt = cfg(eps, true);
        with_alt.alt_landmarks = 16;
        with_alt.endpoint_tables = false;
        let mut no_alt = cfg(eps, true);
        no_alt.alt_landmarks = 0;
        no_alt.endpoint_tables = false;
        let out_alt = refine_flow_clusters(&net, flows.clone(), &with_alt).unwrap();
        let out_plain = refine_flow_clusters(&net, flows, &no_alt).unwrap();
        assert_eq!(
            out_alt.clusters, out_plain.clusters,
            "ALT must not change output"
        );
        assert!(out_alt.stats.alt_skips > 0, "stats: {:?}", out_alt.stats);
        assert!(
            out_alt.stats.sp_computations + out_alt.stats.one_to_many_scans
                < out_plain.stats.sp_computations + out_plain.stats.one_to_many_scans,
            "ALT skips must save searches: {:?} vs {:?}",
            out_alt.stats,
            out_plain.stats
        );
    }

    #[test]
    fn endpoint_tables_match_pairwise_searches() {
        let net = chain_network(24, 100.0, 10.0);
        let mk = || {
            vec![
                flow_on(&net, &[0, 1, 2], 1),
                flow_on(&net, &[4, 5], 2),
                flow_on(&net, &[8, 9, 10], 3),
                flow_on(&net, &[13, 14], 4),
                flow_on(&net, &[17, 18, 19], 5),
            ]
        };
        let mut tab = cfg(450.0, true);
        tab.endpoint_tables = true;
        let mut pair = cfg(450.0, true);
        pair.endpoint_tables = false;
        let with_tables = refine_flow_clusters(&net, mk(), &tab).unwrap();
        let pairwise = refine_flow_clusters(&net, mk(), &pair).unwrap();
        assert_eq!(with_tables.clusters, pairwise.clusters);
        // Tables fully replace point-to-point searches…
        assert_eq!(with_tables.stats.sp_computations, 0);
        assert!(with_tables.stats.one_to_many_scans > 0);
        // …and the filter counters agree pair by pair.
        assert_eq!(
            with_tables.stats.pairs_considered,
            pairwise.stats.pairs_considered
        );
        assert_eq!(with_tables.stats.elb_skips, pairwise.stats.elb_skips);
        assert_eq!(with_tables.stats.alt_skips, pairwise.stats.alt_skips);
    }

    #[test]
    fn parallel_scan_matches_sequential_clusters_and_stats() {
        let net = chain_network(40, 100.0, 10.0);
        let mk = || {
            (0..12)
                .map(|i| flow_on(&net, &[3 * i, 3 * i + 1], i as u64 + 1))
                .collect::<Vec<_>>()
        };
        for endpoint_tables in [true, false] {
            let mut seq = cfg(350.0, true);
            seq.threads = 1;
            seq.endpoint_tables = endpoint_tables;
            let base = refine_flow_clusters(&net, mk(), &seq).unwrap();
            for threads in [2, 8] {
                let mut par = seq;
                par.threads = threads;
                let out = refine_flow_clusters(&net, mk(), &par).unwrap();
                assert_eq!(out.clusters, base.clusters, "threads={threads}");
                assert_eq!(out.stats, base.stats, "threads={threads}");
            }
        }
    }
}
