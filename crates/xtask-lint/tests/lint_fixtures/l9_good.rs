//! L9 fixture twin: folds stay pure. A worker mutates only its own
//! scratch state and charges its work through its recorder `Control`,
//! whose charges the executor commits in item order.

pub fn pure_fold(exec: &Executor, net: &RoadNetwork, ctl: &Control) {
    exec.try_map_ctl(8, ctl, || ShortestPathEngine::new(net), |i, engine, cc| {
        cc.check()?;
        let from = NodeId::new(i);
        Ok(engine.distances_from(net, from, TravelMode::Undirected, Some(cc))?)
    });
}

pub fn iterator_map_is_not_a_fold(xs: &[u64], total: &AtomicU64) -> u64 {
    xs.iter().map(|x| total.fetch_add(*x, Ordering::SeqCst)).sum()
}
