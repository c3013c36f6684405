//! L9 fixture: parallel folds touching shared mutable state.

pub fn counting_fold(exec: &Executor, total: &AtomicU64, ctl: &Control) {
    exec.try_map_ctl(8, ctl, || (), |i, _scratch, _ctl| {
        total.fetch_add(i, Ordering::SeqCst);
        Ok(i)
    });
}

pub fn cell_fold(exec: &Executor, cell: &RefCell<u64>, ctl: &Control) {
    exec.try_map_ctl(4, ctl, || (), |i, _scratch, _ctl| {
        *cell.borrow_mut() += i;
        Ok(i)
    });
}

pub fn unsafe_fold(exec: &Executor, ctl: &Control) {
    exec.try_map_ctl(2, ctl, || (), |i, _scratch, _ctl| unsafe { wild(i) });
}
