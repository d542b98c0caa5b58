//! `morsel-seam` true positives: an operator in `crates/sqlengine/src`
//! fanning its loop out over the pool instead of running it on the
//! statement thread, and an optimizer rule growing a fan-out gate by
//! resolving a thread count. Other `swan_pool` items, look-alike names and
//! test-only code are true negatives.

use swan_pool::{cancel, parallel_items};

pub fn permute(rows: &[Row], partitions: usize) -> Vec<Vec<Row>> {
    swan_pool::parallel_chunks(rows.len(), 1024, partitions, |range| rows[range].to_vec())
}

pub fn build(np: usize) {
    swan_pool::run_workers(np, |_| {});
    let _ = swan_pool::parallel_items(np, np, |p| p);
}

pub fn parallelize(plan: Plan, config: &OptimizerConfig) -> Plan {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    if config.threads.max(auto).max(swan_pool::pool_size()) > 1 {
        return wrap(plan);
    }
    plan
}

pub fn fine(threads: usize, ctx: &ExecCtx<'_>) -> OptimizerConfig {
    let _ = crate::exec::for_each_morsel(threads, ctx, |_| Ok(()));
    let _ = swan_pool::is_pool_worker() || cancel::current().is_some();
    OptimizerConfig { threads, ..Default::default() }
}

#[cfg(test)]
mod tests {
    fn t() {
        swan_pool::parallel_items(4, 2, |i| i);
    }
}
