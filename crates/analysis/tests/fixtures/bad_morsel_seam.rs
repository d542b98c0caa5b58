//! `morsel-seam` true positives: an operator in `crates/sqlengine/src`
//! growing its own fan-out instead of handing its loop body to
//! `exec_parallel::try_morsels`, and an optimizer rule growing its own
//! fan-out gate by resolving a thread count. Other `swan_pool` items,
//! look-alike names and test-only code are true negatives.

use swan_pool::{cancel, parallel_morsels_with};

pub fn permute(rows: &[Row], partitions: usize) -> Vec<Vec<Row>> {
    swan_pool::parallel_morsels(rows.len(), 1024, partitions, |range| rows[range].to_vec())
}

pub fn build(np: usize) {
    swan_pool::run_workers(np, |_| {});
    let _ = swan_pool::parallel_items(np, np, |p| p);
}

pub fn parallelize(plan: Plan, config: &OptimizerConfig) -> Plan {
    let auto = swan_pool::configured_threads();
    if crate::exec_parallel::effective_threads(config).max(auto) > 1 {
        return wrap(plan);
    }
    plan
}

pub fn fine(config: &OptimizerConfig, ctx: &ExecCtx<'_>) -> bool {
    let _ = (config.parallel_threshold, config.threads);
    let _ = crate::exec_parallel::parallel_topk_candidates(1, 1, ctx, &cmp);
    swan_pool::is_pool_worker() || cancel::current().is_some()
}

#[cfg(test)]
mod tests {
    fn t() {
        swan_pool::parallel_items(4, 2, |i| i);
    }
}
