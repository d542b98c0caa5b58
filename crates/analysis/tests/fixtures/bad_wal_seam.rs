//! `wal-seam` true positives: a second durable handle growing back
//! outside `wal.rs` / `txn.rs` / `shared.rs` — its own log, its own
//! commit path — cannot avoid naming `Wal`, `frame_group` or
//! `commit_records`. Types that merely start with `Wal` and test-only
//! code are true negatives.

use crate::txn::commit_records;
use crate::wal::{frame_group, Wal, WalDelta};

pub struct SecondHandle {
    wal: Option<Wal>,
}

impl SecondHandle {
    pub fn log_commit(&mut self, delta: &WalDelta) -> usize {
        let frames = frame_group(&commit_records(1, delta));
        frames.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::wal::Wal;

    fn opens(_: Wal) {}
}
