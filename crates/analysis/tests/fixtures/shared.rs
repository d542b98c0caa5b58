//! `wal-seam` true negative: this fixture is named `shared.rs`, the one
//! owner of the log, so the same names `bad_wal_seam.rs` is flagged for
//! are legitimate here.

use crate::txn::commit_records;
use crate::wal::{frame_group, Wal};

pub struct Shared {
    wal: Option<Wal>,
}

pub fn lead_commit(shared: &mut Shared, txn: u64) -> usize {
    let frames = frame_group(&commit_records(txn));
    shared.wal.as_mut().map_or(0, |_| frames.len())
}
