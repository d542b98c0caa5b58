//! `durable_mixed`: the same engine used the other way — one durable
//! table five times the buffer pool, one client mixing single-row
//! updates, point reads and filtered scans on skewed keys. Commit, WAL,
//! pager, buffer pool and B-tree carry it, plus copy-on-write and
//! column-cache invalidation on the read side; `sql_gold` touches none
//! of those, so a read-path gain that taxes writes shows here.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use swan::sqlengine::{DurabilityConfig, PagerStats, SharedDb, Value};

use crate::countfs::{dir_bytes, wal_path, CountingFs, FsCounts};
use crate::metrics::Report;
use crate::stats::{median, percentile, Rng};
use crate::trace::{self, Tracer};
use crate::Config;

/// Operations per block. A block is this workload's round: its wall
/// clock is what `wall_s` reports the median of.
const BLOCK_OPS: usize = 200;
/// Blocks run on one instance — a freshly loaded database — before the
/// next is loaded. A run measures several instances and reports medians
/// over them: how fast one instance serves reads after an update differs
/// by about ±10 % from load to load of the same rows and stays so for the
/// instance's life, and a neighbour on the host slows stretches of several
/// seconds, so the percentiles of one long-lived instance spread by up to
/// 0.27 of their median between runs, however long the runs. Counts
/// (bytes, syncs, checkpoints, pool traffic, files on disk) are those of
/// the first instance: one client, a fixed cycle and size-triggered
/// checkpoints make them repeat exactly.
const INSTANCE_BLOCKS: usize = 3;
const PAD_LEN: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Update,
    Point,
    Scan,
}

/// The operation stream repeats this cycle: 30 % updates, 60 % point
/// reads, 10 % scans, exactly, with a third of the point reads directly
/// after an update (a random stream gives 30 %); the seed draws the keys,
/// values and scan floors. The kinds are not drawn because `op_p50_ms`
/// depends on their order: a point read after an update costs ≈0.2 ms
/// (the table's version is new), any other ≈0.04 ms, and the median of
/// all operations is the 83rd percentile of the point reads, so it lies
/// among the reads after updates — where among them would move with each
/// run's draw of kinds and neighbours.
const CYCLE: [Kind; 10] = {
    use Kind::{Point as P, Scan as S, Update as U};
    [U, P, P, P, U, P, P, S, P, U]
};
/// Mixed into the seed for the operation stream, so it is not the stream
/// that generated the rows ("mixed_op").
const OP_STREAM: u64 = 0x6d69_7865_645f_6f70;

/// Checkpoint every 8 KiB of log — a single-row commit logs ≈330 bytes,
/// so an instance's 180 commits see about seven checkpoint cycles — with a
/// 256-page (1 MiB) pool against ≈5 MiB of tree pages. Sync and group
/// commit stay at their defaults (on).
fn durability(pool_pages: usize) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_bytes: 8 << 10,
        pool_pages,
        ..DurabilityConfig::default()
    }
}

/// The updatable part of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    val: i64,
    tag: String,
}

fn new_cell(rng: &mut Rng) -> Cell {
    // Fixed rendered widths, so user bytes do not drift with updates.
    Cell {
        val: 100_000 + rng.below(900_000) as i64,
        tag: format!("{:08x}", rng.next_u64() as u32),
    }
}

fn pad(id: u64) -> String {
    format!("{id:016x}").repeat(PAD_LEN / 16 + 1)[..PAD_LEN].to_string()
}

/// A fresh directory under the run's temp root, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(root: &Path, name: &str) -> std::io::Result<Dir> {
        let path = root.join(name);
        std::fs::create_dir_all(&path)?;
        Ok(Dir(path))
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Loaded {
    db: SharedDb,
    fs: Arc<CountingFs>,
    /// Shadow of every acknowledged write, indexed by id.
    rows: Vec<Cell>,
    user_bytes: u64,
    load_s: f64,
}

/// Create the table and load it in 500-row auto-commit statements.
fn load(
    dir: &Path,
    rows: u64,
    pool_pages: usize,
    cfg: &Config,
    tracer: Option<Arc<Tracer>>,
) -> Result<Loaded, String> {
    let started = Instant::now();
    let fs = CountingFs::new(tracer);
    let db = SharedDb::open_on(fs.clone(), wal_path(dir), durability(pool_pages))
        .map_err(|e| e.to_string())?;
    db.execute(
        "CREATE TABLE kv (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, tag TEXT, pad TEXT)",
    )
    .map_err(|e| e.to_string())?;
    let mut rng = Rng::new(cfg.seed);
    let mut shadow = Vec::with_capacity(rows as usize);
    let mut user_bytes = 0u64;
    let mut id = 0u64;
    while id < rows {
        let mut sql = String::from("INSERT INTO kv VALUES ");
        for i in id..(id + 500).min(rows) {
            let cell = new_cell(&mut rng);
            let row = [
                i.to_string(),
                (i % 16).to_string(),
                cell.val.to_string(),
                cell.tag.clone(),
                pad(i),
            ];
            user_bytes += row.iter().map(|c| c.len() as u64).sum::<u64>();
            if i > id {
                sql.push(',');
            }
            sql.push_str(&format!(
                "({}, {}, {}, '{}', '{}')",
                row[0], row[1], row[2], row[3], row[4]
            ));
            shadow.push(cell);
        }
        db.execute(&sql).map_err(|e| e.to_string())?;
        id += 500;
    }
    Ok(Loaded {
        db,
        fs,
        rows: shadow,
        user_bytes,
        load_s: started.elapsed().as_secs_f64(),
    })
}

#[derive(Default)]
struct Block {
    wall_s: f64,
    update_ms: Vec<f64>,
    point_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    failed: u64,
    wrong: u64,
}

impl Block {
    /// Add this block's operations and failed checks to the report.
    fn tally(&self, what: &str, report: &mut Report) {
        report.attempted +=
            (self.update_ms.len() + self.point_ms.len() + self.scan_ms.len()) as u64;
        report.failed += self.failed;
        report.check(self.wrong == 0, || {
            format!("{what}: {} operations returned a wrong answer", self.wrong)
        });
    }
}

/// Run one block of the mix against `l`, checking every answer against
/// the shadow (outside the timed part of each operation).
fn block(
    l: &mut Loaded,
    rng: &mut Rng,
    ops: usize,
    op_base: u64,
    tracer: Option<&Tracer>,
) -> Block {
    let mut b = Block::default();
    let n = l.rows.len() as u64;
    for i in 0..ops {
        let op = op_base + i as u64 + 1;
        match CYCLE[((op_base + i as u64) % CYCLE.len() as u64) as usize] {
            Kind::Update => {
                let id = rng.skewed_key(n);
                let cell = new_cell(rng);
                let sql = format!(
                    "UPDATE kv SET val = {}, tag = '{}' WHERE id = {id}",
                    cell.val, cell.tag
                );
                let t = Instant::now();
                let r = trace::op(tracer, op, "op.update", || {
                    trace::scope(tracer, "sqlengine.shared.execute", || l.db.execute(&sql))
                });
                b.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match r {
                    // Acknowledged: from here on the row must read back.
                    Ok(r) if r.rows_affected == 1 => l.rows[id as usize] = cell,
                    Ok(_) => b.wrong += 1,
                    Err(_) => b.failed += 1,
                }
            }
            Kind::Point => {
                let id = rng.skewed_key(n);
                let sql = format!("SELECT val, tag FROM kv WHERE id = {id}");
                let t = Instant::now();
                let r = trace::op(tracer, op, "op.point", || {
                    trace::scope(tracer, "sqlengine.shared.query", || l.db.query(&sql))
                });
                b.point_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match r {
                    Ok(r) => {
                        let want = &l.rows[id as usize];
                        let ok = r.rows.len() == 1
                            && r.rows[0][0] == Value::Integer(want.val)
                            && r.rows[0][1].render() == want.tag;
                        b.wrong += u64::from(!ok);
                    }
                    Err(_) => b.failed += 1,
                }
            }
            Kind::Scan => {
                let floor = 100_000 + rng.below(900_000) as i64;
                let sql = format!(
                    "SELECT grp, COUNT(*), SUM(val) FROM kv WHERE val >= {floor} GROUP BY grp ORDER BY grp"
                );
                let t = Instant::now();
                let r = trace::op(tracer, op, "op.scan", || {
                    trace::scope(tracer, "sqlengine.shared.query", || l.db.query(&sql))
                });
                b.scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match r {
                    Ok(r) => {
                        let mut want = [(0i64, 0i64); 16];
                        for (id, c) in l.rows.iter().enumerate().filter(|(_, c)| c.val >= floor) {
                            want[id % 16].0 += 1;
                            want[id % 16].1 += c.val;
                        }
                        let want: Vec<Vec<Value>> = want
                            .iter()
                            .enumerate()
                            .filter(|(_, w)| w.0 > 0)
                            .map(|(g, w)| {
                                vec![
                                    Value::Integer(g as i64),
                                    Value::Integer(w.0),
                                    Value::Integer(w.1),
                                ]
                            })
                            .collect();
                        let got: Vec<Vec<Value>> = r.rows.iter().map(|row| row.to_vec()).collect();
                        b.wrong += u64::from(got != want);
                    }
                    Err(_) => b.failed += 1,
                }
            }
        }
    }
    b.wall_s = (b
        .update_ms
        .iter()
        .chain(&b.point_ms)
        .chain(&b.scan_ms)
        .sum::<f64>())
        / 1e3;
    b
}

/// Counter readings at one instant.
struct Sample {
    fs: FsCounts,
    commits: u64,
    batches: u64,
    pager: PagerStats,
    disk_bytes: u64,
}

fn sample(l: &Loaded, dir: &Path) -> Result<Sample, String> {
    let c = l.db.commit_stats();
    Ok(Sample {
        fs: l.fs.counts(),
        commits: c.commits,
        batches: c.batches,
        pager: l
            .db
            .pager_stats()
            .ok_or("the database has no pager: is it durable?")?,
        disk_bytes: dir_bytes(dir).map_err(|e| e.to_string())?,
    })
}

/// Drop the handle, reopen from disk alone, and compare every row with
/// the shadow. A reopen check, not a power-loss test: the `crash_sim`
/// harness owns that.
fn reopen_and_verify(l: Loaded, dir: &Path, pool_pages: usize, report: &mut Report) -> f64 {
    let Loaded { db, rows, .. } = l;
    drop(db);
    let t = Instant::now();
    let reopened = SharedDb::open_on(CountingFs::new(None), wal_path(dir), durability(pool_pages));
    let reopen_s = t.elapsed().as_secs_f64();
    match reopened.and_then(|db| db.query("SELECT id, grp, val, tag, pad FROM kv ORDER BY id")) {
        Ok(r) => {
            report.check(r.rows.len() == rows.len(), || {
                format!(
                    "reopen: {} rows on disk, {} acknowledged",
                    r.rows.len(),
                    rows.len()
                )
            });
            let wrong = r
                .rows
                .iter()
                .zip(rows.iter().enumerate())
                .filter(|(row, (id, c))| {
                    let want = [
                        Value::Integer(*id as i64),
                        Value::Integer((*id % 16) as i64),
                        Value::Integer(c.val),
                        Value::text(c.tag.as_str()),
                        Value::text(pad(*id as u64)),
                    ];
                    row.as_ref() != want.as_slice()
                })
                .count();
            report.check(wrong == 0, || {
                format!("reopen: {wrong} rows differ from the acknowledged writes")
            });
        }
        Err(e) => report.fail(format!("reopen: {e}")),
    }
    reopen_s
}

/// Start-up self-check: the cycle is the mix the README states.
pub fn self_check() -> Result<(), String> {
    let count = |k| CYCLE.iter().filter(|c| **c == k).count();
    let after_update = (0..CYCLE.len())
        .filter(|i| CYCLE[*i] == Kind::Update && CYCLE[(i + 1) % CYCLE.len()] == Kind::Point)
        .count();
    let got = (
        count(Kind::Update),
        count(Kind::Point),
        count(Kind::Scan),
        after_update,
    );
    if got != (3, 6, 1, 2) || !BLOCK_OPS.is_multiple_of(CYCLE.len()) {
        return Err(format!(
            "durable: the operation cycle has (updates, points, scans, points after an update) = {got:?}, \
             expected (3, 6, 1, 2), in blocks of whole cycles"
        ));
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    match run_inner(cfg, &mut report) {
        Ok(()) => {}
        Err(e) => report.fail(e),
    }
    report
}

fn run_inner(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let tracer = Arc::new(Tracer::default());
    tracer.set_enabled(false);
    let scale = cfg.scale.unwrap_or(if cfg.quick { 0.1 } else { 1.0 });
    let rows = ((20_000.0 * scale) as u64).max(500);
    let (block_ops, instance_blocks) = if cfg.quick {
        (100, 2)
    } else {
        (BLOCK_OPS, INSTANCE_BLOCKS)
    };
    let pool_pages = 256;

    let mut rng = Rng::new(cfg.seed ^ OP_STREAM);
    let (mut load_s, mut reopen_s) = (Vec::new(), Vec::new());
    let (mut timed, mut traced): (Vec<Block>, Vec<Block>) = (Vec::new(), Vec::new());
    // The untraced operations of each instance, apart.
    let mut instance_ops: Vec<Vec<f64>> = Vec::new();
    let mut counted = None;
    let mut peak_rss_mb = 0.0;
    let mut last_spans = Vec::new();
    let window = Instant::now();
    let mut blocks = 0usize;
    loop {
        // Set-up is creating and loading the table; every instance is one.
        let dir = Dir::new(&cfg.tmp, &format!("db{}", load_s.len())).map_err(|e| e.to_string())?;
        let mut l = load(
            &dir.0,
            rows,
            pool_pages,
            cfg,
            cfg.trace.then(|| tracer.clone()),
        )?;
        load_s.push(l.load_s);
        let before = sample(&l, &dir.0)?;
        let mut ops = Vec::new();
        for _ in 0..instance_blocks {
            // A traced run traces every other block, so both kinds see
            // the same databases at the same ages.
            let trace_this = cfg.trace && blocks.is_multiple_of(2);
            tracer.set_enabled(trace_this);
            let b = block(
                &mut l,
                &mut rng,
                block_ops,
                (blocks * block_ops) as u64,
                cfg.trace.then_some(&*tracer),
            );
            tracer.set_enabled(false);
            b.tally("mix", report);
            if trace_this {
                last_spans = tracer.drain();
                if let Err(e) = trace::layers(&last_spans) {
                    report.fail(format!("trace: {e}"));
                }
                traced.push(b);
            } else {
                ops.extend(b.update_ms.iter().chain(&b.point_ms).chain(&b.scan_ms));
                timed.push(b);
            }
            blocks += 1;
        }
        if counted.is_none() {
            counted = Some((before, sample(&l, &dir.0)?, l.user_bytes));
        }
        instance_ops.push(ops);
        reopen_s.push(reopen_and_verify(l, &dir.0, pool_pages, report));
        if load_s.len() == 1 {
            peak_rss_mb = crate::host::peak_rss_mb();
        }
        if load_s.len() >= cfg.setup_repeats && window.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let (before, after, user_bytes) = counted.ok_or("no instance ran")?;
    report.set("setup_s", median(&load_s));

    let pooled = |f: fn(&Block) -> &Vec<f64>| -> Vec<f64> {
        timed.iter().flat_map(|b| f(b).iter().copied()).collect()
    };
    let (updates, points, scans) = (
        pooled(|b| &b.update_ms),
        pooled(|b| &b.point_ms),
        pooled(|b| &b.scan_ms),
    );
    let walls: Vec<f64> = timed.iter().map(|b| b.wall_s).collect();
    report.note("rows", rows);
    report.note("instances", load_s.len());
    report.note("blocks", timed.len());
    report.note("user_bytes", user_bytes);
    report.note("round_walls_s", crate::stats::join_3dp(&walls));

    if !cfg.trace {
        report.set_timings(&walls, &instance_ops, peak_rss_mb);
        report.set(
            "disk_bytes_per_user_byte",
            after.disk_bytes as f64 / user_bytes as f64,
        );
        return Ok(());
    }

    let fs = after.fs.since(&before.fs);
    let commits = (after.commits - before.commits) as f64;
    let pool = |s: &Sample| s.pager.pool;
    let lookups = |s: &Sample| (pool(s).hits + pool(s).misses) as f64;
    let hit_rate = |a: &Sample, b: &Sample| {
        (pool(a).hits - pool(b).hits) as f64 / (lookups(a) - lookups(b)).max(1.0)
    };
    report.set("sqlengine.shared.update_p50_ms", percentile(&updates, 50.0));
    report.set("sqlengine.shared.update_p95_ms", percentile(&updates, 95.0));
    report.set(
        "sqlengine.shared.update_max_ms",
        percentile(&updates, 100.0),
    );
    report.set("sqlengine.shared.point_p50_ms", percentile(&points, 50.0));
    report.set("sqlengine.shared.scan_p50_ms", percentile(&scans, 50.0));
    report.set("sqlengine.shared.commits", commits);
    report.set(
        "sqlengine.shared.commits_per_fsync",
        commits / ((after.batches - before.batches) as f64).max(1.0),
    );
    report.set(
        "sqlengine.wal.bytes_per_commit",
        fs.wal_write_bytes as f64 / commits.max(1.0),
    );
    report.set("sqlengine.wal.checkpoints", fs.meta_renames as f64);
    report.set("sqlengine.wal.reopen_s", median(&reopen_s));
    report.set("sqlengine.pager.pages", after.pager.pages as f64);
    report.set(
        "sqlengine.pager.page_bytes_written",
        fs.page_write_bytes as f64,
    );
    report.set("sqlengine.bufpool.hit_rate", hit_rate(&after, &before));
    report.set(
        "sqlengine.bufpool.evictions",
        (pool(&after).evictions - pool(&before).evictions) as f64,
    );
    report.set(
        "sqlengine.bufpool.dirty_evictions",
        (pool(&after).dirty_evictions - pool(&before).dirty_evictions) as f64,
    );
    report.set(
        "sqlengine.btree.pool_lookups_per_commit",
        (lookups(&after) - lookups(&before)) / commits.max(1.0),
    );
    report.set("sqlengine.vfs.syncs", fs.syncs as f64);
    report.set("sqlengine.vfs.sync_s", fs.sync_ns as f64 / 1e9);
    report.set("sqlengine.vfs.write_calls", fs.write_calls as f64);
    report.set("sqlengine.vfs.write_bytes", fs.write_bytes as f64);
    report.set(
        "sqlengine.vfs.write_bytes_per_user_byte",
        fs.write_bytes as f64 / user_bytes as f64,
    );
    report.set("sqlengine.vfs.read_calls", fs.read_calls as f64);
    report.set("sqlengine.vfs.read_bytes", fs.read_bytes as f64);
    report.set("sqlengine.vfs.renames", fs.renames as f64);

    // The first instance's blocks again, with a pool the whole tree fits in.
    let fit_dir = Dir::new(&cfg.tmp, "fit").map_err(|e| e.to_string())?;
    let mut fit = load(&fit_dir.0, rows, 4096, cfg, None)?;
    let fit_before = sample(&fit, &fit_dir.0)?;
    let mut fit_rng = Rng::new(cfg.seed ^ OP_STREAM);
    for i in 0..instance_blocks {
        let b = block(
            &mut fit,
            &mut fit_rng,
            block_ops,
            (i * block_ops) as u64,
            None,
        );
        b.tally("fit pass", report);
    }
    report.set(
        "sqlengine.bufpool.hit_rate_fit",
        hit_rate(&sample(&fit, &fit_dir.0)?, &fit_before),
    );

    let traced_walls: Vec<f64> = traced.iter().map(|b| b.wall_s).collect();
    report.set_trace_overhead(&traced_walls, &walls);
    // Per-call spans go to trace.jsonl; the metrics above come from counters.
    crate::write_trace(cfg, &last_spans, report);
    Ok(())
}
