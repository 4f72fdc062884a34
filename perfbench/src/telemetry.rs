//! `telemetry_ingest`: writes with reads beside them. A 200k-reading base
//! table is loaded, declared `lsm[ts](Telemetry)` and checkpointed; the timed
//! loop appends readings in 500-row commits under `GroupCommit(32)`, runs a
//! windowed aggregate over the most recent readings every few commits and
//! checkpoints every 20k rows. The run ends with close-and-reopen cycles, the
//! last of which replays an uncheckpointed WAL tail.

use crate::common::{
    build_instances, dir_bytes, fold, lifecycle_metrics, logical_bytes, median, ms_since,
    reopen_cycles, same_windows, tail, Args, CheckpointLog, Report, WorkDir,
};
use crate::{layers, trace};
use rodentstore::{
    Condition, Database, DurabilityOptions, SyncPolicy, Value, WindowRow, WindowedAggregate,
};
use rodentstore_algebra::value::Record;
use rodentstore_compress::ColumnData;
use rodentstore_exec::AccessMethods;
use rodentstore_workload::{generate_telemetry, telemetry_schema, TelemetryConfig};
use std::error::Error;
use std::time::Instant;

const BASE: usize = 200_000;
const LOAD_BATCH: usize = 10_000;
const COMMIT_ROWS: usize = 500;
/// Commits per round; each round ends with a checkpoint (every 20k rows).
const ROUND_COMMITS: usize = 40;
/// A recent-window aggregate runs after every this many commits.
const AGGREGATE_EVERY: usize = 4;
/// The aggregate covers the most recent this many readings.
const RECENT: usize = 5_000;
/// Rounds per second of `--seconds` (20 rounds, 400k rows and 800 commits
/// at 10 s): the ingest is a fixed amount of work, so that every run leaves
/// the database in the same state.
const ROUNDS_PER_SECOND: usize = 2;
/// Upper bound on rounds, which also bounds the generated input.
const MAX_ROUNDS: usize = 50;
/// Commits appended without a checkpoint before the last reopen.
const TAIL_COMMITS: usize = 10;
const PAGE_SIZE: usize = 16 * 1024;
const INSTANCES: usize = 7;
/// Close-and-reopen cycles at the end of the run.
const REOPENS: usize = 5;
const BUCKET_WIDTH: f64 = 512.0;
const LAYOUT: &str = "lsm[ts](Telemetry)";

fn ts(row: &Record) -> i64 {
    match row[0] {
        Value::Int(t) => t,
        _ => panic!("Telemetry.ts is an int"),
    }
}

fn value(row: &Record) -> f64 {
    match row[2] {
        Value::Float(v) => v,
        _ => panic!("Telemetry.value is a float"),
    }
}

/// The benchmark's own fold of readings into `count/sum/min/max` per bucket.
fn fold_rows(rows: &[Record]) -> Vec<WindowRow> {
    fold(rows.iter().map(|r| (ts(r) as f64, value(r))), BUCKET_WIDTH)
}

/// The recent-window predicate over the first `inserted` readings, and the
/// readings it selects (`ts` is strictly increasing).
fn recent(rows: &[Record], inserted: usize) -> (Condition, &[Record]) {
    let window = &rows[inserted - RECENT..inserted];
    let lo = ts(&window[0]);
    let hi = ts(&window[RECENT - 1]);
    (Condition::range("ts", lo, hi), window)
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, Box<dyn Error>> {
    let mut report = Report::default();
    let tail_rows = TAIL_COMMITS * COMMIT_ROWS;
    let rounds = (args.seconds as usize * ROUNDS_PER_SECOND).clamp(1, MAX_ROUNDS);
    // The highest percentile with ten commits beyond it (p98.75 at 10 s).
    let tail_pct = 100.0 * (1.0 - 10.0 / (rounds * ROUND_COMMITS) as f64);
    let total = BASE + rounds * ROUND_COMMITS * COMMIT_ROWS + tail_rows;
    let rows = generate_telemetry(&TelemetryConfig {
        readings: total,
        sensors: 256,
        seed: args.seed,
        ..TelemetryConfig::default()
    });
    let options = DurabilityOptions {
        page_size: PAGE_SIZE,
        sync: SyncPolicy::GroupCommit(32),
        mmap_reads: false,
    };
    let spec = WindowedAggregate::new("ts", BUCKET_WIDTH, "value");
    report.mark_rss_base();

    let mut checkpoints = CheckpointLog::default();
    let (db, dir) = build_instances(
        work,
        "telemetry",
        INSTANCES,
        options,
        |db| {
            db.create_table(telemetry_schema())?;
            for chunk in rows[..BASE].chunks(LOAD_BATCH) {
                trace::span("core.insert", || db.insert("Telemetry", chunk.to_vec()))?;
            }
            Ok(())
        },
        |db| {
            db.apply_layout_text("Telemetry", LAYOUT)?;
            db.ensure_rendered("Telemetry")
        },
        &mut checkpoints,
        &mut report,
    )?;

    let mut commit_ms = Vec::new();
    let mut aggregates = 0u64;
    let mut agg_pages = 0u64;
    let mut agg_seeks = 0u64;
    let mut agg_bytes = 0u64;
    let mut inserted = BASE;
    let mut check_s = 0.0;
    let mut split = trace::Split::default();
    let started = Instant::now();
    for _round in 0..rounds {
        for c in 0..ROUND_COMMITS {
            let batch = rows[inserted..inserted + COMMIT_ROWS].to_vec();
            let recorded = split.start();
            let t = Instant::now();
            let done = trace::span("op.commit", || db.insert("Telemetry", batch));
            let ms = ms_since(t);
            commit_ms.push(ms);
            split.finish(recorded, ms);
            report.attempted += 1;
            match done {
                Ok(()) => inserted += COMMIT_ROWS,
                Err(e) => {
                    report.mismatch(format!("commit failed: {e}"));
                    continue;
                }
            }
            if (c + 1) % AGGREGATE_EVERY == 0 {
                let (predicate, window) = recent(&rows, inserted);
                let io = db.io_snapshot();
                let got = trace::span("op.aggregate", || {
                    db.scan_aggregate("Telemetry", &spec, Some(&predicate))
                });
                let io = db.io_snapshot().since(&io);
                agg_pages += io.pages_read;
                agg_seeks += io.seeks;
                agg_bytes += io.bytes_read;
                aggregates += 1;
                report.attempted += 1;
                let c = Instant::now();
                match got {
                    Ok(got) if same_windows(&got, &fold_rows(window)) => {}
                    Ok(got) => report.mismatch(format!(
                        "recent-window aggregate at {inserted} rows gave {} buckets, expected {}",
                        got.len(),
                        fold_rows(window).len()
                    )),
                    Err(e) => report.mismatch(format!("aggregate failed: {e}")),
                }
                check_s += c.elapsed().as_secs_f64();
            }
        }
        checkpoints.checkpoint(&db)?;
        report.attempted += 1;
    }
    let loop_s = started.elapsed().as_secs_f64() - check_s;
    let tracing_overhead = split.end();
    let ingested = inserted - BASE;
    let tail_ms = tail(&commit_ms, tail_pct);
    eprintln!(
        "telemetry_ingest: {} commits ({ingested} rows), {aggregates} aggregates, {} pages/aggregate, p{tail_pct} commit {tail_ms:.3} ms, {loop_s:.1} s",
        commit_ms.len(),
        agg_pages as f64 / aggregates as f64,
    );
    report.set("rows_per_s", ingested as f64 / loop_s);
    report.set("op_p50_ms", median(&commit_ms));
    report.set("client.op_tail_ms", tail_ms);
    report.set("pages_per_query", agg_pages as f64 / aggregates as f64);
    report.set(
        "space_amp",
        dir_bytes(&dir) as f64
            / rows[..inserted]
                .iter()
                .map(|r| logical_bytes(r))
                .sum::<u64>() as f64,
    );

    if args.trace {
        layers::tracing(&mut report, tracing_overhead);
        report.set(
            "storage.seeks_per_query",
            agg_seeks as f64 / aggregates as f64,
        );
        report.set(
            "storage.bytes_read_per_row",
            agg_bytes as f64 / (aggregates as f64 * RECENT as f64),
        );
        layers::write_path(
            &mut report,
            &db.metrics(),
            &db.io_snapshot(),
            inserted as u64,
        );
        read_layers(&mut report, &db, &rows, inserted, &spec)?;
        let expr = rodentstore::parse(LAYOUT)?;
        let layout = layers::render_in_memory(
            &mut report,
            &expr,
            telemetry_schema(),
            &rows[..BASE],
            PAGE_SIZE,
        );
        let access = AccessMethods::new(layout);
        let n = 100;
        let t = Instant::now();
        for k in 0..n {
            let (predicate, _) = recent(&rows, BASE - k * 1_000);
            trace::span("exec.scan_aggregate", || {
                access.scan_aggregate(&spec, Some(&predicate))
            })?;
        }
        report.set("exec.scan_us", t.elapsed().as_secs_f64() * 1e6 / n as f64);
        let ts_column: Vec<i64> = rows[..inserted].iter().map(ts).collect();
        layers::decode_rate(&mut report, ColumnData::Ints(ts_column));
        let pairs: Vec<(f64, f64)> = rows[..inserted]
            .iter()
            .map(|r| (ts(r) as f64, value(r)))
            .collect();
        layers::fold_rate(&mut report, &spec, &pairs);
        report.set(
            "core.manifest_bytes",
            std::fs::metadata(dir.join("manifest.rodent"))?.len() as f64,
        );
    }

    let tail_from = inserted;
    let (db, plain, replay) = reopen_cycles(
        db,
        &dir,
        options,
        REOPENS,
        &[("Telemetry", inserted)],
        |db| {
            for chunk in rows[tail_from..tail_from + tail_rows].chunks(COMMIT_ROWS) {
                db.insert("Telemetry", chunk.to_vec())?;
            }
            Ok(vec![("Telemetry", tail_rows)])
        },
        &mut checkpoints,
        &mut report,
    )?;
    // The replayed tail is readable: the most recent window folds the same.
    let (predicate, window) = recent(&rows, tail_from + tail_rows);
    report.attempted += 1;
    let got = db.scan_aggregate("Telemetry", &spec, Some(&predicate))?;
    if !same_windows(&got, &fold_rows(window)) {
        report.mismatch("the replayed WAL tail changed the recent-window aggregate".into());
    }
    drop(db);
    lifecycle_metrics(&mut report, &checkpoints, &plain, replay);
    Ok(report)
}

/// Read-path layers on 20 recent-window aggregates over the final table:
/// page fetch of the runs they touch, the layout's own fold net of fetch,
/// rows examined per row folded, and what `Database::scan_aggregate` adds.
fn read_layers(
    report: &mut Report,
    db: &Database,
    rows: &[Record],
    inserted: usize,
    spec: &WindowedAggregate,
) -> Result<(), Box<dyn Error>> {
    let snapshot = db.snapshot("Telemetry")?;
    let layout = snapshot.layout().ok_or("the lsm tier is rendered")?;
    let lsm = layout.lsm.as_ref().ok_or("the layout is an lsm tier")?;
    let predicates: Vec<Condition> = (0..20)
        .map(|k| recent(rows, inserted - k * 1_000).0)
        .collect();
    let mut pages = Vec::new();
    let mut examined = 0usize;
    for p in &predicates {
        let ranges = rodentstore_layout::extract_ranges(p);
        for run in lsm.runs.iter().filter(|r| r.may_match(&lsm.key, &ranges)) {
            examined += run.row_count;
            pages.extend(run.heap.page_ids()?);
        }
        examined += lsm.memtable.select(ranges.get("ts").copied()).len();
    }
    let fetch_us = layers::fetch_us_per_page(report, db.pager(), &pages);
    // Alternate the layout's fold and the facade's call on each predicate,
    // so that both see the same page-cache and allocator state.
    let (mut layout_s, mut extra_s, mut folded, mut layout_pages) = (0.0, Vec::new(), 0u64, 0u64);
    for p in &predicates {
        let io = db.io_snapshot();
        let t = Instant::now();
        let acc = trace::span("layout.scan_aggregate", || {
            layout.scan_aggregate(spec, Some(p))
        })?;
        let layout_call_s = t.elapsed().as_secs_f64();
        layout_s += layout_call_s;
        layout_pages += db.io_snapshot().since(&io).pages_read;
        folded += acc.rows_folded();
        let t = Instant::now();
        trace::span("core.scan_aggregate", || {
            db.scan_aggregate("Telemetry", spec, Some(p))
        })?;
        extra_s.push(t.elapsed().as_secs_f64() - layout_call_s);
    }
    let layout_pages = layout_pages as f64;
    report.set(
        "layout.scan_us_per_page",
        layout_s * 1e6 / layout_pages - fetch_us,
    );
    report.set(
        "layout.rows_examined_per_row_returned",
        examined as f64 / folded as f64,
    );
    report.set("core.query_overhead_us", layers::overhead_us(&extra_s));
    Ok(())
}
