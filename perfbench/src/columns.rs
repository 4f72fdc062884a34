//! `column_scan`: analytic full scans on the mmap frame path. The same 400k
//! readings are loaded in 1k-row inserts under `GroupCommit(32)` into
//! `columns(Telemetry)`, declared before the load so that incremental appends
//! interleave the column blocks, and into `Compressed`, re-declared as
//! delta-compressed column groups after its load. The database is reopened with
//! `mmap_reads`, and the timed loop alternates a single-column projected
//! scan of `Telemetry` with a full windowed aggregate over `Compressed`.

use crate::common::{
    build_instances, dir_bytes, fold, lifecycle_metrics, logical_bytes, median, ms_since,
    reopen_cycles, same_windows, tail, Args, CheckpointLog, Report, WorkDir,
};
use crate::{layers, trace};
use rodentstore::{
    DataType, Database, DurabilityOptions, Field, ScanRequest, Schema, SyncPolicy, Value,
    WindowRow, WindowedAggregate,
};
use rodentstore_algebra::value::Record;
use rodentstore_compress::ColumnData;
use rodentstore_exec::AccessMethods;
use rodentstore_workload::{generate_telemetry, TelemetryConfig};
use std::error::Error;
use std::time::Instant;

const READINGS: usize = 400_000;
const BATCH: usize = 1_000;
/// Rows appended to each table without a checkpoint before the last reopen.
const TAIL_ROWS: usize = 1_000;
const PAGE_SIZE: usize = 16 * 1024;
const INSTANCES: usize = 3;
/// Close-and-reopen cycles at the end of the run.
const REOPENS: usize = 5;
/// Scan-and-aggregate pairs per second of `--seconds`, at least 40 so that
/// the tail percentile has ten pairs beyond it.
const PAIRS_PER_SECOND: u64 = 5;
/// The highest percentile with ten pairs beyond it (p80 at 10 s).
fn tail_pct(pairs: u64) -> f64 {
    100.0 * (1.0 - 10.0 / pairs as f64)
}
const BUCKET_WIDTH: f64 = 4_096.0;
const SCANNED: &str = "Telemetry";
const COMPRESSED: &str = "Compressed";
const COLUMNS: &str = "columns(Telemetry)";
const GROUPS: &str = "delta[ts,seq](vertical[ts,value|sensor,status,seq](Compressed))";

fn schema(name: &str) -> Schema {
    Schema::new(
        name,
        vec![
            Field::new("ts", DataType::Int),
            Field::new("sensor", DataType::String),
            Field::new("value", DataType::Float),
            Field::new("status", DataType::Int),
            Field::new("seq", DataType::Int),
        ],
    )
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => panic!("expected an int"),
    }
}

fn float(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        _ => panic!("expected a float"),
    }
}

/// The benchmark's own fold of every reading into `count/sum/min/max` per
/// bucket of `ts`.
fn fold_rows(rows: &[Record]) -> Vec<WindowRow> {
    fold(
        rows.iter().map(|r| (int(&r[0]) as f64, float(&r[2]))),
        BUCKET_WIDTH,
    )
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, Box<dyn Error>> {
    let mut report = Report::default();
    let all = generate_telemetry(&TelemetryConfig {
        readings: READINGS + TAIL_ROWS,
        sensors: 256,
        seed: args.seed,
        ..TelemetryConfig::default()
    });
    let (rows, tail_rows) = all.split_at(READINGS);
    let ts_sum: i64 = rows.iter().map(|r| int(&r[0])).sum();
    let spec = WindowedAggregate::new("ts", BUCKET_WIDTH, "value");
    let expected_windows = fold_rows(rows);
    report.mark_rss_base();
    let load = DurabilityOptions {
        page_size: PAGE_SIZE,
        sync: SyncPolicy::GroupCommit(32),
        mmap_reads: false,
    };
    let mapped = DurabilityOptions {
        mmap_reads: true,
        ..load
    };

    let mut checkpoints = CheckpointLog::default();
    let (db, dir) = build_instances(
        work,
        "columns",
        INSTANCES,
        load,
        |db| {
            db.create_table(schema(SCANNED))?;
            db.create_table(schema(COMPRESSED))?;
            db.apply_layout_text(SCANNED, COLUMNS)?;
            for chunk in rows.chunks(BATCH) {
                trace::span("core.insert", || db.insert(SCANNED, chunk.to_vec()))?;
                trace::span("core.insert", || db.insert(COMPRESSED, chunk.to_vec()))?;
            }
            Ok(())
        },
        |db| {
            db.apply_layout_text(COMPRESSED, GROUPS)?;
            db.ensure_rendered(COMPRESSED)
        },
        &mut checkpoints,
        &mut report,
    )?;
    // The write path's counters cover the loaded instance; the mmap reopen
    // below starts them afresh.
    let (loaded_metrics, loaded_io) = (db.metrics(), db.io_snapshot());
    drop(db);
    let t = Instant::now();
    let db = trace::span("core.open", || Database::open_with(&dir, mapped))?;
    let first_open_ms = ms_since(t);
    db.ensure_rendered(SCANNED)?;
    db.ensure_rendered(COMPRESSED)?;

    let scan = ScanRequest::all().fields(["ts"]);
    let mut pair_ms = Vec::new();
    let mut processed = 0u64;
    let mut check_s = 0.0;
    let pairs = (args.seconds * PAIRS_PER_SECOND).max(40);
    let mut split = trace::Split::default();
    let io_before = db.io_snapshot();
    let started = Instant::now();
    for _ in 0..pairs {
        let recorded = split.start();
        let t = Instant::now();
        let scanned = trace::span("op.scan", || db.scan(SCANNED, &scan));
        let windows = trace::span("op.aggregate", || {
            db.scan_aggregate(COMPRESSED, &spec, None)
        });
        let ms = ms_since(t);
        pair_ms.push(ms);
        split.finish(recorded, ms);
        report.attempted += 2;
        let c = Instant::now();
        match scanned {
            Ok(got) => {
                processed += got.len() as u64;
                let sum: i64 = got.iter().map(|r| int(&r[0])).sum();
                if got.len() != READINGS || sum != ts_sum {
                    report.mismatch(format!(
                        "scan returned {} rows with ts sum {sum}, expected {READINGS} and {ts_sum}",
                        got.len()
                    ));
                }
            }
            Err(e) => report.mismatch(format!("scan failed: {e}")),
        }
        match windows {
            Ok(got) if same_windows(&got, &expected_windows) => processed += READINGS as u64,
            Ok(got) => report.mismatch(format!(
                "aggregate gave {} buckets, expected {}",
                got.len(),
                expected_windows.len()
            )),
            Err(e) => report.mismatch(format!("aggregate failed: {e}")),
        }
        check_s += c.elapsed().as_secs_f64();
    }
    let loop_s = started.elapsed().as_secs_f64() - check_s;
    let tracing_overhead = split.end();
    let io = db.io_snapshot().since(&io_before);
    let queries = 2.0 * pair_ms.len() as f64;
    let tail_ms = tail(&pair_ms, tail_pct(pairs));
    eprintln!(
        "column_scan: {} pairs, {} pages/query, {} seeks/query, p50 {:.1} ms, p{} {tail_ms:.1} ms, {loop_s:.1} s",
        pair_ms.len(),
        io.pages_read as f64 / queries,
        io.seeks as f64 / queries,
        median(&pair_ms),
        tail_pct(pairs)
    );
    report.set("rows_per_s", processed as f64 / loop_s);
    report.set("op_p50_ms", median(&pair_ms));
    report.set("client.op_tail_ms", tail_ms);
    report.set("pages_per_query", io.pages_read as f64 / queries);
    report.set(
        "space_amp",
        dir_bytes(&dir) as f64 / (2 * rows.iter().map(|r| logical_bytes(r)).sum::<u64>()) as f64,
    );

    if args.trace {
        layers::tracing(&mut report, tracing_overhead);
        report.set("storage.seeks_per_query", io.seeks as f64 / queries);
        report.set(
            "storage.bytes_read_per_row",
            io.bytes_read as f64 / processed as f64,
        );
        read_layers(&mut report, &db, &scan, &spec)?;
        layers::write_path(
            &mut report,
            &loaded_metrics,
            &loaded_io,
            2 * READINGS as u64,
        );
        let expr = rodentstore::parse(GROUPS)?;
        let layout =
            layers::render_in_memory(&mut report, &expr, schema(COMPRESSED), rows, PAGE_SIZE);
        let access = AccessMethods::new(layout);
        let t = Instant::now();
        for _ in 0..3 {
            trace::span("exec.scan_aggregate", || access.scan_aggregate(&spec, None))?;
        }
        report.set("exec.scan_us", t.elapsed().as_secs_f64() * 1e6 / 3.0);
        let ts_column: Vec<i64> = rows.iter().map(|r| int(&r[0])).collect();
        layers::decode_rate(&mut report, ColumnData::Ints(ts_column));
        let pairs: Vec<(f64, f64)> = rows
            .iter()
            .map(|r| (int(&r[0]) as f64, float(&r[2])))
            .collect();
        layers::fold_rate(&mut report, &spec, &pairs);
        report.set(
            "core.manifest_bytes",
            std::fs::metadata(dir.join("manifest.rodent"))?.len() as f64,
        );
    }

    let (db, mut reopens, replay) = reopen_cycles(
        db,
        &dir,
        mapped,
        REOPENS,
        &[(SCANNED, READINGS), (COMPRESSED, READINGS)],
        |db| {
            db.insert(SCANNED, tail_rows.to_vec())?;
            db.insert(COMPRESSED, tail_rows.to_vec())?;
            Ok(vec![(SCANNED, TAIL_ROWS), (COMPRESSED, TAIL_ROWS)])
        },
        &mut checkpoints,
        &mut report,
    )?;
    drop(db);
    reopens.push(first_open_ms);
    lifecycle_metrics(&mut report, &checkpoints, &reopens, replay);
    Ok(report)
}

/// Read-path layers on the loop's two queries: page fetch of the objects
/// they read (mapped frames), the layout's own scan and fold net of fetch,
/// rows examined per row returned, and what the `Database` calls add.
fn read_layers(
    report: &mut Report,
    db: &Database,
    scan: &ScanRequest,
    spec: &WindowedAggregate,
) -> Result<(), Box<dyn Error>> {
    let scanned = db.snapshot(SCANNED)?;
    let compressed = db.snapshot(COMPRESSED)?;
    let scan_layout = scanned.layout().ok_or("columns(Telemetry) is rendered")?;
    let agg_layout = compressed
        .layout()
        .ok_or("the column groups are rendered")?;
    let agg_fields = [spec.bucket_field.clone(), spec.value_field.clone()];
    let mut pages = Vec::new();
    let mut examined = 0usize;
    for (layout, fields) in [
        (scan_layout, &["ts".to_string()][..]),
        (agg_layout, &agg_fields[..]),
    ] {
        for i in layout.objects_to_read(Some(fields), None) {
            examined += layout.objects[i].row_count;
            pages.extend(layout.objects[i].heap.page_ids()?);
        }
    }
    let fetch_us = layers::fetch_us_per_page(report, db.pager(), &pages);
    // Alternate the layout's calls and the facade's, so that both see the
    // same page-cache and allocator state.
    let (mut layout_s, mut extra_s, mut returned, mut layout_pages) =
        (0.0, Vec::new(), 0usize, 0u64);
    for _ in 0..3 {
        let io = db.io_snapshot();
        let t = Instant::now();
        returned += trace::span("layout.scan", || {
            scan_layout.scan(scan.fields.as_deref(), None)
        })?
        .len();
        returned += trace::span("layout.scan_aggregate", || {
            agg_layout.scan_aggregate(spec, None)
        })?
        .rows_folded() as usize;
        let layout_call_s = t.elapsed().as_secs_f64();
        layout_s += layout_call_s;
        layout_pages += db.io_snapshot().since(&io).pages_read;
        let t = Instant::now();
        trace::span("core.scan", || db.scan(SCANNED, scan))?;
        trace::span("core.scan_aggregate", || {
            db.scan_aggregate(COMPRESSED, spec, None)
        })?;
        // Two calls each way per iteration.
        extra_s.push((t.elapsed().as_secs_f64() - layout_call_s) / 2.0);
    }
    let layout_pages = layout_pages as f64;
    report.set(
        "layout.scan_us_per_page",
        layout_s * 1e6 / layout_pages - fetch_us,
    );
    report.set(
        "layout.rows_examined_per_row_returned",
        3.0 * examined as f64 / returned as f64,
    );
    report.set("core.query_overhead_us", layers::overhead_us(&extra_s));
    Ok(())
}
