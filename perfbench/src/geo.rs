//! `geo_window`: the paper's case study. CarTel observations are loaded
//! through 10k-row durable inserts, the table is re-declared as N4 (delta
//! over z-order over a grid over the projected, grouped, ordered traces) and
//! checkpointed, and the timed loop runs random 1%-area windows projected to
//! `lat,lon` on the pread path with 16 KB pages.

use crate::common::{
    build_instances, dir_bytes, lifecycle_metrics, logical_bytes, median, ms_since, reopen_cycles,
    tail, Args, CheckpointLog, Report, WorkDir,
};
use crate::{layers, trace};
use rodentstore::{Database, DurabilityOptions, LayoutExpr, ScanRequest, SyncPolicy, Value};
use rodentstore_algebra::value::Record;
use rodentstore_compress::ColumnData;
use rodentstore_exec::AccessMethods;
use rodentstore_layout::WindowedAggregate;
use rodentstore_workload::{generate_traces, random_square_queries, traces_schema, CartelConfig};
use std::error::Error;
use std::time::Instant;

const OBSERVATIONS: usize = 400_000;
/// Many short trajectories spread the points evenly, so that windows of
/// different seeds hold similar numbers of points.
const VEHICLES: usize = 4_000;
/// Rows appended without a checkpoint before the last reopen.
const TAIL_ROWS: usize = 10_000;
const BATCH: usize = 10_000;
const WINDOWS: usize = 1_000;
const PAGE_SIZE: usize = 16 * 1024;
/// Database instances built per run; `setup_s` and `relayout_s` are their
/// medians and the last one serves the timed loop.
const INSTANCES: usize = 3;
/// Close-and-reopen cycles at the end of the run.
const REOPENS: usize = 5;
/// At least 1000 windows per run: p99 has ten or more beyond it.
const TAIL_PCT: f64 = 99.0;
/// N4 stores coordinates as `round(v * 1e6)`, the delta codec's default
/// float scale; the reference applies the same rounding.
const SCALE: f64 = 1e6;

fn quantize(v: f64) -> f64 {
    (v * SCALE).round() as i64 as f64 / SCALE
}

fn coords(row: &Record) -> (f64, f64) {
    match (&row[1], &row[2]) {
        (Value::Float(lat), Value::Float(lon)) => (*lat, *lon),
        _ => panic!("Traces rows are (t, lat, lon, id)"),
    }
}

/// Per-window `(rows, sum lat, sum lon)` from a brute-force filter over the
/// generated observations, sorted by latitude so each window scans only its
/// latitude band.
fn reference(
    rows: &[Record],
    windows: &[rodentstore_workload::SpatialQuery],
) -> Vec<(usize, f64, f64)> {
    let mut points: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| {
            let (lat, lon) = coords(r);
            (quantize(lat), quantize(lon))
        })
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    windows
        .iter()
        .map(|w| {
            let start = points.partition_point(|p| p.0 < w.min_lat);
            let mut out = (0, 0.0, 0.0);
            for &(lat, lon) in points[start..].iter().take_while(|p| p.0 <= w.max_lat) {
                if lon >= w.min_lon && lon <= w.max_lon {
                    out.0 += 1;
                    out.1 += lat;
                    out.2 += lon;
                }
            }
            out
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 + 1e-12 * a.abs()
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, Box<dyn Error>> {
    let mut report = Report::default();
    let config = CartelConfig {
        observations: OBSERVATIONS + TAIL_ROWS,
        seed: args.seed,
        vehicles: VEHICLES,
        ..CartelConfig::default()
    };
    let all = generate_traces(&config);
    let (rows, tail_rows) = all.split_at(OBSERVATIONS);
    let bbox = config.bbox;
    let windows = random_square_queries(&bbox, 0.01, WINDOWS, args.seed.wrapping_add(1));
    let expected = reference(rows, &windows);
    report.mark_rss_base();
    // Grid cells a quarter of the window side, as in the paper's case study.
    let (cell_lat, cell_lon) = (bbox.lat_span() * 0.025, bbox.lon_span() * 0.025);
    let n4 = format!(
        "delta[lat,lon](zorder(grid[lat,lon;{cell_lat},{cell_lon}](project[lat,lon](groupby[id](orderby[t](Traces))))))"
    );
    let options = DurabilityOptions {
        page_size: PAGE_SIZE,
        sync: SyncPolicy::GroupDurable,
        mmap_reads: false,
    };

    let mut checkpoints = CheckpointLog::default();
    let (db, dir) = build_instances(
        work,
        "geo",
        INSTANCES,
        options,
        |db| {
            db.create_table(traces_schema())?;
            for chunk in rows.chunks(BATCH) {
                trace::span("core.insert", || db.insert("Traces", chunk.to_vec()))?;
            }
            Ok(())
        },
        |db| {
            db.apply_layout_text("Traces", &n4)?;
            db.ensure_rendered("Traces")
        },
        &mut checkpoints,
        &mut report,
    )?;

    let requests: Vec<ScanRequest> = windows
        .iter()
        .map(|w| {
            ScanRequest::all()
                .fields(["lat", "lon"])
                .predicate(w.to_condition())
        })
        .collect();
    let mut latencies = Vec::new();
    let mut returned = 0u64;
    let mut check_s = 0.0;
    let mut split = trace::Split::default();
    let io_before = db.io_snapshot();
    let mut round_rates = Vec::new();
    let started = Instant::now();
    loop {
        let round_started = Instant::now();
        let (round_check, round_returned) = (check_s, returned);
        for (request, want) in requests.iter().zip(&expected) {
            let recorded = split.start();
            let t = Instant::now();
            let got = trace::span("op.window", || db.scan("Traces", request));
            let ms = ms_since(t);
            latencies.push(ms);
            split.finish(recorded, ms);
            report.attempted += 1;
            let c = Instant::now();
            match got {
                Ok(got) => {
                    returned += got.len() as u64;
                    let (mut lat, mut lon) = (0.0, 0.0);
                    for r in &got {
                        let (Value::Float(a), Value::Float(b)) = (&r[0], &r[1]) else {
                            panic!("windows project (lat, lon)");
                        };
                        lat += a;
                        lon += b;
                    }
                    if got.len() != want.0 || !close(lat, want.1) || !close(lon, want.2) {
                        report.mismatch(format!(
                            "window returned {} rows (lat sum {lat}, lon sum {lon}), expected {} ({}, {})",
                            got.len(), want.0, want.1, want.2
                        ));
                    }
                }
                Err(e) => report.mismatch(format!("window failed: {e}")),
            }
            check_s += c.elapsed().as_secs_f64();
        }
        let round_s = round_started.elapsed().as_secs_f64() - (check_s - round_check);
        round_rates.push((returned - round_returned) as f64 / round_s);
        if started.elapsed().as_secs() >= args.seconds {
            break;
        }
    }
    let tracing_overhead = split.end();
    let io = db.io_snapshot().since(&io_before);
    let queries = latencies.len() as f64;
    let pages_per_query = io.pages_read as f64 / queries;
    let tail_ms = tail(&latencies, TAIL_PCT);
    eprintln!(
        "geo_window: {} windows, {returned} rows, {pages_per_query} pages/query, p{TAIL_PCT} {tail_ms:.3} ms",
        latencies.len()
    );
    report.set("rows_per_s", median(&round_rates));
    report.set("op_p50_ms", median(&latencies));
    report.set("client.op_tail_ms", tail_ms);
    report.set("pages_per_query", pages_per_query);
    report.set(
        "space_amp",
        dir_bytes(&dir) as f64 / rows.iter().map(|r| logical_bytes(r)).sum::<u64>() as f64,
    );

    if args.trace {
        layers::tracing(&mut report, tracing_overhead);
        report.set("storage.seeks_per_query", io.seeks as f64 / queries);
        report.set(
            "storage.bytes_read_per_row",
            io.bytes_read as f64 / returned as f64,
        );
        layers::write_path(
            &mut report,
            &db.metrics(),
            &db.io_snapshot(),
            OBSERVATIONS as u64,
        );
        read_layers(&mut report, &db, &requests)?;
        let expr = rodentstore::parse(&n4)?;
        let layout = layers::render_in_memory(&mut report, &expr, traces_schema(), rows, PAGE_SIZE);
        let access = AccessMethods::new(layout);
        let sample = &requests[..100];
        let t = Instant::now();
        for r in sample {
            trace::span("exec.scan", || access.scan(r))?;
        }
        report.set(
            "exec.scan_us",
            t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64,
        );
        let lat: Vec<f64> = rows.iter().map(|r| coords(r).0).collect();
        layers::decode_rate(&mut report, ColumnData::Floats(lat));
        let pairs: Vec<(f64, f64)> = rows
            .iter()
            .map(|r| match r[0] {
                Value::Timestamp(t) => (t as f64, coords(r).0),
                _ => panic!("Traces.t is a timestamp"),
            })
            .collect();
        layers::fold_rate(
            &mut report,
            &WindowedAggregate::new("t", 1_000.0, "lat"),
            &pairs,
        );
        report.set(
            "core.manifest_bytes",
            std::fs::metadata(dir.join("manifest.rodent"))?.len() as f64,
        );
    }

    let (db, plain, replay) = reopen_cycles(
        db,
        &dir,
        options,
        REOPENS,
        &[("Traces", OBSERVATIONS)],
        |db| {
            db.insert("Traces", tail_rows.to_vec())?;
            Ok(vec![("Traces", TAIL_ROWS)])
        },
        &mut checkpoints,
        &mut report,
    )?;
    drop(db);
    lifecycle_metrics(&mut report, &checkpoints, &plain, replay);

    // The paper's property on the same data: a raw-row full scan reads every
    // page of the row layout, N4's windows read a small fraction of that.
    // Rendered after the peak resident set is taken, from the generated rows
    // themselves, so that it adds nothing to `peak_rss_mb`.
    let mut all = all;
    all.truncate(OBSERVATIONS);
    let raw = rodentstore_layout::render(
        &LayoutExpr::table("Traces"),
        &rodentstore_layout::MemTableProvider::single(traces_schema(), all),
        std::sync::Arc::new(rodentstore_storage::pager::Pager::in_memory_with_page_size(
            PAGE_SIZE,
        )),
        rodentstore::RenderOptions::default(),
    )?;
    let raw_scan_pages = raw.total_pages() as f64;
    eprintln!("geo_window: a raw-row full scan reads {raw_scan_pages} pages");
    report.attempted += 1;
    if pages_per_query * 10.0 > raw_scan_pages {
        report.mismatch(format!(
            "N4 read {pages_per_query} pages per window, not far below the {raw_scan_pages} of a raw-row full scan"
        ));
    }
    Ok(report)
}

/// Read-path layers on the first 100 windows: page fetch, the layout's own
/// scan net of fetch, rows examined per row returned, and the time
/// `Database::scan` adds over the layout scan it wraps.
fn read_layers(
    report: &mut Report,
    db: &Database,
    requests: &[ScanRequest],
) -> Result<(), Box<dyn Error>> {
    let sample = &requests[..100];
    let snapshot = db.snapshot("Traces")?;
    let layout = snapshot.layout().ok_or("N4 is rendered")?;
    let mut pages = Vec::new();
    let mut examined = 0usize;
    for r in sample {
        for i in layout.objects_to_read(r.fields.as_deref(), r.predicate.as_ref()) {
            let obj = &layout.objects[i];
            examined += obj.row_count;
            pages.extend(obj.heap.page_ids()?);
        }
    }
    let fetch_us = layers::fetch_us_per_page(report, db.pager(), &pages);
    // Alternate the layout's scan and the facade's call on each window, so
    // that both see the same page-cache and allocator state.
    let (mut layout_s, mut extra_s, mut returned, mut layout_pages) =
        (0.0, Vec::new(), 0usize, 0u64);
    for r in sample {
        let io = db.io_snapshot();
        let t = Instant::now();
        let got = trace::span("layout.scan", || {
            layout.scan(r.fields.as_deref(), r.predicate.as_ref())
        })?;
        let layout_call_s = t.elapsed().as_secs_f64();
        layout_s += layout_call_s;
        layout_pages += db.io_snapshot().since(&io).pages_read;
        returned += got.len();
        let t = Instant::now();
        trace::span("core.scan", || db.scan("Traces", r))?;
        extra_s.push(t.elapsed().as_secs_f64() - layout_call_s);
    }
    let layout_pages = layout_pages as f64;
    report.set(
        "layout.scan_us_per_page",
        layout_s * 1e6 / layout_pages - fetch_us,
    );
    report.set(
        "layout.rows_examined_per_row_returned",
        examined as f64 / returned as f64,
    );
    report.set("core.query_overhead_us", layers::overhead_us(&extra_s));
    Ok(())
}
