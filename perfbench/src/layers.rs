//! Per-layer measurements shared by the workloads. Each either reads a
//! counter the engine exports or times a call into one crate's public
//! functions on the workload's own data.

use crate::common::{hist, median, Report};
use crate::trace;
use rodentstore::{IoSnapshot, MetricsSnapshot, PhysicalLayout, RenderOptions, Schema};
use rodentstore_algebra::value::Record;
use rodentstore_algebra::LayoutExpr;
use rodentstore_compress::{ColumnCodec, ColumnData, DeltaCodec};
use rodentstore_layout::{render, MemTableProvider, WindowAccumulator, WindowedAggregate};
use rodentstore_storage::page::PageId;
use rodentstore_storage::pager::Pager;
use std::sync::Arc;
use std::time::Instant;

/// Write-path layers from the engine's registry and I/O counters over a
/// database's lifetime: WAL commit and fsync, data bytes written, the lsm
/// tier's absorb share, merges and pages, and the rest of `insert`.
pub fn write_path(report: &mut Report, snap: &MetricsSnapshot, io: &IoSnapshot, rows: u64) {
    let (commits, commit_us) = hist(snap, "wal.commit_micros");
    let (fsyncs, fsync_us) = hist(snap, "wal.fsync_micros");
    let (inserts, insert_us) = hist(snap, "insert.micros");
    let (_, absorb_us) = hist(snap, "lsm.absorb_micros");
    let per = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    let lsm_pages = snap.counter("lsm.spill.pages").unwrap_or(0)
        + snap.counter("lsm.pages_written").unwrap_or(0);
    report.set("storage.wal_commit_us", per(commit_us, commits));
    report.set("storage.fsync_us", per(fsync_us, fsyncs));
    report.set("storage.fsyncs", fsyncs as f64);
    report.set("storage.bytes_written_per_row", per(io.bytes_written, rows));
    report.set("layout.lsm_absorb_pct", 100.0 * per(absorb_us, insert_us));
    report.set(
        "layout.lsm_merges",
        snap.counter("lsm.merges").unwrap_or(0) as f64,
    );
    report.set("layout.lsm_pages_written_per_row", per(lsm_pages, rows));
    report.set(
        "core.insert_other_us",
        per(insert_us.saturating_sub(commit_us + absorb_us), inserts),
    );
}

/// Runs `f` in batches until about 0.3 s have passed and returns the median
/// rate of `work` units per second over the batches.
fn rate(work: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < 0.3 {
        let t = Instant::now();
        f();
        rates.push(work as f64 / t.elapsed().as_secs_f64());
    }
    median(&rates)
}

/// `compress.decode_values_per_s`: delta-codec decode of one of the
/// workload's columns.
pub fn decode_rate(report: &mut Report, column: ColumnData) {
    let codec = DeltaCodec::default();
    let block = codec
        .encode(&column)
        .expect("delta encodes numeric columns");
    let n = column.len();
    let r = trace::span("compress.decode", || {
        rate(n, || {
            let decoded = codec.decode(&block).expect("block decodes");
            assert_eq!(decoded.len(), n);
            std::hint::black_box(decoded);
        })
    });
    report.set("compress.decode_values_per_s", r);
}

/// `layout.agg_fold_rows_per_s`: the windowed-aggregate fold over the
/// workload's `(bucket, value)` pairs.
pub fn fold_rate(report: &mut Report, spec: &WindowedAggregate, pairs: &[(f64, f64)]) {
    let r = trace::span("layout.fold", || {
        rate(pairs.len(), || {
            let mut acc = WindowAccumulator::new(spec);
            for &(b, v) in pairs {
                acc.fold(b, v);
            }
            std::hint::black_box(acc.finish());
        })
    });
    report.set("layout.agg_fold_rows_per_s", r);
}

/// `layout.render_s`: renders `expr` over the workload's rows into an
/// in-memory pager; returns the layout for the exec-layer measurement. Also
/// `core.relayout_other_s`, the rest of `client.relayout_s`; 0 where the
/// noise of the two timings puts the render above the relayout.
pub fn render_in_memory(
    report: &mut Report,
    expr: &LayoutExpr,
    schema: Schema,
    rows: &[Record],
    page_size: usize,
) -> PhysicalLayout {
    let provider = MemTableProvider::single(schema, rows.to_vec());
    let pager = Arc::new(Pager::in_memory_with_page_size(page_size));
    let t = Instant::now();
    let layout = trace::span("layout.render", || {
        render(expr, &provider, pager, RenderOptions::default())
    })
    .expect("the workload's layout renders");
    let render_s = t.elapsed().as_secs_f64();
    report.set("layout.render_s", render_s);
    report.set(
        "core.relayout_other_s",
        (report.metrics["client.relayout_s"] - render_s).max(0.0),
    );
    layout
}

/// `storage.fetch_us_per_page`: `Pager::read_frame` over the given pages.
pub fn fetch_us_per_page(report: &mut Report, pager: &Pager, pages: &[PageId]) -> f64 {
    assert!(!pages.is_empty(), "the workload's queries read pages");
    let per_sec = trace::span("storage.read_frame", || {
        rate(pages.len(), || {
            for &id in pages {
                std::hint::black_box(pager.read_frame(id).expect("page reads back"));
            }
        })
    });
    let us = 1e6 / per_sec;
    report.set("storage.fetch_us_per_page", us);
    us
}

/// `core.query_overhead_us`: the median, over alternated pairs of calls on
/// the same request, of the time a `Database` call took beyond the layout
/// call it wraps (`extra_s`, seconds per call). A facade takes no negative
/// time, so a median that the noise of the layout calls pushes below zero
/// reads 0: on column_scan, 100–200 ms calls hide a fixed per-query cost of
/// well under a millisecond.
pub fn overhead_us(extra_s: &[f64]) -> f64 {
    (median(extra_s) * 1e6).max(0.0)
}

/// `obs.tracing_overhead` (the traced loop's recorded half over its
/// unrecorded half, from [`trace::Split::end`]) and `obs.spans`.
pub fn tracing(report: &mut Report, overhead: f64) {
    report.set("obs.tracing_overhead", overhead);
    report.set("obs.spans", trace::span_count() as f64);
}
