//! Shared pieces of the workloads: arguments, the result line, sample
//! statistics, the scratch directory and the measurements every workload
//! takes the same way (space, memory, checkpoints, reopen).

use rodentstore::{
    Database, DurabilityOptions, Event, EventKind, MetricsSnapshot, Value, WindowRow,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The end-to-end metrics every workload reports, with their units. The
/// per-workload meaning of each is in README.md.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_ms", "ms"),
    ("pages_per_query", "pages"),
    ("checkpoint_ms", "ms"),
    ("reopen_ms", "ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, with their units. The client's
/// tail latency and relayout time are here rather than end to end: on a
/// shared 2-core box they move up to a quarter from run to run, more than any
/// bound could hold.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("client.op_tail_ms", "ms"),
    ("client.relayout_s", "s"),
    ("storage.fetch_us_per_page", "us"),
    ("storage.seeks_per_query", "count"),
    ("storage.bytes_read_per_row", "B"),
    ("storage.wal_commit_us", "us"),
    ("storage.fsync_us", "us"),
    ("storage.fsyncs", "count"),
    ("storage.bytes_written_per_row", "B"),
    ("layout.scan_us_per_page", "us"),
    ("layout.rows_examined_per_row_returned", "ratio"),
    ("layout.render_s", "s"),
    ("layout.lsm_absorb_pct", "%"),
    ("layout.lsm_merges", "count"),
    ("layout.lsm_pages_written_per_row", "pages"),
    ("layout.agg_fold_rows_per_s", "rows/s"),
    ("compress.decode_values_per_s", "values/s"),
    ("exec.scan_us", "us"),
    ("core.query_overhead_us", "us"),
    ("core.insert_other_us", "us"),
    ("core.relayout_other_s", "s"),
    ("core.checkpoint.reap_retired_ms", "ms"),
    ("core.checkpoint.flush_tails_ms", "ms"),
    ("core.checkpoint.pager_sync_ms", "ms"),
    ("core.checkpoint.write_manifest_ms", "ms"),
    ("core.checkpoint.release_quarantine_ms", "ms"),
    ("core.checkpoint.wal_truncate_ms", "ms"),
    ("core.checkpoint.shrink_data_file_ms", "ms"),
    ("core.manifest_bytes", "B"),
    ("core.wal_replay_ms", "ms"),
    ("obs.tracing_overhead", "ratio"),
    ("obs.spans", "count"),
];

/// What a workload hands back: operation counts, failed checks, and the
/// metric values by name.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Resident set once the inputs and references are built; `peak_rss_mb`
    /// is the peak above it.
    rss_base_mb: f64,
}

impl Report {
    /// Records a failed check; the first few are kept for the error output.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 10 {
            self.mismatches.push(what);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Takes the resident set now, with the generated inputs and the
    /// reference results in memory, as the base of `peak_rss_mb`.
    pub fn mark_rss_base(&mut self) {
        self.rss_base_mb = proc_status_mb("VmRSS:");
    }

    /// The result line: every end-to-end metric (or, when traced, every
    /// per-layer metric) by name with its unit.
    pub fn to_json(&self, traced: bool, correct: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                assert!(value.is_finite(), "{name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Prints a sample to standard error, for reading a run's spread.
pub fn show(name: &str, values: &[f64]) {
    let v: Vec<String> = values.iter().map(|x| format!("{x:.4}")).collect();
    eprintln!("  {name}: [{}]", v.join(", "));
}

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The workload's tail percentile of a sample. Each workload fixes the
/// percentile with at least ten samples beyond it at its sample count (see
/// README.md); a sample too small for that is a bug in the workload.
pub fn tail(values: &[f64], p: f64) -> f64 {
    assert!(
        values.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9,
        "{} samples leave fewer than ten beyond p{p}",
        values.len()
    );
    percentile(values, p)
}

/// The benchmark's own windowed fold: `count/sum/min/max` of the value per
/// `width`-wide bucket of the key, over `(key, value)` pairs, without the
/// engine.
pub fn fold(pairs: impl Iterator<Item = (f64, f64)>, width: f64) -> Vec<WindowRow> {
    let mut buckets: BTreeMap<i64, WindowRow> = BTreeMap::new();
    for (key, v) in pairs {
        let b = (key / width).floor() as i64;
        let e = buckets.entry(b).or_insert(WindowRow {
            bucket_start: b as f64 * width,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        });
        e.count += 1;
        e.sum += v;
        e.min = e.min.min(v);
        e.max = e.max.max(v);
    }
    buckets.into_values().collect()
}

/// Whether two windowed aggregates agree: equal buckets, counts, minima and
/// maxima, and sums equal up to the rounding of a different summation order.
pub fn same_windows(got: &[WindowRow], want: &[WindowRow]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.bucket_start == w.bucket_start
                && g.count == w.count
                && g.min == w.min
                && g.max == w.max
                && (g.sum - w.sum).abs() <= 1e-9 * w.sum.abs().max(1.0)
        })
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The benchmark's scratch directory, `.bench_work/<workload>-<pid>` under
/// the current directory; removed when dropped.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn new(workload: &str) -> WorkDir {
        let root = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        WorkDir { root }
    }

    /// A fresh, empty database directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind; fails harmlessly while another
        // benchmark process still has its directory there.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Builds `instances` databases from scratch under `work`, each created with
/// `options`, loaded by `load` and checkpointed (timed as set-up), then
/// re-declared by `declare` and checkpointed again (the declaration timed as
/// relayout). Reports the medians as `setup_s` and `client.relayout_s` and keeps
/// the last database, with its directory, for the timed loop.
#[allow(clippy::too_many_arguments)]
pub fn build_instances(
    work: &WorkDir,
    name: &str,
    instances: usize,
    options: DurabilityOptions,
    load: impl Fn(&Database) -> rodentstore::Result<()>,
    declare: impl Fn(&Database) -> rodentstore::Result<()>,
    checkpoints: &mut CheckpointLog,
    report: &mut Report,
) -> rodentstore::Result<(Database, PathBuf)> {
    let mut setup_s = Vec::new();
    let mut relayout_s = Vec::new();
    let mut kept = None;
    for i in 0..instances {
        let dir = work.fresh(&format!("{name}-{i}"));
        let t = Instant::now();
        let db = crate::trace::span("core.create", || Database::create_with(&dir, options))?;
        db.set_auto_adapt(false);
        load(&db)?;
        checkpoints.checkpoint(&db)?;
        setup_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        crate::trace::span("core.relayout", || declare(&db))?;
        relayout_s.push(t.elapsed().as_secs_f64());
        checkpoints.checkpoint(&db)?;
        if i + 1 == instances {
            kept = Some((db, dir));
        } else {
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    show("setup_s", &setup_s);
    show("relayout_s", &relayout_s);
    report.set("setup_s", median(&setup_s));
    report.set("client.relayout_s", median(&relayout_s));
    Ok(kept.expect("at least one instance"))
}

/// Reports the run's durability metrics: `checkpoint_ms`, `reopen_ms` over
/// every reopen (`clean` and the one that replayed a tail), the per-phase
/// checkpoint means, `core.wal_replay_ms` (the replaying open's own time),
/// and `peak_rss_mb`.
pub fn lifecycle_metrics(
    report: &mut Report,
    checkpoints: &CheckpointLog,
    clean: &[f64],
    replay: f64,
) {
    let mut reopens = clean.to_vec();
    reopens.push(replay);
    show("checkpoint_ms", &checkpoints.total_ms);
    show("reopen_ms", &reopens);
    report.set("checkpoint_ms", checkpoints.mean_ms());
    report.set("reopen_ms", median(&reopens));
    report.set("core.wal_replay_ms", replay);
    checkpoints.report(report);
    let peak = proc_status_mb("VmHWM:");
    eprintln!(
        "  resident set: peak {peak:.1} MB, {:.1} MB of it inputs and references",
        report.rss_base_mb
    );
    report.set("peak_rss_mb", peak - report.rss_base_mb);
}

/// Bytes of every file in a database directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Logical bytes of a row as the user supplied it: 8 per number or
/// timestamp, the UTF-8 length of each string.
pub fn logical_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            _ => 8,
        })
        .sum()
}

/// A `kB` field of this process's `/proc/self/status` (`VmRSS:`, the
/// resident set now, or `VmHWM:`, its peak), in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(count, sum)` of a histogram.
pub fn hist(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.histogram(name).map_or((0, 0), |h| (h.count, h.sum))
}

/// Checkpoint phase timings gathered from the engine's event ring.
#[derive(Default)]
pub struct CheckpointLog {
    pub total_ms: Vec<f64>,
    pub phases: BTreeMap<String, Vec<f64>>,
}

impl CheckpointLog {
    /// Checkpoints `db`, timing the call and keeping the phase timings of its
    /// checkpoint event.
    pub fn checkpoint(&mut self, db: &Database) -> rodentstore::Result<()> {
        let t = Instant::now();
        crate::trace::span("core.checkpoint", || db.checkpoint())?;
        self.total_ms.push(ms_since(t));
        self.take_events(db.events());
        Ok(())
    }

    /// Mean duration of every checkpoint in the run. Checkpoint cost grows
    /// with the table, so a median would report one checkpoint from that
    /// trend, with that one sample's noise.
    pub fn mean_ms(&self) -> f64 {
        self.total_ms.iter().sum::<f64>() / self.total_ms.len() as f64
    }

    fn take_events(&mut self, events: Vec<Event>) {
        for e in events {
            if let EventKind::Checkpoint { phases, .. } = e.kind {
                for (name, micros) in phases {
                    self.phases
                        .entry(name)
                        .or_default()
                        .push(micros as f64 / 1e3);
                }
            }
        }
    }

    /// Mean per phase as `core.checkpoint.<phase>_ms`. The engine times
    /// phases in whole microseconds; a mean keeps the digits of the short
    /// phases that a median would round to one repeated value.
    pub fn report(&self, report: &mut Report) {
        for (name, _) in PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("core.checkpoint."))
        {
            let phase = &name["core.checkpoint.".len()..name.len() - 3];
            let value = self
                .phases
                .get(phase)
                .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64);
            report.set(name, value);
        }
    }
}

/// Closes `db` and reopens its directory `cycles` times, timing each open and
/// checking that the row counts survive. Every close but the last is a clean
/// shutdown (a checkpoint, logged with the others, then drop). Before the
/// last, `tail` appends rows without a checkpoint, so that the last open
/// replays a WAL tail. Returns the reopened database, the plain reopen times
/// and the time of the open that replayed the tail.
#[allow(clippy::too_many_arguments)]
pub fn reopen_cycles(
    db: Database,
    dir: &Path,
    options: DurabilityOptions,
    cycles: usize,
    expected: &[(&str, usize)],
    tail: impl FnOnce(&Database) -> rodentstore::Result<Vec<(&'static str, usize)>>,
    checkpoints: &mut CheckpointLog,
    report: &mut Report,
) -> rodentstore::Result<(Database, Vec<f64>, f64)> {
    let mut db = db;
    let mut plain = Vec::new();
    let mut expected: Vec<(String, usize)> =
        expected.iter().map(|(t, n)| (t.to_string(), *n)).collect();
    let mut tail = Some(tail);
    let mut replay_ms = 0.0;
    for cycle in 0..cycles {
        let last = cycle + 1 == cycles;
        if last {
            let added = (tail.take().expect("one tail"))(&db)?;
            for (table, rows) in added {
                if let Some(e) = expected.iter_mut().find(|(t, _)| t == table) {
                    e.1 += rows;
                }
            }
        } else {
            checkpoints.checkpoint(&db)?;
        }
        drop(db);
        let t = Instant::now();
        db = crate::trace::span("core.open", || Database::open_with(dir, options))?;
        let ms = ms_since(t);
        if last {
            replay_ms = ms;
        } else {
            plain.push(ms);
        }
        report.attempted += 1;
        for (table, rows) in &expected {
            let got = db.row_count(table)?;
            if got != *rows {
                report.mismatch(format!(
                    "after reopen {cycle}, {table} has {got} rows, expected {rows}"
                ));
            }
        }
    }
    Ok((db, plain, replay_ms))
}
